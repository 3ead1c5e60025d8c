//! Floor geometry for the WiFi path-loss model.
//!
//! The testbed floor (paper Fig. 2) is a 70 m × 40 m office floor. WiFi
//! attenuation depends on the euclidean distance between stations and on
//! the number of walls the direct path crosses; this module provides both.

use serde::{Deserialize, Serialize};

/// A point on the floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Metres along the long side of the floor.
    pub x: f64,
    /// Metres along the short side of the floor.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An opaque wall segment between two points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wall {
    /// One endpoint of the wall.
    pub a: Point,
    /// The other endpoint of the wall.
    pub b: Point,
    /// Attenuation the wall adds to a crossing path, in dB.
    pub attenuation_db: f64,
}

impl Wall {
    /// A standard office drywall partition (≈5 dB at 2.4 GHz).
    pub fn drywall(a: Point, b: Point) -> Self {
        Wall {
            a,
            b,
            attenuation_db: 5.0,
        }
    }

    /// A load-bearing concrete wall (≈12 dB).
    pub fn concrete(a: Point, b: Point) -> Self {
        Wall {
            a,
            b,
            attenuation_db: 12.0,
        }
    }
}

/// Orientation of the ordered triple (p, q, r): >0 counter-clockwise,
/// <0 clockwise, 0 collinear.
fn orient(p: Point, q: Point, r: Point) -> f64 {
    (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
}

/// Do segments `(p1, p2)` and `(q1, q2)` properly intersect? Shared
/// endpoints and collinear overlaps count as intersections.
pub fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    let on_segment = |p: Point, q: Point, r: Point| {
        r.x >= p.x.min(q.x) && r.x <= p.x.max(q.x) && r.y >= p.y.min(q.y) && r.y <= p.y.max(q.y)
    };
    (d1 == 0.0 && on_segment(q1, q2, p1))
        || (d2 == 0.0 && on_segment(q1, q2, p2))
        || (d3 == 0.0 && on_segment(p1, p2, q1))
        || (d4 == 0.0 && on_segment(p1, p2, q2))
}

/// A floor plan: bounding dimensions plus wall segments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Floor {
    /// Floor width in metres (x direction).
    pub width_m: f64,
    /// Floor depth in metres (y direction).
    pub depth_m: f64,
    /// Interior walls.
    pub walls: Vec<Wall>,
}

impl Floor {
    /// An empty floor with the given dimensions.
    pub fn new(width_m: f64, depth_m: f64) -> Self {
        Floor {
            width_m,
            depth_m,
            walls: Vec::new(),
        }
    }

    /// Add a wall.
    pub fn add_wall(&mut self, wall: Wall) {
        self.walls.push(wall);
    }

    /// Total wall attenuation (dB) along the straight line between two
    /// points.
    pub fn wall_attenuation_db(&self, a: Point, b: Point) -> f64 {
        self.walls
            .iter()
            .filter(|w| segments_intersect(a, b, w.a, w.b))
            .map(|w| w.attenuation_db)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn crossing_segments_intersect() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        ));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        assert!(!segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(2.0, 1.0),
        ));
    }

    #[test]
    fn touching_endpoint_counts() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0),
        ));
    }

    #[test]
    fn floor_accumulates_wall_attenuation() {
        let mut floor = Floor::new(70.0, 40.0);
        floor.add_wall(Wall::drywall(Point::new(5.0, 0.0), Point::new(5.0, 40.0)));
        floor.add_wall(Wall::concrete(
            Point::new(10.0, 0.0),
            Point::new(10.0, 40.0),
        ));
        let a = Point::new(0.0, 20.0);
        let b = Point::new(15.0, 20.0);
        assert!((floor.wall_attenuation_db(a, b) - 17.0).abs() < 1e-12);
        // A path that stays left of both walls crosses nothing.
        let c = Point::new(4.0, 5.0);
        assert_eq!(floor.wall_attenuation_db(a, c), 0.0);
    }
}
