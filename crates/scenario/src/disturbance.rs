//! Parsing of the scenario schema's fault track: the `disturbances`,
//! `couplings` and `assertions` arrays.
//!
//! ```json
//! "disturbances": [
//!   {"name": "surge", "at_s": 5.0, "duration_s": 3.0, "ramp_s": 1.0,
//!    "kind": {"appliance-surge": {"board": 0, "noise_db": 12.0}}},
//!   {"at_s": 10.0, "duration_s": 4.0,
//!    "kind": {"breaker-trip": {"board": 1}}},
//!   {"at_s": 18.0, "duration_s": 2.0, "kind": "probe-dropout"}
//! ],
//! "couplings": [
//!   {"source": "surge", "after_ms": 500, "duration_s": 2.0,
//!    "effect": {"wifi-jam": {"penalty_db": 25.0}}}
//! ],
//! "assertions": [
//!   {"hybrid-at-least-best-medium": {"within_s": 2.0}},
//!   {"estimate-within": {"tolerance_frac": 0.10, "settle_s": 2.0}},
//!   {"recovery-within": {"within_s": 2.0, "frac": 0.8}},
//!   {"counter-at-least": {"counter": "faults.edges", "min": 2}}
//! ]
//! ```
//!
//! Like the rest of the schema, decoding goes through the path-tracking
//! [`crate::de::At`] helpers, so every malformed variant is rejected
//! with the offending field's full dotted path.

use crate::de::At;
use crate::error::ScenarioError;
use electrifi_faults::{AssertionSpec, CouplingSpec, DisturbanceKind, DisturbanceSpec};

const KIND_NAMES: &str = "appliance-surge, breaker-trip, cable-degrade, wifi-jam, probe-dropout";
const ASSERTION_NAMES: &str =
    "hybrid-at-least-best-medium, estimate-within, recovery-within, counter-at-least";

fn non_negative(at: &At) -> Result<f64, ScenarioError> {
    let x = at.f64()?;
    if x >= 0.0 {
        Ok(x)
    } else {
        Err(at.invalid(format!("must be non-negative, got {x}")))
    }
}

/// A positive number of seconds that fits the simulated-time range.
fn positive_secs(at: &At) -> Result<f64, ScenarioError> {
    let x = at.positive()?;
    at.secs_ns(x)?;
    Ok(x)
}

/// A non-negative number of seconds that fits the simulated-time range.
fn non_negative_secs(at: &At) -> Result<f64, ScenarioError> {
    let x = non_negative(at)?;
    at.secs_ns(x)?;
    Ok(x)
}

fn fraction(at: &At) -> Result<f64, ScenarioError> {
    let x = at.f64()?;
    if x > 0.0 && x <= 1.0 {
        Ok(x)
    } else {
        Err(at.invalid(format!("must be a fraction in (0, 1], got {x}")))
    }
}

fn board(at: &At) -> Result<u16, ScenarioError> {
    let v = at.u64()?;
    u16::try_from(v).map_err(|_| at.invalid(format!("board index too large: {v}")))
}

/// Parse a disturbance kind: either a bare string (`"probe-dropout"`) or
/// an object with exactly one kind key.
pub fn parse_kind(at: &At) -> Result<DisturbanceKind, ScenarioError> {
    if let Ok(s) = at.str() {
        return match s {
            "probe-dropout" => Ok(DisturbanceKind::ProbeDropout),
            other => Err(at.invalid(format!(
                "unknown disturbance kind {other:?} (strings: probe-dropout; \
                 objects keyed by one of: {KIND_NAMES})"
            ))),
        };
    }
    let fields = at.obj()?;
    if fields.len() != 1 {
        return Err(at.invalid(format!(
            "a disturbance kind object must have exactly one key (one of: {KIND_NAMES}), \
             got {}",
            fields.len()
        )));
    }
    at.no_unknown_keys(&[
        "appliance-surge",
        "breaker-trip",
        "cable-degrade",
        "wifi-jam",
        "probe-dropout",
    ])?;
    // The one key is a known kind; a `null` body is missing, not absent.
    let (kind, _) = &fields[0];
    let body = at.req(kind)?;
    match kind.as_str() {
        "appliance-surge" => {
            body.no_unknown_keys(&["board", "noise_db"])?;
            Ok(DisturbanceKind::ApplianceSurge {
                board: board(&body.req("board")?)?,
                noise_db: body.req("noise_db")?.positive()?,
            })
        }
        "breaker-trip" => {
            body.no_unknown_keys(&["board"])?;
            Ok(DisturbanceKind::BreakerTrip {
                board: board(&body.req("board")?)?,
            })
        }
        "cable-degrade" => {
            body.no_unknown_keys(&["board", "atten_db"])?;
            Ok(DisturbanceKind::CableDegrade {
                board: board(&body.req("board")?)?,
                atten_db: body.req("atten_db")?.positive()?,
            })
        }
        "wifi-jam" => {
            body.no_unknown_keys(&["penalty_db"])?;
            Ok(DisturbanceKind::WifiJam {
                penalty_db: body.req("penalty_db")?.positive()?,
            })
        }
        // Only `probe-dropout` is left; as an object it takes no parameters.
        _ => {
            body.obj()?;
            body.no_unknown_keys(&[])?;
            Ok(DisturbanceKind::ProbeDropout)
        }
    }
}

/// Parse the `disturbances` array. Names must be unique (anonymous
/// entries are fine).
pub fn parse_disturbances(at: &At) -> Result<Vec<DisturbanceSpec>, ScenarioError> {
    let mut out = Vec::new();
    for d in at.items()? {
        d.no_unknown_keys(&["name", "at_s", "duration_s", "ramp_s", "kind"])?;
        let name = match d.opt("name") {
            Some(n) => {
                let s = n.str()?.to_string();
                if s.is_empty() {
                    return Err(n.invalid("disturbance names must be non-empty when given"));
                }
                if out.iter().any(|p: &DisturbanceSpec| p.name == s) {
                    return Err(n.invalid(format!("duplicate disturbance name {s:?}")));
                }
                s
            }
            None => String::new(),
        };
        let at_s = non_negative_secs(&d.req("at_s")?)?;
        let duration_s = positive_secs(&d.req("duration_s")?)?;
        let ramp_field = d.opt("ramp_s");
        let ramp_s = match &ramp_field {
            Some(r) => non_negative_secs(r)?,
            None => 0.0,
        };
        if ramp_s > duration_s {
            return Err(ramp_field
                .expect("only reachable when ramp_s was given")
                .invalid(format!(
                    "ramp_s ({ramp_s}) cannot exceed duration_s ({duration_s})"
                )));
        }
        out.push(DisturbanceSpec {
            name,
            at_s,
            duration_s,
            ramp_s,
            kind: parse_kind(&d.req("kind")?)?,
        });
    }
    Ok(out)
}

/// Parse the `couplings` array. Each `source` must name a disturbance in
/// `disturbances`.
pub fn parse_couplings(
    at: &At,
    disturbances: &[DisturbanceSpec],
) -> Result<Vec<CouplingSpec>, ScenarioError> {
    let mut out = Vec::new();
    for c in at.items()? {
        c.no_unknown_keys(&["source", "after_ms", "duration_s", "effect"])?;
        let source_field = c.req("source")?;
        let source = source_field.str()?.to_string();
        if !disturbances
            .iter()
            .any(|d| !d.name.is_empty() && d.name == source)
        {
            return Err(source_field.invalid(format!(
                "coupling source {source:?} names no disturbance (named disturbances: {})",
                {
                    let names: Vec<&str> = disturbances
                        .iter()
                        .filter(|d| !d.name.is_empty())
                        .map(|d| d.name.as_str())
                        .collect();
                    if names.is_empty() {
                        "<none>".to_string()
                    } else {
                        names.join(", ")
                    }
                }
            )));
        }
        let after_field = c.req("after_ms")?;
        let after_ms = after_field.u64()?;
        after_field.span_ns(after_ms, 1_000_000)?;
        out.push(CouplingSpec {
            source,
            after_ms,
            duration_s: positive_secs(&c.req("duration_s")?)?,
            effect: parse_kind(&c.req("effect")?)?,
        });
    }
    Ok(out)
}

/// Parse the `assertions` array: each entry is an object with exactly
/// one assertion-kind key.
pub fn parse_assertions(at: &At) -> Result<Vec<AssertionSpec>, ScenarioError> {
    let mut out = Vec::new();
    for a in at.items()? {
        let fields = a.obj()?;
        if fields.len() != 1 {
            return Err(a.invalid(format!(
                "an assertion must have exactly one key (one of: {ASSERTION_NAMES}), got {}",
                fields.len()
            )));
        }
        a.no_unknown_keys(&[
            "hybrid-at-least-best-medium",
            "estimate-within",
            "recovery-within",
            "counter-at-least",
        ])?;
        // The one key is a known kind; a `null` body is missing, not absent.
        let (kind, _) = &fields[0];
        let body = a.req(kind)?;
        out.push(match kind.as_str() {
            "hybrid-at-least-best-medium" => {
                body.no_unknown_keys(&["within_s"])?;
                AssertionSpec::HybridAtLeastBestMedium {
                    within_s: positive_secs(&body.req("within_s")?)?,
                }
            }
            "estimate-within" => {
                body.no_unknown_keys(&["tolerance_frac", "settle_s"])?;
                AssertionSpec::EstimateWithin {
                    tolerance_frac: fraction(&body.req("tolerance_frac")?)?,
                    settle_s: non_negative_secs(&body.req("settle_s")?)?,
                }
            }
            "recovery-within" => {
                body.no_unknown_keys(&["within_s", "frac"])?;
                AssertionSpec::RecoveryWithin {
                    within_s: positive_secs(&body.req("within_s")?)?,
                    frac: fraction(&body.req("frac")?)?,
                }
            }
            // Only `counter-at-least` is left.
            _ => {
                body.no_unknown_keys(&["counter", "min"])?;
                let counter_field = body.req("counter")?;
                let counter = counter_field.str()?.to_string();
                if counter.is_empty() {
                    return Err(counter_field.invalid("counter name must be non-empty"));
                }
                AssertionSpec::CounterAtLeast {
                    counter,
                    min: non_negative(&body.req("min")?)?,
                }
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    type Track = (Vec<DisturbanceSpec>, Vec<CouplingSpec>, Vec<AssertionSpec>);

    fn parse_track(json: &str) -> Result<Track, ScenarioError> {
        let v: Value = serde_json::from_str(json).expect("test doc parses");
        let root = At::root(&v);
        let disturbances = match root.opt("disturbances") {
            Some(d) => parse_disturbances(&d)?,
            None => Vec::new(),
        };
        let couplings = match root.opt("couplings") {
            Some(c) => parse_couplings(&c, &disturbances)?,
            None => Vec::new(),
        };
        let assertions = match root.opt("assertions") {
            Some(a) => parse_assertions(&a)?,
            None => Vec::new(),
        };
        Ok((disturbances, couplings, assertions))
    }

    #[test]
    fn full_track_parses() {
        let (d, c, a) = parse_track(
            r#"{
              "disturbances": [
                {"name": "surge", "at_s": 5.0, "duration_s": 3.0, "ramp_s": 1.0,
                 "kind": {"appliance-surge": {"board": 0, "noise_db": 12.0}}},
                {"at_s": 10.0, "duration_s": 4.0, "kind": {"breaker-trip": {"board": 1}}},
                {"at_s": 15.0, "duration_s": 2.0, "kind": {"cable-degrade": {"board": 0, "atten_db": 6.0}}},
                {"at_s": 18.0, "duration_s": 1.0, "kind": {"wifi-jam": {"penalty_db": 25.0}}},
                {"at_s": 20.0, "duration_s": 2.0, "kind": "probe-dropout"}
              ],
              "couplings": [
                {"source": "surge", "after_ms": 500, "duration_s": 2.0,
                 "effect": {"wifi-jam": {"penalty_db": 20.0}}}
              ],
              "assertions": [
                {"hybrid-at-least-best-medium": {"within_s": 2.0}},
                {"estimate-within": {"tolerance_frac": 0.1, "settle_s": 2.0}},
                {"recovery-within": {"within_s": 2.0, "frac": 0.8}},
                {"counter-at-least": {"counter": "faults.edges", "min": 2}}
              ]
            }"#,
        )
        .expect("valid track");
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].name, "surge");
        assert_eq!(d[0].ramp_s, 1.0);
        assert_eq!(d[4].kind, DisturbanceKind::ProbeDropout);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].after_ms, 500);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn malformed_disturbances_name_the_offending_field() {
        // at_s negative.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": -1.0, "duration_s": 1.0, "kind": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].at_s"));

        // duration_s zero.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 0.0, "kind": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].duration_s"));

        // ramp longer than the window.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0, "ramp_s": 2.0,
                "kind": {"appliance-surge": {"board": 0, "noise_db": 3.0}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].ramp_s"));

        // kind missing entirely.
        let err =
            parse_track(r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0}]}"#).unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].kind"));

        // unknown kind key.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0,
                "kind": {"meteor-strike": {}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].kind.meteor-strike"));

        // surge without noise_db.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0,
                "kind": {"appliance-surge": {"board": 0}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.field(),
            Some("disturbances[0].kind.appliance-surge.noise_db")
        );

        // negative jam penalty.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0,
                "kind": {"wifi-jam": {"penalty_db": -3.0}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.field(),
            Some("disturbances[0].kind.wifi-jam.penalty_db")
        );

        // a kind whose body is null (this used to panic).
        for kind in ["appliance-surge", "probe-dropout"] {
            let err = parse_track(&format!(
                r#"{{"disturbances": [{{"at_s": 0.0, "duration_s": 1.0,
                    "kind": {{"{kind}": null}}}}]}}"#
            ))
            .unwrap_err();
            assert_eq!(err.field(), Some(&*format!("disturbances[0].kind.{kind}")));
        }

        // board index out of u16 range.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0,
                "kind": {"breaker-trip": {"board": 70000}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].kind.breaker-trip.board"));

        // duplicate names.
        let err = parse_track(
            r#"{"disturbances": [
                {"name": "x", "at_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"},
                {"name": "x", "at_s": 2.0, "duration_s": 1.0, "kind": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[1].name"));

        // typo'd field.
        let err = parse_track(
            r#"{"disturbances": [{"att_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("disturbances[0].att_s"));
    }

    #[test]
    fn malformed_couplings_name_the_offending_field() {
        // Unknown source.
        let err = parse_track(
            r#"{"disturbances": [
                {"name": "a", "at_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"}],
              "couplings": [
                {"source": "ghost", "after_ms": 10, "duration_s": 1.0,
                 "effect": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("couplings[0].source"));
        assert!(err.to_string().contains("ghost"), "{err}");

        // Source referencing an anonymous disturbance can't work either.
        let err = parse_track(
            r#"{"disturbances": [{"at_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"}],
              "couplings": [{"source": "", "after_ms": 10, "duration_s": 1.0,
                             "effect": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("couplings[0].source"));

        // Missing effect.
        let err = parse_track(
            r#"{"disturbances": [
                {"name": "a", "at_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"}],
              "couplings": [{"source": "a", "after_ms": 10, "duration_s": 1.0}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("couplings[0].effect"));

        // Non-integer delay.
        let err = parse_track(
            r#"{"disturbances": [
                {"name": "a", "at_s": 0.0, "duration_s": 1.0, "kind": "probe-dropout"}],
              "couplings": [{"source": "a", "after_ms": -5, "duration_s": 1.0,
                             "effect": "probe-dropout"}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("couplings[0].after_ms"));
    }

    #[test]
    fn malformed_assertions_name_the_offending_field() {
        // Unknown assertion kind.
        let err = parse_track(r#"{"assertions": [{"always-fast": {}}]}"#).unwrap_err();
        assert_eq!(err.field(), Some("assertions[0].always-fast"));

        // Two keys in one entry.
        let err = parse_track(
            r#"{"assertions": [{"recovery-within": {"within_s": 1.0, "frac": 0.5},
                                "counter-at-least": {"counter": "x", "min": 1}}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("assertions[0]"));

        // Tolerance outside (0, 1].
        let err = parse_track(
            r#"{"assertions": [{"estimate-within": {"tolerance_frac": 1.5, "settle_s": 1.0}}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.field(),
            Some("assertions[0].estimate-within.tolerance_frac")
        );

        // Empty counter name.
        let err =
            parse_track(r#"{"assertions": [{"counter-at-least": {"counter": "", "min": 1}}]}"#)
                .unwrap_err();
        assert_eq!(err.field(), Some("assertions[0].counter-at-least.counter"));

        // A kind whose body is null (this used to panic).
        let err =
            parse_track(r#"{"assertions": [{"hybrid-at-least-best-medium": null}]}"#).unwrap_err();
        assert_eq!(
            err.field(),
            Some("assertions[0].hybrid-at-least-best-medium")
        );

        // Missing within_s.
        let err =
            parse_track(r#"{"assertions": [{"hybrid-at-least-best-medium": {}}]}"#).unwrap_err();
        assert_eq!(
            err.field(),
            Some("assertions[0].hybrid-at-least-best-medium.within_s")
        );
    }
}
