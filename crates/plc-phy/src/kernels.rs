//! Structure-of-arrays kernels for the per-carrier PHY pipeline.
//!
//! The epoch rebuild and the SNR composition in `channel.rs` walk 917+
//! carriers; written carrier-major with a `powf` and a `sin`/`cos` pair
//! per (carrier, echo), the rebuild costs milliseconds. The kernels here
//! restructure that work into flat `f64` planes processed in fixed-width
//! lane chunks ([`LANES`]-sized inner loops over `chunks_exact`) that
//! LLVM autovectorizes on stable Rust — no `std::simd`, no
//! target-feature gates, no dependencies.
//!
//! # Bit-identity contract
//!
//! Every kernel comes in two variants:
//!
//! * `*_chunked` — the lane-structured form the cached evaluator uses;
//! * `*_scalar` — a plain element-at-a-time loop performing **the same
//!   floating-point operations in the same order**, used by the retained
//!   reference evaluator `spectrum_at_phase_reference`.
//!
//! Because Rust floating point is strictly IEEE-754 (no fast-math, no
//! implicit FMA contraction), an elementwise expression evaluates to the
//! same bits whether the loop is chunked or not; the pair exists so the
//! property tests in `tests/kernels.rs` can pin the equivalence across
//! lane remainders, signed zeros and subnormals, and so a future edit to
//! one side cannot silently diverge from the other. The one kernel with
//! real cross-element structure — the phase-rotation recurrence — makes
//! the lane layout part of its *definition*: both variants step an
//! 8-lane register of `(cos, sin)` states by the angle of a full chunk,
//! so they agree bitwise by construction.
//!
//! Transcendentals that libm would keep scalar (`powf`) are replaced by
//! [`exp10`], a branch-free polynomial kernel shared verbatim by both
//! variants. These kernels therefore *define* the model's ground truth:
//! `spectrum_at_phase_reference` calls the scalar forms, the cache calls
//! the chunked forms, and `tests/spectrum_cache.rs` keeps requiring the
//! two evaluators to agree bit-for-bit.

/// Lane width of the chunked kernels. Eight `f64`s span a full AVX-512
/// register, two AVX2 registers or four SSE2 registers; LLVM splits the
/// fixed-size inner loops accordingly.
pub const LANES: usize = 8;

/// log₂(10), to convert a base-10 exponent into a base-2 one.
const LOG2_10: f64 = std::f64::consts::LOG2_10;
/// ln(2), to evaluate 2^r as exp(r·ln 2) for |r| ≤ ½.
const LN2: f64 = std::f64::consts::LN_2;
/// 1.5·2^52: adding and subtracting this rounds a double to the nearest
/// integer (the classic round-to-even magic number), and the low bits of
/// the sum hold that integer in two's complement — both without any
/// float→int conversion instruction, so the trick vectorizes.
const RINT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// 10^x for finite `x`, clamped to `[-300, 300]`, accurate to a few ULP.
///
/// `powf(10.0, x)` is a libm call LLVM cannot vectorize; this kernel is
/// straight-line arithmetic (range reduction `10^x = 2^k · e^{r·ln2}`,
/// a degree-13 Taylor polynomial for the residual, and an exponent-field
/// bit-twiddle for `2^k`), so eight calls in a lane chunk compile to
/// vector code. The clamp keeps the bit-twiddle inside the normal
/// exponent range; the PHY feeds attenuation exponents of at most a few
/// dozen, so the clamp never binds in practice.
///
/// Used by both the chunked and scalar decay kernels, which is what
/// keeps them bit-identical: there is exactly one `10^x` in the model.
#[inline(always)]
pub fn exp10(x: f64) -> f64 {
    let x = x.clamp(-300.0, 300.0);
    let t = x * LOG2_10;
    let shifted = t + RINT_MAGIC;
    let k = shifted - RINT_MAGIC;
    // Low 32 bits of the magic sum = round(t) in two's complement.
    let ki = shifted.to_bits() as u32 as i32 as i64;
    let r = (t - k) * LN2;
    // exp(r) for |r| ≤ ln2/2 ≈ 0.347: Taylor to degree 13 leaves a
    // relative remainder below 1e-17.
    let mut p = 1.0 / 6_227_020_800.0; // 1/13!
    p = p * r + 1.0 / 479_001_600.0; // 1/12!
    p = p * r + 1.0 / 39_916_800.0; // 1/11!
    p = p * r + 1.0 / 3_628_800.0; // 1/10!
    p = p * r + 1.0 / 362_880.0; // 1/9!
    p = p * r + 1.0 / 40_320.0; // 1/8!
    p = p * r + 1.0 / 5_040.0; // 1/7!
    p = p * r + 1.0 / 720.0; // 1/6!
    p = p * r + 1.0 / 120.0; // 1/5!
    p = p * r + 1.0 / 24.0; // 1/4!
    p = p * r + 1.0 / 6.0; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k via the exponent field; k ∈ [-997, 997] stays normal.
    let two_k = f64::from_bits(((ki + 1023) as u64) << 52);
    p * two_k
}

/// Echo stub decay plane: `out[i] = exp10(-(alpha_root_f[i] · len) / 20)`
/// — the amplitude ratio left after a reflection travels `len` extra
/// metres of cable (`alpha_root_f` is the cached `cable_alpha·√f`
/// prefix). Chunked variant.
pub fn decay_plane_chunked(out: &mut [f64], alpha_root_f: &[f64], extra_len_m: f64) {
    assert_eq!(out.len(), alpha_root_f.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = alpha_root_f.chunks_exact(LANES);
    for (o, a) in (&mut oc).zip(&mut ac) {
        for l in 0..LANES {
            o[l] = exp10(-(a[l] * extra_len_m) / 20.0);
        }
    }
    for (o, a) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
        *o = exp10(-(a * extra_len_m) / 20.0);
    }
}

/// Scalar twin of [`decay_plane_chunked`].
pub fn decay_plane_scalar(out: &mut [f64], alpha_root_f: &[f64], extra_len_m: f64) {
    assert_eq!(out.len(), alpha_root_f.len());
    for (o, a) in out.iter_mut().zip(alpha_root_f) {
        *o = exp10(-(a * extra_len_m) / 20.0);
    }
}

/// Lane-strided `(cos θᵢ, sin θᵢ)` recurrence over the uniform carrier
/// grid, `θᵢ = θ₀ + i·dθ`.
///
/// Eight lanes are seeded with real `sin`/`cos` calls; every subsequent
/// chunk advances all lanes by the full-chunk angle `LANES·dθ` with one
/// complex rotation (4 mul + 2 add per lane, no libm). The recurrence
/// *is* the definition — both variants run it, so they agree bitwise —
/// and its drift over a 917-carrier plan is far below the model's
/// physical resolution (the rotator magnitude decays by ~1e-16 per
/// step). Planes are built once per channel, never per rebuild.
struct LaneRotor {
    c: [f64; LANES],
    s: [f64; LANES],
    /// cos/sin of the full-chunk step angle `LANES·dθ`.
    step_c: f64,
    step_s: f64,
}

impl LaneRotor {
    fn new(theta0: f64, dtheta: f64) -> LaneRotor {
        let mut c = [0.0; LANES];
        let mut s = [0.0; LANES];
        for (l, (cl, sl)) in c.iter_mut().zip(s.iter_mut()).enumerate() {
            let th = theta0 + l as f64 * dtheta;
            *cl = th.cos();
            *sl = th.sin();
        }
        let step = LANES as f64 * dtheta;
        LaneRotor {
            c,
            s,
            step_c: step.cos(),
            step_s: step.sin(),
        }
    }

    /// Advance every lane by the full-chunk angle.
    #[inline(always)]
    fn advance(&mut self) {
        for l in 0..LANES {
            let (c, s) = (self.c[l], self.s[l]);
            self.c[l] = c * self.step_c - s * self.step_s;
            self.s[l] = s * self.step_c + c * self.step_s;
        }
    }
}

/// Fill `cos_out[i] = cos(θ₀ + i·dθ)`, `sin_out[i] = sin(θ₀ + i·dθ)` by
/// the lane recurrence. Chunked variant.
pub fn rotation_planes_chunked(cos_out: &mut [f64], sin_out: &mut [f64], theta0: f64, dtheta: f64) {
    assert_eq!(cos_out.len(), sin_out.len());
    let mut rotor = LaneRotor::new(theta0, dtheta);
    let mut cc = cos_out.chunks_exact_mut(LANES);
    let mut sc = sin_out.chunks_exact_mut(LANES);
    for (co, so) in (&mut cc).zip(&mut sc) {
        co.copy_from_slice(&rotor.c);
        so.copy_from_slice(&rotor.s);
        rotor.advance();
    }
    for (l, (co, so)) in cc
        .into_remainder()
        .iter_mut()
        .zip(sc.into_remainder())
        .enumerate()
    {
        *co = rotor.c[l];
        *so = rotor.s[l];
    }
}

/// Scalar twin of [`rotation_planes_chunked`]: element-at-a-time, but
/// stepping the identical 8-lane state machine so every emitted value
/// matches the chunked plane bit-for-bit.
pub fn rotation_planes_scalar(cos_out: &mut [f64], sin_out: &mut [f64], theta0: f64, dtheta: f64) {
    assert_eq!(cos_out.len(), sin_out.len());
    let mut rotor = LaneRotor::new(theta0, dtheta);
    for (i, (co, so)) in cos_out.iter_mut().zip(sin_out.iter_mut()).enumerate() {
        let l = i % LANES;
        *co = rotor.c[l];
        *so = rotor.s[l];
        if l == LANES - 1 {
            rotor.advance();
        }
    }
}

/// Accumulate one echo group into the interference planes:
/// `re[i] -= (coeff·decay[i])·cos[i]`, `im[i] += (coeff·decay[i])·sin[i]`
/// (a reflection inverts polarity — Γ < 0 for shunt loads). `coeff` is
/// the summed `echo_gain·γ` of every echo sharing this stub geometry.
/// Chunked variant — the inner loop of the epoch rebuild.
pub fn echo_mac_chunked(
    re: &mut [f64],
    im: &mut [f64],
    coeff: f64,
    decay: &[f64],
    cos: &[f64],
    sin: &[f64],
) {
    let n = re.len();
    assert!(im.len() == n && decay.len() == n && cos.len() == n && sin.len() == n);
    let mut rc = re.chunks_exact_mut(LANES);
    let mut ic = im.chunks_exact_mut(LANES);
    let mut dc = decay.chunks_exact(LANES);
    let mut cc = cos.chunks_exact(LANES);
    let mut sc = sin.chunks_exact(LANES);
    for ((((r, i), d), c), s) in (&mut rc)
        .zip(&mut ic)
        .zip(&mut dc)
        .zip(&mut cc)
        .zip(&mut sc)
    {
        for l in 0..LANES {
            let amp = coeff * d[l];
            r[l] -= amp * c[l];
            i[l] += amp * s[l];
        }
    }
    for ((((r, i), d), c), s) in rc
        .into_remainder()
        .iter_mut()
        .zip(ic.into_remainder().iter_mut())
        .zip(dc.remainder())
        .zip(cc.remainder())
        .zip(sc.remainder())
    {
        let amp = coeff * d;
        *r -= amp * c;
        *i += amp * s;
    }
}

/// Scalar twin of [`echo_mac_chunked`].
pub fn echo_mac_scalar(
    re: &mut [f64],
    im: &mut [f64],
    coeff: f64,
    decay: &[f64],
    cos: &[f64],
    sin: &[f64],
) {
    let n = re.len();
    assert!(im.len() == n && decay.len() == n && cos.len() == n && sin.len() == n);
    for i in 0..n {
        let amp = coeff * decay[i];
        re[i] -= amp * cos[i];
        im[i] += amp * sin[i];
    }
}

/// Reset the interference planes to the direct ray: `re = 1`, `im = 0`.
pub fn reset_planes(re: &mut [f64], im: &mut [f64]) {
    re.fill(1.0);
    im.fill(0.0);
}

/// Multipath finisher:
/// `out[i] = max(20·log10(max(√(re²+im²), 1e-9)), max_null_db)` — the
/// interference amplitude in dB, clipped at the deepest null receivers
/// resolve. `log10` stays a libm call (scalar either way); the
/// surrounding arithmetic still chunks. Chunked variant.
pub fn mp_db_chunked(out: &mut [f64], re: &[f64], im: &[f64], max_null_db: f64) {
    let n = out.len();
    assert!(re.len() == n && im.len() == n);
    let mut oc = out.chunks_exact_mut(LANES);
    let mut rc = re.chunks_exact(LANES);
    let mut ic = im.chunks_exact(LANES);
    for ((o, r), i) in (&mut oc).zip(&mut rc).zip(&mut ic) {
        for l in 0..LANES {
            o[l] = (20.0 * (r[l] * r[l] + i[l] * i[l]).sqrt().max(1e-9).log10()).max(max_null_db);
        }
    }
    for ((o, r), i) in oc
        .into_remainder()
        .iter_mut()
        .zip(rc.remainder())
        .zip(ic.remainder())
    {
        *o = (20.0 * (r * r + i * i).sqrt().max(1e-9).log10()).max(max_null_db);
    }
}

/// Scalar twin of [`mp_db_chunked`].
pub fn mp_db_scalar(out: &mut [f64], re: &[f64], im: &[f64], max_null_db: f64) {
    let n = out.len();
    assert!(re.len() == n && im.len() == n);
    for i in 0..n {
        out[i] = (20.0 * (re[i] * re[i] + im[i] * im[i]).sqrt().max(1e-9).log10()).max(max_null_db);
    }
}

/// The frequency-flat scalars of one spectrum evaluation, bundled so the
/// composition kernel states the reference association order in exactly
/// one place.
#[derive(Debug, Clone, Copy)]
pub struct FlatTerms {
    /// Transmit power spectral density, dBm/Hz.
    pub tx_psd_dbm_hz: f64,
    /// Summed transit loss past all loaded taps, dB.
    pub transit_db_total: f64,
    /// Distribution-board crossing loss, dB.
    pub board_db: f64,
    /// Injection + extraction coupling loss, dB.
    pub coupling_db: f64,
    /// Receiver noise floor, dBm/Hz.
    pub noise_floor_dbm_hz: f64,
    /// Ambient appliance noise above the floor, dB.
    pub ambient_db: f64,
    /// Cycle-scale noise fluctuation, dB.
    pub cycle_db: f64,
}

impl FlatTerms {
    /// The scalars' bit patterns, for exact comparison.
    pub(crate) fn to_bits(self) -> [u64; 7] {
        [
            self.tx_psd_dbm_hz.to_bits(),
            self.transit_db_total.to_bits(),
            self.board_db.to_bits(),
            self.coupling_db.to_bits(),
            self.noise_floor_dbm_hz.to_bits(),
            self.ambient_db.to_bits(),
            self.cycle_db.to_bits(),
        ]
    }

    /// One carrier of the composition, kept `inline(always)` so both
    /// variants inline the identical expression. The association order
    /// is the reference evaluator's, verbatim.
    #[inline(always)]
    fn snr(&self, cable_db: f64, clutter_db: f64, lowfreq_db: f64, mp_db: f64) -> f64 {
        let atten_db =
            cable_db + self.transit_db_total + self.board_db + clutter_db + self.coupling_db
                - mp_db;
        let floor_db = self.noise_floor_dbm_hz + lowfreq_db + self.ambient_db + self.cycle_db;
        self.tx_psd_dbm_hz - atten_db - floor_db
    }
}

/// Compose the final per-carrier SNR from the static planes, the epoch
/// multipath plane and the flat scalars. Chunked variant.
pub fn compose_snr_chunked(
    out: &mut [f64],
    cable_db: &[f64],
    clutter_db: &[f64],
    lowfreq_db: &[f64],
    mp_db: &[f64],
    flat: &FlatTerms,
) {
    let n = out.len();
    assert!(
        cable_db.len() == n && clutter_db.len() == n && lowfreq_db.len() == n && mp_db.len() == n
    );
    let mut oc = out.chunks_exact_mut(LANES);
    let mut cc = cable_db.chunks_exact(LANES);
    let mut kc = clutter_db.chunks_exact(LANES);
    let mut lc = lowfreq_db.chunks_exact(LANES);
    let mut mc = mp_db.chunks_exact(LANES);
    for ((((o, c), k), lf), m) in (&mut oc)
        .zip(&mut cc)
        .zip(&mut kc)
        .zip(&mut lc)
        .zip(&mut mc)
    {
        for l in 0..LANES {
            o[l] = flat.snr(c[l], k[l], lf[l], m[l]);
        }
    }
    for ((((o, c), k), lf), m) in oc
        .into_remainder()
        .iter_mut()
        .zip(cc.remainder())
        .zip(kc.remainder())
        .zip(lc.remainder())
        .zip(mc.remainder())
    {
        *o = flat.snr(*c, *k, *lf, *m);
    }
}

/// Scalar twin of [`compose_snr_chunked`].
pub fn compose_snr_scalar(
    out: &mut [f64],
    cable_db: &[f64],
    clutter_db: &[f64],
    lowfreq_db: &[f64],
    mp_db: &[f64],
    flat: &FlatTerms,
) {
    let n = out.len();
    assert!(
        cable_db.len() == n && clutter_db.len() == n && lowfreq_db.len() == n && mp_db.len() == n
    );
    for i in 0..n {
        out[i] = flat.snr(cable_db[i], clutter_db[i], lowfreq_db[i], mp_db[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp10_tracks_powf_closely() {
        // Physical range (echo attenuation exponents are |x| < ~2):
        // a couple of ULP of powf.
        for k in -200..=200 {
            let x = k as f64 / 100.0;
            let want = 10f64.powf(x);
            let got = exp10(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 5e-15, "exp10({x}) = {got}, powf = {want}, rel {rel}");
        }
        // Full clamp range: the single-product range reduction loses
        // ~ulp(x·log2 10) of exponent, so the bound loosens with |x|.
        for k in -30..=30 {
            let x = k as f64 * 7.3;
            let want = 10f64.powf(x);
            let got = exp10(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "exp10({x}) = {got}, powf = {want}, rel {rel}");
        }
        assert_eq!(exp10(0.0), 1.0);
        assert_eq!(exp10(-0.0), 1.0);
        assert!((exp10(1.0) - 10.0).abs() < 1e-13);
        assert!((exp10(-1.0) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn exp10_clamps_out_of_range() {
        assert!(exp10(400.0).is_finite());
        assert!(exp10(-400.0) > 0.0);
        assert_eq!(exp10(400.0), exp10(300.0));
        assert_eq!(exp10(-400.0), exp10(-300.0));
    }

    #[test]
    fn rotation_planes_stay_near_unit_magnitude() {
        let n = 917;
        let mut c = vec![0.0; n];
        let mut s = vec![0.0; n];
        rotation_planes_chunked(&mut c, &mut s, 0.37, 0.0123);
        for i in 0..n {
            let mag = (c[i] * c[i] + s[i] * s[i]).sqrt();
            assert!((mag - 1.0).abs() < 1e-12, "lane drift at {i}: {mag}");
            let th = 0.37 + i as f64 * 0.0123;
            assert!((c[i] - th.cos()).abs() < 1e-10, "cos drift at {i}");
            assert!((s[i] - th.sin()).abs() < 1e-10, "sin drift at {i}");
        }
    }
}
