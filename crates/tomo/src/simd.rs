//! Runtime SIMD dispatch and the vectorized hot-loop kernels.
//!
//! The reconstruction hot loops — fused-lerp backprojection, the packed
//! FFT butterflies, and the ramp-filter spectrum multiply — all dispatch
//! through a [`SimdPath`] chosen once at plan-build time:
//!
//! * [`SimdPath::Avx2`] — explicit `core::arch::x86_64` kernels using
//!   256-bit lanes (8 × f32 for the backprojection lerp, 2 complexes per
//!   butterfly). Selected only when the host reports both `avx2` and
//!   `fma` at runtime; no compile-time `target-feature` flags are
//!   required, so one binary serves every x86-64 host.
//! * [`SimdPath::Scalar`] — safe lane-chunked loops with the same
//!   arithmetic structure. Always available; the only path on
//!   non-x86-64 targets.
//!
//! Precision contract: the FFT butterfly and spectrum-multiply kernels
//! are **bit-exact** against the scalar path (each lane performs the
//! same multiply/add/sub sequence in the same order — AVX only, no FMA
//! contraction). The backprojection kernel computes the detector
//! coordinate in f64 (so interval-clipping invariants hold to plan
//! precision) but interpolates in f32 wide lanes; it is gated against
//! the scalar path and the pre-plan reference at ≤1e-5 RMSE by
//! `tests/plan_equivalence.rs`.
//!
//! The lane kernels ([`ray_sums_lanes`] for SIRT's forward projector,
//! [`backproject_row_lanes`] for the SIRT and FBP backprojectors)
//! vectorize across *slices* instead of along a row: four slices are
//! stored pixel-interleaved, the index and weight math of a sample or
//! pixel is done once, and each lane repeats the per-slice kernel's
//! arithmetic of the same path exactly, so a lane is **bit-identical**
//! to reconstructing that slice alone.
//!
//! Set `ALS_TOMO_SIMD=scalar` in the environment to force the scalar
//! path regardless of CPU features (used by benches to measure the
//! fallback on wide hosts).

use crate::fft::Complex;
use crate::iterative::RaySample;

/// Which kernel family plans dispatch to. Ordered: later variants are
/// strictly wider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SimdPath {
    /// Safe lane-chunked loops; always available.
    #[default]
    Scalar,
    /// 256-bit AVX2 + FMA kernels behind runtime feature detection.
    Avx2,
}

impl SimdPath {
    /// Stable lowercase name, used in `BENCH_recon.json` and bench logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
        }
    }

    /// Clamp a requested path to what this host can actually execute —
    /// forcing `Scalar` always works; forcing `Avx2` on a host without
    /// the features silently degrades to the detected path.
    pub fn clamp_to_host(self) -> SimdPath {
        self.min(detect())
    }
}

/// Detect the widest safe path for this host (cached after first call).
/// Honors the `ALS_TOMO_SIMD=scalar` override.
pub fn detect() -> SimdPath {
    use std::sync::OnceLock;
    static CACHE: OnceLock<SimdPath> = OnceLock::new();
    *CACHE.get_or_init(|| {
        if std::env::var("ALS_TOMO_SIMD").is_ok_and(|v| v.eq_ignore_ascii_case("scalar")) {
            return SimdPath::Scalar;
        }
        detect_uncached()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_uncached() -> SimdPath {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdPath::Avx2
    } else {
        SimdPath::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_uncached() -> SimdPath {
    SimdPath::Scalar
}

/// f32 lanes the backprojection inner loop processes per iteration.
pub fn lanes(path: SimdPath) -> usize {
    match path {
        SimdPath::Scalar => 1,
        SimdPath::Avx2 => 8,
    }
}

// ---------------------------------------------------------------------------
// Backprojection: fused-lerp row kernel
// ---------------------------------------------------------------------------

/// Accumulate one (output-row, angle) span of fused-lerp backprojection.
///
/// `rowf` is the prescaled f32 projection row with one sentinel `0.0`
/// appended (`n_det + 1` entries). `out` is the span of output pixels
/// `[xa, xb)`; pixel `k` samples the detector at `t0 + k·step`, which
/// the plan's precomputed clip intervals guarantee lands in
/// `[0, n_det − 1]` (up to rounding the sentinel absorbs).
#[inline]
pub(crate) fn backproject_row(path: SimdPath, rowf: &[f32], t0: f64, step: f64, out: &mut [f32]) {
    // the kernels clamp indices to `rowf.len() − 2`, so a row without
    // its sentinel would turn the unchecked reads below into UB
    assert!(rowf.len() >= 2, "projection row lacks its sentinel");
    match path {
        SimdPath::Scalar => backproject_row_scalar(rowf, t0, step, out),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => unsafe { backproject_row_avx2(rowf, t0, step, out) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 => backproject_row_scalar(rowf, t0, step, out),
    }
}

/// Lane-chunked scalar fallback: the detector coordinate is recomputed
/// per pixel from the affine form (no serial `t += step` dependency
/// chain), the index math runs in f64, and the interpolation runs in
/// f32 — the same precision split as the AVX2 kernel.
fn backproject_row_scalar(rowf: &[f32], t0: f64, step: f64, out: &mut [f32]) {
    let last = rowf.len() - 2; // rowf holds n_det + 1 entries
    for (k, o) in out.iter_mut().enumerate() {
        let t = t0 + k as f64 * step;
        let i = (t as usize).min(last);
        let f = (t - i as f64) as f32;
        // SAFETY: i ≤ last = rowf.len() − 2, so i + 1 is in bounds.
        let (lo, hi) = unsafe { (*rowf.get_unchecked(i), *rowf.get_unchecked(i + 1)) };
        *o += lo + f * (hi - lo);
    }
}

/// AVX2+FMA kernel: 8 output pixels per iteration. Detector coordinates
/// are computed 4-wide in f64, converted to i32 indices + f32 fractional
/// weights; the two lerp endpoints `rowf[i], rowf[i+1]` are adjacent in
/// memory, so each pair is fetched with a single 64-bit gather and
/// deinterleaved — two gathers serve all eight lanes.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn backproject_row_avx2(rowf: &[f32], t0: f64, step: f64, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let last = rowf.len() - 2;
    let base = rowf.as_ptr();
    let stepv = _mm256_set1_pd(step);
    let offs_lo = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    let offs_hi = _mm256_setr_pd(4.0, 5.0, 6.0, 7.0);
    let imax = _mm_set1_epi32(last as i32);
    let izero = _mm_setzero_si128();
    let mut k = 0usize;
    while k + 8 <= n {
        let tk = _mm256_set1_pd(t0 + k as f64 * step);
        let t_lo = _mm256_add_pd(tk, _mm256_mul_pd(offs_lo, stepv));
        let t_hi = _mm256_add_pd(tk, _mm256_mul_pd(offs_hi, stepv));
        // clamp indices into [0, last]: the clip intervals already
        // guarantee this up to rounding drift, the clamp is a safety net
        let i_lo = _mm_min_epi32(_mm_max_epi32(_mm256_cvttpd_epi32(t_lo), izero), imax);
        let i_hi = _mm_min_epi32(_mm_max_epi32(_mm256_cvttpd_epi32(t_hi), izero), imax);
        let f_lo = _mm256_cvtpd_ps(_mm256_sub_pd(t_lo, _mm256_cvtepi32_pd(i_lo)));
        let f_hi = _mm256_cvtpd_ps(_mm256_sub_pd(t_hi, _mm256_cvtepi32_pd(i_hi)));
        let f = _mm256_set_m128(f_hi, f_lo); // [f0..f7]
                                             // 64-bit gathers: each element is the adjacent pair
                                             // (rowf[i], rowf[i+1]) packed little-endian
        let g0 = _mm256_i32gather_epi64(base.cast::<i64>(), i_lo, 4);
        let g1 = _mm256_i32gather_epi64(base.cast::<i64>(), i_hi, 4);
        let p0 = _mm256_castsi256_ps(g0); // [lo0 hi0 lo1 hi1 | lo2 hi2 lo3 hi3]
        let p1 = _mm256_castsi256_ps(g1);
        // per-128-lane shuffle, then a cross-lane permute to restore
        // pixel order 0..7
        let lo_m = _mm256_shuffle_ps(p0, p1, 0b10_00_10_00); // [lo0 lo1 lo4 lo5 | lo2 lo3 lo6 lo7]
        let hi_m = _mm256_shuffle_ps(p0, p1, 0b11_01_11_01);
        let lo = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(lo_m), 0b11_01_10_00));
        let hi = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(hi_m), 0b11_01_10_00));
        let lerp = _mm256_fmadd_ps(f, _mm256_sub_ps(hi, lo), lo);
        let dst = out.as_mut_ptr().add(k).cast::<f32>();
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), lerp));
        k += 8;
    }
    backproject_row_scalar(rowf, t0 + k as f64 * step, step, &mut out[k..]);
}

// ---------------------------------------------------------------------------
// Slice-interleaved lane kernels (SIRT and FBP volumes)
// ---------------------------------------------------------------------------

/// Slices the SIRT and FBP engines advance per table or interval walk.
/// Their buffers are pixel-interleaved (`buf[pixel * SLICE_LANES +
/// lane]`), so the values one table sample or one detector coordinate
/// touches in every slice are one contiguous 128-bit load — no gather.
pub(crate) const SLICE_LANES: usize = 4;

/// Line integrals of `SLICE_LANES` interleaved `w`-wide images along
/// one ray of the forward-projection table. Each lane performs exactly
/// the scalar projector's f64 sequence (two accumulators over sample
/// pairs, unfused multiply/add), so every lane is bit-identical to
/// [`crate::IterPlan::forward_into`] on that slice alone, on either
/// path.
///
/// Panics if a sample's 2×2 footprint (`idx`, `idx + 1`, `idx + w`,
/// `idx + w + 1`) leaves the image.
#[inline]
pub(crate) fn ray_sums_lanes(
    path: SimdPath,
    samples: &[RaySample],
    w: usize,
    x4: &[f32],
) -> [f32; SLICE_LANES] {
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selected when the host reports the features.
        SimdPath::Avx2 => unsafe { ray_sums_lanes_avx2(samples, w, x4) },
        _ => ray_sums_lanes_scalar(samples, w, x4),
    }
}

fn ray_sums_lanes_scalar(samples: &[RaySample], w: usize, x4: &[f32]) -> [f32; SLICE_LANES] {
    const L: usize = SLICE_LANES;
    #[inline(always)]
    fn add_sample(s: &RaySample, w: usize, x4: &[f32], acc: &mut [f64; L]) {
        let i = s.idx as usize * L;
        let top = &x4[i..i + 2 * L];
        let bot = &x4[i + w * L..i + (w + 2) * L];
        let (fx, fy) = (s.fx as f64, s.fy as f64);
        for l in 0..L {
            let t = top[l] as f64 + fx * (top[L + l] as f64 - top[l] as f64);
            let u = bot[l] as f64 + fx * (bot[L + l] as f64 - bot[l] as f64);
            acc[l] += t + fy * (u - t);
        }
    }
    let mut acc0 = [0.0f64; L];
    let mut acc1 = [0.0f64; L];
    let mut it = samples.chunks_exact(2);
    for pair in &mut it {
        add_sample(&pair[0], w, x4, &mut acc0);
        add_sample(&pair[1], w, x4, &mut acc1);
    }
    for s in it.remainder() {
        add_sample(s, w, x4, &mut acc0);
    }
    std::array::from_fn(|l| (acc0[l] + acc1[l]) as f32)
}

/// One table sample per iteration, all four slices at once: four
/// `f32×4 → f64×4` loads (the 2×2 footprint), then the scalar
/// projector's sub/mul/add sequence in 256-bit f64 lanes — no FMA, so
/// each lane rounds exactly like the scalar path.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ray_sums_lanes_avx2(samples: &[RaySample], w: usize, x4: &[f32]) -> [f32; SLICE_LANES] {
    use std::arch::x86_64::*;
    const L: usize = SLICE_LANES;

    /// # Safety
    /// Host supports AVX2; `s.idx + w + 1 < npix` and `base` points at
    /// `npix * L` readable f32s.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sample(s: &RaySample, w: usize, base: *const f32) -> __m256d {
        let p = base.add(s.idx as usize * L);
        let q = p.add(w * L);
        let p00 = _mm256_cvtps_pd(_mm_loadu_ps(p));
        let p01 = _mm256_cvtps_pd(_mm_loadu_ps(p.add(L)));
        let p10 = _mm256_cvtps_pd(_mm_loadu_ps(q));
        let p11 = _mm256_cvtps_pd(_mm_loadu_ps(q.add(L)));
        let fx = _mm256_set1_pd(s.fx as f64);
        let fy = _mm256_set1_pd(s.fy as f64);
        let t = _mm256_add_pd(p00, _mm256_mul_pd(fx, _mm256_sub_pd(p01, p00)));
        let u = _mm256_add_pd(p10, _mm256_mul_pd(fx, _mm256_sub_pd(p11, p10)));
        _mm256_add_pd(t, _mm256_mul_pd(fy, _mm256_sub_pd(u, t)))
    }

    let npix = x4.len() / L;
    let base = x4.as_ptr();
    // the bounds check every unchecked load below relies on
    let in_image = |s: &RaySample| s.idx as usize + w + 1 < npix;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut it = samples.chunks_exact(2);
    for pair in &mut it {
        assert!(
            in_image(&pair[0]) && in_image(&pair[1]),
            "ray sample outside the image"
        );
        // SAFETY: both footprints were just checked against `npix`.
        acc0 = _mm256_add_pd(acc0, sample(&pair[0], w, base));
        acc1 = _mm256_add_pd(acc1, sample(&pair[1], w, base));
    }
    for s in it.remainder() {
        assert!(in_image(s), "ray sample outside the image");
        // SAFETY: footprint checked against `npix`.
        acc0 = _mm256_add_pd(acc0, sample(s, w, base));
    }
    let mut out = [0.0f32; L];
    _mm_storeu_ps(out.as_mut_ptr(), _mm256_cvtpd_ps(_mm256_add_pd(acc0, acc1)));
    out
}

/// [`backproject_row`] over `SLICE_LANES` interleaved slices: `rowf4`
/// is the interleaved projection row including its sentinel column
/// (`(n_det + 1) · SLICE_LANES` entries), `out4` the interleaved span of
/// output pixels. The detector coordinate, index and weight of a pixel
/// are computed once and spent on every lane; each lane's arithmetic
/// is exactly [`backproject_row`]'s on the same path (8-pixel chunks
/// with an FMA lerp and an unfused scalar tail on AVX2, unfused
/// throughout on the scalar path), so lanes are bit-identical to the
/// per-slice kernel.
#[inline]
pub(crate) fn backproject_row_lanes(
    path: SimdPath,
    rowf4: &[f32],
    t0: f64,
    step: f64,
    out4: &mut [f32],
) {
    const L: usize = SLICE_LANES;
    // indices are clamped to `n_det − 1`, so every read stays inside
    // `rowf4` exactly when the sentinel column is present
    assert!(
        rowf4.len() >= 2 * L && rowf4.len() % L == 0,
        "interleaved row lacks its sentinel"
    );
    assert!(out4.len() % L == 0, "interleaved span is not whole pixels");
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selected when the host reports the
        // features; the row/span shape was asserted above.
        SimdPath::Avx2 => unsafe { backproject_row_lanes_avx2(rowf4, t0, step, out4) },
        _ => backproject_row_lanes_scalar(rowf4, t0, step, out4),
    }
}

fn backproject_row_lanes_scalar(rowf4: &[f32], t0: f64, step: f64, out4: &mut [f32]) {
    const L: usize = SLICE_LANES;
    let last = rowf4.len() / L - 2;
    for (k, o) in out4.chunks_exact_mut(L).enumerate() {
        let t = t0 + k as f64 * step;
        let i = (t as usize).min(last);
        let f = (t - i as f64) as f32;
        let pair = &rowf4[i * L..(i + 2) * L];
        for l in 0..L {
            o[l] += pair[l] + f * (pair[L + l] - pair[l]);
        }
    }
}

/// Same index/weight math as [`backproject_row_avx2`] for 8 pixels at
/// a time; per pixel the two lerp endpoints of all four slices are two
/// adjacent 128-bit loads and the lerp is one FMA.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA, `rowf4` holds at
/// least two whole pixels and `out4` whole pixels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn backproject_row_lanes_avx2(rowf4: &[f32], t0: f64, step: f64, out4: &mut [f32]) {
    use std::arch::x86_64::*;
    const L: usize = SLICE_LANES;
    let n = out4.len() / L;
    let last = rowf4.len() / L - 2;
    let base = rowf4.as_ptr();
    let stepv = _mm256_set1_pd(step);
    let offs_lo = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    let offs_hi = _mm256_setr_pd(4.0, 5.0, 6.0, 7.0);
    let imax = _mm_set1_epi32(last as i32);
    let izero = _mm_setzero_si128();
    let mut idx = [0i32; 8];
    let mut frac = [0.0f32; 8];
    let mut k = 0usize;
    while k + 8 <= n {
        let tk = _mm256_set1_pd(t0 + k as f64 * step);
        let t_lo = _mm256_add_pd(tk, _mm256_mul_pd(offs_lo, stepv));
        let t_hi = _mm256_add_pd(tk, _mm256_mul_pd(offs_hi, stepv));
        let i_lo = _mm_min_epi32(_mm_max_epi32(_mm256_cvttpd_epi32(t_lo), izero), imax);
        let i_hi = _mm_min_epi32(_mm_max_epi32(_mm256_cvttpd_epi32(t_hi), izero), imax);
        let f_lo = _mm256_cvtpd_ps(_mm256_sub_pd(t_lo, _mm256_cvtepi32_pd(i_lo)));
        let f_hi = _mm256_cvtpd_ps(_mm256_sub_pd(t_hi, _mm256_cvtepi32_pd(i_hi)));
        _mm_storeu_si128(idx.as_mut_ptr().cast(), i_lo);
        _mm_storeu_si128(idx.as_mut_ptr().add(4).cast(), i_hi);
        _mm_storeu_ps(frac.as_mut_ptr(), f_lo);
        _mm_storeu_ps(frac.as_mut_ptr().add(4), f_hi);
        let dst = out4.as_mut_ptr().add(k * L);
        for j in 0..8 {
            // idx[j] ∈ [0, last] after the clamp and last + 1 is the
            // sentinel pixel, so both loads stay inside `rowf4`
            let p = base.add(idx[j] as usize * L);
            let lo = _mm_loadu_ps(p);
            let hi = _mm_loadu_ps(p.add(L));
            let lerp = _mm_fmadd_ps(_mm_set1_ps(frac[j]), _mm_sub_ps(hi, lo), lo);
            let d = dst.add(j * L);
            _mm_storeu_ps(d, _mm_add_ps(_mm_loadu_ps(d), lerp));
        }
        k += 8;
    }
    backproject_row_lanes_scalar(rowf4, t0 + k as f64 * step, step, &mut out4[k * L..]);
}

// ---------------------------------------------------------------------------
// FFT butterflies (bit-exact vs the scalar stage loop)
// ---------------------------------------------------------------------------

/// One FFT stage over a chunk: `lo[j] ± tw[j]·hi[j]` for `j < half`,
/// conjugating the twiddles when `inverse`. Dispatches to the AVX pair
/// kernel when the path allows and the stage is wide enough.
#[inline]
pub(crate) fn stage_butterflies(
    path: SimdPath,
    lo: &mut [Complex],
    hi: &mut [Complex],
    tw: &[Complex],
    inverse: bool,
) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), tw.len());
    #[cfg(target_arch = "x86_64")]
    if path == SimdPath::Avx2 && lo.len() >= 2 {
        // SAFETY: Avx2 is only selected when the host reports the features.
        unsafe { stage_butterflies_avx(lo, hi, tw, inverse) };
        return;
    }
    let _ = path;
    stage_butterflies_scalar(lo, hi, tw, inverse);
}

fn stage_butterflies_scalar(lo: &mut [Complex], hi: &mut [Complex], tw: &[Complex], inverse: bool) {
    for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw.iter()) {
        let w = if inverse { w.conj() } else { w };
        let u = *a;
        let v = *b * w;
        *a = u + v;
        *b = u - v;
    }
}

/// Two butterflies per iteration on interleaved `(re, im)` pairs. The
/// complex multiply uses mul + addsub (never FMA), so every lane rounds
/// exactly like the scalar `Complex` operators and the transform is
/// bit-identical to the scalar path.
///
/// # Safety
/// Caller must ensure the host supports AVX; `lo.len() == hi.len() ==
/// tw.len()` and the length is ≥ 2 and even (stage halves are powers of
/// two).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn stage_butterflies_avx(
    lo: &mut [Complex],
    hi: &mut [Complex],
    tw: &[Complex],
    inverse: bool,
) {
    use std::arch::x86_64::*;
    let half = lo.len();
    let lp = lo.as_mut_ptr().cast::<f64>();
    let hp = hi.as_mut_ptr().cast::<f64>();
    let wp = tw.as_ptr().cast::<f64>();
    // sign mask flipping the imaginary lanes: conj(w) for the inverse
    let conj_mask = if inverse {
        _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
    } else {
        _mm256_setzero_pd()
    };
    let mut j = 0usize;
    while j + 2 <= half {
        let w = _mm256_xor_pd(_mm256_loadu_pd(wp.add(2 * j)), conj_mask);
        let wr = _mm256_movedup_pd(w); // [w0.re w0.re w1.re w1.re]
        let wi = _mm256_permute_pd(w, 0b1111); // [w0.im w0.im w1.im w1.im]
        let b = _mm256_loadu_pd(hp.add(2 * j));
        let bswap = _mm256_permute_pd(b, 0b0101); // [b0.im b0.re b1.im b1.re]
        let v = _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bswap, wi));
        let u = _mm256_loadu_pd(lp.add(2 * j));
        _mm256_storeu_pd(lp.add(2 * j), _mm256_add_pd(u, v));
        _mm256_storeu_pd(hp.add(2 * j), _mm256_sub_pd(u, v));
        j += 2;
    }
    if j < half {
        stage_butterflies_scalar(&mut lo[j..], &mut hi[j..], &tw[j..], inverse);
    }
}

// ---------------------------------------------------------------------------
// Spectrum multiply (filter / Paganin gains; bit-exact vs scalar)
// ---------------------------------------------------------------------------

/// Multiply a complex spectrum by per-bin real gains stored duplicated
/// (`gains2[2k] == gains2[2k+1] ==` gain of bin `k`), i.e. a plain
/// element-wise f64 product over the interleaved buffer. Bit-exact on
/// every path (one multiply per lane).
#[inline]
pub(crate) fn scale_spectrum(path: SimdPath, buf: &mut [Complex], gains2: &[f64]) {
    debug_assert_eq!(gains2.len(), 2 * buf.len());
    #[cfg(target_arch = "x86_64")]
    if path == SimdPath::Avx2 && buf.len() >= 2 {
        // SAFETY: Avx2 is only selected when the host reports the features.
        unsafe { scale_spectrum_avx(buf, gains2) };
        return;
    }
    let _ = path;
    scale_spectrum_scalar(buf, gains2);
}

fn scale_spectrum_scalar(buf: &mut [Complex], gains2: &[f64]) {
    for (c, g) in buf.iter_mut().zip(gains2.chunks_exact(2)) {
        *c = c.scale(g[0]);
    }
}

/// # Safety
/// Caller must ensure the host supports AVX and `gains2.len() == 2 * buf.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn scale_spectrum_avx(buf: &mut [Complex], gains2: &[f64]) {
    use std::arch::x86_64::*;
    let n2 = 2 * buf.len();
    let bp = buf.as_mut_ptr().cast::<f64>();
    let gp = gains2.as_ptr();
    let mut i = 0usize;
    while i + 4 <= n2 {
        let v = _mm256_mul_pd(_mm256_loadu_pd(bp.add(i)), _mm256_loadu_pd(gp.add(i)));
        _mm256_storeu_pd(bp.add(i), v);
        i += 4;
    }
    while i < n2 {
        *bp.add(i) *= *gp.add(i);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_names_are_lowercase() {
        let a = detect();
        let b = detect();
        assert_eq!(a, b);
        assert!(a.name().chars().all(|c| c.is_ascii_lowercase() || c == '2'));
    }

    #[test]
    fn clamp_never_exceeds_host() {
        assert_eq!(SimdPath::Scalar.clamp_to_host(), SimdPath::Scalar);
        assert!(SimdPath::Avx2.clamp_to_host() <= detect());
    }

    #[test]
    fn lanes_match_path() {
        assert_eq!(lanes(SimdPath::Scalar), 1);
        assert_eq!(lanes(SimdPath::Avx2), 8);
    }

    /// Output-span lengths the kernel differentials sweep: every tail
    /// length around the 8- and 16-pixel chunk boundaries, then longer
    /// odd, even and benchmark-sized rows.
    const SPAN_LENS: [usize; 21] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 96,
    ];
    const N_DET: usize = 40;
    /// NaN guard entries around every buffer handed to a kernel: a read
    /// past the sentinel (or before the row) poisons the output.
    const GUARD: usize = 3;

    /// `(t0, step)` walks of `len` pixels that stay on the detector
    /// `[0, N_DET − 1]`: both edges as start points, ascending,
    /// descending and zero steps.
    fn detector_walks(len: usize) -> Vec<(f64, f64)> {
        let last = (N_DET - 1) as f64;
        let room = len.max(1) as f64;
        vec![
            (0.0, (last / room).min(0.83)),
            (last, -(last / room).min(0.91)),
            (0.3, ((last - 0.3) / room).min(0.71)),
            (0.0, 0.0),
            (last, 0.0),
            (17.25, -0.0),
        ]
    }

    /// One projection row per lane with its sentinel, each wrapped in
    /// NaN guards; `.1` is the row's range inside the guarded buffer.
    fn guarded_row(lane: usize) -> (Vec<f32>, std::ops::Range<usize>) {
        let mut buf = vec![f32::NAN; GUARD];
        buf.extend((0..N_DET).map(|i| ((i * (lane + 2)) as f32 * 0.37).sin() + lane as f32));
        buf.push(0.0);
        buf.extend([f32::NAN; GUARD]);
        (buf, GUARD..GUARD + N_DET + 1)
    }

    #[test]
    fn backproject_row_paths_agree() {
        let (buf, row) = guarded_row(0);
        for len in SPAN_LENS {
            for (t0, step) in detector_walks(len) {
                // unaligned spans: the output starts 0..3 floats into
                // its allocation, and the floats around it must survive
                for lead in 0..3 {
                    let mut a = vec![0.5f32; lead + len + 2];
                    let mut b = a.clone();
                    let span = lead..lead + len;
                    backproject_row(
                        SimdPath::Scalar,
                        &buf[row.clone()],
                        t0,
                        step,
                        &mut a[span.clone()],
                    );
                    backproject_row(detect(), &buf[row.clone()], t0, step, &mut b[span.clone()]);
                    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                        assert!(
                            x.is_finite() && (x - y).abs() < 1e-5,
                            "pixel {k}: {x} vs {y} (len {len} t0 {t0} step {step})"
                        );
                        assert!(
                            span.contains(&k) || (*x == 0.5 && *y == 0.5),
                            "wrote outside the span"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backproject_row_lanes_match_the_per_slice_kernel_bit_for_bit() {
        const L: usize = SLICE_LANES;
        let rows: Vec<_> = (0..L).map(guarded_row).collect();
        // interleave the four rows, guards included
        let guarded_len = rows[0].0.len();
        let rowf4: Vec<f32> = (0..guarded_len * L).map(|i| rows[i % L].0[i / L]).collect();
        let row4 = rows[0].1.start * L..rows[0].1.end * L;
        for path in [SimdPath::Scalar, detect()] {
            for len in SPAN_LENS {
                for (t0, step) in detector_walks(len) {
                    for lead in 0..3 {
                        let seed = |k: usize, l: usize| 0.25 * l as f32 - 0.01 * k as f32;
                        let mut out4: Vec<f32> = (0..(lead + len + 2) * L)
                            .map(|i| seed(i / L, i % L))
                            .collect();
                        let span = lead..lead + len;
                        backproject_row_lanes(
                            path,
                            &rowf4[row4.clone()],
                            t0,
                            step,
                            &mut out4[span.start * L..span.end * L],
                        );
                        for (l, (buf, row)) in rows.iter().enumerate() {
                            let mut out: Vec<f32> =
                                (0..lead + len + 2).map(|k| seed(k, l)).collect();
                            backproject_row(
                                path,
                                &buf[row.clone()],
                                t0,
                                step,
                                &mut out[span.clone()],
                            );
                            for (k, want) in out.iter().enumerate() {
                                let got = out4[k * L + l];
                                assert!(got.is_finite());
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{path:?} lane {l} pixel {k} (len {len} t0 {t0} step {step})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn backproject_row_rejects_a_row_without_sentinel() {
        backproject_row(detect(), &[1.0], 0.0, 0.0, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn backproject_row_lanes_rejects_a_row_without_sentinel() {
        backproject_row_lanes(detect(), &[1.0; SLICE_LANES], 0.0, 0.0, &mut [0.0; 8]);
    }

    /// `count` table samples over a `w × h` image whose 2×2 footprints
    /// reach every corner of it, the last pixel included.
    fn table_samples(count: usize, w: usize, h: usize) -> Vec<RaySample> {
        (0..count)
            .map(|k| RaySample {
                idx: (((k * 5) % (h - 1)) * w + (k * 7) % (w - 1)) as u32,
                fx: ((k * 37) % 101) as f32 / 101.0,
                fy: ((k * 53) % 103) as f32 / 103.0,
            })
            .collect()
    }

    #[test]
    fn ray_sums_lanes_bit_exact_across_paths_and_against_one_slice() {
        const L: usize = SLICE_LANES;
        let (w, h) = (9usize, 7usize);
        let x4: Vec<f32> = (0..w * h * L)
            .map(|i| ((i / L) as f32 * 0.31 + (i % L) as f32).cos() * (1.0 + (i % L) as f32))
            .collect();
        let all = table_samples(97, w, h);
        assert!(all.iter().any(|s| s.idx as usize + w + 1 == w * h - 1));
        for len in SPAN_LENS {
            // unaligned sub-slices of the 12-byte table
            for lead in 0..2.min(all.len() - len) + 1 {
                let samples = &all[lead..lead + len];
                let scalar = ray_sums_lanes(SimdPath::Scalar, samples, w, &x4);
                let wide = ray_sums_lanes(detect(), samples, w, &x4);
                assert_eq!(
                    scalar.map(f32::to_bits),
                    wide.map(f32::to_bits),
                    "len {len} lead {lead}"
                );
                // the one-slice projector's sequence, lane by lane
                for l in 0..L {
                    let px = |i: usize| x4[i * L + l] as f64;
                    let term = |s: &RaySample| {
                        let i = s.idx as usize;
                        let (fx, fy) = (s.fx as f64, s.fy as f64);
                        let t = px(i) + fx * (px(i + 1) - px(i));
                        let u = px(i + w) + fx * (px(i + w + 1) - px(i + w));
                        t + fy * (u - t)
                    };
                    let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
                    let mut it = samples.chunks_exact(2);
                    for pair in &mut it {
                        acc0 += term(&pair[0]);
                        acc1 += term(&pair[1]);
                    }
                    for s in it.remainder() {
                        acc0 += term(s);
                    }
                    assert_eq!(scalar[l].to_bits(), ((acc0 + acc1) as f32).to_bits());
                }
            }
        }
    }

    #[test]
    fn ray_sums_lanes_refuses_a_sample_outside_the_image() {
        let (w, h) = (9usize, 7usize);
        let x4 = vec![1.0f32; w * h * SLICE_LANES];
        // footprint one pixel past the end, alone and as half of a pair
        let bad = RaySample {
            idx: ((h - 1) * w) as u32,
            fx: 0.5,
            fy: 0.5,
        };
        let good = table_samples(1, w, h)[0];
        for path in [SimdPath::Scalar, detect()] {
            for samples in [vec![bad], vec![good, bad], vec![good, good, bad]] {
                let r = std::panic::catch_unwind(|| ray_sums_lanes(path, &samples, w, &x4));
                assert!(r.is_err(), "{path:?}: {} samples", samples.len());
            }
        }
    }

    #[test]
    fn butterflies_bit_exact_across_paths() {
        for half in [1usize, 2, 4, 8, 16] {
            let mk = |s: f64| -> Vec<Complex> {
                (0..half)
                    .map(|i| Complex::new((i as f64 * s).sin(), (i as f64 * s).cos()))
                    .collect()
            };
            let tw = mk(0.13);
            for inverse in [false, true] {
                let (mut lo_a, mut hi_a) = (mk(0.71), mk(0.37));
                let (mut lo_b, mut hi_b) = (lo_a.clone(), hi_a.clone());
                stage_butterflies(SimdPath::Scalar, &mut lo_a, &mut hi_a, &tw, inverse);
                stage_butterflies(detect(), &mut lo_b, &mut hi_b, &tw, inverse);
                assert_eq!(lo_a, lo_b, "half {half} inverse {inverse}");
                assert_eq!(hi_a, hi_b, "half {half} inverse {inverse}");
            }
        }
    }

    #[test]
    fn spectrum_scale_bit_exact_across_paths() {
        for n in [1usize, 2, 5, 16, 33] {
            let mut a: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64 * 0.3 - 1.0, (i as f64 * 0.17).cos()))
                .collect();
            let mut b = a.clone();
            let gains2: Vec<f64> = (0..n).flat_map(|i| [i as f64 * 0.01; 2]).collect();
            scale_spectrum(SimdPath::Scalar, &mut a, &gains2);
            scale_spectrum(detect(), &mut b, &gains2);
            assert_eq!(a, b, "n {n}");
        }
    }
}
