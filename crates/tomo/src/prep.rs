//! Projection preprocessing: the steps that make the file-based branch's
//! reconstructions "higher quality owing to the preprocessing" (paper §3.1).
//!
//! The chain mirrors the standard TomoPy recipe used at beamline 8.3.2:
//! dark/flat-field normalization → zinger removal → −log transform →
//! ring-artifact suppression, with an optional Paganin-style single-material
//! phase filter.
//!
//! Two layers exist for every step: standalone functions (the unfused
//! originals, kept as the equivalence baseline — the unfused chain
//! itself is the `prep_chain` test oracle in `tests/reference/`) and the
//! fused plans the file and streaming branches run. [`RawPrepPlan`]
//! collapses normalization, −log, and zinger removal into one in-place
//! pass per raw `u16` detector row; an optional [`SinoPostPlan`] rides
//! behind it folding ring suppression (bit-for-bit equal to
//! [`remove_stripes`]) and Paganin phase retrieval (precomputed filter
//! response on a cached [`FftPlan`], two mirror-padded rows per complex
//! FFT) into the same sweep over the sinogram.

use crate::fft::{next_pow2, Complex, FftPlan};
use crate::image::Sinogram;

/// Normalize raw detector counts with dark- and flat-field references:
/// `(raw − dark) / (flat − dark)`, clamped to a small positive floor so the
/// subsequent −log is defined.
///
/// `raw` is a stack of projection rows for one slice (a sinogram); `dark`
/// and `flat` are per-detector-bin reference rows.
pub fn normalize(raw: &Sinogram, dark: &[f32], flat: &[f32]) -> Sinogram {
    assert_eq!(dark.len(), raw.n_det, "dark field width mismatch");
    assert_eq!(flat.len(), raw.n_det, "flat field width mismatch");
    let mut out = Sinogram::zeros(raw.n_angles, raw.n_det);
    for a in 0..raw.n_angles {
        let src = raw.row(a);
        let dst = out.row_mut(a);
        for t in 0..raw.n_det {
            let denom = (flat[t] - dark[t]).max(1e-6);
            let v = (src[t] - dark[t]) / denom;
            dst[t] = v.clamp(1e-6, f32::MAX);
        }
    }
    out
}

/// −log transform: converts normalized transmission to line integrals of
/// the attenuation coefficient (Beer–Lambert).
pub fn minus_log(sino: &Sinogram) -> Sinogram {
    let mut out = sino.clone();
    for v in out.data.iter_mut() {
        *v = -(v.max(1e-6).ln());
    }
    out
}

/// Remove zingers (isolated hot pixels from scattered X-rays hitting the
/// detector) with a 1D median-of-3 test along the detector axis: a sample
/// more than `threshold` above both neighbours is replaced by their mean.
pub fn remove_zingers(sino: &Sinogram, threshold: f32) -> Sinogram {
    let mut out = sino.clone();
    for a in 0..sino.n_angles {
        let src = sino.row(a);
        let dst = out.row_mut(a);
        for t in 1..sino.n_det.saturating_sub(1) {
            let left = src[t - 1];
            let right = src[t + 1];
            if src[t] - left > threshold && src[t] - right > threshold {
                dst[t] = 0.5 * (left + right);
            }
        }
    }
    out
}

/// Suppress ring artifacts. Rings in the reconstruction come from
/// detector-column gain errors, which appear as vertical stripes in the
/// sinogram. The classic remedy (Münch/Raven-style, simplified): estimate
/// each column's mean, smooth the mean profile, and subtract the residual
/// stripe component.
pub fn remove_stripes(sino: &Sinogram, window: usize) -> Sinogram {
    let n_det = sino.n_det;
    if n_det == 0 || sino.n_angles == 0 {
        return sino.clone();
    }
    // per-column mean over angles
    let mut col_mean = vec![0.0f64; n_det];
    for a in 0..sino.n_angles {
        for (m, &v) in col_mean.iter_mut().zip(sino.row(a).iter()) {
            *m += v as f64;
        }
    }
    for m in col_mean.iter_mut() {
        *m /= sino.n_angles as f64;
    }
    // smooth the profile with a centered moving average
    let w = window.max(1);
    let mut smooth = vec![0.0f64; n_det];
    for (t, sm) in smooth.iter_mut().enumerate() {
        let lo = t.saturating_sub(w);
        let hi = (t + w + 1).min(n_det);
        let s: f64 = col_mean[lo..hi].iter().sum();
        *sm = s / (hi - lo) as f64;
    }
    // subtract the high-frequency (stripe) component of the column means
    let mut out = sino.clone();
    for a in 0..sino.n_angles {
        let row = out.row_mut(a);
        for t in 0..n_det {
            row[t] -= (col_mean[t] - smooth[t]) as f32;
        }
    }
    out
}

/// Paganin-style single-material phase filter (simplified 1D variant): a
/// low-pass filter along the detector axis whose strength is set by
/// `delta_beta` (δ/β of the sample) and the propagation distance. Larger
/// values smooth more, boosting soft-tissue contrast at the cost of edges.
pub fn paganin_filter(sino: &Sinogram, delta_beta: f64) -> Sinogram {
    use crate::fft::{fft, ifft, next_pow2, Complex};
    if delta_beta <= 0.0 {
        return sino.clone();
    }
    let pad = next_pow2(2 * sino.n_det);
    // 1 / (1 + α ω²) transfer function; α scales with δ/β
    let alpha = delta_beta / 100.0;
    let gains: Vec<f64> = (0..pad)
        .map(|k| {
            let f = if k <= pad / 2 { k } else { pad - k } as f64 / pad as f64;
            let w = 2.0 * f;
            1.0 / (1.0 + alpha * w * w * pad as f64)
        })
        .collect();
    let mut out = Sinogram::zeros(sino.n_angles, sino.n_det);
    let mut buf = vec![Complex::ZERO; pad];
    for a in 0..sino.n_angles {
        buf.iter_mut().for_each(|c| *c = Complex::ZERO);
        // mirror-pad to reduce edge ringing
        let row = sino.row(a);
        for (i, c) in buf.iter_mut().enumerate().take(pad) {
            let idx = i % (2 * sino.n_det);
            let t = if idx < sino.n_det {
                idx
            } else {
                2 * sino.n_det - 1 - idx
            };
            *c = Complex::from_re(row[t.min(sino.n_det - 1)] as f64);
        }
        fft(&mut buf);
        for (c, &g) in buf.iter_mut().zip(gains.iter()) {
            *c = c.scale(g);
        }
        ifft(&mut buf);
        for (o, c) in out.row_mut(a).iter_mut().zip(buf.iter()) {
            *o = c.re as f32;
        }
    }
    out
}

/// Precomputed Paganin low-pass: the `1 / (1 + α ω² pad)` transfer
/// function and a table-driven [`FftPlan`], built once per detector
/// width. The gains are real and symmetric, so — exactly like the ramp
/// filter — two mirror-padded rows ride one complex FFT round trip.
#[derive(Debug, Clone)]
pub struct PaganinPlan {
    n_det: usize,
    pad: usize,
    /// Per-bin gains duplicated (`[g0, g0, g1, g1, ...]`) for the SIMD
    /// spectrum multiply.
    gains2: Vec<f64>,
    fft: FftPlan,
    path: crate::simd::SimdPath,
}

impl PaganinPlan {
    pub fn new(n_det: usize, delta_beta: f64) -> PaganinPlan {
        assert!(n_det > 0, "empty detector");
        assert!(delta_beta > 0.0, "delta_beta must be positive");
        let pad = next_pow2(2 * n_det);
        let alpha = delta_beta / 100.0;
        let gains2 = (0..pad)
            .flat_map(|k| {
                let f = if k <= pad / 2 { k } else { pad - k } as f64 / pad as f64;
                let w = 2.0 * f;
                [1.0 / (1.0 + alpha * w * w * pad as f64); 2]
            })
            .collect();
        PaganinPlan {
            n_det,
            pad,
            gains2,
            fft: FftPlan::new(pad),
            path: crate::simd::detect(),
        }
    }

    /// Padded FFT length; scratch buffers must be exactly this long.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Mirror-padded source index for padded position `i` (the same
    /// reflection [`paganin_filter`] uses).
    #[inline]
    fn mirror(&self, i: usize) -> usize {
        let idx = i % (2 * self.n_det);
        let t = if idx < self.n_det {
            idx
        } else {
            2 * self.n_det - 1 - idx
        };
        t.min(self.n_det - 1)
    }

    /// Low-pass every row of `sino` in place, two rows per complex FFT.
    pub fn apply(&self, sino: &mut Sinogram, cbuf: &mut [Complex]) {
        assert_eq!(sino.n_det, self.n_det, "detector width mismatch");
        assert_eq!(cbuf.len(), self.pad, "scratch buffer length mismatch");
        let mut a = 0usize;
        while a < sino.n_angles {
            let packed = a + 1 < sino.n_angles;
            {
                let r0 = sino.row(a);
                if packed {
                    let r1 = sino.row(a + 1);
                    for (i, c) in cbuf.iter_mut().enumerate() {
                        let t = self.mirror(i);
                        *c = Complex::new(r0[t] as f64, r1[t] as f64);
                    }
                } else {
                    for (i, c) in cbuf.iter_mut().enumerate() {
                        *c = Complex::from_re(r0[self.mirror(i)] as f64);
                    }
                }
            }
            self.fft.forward(cbuf);
            crate::simd::scale_spectrum(self.path, cbuf, &self.gains2);
            self.fft.inverse(cbuf);
            for (o, c) in sino.row_mut(a).iter_mut().zip(cbuf.iter()) {
                *o = c.re as f32;
            }
            if packed {
                for (o, c) in sino.row_mut(a + 1).iter_mut().zip(cbuf.iter()) {
                    *o = c.im as f32;
                }
                a += 2;
            } else {
                a += 1;
            }
        }
    }
}

/// Fused whole-sinogram post-stage riding behind the per-row
/// [`RawPrepPlan`]: streaming column-mean ring detrend (bit-for-bit equal to
/// [`remove_stripes`]) followed by the planned Paganin low-pass. Both
/// steps are optional; with neither, [`SinoPostPlan::apply`] is a no-op.
#[derive(Debug, Clone, Default)]
pub struct SinoPostPlan {
    ring_window: Option<usize>,
    paganin: Option<PaganinPlan>,
}

/// Reusable buffers for [`SinoPostPlan::apply`].
#[derive(Debug, Clone, Default)]
pub struct SinoPostScratch {
    /// Padded complex FFT staging buffer (Paganin only).
    cbuf: Vec<Complex>,
    /// Per-column mean accumulator (ring only).
    col_mean: Vec<f64>,
    /// Smoothed column-mean profile (ring only).
    smooth: Vec<f64>,
}

impl SinoPostPlan {
    pub fn new(
        n_det: usize,
        ring_window: Option<usize>,
        paganin_delta_beta: Option<f64>,
    ) -> SinoPostPlan {
        SinoPostPlan {
            ring_window,
            paganin: paganin_delta_beta
                .filter(|&db| db > 0.0)
                .map(|db| PaganinPlan::new(n_det, db)),
        }
    }

    /// True when the stage does nothing (lets callers skip the sweep).
    pub fn is_empty(&self) -> bool {
        self.ring_window.is_none() && self.paganin.is_none()
    }

    pub fn make_scratch(&self) -> SinoPostScratch {
        SinoPostScratch {
            cbuf: self
                .paganin
                .as_ref()
                .map(|p| vec![Complex::ZERO; p.pad])
                .unwrap_or_default(),
            col_mean: Vec::new(),
            smooth: Vec::new(),
        }
    }

    /// Run the fused post-chain over a fully prepped sinogram in place.
    pub fn apply(&self, sino: &mut Sinogram, scratch: &mut SinoPostScratch) {
        if let Some(w) = self.ring_window {
            ring_detrend_inplace(sino, w, &mut scratch.col_mean, &mut scratch.smooth);
        }
        if let Some(p) = &self.paganin {
            p.apply(sino, &mut scratch.cbuf);
        }
    }
}

/// In-place ring suppression, bit-for-bit equal to [`remove_stripes`]:
/// identical accumulation order for the column means, identical
/// moving-average smoothing, identical subtraction expression.
fn ring_detrend_inplace(
    sino: &mut Sinogram,
    window: usize,
    col_mean: &mut Vec<f64>,
    smooth: &mut Vec<f64>,
) {
    let n_det = sino.n_det;
    if n_det == 0 || sino.n_angles == 0 {
        return;
    }
    col_mean.clear();
    col_mean.resize(n_det, 0.0);
    for a in 0..sino.n_angles {
        for (m, &v) in col_mean.iter_mut().zip(sino.row(a).iter()) {
            *m += v as f64;
        }
    }
    for m in col_mean.iter_mut() {
        *m /= sino.n_angles as f64;
    }
    let w = window.max(1);
    smooth.clear();
    smooth.resize(n_det, 0.0);
    for (t, sm) in smooth.iter_mut().enumerate() {
        let lo = t.saturating_sub(w);
        let hi = (t + w + 1).min(n_det);
        let s: f64 = col_mean[lo..hi].iter().sum();
        *sm = s / (hi - lo) as f64;
    }
    for a in 0..sino.n_angles {
        let row = sino.row_mut(a);
        for t in 0..n_det {
            row[t] -= (col_mean[t] - smooth[t]) as f32;
        }
    }
}

/// Fused preprocessing plan for raw `u16` detector frames, matching the
/// realmode file/streaming branch semantics: per-pixel
/// `t = ((raw − dark) / (flat − dark).max(1)).clamp(1e-6, 1.0)` in f64,
/// `−ln(t) / mu_scale` to f32, then optional zinger removal **in the
/// log domain**. Per-pixel dark levels and denominators are hoisted
/// into flat tables at plan build; division and the exact f64→f32
/// expression order are preserved so the output is bit-for-bit equal to
/// the unfused per-slice gather it replaces.
#[derive(Debug, Clone)]
pub struct RawPrepPlan {
    rows: usize,
    cols: usize,
    dark: Vec<f64>,
    denom: Vec<f64>,
    mu_scale: f64,
    zinger_threshold: Option<f32>,
    post: SinoPostPlan,
}

impl RawPrepPlan {
    /// `dark`/`flat` are full reference frames (`rows × cols`).
    pub fn new(
        dark: &[u16],
        flat: &[u16],
        rows: usize,
        cols: usize,
        mu_scale: f64,
        zinger_threshold: Option<f32>,
    ) -> RawPrepPlan {
        assert_eq!(dark.len(), rows * cols, "dark frame shape mismatch");
        assert_eq!(flat.len(), rows * cols, "flat frame shape mismatch");
        assert!(mu_scale > 0.0, "mu_scale must be positive");
        let dark_f: Vec<f64> = dark.iter().map(|&d| d as f64).collect();
        let denom = flat
            .iter()
            .zip(dark_f.iter())
            .map(|(&f, &d)| (f as f64 - d).max(1.0))
            .collect();
        RawPrepPlan {
            rows,
            cols,
            dark: dark_f,
            denom,
            mu_scale,
            zinger_threshold,
            post: SinoPostPlan::default(),
        }
    }

    /// Attach a fused ring/Paganin post-stage, run per slice by
    /// [`RawPrepPlan::finish_sinogram`] after all angle rows landed.
    pub fn with_post(mut self, post: SinoPostPlan) -> RawPrepPlan {
        self.post = post;
        self
    }

    /// True when [`RawPrepPlan::finish_sinogram`] would do nothing.
    pub fn post_is_empty(&self) -> bool {
        self.post.is_empty()
    }

    /// Allocate the buffers [`RawPrepPlan::finish_sinogram`] reuses
    /// across slices.
    pub fn make_post_scratch(&self) -> SinoPostScratch {
        self.post.make_scratch()
    }

    /// Run the fused ring/Paganin post-stage over one fully assembled
    /// sinogram (all angle rows already prepped via
    /// [`RawPrepPlan::prep_angle_row`]).
    pub fn finish_sinogram(&self, sino: &mut Sinogram, scratch: &mut SinoPostScratch) {
        self.post.apply(sino, scratch);
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn zinger_threshold(&self) -> Option<f32> {
        self.zinger_threshold
    }

    /// Convert one projection row (`cols` raw counts at detector row
    /// `detector_row` of one frame) into one sinogram row of line
    /// integrals.
    pub fn prep_angle_row(&self, detector_row: usize, raw_row: &[u16], dst: &mut [f32]) {
        assert!(detector_row < self.rows, "detector row out of range");
        assert_eq!(raw_row.len(), self.cols, "raw row width mismatch");
        assert_eq!(dst.len(), self.cols, "destination row width mismatch");
        let off = detector_row * self.cols;
        let dark = &self.dark[off..off + self.cols];
        let denom = &self.denom[off..off + self.cols];
        for c in 0..self.cols {
            let t = ((raw_row[c] as f64 - dark[c]) / denom[c]).clamp(1e-6, 1.0);
            dst[c] = (-(t.ln()) / self.mu_scale) as f32;
        }
        zinger_row_inplace(dst, self.zinger_threshold);
    }
}

/// In-place zinger removal over one row (log-domain variant used by the
/// raw-count plan), bit-for-bit equal to `remove_zingers` on that row.
fn zinger_row_inplace(row: &mut [f32], threshold: Option<f32>) {
    let Some(thr) = threshold else { return };
    let n = row.len();
    if n < 3 {
        return;
    }
    let mut prev = row[0];
    for t in 1..n - 1 {
        let cur = row[t];
        let next = row[t + 1];
        if cur - prev > thr && cur - next > thr {
            row[t] = 0.5 * (prev + next);
        }
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_rescales_counts() {
        let mut raw = Sinogram::zeros(1, 3);
        raw.data.copy_from_slice(&[100.0, 550.0, 1000.0]);
        let dark = vec![100.0; 3];
        let flat = vec![1000.0; 3];
        let n = normalize(&raw, &dark, &flat);
        assert!((n.data[0] - 1e-6).abs() < 1e-7); // clamped at floor
        assert!((n.data[1] - 0.5).abs() < 1e-6);
        assert!((n.data[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_handles_dead_flat_pixels() {
        let mut raw = Sinogram::zeros(1, 2);
        raw.data.copy_from_slice(&[5.0, 5.0]);
        let dark = vec![5.0, 5.0];
        let flat = vec![5.0, 5.0]; // flat == dark: dead pixel
        let n = normalize(&raw, &dark, &flat);
        assert!(n.data.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn minus_log_inverts_exponential() {
        let mut sino = Sinogram::zeros(1, 3);
        sino.data
            .copy_from_slice(&[1.0, (-2.0f32).exp(), (-0.5f32).exp()]);
        let l = minus_log(&sino);
        assert!((l.data[0] - 0.0).abs() < 1e-6);
        assert!((l.data[1] - 2.0).abs() < 1e-5);
        assert!((l.data[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn minus_log_survives_zeros() {
        let sino = Sinogram::zeros(1, 4);
        let l = minus_log(&sino);
        assert!(l.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zinger_is_removed_but_edges_kept() {
        let mut sino = Sinogram::zeros(1, 7);
        sino.data
            .copy_from_slice(&[1.0, 1.0, 1.0, 9.0, 1.0, 4.0, 4.0]);
        let z = remove_zingers(&sino, 2.0);
        assert_eq!(z.data[3], 1.0); // isolated spike removed
        assert_eq!(z.data[5], 4.0); // genuine step preserved
    }

    #[test]
    fn stripe_removal_flattens_bad_column() {
        let n_angles = 50;
        let n_det = 32;
        let mut sino = Sinogram::zeros(n_angles, n_det);
        for a in 0..n_angles {
            for t in 0..n_det {
                let mut v = 1.0;
                if t == 10 {
                    v += 0.5; // miscalibrated detector column
                }
                sino.set(a, t, v);
            }
        }
        let fixed = remove_stripes(&sino, 5);
        let col: Vec<f32> = (0..n_angles).map(|a| fixed.get(a, 10)).collect();
        let mean = col.iter().sum::<f32>() / col.len() as f32;
        assert!(
            (mean - 1.0).abs() < 0.15,
            "stripe column mean {mean} should be pulled toward 1.0"
        );
    }

    #[test]
    fn stripe_removal_preserves_smooth_structure() {
        let mut sino = Sinogram::zeros(20, 64);
        for a in 0..20 {
            for t in 0..64 {
                sino.set(a, t, (t as f32 / 64.0).sin());
            }
        }
        let fixed = remove_stripes(&sino, 5);
        for i in 0..sino.data.len() {
            assert!((fixed.data[i] - sino.data[i]).abs() < 0.05);
        }
    }

    #[test]
    fn paganin_smooths_noise() {
        let mut sino = Sinogram::zeros(1, 64);
        for (t, v) in sino.row_mut(0).iter_mut().enumerate() {
            *v = if t % 2 == 0 { 1.0 } else { -1.0 };
        }
        let p = paganin_filter(&sino, 50.0);
        let amp = p.row(0)[20..40].iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(
            amp < 0.4,
            "high-frequency noise should be damped, got {amp}"
        );
    }

    #[test]
    fn paganin_zero_strength_is_identity() {
        let mut sino = Sinogram::zeros(2, 16);
        for (i, v) in sino.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        assert_eq!(paganin_filter(&sino, 0.0), sino);
    }

    /// Deterministic pseudo-random counts (no external RNG dep).
    fn lcg_counts(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 33) as f32 / (1u64 << 31) as f32;
                lo + u * (hi - lo)
            })
            .collect()
    }

    #[test]
    fn raw_prep_plan_matches_per_element_gather_bit_for_bit() {
        // reference: the realmode per-element math + log-domain zingers
        let rows = 5;
        let cols = 41;
        let n_angles = 19;
        let mu = 0.04;
        let dark: Vec<u16> = lcg_counts(3, rows * cols, 40.0, 110.0)
            .iter()
            .map(|&v| v as u16)
            .collect();
        let mut flat: Vec<u16> = lcg_counts(5, rows * cols, 700.0, 1300.0)
            .iter()
            .map(|&v| v as u16)
            .collect();
        flat[2 * cols + 7] = dark[2 * cols + 7]; // dead pixel
        let frames: Vec<Vec<u16>> = (0..n_angles)
            .map(|a| {
                lcg_counts(100 + a as u64, rows * cols, 60.0, 1400.0)
                    .iter()
                    .map(|&v| v as u16)
                    .collect()
            })
            .collect();
        let plan = RawPrepPlan::new(&dark, &flat, rows, cols, mu, Some(0.5));
        for r in 0..rows {
            let mut reference = Sinogram::zeros(n_angles, cols);
            for (a, frame) in frames.iter().enumerate() {
                for c in 0..cols {
                    let raw = frame[r * cols + c] as f64;
                    let d = dark[r * cols + c] as f64;
                    let f = flat[r * cols + c] as f64;
                    let t = ((raw - d) / (f - d).max(1.0)).clamp(1e-6, 1.0);
                    reference.set(a, c, (-(t.ln()) / mu) as f32);
                }
            }
            let reference = remove_zingers(&reference, 0.5);
            let mut fused = Sinogram::zeros(n_angles, cols);
            for (a, frame) in frames.iter().enumerate() {
                plan.prep_angle_row(r, &frame[r * cols..(r + 1) * cols], fused.row_mut(a));
            }
            assert_eq!(reference.data, fused.data, "detector row {r}");
        }
    }

    #[test]
    fn standard_chain_produces_finite_line_integrals() {
        // the file branch's chain: raw-count prep with zingers at 0.5,
        // then ring suppression over the assembled sinogram
        let n_angles = 10;
        let n_det = 32;
        let plan = RawPrepPlan::new(&[100; 32], &[900; 32], 1, n_det, 1.0, Some(0.5))
            .with_post(SinoPostPlan::new(n_det, Some(9), None));
        let mut out = Sinogram::zeros(n_angles, n_det);
        for a in 0..n_angles {
            let raw: Vec<u16> = (0..n_det)
                .map(|t| 500 + ((a * n_det + t) % 17) as u16 * 20)
                .collect();
            plan.prep_angle_row(0, &raw, out.row_mut(a));
        }
        plan.finish_sinogram(&mut out, &mut plan.make_post_scratch());
        assert!(out.data.iter().all(|v| v.is_finite()));
        // transmission < 1 everywhere => line integrals ≥ 0 (approximately)
        assert!(out.data.iter().all(|&v| v > -0.5));
    }
}
