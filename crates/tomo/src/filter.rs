//! Ramp filtering of sinogram rows for filtered back projection.
//!
//! The ramp is built in the spatial domain as the band-limited kernel of
//! Kak & Slaney (h(0)=1/4, h(odd n)=−1/(πn)², h(even n)=0) and transformed
//! with the in-house FFT; this gets the DC term right and avoids the
//! cupping artifact of a naive `|ω|` ramp. Apodizing windows mirror the
//! TomoPy filter family.

use crate::fft::{fft, next_pow2, Complex, FftPlan};
use crate::image::Sinogram;
use serde::{Deserialize, Serialize};

/// Apodizing window applied on top of the ramp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FilterKind {
    /// Pure band-limited ramp (Ram-Lak). Sharpest, noisiest.
    RamLak,
    /// Shepp-Logan: ramp × sinc. TomoPy's default; good noise/resolution
    /// trade-off, used by the streaming reconstructions.
    #[default]
    SheppLogan,
    /// Ramp × cosine.
    Cosine,
    /// Ramp × Hamming window.
    Hamming,
    /// Ramp × Hann window. Smoothest of the classic windows.
    Hann,
    /// Ramp × Butterworth low-pass (order 2, cutoff 0.5 of Nyquist).
    Butterworth,
    /// No filtering at all — plain back projection (used to demonstrate why
    /// filtering matters).
    None,
}

impl FilterKind {
    /// All selectable filters (handy for sweeps and CLI parsing).
    pub const ALL: [FilterKind; 7] = [
        FilterKind::RamLak,
        FilterKind::SheppLogan,
        FilterKind::Cosine,
        FilterKind::Hamming,
        FilterKind::Hann,
        FilterKind::Butterworth,
        FilterKind::None,
    ];

    /// Parse from the names TomoPy uses.
    pub fn parse(name: &str) -> Option<FilterKind> {
        match name.to_ascii_lowercase().as_str() {
            "ramlak" | "ram-lak" | "ramp" => Some(FilterKind::RamLak),
            "shepp" | "shepp-logan" | "shepp_logan" | "parzen" => Some(FilterKind::SheppLogan),
            "cosine" => Some(FilterKind::Cosine),
            "hamming" => Some(FilterKind::Hamming),
            "hann" | "hanning" => Some(FilterKind::Hann),
            "butterworth" => Some(FilterKind::Butterworth),
            "none" => Some(FilterKind::None),
            _ => None,
        }
    }

    /// Window gain at normalized frequency `w ∈ [0, 1]` (1 = Nyquist).
    fn window(self, w: f64) -> f64 {
        use std::f64::consts::PI;
        match self {
            FilterKind::RamLak | FilterKind::None => 1.0,
            FilterKind::SheppLogan => {
                if w == 0.0 {
                    1.0
                } else {
                    let x = PI * w / 2.0;
                    x.sin() / x
                }
            }
            FilterKind::Cosine => (PI * w / 2.0).cos(),
            FilterKind::Hamming => 0.54 + 0.46 * (PI * w).cos(),
            FilterKind::Hann => 0.5 * (1.0 + (PI * w).cos()),
            FilterKind::Butterworth => {
                let cutoff = 0.5;
                1.0 / (1.0 + (w / cutoff).powi(4))
            }
        }
    }

    /// Frequency response of the full filter (ramp × window) for an FFT of
    /// length `pad` (power of two). Returns one real gain per FFT bin.
    pub fn response(self, pad: usize) -> Vec<f64> {
        assert!(pad.is_power_of_two());
        if self == FilterKind::None {
            return vec![1.0; pad];
        }
        // Band-limited ramp kernel in the spatial domain, wrapped.
        let mut h = vec![Complex::ZERO; pad];
        h[0] = Complex::from_re(0.25);
        let mut n = 1usize;
        while n <= pad / 2 {
            if n % 2 == 1 {
                let v = -1.0 / (std::f64::consts::PI * n as f64).powi(2);
                h[n] = Complex::from_re(v);
                h[pad - n] = Complex::from_re(v);
            }
            n += 1;
        }
        fft(&mut h);
        (0..pad)
            .map(|k| {
                let f = if k <= pad / 2 { k } else { pad - k } as f64 / pad as f64;
                let w = 2.0 * f; // normalized to Nyquist
                                 // ramp response is real and non-negative by construction;
                                 // its magnitude is ≈ |f| cycles/sample (0.5 at Nyquist)
                h[k].re.max(0.0) * self.window(w)
            })
            .collect()
    }
}

/// Cached filtering state for one `(FilterKind, n_det)` pair: the padded
/// frequency response and a table-driven [`FftPlan`], built once and
/// reused for every row of every slice. [`crate::plan::ReconPlan`]
/// embeds one of these; [`filter_sinogram`] builds a throwaway one.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    n_det: usize,
    pad: usize,
    /// One real gain per FFT bin; empty for [`FilterKind::None`].
    response: Vec<f64>,
    /// `response` with each gain duplicated (`[g0, g0, g1, g1, ...]`) so
    /// the spectrum multiply can run two f64 lanes per complex bin.
    resp2: Vec<f64>,
    fft: FftPlan,
    path: crate::simd::SimdPath,
}

impl FilterPlan {
    pub fn new(kind: FilterKind, n_det: usize) -> FilterPlan {
        // zero-pad to at least twice the detector width to avoid
        // circular-convolution wraparound
        let pad = next_pow2(2 * n_det);
        let response = if kind == FilterKind::None {
            Vec::new()
        } else {
            kind.response(pad)
        };
        let resp2 = response.iter().flat_map(|&g| [g, g]).collect();
        FilterPlan {
            n_det,
            pad,
            response,
            resp2,
            fft: FftPlan::new(pad),
            path: crate::simd::detect(),
        }
    }

    /// Force a specific SIMD path (clamped to host capability), also
    /// propagated to the embedded FFT plan. Used by the benches and the
    /// SIMD-vs-scalar equivalence gates.
    pub fn with_simd_path(mut self, path: crate::simd::SimdPath) -> FilterPlan {
        self.path = path.clamp_to_host();
        self.fft = self.fft.with_simd_path(path);
        self
    }

    /// Which SIMD path the spectrum multiply dispatches to.
    pub fn simd_path(&self) -> crate::simd::SimdPath {
        self.path
    }

    /// Padded FFT length; the scratch buffer must be exactly this long.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Allocate a staging buffer compatible with [`FilterPlan::filter_rows`].
    pub fn make_buf(&self) -> Vec<Complex> {
        vec![Complex::ZERO; self.pad]
    }

    /// Filter every row of `sino` into `out` (same shape); see
    /// [`FilterPlan::filter_rows_with`].
    pub fn filter_rows(&self, sino: &Sinogram, cbuf: &mut [Complex], out: &mut Sinogram) {
        assert_eq!((out.n_angles, out.n_det), (sino.n_angles, sino.n_det));
        let nd = sino.n_det;
        self.filter_rows_with(sino, cbuf, |a, t, v| out.data[a * nd + t] = v);
    }

    /// Filter every row of `sino`, handing each filtered sample to
    /// `emit(angle, bin, value)` — so a consumer with its own layout
    /// (the backprojector's prescaled, lane-interleaved rows) takes the
    /// samples straight from the FFT buffer instead of from an
    /// intermediate sinogram. Rows are filtered two at a time
    /// ([`FilterPlan::filter_pair_with`]), a lone last row on its own.
    pub(crate) fn filter_rows_with(
        &self,
        sino: &Sinogram,
        cbuf: &mut [Complex],
        mut emit: impl FnMut(usize, usize, f32),
    ) {
        for a in (0..sino.n_angles).step_by(2) {
            let r1 = (a + 1 < sino.n_angles).then(|| sino.row(a + 1));
            self.filter_pair_with(sino.row(a), r1, cbuf, |which, t, v| emit(a + which, t, v));
        }
    }

    /// Filter one row, or two with a single FFT round trip, handing each
    /// filtered sample to `emit(which, bin, value)` (`which` is 0 for
    /// `r0`, 1 for `r1`). Two real rows are packed per complex FFT: the
    /// response is real, so scaling the packed spectrum filters both
    /// rows at once and the inverse FFT leaves `r0` in the real parts
    /// and `r1` in the imaginary parts. `cbuf` is caller-owned scratch
    /// (reused across calls); only its padded tail is cleared — the head
    /// is overwritten by row data.
    pub(crate) fn filter_pair_with(
        &self,
        r0: &[f32],
        r1: Option<&[f32]>,
        cbuf: &mut [Complex],
        mut emit: impl FnMut(usize, usize, f32),
    ) {
        let nd = self.n_det;
        assert_eq!(r0.len(), nd, "detector width mismatch");
        assert!(r1.is_none_or(|r| r.len() == nd), "detector width mismatch");
        assert_eq!(cbuf.len(), self.pad, "scratch buffer length mismatch");
        if self.response.is_empty() {
            for (which, row) in std::iter::once(r0).chain(r1).enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    emit(which, t, v);
                }
            }
            return;
        }
        match r1 {
            Some(r1) => {
                for ((c, &v0), &v1) in cbuf.iter_mut().zip(r0.iter()).zip(r1.iter()) {
                    *c = Complex::new(v0 as f64, v1 as f64);
                }
            }
            None => {
                for (c, &v0) in cbuf.iter_mut().zip(r0.iter()) {
                    *c = Complex::from_re(v0 as f64);
                }
            }
        }
        for c in cbuf[nd..].iter_mut() {
            *c = Complex::ZERO;
        }
        self.fft.forward(cbuf);
        crate::simd::scale_spectrum(self.path, cbuf, &self.resp2);
        self.fft.inverse(cbuf);
        for (t, c) in cbuf[..nd].iter().enumerate() {
            emit(0, t, c.re as f32);
        }
        if r1.is_some() {
            for (t, c) in cbuf[..nd].iter().enumerate() {
                emit(1, t, c.im as f32);
            }
        }
    }
}

/// Filter every row of a sinogram, returning a new sinogram of the same
/// shape. Convenience wrapper that builds a [`FilterPlan`] per call;
/// hot loops should hold a plan (or a [`crate::plan::ReconPlan`]) and
/// reuse its scratch instead.
pub fn filter_sinogram(sino: &Sinogram, kind: FilterKind) -> Sinogram {
    if kind == FilterKind::None {
        return sino.clone();
    }
    let plan = FilterPlan::new(kind, sino.n_det);
    let mut buf = plan.make_buf();
    let mut out = Sinogram::zeros(sino.n_angles, sino.n_det);
    plan.filter_rows(sino, &mut buf, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_is_zero_at_dc_and_grows() {
        let r = FilterKind::RamLak.response(256);
        assert!(r[0].abs() < 5e-3, "DC gain {}", r[0]);
        // monotone growth up to Nyquist for the pure ramp
        assert!(r[64] > r[16]);
        assert!(r[128] > r[64]);
        // symmetric
        for k in 1..128 {
            assert!((r[k] - r[256 - k]).abs() < 1e-12);
        }
    }

    #[test]
    fn ramp_gain_tracks_frequency() {
        // ramp response should be ≈ |f| in cycles/sample
        let pad = 512;
        let r = FilterKind::RamLak.response(pad);
        for k in [8usize, 32, 64, 128] {
            let expected = k as f64 / pad as f64;
            assert!(
                (r[k] - expected).abs() / expected < 0.05,
                "bin {k}: {} vs {expected}",
                r[k]
            );
        }
    }

    #[test]
    fn windows_attenuate_high_frequencies() {
        let pad = 256;
        let ram = FilterKind::RamLak.response(pad);
        for kind in [
            FilterKind::SheppLogan,
            FilterKind::Cosine,
            FilterKind::Hamming,
            FilterKind::Hann,
            FilterKind::Butterworth,
        ] {
            let r = kind.response(pad);
            // near Nyquist every window is below the raw ramp
            assert!(
                r[pad / 2] < ram[pad / 2],
                "{kind:?} does not attenuate at Nyquist"
            );
            // near DC they are all close to the ramp
            assert!((r[2] - ram[2]).abs() / ram[2].max(1e-12) < 0.2, "{kind:?}");
        }
    }

    #[test]
    fn filtering_removes_mean() {
        // ramp filter kills DC: the interior of a constant row filters to
        // ~zero (the row ends see the box edges, which is physical)
        let mut sino = Sinogram::zeros(1, 64);
        sino.row_mut(0).iter_mut().for_each(|v| *v = 5.0);
        let f = filter_sinogram(&sino, FilterKind::SheppLogan);
        let peak = f.row(0)[16..48].iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(
            peak < 0.25,
            "constant-row interior should be near zero, peak {peak}"
        );
    }

    #[test]
    fn none_filter_is_identity() {
        let mut sino = Sinogram::zeros(2, 16);
        for (i, v) in sino.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        let f = filter_sinogram(&sino, FilterKind::None);
        assert_eq!(f, sino);
    }

    #[test]
    fn parse_accepts_tomopy_names() {
        assert_eq!(FilterKind::parse("shepp"), Some(FilterKind::SheppLogan));
        assert_eq!(FilterKind::parse("Ram-Lak"), Some(FilterKind::RamLak));
        assert_eq!(FilterKind::parse("HANN"), Some(FilterKind::Hann));
        assert_eq!(FilterKind::parse("bogus"), None);
    }

    #[test]
    fn filter_preserves_shape() {
        let sino = Sinogram::zeros(7, 33);
        let f = filter_sinogram(&sino, FilterKind::Hamming);
        assert_eq!((f.n_angles, f.n_det), (7, 33));
    }

    #[test]
    fn simd_filter_is_bit_identical_to_scalar_on_odd_widths() {
        use crate::simd::SimdPath;
        // odd detector widths exercise the padded tail and the unpacked
        // final row; the SIMD spectrum multiply must round identically
        for nd in [17usize, 33, 63, 129] {
            let mut sino = Sinogram::zeros(5, nd);
            for (i, v) in sino.data.iter_mut().enumerate() {
                *v = ((i as f32 * 0.37).sin() + 0.1) * 3.0;
            }
            let scalar =
                FilterPlan::new(FilterKind::SheppLogan, nd).with_simd_path(SimdPath::Scalar);
            let wide = FilterPlan::new(FilterKind::SheppLogan, nd).with_simd_path(SimdPath::Avx2);
            let mut buf_a = scalar.make_buf();
            let mut buf_b = wide.make_buf();
            let mut out_a = Sinogram::zeros(5, nd);
            let mut out_b = Sinogram::zeros(5, nd);
            scalar.filter_rows(&sino, &mut buf_a, &mut out_a);
            wide.filter_rows(&sino, &mut buf_b, &mut out_b);
            assert_eq!(out_a.data, out_b.data, "nd={nd} diverged across paths");
        }
    }
}
