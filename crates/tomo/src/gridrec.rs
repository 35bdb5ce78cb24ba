//! Direct Fourier ("gridrec"-style) reconstruction.
//!
//! The Fourier slice theorem says the 1D FFT of a parallel projection at
//! angle θ equals the slice of the image's 2D FFT along that angle. This
//! module FFTs every projection, resamples the resulting polar spectrum
//! onto a Cartesian grid (bilinear in ρ and θ), and inverse-2D-FFTs —
//! the same structure as TomoPy's `gridrec`, the fast CPU algorithm the
//! paper's file-based pipeline uses when speed matters more than the
//! iterative solvers' quality.

use crate::filter::FilterKind;
use crate::geometry::Geometry;
use crate::image::{Image, Sinogram};
use crate::plan::GridrecPlan;
use crate::TomoError;
use serde::{Deserialize, Serialize};

/// Configuration for direct Fourier reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridrecConfig {
    /// Radial apodization window applied in frequency space; tames the
    /// interpolation noise near Nyquist. `RamLak`/`None` mean no extra
    /// apodization (the direct method needs no ramp).
    pub window: FilterKind,
    /// Oversampling factor of the Fourier grid relative to the detector
    /// width (≥2 recommended to reduce interpolation error).
    pub oversample: usize,
    /// Mask the output to the inscribed circle.
    pub mask_disk: bool,
}

impl Default for GridrecConfig {
    fn default() -> Self {
        GridrecConfig {
            window: FilterKind::Hann,
            oversample: 2,
            mask_disk: true,
        }
    }
}

/// Reconstruct a slice with the direct Fourier method.
///
/// Convenience wrapper that builds a [`GridrecPlan`] (gather table, FFT
/// plan, phase factors) per call; batch reconstructions should hold a
/// plan and call [`GridrecPlan::gridrec_slice_with`] to amortize it.
pub fn gridrec_slice(
    sino: &Sinogram,
    geom: &Geometry,
    cfg: &GridrecConfig,
) -> Result<Image, TomoError> {
    let plan = GridrecPlan::new(geom, cfg)?;
    let mut scratch = plan.make_scratch();
    plan.gridrec_slice_with(sino, &mut scratch)
}

pub(crate) fn signed_index(k: usize, m: usize) -> i64 {
    if k < m / 2 {
        k as i64
    } else {
        k as i64 - m as i64
    }
}

pub(crate) fn window_gain(kind: FilterKind, w: f64) -> f64 {
    use std::f64::consts::PI;
    match kind {
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
        FilterKind::Butterworth => 1.0 / (1.0 + (w / 0.5).powi(4)),
        FilterKind::RamLak | FilterKind::None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radon::{forward_project, in_recon_disk};

    fn disk_image(n: usize, r: f64, v: f32) -> Image {
        let mut img = Image::square(n);
        let c = (n as f64 - 1.0) / 2.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - c;
                let dy = y as f64 - c;
                if (dx * dx + dy * dy).sqrt() <= r {
                    img.set(x, y, v);
                }
            }
        }
        img
    }

    fn rmse_in_disk(a: &Image, b: &Image) -> f64 {
        let n = a.width;
        let mut e = 0.0;
        let mut cnt = 0usize;
        for y in 0..n {
            for x in 0..n {
                if in_recon_disk(x, y, n) {
                    e += (a.get(x, y) as f64 - b.get(x, y) as f64).powi(2);
                    cnt += 1;
                }
            }
        }
        (e / cnt as f64).sqrt()
    }

    #[test]
    fn gridrec_recovers_disk() {
        let n = 64;
        let truth = disk_image(n, 16.0, 1.0);
        let geom = Geometry::parallel_180(180, n);
        let sino = forward_project(&truth, &geom);
        let rec = gridrec_slice(&sino, &geom, &GridrecConfig::default()).unwrap();
        let c = n / 2;
        let center = rec.get(c, c);
        assert!((center - 1.0).abs() < 0.25, "center {center}");
        let rmse = rmse_in_disk(&rec, &truth);
        assert!(rmse < 0.2, "rmse {rmse}");
    }

    #[test]
    fn gridrec_is_comparable_to_fbp() {
        let n = 64;
        let truth = disk_image(n, 14.0, 1.0);
        let geom = Geometry::parallel_180(160, n);
        let sino = forward_project(&truth, &geom);
        let grid = gridrec_slice(&sino, &geom, &GridrecConfig::default()).unwrap();
        let plan = crate::ReconPlan::new(&geom, &crate::FbpConfig::default()).unwrap();
        let fbp = plan
            .fbp_slice_with(&sino, &mut plan.make_scratch())
            .unwrap();
        let e_grid = rmse_in_disk(&grid, &truth);
        let e_fbp = rmse_in_disk(&fbp, &truth);
        // direct Fourier should be within 3x of FBP error on a smooth phantom
        assert!(
            e_grid < 3.0 * e_fbp + 0.05,
            "gridrec rmse {e_grid} vs fbp {e_fbp}"
        );
    }

    #[test]
    fn higher_oversampling_does_not_hurt() {
        let n = 32;
        let truth = disk_image(n, 8.0, 1.0);
        let geom = Geometry::parallel_180(90, n);
        let sino = forward_project(&truth, &geom);
        let lo = gridrec_slice(
            &sino,
            &geom,
            &GridrecConfig {
                oversample: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let hi = gridrec_slice(
            &sino,
            &geom,
            &GridrecConfig {
                oversample: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let e_lo = rmse_in_disk(&lo, &truth);
        let e_hi = rmse_in_disk(&hi, &truth);
        assert!(
            e_hi <= e_lo * 1.2,
            "oversampling regressed: {e_lo} -> {e_hi}"
        );
    }

    #[test]
    fn rejects_single_angle() {
        let geom = Geometry::parallel_180(1, 16);
        let sino = Sinogram::zeros(1, 16);
        assert!(gridrec_slice(&sino, &geom, &GridrecConfig::default()).is_err());
    }

    #[test]
    fn signed_index_wraps() {
        assert_eq!(signed_index(0, 8), 0);
        assert_eq!(signed_index(3, 8), 3);
        assert_eq!(signed_index(4, 8), -4);
        assert_eq!(signed_index(7, 8), -1);
    }
}
