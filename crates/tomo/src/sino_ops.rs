//! Sinogram manipulation utilities used by beamline operations:
//! 360°→180° folding, ROI cropping (the "cropped test scans" of §5.2),
//! detector binning, and edge padding for truncated acquisitions.

use crate::geometry::Geometry;
use crate::image::Sinogram;
use crate::TomoError;

/// Fold a full 360° scan into a 180° sinogram by averaging each
/// projection with the mirror of its opposite (θ + π) view. Halves the
/// angle count and reduces photon noise by √2 — the standard redundancy
/// average for centered 360° acquisitions.
///
/// Requires an even number of angles spanning a full turn.
pub fn fold_360_to_180(
    sino: &Sinogram,
    geom: &Geometry,
) -> Result<(Sinogram, Geometry), TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    if sino.n_angles % 2 != 0 {
        return Err(TomoError::BadParameter(
            "360° fold needs an even angle count".into(),
        ));
    }
    let half = sino.n_angles / 2;
    let mut out = Sinogram::zeros(half, sino.n_det);
    for a in 0..half {
        let direct = sino.row(a);
        let opposite = sino.row(a + half);
        let dst = out.row_mut(a);
        for t in 0..sino.n_det {
            // the θ+π view sees the same ray family mirrored about the
            // rotation axis; for a centered axis that's a detector flip
            let mirrored = opposite[sino.n_det - 1 - t];
            dst[t] = 0.5 * (direct[t] + mirrored);
        }
    }
    let folded_geom = Geometry {
        angles: geom.angles[..half].to_vec(),
        n_det: geom.n_det,
        center: geom.center,
    };
    Ok((out, folded_geom))
}

/// Crop the detector axis to `[lo, hi)` — what a cropped test scan
/// records. The returned geometry's rotation center shifts accordingly.
pub fn crop_roi(
    sino: &Sinogram,
    geom: &Geometry,
    lo: usize,
    hi: usize,
) -> Result<(Sinogram, Geometry), TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    if lo >= hi || hi > sino.n_det {
        return Err(TomoError::BadParameter(format!(
            "bad ROI [{lo}, {hi}) for detector width {}",
            sino.n_det
        )));
    }
    let width = hi - lo;
    let mut out = Sinogram::zeros(sino.n_angles, width);
    for a in 0..sino.n_angles {
        out.row_mut(a).copy_from_slice(&sino.row(a)[lo..hi]);
    }
    let cropped_geom = Geometry {
        angles: geom.angles.clone(),
        n_det: width,
        center: geom.center - lo as f64,
    };
    Ok((out, cropped_geom))
}

/// Bin the detector axis by an integer factor (averaging), the detector's
/// hardware binning mode. The center rescales with the bin size.
pub fn bin_detector(
    sino: &Sinogram,
    geom: &Geometry,
    factor: usize,
) -> Result<(Sinogram, Geometry), TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    if factor == 0 || sino.n_det % factor != 0 {
        return Err(TomoError::BadParameter(format!(
            "bin factor {factor} must divide detector width {}",
            sino.n_det
        )));
    }
    let width = sino.n_det / factor;
    let mut out = Sinogram::zeros(sino.n_angles, width);
    for a in 0..sino.n_angles {
        let src = sino.row(a);
        let dst = out.row_mut(a);
        for (t, d) in dst.iter_mut().enumerate() {
            let s: f32 = src[t * factor..(t + 1) * factor].iter().sum();
            *d = s / factor as f32;
        }
    }
    // a point at detector coordinate c maps to bin (c - (factor-1)/2)/factor
    let binned_geom = Geometry {
        angles: geom.angles.clone(),
        n_det: width,
        center: (geom.center - (factor as f64 - 1.0) / 2.0) / factor as f64,
    };
    Ok((out, binned_geom))
}

/// Pad each row by `pad` bins of edge extension on both sides. Reduces
/// the bright-rim truncation artifact when the sample extends past the
/// detector (interior/ROI tomography).
pub fn pad_edges(sino: &Sinogram, geom: &Geometry, pad: usize) -> (Sinogram, Geometry) {
    let width = sino.n_det + 2 * pad;
    let mut out = Sinogram::zeros(sino.n_angles, width);
    for a in 0..sino.n_angles {
        let src = sino.row(a);
        let dst = out.row_mut(a);
        let first = *src.first().unwrap_or(&0.0);
        let last = *src.last().unwrap_or(&0.0);
        for d in dst[..pad].iter_mut() {
            *d = first;
        }
        dst[pad..pad + sino.n_det].copy_from_slice(src);
        for d in dst[pad + sino.n_det..].iter_mut() {
            *d = last;
        }
    }
    let padded_geom = Geometry {
        angles: geom.angles.clone(),
        n_det: width,
        center: geom.center + pad as f64,
    };
    (out, padded_geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::plan::{FbpConfig, ReconPlan};
    use crate::radon::{forward_project, in_recon_disk};

    fn fbp_slice(sino: &Sinogram, geom: &Geometry, cfg: &FbpConfig) -> Result<Image, TomoError> {
        let plan = ReconPlan::new(geom, cfg)?;
        plan.fbp_slice_with(sino, &mut plan.make_scratch())
    }

    fn disk_image(n: usize, r: f64) -> Image {
        let mut img = Image::square(n);
        let c = (n as f64 - 1.0) / 2.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - c;
                let dy = y as f64 - c;
                if (dx * dx + dy * dy).sqrt() <= r {
                    img.set(x, y, 1.0);
                }
            }
        }
        img
    }

    fn full_turn_geometry(n_angles: usize, n_det: usize) -> Geometry {
        let angles = (0..n_angles)
            .map(|i| 2.0 * std::f64::consts::PI * i as f64 / n_angles as f64)
            .collect();
        Geometry {
            angles,
            n_det,
            center: (n_det as f64 - 1.0) / 2.0,
        }
    }

    #[test]
    fn fold_recovers_180_geometry() {
        let n = 32;
        let img = disk_image(n, 9.0);
        let geom360 = full_turn_geometry(48, n);
        let sino360 = forward_project(&img, &geom360);
        let (sino180, geom180) = fold_360_to_180(&sino360, &geom360).unwrap();
        assert_eq!(sino180.n_angles, 24);
        assert_eq!(geom180.n_angles(), 24);
        // folded data should reconstruct the disk
        let rec = fbp_slice(&sino180, &geom180, &FbpConfig::default()).unwrap();
        let center = rec.get(n / 2, n / 2);
        assert!((center - 1.0).abs() < 0.15, "center {center}");
    }

    #[test]
    fn fold_averages_redundant_views() {
        // a symmetric object: folded rows equal the original rows
        let n = 32;
        let img = disk_image(n, 8.0);
        let geom360 = full_turn_geometry(16, n);
        let sino360 = forward_project(&img, &geom360);
        let (folded, _) = fold_360_to_180(&sino360, &geom360).unwrap();
        for a in 0..8 {
            for t in 0..n {
                assert!(
                    (folded.get(a, t) - sino360.get(a, t)).abs() < 0.3,
                    "({a},{t})"
                );
            }
        }
    }

    #[test]
    fn fold_rejects_odd_angle_counts() {
        let geom = full_turn_geometry(15, 8);
        let sino = Sinogram::zeros(15, 8);
        assert!(fold_360_to_180(&sino, &geom).is_err());
    }

    #[test]
    fn crop_shifts_center() {
        let geom = Geometry::parallel_180(10, 64);
        let sino = Sinogram::zeros(10, 64);
        let (cropped, cgeom) = crop_roi(&sino, &geom, 16, 48).unwrap();
        assert_eq!(cropped.n_det, 32);
        assert_eq!(cgeom.center, 31.5 - 16.0);
        assert!(crop_roi(&sino, &geom, 40, 30).is_err());
        assert!(crop_roi(&sino, &geom, 0, 65).is_err());
    }

    #[test]
    fn crop_preserves_values() {
        let geom = Geometry::parallel_180(2, 8);
        let mut sino = Sinogram::zeros(2, 8);
        for (i, v) in sino.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        let (c, _) = crop_roi(&sino, &geom, 2, 6).unwrap();
        assert_eq!(c.row(0), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn binning_averages_and_rescales_center() {
        let geom = Geometry::parallel_180(1, 8);
        let mut sino = Sinogram::zeros(1, 8);
        sino.row_mut(0)
            .copy_from_slice(&[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
        let (binned, bgeom) = bin_detector(&sino, &geom, 2).unwrap();
        assert_eq!(binned.row(0), &[1.0, 5.0, 9.0, 13.0]);
        // center 3.5 -> (3.5 - 0.5)/2 = 1.5, the midpoint of 4 bins
        assert!((bgeom.center - 1.5).abs() < 1e-12);
        assert!(bin_detector(&sino, &geom, 3).is_err());
    }

    #[test]
    fn binned_recon_still_reconstructs() {
        let n = 64;
        let img = disk_image(n, 18.0);
        let geom = Geometry::parallel_180(60, n);
        let sino = forward_project(&img, &geom);
        let (binned, bgeom) = bin_detector(&sino, &geom, 2).unwrap();
        let rec = fbp_slice(&binned, &bgeom, &FbpConfig::default()).unwrap();
        // binned line integrals keep their physical length scale, so the
        // reconstruction at half resolution has ~2x the per-pixel value
        let center = rec.get(n / 4, n / 4);
        assert!((center - 2.0).abs() < 0.4, "center {center}");
    }

    #[test]
    fn padding_reduces_truncation_artifact() {
        // truncate a scan of an oversized disk, then reconstruct with and
        // without edge padding; padding should reduce the error
        let n = 64;
        let img = disk_image(n, 30.0); // extendsing toward the detector edge
        let geom = Geometry::parallel_180(90, n);
        let sino = forward_project(&img, &geom);
        // truncate to the central 40 bins
        let (trunc, tgeom) = crop_roi(&sino, &geom, 12, 52).unwrap();
        let plain = fbp_slice(&trunc, &tgeom, &FbpConfig::default()).unwrap();
        let (padded, pgeom) = pad_edges(&trunc, &tgeom, 20);
        let rec_padded = fbp_slice(&padded, &pgeom, &FbpConfig::default()).unwrap();
        // compare the interior against truth value 1.0
        let m = 40;
        let err = |rec: &Image, full_width: usize| -> f64 {
            let off = (full_width - m) / 2;
            let mut e = 0.0;
            let mut cnt = 0;
            for y in 0..m {
                for x in 0..m {
                    if in_recon_disk(x, y, m) {
                        e += (rec.get(x + off, y + off) as f64 - 1.0).powi(2);
                        cnt += 1;
                    }
                }
            }
            (e / cnt as f64).sqrt()
        };
        let e_plain = err(&plain, 40);
        let e_padded = err(&rec_padded, 80);
        assert!(
            e_padded < e_plain,
            "padding should help: {e_plain} -> {e_padded}"
        );
    }
}
