//! Rotation-axis auto-calibration in the file-based pipeline.
//!
//! Users align samples in the control software (Figure 2A), but the
//! rotation axis never lands exactly on the detector midline. Production
//! TomoPy pipelines therefore run a center-of-rotation search before
//! reconstructing; this module puts [`als_tomo::cor`] in front of FBP
//! on one sinogram and quantifies what the search buys. The file-based
//! branch (`realmode`, `als_tomo::pipeline`) does not call it: it
//! reconstructs about the detector midline.

use als_tomo::cor::find_center;
use als_tomo::{FbpConfig, Geometry, Image, ReconPlan, Sinogram};
use serde::Serialize;

/// Result of reconstructing one slice with and without COR correction.
#[derive(Debug, Clone, Serialize)]
pub struct CorComparison {
    /// Center assumed by a naive pipeline (detector midline).
    pub naive_center: f64,
    /// Center found by the mirror-correlation search.
    pub found_center: f64,
    /// The acquisition's true center (if known, e.g. in simulation).
    pub true_center: Option<f64>,
}

/// Estimate the rotation center of a scan from its first and last
/// projections (the scan must cover a full 180°+ sweep for the mirror
/// relation to hold approximately).
pub fn estimate_center(sino: &Sinogram, max_shift: f64) -> Option<f64> {
    find_center(sino, max_shift, 0.25)
}

/// Reconstruct a slice with the naive midline center and with the
/// estimated center; returns both images plus the comparison record.
pub fn reconstruct_with_cor(
    sino: &Sinogram,
    angles: &[f64],
    true_center: Option<f64>,
) -> (Image, Image, CorComparison) {
    let n_det = sino.n_det;
    let naive_center = (n_det as f64 - 1.0) / 2.0;
    let found_center = estimate_center(sino, n_det as f64 * 0.15).unwrap_or(naive_center);
    let cfg = FbpConfig::default();
    let naive_geom = Geometry {
        angles: angles.to_vec(),
        n_det,
        center: naive_center,
    };
    let corrected_geom = Geometry {
        angles: angles.to_vec(),
        n_det,
        center: found_center,
    };
    let fbp = |geom: &Geometry| {
        let plan = ReconPlan::new(geom, &cfg).expect("fbp plan");
        plan.fbp_slice_with(sino, &mut plan.make_scratch())
            .expect("fbp")
    };
    let naive = fbp(&naive_geom);
    let corrected = fbp(&corrected_geom);
    (
        naive,
        corrected,
        CorComparison {
            naive_center,
            found_center,
            true_center,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_phantom::{feather_volume, FeatherSpecies};
    use als_tomo::forward_project;
    use als_tomo::quality::mse_in_disk;

    /// Simulate a mis-centered acquisition: the rotation axis sits 3 bins
    /// off the detector midline.
    fn miscentered_scan(n: usize, offset: f64) -> (Sinogram, Vec<f64>, Image) {
        let vol = feather_volume(FeatherSpecies::Chicken, n, 1, 5);
        let truth = vol.slice_xy(0);
        let mut geom = Geometry::parallel_180(96, n).with_center((n as f64 - 1.0) / 2.0 + offset);
        // include the 180° endpoint so first/last rows are mirror pairs
        geom.angles.push(std::f64::consts::PI);
        let sino = forward_project(&truth, &geom);
        (sino, geom.angles, truth)
    }

    #[test]
    fn search_recovers_the_offset() {
        let n = 64;
        let offset = 3.0;
        let (sino, _angles, _truth) = miscentered_scan(n, offset);
        let est = estimate_center(&sino, 8.0).unwrap();
        let expected = (n as f64 - 1.0) / 2.0 + offset;
        assert!(
            (est - expected).abs() < 0.75,
            "estimated {est}, expected {expected}"
        );
    }

    #[test]
    fn correction_improves_reconstruction() {
        let n = 64;
        let (sino, angles, truth) = miscentered_scan(n, 3.0);
        let (naive, corrected, cmp) = reconstruct_with_cor(&sino, &angles, Some(34.5));
        let e_naive = mse_in_disk(&truth, &naive);
        let e_corrected = mse_in_disk(&truth, &corrected);
        assert!(
            e_corrected < e_naive * 0.8,
            "COR should reduce error: {e_naive} -> {e_corrected} (found {})",
            cmp.found_center
        );
    }

    #[test]
    fn centered_scan_is_left_alone() {
        let n = 64;
        let (sino, angles, truth) = miscentered_scan(n, 0.0);
        let (naive, corrected, cmp) = reconstruct_with_cor(&sino, &angles, None);
        assert!(
            (cmp.found_center - cmp.naive_center).abs() < 0.75,
            "found {} vs naive {}",
            cmp.found_center,
            cmp.naive_center
        );
        // correction must not make a centered scan meaningfully worse
        let e_naive = mse_in_disk(&truth, &naive);
        let e_corrected = mse_in_disk(&truth, &corrected);
        assert!(e_corrected < e_naive * 1.25 + 1e-6);
    }
}
