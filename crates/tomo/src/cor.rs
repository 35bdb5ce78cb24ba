//! Center-of-rotation (COR) estimation.
//!
//! A mis-calibrated rotation axis produces characteristic crescent
//! artifacts; beamline staff historically tuned it by eye. For a 180° scan
//! the projection at π is the mirror of the projection at 0 about the
//! rotation axis, so the axis can be found by maximizing the correlation
//! between row 0 and the flipped final row (Vo-style registration,
//! simplified to 1D).

use crate::image::Sinogram;

/// Estimate the rotation center (in detector bins) from the first and last
/// rows of a 180° sinogram. Searches shifts in `[-max_shift, max_shift]`
/// around the detector midpoint at `step` resolution.
///
/// Returns the estimated center, or `None` when the sinogram has fewer
/// than two rows.
pub fn find_center(sino: &Sinogram, max_shift: f64, step: f64) -> Option<f64> {
    if sino.n_angles < 2 || sino.n_det < 4 {
        return None;
    }
    let first = sino.row(0);
    let last = sino.row(sino.n_angles - 1);
    let mid = (sino.n_det as f64 - 1.0) / 2.0;
    let step = step.max(1e-3);

    let mut best_center = mid;
    let mut best_score = f64::NEG_INFINITY;
    let mut shift = -max_shift;
    while shift <= max_shift + 1e-12 {
        let center = mid + shift;
        let score = mirror_correlation(first, last, center);
        if score > best_score {
            best_score = score;
            best_center = center;
        }
        shift += step;
    }
    Some(best_center)
}

/// Normalized cross-correlation between `first(t)` and `last(2·center − t)`.
fn mirror_correlation(first: &[f32], last: &[f32], center: f64) -> f64 {
    let n = first.len();
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    let mut count = 0usize;
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for (t, &a) in first.iter().enumerate() {
        let mirrored = 2.0 * center - t as f64;
        if mirrored < 0.0 || mirrored > (n - 1) as f64 {
            continue;
        }
        let i = mirrored.floor() as usize;
        let f = mirrored - i as f64;
        let b = if i + 1 < n {
            last[i] as f64 * (1.0 - f) + last[i + 1] as f64 * f
        } else {
            last[i] as f64
        };
        pairs.push((a as f64, b));
        sum_a += a as f64;
        sum_b += b;
        count += 1;
    }
    if count < 8 {
        return f64::NEG_INFINITY;
    }
    let ma = sum_a / count as f64;
    let mb = sum_b / count as f64;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (a, b) in pairs {
        num += (a - ma) * (b - mb);
        da += (a - ma).powi(2);
        db += (b - mb).powi(2);
    }
    if da <= 0.0 || db <= 0.0 {
        return f64::NEG_INFINITY;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::image::Image;
    use crate::plan::{FbpConfig, ReconPlan};
    use crate::quality::mse_in_disk;
    use crate::radon::forward_project;

    fn offset_blob(n: usize) -> Image {
        let mut img = Image::square(n);
        let c = (n as f64 - 1.0) / 2.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - c - 5.0;
                let dy = y as f64 - c + 3.0;
                if (dx * dx + dy * dy).sqrt() < n as f64 * 0.12 {
                    img.set(x, y, 1.0);
                }
            }
        }
        img
    }

    /// Build a sinogram whose final row is exactly the 180° mirror view.
    fn sino_with_center(n: usize, center: f64) -> Sinogram {
        let img = offset_blob(n);
        // include the π endpoint so row 0 and the last row are mirror pairs
        let mut geom = Geometry::parallel_180(64, n).with_center(center);
        geom.angles.push(std::f64::consts::PI);
        let full = forward_project(&img, &geom);
        Sinogram::from_vec(geom.angles.len(), n, full.data)
    }

    #[test]
    fn finds_true_center_when_aligned() {
        let n = 64;
        let sino = sino_with_center(n, (n as f64 - 1.0) / 2.0);
        let est = find_center(&sino, 8.0, 0.25).unwrap();
        assert!(
            (est - 31.5).abs() <= 0.5,
            "estimated center {est}, expected 31.5"
        );
    }

    #[test]
    fn finds_shifted_center() {
        let n = 64;
        let true_center = 34.0;
        let sino = sino_with_center(n, true_center);
        let est = find_center(&sino, 8.0, 0.25).unwrap();
        assert!(
            (est - true_center).abs() <= 0.75,
            "estimated center {est}, expected {true_center}"
        );
    }

    #[test]
    fn degenerate_input_returns_none() {
        assert!(find_center(&Sinogram::zeros(1, 64), 5.0, 0.5).is_none());
        assert!(find_center(&Sinogram::zeros(10, 2), 5.0, 0.5).is_none());
    }

    /// A mis-centered acquisition of a feather slice: the rotation axis
    /// sits `offset` bins off the detector midline. Returns the
    /// sinogram, its angles and the true slice.
    fn miscentered_scan(n: usize, offset: f64) -> (Sinogram, Vec<f64>, Image) {
        // `als_phantom` links its own copy of this crate, so the slice
        // crosses over as raw pixels
        let vol = als_phantom::feather_volume(als_phantom::FeatherSpecies::Chicken, n, 1, 5);
        let truth = Image::from_vec(n, n, vol.slice_xy(0).data);
        let mut geom = Geometry::parallel_180(96, n).with_center((n as f64 - 1.0) / 2.0 + offset);
        // include the 180° endpoint so first/last rows are mirror pairs
        geom.angles.push(std::f64::consts::PI);
        let sino = forward_project(&truth, &geom);
        (sino, geom.angles, truth)
    }

    /// FBP of `sino` about `center`, the way a pipeline that trusts
    /// that center reconstructs it.
    fn fbp_about(sino: &Sinogram, angles: &[f64], center: f64) -> Image {
        let geom = Geometry {
            angles: angles.to_vec(),
            n_det: sino.n_det,
            center,
        };
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        plan.fbp_slice_with(sino, &mut plan.make_scratch()).unwrap()
    }

    /// The midline center and the one the search finds (±15 % of the
    /// detector), with the FBP about each.
    fn naive_and_corrected(sino: &Sinogram, angles: &[f64]) -> (f64, f64, Image, Image) {
        let naive_center = (sino.n_det as f64 - 1.0) / 2.0;
        let found_center =
            find_center(sino, sino.n_det as f64 * 0.15, 0.25).unwrap_or(naive_center);
        let naive = fbp_about(sino, angles, naive_center);
        let corrected = fbp_about(sino, angles, found_center);
        (naive_center, found_center, naive, corrected)
    }

    #[test]
    fn search_recovers_the_offset() {
        let n = 64;
        let offset = 3.0;
        let (sino, _angles, _truth) = miscentered_scan(n, offset);
        let est = find_center(&sino, 8.0, 0.25).unwrap();
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
        let (_, found_center, naive, corrected) = naive_and_corrected(&sino, &angles);
        let e_naive = mse_in_disk(&truth, &naive);
        let e_corrected = mse_in_disk(&truth, &corrected);
        assert!(
            e_corrected < e_naive * 0.8,
            "COR should reduce error: {e_naive} -> {e_corrected} (found {found_center})"
        );
    }

    #[test]
    fn centered_scan_is_left_alone() {
        let n = 64;
        let (sino, angles, truth) = miscentered_scan(n, 0.0);
        let (naive_center, found_center, naive, corrected) = naive_and_corrected(&sino, &angles);
        assert!(
            (found_center - naive_center).abs() < 0.75,
            "found {found_center} vs naive {naive_center}"
        );
        // correction must not make a centered scan meaningfully worse
        let e_naive = mse_in_disk(&truth, &naive);
        let e_corrected = mse_in_disk(&truth, &corrected);
        assert!(e_corrected < e_naive * 1.25 + 1e-6);
    }

    #[test]
    fn flat_sinogram_returns_midpoint() {
        // no structure to register: correlation is -inf everywhere, so the
        // search keeps the detector midpoint
        let sino = Sinogram::zeros(4, 32);
        let est = find_center(&sino, 4.0, 0.5).unwrap();
        assert!((est - 15.5).abs() < 1e-9);
    }
}
