//! Forward projection and the reconstruction disk for parallel-beam
//! geometry.
//!
//! Conventions: for a projection at angle `θ`, a pixel at image coordinates
//! `(x, y)` (origin at the image center) maps to detector coordinate
//! `s = x·cosθ + y·sinθ` relative to the rotation center. The forward
//! projector integrates along the ray direction `(-sinθ, cosθ)` with unit
//! step and bilinear sampling; the back projector
//! ([`crate::ReconPlan::backproject_acc`]) gathers with linear
//! interpolation along the detector. The pair is approximately adjoint,
//! which is what the iterative solvers in [`crate::iterative`] rely on.
//!
//! There is one projector kernel, generic over its lane count, and a lane
//! is an image. [`forward_project_volume`] interleaves `SLICE_LANES`
//! volume slices pixel-wise (`buf[pixel * SLICE_LANES + lane]`, the layout
//! of the SIRT and FBP lane engines), so each ray's clip interval, sample
//! positions and bilinear weights are computed once for four slices, and
//! it spreads the slice groups across rayon workers. [`forward_project`]
//! and [`crate::ReconPlan::forward_into`] are the one-lane case. Every
//! lane performs the one-lane f64 sequence, so a slice projected in a
//! group is bit-identical to the same slice projected alone.

use crate::geometry::Geometry;
use crate::image::{Image, Sinogram, Volume};
use crate::simd::SLICE_LANES;
use rayon::prelude::*;

/// Integrate the image along every ray of the geometry, producing a
/// sinogram. This is the `A` in the iterative solvers and the synthetic
/// data generator used by the phantom crate.
pub fn forward_project(img: &Image, geom: &Geometry) -> Sinogram {
    let mut sino = Sinogram::zeros(geom.n_angles(), geom.n_det);
    forward_project_into(img, geom, &mut sino);
    sino
}

/// Forward-project into an existing sinogram buffer (avoids reallocation in
/// iterative loops).
pub fn forward_project_into(img: &Image, geom: &Geometry, sino: &mut Sinogram) {
    assert_eq!(sino.n_angles, geom.n_angles());
    assert_eq!(sino.n_det, geom.n_det);
    let dims = (img.width, img.height);
    for (a, &theta) in geom.angles.iter().enumerate() {
        let (sin_t, cos_t) = theta.sin_cos();
        project_angle_lanes::<1>(dims, &img.data, geom.center, sin_t, cos_t, sino.row_mut(a));
    }
}

/// Forward-project every `xy` slice of `vol`: sinogram `z` is
/// bit-identical to [`forward_project`] of `vol.slice_xy(z)`. Slices go
/// through the kernel `SLICE_LANES` at a time (a last, smaller group runs
/// with idle lanes), one group per rayon work item.
pub fn forward_project_volume(vol: &Volume, geom: &Geometry) -> Vec<Sinogram> {
    const L: usize = SLICE_LANES;
    let (dims, npix) = ((vol.nx, vol.ny), vol.nx * vol.ny);
    let trig: Vec<(f64, f64)> = geom.angles.iter().map(|&t| t.sin_cos()).collect();
    let mut sinos: Vec<Sinogram> = (0..vol.nz)
        .map(|_| Sinogram::zeros(geom.n_angles(), geom.n_det))
        .collect();
    sinos.par_chunks_mut(L).enumerate().for_each_init(
        || (vec![0.0f32; npix * L], vec![0.0f32; geom.n_det * L]),
        |(img, row), (g, group)| {
            if group.len() < L {
                img.fill(0.0);
            }
            for lane in 0..group.len() {
                let z = g * L + lane;
                let slice = &vol.data[z * npix..(z + 1) * npix];
                for (px, &v) in img.chunks_exact_mut(L).zip(slice) {
                    px[lane] = v;
                }
            }
            for (a, &(sin_t, cos_t)) in trig.iter().enumerate() {
                project_angle_lanes::<L>(dims, img, geom.center, sin_t, cos_t, row);
                for (lane, sino) in group.iter_mut().enumerate() {
                    for (o, px) in sino.row_mut(a).iter_mut().zip(row.chunks_exact(L)) {
                        *o = px[lane];
                    }
                }
            }
        },
    );
    sinos
}

/// Integrate one projection angle (given as its precomputed `sinθ`/`cosθ`)
/// of `L` pixel-interleaved `w × h` images (`img[pixel * L + lane]`) into
/// an interleaved detector row (`out[bin * L + lane]`).
///
/// Per ray, the integration range, every sample position, its 2×2
/// footprint and its bilinear weights are computed once for all lanes.
/// Each lane then adds, in f64 and in increasing ray step,
/// `v00·(1−fx)·(1−fy) + v10·fx·(1−fy) + v01·(1−fx)·fy + v11·fx·fy` to its
/// accumulator. A sample whose footprint leaves the image is skipped: it
/// would add an exact zero. The range is clipped to where the ray can
/// meet the image (`x ∈ [0, w-1]`, `y ∈ [0, h-1]`), widened by two steps
/// on each side for float safety, so the clip also only skips exact
/// zeros.
pub(crate) fn project_angle_lanes<const L: usize>(
    (w, h): (usize, usize),
    img: &[f32],
    center: f64,
    sin_t: f64,
    cos_t: f64,
    out: &mut [f32],
) {
    debug_assert_eq!(img.len(), w * h * L);
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    let last_x = w as f64 - 1.0;
    let last_y = h as f64 - 1.0;
    // ray length covers the image diagonal
    let half_len = (((w * w + h * h) as f64).sqrt() / 2.0).ceil() as i64;
    for (t, out) in out.chunks_exact_mut(L).enumerate() {
        let s = t as f64 - center;
        // base point on the detector line through the image center
        let bx = cx + s * cos_t;
        let by = cy + s * sin_t;
        let mut lo = -(half_len as f64);
        let mut hi = half_len as f64;
        // x(r) = bx − r·sinθ ∈ [0, last_x]
        if sin_t != 0.0 {
            let a = (bx - last_x) / sin_t;
            let b = bx / sin_t;
            lo = lo.max(a.min(b));
            hi = hi.min(a.max(b));
        } else if !(0.0..=last_x).contains(&bx) {
            out.fill(0.0);
            continue;
        }
        // y(r) = by + r·cosθ ∈ [0, last_y]
        if cos_t != 0.0 {
            let a = -by / cos_t;
            let b = (last_y - by) / cos_t;
            lo = lo.max(a.min(b));
            hi = hi.min(a.max(b));
        } else if !(0.0..=last_y).contains(&by) {
            out.fill(0.0);
            continue;
        }
        // float-to-int casts saturate, so degenerate (empty) intervals are safe
        let r_lo = ((lo.floor() as i64) - 2).max(-half_len);
        let r_hi = ((hi.ceil() as i64) + 2).min(half_len);
        let mut acc = [0.0f64; L];
        for r in r_lo..=r_hi {
            let rf = r as f64;
            let x = bx - rf * sin_t;
            let y = by + rf * cos_t;
            if x < 0.0 || y < 0.0 {
                continue;
            }
            // non-negative, so truncation is the floor
            let (x0, y0) = (x as usize, y as usize);
            if x0 + 1 >= w || y0 + 1 >= h {
                continue;
            }
            let fx = x - x0 as f64;
            let fy = y - y0 as f64;
            let (gx, gy) = (1.0 - fx, 1.0 - fy);
            let i = (y0 * w + x0) * L;
            let top = &img[i..i + 2 * L];
            let bot = &img[i + w * L..i + (w + 2) * L];
            for (l, acc) in acc.iter_mut().enumerate() {
                let (v00, v10) = (top[l] as f64, top[L + l] as f64);
                let (v01, v11) = (bot[l] as f64, bot[L + l] as f64);
                *acc += v00 * gx * gy + v10 * fx * gy + v01 * gx * fy + v11 * fx * fy;
            }
        }
        for (o, acc) in out.iter_mut().zip(acc) {
            *o = acc as f32;
        }
    }
}

/// The reconstruction disk: pixels outside the inscribed circle are not
/// covered by every projection, so reconstructions are usually masked to
/// this region. Returns `true` when `(x, y)` is inside.
pub fn in_recon_disk(x: usize, y: usize, n: usize) -> bool {
    let c = (n as f64 - 1.0) / 2.0;
    let dx = x as f64 - c;
    let dy = y as f64 - c;
    dx * dx + dy * dy <= (n as f64 / 2.0 - 1.0).powi(2)
}

/// Zero all pixels outside the reconstruction disk.
pub fn apply_disk_mask(img: &mut Image) {
    let n = img.width;
    assert_eq!(img.width, img.height, "disk mask requires a square image");
    for y in 0..n {
        for x in 0..n {
            if !in_recon_disk(x, y, n) {
                img.set(x, y, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterKind;
    use crate::plan::{FbpConfig, ReconPlan};

    /// Unfiltered, unmasked back projection through the plan engine.
    fn backproject(sino: &Sinogram, geom: &Geometry, scale: f64) -> Vec<f32> {
        let cfg = FbpConfig {
            filter: FilterKind::None,
            mask_disk: false,
        };
        let plan = ReconPlan::new(geom, &cfg).unwrap();
        let mut out = vec![0.0f32; geom.n_det * geom.n_det];
        plan.backproject_acc(sino, scale, &mut plan.make_scratch(), &mut out);
        out
    }

    /// Centered disk of radius r and value v.
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

    #[test]
    fn projection_of_disk_matches_chord_length() {
        let n = 64;
        let r = 20.0;
        let img = disk_image(n, r, 1.0);
        let geom = Geometry::parallel_180(8, n);
        let sino = forward_project(&img, &geom);
        // the central ray crosses the full diameter: integral ≈ 2r
        for a in 0..geom.n_angles() {
            let center_val = sino.sample_row(a, geom.center);
            assert!(
                (center_val - 2.0 * r).abs() < 2.5,
                "angle {a}: {center_val} vs {}",
                2.0 * r
            );
        }
    }

    #[test]
    fn projection_mass_is_angle_invariant() {
        // total mass of each projection equals the image integral
        let n = 48;
        let img = disk_image(n, 12.0, 2.0);
        let total: f64 = img.data.iter().map(|&v| v as f64).sum();
        let geom = Geometry::parallel_180(16, n);
        let sino = forward_project(&img, &geom);
        for a in 0..geom.n_angles() {
            let mass: f64 = sino.row(a).iter().map(|&v| v as f64).sum();
            assert!(
                (mass - total).abs() / total < 0.02,
                "angle {a}: mass {mass} vs {total}"
            );
        }
    }

    #[test]
    fn forward_projection_is_linear() {
        let n = 32;
        let a = disk_image(n, 8.0, 1.0);
        let b = disk_image(n, 4.0, 3.0);
        let mut sum = Image::square(n);
        for i in 0..sum.data.len() {
            sum.data[i] = a.data[i] + b.data[i];
        }
        let geom = Geometry::parallel_180(12, n);
        let pa = forward_project(&a, &geom);
        let pb = forward_project(&b, &geom);
        let psum = forward_project(&sum, &geom);
        for i in 0..psum.data.len() {
            assert!((psum.data[i] - (pa.data[i] + pb.data[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn forward_and_back_are_approximately_adjoint() {
        // <A x, y> ≈ <x, A^T y> for random-ish x, y
        let n = 24;
        let geom = Geometry::parallel_180(10, n);
        let mut x = Image::square(n);
        for (i, v) in x.data.iter_mut().enumerate() {
            // only fill the interior disk to avoid edge clipping asymmetry
            let xx = i % n;
            let yy = i / n;
            if in_recon_disk(xx, yy, n) {
                *v = ((i * 2654435761) % 97) as f32 / 97.0;
            }
        }
        let mut y = Sinogram::zeros(geom.n_angles(), geom.n_det);
        for (i, v) in y.data.iter_mut().enumerate() {
            *v = ((i * 40503) % 89) as f32 / 89.0;
        }
        let ax = forward_project(&x, &geom);
        let aty = backproject(&y, &geom, 1.0);
        let lhs: f64 = ax
            .data
            .iter()
            .zip(y.data.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = x
            .data
            .iter()
            .zip(aty.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rel = (lhs - rhs).abs() / lhs.abs().max(1e-9);
        assert!(rel < 0.05, "adjoint mismatch: {lhs} vs {rhs} (rel {rel})");
    }

    #[test]
    fn empty_image_projects_to_zero() {
        let geom = Geometry::parallel_180(5, 16);
        let sino = forward_project(&Image::square(16), &geom);
        assert!(sino.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn backproject_scale_is_linear() {
        let geom = Geometry::parallel_180(6, 16);
        let mut sino = Sinogram::zeros(6, 16);
        sino.data.iter_mut().for_each(|v| *v = 1.0);
        let b1 = backproject(&sino, &geom, 1.0);
        let b2 = backproject(&sino, &geom, 2.0);
        assert!(b1.iter().any(|&v| v > 0.0));
        for (a, b) in b1.iter().zip(b2.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
    }

    #[test]
    fn disk_mask_zeroes_corners_keeps_center() {
        let mut img = Image::square(16);
        img.data.iter_mut().for_each(|v| *v = 1.0);
        apply_disk_mask(&mut img);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(15, 15), 0.0);
        assert_eq!(img.get(8, 8), 1.0);
    }
}
