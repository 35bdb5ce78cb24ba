//! Iterative reconstruction: SIRT.
//!
//! SIRT stands in for the "longer-running ... iterative algorithms"
//! behind the paper's high-quality file-based branch: slower than
//! FBP/gridrec but markedly better on noisy or angle-starved data.
//!
//! SIRT — the solver the file-based branch runs for 100 iterations per
//! slice — is the whole cost of that branch. [`IterPlan`] is the
//! scan-level plan for it: built once per `(Geometry, IterConfig)`, it
//! precomputes the row/column sums of the system matrix **and** a
//! per-ray sample table for the forward projector — every integer step
//! of every ray that can touch the image, stored as a flat
//! `(pixel index, fx, fy)` list, rays pre-clipped to the
//! reconstruction-disk chord (exact for SIRT: iterates are disk-masked,
//! so samples whose four neighbours lie outside the disk contribute
//! exactly zero).
//!
//! Every slice of a scan shares that table, the backprojection clip
//! intervals and the detector coordinates, so the kernel's **lanes are
//! slices**: [`IterPlan::sirt_batch_into`] advances `LANES = 4` slices
//! together, stored pixel-interleaved in the [`IterScratch`], and
//! spends each table sample, each coordinate solve and each interval
//! lookup once per batch instead of once per slice. Lanes never mix:
//! every lane performs exactly the arithmetic of a one-slice solve, so
//! a slice's bits do not depend on its batch, its lane or its
//! neighbours (`tests/plan_equivalence.rs` gates this against a
//! per-slice oracle with `assert_eq!`). One plan serves every worker
//! thread; per-thread state lives in the scratch.
//!
//! The pre-plan per-slice SIRT survives only as a test oracle, beside
//! the equivalence gates in `tests/`.

use crate::filter::FilterKind;
use crate::geometry::Geometry;
use crate::image::{Image, Sinogram};
use crate::plan::{FbpConfig, ReconPlan};
use crate::simd::{SimdPath, SLICE_LANES as LANES};
use crate::TomoError;
use serde::{Deserialize, Serialize};

/// Configuration of the SIRT solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterConfig {
    /// Number of outer iterations.
    pub iterations: usize,
    /// Relaxation factor. 1.0 is the textbook value; smaller is
    /// more stable on noisy data.
    pub relaxation: f64,
    /// Clamp negatives to zero after each iteration (attenuation is
    /// physically non-negative).
    pub nonneg: bool,
    /// Mask updates to the inscribed circle.
    pub mask_disk: bool,
}

impl Default for IterConfig {
    fn default() -> Self {
        IterConfig {
            iterations: 30,
            relaxation: 1.0,
            nonneg: true,
            mask_disk: true,
        }
    }
}

fn validate_cfg(cfg: &IterConfig) -> Result<(), TomoError> {
    if cfg.iterations == 0 {
        return Err(TomoError::BadParameter("iterations must be > 0".into()));
    }
    if cfg.relaxation <= 0.0 || cfg.relaxation > 2.0 {
        return Err(TomoError::BadParameter(format!(
            "relaxation {} outside (0, 2]",
            cfg.relaxation
        )));
    }
    Ok(())
}

/// Build SIRT's projector plan: no filtering, backprojection extents
/// matching the solver's disk mask. Amortizes the per-angle trig tables
/// across all iterations × angles.
fn projector_plan(geom: &Geometry, cfg: &IterConfig) -> Result<ReconPlan, TomoError> {
    ReconPlan::new(
        geom,
        &FbpConfig {
            filter: FilterKind::None,
            mask_disk: cfg.mask_disk,
        },
    )
}

/// One precomputed forward-projection sample: base pixel index plus the
/// bilinear fractions. 12 bytes, walked sequentially per ray.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RaySample {
    pub(crate) idx: u32,
    pub(crate) fx: f32,
    pub(crate) fy: f32,
}

/// Smallest `r` in `[lo, hi)` for which `cond` holds, assuming `cond` is
/// monotone false→true over the range (returns `hi` when none does).
fn lower_bound_i64(mut lo: i64, mut hi: i64, cond: impl Fn(i64) -> bool) -> i64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cond(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The forward-projection sample table of one geometry.
#[derive(Debug, Clone)]
struct RayTable {
    /// Flat sample list, rays concatenated in `(angle, detector)` order.
    samples: Vec<RaySample>,
    /// Per-ray `[start, end)` range into `samples`.
    ranges: Vec<(u32, u32)>,
}

impl RayTable {
    /// The samples of ray `a * n_det + t`.
    fn ray(&self, ray: usize) -> &[RaySample] {
        let (s0, s1) = self.ranges[ray];
        &self.samples[s0 as usize..s1 as usize]
    }
}

/// Scan-level plan of the Simultaneous Iterative Reconstruction
/// Technique. Update: `x ← x + λ · C · Aᵀ · R · (p − A x)` where `R` and
/// `C` normalize by row and column sums of the system matrix
/// (approximated with projections of a unit image).
///
/// The plan holds the projector plan, those row/column sums, and the
/// forward-projection sample table — everything the pre-plan per-slice
/// solver re-derived per slice (and, for the per-sample work, per
/// iteration).
#[derive(Debug, Clone)]
pub struct IterPlan {
    cfg: IterConfig,
    plan: ReconPlan,
    n: usize,
    n_angles: usize,
    table: RayTable,
    /// Per ray: forward projection of an all-ones image (system-matrix
    /// row sum), floored at 1e-6 — the residual's divisor.
    row_norm: Vec<f32>,
    /// Per pixel: backprojection of an all-ones sinogram (column sum),
    /// floored at 1e-6 — the update's divisor.
    col_norm: Vec<f32>,
}

/// Reusable per-thread buffers for plan-based SIRT: one batch of
/// `LANES` slices, pixel-interleaved (`buf[pixel * LANES + lane]`).
/// The residual rows carry the backprojector's sentinel column, so a
/// row is `(n_det + 1) * LANES` long.
#[derive(Debug, Clone)]
pub struct IterScratch {
    /// Current iterates.
    x4: Vec<f32>,
    /// Normalised residuals `(p − Ax) / R`, the backprojector's input.
    resid4: Vec<f32>,
    /// Backprojected residuals.
    update4: Vec<f32>,
}

impl IterPlan {
    /// Build the plan. The sample table enumerates, for every ray, the
    /// exact set of integer ray steps at which the reference projector's
    /// bilinear sample can be nonzero (`x ∈ [0, w−1)` and
    /// `y ∈ [0, h−1)`), found by binary search on the same float
    /// expressions the reference evaluates — so the table-driven forward
    /// sums the identical sample set, merely reassociated.
    ///
    /// Fails with [`TomoError::BadParameter`] when the table would not
    /// fit its `u32` offsets (≈ 0.785 · n² · angles samples).
    pub fn new(geom: &Geometry, cfg: &IterConfig) -> Result<IterPlan, TomoError> {
        validate_cfg(cfg)?;
        let plan = projector_plan(geom, cfg)?;
        let n = geom.n_det;
        let n_angles = geom.n_angles();
        let table = build_ray_table(geom, n, cfg.mask_disk)?;

        // Row sums: projection of an all-ones image (NOT disk-supported,
        // so it must use the unclipped reference projector); column
        // sums: backprojection of an all-ones sinogram.
        let mut ones_img = Image::square(n);
        ones_img.data.iter_mut().for_each(|v| *v = 1.0);
        let mut row_sums = Sinogram::zeros(n_angles, n);
        plan.forward_into(&ones_img, &mut row_sums);
        let mut ones_sino = Sinogram::zeros(n_angles, n);
        ones_sino.data.iter_mut().for_each(|v| *v = 1.0);
        let mut col_sums = vec![0.0f32; n * n];
        plan.backproject_acc(&ones_sino, 1.0, &mut plan.make_scratch(), &mut col_sums);

        let floor = |v: f32| v.max(1e-6);
        Ok(IterPlan {
            cfg: *cfg,
            plan,
            n,
            n_angles,
            table,
            row_norm: row_sums.data.into_iter().map(floor).collect(),
            col_norm: col_sums.into_iter().map(floor).collect(),
        })
    }

    /// Force a specific SIMD path (clamped to host capability) for the
    /// projector kernels. Used by the SIMD-vs-scalar gates.
    pub fn with_simd_path(mut self, path: SimdPath) -> IterPlan {
        self.plan = self.plan.with_simd_path(path);
        self
    }

    pub fn geometry(&self) -> &Geometry {
        self.plan.geometry()
    }

    /// Allocate the mutable buffers one worker thread needs. Create one
    /// per thread and reuse it for every batch that thread processes.
    pub fn make_scratch(&self) -> IterScratch {
        let image = self.n * self.n * LANES;
        IterScratch {
            x4: vec![0.0; image],
            resid4: vec![0.0; self.n_angles * (self.n + 1) * LANES],
            update4: vec![0.0; image],
        }
    }

    /// Table-driven forward projection of a square `n × n` pixel buffer.
    ///
    /// When the plan was built with `mask_disk`, rays are pre-clipped to
    /// the reconstruction-disk chord, so the result is only exact for
    /// images that are zero outside the disk (which SIRT iterates are).
    pub fn forward_into(&self, img: &[f32], sino: &mut Sinogram) {
        debug_assert_eq!(img.len(), self.n * self.n);
        debug_assert_eq!((sino.n_angles, sino.n_det), (self.n_angles, self.n));
        let w = self.n;
        for (ray, out) in sino.data.iter_mut().enumerate() {
            let chunk = self.table.ray(ray);
            let mut acc0 = 0.0f64;
            let mut acc1 = 0.0f64;
            let mut it = chunk.chunks_exact(2);
            for pair in &mut it {
                let a = pair[0];
                let b = pair[1];
                let ia = a.idx as usize;
                let ib = b.idx as usize;
                let (fxa, fya) = (a.fx as f64, a.fy as f64);
                let (fxb, fyb) = (b.fx as f64, b.fy as f64);
                let ta = img[ia] as f64 + fxa * (img[ia + 1] as f64 - img[ia] as f64);
                let ua = img[ia + w] as f64 + fxa * (img[ia + w + 1] as f64 - img[ia + w] as f64);
                acc0 += ta + fya * (ua - ta);
                let tb = img[ib] as f64 + fxb * (img[ib + 1] as f64 - img[ib] as f64);
                let ub = img[ib + w] as f64 + fxb * (img[ib + w + 1] as f64 - img[ib + w] as f64);
                acc1 += tb + fyb * (ub - tb);
            }
            for s in it.remainder() {
                let i = s.idx as usize;
                let (fx, fy) = (s.fx as f64, s.fy as f64);
                let t = img[i] as f64 + fx * (img[i + 1] as f64 - img[i] as f64);
                let u = img[i + w] as f64 + fx * (img[i + w + 1] as f64 - img[i + w] as f64);
                acc0 += t + fy * (u - t);
            }
            *out = (acc0 + acc1) as f32;
        }
    }

    /// SIRT-reconstruct one sinogram directly into a caller-provided
    /// `n × n` pixel buffer (e.g. a volume slice): a batch of one. The
    /// buffer is fully overwritten. Shapes must match the plan's
    /// geometry.
    pub fn sirt_into(&self, sino: &Sinogram, scratch: &mut IterScratch, out: &mut [f32]) {
        self.sirt_batch_into(std::slice::from_ref(sino), scratch, out);
    }

    /// SIRT-reconstruct consecutive slices: sinogram `i` lands in
    /// `out[i·n² .. (i+1)·n²]`, fully overwritten. Slices advance
    /// `LANES` at a time (the last batch padded with idle lanes), and
    /// every slice's result is bit-identical to solving it alone.
    /// Shapes must match the plan's geometry.
    pub fn sirt_batch_into(&self, sinos: &[Sinogram], scratch: &mut IterScratch, out: &mut [f32]) {
        let npix = self.n * self.n;
        assert_eq!(out.len(), sinos.len() * npix, "output buffer size mismatch");
        for (batch, out) in sinos.chunks(LANES).zip(out.chunks_mut(LANES * npix)) {
            self.sirt_lanes(batch, scratch, out);
        }
    }

    /// One batch of at most `LANES` slices through the interleaved
    /// kernel. Per iteration: one walk of the ray table (forward
    /// projection and normalised residual of every lane), one
    /// backprojection sweep, one relaxed update over the row extents.
    fn sirt_lanes(&self, sinos: &[Sinogram], scratch: &mut IterScratch, out: &mut [f32]) {
        let (n, npix) = (self.n, self.n * self.n);
        debug_assert!((1..=LANES).contains(&sinos.len()));
        for sino in sinos {
            assert_eq!(
                (sino.n_angles, sino.n_det),
                (self.n_angles, n),
                "sinogram shape does not match the plan geometry"
            );
        }
        let IterScratch {
            x4,
            resid4,
            update4,
        } = scratch;
        let path = self.plan.simd_path();
        x4.fill(0.0);
        resid4.fill(0.0); // the sentinel column stays 0; the rest is rewritten

        let relax = self.cfg.relaxation as f32;
        for _ in 0..self.cfg.iterations {
            // interleaved rows carry one extra (sentinel) detector bin
            for (a, r4) in resid4.chunks_exact_mut((n + 1) * LANES).enumerate() {
                for (t, bin) in r4.chunks_exact_mut(LANES).take(n).enumerate() {
                    let ray = a * n + t;
                    let fwd = crate::simd::ray_sums_lanes(path, self.table.ray(ray), n, x4);
                    let r = self.row_norm[ray];
                    for (l, v) in bin.iter_mut().enumerate() {
                        // idle lanes solve the zero sinogram and stay
                        // exactly zero
                        let p = sinos.get(l).map_or(0.0, |s| s.data[ray]);
                        *v = (p - fwd[l]) / r;
                    }
                }
            }
            update4.fill(0.0);
            self.plan.backproject_lanes(resid4, update4);
            // pixels outside the row extents (the disk mask) are never
            // written: they keep the 0.0 the mask would set
            for (y, &(x0, x1)) in self.plan.row_extents().iter().enumerate() {
                let (p0, p1) = (y * n + x0, y * n + x1);
                let xs = x4[p0 * LANES..p1 * LANES].chunks_exact_mut(LANES);
                let us = update4[p0 * LANES..p1 * LANES].chunks_exact(LANES);
                for ((xv, uv), &c) in xs.zip(us).zip(&self.col_norm[p0..p1]) {
                    for l in 0..LANES {
                        let v = xv[l] + relax * uv[l] / c;
                        xv[l] = if self.cfg.nonneg && v < 0.0 { 0.0 } else { v };
                    }
                }
            }
        }

        for (l, slice) in out.chunks_exact_mut(npix).enumerate() {
            for (o, px) in slice.iter_mut().zip(x4.chunks_exact(LANES)) {
                *o = px[l];
            }
        }
    }

    /// SIRT-reconstruct one sinogram, returning a fresh image. Validates
    /// shapes.
    pub fn sirt_slice_with(
        &self,
        sino: &Sinogram,
        scratch: &mut IterScratch,
    ) -> Result<Image, TomoError> {
        self.geometry().validate(sino.n_angles, sino.n_det)?;
        let mut img = Image::square(self.n);
        self.sirt_into(sino, scratch, &mut img.data);
        Ok(img)
    }
}

/// One ray of the forward-projection table: the foot `(bx, by)` of the
/// perpendicular from the image centre and the ray direction. `x_of` /
/// `y_of` are the same float expressions the reference projector
/// evaluates per sample; both are weakly monotone in `r`.
#[derive(Clone, Copy)]
struct Ray {
    bx: f64,
    by: f64,
    sin_t: f64,
    cos_t: f64,
}

impl Ray {
    fn x_of(&self, r: i64) -> f64 {
        self.bx - r as f64 * self.sin_t
    }

    fn y_of(&self, r: i64) -> f64 {
        self.by + r as f64 * self.cos_t
    }
}

/// The half-open range `[ra, rb)` of integer ray steps whose bilinear
/// sample can be nonzero on an `n × n` image (empty: `ra >= rb`).
fn ray_steps(ray: &Ray, s: f64, n: usize, disk_clip: bool) -> (i64, i64) {
    let last = n as f64 - 1.0;
    let half_len = (((n * n + n * n) as f64).sqrt() / 2.0).ceil() as i64;
    let mut lo = -half_len;
    let mut hi = half_len + 1;
    if disk_clip {
        // Disk-chord clip radius: a bilinear sample can only be nonzero
        // on a disk-supported image if it lies within √2 of some
        // in-disk pixel, so clip at the disk radius plus a 1.5-pixel
        // safety margin. `bx,by` is the foot of the perpendicular from
        // the image center, so the chord |ray ∩ disk| is symmetric
        // around r = 0: r² ≤ r_disk² − s².
        let r_disk = (n as f64 / 2.0 - 1.0) + 1.5;
        let disc = r_disk * r_disk - s * s;
        if disc < 0.0 {
            return (0, 0);
        }
        let q = disc.sqrt();
        lo = lo.max((-q).floor() as i64 - 1);
        hi = hi.min(q.ceil() as i64 + 2);
    }
    // x(r) ∈ [0, last): a single r-interval per predicate because x(r)
    // is monotone (affine map, monotone rounding).
    let (xa, xb) = if ray.sin_t > 0.0 {
        (
            lower_bound_i64(lo, hi, |r| ray.x_of(r) < last),
            lower_bound_i64(lo, hi, |r| ray.x_of(r) < 0.0),
        )
    } else if ray.sin_t < 0.0 {
        (
            lower_bound_i64(lo, hi, |r| ray.x_of(r) >= 0.0),
            lower_bound_i64(lo, hi, |r| ray.x_of(r) >= last),
        )
    } else if ray.bx >= 0.0 && ray.bx < last {
        (lo, hi)
    } else {
        (lo, lo)
    };
    let (ya, yb) = if ray.cos_t > 0.0 {
        (
            lower_bound_i64(lo, hi, |r| ray.y_of(r) >= 0.0),
            lower_bound_i64(lo, hi, |r| ray.y_of(r) >= last),
        )
    } else if ray.cos_t < 0.0 {
        (
            lower_bound_i64(lo, hi, |r| ray.y_of(r) < last),
            lower_bound_i64(lo, hi, |r| ray.y_of(r) < 0.0),
        )
    } else if ray.by >= 0.0 && ray.by < last {
        (lo, hi)
    } else {
        (lo, lo)
    };
    (xa.max(ya), xb.min(yb))
}

/// Per-ray `[start, end)` offsets into the flat sample table from the
/// per-ray sample counts. The table indexes itself with `u32`, so a
/// table past 2³² samples is refused here — before it is allocated —
/// instead of wrapping and projecting along the wrong samples.
fn checked_ranges(counts: &[usize]) -> Result<Vec<(u32, u32)>, TomoError> {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    if total > u32::MAX as u64 {
        return Err(TomoError::BadParameter(format!(
            "SIRT ray table needs {total} samples ({} GiB), over the {} its u32 offsets can address; bin the detector or drop angles",
            (total * std::mem::size_of::<RaySample>() as u64) >> 30,
            u32::MAX
        )));
    }
    let mut at = 0u32;
    Ok(counts
        .iter()
        .map(|&c| {
            let start = at;
            at += c as u32; // cannot wrap: the sum was checked above
            (start, at)
        })
        .collect())
}

/// Enumerate the forward-projection sample table for every `(angle,
/// detector)` ray of the geometry over a square `n × n` image.
fn build_ray_table(geom: &Geometry, n: usize, disk_clip: bool) -> Result<RayTable, TomoError> {
    let c = (n as f64 - 1.0) / 2.0;
    let rays: Vec<(Ray, i64, i64)> = geom
        .angles
        .iter()
        .flat_map(|&theta| {
            let (sin_t, cos_t) = theta.sin_cos();
            (0..geom.n_det).map(move |t| {
                let s = t as f64 - geom.center;
                let ray = Ray {
                    bx: c + s * cos_t,
                    by: c + s * sin_t,
                    sin_t,
                    cos_t,
                };
                let (ra, rb) = ray_steps(&ray, s, n, disk_clip);
                (ray, ra, rb.max(ra))
            })
        })
        .collect();
    let counts: Vec<usize> = rays.iter().map(|&(_, ra, rb)| (rb - ra) as usize).collect();
    let ranges = checked_ranges(&counts)?;
    let mut samples = Vec::with_capacity(counts.iter().sum());
    for &(ray, ra, rb) in &rays {
        for r in ra..rb {
            let x = ray.x_of(r);
            let y = ray.y_of(r);
            let ix = x as usize;
            let iy = y as usize;
            samples.push(RaySample {
                idx: (iy * n + ix) as u32,
                fx: (x - ix as f64) as f32,
                fy: (y - iy as f64) as f32,
            });
        }
    }
    Ok(RayTable { samples, ranges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radon::{apply_disk_mask, forward_project, in_recon_disk};

    fn sirt(sino: &Sinogram, geom: &Geometry, cfg: &IterConfig) -> Result<Image, TomoError> {
        let plan = IterPlan::new(geom, cfg)?;
        plan.sirt_slice_with(sino, &mut plan.make_scratch())
    }

    fn two_disk_phantom(n: usize) -> Image {
        let mut img = Image::square(n);
        let c = (n as f64 - 1.0) / 2.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - c;
                let dy = y as f64 - c;
                if ((dx + 6.0).powi(2) + dy * dy).sqrt() < n as f64 * 0.15 {
                    img.set(x, y, 1.0);
                }
                if ((dx - 7.0).powi(2) + (dy - 3.0).powi(2)).sqrt() < n as f64 * 0.1 {
                    img.set(x, y, 0.5);
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
    fn sirt_converges_toward_truth() {
        let n = 32;
        let truth = two_disk_phantom(n);
        let geom = Geometry::parallel_180(40, n);
        let sino = forward_project(&truth, &geom);
        let cfg5 = IterConfig {
            iterations: 5,
            ..Default::default()
        };
        let cfg40 = IterConfig {
            iterations: 40,
            ..Default::default()
        };
        let r5 = sirt(&sino, &geom, &cfg5).unwrap();
        let r40 = sirt(&sino, &geom, &cfg40).unwrap();
        let e5 = rmse_in_disk(&r5, &truth);
        let e40 = rmse_in_disk(&r40, &truth);
        assert!(
            e40 < e5,
            "SIRT should improve with iterations: {e5} -> {e40}"
        );
        assert!(e40 < 0.12, "SIRT final error too high: {e40}");
    }

    #[test]
    fn sirt_beats_fbp_with_few_angles() {
        // angle-starved acquisition is where iterative methods shine
        let n = 32;
        let truth = two_disk_phantom(n);
        let geom = Geometry::parallel_180(14, n);
        let sino = forward_project(&truth, &geom);
        let sirt = sirt(
            &sino,
            &geom,
            &IterConfig {
                iterations: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let fbp = plan
            .fbp_slice_with(&sino, &mut plan.make_scratch())
            .unwrap();
        let e_sirt = rmse_in_disk(&sirt, &truth);
        let e_fbp = rmse_in_disk(&fbp, &truth);
        assert!(
            e_sirt < e_fbp,
            "SIRT ({e_sirt}) should beat FBP ({e_fbp}) at 14 angles"
        );
    }

    #[test]
    fn plan_forward_matches_reference_on_disk_supported_image() {
        let n = 40;
        let mut img = two_disk_phantom(n);
        apply_disk_mask(&mut img);
        let geom = Geometry::parallel_180(33, n);
        let cfg = IterConfig::default();
        let plan = IterPlan::new(&geom, &cfg).unwrap();
        let reference = forward_project(&img, &geom);
        let mut fast = Sinogram::zeros(geom.n_angles(), n);
        plan.forward_into(&img.data, &mut fast);
        for (i, (&a, &b)) in reference.data.iter().zip(fast.data.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "ray {i}: reference {a} vs table {b}");
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let n = 32;
        let truth = two_disk_phantom(n);
        let geom = Geometry::parallel_180(20, n);
        let sino = forward_project(&truth, &geom);
        let cfg = IterConfig {
            iterations: 10,
            ..Default::default()
        };
        let plan = IterPlan::new(&geom, &cfg).unwrap();
        let mut scratch = plan.make_scratch();
        let a = plan.sirt_slice_with(&sino, &mut scratch).unwrap();
        let b = plan.sirt_slice_with(&sino, &mut scratch).unwrap();
        assert_eq!(a, b, "dirty scratch must not leak into the next slice");
    }

    #[test]
    fn ray_table_past_u32_offsets_is_refused_not_wrapped() {
        // per-ray counts only: the table itself is never allocated
        let fits = checked_ranges(&[5, 0, u32::MAX as usize - 5]).unwrap();
        assert_eq!(fits, vec![(0, 5), (5, 5), (5, u32::MAX)]);
        let err = checked_ranges(&[1 << 31, 7, 1 << 31]).unwrap_err();
        match err {
            TomoError::BadParameter(msg) => {
                assert!(msg.contains("4294967303 samples"), "{msg}");
                assert!(msg.contains("48 GiB"), "{msg}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sirt_batch_matches_slice_at_a_time() {
        let n = 24;
        let truth = two_disk_phantom(n);
        let geom = Geometry::parallel_180(13, n);
        let base = forward_project(&truth, &geom);
        let sinos: Vec<Sinogram> = (0..6)
            .map(|z| {
                let mut s = base.clone();
                s.data.iter_mut().for_each(|v| *v *= 1.0 + 0.2 * z as f32);
                s
            })
            .collect();
        let cfg = IterConfig {
            iterations: 6,
            ..Default::default()
        };
        let plan = IterPlan::new(&geom, &cfg).unwrap();
        let mut scratch = plan.make_scratch();
        let mut batch = vec![f32::NAN; 6 * n * n];
        plan.sirt_batch_into(&sinos, &mut scratch, &mut batch);
        for (z, got) in batch.chunks_exact(n * n).enumerate() {
            let alone = plan.sirt_slice_with(&sinos[z], &mut scratch).unwrap();
            assert_eq!(alone.data.as_slice(), got, "slice {z}");
        }
    }

    #[test]
    fn bad_config_is_rejected() {
        let geom = Geometry::parallel_180(4, 8);
        let sino = Sinogram::zeros(4, 8);
        let zero_iter = IterConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(sirt(&sino, &geom, &zero_iter).is_err());
        assert!(IterPlan::new(&geom, &zero_iter).is_err());
        let bad_relax = IterConfig {
            relaxation: 3.0,
            ..Default::default()
        };
        assert!(sirt(&sino, &geom, &bad_relax).is_err());
    }

    #[test]
    fn zero_sinogram_reconstructs_to_zero() {
        let geom = Geometry::parallel_180(8, 16);
        let sino = Sinogram::zeros(8, 16);
        let rec = sirt(&sino, &geom, &IterConfig::default()).unwrap();
        assert!(rec.data.iter().all(|&v| v.abs() < 1e-6));
    }
}
