//! Plan-and-scratch reconstruction engine.
//!
//! The paper's streaming branch lives on kernel speed: `streamtomocupy`
//! keeps persistent cuFFT plans and GPU scratch buffers for the whole
//! acquisition, so the per-scan work is *only* the FFTs and the
//! gather/scatter — nothing is re-derived per slice. This module is the
//! CPU analogue. A [`ReconPlan`] is built once per `(Geometry,
//! FbpConfig)` and owns everything that is invariant across slices:
//!
//! * the padded ramp-filter frequency response (previously rebuilt — and
//!   re-FFT'd — once per `filter_sinogram` call, i.e. once per slice);
//! * an [`FftPlan`] with precomputed twiddle and bit-reversal tables;
//! * per-angle `(sin θ, cos θ)` tables;
//! * per-row disk-mask extents, so backprojection never touches pixels
//!   the mask would zero anyway.
//!
//! Per-thread mutable state lives in a [`ReconScratch`] (one padded
//! complex FFT buffer, the backprojector's prescaled rows and one
//! accumulator tile), created once per worker via
//! [`ReconPlan::make_scratch`] and reused across batches of slices.
//!
//! Four kernel-level optimisations ride on the plan:
//!
//! * **packed real FFT filtering** — the ramp response is real and
//!   symmetric, so two real sinogram rows are packed into one complex
//!   signal (`row_a + i·row_b`), filtered with a single FFT round trip,
//!   and unpacked from the real/imaginary parts. Linearity of the FFT
//!   and the realness of the filter make this exact; it halves the FFT
//!   work per sinogram.
//! * **interval-clipped backprojection** — `t = x·cosθ + y·sinθ +
//!   center` is affine in `x`, so the valid `x` range (where `t` lands
//!   on the detector *and* inside the disk mask) is a single interval
//!   per `(angle, row)` pair. Those intervals are slice-independent, so
//!   the plan precomputes all of them at build time and the hot loop
//!   carries neither bounds checks nor the per-row binary search.
//! * **SIMD row kernels with cache-blocked tiling** — the fused-lerp
//!   inner loop runs through [`crate::simd::backproject_row`] (8 f32
//!   lanes per iteration on AVX2/FMA hosts, lane-chunked scalar
//!   fallback elsewhere), and the angle sweep is tiled over blocks of
//!   output rows so the block being accumulated stays in L1/L2 while
//!   every sinogram row streams over it once per tile.
//! * **slices as lanes** — the clip intervals and detector coordinates
//!   are the same for every slice of a scan, so
//!   [`ReconPlan::fbp_batch_into`] backprojects `SLICE_LANES` slices
//!   together, pixel-interleaved, through
//!   [`crate::simd::backproject_row_lanes`]: one interval walk and one
//!   coordinate solve per batch, two contiguous 128-bit loads per pixel
//!   instead of a gather. Every lane repeats the per-slice kernel's
//!   arithmetic exactly, so a slice's bits do not depend on its batch.
//!
//! [`FbpAccumulator`] runs the same filter pairing and lane kernel over
//! the plan's tables one arriving projection angle at a time, for the
//! streaming service that reconstructs while the scan is acquired.
//!
//! The pre-plan implementations live on only as test oracles, in
//! `tests/reference/` beside the equivalence gates that compare against
//! them.

use crate::fft::{next_pow2, Complex, FftPlan};
use crate::filter::{FilterKind, FilterPlan};
use crate::geometry::Geometry;
use crate::gridrec::{signed_index, GridrecConfig};
use crate::image::{Image, Sinogram, Volume};
use crate::radon::in_recon_disk;
use crate::simd::SLICE_LANES;
use crate::TomoError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration for filtered back projection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FbpConfig {
    /// Apodizing window.
    pub filter: FilterKind,
    /// Mask the reconstruction to the inscribed circle.
    pub mask_disk: bool,
}

impl Default for FbpConfig {
    fn default() -> Self {
        FbpConfig {
            filter: FilterKind::SheppLogan,
            mask_disk: true,
        }
    }
}

/// Everything invariant across slices for filtered back projection of a
/// fixed `(Geometry, FbpConfig)` pair.
#[derive(Debug, Clone)]
pub struct ReconPlan {
    geom: Geometry,
    /// Cached padded filter response + FFT twiddle tables.
    filter: FilterPlan,
    /// `(sin θ, cos θ)` per projection angle.
    trig: Vec<(f64, f64)>,
    /// Per output row `y`: the half-open pixel range `[x0, x1)` to
    /// reconstruct (disk-mask extent, or the full row when unmasked).
    extents: Vec<(usize, usize)>,
    /// Per `(angle, row)` pair (index `a * n_det + y`): the half-open
    /// pixel range whose detector coordinate lands on the detector,
    /// already intersected with the row extent. Slice-independent, so
    /// the per-row binary search runs once at build time instead of
    /// once per backprojected row.
    intervals: Vec<(u32, u32)>,
    /// Backprojection weight `π / n_angles`.
    scale: f64,
    /// Which SIMD kernels the hot loops dispatch to.
    path: crate::simd::SimdPath,
}

/// Reusable per-thread buffers for plan-based reconstruction.
#[derive(Debug, Clone)]
pub struct ReconScratch {
    /// Padded complex FFT staging buffer (`pad` long).
    cbuf: Vec<Complex>,
    /// Prescaled f32 projection rows feeding the backprojection
    /// kernels, one sentinel `0.0` bin per row. Sized for a lane batch
    /// (`rows[(a·(n_det+1) + t)·SLICE_LANES + lane]`); the one-slice
    /// kernel uses the first `n_angles × (n_det + 1)` entries and never
    /// touches the rest.
    rowsf: Vec<f32>,
    /// One interleaved accumulator tile of the lane kernel
    /// (`tile_rows × n_det × SLICE_LANES`), de-interleaved into the
    /// output slices while it is cache-hot.
    tile: Vec<f32>,
}

impl ReconPlan {
    /// Build a plan. Fails when the geometry is degenerate (no angles,
    /// rotation center off the detector).
    pub fn new(geom: &Geometry, cfg: &FbpConfig) -> Result<ReconPlan, TomoError> {
        if geom.n_angles() == 0 {
            return Err(TomoError::BadParameter("no projection angles".into()));
        }
        geom.validate(geom.n_angles(), geom.n_det)?;
        let n = geom.n_det;
        let trig: Vec<(f64, f64)> = geom.angles.iter().map(|&t| t.sin_cos()).collect();
        let extents: Vec<(usize, usize)> = (0..n)
            .map(|y| {
                if !cfg.mask_disk {
                    return (0, n);
                }
                let x0 = (0..n).find(|&x| in_recon_disk(x, y, n));
                match x0 {
                    None => (0, 0),
                    Some(x0) => {
                        let x1 = (x0..n).take_while(|&x| in_recon_disk(x, y, n)).count() + x0;
                        (x0, x1)
                    }
                }
            })
            .collect();
        let intervals = build_intervals(&trig, &extents, n, geom.center);
        Ok(ReconPlan {
            geom: geom.clone(),
            filter: FilterPlan::new(cfg.filter, n),
            trig,
            extents,
            intervals,
            scale: std::f64::consts::PI / geom.n_angles() as f64,
            path: crate::simd::detect(),
        })
    }

    /// Force a specific SIMD path (clamped to host capability) for the
    /// backprojection kernel, the filter multiply, and the embedded FFT
    /// plan. Used by the benches and the SIMD-vs-scalar gates.
    pub fn with_simd_path(mut self, path: crate::simd::SimdPath) -> ReconPlan {
        self.path = path.clamp_to_host();
        self.filter = self.filter.with_simd_path(path);
        self
    }

    /// Which SIMD path the hot loops dispatch to.
    pub fn simd_path(&self) -> crate::simd::SimdPath {
        self.path
    }

    /// Per output row `y`: the half-open pixel range `[x0, x1)` the
    /// plan reconstructs (disk-mask extent, or the full row unmasked).
    pub fn row_extents(&self) -> &[(usize, usize)] {
        &self.extents
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Allocate the mutable buffers one worker thread needs. Create one
    /// per thread and reuse it for every slice that thread processes.
    pub fn make_scratch(&self) -> ReconScratch {
        let n = self.geom.n_det;
        ReconScratch {
            cbuf: self.filter.make_buf(),
            rowsf: vec![0.0; self.geom.n_angles() * (n + 1) * SLICE_LANES],
            tile: vec![0.0; tile_rows(n * SLICE_LANES) * n * SLICE_LANES],
        }
    }

    /// Accumulate the backprojection of `sino` into `out` (`n_det²`
    /// pixels, row-major), weighting every angle by `scale`. Pixels
    /// outside the plan's row extents are untouched. The prescaled rows
    /// are staged in `scratch`, so a solver calling this once per
    /// iteration allocates nothing.
    pub fn backproject_acc(
        &self,
        sino: &Sinogram,
        scale: f64,
        scratch: &mut ReconScratch,
        out: &mut [f32],
    ) {
        let rowsf = &mut scratch.rowsf[..sino.n_angles * (sino.n_det + 1)];
        prescale_sino(sino, scale, rowsf);
        self.backproject_tiled(1, rowsf, out, crate::simd::backproject_row);
    }

    /// The backprojection of `SLICE_LANES` pixel-interleaved slices at
    /// once (`rows4[(a·(n_det+1) + t)·L + lane]`, sentinel column
    /// included), accumulated into `out4[pixel·L + lane]`: every
    /// `(angle, row)` interval and detector coordinate is solved once
    /// per batch of slices instead of once per slice.
    pub(crate) fn backproject_lanes(&self, rows4: &[f32], out4: &mut [f32]) {
        self.backproject_tiled(SLICE_LANES, rows4, out4, crate::simd::backproject_row_lanes);
    }

    /// Accumulate the whole backprojection into a resident image,
    /// `lanes` values per pixel and detector bin, one row tile after
    /// another ([`ReconPlan::backproject_rows`]).
    fn backproject_tiled(
        &self,
        lanes: usize,
        rowsf: &[f32],
        out: &mut [f32],
        row_kernel: impl Fn(crate::simd::SimdPath, &[f32], f64, f64, &mut [f32]),
    ) {
        let n = self.geom.n_det;
        assert_eq!(out.len(), n * n * lanes, "output buffer size mismatch");
        for rows in row_tiles(n, lanes) {
            let acc = &mut out[rows.start * n * lanes..rows.end * n * lanes];
            self.backproject_rows(lanes, rowsf, rows, acc, &row_kernel);
        }
    }

    /// The backprojection sweep shared by the per-slice and the
    /// slice-interleaved kernels, restricted to one tile of output rows:
    /// `acc` holds output rows `rows`, row `rows.start` first, `lanes`
    /// values per pixel. Every angle is accumulated into it in ascending
    /// order, so the tile stays cache-resident while each projection
    /// row streams over it once and the result is numerically identical
    /// to the untiled sweep.
    fn backproject_rows(
        &self,
        lanes: usize,
        rowsf: &[f32],
        rows: std::ops::Range<usize>,
        acc: &mut [f32],
        row_kernel: impl Fn(crate::simd::SimdPath, &[f32], f64, f64, &mut [f32]),
    ) {
        let n = self.geom.n_det;
        let stride = (n + 1) * lanes;
        assert_eq!(acc.len(), rows.len() * n * lanes, "tile size mismatch");
        assert_eq!(
            rowsf.len(),
            self.trig.len() * stride,
            "projection rows do not match the plan geometry"
        );
        for (a, rowf) in rowsf.chunks_exact(stride).enumerate() {
            self.backproject_angle_rows(lanes, a, rowf, rows.clone(), acc, &row_kernel);
        }
    }

    /// One projection angle (index `a` of the plan's geometry, `rowf`
    /// its prescaled row with the sentinel bin) accumulated into the
    /// tile `acc` of output rows `rows`. The detector coordinate has the
    /// same float association as the interval predicate, so the kernel
    /// never starts outside `[0, n_det − 1]`.
    #[inline]
    fn backproject_angle_rows(
        &self,
        lanes: usize,
        a: usize,
        rowf: &[f32],
        rows: std::ops::Range<usize>,
        acc: &mut [f32],
        row_kernel: impl Fn(crate::simd::SimdPath, &[f32], f64, f64, &mut [f32]),
    ) {
        let n = self.geom.n_det;
        let c = (n as f64 - 1.0) / 2.0;
        let (sin_t, cos_t) = self.trig[a];
        let ivals = &self.intervals[a * n + rows.start..a * n + rows.end];
        for (dy, &(xa, xb)) in ivals.iter().enumerate() {
            let (xa, xb) = (xa as usize, xb as usize);
            if xa >= xb {
                continue;
            }
            let yr = (rows.start + dy) as f64 - c;
            let t0 = (xa as f64 - c) * cos_t + (yr * sin_t + self.geom.center);
            row_kernel(
                self.path,
                rowf,
                t0,
                cos_t,
                &mut acc[(dy * n + xa) * lanes..(dy * n + xb) * lanes],
            );
        }
    }

    /// Filtered back projection of one sinogram directly into a
    /// caller-provided `n_det × n_det` pixel buffer (e.g. a volume
    /// slice): a batch of one. The buffer is fully overwritten. Shapes
    /// must match the plan's geometry.
    pub fn fbp_slice_into(&self, sino: &Sinogram, scratch: &mut ReconScratch, out: &mut [f32]) {
        self.fbp_batch_into(std::slice::from_ref(sino), scratch, out);
    }

    /// Filtered back projection of consecutive slices: sinogram `i`
    /// lands in `out[i·n² .. (i+1)·n²]`, fully overwritten. Slices are
    /// backprojected `SLICE_LANES` at a time through the interleaved
    /// kernel; a batch with a single live slice takes the one-slice
    /// kernel instead of paying for idle lanes. Either way every slice's
    /// result is bit-identical to reconstructing it alone. Shapes must
    /// match the plan's geometry.
    pub fn fbp_batch_into(&self, sinos: &[Sinogram], scratch: &mut ReconScratch, out: &mut [f32]) {
        let npix = self.geom.n_det * self.geom.n_det;
        assert_eq!(out.len(), sinos.len() * npix, "output buffer size mismatch");
        let batches = sinos.chunks(SLICE_LANES);
        for (batch, out) in batches.zip(out.chunks_mut(SLICE_LANES * npix)) {
            self.fbp_lanes(batch, scratch, out);
        }
    }

    /// One batch of at most `SLICE_LANES` slices: filter each (packed
    /// two-row FFT) straight into the backprojector's prescaled rows,
    /// then one backprojection sweep for the whole batch.
    fn fbp_lanes(&self, sinos: &[Sinogram], scratch: &mut ReconScratch, out: &mut [f32]) {
        let (n, n_angles) = (self.geom.n_det, self.geom.n_angles());
        let lanes = if sinos.len() == 1 { 1 } else { SLICE_LANES };
        let ReconScratch { cbuf, rowsf, tile } = scratch;
        let rowsf = &mut rowsf[..n_angles * (n + 1) * lanes];
        // lanes without a slice keep whatever the scratch held: lanes
        // never mix and theirs are not read back
        for (lane, sino) in sinos.iter().enumerate() {
            assert_eq!(
                (sino.n_angles, sino.n_det),
                (n_angles, n),
                "sinogram shape does not match the plan geometry"
            );
            // the angle weight is applied in f64 and rounded once, so
            // the inner loop pays no per-pixel scale multiply
            self.filter.filter_rows_with(sino, cbuf, |a, t, v| {
                rowsf[(a * (n + 1) + t) * lanes + lane] = (v as f64 * self.scale) as f32;
            });
            for a in 0..n_angles {
                rowsf[(a * (n + 1) + n) * lanes + lane] = 0.0;
            }
        }
        if lanes == 1 {
            out.fill(0.0);
            self.backproject_tiled(1, rowsf, out, crate::simd::backproject_row);
            return;
        }
        // one L1-resident interleaved tile at a time, handed to the
        // output slices while it is hot — no n²×lanes image per worker
        for rows in row_tiles(n, lanes) {
            let acc = &mut tile[..rows.len() * n * lanes];
            acc.fill(0.0);
            self.backproject_rows(
                lanes,
                rowsf,
                rows.clone(),
                acc,
                crate::simd::backproject_row_lanes,
            );
            for (lane, slice) in out.chunks_exact_mut(n * n).enumerate() {
                let dst = &mut slice[rows.start * n..rows.end * n];
                for (o, px) in dst.iter_mut().zip(acc.chunks_exact(lanes)) {
                    *o = px[lane];
                }
            }
        }
    }

    /// Filtered back projection of one sinogram, returning a fresh
    /// image. Validates shapes.
    pub fn fbp_slice_with(
        &self,
        sino: &Sinogram,
        scratch: &mut ReconScratch,
    ) -> Result<Image, TomoError> {
        self.geom.validate(sino.n_angles, sino.n_det)?;
        let n = self.geom.n_det;
        let mut img = Image::square(n);
        self.fbp_slice_into(sino, scratch, &mut img.data);
        Ok(img)
    }

    /// Reconstruct a stack of sinograms directly into a [`Volume`],
    /// one lane batch of slices per work item, one scratch per worker
    /// thread and no intermediate `Vec<Image>` copy.
    pub fn fbp_volume(&self, sinos: &[Sinogram]) -> Result<Volume, TomoError> {
        if sinos.is_empty() {
            return Err(TomoError::BadParameter("empty sinogram stack".into()));
        }
        for s in sinos {
            self.geom.validate(s.n_angles, s.n_det)?;
        }
        let n = self.geom.n_det;
        let mut vol = Volume::zeros(n, n, sinos.len());
        vol.data
            .par_chunks_mut(SLICE_LANES * n * n)
            .enumerate()
            .for_each_init(
                || self.make_scratch(),
                |scratch, (i, slices)| {
                    let z0 = i * SLICE_LANES;
                    let batch = &sinos[z0..sinos.len().min(z0 + SLICE_LANES)];
                    self.fbp_batch_into(batch, scratch, slices)
                },
            );
        Ok(vol)
    }

    /// Forward-project `img` into `sino` using the plan's trig tables:
    /// the one-lane case of the [`crate::radon`] projector kernel.
    pub fn forward_into(&self, img: &Image, sino: &mut Sinogram) {
        debug_assert_eq!(sino.n_angles, self.geom.n_angles());
        debug_assert_eq!(sino.n_det, self.geom.n_det);
        let dims = (img.width, img.height);
        for (a, &(sin_t, cos_t)) in self.trig.iter().enumerate() {
            let row = sino.row_mut(a);
            crate::radon::project_angle_lanes::<1>(
                dims,
                &img.data,
                self.geom.center,
                sin_t,
                cos_t,
                row,
            );
        }
    }
}

/// Filtered back projection of a scan whose projections arrive one
/// angle at a time — every slice's row of that angle at once, the way a
/// detector frame delivers them — so the reconstruction is spent while
/// the scan is still being acquired. The plan's last angle flushes what
/// is still pending, so [`FbpAccumulator::finish`] of a complete scan
/// only hands the running volume out, as a [`LaneVolume`].
///
/// FBP is linear in the angles: the volume is the sum over angles of
/// each filtered row smeared across the image. The accumulator keeps
/// that running sum lane-interleaved ([`SLICE_LANES`] slices per pixel,
/// as [`ReconPlan::fbp_batch_into`] does per tile) and feeds it in
/// arrival order: angles are filtered two per packed FFT exactly as
/// [`FilterPlan::filter_rows_with`] pairs them (first with second
/// pushed, third with fourth, a lone last one unpacked), weighted by the
/// plan's `π / n_angles` in f64 and rounded once, and backprojected
/// through [`crate::simd::backproject_row_lanes`] a few angles per
/// row-tile sweep. Every pixel therefore receives the same adds in the
/// same order as in [`ReconPlan::fbp_volume`] of the sinograms with the
/// pushed angles as their rows: pushing every angle of the plan in plan
/// order gives that volume bit for bit.
///
/// Angles may be skipped or repeated. The plan's weight assumes all of
/// its angles, so the finished slices are rescaled by `n_angles / pushed`
/// (one f32 multiply per voxel, exactly `1.0` for a complete scan).
pub struct FbpAccumulator {
    plan: Arc<ReconPlan>,
    n_slices: usize,
    /// The running volume: one pixel-interleaved `n² × SLICE_LANES`
    /// image per lane batch of slices.
    vol4: Vec<f32>,
    /// The caller's rows of the next angle (`n_slices × n_det`).
    staged: Vec<f32>,
    /// Rows of the angle waiting for its FFT partner, and its plan index.
    held: Vec<f32>,
    held_angle: Option<usize>,
    /// Filtered, prescaled rows of the angles not yet backprojected,
    /// `pending[((batch·K + k)·(n_det+1) + t)·L + lane]` with `K` =
    /// [`FbpAccumulator::SWEEP_ANGLES`]. Allocated zeroed and only bins
    /// `t < n_det` of live lanes are ever written, so the sentinel bins
    /// stay `0.0` and idle lanes accumulate zeros.
    pending: Vec<f32>,
    /// Plan indices of the pending angles, in arrival order.
    pending_angles: Vec<usize>,
    cbuf: Vec<Complex>,
    pushed: usize,
}

impl FbpAccumulator {
    /// An empty accumulator for `n_slices` slices of `plan`'s geometry.
    pub fn new(plan: Arc<ReconPlan>, n_slices: usize) -> FbpAccumulator {
        let n = plan.geom.n_det;
        let batches = n_slices.div_ceil(SLICE_LANES);
        FbpAccumulator {
            n_slices,
            vol4: vec![0.0; batches * n * n * SLICE_LANES],
            staged: vec![0.0; n_slices * n],
            held: vec![0.0; n_slices * n],
            held_angle: None,
            pending: vec![0.0; batches * Self::SWEEP_ANGLES * (n + 1) * SLICE_LANES],
            pending_angles: Vec::with_capacity(Self::SWEEP_ANGLES),
            cbuf: plan.filter.make_buf(),
            pushed: 0,
            plan,
        }
    }

    /// Where the caller writes the next angle's rows, slice `s` at
    /// `[s·n_det .. (s+1)·n_det]`, before [`FbpAccumulator::push`].
    pub fn stage_mut(&mut self) -> &mut [f32] {
        &mut self.staged
    }

    /// Angles pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Filtered angles the accumulator gathers before it sweeps them
    /// over the running volume. A sweep walks the whole volume through the
    /// cache once, so more angles per sweep amortize that walk further,
    /// while the plan's last angle sweeps up to this many more in its own
    /// push (and `finish` of a scan that lost frames sweeps what is still
    /// pending). Walk and kernel time both grow with the volume, so the
    /// angle count that balances them does not depend on its size: 4 to 14
    /// measured the same ingest cost per frame on 16 × 128² slices
    /// (DESIGN.md §14) and 8 kept a flush of the remainder under a
    /// millisecond. Even, because angles are filtered in pairs.
    pub const SWEEP_ANGLES: usize = 8;

    /// Take the staged rows as projection angle `a` of the plan's
    /// geometry. Panics when the plan has no such angle.
    pub fn push(&mut self, a: usize) {
        assert!(a < self.plan.trig.len(), "angle {a} is not in the plan");
        self.pushed += 1;
        if self.held_angle.is_none() {
            std::mem::swap(&mut self.held, &mut self.staged);
            self.held_angle = Some(a);
        } else {
            self.filter_held(Some(a));
        }
        // the plan's last angle flushes what is pending, so a complete
        // scan reaches its end with nothing left to backproject but the
        // lone held angle of an odd count
        let complete = self.pushed == self.plan.trig.len();
        let pending = self.pending_angles.len();
        if pending == Self::SWEEP_ANGLES || (complete && pending > 0) {
            self.sweep();
        }
    }

    /// Filter the held angle — packed with the staged one when it is
    /// `partner` — into the next pending slots.
    fn filter_held(&mut self, partner: Option<usize>) {
        let held = self.held_angle.take().expect("an angle is held");
        let plan = &*self.plan;
        let n = plan.geom.n_det;
        let stride = (n + 1) * SLICE_LANES;
        let k0 = self.pending_angles.len();
        for s in 0..self.n_slices {
            let (batch, lane) = (s / SLICE_LANES, s % SLICE_LANES);
            let rows = &mut self.pending[(batch * Self::SWEEP_ANGLES + k0) * stride..];
            let r1 = partner.map(|_| &self.staged[s * n..(s + 1) * n]);
            plan.filter.filter_pair_with(
                &self.held[s * n..(s + 1) * n],
                r1,
                &mut self.cbuf,
                |k, t, v| {
                    rows[(k * (n + 1) + t) * SLICE_LANES + lane] = (v as f64 * plan.scale) as f32;
                },
            );
        }
        self.pending_angles.push(held);
        self.pending_angles.extend(partner);
    }

    /// Backproject the pending angles, in arrival order, into every lane
    /// batch of the running volume: row tile → angle → row, as
    /// [`ReconPlan::backproject_rows`] walks a whole sinogram.
    fn sweep(&mut self) {
        let plan = &*self.plan;
        let n = plan.geom.n_det;
        let stride = (n + 1) * SLICE_LANES;
        let batch_rows = Self::SWEEP_ANGLES * stride;
        let (pending, angles) = (&self.pending, &self.pending_angles);
        self.vol4
            .par_chunks_mut(n * n * SLICE_LANES)
            .enumerate()
            .for_each(|(batch, img4)| {
                let rows4 = &pending[batch * batch_rows..(batch + 1) * batch_rows];
                for rows in row_tiles(n, SLICE_LANES) {
                    let acc = &mut img4[rows.start * n * SLICE_LANES..rows.end * n * SLICE_LANES];
                    for (&a, rowf) in angles.iter().zip(rows4.chunks_exact(stride)) {
                        plan.backproject_angle_rows(
                            SLICE_LANES,
                            a,
                            rowf,
                            rows.clone(),
                            acc,
                            crate::simd::backproject_row_lanes,
                        );
                    }
                }
            });
        self.pending_angles.clear();
    }

    /// Backproject what is still held or pending — nothing for a complete
    /// even-count scan, which its last push flushed — and hand the running
    /// volume out in its lane layout, rescaled when the pushes were not
    /// exactly the plan's angle count.
    pub fn finish(mut self) -> LaneVolume {
        if self.held_angle.is_some() {
            self.filter_held(None);
        }
        if !self.pending_angles.is_empty() {
            self.sweep();
        }
        let ratio = match self.pushed {
            0 => 1.0,
            pushed => (self.plan.trig.len() as f64 / pushed as f64) as f32,
        };
        LaneVolume {
            n: self.plan.geom.n_det,
            nz: self.n_slices,
            vol4: self.vol4,
            ratio,
        }
    }
}

/// A finished [`FbpAccumulator`] volume, read where it was accumulated:
/// the running lane-interleaved buffer is moved in, not copied, so a
/// preview that needs three slices never builds the whole [`Volume`].
/// Each slice read applies the `n_angles / pushed` rescale as one f32
/// multiply per voxel.
pub struct LaneVolume {
    n: usize,
    nz: usize,
    /// `vol4[((batch·n + y)·n + x)·L + lane]` holds voxel `(x, y, z)` of
    /// slice `z = batch·L + lane`, with `L` = [`SLICE_LANES`].
    vol4: Vec<f32>,
    ratio: f32,
}

impl LaneVolume {
    /// `(nx, ny, nz)`: `n_det × n_det` pixels in each of `n_slices` slices.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n, self.n, self.nz)
    }

    /// Row `y` of slice `z` with its lane neighbours interleaved, and
    /// `z`'s lane in it.
    fn row4(&self, y: usize, z: usize) -> (&[f32], usize) {
        assert!(
            y < self.n && z < self.nz,
            "row ({y}, {z}) is outside the volume"
        );
        let start = (z / SLICE_LANES * self.n + y) * self.n * SLICE_LANES;
        (
            &self.vol4[start..start + self.n * SLICE_LANES],
            z % SLICE_LANES,
        )
    }

    /// Rows `(y, z)` in turn, rescaled, as one `n × rows` image.
    fn rows(&self, rows: impl ExactSizeIterator<Item = (usize, usize)>) -> Image {
        let height = rows.len();
        let mut data = Vec::with_capacity(self.n * height);
        for (y, z) in rows {
            let (row4, lane) = self.row4(y, z);
            data.extend(
                row4.chunks_exact(SLICE_LANES)
                    .map(|px| px[lane] * self.ratio),
            );
        }
        Image::from_vec(self.n, height, data)
    }

    /// The XY (axial) slice `z`, as [`Volume::slice_xy`].
    pub fn slice_xy(&self, z: usize) -> Image {
        self.rows((0..self.n).map(|y| (y, z)))
    }

    /// The XZ slice at row `y`, as [`Volume::slice_xz`].
    pub fn slice_xz(&self, y: usize) -> Image {
        self.rows((0..self.nz).map(|z| (y, z)))
    }

    /// The YZ slice at column `x`, as [`Volume::slice_yz`].
    pub fn slice_yz(&self, x: usize) -> Image {
        assert!(x < self.n, "column {x} is outside the volume");
        let mut data = Vec::with_capacity(self.n * self.nz);
        for z in 0..self.nz {
            for y in 0..self.n {
                let (row4, lane) = self.row4(y, z);
                data.push(row4[x * SLICE_LANES + lane] * self.ratio);
            }
        }
        Image::from_vec(self.n, self.nz, data)
    }
}

/// Pre-multiply a projection row by the angle weight (in f64, rounded
/// once to f32), so the backprojection inner loop pays no per-pixel
/// scale multiply. `rowf` must hold `n + 1` entries; the extra
/// sentinel stays `0.0` and is only ever read with an interpolation
/// weight of (numerically) zero.
fn prescale_row(row: &[f32], scale: f64, rowf: &mut [f32]) {
    debug_assert_eq!(rowf.len(), row.len() + 1);
    for (d, &s) in rowf.iter_mut().zip(row.iter()) {
        *d = (s as f64 * scale) as f32;
    }
    rowf[row.len()] = 0.0;
}

/// [`prescale_row`] over a whole sinogram, stride `n_det + 1` per row.
fn prescale_sino(sino: &Sinogram, scale: f64, rowsf: &mut [f32]) {
    let stride = sino.n_det + 1;
    debug_assert_eq!(rowsf.len(), sino.n_angles * stride);
    for (a, dst) in rowsf.chunks_exact_mut(stride).enumerate() {
        prescale_row(sino.row(a), scale, dst);
    }
}

/// Output rows per backprojection tile for rows of `row_len` f32s:
/// sized so the block under accumulation fits in L1 (32 KiB), floored
/// at [`TILE_ROWS_MIN`] rows so small images stay a single sweep.
fn tile_rows(row_len: usize) -> usize {
    (8192 / row_len.max(1)).clamp(TILE_ROWS_MIN, 64)
}

/// Fewest output rows a backprojection tile holds. The floor only binds
/// past 1024 f32s per row (a four-lane tile at n = 512 is 64 KiB);
/// floors 2, 4 and 8 measured within 3 % of each other there for both
/// the FBP and the SIRT lane kernels (DESIGN.md §15), and tiling never
/// changes a bit, so the floor that takes the fewest passes over the
/// projection rows stays.
const TILE_ROWS_MIN: usize = 8;

/// The row tiles of an `n`-row image of `lanes` values per pixel, in
/// ascending order.
fn row_tiles(n: usize, lanes: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let tile = tile_rows(n * lanes);
    (0..n).step_by(tile).map(move |y0| y0..(y0 + tile).min(n))
}

/// Per-`(angle, row)` clip intervals: the half-open `x` range whose
/// detector coordinate lands on the detector, intersected with the
/// row extents. Uses the exact predicate (not an inverse float solve)
/// because near θ = π/2 rounding makes `t_of` plateau at a boundary
/// value across many pixels, far outside any fixed widening of the
/// algebraic interval; `t_of` is weakly monotone in `x` (affine map,
/// and f64 rounding is monotone), so each range is a single interval
/// found by binary search.
fn build_intervals(
    trig: &[(f64, f64)],
    extents: &[(usize, usize)],
    n: usize,
    center: f64,
) -> Vec<(u32, u32)> {
    let c = (n as f64 - 1.0) / 2.0;
    let last = (n - 1) as f64;
    let mut intervals = Vec::with_capacity(trig.len() * n);
    for &(sin_t, cos_t) in trig {
        for (y, &(x0, x1)) in extents.iter().enumerate() {
            if x0 >= x1 {
                intervals.push((0, 0));
                continue;
            }
            let yr = y as f64 - c;
            // Same float association as the reference backprojector's
            // bounds test, so inclusion never flips on a boundary ulp.
            let t_of = |x: usize| -> f64 { (x as f64 - c) * cos_t + yr * sin_t + center };
            let (xa, xb) = if cos_t > 0.0 {
                (
                    lower_bound(x0, x1, |x| t_of(x) >= 0.0),
                    lower_bound(x0, x1, |x| t_of(x) > last),
                )
            } else if cos_t < 0.0 {
                (
                    lower_bound(x0, x1, |x| t_of(x) <= last),
                    lower_bound(x0, x1, |x| t_of(x) < 0.0),
                )
            } else if (0.0..=last).contains(&t_of(x0)) {
                (x0, x1)
            } else {
                (0, 0)
            };
            intervals.push(if xa < xb {
                (xa as u32, xb as u32)
            } else {
                (0, 0)
            });
        }
    }
    intervals
}

/// Smallest `x` in `[lo, hi]` for which `cond` holds, assuming `cond`
/// is monotone false→true over the range (returns `hi` when none does).
fn lower_bound(mut lo: usize, mut hi: usize, cond: impl Fn(usize) -> bool) -> usize {
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

/// Cell of the precomputed polar→Cartesian gather for gridrec: which
/// two spectra rows to sample, at which (signed) radii, with which
/// angular weight and combined window-gain/centering-shift factor.
#[derive(Debug, Clone, Copy)]
struct GatherCell {
    /// Destination index `j*m + k` in the Cartesian spectrum.
    idx: u32,
    a0: u32,
    a1: u32,
    rho0: f64,
    rho1: f64,
    /// Angular interpolation weight toward `a1`.
    w: f64,
    /// Window gain × output-centering phase, folded into one factor.
    gs: Complex,
}

/// Everything invariant across slices for direct Fourier ("gridrec")
/// reconstruction of a fixed `(Geometry, GridrecConfig)` pair: the
/// oversampled FFT plan, the rotation-axis phase ramp, and the full
/// polar→Cartesian gather table (the per-cell `atan2`/`sqrt`/`cis`
/// work that used to be redone for every slice).
#[derive(Debug, Clone)]
pub struct GridrecPlan {
    geom: Geometry,
    cfg: GridrecConfig,
    m: usize,
    fft: FftPlan,
    /// Per-bin phase factor moving the rotation axis to the origin.
    phase: Vec<Complex>,
    cells: Vec<GatherCell>,
}

/// Reusable buffers for plan-based gridrec.
#[derive(Debug, Clone)]
pub struct GridrecScratch {
    /// Per-angle projection spectra (`n_angles × m`).
    spectra: Vec<Complex>,
    /// Row staging buffer (`m`).
    buf: Vec<Complex>,
    /// Cartesian spectrum / image grid (`m × m`).
    grid: Vec<Complex>,
}

impl GridrecPlan {
    pub fn new(geom: &Geometry, cfg: &GridrecConfig) -> Result<GridrecPlan, TomoError> {
        let n_angles = geom.n_angles();
        if n_angles < 2 {
            return Err(TomoError::BadParameter(
                "gridrec needs at least two angles".into(),
            ));
        }
        geom.validate(n_angles, geom.n_det)?;
        let n = geom.n_det;
        let m = next_pow2(cfg.oversample.max(1) * n);
        let mf = m as f64;
        let tau = 2.0 * std::f64::consts::PI;
        let phase = (0..m)
            .map(|k| {
                let q = signed_index(k, m) as f64;
                Complex::cis(tau * q * geom.center / mf)
            })
            .collect();

        let dtheta = std::f64::consts::PI / n_angles as f64;
        let nyq = mf / 2.0;
        let cx = (n as f64 - 1.0) / 2.0;
        let mut cells = Vec::with_capacity(m * m * 4 / 5);
        for j in 0..m {
            let qy = signed_index(j, m) as f64;
            for k in 0..m {
                let qx = signed_index(k, m) as f64;
                let mut rho = (qx * qx + qy * qy).sqrt();
                if rho > nyq {
                    continue;
                }
                let mut theta = qy.atan2(qx);
                if theta < 0.0 {
                    theta += std::f64::consts::PI;
                    rho = -rho;
                }
                if theta >= std::f64::consts::PI {
                    theta -= std::f64::consts::PI;
                    rho = -rho;
                }
                let pos = theta / dtheta;
                let a0 = pos.floor() as usize;
                let w = pos - a0 as f64;
                let a0 = a0.min(n_angles - 1);
                // wrap past the last angle: θ → θ - π flips the ray
                let (a1, rho1) = if a0 + 1 < n_angles {
                    (a0 + 1, rho)
                } else {
                    (0, -rho)
                };
                let wgain = match cfg.window {
                    FilterKind::None | FilterKind::RamLak => 1.0,
                    other => crate::gridrec::window_gain(other, rho.abs() / nyq),
                };
                let shift = Complex::cis(-tau * (qx * cx + qy * cx) / mf);
                cells.push(GatherCell {
                    idx: (j * m + k) as u32,
                    a0: a0 as u32,
                    a1: a1 as u32,
                    rho0: rho,
                    rho1,
                    w,
                    gs: shift.scale(wgain),
                });
            }
        }
        Ok(GridrecPlan {
            geom: geom.clone(),
            cfg: *cfg,
            m,
            fft: FftPlan::new(m),
            phase,
            cells,
        })
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    pub fn make_scratch(&self) -> GridrecScratch {
        GridrecScratch {
            spectra: vec![Complex::ZERO; self.geom.n_angles() * self.m],
            buf: vec![Complex::ZERO; self.m],
            grid: vec![Complex::ZERO; self.m * self.m],
        }
    }

    /// Reconstruct one slice through the plan.
    pub fn gridrec_slice_with(
        &self,
        sino: &Sinogram,
        scratch: &mut GridrecScratch,
    ) -> Result<Image, TomoError> {
        self.geom.validate(sino.n_angles, sino.n_det)?;
        let n = self.geom.n_det;
        let m = self.m;
        let mf = m as f64;
        let GridrecScratch { spectra, buf, grid } = scratch;

        // 1) FFT every projection, phase-shifted so the rotation axis
        //    is the spatial origin.
        for a in 0..sino.n_angles {
            let nd = sino.n_det;
            for (c, &v) in buf.iter_mut().zip(sino.row(a).iter()) {
                *c = Complex::from_re(v as f64);
            }
            for c in buf[nd..].iter_mut() {
                *c = Complex::ZERO;
            }
            self.fft.forward(buf);
            for (k, (s, c)) in spectra[a * m..(a + 1) * m]
                .iter_mut()
                .zip(buf.iter())
                .enumerate()
            {
                *s = *c * self.phase[k];
            }
        }

        // 2) Gather the Cartesian spectrum from the precomputed cells.
        let sample_radial = |a: usize, rho: f64| -> Complex {
            let idx = rho.rem_euclid(mf);
            let i0 = idx.floor() as usize % m;
            let i1 = (i0 + 1) % m;
            let f = idx - idx.floor();
            let c0 = spectra[a * m + i0];
            let c1 = spectra[a * m + i1];
            c0.scale(1.0 - f) + c1.scale(f)
        };
        grid.fill(Complex::ZERO);
        for cell in &self.cells {
            let v0 = sample_radial(cell.a0 as usize, cell.rho0);
            let v1 = sample_radial(cell.a1 as usize, cell.rho1);
            let val = v0.scale(1.0 - cell.w) + v1.scale(cell.w);
            grid[cell.idx as usize] = val * cell.gs;
        }

        // 3) Inverse 2D FFT and crop.
        crate::fft::fft2_with_plan(&self.fft, grid, true);
        let mut img = Image::square(n);
        for y in 0..n {
            for x in 0..n {
                img.set(x, y, grid[y * m + x].re as f32);
            }
        }
        if self.cfg.mask_disk {
            crate::radon::apply_disk_mask(&mut img);
        }
        Ok(img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radon::forward_project;

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

    fn fbp(sino: &Sinogram, geom: &Geometry, cfg: &FbpConfig) -> Image {
        let plan = ReconPlan::new(geom, cfg).unwrap();
        plan.fbp_slice_with(sino, &mut plan.make_scratch()).unwrap()
    }

    #[test]
    fn fbp_recovers_disk_amplitude() {
        let n = 64;
        let truth = disk_image(n, 18.0, 1.0);
        let geom = Geometry::parallel_180(120, n);
        let sino = forward_project(&truth, &geom);
        let rec = fbp(&sino, &geom, &FbpConfig::default());
        // interior of the disk should be near 1.0
        let c = n / 2;
        let interior: f32 = rec.get(c, c);
        assert!(
            (interior - 1.0).abs() < 0.12,
            "center value {interior} should be ~1"
        );
        // well outside the disk but inside the recon circle should be ~0
        let outside = rec.get(c, 4);
        assert!(outside.abs() < 0.12, "background {outside} should be ~0");
    }

    #[test]
    fn fbp_error_decreases_with_more_angles() {
        let n = 64;
        let truth = disk_image(n, 16.0, 1.0);
        let err = |n_angles: usize| -> f64 {
            let geom = Geometry::parallel_180(n_angles, n);
            let sino = forward_project(&truth, &geom);
            let rec = fbp(&sino, &geom, &FbpConfig::default());
            let mut e = 0.0;
            let mut cnt = 0usize;
            for y in 0..n {
                for x in 0..n {
                    if in_recon_disk(x, y, n) {
                        e += (rec.get(x, y) as f64 - truth.get(x, y) as f64).powi(2);
                        cnt += 1;
                    }
                }
            }
            (e / cnt as f64).sqrt()
        };
        let e_few = err(12);
        let e_many = err(180);
        assert!(
            e_many < e_few * 0.7,
            "RMSE should drop with angles: {e_few} -> {e_many}"
        );
    }

    #[test]
    fn unfiltered_bp_is_much_worse_than_fbp() {
        let n = 48;
        let truth = disk_image(n, 12.0, 1.0);
        let geom = Geometry::parallel_180(90, n);
        let sino = forward_project(&truth, &geom);
        let filtered = fbp(&sino, &geom, &FbpConfig::default());
        let bp = fbp(
            &sino,
            &geom,
            &FbpConfig {
                filter: FilterKind::None,
                mask_disk: true,
            },
        );
        let rmse = |img: &Image| -> f64 {
            let mut e = 0.0;
            for i in 0..img.data.len() {
                e += (img.data[i] as f64 - truth.data[i] as f64).powi(2);
            }
            (e / img.data.len() as f64).sqrt()
        };
        assert!(rmse(&bp) > 5.0 * rmse(&filtered));
    }

    #[test]
    fn slice_shape_mismatch_is_an_error() {
        let geom = Geometry::parallel_180(10, 32);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let sino = Sinogram::zeros(10, 16);
        assert!(matches!(
            plan.fbp_slice_with(&sino, &mut plan.make_scratch()),
            Err(TomoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn plan_extents_match_disk_mask() {
        let geom = Geometry::parallel_180(8, 32);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        for y in 0..32 {
            let (x0, x1) = plan.extents[y];
            for x in 0..32 {
                let inside = x >= x0 && x < x1;
                assert_eq!(inside, in_recon_disk(x, y, 32), "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn plan_rejects_degenerate_geometry() {
        let empty = Geometry {
            angles: vec![],
            n_det: 16,
            center: 7.5,
        };
        assert!(ReconPlan::new(&empty, &FbpConfig::default()).is_err());
        let bad_center = Geometry::parallel_180(4, 16).with_center(-1.0);
        assert!(ReconPlan::new(&bad_center, &FbpConfig::default()).is_err());
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let n = 32;
        let truth = disk_image(n, 9.0, 1.0);
        let geom = Geometry::parallel_180(24, n);
        let sino = forward_project(&truth, &geom);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let mut scratch = plan.make_scratch();
        let a = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
        let b = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
        assert_eq!(a, b, "dirty scratch must not leak into the next slice");
    }

    #[test]
    fn accumulating_backprojectors_ignore_what_the_scratch_held() {
        // the per-slice SIRT oracle calls `backproject_acc` once per
        // iteration through one scratch: a reused (dirty) staging
        // buffer must give the bits a freshly allocated one does
        let n = 29;
        let geom = Geometry::parallel_180(11, n);
        let sino = forward_project(&disk_image(n, 9.0, 1.0), &geom);
        for mask_disk in [true, false] {
            let cfg = FbpConfig {
                filter: FilterKind::None,
                mask_disk,
            };
            let plan = ReconPlan::new(&geom, &cfg).unwrap();
            let mut dirty = plan.make_scratch();
            dirty.rowsf.fill(f32::NAN);
            let (mut a, mut b) = (vec![0.25f32; n * n], vec![0.25f32; n * n]);
            plan.backproject_acc(&sino, 0.7, &mut dirty, &mut a);
            plan.backproject_acc(&sino, 0.7, &mut plan.make_scratch(), &mut b);
            assert_eq!(a, b, "backproject_acc, mask_disk {mask_disk}");
            assert!(a.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn fbp_batches_ignore_what_the_scratch_held() {
        // batches of every live-lane count through one poisoned scratch:
        // idle lanes, the sentinel column and the accumulator tile must
        // not leak what an earlier batch (or nothing) left there
        let n = 29;
        let geom = Geometry::parallel_180(11, n);
        let base = forward_project(&disk_image(n, 9.0, 1.0), &geom);
        let sinos: Vec<Sinogram> = (0..5)
            .map(|z| {
                let mut s = base.clone();
                s.data.iter_mut().for_each(|v| *v *= 1.0 + 0.3 * z as f32);
                s
            })
            .collect();
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let mut dirty = plan.make_scratch();
        for live in [4usize, 2, 1, 3, 5] {
            dirty.rowsf.fill(f32::NAN);
            dirty.tile.fill(f32::NAN);
            dirty.cbuf.fill(Complex::new(f64::NAN, f64::NAN));
            let (mut a, mut b) = (vec![f32::NAN; live * n * n], vec![f32::NAN; live * n * n]);
            plan.fbp_batch_into(&sinos[..live], &mut dirty, &mut a);
            plan.fbp_batch_into(&sinos[..live], &mut plan.make_scratch(), &mut b);
            assert!(a.iter().all(|v| v.is_finite()), "{live} live lanes");
            assert_eq!(a, b, "{live} live lanes");
        }
    }

    #[test]
    fn plan_volume_matches_plan_slices() {
        let n = 32;
        let truth = disk_image(n, 8.0, 1.0);
        let geom = Geometry::parallel_180(20, n);
        let sino = forward_project(&truth, &geom);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let sinos = vec![sino.clone(); 5];
        let vol = plan.fbp_volume(&sinos).unwrap();
        let mut scratch = plan.make_scratch();
        let single = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
        for z in 0..5 {
            assert_eq!(vol.slice_xy(z), single);
        }
    }

    #[test]
    fn volume_shape_mismatch_is_an_error() {
        let geom = Geometry::parallel_180(8, 16);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        assert!(plan.fbp_volume(&[]).is_err());
        let bad = Sinogram::zeros(8, 12);
        assert!(plan.fbp_volume(&[bad]).is_err());
    }

    #[test]
    fn volume_recon_matches_slicewise() {
        let n = 32;
        let truth = disk_image(n, 8.0, 1.0);
        let geom = Geometry::parallel_180(30, n);
        let sino = forward_project(&truth, &geom);
        let sinos = vec![sino.clone(), sino.clone(), sino.clone()];
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let vol = plan.fbp_volume(&sinos).unwrap();
        assert_eq!((vol.nx, vol.ny, vol.nz), (n, n, 3));
        let single = fbp(&sino, &geom, &FbpConfig::default());
        for z in 0..3 {
            assert_eq!(vol.slice_xy(z), single);
        }
    }

    #[test]
    fn empty_stack_is_an_error() {
        let geom = Geometry::parallel_180(10, 16);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        assert!(plan.fbp_volume(&[]).is_err());
    }

    /// Push each angle of `order`, every slice's row a constant.
    fn push_all(acc: &mut FbpAccumulator, order: &[usize]) {
        for &a in order {
            acc.stage_mut().fill(1.0 + a as f32);
            acc.push(a);
        }
    }

    #[test]
    fn the_last_announced_angle_flushes_the_scan() {
        let sweep = FbpAccumulator::SWEEP_ANGLES;
        for n_angles in [
            2,
            sweep - 2,
            sweep,
            sweep + 2,
            2 * sweep + 4,
            3,
            sweep + 1,
            2 * sweep + 3,
        ] {
            let geom = Geometry::parallel_180(n_angles, 24);
            let plan = Arc::new(ReconPlan::new(&geom, &FbpConfig::default()).unwrap());
            let in_order: Vec<usize> = (0..n_angles).collect();
            let shuffled: Vec<usize> = (0..n_angles)
                .step_by(2)
                .chain((1..n_angles).step_by(2).rev())
                .collect();
            for order in [in_order, shuffled] {
                let mut acc = FbpAccumulator::new(Arc::clone(&plan), 5);
                push_all(&mut acc, &order);
                assert!(
                    acc.pending_angles.is_empty(),
                    "{n_angles} angles: {order:?}"
                );
                if n_angles % 2 == 1 {
                    // the lone last angle waits to be filtered unpaired
                    assert_eq!(acc.held_angle, order.last().copied());
                    continue;
                }
                assert_eq!(acc.held_angle, None, "{n_angles} angles: {order:?}");
                // finish sweeps nothing and hands the running volume out
                // where it lies
                let (before, at) = (acc.vol4.clone(), acc.vol4.as_ptr());
                let lanes = acc.finish();
                assert_eq!(lanes.vol4.as_ptr(), at);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&lanes.vol4),
                    bits(&before),
                    "{n_angles} angles: {order:?}"
                );
                assert_eq!(lanes.ratio, 1.0);
            }
        }
        // a scan that lost its last pair still has angles pending at
        // its end, and finish sweeps them
        let plan = Arc::new(
            ReconPlan::new(&Geometry::parallel_180(12, 24), &FbpConfig::default()).unwrap(),
        );
        let mut acc = FbpAccumulator::new(plan, 5);
        push_all(&mut acc, &(0..10).collect::<Vec<_>>());
        assert_eq!(acc.pending_angles, [8, 9]);
        let before = acc.vol4.clone();
        assert_ne!(acc.finish().vol4, before);
    }
}
