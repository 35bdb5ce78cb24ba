//! Chunked scan-to-archive reconstruction pipeline.
//!
//! The paper's file-based branch is judged end to end — raw scan in,
//! TIFF stack + multiscale archive out — so this engine optimises the
//! whole path, not just the kernels, by streaming the scan through
//! bounded, overlapped stages:
//!
//! ```text
//!  loader thread          caller thread             sink thread
//!  ┌────────────┐  raw   ┌──────────────────┐ recon ┌─────────────┐
//!  │ slab       │ slabs  │ fused prep       │ slabs │ TIFF stack, │
//!  │ transpose  │ ─────▶ │ (RawPrepPlan) +  │ ────▶ │ multiscale, │
//!  │ (rows from │ chan   │ slice-parallel   │ chan  │ volume ...  │
//!  │ all frames)│ (≤d)   │ SIRT/FBP plan    │ (≤d)  │             │
//!  └────────────┘        └──────────────────┘       └─────────────┘
//! ```
//!
//! - **Slab transpose**: each slab reads a *contiguous* block of
//!   detector rows from every projection frame (one `copy_from_slice`
//!   per frame-row), replacing the one-element-per-frame gather of the
//!   old per-slice path.
//! - **Fused prep**: a [`RawPrepPlan`] turns raw counts into line
//!   integrals in a single in-place pass per row.
//! - **Recon**: one shared plan ([`IterPlan`] or [`ReconPlan`]) built
//!   once per scan; a slab is cut into lane batches (`SLICE_LANES`
//!   slices, which both engines advance together) parallelized over
//!   the vendored rayon work queue with per-worker scratch.
//! - **Sink**: writers run on a dedicated I/O thread fed by a bounded
//!   channel, so disk writes overlap the next slab's compute. Slabs
//!   arrive in z order, which lets streaming writers (TIFF stack,
//!   multiscale pyramid) emit incrementally.
//!
//! Channels are bounded ([`PipelineConfig::queue_depth`] slabs), so
//! memory stays at `O(queue_depth × slab)` regardless of scan size, and
//! a slow stage back-pressures the ones before it. The per-stage busy
//! times in the returned [`PipelineReport`] quantify the overlap.

use crate::geometry::Geometry;
use crate::image::Sinogram;
use crate::iterative::{IterConfig, IterPlan, IterScratch};
use crate::plan::{FbpConfig, ReconPlan, ReconScratch};
use crate::prep::RawPrepPlan;
use crate::simd::SLICE_LANES;
use crate::TomoError;
use als_telemetry::Registry;
use rayon::prelude::*;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of raw projection data: `n_angles` frames of `rows × cols`
/// detector counts plus dark/flat reference frames. Implemented by
/// `scidata::ScanFile`; the trait keeps `tomo` free of file-format
/// dependencies and lets tests drive the pipeline from memory.
pub trait ProjectionSource: Sync {
    /// `(n_angles, rows, cols)`.
    fn dims(&self) -> (usize, usize, usize);
    /// Projection angles in radians, length `n_angles`.
    fn scan_angles(&self) -> Vec<f64>;
    /// Dark reference frame, `rows × cols`.
    fn dark_frame(&self) -> &[u16];
    /// Flat (white) reference frame, `rows × cols`.
    fn flat_frame(&self) -> &[u16];
    /// Raw counts of projection `a`, `rows × cols`, row-major.
    fn frame(&self, a: usize) -> &[u16];
}

/// A consumer of reconstructed slices. Slabs arrive strictly in
/// ascending-z order with no gaps; all calls happen on the pipeline's
/// sink thread.
pub trait SliceSink: Send {
    /// Called once before any slab, with the final volume shape.
    fn begin(&mut self, nx: usize, ny: usize, nz: usize) -> Result<(), String>;
    /// `data` holds `n_slices` slices of `nx × ny` starting at depth `z0`.
    fn write_slab(&mut self, z0: usize, n_slices: usize, data: &[f32]) -> Result<(), String>;
    /// Called once after the last slab.
    fn finish(&mut self) -> Result<(), String>;
}

/// Which reconstruction engine the compute stage runs.
#[derive(Debug, Clone)]
pub enum ReconKind {
    /// Iterative SIRT via a scan-level [`IterPlan`] (file-based branch).
    Sirt(IterConfig),
    /// Filtered backprojection via a shared [`ReconPlan`] (streaming branch).
    Fbp(FbpConfig),
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub recon: ReconKind,
    /// Attenuation scale used by the raw→line-integral conversion.
    pub mu_scale: f64,
    /// Log-domain zinger threshold; `None` disables zinger removal.
    pub zinger_threshold: Option<f32>,
    /// Ring-suppression window for the fused per-slice post-stage;
    /// `None` disables ring removal (the historical behaviour).
    pub ring_window: Option<usize>,
    /// Paganin phase-filter strength (δ/β); `None` or ≤ 0 disables it.
    pub paganin_delta_beta: Option<f64>,
    /// Detector rows (= output slices) per slab; 0 picks a default.
    pub slab_rows: usize,
    /// Bounded-channel capacity between stages, in slabs.
    pub queue_depth: usize,
    /// Fleet metrics registry for stage-occupancy gauges, queue depths,
    /// and throughput counters. `None` runs against a private throwaway
    /// registry so the hot path has no conditionals.
    pub registry: Option<Arc<Registry>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            recon: ReconKind::Fbp(FbpConfig::default()),
            mu_scale: 1.0,
            zinger_threshold: None,
            ring_window: None,
            paganin_delta_beta: None,
            slab_rows: 0,
            queue_depth: 2,
            registry: None,
        }
    }
}

/// Wall time plus per-stage busy time for one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Output slices reconstructed.
    pub slices: usize,
    /// Slabs that flowed through the pipeline.
    pub slabs: usize,
    /// End-to-end wall time, plan build included.
    pub wall: Duration,
    /// One-time cost of building the prep + recon plans.
    pub plan_build: Duration,
    /// Loader-stage busy time (slab transpose reads).
    pub load_busy: Duration,
    /// Fused-prep busy time (raw counts → sinogram rows).
    pub prep_busy: Duration,
    /// Reconstruction busy time (all worker threads' wall share).
    pub recon_busy: Duration,
    /// Sink-stage busy time (archive writes).
    pub sink_busy: Duration,
    /// Portion of `sink_busy` spent while the recon stage was
    /// simultaneously busy — direct evidence of I/O/compute overlap.
    pub sink_busy_overlapped: Duration,
}

impl PipelineReport {
    pub fn slices_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.slices as f64 / s
        } else {
            0.0
        }
    }

    /// Σ stage-busy / wall. Values above 1.0 are only reachable when
    /// stages genuinely ran concurrently.
    pub fn overlap_ratio(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            (self.load_busy + self.prep_busy + self.recon_busy + self.sink_busy).as_secs_f64()
                / wall
        } else {
            0.0
        }
    }
}

/// Pipeline failure: bad inputs, a reconstruction-plan error, or a sink
/// write error.
#[derive(Debug)]
pub enum PipelineError {
    BadInput(String),
    Recon(TomoError),
    Sink(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::BadInput(m) => write!(f, "bad pipeline input: {m}"),
            PipelineError::Recon(e) => write!(f, "reconstruction error: {e}"),
            PipelineError::Sink(m) => write!(f, "sink error: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<TomoError> for PipelineError {
    fn from(e: TomoError) -> Self {
        PipelineError::Recon(e)
    }
}

enum Engine {
    Sirt(IterPlan),
    Fbp(ReconPlan),
}

enum Scratch {
    Sirt(IterScratch),
    Fbp(ReconScratch),
}

impl Engine {
    fn make_scratch(&self) -> Scratch {
        match self {
            Engine::Sirt(p) => Scratch::Sirt(p.make_scratch()),
            Engine::Fbp(p) => Scratch::Fbp(p.make_scratch()),
        }
    }

    /// Reconstruct one batch (`sinos.len() <= SLICE_LANES`) into the
    /// matching run of output slices.
    fn recon_into(&self, sinos: &[Sinogram], scratch: &mut Scratch, out: &mut [f32]) {
        match (self, scratch) {
            (Engine::Sirt(p), Scratch::Sirt(s)) => p.sirt_batch_into(sinos, s, out),
            (Engine::Fbp(p), Scratch::Fbp(s)) => p.fbp_batch_into(sinos, s, out),
            _ => unreachable!("scratch kind always matches engine kind"),
        }
    }
}

/// Reconstruct an entire scan through the overlapped pipeline, fanning
/// the z-ordered output slabs out to every sink.
pub fn run(
    source: &dyn ProjectionSource,
    sinks: &mut [&mut dyn SliceSink],
    cfg: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    let (n_angles, rows, cols) = source.dims();
    if n_angles == 0 || rows == 0 || cols == 0 {
        return Err(PipelineError::BadInput(format!(
            "empty scan: {n_angles} angles, {rows}×{cols} frames"
        )));
    }
    let angles = source.scan_angles();
    if angles.len() != n_angles {
        return Err(PipelineError::BadInput(format!(
            "{} angles for {n_angles} frames",
            angles.len()
        )));
    }
    if source.dark_frame().len() != rows * cols || source.flat_frame().len() != rows * cols {
        return Err(PipelineError::BadInput(
            "dark/flat frame shape mismatch".into(),
        ));
    }
    if cfg.mu_scale <= 0.0 {
        return Err(PipelineError::BadInput(format!(
            "mu_scale {} must be positive",
            cfg.mu_scale
        )));
    }

    let t0 = Instant::now();
    let geom = Geometry {
        angles,
        n_det: cols,
        center: (cols as f64 - 1.0) / 2.0,
    };
    let engine = match &cfg.recon {
        ReconKind::Sirt(c) => Engine::Sirt(IterPlan::new(&geom, c)?),
        ReconKind::Fbp(c) => Engine::Fbp(ReconPlan::new(&geom, c)?),
    };
    let prep = RawPrepPlan::new(
        source.dark_frame(),
        source.flat_frame(),
        rows,
        cols,
        cfg.mu_scale,
        cfg.zinger_threshold,
    )
    .with_post(crate::prep::SinoPostPlan::new(
        cols,
        cfg.ring_window,
        cfg.paganin_delta_beta,
    ));
    let plan_build = t0.elapsed();

    // default slab: one full lane batch per worker, so no worker idles
    // and none walks its tables for idle lanes
    let slab_rows = if cfg.slab_rows == 0 {
        SLICE_LANES * rayon::current_num_threads()
    } else {
        cfg.slab_rows
    }
    .min(rows);
    let queue_depth = cfg.queue_depth.max(1);
    let n_slabs = rows.div_ceil(slab_rows);

    for sink in sinks.iter_mut() {
        sink.begin(cols, cols, rows).map_err(PipelineError::Sink)?;
    }

    let mut report = PipelineReport {
        slices: rows,
        slabs: n_slabs,
        plan_build,
        ..Default::default()
    };

    // Stage-occupancy gauges double as the overlap detector: the sink
    // samples `recon` occupancy instead of a private flag, so the same
    // signal that feeds fleet dashboards drives `sink_busy_overlapped`.
    let private;
    let registry: &Registry = match &cfg.registry {
        Some(r) => r.as_ref(),
        None => {
            private = Registry::new();
            &private
        }
    };
    let stage_active = |s: &str| registry.gauge("pipeline_stage_active", &[("stage", s)]);
    let load_active = stage_active("load");
    let prep_active = stage_active("prep");
    let recon_active = stage_active("recon");
    let sink_active = stage_active("sink");
    let stage_busy = |s: &str| registry.histogram("pipeline_stage_busy_us", &[("stage", s)]);
    let load_busy_us = stage_busy("load");
    let prep_busy_us = stage_busy("prep");
    let recon_busy_us = stage_busy("recon");
    let sink_busy_us = stage_busy("sink");
    let raw_depth = registry.gauge("pipeline_queue_depth", &[("queue", "raw")]);
    let out_depth = registry.gauge("pipeline_queue_depth", &[("queue", "out")]);
    let slabs_total = registry.counter("pipeline_slabs_total", &[]);
    let slices_total = registry.counter("pipeline_slices_total", &[]);
    let frame_reads_total = registry.counter("pipeline_frame_reads_total", &[]);
    let sink_busy_total = registry.counter("pipeline_sink_busy_us_total", &[]);
    let sink_overlap_total = registry.counter("pipeline_sink_overlapped_us_total", &[]);

    let (prep_busy, recon_busy, load_busy, sink_result) = std::thread::scope(|scope| {
        // raw slabs: (first detector row, n slices, u16 data laid out as
        // [slice][angle][col] — each slice's block is already a sinogram
        // worth of raw counts)
        let (raw_tx, raw_rx) = sync_channel::<(usize, usize, Vec<u16>)>(queue_depth);
        // reconstructed slabs: (z0, n slices, f32 slices)
        let (out_tx, out_rx) = sync_channel::<(usize, usize, Vec<f32>)>(queue_depth);

        let loader = {
            let (load_active, load_busy_us) = (load_active.clone(), load_busy_us.clone());
            let (raw_depth, frame_reads_total) = (raw_depth.clone(), frame_reads_total.clone());
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                for slab in 0..n_slabs {
                    load_active.inc();
                    let t = Instant::now();
                    let r0 = slab * slab_rows;
                    let r1 = (r0 + slab_rows).min(rows);
                    let k = r1 - r0;
                    let mut raw = vec![0u16; k * n_angles * cols];
                    for a in 0..n_angles {
                        let frame = source.frame(a);
                        for r in r0..r1 {
                            let src = &frame[r * cols..(r + 1) * cols];
                            let dst = ((r - r0) * n_angles + a) * cols;
                            raw[dst..dst + cols].copy_from_slice(src);
                        }
                    }
                    let dt = t.elapsed();
                    busy += dt;
                    load_busy_us.record_secs(dt.as_secs_f64());
                    frame_reads_total.add(n_angles as u64);
                    load_active.dec();
                    if raw_tx.send((r0, k, raw)).is_err() {
                        break; // downstream failed and hung up
                    }
                    raw_depth.inc();
                }
                busy
            })
        };

        let sink_thread = {
            let (recon_active, sink_active) = (recon_active.clone(), sink_active.clone());
            let (sink_busy_us, out_depth) = (sink_busy_us.clone(), out_depth.clone());
            let (sink_busy_total, sink_overlap_total) =
                (sink_busy_total.clone(), sink_overlap_total.clone());
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                let mut overlapped = Duration::ZERO;
                while let Ok((z0, k, data)) = out_rx.recv() {
                    out_depth.dec();
                    // recon occupancy is sampled at both ends of the
                    // write: a short write that starts in the prep gap
                    // between slabs but finishes under the next slab's
                    // reconstruction still counts as overlapped
                    let mut concurrent = recon_active.get() > 0;
                    sink_active.inc();
                    let t = Instant::now();
                    let mut failed = None;
                    for sink in sinks.iter_mut() {
                        if let Err(e) = sink.write_slab(z0, k, &data) {
                            failed = Some(e);
                            break;
                        }
                    }
                    let dt = t.elapsed();
                    sink_active.dec();
                    if let Some(e) = failed {
                        return (busy, overlapped, Err(e));
                    }
                    concurrent |= recon_active.get() > 0;
                    busy += dt;
                    sink_busy_us.record_secs(dt.as_secs_f64());
                    sink_busy_total.add(dt.as_micros() as u64);
                    if concurrent {
                        overlapped += dt;
                        sink_overlap_total.add(dt.as_micros() as u64);
                    }
                }
                let t = Instant::now();
                for sink in sinks.iter_mut() {
                    if let Err(e) = sink.finish() {
                        return (busy + t.elapsed(), overlapped, Err(e));
                    }
                }
                let dt = t.elapsed();
                busy += dt;
                sink_busy_total.add(dt.as_micros() as u64);
                (busy, overlapped, Ok(()))
            })
        };

        // Compute stage runs on the caller thread: fused prep, then
        // slice-parallel reconstruction over the shared plan.
        let mut prep_busy = Duration::ZERO;
        let mut recon_busy = Duration::ZERO;
        let mut post_scratch = prep.make_post_scratch();
        // one slab's sinograms, reused by every slab: `prep_angle_row`
        // overwrites every row it is given
        let mut sino_bufs: Vec<Sinogram> = (0..slab_rows)
            .map(|_| Sinogram::zeros(n_angles, cols))
            .collect();
        while let Ok((r0, k, raw)) = raw_rx.recv() {
            raw_depth.dec();
            prep_active.inc();
            let t = Instant::now();
            for (i, sino) in sino_bufs[..k].iter_mut().enumerate() {
                let base = i * n_angles * cols;
                for a in 0..n_angles {
                    let off = base + a * cols;
                    prep.prep_angle_row(r0 + i, &raw[off..off + cols], sino.row_mut(a));
                }
                if !prep.post_is_empty() {
                    prep.finish_sinogram(sino, &mut post_scratch);
                }
            }
            let sinos = &sino_bufs[..k];
            let dt = t.elapsed();
            prep_busy += dt;
            prep_busy_us.record_secs(dt.as_secs_f64());
            prep_active.dec();

            recon_active.inc();
            let t = Instant::now();
            let mut out = vec![0.0f32; k * cols * cols];
            out.par_chunks_mut(SLICE_LANES * cols * cols)
                .enumerate()
                .for_each_init(
                    || engine.make_scratch(),
                    |scratch, (i, slices)| {
                        let batch = &sinos[i * SLICE_LANES..k.min((i + 1) * SLICE_LANES)];
                        engine.recon_into(batch, scratch, slices)
                    },
                );
            let dt = t.elapsed();
            recon_active.dec();
            recon_busy += dt;
            recon_busy_us.record_secs(dt.as_secs_f64());
            slabs_total.inc();
            slices_total.add(k as u64);

            if out_tx.send((r0, k, out)).is_err() {
                break; // sink failed and hung up
            }
            out_depth.inc();
        }
        drop(out_tx);
        // If the sink failed and we broke out early, the loader may be
        // blocked on a full channel; dropping the receiver unblocks it.
        drop(raw_rx);

        let load_busy = loader.join().expect("loader thread panicked");
        let (sink_busy, sink_overlapped, sink_result) =
            sink_thread.join().expect("sink thread panicked");
        report.sink_busy = sink_busy;
        report.sink_busy_overlapped = sink_overlapped;
        (prep_busy, recon_busy, load_busy, sink_result)
    });

    report.load_busy = load_busy;
    report.prep_busy = prep_busy;
    report.recon_busy = recon_busy;
    report.wall = t0.elapsed();
    sink_result.map_err(PipelineError::Sink)?;
    Ok(report)
}

/// A [`SliceSink`] that assembles the reconstructed slices into an
/// in-memory volume (`data` laid out slice-major, matching
/// `Volume`-style `(z·ny + y)·nx + x` indexing).
#[derive(Debug, Default)]
pub struct VolumeSink {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f32>,
}

impl VolumeSink {
    pub fn new() -> VolumeSink {
        VolumeSink::default()
    }

    /// `(nx, ny, nz)` once `begin` has run.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Consume the sink, yielding the collected voxel data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }
}

impl SliceSink for VolumeSink {
    fn begin(&mut self, nx: usize, ny: usize, nz: usize) -> Result<(), String> {
        self.nx = nx;
        self.ny = ny;
        self.nz = nz;
        self.data = vec![0.0; nx * ny * nz];
        Ok(())
    }

    fn write_slab(&mut self, z0: usize, n_slices: usize, data: &[f32]) -> Result<(), String> {
        let slice = self.nx * self.ny;
        if (z0 + n_slices) > self.nz || data.len() != n_slices * slice {
            return Err(format!(
                "slab [{z0}, {}) out of range for nz {}",
                z0 + n_slices,
                self.nz
            ));
        }
        self.data[z0 * slice..(z0 + n_slices) * slice].copy_from_slice(data);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny in-memory scan with deterministic raw counts.
    struct MemScan {
        n_angles: usize,
        rows: usize,
        cols: usize,
        angles: Vec<f64>,
        dark: Vec<u16>,
        flat: Vec<u16>,
        frames: Vec<Vec<u16>>,
    }

    impl MemScan {
        fn synthetic(n_angles: usize, rows: usize, cols: usize) -> MemScan {
            let angles = (0..n_angles)
                .map(|a| a as f64 * std::f64::consts::PI / n_angles as f64)
                .collect();
            let dark = vec![100u16; rows * cols];
            let flat = vec![1000u16; rows * cols];
            let frames = (0..n_angles)
                .map(|a| {
                    (0..rows * cols)
                        .map(|i| 150 + ((a * 31 + i * 7) % 800) as u16)
                        .collect()
                })
                .collect();
            MemScan {
                n_angles,
                rows,
                cols,
                angles,
                dark,
                flat,
                frames,
            }
        }
    }

    impl ProjectionSource for MemScan {
        fn dims(&self) -> (usize, usize, usize) {
            (self.n_angles, self.rows, self.cols)
        }
        fn scan_angles(&self) -> Vec<f64> {
            self.angles.clone()
        }
        fn dark_frame(&self) -> &[u16] {
            &self.dark
        }
        fn flat_frame(&self) -> &[u16] {
            &self.flat
        }
        fn frame(&self, a: usize) -> &[u16] {
            &self.frames[a]
        }
    }

    fn run_volume(scan: &MemScan, cfg: &PipelineConfig) -> (Vec<f32>, PipelineReport) {
        let mut sink = VolumeSink::new();
        let report = {
            let mut sinks: [&mut dyn SliceSink; 1] = [&mut sink];
            run(scan, &mut sinks, cfg).expect("pipeline run")
        };
        (sink.into_data(), report)
    }

    /// The scan's geometry as `run` derives it, and a prep plan without
    /// a post-stage: what a slice-at-a-time reference needs.
    fn slicewise_reference(scan: &MemScan, cfg: &PipelineConfig) -> (Geometry, RawPrepPlan) {
        let geom = Geometry {
            angles: scan.scan_angles(),
            n_det: scan.cols,
            center: (scan.cols as f64 - 1.0) / 2.0,
        };
        let prep = RawPrepPlan::new(
            &scan.dark,
            &scan.flat,
            scan.rows,
            scan.cols,
            cfg.mu_scale,
            cfg.zinger_threshold,
        );
        (geom, prep)
    }

    /// Detector row `r` of every frame, prepped into `sino`.
    fn prep_row_into(scan: &MemScan, prep: &RawPrepPlan, r: usize, sino: &mut Sinogram) {
        for a in 0..scan.n_angles {
            let f = &scan.frames[a][r * scan.cols..(r + 1) * scan.cols];
            prep.prep_angle_row(r, f, sino.row_mut(a));
        }
    }

    /// Detector row `r` of every frame, prepped into one sinogram.
    fn prepped_sinogram(scan: &MemScan, prep: &RawPrepPlan, r: usize) -> Sinogram {
        let mut sino = Sinogram::zeros(scan.n_angles, scan.cols);
        prep_row_into(scan, prep, r, &mut sino);
        sino
    }

    #[test]
    fn pipeline_matches_slicewise_reference_fbp() {
        let scan = MemScan::synthetic(12, 6, 24);
        let cfg = PipelineConfig {
            recon: ReconKind::Fbp(FbpConfig::default()),
            mu_scale: 0.04,
            zinger_threshold: Some(0.5),
            slab_rows: 4,
            queue_depth: 2,
            ..Default::default()
        };
        let (vol, report) = run_volume(&scan, &cfg);
        assert_eq!(report.slices, 6);
        assert_eq!(report.slabs, 2);

        // per-slice reference: same prep plan, same recon plan, serial
        let (geom, prep) = slicewise_reference(&scan, &cfg);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let mut scratch = plan.make_scratch();
        for r in 0..scan.rows {
            let sino = prepped_sinogram(&scan, &prep, r);
            let img = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
            let got = &vol[r * scan.cols * scan.cols..(r + 1) * scan.cols * scan.cols];
            assert_eq!(img.data.as_slice(), got, "slice {r}");
        }
    }

    #[test]
    fn slab_size_does_not_change_output() {
        // every way the slab / lane-batch / worker grid can fall: slabs
        // shorter than, equal to and longer than a lane batch, tail
        // batches with idle lanes or a single slice, more workers than
        // batches — against the plain slice-at-a-time solve of the same
        // sinograms, for both engines
        let iter_cfg = IterConfig {
            iterations: 5,
            ..Default::default()
        };
        for recon in [
            ReconKind::Sirt(iter_cfg),
            ReconKind::Fbp(FbpConfig::default()),
        ] {
            for rows in [1usize, 3, 5, 9] {
                let scan = MemScan::synthetic(10, rows, 20);
                let cfg = PipelineConfig {
                    recon: recon.clone(),
                    mu_scale: 0.04,
                    zinger_threshold: Some(0.5),
                    ..Default::default()
                };
                let (geom, prep) = slicewise_reference(&scan, &cfg);
                let sinos = (0..rows).map(|r| prepped_sinogram(&scan, &prep, r));
                let expected: Vec<f32> = match &recon {
                    ReconKind::Sirt(c) => {
                        let plan = IterPlan::new(&geom, c).unwrap();
                        let mut scratch = plan.make_scratch();
                        sinos
                            .flat_map(|s| plan.sirt_slice_with(&s, &mut scratch).unwrap().data)
                            .collect()
                    }
                    ReconKind::Fbp(c) => {
                        let plan = ReconPlan::new(&geom, c).unwrap();
                        let mut scratch = plan.make_scratch();
                        sinos
                            .flat_map(|s| plan.fbp_slice_with(&s, &mut scratch).unwrap().data)
                            .collect()
                    }
                };
                for threads in [1, 2, 3] {
                    rayon::set_num_threads(threads);
                    for slab_rows in [0, 1, 2, 3, rows] {
                        for queue_depth in [1, 3] {
                            let cfg = PipelineConfig {
                                slab_rows,
                                queue_depth,
                                ..cfg.clone()
                            };
                            let (v, report) = run_volume(&scan, &cfg);
                            assert_eq!(
                                expected, v,
                                "{recon:?} rows {rows} slab_rows {slab_rows} threads {threads} changed the output"
                            );
                            if slab_rows == 0 {
                                // default: one full lane batch per worker
                                let slab = (SLICE_LANES * threads).min(rows);
                                assert_eq!(report.slabs, rows.div_ceil(slab));
                            }
                        }
                    }
                }
                rayon::set_num_threads(0);
            }
        }
    }

    #[test]
    fn prep_overwrites_a_reused_sinogram_buffer() {
        // `run` reuses one set of sinogram buffers for every slab; that
        // is only sound because prep writes every sample it is given
        let scan = MemScan::synthetic(7, 3, 19);
        let cfg = PipelineConfig {
            mu_scale: 0.04,
            zinger_threshold: Some(0.5),
            ..Default::default()
        };
        let (_, prep) = slicewise_reference(&scan, &cfg);
        for r in 0..scan.rows {
            let fresh = prepped_sinogram(&scan, &prep, r);
            let mut reused = Sinogram::zeros(scan.n_angles, scan.cols);
            reused.data.fill(f32::NAN);
            prep_row_into(&scan, &prep, r, &mut reused);
            assert!(reused.data.iter().all(|v| v.is_finite()));
            assert_eq!(fresh, reused, "row {r}");
        }
    }

    #[test]
    fn ring_and_paganin_flow_through_the_fused_post_stage() {
        let scan = MemScan::synthetic(12, 4, 24);
        let cfg = PipelineConfig {
            recon: ReconKind::Fbp(FbpConfig::default()),
            mu_scale: 0.04,
            zinger_threshold: Some(0.5),
            ring_window: Some(5),
            paganin_delta_beta: Some(30.0),
            slab_rows: 2,
            queue_depth: 2,
            registry: None,
        };
        let (vol, _) = run_volume(&scan, &cfg);

        // per-slice reference: same prep plan + the unfused
        // remove_stripes → paganin_filter chain, then the same recon plan
        let (geom, prep) = slicewise_reference(&scan, &cfg);
        let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
        let mut scratch = plan.make_scratch();
        for r in 0..scan.rows {
            let sino = prepped_sinogram(&scan, &prep, r);
            let sino = crate::prep::remove_stripes(&sino, 5);
            let sino = crate::prep::paganin_filter(&sino, 30.0);
            let img = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
            let got = &vol[r * scan.cols * scan.cols..(r + 1) * scan.cols * scan.cols];
            let rmse = (img
                .data
                .iter()
                .zip(got.iter())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / img.data.len() as f64)
                .sqrt();
            assert!(rmse < 1e-5, "slice {r}: fused post-stage rmse {rmse}");
        }
    }

    #[test]
    fn sink_error_propagates() {
        struct FailingSink;
        impl SliceSink for FailingSink {
            fn begin(&mut self, _: usize, _: usize, _: usize) -> Result<(), String> {
                Ok(())
            }
            fn write_slab(&mut self, _: usize, _: usize, _: &[f32]) -> Result<(), String> {
                Err("disk full".into())
            }
            fn finish(&mut self) -> Result<(), String> {
                Ok(())
            }
        }
        let scan = MemScan::synthetic(6, 4, 16);
        let mut sink = FailingSink;
        let mut sinks: [&mut dyn SliceSink; 1] = [&mut sink];
        let err = run(&scan, &mut sinks, &PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Sink(m) if m.contains("disk full")));
    }

    #[test]
    fn empty_scan_is_rejected() {
        let mut scan = MemScan::synthetic(4, 2, 8);
        scan.n_angles = 0;
        scan.frames.clear();
        scan.angles.clear();
        let mut sink = VolumeSink::new();
        let mut sinks: [&mut dyn SliceSink; 1] = [&mut sink];
        assert!(matches!(
            run(&scan, &mut sinks, &PipelineConfig::default()),
            Err(PipelineError::BadInput(_))
        ));
    }

    #[test]
    fn registry_sees_stage_occupancy_and_throughput() {
        let scan = MemScan::synthetic(16, 6, 32);
        let registry = Arc::new(Registry::new());
        let (_, report) = run_volume(
            &scan,
            &PipelineConfig {
                mu_scale: 0.04,
                slab_rows: 2,
                registry: Some(registry.clone()),
                ..Default::default()
            },
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["pipeline_slabs_total"], 3);
        assert_eq!(snap.counters["pipeline_slices_total"], 6);
        assert_eq!(snap.counters["pipeline_frame_reads_total"], 3 * 16);
        // every stage went busy and idle again; queues drained
        for stage in ["load", "prep", "recon", "sink"] {
            let key = format!("pipeline_stage_active{{stage=\"{stage}\"}}");
            assert_eq!(snap.gauges[&key], 0, "{stage} occupancy drained");
            let busy = format!("pipeline_stage_busy_us{{stage=\"{stage}\"}}");
            assert!(snap.histograms[&busy].count >= 3, "{stage} busy samples");
        }
        assert_eq!(snap.gauges["pipeline_queue_depth{queue=\"raw\"}"], 0);
        assert_eq!(snap.gauges["pipeline_queue_depth{queue=\"out\"}"], 0);
        // the counters re-derive the report's overlap accounting
        let busy_us = snap.counters["pipeline_sink_busy_us_total"];
        let overlap_us = snap.counters["pipeline_sink_overlapped_us_total"];
        assert!(overlap_us <= busy_us);
        // the counter truncates every write to whole microseconds, the
        // report truncates their sum
        let reported = report.sink_busy_overlapped.as_micros() as u64;
        assert!(reported - overlap_us <= report.slabs as u64);
    }

    #[test]
    fn report_accounts_all_stages() {
        let scan = MemScan::synthetic(16, 6, 32);
        let (_, report) = run_volume(
            &scan,
            &PipelineConfig {
                mu_scale: 0.04,
                ..Default::default()
            },
        );
        assert!(report.wall > Duration::ZERO);
        assert!(report.recon_busy > Duration::ZERO);
        assert!(report.slices_per_sec() > 0.0);
        assert!(report.sink_busy_overlapped <= report.sink_busy);
    }
}
