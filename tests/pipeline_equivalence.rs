//! Equivalence of the chunked scan-to-archive pipeline against the
//! retained per-slice baselines, on a simulated Shepp-Logan scan — at
//! one worker thread and at several, to catch ordering/racing bugs in
//! the slab/parallel plumbing.

use als_flows::realmode::{
    file_based_reconstruction_baseline, file_based_reconstruction_with, streaming_reconstruction,
    streaming_reconstruction_baseline, FileBranchConfig,
};
use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
use als_scidata::ScanFile;
use als_stream::slab::{FrameSlab, SlabFrame};
use als_stream::streamer::{reconstruct_preview, IncrementalScan, PlanCache, StreamerConfig};
use als_stream::{announce_for, ScanAnnounce};
use als_tomo::{Geometry, Volume};
use std::sync::Arc;

fn shepp_logan_scan(n: usize, nz: usize, n_angles: usize) -> (ScanFile, f64) {
    let vol = shepp_logan_volume(n, nz);
    let geom = Geometry::parallel_180(n_angles, n);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 4242);
    let frames = sim.all_frames();
    let scan = ScanFile::from_frames(
        "pipeline_equivalence",
        &frames,
        sim.dark_field(),
        sim.flat_field(),
        &geom.angles,
    )
    .expect("scan assembles");
    (scan, det.mu_scale)
}

fn rmse(a: &Volume, b: &Volume) -> f64 {
    assert_eq!((a.nx, a.ny, a.nz), (b.nx, b.ny, b.nz));
    let sum: f64 = a
        .data
        .iter()
        .zip(b.data.iter())
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum();
    (sum / a.data.len() as f64).sqrt()
}

/// Single test driving both thread counts sequentially:
/// `rayon::set_num_threads` is process-global, so the 1-thread and
/// N-thread runs must not race with each other.
#[test]
fn pipeline_matches_baseline_at_one_and_many_threads() {
    let (scan, mu) = shepp_logan_scan(48, 5, 24);
    let cfg = FileBranchConfig {
        sirt_iterations: 15,
        slab_rows: 2,
        ..Default::default()
    };

    let file_baseline = file_based_reconstruction_baseline(&scan, mu, &cfg);
    let stream_baseline = streaming_reconstruction_baseline(&scan, mu);

    let mut per_thread_file: Vec<Volume> = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let file_pipeline = file_based_reconstruction_with(&scan, mu, &cfg);
        let stream_pipeline = streaming_reconstruction(&scan, mu);

        // file branch: the pipeline's table-driven SIRT reassociates
        // floating-point sums, so agreement is ≤1e-5 RMSE, not bitwise
        let e = rmse(&file_baseline, &file_pipeline);
        assert!(
            e <= 1e-5,
            "file-based pipeline vs baseline rmse {e} at {threads} threads"
        );

        // streaming branch: identical fused prep + the same shared FBP
        // plan — must be exactly the per-slice result
        assert_eq!(
            stream_baseline, stream_pipeline,
            "streaming pipeline diverged at {threads} threads"
        );
        per_thread_file.push(file_pipeline);
    }
    rayon::set_num_threads(0);

    // thread count must not change the output at all
    assert_eq!(
        per_thread_file[0], per_thread_file[1],
        "pipeline output depends on worker thread count"
    );
}

/// The streaming service's incremental sinogram assembly (rows prepped as
/// each frame arrives, slab released immediately) must produce previews
/// **bit-identical** to the retained from-scratch path that gathers every
/// row from a whole-scan frame cache at scan end: per-element the float
/// operations are the same, only their interleaving differs.
#[test]
fn incremental_preview_is_bit_identical_to_from_scratch() {
    let vol = shepp_logan_volume(48, 4);
    let geom = Geometry::parallel_180(36, 48);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 97);
    let announce: ScanAnnounce = announce_for(&sim, "equiv", det.mu_scale);
    let frames: Vec<SlabFrame> = sim
        .all_frames()
        .into_iter()
        .map(|f| FrameSlab::detached(f.meta, f.data))
        .collect();

    let cfg = StreamerConfig::default();
    let scratch = reconstruct_preview(&announce, &frames, &cfg, "equiv").expect("scratch preview");

    let announce = Arc::new(announce);
    let mut scan = IncrementalScan::new(Arc::clone(&announce));
    for f in &frames {
        assert!(scan.ingest(f));
    }
    let plans = PlanCache::new();
    let incremental = scan
        .finish(&plans, &cfg.fbp, "equiv")
        .expect("incremental preview");

    assert_eq!(incremental.cached_frames, scratch.cached_frames);
    for (i, (a, b)) in incremental
        .slices
        .iter()
        .zip(scratch.slices.iter())
        .enumerate()
    {
        assert_eq!(a.data, b.data, "preview slice {i} diverged");
    }
}

/// Same equivalence when the acquisition is truncated — frames lost
/// upstream must shrink both paths' geometry identically. Three rows are
/// one partial lane batch of the FBP engine, six a full batch plus a
/// two-slice tail.
#[test]
fn incremental_preview_matches_from_scratch_on_partial_scans() {
    for rows in [3usize, 6] {
        let vol = shepp_logan_volume(32, rows);
        let geom = Geometry::parallel_180(24, 32);
        let det = DetectorConfig::default();
        let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 31);
        let announce = announce_for(&sim, "partial", det.mu_scale);
        // only 17 of the announced 24 frames arrive
        let frames: Vec<SlabFrame> = sim
            .all_frames()
            .into_iter()
            .take(17)
            .map(|f| FrameSlab::detached(f.meta, f.data))
            .collect();

        let cfg = StreamerConfig::default();
        let scratch = reconstruct_preview(&announce, &frames, &cfg, "partial").unwrap();
        let announce = Arc::new(announce);
        let mut scan = IncrementalScan::new(Arc::clone(&announce));
        for f in &frames {
            scan.ingest(f);
        }
        let incremental = scan.finish(&PlanCache::new(), &cfg.fbp, "partial").unwrap();

        assert_eq!(incremental.cached_frames, 17);
        assert_eq!(incremental.dropped_frames, 7);
        assert_eq!(scratch.dropped_frames, 7);
        assert_eq!(incremental.slices[1].height, rows);
        for (a, b) in incremental.slices.iter().zip(scratch.slices.iter()) {
            assert_eq!(a.data, b.data, "{rows} rows");
        }
    }
}
