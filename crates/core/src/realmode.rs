//! Real-mode glue: the end-to-end beamline session with actual threads,
//! actual frames, and actual reconstructions (laptop scale).
//!
//! This is what the examples and the F2 experiment run: detector →
//! PVA mirror → {file writer, streaming recon service}, then a file-based
//! "high-quality" reconstruction of the written scan — the same dual-path
//! topology as Figure 3, with real data flowing.
//!
//! Since PR 5 the file-based and streaming branches run through the
//! chunked scan-to-archive pipeline (`als_tomo::pipeline`): slab
//! transpose → fused prep → slice-parallel recon → archive sinks on a
//! dedicated I/O thread. The old per-slice paths live on only as test
//! oracles: `tests/pipeline_equivalence.rs` holds the per-slice file and
//! streaming branches it gates the pipeline against.

use crate::faults::{FaultKind, FaultPlan};
use als_phantom::{DetectorConfig, FrameMeta, ScanSimulator};
use als_scidata::{MultiscaleWriter, ScanFile, TiffStackSink};
use als_simcore::{SimDuration, SimInstant};
use als_stream::{
    announce_for, ChannelMirror, DeliveryMode, FileWriterService, FrameSlab, Preview, PvaServer,
    SlabPool, StreamMessage, StreamerConfig, StreamingReconService,
};
use als_tomo::pipeline::{self, PipelineConfig, PipelineReport, ReconKind, SliceSink, VolumeSink};
use als_tomo::{FbpConfig, Geometry, IterConfig, Volume};
use std::path::Path;
use std::time::Duration;

/// Everything a real-mode session produced.
#[derive(Debug)]
pub struct SessionResult {
    /// The streaming branch's preview (three slices + timings).
    pub preview: Preview,
    /// Path of the scan file the file writer produced.
    pub scan_path: std::path::PathBuf,
    /// The scan file's raw size in bytes.
    pub scan_bytes: u64,
    /// High-quality (file-based, iterative) reconstruction of the scan.
    pub file_based_volume: Volume,
    /// Streaming-quality (FBP) reconstruction for comparison.
    pub streaming_volume: Volume,
}

/// Tunables of the file-based "high quality" branch, previously
/// hardcoded inside `file_based_reconstruction`. Defaults match the
/// beamline 8.3.2 recipe the paper describes: 100 SIRT iterations and a
/// log-domain zinger threshold of 0.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileBranchConfig {
    /// SIRT iterations per slice (paper recipe: 100).
    pub sirt_iterations: usize,
    /// Log-domain zinger threshold; `None` disables zinger removal.
    pub zinger_threshold: Option<f32>,
    /// Pipeline slab height in detector rows (0 = engine default).
    pub slab_rows: usize,
    /// Bounded-channel depth between pipeline stages, in slabs.
    pub queue_depth: usize,
    /// Chunk shape `[z, y, x]` of the multiscale archive product.
    pub multiscale_chunk: [usize; 3],
    /// Pyramid depth of the multiscale archive product.
    pub multiscale_levels: usize,
}

impl Default for FileBranchConfig {
    fn default() -> Self {
        FileBranchConfig {
            sirt_iterations: 100,
            zinger_threshold: Some(0.5),
            slab_rows: 0,
            queue_depth: 2,
            multiscale_chunk: [4, 32, 32],
            multiscale_levels: 3,
        }
    }
}

impl FileBranchConfig {
    fn iter_config(&self) -> IterConfig {
        IterConfig {
            iterations: self.sirt_iterations,
            ..Default::default()
        }
    }

    fn pipeline_config(&self, mu_scale: f64) -> PipelineConfig {
        PipelineConfig {
            recon: ReconKind::Sirt(self.iter_config()),
            mu_scale,
            zinger_threshold: self.zinger_threshold,
            slab_rows: self.slab_rows,
            queue_depth: self.queue_depth,
            ..Default::default()
        }
    }
}

/// Run one complete dual-path session over a phantom volume with the
/// default detector model.
///
/// `vol` must have square slices; `n_angles` controls acquisition length.
pub fn run_session(
    vol: &Volume,
    n_angles: usize,
    out_dir: &Path,
    scan_id: &str,
    seed: u64,
) -> SessionResult {
    run_session_with(
        vol,
        n_angles,
        out_dir,
        scan_id,
        seed,
        DetectorConfig::default(),
    )
}

/// [`run_session`] with an explicit detector model (photon budget, noise).
pub fn run_session_with(
    vol: &Volume,
    n_angles: usize,
    out_dir: &Path,
    scan_id: &str,
    seed: u64,
    det_cfg: DetectorConfig,
) -> SessionResult {
    let geom = Geometry::parallel_180(n_angles, vol.nx);
    let mut sim = ScanSimulator::new(vol, geom.clone(), det_cfg, seed);

    // acquisition layer: IOC channel + mirror. The mirror is a Reliable
    // subscriber — a slow local storage server backpressures the IOC
    // rather than losing frames.
    let ioc = PvaServer::new();
    let mirror = ChannelMirror::spawn(
        ioc.subscribe_named("mirror", 1 << 10, DeliveryMode::Reliable),
        Duration::from_millis(10),
    );
    // orchestration-layer consumers on the mirrored channel: the file
    // writer must see every frame (Reliable), the preview path is a lossy
    // PVA monitor — dropping a preview frame costs quality, not data.
    let writer = FileWriterService::spawn(
        mirror
            .output()
            .subscribe_named("filewriter", 1 << 10, DeliveryMode::Reliable),
        out_dir,
    );
    let (streamer, previews) = StreamingReconService::spawn(
        mirror
            .output()
            .subscribe_named("preview", 1 << 10, DeliveryMode::Lossy),
        StreamerConfig::default(),
    );

    // drive the scan
    als_stream::publish_scan(&ioc, &mut sim, scan_id, det_cfg.mu_scale);

    let preview = previews
        .recv_timeout(Duration::from_secs(120))
        .expect("streaming preview within deadline");
    let written = writer
        .wait_completion(Duration::from_secs(120))
        .expect("scan file written");

    streamer.stop();
    writer.stop();
    mirror.stop();

    // file-based branch: load the written scan and run the high-quality
    // pipeline (preprocessing chain + iterative recon)
    let scan = ScanFile::load(&written.path).expect("scan loads");
    let file_based_volume = file_based_reconstruction(&scan, det_cfg.mu_scale);
    let streaming_volume = streaming_reconstruction(&scan, det_cfg.mu_scale);

    SessionResult {
        preview,
        scan_path: written.path,
        scan_bytes: written.bytes,
        file_based_volume,
        streaming_volume,
    }
}

fn volume_from_sink(sink: VolumeSink) -> Volume {
    let (nx, ny, nz) = sink.shape();
    let mut vol = Volume::zeros(nx, ny, nz);
    vol.data = sink.into_data();
    vol
}

/// The file-based "high quality" branch: fused preprocessing + SIRT
/// through the overlapped scan-to-archive pipeline, with the paper
/// recipe defaults ([`FileBranchConfig`]).
pub fn file_based_reconstruction(scan: &ScanFile, mu_scale: f64) -> Volume {
    file_based_reconstruction_with(scan, mu_scale, &FileBranchConfig::default())
}

/// [`file_based_reconstruction`] with explicit branch tunables.
pub fn file_based_reconstruction_with(
    scan: &ScanFile,
    mu_scale: f64,
    cfg: &FileBranchConfig,
) -> Volume {
    let mut sink = VolumeSink::new();
    {
        let mut sinks: [&mut dyn SliceSink; 1] = [&mut sink];
        pipeline::run(scan, &mut sinks, &cfg.pipeline_config(mu_scale))
            .expect("file-based pipeline succeeds");
    }
    volume_from_sink(sink)
}

/// The streaming-quality branch: plain FBP through the pipeline, no
/// zinger removal.
pub fn streaming_reconstruction(scan: &ScanFile, mu_scale: f64) -> Volume {
    let mut sink = VolumeSink::new();
    {
        let mut sinks: [&mut dyn SliceSink; 1] = [&mut sink];
        let cfg = PipelineConfig {
            recon: ReconKind::Fbp(FbpConfig::default()),
            mu_scale,
            zinger_threshold: None,
            ..Default::default()
        };
        pipeline::run(scan, &mut sinks, &cfg).expect("streaming pipeline succeeds");
    }
    volume_from_sink(sink)
}

/// Archive products of one scan-to-archive run.
#[derive(Debug)]
pub struct ArchiveResult {
    /// The reconstructed volume (also streamed to the archive sinks).
    pub volume: Volume,
    /// Per-stage pipeline timing.
    pub report: PipelineReport,
    /// Directory holding the per-slice TIFF stack.
    pub tiff_dir: std::path::PathBuf,
    /// Directory holding the multiscale chunked store.
    pub multiscale_dir: std::path::PathBuf,
}

/// The complete file-based product: reconstruct `scan` through the
/// overlapped pipeline and stream the slices into both archive formats
/// the paper's flows publish — a TIFF stack (`out_dir/tiff`) and a
/// multiscale chunked store (`out_dir/multiscale`) — while
/// reconstruction is still running.
pub fn scan_to_archive(
    scan: &ScanFile,
    mu_scale: f64,
    cfg: &FileBranchConfig,
    out_dir: &Path,
) -> ArchiveResult {
    let tiff_dir = out_dir.join("tiff");
    let multiscale_dir = out_dir.join("multiscale");
    let mut volume = VolumeSink::new();
    let mut tiff = TiffStackSink::new(&tiff_dir);
    let mut mzarr = MultiscaleWriter::new(
        &multiscale_dir,
        &scan.scan_name(),
        cfg.multiscale_chunk,
        cfg.multiscale_levels,
    );
    let report = {
        let mut sinks: [&mut dyn SliceSink; 3] = [&mut volume, &mut tiff, &mut mzarr];
        pipeline::run(scan, &mut sinks, &cfg.pipeline_config(mu_scale))
            .expect("scan-to-archive pipeline succeeds")
    };
    ArchiveResult {
        volume: volume_from_sink(volume),
        report,
        tiff_dir,
        multiscale_dir,
    }
}

/// What a storm-afflicted acquisition publish did to the stream.
#[derive(Debug, Clone, Default)]
pub struct StormPublishStats {
    /// Genuine detector frames published.
    pub published: usize,
    /// Corrupt frames injected by [`FaultKind::TransferCorruption`]
    /// windows (wrong-shape metadata; downstream validation rejects and
    /// counts them).
    pub corrupt_injected: usize,
    /// Frames whose publish was throttled by an
    /// [`FaultKind::EsnetBrownout`] window.
    pub brownout_throttled: usize,
    /// Total wall time spent in brownout throttling.
    pub throttle_wall: Duration,
}

/// Drive a scan through `server` while `plan`'s fault storm plays out
/// over the acquisition timeline.
///
/// Each frame `i` maps onto the storm's simulation clock at
/// `i × sim_seconds_per_frame`. While an ESnet brownout window covers
/// that instant the source pace is divided by the window's
/// `capacity_factor` (a 0.25× brownout makes frames 4× slower), modelled
/// as a real sleep of `frame_period / capacity_factor` instead of
/// `frame_period`; `frame_period = ZERO` publishes at full speed outside
/// brownouts. While a transfer-corruption window covers the instant, its
/// burst budget injects corrupt frames — detached slabs whose metadata
/// disagrees with the announcement — which downstream validation must
/// reject and count, never write or reconstruct.
///
/// Reliable subscribers add their own backpressure on top: a stalled
/// file writer slows this loop through `publish` itself.
pub fn publish_scan_under_storm(
    server: &PvaServer,
    sim: &mut ScanSimulator,
    scan_id: &str,
    mu_scale: f64,
    plan: &FaultPlan,
    frame_period: Duration,
    sim_seconds_per_frame: f64,
) -> StormPublishStats {
    let pool = SlabPool::new(sim.rows() * sim.cols());
    let announce = announce_for(sim, scan_id, mu_scale);
    let (rows, cols) = (announce.rows, announce.cols);
    server.publish(StreamMessage::ScanStart(std::sync::Arc::new(announce)));
    let mut stats = StormPublishStats::default();
    let n = sim.n_frames();
    let mut corrupt_budget: Vec<Option<u32>> = vec![None; plan.windows.len()];
    for a in 0..n {
        let t = SimInstant::ZERO + SimDuration::from_secs_f64(a as f64 * sim_seconds_per_frame);
        let mut pace = frame_period;
        for (w, window) in plan.windows.iter().enumerate() {
            if !window.contains(t) {
                continue;
            }
            match window.kind {
                FaultKind::EsnetBrownout { capacity_factor } => {
                    pace = Duration::from_secs_f64(
                        frame_period.as_secs_f64().max(1e-4) / capacity_factor,
                    );
                    stats.brownout_throttled += 1;
                }
                FaultKind::TransferCorruption { burst } => {
                    let left = corrupt_budget[w].get_or_insert(burst);
                    if *left > 0 {
                        *left -= 1;
                        stats.corrupt_injected += 1;
                        server.publish(StreamMessage::Frame(FrameSlab::detached(
                            FrameMeta {
                                frame_id: a,
                                angle_rad: 0.0,
                                n_angles: n,
                                rows: rows * 2,
                                cols: cols * 2,
                            },
                            vec![0u16; rows * cols * 4],
                        )));
                    }
                }
                _ => {}
            }
        }
        if pace > Duration::ZERO {
            std::thread::sleep(pace);
            if pace > frame_period {
                stats.throttle_wall += pace - frame_period;
            }
        }
        let frame = pool.frame_from(|buf| sim.fill_frame(a, buf));
        server.publish(StreamMessage::Frame(frame));
        stats.published += 1;
    }
    server.publish(StreamMessage::ScanEnd {
        scan_id: std::sync::Arc::from(scan_id),
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_phantom::shepp_logan_volume;
    use als_tomo::quality::mse_in_disk;

    #[test]
    fn dual_path_session_produces_both_products() {
        let dir = std::env::temp_dir().join("realmode_session");
        std::fs::remove_dir_all(&dir).ok();
        let vol = shepp_logan_volume(48, 3);
        let r = run_session(&vol, 48, &dir, "session_test", 21);
        // streaming preview exists with the right shape
        assert_eq!(r.preview.slices[0].width, 48);
        assert_eq!(r.preview.cached_frames, 48);
        // the scan file landed on disk
        assert!(r.scan_path.exists());
        assert!(r.scan_bytes > 0);
        // both volumes have the right shape
        assert_eq!((r.file_based_volume.nx, r.file_based_volume.nz), (48, 3));
        assert_eq!((r.streaming_volume.nx, r.streaming_volume.nz), (48, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_based_branch_beats_streaming_quality() {
        // the paper's claim: the slower file-based branch produces
        // higher-quality reconstructions than the fast streaming branch
        let dir = std::env::temp_dir().join("realmode_quality");
        std::fs::remove_dir_all(&dir).ok();
        let truth = shepp_logan_volume(48, 2);
        // angle-starved acquisition: where iterative + preprocessing shine
        let r = run_session(&truth, 16, &dir, "quality_test", 5);
        let mut err_file = 0.0;
        let mut err_stream = 0.0;
        for z in 0..2 {
            let t = truth.slice_xy(z);
            err_file += mse_in_disk(&t, &r.file_based_volume.slice_xy(z));
            err_stream += mse_in_disk(&t, &r.streaming_volume.slice_xy(z));
        }
        assert!(
            err_file < err_stream,
            "file-based mse {err_file} should beat streaming {err_stream}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn small_scan(n: usize, nz: usize, n_angles: usize) -> (ScanFile, f64) {
        let vol = shepp_logan_volume(n, nz);
        let geom = Geometry::parallel_180(n_angles, n);
        let det = DetectorConfig::default();
        let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 77);
        let frames = sim.all_frames();
        let scan = ScanFile::from_frames(
            "realmode_unit",
            &frames,
            sim.dark_field(),
            sim.flat_field(),
            &geom.angles,
        )
        .unwrap();
        (scan, det.mu_scale)
    }

    #[test]
    fn file_branch_config_controls_iterations() {
        let (scan, mu) = small_scan(24, 2, 16);
        let quick = FileBranchConfig {
            sirt_iterations: 3,
            ..Default::default()
        };
        let better = FileBranchConfig {
            sirt_iterations: 40,
            ..Default::default()
        };
        let truth = shepp_logan_volume(24, 2);
        let v_quick = file_based_reconstruction_with(&scan, mu, &quick);
        let v_better = file_based_reconstruction_with(&scan, mu, &better);
        let e_quick = mse_in_disk(&truth.slice_xy(0), &v_quick.slice_xy(0));
        let e_better = mse_in_disk(&truth.slice_xy(0), &v_better.slice_xy(0));
        assert!(
            e_better < e_quick,
            "more iterations should reduce error: {e_quick} -> {e_better}"
        );
    }

    #[test]
    fn storm_publish_survives_corruption_and_brownout() {
        use crate::faults::FaultWindow;
        let dir = std::env::temp_dir().join("realmode_storm");
        std::fs::remove_dir_all(&dir).ok();
        let vol = shepp_logan_volume(32, 2);
        let geom = Geometry::parallel_180(20, 32);
        let det = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let mut sim = ScanSimulator::new(&vol, geom, det, 11);
        // hand-built storm: brownout over frames 5..10, corruption burst
        // of 2 over frames 12..15 (1 sim second per frame)
        let plan = FaultPlan::none()
            .with_window(FaultWindow::new(
                SimInstant::ZERO + SimDuration::from_secs(5),
                SimInstant::ZERO + SimDuration::from_secs(10),
                FaultKind::EsnetBrownout {
                    capacity_factor: 0.25,
                },
            ))
            .with_window(FaultWindow::new(
                SimInstant::ZERO + SimDuration::from_secs(12),
                SimInstant::ZERO + SimDuration::from_secs(15),
                FaultKind::TransferCorruption { burst: 2 },
            ));

        let ioc = PvaServer::new();
        let writer = FileWriterService::spawn(
            ioc.subscribe_named("filewriter", 64, DeliveryMode::Reliable),
            &dir,
        );
        let (streamer, previews) = StreamingReconService::spawn(
            ioc.subscribe_named("preview", 64, DeliveryMode::Lossy),
            StreamerConfig::default(),
        );
        let stats = publish_scan_under_storm(
            &ioc,
            &mut sim,
            "storm",
            det.mu_scale,
            &plan,
            Duration::ZERO,
            1.0,
        );
        assert_eq!(stats.published, 20);
        assert_eq!(stats.corrupt_injected, 2);
        assert_eq!(stats.brownout_throttled, 5);
        assert!(stats.throttle_wall > Duration::ZERO);

        // the preview reconstructs from exactly the 20 genuine frames
        let p = previews
            .recv_timeout(Duration::from_secs(30))
            .expect("preview despite the storm");
        assert_eq!(p.cached_frames, 20);
        assert_eq!(p.rejected_frames, 2, "corrupt frames rejected, counted");
        // the written file holds only genuine frames too
        let w = writer
            .wait_completion(Duration::from_secs(30))
            .expect("scan written despite the storm");
        assert_eq!(w.n_frames, 20);
        assert_eq!(w.rejected_frames, 2);
        streamer.stop();
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_to_archive_writes_both_products() {
        let dir = std::env::temp_dir().join("realmode_archive");
        std::fs::remove_dir_all(&dir).ok();
        let (scan, mu) = small_scan(32, 4, 16);
        let cfg = FileBranchConfig {
            sirt_iterations: 5,
            multiscale_chunk: [2, 16, 16],
            multiscale_levels: 2,
            ..Default::default()
        };
        let r = scan_to_archive(&scan, mu, &cfg, &dir);
        assert_eq!((r.volume.nx, r.volume.ny, r.volume.nz), (32, 32, 4));
        assert_eq!(r.report.slices, 4);
        // TIFF stack matches the in-memory volume slice for slice
        let stack = als_scidata::tiff::read_stack(&r.tiff_dir).unwrap();
        assert_eq!(stack.len(), 4);
        for (z, img) in stack.iter().enumerate() {
            assert_eq!(img.data, r.volume.slice_xy(z).data, "tiff slice {z}");
        }
        // multiscale store opens and level 0 round-trips the volume
        let store = als_scidata::MultiscaleStore::open(&r.multiscale_dir).unwrap();
        assert_eq!(store.n_levels(), 2);
        assert_eq!(store.read_level(0).unwrap(), r.volume);
        std::fs::remove_dir_all(&dir).ok();
    }
}
