//! Zero-copy multi-detector streaming benchmark.
//!
//! Measures the `als-stream` hot path end to end: slab-pooled frames
//! published once and shared by every consumer, bounded queues with
//! exact drop accounting, reconstruction on arrival, and N concurrent
//! detector streams multiplexed onto one shared reconstruction plan.
//!
//! Writes `BENCH_stream.json` at the workspace root:
//!
//! * a stream-count sweep (1/2/4/8 concurrent detectors) with aggregate
//!   frames/s and preview-latency p50/p99,
//! * proof the hot path performs **zero** pixel deep-copies and a
//!   bounded slab working set,
//! * the reconstruct-on-arrival preview against the from-scratch
//!   oracle (bit-identical), with what is left at scan end
//!   (`scan_end_residual_ms`), what each frame costs on arrival
//!   (`ingest_us_per_frame`) and the frame rate one core sustains
//!   (`sustained_frames_per_s_one_core` — past it the queue grows),
//! * a `core::faults` storm arm (brownout throttling + corruption
//!   bursts) with the measured preview-latency SLO: the paper-scale
//!   equivalent p99 — the paper's *post-acquisition* reconstruction
//!   model plus the measured machinery overhead — must stay under 10 s
//!   on the sim clock.
//!
//! `--quick` (CI) runs a reduced problem and compares the single-stream
//! wall time against the committed reference in
//! `ci/stream_quick_ref.json`, exiting nonzero on a >2x regression.

use als_flows::faults::FaultPlan;
use als_flows::realmode::publish_scan_under_storm;
use als_flows::streaming_model::streaming_timing;
use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
use als_stream::slab::{deep_copy_count, FrameSlab, SlabFrame};
use als_stream::streamer::IncrementalScan;
use als_stream::{
    announce_for, publish_scan_pooled, DeliveryMode, FileWriterConfig, FileWriterService,
    ScanAnnounce, SlabPool, StreamHub,
};
use als_tomo::throughput::ScanDims;
use als_tomo::{FbpConfig, Geometry, RawPrepPlan, ReconPlan, Sinogram, Volume};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Nearest-rank percentile over an unsorted sample, in milliseconds.
fn percentile_ms(samples: &[Duration], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let idx = ((q * ms.len() as f64).ceil() as usize).clamp(1, ms.len()) - 1;
    ms[idx]
}

struct SweepResult {
    json: String,
    wall_s: f64,
}

/// One stream-count sweep entry: `streams` concurrent detectors, each
/// publishing `scans` acquisitions through its own lane of a shared hub.
fn sweep_entry(streams: usize, scans: usize, n: usize, nz: usize, n_angles: usize) -> SweepResult {
    let hub = StreamHub::new();
    let lanes: Vec<_> = (0..streams)
        .map(|i| hub.open_lane(&format!("det{i}"), FbpConfig::default(), 1 << 12))
        .collect();
    let vol = Arc::new(shepp_logan_volume(n, nz));
    let det = DetectorConfig {
        noise: false,
        ..Default::default()
    };

    let t0 = Instant::now();
    // one publisher thread per detector, each with its own slab pool
    let publishers: Vec<_> = lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            let server = Arc::clone(&lane.server);
            let vol = Arc::clone(&vol);
            std::thread::spawn(move || {
                let pool = SlabPool::new(n * nz);
                for s in 0..scans {
                    let geom = Geometry::parallel_180(n_angles, n);
                    let mut sim = ScanSimulator::new(&vol, geom, det, (i * 1000 + s) as u64);
                    publish_scan_pooled(
                        &server,
                        &mut sim,
                        &format!("det{i}_s{s}"),
                        det.mu_scale,
                        &pool,
                    );
                }
                pool.allocated()
            })
        })
        .collect();
    // one collector per lane, recording preview latencies
    let collectors: Vec<_> = lanes
        .iter()
        .map(|lane| {
            let mut feedback = Vec::with_capacity(scans);
            let mut recon = Vec::with_capacity(scans);
            for _ in 0..scans {
                let p = lane
                    .previews
                    .recv_timeout(Duration::from_secs(120))
                    .expect("preview within deadline");
                assert_eq!(p.dropped_frames, 0, "sweep stream must not lose frames");
                feedback.push(p.feedback_wall);
                recon.push(p.recon_wall);
            }
            (feedback, recon)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let max_slabs = publishers
        .into_iter()
        .map(|h| h.join().expect("publisher joins"))
        .max()
        .unwrap_or(0);

    let feedback: Vec<Duration> = collectors.iter().flat_map(|(f, _)| f.clone()).collect();
    let recon: Vec<Duration> = collectors.iter().flat_map(|(_, r)| r.clone()).collect();
    let frames_total = (streams * scans * n_angles) as f64;
    let frames_per_s = frames_total / wall_s;
    let p50 = percentile_ms(&feedback, 0.50);
    let p99 = percentile_ms(&feedback, 0.99);
    let recon_p50 = percentile_ms(&recon, 0.50);

    let snap = hub.registry().snapshot();
    let dropped: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stream_frames_dropped_total"))
        .map(|(_, &v)| v)
        .sum();
    let published: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stream_frames_published_total"))
        .map(|(_, &v)| v)
        .sum();
    let (plans_built, plan_hits) = (hub.plans().misses(), hub.plans().hits());

    println!(
        "{streams} stream(s) x {scans} scans: {frames_per_s:.0} frames/s, preview p50 {p50:.2} ms p99 {p99:.2} ms, {plans_built} plan(s) built ({plan_hits} cache hits), peak {max_slabs} slabs/stream, {dropped} dropped"
    );
    for lane in lanes {
        lane.close();
    }
    let json = format!(
        "    {{\"streams\": {streams}, \"scans_per_stream\": {scans}, \"frames_per_s\": {}, \"preview_p50_ms\": {}, \"preview_p99_ms\": {}, \"recon_p50_ms\": {}, \"previews\": {}, \"messages_published\": {published}, \"frames_dropped\": {dropped}, \"plans_built\": {plans_built}, \"plan_cache_hits\": {plan_hits}, \"peak_slabs_per_stream\": {max_slabs}}}",
        json_num(frames_per_s),
        json_num(p50),
        json_num(p99),
        json_num(recon_p50),
        feedback.len(),
    );
    SweepResult { json, wall_s }
}

/// The from-scratch oracle: every sinogram row gathered and prepped from
/// the whole frame list at scan end, a fresh plan on the arrival-order
/// angles, one `fbp_volume`.
fn oracle_volume(announce: &ScanAnnounce, frames: &[SlabFrame]) -> Volume {
    let cols = announce.cols;
    let (dark, flat) = (&announce.dark, &announce.flat);
    let prep = RawPrepPlan::new(dark, flat, announce.rows, cols, announce.mu_scale, None);
    let sinos: Vec<Sinogram> = (0..announce.rows)
        .map(|r| {
            let mut sino = Sinogram::zeros(frames.len(), cols);
            for (a, frame) in frames.iter().enumerate() {
                prep.prep_angle_row(r, &frame.data()[r * cols..(r + 1) * cols], sino.row_mut(a));
            }
            sino
        })
        .collect();
    let geom = Geometry {
        angles: frames.iter().map(|f| f.meta.angle_rad).collect(),
        n_det: cols,
        center: (cols as f64 - 1.0) / 2.0,
    };
    let plan = ReconPlan::new(&geom, &FbpConfig::default()).expect("scan geometry");
    plan.fbp_volume(&sinos).expect("oracle volume")
}

/// Reconstruction on arrival against the from-scratch oracle: must be
/// bit-identical. The ingest loop runs flat out on this thread with
/// one worker, so its frame rate is what one core sustains.
fn equivalence_entry(n: usize, nz: usize, n_angles: usize) -> String {
    let vol = shepp_logan_volume(n, nz);
    let geom = Geometry::parallel_180(n_angles, n);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, geom, det, 4141);
    let announce = announce_for(&sim, "equiv", det.mu_scale);
    let frames: Vec<SlabFrame> = sim
        .all_frames()
        .into_iter()
        .map(|f| FrameSlab::detached(f.meta, f.data))
        .collect();

    let t = Instant::now();
    let oracle = oracle_volume(&announce, &frames);
    let scratch_ms = t.elapsed().as_secs_f64() * 1e3;

    let announce = Arc::new(announce);
    rayon::set_num_threads(1);
    // the first assembly builds the shared plan; the timed one finds it
    drop(IncrementalScan::new(Arc::clone(&announce)));
    let mut scan = IncrementalScan::new(Arc::clone(&announce));
    let t = Instant::now();
    for f in &frames {
        scan.ingest(f);
    }
    let ingest_s = t.elapsed().as_secs_f64();
    rayon::set_num_threads(0);
    let t = Instant::now();
    let preview = scan.finish("equiv").expect("preview");
    let residual_ms = t.elapsed().as_secs_f64() * 1e3;

    let want = [
        oracle.slice_xy(nz / 2),
        oracle.slice_xz(n / 2),
        oracle.slice_yz(n / 2),
    ];
    let bits = |img: &als_tomo::Image| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let identical = preview
        .slices
        .iter()
        .zip(&want)
        .all(|(a, b)| bits(a) == bits(b));
    assert!(
        identical,
        "preview reconstructed on arrival diverged from the from-scratch oracle"
    );
    let ingest_us = ingest_s * 1e6 / frames.len() as f64;
    let sustained = frames.len() as f64 / ingest_s;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "on-arrival equivalence ({n}x{n}x{nz}, {n_angles} angles): bit-identical; scan-end residual {residual_ms:.2} ms vs from-scratch {scratch_ms:.1} ms; ingest {ingest_us:.1} us/frame = {sustained:.0} frames/s sustained on one core"
    );
    format!(
        "  {{\"scan\": {{\"n\": {n}, \"nz\": {nz}, \"n_angles\": {n_angles}}}, \"available_cores\": {cores}, \"bit_identical\": {identical}, \"scan_end_residual_ms\": {}, \"from_scratch_ms\": {}, \"ingest_us_per_frame\": {}, \"sustained_frames_per_s_one_core\": {}}}",
        json_num(residual_ms),
        json_num(scratch_ms),
        json_num(ingest_us),
        json_num(sustained)
    )
}

/// The storm arm: one detector stream with the full dual-path topology
/// (reliable file writer + lossy preview monitor) publishing under a
/// `FaultPlan::storm` — ESnet brownouts throttle the source, corruption
/// bursts inject malformed frames — while the preview-latency SLO is
/// measured.
fn storm_entry(
    scans: usize,
    n: usize,
    nz: usize,
    n_angles: usize,
    frame_period: Duration,
) -> (String, bool) {
    use als_simcore::SimDuration;
    let hub = StreamHub::new();
    let lane = hub.open_lane("storm0", FbpConfig::default(), 1 << 12);
    let out_dir = std::env::temp_dir().join("bench_stream_storm");
    std::fs::remove_dir_all(&out_dir).ok();
    let writer = FileWriterService::spawn_with(
        lane.server
            .subscribe_named("filewriter", 256, DeliveryMode::Reliable),
        &out_dir,
        FileWriterConfig {
            stream: "storm0".into(),
            registry: Some(Arc::clone(hub.registry())),
            ..Default::default()
        },
    );
    let vol = shepp_logan_volume(n, nz);
    let det = DetectorConfig {
        noise: false,
        ..Default::default()
    };

    let mut published = 0usize;
    let mut corrupt = 0usize;
    let mut throttled = 0usize;
    let mut feedback = Vec::with_capacity(scans);
    let mut recon = Vec::with_capacity(scans);
    let mut rejected_total = 0usize;
    for s in 0..scans {
        let geom = Geometry::parallel_180(n_angles, n);
        let mut sim = ScanSimulator::new(&vol, geom, det, 7000 + s as u64);
        // the storm horizon covers the acquisition at 1 sim-second/frame
        let plan = FaultPlan::storm(s as u64, SimDuration::from_secs(n_angles as u64), 1.0);
        let stats = publish_scan_under_storm(
            &lane.server,
            &mut sim,
            &format!("storm_s{s}"),
            det.mu_scale,
            &plan,
            frame_period,
            1.0,
        );
        published += stats.published;
        corrupt += stats.corrupt_injected;
        throttled += stats.brownout_throttled;
        let p = lane
            .previews
            .recv_timeout(Duration::from_secs(120))
            .expect("preview despite the storm");
        assert_eq!(
            p.cached_frames + p.dropped_frames,
            n_angles,
            "storm accounting must close"
        );
        assert!(
            p.rejected_frames <= stats.corrupt_injected,
            "rejections can only come from injected corruption"
        );
        rejected_total += p.rejected_frames;
        feedback.push(p.feedback_wall);
        recon.push(p.recon_wall);
        let w = writer
            .wait_completion(Duration::from_secs(120))
            .expect("scan written despite the storm");
        assert_eq!(w.n_frames, stats.published, "writer keeps every real frame");
    }
    writer.stop();
    lane.close();
    std::fs::remove_dir_all(&out_dir).ok();

    let p50 = percentile_ms(&feedback, 0.50);
    let p99 = percentile_ms(&feedback, 0.99);
    let recon_p50 = percentile_ms(&recon, 0.50);

    // SLO on the sim clock, against the paper's *post-acquisition*
    // model: the calibrated paper-scale figures say reconstruction takes
    // ~7-8 s and the preview send <1 s on a NERSC GPU node once the scan
    // has ended (this service instead reconstructs while the scan
    // arrives, so its own `recon_wall` is only the scan-end residual).
    // What the *streaming machinery* adds on top is additive, not
    // proportional to recon cost: the measured p99 feedback minus the
    // median residual is that added overhead at its worst, under the
    // storm; the paper-scale equivalent p99 (paper recon + paper send +
    // measured overhead) must stay under the 10 s figure.
    let paper = streaming_timing(&ScanDims::paper_reference());
    let paper_recon_s = paper.recon.as_secs_f64();
    let paper_send_s = paper.preview_send.as_secs_f64();
    let overhead_p99_s = (p99 - recon_p50).max(0.0) / 1e3;
    let equivalent_p99_s = paper_recon_s + paper_send_s + overhead_p99_s;
    let pass = equivalent_p99_s < 10.0;
    println!(
        "storm arm: {published} frames published, {corrupt} corrupt injected ({rejected_total} rejected downstream), {throttled} brownout-throttled; preview p50 {p50:.2} ms p99 {p99:.2} ms"
    );
    println!(
        "preview SLO (paper's post-acquisition model): machinery overhead p99 = {:.2} ms; paper-scale equivalent p99 = {paper_recon_s:.1} s recon + {paper_send_s:.2} s send + overhead = {equivalent_p99_s:.2} s (target < 10 s) -> {}",
        overhead_p99_s * 1e3,
        if pass { "PASS" } else { "FAIL" }
    );
    let json = format!(
        "  {{\"scans\": {scans}, \"frames_published\": {published}, \"corrupt_injected\": {corrupt}, \"corrupt_rejected\": {rejected_total}, \"brownout_throttled\": {throttled}, \"preview_p50_ms\": {}, \"preview_p99_ms\": {}, \"recon_p50_ms\": {}, \"slo\": {{\"model\": \"paper post-acquisition recon + send, plus measured machinery overhead\", \"paper_recon_s\": {}, \"paper_send_s\": {}, \"machinery_overhead_p99_ms\": {}, \"equivalent_p99_s\": {}, \"target_s\": 10.0, \"pass\": {pass}}}}}",
        json_num(p50),
        json_num(p99),
        json_num(recon_p50),
        json_num(paper_recon_s),
        json_num(paper_send_s),
        json_num(overhead_p99_s * 1e3),
        json_num(equivalent_p99_s)
    );
    (json, pass)
}

/// Pull `"quick_single_stream_wall_ms": <num>` out of the committed
/// reference file. Returns `None` when the file is absent.
fn load_quick_reference(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("quick_single_stream_wall_ms")?.as_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, nz, n_angles, scans, storm_scans, frame_period) = if quick {
        (48, 3, 48, 4, 3, Duration::ZERO)
    } else {
        (64, 4, 96, 6, 6, Duration::from_micros(200))
    };
    let deep_copies_before = deep_copy_count();

    println!("stream sweep: {n}x{n}x{nz}, {n_angles} angles, {scans} scans per stream");
    let sweep: Vec<SweepResult> = [1usize, 2, 4, 8]
        .iter()
        .map(|&streams| sweep_entry(streams, scans, n, nz, n_angles))
        .collect();

    // full mode times the on-arrival path on `BENCHMARK.json`'s paced scan
    let equivalence = if quick {
        equivalence_entry(n, nz, n_angles)
    } else {
        equivalence_entry(128, 16, 180)
    };
    let (storm, slo_pass) = storm_entry(storm_scans, n, nz, n_angles, frame_period);

    // the whole bench — fanout, mirror-free dual consumers, on-arrival
    // reconstruction, file writing — must not have deep-copied a frame
    let deep_copies = deep_copy_count() - deep_copies_before;
    assert_eq!(
        deep_copies, 0,
        "hot path performed {deep_copies} pixel deep-copies"
    );
    println!("zero-copy check: {deep_copies} frame deep-copies across the whole bench");

    let row_json: Vec<&str> = sweep.iter().map(|r| r.json.as_str()).collect();
    let json = format!(
        "{{\n  \"bench\": \"stream\",\n  \"mode\": \"{}\",\n  \"note\": \"zero-copy multi-detector streaming: slab-pooled frames published once and shared by monitor/writer/preview consumers, bounded queues with exact drop accounting, frames filtered and backprojected on arrival (scan-end work = the residual; recon_p50_ms is that residual), N streams multiplexed onto one shared ReconPlan; on_arrival_equivalence carries the one-core ingest cost and the frame rate it sustains on available_cores, and its scan_end_residual_ms is finish() of a complete scan, whose last frame already flushed every pending angle; storm arm publishes under core::faults brownout+corruption with the paper-scale preview-latency SLO on the paper's post-acquisition model (equivalent p99 < 10 s on the sim clock)\",\n  \"scan\": {{\"n\": {n}, \"nz\": {nz}, \"n_angles\": {n_angles}}},\n  \"zero_copy\": {{\"frame_deep_copies\": {deep_copies}}},\n  \"quick_single_stream_wall_ms\": {},\n  \"stream_sweep\": [\n{}\n  ],\n  \"on_arrival_equivalence\": \n{},\n  \"storm\": \n{}\n}}\n",
        if quick { "quick" } else { "full" },
        json_num(sweep[0].wall_s * 1e3),
        row_json.join(",\n"),
        equivalence,
        storm
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(out, &json).expect("write BENCH_stream.json");
    println!("wrote {out}");

    if !slo_pass {
        eprintln!("SLO FAILURE: paper-scale equivalent preview p99 exceeded 10 s under the storm");
        std::process::exit(1);
    }

    if quick {
        let ref_path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../ci/stream_quick_ref.json"
        ));
        let quick_ms = sweep[0].wall_s * 1e3;
        match load_quick_reference(ref_path) {
            Some(ref_ms) => {
                println!(
                    "quick-mode guard: single-stream wall {quick_ms:.1} ms vs committed reference {ref_ms:.1} ms"
                );
                if quick_ms > 2.0 * ref_ms {
                    eprintln!(
                        "REGRESSION: quick single-stream wall {quick_ms:.1} ms is more than 2x the committed reference {ref_ms:.1} ms"
                    );
                    std::process::exit(1);
                }
            }
            None => println!(
                "quick-mode guard skipped: no committed reference at {}",
                ref_path.display()
            ),
        }
    }
}
