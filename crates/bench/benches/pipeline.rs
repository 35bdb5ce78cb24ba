//! End-to-end scan→archive benchmark: the chunked, overlapped pipeline
//! (`als_tomo::pipeline` via `als_flows::realmode::scan_to_archive`).
//!
//! Writes `BENCH_pipeline.json` at the workspace root: scan→archive wall
//! time, slices/s, per-stage occupancy (load/prep/recon/sink busy plus
//! the sink-busy-while-recon-busy overlap figure), and a thread sweep
//! whose scaling efficiency is `t(1 thread) / (threads · t(threads))`,
//! with over-subscribed rows flagged the same way `BENCH_recon.json`
//! flags them.
//!
//! `--quick` (CI) runs a reduced problem and compares the pipeline wall
//! time against the committed reference in `ci/pipeline_quick_ref.json`,
//! exiting nonzero on a >2x regression.

use als_flows::realmode::{scan_to_archive, FileBranchConfig};
use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
use als_scidata::{MultiscaleWriter, ScanFile, TiffStackSink};
use als_telemetry::Registry;
use als_tomo::pipeline::{self, PipelineConfig, ReconKind, SliceSink, VolumeSink};
use als_tomo::{FbpConfig, Geometry};
use std::path::Path;
use std::time::Instant;

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Simulate a full acquisition and assemble it into a scan file, exactly
/// what the beamline file writer would have put on disk.
fn make_scan(n: usize, nz: usize, n_angles: usize) -> (ScanFile, f64) {
    let vol = shepp_logan_volume(n, nz);
    let geom = Geometry::parallel_180(n_angles, n);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 20_26);
    let frames = sim.all_frames();
    let scan = ScanFile::from_frames(
        "bench_pipeline",
        &frames,
        sim.dark_field(),
        sim.flat_field(),
        &geom.angles,
    )
    .expect("scan assembles");
    (scan, det.mu_scale)
}

struct SweepRow {
    json: String,
    scan_to_archive_s: f64,
}

/// One thread-sweep row; `t1_s` is the 1-thread row's wall time (`None`
/// for the 1-thread row itself).
fn pipeline_row(
    scan: &ScanFile,
    mu_scale: f64,
    cfg: &FileBranchConfig,
    out_dir: &Path,
    threads: usize,
    cores: usize,
    t1_s: Option<f64>,
) -> SweepRow {
    rayon::set_num_threads(threads);
    std::fs::remove_dir_all(out_dir).ok();
    let t = Instant::now();
    let result = scan_to_archive(scan, mu_scale, cfg, out_dir);
    let wall = t.elapsed().as_secs_f64();
    let report = &result.report;
    let speedup_vs_1 = t1_s.unwrap_or(wall) / wall;
    let oversubscribed = threads > cores;
    let efficiency = if oversubscribed {
        f64::NAN // serialized as null
    } else {
        speedup_vs_1 / threads as f64
    };
    println!(
        "pipeline scan->archive {threads} threads: {:.1} ms ({:.1} slices/s), {:.2}x vs 1 thread, overlap ratio {:.2}{}",
        wall * 1e3,
        report.slices_per_sec(),
        speedup_vs_1,
        report.overlap_ratio(),
        if oversubscribed {
            " [oversubscribed]"
        } else {
            ""
        }
    );
    let json = format!(
        "    {{\"threads\": {threads}, \"oversubscribed\": {oversubscribed}, \"scan_to_archive_ms\": {}, \"slices_per_s\": {}, \"speedup_vs_1_thread\": {}, \"scaling_efficiency\": {}, \"plan_build_ms\": {}, \"stage_busy_ms\": {{\"load\": {}, \"prep\": {}, \"recon\": {}, \"sink\": {}}}, \"sink_busy_overlapped_ms\": {}, \"overlap_ratio\": {}}}",
        json_num(wall * 1e3),
        json_num(report.slices_per_sec()),
        json_num(speedup_vs_1),
        json_num(efficiency),
        json_num(report.plan_build.as_secs_f64() * 1e3),
        json_num(report.load_busy.as_secs_f64() * 1e3),
        json_num(report.prep_busy.as_secs_f64() * 1e3),
        json_num(report.recon_busy.as_secs_f64() * 1e3),
        json_num(report.sink_busy.as_secs_f64() * 1e3),
        json_num(report.sink_busy_overlapped.as_secs_f64() * 1e3),
        json_num(report.overlap_ratio())
    );
    SweepRow {
        json,
        scan_to_archive_s: wall,
    }
}

/// FBP-quality archive run, where reconstruction is cheap enough that
/// the archive writes are a visible share of the wall — the entry that
/// makes the I/O/compute overlap measurable rather than epsilon.
fn fbp_archive_entry(quick: bool, work: &Path) -> String {
    let (n, nz, n_angles) = if quick { (128, 8, 90) } else { (256, 16, 180) };
    println!("assembling FBP-archive scan {n}x{n}x{nz}, {n_angles} angles...");
    let (scan, mu) = make_scan(n, nz, n_angles);

    // overlapped pipeline with both archive sinks attached
    let pipe_dir = work.join("fbp_pipeline");
    std::fs::remove_dir_all(&pipe_dir).ok();
    let mut vol_sink = VolumeSink::new();
    let mut tiff_sink = TiffStackSink::new(&pipe_dir.join("tiff"));
    let mut mzarr = MultiscaleWriter::new(
        &pipe_dir.join("multiscale"),
        &scan.scan_name(),
        [4, 32, 32],
        3,
    );
    let registry = std::sync::Arc::new(Registry::new());
    let t = Instant::now();
    let report = {
        let mut sinks: [&mut dyn SliceSink; 3] = [&mut vol_sink, &mut tiff_sink, &mut mzarr];
        let cfg = PipelineConfig {
            recon: ReconKind::Fbp(FbpConfig::default()),
            mu_scale: mu,
            registry: Some(registry.clone()),
            ..Default::default()
        };
        pipeline::run(&scan, &mut sinks, &cfg).expect("fbp archive pipeline succeeds")
    };
    let wall = t.elapsed().as_secs_f64();
    // overlap fraction now comes from the pipeline's registry counters —
    // the same stage-occupancy instrumentation the fleet snapshot exports
    let sink_overlap_frac = {
        let snap = registry.snapshot();
        let busy_us = snap.counters["pipeline_sink_busy_us_total"];
        let overlap_us = snap.counters["pipeline_sink_overlapped_us_total"];
        if busy_us > 0 {
            overlap_us as f64 / busy_us as f64
        } else {
            0.0
        }
    };
    println!(
        "fbp archive {n}x{n}x{nz}: pipeline {:.1} ms, sink busy {:.1} ms of which {:.1} ms under recon ({:.0}%)",
        wall * 1e3,
        report.sink_busy.as_secs_f64() * 1e3,
        report.sink_busy_overlapped.as_secs_f64() * 1e3,
        sink_overlap_frac * 100.0
    );
    format!(
        "    {{\"n\": {n}, \"nz\": {nz}, \"n_angles\": {n_angles}, \"scan_to_archive_ms\": {}, \"stage_busy_ms\": {{\"load\": {}, \"prep\": {}, \"recon\": {}, \"sink\": {}}}, \"sink_busy_overlapped_ms\": {}, \"sink_overlap_fraction\": {}}}",
        json_num(wall * 1e3),
        json_num(report.load_busy.as_secs_f64() * 1e3),
        json_num(report.prep_busy.as_secs_f64() * 1e3),
        json_num(report.recon_busy.as_secs_f64() * 1e3),
        json_num(report.sink_busy.as_secs_f64() * 1e3),
        json_num(report.sink_busy_overlapped.as_secs_f64() * 1e3),
        json_num(sink_overlap_frac)
    )
}

/// Pull `"quick_scan_to_archive_ms": <num>` out of the committed
/// reference file. Returns `None` when the file is absent (first run on
/// a new machine) — the guard is then skipped with a notice.
fn load_quick_reference(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    v.get("quick_scan_to_archive_ms")?.as_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Full mode runs the paper-recipe branch config (100 SIRT iterations)
    // at 96^3; quick mode shrinks every axis so CI stays seconds-scale.
    let (n, nz, n_angles, iters) = if quick {
        (64, 4, 48, 20)
    } else {
        (96, 8, 96, 100)
    };
    let cfg = FileBranchConfig {
        sirt_iterations: iters,
        ..Default::default()
    };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    println!("assembling simulated scan {n}x{n}x{nz}, {n_angles} angles...");
    let (scan, mu) = make_scan(n, nz, n_angles);
    let work = std::env::temp_dir().join("bench_pipeline_work");

    // one untimed run first, so the 1-thread row (every row's
    // denominator) does not also pay for a cold CPU and cold caches
    rayon::set_num_threads(1);
    scan_to_archive(&scan, mu, &cfg, &work.join("warmup"));
    let mut rows: Vec<SweepRow> = Vec::new();
    for threads in [1usize, 2, 4] {
        let t1_s = rows.first().map(|r| r.scan_to_archive_s);
        let dir = work.join("pipeline");
        rows.push(pipeline_row(&scan, mu, &cfg, &dir, threads, cores, t1_s));
    }
    rayon::set_num_threads(1);
    let fbp_archive = fbp_archive_entry(quick, &work);
    rayon::set_num_threads(0);
    std::fs::remove_dir_all(&work).ok();

    let row_json: Vec<&str> = rows.iter().map(|r| r.json.as_str()).collect();
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"mode\": \"{}\",\n  \"note\": \"scan->archive: chunked overlapped pipeline (slab transpose -> fused prep -> shared-plan recon -> tiff+multiscale sinks on an I/O thread); scaling_efficiency = t(1 thread) / (threads * t(threads)); sink_busy_overlapped_ms is sink time spent while recon was simultaneously busy; oversubscribed rows (threads > available_cores) carry null scaling_efficiency\",\n  \"scan\": {{\"n\": {n}, \"nz\": {nz}, \"n_angles\": {n_angles}, \"sirt_iterations\": {iters}}},\n  \"available_cores\": {cores},\n  \"thread_sweep\": [\n{}\n  ],\n  \"fbp_archive\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        row_json.join(",\n"),
        fbp_archive
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out}");

    if quick {
        // regression guard against the committed reference timing
        let ref_path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../ci/pipeline_quick_ref.json"
        ));
        let quick_ms = rows[0].scan_to_archive_s * 1e3;
        match load_quick_reference(ref_path) {
            Some(ref_ms) => {
                println!(
                    "quick-mode guard: 1-thread scan->archive {quick_ms:.1} ms vs committed reference {ref_ms:.1} ms"
                );
                if quick_ms > 2.0 * ref_ms {
                    eprintln!(
                        "REGRESSION: quick scan->archive {quick_ms:.1} ms is more than 2x the committed reference {ref_ms:.1} ms"
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
