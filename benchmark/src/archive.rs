//! The two workloads of the file branch: a written scan file goes to a
//! reconstructed volume, a TIFF stack, a multiscale store and the
//! catalogue. `fbp_archive` balances recon against archive I/O;
//! `sirt_archive` is the paper's recipe, where the iterative kernel is
//! nearly all of the wall.

use crate::harness::{self, derive_seed, timed_setup, Outcome, RunArgs};
use crate::stats;
use crate::sut::{self, ArchiveProducts, Catalogue, LoadedScan, RenderedScan, ScanShape};
use crate::trace::SpanId;
use std::path::Path;
use std::time::{Duration, Instant};

const REALISATIONS: usize = 4;

/// Turns a loaded scan into archive products under a directory; the
/// span id and op number let a traced run hang its sink spans on the op.
type ToArchive =
    fn(&LoadedScan, &Path, &RunArgs, Option<SpanId>, u64) -> Result<ArchiveProducts, String>;

struct Spec {
    dir: &'static str,
    shape: ScanShape,
    warmup_ops: usize,
    seed_stream: u64,
    /// In-disk MSE of the volume's mid slice against the phantom,
    /// pinned at twice what the recipe gives at this size.
    mse_bound: f64,
    to_archive: ToArchive,
    /// Single-thread kernel timings of the traced run.
    kernel_layers: fn(&mut Outcome, &LoadedScan),
}

pub fn fbp_archive(args: &RunArgs) -> Outcome {
    run(
        args,
        &Spec {
            dir: "fbp",
            shape: ScanShape {
                n: 256,
                rows: 32,
                angles: 180,
            },
            warmup_ops: 2,
            seed_stream: 3,
            mse_bound: 0.02,
            to_archive: |scan, dir, args, parent, op| {
                sut::fbp_to_archive(scan, dir, &args.trace, parent, op)
            },
            kernel_layers: fbp_kernel_layers,
        },
    )
}

pub fn sirt_archive(args: &RunArgs) -> Outcome {
    run(
        args,
        &Spec {
            dir: "sirt",
            shape: ScanShape {
                n: 96,
                rows: 8,
                angles: 96,
            },
            warmup_ops: 1,
            seed_stream: 4,
            mse_bound: 0.02,
            to_archive: |scan, dir, _, _, _| Ok(sut::sirt_to_archive(scan, dir)),
            kernel_layers: sirt_kernel_layers,
        },
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fbp_kernel_layers(out: &mut Outcome, scan: &LoadedScan) {
    let (angles, n) = (scan.angles(), scan.width());
    let (build, walls) = sut::time_fbp_plan(scan, 15);
    let slice_ms = stats::p50(&walls.iter().copied().map(ms).collect::<Vec<_>>());
    out.layer("tomo.plan.build_ms", ms(build));
    out.layer("tomo.plan.fbp_slice_ms_p50", slice_ms);
    out.layer(
        "tomo.plan.ns_per_pixel_angle",
        slice_ms * 1e6 / (n * n * angles) as f64,
    );
}

fn sirt_kernel_layers(out: &mut Outcome, scan: &LoadedScan) {
    let (angles, n) = (scan.angles(), scan.width());
    let (iterations, walls) = sut::time_sirt_plan(scan, 5);
    let slice_ms = stats::p50(&walls.iter().copied().map(ms).collect::<Vec<_>>());
    out.layer("tomo.iterative.sirt_slice_ms_p50", slice_ms);
    out.layer(
        "tomo.iterative.ns_per_pixel_angle_iter",
        slice_ms * 1e6 / (n * n * angles * iterations) as f64,
    );
}

/// What one op measured, clock running.
struct OpSample {
    wall: Duration,
    products_at: Duration,
    load: Duration,
    ingest: Duration,
    scan_bytes: u64,
    times: sut::PipelineTimes,
    wrappers: Option<sut::WrapperTimes>,
}

fn run(args: &RunArgs, spec: &Spec) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.trace.enabled();
    let dir = args.work_dir.join(spec.dir);
    let scans_dir = dir.join("scans");
    let ((rendered, files), setup_s) = timed_setup(args.setup_budget(), || {
        std::fs::remove_dir_all(&scans_dir).ok();
        std::fs::create_dir_all(&scans_dir).expect("work dir is writable");
        let rendered = RenderedScan::render(
            spec.shape,
            derive_seed(args.seed, spec.seed_stream),
            REALISATIONS,
        );
        let files = sut::write_scan_files(&scans_dir, &rendered, "scan")
            .expect("the file writer stores the rendered scans");
        (rendered, files)
    });
    out.setup_s = setup_s;
    out.input_digest = rendered.digest();

    let mut catalogue = Catalogue::default();
    let mut samples: Vec<OpSample> = Vec::new();
    let mut readback_ms: Vec<f64> = Vec::new();
    let mut readback_bytes = 0u64;
    let (mut tiff_bytes, mut multiscale_bytes) = (0u64, 0u64);
    let mut timed_start = Instant::now();
    let mut cpu_start = 0.0;
    let warmup_ops = args.warmup(spec.warmup_ops);
    let mut i = 0usize;
    loop {
        if i == warmup_ops {
            timed_start = Instant::now();
            cpu_start = harness::process_cpu_s();
        }
        let timed = i >= warmup_ops;
        if timed && timed_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let path = &files[i % files.len()];
        let scan_id = format!("{}_{i:05}", spec.dir);
        let op_dir = dir.join(&scan_id);
        let op = i as u64;

        // clock running: load -> products -> catalogued
        let t0 = Instant::now();
        let measured = args
            .trace
            .span("op", None, op, |root| -> Result<_, String> {
                let scan = args
                    .trace
                    .span("scanfile.load", root, op, |_| sut::load_scan(path))?;
                let load = t0.elapsed();
                let products = args.trace.span("pipeline.run", root, op, |run| {
                    (spec.to_archive)(&scan, &op_dir, args, run, op)
                })?;
                let products_at = t0.elapsed();
                args.trace.span("catalog.ingest", root, op, |_| {
                    catalogue.ingest_scan(
                        &scan_id,
                        spec.shape,
                        scan.bytes(),
                        products.volume_bytes(),
                    )
                })?;
                let ingest = t0.elapsed() - products_at;
                Ok((scan, products, load, products_at, ingest))
            });
        let wall = t0.elapsed();

        // clock stopped: read the archive back and check it
        let verdict = measured.and_then(|(scan, products, load, products_at, ingest)| {
            let t = Instant::now();
            let back = args
                .trace
                .span("readback", None, op, |_| sut::read_back(&products))?;
            if timed {
                readback_ms.push(ms(t.elapsed()));
                readback_bytes += back.bytes;
                if traced {
                    tiff_bytes += harness::dir_bytes(&products.tiff_dir);
                    multiscale_bytes += harness::dir_bytes(&products.multiscale_dir);
                }
                samples.push(OpSample {
                    wall,
                    products_at,
                    load,
                    ingest,
                    scan_bytes: scan.bytes(),
                    times: products.times,
                    wrappers: products.wrappers,
                });
            }
            if !back.tiff_equal || !back.level0_equal {
                return Err(format!(
                    "{scan_id}: archive differs from the volume (tiff equal {}, level 0 equal {})",
                    back.tiff_equal, back.level0_equal
                ));
            }
            let mse = rendered.mid_slice_mse(products.mid_slice());
            if mse.is_nan() || mse >= spec.mse_bound {
                return Err(format!(
                    "{scan_id}: mid-slice MSE {mse:.4} over {}",
                    spec.mse_bound
                ));
            }
            if !catalogue.links_derived_to_raw(&scan_id) {
                return Err(format!("{scan_id}: catalogue does not link derived to raw"));
            }
            Ok(())
        });
        out.op(verdict);
        std::fs::remove_dir_all(&op_dir).ok();
        i += 1;
    }
    out.timed_cpu_s = harness::process_cpu_s() - cpu_start;

    let col = |f: &dyn Fn(&OpSample) -> f64| -> f64 {
        stats::p50(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let clock_s: f64 = samples.iter().map(|s| s.wall.as_secs_f64()).sum();
    let slices = (samples.len() * spec.shape.rows) as f64;
    out.result_latency_ms_p50 = col(&|s| ms(s.wall));
    out.layer(
        "tomo.pipeline.products_ready_ms_p50",
        col(&|s| ms(s.products_at)),
    );
    out.work_units = slices;
    out.work_per_s = if clock_s > 0.0 { slices / clock_s } else { 0.0 };

    let load_ms = col(&|s| ms(s.load));
    let scan_bytes = samples.first().map_or(0, |s| s.scan_bytes);
    out.layer("scidata.scanfile.load_ms_p50", load_ms);
    out.layer("scidata.scanfile.bytes", scan_bytes as f64);
    if load_ms > 0.0 {
        out.layer(
            "scidata.scanfile.load_mb_per_s",
            scan_bytes as f64 / 1e6 / (load_ms / 1e3),
        );
    }
    out.layer(
        "tomo.pipeline.plan_build_ms",
        col(&|s| ms(s.times.plan_build)),
    );
    out.layer(
        "tomo.pipeline.load_busy_ms",
        col(&|s| ms(s.times.load_busy)),
    );
    out.layer(
        "tomo.pipeline.prep_busy_ms",
        col(&|s| ms(s.times.prep_busy)),
    );
    out.layer(
        "tomo.pipeline.recon_busy_ms",
        col(&|s| ms(s.times.recon_busy)),
    );
    out.layer(
        "tomo.pipeline.sink_busy_ms",
        col(&|s| ms(s.times.sink_busy)),
    );
    out.layer(
        "tomo.pipeline.sink_overlapped_ms",
        col(&|s| ms(s.times.sink_overlapped)),
    );
    out.layer(
        "tomo.pipeline.overlap_ratio",
        col(&|s| s.times.overlap_ratio),
    );
    out.layer(
        "catalog.ingest_us_p50",
        col(&|s| s.ingest.as_secs_f64() * 1e6),
    );
    out.layer("catalog.datasets", catalogue.datasets() as f64);
    let readback_s: f64 = readback_ms.iter().sum::<f64>() / 1e3;
    out.layer("scidata.readback.ms_per_scan", stats::p50(&readback_ms));
    if readback_s > 0.0 {
        out.layer(
            "scidata.readback.mb_per_s",
            readback_bytes as f64 / 1e6 / readback_s,
        );
    }
    out.layer("tomo.simd_lanes", sut::simd_lanes() as f64);
    if traced {
        let ops = samples.len().max(1) as f64;
        out.layer("scidata.tiff.bytes_per_scan", tiff_bytes as f64 / ops);
        out.layer(
            "scidata.multiscale.bytes_per_scan",
            multiscale_bytes as f64 / ops,
        );
        let wrapped = |f: &dyn Fn(&sut::WrapperTimes) -> f64| -> f64 {
            stats::p50(
                &samples
                    .iter()
                    .filter_map(|s| s.wrappers.as_ref())
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        out.layer(
            "scidata.tiff.sink_busy_ms_per_scan",
            wrapped(&|w| ms(w.tiff_busy)),
        );
        out.layer(
            "scidata.multiscale.sink_busy_ms_per_scan",
            wrapped(&|w| ms(w.multiscale_busy)),
        );
        out.layer(
            "tomo.pipeline.source_frame_reads",
            wrapped(&|w| w.source_frame_reads as f64),
        );
        let t = Instant::now();
        std::hint::black_box(catalogue.export_json_bytes());
        out.layer("catalog.export_json_ms", ms(t.elapsed()));
        match sut::load_scan(&files[0]) {
            Ok(scan) => {
                (spec.kernel_layers)(&mut out, &scan);
                let (samples, wall) = sut::time_prep(&scan, 20);
                out.layer(
                    "tomo.prep.ns_per_sample",
                    wall.as_secs_f64() * 1e9 / samples as f64,
                );
            }
            Err(why) => out.violate(why),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}
