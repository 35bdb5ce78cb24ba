//! Kernel microbenchmarks: FFT, ramp filtering, forward/back projection,
//! and the preprocessing chain — the per-slice costs every pipeline
//! estimate in the paper-scale model is calibrated from.
//!
//! Besides the criterion groups, this bench measures plan-based
//! reconstruction throughput against the retained pre-plan reference
//! kernels (same run, same inputs) and writes `BENCH_recon.json` at the
//! workspace root so the perf trajectory is tracked per PR. Run with
//! `--quick` (CI) for a reduced-repetition pass.

use als_phantom::shepp_logan_2d;
use als_tomo::fft::{fft, Complex};
use als_tomo::filter::{filter_sinogram, FilterKind};
use als_tomo::prep;
use als_tomo::radon::{backproject, forward_project};
use als_tomo::{reference, FbpConfig, Geometry, ReconPlan, Sinogram};
use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use std::path::Path;
use std::time::Instant;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
                .collect();
            b.iter(|| {
                let mut d = data.clone();
                fft(&mut d);
                black_box(d)
            });
        });
    }
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("ramp_filter");
    let img = shepp_logan_2d(128);
    let geom = Geometry::parallel_180(180, 128);
    let sino = forward_project(&img, &geom);
    for kind in [FilterKind::RamLak, FilterKind::SheppLogan, FilterKind::Hann] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| b.iter(|| black_box(filter_sinogram(&sino, kind))),
        );
    }
    group.finish();
}

fn bench_projectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("projectors");
    for &n in &[64usize, 128] {
        let img = shepp_logan_2d(n);
        let geom = Geometry::parallel_180(n, n);
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| black_box(forward_project(&img, &geom)))
        });
        let sino = forward_project(&img, &geom);
        group.bench_with_input(BenchmarkId::new("back", n), &n, |b, _| {
            b.iter(|| black_box(backproject(&sino, &geom, n, 1.0)))
        });
    }
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    let img = shepp_logan_2d(128);
    let geom = Geometry::parallel_180(180, 128);
    let sino = forward_project(&img, &geom);
    let dark = vec![100.0f32; 128];
    let flat = vec![10_000.0f32; 128];
    group.bench_function("normalize", |b| {
        b.iter(|| black_box(prep::normalize(&sino, &dark, &flat)))
    });
    group.bench_function("minus_log", |b| {
        b.iter(|| black_box(prep::minus_log(&sino)))
    });
    group.bench_function("remove_zingers", |b| {
        b.iter(|| black_box(prep::remove_zingers(&sino, 0.5)))
    });
    group.bench_function("remove_stripes", |b| {
        b.iter(|| black_box(prep::remove_stripes(&sino, 9)))
    });
    group.bench_function("paganin", |b| {
        b.iter(|| black_box(prep::paganin_filter(&sino, 50.0)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_filter,
    bench_projectors,
    bench_preprocessing
);

// ---------------------------------------------------------------------------
// BENCH_recon.json: plan vs reference reconstruction throughput
// ---------------------------------------------------------------------------

/// Best-of-`reps` wall time of `f`, after one warmup call.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn shepp_sino(n: usize, n_angles: usize) -> (Sinogram, Geometry) {
    let img = shepp_logan_2d(n);
    let geom = Geometry::parallel_180(n_angles, n);
    (forward_project(&img, &geom), geom)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// The `cpu` block: detected ISA features, the SIMD path the plans
/// dispatch to, and its f32 lane width — so BENCH_recon numbers from
/// different machines (or the `ALS_TOMO_SIMD=scalar` fallback) are
/// directly comparable. The schema is identical on non-AVX2 hosts;
/// only the values change.
fn cpu_block() -> String {
    let path = als_tomo::simd::detect();
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma, avx512f) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
        std::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma, avx512f) = (false, false, false);
    format!(
        "  \"cpu\": {{\"arch\": \"{}\", \"avx2\": {avx2}, \"fma\": {fma}, \"avx512f\": {avx512f}, \"simd_path\": \"{}\", \"f32_lanes\": {}}}",
        std::env::consts::ARCH,
        path.name(),
        als_tomo::simd::lanes(path)
    )
}

struct SliceResult {
    json: String,
    plan_ms: f64,
    speedup: f64,
}

fn slice_entry(n: usize, n_angles: usize, reps: usize) -> SliceResult {
    let (sino, geom) = shepp_sino(n, n_angles);
    let cfg = FbpConfig::default();
    let plan = ReconPlan::new(&geom, &cfg).unwrap();
    let path = plan.simd_path();
    let mut scratch = plan.make_scratch();
    let t_plan = time_best(reps, || {
        black_box(plan.fbp_slice_with(&sino, &mut scratch).unwrap());
    });
    let t_ref = time_best(reps, || {
        black_box(reference::fbp_slice(&sino, &geom, &cfg).unwrap());
    });
    let mpix = (n * n) as f64 / 1e6;
    let speedup = t_ref / t_plan;
    println!(
        "recon/slice {n}x{n}x{n_angles} [{}]: plan {:.3} ms ({:.1} slices/s), reference {:.3} ms, speedup {:.2}x",
        path.name(),
        t_plan * 1e3,
        1.0 / t_plan,
        t_ref * 1e3,
        speedup
    );
    let json = format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"simd_path\": \"{}\", \"plan_ms\": {}, \"reference_ms\": {}, \"plan_slices_per_s\": {}, \"plan_mpix_per_s\": {}, \"speedup\": {}}}",
        path.name(),
        json_num(t_plan * 1e3),
        json_num(t_ref * 1e3),
        json_num(1.0 / t_plan),
        json_num(mpix / t_plan),
        json_num(speedup)
    );
    SliceResult {
        json,
        plan_ms: t_plan * 1e3,
        speedup,
    }
}

struct BatchResult {
    json: String,
    ms_per_slice: f64,
}

/// One lane batch of four slices through `fbp_batch_into` (one interval
/// walk and one coordinate solve for the four) next to the same four
/// slices one `fbp_slice_into` call each, same run, same scratch. The
/// n = 256 and n = 512 rows are also where `plan::TILE_ROWS_MIN` was
/// chosen (DESIGN.md §15).
fn batch_entry(n: usize, n_angles: usize, reps: usize) -> BatchResult {
    const BATCH: usize = 4;
    let (sino, geom) = shepp_sino(n, n_angles);
    let sinos: Vec<Sinogram> = (0..BATCH)
        .map(|z| {
            let mut s = sino.clone();
            s.data.iter_mut().for_each(|v| *v *= 1.0 + 0.1 * z as f32);
            s
        })
        .collect();
    let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
    let mut scratch = plan.make_scratch();
    let mut out = vec![0.0f32; BATCH * n * n];
    let t_batch = time_best(reps, || {
        plan.fbp_batch_into(black_box(&sinos), &mut scratch, &mut out);
        black_box(&out);
    });
    let t_single = time_best(reps, || {
        for (s, o) in sinos.iter().zip(out.chunks_exact_mut(n * n)) {
            plan.fbp_slice_into(black_box(s), &mut scratch, o);
        }
        black_box(&out);
    });
    let per_slice = t_batch / BATCH as f64;
    let ns_pa = per_slice * 1e9 / (n * n * n_angles) as f64;
    println!(
        "recon/batch {n}x{n}x{n_angles} x{BATCH} [{}]: batch {:.3} ms ({:.3} ms/slice, {:.3} ns/pixel-angle), slice by slice {:.3} ms, speedup {:.2}x",
        plan.simd_path().name(),
        t_batch * 1e3,
        per_slice * 1e3,
        ns_pa,
        t_single * 1e3,
        t_single / t_batch
    );
    let json = format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"simd_path\": \"{}\", \"batch\": {BATCH}, \"batch_ms\": {}, \"ms_per_slice\": {}, \"ns_per_pixel_angle\": {}, \"slice_by_slice_ms\": {}, \"speedup_vs_slice_by_slice\": {}}}",
        plan.simd_path().name(),
        json_num(t_batch * 1e3),
        json_num(per_slice * 1e3),
        json_num(ns_pa),
        json_num(t_single * 1e3),
        json_num(t_single / t_batch)
    );
    BatchResult {
        json,
        ms_per_slice: per_slice * 1e3,
    }
}

/// Fused prep chain (PrepPlan + ring + Paganin post-stage, one pass)
/// vs the unfused reference chain, same inputs, same run.
fn prep_chain_entry(n: usize, n_angles: usize, reps: usize) -> String {
    let (sino, _) = shepp_sino(n, n_angles);
    // treat the projections as raw-ish counts so normalize has work to do
    let mut raw = sino.clone();
    for v in raw.data.iter_mut() {
        *v = 200.0 + v.abs() * 50.0;
    }
    let dark = vec![100.0f32; n];
    let flat = vec![1000.0f32; n];
    let plan = prep::PrepPlan::new(&dark, &flat, Some(0.5))
        .with_ring(9)
        .with_paganin(40.0);
    let mut scratch = plan.make_post_scratch();
    let t_fused = time_best(reps, || {
        let mut s = raw.clone();
        plan.apply_with(&mut s, &mut scratch);
        black_box(s);
    });
    let t_ref = time_best(reps, || {
        black_box(reference::prep_chain(
            &raw,
            &dark,
            &flat,
            Some(0.5),
            Some(9),
            Some(40.0),
        ));
    });
    println!(
        "prep/chain {n_angles}x{n} (norm+zinger+log+ring+paganin): fused {:.3} ms, reference {:.3} ms, speedup {:.2}x",
        t_fused * 1e3,
        t_ref * 1e3,
        t_ref / t_fused
    );
    format!(
        "    {{\"n_det\": {n}, \"n_angles\": {n_angles}, \"fused_ms\": {}, \"reference_ms\": {}, \"speedup\": {}}}",
        json_num(t_fused * 1e3),
        json_num(t_ref * 1e3),
        json_num(t_ref / t_fused)
    )
}

struct VolumeResult {
    json: String,
    single_thread_speedup: f64,
}

fn volume_entry(n: usize, n_angles: usize, nz: usize, reps: usize) -> VolumeResult {
    let (sino, geom) = shepp_sino(n, n_angles);
    let sinos = vec![sino; nz];
    let cfg = FbpConfig::default();
    let plan = ReconPlan::new(&geom, &cfg).unwrap();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    // single-thread plan vs (inherently single-thread) reference, same run
    rayon::set_num_threads(1);
    let t_plan_1 = time_best(reps, || {
        black_box(plan.fbp_volume(&sinos).unwrap());
    });
    let t_ref = time_best(reps, || {
        black_box(reference::fbp_volume(&sinos, &geom, &cfg).unwrap());
    });
    let single_thread_speedup = t_ref / t_plan_1;
    println!(
        "recon/volume {n}x{n}x{n_angles} ({nz} slices) 1 thread: plan {:.1} ms, reference {:.1} ms, speedup {:.2}x",
        t_plan_1 * 1e3,
        t_ref * 1e3,
        single_thread_speedup
    );

    // Thread sweep. Scaling efficiency is only meaningful when the
    // requested worker count fits the detected cores: on a 1-core CI
    // runner, 2- and 4-thread rows time-slice one core and their
    // "efficiency" is pure scheduler noise. Over-subscribed rows are
    // still measured (they show the over-subscription penalty) but are
    // flagged explicitly and report no efficiency figure.
    let mut sweep = Vec::new();
    for threads in [1usize, 2, 4] {
        rayon::set_num_threads(threads);
        let t = if threads == 1 {
            t_plan_1
        } else {
            time_best(reps, || {
                black_box(plan.fbp_volume(&sinos).unwrap());
            })
        };
        let speedup_vs_1 = t_plan_1 / t;
        let oversubscribed = threads > cores;
        let efficiency = if oversubscribed {
            f64::NAN // serialized as null
        } else {
            speedup_vs_1 / threads as f64
        };
        println!(
            "recon/volume {n}x{n}x{n_angles} ({nz} slices) {threads} threads: {:.1} ms, {:.2}x vs 1 thread, efficiency {}",
            t * 1e3,
            speedup_vs_1,
            if oversubscribed {
                "n/a (oversubscribed)".to_string()
            } else {
                format!("{efficiency:.2}")
            }
        );
        sweep.push(format!(
            "      {{\"threads\": {threads}, \"oversubscribed\": {oversubscribed}, \"plan_ms\": {}, \"slices_per_s\": {}, \"speedup_vs_1_thread\": {}, \"scaling_efficiency\": {}}}",
            json_num(t * 1e3),
            json_num(nz as f64 / t),
            json_num(speedup_vs_1),
            json_num(efficiency)
        ));
    }
    rayon::set_num_threads(0);

    let json = format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"nz\": {nz}, \"available_cores\": {cores}, \"plan_1_thread_ms\": {}, \"reference_1_thread_ms\": {}, \"single_thread_speedup\": {}, \"thread_sweep\": [\n{}\n    ]}}",
        json_num(t_plan_1 * 1e3),
        json_num(t_ref * 1e3),
        json_num(single_thread_speedup),
        sweep.join(",\n")
    );
    VolumeResult {
        json,
        single_thread_speedup,
    }
}

/// One committed quick-mode reference for the CI regression guard.
fn load_quick_reference(path: &Path, key: &str) -> Option<f64> {
    let raw = std::fs::read_to_string(path).ok()?;
    let parsed: serde_json::Value = serde_json::from_str(&raw).ok()?;
    parsed.get(key)?.as_f64()
}

fn recon_throughput(quick: bool) {
    let reps = if quick { 1 } else { 3 };
    let nz = if quick { 4 } else { 8 };
    println!("{}", cpu_block().trim());
    let slice_sizes: &[(usize, usize)] = &[(64, 90), (128, 180), (256, 180), (512, 360)];
    let slices: Vec<SliceResult> = slice_sizes
        .iter()
        .map(|&(n, a)| slice_entry(n, a, reps))
        .collect();
    let batches: Vec<BatchResult> = [(256usize, 180usize), (512, 360)]
        .iter()
        .map(|&(n, a)| batch_entry(n, a, reps))
        .collect();
    let preps: Vec<String> = [(256usize, 180usize), (512, 360)]
        .iter()
        .map(|&(n, a)| prep_chain_entry(n, a, reps))
        .collect();
    // the acceptance volume: 256×256, 180 angles
    let vol = volume_entry(256, 180, nz, reps);

    let slice_rows: Vec<&str> = slices.iter().map(|s| s.json.as_str()).collect();
    let batch_rows: Vec<&str> = batches.iter().map(|b| b.json.as_str()).collect();
    let json = format!(
        "{{\n  \"bench\": \"recon\",\n  \"mode\": \"{}\",\n{},\n  \"note\": \"plan engine vs retained pre-plan reference, same run, same inputs; scaling_efficiency = (speedup vs 1 thread) / threads, reported only for rows with threads <= available_cores (oversubscribed rows are flagged and carry null efficiency)\",\n  \"slice_fbp\": [\n{}\n  ],\n  \"batch_fbp\": [\n{}\n  ],\n  \"prep_chain\": [\n{}\n  ],\n  \"volume_fbp\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        cpu_block(),
        slice_rows.join(",\n"),
        batch_rows.join(",\n"),
        preps.join(",\n"),
        vol.json
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recon.json");
    std::fs::write(out, &json).expect("write BENCH_recon.json");
    println!("wrote {out}");
    if vol.single_thread_speedup < 3.0 {
        println!(
            "WARNING: single-thread volume speedup {:.2}x below the 3x acceptance bar",
            vol.single_thread_speedup
        );
    }
    let big_slices_fast = slices
        .iter()
        .zip(slice_sizes)
        .filter(|(_, &(n, _))| n >= 256)
        .all(|(s, _)| s.speedup >= 10.0);
    if !quick && !big_slices_fast {
        println!("WARNING: n>=256 slice_fbp speedup below the 10x acceptance bar");
    }

    // CI regression guard (quick mode only): the 256×256 single-slice
    // row and the per-slice time of the 256×256 lane batch must each
    // stay within 2x of the committed reference — the second is the one
    // a volume path falling back to slice-by-slice speed would trip.
    if quick {
        let slice_256 = slices
            .iter()
            .zip(slice_sizes)
            .find(|(_, &(n, _))| n == 256)
            .map(|(s, _)| s.plan_ms);
        let ref_path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../ci/recon_quick_ref.json"
        ));
        for (what, key, measured) in [
            (
                "slice_fbp 256 plan",
                "quick_slice_fbp_256_plan_ms",
                slice_256,
            ),
            (
                "batch_fbp 256 per slice",
                "quick_batch_fbp_256_ms_per_slice",
                Some(batches[0].ms_per_slice),
            ),
        ] {
            match (measured, load_quick_reference(ref_path, key)) {
                (Some(quick_ms), Some(ref_ms)) => {
                    println!(
                        "recon quick guard: {what} {quick_ms:.3} ms vs committed reference {ref_ms:.3} ms"
                    );
                    if quick_ms > 2.0 * ref_ms {
                        eprintln!(
                            "REGRESSION: quick {what} time {quick_ms:.3} ms exceeds 2x the committed reference {ref_ms:.3} ms"
                        );
                        std::process::exit(1);
                    }
                }
                _ => println!(
                    "recon quick guard: no committed {key} at {} — skipping",
                    ref_path.display()
                ),
            }
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if !quick {
        benches();
    }
    recon_throughput(quick);
}
