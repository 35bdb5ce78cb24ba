//! Reconstruction kernel bench: plan-based FBP throughput per slice, per
//! four-slice lane batch and per volume across a thread sweep, the fused
//! preprocessing chain, and the volume forward projector that renders
//! every simulated scan — the per-slice costs every pipeline estimate in
//! the paper-scale model is calibrated from.
//!
//! Writes `BENCH_recon.json` at the workspace root so the perf
//! trajectory is tracked per change. Run with `--quick` (CI) for a
//! reduced-repetition pass guarded against the committed references in
//! `ci/recon_quick_ref.json`.

use als_phantom::{shepp_logan_2d, shepp_logan_volume};
use als_tomo::prep;
use als_tomo::radon::{forward_project, forward_project_volume};
use als_tomo::{FbpConfig, Geometry, ReconPlan, Sinogram};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

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
    let mpix = (n * n) as f64 / 1e6;
    let ns_pa = t_plan * 1e9 / (n * n * n_angles) as f64;
    println!(
        "recon/slice {n}x{n}x{n_angles} [{}]: plan {:.3} ms ({:.1} slices/s, {:.3} ns/pixel-angle)",
        path.name(),
        t_plan * 1e3,
        1.0 / t_plan,
        ns_pa
    );
    let json = format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"simd_path\": \"{}\", \"plan_ms\": {}, \"plan_slices_per_s\": {}, \"plan_mpix_per_s\": {}, \"ns_per_pixel_angle\": {}}}",
        path.name(),
        json_num(t_plan * 1e3),
        json_num(1.0 / t_plan),
        json_num(mpix / t_plan),
        json_num(ns_pa)
    );
    SliceResult {
        json,
        plan_ms: t_plan * 1e3,
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

/// Fused prep chain as the file and streaming branches run it: one
/// `RawPrepPlan` row prep per angle (normalize + −log + zinger), then
/// the `SinoPostPlan` ring + Paganin post-stage over the sinogram.
fn prep_chain_entry(n: usize, n_angles: usize, reps: usize) -> String {
    let (sino, _) = shepp_sino(n, n_angles);
    // treat the projections as raw counts so normalize has work to do
    let raw: Vec<u16> = sino
        .data
        .iter()
        .map(|v| (200.0 + v.abs() * 50.0).min(u16::MAX as f32) as u16)
        .collect();
    let dark = vec![100u16; n];
    let flat = vec![1000u16; n];
    let plan = prep::RawPrepPlan::new(&dark, &flat, 1, n, 1.0, Some(0.5))
        .with_post(prep::SinoPostPlan::new(n, Some(9), Some(40.0)));
    let mut scratch = plan.make_post_scratch();
    let mut out = Sinogram::zeros(n_angles, n);
    let t_fused = time_best(reps, || {
        for (a, raw_row) in raw.chunks_exact(n).enumerate() {
            plan.prep_angle_row(0, raw_row, out.row_mut(a));
        }
        plan.finish_sinogram(&mut out, &mut scratch);
        black_box(&out);
    });
    let ns_per_sample = t_fused * 1e9 / (n * n_angles) as f64;
    println!(
        "prep/chain {n_angles}x{n} (norm+zinger+log+ring+paganin): fused {:.3} ms ({:.2} ns/sample)",
        t_fused * 1e3,
        ns_per_sample
    );
    format!(
        "    {{\"n_det\": {n}, \"n_angles\": {n_angles}, \"fused_ms\": {}, \"ns_per_sample\": {}}}",
        json_num(t_fused * 1e3),
        json_num(ns_per_sample)
    )
}

struct ForwardResult {
    json: String,
    lanes_1_thread_ms_per_slice: f64,
}

/// The scan renderer's projector on an `nz`-slice Shepp-Logan volume,
/// three ways: slice by slice through the one-lane `forward_project`
/// (how scans were rendered before the volume projector), and
/// `forward_project_volume` on one worker and on every available core.
fn forward_project_entry(n: usize, n_angles: usize, nz: usize, reps: usize) -> ForwardResult {
    let vol = shepp_logan_volume(n, nz);
    let geom = Geometry::parallel_180(n_angles, n);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let t_one_lane = time_best(reps, || {
        for z in 0..nz {
            black_box(forward_project(&vol.slice_xy(z), &geom));
        }
    });
    let mut lanes = Vec::new();
    for threads in [1, cores] {
        rayon::set_num_threads(threads);
        lanes.push(time_best(reps, || {
            black_box(forward_project_volume(&vol, &geom));
        }));
    }
    rayon::set_num_threads(0);
    let runs: Vec<String> = [
        ("one_lane", 1, t_one_lane),
        ("slice_lanes", 1, lanes[0]),
        ("slice_lanes", cores, lanes[1]),
    ]
    .into_iter()
    .map(|(path, threads, t)| {
        println!(
            "forward/volume {n}x{n}x{n_angles} ({nz} slices) {path} {threads} threads: {:.3} ms/slice, {:.2}x vs one lane",
            t * 1e3 / nz as f64,
            t_one_lane / t
        );
        format!(
            "      {{\"path\": \"{path}\", \"threads\": {threads}, \"ms_per_slice\": {}, \"speedup_vs_one_lane\": {}}}",
            json_num(t * 1e3 / nz as f64),
            json_num(t_one_lane / t)
        )
    })
    .collect();
    let json = format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"nz\": {nz}, \"available_cores\": {cores}, \"runs\": [\n{}\n    ]}}",
        runs.join(",\n")
    );
    ForwardResult {
        json,
        lanes_1_thread_ms_per_slice: lanes[0] * 1e3 / nz as f64,
    }
}

fn volume_entry(n: usize, n_angles: usize, nz: usize, reps: usize) -> String {
    let (sino, geom) = shepp_sino(n, n_angles);
    let sinos = vec![sino; nz];
    let cfg = FbpConfig::default();
    let plan = ReconPlan::new(&geom, &cfg).unwrap();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    rayon::set_num_threads(1);
    let t_plan_1 = time_best(reps, || {
        black_box(plan.fbp_volume(&sinos).unwrap());
    });

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

    format!(
        "    {{\"n\": {n}, \"n_angles\": {n_angles}, \"nz\": {nz}, \"available_cores\": {cores}, \"plan_1_thread_ms\": {}, \"thread_sweep\": [\n{}\n    ]}}",
        json_num(t_plan_1 * 1e3),
        sweep.join(",\n")
    )
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
    // the fbp_archive render: 256×256, 180 angles, 32 detector rows
    let forward = forward_project_entry(256, 180, if quick { 8 } else { 32 }, reps);

    let slice_rows: Vec<&str> = slices.iter().map(|s| s.json.as_str()).collect();
    let batch_rows: Vec<&str> = batches.iter().map(|b| b.json.as_str()).collect();
    let json = format!(
        "{{\n  \"bench\": \"recon\",\n  \"mode\": \"{}\",\n{},\n  \"note\": \"plan-engine FBP and fused prep; ns_per_pixel_angle = wall / (n^2 * n_angles) per slice; scaling_efficiency = (speedup vs 1 thread) / threads, reported only for rows with threads <= available_cores (oversubscribed rows are flagged and carry null efficiency); forward_project rows time the scan renderer's projector per slice: one_lane is forward_project slice by slice, slice_lanes is forward_project_volume on `threads` workers\",\n  \"slice_fbp\": [\n{}\n  ],\n  \"batch_fbp\": [\n{}\n  ],\n  \"prep_chain\": [\n{}\n  ],\n  \"volume_fbp\": [\n{}\n  ],\n  \"forward_project\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        cpu_block(),
        slice_rows.join(",\n"),
        batch_rows.join(",\n"),
        preps.join(",\n"),
        vol,
        forward.json
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recon.json");
    std::fs::write(out, &json).expect("write BENCH_recon.json");
    println!("wrote {out}");
    // CI regression guard (quick mode only): the 256×256 single-slice
    // row, the per-slice time of the 256×256 lane batch and the
    // one-worker per-slice time of the volume forward projector must
    // each stay within 2x of the committed reference — the last two are
    // the ones a volume path (FBP or scan render) falling back to
    // slice-by-slice speed would trip. The projector row is the
    // one-worker run so the guard does not depend on the core count.
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
            (
                "forward_project 256 per slice",
                "quick_forward_project_256_ms_per_slice",
                Some(forward.lanes_1_thread_ms_per_slice),
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
    recon_throughput(quick);
}
