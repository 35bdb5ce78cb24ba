//! Equivalence of the plan-based engine against the pre-plan reference
//! kernels, which live only here, in the `reference` test module.
//!
//! The plan engine changes the *arithmetic schedule* everywhere — packed
//! two-row real FFTs, table-driven twiddles, incremental backprojection
//! with hoisted bounds — but none of the math, so on the Shepp-Logan
//! phantom plan and reference reconstructions must agree to float
//! round-off (the acceptance bar is 1e-5 RMSE; measured drift is orders
//! of magnitude smaller). The clipped forward projector must be
//! *bit-identical*, for one image and for every slice of a
//! lane-interleaved volume: the samples it skips are exact zeros, and
//! each lane repeats the one-image arithmetic.

use als_phantom::{shepp_logan_2d, shepp_logan_volume};
use als_tomo::fft::{Complex, FftPlan};
use als_tomo::gridrec::{gridrec_slice, GridrecConfig};
use als_tomo::image::{Image, Sinogram};
use als_tomo::radon::{forward_project, forward_project_volume, in_recon_disk};
use als_tomo::{
    FbpAccumulator, FbpConfig, FilterKind, FilterPlan, Geometry, IterConfig, IterPlan, LaneVolume,
    ReconPlan, SimdPath, SinoPostPlan, Volume,
};
use proptest::prelude::*;
use std::sync::Arc;

mod reference;

/// One slice through a fresh plan.
fn plan_fbp(sino: &Sinogram, geom: &Geometry, cfg: &FbpConfig) -> Image {
    let plan = ReconPlan::new(geom, cfg).unwrap();
    plan.fbp_slice_with(sino, &mut plan.make_scratch()).unwrap()
}

fn rmse(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.data.len(), b.data.len());
    let e: f64 = a
        .data
        .iter()
        .zip(b.data.iter())
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum();
    (e / a.data.len() as f64).sqrt()
}

fn shepp_sinogram(n: usize, n_angles: usize) -> (Sinogram, Geometry) {
    let truth = shepp_logan_2d(n);
    let geom = Geometry::parallel_180(n_angles, n);
    (forward_project(&truth, &geom), geom)
}

#[test]
fn plan_fbp_matches_reference_on_shepp_logan() {
    let (sino, geom) = shepp_sinogram(64, 180);
    for filter in [FilterKind::SheppLogan, FilterKind::RamLak, FilterKind::None] {
        for mask_disk in [true, false] {
            let cfg = FbpConfig { filter, mask_disk };
            let plan = plan_fbp(&sino, &geom, &cfg);
            let reference = reference::fbp_slice(&sino, &geom, &cfg).unwrap();
            let e = rmse(&plan, &reference);
            assert!(e < 1e-5, "{filter:?} mask={mask_disk}: rmse {e}");
        }
    }
}

#[test]
fn plan_fbp_volume_matches_reference_volume() {
    let (sino, geom) = shepp_sinogram(48, 96);
    let sinos = vec![sino; 4];
    let cfg = FbpConfig::default();
    let vol = ReconPlan::new(&geom, &cfg)
        .unwrap()
        .fbp_volume(&sinos)
        .unwrap();
    let ref_vol = reference::fbp_volume(&sinos, &geom, &cfg).unwrap();
    assert_eq!(
        (vol.nx, vol.ny, vol.nz),
        (ref_vol.nx, ref_vol.ny, ref_vol.nz)
    );
    for z in 0..vol.nz {
        let e = rmse(&vol.slice_xy(z), &ref_vol.slice_xy(z));
        assert!(e < 1e-5, "slice {z}: rmse {e}");
    }
}

#[test]
fn plan_gridrec_matches_reference_on_shepp_logan() {
    let (sino, geom) = shepp_sinogram(64, 180);
    for window in [FilterKind::Hann, FilterKind::RamLak] {
        for oversample in [2, 3] {
            let cfg = GridrecConfig {
                window,
                oversample,
                mask_disk: true,
            };
            let plan = gridrec_slice(&sino, &geom, &cfg).unwrap();
            let reference = reference::gridrec_slice(&sino, &geom, &cfg).unwrap();
            let e = rmse(&plan, &reference);
            assert!(e < 1e-5, "{window:?} os={oversample}: rmse {e}");
        }
    }
}

#[test]
fn clipped_forward_projection_is_bit_identical() {
    let n = 48;
    let truth = shepp_logan_2d(n);
    // off-center rotation axis exercises asymmetric clip intervals
    for center in [(n as f64 - 1.0) / 2.0, 19.25] {
        let geom = Geometry::parallel_180(60, n).with_center(center);
        let clipped = forward_project(&truth, &geom);
        let mut full = Sinogram::zeros(geom.n_angles(), geom.n_det);
        reference::forward_project_into(&truth, &geom, &mut full);
        assert_eq!(bits(&clipped.data), bits(&full.data), "center {center}");
    }
}

/// Every sinogram of `forward_project_volume` against the pre-plan
/// full-diagonal projector of that slice alone; `Err` names the first
/// slice that differs in any bit.
fn volume_projection_mismatch(vol: &Volume, geom: &Geometry) -> Result<(), String> {
    let sinos = forward_project_volume(vol, geom);
    if sinos.len() != vol.nz {
        return Err(format!("{} sinograms for {} slices", sinos.len(), vol.nz));
    }
    for (z, sino) in sinos.iter().enumerate() {
        let mut full = Sinogram::zeros(geom.n_angles(), geom.n_det);
        reference::forward_project_into(&vol.slice_xy(z), geom, &mut full);
        if bits(&sino.data) != bits(&full.data) {
            return Err(format!("slice {z} of {}", vol.nz));
        }
    }
    Ok(())
}

#[test]
fn volume_forward_projection_is_bit_identical() {
    // nz = 1, 3: one group of idle lanes; 4: one full group; 5, 9: full
    // groups then a partial last one
    for n in [31, 48] {
        for nz in [1, 3, 4, 5, 9] {
            let vol = shepp_logan_volume(n, nz);
            for center in [(n as f64 - 1.0) / 2.0, 19.25] {
                let geom = Geometry::parallel_180(60, n).with_center(center);
                let outcome = volume_projection_mismatch(&vol, &geom);
                assert_eq!(outcome, Ok(()), "n {n}, nz {nz}, center {center}");
            }
        }
    }
}

#[test]
fn filter_sinogram_matches_reference() {
    let (sino, _) = shepp_sinogram(64, 90);
    for kind in FilterKind::ALL {
        let a = als_tomo::filter::filter_sinogram(&sino, kind);
        let b = reference::filter_sinogram(&sino, kind);
        let worst = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 1e-4, "{kind:?}: worst row diff {worst}");
    }
}

#[test]
fn iterative_solvers_stay_close_to_reference_scheme() {
    // the solvers now run on the plan projectors; sanity-check SIRT still
    // converges to the same image the pre-plan scheme would (loose bound:
    // float drift compounds over iterations)
    let n = 32;
    let truth = shepp_logan_2d(n);
    let geom = Geometry::parallel_180(40, n);
    let sino = forward_project(&truth, &geom);
    let plan = IterPlan::new(
        &geom,
        &IterConfig {
            iterations: 20,
            ..Default::default()
        },
    )
    .unwrap();
    let rec = plan
        .sirt_slice_with(&sino, &mut plan.make_scratch())
        .unwrap();
    let e = rmse(&rec, &truth);
    assert!(e < 0.2, "SIRT drifted from truth: rmse {e}");
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
fn plan_sirt_matches_baseline_sirt() {
    // the table-driven forward inside IterPlan reassociates sums but
    // walks the identical sample set: reconstructions must agree to
    // well below the workspace's 1e-5 RMSE equivalence bar
    let n = 48;
    let truth = two_disk_phantom(n);
    for &(n_angles, mask_disk) in &[(40usize, true), (17, false)] {
        let geom = Geometry::parallel_180(n_angles, n);
        let sino = forward_project(&truth, &geom);
        let cfg = IterConfig {
            iterations: 25,
            mask_disk,
            ..Default::default()
        };
        let base = reference::sirt_slice(&sino, &geom, &cfg).unwrap();
        let plan = IterPlan::new(&geom, &cfg).unwrap();
        let fast = plan
            .sirt_slice_with(&sino, &mut plan.make_scratch())
            .unwrap();
        let rmse = rmse_in_disk(&base, &fast);
        let max = base
            .data
            .iter()
            .zip(fast.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            rmse < 1e-5 && max < 1e-4,
            "plan vs baseline SIRT diverged: rmse {rmse}, max {max} (mask_disk {mask_disk})"
        );
    }
}

/// Per-slice SIRT exactly as the library ran it before the
/// slice-interleaved kernel — the former `IterPlan::sirt_into` loop
/// body, kept here as the dev-only oracle: table forward projection of
/// the one slice, residual over floored row sums, a fresh
/// backprojection sweep, relaxed update over floored column sums,
/// clamp, per-pixel disk test.
struct SirtOracle {
    cfg: IterConfig,
    iter_plan: IterPlan,
    plan: ReconPlan,
    row_sums: Sinogram,
    col_sums: Vec<f32>,
}

impl SirtOracle {
    fn new(geom: &Geometry, cfg: &IterConfig, path: SimdPath) -> SirtOracle {
        let n = geom.n_det;
        let plan = ReconPlan::new(
            geom,
            &FbpConfig {
                filter: FilterKind::None,
                mask_disk: cfg.mask_disk,
            },
        )
        .unwrap()
        .with_simd_path(path);
        let mut ones_img = Image::square(n);
        ones_img.data.fill(1.0);
        let mut row_sums = Sinogram::zeros(geom.n_angles(), n);
        plan.forward_into(&ones_img, &mut row_sums);
        let mut ones_sino = Sinogram::zeros(geom.n_angles(), n);
        ones_sino.data.fill(1.0);
        let mut col_sums = vec![0.0f32; n * n];
        plan.backproject_acc(&ones_sino, 1.0, &mut plan.make_scratch(), &mut col_sums);
        SirtOracle {
            cfg: *cfg,
            iter_plan: IterPlan::new(geom, cfg).unwrap(),
            plan,
            row_sums,
            col_sums,
        }
    }

    fn solve(&self, sino: &Sinogram) -> Vec<f32> {
        let n = sino.n_det;
        let mut out = vec![0.0f32; n * n];
        let mut fwd = Sinogram::zeros(sino.n_angles, n);
        let mut resid = Sinogram::zeros(sino.n_angles, n);
        let mut update = vec![0.0f32; n * n];
        let mut bp = self.plan.make_scratch();
        for _ in 0..self.cfg.iterations {
            self.iter_plan.forward_into(&out, &mut fwd);
            for i in 0..resid.data.len() {
                let r = self.row_sums.data[i].max(1e-6);
                resid.data[i] = (sino.data[i] - fwd.data[i]) / r;
            }
            update.fill(0.0);
            self.plan.backproject_acc(&resid, 1.0, &mut bp, &mut update);
            for (i, o) in out.iter_mut().enumerate() {
                let c = self.col_sums[i].max(1e-6);
                *o += self.cfg.relaxation as f32 * update[i] / c;
            }
            if self.cfg.nonneg {
                for v in out.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            if self.cfg.mask_disk {
                for y in 0..n {
                    for x in 0..n {
                        if !in_recon_disk(x, y, n) {
                            out[y * n + x] = 0.0;
                        }
                    }
                }
            }
        }
        out
    }
}

/// `count` distinct sinograms of one geometry: the phantom's projection
/// at a per-slice gain plus a deterministic ripple that dips below zero
/// (so the non-negativity clamp has work to do).
fn slice_stack(n: usize, n_angles: usize, count: usize) -> (Vec<Sinogram>, Geometry) {
    let (base, geom) = shepp_sinogram(n, n_angles);
    let sinos = (0..count)
        .map(|z| {
            let mut s = base.clone();
            for (i, v) in s.data.iter_mut().enumerate() {
                *v = *v * (0.6 + 0.1 * z as f32) + ((i * 31 + z * 17) % 13) as f32 * 0.05 - 0.3;
            }
            s
        })
        .collect();
    (sinos, geom)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sirt_lanes_are_bit_identical_to_the_per_slice_oracle() {
    // 2·LANES + 1 slices: every batch size from one live lane to two
    // full batches and a one-lane tail
    const MAX_BATCH: usize = 9;
    for (n, n_angles) in [(37usize, 15usize), (48, 13), (96, 7)] {
        let (sinos, geom) = slice_stack(n, n_angles, MAX_BATCH);
        for path in [SimdPath::Scalar, SimdPath::Avx2] {
            for (mask_disk, nonneg) in [(true, true), (true, false), (false, true), (false, false)]
            {
                // three iterations reach the general state (a clamped,
                // masked, nonzero iterate projected forward again); the
                // lanes stay identical from there by induction
                let cfg = IterConfig {
                    iterations: 3,
                    relaxation: 0.9,
                    nonneg,
                    mask_disk,
                };
                let oracle = SirtOracle::new(&geom, &cfg, path);
                let expected: Vec<Vec<u32>> =
                    sinos.iter().map(|s| bits(&oracle.solve(s))).collect();
                let plan = IterPlan::new(&geom, &cfg).unwrap().with_simd_path(path);
                let mut scratch = plan.make_scratch();
                for batch in 1..=MAX_BATCH {
                    let mut out = vec![f32::NAN; batch * n * n];
                    plan.sirt_batch_into(&sinos[..batch], &mut scratch, &mut out);
                    for (z, got) in out.chunks_exact(n * n).enumerate() {
                        assert_eq!(
                            bits(got),
                            expected[z],
                            "n {n} {path:?} mask {mask_disk} nonneg {nonneg}: slice {z} of batch {batch}"
                        );
                    }
                }
                // the single-slice entry point is the one-live-lane call
                let mut single = vec![f32::NAN; n * n];
                plan.sirt_into(&sinos[5], &mut scratch, &mut single);
                assert_eq!(bits(&single), expected[5]);
            }
        }
    }
}

#[test]
fn sirt_slice_bits_do_not_depend_on_lane_or_neighbours() {
    let n = 37;
    let (sinos, geom) = slice_stack(n, 19, 4);
    let cfg = IterConfig {
        iterations: 5,
        ..Default::default()
    };
    // neighbours that would poison anything they leaked into
    let mut wild = sinos[1].clone();
    for (i, v) in wild.data.iter_mut().enumerate() {
        *v = match i % 4 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => -1e30,
            _ => 1e30,
        };
    }
    for path in [SimdPath::Scalar, SimdPath::Avx2] {
        let plan = IterPlan::new(&geom, &cfg).unwrap().with_simd_path(path);
        let mut scratch = plan.make_scratch();
        let target = &sinos[0];
        let mut alone = vec![0.0f32; n * n];
        plan.sirt_into(target, &mut scratch, &mut alone);
        assert!(alone.iter().all(|v| v.is_finite()));
        for lane in 0..4 {
            for neighbour in [&sinos[2], &wild] {
                let mut batch = vec![neighbour.clone(); 4];
                batch[lane] = target.clone();
                let mut out = vec![0.0f32; 4 * n * n];
                plan.sirt_batch_into(&batch, &mut scratch, &mut out);
                assert_eq!(
                    bits(&out[lane * n * n..(lane + 1) * n * n]),
                    bits(&alone),
                    "{path:?}: lane {lane}"
                );
            }
        }
    }
}

/// Per-slice FBP exactly as the library ran it before the batch
/// engine — the former `ReconPlan::fbp_slice_into` body, kept here as
/// the dev-only oracle: filter the rows into a sinogram, then prescale
/// and backproject that one slice through the one-slice kernel.
struct FbpOracle {
    filter: FilterPlan,
    plan: ReconPlan,
}

impl FbpOracle {
    fn new(geom: &Geometry, cfg: &FbpConfig, path: SimdPath) -> FbpOracle {
        FbpOracle {
            filter: FilterPlan::new(cfg.filter, geom.n_det).with_simd_path(path),
            plan: ReconPlan::new(geom, cfg).unwrap().with_simd_path(path),
        }
    }

    fn solve(&self, sino: &Sinogram) -> Vec<f32> {
        self.solve_weighted(sino, std::f64::consts::PI / sino.n_angles as f64)
    }

    /// [`FbpOracle::solve`] with every angle weighted by `scale`.
    fn solve_weighted(&self, sino: &Sinogram, scale: f64) -> Vec<f32> {
        let n = sino.n_det;
        let mut filtered = Sinogram::zeros(sino.n_angles, n);
        self.filter
            .filter_rows(sino, &mut self.filter.make_buf(), &mut filtered);
        let mut out = vec![0.0f32; n * n];
        self.plan
            .backproject_acc(&filtered, scale, &mut self.plan.make_scratch(), &mut out);
        out
    }
}

#[test]
fn fbp_lanes_are_bit_identical_to_the_per_slice_kernel() {
    // 2·LANES + 1 slices: every batch size from one live lane to two
    // full batches and a one-lane tail; few angles keep the debug
    // build fast, odd counts leave the filter an unpaired final row
    const MAX_BATCH: usize = 9;
    for (n, n_angles) in [(37usize, 15usize), (48, 13), (96, 7), (129, 5)] {
        let (sinos, geom) = slice_stack(n, n_angles, MAX_BATCH);
        for path in [SimdPath::Scalar, SimdPath::Avx2] {
            for mask_disk in [true, false] {
                for filter in [FilterKind::RamLak, FilterKind::Hann, FilterKind::None] {
                    let cfg = FbpConfig { filter, mask_disk };
                    let what = format!("n {n} {path:?} mask {mask_disk} {filter:?}");
                    let plan = ReconPlan::new(&geom, &cfg).unwrap().with_simd_path(path);
                    let oracle = FbpOracle::new(&geom, &cfg, path);
                    let mut scratch = plan.make_scratch();
                    let expected: Vec<Vec<u32>> = sinos
                        .iter()
                        .map(|s| {
                            let mut alone = vec![f32::NAN; n * n];
                            plan.fbp_slice_into(s, &mut scratch, &mut alone);
                            assert_eq!(bits(&alone), bits(&oracle.solve(s)), "{what}: oracle");
                            bits(&alone)
                        })
                        .collect();
                    // descending, through one scratch: a batch with idle
                    // lanes follows one that filled them
                    for batch in (1..=MAX_BATCH).rev() {
                        let mut out = vec![f32::NAN; batch * n * n];
                        plan.fbp_batch_into(&sinos[..batch], &mut scratch, &mut out);
                        // full batches with a one-slice and a two-slice tail
                        if batch == MAX_BATCH || batch == 6 {
                            let vol = plan.fbp_volume(&sinos[..batch]).unwrap();
                            assert_eq!(bits(&vol.data), bits(&out), "{what}: volume of {batch}");
                        }
                        for (z, got) in out.chunks_exact(n * n).enumerate() {
                            assert_eq!(
                                bits(got),
                                expected[z],
                                "{what}: slice {z} of batch {batch}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fbp_slice_bits_do_not_depend_on_lane_or_neighbours() {
    let n = 37;
    let (sinos, geom) = slice_stack(n, 19, 4);
    // neighbours that would poison anything they leaked into
    let mut wild = sinos[1].clone();
    for (i, v) in wild.data.iter_mut().enumerate() {
        *v = match i % 5 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -1e30,
            _ => 1e30,
        };
    }
    for path in [SimdPath::Scalar, SimdPath::Avx2] {
        let plan = ReconPlan::new(&geom, &FbpConfig::default())
            .unwrap()
            .with_simd_path(path);
        let mut scratch = plan.make_scratch();
        let target = &sinos[0];
        let mut alone = vec![0.0f32; n * n];
        plan.fbp_slice_into(target, &mut scratch, &mut alone);
        assert!(alone.iter().all(|v| v.is_finite()));
        for lane in 0..4 {
            for neighbour in [&sinos[2], &wild] {
                let mut batch = vec![neighbour.clone(); 4];
                batch[lane] = target.clone();
                let mut out = vec![0.0f32; 4 * n * n];
                plan.fbp_batch_into(&batch, &mut scratch, &mut out);
                assert_eq!(
                    bits(&out[lane * n * n..(lane + 1) * n * n]),
                    bits(&alone),
                    "{path:?}: lane {lane}"
                );
            }
        }
    }
}

/// Push row `a` of every sinogram as plan angle `a`, for each `a` of
/// `order`, the way detector frames deliver a scan.
fn accumulate_lanes(plan: &Arc<ReconPlan>, sinos: &[Sinogram], order: &[usize]) -> LaneVolume {
    let n = plan.geometry().n_det;
    let mut acc = FbpAccumulator::new(Arc::clone(plan), sinos.len());
    for &a in order {
        for (sino, dst) in sinos.iter().zip(acc.stage_mut().chunks_exact_mut(n)) {
            dst.copy_from_slice(sino.row(a));
        }
        acc.push(a);
    }
    assert_eq!(acc.pushed(), order.len());
    acc.finish()
}

/// [`accumulate_lanes`], with the whole volume read out slice by slice.
fn accumulate(plan: &Arc<ReconPlan>, sinos: &[Sinogram], order: &[usize]) -> Volume {
    assemble(&accumulate_lanes(plan, sinos, order))
}

fn assemble(lanes: &LaneVolume) -> Volume {
    let (nx, ny, nz) = lanes.dims();
    let mut vol = Volume::zeros(nx, ny, nz);
    for z in 0..nz {
        vol.set_slice_xy(z, &lanes.slice_xy(z));
    }
    vol
}

#[test]
fn fbp_accumulator_is_bit_identical_to_fbp_volume() {
    // every angle count around the sweep size K (the lone last angle of
    // an odd count, a finish with 0, 1 and K − 1 angles still pending,
    // one and two whole sweeps)
    let sweep = FbpAccumulator::SWEEP_ANGLES;
    for n in [33usize, 64, 96] {
        for n_angles in [sweep - 1, sweep, sweep + 1, 2 * sweep, 2 * sweep + 1] {
            let (sinos, geom) = slice_stack(n, n_angles, 16);
            let order: Vec<usize> = (0..n_angles).collect();
            for path in [SimdPath::Scalar, SimdPath::Avx2] {
                for mask_disk in [true, false] {
                    let cfg = FbpConfig {
                        mask_disk,
                        ..Default::default()
                    };
                    let plan = Arc::new(ReconPlan::new(&geom, &cfg).unwrap().with_simd_path(path));
                    // every batch shape at one sweep plus a lone angle,
                    // a full batch and a one-lane tail everywhere else
                    let row_counts: &[usize] = if n_angles == sweep + 1 {
                        &[1, 3, 4, 5, 16]
                    } else {
                        &[5]
                    };
                    for &rows in row_counts {
                        let want = plan.fbp_volume(&sinos[..rows]).unwrap();
                        let lanes = accumulate_lanes(&plan, &sinos[..rows], &order);
                        let got = assemble(&lanes);
                        let case = format!(
                            "n {n}, {n_angles} angles, {rows} rows, {path:?}, mask {mask_disk}"
                        );
                        assert_eq!((got.nx, got.ny, got.nz), (n, n, rows));
                        assert_eq!(bits(&got.data), bits(&want.data), "{case}");
                        // the orthogonal slices read across lanes and batches
                        for i in 0..n {
                            let (xz, yz) = (lanes.slice_xz(i), lanes.slice_yz(i));
                            assert_eq!((xz.width, xz.height), (n, rows), "{case}");
                            assert_eq!((yz.width, yz.height), (n, rows), "{case}");
                            assert_eq!(bits(&xz.data), bits(&want.slice_xz(i).data), "{case}");
                            assert_eq!(bits(&yz.data), bits(&want.slice_yz(i).data), "{case}");
                        }
                    }
                }
            }
        }
    }
    // an unfiltered plan takes the filter's pass-through branch
    let (sinos, geom) = slice_stack(37, 9, 6);
    let cfg = FbpConfig {
        filter: FilterKind::None,
        ..Default::default()
    };
    let plan = Arc::new(ReconPlan::new(&geom, &cfg).unwrap());
    let got = accumulate(&plan, &sinos, &(0..9).collect::<Vec<_>>());
    assert_eq!(
        bits(&got.data),
        bits(&plan.fbp_volume(&sinos).unwrap().data)
    );
}

#[test]
fn fbp_accumulator_rescales_scans_that_skip_or_repeat_angles() {
    // truncated, gapped, over-length (repeated angles) and out-of-order
    // arrivals: bit-identical to the from-scratch reconstruction on the
    // arrival-order geometry that weights angles by the full plan's
    // `π / n_angles` and rescales once at the end, and within f32
    // round-off of the plain FBP of that geometry
    let (n, n_angles, rows) = (48usize, 30usize, 6usize);
    let (sinos, geom) = slice_stack(n, n_angles, rows);
    let cfg = FbpConfig::default();
    let orders: [Vec<usize>; 4] = [
        (0..17).collect(),
        (0..n_angles).filter(|a| a % 7 != 3).collect(),
        (0..n_angles).chain([4, 4, 29]).collect(),
        (0..n_angles).rev().step_by(2).collect(),
    ];
    for path in [SimdPath::Scalar, SimdPath::Avx2] {
        let plan = Arc::new(ReconPlan::new(&geom, &cfg).unwrap().with_simd_path(path));
        for order in &orders {
            let got = accumulate(&plan, &sinos, order);
            let arrived = Geometry {
                angles: order.iter().map(|&a| geom.angles[a]).collect(),
                ..geom.clone()
            };
            let arrived_sinos: Vec<Sinogram> = sinos
                .iter()
                .map(|s| {
                    let mut t = Sinogram::zeros(order.len(), n);
                    for (slot, &a) in order.iter().enumerate() {
                        t.row_mut(slot).copy_from_slice(s.row(a));
                    }
                    t
                })
                .collect();
            let oracle = FbpOracle::new(&arrived, &cfg, path);
            let ratio = (n_angles as f64 / order.len() as f64) as f32;
            let plain = oracle.plan.fbp_volume(&arrived_sinos).unwrap();
            let peak = plain.data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (z, sino) in arrived_sinos.iter().enumerate() {
                let mut want = oracle.solve_weighted(sino, std::f64::consts::PI / n_angles as f64);
                want.iter_mut().for_each(|v| *v *= ratio);
                let slice = &got.data[z * n * n..(z + 1) * n * n];
                assert_eq!(bits(slice), bits(&want), "{path:?}, {} pushes", order.len());
                for (g, p) in slice.iter().zip(&plain.data[z * n * n..(z + 1) * n * n]) {
                    assert!(
                        (g - p).abs() <= 1e-6 * peak,
                        "{path:?}, {} pushes: {g} vs {p} (peak {peak})",
                        order.len()
                    );
                }
            }
        }
    }
}

#[test]
fn simd_fbp_matches_scalar_fbp_on_shepp_logan() {
    // On non-AVX2 hosts `with_simd_path(Avx2)` clamps back to scalar and
    // this degenerates to scalar-vs-scalar — still a valid (vacuous) gate.
    for (n, n_angles) in [(64usize, 180usize), (128, 90)] {
        let (sino, geom) = shepp_sinogram(n, n_angles);
        for mask_disk in [true, false] {
            let cfg = FbpConfig {
                filter: FilterKind::SheppLogan,
                mask_disk,
            };
            let scalar_plan = ReconPlan::new(&geom, &cfg)
                .unwrap()
                .with_simd_path(SimdPath::Scalar);
            let wide_plan = ReconPlan::new(&geom, &cfg)
                .unwrap()
                .with_simd_path(SimdPath::Avx2);
            let mut s1 = scalar_plan.make_scratch();
            let mut s2 = wide_plan.make_scratch();
            let a = scalar_plan.fbp_slice_with(&sino, &mut s1).unwrap();
            let b = wide_plan.fbp_slice_with(&sino, &mut s2).unwrap();
            let e = rmse(&a, &b);
            assert!(e < 1e-5, "n={n} mask={mask_disk}: simd-vs-scalar rmse {e}");
        }
    }
}

#[test]
fn simd_fbp_matches_reference_on_shepp_logan() {
    // the full gate the issue asks for: SIMD plan vs the pre-plan
    // reference kernels, not just vs the scalar plan
    let (sino, geom) = shepp_sinogram(64, 180);
    let cfg = FbpConfig::default();
    let plan = ReconPlan::new(&geom, &cfg)
        .unwrap()
        .with_simd_path(SimdPath::Avx2);
    let mut scratch = plan.make_scratch();
    let a = plan.fbp_slice_with(&sino, &mut scratch).unwrap();
    let b = reference::fbp_slice(&sino, &geom, &cfg).unwrap();
    let e = rmse(&a, &b);
    assert!(e < 1e-5, "simd-vs-reference rmse {e}");
}

#[test]
fn fused_ring_suppression_is_bit_identical_to_remove_stripes() {
    let n_angles = 37;
    let n_det = 53;
    let mut raw = Sinogram::zeros(n_angles, n_det);
    for (i, v) in raw.data.iter_mut().enumerate() {
        *v = 400.0 + ((i * 31 + 7) % 900) as f32 + if i % n_det == 13 { 120.0 } else { 0.0 };
    }
    let dark = vec![90.0f32; n_det];
    let flat = vec![1100.0f32; n_det];
    let mut fused = reference::prep_chain(&raw, &dark, &flat, Some(0.5), None, None);
    let expected = als_tomo::prep::remove_stripes(&fused, 7);
    let plan = SinoPostPlan::new(n_det, Some(7), None);
    plan.apply(&mut fused, &mut plan.make_scratch());
    assert_eq!(
        expected.data, fused.data,
        "fused ring detrend must match remove_stripes bit-for-bit"
    );
}

#[test]
fn fused_ring_paganin_chain_matches_reference_prep_chain() {
    let n_angles = 41;
    let n_det = 61;
    let mut raw = Sinogram::zeros(n_angles, n_det);
    for (i, v) in raw.data.iter_mut().enumerate() {
        *v = 300.0 + ((i * 17 + 3) % 1000) as f32 + if i % n_det == 20 { 90.0 } else { 0.0 };
    }
    let dark: Vec<f32> = (0..n_det).map(|t| 80.0 + (t % 7) as f32 * 4.0).collect();
    let flat: Vec<f32> = (0..n_det).map(|t| 1000.0 + (t % 11) as f32 * 9.0).collect();
    let line_integrals = reference::prep_chain(&raw, &dark, &flat, Some(0.5), None, None);
    for &(ring, paganin) in &[
        (Some(9usize), Some(40.0f64)),
        (None, Some(25.0)),
        (Some(5), None),
    ] {
        let expected = reference::prep_chain(&raw, &dark, &flat, Some(0.5), ring, paganin);
        let plan = SinoPostPlan::new(n_det, ring, paganin);
        let mut fused = line_integrals.clone();
        plan.apply(&mut fused, &mut plan.make_scratch());
        let e: f64 = expected
            .data
            .iter()
            .zip(fused.data.iter())
            .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
            .sum::<f64>()
            / expected.data.len() as f64;
        let e = e.sqrt();
        assert!(e < 1e-5, "ring {ring:?} paganin {paganin:?}: rmse {e}");
    }
}

#[test]
fn scratch_independent_of_sharing() {
    // two slices through one scratch == two slices through two scratches
    let (sino, geom) = shepp_sinogram(48, 60);
    let plan = ReconPlan::new(&geom, &FbpConfig::default()).unwrap();
    let mut shared = plan.make_scratch();
    let a1 = plan.fbp_slice_with(&sino, &mut shared).unwrap();
    let a2 = plan.fbp_slice_with(&sino, &mut shared).unwrap();
    let mut fresh = plan.make_scratch();
    let b = plan.fbp_slice_with(&sino, &mut fresh).unwrap();
    assert_eq!(a1, b);
    assert_eq!(a2, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary pixel values, negatives included, through the volume
    /// projector: every slice bit-identical to the pre-plan projector.
    #[test]
    fn volume_forward_projection_is_bit_identical_for_any_image(
        n in 2usize..24,
        nz in 1usize..10,
        n_angles in 1usize..12,
        center_shift in -3.0f64..3.0,
        fill in proptest::collection::vec(-50.0f64..50.0, 1..97),
    ) {
        let mut vol = Volume::zeros(n, n, nz);
        for (i, v) in vol.data.iter_mut().enumerate() {
            *v = fill[(i * 7 + i / fill.len()) % fill.len()] as f32;
        }
        let center = (n as f64 - 1.0) / 2.0 + center_shift;
        let geom = Geometry::parallel_180(n_angles, n).with_center(center);
        let outcome = volume_projection_mismatch(&vol, &geom);
        prop_assert!(outcome.is_ok(), "n {} nz {} angles {}: {:?}", n, nz, n_angles, outcome);
    }

    /// Packed two-row real-FFT filtering must equal row-at-a-time
    /// filtering for arbitrary row pairs (and odd row counts, which
    /// leave an unpaired final row).
    #[test]
    fn packed_filtering_equals_row_at_a_time(
        n_angles in 1usize..6,
        n_det in 4usize..48,
        fill in proptest::collection::vec(-100.0f64..100.0, 0..288),
        kind_idx in 0usize..7,
    ) {
        let kind = FilterKind::ALL[kind_idx];
        let mut sino = Sinogram::zeros(n_angles, n_det);
        for (v, &x) in sino.data.iter_mut().zip(fill.iter().cycle()) {
            *v = x as f32;
        }
        // packed path (two rows per complex FFT)
        let plan = FilterPlan::new(kind, n_det);
        let mut buf = plan.make_buf();
        let mut packed = Sinogram::zeros(n_angles, n_det);
        plan.filter_rows(&sino, &mut buf, &mut packed);
        // reference path (one full complex FFT per row)
        let row_at_a_time = reference::filter_sinogram(&sino, kind);
        for (i, (&p, &r)) in packed.data.iter().zip(row_at_a_time.data.iter()).enumerate() {
            let tol = 1e-4f32 * (1.0 + r.abs());
            prop_assert!(
                (p - r).abs() <= tol,
                "{:?} sample {}: packed {} vs reference {}",
                kind, i, p, r
            );
        }
    }

    /// The AVX butterfly kernel must be bit-identical to the scalar
    /// stage loop for every transform size and arbitrary data — the
    /// equivalence that lets `FftPlan::new` default to the wide path
    /// everywhere (gridrec, packed filtering, streaming). On non-AVX2
    /// hosts both plans run scalar and the property holds vacuously.
    #[test]
    fn simd_fft_is_bit_exact_for_any_signal(
        log_n in 1u32..10,
        fill in proptest::collection::vec(-1e3f64..1e3, 2..64),
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let scalar = FftPlan::new(n).with_simd_path(SimdPath::Scalar);
        let wide = FftPlan::new(n).with_simd_path(SimdPath::Avx2);
        let orig: Vec<Complex> = (0..n)
            .map(|i| {
                let re = fill[i % fill.len()];
                let im = fill[(i * 7 + 3) % fill.len()];
                Complex::new(re, im)
            })
            .collect();
        let mut a = orig.clone();
        let mut b = orig;
        if inverse {
            scalar.inverse(&mut a);
            wide.inverse(&mut b);
        } else {
            scalar.forward(&mut a);
            wide.forward(&mut b);
        }
        prop_assert_eq!(a, b, "n {} inverse {}", n, inverse);
    }

    /// SIMD-filtered rows must be bit-identical to scalar-filtered rows
    /// across odd detector widths and both packed/unpacked final rows
    /// (the spectrum multiply is one rounding per lane on either path).
    #[test]
    fn simd_filter_is_bit_exact_across_widths(
        n_angles in 1usize..6,
        n_det in 3usize..70,
        fill in proptest::collection::vec(-100.0f64..100.0, 1..128),
        kind_idx in 0usize..7,
    ) {
        let kind = FilterKind::ALL[kind_idx];
        let mut sino = Sinogram::zeros(n_angles, n_det);
        for (v, &x) in sino.data.iter_mut().zip(fill.iter().cycle()) {
            *v = x as f32;
        }
        let scalar = FilterPlan::new(kind, n_det).with_simd_path(SimdPath::Scalar);
        let wide = FilterPlan::new(kind, n_det).with_simd_path(SimdPath::Avx2);
        let mut buf_a = scalar.make_buf();
        let mut buf_b = wide.make_buf();
        let mut out_a = Sinogram::zeros(n_angles, n_det);
        let mut out_b = Sinogram::zeros(n_angles, n_det);
        scalar.filter_rows(&sino, &mut buf_a, &mut out_a);
        wide.filter_rows(&sino, &mut buf_b, &mut out_b);
        prop_assert_eq!(out_a.data, out_b.data, "{:?} nd {}", kind, n_det);
    }
}
