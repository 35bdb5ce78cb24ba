//! Equivalence of the chunked scan-to-archive pipeline against the
//! per-slice branches it replaced (kept here as oracles), and of the
//! streaming service's reconstruct-on-arrival previews against a
//! from-scratch oracle, on simulated Shepp-Logan scans — at one worker
//! thread and at several, to catch ordering/racing bugs in the
//! slab/parallel plumbing.

use als_flows::realmode::{
    file_based_reconstruction_with, streaming_reconstruction, FileBranchConfig,
};
use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
use als_scidata::ScanFile;
use als_stream::slab::{FrameSlab, SlabFrame};
use als_stream::streamer::{IncrementalScan, PlanCache, Preview};
use als_stream::{
    announce_for, PvaServer, ScanAnnounce, StreamMessage, StreamerConfig, StreamingReconService,
};
use als_tomo::filter::filter_sinogram;
use als_tomo::{FbpConfig, Geometry, IterConfig, RawPrepPlan, ReconPlan, Sinogram, Volume};
use std::sync::Arc;
use std::time::Duration;

/// The pre-plan per-slice SIRT, shared with `als-tomo`'s equivalence
/// gates.
#[path = "../crates/tomo/tests/reference/sirt.rs"]
mod reference_sirt;

/// The normalized sinogram of detector row `r`, gathered element by
/// element from the scan file.
fn scan_slice_sinogram(scan: &ScanFile, r: usize, mu_scale: f64) -> Sinogram {
    let (n_angles, _, cols) = scan.shape();
    let dark = scan.dark();
    let flat = scan.flat();
    let mut sino = Sinogram::zeros(n_angles, cols);
    for a in 0..n_angles {
        let frame = scan.frame_data(a);
        let base = r * cols;
        for c in 0..cols {
            let raw = frame[base + c] as f64;
            let d = dark[base + c] as f64;
            let f = flat[base + c] as f64;
            let t = ((raw - d) / (f - d).max(1.0)).clamp(1e-6, 1.0);
            sino.set(a, c, (-(t.ln()) / mu_scale) as f32);
        }
    }
    sino
}

/// The geometry both per-slice branches reconstruct with.
fn scan_geometry(scan: &ScanFile) -> Geometry {
    let cols = scan.shape().2;
    Geometry {
        angles: scan.angles(),
        n_det: cols,
        center: (cols as f64 - 1.0) / 2.0,
    }
}

/// The file-based branch before the pipeline: per-slice sinogram
/// gather, unfused zinger removal, per-call reference SIRT.
fn file_based_reconstruction_baseline(
    scan: &ScanFile,
    mu_scale: f64,
    cfg: &FileBranchConfig,
) -> Volume {
    let (_, rows, cols) = scan.shape();
    let geom = scan_geometry(scan);
    let iter_cfg = IterConfig {
        iterations: cfg.sirt_iterations,
        ..Default::default()
    };
    let mut out = Volume::zeros(cols, cols, rows);
    for r in 0..rows {
        let sino = scan_slice_sinogram(scan, r, mu_scale);
        // zinger removal only: dark/flat normalization (already applied in
        // scan_slice_sinogram) removes the column-gain errors that stripe
        // filtering targets, so running it here would only erode signal
        let cleaned = match cfg.zinger_threshold {
            Some(thr) => als_tomo::prep::remove_zingers(&sino, thr),
            None => sino,
        };
        let img = reference_sirt::sirt_slice(&cleaned, &geom, &iter_cfg).expect("sirt succeeds");
        out.set_slice_xy(r, &img);
    }
    out
}

/// The streaming branch before the pipeline: per-slice gather, then FBP
/// through a per-call plan.
fn streaming_reconstruction_baseline(scan: &ScanFile, mu_scale: f64) -> Volume {
    let (_, rows, cols) = scan.shape();
    let geom = scan_geometry(scan);
    let plan = ReconPlan::new(&geom, &FbpConfig::default()).expect("fbp plan");
    let mut out = Volume::zeros(cols, cols, rows);
    for r in 0..rows {
        let sino = scan_slice_sinogram(scan, r, mu_scale);
        let img = plan
            .fbp_slice_with(&sino, &mut plan.make_scratch())
            .expect("fbp succeeds");
        out.set_slice_xy(r, &img);
    }
    out
}

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

#[test]
fn streaming_pipeline_is_bit_identical_to_baseline() {
    // same prep math (fused, bit-for-bit) + the same shared FBP plan
    // per slice: the pipeline must reproduce the per-slice path
    // exactly, not just approximately
    let (scan, mu) = shepp_logan_scan(32, 5, 24);
    let base = streaming_reconstruction_baseline(&scan, mu);
    let fast = streaming_reconstruction(&scan, mu);
    assert_eq!(base, fast);
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

        // the streaming service reconstructs on arrival; its lane
        // batches sweep on the same worker pool
        service_preview_matches_oracle(threads);
    }
    rayon::set_num_threads(0);

    // thread count must not change the output at all
    assert_eq!(
        per_thread_file[0], per_thread_file[1],
        "pipeline output depends on worker thread count"
    );
}

/// A scan as the streaming consumers see it: the announcement and the
/// frames, `rows` detector rows of `n` pixels at `n_angles` angles.
fn streamed_scan(
    n: usize,
    rows: usize,
    n_angles: usize,
    seed: u64,
) -> (ScanAnnounce, Vec<SlabFrame>) {
    let vol = shepp_logan_volume(n, rows);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, Geometry::parallel_180(n_angles, n), det, seed);
    let announce = announce_for(&sim, "equiv", det.mu_scale);
    let frames = sim
        .all_frames()
        .into_iter()
        .map(|f| FrameSlab::detached(f.meta, f.data))
        .collect();
    (announce, frames)
}

/// The from-scratch oracle's inputs: every sinogram row gathered and
/// prepped from the whole frame list at scan end, and the geometry of
/// the angles in arrival order.
fn arrival_order_sinograms(
    announce: &ScanAnnounce,
    frames: &[SlabFrame],
) -> (Vec<Sinogram>, Geometry) {
    let cols = announce.cols;
    let prep = RawPrepPlan::new(
        &announce.dark,
        &announce.flat,
        announce.rows,
        cols,
        announce.mu_scale,
        None,
    );
    let sinos = (0..announce.rows)
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
    (sinos, geom)
}

/// The from-scratch oracle: a fresh plan on the arrival-order angles
/// and one `fbp_volume` over the gathered sinograms.
fn oracle_volume(announce: &ScanAnnounce, frames: &[SlabFrame], cfg: &FbpConfig) -> Volume {
    let (sinos, geom) = arrival_order_sinograms(announce, frames);
    ReconPlan::new(&geom, cfg)
        .unwrap()
        .fbp_volume(&sinos)
        .unwrap()
}

fn assert_preview_is(preview: &Preview, vol: &Volume, what: &str) {
    let want = [
        vol.slice_xy(vol.nz / 2),
        vol.slice_xz(vol.ny / 2),
        vol.slice_yz(vol.nx / 2),
    ];
    for (i, (got, want)) in preview.slices.iter().zip(&want).enumerate() {
        let bits = |img: &als_tomo::Image| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: preview slice {i} diverged");
    }
}

/// A complete scan through the running service — filtered and
/// backprojected frame by frame as it arrives — must give previews
/// **bit-identical** to the from-scratch oracle: per pixel the float
/// operations and their order are the same, only when they run differs.
/// Sixteen rows are four lane batches (a parallel sweep), five a full
/// batch and a one-lane tail.
fn service_preview_matches_oracle(threads: usize) {
    for rows in [16usize, 5] {
        let (announce, frames) = streamed_scan(48, rows, 37, 97);
        let cfg = StreamerConfig::default();
        let want = oracle_volume(&announce, &frames, &cfg.fbp);

        let server = PvaServer::new();
        let (svc, previews) = StreamingReconService::spawn(server.subscribe(4096), cfg);
        server.publish(StreamMessage::ScanStart(Arc::new(announce)));
        for f in &frames {
            server.publish(StreamMessage::Frame(Arc::clone(f)));
        }
        server.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from("equiv"),
        });
        let preview = previews
            .recv_timeout(Duration::from_secs(60))
            .expect("service preview");
        svc.stop();
        assert_eq!((preview.cached_frames, preview.dropped_frames), (37, 0));
        assert!(preview.ingest_busy > Duration::ZERO);
        assert_preview_is(&preview, &want, &format!("{rows} rows, {threads} threads"));
    }
}

/// Scans that lose frames upstream, and scans that deliver some twice:
/// the service weights every angle by the announced count as it
/// arrives and rescales once at the end. Bit-identical to the
/// from-scratch reconstruction that does the same — the arrival-order
/// geometry, `π / announced` per angle, one rescale by `announced /
/// received` — and within f32 round-off of the plain FBP of what
/// arrived. Three rows are one partial lane batch of the FBP engine, six
/// a full batch plus a two-slice tail.
#[test]
fn truncated_and_over_length_previews_match_the_rescaling_oracle() {
    for rows in [3usize, 6] {
        let (announce, all) = streamed_scan(32, rows, 24, 31);
        let announce = Arc::new(announce);
        let lossy: Vec<SlabFrame> = all
            .iter()
            .filter(|f| f.meta.frame_id % 5 != 2)
            .cloned()
            .collect();
        let repeats = [&all[..], &all[3..9], &all[23..]].concat();
        for frames in [&all[..17], &lossy[..], &repeats[..]] {
            let cfg = FbpConfig::default();
            let mut scan =
                IncrementalScan::open(Arc::clone(&announce), &PlanCache::new(), &cfg).unwrap();
            for f in frames {
                assert!(scan.ingest(f));
            }
            let preview = scan.finish("partial").unwrap();
            assert_eq!(preview.cached_frames, frames.len());
            assert_eq!(preview.dropped_frames, 24usize.saturating_sub(frames.len()));
            assert_eq!(preview.slices[1].height, rows);

            let what = format!("{rows} rows, {} of 24 frames", frames.len());
            let (sinos, geom) = arrival_order_sinograms(&announce, frames);
            let plan = ReconPlan::new(&geom, &cfg).unwrap();
            let (n, ratio) = (32usize, (24.0 / frames.len() as f64) as f32);
            let mut want = Volume::zeros(n, n, rows);
            for (sino, out) in sinos.iter().zip(want.data.chunks_exact_mut(n * n)) {
                let filtered = filter_sinogram(sino, cfg.filter);
                let weight = std::f64::consts::PI / 24.0;
                plan.backproject_acc(&filtered, weight, &mut plan.make_scratch(), out);
                out.iter_mut().for_each(|v| *v *= ratio);
            }
            assert_preview_is(&preview, &want, &what);

            let plain = plan.fbp_volume(&sinos).unwrap();
            let peak = plain.data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let e = want
                .data
                .iter()
                .zip(&plain.data)
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(e <= 1e-6 * peak, "{what}: {e} off plain FBP (peak {peak})");
        }
    }
}
