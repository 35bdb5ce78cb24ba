//! The measured surface: every call the benchmark makes into the
//! repository goes through this file, and no other file names an
//! `als_*` crate. When a library API changes, this is the one place the
//! benchmark follows it; the workloads, metrics and checks stay put.
//!
//! Only surfaces that ROADMAP items 2-3 keep are used: no `*_baseline`,
//! `tomo::reference`, `reconstruct_preview`, `sirt_slice_baseline`,
//! `RouterMode::OneShot` or unsharded `DurableOrchestrator::{new,production}`.

use crate::harness::Digest;
use crate::trace::{SpanId, Trace};
use als_catalog::{raw_scan_dataset, recon_dataset, Catalog, DatasetPid, InstrumentMetadata};
use als_flows::campaign::{run_campaign, CampaignConfig};
use als_flows::observability::{accounting_identity_holds, run_observability_sim};
use als_flows::realmode::{scan_to_archive, FileBranchConfig};
use als_flows::recovery::{crash_storm_plan, outcome_of, run_recovery_sim};
use als_flows::sim::{FacilitySim, SimConfig};
use als_orchestrator::{
    shard_of_key, Claim, DurableOrchestrator, ExternalKind, FlowState, RetryPolicy, ShardPool,
    ShardedOrchestrator, TaskState,
};
use als_phantom::{shepp_logan_volume, DetectorConfig, FrameMeta, ScanSimulator};
use als_scidata::{tiff, MultiscaleStore, MultiscaleWriter, ScanFile, TiffStackSink};
use als_simcore::{ByteSize, SimDuration, SimInstant};
use als_stream::{
    deep_copy_count, ChannelMirror, DeliveryMode, FileWriterConfig, FileWriterHandle,
    FileWriterService, IncrementalScan, PlanCache, Preview, PreviewChannel, PvaServer,
    ScanAnnounce, SlabFrame, SlabPool, StreamHub, StreamLane, StreamMessage, StreamerConfig,
    StreamingReconService, Subscription,
};
use als_telemetry::Registry;
use als_tomo::pipeline::{
    self, PipelineConfig, ProjectionSource, ReconKind, SliceSink, VolumeSink,
};
use als_tomo::quality::mse_in_disk;
use als_tomo::{FbpConfig, Geometry, Image, IterConfig, IterPlan, ReconPlan, Sinogram};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ----- machine ----------------------------------------------------------

/// f32 lanes of the SIMD path the reconstruction kernels detected.
pub fn simd_lanes() -> usize {
    als_tomo::simd::lanes(als_tomo::simd::detect())
}

pub fn simd_path_name() -> &'static str {
    als_tomo::simd::detect().name()
}

// ----- rendered inputs --------------------------------------------------

/// Acquisition size: `n x n` slices, `rows` detector rows, `angles`
/// projections of `rows x n` pixels each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanShape {
    pub n: usize,
    pub rows: usize,
    pub angles: usize,
}

impl ScanShape {
    pub fn frame_len(&self) -> usize {
        self.rows * self.n
    }
}

/// One phantom scan rendered ahead of time: the expensive forward
/// projection runs once, then each realisation is a fresh Poisson draw
/// over it. The timed loops only copy these bytes into slabs.
pub struct RenderedScan {
    pub shape: ScanShape,
    announce: ScanAnnounce,
    metas: Vec<FrameMeta>,
    realisations: Vec<Vec<u16>>,
    truth_mid: Image,
}

impl RenderedScan {
    pub fn render(shape: ScanShape, seed: u64, realisations: usize) -> RenderedScan {
        let det = DetectorConfig::default();
        let vol = shepp_logan_volume(shape.n, shape.rows);
        let geom = Geometry::parallel_180(shape.angles, shape.n);
        let mut sim = ScanSimulator::new(&vol, geom, det, seed);
        let announce = als_stream::announce_for(&sim, "", det.mu_scale);
        let mut metas = Vec::new();
        let realisations = (0..realisations.max(1))
            .map(|_| {
                let frames = sim.all_frames();
                let mut flat = Vec::with_capacity(shape.angles * shape.frame_len());
                for f in &frames {
                    flat.extend_from_slice(&f.data);
                }
                metas = frames.into_iter().map(|f| f.meta).collect();
                flat
            })
            .collect();
        RenderedScan {
            shape,
            announce,
            metas,
            realisations,
            truth_mid: vol.slice_xy(shape.rows / 2),
        }
    }

    pub fn realisations(&self) -> usize {
        self.realisations.len()
    }

    /// Pixels of frame `a` of realisation `r`.
    pub fn frame(&self, r: usize, a: usize) -> &[u16] {
        let len = self.shape.frame_len();
        &self.realisations[r][a * len..(a + 1) * len]
    }

    /// Identifies the generated inputs: same seed, same digest.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u16s(&self.announce.dark);
        d.u16s(&self.announce.flat);
        for r in &self.realisations {
            d.u16s(r);
        }
        d.finish()
    }

    /// In-disk MSE of a reconstructed mid slice against the phantom.
    pub fn mid_slice_mse(&self, slice: &[f32]) -> f64 {
        let n = self.shape.n;
        mse_in_disk(&self.truth_mid, &Image::from_vec(n, n, slice.to_vec()))
    }

    fn announce(&self, scan_id: &str) -> Arc<ScanAnnounce> {
        Arc::new(ScanAnnounce {
            scan_id: scan_id.to_string(),
            ..self.announce.clone()
        })
    }
}

// ----- stream: publishing -----------------------------------------------

/// A detector frame sealed in a pooled slab.
pub type Frame = SlabFrame;

/// The detector IOC's side of a channel: a server plus the slab pool
/// its frames come from.
pub struct Publisher {
    server: Arc<PvaServer>,
    pool: SlabPool,
}

impl Publisher {
    fn new(server: Arc<PvaServer>, frame_len: usize) -> Publisher {
        Publisher {
            server,
            pool: SlabPool::new(frame_len),
        }
    }

    pub fn start_scan(&self, scan: &RenderedScan, scan_id: &str) {
        self.server
            .publish(StreamMessage::ScanStart(scan.announce(scan_id)));
    }

    /// Lease a slab and copy the rendered frame into it.
    pub fn acquire(&self, scan: &RenderedScan, r: usize, a: usize) -> Frame {
        self.pool.frame(scan.metas[a].clone(), |buf| {
            buf.copy_from_slice(scan.frame(r, a))
        })
    }

    pub fn publish(&self, frame: Frame) {
        self.server.publish(StreamMessage::Frame(frame));
    }

    pub fn end_scan(&self, scan_id: &str) {
        self.server.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from(scan_id),
        });
    }

    /// Slabs ever allocated: the peak concurrent working set.
    pub fn slabs_allocated(&self) -> u64 {
        self.pool.allocated()
    }
}

pub fn deep_copies() -> u64 {
    deep_copy_count()
}

/// A preview as the beamline receives it.
pub struct PreviewMsg(Preview);

impl PreviewMsg {
    pub fn scan_id(&self) -> &str {
        &self.0.scan_id
    }
    pub fn cached_frames(&self) -> usize {
        self.0.cached_frames
    }
    pub fn lost_frames(&self) -> usize {
        self.0.dropped_frames + self.0.rejected_frames
    }
    pub fn recon_wall(&self) -> Duration {
        self.0.recon_wall
    }
    pub fn send_wall(&self) -> Duration {
        self.0.send_wall
    }
    /// The XY (axial) mid slice, row-major `n x n`.
    pub fn xy_slice(&self) -> &[f32] {
        &self.0.slices[0].data
    }
}

/// Receiving end of a preview reply channel.
pub struct PreviewRx(PreviewChannel);

impl PreviewRx {
    pub fn recv(&self, timeout: Duration) -> Option<PreviewMsg> {
        self.0.recv_timeout(timeout).map(PreviewMsg)
    }
    pub fn dropped(&self) -> u64 {
        self.0.dropped_count()
    }
}

/// A finished scan file as the file writer reports it.
pub struct FileMsg {
    pub scan_id: String,
    pub path: PathBuf,
    pub frames: usize,
    pub bytes: u64,
    pub rejected_frames: usize,
}

/// Completion reports of a running file writer; dropping it stops the
/// writer and joins its thread.
pub struct FileRx(FileWriterHandle);

impl FileRx {
    pub fn recv(&self, timeout: Duration) -> Option<FileMsg> {
        self.0.wait_completion(timeout).map(|w| FileMsg {
            scan_id: w.scan_id,
            path: w.path,
            frames: w.n_frames,
            bytes: w.bytes,
            rejected_frames: w.rejected_frames,
        })
    }
    pub fn completions_dropped(&self) -> u64 {
        self.0.completions_dropped()
    }
}

/// Does the scan file at `path` hold exactly realisation `r`?
pub fn file_matches(path: &Path, scan: &RenderedScan, r: usize) -> Result<(), String> {
    let loaded = ScanFile::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let s = scan.shape;
    if loaded.shape() != (s.angles, s.rows, s.n) {
        return Err(format!("{}: shape {:?}", path.display(), loaded.shape()));
    }
    for a in 0..s.angles {
        if loaded.frame_data(a) != scan.frame(r, a) {
            return Err(format!("{}: frame {a} differs", path.display()));
        }
    }
    Ok(())
}

/// Counters the stream layers export through their shared registry.
#[derive(Clone)]
pub struct StreamTelemetry(Arc<Registry>);

impl StreamTelemetry {
    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.0
            .snapshot()
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Largest current value among the gauges starting with `prefix`.
    pub fn gauge_max(&self, prefix: &str) -> i64 {
        self.0
            .snapshot()
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }
}

/// Arrival stamps of every message a probe subscriber saw, in order.
pub struct Probe {
    sub: Subscription,
}

impl Probe {
    /// Drain until `messages` arrived or `idle` passes without one.
    pub fn collect(&self, messages: usize, idle: Duration) -> Vec<Instant> {
        let mut stamps = Vec::with_capacity(messages);
        while stamps.len() < messages {
            match self.sub.recv_timeout(idle) {
                Ok(_) => stamps.push(Instant::now()),
                Err(_) => break,
            }
        }
        stamps
    }
    pub fn dropped(&self) -> u64 {
        self.sub.dropped_count()
    }
}

// ----- stream: the paced acquisition topology ---------------------------

const QUEUE: usize = 1 << 10;

/// `run_session`'s acquisition half: IOC channel -> mirror (Reliable)
/// -> {file writer (Reliable), streaming recon (Lossy)}.
pub struct PacedTopology {
    pub publisher: Publisher,
    pub telemetry: StreamTelemetry,
    mirror: ChannelMirror,
    streamer: StreamingReconService,
    plans: Arc<PlanCache>,
}

pub struct PacedEnds {
    pub previews: PreviewRx,
    pub files: FileRx,
    /// Lossy subscriber on the mirrored channel (traced runs).
    pub probe: Option<Probe>,
}

pub fn paced_topology(out_dir: &Path, frame_len: usize, probe: bool) -> (PacedTopology, PacedEnds) {
    let registry = Arc::new(Registry::new());
    let ioc = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let mirror = ChannelMirror::spawn_onto(
        ioc.subscribe_named("mirror", QUEUE, DeliveryMode::Reliable),
        PvaServer::with_registry("mirror", Arc::clone(&registry)),
        Duration::from_millis(10),
    );
    let writer = FileWriterService::spawn_with(
        mirror
            .output()
            .subscribe_named("filewriter", QUEUE, DeliveryMode::Reliable),
        out_dir,
        FileWriterConfig {
            stream: "paced".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    let plans = PlanCache::new();
    let (streamer, previews) = StreamingReconService::spawn_shared(
        mirror
            .output()
            .subscribe_named("preview", QUEUE, DeliveryMode::Lossy),
        StreamerConfig {
            stream: "paced".into(),
            registry: Some(Arc::clone(&registry)),
            // every preview of the run may wait for the collector
            preview_queue: 1 << 12,
            ..Default::default()
        },
        Arc::clone(&plans),
    );
    let probe = probe.then(|| Probe {
        sub: mirror
            .output()
            .subscribe_named("probe", 1 << 16, DeliveryMode::Lossy),
    });
    (
        PacedTopology {
            publisher: Publisher::new(ioc, frame_len),
            telemetry: StreamTelemetry(registry),
            mirror,
            streamer,
            plans,
        },
        PacedEnds {
            previews: PreviewRx(previews),
            files: FileRx(writer),
            probe,
        },
    )
}

impl PacedTopology {
    pub fn mirror_forwarded(&self) -> u64 {
        self.mirror.forwarded_count()
    }
    pub fn plan_cache(&self) -> (u64, u64) {
        (self.plans.hits(), self.plans.misses())
    }
    /// Stop the services and join their threads.
    pub fn stop(self) {
        self.streamer.stop();
        self.mirror.stop();
    }
}

// ----- stream: hub lanes ------------------------------------------------

/// A `StreamHub` whose lanes each carry the hub's Lossy preview path
/// and a Reliable file writer.
pub struct Hub(StreamHub);

/// One detector stream of a [`Hub`].
pub struct Lane {
    pub publisher: Publisher,
    lane: StreamLane,
}

impl Hub {
    pub fn new() -> Hub {
        Hub(StreamHub::new())
    }

    pub fn telemetry(&self) -> StreamTelemetry {
        StreamTelemetry(Arc::clone(self.0.registry()))
    }

    pub fn plan_cache(&self) -> (u64, u64) {
        (self.0.plans().hits(), self.0.plans().misses())
    }

    pub fn open_lane(&self, name: &str, out_dir: &Path, frame_len: usize) -> (Lane, FileRx) {
        let lane = self.0.open_lane(name, FbpConfig::default(), QUEUE);
        let writer = FileWriterService::spawn_with(
            lane.server
                .subscribe_named("filewriter", QUEUE, DeliveryMode::Reliable),
            out_dir,
            FileWriterConfig {
                stream: name.to_string(),
                registry: Some(Arc::clone(self.0.registry())),
                ..Default::default()
            },
        );
        let publisher = Publisher::new(Arc::clone(&lane.server), frame_len);
        (Lane { publisher, lane }, FileRx(writer))
    }
}

impl Lane {
    pub fn recv_preview(&self, timeout: Duration) -> Option<PreviewMsg> {
        self.lane.previews.recv_timeout(timeout).map(PreviewMsg)
    }
    pub fn previews_dropped(&self) -> u64 {
        self.lane.previews.dropped_count()
    }
    /// Stop the lane's reconstruction service and join its thread.
    pub fn close(self) {
        self.lane.close();
    }
}

// ----- stream: single-thread layer probes -------------------------------

/// Single-thread replay of the streamer's per-scan work on the calling
/// thread: assembly set-up and per-frame ingest.
pub struct StreamerReplay {
    pub setup: Duration,
    pub ingest: Duration,
    pub frames: usize,
}

pub fn replay_streamer(scan: &RenderedScan, r: usize) -> StreamerReplay {
    let frames: Vec<Frame> = (0..scan.shape.angles)
        .map(|a| als_stream::FrameSlab::detached(scan.metas[a].clone(), scan.frame(r, a).to_vec()))
        .collect();
    let announce = scan.announce("replay");
    let t = Instant::now();
    let mut assembly = IncrementalScan::new(announce);
    let setup = t.elapsed();
    let t = Instant::now();
    for f in &frames {
        assembly.ingest(f);
    }
    let ingest = t.elapsed();
    std::hint::black_box(assembly.received());
    StreamerReplay {
        setup,
        ingest,
        frames: frames.len(),
    }
}

// ----- archive: scan file -> products -> catalogue ----------------------

/// Write every realisation of `scan` to `dir` through the real file
/// writer, so the file branch reads what acquisition writes.
pub fn write_scan_files(
    dir: &Path,
    scan: &RenderedScan,
    prefix: &str,
) -> Result<Vec<PathBuf>, String> {
    let server = PvaServer::new();
    let files = FileRx(FileWriterService::spawn(
        server.subscribe_named("filewriter", QUEUE, DeliveryMode::Reliable),
        dir,
    ));
    let publisher = Publisher::new(server, scan.shape.frame_len());
    let mut paths = Vec::new();
    for r in 0..scan.realisations() {
        let id = format!("{prefix}{r}");
        publisher.start_scan(scan, &id);
        for a in 0..scan.shape.angles {
            publisher.publish(publisher.acquire(scan, r, a));
        }
        publisher.end_scan(&id);
        let done = files
            .recv(Duration::from_secs(60))
            .ok_or_else(|| format!("scan file {id} was not written"))?;
        if done.frames != scan.shape.angles || done.rejected_frames != 0 {
            return Err(format!("scan file {id}: {} frames", done.frames));
        }
        paths.push(done.path);
    }
    Ok(paths)
}

/// A scan file loaded into memory.
pub struct LoadedScan(ScanFile);

pub fn load_scan(path: &Path) -> Result<LoadedScan, String> {
    ScanFile::load(path)
        .map(LoadedScan)
        .map_err(|e| format!("{}: {e}", path.display()))
}

impl LoadedScan {
    pub fn bytes(&self) -> u64 {
        self.0.nbytes()
    }
    pub fn angles(&self) -> usize {
        self.0.shape().0
    }
    /// Detector columns, which is also the side of a reconstructed slice.
    pub fn width(&self) -> usize {
        self.0.shape().2
    }
}

/// Per-stage timing of one pipeline run, as the program reports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimes {
    pub plan_build: Duration,
    pub load_busy: Duration,
    pub prep_busy: Duration,
    pub recon_busy: Duration,
    pub sink_busy: Duration,
    pub sink_overlapped: Duration,
    pub overlap_ratio: f64,
}

impl From<&pipeline::PipelineReport> for PipelineTimes {
    fn from(r: &pipeline::PipelineReport) -> Self {
        PipelineTimes {
            plan_build: r.plan_build,
            load_busy: r.load_busy,
            prep_busy: r.prep_busy,
            recon_busy: r.recon_busy,
            sink_busy: r.sink_busy,
            sink_overlapped: r.sink_busy_overlapped,
            overlap_ratio: r.overlap_ratio(),
        }
    }
}

/// What the benchmark's own wrappers around the archive sinks and the
/// projection source saw (traced runs of `fbp_archive`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WrapperTimes {
    pub tiff_busy: Duration,
    pub multiscale_busy: Duration,
    pub source_frame_reads: u64,
}

/// The archive products of one scan.
pub struct ArchiveProducts {
    pub dims: (usize, usize, usize),
    pub volume: Vec<f32>,
    pub times: PipelineTimes,
    pub wrappers: Option<WrapperTimes>,
    pub tiff_dir: PathBuf,
    pub multiscale_dir: PathBuf,
}

impl ArchiveProducts {
    pub fn mid_slice(&self) -> &[f32] {
        let (nx, ny, nz) = self.dims;
        &self.volume[(nz / 2) * nx * ny..(nz / 2 + 1) * nx * ny]
    }
    pub fn volume_bytes(&self) -> u64 {
        (self.volume.len() * 4) as u64
    }
}

/// A `SliceSink` that times every call into the sink it wraps and
/// records each as a span under the op's `pipeline.run`.
struct TimedSink<'a, S: SliceSink> {
    inner: &'a mut S,
    name: &'static str,
    busy: Duration,
    trace: &'a Trace,
    parent: Option<SpanId>,
    op: u64,
}

impl<S: SliceSink> TimedSink<'_, S> {
    fn timed(&mut self, f: impl FnOnce(&mut S) -> Result<(), String>) -> Result<(), String> {
        let start = Instant::now();
        let out = f(self.inner);
        let end = Instant::now();
        self.busy += end - start;
        self.trace
            .record(self.name, self.parent, self.op, start, end);
        out
    }
}

impl<S: SliceSink> SliceSink for TimedSink<'_, S> {
    fn begin(&mut self, nx: usize, ny: usize, nz: usize) -> Result<(), String> {
        self.timed(|s| s.begin(nx, ny, nz))
    }
    fn write_slab(&mut self, z0: usize, n_slices: usize, data: &[f32]) -> Result<(), String> {
        self.timed(|s| s.write_slab(z0, n_slices, data))
    }
    fn finish(&mut self) -> Result<(), String> {
        self.timed(|s| s.finish())
    }
}

/// A `ProjectionSource` that counts the frames the loader reads.
struct CountingSource<'a> {
    inner: &'a ScanFile,
    frame_reads: AtomicU64,
}

impl ProjectionSource for CountingSource<'_> {
    fn dims(&self) -> (usize, usize, usize) {
        self.inner.dims()
    }
    fn scan_angles(&self) -> Vec<f64> {
        self.inner.scan_angles()
    }
    fn dark_frame(&self) -> &[u16] {
        self.inner.dark_frame()
    }
    fn flat_frame(&self) -> &[u16] {
        self.inner.flat_frame()
    }
    fn frame(&self, a: usize) -> &[u16] {
        self.frame_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.frame(a)
    }
}

/// Chunk shape `[z, y, x]` of `fbp_archive`'s multiscale store: 73 chunk
/// files per scan where the file branch's default `[4, 32, 32]` makes
/// 584. Creating a file on the sandbox's ext4 costs 65 us or 500 us
/// depending on a regime that lasts tens of seconds, so with the default
/// the op flips between recon-bound (~230 ms) and create-bound (~400 ms)
/// and no run length steadies it. `sirt_archive` keeps the default.
const FBP_MULTISCALE_CHUNK: [usize; 3] = [8, 64, 64];

/// FBP through the overlapped pipeline into a volume, a TIFF stack and
/// a multiscale store. With tracing on, the archive sinks and the
/// source run behind the benchmark's timing wrappers.
pub fn fbp_to_archive(
    scan: &LoadedScan,
    out_dir: &Path,
    trace: &Trace,
    parent: Option<SpanId>,
    op: u64,
) -> Result<ArchiveProducts, String> {
    let branch = FileBranchConfig::default();
    let tiff_dir = out_dir.join("tiff");
    let multiscale_dir = out_dir.join("multiscale");
    let mut volume = VolumeSink::new();
    let mut tiff = TiffStackSink::new(&tiff_dir);
    let mut multiscale = MultiscaleWriter::new(
        &multiscale_dir,
        &scan.0.scan_name(),
        FBP_MULTISCALE_CHUNK,
        branch.multiscale_levels,
    );
    let cfg = PipelineConfig {
        recon: ReconKind::Fbp(FbpConfig::default()),
        mu_scale: DetectorConfig::default().mu_scale,
        ..Default::default()
    };
    let (report, wrappers) = if trace.enabled() {
        let mut tiff = TimedSink {
            inner: &mut tiff,
            name: "sink.tiff",
            busy: Duration::ZERO,
            trace,
            parent,
            op,
        };
        let mut multiscale = TimedSink {
            inner: &mut multiscale,
            name: "sink.multiscale",
            busy: Duration::ZERO,
            trace,
            parent,
            op,
        };
        let source = CountingSource {
            inner: &scan.0,
            frame_reads: AtomicU64::new(0),
        };
        let report = {
            let mut sinks: [&mut dyn SliceSink; 3] = [&mut volume, &mut tiff, &mut multiscale];
            pipeline::run(&source, &mut sinks, &cfg).map_err(|e| e.to_string())?
        };
        let wrappers = WrapperTimes {
            tiff_busy: tiff.busy,
            multiscale_busy: multiscale.busy,
            source_frame_reads: source.frame_reads.into_inner(),
        };
        (report, Some(wrappers))
    } else {
        let mut sinks: [&mut dyn SliceSink; 3] = [&mut volume, &mut tiff, &mut multiscale];
        let report = pipeline::run(&scan.0, &mut sinks, &cfg).map_err(|e| e.to_string())?;
        (report, None)
    };
    Ok(ArchiveProducts {
        dims: volume.shape(),
        volume: volume.into_data(),
        times: PipelineTimes::from(&report),
        wrappers,
        tiff_dir,
        multiscale_dir,
    })
}

/// The paper's file branch: `realmode::scan_to_archive` with
/// `FileBranchConfig::default()` (SIRT x100, zinger 0.5).
pub fn sirt_to_archive(scan: &LoadedScan, out_dir: &Path) -> ArchiveProducts {
    let r = scan_to_archive(
        &scan.0,
        DetectorConfig::default().mu_scale,
        &FileBranchConfig::default(),
        out_dir,
    );
    ArchiveProducts {
        dims: (r.volume.nx, r.volume.ny, r.volume.nz),
        times: PipelineTimes::from(&r.report),
        volume: r.volume.data,
        wrappers: None,
        tiff_dir: r.tiff_dir,
        multiscale_dir: r.multiscale_dir,
    }
}

/// What reading the archive back found.
pub struct Readback {
    /// Voxel bytes decoded across the TIFF stack and every pyramid level.
    pub bytes: u64,
    pub tiff_equal: bool,
    pub level0_equal: bool,
}

/// Read back every multiscale level (checksums validated) and the TIFF
/// stack, and compare both with the in-memory volume bit for bit.
pub fn read_back(products: &ArchiveProducts) -> Result<Readback, String> {
    let store = MultiscaleStore::open(&products.multiscale_dir).map_err(|e| e.to_string())?;
    let mut bytes = 0u64;
    let mut level0_equal = false;
    for level in 0..store.n_levels() {
        let vol = store.read_level(level).map_err(|e| e.to_string())?;
        bytes += vol.nbytes();
        if level == 0 {
            level0_equal = (vol.nx, vol.ny, vol.nz) == products.dims
                && bits_equal(&vol.data, &products.volume);
        }
    }
    let stack = tiff::read_stack(&products.tiff_dir).map_err(|e| e.to_string())?;
    let (nx, ny, nz) = products.dims;
    let tiff_equal = stack.len() == nz
        && stack.iter().enumerate().all(|(z, img)| {
            (img.width, img.height) == (nx, ny)
                && bits_equal(&img.data, &products.volume[z * nx * ny..(z + 1) * nx * ny])
        });
    bytes += stack
        .iter()
        .map(|img| (img.data.len() * 4) as u64)
        .sum::<u64>();
    Ok(Readback {
        bytes,
        tiff_equal,
        level0_equal,
    })
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The metadata catalogue.
#[derive(Default)]
pub struct Catalogue(Catalog);

impl Catalogue {
    /// Ingest the raw scan and the reconstruction derived from it.
    pub fn ingest_scan(
        &mut self,
        scan_id: &str,
        shape: ScanShape,
        raw_bytes: u64,
        derived_bytes: u64,
    ) -> Result<(), String> {
        let raw = raw_scan_dataset(
            scan_id,
            "benchmark",
            SimInstant::ZERO,
            ByteSize::from_bytes(raw_bytes),
            InstrumentMetadata {
                beamline: "8.3.2".into(),
                n_angles: shape.angles,
                detector_rows: shape.rows,
                detector_cols: shape.n,
                pixel_size_um: 0.65,
                exposure_ms: 30.0,
            },
        );
        let raw_pid = raw.pid.clone();
        self.0.ingest(raw).map_err(|e| e.to_string())?;
        self.0
            .ingest(recon_dataset(
                scan_id,
                "local",
                &raw_pid,
                SimInstant::ZERO,
                ByteSize::from_bytes(derived_bytes),
            ))
            .map_err(|e| e.to_string())
    }

    /// Does the provenance chain lead from the raw scan to exactly its
    /// one derived dataset?
    pub fn links_derived_to_raw(&self, scan_id: &str) -> bool {
        let raw = DatasetPid(format!("als/8.3.2/raw/{scan_id}"));
        let chain = self.0.derived_chain(&raw);
        chain.len() == 1 && chain[0].derived_from == [raw]
    }

    pub fn datasets(&self) -> usize {
        self.0.len()
    }

    pub fn export_json_bytes(&self) -> usize {
        self.0.export_json().len()
    }
}

// ----- archive: single-thread kernel probes ----------------------------

fn scan_geometry(scan: &LoadedScan) -> Geometry {
    let n = scan.width();
    Geometry {
        angles: scan.0.angles(),
        n_det: n,
        center: (n as f64 - 1.0) / 2.0,
    }
}

/// Wall of each of `reps` reconstructions of one `n x n` slice.
fn time_slices(n: usize, reps: usize, mut recon: impl FnMut(&mut [f32])) -> Vec<Duration> {
    let mut out = vec![0f32; n * n];
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            recon(&mut out);
            std::hint::black_box(&out);
            t.elapsed()
        })
        .collect()
}

/// Plan-engine FBP on the calling thread: plan build, then `reps`
/// slices through one scratch. Returns `(build, per-slice walls)`.
pub fn time_fbp_plan(scan: &LoadedScan, reps: usize) -> (Duration, Vec<Duration>) {
    let t = Instant::now();
    let plan = ReconPlan::new(&scan_geometry(scan), &FbpConfig::default())
        .expect("geometry of a loaded scan");
    let build = t.elapsed();
    let sino = prepped_sinogram(scan);
    let mut scratch = plan.make_scratch();
    let walls = time_slices(scan.width(), reps, |out| {
        plan.fbp_slice_into(std::hint::black_box(&sino), &mut scratch, out)
    });
    (build, walls)
}

/// Table-driven SIRT on the calling thread with the file branch's
/// iteration count. Returns `(iterations, per-slice walls)`.
pub fn time_sirt_plan(scan: &LoadedScan, reps: usize) -> (usize, Vec<Duration>) {
    let cfg = IterConfig {
        iterations: FileBranchConfig::default().sirt_iterations,
        ..Default::default()
    };
    let plan = IterPlan::new(&scan_geometry(scan), &cfg).expect("geometry of a loaded scan");
    let sino = prepped_sinogram(scan);
    let mut scratch = plan.make_scratch();
    let walls = time_slices(scan.width(), reps, |out| {
        plan.sirt_into(std::hint::black_box(&sino), &mut scratch, out)
    });
    (cfg.iterations, walls)
}

/// Fused raw-counts -> line-integral prep of the scan's middle detector
/// row, on the calling thread. Returns `(samples, wall)` over `reps`.
pub fn time_prep(scan: &LoadedScan, reps: usize) -> (u64, Duration) {
    let (angles, rows, n) = scan.0.shape();
    let prep = raw_prep(scan);
    let row = rows / 2;
    let mut dst = vec![0f32; n];
    let t = Instant::now();
    for _ in 0..reps {
        for a in 0..angles {
            let frame = scan.0.frame_data(a);
            prep.prep_angle_row(row, &frame[row * n..(row + 1) * n], &mut dst);
            std::hint::black_box(&dst);
        }
    }
    ((reps * angles * n) as u64, t.elapsed())
}

fn raw_prep(scan: &LoadedScan) -> als_tomo::RawPrepPlan {
    let (_, rows, n) = scan.0.shape();
    als_tomo::RawPrepPlan::new(
        scan.0.dark(),
        scan.0.flat(),
        rows,
        n,
        DetectorConfig::default().mu_scale,
        None,
    )
}

/// The prepped sinogram of the scan's middle detector row.
fn prepped_sinogram(scan: &LoadedScan) -> Sinogram {
    let prep = raw_prep(scan);
    let (angles, rows, n) = scan.0.shape();
    let row = rows / 2;
    let mut sino = Sinogram::zeros(angles, n);
    for a in 0..angles {
        let frame = scan.0.frame_data(a);
        prep.prep_angle_row(row, &frame[row * n..(row + 1) * n], sino.row_mut(a));
    }
    sino
}

// ----- control plane: sharded WAL ---------------------------------------

const LEASE: SimDuration = SimDuration::from_secs(600);

struct FlowSpec {
    key: String,
    shard: usize,
    /// Deadline tighter than the first backoff: the retry is
    /// inadmissible and the flow must fail terminally.
    tight_deadline: bool,
}

/// The flow mix of one WAL round, generated from the seed.
pub struct WalPlan {
    flows: Vec<FlowSpec>,
    pub shards: usize,
    pub batch: usize,
}

impl WalPlan {
    /// `flows` flows of the `benches/orchestrator.rs` mix on the
    /// `SimConfig` default fleet shape (4 shards, group commit of 32).
    pub fn generate(seed: u64, flows: usize) -> WalPlan {
        let sim = SimConfig::default();
        let (shards, batch) = (sim.shard_count, sim.group_commit_batch);
        let flows = (0..flows)
            .map(|i| {
                let key = format!("s{seed:016x}f{i:06}/submit@nersc");
                FlowSpec {
                    shard: shard_of_key(&key, shards),
                    key,
                    tight_deadline: i % 5 == 0,
                }
            })
            .collect();
        WalPlan {
            flows,
            shards,
            batch,
        }
    }

    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Flows that must end `Completed` (the rest fail on their deadline).
    pub fn expect_completed(&self) -> usize {
        self.flows.iter().filter(|f| !f.tight_deadline).count()
    }

    pub fn flows_per_shard(&self) -> Vec<u64> {
        let mut per = vec![0u64; self.shards];
        for f in &self.flows {
            per[f.shard] += 1;
        }
        per
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for f in &self.flows {
            d.bytes(f.key.as_bytes());
            d.bytes(&[f.shard as u8, u8::from(f.tight_deadline)]);
        }
        d.finish()
    }
}

/// Exact journal counts and the wall of one round.
pub struct WalRound {
    /// First submit to `ShardPool::join` returning.
    pub wall: Duration,
    pub records: u64,
    pub fsyncs: u64,
    pub bytes: u64,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard}.wal"))
}

/// Drive the plan through a fresh `ShardPool` whose sinks append to
/// real files and `sync_data` after every durable write.
pub fn wal_round(plan: &WalPlan, dir: &Path) -> WalRound {
    let now = SimInstant::ZERO;
    let fleet: Vec<DurableOrchestrator> = (0..plan.shards)
        .map(|i| DurableOrchestrator::shard("bench", now, i as u64, plan.shards as u64, plan.batch))
        .collect();
    let policy = RetryPolicy {
        jitter: 0.25,
        ..RetryPolicy::default()
    };
    let start = Instant::now();
    let pool = ShardPool::spawn_with_sinks(fleet, |i| {
        let mut f = File::create(wal_path(dir, i)).expect("create WAL file in the work dir");
        Box::new(move |bytes: &[u8]| {
            f.write_all(bytes).expect("WAL write");
            f.sync_data().expect("WAL fsync");
        })
    });
    for (i, flow) in plan.flows.iter().enumerate() {
        let key = flow.key.clone();
        let handle = i as u64;
        let deadline = now
            + if flow.tight_deadline {
                SimDuration::from_secs(5)
            } else {
                SimDuration::from_secs(3600)
            };
        pool.submit(flow.shard, move |orch| {
            if orch.claim(&key, now, LEASE) != Claim::Run {
                return;
            }
            let run = orch.create_run("bench_flow", now);
            orch.set_parameter(run, "key", &key);
            orch.start_run(run, now);
            let task = orch.start_task(run, "submit_job", Some(&key), now);
            // submit barrier: flushed durable immediately
            orch.external_submitted(ExternalKind::Job, handle, run, "bench");
            orch.finish_task(run, task, TaskState::Failed, now, Some("transient"));
            match policy.delay_before_deadline(1, handle, now, deadline) {
                Some(delay) => {
                    orch.schedule_retry(run, task, 1, delay);
                    orch.retry_task(run, task, now + delay);
                    orch.external_resolved(ExternalKind::Job, handle);
                    orch.complete(&key);
                    orch.finish_task(run, task, TaskState::Completed, now + delay, None);
                    orch.finish_run(run, FlowState::Completed, now + delay);
                }
                None => {
                    orch.external_resolved(ExternalKind::Job, handle);
                    orch.release(&key);
                    orch.finish_run(run, FlowState::Failed, now);
                }
            }
        });
    }
    for s in 0..plan.shards {
        pool.submit(s, |orch| {
            orch.commit();
        });
    }
    let drained = pool.join();
    let wall = start.elapsed();
    WalRound {
        wall,
        records: drained
            .iter()
            .map(|o| o.journal().durable_record_count())
            .sum(),
        fsyncs: drained.iter().map(|o| o.journal().write_count()).sum(),
        bytes: drained.iter().map(|o| o.journal().byte_len() as u64).sum(),
    }
}

/// What `recover_fleet` rebuilt from the WAL files of a round.
pub struct Recovered {
    /// Reading the images and replaying them.
    pub wall: Duration,
    pub image_bytes: u64,
    pub replayed_records: u64,
    pub runs: usize,
    pub completed: usize,
    pub damaged_shards: usize,
}

pub fn recover_fleet(plan: &WalPlan, dir: &Path) -> Recovered {
    let start = Instant::now();
    let images: Vec<Vec<u8>> = (0..plan.shards)
        .map(|i| std::fs::read(wal_path(dir, i)).expect("WAL file of the last round"))
        .collect();
    let (fleet, info) =
        ShardedOrchestrator::recover_fleet(&images, "bench-verify", SimInstant::ZERO, plan.batch);
    let wall = start.elapsed();
    Recovered {
        wall,
        image_bytes: images.iter().map(|i| i.len() as u64).sum(),
        replayed_records: info.replayed(),
        runs: fleet.all_runs().count(),
        completed: fleet
            .all_runs()
            .filter(|r| r.state == FlowState::Completed)
            .count(),
        damaged_shards: info.damaged_shards().len(),
    }
}

// ----- control plane: campaign simulations ------------------------------

pub const CAMPAIGN_SCANS: usize = 100;

/// Verdict on one simulated campaign.
pub struct Campaign {
    /// `Err` says which expected terminal state was missed.
    pub verdict: Result<(), String>,
    /// Text that must be identical when the seed is run again.
    pub fingerprint: String,
}

/// Healthy 100-scan campaign: all three flows must succeed every time.
pub fn healthy_campaign(seed: u64) -> Campaign {
    let report = run_campaign(&CampaignConfig {
        n_scans: CAMPAIGN_SCANS,
        sim: SimConfig {
            seed,
            ..Default::default()
        },
    });
    let verdict = if report.success_rates.len() == 3
        && report.success_rates.iter().all(|(_, rate)| *rate == 1.0)
    {
        Ok(())
    } else {
        Err(format!(
            "healthy campaign seed {seed}: success rates {:?}",
            report.success_rates
        ))
    };
    Campaign {
        verdict,
        fingerprint: report.table2_text(),
    }
}

/// Three coordinator crashes across the campaign, durable recovery on:
/// every branch must complete and no facility step may run twice.
pub fn storm_campaign(seed: u64) -> Campaign {
    let sim = run_recovery_sim(CAMPAIGN_SCANS, seed, true, &crash_storm_plan());
    let out = outcome_of(&sim, CAMPAIGN_SCANS);
    let verdict = if out.completion_rate == 1.0 && out.duplicate_side_effects == 0 {
        Ok(())
    } else {
        Err(format!(
            "storm campaign seed {seed}: completion {} with {} duplicated side effects",
            out.completion_rate, out.duplicate_side_effects
        ))
    };
    Campaign {
        verdict,
        fingerprint: format!("{out:?}"),
    }
}

/// Counts read from the drained outage simulation's public fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimCounts {
    pub journal_records: u64,
    pub journal_writes: u64,
    pub recoveries: u64,
    pub reattached_ops: u64,
    pub duplicate_side_effects: u64,
    pub failovers: u64,
    pub max_hops: u64,
    pub transfer_gib: f64,
    pub trace_spans: u64,
}

/// Rolling three-facility outages plus a coordinator crash: the trace
/// accounting identity must hold for every scan.
pub fn outage_campaign(seed: u64) -> (Campaign, SimCounts, FinishedSim) {
    let sim = run_observability_sim(CAMPAIGN_SCANS, seed);
    let traces = sim.traces();
    let verdict = if accounting_identity_holds(&traces) && sim.duplicate_side_effects == 0 {
        Ok(())
    } else {
        Err(format!(
            "outage campaign seed {seed}: accounting identity broken or {} duplicated side effects",
            sim.duplicate_side_effects
        ))
    };
    let counts = SimCounts {
        journal_records: sim.orch.journal_records(),
        journal_writes: sim.orch.journal_writes(),
        recoveries: sim.recovery_count as u64,
        reattached_ops: sim.reattached_ops as u64,
        duplicate_side_effects: sim.duplicate_side_effects as u64,
        failovers: sim.failover_count as u64,
        max_hops: sim.max_route_hops() as u64,
        transfer_gib: sim.monitor.total_bytes().as_gib_f64(),
        trace_spans: traces.scans().map(|t| t.spans.len() as u64).sum(),
    };
    (
        Campaign {
            verdict,
            fingerprint: format!("{counts:?}"),
        },
        counts,
        FinishedSim(sim),
    )
}

/// A drained simulation, kept to time its telemetry exposition.
pub struct FinishedSim(FacilitySim);

impl FinishedSim {
    /// `Registry::snapshot()` plus the Prometheus rendering; returns the
    /// rendered size so the work cannot be optimised away.
    pub fn export_telemetry(&self) -> usize {
        self.0.registry.snapshot().prometheus_text().len()
    }
}
