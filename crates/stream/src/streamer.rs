//! The NERSC streaming reconstruction service (§4.2.3, the <10 s path).
//!
//! Connects to the beamline's PVA mirror and reconstructs **while the
//! scan is still arriving**. The plan for the announced geometry is
//! fetched from the shared [`PlanCache`] at `ScanStart`; every arriving
//! frame is one projection angle for all detector rows, so its rows are
//! dark/flat normalized and −log converted straight out of the shared
//! slab, the slab handle is released back to the pool, and the rows are
//! filtered and backprojected into a running volume
//! ([`als_tomo::FbpAccumulator`]). The last announced angle flushes the
//! angles still pending, so when a complete acquisition ends the volume
//! is finished: preview latency after scan end is reading the three
//! slices straight out of the accumulator's lane layout (plus the lone
//! last angle of an odd count, or the pending angles of a scan that lost
//! frames).
//!
//! Reconstruction plans are shared through a [`PlanCache`]: N concurrent
//! detector streams with the same geometry multiplex onto one
//! [`ReconPlan`] (filter response, FFT tables, trig, clip intervals built
//! once), each stream keeping only its own running volume.
//!
//! Previews return over a *bounded* reply channel. The service runs the
//! scan-consumer loop it shares with the file writer (the `service`
//! module), which counts every scan, frame or preview it refuses,
//! abandons or drops. Per-stream metrics export through `als-telemetry`.

use crate::channel::Subscription;
use crate::service::{spawn_scan_consumer, BoundaryCounters, Replies, ScanConsumer, ServiceThread};
use crate::slab::FrameSlab;
use crate::ScanAnnounce;
use als_telemetry::{Counter, Histogram, Registry};
use als_tomo::{
    FbpAccumulator, FbpConfig, FilterKind, Geometry, Image, RawPrepPlan, ReconPlan, TomoError,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Configuration for the streaming service.
#[derive(Debug, Clone)]
pub struct StreamerConfig {
    /// Reconstruction settings for the preview pass.
    pub fbp: FbpConfig,
    /// Bound of the preview reply queue (previews, not frames).
    pub preview_queue: usize,
    /// Label for this stream's metrics.
    pub stream: String,
    /// Metrics registry; `None` disables telemetry.
    pub registry: Option<Arc<Registry>>,
}

impl Default for StreamerConfig {
    fn default() -> Self {
        StreamerConfig {
            fbp: FbpConfig::default(),
            preview_queue: 8,
            stream: "stream0".to_string(),
            registry: None,
        }
    }
}

/// Cache of [`ReconPlan`]s keyed by exact geometry + FBP settings, shared
/// by every stream of a hub so N concurrent detectors reuse one plan.
/// It keeps only the [`PLAN_CACHE_CAPACITY`] most recently used plans
/// and counts what it evicts.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Most recently used first.
    plans: Mutex<Vec<(PlanKey, Arc<ReconPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: Counter,
}

/// Plans a [`PlanCache`] retains: room for a hub's handful of detector
/// geometries, while a run of distinct announcements cannot pin more
/// than this many interval tables (~40 MB each at paper scale).
pub const PLAN_CACHE_CAPACITY: usize = 8;

#[derive(Debug, PartialEq, Eq)]
struct PlanKey {
    n_det: usize,
    center: u64,
    filter: FilterKind,
    mask_disk: bool,
    /// Exact angle set (bit patterns): plans are only shared between
    /// streams whose acquisitions are bit-identical in geometry.
    angles: Vec<u64>,
}

impl PlanKey {
    fn new(geom: &Geometry, cfg: &FbpConfig) -> PlanKey {
        PlanKey {
            n_det: geom.n_det,
            center: geom.center.to_bits(),
            filter: cfg.filter,
            mask_disk: cfg.mask_disk,
            angles: geom.angles.iter().map(|a| a.to_bits()).collect(),
        }
    }
}

impl PlanCache {
    pub fn new() -> Arc<PlanCache> {
        Arc::new(PlanCache::default())
    }

    /// The process-wide cache behind [`IncrementalScan::new`].
    pub fn shared() -> &'static PlanCache {
        static SHARED: OnceLock<PlanCache> = OnceLock::new();
        SHARED.get_or_init(PlanCache::default)
    }

    /// A cache whose evictions also count into `registry` as
    /// `stream_plan_cache_evictions_total`.
    pub fn with_registry(registry: &Registry) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            evictions: registry.counter("stream_plan_cache_evictions_total", &[]),
            ..Default::default()
        })
    }

    /// Fetch (or build and install) the plan for this exact geometry.
    pub fn get(&self, geom: &Geometry, cfg: &FbpConfig) -> Result<Arc<ReconPlan>, TomoError> {
        let key = PlanKey::new(geom, cfg);
        if let Some(plan) = Self::touch(&mut self.plans.lock(), &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        // build outside the lock: plan construction is the expensive part
        let plan = Arc::new(ReconPlan::new(geom, cfg)?);
        let mut plans = self.plans.lock();
        if let Some(raced) = Self::touch(&mut plans, &key) {
            // another stream installed this geometry while we built
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(raced);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        plans.insert(0, (key, Arc::clone(&plan)));
        if plans.len() > PLAN_CACHE_CAPACITY {
            plans.truncate(PLAN_CACHE_CAPACITY);
            self.evictions.inc();
        }
        Ok(plan)
    }

    /// Look `key` up and move it to the most-recently-used position.
    fn touch(plans: &mut [(PlanKey, Arc<ReconPlan>)], key: &PlanKey) -> Option<Arc<ReconPlan>> {
        let at = plans.iter().position(|(k, _)| k == key)?;
        plans[..=at].rotate_right(1);
        Some(Arc::clone(&plans[0].1))
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans dropped to keep the cache at [`PLAN_CACHE_CAPACITY`].
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One in-flight acquisition, reconstructed as it arrives: each frame
/// is prepped, filtered and backprojected into the running volume on
/// arrival and its slab released, so scan end leaves only the hand-off.
pub struct IncrementalScan {
    announce: Arc<ScanAnnounce>,
    prep: RawPrepPlan,
    /// The running reconstruction on the announced geometry's plan.
    volume: FbpAccumulator,
    rejected: usize,
    ingest_busy: Duration,
}

impl IncrementalScan {
    /// [`IncrementalScan::open`] with the default FBP settings on the
    /// process-wide [`PlanCache::shared`]. Panics on an announcement
    /// that [`ScanAnnounce::validate`] refuses.
    pub fn new(announce: Arc<ScanAnnounce>) -> IncrementalScan {
        Self::open(announce, PlanCache::shared(), &FbpConfig::default())
            .expect("a valid scan announcement")
    }

    /// Start assembling the announced scan on the (shared) plan of its
    /// announced geometry. Fails on an announcement that contradicts
    /// itself or describes a geometry no plan can be built for.
    pub fn open(
        announce: Arc<ScanAnnounce>,
        plans: &PlanCache,
        cfg: &FbpConfig,
    ) -> Result<IncrementalScan, String> {
        announce.validate()?;
        let geom = Geometry {
            angles: announce.angles.clone(),
            n_det: announce.cols,
            center: (announce.cols as f64 - 1.0) / 2.0,
        };
        let plan = plans.get(&geom, cfg).map_err(|e| e.to_string())?;
        let prep = RawPrepPlan::new(
            &announce.dark,
            &announce.flat,
            announce.rows,
            announce.cols,
            announce.mu_scale,
            None,
        );
        Ok(IncrementalScan {
            volume: FbpAccumulator::new(plan, announce.rows),
            announce,
            prep,
            rejected: 0,
            ingest_busy: Duration::ZERO,
        })
    }

    /// Prep one frame's rows and add its angle to the running volume.
    /// Returns `false` (and counts a rejection) when the frame's shape
    /// disagrees with the announcement or its `frame_id` does not name
    /// the announced angle it carries — a corrupted frame never poisons
    /// the reconstruction.
    pub fn ingest(&mut self, frame: &FrameSlab) -> bool {
        let meta = &frame.meta;
        let announced = self.announce.angles.get(meta.frame_id).map(|t| t.to_bits());
        if !(self.announce.fits(frame) && announced == Some(meta.angle_rad.to_bits())) {
            self.rejected += 1;
            return false;
        }
        let cols = self.announce.cols;
        let rows = frame.data().chunks_exact(cols);
        for (r, (raw, dst)) in rows
            .zip(self.volume.stage_mut().chunks_exact_mut(cols))
            .enumerate()
        {
            self.prep.prep_angle_row(r, raw, dst);
        }
        let t_push = Instant::now();
        self.volume.push(meta.frame_id);
        self.ingest_busy += t_push.elapsed();
        true
    }

    /// Frames reconstructed so far.
    pub fn received(&self) -> usize {
        self.volume.pushed()
    }

    /// Frames rejected by shape/metadata validation so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Finish the acquisition: flush what is still pending, and read the
    /// three preview slices out of the running volume, rescaled when
    /// frames were lost or repeated.
    pub fn finish(self, scan_id: &str) -> Option<Preview> {
        let received = self.received();
        if received == 0 {
            return None;
        }
        let t_recon = Instant::now();
        let vol = self.volume.finish();
        let recon_wall = t_recon.elapsed();

        let t_send = Instant::now();
        let (nx, ny, nz) = vol.dims();
        let slices = [
            vol.slice_xy(nz / 2),
            vol.slice_xz(ny / 2),
            vol.slice_yz(nx / 2),
        ];
        let send_wall = t_send.elapsed();
        Some(Preview {
            scan_id: scan_id.to_string(),
            slices,
            cached_frames: received,
            dropped_frames: self.announce.n_angles.saturating_sub(received),
            rejected_frames: self.rejected,
            ingest_busy: self.ingest_busy,
            recon_wall,
            send_wall,
            feedback_wall: recon_wall + send_wall,
        })
    }
}

/// The three orthogonal preview slices sent back to the beamline, plus
/// timing telemetry.
#[derive(Debug, Clone)]
pub struct Preview {
    pub scan_id: String,
    /// XY (axial), XZ and YZ slices through the volume center.
    pub slices: [Image; 3],
    /// Frames in the reconstruction when the scan ended.
    pub cached_frames: usize,
    /// Frames the announcement promised but that never arrived (dropped
    /// upstream or rejected).
    pub dropped_frames: usize,
    /// Frames rejected by shape/metadata validation.
    pub rejected_frames: usize,
    /// Filter + backprojection time spent as the frames arrived, summed
    /// over the scan: the reconstruction work that overlapped acquisition.
    pub ingest_busy: Duration,
    /// Wall-clock reconstruction time left at scan end: the residual
    /// after [`Preview::ingest_busy`]: whatever the last frame did not
    /// flush (nothing for a complete even-count scan).
    pub recon_wall: Duration,
    /// Wall-clock time reading the three slices out of the lane layout.
    pub send_wall: Duration,
    /// Wall clock from scan end to preview ready — the paper's <10 s
    /// feedback figure. Residual-only because reconstruction happened
    /// in-stream.
    pub feedback_wall: Duration,
}

/// Receiving side of the ZeroMQ-style reply channel at the beamline.
pub struct PreviewChannel {
    replies: Replies<Preview>,
}

impl PreviewChannel {
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Preview> {
        self.replies.rx.recv_timeout(timeout).ok()
    }

    /// Previews abandoned because this channel's bounded queue was full.
    pub fn dropped_count(&self) -> u64 {
        self.replies.dropped.get()
    }
}

/// What every scan of one streaming service is opened with, and what
/// it records per preview.
pub(crate) struct StreamContext {
    plans: Arc<PlanCache>,
    fbp: FbpConfig,
    previews: Counter,
    feedback_us: Histogram,
    /// Scan-end residual ([`Preview::recon_wall`]).
    recon_us: Histogram,
    ingest_busy_us: Histogram,
}

impl ScanConsumer for IncrementalScan {
    type Ctx = StreamContext;
    type Product = Preview;

    fn open(announce: Arc<ScanAnnounce>, ctx: &StreamContext) -> Result<Self, String> {
        IncrementalScan::open(announce, &ctx.plans, &ctx.fbp)
    }

    fn ingest(&mut self, frame: &FrameSlab) -> bool {
        IncrementalScan::ingest(self, frame)
    }

    fn received(&self) -> usize {
        IncrementalScan::received(self)
    }

    fn finish(self, ctx: &StreamContext) -> Option<Preview> {
        let t_end = Instant::now();
        let announce = Arc::clone(&self.announce);
        let preview = IncrementalScan::finish(self, &announce.scan_id)?;
        ctx.previews.inc();
        ctx.ingest_busy_us
            .record(preview.ingest_busy.as_micros() as u64);
        ctx.recon_us.record(preview.recon_wall.as_micros() as u64);
        ctx.feedback_us.record(t_end.elapsed().as_micros() as u64);
        Some(preview)
    }
}

/// Handle to the running service.
pub struct StreamingReconService {
    _thread: ServiceThread,
}

impl StreamingReconService {
    /// Launch the service consuming `sub` with a private plan cache.
    pub fn spawn(
        sub: Subscription,
        cfg: StreamerConfig,
    ) -> (StreamingReconService, PreviewChannel) {
        Self::spawn_shared(sub, cfg, PlanCache::new())
    }

    /// Launch the service consuming `sub`, sharing `plans` with other
    /// streams (the multi-detector multiplexing path). Returns the
    /// service handle and the beamline-side preview channel.
    pub fn spawn_shared(
        sub: Subscription,
        cfg: StreamerConfig,
        plans: Arc<PlanCache>,
    ) -> (StreamingReconService, PreviewChannel) {
        // without a registry the metrics go to a private one: same code path
        let r = cfg.registry.unwrap_or_default();
        let l = &[("stream", cfg.stream.as_str())][..];
        let counters = BoundaryCounters {
            ingested: r.counter("stream_frames_ingested_total", l),
            rejected: r.counter("stream_frames_rejected_total", l),
            scans_rejected: r.counter("stream_scans_rejected_total", l),
            scans_abandoned: r.counter("stream_scans_abandoned_total", l),
            dropped: r.counter("stream_previews_dropped_total", l),
        };
        let ctx = StreamContext {
            plans,
            fbp: cfg.fbp,
            previews: r.counter("stream_previews_total", l),
            feedback_us: r.histogram("stream_preview_feedback_us", l),
            recon_us: r.histogram("stream_preview_recon_us", l),
            ingest_busy_us: r.histogram("stream_preview_ingest_busy_us", l),
        };
        let (thread, replies) =
            spawn_scan_consumer::<IncrementalScan>(sub, ctx, cfg.preview_queue, counters);
        (
            StreamingReconService { _thread: thread },
            PreviewChannel { replies },
        )
    }

    /// Stop the service and join its thread (what dropping it does).
    pub fn stop(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{PvaServer, StreamMessage};
    use crate::publish_scan;
    use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
    use als_tomo::Geometry as TomoGeometry;

    #[test]
    fn preview_arrives_after_scan_end() {
        let server = PvaServer::new();
        let (svc, previews) =
            StreamingReconService::spawn(server.subscribe(8192), StreamerConfig::default());
        let vol = shepp_logan_volume(48, 4);
        let geom = TomoGeometry::parallel_180(40, 48);
        let cfg = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let mut sim = ScanSimulator::new(&vol, geom, cfg, 7);
        publish_scan(&server, &mut sim, "stream_scan", cfg.mu_scale);
        let p = previews
            .recv_timeout(Duration::from_secs(20))
            .expect("preview");
        assert_eq!(p.scan_id, "stream_scan");
        assert_eq!(p.cached_frames, 40);
        assert_eq!(p.dropped_frames, 0);
        assert_eq!(p.slices[0].width, 48); // XY slice
        assert_eq!(p.slices[1].height, 4); // XZ slice spans nz
        assert!(p.recon_wall > Duration::ZERO);
        assert!(p.feedback_wall >= p.recon_wall);
        svc.stop();
    }

    #[test]
    fn preview_reconstruction_resembles_phantom() {
        let server = PvaServer::new();
        let (svc, previews) =
            StreamingReconService::spawn(server.subscribe(8192), StreamerConfig::default());
        let n = 48;
        let vol = shepp_logan_volume(n, 3);
        let geom = TomoGeometry::parallel_180(96, n);
        let cfg = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let mut sim = ScanSimulator::new(&vol, geom, cfg, 9);
        publish_scan(&server, &mut sim, "q", cfg.mu_scale);
        let p = previews
            .recv_timeout(Duration::from_secs(30))
            .expect("preview");
        // middle slice should correlate with the phantom's middle slice
        let truth = vol.slice_xy(1);
        let rec = &p.slices[0];
        let err = als_tomo::quality::mse_in_disk(&truth, rec).sqrt();
        assert!(err < 0.15, "preview rmse {err}");
        svc.stop();
    }

    #[test]
    fn scan_end_without_frames_sends_nothing() {
        let server = PvaServer::new();
        let (svc, previews) =
            StreamingReconService::spawn(server.subscribe(64), StreamerConfig::default());
        server.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from("ghost"),
        });
        assert!(previews.recv_timeout(Duration::from_millis(300)).is_none());
        svc.stop();
    }

    #[test]
    fn service_handles_back_to_back_scans() {
        let server = PvaServer::new();
        let (svc, previews) =
            StreamingReconService::spawn(server.subscribe(16384), StreamerConfig::default());
        let vol = shepp_logan_volume(32, 2);
        let geom = TomoGeometry::parallel_180(16, 32);
        for i in 0..3 {
            let cfg = DetectorConfig::default();
            let mut sim = ScanSimulator::new(&vol, geom.clone(), cfg, i);
            publish_scan(&server, &mut sim, &format!("s{i}"), cfg.mu_scale);
        }
        for i in 0..3 {
            let p = previews
                .recv_timeout(Duration::from_secs(20))
                .expect("preview");
            assert_eq!(p.scan_id, format!("s{i}"));
        }
        svc.stop();
    }

    #[test]
    fn plan_cache_shares_one_plan_across_identical_geometries() {
        let plans = PlanCache::new();
        let geom = TomoGeometry::parallel_180(24, 32);
        let cfg = FbpConfig::default();
        let a = plans.get(&geom, &cfg).unwrap();
        let b = plans.get(&geom, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical geometry shares the plan");
        assert_eq!((plans.misses(), plans.hits()), (1, 1));
        // different geometry builds a second plan
        let geom2 = TomoGeometry::parallel_180(25, 32);
        let c = plans.get(&geom2, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(plans.len(), 2);
    }

    #[test]
    fn plan_cache_keeps_only_the_most_recently_used_plans() {
        let registry = Registry::new();
        let plans = PlanCache::with_registry(&registry);
        let cfg = FbpConfig::default();
        let full = TomoGeometry::parallel_180(120, 16);
        plans.get(&full, &cfg).unwrap();
        // 100 one-off announced geometries, the routine scan recurring
        // between them as on a live beamline
        for fewer in 1..=100 {
            let one_off = TomoGeometry {
                angles: full.angles[..full.angles.len() - fewer].to_vec(),
                ..full.clone()
            };
            plans.get(&one_off, &cfg).unwrap();
            plans.get(&full, &cfg).unwrap();
        }
        assert_eq!(plans.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(plans.misses(), 101, "the routine plan was built once");
        assert_eq!(plans.hits(), 100, "routine scans still hit");
        let evicted = 101 - PLAN_CACHE_CAPACITY as u64;
        assert_eq!(plans.evictions(), evicted);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["stream_plan_cache_evictions_total"], evicted);
        // an evicted geometry is rebuilt, a retained one is not
        let oldest = TomoGeometry {
            angles: full.angles[..full.angles.len() - 1].to_vec(),
            ..full.clone()
        };
        plans.get(&oldest, &cfg).unwrap();
        assert_eq!(plans.misses(), 102);
    }

    #[test]
    fn incremental_assembly_rejects_malformed_frames() {
        use als_phantom::FrameMeta;
        let announce = Arc::new(crate::ScanAnnounce {
            scan_id: "reject".into(),
            n_angles: 3,
            rows: 2,
            cols: 2,
            angles: vec![0.0, 0.1, 0.2],
            dark: vec![0; 4],
            flat: vec![100; 4],
            mu_scale: 0.04,
        });
        let mut scan = IncrementalScan::new(Arc::clone(&announce));
        let good = crate::slab::FrameSlab::detached(
            FrameMeta {
                frame_id: 0,
                angle_rad: 0.0,
                n_angles: 3,
                rows: 2,
                cols: 2,
            },
            vec![50; 4],
        );
        let bad_shape = crate::slab::FrameSlab::detached(
            FrameMeta {
                frame_id: 1,
                angle_rad: 0.1,
                n_angles: 3,
                rows: 4,
                cols: 4,
            },
            vec![50; 16],
        );
        // the right shape, but not the angle announced for its id
        let wrong_angle = crate::slab::FrameSlab::detached(
            FrameMeta {
                frame_id: 2,
                angle_rad: 0.1,
                n_angles: 3,
                rows: 2,
                cols: 2,
            },
            vec![50; 4],
        );
        assert!(scan.ingest(&good));
        assert!(!scan.ingest(&bad_shape));
        assert!(!scan.ingest(&wrong_angle));
        assert_eq!(scan.received(), 1);
        assert_eq!(scan.rejected(), 2);
        let p = scan
            .finish("reject")
            .expect("preview from the surviving frame");
        assert_eq!(p.cached_frames, 1);
        assert_eq!(p.dropped_frames, 2);
        assert_eq!(p.rejected_frames, 2);
    }

    #[test]
    fn bounded_preview_queue_counts_overflow() {
        let server = PvaServer::new();
        let cfg = StreamerConfig {
            preview_queue: 1,
            ..Default::default()
        };
        let (svc, previews) = StreamingReconService::spawn(server.subscribe(16384), cfg);
        let vol = shepp_logan_volume(24, 2);
        let geom = TomoGeometry::parallel_180(8, 24);
        for i in 0..3 {
            let det = DetectorConfig::default();
            let mut sim = ScanSimulator::new(&vol, geom.clone(), det, i);
            publish_scan(&server, &mut sim, &format!("s{i}"), det.mu_scale);
        }
        // nobody drained while three scans completed: queue of 1 keeps the
        // first preview, the other two are counted drops
        let deadline = Instant::now() + Duration::from_secs(20);
        while previews.dropped_count() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(previews.dropped_count(), 2);
        let kept = previews.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(kept.scan_id, "s0");
        svc.stop();
    }
}
