//! The file-writing service (§4.2.1).
//!
//! Subscribes to the mirror, validates each frame's metadata, and — once
//! the acquisition completes — writes the scan container to the beamline
//! data directory and reports the finished file (the hook that triggers
//! the Prefect `new_file_832` flow in production). The scan-boundary
//! rule is the loop it shares with the streaming service (the `service`
//! module); the writer supplies its stack, its "stack full" rule and the
//! save.
//!
//! The writer is zero-copy on the hot path: each validated frame's
//! pixels are appended straight out of the shared slab into the one
//! contiguous projection stack that becomes `/exchange/data`, and the
//! slab handle is released immediately (the buffer returns to its pool
//! mid-scan instead of being pinned until scan end). At completion the
//! stack is handed to [`ScanFile::from_raw_parts`] by value — no
//! per-frame `Frame` clone and no second whole-scan copy.

use crate::channel::Subscription;
use crate::service::{spawn_scan_consumer, BoundaryCounters, Replies, ScanConsumer, ServiceThread};
use crate::slab::FrameSlab;
use crate::ScanAnnounce;
use als_scidata::ScanFile;
use als_telemetry::{Counter, Registry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Report for one completed acquisition.
#[derive(Debug, Clone)]
pub struct WrittenScan {
    pub scan_id: String,
    pub path: PathBuf,
    pub n_frames: usize,
    pub bytes: u64,
    /// Frames rejected by metadata validation.
    pub rejected_frames: usize,
}

/// Configuration for the writer service.
#[derive(Debug, Clone)]
pub struct FileWriterConfig {
    /// Bound of the completion-report queue (scans, not frames).
    pub completion_queue: usize,
    /// Label for this writer's metrics.
    pub stream: String,
    /// Metrics registry; `None` disables telemetry.
    pub registry: Option<Arc<Registry>>,
}

impl Default for FileWriterConfig {
    fn default() -> Self {
        FileWriterConfig {
            completion_queue: 64,
            stream: "stream0".to_string(),
            registry: None,
        }
    }
}

/// Handle to a running file writer.
pub struct FileWriterHandle {
    _thread: ServiceThread,
    replies: Replies<WrittenScan>,
}

impl FileWriterHandle {
    /// Wait for the next completed scan file.
    pub fn wait_completion(&self, timeout: Duration) -> Option<WrittenScan> {
        self.replies.rx.recv_timeout(timeout).ok()
    }

    /// Total frames rejected by validation so far.
    pub fn rejected_count(&self) -> u64 {
        self.replies.rejected.get()
    }

    /// Completion reports abandoned because the bounded queue was full.
    pub fn completions_dropped(&self) -> u64 {
        self.replies.dropped.get()
    }

    /// Stop the service and join its thread (what dropping it does).
    pub fn stop(self) {}
}

/// Where finished scans are written, and the count of those written.
struct WriterOutput {
    dir: PathBuf,
    written: Counter,
}

/// Pixels accumulated for the scan currently being received.
struct ScanInProgress {
    announce: Arc<ScanAnnounce>,
    /// The growing `/exchange/data` stack, appended frame by frame.
    stack: Vec<u16>,
    angles: Vec<f64>,
    rejected: usize,
}

impl ScanConsumer for ScanInProgress {
    type Ctx = WriterOutput;
    type Product = WrittenScan;

    /// A contradictory announcement, or a stack this host cannot hold,
    /// refuses the scan.
    fn open(announce: Arc<ScanAnnounce>, _: &WriterOutput) -> Result<Self, String> {
        announce.validate()?;
        let mut stack = Vec::new();
        stack
            .try_reserve_exact(announce.n_angles * announce.rows * announce.cols)
            .map_err(|e| e.to_string())?;
        Ok(ScanInProgress {
            stack,
            angles: Vec::with_capacity(announce.n_angles),
            announce,
            rejected: 0,
        })
    }

    fn ingest(&mut self, frame: &FrameSlab) -> bool {
        // a full stack takes no more: the surplus frame belongs to a
        // scan whose start was lost
        if !self.announce.fits(frame) || self.angles.len() == self.announce.n_angles {
            self.rejected += 1;
            return false;
        }
        self.stack.extend_from_slice(frame.data());
        self.angles.push(frame.meta.angle_rad);
        true
    }

    fn received(&self) -> usize {
        self.angles.len()
    }

    fn finish(self, out: &WriterOutput) -> Option<WrittenScan> {
        let a = &self.announce;
        let n_frames = self.angles.len();
        let file = ScanFile::from_raw_parts(
            &a.scan_id,
            n_frames,
            a.rows,
            a.cols,
            self.stack,
            &a.dark,
            &a.flat,
            &self.angles,
        )
        .ok()?;
        std::fs::create_dir_all(&out.dir).ok();
        let path = out.dir.join(format!("{}.sdf", a.scan_id));
        file.save(&path).ok()?;
        out.written.inc();
        Some(WrittenScan {
            scan_id: a.scan_id.clone(),
            path,
            n_frames,
            bytes: file.nbytes(),
            rejected_frames: self.rejected,
        })
    }
}

/// The service itself.
pub struct FileWriterService;

impl FileWriterService {
    /// Spawn the writer consuming `sub`, writing finished scans into
    /// `out_dir`.
    pub fn spawn(sub: Subscription, out_dir: &Path) -> FileWriterHandle {
        Self::spawn_with(sub, out_dir, FileWriterConfig::default())
    }

    /// Spawn with an explicit completion-queue bound and telemetry.
    pub fn spawn_with(
        sub: Subscription,
        out_dir: &Path,
        cfg: FileWriterConfig,
    ) -> FileWriterHandle {
        // without a registry the metrics go to a private one: same code path
        let r = cfg.registry.unwrap_or_default();
        let l = &[("stream", cfg.stream.as_str())][..];
        let counters = BoundaryCounters {
            ingested: Counter::default(),
            rejected: r.counter("stream_writer_rejected_total", l),
            scans_rejected: r.counter("stream_writer_scans_rejected_total", l),
            scans_abandoned: r.counter("stream_writer_scans_abandoned_total", l),
            dropped: r.counter("stream_writer_completions_dropped_total", l),
        };
        let out = WriterOutput {
            dir: out_dir.to_path_buf(),
            written: r.counter("stream_scans_written_total", l),
        };
        let (thread, replies) =
            spawn_scan_consumer::<ScanInProgress>(sub, out, cfg.completion_queue, counters);
        FileWriterHandle {
            _thread: thread,
            replies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{PvaServer, StreamMessage};
    use crate::publish_scan;
    use crate::slab::FrameSlab;
    use als_phantom::{shepp_logan_volume, DetectorConfig, FrameMeta, ScanSimulator};
    use als_tomo::Geometry;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("filewriter_{name}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn complete_scan_is_written_and_loadable() {
        let dir = tmpdir("write");
        let server = PvaServer::new();
        let writer = FileWriterService::spawn(server.subscribe(4096), &dir);
        let vol = shepp_logan_volume(32, 3);
        let geom = Geometry::parallel_180(16, 32);
        let mut sim = ScanSimulator::new(&vol, geom, DetectorConfig::default(), 3);
        publish_scan(
            &server,
            &mut sim,
            "scan_0001",
            DetectorConfig::default().mu_scale,
        );
        let written = writer
            .wait_completion(Duration::from_secs(5))
            .expect("scan written");
        assert_eq!(written.scan_id, "scan_0001");
        assert_eq!(written.n_frames, 16);
        assert_eq!(written.rejected_frames, 0);
        let loaded = ScanFile::load(&written.path).unwrap();
        assert_eq!(loaded.shape(), (16, 3, 32));
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_file_matches_simulator_frames_exactly() {
        let dir = tmpdir("exact");
        let server = PvaServer::new();
        let writer = FileWriterService::spawn(server.subscribe(4096), &dir);
        let vol = shepp_logan_volume(32, 2);
        let geom = Geometry::parallel_180(6, 32);
        let cfg = DetectorConfig {
            noise: false,
            ..Default::default()
        };
        let mut sim = ScanSimulator::new(&vol, geom.clone(), cfg, 9);
        let reference = ScanSimulator::new(&vol, geom, cfg, 9).all_frames();
        publish_scan(&server, &mut sim, "exact", cfg.mu_scale);
        let written = writer.wait_completion(Duration::from_secs(5)).unwrap();
        let loaded = ScanFile::load(&written.path).unwrap();
        for (a, f) in reference.iter().enumerate() {
            assert_eq!(
                loaded.frame_data(a),
                &f.data[..],
                "incremental append must be byte-identical at frame {a}"
            );
        }
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_frames_are_rejected_not_written() {
        let dir = tmpdir("reject");
        let server = PvaServer::new();
        let writer = FileWriterService::spawn(server.subscribe(1024), &dir);
        let announce = crate::ScanAnnounce {
            scan_id: "bad".into(),
            n_angles: 3,
            rows: 2,
            cols: 2,
            angles: vec![0.0, 0.1, 0.2],
            dark: vec![0; 4],
            flat: vec![100; 4],
            mu_scale: 0.04,
        };
        server.publish(StreamMessage::ScanStart(Arc::new(announce)));
        // one good frame, one with a NaN angle, one with wrong shape
        let good = FrameSlab::detached(
            FrameMeta {
                frame_id: 0,
                angle_rad: 0.0,
                n_angles: 3,
                rows: 2,
                cols: 2,
            },
            vec![1; 4],
        );
        let nan_angle = FrameSlab::detached(
            FrameMeta {
                frame_id: 1,
                angle_rad: f64::NAN,
                n_angles: 3,
                rows: 2,
                cols: 2,
            },
            vec![1; 4],
        );
        let wrong_shape = FrameSlab::detached(
            FrameMeta {
                frame_id: 2,
                angle_rad: 0.2,
                n_angles: 3,
                rows: 4,
                cols: 4,
            },
            vec![1; 16],
        );
        for f in [good, nan_angle, wrong_shape] {
            server.publish(StreamMessage::Frame(f));
        }
        server.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from("bad"),
        });
        let written = writer
            .wait_completion(Duration::from_secs(5))
            .expect("written");
        assert_eq!(written.n_frames, 1);
        assert_eq!(written.rejected_frames, 2);
        assert_eq!(writer.rejected_count(), 2);
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_without_scan_start_are_rejected_and_counted() {
        let dir = tmpdir("orphan");
        let server = PvaServer::new();
        let writer = FileWriterService::spawn(server.subscribe(64), &dir);
        let f = FrameSlab::detached(
            FrameMeta {
                frame_id: 0,
                angle_rad: 0.0,
                n_angles: 1,
                rows: 2,
                cols: 2,
            },
            vec![1; 4],
        );
        server.publish(StreamMessage::Frame(f));
        server.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from("orphan"),
        });
        assert!(writer.wait_completion(Duration::from_millis(300)).is_none());
        assert_eq!(writer.rejected_count(), 1);
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consecutive_scans_produce_separate_files() {
        let dir = tmpdir("multi");
        let server = PvaServer::new();
        let writer = FileWriterService::spawn(server.subscribe(8192), &dir);
        let vol = shepp_logan_volume(32, 2);
        let geom = Geometry::parallel_180(8, 32);
        for i in 0..2 {
            let mut sim = ScanSimulator::new(&vol, geom.clone(), DetectorConfig::default(), i);
            publish_scan(&server, &mut sim, &format!("scan_{i:04}"), 0.04);
        }
        let w1 = writer.wait_completion(Duration::from_secs(5)).unwrap();
        let w2 = writer.wait_completion(Duration::from_secs(5)).unwrap();
        assert_ne!(w1.path, w2.path);
        writer.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}
