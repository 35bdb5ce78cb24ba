//! The streaming service against input it must refuse: whatever frames
//! arrive — lost, repeated, mislabelled, misshapen — the reconstruction
//! never panics and its frame accounting closes; whatever announcement
//! arrives, both consumer threads survive it and serve the next scan;
//! and every message the service loop swallows is counted.

use als_phantom::{shepp_logan_volume, DetectorConfig, FrameMeta, ScanSimulator};
use als_stream::{
    announce_for, publish_scan, DeliveryMode, FileWriterConfig, FileWriterService, FrameSlab,
    IncrementalScan, PlanCache, PvaServer, ScanAnnounce, SlabPool, StreamMessage, StreamerConfig,
    StreamingReconService,
};
use als_telemetry::Registry;
use als_tomo::{FbpConfig, Geometry};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 3;
const COLS: usize = 8;

fn announce(n_angles: usize) -> ScanAnnounce {
    ScanAnnounce {
        scan_id: "prop".into(),
        n_angles,
        rows: ROWS,
        cols: COLS,
        angles: Geometry::parallel_180(n_angles, COLS).angles,
        dark: vec![10; ROWS * COLS],
        flat: vec![1000; ROWS * COLS],
        mu_scale: 0.04,
    }
}

proptest! {
    /// Arbitrary arrival patterns: frames dropped, repeated and out of
    /// order, frames whose angle is not the announced one for their id,
    /// ids past the announced range, frames of another shape.
    #[test]
    fn arbitrary_arrivals_never_panic_and_the_accounting_closes(
        n_angles in 1usize..14,
        // (kind, frame id, pixel level)
        arrivals in prop::collection::vec((0u8..8, 0usize..16, 100u16..900), 0..40),
    ) {
        let announce = Arc::new(announce(n_angles));
        let plans = PlanCache::new();
        let mut scan = IncrementalScan::open(Arc::clone(&announce), &plans, &FbpConfig::default())
            .expect("valid announcement");
        let pool = SlabPool::new(ROWS * COLS);
        let odd_pool = SlabPool::new(2 * ROWS * COLS);
        let (mut accepted, mut refused) = (0usize, 0usize);
        for &(kind, id, level) in &arrivals {
            let announced = announce.angles.get(id).copied();
            let (meta, good) = match kind {
                // the announced angle's bits, one ulp off
                0 => {
                    let angle_rad = f64::from_bits(announced.unwrap_or(0.5).to_bits() ^ 1);
                    (FrameMeta { frame_id: id, angle_rad, n_angles, rows: ROWS, cols: COLS }, false)
                }
                1 => (
                    FrameMeta {
                        frame_id: id,
                        angle_rad: announced.unwrap_or(0.0),
                        n_angles: n_angles.max(id + 1),
                        rows: 2 * ROWS,
                        cols: COLS,
                    },
                    false,
                ),
                _ => (
                    FrameMeta {
                        frame_id: id,
                        angle_rad: announced.unwrap_or(0.0),
                        n_angles: n_angles.max(id + 1),
                        rows: ROWS,
                        cols: COLS,
                    },
                    announced.is_some(),
                ),
            };
            let from = if meta.rows == ROWS { &pool } else { &odd_pool };
            let frame = from.frame(meta, |buf| buf.fill(level));
            prop_assert_eq!(scan.ingest(&frame), good);
            drop(frame);
            // ingest keeps no handle: the slab is back in its pool
            prop_assert_eq!(from.free_slabs() as u64, from.allocated());
            if good {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        prop_assert_eq!((scan.received(), scan.rejected()), (accepted, refused));
        match scan.finish("prop") {
            None => prop_assert_eq!(accepted, 0),
            Some(p) => {
                prop_assert_eq!(p.cached_frames, accepted);
                prop_assert_eq!(p.rejected_frames, refused);
                prop_assert_eq!(p.dropped_frames, n_angles.saturating_sub(accepted));
                prop_assert_eq!((p.slices[0].width, p.slices[1].height), (COLS, ROWS));
                for s in &p.slices {
                    prop_assert!(s.data.iter().all(|v| v.is_finite()));
                }
            }
        }
        prop_assert_eq!(plans.misses(), 1);
    }
}

/// Announcements a consumer must not size anything from.
fn hostile_announces() -> Vec<ScanAnnounce> {
    let good = announce(4);
    vec![
        ScanAnnounce {
            dark: vec![0; 5],
            ..good.clone()
        },
        ScanAnnounce {
            flat: Vec::new(),
            ..good.clone()
        },
        ScanAnnounce {
            mu_scale: 0.0,
            ..good.clone()
        },
        ScanAnnounce {
            mu_scale: f64::NAN,
            ..good.clone()
        },
        ScanAnnounce {
            n_angles: 9,
            ..good.clone()
        },
        ScanAnnounce {
            n_angles: 0,
            angles: Vec::new(),
            ..good.clone()
        },
        ScanAnnounce {
            angles: vec![0.0, f64::INFINITY, 1.0, 2.0],
            ..good.clone()
        },
        ScanAnnounce {
            rows: 0,
            ..good.clone()
        },
        ScanAnnounce {
            rows: usize::MAX,
            cols: 2,
            ..good.clone()
        },
        ScanAnnounce {
            n_angles: usize::MAX / 8,
            ..good
        },
    ]
}

fn good_frame(announce: &ScanAnnounce, id: usize) -> StreamMessage {
    StreamMessage::Frame(FrameSlab::detached(
        FrameMeta {
            frame_id: id,
            angle_rad: announce.angles[id],
            n_angles: announce.n_angles,
            rows: announce.rows,
            cols: announce.cols,
        },
        vec![500; announce.rows * announce.cols],
    ))
}

fn end(scan_id: &str) -> StreamMessage {
    StreamMessage::ScanEnd {
        scan_id: Arc::from(scan_id),
    }
}

#[test]
fn both_consumers_survive_hostile_announcements_and_serve_the_next_scan() {
    for a in hostile_announces() {
        assert!(a.validate().is_err(), "{a:?}");
    }
    let dir = std::env::temp_dir().join("streamer_hostile_announce");
    std::fs::remove_dir_all(&dir).ok();
    let registry = Arc::new(Registry::new());
    let server = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let writer = FileWriterService::spawn_with(
        server.subscribe_named("filewriter", 4096, DeliveryMode::Reliable),
        &dir,
        FileWriterConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    let (streamer, previews) = StreamingReconService::spawn(
        server.subscribe_named("preview", 4096, DeliveryMode::Reliable),
        StreamerConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    let hostile = hostile_announces();
    let template = announce(4);
    for a in &hostile {
        server.publish(StreamMessage::ScanStart(Arc::new(a.clone())));
        // frames that would have been fine under a sane announcement
        server.publish(good_frame(&template, 0));
        server.publish(good_frame(&template, 1));
        server.publish(end("hostile"));
    }
    let vol = shepp_logan_volume(32, 3);
    let det = DetectorConfig::default();
    let mut sim = ScanSimulator::new(&vol, Geometry::parallel_180(12, 32), det, 5);
    publish_scan(&server, &mut sim, "after", det.mu_scale);

    let p = previews
        .recv_timeout(Duration::from_secs(20))
        .expect("the streamer thread outlived the hostile announcements");
    assert_eq!((p.scan_id.as_str(), p.cached_frames), ("after", 12));
    let w = writer
        .wait_completion(Duration::from_secs(20))
        .expect("the writer thread outlived the hostile announcements");
    assert_eq!((w.scan_id.as_str(), w.n_frames), ("after", 12));

    let refused = hostile.len() as u64;
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["stream_scans_rejected_total{stream=\"s\"}"],
        refused
    );
    assert_eq!(
        snap.counters["stream_frames_rejected_total{stream=\"s\"}"],
        2 * refused
    );
    assert_eq!(
        snap.counters["stream_writer_scans_rejected_total{stream=\"s\"}"],
        refused
    );
    assert_eq!(
        snap.counters["stream_writer_rejected_total{stream=\"s\"}"],
        2 * refused
    );
    assert_eq!(writer.rejected_count(), 2 * refused);
    streamer.stop();
    writer.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Orphan frames before any scan, a scan whose end never came, a kept
/// scan, a frame after its end, a stray end, and a last scan.
fn publish_abandoned_and_orphan_script(server: &PvaServer) -> u64 {
    let a = announce(6);
    let start = |scan_id: &str| {
        StreamMessage::ScanStart(Arc::new(ScanAnnounce {
            scan_id: scan_id.into(),
            ..a.clone()
        }))
    };
    let script = [
        good_frame(&a, 0), // no scan open yet
        good_frame(&a, 1),
        start("unended"),
        good_frame(&a, 0),
        good_frame(&a, 1),
        start("kept"), // the scan in flight never ended
        good_frame(&a, 0),
        good_frame(&a, 1),
        good_frame(&a, 2),
        end("kept"),
        good_frame(&a, 3), // after the end
        end("nothing open"),
        start("last"),
        good_frame(&a, 5),
        end("last"),
    ];
    let control = script
        .iter()
        .filter(|m| !matches!(m, StreamMessage::Frame(_)))
        .count() as u64;
    for m in script {
        server.publish(m);
    }
    control
}

#[test]
fn abandoned_scans_and_orphan_frames_are_counted() {
    let registry = Arc::new(Registry::new());
    let server = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let (streamer, previews) = StreamingReconService::spawn(
        server.subscribe_named("preview", 4096, DeliveryMode::Lossy),
        StreamerConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    let control = publish_abandoned_and_orphan_script(&server);
    let kept = previews
        .recv_timeout(Duration::from_secs(20))
        .expect("kept");
    assert_eq!((kept.scan_id.as_str(), kept.cached_frames), ("kept", 3));
    let last = previews
        .recv_timeout(Duration::from_secs(20))
        .expect("last");
    assert_eq!((last.scan_id.as_str(), last.cached_frames), ("last", 1));

    // both previews are out, so the queue has drained
    let snap = registry.snapshot();
    let published = snap.counters["stream_frames_published_total{channel=\"ioc\"}"];
    let ingested = snap.counters["stream_frames_ingested_total{stream=\"s\"}"];
    let rejected = snap.counters["stream_frames_rejected_total{stream=\"s\"}"];
    let dropped =
        snap.counters["stream_frames_dropped_total{channel=\"ioc\",subscriber=\"preview\"}"];
    assert_eq!(
        snap.counters["stream_scans_abandoned_total{stream=\"s\"}"],
        1
    );
    assert_eq!((ingested, rejected, dropped), (6, 3, 0));
    assert_eq!(published, ingested + rejected + control + dropped);
    streamer.stop();
}

#[test]
fn the_writer_counts_abandoned_scans_and_orphan_frames_like_the_streamer() {
    let dir = std::env::temp_dir().join("streamer_writer_abandoned");
    std::fs::remove_dir_all(&dir).ok();
    let registry = Arc::new(Registry::new());
    let server = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let writer = FileWriterService::spawn_with(
        server.subscribe_named("filewriter", 4096, DeliveryMode::Reliable),
        &dir,
        FileWriterConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    publish_abandoned_and_orphan_script(&server);
    let kept = writer
        .wait_completion(Duration::from_secs(20))
        .expect("kept");
    assert_eq!((kept.scan_id.as_str(), kept.n_frames), ("kept", 3));
    let last = writer
        .wait_completion(Duration::from_secs(20))
        .expect("last");
    assert_eq!((last.scan_id.as_str(), last.n_frames), ("last", 1));
    assert!(writer.wait_completion(Duration::from_millis(200)).is_none());
    assert!(!dir.join("unended.sdf").exists());

    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["stream_writer_scans_abandoned_total{stream=\"s\"}"], 1,
        "the scan whose end never came is abandoned, not silently replaced"
    );
    assert_eq!(
        snap.counters["stream_writer_rejected_total{stream=\"s\"}"],
        3
    );
    assert_eq!(writer.rejected_count(), 3);
    writer.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two back-to-back 16-angle scans whose boundary was lost in transit
/// (`ScanEnd("s0")` and `ScanStart("s1")` both dropped, as a full Lossy
/// queue or an expired Reliable send can do), then an intact scan `s2`.
fn publish_scans_across_a_lost_boundary(server: &PvaServer) {
    let vol = shepp_logan_volume(32, 2);
    let det = DetectorConfig::default();
    let geom = Geometry::parallel_180(16, 32);
    let mut sim = ScanSimulator::new(&vol, geom.clone(), det, 0);
    let pool = SlabPool::new(sim.rows() * sim.cols());
    let s0 = announce_for(&sim, "s0", det.mu_scale);
    server.publish(StreamMessage::ScanStart(Arc::new(s0)));
    for _ in ["s0", "s1"] {
        for a in 0..sim.n_frames() {
            server.publish(StreamMessage::Frame(
                pool.frame_from(|buf| sim.fill_frame(a, buf)),
            ));
        }
    }
    server.publish(end("s1"));
    let mut sim = ScanSimulator::new(&vol, geom, det, 2);
    publish_scan(server, &mut sim, "s2", det.mu_scale);
}

#[test]
fn a_lost_scan_boundary_never_merges_two_scans_into_one_preview() {
    let registry = Arc::new(Registry::new());
    let server = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let (streamer, previews) = StreamingReconService::spawn(
        server.subscribe_named("preview", 4096, DeliveryMode::Reliable),
        StreamerConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    publish_scans_across_a_lost_boundary(&server);
    let p = previews
        .recv_timeout(Duration::from_secs(20))
        .expect("the intact scan's preview");
    assert_eq!(
        (p.scan_id.as_str(), p.cached_frames, p.dropped_frames),
        ("s2", 16, 0),
        "the scan cut off by the lost boundary yields no preview"
    );
    assert!(previews.recv_timeout(Duration::from_millis(200)).is_none());
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["stream_scans_abandoned_total{stream=\"s\"}"],
        1
    );
    streamer.stop();
}

#[test]
fn a_lost_scan_boundary_never_merges_two_scans_into_one_file() {
    let dir = std::env::temp_dir().join("streamer_lost_boundary");
    std::fs::remove_dir_all(&dir).ok();
    let registry = Arc::new(Registry::new());
    let server = PvaServer::with_registry("ioc", Arc::clone(&registry));
    let writer = FileWriterService::spawn_with(
        server.subscribe_named("filewriter", 4096, DeliveryMode::Reliable),
        &dir,
        FileWriterConfig {
            stream: "s".into(),
            registry: Some(Arc::clone(&registry)),
            ..Default::default()
        },
    );
    publish_scans_across_a_lost_boundary(&server);
    let w = writer
        .wait_completion(Duration::from_secs(20))
        .expect("the intact scan's file");
    assert_eq!(
        (w.scan_id.as_str(), w.n_frames, w.rejected_frames),
        ("s2", 16, 0),
        "the scan cut off by the lost boundary is not written"
    );
    assert!(writer.wait_completion(Duration::from_millis(200)).is_none());
    assert!(!dir.join("s0.sdf").exists() && !dir.join("s1.sdf").exists());
    // the full s0 stack refused s1's 16 frames
    assert_eq!(writer.rejected_count(), 16);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["stream_writer_scans_abandoned_total{stream=\"s\"}"],
        1
    );
    assert_eq!(
        snap.counters["stream_writer_scans_rejected_total{stream=\"s\"}"],
        0
    );
    writer.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn announce_for_a_simulator_scan_validates() {
    let vol = shepp_logan_volume(16, 2);
    let det = DetectorConfig::default();
    let sim = ScanSimulator::new(&vol, Geometry::parallel_180(5, 16), det, 1);
    assert_eq!(announce_for(&sim, "ok", det.mu_scale).validate(), Ok(()));
}
