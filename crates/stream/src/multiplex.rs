//! Multi-detector multiplexing: N concurrent streams, one plan cache.
//!
//! A [`StreamHub`] owns the shared [`PlanCache`] and the telemetry
//! [`Registry`]. Each [`StreamLane`] it opens is a complete detector
//! path — a PVA server whose publish/drop/occupancy counters export
//! under that lane's channel label, plus a streaming-reconstruction
//! service that shares the hub's plan cache. Streams with bit-identical
//! acquisition geometry therefore build the reconstruction plan once,
//! no matter how many detectors feed the hub concurrently.

use crate::channel::{DeliveryMode, PvaServer};
use crate::streamer::{PlanCache, PreviewChannel, StreamerConfig, StreamingReconService};
use als_telemetry::Registry;
use als_tomo::FbpConfig;
use std::sync::Arc;

/// Shared state for a set of concurrent detector streams.
pub struct StreamHub {
    registry: Arc<Registry>,
    plans: Arc<PlanCache>,
}

impl Default for StreamHub {
    fn default() -> Self {
        StreamHub::new()
    }
}

impl StreamHub {
    pub fn new() -> StreamHub {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Build a hub whose lanes export metrics into `registry`.
    pub fn with_registry(registry: Arc<Registry>) -> StreamHub {
        StreamHub {
            plans: PlanCache::with_registry(&registry),
            registry,
        }
    }

    /// The telemetry registry every lane reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The reconstruction-plan cache shared by every lane.
    pub fn plans(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Open a lane: a PVA channel named `name` with a lossy preview
    /// subscriber of `monitor_capacity` frames feeding a reconstruction
    /// service that shares the hub's plan cache.
    pub fn open_lane(&self, name: &str, fbp: FbpConfig, monitor_capacity: usize) -> StreamLane {
        let server = PvaServer::with_registry(name, Arc::clone(&self.registry));
        let sub = server.subscribe_named("preview", monitor_capacity, DeliveryMode::Lossy);
        let cfg = StreamerConfig {
            fbp,
            stream: name.to_string(),
            registry: Some(Arc::clone(&self.registry)),
            ..Default::default()
        };
        let (service, previews) =
            StreamingReconService::spawn_shared(sub, cfg, Arc::clone(&self.plans));
        StreamLane {
            name: name.to_string(),
            server,
            previews,
            _service: service,
        }
    }
}

/// One detector stream opened through a [`StreamHub`].
pub struct StreamLane {
    pub name: String,
    /// The lane's PVA channel; publish scans here (or hand it to a
    /// mirror). Additional subscribers — file writers, monitors — attach
    /// with [`PvaServer::subscribe_named`].
    pub server: Arc<PvaServer>,
    /// Preview replies from the lane's reconstruction service.
    pub previews: PreviewChannel,
    _service: StreamingReconService,
}

impl StreamLane {
    /// Stop the lane's reconstruction service and join its thread (what
    /// dropping it does).
    pub fn close(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish_scan;
    use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
    use als_tomo::Geometry;
    use std::time::Duration;

    #[test]
    fn lanes_share_one_plan_for_identical_geometry() {
        let hub = StreamHub::new();
        let lanes: Vec<StreamLane> = (0..3)
            .map(|i| hub.open_lane(&format!("det{i}"), FbpConfig::default(), 4096))
            .collect();
        let vol = shepp_logan_volume(32, 2);
        let geom = Geometry::parallel_180(12, 32);
        for (i, lane) in lanes.iter().enumerate() {
            let cfg = DetectorConfig {
                noise: false,
                ..Default::default()
            };
            let mut sim = ScanSimulator::new(&vol, geom.clone(), cfg, i as u64);
            publish_scan(
                &lane.server,
                &mut sim,
                &format!("scan_det{i}"),
                cfg.mu_scale,
            );
        }
        for lane in &lanes {
            let p = lane
                .previews
                .recv_timeout(Duration::from_secs(20))
                .expect("each lane previews");
            assert_eq!(p.cached_frames, 12);
        }
        assert_eq!(hub.plans().len(), 1, "identical geometry: one shared plan");
        assert_eq!(hub.plans().misses(), 1);
        assert_eq!(hub.plans().hits(), 2);
        for lane in lanes {
            lane.close();
        }
    }

    #[test]
    fn lane_metrics_are_labelled_per_channel() {
        let hub = StreamHub::new();
        let lane = hub.open_lane("det7", FbpConfig::default(), 64);
        let vol = shepp_logan_volume(24, 2);
        let geom = Geometry::parallel_180(6, 24);
        let cfg = DetectorConfig::default();
        let mut sim = ScanSimulator::new(&vol, geom, cfg, 1);
        publish_scan(&lane.server, &mut sim, "s", cfg.mu_scale);
        lane.previews.recv_timeout(Duration::from_secs(20)).unwrap();
        let snap = hub.registry().snapshot();
        // ScanStart + 6 frames + ScanEnd
        assert_eq!(
            snap.counters["stream_frames_published_total{channel=\"det7\"}"],
            8
        );
        assert_eq!(
            snap.counters["stream_frames_ingested_total{stream=\"det7\"}"],
            6
        );
        assert_eq!(snap.counters["stream_previews_total{stream=\"det7\"}"], 1);
        lane.close();
    }
}
