//! §6 "Dynamic and Real-Time Analysis" — the 4D extension.
//!
//! "Leveraging quick streaming reconstructions, we can explore supporting
//! time-resolved experiments by extending our workflow to handle 4D
//! datasets as sequences of time-stamped volumes." This module does
//! exactly that at laptop scale: consecutive scans of an evolving sample
//! stream through the real PVA → streaming-recon path, producing a
//! time-stamped volume sequence plus a per-step quantitative trace — the
//! experiment-steering signal (e.g. fracture porosity closing under
//! creep) a scientist would watch live.

use als_phantom::proppant::{proppant_creep_series, ProppantConfig};
use als_phantom::{DetectorConfig, ScanSimulator};
use als_stream::{
    publish_scan_pooled, PlanCache, PvaServer, SlabPool, StreamerConfig, StreamingReconService,
};
use als_telemetry::Registry;
use als_tomo::{Geometry, Image, Volume};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// One time step of the 4D series.
#[derive(Debug, Clone, Serialize)]
pub struct TimeStep {
    /// Index in the sequence (the time stamp).
    pub step: usize,
    /// Compaction state of the sample at this step (0 = fresh, 1 = crept).
    pub compaction: f64,
    /// Wall seconds of streaming reconstruction left at scan end (the
    /// rest ran while the frames arrived).
    pub recon_secs: f64,
    /// Wall seconds from scan end to preview in hand — the steering
    /// feedback latency the experimenter experiences.
    pub feedback_secs: f64,
    /// The steering metric: fracture porosity measured on the preview's
    /// central slice.
    pub porosity: f64,
}

/// Result of a 4D run.
#[derive(Debug, Serialize)]
pub struct DynamicSeries {
    pub steps: Vec<TimeStep>,
    /// Reconstruction plans built across the whole series (the shared
    /// plan cache makes this 1 for a fixed-geometry experiment).
    pub plans_built: u64,
    /// Plan-cache hits across the series (steps − plans_built).
    pub plan_cache_hits: u64,
    /// Slab buffers ever allocated by the acquisition source: the
    /// steady-state working set of the zero-copy stream.
    pub slabs_allocated: u64,
}

impl DynamicSeries {
    /// Is the steering metric monotonically non-increasing (the physical
    /// expectation for creep)?
    pub fn porosity_monotone_decreasing(&self, slack: f64) -> bool {
        self.steps
            .windows(2)
            .all(|w| w[1].porosity <= w[0].porosity + slack)
    }
}

/// Porosity from a reconstructed slice: pore (low attenuation) vs grain
/// (high attenuation) voxels within the fracture band.
fn slice_porosity(slice: &Image) -> f64 {
    let mut pore = 0usize;
    let mut grain = 0usize;
    for &v in &slice.data {
        if v < 0.3 && v > -0.3 {
            pore += 1;
        } else if v > 0.9 {
            grain += 1;
        }
    }
    let total = pore + grain;
    if total == 0 {
        0.0
    } else {
        pore as f64 / total as f64
    }
}

/// Stream a creep series through the real streaming service: one scan per
/// time step, previews collected in order.
pub fn run_creep_series(
    n: usize,
    nz: usize,
    steps: usize,
    n_angles: usize,
    seed: u64,
) -> DynamicSeries {
    run_creep_series_with_registry(n, nz, steps, n_angles, seed, None)
}

/// [`run_creep_series`] with per-step latency metrics exported into a
/// telemetry registry (labelled `stream="4d"`).
pub fn run_creep_series_with_registry(
    n: usize,
    nz: usize,
    steps: usize,
    n_angles: usize,
    seed: u64,
    registry: Option<Arc<Registry>>,
) -> DynamicSeries {
    let series: Vec<Volume> = proppant_creep_series(n, nz, &ProppantConfig::default(), steps, seed);
    let server = PvaServer::new();
    // one plan cache and one slab pool across the whole experiment: every
    // step after the first reuses the first step's reconstruction plan
    // and detector buffers
    let plans = PlanCache::new();
    let pool = SlabPool::new(n * nz);
    let cfg = StreamerConfig {
        preview_queue: steps.max(1),
        stream: "4d".to_string(),
        registry,
        ..Default::default()
    };
    let (svc, previews) =
        StreamingReconService::spawn_shared(server.subscribe(1 << 17), cfg, Arc::clone(&plans));
    let det = DetectorConfig {
        noise: false,
        ..Default::default()
    };

    let mut out = Vec::with_capacity(steps);
    for (step, vol) in series.iter().enumerate() {
        let geom = Geometry::parallel_180(n_angles, n);
        let mut sim = ScanSimulator::new(vol, geom, det, seed + step as u64);
        publish_scan_pooled(
            &server,
            &mut sim,
            &format!("t{step:03}"),
            det.mu_scale,
            &pool,
        );
        let preview = previews
            .recv_timeout(Duration::from_secs(120))
            .expect("time-step preview");
        assert_eq!(preview.scan_id, format!("t{step:03}"), "previews in order");
        let compaction = if steps > 1 {
            step as f64 / (steps - 1) as f64
        } else {
            0.0
        };
        out.push(TimeStep {
            step,
            compaction,
            recon_secs: preview.recon_wall.as_secs_f64(),
            feedback_secs: preview.feedback_wall.as_secs_f64(),
            porosity: slice_porosity(&preview.slices[0]),
        });
    }
    svc.stop();
    DynamicSeries {
        steps: out,
        plans_built: plans.misses(),
        plan_cache_hits: plans.hits(),
        slabs_allocated: pool.allocated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_d_series_streams_in_order() {
        let series = run_creep_series(48, 3, 4, 48, 2020);
        assert_eq!(series.steps.len(), 4);
        for (i, s) in series.steps.iter().enumerate() {
            assert_eq!(s.step, i);
            assert!(s.recon_secs > 0.0);
        }
        // compaction ramps 0 -> 1
        assert_eq!(series.steps[0].compaction, 0.0);
        assert_eq!(series.steps[3].compaction, 1.0);
    }

    #[test]
    fn series_shares_one_plan_and_a_bounded_slab_set() {
        let series = run_creep_series(32, 2, 3, 24, 4);
        assert_eq!(
            series.plans_built, 1,
            "fixed geometry: one plan for the whole experiment"
        );
        assert_eq!(series.plan_cache_hits, 2);
        assert!(
            series.slabs_allocated <= 24,
            "zero-copy stream keeps a bounded slab working set, allocated {}",
            series.slabs_allocated
        );
        for s in &series.steps {
            assert!(s.feedback_secs >= s.recon_secs);
        }
    }

    #[test]
    fn steering_metric_tracks_creep() {
        let series = run_creep_series(48, 3, 4, 64, 7);
        assert!(
            series.porosity_monotone_decreasing(0.03),
            "porosity trace {:?}",
            series.steps.iter().map(|s| s.porosity).collect::<Vec<_>>()
        );
        // and the effect is real, not flat
        let first = series.steps.first().unwrap().porosity;
        let last = series.steps.last().unwrap().porosity;
        assert!(
            first - last > 0.05,
            "creep should close porosity: {first} -> {last}"
        );
    }
}
