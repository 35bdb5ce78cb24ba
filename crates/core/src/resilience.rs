//! Resilience experiment (R1): fault-injected campaigns, with and
//! without cross-facility failover.
//!
//! Replays the §5.3 incident class — a NERSC outage in the middle of a
//! beamtime — plus seeded "fault storms" of mixed incidents, and measures
//! what the failover router (circuit breakers + NERSC↔ALCF redirects +
//! remote cancellation of stranded jobs) buys: campaign completion rate,
//! failover activations, and flow-latency percentiles. Every run is
//! deterministic from its seed, so the with/without comparison is
//! paired — the same scans, the same faults, the only difference is the
//! remediation.

use crate::faults::{FaultKind, FaultPlan, FaultWindow};
use crate::scan::ScanWorkload;
use crate::sim::{FacilitySim, SimConfig, FLOW_ALCF, FLOW_NERSC};
use als_facility::Facility;
use als_orchestrator::engine::FlowState;
use als_simcore::{SimDuration, SimInstant, Summary};
use serde::Serialize;

/// Aggregated results of one fault-injected campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceOutcome {
    pub failover_enabled: bool,
    pub scans: usize,
    /// Terminal recon-branch flow runs (NERSC + ALCF branches).
    pub branch_flows_total: usize,
    pub branch_flows_completed: usize,
    /// completed / total over the recon branches.
    pub completion_rate: f64,
    /// NERSC↔ALCF redirects performed.
    pub failover_count: usize,
    /// Stranded jobs/invocations cancelled remotely at their deadline.
    pub remote_cancels: usize,
    pub nersc_breaker_trips: usize,
    pub alcf_breaker_trips: usize,
    /// Flow-latency percentiles over *completed* branch runs (s).
    pub p50_flow_s: Option<f64>,
    pub p99_flow_s: Option<f64>,
}

/// Paired comparison on identical scans + faults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceComparison {
    pub with_failover: ResilienceOutcome,
    pub without_failover: ResilienceOutcome,
}

/// One point of the fault-intensity sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntensityPoint {
    pub intensity: f64,
    pub comparison: ResilienceComparison,
}

/// The full R1 report (what `experiments resilience` prints).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// The canonical §5.3 incident: a 90-minute NERSC outage.
    pub outage: ResilienceComparison,
    pub sweep: Vec<IntensityPoint>,
}

/// The canonical incident plan: one NERSC outage window.
pub fn nersc_outage_plan(start_s: u64, duration_s: u64) -> FaultPlan {
    let start = SimInstant::ZERO + SimDuration::from_secs(start_s);
    FaultPlan::none().with_window(FaultWindow::new(
        start,
        start + SimDuration::from_secs(duration_s),
        FaultKind::NerscOutage,
    ))
}

/// Run one fault-injected campaign and return the drained simulator.
/// Fixed 5-minute cadence so outage windows line up with scan arrivals
/// identically across seeds of the same plan.
pub fn run_resilience_sim(
    n_scans: usize,
    seed: u64,
    failover_enabled: bool,
    plan: &FaultPlan,
) -> FacilitySim {
    let mut sim = FacilitySim::new(SimConfig {
        seed,
        faults: plan.clone(),
        failover_enabled,
        ..Default::default()
    });
    let mut workload = ScanWorkload::production().with_cadence_secs(300.0);
    sim.schedule_campaign(&mut workload, n_scans);
    sim.run(None);
    sim
}

/// Aggregate a drained simulator into an outcome row.
pub fn outcome_of(sim: &FacilitySim, scans: usize) -> ResilienceOutcome {
    let engine = sim.engine();
    let q = engine.query();
    let mut total = 0usize;
    let mut completed = 0usize;
    let mut durations: Vec<f64> = Vec::new();
    for flow in [FLOW_NERSC, FLOW_ALCF] {
        for run in q.runs_of(flow) {
            if run.state.is_terminal() {
                total += 1;
                if run.state == FlowState::Completed {
                    completed += 1;
                    if let Some(d) = run.duration() {
                        durations.push(d.as_secs_f64());
                    }
                }
            }
        }
    }
    ResilienceOutcome {
        failover_enabled: sim.cfg.failover_enabled,
        scans,
        branch_flows_total: total,
        branch_flows_completed: completed,
        completion_rate: if total > 0 {
            completed as f64 / total as f64
        } else {
            0.0
        },
        failover_count: sim.failover_count,
        remote_cancels: sim.remote_cancel_count,
        nersc_breaker_trips: sim.breaker(Facility::Nersc).open_count(),
        alcf_breaker_trips: sim.breaker(Facility::Alcf).open_count(),
        p50_flow_s: Summary::percentile(&durations, 50.0),
        p99_flow_s: Summary::percentile(&durations, 99.0),
    }
}

/// Same scans, same faults, failover on vs off.
pub fn resilience_comparison(n_scans: usize, seed: u64, plan: &FaultPlan) -> ResilienceComparison {
    let with = run_resilience_sim(n_scans, seed, true, plan);
    let without = run_resilience_sim(n_scans, seed, false, plan);
    ResilienceComparison {
        with_failover: outcome_of(&with, n_scans),
        without_failover: outcome_of(&without, n_scans),
    }
}

/// Sweep seeded fault storms of increasing intensity.
pub fn intensity_sweep(n_scans: usize, seed: u64, intensities: &[f64]) -> Vec<IntensityPoint> {
    // storms span the scan-arrival window plus the processing tail
    let horizon = SimDuration::from_secs(300 * n_scans as u64 + 3600);
    intensities
        .iter()
        .map(|&intensity| IntensityPoint {
            intensity,
            comparison: resilience_comparison(
                n_scans,
                seed,
                &FaultPlan::storm(seed, horizon, intensity),
            ),
        })
        .collect()
}

/// The full R1 experiment at paper-like scale.
pub fn resilience_experiment(n_scans: usize, seed: u64) -> ResilienceReport {
    ResilienceReport {
        outage: resilience_comparison(n_scans, seed, &nersc_outage_plan(900, 5400)),
        sweep: intensity_sweep(n_scans, seed, &[0.25, 0.5, 1.0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_plan_has_one_nersc_window() {
        let p = nersc_outage_plan(900, 5400);
        assert_eq!(p.windows.len(), 1);
        assert_eq!(p.windows[0].kind, FaultKind::NerscOutage);
        assert_eq!(p.windows[0].duration(), SimDuration::from_secs(5400));
    }

    #[test]
    fn healthy_plan_yields_full_completion_either_way() {
        let plan = FaultPlan::none();
        let sim = run_resilience_sim(4, 11, true, &plan);
        let out = outcome_of(&sim, 4);
        assert_eq!(out.branch_flows_total, 8);
        assert_eq!(out.completion_rate, 1.0);
        assert_eq!(out.failover_count, 0);
        assert_eq!(out.remote_cancels, 0);
    }
}
