//! Recovery experiment (R2): orchestrator crashes, with and without the
//! durable write-ahead journal.
//!
//! The §5.3 incident class the resilience experiment (R1) does not cover
//! is the coordinator itself dying mid-beamtime: facility jobs and
//! transfers keep running unattended, but the process that knew about
//! them is gone. R2 kills the orchestrator on a schedule and compares two
//! restart strategies on identical scans and crash times:
//!
//! - **durable** — replay the write-ahead journal, reconcile with live
//!   facility state (re-attach in-flight transfers/jobs, cancel orphans,
//!   expire dead-incarnation leases), and resume exactly where the dead
//!   incarnation stopped;
//! - **baseline** — come up empty and re-scan the beamline filesystem and
//!   catalogue, re-initiating whatever looks unfinished — including work
//!   that is still in flight at the facilities.
//!
//! The metrics are campaign completion, *duplicated side-effecting
//! steps* (the same ingest/copy/exec/return initiated twice at a
//! facility), and end-to-end scan latency. Every run is deterministic
//! from its seed, so each comparison is paired.

use crate::faults::FaultPlan;
use crate::scan::ScanWorkload;
use crate::sim::{FacilitySim, SimConfig};
use als_simcore::{SimDuration, SimInstant, Summary};
use serde::Serialize;

/// Aggregated results of one crash-injected campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryOutcome {
    pub durable: bool,
    pub scans: usize,
    /// Recon branches the campaign should deliver (two per scan).
    pub branches_total: usize,
    /// Branches whose product physically reached the beamline.
    pub branches_completed: usize,
    pub completion_rate: f64,
    /// Side-effecting steps initiated twice at a facility.
    pub duplicate_side_effects: usize,
    pub crashes: usize,
    /// Journal replays performed (durable mode only).
    pub recoveries: usize,
    /// In-flight external operations re-attached from the journal.
    pub reattached_ops: usize,
    /// Live facility jobs cancelled because the journal disowned them.
    pub orphans_cancelled: usize,
    /// Scan-start → branch-product latency percentiles (s).
    pub p50_latency_s: Option<f64>,
    pub p99_latency_s: Option<f64>,
}

/// Paired comparison on identical scans + crash schedule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryComparison {
    pub durable: RecoveryOutcome,
    pub non_durable: RecoveryOutcome,
}

/// The full R2 report (what `experiments recovery` prints).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoveryReport {
    /// One mid-campaign crash with a 10-minute restart gap.
    pub one_crash: RecoveryComparison,
    /// Three crashes spread across the campaign.
    pub crash_storm: RecoveryComparison,
}

fn secs(s: u64) -> SimInstant {
    SimInstant::ZERO + SimDuration::from_secs(s)
}

/// The canonical single-crash plan: the coordinator dies 40 minutes into
/// the campaign and a new incarnation comes up 10 minutes later.
pub fn one_crash_plan() -> FaultPlan {
    FaultPlan::none().with_orchestrator_crash(secs(2400), SimDuration::from_secs(600))
}

/// A harsher schedule: three deaths spread across the campaign, each
/// with a 7.5-minute restart gap.
pub fn crash_storm_plan() -> FaultPlan {
    let gap = SimDuration::from_secs(450);
    FaultPlan::none()
        .with_orchestrator_crash(secs(1500), gap)
        .with_orchestrator_crash(secs(3600), gap)
        .with_orchestrator_crash(secs(5700), gap)
}

/// Run one crash-injected campaign and return the drained simulator.
/// Fixed 5-minute cadence so crash times line up with scan arrivals
/// identically across the durable/baseline pair.
pub fn run_recovery_sim(n_scans: usize, seed: u64, durable: bool, plan: &FaultPlan) -> FacilitySim {
    let mut sim = FacilitySim::new(SimConfig {
        seed,
        faults: plan.clone(),
        durable_recovery: durable,
        ..Default::default()
    });
    let mut workload = ScanWorkload::production().with_cadence_secs(300.0);
    sim.schedule_campaign(&mut workload, n_scans);
    sim.run(None);
    sim
}

/// Aggregate a drained simulator into an outcome row.
pub fn outcome_of(sim: &FacilitySim, scans: usize) -> RecoveryOutcome {
    let total = scans * 2;
    let completed = sim.branches_completed();
    RecoveryOutcome {
        durable: sim.cfg.durable_recovery,
        scans,
        branches_total: total,
        branches_completed: completed,
        completion_rate: if total > 0 {
            completed as f64 / total as f64
        } else {
            0.0
        },
        duplicate_side_effects: sim.duplicate_side_effects,
        crashes: sim.crash_count,
        recoveries: sim.recovery_count,
        reattached_ops: sim.reattached_ops,
        orphans_cancelled: sim.orphan_cancel_count,
        p50_latency_s: Summary::percentile(&sim.branch_latencies, 50.0),
        p99_latency_s: Summary::percentile(&sim.branch_latencies, 99.0),
    }
}

/// Same scans, same crash schedule, journal on vs off.
pub fn recovery_comparison(n_scans: usize, seed: u64, plan: &FaultPlan) -> RecoveryComparison {
    let durable = run_recovery_sim(n_scans, seed, true, plan);
    let baseline = run_recovery_sim(n_scans, seed, false, plan);
    RecoveryComparison {
        durable: outcome_of(&durable, n_scans),
        non_durable: outcome_of(&baseline, n_scans),
    }
}

/// The full R2 experiment at paper-like scale.
pub fn recovery_experiment(n_scans: usize, seed: u64) -> RecoveryReport {
    RecoveryReport {
        one_crash: recovery_comparison(n_scans, seed, &one_crash_plan()),
        crash_storm: recovery_comparison(n_scans, seed, &crash_storm_plan()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_campaign_is_clean_in_both_modes() {
        for durable in [true, false] {
            let sim = run_recovery_sim(4, 13, durable, &FaultPlan::none());
            let out = outcome_of(&sim, 4);
            assert_eq!(out.branches_total, 8);
            assert_eq!(out.completion_rate, 1.0, "durable={durable}");
            assert_eq!(out.duplicate_side_effects, 0, "durable={durable}");
            assert_eq!(out.crashes, 0);
            assert_eq!(out.recoveries, 0);
        }
    }

    #[test]
    fn durable_recovery_completes_one_crash_without_duplicates() {
        let cmp = recovery_comparison(12, 7, &one_crash_plan());
        assert_eq!(cmp.durable.crashes, 1);
        assert_eq!(cmp.durable.recoveries, 1);
        assert!(
            cmp.durable.completion_rate >= 0.95,
            "durable completion {:.2}",
            cmp.durable.completion_rate
        );
        assert_eq!(
            cmp.durable.duplicate_side_effects, 0,
            "journal replay must not re-initiate facility work"
        );
        // the amnesiac baseline either loses work or redoes it
        assert!(
            cmp.non_durable.completion_rate < cmp.durable.completion_rate
                || cmp.non_durable.duplicate_side_effects > 0,
            "baseline should pay for forgetting: {:?}",
            cmp.non_durable
        );
    }

    #[test]
    fn crash_plans_are_well_formed() {
        assert_eq!(one_crash_plan().orchestrator_crashes.len(), 1);
        let storm = crash_storm_plan();
        assert_eq!(storm.orchestrator_crashes.len(), 3);
        for w in storm.orchestrator_crashes.windows(2) {
            assert!(w[0].restart_at() < w[1].at, "crashes must not overlap");
        }
    }
}
