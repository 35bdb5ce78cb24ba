//! Routing experiment (R4): cost-aware N-way routing under *rolling*
//! multi-facility outages.
//!
//! R1 (`resilience`) replays the paper's §5.3 incident — one facility
//! down, one redirect. R4 stresses the part R1 cannot: outages that
//! roll across the fleet, so a branch's first refuge also dies and the
//! work must move again. The comparison is paired on the same scans and
//! the same fault schedule:
//!
//! * **cost-aware / 3 facilities** — NERSC + ALCF + OLCF behind the
//!   [`als_facility::Router`] in [`RouterMode::CostAware`]: admissible
//!   facilities scored by queue wait × transfer time, re-routing bounded
//!   by hop count, abandoned work cancelled remotely.
//! * **one-shot / 2 facilities** — the legacy NERSC↔ALCF pair in
//!   [`RouterMode::OneShot`]: a single redirect ever, so a branch whose
//!   refuge fails is dead.
//!
//! The metrics are campaign completion, flow-latency percentiles,
//! redirect/cancel counts, the deepest redirect chain, and duplicated
//! side effects (which must stay zero: re-routing must never repeat a
//! facility-side mutation).

use crate::faults::{FaultKind, FaultPlan, FaultWindow};
use crate::scan::ScanWorkload;
use crate::sim::{FacilitySim, SimConfig, FLOW_ALCF, FLOW_NERSC};
use als_facility::RouterMode;
use als_orchestrator::engine::FlowState;
use als_simcore::Summary;
use serde::Serialize;
use std::collections::BTreeMap;

/// Aggregated results of one fault-injected campaign arm.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutingOutcome {
    pub mode: &'static str,
    pub facilities: usize,
    pub scans: usize,
    /// Terminal recon-branch flow runs (NERSC + ALCF branches).
    pub branch_flows_total: usize,
    pub branch_flows_completed: usize,
    pub completion_rate: f64,
    /// Cross-facility redirects performed (a branch may count twice).
    pub failover_count: usize,
    /// Stranded ops cancelled remotely (deadline or stale-sweep).
    pub remote_cancels: usize,
    /// Deepest redirect chain any branch accumulated.
    pub max_route_hops: usize,
    /// Facility-side mutations performed more than once. Must be zero:
    /// every redirect abandons its claim before the work moves.
    pub duplicate_side_effects: usize,
    /// Completed-branch latency percentiles (s).
    pub p50_flow_s: Option<f64>,
    pub p95_flow_s: Option<f64>,
    /// How many completed branches each facility ultimately served.
    pub served_by: BTreeMap<String, usize>,
}

/// Paired arms over the same scans and fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutingComparison {
    pub cost_aware_3fac: RoutingOutcome,
    pub one_shot_2fac: RoutingOutcome,
}

/// The full R4 report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoutingReport {
    pub rolling: RoutingComparison,
}

/// The rolling outage schedule: OLCF browns out early (so the third
/// facility is not a free pass), then NERSC goes down mid-campaign and
/// stays down, then ALCF follows while NERSC is still out — for the
/// back half of the arrival window only OLCF is alive.
pub fn rolling_outage_plan() -> FaultPlan {
    let w = |s: u64, e: u64, kind: FaultKind| {
        FaultWindow::new(
            als_simcore::SimInstant::ZERO + als_simcore::SimDuration::from_secs(s),
            als_simcore::SimInstant::ZERO + als_simcore::SimDuration::from_secs(e),
            kind,
        )
    };
    FaultPlan::none()
        .with_window(w(300, 1500, FaultKind::OlcfOutage))
        .with_window(w(1800, 9000, FaultKind::NerscOutage))
        .with_window(w(5400, 9000, FaultKind::AlcfOutage))
}

/// Run one routing arm and return the drained simulator. Failover is
/// always on; the arms differ in router mode and fleet size.
pub fn run_routing_sim(
    n_scans: usize,
    seed: u64,
    olcf_enabled: bool,
    router_mode: RouterMode,
    plan: &FaultPlan,
) -> FacilitySim {
    let mut sim = FacilitySim::new(SimConfig {
        seed,
        faults: plan.clone(),
        failover_enabled: true,
        olcf_enabled,
        router_mode,
        ..Default::default()
    });
    let mut workload = ScanWorkload::production().with_cadence_secs(300.0);
    sim.schedule_campaign(&mut workload, n_scans);
    sim.run(None);
    sim
}

/// Aggregate a drained simulator into an outcome row.
pub fn routing_outcome_of(sim: &FacilitySim, scans: usize) -> RoutingOutcome {
    let engine = sim.engine();
    let q = engine.query();
    let mut total = 0usize;
    let mut completed = 0usize;
    let mut durations: Vec<f64> = Vec::new();
    let mut served_by: BTreeMap<String, usize> = BTreeMap::new();
    for flow in [FLOW_NERSC, FLOW_ALCF] {
        let home = if flow == FLOW_NERSC { "nersc" } else { "alcf" };
        for run in q.runs_of(flow) {
            if !run.state.is_terminal() {
                continue;
            }
            total += 1;
            if run.state == FlowState::Completed {
                completed += 1;
                if let Some(d) = run.duration() {
                    durations.push(d.as_secs_f64());
                }
                let site = run
                    .parameters
                    .get("failover")
                    .map(String::as_str)
                    .unwrap_or(home);
                *served_by.entry(site.to_string()).or_insert(0) += 1;
            }
        }
    }
    RoutingOutcome {
        mode: match sim.cfg.router_mode {
            RouterMode::CostAware => "cost_aware",
            RouterMode::OneShot => "one_shot",
        },
        facilities: sim.router.enabled_facilities().len(),
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
        max_route_hops: sim.max_route_hops(),
        duplicate_side_effects: sim.duplicate_side_effects,
        p50_flow_s: Summary::percentile(&durations, 50.0),
        p95_flow_s: Summary::percentile(&durations, 95.0),
        served_by,
    }
}

/// Same scans, same rolling outages: 3-facility cost-aware routing vs
/// the legacy 2-facility one-shot failover.
pub fn routing_comparison(n_scans: usize, seed: u64, plan: &FaultPlan) -> RoutingComparison {
    let three = run_routing_sim(n_scans, seed, true, RouterMode::CostAware, plan);
    let two = run_routing_sim(n_scans, seed, false, RouterMode::OneShot, plan);
    RoutingComparison {
        cost_aware_3fac: routing_outcome_of(&three, n_scans),
        one_shot_2fac: routing_outcome_of(&two, n_scans),
    }
}

/// The full R4 experiment.
pub fn routing_experiment(n_scans: usize, seed: u64) -> RoutingReport {
    RoutingReport {
        rolling: routing_comparison(n_scans, seed, &rolling_outage_plan()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_plan_covers_all_three_facilities() {
        let p = rolling_outage_plan();
        assert_eq!(p.windows.len(), 3);
        let kinds: Vec<FaultKind> = p.windows.iter().map(|w| w.kind).collect();
        assert!(kinds.contains(&FaultKind::OlcfOutage));
        assert!(kinds.contains(&FaultKind::NerscOutage));
        assert!(kinds.contains(&FaultKind::AlcfOutage));
    }

    #[test]
    fn three_way_cost_aware_survives_where_one_shot_does_not() {
        let cmp = routing_comparison(24, 5, &rolling_outage_plan());
        let three = &cmp.cost_aware_3fac;
        let two = &cmp.one_shot_2fac;
        assert_eq!(
            three.completion_rate, 1.0,
            "cost-aware 3-facility routing must finish the campaign: {three:?}"
        );
        assert!(
            two.completion_rate < 0.9,
            "the one-shot 2-facility router should lose >10% of branches \
             under a rolling outage: {two:?}"
        );
        // the double outage forces at least one branch through a second
        // redirect — the thing the one-shot router cannot do
        assert!(three.max_route_hops >= 2, "{three:?}");
        assert!(three.failover_count > two.failover_count);
        // the one-shot router leaves work stranded at dead facilities
        // until each op's deadline cancels it; the cost-aware router's
        // stale-sweep re-routes on the outage itself, so its redirects
        // ride the kill events instead of deadline cancels
        assert!(two.remote_cancels > 0, "{two:?}");
        // OLCF actually served work (it is not a paper fleet member)
        assert!(three.served_by.get("olcf").copied().unwrap_or(0) > 0);
        // re-routing never duplicated a facility-side mutation
        assert_eq!(three.duplicate_side_effects, 0);
        assert_eq!(two.duplicate_side_effects, 0);
        // latency is reported for the surviving arm
        assert!(three.p50_flow_s.is_some());
    }

    #[test]
    fn routing_comparison_is_deterministic() {
        let a = routing_comparison(10, 9, &rolling_outage_plan());
        let b = routing_comparison(10, 9, &rolling_outage_plan());
        assert_eq!(a, b);
    }
}
