//! Cost-aware N-way routing across the facility fleet.
//!
//! The router replaces the original one-shot NERSC↔ALCF failover: every
//! branch has a *home* facility, and when the home (or the current
//! execution site) fails, the router scores all admissible facilities by
//! `queue wait × estimated transfer time` and retargets the branch —
//! possibly more than once, so a branch degrades NERSC → ALCF → OLCF as
//! outages roll across the fleet.
//!
//! Admissibility is strict: a facility is only a candidate while its
//! circuit breaker is **Closed** and its heartbeat is fresh. Half-open
//! breakers are re-admitted through a dedicated probe job (see
//! [`Router::maybe_probe`]), never by risking a full campaign branch.
//! Re-routing history is epoch-guarded: a branch may return to a
//! facility it abandoned only after that facility has *recovered* (its
//! breaker closed again), which kills A→B→A ping-pong within one
//! health epoch while still allowing genuine fail-back.

use crate::Facility;
use als_hpc::{BreakerConfig, BreakerState, CircuitBreaker};
use als_orchestrator::RetryPolicy;
use als_simcore::{SimDuration, SimInstant};
use als_telemetry::{Counter, Histogram, Registry};
use std::collections::BTreeMap;

/// Routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterMode {
    /// Legacy behaviour: a branch may fail over exactly once, to the
    /// "other" facility, gated only by `allow_request` (half-open
    /// breakers admit a full branch as the probe).
    OneShot,
    /// Score all healthy facilities and re-route as often as the hop
    /// budget allows; half-open facilities re-admit via probe jobs.
    CostAware,
}

#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    pub mode: RouterMode,
    /// Maximum facilities a single branch may try (including its home).
    pub max_hops: usize,
    /// Per-facility breaker settings.
    pub breaker: BreakerConfig,
    /// Backoff schedule for repeated half-open probes of one facility.
    pub probe_retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            mode: RouterMode::CostAware,
            max_hops: 4,
            breaker: BreakerConfig::default(),
            probe_retry: RetryPolicy {
                max_attempts: 6,
                base_delay: SimDuration::from_secs(60),
                backoff: 2.0,
                jitter: 0.25,
            },
        }
    }
}

/// The router's per-candidate scoring input, assembled by the caller
/// from [`crate::FacilityController::health`] and the transfer service's
/// link-capacity estimate.
#[derive(Debug, Clone, Copy)]
pub struct CandidateView {
    pub facility: Facility,
    /// Personality-weighted queue-wait estimate, seconds.
    pub est_wait_s: f64,
    /// Estimated time to move the scan to this site, seconds
    /// (`f64::INFINITY` when unroutable).
    pub est_transfer_s: f64,
    /// True when the facility's heartbeat has gone stale.
    pub heartbeat_stale: bool,
}

impl CandidateView {
    /// The routing cost: queue pressure × data-movement pressure. Both
    /// terms are `1 +` so a zero on either axis cannot mask the other.
    pub fn cost(&self) -> f64 {
        (1.0 + self.est_wait_s.max(0.0)) * (1.0 + self.est_transfer_s.max(0.0))
    }
}

/// An entry in the router's audit log, recorded at every selection. The
/// breaker state and staleness are captured *at selection time* so
/// invariants ("never routed to an open or stale facility") are
/// checkable after the fact.
#[derive(Debug, Clone, Copy)]
pub struct RouteDecision {
    pub at: SimInstant,
    pub home: Facility,
    pub chosen: Facility,
    pub breaker_state: BreakerState,
    pub heartbeat_stale: bool,
    /// How many facilities the branch had already abandoned.
    pub hop: usize,
}

impl RouteDecision {
    /// Render the decision as a span-note value, so the audit log entry
    /// travels with the scan's trace (`key = "router"`).
    pub fn note_value(&self) -> String {
        format!(
            "home={} chosen={} breaker={:?} heartbeat_stale={} hop={}",
            self.home.name(),
            self.chosen.name(),
            self.breaker_state,
            self.heartbeat_stale,
            self.hop
        )
    }
}

/// Interned registry handles for the routing hot path.
#[derive(Debug, Clone)]
struct RouterMetrics {
    decisions: Counter,
    redirects: Counter,
    no_route: Counter,
    hops: Histogram,
    /// Selections per chosen facility, keyed by `Facility::key()`.
    chosen: [Counter; 3],
    /// Candidates rejected as inadmissible per facility (open breaker,
    /// stale heartbeat, unroutable, or epoch-blocked).
    inadmissible: [Counter; 3],
}

#[derive(Debug)]
struct FacEntry {
    breaker: CircuitBreaker,
    /// Bumped every time the breaker transitions back to Closed; the
    /// branch redirect history stores `(facility, recoveries)` pairs, so
    /// "already tried there" expires when the facility recovers.
    recoveries: u32,
    probe_attempts: u32,
    probe_inflight: bool,
    /// Earliest time the next probe may be issued (backoff pacing).
    next_probe_at: Option<SimInstant>,
}

/// Routing + breaker + probe state for the whole fleet.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    facs: BTreeMap<Facility, FacEntry>,
    decisions: Vec<RouteDecision>,
    metrics: Option<RouterMetrics>,
}

impl Router {
    pub fn new(cfg: RouterConfig, enabled: &[Facility]) -> Self {
        let facs = enabled
            .iter()
            .map(|&f| {
                (
                    f,
                    FacEntry {
                        breaker: CircuitBreaker::new(cfg.breaker),
                        recoveries: 0,
                        probe_attempts: 0,
                        probe_inflight: false,
                        next_probe_at: None,
                    },
                )
            })
            .collect();
        Router {
            cfg,
            facs,
            decisions: Vec::new(),
            metrics: None,
        }
    }

    /// Attach registry handles: decision/redirect/no-route counters, the
    /// hop-depth histogram, and per-facility chosen/inadmissible
    /// counters. Pre-attach decisions back-fill the audit counters.
    pub fn instrument(&mut self, registry: &Registry) {
        let fac = |name: &str, f: Facility| registry.counter(name, &[("facility", f.name())]);
        let m = RouterMetrics {
            decisions: registry.counter("router_decisions_total", &[]),
            redirects: registry.counter("router_redirects_total", &[]),
            no_route: registry.counter("router_no_route_total", &[]),
            hops: registry.histogram("router_hops", &[]),
            chosen: Facility::ALL.map(|f| fac("router_chosen_total", f)),
            inadmissible: Facility::ALL.map(|f| fac("router_inadmissible_total", f)),
        };
        for d in &self.decisions {
            m.decisions.inc();
            m.hops.record(d.hop as u64);
            if d.hop > 0 {
                m.redirects.inc();
            }
            m.chosen[d.chosen.key() as usize].inc();
        }
        self.metrics = Some(m);
    }

    fn note_inadmissible(&self, f: Facility) {
        if let Some(m) = &self.metrics {
            m.inadmissible[f.key() as usize].inc();
        }
    }

    pub fn mode(&self) -> RouterMode {
        self.cfg.mode
    }

    pub fn max_hops(&self) -> usize {
        self.cfg.max_hops
    }

    pub fn is_enabled(&self, f: Facility) -> bool {
        self.facs.contains_key(&f)
    }

    pub fn enabled_facilities(&self) -> Vec<Facility> {
        self.facs.keys().copied().collect()
    }

    /// The facility's breaker (panics on a facility the router does not
    /// manage — enable it at construction).
    pub fn breaker(&self, f: Facility) -> &CircuitBreaker {
        &self.facs[&f].breaker
    }

    /// How many times this facility's breaker has re-closed.
    pub fn recoveries(&self, f: Facility) -> u32 {
        self.facs[&f].recoveries
    }

    pub fn probe_inflight(&self, f: Facility) -> bool {
        self.facs[&f].probe_inflight
    }

    /// Record an operational success at `f`; a non-Closed breaker
    /// closing counts as a recovery (advances the re-route epoch).
    pub fn record_success(&mut self, f: Facility) {
        if let Some(e) = self.facs.get_mut(&f) {
            let was = e.breaker.state();
            e.breaker.record_success();
            if was != BreakerState::Closed {
                e.recoveries += 1;
            }
            e.probe_attempts = 0;
            e.next_probe_at = None;
        }
    }

    pub fn record_failure(&mut self, f: Facility, now: SimInstant) {
        if let Some(e) = self.facs.get_mut(&f) {
            e.breaker.record_failure(now);
        }
    }

    /// Trip the breaker (stale heartbeat). Returns `true` when this call
    /// transitioned it into Open (callers sweep stranded work once per
    /// transition, not once per health tick).
    pub fn force_open(&mut self, f: Facility, now: SimInstant) -> bool {
        match self.facs.get_mut(&f) {
            Some(e) => {
                let was_open = e.breaker.state() == BreakerState::Open;
                e.breaker.force_open(now);
                !was_open
            }
            None => false,
        }
    }

    /// Every routing decision ever made, in order.
    pub fn decisions(&self) -> &[RouteDecision] {
        &self.decisions
    }

    /// Pick an execution site for a branch.
    ///
    /// `visited` is the branch's redirect history as `(facility,
    /// recoveries-at-abandonment)` pairs; `candidates` must carry a view
    /// for every facility the caller wants considered (including the
    /// home). Returns `None` when no facility is admissible — the branch
    /// fails rather than being routed somewhere unhealthy.
    pub fn select(
        &mut self,
        home: Facility,
        visited: &[(Facility, u32)],
        candidates: &[CandidateView],
        now: SimInstant,
    ) -> Option<Facility> {
        for e in self.facs.values_mut() {
            e.breaker.tick(now);
        }
        let hop = visited.len();
        let chosen = match self.cfg.mode {
            RouterMode::OneShot => self.select_one_shot(home, hop, candidates, now),
            RouterMode::CostAware => self.select_cost_aware(home, visited, candidates),
        };
        let Some(chosen) = chosen else {
            if let Some(m) = &self.metrics {
                m.no_route.inc();
            }
            return None;
        };
        if let Some(m) = &self.metrics {
            m.decisions.inc();
            m.hops.record(hop as u64);
            if hop > 0 {
                m.redirects.inc();
            }
            m.chosen[chosen.key() as usize].inc();
        }
        let view = candidates
            .iter()
            .find(|c| c.facility == chosen)
            .copied()
            .unwrap_or(CandidateView {
                facility: chosen,
                est_wait_s: 0.0,
                est_transfer_s: 0.0,
                heartbeat_stale: false,
            });
        self.decisions.push(RouteDecision {
            at: now,
            home,
            chosen,
            breaker_state: self.facs[&chosen].breaker.state(),
            heartbeat_stale: view.heartbeat_stale,
            hop,
        });
        Some(chosen)
    }

    fn select_one_shot(
        &mut self,
        home: Facility,
        hop: usize,
        candidates: &[CandidateView],
        now: SimInstant,
    ) -> Option<Facility> {
        // legacy semantics: one redirect ever, gated by allow_request
        // (which admits one trial request through a half-open breaker)
        if hop >= 2 {
            return None;
        }
        if hop == 0 {
            if let Some(e) = self.facs.get_mut(&home) {
                if e.breaker.allow_request(now) {
                    return Some(home);
                }
            }
        }
        candidates
            .iter()
            .filter(|c| c.facility != home)
            .find(|c| {
                self.facs
                    .get_mut(&c.facility)
                    .is_some_and(|e| e.breaker.allow_request(now))
            })
            .map(|c| c.facility)
    }

    fn select_cost_aware(
        &mut self,
        home: Facility,
        visited: &[(Facility, u32)],
        candidates: &[CandidateView],
    ) -> Option<Facility> {
        if visited.len() >= self.cfg.max_hops {
            return None;
        }
        let admissible = |router: &Self, c: &CandidateView| {
            let Some(e) = router.facs.get(&c.facility) else {
                return false;
            };
            e.breaker.state() == BreakerState::Closed
                && !c.heartbeat_stale
                && c.est_transfer_s.is_finite()
                && !visited.contains(&(c.facility, e.recoveries))
        };
        // the home site wins outright while healthy: no data movement
        // beyond the normal ingest path, no provenance churn
        if let Some(c) = candidates.iter().find(|c| c.facility == home) {
            if admissible(self, c) {
                return Some(home);
            }
            self.note_inadmissible(home);
        }
        let mut best: Option<(f64, Facility)> = None;
        for c in candidates.iter().filter(|c| c.facility != home) {
            if !admissible(self, c) {
                self.note_inadmissible(c.facility);
                continue;
            }
            let cost = c.cost();
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, c.facility));
            }
        }
        best.map(|(_, f)| f)
    }

    /// Should the caller launch a health-probe job at `f` now? True at
    /// most once per half-open window: the breaker's single trial slot
    /// is consumed by the probe, so campaign branches stay excluded
    /// until the probe succeeds.
    pub fn maybe_probe(&mut self, f: Facility, now: SimInstant, heartbeat_fresh: bool) -> bool {
        if self.cfg.mode == RouterMode::OneShot {
            return false;
        }
        let Some(e) = self.facs.get_mut(&f) else {
            return false;
        };
        e.breaker.tick(now);
        if e.probe_inflight || !heartbeat_fresh || e.breaker.state() != BreakerState::HalfOpen {
            return false;
        }
        if e.next_probe_at.is_some_and(|t| now < t) {
            return false;
        }
        if e.breaker.allow_request(now) {
            e.probe_inflight = true;
            true
        } else {
            false
        }
    }

    /// Resolve an outstanding probe. Success closes the breaker (and
    /// advances the recovery epoch); failure re-trips it and paces the
    /// next probe with jittered backoff so a flapping facility is not
    /// hammered.
    pub fn probe_resolved(&mut self, f: Facility, ok: bool, now: SimInstant, seed: u64) {
        if ok {
            if let Some(e) = self.facs.get_mut(&f) {
                e.probe_inflight = false;
            }
            self.record_success(f);
            return;
        }
        let cooldown = self.cfg.breaker.cooldown;
        if let Some(e) = self.facs.get_mut(&f) {
            e.probe_inflight = false;
            e.probe_attempts += 1;
            e.breaker.record_failure(now);
            let deadline = now + cooldown * 4;
            match self.cfg.probe_retry.delay_before_deadline(
                e.probe_attempts,
                seed ^ (f.key() as u64),
                now,
                deadline,
            ) {
                Some(d) => e.next_probe_at = Some(now + d),
                // schedule exhausted: reset so probing resumes on the
                // next half-open window rather than never
                None => {
                    e.probe_attempts = 0;
                    e.next_probe_at = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(f: Facility, wait: f64, xfer: f64) -> CandidateView {
        CandidateView {
            facility: f,
            est_wait_s: wait,
            est_transfer_s: xfer,
            heartbeat_stale: false,
        }
    }

    fn small_cfg(mode: RouterMode) -> RouterConfig {
        RouterConfig {
            mode,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: SimDuration::from_secs(600),
            },
            ..RouterConfig::default()
        }
    }

    fn trip(r: &mut Router, f: Facility, now: SimInstant) {
        for _ in 0..3 {
            r.record_failure(f, now);
        }
        assert_eq!(r.breaker(f).state(), BreakerState::Open);
    }

    #[test]
    fn healthy_home_always_wins() {
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let cands = [
            view(Facility::Nersc, 5000.0, 10.0),
            view(Facility::Alcf, 60.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        // even with a deep queue, a healthy home is not abandoned
        assert_eq!(
            r.select(Facility::Nersc, &[], &cands, SimInstant::ZERO),
            Some(Facility::Nersc)
        );
    }

    #[test]
    fn cost_picks_cheapest_healthy_alternative() {
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let now = SimInstant::ZERO;
        trip(&mut r, Facility::Nersc, now);
        let cands = [
            view(Facility::Nersc, 60.0, 10.0),
            view(Facility::Alcf, 60.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            Some(Facility::Alcf)
        );
        // flip the economics: ALCF backed up far past OLCF's batch hold
        let cands = [
            view(Facility::Nersc, 60.0, 10.0),
            view(Facility::Alcf, 4000.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            Some(Facility::Olcf)
        );
    }

    #[test]
    fn never_selects_open_stale_or_unroutable_facilities() {
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let now = SimInstant::ZERO;
        trip(&mut r, Facility::Nersc, now);
        trip(&mut r, Facility::Alcf, now);
        let mut olcf = view(Facility::Olcf, 900.0, 33.0);
        olcf.heartbeat_stale = true;
        let cands = [
            view(Facility::Nersc, 0.0, 0.0),
            view(Facility::Alcf, 0.0, 0.0),
            olcf,
        ];
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            None
        );
        // fresh heartbeat but unreachable over the network: still out
        let mut olcf = view(Facility::Olcf, 900.0, f64::INFINITY);
        olcf.heartbeat_stale = false;
        let cands = [
            view(Facility::Nersc, 0.0, 0.0),
            view(Facility::Alcf, 0.0, 0.0),
            olcf,
        ];
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            None
        );
        for d in r.decisions() {
            assert_eq!(d.breaker_state, BreakerState::Closed);
            assert!(!d.heartbeat_stale);
        }
    }

    #[test]
    fn ping_pong_is_blocked_within_an_epoch_but_failback_works() {
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let now = SimInstant::ZERO;
        let cands = [
            view(Facility::Nersc, 60.0, 10.0),
            view(Facility::Alcf, 60.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        // branch abandoned NERSC (epoch 0) and then ALCF (epoch 0):
        // NERSC's breaker may have closed again via transient successes,
        // but within the same recovery epoch the branch must not bounce
        // back — it should degrade to OLCF instead.
        let visited = [(Facility::Nersc, 0), (Facility::Alcf, 0)];
        assert_eq!(
            r.select(Facility::Nersc, &visited, &cands, now),
            Some(Facility::Olcf)
        );
        // a real recovery advances the epoch and re-admits the facility
        trip(&mut r, Facility::Nersc, now);
        let later = now + SimDuration::from_secs(601);
        assert!(r.maybe_probe(Facility::Nersc, later, true));
        r.probe_resolved(Facility::Nersc, true, later, 7);
        assert_eq!(r.recoveries(Facility::Nersc), 1);
        assert_eq!(
            r.select(Facility::Nersc, &visited, &cands, later),
            Some(Facility::Nersc)
        );
    }

    #[test]
    fn hop_budget_bounds_rerouting() {
        let cfg = RouterConfig {
            max_hops: 2,
            ..small_cfg(RouterMode::CostAware)
        };
        let mut r = Router::new(cfg, &Facility::ALL);
        let cands = [
            view(Facility::Nersc, 0.0, 0.0),
            view(Facility::Alcf, 0.0, 0.0),
            view(Facility::Olcf, 0.0, 0.0),
        ];
        let visited = [(Facility::Nersc, 0), (Facility::Alcf, 0)];
        assert_eq!(
            r.select(Facility::Nersc, &visited, &cands, SimInstant::ZERO),
            None
        );
    }

    #[test]
    fn flap_sequence_readmits_via_single_probe_not_a_branch() {
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let t0 = SimInstant::ZERO;
        let cands = [
            view(Facility::Nersc, 60.0, 10.0),
            view(Facility::Alcf, 60.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        trip(&mut r, Facility::Nersc, t0);
        // open: branches route elsewhere, no probe yet
        assert!(!r.maybe_probe(Facility::Nersc, t0 + SimDuration::from_secs(30), true));
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, t0),
            Some(Facility::Alcf)
        );
        // cooldown elapses → half-open. Campaign branches are STILL
        // excluded; only a probe may pass, and only one.
        let t1 = t0 + SimDuration::from_secs(601);
        // a stale heartbeat blocks probing even once half-open
        assert!(!r.maybe_probe(Facility::Nersc, t1, false));
        assert_eq!(r.breaker(Facility::Nersc).state(), BreakerState::HalfOpen);
        assert_eq!(
            r.select(Facility::Alcf, &[], &cands, t1),
            Some(Facility::Alcf),
            "half-open NERSC must not attract traffic"
        );
        assert!(r.maybe_probe(Facility::Nersc, t1, true));
        assert!(
            !r.maybe_probe(Facility::Nersc, t1, true),
            "one probe per window"
        );
        // the facility flaps: probe fails, breaker re-trips
        r.probe_resolved(Facility::Nersc, false, t1, 42);
        assert_eq!(r.breaker(Facility::Nersc).state(), BreakerState::Open);
        assert_eq!(r.recoveries(Facility::Nersc), 0);
        // next window: probe succeeds → closed, epoch advances, and the
        // fleet routes home again
        let t2 = t1 + SimDuration::from_secs(601);
        assert!(r.maybe_probe(Facility::Nersc, t2, true));
        r.probe_resolved(Facility::Nersc, true, t2, 42);
        assert_eq!(r.breaker(Facility::Nersc).state(), BreakerState::Closed);
        assert_eq!(r.recoveries(Facility::Nersc), 1);
        assert_eq!(
            r.select(Facility::Nersc, &[], &cands, t2),
            Some(Facility::Nersc)
        );
    }

    #[test]
    fn router_metrics_count_decisions_redirects_and_rejections() {
        let registry = als_telemetry::Registry::new();
        let mut r = Router::new(small_cfg(RouterMode::CostAware), &Facility::ALL);
        let now = SimInstant::ZERO;
        let cands = [
            view(Facility::Nersc, 60.0, 10.0),
            view(Facility::Alcf, 60.0, 30.0),
            view(Facility::Olcf, 900.0, 33.0),
        ];
        // one pre-attach decision back-fills the counters
        assert_eq!(
            r.select(Facility::Nersc, &[], &cands, now),
            Some(Facility::Nersc)
        );
        r.instrument(&registry);
        // redirect: NERSC down, branch hops to ALCF
        trip(&mut r, Facility::Nersc, now);
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            Some(Facility::Alcf)
        );
        // every facility down or visited: no route
        trip(&mut r, Facility::Alcf, now);
        trip(&mut r, Facility::Olcf, now);
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            None
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["router_decisions_total"], 2);
        assert_eq!(snap.counters["router_redirects_total"], 1);
        assert_eq!(snap.counters["router_no_route_total"], 1);
        assert_eq!(snap.counters["router_chosen_total{facility=\"nersc\"}"], 1);
        assert_eq!(snap.counters["router_chosen_total{facility=\"alcf\"}"], 1);
        assert!(snap.counters["router_inadmissible_total{facility=\"nersc\"}"] >= 1);
        assert_eq!(snap.histograms["router_hops"].count, 2);
        assert_eq!(snap.histograms["router_hops"].max, Some(1));
        // the audit entry renders as a span note
        let d = r.decisions().last().unwrap();
        assert!(d.note_value().contains("chosen=alcf"));
        assert!(d.note_value().contains("hop=1"));
    }

    #[test]
    fn one_shot_mode_reproduces_legacy_failover() {
        let mut r = Router::new(
            small_cfg(RouterMode::OneShot),
            &[Facility::Nersc, Facility::Alcf],
        );
        let now = SimInstant::ZERO;
        let cands = [
            view(Facility::Nersc, 0.0, 0.0),
            view(Facility::Alcf, 0.0, 0.0),
        ];
        assert_eq!(
            r.select(Facility::Nersc, &[], &cands, now),
            Some(Facility::Nersc)
        );
        trip(&mut r, Facility::Nersc, now);
        // first failure redirects to the other facility...
        assert_eq!(
            r.select(Facility::Nersc, &[(Facility::Nersc, 0)], &cands, now),
            Some(Facility::Alcf)
        );
        // ...but a second redirect is never granted, even with a healthy
        // target available (the legacy single-failover contract)
        assert_eq!(
            r.select(
                Facility::Nersc,
                &[(Facility::Nersc, 0), (Facility::Alcf, 0)],
                &cands,
                now
            ),
            None
        );
        // and one-shot mode never runs probe jobs
        let t1 = now + SimDuration::from_secs(601);
        assert!(!r.maybe_probe(Facility::Nersc, t1, true));
    }
}
