//! # als-netsim
//!
//! Deterministic network substrate for the multi-facility simulation: the
//! ESnet paths between the ALS beamline, NERSC, and ALCF.
//!
//! The model is intentionally simple and analyzable: named [`Link`]s with a
//! capacity and propagation latency, multi-hop [`Route`]s, and a
//! [`NetworkSim`] that advances concurrent flows under **equal-share**
//! bandwidth allocation (each link divides its capacity evenly among the
//! flows crossing it; a flow gets the minimum share along its route). That
//! is enough to reproduce what the paper's experiments depend on: transfer
//! time ∝ size, contention between concurrent scans, and the 10 Gbps
//! beamline NIC acting as the bottleneck ahead of the 100 Gbps WAN.

pub mod topology;

pub use topology::{esnet_topology, esnet_topology_with_nics, SiteId, Topology};

use als_simcore::{ByteSize, DataRate, SimDuration, SimInstant};
use std::collections::BTreeMap;

/// A unidirectional link with fixed capacity and propagation latency.
#[derive(Debug, Clone)]
pub struct Link {
    pub name: String,
    pub capacity: DataRate,
    pub latency: SimDuration,
}

/// Index of a link within a [`NetworkSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// A path through the network: an ordered list of links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    pub links: Vec<LinkId>,
}

impl Route {
    pub fn new(links: Vec<LinkId>) -> Self {
        Route { links }
    }
}

/// Handle to an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    route: Route,
    remaining: f64,
    last_update: SimInstant,
    /// Propagation latency still to pay before bytes start moving.
    latency_left: SimDuration,
    total: ByteSize,
    started: SimInstant,
}

/// Deterministic flow-level network simulation.
///
/// Usage pattern from a DES driver:
/// 1. [`NetworkSim::start_flow`] when a transfer begins;
/// 2. [`NetworkSim::next_completion`] to learn which flow finishes next and
///    when — schedule that as a DES event;
/// 3. on that event, call [`NetworkSim::complete`] (which re-balances the
///    remaining flows and may change subsequent completion times).
#[derive(Debug, Default)]
pub struct NetworkSim {
    links: Vec<Link>,
    /// Per-link capacity multiplier in [0, 1] (fault injection: a value
    /// below 1 models an ESnet brownout on that link).
    factors: Vec<f64>,
    flows: BTreeMap<FlowId, Flow>,
    next_id: u64,
}

impl NetworkSim {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a link, returning its id.
    pub fn add_link(&mut self, name: &str, capacity: DataRate, latency: SimDuration) -> LinkId {
        self.links.push(Link {
            name: name.to_string(),
            capacity,
            latency,
        });
        self.factors.push(1.0);
        LinkId(self.links.len() - 1)
    }

    /// Fault injection: scale a link's capacity by `factor` from `now` on.
    /// In-flight traffic is settled at the old rate first, so the change
    /// is exact in time. A factor of 0 stalls flows on the link
    /// indefinitely (they resume when capacity is restored).
    pub fn set_capacity_factor(&mut self, id: LinkId, factor: f64, now: SimInstant) {
        assert!(id.0 < self.links.len(), "unknown link {id:?}");
        self.settle(now);
        self.factors[id.0] = factor.clamp(0.0, 1.0);
    }

    /// Current capacity multiplier on a link.
    pub fn capacity_factor(&self, id: LinkId) -> f64 {
        self.factors[id.0]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Total propagation latency along a route.
    pub fn route_latency(&self, route: &Route) -> SimDuration {
        route
            .links
            .iter()
            .fold(SimDuration::ZERO, |acc, &l| acc + self.links[l.0].latency)
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Begin a transfer of `size` along `route` at simulated time `now`.
    ///
    /// # Panics
    /// Panics if the route is empty or references unknown links.
    pub fn start_flow(&mut self, route: Route, size: ByteSize, now: SimInstant) -> FlowId {
        assert!(!route.links.is_empty(), "route must have at least one link");
        for l in &route.links {
            assert!(l.0 < self.links.len(), "unknown link {l:?}");
        }
        self.settle(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let latency = self.route_latency(&route);
        self.flows.insert(
            id,
            Flow {
                route,
                remaining: size.as_bytes() as f64,
                last_update: now,
                latency_left: latency,
                total: size,
                started: now,
            },
        );
        id
    }

    /// Equal-share rate currently allocated to `flow`.
    pub fn flow_rate(&self, id: FlowId) -> Option<DataRate> {
        let flow = self.flows.get(&id)?;
        Some(self.rate_of(&flow.route))
    }

    fn rate_of(&self, route: &Route) -> DataRate {
        // count flows per link
        let mut rate = f64::INFINITY;
        for &l in &route.links {
            let users = self
                .flows
                .values()
                .filter(|f| f.route.links.contains(&l))
                .count()
                .max(1);
            let share =
                self.links[l.0].capacity.as_bytes_per_sec() * self.factors[l.0] / users as f64;
            rate = rate.min(share);
        }
        if rate.is_finite() {
            DataRate::from_bytes_per_sec(rate)
        } else {
            DataRate::ZERO
        }
    }

    /// Advance every flow's byte counter to `now` under the current
    /// allocation. Must be called (internally) before any membership
    /// change.
    fn settle(&mut self, now: SimInstant) {
        let rates: Vec<(FlowId, f64)> = self
            .flows
            .iter()
            .map(|(&id, f)| (id, self.rate_of(&f.route).as_bytes_per_sec()))
            .collect();
        for (id, rate) in rates {
            let f = self.flows.get_mut(&id).expect("flow exists");
            let mut dt = now.duration_since(f.last_update);
            f.last_update = now;
            if !f.latency_left.is_zero() {
                let pay = f.latency_left.min(dt);
                f.latency_left -= pay;
                dt -= pay;
            }
            f.remaining = (f.remaining - rate * dt.as_secs_f64()).max(0.0);
        }
    }

    /// The flow that will finish first under the current allocation, and
    /// its completion time. `now` must be ≥ every flow's `last_update`.
    pub fn next_completion(&mut self, now: SimInstant) -> Option<(FlowId, SimInstant)> {
        self.settle(now);
        let mut best: Option<(FlowId, SimInstant)> = None;
        for (&id, f) in &self.flows {
            let rate = self.rate_of(&f.route).as_bytes_per_sec();
            let t = if f.remaining <= 0.0 {
                now + f.latency_left
            } else if rate <= 0.0 {
                continue; // stalled flow never completes
            } else {
                now + f.latency_left + SimDuration::from_secs_f64(f.remaining / rate)
            };
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((id, t));
            }
        }
        best
    }

    /// Mark `id` complete at time `now`, removing it and returning its
    /// total duration. Returns `None` for an unknown flow.
    pub fn complete(&mut self, id: FlowId, now: SimInstant) -> Option<SimDuration> {
        self.settle(now);
        let f = self.flows.remove(&id)?;
        Some(now.duration_since(f.started))
    }

    /// Abort a flow (e.g. transfer cancelled), returning the bytes that
    /// had been moved.
    pub fn abort(&mut self, id: FlowId, now: SimInstant) -> Option<ByteSize> {
        self.settle(now);
        let f = self.flows.remove(&id)?;
        Some(
            f.total
                .saturating_sub(ByteSize::from_bytes(f.remaining as u64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(g: f64) -> DataRate {
        DataRate::from_gbit_per_sec(g)
    }

    fn sim_one_link() -> (NetworkSim, LinkId) {
        let mut net = NetworkSim::new();
        let l = net.add_link("nic", gbps(10.0), SimDuration::from_millis(1));
        (net, l)
    }

    #[test]
    fn single_flow_completion_time_matches_formula() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let id = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(20), t0);
        let (fid, t) = net.next_completion(t0).unwrap();
        assert_eq!(fid, id);
        // 20 GiB / 1.25 GB/s = 17.18 s + 1 ms latency
        assert!(
            (t.as_secs_f64() - 17.181).abs() < 0.01,
            "{}",
            t.as_secs_f64()
        );
    }

    #[test]
    fn two_flows_share_the_link_fairly() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let a = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(10), t0);
        let _b = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(10), t0);
        let ra = net.flow_rate(a).unwrap();
        assert!((ra.as_gbit_per_sec() - 5.0).abs() < 1e-9);
        // both finish around 2x the solo time
        let (_, t) = net.next_completion(t0).unwrap();
        assert!(
            (t.as_secs_f64() - 17.18).abs() < 0.05,
            "{}",
            t.as_secs_f64()
        );
    }

    #[test]
    fn completion_rebalances_remaining_flows() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let a = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(1), t0);
        let b = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(10), t0);
        let (first, t1) = net.next_completion(t0).unwrap();
        assert_eq!(first, a, "small flow finishes first");
        net.complete(a, t1);
        // b now gets the full 10 Gbps
        let rb = net.flow_rate(b).unwrap();
        assert!((rb.as_gbit_per_sec() - 10.0).abs() < 1e-9);
        let (fb, t2) = net.next_completion(t1).unwrap();
        assert_eq!(fb, b);
        // total bytes conserved: 11 GiB at varying rates
        // phase 1: 2 GiB moved total (1 each) in ~1.718s; phase 2: 9 GiB at full rate
        let expected = 1.0 * (1 << 30) as f64 / 0.625e9 + 9.0 * (1 << 30) as f64 / 1.25e9;
        assert!(
            (t2.as_secs_f64() - expected).abs() < 0.05,
            "{} vs {expected}",
            t2.as_secs_f64()
        );
    }

    #[test]
    fn bottleneck_is_the_slowest_link_share() {
        let mut net = NetworkSim::new();
        let nic = net.add_link("nic-10g", gbps(10.0), SimDuration::from_micros(100));
        let wan = net.add_link("esnet-100g", gbps(100.0), SimDuration::from_millis(12));
        let t0 = SimInstant::ZERO;
        let f = net.start_flow(Route::new(vec![nic, wan]), ByteSize::from_gib(20), t0);
        let r = net.flow_rate(f).unwrap();
        assert!(
            (r.as_gbit_per_sec() - 10.0).abs() < 1e-9,
            "NIC should cap the flow"
        );
        // latency accumulates across hops
        let lat = net.route_latency(&Route::new(vec![nic, wan]));
        assert_eq!(lat, SimDuration::from_micros(12_100));
    }

    #[test]
    fn cross_traffic_on_shared_hop_only() {
        let mut net = NetworkSim::new();
        let a_nic = net.add_link("a", gbps(10.0), SimDuration::ZERO);
        let b_nic = net.add_link("b", gbps(10.0), SimDuration::ZERO);
        let wan = net.add_link("wan", gbps(12.0), SimDuration::ZERO);
        let t0 = SimInstant::ZERO;
        let fa = net.start_flow(Route::new(vec![a_nic, wan]), ByteSize::from_gib(1), t0);
        let fb = net.start_flow(Route::new(vec![b_nic, wan]), ByteSize::from_gib(1), t0);
        // each can push 10 via its NIC but the shared WAN gives 6 each
        assert!((net.flow_rate(fa).unwrap().as_gbit_per_sec() - 6.0).abs() < 1e-9);
        assert!((net.flow_rate(fb).unwrap().as_gbit_per_sec() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn abort_reports_partial_progress() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let f = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(10), t0);
        let mid = t0 + SimDuration::from_secs(4);
        let moved = net.abort(f, mid).unwrap();
        // ~4s at 1.25 GB/s ≈ 4.65 GiB (minus 1ms latency)
        let gib = moved.as_gib_f64();
        assert!((4.5..4.8).contains(&gib), "moved {gib} GiB");
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn brownout_halves_the_rate_and_restoring_recovers_it() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let f = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(10), t0);
        assert!((net.flow_rate(f).unwrap().as_gbit_per_sec() - 10.0).abs() < 1e-9);
        let t1 = t0 + SimDuration::from_secs(2);
        net.set_capacity_factor(l, 0.5, t1);
        assert!((net.flow_rate(f).unwrap().as_gbit_per_sec() - 5.0).abs() < 1e-9);
        // settle at the degraded rate, then restore
        let t2 = t1 + SimDuration::from_secs(2);
        net.set_capacity_factor(l, 1.0, t2);
        assert!((net.flow_rate(f).unwrap().as_gbit_per_sec() - 10.0).abs() < 1e-9);
        // bytes conserved across the rate changes:
        // 2 s @ 1.25 GB/s + 2 s @ 0.625 GB/s moved, remainder at full rate
        let moved = 2.0 * 1.25e9 + 2.0 * 0.625e9;
        let left = 10.0 * (1u64 << 30) as f64 - moved;
        let expected = t2.as_secs_f64() + left / 1.25e9;
        let (fid, t) = net.next_completion(t2).unwrap();
        assert_eq!(fid, f);
        assert!(
            (t.as_secs_f64() - expected).abs() < 0.05,
            "{} vs {expected}",
            t.as_secs_f64()
        );
    }

    #[test]
    fn zero_factor_stalls_flows_until_restored() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let f = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(1), t0);
        net.set_capacity_factor(l, 0.0, t0);
        assert!(
            net.next_completion(t0).is_none(),
            "stalled flow never completes"
        );
        let t1 = t0 + SimDuration::from_secs(100);
        net.set_capacity_factor(l, 1.0, t1);
        let (fid, _) = net.next_completion(t1).unwrap();
        assert_eq!(fid, f);
    }

    #[test]
    fn empty_network_has_no_completions() {
        let mut net = NetworkSim::new();
        assert!(net.next_completion(SimInstant::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "route must have")]
    fn empty_route_panics() {
        let mut net = NetworkSim::new();
        net.start_flow(Route::new(vec![]), ByteSize::from_mib(1), SimInstant::ZERO);
    }

    #[test]
    fn staggered_start_conserves_bytes() {
        let (mut net, l) = sim_one_link();
        let t0 = SimInstant::ZERO;
        let a = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(5), t0);
        let t1 = t0 + SimDuration::from_secs(2);
        let b = net.start_flow(Route::new(vec![l]), ByteSize::from_gib(5), t1);
        // drain both and check the final completion time against hand calc:
        // phase1 (0-2s): a alone at 1.25 GB/s -> 2.5e9 bytes moved
        // then both share 0.625 GB/s until a finishes, etc.
        let mut now = t1;
        let mut done = Vec::new();
        while let Some((id, t)) = net.next_completion(now) {
            net.complete(id, t);
            done.push((id, t));
            now = t;
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, a);
        assert_eq!(done[1].0, b);
        let total_bytes = 10.0 * (1u64 << 30) as f64;
        // full utilization from 0 to b's completion minus latency slack
        let expected_end = total_bytes / 1.25e9 + 0.001 + 0.001;
        assert!(
            (done[1].1.as_secs_f64() - expected_end).abs() < 0.1,
            "{} vs {expected_end}",
            done[1].1.as_secs_f64()
        );
    }
}
