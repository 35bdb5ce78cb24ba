//! Managed transfer tasks (Globus Transfer substitute).
//!
//! Tasks move bytes between registered endpoints over the [`als_netsim`]
//! topology. The service enforces a bounded number of concurrently active
//! tasks (extra submissions queue), optionally verifies checksums after
//! the bytes land, and retries failed verification. Endpoints can be
//! mis-permissioned, reproducing the production incident in §5.3: with
//! `fail_fast` off, a permission-denied task *hangs* in an active slot
//! until a long timeout, so a burst of bad tasks saturates the queue;
//! with `fail_fast` on it fails immediately and the queue keeps draining.

use als_netsim::{FlowId, SiteId, Topology};
use als_scidata::checksum::{crc32, Crc32};
use als_simcore::{ByteSize, DataRate, SimDuration, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a registered endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(pub u32);

/// Identifier of a transfer task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u64);

/// Why a task failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailReason {
    /// Destination (or source) endpoint denied access — the §5.3 incident.
    PermissionDenied,
    /// Post-transfer checksum verification failed after all retries.
    ChecksumMismatch,
    /// Task gave up after hanging for the full hang timeout.
    HangTimeout,
}

/// Task lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskStatus {
    /// Waiting for an active slot.
    Queued,
    /// Bytes in flight.
    Active,
    /// Stuck on a faulted endpoint, holding an active slot.
    Hung,
    Succeeded,
    Failed(FailReason),
    Cancelled,
}

impl TaskStatus {
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TaskStatus::Succeeded | TaskStatus::Failed(_) | TaskStatus::Cancelled
        )
    }
}

/// Per-task options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransferOptions {
    /// Verify checksums after the bytes arrive (the paper enables this).
    /// On mismatch the service re-transfers exactly once automatically —
    /// a second mismatch is a real integrity incident, surfaced as
    /// [`FailReason::ChecksumMismatch`] for the orchestrator to handle.
    pub verify_checksum: bool,
    /// Fail immediately on permission errors instead of hanging — the
    /// remediation the paper adopted after the incident.
    pub fail_fast: bool,
}

impl Default for TransferOptions {
    fn default() -> Self {
        TransferOptions {
            verify_checksum: true,
            fail_fast: true,
        }
    }
}

/// Automatic re-transfers on checksum mismatch: exactly one.
const MAX_RETRANSFERS: u32 = 1;

/// Events surfaced to the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferEvent {
    Started {
        task: TaskId,
        at: SimInstant,
    },
    Succeeded {
        task: TaskId,
        at: SimInstant,
    },
    Failed {
        task: TaskId,
        at: SimInstant,
        reason: FailReason,
    },
    Retrying {
        task: TaskId,
        at: SimInstant,
        attempt: u32,
    },
}

#[derive(Debug, Clone)]
struct Endpoint {
    site: SiteId,
    /// When false, tasks touching this endpoint hit PermissionDenied.
    permitted: bool,
    /// Fault injection: the next `corrupt_count` transfers through this
    /// endpoint deliver corrupted data (checksum mismatch).
    corrupt_count: u32,
}

#[derive(Debug)]
struct Task {
    src: EndpointId,
    dst: EndpointId,
    size: ByteSize,
    opts: TransferOptions,
    status: TaskStatus,
    submitted: SimInstant,
    finished: Option<SimInstant>,
    /// Re-transfers performed after a checksum mismatch.
    attempt: u32,
    flow: Option<FlowId>,
    /// When a hung task gives up.
    hang_deadline: Option<SimInstant>,
    /// When checksum verification completes (if in that phase).
    verify_done: Option<SimInstant>,
    /// CRC-32 of the source payload, computed at submission — the
    /// reference digest the destination must reproduce.
    src_digest: u32,
    /// Did the last delivery pass through a corrupting endpoint?
    delivered_corrupt: bool,
    /// Caller-supplied label (the real Globus API's `label` field). A
    /// restarted orchestrator lists labelled tasks to adopt submissions
    /// its torn journal never heard about.
    label: Option<String>,
}

/// Deterministic stand-in for the file's bytes: the simulation doesn't
/// move real payloads, so checksums are computed over this sample, which
/// is unique per (task, size) and reproducible on both ends.
fn payload_sample(id: TaskId, size: ByteSize) -> [u8; 16] {
    let mut s = [0u8; 16];
    s[..8].copy_from_slice(&id.0.to_le_bytes());
    s[8..].copy_from_slice(&size.as_bytes().to_le_bytes());
    s
}

/// The digest the destination endpoint reads back after a delivery —
/// corruption flips a bit, exactly what CRC-32 exists to catch.
fn delivered_digest(id: TaskId, size: ByteSize, corrupt: bool) -> u32 {
    let mut sample = payload_sample(id, size);
    if corrupt {
        sample[0] ^= 0x01;
    }
    let mut c = Crc32::new();
    c.update(&sample);
    c.finalize()
}

/// The transfer service.
pub struct TransferService {
    topo: Topology,
    endpoints: BTreeMap<EndpointId, Endpoint>,
    tasks: BTreeMap<TaskId, Task>,
    /// Non-terminal, non-queued tasks — the only ones that can produce
    /// events. Keeps per-event work independent of total task history.
    live: std::collections::BTreeSet<TaskId>,
    queue: VecDeque<TaskId>,
    active: usize,
    max_concurrent: usize,
    hang_timeout: SimDuration,
    next_ep: u32,
    next_task: u64,
    /// Checksum throughput on each end (MD5-class over parallel streams).
    checksum_rate: DataRate,
}

impl TransferService {
    /// Create over a network topology. `max_concurrent` mirrors Globus's
    /// per-user concurrent-task limit.
    pub fn new(topo: Topology, max_concurrent: usize) -> Self {
        assert!(max_concurrent > 0);
        TransferService {
            topo,
            endpoints: BTreeMap::new(),
            tasks: BTreeMap::new(),
            live: std::collections::BTreeSet::new(),
            queue: VecDeque::new(),
            active: 0,
            max_concurrent,
            hang_timeout: SimDuration::from_mins(30),
            next_ep: 0,
            next_task: 0,
            checksum_rate: DataRate::from_gbit_per_sec(16.0),
        }
    }

    /// Override the hang timeout (tests use shorter values).
    pub fn set_hang_timeout(&mut self, d: SimDuration) {
        self.hang_timeout = d;
    }

    /// Register an endpoint at a site.
    pub fn register_endpoint(&mut self, site: SiteId) -> EndpointId {
        let id = EndpointId(self.next_ep);
        self.next_ep += 1;
        self.endpoints.insert(
            id,
            Endpoint {
                site,
                permitted: true,
                corrupt_count: 0,
            },
        );
        id
    }

    /// Fault injection: grant/revoke permission on an endpoint.
    pub fn set_permitted(&mut self, ep: EndpointId, permitted: bool) {
        self.endpoints.get_mut(&ep).expect("endpoint").permitted = permitted;
    }

    /// Fault injection: corrupt the next `n` transfers through `ep`.
    pub fn corrupt_next(&mut self, ep: EndpointId, n: u32) {
        self.endpoints.get_mut(&ep).expect("endpoint").corrupt_count = n;
    }

    /// Fault injection: degrade (or restore) every ESnet WAN segment to
    /// `factor` × nominal capacity — a link brownout. In-flight flows are
    /// settled at the old rate up to `now`, then continue degraded.
    pub fn set_wan_capacity_factor(&mut self, factor: f64, now: SimInstant) {
        for link in self.topo.wan_link_ids() {
            self.topo.net.set_capacity_factor(link, factor, now);
        }
    }

    /// Estimated seconds to move `size` bytes from `src` to `dst` under
    /// the *current* link conditions: route latency + size over the
    /// bottleneck link's degraded capacity + the checksum read-back. The
    /// estimate ignores competing flows (a router cost input, not an
    /// oracle), so it stays cheap and side-effect free.
    pub fn estimate_transfer_seconds(&self, src: SiteId, dst: SiteId, size: ByteSize) -> f64 {
        if src == dst {
            return 0.0;
        }
        let Some(route) = self.topo.route(src, dst) else {
            return f64::INFINITY;
        };
        let mut bottleneck_bps = f64::INFINITY;
        for link in &route.links {
            let cap = self.topo.net.link(*link).capacity.as_gbit_per_sec()
                * 1e9
                * self.topo.net.capacity_factor(*link);
            bottleneck_bps = bottleneck_bps.min(cap);
        }
        if bottleneck_bps <= 0.0 {
            return f64::INFINITY;
        }
        let latency = self.topo.net.route_latency(&route).as_secs_f64();
        let wire = size.as_bytes() as f64 * 8.0 / bottleneck_bps;
        let verify = self
            .checksum_rate
            .transfer_time(size)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        latency + wire + verify
    }

    pub fn status(&self, task: TaskId) -> Option<TaskStatus> {
        self.tasks.get(&task).map(|t| t.status)
    }

    /// Wall time from submission to terminal state.
    pub fn task_duration(&self, task: TaskId) -> Option<SimDuration> {
        let t = self.tasks.get(&task)?;
        Some(t.finished?.duration_since(t.submitted))
    }

    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// All non-terminal tasks (queued, active, hung, or verifying) — the
    /// query a restarted orchestrator uses to re-attach in-flight work.
    pub fn live_tasks(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.queue.iter().copied().collect();
        ids.extend(self.live.iter().copied());
        ids.sort_unstable();
        ids
    }

    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Submit a transfer task.
    pub fn submit(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        size: ByteSize,
        opts: TransferOptions,
        now: SimInstant,
    ) -> TaskId {
        self.submit_labeled(src, dst, size, opts, now, None)
    }

    /// [`TransferService::submit`] with a caller-defined label attached
    /// to the task (mirroring the Globus API's `label` field). Labels
    /// survive at the facility across orchestrator crashes, so recovery
    /// can find submissions whose journal record was lost.
    pub fn submit_labeled(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        size: ByteSize,
        opts: TransferOptions,
        now: SimInstant,
        label: Option<String>,
    ) -> TaskId {
        assert!(self.endpoints.contains_key(&src), "unknown src endpoint");
        assert!(self.endpoints.contains_key(&dst), "unknown dst endpoint");
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.tasks.insert(
            id,
            Task {
                src,
                dst,
                size,
                opts,
                status: TaskStatus::Queued,
                submitted: now,
                finished: None,
                attempt: 0,
                flow: None,
                hang_deadline: None,
                verify_done: None,
                src_digest: crc32(&payload_sample(id, size)),
                delivered_corrupt: false,
                label,
            },
        );
        self.queue.push_back(id);
        id
    }

    /// Every labelled task in any state (the recovery sweep: compare
    /// against the journal's known handles to find orphans to adopt).
    pub fn tasks_labeled(&self) -> Vec<(TaskId, &str, TaskStatus)> {
        self.tasks
            .iter()
            .filter_map(|(&id, t)| t.label.as_deref().map(|l| (id, l, t.status)))
            .collect()
    }

    /// Cancel a task in any non-terminal state.
    pub fn cancel(&mut self, id: TaskId, now: SimInstant) {
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        match task.status {
            TaskStatus::Queued => {
                task.status = TaskStatus::Cancelled;
                task.finished = Some(now);
                self.queue.retain(|&q| q != id);
            }
            TaskStatus::Active | TaskStatus::Hung => {
                if let Some(flow) = task.flow.take() {
                    self.topo.net.abort(flow, now);
                }
                task.status = TaskStatus::Cancelled;
                task.finished = Some(now);
                self.active -= 1;
                self.live.remove(&id);
            }
            _ => {}
        }
    }

    /// Time of the next internal event (flow completion, verify finish,
    /// or hang expiry). The DES driver schedules a poll here.
    pub fn next_event_time(&mut self, now: SimInstant) -> Option<SimInstant> {
        let mut best: Option<SimInstant> = None;
        let mut consider = |t: SimInstant| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        if !self.queue.is_empty() && self.active < self.max_concurrent {
            consider(now);
        }
        if let Some((_, t)) = self.topo.net.next_completion(now) {
            consider(t);
        }
        for id in &self.live {
            let task = &self.tasks[id];
            if let Some(d) = task.hang_deadline {
                consider(d);
            }
            if let Some(v) = task.verify_done {
                consider(v);
            }
        }
        best
    }

    /// Advance to `now`, producing events in time order.
    pub fn advance_to(&mut self, now: SimInstant) -> Vec<TransferEvent> {
        let mut events = Vec::new();
        loop {
            // activate queued tasks while slots are free
            while self.active < self.max_concurrent {
                let Some(id) = self.queue.pop_front() else {
                    break;
                };
                events.extend(self.activate(id, self.activation_time(now)));
            }
            // find the earliest pending internal event at or before `now`
            let mut next: Option<(SimInstant, InternalEvent)> = None;
            let mut consider = |t: SimInstant, e: InternalEvent| {
                if next.is_none_or(|(bt, _)| t < bt) {
                    next = Some((t, e));
                }
            };
            if let Some((flow, t)) = self.topo.net.next_completion(now) {
                if t <= now {
                    if let Some(&id) = self
                        .live
                        .iter()
                        .find(|id| self.tasks[id].flow == Some(flow))
                    {
                        consider(t, InternalEvent::FlowDone(id, flow));
                    }
                }
            }
            for &id in &self.live {
                let task = &self.tasks[&id];
                if let Some(d) = task.hang_deadline {
                    if d <= now {
                        consider(d, InternalEvent::HangExpired(id));
                    }
                }
                if let Some(v) = task.verify_done {
                    if v <= now {
                        consider(v, InternalEvent::VerifyDone(id));
                    }
                }
            }
            let Some((t, ev)) = next else { break };
            match ev {
                InternalEvent::FlowDone(id, flow) => {
                    self.topo.net.complete(flow, t);
                    let corrupted = {
                        let task = self.tasks.get(&id).expect("task");
                        let dst = self.endpoints.get_mut(&task.dst).expect("ep");
                        if dst.corrupt_count > 0 {
                            dst.corrupt_count -= 1;
                            true
                        } else {
                            false
                        }
                    };
                    let task = self.tasks.get_mut(&id).expect("task");
                    task.flow = None;
                    if task.opts.verify_checksum {
                        // checksum both ends: payload read at checksum_rate
                        let verify = self
                            .checksum_rate
                            .transfer_time(task.size)
                            .expect("nonzero checksum rate");
                        task.verify_done = Some(t + verify);
                        // the verify step reads the delivered bytes back
                        task.delivered_corrupt = corrupted;
                    } else {
                        task.status = TaskStatus::Succeeded;
                        task.finished = Some(t);
                        self.active -= 1;
                        self.live.remove(&id);
                        events.push(TransferEvent::Succeeded { task: id, at: t });
                    }
                }
                InternalEvent::VerifyDone(id) => {
                    let task = self.tasks.get_mut(&id).expect("task");
                    task.verify_done = None;
                    let dst_digest = delivered_digest(id, task.size, task.delivered_corrupt);
                    task.delivered_corrupt = false;
                    if dst_digest != task.src_digest {
                        if task.attempt < MAX_RETRANSFERS {
                            task.attempt += 1;
                            let attempt = task.attempt;
                            let (src_site, dst_site, size) = self.task_route_info(id);
                            let task = self.tasks.get_mut(&id).expect("task");
                            let route = self
                                .topo
                                .route(src_site, dst_site)
                                .expect("distinct sites have routes");
                            task.flow = Some(self.topo.net.start_flow(route, size, t));
                            events.push(TransferEvent::Retrying {
                                task: id,
                                at: t,
                                attempt,
                            });
                        } else {
                            task.status = TaskStatus::Failed(FailReason::ChecksumMismatch);
                            task.finished = Some(t);
                            self.active -= 1;
                            self.live.remove(&id);
                            events.push(TransferEvent::Failed {
                                task: id,
                                at: t,
                                reason: FailReason::ChecksumMismatch,
                            });
                        }
                    } else {
                        task.status = TaskStatus::Succeeded;
                        task.finished = Some(t);
                        self.active -= 1;
                        self.live.remove(&id);
                        events.push(TransferEvent::Succeeded { task: id, at: t });
                    }
                }
                InternalEvent::HangExpired(id) => {
                    let task = self.tasks.get_mut(&id).expect("task");
                    task.hang_deadline = None;
                    task.status = TaskStatus::Failed(FailReason::HangTimeout);
                    task.finished = Some(t);
                    self.active -= 1;
                    self.live.remove(&id);
                    events.push(TransferEvent::Failed {
                        task: id,
                        at: t,
                        reason: FailReason::HangTimeout,
                    });
                }
            }
        }
        events
    }

    fn activation_time(&self, now: SimInstant) -> SimInstant {
        now
    }

    fn task_route_info(&self, id: TaskId) -> (SiteId, SiteId, ByteSize) {
        let task = self.tasks.get(&id).expect("task");
        (
            self.endpoints[&task.src].site,
            self.endpoints[&task.dst].site,
            task.size,
        )
    }

    fn activate(&mut self, id: TaskId, now: SimInstant) -> Vec<TransferEvent> {
        let mut events = Vec::new();
        let (permitted, fail_fast) = {
            let task = self.tasks.get(&id).expect("task");
            let src_ok = self.endpoints[&task.src].permitted;
            let dst_ok = self.endpoints[&task.dst].permitted;
            (src_ok && dst_ok, task.opts.fail_fast)
        };
        if !permitted {
            let task = self.tasks.get_mut(&id).expect("task");
            if fail_fast {
                task.status = TaskStatus::Failed(FailReason::PermissionDenied);
                task.finished = Some(now);
                events.push(TransferEvent::Failed {
                    task: id,
                    at: now,
                    reason: FailReason::PermissionDenied,
                });
            } else {
                // legacy behaviour: the task occupies a slot and hangs
                task.status = TaskStatus::Hung;
                task.hang_deadline = Some(now + self.hang_timeout);
                self.active += 1;
                self.live.insert(id);
                events.push(TransferEvent::Started { task: id, at: now });
            }
            return events;
        }
        let (src_site, dst_site, size) = self.task_route_info(id);
        if src_site == dst_site {
            // same-site "transfer" is a filesystem copy; model as instant
            // success at the service level (tiers charge their own time)
            let task = self.tasks.get_mut(&id).expect("task");
            task.status = TaskStatus::Succeeded;
            task.finished = Some(now);
            events.push(TransferEvent::Started { task: id, at: now });
            events.push(TransferEvent::Succeeded { task: id, at: now });
            return events;
        }
        let route = self.topo.route(src_site, dst_site).expect("route exists");
        let flow = self.topo.net.start_flow(route, size, now);
        let task = self.tasks.get_mut(&id).expect("task");
        task.status = TaskStatus::Active;
        task.flow = Some(flow);
        self.active += 1;
        self.live.insert(id);
        events.push(TransferEvent::Started { task: id, at: now });
        events
    }
}

#[derive(Debug, Clone, Copy)]
enum InternalEvent {
    FlowDone(TaskId, FlowId),
    VerifyDone(TaskId),
    HangExpired(TaskId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_netsim::esnet_topology;

    fn service(max_concurrent: usize) -> (TransferService, EndpointId, EndpointId, EndpointId) {
        let mut svc = TransferService::new(esnet_topology(), max_concurrent);
        let als = svc.register_endpoint(SiteId::Als);
        let nersc = svc.register_endpoint(SiteId::Nersc);
        let alcf = svc.register_endpoint(SiteId::Alcf);
        (svc, als, nersc, alcf)
    }

    fn drain(svc: &mut TransferService, mut now: SimInstant) -> (Vec<TransferEvent>, SimInstant) {
        let mut all = Vec::new();
        while let Some(t) = svc.next_event_time(now) {
            now = now.max(t);
            let evs = svc.advance_to(now);
            if evs.is_empty() && svc.next_event_time(now).is_none_or(|n| n <= now) {
                break;
            }
            all.extend(evs);
        }
        (all, now)
    }

    #[test]
    fn simple_transfer_succeeds_in_expected_time() {
        let (mut svc, als, nersc, _) = service(4);
        let t0 = SimInstant::ZERO;
        let id = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(25),
            TransferOptions::default(),
            t0,
        );
        let (events, _) = drain(&mut svc, t0);
        assert!(events
            .iter()
            .any(|e| matches!(e, TransferEvent::Succeeded { task, .. } if *task == id)));
        let d = svc.task_duration(id).unwrap().as_secs_f64();
        // 25 GiB at 10 Gbps ≈ 21.5 s + checksum (25 GiB at 16 Gbps ≈ 13.4 s)
        assert!((30.0..45.0).contains(&d), "duration {d}");
    }

    #[test]
    fn checksum_off_is_faster() {
        let (mut svc, als, nersc, _) = service(4);
        let t0 = SimInstant::ZERO;
        let with = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(10),
            TransferOptions::default(),
            t0,
        );
        let (_, end) = drain(&mut svc, t0);
        let without = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(10),
            TransferOptions {
                verify_checksum: false,
                ..Default::default()
            },
            end,
        );
        drain(&mut svc, end);
        assert!(svc.task_duration(without).unwrap() < svc.task_duration(with).unwrap());
    }

    #[test]
    fn corruption_triggers_retry_then_success() {
        let (mut svc, als, nersc, _) = service(4);
        let t0 = SimInstant::ZERO;
        svc.corrupt_next(nersc, 1);
        let id = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(5),
            TransferOptions::default(),
            t0,
        );
        let (events, _) = drain(&mut svc, t0);
        assert!(events
            .iter()
            .any(|e| matches!(e, TransferEvent::Retrying { task, attempt: 1, .. } if *task == id)));
        assert_eq!(svc.status(id), Some(TaskStatus::Succeeded));
    }

    #[test]
    fn persistent_corruption_fails_after_retries() {
        let (mut svc, als, nersc, _) = service(4);
        let t0 = SimInstant::ZERO;
        svc.corrupt_next(nersc, 100);
        let id = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(1),
            TransferOptions::default(),
            t0,
        );
        let (events, _) = drain(&mut svc, t0);
        assert!(events.iter().any(|e| matches!(
            e,
            TransferEvent::Failed { task, reason: FailReason::ChecksumMismatch, .. } if *task == id
        )));
        // exactly one automatic re-transfer before giving up
        let retries = events
            .iter()
            .filter(|e| matches!(e, TransferEvent::Retrying { task, .. } if *task == id))
            .count();
        assert_eq!(retries, 1);
    }

    #[test]
    fn digests_are_per_task_and_detect_corruption() {
        // the reference digests of distinct tasks differ, and a corrupted
        // delivery never reproduces the source digest
        let a = crc32(&payload_sample(TaskId(1), ByteSize::from_gib(5)));
        let b = crc32(&payload_sample(TaskId(2), ByteSize::from_gib(5)));
        let c = crc32(&payload_sample(TaskId(1), ByteSize::from_gib(6)));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(delivered_digest(TaskId(1), ByteSize::from_gib(5), false), a);
        assert_ne!(delivered_digest(TaskId(1), ByteSize::from_gib(5), true), a);
    }

    #[test]
    fn permission_denied_fails_fast_when_configured() {
        let (mut svc, als, nersc, _) = service(2);
        let t0 = SimInstant::ZERO;
        svc.set_permitted(nersc, false);
        let id = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(1),
            TransferOptions::default(),
            t0,
        );
        let events = svc.advance_to(t0);
        assert!(events.iter().any(|e| matches!(
            e,
            TransferEvent::Failed { task, reason: FailReason::PermissionDenied, .. } if *task == id
        )));
        // slot freed immediately
        assert_eq!(svc.active_count(), 0);
    }

    #[test]
    fn legacy_mode_hangs_and_saturates_the_queue() {
        // the §5.3 incident: a burst of prune tasks against a
        // mis-permissioned endpoint, with fail_fast disabled
        let (mut svc, als, nersc, _) = service(2);
        svc.set_hang_timeout(SimDuration::from_mins(30));
        svc.set_permitted(nersc, false);
        let legacy = TransferOptions {
            fail_fast: false,
            ..Default::default()
        };
        let t0 = SimInstant::ZERO;
        for _ in 0..4 {
            svc.submit(als, nersc, ByteSize::from_mib(10), legacy, t0);
        }
        // a legitimate transfer submitted right after
        svc.set_permitted(nersc, false);
        let good_dst = svc.register_endpoint(SiteId::Alcf);
        let good = svc.submit(
            als,
            good_dst,
            ByteSize::from_gib(1),
            TransferOptions::default(),
            t0,
        );
        svc.advance_to(t0);
        // both slots hung; the good task cannot start
        assert_eq!(svc.active_count(), 2);
        assert_eq!(svc.status(good), Some(TaskStatus::Queued));
        // after the hang timeout the queue finally drains
        let late = t0 + SimDuration::from_mins(31);
        svc.advance_to(late);
        drain(&mut svc, late);
        assert_eq!(svc.status(good), Some(TaskStatus::Succeeded));
        // the good task was stuck for at least the hang timeout
        assert!(svc.task_duration(good).unwrap() >= SimDuration::from_mins(30));
    }

    #[test]
    fn cancel_queued_and_active() {
        let (mut svc, als, nersc, alcf) = service(1);
        let t0 = SimInstant::ZERO;
        let a = svc.submit(
            als,
            nersc,
            ByteSize::from_gib(10),
            TransferOptions::default(),
            t0,
        );
        let b = svc.submit(
            als,
            alcf,
            ByteSize::from_gib(10),
            TransferOptions::default(),
            t0,
        );
        svc.advance_to(t0);
        assert_eq!(svc.status(a), Some(TaskStatus::Active));
        svc.cancel(b, t0);
        assert_eq!(svc.status(b), Some(TaskStatus::Cancelled));
        let t1 = t0 + SimDuration::from_secs(2);
        svc.cancel(a, t1);
        assert_eq!(svc.status(a), Some(TaskStatus::Cancelled));
        assert_eq!(svc.active_count(), 0);
    }

    #[test]
    fn same_site_copy_is_service_level_instant() {
        let (mut svc, als, _, _) = service(2);
        let als2 = svc.register_endpoint(SiteId::Als);
        let t0 = SimInstant::ZERO;
        let id = svc.submit(
            als,
            als2,
            ByteSize::from_gib(5),
            TransferOptions::default(),
            t0,
        );
        svc.advance_to(t0);
        assert_eq!(svc.status(id), Some(TaskStatus::Succeeded));
    }

    #[test]
    fn transfer_estimate_tracks_size_and_brownouts() {
        let (mut svc, _, _, _) = service(2);
        let base =
            svc.estimate_transfer_seconds(SiteId::Als, SiteId::Nersc, ByteSize::from_gib(25));
        // 25 GiB at 10 Gbps ≈ 21.5 s wire + ~13.4 s checksum
        assert!((25.0..50.0).contains(&base), "{base}");
        assert!(
            svc.estimate_transfer_seconds(SiteId::Als, SiteId::Olcf, ByteSize::from_gib(25)) > base
        );
        assert_eq!(
            svc.estimate_transfer_seconds(SiteId::Als, SiteId::Als, ByteSize::from_gib(25)),
            0.0
        );
        // a brownout deep enough to drop the 100G hop below the 10G NIC
        // inflates the estimate; restoring capacity restores it
        svc.set_wan_capacity_factor(0.05, SimInstant::ZERO);
        let browned =
            svc.estimate_transfer_seconds(SiteId::Als, SiteId::Nersc, ByteSize::from_gib(25));
        assert!(browned > base * 1.5, "{browned} vs {base}");
        svc.set_wan_capacity_factor(1.0, SimInstant::ZERO + SimDuration::from_secs(1));
        let restored =
            svc.estimate_transfer_seconds(SiteId::Als, SiteId::Nersc, ByteSize::from_gib(25));
        assert!((restored - base).abs() < 1e-6);
    }

    #[test]
    fn concurrency_limit_queues_excess() {
        let (mut svc, als, nersc, _) = service(3);
        let t0 = SimInstant::ZERO;
        for _ in 0..5 {
            svc.submit(
                als,
                nersc,
                ByteSize::from_gib(5),
                TransferOptions::default(),
                t0,
            );
        }
        svc.advance_to(t0);
        assert_eq!(svc.active_count(), 3);
        assert_eq!(svc.queued_count(), 2);
    }
}
