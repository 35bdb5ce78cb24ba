//! Globus Compute substitute: serverless functions on pilot jobs.
//!
//! The paper's ALCF adapter "implements reconstruction using a serverless
//! approach via Globus Compute, which uses a pilot-job model to maintain
//! compute nodes that can be reused when they are available, as well as a
//! demand queue on Polaris to reduce queue wait times ... providing
//! immediate execution without the overhead of traditional batch
//! scheduling." The model: an endpoint owns a pool of *warm* nodes; an
//! invocation dispatches onto a warm node with only function-dispatch
//! latency, or first acquires a node through the demand queue (fast) /
//! batch queue (slow). Idle warm nodes are released after a timeout.

use als_simcore::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a submitted function invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ComputeTaskId(pub u64);

/// Invocation lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputeTaskState {
    /// Waiting for a node.
    Pending,
    Running,
    Completed,
    Cancelled,
    /// Lost to an endpoint outage (fault injection).
    Failed,
}

/// Events from time advancement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeEvent {
    Started { task: ComputeTaskId, at: SimInstant },
    Finished { task: ComputeTaskId, at: SimInstant },
    Failed { task: ComputeTaskId, at: SimInstant },
}

/// Node-acquisition policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcquisitionMode {
    /// Polaris demand queue: node in ~1 minute.
    DemandQueue,
    /// Traditional batch queue: node in tens of minutes.
    Batch,
}

impl AcquisitionMode {
    /// Time to obtain a fresh node.
    pub fn acquisition_latency(&self) -> SimDuration {
        match self {
            AcquisitionMode::DemandQueue => SimDuration::from_secs(60),
            AcquisitionMode::Batch => SimDuration::from_mins(25),
        }
    }
}

#[derive(Debug)]
struct Invocation {
    runtime: SimDuration,
    state: ComputeTaskState,
    submitted: SimInstant,
    started: Option<SimInstant>,
    finished: Option<SimInstant>,
    /// When this pending invocation's node acquisition completes.
    node_ready: Option<SimInstant>,
    /// Caller-supplied label; survives at the facility across
    /// orchestrator crashes so recovery can adopt orphaned invocations.
    label: Option<String>,
}

/// A Globus Compute endpoint bound to one HPC cluster.
#[derive(Debug)]
pub struct ComputeEndpoint {
    mode: AcquisitionMode,
    max_nodes: usize,
    /// Warm nodes currently held, with the time each became idle (`None`
    /// while busy).
    warm_nodes: Vec<Option<SimInstant>>,
    idle_timeout: SimDuration,
    dispatch_latency: SimDuration,
    tasks: BTreeMap<ComputeTaskId, Invocation>,
    /// Pending + running invocations (terminal ones produce no events).
    live: std::collections::BTreeSet<ComputeTaskId>,
    next_id: u64,
    /// Endpoint outage flag: while down, new invocations fail on arrival.
    down: bool,
}

impl ComputeEndpoint {
    /// New endpoint holding at most `max_nodes` pilot nodes.
    pub fn new(mode: AcquisitionMode, max_nodes: usize) -> Self {
        assert!(max_nodes > 0);
        ComputeEndpoint {
            mode,
            max_nodes,
            warm_nodes: Vec::new(),
            idle_timeout: SimDuration::from_mins(10),
            dispatch_latency: SimDuration::from_millis(800),
            tasks: BTreeMap::new(),
            live: std::collections::BTreeSet::new(),
            next_id: 0,
            down: false,
        }
    }

    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Take the endpoint down (or bring it back). Going down kills every
    /// live invocation — the pilot jobs die with the endpoint — and
    /// releases the warm-node pool. Returns the failure events.
    pub fn set_down(&mut self, down: bool, now: SimInstant) -> Vec<ComputeEvent> {
        self.down = down;
        let mut events = Vec::new();
        if down {
            let live: Vec<ComputeTaskId> = self.live.iter().copied().collect();
            for id in live {
                let t = self.tasks.get_mut(&id).expect("live task exists");
                t.state = ComputeTaskState::Failed;
                t.finished = Some(now);
                t.node_ready = None;
                self.live.remove(&id);
                events.push(ComputeEvent::Failed { task: id, at: now });
            }
            self.warm_nodes.clear();
        }
        events
    }

    pub fn mode(&self) -> AcquisitionMode {
        self.mode
    }

    /// Nodes currently held (busy + idle).
    pub fn warm_node_count(&self) -> usize {
        self.warm_nodes.len()
    }

    pub fn state(&self, id: ComputeTaskId) -> Option<ComputeTaskState> {
        self.tasks.get(&id).map(|t| t.state)
    }

    /// All pending or running invocations — the query a restarted
    /// orchestrator uses to re-attach in-flight work.
    pub fn live_tasks(&self) -> Vec<ComputeTaskId> {
        self.live.iter().copied().collect()
    }

    /// Queue wait (submit → start).
    pub fn queue_wait(&self, id: ComputeTaskId) -> Option<SimDuration> {
        let t = self.tasks.get(&id)?;
        Some(t.started?.duration_since(t.submitted))
    }

    /// Submit a function invocation with known service time. While the
    /// endpoint is down the task is accepted but immediately Failed —
    /// callers observe the failure via `state()`.
    pub fn invoke(&mut self, runtime: SimDuration, now: SimInstant) -> ComputeTaskId {
        self.invoke_labeled(runtime, now, None)
    }

    /// [`ComputeEndpoint::invoke`] with a caller-defined label attached.
    /// Labels survive at the facility across orchestrator crashes, so
    /// recovery can find invocations whose journal record was lost.
    pub fn invoke_labeled(
        &mut self,
        runtime: SimDuration,
        now: SimInstant,
        label: Option<String>,
    ) -> ComputeTaskId {
        let id = ComputeTaskId(self.next_id);
        self.next_id += 1;
        if self.down {
            self.tasks.insert(
                id,
                Invocation {
                    runtime,
                    state: ComputeTaskState::Failed,
                    submitted: now,
                    started: None,
                    finished: Some(now),
                    node_ready: None,
                    label,
                },
            );
            return id;
        }
        // choose path: reuse an idle warm node, or acquire a new one
        let node_ready = if self.take_idle_node() {
            Some(now + self.dispatch_latency)
        } else if self.warm_nodes.len() < self.max_nodes {
            self.warm_nodes.push(None); // reserve the incoming node as busy
            Some(now + self.mode.acquisition_latency() + self.dispatch_latency)
        } else {
            None // all nodes busy: wait for one to free
        };
        self.tasks.insert(
            id,
            Invocation {
                runtime,
                state: ComputeTaskState::Pending,
                submitted: now,
                started: None,
                finished: None,
                node_ready,
                label,
            },
        );
        self.live.insert(id);
        id
    }

    /// Every labelled invocation in any state (the recovery sweep:
    /// compare against the journal's known handles to find orphans).
    pub fn tasks_labeled(&self) -> Vec<(ComputeTaskId, &str, ComputeTaskState)> {
        self.tasks
            .iter()
            .filter_map(|(&id, t)| t.label.as_deref().map(|l| (id, l, t.state)))
            .collect()
    }

    /// Cancel a pending or running invocation.
    pub fn cancel(&mut self, id: ComputeTaskId, now: SimInstant) {
        if let Some(t) = self.tasks.get_mut(&id) {
            match t.state {
                ComputeTaskState::Pending | ComputeTaskState::Running => {
                    let was_running = t.state == ComputeTaskState::Running;
                    t.state = ComputeTaskState::Cancelled;
                    t.finished = Some(now);
                    t.node_ready = None;
                    self.live.remove(&id);
                    if was_running {
                        self.release_node_to_idle(now);
                    }
                }
                _ => {}
            }
        }
    }

    fn take_idle_node(&mut self) -> bool {
        for slot in self.warm_nodes.iter_mut() {
            if slot.is_some() {
                *slot = None; // mark busy
                return true;
            }
        }
        false
    }

    fn release_node_to_idle(&mut self, now: SimInstant) {
        for slot in self.warm_nodes.iter_mut() {
            if slot.is_none() {
                *slot = Some(now);
                return;
            }
        }
    }

    /// Next internal event time: a pending start, a running finish, or an
    /// idle node expiring.
    pub fn next_event_time(&self) -> Option<SimInstant> {
        let mut best: Option<SimInstant> = None;
        let mut consider = |t: SimInstant| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        for id in &self.live {
            let t = &self.tasks[id];
            match t.state {
                ComputeTaskState::Pending => {
                    if let Some(r) = t.node_ready {
                        consider(r);
                    }
                }
                ComputeTaskState::Running => {
                    if let (Some(s), r) = (t.started, t.runtime) {
                        consider(s + r);
                    }
                }
                _ => {}
            }
        }
        for idle_since in self.warm_nodes.iter().flatten() {
            consider(*idle_since + self.idle_timeout);
        }
        best
    }

    /// Advance to `now`, producing start/finish events in order.
    pub fn advance_to(&mut self, now: SimInstant) -> Vec<ComputeEvent> {
        let mut events = Vec::new();
        loop {
            // earliest actionable event ≤ now
            #[derive(Clone, Copy)]
            enum Ev {
                Start(ComputeTaskId),
                Finish(ComputeTaskId),
                IdleExpire(usize),
            }
            let mut next: Option<(SimInstant, Ev)> = None;
            let consider = |t: SimInstant, e: Ev, next: &mut Option<(SimInstant, Ev)>| {
                if t <= now && next.is_none_or(|(bt, _)| t < bt) {
                    *next = Some((t, e));
                }
            };
            for &id in &self.live {
                let t = &self.tasks[&id];
                match t.state {
                    ComputeTaskState::Pending => {
                        if let Some(r) = t.node_ready {
                            consider(r, Ev::Start(id), &mut next);
                        }
                    }
                    ComputeTaskState::Running => {
                        let end = t.started.expect("running has start") + t.runtime;
                        consider(end, Ev::Finish(id), &mut next);
                    }
                    _ => {}
                }
            }
            for (i, slot) in self.warm_nodes.iter().enumerate() {
                if let Some(idle_since) = slot {
                    consider(
                        *idle_since + self.idle_timeout,
                        Ev::IdleExpire(i),
                        &mut next,
                    );
                }
            }
            let Some((t, ev)) = next else { break };
            match ev {
                Ev::Start(id) => {
                    let task = self.tasks.get_mut(&id).expect("task");
                    task.state = ComputeTaskState::Running;
                    task.started = Some(t);
                    task.node_ready = None;
                    events.push(ComputeEvent::Started { task: id, at: t });
                }
                Ev::Finish(id) => {
                    let task = self.tasks.get_mut(&id).expect("task");
                    task.state = ComputeTaskState::Completed;
                    task.finished = Some(t);
                    self.live.remove(&id);
                    events.push(ComputeEvent::Finished { task: id, at: t });
                    self.release_node_to_idle(t);
                    // hand the node to the oldest pending task without one
                    if let Some(&pid) = self
                        .live
                        .iter()
                        .filter(|id| {
                            let p = &self.tasks[id];
                            p.state == ComputeTaskState::Pending && p.node_ready.is_none()
                        })
                        .min_by_key(|id| self.tasks[id].submitted)
                    {
                        if self.take_idle_node() {
                            let p = self.tasks.get_mut(&pid).expect("pending task");
                            p.node_ready = Some(t + self.dispatch_latency);
                        }
                    }
                }
                Ev::IdleExpire(i) => {
                    // release the pilot node back to the facility
                    self.warm_nodes.remove(i);
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ep: &mut ComputeEndpoint, mut now: SimInstant) -> (Vec<ComputeEvent>, SimInstant) {
        let mut all = Vec::new();
        while let Some(t) = ep.next_event_time() {
            now = now.max(t);
            all.extend(ep.advance_to(now));
        }
        (all, now)
    }

    #[test]
    fn cold_start_pays_acquisition_latency() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 2);
        let t0 = SimInstant::ZERO;
        let id = ep.invoke(SimDuration::from_mins(15), t0);
        let (events, _) = drain(&mut ep, t0);
        assert!(matches!(events[0], ComputeEvent::Started { task, .. } if task == id));
        let wait = ep.queue_wait(id).unwrap().as_secs_f64();
        assert!((60.0..62.0).contains(&wait), "wait {wait}");
    }

    #[test]
    fn warm_node_reuse_is_nearly_instant() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 1);
        let t0 = SimInstant::ZERO;
        let a = ep.invoke(SimDuration::from_mins(10), t0);
        // step only until `a` completes so the warm node has not idled out
        let mut end = t0;
        while ep.state(a) != Some(ComputeTaskState::Completed) {
            end = ep.next_event_time().expect("pending events");
            ep.advance_to(end);
        }
        // second invocation while the node is still warm
        let b = ep.invoke(SimDuration::from_mins(10), end);
        ep.advance_to(end + SimDuration::from_secs(2));
        assert_eq!(ep.state(b), Some(ComputeTaskState::Running));
        let wait = ep.queue_wait(b).unwrap().as_secs_f64();
        assert!(wait < 2.0, "warm dispatch wait {wait}");
    }

    #[test]
    fn batch_mode_is_much_slower_to_first_task() {
        let mut demand = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 1);
        let mut batch = ComputeEndpoint::new(AcquisitionMode::Batch, 1);
        let t0 = SimInstant::ZERO;
        let d = demand.invoke(SimDuration::from_mins(5), t0);
        let b = batch.invoke(SimDuration::from_mins(5), t0);
        drain(&mut demand, t0);
        drain(&mut batch, t0);
        let wd = demand.queue_wait(d).unwrap();
        let wb = batch.queue_wait(b).unwrap();
        assert!(
            wb.as_secs_f64() > 10.0 * wd.as_secs_f64(),
            "batch {wb} vs demand {wd}"
        );
    }

    #[test]
    fn tasks_queue_when_all_nodes_busy() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 1);
        let t0 = SimInstant::ZERO;
        let a = ep.invoke(SimDuration::from_mins(10), t0);
        let b = ep.invoke(SimDuration::from_mins(10), t0);
        let (events, _) = drain(&mut ep, t0);
        assert_eq!(ep.state(a), Some(ComputeTaskState::Completed));
        assert_eq!(ep.state(b), Some(ComputeTaskState::Completed));
        // b started only after a finished
        let a_finish = events
            .iter()
            .find_map(|e| match e {
                ComputeEvent::Finished { task, at } if *task == a => Some(*at),
                _ => None,
            })
            .unwrap();
        let b_start = events
            .iter()
            .find_map(|e| match e {
                ComputeEvent::Started { task, at } if *task == b => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(b_start >= a_finish);
    }

    #[test]
    fn idle_nodes_are_released_after_timeout() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 2);
        let t0 = SimInstant::ZERO;
        ep.invoke(SimDuration::from_mins(1), t0);
        let (_, end) = drain(&mut ep, t0);
        // drain consumed the idle-expiry event too: node pool empty again
        assert_eq!(ep.warm_node_count(), 0);
        // a fresh invocation must re-acquire
        let c = ep.invoke(SimDuration::from_mins(1), end);
        drain(&mut ep, end);
        assert!(ep.queue_wait(c).unwrap().as_secs_f64() >= 60.0);
    }

    #[test]
    fn endpoint_outage_fails_live_tasks_and_new_invocations() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 2);
        let t0 = SimInstant::ZERO;
        let running = ep.invoke(SimDuration::from_mins(30), t0);
        ep.advance_to(t0 + SimDuration::from_mins(2));
        assert_eq!(ep.state(running), Some(ComputeTaskState::Running));

        let t1 = t0 + SimDuration::from_mins(5);
        let events = ep.set_down(true, t1);
        assert!(events.contains(&ComputeEvent::Failed {
            task: running,
            at: t1
        }));
        assert_eq!(ep.state(running), Some(ComputeTaskState::Failed));
        assert_eq!(ep.warm_node_count(), 0, "pilot nodes die with the endpoint");

        // invocations during the outage fail on arrival, with no events
        let dead = ep.invoke(SimDuration::from_mins(5), t1);
        assert_eq!(ep.state(dead), Some(ComputeTaskState::Failed));
        assert!(ep.next_event_time().is_none());

        // recovery: fresh invocations run normally (cold start again)
        let t2 = t1 + SimDuration::from_mins(10);
        assert!(ep.set_down(false, t2).is_empty());
        let revived = ep.invoke(SimDuration::from_mins(5), t2);
        while let Some(t) = ep.next_event_time() {
            ep.advance_to(t);
        }
        assert_eq!(ep.state(revived), Some(ComputeTaskState::Completed));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut ep = ComputeEndpoint::new(AcquisitionMode::DemandQueue, 1);
        let t0 = SimInstant::ZERO;
        let a = ep.invoke(SimDuration::from_mins(30), t0);
        let b = ep.invoke(SimDuration::from_mins(30), t0);
        ep.advance_to(t0 + SimDuration::from_mins(2));
        assert_eq!(ep.state(a), Some(ComputeTaskState::Running));
        ep.cancel(b, t0 + SimDuration::from_mins(2));
        assert_eq!(ep.state(b), Some(ComputeTaskState::Cancelled));
        ep.cancel(a, t0 + SimDuration::from_mins(3));
        assert_eq!(ep.state(a), Some(ComputeTaskState::Cancelled));
    }
}
