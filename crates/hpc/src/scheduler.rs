//! A Slurm-like batch scheduler on the simulation clock.
//!
//! Models what the paper's NERSC adapter depends on: a partition of
//! identical nodes, jobs requesting whole nodes, QOS-based priority
//! (`realtime` ahead of `regular`), FIFO within a priority class, and
//! conservative backfill (a lower-priority job may start only on nodes the
//! highest-priority waiting job cannot use anyway — with whole-node
//! requests this reduces to "skip jobs too big to fit now").

use als_simcore::{SimDuration, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Quality-of-service classes, ordered by dispatch priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Qos {
    /// Batch background work.
    Regular,
    /// Short debug runs.
    Debug,
    /// NERSC's prioritized QOS for time-critical experiment workflows —
    /// what the paper's reconstruction jobs are submitted with.
    Realtime,
}

impl Qos {
    /// Numeric priority; larger dispatches first.
    pub fn priority(&self) -> u32 {
        match self {
            Qos::Regular => 10,
            Qos::Debug => 50,
            Qos::Realtime => 100,
        }
    }
}

/// Job identifier (per scheduler instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A submission request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Job name for reports.
    pub name: String,
    pub qos: Qos,
    /// Whole nodes requested (the paper requests exclusive full CPU nodes).
    pub nodes: usize,
    /// Actual service time once running (known to the simulation).
    pub runtime: SimDuration,
    /// Walltime limit; the job is killed if runtime exceeds it.
    pub walltime_limit: SimDuration,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Pending,
    Running,
    Completed,
    /// Killed at its walltime limit.
    TimedOut,
    Cancelled,
    /// Killed by a node/system failure (fault injection).
    Failed,
}

/// Events produced as simulated time advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    Started {
        id: JobId,
        at: SimInstant,
    },
    Finished {
        id: JobId,
        at: SimInstant,
        state: JobState,
    },
}

#[derive(Debug, Clone)]
struct Job {
    req: JobRequest,
    submitted: SimInstant,
    seq: u64,
    state: JobState,
    started: Option<SimInstant>,
    ends: Option<SimInstant>,
    finished: Option<SimInstant>,
}

/// The scheduler: one partition of `total_nodes` identical nodes.
#[derive(Debug)]
pub struct Scheduler {
    total_nodes: usize,
    free_nodes: usize,
    jobs: BTreeMap<JobId, Job>,
    /// Index sets so per-event work does not scale with job history.
    pending: std::collections::BTreeSet<JobId>,
    running: std::collections::BTreeSet<JobId>,
    next_id: u64,
    /// Nodes drained for maintenance or downed by an outage; they stay
    /// out of the dispatchable pool until restored via `set_offline(0)`.
    offline_nodes: usize,
    /// Busy-time integral for utilization reporting.
    busy_node_seconds: f64,
    last_account: SimInstant,
}

impl Scheduler {
    pub fn new(total_nodes: usize) -> Self {
        assert!(total_nodes > 0, "partition needs at least one node");
        Scheduler {
            total_nodes,
            free_nodes: total_nodes,
            jobs: BTreeMap::new(),
            pending: std::collections::BTreeSet::new(),
            running: std::collections::BTreeSet::new(),
            next_id: 0,
            offline_nodes: 0,
            busy_node_seconds: 0.0,
            last_account: SimInstant::ZERO,
        }
    }

    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    pub fn free_nodes(&self) -> usize {
        self.free_nodes
    }

    /// Jobs currently queued (not yet running).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Nodes currently held out of the dispatchable pool.
    pub fn offline_nodes(&self) -> usize {
        self.offline_nodes
    }

    /// Drain `n` nodes (capped at the partition size). Already-running
    /// jobs keep their nodes; the drain only blocks new dispatch, like a
    /// Slurm maintenance reservation. `set_offline(0)` restores the full
    /// partition and dispatches whatever now fits.
    pub fn set_offline(&mut self, n: usize, now: SimInstant) -> Vec<JobEvent> {
        self.account(now);
        self.offline_nodes = n.min(self.total_nodes);
        self.try_dispatch(now)
    }

    /// Kill a running job as failed (node crash / system outage). Frees
    /// its nodes and dispatches queued work; no-op unless running.
    pub fn fail(&mut self, id: JobId, now: SimInstant) -> Vec<JobEvent> {
        self.account(now);
        let mut events = Vec::new();
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state == JobState::Running {
                job.state = JobState::Failed;
                job.finished = Some(now);
                self.running.remove(&id);
                let nodes = job.req.nodes;
                self.free_nodes += nodes;
                events.push(JobEvent::Finished {
                    id,
                    at: now,
                    state: JobState::Failed,
                });
                events.extend(self.try_dispatch(now));
            }
        }
        events
    }

    fn account(&mut self, now: SimInstant) {
        let dt = now.duration_since(self.last_account).as_secs_f64();
        self.busy_node_seconds += dt * (self.total_nodes - self.free_nodes) as f64;
        self.last_account = now;
    }

    /// Submit a job; it may start immediately. Returns its id plus any
    /// start events triggered by this submission.
    pub fn submit(&mut self, req: JobRequest, now: SimInstant) -> (JobId, Vec<JobEvent>) {
        assert!(req.nodes > 0, "job must request at least one node");
        assert!(
            req.nodes <= self.total_nodes,
            "job requests {} nodes, partition has {}",
            req.nodes,
            self.total_nodes
        );
        self.account(now);
        let id = JobId(self.next_id);
        let seq = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                req,
                submitted: now,
                seq,
                state: JobState::Pending,
                started: None,
                ends: None,
                finished: None,
            },
        );
        self.pending.insert(id);
        let events = self.try_dispatch(now);
        (id, events)
    }

    /// Cancel a pending or running job.
    pub fn cancel(&mut self, id: JobId, now: SimInstant) -> Vec<JobEvent> {
        self.account(now);
        let mut events = Vec::new();
        if let Some(job) = self.jobs.get_mut(&id) {
            match job.state {
                JobState::Pending => {
                    job.state = JobState::Cancelled;
                    job.finished = Some(now);
                    self.pending.remove(&id);
                    events.push(JobEvent::Finished {
                        id,
                        at: now,
                        state: JobState::Cancelled,
                    });
                }
                JobState::Running => {
                    job.state = JobState::Cancelled;
                    job.finished = Some(now);
                    self.running.remove(&id);
                    let nodes = job.req.nodes;
                    self.free_nodes += nodes;
                    events.push(JobEvent::Finished {
                        id,
                        at: now,
                        state: JobState::Cancelled,
                    });
                    events.extend(self.try_dispatch(now));
                }
                _ => {}
            }
        }
        events
    }

    /// Earliest pending completion, if any — the DES driver schedules its
    /// next scheduler event here.
    pub fn next_event_time(&self) -> Option<SimInstant> {
        self.running
            .iter()
            .filter_map(|id| self.jobs[id].ends)
            .min()
    }

    /// Advance to `now`: finish every running job whose end time has
    /// passed, then dispatch queued work. Returns events in time order.
    pub fn advance_to(&mut self, now: SimInstant) -> Vec<JobEvent> {
        let mut events = Vec::new();
        loop {
            // find the earliest job ending at or before `now`
            let next = self
                .running
                .iter()
                .filter_map(|&id| self.jobs[&id].ends.map(|e| (e, id)))
                .filter(|(e, _)| *e <= now)
                .min();
            let Some((end, id)) = next else { break };
            self.account(end);
            let job = self.jobs.get_mut(&id).expect("job exists");
            let limit_hit = job.req.runtime > job.req.walltime_limit;
            job.state = if limit_hit {
                JobState::TimedOut
            } else {
                JobState::Completed
            };
            job.finished = Some(end);
            self.running.remove(&id);
            let nodes = job.req.nodes;
            self.free_nodes += nodes;
            events.push(JobEvent::Finished {
                id,
                at: end,
                state: job.state,
            });
            events.extend(self.try_dispatch(end));
        }
        self.account(now);
        events
    }

    /// Dispatch queued jobs: highest priority first, FIFO within a class,
    /// skipping jobs that do not fit (conservative backfill).
    fn try_dispatch(&mut self, now: SimInstant) -> Vec<JobEvent> {
        let mut events = Vec::new();
        let mut queued: Vec<(u32, u64, JobId)> = self
            .pending
            .iter()
            .map(|&id| {
                let j = &self.jobs[&id];
                (j.req.qos.priority(), j.seq, id)
            })
            .collect();
        // priority desc, then submission order
        queued.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, _, id) in queued {
            let job = self.jobs.get_mut(&id).expect("job exists");
            if job.req.nodes <= self.free_nodes.saturating_sub(self.offline_nodes) {
                self.free_nodes -= job.req.nodes;
                job.state = JobState::Running;
                job.started = Some(now);
                let service = job.req.runtime.min(job.req.walltime_limit);
                job.ends = Some(now + service);
                self.pending.remove(&id);
                self.running.insert(id);
                events.push(JobEvent::Started { id, at: now });
            }
        }
        events
    }

    /// Queue wait of a job that has started (start − submit).
    pub fn queue_wait(&self, id: JobId) -> Option<SimDuration> {
        let j = self.jobs.get(&id)?;
        Some(j.started?.duration_since(j.submitted))
    }

    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(&id).map(|j| j.state)
    }

    /// All pending or running jobs, in submission order — the query a
    /// restarted orchestrator uses to hunt for orphaned work.
    pub fn live_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, j)| matches!(j.state, JobState::Pending | JobState::Running))
            .map(|(&id, _)| id)
            .collect()
    }

    /// The submitted job name (`squeue`-style lookup).
    pub fn job_name(&self, id: JobId) -> Option<&str> {
        self.jobs.get(&id).map(|j| j.req.name.as_str())
    }

    /// Every job (any state, terminal included) whose name starts with
    /// `prefix`, with its name — the `squeue`/`sacct` query a restarted
    /// orchestrator runs to find submissions a torn journal forgot.
    pub fn jobs_with_prefix(&self, prefix: &str) -> Vec<(JobId, &str)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.req.name.starts_with(prefix))
            .map(|(&id, j)| (id, j.req.name.as_str()))
            .collect()
    }

    /// Node utilization over `[0, now]`: busy node-seconds / capacity.
    pub fn utilization(&self, now: SimInstant) -> f64 {
        let span = now.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let pending_busy = now.duration_since(self.last_account).as_secs_f64()
            * (self.total_nodes - self.free_nodes) as f64;
        (self.busy_node_seconds + pending_busy) / (span * self.total_nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str, qos: Qos, nodes: usize, runtime_s: u64) -> JobRequest {
        JobRequest {
            name: name.into(),
            qos,
            nodes,
            runtime: SimDuration::from_secs(runtime_s),
            walltime_limit: SimDuration::from_secs(3600),
        }
    }

    #[test]
    fn job_starts_immediately_when_nodes_free() {
        let mut s = Scheduler::new(4);
        let (id, events) = s.submit(req("a", Qos::Regular, 2, 100), SimInstant::ZERO);
        assert_eq!(
            events,
            vec![JobEvent::Started {
                id,
                at: SimInstant::ZERO
            }]
        );
        assert_eq!(s.free_nodes(), 2);
        assert_eq!(s.state(id), Some(JobState::Running));
    }

    #[test]
    fn job_queues_when_full_and_starts_on_release() {
        let mut s = Scheduler::new(2);
        let t0 = SimInstant::ZERO;
        let (a, _) = s.submit(req("a", Qos::Regular, 2, 60), t0);
        let (b, ev) = s.submit(req("b", Qos::Regular, 2, 60), t0);
        assert!(ev.is_empty());
        assert_eq!(s.state(b), Some(JobState::Pending));
        let t_end = s.next_event_time().unwrap();
        assert_eq!(t_end.as_secs_f64(), 60.0);
        let events = s.advance_to(t_end);
        assert!(events.contains(&JobEvent::Finished {
            id: a,
            at: t_end,
            state: JobState::Completed
        }));
        assert!(events.contains(&JobEvent::Started { id: b, at: t_end }));
        assert_eq!(s.queue_wait(b).unwrap(), SimDuration::from_secs(60));
    }

    #[test]
    fn realtime_qos_jumps_the_queue() {
        let mut s = Scheduler::new(1);
        let t0 = SimInstant::ZERO;
        let (_running, _) = s.submit(req("running", Qos::Regular, 1, 100), t0);
        let (batch, _) = s.submit(req("batch", Qos::Regular, 1, 100), t0);
        let (rt, _) = s.submit(req("rt", Qos::Realtime, 1, 10), t0);
        let t1 = s.next_event_time().unwrap();
        s.advance_to(t1);
        // realtime starts before the earlier-submitted regular job
        assert_eq!(s.state(rt), Some(JobState::Running));
        assert_eq!(s.state(batch), Some(JobState::Pending));
    }

    #[test]
    fn fifo_within_same_qos() {
        let mut s = Scheduler::new(1);
        let t0 = SimInstant::ZERO;
        let (_a, _) = s.submit(req("a", Qos::Regular, 1, 10), t0);
        let (b, _) = s.submit(req("b", Qos::Regular, 1, 10), t0);
        let (c, _) = s.submit(req("c", Qos::Regular, 1, 10), t0);
        s.advance_to(SimInstant::ZERO + SimDuration::from_secs(10));
        assert_eq!(s.state(b), Some(JobState::Running));
        assert_eq!(s.state(c), Some(JobState::Pending));
    }

    #[test]
    fn backfill_lets_small_jobs_pass_blocked_big_ones() {
        let mut s = Scheduler::new(4);
        let t0 = SimInstant::ZERO;
        let (_big_running, _) = s.submit(req("hog", Qos::Regular, 3, 100), t0);
        // 4-node job cannot start (only 1 free)
        let (blocked, _) = s.submit(req("blocked", Qos::Regular, 4, 10), t0);
        // 1-node job CAN start on the free node
        let (small, ev) = s.submit(req("small", Qos::Regular, 1, 10), t0);
        assert!(ev
            .iter()
            .any(|e| matches!(e, JobEvent::Started { id, .. } if *id == small)));
        assert_eq!(s.state(blocked), Some(JobState::Pending));
    }

    #[test]
    fn walltime_limit_kills_long_jobs() {
        let mut s = Scheduler::new(1);
        let mut r = req("long", Qos::Regular, 1, 100);
        r.walltime_limit = SimDuration::from_secs(30);
        let (id, _) = s.submit(r, SimInstant::ZERO);
        let t = s.next_event_time().unwrap();
        assert_eq!(t.as_secs_f64(), 30.0, "killed at the limit");
        let ev = s.advance_to(t);
        assert!(ev.contains(&JobEvent::Finished {
            id,
            at: t,
            state: JobState::TimedOut
        }));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut s = Scheduler::new(1);
        let t0 = SimInstant::ZERO;
        let (a, _) = s.submit(req("a", Qos::Regular, 1, 100), t0);
        let (b, _) = s.submit(req("b", Qos::Regular, 1, 100), t0);
        // cancel queued
        let ev = s.cancel(b, t0 + SimDuration::from_secs(1));
        assert_eq!(ev.len(), 1);
        assert_eq!(s.state(b), Some(JobState::Cancelled));
        // cancel running frees the node
        let ev = s.cancel(a, t0 + SimDuration::from_secs(2));
        assert!(ev.iter().any(
            |e| matches!(e, JobEvent::Finished { id, state: JobState::Cancelled, .. } if *id == a)
        ));
        assert_eq!(s.free_nodes(), 1);
    }

    #[test]
    fn nodes_never_oversubscribed() {
        // stress: many random-ish jobs; free_nodes must stay in range
        let mut s = Scheduler::new(8);
        let mut now = SimInstant::ZERO;
        for i in 0..200u64 {
            let nodes = 1 + (i % 5) as usize;
            let runtime = 10 + (i * 7) % 50;
            s.submit(
                req(
                    &format!("j{i}"),
                    if i % 3 == 0 {
                        Qos::Realtime
                    } else {
                        Qos::Regular
                    },
                    nodes,
                    runtime,
                ),
                now,
            );
            now += SimDuration::from_secs(3);
            s.advance_to(now);
            assert!(s.free_nodes() <= 8);
        }
        // drain
        while let Some(t) = s.next_event_time() {
            s.advance_to(t);
        }
        assert_eq!(s.free_nodes(), 8);
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn drained_nodes_block_dispatch_until_restored() {
        let mut s = Scheduler::new(4);
        let t0 = SimInstant::ZERO;
        let ev = s.set_offline(4, t0);
        assert!(ev.is_empty());
        assert_eq!(s.offline_nodes(), 4);
        let (id, ev) = s.submit(req("blocked", Qos::Realtime, 1, 10), t0);
        assert!(ev.is_empty(), "no dispatch while partition is drained");
        assert_eq!(s.state(id), Some(JobState::Pending));
        assert!(s.next_event_time().is_none());
        // restoring the partition dispatches the queued job
        let t1 = t0 + SimDuration::from_secs(300);
        let ev = s.set_offline(0, t1);
        assert_eq!(ev, vec![JobEvent::Started { id, at: t1 }]);
    }

    #[test]
    fn partial_drain_leaves_remaining_capacity_usable() {
        let mut s = Scheduler::new(4);
        let t0 = SimInstant::ZERO;
        s.set_offline(3, t0);
        let (small, ev) = s.submit(req("small", Qos::Regular, 1, 10), t0);
        assert!(ev
            .iter()
            .any(|e| matches!(e, JobEvent::Started { id, .. } if *id == small)));
        let (big, ev) = s.submit(req("big", Qos::Regular, 2, 10), t0);
        assert!(ev.is_empty());
        assert_eq!(s.state(big), Some(JobState::Pending));
    }

    #[test]
    fn drain_does_not_kill_running_jobs() {
        let mut s = Scheduler::new(2);
        let t0 = SimInstant::ZERO;
        let (id, _) = s.submit(req("a", Qos::Regular, 2, 60), t0);
        s.set_offline(2, t0 + SimDuration::from_secs(1));
        assert_eq!(s.state(id), Some(JobState::Running));
        let t = s.next_event_time().unwrap();
        let ev = s.advance_to(t);
        assert!(ev.contains(&JobEvent::Finished {
            id,
            at: t,
            state: JobState::Completed
        }));
    }

    #[test]
    fn fail_kills_running_job_and_frees_nodes() {
        let mut s = Scheduler::new(2);
        let t0 = SimInstant::ZERO;
        let (a, _) = s.submit(req("a", Qos::Regular, 2, 100), t0);
        let (b, _) = s.submit(req("b", Qos::Regular, 1, 10), t0);
        let t1 = t0 + SimDuration::from_secs(5);
        let ev = s.fail(a, t1);
        assert!(ev.contains(&JobEvent::Finished {
            id: a,
            at: t1,
            state: JobState::Failed
        }));
        assert_eq!(s.state(a), Some(JobState::Failed));
        // freed nodes dispatch the queued job
        assert!(ev
            .iter()
            .any(|e| matches!(e, JobEvent::Started { id, .. } if *id == b)));
        // failing a job that is not running is a no-op
        assert!(s.fail(a, t1).is_empty());
        assert_eq!(s.free_nodes(), 1);
    }

    #[test]
    fn utilization_is_sane() {
        let mut s = Scheduler::new(2);
        let t0 = SimInstant::ZERO;
        s.submit(req("a", Qos::Regular, 2, 50), t0);
        let t1 = t0 + SimDuration::from_secs(100);
        s.advance_to(t1);
        let u = s.utilization(t1);
        assert!((u - 0.5).abs() < 0.01, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_is_rejected() {
        let mut s = Scheduler::new(2);
        s.submit(req("huge", Qos::Regular, 3, 10), SimInstant::ZERO);
    }
}
