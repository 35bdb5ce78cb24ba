//! Crash recovery for the orchestrator: journal-backed state plus
//! facility-state reconciliation.
//!
//! [`DurableOrchestrator`] wraps the in-memory [`FlowEngine`],
//! [`IdempotencyStore`], and [`ConcurrencyLimits`] behind a write-ahead
//! [`Journal`]: every mutation is appended as a record first, then applied
//! through the same code path replay uses, so "replay the journal" and
//! "re-run the mutations" are one and the same — state after recovery is
//! byte-for-byte the state before the crash.
//!
//! Recovery alone is not enough: the dead incarnation may have left Slurm
//! jobs, Globus transfers, and Compute invocations running at the
//! facilities. The journal's `ExternalSubmitted`/`ExternalResolved`
//! ledger tells the new incarnation which handles are still open; the
//! fate helpers ([`job_fate`], [`transfer_fate`], [`compute_fate`]) ask
//! the live services what actually became of them, and
//! [`cancel_orphan_jobs`] reaps jobs the (possibly torn) journal never
//! heard about.

use crate::engine::{FlowEngine, FlowRunId, FlowState, TaskState};
use crate::idempotency::{Claim, IdempotencyStore};
use crate::journal::{ExternalKind, Journal, JournalRecord, TailReport};
use crate::limits::ConcurrencyLimits;
use als_globus::compute::{ComputeEndpoint, ComputeTaskId, ComputeTaskState};
use als_globus::transfer::{TaskId, TaskStatus, TransferService};
use als_hpc::scheduler::{JobId, JobState, Scheduler};
use als_simcore::{SimDuration, SimInstant};
use als_telemetry::{Counter, Histogram, Registry, TraceEvent, TraceStore};
use std::collections::{BTreeMap, BTreeSet};

/// An external operation the journal believes is still in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingOp {
    pub kind: ExternalKind,
    pub handle: u64,
    pub run: FlowRunId,
    /// Caller-defined re-attachment context (JSON), recorded at submit.
    pub ctx: String,
}

/// A retry that was scheduled but had not fired when the crash hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingRetry {
    pub run: FlowRunId,
    pub task: usize,
    pub attempt: u32,
    pub delay: SimDuration,
}

/// What [`DurableOrchestrator::recover_shard`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInfo {
    /// Journal-tail verdict (torn/corrupt bytes truncated).
    pub tail: TailReport,
    /// Records replayed from the valid prefix.
    pub replayed: u64,
    /// External operations still open per the journal — re-attach or
    /// cancel these against live facility state.
    pub pending_external: Vec<PendingOp>,
    /// Retries decided but not yet executed.
    pub pending_retries: Vec<PendingRetry>,
    /// Idempotency keys whose leases were held by dead incarnations and
    /// were force-expired.
    pub expired_leases: Vec<String>,
}

/// The orchestrator's durable core: engine + idempotency + limits, every
/// mutation journaled ahead of application.
#[derive(Debug, Clone, Default)]
pub struct DurableOrchestrator {
    journal: Journal,
    pub engine: FlowEngine,
    pub idempotency: IdempotencyStore,
    pub limits: ConcurrencyLimits,
    holder: String,
    /// Open external operations: handle → (owning run, re-attach ctx).
    open_external: BTreeMap<(ExternalKind, u64), (FlowRunId, String)>,
    /// Every handle this journal ever recorded a submission for, open or
    /// since resolved. Rebuilt by replay; recovery uses it to tell
    /// re-attachable operations from true orphans whose submission
    /// record was destroyed with the journal tail.
    seen_external: BTreeSet<(ExternalKind, u64)>,
    /// Projection of journaled `SpanEvent` records — rebuilt by replay,
    /// so traces survive a crash exactly like the engine state does.
    traces: TraceStore,
    /// Record-carried timestamp of the oldest frame still pending in the
    /// group-commit buffer (None when the journal is drained).
    pending_since: Option<SimInstant>,
    /// Latest record-carried timestamp seen — the shard's notion of
    /// "now" without ever reading a wall clock.
    last_now: Option<SimInstant>,
    metrics: Option<OrchMetrics>,
}

/// Interned registry handles for the durable core.
#[derive(Debug, Clone)]
struct OrchMetrics {
    /// Age (µs, record timestamps) of the oldest pending frame when its
    /// flush finally lands — the durability lag group commit trades for
    /// fewer writes.
    group_commit_latency: Histogram,
    span_events: Counter,
}

impl DurableOrchestrator {
    /// A fresh shard of an `n`-shard fleet: run ids strided so `id % total
    /// == index`, and the journal in group-commit mode (`batch <= 1` =
    /// immediate durability, the unsharded behaviour).
    pub fn shard(holder: &str, now: SimInstant, index: u64, total: u64, batch: usize) -> Self {
        assert!(index < total, "shard index out of range");
        let mut o = DurableOrchestrator {
            holder: holder.to_string(),
            engine: FlowEngine::with_stride(index, total),
            ..Default::default()
        };
        o.record(JournalRecord::IncarnationStarted {
            holder: holder.to_string(),
            at: now,
        });
        o.journal.set_group_commit(batch);
        o
    }

    /// This incarnation's identity (the lease holder string).
    pub fn holder(&self) -> &str {
        &self.holder
    }

    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable journal access — fault injection only (tearing the tail to
    /// simulate a write cut short by the crash).
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Attach registry handles to this shard: the journal write metrics
    /// plus `orch_group_commit_latency_us` and `orch_span_events_total`.
    /// Handles are shared cells, so instrumenting a fleet's shards with
    /// one registry yields fleet totals.
    pub fn instrument(&mut self, registry: &Registry) {
        self.journal.instrument(registry);
        let m = OrchMetrics {
            group_commit_latency: registry.histogram("orch_group_commit_latency_us", &[]),
            span_events: registry.counter("orch_span_events_total", &[]),
        };
        m.span_events.add(self.traces.events_applied());
        self.metrics = Some(m);
    }

    /// Write-ahead: append the record, then apply it. Apply is the same
    /// function replay uses, which is what makes recovery exact.
    fn record(&mut self, rec: JournalRecord) {
        if let Some(at) = rec.timestamp() {
            self.last_now = Some(self.last_now.map_or(at, |n| n.max(at)));
        }
        self.journal.append(&rec);
        self.note_durability();
        self.apply(&rec);
    }

    /// Group-commit latency bookkeeping, on record-carried `SimInstant`s
    /// only (telemetry never reads the wall clock): stamp the oldest
    /// pending frame's time, and when the journal drains — batch-bound
    /// auto-flush or explicit barrier — record how long it sat pending.
    fn note_durability(&mut self) {
        if self.journal.pending_records() == 0 {
            if let (Some(m), Some(since), Some(now)) =
                (&self.metrics, self.pending_since, self.last_now)
            {
                m.group_commit_latency
                    .record(now.duration_since(since).as_micros());
            }
            self.pending_since = None;
        } else if self.pending_since.is_none() {
            self.pending_since = self.last_now;
        }
    }

    /// Commit barrier: force any pending group-commit frames into the
    /// durable image. A no-op in immediate mode.
    pub fn commit(&mut self) -> bool {
        let flushed = self.journal.flush();
        if flushed {
            self.note_durability();
        }
        flushed
    }

    fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::IncarnationStarted { .. } => {}
            JournalRecord::FlowCreated { run, flow, at } => {
                let id = self.engine.create_run(flow, *at);
                debug_assert_eq!(id.0, *run, "journal and engine disagree on run id");
            }
            JournalRecord::FlowParam { run, key, value } => {
                self.engine.set_parameter(FlowRunId(*run), key, value);
            }
            JournalRecord::FlowStarted { run, at } => {
                self.engine.start_run(FlowRunId(*run), *at);
            }
            JournalRecord::FlowFinished { run, state, at } => {
                self.engine.finish_run(FlowRunId(*run), *state, *at);
            }
            JournalRecord::TaskStarted {
                run,
                task,
                name,
                key,
                at,
            } => {
                let idx = self
                    .engine
                    .start_task(FlowRunId(*run), name, key.as_deref(), *at);
                debug_assert_eq!(idx, *task, "journal and engine disagree on task index");
            }
            JournalRecord::TaskFinished {
                run,
                task,
                state,
                at,
                error,
            } => {
                self.engine
                    .finish_task(FlowRunId(*run), *task, *state, *at, error.as_deref());
            }
            JournalRecord::TaskRetried { run, task, at } => {
                self.engine.retry_task(FlowRunId(*run), *task, *at);
            }
            JournalRecord::RetryScheduled { .. } => {} // decision only; fires as TaskRetried
            JournalRecord::ClaimAcquired {
                key,
                holder,
                deadline,
            } => {
                self.idempotency.install_lease(key, holder, *deadline);
            }
            JournalRecord::ClaimCompleted { key } => self.idempotency.complete(key),
            JournalRecord::ClaimReleased { key } => self.idempotency.release(key),
            JournalRecord::LeaseExpired { key, .. } => self.idempotency.release(key),
            JournalRecord::LimitSet { tag, limit } => self.limits.set_limit(tag, *limit),
            JournalRecord::LimitAcquired { tag } => {
                let ok = self.limits.try_acquire(tag);
                debug_assert!(ok, "journaled acquire must re-admit on replay");
            }
            JournalRecord::LimitReleased { tag } => self.limits.release(tag),
            JournalRecord::LimitRejected { tag } => {
                // counter-only: the refusal may have been a *fleet-level*
                // decision (another shard's pool was full), so re-running
                // try_acquire against this shard's local pool would be
                // wrong — only the rejection tally is state
                self.limits.note_rejection(tag);
            }
            JournalRecord::ExternalSubmitted {
                kind,
                handle,
                run,
                ctx,
            } => {
                self.open_external
                    .insert((*kind, *handle), (FlowRunId(*run), ctx.clone()));
                self.seen_external.insert((*kind, *handle));
            }
            JournalRecord::ExternalResolved { kind, handle } => {
                self.open_external.remove(&(*kind, *handle));
            }
            JournalRecord::SpanEvent { ev } => {
                if let Some(m) = &self.metrics {
                    m.span_events.inc();
                }
                self.traces.apply(ev);
            }
        }
    }

    // ----- journaled flow/task operations ------------------------------

    pub fn create_run(&mut self, flow: &str, now: SimInstant) -> FlowRunId {
        let id = FlowRunId(self.engine.peek_next_id());
        self.record(JournalRecord::FlowCreated {
            run: id.0,
            flow: flow.to_string(),
            at: now,
        });
        id
    }

    pub fn set_parameter(&mut self, id: FlowRunId, key: &str, value: &str) {
        self.record(JournalRecord::FlowParam {
            run: id.0,
            key: key.to_string(),
            value: value.to_string(),
        });
    }

    pub fn start_run(&mut self, id: FlowRunId, now: SimInstant) {
        self.record(JournalRecord::FlowStarted { run: id.0, at: now });
    }

    pub fn finish_run(&mut self, id: FlowRunId, state: FlowState, now: SimInstant) {
        self.record(JournalRecord::FlowFinished {
            run: id.0,
            state,
            at: now,
        });
    }

    pub fn start_task(
        &mut self,
        id: FlowRunId,
        name: &str,
        key: Option<&str>,
        now: SimInstant,
    ) -> usize {
        let idx = self.engine.run(id).map_or(0, |r| r.tasks.len());
        self.record(JournalRecord::TaskStarted {
            run: id.0,
            task: idx,
            name: name.to_string(),
            key: key.map(str::to_string),
            at: now,
        });
        idx
    }

    pub fn finish_task(
        &mut self,
        id: FlowRunId,
        task: usize,
        state: TaskState,
        now: SimInstant,
        error: Option<&str>,
    ) {
        self.record(JournalRecord::TaskFinished {
            run: id.0,
            task,
            state,
            at: now,
            error: error.map(str::to_string),
        });
    }

    pub fn retry_task(&mut self, id: FlowRunId, task: usize, now: SimInstant) {
        self.record(JournalRecord::TaskRetried {
            run: id.0,
            task,
            at: now,
        });
    }

    /// Journal a retry *decision* (the backoff delay chosen by the retry
    /// policy) so a restarted incarnation knows the retry is owed.
    pub fn schedule_retry(&mut self, id: FlowRunId, task: usize, attempt: u32, delay: SimDuration) {
        self.record(JournalRecord::RetryScheduled {
            run: id.0,
            task,
            attempt,
            delay,
        });
    }

    // ----- journaled idempotency operations ----------------------------

    /// Claim a key under a lease. Journals the lease eviction (if an
    /// expired one was stolen) and the acquisition; `Cached`/`Busy`
    /// outcomes change no state and are not journaled.
    pub fn claim(&mut self, key: &str, now: SimInstant, lease: SimDuration) -> Claim {
        if self.idempotency.is_completed(key) {
            return Claim::Cached;
        }
        if let Some(l) = self.idempotency.lease(key) {
            if l.is_live(now) {
                return Claim::Busy;
            }
            let holder = l.holder.clone();
            self.record(JournalRecord::LeaseExpired {
                key: key.to_string(),
                holder,
            });
        }
        self.record(JournalRecord::ClaimAcquired {
            key: key.to_string(),
            holder: self.holder.clone(),
            deadline: now + lease,
        });
        Claim::Run
    }

    pub fn complete(&mut self, key: &str) {
        if !self.idempotency.is_completed(key) {
            self.record(JournalRecord::ClaimCompleted {
                key: key.to_string(),
            });
        }
    }

    pub fn release(&mut self, key: &str) {
        if self.idempotency.lease(key).is_some() {
            self.record(JournalRecord::ClaimReleased {
                key: key.to_string(),
            });
        }
    }

    // ----- journaled concurrency-limit operations ----------------------

    pub fn set_limit(&mut self, tag: &str, limit: usize) {
        self.record(JournalRecord::LimitSet {
            tag: tag.to_string(),
            limit,
        });
    }

    pub fn try_acquire(&mut self, tag: &str) -> bool {
        let admit = self.limits.would_admit(tag);
        self.record(if admit {
            JournalRecord::LimitAcquired {
                tag: tag.to_string(),
            }
        } else {
            JournalRecord::LimitRejected {
                tag: tag.to_string(),
            }
        });
        admit
    }

    pub fn release_limit(&mut self, tag: &str) {
        self.record(JournalRecord::LimitReleased {
            tag: tag.to_string(),
        });
    }

    // ----- journaled trace spans ---------------------------------------

    /// Journal a trace span event. Spans ride the WAL next to the state
    /// records, so recovery replays them into the identical trace store
    /// (and therefore the identical latency report).
    pub fn record_span(&mut self, ev: TraceEvent) {
        self.record(JournalRecord::SpanEvent { ev });
    }

    /// The journaled-span projection.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    // ----- external-operation ledger -----------------------------------

    /// Record that an external operation (job/transfer/invocation) was
    /// handed to a facility service. This is a commit barrier: the
    /// submission record (and everything queued before it — the claim,
    /// the task start) is flushed durable immediately, because from this
    /// instant a side effect exists at a facility that the journal must
    /// not forget.
    pub fn external_submitted(
        &mut self,
        kind: ExternalKind,
        handle: u64,
        run: FlowRunId,
        ctx: &str,
    ) {
        self.record(JournalRecord::ExternalSubmitted {
            kind,
            handle,
            run: run.0,
            ctx: ctx.to_string(),
        });
        if self.journal.flush() {
            self.note_durability();
        }
    }

    /// Record that the operation reached a terminal state (success or
    /// failure — either way it is no longer open).
    pub fn external_resolved(&mut self, kind: ExternalKind, handle: u64) {
        if self.open_external.contains_key(&(kind, handle)) {
            self.record(JournalRecord::ExternalResolved { kind, handle });
        }
    }

    /// Is this handle still open per the journal?
    pub fn external_is_open(&self, kind: ExternalKind, handle: u64) -> bool {
        self.open_external.contains_key(&(kind, handle))
    }

    /// Did this journal *ever* record the handle's submission (open or
    /// resolved)? `false` after recovery means the facility is running
    /// work the journal never heard about — the submission record was
    /// destroyed, and the operation must be adopted or cancelled.
    pub fn external_ever_seen(&self, kind: ExternalKind, handle: u64) -> bool {
        self.seen_external.contains(&(kind, handle))
    }

    /// Runs that still own an open external operation — these must *not*
    /// be resumed by re-running their steps (the operation itself will
    /// report back); everything else non-terminal is fair game.
    pub fn runs_with_open_ops(&self) -> BTreeSet<FlowRunId> {
        self.open_external.values().map(|(run, _)| *run).collect()
    }

    pub fn open_external_count(&self) -> usize {
        self.open_external.len()
    }

    // ----- recovery ----------------------------------------------------

    /// Rebuild shard `index` of an `n`-shard fleet (`(0, 1, 0)` for a
    /// lone orchestrator) from a crash-surviving journal image: truncate
    /// any torn tail, replay the valid prefix through the same apply path
    /// live operations use, force-expire leases held by dead
    /// incarnations, and report what still needs reconciling against
    /// live facility state. The engine is pre-configured with the shard's
    /// id stride *before* replay (so `FlowCreated` records land on the
    /// same ids they were journaled with), and the journal re-enters
    /// group-commit mode only after the recovery records themselves are
    /// durable.
    pub fn recover_shard(
        bytes: &[u8],
        holder: &str,
        now: SimInstant,
        index: u64,
        total: u64,
        batch: usize,
    ) -> (Self, RecoveryInfo) {
        assert!(index < total, "shard index out of range");
        let (journal, records, tail) = Journal::from_bytes(bytes);
        let mut orch = DurableOrchestrator {
            journal,
            engine: FlowEngine::with_stride(index, total),
            holder: holder.to_string(),
            ..Default::default()
        };
        // retries owed = scheduled minus fired, per (run, task)
        let mut owed: BTreeMap<(u64, usize), Vec<PendingRetry>> = BTreeMap::new();
        for rec in &records {
            match rec {
                JournalRecord::RetryScheduled {
                    run,
                    task,
                    attempt,
                    delay,
                } => owed.entry((*run, *task)).or_default().push(PendingRetry {
                    run: FlowRunId(*run),
                    task: *task,
                    attempt: *attempt,
                    delay: *delay,
                }),
                JournalRecord::TaskRetried { run, task, .. } => {
                    if let Some(v) = owed.get_mut(&(*run, *task)) {
                        v.pop();
                    }
                }
                _ => {}
            }
            orch.apply(rec);
        }
        let replayed = records.len() as u64;
        orch.record(JournalRecord::IncarnationStarted {
            holder: holder.to_string(),
            at: now,
        });
        // the previous incarnation is dead by definition: its leases
        // protect nothing any more
        let expired_leases = orch.expire_foreign_leases(now);
        let pending_external = orch
            .open_external
            .iter()
            .map(|((kind, handle), (run, ctx))| PendingOp {
                kind: *kind,
                handle: *handle,
                run: *run,
                ctx: ctx.clone(),
            })
            .collect();
        let info = RecoveryInfo {
            tail,
            replayed,
            pending_external,
            pending_retries: owed.into_values().flatten().collect(),
            expired_leases,
        };
        // recovery records above were written in immediate mode (durable
        // at once); only new work batches
        orch.journal.set_group_commit(batch);
        (orch, info)
    }

    /// Force-expire every lease not held by this incarnation (journaled).
    pub fn expire_foreign_leases(&mut self, _now: SimInstant) -> Vec<String> {
        let foreign = self.idempotency.foreign_leases(&self.holder);
        for key in &foreign {
            let holder = self
                .idempotency
                .lease(key)
                .map(|l| l.holder.clone())
                .unwrap_or_default();
            self.record(JournalRecord::LeaseExpired {
                key: key.clone(),
                holder,
            });
        }
        foreign
    }
}

// ----- facility-state reconciliation ----------------------------------

/// What actually became of an external operation while the orchestrator
/// was dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFate {
    /// Finished successfully; harvest the result.
    Completed,
    /// Reached a terminal failure state.
    Failed,
    /// Still pending/running; re-attach and keep waiting.
    Live,
    /// The facility has no record of it.
    Lost,
}

/// Ask the Slurm scheduler what became of a journaled job.
pub fn job_fate(sched: &Scheduler, id: JobId) -> OpFate {
    match sched.state(id) {
        None => OpFate::Lost,
        Some(JobState::Pending | JobState::Running) => OpFate::Live,
        Some(JobState::Completed) => OpFate::Completed,
        Some(JobState::TimedOut | JobState::Cancelled | JobState::Failed) => OpFate::Failed,
    }
}

/// Ask the transfer service what became of a journaled transfer.
pub fn transfer_fate(svc: &TransferService, id: TaskId) -> OpFate {
    match svc.status(id) {
        None => OpFate::Lost,
        Some(TaskStatus::Queued | TaskStatus::Active | TaskStatus::Hung) => OpFate::Live,
        Some(TaskStatus::Succeeded) => OpFate::Completed,
        Some(TaskStatus::Failed(_) | TaskStatus::Cancelled) => OpFate::Failed,
    }
}

/// Ask the compute endpoint what became of a journaled invocation.
pub fn compute_fate(ep: &ComputeEndpoint, id: ComputeTaskId) -> OpFate {
    match ep.state(id) {
        None => OpFate::Lost,
        Some(ComputeTaskState::Pending | ComputeTaskState::Running) => OpFate::Live,
        Some(ComputeTaskState::Completed) => OpFate::Completed,
        Some(ComputeTaskState::Cancelled | ComputeTaskState::Failed) => OpFate::Failed,
    }
}

/// Cancel live jobs matching `name_prefix` that the journal knows nothing
/// about — submissions whose `ExternalSubmitted` record was lost in the
/// torn tail. Background (non-prefixed) jobs belong to other users and
/// are left alone. Returns the reaped job ids.
pub fn cancel_orphan_jobs(
    sched: &mut Scheduler,
    known: &BTreeSet<u64>,
    name_prefix: &str,
    now: SimInstant,
) -> Vec<JobId> {
    let orphans: Vec<JobId> = sched
        .live_jobs()
        .into_iter()
        .filter(|id| {
            !known.contains(&id.0)
                && sched
                    .job_name(*id)
                    .is_some_and(|n| n.starts_with(name_prefix))
        })
        .collect();
    for &id in &orphans {
        sched.cancel(id, now);
    }
    orphans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedOrchestrator;
    use als_hpc::scheduler::{JobRequest, Qos};

    fn t(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    const LEASE: SimDuration = SimDuration::from_secs(3600);

    fn scripted_orchestrator() -> DurableOrchestrator {
        let mut o = ShardedOrchestrator::production("orch-0", t(0), 1, 0).shards()[0].clone();
        let run = o.create_run("nersc_recon_flow", t(1));
        o.set_parameter(run, "scan", "scan_0001");
        o.start_run(run, t(1));
        assert_eq!(o.claim("scan_0001/copy", t(1), LEASE), Claim::Run);
        assert!(o.try_acquire("globus-transfer"));
        let task = o.start_task(run, "globus_copy_to_hpc", Some("scan_0001/copy"), t(1));
        o.external_submitted(ExternalKind::Transfer, 11, run, "{\"scan\":1}");
        o.finish_task(run, task, TaskState::Completed, t(90), None);
        o.external_resolved(ExternalKind::Transfer, 11);
        o.release_limit("globus-transfer");
        o.complete("scan_0001/copy");
        assert_eq!(o.claim("scan_0001/job", t(90), LEASE), Claim::Run);
        o.schedule_retry(run, task, 1, SimDuration::from_secs(10));
        o.external_submitted(ExternalKind::Job, 3, run, "{\"scan\":1}");
        // second run left mid-flight (claim held, op open)
        let run2 = o.create_run("alcf_recon_flow", t(100));
        o.start_run(run2, t(100));
        assert_eq!(o.claim("scan_0002/copy", t(100), LEASE), Claim::Run);
        o.external_submitted(ExternalKind::Transfer, 12, run2, "{\"scan\":2}");
        o
    }

    #[test]
    fn recovery_reproduces_state_exactly() {
        let live = scripted_orchestrator();
        let (rec, info) =
            DurableOrchestrator::recover_shard(live.journal().bytes(), "orch-1", t(200), 0, 1, 0);
        assert!(info.tail.is_clean());
        assert_eq!(rec.engine, live.engine);
        assert_eq!(rec.limits, live.limits);
        assert_eq!(rec.open_external, live.open_external);
        // idempotency matches except the foreign leases recovery expired
        assert_eq!(
            rec.idempotency.completed_count(),
            live.idempotency.completed_count()
        );
        assert_eq!(rec.idempotency.in_flight_count(), 0, "dead leases expired");
        assert_eq!(info.expired_leases.len(), 2);
        assert_eq!(info.pending_external.len(), 2);
        assert_eq!(info.pending_retries.len(), 1);
        assert_eq!(
            rec.runs_with_open_ops(),
            BTreeSet::from([FlowRunId(0), FlowRunId(1)])
        );
    }

    #[test]
    fn recovery_truncates_a_torn_tail_and_keeps_the_prefix() {
        let mut live = scripted_orchestrator();
        let clean_records = live.journal().record_count();
        live.journal_mut().tear_tail(7);
        let (rec, info) =
            DurableOrchestrator::recover_shard(live.journal().bytes(), "orch-1", t(200), 0, 1, 0);
        assert!(!info.tail.is_clean());
        assert!(info.tail.dropped_bytes > 0);
        assert!(info.replayed < clean_records, "the torn record is gone");
        // the recovered engine equals a replay of just the valid prefix
        let (prefix_records, _) = Journal::replay_bytes(rec.journal().bytes());
        let mut shadow = DurableOrchestrator::default();
        for r in prefix_records.iter().take(info.replayed as usize) {
            shadow.apply(r);
        }
        assert_eq!(rec.engine, shadow.engine);
    }

    #[test]
    fn recovered_journal_accepts_new_appends() {
        let live = scripted_orchestrator();
        let (mut rec, _) =
            DurableOrchestrator::recover_shard(live.journal().bytes(), "orch-1", t(200), 0, 1, 0);
        let run = rec.create_run("new_file_832", t(201));
        assert_eq!(
            run.0, 2,
            "run ids continue where the dead incarnation stopped"
        );
        let (rec2, info2) =
            DurableOrchestrator::recover_shard(rec.journal().bytes(), "orch-2", t(300), 0, 1, 0);
        assert!(info2.tail.is_clean());
        assert_eq!(rec2.engine, rec.engine);
    }

    #[test]
    fn journaled_spans_replay_to_the_identical_report() {
        use als_telemetry::{SpanOutcome, Stage};
        let scan = "scan_0001";
        let mut o = DurableOrchestrator::shard("orch-0", t(0), 0, 1, 0);
        let start = |span, parent, stage, fac: &str, at| TraceEvent::Start {
            scan: scan.into(),
            span,
            parent,
            stage,
            facility: fac.into(),
            at,
        };
        let end = |span, at, outcome| TraceEvent::End {
            scan: scan.into(),
            span,
            at,
            outcome,
        };
        o.record_span(start(0, None, Stage::Ingest, "als", t(0)));
        o.record_span(end(0, t(12), SpanOutcome::Ok));
        // transfer to NERSC fails; the redirect span supersedes it
        o.record_span(start(1, None, Stage::Transfer, "nersc", t(12)));
        o.record_span(end(1, t(80), SpanOutcome::Failed));
        o.record_span(start(2, Some(1), Stage::Transfer, "alcf", t(80)));
        o.record_span(TraceEvent::Note {
            scan: scan.into(),
            span: 2,
            at: t(80),
            key: "router".into(),
            value: "breaker=Open hop=1".into(),
        });
        o.record_span(end(2, t(150), SpanOutcome::Ok));
        let live_report = o.traces().report();

        let (rec, info) =
            DurableOrchestrator::recover_shard(o.journal().bytes(), "orch-1", t(500), 0, 1, 0);
        assert!(info.tail.is_clean());
        assert_eq!(rec.traces(), o.traces(), "replay rebuilds the trace store");
        assert_eq!(rec.traces().report(), live_report, "…and the report");
        assert_eq!(
            rec.traces().max_span_id(),
            Some(2),
            "the new incarnation resumes its span allocator above this"
        );
        let tr = rec.traces().scan(scan).unwrap();
        assert_eq!(tr.span(2).unwrap().parent, Some(1));
        assert_eq!(tr.span(2).unwrap().notes[0].key, "router");
    }

    #[test]
    fn group_commit_latency_is_measured_on_record_timestamps() {
        let registry = Registry::new();
        let mut o = DurableOrchestrator::shard("orch-0", t(0), 0, 1, 64);
        o.instrument(&registry);
        let run = o.create_run("nersc_recon_flow", t(10)); // oldest pending
        o.start_run(run, t(10));
        o.finish_run(run, FlowState::Completed, t(25));
        o.commit(); // barrier at last_now = t(25): 15 s pending
        let snap = registry.snapshot();
        let h = &snap.histograms["orch_group_commit_latency_us"];
        assert_eq!(h.count, 1);
        assert_eq!(h.min, Some(15_000_000));
        // submission barrier measures too
        let run2 = o.create_run("alcf_recon_flow", t(30));
        o.external_submitted(ExternalKind::Job, 9, run2, "{}");
        assert_eq!(
            registry.snapshot().histograms["orch_group_commit_latency_us"].count,
            2
        );
    }

    #[test]
    fn orphan_jobs_are_cancelled_by_prefix() {
        let mut sched = Scheduler::new(8);
        let req = |name: &str| JobRequest {
            name: name.to_string(),
            qos: Qos::Realtime,
            nodes: 1,
            runtime: SimDuration::from_secs(600),
            walltime_limit: SimDuration::from_secs(7200),
        };
        let (known_job, _) = sched.submit(req("recon_scan_0001"), t(0));
        let (orphan_job, _) = sched.submit(req("recon_scan_0002"), t(0));
        let (background, _) = sched.submit(req("background"), t(0));
        let known = BTreeSet::from([known_job.0]);
        let reaped = cancel_orphan_jobs(&mut sched, &known, "recon_", t(10));
        assert_eq!(reaped, vec![orphan_job]);
        assert_eq!(sched.state(orphan_job), Some(JobState::Cancelled));
        assert_ne!(sched.state(known_job), Some(JobState::Cancelled));
        assert_ne!(sched.state(background), Some(JobState::Cancelled));
    }

    #[test]
    fn fates_classify_job_states() {
        let mut sched = Scheduler::new(4);
        let (job, _) = sched.submit(
            JobRequest {
                name: "recon_x".into(),
                qos: Qos::Realtime,
                nodes: 1,
                runtime: SimDuration::from_secs(100),
                walltime_limit: SimDuration::from_secs(1000),
            },
            t(0),
        );
        assert_eq!(job_fate(&sched, job), OpFate::Live);
        sched.advance_to(t(500));
        assert_eq!(job_fate(&sched, job), OpFate::Completed);
        assert_eq!(job_fate(&sched, JobId(999)), OpFate::Lost);
    }
}
