//! # als-orchestrator
//!
//! The workflow orchestration layer — a Prefect substitute providing what
//! the paper's §4.2.2 describes:
//!
//! * [`engine`] — flow and task runs with full lifecycle states, retries,
//!   and a queryable run database (Table 2 is produced by querying it,
//!   exactly as the paper queried the Prefect server API);
//! * [`idempotency`] — idempotent task semantics "that support safe
//!   retries of specific steps in case of failure";
//! * [`limits`] — named concurrency-limit pools ("tuned concurrency for
//!   scan detection tasks, but lower concurrency for HPC job submission
//!   to prevent queue conflicts");
//! * [`schedule`] — periodic schedules for the pruning flows;
//! * [`journal`] — append-only write-ahead event journal with
//!   per-record checksums and torn-tail detection;
//! * [`recovery`] — crash recovery by journal replay plus reconciliation
//!   against live facility state (orphaned jobs, in-flight transfers,
//!   leases held by the dead incarnation);
//! * [`shard`] — the durable core partitioned across N journal shards
//!   with group-commit batching, per-shard event loops, and fleet-wide
//!   recovery that isolates damage to the shard that suffered it.

pub mod engine;
pub mod idempotency;
pub mod journal;
pub mod limits;
pub mod recovery;
pub mod schedule;
pub mod shard;

pub use engine::{FlowEngine, FlowRunId, FlowState, RetryPolicy, RunQuery, TaskState};
pub use idempotency::{Claim, IdempotencyStore, Lease};
pub use journal::{ExternalKind, Journal, JournalRecord, TailDamage, TailReport};
pub use limits::ConcurrencyLimits;
pub use recovery::{
    cancel_orphan_jobs, compute_fate, job_fate, transfer_fate, DurableOrchestrator, OpFate,
    PendingOp, PendingRetry, RecoveryInfo,
};
pub use schedule::Schedule;
pub use shard::{shard_of_key, FleetRecoveryInfo, ShardPool, ShardedOrchestrator};
