//! # als-hpc
//!
//! Facility-side substrates for the multi-facility simulation:
//!
//! * [`scheduler`] — a Slurm-like batch scheduler with partitions, QOS
//!   priorities (including NERSC's `realtime` QOS the paper's jobs use),
//!   FIFO-within-priority dispatch and conservative backfill;
//! * [`sfapi`] — a Superfacility-API-shaped facade over the scheduler:
//!   token-authenticated sessions, job submission/status/cancel, the
//!   collaboration-account model;
//! * [`storage`] — tiered storage (beamline spinning disk, pscratch, CFS,
//!   Eagle, HPSS) with capacity accounting, per-tier retention, and the
//!   age-based pruning the orchestration layer schedules;
//! * [`health`] — the 12–24-hourly service health checks that catch a
//!   silently dead service (§5.3 production lessons);
//! * [`circuit`] — per-facility circuit breakers that gate where new work
//!   is routed during an outage (§5.3 remediation).

pub mod circuit;
pub mod health;
pub mod scheduler;
pub mod sfapi;
pub mod storage;

pub use circuit::{BreakerConfig, BreakerState, CircuitBreaker};
pub use health::{Environment, HealthCheck, HealthMonitor, HealthState};
pub use scheduler::{JobEvent, JobId, JobRequest, JobState, Qos, Scheduler};
pub use sfapi::{SfApiClient, SfApiError, SfApiServer};
pub use storage::{PruneReport, StorageError, StorageTier, TierKind};
