//! # als-flows
//!
//! The paper's primary contribution, reimplemented in Rust: the
//! multi-facility workflow infrastructure that connects the ALS
//! microtomography beamline (8.3.2) to NERSC and ALCF.
//!
//! Two execution modes:
//!
//! * **Real mode** — the streaming branch runs for real: detector frames
//!   from [`als_phantom`] flow through [`als_stream`]'s PVA mirror into
//!   the file writer and the streaming reconstruction service, and actual
//!   reconstructions come back. Used by the examples and the quality
//!   experiments.
//! * **Simulated mode** — the multi-facility campaign replays at paper
//!   scale (20–30 GB scans, 100-scan campaigns) on the deterministic
//!   event kernel: Globus transfers over the ESnet model, SFAPI/Slurm at
//!   NERSC with `realtime` QOS, Globus Compute pilot jobs at ALCF, flow
//!   lifecycle recorded in the Prefect-substitute engine. Table 2 and the
//!   lifecycle/incident experiments come from this mode.
//!
//! Module map:
//!
//! * [`users`] — Table 1's user archetypes;
//! * [`scan`] — scan workload model (sizes, cadence, scaled dimensions);
//! * [`sim`] — the multi-facility discrete-event simulation: the
//!   `new_file_832`, `nersc_recon_flow`, and `alcf_recon_flow` state
//!   machines over the shared services;
//! * [`campaign`] — campaign driver + Table 2 report;
//! * [`streaming_model`] — paper-scale streaming-branch timing (S1) and
//!   the >100× historical speedup comparison (S2);
//! * [`lifecycle`] — data-lifecycle / pruning experiment (S3);
//! * [`incident`] — the §5.3 prune-burst incident reproduction (S4);
//! * [`realmode`] — glue running the real-threaded end-to-end path;
//! * [`dynamic`] — the §6 4D time-resolved extension (future work,
//!   implemented);
//! * [`archive`] — HPSS archival flows via Slurm/SFAPI (§4.2.3);
//! * [`multibeamline`] — the §6 fleet-scaling / reserved-compute
//!   experiment.

pub mod archive;
pub mod campaign;
pub mod dynamic;
pub mod faults;
pub mod incident;
pub mod lifecycle;
pub mod multibeamline;
pub mod observability;
pub mod realmode;
pub mod recovery;
pub mod resilience;
pub mod routing;
pub mod scan;
pub mod shard_recovery;
pub mod sim;
pub mod streaming_model;
pub mod users;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use faults::{FaultKind, FaultPlan, FaultWindow, OrchestratorCrash};
pub use observability::{
    run_observability, run_observability_sim, ObservabilityBundle, ObservabilityReport,
};
pub use recovery::{
    recovery_comparison, recovery_experiment, RecoveryComparison, RecoveryOutcome, RecoveryReport,
};
pub use resilience::{
    resilience_comparison, resilience_experiment, ResilienceComparison, ResilienceOutcome,
    ResilienceReport,
};
pub use routing::{
    routing_comparison, routing_experiment, RoutingComparison, RoutingOutcome, RoutingReport,
};
pub use scan::{Scan, ScanId, ScanWorkload};
pub use shard_recovery::{
    run_shard_chaos_sim, shard_chaos_experiment, shard_chaos_outcome, ShardChaosOutcome,
    ShardChaosReport,
};
pub use sim::{FacilitySim, SimConfig};
pub use users::{user_archetypes, UserArchetype};
