//! The multi-facility discrete-event simulation.
//!
//! This is the paper's Figure 3 as an executable model: the acquisition
//! layer emits scans; the orchestration layer runs the `new_file_832`,
//! `nersc_recon_flow`, and `alcf_recon_flow` state machines; the movement
//! layer is the Globus transfer service over the ESnet topology; the
//! compute layer is a fleet of pluggable [`FacilityController`] backends
//! — SFAPI/Slurm (realtime QOS) at NERSC, Globus Compute pilot jobs at
//! ALCF, and batch Slurm with long queue holds at OLCF; the access layer
//! is the storage tiers + catalogue the results land in. Every flow run
//! is recorded in the Prefect-substitute engine, which is what the
//! Table 2 report queries.
//!
//! Branch placement is delegated to the cost-aware [`Router`]: every
//! branch has a home facility, and under rolling outages the router
//! re-targets it — possibly more than once — to the cheapest admissible
//! site by queue wait × estimated transfer time, cancelling work
//! stranded at abandoned sites and re-admitting recovered facilities
//! through dedicated probe jobs.

use crate::faults::{CrashDamage, FaultKind, FaultPlan};
use crate::scan::{Scan, ScanId, ScanWorkload};
use als_catalog::{raw_scan_dataset, recon_dataset, Catalog, DatasetPid, InstrumentMetadata};
use als_facility::{
    AlcfController, CandidateView, Facility, FacilityController, FacilityFault, FacilityTask,
    NerscController, OlcfController, Router, RouterConfig, RouterMode, SubmitSpec, PROBE_PREFIX,
    RECON_PREFIX,
};
use als_globus::compute::AcquisitionMode;
use als_globus::transfer::{EndpointId, TaskId, TransferEvent, TransferOptions, TransferService};
use als_globus::BandwidthMonitor;
use als_hpc::circuit::{BreakerConfig, CircuitBreaker};
use als_hpc::health::{Environment, HealthMonitor};
use als_hpc::scheduler::Qos;
use als_hpc::storage::{StorageTier, TierKind};
use als_netsim::{esnet_topology_with_nics, SiteId};
use als_orchestrator::engine::{FlowEngine, FlowRunId, FlowState, TaskState};
use als_orchestrator::schedule::Schedule;
use als_orchestrator::{
    shard_of_key, transfer_fate, Claim, ExternalKind, OpFate, ShardedOrchestrator,
};
use als_simcore::{ByteSize, EventQueue, SimDuration, SimInstant, SimRng};
use als_telemetry::{Registry, SpanId, SpanOutcome, Stage, TraceEvent, TraceStore};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Names of the three production flows (Table 2's rows).
pub const FLOW_NEW_FILE: &str = "new_file_832";
pub const FLOW_NERSC: &str = "nersc_recon_flow";
pub const FLOW_ALCF: &str = "alcf_recon_flow";

/// Simulation configuration (the ablation knobs live here).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    /// QOS for NERSC reconstruction jobs (paper: `realtime`). Router
    /// health probes ride the same QOS so a recovered facility is
    /// re-admitted promptly even behind a background-job backlog.
    pub nersc_qos: Qos,
    /// ALCF node acquisition (paper: demand queue via Globus Compute).
    pub alcf_mode: AcquisitionMode,
    /// Verify checksums on Globus transfers (paper: enabled).
    pub verify_checksums: bool,
    /// Concurrent Globus transfer tasks.
    pub transfer_concurrency: usize,
    /// Nodes in the NERSC realtime partition slice.
    pub nersc_nodes: usize,
    /// Max pilot nodes the ALCF endpoint may hold.
    pub alcf_max_nodes: usize,
    /// Whether the OLCF batch facility participates in the fleet.
    pub olcf_enabled: bool,
    /// Mean seconds between competing (non-ALS) NERSC job arrivals;
    /// `None` disables background load.
    pub background_mean_arrival_s: Option<f64>,
    /// Run the daily pruning flows.
    pub pruning_enabled: bool,
    /// Number of beamline servers feeding the pipeline (each brings its
    /// own 10 Gbps NIC — the §6 multi-beamline rollout).
    pub beamline_count: usize,
    /// Deterministic fault schedule replayed during the campaign
    /// (default: none — a healthy campaign).
    pub faults: FaultPlan,
    /// Route recon branches away from an unhealthy facility (circuit
    /// breakers + redirects, the §5.3 remediation). With an empty fault
    /// plan this changes nothing.
    pub failover_enabled: bool,
    /// Routing policy: legacy one-shot failover or cost-aware N-way.
    pub router_mode: RouterMode,
    /// Persist the orchestrator's write-ahead journal and recover from it
    /// after a crash. When `false`, a crashed orchestrator restarts empty
    /// and falls back to rescanning facility state (the measured
    /// baseline for the recovery experiment).
    pub durable_recovery: bool,
    /// Journal partitions the orchestrator shards its state across.
    /// Keys for one scan land on one shard, so a damaged shard degrades
    /// only that shard's flows.
    pub shard_count: usize,
    /// Group-commit batch per shard journal: records buffered per
    /// durable write. `<= 1` writes through on every record.
    pub group_commit_batch: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 832,
            nersc_qos: Qos::Realtime,
            alcf_mode: AcquisitionMode::DemandQueue,
            verify_checksums: true,
            transfer_concurrency: 4,
            nersc_nodes: 8,
            alcf_max_nodes: 4,
            olcf_enabled: true,
            background_mean_arrival_s: Some(360.0),
            pruning_enabled: true,
            beamline_count: 1,
            faults: FaultPlan::none(),
            failover_enabled: true,
            router_mode: RouterMode::CostAware,
            durable_recovery: true,
            shard_count: 4,
            group_commit_batch: 32,
        }
    }
}

/// Which recon branch a flow run belongs to (its *home* identity; the
/// executing facility may differ after a redirect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Nersc,
    Alcf,
}

/// Which transfer leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    ToHpc,
    Back,
}

/// Events driving the simulation.
#[derive(Debug, Clone)]
enum Ev {
    /// A scan begins acquiring.
    ScanStart(ScanId),
    /// The file writer finished saving the scan.
    ScanSaved(ScanId),
    /// `new_file_832` completed (staging + metadata ingestion done). The
    /// second field is the orchestrator epoch that scheduled it: events
    /// queued by a dead incarnation are ignored by its successor.
    NewFileDone(ScanId, u32),
    /// Poll the Globus transfer service.
    PollTransfers,
    /// Poll the facility with this [`Facility::key`].
    PollFac(u8),
    /// Daily pruning flows fire.
    PruneTick,
    /// A competing (non-ALS) job arrives at NERSC.
    BackgroundArrival,
    /// The `i`-th fault window of the plan opens.
    FaultStart(usize),
    /// The `i`-th fault window of the plan closes.
    FaultEnd(usize),
    /// Facilities emit heartbeats; the router checks for staleness.
    HealthTick,
    /// Deadline for a facility operation (facility-qualified handle): if
    /// still live, it is stranded behind an outage — cancel it remotely
    /// and re-route.
    OpDeadline(u64),
    /// The `i`-th orchestrator crash of the plan: the coordinator process
    /// dies, losing all in-memory state.
    CrashStart(usize),
    /// A new orchestrator incarnation comes up for crash `i`.
    CrashEnd(usize),
}

/// Re-attach context journaled with every external operation, enough for
/// a recovered incarnation to rebuild its dispatch tables.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct OpCtx {
    scan: u32,
    /// Flow branch served (0 = NERSC flow, 1 = ALCF flow).
    branch: u8,
    /// Transfer leg (0 = to HPC, 1 = back); 0 for jobs/invocations.
    leg: u8,
    /// Facility actually executing ([`Facility::key`]).
    fac: u8,
}

/// Calibration constants for the paper-scale cost models. Centralized so
/// the Table 2 calibration has one knob panel.
pub mod calib {
    /// new_file_832: fixed metadata-ingestion cost (s).
    pub const NEWFILE_INGEST_S: f64 = 4.0;
    /// new_file_832: median of the orchestration-jitter lognormal (s).
    pub const NEWFILE_JITTER_MED_S: f64 = 25.0;
    /// new_file_832: sigma of the jitter lognormal.
    pub const NEWFILE_JITTER_SIGMA: f64 = 1.5;
    /// new_file_832: jitter clamp (s).
    pub const NEWFILE_JITTER_MAX_S: f64 = 640.0;

    /// NERSC job: fixed startup (container, darks/flats, COR search) (s).
    pub const NERSC_JOB_FIXED_S: f64 = 200.0;
    /// NERSC job: reconstruction seconds per raw GiB (preprocessing +
    /// iterative solve + TIFF/Zarr writes on a 128-core node).
    pub const NERSC_RECON_S_PER_GIB: f64 = 52.0;

    /// ALCF function: median of the fixed-overhead lognormal (endpoint
    /// polling, function serialization, Eagle staging) (s).
    pub const ALCF_FIXED_MED_S: f64 = 560.0;
    /// ALCF function: sigma of the fixed-overhead lognormal.
    pub const ALCF_FIXED_SIGMA: f64 = 0.22;
    /// ALCF function: reconstruction seconds per raw GiB (GPU-assisted).
    pub const ALCF_RECON_S_PER_GIB: f64 = 13.0;

    /// Globus transfers fail immediately on permission errors (the §5.3
    /// remediation; the incident experiment drives the other setting).
    pub const TRANSFER_FAIL_FAST: bool = true;

    /// Nodes in the OLCF batch partition slice.
    pub const OLCF_NODES: usize = 16;
    /// OLCF job: fixed startup on a Frontier batch node (s) — the
    /// 15-minute queue hold is separate, applied by the controller.
    pub const OLCF_JOB_FIXED_S: f64 = 420.0;
    /// OLCF job: reconstruction seconds per raw GiB.
    pub const OLCF_RECON_S_PER_GIB: f64 = 18.0;

    /// Walltime margin over the expected runtime.
    pub const WALLTIME_MARGIN: f64 = 2.0;
}

/// The simulation state.
pub struct FacilitySim {
    pub cfg: SimConfig,
    queue: EventQueue<Ev>,
    rng: SimRng,
    /// The durable orchestrator core, sharded across journal partitions:
    /// flow engine + idempotency store + concurrency limits, every
    /// mutation write-ahead journaled on the owning shard.
    pub orch: ShardedOrchestrator,
    pub catalog: Catalog,
    pub monitor: BandwidthMonitor,

    transfer: TransferService,
    ep_als: EndpointId,
    ep_nersc: EndpointId,
    ep_alcf: EndpointId,
    ep_olcf: EndpointId,

    /// The facility fleet, behind the [`FacilityController`] seam.
    facs: Vec<Box<dyn FacilityController>>,

    pub beamline_tier: StorageTier,
    pub cfs_tier: StorageTier,
    pub eagle_tier: StorageTier,
    pub orion_tier: StorageTier,
    pub hpss_tier: StorageTier,

    prune_schedule: Schedule,

    scans: BTreeMap<ScanId, Scan>,
    newfile_runs: BTreeMap<ScanId, FlowRunId>,
    branch_runs: BTreeMap<(ScanId, u8), FlowRunId>,
    /// Live transfers → (scan, flow branch, leg, executing facility the
    /// HPC-side endpoint belongs to).
    transfer_map: BTreeMap<TaskId, (ScanId, Branch, Leg, Facility)>,
    /// Live facility operations (facility-qualified handles) → the
    /// (scan, *flow* branch) they serve. After a redirect an ALCF-branch
    /// flow may execute at NERSC or OLCF, so the value is the branch
    /// identity, not the facility — the facility is in the handle.
    op_map: BTreeMap<u64, (ScanId, Branch)>,
    raw_pids: BTreeMap<ScanId, DatasetPid>,

    /// Facility actually executing each flow branch (differs from the
    /// branch's home facility after a redirect).
    exec_site: BTreeMap<(ScanId, u8), Facility>,
    /// Per-branch redirect history: `(facility, recoveries-at-
    /// abandonment)` pairs, in abandonment order. Bounds hops and kills
    /// A→B→A ping-pong within one health epoch (see [`Router::select`]).
    route_history: BTreeMap<(ScanId, u8), Vec<(Facility, u32)>>,
    /// Facility heartbeats (§5.3).
    pub health: HealthMonitor,
    /// The N-way router: per-facility breakers, probe lifecycle, and the
    /// audit log of every placement decision.
    pub router: Router,
    /// Facilities whose heartbeats an outage is suppressing.
    hb_suppressed: BTreeSet<Facility>,
    /// In-flight router health probes (facility-qualified handles).
    probe_ops: BTreeMap<u64, Facility>,
    probe_seq: u64,

    /// Completed end-to-end scans (both branches finished).
    pub completed_scans: usize,
    /// Branch redirects performed.
    pub failover_count: usize,
    /// Jobs/invocations cancelled remotely after missing their deadline
    /// or being swept from an abandoned facility.
    pub remote_cancel_count: usize,

    /// Orchestrator incarnation counter; bumped at every restart so stale
    /// events queued by a dead incarnation can be recognised and dropped.
    epoch: u32,
    /// The coordinator process is currently dead.
    orchestrator_down: bool,
    /// Per-shard journal bytes that survive a crash (durable mode only),
    /// after any configured [`CrashDamage`] has been applied.
    persisted_wal: Option<Vec<Vec<u8>>>,
    /// Scans saved while the coordinator was dead, ingested at restart.
    backlog: Vec<ScanId>,
    /// Branches already counted in `completed_scans` (guards against
    /// double-counting when a rescan re-completes pre-crash work).
    branch_completed: BTreeSet<(ScanId, u8)>,
    /// Side-effect ledger (measurement infrastructure, outside the
    /// simulated orchestrator): key → finished. A second `begin` on a key
    /// that was already initiated is duplicated facility work.
    ledger: BTreeMap<String, bool>,
    /// When each scan started acquiring (for end-to-end latency).
    scan_started: BTreeMap<ScanId, SimInstant>,
    /// End-to-end scan-start → branch-completion latencies (s).
    pub branch_latencies: Vec<f64>,
    /// Side-effecting steps initiated twice (the recovery experiment's
    /// duplicate-work metric).
    pub duplicate_side_effects: usize,
    /// Orchestrator crashes suffered.
    pub crash_count: usize,
    /// Successful journal recoveries performed.
    pub recovery_count: usize,
    /// External operations re-attached from the journal after a restart.
    pub reattached_ops: usize,
    /// Live facility jobs cancelled because the journal disowned them.
    pub orphan_cancel_count: usize,

    /// Beamline-side staging workers in flight: scan → when the worker
    /// finishes. The worker is facility infrastructure, not coordinator
    /// state — it survives coordinator crashes and finishes its job
    /// whether or not the journal remembers asking.
    ingest_worker: BTreeMap<ScanId, SimInstant>,
    /// Facility operations adopted at recovery because the journal lost
    /// their submission record (damaged shards only).
    pub adopted_orphan_ops: usize,

    /// The fleet-wide metrics registry: the orchestrator shards, the
    /// router, the bandwidth monitor, and the sim itself all export into
    /// this one spine. Shared so callers (experiments, benches) can
    /// snapshot it while the sim runs.
    pub registry: Arc<Registry>,
    /// Span-id allocator. Monotone across restarts: a durable recovery
    /// resumes it above the highest journaled id.
    next_span: SpanId,
    /// Open ingest spans by scan.
    ingest_spans: BTreeMap<ScanId, SpanId>,
    /// Open transfer/back-transfer spans by Globus task.
    transfer_spans: BTreeMap<TaskId, SpanId>,
    /// Open queue-wait spans by facility op: `(span, submitted-at,
    /// expected in-job runtime)` — the runtime splits queue-wait from
    /// recon when the op resolves.
    op_spans: BTreeMap<u64, (SpanId, SimInstant, SimDuration)>,
    /// Span a branch's last failure closed, consumed as the `parent`
    /// link of the replacement span the redirect opens.
    redirect_parent: BTreeMap<(ScanId, u8), SpanId>,
    /// Router decision audit (`RouteDecision::note_value`) waiting to be
    /// attached as a Note on the branch's next transfer span.
    pending_route_note: BTreeMap<(ScanId, u8), String>,
    /// Scans that needed evidence-based healing (label adoption, staging
    /// worker re-detection, catalogue evidence) because journal records
    /// were destroyed — the blast radius of shard damage.
    pub degraded_scans: BTreeSet<u32>,
    /// Shards whose journals were damaged across all crashes suffered.
    pub damaged_shards_seen: BTreeSet<usize>,
}

fn branch_key(b: Branch) -> u8 {
    match b {
        Branch::Nersc => 0,
        Branch::Alcf => 1,
    }
}

/// The branch's *name* — used for flow naming and product files, which
/// stay keyed to the home identity even when a redirect ran the work
/// elsewhere.
fn branch_name(b: Branch) -> &'static str {
    match b {
        Branch::Nersc => "nersc",
        Branch::Alcf => "alcf",
    }
}

/// The branch's home facility.
fn home_fac(b: Branch) -> Facility {
    match b {
        Branch::Nersc => Facility::Nersc,
        Branch::Alcf => Facility::Alcf,
    }
}

fn flow_of(b: Branch) -> &'static str {
    match b {
        Branch::Nersc => FLOW_NERSC,
        Branch::Alcf => FLOW_ALCF,
    }
}

fn branch_from_key(k: u8) -> Branch {
    if k == 0 {
        Branch::Nersc
    } else {
        Branch::Alcf
    }
}

/// Facility heartbeat cadence (and how stale one may get before the
/// router trips the facility's breaker).
const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(60);
const HEARTBEAT_FRESHNESS: SimDuration = SimDuration::from_secs(180);
/// Idempotency-claim lease: long enough to cover any single step, short
/// enough that a wedged holder eventually loses the key.
const CLAIM_LEASE: SimDuration = SimDuration::from_secs(6 * 3600);
/// Router health-probe shape: a tiny single-node canary job.
const PROBE_RUNTIME: SimDuration = SimDuration::from_secs(60);
const PROBE_WALLTIME: SimDuration = SimDuration::from_secs(600);

impl FacilitySim {
    pub fn new(cfg: SimConfig) -> Self {
        let mut transfer = TransferService::new(
            esnet_topology_with_nics(cfg.beamline_count.max(1)),
            cfg.transfer_concurrency,
        );
        let ep_als = transfer.register_endpoint(SiteId::Als);
        let ep_nersc = transfer.register_endpoint(SiteId::Nersc);
        let ep_alcf = transfer.register_endpoint(SiteId::Alcf);
        let ep_olcf = transfer.register_endpoint(SiteId::Olcf);
        let rng = SimRng::seeded(cfg.seed);
        let mut facs: Vec<Box<dyn FacilityController>> = vec![
            Box::new(NerscController::new(cfg.nersc_nodes)),
            Box::new(AlcfController::new(cfg.alcf_mode, cfg.alcf_max_nodes)),
        ];
        if cfg.olcf_enabled {
            facs.push(Box::new(OlcfController::new(calib::OLCF_NODES)));
        }
        let mut health = HealthMonitor::new();
        for c in &facs {
            health.register(
                c.facility().name(),
                Environment::Production,
                HEARTBEAT_FRESHNESS,
            );
        }
        let enabled: Vec<Facility> = facs.iter().map(|c| c.facility()).collect();
        let mut router = Router::new(
            RouterConfig {
                mode: cfg.router_mode,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: SimDuration::from_mins(10),
                },
                ..RouterConfig::default()
            },
            &enabled,
        );
        // one registry spine for the whole fleet: shard journals, the
        // router, the WAN monitor, and the sim's own spans/counters
        let registry = Arc::new(Registry::new());
        let mut orch = ShardedOrchestrator::production(
            "orch-0",
            SimInstant::ZERO,
            cfg.shard_count.max(1),
            cfg.group_commit_batch,
        );
        orch.instrument(&registry);
        router.instrument(&registry);
        let mut monitor = BandwidthMonitor::new();
        monitor.instrument(&registry);
        FacilitySim {
            queue: EventQueue::new(),
            rng,
            orch,
            catalog: Catalog::new(),
            monitor,
            transfer,
            ep_als,
            ep_nersc,
            ep_alcf,
            ep_olcf,
            facs,
            beamline_tier: StorageTier::new(TierKind::BeamlineData, ByteSize::from_tib(20)),
            cfs_tier: StorageTier::new(TierKind::Cfs, ByteSize::from_tib(500)),
            eagle_tier: StorageTier::new(TierKind::Eagle, ByteSize::from_tib(100)),
            orion_tier: StorageTier::new(TierKind::Orion, ByteSize::from_tib(700)),
            hpss_tier: StorageTier::new(TierKind::Hpss, ByteSize::from_tib(10_000)),
            prune_schedule: Schedule::daily_pruning(SimInstant::ZERO),
            scans: BTreeMap::new(),
            newfile_runs: BTreeMap::new(),
            branch_runs: BTreeMap::new(),
            transfer_map: BTreeMap::new(),
            op_map: BTreeMap::new(),
            raw_pids: BTreeMap::new(),
            exec_site: BTreeMap::new(),
            route_history: BTreeMap::new(),
            health,
            router,
            hb_suppressed: BTreeSet::new(),
            probe_ops: BTreeMap::new(),
            probe_seq: 0,
            completed_scans: 0,
            failover_count: 0,
            remote_cancel_count: 0,
            epoch: 0,
            orchestrator_down: false,
            persisted_wal: None,
            backlog: Vec::new(),
            branch_completed: BTreeSet::new(),
            ledger: BTreeMap::new(),
            scan_started: BTreeMap::new(),
            branch_latencies: Vec::new(),
            duplicate_side_effects: 0,
            crash_count: 0,
            recovery_count: 0,
            reattached_ops: 0,
            orphan_cancel_count: 0,
            ingest_worker: BTreeMap::new(),
            adopted_orphan_ops: 0,
            degraded_scans: BTreeSet::new(),
            damaged_shards_seen: BTreeSet::new(),
            registry,
            next_span: 0,
            ingest_spans: BTreeMap::new(),
            transfer_spans: BTreeMap::new(),
            op_spans: BTreeMap::new(),
            redirect_parent: BTreeMap::new(),
            pending_route_note: BTreeMap::new(),
            cfg,
        }
    }

    /// The fleet-wide trace store: every journaled span event merged
    /// across shards. In durable mode this is exactly what a recovered
    /// incarnation would rebuild from the WAL.
    pub fn traces(&self) -> TraceStore {
        self.orch.merged_traces()
    }

    // ---- flow-scoped trace spans (journaled next to orchestrator
    // state, so recovery replays them) ----

    fn span_start(
        &mut self,
        now: SimInstant,
        scan: &str,
        stage: Stage,
        facility: &str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let span = self.next_span;
        self.next_span += 1;
        self.orch.record_span(
            scan,
            TraceEvent::Start {
                scan: scan.to_string(),
                span,
                parent,
                stage,
                facility: facility.to_string(),
                at: now,
            },
        );
        span
    }

    fn span_end(&mut self, now: SimInstant, scan: &str, span: SpanId, outcome: SpanOutcome) {
        self.orch.record_span(
            scan,
            TraceEvent::End {
                scan: scan.to_string(),
                span,
                at: now,
                outcome,
            },
        );
    }

    fn span_note(&mut self, now: SimInstant, scan: &str, span: SpanId, key: &str, value: &str) {
        self.orch.record_span(
            scan,
            TraceEvent::Note {
                scan: scan.to_string(),
                span,
                at: now,
                key: key.to_string(),
                value: value.to_string(),
            },
        );
    }

    /// Close the queue-wait span of a resolved facility op. On success
    /// the in-job runtime journaled at submit time splits the interval:
    /// queue-wait ends (and a synthesized recon span starts) at
    /// `at - runtime`. Returns the closed span so failure paths can
    /// thread it as the redirect parent.
    fn resolve_op_span(
        &mut self,
        op: u64,
        scan: &str,
        at: SimInstant,
        outcome: SpanOutcome,
    ) -> Option<SpanId> {
        let (span, submitted, runtime) = self.op_spans.remove(&op)?;
        if outcome == SpanOutcome::Ok {
            let qend = submitted.max(at - runtime);
            self.span_end(qend, scan, span, SpanOutcome::Ok);
            let fac = Facility::decode_op(op)
                .map(|(f, _)| f.name())
                .unwrap_or("unknown");
            let recon = self.span_start(qend, scan, Stage::Recon, fac, None);
            self.span_end(at, scan, recon, SpanOutcome::Ok);
        } else {
            self.span_end(at, scan, span, outcome);
        }
        Some(span)
    }

    pub fn now(&self) -> SimInstant {
        self.queue.now()
    }

    /// The live incarnation's flow-run database (the Table 2 source),
    /// merged across shards into one owned engine.
    pub fn engine(&self) -> FlowEngine {
        self.orch.merged_engine()
    }

    /// Which journal shard a scan's keys and runs live on.
    pub fn shard_of_scan(&self, name: &str) -> usize {
        shard_of_key(name, self.orch.shard_count())
    }

    /// Does the shard-damage blast radius hold? Every scan that needed
    /// evidence-based healing (rather than plain journal replay) must
    /// live on a shard whose journal was actually damaged.
    pub fn damage_isolated(&self) -> bool {
        self.degraded_scans.iter().all(|&s| {
            self.scans.get(&ScanId(s)).is_some_and(|scan| {
                self.damaged_shards_seen
                    .contains(&self.shard_of_scan(&scan.name))
            })
        })
    }

    /// Recon branches that physically delivered their product back to the
    /// beamline (counted at the sim level, so it survives orchestrator
    /// crashes in both durable and baseline modes).
    pub fn branches_completed(&self) -> usize {
        self.branch_completed.len()
    }

    /// The facility's circuit breaker (owned by the router).
    pub fn breaker(&self, f: Facility) -> &CircuitBreaker {
        self.router.breaker(f)
    }

    /// The most facilities any single branch abandoned during the
    /// campaign (0 = nothing ever re-routed; 2 = some branch degraded
    /// through two sites, e.g. NERSC → ALCF → OLCF).
    pub fn max_route_hops(&self) -> usize {
        self.route_history
            .values()
            .map(|v| v.len())
            .max()
            .unwrap_or(0)
    }

    /// Live reconstruction operations across the whole fleet (stranded-
    /// work audit: zero once a campaign has drained).
    pub fn live_recon_ops(&self) -> usize {
        self.facs
            .iter()
            .map(|c| {
                c.labeled_ops()
                    .iter()
                    .filter(|(op, _)| c.op_fate(*op) == OpFate::Live)
                    .count()
            })
            .sum()
    }

    /// Facility operations the orchestrator still considers open.
    pub fn open_exec_ops(&self) -> usize {
        self.op_map.len()
    }

    // ---- facility fleet access ----

    fn fac(&self, f: Facility) -> &dyn FacilityController {
        self.facs
            .iter()
            .find(|c| c.facility() == f)
            .expect("facility enabled")
            .as_ref()
    }

    fn fac_mut(&mut self, f: Facility) -> &mut dyn FacilityController {
        self.facs
            .iter_mut()
            .find(|c| c.facility() == f)
            .expect("facility enabled")
            .as_mut()
    }

    fn fac_endpoint(&self, f: Facility) -> EndpointId {
        match f {
            Facility::Nersc => self.ep_nersc,
            Facility::Alcf => self.ep_alcf,
            Facility::Olcf => self.ep_olcf,
        }
    }

    /// Is the health/heartbeat machinery live this run? (Heartbeat ticks
    /// are only scheduled for fault-injected campaigns with failover.)
    fn health_armed(&self) -> bool {
        self.cfg.failover_enabled && !self.cfg.faults.is_empty()
    }

    // ---- idempotency keys (facility-qualified: a redirect is a fresh
    // claim, not a duplicate of the original site's work) ----

    fn scan_name(&self, id: ScanId) -> String {
        self.scans.get(&id).expect("scan exists").name.clone()
    }

    fn ingest_key(&self, id: ScanId) -> String {
        format!("{}/ingest", self.scan_name(id))
    }

    fn copy_key(&self, id: ScanId, branch: Branch, fac: Facility) -> String {
        format!(
            "{}/{}/copy@{}",
            self.scan_name(id),
            flow_of(branch),
            fac.name()
        )
    }

    fn exec_key(&self, id: ScanId, branch: Branch, fac: Facility) -> String {
        format!(
            "{}/{}/exec@{}",
            self.scan_name(id),
            flow_of(branch),
            fac.name()
        )
    }

    fn back_key(&self, id: ScanId, branch: Branch, fac: Facility) -> String {
        format!(
            "{}/{}/back@{}",
            self.scan_name(id),
            flow_of(branch),
            fac.name()
        )
    }

    fn op_ctx(&self, id: ScanId, branch: Branch, leg: Leg, fac: Facility) -> String {
        let ctx = OpCtx {
            scan: id.0,
            branch: branch_key(branch),
            leg: match leg {
                Leg::ToHpc => 0,
                Leg::Back => 1,
            },
            fac: fac.key(),
        };
        serde_json::to_string(&ctx).expect("ctx serializes")
    }

    // ---- the side-effect ledger (duplicate-work measurement) ----

    fn ledger_begin(&mut self, key: &str) {
        if self.ledger.contains_key(key) {
            self.duplicate_side_effects += 1;
        }
        self.ledger.insert(key.to_string(), false);
    }

    fn ledger_done(&mut self, key: &str) {
        self.ledger.insert(key.to_string(), true);
    }

    fn ledger_abort(&mut self, key: &str) {
        // a genuine failure releases the key: retrying it is recovery
        // work, not duplicated work
        self.ledger.remove(key);
    }

    /// Queue up `n` scans from a workload, with background load and
    /// pruning schedules armed.
    pub fn schedule_campaign(&mut self, workload: &mut ScanWorkload, n: usize) {
        let mut t = SimInstant::ZERO + SimDuration::from_secs(10);
        for _ in 0..n {
            let (scan, gap) = workload.next_scan(&mut self.rng);
            let id = scan.id;
            self.scans.insert(id, scan);
            self.queue.schedule_at(t, Ev::ScanStart(id));
            t += gap;
        }
        // competing NERSC load exists only for the campaign window —
        // pre-generated so the event queue drains when the work is done
        if let Some(mean) = self.cfg.background_mean_arrival_s {
            let mut bg = SimInstant::ZERO + SimDuration::from_secs_f64(self.rng.exponential(mean));
            while bg < t {
                self.queue.schedule_at(bg, Ev::BackgroundArrival);
                bg += SimDuration::from_secs_f64(self.rng.exponential(mean));
            }
        }
        if self.cfg.pruning_enabled {
            // pruning runs daily while scans are still being acquired
            while self.prune_schedule.next_fire() < t {
                let fire = self.prune_schedule.next_fire();
                self.queue.schedule_at(fire, Ev::PruneTick);
                self.prune_schedule.due(fire);
            }
        }
        // arm the fault plan + the heartbeat/health machinery (windows
        // and heartbeats are pre-scheduled so the event queue stays
        // finite and the campaign drains)
        let faults = self.cfg.faults.clone();
        for (i, w) in faults.windows.iter().enumerate() {
            self.queue.schedule_at(w.start, Ev::FaultStart(i));
            self.queue.schedule_at(w.end, Ev::FaultEnd(i));
        }
        for (i, c) in faults.orchestrator_crashes.iter().enumerate() {
            self.queue.schedule_at(c.at, Ev::CrashStart(i));
            self.queue.schedule_at(c.restart_at(), Ev::CrashEnd(i));
        }
        if self.health_armed() {
            let mut horizon = t + SimDuration::from_hours(3);
            for w in &faults.windows {
                horizon = horizon.max(w.end + SimDuration::from_hours(2));
            }
            for c in &faults.orchestrator_crashes {
                horizon = horizon.max(c.restart_at() + SimDuration::from_hours(2));
            }
            let mut ht = SimInstant::ZERO;
            while ht < horizon {
                self.queue.schedule_at(ht, Ev::HealthTick);
                ht += HEARTBEAT_PERIOD;
            }
        }
    }

    /// Run until no events remain (or an optional horizon passes).
    pub fn run(&mut self, horizon: Option<SimInstant>) {
        while let Some(t) = self.queue.peek_time() {
            if horizon.is_some_and(|h| t > h) {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event");
            self.handle(now, ev);
        }
    }

    fn transfer_opts(&self) -> TransferOptions {
        TransferOptions {
            verify_checksum: self.cfg.verify_checksums,
            fail_fast: calib::TRANSFER_FAIL_FAST,
        }
    }

    // Poll scheduling clamps to the queue clock, not the handler's event
    // time: when a restart drains events buffered during the dead window,
    // facility timestamps lie in the past.

    fn schedule_transfer_poll(&mut self) {
        let now = self.queue.now();
        if let Some(t) = self.transfer.next_event_time(now) {
            self.queue.schedule_at(t.max(now), Ev::PollTransfers);
        }
    }

    fn schedule_fac_poll(&mut self, f: Facility) {
        let now = self.queue.now();
        if let Some(t) = self.fac(f).next_event_time() {
            self.queue.schedule_at(t.max(now), Ev::PollFac(f.key()));
        }
    }

    fn handle(&mut self, now: SimInstant, ev: Ev) {
        match ev {
            Ev::ScanStart(id) => self.on_scan_start(now, id),
            Ev::ScanSaved(id) => self.on_scan_saved(now, id),
            Ev::NewFileDone(id, epoch) => self.on_new_file_done(now, id, epoch),
            Ev::PollTransfers => self.on_poll_transfers(now),
            Ev::PollFac(k) => self.on_poll_fac(now, k),
            Ev::PruneTick => self.on_prune(now),
            Ev::BackgroundArrival => self.on_background(now),
            Ev::FaultStart(i) => self.on_fault_start(now, i),
            Ev::FaultEnd(i) => self.on_fault_end(now, i),
            Ev::HealthTick => self.on_health_tick(now),
            Ev::OpDeadline(op) => self.on_op_deadline(now, op),
            Ev::CrashStart(i) => self.on_crash_start(now, i),
            Ev::CrashEnd(i) => self.on_crash_end(now, i),
        }
    }

    fn on_scan_start(&mut self, now: SimInstant, id: ScanId) {
        let scan = self.scans.get(&id).expect("scan exists").clone();
        self.scan_started.insert(id, now);
        // acquisition + the file writer flushing frames to beamline disk
        let write_time = self.beamline_tier.io_time(scan.size);
        self.queue
            .schedule_at(now + scan.acquisition + write_time, Ev::ScanSaved(id));
    }

    fn on_scan_saved(&mut self, now: SimInstant, id: ScanId) {
        let scan = self.scans.get(&id).expect("scan exists").clone();
        // store the raw file on the beamline data tier: the file writer
        // is beamline-side and keeps running through coordinator deaths
        if self
            .beamline_tier
            .put(&format!("{}.h5", scan.name), scan.size, now)
            .is_err()
        {
            // beamline disk full: the flow fails outright (what the
            // pruning flows exist to prevent)
            if !self.orchestrator_down {
                let run = self.orch.create_run(FLOW_NEW_FILE, &scan.name, now);
                self.orch.start_run(run, now);
                self.orch.finish_run(run, FlowState::Failed, now);
            }
            return;
        }
        if self.orchestrator_down {
            // nobody is watching the filesystem; the restart ingests it
            self.backlog.push(id);
            return;
        }
        self.start_new_file(now, id);
    }

    /// new_file_832: claim the ingest key, then model data movement
    /// between beamline servers + SciCat ingestion + orchestration
    /// latency.
    fn start_new_file(&mut self, now: SimInstant, id: ScanId) {
        let scan = self.scans.get(&id).expect("scan exists").clone();
        let key = self.ingest_key(id);
        match self.orch.claim(&key, now, CLAIM_LEASE) {
            Claim::Cached => {
                // ingestion already happened in a previous incarnation;
                // go straight to launching the branches
                self.queue.schedule_at(now, Ev::NewFileDone(id, self.epoch));
                return;
            }
            Claim::Busy => return,
            Claim::Run => {}
        }
        self.ledger_begin(&key);
        let span = self.span_start(now, &scan.name, Stage::Ingest, "als", None);
        self.ingest_spans.insert(id, span);
        let run = self.orch.create_run(FLOW_NEW_FILE, &scan.name, now);
        self.orch.set_parameter(run, "scan", &scan.name);
        self.orch
            .set_parameter(run, "size_gib", &format!("{:.3}", scan.size.as_gib_f64()));
        self.orch.start_run(run, now);
        self.newfile_runs.insert(id, run);
        let staging = self.beamline_tier.io_time(scan.size);
        let jitter = SimDuration::from_secs_f64(
            self.rng
                .lognormal_med(calib::NEWFILE_JITTER_MED_S, calib::NEWFILE_JITTER_SIGMA)
                .clamp(1.0, calib::NEWFILE_JITTER_MAX_S),
        );
        let ingest = SimDuration::from_secs_f64(calib::NEWFILE_INGEST_S);
        let task = self
            .orch
            .start_task(run, "stage_and_ingest", Some(&key), now);
        let done = now + staging + ingest + jitter;
        self.orch
            .finish_task(run, task, TaskState::Completed, done, None);
        // the staging worker is beamline infrastructure: it outlives
        // coordinator crashes and reports completion regardless
        self.ingest_worker.insert(id, done);
        self.queue
            .schedule_at(done, Ev::NewFileDone(id, self.epoch));
        // commit barrier: the claim, run, and worker hand-off must be
        // durable before the beamline-side work exists
        self.orch.commit_key(&key);
    }

    fn on_new_file_done(&mut self, now: SimInstant, id: ScanId, epoch: u32) {
        if self.orchestrator_down || epoch != self.epoch {
            return; // scheduled by a dead incarnation
        }
        let scan = self.scans.get(&id).expect("scan exists").clone();
        self.ingest_worker.remove(&id);
        if let Some(span) = self.ingest_spans.remove(&id) {
            self.span_end(now, &scan.name, span, SpanOutcome::Ok);
        }
        if let Some(&run) = self.newfile_runs.get(&id) {
            if self.orch.run(run).is_some_and(|r| !r.state.is_terminal()) {
                self.orch.finish_run(run, FlowState::Completed, now);
            }
        }
        let key = self.ingest_key(id);
        self.orch.complete(&key);
        self.ledger_done(&key);
        // durability point: losing the completion would force a
        // re-ingest on the next recovery
        self.orch.commit_key(&key);
        // catalogue the raw dataset (idempotent: the PID survives crashes
        // in the catalogue itself)
        if !self.raw_pids.contains_key(&id) {
            let dims = scan.dims();
            let raw = raw_scan_dataset(
                &scan.name,
                "beamline-user",
                now,
                scan.size,
                InstrumentMetadata {
                    beamline: "8.3.2".into(),
                    n_angles: dims.n_angles,
                    detector_rows: dims.det_rows,
                    detector_cols: dims.det_cols,
                    pixel_size_um: 0.65,
                    exposure_ms: 30.0,
                },
            );
            let raw_pid = raw.pid.clone();
            self.catalog.ingest(raw).ok();
            self.raw_pids.insert(id, raw_pid);
        }

        // launch both file-based branches in parallel
        for branch in [Branch::Nersc, Branch::Alcf] {
            self.launch_branch(now, id, branch);
        }
    }

    /// Ensure a branch flow run exists and drive it through the
    /// claim-gated step cascade (copy → exec → back).
    fn launch_branch(&mut self, now: SimInstant, id: ScanId, branch: Branch) {
        let bk = branch_key(branch);
        if let Some(&run) = self.branch_runs.get(&(id, bk)) {
            if self.orch.run(run).is_some_and(|r| r.state.is_terminal()) {
                return;
            }
        } else {
            let scan = self.scans.get(&id).expect("scan exists").clone();
            let run = self.orch.create_run(flow_of(branch), &scan.name, now);
            self.orch.set_parameter(run, "scan", &scan.name);
            self.orch.start_run(run, now);
            self.branch_runs.insert((id, bk), run);
        }
        if !self.exec_site.contains_key(&(id, bk)) {
            // route around unhealthy facilities at launch time: the raw
            // data goes straight to whatever site the router picks
            self.choose_exec_site(now, id, branch);
        }
        self.step_copy(now, id, branch);
    }

    /// Step 1: ship the raw data to the executing facility.
    fn step_copy(&mut self, now: SimInstant, id: ScanId, branch: Branch) {
        let bk = branch_key(branch);
        let exec = self
            .exec_site
            .get(&(id, bk))
            .copied()
            .unwrap_or(home_fac(branch));
        let key = self.copy_key(id, branch, exec);
        match self.orch.claim(&key, now, CLAIM_LEASE) {
            Claim::Cached => return self.step_exec(now, id, branch),
            Claim::Busy => return,
            Claim::Run => {}
        }
        self.ledger_begin(&key);
        let scan = self.scans.get(&id).expect("scan exists").clone();
        let dst = self.fac_endpoint(exec);
        let opts = self.transfer_opts();
        let ctx = self.op_ctx(id, branch, Leg::ToHpc, exec);
        let task =
            self.transfer
                .submit_labeled(self.ep_als, dst, scan.size, opts, now, Some(ctx.clone()));
        self.transfer_map
            .insert(task, (id, branch, Leg::ToHpc, exec));
        let parent = self.redirect_parent.remove(&(id, bk));
        let span = self.span_start(now, &scan.name, Stage::Transfer, exec.name(), parent);
        self.transfer_spans.insert(task, span);
        if let Some(note) = self.pending_route_note.remove(&(id, bk)) {
            self.span_note(now, &scan.name, span, "route", &note);
        }
        if let Some(&run) = self.branch_runs.get(&(id, bk)) {
            self.orch
                .start_task(run, "globus_copy_to_hpc", Some(&key), now);
            self.orch
                .external_submitted(ExternalKind::Transfer, task.0, run, &ctx);
        }
        self.schedule_transfer_poll();
    }

    /// Step 2: execute the reconstruction at whichever facility the
    /// branch is routed to.
    fn step_exec(&mut self, now: SimInstant, id: ScanId, branch: Branch) {
        let exec = self
            .exec_site
            .get(&(id, branch_key(branch)))
            .copied()
            .unwrap_or(home_fac(branch));
        self.facility_submit(now, id, branch, exec);
    }

    /// The router's scoring input: one view per enabled facility, from
    /// the controller's health snapshot and the WAN capacity estimate.
    fn candidate_views(&self, now: SimInstant, id: ScanId) -> Vec<CandidateView> {
        let size = self.scans.get(&id).expect("scan exists").size;
        let armed = self.health_armed();
        self.facs
            .iter()
            .map(|c| {
                let f = c.facility();
                let st = c.health(now);
                CandidateView {
                    facility: f,
                    est_wait_s: if st.accepting {
                        st.est_wait_s
                    } else {
                        f64::INFINITY
                    },
                    est_transfer_s: self.transfer.estimate_transfer_seconds(
                        SiteId::Als,
                        f.site(),
                        size,
                    ),
                    heartbeat_stale: armed && self.health.heartbeat_stale(f.name(), now),
                }
            })
            .collect()
    }

    /// Record a redirect on the branch's flow run: the `failover`
    /// parameter names the current target (provenance + recovery), the
    /// `route` parameter carries the whole path, and failure-driven
    /// redirects additionally log a `failover_redirect` task.
    fn record_route(
        &mut self,
        now: SimInstant,
        id: ScanId,
        branch: Branch,
        target: Facility,
        with_task: bool,
    ) {
        let bk = branch_key(branch);
        let Some(&run) = self.branch_runs.get(&(id, bk)) else {
            return;
        };
        self.orch.set_parameter(run, "failover", target.name());
        let mut path: Vec<&str> = self
            .route_history
            .get(&(id, bk))
            .map(|h| h.iter().map(|(f, _)| f.name()).collect())
            .unwrap_or_default();
        path.push(target.name());
        self.orch.set_parameter(run, "route", &path.join(">"));
        if with_task {
            self.orch.start_task(run, "failover_redirect", None, now);
        }
    }

    /// Pick the facility that will execute a newly launched flow branch:
    /// its home facility unless the router finds it inadmissible and a
    /// cheaper healthy site exists.
    fn choose_exec_site(&mut self, now: SimInstant, id: ScanId, branch: Branch) -> Facility {
        let bk = branch_key(branch);
        let home = home_fac(branch);
        let mut exec = home;
        if self.cfg.failover_enabled {
            let cands = self.candidate_views(now, id);
            let visited = self
                .route_history
                .get(&(id, bk))
                .cloned()
                .unwrap_or_default();
            if let Some(target) = self.router.select(home, &visited, &cands, now) {
                if let Some(d) = self.router.decisions().last() {
                    // satellite: the decision audit rides the trace as a
                    // Note on the branch's next transfer span
                    self.pending_route_note.insert((id, bk), d.note_value());
                }
                if target != home {
                    let rec = self.router.recoveries(home);
                    self.route_history
                        .entry((id, bk))
                        .or_default()
                        .push((home, rec));
                    self.failover_count += 1;
                    self.record_route(now, id, branch, target, false);
                }
                exec = target;
            }
            // no admissible facility: fall back to home — the submit
            // will fail there and the failure path owns what happens next
        }
        self.exec_site.insert((id, bk), exec);
        exec
    }

    fn on_poll_transfers(&mut self, now: SimInstant) {
        if self.orchestrator_down {
            return; // events stay buffered in the service until restart
        }
        let events = self.transfer.advance_to(now);
        for ev in events {
            match ev {
                TransferEvent::Succeeded { task, at } => {
                    let Some((id, branch, leg, fac)) = self.transfer_map.remove(&task) else {
                        continue;
                    };
                    // buffered completions from the dead window are
                    // harvested at restart time, not back-dated
                    let at = at.max(now);
                    self.orch.external_resolved(ExternalKind::Transfer, task.0);
                    let scan = self.scans.get(&id).expect("scan exists").clone();
                    let size = match leg {
                        Leg::ToHpc => scan.size,
                        Leg::Back => scan.recon_output_size(),
                    };
                    if let Some(d) = self.transfer.task_duration(task) {
                        self.monitor.record(at, size, d);
                    }
                    if let Some(span) = self.transfer_spans.remove(&task) {
                        self.span_end(at, &scan.name, span, SpanOutcome::Ok);
                    }
                    match leg {
                        Leg::ToHpc => {
                            let key = self.copy_key(id, branch, fac);
                            self.orch.complete(&key);
                            self.ledger_done(&key);
                            // durability point: the resolve + completion
                            // must not split across a group-commit batch
                            // (losing only the completion would force a
                            // duplicate transfer after recovery)
                            self.orch.commit_key(&key);
                            self.step_exec(at, id, branch);
                        }
                        Leg::Back => {
                            let key = self.back_key(id, branch, fac);
                            self.orch.complete(&key);
                            self.ledger_done(&key);
                            self.orch.commit_key(&key);
                            self.finish_branch(at, id, branch, true);
                        }
                    }
                }
                TransferEvent::Failed { task, at, .. } => {
                    if let Some((id, branch, leg, fac)) = self.transfer_map.remove(&task) {
                        let at = at.max(now);
                        self.orch.external_resolved(ExternalKind::Transfer, task.0);
                        let key = match leg {
                            Leg::ToHpc => self.copy_key(id, branch, fac),
                            Leg::Back => self.back_key(id, branch, fac),
                        };
                        self.orch.release(&key);
                        self.ledger_abort(&key);
                        if let Some(span) = self.transfer_spans.remove(&task) {
                            let name = self.scan_name(id);
                            self.span_end(at, &name, span, SpanOutcome::Failed);
                            self.redirect_parent.insert((id, branch_key(branch)), span);
                        }
                        self.branch_failed(at, id, branch);
                    }
                }
                TransferEvent::Started { .. } | TransferEvent::Retrying { .. } => {}
            }
        }
        self.schedule_transfer_poll();
    }

    /// Should deadline watchdogs be armed? Only in fault-injected runs —
    /// a healthy campaign never needs remote cancellation. (Armed even
    /// with failover disabled: cancelling stranded work is the baseline
    /// operator behavior; rerouting it is the remediation under test.)
    fn deadlines_armed(&self) -> bool {
        !self.cfg.faults.is_empty()
    }

    /// Submit the reconstruction for one branch at one facility through
    /// the [`FacilityController`] seam. `branch` is the *flow* branch
    /// being served; `exec` is where the work actually runs.
    fn facility_submit(&mut self, now: SimInstant, id: ScanId, branch: Branch, exec: Facility) {
        let key = self.exec_key(id, branch, exec);
        match self.orch.claim(&key, now, CLAIM_LEASE) {
            Claim::Cached => return self.step_back(now, id, branch),
            Claim::Busy => return,
            Claim::Run => {}
        }
        self.ledger_begin(&key);
        let scan = self.scans.get(&id).expect("scan exists").clone();
        let gib = scan.size.as_gib_f64();
        // the in-job service time, per facility personality: stage from
        // the site filesystem, reconstruct, write products
        let runtime = match exec {
            Facility::Nersc => {
                self.cfs_tier
                    .put(&format!("{}.h5", scan.name), scan.size, now)
                    .ok();
                let stage = self.cfs_tier.io_time(scan.size);
                stage
                    + SimDuration::from_secs_f64(
                        calib::NERSC_JOB_FIXED_S + calib::NERSC_RECON_S_PER_GIB * gib,
                    )
            }
            Facility::Alcf => {
                self.eagle_tier
                    .put(&format!("{}.h5", scan.name), scan.size, now)
                    .ok();
                let fixed = self
                    .rng
                    .lognormal_med(calib::ALCF_FIXED_MED_S, calib::ALCF_FIXED_SIGMA)
                    .clamp(300.0, 1500.0);
                SimDuration::from_secs_f64(fixed + calib::ALCF_RECON_S_PER_GIB * gib)
            }
            Facility::Olcf => {
                self.orion_tier
                    .put(&format!("{}.h5", scan.name), scan.size, now)
                    .ok();
                let stage = self.orion_tier.io_time(scan.size);
                stage
                    + SimDuration::from_secs_f64(
                        calib::OLCF_JOB_FIXED_S + calib::OLCF_RECON_S_PER_GIB * gib,
                    )
            }
        };
        let walltime =
            SimDuration::from_secs_f64(runtime.as_secs_f64() * calib::WALLTIME_MARGIN + 900.0);
        // the op name carries the re-attach context so a recovering
        // coordinator can adopt work its journal never heard about
        let ctx = self.op_ctx(id, branch, Leg::ToHpc, exec);
        let spec = SubmitSpec {
            name: format!("{}{}|{}", RECON_PREFIX, scan.name, ctx),
            task: FacilityTask::Reconstruct,
            runtime,
            walltime,
            qos: self.cfg.nersc_qos,
            nodes: 1,
        };
        let kind = self.fac(exec).external_kind();
        let task_name = self.fac(exec).exec_task_name();
        let armed = self.deadlines_armed();
        match self.fac_mut(exec).reconstruct(&spec, now) {
            Ok(sub) => {
                self.op_map.insert(sub.op, (id, branch));
                let parent = self.redirect_parent.remove(&(id, branch_key(branch)));
                let span = self.span_start(now, &scan.name, Stage::QueueWait, exec.name(), parent);
                self.op_spans.insert(sub.op, (span, now, runtime));
                if let Some(&run) = self.branch_runs.get(&(id, branch_key(branch))) {
                    self.orch.start_task(run, task_name, Some(&key), now);
                    self.orch.external_submitted(kind, sub.op, run, &ctx);
                }
                if armed {
                    self.queue.schedule_at(sub.deadline, Ev::OpDeadline(sub.op));
                }
                self.schedule_fac_poll(exec);
            }
            Err(_) => {
                self.orch.release(&key);
                self.ledger_abort(&key);
                self.branch_failed(now, id, branch);
            }
        }
    }

    /// Does this completion get converted to a transient failure by the
    /// plan's background job-failure probability? (The rng is consulted
    /// only when the probability is non-zero, preserving the healthy-run
    /// random streams.)
    fn rolls_transient_failure(&mut self) -> bool {
        let p = self.cfg.faults.job_failure_prob;
        p > 0.0 && self.rng.chance(p)
    }

    fn on_poll_fac(&mut self, now: SimInstant, fkey: u8) {
        if self.orchestrator_down {
            return; // events stay buffered in the backend until restart
        }
        let Some(f) = Facility::from_key(fkey) else {
            return;
        };
        if !self.router.is_enabled(f) {
            return;
        }
        let events = self.fac_mut(f).poll(now);
        for ev in events {
            if let Some(pf) = self.probe_ops.remove(&ev.op) {
                // an outage window swallows probe successes: a canary
                // that was already running when the site died must not
                // re-close the breaker
                let ok = ev.ok && !self.hb_suppressed.contains(&pf);
                self.router.probe_resolved(pf, ok, now, self.cfg.seed);
                continue;
            }
            let Some((id, branch)) = self.op_map.remove(&ev.op) else {
                continue; // abandoned or background op
            };
            let at = ev.at.max(now);
            let kind = self.fac(f).external_kind();
            self.orch.external_resolved(kind, ev.op);
            let key = self.exec_key(id, branch, f);
            let name = self.scan_name(id);
            if ev.ok && !self.rolls_transient_failure() {
                self.router.record_success(f);
                self.resolve_op_span(ev.op, &name, at, SpanOutcome::Ok);
                self.orch.complete(&key);
                self.ledger_done(&key);
                self.orch.commit_key(&key);
                self.step_back(at, id, branch);
            } else {
                if let Some(span) = self.resolve_op_span(ev.op, &name, at, SpanOutcome::Failed) {
                    self.redirect_parent.insert((id, branch_key(branch)), span);
                }
                self.orch.release(&key);
                self.ledger_abort(&key);
                self.branch_failed(at, id, branch);
            }
        }
        self.schedule_fac_poll(f);
    }

    /// Deadline watchdog: the operation never resolved — it is stranded
    /// behind a facility outage. Cancel it remotely (§5.3: "remotely
    /// cancelling stuck jobs") and route the branch elsewhere.
    fn on_op_deadline(&mut self, now: SimInstant, op: u64) {
        if self.orchestrator_down {
            return; // nobody is watching; reconciliation handles it
        }
        let Some((f, _)) = Facility::decode_op(op) else {
            return;
        };
        if let Some(pf) = self.probe_ops.remove(&op) {
            // a stranded probe is a failed probe
            self.fac_mut(f).cancel(op, now);
            self.router.probe_resolved(pf, false, now, self.cfg.seed);
            self.schedule_fac_poll(f);
            return;
        }
        let Some((id, branch)) = self.op_map.remove(&op) else {
            return; // resolved in time
        };
        // removed from op_map first so the cancellation event is ignored
        self.fac_mut(f).cancel(op, now);
        self.remote_cancel_count += 1;
        let kind = self.fac(f).external_kind();
        self.orch.external_resolved(kind, op);
        let key = self.exec_key(id, branch, f);
        self.orch.release(&key);
        self.ledger_abort(&key);
        let name = self.scan_name(id);
        if let Some(span) = self.resolve_op_span(op, &name, now, SpanOutcome::Cancelled) {
            self.redirect_parent.insert((id, branch_key(branch)), span);
        }
        if let Some(&run) = self.branch_runs.get(&(id, branch_key(branch))) {
            self.orch
                .start_task(run, "remote_cancel_stranded_job", None, now);
        }
        self.schedule_fac_poll(f);
        self.branch_failed(now, id, branch);
    }

    /// Step 3: move the reconstruction products back to the beamline data
    /// server from wherever the branch actually executed.
    fn step_back(&mut self, now: SimInstant, id: ScanId, branch: Branch) {
        let bk = branch_key(branch);
        let exec = self
            .exec_site
            .get(&(id, bk))
            .copied()
            .unwrap_or(home_fac(branch));
        let key = self.back_key(id, branch, exec);
        match self.orch.claim(&key, now, CLAIM_LEASE) {
            Claim::Cached => return self.finish_branch(now, id, branch, true),
            Claim::Busy => return,
            Claim::Run => {}
        }
        // facility evidence: the recon product already landed on the
        // beamline — the journal lost the completion record with a
        // damaged shard tail. Harvest the delivery, don't ship a second
        // copy. (The back leg has no downstream operation whose adoption
        // would shield it; the product file is its evidence.)
        let product = format!("{}_recon_{}", self.scan_name(id), branch_name(branch));
        if self.beamline_tier.contains(&product) {
            self.orch.complete(&key);
            self.ledger_done(&key);
            self.orch.commit_key(&key);
            self.degraded_scans.insert(id.0);
            return self.finish_branch(now, id, branch, true);
        }
        self.ledger_begin(&key);
        let scan = self.scans.get(&id).expect("scan exists").clone();
        let src = self.fac_endpoint(exec);
        let opts = self.transfer_opts();
        let ctx = self.op_ctx(id, branch, Leg::Back, exec);
        let task = self.transfer.submit_labeled(
            src,
            self.ep_als,
            scan.recon_output_size(),
            opts,
            now,
            Some(ctx.clone()),
        );
        self.transfer_map
            .insert(task, (id, branch, Leg::Back, exec));
        let span = self.span_start(now, &scan.name, Stage::BackTransfer, exec.name(), None);
        self.transfer_spans.insert(task, span);
        if let Some(&run) = self.branch_runs.get(&(id, bk)) {
            self.orch
                .start_task(run, "globus_copy_back", Some(&key), now);
            self.orch
                .external_submitted(ExternalKind::Transfer, task.0, run, &ctx);
        }
        self.schedule_transfer_poll();
    }

    /// A branch's execution failed. Record it against the facility that
    /// ran it; then ask the router for the next admissible site (the
    /// failed site joins the branch's redirect history) or fail the run
    /// when the fleet has nothing left to offer.
    fn branch_failed(&mut self, now: SimInstant, id: ScanId, branch: Branch) {
        let bk = branch_key(branch);
        let exec = self
            .exec_site
            .get(&(id, bk))
            .copied()
            .unwrap_or(home_fac(branch));
        self.router.record_failure(exec, now);
        self.health
            .report_error(exec.name(), now, "branch execution failed");
        if self.cfg.failover_enabled {
            let rec = self.router.recoveries(exec);
            let mut visited = self
                .route_history
                .get(&(id, bk))
                .cloned()
                .unwrap_or_default();
            if !visited.contains(&(exec, rec)) {
                visited.push((exec, rec));
            }
            let cands = self.candidate_views(now, id);
            let home = home_fac(branch);
            let target = self.router.select(home, &visited, &cands, now);
            self.route_history.insert((id, bk), visited);
            if let Some(target) = target {
                if let Some(d) = self.router.decisions().last() {
                    self.pending_route_note.insert((id, bk), d.note_value());
                }
                self.failover_count += 1;
                self.exec_site.insert((id, bk), target);
                self.record_route(now, id, branch, target, true);
                // re-ship the raw data from the beamline to the chosen
                // facility under a fresh facility-qualified claim; the
                // normal step cascade takes over
                self.step_copy(now, id, branch);
                return;
            }
        }
        self.finish_branch(now, id, branch, false);
    }

    /// Terminal transition for one branch of one scan.
    fn finish_branch(&mut self, now: SimInstant, id: ScanId, branch: Branch, ok: bool) {
        let bk = branch_key(branch);
        let Some(run) = self.branch_runs.get(&(id, bk)).copied() else {
            return;
        };
        let scan = self.scans.get(&id).expect("scan exists").clone();
        let terminal = self
            .orch
            .run(run)
            .map(|r| r.state.is_terminal())
            .unwrap_or(true);
        if ok {
            // the facility that produced the recon (≠ home facility
            // after a redirect) is what provenance should record
            let exec = self
                .exec_site
                .get(&(id, bk))
                .copied()
                .unwrap_or(home_fac(branch));
            // register the derived dataset with provenance to the raw scan
            if let Some(raw_pid) = self.raw_pids.get(&id) {
                self.catalog
                    .ingest(recon_dataset(
                        &scan.name,
                        exec.name(),
                        raw_pid,
                        now,
                        scan.recon_output_size(),
                    ))
                    .ok();
            }
            // the product file is named for the flow branch (stable even
            // when a redirect ran it elsewhere), so names stay unique
            self.beamline_tier
                .put(
                    &format!("{}_recon_{}", scan.name, branch_name(branch)),
                    scan.recon_output_size(),
                    now,
                )
                .ok();
            if !terminal {
                self.orch.finish_run(run, FlowState::Completed, now);
            }
            if self.branch_completed.insert((id, bk)) {
                // catalogue/archive registration: instantaneous in the
                // sim, but the span pins the scan's completion point
                let span = self.span_start(now, &scan.name, Stage::Catalog, "als", None);
                self.span_end(now, &scan.name, span, SpanOutcome::Ok);
                self.completed_scans += 1;
                if let Some(&start) = self.scan_started.get(&id) {
                    self.branch_latencies
                        .push(now.duration_since(start).as_secs_f64());
                }
            }
        } else if !terminal {
            self.orch.finish_run(run, FlowState::Failed, now);
        }
    }

    /// A facility-wide outage begins: the controller kills running recon
    /// work (failure events flow through the normal failure path when the
    /// coordinator is alive) and the site's heartbeats go silent.
    fn facility_outage_start(&mut self, now: SimInstant, f: Facility) {
        let events = self.fac_mut(f).inject(FacilityFault::OutageStart, now);
        if !self.orchestrator_down {
            for ev in events {
                if let Some(pf) = self.probe_ops.remove(&ev.op) {
                    self.router.probe_resolved(pf, false, now, self.cfg.seed);
                    continue;
                }
                let Some((id, branch)) = self.op_map.remove(&ev.op) else {
                    continue;
                };
                let kind = self.fac(f).external_kind();
                self.orch.external_resolved(kind, ev.op);
                let key = self.exec_key(id, branch, f);
                self.orch.release(&key);
                self.ledger_abort(&key);
                let at = ev.at.max(now);
                let name = self.scan_name(id);
                if let Some(span) = self.resolve_op_span(ev.op, &name, at, SpanOutcome::Failed) {
                    self.redirect_parent.insert((id, branch_key(branch)), span);
                }
                self.branch_failed(at, id, branch);
            }
            self.schedule_fac_poll(f);
        }
        self.hb_suppressed.insert(f);
    }

    fn facility_outage_end(&mut self, now: SimInstant, f: Facility) {
        let _ = self.fac_mut(f).inject(FacilityFault::OutageEnd, now);
        self.hb_suppressed.remove(&f);
        self.schedule_fac_poll(f);
    }

    fn on_fault_start(&mut self, now: SimInstant, i: usize) {
        let kind = self.cfg.faults.windows[i].kind;
        match kind {
            FaultKind::NerscOutage => self.facility_outage_start(now, Facility::Nersc),
            FaultKind::AlcfOutage => self.facility_outage_start(now, Facility::Alcf),
            FaultKind::OlcfOutage => {
                if self.router.is_enabled(Facility::Olcf) {
                    self.facility_outage_start(now, Facility::Olcf);
                }
            }
            FaultKind::EsnetBrownout { capacity_factor } => {
                self.transfer.set_wan_capacity_factor(capacity_factor, now);
                self.schedule_transfer_poll();
            }
            FaultKind::SfApiAuthExpiry => {
                let _ = self
                    .fac_mut(Facility::Nersc)
                    .inject(FacilityFault::AuthExpire, now);
            }
            FaultKind::TransferCorruption { burst } => {
                self.transfer.corrupt_next(self.ep_nersc, burst);
                self.transfer.corrupt_next(self.ep_alcf, burst);
                if self.router.is_enabled(Facility::Olcf) {
                    self.transfer.corrupt_next(self.ep_olcf, burst);
                }
            }
        }
    }

    fn on_fault_end(&mut self, now: SimInstant, i: usize) {
        let kind = self.cfg.faults.windows[i].kind;
        match kind {
            FaultKind::NerscOutage => self.facility_outage_end(now, Facility::Nersc),
            FaultKind::AlcfOutage => self.facility_outage_end(now, Facility::Alcf),
            FaultKind::OlcfOutage => {
                if self.router.is_enabled(Facility::Olcf) {
                    self.facility_outage_end(now, Facility::Olcf);
                }
            }
            FaultKind::EsnetBrownout { .. } => {
                self.transfer.set_wan_capacity_factor(1.0, now);
                self.schedule_transfer_poll();
            }
            FaultKind::SfApiAuthExpiry => {
                let _ = self
                    .fac_mut(Facility::Nersc)
                    .inject(FacilityFault::AuthRestore, now);
            }
            FaultKind::TransferCorruption { .. } => {
                self.transfer.corrupt_next(self.ep_nersc, 0);
                self.transfer.corrupt_next(self.ep_alcf, 0);
                if self.router.is_enabled(Facility::Olcf) {
                    self.transfer.corrupt_next(self.ep_olcf, 0);
                }
            }
        }
    }

    /// Heartbeat cadence: facilities under an outage stay silent; a
    /// heartbeat gone stale force-opens that facility's breaker (the
    /// monitor sees the outage before enough job failures accumulate)
    /// and — in cost-aware mode — sweeps the work stranded there onto
    /// healthier sites instead of waiting out each op's deadline.
    /// Healthy facilities whose breaker has cooled to half-open are
    /// re-admitted via a probe job, never a campaign branch.
    fn on_health_tick(&mut self, now: SimInstant) {
        let enabled = self.router.enabled_facilities();
        for f in &enabled {
            if !self.hb_suppressed.contains(f) {
                self.health.heartbeat(f.name(), now);
            }
        }
        for f in enabled {
            if self.health.heartbeat_stale(f.name(), now) {
                // force_open on every stale tick: the refreshed open
                // timestamp keeps the cooldown anchored to the *end* of
                // the outage, not its start
                let newly = self.router.force_open(f, now);
                if newly && self.cfg.failover_enabled && self.router.mode() == RouterMode::CostAware
                {
                    self.sweep_stranded(now, f);
                }
            } else if self.cfg.failover_enabled && self.router.maybe_probe(f, now, true) {
                self.launch_probe(now, f);
            }
        }
    }

    /// The moment a facility is declared dead, every op parked there is
    /// stranded: cancel them remotely and push their branches back
    /// through the router instead of letting each wait out its deadline.
    fn sweep_stranded(&mut self, now: SimInstant, f: Facility) {
        let stranded: Vec<(u64, ScanId, Branch)> = self
            .op_map
            .iter()
            .filter(|(&op, _)| Facility::decode_op(op).is_some_and(|(of, _)| of == f))
            .map(|(&op, &(id, b))| (op, id, b))
            .collect();
        if stranded.is_empty() {
            return;
        }
        let kind = self.fac(f).external_kind();
        for (op, id, branch) in stranded {
            self.op_map.remove(&op);
            self.fac_mut(f).cancel(op, now);
            self.remote_cancel_count += 1;
            self.orch.external_resolved(kind, op);
            let key = self.exec_key(id, branch, f);
            self.orch.release(&key);
            self.ledger_abort(&key);
            let name = self.scan_name(id);
            if let Some(span) = self.resolve_op_span(op, &name, now, SpanOutcome::Cancelled) {
                self.redirect_parent.insert((id, branch_key(branch)), span);
            }
            if let Some(&run) = self.branch_runs.get(&(id, branch_key(branch))) {
                self.orch
                    .start_task(run, "remote_cancel_stranded_job", None, now);
            }
            self.branch_failed(now, id, branch);
        }
        self.schedule_fac_poll(f);
    }

    /// Launch the single half-open re-admission probe the router just
    /// authorized: a tiny canary job at the campaign QOS (so it jumps
    /// any post-outage background backlog).
    fn launch_probe(&mut self, now: SimInstant, f: Facility) {
        self.probe_seq += 1;
        let spec = SubmitSpec {
            name: format!("{}{}_{}", PROBE_PREFIX, f.name(), self.probe_seq),
            task: FacilityTask::Probe,
            runtime: PROBE_RUNTIME,
            walltime: PROBE_WALLTIME,
            qos: self.cfg.nersc_qos,
            nodes: 1,
        };
        match self.fac_mut(f).submit(&spec, now) {
            Ok(sub) => {
                self.probe_ops.insert(sub.op, f);
                self.queue.schedule_at(sub.deadline, Ev::OpDeadline(sub.op));
                self.schedule_fac_poll(f);
            }
            Err(_) => self.router.probe_resolved(f, false, now, self.cfg.seed),
        }
    }

    fn on_prune(&mut self, now: SimInstant) {
        self.beamline_tier.prune(now);
        self.cfs_tier.prune(now);
        self.eagle_tier.prune(now);
        self.orion_tier.prune(now);
    }

    fn on_background(&mut self, now: SimInstant) {
        // a competing regular-QOS job from another NERSC user
        let runtime =
            SimDuration::from_secs_f64(self.rng.lognormal_med(1200.0, 0.5).clamp(120.0, 7200.0));
        let nodes = 1 + self.rng.uniform_u64(0, 2) as usize;
        let nodes = nodes.min(self.cfg.nersc_nodes);
        self.fac_mut(Facility::Nersc)
            .submit_background(runtime, nodes, now);
        self.schedule_fac_poll(Facility::Nersc);
    }

    fn on_crash_start(&mut self, now: SimInstant, i: usize) {
        if self.orchestrator_down {
            return;
        }
        self.orchestrator_down = true;
        self.crash_count += 1;
        // durable mode: each shard's journal was written ahead of every
        // mutation, so the durable bytes survive the process; the crash
        // plan may additionally wound one shard's on-disk image (a torn
        // group-commit write, a truncated tail, a flipped byte). The
        // baseline loses everything either way.
        self.persisted_wal = if self.cfg.durable_recovery {
            let damage = self
                .cfg
                .faults
                .orchestrator_crashes
                .get(i)
                .map(|c| c.damage)
                .unwrap_or(CrashDamage::None);
            let n = self.orch.shard_count();
            let mut images = self.orch.crash_images();
            match damage {
                CrashDamage::None => {}
                CrashDamage::MidGroupCommit { shard, keep_milli } => {
                    let s = shard % n;
                    images[s] = self.orch.shards()[s]
                        .journal()
                        .crash_image_mid_flush(keep_milli);
                    self.damaged_shards_seen.insert(s);
                }
                CrashDamage::ShardTorn { shard, drop_bytes } => {
                    let s = shard % n;
                    let keep = images[s].len().saturating_sub(drop_bytes);
                    images[s].truncate(keep);
                    self.damaged_shards_seen.insert(s);
                }
                CrashDamage::ShardCorrupt { shard, offset_back } => {
                    let s = shard % n;
                    if let Some(pos) = images[s].len().checked_sub(offset_back + 1) {
                        images[s][pos] ^= 0x01;
                        self.damaged_shards_seen.insert(s);
                    }
                }
            }
            Some(images)
        } else {
            None
        };
        // in-flight router probes die with the process; their facilities
        // stay half-open and re-probe on the next health tick
        let probes: Vec<(u64, Facility)> = self.probe_ops.iter().map(|(&o, &f)| (o, f)).collect();
        for (op, f) in probes {
            self.fac_mut(f).cancel(op, now);
            self.router.probe_resolved(f, false, now, self.cfg.seed);
        }
        self.probe_ops.clear();
        // the process dies: every in-memory coordinator structure is
        // gone. The staging workers in `ingest_worker` are beamline-side
        // and deliberately survive; router breaker state models the
        // monitoring service, which also survives.
        self.orch = ShardedOrchestrator::default();
        self.newfile_runs.clear();
        self.branch_runs.clear();
        self.transfer_map.clear();
        self.op_map.clear();
        self.raw_pids.clear();
        self.exec_site.clear();
        self.route_history.clear();
        // open-span bookkeeping is coordinator memory too; the journaled
        // events survive and recovery re-adopts what it can
        self.ingest_spans.clear();
        self.transfer_spans.clear();
        self.op_spans.clear();
        self.redirect_parent.clear();
        self.pending_route_note.clear();
    }

    fn on_crash_end(&mut self, now: SimInstant, _i: usize) {
        if !self.orchestrator_down {
            return;
        }
        self.orchestrator_down = false;
        self.epoch += 1;
        let holder = format!("orch-{}", self.epoch);
        match self.persisted_wal.take() {
            Some(wal) => self.recover_durable(now, &wal, &holder),
            None => {
                self.orch = ShardedOrchestrator::production(
                    &holder,
                    now,
                    self.cfg.shard_count.max(1),
                    self.cfg.group_commit_batch,
                );
                self.orch.instrument(&self.registry);
                self.baseline_rescan(now);
            }
        }
        // ingest scans the file writer saved while nobody was watching
        let backlog: Vec<ScanId> = std::mem::take(&mut self.backlog);
        for id in backlog {
            self.start_new_file(now, id);
        }
        self.schedule_transfer_poll();
        for f in self.router.enabled_facilities() {
            self.schedule_fac_poll(f);
        }
    }

    /// Durable restart: replay every shard journal (any order — shards
    /// are causally independent), reconcile with live facility state
    /// once across shards, and resume interrupted flows. Damage on one
    /// shard degrades only that shard's flows: their healing runs on
    /// facility-side evidence (labels, staging workers, the catalogue)
    /// instead of journal records.
    fn recover_durable(&mut self, now: SimInstant, wal: &[Vec<u8>], holder: &str) {
        let (orch, info) =
            ShardedOrchestrator::recover_fleet(wal, holder, now, self.cfg.group_commit_batch);
        self.orch = orch;
        self.orch.instrument(&self.registry);
        self.registry.counter("orch_recoveries_total", &[]).inc();
        self.recovery_count += 1;
        self.damaged_shards_seen.extend(info.damaged_shards());

        // rebuild the in-memory dispatch tables the dead incarnation held
        let by_name: BTreeMap<String, ScanId> = self
            .scans
            .iter()
            .map(|(&id, s)| (s.name.clone(), id))
            .collect();
        let mut resume_newfile: Vec<(ScanId, SimInstant)> = Vec::new();
        let mut resume_branches: Vec<(ScanId, Branch)> = Vec::new();
        for run in self.orch.all_runs() {
            let Some(&id) = run
                .parameters
                .get("scan")
                .and_then(|name| by_name.get(name))
            else {
                continue;
            };
            let terminal = run.state.is_terminal();
            match run.flow_name.as_str() {
                FLOW_NEW_FILE => {
                    self.newfile_runs.insert(id, run.id);
                    if !terminal {
                        // the journal recorded the ingest's scheduled
                        // completion; fire the lost event then
                        let done = run
                            .tasks
                            .first()
                            .and_then(|t| t.finished)
                            .map_or(now, |d| d.max(now));
                        resume_newfile.push((id, done));
                    }
                }
                FLOW_NERSC | FLOW_ALCF => {
                    let branch = if run.flow_name == FLOW_NERSC {
                        Branch::Nersc
                    } else {
                        Branch::Alcf
                    };
                    let bk = branch_key(branch);
                    self.branch_runs.insert((id, bk), run.id);
                    let exec = run
                        .parameters
                        .get("failover")
                        .and_then(|s| Facility::from_name(s))
                        .unwrap_or(home_fac(branch));
                    self.exec_site.insert((id, bk), exec);
                    // the redirect trail survives in the journaled route
                    // parameter; recovery recoveries-stamps it against
                    // the surviving breaker epochs
                    if let Some(route) = run.parameters.get("route") {
                        let names: Vec<&str> = route.split('>').collect();
                        let hist: Vec<(Facility, u32)> = names[..names.len().saturating_sub(1)]
                            .iter()
                            .filter_map(|s| Facility::from_name(s))
                            .map(|f| (f, self.router.recoveries(f)))
                            .collect();
                        if !hist.is_empty() {
                            self.route_history.insert((id, bk), hist);
                        }
                    } else if run.parameters.contains_key("failover") {
                        let home = home_fac(branch);
                        self.route_history
                            .insert((id, bk), vec![(home, self.router.recoveries(home))]);
                    }
                    if !terminal {
                        resume_branches.push((id, branch));
                    }
                }
                _ => {}
            }
        }

        // re-attach in-flight external operations from their journaled ctx
        for op in info.pending_external() {
            let Ok(ctx) = serde_json::from_str::<OpCtx>(&op.ctx) else {
                continue;
            };
            let id = ScanId(ctx.scan);
            let branch = branch_from_key(ctx.branch);
            match op.kind {
                ExternalKind::Transfer => {
                    let Some(fac) = Facility::from_key(ctx.fac) else {
                        continue;
                    };
                    let leg = if ctx.leg == 0 { Leg::ToHpc } else { Leg::Back };
                    self.transfer_map
                        .insert(TaskId(op.handle), (id, branch, leg, fac));
                }
                ExternalKind::Job | ExternalKind::Compute => {
                    // handles are facility-qualified; one map serves all
                    // three facilities
                    self.op_map.insert(op.handle, (id, branch));
                }
            }
            self.reattached_ops += 1;
        }

        // re-derive raw-dataset provenance from the catalogue (the
        // catalogue is facility-side and survived the crash)
        for (&id, scan) in &self.scans {
            if let Some(d) = self
                .catalog
                .search(&scan.name)
                .into_iter()
                .find(|d| matches!(d.kind, als_catalog::DatasetKind::Raw))
            {
                self.raw_pids.insert(id, d.pid.clone());
            }
        }

        // adopt facility operations the journal never heard about: their
        // ExternalSubmitted record was destroyed with a damaged shard
        // tail, but the facility is still running (or already finished)
        // the work. Every submission carries its re-attach context as a
        // label; adoption claims the key WITHOUT a ledger `begin` — the
        // side effect was initiated once, by the dead incarnation, and
        // is being adopted, not repeated.
        for f in self.router.enabled_facilities() {
            let kind = self.fac(f).external_kind();
            let labeled: Vec<(u64, String)> = self
                .fac(f)
                .labeled_ops()
                .into_iter()
                .filter_map(|(op, name)| name.split_once('|').map(|(_, ctx)| (op, ctx.to_string())))
                .collect();
            for (op, ctx_json) in labeled {
                if self.op_map.contains_key(&op) || self.orch.external_ever_seen(kind, op) {
                    continue;
                }
                if let Some((id, branch, _leg, _fac)) = self.parse_ctx(&ctx_json) {
                    let key = self.exec_key(id, branch, f);
                    if self.adopt_orphan(now, id, branch, f, &key, kind, op, &ctx_json) {
                        self.op_map.insert(op, (id, branch));
                    }
                }
            }
        }
        let labeled_transfers: Vec<(TaskId, String)> = self
            .transfer
            .tasks_labeled()
            .into_iter()
            .map(|(t, l, _)| (t, l.to_string()))
            .collect();
        for (task, ctx_json) in labeled_transfers {
            if self.transfer_map.contains_key(&task)
                || self.orch.external_ever_seen(ExternalKind::Transfer, task.0)
            {
                continue;
            }
            if let Some((id, branch, leg, fac)) = self.parse_ctx(&ctx_json) {
                let key = match leg {
                    Leg::ToHpc => self.copy_key(id, branch, fac),
                    Leg::Back => self.back_key(id, branch, fac),
                };
                if self.adopt_orphan(
                    now,
                    id,
                    branch,
                    fac,
                    &key,
                    ExternalKind::Transfer,
                    task.0,
                    &ctx_json,
                ) {
                    self.transfer_map.insert(task, (id, branch, leg, fac));
                }
            }
        }

        // re-adopt the journal's open spans before the drains below close
        // anything: in-flight stages must finish on their original span
        self.reattach_spans(now);

        // drain facility events buffered while the coordinator was dead —
        // re-attached completions/failures flow through the normal paths
        self.on_poll_transfers(now);
        for f in self.router.enabled_facilities() {
            self.on_poll_fac(now, f.key());
        }

        // sweep re-attached ops whose terminal event was emitted inline
        // while nobody was listening (e.g. an endpoint outage window);
        // facility-qualified handles sort NERSC < ALCF < OLCF, so the
        // sweep visits facilities in fleet order
        let ops: Vec<(u64, ScanId, Branch)> =
            self.op_map.iter().map(|(&o, &(i, b))| (o, i, b)).collect();
        for (op, id, branch) in ops {
            let Some((f, _)) = Facility::decode_op(op) else {
                continue;
            };
            match self.fac(f).op_fate(op) {
                OpFate::Live => {}
                OpFate::Completed => {
                    self.op_map.remove(&op);
                    let kind = self.fac(f).external_kind();
                    self.orch.external_resolved(kind, op);
                    let key = self.exec_key(id, branch, f);
                    let name = self.scan_name(id);
                    if self.rolls_transient_failure() {
                        if let Some(span) =
                            self.resolve_op_span(op, &name, now, SpanOutcome::Failed)
                        {
                            self.redirect_parent.insert((id, branch_key(branch)), span);
                        }
                        self.orch.release(&key);
                        self.ledger_abort(&key);
                        self.branch_failed(now, id, branch);
                    } else {
                        self.router.record_success(f);
                        self.resolve_op_span(op, &name, now, SpanOutcome::Ok);
                        self.orch.complete(&key);
                        self.ledger_done(&key);
                        self.step_back(now, id, branch);
                    }
                }
                OpFate::Failed | OpFate::Lost => {
                    self.op_map.remove(&op);
                    let kind = self.fac(f).external_kind();
                    self.orch.external_resolved(kind, op);
                    let key = self.exec_key(id, branch, f);
                    let name = self.scan_name(id);
                    if let Some(span) = self.resolve_op_span(op, &name, now, SpanOutcome::Failed) {
                        self.redirect_parent.insert((id, branch_key(branch)), span);
                    }
                    self.orch.release(&key);
                    self.ledger_abort(&key);
                    self.branch_failed(now, id, branch);
                }
            }
        }
        // transfers whose terminal event was consumed by the dead
        // incarnation right before the crash (the journal still shows
        // the op open because the resolve was in a lost batch): the
        // transfer service won't re-emit the event, so ask it directly
        let tx: Vec<(TaskId, ScanId, Branch, Leg, Facility)> = self
            .transfer_map
            .iter()
            .map(|(&t, &(i, b, l, f))| (t, i, b, l, f))
            .collect();
        for (task, id, branch, leg, fac) in tx {
            let key = match leg {
                Leg::ToHpc => self.copy_key(id, branch, fac),
                Leg::Back => self.back_key(id, branch, fac),
            };
            match transfer_fate(&self.transfer, task) {
                OpFate::Live => {}
                OpFate::Completed => {
                    self.transfer_map.remove(&task);
                    self.orch.external_resolved(ExternalKind::Transfer, task.0);
                    if let Some(span) = self.transfer_spans.remove(&task) {
                        let name = self.scan_name(id);
                        self.span_end(now, &name, span, SpanOutcome::Ok);
                    }
                    self.orch.complete(&key);
                    self.ledger_done(&key);
                    self.orch.commit_key(&key);
                    match leg {
                        Leg::ToHpc => self.step_exec(now, id, branch),
                        Leg::Back => self.finish_branch(now, id, branch, true),
                    }
                }
                OpFate::Failed | OpFate::Lost => {
                    self.transfer_map.remove(&task);
                    self.orch.external_resolved(ExternalKind::Transfer, task.0);
                    if let Some(span) = self.transfer_spans.remove(&task) {
                        let name = self.scan_name(id);
                        self.span_end(now, &name, span, SpanOutcome::Failed);
                        self.redirect_parent.insert((id, branch_key(branch)), span);
                    }
                    self.orch.release(&key);
                    self.ledger_abort(&key);
                    self.branch_failed(now, id, branch);
                }
            }
        }

        // reconcile: cancel live recon ops the journal disowns (their
        // ExternalSubmitted record was lost in a torn tail)
        let known: BTreeSet<u64> = self.op_map.keys().copied().collect();
        for f in self.router.enabled_facilities() {
            let n = self.fac_mut(f).cancel_orphans(&known, now);
            self.orphan_cancel_count += n;
            if n > 0 {
                self.schedule_fac_poll(f);
            }
        }

        // resume interrupted flows that have no live op to report back;
        // runs with an open external op are left alone — the op's
        // completion (or its deadline) drives the next step
        let open_runs = self.orch.runs_with_open_ops();
        for (id, branch) in resume_branches {
            let Some(&run) = self.branch_runs.get(&(id, branch_key(branch))) else {
                continue;
            };
            if open_runs.contains(&run) || self.orch.run(run).is_some_and(|r| r.state.is_terminal())
            {
                continue;
            }
            self.launch_branch(now, id, branch);
        }
        for (id, done) in resume_newfile {
            let Some(&run) = self.newfile_runs.get(&id) else {
                continue;
            };
            if self.orch.run(run).is_some_and(|r| r.state.is_terminal()) {
                continue;
            }
            self.queue
                .schedule_at(done, Ev::NewFileDone(id, self.epoch));
        }

        // staging workers that survived the crash: the worker finishes
        // its job whether or not the journal remembers asking. Re-detect
        // workers whose newfile run the journal lost (damaged shard) and
        // fire the completion the worker would have reported.
        let workers: Vec<(ScanId, SimInstant)> =
            self.ingest_worker.iter().map(|(&i, &d)| (i, d)).collect();
        for (id, done) in workers {
            if self.newfile_runs.contains_key(&id) || !self.scans.contains_key(&id) {
                continue;
            }
            let key = self.ingest_key(id);
            if self.orch.is_completed(&key) {
                continue;
            }
            self.queue
                .schedule_at(done.max(now), Ev::NewFileDone(id, self.epoch));
            self.degraded_scans.insert(id.0);
        }
        // catalogue evidence: the raw dataset exists but the journal
        // lost the ingest completion — harvest it, don't re-ingest
        let with_raw: Vec<ScanId> = self.raw_pids.keys().copied().collect();
        for id in with_raw {
            let key = self.ingest_key(id);
            if self.orch.is_completed(&key) {
                continue;
            }
            self.queue.schedule_at(now, Ev::NewFileDone(id, self.epoch));
            self.degraded_scans.insert(id.0);
        }
    }

    /// Re-adopt open spans from the replayed journal. The new
    /// incarnation resumes the span allocator above the highest
    /// journaled id, then re-links every open span to the dispatch
    /// tables `recover_durable` just rebuilt — matched by (scan, stage,
    /// facility) — so in-flight stages close on their original span when
    /// their op resolves. Open spans with no surviving op or transfer
    /// are closed `Cancelled`.
    fn reattach_spans(&mut self, now: SimInstant) {
        let traces = self.orch.merged_traces();
        self.next_span = self
            .next_span
            .max(traces.max_span_id().map_or(0, |m| m + 1));
        let by_name: BTreeMap<String, ScanId> = self
            .scans
            .iter()
            .map(|(&id, s)| (s.name.clone(), id))
            .collect();
        // live externals by trace coordinates (leg: 0 = to-HPC, 1 = back)
        let mut live_tx: BTreeMap<(ScanId, u8, String), Vec<TaskId>> = BTreeMap::new();
        for (&task, &(id, _b, leg, fac)) in &self.transfer_map {
            let leg = match leg {
                Leg::ToHpc => 0u8,
                Leg::Back => 1,
            };
            live_tx
                .entry((id, leg, fac.name().to_string()))
                .or_default()
                .push(task);
        }
        let mut live_ops: BTreeMap<(ScanId, String), Vec<u64>> = BTreeMap::new();
        for (&op, &(id, _b)) in &self.op_map {
            if let Some((f, _)) = Facility::decode_op(op) {
                live_ops
                    .entry((id, f.name().to_string()))
                    .or_default()
                    .push(op);
            }
        }
        let mut orphans: Vec<(String, SpanId)> = Vec::new();
        for trace in traces.scans() {
            let Some(&id) = by_name.get(&trace.scan) else {
                continue;
            };
            for span in trace.spans.iter().filter(|s| !s.is_closed()) {
                match span.stage {
                    Stage::Ingest => {
                        // completion is driven by the surviving staging
                        // worker (or evidence healing), which re-fires
                        // NewFileDone and closes this span
                        self.ingest_spans.insert(id, span.id);
                    }
                    Stage::Transfer | Stage::BackTransfer => {
                        let leg = if span.stage == Stage::Transfer { 0 } else { 1 };
                        let slot = live_tx
                            .get_mut(&(id, leg, span.facility.clone()))
                            .and_then(Vec::pop);
                        match slot {
                            Some(task) => {
                                self.transfer_spans.insert(task, span.id);
                            }
                            None => orphans.push((trace.scan.clone(), span.id)),
                        }
                    }
                    Stage::QueueWait => {
                        let slot = live_ops
                            .get_mut(&(id, span.facility.clone()))
                            .and_then(Vec::pop);
                        match slot {
                            Some(op) => {
                                // the expected in-job runtime died with
                                // the old incarnation: attribute the
                                // whole interval to queue-wait
                                self.op_spans
                                    .insert(op, (span.id, span.start, SimDuration::ZERO));
                            }
                            None => orphans.push((trace.scan.clone(), span.id)),
                        }
                    }
                    _ => orphans.push((trace.scan.clone(), span.id)),
                }
            }
        }
        for (scan, span) in orphans {
            self.span_end(now, &scan, span, SpanOutcome::Cancelled);
        }
    }

    /// Decode a submission label back into dispatch coordinates,
    /// rejecting scans this sim never produced.
    fn parse_ctx(&self, ctx_json: &str) -> Option<(ScanId, Branch, Leg, Facility)> {
        let ctx: OpCtx = serde_json::from_str(ctx_json).ok()?;
        let id = ScanId(ctx.scan);
        if !self.scans.contains_key(&id) {
            return None;
        }
        let leg = if ctx.leg == 0 { Leg::ToHpc } else { Leg::Back };
        Some((
            id,
            branch_from_key(ctx.branch),
            leg,
            Facility::from_key(ctx.fac)?,
        ))
    }

    /// Adopt one facility operation whose submission record the journal
    /// lost: re-claim its idempotency key (no ledger `begin` — the work
    /// was initiated once, by the dead incarnation), re-journal the
    /// submission, and mark the scan degraded. Returns false when the
    /// key is already completed or held — nothing to adopt.
    #[allow(clippy::too_many_arguments)]
    fn adopt_orphan(
        &mut self,
        now: SimInstant,
        id: ScanId,
        branch: Branch,
        fac: Facility,
        key: &str,
        kind: ExternalKind,
        handle: u64,
        ctx: &str,
    ) -> bool {
        if self.orch.claim(key, now, CLAIM_LEASE) != Claim::Run {
            return false;
        }
        let run = self.ensure_branch_run(now, id, branch, fac);
        self.orch.start_task(run, "adopt_orphan_op", Some(key), now);
        self.orch.external_submitted(kind, handle, run, ctx);
        self.adopted_orphan_ops += 1;
        self.degraded_scans.insert(id.0);
        true
    }

    /// The branch run for (scan, branch), re-created when the journal
    /// lost the FlowCreated record along with the submission.
    fn ensure_branch_run(
        &mut self,
        now: SimInstant,
        id: ScanId,
        branch: Branch,
        fac: Facility,
    ) -> FlowRunId {
        let bk = branch_key(branch);
        if let Some(&run) = self.branch_runs.get(&(id, bk)) {
            self.exec_site.entry((id, bk)).or_insert(fac);
            return run;
        }
        let name = self.scan_name(id);
        let run = self.orch.create_run(flow_of(branch), &name, now);
        self.orch.set_parameter(run, "scan", &name);
        self.orch.start_run(run, now);
        self.branch_runs.insert((id, bk), run);
        self.exec_site.insert((id, bk), fac);
        let home = home_fac(branch);
        if fac != home {
            // the adopted op was already executing at another facility:
            // record the redirect so provenance and re-claims line up
            let rec = self.router.recoveries(home);
            self.route_history
                .entry((id, bk))
                .or_insert_with(|| vec![(home, rec)]);
            self.orch.set_parameter(run, "failover", fac.name());
            self.orch
                .set_parameter(run, "route", &format!("{}>{}", home.name(), fac.name()));
        }
        run
    }

    /// Baseline restart (no journal): the new incarnation knows nothing.
    /// It walks the beamline filesystem and the catalogue and re-runs
    /// whatever looks unfinished — re-initiating work that is actually
    /// still in flight at the facilities (the duplicates the durable
    /// path exists to avoid).
    fn baseline_rescan(&mut self, now: SimInstant) {
        let ids: Vec<ScanId> = self.scans.keys().copied().collect();
        for id in ids {
            let scan = self.scans.get(&id).expect("scan exists").clone();
            if !self.beamline_tier.contains(&format!("{}.h5", scan.name)) {
                continue; // not saved yet; its ScanSaved event will come
            }
            let raw_pid = self
                .catalog
                .search(&scan.name)
                .into_iter()
                .find(|d| matches!(d.kind, als_catalog::DatasetKind::Raw))
                .map(|d| d.pid.clone());
            match raw_pid {
                None => self.start_new_file(now, id),
                Some(pid) => {
                    self.raw_pids.insert(id, pid);
                    for branch in [Branch::Nersc, Branch::Alcf] {
                        let product = format!("{}_recon_{}", scan.name, branch_name(branch));
                        if !self.beamline_tier.contains(&product) {
                            self.launch_branch(now, id, branch);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(n: usize, seed: u64) -> FacilitySim {
        let mut sim = FacilitySim::new(SimConfig {
            seed,
            ..Default::default()
        });
        let mut workload = ScanWorkload::production();
        sim.schedule_campaign(&mut workload, n);
        sim.run(None);
        sim
    }

    #[test]
    fn every_scan_produces_three_flow_runs() {
        let sim = run_small(5, 1);
        let engine = sim.engine();
        let q = engine.query();
        assert_eq!(q.runs_of(FLOW_NEW_FILE).len(), 5);
        assert_eq!(q.runs_of(FLOW_NERSC).len(), 5);
        assert_eq!(q.runs_of(FLOW_ALCF).len(), 5);
    }

    #[test]
    fn all_flows_complete_in_a_healthy_campaign() {
        let sim = run_small(8, 2);
        let engine = sim.engine();
        let q = engine.query();
        for flow in [FLOW_NEW_FILE, FLOW_NERSC, FLOW_ALCF] {
            assert_eq!(
                q.success_rate(flow),
                Some(1.0),
                "{flow} should fully succeed"
            );
        }
        assert_eq!(sim.completed_scans, 16); // both branches × 8 scans
    }

    #[test]
    fn catalog_gets_raw_and_derived_datasets() {
        let sim = run_small(4, 3);
        // 4 raw + up to 8 recon datasets
        assert_eq!(sim.catalog.len(), 4 + 8);
        // provenance: each raw has two derived children
        let raws: Vec<_> = sim
            .catalog
            .search("scan")
            .into_iter()
            .filter(|d| matches!(d.kind, als_catalog::DatasetKind::Raw))
            .map(|d| d.pid.clone())
            .collect();
        assert_eq!(raws.len(), 4);
        for pid in raws {
            assert_eq!(sim.catalog.derived_chain(&pid).len(), 2);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_small(6, 42);
        let b = run_small(6, 42);
        let qa = a
            .engine()
            .query()
            .last_n_successful_durations(FLOW_NERSC, 10);
        let qb = b
            .engine()
            .query()
            .last_n_successful_durations(FLOW_NERSC, 10);
        assert_eq!(qa, qb);
        let c = run_small(6, 43);
        let qc = c
            .engine()
            .query()
            .last_n_successful_durations(FLOW_NERSC, 10);
        assert_ne!(qa, qc);
    }

    #[test]
    fn flow_durations_are_in_plausible_bands() {
        let sim = run_small(12, 7);
        let engine = sim.engine();
        let q = engine.query();
        let nf = q.table2_summary(FLOW_NEW_FILE, 100).unwrap();
        assert!(
            nf.median > 10.0 && nf.median < 300.0,
            "new_file med {}",
            nf.median
        );
        let nersc = q.table2_summary(FLOW_NERSC, 100).unwrap();
        assert!(
            nersc.median > 600.0 && nersc.median < 3000.0,
            "nersc med {}",
            nersc.median
        );
        let alcf = q.table2_summary(FLOW_ALCF, 100).unwrap();
        assert!(
            alcf.median > 500.0 && alcf.median < 2500.0,
            "alcf med {}",
            alcf.median
        );
    }

    #[test]
    fn beamline_tier_accumulates_raw_and_recon_files() {
        let sim = run_small(3, 9);
        // 3 raw + 6 recon outputs
        assert_eq!(sim.beamline_tier.file_count(), 9);
    }

    #[test]
    fn healthy_campaign_stays_on_home_facilities() {
        let sim = run_small(6, 11);
        assert_eq!(sim.failover_count, 0);
        assert_eq!(sim.max_route_hops(), 0);
        assert!(sim.router.decisions().iter().all(|d| d.chosen == d.home));
    }
}
