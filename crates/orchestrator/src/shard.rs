//! Sharded orchestrator fleet: N journal partitions, group commit, and
//! fleet-wide crash recovery.
//!
//! [`ShardedOrchestrator`] partitions the durable core across N
//! [`DurableOrchestrator`] shards. Routing is by *scan prefix*: the part
//! of an idempotency key before the first `/` (the scan/campaign id)
//! hashes to a shard, and every key and flow run of that scan lives on
//! the same partition. Run ids are strided (`id % n == shard`), so ids
//! stay globally unique without coordination and any id routes back to
//! its owner in O(1).
//!
//! Completions are additionally replicated to the next shard in the
//! ring — a grow-only set, so replication cannot conflict — which lets
//! [`ShardedOrchestrator::claim`] consult the fleet-wide completed union
//! first. A single shard losing its journal suffix therefore cannot
//! forget enough to re-run another shard's completed side effects, and
//! usually not even its own.
//!
//! [`ShardedOrchestrator::recover_fleet`] replays every shard image
//! independently (shards share no mutable state, so any replay order
//! yields the same fleet) and reports per-shard damage: a torn tail on
//! one partition degrades only the flows routed to it.
//!
//! [`ShardPool`] is the event-loop execution shape: one thread per
//! shard, each owning its orchestrator and WAL device outright, fed by a
//! closure mailbox — task transitions on different shards never touch a
//! shared lock.

use crate::engine::{FlowEngine, FlowRunId, FlowState, TaskState};
use crate::idempotency::Claim;
use crate::journal::ExternalKind;
use crate::recovery::{DurableOrchestrator, PendingOp, PendingRetry, RecoveryInfo};
use als_simcore::{SimDuration, SimInstant};
use als_telemetry::{Registry, TraceEvent, TraceStore};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::thread;

/// FNV-1a over the routing prefix — stable, cheap, and good enough to
/// spread scan names across a handful of partitions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a routing key belongs to: hash of the scan/campaign prefix
/// (everything before the first `/`; keys without one hash whole).
pub fn shard_of_key(key: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let prefix = key.split('/').next().unwrap_or(key);
    (fnv1a(prefix.as_bytes()) % shards as u64) as usize
}

/// Per-shard recovery reports plus fleet-level aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecoveryInfo {
    pub shards: Vec<RecoveryInfo>,
}

impl FleetRecoveryInfo {
    /// External operations still open per any shard's journal.
    pub fn pending_external(&self) -> impl Iterator<Item = &PendingOp> {
        self.shards.iter().flat_map(|s| s.pending_external.iter())
    }

    /// Retries owed across the fleet.
    pub fn pending_retries(&self) -> impl Iterator<Item = &PendingRetry> {
        self.shards.iter().flat_map(|s| s.pending_retries.iter())
    }

    pub fn expired_leases(&self) -> usize {
        self.shards.iter().map(|s| s.expired_leases.len()).sum()
    }

    pub fn replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    /// Torn/corrupt bytes truncated across all partitions.
    pub fn dropped_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.tail.dropped_bytes).sum()
    }

    /// Indices of partitions whose journal tail was damaged — the only
    /// shards whose flows may need facility-evidence reconciliation.
    pub fn damaged_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.tail.is_clean())
            .map(|(i, _)| i)
            .collect()
    }
}

/// N durable orchestrator shards behind one façade, routing by scan
/// prefix and run id.
#[derive(Debug, Clone)]
pub struct ShardedOrchestrator {
    shards: Vec<DurableOrchestrator>,
}

impl Default for ShardedOrchestrator {
    fn default() -> Self {
        ShardedOrchestrator {
            shards: vec![DurableOrchestrator::default()],
        }
    }
}

impl ShardedOrchestrator {
    /// A fresh fleet of `n` shards. `batch <= 1` keeps every shard in
    /// immediate-durability mode (the unsharded PR 2 behaviour with
    /// `n == 1`).
    pub fn new(holder: &str, now: SimInstant, n: usize, batch: usize) -> Self {
        assert!(n > 0, "fleet needs at least one shard");
        ShardedOrchestrator {
            shards: (0..n)
                .map(|i| DurableOrchestrator::shard(holder, now, i as u64, n as u64, batch))
                .collect(),
        }
    }

    /// A fresh fleet with the §4.2.2 production concurrency pools on
    /// every shard (each shard polices its slice of the fleet quota).
    pub fn production(holder: &str, now: SimInstant, n: usize, batch: usize) -> Self {
        let mut fleet = Self::new(holder, now, n, batch);
        for shard in &mut fleet.shards {
            for (tag, limit) in [
                ("scan-detect", 8),
                ("hpc-submit", 2),
                ("globus-transfer", 4),
                ("prune", 1),
            ] {
                shard.set_limit(tag, limit);
            }
            // pool configuration must survive a crash before first flush
            shard.commit();
        }
        fleet
    }

    /// Adopt pre-built shards (e.g. recovered individually, possibly on
    /// separate threads) as one fleet. Shard order must match each
    /// shard's id stride.
    pub fn from_shards(shards: Vec<DurableOrchestrator>) -> Self {
        assert!(!shards.is_empty(), "fleet needs at least one shard");
        ShardedOrchestrator { shards }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn holder(&self) -> &str {
        self.shards[0].holder()
    }

    /// The partition a key routes to.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_of_key(key, self.shards.len())
    }

    fn shard_of_run(&self, id: FlowRunId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    pub fn shards(&self) -> &[DurableOrchestrator] {
        &self.shards
    }

    /// Direct shard access — chaos injection and tests.
    pub fn shards_mut(&mut self) -> &mut [DurableOrchestrator] {
        &mut self.shards
    }

    // ----- journal / durability ----------------------------------------

    /// Commit barrier on every shard.
    pub fn commit_all(&mut self) {
        for shard in &mut self.shards {
            shard.commit();
        }
    }

    /// Commit barrier on the shard owning `key`.
    pub fn commit_key(&mut self, key: &str) {
        let s = self.shard_of(key);
        self.shards[s].commit();
    }

    /// What a crash right now leaves on durable storage, per shard.
    pub fn crash_images(&self) -> Vec<Vec<u8>> {
        self.shards
            .iter()
            .map(|s| s.journal().crash_image())
            .collect()
    }

    /// Total records appended across the fleet (durable + pending).
    pub fn journal_records(&self) -> u64 {
        self.shards.iter().map(|s| s.journal().record_count()).sum()
    }

    /// Total durable write operations across the fleet.
    pub fn journal_writes(&self) -> u64 {
        self.shards.iter().map(|s| s.journal().write_count()).sum()
    }

    /// Attach registry handles to every shard. The handles are shared
    /// cells, so journal/flush/span metrics read as fleet totals.
    pub fn instrument(&mut self, registry: &Registry) {
        for shard in &mut self.shards {
            shard.instrument(registry);
        }
    }

    // ----- journaled trace spans ---------------------------------------

    /// Journal a span event on the shard owning the scan, so a scan's
    /// spans and its state records share a WAL partition.
    pub fn record_span(&mut self, key: &str, ev: TraceEvent) {
        let s = self.shard_of(key);
        self.shards[s].record_span(ev);
    }

    /// Fleet-wide trace view: every shard's journaled spans merged.
    /// Build once per query burst — it clones the spans.
    pub fn merged_traces(&self) -> TraceStore {
        let mut merged = TraceStore::new();
        for shard in &self.shards {
            merged.merge_from(shard.traces());
        }
        merged
    }

    /// Highest span id journaled anywhere in the fleet — a recovered
    /// incarnation resumes its span allocator above this.
    pub fn max_span_id(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.traces().max_span_id())
            .max()
    }

    // ----- idempotency --------------------------------------------------

    /// Completed anywhere in the fleet? Replication makes this robust to
    /// one shard forgetting its suffix.
    pub fn is_completed(&self, key: &str) -> bool {
        self.shards
            .iter()
            .any(|sh| sh.idempotency.is_completed(key))
    }

    /// Fleet-wide completed-key union, deduplicated (replicas collapse).
    pub fn completed_union(&self) -> BTreeSet<&str> {
        self.shards
            .iter()
            .flat_map(|sh| sh.idempotency.completed_keys())
            .collect()
    }

    /// Claim a key: the fleet-wide completed union short-circuits to
    /// `Cached`; otherwise the owning shard decides.
    pub fn claim(&mut self, key: &str, now: SimInstant, lease: SimDuration) -> Claim {
        if self.is_completed(key) {
            return Claim::Cached;
        }
        let s = self.shard_of(key);
        self.shards[s].claim(key, now, lease)
    }

    /// Complete a key on its owner and replicate to the next shard in
    /// the ring (grow-only, so replication cannot conflict).
    pub fn complete(&mut self, key: &str) {
        let n = self.shards.len();
        let s = self.shard_of(key);
        self.shards[s].complete(key);
        if n > 1 {
            self.shards[(s + 1) % n].complete(key);
        }
    }

    pub fn release(&mut self, key: &str) {
        let s = self.shard_of(key);
        self.shards[s].release(key);
    }

    // ----- flow runs ----------------------------------------------------

    /// Create a run on the shard owning `routing_key` (the scan name, so
    /// a scan's run and its idempotency keys share a partition).
    pub fn create_run(&mut self, flow: &str, routing_key: &str, now: SimInstant) -> FlowRunId {
        let s = self.shard_of(routing_key);
        let id = self.shards[s].create_run(flow, now);
        debug_assert_eq!(self.shard_of_run(id), s, "stride and routing disagree");
        id
    }

    pub fn set_parameter(&mut self, id: FlowRunId, key: &str, value: &str) {
        let s = self.shard_of_run(id);
        self.shards[s].set_parameter(id, key, value);
    }

    pub fn start_run(&mut self, id: FlowRunId, now: SimInstant) {
        let s = self.shard_of_run(id);
        self.shards[s].start_run(id, now);
    }

    pub fn finish_run(&mut self, id: FlowRunId, state: FlowState, now: SimInstant) {
        let s = self.shard_of_run(id);
        self.shards[s].finish_run(id, state, now);
    }

    pub fn start_task(
        &mut self,
        id: FlowRunId,
        name: &str,
        key: Option<&str>,
        now: SimInstant,
    ) -> usize {
        let s = self.shard_of_run(id);
        self.shards[s].start_task(id, name, key, now)
    }

    pub fn finish_task(
        &mut self,
        id: FlowRunId,
        task: usize,
        state: TaskState,
        now: SimInstant,
        error: Option<&str>,
    ) {
        let s = self.shard_of_run(id);
        self.shards[s].finish_task(id, task, state, now, error);
    }

    pub fn retry_task(&mut self, id: FlowRunId, task: usize, now: SimInstant) {
        let s = self.shard_of_run(id);
        self.shards[s].retry_task(id, task, now);
    }

    pub fn schedule_retry(&mut self, id: FlowRunId, task: usize, attempt: u32, delay: SimDuration) {
        let s = self.shard_of_run(id);
        self.shards[s].schedule_retry(id, task, attempt, delay);
    }

    pub fn run(&self, id: FlowRunId) -> Option<&crate::engine::FlowRun> {
        let s = self.shard_of_run(id);
        self.shards[s].engine.run(id)
    }

    /// Every run across the fleet (per-shard creation order, shard 0
    /// first — deterministic, not globally time-ordered).
    pub fn all_runs(&self) -> impl Iterator<Item = &crate::engine::FlowRun> {
        self.shards.iter().flat_map(|s| s.engine.runs())
    }

    /// Fleet-wide query view: a merged copy of every shard's run
    /// database. Build once per query burst — it clones the runs.
    pub fn merged_engine(&self) -> FlowEngine {
        let mut merged = FlowEngine::new();
        for shard in &self.shards {
            merged.absorb(&shard.engine);
        }
        merged
    }

    // ----- external operations -----------------------------------------

    pub fn external_submitted(
        &mut self,
        kind: ExternalKind,
        handle: u64,
        run: FlowRunId,
        ctx: &str,
    ) {
        let s = self.shard_of_run(run);
        self.shards[s].external_submitted(kind, handle, run, ctx);
    }

    /// Resolve an external handle on whichever shard holds it open.
    pub fn external_resolved(&mut self, kind: ExternalKind, handle: u64) {
        for shard in &mut self.shards {
            if shard.external_is_open(kind, handle) {
                shard.external_resolved(kind, handle);
                return;
            }
        }
    }

    pub fn external_is_open(&self, kind: ExternalKind, handle: u64) -> bool {
        self.shards.iter().any(|s| s.external_is_open(kind, handle))
    }

    /// Did any shard's journal ever record this handle's submission?
    pub fn external_ever_seen(&self, kind: ExternalKind, handle: u64) -> bool {
        self.shards
            .iter()
            .any(|s| s.external_ever_seen(kind, handle))
    }

    pub fn runs_with_open_ops(&self) -> BTreeSet<FlowRunId> {
        self.shards
            .iter()
            .flat_map(|s| s.runs_with_open_ops())
            .collect()
    }

    pub fn open_external_count(&self) -> usize {
        self.shards.iter().map(|s| s.open_external_count()).sum()
    }

    // ----- recovery -----------------------------------------------------

    /// Fleet-wide recovery: replay every shard image independently and
    /// re-assemble the fleet. Shards share no mutable state, so replay
    /// order cannot matter; damage on one image truncates only that
    /// shard's prefix while the rest recover in full.
    pub fn recover_fleet(
        images: &[Vec<u8>],
        holder: &str,
        now: SimInstant,
        batch: usize,
    ) -> (Self, FleetRecoveryInfo) {
        assert!(!images.is_empty(), "fleet needs at least one journal");
        let total = images.len() as u64;
        let mut shards = Vec::with_capacity(images.len());
        let mut infos = Vec::with_capacity(images.len());
        for (i, image) in images.iter().enumerate() {
            let (shard, info) =
                DurableOrchestrator::recover_shard(image, holder, now, i as u64, total, batch);
            shards.push(shard);
            infos.push(info);
        }
        (
            ShardedOrchestrator { shards },
            FleetRecoveryInfo { shards: infos },
        )
    }
}

// ----- per-shard event loops -------------------------------------------

type ShardOp = Box<dyn FnOnce(&mut DurableOrchestrator) + Send>;

/// One event-loop thread per shard, each owning its orchestrator (and
/// optionally a WAL device sink) outright. Operations are closures
/// mailed to the owning shard; transitions on different shards proceed
/// with no shared lock. `join` drains the mailboxes and hands the
/// shards back.
pub struct ShardPool {
    senders: Vec<mpsc::Sender<ShardOp>>,
    handles: Vec<thread::JoinHandle<DurableOrchestrator>>,
}

impl ShardPool {
    /// Spawn event loops with no WAL device attached.
    pub fn spawn(shards: Vec<DurableOrchestrator>) -> Self {
        Self::spawn_with_sinks(shards, |_| Box::new(|_bytes: &[u8]| {}))
    }

    /// Spawn event loops where shard `i` persists through `mk_sink(i)`:
    /// after each operation, the sink receives exactly the bytes the
    /// journal made durable since the last call (a real device would
    /// write-and-fsync them). In immediate mode that is every record; in
    /// group-commit mode, one call per flush.
    pub fn spawn_with_sinks(
        shards: Vec<DurableOrchestrator>,
        mut mk_sink: impl FnMut(usize) -> Box<dyn FnMut(&[u8]) + Send>,
    ) -> Self {
        let mut senders = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (i, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<ShardOp>();
            let mut sink = mk_sink(i);
            let handle = thread::spawn(move || {
                // construction-time records (incarnation, pools) first
                let mut synced = 0usize;
                if shard.journal().byte_len() > 0 {
                    sink(shard.journal().bytes());
                    synced = shard.journal().byte_len();
                }
                while let Ok(op) = rx.recv() {
                    op(&mut shard);
                    let len = shard.journal().byte_len();
                    if len > synced {
                        sink(&shard.journal().bytes()[synced..]);
                        synced = len;
                    }
                }
                shard
            });
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool { senders, handles }
    }

    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Mail an operation to shard `s`'s event loop.
    pub fn submit(&self, s: usize, op: impl FnOnce(&mut DurableOrchestrator) + Send + 'static) {
        self.senders[s]
            .send(Box::new(op))
            .expect("shard loop alive");
    }

    /// Close every mailbox, drain the loops, and return the shards.
    pub fn join(self) -> Vec<DurableOrchestrator> {
        drop(self.senders);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("shard thread exits cleanly"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FlowState;
    use crate::idempotency::Claim;

    fn t(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    const LEASE: SimDuration = SimDuration::from_secs(600);

    #[test]
    fn keys_of_one_scan_share_a_partition() {
        for scan in ["scan_0001", "scan_0042", "tomo_setup_9"] {
            let home = shard_of_key(&format!("{scan}/ingest"), 8);
            for key in [
                format!("{scan}/nersc_recon_flow/copy@nersc"),
                format!("{scan}/alcf_recon_flow/exec@alcf"),
                format!("{scan}/nersc_recon_flow/back@nersc"),
            ] {
                assert_eq!(shard_of_key(&key, 8), home, "{key} left its scan's shard");
            }
        }
    }

    #[test]
    fn runs_land_on_their_scans_shard_with_globally_unique_ids() {
        let mut fleet = ShardedOrchestrator::new("orch-0", t(0), 4, 0);
        let mut seen = BTreeSet::new();
        for i in 0..12 {
            let scan = format!("scan_{i:04}");
            let id = fleet.create_run("new_file_832", &scan, t(i));
            assert!(seen.insert(id.0), "duplicate id across shards");
            assert_eq!(
                (id.0 % 4) as usize,
                fleet.shard_of(&scan),
                "run id must encode its scan's shard"
            );
        }
        assert_eq!(fleet.merged_engine().run_count(), 12);
    }

    #[test]
    fn completion_replicates_to_the_ring_neighbour() {
        let mut fleet = ShardedOrchestrator::new("orch-0", t(0), 4, 0);
        let key = "scan_0007/ingest";
        assert_eq!(fleet.claim(key, t(1), LEASE), Claim::Run);
        fleet.complete(key);
        let owner = fleet.shard_of(key);
        let replica = (owner + 1) % 4;
        assert!(fleet.shards()[owner].idempotency.is_completed(key));
        assert!(
            fleet.shards()[replica].idempotency.is_completed(key),
            "replica shard must also remember the completion"
        );
        assert_eq!(fleet.completed_union().len(), 1, "union deduplicates");
        // even if the owner forgets everything, the fleet stays Cached
        fleet.shards_mut()[owner] = DurableOrchestrator::shard("orch-1", t(2), owner as u64, 4, 0);
        assert_eq!(
            fleet.claim(key, t(3), LEASE),
            Claim::Cached,
            "replicated completion survives total owner amnesia"
        );
    }

    #[test]
    fn fleet_recovery_is_order_independent_and_damage_is_isolated() {
        let mut fleet = ShardedOrchestrator::new("orch-0", t(0), 3, 4);
        // spread flows across all shards
        for i in 0..9 {
            let scan = format!("scan_{i:04}");
            let key = format!("{scan}/ingest");
            assert_eq!(fleet.claim(&key, t(i), LEASE), Claim::Run);
            let run = fleet.create_run("new_file_832", &scan, t(i));
            fleet.start_run(run, t(i));
            fleet.external_submitted(ExternalKind::Transfer, i, run, "{}");
            fleet.complete(&key);
        }
        fleet.commit_all();
        let mut images = fleet.crash_images();
        // wreck one shard's suffix
        let victim = 1usize;
        let torn = 120.min(images[victim].len() / 2);
        let keep = images[victim].len() - torn;
        images[victim].truncate(keep);

        let (rec_a, info_a) = ShardedOrchestrator::recover_fleet(&images, "orch-1", t(100), 4);
        assert_eq!(info_a.damaged_shards(), vec![victim]);
        assert!(info_a.dropped_bytes() > 0);

        // recover the shards individually in reverse order: same fleet
        let mut shards_rev: Vec<Option<DurableOrchestrator>> =
            (0..images.len()).map(|_| None).collect();
        for i in (0..images.len()).rev() {
            let (s, info) =
                DurableOrchestrator::recover_shard(&images[i], "orch-1", t(100), i as u64, 3, 4);
            assert_eq!(info, info_a.shards[i], "per-shard report is order-free");
            shards_rev[i] = Some(s);
        }
        let rec_b =
            ShardedOrchestrator::from_shards(shards_rev.into_iter().map(Option::unwrap).collect());
        for i in 0..3 {
            assert_eq!(rec_a.shards()[i].engine, rec_b.shards()[i].engine);
            assert_eq!(rec_a.shards()[i].idempotency, rec_b.shards()[i].idempotency);
            assert_eq!(rec_a.shards()[i].limits, rec_b.shards()[i].limits);
        }
        // undamaged shards recovered every record; the victim lost some
        for (i, info) in info_a.shards.iter().enumerate() {
            if i != victim {
                assert!(info.tail.is_clean(), "shard {i} must be untouched");
            }
        }
        assert!(
            info_a.shards[victim].replayed < fleet.shards()[victim].journal().record_count(),
            "the victim's torn suffix is gone"
        );
    }

    #[test]
    fn group_commit_loses_only_unbarriered_bookkeeping() {
        let mut fleet = ShardedOrchestrator::new("orch-0", t(0), 2, 16);
        let scan = "scan_0001";
        let key = format!("{scan}/ingest");
        assert_eq!(fleet.claim(&key, t(1), LEASE), Claim::Run);
        let run = fleet.create_run("new_file_832", scan, t(1));
        fleet.start_run(run, t(1));
        // submission is a barrier: everything above is durable now
        fleet.external_submitted(ExternalKind::Transfer, 0, run, "{}");
        // bookkeeping after the barrier stays pending
        fleet.external_resolved(ExternalKind::Transfer, 0);
        fleet.complete(&key);
        let images = fleet.crash_images();
        let (rec, info) = ShardedOrchestrator::recover_fleet(&images, "orch-1", t(50), 16);
        for s in &info.shards {
            assert!(s.tail.is_clean(), "losing pending frames is not damage");
        }
        assert!(
            rec.external_is_open(ExternalKind::Transfer, 0),
            "the resolve was pending: journal still sees the op open"
        );
        assert!(
            !rec.is_completed(&key),
            "the completion was pending: fate sweep must re-complete it"
        );
        assert!(rec.run(run).is_some(), "the barrier made the run durable");
    }

    #[test]
    fn fleet_traces_route_by_scan_and_survive_recovery() {
        use als_telemetry::{SpanOutcome, Stage};
        let mut fleet = ShardedOrchestrator::new("orch-0", t(0), 4, 8);
        for i in 0..6u64 {
            let scan = format!("scan_{i:04}");
            fleet.record_span(
                &format!("{scan}/ingest"),
                TraceEvent::Start {
                    scan: scan.clone(),
                    span: i,
                    parent: None,
                    stage: Stage::Ingest,
                    facility: "als".into(),
                    at: t(i),
                },
            );
            fleet.record_span(
                &format!("{scan}/ingest"),
                TraceEvent::End {
                    scan: scan.clone(),
                    span: i,
                    at: t(i + 10),
                    outcome: SpanOutcome::Ok,
                },
            );
            // a scan's spans live on the shard its keys hash to
            let home = fleet.shard_of(&scan);
            assert!(fleet.shards()[home].traces().scan(&scan).is_some());
        }
        fleet.commit_all();
        let live = fleet.merged_traces();
        assert_eq!(live.scan_count(), 6);
        assert_eq!(fleet.max_span_id(), Some(5));

        let (rec, info) =
            ShardedOrchestrator::recover_fleet(&fleet.crash_images(), "orch-1", t(100), 8);
        assert!(info.shards.iter().all(|s| s.tail.is_clean()));
        let recovered = rec.merged_traces();
        assert_eq!(recovered.scan_count(), live.scan_count());
        assert_eq!(
            recovered.report(),
            live.report(),
            "the fleet-wide report reconstructs identically after recovery"
        );
    }

    #[test]
    fn shard_pool_runs_transitions_without_a_shared_lock() {
        let n = 4usize;
        let fleet = ShardedOrchestrator::new("orch-0", t(0), n, 8);
        let pool = ShardPool::spawn(fleet.shards().to_vec());
        for i in 0..40u64 {
            let scan = format!("scan_{i:04}");
            let s = shard_of_key(&scan, n);
            pool.submit(s, move |shard| {
                let run = shard.create_run("new_file_832", t(i));
                shard.start_run(run, t(i));
                shard.finish_run(run, FlowState::Completed, t(i + 1));
                shard.commit();
            });
        }
        let shards = pool.join();
        let rec = ShardedOrchestrator::from_shards(shards);
        let engine = rec.merged_engine();
        assert_eq!(engine.run_count(), 40);
        assert_eq!(engine.query().success_rate("new_file_832"), Some(1.0));
    }

    #[test]
    fn shard_pool_sinks_see_every_durable_byte() {
        use std::sync::{Arc, Mutex};
        let n = 2usize;
        let fleet = ShardedOrchestrator::new("orch-0", t(0), n, 4);
        let captured: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); n]));
        let pool = ShardPool::spawn_with_sinks(fleet.shards().to_vec(), |i| {
            let captured = Arc::clone(&captured);
            Box::new(move |bytes: &[u8]| {
                captured.lock().unwrap()[i].extend_from_slice(bytes);
            })
        });
        for i in 0..10u64 {
            let scan = format!("scan_{i:04}");
            let s = shard_of_key(&scan, n);
            pool.submit(s, move |shard| {
                let run = shard.create_run("new_file_832", t(i));
                shard.start_run(run, t(i));
                shard.commit();
            });
        }
        let shards = pool.join();
        let written = captured.lock().unwrap();
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(
                written[i],
                shard.journal().bytes(),
                "sink {i} must hold exactly the durable image"
            );
        }
    }
}
