//! Property tests for the write-ahead journal: replay must reproduce the
//! orchestrator's durable state exactly, and any damage to a suffix of
//! the byte stream must degrade to a clean *prefix* of the history —
//! never to garbage, a panic, or a state the live path could not have
//! produced.

use als_orchestrator::engine::{FlowState, TaskState};
use als_orchestrator::idempotency::Claim;
use als_orchestrator::{DurableOrchestrator, ExternalKind, Journal, ShardedOrchestrator};
use als_simcore::{SimDuration, SimInstant};
use proptest::prelude::*;

const HOLDER: &str = "orch-pt";
const KEYS: [&str; 3] = ["scan/ingest", "scan/copy@nersc", "scan/exec@alcf"];
const LEASE: SimDuration = SimDuration::from_secs(600);

/// Drive a random-but-valid operation sequence against a fresh
/// orchestrator, mirroring the call mix the facility simulator makes.
/// Returns the orchestrator and the sim-time reached.
fn drive(ops: &[u8]) -> (DurableOrchestrator, SimInstant) {
    let mut now = SimInstant::ZERO;
    let mut orch = ShardedOrchestrator::production(HOLDER, now, 1, 0).shards()[0].clone();
    // shadow state so every call is legal (start_run asserts Scheduled &c.)
    let mut scheduled = Vec::new();
    let mut running: Vec<(als_orchestrator::engine::FlowRunId, usize)> = Vec::new();
    let mut held = [false; 3];
    let mut done = [false; 3];
    let mut open_handles: Vec<u64> = Vec::new();
    let mut next_handle = 0u64;

    for &op in ops {
        match op % 10 {
            0 => scheduled.push(orch.create_run("recon", now)),
            1 => {
                if let Some(run) = scheduled.pop() {
                    orch.start_run(run, now);
                    running.push((run, 0));
                }
            }
            2 => {
                if let Some((run, tasks)) = running.last_mut() {
                    orch.start_task(*run, &format!("t{tasks}"), Some(KEYS[0]), now);
                    *tasks += 1;
                }
            }
            3 => {
                if let Some(&(run, tasks)) = running.last() {
                    if tasks > 0 {
                        orch.finish_task(run, tasks - 1, TaskState::Completed, now, None);
                    }
                }
            }
            4 => {
                if let Some((run, _)) = running.pop() {
                    orch.finish_run(run, FlowState::Completed, now);
                }
            }
            5 => {
                let k = (op as usize / 10) % 3;
                match orch.claim(KEYS[k], now, LEASE) {
                    Claim::Run => held[k] = true,
                    Claim::Cached => assert!(done[k], "cached but never completed"),
                    Claim::Busy => assert!(held[k], "busy but no live lease"),
                }
            }
            6 => {
                let k = (op as usize / 10) % 3;
                if held[k] {
                    orch.complete(KEYS[k]);
                    held[k] = false;
                    done[k] = true;
                }
            }
            7 => {
                let k = (op as usize / 10) % 3;
                if held[k] {
                    orch.release(KEYS[k]);
                    held[k] = false;
                }
            }
            8 => {
                if let Some(&(run, _)) = running.last() {
                    let kind = match op / 10 {
                        0..=7 => ExternalKind::Transfer,
                        8..=15 => ExternalKind::Job,
                        _ => ExternalKind::Compute,
                    };
                    orch.external_submitted(kind, next_handle, run, "{\"scan\":1}");
                    open_handles.push(next_handle);
                    next_handle += 1;
                } else if let Some(h) = open_handles.pop() {
                    // resolve all kinds; resolving a non-open pair is a no-op
                    orch.external_resolved(ExternalKind::Transfer, h);
                    orch.external_resolved(ExternalKind::Job, h);
                    orch.external_resolved(ExternalKind::Compute, h);
                }
            }
            _ => now += SimDuration::from_secs(u64::from(op) + 1),
        }
    }
    (orch, now)
}

proptest! {
    /// Replaying a clean journal reproduces the engine, the idempotency
    /// store, and the concurrency limits *exactly* — the record-then-
    /// apply discipline means durable state is a pure function of the
    /// byte stream.
    #[test]
    fn clean_replay_reproduces_state_exactly(ops in prop::collection::vec(any::<u8>(), 0..120)) {
        let (orch, now) = drive(&ops);
        let (replayed, info) =
            DurableOrchestrator::recover_shard(orch.journal().bytes(), HOLDER, now, 0, 1, 0);
        prop_assert!(info.tail.is_clean(), "clean journal reported damage: {:?}", info.tail);
        prop_assert_eq!(info.replayed, orch.journal().record_count());
        prop_assert_eq!(&replayed.engine, &orch.engine, "engines diverge after replay");
        // same holder ⇒ no lease is foreign ⇒ the store survives verbatim
        prop_assert!(info.expired_leases.is_empty());
        prop_assert_eq!(&replayed.idempotency, &orch.idempotency, "idempotency stores diverge");
        prop_assert_eq!(&replayed.limits, &orch.limits, "concurrency limits diverge");
        prop_assert_eq!(replayed.open_external_count(), orch.open_external_count());
    }

    /// Damaging any suffix of the byte stream — truncation mid-record,
    /// bit-flips, appended garbage — degrades replay to a *prefix* of
    /// the original record history, and recovery from the damaged image
    /// equals recovery from that prefix re-serialised. No panic, no
    /// phantom records, no divergent state.
    #[test]
    fn damaged_tail_degrades_to_a_clean_prefix(
        ops in prop::collection::vec(any::<u8>(), 1..100),
        cut_frac in 0.0f64..1.0,
        junk in prop::collection::vec(any::<u8>(), 0..40),
        flip in 0usize..4096,
    ) {
        let (orch, now) = drive(&ops);
        let full = orch.journal().bytes().to_vec();
        let (full_records, _) = Journal::replay_bytes(&full);

        // damage = truncate at an arbitrary byte, optionally flip a byte
        // in what remains, then append garbage
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let mut damaged = full[..cut.min(full.len())].to_vec();
        if flip % 2 == 1 && !damaged.is_empty() {
            let i = flip % damaged.len();
            damaged[i] ^= 0x41;
        }
        damaged.extend_from_slice(&junk);

        let (records, _tail) = Journal::replay_bytes(&damaged);
        prop_assert!(records.len() <= full_records.len());
        prop_assert_eq!(
            &records[..],
            &full_records[..records.len()],
            "damaged replay is not a prefix of the original history"
        );

        // recovery from the damaged image must equal recovery from the
        // surviving prefix re-serialised through the journal writer
        let mut prefix = Journal::new();
        for rec in &records {
            prefix.append(rec);
        }
        let (from_damaged, info_d) =
            DurableOrchestrator::recover_shard(&damaged, HOLDER, now, 0, 1, 0);
        let (from_prefix, info_p) =
            DurableOrchestrator::recover_shard(prefix.bytes(), HOLDER, now, 0, 1, 0);
        prop_assert_eq!(info_d.replayed, records.len() as u64);
        prop_assert_eq!(info_d.replayed, info_p.replayed);
        prop_assert_eq!(&from_damaged.engine, &from_prefix.engine);
        prop_assert_eq!(&from_damaged.idempotency, &from_prefix.idempotency);
        prop_assert_eq!(&from_damaged.limits, &from_prefix.limits);
    }
}
