//! The control-plane workload: flows through the sharded write-ahead
//! log with real fsyncs, fleet recovery from the files that leaves, and
//! 100-scan campaign simulations under a healthy, a crash-storm and a
//! rolling-outage plan. No pixel is touched.

use crate::harness::{self, derive_seed, timed_setup, Outcome, RunArgs};
use crate::stats;
use crate::sut::{self, WalPlan};
use std::time::{Duration, Instant};

/// Flows per WAL round; a round is one sample of flows/s.
const FLOWS_PER_ROUND: usize = 2_000;
/// Share of the run spent in WAL rounds and recoveries; the rest
/// simulates campaigns.
const WAL_SHARE: f64 = 0.4;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn control_plane(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let trace = &args.trace;
    let wal_dir = args.work_dir.join("wal");
    // set-up is generating the flow mix; making the directory stays out of
    // its clock because a mkdir here costs 50 us or 500 us by the sandbox's mood
    std::fs::create_dir_all(&wal_dir).expect("work dir is writable");
    let (plan, setup_s) = timed_setup(args.setup_budget(), || {
        WalPlan::generate(derive_seed(args.seed, 5), FLOWS_PER_ROUND)
    });
    out.setup_s = setup_s;
    out.input_digest = plan.digest();

    // ----- WAL rounds, each followed by a recovery of what it wrote
    let mut flows_per_s = Vec::new();
    let mut recover_ms = Vec::new();
    let mut exact = None;
    let mut recover_mb_per_s = Vec::new();
    let mut replayed = 0u64;
    let mut timed_start = Instant::now();
    let mut cpu_start = 0.0;
    let mut wal_cpu_s = 0.0;
    let mut round = 0u64;
    loop {
        // round 0 warms the page cache and the allocator, untimed
        let timed = round > 0;
        if round == 1 {
            timed_start = Instant::now();
        }
        if timed && timed_start.elapsed().as_secs_f64() >= args.seconds * WAL_SHARE {
            break;
        }
        if timed {
            cpu_start = harness::process_cpu_s();
        }
        let wal = trace.span("op", None, round, |op| {
            trace.span("wal.round", op, round, |_| sut::wal_round(&plan, &wal_dir))
        });
        if timed {
            wal_cpu_s += harness::process_cpu_s() - cpu_start;
        }
        let rec = trace.span("op", None, round, |op| {
            trace.span("recover_fleet", op, round, |_| {
                sut::recover_fleet(&plan, &wal_dir)
            })
        });
        let counts = (wal.records, wal.fsyncs, wal.bytes);
        let verdict = if rec.damaged_shards != 0 {
            Err(format!(
                "round {round}: {} damaged shards after a clean shutdown",
                rec.damaged_shards
            ))
        } else if rec.runs != plan.flows() || rec.completed != plan.expect_completed() {
            Err(format!(
                "round {round}: recovered {} runs ({} completed), expected {} ({})",
                rec.runs,
                rec.completed,
                plan.flows(),
                plan.expect_completed()
            ))
        } else if rec.image_bytes != wal.bytes {
            Err(format!(
                "round {round}: {} bytes on disk, journal holds {}",
                rec.image_bytes, wal.bytes
            ))
        } else if *exact.get_or_insert(counts) != counts {
            Err(format!(
                "round {round}: journal counts {counts:?} differ from the first round's"
            ))
        } else {
            Ok(())
        };
        if timed {
            out.op(verdict);
            flows_per_s.push(plan.flows() as f64 / wal.wall.as_secs_f64());
            recover_ms.push(ms(rec.wall));
            recover_mb_per_s.push(rec.image_bytes as f64 / 1e6 / rec.wall.as_secs_f64());
            replayed = rec.replayed_records;
        } else if let Err(why) = verdict {
            out.violate(why);
        }
        round += 1;
    }
    out.work_per_s = stats::p50(&flows_per_s);
    out.work_units = (flows_per_s.len() * plan.flows()) as f64;
    out.timed_cpu_s = wal_cpu_s;
    out.layer("orchestrator.recover.ms_p50", stats::p50(&recover_ms));
    let flows = plan.flows() as f64;
    if let Some((records, fsyncs, bytes)) = exact {
        out.layer(
            "orchestrator.journal.records_per_flow",
            records as f64 / flows,
        );
        out.layer(
            "orchestrator.journal.fsyncs_per_flow",
            fsyncs as f64 / flows,
        );
        out.layer("orchestrator.journal.bytes_per_flow", bytes as f64 / flows);
    }
    let per_shard = plan.flows_per_shard();
    let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    out.layer(
        "orchestrator.shard.skew",
        busiest * per_shard.len() as f64 / flows,
    );
    out.layer("orchestrator.recover.replayed_records", replayed as f64);
    out.layer(
        "orchestrator.recover.mb_per_s",
        stats::p50(&recover_mb_per_s),
    );
    std::fs::remove_dir_all(&wal_dir).ok();

    // ----- campaign simulations
    let first_seed = derive_seed(args.seed, 6);
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut reference: Option<[String; 3]> = None;
    let mut counts = None;
    let mut snapshot_ms = Vec::new();
    let sim_start = Instant::now();
    let mut k = 0u64;
    loop {
        // the first seed runs twice: once untimed as warm-up, once timed,
        // and both runs must tell the same story
        let timed = k > 0;
        if timed && sim_start.elapsed().as_secs_f64() >= args.seconds * (1.0 - WAL_SHARE) {
            break;
        }
        let seed = first_seed.wrapping_add(k.saturating_sub(1));
        let op = round + k;
        let mut fingerprints: [String; 3] = Default::default();
        for (slot, name) in ["sim.healthy", "sim.storm", "sim.outage"]
            .into_iter()
            .enumerate()
        {
            let t = Instant::now();
            let (campaign, outage) = trace.span("op", None, op, |root| {
                trace.span(name, root, op, |_| match slot {
                    0 => (sut::healthy_campaign(seed), None),
                    1 => (sut::storm_campaign(seed), None),
                    _ => {
                        let (campaign, counts, sim) = sut::outage_campaign(seed);
                        (campaign, Some((counts, sim)))
                    }
                })
            });
            let wall = t.elapsed();
            fingerprints[slot] = campaign.fingerprint;
            if timed {
                walls[slot].push(ms(wall));
                out.op(campaign.verdict);
            } else if let Err(why) = campaign.verdict {
                out.violate(why);
            }
            if let Some((c, sim)) = outage {
                // the counts of the first seed: they repeat exactly for it
                counts.get_or_insert(c);
                if trace.enabled() && snapshot_ms.len() < 5 {
                    let t = Instant::now();
                    std::hint::black_box(sim.export_telemetry());
                    snapshot_ms.push(ms(t.elapsed()));
                }
            }
        }
        match &reference {
            None => reference = Some(fingerprints),
            Some(first) if k == 1 => out.check(*first == fingerprints, || {
                format!("campaign seed {seed} told two different stories when run twice")
            }),
            Some(_) => {}
        }
        k += 1;
    }
    let [healthy, storm, outage] = walls.map(|w| stats::p50(&w));
    out.result_latency_ms_p50 = healthy + storm + outage;
    out.layer("core.sim.healthy_campaign_ms_p50", healthy);
    out.layer("core.sim.storm_campaign_ms_p50", storm);
    out.layer("core.sim.outage_campaign_ms_p50", outage);
    if out.result_latency_ms_p50 > 0.0 {
        out.layer(
            "core.sim.scans_per_s",
            3.0 * sut::CAMPAIGN_SCANS as f64 / (out.result_latency_ms_p50 / 1e3),
        );
    }
    if let Some(c) = counts {
        let scans = sut::CAMPAIGN_SCANS as f64;
        out.layer(
            "core.sim.journal_records_per_scan",
            c.journal_records as f64 / scans,
        );
        out.layer(
            "core.sim.journal_writes_per_scan",
            c.journal_writes as f64 / scans,
        );
        out.layer("core.sim.recoveries", c.recoveries as f64);
        out.layer("core.sim.reattached_ops", c.reattached_ops as f64);
        out.layer(
            "core.sim.duplicate_side_effects",
            c.duplicate_side_effects as f64,
        );
        out.layer("facility.router.failovers", c.failovers as f64);
        out.layer("facility.router.max_hops", c.max_hops as f64);
        out.layer("globus.transfer.total_gib", c.transfer_gib);
        out.layer(
            "telemetry.trace.spans_per_scan",
            c.trace_spans as f64 / scans,
        );
    }
    out.layer("telemetry.snapshot_ms", stats::p50(&snapshot_ms));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = harness::work_root().join(format!("test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_seed_same_flow_mix_and_exact_journal_counts() {
        let (a, b) = (WalPlan::generate(11, 200), WalPlan::generate(11, 200));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), WalPlan::generate(12, 200).digest());
        assert_eq!(a.flows(), 200);
        assert_eq!(
            a.expect_completed(),
            160,
            "every fifth flow fails on its deadline"
        );
        assert_eq!(a.flows_per_shard().iter().sum::<u64>(), 200);

        let dir = test_dir("wal");
        let first = sut::wal_round(&a, &dir);
        let recovered = sut::recover_fleet(&a, &dir);
        let second = sut::wal_round(&b, &dir);
        assert_eq!(
            (first.records, first.fsyncs, first.bytes),
            (second.records, second.fsyncs, second.bytes),
            "journal counts must repeat exactly for a seed"
        );
        assert_eq!(recovered.runs, 200);
        assert_eq!(recovered.completed, 160);
        assert_eq!(recovered.damaged_shards, 0);
        assert_eq!(recovered.image_bytes, first.bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_seed_same_campaign_counts() {
        let (first, counts, _) = sut::outage_campaign(1000);
        let (second, again, _) = sut::outage_campaign(1000);
        assert_eq!(first.verdict, Ok(()));
        assert_eq!(
            counts, again,
            "simulation counts must repeat exactly for a seed"
        );
        assert_eq!(first.fingerprint, second.fingerprint);
        assert!(counts.journal_records > 0 && counts.trace_spans > 0);
    }
}
