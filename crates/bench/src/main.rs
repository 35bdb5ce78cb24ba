//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p als-bench --bin experiments            # everything
//! cargo run --release -p als-bench --bin experiments table2    # one artifact
//! ```
//!
//! Artifacts: `table1`, `table2`, `fig1`, `fig2`, `fig3`, `streaming`
//! (S1), `speedup` (S2), `lifecycle` (S3), `incident` (S4), `ablations`,
//! `resilience` (R1), `recovery` (R2), `shard_recovery` (R3), `routing`
//! (R4), `observability` (R5), `dynamic`, `scaling`, `quality` (Q1).
//! Output goes to stdout; figure assets land in `target/experiments/`.
//!
//! Stdout is the same bytes on every machine and every run: wall-clock
//! readings go to stderr. CI diffs the stdout of the full run against
//! the committed `experiments_output.txt`.

use als_flows::campaign::{run_campaign, CampaignConfig};
use als_flows::incident::incident_comparison;
use als_flows::lifecycle::{cadence_sweep, run_lifecycle};
use als_flows::realmode::run_session;
use als_flows::sim::{SimConfig, FLOW_ALCF, FLOW_NERSC};
use als_flows::streaming_model::{speedup_vs_historical, streaming_timing};
use als_flows::users::table1_text;
use als_globus::compute::AcquisitionMode;
use als_hpc::scheduler::Qos;
use als_phantom::{feather_volume, shepp_logan_volume, FeatherSpecies, MorphologyReport};
use als_tomo::quality::{mse_in_disk, psnr};
use als_tomo::throughput::ScanDims;
use als_viz::{write_preview_pgms, Window};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    let d = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&d).ok();
    d
}

/// Median end-to-end time of `flow` over a 30-scan campaign.
fn campaign_median(sim: SimConfig, flow: &str) -> f64 {
    run_campaign(&CampaignConfig { n_scans: 30, sim })
        .measured(flow)
        .map_or(0.0, |m| m.median)
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let run_all = which.is_empty();
    let wants = |name: &str| run_all || which.iter().any(|w| w == name);

    if wants("table1") {
        println!("\n================ TABLE 1 ================\n");
        println!("{}", table1_text());
    }
    if wants("table2") {
        println!("\n================ TABLE 2 ================\n");
        let report = run_campaign(&CampaignConfig::default());
        println!("{}", report.table2_text());
        println!(
            "campaign: {:.1} h simulated, {:.2} TiB over the WAN, mean {:.1} Gbps per transfer",
            report.campaign_hours,
            report.total_transfer_gib / 1024.0,
            report.mean_transfer_gbps
        );
        for (flow, rate) in &report.success_rates {
            println!("  {flow}: {:.0}% success", rate * 100.0);
        }
    }
    if wants("fig1") {
        println!("\n================ FIGURE 1 (feather morphology) ================\n");
        let dir = out_dir();
        for species in [FeatherSpecies::Chicken, FeatherSpecies::Sandgrouse] {
            let phantom = feather_volume(species, 96, 6, 1234);
            let session_dir = dir.join(species.name());
            let result = run_session(&phantom, 120, &session_dir, species.name(), 7);
            let m = MorphologyReport::of_volume(&result.file_based_volume, 0.5);
            println!(
                "{:<11} material {:.3}  enclosed-void {:.4}  radial-anisotropy {:.3}",
                species.name(),
                m.material_fraction,
                m.enclosed_void_fraction,
                m.radial_anisotropy
            );
            let mid = result.file_based_volume.slice_xy(3);
            als_viz::write_pgm(
                &dir.join(format!("fig1_{}.pgm", species.name())),
                &mid,
                Window::percentile(&mid, 1.0, 99.0),
            )
            .unwrap();
        }
        println!("renders: {}/fig1_*.pgm", dir.display());
    }
    if wants("fig2") {
        println!("\n================ FIGURE 2 (user journey) ================\n");
        let dir = out_dir().join("fig2");
        let phantom = shepp_logan_volume(96, 6);
        let result = run_session(&phantom, 96, &dir, "fig2_scan", 42);
        println!("A. sample aligned (phantom mounted)");
        println!("B. streaming service launched at NERSC (SFAPI)");
        println!(
            "C. scan started: {} frames published",
            result.preview.cached_frames
        );
        println!("D/E. orthogonal preview in ImageJ after acquisition end");
        eprintln!(
            "fig2 D/E: preview {:.2} s after acquisition end (wall clock)",
            result.preview.recon_wall.as_secs_f64() + result.preview.send_wall.as_secs_f64()
        );
        let paths = write_preview_pgms(&out_dir(), "fig2_preview", &result.preview.slices).unwrap();
        println!(
            "F. scan file for JupyterLab analysis: {}",
            result.scan_path.display()
        );
        println!(
            "G. preview assets: {}",
            paths[0].parent().unwrap().display()
        );
    }
    if wants("fig3") {
        println!("\n================ FIGURE 3 (operational layers) ================\n");
        let t = streaming_timing(&ScanDims::paper_reference());
        println!(
            "Acquisition : 1969 frames, {:.1} GiB raw, ~3 min beam time",
            t.raw_gib
        );
        println!("Orchestration: new_file_832 + nersc_recon_flow + alcf_recon_flow per scan");
        println!("Movement    : streaming (PVA) + Globus file transfer (checksummed)");
        println!(
            "Compute     : NERSC realtime Slurm + ALCF Globus Compute; streaming recon {:.1} s",
            t.recon.as_secs_f64()
        );
        println!(
            "Access      : {:.1} GiB volume, TIFF + multiscale store, SciCat metadata",
            t.volume_gib
        );
        let report = run_campaign(&CampaignConfig {
            n_scans: 20,
            ..Default::default()
        });
        println!(
            "\n20-scan layer throughput check:\n{}",
            report.table2_text()
        );
    }
    if wants("streaming") {
        println!("\n================ S1 (streaming branch timing) ================\n");
        for scale in [1.0, 0.5, 0.25] {
            let dims = ScanDims::paper_reference().scaled(scale);
            let t = streaming_timing(&dims);
            println!(
                "scale {scale:>4}: {:>5} x {:>4} x {:>4} -> recon {:>6.2} s + send {:>5.3} s = {:>6.2} s",
                dims.n_angles,
                dims.det_rows,
                dims.det_cols,
                t.recon.as_secs_f64(),
                t.preview_send.as_secs_f64(),
                t.total.as_secs_f64()
            );
        }
        println!("(paper at scale 1: 7-8 s recon, <1 s send, <10 s total)");
    }
    if wants("speedup") {
        println!("\n================ S2 (time-to-insight) ================\n");
        let s = speedup_vs_historical();
        println!(
            "historical: {:.0} min (45 min save + 60 min single-slice recon)",
            s.historical.as_secs_f64() / 60.0
        );
        println!("streaming : {:.1} s", s.streaming.as_secs_f64());
        println!("speedup   : {:.0}x (paper: >100x)", s.speedup);
    }
    if wants("lifecycle") {
        println!("\n================ S3 (data lifecycle) ================\n");
        println!(
            "{:>9} {:>12} {:>12} {:>14} {:>10} {:>10}",
            "cadence", "scans/h", "raw TB/day", "total TB/day", "peak occ", "final occ"
        );
        for r in cadence_sweep(1, 11) {
            println!(
                "{:>8}s {:>12.1} {:>12.2} {:>14.2} {:>10.2} {:>10.2}",
                r.cadence_s,
                r.scans_per_hour,
                r.daily_raw_tb,
                r.daily_total_tb,
                r.beamline_peak_occupancy,
                r.beamline_final_occupancy
            );
        }
        let unpruned = run_lifecycle(240.0, 2, false, 11);
        println!(
            "\nwithout pruning (2 days @ 240 s): final occupancy {:.2} (saturating)",
            unpruned.beamline_final_occupancy
        );
    }
    if wants("incident") {
        println!("\n================ S4 (prune-burst incident) ================\n");
        let fmt_mean = |m: Option<f64>| m.map_or("   n/a".to_string(), |s| format!("{s:>6.0}"));
        for burst in [4, 8, 16] {
            let (legacy, fixed) = incident_comparison(burst, 1);
            println!(
                "burst {burst:>3}: legacy mean {} s ({}/{} on time) | fail-early mean {} s ({}/{} on time)",
                fmt_mean(legacy.mean_scan_transfer_s),
                legacy.scans_on_time,
                legacy.scans_total,
                fmt_mean(fixed.mean_scan_transfer_s),
                fixed.scans_on_time,
                fixed.scans_total
            );
        }
    }
    if wants("ablations") {
        println!("\n================ Ablations (design choices) ================\n");
        let qos = |nersc_qos: Qos| {
            let sim = SimConfig {
                seed: 77,
                nersc_qos,
                nersc_nodes: 4,
                background_mean_arrival_s: Some(240.0),
                ..Default::default()
            };
            campaign_median(sim, FLOW_NERSC)
        };
        println!(
            "NERSC QoS            : nersc flow median realtime {:.0} s vs regular {:.0} s",
            qos(Qos::Realtime),
            qos(Qos::Regular)
        );
        let acquisition = |alcf_mode: AcquisitionMode| {
            let sim = SimConfig {
                seed: 78,
                alcf_mode,
                background_mean_arrival_s: None,
                ..Default::default()
            };
            campaign_median(sim, FLOW_ALCF)
        };
        println!(
            "ALCF acquisition     : alcf flow median demand queue {:.0} s vs batch {:.0} s",
            acquisition(AcquisitionMode::DemandQueue),
            acquisition(AcquisitionMode::Batch)
        );
        let checksums = |verify_checksums: bool| {
            let sim = SimConfig {
                seed: 79,
                verify_checksums,
                background_mean_arrival_s: None,
                ..Default::default()
            };
            campaign_median(sim, FLOW_NERSC)
        };
        println!(
            "checksum verification: nersc flow median verified {:.0} s vs unverified {:.0} s",
            checksums(true),
            checksums(false)
        );
        println!("(30-scan campaigns; the fail-early remediation ablation is S4's burst-8 row)");
    }
    if wants("resilience") {
        println!("\n================ R1 (fault injection + failover) ================\n");
        let report = als_flows::resilience::resilience_experiment(24, 5);
        let row = |o: &als_flows::ResilienceOutcome| {
            format!(
                "{:>5.1}% complete ({:>2}/{:<2}) | {:>2} failovers {:>2} remote-cancels {:>2} breaker trips | p50 {} p99 {}",
                o.completion_rate * 100.0,
                o.branch_flows_completed,
                o.branch_flows_total,
                o.failover_count,
                o.remote_cancels,
                o.nersc_breaker_trips + o.alcf_breaker_trips,
                o.p50_flow_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
                o.p99_flow_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
            )
        };
        println!("90-min NERSC outage mid-beamtime (24 scans @ 5 min):");
        println!("  failover on : {}", row(&report.outage.with_failover));
        println!("  failover off: {}", row(&report.outage.without_failover));
        println!("\nseeded fault storms (mixed outages/brownouts/auth/corruption):");
        for p in &report.sweep {
            println!("  intensity {:.2}", p.intensity);
            println!("    failover on : {}", row(&p.comparison.with_failover));
            println!("    failover off: {}", row(&p.comparison.without_failover));
        }
        println!("\n(cross-facility failover holds completion near 100% as faults intensify)");
    }
    if wants("routing") {
        println!(
            "\n================ R4 (cost-aware N-way routing, rolling outages) ================\n"
        );
        let report = als_flows::routing::routing_experiment(24, 5);
        let row = |o: &als_flows::RoutingOutcome| {
            let served = o
                .served_by
                .iter()
                .map(|(f, n)| format!("{f}:{n}"))
                .collect::<Vec<_>>()
                .join(" ");
            format!(
                "{:>5.1}% complete ({:>2}/{:<2}) | {:>2} redirects (max {} hops) {:>2} remote-cancels {} dup side-effects | p50 {} p95 {} | served {}",
                o.completion_rate * 100.0,
                o.branch_flows_completed,
                o.branch_flows_total,
                o.failover_count,
                o.max_route_hops,
                o.remote_cancels,
                o.duplicate_side_effects,
                o.p50_flow_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
                o.p95_flow_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
                served,
            )
        };
        let r = &report.rolling;
        println!("rolling 3-facility outage schedule (OLCF early, then NERSC, then ALCF on top; 24 scans @ 5 min):");
        println!("  cost-aware, 3 facilities: {}", row(&r.cost_aware_3fac));
        println!("  one-shot,   2 facilities: {}", row(&r.one_shot_2fac));
        println!(
            "\n(the cost-aware router re-routes a branch more than once — NERSC→ALCF→OLCF —\n so the campaign survives outages that roll across the fleet; the one-shot\n router strands every branch whose single refuge also dies)"
        );
    }
    if wants("observability") {
        println!(
            "\n================ R5 (telemetry spine: traces + Table-2 report under crash) ================\n"
        );
        let bundle = als_flows::observability::run_observability(24, 5);
        let r = &bundle.report;
        println!(
            "rolling outages + coordinator crash at t={}s ({}s restart); 24 scans @ 5 min:",
            als_flows::observability::CRASH_AT_S,
            als_flows::observability::CRASH_RESTART_S,
        );
        println!(
            "  {} traced scans | {} branches completed | {} redirects | {} crash / {} recovery",
            r.traced_scans, r.completed_branches, r.failover_count, r.crash_count, r.recovery_count,
        );
        println!(
            "  spans: {} open after drain | {} redirect links | {} router-decision notes",
            r.open_spans, r.redirect_links, r.routed_notes,
        );
        println!(
            "  accounting identity (stage_sum − overlap + idle = end-to-end): {}",
            if r.accounting_identity_holds {
                "holds, µs-exact"
            } else {
                "VIOLATED"
            },
        );
        println!(
            "  crash reconstruction (journal-only verifier vs live store):   {}",
            if r.crash_reconstruction_identical {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        if let Some(t) = &bundle.timeline {
            println!("\nsample trace timeline (deepest redirect chain):\n");
            print!("{}", t.rendered);
        }
        println!("\nTable-2-style per-stage latency by facility:\n");
        print!("{}", r.table.render());
        let dir = out_dir();
        let metrics = dir.join("r5_metrics.json");
        std::fs::write(&metrics, &bundle.metrics_json).ok();
        std::fs::write(dir.join("r5_metrics.prom"), &bundle.prometheus_text).ok();
        println!(
            "\n(wrote the fleet metrics snapshot to {} — journal flush batches, group-commit\n latency, router decisions, WAN bandwidth, recovery counters)",
            metrics.display()
        );
        // CI gate: the telemetry spine's two hard guarantees
        if !r.accounting_identity_holds || !r.crash_reconstruction_identical {
            eprintln!("R5 FAILED: telemetry invariant violated");
            std::process::exit(1);
        }
    }
    if wants("recovery") {
        println!(
            "\n================ R2 (orchestrator crash + durable recovery) ================\n"
        );
        let report = als_flows::recovery::recovery_experiment(24, 5);
        let row = |o: &als_flows::RecoveryOutcome| {
            format!(
                "{:>5.1}% complete ({:>2}/{:<2}) | {:>2} duplicated steps | {} crashes {} replays {:>2} re-attached {:>2} orphans cancelled | p50 {} p99 {}",
                o.completion_rate * 100.0,
                o.branches_completed,
                o.branches_total,
                o.duplicate_side_effects,
                o.crashes,
                o.recoveries,
                o.reattached_ops,
                o.orphans_cancelled,
                o.p50_latency_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
                o.p99_latency_s.map_or("   n/a".into(), |s| format!("{s:>6.0} s")),
            )
        };
        println!("one crash mid-campaign, 10-min restart gap (24 scans @ 5 min):");
        println!("  journal on : {}", row(&report.one_crash.durable));
        println!("  journal off: {}", row(&report.one_crash.non_durable));
        println!("\ncrash storm (three deaths, 7.5-min gaps):");
        println!("  journal on : {}", row(&report.crash_storm.durable));
        println!("  journal off: {}", row(&report.crash_storm.non_durable));
        println!(
            "\n(the write-ahead journal resumes in-flight work without re-initiating it; the\n amnesiac baseline either loses branches or duplicates facility work)"
        );
    }
    if wants("shard_recovery") {
        println!("\n================ R3 (sharded journal + shard-level chaos) ================\n");
        let report = als_flows::shard_chaos_experiment(24, 5);
        println!(
            "{:>6} {:>9} {:>10} {:>8} {:>9} {:>10} {:>9} {:>9} {:>9}",
            "shards",
            "complete",
            "duplicates",
            "crashes",
            "re-attach",
            "adopted",
            "degraded",
            "damaged",
            "isolated"
        );
        for o in &report.rows {
            println!(
                "{:>6} {:>8.1}% {:>10} {:>8} {:>9} {:>10} {:>9} {:>9} {:>9}",
                o.shards,
                o.completion_rate * 100.0,
                o.duplicate_side_effects,
                o.crashes,
                o.reattached_ops,
                o.adopted_orphan_ops,
                o.degraded_scans,
                o.damaged_shards,
                o.damage_isolated,
            );
        }
        println!(
            "\n(every crash also wounds one shard's journal image — torn group-commit,\n truncated tail, or corrupt byte. Flows on intact shards recover by plain\n replay; only the wounded shard's flows need evidence-based healing, and\n nothing is ever initiated twice at a facility)"
        );
    }
    if wants("dynamic") {
        println!("\n================ §6 extension: 4D time-resolved streaming ================\n");
        let series = als_flows::dynamic::run_creep_series(64, 4, 5, 64, 2020);
        println!("{:>5} {:>12} {:>12}", "step", "compaction", "porosity");
        for s in &series.steps {
            println!("{:>5} {:>12.2} {:>12.3}", s.step, s.compaction, s.porosity);
            eprintln!(
                "dynamic step {}: recon {:.2} s (wall clock)",
                s.step, s.recon_secs
            );
        }
        println!(
            "porosity trace monotone: {} (live experiment-steering signal)",
            series.porosity_monotone_decreasing(0.03)
        );
    }
    if wants("scaling") {
        println!("\n================ §6 extension: multi-beamline scaling ================\n");
        println!(
            "{:>10} {:>22} {:>12} {:>12}",
            "beamlines", "policy", "median s", "p95 s"
        );
        for p in als_flows::multibeamline::scaling_sweep(&[1, 2, 4], 10, 9) {
            println!(
                "{:>10} {:>22} {:>12.0} {:>12.0}",
                p.beamlines,
                format!("{:?}", p.policy),
                p.median_s,
                p.p95_s
            );
        }
        println!("(shared pool degrades with fleet size; reserved compute stays flat)");
    }
    if wants("quality") {
        println!(
            "\n================ Q1 (recon quality: streaming vs file-based) ================\n"
        );
        let dir = out_dir().join("quality");
        let truth = shepp_logan_volume(64, 2);
        // photon-limited acquisition: the regime where preprocessing +
        // iterative reconstruction earn the file-based branch's latency
        let det = als_phantom::DetectorConfig {
            i0: 500.0,
            ..Default::default()
        };
        for n_angles in [16usize, 32, 64] {
            let r = als_flows::realmode::run_session_with(
                &truth,
                n_angles,
                &dir,
                &format!("q{n_angles}"),
                5,
                det,
            );
            let t = truth.slice_xy(1);
            let s = r.streaming_volume.slice_xy(1);
            let f = r.file_based_volume.slice_xy(1);
            println!(
                "{n_angles:>3} angles: streaming FBP psnr {:>5.1} dB (mse {:.5}) | file-based SIRT psnr {:>5.1} dB (mse {:.5})",
                psnr(&t, &s, 1.0),
                mse_in_disk(&t, &s),
                psnr(&t, &f, 1.0),
                mse_in_disk(&t, &f)
            );
        }
        println!("(the file-based branch trades 20-30 min of latency for quality)");
    }
}
