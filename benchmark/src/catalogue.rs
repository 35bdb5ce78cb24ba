//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` is generated from these
//! tables (`als-benchmark spec`) and a unit test keeps the two equal.

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const STREAM_PACED: &str = "stream_paced";
pub const STREAM_SMALL_SCANS: &str = "stream_small_scans";
pub const FBP_ARCHIVE: &str = "fbp_archive";
pub const SIRT_ARCHIVE: &str = "sirt_archive";
pub const CONTROL_PLANE: &str = "control_plane";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: STREAM_PACED,
        why: "open loop at 2500 frames/s through mirror, file writer and preview: recon-bound feedback latency under real pacing; kernel and plan-cache changes move it, per-message transport changes must not",
    },
    Workload {
        name: STREAM_SMALL_SCANS,
        why: "closed loop of 96-frame 512 B scans on min(2, nproc) hub lanes: per-message and per-scan overhead dominates and recon is ~1 ms, the opposite use of the stream layer",
    },
    Workload {
        name: FBP_ARCHIVE,
        why: "scan file to FBP volume, TIFF stack, multiscale store and catalogue: recon and archive sinks are the same order, so pipeline overlap, sink encoders, loader and FBP kernel all show",
    },
    Workload {
        name: SIRT_ARCHIVE,
        why: "the paper's file branch (SIRT x100, zinger 0.5): ~98% of the wall is the iterative kernel, so I/O, overlap and FBP changes must leave it unmoved",
    },
    Workload {
        name: CONTROL_PLANE,
        why: "sharded WAL flows with real fsyncs, fleet recovery, and healthy, crash-storm and outage campaign simulations: only orchestrator, core::sim, facility and telemetry work; no pixel is touched",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What the metric means, per workload.
    pub definition: &'static str,
}

pub const RESULT_LATENCY: &str = "result_latency_ms_p50";
pub const WORK_PER_S: &str = "work_per_s";
pub const PEAK_RSS: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: RESULT_LATENCY,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "trigger to the result its user waits for, median per op. `stream_paced`: `ScanEnd` due time to preview received; `stream_small_scans`: `ScanEnd` sent to preview received; `fbp_archive`, `sirt_archive`: `ScanFile::load` start to products on disk and datasets catalogued; `control_plane`: median wall of one 100-scan campaign simulation, summed over the healthy, crash-storm and outage plans",
    },
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "work completed per second of timed wall. stream workloads: frames of complete, loss-free scans (2500/s offered on `stream_paced`); archive workloads: slices archived; `control_plane`: flows through the sharded WAL, first submit to `ShardPool::join` returning, median per round",
    },
    EndToEnd {
        name: PEAK_RSS,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "rendering the phantom scans, writing their scan files and generating the flow mix before the first timed op; median of the repeats one run makes",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SLAB_MOVES: &str = "work_per_s on stream_small_scans; none on stream_paced";
const CHANNEL_MOVES: &str =
    "work_per_s on stream_small_scans; failed ops on stream_paced if drops appear";
const MIRROR_MOVES: &str = "stream.filewriter.file_ready_ms_p50 on stream_paced";
const STREAMER_FINISH_MOVES: &str = "result_latency_ms_p50 on stream_paced";
const STREAMER_SCAN_MOVES: &str = "work_per_s on stream_small_scans";
const WRITER_MOVES: &str = "work_per_s on stream_small_scans; none on stream_paced";
const SCANFILE_MOVES: &str = "result_latency_ms_p50 on fbp_archive (~4%); none on sirt_archive";
const SINK_MOVES: &str = "work_per_s on fbp_archive; none on sirt_archive";
const PIPELINE_MOVES: &str =
    "result_latency_ms_p50 on fbp_archive (overlap, sink) and sirt_archive (recon only)";
const PLAN_MOVES: &str =
    "work_per_s on fbp_archive and result_latency_ms_p50 on stream_paced; none on stream_small_scans";
const ITER_MOVES: &str = "work_per_s on sirt_archive; none elsewhere";
const CATALOG_MOVES: &str =
    "none expected (<0.1% of any op); listed so a regression is attributable";
const WAL_MOVES: &str = "work_per_s on control_plane";
const SIM_MOVES: &str = "result_latency_ms_p50 on control_plane; counts repeat exactly for a seed";
const HARNESS: &str = "none: describes the measurement, not the program";

pub const PER_LAYER: &[PerLayer] = &[
    layer("stream.slab.acquire_ns_per_frame", "ns", Lower, SLAB_MOVES),
    layer("stream.slab.peak_allocated", "count", Lower, SLAB_MOVES),
    layer("stream.slab.deep_copies", "count", Lower, SLAB_MOVES),
    layer("stream.channel.publish_ns_per_msg", "ns", Lower, CHANNEL_MOVES),
    layer("stream.channel.dropped_frames", "count", Lower, CHANNEL_MOVES),
    layer("stream.channel.queue_depth_max", "count", Lower, CHANNEL_MOVES),
    layer("stream.mirror.hop_us_p50", "us", Lower, MIRROR_MOVES),
    layer("stream.mirror.forwarded", "count", Higher, MIRROR_MOVES),
    layer("stream.streamer.ingest_us_per_frame", "us", Lower, STREAMER_SCAN_MOVES),
    layer("stream.streamer.finish_ms_p50", "ms", Lower, STREAMER_FINISH_MOVES),
    layer("stream.streamer.send_us_p50", "us", Lower, STREAMER_FINISH_MOVES),
    layer("stream.streamer.queue_wait_ms_p50", "ms", Lower, STREAMER_FINISH_MOVES),
    layer("stream.streamer.cold_preview_ms", "ms", Lower, "none: first scan only, plan build included"),
    layer("stream.streamer.plan_cache_hits", "count", Higher, STREAMER_FINISH_MOVES),
    layer("stream.streamer.plan_cache_misses", "count", Lower, STREAMER_FINISH_MOVES),
    layer("stream.streamer.scan_setup_us", "us", Lower, STREAMER_SCAN_MOVES),
    layer("stream.streamer.preview_latency_ms_p90", "ms", Lower, "reported, not gated: the tail swings by a third between identical runs; 0 when fewer than ten samples lie beyond it"),
    layer("stream.filewriter.file_ready_ms_p50", "ms", Lower, WRITER_MOVES),
    layer("stream.filewriter.bytes_per_scan", "B", Lower, WRITER_MOVES),
    layer("stream.filewriter.rejected", "count", Lower, WRITER_MOVES),
    layer("scidata.scanfile.load_ms_p50", "ms", Lower, SCANFILE_MOVES),
    layer("scidata.scanfile.load_mb_per_s", "MB/s", Higher, SCANFILE_MOVES),
    layer("scidata.scanfile.bytes", "B", Lower, SCANFILE_MOVES),
    layer("scidata.tiff.sink_busy_ms_per_scan", "ms", Lower, SINK_MOVES),
    layer("scidata.tiff.bytes_per_scan", "B", Lower, SINK_MOVES),
    layer("scidata.multiscale.sink_busy_ms_per_scan", "ms", Lower, SINK_MOVES),
    layer("scidata.multiscale.bytes_per_scan", "B", Lower, SINK_MOVES),
    layer("scidata.readback.ms_per_scan", "ms", Lower, "none: runs after the op's clock stops"),
    layer("scidata.readback.mb_per_s", "MB/s", Higher, "none: runs after the op's clock stops"),
    layer("tomo.pipeline.plan_build_ms", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.load_busy_ms", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.prep_busy_ms", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.recon_busy_ms", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.sink_busy_ms", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.sink_overlapped_ms", "ms", Higher, PIPELINE_MOVES),
    layer("tomo.pipeline.overlap_ratio", "ratio", Higher, PIPELINE_MOVES),
    layer("tomo.pipeline.source_frame_reads", "count", Lower, PIPELINE_MOVES),
    layer("tomo.pipeline.products_ready_ms_p50", "ms", Lower, PIPELINE_MOVES),
    layer("tomo.plan.build_ms", "ms", Lower, PLAN_MOVES),
    layer("tomo.plan.fbp_slice_ms_p50", "ms", Lower, PLAN_MOVES),
    layer("tomo.plan.ns_per_pixel_angle", "ns", Lower, PLAN_MOVES),
    layer("tomo.iterative.sirt_slice_ms_p50", "ms", Lower, ITER_MOVES),
    layer("tomo.iterative.ns_per_pixel_angle_iter", "ns", Lower, ITER_MOVES),
    layer("tomo.prep.ns_per_sample", "ns", Lower, PLAN_MOVES),
    layer("tomo.simd_lanes", "count", Higher, "label: f32 lanes of the detected SIMD path (1 scalar, 8 AVX2)"),
    layer("catalog.ingest_us_p50", "us", Lower, CATALOG_MOVES),
    layer("catalog.export_json_ms", "ms", Lower, CATALOG_MOVES),
    layer("catalog.datasets", "count", Higher, CATALOG_MOVES),
    layer("orchestrator.journal.records_per_flow", "count", Lower, WAL_MOVES),
    layer("orchestrator.journal.fsyncs_per_flow", "count", Lower, WAL_MOVES),
    layer("orchestrator.journal.bytes_per_flow", "B", Lower, WAL_MOVES),
    layer("orchestrator.shard.skew", "ratio", Lower, WAL_MOVES),
    layer("orchestrator.recover.ms_p50", "ms", Lower, "none: recovery runs between WAL rounds, off their clock"),
    layer("orchestrator.recover.replayed_records", "count", Lower, WAL_MOVES),
    layer("orchestrator.recover.mb_per_s", "MB/s", Higher, WAL_MOVES),
    layer("core.sim.healthy_campaign_ms_p50", "ms", Lower, SIM_MOVES),
    layer("core.sim.storm_campaign_ms_p50", "ms", Lower, SIM_MOVES),
    layer("core.sim.outage_campaign_ms_p50", "ms", Lower, SIM_MOVES),
    layer("core.sim.scans_per_s", "1/s", Higher, SIM_MOVES),
    layer("core.sim.journal_records_per_scan", "count", Lower, SIM_MOVES),
    layer("core.sim.journal_writes_per_scan", "count", Lower, SIM_MOVES),
    layer("core.sim.recoveries", "count", Lower, SIM_MOVES),
    layer("core.sim.reattached_ops", "count", Lower, SIM_MOVES),
    layer("core.sim.duplicate_side_effects", "count", Lower, SIM_MOVES),
    layer("facility.router.failovers", "count", Lower, SIM_MOVES),
    layer("facility.router.max_hops", "count", Lower, SIM_MOVES),
    layer("globus.transfer.total_gib", "GiB", Lower, SIM_MOVES),
    layer("telemetry.trace.spans_per_scan", "count", Lower, SIM_MOVES),
    layer("telemetry.snapshot_ms", "ms", Lower, SIM_MOVES),
    layer("harness.generator_lag_ms_p95", "ms", Lower, "none: above 10 ms the stream_paced run is invalid, not slow"),
    layer("harness.cpu_ms_per_work", "ms", Lower, "process CPU time per unit of work_per_s; the efficiency reading where the offered rate pins throughput"),
    layer("trace.result_latency_ms_p50", "ms", Lower, HARNESS),
    layer("trace.work_per_s", "1/s", Higher, HARNESS),
    layer("trace.unattributed_pct", "%", Lower, HARNESS),
    layer("trace.spans", "count", Lower, HARNESS),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        items.join(", ")
    };
    let array = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
        array(workloads),
        array(end_to_end),
        array(per_layer)
    )
}

/// The same tables as markdown, for `README.md`.
pub fn markdown_tables() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "| workload | why it is here |\n|---|---|");
    for w in WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|"
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.definition
        );
    }
    let _ = writeln!(
        out,
        "\n| per-layer metric | unit | better | should move |\n|---|---|---|---|"
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for name in workload_names()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `als-benchmark spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let v: serde_json::Value = serde_json::from_str(&committed).expect("valid JSON");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        for name in workload_names()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(name), "README.md does not mention {name}");
        }
    }
}
