//! The two workloads of the streaming branch: `stream_paced` offers a
//! realistic acquisition on a schedule and watches feedback latency;
//! `stream_small_scans` pushes tiny scans flat out and watches
//! per-message and per-scan overhead. Same layer, opposite uses.

use crate::harness::{self, derive_seed, timed_setup, Outcome, RunArgs, Schedule};
use crate::stats;
use crate::sut::{self, FileMsg, FileRx, PreviewMsg, PreviewRx, RenderedScan, ScanShape};
use crate::trace::Trace;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A paced preview later than this has missed the feedback loop: 14
/// scans behind, 35 times the median. (250 ms was tried first; the
/// sandbox stalls for longer than that about once in ten runs.)
const PACED_LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// Above this the generator, not the program, set the latencies.
const MAX_GENERATOR_LAG_MS: f64 = 10.0;

/// In-disk MSE of the preview's XY slice against the phantom, pinned at
/// twice what these sizes give with default detector noise (0.0050 and
/// 0.0106, within 2% across seeds); a reconstruction that loses frames
/// or misplaces the centre lands far above.
const PACED_MSE_BOUND: f64 = 0.010;
const SMALL_MSE_BOUND: f64 = 0.021;

/// One scan as the generator and the collectors saw it.
struct ScanRecord {
    /// What latency counts from: `ScanEnd` due (paced) or sent (small).
    trigger: Instant,
    publish_start: Instant,
    publish_end: Instant,
    preview_at: Option<Instant>,
    file_at: Option<Instant>,
    recon: Duration,
    send: Duration,
    file_bytes: u64,
    failure: Option<String>,
}

impl ScanRecord {
    fn new(trigger: Instant, publish_start: Instant, publish_end: Instant) -> ScanRecord {
        ScanRecord {
            trigger,
            publish_start,
            publish_end,
            preview_at: None,
            file_at: None,
            recon: Duration::ZERO,
            send: Duration::ZERO,
            file_bytes: 0,
            failure: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    fn preview_latency(&self) -> Option<Duration> {
        self.preview_at
            .map(|t| t.saturating_duration_since(self.trigger))
    }

    fn file_latency(&self) -> Option<Duration> {
        self.file_at
            .map(|t| t.saturating_duration_since(self.trigger))
    }

    /// The preview's verdict on the scan; `limit` is the latency a
    /// preview may take before it counts as missing.
    fn judge_preview(
        &mut self,
        id: &str,
        at: Instant,
        p: &PreviewMsg,
        scan: &RenderedScan,
        limit: Option<Duration>,
        mse_bound: Option<f64>,
    ) {
        self.preview_at = Some(at);
        self.recon = p.recon_wall();
        self.send = p.send_wall();
        if p.cached_frames() != scan.shape.angles || p.lost_frames() != 0 {
            self.fail(format!(
                "{id}: preview assembled {} of {} frames, {} lost",
                p.cached_frames(),
                scan.shape.angles,
                p.lost_frames()
            ));
        }
        if let Some(limit) = limit {
            if at.saturating_duration_since(self.trigger) > limit {
                self.fail(format!("{id}: preview later than {limit:?}"));
            }
        }
        if let Some(bound) = mse_bound {
            let mse = scan.mid_slice_mse(p.xy_slice());
            if mse.is_nan() || mse >= bound {
                self.fail(format!("{id}: preview MSE {mse:.4} over {bound}"));
            }
        }
    }

    fn judge_file(&mut self, id: &str, at: Instant, f: &FileMsg, scan: &RenderedScan) {
        self.file_at = Some(at);
        self.file_bytes = f.bytes;
        if f.frames != scan.shape.angles || f.rejected_frames != 0 {
            self.fail(format!(
                "{id}: file holds {} of {} frames, {} rejected",
                f.frames, scan.shape.angles, f.rejected_frames
            ));
        }
    }

    fn finish(&mut self, id: &str) {
        if self.preview_at.is_none() {
            self.fail(format!("{id}: no preview"));
        }
        if self.file_at.is_none() {
            self.fail(format!("{id}: no scan file"));
        }
    }
}

/// Results stamped on a collector thread the moment they arrive, so a
/// generator that is busy publishing does not inflate their latency.
struct Arrivals<T> {
    rx: mpsc::Receiver<(Instant, T)>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl<T: Send + 'static> Arrivals<T> {
    /// `recv` polls the source, `after` runs once the arrival is
    /// stamped, and `dropped` reads the source's overflow counter when
    /// the collector shuts down.
    fn spawn<S: Send + 'static>(
        source: S,
        recv: impl Fn(&S, Duration) -> Option<T> + Send + 'static,
        after: impl Fn(&T) + Send + 'static,
        dropped: impl Fn(&S) -> u64 + Send + 'static,
    ) -> Arrivals<T> {
        let (tx, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                loop {
                    match recv(&source, Duration::from_millis(50)) {
                        Some(msg) => {
                            let at = Instant::now();
                            after(&msg);
                            if tx.send((at, msg)).is_err() {
                                break;
                            }
                        }
                        None if stop.load(Ordering::SeqCst) => break,
                        None => {}
                    }
                }
                dropped(&source)
            }
        });
        Arrivals { rx, stop, thread }
    }

    fn next(&self, timeout: Duration) -> Option<(Instant, T)> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Take arrivals until `want` are in hand or `give_up` passes.
    fn drain(&self, want: usize, give_up: Instant) -> Vec<(Instant, T)> {
        let mut got = Vec::with_capacity(want);
        while got.len() < want {
            match self.next(give_up.saturating_duration_since(Instant::now())) {
                Some(arrival) => got.push(arrival),
                None => break,
            }
        }
        got
    }

    /// Stop the collector (and with it the service it owns); returns
    /// how many results the service dropped for lack of queue space.
    fn close(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("collector thread")
    }
}

fn collect_previews(rx: PreviewRx) -> Arrivals<PreviewMsg> {
    Arrivals::spawn(rx, |rx, t| rx.recv(t), |_| (), |rx| rx.dropped())
}

/// File completions; every file but each `keep_every`-th is deleted on
/// arrival, the kept ones wait for the byte-for-byte check.
fn collect_files(rx: FileRx, keep_every: usize) -> Arrivals<FileMsg> {
    Arrivals::spawn(
        rx,
        |rx, t| rx.recv(t),
        move |f| {
            if scan_index(&f.scan_id).is_none_or(|i| i % keep_every != 0) {
                std::fs::remove_file(&f.path).ok();
            }
        },
        |rx| rx.completions_dropped(),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-frame costs the generator accumulates in a traced run.
#[derive(Default, Clone, Copy)]
struct PublishCost {
    acquire_ns: u64,
    publish_ns: u64,
    frames: u64,
}

impl PublishCost {
    fn add(&mut self, other: PublishCost) {
        self.acquire_ns += other.acquire_ns;
        self.publish_ns += other.publish_ns;
        self.frames += other.frames;
    }
}

/// Publish `ScanStart` and every frame of one scan; `before_frame` runs
/// ahead of each frame (the paced generator sleeps to the frame's slot
/// there). The caller sends `ScanEnd`.
fn publish_scan(
    publisher: &sut::Publisher,
    scan: &RenderedScan,
    realisation: usize,
    id: &str,
    traced: bool,
    cost: &mut PublishCost,
    mut before_frame: impl FnMut(u32),
) {
    publisher.start_scan(scan, id);
    for a in 0..scan.shape.angles {
        before_frame(a as u32);
        if traced {
            let t0 = Instant::now();
            let frame = publisher.acquire(scan, realisation, a);
            let t1 = Instant::now();
            publisher.publish(frame);
            cost.acquire_ns += (t1 - t0).as_nanos() as u64;
            cost.publish_ns += t1.elapsed().as_nanos() as u64;
        } else {
            publisher.publish(publisher.acquire(scan, realisation, a));
        }
    }
    cost.frames += scan.shape.angles as u64;
}

/// Fold the per-scan records of the timed region into the outcome.
fn summarise(
    out: &mut Outcome,
    trace: &Trace,
    records: &mut [ScanRecord],
    frames_per_scan: usize,
    timed_wall: Duration,
) {
    let mut preview_ms = Vec::new();
    let mut file_ms = Vec::new();
    let mut recon_ms = Vec::new();
    let mut send_us = Vec::new();
    let mut wait_ms = Vec::new();
    let mut good_frames = 0usize;
    let mut file_bytes = 0u64;
    for (i, r) in records.iter_mut().enumerate() {
        if let Some(l) = r.preview_latency() {
            preview_ms.push(ms(l));
            recon_ms.push(ms(r.recon));
            send_us.push(r.send.as_secs_f64() * 1e6);
            wait_ms.push(ms(l.saturating_sub(r.recon + r.send)));
        }
        if let Some(l) = r.file_latency() {
            file_ms.push(ms(l));
        }
        file_bytes += r.file_bytes;
        if r.failure.is_none() {
            good_frames += frames_per_scan;
        }
        let end = [Some(r.publish_end), r.preview_at, r.file_at]
            .into_iter()
            .flatten()
            .max()
            .expect("publish_end is always there");
        let op = i as u64;
        let root = trace.record("scan", None, op, r.publish_start, end);
        trace.record("scan.publish", root, op, r.publish_start, r.publish_end);
        if let Some(at) = r.preview_at {
            trace.record("preview.wait", root, op, r.publish_end, at);
        }
        if let Some(at) = r.file_at {
            trace.record("file.wait", root, op, r.publish_end, at);
        }
        out.op(r.failure.take().map_or(Ok(()), Err));
    }
    out.result_latency_ms_p50 = stats::p50(&preview_ms);
    out.work_units = good_frames as f64;
    out.work_per_s = good_frames as f64 / timed_wall.as_secs_f64();
    out.layer("stream.streamer.finish_ms_p50", stats::p50(&recon_ms));
    out.layer("stream.streamer.send_us_p50", stats::p50(&send_us));
    out.layer("stream.streamer.queue_wait_ms_p50", stats::p50(&wait_ms));
    // a tail percentile is reported only with ten samples beyond it
    out.layer(
        "stream.streamer.preview_latency_ms_p90",
        stats::highest_supported(&preview_ms, &[0.90]).map_or(0.0, |(_, v)| v),
    );
    out.layer("stream.filewriter.file_ready_ms_p50", stats::p50(&file_ms));
    out.layer(
        "stream.filewriter.bytes_per_scan",
        file_bytes as f64 / records.len().max(1) as f64,
    );
}

fn publish_cost_layers(out: &mut Outcome, cost: PublishCost) {
    if cost.frames > 0 {
        out.layer(
            "stream.slab.acquire_ns_per_frame",
            cost.acquire_ns as f64 / cost.frames as f64,
        );
        out.layer(
            "stream.channel.publish_ns_per_msg",
            cost.publish_ns as f64 / cost.frames as f64,
        );
    }
}

/// Single-thread replay of the streamer's per-scan work (traced runs).
fn streamer_replay_layers(out: &mut Outcome, scan: &RenderedScan) {
    let runs: Vec<sut::StreamerReplay> = (0..5).map(|_| sut::replay_streamer(scan, 0)).collect();
    let setup: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64() * 1e6).collect();
    let ingest: Vec<f64> = runs
        .iter()
        .map(|r| r.ingest.as_secs_f64() * 1e6 / r.frames as f64)
        .collect();
    out.layer("stream.streamer.scan_setup_us", stats::p50(&setup));
    out.layer("stream.streamer.ingest_us_per_frame", stats::p50(&ingest));
}

/// The registry's own statement of `published = received + queued +
/// dropped` for the preview subscriber once its queue has drained, plus
/// zero drops everywhere.
fn check_stream_accounting(
    out: &mut Outcome,
    telemetry: &sut::StreamTelemetry,
    preview_channel: &str,
    scans: u64,
    messages: u64,
) {
    let published = telemetry.counter_sum(&format!(
        "stream_frames_published_total{{channel=\"{preview_channel}"
    ));
    let ingested = telemetry.counter_sum("stream_frames_ingested_total");
    let rejected = telemetry.counter_sum("stream_frames_rejected_total")
        + telemetry.counter_sum("stream_writer_rejected_total");
    let dropped = telemetry.counter_sum("stream_frames_dropped_total");
    out.check(published == messages, || {
        format!("channel {preview_channel} published {published} of {messages} messages")
    });
    out.check(dropped == 0 && rejected == 0, || {
        format!("{dropped} messages dropped, {rejected} frames rejected")
    });
    // every preview and file is in hand, so nothing is queued any more
    out.check(
        published == ingested + rejected + 2 * scans + dropped,
        || {
            format!(
                "published {published} != received {ingested}+{rejected}+{} + dropped {dropped}",
                2 * scans
            )
        },
    );
    out.layer("stream.channel.dropped_frames", dropped as f64);
    out.layer("stream.filewriter.rejected", rejected as f64);
}

fn scan_index(id: &str) -> Option<usize> {
    id.rsplit_once('s')?.1.parse().ok()
}

// ----- stream_paced -----------------------------------------------------

const PACED_SHAPE: ScanShape = ScanShape {
    n: 128,
    rows: 16,
    angles: 180,
};
const PACED_RATE: u32 = 2500;
const PACED_WARMUP_SCANS: usize = 3;
const REALISATIONS: usize = 4;
/// Every n-th written file is reloaded and compared with what was sent.
const PACED_VERIFY_EVERY: usize = 10;

pub fn stream_paced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.trace.enabled();
    let out_dir = args.work_dir.join("paced");
    let (scan, setup_s) = timed_setup(args.setup_budget(), || {
        std::fs::create_dir_all(&out_dir).expect("work dir is writable");
        RenderedScan::render(PACED_SHAPE, derive_seed(args.seed, 1), REALISATIONS)
    });
    out.setup_s = setup_s;
    out.input_digest = scan.digest();

    let schedule = Schedule::at_rate(PACED_RATE, PACED_SHAPE.angles as u32);
    let warmup_scans = args.warmup(PACED_WARMUP_SCANS) as u32;
    let timed_scans = schedule.scans_in(args.seconds);
    let total_scans = warmup_scans + timed_scans;
    let deep_copies_before = sut::deep_copies();
    let (topology, ends) = sut::paced_topology(&out_dir, PACED_SHAPE.frame_len(), traced);

    let previews = collect_previews(ends.previews);
    let files = collect_files(ends.files, PACED_VERIFY_EVERY);
    let t0 = Instant::now() + Duration::from_millis(20);
    let messages_per_scan = PACED_SHAPE.angles + 2;
    let probe = ends.probe.map(|probe| {
        std::thread::spawn(move || {
            let stamps = probe.collect(
                total_scans as usize * messages_per_scan,
                Duration::from_secs(2),
            );
            (stamps, probe.dropped())
        })
    });

    // the generator: this thread
    let mut records: Vec<ScanRecord> = Vec::with_capacity(total_scans as usize);
    let mut lag_ms: Vec<f64> = Vec::with_capacity(total_scans as usize * messages_per_scan);
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut cost = PublishCost::default();
    let mut queue_depth_max = 0i64;
    let mut timed_cpu_start = 0.0;
    for s in 0..total_scans {
        if s == warmup_scans {
            timed_cpu_start = harness::process_cpu_s();
            cost = PublishCost::default();
        }
        let id = format!("ps{s:06}");
        lag_ms.push(ms(harness::sleep_until(t0 + schedule.frame_due(s, 0))));
        let publish_start = Instant::now();
        publish_scan(
            &topology.publisher,
            &scan,
            s as usize % REALISATIONS,
            &id,
            traced,
            &mut cost,
            |a| {
                lag_ms.push(ms(harness::sleep_until(t0 + schedule.frame_due(s, a))));
                if traced {
                    sent_at.push(Instant::now());
                }
            },
        );
        let end_due = t0 + schedule.end_due(s);
        lag_ms.push(ms(harness::sleep_until(end_due)));
        topology.publisher.end_scan(&id);
        records.push(ScanRecord::new(end_due, publish_start, Instant::now()));
        if traced {
            queue_depth_max =
                queue_depth_max.max(topology.telemetry.gauge_max("stream_queue_depth"));
        }
    }

    let give_up = Instant::now() + Duration::from_secs(5);
    let preview_arrivals = previews.drain(total_scans as usize, give_up);
    let file_arrivals = files.drain(total_scans as usize, give_up);
    let timed_cpu_end = harness::process_cpu_s();
    let previews_dropped = previews.close();
    let completions_dropped = files.close();
    let mirror_hops = probe.map(|p| p.join().expect("probe collector"));

    let cold_preview_ms = preview_arrivals
        .iter()
        .find(|(_, p)| scan_index(p.scan_id()) == Some(0))
        .map_or(0.0, |(at, _)| {
            ms(at.saturating_duration_since(records[0].trigger))
        });
    for (at, p) in &preview_arrivals {
        let Some(i) = scan_index(p.scan_id()).filter(|&i| i < records.len()) else {
            out.violate(format!("preview for unknown scan {}", p.scan_id()));
            continue;
        };
        records[i].judge_preview(
            p.scan_id(),
            *at,
            p,
            &scan,
            Some(PACED_LATENCY_LIMIT),
            Some(PACED_MSE_BOUND),
        );
    }
    let mut kept_files: Vec<(usize, PathBuf)> = Vec::new();
    for (at, f) in &file_arrivals {
        let Some(i) = scan_index(&f.scan_id).filter(|&i| i < records.len()) else {
            out.violate(format!("file for unknown scan {}", f.scan_id));
            continue;
        };
        records[i].judge_file(&f.scan_id, *at, f, &scan);
        if i % PACED_VERIFY_EVERY == 0 {
            kept_files.push((i, f.path.clone()));
        }
    }
    for (i, path) in kept_files {
        if let Err(why) = sut::file_matches(&path, &scan, i % REALISATIONS) {
            records[i].fail(why);
        }
        std::fs::remove_file(&path).ok();
    }
    for (s, r) in records.iter_mut().enumerate() {
        r.finish(&format!("ps{s:06}"));
    }

    let timed = &mut records[warmup_scans as usize..];
    let timed_start = t0 + schedule.frame_due(warmup_scans, 0);
    let timed_end = timed
        .iter()
        .flat_map(|r| [Some(r.publish_end), r.preview_at, r.file_at])
        .flatten()
        .max()
        .expect("at least one timed scan");
    summarise(
        &mut out,
        &args.trace,
        timed,
        PACED_SHAPE.angles,
        timed_end.saturating_duration_since(timed_start),
    );
    out.timed_cpu_s = timed_cpu_end - timed_cpu_start;

    let lag_p95 = stats::percentile(&lag_ms, 0.95).unwrap_or(0.0);
    out.check(lag_p95 < MAX_GENERATOR_LAG_MS, || {
        format!("run invalid: generator ran {lag_p95:.2} ms late at p95")
    });
    out.check(previews_dropped == 0 && completions_dropped == 0, || {
        format!("{previews_dropped} previews and {completions_dropped} file reports dropped")
    });
    let deep_copies = sut::deep_copies() - deep_copies_before;
    out.check(deep_copies == 0, || {
        format!("{deep_copies} frame deep copies")
    });
    let messages = u64::from(total_scans) * messages_per_scan as u64;
    check_stream_accounting(
        &mut out,
        &topology.telemetry,
        "mirror",
        u64::from(total_scans),
        messages,
    );
    let forwarded = topology.mirror_forwarded();
    out.check(forwarded == messages, || {
        format!("mirror forwarded {forwarded} of {messages} messages")
    });

    out.layer("harness.generator_lag_ms_p95", lag_p95);
    out.layer(
        "stream.slab.peak_allocated",
        topology.publisher.slabs_allocated() as f64,
    );
    out.layer("stream.slab.deep_copies", deep_copies as f64);
    out.layer("stream.mirror.forwarded", forwarded as f64);
    out.layer("stream.streamer.cold_preview_ms", cold_preview_ms);
    let (hits, misses) = topology.plan_cache();
    out.layer("stream.streamer.plan_cache_hits", hits as f64);
    out.layer("stream.streamer.plan_cache_misses", misses as f64);
    if traced {
        publish_cost_layers(&mut out, cost);
        out.layer("stream.channel.queue_depth_max", queue_depth_max as f64);
        if let Some((stamps, probe_dropped)) = mirror_hops {
            // the probe sees ScanStart, frames, ScanEnd in order; frames
            // are every message that is neither first nor last of a scan
            let frame_stamps = stamps
                .iter()
                .enumerate()
                .filter(|(k, _)| (1..messages_per_scan - 1).contains(&(k % messages_per_scan)))
                .map(|(_, t)| *t);
            let hops: Vec<f64> = frame_stamps
                .zip(&sent_at)
                .map(|(got, sent)| got.saturating_duration_since(*sent).as_secs_f64() * 1e6)
                .collect();
            out.check(probe_dropped == 0 && hops.len() == sent_at.len(), || {
                format!(
                    "mirror probe saw {} of {} frames",
                    hops.len(),
                    sent_at.len()
                )
            });
            out.layer("stream.mirror.hop_us_p50", stats::p50(&hops));
        }
        streamer_replay_layers(&mut out, &scan);
    }
    topology.stop();
    std::fs::remove_dir_all(&out_dir).ok();
    out
}

// ----- stream_small_scans -----------------------------------------------

const SMALL_SHAPE: ScanShape = ScanShape {
    n: 64,
    rows: 4,
    angles: 96,
};
const SMALL_WARMUP_SCANS: usize = 200;
const SMALL_VERIFY_EVERY: usize = 500;
const SMALL_MSE_EVERY: usize = 64;
const SMALL_WAIT: Duration = Duration::from_secs(10);

struct LaneResult {
    /// Scans published, warm-up included.
    scans: u64,
    records: Vec<ScanRecord>,
    wall: Duration,
    cost: PublishCost,
    cold_preview_ms: f64,
    slabs: u64,
    previews_dropped: u64,
    completions_dropped: u64,
    queue_depth_max: i64,
    /// Kept files that did not reload as what was published.
    file_mismatches: Vec<String>,
}

/// One closed-loop lane: publish a scan flat out, wait for its preview
/// and its file, repeat. Warm-up scans run before the start line.
fn run_lane(
    lane_no: usize,
    lane: sut::Lane,
    files: FileRx,
    scan: &RenderedScan,
    telemetry: &sut::StreamTelemetry,
    args: &RunArgs,
    start_line: &Barrier,
) -> LaneResult {
    let (seconds, traced) = (args.seconds, args.trace.enabled());
    let warmup_scans = args.warmup(SMALL_WARMUP_SCANS);
    let files = collect_files(files, SMALL_VERIFY_EVERY);
    let mut records: Vec<ScanRecord> = Vec::new();
    let mut kept: Vec<(usize, PathBuf)> = Vec::new();
    let mut cost = PublishCost::default();
    let mut warm_cost = PublishCost::default();
    let mut queue_depth_max = 0i64;
    let mut cold_preview_ms = 0.0;
    let mut timed_start = Instant::now();
    let mut k = 0usize;
    loop {
        if k == warmup_scans {
            start_line.wait();
            timed_start = Instant::now();
        }
        let timed = k >= warmup_scans;
        if timed && timed_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let id = format!("l{lane_no}s{k:07}");
        let realisation = k % scan.realisations();
        let publish_start = Instant::now();
        publish_scan(
            &lane.publisher,
            scan,
            realisation,
            &id,
            traced,
            if timed { &mut cost } else { &mut warm_cost },
            |_| (),
        );
        let sent = Instant::now();
        lane.publisher.end_scan(&id);
        let mut record = ScanRecord::new(sent, publish_start, Instant::now());
        if let Some(p) = lane.recv_preview(SMALL_WAIT) {
            let at = Instant::now();
            let mse_bound = k.is_multiple_of(SMALL_MSE_EVERY).then_some(SMALL_MSE_BOUND);
            record.judge_preview(&id, at, &p, scan, None, mse_bound);
            if p.scan_id() != id {
                record.fail(format!("{id}: preview is for {}", p.scan_id()));
            }
        }
        if let Some((at, f)) = files.next(SMALL_WAIT) {
            record.judge_file(&id, at, &f, scan);
            if f.scan_id != id {
                record.fail(format!("{id}: file is for {}", f.scan_id));
            } else if k.is_multiple_of(SMALL_VERIFY_EVERY) {
                kept.push((realisation, f.path));
            }
        }
        record.finish(&id);
        if k == 0 {
            cold_preview_ms = record.preview_latency().map_or(0.0, ms);
        }
        if traced && k.is_multiple_of(SMALL_MSE_EVERY) {
            queue_depth_max = queue_depth_max.max(telemetry.gauge_max("stream_queue_depth"));
        }
        // a warm-up scan is measured only when it fails: it still fails the run
        if timed || record.failure.is_some() {
            records.push(record);
        }
        k += 1;
    }
    let wall = timed_start.elapsed();
    let mut file_mismatches = Vec::new();
    for (realisation, path) in kept {
        if let Err(why) = sut::file_matches(&path, scan, realisation) {
            file_mismatches.push(why);
        }
        std::fs::remove_file(&path).ok();
    }
    let result = LaneResult {
        file_mismatches,
        scans: k as u64,
        records,
        wall,
        cost,
        cold_preview_ms,
        slabs: lane.publisher.slabs_allocated(),
        previews_dropped: lane.previews_dropped(),
        completions_dropped: files.close(),
        queue_depth_max,
    };
    lane.close();
    result
}

pub fn stream_small_scans(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.trace.enabled();
    let out_dir = args.work_dir.join("small");
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let (scan, setup_s) = timed_setup(args.setup_budget(), || {
        for lane in 0..lanes {
            std::fs::create_dir_all(out_dir.join(format!("lane{lane}")))
                .expect("work dir is writable");
        }
        RenderedScan::render(SMALL_SHAPE, derive_seed(args.seed, 2), REALISATIONS)
    });
    out.setup_s = setup_s;
    out.input_digest = scan.digest();

    let deep_copies_before = sut::deep_copies();
    let hub = sut::Hub::new();
    let telemetry = hub.telemetry();
    let start_line = Barrier::new(lanes + 1);
    let (results, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|i| {
                let (lane, files) = hub.open_lane(
                    &format!("lane{i}"),
                    &out_dir.join(format!("lane{i}")),
                    SMALL_SHAPE.frame_len(),
                );
                let (scan, telemetry, start_line) = (&scan, &telemetry, &start_line);
                scope.spawn(move || run_lane(i, lane, files, scan, telemetry, args, start_line))
            })
            .collect();
        start_line.wait();
        let cpu_start = harness::process_cpu_s();
        let results: Vec<LaneResult> = handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect();
        (results, harness::process_cpu_s() - cpu_start)
    });
    out.timed_cpu_s = cpu_s;

    let wall = results
        .iter()
        .map(|r| r.wall)
        .max()
        .expect("at least one lane");
    let mut cost = PublishCost::default();
    let mut records: Vec<ScanRecord> = Vec::new();
    let (mut previews_dropped, mut completions_dropped) = (0, 0);
    let mut total_scans = 0u64;
    for r in results.iter() {
        cost.add(r.cost);
        previews_dropped += r.previews_dropped;
        completions_dropped += r.completions_dropped;
        total_scans += r.scans;
    }
    let cold_preview_ms = results[0].cold_preview_ms;
    let slabs = results.iter().map(|r| r.slabs).max().unwrap_or(0);
    let queue_depth_max = results.iter().map(|r| r.queue_depth_max).max().unwrap_or(0);
    for r in results {
        records.extend(r.records);
        r.file_mismatches
            .into_iter()
            .for_each(|why| out.violate(why));
    }
    summarise(
        &mut out,
        &args.trace,
        &mut records,
        SMALL_SHAPE.angles,
        wall,
    );

    out.check(previews_dropped == 0 && completions_dropped == 0, || {
        format!("{previews_dropped} previews and {completions_dropped} file reports dropped")
    });
    let deep_copies = sut::deep_copies() - deep_copies_before;
    out.check(deep_copies == 0, || {
        format!("{deep_copies} frame deep copies")
    });
    let messages = total_scans * (SMALL_SHAPE.angles as u64 + 2);
    check_stream_accounting(&mut out, &telemetry, "lane", total_scans, messages);

    out.layer("stream.slab.peak_allocated", slabs as f64);
    out.layer("stream.slab.deep_copies", deep_copies as f64);
    out.layer("stream.streamer.cold_preview_ms", cold_preview_ms);
    let (hits, misses) = hub.plan_cache();
    out.layer("stream.streamer.plan_cache_hits", hits as f64);
    out.layer("stream.streamer.plan_cache_misses", misses as f64);
    if traced {
        publish_cost_layers(&mut out, cost);
        out.layer("stream.channel.queue_depth_max", queue_depth_max as f64);
        streamer_replay_layers(&mut out, &scan);
    }
    std::fs::remove_dir_all(&out_dir).ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rendered_inputs() {
        let shape = ScanShape {
            n: 32,
            rows: 2,
            angles: 24,
        };
        let a = RenderedScan::render(shape, 5, 2);
        assert_eq!(a.digest(), RenderedScan::render(shape, 5, 2).digest());
        assert_ne!(a.digest(), RenderedScan::render(shape, 6, 2).digest());
        // realisations are distinct noise draws over one projection
        assert_eq!(a.realisations(), 2);
        assert_ne!(a.frame(0, 3), a.frame(1, 3));
        assert_eq!(a.frame(0, 3).len(), shape.frame_len());
    }

    #[test]
    fn scan_ids_carry_their_index() {
        assert_eq!(scan_index("ps000123"), Some(123));
        assert_eq!(scan_index("l1s0000042"), Some(42));
        assert_eq!(scan_index("nonsense"), None);
    }
}
