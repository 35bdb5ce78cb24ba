//! What every workload shares: run arguments, the result a workload
//! hands back, open-loop schedule arithmetic, input digests, and the
//! process's own memory and CPU readings.

use crate::catalogue;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arguments of one measured run.
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    pub trace: Trace,
    /// Scratch directory of this run, inside the checkout.
    pub work_dir: PathBuf,
    /// Compile-and-correctness check: one set-up, no warm-up ops, every
    /// check on. Its numbers are never recorded.
    pub smoke: bool,
}

impl RunArgs {
    /// Set-up is repeated for the `setup_s` median until this much time
    /// went into it.
    pub fn setup_budget(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_millis(1500)
        }
    }

    /// Untimed ops that let caches fill and lazy set-up finish.
    pub fn warmup(&self, ops: usize) -> usize {
        if self.smoke {
            0
        } else {
            ops
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold, in words.
    pub violations: Vec<String>,
    pub setup_s: f64,
    pub result_latency_ms_p50: f64,
    pub work_per_s: f64,
    /// Units of work behind `work_per_s`, for `harness.cpu_ms_per_work`.
    pub work_units: f64,
    /// Process CPU seconds spent inside the timed region.
    pub timed_cpu_s: f64,
    /// Digest of the generated inputs; the same seed gives the same one.
    pub input_digest: u64,
    layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record one per-layer metric. Names outside the catalogue are a
    /// bug in the benchmark, not a measurement.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::is_per_layer(name),
            "{name} is not in the per-layer catalogue"
        );
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, f64> {
        &self.layers
    }

    /// Count one op; a failed op also says why.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.violate(why);
        }
    }

    /// Note a failed correctness check that is not tied to a single op.
    pub fn violate(&mut self, why: String) {
        // a broken build fails every op the same way; keep the report short
        if self.violations.len() < 20 {
            self.violations.push(why);
        }
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violate(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Most repeats of one set-up, however cheap it is.
const MAX_SETUP_REPEATS: usize = 50;

/// Run `setup` until `budget` is spent (at least once, at most
/// `MAX_SETUP_REPEATS` times) and return the last product with the median
/// wall time. A cheap set-up is noisy and gets many repeats; one that
/// takes seconds is steady and runs once. Each product is dropped
/// before the next repeat so peak memory is that of one set-up.
pub fn timed_setup<T>(budget: Duration, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let t = Instant::now();
        let product = setup();
        let took = t.elapsed();
        times.push(took.as_secs_f64());
        spent += took;
        if spent >= budget || times.len() >= MAX_SETUP_REPEATS {
            return (product, crate::stats::p50(&times));
        }
    }
}

/// An open-loop schedule: scan `s` starts at `s * scan_span` and its
/// frame `i` is due `i * frame_period` later; `ScanEnd` is due at the
/// end of the span and the next scan starts immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub frame_period: Duration,
    pub frames_per_scan: u32,
}

impl Schedule {
    /// From an offered rate in frames per second.
    pub fn at_rate(frames_per_s: u32, frames_per_scan: u32) -> Schedule {
        Schedule {
            frame_period: Duration::from_secs(1) / frames_per_s,
            frames_per_scan,
        }
    }

    pub fn scan_span(&self) -> Duration {
        self.frame_period * self.frames_per_scan
    }

    /// Offset from the schedule's start at which frame `i` of scan `s`
    /// is due.
    pub fn frame_due(&self, s: u32, i: u32) -> Duration {
        self.scan_span() * s + self.frame_period * i
    }

    /// Offset at which scan `s`'s `ScanEnd` is due.
    pub fn end_due(&self, s: u32) -> Duration {
        self.scan_span() * (s + 1)
    }

    /// Whole scans that fit in `seconds`, at least one.
    pub fn scans_in(&self, seconds: f64) -> u32 {
        ((seconds / self.scan_span().as_secs_f64()).floor() as u32).max(1)
    }
}

/// How late `now` is against `due`; zero when early.
pub fn lateness(due: Instant, now: Instant) -> Duration {
    now.saturating_duration_since(due)
}

/// Sleep until `due` (returns at once when it has passed) and report
/// how late the caller woke.
pub fn sleep_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    lateness(due, Instant::now())
}

/// FNV-1a over a byte stream; identifies generated inputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u16s(&mut self, data: &[u16]) {
        for &v in data {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A seed for one use, derived from the run's seed so that different
/// uses do not share a random stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used so far.
pub fn process_cpu_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the whole line
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI Rust targets
    ticks / 100.0
}

/// Size of everything under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    dir_bytes(&p)
                } else {
                    e.metadata().map_or(0, |m| m.len())
                }
            })
            .sum()
    })
}

/// The directory runs write into: under the cargo target directory, so
/// it is inside the checkout and already ignored by git.
pub fn work_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_matches_the_issue_arithmetic() {
        // 2500 frames/s, 180 frames: 400 us period, 72 ms span
        let s = Schedule::at_rate(2500, 180);
        assert_eq!(s.frame_period, Duration::from_micros(400));
        assert_eq!(s.scan_span(), Duration::from_millis(72));
        assert_eq!(s.frame_due(0, 0), Duration::ZERO);
        assert_eq!(
            s.frame_due(2, 5),
            Duration::from_micros(2 * 72_000 + 5 * 400)
        );
        // ScanEnd is due where the next scan's first frame is due
        assert_eq!(s.end_due(3), s.frame_due(4, 0));
        assert_eq!(s.scans_in(14.4), 200);
        assert_eq!(s.scans_in(0.5), 6);
        assert_eq!(s.scans_in(0.01), 1);
    }

    #[test]
    fn lateness_is_zero_when_early_and_exact_when_late() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(5);
        assert_eq!(lateness(due, t0), Duration::ZERO);
        assert_eq!(lateness(due, due), Duration::ZERO);
        assert_eq!(
            lateness(due, due + Duration::from_micros(730)),
            Duration::from_micros(730)
        );
        // a due time in the past returns without sleeping, reporting the lag
        let late = sleep_until(t0);
        assert!(late <= t0.elapsed());
    }

    #[test]
    fn digest_and_derived_seeds_separate_inputs() {
        let mut a = Digest::default();
        a.u16s(&[1, 2, 3]);
        let mut b = Digest::default();
        b.u16s(&[1, 2, 3]);
        let mut c = Digest::default();
        c.u16s(&[1, 2, 4]);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    fn timed_setup_reports_a_median_and_keeps_one_product() {
        let mut calls = 0;
        let (product, secs) = timed_setup(Duration::from_secs(3600), || {
            calls += 1;
            calls
        });
        assert_eq!((product, calls), (MAX_SETUP_REPEATS, MAX_SETUP_REPEATS));
        assert!(secs >= 0.0);
        let (product, _) = timed_setup(Duration::ZERO, || 7);
        assert_eq!(product, 7);
    }

    #[test]
    fn process_readings_are_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
