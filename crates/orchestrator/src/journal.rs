//! Append-only write-ahead journal for the orchestrator.
//!
//! Every flow/task state transition, retry scheduling decision,
//! idempotency claim/complete/release, concurrency-limit decision, and
//! external-operation handoff is serialized as one framed record *before*
//! the in-memory state mutates. Replaying the journal from the top
//! therefore reconstructs the orchestrator's exact state — the property
//! [`crate::recovery::DurableOrchestrator`] builds crash recovery on.
//!
//! Frame format (one record per line):
//!
//! ```text
//! <seq:16 hex> <crc32:8 hex> <json payload>\n
//! ```
//!
//! The CRC-32 (IEEE, from `als_scidata::checksum`) covers the sequence
//! number and the payload, so a record torn mid-write (the classic
//! power-cut tail), bit-rotted in place, or spliced from another journal
//! fails verification. Replay stops at the first bad frame and reports
//! the torn tail so recovery can truncate it.

use crate::engine::{FlowState, TaskState};
use als_scidata::checksum::crc32;
use als_simcore::{SimDuration, SimInstant};
use als_telemetry::{Counter, Histogram, Registry, TraceEvent};
use serde::{Deserialize, Serialize};

/// Kinds of external operations the orchestrator hands off to facility
/// services. The journal records the handle so a restarted incarnation
/// can re-attach to (or cancel) the live operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExternalKind {
    /// A Slurm job submitted through the SFAPI (`hpc::Scheduler`).
    Job,
    /// A Globus transfer task (`globus::TransferService`).
    Transfer,
    /// A Globus Compute invocation (`globus::ComputeEndpoint`).
    Compute,
}

/// One journal record. Variants mirror the mutating operations of
/// `FlowEngine`, `IdempotencyStore`, and `ConcurrencyLimits`, plus the
/// external-operation ledger that reconciliation needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A new orchestrator incarnation opened the journal.
    IncarnationStarted {
        holder: String,
        at: SimInstant,
    },
    FlowCreated {
        run: u64,
        flow: String,
        at: SimInstant,
    },
    FlowParam {
        run: u64,
        key: String,
        value: String,
    },
    FlowStarted {
        run: u64,
        at: SimInstant,
    },
    FlowFinished {
        run: u64,
        state: FlowState,
        at: SimInstant,
    },
    TaskStarted {
        run: u64,
        task: usize,
        name: String,
        key: Option<String>,
        at: SimInstant,
    },
    TaskFinished {
        run: u64,
        task: usize,
        state: TaskState,
        at: SimInstant,
        error: Option<String>,
    },
    TaskRetried {
        run: u64,
        task: usize,
        at: SimInstant,
    },
    /// A retry was *decided* (delay computed from the retry policy).
    /// Pure bookkeeping for recovery: state changes only at the later
    /// `TaskRetried`.
    RetryScheduled {
        run: u64,
        task: usize,
        attempt: u32,
        delay: SimDuration,
    },
    ClaimAcquired {
        key: String,
        holder: String,
        deadline: SimInstant,
    },
    ClaimCompleted {
        key: String,
    },
    ClaimReleased {
        key: String,
    },
    /// An expired lease (typically held by a dead incarnation) was
    /// evicted before re-claiming.
    LeaseExpired {
        key: String,
        holder: String,
    },
    LimitSet {
        tag: String,
        limit: usize,
    },
    LimitAcquired {
        tag: String,
    },
    LimitReleased {
        tag: String,
    },
    /// An acquisition was refused. Journaled so replay reproduces the
    /// rejection counters exactly.
    LimitRejected {
        tag: String,
    },
    /// An external operation was handed to a facility service.
    /// `ctx` is caller-defined (JSON) context for re-attachment.
    ExternalSubmitted {
        kind: ExternalKind,
        handle: u64,
        run: u64,
        ctx: String,
    },
    /// The external operation reached a terminal state (either way).
    ExternalResolved {
        kind: ExternalKind,
        handle: u64,
    },
    /// A trace span mutation (start/end/note). Spans ride the WAL next
    /// to the state records, so crash recovery replays them into the
    /// identical trace store the dead incarnation had.
    SpanEvent {
        ev: TraceEvent,
    },
}

impl JournalRecord {
    /// The simulation-clock timestamp the record carries, if any.
    /// Group-commit latency is measured against these — telemetry never
    /// reads the wall clock.
    pub fn timestamp(&self) -> Option<SimInstant> {
        match self {
            JournalRecord::IncarnationStarted { at, .. }
            | JournalRecord::FlowCreated { at, .. }
            | JournalRecord::FlowStarted { at, .. }
            | JournalRecord::FlowFinished { at, .. }
            | JournalRecord::TaskStarted { at, .. }
            | JournalRecord::TaskFinished { at, .. }
            | JournalRecord::TaskRetried { at, .. } => Some(*at),
            JournalRecord::SpanEvent { ev } => Some(ev.at()),
            _ => None,
        }
    }
}

/// What replay found at the end of the journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TailReport {
    /// Records that verified and were replayed.
    pub valid_records: u64,
    /// Bytes of torn/corrupt tail truncated after the last valid record.
    pub dropped_bytes: usize,
    /// Why the tail was dropped, when it was.
    pub damage: Option<TailDamage>,
}

/// The first defect replay hit (everything from there on is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDamage {
    /// Record ended without a newline (torn mid-write).
    TornWrite,
    /// Frame didn't parse as `seq crc payload`.
    BadFrame,
    /// CRC-32 mismatch: the payload was altered after writing.
    ChecksumMismatch,
    /// Sequence number out of order (lost or duplicated record).
    SequenceGap,
}

impl TailReport {
    pub fn is_clean(&self) -> bool {
        self.damage.is_none()
    }
}

/// The append-only journal. In production this would sit on durable
/// storage; here it is an in-memory byte log whose contents survive a
/// simulated crash exactly when the simulation chooses to persist them.
///
/// Two durability modes:
///
/// * **immediate** (`batch <= 1`, the default): every appended record
///   lands in the durable image at once — one write per record, the
///   PR 2 behaviour.
/// * **group commit** (`batch >= 2`): appended frames accumulate in a
///   pending buffer and move to the durable image together, either when
///   `batch` records have accumulated or on an explicit [`Journal::flush`]
///   barrier. One write covers many records; a crash loses whatever is
///   still pending, and [`Journal::crash_image_mid_flush`] models the
///   flush itself being torn by the crash.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Durable bytes — what survives a crash.
    buf: Vec<u8>,
    next_seq: u64,
    /// Group-commit threshold; `0` or `1` means immediate durability.
    batch: usize,
    /// Framed records appended but not yet flushed to `buf`.
    pending: Vec<u8>,
    pending_records: u64,
    /// Durable write operations issued (appends in immediate mode,
    /// flushes in group-commit mode) — the denominator a WAL device
    /// would fsync on.
    writes: u64,
    /// Offset in `buf` where the most recent durable write began; a
    /// crash racing that write can tear anywhere past this point.
    last_write_start: usize,
    /// Registry handles, attached by [`Journal::instrument`].
    metrics: Option<JournalMetrics>,
}

/// Interned registry handles for the journal write path.
#[derive(Debug, Clone)]
struct JournalMetrics {
    records: Counter,
    flushes: Counter,
    flush_batch: Histogram,
}

/// A frame header field: hex digits only (at most 16), else a bad frame.
fn hex_field(digits: &[u8]) -> Result<u64, TailDamage> {
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = (b as char).to_digit(16).ok_or(TailDamage::BadFrame)?;
        Ok(acc << 4 | d as u64)
    })
}

fn frame_crc(seq: u64, payload: &str) -> u32 {
    let mut framed = format!("{seq:016x} ").into_bytes();
    framed.extend_from_slice(payload.as_bytes());
    crc32(&framed)
}

impl Journal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch durability mode. Any pending records are flushed first so
    /// no frame changes mode mid-flight. `0` or `1` = immediate.
    pub fn set_group_commit(&mut self, batch: usize) {
        self.flush();
        self.batch = batch;
    }

    pub fn group_commit_batch(&self) -> usize {
        self.batch
    }

    /// Attach registry handles: `orch_journal_records_total`,
    /// `orch_journal_flushes_total` (durable write operations), and
    /// `orch_journal_flush_batch_records` (records per durable write).
    /// Pre-attach history back-fills the counters; per-write batch sizes
    /// from before attachment are gone.
    pub fn instrument(&mut self, registry: &Registry) {
        let m = JournalMetrics {
            records: registry.counter("orch_journal_records_total", &[]),
            flushes: registry.counter("orch_journal_flushes_total", &[]),
            flush_batch: registry.histogram("orch_journal_flush_batch_records", &[]),
        };
        m.records.add(self.next_seq);
        m.flushes.add(self.writes);
        self.metrics = Some(m);
    }

    /// Append one record. Must be called *before* applying the mutation
    /// it describes (write-ahead discipline). In group-commit mode the
    /// frame is buffered and becomes durable at the next flush.
    pub fn append(&mut self, rec: &JournalRecord) {
        let payload = serde_json::to_string(rec).expect("journal record serializes");
        let crc = frame_crc(self.next_seq, &payload);
        let line = format!("{:016x} {:08x} {}\n", self.next_seq, crc, payload);
        self.next_seq += 1;
        if let Some(m) = &self.metrics {
            m.records.inc();
        }
        if self.batch <= 1 {
            self.last_write_start = self.buf.len();
            self.buf.extend_from_slice(line.as_bytes());
            self.writes += 1;
            if let Some(m) = &self.metrics {
                m.flushes.inc();
                m.flush_batch.record(1);
            }
        } else {
            self.pending.extend_from_slice(line.as_bytes());
            self.pending_records += 1;
            if self.pending_records as usize >= self.batch {
                self.flush();
            }
        }
    }

    /// Commit barrier: move every pending frame into the durable image
    /// as one write. Returns whether anything was written. Callers place
    /// this *before* handing side effects to a facility, so the claim
    /// and submission records are durable before the work exists.
    pub fn flush(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.last_write_start = self.buf.len();
        self.buf.append(&mut self.pending);
        let batch = self.pending_records;
        self.pending_records = 0;
        self.writes += 1;
        if let Some(m) = &self.metrics {
            m.flushes.inc();
            m.flush_batch.record(batch);
        }
        true
    }

    /// The raw *durable* journal bytes (what a crash-surviving store
    /// would hold). Pending group-commit frames are not included.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of records appended so far (durable + pending).
    pub fn record_count(&self) -> u64 {
        self.next_seq
    }

    /// Records already in the durable image.
    pub fn durable_record_count(&self) -> u64 {
        self.next_seq - self.pending_records
    }

    /// Records buffered but not yet flushed.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Durable write operations issued so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// What a crash right now leaves on durable storage: the flushed
    /// image; pending frames die with the process.
    pub fn crash_image(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// What a crash *racing the flush itself* leaves behind: the durable
    /// image plus a torn prefix of the write that was in flight —
    /// `keep_milli`/1000 of it. With nothing pending, the tear lands
    /// inside the most recent durable write instead (the device had not
    /// finished committing it). Either way the result is a valid prefix
    /// followed by a torn frame, exactly what replay truncates.
    pub fn crash_image_mid_flush(&self, keep_milli: u32) -> Vec<u8> {
        let keep_milli = keep_milli.min(1000) as usize;
        if !self.pending.is_empty() {
            let keep = self.pending.len() * keep_milli / 1000;
            let mut img = self.buf.clone();
            img.extend_from_slice(&self.pending[..keep]);
            img
        } else {
            let tail = self.buf.len() - self.last_write_start;
            let keep = tail * keep_milli / 1000;
            self.buf[..self.last_write_start + keep].to_vec()
        }
    }

    /// Damage the journal for tests/experiments: drop the last
    /// `drop_bytes` bytes, simulating a write torn by the crash.
    pub fn tear_tail(&mut self, drop_bytes: usize) {
        let keep = self.buf.len().saturating_sub(drop_bytes);
        self.buf.truncate(keep);
    }

    /// Flip one byte in place (bit-rot injection for tests).
    pub fn corrupt_byte(&mut self, offset: usize) {
        if let Some(b) = self.buf.get_mut(offset) {
            *b ^= 0x01;
        }
    }

    /// Decode a journal image: every record that frames, checksums, and
    /// sequences correctly, plus a report on the (possibly torn) tail.
    /// Decoding stops at the first bad frame — a write-ahead log is only
    /// trustworthy up to its first defect.
    pub fn replay_bytes(bytes: &[u8]) -> (Vec<JournalRecord>, TailReport) {
        let mut records = Vec::new();
        let mut report = TailReport::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                report.damage = Some(TailDamage::TornWrite);
                break;
            };
            let line = &rest[..nl];
            match Self::decode_line(line, report.valid_records) {
                Ok(rec) => {
                    records.push(rec);
                    report.valid_records += 1;
                    pos += nl + 1;
                }
                Err(damage) => {
                    report.damage = Some(damage);
                    break;
                }
            }
        }
        report.dropped_bytes = bytes.len() - pos;
        (records, report)
    }

    fn decode_line(line: &[u8], expected_seq: u64) -> Result<JournalRecord, TailDamage> {
        let text = std::str::from_utf8(line).map_err(|_| TailDamage::BadFrame)?;
        // "<seq:16> <crc:8> <payload>"; the header is read as bytes, so a
        // multibyte character where a field should be is a bad frame,
        // not a slice off a char boundary
        if line.len() < 26 || line[16] != b' ' || line[25] != b' ' {
            return Err(TailDamage::BadFrame);
        }
        let seq = hex_field(&line[..16])?;
        let crc = hex_field(&line[17..25])? as u32;
        let payload = text.get(26..).ok_or(TailDamage::BadFrame)?;
        if frame_crc(seq, payload) != crc {
            return Err(TailDamage::ChecksumMismatch);
        }
        if seq != expected_seq {
            return Err(TailDamage::SequenceGap);
        }
        serde_json::from_str(payload).map_err(|_| TailDamage::BadFrame)
    }

    /// Rebuild a journal from the valid prefix of a crash-surviving
    /// image, so appends continue the sequence. Returns the journal, the
    /// decoded records, and the tail report.
    pub fn from_bytes(bytes: &[u8]) -> (Self, Vec<JournalRecord>, TailReport) {
        let (records, report) = Self::replay_bytes(bytes);
        let valid_len = bytes.len() - report.dropped_bytes;
        let journal = Journal {
            buf: bytes[..valid_len].to_vec(),
            next_seq: report.valid_records,
            last_write_start: valid_len,
            ..Default::default()
        };
        (journal, records, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::IncarnationStarted {
                holder: "orch-0".into(),
                at: t(0),
            },
            JournalRecord::FlowCreated {
                run: 0,
                flow: "new_file_832".into(),
                at: t(1),
            },
            JournalRecord::FlowParam {
                run: 0,
                key: "scan".into(),
                value: "scan_0001".into(),
            },
            JournalRecord::TaskStarted {
                run: 0,
                task: 0,
                name: "stage_and_ingest".into(),
                key: Some("scan_0001/ingest".into()),
                at: t(2),
            },
            JournalRecord::ClaimAcquired {
                key: "scan_0001/ingest".into(),
                holder: "orch-0".into(),
                deadline: t(3600),
            },
            JournalRecord::RetryScheduled {
                run: 0,
                task: 0,
                attempt: 1,
                delay: SimDuration::from_secs(10),
            },
            JournalRecord::ExternalSubmitted {
                kind: ExternalKind::Transfer,
                handle: 7,
                run: 0,
                ctx: "{\"scan\":1}".into(),
            },
            JournalRecord::FlowFinished {
                run: 0,
                state: FlowState::Completed,
                at: t(60),
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let mut j = Journal::new();
        let recs = sample_records();
        for r in &recs {
            j.append(r);
        }
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert_eq!(decoded, recs);
        assert!(report.is_clean());
        assert_eq!(report.valid_records, recs.len() as u64);
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        let full = j.byte_len();
        j.tear_tail(10); // rip the last record mid-write
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert_eq!(decoded.len(), sample_records().len() - 1);
        assert_eq!(report.damage, Some(TailDamage::TornWrite));
        assert!(report.dropped_bytes > 0 && report.dropped_bytes < full);
        // the surviving prefix replays the same records
        assert_eq!(decoded, sample_records()[..decoded.len()].to_vec());
    }

    #[test]
    fn bit_rot_fails_the_checksum() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        // flip a payload byte in the middle of the log
        j.corrupt_byte(j.byte_len() / 2);
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert!(decoded.len() < sample_records().len());
        assert!(matches!(
            report.damage,
            Some(TailDamage::ChecksumMismatch | TailDamage::BadFrame)
        ));
    }

    #[test]
    fn multibyte_character_in_the_header_is_a_bad_frame() {
        let mut j = Journal::new();
        let first = sample_records().remove(0);
        j.append(&first);
        // a 30-byte line whose two-byte 'é' straddles the end of the
        // CRC field (bytes 24..26)
        let line = "0000000000000001 0000000\u{e9}abc\n";
        assert_eq!(line.len(), 30);
        let mut bytes = j.bytes().to_vec();
        bytes.extend_from_slice(line.as_bytes());
        let (decoded, report) = Journal::replay_bytes(&bytes);
        assert_eq!(decoded, vec![first]);
        assert_eq!(report.damage, Some(TailDamage::BadFrame));
        assert_eq!(report.dropped_bytes, 30);
        // the same bytes through the recovery entry point
        let (_, decoded, report) = Journal::from_bytes(&bytes);
        assert_eq!(decoded.len(), 1);
        assert_eq!(report.damage, Some(TailDamage::BadFrame));
    }

    #[test]
    fn damaged_payload_separator_is_a_bad_frame() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        // byte 25 of the first line separates the CRC field from the
        // payload; the CRC does not cover it, so only framing can see it
        j.corrupt_byte(25);
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert!(decoded.is_empty());
        assert_eq!(report.damage, Some(TailDamage::BadFrame));
        assert_eq!(report.dropped_bytes, j.byte_len());
    }

    #[test]
    fn from_bytes_continues_the_sequence_after_truncation() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        j.tear_tail(5);
        let (mut revived, decoded, report) = Journal::from_bytes(j.bytes());
        assert!(!report.is_clean());
        assert_eq!(revived.record_count(), decoded.len() as u64);
        revived.append(&JournalRecord::IncarnationStarted {
            holder: "orch-1".into(),
            at: t(100),
        });
        let (again, report2) = Journal::replay_bytes(revived.bytes());
        assert!(
            report2.is_clean(),
            "truncate-then-append yields a clean log"
        );
        assert_eq!(again.len(), decoded.len() + 1);
    }

    #[test]
    fn empty_journal_is_clean() {
        let (recs, report) = Journal::replay_bytes(&[]);
        assert!(recs.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn group_commit_batches_records_into_fewer_writes() {
        let mut j = Journal::new();
        j.set_group_commit(3);
        let recs = sample_records();
        for r in &recs {
            j.append(r); // 8 records -> flushes after 3 and 6
        }
        assert_eq!(j.record_count(), 8);
        assert_eq!(j.durable_record_count(), 6);
        assert_eq!(j.pending_records(), 2);
        assert_eq!(j.write_count(), 2, "two batch flushes, not eight writes");
        assert!(j.flush(), "barrier drains the remainder");
        assert_eq!(j.durable_record_count(), 8);
        assert_eq!(j.write_count(), 3);
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert!(report.is_clean());
        assert_eq!(decoded, recs);
    }

    #[test]
    fn immediate_mode_writes_every_record() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r);
        }
        assert_eq!(j.write_count(), j.record_count());
        assert_eq!(j.pending_records(), 0);
    }

    #[test]
    fn crash_drops_pending_but_keeps_the_flushed_prefix() {
        let mut j = Journal::new();
        j.set_group_commit(4);
        let recs = sample_records();
        for r in &recs {
            j.append(r); // flushes after 4; 8 total -> 8 durable? 8/4=2 flushes, 0 pending
        }
        j.append(&recs[0]); // one pending record on top
        assert_eq!(j.pending_records(), 1);
        let image = j.crash_image();
        let (decoded, report) = Journal::replay_bytes(&image);
        assert!(report.is_clean(), "durable image is a clean prefix");
        assert_eq!(decoded.len(), 8, "the pending record died with the crash");
    }

    #[test]
    fn mid_flush_tear_degrades_to_a_clean_shorter_prefix() {
        let mut j = Journal::new();
        j.set_group_commit(4);
        let recs = sample_records();
        for r in &recs[..4] {
            j.append(r); // exactly one flushed batch, nothing pending
        }
        // the crash raced that flush: only 40% of the write hit the disk
        let image = j.crash_image_mid_flush(400);
        assert!(image.len() < j.byte_len());
        let (decoded, report) = Journal::replay_bytes(&image);
        assert!(!report.is_clean(), "a torn flush leaves a damaged tail");
        assert!(decoded.len() < 4);
        assert_eq!(decoded, recs[..decoded.len()].to_vec());

        // with frames pending, the tear lands inside the in-flight flush
        for r in &recs[4..6] {
            j.append(r);
        }
        let image = j.crash_image_mid_flush(500);
        let (decoded, _) = Journal::replay_bytes(&image);
        assert!(decoded.len() >= 4, "durable batch survives the torn flush");
    }

    #[test]
    fn span_events_frame_like_any_other_record() {
        use als_telemetry::{SpanOutcome, Stage};
        let mut j = Journal::new();
        let evs = [
            JournalRecord::SpanEvent {
                ev: TraceEvent::Start {
                    scan: "scan_0001".into(),
                    span: 0,
                    parent: None,
                    stage: Stage::Transfer,
                    facility: "nersc".into(),
                    at: t(10),
                },
            },
            JournalRecord::SpanEvent {
                ev: TraceEvent::End {
                    scan: "scan_0001".into(),
                    span: 0,
                    at: t(95),
                    outcome: SpanOutcome::Ok,
                },
            },
        ];
        for e in &evs {
            j.append(e);
        }
        assert_eq!(evs[0].timestamp(), Some(t(10)));
        let (decoded, report) = Journal::replay_bytes(j.bytes());
        assert!(report.is_clean());
        assert_eq!(decoded, evs);
    }

    #[test]
    fn instrumented_journal_reports_flush_batch_sizes() {
        let registry = Registry::new();
        let mut j = Journal::new();
        j.append(&sample_records()[0]); // pre-attach history
        j.instrument(&registry);
        j.set_group_commit(3);
        for r in &sample_records()[..5] {
            j.append(r); // one auto-flush of 3, then 2 pending
        }
        assert!(j.flush(), "barrier drains the remaining 2");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["orch_journal_records_total"], 6);
        // 1 back-filled immediate write + batch of 3 + barrier of 2
        assert_eq!(snap.counters["orch_journal_flushes_total"], 3);
        let h = &snap.histograms["orch_journal_flush_batch_records"];
        assert_eq!(h.count, 2, "only post-attach flushes have batch sizes");
        assert_eq!(h.min, Some(2));
        assert_eq!(h.max, Some(3));
    }

    #[test]
    fn mode_switch_flushes_pending_frames_first() {
        let mut j = Journal::new();
        j.set_group_commit(8);
        j.append(&sample_records()[0]);
        assert_eq!(j.pending_records(), 1);
        j.set_group_commit(0);
        assert_eq!(j.pending_records(), 0);
        assert_eq!(j.durable_record_count(), 1);
    }
}
