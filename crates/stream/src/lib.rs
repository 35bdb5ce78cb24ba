//! # als-stream
//!
//! The streaming branch of the paper's infrastructure, implemented with
//! real threads and channels (not the discrete-event model):
//!
//! * [`slab`] — Arc-backed slab buffers: frames are written once into a
//!   pooled buffer and shared zero-copy by every consumer;
//! * [`channel`] — a PVA-style pub/sub channel: one publisher (the
//!   detector IOC), many monitor subscribers with bounded queues, lossy
//!   or reliable (backpressuring) delivery, and exact drop accounting;
//! * `service` — the one service thread the next three run on, and the
//!   one scan-consumer loop (the scan-boundary rule) the last two share;
//! * [`mirror`] — the channel mirror server that republishes the
//!   detector stream for the file writer *and* the optional remote
//!   streaming service (§4.2.1);
//! * [`filewriter`] — the file-writing systemd-service substitute: it
//!   validates each frame's metadata and appends pixels straight into
//!   the scan container's projection stack as they arrive;
//! * [`streamer`] — the NERSC streaming reconstruction service: preps,
//!   filters and backprojects every frame as it arrives through a plan
//!   from a shared cache, so scan end leaves only the hand-off, and
//!   sends a three-slice preview back over a bounded ZeroMQ-style reply
//!   channel — the paper's sub-10-second feedback path;
//! * [`multiplex`] — N concurrent detector streams sharing one plan
//!   cache and one telemetry registry.

pub mod channel;
pub mod filewriter;
pub mod mirror;
pub mod multiplex;
mod service;
pub mod slab;
pub mod streamer;

pub use channel::{DeliveryMode, PvaServer, StreamMessage, Subscription};
pub use filewriter::{FileWriterConfig, FileWriterHandle, FileWriterService};
pub use mirror::ChannelMirror;
pub use multiplex::{StreamHub, StreamLane};
pub use slab::{deep_copy_count, FrameSlab, SlabFrame, SlabPool};
pub use streamer::{
    IncrementalScan, PlanCache, Preview, PreviewChannel, StreamerConfig, StreamingReconService,
};

use als_phantom::ScanSimulator;
use std::sync::Arc;

/// Announcement published at the start of a scan: everything downstream
/// services need to interpret the frames that follow.
#[derive(Debug, Clone)]
pub struct ScanAnnounce {
    pub scan_id: String,
    pub n_angles: usize,
    pub rows: usize,
    pub cols: usize,
    pub angles: Vec<f64>,
    pub dark: Vec<u16>,
    pub flat: Vec<u16>,
    /// Detector μ scaling, needed to invert counts to line integrals.
    pub mu_scale: f64,
}

impl ScanAnnounce {
    /// Check the announcement against itself before anything is sized
    /// from it: it arrives over the wire, and a consumer that trusted a
    /// contradictory one would panic or over-allocate on its own thread.
    pub fn validate(&self) -> Result<(), String> {
        let frame_len = self
            .rows
            .checked_mul(self.cols)
            .filter(|&len| len > 0)
            .ok_or_else(|| format!("frame shape {}x{}", self.rows, self.cols))?;
        if self.n_angles == 0 || self.n_angles.checked_mul(frame_len).is_none() {
            return Err(format!("{} angles of {frame_len} pixels", self.n_angles));
        }
        if self.angles.len() != self.n_angles {
            return Err(format!(
                "{} angle values for {} announced angles",
                self.angles.len(),
                self.n_angles
            ));
        }
        if self.dark.len() != frame_len || self.flat.len() != frame_len {
            return Err(format!(
                "dark/flat of {}/{} pixels for frames of {frame_len}",
                self.dark.len(),
                self.flat.len()
            ));
        }
        if !(self.mu_scale.is_finite() && self.mu_scale > 0.0) {
            return Err(format!("mu_scale {}", self.mu_scale));
        }
        if let Some(bad) = self.angles.iter().find(|a| !a.is_finite()) {
            return Err(format!("projection angle {bad}"));
        }
        Ok(())
    }

    /// Whether `frame` is well formed and has the announced shape: the
    /// check every consumer makes before it touches a frame's pixels.
    pub(crate) fn fits(&self, frame: &FrameSlab) -> bool {
        let m = &frame.meta;
        let shape = (m.rows, m.cols, frame.data().len());
        m.validate().is_ok() && shape == (self.rows, self.cols, self.rows * self.cols)
    }
}

/// Build the start-of-scan announcement for a simulator acquisition.
pub fn announce_for(sim: &ScanSimulator, scan_id: &str, mu_scale: f64) -> ScanAnnounce {
    ScanAnnounce {
        scan_id: scan_id.to_string(),
        n_angles: sim.n_frames(),
        rows: sim.rows(),
        cols: sim.cols(),
        angles: sim.geometry().angles.clone(),
        dark: sim.dark_field().to_vec(),
        flat: sim.flat_field().to_vec(),
        mu_scale,
    }
}

/// Drive a [`ScanSimulator`] through a PVA server: Start, every frame in
/// order, End. This is the detector IOC's role. Frames are rendered
/// directly into slabs leased from a pool scoped to this scan.
pub fn publish_scan(
    server: &PvaServer,
    sim: &mut ScanSimulator,
    scan_id: &str,
    mu_scale: f64,
) -> usize {
    let pool = SlabPool::new(sim.rows() * sim.cols());
    publish_scan_pooled(server, sim, scan_id, mu_scale, &pool)
}

/// [`publish_scan`] with a caller-owned slab pool, so back-to-back scans
/// (and benches asserting on allocation counts) reuse the same buffers.
pub fn publish_scan_pooled(
    server: &PvaServer,
    sim: &mut ScanSimulator,
    scan_id: &str,
    mu_scale: f64,
    pool: &SlabPool,
) -> usize {
    assert_eq!(
        pool.slab_len(),
        sim.rows() * sim.cols(),
        "pool slabs must match the detector shape"
    );
    let announce = announce_for(sim, scan_id, mu_scale);
    server.publish(StreamMessage::ScanStart(Arc::new(announce)));
    let n = sim.n_frames();
    for a in 0..n {
        // render straight into the pooled slab: the one and only write of
        // this frame's pixels anywhere in the pipeline
        let frame = pool.frame_from(|buf| sim.fill_frame(a, buf));
        server.publish(StreamMessage::Frame(frame));
    }
    server.publish(StreamMessage::ScanEnd {
        scan_id: Arc::from(scan_id),
    });
    n
}
