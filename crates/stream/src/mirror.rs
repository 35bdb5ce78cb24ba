//! The PVA channel mirror server (§4.2.1).
//!
//! The beamline's local storage server runs a mirror that subscribes to
//! the detector IOC's channel and republishes every update on its own
//! server, decoupling the IOC from downstream consumers (the file writer
//! and the optional NERSC streaming service). The mirror runs on the
//! shared service thread and forwards until the upstream goes quiet or
//! it is stopped.

use crate::channel::{PvaServer, Subscription};
use crate::service::ServiceThread;
use als_telemetry::Counter;
use std::sync::Arc;
use std::time::Duration;

/// A running channel mirror; dropping it stops and joins its thread.
pub struct ChannelMirror {
    _thread: ServiceThread,
    output: Arc<PvaServer>,
    forwarded: Counter,
}

impl ChannelMirror {
    /// Spawn a mirror forwarding from `upstream` onto a new output server.
    /// `idle_timeout` bounds how long the mirror waits for the next
    /// upstream update before checking its stop flag again.
    pub fn spawn(upstream: Subscription, idle_timeout: Duration) -> ChannelMirror {
        Self::spawn_onto(upstream, PvaServer::new(), idle_timeout)
    }

    /// Spawn a mirror republishing onto a caller-built output server —
    /// e.g. one created with [`PvaServer::with_registry`] so the mirrored
    /// channel's fanout metrics export under its own channel label.
    pub fn spawn_onto(
        upstream: Subscription,
        output: Arc<PvaServer>,
        idle_timeout: Duration,
    ) -> ChannelMirror {
        let forwarded = Counter::default();
        let (out2, fwd2) = (Arc::clone(&output), forwarded.clone());
        let thread = ServiceThread::spawn(upstream, idle_timeout, move |msg| {
            out2.publish(msg);
            fwd2.inc();
        });
        ChannelMirror {
            _thread: thread,
            output,
            forwarded,
        }
    }

    /// The republished channel downstream services subscribe to.
    pub fn output(&self) -> &Arc<PvaServer> {
        &self.output
    }

    /// Updates forwarded so far.
    pub fn forwarded_count(&self) -> u64 {
        self.forwarded.get()
    }

    /// Stop the mirror and join its thread (what dropping it does).
    pub fn stop(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::StreamMessage;
    use crate::slab::FrameSlab;
    use als_phantom::FrameMeta;

    fn frame(id: usize) -> StreamMessage {
        StreamMessage::Frame(FrameSlab::detached(
            FrameMeta {
                frame_id: id,
                angle_rad: 0.1,
                n_angles: 64,
                rows: 2,
                cols: 2,
            },
            vec![7; 4],
        ))
    }

    #[test]
    fn mirror_republishes_everything_in_order() {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(ioc.subscribe(256), Duration::from_millis(10));
        let downstream = mirror.output().subscribe(256);
        for i in 0..50 {
            ioc.publish(frame(i));
        }
        // wait for forwarding to finish
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while mirror.forwarded_count() < 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(mirror.forwarded_count(), 50);
        for i in 0..50 {
            match downstream.recv_timeout(Duration::from_millis(200)).unwrap() {
                StreamMessage::Frame(f) => assert_eq!(f.meta.frame_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        mirror.stop();
    }

    #[test]
    fn mirror_fans_out_to_multiple_consumers() {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(ioc.subscribe(64), Duration::from_millis(10));
        let file_writer = mirror.output().subscribe(64);
        let streaming_svc = mirror.output().subscribe(64);
        ioc.publish(frame(0));
        let a = file_writer.recv_timeout(Duration::from_secs(1));
        let b = streaming_svc.recv_timeout(Duration::from_secs(1));
        assert!(a.is_ok() && b.is_ok());
        mirror.stop();
    }

    #[test]
    fn mirror_forwards_the_same_slab_zero_copy() {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(ioc.subscribe(8), Duration::from_millis(10));
        let downstream = mirror.output().subscribe(8);
        let original = FrameSlab::detached(
            FrameMeta {
                frame_id: 0,
                angle_rad: 0.1,
                n_angles: 64,
                rows: 2,
                cols: 2,
            },
            vec![7; 4],
        );
        ioc.publish(StreamMessage::Frame(Arc::clone(&original)));
        match downstream.recv_timeout(Duration::from_secs(1)).unwrap() {
            StreamMessage::Frame(f) => assert!(
                Arc::ptr_eq(&f, &original),
                "the mirror must forward the very same slab"
            ),
            other => panic!("unexpected {other:?}"),
        }
        mirror.stop();
    }

    #[test]
    fn stop_terminates_the_thread() {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(ioc.subscribe(8), Duration::from_millis(5));
        mirror.stop(); // must not hang
    }

    #[test]
    fn mirror_survives_upstream_disconnect() {
        let ioc = PvaServer::new();
        let sub = ioc.subscribe(8);
        drop(ioc); // upstream gone
        let mirror = ChannelMirror::spawn(sub, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        mirror.stop(); // thread exited on disconnect; stop still clean
    }
}
