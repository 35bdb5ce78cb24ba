//! PVA-style pub/sub channel with zero-copy handoff.
//!
//! One publisher, many monitor subscribers. Every message variant is a
//! cheap handle — frames are [`SlabFrame`]s, announcements and scan ids
//! are `Arc`s — so fanning a frame out to N subscribers bumps refcounts
//! and never copies pixels.
//!
//! Each subscriber owns a bounded queue and a [`DeliveryMode`]:
//!
//! * [`DeliveryMode::Lossy`] — PVA monitor semantics: when the queue is
//!   full the update is dropped *for that subscriber only* and counted.
//! * [`DeliveryMode::Reliable`] — must-deliver consumers (the file
//!   writer): the publisher blocks up to the channel's reliable-wait
//!   budget, propagating backpressure to the source; a frame abandoned
//!   after the budget is still counted, never silently lost.
//!
//! Per-subscriber drop counters and queue-depth gauges export through an
//! optional `als-telemetry` registry; without one the counters are
//! detached, on the same code path, and no queue depth is read.

use crate::slab::SlabFrame;
use crate::ScanAnnounce;
use als_telemetry::{Counter, Gauge, Registry};
use crossbeam::channel::{
    bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Messages carried by the channel. `Clone` is refcount-only on every
/// variant: cloning a message never copies pixel data.
#[derive(Debug, Clone)]
pub enum StreamMessage {
    /// A scan is starting; payload describes the acquisition.
    ScanStart(Arc<ScanAnnounce>),
    /// One detector frame, backed by a pooled slab.
    Frame(SlabFrame),
    /// The acquisition finished.
    ScanEnd { scan_id: Arc<str> },
}

/// How the publisher treats a subscriber whose queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Drop the update for this subscriber and count it (PVA monitors).
    Lossy,
    /// Block the publisher up to the reliable-wait budget — backpressure
    /// into the source — before counting a drop.
    Reliable,
}

struct SubEntry {
    tx: Sender<StreamMessage>,
    mode: DeliveryMode,
    /// This subscriber's drops, as its [`Subscription`] reads them.
    dropped: Counter,
    dropped_metric: Counter,
    /// Read only for a registry: it locks the subscriber's queue.
    depth_metric: Option<Gauge>,
}

/// The publisher side.
pub struct PvaServer {
    subs: Mutex<Vec<SubEntry>>,
    published: Counter,
    dropped: Counter,
    /// How long a publish may stall on one Reliable subscriber before the
    /// frame is abandoned (and counted) for it.
    reliable_wait: Duration,
    telemetry: Option<(Arc<Registry>, String)>,
    published_metric: Counter,
}

impl std::fmt::Debug for PvaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PvaServer")
            .field("subscribers", &self.subs.lock().len())
            .field("published", &self.published_count())
            .field("dropped", &self.dropped_count())
            .finish()
    }
}

impl Default for PvaServer {
    fn default() -> Self {
        PvaServer {
            subs: Mutex::new(Vec::new()),
            published: Counter::default(),
            dropped: Counter::default(),
            reliable_wait: Duration::from_secs(30),
            telemetry: None,
            published_metric: Counter::default(),
        }
    }
}

impl PvaServer {
    pub fn new() -> Arc<PvaServer> {
        Arc::new(PvaServer::default())
    }

    /// A server whose publish/drop/occupancy counters export through
    /// `registry` under the `channel` label.
    pub fn with_registry(channel: &str, registry: Arc<Registry>) -> Arc<PvaServer> {
        let published_metric =
            registry.counter("stream_frames_published_total", &[("channel", channel)]);
        Arc::new(PvaServer {
            telemetry: Some((registry, channel.to_string())),
            published_metric,
            ..PvaServer::default()
        })
    }

    /// Override the backpressure budget for Reliable subscribers.
    pub fn set_reliable_wait(self: &mut Arc<PvaServer>, wait: Duration) {
        Arc::get_mut(self)
            .expect("set_reliable_wait before sharing the server")
            .reliable_wait = wait;
    }

    /// Attach an anonymous lossy monitor with a queue of `capacity`
    /// updates (PVA monitor semantics, the historical default).
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        self.subscribe_named("monitor", capacity, DeliveryMode::Lossy)
    }

    /// Attach a named subscriber with an explicit delivery mode. The name
    /// labels this subscriber's drop counter and queue-depth gauge.
    pub fn subscribe_named(&self, name: &str, capacity: usize, mode: DeliveryMode) -> Subscription {
        let (tx, rx) = bounded(capacity.max(1));
        let dropped = Counter::default();
        let (dropped_metric, depth_metric) = match &self.telemetry {
            Some((registry, channel)) => {
                let l = &[("channel", channel.as_str()), ("subscriber", name)];
                (
                    registry.counter("stream_frames_dropped_total", l),
                    Some(registry.gauge("stream_queue_depth", l)),
                )
            }
            None => Default::default(),
        };
        self.subs.lock().push(SubEntry {
            tx,
            mode,
            dropped: dropped.clone(),
            dropped_metric,
            depth_metric,
        });
        Subscription { rx, dropped }
    }

    /// Publish to every live subscriber. Lossy subscribers behind on
    /// their queue drop this update (counted per subscriber); Reliable
    /// subscribers stall the publisher — backpressure — up to the
    /// reliable-wait budget. Disconnected subscribers are pruned.
    pub fn publish(&self, msg: StreamMessage) {
        self.published.inc();
        self.published_metric.inc();
        self.subs.lock().retain(|entry| {
            // a disconnected subscriber is pruned
            let sent = match entry.mode {
                DeliveryMode::Lossy => match entry.tx.try_send(msg.clone()) {
                    Err(TrySendError::Disconnected(_)) => return false,
                    sent => sent.is_ok(),
                },
                DeliveryMode::Reliable => {
                    match entry.tx.send_timeout(msg.clone(), self.reliable_wait) {
                        Err(SendTimeoutError::Disconnected(_)) => return false,
                        sent => sent.is_ok(),
                    }
                }
            };
            if !sent {
                entry.dropped.inc();
                entry.dropped_metric.inc();
                self.dropped.inc();
            }
            if let Some(g) = &entry.depth_metric {
                g.set(entry.tx.len() as i64);
            }
            true
        });
    }

    /// Updates published so far.
    pub fn published_count(&self) -> u64 {
        self.published.get()
    }

    /// Updates dropped across all subscribers.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.get()
    }

    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().len()
    }
}

/// The monitor side.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<StreamMessage>,
    dropped: Counter,
}

impl Subscription {
    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<StreamMessage, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<StreamMessage> {
        self.rx.try_recv().ok()
    }

    pub fn len(&self) -> usize {
        self.rx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Updates the publisher dropped for this subscriber because its
    /// queue was full (exact: published = received + queued + dropped).
    pub fn dropped_count(&self) -> u64 {
        self.dropped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::FrameSlab;
    use als_phantom::FrameMeta;

    fn frame(id: usize) -> StreamMessage {
        StreamMessage::Frame(FrameSlab::detached(
            FrameMeta {
                frame_id: id,
                angle_rad: 0.0,
                n_angles: 100,
                rows: 2,
                cols: 2,
            },
            vec![0; 4],
        ))
    }

    #[test]
    fn messages_arrive_in_order() {
        let server = PvaServer::new();
        let sub = server.subscribe(16);
        for i in 0..10 {
            server.publish(frame(i));
        }
        for i in 0..10 {
            match sub.try_recv().unwrap() {
                StreamMessage::Frame(f) => assert_eq!(f.meta.frame_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn every_subscriber_shares_the_same_slab() {
        let server = PvaServer::new();
        let a = server.subscribe(8);
        let b = server.subscribe(8);
        server.publish(frame(0));
        let fa = match a.try_recv().unwrap() {
            StreamMessage::Frame(f) => f,
            other => panic!("unexpected {other:?}"),
        };
        let fb = match b.try_recv().unwrap() {
            StreamMessage::Frame(f) => f,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&fa, &fb),
            "fanout must hand every subscriber the same buffer"
        );
        assert_eq!(server.subscriber_count(), 2);
    }

    #[test]
    fn slow_subscriber_drops_but_does_not_block() {
        let server = PvaServer::new();
        let slow = server.subscribe(2);
        let fast = server.subscribe(100);
        for i in 0..10 {
            server.publish(frame(i));
        }
        // slow kept only the first two, fast all ten
        assert_eq!(slow.len(), 2);
        assert_eq!(fast.len(), 10);
        assert_eq!(slow.dropped_count(), 8);
        assert_eq!(fast.dropped_count(), 0);
        assert_eq!(server.dropped_count(), 8);
        assert_eq!(server.published_count(), 10);
    }

    #[test]
    fn reliable_subscriber_backpressures_the_publisher() {
        let mut server = PvaServer::new();
        server.set_reliable_wait(Duration::from_secs(10));
        let sub = server.subscribe_named("filewriter", 2, DeliveryMode::Reliable);
        let s2 = Arc::clone(&server);
        let publisher = std::thread::spawn(move || {
            for i in 0..8 {
                s2.publish(frame(i));
            }
        });
        // drain slowly: the publisher must wait, not drop
        let mut got = 0;
        while got < 8 {
            if let Ok(StreamMessage::Frame(f)) = sub.recv_timeout(Duration::from_secs(5)) {
                assert_eq!(f.meta.frame_id, got);
                got += 1;
            }
        }
        publisher.join().unwrap();
        assert_eq!(sub.dropped_count(), 0, "reliable consumer loses nothing");
        assert_eq!(server.dropped_count(), 0);
    }

    #[test]
    fn reliable_drop_after_budget_is_counted() {
        let mut server = PvaServer::new();
        server.set_reliable_wait(Duration::from_millis(10));
        let sub = server.subscribe_named("stuck", 1, DeliveryMode::Reliable);
        server.publish(frame(0));
        server.publish(frame(1)); // nobody drains: abandoned after 10 ms
        assert_eq!(sub.dropped_count(), 1);
        assert_eq!(server.dropped_count(), 1);
        assert_eq!(sub.len(), 1);
    }

    #[test]
    fn disconnected_subscribers_are_pruned() {
        let server = PvaServer::new();
        let sub = server.subscribe(4);
        drop(sub);
        server.publish(frame(0));
        assert_eq!(server.subscriber_count(), 0);
    }

    #[test]
    fn recv_timeout_expires_on_silence() {
        let server = PvaServer::new();
        let sub = server.subscribe(4);
        let r = sub.recv_timeout(Duration::from_millis(20));
        assert!(r.is_err());
    }

    #[test]
    fn publish_from_thread_reaches_subscriber() {
        let server = PvaServer::new();
        let sub = server.subscribe(64);
        let s2 = Arc::clone(&server);
        let h = std::thread::spawn(move || {
            for i in 0..32 {
                s2.publish(frame(i));
            }
        });
        h.join().unwrap();
        let mut got = 0;
        while sub.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 32);
    }

    #[test]
    fn registry_sees_publishes_drops_and_depth() {
        let registry = Arc::new(Registry::new());
        let server = PvaServer::with_registry("ioc0", Arc::clone(&registry));
        let _slow = server.subscribe_named("preview", 2, DeliveryMode::Lossy);
        for i in 0..5 {
            server.publish(frame(i));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["stream_frames_published_total{channel=\"ioc0\"}"],
            5
        );
        assert_eq!(
            snap.counters["stream_frames_dropped_total{channel=\"ioc0\",subscriber=\"preview\"}"],
            3
        );
        assert_eq!(
            snap.gauges["stream_queue_depth{channel=\"ioc0\",subscriber=\"preview\"}"],
            2
        );
    }
}
