//! The one service thread the mirror, the file writer and the streaming
//! service run on, and the one scan-consumer loop the last two share:
//! the scan-boundary rule lives here and nowhere else, so both
//! consumers refuse, abandon and count alike. A consumer supplies only
//! how it opens, feeds and finishes its own [`ScanConsumer`].

use crate::channel::{StreamMessage, Subscription};
use crate::slab::FrameSlab;
use crate::ScanAnnounce;
use als_telemetry::Counter;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a scan consumer waits for a message between stop-flag checks.
const SCAN_POLL: Duration = Duration::from_millis(20);

/// A running service thread; dropping the handle stops and joins it.
pub(crate) struct ServiceThread {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ServiceThread {
    /// Hand every message of `sub` to `on_msg` on a new thread, checking
    /// the stop flag at least every `poll`.
    pub(crate) fn spawn(
        sub: Subscription,
        poll: Duration,
        mut on_msg: impl FnMut(StreamMessage) + Send + 'static,
    ) -> ServiceThread {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match sub.recv_timeout(poll) {
                    Ok(msg) => on_msg(msg),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        ServiceThread {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ServiceThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One scan as a consumer assembles it; [`spawn_scan_consumer`] decides
/// when each method runs.
pub(crate) trait ScanConsumer: Sized + Send + 'static {
    /// What every scan of one service is opened and finished with.
    type Ctx: Send + 'static;
    /// What a finished scan sends back on the reply queue.
    type Product: Send + 'static;
    /// Start the announced scan, or refuse the announcement.
    fn open(announce: Arc<ScanAnnounce>, ctx: &Self::Ctx) -> Result<Self, String>;
    /// Take one frame, or refuse it (`false`) and count it for the product.
    fn ingest(&mut self, frame: &FrameSlab) -> bool;
    /// Frames taken so far.
    fn received(&self) -> usize;
    /// The product of a scan that took a frame; `None` if it cannot be made.
    fn finish(self, ctx: &Self::Ctx) -> Option<Self::Product>;
}

/// What the scan-boundary rule counts, under each service's own metric
/// names (detached where it exports none).
pub(crate) struct BoundaryCounters {
    pub ingested: Counter,
    pub rejected: Counter,
    pub scans_rejected: Counter,
    pub scans_abandoned: Counter,
    pub dropped: Counter,
}

/// A scan consumer's products. `rejected` (frames) and `dropped`
/// (products) count for it alone; registry counters are shared per label.
pub(crate) struct Replies<P> {
    pub rx: Receiver<P>,
    pub rejected: Counter,
    pub dropped: Counter,
}

/// Run the scan-boundary rule over `sub` for consumer `S`, sending its
/// products back on a queue bounded at `reply_queue`.
pub(crate) fn spawn_scan_consumer<S: ScanConsumer>(
    sub: Subscription,
    ctx: S::Ctx,
    reply_queue: usize,
    m: BoundaryCounters,
) -> (ServiceThread, Replies<S::Product>) {
    let (tx, rx) = bounded(reply_queue.max(1));
    let (rejected, dropped) = (Counter::default(), Counter::default());
    let (rejected2, dropped2) = (rejected.clone(), dropped.clone());
    // the open scan and the announcement its end must name
    let mut open: Option<(Arc<ScanAnnounce>, S)> = None;
    let thread = ServiceThread::spawn(sub, SCAN_POLL, move |msg| match msg {
        StreamMessage::ScanStart(announce) => {
            if open.take().is_some() {
                // the open scan's end was lost: it yields nothing
                m.scans_abandoned.inc();
            }
            match S::open(Arc::clone(&announce), &ctx) {
                Ok(scan) => open = Some((announce, scan)),
                Err(_) => m.scans_rejected.inc(),
            }
        }
        StreamMessage::Frame(frame) => {
            // refused by the open scan, or no scan open to belong to
            if open.as_mut().is_some_and(|(_, scan)| scan.ingest(&frame)) {
                m.ingested.inc();
            } else {
                m.rejected.inc();
                rejected2.inc();
            }
            // `frame` drops here: the slab returns to its pool mid-scan
        }
        StreamMessage::ScanEnd { scan_id } => match open.take() {
            // the end of another scan: this one's end and the next one's
            // start were lost in transit, so its frames may be of either
            Some((a, _)) if a.scan_id != *scan_id => m.scans_abandoned.inc(),
            Some((_, scan)) if scan.received() > 0 => {
                let product = scan.finish(&ctx);
                if product.is_some_and(|p| tx.try_send(p).is_err()) {
                    m.dropped.inc();
                    dropped2.inc();
                }
            }
            // an empty scan, or nothing open: no product
            _ => {}
        },
    });
    let replies = Replies {
        rx,
        rejected,
        dropped,
    };
    (thread, replies)
}
