//! The in-process "wire" of the RIC plane: a bounded MPSC queue.
//!
//! This stands in for the paper's ZeroMQ/Kafka/SCTP transport choice. It
//! carries whatever the chosen [`CommCodec`](crate::comm::CommCodec)
//! produced — the multi-cell plane ([`crate::bus`]) builds its shared
//! indication bus and every per-cell action mailbox on it. The depth is
//! always bounded; the overflow policy is chosen per send call:
//! **drop-oldest** ([`QueueSender::send`], with depth/drop accounting in
//! [`QueueDepthStats`]) so a stalled or slow RIC costs stale frames, never
//! node memory, or blocking ([`QueueSender::send_wait`]) for the
//! deterministic delivery mode where no frame may be lost.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use waran_host::QueueDepthStats;

struct QueueState<T> {
    items: VecDeque<T>,
    senders: usize,
    rx_alive: bool,
    enqueued: u64,
    dropped: u64,
    max_depth: u64,
}

struct QueueShared<T> {
    /// At most this many queued items.
    cap: usize,
    state: Mutex<QueueState<T>>,
    recv_cv: Condvar,
    send_cv: Condvar,
}

impl<T> QueueShared<T> {
    fn stats(&self) -> QueueDepthStats {
        let s = self.state.lock().expect("queue lock never poisoned");
        QueueDepthStats {
            enqueued: s.enqueued,
            dropped: s.dropped,
            max_depth: s.max_depth,
        }
    }

    fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock never poisoned")
            .items
            .len()
    }
}

/// What happened to a lossy send.
#[derive(Debug, PartialEq, Eq)]
pub enum SendOutcome<T> {
    /// Queued without displacing anything.
    Queued,
    /// Queued; the queue was full, so its oldest item was dropped and is
    /// returned (so the caller can attribute the loss).
    Displaced(T),
    /// The receiver is gone; the item is returned undelivered.
    Disconnected(T),
}

/// What a receive produced.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvOutcome<T> {
    /// One item.
    Msg(T),
    /// Nothing available (yet).
    Empty,
    /// Nothing available and every sender is gone.
    Disconnected,
}

/// Sending half of a [`queue`]. Cloneable: the RIC bus hands one to every
/// cell agent.
pub struct QueueSender<T>(Arc<QueueShared<T>>);

/// Receiving half of a [`queue`] (single consumer).
pub struct QueueReceiver<T>(Arc<QueueShared<T>>);

/// An MPSC queue holding at most `capacity.max(1)` items, with the
/// overflow policy chosen per send call (lossy drop-oldest or blocking).
pub fn queue<T>(capacity: usize) -> (QueueSender<T>, QueueReceiver<T>) {
    let shared = Arc::new(QueueShared {
        cap: capacity.max(1),
        state: Mutex::new(QueueState {
            items: VecDeque::new(),
            senders: 1,
            rx_alive: true,
            enqueued: 0,
            dropped: 0,
            max_depth: 0,
        }),
        recv_cv: Condvar::new(),
        send_cv: Condvar::new(),
    });
    (QueueSender(shared.clone()), QueueReceiver(shared))
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.0
            .state
            .lock()
            .expect("queue lock never poisoned")
            .senders += 1;
        QueueSender(self.0.clone())
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock().expect("queue lock never poisoned");
        s.senders -= 1;
        if s.senders == 0 {
            drop(s);
            self.0.recv_cv.notify_all();
        }
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        self.0
            .state
            .lock()
            .expect("queue lock never poisoned")
            .rx_alive = false;
        self.0.send_cv.notify_all();
    }
}

impl<T> QueueSender<T> {
    /// Lossy send: never blocks. On a full queue the **oldest** item is
    /// displaced (and returned) — the freshest control state wins, and a
    /// stalled receiver costs stale frames instead of memory.
    pub fn send(&self, item: T) -> SendOutcome<T> {
        let mut s = self.0.state.lock().expect("queue lock never poisoned");
        if !s.rx_alive {
            return SendOutcome::Disconnected(item);
        }
        let displaced = if s.items.len() >= self.0.cap {
            s.dropped += 1;
            s.items.pop_front()
        } else {
            None
        };
        s.items.push_back(item);
        s.enqueued += 1;
        s.max_depth = s.max_depth.max(s.items.len() as u64);
        drop(s);
        self.0.recv_cv.notify_one();
        match displaced {
            Some(v) => SendOutcome::Displaced(v),
            None => SendOutcome::Queued,
        }
    }

    /// Blocking send: waits for space instead of displacing (the
    /// deterministic delivery mode, where no frame may be lost). Returns
    /// the item if the receiver disappears.
    pub fn send_wait(&self, item: T) -> Result<(), T> {
        let mut s = self.0.state.lock().expect("queue lock never poisoned");
        loop {
            if !s.rx_alive {
                return Err(item);
            }
            if s.items.len() < self.0.cap {
                s.items.push_back(item);
                s.enqueued += 1;
                s.max_depth = s.max_depth.max(s.items.len() as u64);
                drop(s);
                self.0.recv_cv.notify_one();
                return Ok(());
            }
            s = self.0.send_cv.wait(s).expect("queue lock never poisoned");
        }
    }

    /// Depth/drop accounting for this queue.
    pub fn stats(&self) -> QueueDepthStats {
        self.0.stats()
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.0.depth()
    }
}

impl<T> QueueReceiver<T> {
    /// Receive one item if available.
    pub fn try_recv(&self) -> RecvOutcome<T> {
        let mut s = self.0.state.lock().expect("queue lock never poisoned");
        match s.items.pop_front() {
            Some(item) => {
                drop(s);
                self.0.send_cv.notify_one();
                RecvOutcome::Msg(item)
            }
            None if s.senders == 0 => RecvOutcome::Disconnected,
            None => RecvOutcome::Empty,
        }
    }

    /// Receive one item, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvOutcome<T> {
        let deadline = Instant::now() + timeout;
        let mut s = self.0.state.lock().expect("queue lock never poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.0.send_cv.notify_one();
                return RecvOutcome::Msg(item);
            }
            if s.senders == 0 {
                return RecvOutcome::Disconnected;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvOutcome::Empty;
            }
            let (ns, _) = self
                .0
                .recv_cv
                .wait_timeout(s, deadline - now)
                .expect("queue lock never poisoned");
            s = ns;
        }
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let RecvOutcome::Msg(item) = self.try_recv() {
            out.push(item);
        }
        out
    }

    /// Depth/drop accounting for this queue.
    pub fn stats(&self) -> QueueDepthStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_send_drops_oldest_and_counts() {
        let (tx, rx) = queue::<u32>(2);
        assert_eq!(tx.send(1), SendOutcome::Queued);
        assert_eq!(tx.send(2), SendOutcome::Queued);
        assert_eq!(tx.send(3), SendOutcome::Displaced(1));
        assert_eq!(tx.depth(), 2);
        assert_eq!(rx.drain(), vec![2, 3]);
        assert_eq!(rx.try_recv(), RecvOutcome::Empty);
        let stats = tx.stats();
        assert_eq!(stats.enqueued, 3);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.max_depth, 2);
        // A vanished receiver hands the item back instead of queueing it.
        drop(rx);
        assert_eq!(tx.send(4), SendOutcome::Disconnected(4));
    }

    #[test]
    fn queue_blocking_send_respects_capacity() {
        let (tx, rx) = queue::<u32>(1);
        tx.send_wait(1).unwrap();
        let t = std::thread::spawn(move || tx.send_wait(2).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), RecvOutcome::Msg(1));
        assert!(t.join().unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), RecvOutcome::Msg(2));
        // All senders gone: the receiver observes disconnection.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvOutcome::Disconnected
        );
    }

    #[test]
    fn dropped_receiver_unblocks_senders() {
        let (tx, rx) = queue::<u32>(1);
        assert!(tx.send_wait(1).is_ok());
        let t = std::thread::spawn(move || tx.send_wait(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(2));
    }
}
