//! The channel a host's events and a client's lifecycle events travel
//! through: one mutex-guarded, unbounded queue with a condition variable,
//! any number of [`Sender`]s and one [`Receiver`]. A side learns that the
//! other is gone — the last sender dropped, or the receiver — instead of
//! waiting for it, and messages queued before the senders went stay
//! receivable.
//!
//! It is what `std::sync::mpsc` is, plus what the transport needs of it:
//! its mutex on the crate's lock ranking (`lock.rs`), and
//! [`RecvTimeoutError::is_timeout`]. A poll thread holds only senders.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use crate::lock::LeafLock;
use crate::tcp::deadline;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: LeafLock<State<T>>,
    not_empty: Condvar,
}

/// Sending half; clones feed the same queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A queue without a capacity limit: sends never wait.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: LeafLock::new(State { queue: VecDeque::new(), senders: 1, receiver_alive: true }),
        not_empty: Condvar::new(),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

/// The receiver is gone; the message comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a `try_recv` returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// The senders are gone and the queue is empty.
    Disconnected,
}

/// Why a `recv_timeout` returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The senders are gone and the queue is empty.
    Disconnected,
}

impl RecvTimeoutError {
    /// Whether the wait ran out with the queue still connected.
    pub fn is_timeout(&self) -> bool {
        matches!(self, RecvTimeoutError::Timeout)
    }
}

impl<T> Sender<T> {
    /// Enqueues `msg`; never waits.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.held();
        if !state.receiver_alive {
            return Err(SendError(msg));
        }
        state.queue.push_back(msg);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, waiting until `deadline` (`None`: not at
    /// all) for one.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.state.held();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.and_then(|d| d.checked_duration_since(Instant::now()));
            match left.filter(|d| !d.is_zero()) {
                Some(left) => state = state.wait_timeout(&self.shared.not_empty, left),
                None => return Err(RecvTimeoutError::Timeout),
            }
        }
    }

    /// Dequeues the next message if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.recv_until(None).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Dequeues the next message, waiting at most `timeout` for one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(deadline(Instant::now(), timeout)))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.held().senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.held();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state.held().receiver_alive = false;
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn two_senders_share_one_fifo() {
        let (a, rx) = unbounded();
        let b = a.clone();
        a.send((0, 1)).unwrap();
        b.send((1, 2)).unwrap();
        a.send((0, 3)).unwrap();
        assert_eq!(
            [rx.try_recv(), rx.try_recv(), rx.try_recv()],
            [Ok((0, 1)), Ok((1, 2)), Ok((0, 3))]
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // Across threads each sender's own order survives.
        let threads = [a, b].into_iter().enumerate().map(|(who, tx)| {
            std::thread::spawn(move || (0..500).for_each(|i| tx.send((who, i)).unwrap()))
        });
        let threads: Vec<_> = threads.collect();
        let mut next = [0, 0];
        while let Ok((who, i)) = rx.recv_timeout(LONG) {
            assert_eq!(i, next[who], "sender {who} reordered");
            next[who] += 1;
        }
        assert_eq!(next, [500, 500]);
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn an_expired_wait_says_timeout_not_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        let err = rx.recv_timeout(SHORT).unwrap_err();
        assert!(err.is_timeout() && err == RecvTimeoutError::Timeout);
        drop(tx);
        let err = rx.recv_timeout(LONG).unwrap_err();
        assert!(!err.is_timeout() && err == RecvTimeoutError::Disconnected);
    }

    #[test]
    fn a_wait_of_duration_max_takes_what_is_queued() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1));
    }

    #[test]
    fn dropping_the_last_sender_wakes_and_disconnects_the_receiver() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(7u8).unwrap();
        let parked = std::thread::spawn(move || {
            [rx.recv_timeout(LONG), rx.recv_timeout(LONG), rx.recv_timeout(LONG)]
        });
        drop(tx);
        tx2.send(8).unwrap();
        drop(tx2);
        // What was queued before the senders went is still delivered.
        assert_eq!(parked.join().unwrap(), [Ok(7), Ok(8), Err(RecvTimeoutError::Disconnected)]);
    }

    #[test]
    fn a_send_to_a_dropped_receiver_comes_back() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(3u8), Err(SendError(3)));
    }
}
