//! The channel the transport's threads talk through: one mutex-guarded
//! queue with two condition variables, any number of [`Sender`]s and one
//! [`Receiver`] (or the [`PollReceiver`] made of it, which cannot wait).
//! A side learns that the other is gone — the last sender dropped, or
//! the receiver — instead of waiting for it, and messages queued before
//! the senders went stay receivable.
//!
//! It is what `std::sync::mpsc` is, plus the two things the transport
//! needs of it: a [`Sender::send_timeout`] on a bounded queue (a client's
//! `send` gives up on a writer thread that stopped draining) and
//! [`RecvTimeoutError::is_timeout`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use crate::lock::{Held, LeafLock};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: LeafLock<State<T>>,
    /// `usize::MAX` for an unbounded queue.
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sending half; clones feed the same queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half as a poll thread holds it: a thread that owns
/// sockets must never sleep on its command queue, so the only way to
/// take a message is [`PollReceiver::try_recv`].
///
/// ```
/// let (tx, rx) = cosoft_net::queue::unbounded();
/// let rx = rx.poll_only();
/// tx.send(7u8).unwrap();
/// assert_eq!(rx.try_recv(), Ok(7));
/// ```
///
/// The waits of [`Receiver`] do not exist on it:
///
/// ```compile_fail,E0599
/// let (_tx, rx) = cosoft_net::queue::unbounded::<u8>();
/// let _ = rx.poll_only().recv();
/// ```
///
/// ```compile_fail,E0599
/// let (_tx, rx) = cosoft_net::queue::unbounded::<u8>();
/// let _ = rx.poll_only().recv_timeout(std::time::Duration::ZERO);
/// ```
pub struct PollReceiver<T>(Receiver<T>);

/// A queue holding at most `cap` messages (at least one: the transport
/// has no use for a rendezvous).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: LeafLock::new(State { queue: VecDeque::new(), senders: 1, receiver_alive: true }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

/// A queue without a capacity limit: sends never wait.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

/// The receiver is gone; the message comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a `try_send` did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// Why a `send_timeout` did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The queue stayed full for the whole timeout.
    Timeout(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// The senders are gone and the queue is empty.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

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

/// How long an operation may wait for the other side.
#[derive(Clone, Copy)]
enum Wait {
    No,
    Until(Instant),
    Forever,
}

/// Waits on `cv` as long as `wait` allows; `None` once that is used up.
fn wait_on<'a, T>(
    cv: &Condvar,
    guard: Held<'a, State<T>>,
    wait: Wait,
) -> Option<Held<'a, State<T>>> {
    match wait {
        Wait::No => None,
        Wait::Forever => Some(guard.wait(cv)),
        Wait::Until(deadline) => {
            let left = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())?;
            Some(guard.wait_timeout(cv, left))
        }
    }
}

impl<T> Sender<T> {
    fn send_within(&self, msg: T, wait: Wait) -> Result<(), SendTimeoutError<T>> {
        let mut state = self.shared.state.held();
        loop {
            if !state.receiver_alive {
                return Err(SendTimeoutError::Disconnected(msg));
            }
            if state.queue.len() < self.shared.cap {
                state.queue.push_back(msg);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            match wait_on(&self.shared.not_full, state, wait) {
                Some(woken) => state = woken,
                None => return Err(SendTimeoutError::Timeout(msg)),
            }
        }
    }

    /// Enqueues `msg`, waiting while a bounded queue is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.send_within(msg, Wait::Forever).map_err(|e| match e {
            SendTimeoutError::Timeout(m) | SendTimeoutError::Disconnected(m) => SendError(m),
        })
    }

    /// Enqueues `msg` only if that needs no waiting.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        self.send_within(msg, Wait::No).map_err(|e| match e {
            SendTimeoutError::Timeout(m) => TrySendError::Full(m),
            SendTimeoutError::Disconnected(m) => TrySendError::Disconnected(m),
        })
    }

    /// Enqueues `msg`, waiting at most `timeout` for room.
    pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_within(msg, Wait::Until(Instant::now() + timeout))
    }
}

impl<T> Receiver<T> {
    fn recv_within(&self, wait: Wait) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.state.held();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            match wait_on(&self.shared.not_empty, state, wait) {
                Some(woken) => state = woken,
                None => return Err(RecvTimeoutError::Timeout),
            }
        }
    }

    /// Dequeues the next message, waiting while the queue is empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_within(Wait::Forever).map_err(|_| RecvError)
    }

    /// Dequeues the next message if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.recv_within(Wait::No).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Dequeues the next message, waiting at most `timeout` for one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_within(Wait::Until(Instant::now() + timeout))
    }

    /// Gives up the waits: what is left can only be polled.
    pub fn poll_only(self) -> PollReceiver<T> {
        PollReceiver(self)
    }
}

impl<T> PollReceiver<T> {
    /// Dequeues the next message if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv()
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
        self.shared.not_full.notify_all();
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
        assert_eq!([rx.recv(), rx.recv(), rx.recv()], [Ok((0, 1)), Ok((1, 2)), Ok((0, 3))]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // Across threads each sender's own order survives.
        let threads = [a, b].into_iter().enumerate().map(|(who, tx)| {
            std::thread::spawn(move || (0..500).for_each(|i| tx.send((who, i)).unwrap()))
        });
        let threads: Vec<_> = threads.collect();
        let mut next = [0, 0];
        while let Ok((who, i)) = rx.recv() {
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
    fn a_bounded_queue_is_full_at_capacity_until_a_recv() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx.send_timeout(3, SHORT), Err(SendTimeoutError::Timeout(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.send_timeout(3, SHORT), Ok(()));
        assert_eq!([rx.try_recv(), rx.try_recv()], [Ok(2), Ok(3)]);
    }

    #[test]
    fn dropping_the_last_sender_wakes_and_disconnects_the_receiver() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(7u8).unwrap();
        let parked = std::thread::spawn(move || [rx.recv(), rx.recv(), rx.recv()]);
        drop(tx);
        tx2.send(8).unwrap();
        drop(tx2);
        // What was queued before the senders went is still delivered.
        assert_eq!(parked.join().unwrap(), [Ok(7), Ok(8), Err(RecvError)]);
    }

    #[test]
    fn dropping_the_receiver_wakes_and_disconnects_a_full_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1u8).unwrap();
        let tx2 = tx.clone();
        let parked = std::thread::spawn(move || tx2.send(2));
        drop(rx);
        assert_eq!(parked.join().unwrap(), Err(SendError(2)));
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
        assert_eq!(tx.send_timeout(3, LONG), Err(SendTimeoutError::Disconnected(3)));
    }
}
