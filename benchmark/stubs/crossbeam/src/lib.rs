//! Offline stand-in for `crossbeam`: the `channel` module's bounded and
//! unbounded MPMC channels, as one mutex-guarded queue with two condition
//! variables. Semantics follow upstream (clonable senders *and*
//! receivers, disconnection when the last peer of either side drops,
//! queued messages stay receivable after the senders are gone); only the
//! lock-free implementation is not reproduced.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` for an unbounded channel.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // Every update below leaves the state valid at every step,
            // so a panicking peer does not make the queue unusable.
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.cap.is_some_and(|cap| state.queue.len() >= cap)
        }
    }

    /// Sending half.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }

    /// A channel without a capacity limit: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages (at least one here; the
    /// workspace never asks for a rendezvous channel).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    /// The receivers are gone; the message comes back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Why a `try_send` did not enqueue.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// The receivers are gone.
        Disconnected(T),
    }

    /// Why a `send_timeout` did not enqueue.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum SendTimeoutError<T> {
        /// The channel stayed full for the whole timeout.
        Timeout(T),
        /// The receivers are gone.
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
        /// Whether the wait ran out with the channel still connected.
        pub fn is_timeout(&self) -> bool {
            matches!(self, RecvTimeoutError::Timeout)
        }

        /// Whether the senders are gone and the queue is empty.
        pub fn is_disconnected(&self) -> bool {
            matches!(self, RecvTimeoutError::Disconnected)
        }
    }

    macro_rules! opaque_debug_display {
        ($($name:ident => $text:expr),*) => {$(
            impl<T> fmt::Debug for $name<T> {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    f.write_str(concat!(stringify!($name), "(..)"))
                }
            }
            impl<T> fmt::Display for $name<T> {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    f.write_str($text)
                }
            }
            impl<T> std::error::Error for $name<T> {}
        )*};
    }
    opaque_debug_display!(
        SendError => "sending on a disconnected channel",
        TrySendError => "channel full or disconnected",
        SendTimeoutError => "timed out or disconnected while sending"
    );

    macro_rules! plain_display {
        ($($name:ident => $text:expr),*) => {$(
            impl fmt::Display for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    f.write_str($text)
                }
            }
            impl std::error::Error for $name {}
        )*};
    }
    plain_display!(
        RecvError => "receiving on an empty and disconnected channel",
        TryRecvError => "channel empty or disconnected",
        RecvTimeoutError => "timed out or disconnected while receiving"
    );

    impl<T> Sender<T> {
        fn send_until(&self, msg: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(msg));
                }
                if !self.shared.is_full(&state) {
                    state.queue.push_back(msg);
                    drop(state);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                state = match deadline {
                    None => self.shared.not_full.wait(state).unwrap_or_else(|e| e.into_inner()),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(SendTimeoutError::Timeout(msg));
                        }
                        self.shared
                            .not_full
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
            }
        }

        /// Enqueues `msg`, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.send_until(msg, None).map_err(|e| match e {
                SendTimeoutError::Timeout(m) | SendTimeoutError::Disconnected(m) => SendError(m),
            })
        }

        /// Enqueues `msg` only if that needs no waiting.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.shared.is_full(&state) {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Enqueues `msg`, waiting at most `timeout` for room.
        pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_until(msg, Some(Instant::now() + timeout))
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                state = match deadline {
                    None => self.shared.not_empty.wait(state).unwrap_or_else(|e| e.into_inner()),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        self.shared
                            .not_empty
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
            }
        }

        /// Dequeues the next message, blocking while the channel is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Dequeues the next message if one is queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            match state.queue.pop_front() {
                Some(msg) => {
                    drop(state);
                    self.shared.not_full.notify_one();
                    Ok(msg)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Dequeues the next message, waiting at most `timeout` for one.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + timeout))
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Drains what is queued right now without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    /// See [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}
