//! Every mutex of the transport, ranked.
//!
//! A mutex in this crate is a [`Ranked`] and [`Ranked::held`] is the one
//! way to take it. The rank is part of the field's type, so it is stated
//! once, where the mutex is declared:
//!
//! | rank | alias | guards | may be taken while holding |
//! |---|---|---|---|
//! | 0 | [`ConnMapLock`] | the host-wide connection map | nothing |
//! | 1 | [`OutboxLock`] | one connection's outbox (a client's with its socket's write half) | nothing, or the map |
//! | 2 | [`LeafLock`] | a mailbox, gate generation, a client's receive state | nothing, or an outbox |
//!
//! A thread climbs one rank at a time: the map orders before an outbox
//! and nothing else (it is held to file, find or remove a connection,
//! never over a post), an outbox before a leaf, and
//! nothing is taken under a leaf. Two locks of one rank are never held
//! together, which also refuses taking the same lock twice — a deadlock
//! on a `std` mutex — before it blocks.
//!
//! A host's turn runs on a poll thread with none of these held, and
//! what the turn locks inside is its own: the table needs no row for it.
//! Its frames keep turn order because one thread queues them all, not
//! because of a lock. Sending them takes the map (to find a connection,
//! released), then an outbox (released), then a leaf (a dirty mark).
//!
//! Debug builds keep a thread-local record of the ranks a thread holds
//! and assert the rule at every acquisition, so each test run checks the
//! orders that actually occur; [`assert_holds_only`] lets a socket
//! write, a poll thread's or a client's, assert what it runs under, and
//! [`assert_holds_none`] the turn. Release builds
//! compile none of it: a [`Held`] is then a `MutexGuard` and nothing
//! else.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Rank of the host-wide connection map.
pub(crate) const CONN_MAP: u8 = 0;
/// Rank of a connection's outbox.
pub(crate) const OUTBOX: u8 = 1;
/// Rank of the locks nothing is taken under.
pub(crate) const LEAF: u8 = 2;

/// The host-wide connection map's mutex.
pub(crate) type ConnMapLock<T> = Ranked<CONN_MAP, T>;
/// A connection's outbox mutex.
pub(crate) type OutboxLock<T> = Ranked<OUTBOX, T>;
/// A mutex nothing is taken under.
pub(crate) type LeafLock<T> = Ranked<LEAF, T>;

/// A mutex of rank `RANK`.
#[derive(Debug, Default)]
pub(crate) struct Ranked<const RANK: u8, T>(Mutex<T>);

impl<const RANK: u8, T> Ranked<RANK, T> {
    pub(crate) const fn new(value: T) -> Self {
        Ranked(Mutex::new(value))
    }

    /// Takes the lock. Debug builds first assert that this thread holds
    /// nothing, or only up to the rank directly below.
    pub(crate) fn held(&self) -> Held<'_, T> {
        let rank = HeldRank::enter(RANK);
        Held { guard: unpoisoned(self.0.lock()), _rank: rank }
    }

    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.0.is_poisoned()
    }
}

/// The guard a `lock()` or a condition-variable wait returns, poisoning
/// ignored. A transport thread that panicked under a lock must not take
/// the other connections' threads with it, and every structure these
/// mutexes guard (connection map, outbox ring, mailbox, gate) is
/// valid between any two of its updates.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A taken [`Ranked`]; releases it on drop.
pub(crate) struct Held<'a, T> {
    guard: MutexGuard<'a, T>,
    _rank: HeldRank,
}

impl<T> Held<'_, T> {
    /// `Condvar::wait_timeout`. The rank stays on record across the wait:
    /// the thread takes nothing while it sleeps and holds the lock again
    /// when it wakes.
    pub(crate) fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> Self {
        let Held { guard, _rank } = self;
        Held { guard: unpoisoned(cv.wait_timeout(guard, timeout)).0, _rank }
    }
}

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks this thread holds, in the order it took them.
    static HELD: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One entry of the thread's record of ranks held, removed on drop.
struct HeldRank(#[cfg(debug_assertions)] u8);

impl HeldRank {
    #[cfg(debug_assertions)]
    fn enter(rank: u8) -> HeldRank {
        HELD.with_borrow_mut(|held| {
            let top = held.iter().max().copied();
            assert!(
                top.is_none_or(|top| top.checked_add(1) == Some(rank)),
                "lock of rank {rank} taken while holding ranks {held:?}: \
                 only the next rank up may follow (crates/net/src/lock.rs)"
            );
            held.push(rank);
        });
        HeldRank(rank)
    }

    #[cfg(not(debug_assertions))]
    fn enter(_rank: u8) -> HeldRank {
        HeldRank()
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldRank {
    fn drop(&mut self) {
        HELD.with_borrow_mut(|held| {
            if let Some(at) = held.iter().rposition(|rank| *rank == self.0) {
                held.remove(at);
            }
        });
    }
}

/// Debug builds: panics unless this thread holds no lock of this crate.
pub(crate) fn assert_holds_none() {
    #[cfg(debug_assertions)]
    HELD.with_borrow(|held| {
        assert!(
            held.is_empty(),
            "holding ranks {held:?} where none may be held (crates/net/src/lock.rs)"
        );
    });
}

/// Debug builds: panics unless this thread holds exactly one lock, of
/// `rank`.
pub(crate) fn assert_holds_only(rank: u8) {
    #[cfg(debug_assertions)]
    HELD.with_borrow(|held| {
        assert!(
            held.as_slice() == [rank],
            "holding ranks {held:?} where only rank {rank} may be held (crates/net/src/lock.rs)"
        );
    });
    #[cfg(not(debug_assertions))]
    let _ = rank;
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn one_rank_at_a_time_upwards_released_in_any_order() {
        let (map, outbox, leaf) = (ConnMapLock::new(()), OutboxLock::new(()), LeafLock::new(()));
        let m = map.held();
        let o = outbox.held();
        drop(m);
        let l = leaf.held();
        drop(o);
        drop(l);
        // Nothing is left on record: the lowest rank can be taken again.
        drop(map.held());
        drop(leaf.held());
        assert_holds_none();
    }

    #[test]
    #[should_panic(expected = "lock of rank 0 taken while holding ranks [1]")]
    fn a_descending_acquisition_is_refused() {
        let (map, outbox) = (ConnMapLock::new(()), OutboxLock::new(()));
        let _o = outbox.held();
        let _m = map.held();
    }

    #[test]
    #[should_panic(expected = "lock of rank 2 taken while holding ranks [2]")]
    fn a_reentrant_acquisition_is_refused_before_it_deadlocks() {
        let leaf = LeafLock::new(());
        let _first = leaf.held();
        let _second = leaf.held();
    }

    /// The shape `TcpHost::disconnect` had: the map lock still held over
    /// a post to a poll thread's inbox.
    #[test]
    #[should_panic(expected = "lock of rank 2 taken while holding ranks [0]")]
    fn a_leaf_under_the_connection_map_is_refused() {
        let (map, inbox) = (ConnMapLock::new(()), LeafLock::new(Vec::new()));
        let _m = map.held();
        inbox.held().push(1u8);
    }

    #[test]
    #[should_panic(expected = "holding ranks [0, 1] where only rank 1 may be held")]
    fn the_map_lock_held_at_a_socket_write_is_refused() {
        let (map, outbox) = (ConnMapLock::new(()), OutboxLock::new(()));
        let _m = map.held();
        let _o = outbox.held();
        assert_holds_only(OUTBOX);
    }

    #[test]
    fn a_condvar_wait_keeps_its_rank() {
        let (leaf, cv) = (LeafLock::new(0u8), Condvar::new());
        let guard = leaf.held().wait_timeout(&cv, Duration::from_millis(1));
        assert_holds_only(LEAF);
        std::thread::scope(|s| {
            s.spawn(|| {
                *leaf.held() = 1;
                cv.notify_one();
            });
            let mut guard = guard;
            while *guard == 0 {
                guard = guard.wait_timeout(&cv, Duration::from_secs(10));
            }
            assert_holds_only(LEAF);
        });
        assert_holds_none();
    }
}
