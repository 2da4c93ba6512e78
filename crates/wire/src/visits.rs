//! A per-thread count of the state and widget nodes that synchronization
//! by state visits: each node a snapshot, diff, version hash or delta
//! apply enters, wherever in the workspace it runs. It is what shows that
//! a round costs the edit rather than the object: the count of a steady
//! copy round must not grow with the form (`cosoft-core`'s
//! `tests/round_cost.rs`). Counting is one thread-local add per visit,
//! always on.

use std::cell::Cell;

thread_local! {
    static VISITED: Cell<u64> = const { Cell::new(0) };
}

/// Counts `n` more nodes visited on this thread.
#[inline]
pub fn add(n: usize) {
    VISITED.with(|v| v.set(v.get().wrapping_add(n as u64)));
}

/// Nodes visited on this thread so far.
pub fn total() -> u64 {
    VISITED.with(Cell::get)
}

/// Runs `f` without counting what it visits: a consistency check is not
/// the work it checks.
pub fn unmetered<T>(f: impl FnOnce() -> T) -> T {
    let before = total();
    let out = f();
    VISITED.with(|v| v.set(before));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmetered_work_leaves_the_count_as_it_was() {
        let before = total();
        add(3);
        unmetered(|| add(5));
        assert_eq!(total(), before + 3);
    }
}
