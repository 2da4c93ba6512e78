//! The server lock table (§2.2/§3.2): "the lock table guarantees that
//! actions occur serially within each group of coupled objects".

use std::collections::HashMap;

use cosoft_wire::GlobalObjectId;

/// Identifier of one multiple-execution round holding locks.
pub type ExecId = u64;

/// Centralized lock table over global object ids.
///
/// The paper's client-visible algorithm acquires locks incrementally and
/// rolls back on conflict; with the table centralized in the server the
/// check-then-lock over a whole group is atomic, which is observably
/// equivalent (no interleaving can occur between check and lock) and
/// avoids the rollback traffic. The rollback path the paper describes
/// survives at the protocol level as `EventRejected`.
///
/// Besides the object → holder map, the table keeps an `ExecId` →
/// objects reverse index so releasing an exec's locks is O(group size)
/// instead of a scan over every held lock in the server.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    held: HashMap<GlobalObjectId, ExecId>,
    /// Reverse index: the objects each exec holds, in lock order.
    by_exec: HashMap<ExecId, Vec<GlobalObjectId>>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to lock every object in `group` for `exec`.
    ///
    /// Atomic: either all objects become locked, or none do and the id of
    /// the first already-locked object is returned.
    ///
    /// # Errors
    ///
    /// Returns the conflicting object when any group member is already
    /// locked by a *different* exec.
    pub fn try_lock_group(
        &mut self,
        group: &[GlobalObjectId],
        exec: ExecId,
    ) -> Result<(), GlobalObjectId> {
        for o in group {
            if let Some(&holder) = self.held.get(o) {
                if holder != exec {
                    return Err(o.clone());
                }
            }
        }
        for o in group {
            // Re-locking by the same exec is idempotent; only newly
            // acquired objects enter the reverse index.
            if self.held.insert(o.clone(), exec).is_none() {
                self.by_exec.entry(exec).or_default().push(o.clone());
            }
        }
        Ok(())
    }

    /// Releases every lock held by `exec`, returning the released objects.
    /// O(number of objects the exec holds), via the reverse index.
    pub fn unlock_exec(&mut self, exec: ExecId) -> Vec<GlobalObjectId> {
        let released = self.by_exec.remove(&exec).unwrap_or_default();
        for o in &released {
            self.held.remove(o);
        }
        released
    }

    /// Releases one object's lock regardless of holder (used when an
    /// object is destroyed mid-execution).
    pub fn force_unlock(&mut self, object: &GlobalObjectId) -> Option<ExecId> {
        let exec = self.held.remove(object)?;
        if let Some(objs) = self.by_exec.get_mut(&exec) {
            objs.retain(|o| o != object);
            if objs.is_empty() {
                self.by_exec.remove(&exec);
            }
        }
        Some(exec)
    }

    /// Whether `object` is currently locked.
    pub fn is_locked(&self, object: &GlobalObjectId) -> bool {
        self.held.contains_key(object)
    }

    /// The exec currently holding `object`, if any.
    pub fn holder(&self, object: &GlobalObjectId) -> Option<ExecId> {
        self.held.get(object).copied()
    }

    /// Number of currently held locks.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Iterates over every held lock as `(object, holding exec)`.
    pub fn held_locks(&self) -> impl Iterator<Item = (&GlobalObjectId, ExecId)> + '_ {
        self.held.iter().map(|(o, e)| (o, *e))
    }

    /// Checks that the reverse index and the holder map describe the same
    /// relation, returning a description of the first divergence.
    ///
    /// This is the lock table's contribution to the server-wide invariant
    /// pack ([`crate::ServerCore::check_invariants`]); the schedule
    /// explorer and the property tests run it after every operation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the divergence between the
    /// holder map and the reverse index, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut from_index: Vec<(GlobalObjectId, ExecId)> = self
            .by_exec
            .iter()
            .flat_map(|(e, objs)| objs.iter().map(move |o| (o.clone(), *e)))
            .collect();
        let mut from_held: Vec<(GlobalObjectId, ExecId)> =
            self.held.iter().map(|(o, e)| (o.clone(), *e)).collect();
        from_index.sort();
        from_held.sort();
        if from_index != from_held {
            return Err(format!(
                "lock table reverse index diverged from the holder map: \
                 index {from_index:?} vs held {from_held:?}"
            ));
        }
        if let Some((exec, _)) = self.by_exec.iter().find(|(_, objs)| objs.is_empty()) {
            return Err(format!("reverse index retains empty entry for exec {exec}"));
        }
        Ok(())
    }

    /// Panicking wrapper around [`LockTable::check_invariants`] (test
    /// support).
    ///
    /// # Panics
    ///
    /// Panics when the reverse index diverges from the holder map.
    #[doc(hidden)]
    #[expect(
        clippy::panic,
        reason = "documented panicking test-support wrapper; production code calls check_invariants"
    )]
    pub fn assert_index_consistent(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::{InstanceId, ObjectPath};

    fn gid(i: u64, p: &str) -> GlobalObjectId {
        GlobalObjectId::new(InstanceId(i), ObjectPath::parse(p).unwrap())
    }

    /// Releases `exec`'s locks via the pre-index algorithm (scan every
    /// held lock); the reverse index must be observably equivalent.
    fn unlock_exec_by_scan(t: &LockTable, exec: ExecId) -> Vec<GlobalObjectId> {
        let mut released: Vec<GlobalObjectId> =
            t.held.iter().filter(|(_, &e)| e == exec).map(|(o, _)| o.clone()).collect();
        released.sort();
        released
    }

    /// Asserts that unlocking `exec` releases exactly what a full scan
    /// would have, then performs the unlock.
    fn checked_unlock(t: &mut LockTable, exec: ExecId) -> Vec<GlobalObjectId> {
        let expected = unlock_exec_by_scan(t, exec);
        let mut released = t.unlock_exec(exec);
        released.sort();
        assert_eq!(released, expected, "indexed unlock diverged from scan");
        t.assert_index_consistent();
        released
    }

    #[test]
    fn lock_then_conflict_then_unlock() {
        let mut t = LockTable::new();
        let group = vec![gid(1, "a"), gid(2, "b")];
        t.try_lock_group(&group, 1).unwrap();
        t.assert_index_consistent();
        assert!(t.is_locked(&gid(1, "a")));
        assert_eq!(t.holder(&gid(2, "b")), Some(1));

        // A second exec touching any member fails.
        let err = t.try_lock_group(&[gid(2, "b"), gid(3, "c")], 2).unwrap_err();
        assert_eq!(err, gid(2, "b"));
        // Atomicity: the non-conflicting member was NOT locked.
        assert!(!t.is_locked(&gid(3, "c")));
        t.assert_index_consistent();

        let released = checked_unlock(&mut t, 1);
        assert_eq!(released, group);
        assert!(t.is_empty());
        // Now exec 2 can proceed.
        t.try_lock_group(&[gid(2, "b"), gid(3, "c")], 2).unwrap();
        t.assert_index_consistent();
    }

    #[test]
    fn relocking_by_same_exec_is_idempotent() {
        let mut t = LockTable::new();
        t.try_lock_group(&[gid(1, "a")], 7).unwrap();
        t.try_lock_group(&[gid(1, "a"), gid(1, "b")], 7).unwrap();
        t.assert_index_consistent();
        assert_eq!(t.len(), 2);
        assert_eq!(checked_unlock(&mut t, 7).len(), 2);
    }

    #[test]
    fn force_unlock_releases_single_object() {
        let mut t = LockTable::new();
        t.try_lock_group(&[gid(1, "a"), gid(1, "b")], 3).unwrap();
        assert_eq!(t.force_unlock(&gid(1, "a")), Some(3));
        t.assert_index_consistent();
        assert!(!t.is_locked(&gid(1, "a")));
        assert!(t.is_locked(&gid(1, "b")));
        assert_eq!(t.force_unlock(&gid(1, "a")), None);
        // The indexed unlock of the remainder matches a scan.
        assert_eq!(checked_unlock(&mut t, 3), vec![gid(1, "b")]);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_group_locks_trivially() {
        let mut t = LockTable::new();
        t.try_lock_group(&[], 1).unwrap();
        assert!(t.is_empty());
        t.assert_index_consistent();
        assert!(t.unlock_exec(1).is_empty());
    }

    #[test]
    fn disjoint_groups_lock_concurrently() {
        let mut t = LockTable::new();
        t.try_lock_group(&[gid(1, "a")], 1).unwrap();
        t.try_lock_group(&[gid(2, "a")], 2).unwrap();
        t.assert_index_consistent();
        assert_eq!(t.len(), 2);
        assert_eq!(checked_unlock(&mut t, 1), vec![gid(1, "a")]);
        assert_eq!(checked_unlock(&mut t, 2), vec![gid(2, "a")]);
    }

    #[test]
    fn unlock_of_unknown_exec_is_empty_and_leaves_index_clean() {
        let mut t = LockTable::new();
        t.try_lock_group(&[gid(1, "a")], 1).unwrap();
        assert!(t.unlock_exec(99).is_empty());
        t.assert_index_consistent();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn force_unlock_whole_group_empties_index() {
        let mut t = LockTable::new();
        t.try_lock_group(&[gid(1, "a"), gid(1, "b")], 5).unwrap();
        t.force_unlock(&gid(1, "a"));
        t.force_unlock(&gid(1, "b"));
        t.assert_index_consistent();
        assert!(t.is_empty());
        assert!(t.unlock_exec(5).is_empty());
    }
}
