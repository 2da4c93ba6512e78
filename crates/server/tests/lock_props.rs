//! Properties of [`LockTable`]'s reverse index under random
//! teardown-heavy operation sequences: lock, indexed unlock, forced
//! single-object unlock (object destruction), and bulk teardown.
//!
//! Unlike `store_props.rs` (which models *grant* semantics), this suite
//! targets the index bookkeeping the server-wide invariant pack depends
//! on: after *every* operation the reverse index must describe exactly
//! the holder map (`assert_index_consistent`), and every release path
//! must agree with a naive full-scan reference model.

use std::collections::HashMap;

use cosoft_rng::{forall, Rng};
use cosoft_server::LockTable;
use cosoft_wire::{GlobalObjectId, InstanceId, ObjectPath};

fn gid(i: u8) -> GlobalObjectId {
    GlobalObjectId::new(
        InstanceId(u64::from(i % 4)),
        ObjectPath::parse(&format!("o{}", i / 4)).expect("valid"),
    )
}

#[derive(Debug, Clone)]
enum Op {
    /// `try_lock_group` over a small object group.
    Lock(Vec<u8>, u64),
    /// Indexed release of one exec's locks.
    Unlock(u64),
    /// Forced single-object release (object destroyed mid-execution).
    ForceUnlock(u8),
    /// Teardown: release every exec in some order.
    TeardownAll,
}

/// Weighted 4 : 3 : 2 : 1.
fn arb_op(r: &mut Rng) -> Op {
    match r.range(0..10) {
        0..=3 => Op::Lock(r.vec(1..5, |r| r.range(0..16)), r.range(1..6)),
        4..=6 => Op::Unlock(r.range(1..6)),
        7..=8 => Op::ForceUnlock(r.range(0..16)),
        _ => Op::TeardownAll,
    }
}

/// After every operation the reverse index equals the holder map,
/// and every release path returns exactly what a naive scan of the
/// holder map predicts.
#[test]
fn index_survives_random_teardown_sequences() {
    let gen = |r: &mut Rng| r.vec(1..60, arb_op);
    forall(0..256, gen, |ops| {
        let mut table = LockTable::new();
        // Reference model: the holder map alone, no index.
        let mut model: HashMap<GlobalObjectId, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Lock(group, exec) => {
                    let group: Vec<GlobalObjectId> = group.into_iter().map(gid).collect();
                    let conflict =
                        group.iter().find(|o| model.get(o).is_some_and(|&h| h != exec)).cloned();
                    match table.try_lock_group(&group, exec) {
                        Ok(()) => {
                            assert!(conflict.is_none());
                            for o in group {
                                model.insert(o, exec);
                            }
                        }
                        Err(o) => {
                            assert_eq!(Some(o), conflict);
                        }
                    }
                }
                Op::Unlock(exec) => {
                    let mut expected: Vec<GlobalObjectId> =
                        model.iter().filter(|(_, &h)| h == exec).map(|(o, _)| o.clone()).collect();
                    expected.sort();
                    let mut released = table.unlock_exec(exec);
                    released.sort();
                    assert_eq!(released, expected);
                    model.retain(|_, &mut h| h != exec);
                }
                Op::ForceUnlock(i) => {
                    let o = gid(i);
                    assert_eq!(table.force_unlock(&o), model.remove(&o));
                }
                Op::TeardownAll => {
                    let mut execs: Vec<u64> = model.values().copied().collect();
                    execs.sort_unstable();
                    execs.dedup();
                    for exec in execs {
                        table.unlock_exec(exec);
                        table.assert_index_consistent();
                    }
                    model.clear();
                }
            }
            table.assert_index_consistent();
            table.check_invariants().unwrap();
            assert_eq!(table.len(), model.len());
        }
    });
}

/// `held_locks` always enumerates exactly the reference relation.
#[test]
fn held_locks_enumerates_the_relation() {
    let gen = |r: &mut Rng| r.vec(1..40, arb_op);
    forall(0..256, gen, |ops| {
        let mut table = LockTable::new();
        let mut model: HashMap<GlobalObjectId, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Lock(group, exec) => {
                    let group: Vec<GlobalObjectId> = group.into_iter().map(gid).collect();
                    if table.try_lock_group(&group, exec).is_ok() {
                        for o in group {
                            model.insert(o, exec);
                        }
                    }
                }
                Op::Unlock(exec) => {
                    table.unlock_exec(exec);
                    model.retain(|_, &mut h| h != exec);
                }
                Op::ForceUnlock(i) => {
                    let o = gid(i);
                    table.force_unlock(&o);
                    model.remove(&o);
                }
                Op::TeardownAll => {
                    for exec in 0..8u64 {
                        table.unlock_exec(exec);
                    }
                    model.clear();
                }
            }
            let mut seen: Vec<(GlobalObjectId, u64)> =
                table.held_locks().map(|(o, e)| (o.clone(), e)).collect();
            seen.sort();
            let mut expected: Vec<(GlobalObjectId, u64)> =
                model.iter().map(|(o, &e)| (o.clone(), e)).collect();
            expected.sort();
            assert_eq!(seen, expected);
        }
    });
}
