//! Shard migration: lifting one couple-component out of a core as a
//! [`ComponentSlice`] and installing it in another.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use cosoft_wire::{GlobalObjectId, InstanceId, Message};

use super::floor::ExecState;
use super::transfer::{Leg, TransferGroup};
use super::{Outgoing, ServerCore};
use crate::registry::Record;

/// Everything one couple-component owns inside a [`ServerCore`],
/// extracted for migration to another shard, in four parts: registration
/// records (each with its binding or grace deadline, its resume token,
/// and its objects' sync bases, history stacks and access rows), couple
/// links, and the protocol state that lives entirely inside the
/// component (executions with their locks, transfer groups with their
/// legs). Delta legs, delta pushes and by-reference acknowledgements keep
/// working across a migration because the bases travel in the records.
///
/// Produced by `ServerCore::extract_component` and consumed by
/// `ServerCore::absorb_component`; opaque to everything in between.
#[derive(Debug, Clone)]
pub struct ComponentSlice<E> {
    records: Vec<Record<E>>,
    links: Vec<(GlobalObjectId, GlobalObjectId)>,
    execs: Vec<(u64, ExecState, Vec<GlobalObjectId>)>,
    transfer_groups: Vec<(u64, TransferGroup)>,
}

impl<E> ComponentSlice<E> {
    /// Whether the slice carries no instances at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of migrated instances.
    pub fn len(&self) -> usize {
        self.records.len()
    }
}

impl<E: Copy + Eq + Hash> ServerCore<E> {
    /// Extracts the couple-component of `seed` — registration records
    /// with their objects' state, couple links, and all protocol state
    /// living entirely inside the component — for absorption by another
    /// shard ([`ServerCore::absorb_component`]).
    ///
    /// Protocol state that *straddles* the component boundary cannot
    /// migrate (its two halves would land on different shards):
    ///
    /// * a multiple-execution round whose submitter sits outside the
    ///   locked group's component sheds the far side's owed replies,
    ///   finishing the round if nothing else is outstanding — the same
    ///   sever semantics a far-side death would apply;
    /// * a transfer group with legs on both sides is failed outright and
    ///   its requester told, exactly like a peer dying mid-transfer.
    ///
    /// The returned [`Outgoing`] carries those settlement messages
    /// (`GroupUnlocked`, `ErrorReply`); deliver it like any handle
    /// output.
    ///
    /// An unregistered `seed` yields an empty slice.
    pub(crate) fn extract_component(
        &mut self,
        seed: InstanceId,
    ) -> (ComponentSlice<E>, Outgoing<E>) {
        let members_vec = self.component_of(seed);
        let members: HashSet<InstanceId> = members_vec.iter().copied().collect();
        let mut out = Outgoing::new();
        // Snapshot which objects each live execution round has locked:
        // the locked group's side of the boundary is the round's home.
        let mut lock_objects: HashMap<u64, Vec<GlobalObjectId>> = HashMap::new();
        for (object, exec) in self.locks.held_locks() {
            lock_objects.entry(exec).or_default().push(object.clone());
        }
        // The lock table walks in no order; which side of a boundary a
        // round is at home on must not depend on it.
        lock_objects.values_mut().for_each(|objects| objects.sort());
        let mut exec_ids: Vec<u64> = self.execs.keys().copied().collect();
        exec_ids.sort();
        let mut inside_execs: Vec<u64> = Vec::new();
        for exec_id in exec_ids {
            let home_inside = lock_objects
                .get(&exec_id)
                .and_then(|objs| objs.first())
                .map(|o| members.contains(&o.instance))
                .unwrap_or(false);
            let straddles = {
                let Some(exec) = self.execs.get(&exec_id) else { continue };
                exec.owed.iter().any(|(i, _)| members.contains(i) != home_inside)
            };
            if straddles {
                // The far side's locks go with its owed replies. Left in
                // place they would guard objects whose component lives on
                // another shard, and collide with those objects' own
                // rounds when the two components next share one.
                if let Some(objects) = lock_objects.get_mut(&exec_id) {
                    objects.retain(|o| {
                        let home = members.contains(&o.instance) == home_inside;
                        if !home {
                            self.locks.force_unlock(o);
                        }
                        home
                    });
                }
                let finished = {
                    let Some(exec) = self.execs.get_mut(&exec_id) else { continue };
                    exec.owed.retain(|(i, _)| members.contains(i) == home_inside);
                    exec.is_done()
                };
                if finished {
                    if let Some(exec) = self.execs.remove(&exec_id) {
                        self.finish_exec(exec_id, &exec, &mut out);
                    }
                    continue;
                }
            }
            if home_inside {
                inside_execs.push(exec_id);
            }
        }
        // Transfer groups: wholly inside migrates, wholly outside stays,
        // straddling fails sever-style.
        let mut group_ids: Vec<u64> = self.transfer_groups.keys().copied().collect();
        group_ids.sort();
        let mut inside_groups: Vec<u64> = Vec::new();
        for gid in group_ids {
            let Some(group) = self.transfer_groups.get(&gid) else { continue };
            let requester = group.requester;
            let req_inside = members.contains(&requester);
            if group.legs.values().flat_map(Leg::ends).all(|i| members.contains(&i) == req_inside) {
                if req_inside {
                    inside_groups.push(gid);
                }
                continue;
            }
            self.stats.transfers_failed += 1;
            self.drop_group(gid);
            self.to_instance(
                requester,
                Message::ErrorReply {
                    context: "copy".into(),
                    reason: "transfer interrupted by a shard migration".into(),
                },
                &mut out,
            );
        }
        // Lift the component's state out of every store.
        let records = members_vec.iter().filter_map(|id| self.registry.deregister(*id)).collect();
        let links = self.couples.extract_instance_links(&members);
        let execs = inside_execs
            .into_iter()
            .filter_map(|eid| {
                self.execs.remove(&eid).map(|ex| {
                    let objs = lock_objects.remove(&eid).unwrap_or_default();
                    self.locks.unlock_exec(eid);
                    (eid, ex, objs)
                })
            })
            .collect();
        let transfer_groups = inside_groups
            .into_iter()
            .filter_map(|gid| self.drop_group(gid).map(|g| (gid, g)))
            .collect();
        self.note_outgoing(&out);
        let slice = ComponentSlice { records, links, execs, transfer_groups };
        self.debug_check_invariants();
        (slice, out)
    }

    /// Installs a component extracted from another shard. Ids never
    /// collide (each shard mints ids in its own residue class, and the
    /// registry bumps its counter past adopted ids), so adoption is a
    /// plain insertion into every store.
    pub(crate) fn absorb_component(&mut self, slice: ComponentSlice<E>) {
        let ComponentSlice { records, links, execs, transfer_groups } = slice;
        for record in records {
            self.registry.adopt(record);
        }
        self.couples.adopt_links(links);
        for (exec_id, exec, objects) in execs {
            // Cannot conflict: the objects arrive with the component that
            // locked them, and no other component can reference them.
            let _ = self.locks.try_lock_group(&objects, exec_id);
            self.execs.insert(exec_id, exec);
        }
        for (gid, g) in transfer_groups {
            self.adopt_group(gid, g);
        }
        self.debug_check_invariants();
    }
}
