//! Termination (§3.2: decoupling "is applied automatically when ... an
//! application instance terminates"): disconnects, severing an
//! instance's live protocol work, and deregistration.

use std::hash::Hash;

use cosoft_wire::{GlobalObjectId, InstanceId, Message};

use super::{Outgoing, ServerCore};

impl<E: Copy + Eq + Hash> ServerCore<E> {
    /// Handles a transport-level disconnect of `endpoint`.
    ///
    /// With the default zero grace period this behaves exactly like a
    /// graceful `Deregister` (§3.2: decoupling "is applied automatically
    /// when ... an application instance terminates"). With a non-zero
    /// grace period the instance is quarantined instead: its execution
    /// and transfer participation is severed immediately (peers must not
    /// block on a dead connection) but its registration record, couples,
    /// and access rights survive until the grace expires, so a `Rejoin`
    /// carrying its resume token can reclaim them.
    pub fn disconnect(&mut self, endpoint: E) -> Outgoing<E> {
        let out = match self.registry.instance_at(endpoint) {
            Some(id) if self.liveness.grace_us > 0 => self.quarantine_instance(id),
            Some(id) => self.deregister_instance(id),
            None => Outgoing::new(),
        };
        // Whoever it was, registered or not, its budget window goes with
        // the connection: the endpoint will not be heard from again.
        self.admission.forget(&endpoint);
        self.note_outgoing(&out);
        self.debug_check_invariants();
        out
    }

    /// Severs an instance's participation in live protocol work: settles
    /// executions waiting on it, fails transfer legs touching it, and
    /// drops transfer groups it requested — legs and all, so a late
    /// `StateReply`/`StateApplied` for a dead requester finds nothing to
    /// act on. Shared by deregistration and quarantine: peers must never
    /// block on a dead connection, whether or not it may return.
    pub(super) fn sever_instance_io(&mut self, id: InstanceId, out: &mut Outgoing<E>) {
        // Settle pending executions that were waiting on the dead instance.
        let exec_ids: Vec<u64> = self.execs.keys().copied().collect();
        for exec_id in exec_ids {
            let finished = {
                let Some(exec) = self.execs.get_mut(&exec_id) else { continue };
                exec.owed.remove(&id);
                exec.owed.values().all(|&n| n == 0)
            };
            if finished {
                if let Some(exec) = self.execs.remove(&exec_id) {
                    let targets: Vec<GlobalObjectId> =
                        exec.targets.iter().filter(|t| t.instance != id).cloned().collect();
                    self.finish_exec(exec_id, &targets, out);
                }
            }
        }
        // Fail the legs touching the dead instance. An apply leg dies
        // with its destination; a pull leg with either end: the
        // destination can no longer apply, and a source that dies before
        // its `StateReply` would otherwise leave the transfer group
        // outstanding forever (the requester would never see completion).
        let mut dead_legs: Vec<(u64, &'static str)> = self
            .transfer_groups
            .values()
            .flat_map(|g| g.legs.iter())
            .filter_map(|(req_id, leg)| leg.severed_by(id).map(|reason| (*req_id, reason)))
            .collect();
        dead_legs.sort();
        for (req_id, reason) in dead_legs {
            let Some((group_id, _)) = self.take_leg(req_id) else { continue };
            self.fail_group(group_id, reason);
            self.maybe_finish_group(group_id, out);
        }
        // Groups whose requester died evaporate (there is no one left to
        // answer); they still count as failed transfers.
        let dead_groups: Vec<u64> = self
            .transfer_groups
            .iter()
            .filter(|(_, g)| g.requester == id)
            .map(|(group_id, _)| *group_id)
            .collect();
        for group_id in dead_groups {
            self.drop_group(group_id);
            self.stats.transfers_failed += 1;
        }
    }

    pub(super) fn deregister_instance(&mut self, id: InstanceId) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Auto-decouple: notify each surviving group of its new membership.
        let affected = self.couples.remove_instance(id);
        for survivors in affected {
            let mut instances: Vec<InstanceId> = survivors.iter().map(|g| g.instance).collect();
            instances.sort();
            instances.dedup();
            instances.retain(|i| *i != id);
            self.to_group(&instances, Message::CoupleUpdate { group: survivors }, &mut out);
        }
        self.sever_instance_io(id, &mut out);
        // The record takes its binding, its traffic timestamp or grace
        // deadline, its resume token, and its objects' history stacks,
        // sync bases and access rows with it.
        let record = self.registry.deregister(id);
        let objects = record.as_ref().and_then(|r| r.objects.as_ref());
        self.stats.history_purges += objects.map_or(0, |o| o.history.len()) as u64;
        if let Some(e) = record.and_then(|r| r.endpoint()) {
            self.admission.forget(&e);
        }
        out
    }
}
