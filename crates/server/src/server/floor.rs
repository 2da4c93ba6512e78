//! Floor control (§3.2): the couple relation, and multiple execution of
//! an event under its group's locks.

use std::hash::Hash;

use cosoft_wire::{codec, Bytes, GlobalObjectId, InstanceId, Message, ObjectPath, UiEvent};

use super::{Outgoing, ServerCore};

#[derive(Debug, Clone)]
pub(super) struct ExecState {
    /// Outstanding `ExecuteDone` replies per instance executing the
    /// event, in target order: the origin first, then the members in
    /// group order. `GroupUnlocked` goes to these instances.
    pub(super) owed: Vec<(InstanceId, usize)>,
}

impl ExecState {
    /// Whether every instance has reported its executions done.
    pub(super) fn is_done(&self) -> bool {
        self.owed.iter().all(|(_, n)| *n == 0)
    }
}

impl<E: Copy + Eq + Hash> ServerCore<E> {
    // ---- coupling ---------------------------------------------------------

    pub(super) fn check_objects_exist(&self, objs: &[&GlobalObjectId]) -> Result<(), String> {
        for o in objs {
            if !self.registry.contains(o.instance) {
                return Err(format!("instance {} is not registered", o.instance));
            }
        }
        Ok(())
    }

    pub(super) fn do_couple(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        if let Err(reason) = self.check_objects_exist(&[&src, &dst]) {
            self.to_instance(
                from,
                Message::ErrorReply { context: "couple".into(), reason },
                &mut out,
            );
            return out;
        }
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        for o in [&src, &dst] {
            if !self.right_of(user, o).allows_write() {
                self.to_instance(
                    from,
                    Message::PermissionDenied { what: format!("couple {o}") },
                    &mut out,
                );
                return out;
            }
        }
        self.couples.couple(src.clone(), dst);
        // "The coupling information is replicated for each object": every
        // instance owning a group member receives the full closure —
        // encoded once, delivered to all of them.
        let group = self.couples.group_of(&src);
        let members = self.couples.instances_in_group(&src);
        self.to_group(&members, Message::CoupleUpdate { group }, &mut out);
        out
    }

    pub(super) fn do_decouple(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        if !self.couples.decouple(&src, &dst) {
            self.to_instance(
                from,
                Message::ErrorReply {
                    context: "decouple".into(),
                    reason: format!("no couple link between {src} and {dst}"),
                },
                &mut out,
            );
            return out;
        }
        // The removal may have split the group; notify both halves (they
        // may still be one group if a cycle keeps them connected).
        let group_a = self.couples.group_of(&src);
        let group_b = self.couples.group_of(&dst);
        let split = group_b != group_a;
        let members_a = self.couples.instances_in_group(&src);
        self.to_group(&members_a, Message::CoupleUpdate { group: group_a }, &mut out);
        if split {
            let members_b = self.couples.instances_in_group(&dst);
            self.to_group(&members_b, Message::CoupleUpdate { group: group_b }, &mut out);
        }
        out
    }

    // ---- multiple execution (§3.2) ----------------------------------------

    pub(super) fn do_event(&mut self, from: InstanceId, event: UiEvent, seq: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        // The event occurred on the sender's own object: an `Event` names
        // no instance, so it cannot speak for another instance's object.
        let origin = GlobalObjectId::new(from, event.path.clone());
        if !self.right_of(user, &origin).allows_write() {
            self.to_instance(from, Message::EventRejected { seq }, &mut out);
            self.stats.events_rejected += 1;
            return out;
        }
        // Events inside a coupled complex object route through the
        // enclosing object's couple links: resolve the coupled base and
        // the event path relative to it.
        let base = self.couples.coupled_base_of(&origin).unwrap_or_else(|| origin.clone());
        let rel = origin.path.strip_prefix(&base.path).unwrap_or_else(ObjectPath::root);
        let group = self.couples.group_of(&base);
        let exec_id = self.next_exec;
        if self.locks.try_lock_group(&group, exec_id).is_err() {
            self.stats.events_rejected += 1;
            self.stats.lock_conflicts += 1;
            self.to_instance(from, Message::EventRejected { seq }, &mut out);
            return out;
        }
        self.next_exec += self.id_stride;
        self.stats.events_granted += 1;

        // Origin instance owes one done for its own callback execution.
        let mut owed = vec![(from, 1)];
        self.to_instance(from, Message::EventGranted { seq, exec_id }, &mut out);
        // The event's kind and parameters — the heavy part of
        // `ExecuteEvent` — are encoded once (lazily, in case every other
        // member is quarantined) and spliced behind each leg's tiny
        // header (exec id + target path).
        let mut body: Option<Bytes> = None;
        for member in &group {
            if *member == base {
                continue;
            }
            // A quarantined member can neither execute the event nor send
            // `ExecuteDone`; skip it so the group's locks don't hang on a
            // dead connection. It reconverges by state on rejoin.
            let Some(endpoint) = self.registry.endpoint_of(member.instance) else {
                continue;
            };
            match owed.iter_mut().find(|(i, _)| *i == member.instance) {
                Some((_, n)) => *n += 1,
                None => owed.push((member.instance, 1)),
            }
            let target = member.path.join(&rel);
            let payload = if let Some(b) = &body {
                self.stats.payload_reuses += 1;
                b.clone()
            } else {
                self.stats.payload_encodes += 1;
                body.insert(codec::encode_event_shared(&event)).clone()
            };
            out.push_shared(vec![endpoint], codec::frame_execute_event(exec_id, &target, &payload));
        }
        self.execs.insert(exec_id, ExecState { owed });
        out
    }

    pub(super) fn do_execute_done(&mut self, from: InstanceId, exec_id: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(exec) = self.execs.get_mut(&exec_id) else {
            return out;
        };
        match exec.owed.iter_mut().find(|(i, _)| *i == from) {
            Some((_, n)) if *n > 0 => *n -= 1,
            Some(_) | None => return out, // spurious done; ignore
        }
        if exec.is_done() {
            if let Some(exec) = self.execs.remove(&exec_id) {
                self.finish_exec(exec_id, &exec, &mut out);
            }
        }
        out
    }

    /// Releases an execution's locks and tells every instance that
    /// executed it, with one frame, that its objects may be re-enabled.
    /// Each instance re-enables what it disabled itself.
    ///
    /// The frame goes to the target order rotated by a hash of the exec
    /// id. A fixed order would tell the same instance first every round
    /// (the origin, say, a head start on the next race for the floor),
    /// and the order must be a function of the server's inputs, so that
    /// a seed replays it.
    pub(super) fn finish_exec(&mut self, exec_id: u64, exec: &ExecState, out: &mut Outgoing<E>) {
        self.locks.unlock_exec(exec_id);
        let mut instances: Vec<InstanceId> = exec.owed.iter().map(|(i, _)| *i).collect();
        let first = (exec_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        let first = first.checked_rem(instances.len()).unwrap_or(0);
        instances.rotate_left(first);
        self.to_group(&instances, Message::GroupUnlocked { exec_id }, out);
    }
}
