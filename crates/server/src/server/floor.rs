//! Floor control (§3.2): the couple relation, and multiple execution of
//! an event under its group's locks.

use std::collections::HashMap;
use std::hash::Hash;

use cosoft_wire::{codec, Bytes, GlobalObjectId, InstanceId, Message, ObjectPath};

use super::{Outgoing, ServerCore};

#[derive(Debug, Clone)]
pub(super) struct ExecState {
    /// The object each instance actually executed on: the member base
    /// joined with the event's path relative to the origin's base. These
    /// are the paths clients disabled, so `GroupUnlocked` must list them.
    pub(super) targets: Vec<GlobalObjectId>,
    /// Outstanding `ExecuteDone` replies per instance.
    pub(super) owed: HashMap<InstanceId, usize>,
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

    pub(super) fn do_event(
        &mut self,
        from: InstanceId,
        origin: GlobalObjectId,
        event: cosoft_wire::UiEvent,
        seq: u64,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
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

        let mut owed: HashMap<InstanceId, usize> = HashMap::new();
        let mut targets = Vec::with_capacity(group.len());
        // Origin instance owes one done for its own callback execution.
        *owed.entry(from).or_insert(0) += 1;
        targets.push(origin.clone());
        self.to_instance(from, Message::EventGranted { seq, exec_id }, &mut out);
        // The event body — the heavy part of `ExecuteEvent` — is encoded
        // once (lazily, in case every other member is quarantined) and
        // spliced behind each leg's tiny header (exec id + target path).
        let mut event_bytes: Option<Bytes> = None;
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
            *owed.entry(member.instance).or_insert(0) += 1;
            let target = member.path.join(&rel);
            targets.push(GlobalObjectId::new(member.instance, target.clone()));
            let payload = if let Some(b) = &event_bytes {
                self.stats.payload_reuses += 1;
                b.clone()
            } else {
                self.stats.payload_encodes += 1;
                event_bytes.insert(codec::encode_event_shared(&event)).clone()
            };
            out.push_shared(vec![endpoint], codec::frame_execute_event(exec_id, &target, &payload));
        }
        self.execs.insert(exec_id, ExecState { targets, owed });
        out
    }

    pub(super) fn do_execute_done(&mut self, from: InstanceId, exec_id: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(exec) = self.execs.get_mut(&exec_id) else {
            return out;
        };
        match exec.owed.get_mut(&from) {
            Some(n) if *n > 0 => *n -= 1,
            Some(_) | None => return out, // spurious done; ignore
        }
        if exec.owed.values().all(|&n| n == 0) {
            if let Some(exec) = self.execs.remove(&exec_id) {
                self.finish_exec(exec_id, &exec.targets, &mut out);
            }
        }
        out
    }

    pub(super) fn finish_exec(
        &mut self,
        exec_id: u64,
        targets: &[GlobalObjectId],
        out: &mut Outgoing<E>,
    ) {
        self.locks.unlock_exec(exec_id);
        // Tell each involved instance which of its local objects to
        // re-enable: the paths the event actually executed on.
        let mut per_instance: HashMap<InstanceId, Vec<ObjectPath>> = HashMap::new();
        for t in targets {
            per_instance.entry(t.instance).or_default().push(t.path.clone());
        }
        for (inst, objects) in per_instance {
            self.to_instance(inst, Message::GroupUnlocked { exec_id, objects }, out);
        }
    }
}
