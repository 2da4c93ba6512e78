//! The COSOFT central server (§2.2, Figure 4).
//!
//! `ServerCore` is written sans-I/O: [`ServerCore::handle`] maps one
//! incoming message to the set of outgoing messages, keyed by a generic
//! endpoint type `E` (a simulated node id or a TCP connection id). The
//! same core therefore drives both the deterministic simulation and the
//! real TCP transport.
//!
//! The server owns the centralized database of §2.2. Three of its four
//! tables hold facts about one object each, and every object belongs to
//! one instance, so they live in that instance's registration record
//! ([`crate::Registry`]): its objects' access rows, their historical UI
//! states ([`crate::HistoryStore`]) and their sync bases. The lock table
//! ([`crate::LockTable`]) and the couple directory, which implements the
//! couple relation and its transitive closure, relate objects of
//! different instances and stand beside the registry.
//!
//! There is one struct, [`ServerCore`], declared here with the message
//! dispatch and the invariant pack. Each protocol is a module of `impl`
//! blocks over it: floor control (`floor`), synchronization by state
//! (`transfer`), client liveness (`liveness`), termination (`teardown`)
//! and shard migration (`migrate`). [`Outgoing`] and [`ServerStats`]
//! stand on their own (`outgoing`, `stats`).

mod floor;
mod liveness;
mod migrate;
mod outgoing;
mod stats;
mod teardown;
mod transfer;

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use cosoft_wire::{
    AccessRight, GlobalObjectId, InstanceId, Message, MessageClass, SharedFrame, Target, UserId,
};

pub use liveness::LivenessConfig;
pub use migrate::ComponentSlice;
pub use outgoing::{Delivery, Outgoing};
pub use stats::ServerStats;
pub(crate) use transfer::SyncBase;

use crate::access::DEFAULT_RIGHT;
use crate::couple::CoupleDirectory;
use crate::history::HistoryStore;
use crate::locks::LockTable;
use crate::overload::{Admission, OverloadConfig, Verdict};
use crate::registry::Registry;
use floor::ExecState;
use transfer::{Carried, Leg, TransferGroup, TransferKind};

/// The sans-I/O COSOFT server state machine.
///
/// `Clone` produces an independent snapshot of the entire database —
/// the schedule-exploring model checker (`crates/server/tests/lock_model.rs`)
/// forks the server state at every branching point of its search.
#[derive(Debug, Clone)]
pub struct ServerCore<E> {
    /// The registration records, each with its objects' sync bases,
    /// history and access rows.
    registry: Registry<E>,
    /// The right a user holds on an object no access row speaks for.
    default_right: AccessRight,
    locks: LockTable,
    couples: CoupleDirectory,
    next_exec: u64,
    next_transfer: u64,
    execs: HashMap<u64, ExecState>,
    /// State transfers in flight. Each group owns its outstanding legs.
    transfer_groups: HashMap<u64, TransferGroup>,
    next_transfer_group: u64,
    /// `req_id` of every outstanding leg → the group that owns it: where
    /// a `StateReply` or `StateApplied` finds what it answers.
    leg_groups: HashMap<u64, u64>,
    /// The monotone counters, bumped in place; the gauges stay zero here
    /// and are read off the tables by [`ServerCore::stats`].
    stats: ServerStats,
    /// Liveness policy (grace period, idle timeout).
    liveness: LivenessConfig,
    /// Virtual clock, advanced by [`ServerCore::tick`].
    now_us: u64,
    /// Counter feeding deterministic token generation.
    next_token_seq: u64,
    /// Admission-control state (token-bucket budgets per endpoint).
    admission: Admission<E>,
    /// Increment applied to every id counter (exec, transfer, transfer
    /// group, token seq). Shard `i` of `n` starts its counters at `i + 1`
    /// with stride `n`, so ids minted by different shards never collide.
    id_stride: u64,
}

impl<E: Copy + Eq + Hash> Default for ServerCore<E> {
    fn default() -> Self {
        ServerCore::new()
    }
}

impl<E: Copy + Eq + Hash> ServerCore<E> {
    /// Creates a server with the permissive default access policy.
    pub fn new() -> Self {
        ServerCore {
            registry: Registry::new(),
            default_right: DEFAULT_RIGHT,
            locks: LockTable::new(),
            couples: CoupleDirectory::new(),
            next_exec: 1,
            next_transfer: 1,
            execs: HashMap::new(),
            transfer_groups: HashMap::new(),
            next_transfer_group: 1,
            leg_groups: HashMap::new(),
            stats: ServerStats::default(),
            liveness: LivenessConfig::default(),
            now_us: 0,
            next_token_seq: 1,
            admission: Admission::new(OverloadConfig::default()),
            id_stride: 1,
        }
    }

    /// Creates shard `index` of `stride` shards: every id this core mints
    /// (instance, exec, transfer, transfer group, resume-token sequence)
    /// stays in the residue class `index + 1` modulo `stride`, so ids
    /// from different shards never collide and a migrated component's
    /// ids can be adopted verbatim. The resume tokens themselves stay
    /// globally unique because SplitMix64 is a bijection on `u64`.
    pub fn with_shard_ids(index: u64, stride: u64) -> Self {
        let stride = stride.max(1);
        let first = index.min(stride - 1) + 1;
        let mut s = Self::new();
        s.registry = Registry::with_id_stride(first, stride);
        s.next_exec = first;
        s.next_transfer = first;
        s.next_transfer_group = first;
        s.next_token_seq = first;
        s.id_stride = stride;
        s
    }

    /// Replaces the default access right; explicit rows stay.
    pub fn set_default_right(&mut self, right: AccessRight) {
        self.default_right = right;
    }

    /// Replaces the liveness policy.
    pub fn set_liveness(&mut self, liveness: LivenessConfig) {
        self.liveness = liveness;
    }

    /// Replaces the overload-control policy. Budget windows restart:
    /// existing strikes and partially-spent budgets are discarded.
    pub fn set_overload(&mut self, overload: OverloadConfig) {
        self.admission.set_config(overload);
    }

    /// The registration records.
    pub fn registry(&self) -> &Registry<E> {
        &self.registry
    }

    /// The couple directory.
    pub fn couples(&self) -> &CoupleDirectory {
        &self.couples
    }

    /// The lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The historical UI states of `instance`'s objects (`None` when it
    /// is not registered here, or nothing has been kept of its objects).
    pub fn history(&self, instance: InstanceId) -> Option<&HistoryStore> {
        self.registry.objects(instance).map(|o| &o.history)
    }

    /// The access rows: every explicit right, as (user, object, right).
    pub fn access_rows(&self) -> impl Iterator<Item = (UserId, GlobalObjectId, AccessRight)> + '_ {
        self.registry.records().flat_map(|r| {
            r.objects.iter().flat_map(|o| &o.access).map(|((user, path), right)| {
                (*user, GlobalObjectId::new(r.info.instance, path.clone()), *right)
            })
        })
    }

    /// Snapshot of the server's observability counters: the counters
    /// as bumped, plus the gauges read off the tables.
    pub fn stats(&self) -> ServerStats {
        // The one walk: over the transfer groups in flight, of which an
        // idle server has none.
        let (mut applies, mut pulls) = (0, 0);
        for leg in self.transfer_groups.values().flat_map(|g| g.legs.values()) {
            match leg {
                Leg::Apply { .. } => applies += 1,
                Leg::Pull { .. } => pulls += 1,
            }
        }
        ServerStats {
            registered_instances: self.registry.len(),
            live_transfer_groups: self.transfer_groups.len(),
            live_transfer_legs: applies,
            live_pending_pulls: pulls,
            live_execs: self.execs.len(),
            held_locks: self.locks.len(),
            quarantined_instances: self.registry.quarantined_len(),
            overload_tracked_endpoints: self.admission.tracked_endpoints(),
            ..self.stats
        }
    }

    /// Whether an execution round or a state transfer is in flight.
    pub(crate) fn has_work_in_flight(&self) -> bool {
        !self.execs.is_empty() || !self.transfer_groups.is_empty()
    }

    /// The couple-component of `id` at instance granularity — the shard
    /// key. Empty when `id` is not registered here; always includes `id`
    /// itself otherwise (an uncoupled instance is a singleton component).
    pub fn component_of(&self, id: InstanceId) -> Vec<InstanceId> {
        if !self.registry.contains(id) {
            return Vec::new();
        }
        let mut members = self.couples.instance_component(id);
        // The BFS only sees instances with coupled objects; keep the
        // component closed over membership regardless.
        members.retain(|m| self.registry.contains(*m));
        if !members.contains(&id) {
            members.push(id);
            members.sort();
        }
        members
    }

    /// The server-wide invariant pack (§2.2/§3.2), promoted from the lock
    /// table's index check into a whole-database consistency audit. The
    /// schedule-exploring checker (`crates/server/tests/lock_model.rs`)
    /// runs it after every step of every explored interleaving; production
    /// message paths run it under `debug_assertions`.
    ///
    /// Checked invariants:
    ///
    /// * registry endpoint and token indexes ↔ instance records agree,
    ///   ids never reused, sync bases hash to their version
    ///   ([`Registry::check_invariants`]). That a quarantined instance is
    ///   registered and unbound, and that traffic timestamps, tokens, sync
    ///   bases, history entries and access rows belong to registered
    ///   instances, needs no check: the record is the only place any of
    ///   them is written;
    /// * lock-table holder map ↔ reverse index agree
    ///   ([`LockTable::check_invariants`]);
    /// * couple links ↔ adjacency agree
    ///   ([`CoupleDirectory::check_invariants`]);
    /// * no lost or leaked locks: every held lock belongs to a live
    ///   multiple-execution round, and every live round still holds at
    ///   least one lock (its group cannot have been unlocked twice);
    /// * no deadlock: locks are acquired atomically per group
    ///   ([`LockTable::try_lock_group`]), so the wait-for graph has no
    ///   edges between execs; what must hold instead is that every
    ///   instance a live round is waiting on (`ExecuteDone` owed) is a
    ///   bound, reachable instance — a round waiting on a dead or
    ///   quarantined connection would hold its group's locks forever;
    /// * transfer accounting: the `req_id` index and the legs the live
    ///   groups own are the same set (a leg indexed after its group was
    ///   dropped would let a late reply resurrect state for a dead
    ///   requester), and every group's requester is registered.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.registry.check_invariants()?;
        self.locks.check_invariants()?;
        self.couples.check_invariants()?;
        // Lock ↔ exec liveness, both directions.
        let mut holders: HashSet<u64> = HashSet::new();
        for (object, exec) in self.locks.held_locks() {
            if !self.execs.contains_key(&exec) {
                return Err(format!("lock on {object} held by finished exec {exec}"));
            }
            holders.insert(exec);
        }
        for (exec_id, exec) in &self.execs {
            if !holders.contains(exec_id) {
                return Err(format!("live exec {exec_id} holds no locks (doubled unlock?)"));
            }
            for (inst, owed) in &exec.owed {
                if *owed > 0 && !self.registry.is_bound(*inst) {
                    return Err(format!(
                        "exec {exec_id} waits on {owed} done(s) from unreachable instance {inst}"
                    ));
                }
            }
        }
        self.check_transfers()
    }

    /// Runs [`ServerCore::check_invariants`] in debug builds, panicking on
    /// violation; compiled out of release builds.
    #[inline]
    fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        #[expect(
            clippy::panic,
            reason = "deliberate debug-build assert, compiled out of release binaries"
        )]
        if let Err(e) = self.check_invariants() {
            panic!("server invariant violated: {e}");
        }
    }

    /// Accounts one incoming message's outgoing batch.
    fn note_outgoing(&mut self, out: &Outgoing<E>) {
        let n = out.message_count();
        self.stats.messages_out += n as u64;
        self.stats.max_fanout = self.stats.max_fanout.max(n);
        for item in out.items() {
            match item {
                Delivery::Unicast(_, m) => {
                    if matches!(m, Message::PermissionDenied { .. }) {
                        self.stats.permission_denials += 1;
                    }
                }
                Delivery::Shared(endpoints, frame) => {
                    self.stats.shared_frames_encoded += 1;
                    self.stats.shared_deliveries += endpoints.len() as u64;
                    self.stats.shared_bytes_encoded += frame.len() as u64;
                    self.stats.shared_bytes_delivered += (frame.len() * endpoints.len()) as u64;
                }
            }
        }
    }

    /// Effective right of `user` on `object`: what the record of the
    /// object's instance says, else the default right.
    fn right_of(&self, user: UserId, object: &GlobalObjectId) -> AccessRight {
        let record = self.registry.record(object.instance);
        record.and_then(|r| r.right_of(user, &object.path)).unwrap_or(self.default_right)
    }

    fn to_instance(&self, id: InstanceId, msg: Message, out: &mut Outgoing<E>) {
        if let Some(e) = self.registry.endpoint_of(id) {
            out.push_unicast(e, msg);
        }
    }

    /// Delivers one identical message to a set of instances. With more
    /// than one reachable endpoint the message is encoded exactly once
    /// into a [`SharedFrame`] fanned out to all of them; with a single
    /// receiver it stays an owned unicast message (pre-framing for one
    /// destination buys nothing).
    fn to_group(&self, instances: &[InstanceId], msg: Message, out: &mut Outgoing<E>) {
        let mut endpoints: Vec<E> =
            instances.iter().filter_map(|id| self.registry.endpoint_of(*id)).collect();
        if endpoints.len() > 1 {
            out.push_shared(endpoints, SharedFrame::from_message(&msg));
        } else if let Some(endpoint) = endpoints.pop() {
            out.push_unicast(endpoint, msg);
        }
    }

    /// Runs admission control for one inbound message without processing
    /// it. `None` admits (and charges the message against the endpoint's
    /// budgets); `Some(out)` sheds, where `out` carries at most one
    /// [`Message::Busy`] advisory per endpoint per budget window and, if
    /// sustained abuse crossed the strike threshold, the §3.2
    /// auto-decoupling fan-out of the evicted sender.
    ///
    /// [`ServerCore::handle`] calls this itself; the only external caller
    /// is the shard router, for messages it answers without forwarding to
    /// a core (merged queries, cross-shard reads and command delivery).
    /// Calling it *and* `handle` for the same message double-charges the
    /// budget.
    pub fn admit(&mut self, endpoint: E, msg: &Message) -> Option<Outgoing<E>> {
        let verdict = self.admission.admit(endpoint, msg, self.now_us);
        let Verdict::Shed { class, reply_busy, escalate } = verdict else {
            return None;
        };
        match class {
            MessageClass::Control => self.stats.overload_sheds_control += 1,
            MessageClass::Bulk => self.stats.overload_sheds_bulk += 1,
            // Liveness is never shed.
            MessageClass::Liveness => {}
        }
        let mut out = Outgoing::new();
        if reply_busy {
            self.stats.busy_replies += 1;
            let retry_after_ms = self.admission.config().retry_after_ms;
            out.push_unicast(endpoint, Message::Busy { retry_after_ms });
        }
        if let Some(id) = self.registry.instance_at(endpoint) {
            // A shed message still proves the peer is alive: keep the
            // idle-timeout clock from quarantining a throttled-but-live
            // client.
            self.registry.touch(id, self.now_us);
            if escalate {
                self.stats.overload_evictions += 1;
                self.admission.forget(&endpoint);
                let evicted = if self.liveness.grace_us > 0 {
                    self.quarantine_instance(id)
                } else {
                    self.deregister_instance(id)
                };
                out.extend(evicted);
            }
        }
        self.note_outgoing(&out);
        self.debug_check_invariants();
        Some(out)
    }

    /// Processes one message from `endpoint`, returning the messages to
    /// send in response (to any endpoints).
    pub fn handle(&mut self, endpoint: E, msg: Message) -> Outgoing<E> {
        // Admission control runs before anything else — including
        // registration, so a pre-registration `Register` flood is shed
        // like any other control traffic.
        if let Some(shed) = self.admit(endpoint, &msg) {
            return shed;
        }
        let out = match (msg, self.registry.instance_at(endpoint)) {
            // Registration and rejoin are the only messages legal before a
            // Welcome.
            (Message::Register { user, host, app_name }, _) => {
                self.do_register(endpoint, user, &host, &app_name)
            }
            (Message::Rejoin { resume_token }, _) => self.do_rejoin(endpoint, resume_token),
            (msg, Some(from)) => {
                self.registry.touch(from, self.now_us);
                self.handle_registered(from, msg)
            }
            (msg, None) => {
                let mut out = Outgoing::new();
                out.push_unicast(
                    endpoint,
                    Message::ErrorReply {
                        context: msg.kind_name().to_owned(),
                        reason: "endpoint is not registered".to_owned(),
                    },
                );
                out
            }
        };
        self.note_outgoing(&out);
        self.debug_check_invariants();
        out
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn handle_registered(&mut self, from: InstanceId, msg: Message) -> Outgoing<E> {
        let mut out = Outgoing::new();
        match msg {
            #[expect(
                clippy::unreachable,
                reason = "handle() dispatches Register/Rejoin before reaching here"
            )]
            Message::Register { .. } | Message::Rejoin { .. } => {
                unreachable!("handled in handle()")
            }
            Message::Ping { nonce } => {
                self.stats.pings += 1;
                self.to_instance(from, Message::Pong { nonce }, &mut out);
            }
            // Any traffic counts as liveness; a Pong needs no reply.
            Message::Pong { .. } => {}
            Message::Deregister => {
                out.extend(self.deregister_instance(from));
            }
            Message::QueryInstances => {
                let entries = self.registry.all();
                self.to_instance(from, Message::InstanceList { entries }, &mut out);
            }
            Message::Couple { src, dst } | Message::RemoteCouple { a: src, b: dst } => {
                out.extend(self.do_couple(from, src, dst));
            }
            Message::Decouple { src, dst } | Message::RemoteDecouple { a: src, b: dst } => {
                out.extend(self.do_decouple(from, src, dst));
            }
            Message::ListCoupled { object } => {
                let coupled = self.couples.coupled_with(&object);
                self.to_instance(from, Message::CoupledSet { object, coupled }, &mut out);
            }
            Message::ObjectDestroyed { object } => {
                match self.registry.objects_mut(from) {
                    Some(objects) if object.instance == from => {
                        // Its rights stay: they inherit down paths, and a
                        // later object at the path is protected alike.
                        if objects.history.forget(&object) {
                            self.stats.history_purges += 1;
                        }
                        objects.sync_bases.remove(&object.path);
                        // Each survivor (and the destroyer) learns the new
                        // grouping of the remaining objects.
                        for o in &self.couples.remove_object(&object) {
                            let group = self.couples.group_of(o);
                            let members = self.couples.instances_in_group(o);
                            self.to_group(&members, Message::CoupleUpdate { group }, &mut out);
                        }
                        self.to_instance(
                            from,
                            Message::CoupleUpdate { group: vec![object] },
                            &mut out,
                        );
                    }
                    _ => {
                        let what = format!("destroy notification for foreign object {object}");
                        self.to_instance(from, Message::PermissionDenied { what }, &mut out);
                    }
                }
            }
            Message::Event { event, seq } => {
                out.extend(self.do_event(from, event, seq));
            }
            Message::ExecuteDone { exec_id } => {
                out.extend(self.do_execute_done(from, exec_id));
            }
            Message::CopyFrom { src, dst, mode, req_id } => {
                out.extend(self.do_copy(from, src, dst, mode, req_id, None));
            }
            Message::RemoteCopy { src, dst, mode, req_id } => {
                out.extend(self.do_copy(from, src, dst, mode, req_id, None));
            }
            Message::CopyTo { src, dst, snapshot, mode, req_id } => {
                let pushed = Carried::whole(SyncBase::of(snapshot));
                out.extend(self.do_copy(from, src, dst, mode, req_id, Some(pushed)));
            }
            Message::CopyDelta { src, dst, base_version, new_version, delta, mode, req_id } => {
                if src.instance != from {
                    self.to_instance(
                        from,
                        Message::PermissionDenied {
                            what: format!("push edits of foreign object {src}"),
                        },
                        &mut out,
                    );
                } else {
                    // Whatever the sender's copy of the base and ours
                    // disagree on, ours goes: the push degrades to a pull
                    // of the state in full, whose reply seeds both anew.
                    let pushed = self.rebuild_push(&src, base_version, new_version, &delta);
                    match pushed {
                        Some(_) => self.stats.pushes_by_delta += 1,
                        None => self.stats.push_fallbacks += 1,
                    }
                    let pushed =
                        pushed.map(|state| Carried { state, edits: Some((base_version, &delta)) });
                    out.extend(self.do_copy(from, src, dst, mode, req_id, pushed));
                }
            }
            Message::StateReply { req_id, snapshot } => {
                out.extend(self.do_state_reply(from, req_id, snapshot));
            }
            Message::StateApplied { req_id, overwritten, error } => {
                out.extend(self.do_state_applied(from, req_id, overwritten, error));
            }
            Message::UndoState { object } => {
                out.extend(self.do_undo(from, object, TransferKind::Undo));
            }
            Message::RedoState { object } => {
                out.extend(self.do_undo(from, object, TransferKind::Redo));
            }
            Message::SetPermission { user, object, right } => {
                match self.registry.objects_mut(from) {
                    Some(objects) if object.instance == from => {
                        objects.access.insert((user, object.path), right);
                    }
                    _ => {
                        let what = format!("set-permission on {object} (not the owner)");
                        self.to_instance(from, Message::PermissionDenied { what }, &mut out);
                    }
                }
            }
            Message::CoSendCommand { to, command, payload } => {
                out.extend(self.do_command(from, to, command, payload));
            }
            // Server-originated kinds arriving at the server are protocol
            // misuse; answer with an error instead of panicking. The
            // variants are listed exhaustively — no wildcard, which the
            // clippy attribute on this function refuses — so adding a
            // `Message` variant without deciding its dispatch here is a
            // compile error.
            unexpected @ (Message::Welcome { .. }
            | Message::InstanceList { .. }
            | Message::SessionToken { .. }
            | Message::CoupleUpdate { .. }
            | Message::CoupledSet { .. }
            | Message::EventGranted { .. }
            | Message::EventRejected { .. }
            | Message::ExecuteEvent { .. }
            | Message::GroupUnlocked { .. }
            | Message::StateRequest { .. }
            | Message::ApplyState { .. }
            | Message::ApplyDelta { .. }
            | Message::PermissionDenied { .. }
            | Message::CommandDelivery { .. }
            | Message::ErrorReply { .. }
            | Message::Busy { .. }) => {
                self.stats.unexpected_messages += 1;
                self.to_instance(
                    from,
                    Message::ErrorReply {
                        context: unexpected.kind_name().to_owned(),
                        reason: "message kind is server-to-client only".to_owned(),
                    },
                    &mut out,
                );
            }
        }
        out
    }

    // ---- protocol extension (§3.4) ------------------------------------------

    fn do_command(
        &mut self,
        from: InstanceId,
        to: Target,
        command: String,
        payload: Vec<u8>,
    ) -> Outgoing<E> {
        match self.command_out(from, &to, &command, &payload) {
            Ok(out) => out,
            Err(reason) => {
                let mut out = Outgoing::new();
                self.to_instance(
                    from,
                    Message::ErrorReply { context: "co-send-command".into(), reason },
                    &mut out,
                );
                out
            }
        }
    }

    /// Delivers a §3.4 application command on this core's local members
    /// on behalf of `from`, which may be registered on *another* shard:
    /// the shard router fans `Target::Broadcast` to every shard and
    /// routes `Target::Instance`/`Target::Group` to the shard hosting
    /// the target, without migrating the sender's component for a
    /// fire-and-forget delivery.
    ///
    /// # Errors
    ///
    /// Returns the reason an instance-targeted command was undeliverable
    /// (unknown here, or quarantined); the caller owns the sender's
    /// endpoint and builds the `ErrorReply`.
    pub(crate) fn deliver_command(
        &mut self,
        from: InstanceId,
        to: &Target,
        command: &str,
        payload: &[u8],
    ) -> Result<Outgoing<E>, String> {
        let result = self.command_out(from, to, command, payload);
        if let Ok(out) = &result {
            self.note_outgoing(out);
        }
        self.debug_check_invariants();
        result
    }

    fn command_out(
        &mut self,
        from: InstanceId,
        to: &Target,
        command: &str,
        payload: &[u8],
    ) -> Result<Outgoing<E>, String> {
        let mut out = Outgoing::new();
        let delivery = |command: &str, payload: &[u8]| Message::CommandDelivery {
            from,
            command: command.to_owned(),
            payload: payload.to_vec(),
        };
        match to {
            &Target::Instance(i) => {
                if self.registry.is_bound(i) {
                    self.to_instance(i, delivery(command, payload), &mut out);
                } else {
                    // Unknown or quarantined: either way the command cannot
                    // be delivered right now, and commands are not queued.
                    return Err(format!("instance {i} is not reachable"));
                }
            }
            Target::Broadcast => {
                let others: Vec<InstanceId> =
                    self.registry.ids().into_iter().filter(|i| *i != from).collect();
                self.to_group(&others, delivery(command, payload), &mut out);
            }
            Target::Group(object) => {
                let members: Vec<InstanceId> = self
                    .couples
                    .instances_in_group(object)
                    .into_iter()
                    .filter(|i| *i != from)
                    .collect();
                self.to_group(&members, delivery(command, payload), &mut out);
            }
        }
        Ok(out)
    }
}
