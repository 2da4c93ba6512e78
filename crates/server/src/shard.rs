//! The shard router: N [`ServerCore`]s keyed by couple-component.
//!
//! The paper's coupling relation `CO(o)` is a transitive closure, so
//! disjoint couple-components never share locks, history entries, or
//! fan-out legs — a shard boundary *between* components is invisible to
//! the protocol. [`ShardRouter`] exploits that: it forwards each message
//! to the one shard hosting the sender's component and passes the
//! shard's [`Outgoing`] batch through unchanged (the encode-once
//! `SharedFrame` fan-out stays per-shard). It keeps no routing table of
//! its own: the shard an endpoint, an instance or a resume token lives on
//! is the one whose registry holds it, and the registries index all three.
//!
//! The hard part is a cross-shard `Couple`/`RemoteCouple` merging two
//! components. The smaller one moves in one call
//! ([`ShardRouter::migrate`]): it is lifted out of its source core
//! ([`ServerCore::extract_component`]) and absorbed by the target. The
//! router is sans-I/O and runs on one thread, so nothing can reach a
//! component halfway through its move, and no freeze guards it.
//! `Decouple`-driven component splits are rebalanced lazily: one
//! component per [`ShardRouter::tick`] moves from the most- to the
//! least-loaded shard once the spread crosses a threshold.
//! [`ShardRouter::turn`] is the server's whole dispatch step, the one
//! thing a deployment, the simulation and the figures call.

use std::collections::HashSet;
use std::hash::Hash;

use cosoft_net::NetEvent;
use cosoft_wire::{AccessRight, InstanceId, Message, Target};

use crate::overload::OverloadConfig;
use crate::server::{LivenessConfig, Outgoing, ServerCore, ServerStats};

/// Events per [`ShardRouter::turn`]: how long a firehose defers a reply.
const TURN_EVENTS: usize = 256;

/// Router-level counters, next to the aggregated per-core
/// [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Components moved between shards ([`ShardRouter::migrate`]).
    pub handoffs_completed: u64,
    /// Instances moved between shards, totalled over all migrations.
    pub instances_migrated: u64,
    /// Cross-shard couple/copy/event/undo merges performed.
    pub cross_shard_merges: u64,
    /// §3.4 commands delivered across a shard boundary without a merge.
    pub cross_shard_commands: u64,
    /// Replies the router synthesized itself (merged instance lists,
    /// cross-shard coupled-set reads, unreachable-target errors).
    pub router_replies: u64,
    /// Lazy rebalance migrations triggered by post-split imbalance.
    pub rebalances: u64,
}

/// The instances a message references beyond its sender — the ones whose
/// components must be colocated with the sender's shard before the
/// message can be handled by a single core. Empty for every message kind
/// that only touches the sender's own component (or no component at
/// all).
#[deny(clippy::wildcard_enum_match_arm)]
fn merge_refs(msg: &Message) -> Vec<InstanceId> {
    match msg {
        // A decouple colocates like its couple: the link to remove lives
        // with the two objects' component, which need not be the
        // sender's (the paper's teacher decoupling two students).
        Message::Couple { src, dst }
        | Message::Decouple { src, dst }
        | Message::RemoteCouple { a: src, b: dst }
        | Message::RemoteDecouple { a: src, b: dst }
        | Message::CopyFrom { src, dst, .. }
        | Message::CopyTo { src, dst, .. }
        | Message::CopyDelta { src, dst, .. }
        | Message::RemoteCopy { src, dst, .. } => vec![src.instance, dst.instance],
        Message::UndoState { object } | Message::RedoState { object } => vec![object.instance],
        // Answered by the router itself, without moving anything.
        Message::QueryInstances | Message::ListCoupled { .. } | Message::CoSendCommand { .. }
        // The sender's own record, objects and rights.
        | Message::Register { .. }
        | Message::Rejoin { .. }
        | Message::Deregister
        | Message::Ping { .. }
        | Message::Pong { .. }
        | Message::ObjectDestroyed { .. }
        | Message::SetPermission { .. }
        | Message::Event { .. }
        // Answers to what the sender's shard asked of it: the execution
        // or transfer they complete was colocated when it started.
        | Message::ExecuteDone { .. }
        | Message::StateReply { .. }
        | Message::StateApplied { .. }
        // Server-to-client kinds, refused by the sender's core.
        | Message::Welcome { .. }
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
        | Message::Busy { .. } => Vec::new(),
    }
}

/// A set of [`ServerCore`] shards behind one routing facade.
///
/// `Clone` forks the entire sharded database — the schedule-exploring
/// model checker branches the router state at every decision point.
///
/// The cores are reachable from outside only as `&ServerCore`
/// ([`ShardRouter::shard`]), and what moves a component between them or
/// delivers into one on another's behalf is private to this crate: a
/// stray caller could leave one component on two shards. None of these
/// builds:
///
/// ```compile_fail,E0624
/// let mut core: cosoft_server::ServerCore<u64> = cosoft_server::ServerCore::new();
/// let _ = core.extract_component(cosoft_wire::InstanceId(1));
/// ```
///
/// ```compile_fail,E0624
/// fn absorb(core: &mut cosoft_server::ServerCore<u64>, slice: cosoft_server::ComponentSlice<u64>) {
///     core.absorb_component(slice);
/// }
/// ```
///
/// ```compile_fail,E0624
/// let mut core: cosoft_server::ServerCore<u64> = cosoft_server::ServerCore::new();
/// let to = cosoft_wire::Target::Broadcast;
/// let _ = core.deliver_command(cosoft_wire::InstanceId(1), &to, "c", &[]);
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter<E> {
    shards: Vec<ServerCore<E>>,
    /// Round-robin cursor for placing new registrations.
    next_shard: usize,
    /// Registered-instance spread (max − min) that triggers a lazy
    /// rebalance migration at tick time.
    rebalance_threshold: usize,
    stats: RouterStats,
}

impl<E: Copy + Eq + Hash> ShardRouter<E> {
    /// Creates `shards` cores with interleaved id spaces (shard `i`
    /// mints ids `≡ i + 1 mod shards`) and the default liveness policy.
    pub fn new(shards: usize) -> Self {
        ShardRouter::with_liveness(shards, LivenessConfig::default())
    }

    /// Creates `shards` cores sharing an explicit liveness policy.
    pub fn with_liveness(shards: usize, liveness: LivenessConfig) -> Self {
        let n = shards.max(1);
        let cores = (0..n)
            .map(|i| {
                let mut core = ServerCore::with_shard_ids(i as u64, n as u64);
                core.set_liveness(liveness);
                core
            })
            .collect();
        ShardRouter {
            shards: cores,
            next_shard: 0,
            rebalance_threshold: 4,
            stats: RouterStats::default(),
        }
    }

    /// Applies one overload-control policy to every shard core. Budgets
    /// are per-core, so a sharded deployment gives each shard its own
    /// windows while the shed counters compose through
    /// [`ShardRouter::stats`]. Messages the router answers without
    /// forwarding (merged [`Message::QueryInstances`], cross-shard reads
    /// and command delivery) are charged against the *sender's* shard
    /// via [`ServerCore::admit`].
    pub fn set_overload(&mut self, overload: OverloadConfig) {
        for core in &mut self.shards {
            core.set_overload(overload);
        }
    }

    /// Applies one liveness policy to every shard core.
    pub fn set_liveness(&mut self, liveness: LivenessConfig) {
        for core in &mut self.shards {
            core.set_liveness(liveness);
        }
    }

    /// Applies one default access right to every shard core.
    pub fn set_default_right(&mut self, right: AccessRight) {
        for core in &mut self.shards {
            core.set_default_right(right);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard core (tests, invariant checks).
    #[expect(
        clippy::indexing_slicing,
        reason = "indexing accessor; callers pass index < shard_count() by contract"
    )]
    pub fn shard(&self, index: usize) -> &ServerCore<E> {
        &self.shards[index]
    }

    /// The shard core at a routed index. Routed indexes are always in
    /// range: they are positions in the shard vector, which never
    /// shrinks, and [`ShardRouter::migrate`] refuses any other target.
    #[expect(
        clippy::indexing_slicing,
        reason = "routed indexes are positions in shards, which never shrinks"
    )]
    fn core(&self, index: usize) -> &ServerCore<E> {
        &self.shards[index]
    }

    /// Mutable twin of [`ShardRouter::core`], same invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "routed indexes are positions in shards, which never shrinks"
    )]
    fn core_mut(&mut self, index: usize) -> &mut ServerCore<E> {
        &mut self.shards[index]
    }

    /// The shard currently hosting `instance`, if it is registered.
    pub fn shard_of_instance(&self, instance: InstanceId) -> Option<usize> {
        self.shards.iter().position(|s| s.registry().contains(instance))
    }

    /// The shard `endpoint` is bound on, with the instance it speaks for.
    fn sender(&self, endpoint: E) -> Option<(usize, InstanceId)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.registry().instance_at(endpoint).map(|id| (i, id)))
    }

    /// Sets the registered-instance spread that triggers lazy
    /// rebalancing (default 4; the spread must also fit a component of
    /// at most half its size, so migration strictly improves balance).
    pub fn set_rebalance_threshold(&mut self, threshold: usize) {
        self.rebalance_threshold = threshold.max(2);
    }

    /// Router-level counters.
    pub fn router_stats(&self) -> RouterStats {
        self.stats
    }

    /// Aggregated core counters: sums across shards, `max_fanout` as the
    /// maximum. Router-synthesized replies are *not* included — they are
    /// counted in [`RouterStats::router_replies`].
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// Routes one message: to the sender's shard for component-local
    /// traffic, through a component merge for cross-shard references,
    /// or answered by the router itself for multi-shard reads.
    pub fn handle(&mut self, endpoint: E, msg: Message) -> Outgoing<E> {
        if self.shards.len() == 1 {
            return self.core_mut(0).handle(endpoint, msg);
        }
        let Some(sender) = self.sender(endpoint) else {
            let shard = match &msg {
                Message::Register { .. } => {
                    let s = self.next_shard;
                    self.next_shard = (self.next_shard + 1) % self.shards.len();
                    s
                }
                // The token's issuing shard still quarantines the
                // instance; an unknown token is refused alike by any
                // shard.
                Message::Rejoin { resume_token } => {
                    self.shards.iter().position(|s| s.owns_resume_token(*resume_token)).unwrap_or(0)
                }
                _ => 0,
            };
            return self.core_mut(shard).handle(endpoint, msg);
        };
        // A bound sender's own shard refuses its `Register` or `Rejoin`
        // as a single core would.
        let (s0, _) = sender;
        match &msg {
            Message::QueryInstances => self.merged_instance_list(s0, endpoint, &msg),
            Message::ListCoupled { object } => match self.shard_of_instance(object.instance) {
                Some(owner) if owner != s0 => {
                    // Read-only cross-shard query: answer from the
                    // owner's directory without moving anything.
                    if let Some(shed) = self.charge(s0, endpoint, &msg) {
                        return shed;
                    }
                    let coupled = self.core(owner).couples().coupled_with(object);
                    let mut out = Outgoing::new();
                    out.push_unicast(
                        endpoint,
                        Message::CoupledSet { object: object.clone(), coupled },
                    );
                    self.stats.router_replies += 1;
                    out
                }
                _ => self.core_mut(s0).handle(endpoint, msg),
            },
            Message::CoSendCommand { .. } => self.route_command(sender, endpoint, msg),
            _ => {
                let refs = merge_refs(&msg);
                if refs.is_empty() {
                    self.core_mut(s0).handle(endpoint, msg)
                } else {
                    self.colocate_and_forward(sender, endpoint, msg, refs)
                }
            }
        }
    }

    /// Charges `msg`, which the router answers without any core's
    /// `handle`, at the sender's shard: admission, then the liveness
    /// touch. `Some` is the shed reply, sent instead of an answer.
    fn charge(&mut self, shard: usize, endpoint: E, msg: &Message) -> Option<Outgoing<E>> {
        let core = self.core_mut(shard);
        let shed = core.admit(endpoint, msg);
        if shed.is_none() {
            core.touch(endpoint);
        }
        shed
    }

    /// Merges every referenced component (and the sender's) onto one
    /// shard — the one hosting the largest involved component, so the
    /// smaller side pays the migration — then forwards the message
    /// there.
    fn colocate_and_forward(
        &mut self,
        (sender_shard, sender_inst): (usize, InstanceId),
        endpoint: E,
        msg: Message,
        refs: Vec<InstanceId>,
    ) -> Outgoing<E> {
        let mut involved: Vec<(usize, InstanceId, usize)> = Vec::new();
        for r in refs {
            if involved.iter().any(|(_, seen, _)| *seen == r) {
                continue;
            }
            if let Some(s) = self.shard_of_instance(r) {
                if s != sender_shard {
                    involved.push((s, r, self.core(s).component_of(r).len()));
                }
            }
        }
        if involved.is_empty() {
            return self.core_mut(sender_shard).handle(endpoint, msg);
        }
        self.stats.cross_shard_merges += 1;
        let mut target = sender_shard;
        let mut best = self.core(sender_shard).component_of(sender_inst).len();
        for (s, _, size) in &involved {
            if *size > best || (*size == best && *s < target) {
                target = *s;
                best = *size;
            }
        }
        let mut out = Outgoing::new();
        for (_, seed, _) in involved {
            out.extend(self.migrate(seed, target));
        }
        out.extend(self.migrate(sender_inst, target));
        // The sender now lives on the target shard, or still on its own
        // if it won the size contest.
        let home = self.sender(endpoint).map_or(target, |(s, _)| s);
        out.extend(self.core_mut(home).handle(endpoint, msg));
        out
    }

    /// Moves the couple-component of `seed` to shard `target` in one
    /// call: the source core extracts it (`ServerCore::extract_component`)
    /// and the target absorbs it. Returned are the messages that settle
    /// what could not move with it (a round or a copy straddling the
    /// component's edge). A no-op when `seed` is not registered, already
    /// lives on `target`, or `target` is out of range.
    pub fn migrate(&mut self, seed: InstanceId, target: usize) -> Outgoing<E> {
        let Some(source) = self.shard_of_instance(seed) else {
            return Outgoing::new();
        };
        if source == target || target >= self.shards.len() {
            return Outgoing::new();
        }
        let (slice, out) = self.core_mut(source).extract_component(seed);
        self.stats.instances_migrated += slice.len() as u64;
        self.core_mut(target).absorb_component(slice);
        self.stats.handoffs_completed += 1;
        out
    }

    fn merged_instance_list(&mut self, s0: usize, endpoint: E, msg: &Message) -> Outgoing<E> {
        if let Some(shed) = self.charge(s0, endpoint, msg) {
            return shed;
        }
        let mut entries: Vec<cosoft_wire::InstanceInfo> =
            self.shards.iter().flat_map(|s| s.registry().all()).collect();
        entries.sort_by_key(|i| i.instance);
        let mut out = Outgoing::new();
        out.push_unicast(endpoint, Message::InstanceList { entries });
        self.stats.router_replies += 1;
        out
    }

    /// Routes a §3.4 command: a broadcast reaches every shard, and one
    /// aimed at an instance or a group on another shard is delivered
    /// there without moving the sender's component.
    fn route_command(
        &mut self,
        (s0, from): (usize, InstanceId),
        endpoint: E,
        msg: Message,
    ) -> Outgoing<E> {
        let Message::CoSendCommand { to, command, payload } = &msg else {
            return self.core_mut(s0).handle(endpoint, msg);
        };
        let owner = match to {
            Target::Instance(i) => self.shard_of_instance(*i),
            Target::Group(object) => self.shard_of_instance(object.instance),
            Target::Broadcast => {
                let mut others = Outgoing::new();
                for s in (0..self.shards.len()).filter(|&s| s != s0) {
                    self.stats.cross_shard_commands += 1;
                    if let Ok(o) = self.core_mut(s).deliver_command(from, to, command, payload) {
                        others.extend(o);
                    }
                }
                let mut out = self.core_mut(s0).handle(endpoint, msg);
                out.extend(others);
                return out;
            }
        };
        let owner = match owner {
            Some(owner) if owner != s0 => owner,
            _ => return self.core_mut(s0).handle(endpoint, msg),
        };
        if let Some(shed) = self.charge(s0, endpoint, &msg) {
            return shed;
        }
        self.stats.cross_shard_commands += 1;
        match self.core_mut(owner).deliver_command(from, to, command, payload) {
            Ok(out) => out,
            Err(reason) if matches!(to, Target::Instance(_)) => {
                let mut out = Outgoing::new();
                out.push_unicast(
                    endpoint,
                    Message::ErrorReply { context: "co-send-command".into(), reason },
                );
                self.stats.router_replies += 1;
                out
            }
            Err(_) => Outgoing::new(),
        }
    }

    /// Routes a transport disconnect to the shard the endpoint is bound
    /// on.
    pub fn disconnect(&mut self, endpoint: E) -> Outgoing<E> {
        let shard = self.sender(endpoint).map_or(0, |(s, _)| s);
        self.core_mut(shard).disconnect(endpoint)
    }

    /// One dispatch turn: handles at most 256 `events` in order (a
    /// `Connected` counts against that budget and does nothing else),
    /// then runs [`ShardRouter::tick`] at `now_us`. Events past the
    /// budget are left unconsumed in the iterator for the next turn.
    /// Debug builds end every turn with [`ShardRouter::check_invariants`].
    pub fn turn(
        &mut self,
        events: impl IntoIterator<Item = NetEvent<E>>,
        now_us: u64,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        for event in events.into_iter().take(TURN_EVENTS) {
            match event {
                NetEvent::Connected(_) => {}
                NetEvent::Message(endpoint, msg) => out.extend(self.handle(endpoint, msg)),
                NetEvent::Disconnected(endpoint) => out.extend(self.disconnect(endpoint)),
            }
        }
        out.extend(self.tick(now_us));
        debug_assert_eq!(self.check_invariants(), Ok(()), "router invariant violated");
        out
    }

    /// Advances every shard's virtual clock with the same timestamp,
    /// then runs at most one lazy rebalance migration if registered
    /// instances have spread past the threshold.
    pub fn tick(&mut self, now_us: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        for core in &mut self.shards {
            out.extend(core.tick(now_us));
        }
        self.maybe_rebalance(&mut out);
        out
    }

    /// Lazy split rebalancing: when the registered-instance spread
    /// between the fullest and emptiest shard reaches the threshold,
    /// move the largest component that still *improves* balance (size at
    /// most half the spread) from the former to the latter. One
    /// migration per tick, and none while the fuller shard has an
    /// execution round or a transfer in flight, which a migration would
    /// cut in two: a later tick retries.
    fn maybe_rebalance(&mut self, out: &mut Outgoing<E>) {
        if self.shards.len() < 2 {
            return;
        }
        let lens: Vec<usize> = self.shards.iter().map(|s| s.registry().len()).collect();
        let (mut max_i, mut max_len) = (0, 0);
        let (mut min_i, mut min_len) = (0, usize::MAX);
        for (i, &len) in lens.iter().enumerate() {
            if len > max_len {
                max_i = i;
                max_len = len;
            }
            if len < min_len {
                min_i = i;
                min_len = len;
            }
        }
        let gap = max_len.saturating_sub(min_len);
        if gap < self.rebalance_threshold || self.core(max_i).has_work_in_flight() {
            return;
        }
        let mut seen: HashSet<InstanceId> = HashSet::new();
        let mut best: Option<(usize, InstanceId)> = None;
        for id in self.core(max_i).registry().ids() {
            if seen.contains(&id) {
                continue;
            }
            let component = self.core(max_i).component_of(id);
            seen.extend(component.iter().copied());
            let size = component.len();
            if size <= gap / 2 && best.is_none_or(|(b, _)| size > b) {
                best = Some((size, id));
            }
        }
        if let Some((_, seed)) = best {
            out.extend(self.migrate(seed, min_i));
            self.stats.rebalances += 1;
        }
    }

    /// The cross-shard invariant pack, checked by the schedule explorer
    /// after every step of every interleaving:
    ///
    /// * every shard core's own [`ServerCore::check_invariants`];
    /// * an instance is registered on at most one shard, and every couple
    ///   link stays inside one shard's registry — no component ever spans
    ///   shards;
    /// * an endpoint is bound on at most one shard, and a resume token is
    ///   owned by at most one: routes are read off the registries, so each
    ///   must have one answer.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut ids: HashSet<InstanceId> = HashSet::new();
        let mut endpoints: HashSet<E> = HashSet::new();
        let mut tokens: HashSet<u64> = HashSet::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants().map_err(|e| format!("shard {i}: {e}"))?;
            for record in shard.registry().records() {
                let id = record.info.instance;
                if !ids.insert(id) {
                    return Err(format!("instance {id} is registered on two shards"));
                }
                if record.endpoint().is_some_and(|e| !endpoints.insert(e)) {
                    return Err(format!("the endpoint of instance {id} is bound on two shards"));
                }
                if record.token.is_some_and(|t| !tokens.insert(t)) {
                    return Err(format!("the resume token of instance {id} is on two shards"));
                }
            }
            for inst in shard.couples().instances() {
                if !shard.registry().contains(inst) {
                    return Err(format!(
                        "shard {i} holds couple links of instance {inst} it does not host"
                    ));
                }
            }
        }
        Ok(())
    }
}
