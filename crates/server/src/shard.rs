//! The shard router: N [`ServerCore`]s keyed by couple-component.
//!
//! The paper's coupling relation `CO(o)` is a transitive closure, so
//! disjoint couple-components never share locks, history entries, or
//! fan-out legs — a shard boundary *between* components is invisible to
//! the protocol. [`ShardRouter`] exploits that: it owns the
//! instance→shard, endpoint→shard, and resume-token→shard maps, forwards
//! each message to the one shard hosting the sender's component, and
//! passes the shard's [`Outgoing`] batch through unchanged (the
//! encode-once `SharedFrame` fan-out stays per-shard).
//!
//! The hard part is a cross-shard `Couple`/`RemoteCouple` merging two
//! components. That runs as an explicit two-phase handoff:
//!
//! 1. **freeze** ([`ShardRouter::begin_handoff`]): the smaller
//!    component's bound endpoints are marked frozen; their traffic is
//!    buffered by the router instead of reaching any core;
//! 2. **migrate + release** ([`ShardRouter::complete_handoff`]): the
//!    component is lifted out of its source core
//!    ([`ServerCore::extract_component`]), absorbed by the target, the
//!    routes rebound, and the buffered traffic replayed against the new
//!    home.
//!
//! Message-driven merges run both phases back to back (the router is
//! sans-I/O, so nothing can interleave); the threaded runtime and the
//! schedule-exploring tests drive the phases separately to exercise
//! mutations that land mid-freeze. `Decouple`-driven component splits
//! are rebalanced lazily: one component per [`ShardRouter::tick`] moves
//! from the most- to the least-loaded shard once the spread crosses a
//! threshold.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use cosoft_wire::{InstanceId, Message, Target};

use crate::overload::OverloadConfig;
use crate::server::{LivenessConfig, Outgoing, RouteEvent, ServerCore, ServerStats};

/// Traffic buffered for a frozen endpoint during a handoff.
#[derive(Debug, Clone)]
enum Buffered<E> {
    Message(E, Message),
    Disconnect(E),
}

/// One in-flight two-phase component handoff.
#[derive(Debug, Clone)]
struct Handoff<E> {
    source: usize,
    target: usize,
    seed: InstanceId,
    frozen_endpoints: Vec<E>,
    buffered: Vec<Buffered<E>>,
}

/// Router-level counters, next to the aggregated per-core
/// [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Two-phase handoffs begun (freeze placed).
    pub handoffs_started: u64,
    /// Handoffs that completed with a migration (the component still
    /// existed at phase two).
    pub handoffs_completed: u64,
    /// Instances moved between shards, totalled over all handoffs.
    pub instances_migrated: u64,
    /// Cross-shard couple/copy/event/undo merges performed.
    pub cross_shard_merges: u64,
    /// §3.4 commands delivered across a shard boundary without a merge.
    pub cross_shard_commands: u64,
    /// Replies the router synthesized itself (merged instance lists,
    /// cross-shard coupled-set reads, unreachable-target errors).
    pub router_replies: u64,
    /// Messages and disconnects buffered because their endpoint was
    /// frozen mid-handoff.
    pub buffered_while_frozen: u64,
    /// Lazy rebalance migrations triggered by post-split imbalance.
    pub rebalances: u64,
}

/// The instances a message references beyond its sender — the ones whose
/// components must be colocated with the sender's shard before the
/// message can be handled by a single core. Empty for every message kind
/// that only touches the sender's own component (or no component at
/// all). Shared by the sans-I/O router and the threaded dispatcher in
/// `src/runtime.rs` so the two agree on which messages can merge shards.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn merge_refs(msg: &Message) -> Vec<InstanceId> {
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
        Message::Event { origin, .. } => vec![origin.instance],
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
/// ([`ShardRouter::shard`]), and what moves a component between them,
/// delivers into one on another's behalf or drains its route log
/// (`extract_component`, `absorb_component`, `deliver_command`,
/// `take_route_events`) is private to this crate: a stray caller would
/// leave the routing maps describing a core that has changed under
/// them. This does not build:
///
/// ```compile_fail,E0624
/// let mut core: cosoft_server::ServerCore<u64> = cosoft_server::ServerCore::new();
/// let _ = core.extract_component(cosoft_wire::InstanceId(1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter<E> {
    shards: Vec<ServerCore<E>>,
    endpoint_shard: HashMap<E, usize>,
    instance_shard: HashMap<InstanceId, usize>,
    token_shard: HashMap<u64, usize>,
    /// Round-robin cursor for placing new registrations.
    next_shard: usize,
    /// Endpoint → the handoff currently freezing it.
    frozen: HashMap<E, u64>,
    handoffs: HashMap<u64, Handoff<E>>,
    next_handoff: u64,
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
                core.enable_route_log();
                core
            })
            .collect();
        ShardRouter {
            shards: cores,
            endpoint_shard: HashMap::new(),
            instance_shard: HashMap::new(),
            token_shard: HashMap::new(),
            next_shard: 0,
            frozen: HashMap::new(),
            handoffs: HashMap::new(),
            next_handoff: 1,
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

    /// The shard core at a routed index. Indexes stored in the routing
    /// maps are always in range: they are only ever written from live
    /// shard positions and the shard vector never shrinks.
    #[expect(
        clippy::indexing_slicing,
        reason = "routing maps only hold indexes < shards.len() and shards never shrinks"
    )]
    fn core(&self, index: usize) -> &ServerCore<E> {
        &self.shards[index]
    }

    /// Mutable twin of [`ShardRouter::core`], same invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "routing maps only hold indexes < shards.len() and shards never shrinks"
    )]
    fn core_mut(&mut self, index: usize) -> &mut ServerCore<E> {
        &mut self.shards[index]
    }

    /// The shard currently hosting `instance`, if it is registered.
    pub fn shard_of_instance(&self, instance: InstanceId) -> Option<usize> {
        self.instance_shard.get(&instance).copied()
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

    /// Forwards to one shard and keeps the routing maps exactly in sync
    /// from the core's route log.
    fn forward(&mut self, shard: usize, endpoint: E, msg: Message) -> Outgoing<E> {
        let out = self.core_mut(shard).handle(endpoint, msg);
        self.apply_route_events(shard);
        out
    }

    fn apply_route_events(&mut self, shard: usize) {
        for event in self.core_mut(shard).take_route_events() {
            match event {
                RouteEvent::Bound { instance, endpoint } => {
                    self.instance_shard.insert(instance, shard);
                    self.endpoint_shard.insert(endpoint, shard);
                }
                RouteEvent::Unbound { endpoint, .. } => {
                    self.endpoint_shard.remove(&endpoint);
                }
                RouteEvent::Deregistered { instance, endpoint } => {
                    self.instance_shard.remove(&instance);
                    if let Some(e) = endpoint {
                        self.endpoint_shard.remove(&e);
                    }
                }
                RouteEvent::TokenIssued { token, .. } => {
                    self.token_shard.insert(token, shard);
                }
                RouteEvent::TokenRetired { token } => {
                    self.token_shard.remove(&token);
                }
            }
        }
    }

    /// Routes one message: to the sender's shard for component-local
    /// traffic, through a component merge for cross-shard references,
    /// or answered by the router itself for multi-shard reads.
    pub fn handle(&mut self, endpoint: E, msg: Message) -> Outgoing<E> {
        if let Some(handoff_id) = self.frozen.get(&endpoint).copied() {
            self.stats.buffered_while_frozen += 1;
            if let Some(h) = self.handoffs.get_mut(&handoff_id) {
                h.buffered.push(Buffered::Message(endpoint, msg));
            }
            return Outgoing::new();
        }
        if self.shards.len() == 1 {
            return self.forward(0, endpoint, msg);
        }
        match msg {
            Message::Register { .. } => {
                let shard = match self.endpoint_shard.get(&endpoint) {
                    Some(&s) => s,
                    None => {
                        let s = self.next_shard;
                        self.next_shard = (self.next_shard + 1) % self.shards.len();
                        s
                    }
                };
                self.forward(shard, endpoint, msg)
            }
            Message::Rejoin { resume_token } => {
                // The token's issuing shard still quarantines the
                // instance; an unknown token is rejected identically by
                // any shard.
                let shard = self
                    .token_shard
                    .get(&resume_token)
                    .or_else(|| self.endpoint_shard.get(&endpoint))
                    .copied()
                    .unwrap_or(0);
                self.forward(shard, endpoint, msg)
            }
            Message::QueryInstances => self.merged_instance_list(endpoint),
            Message::ListCoupled { object } => {
                let Some(&s0) = self.endpoint_shard.get(&endpoint) else {
                    return self.forward(0, endpoint, Message::ListCoupled { object });
                };
                match self.instance_shard.get(&object.instance).copied() {
                    Some(owner) if owner != s0 => {
                        // Read-only cross-shard query: answer from the
                        // owner's directory without moving anything. No
                        // core `handle` runs, so charge admission at the
                        // sender's shard first.
                        let probe = Message::ListCoupled { object: object.clone() };
                        if let Some(shed) = self.core_mut(s0).admit(endpoint, &probe) {
                            self.apply_route_events(s0);
                            return shed;
                        }
                        self.core_mut(s0).touch(endpoint);
                        let coupled = self.core(owner).couples().coupled_with(&object);
                        let mut out = Outgoing::new();
                        out.push_unicast(endpoint, Message::CoupledSet { object, coupled });
                        self.stats.router_replies += 1;
                        out
                    }
                    _ => self.forward(s0, endpoint, Message::ListCoupled { object }),
                }
            }
            Message::CoSendCommand { to, command, payload } => {
                self.route_command(endpoint, to, command, payload)
            }
            other => {
                let refs = merge_refs(&other);
                match self.endpoint_shard.get(&endpoint).copied() {
                    None => self.forward(0, endpoint, other),
                    Some(s0) if refs.is_empty() => self.forward(s0, endpoint, other),
                    Some(s0) => self.colocate_and_forward(s0, endpoint, other, refs),
                }
            }
        }
    }

    /// Merges every referenced component (and the sender's) onto one
    /// shard — the one hosting the largest involved component, so the
    /// smaller side pays the migration — then forwards the message
    /// there.
    fn colocate_and_forward(
        &mut self,
        sender_shard: usize,
        endpoint: E,
        msg: Message,
        refs: Vec<InstanceId>,
    ) -> Outgoing<E> {
        let mut involved: Vec<(usize, InstanceId, usize)> = Vec::new();
        for r in refs {
            if involved.iter().any(|(_, seen, _)| *seen == r) {
                continue;
            }
            if let Some(&s) = self.instance_shard.get(&r) {
                if s != sender_shard {
                    involved.push((s, r, self.core(s).component_of(r).len()));
                }
            }
        }
        if involved.is_empty() {
            return self.forward(sender_shard, endpoint, msg);
        }
        self.stats.cross_shard_merges += 1;
        let sender_inst = self.core(sender_shard).registry().instance_at(endpoint);
        let sender_size =
            sender_inst.map(|i| self.core(sender_shard).component_of(i).len()).unwrap_or(0);
        let mut target = sender_shard;
        let mut best = sender_size;
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
        if target != sender_shard {
            if let Some(seed) = sender_inst {
                out.extend(self.migrate(seed, target));
            }
        }
        // The sender's endpoint now routes to the target shard (or still
        // to its own, if it won the size contest).
        let home = self.endpoint_shard.get(&endpoint).copied().unwrap_or(target);
        out.extend(self.forward(home, endpoint, msg));
        out
    }

    /// Begin + complete in one call; a failed begin (already colocated,
    /// or the component vanished) is a no-op.
    fn migrate(&mut self, seed: InstanceId, target: usize) -> Outgoing<E> {
        match self.begin_handoff(seed, target) {
            Ok(handoff) => self.complete_handoff(handoff),
            Err(_) => Outgoing::new(),
        }
    }

    fn merged_instance_list(&mut self, endpoint: E) -> Outgoing<E> {
        let Some(&s0) = self.endpoint_shard.get(&endpoint) else {
            return self.forward(0, endpoint, Message::QueryInstances);
        };
        // Router-synthesized reply: charge admission at the sender's
        // shard explicitly, since no core `handle` runs for this message.
        if let Some(shed) = self.core_mut(s0).admit(endpoint, &Message::QueryInstances) {
            self.apply_route_events(s0);
            return shed;
        }
        self.core_mut(s0).touch(endpoint);
        let mut entries: Vec<cosoft_wire::InstanceInfo> =
            self.shards.iter().flat_map(|s| s.registry().all()).collect();
        entries.sort_by_key(|i| i.instance);
        let mut out = Outgoing::new();
        out.push_unicast(endpoint, Message::InstanceList { entries });
        self.stats.router_replies += 1;
        out
    }

    fn route_command(
        &mut self,
        endpoint: E,
        to: Target,
        command: String,
        payload: Vec<u8>,
    ) -> Outgoing<E> {
        let rebuild = |to: Target, command: String, payload: Vec<u8>| Message::CoSendCommand {
            to,
            command,
            payload,
        };
        let Some(&s0) = self.endpoint_shard.get(&endpoint) else {
            return self.forward(0, endpoint, rebuild(to, command, payload));
        };
        let Some(from) = self.core(s0).registry().instance_at(endpoint) else {
            return self.forward(s0, endpoint, rebuild(to, command, payload));
        };
        match to {
            Target::Instance(i) => match self.instance_shard.get(&i).copied() {
                Some(owner) if owner != s0 => {
                    // Cross-shard delivery bypasses the sender core's
                    // `handle`: charge admission there explicitly.
                    let probe = Message::CoSendCommand {
                        to: Target::Instance(i),
                        command: command.clone(),
                        payload: payload.clone(),
                    };
                    if let Some(shed) = self.core_mut(s0).admit(endpoint, &probe) {
                        self.apply_route_events(s0);
                        return shed;
                    }
                    self.core_mut(s0).touch(endpoint);
                    self.stats.cross_shard_commands += 1;
                    match self.core_mut(owner).deliver_command(
                        from,
                        Target::Instance(i),
                        &command,
                        &payload,
                    ) {
                        Ok(out) => out,
                        Err(reason) => {
                            let mut out = Outgoing::new();
                            out.push_unicast(
                                endpoint,
                                Message::ErrorReply { context: "co-send-command".into(), reason },
                            );
                            self.stats.router_replies += 1;
                            out
                        }
                    }
                }
                _ => self.forward(s0, endpoint, rebuild(Target::Instance(i), command, payload)),
            },
            Target::Broadcast => {
                let mut out = self.forward(
                    s0,
                    endpoint,
                    rebuild(Target::Broadcast, command.clone(), payload.clone()),
                );
                for s in 0..self.shards.len() {
                    if s == s0 {
                        continue;
                    }
                    self.stats.cross_shard_commands += 1;
                    if let Ok(o) = self.core_mut(s).deliver_command(
                        from,
                        Target::Broadcast,
                        &command,
                        &payload,
                    ) {
                        out.extend(o);
                    }
                }
                out
            }
            Target::Group(object) => match self.instance_shard.get(&object.instance).copied() {
                Some(owner) if owner != s0 => {
                    let probe = Message::CoSendCommand {
                        to: Target::Group(object.clone()),
                        command: command.clone(),
                        payload: payload.clone(),
                    };
                    if let Some(shed) = self.core_mut(s0).admit(endpoint, &probe) {
                        self.apply_route_events(s0);
                        return shed;
                    }
                    self.core_mut(s0).touch(endpoint);
                    self.stats.cross_shard_commands += 1;
                    self.core_mut(owner)
                        .deliver_command(from, Target::Group(object), &command, &payload)
                        .unwrap_or_else(|_| Outgoing::new())
                }
                _ => self.forward(s0, endpoint, rebuild(Target::Group(object), command, payload)),
            },
        }
    }

    /// Routes a transport disconnect. Frozen endpoints buffer the
    /// disconnect for replay after the handoff completes.
    pub fn disconnect(&mut self, endpoint: E) -> Outgoing<E> {
        if let Some(handoff_id) = self.frozen.get(&endpoint).copied() {
            self.stats.buffered_while_frozen += 1;
            if let Some(h) = self.handoffs.get_mut(&handoff_id) {
                h.buffered.push(Buffered::Disconnect(endpoint));
            }
            return Outgoing::new();
        }
        let shard = self.endpoint_shard.get(&endpoint).copied().unwrap_or(0);
        let out = self.core_mut(shard).disconnect(endpoint);
        self.apply_route_events(shard);
        out
    }

    /// Advances every shard's virtual clock with the same timestamp,
    /// then runs at most one lazy rebalance migration if registered
    /// instances have spread past the threshold.
    pub fn tick(&mut self, now_us: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        for shard in 0..self.shards.len() {
            out.extend(self.core_mut(shard).tick(now_us));
            self.apply_route_events(shard);
        }
        self.maybe_rebalance(&mut out);
        out
    }

    /// Phase one of a component handoff: freezes the couple-component of
    /// `seed` on its current shard. Traffic from the component's bound
    /// endpoints is buffered by the router until
    /// [`ShardRouter::complete_handoff`] replays it against the new
    /// home. Returns the handoff id.
    ///
    /// # Errors
    ///
    /// Rejects an unknown `seed`, a `target` out of range, a component
    /// already hosted by `target` (merging already-merged components is
    /// an idempotent no-op at the call site above), and a component with
    /// an endpoint already frozen by another in-flight handoff.
    pub fn begin_handoff(&mut self, seed: InstanceId, target: usize) -> Result<u64, String> {
        if target >= self.shards.len() {
            return Err(format!("no shard {target}"));
        }
        let Some(&source) = self.instance_shard.get(&seed) else {
            return Err(format!("instance {seed} is not registered on any shard"));
        };
        if source == target {
            return Err(format!("component of {seed} already lives on shard {target}"));
        }
        let members = self.core(source).component_of(seed);
        let mut frozen_endpoints = Vec::new();
        for m in &members {
            if let Some(e) = self.core(source).registry().endpoint_of(*m) {
                if self.frozen.contains_key(&e) {
                    // Roll back this handoff's marks before bailing.
                    for fe in &frozen_endpoints {
                        self.frozen.remove(fe);
                    }
                    return Err(format!("component of {seed} is already mid-handoff"));
                }
                frozen_endpoints.push(e);
            }
        }
        let id = self.next_handoff;
        self.next_handoff += 1;
        for e in &frozen_endpoints {
            self.frozen.insert(*e, id);
        }
        self.handoffs
            .insert(id, Handoff { source, target, seed, frozen_endpoints, buffered: Vec::new() });
        self.stats.handoffs_started += 1;
        Ok(id)
    }

    /// Phase two of a component handoff: migrates the (possibly mutated)
    /// component, rebinds its routes, and replays the traffic buffered
    /// during the freeze. The component membership is recomputed at this
    /// point — members coupled in or decoupled away during the freeze
    /// migrate by their membership *now*, and a component whose seed
    /// vanished mid-freeze (its requester died) is simply not migrated.
    /// Unknown handoff ids are a no-op, so completing twice is safe.
    pub fn complete_handoff(&mut self, handoff_id: u64) -> Outgoing<E> {
        let Some(h) = self.handoffs.remove(&handoff_id) else {
            return Outgoing::new();
        };
        for e in &h.frozen_endpoints {
            if self.frozen.get(e) == Some(&handoff_id) {
                self.frozen.remove(e);
            }
        }
        let mut out = Outgoing::new();
        if self.core(h.source).registry().contains(h.seed) {
            let (slice, side) = self.core_mut(h.source).extract_component(h.seed);
            out.extend(side);
            self.stats.instances_migrated += slice.len() as u64;
            for inst in slice.instances() {
                self.instance_shard.insert(inst, h.target);
            }
            for (_, e) in slice.bound_endpoints() {
                self.endpoint_shard.insert(e, h.target);
            }
            for token in slice.resume_tokens() {
                self.token_shard.insert(token, h.target);
            }
            self.core_mut(h.target).absorb_component(slice);
            self.stats.handoffs_completed += 1;
        }
        for b in h.buffered {
            match b {
                Buffered::Message(e, m) => out.extend(self.handle(e, m)),
                Buffered::Disconnect(e) => out.extend(self.disconnect(e)),
            }
        }
        out
    }

    /// Lazy split rebalancing: when the registered-instance spread
    /// between the fullest and emptiest shard reaches the threshold,
    /// move the largest component that still *improves* balance (size at
    /// most half the spread) from the former to the latter. One
    /// migration per tick; never while an explicit handoff is open.
    fn maybe_rebalance(&mut self, out: &mut Outgoing<E>) {
        if self.shards.len() < 2 || !self.handoffs.is_empty() {
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
        if gap < self.rebalance_threshold {
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
    /// * registries are pairwise disjoint (an instance lives on exactly
    ///   one shard) and every couple link stays inside one shard's
    ///   registry — no component ever spans shards;
    /// * the instance→shard, endpoint→shard, and token→shard maps agree
    ///   exactly with the shard registries/token tables in both
    ///   directions;
    /// * every frozen endpoint belongs to an open handoff.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut all_ids: HashSet<InstanceId> = HashSet::new();
        let mut token_total = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants().map_err(|e| format!("shard {i}: {e}"))?;
            for id in shard.registry().ids() {
                if !all_ids.insert(id) {
                    return Err(format!("instance {id} is registered on two shards"));
                }
                if self.instance_shard.get(&id) != Some(&i) {
                    return Err(format!("instance {id} on shard {i} is not routed there"));
                }
                if let Some(e) = shard.registry().endpoint_of(id) {
                    if self.endpoint_shard.get(&e) != Some(&i) {
                        return Err(format!(
                            "bound endpoint of instance {id} is not routed to shard {i}"
                        ));
                    }
                }
            }
            for inst in shard.couples().instances() {
                if !shard.registry().contains(inst) {
                    return Err(format!(
                        "shard {i} holds couple links of instance {inst} it does not host"
                    ));
                }
            }
            token_total += shard.token_count();
        }
        for (&id, &s) in &self.instance_shard {
            if self.shards.get(s).is_none_or(|sh| !sh.registry().contains(id)) {
                return Err(format!("route for instance {id} points at shard {s} which lacks it"));
            }
        }
        for &s in self.endpoint_shard.values() {
            if s >= self.shards.len() {
                return Err(format!("endpoint routed to nonexistent shard {s}"));
            }
        }
        let bound: usize =
            self.shards.iter().map(|s| s.registry().len() - s.registry().quarantined_len()).sum();
        if self.endpoint_shard.len() != bound {
            return Err("endpoint routing map disagrees with the shard registries".into());
        }
        for (&token, &s) in &self.token_shard {
            if self.shards.get(s).is_none_or(|sh| !sh.owns_resume_token(token)) {
                return Err(format!(
                    "route for token {token:#x} points at shard {s} which lacks it"
                ));
            }
        }
        if token_total != self.token_shard.len() {
            return Err(format!(
                "{token_total} tokens issued across shards but {} routed",
                self.token_shard.len()
            ));
        }
        for handoff_id in self.frozen.values() {
            if !self.handoffs.contains_key(handoff_id) {
                return Err(format!("frozen endpoint references closed handoff {handoff_id}"));
            }
        }
        Ok(())
    }
}
