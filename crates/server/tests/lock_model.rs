//! Bounded-exhaustive schedule exploration of the floor-control lock
//! algorithm (paper §4), driven by the explorer in `support/explore.rs`.
//!
//! The model wraps the real [`ServerCore`] — the same state machine the
//! simulation and the TCP transport run — with N simulated clients
//! issuing `Event` submissions, delivering their owed `ExecuteDone`
//! acknowledgements, and disconnecting, over *overlapping* CO(o)
//! groups. The explorer enumerates every interleaving of those client
//! actions up to the configured bounds and runs the server-wide
//! invariant pack ([`ServerCore::check_invariants`]) after every single
//! step; at every quiescent state it additionally asserts the terminal
//! conditions: all locks drained (no lost unlocks), every submitted
//! event settled exactly once as granted or rejected (no doubled
//! grants), and the registry holding exactly the surviving clients.
//!
//! A violation reproduces deterministically: the explorer reports the
//! exact action schedule that led to it.
//!
//! Since the shard refactor the same explorer also drives merge / split /
//! disconnect schedules across two shards behind a `ShardRouter`, with
//! the invariants checked at every step.

#[path = "support/explore.rs"]
mod explore;

use cosoft_server::{LivenessConfig, ServerCore, ShardRouter};
use cosoft_wire::{EventKind, GlobalObjectId, InstanceId, Message, ObjectPath, UiEvent, UserId};
use explore::{explore, ExploreLimits, Model};

type Endpoint = u32;

fn gid(i: InstanceId, p: &str) -> GlobalObjectId {
    GlobalObjectId::new(i, ObjectPath::parse(p).unwrap())
}

/// One schedulable client step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Client submits its next pending event on one of its objects.
    Submit { client: usize },
    /// Client delivers its oldest owed `ExecuteDone`.
    Done { client: usize },
    /// Client's connection drops mid-protocol.
    Disconnect { client: usize },
}

#[derive(Debug, Clone)]
struct ClientSim {
    endpoint: Endpoint,
    instance: InstanceId,
    alive: bool,
    /// Objects this client will submit events on, in order.
    pending: Vec<GlobalObjectId>,
    /// Exec ids whose `ExecuteDone` this client still owes the server.
    owed: Vec<u64>,
    /// Submitted events not yet granted or rejected.
    in_flight: u32,
    granted: u32,
    rejected: u32,
}

/// The explorable system: the real server core plus its clients.
#[derive(Debug, Clone)]
struct LockModel {
    server: ServerCore<Endpoint>,
    clients: Vec<ClientSim>,
    /// Whether `Disconnect` actions are enabled (at most one per client
    /// per schedule; disconnecting is absorbing).
    with_disconnects: bool,
    disconnects_left: u32,
}

impl LockModel {
    /// Three clients; objects `a` and `b` per client; two *overlapping*
    /// couple groups sharing client 1:
    /// `CO(a) = {c0.a, c1.a}` and `CO(b) = {c1.b, c2.b}`.
    /// Each client submits one event per object it owns in a group.
    fn new(with_disconnects: bool, events_per_client: usize) -> LockModel {
        let mut server: ServerCore<Endpoint> = ServerCore::new();
        let mut clients = Vec::new();
        for e in 0..3u32 {
            let out = server
                .handle(
                    e,
                    Message::Register {
                        user: UserId(u64::from(e) + 1),
                        host: format!("ws{e}"),
                        app_name: "model".into(),
                    },
                )
                .into_messages();
            let instance = match &out[0].1 {
                Message::Welcome { instance } => *instance,
                other => panic!("expected Welcome, got {other:?}"),
            };
            clients.push(ClientSim {
                endpoint: e,
                instance,
                alive: true,
                pending: Vec::new(),
                owed: Vec::new(),
                in_flight: 0,
                granted: 0,
                rejected: 0,
            });
        }
        let (i0, i1, i2) = (clients[0].instance, clients[1].instance, clients[2].instance);
        // Two overlapping groups, both passing through client 1.
        server.handle(0, Message::Couple { src: gid(i0, "a"), dst: gid(i1, "a") }).into_messages();
        server.handle(1, Message::Couple { src: gid(i1, "b"), dst: gid(i2, "b") }).into_messages();
        // Event plans: client 0 fights over group a, client 2 over
        // group b, client 1 over both (the overlap).
        let plans: [Vec<GlobalObjectId>; 3] =
            [vec![gid(i0, "a")], vec![gid(i1, "a"), gid(i1, "b")], vec![gid(i2, "b")]];
        for (client, plan) in clients.iter_mut().zip(plans) {
            for _ in 0..events_per_client {
                client.pending.extend(plan.iter().cloned());
            }
        }
        LockModel { server, clients, with_disconnects, disconnects_left: 1 }
    }

    /// Routes a server batch to the simulated clients.
    fn deliver(&mut self, out: Vec<(Endpoint, Message)>) {
        for (endpoint, msg) in out {
            let Some(client) = self.clients.iter_mut().find(|c| c.endpoint == endpoint && c.alive)
            else {
                continue;
            };
            match msg {
                // The origin runs its own callback too: it owes a done.
                Message::EventGranted { exec_id, .. } => {
                    client.in_flight -= 1;
                    client.granted += 1;
                    client.owed.push(exec_id);
                }
                Message::EventRejected { .. } => {
                    client.in_flight -= 1;
                    client.rejected += 1;
                }
                Message::ExecuteEvent { exec_id, .. } => client.owed.push(exec_id),
                // Bookkeeping-only messages for this model.
                Message::GroupUnlocked { .. }
                | Message::CoupleUpdate { .. }
                | Message::SessionToken { .. }
                | Message::Welcome { .. } => {}
                other => panic!("model client got unexpected {other:?}"),
            }
        }
    }
}

impl Model for LockModel {
    type Action = Action;

    fn actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for (i, c) in self.clients.iter().enumerate() {
            if !c.alive {
                continue;
            }
            if !c.pending.is_empty() {
                actions.push(Action::Submit { client: i });
            }
            if !c.owed.is_empty() {
                actions.push(Action::Done { client: i });
            }
            if self.with_disconnects && self.disconnects_left > 0 {
                actions.push(Action::Disconnect { client: i });
            }
        }
        actions
    }

    fn apply(&mut self, action: &Action) {
        match *action {
            Action::Submit { client } => {
                let c = &mut self.clients[client];
                let origin = c.pending.remove(0);
                c.in_flight += 1;
                let endpoint = c.endpoint;
                let event = UiEvent::simple(origin.path, EventKind::Activate);
                let out = self
                    .server
                    .handle(
                        endpoint,
                        Message::Event { event, seq: u64::from(self.clients[client].in_flight) },
                    )
                    .into_messages();
                self.deliver(out);
            }
            Action::Done { client } => {
                let c = &mut self.clients[client];
                let exec_id = c.owed.remove(0);
                let endpoint = c.endpoint;
                let out =
                    self.server.handle(endpoint, Message::ExecuteDone { exec_id }).into_messages();
                self.deliver(out);
            }
            Action::Disconnect { client } => {
                let c = &mut self.clients[client];
                c.alive = false;
                c.pending.clear();
                c.owed.clear();
                self.disconnects_left -= 1;
                let endpoint = c.endpoint;
                let out = self.server.disconnect(endpoint).into_messages();
                self.deliver(out);
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        self.server.check_invariants()
    }

    fn at_quiescence(&self) -> Result<(), String> {
        // No client has anything left to do: every lock must have been
        // released (unlock happened, exactly once — a doubled unlock
        // trips `check_invariants` earlier, a lost one is caught here).
        if !self.server.locks().is_empty() {
            return Err(format!("quiescent with {} lock(s) still held", self.server.locks().len()));
        }
        for (i, c) in self.clients.iter().enumerate() {
            if c.alive && c.in_flight != 0 {
                return Err(format!(
                    "client {i} quiescent with {} unsettled event(s)",
                    c.in_flight
                ));
            }
            if c.alive && c.granted + c.rejected + c.in_flight == 0 && !c.pending.is_empty() {
                return Err(format!("client {i} never ran"));
            }
        }
        // The registry holds exactly the surviving clients.
        let alive = self.clients.iter().filter(|c| c.alive).count();
        if self.server.registry().len() != alive {
            return Err(format!(
                "registry holds {} instance(s), {} client(s) alive",
                self.server.registry().len(),
                alive
            ));
        }
        let stats = self.server.stats();
        let granted: u32 = self.clients.iter().map(|c| c.granted).sum();
        // Grants observed by surviving clients never exceed the
        // server's count (a dead client's grant may be in flight).
        if u64::from(granted) > stats.events_granted {
            return Err(format!(
                "clients saw {granted} grants, server granted {}",
                stats.events_granted
            ));
        }
        Ok(())
    }
}

/// The headline run: three clients, overlapping groups, every
/// interleaving of submissions and acknowledgements — at least 10 000
/// distinct schedules, the server invariant pack checked after every
/// step of each.
#[test]
fn exhaustive_schedules_without_disconnects() {
    let model = LockModel::new(false, 2);
    let limits = ExploreLimits { max_depth: 64, max_schedules: 60_000 };
    let stats = explore(&model, limits).unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.schedules >= 10_000, "expected >= 10k schedules, explored {}", stats.schedules);
    assert!(stats.steps > stats.schedules, "schedules must be multi-step");
}

/// Disconnects interleaved with live floor-control rounds: a client
/// dying while it owes `ExecuteDone`s, while it has events in flight,
/// or while it holds the overlap of both groups must never strand a
/// lock or corrupt the table.
#[test]
fn schedules_with_mid_protocol_disconnects() {
    let model = LockModel::new(true, 1);
    let limits = ExploreLimits { max_depth: 64, max_schedules: 30_000 };
    let stats = explore(&model, limits).unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.schedules >= 10_000, "expected >= 10k schedules, explored {}", stats.schedules);
}

// ---------------------------------------------------------------------
// Cross-shard schedules: the same floor-control traffic, now with the
// server brain split across two `ServerCore` shards behind the
// `ShardRouter`, and the explorer additionally interleaving cross-shard
// couples (merges), decouples (splits), explicit migrations of a
// component to the other shard, and disconnects.
// ---------------------------------------------------------------------

/// One schedulable step against the sharded server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardAction {
    /// Client submits its next pending event.
    Submit { client: usize },
    /// Client delivers its oldest owed `ExecuteDone`.
    Done { client: usize },
    /// Client 0 couples its object to client 1's — a cross-shard merge
    /// unless an earlier action already colocated them.
    CoupleAb,
    /// Client 1 couples its second object to client 2's.
    CoupleBc,
    /// Client 0 dissolves the a-link again (component split; the
    /// router rebalances lazily, not in this model's step).
    SplitAb,
    /// Client 1's component moves to the opposite shard, whatever it
    /// is at that point: mid-round, mid-copy, or already merged.
    Migrate,
    /// Client's connection drops mid-protocol.
    Disconnect { client: usize },
}

/// The explorable sharded system: a 2-shard router plus its clients.
#[derive(Debug, Clone)]
struct ShardModel {
    router: ShardRouter<Endpoint>,
    clients: Vec<ClientSim>,
    coupled_ab: bool,
    coupled_bc: bool,
    split_done: bool,
    migrations_left: u32,
    disconnects_left: u32,
    with_disconnects: bool,
}

impl ShardModel {
    /// Three clients round-robined over two shards (c0, c2 → shard 0;
    /// c1 → shard 1), with the same overlapping-group event plans as
    /// [`LockModel`]; the couple links are *actions* here, so the
    /// explorer interleaves group formation (= shard merges) and
    /// dissolution with the floor-control traffic itself.
    fn new(with_disconnects: bool) -> ShardModel {
        // A grace window so a disconnected client stays quarantined in
        // its shard's registry (the model never ticks, so quarantines
        // never expire and the at-quiescence census stays exact).
        let liveness =
            LivenessConfig { grace_us: 1_000_000, idle_timeout_us: 0, max_quarantined: 0 };
        let mut router: ShardRouter<Endpoint> = ShardRouter::with_liveness(2, liveness);
        let mut clients = Vec::new();
        for e in 0..3u32 {
            let out = router
                .handle(
                    e,
                    Message::Register {
                        user: UserId(u64::from(e) + 1),
                        host: format!("ws{e}"),
                        app_name: "model".into(),
                    },
                )
                .into_messages();
            let instance = out
                .iter()
                .find_map(|(_, m)| match m {
                    Message::Welcome { instance } => Some(*instance),
                    _ => None,
                })
                .expect("registration must yield Welcome");
            clients.push(ClientSim {
                endpoint: e,
                instance,
                alive: true,
                pending: Vec::new(),
                owed: Vec::new(),
                in_flight: 0,
                granted: 0,
                rejected: 0,
            });
        }
        let (i0, i1, i2) = (clients[0].instance, clients[1].instance, clients[2].instance);
        let plans: [Vec<GlobalObjectId>; 3] =
            [vec![gid(i0, "a")], vec![gid(i1, "a"), gid(i1, "b")], vec![gid(i2, "b")]];
        for (client, plan) in clients.iter_mut().zip(plans) {
            client.pending.extend(plan);
        }
        ShardModel {
            router,
            clients,
            coupled_ab: false,
            coupled_bc: false,
            split_done: false,
            migrations_left: 1,
            disconnects_left: 1,
            with_disconnects,
        }
    }

    /// Routes a router batch to the simulated clients. Unlike the
    /// single-core model this also tolerates `ErrorReply` (a couple may
    /// legitimately race a disconnect across shards).
    fn deliver(&mut self, out: Vec<(Endpoint, Message)>) {
        for (endpoint, msg) in out {
            let Some(client) = self.clients.iter_mut().find(|c| c.endpoint == endpoint && c.alive)
            else {
                continue;
            };
            match msg {
                Message::EventGranted { exec_id, .. } => {
                    client.in_flight -= 1;
                    client.granted += 1;
                    client.owed.push(exec_id);
                }
                Message::EventRejected { .. } => {
                    client.in_flight -= 1;
                    client.rejected += 1;
                }
                Message::ExecuteEvent { exec_id, .. } => client.owed.push(exec_id),
                Message::GroupUnlocked { .. }
                | Message::CoupleUpdate { .. }
                | Message::SessionToken { .. }
                | Message::ErrorReply { .. }
                | Message::Welcome { .. } => {}
                other => panic!("shard-model client got unexpected {other:?}"),
            }
        }
    }
}

impl Model for ShardModel {
    type Action = ShardAction;

    fn actions(&self) -> Vec<ShardAction> {
        let mut actions = Vec::new();
        for (i, c) in self.clients.iter().enumerate() {
            if !c.alive {
                continue;
            }
            if !c.pending.is_empty() {
                actions.push(ShardAction::Submit { client: i });
            }
            if !c.owed.is_empty() {
                actions.push(ShardAction::Done { client: i });
            }
            if self.with_disconnects && self.disconnects_left > 0 {
                actions.push(ShardAction::Disconnect { client: i });
            }
        }
        if !self.coupled_ab && self.clients[0].alive && self.clients[1].alive {
            actions.push(ShardAction::CoupleAb);
        }
        if !self.coupled_bc && self.clients[1].alive && self.clients[2].alive {
            actions.push(ShardAction::CoupleBc);
        }
        if self.coupled_ab && !self.split_done && self.clients[0].alive {
            actions.push(ShardAction::SplitAb);
        }
        if self.migrations_left > 0
            && self.router.shard_of_instance(self.clients[1].instance).is_some()
        {
            actions.push(ShardAction::Migrate);
        }
        actions
    }

    fn apply(&mut self, action: &ShardAction) {
        match *action {
            ShardAction::Submit { client } => {
                let c = &mut self.clients[client];
                let origin = c.pending.remove(0);
                c.in_flight += 1;
                let endpoint = c.endpoint;
                let seq = u64::from(c.in_flight);
                let event = UiEvent::simple(origin.path, EventKind::Activate);
                let out = self.router.handle(endpoint, Message::Event { event, seq });
                self.deliver(out.into_messages());
            }
            ShardAction::Done { client } => {
                let c = &mut self.clients[client];
                let exec_id = c.owed.remove(0);
                let endpoint = c.endpoint;
                let out = self.router.handle(endpoint, Message::ExecuteDone { exec_id });
                self.deliver(out.into_messages());
            }
            ShardAction::CoupleAb => {
                self.coupled_ab = true;
                let (src, dst) =
                    (gid(self.clients[0].instance, "a"), gid(self.clients[1].instance, "a"));
                let out = self.router.handle(0, Message::Couple { src, dst });
                self.deliver(out.into_messages());
            }
            ShardAction::CoupleBc => {
                self.coupled_bc = true;
                let (src, dst) =
                    (gid(self.clients[1].instance, "b"), gid(self.clients[2].instance, "b"));
                let out = self.router.handle(1, Message::Couple { src, dst });
                self.deliver(out.into_messages());
            }
            ShardAction::SplitAb => {
                self.split_done = true;
                let (src, dst) =
                    (gid(self.clients[0].instance, "a"), gid(self.clients[1].instance, "a"));
                let out = self.router.handle(0, Message::Decouple { src, dst });
                self.deliver(out.into_messages());
            }
            ShardAction::Migrate => {
                self.migrations_left -= 1;
                let seed = self.clients[1].instance;
                if let Some(here) = self.router.shard_of_instance(seed) {
                    let out = self.router.migrate(seed, 1 - here);
                    self.deliver(out.into_messages());
                }
            }
            ShardAction::Disconnect { client } => {
                let c = &mut self.clients[client];
                c.alive = false;
                c.pending.clear();
                c.owed.clear();
                self.disconnects_left -= 1;
                let endpoint = c.endpoint;
                let out = self.router.disconnect(endpoint);
                self.deliver(out.into_messages());
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        self.router.check_invariants()
    }

    fn at_quiescence(&self) -> Result<(), String> {
        // Every lock must be drained on every shard.
        for i in 0..self.router.shard_count() {
            if !self.router.shard(i).locks().is_empty() {
                return Err(format!(
                    "quiescent with {} lock(s) still held on shard {i}",
                    self.router.shard(i).locks().len()
                ));
            }
        }
        for (i, c) in self.clients.iter().enumerate() {
            if c.alive && c.in_flight != 0 {
                return Err(format!(
                    "client {i} quiescent with {} unsettled event(s)",
                    c.in_flight
                ));
            }
        }
        // A disconnected client stays quarantined (no ticks run in this
        // model), so the sharded registries still hold everyone.
        let registered: usize =
            (0..self.router.shard_count()).map(|i| self.router.shard(i).registry().len()).sum();
        if registered != self.clients.len() {
            return Err(format!(
                "sharded registries hold {registered} instance(s), expected {}",
                self.clients.len()
            ));
        }
        Ok(())
    }
}

/// The sharded headline run: every interleaving of cross-shard merges
/// (couples), splits (decouples), an explicit migration, and the
/// floor-control traffic itself, across two shards — at least 10 000
/// distinct schedules, with the router's cross-shard invariant pack
/// (per-core invariants, disjoint registries, one shard per endpoint and
/// per token, components never spanning shards) checked after every
/// step of each.
#[test]
fn cross_shard_merge_split_schedules() {
    let model = ShardModel::new(false);
    let limits = ExploreLimits { max_depth: 64, max_schedules: 60_000 };
    let stats = explore(&model, limits).unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.schedules >= 10_000, "expected >= 10k schedules, explored {}", stats.schedules);
    assert!(stats.steps > stats.schedules, "schedules must be multi-step");
}

/// Cross-shard schedules with mid-protocol disconnects: a client dying
/// just before or after its component migrates, while it owes
/// `ExecuteDone`s, or between a merge and the round it joins must never
/// strand a lock, split a component across shards, or bind an endpoint
/// on two.
#[test]
fn cross_shard_schedules_with_disconnects() {
    let model = ShardModel::new(true);
    let limits = ExploreLimits { max_depth: 64, max_schedules: 40_000 };
    let stats = explore(&model, limits).unwrap_or_else(|e| panic!("{e}"));
    assert!(stats.schedules >= 10_000, "expected >= 10k schedules, explored {}", stats.schedules);
}

/// The explorer's counterexample machinery works against the real
/// server: planting a fault (a client acknowledging an exec id it does
/// not owe — a protocol violation the server must *tolerate*) does not
/// corrupt the lock table, only gets ignored.
#[test]
fn spurious_done_never_corrupts() {
    let mut model = LockModel::new(false, 1);
    // Submit one event, then fire a done for a bogus exec id.
    model.apply(&Action::Submit { client: 0 });
    let out = model.server.handle(0, Message::ExecuteDone { exec_id: 999 }).into_messages();
    assert!(out.is_empty(), "spurious done must be ignored, got {out:?}");
    model.server.check_invariants().unwrap();
    // The real exec still completes normally afterwards.
    while !model.clients[0].owed.is_empty() || !model.clients[1].owed.is_empty() {
        for client in 0..2 {
            if !model.clients[client].owed.is_empty() {
                model.apply(&Action::Done { client });
            }
        }
    }
    assert!(model.server.locks().is_empty());
}
