//! Simulation harness: wires any number of [`Session`]s and a
//! [`ShardRouter`] onto the deterministic simulated network and pumps
//! messages until quiescence.
//!
//! [`SimHarness::step`] is the one way a message moves: a delivery to the
//! server is a turn, a delivery to a session is its `on_message` and the
//! flush of its outbox. [`SimHarness::pump`] flushes every outbox and
//! steps until the network is idle; a test that must stop mid-round
//! steps by hand.
//!
//! The server side runs what a deployed server runs: every input — a
//! delivered message, a disconnect, a clock advance — is one
//! [`ShardRouter::turn`] at the virtual time it happens. The router has
//! one shard unless a test installs another. All integration tests of
//! the fully replicated (COSOFT) architecture run on this harness; the
//! virtual clock makes latency measurements reproducible.

use std::collections::BTreeMap;

use cosoft_net::sim::{self, NodeId, SimNet};
use cosoft_net::NetEvent;
use cosoft_server::{Delivery, Outgoing, ShardRouter};
use cosoft_wire::InstanceId;

use crate::session::Session;

/// The server's fixed endpoint on the simulated network.
pub const SERVER_NODE: NodeId = NodeId(0);

/// A simulated COSOFT deployment: one server, N client sessions.
#[derive(Debug)]
pub struct SimHarness {
    /// The simulated network (exposed for latency/fault configuration and
    /// traffic statistics).
    pub net: SimNet,
    /// The server: a one-shard router unless a test assigns another.
    pub server: ShardRouter<NodeId>,
    /// Sessions keyed by node id; a `BTreeMap` keeps outbox flushing (and
    /// therefore the whole simulation) deterministic.
    sessions: BTreeMap<NodeId, Session>,
    next_node: u64,
}

impl SimHarness {
    /// Creates a harness with the given network seed and zero latency.
    pub fn new(seed: u64) -> Self {
        SimHarness {
            net: SimNet::new(seed),
            server: ShardRouter::new(1),
            sessions: BTreeMap::new(),
            next_node: 1,
        }
    }

    /// Creates a harness with a one-way latency in microseconds and no
    /// jitter.
    pub fn with_latency(seed: u64, one_way_us: u64) -> Self {
        let mut h = Self::new(seed);
        h.net.set_latency(one_way_us, 0);
        h
    }

    /// Adds a session (its queued `Register` is sent on the next pump) and
    /// returns its network node id.
    pub fn add_session(&mut self, session: Session) -> NodeId {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        self.sessions.insert(node, session);
        node
    }

    /// Borrows a session by node id.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this harness.
    pub fn session(&self, node: NodeId) -> &Session {
        &self.sessions[&node]
    }

    /// Mutably borrows a session by node id.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this harness.
    pub fn session_mut(&mut self, node: NodeId) -> &mut Session {
        self.sessions.get_mut(&node).expect("unknown session node")
    }

    /// Removes a session abruptly (simulating a crash); the server
    /// observes the disconnect on the next pump.
    pub fn crash(&mut self, node: NodeId) {
        if self.sessions.remove(&node).is_some() {
            self.server_turn(Some(NetEvent::Disconnected(node)));
        }
    }

    /// Puts a server batch on the simulated network. A shared frame is
    /// decoded once and delivered (as the decoded message) to each of its
    /// endpoints; its pre-encoded body length feeds the byte accounting,
    /// so the simulation charges the wire cost without re-encoding.
    fn deliver_server_out(&mut self, out: Outgoing<NodeId>) {
        for item in out.into_items() {
            match item {
                Delivery::Unicast(dst, msg) => self.net.send(SERVER_NODE, dst, msg),
                Delivery::Shared(dsts, frame) => {
                    let body_len = frame.body().len();
                    let msg = frame.decode().expect("server-encoded frame decodes");
                    let mut dsts = dsts.into_iter();
                    if let Some(last) = dsts.next_back() {
                        for dst in dsts {
                            self.net.send_encoded(SERVER_NODE, dst, msg.clone(), body_len);
                        }
                        self.net.send_encoded(SERVER_NODE, last, msg, body_len);
                    }
                }
            }
        }
    }

    /// Resets a session's connection without destroying the session: the
    /// server observes the disconnect — and quarantines the instance when
    /// a liveness grace period is configured — while the client keeps its
    /// state and may later [`SimHarness::reconnect`]. The link is
    /// [`SimNet::sever`]ed: what is in flight to or from the node is lost,
    /// and so is what it sends in the meantime.
    pub fn disconnect(&mut self, node: NodeId) {
        if self.sessions.contains_key(&node) && self.net.sever(node) {
            self.server_turn(Some(NetEvent::Disconnected(node)));
        }
    }

    /// Restores a severed connection and starts the session's rejoin; the
    /// queued `Rejoin` (or fallback `Register`) goes out on the next pump.
    pub fn reconnect(&mut self, node: NodeId) {
        if self.net.restore(node) {
            if let Some(session) = self.sessions.get_mut(&node) {
                session.begin_rejoin();
            }
        }
    }

    /// Advances the virtual clock to `at_us` and runs an empty server
    /// turn: quarantines whose grace period has expired are deregistered
    /// here, with the usual auto-decouple notifications.
    pub fn tick_server(&mut self, at_us: u64) {
        self.net.advance_to(at_us);
        self.server_turn(None);
    }

    /// One server turn at the current virtual time, its batch put on the
    /// network.
    fn server_turn(&mut self, event: Option<NetEvent<NodeId>>) {
        let out = self.server.turn(event, self.net.now_us());
        self.deliver_server_out(out);
    }

    /// The instance id a session received, if registered.
    pub fn instance_of(&self, node: NodeId) -> Option<InstanceId> {
        self.sessions.get(&node).and_then(Session::instance)
    }

    /// Puts every session's outbox on the network.
    pub fn flush(&mut self) {
        for (&node, session) in self.sessions.iter_mut() {
            for msg in session.drain_outbox() {
                self.net.send(node, SERVER_NODE, msg);
            }
        }
    }

    /// Delivers the next message on the network and returns it: a server
    /// turn, or a session's `on_message` followed by the flush of its
    /// outbox. A message to a crashed session is dropped. Returns `None`
    /// when the network is idle.
    pub fn step(&mut self) -> Option<sim::Delivery> {
        let delivery = self.net.step()?;
        let (src, dst, msg) = (delivery.src, delivery.dst, delivery.msg.clone());
        if dst == SERVER_NODE {
            self.server_turn(Some(NetEvent::Message(src, msg)));
        } else if let Some(session) = self.sessions.get_mut(&dst) {
            session.on_message(msg);
            for msg in session.drain_outbox() {
                self.net.send(dst, SERVER_NODE, msg);
            }
        }
        Some(delivery)
    }

    /// Pumps the network until quiescence: flushes session outboxes, then
    /// steps until no message remains. Returns the number of deliveries.
    ///
    /// # Panics
    ///
    /// Panics if the message count exceeds `max_steps` (runaway guard).
    pub fn pump(&mut self, max_steps: u64) -> u64 {
        self.flush();
        let mut steps = 0;
        while self.step().is_some() {
            steps += 1;
            assert!(steps <= max_steps, "simulation exceeded {max_steps} deliveries");
        }
        steps
    }

    /// Convenience: pump with a generous default cap.
    pub fn settle(&mut self) -> u64 {
        self.pump(1_000_000)
    }
}
