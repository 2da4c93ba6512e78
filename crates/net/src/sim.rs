//! Deterministic discrete-event network simulation.
//!
//! All multi-instance experiments in the reproduction run on [`SimNet`]: a
//! single-threaded event queue with a virtual microsecond clock and seeded
//! randomness. This replaces the paper's 1994 LAN with a substrate whose
//! timing is reproducible down to the microsecond.
//!
//! It delivers what the deployed system's TCP connections deliver, and
//! nothing else:
//!
//! - **Latency** is a one-way time plus a jitter drawn from `[0, jitter]`.
//!   Each directed link `(src, dst)` is FIFO: a message arrives at
//!   `max(now + one_way + jitter, the link's previous arrival)`, ties in
//!   send order. Links race each other; no link reorders itself. With
//!   jitter 0 nothing is drawn from the seed.
//! - **Outages**: a node's link is down inside a scheduled [`DownWindow`]
//!   and between [`SimNet::sever`] and [`SimNet::restore`]. A message is
//!   lost if either endpoint's link is down at any time from its send to
//!   its arrival, or if that endpoint's connection was severed in between.
//!   So a reset delivers a prefix of each direction's in-flight messages,
//!   and nothing sent on the old connection reaches the new one.
//!
//! Nothing is dropped at random, duplicated, or reordered within a link.
//! The faults the TCP transport's `FaultInjector` puts on real sockets
//! map onto this model: `Truncate`, `Short` and `WouldBlock` delay bytes
//! but never lose or reorder them, which is jitter; `Error` tears the
//! connection down, which is `sever` then `restore`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use cosoft_rng::Rng;
use cosoft_wire::{codec, Message};

/// Identifier of a simulated network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A scheduled link outage: every message to or from `node` that is in
/// flight at some virtual time inside `[from_us, to_us)` is silently
/// lost. This models a silently dead connection (the failure mode a
/// liveness grace period exists for): neither end is told.
#[derive(Debug, Clone, PartialEq)]
pub struct DownWindow {
    /// The endpoint whose link is down.
    pub node: NodeId,
    /// Start of the outage (inclusive), virtual microseconds.
    pub from_us: u64,
    /// End of the outage (exclusive), virtual microseconds.
    pub to_us: u64,
}

/// Fault-injection plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scheduled per-node outages (disconnect/reconnect schedules).
    pub down: Vec<DownWindow>,
}

/// A message delivered by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Virtual time of delivery in microseconds.
    pub at_us: u64,
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// The message.
    pub msg: Message,
}

#[derive(Debug, Clone)]
struct Queued {
    at_us: u64,
    seq: u64,
    sent_us: u64,
    src: NodeId,
    dst: NodeId,
    /// The connections of `src` and `dst` the message was sent on.
    conns: (u64, u64),
    msg: Message,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`SimNet::send`].
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Encoded payload bytes sent (body only, excluding framing).
    pub bytes_sent: u64,
    /// Messages lost because a link was down (a [`DownWindow`] or
    /// [`SimNet::sever`]) or a connection was severed while they were in
    /// flight.
    pub link_down_dropped: u64,
}

/// Deterministic discrete-event network with a virtual clock.
///
/// # Example
///
/// ```
/// use cosoft_net::sim::{NodeId, SimNet};
/// use cosoft_wire::Message;
///
/// let mut net = SimNet::new(42);
/// net.set_latency(2_000, 0); // 2 ms one way, no jitter
/// net.send(NodeId(1), NodeId(2), Message::QueryInstances);
/// let d = net.step().expect("one delivery pending");
/// assert_eq!(d.at_us, 2_000);
/// assert_eq!(d.dst, NodeId(2));
/// ```
#[derive(Debug)]
pub struct SimNet {
    now_us: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<Queued>>,
    one_way_us: u64,
    jitter_us: u64,
    faults: FaultPlan,
    /// Nodes whose link is down until [`SimNet::restore`].
    severed: BTreeSet<NodeId>,
    /// Per node, how many times its connection has been severed.
    resets: HashMap<NodeId, u64>,
    /// Per directed link, the arrival time of its latest message.
    last_arrival: HashMap<(NodeId, NodeId), u64>,
    rng: Rng,
    stats: NetStats,
}

impl SimNet {
    /// Creates a simulator with zero latency, no faults, and the given
    /// random seed.
    pub fn new(seed: u64) -> Self {
        SimNet {
            now_us: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            one_way_us: 0,
            jitter_us: 0,
            faults: FaultPlan::default(),
            severed: BTreeSet::new(),
            resets: HashMap::new(),
            last_arrival: HashMap::new(),
            rng: Rng::new(seed),
            stats: NetStats::default(),
        }
    }

    /// Sets the one-way latency and the jitter, both in microseconds, for
    /// subsequent sends.
    pub fn set_latency(&mut self, one_way_us: u64, jitter_us: u64) {
        self.one_way_us = one_way_us;
        self.jitter_us = jitter_us;
    }

    /// Sets the fault-injection plan.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Advances the virtual clock to `t` (no-op if `t` is in the past).
    /// Used by workload drivers to inject actions at scripted times.
    pub fn advance_to(&mut self, t_us: u64) {
        self.now_us = self.now_us.max(t_us);
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets traffic statistics (the clock keeps running).
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Number of queued (undelivered) messages, lost ones included.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Severs `node`'s connection and holds its link down until
    /// [`SimNet::restore`]: whatever is in flight to or from it is lost.
    /// Returns `false` if the link was already down.
    pub fn sever(&mut self, node: NodeId) -> bool {
        if !self.severed.insert(node) {
            return false;
        }
        *self.resets.entry(node).or_default() += 1;
        self.last_arrival.retain(|&(src, dst), _| src != node && dst != node);
        true
    }

    /// Brings a severed link back up as a new connection. Returns `false`
    /// if it was not down.
    pub fn restore(&mut self, node: NodeId) -> bool {
        self.severed.remove(&node)
    }

    fn conn(&self, node: NodeId) -> u64 {
        self.resets.get(&node).copied().unwrap_or(0)
    }

    /// Whether `node`'s link loses a message sent on its connection `conn`
    /// at `sent_us` and due at `due_us`.
    fn cut(&self, node: NodeId, conn: u64, sent_us: u64, due_us: u64) -> bool {
        self.severed.contains(&node)
            || self.conn(node) != conn
            || self
                .faults
                .down
                .iter()
                .any(|w| w.node == node && w.from_us <= due_us && sent_us < w.to_us)
    }

    /// Sends `msg` from `src` to `dst`. Accounts encoded size in the
    /// statistics.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: Message) {
        let body_len = codec::encode_message(&msg).len();
        self.send_encoded(src, dst, msg, body_len);
    }

    /// Like [`SimNet::send`] for a message that is already encoded
    /// elsewhere: `msg` is the decoded view used for delivery, `body_len`
    /// the encoded body length (e.g. a pre-encoded shared frame's
    /// payload), charged to `bytes_sent` without re-encoding here.
    pub fn send_encoded(&mut self, src: NodeId, dst: NodeId, msg: Message, body_len: usize) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += body_len as u64;
        let (now, conns) = (self.now_us, (self.conn(src), self.conn(dst)));
        if self.cut(src, conns.0, now, now) || self.cut(dst, conns.1, now, now) {
            self.stats.link_down_dropped += 1;
            return;
        }
        let jitter = if self.jitter_us == 0 { 0 } else { self.rng.range(0..=self.jitter_us) };
        let fifo = self.last_arrival.entry((src, dst)).or_default();
        let at_us = (now + self.one_way_us + jitter).max(*fifo);
        *fifo = at_us;
        self.heap.push(Reverse(Queued {
            at_us,
            seq: self.seq,
            sent_us: now,
            src,
            dst,
            conns,
            msg,
        }));
        self.seq += 1;
    }

    /// Delivers the next message that is not lost, advancing the virtual
    /// clock to its delivery time. Returns `None` when idle.
    pub fn step(&mut self) -> Option<Delivery> {
        while let Some(Reverse(q)) = self.heap.pop() {
            self.now_us = self.now_us.max(q.at_us);
            if self.cut(q.src, q.conns.0, q.sent_us, q.at_us)
                || self.cut(q.dst, q.conns.1, q.sent_us, q.at_us)
            {
                self.stats.link_down_dropped += 1;
                continue;
            }
            self.stats.messages_delivered += 1;
            return Some(Delivery { at_us: q.at_us, src: q.src, dst: q.dst, msg: q.msg });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::QueryInstances
    }

    #[test]
    fn fixed_latency_preserves_order() {
        let mut net = SimNet::new(1);
        net.set_latency(100, 0);
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        net.send(NodeId(1), NodeId(2), msg());
        let d1 = net.step().unwrap();
        let d2 = net.step().unwrap();
        assert_eq!(d1.msg, Message::Deregister);
        assert_eq!(d2.msg, msg());
        assert_eq!(d1.at_us, 100);
        assert_eq!(net.now_us(), 100);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut net = SimNet::new(7);
        net.set_latency(10, 990);
        for i in 0..50 {
            net.send(NodeId(i % 3), NodeId(2), msg());
        }
        let mut last = 0;
        while let Some(d) = net.step() {
            assert!(d.at_us >= last);
            last = d.at_us;
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut net = SimNet::new(seed);
            net.set_latency(0, 500);
            for i in 0..20 {
                net.send(NodeId(i % 3), NodeId((i + 1) % 3), msg());
            }
            let mut times = Vec::new();
            while let Some(d) = net.step() {
                times.push((d.at_us, d.src, d.dst));
            }
            times
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn down_windows_drop_messages_in_both_directions() {
        let mut net = SimNet::new(3);
        net.set_faults(FaultPlan {
            down: vec![DownWindow { node: NodeId(2), from_us: 100, to_us: 200 }],
        });
        net.send(NodeId(1), NodeId(2), msg()); // t=0: delivered
        net.advance_to(100);
        net.send(NodeId(1), NodeId(2), msg()); // to the down node: dropped
        net.send(NodeId(2), NodeId(1), msg()); // from the down node: dropped
        net.advance_to(200);
        net.send(NodeId(1), NodeId(2), msg()); // window over: delivered
        assert_eq!(net.pending(), 2);
        assert_eq!(net.stats().link_down_dropped, 2);
        assert_eq!(net.stats().messages_sent, 4);
    }

    #[test]
    fn a_window_opening_mid_flight_loses_the_message() {
        let mut net = SimNet::new(3);
        net.set_latency(150, 0);
        net.set_faults(FaultPlan {
            down: vec![DownWindow { node: NodeId(2), from_us: 100, to_us: 200 }],
        });
        net.send(NodeId(1), NodeId(2), msg()); // in flight over [0, 150]
        assert_eq!(net.step(), None);
        assert_eq!(net.stats().link_down_dropped, 1);
    }

    #[test]
    fn sever_loses_the_old_connections_tail() {
        let mut net = SimNet::new(5);
        net.set_latency(1_000, 0);
        net.send(NodeId(1), NodeId(0), msg());
        net.send(NodeId(0), NodeId(1), msg());
        net.send(NodeId(2), NodeId(0), Message::Deregister);
        assert!(net.sever(NodeId(1)));
        assert!(!net.sever(NodeId(1)), "already down");
        net.send(NodeId(0), NodeId(1), msg()); // while down: lost
        assert!(net.restore(NodeId(1)));
        assert!(!net.restore(NodeId(1)), "already up");
        // The zero-latency reset left the clock where it was: only the
        // connection count tells the old link's messages from the new.
        net.send(NodeId(1), NodeId(0), Message::Deregister);
        let delivered: Vec<_> = std::iter::from_fn(|| net.step()).map(|d| (d.src, d.msg)).collect();
        assert_eq!(
            delivered,
            [(NodeId(2), Message::Deregister), (NodeId(1), Message::Deregister)],
            "only the bystander's message and the new connection's arrive"
        );
        assert_eq!(net.stats().link_down_dropped, 3);
        assert_eq!(net.stats().messages_delivered, 2);
    }

    #[test]
    fn stats_track_sends_and_bytes() {
        let mut net = SimNet::new(1);
        net.send(NodeId(1), NodeId(2), msg());
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        assert_eq!(net.stats().messages_sent, 3);
        assert!(net.stats().bytes_sent >= 3);
        while net.step().is_some() {}
        assert_eq!(net.stats().messages_delivered, 3);
    }
}
