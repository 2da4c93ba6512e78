//! Deterministic discrete-event network simulation.
//!
//! All multi-instance experiments in the reproduction run on [`SimNet`]: a
//! single-threaded event queue with a virtual microsecond clock, seeded
//! randomness, configurable per-message latency and optional fault
//! injection (drop / duplicate). This replaces the paper's 1994 LAN with a
//! substrate whose timing is reproducible down to the microsecond.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

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

/// Latency model applied to each transmitted message.
#[derive(Debug, Clone)]
pub enum Latency {
    /// Instant delivery (still ordered by send sequence).
    Zero,
    /// Fixed one-way latency in microseconds.
    Fixed(u64),
    /// Uniformly distributed latency in `[min_us, max_us]` (can reorder
    /// messages between different sends).
    Uniform(u64, u64),
}

impl Latency {
    fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Latency::Zero => 0,
            Latency::Fixed(us) => *us,
            Latency::Uniform(min, max) => {
                if min >= max {
                    *min
                } else {
                    rng.range(*min..=*max)
                }
            }
        }
    }
}

/// A scheduled link outage: every message to or from `node` sent while
/// the virtual clock is inside `[from_us, to_us)` is silently dropped.
/// This models a silently dead connection (the failure mode a liveness
/// grace period exists for), as opposed to the memoryless loss of
/// [`FaultPlan::drop_prob`].
#[derive(Debug, Clone, PartialEq)]
pub struct DownWindow {
    /// The endpoint whose link is down.
    pub node: NodeId,
    /// Start of the outage (inclusive), virtual microseconds.
    pub from_us: u64,
    /// End of the outage (exclusive), virtual microseconds.
    pub to_us: u64,
}

impl DownWindow {
    /// Whether this window covers `node` at virtual time `at_us`.
    pub fn covers(&self, node: NodeId, at_us: u64) -> bool {
        self.node == node && self.from_us <= at_us && at_us < self.to_us
    }
}

/// Fault-injection plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub dup_prob: f64,
    /// Scheduled per-node outages (disconnect/reconnect schedules).
    pub down: Vec<DownWindow>,
}

impl FaultPlan {
    /// Whether `node`'s link is scheduled down at virtual time `at_us`.
    pub fn is_down(&self, node: NodeId, at_us: u64) -> bool {
        self.down.iter().any(|w| w.covers(node, at_us))
    }
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
    src: NodeId,
    dst: NodeId,
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
    /// Messages handed to [`SimNet::send`] (before fault injection).
    pub messages_sent: u64,
    /// Messages actually delivered (after drops/duplicates).
    pub messages_delivered: u64,
    /// Encoded payload bytes sent (body only, excluding framing).
    pub bytes_sent: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Messages dropped because a scheduled [`DownWindow`] covered the
    /// sender or receiver (counted separately from `dropped`).
    pub link_down_dropped: u64,
    /// Extra deliveries produced by duplication.
    pub duplicated: u64,
    /// Per message-kind send counts.
    pub per_kind: HashMap<&'static str, u64>,
}

/// Deterministic discrete-event network with a virtual clock.
///
/// # Example
///
/// ```
/// use cosoft_net::sim::{Latency, NodeId, SimNet};
/// use cosoft_wire::Message;
///
/// let mut net = SimNet::new(42);
/// net.set_latency(Latency::Fixed(2_000)); // 2 ms one way
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
    latency: Latency,
    faults: FaultPlan,
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
            latency: Latency::Zero,
            faults: FaultPlan::default(),
            rng: Rng::new(seed),
            stats: NetStats::default(),
        }
    }

    /// Sets the latency model for subsequent sends.
    pub fn set_latency(&mut self, latency: Latency) {
        self.latency = latency;
    }

    /// Sets the fault-injection plan for subsequent sends.
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

    /// Number of queued (undelivered) messages.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Whether no deliveries are pending.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Sends `msg` from `src` to `dst` with sampled latency, applying the
    /// fault plan. Accounts encoded size in the statistics.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: Message) {
        let body_len = codec::encode_message(&msg).len();
        self.send_encoded(src, dst, msg, body_len);
    }

    /// Like [`SimNet::send`] for a message that is already encoded
    /// elsewhere: `msg` is the decoded view used for delivery and
    /// per-kind accounting, `body_len` the encoded body length (e.g. a
    /// pre-encoded shared frame's payload), charged to `bytes_sent`
    /// without re-encoding here.
    pub fn send_encoded(&mut self, src: NodeId, dst: NodeId, msg: Message, body_len: usize) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += body_len as u64;
        *self.stats.per_kind.entry(msg.kind_name()).or_insert(0) += 1;

        if self.faults.is_down(src, self.now_us) || self.faults.is_down(dst, self.now_us) {
            self.stats.link_down_dropped += 1;
            return;
        }
        if self.faults.drop_prob > 0.0 && self.rng.bool(self.faults.drop_prob.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            return;
        }
        let latency = self.latency.sample(&mut self.rng);
        self.push(src, dst, msg.clone(), latency);
        if self.faults.dup_prob > 0.0 && self.rng.bool(self.faults.dup_prob.clamp(0.0, 1.0)) {
            let latency = self.latency.sample(&mut self.rng);
            self.push(src, dst, msg, latency);
            self.stats.duplicated += 1;
        }
    }

    /// Schedules a message to arrive at `dst` after an explicit delay —
    /// used to model timers and processing delays (e.g. a semantic action
    /// that takes 50 ms completes by sending a self-addressed message).
    pub fn schedule(&mut self, dst: NodeId, delay_us: u64, msg: Message) {
        self.push(dst, dst, msg, delay_us);
    }

    /// Sends with an extra delay on top of the sampled latency — models a
    /// sender that holds the message (queueing, service time) before
    /// putting it on the wire. Counted in the statistics like
    /// [`SimNet::send`]; fault injection is not applied.
    pub fn send_after(&mut self, src: NodeId, dst: NodeId, extra_delay_us: u64, msg: Message) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += codec::encode_message(&msg).len() as u64;
        *self.stats.per_kind.entry(msg.kind_name()).or_insert(0) += 1;
        let latency = self.latency.sample(&mut self.rng);
        self.push(src, dst, msg, extra_delay_us + latency);
    }

    fn push(&mut self, src: NodeId, dst: NodeId, msg: Message, delay_us: u64) {
        let q = Queued { at_us: self.now_us + delay_us, seq: self.seq, src, dst, msg };
        self.seq += 1;
        self.heap.push(Reverse(q));
    }

    /// Delivers the next pending message, advancing the virtual clock to
    /// its delivery time. Returns `None` when idle.
    pub fn step(&mut self) -> Option<Delivery> {
        let Reverse(q) = self.heap.pop()?;
        self.now_us = self.now_us.max(q.at_us);
        self.stats.messages_delivered += 1;
        Some(Delivery { at_us: q.at_us, src: q.src, dst: q.dst, msg: q.msg })
    }

    /// Runs the simulation to quiescence, calling `handler` for every
    /// delivery; the handler sends follow-up messages through the `SimNet`
    /// it is handed.
    ///
    /// Returns the number of deliveries processed. Stops after
    /// `max_steps` deliveries as a runaway guard.
    pub fn run<F>(&mut self, max_steps: u64, mut handler: F) -> u64
    where
        F: FnMut(&mut SimNet, Delivery),
    {
        let mut steps = 0;
        while steps < max_steps {
            match self.step() {
                Some(d) => {
                    handler(self, d);
                    steps += 1;
                }
                None => break,
            }
        }
        steps
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
        net.set_latency(Latency::Fixed(100));
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        net.send(NodeId(1), NodeId(2), msg());
        let d1 = net.step().unwrap();
        let d2 = net.step().unwrap();
        assert_eq!(d1.msg, Message::Deregister);
        assert_eq!(d2.msg, msg());
        assert_eq!(d1.at_us, 100);
        assert_eq!(net.now_us(), 100);
        assert!(net.is_idle());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut net = SimNet::new(7);
        net.set_latency(Latency::Uniform(10, 1000));
        for _ in 0..50 {
            net.send(NodeId(1), NodeId(2), msg());
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
            net.set_latency(Latency::Uniform(0, 500));
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
    fn schedule_acts_as_timer() {
        let mut net = SimNet::new(1);
        net.schedule(NodeId(5), 50_000, msg());
        let d = net.step().unwrap();
        assert_eq!(d.at_us, 50_000);
        assert_eq!(d.dst, NodeId(5));
        assert_eq!(d.src, NodeId(5));
    }

    #[test]
    fn drop_faults_drop_messages() {
        let mut net = SimNet::new(3);
        net.set_faults(FaultPlan { drop_prob: 1.0, ..FaultPlan::default() });
        net.send(NodeId(1), NodeId(2), msg());
        assert!(net.is_idle());
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().messages_sent, 1);
    }

    #[test]
    fn down_windows_drop_messages_in_both_directions() {
        let mut net = SimNet::new(3);
        net.set_faults(FaultPlan {
            down: vec![DownWindow { node: NodeId(2), from_us: 100, to_us: 200 }],
            ..FaultPlan::default()
        });
        net.send(NodeId(1), NodeId(2), msg()); // t=0: delivered
        net.advance_to(100);
        net.send(NodeId(1), NodeId(2), msg()); // to the down node: dropped
        net.send(NodeId(2), NodeId(1), msg()); // from the down node: dropped
        net.advance_to(200);
        net.send(NodeId(1), NodeId(2), msg()); // window over: delivered
        assert_eq!(net.pending(), 2);
        assert_eq!(net.stats().link_down_dropped, 2);
        assert_eq!(net.stats().dropped, 0);
        assert_eq!(net.stats().messages_sent, 4);
    }

    #[test]
    fn dup_faults_duplicate_messages() {
        let mut net = SimNet::new(3);
        net.set_faults(FaultPlan { dup_prob: 1.0, ..FaultPlan::default() });
        net.send(NodeId(1), NodeId(2), msg());
        assert_eq!(net.pending(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn stats_track_bytes_and_kinds() {
        let mut net = SimNet::new(1);
        net.send(NodeId(1), NodeId(2), msg());
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        net.send(NodeId(1), NodeId(2), Message::Deregister);
        assert_eq!(net.stats().messages_sent, 3);
        assert!(net.stats().bytes_sent >= 3);
        assert_eq!(net.stats().per_kind.get("deregister"), Some(&2));
        assert_eq!(net.stats().per_kind.get("query-instances"), Some(&1));
    }

    #[test]
    fn run_drives_handler_chains() {
        // A ping-pong chain: node 2 replies once to the initial message.
        let mut net = SimNet::new(1);
        net.set_latency(Latency::Fixed(10));
        net.send(NodeId(1), NodeId(2), msg());
        let mut pongs = 0;
        let steps = net.run(100, |net, d| {
            if d.dst == NodeId(2) {
                net.send(NodeId(2), NodeId(1), Message::Deregister);
            } else {
                pongs += 1;
            }
        });
        assert_eq!(steps, 2);
        assert_eq!(pongs, 1);
    }

    #[test]
    fn run_respects_step_cap() {
        // Two nodes bouncing forever; the cap must stop it.
        let mut net = SimNet::new(1);
        net.send(NodeId(1), NodeId(2), msg());
        let steps = net.run(25, |net, d| {
            net.send(d.dst, d.src, msg());
        });
        assert_eq!(steps, 25);
    }
}
