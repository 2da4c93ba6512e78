//! Properties of the simulated network: exactly-once delivery without
//! outages, a monotone clock, FIFO per link under jitter while links race
//! each other, global send order (whatever the seed) without jitter, and
//! seeded determinism.

use std::cell::Cell;

use cosoft_net::sim::{DownWindow, FaultPlan, NodeId, SimNet};
use cosoft_rng::{forall, Rng};
use cosoft_wire::{InstanceId, Message};

fn msg(tag: u64) -> Message {
    Message::Welcome { instance: InstanceId(tag) }
}

fn tag(d: &cosoft_net::Delivery) -> u64 {
    match d.msg {
        Message::Welcome { instance } => instance.0,
        ref other => panic!("unexpected message {other:?}"),
    }
}

/// Sends message `i` over `sends[i]`.
fn send_all(net: &mut SimNet, sends: &[(u64, u64)]) {
    for (i, &(src, dst)) in sends.iter().enumerate() {
        net.send(NodeId(src), NodeId(dst), msg(i as u64));
    }
}

/// Every delivery until idle, as `(at_us, src, dst, i)`.
fn drain(net: &mut SimNet) -> Vec<(u64, NodeId, NodeId, u64)> {
    std::iter::from_fn(|| net.step()).map(|d| (d.at_us, d.src, d.dst, tag(&d))).collect()
}

fn run(net: &mut SimNet, sends: &[(u64, u64)]) -> Vec<(u64, NodeId, NodeId, u64)> {
    send_all(net, sends);
    drain(net)
}

/// Without outages every sent message is delivered exactly once, in
/// nondecreasing virtual time.
#[test]
fn exactly_once_and_monotone() {
    let gen = |r: &mut Rng| {
        let sends = r.vec(1..50, |r| (r.range(0..5), r.range(0..5)));
        (r.next_u64(), sends, r.range(0..10_000), r.range(0..5_000))
    };
    forall(0..128, gen, |(seed, sends, one_way, jitter): (u64, Vec<(u64, u64)>, u64, u64)| {
        let mut net = SimNet::new(seed);
        net.set_latency(one_way, jitter);
        let trace = run(&mut net, &sends);
        let mut seen = vec![0u32; sends.len()];
        let mut last = 0;
        for (at_us, _, _, i) in trace {
            assert!(at_us >= last, "clock went backwards");
            last = at_us;
            seen[i as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "not exactly-once: {seen:?}");
        assert_eq!(net.stats().messages_sent, sends.len() as u64);
        assert_eq!(net.stats().messages_delivered, sends.len() as u64);
    });
}

/// Under jitter each directed link delivers in send order, while
/// different links race: across the sweep some message overtakes one
/// sent before it on another link.
#[test]
fn links_are_fifo_under_jitter() {
    let overtakes = Cell::new(0u32);
    let gen = |r: &mut Rng| {
        let sends = r.vec(2..60, |r| (r.range(0..3), r.range(0..3)));
        (r.next_u64(), sends, r.range(0..2_000), r.range(1..2_000))
    };
    forall(0..128, gen, |(seed, sends, one_way, jitter): (u64, Vec<(u64, u64)>, u64, u64)| {
        let mut net = SimNet::new(seed);
        net.set_latency(one_way, jitter);
        let trace = run(&mut net, &sends);
        for (at, src, dst, i) in &trace {
            let link = |&(_, s, d, _): &(u64, NodeId, NodeId, u64)| (s, d) == (*src, *dst);
            let earlier = trace.iter().take_while(|t| t.3 != *i);
            assert!(
                earlier.filter(|t| link(t)).all(|t| t.3 < *i),
                "link {src}->{dst} reordered message {i} (at {at} µs)"
            );
        }
        if trace.windows(2).any(|w| w[0].3 > w[1].3) {
            overtakes.set(overtakes.get() + 1);
        }
    });
    assert!(overtakes.get() > 0, "no link ever overtook another");
}

/// Without jitter delivery is global send order, and the seed draws
/// nothing: any two seeds give the same schedule.
#[test]
fn fixed_latency_is_fifo() {
    let gen = |r: &mut Rng| {
        (r.next_u64(), r.vec(1..40, |r| (r.range(0..4), r.range(0..4))), r.range(0..10_000))
    };
    forall(0..128, gen, |(seed, sends, one_way): (u64, Vec<(u64, u64)>, u64)| {
        let schedule = |seed| {
            let mut net = SimNet::new(seed);
            net.set_latency(one_way, 0);
            run(&mut net, &sends)
        };
        let trace = schedule(seed);
        let order: Vec<u64> = trace.iter().map(|t| t.3).collect();
        assert_eq!(order, (0..sends.len() as u64).collect::<Vec<_>>(), "reordered");
        assert_eq!(trace, schedule(seed ^ 1), "a seed moved a jitter-free schedule");
    });
}

/// Identical seeds replay identical delivery schedules, outages and
/// resets included; byte counts are identical too.
#[test]
fn seeded_determinism() {
    let gen = |r: &mut Rng| {
        let sends = r.vec(1..30, |r| (r.range(0..4), r.range(0..4)));
        (r.next_u64(), sends, r.range(0..30))
    };
    forall(0..128, gen, |(seed, sends, reset_at): (u64, Vec<(u64, u64)>, usize)| {
        let replay = |seed: u64| {
            let mut net = SimNet::new(seed);
            net.set_latency(10, 5_000);
            net.set_faults(FaultPlan {
                down: vec![DownWindow { node: NodeId(3), from_us: 1_000, to_us: 2_000 }],
            });
            // Node 2's connection resets midway with messages in flight.
            let (before, after) = sends.split_at(reset_at.min(sends.len()));
            send_all(&mut net, before);
            net.sever(NodeId(2));
            net.restore(NodeId(2));
            (run(&mut net, after), net.stats().clone())
        };
        assert_eq!(replay(seed), replay(seed));
    });
}
