//! Properties of the simulated network: exactly-once delivery
//! without faults, a monotone clock, FIFO per link under fixed latency,
//! and accurate statistics.

use cosoft_net::sim::{FaultPlan, Latency, NodeId, SimNet};
use cosoft_rng::{forall, Rng};
use cosoft_wire::{InstanceId, Message};

fn msg(tag: u64) -> Message {
    Message::Welcome { instance: InstanceId(tag) }
}

/// Without faults every sent message is delivered exactly once, in
/// nondecreasing virtual time.
#[test]
fn exactly_once_and_monotone() {
    let gen = |r: &mut Rng| {
        let sends = r.vec(1..50, |r| (r.range(0..5), r.range(0..5)));
        let latency = match r.range(0..3) {
            0 => Latency::Zero,
            1 => Latency::Fixed(r.range(0..10_000)),
            _ => Latency::Uniform(r.range(0..5_000), r.range(5_000..10_000)),
        };
        (r.next_u64(), sends, latency)
    };
    forall(0..128, gen, |(seed, sends, latency): (u64, Vec<(u64, u64)>, Latency)| {
        let mut net = SimNet::new(seed);
        net.set_latency(latency);
        for (i, (src, dst)) in sends.iter().enumerate() {
            net.send(NodeId(*src), NodeId(*dst), msg(i as u64));
        }
        let mut seen = vec![0u32; sends.len()];
        let mut last = 0;
        while let Some(d) = net.step() {
            assert!(d.at_us >= last, "clock went backwards");
            last = d.at_us;
            match d.msg {
                Message::Welcome { instance } => seen[instance.0 as usize] += 1,
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "not exactly-once: {seen:?}");
        assert_eq!(net.stats().messages_sent, sends.len() as u64);
        assert_eq!(net.stats().messages_delivered, sends.len() as u64);
    });
}

/// Fixed latency preserves global send order (FIFO).
#[test]
fn fixed_latency_is_fifo() {
    let gen = |r: &mut Rng| (r.next_u64(), r.range(1..40), r.range(0..10_000));
    forall(0..128, gen, |(seed, n, latency_us): (u64, usize, u64)| {
        let mut net = SimNet::new(seed);
        net.set_latency(Latency::Fixed(latency_us));
        for i in 0..n {
            net.send(NodeId(1), NodeId(2), msg(i as u64));
        }
        let mut expected = 0u64;
        while let Some(d) = net.step() {
            match d.msg {
                Message::Welcome { instance } => {
                    assert_eq!(instance.0, expected, "reordered under fixed latency");
                    expected += 1;
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(expected, n as u64);
    });
}

/// With 100% drop probability nothing is delivered and the drop
/// counter matches; with duplication every message arrives at least
/// once and the totals add up.
#[test]
fn fault_accounting() {
    forall(
        0..128,
        |r| (r.next_u64(), r.range(1..30)),
        |(seed, n): (u64, usize)| {
            let mut net = SimNet::new(seed);
            net.set_faults(FaultPlan { drop_prob: 1.0, ..FaultPlan::default() });
            for i in 0..n {
                net.send(NodeId(1), NodeId(2), msg(i as u64));
            }
            assert!(net.is_idle());
            assert_eq!(net.stats().dropped, n as u64);

            let mut net = SimNet::new(seed);
            net.set_faults(FaultPlan { dup_prob: 1.0, ..FaultPlan::default() });
            for i in 0..n {
                net.send(NodeId(1), NodeId(2), msg(i as u64));
            }
            let mut count = 0u64;
            while net.step().is_some() {
                count += 1;
            }
            assert_eq!(count, 2 * n as u64);
            assert_eq!(net.stats().duplicated, n as u64);
        },
    );
}

/// Identical seeds replay identical delivery schedules; byte counts
/// are identical too.
#[test]
fn seeded_determinism() {
    let gen = |r: &mut Rng| (r.next_u64(), r.vec(1..30, |r| (r.range(0..4), r.range(0..4))));
    forall(0..128, gen, |(seed, sends): (u64, Vec<(u64, u64)>)| {
        let run = |seed: u64| {
            let mut net = SimNet::new(seed);
            net.set_latency(Latency::Uniform(10, 5_000));
            net.set_faults(FaultPlan { drop_prob: 0.2, dup_prob: 0.2, ..FaultPlan::default() });
            for (i, (src, dst)) in sends.iter().enumerate() {
                net.send(NodeId(*src), NodeId(*dst), msg(i as u64));
            }
            let mut trace = Vec::new();
            while let Some(d) = net.step() {
                trace.push((d.at_us, d.src, d.dst));
            }
            (trace, net.stats().bytes_sent)
        };
        assert_eq!(run(seed), run(seed));
    });
}
