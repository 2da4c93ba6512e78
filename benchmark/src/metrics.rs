//! The metric catalogue — names, units, directions, bounds — and the
//! arithmetic from a [`Measurement`] to the values.
//!
//! The names are normative: `BENCHMARK.json` is generated from this file
//! (a test holds them equal) and every later performance change cites
//! them. What each metric means, and which end-to-end metric each layer
//! metric is expected to move on which workload, is in `README.md`.

use std::collections::HashMap;

use crate::driver::Measurement;
use crate::stats::Summary;
use crate::sut::Probes;
use crate::trace::{self, Span};
use crate::workload::Shape;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Normative name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
///
/// The bounds are what the run-to-run spread on one commit allows (see
/// the README's noise table), not what one would wish for: the host's
/// poll loop quantises every inbound hop to its park timer, so round
/// times are multi-modal, and each server instance settles into its own
/// regime. The median and the 95th percentile of the round time, and the
/// 95th percentile of the deliver time, sit on steps between modes and
/// read ±11–15 % on one commit; they are demoted to `gen.*` diagnostics,
/// and the mean and the 90th percentiles, which are steady, are gated.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "round_mean_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "round_p90_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "deliver_p50_ms", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "deliver_p90_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "rounds_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "cpu_ms_per_round", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wire_bytes_per_round", unit: "B", better: Better::Lower, bound: 0.02 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

/// One metric of a single layer. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Normative name; the part before the first dot is the layer (the
    /// program's module, or `gen`/`trace` for the harness itself).
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, reported by the traced pass.
pub const PER_LAYER: [PerLayer; 48] = [
    layer("wire.encode_us", "us", Better::Lower),
    layer("wire.decode_us", "us", Better::Lower),
    layer("wire.bytes_up_per_round", "B", Better::Lower),
    layer("wire.bytes_down_per_round", "B", Better::Lower),
    layer("wire.state.encode_us", "us", Better::Lower),
    layer("wire.state.decode_us", "us", Better::Lower),
    layer("wire.delta.diff_us", "us", Better::Lower),
    layer("wire.delta.apply_us", "us", Better::Lower),
    layer("wire.delta.version_us", "us", Better::Lower),
    layer("wire.delta.bytes_ratio", "ratio", Better::Lower),
    layer("net.inbound_us_p50", "us", Better::Lower),
    layer("net.inbound_us_p95", "us", Better::Lower),
    layer("net.send_batch_us", "us", Better::Lower),
    layer("net.outbound_us_p50", "us", Better::Lower),
    layer("net.outbound_us_p95", "us", Better::Lower),
    layer("net.frames_in_per_round", "count", Better::Lower),
    layer("net.frames_out_per_round", "count", Better::Lower),
    layer("net.enqueue_full_waits", "count", Better::Lower),
    layer("net.slow_consumer_evictions", "count", Better::Lower),
    layer("net.frames_dropped", "count", Better::Lower),
    layer("server.handle_us_p50", "us", Better::Lower),
    layer("server.handle_us_p95", "us", Better::Lower),
    layer("server.handle_us_per_round", "us", Better::Lower),
    layer("server.into_frames_us", "us", Better::Lower),
    layer("server.msgs_out_per_round", "count", Better::Lower),
    layer("server.encode_reuse_ratio", "ratio", Better::Higher),
    layer("server.payload_reuse_ratio", "ratio", Better::Higher),
    layer("server.delta_legs_per_round", "count", Better::Higher),
    layer("server.delta_fallbacks", "count", Better::Lower),
    layer("server.lock_conflicts", "count", Better::Lower),
    layer("server.events_rejected", "count", Better::Lower),
    layer("server.router.cross_shard_commands", "count", Better::Lower),
    layer("server.router.handoffs_completed", "count", Better::Lower),
    layer("server.history.record_us", "us", Better::Lower),
    layer("server.history.undo_us", "us", Better::Lower),
    layer("runtime.events_per_turn_mean", "count", Better::Higher),
    layer("runtime.turn_us_p50", "us", Better::Lower),
    layer("runtime.idle_ratio", "ratio", Better::Higher),
    layer("core.emit_us", "us", Better::Lower),
    layer("core.apply_us", "us", Better::Lower),
    layer("uikit.snapshot_us", "us", Better::Lower),
    layer("gen.busy_ratio", "ratio", Better::Lower),
    layer("gen.round_p50_ms", "ms", Better::Lower),
    layer("gen.round_p95_ms", "ms", Better::Lower),
    layer("gen.round_p99_ms", "ms", Better::Lower),
    layer("gen.round_max_ms", "ms", Better::Lower),
    layer("gen.deliver_p95_ms", "ms", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// A metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Normative name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value, with all the digits it was measured with.
    pub value: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Round and deliver times of the completed rounds, milliseconds.
pub fn round_summaries(m: &Measurement) -> (Summary, Summary) {
    let done = || m.rounds().filter(|r| r.end_ns != 0);
    let mut round: Vec<f64> = done().map(|r| ms(r.end_ns - r.start_ns)).collect();
    let mut deliver: Vec<f64> = done().map(|r| ms(r.deliver_ns - r.start_ns)).collect();
    (Summary::of(&mut round), Summary::of(&mut deliver))
}

/// The end-to-end metrics of an untraced measurement, in catalogue order.
pub fn end_to_end(m: &Measurement) -> Vec<Reading> {
    let (round, deliver) = round_summaries(m);
    let rounds = m.completed() as f64;
    let counters = m.counters();
    let setups: Vec<f64> = m.segments.iter().map(|s| s.setup_s).collect();
    let values: [f64; END_TO_END.len()] = [
        round.mean,
        round.p90,
        deliver.p50,
        deliver.p90,
        ratio(rounds, m.window_s()),
        ratio(m.segments.iter().map(|s| s.cpu_ms).sum(), rounds),
        ratio((counters.bytes_in + counters.bytes_out) as f64, rounds),
        crate::stats::median(&setups),
        m.peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Reading { name: def.name, unit: def.unit, value })
        .collect()
}

/// The traced windows' spans of both threads, with the dispatch loop's
/// spans attributed to rounds: a `server.handle` span belongs to the
/// round its connection's group had in flight when it started, and a turn
/// with its other children to the round of its first handled event.
pub fn attributed_spans(t: &Measurement) -> Vec<Span> {
    let members = match t.workload.shape {
        Shape::Events { members, .. } => members as u32,
        Shape::StateSync { viewers } => viewers as u32 + 1,
    };
    let mut all = Vec::new();
    for seg in &t.segments {
        let (from, until) = seg.window_ns;
        let mut by_group: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for r in &seg.rounds {
            by_group.entry(r.group).or_default().push((r.start_ns, r.id));
        }
        let round_at = |conn: u32, at: u64| -> u64 {
            let group = (conn.max(1) - 1) / members;
            by_group.get(&group).map_or(0, |rounds| {
                match rounds.partition_point(|(start, _)| *start <= at) {
                    0 => 0,
                    i => rounds[i - 1].1,
                }
            })
        };
        let mut server: Vec<Span> = seg
            .server
            .spans
            .iter()
            .filter(|s| s.start_ns >= from && s.end_ns <= until)
            .cloned()
            .collect();
        let mut turn_round: HashMap<u64, u64> = HashMap::new();
        for s in server.iter_mut().filter(|s| s.name == "server.handle") {
            s.round = round_at(s.conn, s.start_ns);
            turn_round.entry(s.cause).or_insert(s.round);
        }
        for s in server.iter_mut().filter(|s| s.name != "server.handle") {
            let turn = if s.name == "runtime.turn" { s.id } else { s.cause };
            s.round = turn_round.get(&turn).copied().unwrap_or(0);
        }
        all.extend(seg.gen_spans.iter().cloned());
        all.append(&mut server);
    }
    all
}

/// Self time per span name per completed round of the traced windows,
/// microseconds: the per-layer latency budget.
pub fn budget_us_per_round(t: &Measurement, spans: &[Span]) -> Vec<(&'static str, f64, f64)> {
    let rounds = t.completed() as f64;
    trace::self_time_by_name(spans)
        .into_iter()
        .map(|(name, count, self_ns)| {
            (name, ratio(count as f64, rounds), ratio(us(self_ns), rounds))
        })
        .collect()
}

/// Pairs the k-th frame sent on a connection with the k-th frame received
/// from it (a TCP stream keeps order) and returns the delays, in ns.
/// Both lists start at a quiescent point, so their k-th entries match.
fn fifo_delays(sent: &[(u32, u64)], received: &[(u32, u64)]) -> Vec<f64> {
    let mut queues: HashMap<u32, std::collections::VecDeque<u64>> = HashMap::new();
    for (conn, at) in sent {
        queues.entry(*conn).or_default().push_back(*at);
    }
    received
        .iter()
        .filter_map(|(conn, at)| {
            // The receiver may stamp before the sender does: the stamps
            // are taken after the calls return.
            queues.get_mut(conn)?.pop_front().map(|sent_at| at.saturating_sub(sent_at) as f64)
        })
        .collect()
}

/// Span durations and transport delays of the traced windows, pooled
/// over the segments.
#[derive(Default)]
struct Pooled {
    /// Durations by span name, microseconds. Dispatch-loop spans other
    /// than `server.handle` only from turns that handled an event: the
    /// rest are liveness ticks and the shutdown wake-up.
    dur_us: HashMap<&'static str, Vec<f64>>,
    events_per_turn: Vec<f64>,
    inbound_ns: Vec<f64>,
    outbound_ns: Vec<f64>,
    idle_ns: u64,
    window_ns: u64,
}

impl Pooled {
    fn of(t: &Measurement) -> Pooled {
        let mut p = Pooled::default();
        for seg in &t.segments {
            let (from, until) = seg.window_ns;
            p.window_ns += until - from;
            let in_window = |s: &&Span| s.start_ns >= from && s.end_ns <= until;
            for s in &seg.gen_spans {
                p.dur_us.entry(s.name).or_default().push(us(s.dur_ns()));
            }
            let busy: HashMap<u64, u32> =
                seg.server.turns.iter().copied().filter(|(_, n)| *n > 0).collect();
            let mut popped = Vec::new();
            for s in seg.server.spans.iter().filter(in_window) {
                let turn = if s.name == "runtime.turn" { s.id } else { s.cause };
                let Some(events) = busy.get(&turn) else { continue };
                p.dur_us.entry(s.name).or_default().push(us(s.dur_ns()));
                match s.name {
                    "runtime.turn" => p.events_per_turn.push(f64::from(*events)),
                    "server.handle" => popped.push((s.conn, s.start_ns)),
                    _ => {}
                }
            }
            p.idle_ns += seg
                .server
                .spans
                .iter()
                .filter(|s| s.name == "runtime.idle")
                .map(|s| s.end_ns.min(until).saturating_sub(s.start_ns.max(from)))
                .sum::<u64>();
            let written: Vec<(u32, u64)> = seg
                .writes
                .iter()
                .flat_map(|(conn, at, n)| std::iter::repeat_n((*conn, *at), *n as usize))
                .collect();
            p.inbound_ns.extend(fifo_delays(&written, &popped));
            let sent: Vec<(u32, u64)> = seg
                .server
                .sends
                .iter()
                .copied()
                .filter(|(_, at)| *at >= from && *at <= until)
                .collect();
            p.outbound_ns.extend(fifo_delays(&sent, &seg.reads));
        }
        p
    }

    fn summary(&mut self, name: &str) -> Summary {
        Summary::of(self.dur_us.get_mut(name).map_or(&mut [], Vec::as_mut_slice))
    }
}

/// The per-layer metrics, in catalogue order: counters from the untraced
/// windows `u`, spans from the traced windows `t`, probes from `p`.
pub fn per_layer(u: &Measurement, t: &Measurement, p: &Probes) -> Vec<Reading> {
    let rounds = u.completed() as f64;
    let c = u.counters();
    let totals = u.segments.last().map(|s| s.totals).unwrap_or_default();
    let mut pool = Pooled::of(t);
    let handle = pool.summary("server.handle");
    let handle_total: f64 = pool.dur_us.get("server.handle").map_or(0.0, |d| d.iter().sum());
    let (inbound, outbound) =
        (Summary::of(&mut pool.inbound_ns), Summary::of(&mut pool.outbound_ns));
    let events_per_turn = Summary::of(&mut pool.events_per_turn);
    let (u_round, u_deliver) = round_summaries(u);
    let (t_round, _) = round_summaries(t);
    let paused: u64 = u.segments.iter().map(|s| s.blocked_ns + s.think_ns).sum();

    let values: [f64; PER_LAYER.len()] = [
        pool.summary("wire.encode").p50,
        pool.summary("wire.decode").p50,
        ratio(c.bytes_in as f64, rounds),
        ratio(c.bytes_out as f64, rounds),
        p.wire_state_encode_us,
        p.wire_state_decode_us,
        p.wire_delta_diff_us,
        p.wire_delta_apply_us,
        p.wire_delta_version_us,
        p.wire_delta_bytes_ratio,
        inbound.p50 / 1e3,
        inbound.p95 / 1e3,
        pool.summary("net.send_batch").p50,
        outbound.p50 / 1e3,
        outbound.p95 / 1e3,
        ratio(c.frames_in as f64, rounds),
        ratio(c.frames_out as f64, rounds),
        c.enqueue_full_waits as f64,
        c.slow_consumer_evictions as f64,
        c.frames_dropped as f64,
        handle.p50,
        handle.p95,
        ratio(handle_total, t.completed() as f64),
        pool.summary("server.into_frames").p50,
        ratio(c.messages_out as f64, rounds),
        ratio(c.shared_deliveries as f64, c.shared_frames_encoded as f64),
        ratio(c.payload_reuses as f64, (c.payload_encodes + c.payload_reuses) as f64),
        ratio(c.delta_legs_sent as f64, rounds),
        c.delta_fallbacks as f64,
        c.lock_conflicts as f64,
        c.events_rejected as f64,
        totals.cross_shard_commands as f64,
        totals.handoffs_completed as f64,
        p.server_history_record_us,
        p.server_history_undo_us,
        events_per_turn.mean,
        pool.summary("runtime.turn").p50,
        ratio(pool.idle_ns as f64, pool.window_ns as f64),
        pool.summary("core.emit").p50,
        pool.summary("core.apply").p50,
        p.uikit_snapshot_us,
        1.0 - ratio(paused as f64, u.window_s() * 1e9),
        u_round.p50,
        u_round.p95,
        u_round.p99,
        u_round.max,
        u_deliver.p95,
        ratio(t_round.mean, u_round.mean),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, value)| Reading { name: def.name, unit: def.unit, value })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(crate::workload::WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(crate::workload::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn every_layer_metric_names_a_layer_of_the_program_or_the_harness() {
        let layers = ["wire", "net", "server", "runtime", "core", "uikit", "gen", "trace"];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(layers.contains(&layer), "{} has no known layer", m.name);
        }
    }

    #[test]
    fn frames_pair_up_in_order_per_connection() {
        let sent = [(1, 100), (2, 110), (1, 200), (3, 300)];
        let received = [(2, 150), (1, 160), (1, 190), (4, 400)];
        // conn 1: 160-100 and 190-200 (clamped to 0); conn 2: 40; conn 3
        // never arrived; conn 4 was never sent.
        assert_eq!(fifo_delays(&sent, &received), vec![40.0, 60.0, 0.0]);
    }
}
