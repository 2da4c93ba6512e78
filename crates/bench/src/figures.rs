//! Series computations regenerating every figure and table of the paper
//! (see DESIGN.md §3 for the experiment index). Each function returns the
//! printable rows; the bench targets and the `table1`/`figures` binaries
//! share these.

use std::sync::Arc;

use cosoft_apps::classroom;
use cosoft_baselines::{
    editing_workload, mixed_workload, run_cosoft_live, run_fully_replicated, run_multiplex,
    run_timestamp, run_ui_replicated, ActionKind, ArchConfig, RunStats,
};
use cosoft_core::harness::SimHarness;
use cosoft_core::session::Session;
use cosoft_retrieval::{sample_literature_db, Predicate, Query};
use cosoft_uikit::{spec, Toolkit};
use cosoft_wire::{AttrName, CopyMode, EventKind, ObjectPath, UiEvent, UserId, Value};

use crate::report::fmt_us;

fn cfg() -> ArchConfig {
    ArchConfig::default()
}

// ---------------------------------------------------------------------------
// Figure 1 — multiplex architecture scaling
// ---------------------------------------------------------------------------

/// Figure 1 series: multiplex architecture under growing population.
/// Claim: sequential dispatch through the single instance makes latency
/// grow with user count; every interaction pays a round trip.
pub fn fig1_rows() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for users in [2usize, 4, 8, 16, 32] {
        let w = editing_workload(17, users, 50, 30_000, 0.1);
        let stats = run_multiplex(&w, &cfg());
        rows.push(vec![
            users.to_string(),
            fmt_us(stats.mean_latency_us(Some(ActionKind::Ui))),
            fmt_us(stats.percentile_latency_us(Some(ActionKind::Ui), 0.99) as f64),
            format!("{:.0}", stats.bytes_per_action()),
        ]);
    }
    rows
}

/// Column headers for [`fig1_rows`].
pub const FIG1_HEADERS: [&str; 4] = ["users", "ui mean", "ui p99", "bytes/action"];

// ---------------------------------------------------------------------------
// Figures 2 & 3 — semantic-action blocking across architectures
// ---------------------------------------------------------------------------

/// Figure 2/3 series: sweep the semantic-action service time and report
/// how each architecture's latencies respond. Claim: the UI-replicated
/// centre serializes all semantic actions (they queue); full replication
/// keeps private work local and unblocked.
pub fn fig23_rows() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for semantic_ms in [0u64, 1, 5, 20, 100] {
        let mut config = cfg();
        config.semantic_service_us = semantic_ms * 1_000;
        // 8 users, mostly private work, 20 % semantic actions.
        let w = mixed_workload(23, 8, 50, 25_000, 0.2, 0.2);
        let ui_rep = run_ui_replicated(&w, &config);
        let full = run_fully_replicated(&w, &config);
        rows.push(vec![
            format!("{semantic_ms} ms"),
            fmt_us(ui_rep.mean_latency_us(Some(ActionKind::Semantic))),
            fmt_us(ui_rep.percentile_latency_us(Some(ActionKind::Semantic), 0.99) as f64),
            fmt_us(full.mean_latency_us(Some(ActionKind::Semantic))),
            fmt_us(full.percentile_latency_us(Some(ActionKind::Semantic), 0.99) as f64),
        ]);
    }
    rows
}

/// Column headers for [`fig23_rows`].
pub const FIG23_HEADERS: [&str; 5] =
    ["semantic svc", "ui-repl mean", "ui-repl p99", "full-repl mean", "full-repl p99"];

// ---------------------------------------------------------------------------
// Figure 4 — COSOFT coupling mechanics (live protocol)
// ---------------------------------------------------------------------------

/// One Figure-4 measurement for a coupling group of `n` instances.
#[derive(Debug, Clone)]
pub struct CouplingCosts {
    /// Group size.
    pub group: usize,
    /// Virtual time to create the full couple chain (µs).
    pub couple_us: u64,
    /// Virtual time for one event round (grant → execute → unlock) (µs).
    pub event_round_us: u64,
    /// Protocol bytes for that round.
    pub event_bytes: u64,
    /// Rejections when every member fires simultaneously.
    pub simultaneous_rejects: u64,
}

/// Measures coupling-layer costs on the live protocol.
pub fn fig4_measure(n: usize, latency_us: u64) -> CouplingCosts {
    let spec_src = r#"form f { textfield t text="" }"#;
    let path = ObjectPath::parse("f.t").expect("static");
    let mut h = SimHarness::with_latency(31, latency_us);
    let nodes: Vec<_> = (0..n)
        .map(|u| {
            h.add_session(Session::new(
                Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
                UserId(u as u64 + 1),
                "h",
                "bench",
            ))
        })
        .collect();
    h.settle();

    let t0 = h.net.now_us();
    for w in nodes.windows(2) {
        let dst = h.session(w[1]).gid(&path).expect("registered");
        h.session_mut(w[0]).couple(&path, dst).expect("registered");
        h.settle();
    }
    let couple_us = h.net.now_us() - t0;

    h.net.reset_stats();
    let t0 = h.net.now_us();
    h.session_mut(nodes[0])
        .user_event(UiEvent::new(
            path.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("x".into())],
        ))
        .expect("valid");
    h.settle();
    let event_round_us = h.net.now_us() - t0;
    let event_bytes = h.net.stats().bytes_sent;

    // Contention probe: everyone fires in the same instant.
    let before = h.server.rejected_events();
    for (i, &node) in nodes.iter().enumerate() {
        let _ = h.session_mut(node).user_event(UiEvent::new(
            path.clone(),
            EventKind::TextCommitted,
            vec![Value::Text(format!("c{i}"))],
        ));
    }
    h.settle();
    let simultaneous_rejects = h.server.rejected_events() - before;

    CouplingCosts { group: n, couple_us, event_round_us, event_bytes, simultaneous_rejects }
}

/// Figure 4 series over group sizes.
pub fn fig4_rows() -> Vec<Vec<String>> {
    [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&n| {
            let c = fig4_measure(n, 2_000);
            vec![
                n.to_string(),
                fmt_us(c.couple_us as f64),
                fmt_us(c.event_round_us as f64),
                c.event_bytes.to_string(),
                c.simultaneous_rejects.to_string(),
            ]
        })
        .collect()
}

/// Column headers for [`fig4_rows`].
pub const FIG4_HEADERS: [&str; 5] =
    ["group", "couple chain", "event round", "bytes/round", "rejects (all fire)"];

// ---------------------------------------------------------------------------
// Table 1 — comparison of synchronization approaches
// ---------------------------------------------------------------------------

/// Seeds the semantic-latency column of Table 1 averages over.
const TABLE1_SEEDS: u64 = 64;

/// Table 1 rows: the same mixed workload over every architecture, plus the
/// paper's qualitative flexibility dimensions. The UI and byte columns
/// are seed 7's. The mean semantic latency is averaged over
/// [`TABLE1_SEEDS`] seeds, and the last column counts the seeds on which
/// it was at least the fully replicated model's: that ordering depends on
/// the draw (`cosoft-baselines`, `table1_ordering_holds_on_mixed_workload`).
pub fn table1_rows() -> Vec<Vec<String>> {
    let workload = |seed| mixed_workload(seed, 8, 60, 25_000, 0.15, 0.3);
    let w = workload(7);
    let config = cfg();
    let m = run_multiplex(&w, &config);
    let u = run_ui_replicated(&w, &config);
    let f = run_fully_replicated(&w, &config);
    let live = run_cosoft_live(&mixed_workload(7, 4, 20, 25_000, 0.15, 0.3), 7, 2_000);
    let ts = run_timestamp(&w, config.one_way_latency_us);

    // Per seed: the mean semantic latency under each model, in row order.
    let sem = |s: &RunStats| s.mean_latency_us(Some(ActionKind::Semantic));
    let per_seed: Vec<[f64; 4]> = (0..TABLE1_SEEDS)
        .map(|seed| {
            let w = workload(seed);
            [
                sem(&run_multiplex(&w, &config)),
                sem(&run_ui_replicated(&w, &config)),
                sem(&run_fully_replicated(&w, &config)),
                sem(&run_timestamp(&w, config.one_way_latency_us).run),
            ]
        })
        .collect();
    let sem_cells = |model: usize| {
        let mean = per_seed.iter().map(|s| s[model]).sum::<f64>() / TABLE1_SEEDS as f64;
        let held = per_seed.iter().filter(|s| s[model] >= s[2]).count();
        (fmt_us(mean), format!("{held}/{TABLE1_SEEDS}"))
    };

    let quant = |name: &str, s: &RunStats, sem: (String, String), partial, hetero, dynamic| {
        vec![
            name.to_owned(),
            fmt_us(s.mean_latency_us(Some(ActionKind::Ui))),
            fmt_us(s.percentile_latency_us(Some(ActionKind::Ui), 0.99) as f64),
            sem.0,
            format!("{:.0}", s.bytes_per_action()),
            partial,
            hetero,
            dynamic,
            sem.1,
        ]
    };
    let s = String::from;
    vec![
        quant("multiplex (Fig 1)", &m, sem_cells(0), s("no"), s("no"), s("no")),
        quant("UI-replicated (Fig 2)", &u, sem_cells(1), s("partly"), s("no"), s("static")),
        quant(
            "fully replicated / COSOFT (Fig 3/4)",
            &f,
            (sem_cells(2).0, s("—")),
            s("yes"),
            s("yes"),
            s("dynamic"),
        ),
        quant(
            "COSOFT live protocol (4 users)",
            &live,
            (fmt_us(sem(&live)), s("—")),
            s("yes"),
            s("yes"),
            s("dynamic"),
        ),
        quant(
            &format!("timestamp ordering ({} rollbacks)", ts.rollbacks),
            &ts.run,
            sem_cells(3),
            s("yes"),
            s("no"),
            s("static"),
        ),
    ]
}

/// Column headers for [`table1_rows`].
pub const TABLE1_HEADERS: [&str; 9] = [
    "approach",
    "ui mean",
    "ui p99",
    "sem mean",
    "bytes/action",
    "partial?",
    "heterogeneous?",
    "population",
    "sem ≥ COSOFT's",
];

// ---------------------------------------------------------------------------
// L1 — indirect coupling (classroom lesson)
// ---------------------------------------------------------------------------

/// One L1 measurement: bytes to synchronize a parameter change when only
/// the parameters are coupled (display regenerates locally) versus when
/// the dependent display's content is shipped.
pub fn l1_measure(display_points: usize) -> (u64, u64) {
    // Indirect: the real classroom — parameters coupled, curve local.
    let mut h = SimHarness::with_latency(41, 2_000);
    let t = h.add_session(classroom::teacher_session(UserId(1)));
    let s = h.add_session(classroom::student_session(UserId(2), "x"));
    h.settle();
    let ti = h.instance_of(t).expect("registered");
    let si = h.instance_of(s).expect("registered");
    classroom::join_student(h.session_mut(t), ti, si);
    h.settle();
    h.net.reset_stats();
    h.session_mut(s)
        .user_event(classroom::set_param_event("exercise", "amplitude", 2.5))
        .expect("valid");
    h.settle();
    let indirect = h.net.stats().bytes_sent;

    // Direct: couple a display-like widget and ship the regenerated curve
    // as an event payload of `display_points` integers.
    let spec_src = r#"form f { textfield t text="" }"#;
    let path = ObjectPath::parse("f.t").expect("static");
    let mut h = SimHarness::with_latency(41, 2_000);
    let a = h.add_session(Session::new(
        Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
        UserId(1),
        "h",
        "bench",
    ));
    let b = h.add_session(Session::new(
        Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
        UserId(2),
        "h",
        "bench",
    ));
    h.settle();
    let dst = h.session(b).gid(&path).expect("registered");
    h.session_mut(a).couple(&path, dst).expect("registered");
    h.settle();
    h.net.reset_stats();
    let curve: Vec<i64> = (0..display_points as i64).collect();
    h.session_mut(a)
        .user_event(UiEvent::new(
            path,
            EventKind::Custom("display-update".into()),
            vec![Value::IntList(curve)],
        ))
        .expect("valid");
    h.settle();
    let direct = h.net.stats().bytes_sent;
    (indirect, direct)
}

/// L1 series over display sizes.
pub fn l1_rows() -> Vec<Vec<String>> {
    [64usize, 256, 1_024, 4_096, 16_384]
        .iter()
        .map(|&d| {
            let (indirect, direct) = l1_measure(d);
            vec![
                d.to_string(),
                indirect.to_string(),
                direct.to_string(),
                format!("{:.1}x", direct as f64 / indirect as f64),
            ]
        })
        .collect()
}

/// Column headers for [`l1_rows`].
pub const L1_HEADERS: [&str; 4] =
    ["display points", "indirect bytes", "direct bytes", "direct/indirect"];

// ---------------------------------------------------------------------------
// L2 — synchronization by state vs by action
// ---------------------------------------------------------------------------

/// One L2 measurement: after `actions` edits in a decoupled period, bytes
/// and virtual time to re-synchronize by replaying the actions versus one
/// state copy.
pub fn l2_measure(actions: usize, text_len: usize) -> (u64, u64, u64, u64) {
    let spec_src = r#"form f { textfield t text="" }"#;
    let path = ObjectPath::parse("f.t").expect("static");
    let make = |u| {
        Session::new(
            Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
            UserId(u),
            "h",
            "bench",
        )
    };
    let run = |by_state: bool| -> (u64, u64) {
        let mut h = SimHarness::with_latency(43, 2_000);
        let a = h.add_session(make(1));
        let b = h.add_session(make(2));
        h.settle();
        // a works decoupled.
        let edits: Vec<UiEvent> = (0..actions)
            .map(|k| {
                UiEvent::new(
                    path.clone(),
                    EventKind::TextCommitted,
                    vec![Value::Text(format!("{k}-{}", "x".repeat(text_len)))],
                )
            })
            .collect();
        for e in &edits {
            h.session_mut(a).user_event(e.clone()).expect("valid");
        }
        h.settle();
        h.net.reset_stats();
        let t0 = h.net.now_us();
        let dst = h.session(b).gid(&path).expect("registered");
        if by_state {
            // One snapshot transfer.
            h.session_mut(a).copy_to(&path, dst, CopyMode::Strict).expect("registered");
            h.settle();
        } else {
            // Replay every recorded action through a couple link.
            h.session_mut(a).couple(&path, dst).expect("registered");
            h.settle();
            for e in &edits {
                h.session_mut(a).user_event(e.clone()).expect("valid");
                h.settle();
            }
        }
        (h.net.stats().bytes_sent, h.net.now_us() - t0)
    };
    let (state_bytes, state_us) = run(true);
    let (action_bytes, action_us) = run(false);
    (state_bytes, state_us, action_bytes, action_us)
}

/// L2 series over decoupled-period lengths.
pub fn l2_rows() -> Vec<Vec<String>> {
    [1usize, 10, 100, 1_000]
        .iter()
        .map(|&a| {
            let (sb, st, ab, at) = l2_measure(a, 16);
            vec![
                a.to_string(),
                sb.to_string(),
                fmt_us(st as f64),
                ab.to_string(),
                fmt_us(at as f64),
                format!("{:.1}x", ab as f64 / sb as f64),
            ]
        })
        .collect()
}

/// Column headers for [`l2_rows`].
pub const L2_HEADERS: [&str; 6] = [
    "actions while decoupled",
    "state bytes",
    "state time",
    "replay bytes",
    "replay time",
    "replay/state bytes",
];

// ---------------------------------------------------------------------------
// L3 — multiple evaluation of queries vs evaluate-once-and-share
// ---------------------------------------------------------------------------

/// One L3 measurement: bytes on the wire to synchronize a query's results
/// among `k` instances via multiple evaluation (broadcast the invocation,
/// everyone evaluates locally) versus evaluate-once-and-share (ship the
/// result rows).
pub fn l3_measure(k: usize, rows: usize) -> (u64, u64, usize) {
    let table = Arc::new(sample_literature_db(7, rows * 3));
    let result = Query::new()
        .filter(Predicate::Range("year".into(), 1985, 1994))
        .limit(rows)
        .run(&table)
        .expect("query runs");
    let result_lines = result.to_lines();
    let result_bytes: usize = result_lines.iter().map(|l| l.len() + 8).sum();

    // Multiple evaluation: the Activate event broadcast through the
    // coupled forms; every instance evaluates locally.
    let mut h = SimHarness::with_latency(47, 2_000);
    let nodes: Vec<_> = (0..k)
        .map(|u| {
            h.add_session(cosoft_apps::tori::tori_session(UserId(u as u64 + 1), table.clone()))
        })
        .collect();
    h.settle();
    let root = ObjectPath::parse("tori").expect("static");
    for w in nodes.windows(2) {
        let dst = h.session(w[1]).gid(&root).expect("registered");
        h.session_mut(w[0]).couple(&root, dst).expect("registered");
        h.settle();
    }
    h.net.reset_stats();
    h.session_mut(nodes[0]).user_event(cosoft_apps::tori::events::invoke()).expect("valid");
    h.settle();
    let multi_bytes = h.net.stats().bytes_sent;

    // Evaluate-once-and-share: one evaluation, results shipped to k-1
    // peers (modelled as the encoded result payload per peer plus the
    // same floor-control overhead the invocation itself costs).
    let share_bytes = multi_bytes + (result_bytes * (k - 1)) as u64;
    (multi_bytes, share_bytes, result_lines.len())
}

/// L3 series over instance counts and result sizes.
pub fn l3_rows() -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for &k in &[2usize, 4, 8, 16] {
        for &rows in &[10usize, 100, 1_000] {
            let (multi, share, actual) = l3_measure(k, rows);
            out.push(vec![
                k.to_string(),
                actual.to_string(),
                multi.to_string(),
                share.to_string(),
                if multi < share { "multi-eval".into() } else { "share".into() },
            ]);
        }
    }
    out
}

/// Column headers for [`l3_rows`].
pub const L3_HEADERS: [&str; 5] =
    ["instances", "result rows", "multi-eval bytes", "share bytes", "cheaper"];

// ---------------------------------------------------------------------------
// L4 — floor-control granularity
// ---------------------------------------------------------------------------

/// One L4 measurement: typing an `n`-character word into a coupled field
/// with per-keystroke events versus one commit event.
pub fn l4_measure(n: usize) -> (u64, u64, u64, u64) {
    let spec_src = r#"form f { textfield t text="" }"#;
    let path = ObjectPath::parse("f.t").expect("static");
    let make = |u| {
        Session::new(
            Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
            UserId(u),
            "h",
            "bench",
        )
    };
    let run = |fine: bool| -> (u64, u64) {
        let mut h = SimHarness::with_latency(53, 2_000);
        let a = h.add_session(make(1));
        let b = h.add_session(make(2));
        h.settle();
        let dst = h.session(b).gid(&path).expect("registered");
        h.session_mut(a).couple(&path, dst).expect("registered");
        h.settle();
        h.net.reset_stats();
        let t0 = h.net.now_us();
        if fine {
            for i in 0..n {
                h.session_mut(a)
                    .user_event(UiEvent::new(
                        path.clone(),
                        EventKind::TextEdited,
                        vec![Value::Int(i as i64), Value::Text("x".into())],
                    ))
                    .expect("valid");
                h.settle();
            }
        } else {
            h.session_mut(a)
                .user_event(UiEvent::new(
                    path.clone(),
                    EventKind::TextCommitted,
                    vec![Value::Text("x".repeat(n))],
                ))
                .expect("valid");
            h.settle();
        }
        (h.net.stats().bytes_sent, h.net.now_us() - t0)
    };
    let (commit_bytes, commit_us) = run(false);
    let (keystroke_bytes, keystroke_us) = run(true);
    (commit_bytes, commit_us, keystroke_bytes, keystroke_us)
}

/// L4 series over word lengths.
pub fn l4_rows() -> Vec<Vec<String>> {
    [8usize, 32, 128]
        .iter()
        .map(|&n| {
            let (cb, ct, kb, kt) = l4_measure(n);
            vec![
                n.to_string(),
                cb.to_string(),
                fmt_us(ct as f64),
                kb.to_string(),
                fmt_us(kt as f64),
                format!("{:.0}x", kt as f64 / ct.max(1) as f64),
            ]
        })
        .collect()
}

/// Column headers for [`l4_rows`].
pub const L4_HEADERS: [&str; 6] =
    ["chars", "commit bytes", "commit time", "keystroke bytes", "keystroke time", "time ratio"];

// ---------------------------------------------------------------------------
// L5 — the compatibility machinery of §3.3
// ---------------------------------------------------------------------------

/// Median, in µs, of five runs of `timed`, which returns how long the
/// part of it that counts took.
fn median_us(mut timed: impl FnMut() -> std::time::Duration) -> f64 {
    let mut runs: Vec<_> = (0..5).map(|_| timed()).collect();
    runs.sort();
    runs[runs.len() / 2].as_secs_f64() * 1e6
}

/// Wall time in µs — the median of five runs each — of an
/// s-compatibility check between two fully matching `n`-node forms, and
/// of a destructive merge and a flexible match of an `n`-node snapshot
/// onto a tree built from one sharing 70 % of its names. The paper warns
/// that "calculating [the mapping] over several levels of nesting may be
/// costly in practice"; the (kind, name) heuristics keep it near-linear.
pub fn l5_measure(n: usize) -> [f64; 3] {
    use cosoft_core::{apply_destructive, apply_flexible, check_s_compatible};
    use std::hint::black_box;
    use std::time::Instant;

    let corr = cosoft_core::CorrespondenceTable::new();
    let (a, b) = (synthetic_form(n, 1.0, 1), synthetic_form(n, 1.0, 2));
    let check = median_us(|| {
        let start = Instant::now();
        check_s_compatible(black_box(&a), &b, &corr).expect("compatible");
        start.elapsed()
    });
    let (snap, base) = (synthetic_form(n, 0.7, 1), synthetic_form(n, 0.7, 2));
    // Each timed apply starts from a tree freshly built from `base`.
    let seeded = || {
        let mut tree = cosoft_uikit::WidgetTree::new();
        let root = tree.create_root(cosoft_wire::WidgetKind::Form, "root").expect("fresh");
        apply_destructive(&mut tree, root, &base, &corr).expect("seed");
        (tree, root)
    };
    let merge = median_us(|| {
        let (mut tree, root) = seeded();
        let start = Instant::now();
        apply_destructive(&mut tree, root, black_box(&snap), &corr).expect("merge");
        start.elapsed()
    });
    let flexible = median_us(|| {
        let (mut tree, root) = seeded();
        let start = Instant::now();
        apply_flexible(&mut tree, root, black_box(&snap), &corr).expect("match");
        start.elapsed()
    });
    [check, merge, flexible]
}

/// L5 series over form sizes a factor of ten apart, each time beside its
/// ratio to the row above: near-linear is a ratio near the 10x the size
/// grew by. Wall-clock, so printed and not asserted.
pub fn l5_rows() -> Vec<Vec<String>> {
    let mut previous: Option<(usize, [f64; 3])> = None;
    [10usize, 100, 1_000]
        .iter()
        .map(|&n| {
            let times = l5_measure(n);
            let ratio = |now: f64, then: Option<f64>| match then {
                Some(then) => format!("{:.1}x", now / then.max(f64::MIN_POSITIVE)),
                None => "-".to_owned(),
            };
            let mut row = vec![n.to_string(), ratio(n as f64, previous.map(|(m, _)| m as f64))];
            for (i, us) in times.iter().enumerate() {
                row.push(fmt_us(*us));
                row.push(ratio(*us, previous.map(|(_, then)| then[i])));
            }
            previous = Some((n, times));
            row
        })
        .collect()
}

/// Column headers for [`l5_rows`].
pub const L5_HEADERS: [&str; 8] = [
    "nodes",
    "size ratio",
    "s-compat check",
    "ratio",
    "destructive merge",
    "ratio",
    "flexible match",
    "ratio",
];

// ---------------------------------------------------------------------------
// Observability — server-core and transport counters
// ---------------------------------------------------------------------------

/// Column headers for [`server_stats_rows`] and [`transport_stats_rows`].
pub const STATS_HEADERS: [&str; 2] = ["counter", "value"];

/// Runs a mixed coupling workload (couple chain, contended events, one
/// state copy) on the simulated network and reports the server core's
/// observability counters.
pub fn server_stats_rows() -> Vec<Vec<String>> {
    let spec_src = r#"form f { textfield t text="" }"#;
    let path = ObjectPath::parse("f.t").expect("static");
    let mut h = SimHarness::with_latency(61, 2_000);
    // Grace configured up front so registrations mint resume tokens; the
    // liveness episode at the end exercises quarantine + resume.
    h.server.set_liveness(cosoft_server::LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let nodes: Vec<_> = (0..8)
        .map(|u| {
            h.add_session(Session::new(
                Toolkit::from_tree(spec::build_tree(spec_src).expect("static")),
                UserId(u as u64 + 1),
                "h",
                "bench",
            ))
        })
        .collect();
    h.settle();
    for w in nodes.windows(2) {
        let dst = h.session(w[1]).gid(&path).expect("registered");
        h.session_mut(w[0]).couple(&path, dst).expect("registered");
        h.settle();
    }
    // One clean event round, then a contended round where every member
    // of the group fires simultaneously.
    h.session_mut(nodes[0])
        .user_event(UiEvent::new(
            path.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("x".into())],
        ))
        .expect("valid");
    h.settle();
    for (i, &node) in nodes.iter().enumerate() {
        let _ = h.session_mut(node).user_event(UiEvent::new(
            path.clone(),
            EventKind::TextCommitted,
            vec![Value::Text(format!("c{i}"))],
        ));
    }
    h.settle();
    // One state transfer so the transfer counters move.
    let dst = h.session(nodes[1]).gid(&path).expect("registered");
    h.session_mut(nodes[0]).copy_to(&path, dst, CopyMode::Strict).expect("registered");
    h.settle();
    // A liveness episode so the probe/quarantine/resume counters move:
    // one ping, one silent drop, one rejoin within the grace period.
    h.session_mut(nodes[0]).ping();
    h.settle();
    h.disconnect(nodes[7]);
    h.settle();
    h.reconnect(nodes[7]);
    h.settle();

    stats_rows(h.server.stats().entries())
}

fn stats_rows(entries: impl IntoIterator<Item = (&'static str, u64)>) -> Vec<Vec<String>> {
    entries.into_iter().map(|(name, value)| vec![name.to_string(), value.to_string()]).collect()
}

/// Runs a short live round over real loopback TCP (register four
/// clients, broadcast a batch of commands) and reports the transport's
/// counters — per-connection writer queues, coalesced writes, and the
/// slow-consumer policy are all visible here.
pub fn transport_stats_rows() -> Vec<Vec<String>> {
    use cosoft_net::{ConnId, NetEvent, TcpClient, TcpHost};
    use cosoft_server::ServerCore;
    use cosoft_wire::{Message, Target};
    use std::time::Duration;

    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let stats = host.stats_handle();
    let mut core: ServerCore<ConnId> = ServerCore::new();
    let clients: Vec<TcpClient> =
        (0..4).map(|_| TcpClient::connect(host.local_addr()).expect("connect")).collect();
    for (i, c) in clients.iter().enumerate() {
        c.send(&Message::Register {
            user: UserId(i as u64 + 1),
            host: "bench".into(),
            app_name: "fig".into(),
        })
        .expect("register");
    }
    // Each connection has its own reader thread, so registrations race
    // frames sent later on other connections; handle all four before
    // broadcasting, or early broadcasts fan out to a partial roster.
    while core.stats().registered_instances < clients.len() {
        let event = host.events().recv_timeout(Duration::from_secs(5)).expect("registration");
        let outgoing = match event {
            NetEvent::Connected(_) => cosoft_server::Outgoing::new(),
            NetEvent::Message(conn, msg) => core.handle(conn, msg),
            NetEvent::Disconnected(conn) => core.disconnect(conn),
        };
        let _ = host.send_batch(&outgoing.into_frames());
    }
    for round in 0..32u32 {
        clients[0]
            .send(&Message::CoSendCommand {
                to: Target::Broadcast,
                command: format!("round-{round}"),
                payload: vec![0u8; 4 * 1024],
            })
            .expect("broadcast");
    }
    // Drain the dispatch loop until the wire goes quiet.
    while let Ok(event) = host.events().recv_timeout(Duration::from_millis(200)) {
        let outgoing = match event {
            NetEvent::Connected(_) => cosoft_server::Outgoing::new(),
            NetEvent::Message(conn, msg) => core.handle(conn, msg),
            NetEvent::Disconnected(conn) => core.disconnect(conn),
        };
        let _ = host.send_batch(&outgoing.into_frames());
    }

    // Each field is named once; the pattern has no `..`, so a field
    // added to `TcpStats` fails to compile here until it has a row.
    macro_rules! rows {
        ($($field:ident),*) => {{
            let cosoft_net::TcpStats { $($field),* } = stats.snapshot();
            stats_rows([$((stringify!($field), $field as u64)),*])
        }};
    }
    rows!(
        frames_out,
        bytes_out,
        frames_in,
        bytes_in,
        coalesced_writes,
        enqueue_full_waits,
        slow_consumer_evictions,
        frames_dropped,
        stale_sweeps,
        sockopt_failures,
        connections_refused,
        handshake_timeouts,
        active_connections,
        max_queue_depth,
        max_queued_bytes
    )
}

// ---------------------------------------------------------------------------
// shared helper for L5
// ---------------------------------------------------------------------------

/// Builds a synthetic complex-object snapshot of roughly `n` nodes for the
/// compatibility benchmarks, with a fraction of names shared between
/// repeated generations (`variant` changes the differing part).
pub fn synthetic_form(n: usize, match_fraction: f64, variant: u64) -> cosoft_wire::StateNode {
    use cosoft_wire::{StateNode, WidgetKind};
    let mut root = StateNode::new(WidgetKind::Form, "root");
    let shared = (n as f64 * match_fraction) as usize;
    let kinds = [
        WidgetKind::TextField,
        WidgetKind::Menu,
        WidgetKind::Slider,
        WidgetKind::Label,
        WidgetKind::ToggleButton,
    ];
    let mut current_panel = StateNode::new(WidgetKind::Panel, "panel0");
    for i in 0..n {
        let kind = kinds[i % kinds.len()].clone();
        let name = if i < shared { format!("shared{i}") } else { format!("v{variant}_{i}") };
        let child =
            StateNode::new(kind, &name).with_attr(AttrName::custom("idx"), Value::Int(i as i64));
        current_panel.children.push(child);
        if current_panel.children.len() == 8 {
            root.children.push(current_panel);
            current_panel = StateNode::new(WidgetKind::Panel, &format!("panel{}", i / 8 + 1));
        }
    }
    if !current_panel.children.is_empty() {
        root.children.push(current_panel);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_latency_grows_with_users() {
        let rows = fig1_rows();
        assert_eq!(rows.len(), 5);
        // The mean latency column is monotone non-decreasing in spirit:
        // compare first and last numerically via the raw runner instead.
        let small = run_multiplex(&editing_workload(17, 2, 50, 30_000, 0.1), &cfg());
        let big = run_multiplex(&editing_workload(17, 32, 50, 30_000, 0.1), &cfg());
        assert!(
            big.mean_latency_us(Some(ActionKind::Ui)) > small.mean_latency_us(Some(ActionKind::Ui))
        );
    }

    #[test]
    fn fig23_blocking_grows_only_for_ui_replicated() {
        let sweep = |semantic_us: u64| {
            let mut config = cfg();
            config.semantic_service_us = semantic_us;
            let w = mixed_workload(23, 8, 50, 25_000, 0.2, 0.2);
            (
                run_ui_replicated(&w, &config).mean_latency_us(Some(ActionKind::Semantic)),
                run_fully_replicated(&w, &config).mean_latency_us(Some(ActionKind::Semantic)),
            )
        };
        let (u_small, f_small) = sweep(1_000);
        let (u_big, f_big) = sweep(100_000);
        // Both grow with service time, but the central queue amplifies it.
        let u_growth = u_big / u_small.max(1.0);
        let f_growth = f_big / f_small.max(1.0);
        assert!(u_growth > f_growth, "central queue amplifies blocking: {u_growth} vs {f_growth}");
    }

    #[test]
    fn fig4_costs_scale_with_group() {
        let small = fig4_measure(2, 2_000);
        let large = fig4_measure(16, 2_000);
        assert!(large.event_bytes > small.event_bytes);
        assert!(large.couple_us > small.couple_us);
        // Exactly one contender wins the simultaneous round.
        assert_eq!(small.simultaneous_rejects, 1);
        assert_eq!(large.simultaneous_rejects, 15);
    }

    #[test]
    fn l1_direct_coupling_costs_grow_with_display() {
        let (i_small, d_small) = l1_measure(64);
        let (i_big, d_big) = l1_measure(16_384);
        assert_eq!(i_small, i_big, "indirect cost independent of display size");
        assert!(d_big > d_small, "direct cost grows with display size");
        assert!(d_big > 10 * i_big, "indirect coupling wins big at 16k points");
    }

    #[test]
    fn l2_state_copy_wins_for_long_periods() {
        let (sb, _, ab, _) = l2_measure(100, 16);
        assert!(ab > sb, "replaying 100 actions outweighs one state copy");
        let (sb1, _, ab1, _) = l2_measure(1, 16);
        assert!(sb1 > 0 && ab1 > 0);
        // For a single action the replay is competitive (within ~4x),
        // matching the paper's "expensive, especially for long periods".
        assert!((ab1 as f64) < 4.0 * sb1 as f64);
    }

    #[test]
    fn l3_share_wins_for_large_results_many_instances() {
        let (multi, share, _) = l3_measure(16, 1_000);
        assert!(multi < share, "multi-eval avoids shipping big results");
        // The crossover claim is about *wire bytes*: multiple evaluation's
        // traffic is independent of result size.
        let (multi_small, _, _) = l3_measure(16, 10);
        let diff = multi.abs_diff(multi_small);
        assert!(diff < multi_small / 2, "multi-eval bytes ~independent of result size");
    }

    #[test]
    fn l4_keystroke_granularity_is_costly() {
        let (cb, ct, kb, kt) = l4_measure(32);
        assert!(kb > 10 * cb, "per-keystroke bytes explode");
        assert!(kt > 10 * ct, "per-keystroke rounds serialize");
    }

    #[test]
    fn synthetic_forms_are_compatible_when_fully_matched() {
        use cosoft_core::compat::{check_s_compatible, CorrespondenceTable};
        let a = synthetic_form(50, 1.0, 1);
        let b = synthetic_form(50, 1.0, 2);
        check_s_compatible(&a, &b, &CorrespondenceTable::new()).expect("same shape");
        let c = synthetic_form(53, 1.0, 3);
        assert!(check_s_compatible(&a, &c, &CorrespondenceTable::new()).is_err());
    }

    #[test]
    fn l5_has_expected_shape() {
        let rows = l5_rows();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|row| row.len() == L5_HEADERS.len()));
        assert_eq!((rows[0][1].as_str(), rows[2][1].as_str()), ("-", "10.0x"));
    }

    #[test]
    fn server_stats_rows_report_real_activity() {
        let rows = server_stats_rows();
        let get = |name: &str| -> u64 {
            rows.iter().find(|r| r[0] == name).expect("counter row")[1].parse().unwrap()
        };
        assert!(get("events_granted") >= 2, "clean round + contention winner");
        assert_eq!(get("events_rejected"), 7, "seven losers in the contended round");
        assert_eq!(get("transfers_completed"), 2, "explicit CopyTo + rejoin resync CopyFrom");
        assert_eq!(get("registered_instances"), 8);
        assert_eq!(get("live_transfer_groups"), 0);
        assert_eq!(get("held_locks"), 0, "every round released its locks");
        assert!(get("max_fanout") >= 7, "a granted event fans out to the whole chain");
        assert_eq!(get("pings"), 1);
        assert_eq!(get("quarantines"), 1, "the dropped instance was quarantined");
        assert_eq!(get("resumes"), 1, "and resumed within the grace period");
        assert_eq!(get("quarantined_instances"), 0, "nobody left in quarantine");
    }

    #[test]
    fn transport_stats_rows_report_real_traffic() {
        let rows = transport_stats_rows();
        let get = |name: &str| -> u64 {
            rows.iter().find(|r| r[0] == name).expect("counter row")[1].parse().unwrap()
        };
        // 4 registrations + 32 broadcasts in; Welcomes + deliveries out.
        assert_eq!(get("frames_in"), 36);
        assert!(get("frames_out") >= 4 + 32 * 3, "welcomes plus broadcast fan-out");
        assert!(get("bytes_out") > 32 * 3 * 4096, "payload bytes actually left");
        assert_eq!(get("slow_consumer_evictions"), 0, "all consumers were healthy");
        assert_eq!(get("active_connections"), 4);
    }

    #[test]
    fn table1_has_expected_shape() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.len(), TABLE1_HEADERS.len());
        }
    }
}
