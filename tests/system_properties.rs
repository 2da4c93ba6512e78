//! System-level properties: random couple/decouple/event/copy
//! schedules over the simulated network must preserve the paper's core
//! invariants — coupled relevant state converges, locks drain, the couple
//! relation stays symmetric, decoupled objects survive — and every
//! schedule runs twice, on one shard and on three, which no client may
//! be able to tell apart. Links race under seeded jitter, so which
//! request reaches the server first varies with the seed.

use cosoft::core::harness::SimHarness;
use cosoft::core::session::Session;
use cosoft::net::sim::NodeId;
use cosoft::server::ShardRouter;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{
    AttrName, CopyMode, EventKind, GlobalObjectId, ObjectPath, UiEvent, UserId, Value,
};
use cosoft_rng::{forall, Rng};

const FORM: &str = r#"form f { textfield t text="" }"#;

fn path() -> ObjectPath {
    ObjectPath::parse("f.t").expect("static")
}

fn session(user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static spec")),
        UserId(user),
        &format!("h{user}"),
        "prop",
    )
}

fn text_of(h: &SimHarness, node: NodeId) -> String {
    let tree = h.session(node).toolkit().tree();
    let id = tree.resolve(&path()).expect("widget");
    tree.attr(id, &AttrName::Text).expect("attr").as_text().expect("text").to_owned()
}

/// One scripted step of the random schedule.
#[derive(Debug, Clone)]
enum Step {
    Couple(usize, usize),
    Decouple(usize, usize),
    Type(usize, String),
    CopyTo(usize, usize),
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A step among four users.
fn arb_step(r: &mut Rng) -> Step {
    let (kind, a, b) = (r.range(0..4), r.range(0..4), r.range(0..4));
    match kind {
        0 => Step::Couple(a, b),
        1 => Step::Decouple(a, b),
        2 => Step::Type(a, r.string(LOWER, 1..=6)),
        _ => Step::CopyTo(a, b),
    }
}

/// One-way latency and jitter, in µs, of links that race.
const RACING: (u64, u64) = (1_000, 800);

/// Runs `steps` among four users, settling after each, on a router of
/// `shards` shards, over links of the given one-way latency and jitter.
/// Round-robin placement mints instance ids in registration order at any
/// shard count, and the seed fixes that order, so runs pair up by node.
fn run_schedule(
    seed: u64,
    shards: usize,
    (one_way_us, jitter_us): (u64, u64),
    steps: &[Step],
) -> (SimHarness, Vec<NodeId>) {
    let mut h = SimHarness::new(seed);
    h.net.set_latency(one_way_us, jitter_us);
    h.server = ShardRouter::new(shards);
    let nodes: Vec<NodeId> = (0..4).map(|u| h.add_session(session(u as u64 + 1))).collect();
    h.settle();

    for step in steps {
        match step {
            Step::Couple(a, b) if a != b => {
                // The paper's join procedure: initial synchronization
                // by UI state, then the couple link (§3.1: coupling
                // alone does not copy pre-existing state).
                let dst = h.session(nodes[*b]).gid(&path()).expect("registered");
                h.session_mut(nodes[*a])
                    .copy_to(&path(), dst.clone(), CopyMode::Strict)
                    .expect("registered");
                h.settle();
                h.session_mut(nodes[*a]).couple(&path(), dst).expect("registered");
            }
            Step::Decouple(a, b) if a != b => {
                let dst = h.session(nodes[*b]).gid(&path()).expect("registered");
                h.session_mut(nodes[*a]).decouple(&path(), dst).expect("registered");
            }
            Step::Type(a, text) => {
                // May legally fail if the widget is locked mid-round;
                // settle() below guarantees it never stays locked.
                let _ = h.session_mut(nodes[*a]).user_event(UiEvent::new(
                    path(),
                    EventKind::TextCommitted,
                    vec![Value::Text(text.clone())],
                ));
            }
            Step::CopyTo(a, b) if a != b => {
                let dst = h.session(nodes[*b]).gid(&path()).expect("registered");
                h.session_mut(nodes[*a])
                    .copy_to(&path(), dst, CopyMode::Strict)
                    .expect("registered");
            }
            _ => {}
        }
        h.settle();
    }
    (h, nodes)
}

/// What each client sees of the shared field: its text and its couple
/// group. The server must hold no lock at quiescence.
fn client_view(h: &SimHarness, nodes: &[NodeId]) -> Vec<(String, Option<Vec<GlobalObjectId>>)> {
    assert_eq!(h.server.stats().held_locks, 0, "locks must drain");
    nodes
        .iter()
        .map(|&n| (text_of(h, n), h.session(n).group_of(&path()).map(<[_]>::to_vec)))
        .collect()
}

/// The paper's invariants at quiescence.
fn assert_converged(h: &SimHarness, nodes: &[NodeId]) {
    // The replicated coupling info is symmetric and all members of one
    // group agree on it, and coupled objects hold identical relevant
    // state.
    for (i, &node) in nodes.iter().enumerate() {
        if let Some(group) = h.session(node).group_of(&path()) {
            let text = text_of(h, node);
            for member in group {
                let peer_idx = nodes
                    .iter()
                    .position(|&n| h.instance_of(n) == Some(member.instance))
                    .expect("every group member is a registered client");
                if peer_idx == i {
                    continue;
                }
                let peer = nodes[peer_idx];
                // Symmetry of the replicated closure.
                let peer_group = h.session(peer).group_of(&path());
                assert!(peer_group.is_some(), "peer lost its coupling info");
                assert_eq!(peer_group.unwrap(), group, "closures disagree");
                // Convergence of the relevant attribute.
                assert_eq!(&text_of(h, peer), &text, "coupled state diverged");
            }
        }
    }

    // Every widget is interactable again (no stuck floor-control
    // disables).
    for &node in nodes {
        let tree = h.session(node).toolkit().tree();
        let id = tree.resolve(&path()).expect("widget survives");
        assert!(tree.widget(id).expect("widget").is_interactable());
    }
}

/// Every schedule converges, and a client cannot tell one shard from
/// three: text, group and drained locks are equal between the pair.
#[test]
fn random_schedules_preserve_invariants() {
    let gen = |r: &mut Rng| (r.range(0..1_000), r.vec(1..25, arb_step));
    forall(0..256, gen, |(seed, steps): (u64, Vec<Step>)| {
        let (one, nodes) = run_schedule(seed, 1, RACING, &steps);
        let (three, _) = run_schedule(seed, 3, RACING, &steps);
        assert_converged(&one, &nodes);
        assert_converged(&three, &nodes);
        assert_eq!(client_view(&one, &nodes), client_view(&three, &nodes), "1 vs 3 shards");
    });
}

/// Lazy rebalance on three shards once migrated a component while a
/// copy straddled it. The copy failed ("transfer interrupted by a shard
/// migration"), and user 1 kept "" where one shard gives "wb". Found by
/// the 1-vs-3-shard comparison above, with the turn ticking the router
/// after every delivery as a deployed server does.
#[test]
fn lazy_rebalance_waits_for_work_in_flight() {
    use Step::{CopyTo, Couple, Decouple, Type};
    let steps = [
        Decouple(3, 0),
        Type(2, "vg".into()),
        CopyTo(1, 2),
        Decouple(0, 1),
        Type(1, "vfefu".into()),
        Couple(1, 1),
        CopyTo(2, 0),
        CopyTo(3, 1),
        Decouple(2, 3),
        Type(0, "wb".into()),
        Decouple(0, 1),
        Decouple(2, 2),
        CopyTo(0, 1),
    ];
    let (one, nodes) = run_schedule(28, 1, (0, 0), &steps);
    let (three, _) = run_schedule(28, 3, (0, 0), &steps);
    assert_eq!(text_of(&three, nodes[1]), "wb");
    assert_eq!(three.server.stats().transfers_failed, 0);
    assert_eq!(client_view(&one, &nodes), client_view(&three, &nodes));
}

#[test]
fn event_storms_converge_on_chain_groups() {
    let gen = |r: &mut Rng| {
        (r.range(0..1_000), r.vec(1..30, |r| (r.string(LOWER, 1..=8), r.range(0..4))))
    };
    forall(0..256, gen, |(seed, texts)| {
        assert_eq!(storm(seed, 1, &texts), storm(seed, 3, &texts), "1 vs 3 shards");
    });
}

/// The two cases proptest's regression file recorded: one user typing
/// three times into the chain, and two neighbours typing the same text.
#[test]
fn recorded_storms_converge() {
    storm(0, 1, &[("a".into(), 0), ("b".into(), 0), ("c".into(), 0)]);
    storm(0, 1, &[("h".into(), 0), ("h".into(), 1)]);
}

/// Couples four users in a chain on `shards` shards, lets everyone type
/// at once over links that race, and returns the converged client view.
fn storm(
    seed: u64,
    shards: usize,
    texts: &[(String, usize)],
) -> Vec<(String, Option<Vec<GlobalObjectId>>)> {
    let mut h = SimHarness::new(seed);
    h.net.set_latency(700, 600);
    h.server = ShardRouter::new(shards);
    let nodes: Vec<NodeId> = (0..4).map(|u| h.add_session(session(u as u64 + 1))).collect();
    h.settle();
    for w in nodes.windows(2) {
        let dst = h.session(w[1]).gid(&path()).expect("registered");
        h.session_mut(w[0]).couple(&path(), dst).expect("registered");
        h.settle();
    }

    // Everyone types concurrently (some events get rejected — fine);
    // after quiescence all four replicas must agree.
    for (text, user) in texts {
        let _ = h.session_mut(nodes[*user]).user_event(UiEvent::new(
            path(),
            EventKind::TextCommitted,
            vec![Value::Text(text.clone())],
        ));
    }
    h.settle();
    let reference = text_of(&h, nodes[0]);
    for &n in &nodes[1..] {
        assert_eq!(&text_of(&h, n), &reference, "replicas diverged after storm");
    }
    client_view(&h, &nodes)
}
