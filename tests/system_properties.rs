//! System-level properties: random couple/decouple/event/copy
//! schedules over the simulated network must preserve the paper's core
//! invariants — coupled relevant state converges, locks drain, the couple
//! relation stays symmetric, decoupled objects survive.

use cosoft::core::harness::SimHarness;
use cosoft::core::session::Session;
use cosoft::net::sim::NodeId;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{AttrName, CopyMode, EventKind, ObjectPath, UiEvent, UserId, Value};
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

#[test]
fn random_schedules_preserve_invariants() {
    let gen = |r: &mut Rng| (r.range(0..1_000), r.vec(1..25, arb_step));
    forall(0..48, gen, |(seed, steps): (u64, Vec<Step>)| {
        let mut h = SimHarness::new(seed);
        let nodes: Vec<NodeId> = (0..4).map(|u| h.add_session(session(u as u64 + 1))).collect();
        h.settle();

        for step in &steps {
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

        // Invariant 1: the lock table drains at quiescence.
        assert!(h.server.locks().is_empty(), "locks must drain");

        // Invariant 2: the replicated coupling info is symmetric and all
        // members of one group agree on it, and coupled objects hold
        // identical relevant state.
        for (i, &node) in nodes.iter().enumerate() {
            if let Some(group) = h.session(node).group_of(&path()) {
                let text = text_of(&h, node);
                for member in group {
                    let peer_idx = (member.instance.0 - 1) as usize;
                    assert!(peer_idx < nodes.len());
                    if peer_idx == i {
                        continue;
                    }
                    let peer = nodes[peer_idx];
                    // Symmetry of the replicated closure.
                    let peer_group = h.session(peer).group_of(&path());
                    assert!(peer_group.is_some(), "peer lost its coupling info");
                    assert_eq!(peer_group.unwrap(), group, "closures disagree");
                    // Convergence of the relevant attribute.
                    assert_eq!(&text_of(&h, peer), &text, "coupled state diverged");
                }
            }
        }

        // Invariant 3: every widget is interactable again (no stuck
        // floor-control disables).
        for &node in &nodes {
            let tree = h.session(node).toolkit().tree();
            let id = tree.resolve(&path()).expect("widget survives");
            assert!(tree.widget(id).expect("widget").is_interactable());
        }
    });
}

#[test]
fn event_storms_converge_on_chain_groups() {
    let gen = |r: &mut Rng| {
        (r.range(0..1_000), r.vec(1..30, |r| (r.string(LOWER, 1..=8), r.range(0..4))))
    };
    forall(0..48, gen, |(seed, texts)| storm_converges(seed, &texts));
}

/// The two cases proptest's regression file recorded: one user typing
/// three times into the chain, and two neighbours typing the same text.
#[test]
fn recorded_storms_converge() {
    storm_converges(0, &[("a".into(), 0), ("b".into(), 0), ("c".into(), 0)]);
    storm_converges(0, &[("h".into(), 0), ("h".into(), 1)]);
}

fn storm_converges(seed: u64, texts: &[(String, usize)]) {
    let mut h = SimHarness::with_latency(seed, 700);
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
    assert!(h.server.locks().is_empty());
}
