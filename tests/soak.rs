//! Randomized full-stack soak test: a long schedule mixing every protocol
//! operation — couples, decouples, events, state copies in all three
//! modes, undo/redo, permissions, commands, widget destruction and
//! instance crashes — must never panic, never wedge a lock, and keep the
//! surviving sessions' replicated coupling info symmetric.

use cosoft::core::harness::SimHarness;
use cosoft::core::session::Session;
use cosoft::net::sim::NodeId;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{AccessRight, CopyMode, EventKind, ObjectPath, Target, UiEvent, UserId, Value};
use cosoft_rng::Rng;

const FORM: &str = r#"form f {
  textfield t text=""
  slider s value=0.5 min=0.0 max=1.0
  toggle g checked=false
  canvas c
  panel sub { textfield inner text="" }
}"#;

const PATHS: [&str; 6] = ["f.t", "f.s", "f.g", "f.c", "f.sub", "f.sub.inner"];

fn path(p: &str) -> ObjectPath {
    ObjectPath::parse(p).expect("valid")
}

fn random_event(rng: &mut Rng, p: &str) -> UiEvent {
    match p {
        "f.t" | "f.sub.inner" => UiEvent::new(
            path(p),
            EventKind::TextCommitted,
            vec![Value::Text(format!("v{}", rng.range::<u16>(..)))],
        ),
        "f.s" => UiEvent::new(path(p), EventKind::ValueChanged, vec![Value::Float(rng.f64())]),
        "f.g" => UiEvent::new(path(p), EventKind::Toggled, vec![Value::Bool(rng.bool(0.5))]),
        "f.c" => UiEvent::new(
            path(p),
            EventKind::StrokeAdded,
            vec![Value::Stroke(vec![(rng.range(0..100), rng.range(0..100))])],
        ),
        _ => UiEvent::simple(path(p), EventKind::Custom("poke".into())),
    }
}

#[test]
fn thousand_step_soak_survives_everything() {
    let mut rng = Rng::new(0xC050F7);
    let mut h = SimHarness::with_latency(99, 1_000);
    let mut alive: Vec<NodeId> = (0..6)
        .map(|u| {
            h.add_session(Session::new(
                Toolkit::from_tree(spec::build_tree(FORM).expect("static")),
                UserId(u + 1),
                &format!("h{u}"),
                "soak",
            ))
        })
        .collect();
    h.settle();

    // The scheduled CI soak job turns this up (e.g. 20_000); the default
    // keeps the gating test suite fast.
    let steps: u64 =
        std::env::var("COSOFT_SOAK_STEPS").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000);
    for step in 0..steps {
        if alive.len() < 2 {
            break;
        }
        let a = *rng.pick(&alive);
        let b = *rng.pick(&alive);
        let p = *rng.pick(&PATHS);
        match rng.range(0..100) {
            0..=24 => {
                // User event (coupled or not; may be refused while locked).
                let ev = random_event(&mut rng, p);
                let _ = h.session_mut(a).user_event(ev);
            }
            25..=39 => {
                if a != b {
                    let dst = h.session(b).gid(&path(p)).expect("registered");
                    h.session_mut(a).couple(&path(p), dst).expect("registered");
                }
            }
            40..=49 => {
                if a != b {
                    let dst = h.session(b).gid(&path(p)).expect("registered");
                    h.session_mut(a).decouple(&path(p), dst).expect("registered");
                }
            }
            50..=62 => {
                if a != b {
                    let mode = match rng.range(0..3) {
                        0 => CopyMode::Strict,
                        1 => CopyMode::DestructiveMerge,
                        _ => CopyMode::FlexibleMatch,
                    };
                    let dst = h.session(b).gid(&path(p)).expect("registered");
                    let _ = h.session_mut(a).copy_to(&path(p), dst, mode);
                }
            }
            63..=69 => {
                if a != b {
                    let src = h.session(b).gid(&path(p)).expect("registered");
                    let _ = h.session_mut(a).copy_from(src, &path(p), CopyMode::FlexibleMatch);
                }
            }
            70..=75 => {
                let obj = h.session(a).gid(&path(p)).expect("registered");
                if rng.bool(0.5) {
                    h.session_mut(a).undo(obj);
                } else {
                    h.session_mut(a).redo(obj);
                }
            }
            76..=80 => {
                let right = match rng.range(0..3) {
                    0 => AccessRight::Denied,
                    1 => AccessRight::Read,
                    _ => AccessRight::Write,
                };
                let user = UserId(rng.range(1..7));
                let _ = h.session_mut(a).set_permission(user, &path(p), right);
            }
            81..=87 => {
                let target = match rng.range(0..3) {
                    0 => Target::Broadcast,
                    1 => Target::Group(h.session(a).gid(&path(p)).expect("registered")),
                    _ => {
                        let other = *rng.pick(&alive);
                        match h.instance_of(other) {
                            Some(i) => Target::Instance(i),
                            None => Target::Broadcast,
                        }
                    }
                };
                h.session_mut(a).send_command(target, "soak-cmd", vec![step as u8]);
            }
            88..=91 => {
                // Destroy a subtree (panel or canvas), auto-decoupling it.
                // It may already be gone — both outcomes are legal.
                let victim = if rng.bool(0.5) { "f.sub" } else { "f.c" };
                let _ = h.session_mut(a).destroy(&path(victim));
            }
            92..=94 => {
                if alive.len() > 2 {
                    // Crash an instance entirely.
                    h.crash(a);
                    alive.retain(|&n| n != a);
                }
            }
            _ => {
                h.session_mut(a).query_instances();
            }
        }
        // Settle every few steps to interleave in-flight traffic.
        if step % 3 == 0 {
            h.settle();
        }
    }
    h.settle();

    // Invariants at quiescence.
    assert!(h.server.locks().is_empty(), "locks must drain after soak");
    for &node in &alive {
        // Drain event queues (no panics while formatting them).
        let _ = h.session_mut(node).take_events();
        // Every surviving widget is interactable again.
        let tree = h.session(node).toolkit().tree();
        if let Some(root) = tree.root() {
            for id in tree.walk(root) {
                let w = tree.widget(id).expect("live");
                assert!(
                    !w.is_lock_disabled(),
                    "widget {:?} left lock-disabled on {node}",
                    tree.path_of(id)
                );
            }
        }
        // Replicated coupling info is symmetric among survivors.
        for p in PATHS {
            if let Some(group) = h.session(node).group_of(&path(p)) {
                let me = h.instance_of(node).expect("alive");
                assert!(group.iter().any(|g| g.instance == me), "own object missing from group");
            }
        }
    }
}
