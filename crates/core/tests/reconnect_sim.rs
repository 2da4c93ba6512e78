//! Disconnect/reconnect/resume end to end on the deterministic
//! simulation: liveness grace periods, resume tokens, couple survival,
//! and the §3.1 `CopyFrom` resync — driven both by explicit harness
//! disconnects and by scheduled `FaultPlan` outages. A disconnect is a
//! reset: what was in flight on the old connection is lost, an unlock
//! included.

use cosoft_core::harness::SimHarness;
use cosoft_core::session::{Session, SessionEvent};
use cosoft_net::sim::{DownWindow, FaultPlan, NodeId};
use cosoft_rng::forall;
use cosoft_server::LivenessConfig;
use cosoft_uikit::{spec, Toolkit};
use cosoft_wire::{AttrName, EventKind, Message, ObjectPath, UiEvent, UserId, Value};

fn path(s: &str) -> ObjectPath {
    ObjectPath::parse(s).unwrap()
}

fn session(spec_src: &str, user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(spec_src).unwrap()),
        UserId(user),
        &format!("ws{user}"),
        "test-app",
    )
}

fn text_of(h: &SimHarness, node: NodeId, p: &str) -> String {
    let tree = h.session(node).toolkit().tree();
    let id = tree.resolve(&path(p)).unwrap();
    tree.attr(id, &AttrName::Text).unwrap().as_text().unwrap().to_owned()
}

fn type_text(h: &mut SimHarness, node: NodeId, p: &str, text: &str) {
    h.session_mut(node)
        .user_event(UiEvent::new(path(p), EventKind::TextCommitted, vec![Value::Text(text.into())]))
        .unwrap();
}

const FIELD_FORM: &str = r#"form f { textfield t text="" }"#;

/// A client that drops and rejoins within the grace period keeps its
/// instance id and couples, and converges on the state it missed.
#[test]
fn reconnect_within_grace_resumes_and_resyncs() {
    within_grace(SimHarness::new(7));
}

/// The same script with the links racing.
#[test]
fn reconnect_within_grace_under_jitter() {
    forall(
        0..64,
        |r| r.next_u64(),
        |seed| {
            let mut h = SimHarness::new(seed);
            h.net.set_latency(1_000, 800);
            within_grace(h);
        },
    );
}

fn within_grace(mut h: SimHarness) {
    h.server.set_liveness(LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    type_text(&mut h, a, "f.t", "before");
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "before");
    let b_instance = h.instance_of(b).unwrap();
    assert!(h.session(b).resume_token().is_some(), "grace > 0 mints resume tokens");

    h.disconnect(b);
    h.settle();
    let stats = h.server.stats();
    assert_eq!(stats.quarantined_instances, 1);
    assert_eq!(stats.registered_instances, 2, "quarantined instances stay registered");

    // b misses an update while its link is severed.
    type_text(&mut h, a, "f.t", "while-away");
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "before");

    h.reconnect(b);
    h.settle();
    assert_eq!(h.instance_of(b), Some(b_instance), "resume keeps the instance id");
    let stats = h.server.stats();
    assert_eq!(stats.resumes, 1);
    assert_eq!(stats.quarantined_instances, 0);
    assert!(
        h.session_mut(b).take_events().iter().any(|e| matches!(e, SessionEvent::Resumed(_))),
        "session surfaces the resumption"
    );
    assert_eq!(text_of(&h, b, "f.t"), "while-away", "CopyFrom resync pulls the missed state");

    // The couple survived the outage in both directions.
    type_text(&mut h, b, "f.t", "after");
    h.settle();
    assert_eq!(text_of(&h, a, "f.t"), "after");
    assert_eq!(text_of(&h, b, "f.t"), "after");
}

/// A reset loses what was in flight on the old connection, in both
/// directions: b's `Event` never reaches the server after `Disconnected`
/// (it would be refused as "endpoint is not registered"), and the
/// `Execute` of a's event never reaches the rejoined session ahead of its
/// `Welcome`. The resync then converges both replicas.
#[test]
fn reset_loses_the_old_connections_in_flight_messages() {
    let mut h = SimHarness::with_latency(7, 1_000);
    h.server.set_liveness(LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    h.session_mut(b).take_events();

    // a's event reaches the server, whose Execute to b is then in flight;
    // b types, and its Event is in flight too.
    type_text(&mut h, a, "f.t", "from-a");
    h.flush();
    let first = h.step().expect("a's event");
    assert_eq!(first.dst, cosoft_core::SERVER_NODE);
    type_text(&mut h, b, "f.t", "from-b");
    h.flush();
    let dropped = h.net.stats().link_down_dropped;

    h.disconnect(b);
    h.reconnect(b);
    h.flush();
    let (mut from_b, mut to_b) = (Vec::new(), Vec::new());
    while let Some(d) = h.step() {
        if d.src == b {
            from_b.push(d.msg.kind_name());
        } else if d.dst == b {
            to_b.push(d.msg.kind_name());
        }
    }
    assert_eq!(from_b.first(), Some(&"rejoin"), "the server saw b's old connection: {from_b:?}");
    assert_eq!(to_b.first(), Some(&"welcome"), "the old connection reached b: {to_b:?}");
    assert!(h.net.stats().link_down_dropped >= dropped + 2, "both in-flight messages lost");
    let events = h.session_mut(b).take_events();
    assert!(
        !events.iter().any(|e| matches!(e, SessionEvent::Error { .. })),
        "an old-connection message was answered: {events:?}"
    );
    assert!(events.iter().any(|e| matches!(e, SessionEvent::Resumed(_))), "{events:?}");
    assert_eq!(text_of(&h, a, "f.t"), text_of(&h, b, "f.t"), "resync converges");
    assert_eq!(h.server.stats().held_locks, 0);
}

/// A reset can eat a `GroupUnlocked`: the server has every
/// `ExecuteDone`, releases the group's locks and sends the unlocks, and
/// the one bound for the reset connection is lost. The rejoining session
/// re-enables what it disabled for the execution itself, so it can type
/// again — as the follower here, as the origin below.
#[test]
fn an_unlock_lost_in_a_reset_leaves_the_follower_enabled() {
    unlock_lost_in_a_reset(false);
}

/// The same reset on the origin's side: its object was disabled on the
/// grant, and its unlock is the one lost.
#[test]
fn an_unlock_lost_in_a_reset_leaves_the_origin_enabled() {
    unlock_lost_in_a_reset(true);
}

fn unlock_lost_in_a_reset(reset_origin: bool) {
    let mut h = SimHarness::with_latency(7, 1_000);
    h.server.set_liveness(LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();

    type_text(&mut h, a, "f.t", "typed");
    h.flush();
    let mut dones = 0;
    while dones < 2 {
        let d = h.step().expect("the round is still running");
        if d.dst == cosoft_core::SERVER_NODE && matches!(d.msg, Message::ExecuteDone { .. }) {
            dones += 1;
        }
    }
    assert_eq!(h.server.stats().held_locks, 0, "the server released the group");

    let (reset, other) = if reset_origin { (a, b) } else { (b, a) };
    h.disconnect(reset);
    h.reconnect(reset);
    h.settle();
    assert_eq!(h.server.stats().resumes, 1);
    assert_eq!(text_of(&h, reset, "f.t"), "typed");
    h.session_mut(reset)
        .user_event(UiEvent::new(
            path("f.t"),
            EventKind::TextCommitted,
            vec![Value::Text("after".into())],
        ))
        .expect("the rejoined session re-enabled its object");
    h.settle();
    assert_eq!(text_of(&h, other, "f.t"), "after");
    assert_eq!(h.server.stats().held_locks, 0);
}

/// When the grace period lapses, the quarantine expires into the normal
/// §3.2 deregistration (partners are decoupled and told) and the stale
/// resume token stops working: the client comes back as a new instance.
#[test]
fn grace_expiry_deregisters_and_invalidates_the_token() {
    let mut h = SimHarness::new(7);
    h.server.set_liveness(LivenessConfig {
        grace_us: 1_000_000,
        idle_timeout_us: 0,
        max_quarantined: 0,
    });
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    let b_instance = h.instance_of(b).unwrap();

    h.disconnect(b);
    h.settle();
    h.tick_server(500_000);
    h.settle();
    assert_eq!(h.server.stats().quarantined_instances, 1, "grace still running");

    h.tick_server(1_100_000);
    h.settle();
    let stats = h.server.stats();
    assert_eq!(stats.quarantine_expiries, 1);
    assert_eq!(stats.registered_instances, 1);
    assert!(!h.session(a).is_coupled(&path("f.t")), "partner saw the auto-decouple");

    // Too late: the rejoin is refused and the session falls back to a
    // fresh registration under a new instance id.
    h.reconnect(b);
    h.settle();
    let stats = h.server.stats();
    assert_eq!(stats.rejoins_rejected, 1);
    assert_eq!(stats.resumes, 0);
    let back = h.instance_of(b).expect("fallback registration completed");
    assert_ne!(back, b_instance, "expired quarantine means a new identity");
    assert_eq!(stats.registered_instances, 2);
}

/// The same story driven by the network instead of the harness: a
/// scheduled `FaultPlan` outage silently eats b's traffic, the idle
/// timeout quarantines it, and once the window lifts the rejoin resumes
/// the instance.
#[test]
fn fault_schedule_outage_triggers_idle_quarantine_then_resume() {
    let mut h = SimHarness::new(7);
    h.server.set_liveness(LivenessConfig {
        grace_us: 100_000,
        idle_timeout_us: 5_000,
        max_quarantined: 0,
    });
    let a = h.add_session(session(FIELD_FORM, 1));
    let b = h.add_session(session(FIELD_FORM, 2));
    h.settle();
    let gb = h.session(b).gid(&path("f.t")).unwrap();
    h.session_mut(a).couple(&path("f.t"), gb).unwrap();
    h.settle();
    let b_instance = h.instance_of(b).unwrap();

    // b's link goes dark from t=100µs to t=10ms.
    h.net.set_faults(FaultPlan { down: vec![DownWindow { node: b, from_us: 100, to_us: 10_000 }] });

    // Both clients probe at t=500: a's ping lands, b's is swallowed by
    // the outage.
    h.tick_server(500);
    h.session_mut(a).ping();
    h.session_mut(b).ping();
    h.settle();
    assert!(h.net.stats().link_down_dropped >= 1, "the window ate b's probe");

    // At t=5200 only b (silent since t=0) has outlived the idle timeout;
    // a (last heard at t=500) has 300µs to spare and probes again.
    h.tick_server(5_200);
    h.session_mut(a).ping();
    h.settle();
    let stats = h.server.stats();
    assert_eq!(stats.quarantines, 1, "only the silent instance is quarantined");
    assert_eq!(stats.quarantined_instances, 1);
    assert!(h.instance_of(a).is_some());

    // The outage ends before the grace deadline (5200 + 100ms); b
    // notices and rejoins.
    h.tick_server(10_100);
    h.session_mut(b).begin_rejoin();
    h.settle();
    assert_eq!(h.instance_of(b), Some(b_instance), "resumed under the same id");
    let stats = h.server.stats();
    assert_eq!(stats.resumes, 1);
    assert_eq!(stats.quarantined_instances, 0);

    // Coupling still works end to end after the resume.
    type_text(&mut h, a, "f.t", "recovered");
    h.settle();
    assert_eq!(text_of(&h, b, "f.t"), "recovered");
}
