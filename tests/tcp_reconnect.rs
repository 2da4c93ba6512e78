//! Real-socket reconnect/resume tests: a client whose connection dies
//! mid-session redials with backoff, rejoins under its resume token, and
//! reconverges via the §3.1 `CopyFrom` resync — the TCP twin of the
//! deterministic `reconnect_sim` tests.

use std::time::Duration;

use cosoft::core::session::Session;
use cosoft::net::tcp::{ReconnectPolicy, TcpHostConfig};
use cosoft::runtime::{TcpServer, TcpSession};
use cosoft::server::LivenessConfig;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{AttrName, EventKind, ObjectPath, UiEvent, UserId, Value};

const FORM: &str = r#"form pad { textfield line text="" }"#;
const TIMEOUT: Duration = Duration::from_secs(10);

fn make_session(user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static spec")),
        UserId(user),
        &format!("host{user}"),
        "tcp-reconnect-test",
    )
}

fn text_of(s: &Session, p: &ObjectPath) -> Option<String> {
    let tree = s.toolkit().tree();
    let id = tree.resolve(p)?;
    tree.attr(id, &AttrName::Text).ok().and_then(|v| v.as_text().map(str::to_owned))
}

fn fast_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        jitter: 0.2,
        jitter_seed: Some(0x0C05_F0F7),
    }
}

fn graceful_server() -> TcpServer {
    TcpServer::spawn_with_liveness(
        "127.0.0.1:0",
        TcpHostConfig::default(),
        // 30s grace: effectively "within grace" for the whole test.
        LivenessConfig { grace_us: 30_000_000, idle_timeout_us: 0, max_quarantined: 0 },
    )
    .expect("bind")
}

#[test]
fn severed_client_reconnects_and_resumes_its_instance() {
    let server = graceful_server();
    let mut a = TcpSession::connect(server.addr(), make_session(1)).expect("connect a");
    let mut b = TcpSession::connect_with_reconnect(server.addr(), make_session(2), fast_policy())
        .expect("connect b");
    let b_instance = b.session().instance().expect("registered");
    assert!(b.session().resume_token().is_some(), "grace > 0 mints resume tokens");

    let line = ObjectPath::parse("pad.line").expect("static");
    let remote = b.session().gid(&line).expect("registered");
    a.session_mut().couple(&line, remote).expect("registered");
    let p = line.clone();
    assert!(a.pump_until(TIMEOUT, move |s| s.is_coupled(&p)).expect("pump"));
    let p = line.clone();
    assert!(b.pump_until(TIMEOUT, move |s| s.is_coupled(&p)).expect("pump"));

    // The network "fails" under b; the reconnect loop starts redialing.
    b.client().sever();

    // Meanwhile a changes the shared state — b misses this on the wire.
    a.session_mut()
        .user_event(UiEvent::new(
            line.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("while b was gone".into())],
        ))
        .expect("valid event");
    a.flush().expect("flush");
    a.pump_for(Duration::from_millis(200)).expect("pump");

    // b's pump notices the reconnect, rejoins, and resyncs: same
    // instance id, couple intact, missed state pulled via CopyFrom. Both
    // ends keep pumping — a must serve the resync's StateRequest.
    let deadline = std::time::Instant::now() + TIMEOUT;
    let mut converged = false;
    while std::time::Instant::now() < deadline {
        a.pump_for(Duration::from_millis(50)).expect("pump a");
        b.pump_for(Duration::from_millis(50)).expect("pump b");
        if text_of(b.session(), &line).as_deref() == Some("while b was gone") {
            converged = true;
            break;
        }
    }
    assert!(converged, "b reconverged on the state it missed");
    assert_eq!(b.session().instance(), Some(b_instance), "resumed under the same id");
    assert!(b.client().reconnects() >= 1);
    assert!(!b.session().is_rejoining(), "rejoin completed");
    let stats = server.server_stats();
    assert_eq!(stats.resumes, 1);
    assert_eq!(stats.quarantined_instances, 0);

    // The revived couple still works in both directions.
    b.session_mut()
        .user_event(UiEvent::new(
            line.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("b is back".into())],
        ))
        .expect("valid event");
    b.flush().expect("flush");
    let p = line.clone();
    assert!(a
        .pump_until(TIMEOUT, move |s| text_of(s, &p).as_deref() == Some("b is back"))
        .expect("pump"));
    b.pump_for(Duration::from_millis(100)).expect("pump");

    a.close();
    b.close();
}

#[test]
fn close_stops_the_reconnect_loop() {
    let server = graceful_server();
    let b = TcpSession::connect_with_reconnect(server.addr(), make_session(2), fast_policy())
        .expect("connect b");
    let reconnects_handle = b.client().reconnects();
    assert_eq!(reconnects_handle, 0);
    // A deliberate close must not be mistaken for a network failure.
    b.close();
    std::thread::sleep(Duration::from_millis(300));
    let stats = server.server_stats();
    assert_eq!(stats.resumes, 0, "no rejoin after a deliberate close");
}
