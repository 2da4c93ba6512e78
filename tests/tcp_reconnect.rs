//! Real-socket reconnect/resume tests: a client whose connection dies
//! mid-session redials with backoff, rejoins under its resume token, and
//! reconverges via the §3.1 `CopyFrom` resync — the TCP twin of the
//! deterministic `reconnect_sim` tests — and the redial state of a bare
//! `TcpClient`: it gives up after its attempts, and a server's `Busy`
//! advice holds a redial back.

use std::time::{Duration, Instant};

use cosoft::core::session::Session;
use cosoft::net::tcp::{
    ClientEvent, NetEvent, ReconnectPolicy, RecvError, TcpClient, TcpHost, TcpHostConfig,
};
use cosoft::runtime::{TcpServer, TcpSession};
use cosoft::server::LivenessConfig;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::Message;
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

/// Receives on `client` in 10 ms slices until `done` holds of the
/// lifecycle events seen so far: `(event, when the receive that emitted
/// it started)` each.
fn drive(
    client: &TcpClient,
    done: impl Fn(&[(ClientEvent, Instant)]) -> bool,
) -> Vec<(ClientEvent, Instant)> {
    let deadline = Instant::now() + TIMEOUT;
    let mut seen = Vec::new();
    while !done(&seen) {
        assert!(Instant::now() < deadline, "lifecycle stalled at {seen:?}");
        let started = Instant::now();
        let _ = client.recv_within(Duration::from_millis(10));
        let events = client.events().expect("a reconnect client");
        seen.extend(std::iter::from_fn(|| events.try_recv().ok()).map(|e| (e, started)));
    }
    seen
}

fn connected(host: &TcpHost) -> cosoft::net::ConnId {
    match host.events().recv_timeout(TIMEOUT).expect("accept") {
        NetEvent::Connected(id) => id,
        other => panic!("expected Connected, got {other:?}"),
    }
}

/// With its host gone, a client spends its three redials and gives up;
/// from then on a receive says `Disconnected` at once.
#[test]
fn a_client_whose_host_is_gone_gives_up_after_its_attempts() {
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let policy = ReconnectPolicy { max_attempts: 3, ..fast_policy() };
    let client = TcpClient::connect_with_reconnect(host.local_addr(), policy).expect("connect");
    connected(&host);
    drop(host);

    let seen = drive(&client, |seen| seen.iter().any(|(e, _)| *e == ClientEvent::GaveUp));
    let events: Vec<ClientEvent> = seen.iter().map(|(e, _)| *e).collect();
    assert_eq!(events, [ClientEvent::Disconnected, ClientEvent::GaveUp]);
    assert_eq!(client.reconnect_attempts(), 3);
    let started = Instant::now();
    assert_eq!(client.recv_within(TIMEOUT), Err(RecvError::Disconnected));
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
}

/// A `Busy` the client received is a floor under its redial backoff:
/// with a 10 ms base delay, the redial after the host hangs up still
/// waits the advised 300 ms, and the redial that succeeds clears the
/// advice.
#[test]
fn a_busy_advice_holds_the_redial_back_until_a_redial_clears_it() {
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let policy = ReconnectPolicy { base_delay: Duration::from_millis(10), ..fast_policy() };
    let client = TcpClient::connect_with_reconnect(host.local_addr(), policy).expect("connect");
    let conn = connected(&host);
    host.send(conn, &Message::Busy { retry_after_ms: 300 }).expect("busy");
    assert_eq!(client.recv_within(TIMEOUT), Ok(Message::Busy { retry_after_ms: 300 }));
    assert_eq!(client.busy_advice_ms(), 300);
    host.disconnect(conn);

    let seen = drive(&client, |seen| {
        seen.iter().any(|(e, _)| matches!(e, ClientEvent::Reconnected { .. }))
    });
    let back = Instant::now();
    let events: Vec<ClientEvent> = seen.iter().map(|(e, _)| *e).collect();
    assert_eq!(events, [ClientEvent::Disconnected, ClientEvent::Reconnected { attempts: 1 }]);
    let waited = back - seen[0].1;
    assert!(waited >= Duration::from_millis(300), "redialed {waited:?} after the disconnect");
    assert_eq!(client.busy_advice_ms(), 0);
    assert!(
        matches!(host.events().recv_timeout(TIMEOUT), Ok(NetEvent::Disconnected(c)) if c == conn)
    );
    connected(&host);
}

/// A dial gets no more than what is left of its receive. Against an
/// address that never answers (a listener whose accept queue is full
/// drops every SYN), `try_recv` returns at once without dialing, and
/// each `recv_within(50 ms)` returns within its timeout, its dial
/// counted as a failed attempt. A dial that blocked for the kernel's
/// SYN retries would hold the receive for minutes.
#[test]
fn a_dial_that_hangs_keeps_to_the_receive_timeout() {
    const SLICE: Duration = Duration::from_millis(50);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let policy = ReconnectPolicy {
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(1),
        jitter: 0.0,
        ..fast_policy()
    };
    let client = TcpClient::connect_with_reconnect(addr, policy).expect("connect");
    // Nobody accepts: fill the queue until a dial times out.
    let mut queued = Vec::new();
    while let Ok(stream) = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
        queued.push(stream);
        assert!(queued.len() < 4096, "the accept queue never filled");
    }

    client.sever();
    for _ in 0..2 {
        let started = Instant::now();
        assert_eq!(client.try_recv(), None);
        assert!(started.elapsed() < SLICE, "try_recv took {:?}", started.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.reconnect_attempts(), 0, "try_recv dialed");
    for attempt in 1..=3 {
        let started = Instant::now();
        assert_eq!(client.recv_within(SLICE), Err(RecvError::Timeout));
        let took = started.elapsed();
        assert!(took < SLICE + Duration::from_millis(150), "recv_within(50 ms) took {took:?}");
        assert_eq!(client.reconnect_attempts(), attempt);
    }
    assert_eq!(client.reconnects(), 0);
    let events = client.events().expect("a reconnect client");
    assert_eq!(events.try_recv().ok(), Some(ClientEvent::Disconnected));
    assert!(events.try_recv().is_err());
}

/// Receives on four threads while a dial is due take turns: one of them
/// dials, and the host sees exactly one fresh connection.
#[test]
fn receives_on_several_threads_dial_once() {
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let client =
        TcpClient::connect_with_reconnect(host.local_addr(), fast_policy()).expect("connect");
    let conn = connected(&host);
    client.sever();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let deadline = Instant::now() + TIMEOUT;
                while client.reconnects() == 0 && Instant::now() < deadline {
                    let _ = client.recv_within(Duration::from_millis(10));
                }
                // Past the backoff a second dial would have waited.
                let _ = client.recv_within(Duration::from_millis(200));
            });
        }
    });
    assert_eq!((client.reconnects(), client.reconnect_attempts()), (1, 1));
    assert!(
        matches!(host.events().recv_timeout(TIMEOUT), Ok(NetEvent::Disconnected(c)) if c == conn)
    );
    let fresh = connected(&host);
    assert!(
        host.events().recv_timeout(Duration::from_millis(200)).is_err(),
        "a second dial reached the host"
    );
    assert_ne!(fresh, conn);
}
