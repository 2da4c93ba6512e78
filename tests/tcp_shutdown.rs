//! Deterministic-shutdown regressions: session close used to sleep an
//! arbitrary 20 ms hoping the goodbye frames had left, and server drop
//! waited out a 50 ms dispatch poll. Both are handshakes now — close
//! writes its goodbye itself, waiting on the client's drain gate between
//! tries, and drop stops the host's poll threads, whose mail ends any
//! wait at once (the dispatch turn runs on the first of them) — so these
//! tests assert outcomes, not timing luck.

use std::time::{Duration, Instant};

use cosoft::core::session::Session;
use cosoft::net::TcpHostConfig;
use cosoft::runtime::{TcpServer, TcpSession};
use cosoft::server::LivenessConfig;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::UserId;

const FORM: &str = r#"form pad { textfield line text="" }"#;
const TIMEOUT: Duration = Duration::from_secs(10);

fn make_session(user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static spec")),
        UserId(user),
        &format!("host{user}"),
        "tcp-shutdown",
    )
}

fn wait_for(server: &TcpServer, what: &str, ok: impl Fn(&TcpServer) -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !ok(server) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The goodbye actually flushes: with a long quarantine grace, a client
/// that merely *vanishes* gets quarantined, while one whose `Deregister`
/// reached the server is deregistered outright. `close()` must always
/// land in the second bucket — that is what the flush handshake (`close`
/// writes until the frames have hit the socket) guarantees, where the
/// old fixed 20 ms nap merely gambled on it.
#[test]
fn session_close_deregisters_instead_of_quarantining() {
    let liveness = LivenessConfig { grace_us: 30_000_000, ..LivenessConfig::default() };
    let server = TcpServer::spawn_with_liveness("127.0.0.1:0", TcpHostConfig::default(), liveness)
        .expect("bind");
    let session = TcpSession::connect(server.addr(), make_session(1)).expect("connect");
    wait_for(&server, "registration", |s| s.server_stats().registered_instances == 1);

    let t0 = Instant::now();
    session.close();
    let close_elapsed = t0.elapsed();

    wait_for(&server, "deregistration", |s| s.server_stats().registered_instances == 0);
    let stats = server.server_stats();
    assert_eq!(
        stats.quarantined_instances, 0,
        "close() lost the Deregister and the server had to quarantine the instance"
    );
    // Bounded even so: the handshake writes for at most its flush
    // timeout, never for as long as a wedged socket would take.
    assert!(close_elapsed < Duration::from_secs(2), "close took {close_elapsed:?}");
}

/// Dropping the server must not wait out the dispatch tick (1 s when
/// liveness is off): dropping the host posts `Shutdown` to its poll
/// threads, which ends the wait of the one that runs the turn at once.
#[test]
fn server_drop_joins_promptly() {
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    // An idle connected client, so the drop also exercises live-socket
    // teardown, not just an empty host.
    let session = TcpSession::connect(server.addr(), make_session(2)).expect("connect");
    wait_for(&server, "registration", |s| s.server_stats().registered_instances == 1);

    let t0 = Instant::now();
    drop(server);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(700),
        "server drop waited out the dispatch tick instead of being woken: {elapsed:?}"
    );
    drop(session);
}
