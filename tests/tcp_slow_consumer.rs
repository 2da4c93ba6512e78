//! Regression tests for the server's outgoing path: per-connection
//! writer queues mean one stalled client cannot delay broadcasts to its
//! peers, consumers whose queues stay full are evicted (and take the
//! §3.2 auto-decoupling path) while one that catches up in time is
//! not, and a `CopyFrom` whose source dies is failed back to the
//! requester instead of hanging.

use std::io::Write;
use std::time::{Duration, Instant};

use cosoft::net::tcp::TcpHostConfig;
use cosoft::net::TcpClient;
use cosoft::runtime::TcpServer;
use cosoft::wire::{
    codec, CopyMode, GlobalObjectId, InstanceId, Message, ObjectPath, Target, UserId,
};

const TIMEOUT: Duration = Duration::from_secs(10);

fn register(client: &TcpClient, user: u64, host: &str) -> InstanceId {
    client
        .send(&Message::Register { user: UserId(user), host: host.into(), app_name: "t".into() })
        .expect("send register");
    match client.recv_timeout(TIMEOUT) {
        Some(Message::Welcome { instance }) => instance,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

fn gid(i: InstanceId, p: &str) -> GlobalObjectId {
    GlobalObjectId::new(i, ObjectPath::parse(p).unwrap())
}

/// A stalled client (socket accepted and registered, never reading) must
/// not delay broadcast delivery to a healthy peer beyond the enqueue
/// timeout, and must eventually be evicted and auto-deregistered.
#[test]
fn stalled_client_is_evicted_and_does_not_starve_broadcasts() {
    let config = TcpHostConfig {
        queue_capacity: 8,
        enqueue_timeout: Duration::from_millis(200),
        ..TcpHostConfig::default()
    };
    let server = TcpServer::spawn_with_config("127.0.0.1:0", config).expect("bind");

    let alice = TcpClient::connect(server.addr()).expect("connect alice");
    let bob = TcpClient::connect(server.addr()).expect("connect bob");
    register(&alice, 1, "alice");
    register(&bob, 2, "bob");

    // The stalled client registers over a raw socket and then never
    // reads a single byte.
    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("connect stalled");
    stalled
        .write_all(&codec::frame_message(&Message::Register {
            user: UserId(3),
            host: "stalled".into(),
            app_name: "t".into(),
        }))
        .expect("register stalled");

    // Wait until the server has registered all three.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        alice.send(&Message::QueryInstances).expect("query");
        match alice.recv_timeout(TIMEOUT) {
            Some(Message::InstanceList { entries }) if entries.len() == 3 => break,
            Some(_) => {}
            None => panic!("no InstanceList reply"),
        }
        assert!(Instant::now() < deadline, "third client never registered");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Alice broadcasts big payloads. Every broadcast also targets the
    // stalled client, whose queue fills up; bob must keep receiving
    // promptly the whole time.
    let payload = vec![0x5A_u8; 256 * 1024];
    let mut max_bob_latency = Duration::ZERO;
    for round in 0..64u32 {
        alice
            .send(&Message::CoSendCommand {
                to: Target::Broadcast,
                command: format!("round-{round}"),
                payload: payload.clone(),
            })
            .expect("broadcast");
        let t0 = Instant::now();
        loop {
            match bob.recv_timeout(TIMEOUT) {
                Some(Message::CommandDelivery { command, .. })
                    if command == format!("round-{round}") =>
                {
                    break
                }
                Some(_) => {}
                None => panic!("bob never received broadcast round {round}"),
            }
        }
        max_bob_latency = max_bob_latency.max(t0.elapsed());
    }
    // The queue in front of the stalled consumer holds at most
    // `queue_capacity` writes; a blocked enqueue waits at most
    // `enqueue_timeout` before the consumer is evicted. A healthy peer
    // therefore sees at most ~one enqueue timeout of added latency;
    // allow generous slack for scheduling noise.
    assert!(
        max_bob_latency < Duration::from_secs(5),
        "broadcast to healthy peer delayed {max_bob_latency:?} by a stalled consumer"
    );

    // The stalled consumer was evicted: the transport counted it, and
    // the server auto-deregistered the instance (§3.2 decoupling path).
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let net = server.net_stats();
        let core = server.server_stats();
        if net.slow_consumer_evictions >= 1 && core.registered_instances == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled consumer never evicted: net={net:?} core={core:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Frames abandoned in the evicted connection's queue are counted,
    // not silently discarded: the enqueue that timed out plus the
    // full queue (that fullness is what triggered the eviction) all
    // land in `frames_dropped`.
    let net = server.net_stats();
    assert!(
        net.frames_dropped >= 8,
        "drained queue of evicted consumer not accounted: frames_dropped={}",
        net.frames_dropped
    );

    // Observability counters moved: real traffic in and out.
    let net = server.net_stats();
    assert!(net.frames_in > 64, "frames_in={}", net.frames_in);
    assert!(net.bytes_out > payload.len() as u64, "bytes_out={}", net.bytes_out);
    let core = server.server_stats();
    assert!(core.messages_out as usize >= 64, "messages_out={}", core.messages_out);
    assert!(core.max_fanout >= 2, "max_fanout={}", core.max_fanout);
}

/// A reader that falls behind until its backlog is over budget, then
/// catches up well within `enqueue_timeout`, is not a slow consumer: it
/// gets every frame, and nothing is evicted or dropped. The turn that
/// queues its frames runs on the poll thread that writes them, so a
/// turn that waited for the backlog to drain would wait out the timeout
/// and evict the reader.
#[test]
fn a_slow_reader_that_catches_up_is_not_evicted() {
    let config = TcpHostConfig {
        queue_capacity: 4,
        enqueue_timeout: Duration::from_secs(1),
        ..TcpHostConfig::default()
    };
    let server = TcpServer::spawn_with_config("127.0.0.1:0", config).expect("bind");
    let alice = TcpClient::connect(server.addr()).expect("connect alice");
    register(&alice, 1, "alice");

    // The slow reader registers over a raw socket, then reads nothing
    // until its backlog is over budget.
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect reader");
    stream.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    let mut reader = std::io::BufReader::new(stream);
    let register =
        Message::Register { user: UserId(2), host: "reader".into(), app_name: "t".into() };
    reader.get_mut().write_all(&codec::frame_message(&register)).expect("register reader");
    while !matches!(codec::read_frame(&mut reader).expect("read"), Some(Message::Welcome { .. })) {}

    let payload = vec![0x3C_u8; 256 * 1024];
    let mut sent = 0;
    while server.net_stats().enqueue_full_waits == 0 {
        assert!(sent < 256, "the reader's backlog never went over budget; the test proves nothing");
        alice
            .send(&Message::CoSendCommand {
                to: Target::Broadcast,
                command: format!("blob-{sent}"),
                payload: payload.clone(),
            })
            .expect("broadcast");
        sent += 1;
        std::thread::sleep(Duration::from_millis(5));
    }

    // It catches up: every broadcast, in order.
    let start = Instant::now();
    for i in 0..sent {
        loop {
            match codec::read_frame(&mut reader) {
                Ok(Some(Message::CommandDelivery { command, .. })) => {
                    assert_eq!(command, format!("blob-{i}"));
                    break;
                }
                Ok(Some(_)) => {}
                other => panic!("reader: expected blob-{i} of {sent}, got {other:?}"),
            }
        }
    }
    let caught_up = start.elapsed();
    let net = server.net_stats();
    assert_eq!(
        net.slow_consumer_evictions, 0,
        "a reader that caught up in {caught_up:?} was evicted"
    );
    assert_eq!(net.frames_dropped, 0);
    assert!(
        caught_up < config.enqueue_timeout / 2,
        "the reader took {caught_up:?} to catch up; the test proves nothing"
    );
}

/// A `CopyFrom` whose source disconnects before replying completes with
/// an error instead of hanging the requester forever.
#[test]
fn copy_from_dead_source_fails_over_tcp() {
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let alice = TcpClient::connect(server.addr()).expect("connect alice");
    let src = TcpClient::connect(server.addr()).expect("connect source");
    let a = register(&alice, 1, "alice");
    let s = register(&src, 2, "source");

    alice
        .send(&Message::CopyFrom {
            src: gid(s, "form"),
            dst: gid(a, "form"),
            mode: CopyMode::Strict,
            req_id: 11,
        })
        .expect("copy-from");

    // The source sees the StateRequest but dies instead of replying.
    match src.recv_timeout(TIMEOUT) {
        Some(Message::StateRequest { .. }) => {}
        other => panic!("expected StateRequest at source, got {other:?}"),
    }
    src.close();

    match alice.recv_timeout(TIMEOUT) {
        Some(Message::ErrorReply { context, reason }) => {
            assert_eq!(context, "copy");
            assert!(reason.contains("source"), "unexpected reason: {reason}");
        }
        other => panic!("expected ErrorReply for the dead source, got {other:?}"),
    }
}
