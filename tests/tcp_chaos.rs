//! Transport chaos tests: every fault a peer or the kernel can put on a
//! socket — torn frames, garbage bytes, oversized headers, stalled
//! peers, a reader too slow for the send buffer, a peer dribbling bytes,
//! a reset — must end in a clean state: every frame whole and in order,
//! exactly one `Disconnected` per torn connection, no poll-thread death,
//! no permanently blocked sender, and healthy peers unaffected.
//!
//! Each fault comes from a raw `TcpStream` on the other end; nothing in
//! the host is instrumented. The byte-level cases the kernel decides for
//! itself (a write cut at any offset, a `WouldBlock` after any byte, a
//! read ending mid-header) are unit tests of the outbox and the frame
//! reader in `crates/net/src/poll.rs`, driven through a scripted writer.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use cosoft::net::tcp::{NetEvent, TcpClient, TcpHost, TcpHostConfig};
use cosoft::net::RecvError;
use cosoft::wire::{codec, InstanceId, Message, UserId};

const TIMEOUT: Duration = Duration::from_secs(10);

fn accept_one(host: &TcpHost) -> cosoft::net::ConnId {
    match host.events().recv_timeout(TIMEOUT).expect("accept") {
        NetEvent::Connected(c) => c,
        other => panic!("expected Connected, got {other:?}"),
    }
}

/// A message whose frame is `bytes` of payload plus its header.
fn payload_msg(bytes: usize) -> Message {
    Message::CommandDelivery {
        from: InstanceId(1),
        command: "chaos-blob".into(),
        payload: (0..bytes).map(|i| (i % 251) as u8).collect(),
    }
}

/// Drives one round trip over a healthy client to prove the host (and
/// its poll thread) survived whatever the test just did to a peer.
fn assert_host_alive(host: &TcpHost, client: &TcpClient, conn: cosoft::net::ConnId) {
    client.send(&Message::Ping { nonce: 0xA11E }).expect("healthy send");
    loop {
        match host.events().recv_timeout(TIMEOUT).expect("healthy inbound") {
            NetEvent::Message(c, Message::Ping { nonce: 0xA11E }) => {
                assert_eq!(c, conn);
                break;
            }
            // Stale events from the evil peer may still be queued.
            _ => continue,
        }
    }
    host.send(conn, &Message::Pong { nonce: 0xA11E }).expect("healthy outbound");
    match client.recv_within(TIMEOUT).expect("healthy reply") {
        Message::Pong { nonce } => assert_eq!(nonce, 0xA11E),
        other => panic!("expected Pong, got {other:?}"),
    }
}

/// Collects `Disconnected` events for `window`, asserting exactly one
/// and that it names `victim`.
fn expect_one_disconnect(host: &TcpHost, victim: cosoft::net::ConnId) {
    let mut disconnects = Vec::new();
    let deadline = Instant::now() + TIMEOUT;
    while disconnects.is_empty() && Instant::now() < deadline {
        if let Ok(NetEvent::Disconnected(c)) = host.events().recv_timeout(Duration::from_millis(50))
        {
            disconnects.push(c);
        }
    }
    // A short grace to catch an (incorrect) duplicate teardown.
    while let Ok(event) = host.events().recv_timeout(Duration::from_millis(200)) {
        if let NetEvent::Disconnected(c) = event {
            disconnects.push(c);
        }
    }
    assert_eq!(disconnects, vec![victim], "exactly one Disconnected for the torn connection");
}

#[test]
fn torn_frame_kills_only_its_own_connection() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let healthy = TcpClient::connect(host.local_addr()).unwrap();
    let healthy_conn = accept_one(&host);

    // Evil peer: one valid frame, then a frame header promising 64 bytes
    // followed by only 5 and a hard close — a torn frame.
    let mut evil = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let evil_conn = accept_one(&host);
    evil.write_all(&codec::frame_message(&Message::Ping { nonce: 1 })).unwrap();
    match host.events().recv_timeout(TIMEOUT).expect("valid frame first") {
        NetEvent::Message(c, Message::Ping { nonce: 1 }) => assert_eq!(c, evil_conn),
        other => panic!("expected the valid Ping, got {other:?}"),
    }
    evil.write_all(&64u32.to_le_bytes()).unwrap();
    evil.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00]).unwrap();
    drop(evil);

    expect_one_disconnect(&host, evil_conn);
    assert_host_alive(&host, &healthy, healthy_conn);
}

#[test]
fn garbage_frame_body_kills_only_its_own_connection() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let healthy = TcpClient::connect(host.local_addr()).unwrap();
    let healthy_conn = accept_one(&host);

    // Complete frame, nonsense body: an unknown tag the decoder rejects.
    let mut evil = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let evil_conn = accept_one(&host);
    evil.write_all(&4u32.to_le_bytes()).unwrap();
    evil.write_all(&[0xEE, 0xEE, 0xEE, 0xEE]).unwrap();

    expect_one_disconnect(&host, evil_conn);
    // The evil socket was shut down by the host, not the test.
    assert_host_alive(&host, &healthy, healthy_conn);
    drop(evil);
}

#[test]
fn oversized_length_header_kills_only_its_own_connection() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let healthy = TcpClient::connect(host.local_addr()).unwrap();
    let healthy_conn = accept_one(&host);

    // A length header past MAX_LEN must be fatal before any allocation.
    let mut evil = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let evil_conn = accept_one(&host);
    evil.write_all(&u32::MAX.to_le_bytes()).unwrap();

    expect_one_disconnect(&host, evil_conn);
    assert_host_alive(&host, &healthy, healthy_conn);
    drop(evil);
}

#[test]
fn stalled_peer_hits_the_handshake_deadline() {
    let config =
        TcpHostConfig { handshake_timeout: Duration::from_millis(250), ..TcpHostConfig::default() };
    let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();

    // Speaking peer: sends a frame immediately, must outlive the
    // deadline untouched.
    let speaking = TcpClient::connect(host.local_addr()).unwrap();
    let speaking_conn = accept_one(&host);
    speaking.send(&Message::Ping { nonce: 7 }).unwrap();
    match host.events().recv_timeout(TIMEOUT).expect("handshake frame") {
        NetEvent::Message(c, Message::Ping { nonce: 7 }) => assert_eq!(c, speaking_conn),
        other => panic!("expected Ping, got {other:?}"),
    }

    // Stalled peer: connects, never writes a byte.
    let stalled = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let stalled_conn = accept_one(&host);

    expect_one_disconnect(&host, stalled_conn);
    assert_eq!(host.stats().handshake_timeouts, 1);
    // Well past the stalled peer's deadline, the speaking peer (whose
    // deadline was met) still exchanges traffic.
    assert_host_alive(&host, &speaking, speaking_conn);
    drop(stalled);
}

#[test]
fn recv_within_distinguishes_silent_peer_from_dead_peer() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let client = TcpClient::connect(host.local_addr()).unwrap();
    let conn = accept_one(&host);

    // Peer alive but silent: a timeout, not a disconnect.
    match client.recv_within(Duration::from_millis(200)) {
        Err(RecvError::Timeout) => {}
        other => panic!("silent-but-alive peer must time out, got {other:?}"),
    }

    // Still alive: a reply arrives on the same connection.
    host.send(conn, &Message::Pong { nonce: 9 }).unwrap();
    match client.recv_within(TIMEOUT) {
        Ok(Message::Pong { nonce: 9 }) => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    // Now actually dead: a disconnect, not a timeout.
    host.disconnect(conn);
    let started = Instant::now();
    match client.recv_within(TIMEOUT) {
        Err(RecvError::Disconnected) => {}
        other => panic!("dead peer must report Disconnected, got {other:?}"),
    }
    assert!(
        started.elapsed() < TIMEOUT,
        "disconnect must surface promptly, not by exhausting the timeout"
    );
}

#[test]
fn pump_for_returns_on_time_against_a_silent_server() {
    use cosoft::core::session::Session;
    use cosoft::runtime::{TcpServer, TcpSession};
    use cosoft::uikit::{spec, Toolkit};

    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let session = Session::new(
        Toolkit::from_tree(spec::build_tree(r#"form f { textfield t text="" }"#).unwrap()),
        UserId(1),
        "chaos-host",
        "tcp-chaos-test",
    );
    let mut tcp = TcpSession::connect(server.addr(), session).expect("register");

    // Registered and idle: a pump window against a silent (but alive)
    // server returns close to on time instead of wedging.
    let window = Duration::from_millis(300);
    let started = Instant::now();
    tcp.pump_for(window).expect("pump over silent server");
    let elapsed = started.elapsed();
    assert!(elapsed >= window, "pump_for returned early: {elapsed:?}");
    assert!(elapsed < window + TIMEOUT, "pump_for wedged: {elapsed:?}");
    assert!(tcp.session().instance().is_some(), "session lost its registration while idle");

    // Server gone for good: pump_for still honors its window and
    // returns — a dead receiver must not hang or hot-spin the caller.
    drop(server);
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    tcp.pump_for(window).expect("pump over dead server");
    let elapsed = started.elapsed();
    assert!(elapsed >= window, "pump_for returned early on dead server: {elapsed:?}");
    assert!(elapsed < window + TIMEOUT, "pump_for wedged on dead server: {elapsed:?}");
}

/// A `Read` that takes at most `self.1` bytes a call.
struct Sip<R>(R, usize);

impl<R: Read> Read for Sip<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.1);
        self.0.read(&mut buf[..n])
    }
}

#[test]
fn a_slow_reader_gets_big_frames_intact() {
    // A backlog far past the largest send buffer the kernel grants
    // (`tcp_wmem`'s maximum is a few MiB), so the host's writes are cut
    // wherever the buffer fills. The budget keeps the peer from being
    // evicted as a slow consumer.
    const FRAMES: usize = 13;
    let config = TcpHostConfig {
        queue_max_bytes: 64 * 1024 * 1024,
        enqueue_timeout: TIMEOUT,
        ..TcpHostConfig::default()
    };
    let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
    let peer = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let conn = accept_one(&host);

    let sent: Vec<Message> = (0..FRAMES).map(|i| payload_msg((1 << 20) + i * 4099)).collect();
    for msg in &sent {
        host.send(conn, msg).unwrap();
    }
    // The kernel takes part of the backlog, and 100 ms on it still
    // refuses the rest.
    let deadline = Instant::now() + TIMEOUT;
    while host.stats().bytes_out == 0 {
        assert!(Instant::now() < deadline, "no byte reached the socket");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(host.stats().max_queued_bytes > 0, "the kernel took 13 MiB unread");
    peer.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut slow = Sip(peer, 3000);
    for (i, expected) in sent.iter().enumerate() {
        let got = codec::read_frame(&mut slow).expect("read").expect("a frame, not EOF");
        assert!(&got == expected, "frame {i} corrupted by cut writes");
    }
    assert_eq!(host.stats().slow_consumer_evictions, 0);
}

#[test]
fn a_reset_peer_is_torn_down_exactly_once() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let healthy = TcpClient::connect(host.local_addr()).unwrap();
    let healthy_conn = accept_one(&host);

    let peer = std::net::TcpStream::connect(host.local_addr()).unwrap();
    let peer_conn = accept_one(&host);
    host.send(peer_conn, &Message::Pong { nonce: 1 }).unwrap();
    // Once the frame sits unread in the peer's receive buffer, closing
    // the peer resets the connection instead of ending it.
    peer.set_read_timeout(Some(TIMEOUT)).unwrap();
    assert!(peer.peek(&mut [0; 4]).unwrap() > 0, "the frame reached the peer");
    drop(peer);

    expect_one_disconnect(&host, peer_conn);
    assert_host_alive(&host, &healthy, healthy_conn);
}

#[test]
fn a_peer_dribbling_bytes_is_heard_intact() {
    let host = TcpHost::bind("127.0.0.1:0").unwrap();
    let mut peer = std::net::TcpStream::connect(host.local_addr()).unwrap();
    peer.set_nodelay(true).unwrap();
    let conn = accept_one(&host);

    // 1–7 bytes a segment, with a pause now and then so the host's reads
    // end inside headers and bodies alike.
    let sent: Vec<Message> = (0..4).map(|i| payload_msg(64 + i * 41)).collect();
    let bytes: Vec<u8> = sent.iter().flat_map(codec::frame_message).collect();
    let mut at = 0;
    for i in 0.. {
        let end = (at + 1 + i % 7).min(bytes.len());
        peer.write_all(&bytes[at..end]).unwrap();
        at = end;
        if at == bytes.len() {
            break;
        }
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for expected in &sent {
        match host.events().recv_timeout(TIMEOUT).expect("frame despite dribbled bytes") {
            NetEvent::Message(c, got) => {
                assert_eq!(c, conn);
                assert_eq!(&got, expected, "frame corrupted by reassembly");
            }
            other => panic!("expected Message, got {other:?}"),
        }
    }
}
