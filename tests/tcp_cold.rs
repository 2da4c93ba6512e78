//! Cold connections over real sockets. A poll thread takes a connection
//! that has been silent for `COLD_AFTER` out of its sweep and read-probes
//! it once every `COLD_PROBE` instead (`crates/net/src/poll.rs`). These
//! tests hold the two sides of that trade:
//!
//! - what a silent connection costs: the read probes spent on 256 cold
//!   connections, while a busy pair keeps the same poll thread sweeping,
//!   stay within one probe per connection per `COLD_PROBE` of wall
//!   time;
//! - what it must not cost: a cold connection that speaks is heard
//!   within a probe, and a frame sent to cold connections goes out at
//!   the next wake, not at their next probe.
//!
//! `stalled_peer_hits_the_handshake_deadline` in `tcp_chaos.rs` (a
//! 250 ms deadline, past `COLD_AFTER`) guards the deadline check on the
//! cold path. The tests take one lock, so no two hosts share the CPU.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cosoft::net::tcp::{ConnId, NetEvent, TcpHost};
use cosoft::wire::{codec, Message, SharedFrame};

/// `poll.rs`'s quiet time before a connection goes cold.
const COLD_AFTER: Duration = Duration::from_millis(100);

/// `poll.rs`'s interval between a cold connection's probes.
const COLD_PROBE: Duration = Duration::from_millis(8);

/// Past `COLD_AFTER`, with room for the idle thread's 2 ms parks.
const COOL_DOWN: Duration = COLD_AFTER.saturating_add(Duration::from_millis(50));

const TIMEOUT: Duration = Duration::from_secs(10);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Dials `host` and returns the socket with the id the host gave it.
fn connect(host: &TcpHost) -> (TcpStream, ConnId) {
    let stream = TcpStream::connect(host.local_addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    match host.events().recv_timeout(TIMEOUT).expect("accept") {
        NetEvent::Connected(id) => (stream, id),
        other => panic!("expected Connected, got {other:?}"),
    }
}

fn read_probes(host: &TcpHost) -> u64 {
    host.stats().read_probes
}

/// Ping-pong rounds on `(client, id)` for `window`, the host's side
/// played by this thread: `(rounds, read probes, wall time)`.
fn exchange(
    host: &TcpHost,
    client: &mut BufReader<TcpStream>,
    id: ConnId,
    window: Duration,
) -> (u64, u64, Duration) {
    let (start, probes) = (Instant::now(), read_probes(host));
    let mut rounds = 0;
    while start.elapsed() < window {
        client
            .get_mut()
            .write_all(&codec::frame_message(&Message::Ping { nonce: rounds }))
            .expect("ping");
        match host.events().recv_timeout(TIMEOUT).expect("ping event") {
            NetEvent::Message(c, Message::Ping { nonce }) if c == id && nonce == rounds => {}
            other => panic!("expected ping {rounds} from {id:?}, got {other:?}"),
        }
        host.send(id, &Message::Pong { nonce: rounds }).expect("pong");
        match codec::read_frame(client).expect("read pong") {
            Some(Message::Pong { nonce }) if nonce == rounds => {}
            other => panic!("expected pong {rounds}, got {other:?}"),
        }
        rounds += 1;
    }
    (rounds, read_probes(host) - probes, start.elapsed())
}

/// The count gate. A busy pair alone sets what its own probes cost per
/// round; then 256 silent connections join the same poll thread and go
/// cold, and the pair runs again. Whatever the second window spends
/// beyond twice the pair's own rate is the herd's, and must stay within
/// one probe per silent connection per `COLD_PROBE` of wall time (plus
/// two). A sweep that still visits every connection probes a quiet one
/// every fifth pass, and a busy pair makes thousands of passes, so it
/// overshoots by an order of magnitude.
#[test]
fn silent_connections_cost_one_probe_per_interval() {
    const HERD: u64 = 256;
    const WINDOW: Duration = Duration::from_millis(300);
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let (stream, id) = connect(&host);
    let mut client = BufReader::new(stream);

    let (alone_rounds, alone_probes, _) = exchange(&host, &mut client, id, WINDOW);
    assert!(alone_rounds > 0);
    let herd: Vec<TcpStream> = (0..HERD).map(|_| connect(&host).0).collect();
    std::thread::sleep(COOL_DOWN);
    let (rounds, probes, window) = exchange(&host, &mut client, id, WINDOW);

    let pair_share = 2 * alone_probes * rounds / alone_rounds;
    let herd_probes = probes.saturating_sub(pair_share);
    let per_conn = window.as_secs_f64() / COLD_PROBE.as_secs_f64() + 2.0;
    let bound = (HERD as f64 * per_conn) as u64;
    assert!(
        herd_probes <= bound,
        "{HERD} silent connections took {herd_probes} read probes in {window:?} (bound {bound}): \
         {probes} probes over {rounds} rounds with the herd, {alone_probes} over {alone_rounds} \
         without"
    );
    drop(herd);
}

/// A connection silent past `COLD_AFTER` that then speaks is heard at
/// its next probe, within `COLD_PROBE`; the bound is generous.
#[test]
fn a_cold_connection_that_speaks_is_heard_within_a_probe() {
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let (mut stream, id) = connect(&host);
    for nonce in 0..3 {
        std::thread::sleep(COOL_DOWN);
        let sent = Instant::now();
        stream.write_all(&codec::frame_message(&Message::Ping { nonce })).expect("ping");
        match host.events().recv_timeout(TIMEOUT).expect("ping event") {
            NetEvent::Message(c, Message::Ping { nonce: n }) if c == id && n == nonce => {}
            other => panic!("expected ping {nonce}, got {other:?}"),
        }
        let heard = sent.elapsed();
        assert!(heard <= Duration::from_millis(100), "ping {nonce} surfaced after {heard:?}");
    }
}

/// `send_batch` of one `Pong` to every client; returns the mean time
/// from the call to each client's read of it.
fn batch_mean(
    host: &TcpHost,
    clients: &mut [(BufReader<TcpStream>, ConnId)],
    nonce: u64,
) -> Duration {
    let frame = SharedFrame::from_message(&Message::Pong { nonce });
    let batch: Vec<(ConnId, SharedFrame)> =
        clients.iter().map(|(_, id)| (*id, frame.clone())).collect();
    let sent = Instant::now();
    assert!(host.send_batch(&batch).is_empty());
    let mut total = Duration::ZERO;
    for (client, _) in clients.iter_mut() {
        match codec::read_frame(client).expect("read pong") {
            Some(Message::Pong { nonce: n }) if n == nonce => {}
            other => panic!("expected pong {nonce}, got {other:?}"),
        }
        total += sent.elapsed();
    }
    total / clients.len().max(1) as u32
}

/// Each client sends a `Ping`, `gap` apart; returns once the host has
/// surfaced them all, so every connection has just moved bytes.
fn speak(
    host: &TcpHost,
    clients: &mut [(BufReader<TcpStream>, ConnId)],
    nonce: u64,
    gap: Duration,
) {
    let ping = codec::frame_message(&Message::Ping { nonce });
    for (client, _) in clients.iter_mut() {
        client.get_mut().write_all(&ping).expect("ping");
        std::thread::sleep(gap);
    }
    for _ in 0..clients.len() {
        match host.events().recv_timeout(TIMEOUT).expect("ping event") {
            NetEvent::Message(_, Message::Ping { nonce: n }) if n == nonce => {}
            other => panic!("expected ping {nonce}, got {other:?}"),
        }
    }
}

/// `send_batch` to 64 cold connections: each frame goes out at the
/// poll thread's next wake. The clients last spoke across one
/// `COLD_PROBE`, so the connections went cold, and are probed, at every
/// phase of the interval; a cold outbox flushed only at its probe would
/// wait half an interval on average (4 ms) whenever the batch is sent.
/// Each cold batch is measured against a second batch sent once every
/// client has spoken again (so every connection is hot, however the
/// first batch went out), and a slow build slows both alike: in the best
/// of three tries the cold batch may take at most `COLD_PROBE / 4`
/// longer.
#[test]
fn a_frame_to_cold_connections_goes_out_at_the_next_wake() {
    const CONNS: u32 = 64;
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let mut clients: Vec<_> =
        (0..CONNS).map(|_| connect(&host)).map(|(s, id)| (BufReader::new(s), id)).collect();

    let mut tries = Vec::new();
    for nonce in 0..3 {
        speak(&host, &mut clients, 3 * nonce, COLD_PROBE / CONNS);
        std::thread::sleep(COOL_DOWN);
        let cold = batch_mean(&host, &mut clients, 3 * nonce);
        speak(&host, &mut clients, 3 * nonce + 1, Duration::ZERO);
        let hot = batch_mean(&host, &mut clients, 3 * nonce + 1);
        tries.push((cold, hot));
    }
    let best = tries.iter().map(|&(cold, hot)| cold.saturating_sub(hot)).min();
    assert!(
        best.is_some_and(|extra| extra <= COLD_PROBE / 4),
        "mean arrival per batch, (cold, then hot): {tries:?}"
    );
}
