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
//! And what an idle transport costs: a poll thread with no connection
//! parks until a command wakes it, connected clients add no thread, an
//! idle client's receive wakes none, and an idle server's poll thread,
//! which runs its dispatch turn, parks until the liveness tick; a server
//! runs its poll threads and accept thread and no other. All five read
//! `/proc/self/task` (Linux), and the parking ones bound both how often
//! the thread ran and its time on a CPU. The turn's other side: a burst
//! past a turn's budget is answered without waiting for a tick.
//!
//! `stalled_peer_hits_the_handshake_deadline` in `tcp_chaos.rs` (a
//! 250 ms deadline, past `COLD_AFTER`) guards the deadline check on the
//! cold path. The tests take one lock, so no two hosts share the CPU.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cosoft::net::tcp::{ConnId, NetEvent, TcpClient, TcpHost, TcpHostConfig};
use cosoft::runtime::TcpServer;
use cosoft::wire::{codec, Message, SharedFrame, UserId};

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

/// This process's threads: `(tid, comm)`.
fn threads() -> Vec<(String, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| {
            let tid = task.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some((tid, comm.trim_end().to_owned()))
        })
        .collect()
}

/// The id of the thread named `name`, once it has named itself. The
/// kernel keeps the first 15 bytes of a name.
fn thread_named(name: &str) -> String {
    let name = name.get(..15).unwrap_or(name);
    let deadline = Instant::now() + TIMEOUT;
    loop {
        if let Some((tid, _)) = threads().into_iter().find(|(_, comm)| comm == name) {
            return tid;
        }
        assert!(Instant::now() < deadline, "no thread named {name}");
        std::thread::yield_now();
    }
}

/// Field `n` of thread `tid`'s `schedstat`: 0 is its time on a CPU in
/// nanoseconds, 2 how many times it has run.
fn schedstat(tid: &str, n: usize) -> u64 {
    let stat =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).expect("schedstat");
    stat.split_whitespace().nth(n).and_then(|n| n.parse().ok()).expect("schedstat field")
}

/// How many times thread `tid` has run.
fn run_count(tid: &str) -> u64 {
    schedstat(tid, 2)
}

/// How many times thread `tid` ran over `window`, and its time on a CPU.
fn idle_cost(tid: &str, window: Duration) -> (u64, Duration) {
    let (runs, cpu) = (run_count(tid), schedstat(tid, 0));
    std::thread::sleep(window);
    (run_count(tid) - runs, Duration::from_nanos(schedstat(tid, 0) - cpu))
}

/// A poll thread with no connection has nothing due, so it parks until
/// a command wakes it: over 500 ms it runs at most 5 times and spends at
/// most 50 ms on a CPU, where one that woke every `MAX_PARK` ran about
/// 250 times, and one that spun kept a CPU the whole time in few runs.
/// The dial that follows is still heard, since registering it wakes the
/// thread.
#[test]
fn a_poll_thread_with_no_connection_parks_until_woken() {
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let tid = thread_named("cosoft-poll-0");
    // Past the thread's start and its first empty pass.
    std::thread::sleep(Duration::from_millis(50));
    let (ran, busy) = idle_cost(&tid, Duration::from_millis(500));
    assert!(
        ran <= 5 && busy <= Duration::from_millis(50),
        "an idle poll thread ran {ran} times in 500 ms, {busy:?} of it on a CPU"
    );

    let (mut stream, id) = connect(&host);
    stream.write_all(&codec::frame_message(&Message::Ping { nonce: 1 })).expect("ping");
    match host.events().recv_timeout(TIMEOUT).expect("ping event") {
        NetEvent::Message(c, Message::Ping { nonce: 1 }) if c == id => {}
        other => panic!("expected the ping, got {other:?}"),
    }
}

/// 32 connected clients add no thread: a client does its I/O on the
/// threads that call it. A reader and a writer per client added 64, and
/// a process-wide writing pool one. Counted among the transport's
/// threads (named `cosoft-…`), as the test harness starts and ends its
/// own.
#[test]
fn connected_clients_add_no_thread() {
    let _serial = serial();
    let transport = || threads().iter().filter(|(_, comm)| comm.starts_with("cosoft-")).count();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    thread_named("cosoft-poll-0");
    thread_named("cosoft-accept");
    let before = transport();
    let clients: Vec<TcpClient> =
        (0..32).map(|_| TcpClient::connect(host.local_addr()).expect("connect")).collect();
    let mut conns = Vec::new();
    for _ in &clients {
        match host.events().recv_timeout(TIMEOUT).expect("accept") {
            NetEvent::Connected(id) => conns.push(id),
            other => panic!("expected Connected, got {other:?}"),
        }
    }
    let added = transport() - before;
    assert_eq!(added, 0, "32 clients added {added} threads");
    // And each is served: a frame to every connection reaches its client.
    let frame = SharedFrame::from_message(&Message::Pong { nonce: 9 });
    let batch: Vec<(ConnId, SharedFrame)> = conns.iter().map(|&id| (id, frame.clone())).collect();
    assert!(host.send_batch(&batch).is_empty());
    for client in &clients {
        assert!(matches!(client.recv_timeout(TIMEOUT), Some(Message::Pong { nonce: 9 })));
    }
}

/// The id of the host connection `client` just opened.
fn accepted(host: &TcpHost) -> ConnId {
    match host.events().recv_timeout(TIMEOUT).expect("accept") {
        NetEvent::Connected(id) => id,
        other => panic!("expected Connected, got {other:?}"),
    }
}

/// A client silent past `COLD_AFTER` hears a push at once: its receive
/// sleeps in the socket's read, and nothing probes the socket on a
/// schedule. Of five pushes, each after `COOL_DOWN` of silence, the
/// median arrives within 1 ms; a client probed every `COLD_PROBE` waits
/// 4 ms on average.
#[test]
fn an_idle_client_hears_a_push_at_once() {
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let client = TcpClient::connect(host.local_addr()).expect("connect");
    let id = accepted(&host);
    let mut delays: Vec<Duration> = (0..5)
        .map(|nonce| {
            std::thread::scope(|s| {
                let heard = s.spawn(|| (client.recv_within(TIMEOUT), Instant::now()));
                std::thread::sleep(COOL_DOWN);
                let sent = Instant::now();
                host.send(id, &Message::Pong { nonce }).expect("pong");
                let (msg, at) = heard.join().expect("receiver");
                assert_eq!(msg, Ok(Message::Pong { nonce }));
                at.saturating_duration_since(sent)
            })
        })
        .collect();
    delays.sort();
    assert!(delays[2] <= Duration::from_millis(1), "push to an idle client took {delays:?}");
}

/// An idle connected client, its receive waiting, wakes no thread: over
/// 500 ms the receiving thread runs at most 5 times and spends at most
/// 50 ms on a CPU (one that probed the socket every `COLD_PROBE` ran
/// about 60 times, and one that spun kept a CPU), and the client has no
/// thread of its own (`connected_clients_add_no_thread`). A send
/// afterwards still goes out, written by the sending thread.
#[test]
fn an_idle_client_wakes_no_thread() {
    let _serial = serial();
    let host = TcpHost::bind("127.0.0.1:0").expect("bind");
    let client = TcpClient::connect(host.local_addr()).expect("connect");
    let id = accepted(&host);
    std::thread::scope(|s| {
        let receiver = std::thread::Builder::new()
            .name("idle-receiver".into())
            .spawn_scoped(s, || client.recv_within(TIMEOUT))
            .expect("spawn");
        let receiving = thread_named("idle-receiver");
        std::thread::sleep(COOL_DOWN);
        let (ran, busy) = idle_cost(&receiving, Duration::from_millis(500));
        assert!(
            ran <= 5 && busy <= Duration::from_millis(50),
            "the receiver ran {ran} times in 500 ms, {busy:?} of it on a CPU"
        );

        client.send(&Message::Ping { nonce: 2 }).expect("ping");
        match host.events().recv_timeout(TIMEOUT).expect("ping event") {
            NetEvent::Message(c, Message::Ping { nonce: 2 }) if c == id => {}
            other => panic!("expected the ping, got {other:?}"),
        }
        host.send(id, &Message::Pong { nonce: 2 }).expect("pong");
        assert_eq!(receiver.join().expect("receiver"), Ok(Message::Pong { nonce: 2 }));
    });
}

/// An idle server's dispatch turn runs on its poll thread, which parks
/// until the liveness tick (1 s with liveness off): over 500 ms the
/// thread runs at most 5 times and spends at most 50 ms on a CPU. One
/// that woke on a short timer runs hundreds of times; one that spun
/// keeps a CPU nearly the whole time, in few runs.
#[test]
fn an_idle_server_runs_its_dispatch_thread_only_at_its_tick() {
    let _serial = serial();
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let tid = thread_named("cosoft-poll-0");
    // Past the thread's start.
    std::thread::sleep(Duration::from_millis(50));
    let (ran, busy) = idle_cost(&tid, Duration::from_millis(500));
    assert!(
        ran <= 5 && busy <= Duration::from_millis(50),
        "an idle server's poll thread ran {ran} times in 500 ms, {busy:?} of it on a CPU"
    );
    drop(server);
}

/// A server's threads are its host's: `io_threads` poll threads (the
/// first runs the dispatch turn) and one accept thread, and no thread
/// of its own.
#[test]
fn a_server_runs_its_poll_threads_and_one_accept_thread() {
    let _serial = serial();
    let config = TcpHostConfig { io_threads: 2, ..TcpHostConfig::default() };
    let server = TcpServer::spawn_with_config("127.0.0.1:0", config).expect("bind");
    for name in ["cosoft-poll-0", "cosoft-poll-1", "cosoft-accept"] {
        thread_named(name);
    }
    let mut names: Vec<String> = threads()
        .into_iter()
        .map(|(_, comm)| comm)
        .filter(|comm| comm.starts_with("cosoft-"))
        .collect();
    names.sort();
    assert_eq!(names, ["cosoft-accept", "cosoft-poll-0", "cosoft-poll-1"]);
    drop(server);
}

/// 300 events at once, past a turn's budget of 256: what the first turn
/// leaves is handled at once, not after the next mail or the 1 s tick.
/// One raw client registers, writes 300 `Ping`s in one write and reads
/// all 300 `Pong`s back within 200 ms.
#[test]
fn a_burst_past_the_turn_budget_is_answered_without_waiting_for_the_tick() {
    const PINGS: u64 = 300;
    let _serial = serial();
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    let mut client = BufReader::new(stream);
    let register =
        Message::Register { user: UserId(1), host: "burst".into(), app_name: "t".into() };
    client.get_mut().write_all(&codec::frame_message(&register)).expect("register");
    while !matches!(codec::read_frame(&mut client).expect("read"), Some(Message::Welcome { .. })) {}

    let burst: Vec<u8> =
        (0..PINGS).flat_map(|nonce| codec::frame_message(&Message::Ping { nonce })).collect();
    let sent = Instant::now();
    client.get_mut().write_all(&burst).expect("burst");
    let mut next = 0;
    while next < PINGS {
        match codec::read_frame(&mut client).expect("read pong") {
            Some(Message::Pong { nonce }) if nonce == next => next += 1,
            other => panic!("expected pong {next}, got {other:?}"),
        }
    }
    let took = sent.elapsed();
    assert!(took <= Duration::from_millis(200), "{PINGS} pings took {took:?} to answer");
}
