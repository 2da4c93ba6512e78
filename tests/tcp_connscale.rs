//! Connection-scale gate for the readiness-driven TCP host: ≥1k
//! concurrent connections — register, couple into groups, one fan-out
//! round, teardown — served by a fixed 2-thread poll pool.
//!
//! Clients are raw `std::net::TcpStream`s speaking the wire protocol
//! directly (no `TcpClient`, which would add 2 OS threads per client and
//! turn the test into a thread-scale test of the *clients*). The host
//! side is the full runtime stack (`TcpServer` → `ShardRouter` →
//! `ServerCore`). The fd budget is ~2 per connection; the test checks
//! `ulimit -n` up front and fails with a pointer at the limit rather
//! than drowning in `EMFILE`.
//!
//! Tier-1 runs this in a debug build with the rest; `scripts/check.sh`
//! runs it again with `--release`, the build the gate is about.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cosoft::net::TcpHostConfig;
use cosoft::runtime::TcpServer;
use cosoft::wire::{codec, GlobalObjectId, InstanceId, Message, ObjectPath, Target, UserId};

/// Concurrent connections the gate drives (the acceptance floor is 1k).
const CONNS: usize = 1024;

/// Members per couple group.
const GROUP_SIZE: usize = 4;

const TIMEOUT: Duration = Duration::from_secs(20);

/// Polls until `ok()` holds — the runtime publishes stats
/// asynchronously (periodic tick + on-change), so instant assertions
/// on them would race the publisher.
fn wait_for(what: &str, ok: impl Fn() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Soft `RLIMIT_NOFILE`, from /proc (the test has no libc access).
fn max_open_files() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Connects with a few retries: a 1k burst can transiently overrun the
/// listener backlog on slow machines.
fn connect_retrying(addr: std::net::SocketAddr) -> TcpStream {
    let mut last_err = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("could not connect to host: {last_err:?}");
}

/// Reads frames until one matches `pick`, skimming everything else
/// (`SessionToken`, `CoupleUpdate` chatter, ...).
fn read_until<T>(
    reader: &mut BufReader<TcpStream>,
    what: &str,
    pick: impl Fn(Message) -> Option<T>,
) -> T {
    loop {
        match codec::read_frame(reader) {
            Ok(Some(msg)) => {
                if let Some(v) = pick(msg) {
                    return v;
                }
            }
            Ok(None) => panic!("connection closed while waiting for {what}"),
            Err(e) => panic!("read failed while waiting for {what}: {e}"),
        }
    }
}

#[test]
fn one_thousand_connections_register_couple_fanout_teardown() {
    if let Some(limit) = max_open_files() {
        let needed = CONNS * 2 + 512;
        assert!(
            limit >= needed,
            "this gate needs ~{needed} fds for {CONNS} connections but `ulimit -n` is {limit}; \
             raise it (CI does `ulimit -n 16384`)"
        );
    }

    // Generous queues and a 2-thread pool: the point is connection
    // *count* on fixed threads, not slow-consumer policy.
    let config = TcpHostConfig {
        queue_capacity: 4096,
        queue_max_bytes: 64 * 1024 * 1024,
        enqueue_timeout: Duration::from_secs(10),
        io_threads: 2,
        ..TcpHostConfig::default()
    };
    let server = TcpServer::spawn_with_config("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    // Phase 1: connect + pipeline every Register before reading any
    // reply, then collect the Welcomes.
    let mut clients: Vec<BufReader<TcpStream>> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = connect_retrying(addr);
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.set_nodelay(true).ok();
        let frame = codec::frame_message(&Message::Register {
            user: UserId(i as u64 + 1),
            host: format!("scale-{i}"),
            app_name: "connscale".into(),
        });
        (&stream).write_all(&frame).expect("write Register");
        clients.push(BufReader::new(stream));
    }
    let mut instances: Vec<InstanceId> = Vec::with_capacity(CONNS);
    for reader in &mut clients {
        instances.push(read_until(reader, "Welcome", |m| match m {
            Message::Welcome { instance } => Some(instance),
            _ => None,
        }));
    }
    wait_for("all connections active", || server.net_stats().active_connections == CONNS);
    wait_for("all instances registered", || server.server_stats().registered_instances == CONNS);

    // Phase 2: chain-couple groups of GROUP_SIZE neighbours (same shape
    // as the shard bench population: the transitive closure makes each
    // chain one component). Every couple for a group is written from the
    // *group leader's* connection — the same one that later sends the
    // fan-out — because the server only orders frames within one
    // connection; couples written by other members could race the send.
    let path = ObjectPath::parse("obj").expect("static path parses");
    let gid = |inst: InstanceId| GlobalObjectId::new(inst, path.clone());
    for group_start in (0..CONNS).step_by(GROUP_SIZE) {
        for m in group_start..group_start + GROUP_SIZE - 1 {
            let frame = codec::frame_message(&Message::Couple {
                src: gid(instances[m]),
                dst: gid(instances[m + 1]),
            });
            clients[group_start].get_ref().write_all(&frame).expect("write Couple");
        }
    }

    // Phase 3: one fan-out round — group member 0 CoSends to the group,
    // every other member must receive exactly that CommandDelivery.
    for group_start in (0..CONNS).step_by(GROUP_SIZE) {
        let frame = codec::frame_message(&Message::CoSendCommand {
            to: Target::Group(gid(instances[group_start])),
            command: "connscale-round".into(),
            payload: vec![0xC5; 32],
        });
        clients[group_start].get_ref().write_all(&frame).expect("write CoSendCommand");
    }
    let mut delivered = 0usize;
    for group_start in (0..CONNS).step_by(GROUP_SIZE) {
        for follower in clients[group_start + 1..group_start + GROUP_SIZE].iter_mut() {
            let (from, command) = read_until(follower, "CommandDelivery", |m| match m {
                Message::CommandDelivery { from, command, .. } => Some((from, command)),
                _ => None,
            });
            assert_eq!(from, instances[group_start], "delivery from the wrong sender");
            assert_eq!(command, "connscale-round");
            delivered += 1;
        }
    }
    assert_eq!(delivered, CONNS / GROUP_SIZE * (GROUP_SIZE - 1));
    wait_for("all connections still active", || server.net_stats().active_connections == CONNS);
    assert_eq!(server.net_stats().slow_consumer_evictions, 0, "healthy readers were evicted");

    // Phase 4: teardown. Dropping every socket must drain to zero
    // connections and zero registered instances (grace 0 ⇒ disconnect
    // deregisters immediately).
    drop(clients);
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let active = server.net_stats().active_connections;
        let registered = server.server_stats().registered_instances;
        if active == 0 && registered == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "teardown incomplete: {active} connections / {registered} instances still live"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
