//! End-to-end tests over real TCP sockets: the same server/session cores
//! that run on the simulated network, here distributed across threads —
//! and one script run through both, which must deliver the same messages
//! to every client.

use std::time::{Duration, Instant};

use cosoft::core::harness::SimHarness;
use cosoft::core::session::Session;
use cosoft::net::sim::NodeId;
use cosoft::net::tcp::TcpHostConfig;
use cosoft::net::TcpClient;
use cosoft::runtime::{TcpServer, TcpSession};
use cosoft::server::{LivenessConfig, OverloadConfig, ShardRouter};
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{
    AttrName, CopyMode, EventKind, GlobalObjectId, Message, ObjectPath, UiEvent, UserId, Value,
};

const FORM: &str = r#"form pad { textfield line text="" canvas board }"#;
const TIMEOUT: Duration = Duration::from_secs(10);

fn make_session(user: u64) -> Session {
    Session::new(
        Toolkit::from_tree(spec::build_tree(FORM).expect("static spec")),
        UserId(user),
        &format!("host{user}"),
        "tcp-test",
    )
}

fn text_of(s: &Session, p: &ObjectPath) -> Option<String> {
    let tree = s.toolkit().tree();
    let id = tree.resolve(p)?;
    tree.attr(id, &AttrName::Text).ok().and_then(|v| v.as_text().map(str::to_owned))
}

#[test]
fn couple_and_sync_over_tcp() {
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let mut a = TcpSession::connect(server.addr(), make_session(1)).expect("connect a");
    let mut b = TcpSession::connect(server.addr(), make_session(2)).expect("connect b");
    assert!(a.session().instance().is_some());
    assert!(b.session().instance().is_some());

    let line = ObjectPath::parse("pad.line").expect("static");
    let remote = b.session().gid(&line).expect("registered");
    a.session_mut().couple(&line, remote).expect("registered");
    let p = line.clone();
    assert!(a.pump_until(TIMEOUT, move |s| s.is_coupled(&p)).expect("pump"));
    let p = line.clone();
    assert!(b.pump_until(TIMEOUT, move |s| s.is_coupled(&p)).expect("pump"));

    // Event replication across real sockets.
    a.session_mut()
        .user_event(UiEvent::new(
            line.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("over tcp".into())],
        ))
        .expect("valid event");
    a.flush().expect("flush");
    let p = line.clone();
    assert!(b
        .pump_until(TIMEOUT, move |s| text_of(s, &p).as_deref() == Some("over tcp"))
        .expect("pump"));
    // Complete the floor-control round so the lock releases.
    a.pump_for(Duration::from_millis(200)).expect("pump");
    b.pump_for(Duration::from_millis(100)).expect("pump");

    // Both ends settled and re-enabled.
    let id = a.session().toolkit().tree().resolve(&line).expect("widget");
    assert!(a.session().toolkit().tree().widget(id).expect("widget").is_interactable());

    a.close();
    b.close();
}

#[test]
fn state_copy_over_tcp() {
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let mut a = TcpSession::connect(server.addr(), make_session(1)).expect("connect a");
    let mut b = TcpSession::connect(server.addr(), make_session(2)).expect("connect b");

    let line = ObjectPath::parse("pad.line").expect("static");
    // Fill b's field locally (uncoupled → no traffic).
    b.session_mut()
        .user_event(UiEvent::new(
            line.clone(),
            EventKind::TextCommitted,
            vec![Value::Text("pull me".into())],
        ))
        .expect("valid event");

    // a pulls it with CopyFrom.
    let src = b.session().gid(&line).expect("registered");
    a.session_mut().copy_from(src, &line, CopyMode::Strict).expect("registered");
    a.flush().expect("flush");
    // b must serve the StateRequest.
    b.pump_for(Duration::from_millis(300)).expect("pump");
    let p = line.clone();
    assert!(a
        .pump_until(TIMEOUT, move |s| text_of(s, &p).as_deref() == Some("pull me"))
        .expect("pump"));

    a.close();
    b.close();
}

#[test]
fn crash_over_tcp_auto_decouples() {
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");
    let mut a = TcpSession::connect(server.addr(), make_session(1)).expect("connect a");
    let b = TcpSession::connect(server.addr(), make_session(2)).expect("connect b");

    let line = ObjectPath::parse("pad.line").expect("static");
    let remote = b.session().gid(&line).expect("registered");
    a.session_mut().couple(&line, remote).expect("registered");
    let p = line.clone();
    assert!(a.pump_until(TIMEOUT, move |s| s.is_coupled(&p)).expect("pump"));

    // b vanishes without a goodbye; the server must decouple a.
    drop(b);
    let p = line.clone();
    assert!(a.pump_until(TIMEOUT, move |s| !s.is_coupled(&p)).expect("pump"));

    a.close();
}

#[test]
fn server_survives_garbage_bytes() {
    use std::io::Write;
    let server = TcpServer::spawn("127.0.0.1:0").expect("bind");

    // A hostile/broken client sends garbage framing.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&[0xff; 64]).expect("write garbage");
    drop(raw);

    // A well-behaved client still works afterwards.
    let a = TcpSession::connect(server.addr(), make_session(1)).expect("connect after garbage");
    assert!(a.session().instance().is_some());
    a.close();
}

/// One step of the script both deployments run; clients are indices in
/// join order.
#[derive(Debug, Clone, Copy)]
enum Act {
    Join,
    Couple(usize, usize),
    Type(usize),
    CopyTo(usize, usize),
    Undo(usize),
    Drop(usize),
}

const SCRIPT: [Act; 8] = [
    Act::Join,
    Act::Join,
    Act::Join,
    Act::Couple(0, 1),
    Act::Type(0),
    Act::CopyTo(0, 2),
    Act::Undo(2),
    Act::Drop(2),
];

fn line() -> ObjectPath {
    ObjectPath::parse("pad.line").expect("static")
}

/// Queues `act`'s protocol traffic on the acting client's session;
/// `target` is the other client's field where the act names one.
fn perform(act: Act, actor: &mut Session, target: Option<GlobalObjectId>) {
    let target = || target.clone().expect("act names a target");
    match act {
        Act::Couple(..) => actor.couple(&line(), target()).expect("registered"),
        Act::Type(_) => actor
            .user_event(UiEvent::new(
                line(),
                EventKind::TextCommitted,
                vec![Value::Text("x".into())],
            ))
            .expect("valid event"),
        Act::CopyTo(..) => {
            actor.copy_to(&line(), target(), CopyMode::Strict).expect("registered");
        }
        Act::Undo(_) => actor.undo(actor.gid(&line()).expect("registered")),
        Act::Join | Act::Drop(_) => {}
    }
}

/// The acting client of a step and the client its target field is on.
fn parties(act: Act) -> Option<(usize, Option<usize>)> {
    match act {
        Act::Couple(a, b) | Act::CopyTo(a, b) => Some((a, Some(b))),
        Act::Type(a) | Act::Undo(a) => Some((a, None)),
        Act::Join | Act::Drop(_) => None,
    }
}

/// Runs the script on the simulated network, returning what each client
/// received and, after each step, how many messages that was.
fn script_in_sim(shards: usize) -> (Vec<Vec<Message>>, Vec<Vec<usize>>) {
    let mut h = SimHarness::new(1);
    h.server = ShardRouter::new(shards);
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut log: Vec<Vec<Message>> = Vec::new();
    let mut counts = Vec::new();
    for act in SCRIPT {
        match (act, parties(act)) {
            (Act::Join, _) => {
                nodes.push(h.add_session(make_session(nodes.len() as u64 + 1)));
                log.push(Vec::new());
            }
            (Act::Drop(c), _) => h.disconnect(nodes[c]),
            (_, Some((a, b))) => {
                let target = b.map(|b| h.session(nodes[b]).gid(&line()).expect("registered"));
                perform(act, h.session_mut(nodes[a]), target);
            }
            (_, None) => {}
        }
        // `SimHarness::settle`, logging what each client receives.
        h.flush();
        while let Some(d) = h.step() {
            if let Some(i) = nodes.iter().position(|&n| n == d.dst) {
                log[i].push(d.msg);
            }
        }
        counts.push(log.iter().map(Vec::len).collect());
    }
    (log, counts)
}

/// A client over loopback: a session on a raw `TcpClient`, and every
/// message it received.
struct Peer {
    client: TcpClient,
    session: Session,
    log: Vec<Message>,
}

/// Flushes every peer's outbox and takes in whatever has arrived.
fn pump(peers: &mut [Peer]) {
    for p in peers.iter_mut() {
        loop {
            for msg in p.session.drain_outbox() {
                // A closed peer's sends fail; it has nothing to say.
                let _ = p.client.send(&msg);
            }
            let Some(msg) = p.client.try_recv() else { break };
            p.log.push(msg.clone());
            p.session.on_message(msg);
        }
    }
    std::thread::sleep(Duration::from_millis(1));
}

/// Runs the script against a `TcpServer` over loopback. Each step waits
/// until every client has received the simulation's count (5 s at most),
/// then must stay quiet for 200 ms.
fn script_over_tcp(shards: usize, counts: &[Vec<usize>]) -> Vec<Vec<Message>> {
    let server = TcpServer::spawn_with_overload(
        "127.0.0.1:0",
        TcpHostConfig::default(),
        LivenessConfig::default(),
        shards,
        OverloadConfig::default(),
    )
    .expect("bind");
    let mut peers: Vec<Peer> = Vec::new();
    for (act, want) in SCRIPT.into_iter().zip(counts) {
        match (act, parties(act)) {
            (Act::Join, _) => peers.push(Peer {
                client: TcpClient::connect(server.addr()).expect("connect"),
                session: make_session(peers.len() as u64 + 1),
                log: Vec::new(),
            }),
            (Act::Drop(c), _) => peers[c].client.close(),
            (_, Some((a, b))) => {
                let target = b.map(|b| peers[b].session.gid(&line()).expect("registered"));
                perform(act, &mut peers[a].session, target);
            }
            (_, None) => {}
        }
        let received = |peers: &[Peer]| peers.iter().map(|p| p.log.len()).collect::<Vec<_>>();
        let deadline = Instant::now() + Duration::from_secs(5);
        while received(&peers).iter().zip(want).any(|(got, want)| got < want) {
            assert!(Instant::now() < deadline, "{act:?}: {:?} of {want:?}", received(&peers));
            pump(&mut peers);
        }
        let quiet = Instant::now() + Duration::from_millis(200);
        while Instant::now() < quiet {
            pump(&mut peers);
        }
        assert_eq!(&received(&peers), want, "{act:?}: more than the simulation delivered");
    }
    peers.into_iter().map(|p| p.log).collect()
}

/// The simulation and the socket run one turn: the same script delivers
/// the same messages, in the same order, to every client, on one shard
/// and on two.
#[test]
fn sim_and_socket_deliver_alike() {
    for shards in [1, 2] {
        let (sim, counts) = script_in_sim(shards);
        assert!(sim.iter().all(|got| !got.is_empty()), "every client hears from the server");
        let tcp = script_over_tcp(shards, &counts);
        assert_eq!(sim, tcp, "{shards} shard(s)");
    }
}
