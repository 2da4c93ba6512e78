//! The same coupling stack over real TCP sockets: a server (its host's
//! poll thread runs the dispatch turn) plus two client sessions,
//! coupling a text field end-to-end — then a simulated network failure
//! under one client, which redials, rejoins under its resume token, and
//! reconverges.
//!
//! Run with `cargo run --example tcp_demo`.

use std::time::Duration;

use cosoft::core::session::Session;
use cosoft::net::tcp::{ReconnectPolicy, TcpHostConfig};
use cosoft::runtime::{TcpServer, TcpSession};
use cosoft::server::LivenessConfig;
use cosoft::uikit::{spec, Toolkit};
use cosoft::wire::{AttrName, EventKind, ObjectPath, UiEvent, UserId, Value};

fn field_text(s: &Session, path: &ObjectPath) -> String {
    let tree = s.toolkit().tree();
    let id = tree.resolve(path).expect("widget exists");
    tree.attr(id, &AttrName::Text).expect("text attribute").to_string()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10s quarantine grace period keeps a dropped client's instance
    // id, couples, and access rights resumable while it redials.
    let server = TcpServer::spawn_with_liveness(
        "127.0.0.1:0",
        TcpHostConfig::default(),
        LivenessConfig { grace_us: 10_000_000, idle_timeout_us: 0, max_quarantined: 0 },
    )?;
    println!("server listening on {}", server.addr());

    let form = r#"form pad { textfield line text="" }"#;
    let make = |user, host: &str| {
        Session::new(
            Toolkit::from_tree(spec::build_tree(form).expect("static spec")),
            UserId(user),
            host,
            "tcp-demo",
        )
    };
    let mut alice = TcpSession::connect(server.addr(), make(1, "alice"))?;
    let mut bob = TcpSession::connect_with_reconnect(
        server.addr(),
        make(2, "bob"),
        ReconnectPolicy::default(),
    )?;
    println!(
        "registered over TCP: alice={:?} bob={:?}",
        alice.session().instance(),
        bob.session().instance()
    );

    // Couple alice's field to bob's.
    let path = ObjectPath::parse("pad.line")?;
    let bobs = bob.session().gid(&path)?;
    alice.session_mut().couple(&path, bobs)?;
    alice.pump_until(Duration::from_secs(5), |s| {
        s.is_coupled(&ObjectPath::parse("pad.line").expect("ok"))
    })?;
    bob.pump_until(Duration::from_secs(5), |s| {
        s.is_coupled(&ObjectPath::parse("pad.line").expect("ok"))
    })?;
    println!("coupled over TCP");

    // Alice types; the event crosses real sockets and re-executes at bob.
    alice.session_mut().user_event(UiEvent::new(
        path.clone(),
        EventKind::TextCommitted,
        vec![Value::Text("hello over tcp".into())],
    ))?;
    alice.flush()?;
    let synced = {
        let p = path.clone();
        bob.pump_until(Duration::from_secs(5), move |s| {
            let tree = s.toolkit().tree();
            tree.resolve(&p)
                .and_then(|id| tree.attr(id, &AttrName::Text).ok())
                .map(|v| v.as_text() == Some("hello over tcp"))
                .unwrap_or(false)
        })?
    };
    // Let alice finish her half of the floor-control round.
    alice.pump_for(Duration::from_millis(100))?;
    println!("synchronized: {synced}");
    println!("alice sees: {}", field_text(alice.session(), &path));
    println!("bob sees:   {}", field_text(bob.session(), &path));

    // The network fails under bob; alice keeps editing meanwhile. Bob's
    // client redials, rejoins under its resume token, and the session
    // pulls the missed state with a CopyFrom resync.
    let bob_instance = bob.session().instance();
    bob.client().sever();
    alice.session_mut().user_event(UiEvent::new(
        path.clone(),
        EventKind::TextCommitted,
        vec![Value::Text("edited while bob was gone".into())],
    ))?;
    alice.flush()?;
    let recovered = {
        let p = path.clone();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut ok = false;
        while std::time::Instant::now() < deadline && !ok {
            alice.pump_for(Duration::from_millis(50))?;
            bob.pump_for(Duration::from_millis(50))?;
            let tree = bob.session().toolkit().tree();
            ok = tree
                .resolve(&p)
                .and_then(|id| tree.attr(id, &AttrName::Text).ok())
                .map(|v| v.as_text() == Some("edited while bob was gone"))
                .unwrap_or(false);
        }
        ok
    };
    println!(
        "reconnected: {recovered} (same instance: {}, {} redial(s))",
        bob.session().instance() == bob_instance,
        bob.client().reconnects()
    );

    alice.close();
    bob.close();

    // Observability: what the round cost at both layers.
    let core = server.server_stats();
    println!(
        "server core: {} granted / {} rejected, {} messages out (max fan-out {}), \
         {} transfers completed",
        core.events_granted,
        core.events_rejected,
        core.messages_out,
        core.max_fanout,
        core.transfers_completed
    );
    println!(
        "liveness:    {} quarantine(s), {} resume(s), {} ping(s) answered, \
         {} expiries",
        core.quarantines, core.resumes, core.pings, core.quarantine_expiries
    );
    let net = server.net_stats();
    println!(
        "transport:   {} frames / {} bytes out, {} frames / {} bytes in, \
         {} coalesced writes, {} slow-consumer evictions",
        net.frames_out,
        net.bytes_out,
        net.frames_in,
        net.bytes_in,
        net.coalesced_writes,
        net.slow_consumer_evictions
    );
    Ok(())
}
