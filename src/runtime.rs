//! TCP runtime: glue that runs the sans-I/O server core and client
//! sessions over real sockets (`cosoft-net`'s TCP transport).
//!
//! The deterministic simulation ([`cosoft_core::harness::SimHarness`]) is
//! the primary habitat for tests and benchmarks; this module exists so
//! the very same cores also run distributed across processes/threads —
//! see `examples/tcp_demo.rs` and the `tcp_end_to_end` integration test.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cosoft_core::session::Session;
use cosoft_net::queue::RecvTimeoutError;
use cosoft_net::tcp::{
    ClientEvent, ConnId, NetEvent, ReconnectPolicy, RecvError, TcpClient, TcpHost, TcpHostConfig,
    TcpStats, TcpStatsHandle,
};
use cosoft_server::{
    LivenessConfig, Outgoing, OverloadConfig, RouterStats, ServerStats, ShardRouter,
};

/// A COSOFT server listening on TCP.
///
/// The accept/dispatch loop runs on a background thread until the value
/// is dropped. Outbound delivery goes through the transport's
/// per-connection writer queues, so one stalled client never delays the
/// dispatch loop or its peers; consumers evicted by the slow-consumer
/// policy surface as disconnects and take the §3.2 auto-decoupling path.
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Mutex<(ServerStats, RouterStats)>>,
    net_stats: TcpStatsHandle,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer").field("addr", &self.addr).finish()
    }
}

impl TcpServer {
    /// Binds and starts serving (use `127.0.0.1:0` for an ephemeral
    /// port) with the default transport configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(addr: &str) -> io::Result<TcpServer> {
        TcpServer::spawn_with_config(addr, TcpHostConfig::default())
    }

    /// Binds and starts serving with an explicit outbound-queue and
    /// slow-consumer configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_with_config(addr: &str, config: TcpHostConfig) -> io::Result<TcpServer> {
        TcpServer::spawn_with_liveness(addr, config, LivenessConfig::default())
    }

    /// Binds and starts serving with a client-liveness policy: silently
    /// dropped connections are quarantined for `liveness.grace_us`
    /// microseconds (their instance id, couples, and access rights held
    /// for a `Rejoin`) before the §3.2 auto-decoupling deregistration
    /// runs.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_with_liveness(
        addr: &str,
        config: TcpHostConfig,
        liveness: LivenessConfig,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_with_overload(addr, config, liveness, 1, OverloadConfig::default())
    }

    /// Binds and starts serving with the server brain split into
    /// `shards` [`cosoft_server::ServerCore`]s keyed by couple-component,
    /// behind a [`ShardRouter`], and with per-endpoint admission control.
    /// Disjoint components never contend on a shared lock table or
    /// history store; a cross-shard `Couple` runs the router's two-phase
    /// component handoff transparently; with `shards == 1` this is exactly
    /// the classic single-core server. Each shard core enforces
    /// `overload`'s per-class message budgets and the global byte budget,
    /// answering excess traffic with `Busy { retry_after_ms }` and
    /// escalating sustained abuse to the §3.2 auto-decoupling eviction;
    /// the default [`OverloadConfig`] is fully open (no budgets).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_with_overload(
        addr: &str,
        config: TcpHostConfig,
        liveness: LivenessConfig,
        shards: usize,
        overload: OverloadConfig,
    ) -> io::Result<TcpServer> {
        let host = TcpHost::bind_with_config(addr, config)?;
        let local = host.local_addr();
        let net_stats = host.stats_handle();
        let stats = Arc::new(Mutex::new((ServerStats::default(), RouterStats::default())));
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let published = stats.clone();
        // The dispatch loop is event-driven: the transport's poll
        // threads push into the event channel and the recv below wakes
        // immediately. The timeout is only a liveness *tick* — it must
        // fire often enough for quarantine grace / idle deadlines to
        // expire without traffic (a quarter of the shortest deadline),
        // and otherwise just paces the once-a-second stats heartbeat.
        // Shutdown does not wait for it either: `Drop` wakes the loop
        // with a dummy connection.
        let tick = {
            let mut t = Duration::from_secs(1);
            for us in [liveness.grace_us, liveness.idle_timeout_us] {
                if us > 0 {
                    t = t.min(Duration::from_micros(us / 4).max(Duration::from_millis(5)));
                }
            }
            t
        };
        let thread = std::thread::Builder::new().name("cosoft-server".into()).spawn(move || {
            let mut router: ShardRouter<ConnId> = ShardRouter::with_liveness(shards, liveness);
            router.set_overload(overload);
            let start = Instant::now();
            let mut last_published = (router.stats(), router.router_stats());
            let mut published_at = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                let first = match host.events().recv_timeout(tick) {
                    Ok(e) => Some(e),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                // Drain every already-ready event before writing
                // anything: one wakeup becomes one coalesced batch per
                // destination instead of a write per event. The cap
                // bounds how long a firehose can defer the first reply.
                let mut outgoing = Outgoing::new();
                let mut next = first;
                let mut budget = 256usize;
                while let Some(event) = next {
                    match event {
                        NetEvent::Connected(_) => {}
                        NetEvent::Message(conn, msg) => outgoing.extend(router.handle(conn, msg)),
                        NetEvent::Disconnected(conn) => outgoing.extend(router.disconnect(conn)),
                    }
                    budget -= 1;
                    if budget == 0 {
                        break;
                    }
                    next = host.events().try_recv().ok();
                }
                // Advance the liveness clock even on idle timeouts so
                // quarantine grace periods expire without traffic.
                outgoing.extend(router.tick(start.elapsed().as_micros() as u64));
                // One coalesced write per destination; broadcast frames
                // stay pre-encoded all the way down. Failures mean the
                // peer vanished or was evicted as a slow consumer — its
                // Disconnected event will clean up.
                let _ = host.send_batch(&outgoing.into_frames());
                // Publish after a change, but also at least once a
                // second: pure publish-on-change left snapshot readers
                // staring at stale counters whenever the last handled
                // event raced a snapshot, and on idle streaks after a
                // burst.
                let current = (router.stats(), router.router_stats());
                let stale = published_at.elapsed() >= Duration::from_secs(1);
                if current != last_published || stale {
                    if let Ok(mut s) = published.lock() {
                        *s = current;
                    }
                    last_published = current;
                    published_at = Instant::now();
                }
            }
            // Final forced publish: without it, counters from the last
            // dispatch turn before shutdown were silently dropped.
            if let Ok(mut s) = published.lock() {
                *s = (router.stats(), router.router_stats());
            }
        })?;
        Ok(TcpServer { addr: local, shutdown, stats, net_stats, thread: Some(thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server core's observability counters (floor
    /// control, fan-out, transfer liveness), summed across shards and
    /// re-published at least once a second and on shutdown.
    pub fn server_stats(&self) -> ServerStats {
        self.stats.lock().map(|s| s.0).unwrap_or_default()
    }

    /// Snapshot of the shard router's counters (handoffs, cross-shard
    /// commands, rebalances). All zero on a single-shard server.
    pub fn router_stats(&self) -> RouterStats {
        self.stats.lock().map(|s| s.1).unwrap_or_default()
    }

    /// Snapshot of the transport counters (bytes/frames in and out,
    /// queue depths, slow-consumer evictions).
    pub fn net_stats(&self) -> TcpStats {
        self.net_stats.snapshot()
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the dispatch loop right away instead of letting shutdown
        // wait out the liveness tick: a dummy connection surfaces as a
        // Connected event (handled as a no-op) and the loop re-checks
        // the flag. Wildcard binds are not reliably connectable, so aim
        // at the loopback of the same family.
        let wake_ip = if self.addr.ip().is_unspecified() {
            match self.addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            }
        } else {
            self.addr.ip()
        };
        let wake_addr = SocketAddr::new(wake_ip, self.addr.port());
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_millis(100));
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

/// A client session bound to a TCP connection.
///
/// Wraps a [`Session`] and pumps its outbox/inbox over the socket.
pub struct TcpSession {
    session: Session,
    client: TcpClient,
}

impl std::fmt::Debug for TcpSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSession").field("session", &self.session).finish()
    }
}

impl TcpSession {
    /// Connects a session to a server and pumps until registration
    /// completes.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; times out with `TimedOut` if the
    /// server does not answer the registration within 5 seconds.
    pub fn connect(addr: SocketAddr, session: Session) -> io::Result<TcpSession> {
        TcpSession::finish_connect(TcpClient::connect(addr)?, session)
    }

    /// Like [`TcpSession::connect`], but the underlying client redials
    /// with exponential backoff when the connection drops. On each
    /// successful reconnect the session automatically begins its rejoin
    /// (resume token, couple re-assertion, `CopyFrom` resync) during the
    /// next pump.
    ///
    /// # Errors
    ///
    /// Propagates failures of the initial connection and registration.
    pub fn connect_with_reconnect(
        addr: SocketAddr,
        session: Session,
        policy: ReconnectPolicy,
    ) -> io::Result<TcpSession> {
        TcpSession::finish_connect(TcpClient::connect_with_reconnect(addr, policy)?, session)
    }

    fn finish_connect(client: TcpClient, session: Session) -> io::Result<TcpSession> {
        let mut s = TcpSession { session, client };
        s.flush()?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while s.session.instance().is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "registration timed out"));
            }
            s.pump_for(Duration::from_millis(20))?;
        }
        Ok(s)
    }

    /// The wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying transport client (reconnect counters live here).
    pub fn client(&self) -> &TcpClient {
        &self.client
    }

    /// Mutable access to the wrapped session. Call [`TcpSession::flush`]
    /// (or any pump) afterwards to push queued protocol messages out.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Sends everything queued in the session's outbox.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn flush(&mut self) -> io::Result<()> {
        for msg in self.session.drain_outbox() {
            self.client.send(&msg)?;
        }
        Ok(())
    }

    /// Reacts to transport lifecycle events (reconnect-enabled clients
    /// only): a completed reconnect starts the session's rejoin.
    fn drain_client_events(&mut self) {
        let Some(events) = self.client.events() else {
            return;
        };
        let mut pending = Vec::new();
        while let Ok(event) = events.try_recv() {
            pending.push(event);
        }
        for event in pending {
            if let ClientEvent::Reconnected { .. } = event {
                self.session.begin_rejoin();
            }
        }
    }

    /// Flushes the outbox, tolerating send failures when the client can
    /// reconnect: messages written into a dead connection are lost with
    /// it (the rejoin resync regenerates what matters), so a redial in
    /// progress must not abort the pump.
    fn flush_for_pump(&mut self) -> io::Result<()> {
        if self.client.events().is_none() {
            return self.flush();
        }
        for msg in self.session.drain_outbox() {
            if self.client.send(&msg).is_err() {
                break;
            }
        }
        Ok(())
    }

    /// Pumps incoming messages (and resulting outbox traffic) for at
    /// least `window`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn pump_for(&mut self, window: Duration) -> io::Result<()> {
        self.drain_client_events();
        self.flush_for_pump()?;
        let deadline = Instant::now() + window;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(());
            }
            match self.client.recv_within(deadline - now) {
                Ok(msg) => {
                    self.session.on_message(msg);
                    self.drain_client_events();
                    self.flush_for_pump()?;
                }
                Err(RecvError::Timeout) => {
                    // Quiet but alive: check for lifecycle transitions
                    // so a rejoin starts promptly.
                    self.drain_client_events();
                    self.flush_for_pump()?;
                }
                Err(RecvError::Disconnected) => {
                    // Gone for good (closed, or the reconnect loop gave
                    // up): nothing will ever arrive again. Drain the
                    // last lifecycle events and sit out the remainder of
                    // the window instead of hot-spinning on the dead
                    // receiver, which is what the collapsed recv_timeout
                    // used to force here.
                    self.drain_client_events();
                    self.flush_for_pump()?;
                    let now = Instant::now();
                    if now < deadline {
                        std::thread::sleep(deadline - now);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Pumps until `predicate` holds on the session or `timeout` elapses.
    /// Returns whether the predicate held.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn pump_until<F>(&mut self, timeout: Duration, mut predicate: F) -> io::Result<bool>
    where
        F: FnMut(&Session) -> bool,
    {
        let deadline = Instant::now() + timeout;
        loop {
            if predicate(&self.session) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            self.pump_for(Duration::from_millis(10))?;
        }
    }

    /// Gracefully leaves the session and closes the socket.
    ///
    /// Deterministic handshake, no timing guesswork: `flush` enqueues
    /// the session's goodbye (`Deregister`), and [`TcpClient::close`]
    /// waits — on the writer thread's flush signal, not a sleep — until
    /// those frames reached the socket before shutting it down.
    pub fn close(mut self) {
        self.session.leave();
        let _ = self.flush();
        self.client.close();
    }
}
