//! TCP runtime: runs the sans-I/O shard router and client sessions over
//! real sockets (`cosoft-net`'s TCP transport).
//!
//! The server has no thread of its own: its host's first poll thread runs
//! [`ShardRouter::turn`] at the end of each pass, on the events that pass
//! read, and writes the replies before it parks
//! ([`TcpHost::bind_with_turn`]). The deterministic simulation
//! ([`cosoft_core::harness::SimHarness`]) runs the same turn on its
//! virtual clock, so what tests check there is what a deployment runs
//! here — see `examples/tcp_demo.rs` and the `tcp_end_to_end`
//! integration test.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cosoft_core::session::Session;
use cosoft_net::tcp::{
    deadline, ClientEvent, ConnId, ReconnectPolicy, RecvError, TcpClient, TcpHost, TcpHostConfig,
    TcpStats,
};
use cosoft_server::{LivenessConfig, OverloadConfig, RouterStats, ServerStats, ShardRouter};

/// A COSOFT server listening on TCP.
///
/// The dispatch turn runs on the host's first poll thread until the value
/// is dropped; the server holds the host and no thread. Outbound delivery
/// goes through the transport's per-connection outboxes, and the turn
/// never waits on one, so one stalled client never delays the dispatch
/// turn or its peers; consumers evicted by the slow-consumer policy
/// surface as disconnects and take the §3.2 auto-decoupling path.
pub struct TcpServer {
    host: TcpHost,
    stats: Arc<Mutex<(ServerStats, RouterStats)>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer").field("addr", &self.addr()).finish()
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
    /// history store; a cross-shard `Couple` migrates the smaller
    /// component transparently; with `shards == 1` this is exactly
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
        let stats = Arc::new(Mutex::new((ServerStats::default(), RouterStats::default())));
        let published = stats.clone();
        // The turn runs whenever a pass brings events; the tick is only
        // for liveness — it must come often enough for quarantine grace /
        // idle deadlines to expire without traffic (a quarter of the
        // shortest deadline); the router cannot name its next deadline
        // without a scan.
        let tick = {
            let mut t = Duration::from_secs(1);
            for us in [liveness.grace_us, liveness.idle_timeout_us] {
                if us > 0 {
                    t = t.min(Duration::from_micros(us / 4).max(Duration::from_millis(5)));
                }
            }
            t
        };
        let mut router: ShardRouter<ConnId> = ShardRouter::with_liveness(shards, liveness);
        router.set_overload(overload);
        let start = Instant::now();
        let host = TcpHost::bind_with_turn(addr, config, tick, move |events| {
            // Broadcast frames stay pre-encoded all the way down; a
            // frame for a peer that vanished or was evicted is dropped,
            // and its Disconnected event cleans up.
            let frames = router.turn(events, start.elapsed().as_micros() as u64).into_frames();
            if let Ok(mut s) = published.lock() {
                *s = (router.stats(), router.router_stats());
            }
            frames
        })?;
        Ok(TcpServer { host, stats })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.host.local_addr()
    }

    /// Snapshot of the server core's observability counters (floor
    /// control, fan-out, transfer liveness), summed across shards and
    /// published after every dispatch turn.
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
        self.host.stats()
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
        let mut pending = VecDeque::new();
        if let Some(events) = self.client.events() {
            let _ = events.take(&mut pending, Duration::ZERO);
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
        self.pump(window, |_| false).map(|_| ())
    }

    /// Pumps until `predicate` holds on the session or `timeout` elapses.
    /// Returns whether the predicate held.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn pump_until<F>(&mut self, timeout: Duration, predicate: F) -> io::Result<bool>
    where
        F: FnMut(&Session) -> bool,
    {
        self.pump(timeout, predicate)
    }

    /// Pumps until `done` holds (checked first and before each receive)
    /// or `window` elapses. Each receive gets the rest of the window, and
    /// so does a redial made inside it.
    fn pump(
        &mut self,
        window: Duration,
        mut done: impl FnMut(&Session) -> bool,
    ) -> io::Result<bool> {
        if done(&self.session) {
            return Ok(true);
        }
        self.drain_client_events();
        self.flush_for_pump()?;
        let deadline = deadline(Instant::now(), window);
        loop {
            if done(&self.session) {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            let received = self.client.recv_within(deadline - now);
            let gone = received == Err(RecvError::Disconnected);
            if let Ok(msg) = received {
                self.session.on_message(msg);
            }
            // After a quiet receive too, so a reconnect starts its rejoin
            // promptly.
            self.drain_client_events();
            self.flush_for_pump()?;
            if gone {
                // Gone for good (closed, or the redials gave up): nothing
                // will ever arrive again, so sit out the rest of the window
                // instead of spinning on the dead client.
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                return Ok(done(&self.session));
            }
        }
    }

    /// Gracefully leaves the session and closes the socket.
    ///
    /// Deterministic handshake, no timing guesswork: `flush` sends the
    /// session's goodbye (`Deregister`), and [`TcpClient::close`] writes
    /// whatever of it a full socket left — for at most its flush
    /// timeout — before shutting the socket down.
    pub fn close(mut self) {
        self.session.leave();
        let _ = self.flush();
        self.client.close();
    }
}
