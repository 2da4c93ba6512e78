//! Plays a workload against the program: set-up, warm-up, a measured
//! window of closed-loop rounds from the one generator thread, then the
//! correctness oracle — several times over, each time on a fresh server.
//!
//! **Why several segments.** The host's poll loop discovers inbound
//! frames by sweeping its connections in `HashMap` order and parking
//! between sweeps, so a closed loop settles into a limit cycle whose
//! latency depends on the order that one server instance happened to
//! draw (measured: 250 to 500 rounds/s on `classroom_fanout` from one
//! instance to the next, steady within each). A run therefore measures
//! [`Options::segments`] fresh instances and pools their rounds; each
//! set-up is also one sample of `setup_s`.
//!
//! **Why think time.** With no pause between rounds the generator phase-
//! locks to the poll loop's park timer and measures one point of its
//! cycle. A seeded pause of 0 to [`THINK_MAX_US`] before each batch
//! spreads the rounds over the cycle, as independent users would; it is
//! not part of any round's time.
//!
//! **What a round is.** The paper's floor control disables the actor's
//! object until `GroupUnlocked`, so a user cannot issue the next event on
//! it earlier: all loops are closed, and concurrency comes from the
//! number of groups in flight. For an event round the clock starts just
//! before `Session::user_event` on the actor; *deliver* ends when the last
//! follower's `on_message(ExecuteEvent)` has returned; the *round* ends
//! when the actor's session has processed `GroupUnlocked`. For a
//! `state_sync` round the clock starts before the local mutation and
//! `copy_to`/`undo`; deliver ends when the last viewer's
//! `on_message(ApplyDelta)` returned; the round ends at the requester's
//! `CopyCompleted`.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::host;
use crate::rng::SplitMix64;
use crate::sut::{Client, Counters, Expect, Failure, GenIo, Server, ServerTrace};
use crate::trace::{Clock, Span};
use crate::workload::{
    self, Board, Payload, Shape, StateOp, Widget, Workload, BOARD, EVENT_WIDGET, PARKED_UI_SPEC,
};

/// How one measurement is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub window_s: f64,
    /// Warm-up before it, seconds (discarded).
    pub warmup_s: f64,
    /// Fresh server instances the window and warm-up are split over;
    /// `setup_s` is the median of their set-up times.
    pub segments: usize,
    /// Overrides the workload's parked-connection count (`--smoke`).
    pub parked: Option<usize>,
    /// Run against the traced copy of the dispatch loop and record spans.
    pub traced: bool,
}

/// Batches of rounds every group runs in set-up, after coupling: fills
/// caches, lets the router finish its lazy rebalancing, and gives every
/// `state_sync` viewer an acknowledged base and a history chain.
const PRIME_BATCHES: usize = 32;

/// Upper end of the seeded pause before each batch, microseconds: the
/// poll loop's longest park, so a round starts anywhere in its cycle.
pub const THINK_MAX_US: u64 = 2000;

/// Parked connections registered per burst in set-up; below the
/// listener's accept backlog.
const PARK_BURST: usize = 64;

/// The timestamps of one round, on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// Identifier shared by the round's spans; from 1.
    pub id: u64,
    /// Id of the round's own `gen.round` span, the cause of the
    /// generator's other spans of the round.
    pub span: u64,
    /// Couple group the round ran in.
    pub group: u32,
    /// Just before `user_event` / the mutation.
    pub start_ns: u64,
    /// Last follower has re-executed (0 until then).
    pub deliver_ns: u64,
    /// Actor unlocked / copy completed (0 until then).
    pub end_ns: u64,
}

/// The generator's inputs and the book-keeping the oracle needs.
enum Script {
    Events {
        rng: SplitMix64,
        widget: Widget,
        groups: usize,
        members: usize,
        alternate: bool,
        batch: u64,
        /// Per group, the payload of its last completed round.
        last_sent: Vec<Option<Payload>>,
        /// Per client, rounds it followed.
        followed: Vec<u64>,
    },
    State {
        rng: SplitMix64,
        board: Board,
        step: u64,
        /// The presenter's current value of every leaf.
        shadow: Vec<Payload>,
        /// The last copy's change, `(leaf, value before)`.
        last_change: Option<(usize, Payload)>,
        /// Whether the last completed round was an undo: the viewers then
        /// hold the presenter's state without `last_change`.
        undone: bool,
    },
}

/// A set-up system: the server, its clients, and the generator's state.
pub struct Bench {
    workload: Workload,
    server: Server,
    clients: Vec<Client>,
    /// Registered, silent connections. Held only to keep them open.
    parked: Vec<TcpStream>,
    io: GenIo,
    clock: Clock,
    script: Script,
    /// Draws the pauses between batches; apart from the inputs' stream.
    think: SplitMix64,
    rounds: Vec<Round>,
    next_round: u64,
}

fn setup_err(step: &str, e: Failure) -> String {
    format!("set-up: {step}: {e}")
}

impl Bench {
    /// Spawns the server, connects and registers every client, couples
    /// the groups and primes them.
    ///
    /// # Errors
    ///
    /// Any refusal, timeout or socket error: set-up uses the same
    /// protocol steps as the rounds.
    pub fn set_up(
        workload: Workload,
        opts: &Options,
        segment: u64,
        clock: Clock,
    ) -> Result<Bench, String> {
        // Span ids and round ids of different segments stay apart.
        let id_base = segment << 44;
        let server = Server::spawn(workload.shards, opts.traced.then_some((clock, id_base)))
            .map_err(|e| format!("set-up: spawn server: {e}"))?;
        let addr = server.addr();
        let mut io = GenIo::new(clock, opts.traced, id_base);
        // Each segment continues with inputs of its own; workloads that
        // share a stream still share every segment's inputs.
        let segment_seed = opts.seed.wrapping_add(segment.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = workload.rng(segment_seed);
        let (ui_spec, script) = match workload.shape {
            Shape::Events { groups, members, widget, alternate } => (
                workload::event_ui_spec(widget).to_owned(),
                Script::Events {
                    rng,
                    widget,
                    groups,
                    members,
                    alternate,
                    batch: 0,
                    last_sent: vec![None; groups],
                    followed: vec![0; groups * members],
                },
            ),
            Shape::StateSync { .. } => {
                let board = workload::board(&mut rng);
                let shadow = board.leaves.iter().map(|l| l.initial.clone()).collect();
                (
                    board.ui_spec.clone(),
                    Script::State { rng, board, step: 0, shadow, last_change: None, undone: false },
                )
            }
        };

        // The host numbers connections in accept order from 1, and the
        // generator connects one at a time, so it knows each ConnId.
        let mut next_conn = 1u32;
        let mut connect = |io: &mut GenIo, spec: &str| -> Result<Client, Failure> {
            let mut c = Client::connect(addr, spec, u64::from(next_conn), next_conn)?;
            next_conn += 1;
            c.flush(io)?;
            Ok(c)
        };
        let mut clients = Vec::with_capacity(workload.active_connections());
        for _ in 0..workload.active_connections() {
            let mut c = connect(&mut io, &ui_spec).map_err(|e| setup_err("connect", e))?;
            c.step_until(&mut io, Expect::Welcome).map_err(|e| setup_err("register", e))?;
            clients.push(c);
        }
        let mut parked = Vec::new();
        let to_park = opts.parked.unwrap_or(workload.parked);
        while parked.len() < to_park {
            let burst = PARK_BURST.min(to_park - parked.len());
            let mut pending = Vec::with_capacity(burst);
            for _ in 0..burst {
                pending.push(connect(&mut io, PARKED_UI_SPEC).map_err(|e| setup_err("park", e))?);
            }
            for mut c in pending {
                c.step_until(&mut io, Expect::Welcome).map_err(|e| setup_err("park", e))?;
                parked.push(c.park());
            }
        }

        let mut bench = Bench {
            workload,
            server,
            clients,
            parked,
            io,
            clock,
            script,
            think: SplitMix64::new(segment_seed ^ 0x7468_696E),
            rounds: Vec::new(),
            next_round: (segment << 32) + 1,
        };
        bench.couple().map_err(|e| setup_err("couple", e))?;
        for _ in 0..PRIME_BATCHES {
            bench.batch().map_err(|e| setup_err("prime", e))?;
        }
        Ok(bench)
    }

    /// Couples every group: each later member couples to the group's
    /// first, and every member reads `CoupleUpdate`s until its replicated
    /// coupling information lists the whole group.
    fn couple(&mut self) -> Result<(), Failure> {
        // Event workloads attach a callback for the event they will send.
        let (groups, members, first, path, callback_for) = match self.workload.shape {
            Shape::Events { groups, members, widget, .. } => {
                let sample = match widget {
                    Widget::TextField => Payload::Text(String::new()),
                    Widget::Slider => Payload::Value(0.0),
                };
                (groups, members, 0, EVENT_WIDGET, Some(sample))
            }
            // Client 0 is the presenter and stays outside the group.
            Shape::StateSync { viewers } => (1, viewers, 1, BOARD, None),
        };
        for g in 0..groups {
            let base = first + g * members;
            let head =
                self.clients[base].instance().ok_or(Failure::Other("unregistered".into()))?;
            for m in 1..members {
                self.clients[base + m].couple(&mut self.io, path, head, path)?;
            }
            for m in 0..members {
                let c = &mut self.clients[base + m];
                while c.group_size(path)? < members {
                    c.step_until(&mut self.io, Expect::CoupleUpdate)?;
                }
                if let Some(sample) = &callback_for {
                    c.attach_callback(path, sample)?;
                }
            }
        }
        Ok(())
    }

    fn open_round(&mut self, group: usize) -> usize {
        let id = self.next_round;
        self.next_round += 1;
        self.io.round = id;
        self.io.cause = self.io.rec.reserve();
        self.rounds.push(Round {
            id,
            span: self.io.cause,
            group: group as u32,
            start_ns: self.clock.now_ns(),
            deliver_ns: 0,
            end_ns: 0,
        });
        self.rounds.len() - 1
    }

    fn close_round(&mut self, r: usize) {
        self.rounds[r].end_ns = self.clock.now_ns();
        let Round { id, span, start_ns, .. } = self.rounds[r];
        self.io.rec.close_reserved(span, "gen.round", start_ns, 0, id, 0);
    }

    /// Runs one batch: one round in every group, all in flight at once.
    fn batch(&mut self) -> Result<(), Failure> {
        match self.script {
            Script::Events { .. } => self.event_batch(),
            Script::State { .. } => self.state_round(),
        }
    }

    fn event_batch(&mut self) -> Result<(), Failure> {
        let Script::Events { groups, members, alternate, batch, widget, .. } = self.script else {
            return Ok(());
        };
        let actor = if alternate { (batch % 2) as usize } else { 0 };
        let first_round = self.rounds.len();
        let mut payloads = Vec::with_capacity(groups);
        // Write every group's event, ...
        for g in 0..groups {
            let Script::Events { rng, .. } = &mut self.script else { return Ok(()) };
            let payload = workload::next_payload(rng, widget);
            self.open_round(g);
            self.clients[g * members + actor].emit_event(&mut self.io, EVENT_WIDGET, &payload)?;
            payloads.push(payload);
        }
        // ... then serve every group: followers re-execute and report
        // done, the actor runs its own callbacks on the grant, ...
        for g in 0..groups {
            let r = first_round + g;
            (self.io.round, self.io.cause) = (self.rounds[r].id, self.rounds[r].span);
            for m in (0..members).filter(|m| *m != actor) {
                self.clients[g * members + m].step(&mut self.io, Expect::ExecuteEvent)?;
            }
            self.rounds[r].deliver_ns = self.clock.now_ns();
            self.clients[g * members + actor].step(&mut self.io, Expect::EventGranted)?;
        }
        // ... and the server unlocks the group once everyone is done.
        for (g, payload) in payloads.into_iter().enumerate() {
            let r = first_round + g;
            (self.io.round, self.io.cause) = (self.rounds[r].id, self.rounds[r].span);
            self.clients[g * members + actor].step(&mut self.io, Expect::GroupUnlocked)?;
            self.close_round(r);
            // The followers' widgets unlock too; the next batch may make
            // one of them the actor.
            for m in (0..members).filter(|m| *m != actor) {
                self.clients[g * members + m].step(&mut self.io, Expect::GroupUnlocked)?;
            }
            if let Script::Events { last_sent, followed, .. } = &mut self.script {
                last_sent[g] = Some(payload);
                for m in (0..members).filter(|m| *m != actor) {
                    followed[g * members + m] += 1;
                }
            }
        }
        if let Script::Events { batch, .. } = &mut self.script {
            *batch += 1;
        }
        Ok(())
    }

    fn state_round(&mut self) -> Result<(), Failure> {
        let Script::State { rng, board, step, .. } = &mut self.script else { return Ok(()) };
        let op = workload::next_state_op(rng, board, *step);
        *step += 1;
        let leaf_path = match &op {
            StateOp::Copy { leaf, .. } => Some(board.leaves[*leaf].path.clone()),
            StateOp::Undo => None,
        };
        let viewers = self.clients.len() - 1;
        let target = self.clients[1].instance().ok_or(Failure::Other("unregistered".into()))?;
        let r = self.open_round(0);
        let req = match (&op, &leaf_path) {
            (StateOp::Copy { payload, .. }, Some(path)) => {
                self.clients[0].mutate(path, payload)?;
                self.clients[0].copy_to(&mut self.io, BOARD, target, BOARD)?
            }
            _ => {
                self.clients[0].undo(&mut self.io, target, BOARD)?;
                0
            }
        };
        for v in 1..=viewers {
            self.clients[v].step(&mut self.io, Expect::Apply)?;
        }
        self.rounds[r].deliver_ns = self.clock.now_ns();
        self.clients[0].step(&mut self.io, Expect::StateApplied)?;
        if !self.clients[0].copy_completed(req)? {
            return Err(Failure::Unexpected { want: "copy-completed", got: "another request id" });
        }
        self.close_round(r);
        if let Script::State { shadow, last_change, undone, .. } = &mut self.script {
            match op {
                StateOp::Copy { leaf, payload } => {
                    *last_change = Some((leaf, std::mem::replace(&mut shadow[leaf], payload)));
                    *undone = false;
                }
                StateOp::Undo => *undone = true,
            }
        }
        Ok(())
    }

    /// Runs batches until `dur` has passed. Returns the first failure,
    /// which ends the window: after it the clients' streams are no
    /// longer in step with the generator.
    fn run_for(&mut self, dur: Duration) -> Result<(), Failure> {
        let until = Instant::now() + dur;
        while Instant::now() < until {
            let t = Instant::now();
            std::thread::sleep(Duration::from_micros(self.think.below(THINK_MAX_US)));
            self.io.think_ns += t.elapsed().as_nanos() as u64;
            self.batch()?;
        }
        Ok(())
    }

    /// The paper's convergence criterion and the counters that must
    /// agree with the rounds played, over the window that `before`
    /// (taken at its start) and `window` (the counters' change) span.
    fn oracle(&mut self, before: &Baseline, completed: u64, window: &Counters) -> Vec<String> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                bad.push(what);
            }
        };
        let zero = [
            ("events_rejected", window.events_rejected),
            ("unexpected_messages", window.unexpected_messages),
            ("delta_fallbacks", window.delta_fallbacks),
            ("transfers_failed", window.transfers_failed),
            ("busy_replies", window.busy_replies),
            ("slow_consumer_evictions", window.slow_consumer_evictions),
            ("frames_dropped", window.frames_dropped),
        ];
        for (name, value) in zero {
            check(value == 0, format!("{name} is {value}, must be 0"));
        }
        match &self.script {
            Script::Events { groups, members, last_sent, followed, .. } => {
                check(
                    window.events_granted == completed,
                    format!("events_granted {} != rounds {completed}", window.events_granted),
                );
                let per_group = completed / *groups as u64;
                for (g, sent) in last_sent.iter().enumerate() {
                    let states: Vec<_> = (0..*members)
                        .map(|m| self.clients[g * members + m].relevant_state("root").ok())
                        .collect();
                    check(
                        states.iter().all(|s| s.is_some() && *s == states[0]),
                        format!("group {g}: members disagree on the relevant attributes"),
                    );
                    for m in 0..*members {
                        let i = g * members + m;
                        let c = &self.clients[i];
                        if let Some(sent) = sent {
                            check(
                                c.holds(EVENT_WIDGET, sent).unwrap_or(false),
                                format!("client {i} does not hold the last value sent"),
                            );
                        }
                        let (re, cb) = (c.remote_executions(), c.executed_callbacks());
                        check(
                            re - before.remote_executions[i] == followed[i] - before.followed[i],
                            format!(
                                "client {i}: remote_executions advanced by {}, followed {} rounds",
                                re - before.remote_executions[i],
                                followed[i] - before.followed[i]
                            ),
                        );
                        check(
                            cb - before.callbacks[i] == per_group,
                            format!(
                                "client {i}: {} callback runs in {per_group} rounds",
                                cb - before.callbacks[i]
                            ),
                        );
                    }
                }
            }
            Script::State { board, shadow, last_change, undone, .. } => {
                let viewers = self.clients.len() - 1;
                check(
                    window.delta_legs_sent == viewers as u64 * completed,
                    format!(
                        "delta_legs_sent {} != {viewers} x rounds {completed}",
                        window.delta_legs_sent
                    ),
                );
                check(
                    window.transfers_completed == completed,
                    format!(
                        "transfers_completed {} != rounds {completed}",
                        window.transfers_completed
                    ),
                );
                // After an undo the viewers hold the presenter's state
                // without its last change; put that on the presenter for
                // the comparison and take it off again.
                let revert = last_change.as_ref().filter(|_| *undone);
                if let Some((leaf, old)) = revert {
                    let _ = self.clients[0].mutate(&board.leaves[*leaf].path, old);
                }
                let expected = self.clients[0].relevant_state(BOARD).ok();
                if let Some((leaf, _)) = revert {
                    let _ = self.clients[0].mutate(&board.leaves[*leaf].path, &shadow[*leaf]);
                }
                for v in 1..=viewers {
                    check(
                        expected.is_some()
                            && self.clients[v].relevant_state(BOARD).ok() == expected,
                        format!("viewer {v} does not hold the state last sent"),
                    );
                }
            }
        }
        bad
    }

    fn baseline(&self) -> Baseline {
        Baseline {
            remote_executions: self.clients.iter().map(Client::remote_executions).collect(),
            callbacks: self.clients.iter().map(Client::executed_callbacks).collect(),
            followed: match &self.script {
                Script::Events { followed, .. } => followed.clone(),
                Script::State { .. } => Vec::new(),
            },
        }
    }

    /// Closes every socket, stops the server and joins its threads;
    /// hands back what the generator and the traced loop recorded.
    fn tear_down(self) -> (GenIo, ServerTrace) {
        drop(self.clients);
        drop(self.parked);
        (self.io, self.server.stop())
    }
}

/// Per-client readings at the start of the window.
struct Baseline {
    remote_executions: Vec<u64>,
    callbacks: Vec<u64>,
    followed: Vec<u64>,
}

/// What one segment — one fresh server instance — produced.
#[derive(Debug)]
pub struct Segment {
    /// Duration of its set-up, seconds.
    pub setup_s: f64,
    /// Rounds started in its window; the completed ones have `end_ns`.
    pub rounds: Vec<Round>,
    /// Window length as measured, seconds (think time included).
    pub window_s: f64,
    /// Window bounds on the run's clock.
    pub window_ns: (u64, u64),
    /// Process CPU time spent in the window, milliseconds.
    pub cpu_ms: f64,
    /// Time the generator spent blocked in socket reads, nanoseconds.
    pub blocked_ns: u64,
    /// Time the generator spent pausing between batches, nanoseconds.
    pub think_ns: u64,
    /// The program's counters over the window.
    pub counters: Counters,
    /// The program's counters since the server was spawned.
    pub totals: Counters,
    /// Why the window ended early, if it did.
    pub failure: Option<String>,
    /// What the oracle found wrong; empty when the outputs are correct.
    pub violations: Vec<String>,
    /// The generator's spans (traced pass only).
    pub gen_spans: Vec<Span>,
    /// `(conn, ns, frames)` per generator write (traced pass only).
    pub writes: Vec<(u32, u64, u32)>,
    /// `(conn, ns)` per frame the generator received (traced pass only).
    pub reads: Vec<(u32, u64)>,
    /// What the traced dispatch loop recorded (traced pass only).
    pub server: ServerTrace,
}

/// Everything one measurement produced.
#[derive(Debug)]
pub struct Measurement {
    /// The workload.
    pub workload: Workload,
    /// How it was run.
    pub options: Options,
    /// One entry per server instance measured.
    pub segments: Vec<Segment>,
    /// Peak resident set size (`VmHWM`) over the measurement, MiB.
    pub peak_rss_mib: f64,
}

impl Measurement {
    /// Every round started, over all segments.
    pub fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.segments.iter().flat_map(|s| &s.rounds)
    }

    /// Rounds that ran to their end.
    pub fn completed(&self) -> u64 {
        self.rounds().filter(|r| r.end_ns != 0).count() as u64
    }

    /// Rounds started.
    pub fn attempted(&self) -> u64 {
        self.rounds().count() as u64
    }

    /// Rounds started that did not run to their end.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.completed()
    }

    /// Whether every round completed and the oracle found nothing.
    pub fn correct(&self) -> bool {
        self.completed() > 0
            && self.segments.iter().all(|s| s.failure.is_none() && s.violations.is_empty())
    }

    /// Total measured window, seconds.
    pub fn window_s(&self) -> f64 {
        self.segments.iter().map(|s| s.window_s).sum()
    }

    /// The program's counters over all windows.
    pub fn counters(&self) -> Counters {
        self.segments.iter().fold(Counters::default(), |sum, s| sum.plus(&s.counters))
    }

    /// Why windows ended early and what the oracle found, by segment.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, s) in self.segments.iter().enumerate() {
            out.extend(s.failure.iter().map(|f| format!("segment {i}: window ended early: {f}")));
            out.extend(s.violations.iter().map(|v| format!("segment {i}: {v}")));
        }
        out
    }
}

/// Measures one segment: sets the workload up on a fresh server, warms it
/// up, measures one window and checks the outputs.
fn measure_segment(
    workload: Workload,
    options: &Options,
    segment: u64,
    clock: Clock,
) -> Result<Segment, String> {
    let share = options.segments.max(1) as f64;
    let t = Instant::now();
    let mut bench = Bench::set_up(workload, options, segment, clock)?;
    let setup_s = t.elapsed().as_secs_f64();
    bench
        .run_for(Duration::from_secs_f64(options.warmup_s / share))
        .map_err(|e| format!("{}: warm-up: {e}", workload.name))?;

    bench.io.reset();
    bench.rounds.clear();
    let before = bench.baseline();
    let counters_before = bench.server.settled_counters();
    let cpu_before = host::cpu_ms();
    let from = Instant::now();
    let from_ns = clock.now_ns();
    let failure = bench.run_for(Duration::from_secs_f64(options.window_s / share)).err();
    let window_s = from.elapsed().as_secs_f64();
    let until_ns = clock.now_ns();
    let cpu_ms = host::cpu_ms() - cpu_before;
    let totals = bench.server.settled_counters();
    let counters = totals.since(&counters_before);

    let rounds = std::mem::take(&mut bench.rounds);
    let completed = rounds.iter().filter(|r| r.end_ns != 0).count() as u64;
    // A window cut short by a failure leaves frames in flight; the
    // convergence check would only repeat the failure.
    let violations = match &failure {
        None => bench.oracle(&before, completed, &counters),
        Some(_) => Vec::new(),
    };
    let (io, server) = bench.tear_down();
    Ok(Segment {
        setup_s,
        rounds,
        window_s,
        window_ns: (from_ns, until_ns),
        cpu_ms,
        blocked_ns: io.blocked_ns,
        think_ns: io.think_ns,
        counters,
        totals,
        failure: failure.map(|e| e.to_string()),
        violations,
        gen_spans: io.rec.into_spans(),
        writes: io.writes,
        reads: io.reads,
        server,
    })
}

/// Measures `options.segments` fresh instances of the workload, one after
/// the other, stopping at the first window that fails.
///
/// # Errors
///
/// A descriptor limit too low for the workload (never silently resized),
/// or a set-up or warm-up that did not complete. Failures *inside* a
/// window are reported in the [`Measurement`].
pub fn measure(workload: Workload, options: Options) -> Result<Measurement, String> {
    let parked = options.parked.unwrap_or(workload.parked);
    let (need, have) = (workload.fds_needed(parked), host::fd_limit().unwrap_or(0));
    if have < need {
        return Err(format!(
            "{}: needs {need} file descriptors, the soft limit is {have}; raise it (run.sh does: ulimit -n)",
            workload.name
        ));
    }
    host::reset_peak_rss();
    let clock = Clock::start();
    let mut segments = Vec::with_capacity(options.segments);
    for i in 0..options.segments.max(1) as u64 {
        let segment = measure_segment(workload, &options, i, clock)?;
        let failed = segment.failure.is_some();
        segments.push(segment);
        if failed {
            break;
        }
    }
    Ok(Measurement { workload, options, segments, peak_rss_mib: host::peak_rss_mib() })
}

/// Tests that start and stop servers hold this: `cpu_ms_per_round` is a
/// difference of live threads' CPU time, so a server of a concurrent test
/// ending inside a window would make it negative.
#[cfg(test)]
pub(crate) static ONE_SERVER_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SMOKE_PARKED;

    /// What makes the `idle_herd` ÷ `pair_event` ratio attributable to
    /// connection count alone: for equal seeds the two put the same bytes
    /// on the wire, round for round — checked end to end over a fixed
    /// number of rounds, not a time window.
    #[test]
    fn idle_herd_and_pair_event_put_the_same_bytes_on_the_wire() {
        const BATCHES: u64 = 200;
        let _alone = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let traffic_of = |name: &str| {
            let w = Workload::by_name(name).unwrap();
            let opts = Options {
                seed: 11,
                window_s: 0.0,
                warmup_s: 0.0,
                segments: 1,
                parked: (w.parked > 0).then_some(SMOKE_PARKED),
                traced: false,
            };
            let mut bench = Bench::set_up(w, &opts, 0, Clock::start()).unwrap();
            let before = bench.server.settled_counters();
            for _ in 0..BATCHES {
                bench.batch().unwrap();
            }
            let c = bench.server.settled_counters().since(&before);
            bench.tear_down();
            (c.bytes_in, c.bytes_out, c.frames_in, c.frames_out)
        };
        let (pair, herd) = (traffic_of("pair_event"), traffic_of("idle_herd"));
        assert_eq!(pair, herd);
        // Event and two done-reports up; execute, grant and two unlocks down.
        assert_eq!((pair.2, pair.3), (3 * BATCHES, 4 * BATCHES));
        assert!(pair.0 > 0 && pair.1 > pair.0);
    }
}
