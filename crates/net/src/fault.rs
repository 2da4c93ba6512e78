//! Deterministic fault injection for the TCP transport.
//!
//! A [`FaultInjector`] sits between the poll pool and the kernel: every
//! socket write and read of an instrumented [`crate::tcp::TcpHost`]
//! first consults the injector, which may truncate the write, shorten
//! the read, synthesize a `WouldBlock`, or synthesize a hard socket
//! error. Faults are either *scripted* — per-connection queues consumed
//! one decision per I/O operation, so a test can spell out "first write
//! is cut to 3 bytes, second write would-blocks, third passes" — or
//! *randomized* from a seeded [`Rng`] stream, so a chaos soak is fully
//! reproducible from its seed.
//!
//! The injector deliberately only models faults the transport must
//! absorb *without* help from the peer: partial writes exercise the
//! outbox head accounting, short reads exercise incremental frame
//! reassembly, `WouldBlock` storms exercise the sweep backoff, and
//! injected errors exercise the single-teardown path. Torn frames and
//! garbage bytes are injected from the peer side instead (a raw
//! `TcpStream` writing evil bytes needs no hooks).
//!
//! The module is always compiled — keeping `cfg` out of the poll-thread
//! plumbing — but the public constructors and
//! [`crate::tcp::TcpHost::bind_with_faults`] only exist behind the
//! non-default `fault-injection` cargo feature, so a release build has
//! no way to instrument a host (a doctest on the `cosoft` facade fails to
//! compile `cosoft::net::FaultInjector` unless the feature was asked
//! for).

#![cfg_attr(
    not(feature = "fault-injection"),
    allow(
        dead_code,
        reason = "without the feature there is no way to construct faults, so the scripting surface is (correctly) unreachable"
    )
)]

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use cosoft_rng::Rng;

use crate::lock::LeafLock;
use crate::tcp::ConnId;

/// One scripted decision for a socket write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Let the write through untouched.
    Pass,
    /// Cut the vectored write down to at most this many bytes (clamped
    /// to at least 1), forcing the outbox to track partial progress.
    Truncate(usize),
    /// Pretend the socket buffer is full; the poll thread retries the
    /// same bytes on a later sweep.
    WouldBlock,
    /// Synthesize a hard socket error of this kind; the connection is
    /// torn down through the normal error path.
    Error(io::ErrorKind),
}

/// One scripted decision for a socket read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Let the read through untouched.
    Pass,
    /// Read into a buffer of at most this many bytes (clamped to at
    /// least 1), forcing incremental frame reassembly.
    Short(usize),
    /// Pretend no bytes are ready; the poll thread backs off and
    /// re-probes on a later sweep.
    WouldBlock,
    /// Synthesize a hard socket error of this kind; the connection is
    /// torn down through the normal error path.
    Error(io::ErrorKind),
}

/// What the poll thread should do with one write, after consulting the
/// injector. `WouldBlock`/`Error` faults arrive as `Err` so the flush
/// path handles them exactly like kernel-originated errors.
#[derive(Debug)]
pub(crate) enum WriteDecision {
    /// Write everything gathered.
    Pass,
    /// Gather at most this many bytes (≥ 1) before writing.
    Truncate(usize),
    /// Skip the write and treat it as having failed with this error.
    Err(io::Error),
}

/// What the poll thread should do with one read.
#[derive(Debug)]
pub(crate) enum ReadDecision {
    /// Read into the full scratch buffer.
    Pass,
    /// Read into at most this many bytes (≥ 1) of scratch.
    Short(usize),
    /// Skip the read and treat it as having failed with this error.
    Err(io::Error),
}

/// Randomized-mode parameters: per-mille probabilities for each
/// recoverable fault class, rolled independently per I/O operation.
/// Hard errors are never rolled randomly — a chaos soak asserts traffic
/// completes *despite* faults, which injected teardowns would turn into
/// a different (and flaky) test.
#[derive(Debug)]
struct RandomMode {
    rng: Rng,
    truncate_per_mille: u16,
    wouldblock_per_mille: u16,
    short_per_mille: u16,
}

impl RandomMode {
    /// Rolls one in-a-thousand chance; `per_mille` of 0 never hits.
    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.rng.range(0..1000) < per_mille
    }
}

#[derive(Debug, Default)]
struct Scripts {
    writes: HashMap<ConnId, VecDeque<WriteFault>>,
    reads: HashMap<ConnId, VecDeque<ReadFault>>,
    random: Option<RandomMode>,
}

/// Deterministic fault source shared by every poll thread of one
/// instrumented host. See the module docs for the model.
#[derive(Debug, Default)]
pub struct FaultInjector {
    scripts: LeafLock<Scripts>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector with no faults scheduled: everything passes until
    /// faults are scripted with [`FaultInjector::script_writes`] /
    /// [`FaultInjector::script_reads`].
    #[cfg(feature = "fault-injection")]
    pub fn scripted() -> FaultInjector {
        FaultInjector::default()
    }

    /// An injector rolling seeded random *recoverable* faults (truncated
    /// writes, `WouldBlock` storms, short reads) with the given
    /// per-mille probabilities per I/O operation. The same seed replays
    /// the same fault schedule. Scripted faults may be layered on top
    /// and take precedence for their connection.
    #[cfg(feature = "fault-injection")]
    pub fn random(
        seed: u64,
        truncate_per_mille: u16,
        wouldblock_per_mille: u16,
        short_per_mille: u16,
    ) -> FaultInjector {
        let injector = FaultInjector::default();
        injector.scripts.held().random = Some(RandomMode {
            rng: Rng::new(seed),
            truncate_per_mille,
            wouldblock_per_mille,
            short_per_mille,
        });
        injector
    }

    /// Appends scripted write faults for one connection, consumed
    /// oldest-first, one per write attempt. Connection ids are assigned
    /// sequentially from 1 in accept order, so a single-client test
    /// scripts `ConnId(1)`.
    #[cfg(feature = "fault-injection")]
    pub fn script_writes(&self, conn: ConnId, faults: impl IntoIterator<Item = WriteFault>) {
        self.scripts.held().writes.entry(conn).or_default().extend(faults);
    }

    /// Appends scripted read faults for one connection; see
    /// [`FaultInjector::script_writes`].
    #[cfg(feature = "fault-injection")]
    pub fn script_reads(&self, conn: ConnId, faults: impl IntoIterator<Item = ReadFault>) {
        self.scripts.held().reads.entry(conn).or_default().extend(faults);
    }

    /// Total faults injected so far (every non-`Pass` decision).
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Scripted write faults not yet consumed, across all connections.
    /// A test asserting "the schedule ran to completion" checks this
    /// reaches 0.
    pub fn pending_write_faults(&self) -> usize {
        self.scripts.held().writes.values().map(VecDeque::len).sum()
    }

    /// Scripted read faults not yet consumed, across all connections.
    pub fn pending_read_faults(&self) -> usize {
        self.scripts.held().reads.values().map(VecDeque::len).sum()
    }

    /// Decision for the next write on `conn`. Scripted faults are
    /// consumed first; with none queued, random mode (if configured)
    /// rolls; otherwise the write passes.
    pub(crate) fn on_write(&self, conn: ConnId) -> WriteDecision {
        let mut scripts = self.scripts.held();
        if let Some(fault) = scripts.writes.get_mut(&conn).and_then(VecDeque::pop_front) {
            return self.decide_write(fault);
        }
        if let Some(random) = scripts.random.as_mut() {
            if random.roll(random.truncate_per_mille) {
                // 1..=4096 bytes: small enough to split frames, never 0.
                let n = random.rng.range(1..=4096);
                drop(scripts);
                return self.decide_write(WriteFault::Truncate(n));
            }
            if random.roll(random.wouldblock_per_mille) {
                drop(scripts);
                return self.decide_write(WriteFault::WouldBlock);
            }
        }
        WriteDecision::Pass
    }

    /// Decision for the next read on `conn`; mirrors
    /// [`FaultInjector::on_write`].
    pub(crate) fn on_read(&self, conn: ConnId) -> ReadDecision {
        let mut scripts = self.scripts.held();
        if let Some(fault) = scripts.reads.get_mut(&conn).and_then(VecDeque::pop_front) {
            return self.decide_read(fault);
        }
        if let Some(random) = scripts.random.as_mut() {
            if random.roll(random.short_per_mille) {
                let n = random.rng.range(1..=64);
                drop(scripts);
                return self.decide_read(ReadFault::Short(n));
            }
        }
        ReadDecision::Pass
    }

    fn decide_write(&self, fault: WriteFault) -> WriteDecision {
        if fault != WriteFault::Pass {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            WriteFault::Pass => WriteDecision::Pass,
            WriteFault::Truncate(n) => WriteDecision::Truncate(n.max(1)),
            WriteFault::WouldBlock => {
                WriteDecision::Err(io::Error::new(io::ErrorKind::WouldBlock, "injected WouldBlock"))
            }
            WriteFault::Error(kind) => {
                WriteDecision::Err(io::Error::new(kind, "injected write error"))
            }
        }
    }

    fn decide_read(&self, fault: ReadFault) -> ReadDecision {
        if fault != ReadFault::Pass {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            ReadFault::Pass => ReadDecision::Pass,
            ReadFault::Short(n) => ReadDecision::Short(n.max(1)),
            ReadFault::WouldBlock => {
                ReadDecision::Err(io::Error::new(io::ErrorKind::WouldBlock, "injected WouldBlock"))
            }
            ReadFault::Error(kind) => {
                ReadDecision::Err(io::Error::new(kind, "injected read error"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector() -> FaultInjector {
        FaultInjector::default()
    }

    #[test]
    fn empty_injector_passes_everything() {
        let inj = injector();
        for _ in 0..100 {
            assert!(matches!(inj.on_write(ConnId(1)), WriteDecision::Pass));
            assert!(matches!(inj.on_read(ConnId(1)), ReadDecision::Pass));
        }
        assert_eq!(inj.faults_injected(), 0);
    }

    #[test]
    fn scripted_faults_consume_in_order_then_pass() {
        let inj = injector();
        inj.scripts.held().writes.entry(ConnId(7)).or_default().extend([
            WriteFault::Truncate(3),
            WriteFault::WouldBlock,
            WriteFault::Pass,
            WriteFault::Error(io::ErrorKind::ConnectionReset),
        ]);
        assert!(matches!(inj.on_write(ConnId(7)), WriteDecision::Truncate(3)));
        match inj.on_write(ConnId(7)) {
            WriteDecision::Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected WouldBlock, got {other:?}"),
        }
        assert!(matches!(inj.on_write(ConnId(7)), WriteDecision::Pass));
        match inj.on_write(ConnId(7)) {
            WriteDecision::Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("expected ConnectionReset, got {other:?}"),
        }
        // Script exhausted: back to passing.
        assert!(matches!(inj.on_write(ConnId(7)), WriteDecision::Pass));
        // The explicit Pass entry is not counted as a fault.
        assert_eq!(inj.faults_injected(), 3);
        assert_eq!(inj.pending_write_faults(), 0);
    }

    #[test]
    fn scripts_are_per_connection() {
        let inj = injector();
        inj.scripts.held().reads.entry(ConnId(1)).or_default().push_back(ReadFault::Short(5));
        assert_eq!(inj.pending_read_faults(), 1);
        assert!(matches!(inj.on_read(ConnId(2)), ReadDecision::Pass));
        assert!(matches!(inj.on_read(ConnId(1)), ReadDecision::Short(5)));
        assert_eq!(inj.pending_read_faults(), 0);
    }

    #[test]
    fn read_stall_and_error_faults_map_to_io_errors() {
        let inj = injector();
        inj.scripts.held().reads.entry(ConnId(4)).or_default().extend([
            ReadFault::WouldBlock,
            ReadFault::Pass,
            ReadFault::Error(io::ErrorKind::BrokenPipe),
        ]);
        match inj.on_read(ConnId(4)) {
            ReadDecision::Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected WouldBlock, got {other:?}"),
        }
        assert!(matches!(inj.on_read(ConnId(4)), ReadDecision::Pass));
        match inj.on_read(ConnId(4)) {
            ReadDecision::Err(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected BrokenPipe, got {other:?}"),
        }
        assert_eq!(inj.faults_injected(), 2);
    }

    #[test]
    fn truncate_and_short_clamp_to_one_byte() {
        let inj = injector();
        inj.scripts.held().writes.entry(ConnId(1)).or_default().push_back(WriteFault::Truncate(0));
        inj.scripts.held().reads.entry(ConnId(1)).or_default().push_back(ReadFault::Short(0));
        assert!(matches!(inj.on_write(ConnId(1)), WriteDecision::Truncate(1)));
        assert!(matches!(inj.on_read(ConnId(1)), ReadDecision::Short(1)));
    }

    #[test]
    fn random_mode_is_deterministic_per_seed_and_never_errors() {
        let run = |seed: u64| {
            let inj = injector();
            inj.scripts.held().random = Some(RandomMode {
                rng: Rng::new(seed),
                truncate_per_mille: 200,
                wouldblock_per_mille: 200,
                short_per_mille: 200,
            });
            let mut trace = Vec::new();
            for i in 0..500u64 {
                let id = ConnId(i % 3 + 1);
                match inj.on_write(id) {
                    WriteDecision::Pass => trace.push(0usize),
                    WriteDecision::Truncate(n) => trace.push(n),
                    WriteDecision::Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                        trace.push(usize::MAX);
                    }
                }
                match inj.on_read(id) {
                    ReadDecision::Pass => trace.push(0),
                    ReadDecision::Short(n) => trace.push(n),
                    ReadDecision::Err(e) => panic!("random mode must not inject read errors: {e}"),
                }
            }
            (trace, inj.faults_injected())
        };
        let (trace_a, faults_a) = run(42);
        let (trace_b, faults_b) = run(42);
        assert_eq!(trace_a, trace_b, "same seed must replay the same schedule");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "per-mille 200 over 1000 ops should fault sometimes");
        let (trace_c, _) = run(43);
        assert_ne!(trace_a, trace_c, "different seeds should diverge");
    }

    /// `COSOFT_CHAOS_SEED` names a run only while the stream and the
    /// order of draws stay what they are: per write one roll for a
    /// truncation (then its length) and one for a `WouldBlock`, per read
    /// one roll for a short read (then its length).
    #[test]
    fn a_random_mode_seed_fixes_its_decisions() {
        let inj = injector();
        inj.scripts.held().random = Some(RandomMode {
            rng: Rng::new(1),
            truncate_per_mille: 300,
            wouldblock_per_mille: 300,
            short_per_mille: 300,
        });
        let decisions: Vec<String> = (0..6)
            .flat_map(|_| {
                let write = match inj.on_write(ConnId(1)) {
                    WriteDecision::Pass => "w".to_owned(),
                    WriteDecision::Truncate(n) => format!("w{n}"),
                    WriteDecision::Err(_) => "w!".to_owned(),
                };
                let read = match inj.on_read(ConnId(1)) {
                    ReadDecision::Short(n) => format!("r{n}"),
                    _ => "r".to_owned(),
                };
                [write, read]
            })
            .collect();
        assert_eq!(decisions.join(" "), "w r w1466 r38 w r w r w r w! r9");
    }

    #[test]
    fn zero_per_mille_random_mode_never_faults() {
        let inj = injector();
        inj.scripts.held().random = Some(RandomMode {
            rng: Rng::new(9),
            truncate_per_mille: 0,
            wouldblock_per_mille: 0,
            short_per_mille: 0,
        });
        for _ in 0..200 {
            assert!(matches!(inj.on_write(ConnId(1)), WriteDecision::Pass));
            assert!(matches!(inj.on_read(ConnId(1)), ReadDecision::Pass));
        }
        assert_eq!(inj.faults_injected(), 0);
    }
}
