//! In-memory spans, recorded from outside the program around the calls
//! into each layer. The generator thread and the traced dispatch loop
//! each own a [`Recorder`] and share one [`Clock`], so the gaps between
//! their spans (the time a frame spends in the transport) are measured on
//! one time line. Nothing is written until the window is over.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The process clock both threads stamp with.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run; never 0.
    pub id: u64,
    /// The span that caused this one (its parent on the same thread), or
    /// 0 for a root.
    pub cause: u64,
    /// `<layer>.<call>`, e.g. `server.handle`.
    pub name: &'static str,
    /// Start, on the shared clock.
    pub start_ns: u64,
    /// End, on the shared clock.
    pub end_ns: u64,
    /// The round the work belongs to: spans of one coupled event share
    /// it. 0 outside any round (set-up, liveness ticks).
    pub round: u64,
    /// Connection the call served, in the host's accept order; 0 if none.
    pub conn: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink of one thread. With tracing off every call is a branch on a
/// bool: no clock read, no allocation.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `id_base + 1`; give each thread its
    /// own base so ids never collide.
    pub fn new(clock: Clock, enabled: bool, id_base: u64) -> Recorder {
        Recorder { clock, enabled, next_id: id_base + 1, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shared clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Start stamp for a span about to be closed with [`Recorder::close`]
    /// (0 when tracing is off).
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// Reserves the id of a span that will enclose others, so children
    /// can name it as their cause before it is closed.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span from `start_ns` to now.
    pub fn close(&mut self, name: &'static str, start_ns: u64, cause: u64, round: u64, conn: u32) {
        if self.enabled {
            let id = self.reserve();
            self.close_reserved(id, name, start_ns, cause, round, conn);
        }
    }

    /// Records a span under an id from [`Recorder::reserve`].
    pub fn close_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        start_ns: u64,
        cause: u64,
        round: u64,
        conn: u32,
    ) {
        if self.enabled {
            let end_ns = self.clock.now_ns();
            self.spans.push(Span { id, cause, name, start_ns, end_ns, round, conn });
        }
    }

    /// Drops everything recorded so far (warm-up spans).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.cause) {
            let (cs, ce) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if ce > cs {
                children.entry(s.cause).or_default().push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(cs, ce) in kids.iter() {
                    let from = cs.max(reach);
                    if ce > from {
                        covered += ce - from;
                        reach = ce;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self time summed by span name, in nanoseconds, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
    rows.sort_unstable();
    rows
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"cause\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"round\":{},\"conn\":{}}}",
            s.id, s.cause, s.name, s.start_ns, s.end_ns, s.round, s.conn
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, cause: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, cause, name, start_ns, end_ns, round: 1, conn: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(1, 0, "runtime.turn", 0, 100),
            // Two overlapping children cover 10..50 once.
            span(2, 1, "server.handle", 10, 40),
            span(3, 1, "server.handle", 30, 50),
            // A grandchild takes from its parent only, never the root.
            span(4, 2, "wire.encode", 15, 25),
            // A child running past its parent is clipped to it.
            span(5, 1, "net.send_batch", 90, 120),
            // A root of its own, and a span whose cause was not recorded.
            span(6, 0, "server.tick", 200, 230),
            span(7, 99, "net.write", 300, 310),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 40 - 10);
        assert_eq!(t[&2], 30 - 10);
        assert_eq!(t[&3], 20);
        assert_eq!(t[&4], 10);
        assert_eq!(t[&5], 30);
        assert_eq!(t[&6], 30);
        assert_eq!(t[&7], 10);
        let by_name = self_time_by_name(&spans);
        assert!(by_name.contains(&("server.handle", 2, 40)));
        assert!(by_name.contains(&("runtime.turn", 1, 50)));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut off = Recorder::new(Clock::start(), false, 0);
        let t = off.open();
        off.close("wire.encode", t, 0, 1, 1);
        assert_eq!((t, off.into_spans().len()), (0, 0));

        let mut on = Recorder::new(Clock::start(), true, 1 << 40);
        let parent = on.reserve();
        let t = on.open();
        on.close("server.handle", t, parent, 3, 2);
        on.close_reserved(parent, "runtime.turn", t, 0, 3, 0);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cause, spans[1].id);
        assert!(spans.iter().all(|s| s.id > 1 << 40 && s.end_ns >= s.start_ns));
    }
}
