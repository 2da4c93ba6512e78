//! The two passes over a workload — untraced for the end-to-end metrics,
//! traced for the per-layer ones — and the window lengths of each way of
//! running them.

use std::path::{Path, PathBuf};

use crate::driver::{measure, Options};
use crate::metrics::{self, Reading};
use crate::sut::{probe_state_path, Probes};
use crate::trace;
use crate::workload::{self, Payload, Workload, BOARD, SMOKE_PARKED};

/// Window lengths of one way of running the suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Measured window of the untraced pass, seconds.
    pub window_s: f64,
    /// Measured window of the traced pass, seconds.
    pub traced_window_s: f64,
    /// Fresh server instances the untraced window is split over
    /// (`setup_s` is the median of their set-ups).
    pub segments: usize,
    /// The same for the traced pass's two windows.
    pub traced_segments: usize,
    /// `--smoke`: windows of at most a second and a small herd. Only
    /// shows that everything runs; the numbers mean nothing.
    pub smoke: bool,
}

/// Share of a window spent warming up before it.
const WARMUP_SHARE: f64 = 0.15;

impl Plan {
    /// The full run: 20 s windows (3 s warm-up) over 24 instances, 6 s
    /// traced over 6. Two dozen instances bring the run-to-run spread of
    /// every gated metric under a third of its bound on every workload;
    /// with a dozen, `classroom_fanout` still scattered by 7 %.
    pub fn full(seed: u64) -> Plan {
        Plan {
            seed,
            window_s: 20.0,
            traced_window_s: 6.0,
            segments: 24,
            traced_segments: 6,
            smoke: false,
        }
    }

    /// A run of `seconds` per workload, as the driver's contract asks:
    /// untraced it is all one window; traced, two fifths go to the
    /// untraced window the counters and the overhead ratio need.
    pub fn seconds(seed: u64, seconds: f64) -> Plan {
        Plan { window_s: seconds, traced_window_s: seconds * 0.6, ..Plan::full(seed) }
    }

    /// Half-second windows on two instances, 32 parked sockets.
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            seed,
            window_s: 0.5,
            traced_window_s: 0.5,
            segments: 2,
            traced_segments: 2,
            smoke: true,
        }
    }

    fn options(&self, window_s: f64, segments: usize, traced: bool, w: &Workload) -> Options {
        Options {
            seed: self.seed,
            window_s,
            warmup_s: warmup_for(window_s),
            segments,
            parked: (self.smoke && w.parked > 0).then_some(SMOKE_PARKED),
            traced,
        }
    }

    /// Warm-up before the untraced window, seconds.
    pub fn warmup_s(&self) -> f64 {
        warmup_for(self.window_s)
    }
}

/// Warm-up before a window of `window_s` seconds: a fixed share, capped.
fn warmup_for(window_s: f64) -> f64 {
    (window_s * WARMUP_SHARE).min(3.0)
}

/// What one pass over one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Every round completed and the oracle found nothing wrong.
    pub correct: bool,
    /// Rounds started in the measured window(s).
    pub attempted: u64,
    /// Rounds that did not complete.
    pub failed: u64,
    /// Completed rounds the percentiles rest on.
    pub samples: u64,
    /// Why a window ended early, and what the oracle found.
    pub problems: Vec<String>,
    /// The metrics, in catalogue order.
    pub readings: Vec<Reading>,
    /// Traced pass: `(span name, spans per round, self µs per round)`.
    pub budget: Vec<(&'static str, f64, f64)>,
}

/// The untraced pass: the deployed `TcpServer`, tracing off, every
/// end-to-end metric.
///
/// # Errors
///
/// Set-up or warm-up did not complete, or the descriptor limit is too low.
pub fn untraced_pass(w: Workload, plan: &Plan) -> Result<Outcome, String> {
    let m = measure(w, plan.options(plan.window_s, plan.segments, false, &w))?;
    Ok(Outcome {
        workload: w.name,
        correct: m.correct(),
        attempted: m.attempted(),
        failed: m.failed(),
        samples: m.completed(),
        problems: m.problems(),
        readings: metrics::end_to_end(&m),
        budget: Vec::new(),
    })
}

/// The pure-function probes, always on the `state_sync` tree the seed
/// generates: they are a property of the program and the seed, not of the
/// workload being run.
///
/// # Errors
///
/// The generated spec did not build.
pub fn probes(seed: u64, calls: usize) -> Result<Probes, String> {
    let sync = Workload::by_name("state_sync").ok_or("no state_sync workload")?;
    let mut rng = sync.rng(seed);
    let board = workload::board(&mut rng);
    let leaf = &board.leaves[0];
    let payload = match &leaf.initial {
        Payload::Text(s) => Payload::Text(format!("{s}x")),
        Payload::Value(x) => Payload::Value(1.0 - x),
    };
    probe_state_path(&board.ui_spec, BOARD, &leaf.path, &payload, calls).map_err(|e| e.to_string())
}

/// Directory for traces and reports: under the build's target directory,
/// never the repository root.
pub fn out_dir(smoke: bool) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    let dir = target.join("benchmark");
    if smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

/// The traced pass: a short untraced window (counters, and the baseline
/// of `trace.overhead_ratio`), then a window against the traced copy of
/// the dispatch loop, then the probes. Every per-layer metric. The spans
/// go to `trace-<workload>.jsonl` under [`out_dir`].
///
/// # Errors
///
/// As [`untraced_pass`]; also a trace file that could not be written.
pub fn traced_pass(w: Workload, plan: &Plan) -> Result<Outcome, String> {
    let untraced_window = if plan.smoke { plan.window_s } else { plan.traced_window_s * 2.0 / 3.0 };
    let u = measure(w, plan.options(untraced_window, plan.traced_segments, false, &w))?;
    let t = measure(w, plan.options(plan.traced_window_s, plan.traced_segments, true, &w))?;
    let p = probes(plan.seed, if plan.smoke { 100 } else { 2000 })?;
    let spans = metrics::attributed_spans(&t);
    let path = out_dir(plan.smoke).join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Outcome {
        workload: w.name,
        correct: u.correct() && t.correct(),
        attempted: u.attempted() + t.attempted(),
        failed: u.failed() + t.failed(),
        samples: t.completed(),
        problems: u.problems().into_iter().chain(t.problems()).collect(),
        readings: metrics::per_layer(&u, &t, &p),
        budget: metrics::budget_us_per_round(&t, &spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ONE_SERVER_AT_A_TIME;
    use crate::workload::WORKLOADS;

    /// The soft descriptor limit of a test run may be the common 1024;
    /// the smoke herd of 32 fits in it.
    #[test]
    fn every_workload_completes_a_smoke_window_untraced() {
        let _alone = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            let out = untraced_pass(w, &Plan::smoke(1994)).unwrap_or_else(|e| panic!("{e}"));
            assert!(out.correct, "{}: {:?}", w.name, out.problems);
            assert_eq!(out.failed, 0, "{}", w.name);
            assert!(out.samples >= 20, "{}: only {} rounds", w.name, out.samples);
            assert_eq!(out.readings.len(), metrics::END_TO_END.len());
            for r in &out.readings {
                assert!(
                    r.value.is_finite() && r.value > 0.0,
                    "{}: {} = {}",
                    w.name,
                    r.name,
                    r.value
                );
            }
        }
    }

    #[test]
    fn every_workload_completes_a_smoke_window_traced() {
        let _alone = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        for w in WORKLOADS {
            let out = traced_pass(w, &Plan::smoke(7)).unwrap_or_else(|e| panic!("{e}"));
            assert!(out.correct, "{}: {:?}", w.name, out.problems);
            assert_eq!(out.failed, 0, "{}", w.name);
            assert_eq!(out.readings.len(), metrics::PER_LAYER.len());
            let get = |name: &str| out.readings.iter().find(|r| r.name == name).unwrap().value;
            assert!(out.readings.iter().all(|r| r.value.is_finite()), "{}", w.name);
            for must_be_zero in [
                "net.slow_consumer_evictions",
                "net.frames_dropped",
                "server.delta_fallbacks",
                "server.lock_conflicts",
                "server.events_rejected",
            ] {
                assert_eq!(get(must_be_zero), 0.0, "{}: {must_be_zero}", w.name);
            }
            // Not net.outbound: in an unoptimised build the client often
            // has the frame before the loop has stamped `send_batch`'s
            // return, and the delay clamps to 0.
            assert!(get("net.inbound_us_p50") > 0.0);
            assert!(get("server.handle_us_per_round") > 0.0 && get("trace.overhead_ratio") > 0.0);
            assert!(out.budget.iter().any(|(name, _, us)| *name == "server.handle" && *us > 0.0));
            let trace = out_dir(true).join(format!("trace-{}.jsonl", w.name));
            let first = std::fs::read_to_string(&trace).unwrap();
            let first = first.lines().next().unwrap();
            assert!(crate::json::Json::parse(first).unwrap().get("name").is_some());
        }
    }

    #[test]
    fn the_probed_board_is_the_form_the_readme_describes() {
        let p = probes(1994, 50).unwrap();
        assert_eq!(p.nodes, 62.0);
        assert!((1400.0..2600.0).contains(&p.snapshot_bytes), "{} bytes", p.snapshot_bytes);
        // One changed attribute travels in a small fraction of the snapshot.
        assert!(p.wire_delta_bytes_ratio > 0.0 && p.wire_delta_bytes_ratio < 0.2);
        assert!(p.wire_delta_diff_us > 0.0 && p.server_history_undo_us > 0.0);
    }

    #[test]
    fn a_descriptor_limit_too_low_is_an_error_not_a_smaller_herd() {
        let herd = Workload::by_name("idle_herd").unwrap();
        let have = crate::host::fd_limit().unwrap();
        let too_many = (have / 3) as usize + 10;
        let opts =
            Options { parked: Some(too_many), ..Plan::smoke(1).options(0.1, 1, false, &herd) };
        let err = measure(herd, opts).unwrap_err();
        assert!(err.contains("file descriptors"), "{err}");
    }
}
