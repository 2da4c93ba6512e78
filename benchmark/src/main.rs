//! Command line of the benchmark.
//!
//! ```text
//! cosoft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cosoft-benchmark run <workload>|all [--seed <n>] [--traced] [--smoke]
//! cosoft-benchmark repeat <n> [--seed <n>]
//! cosoft-benchmark record [--seed <n>]
//! cosoft-benchmark manifest
//! ```
//!
//! The first form is the driver's: one workload, a window of `--seconds`,
//! one JSON object as the last line of standard output. The others use
//! the full run shape (or `--smoke`), which is part of the benchmark's
//! definition and not a flag. `run` prints a table of every metric by
//! name with its unit; `repeat` runs the untraced suite `n` times (seeds
//! `seed`, `seed+1`, …) and prints each end-to-end metric's spread beside
//! its bound; `record` is `run all` then `run all --traced`, written
//! into `RESULTS.json` beside the manifest; `manifest` prints
//! `BENCHMARK.json` as the catalogue defines it. Every measuring form
//! exits non-zero if a round failed or the correctness oracle found a
//! violation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::Path;
use std::process::ExitCode;

use cosoft_benchmark::host;
use cosoft_benchmark::json::Json;
use cosoft_benchmark::report;
use cosoft_benchmark::suite::{self, Outcome, Plan};
use cosoft_benchmark::workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  cosoft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  cosoft-benchmark run <workload>|all [--seed <n>] [--traced] [--smoke]
  cosoft-benchmark repeat <n> [--seed <n>]
  cosoft-benchmark record [--seed <n>]
  cosoft-benchmark manifest
workloads: pair_event classroom_fanout state_sync idle_herd multi_group";

/// The seed of the committed results.
const DEFAULT_SEED: u64 = 1994;

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn workloads(which: &str) -> Result<Vec<Workload>, String> {
    if which == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    Workload::by_name(which).map(|w| vec![w]).ok_or(format!("unknown workload {which}"))
}

/// The run shape of every form but the driver's: the full one, or
/// `--smoke`. Window lengths are part of the benchmark's definition.
fn plan(a: &Args) -> Result<Plan, String> {
    if a.seconds.is_some() || a.trace.is_some() {
        return Err("--seconds and --trace belong to the --workload form".into());
    }
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    Ok(if a.smoke { Plan::smoke(seed) } else { Plan::full(seed) })
}

fn pass(ws: &[Workload], plan: &Plan, traced: bool) -> Result<Vec<Outcome>, String> {
    ws.iter()
        .map(|w| {
            eprintln!(
                "{}: {} pass, seed {}, loopback ...",
                w.name,
                if traced { "traced" } else { "untraced" },
                plan.seed
            );
            if traced {
                suite::traced_pass(*w, plan)
            } else {
                suite::untraced_pass(*w, plan)
            }
        })
        .collect()
}

fn all_correct(outcomes: &[Outcome]) -> bool {
    outcomes.iter().all(|o| o.correct && o.failed == 0)
}

/// The driver's form: one workload, the result line last.
fn contract(a: &Args, name: &str) -> Result<bool, String> {
    let w = Workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let traced = a.trace.ok_or("--workload needs --trace 0|1")?;
    let plan = Plan::seconds(
        a.seed.ok_or("--workload needs --seed")?,
        a.seconds.ok_or("--workload needs --seconds")?,
    );
    let out = pass(&[w], &plan, traced)?.remove(0);
    for p in &out.problems {
        eprintln!("!! {}: {p}", out.workload);
    }
    println!("{}", report::result_line(&out));
    Ok(all_correct(&[out]))
}

/// One pass over `ws`: prints the environment block and the table,
/// writes the report under the target directory, returns it.
fn report_pass(ws: &[Workload], plan: &Plan, traced: bool) -> Result<(Json, bool), String> {
    let outcomes = pass(ws, plan, traced)?;
    let (kind, window) =
        if traced { ("traced", plan.traced_window_s) } else { ("untraced", plan.window_s) };
    let env = host::environment(plan.seed, window, plan.warmup_s());
    println!("{}", env.encode());
    let title = format!(
        "{kind} pass: {window} s window per workload, seed {}, traffic over loopback{}",
        plan.seed,
        if plan.smoke { " (SMOKE: numbers mean nothing)" } else { "" }
    );
    print!("{}", report::table(&title, &outcomes));
    let pass_json = report::pass_json(env, &outcomes);
    let dir = suite::out_dir(plan.smoke);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("report-{kind}.json"));
    std::fs::write(&file, pass_json.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("report: {}", file.display());
    Ok((pass_json, all_correct(&outcomes)))
}

fn run(a: &Args) -> Result<bool, String> {
    let ws = workloads(a.positional.get(1).map_or("all", String::as_str))?;
    Ok(report_pass(&ws, &plan(a)?, a.traced)?.1)
}

/// The run of record: both passes over every workload at the full run
/// shape, into `RESULTS.json` beside the manifest.
fn record(a: &Args) -> Result<bool, String> {
    if a.smoke {
        return Err("record refuses --smoke: its numbers mean nothing".into());
    }
    let plan = plan(a)?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("RESULTS.json");
    let mut ok = true;
    for (key, traced) in [("untraced", false), ("traced", true)] {
        let (pass_json, correct) = report_pass(&WORKLOADS, &plan, traced)?;
        report::record(&path, key, pass_json)?;
        ok &= correct;
    }
    eprintln!("recorded: {}", path.display());
    Ok(ok)
}

fn repeat(a: &Args) -> Result<bool, String> {
    let n: usize = a
        .positional
        .get(1)
        .ok_or("repeat needs a count")?
        .parse()
        .map_err(|e| format!("repeat count: {e}"))?;
    let base = plan(a)?;
    let mut runs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let plan = Plan { seed: base.seed + i, ..base };
        eprintln!("repeat {}/{n}", i + 1);
        runs.push(pass(&WORKLOADS, &plan, false)?);
    }
    let spreads = report::spreads(&runs);
    println!("{}", host::environment(base.seed, base.window_s, base.warmup_s()).encode());
    print!("{}", report::spread_table(&spreads));
    let over = spreads.iter().filter(|s| s.over_bound()).count();
    println!("{over} of {} metric x workload spreads are over their bound", spreads.len());
    Ok(runs.iter().all(|r| all_correct(r)))
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|a| {
        if let Some(name) = a.workload.clone() {
            return contract(&a, &name);
        }
        match a.positional.first().map(String::as_str) {
            Some("run") => run(&a),
            Some("repeat") => repeat(&a),
            Some("record") => record(&a),
            Some("manifest") => {
                print!("{}", report::manifest_json().pretty());
                Ok(true)
            }
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: a round failed or the correctness oracle found a violation");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
