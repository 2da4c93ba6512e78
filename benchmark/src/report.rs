//! What the benchmark prints and writes: the one-line result the driver
//! reads, the table a person reads, the report files, and the noise
//! self-check of `repeat`.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Reading, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported, median, quartiles};
use crate::suite::Outcome;
use crate::workload::{Workload, WORKLOADS};

/// `{"<name>": {"value": <v>, "unit": "<u>"}, ...}` in catalogue order.
fn readings_json(readings: &[Reading]) -> Json {
    Json::Obj(
        readings
            .iter()
            .map(|r| {
                let reading =
                    Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]);
                (r.name.to_owned(), reading)
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
pub fn result_line(out: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", readings_json(&out.readings)),
    ])
    .encode()
}

fn digits(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 0.1 => format!("{v:.4}"),
        _ => format!("{v:.6}"),
    }
}

/// One table, metrics down and workloads across, every metric by name
/// with its unit; then what went wrong, if anything did.
pub fn table(title: &str, outcomes: &[Outcome]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let name_w = outcomes
        .iter()
        .flat_map(|o| o.readings.iter().map(|r| r.name.len() + r.unit.len() + 3))
        .max()
        .unwrap_or(24)
        .max(24);
    let col_w = outcomes.iter().map(|o| o.workload.len()).max().unwrap_or(12).max(12);
    let _ = write!(s, "{:name_w$}", "metric [unit]");
    for o in outcomes {
        let _ = write!(s, " {:>col_w$}", o.workload);
    }
    s.push('\n');
    let row = |s: &mut String, label: String, cell: &dyn Fn(&Outcome) -> String| {
        let _ = write!(s, "{label:name_w$}");
        for o in outcomes {
            let _ = write!(s, " {:>col_w$}", cell(o));
        }
        s.push('\n');
    };
    if let Some(first) = outcomes.first() {
        for (i, r) in first.readings.iter().enumerate() {
            row(&mut s, format!("{} [{}]", r.name, r.unit), &|o| {
                o.readings.get(i).map_or_else(|| "-".into(), |r| digits(r.value))
            });
        }
    }
    row(&mut s, "failed_ratio [ratio]".into(), &|o| {
        digits(if o.attempted == 0 { 1.0 } else { o.failed as f64 / o.attempted as f64 })
    });
    row(&mut s, "rounds in flight [count]".into(), &|o| {
        Workload::by_name(o.workload).map_or_else(|| "-".into(), |w| w.in_flight().to_string())
    });
    row(&mut s, "samples [count]".into(), &|o| o.samples.to_string());
    // A percentile above this one rests on fewer than ten samples beyond it.
    row(&mut s, "highest supported percentile".into(), &|o| {
        highest_supported(o.samples as usize).map_or_else(|| "none".into(), |p| format!("p{p}"))
    });
    row(&mut s, "correct".into(), &|o| if o.correct { "yes".into() } else { "NO".into() });
    for o in outcomes.iter().filter(|o| !o.budget.is_empty()) {
        let _ = writeln!(s, "\n{}: self time per round, by span (the latency budget)", o.workload);
        let _ = writeln!(s, "  {:24} {:>12} {:>14}", "span", "spans/round", "self us/round");
        for (name, per_round, self_us) in &o.budget {
            let _ = writeln!(s, "  {name:24} {:>12} {:>14}", digits(*per_round), digits(*self_us));
        }
    }
    for o in outcomes {
        for p in &o.problems {
            let _ = writeln!(s, "!! {}: {p}", o.workload);
        }
    }
    s
}

/// The outcomes of one pass as a JSON object keyed by workload.
pub fn pass_json(environment: Json, outcomes: &[Outcome]) -> Json {
    let workloads = outcomes.iter().map(|o| {
        let mut fields = Vec::new();
        if let Some(w) = Workload::by_name(o.workload) {
            fields.push(("shards".to_owned(), Json::Num(w.shards as f64)));
            fields.push(("connections".to_owned(), Json::Num(w.active_connections() as f64)));
            fields.push(("parked".to_owned(), Json::Num(w.parked as f64)));
            fields.push(("rounds_in_flight".to_owned(), Json::Num(w.in_flight() as f64)));
        }
        fields.extend([
            ("correct".to_owned(), Json::Bool(o.correct)),
            ("attempted".to_owned(), Json::Num(o.attempted as f64)),
            ("failed".to_owned(), Json::Num(o.failed as f64)),
            ("samples".to_owned(), Json::Num(o.samples as f64)),
            ("metrics".to_owned(), readings_json(&o.readings)),
        ]);
        if !o.budget.is_empty() {
            let rows = o.budget.iter().map(|(name, per_round, self_us)| {
                Json::obj([
                    ("span", Json::str(*name)),
                    ("spans_per_round", Json::Num(*per_round)),
                    ("self_us_per_round", Json::Num(*self_us)),
                ])
            });
            fields.push(("budget".to_owned(), Json::Arr(rows.collect())));
        }
        if !o.problems.is_empty() {
            let problems = o.problems.iter().map(Json::str).collect();
            fields.push(("problems".to_owned(), Json::Arr(problems)));
        }
        (o.workload.to_owned(), Json::Obj(fields))
    });
    Json::obj([("environment", environment), ("workloads", Json::Obj(workloads.collect()))])
}

/// Seconds one run of the driver's form measures (`--seconds`): five
/// workloads at 22 runs each fit the driver's time cap with this.
const RUN_SECONDS: f64 = 15.0;

/// `BENCHMARK.json` as the catalogue defines it: the driver's command,
/// the package's directory, the workloads with their reasons, and the
/// metrics. The committed file is this, byte for byte (a test holds them
/// equal); regenerate it with `run.sh manifest > BENCHMARK.json`.
pub fn manifest_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]));
    let e2e = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let layers = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ])
    });
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(e2e.collect())),
        ("per_layer", Json::Arr(layers.collect())),
    ])
}

/// Rewrites member `key` of the JSON object in `path` (creating the file
/// if need be) and leaves every other member as it was. The record
/// always says that no gain is claimed: this benchmark defines the names,
/// it does not compare commits.
///
/// # Errors
///
/// An unreadable, unparsable or unwritable file.
pub fn record(path: &Path, key: &str, value: Json) -> Result<(), String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut members = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text).map_err(|e| at(&e))? {
            Json::Obj(members) => members,
            _ => return Err(at(&"not a JSON object")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(at(&e)),
    };
    let mut set = |key: &str, value: Json| match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => members.push((key.to_owned(), value)),
    };
    set("claim", Json::Null);
    set(key, value);
    std::fs::write(path, Json::Obj(members).pretty()).map_err(|e| at(&e))
}

/// Spread of one end-to-end metric over repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// Median of the runs.
    pub median: f64,
    /// First and third quartile (Python's `statistics.quantiles`).
    pub quartiles: Option<(f64, f64)>,
    /// `(q3 - q1) / median`: what the driver's acceptance rule looks at.
    pub iqr_share: f64,
    /// `(max - min) / median`.
    pub range_share: f64,
    /// The metric's regression bound.
    pub bound: f64,
}

impl Spread {
    /// Whether the runs scatter more than the bound allows: then a
    /// regression of the size of the bound cannot be told from noise.
    pub fn over_bound(&self) -> bool {
        self.iqr_share > self.bound
    }
}

/// Per workload and end-to-end metric, the spread over `runs` (each one
/// untraced pass over the same workloads).
pub fn spreads(runs: &[Vec<Outcome>]) -> Vec<Spread> {
    let Some(first) = runs.first() else { return Vec::new() };
    let mut out = Vec::new();
    for (w, o) in first.iter().enumerate() {
        for (i, def) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> =
                runs.iter().filter_map(|r| Some(r.get(w)?.readings.get(i)?.value)).collect();
            let med = median(&values);
            let q = quartiles(&values);
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let share = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
            out.push(Spread {
                workload: o.workload,
                metric: def.name,
                median: med,
                quartiles: q,
                iqr_share: q.map_or(0.0, |(q1, q3)| share(q3 - q1)),
                range_share: share(hi - lo),
                bound: def.bound,
            });
        }
    }
    out
}

/// The table `repeat` prints.
pub fn spread_table(spreads: &[Spread]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:18} {:22} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for sp in spreads {
        let (q1, q3) =
            sp.quartiles.map_or(("-".into(), "-".into()), |(a, b)| (digits(a), digits(b)));
        let _ = writeln!(
            s,
            "{:18} {:22} {:>12} {:>12} {:>12} {:>7.2}% {:>7.2}% {:>5.0}%{}",
            sp.workload,
            sp.metric,
            digits(sp.median),
            q1,
            q3,
            sp.iqr_share * 100.0,
            sp.range_share * 100.0,
            sp.bound * 100.0,
            if sp.over_bound() { "  << spread over bound" } else { "" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    fn outcome(workload: &'static str, scale: f64) -> Outcome {
        Outcome {
            workload,
            correct: true,
            attempted: 1000,
            failed: 0,
            samples: 1000,
            problems: Vec::new(),
            readings: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| Reading { name: m.name, unit: m.unit, value: (i + 1) as f64 * scale })
                .collect(),
            budget: Vec::new(),
        }
    }

    #[test]
    fn the_result_line_parses_back_with_exactly_the_contract_keys() {
        let line = result_line(&outcome("pair_event", 1.203_4));
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, reading), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(reading.get("unit").and_then(Json::as_str), Some(def.unit));
            assert!(reading.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn the_table_names_every_metric_with_its_unit() {
        let t = table("untraced", &[outcome("pair_event", 1.0), outcome("idle_herd", 2.0)]);
        for m in &END_TO_END {
            assert!(t.contains(&format!("{} [{}]", m.name, m.unit)), "{} missing", m.name);
        }
        assert!(t.contains("failed_ratio [ratio]") && t.contains("idle_herd"));
    }

    #[test]
    fn benchmark_json_is_the_manifest_the_catalogue_defines() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.len() <= 64 * 1024);
        // Not assert_eq: the two texts would fill the screen.
        assert!(text == manifest_json().pretty(), "stale: run.sh manifest > BENCHMARK.json");
    }

    #[test]
    fn record_rewrites_one_member_and_keeps_the_rest() {
        let dir = crate::suite::out_dir(true);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record-test.json");
        std::fs::write(&path, "{\"note\": \"kept\", \"untraced\": 1}").unwrap();
        record(&path, "untraced", Json::Num(2.0)).unwrap();
        record(&path, "traced", Json::Num(3.0)).unwrap();
        let v = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v.get("note"), Some(&Json::str("kept")));
        assert_eq!(v.get("untraced"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("traced"), Some(&Json::Num(3.0)));
        assert_eq!(v.get("claim"), Some(&Json::Null));
        std::fs::write(&path, "[1]").unwrap();
        assert!(record(&path, "untraced", Json::Null).is_err());
    }

    #[test]
    fn spreads_flag_a_metric_that_scatters_more_than_its_bound() {
        let runs: Vec<Vec<Outcome>> =
            [1.0, 1.01, 1.02, 1.5].iter().map(|s| vec![outcome("pair_event", *s)]).collect();
        let sp = spreads(&runs);
        assert_eq!(sp.len(), END_TO_END.len());
        // quantiles([1, 1.01, 1.02, 1.5]) = [1.0025, 1.015, 1.38]
        let first = &sp[0];
        assert!((first.median - 1.015).abs() < 1e-12);
        assert!((first.iqr_share - (1.38 - 1.0025) / 1.015).abs() < 1e-9);
        assert!(first.over_bound());
        assert!(spread_table(&sp).contains("<< spread over bound"));
        let steady: Vec<Vec<Outcome>> = (0..4).map(|_| vec![outcome("pair_event", 1.0)]).collect();
        assert!(spreads(&steady).iter().all(|s| !s.over_bound() && s.range_share == 0.0));
    }
}
