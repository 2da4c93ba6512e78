//! What the benchmark reads about the machine and its own process:
//! `/proc` for CPU time, peak memory and the descriptor limit, and the
//! environment block every report carries.

use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second. `/proc/self/stat` counts in these;
/// Linux has fixed `USER_HZ` at 100 on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// CPU time of the process's live threads so far, in milliseconds: the
/// scheduler's per-task run time (`/proc/self/task/*/schedstat`,
/// nanoseconds), which is exact where `/proc/self/stat` counts in 10 ms
/// ticks — a tenth of what one short window spends. A thread that has
/// exited no longer counts, so take differences only over spans in which
/// no thread ends; the measured windows are such spans. Falls back to the
/// tick counters where the kernel keeps no schedstat.
pub fn cpu_ms() -> f64 {
    let run_ns: Option<u64> = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .filter_map(Result::ok)
            .map(|t| {
                let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
                stat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum()
    });
    match run_ns {
        Some(ns) if ns > 0 => ns as f64 / 1e6,
        _ => cpu_ms_from_ticks(),
    }
}

fn cpu_ms_from_ticks() -> f64 {
    let stat = proc_file("stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 1000.0 / USER_HZ
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts the `VmHWM` high-water mark at the current resident size, so
/// that [`peak_rss_mib`] reads the peak of what follows and not of an
/// earlier workload measured by the same process. Best effort: where the
/// kernel refuses, the mark simply stays.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Soft limit on open file descriptors, from `/proc/self/limits`.
pub fn fd_limit() -> Option<u64> {
    proc_file("limits")
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The environment block: enough to tell whether two reports are
/// comparable.
pub fn environment(seed: u64, window_s: f64, warmup_s: f64) -> Json {
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        // Of the checkout the binary was built from; null where that is
        // not a git repository (a driver's checkout is not).
        (
            "git_rev",
            text(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short=12", "HEAD"],
            )),
        ),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(Json::Null, |n| Json::Num(n.get() as f64)),
        ),
        ("io_threads", Json::Num(crate::sut::IO_THREADS as f64)),
        ("fd_limit", fd_limit().map_or(Json::Null, |n| Json::Num(n as f64))),
        ("seed", Json::Num(seed as f64)),
        ("window_s", Json::Num(window_s)),
        ("warmup_s", Json::Num(warmup_s)),
        ("link", Json::str("loopback (127.0.0.1); no real network link is crossed")),
        ("registry_crates", Json::str(registry_crates())),
    ])
}

/// Where the build took bytes, crossbeam, parking_lot and rand from, as
/// `run.sh` told the compiler: numbers of a `stubs` build compare only
/// with other `stubs` builds (the event channel and every lock differ).
pub fn registry_crates() -> &'static str {
    match option_env!("COSOFT_BENCH_DEPS") {
        Some("registry") => "registry",
        Some("stubs") => "stubs (std-only stand-ins under benchmark/stubs/)",
        _ => "unknown (not built through run.sh)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mib() > 0.5);
        assert!(fd_limit().is_some_and(|n| n >= 64));
        let before = cpu_ms();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() - before >= 30.0, "60 ms of spinning must show as CPU time");
    }

    #[test]
    fn the_environment_block_names_the_run() {
        let env = environment(1994, 10.0, 1.5);
        assert_eq!(env.get("seed").and_then(Json::as_f64), Some(1994.0));
        assert_eq!(env.get("io_threads").and_then(Json::as_f64), Some(1.0));
        assert!(env.get("link").and_then(Json::as_str).is_some_and(|l| l.contains("loopback")));
        assert!(env.get("rustc").and_then(Json::as_str).is_some_and(|v| v.starts_with("rustc")));
    }
}
