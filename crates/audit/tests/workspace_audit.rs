//! The audit gate, end to end: the real workspace must pass every
//! lint — manifest and AST — and doctored copies of it must fail,
//! proving the rules bite on the sources they ship with, not just on
//! toy fixtures. One test per doctored failure class from the AST
//! pass: a fresh unwrap (panic ratchet), a sleep reachable from the
//! poll loop (blocking-call) and a two-lock cycle (lock-order) — plus
//! the ratchet mechanics around `audit-baseline.toml`.

use std::path::Path;

use cosoft_audit::ast::AstWorkspace;
use cosoft_audit::baseline::{Baseline, BASELINE_PATH};
use cosoft_audit::lints::lint_fault_injection_gating;
use cosoft_audit::rules::blocking::lint_blocking;
use cosoft_audit::rules::lock_order::lint_lock_order;
use cosoft_audit::rules::run_ast_rules;
use cosoft_audit::{run_all_lints, WorkspaceSources};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn real_workspace() -> WorkspaceSources {
    WorkspaceSources::load(&workspace_root()).expect("workspace readable")
}

fn real_baseline() -> Baseline {
    let text = std::fs::read_to_string(workspace_root().join(BASELINE_PATH))
        .expect("committed baseline readable");
    Baseline::parse(&text).expect("committed baseline parses")
}

fn parse(sources: &[(String, String)]) -> AstWorkspace {
    match AstWorkspace::parse(sources) {
        Ok(ws) => ws,
        Err(errors) => panic!("workspace sources failed to parse: {errors:?}"),
    }
}

/// Applies a textual doctoring to one file of the source list,
/// asserting the needle was actually present.
fn doctor(sources: &mut [(String, String)], path: &str, from: &str, to: &str) {
    let (_, text) =
        sources.iter_mut().find(|(p, _)| p == path).unwrap_or_else(|| panic!("no {path}"));
    assert!(text.contains(from), "doctoring needle `{from}` not found in {path}");
    *text = text.replace(from, to);
}

// ------------------------------------------------------------------
// the real tree passes
// ------------------------------------------------------------------

#[test]
fn real_workspace_is_clean() {
    let ws = real_workspace();
    let ast = parse(&ws.all_sources);
    let mut violations = run_all_lints(&ws);
    violations.extend(run_ast_rules(&ast, &real_baseline()));
    assert!(
        violations.is_empty(),
        "workspace has audit violations:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

// ------------------------------------------------------------------
// panic-freedom ratchet
// ------------------------------------------------------------------

/// A fresh unwrap in non-test code of a ratcheted crate pushes the
/// count past the committed baseline and names the site.
#[test]
fn fresh_unwrap_fails_the_ratchet() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    sources.push((
        "crates/net/src/doctored.rs".to_owned(),
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n".to_owned(),
    ));
    let violations = run_ast_rules(&parse(&sources), &real_baseline());
    assert!(
        violations.iter().any(|v| v.rule == "panic-ratchet"
            && v.detail.contains("cosoft-net")
            && v.detail.contains("doctored.rs:2")),
        "ratchet did not flag the fresh unwrap: {violations:?}"
    );
}

/// A baseline entry above the live count is stale and must be lowered:
/// the ratchet is exact in both directions.
#[test]
fn stale_baseline_entry_is_rejected() {
    let ws = real_workspace();
    let baseline = Baseline::parse(
        "[unannotated-panics]\ncosoft-net = 5\ncosoft-server = 0\ncosoft-wire = 0\n",
    )
    .expect("parses");
    let violations = run_ast_rules(&parse(&ws.all_sources), &baseline);
    assert!(
        violations.iter().any(|v| v.rule == "panic-ratchet" && v.detail.contains("lower")),
        "stale baseline was not rejected: {violations:?}"
    );
}

/// `// audit: infallible` without a reason is itself a violation, and
/// an annotation with no panic site under it is dangling.
#[test]
fn malformed_and_dangling_annotations_are_rejected() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    sources.push((
        "crates/net/src/doctored.rs".to_owned(),
        "pub fn f(x: Option<u32>) -> u32 {\n    // audit: infallible\n    x.unwrap()\n}\n\
         pub fn g() -> u32 {\n    // audit: infallible — nothing here can panic\n    7\n}\n"
            .to_owned(),
    ));
    let violations = run_ast_rules(&parse(&sources), &real_baseline());
    assert!(
        violations.iter().any(|v| v.rule == "audit-annotation" && v.detail.contains("reason")),
        "missing-reason annotation was not rejected: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.rule == "audit-annotation" && v.detail.contains("no panic")),
        "dangling annotation was not rejected: {violations:?}"
    );
}

/// Unwraps (and annotations) inside `#[cfg(test)]` code are invisible
/// to the ratchet.
#[test]
fn test_code_is_exempt_from_the_ratchet() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    sources.push((
        "crates/net/src/doctored.rs".to_owned(),
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        // audit: infallible\n        \
         None::<u32>.unwrap();\n    }\n}\n"
            .to_owned(),
    ));
    let violations = run_ast_rules(&parse(&sources), &real_baseline());
    assert!(
        !violations.iter().any(|v| v.file.contains("doctored")),
        "test-only code tripped the ratchet: {violations:?}"
    );
}

// ------------------------------------------------------------------
// blocking-call analysis
// ------------------------------------------------------------------

/// A `thread::sleep` doctored into the poll loop is reachable from
/// `PollThread::run` and rejected.
#[test]
fn sleep_reachable_from_poll_loop_fails() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    doctor(
        &mut sources,
        "crates/net/src/poll.rs",
        "let mut park = MIN_PARK;",
        "let mut park = MIN_PARK;\n        std::thread::sleep(std::time::Duration::from_millis(1));",
    );
    let violations = lint_blocking(&parse(&sources));
    assert!(
        violations.iter().any(|v| v.rule == "blocking-call" && v.detail.contains("sleep")),
        "sleep in the poll loop was not flagged: {violations:?}"
    );
}

/// Stripping the sanction annotation from `flush` exposes the lock
/// held across the socket write.
#[test]
fn unannotated_lock_across_write_fails() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    doctor(
        &mut sources,
        "crates/net/src/poll.rs",
        "// audit: lock-across-write —",
        "// (annotation stripped) —",
    );
    let violations = lint_blocking(&parse(&sources));
    assert!(
        violations.iter().any(|v| v.rule == "lock-across-write" && v.detail.contains("flush")),
        "lock held across the socket write was not flagged: {violations:?}"
    );
}

// ------------------------------------------------------------------
// lock-order analysis
// ------------------------------------------------------------------

/// Two functions acquiring two mutexes in opposite orders form a cycle
/// in the static acquisition graph.
#[test]
fn two_lock_cycle_fails() {
    let ws = real_workspace();
    let mut sources = ws.all_sources.clone();
    sources.push((
        "crates/net/src/doctored.rs".to_owned(),
        "struct D {\n    a: Mutex<u32>,\n    b: Mutex<u64>,\n}\n\
         impl D {\n\
         \x20   fn one_way(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n    }\n\
         \x20   fn other_way(&self) {\n        let h = self.b.lock();\n        let g = self.a.lock();\n    }\n\
         }\n"
            .to_owned(),
    ));
    let violations = lint_lock_order(&parse(&sources));
    assert!(
        violations.iter().any(|v| v.rule == "lock-order" && v.detail.contains("cycle")),
        "opposite-order acquisitions were not flagged: {violations:?}"
    );
}

// ------------------------------------------------------------------
// fault-injection feature gating (manifest lint)
// ------------------------------------------------------------------

/// Turning the chaos feature into a default feature of `cosoft-net`
/// would silently ship the injector in release builds.
#[test]
fn default_fault_injection_feature_fails() {
    let ws = real_workspace();
    let mut manifests = ws.manifests.clone();
    doctor(
        &mut manifests,
        "crates/net/Cargo.toml",
        "fault-injection = []",
        "default = [\"fault-injection\"]\nfault-injection = []",
    );
    let violations = lint_fault_injection_gating(&manifests);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "fault-injection-gating"
                && v.detail.contains("default features reach")),
        "default-feature doctoring was not flagged: {violations:?}"
    );
}

/// A release-facing dependency declaration that force-enables the
/// feature is just as bad as a default feature.
#[test]
fn dependency_forcing_fault_injection_fails() {
    let ws = real_workspace();
    let mut manifests = ws.manifests.clone();
    manifests.push((
        "crates/apps/Cargo.toml.doctored/Cargo.toml".to_owned(),
        "[dependencies]\ncosoft-net = { path = \"../net\", features = [\"fault-injection\"] }\n"
            .to_owned(),
    ));
    let violations = lint_fault_injection_gating(&manifests);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "fault-injection-gating" && v.detail.contains("unconditionally")),
        "forced dependency feature was not flagged: {violations:?}"
    );
}

/// Deleting the feature declaration must fail too, or the other legs
/// of the lint would pass vacuously forever after a rename.
#[test]
fn removed_fault_injection_declaration_fails() {
    let ws = real_workspace();
    let mut manifests = ws.manifests.clone();
    doctor(&mut manifests, "crates/net/Cargo.toml", "fault-injection = []", "");
    let violations = lint_fault_injection_gating(&manifests);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "fault-injection-gating" && v.detail.contains("no longer declared")),
        "removed declaration was not flagged: {violations:?}"
    );
}
