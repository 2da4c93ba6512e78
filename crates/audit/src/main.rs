//! The `cosoft-audit` binary: runs every workspace lint — the
//! fault-injection manifest check and the AST rules (panic-freedom
//! ratchet, blocking-call, lock-order) — against the real source tree
//! and exits non-zero on any violation.
//!
//! Usage: `cosoft-audit [--panic-counts] [workspace-root]` — with no
//! root argument the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` containing a
//! `[workspace]` section. `scripts/check.sh` and the CI `audit` job
//! run it via `cargo run -p cosoft-audit`.
//!
//! `--panic-counts` prints every unannotated panic site and the
//! per-crate totals instead of auditing — the numbers to copy into
//! `audit-baseline.toml` when ratcheting it down.

use std::path::PathBuf;
use std::process::ExitCode;

use cosoft_audit::ast::AstWorkspace;
use cosoft_audit::baseline::{Baseline, BASELINE_PATH};
use cosoft_audit::lints::is_workspace_root;
use cosoft_audit::rules::panics::unannotated_panic_sites;
use cosoft_audit::rules::run_ast_rules;
use cosoft_audit::{run_all_lints, Violation, WorkspaceSources};

fn workspace_root(args: &[String]) -> Option<PathBuf> {
    if let Some(arg) = args.first() {
        return Some(PathBuf::from(arg));
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let panic_counts = args.iter().any(|a| a == "--panic-counts");
    args.retain(|a| a != "--panic-counts");
    let Some(root) = workspace_root(&args) else {
        eprintln!("cosoft-audit: no workspace root found (pass it as the first argument)");
        return ExitCode::FAILURE;
    };
    let ws = match WorkspaceSources::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("cosoft-audit: failed to read workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let ast = match AstWorkspace::parse(&ws.all_sources) {
        Ok(ast) => ast,
        Err(errors) => {
            for (path, e) in &errors {
                eprintln!("[ast-parse] {path}: {e}");
            }
            eprintln!("cosoft-audit: {} file(s) failed to parse", errors.len());
            return ExitCode::FAILURE;
        }
    };
    if panic_counts {
        let sites = unannotated_panic_sites(&ast);
        let mut counts = std::collections::BTreeMap::new();
        for site in &sites {
            println!("{}:{} {}", site.file, site.line, site.what);
            *counts.entry(site.crate_name).or_insert(0u64) += 1;
        }
        println!("[unannotated-panics]");
        for (name, _) in cosoft_audit::rules::RATCHETED_CRATES {
            println!("{name} = {}", counts.get(name).copied().unwrap_or(0));
        }
        return ExitCode::SUCCESS;
    }
    let mut violations = run_all_lints(&ws);
    match std::fs::read_to_string(root.join(BASELINE_PATH)) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(baseline) => violations.extend(run_ast_rules(&ast, &baseline)),
            Err(e) => violations.push(Violation {
                rule: "panic-ratchet",
                file: BASELINE_PATH.into(),
                detail: format!("baseline failed to parse: {e}"),
            }),
        },
        Err(e) => violations.push(Violation {
            rule: "panic-ratchet",
            file: BASELINE_PATH.into(),
            detail: format!(
                "missing baseline file ({e}) — run `cargo run -p cosoft-audit -- \
                 --panic-counts` and commit the counts"
            ),
        }),
    }
    if violations.is_empty() {
        println!("cosoft-audit: OK ({} sources parsed)", ws.all_sources.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("cosoft-audit: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
