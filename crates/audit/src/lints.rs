//! The manifest lint, and the plumbing every rule shares: the
//! [`Violation`] type and the [`WorkspaceSources`] loader.
//!
//! Every lint is a pure function from source text to a list of
//! [`Violation`]s, so the negative tests can feed doctored in-memory
//! sources without touching the filesystem; only [`WorkspaceSources::
//! load`] and the `cosoft-audit` binary do I/O.
//!
//! The wire protocol needs no lint: `crates/wire/src/message.rs` declares
//! each message kind once, in a table the `Message` enum, the codec and
//! the kind names are all generated from. The source-level rules live
//! in [`crate::rules`], on the parsed AST.

use std::fmt;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (e.g. `fault-injection-gating`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// Human-readable description of the problem.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.file, self.detail)
    }
}

/// The source files the lints operate on, keyed by their workspace
/// role. Construct directly for tests, or via [`WorkspaceSources::load`]
/// for the real tree.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceSources {
    /// `(workspace-relative path, contents)` of every `.rs` file in the
    /// workspace (the AST rules' input).
    pub all_sources: Vec<(String, String)>,
    /// `(workspace-relative path, contents)` of every `Cargo.toml` in
    /// the workspace (feature-gating scan).
    pub manifests: Vec<(String, String)>,
}

impl WorkspaceSources {
    /// Reads the workspace rooted at `root` from disk.
    ///
    /// # Errors
    ///
    /// Fails when a directory or source file is unreadable.
    pub fn load(root: &Path) -> std::io::Result<WorkspaceSources> {
        let mut ws = WorkspaceSources::default();
        let mut files = Vec::new();
        collect_rs_files(root, root, &mut files)?;
        files.sort();
        for rel in files {
            let text = std::fs::read_to_string(root.join(&rel))?;
            if rel.ends_with("Cargo.toml") {
                ws.manifests.push((rel, text));
            } else {
                ws.all_sources.push((rel, text));
            }
        }
        Ok(ws)
    }
}

/// Whether `dir` holds a manifest with a `[workspace]` table. Below the
/// audited root that marks a workspace of its own — `benchmark/`, with
/// the third-party stand-ins under it — which this workspace's rules do
/// not govern.
pub fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

/// Recursively collects workspace-relative `.rs` and `Cargo.toml`
/// paths, skipping build output, VCS metadata and nested workspaces.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_workspace_root(&path) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

// ---- feature-gating lint ---------------------------------------------------

/// The manifest that owns the chaos-testing feature.
const NET_MANIFEST: &str = "crates/net/Cargo.toml";
/// The feature that must never reach a release build implicitly.
const FAULT_FEATURE: &str = "fault-injection";

/// Parses the `[features]` table of a manifest into
/// `(feature, enabled entries)` pairs. Line-oriented: the workspace
/// writes one feature per line, which `cargo fmt` conventions keep true.
fn manifest_features(manifest: &str) -> Vec<(String, Vec<String>)> {
    let mut features = Vec::new();
    let mut section = String::new();
    for line in manifest.lines() {
        let code = line.split('#').next().unwrap_or("").trim();
        if code.starts_with('[') {
            section = code.trim_start_matches('[').trim_end_matches(']').to_owned();
            continue;
        }
        if section != "features" || code.is_empty() {
            continue;
        }
        let Some((name, rest)) = code.split_once('=') else { continue };
        let name = name.trim().trim_matches('"').to_owned();
        let mut entries = Vec::new();
        let mut remaining = rest;
        while let Some(open) = remaining.find('"') {
            let after = &remaining[open + 1..];
            let Some(close) = after.find('"') else { break };
            entries.push(after[..close].to_owned());
            remaining = &after[close + 1..];
        }
        features.push((name, entries));
    }
    features
}

/// Whether `section` declares dependencies that reach release builds —
/// `[dependencies]`, `[dependencies.x]`, `[workspace.dependencies]`,
/// `[target.'…'.dependencies]`, `[build-dependencies]` — but not any
/// `dev-dependencies` flavor, which never ships.
fn is_release_dependency_section(section: &str) -> bool {
    if section.contains("dev-dependencies") {
        return false;
    }
    section == "dependencies"
        || section.starts_with("dependencies.")
        || section.ends_with("dependencies")
        || section.contains("dependencies.")
}

/// Rule `fault-injection-gating`: the chaos-test fault-injection
/// surface stays out of release builds. Three legs:
///
/// * `crates/net/Cargo.toml` still declares the `fault-injection`
///   feature (so the other legs cannot rot into vacuous passes);
/// * no manifest's `default` feature set reaches `fault-injection`,
///   directly or through intermediate features;
/// * no release-facing dependency declaration (anything but
///   `dev-dependencies`) turns the feature on unconditionally.
pub fn lint_fault_injection_gating(manifests: &[(String, String)]) -> Vec<Violation> {
    let mut v = Vec::new();
    match manifests.iter().find(|(p, _)| p == NET_MANIFEST) {
        None => v.push(Violation {
            rule: "fault-injection-gating",
            file: NET_MANIFEST.into(),
            detail: "manifest missing from the workspace scan".into(),
        }),
        Some((_, text)) => {
            if !manifest_features(text).iter().any(|(name, _)| name == FAULT_FEATURE) {
                v.push(Violation {
                    rule: "fault-injection-gating",
                    file: NET_MANIFEST.into(),
                    detail: format!(
                        "`{FAULT_FEATURE}` feature is no longer declared — the chaos tests \
                         and this lint both depend on it"
                    ),
                });
            }
        }
    }
    for (path, text) in manifests {
        // Leg 2: expand `default` transitively through the manifest's
        // own feature table.
        let features = manifest_features(text);
        let mut queue = vec!["default".to_owned()];
        let mut seen = vec![];
        while let Some(name) = queue.pop() {
            if seen.contains(&name) {
                continue;
            }
            if let Some((_, entries)) = features.iter().find(|(n, _)| *n == name) {
                for entry in entries {
                    if entry.contains(FAULT_FEATURE) {
                        v.push(Violation {
                            rule: "fault-injection-gating",
                            file: path.clone(),
                            detail: format!(
                                "default features reach `{entry}` (via `{name}`) — \
                                 `{FAULT_FEATURE}` must stay opt-in"
                            ),
                        });
                    } else {
                        queue.push(entry.clone());
                    }
                }
            }
            seen.push(name);
        }
        // Leg 3: release-facing dependency declarations must not force
        // the feature on.
        let mut section = String::new();
        for line in text.lines() {
            let code = line.split('#').next().unwrap_or("").trim();
            if code.starts_with('[') {
                section = code.trim_start_matches('[').trim_end_matches(']').to_owned();
                continue;
            }
            if is_release_dependency_section(&section) && code.contains(FAULT_FEATURE) {
                v.push(Violation {
                    rule: "fault-injection-gating",
                    file: path.clone(),
                    detail: format!(
                        "dependency declaration in `[{section}]` enables `{FAULT_FEATURE}` \
                         unconditionally: `{code}`"
                    ),
                });
            }
        }
    }
    v
}

/// Runs the manifest lint over the workspace sources. The AST rules
/// (panic ratchet, blocking calls, lock order) run separately via
/// [`crate::rules::run_ast_rules`].
pub fn run_all_lints(ws: &WorkspaceSources) -> Vec<Violation> {
    lint_fault_injection_gating(&ws.manifests)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET_TOML: &str = r#"
[package]
name = "cosoft-net"

[features]
# Chaos-test surface.
fault-injection = []

[dependencies]
cosoft-wire = { path = "../wire" }
"#;

    fn manifests(extra: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut m = vec![("crates/net/Cargo.toml".to_owned(), NET_TOML.to_owned())];
        m.extend(extra.iter().map(|(p, t)| ((*p).to_owned(), (*t).to_owned())));
        m
    }

    #[test]
    fn gated_fault_injection_passes() {
        let m = manifests(&[(
            "Cargo.toml",
            "[features]\nfault-injection = [\"cosoft-net/fault-injection\"]\n\
             [dependencies]\ncosoft-net = { path = \"crates/net\" }\n\
             [dev-dependencies]\ncosoft-net = { path = \"crates/net\", \
             features = [\"fault-injection\"] }\n",
        )]);
        assert!(lint_fault_injection_gating(&m).is_empty());
    }

    #[test]
    fn missing_feature_declaration_is_reported() {
        let m = vec![(
            "crates/net/Cargo.toml".to_owned(),
            NET_TOML.replace("fault-injection = []", ""),
        )];
        let v = lint_fault_injection_gating(&m);
        assert!(v.iter().any(|v| v.detail.contains("no longer declared")), "got {v:?}");
    }

    #[test]
    fn missing_net_manifest_is_reported() {
        let v = lint_fault_injection_gating(&[]);
        assert!(v.iter().any(|v| v.detail.contains("missing from the workspace scan")));
    }

    #[test]
    fn default_feature_reaching_fault_injection_is_reported() {
        let m = manifests(&[(
            "Cargo.toml",
            "[features]\ndefault = [\"full\"]\nfull = [\"cosoft-net/fault-injection\"]\n",
        )]);
        let v = lint_fault_injection_gating(&m);
        assert!(
            v.iter().any(|v| v.rule == "fault-injection-gating"
                && v.detail.contains("default features reach")),
            "got {v:?}"
        );
    }

    #[test]
    fn release_dependency_enabling_fault_injection_is_reported() {
        let m = manifests(&[(
            "crates/apps/Cargo.toml",
            "[dependencies]\ncosoft-net = { path = \"../net\", \
             features = [\"fault-injection\"] }\n",
        )]);
        let v = lint_fault_injection_gating(&m);
        assert!(v.iter().any(|v| v.detail.contains("unconditionally")), "got {v:?}");
    }

    #[test]
    fn dev_dependency_enabling_fault_injection_is_fine() {
        let m = manifests(&[(
            "crates/apps/Cargo.toml",
            "[dev-dependencies]\ncosoft-net = { path = \"../net\", \
             features = [\"fault-injection\"] }\n",
        )]);
        assert!(lint_fault_injection_gating(&m).is_empty());
    }
}
