//! AST-level audit rules and their shared infrastructure.
//!
//! Each rule is a pure function from an [`AstWorkspace`] (plus, for the
//! ratchet, a [`Baseline`]) to a list of [`Violation`]s, so negative
//! tests can feed doctored in-memory workspaces. The rules:
//!
//! * [`panics`] — the panic-freedom ratchet over `cosoft-server`,
//!   `cosoft-net`, `cosoft-wire`: every `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/direct index in non-test code is annotated
//!   `// audit: infallible — <reason>` or counted against the
//!   committed `audit-baseline.toml`, which may only shrink.
//! * [`blocking`] — walks the call graph reachable from
//!   `PollThread::run` and rejects `std::thread::sleep`, blocking
//!   `recv`, and locks held across socket writes (the PR 7 poll-loop
//!   invariants).
//! * [`lock_order`] — extracts the static mutex-acquisition graph
//!   across `cosoft-server`/`cosoft-net` and fails on cycles.
//!
//! What the compiler or clippy refuses has no rule here: a call into a
//! table the core only lends out by `&` (borrow checker) or into the
//! crate-private shard surface (`pub(crate)`), a crate without the lint
//! headers (`[workspace.lints]`), a catch-all arm in a match that
//! dispatches on `Message` (`clippy::wildcard_enum_match_arm`, denied on
//! each such function).
//!
//! # Annotation grammar
//!
//! A suppression is a line comment, on the offending line or the line
//! directly above it:
//!
//! ```text
//! // audit: <key> — <reason>
//! ```
//!
//! with `<key>` one of `infallible` (panic sites proven unreachable)
//! or `lock-across-write` (a lock deliberately held across a socket
//! write), and a non-empty `<reason>`. `--` is accepted in place of the
//! em dash. Malformed annotations and `infallible` annotations that
//! suppress nothing are themselves violations; annotations inside test
//! code are ignored entirely.

pub mod blocking;
pub mod lock_order;
pub mod panics;

use std::collections::HashMap;

use crate::ast::{AstFile, AstWorkspace, Comment, FnDef};
use crate::baseline::Baseline;
use crate::lints::Violation;

/// The ratcheted crates: `(crate name, source-path prefix)`. Test code
/// (`#[cfg(test)]`, `#[test]`, `tests/` trees outside these prefixes)
/// is exempt.
pub const RATCHETED_CRATES: &[(&str, &str)] = &[
    ("cosoft-net", "crates/net/src/"),
    ("cosoft-server", "crates/server/src/"),
    ("cosoft-wire", "crates/wire/src/"),
];

/// The crate a workspace-relative source path belongs to, if ratcheted.
pub fn ratcheted_crate(path: &str) -> Option<&'static str> {
    RATCHETED_CRATES.iter().find(|(_, p)| path.starts_with(p)).map(|(c, _)| *c)
}

/// Annotation keys the grammar accepts.
pub const ANNOTATION_KEYS: &[&str] = &["infallible", "lock-across-write"];

/// One parsed `// audit:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Source line of the comment.
    pub line: u32,
    /// The key (`infallible` or `lock-across-write`).
    pub key: String,
    /// The justification text.
    pub reason: String,
}

/// Parses the `// audit:` annotations out of a file's comments.
/// Returns the well-formed annotations and `(line, problem)` for each
/// malformed one.
pub fn parse_annotations(comments: &[Comment]) -> (Vec<Annotation>, Vec<(u32, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for (line, text) in comments {
        let Some(rest) = text.trim().strip_prefix("audit:") else { continue };
        let rest = rest.trim();
        let (key, reason) = match rest.split_once('—').or_else(|| rest.split_once("--")) {
            Some((k, r)) => (k.trim(), r.trim()),
            None => (rest, ""),
        };
        if !ANNOTATION_KEYS.contains(&key) {
            bad.push((
                *line,
                format!(
                    "unknown annotation key `{key}` (expected one of: {})",
                    ANNOTATION_KEYS.join(", ")
                ),
            ));
        } else if reason.is_empty() {
            bad.push((
                *line,
                format!("annotation `audit: {key}` is missing its `— <reason>` justification"),
            ));
        } else {
            ok.push(Annotation { line: *line, key: key.to_owned(), reason: reason.to_owned() });
        }
    }
    (ok, bad)
}

/// Line ranges `(start, end)` (inclusive) covered by test code in
/// `file` — used to ignore annotations that live in test code.
pub fn test_line_ranges(file: &AstFile) -> Vec<(u32, u32)> {
    file.test_ranges.clone()
}

/// Whether `line` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|(a, b)| (*a..=*b).contains(&line))
}

/// Struct-field and type-alias tables for resolving receiver chains
/// like `self.conns` or `conn.outbox` to a type.
#[derive(Debug, Default)]
pub struct TypeEnv {
    /// struct name → field name → normalized type text.
    fields: HashMap<String, HashMap<String, String>>,
    /// alias name → normalized target type text.
    aliases: HashMap<String, String>,
}

impl TypeEnv {
    /// Builds the environment from a set of parsed files.
    pub fn from_files<'a>(files: impl Iterator<Item = &'a AstFile>) -> TypeEnv {
        let mut env = TypeEnv::default();
        for file in files {
            for s in &file.structs {
                let entry = env.fields.entry(s.name.clone()).or_default();
                for (name, ty) in &s.fields {
                    entry.insert(name.clone(), ty.clone());
                }
            }
            for (name, target) in &file.aliases {
                env.aliases.insert(name.clone(), target.clone());
            }
        }
        env
    }

    /// Whether `name` is a struct the environment knows.
    pub fn knows_struct(&self, name: &str) -> bool {
        self.fields.contains_key(name)
    }

    /// Strips references, lifetimes, `mut`, and smart-pointer wrappers
    /// (`Arc`/`Rc`/`Box`), and expands type aliases, repeatedly until a
    /// fixpoint: `&'a Arc<ConnMap>` → the aliased `Mutex<...>` text.
    pub fn expand(&self, ty: &str) -> String {
        let mut cur = ty.trim().to_owned();
        for _ in 0..16 {
            let before = cur.clone();
            while let Some(stripped) = cur.strip_prefix('&') {
                cur = stripped.trim_start().to_owned();
            }
            if cur.starts_with('\'') {
                cur = cur.split_once(' ').map(|(_, rest)| rest.to_owned()).unwrap_or_default();
            }
            if let Some(stripped) = cur.strip_prefix("mut ") {
                cur = stripped.to_owned();
            }
            for wrapper in ["Arc", "Rc", "Box"] {
                if let Some(inner) = cur
                    .strip_prefix(wrapper)
                    .and_then(|r| r.strip_prefix('<'))
                    .and_then(|r| r.strip_suffix('>'))
                {
                    cur = inner.to_owned();
                }
            }
            if let Some(target) = self.aliases.get(cur.as_str()) {
                cur = target.clone();
            }
            if cur == before {
                break;
            }
        }
        cur
    }

    /// The expanded type of `owner.field`, if known.
    pub fn field_type(&self, owner: &str, field: &str) -> Option<String> {
        self.fields.get(owner)?.get(field).map(|t| self.expand(t))
    }

    /// Resolves a receiver chain (e.g. `["self", "conns"]`) to an
    /// expanded type, using `f`'s owner for `self` and its parameter
    /// types for named bases. Returns `None` when the base is a local
    /// binding the static environment cannot see.
    pub fn resolve_chain(&self, chain: &[String], f: &FnDef) -> Option<String> {
        let (base, rest) = chain.split_first()?;
        let mut cur = if base == "self" {
            f.owner.clone()?
        } else {
            let (_, ty) = f.params.iter().find(|(name, _)| name == base)?;
            self.expand(ty)
        };
        for segment in rest {
            let head = head_type_name(&cur);
            cur = self.field_type(&head, segment)?;
        }
        Some(self.expand(&cur))
    }
}

/// The leading type name of an expanded type text (`HashMap<K,V>` →
/// `HashMap`).
pub fn head_type_name(ty: &str) -> String {
    ty.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect()
}

/// The binding name of a `let [mut] name = ...` statement, if `stmt`
/// is one (used by the guard-scope scans).
pub fn let_bound_name(stmt: &[crate::ast::Tree]) -> Option<String> {
    use crate::ast::Tree;
    let mut i = 0;
    if stmt.first().and_then(Tree::as_ident) != Some("let") {
        return None;
    }
    i += 1;
    if stmt.get(i).and_then(Tree::as_ident) == Some("mut") {
        i += 1;
    }
    stmt.get(i).and_then(Tree::as_ident).map(str::to_owned)
}

/// A function's identity in a call-graph table: `(impl owner, name)`.
pub type FnKey = (Option<String>, String);

/// The [`FnKey`]s a call/method site may statically resolve to:
/// `self.m()` via the caller's owner, `Self::f` / `Type::f` paths,
/// free functions, and field/parameter receivers via [`TypeEnv`].
/// Unresolvable receivers (locals, call results) contribute nothing.
pub fn callee_keys(site: &crate::ast::Site, caller: &FnDef, env: &TypeEnv) -> Vec<FnKey> {
    use crate::ast::Site;
    match site {
        Site::Call { path, .. } => match path.as_slice() {
            [name] => vec![(None, name.clone())],
            [ty, name] if ty == "Self" => vec![(caller.owner.clone(), name.clone())],
            [ty, name] if ty.chars().next().is_some_and(char::is_uppercase) => {
                vec![(Some(ty.clone()), name.clone())]
            }
            _ => Vec::new(),
        },
        Site::Method { name, recv, .. } => {
            if recv == &["self".to_owned()] {
                vec![(caller.owner.clone(), name.clone())]
            } else if let Some(ty) = env.resolve_chain(recv, caller) {
                vec![(Some(head_type_name(&ty)), name.clone())]
            } else {
                Vec::new()
            }
        }
        _ => Vec::new(),
    }
}

/// Runs every AST rule over the workspace.
pub fn run_ast_rules(ws: &AstWorkspace, baseline: &Baseline) -> Vec<Violation> {
    let mut v = Vec::new();
    v.extend(panics::lint_panic_ratchet(ws, baseline));
    v.extend(blocking::lint_blocking(ws));
    v.extend(lock_order::lint_lock_order(ws));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar() {
        let comments = vec![
            (1, " audit: infallible — length checked above".to_owned()),
            (2, " audit: infallible -- ascii dashes fine".to_owned()),
            (3, " audit: infallible".to_owned()),
            (4, " audit: sorcery — no such key".to_owned()),
            (5, " plain comment".to_owned()),
        ];
        let (ok, bad) = parse_annotations(&comments);
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].reason, "length checked above");
        assert_eq!(bad.len(), 2);
        assert!(bad[0].1.contains("missing"));
        assert!(bad[1].1.contains("unknown annotation key"));
    }

    #[test]
    fn type_env_resolution() {
        use crate::ast::AstFile;
        let f = AstFile::parse(
            "crates/net/src/x.rs",
            "type ConnMap = Arc<Mutex<HashMap<ConnId, ConnShared>>>;\nstruct Host { conns: ConnMap }\nimpl Host { fn go(&self, conn: &PollConn) {} }\nstruct PollConn { outbox: Arc<Mutex<Outbox>> }\n",
        )
        .expect("parses");
        let env = TypeEnv::from_files(std::iter::once(&f));
        let go = &f.fns[0];
        assert_eq!(
            env.resolve_chain(&["self".into(), "conns".into()], go).as_deref(),
            Some("Mutex<HashMap<ConnId,ConnShared>>")
        );
        assert_eq!(
            env.resolve_chain(&["conn".into(), "outbox".into()], go).as_deref(),
            Some("Mutex<Outbox>")
        );
        assert_eq!(env.resolve_chain(&["local".into(), "outbox".into()], go), None);
    }
}
