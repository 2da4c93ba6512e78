//! Rule `dispatch-coverage`: no `match` in the server that dispatches
//! on `Message` contains a wildcard or lowercase-binding arm that could
//! silently swallow a kind.
//!
//! That every variant has an arm needs no rule: without a catch-all arm
//! the compiler's exhaustiveness check refuses a `match` that misses
//! one. Arm analysis runs on match bodies in the token stream, so a
//! `_ =>` in a comment does not fail the build. Matches over other types
//! keep their wildcard arms; only matches whose patterns name `Message`
//! variants are constrained.

use crate::ast::{AstWorkspace, Delim, Tree};
use crate::lints::Violation;

/// Where the server dispatch lives.
const SERVER_RS: &str = "crates/server/src/server.rs";

/// Rule `dispatch-coverage`: see the module docs.
pub fn lint_dispatch_coverage(ws: &AstWorkspace) -> Vec<Violation> {
    let Some(server) = ws.file(SERVER_RS) else {
        return Vec::new();
    };
    let aliases = message_aliases(&server.trees);
    let mut violations = Vec::new();
    check_match_arms(&server.trees, &aliases, &mut violations);
    violations
}

/// `use Message as X;` aliases in a token forest, plus `Message`
/// itself.
fn message_aliases(trees: &[Tree]) -> Vec<String> {
    let mut aliases = vec!["Message".to_owned()];
    collect_aliases(trees, &mut aliases);
    aliases
}

fn collect_aliases(trees: &[Tree], out: &mut Vec<String>) {
    for window_start in 0..trees.len() {
        if let [Tree::Ident(m, _), Tree::Ident(as_kw, _), Tree::Ident(alias, _)] =
            &trees[window_start..trees.len().min(window_start + 3)]
        {
            if m == "Message" && as_kw == "as" && !out.contains(alias) {
                out.push(alias.clone());
            }
        }
    }
    for t in trees {
        if let Tree::Group(_, inner, _) = t {
            collect_aliases(inner, out);
        }
    }
}

/// Finds `match` bodies whose arm patterns name `Message` variants and
/// flags wildcard/binding arms inside them; recurses everywhere.
fn check_match_arms(trees: &[Tree], aliases: &[String], out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].as_ident() == Some("match") {
            // The match body is the first top-level brace group after
            // the scrutinee (struct literals cannot appear unparenthesized
            // in a scrutinee, so this group is the body).
            let mut j = i + 1;
            while j < trees.len() && !matches!(trees[j], Tree::Group(Delim::Brace, ..)) {
                j += 1;
            }
            if let Some(Tree::Group(Delim::Brace, body, _)) = trees.get(j) {
                analyze_match_body(body, aliases, out);
            }
        }
        if let Tree::Group(_, inner, _) = &trees[i] {
            check_match_arms(inner, aliases, out);
        }
        i += 1;
    }
}

/// One match body: splits arms at top-level `pattern => body` pairs and
/// flags wildcard/binding arms when any sibling arm names a `Message`
/// variant.
fn analyze_match_body(body: &[Tree], aliases: &[String], out: &mut Vec<Violation>) {
    let mut arms: Vec<&[Tree]> = Vec::new(); // pattern token runs
    let mut start = 0usize;
    let mut i = 0usize;
    while i < body.len() {
        // `=>` at top level ends a pattern.
        if body[i].is_punct('=') && body.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            arms.push(&body[start..i]);
            // Skip the arm body: a brace group, or tokens until a
            // top-level comma.
            i += 2;
            if matches!(body.get(i), Some(Tree::Group(Delim::Brace, ..))) {
                i += 1;
                if body.get(i).is_some_and(|t| t.is_punct(',')) {
                    i += 1;
                }
            } else {
                while i < body.len() && !body[i].is_punct(',') {
                    i += 1;
                }
                i += 1;
            }
            start = i;
            continue;
        }
        i += 1;
    }
    let dispatches_message = arms.iter().any(|pat| {
        pat.windows(4).any(|w| {
            matches!(&w[0], Tree::Ident(base, _) if aliases.iter().any(|a| a == base))
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && matches!(&w[3], Tree::Ident(v, _) if v.chars().next().is_some_and(char::is_uppercase))
        })
    });
    if !dispatches_message {
        return;
    }
    for pat in &arms {
        // Strip a leading `|` and any `if` guard from the pattern run.
        let guard_pos = pat.iter().position(|t| t.as_ident() == Some("if")).unwrap_or(pat.len());
        let pat = &pat[..guard_pos];
        if let [Tree::Ident(name, line)] = pat {
            if name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_') {
                let kind = if name == "_" { "wildcard" } else { "binding" };
                out.push(Violation {
                    rule: "dispatch-coverage",
                    file: SERVER_RS.into(),
                    detail: format!(
                        "line {line}: {kind} arm `{name} =>` in a match over `Message` can \
                         silently drop a message kind"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(server: &str) -> AstWorkspace {
        AstWorkspace::parse(&[("crates/server/src/server.rs".to_owned(), server.to_owned())])
            .expect("parses")
    }

    #[test]
    fn named_arms_pass() {
        let w = ws(
            "fn handle(m: Message) {\n    match m {\n        Message::Register { user } => go(user),\n        Message::Deregister => stop(),\n    }\n}\n",
        );
        assert!(lint_dispatch_coverage(&w).is_empty());
    }

    #[test]
    fn binding_arm_is_flagged() {
        let w = ws("fn handle(m: Message) {\n    match m {\n        Message::Register { user } => go(user),\n        other => drop_it(other),\n    }\n}\n");
        let v = lint_dispatch_coverage(&w);
        assert!(v.iter().any(|v| v.detail.contains("binding arm `other =>`")), "{v:?}");
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let w = ws(
            "fn handle(m: Message) {\n    match m {\n        Message::Register { user } => go(user),\n        Message::Deregister => stop(),\n        _ => {}\n    }\n}\n",
        );
        let v = lint_dispatch_coverage(&w);
        assert!(v.iter().any(|v| v.detail.contains("wildcard arm `_ =>`")), "{v:?}");
    }

    #[test]
    fn non_message_matches_keep_wildcards() {
        let w = ws(
            "fn handle(m: Message) {\n    match m { Message::Register { user } => go(user), Message::Deregister => stop() }\n    match other() { Some(x) => use_it(x), _ => {} }\n}\n",
        );
        assert!(lint_dispatch_coverage(&w).is_empty());
    }

    #[test]
    fn wildcard_in_a_comment_is_ignored() {
        let w = ws(
            "fn handle(m: Message) {\n    match m {\n        Message::Register { user } => go(user),\n        Message::Deregister => stop(),\n    }\n}\n// match m { _ => {} } in a comment is fine\n",
        );
        assert!(lint_dispatch_coverage(&w).is_empty());
    }

    #[test]
    fn alias_is_honored() {
        let w = ws(
            "use cosoft_wire::Message as Msg;\nfn handle(m: Msg) {\n    match m {\n        Msg::Register { user } => go(user),\n        _ => stop(),\n    }\n}\n",
        );
        let v = lint_dispatch_coverage(&w);
        assert!(v.iter().any(|v| v.detail.contains("wildcard arm `_ =>`")), "{v:?}");
    }
}
