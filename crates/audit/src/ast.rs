//! A real (if small) Rust syntax layer for the audit rules: a lexer,
//! a token-tree builder, and an item-level parser, built by hand
//! because the build environment carries no `syn`.
//!
//! The string-scraping lints this replaces had a structural
//! false-positive class: commented-out code, string literals, and doc
//! examples matched the text scan. Everything in this module starts
//! from a proper lexer — comments and literals are tokenized away
//! before any rule looks at the code — so that class is gone by
//! construction.
//!
//! The model is deliberately shallow where the rules don't need depth:
//!
//! * **Tokens** are exact: strings (including raw and byte strings),
//!   chars vs lifetimes, nested block comments, numbers with suffixes.
//! * **Token trees** group `()`/`[]`/`{}` like `proc_macro2`, with the
//!   source line on every token.
//! * **Items** are parsed for what the rules consume: functions (name,
//!   impl owner, parameter types, body, test-ness), structs with field
//!   types, type aliases, inner attributes, and `#[cfg(test)]` scoping
//!   down `mod` trees.
//! * **Expressions** stay token trees; [`sites_in`] extracts the
//!   syntactic facts the rules match on (method calls with receiver
//!   chains, path calls, macro invocations, index expressions) without
//!   building a full expression grammar.

use std::fmt;

// --------------------------------------------------------------------------
// lexer
// --------------------------------------------------------------------------

/// Delimiter kind of a token group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( ... )`
    Paren,
    /// `[ ... ]`
    Bracket,
    /// `{ ... }`
    Brace,
}

/// One node of the token forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// An identifier or keyword (including `_` and raw `r#idents`).
    Ident(String, u32),
    /// A single punctuation character (`::` is two `Punct(':')`).
    Punct(char, u32),
    /// A literal: string, char, number — verbatim text including quotes.
    Lit(String, u32),
    /// A lifetime such as `'a` (quote included).
    Lifetime(String, u32),
    /// A delimited group and its contents.
    Group(Delim, Vec<Tree>, u32),
}

impl Tree {
    /// Source line of this token (1-based).
    pub fn line(&self) -> u32 {
        match self {
            Tree::Ident(_, l)
            | Tree::Punct(_, l)
            | Tree::Lit(_, l)
            | Tree::Lifetime(_, l)
            | Tree::Group(_, _, l) => *l,
        }
    }

    /// The identifier text, if this is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Tree::Ident(s, _) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Punct(p, _) if *p == c)
    }
}

/// A `//` comment: `(line, text after the slashes)`. Doc comments are
/// included; block comments are discarded by the lexer.
pub type Comment = (u32, String);

/// Lex error with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> String {
        let start = self.pos;
        while self.pos < self.src.len() && pred(self.peek(0)) {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Consumes a string body up to an unescaped `"`.
    fn string_body(&mut self) -> Result<(), ParseError> {
        let start_line = self.line;
        loop {
            match self.bump() {
                0 => {
                    return Err(ParseError {
                        line: start_line,
                        message: "unterminated string literal".into(),
                    })
                }
                b'\\' => {
                    self.bump();
                }
                b'"' => return Ok(()),
                _ => {}
            }
        }
    }

    /// Consumes a raw string body: `hashes` trailing `#`s follow the
    /// closing quote.
    fn raw_string_body(&mut self, hashes: usize) -> Result<(), ParseError> {
        let start_line = self.line;
        loop {
            match self.bump() {
                0 => {
                    return Err(ParseError {
                        line: start_line,
                        message: "unterminated raw string literal".into(),
                    })
                }
                b'"' => {
                    let mut ok = true;
                    for i in 0..hashes {
                        if self.peek(i) != b'#' {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
    }
}

/// Lexes `src` into a flat token list plus the line comments.
fn lex(src: &str) -> Result<(Vec<Tree>, Vec<Comment>), ParseError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    let mut comments = Vec::new();
    while lx.pos < lx.src.len() {
        let line = lx.line;
        let b = lx.peek(0);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                lx.bump();
            }
            b'/' if lx.peek(1) == b'/' => {
                lx.bump();
                lx.bump();
                let text = lx.take_while(|c| c != b'\n');
                comments.push((line, text));
            }
            b'/' if lx.peek(1) == b'*' => {
                lx.bump();
                lx.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match lx.bump() {
                        0 => {
                            return Err(ParseError {
                                line,
                                message: "unterminated block comment".into(),
                            })
                        }
                        b'/' if lx.peek(0) == b'*' => {
                            lx.bump();
                            depth += 1;
                        }
                        b'*' if lx.peek(0) == b'/' => {
                            lx.bump();
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
            }
            b'"' => {
                let start = lx.pos;
                lx.bump();
                lx.string_body()?;
                out.push(Tree::Lit(
                    String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                    line,
                ));
            }
            b'\'' => {
                // Char literal or lifetime. A char is 'x' / '\n' / '\'':
                // after the quote, an escape always means char; otherwise
                // it is a char only if a closing quote follows one scalar.
                let start = lx.pos;
                lx.bump();
                let c0 = lx.peek(0);
                if c0 == b'\\' {
                    lx.bump();
                    lx.bump();
                    while lx.peek(0) != b'\'' && lx.peek(0) != 0 {
                        lx.bump(); // \u{...} escapes
                    }
                    lx.bump();
                    out.push(Tree::Lit(
                        String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                        line,
                    ));
                } else if !(c0.is_ascii_alphanumeric() || c0 == b'_' || c0 >= 0x80) {
                    // A non-identifier character can only be a char
                    // literal (`'('`, `'{'`, `'"'`), never a lifetime.
                    while lx.peek(0) != b'\'' && lx.peek(0) != 0 {
                        lx.bump();
                    }
                    lx.bump();
                    out.push(Tree::Lit(
                        String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                        line,
                    ));
                } else {
                    // Find the extent of the identifier-ish run.
                    let mut n = 0usize;
                    while lx.peek(n).is_ascii_alphanumeric()
                        || lx.peek(n) == b'_'
                        || lx.peek(n) >= 0x80
                    {
                        n += 1;
                    }
                    if lx.peek(n) == b'\'' && n > 0 {
                        for _ in 0..=n {
                            lx.bump();
                        }
                        out.push(Tree::Lit(
                            String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                            line,
                        ));
                    } else {
                        let name = lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                        out.push(Tree::Lifetime(format!("'{name}"), line));
                    }
                }
            }
            b'r' | b'b' if is_raw_or_byte_literal(&lx) => {
                let start = lx.pos;
                if lx.peek(0) == b'b' {
                    lx.bump();
                }
                if lx.peek(0) == b'r' {
                    lx.bump();
                    let mut hashes = 0usize;
                    while lx.peek(0) == b'#' {
                        hashes += 1;
                        lx.bump();
                    }
                    lx.bump(); // opening quote
                    lx.raw_string_body(hashes)?;
                } else {
                    lx.bump(); // opening quote
                    lx.string_body()?;
                }
                out.push(Tree::Lit(
                    String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                    line,
                ));
            }
            b'0'..=b'9' => {
                let start = lx.pos;
                lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                // A fraction part: `.` followed by a digit (not `..`).
                if lx.peek(0) == b'.' && lx.peek(1).is_ascii_digit() {
                    lx.bump();
                    lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                }
                out.push(Tree::Lit(
                    String::from_utf8_lossy(&lx.src[start..lx.pos]).into_owned(),
                    line,
                ));
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let mut name =
                    lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80);
                // Raw identifier `r#name` — the `r` was consumed above
                // only if not followed by a quote, so handle `r#` here.
                if name == "r"
                    && lx.peek(0) == b'#'
                    && (lx.peek(1).is_ascii_alphabetic() || lx.peek(1) == b'_')
                {
                    lx.bump();
                    name = lx.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                }
                out.push(Tree::Ident(name, line));
            }
            c => {
                lx.bump();
                out.push(Tree::Punct(c as char, line));
            }
        }
    }
    Ok((out, comments))
}

/// Whether the lexer sits on `r"`, `r#`, `b"`, `br"`, or `br#` — a raw
/// or byte string literal rather than an identifier starting with r/b.
fn is_raw_or_byte_literal(lx: &Lexer<'_>) -> bool {
    let (c0, mut i) = (lx.peek(0), 1usize);
    if c0 == b'b' && lx.peek(1) == b'r' {
        i = 2;
    }
    match lx.peek(i) {
        b'"' => true,
        b'#' => {
            // Skip hashes; a quote must follow for this to be a raw string
            // (otherwise it is `r#ident`).
            let mut j = i;
            while lx.peek(j) == b'#' {
                j += 1;
            }
            lx.peek(j) == b'"' && (c0 == b'r' || (c0 == b'b' && i == 2))
        }
        _ => false,
    }
}

/// Builds the token forest from the flat token list.
fn build_trees(flat: Vec<Tree>) -> Result<Vec<Tree>, ParseError> {
    let mut stack: Vec<(Delim, u32, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in flat {
        match tok {
            Tree::Punct(c @ ('(' | '[' | '{'), line) => {
                let delim = match c {
                    '(' => Delim::Paren,
                    '[' => Delim::Bracket,
                    _ => Delim::Brace,
                };
                stack.push((delim, line, std::mem::take(&mut top)));
            }
            Tree::Punct(c @ (')' | ']' | '}'), line) => {
                let delim = match c {
                    ')' => Delim::Paren,
                    ']' => Delim::Bracket,
                    _ => Delim::Brace,
                };
                let Some((open_delim, open_line, parent)) = stack.pop() else {
                    return Err(ParseError { line, message: format!("unbalanced `{c}`") });
                };
                if open_delim != delim {
                    return Err(ParseError {
                        line,
                        message: format!("mismatched delimiter `{c}` (opened line {open_line})"),
                    });
                }
                let children = std::mem::replace(&mut top, parent);
                top.push(Tree::Group(delim, children, open_line));
            }
            other => top.push(other),
        }
    }
    if let Some((_, line, _)) = stack.pop() {
        return Err(ParseError { line, message: "unclosed delimiter".into() });
    }
    Ok(top)
}

// --------------------------------------------------------------------------
// items
// --------------------------------------------------------------------------

/// A function definition (free, inherent, or trait).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `impl`/`trait` self type this function is defined on.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is test code: `#[test]`, or anything under
    /// a `#[cfg(test)]` item/mod.
    pub in_test: bool,
    /// `(name, normalized type)` of each named parameter (`self`
    /// excluded; patterns more complex than one identifier are skipped).
    pub params: Vec<(String, String)>,
    /// Body token forest (empty for bodyless trait signatures).
    pub body: Vec<Tree>,
}

/// A struct definition with its named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field, normalized type)` pairs; empty for unit/tuple structs.
    pub fields: Vec<(String, String)>,
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct AstFile {
    /// Workspace-relative path.
    pub path: String,
    /// Every function in the file (all nesting levels).
    pub fns: Vec<FnDef>,
    /// Every struct with named fields.
    pub structs: Vec<StructDef>,
    /// `type Alias = Target;` pairs, normalized.
    pub aliases: Vec<(String, String)>,
    /// Inclusive line ranges covered by test code (`#[test]` functions,
    /// `#[cfg(test)]` mods/impls).
    pub test_ranges: Vec<(u32, u32)>,
    /// All `//` comments.
    pub comments: Vec<Comment>,
}

/// Every parsed file of the workspace.
#[derive(Debug, Clone, Default)]
pub struct AstWorkspace {
    /// Parsed files, in input order.
    pub files: Vec<AstFile>,
}

impl AstWorkspace {
    /// Parses `(path, source)` pairs. Files that fail to lex are
    /// reported as errors; the audit treats that as a violation rather
    /// than skipping them silently.
    ///
    /// # Errors
    ///
    /// The paths and lex errors of every unparseable file.
    pub fn parse(sources: &[(String, String)]) -> Result<AstWorkspace, Vec<(String, ParseError)>> {
        let mut files = Vec::new();
        let mut errors = Vec::new();
        for (path, text) in sources {
            match AstFile::parse(path, text) {
                Ok(f) => files.push(f),
                Err(e) => errors.push((path.clone(), e)),
            }
        }
        if errors.is_empty() {
            Ok(AstWorkspace { files })
        } else {
            Err(errors)
        }
    }
}

impl AstFile {
    /// Lexes and item-parses one source file.
    ///
    /// # Errors
    ///
    /// Lex-level failures (unterminated literals, unbalanced
    /// delimiters).
    pub fn parse(path: &str, text: &str) -> Result<AstFile, ParseError> {
        let (flat, comments) = lex(text)?;
        let trees = build_trees(flat)?;
        let mut file = AstFile {
            path: path.to_owned(),
            fns: Vec::new(),
            structs: Vec::new(),
            aliases: Vec::new(),
            test_ranges: Vec::new(),
            comments,
        };
        collect_items(&trees, None, false, &mut file);
        Ok(file)
    }
}

/// Highest source line appearing in a token forest (0 when empty).
pub fn max_line(trees: &[Tree]) -> u32 {
    trees
        .iter()
        .map(|t| match t {
            Tree::Group(_, inner, line) => max_line(inner).max(*line),
            other => other.line(),
        })
        .max()
        .unwrap_or(0)
}

/// Whether an attribute body (the trees inside `#[...]`) marks test
/// code: `test`, `cfg(test)`, or `cfg(any(test, ...))` — but not
/// `cfg(not(test))`.
fn attr_is_test(attr: &[Tree]) -> bool {
    match attr.first().and_then(Tree::as_ident) {
        Some("test") => true,
        Some("cfg") => match attr.get(1) {
            Some(Tree::Group(Delim::Paren, args, _)) => cfg_mentions_test(args),
            _ => false,
        },
        // `#[tokio::test]`-style: any path ending in `test`.
        Some(_) => {
            attr.iter().rev().find_map(Tree::as_ident) == Some("test")
                && attr.iter().any(|t| t.is_punct(':'))
        }
        None => false,
    }
}

/// `test` positively enabled inside a cfg predicate (`not(...)` does
/// not descend).
fn cfg_mentions_test(args: &[Tree]) -> bool {
    let mut i = 0;
    while i < args.len() {
        match &args[i] {
            Tree::Ident(name, _) if name == "test" => return true,
            Tree::Ident(name, _) if name == "any" || name == "all" => {
                if let Some(Tree::Group(Delim::Paren, inner, _)) = args.get(i + 1) {
                    if cfg_mentions_test(inner) {
                        return true;
                    }
                    i += 1;
                }
            }
            Tree::Ident(name, _) if name == "not" => {
                i += 1; // skip the group — nothing under not() is test
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Joins token trees into canonical text: no whitespace except a single
/// space between adjacent word tokens.
pub fn normalize(trees: &[Tree]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for t in trees {
        let (text, word) = match t {
            Tree::Ident(s, _) => (s.clone(), true),
            Tree::Lit(s, _) => (s.clone(), true),
            Tree::Lifetime(s, _) => (s.clone(), true),
            Tree::Punct(c, _) => (c.to_string(), false),
            Tree::Group(d, inner, _) => {
                let (open, close) = match d {
                    Delim::Paren => ('(', ')'),
                    Delim::Bracket => ('[', ']'),
                    Delim::Brace => ('{', '}'),
                };
                (format!("{open}{}{close}", normalize(inner)), false)
            }
        };
        if prev_word && word {
            out.push(' ');
        }
        out.push_str(&text);
        prev_word = word;
    }
    out
}

/// Skips a `<...>` generics run starting at `i` (which must point at the
/// `<`); returns the index just past the matching `>`. `->` arrows
/// inside the generics do not close the run.
fn skip_generics(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < trees.len() {
        match &trees[i] {
            Tree::Punct('<', _) => depth += 1,
            Tree::Punct('>', _) => {
                // Part of `->`?
                let is_arrow = i > 0 && trees[i - 1].is_punct('-');
                if !is_arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Recursively collects items from a token forest.
fn collect_items(trees: &[Tree], owner: Option<&str>, in_test: bool, out: &mut AstFile) {
    let mut i = 0usize;
    // Attributes seen since the last item, as raw tree slices.
    let mut pending_attrs: Vec<&[Tree]> = Vec::new();
    while i < trees.len() {
        match &trees[i] {
            // `#[...]` outer attribute / `#![...]` inner attribute.
            Tree::Punct('#', _) => {
                if let Some(Tree::Punct('!', _)) = trees.get(i + 1) {
                    if let Some(Tree::Group(Delim::Bracket, ..)) = trees.get(i + 2) {
                        i += 3;
                        continue;
                    }
                }
                if let Some(Tree::Group(Delim::Bracket, attr, _)) = trees.get(i + 1) {
                    pending_attrs.push(attr);
                    i += 2;
                    continue;
                }
                i += 1;
            }
            Tree::Ident(kw, _) if kw == "fn" => {
                let item_test = in_test || pending_attrs.iter().any(|a| attr_is_test(a));
                i = parse_fn(trees, i, owner, item_test, out);
                pending_attrs.clear();
            }
            Tree::Ident(kw, _) if kw == "impl" || kw == "trait" => {
                let item_test = in_test || pending_attrs.iter().any(|a| attr_is_test(a));
                pending_attrs.clear();
                let is_trait = kw == "trait";
                // Find the body brace at this level; tokens before it are
                // the header.
                let start = i + 1;
                let mut j = start;
                while j < trees.len() && !matches!(trees[j], Tree::Group(Delim::Brace, ..)) {
                    if trees[j].is_punct('<') {
                        j = skip_generics(trees, j);
                        continue;
                    }
                    if matches!(&trees[j], Tree::Punct(';', _)) {
                        break; // e.g. `trait Marker;` — no body
                    }
                    j += 1;
                }
                if let Some(Tree::Group(Delim::Brace, body, gline)) = trees.get(j) {
                    let header = &trees[start..j];
                    let name = impl_target_name(header, is_trait);
                    if item_test && !in_test {
                        out.test_ranges.push((trees[i].line(), max_line(body).max(*gline)));
                    }
                    collect_items(body, name.as_deref(), item_test, out);
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            Tree::Ident(kw, _) if kw == "mod" => {
                let item_test = in_test || pending_attrs.iter().any(|a| attr_is_test(a));
                pending_attrs.clear();
                if let Some(Tree::Group(Delim::Brace, body, gline)) = trees.get(i + 2) {
                    if item_test && !in_test {
                        out.test_ranges.push((trees[i].line(), max_line(body).max(*gline)));
                    }
                    collect_items(body, None, item_test, out);
                    i += 3;
                } else {
                    i += 2; // `mod name;`
                }
            }
            Tree::Ident(kw, _) if kw == "struct" => {
                let name = trees.get(i + 1).and_then(Tree::as_ident).unwrap_or_default().to_owned();
                let mut j = i + 2;
                while j < trees.len() {
                    if trees[j].is_punct('<') {
                        j = skip_generics(trees, j);
                        continue;
                    }
                    match &trees[j] {
                        Tree::Group(Delim::Brace, fields, _) => {
                            out.structs.push(StructDef {
                                name: name.clone(),
                                fields: parse_fields(fields),
                            });
                            j += 1;
                            break;
                        }
                        Tree::Punct(';', _) => {
                            out.structs.push(StructDef { name: name.clone(), fields: Vec::new() });
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                pending_attrs.clear();
                i = j;
            }
            Tree::Ident(kw, _) if kw == "type" => {
                // `type Name<...> = Target;`
                let name = trees.get(i + 1).and_then(Tree::as_ident).unwrap_or_default().to_owned();
                let mut j = i + 2;
                while j < trees.len() && !trees[j].is_punct('=') && !trees[j].is_punct(';') {
                    if trees[j].is_punct('<') {
                        j = skip_generics(trees, j);
                        continue;
                    }
                    j += 1;
                }
                if trees.get(j).is_some_and(|t| t.is_punct('=')) {
                    let start = j + 1;
                    let mut k = start;
                    while k < trees.len() && !trees[k].is_punct(';') {
                        k += 1;
                    }
                    if !name.is_empty() {
                        out.aliases.push((name, normalize(&trees[start..k])));
                    }
                    j = k;
                }
                pending_attrs.clear();
                i = j + 1;
            }
            // `macro_rules! name { ... }` and other item-level macros.
            Tree::Ident(_, _) if trees.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                pending_attrs.clear();
                i += 2;
                // Optional name, then the macro body group.
                while i < trees.len() && !matches!(trees[i], Tree::Group(..)) {
                    i += 1;
                }
                i += 1;
            }
            // Visibility/qualifiers just pass through so the keyword
            // handlers above see `fn`/`struct`/... next.
            Tree::Ident(kw, _)
                if matches!(
                    kw.as_str(),
                    "pub" | "const" | "async" | "unsafe" | "default" | "extern"
                ) =>
            {
                i += 1;
                // `pub(crate)` — skip the restriction group.
                if kw == "pub" {
                    if let Some(Tree::Group(Delim::Paren, ..)) = trees.get(i) {
                        i += 1;
                    }
                }
            }
            Tree::Ident(kw, _) if matches!(kw.as_str(), "use" | "static" | "mod") => {
                pending_attrs.clear();
                while i < trees.len() && !trees[i].is_punct(';') {
                    i += 1;
                }
                i += 1;
            }
            _ => {
                // Expression-position or unknown tokens at item level
                // (e.g. `;`): attributes no longer apply.
                if !matches!(trees[i], Tree::Punct(';', _)) {
                    pending_attrs.clear();
                }
                i += 1;
            }
        }
    }
}

/// The self-type name of an `impl` header (the type after `for` when
/// present, else the first type), or the trait name for `trait` items.
fn impl_target_name(header: &[Tree], is_trait: bool) -> Option<String> {
    if is_trait {
        return header.first().and_then(Tree::as_ident).map(str::to_owned);
    }
    let for_pos = header.iter().position(|t| t.as_ident() == Some("for"));
    let tail = match for_pos {
        Some(p) => &header[p + 1..],
        None => header,
    };
    // Last path segment before generics or `where`.
    let mut name = None;
    let mut i = 0;
    while i < tail.len() {
        match &tail[i] {
            Tree::Punct('<', _) => break,
            Tree::Ident(s, _) if s == "where" => break,
            Tree::Ident(s, _) => name = Some(s.clone()),
            _ => {}
        }
        i += 1;
    }
    name
}

/// Parses `name: Type` fields out of a struct body, skipping
/// attributes and visibility.
fn parse_fields(body: &[Tree]) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    for chunk in split_top_level(body, ',') {
        let mut j = 0;
        // Skip attributes and visibility.
        loop {
            match chunk.get(j) {
                Some(Tree::Punct('#', _)) => j += 2,
                Some(Tree::Ident(kw, _)) if kw == "pub" => {
                    j += 1;
                    if let Some(Tree::Group(Delim::Paren, ..)) = chunk.get(j) {
                        j += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(name) = chunk.get(j).and_then(Tree::as_ident) else { continue };
        if chunk.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            fields.push((name.to_owned(), normalize(&chunk[j + 2..])));
        }
    }
    fields
}

/// Splits a token slice on a top-level separator punct.
fn split_top_level(trees: &[Tree], sep: char) -> Vec<&[Tree]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut angle = 0i32;
    for (i, t) in trees.iter().enumerate() {
        match t {
            Tree::Punct('<', _) => angle += 1,
            Tree::Punct('>', _) if !(i > 0 && trees[i - 1].is_punct('-')) => {
                angle = (angle - 1).max(0);
            }
            Tree::Punct(c, _) if *c == sep && angle == 0 => {
                chunks.push(&trees[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < trees.len() {
        chunks.push(&trees[start..]);
    }
    chunks
}

/// Parses one `fn` item starting at `trees[i]` (the `fn` keyword);
/// returns the index just past the item.
fn parse_fn(
    trees: &[Tree],
    i: usize,
    owner: Option<&str>,
    in_test: bool,
    out: &mut AstFile,
) -> usize {
    let line = trees[i].line();
    let Some(name) = trees.get(i + 1).and_then(Tree::as_ident) else {
        return i + 1;
    };
    let name = name.to_owned();
    // Skip generics between the name and the parameter list.
    let mut j = i + 2;
    if trees.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_generics(trees, j);
    }
    let Some(Tree::Group(Delim::Paren, params_trees, _)) = trees.get(j) else {
        return i + 1;
    };
    let params = parse_params(params_trees);
    // Body: the first brace group before a `;` at this level.
    j += 1;
    let mut body = Vec::new();
    while j < trees.len() {
        match &trees[j] {
            Tree::Punct(';', _) => {
                j += 1;
                break;
            }
            Tree::Group(Delim::Brace, b, _) => {
                body = b.clone();
                j += 1;
                break;
            }
            Tree::Punct('<', _) => {
                j = skip_generics(trees, j);
            }
            _ => j += 1,
        }
    }
    if in_test {
        out.test_ranges.push((line, max_line(&body).max(line)));
    }
    out.fns.push(FnDef { name, owner: owner.map(str::to_owned), line, in_test, params, body });
    j
}

/// Parses `name: Type` parameters (self receivers and pattern
/// parameters are skipped).
fn parse_params(trees: &[Tree]) -> Vec<(String, String)> {
    let mut params = Vec::new();
    for chunk in split_top_level(trees, ',') {
        let mut j = 0;
        if chunk.get(j).and_then(Tree::as_ident) == Some("mut") {
            j += 1;
        }
        let Some(name) = chunk.get(j).and_then(Tree::as_ident) else { continue };
        if name == "self" {
            continue;
        }
        if chunk.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            params.push((name.to_owned(), normalize(&chunk[j + 2..])));
        }
    }
    params
}

// --------------------------------------------------------------------------
// expression-level sites
// --------------------------------------------------------------------------

/// One syntactic fact inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Site {
    /// `recv.name(...)` — `recv` is the trailing identifier chain of the
    /// receiver (empty when the receiver is not a plain path, e.g. a
    /// call result).
    Method {
        /// Method name.
        name: String,
        /// Receiver identifier chain, outermost first (e.g. `["self", "conns"]`).
        recv: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// `a::b::name(...)` or `name(...)`.
    Call {
        /// Full path segments including the function name.
        path: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// `name!(...)` / `name![...]` / `name! {...}`.
    MacroUse {
        /// Macro name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `expr[...]` — a direct index (or slice-index) expression.
    Index {
        /// Source line.
        line: u32,
    },
}

impl Site {
    /// Source line of the site.
    pub fn line(&self) -> u32 {
        match self {
            Site::Method { line, .. }
            | Site::Call { line, .. }
            | Site::MacroUse { line, .. }
            | Site::Index { line } => *line,
        }
    }
}

/// Keywords that rule out the preceding-identifier form of an index
/// expression (`return [a, b]` is an array literal, not an index).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield", "_",
];

/// Extracts every [`Site`] from a token forest (recursing into all
/// groups), in source order.
pub fn sites_in(trees: &[Tree]) -> Vec<Site> {
    let mut out = Vec::new();
    walk_sites(trees, true, &mut out);
    out
}

/// Like [`sites_in`], but does not descend into `{ ... }` groups:
/// sites in nested block bodies (loop/if/match arms) are excluded,
/// while call arguments and index expressions are included. Scope-aware
/// scans use this to process one statement at a time and recurse into
/// blocks themselves.
pub fn shallow_sites(trees: &[Tree]) -> Vec<Site> {
    let mut out = Vec::new();
    walk_sites(trees, false, &mut out);
    out
}

fn walk_sites(trees: &[Tree], into_braces: bool, out: &mut Vec<Site>) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Ident(name, line) => {
                // Macro use: `name ! <group>`.
                if trees.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    && matches!(trees.get(i + 2), Some(Tree::Group(..)))
                {
                    out.push(Site::MacroUse { name: name.clone(), line: *line });
                    i += 2; // land on the group; the Group arm recurses
                    continue;
                }
                // Method call: `. name (args)` — the receiver chain is
                // collected backwards over `ident (. ident)*`.
                let after_dot = i > 0 && trees[i - 1].is_punct('.');
                if after_dot && matches!(trees.get(i + 1), Some(Tree::Group(Delim::Paren, ..))) {
                    out.push(Site::Method {
                        name: name.clone(),
                        recv: receiver_chain(trees, i - 1),
                        line: *line,
                    });
                    i += 1; // land on the args group
                    continue;
                }
                // Field-access index: `a.field[i]`.
                if after_dot && matches!(trees.get(i + 1), Some(Tree::Group(Delim::Bracket, ..))) {
                    out.push(Site::Index { line: trees[i + 1].line() });
                    i += 1; // land on the bracket group
                    continue;
                }
                // Path call: `a :: b :: name (args)`.
                if !after_dot {
                    let (path, end) = path_run(trees, i);
                    if !path.is_empty()
                        && matches!(trees.get(end), Some(Tree::Group(Delim::Paren, ..)))
                    {
                        out.push(Site::Call { path, line: *line });
                        i = end; // land on the args group
                        continue;
                    }
                    // Index: `ident [ ... ]` where ident is not a keyword.
                    if path.len() == 1
                        && matches!(trees.get(i + 1), Some(Tree::Group(Delim::Bracket, ..)))
                        && !NON_INDEX_KEYWORDS.contains(&name.as_str())
                    {
                        out.push(Site::Index { line: trees[i + 1].line() });
                        i += 1; // land on the bracket group
                        continue;
                    }
                    i = end.max(i + 1);
                    continue;
                }
                i += 1;
            }
            Tree::Group(_, inner, _) => {
                // Index on a call/index/group result: `foo()[i]`, `a[i][j]`.
                if matches!(trees.get(i + 1), Some(Tree::Group(Delim::Bracket, bline_group, _)) if {
                    let _ = bline_group;
                    true
                }) {
                    // Only (..) and [..] results are indexable expressions;
                    // `#[attr]` is excluded because its previous sibling is
                    // the `#` punct, not a group.
                    if matches!(trees[i], Tree::Group(Delim::Paren | Delim::Bracket, ..)) {
                        out.push(Site::Index { line: trees[i + 1].line() });
                    }
                }
                if into_braces || !matches!(trees[i], Tree::Group(Delim::Brace, ..)) {
                    walk_sites(inner, into_braces, out);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Walks backwards from the `.` at `dot` collecting the receiver chain
/// `ident (. ident)*`, outermost identifier first. Returns an empty
/// chain when the receiver is not a plain identifier path.
fn receiver_chain(trees: &[Tree], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut i = dot; // points at a '.'
    loop {
        if i == 0 {
            return Vec::new();
        }
        let prev = &trees[i - 1];
        match prev {
            Tree::Ident(name, _) => {
                chain.push(name.clone());
                if i >= 2 && trees[i - 2].is_punct('.') {
                    i -= 2;
                    continue;
                }
                // A further `ident.` to the left would have been caught;
                // anything else ends the chain cleanly.
                break;
            }
            _ => return Vec::new(), // method on a call result / literal
        }
    }
    chain.reverse();
    chain
}

/// Collects the path run `ident (:: ident)*` starting at `i`; returns
/// the segments and the index just past the run.
fn path_run(trees: &[Tree], i: usize) -> (Vec<String>, usize) {
    let mut path = Vec::new();
    let mut j = i;
    while let Some(name) = trees.get(j).and_then(Tree::as_ident) {
        path.push(name.to_owned());
        if trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 2).is_some_and(|t| t.is_punct(':'))
            && matches!(trees.get(j + 3), Some(Tree::Ident(..)))
        {
            j += 3;
        } else {
            j += 1;
            break;
        }
    }
    (path, j)
}

/// Splits a block's token forest into statements: at top-level `;`, and
/// after a top-level brace group that ends a block-statement (`if`,
/// `match`, `for`, ... bodies) — i.e. one not followed by `else`, an
/// operator, `.`, or `?`.
pub fn split_statements(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut stmts = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Punct(';', _) => {
                stmts.push(&trees[start..i]);
                start = i + 1;
            }
            Tree::Group(Delim::Brace, ..) => {
                let next = trees.get(i + 1);
                let continues = match next {
                    Some(Tree::Ident(kw, _)) => kw == "else",
                    Some(Tree::Punct(c, _)) => matches!(c, '.' | '?' | ',' | ')' | ']'),
                    Some(Tree::Group(..)) => true, // `{..}[i]` etc.
                    None => false,
                    _ => false,
                };
                if !continues {
                    stmts.push(&trees[start..=i]);
                    start = i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if start < trees.len() {
        stmts.push(&trees[start..]);
    }
    stmts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> AstFile {
        AstFile::parse("test.rs", src).expect("parses")
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let f = parse(
            "fn f() {\n    // let x = v.unwrap();\n    let s = \"a.unwrap() // nope\";\n    let r = r#\"also.unwrap()\"#;\n}\n",
        );
        let sites = sites_in(&f.fns[0].body);
        assert!(
            !sites.iter().any(|s| matches!(s, Site::Method { name, .. } if name == "unwrap")),
            "comment/string content leaked into sites: {sites:?}"
        );
        assert_eq!(f.comments.len(), 1);
    }

    #[test]
    fn char_vs_lifetime() {
        let f = parse("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].params, vec![("x".to_owned(), "&'a str".to_owned())]);
    }

    #[test]
    fn method_and_call_sites() {
        let f = parse("fn f() { self.conns.lock(); Self::flush(a); std::thread::sleep(d); }\n");
        let sites = sites_in(&f.fns[0].body);
        assert!(sites.iter().any(|s| matches!(s, Site::Method { name, recv, .. }
            if name == "lock" && recv == &["self".to_owned(), "conns".to_owned()])));
        assert!(sites.iter().any(|s| matches!(s, Site::Call { path, .. }
            if path == &["Self".to_owned(), "flush".to_owned()])));
        assert!(sites.iter().any(|s| matches!(s, Site::Call { path, .. }
            if path == &["std".to_owned(), "thread".to_owned(), "sleep".to_owned()])));
    }

    #[test]
    fn index_sites_exclude_literals_and_macros() {
        let f = parse(
            "fn f() { let a = [0u8; 4]; let b = vec![1, 2]; let c = a[0]; let d = foo()[1]; let e = self.pool[2]; let [x, y] = c; }\n",
        );
        let sites = sites_in(&f.fns[0].body);
        let idx = sites.iter().filter(|s| matches!(s, Site::Index { .. })).count();
        assert_eq!(idx, 3, "expected a[0], foo()[1], self.pool[2]: {sites:?}");
    }

    #[test]
    fn macro_sites() {
        let f = parse("fn f() { panic!(\"boom\"); unreachable!(); }\n");
        let sites = sites_in(&f.fns[0].body);
        let names: Vec<&str> = sites
            .iter()
            .filter_map(|s| match s {
                Site::MacroUse { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["panic", "unreachable"]);
    }

    #[test]
    fn cfg_test_scoping() {
        let f = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n#[cfg(not(test))]\nfn also_prod() {}\n",
        );
        let by_name = |n: &str| f.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("t").in_test);
        assert!(!by_name("also_prod").in_test);
    }

    #[test]
    fn impl_owner_and_struct_fields() {
        let f = parse(
            "struct Host { conns: Arc<Mutex<HashMap<ConnId, ConnShared>>>, n: usize }\nimpl Host { fn go(&self) {} }\nimpl fmt::Debug for Host { fn fmt(&self) {} }\ntype ConnMap = Arc<Mutex<Outbox>>;\n",
        );
        assert_eq!(f.structs[0].name, "Host");
        assert_eq!(f.structs[0].fields[0].1, "Arc<Mutex<HashMap<ConnId,ConnShared>>>");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Host"));
        assert_eq!(f.fns[1].owner.as_deref(), Some("Host"));
        assert_eq!(f.aliases[0], ("ConnMap".to_owned(), "Arc<Mutex<Outbox>>".to_owned()));
    }

    #[test]
    fn statements_split_after_block_statements() {
        let f = parse("fn f() { if a { b(); } let g = x.lock(); loop { c(); } d(); }\n");
        let stmts = split_statements(&f.fns[0].body);
        assert_eq!(stmts.len(), 4, "{stmts:?}");
    }

    #[test]
    fn unbalanced_input_is_an_error() {
        assert!(AstFile::parse("bad.rs", "fn f() { (").is_err());
    }
}
