//! The COSOFT verification layer: a manifest lint, AST-based source
//! analyses, and a bounded-exhaustive schedule explorer.
//!
//! The repository's correctness story has three weak points that
//! neither the type system nor ordinary unit tests cover:
//!
//! 1. **A convention no compiler checks.** The `fault-injection`
//!    feature must never reach a release build; the [`lints`] module
//!    checks the manifests for it. (What a compiler does check has no
//!    rule: the `Message` enum, its codec and its kind names are
//!    generated from one table in `cosoft-wire`; a catch-all arm in a
//!    match that dispatches on `Message` is refused by clippy where the
//!    function denies `wildcard_enum_match_arm`; the lock table and the
//!    shard cores are lent out by `&` only, and what migrates a
//!    component is `pub(crate)`; the crate lint headers are one
//!    `[workspace.lints]` table.)
//!
//! 2. **Runtime failure modes no test happens to hit.** A stray
//!    `unwrap` in the poll loop, a blocking call reachable from
//!    `PollThread::run`, or two mutexes acquired in opposite orders
//!    only bite under production interleavings. The [`ast`] module
//!    parses the whole workspace (hand-rolled lexer + item parser — no
//!    external syntax crate), and [`rules`] runs a panic-freedom
//!    ratchet against the committed `audit-baseline.toml`, a
//!    blocking-call lint over the call graph of the poll loop, and a
//!    lock-order cycle analysis over the static mutex-acquisition
//!    graph.
//!
//! 3. **Interleaving-dependent lock-table corruption.** The floor
//!    control algorithm (paper §4) holds locks across multi-client
//!    round trips; whether an invariant violation is reachable depends
//!    on the order clients act in. The [`explore`] module runs a
//!    bounded-exhaustive DFS over every interleaving of a small client
//!    population, checking the server-wide invariant pack after every
//!    step (`crates/server/tests/lock_model.rs` is the concrete model).
//!
//! All parts are pure: lints and rules map source text to violations,
//! the explorer maps a cloneable model to statistics or a
//! counterexample trace. All I/O lives in the `cosoft-audit` binary,
//! which `scripts/check.sh` and the CI `audit` job run against the
//! real workspace.

pub mod ast;
pub mod baseline;
pub mod explore;
pub mod lints;
pub mod rules;

pub use explore::{explore, ExploreError, ExploreLimits, ExploreStats, Model};
pub use lints::{run_all_lints, Violation, WorkspaceSources};
