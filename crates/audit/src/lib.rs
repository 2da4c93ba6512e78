//! The COSOFT verification layer: a manifest lint, AST-based source
//! analyses, and a bounded-exhaustive schedule explorer.
//!
//! The repository's correctness story has three weak points that
//! neither the type system nor ordinary unit tests cover:
//!
//! 1. **Conventions no compiler checks.** A `_ =>` arm in the server's
//!    `Message` dispatch would silently drop a new kind (the exhaustive
//!    `match` only helps while no arm catches everything); teardown-only
//!    lock APIs must stay in their sanctioned modules; every crate root
//!    carries the lint headers; the `fault-injection` feature must never
//!    reach a release build. The [`rules`] module checks the source
//!    conventions on a parsed AST, the [`lints`] module checks the
//!    manifests. (That the `Message` enum, its codec and its kind names
//!    agree needs no check: `cosoft-wire` generates them from one table.)
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod explore;
pub mod lints;
pub mod rules;

pub use explore::{explore, ExploreError, ExploreLimits, ExploreStats, Model};
pub use lints::{run_all_lints, Violation, WorkspaceSources};
