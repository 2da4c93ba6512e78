//! COSOFT — flexible communication in heterogeneous multi-user environments.
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `examples/` for runnable scenarios.

pub mod runtime;

pub use cosoft_apps as apps;
pub use cosoft_baselines as baselines;
pub use cosoft_core as core;
pub use cosoft_net as net;
pub use cosoft_retrieval as retrieval;
pub use cosoft_server as server;
pub use cosoft_uikit as uikit;
pub use cosoft_wire as wire;
