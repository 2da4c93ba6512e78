//! `cosoft-apps` — the application scenarios of §4, built on the public
//! coupling API:
//!
//! * [`classroom`] — COSOFT face-to-face teaching: teacher blackboard +
//!   student workstations, indirect coupling of simulation parameters,
//!   buffered help requests, the intelligent demon, and the interactive
//!   join procedure;
//! * [`tori`] — the cooperative TORI database-retrieval interface:
//!   generated query forms, coupled operator menus / input fields / view
//!   menus, multiple evaluation of queries (even against different
//!   databases), result-driven query instantiation;
//! * [`sketch`] — a GroupDesign-style multi-user sketch editor with the
//!   time-relaxed private-until-commitment mode expressed through
//!   decoupling and synchronization-by-state.

pub mod classroom;
pub mod sketch;
pub mod tori;
