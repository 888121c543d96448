//! # r2t — facade crate
//!
//! Re-exports the full R2T stack so that examples, integration tests, and
//! downstream users can depend on a single crate:
//!
//! * [`lp`] — from-scratch LP solver (revised simplex, τ-sweep, flow kernels,
//!   dual bounds)
//! * [`engine`] — relational engine with FK constraints and lineage tracking
//! * [`sql`] — SQL subset parser
//! * [`graph`] — graph substrate for node-DP pattern counting
//! * [`tpch`] — TPC-H-lite generator and the paper's ten evaluation queries
//! * [`core`] — the R2T mechanism, truncation methods, and DP baselines
//! * [`obs`] — DP-safe tracing/metrics spine (compiled in via the `obs`
//!   feature; runtime level via `R2T_OBS=off|counters|spans|full`)
//!
//! * [`service`] — the serving layer: [`system::PrivateDatabase`] plus
//!   budget-enforced [`service::Session`]s with prepared-query caching
//!
//! [`system::PrivateDatabase`] ties everything together: SQL in, ε-DP
//! answers out (the paper's Figure 3 system as one type); its
//! [`system::PrivateDatabase::session`] is the intended entry point for
//! answering more than one query, and [`system::PrivateDatabase::apply`]
//! is the typed write path ([`system::WriteBatch`] in, incrementally
//! revalidated snapshot out).
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! reproduction of every table and figure in the paper.

pub mod system;

pub use r2t_service::Error;

pub use r2t_core as core;
pub use r2t_engine as engine;
pub use r2t_graph as graph;
pub use r2t_lp as lp;
pub use r2t_obs as obs;
pub use r2t_service as service;
pub use r2t_sql as sql;
pub use r2t_tpch as tpch;
