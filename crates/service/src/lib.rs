//! # r2t-service — the serving layer
//!
//! The end-to-end system of Figure 3 in the paper as a queryable service:
//! a [`PrivateDatabase`] (validated instance + privacy policy) on which an
//! analyst opens a [`Session`] with a total ε budget. Inside the session,
//! [`Session::prepare`] parses, plans, and executes a statement's lineage
//! *once* — the deterministic [`r2t_engine::QueryProfile`] and the τ-grid of
//! LP values it induces are cached under the statement's normalized text —
//! and every subsequent [`PreparedQuery::answer`] is a fresh, separately
//! budgeted ε-DP release that only draws noise.
//!
//! ```
//! use r2t_service::{PrivateDatabase, SessionOptions, WriteBatch};
//! use r2t_core::R2TConfig;
//!
//! # fn main() -> Result<(), r2t_service::Error> {
//! let schema = r2t_tpch::tpch_schema(&["customer"]);
//! let db = PrivateDatabase::new(schema, r2t_tpch::generate(0.05, 0.3, 1))?;
//! let session = db.session(
//!     SessionOptions::new()
//!         .total_epsilon(1.0)
//!         .base(R2TConfig::builder(1.0, 0.1, 4096.0).build())
//!         .seed(7),
//! )?;
//! let q = session.prepare(
//!     "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok",
//! )?;
//! let a = q.answer(0.4)?;
//! assert!(a.noisy.is_finite());
//! assert!((a.receipt.remaining - 0.6).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! Writes go through the same typed surface as everything else: stage a
//! [`WriteBatch`] of per-relation inserts/deletes and
//! [`PrivateDatabase::apply`] it. The batch is schema-validated and
//! integrity-checked in O(batch); the new snapshot version patches the
//! prepared-statement cache incrementally instead of rebuilding it, and
//! sessions pinned to older versions keep answering bit-identically.
//!
//! Budget enforcement is structural: the session's [`r2t_core::BudgetCell`]
//! is charged *before* any noise is drawn, a refused charge draws nothing,
//! and [`Session::answer_all`] charges its whole batch atomically (all
//! queries answered or none). Determinism is structural too: each successful
//! charge is assigned a substream index, and the answer's noise comes from
//! [`substream_rng`]`(session seed, index)` — so batch answers are
//! bit-identical regardless of how many worker threads served them.

mod db;
mod pool;
mod session;
mod snapshot;
mod tier;

pub use db::PrivateDatabase;
pub use r2t_engine::WriteBatch;
pub use session::{
    substream_rng, Answer, GroupedAnswer, PreparedQuery, QuerySpec, RaceStats, Receipt, Session,
    SessionOptions,
};
pub use snapshot::Snapshot;
pub use tier::{ServiceTier, TenantInfo};

use r2t_core::BudgetExceeded;
use r2t_engine::EngineError;
use r2t_sql::SqlError;

/// Unified error for the serving layer (and the `r2t` facade): everything
/// that can go wrong between SQL text and an ε-DP answer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// SQL parsing / lowering failed.
    Sql(SqlError),
    /// Query evaluation (or instance validation) failed.
    Engine(EngineError),
    /// A typed write batch was rejected: unknown relation, arity mismatch,
    /// a delete whose target row does not exist, or an integrity violation
    /// the batch would have introduced (duplicate primary key, broken
    /// foreign key). Nothing was applied.
    Mutation(EngineError),
    /// The session's privacy budget cannot cover the requested charge.
    Budget(BudgetExceeded),
    /// The statement is valid but not supported by the entry point used
    /// (e.g. a GROUP BY statement passed to [`PreparedQuery::answer`]).
    Unsupported(String),
    /// The serving tier refused the request at the door: unknown tenant,
    /// exhausted quota, or an invalid registration. Like a refused charge,
    /// a refused admission consumes no budget and draws no randomness.
    Admission(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Sql(e) => write!(f, "{e}"),
            Error::Engine(e) => write!(f, "{e}"),
            Error::Mutation(e) => write!(f, "mutation rejected: {e}"),
            Error::Budget(e) => write!(f, "{e}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Admission(m) => write!(f, "admission denied: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sql(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Mutation(e) => Some(e),
            Error::Budget(e) => Some(e),
            Error::Unsupported(_) | Error::Admission(_) => None,
        }
    }
}

impl From<SqlError> for Error {
    fn from(e: SqlError) -> Self {
        Error::Sql(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<BudgetExceeded> for Error {
    fn from(e: BudgetExceeded) -> Self {
        Error::Budget(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_sources_chain() {
        use std::error::Error as _;
        let e = Error::from(SqlError::Parse("boom".into()));
        assert!(e.source().unwrap().to_string().contains("boom"));
        let e = Error::from(BudgetExceeded { requested: 1.0, remaining: 0.25 });
        assert!(e.to_string().contains("budget"));
        assert!(e.source().is_some());
        let e = Error::Mutation(EngineError::UnknownRelation("Nope".into()));
        assert!(e.to_string().starts_with("mutation rejected: "));
        assert!(e.source().unwrap().to_string().contains("Nope"));
        assert!(Error::Unsupported("x".into()).source().is_none());
    }
}
