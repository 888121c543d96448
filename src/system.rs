//! The end-to-end system of Figure 3 in the paper: a database with a privacy
//! policy that answers SQL under differential privacy with R2T.
//!
//! The implementation lives in [`r2t_service`]; this module re-exports it
//! under the facade's historical path. Open a [`Session`] for budgeted,
//! prepared-query serving:
//!
//! ```
//! use r2t::system::{PrivateDatabase, SessionOptions};
//! use r2t::core::R2TConfig;
//!
//! # fn main() -> Result<(), r2t::Error> {
//! let schema = r2t::tpch::tpch_schema(&["customer"]);
//! let db = PrivateDatabase::new(schema, r2t::tpch::generate(0.05, 0.3, 1))?;
//! let session = db.session(
//!     SessionOptions::new()
//!         .total_epsilon(1.0)
//!         .base(R2TConfig::builder(1.0, 0.1, 4096.0).build())
//!         .seed(7),
//! )?;
//! let noisy = session
//!     .answer("SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok", 0.5)?
//!     .noisy;
//! assert!(noisy.is_finite());
//! assert!((session.remaining() - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub use r2t_service::{
    substream_rng, Answer, Error, GroupedAnswer, PreparedQuery, PrivateDatabase, QuerySpec,
    RaceStats, Receipt, ServiceTier, Session, SessionOptions, Snapshot, TenantInfo, WriteBatch,
};
