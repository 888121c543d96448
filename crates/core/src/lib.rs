//! # r2t-core — the R2T mechanism
//!
//! Implementation of *R2T: Instance-optimal Truncation for Differentially
//! Private Query Evaluation with Foreign Keys* (SIGMOD 2022).
//!
//! The pipeline is: the [`r2t_engine`] evaluates an SPJA query with lineage,
//! producing a [`QueryProfile`] (per-join-result weights `ψ(q_k)` plus the
//! private tuples each result references). A [`truncation`] method turns the
//! profile into a family of stable underestimates `Q(I, τ)`; [`r2t::R2T`]
//! races geometrically increasing `τ` values, shifts each noisy estimate down
//! by its own noise scale, and returns the maximum — achieving error
//! `O(log GS_Q · log log GS_Q · DS_Q(I) / ε)` which is instance-optimal for
//! SJA queries (Theorem 5.1 + Section 6 of the paper).
//!
//! [`groupby`] implements the paper's Section 11 extension (group-by via
//! budget splitting). [`baselines`] contains the mechanisms the paper compares against that are
//! not graph-specific: the naive Laplace mechanism, the fixed-τ LP mechanism
//! of Kasiviswanathan et al., and the local-sensitivity/SVT mechanism of Tao
//! et al. (graph-specific baselines NT/SDE/RM live in `r2t-graph`).

pub mod accountant;
pub mod baselines;
pub mod branch_patch;
pub mod groupby;
pub mod mechanism;
pub mod noise;
pub mod r2t;
pub mod truncation;

pub use accountant::{BudgetCell, BudgetExceeded, CellCharge};
pub use branch_patch::BranchPatcher;
pub use mechanism::Mechanism;
pub use r2t::{BranchValues, R2TConfig, R2TConfigBuilder, R2TReport, R2T};
pub use r2t_engine::QueryProfile;
pub use truncation::{KernelKind, LpTruncation, NaiveTruncation, Truncation};
