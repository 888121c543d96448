//! # r2t-lp — a from-scratch linear programming toolkit
//!
//! This crate provides everything the R2T system needs from an LP solver,
//! implemented from first principles (the paper uses CPLEX; mature LP solver
//! crates are thin on the Rust side, so we build our own):
//!
//! * [`Problem`] — a builder for LPs in the general bounded form
//!   `maximize cᵀx  s.t.  L_r ≤ Ax ≤ U_r,  l ≤ x ≤ u`.
//! * [`dense::DenseSimplex`] — a textbook two-phase tableau simplex used as a
//!   correctness oracle in tests and for tiny problems.
//! * [`revised::RevisedSimplex`] — the production solver: bounded-variable
//!   revised simplex with a sparse LU-factorized basis, product-form (eta)
//!   updates, periodic refactorization, and an anti-cycling fallback.
//! * [`dual_bound::lagrangian_bound`] — a weak-duality upper bound valid for
//!   *any* dual vector, which powers the paper's "early stop" optimization
//!   (Algorithm 1): each LP in the race is abandoned as soon as its upper
//!   bound plus its pre-drawn noise cannot beat the current winner.
//! * [`certify`] — KKT-style optimality certificates for candidate
//!   solutions (primal feasibility, dual signs, complementarity, gap).
//! * [`sweep`] — one LP structure shared across R2T's τ-race: per branch, a
//!   threshold cut eliminates every truncation row whose total weight is
//!   already ≤ τ (the truncation LPs of R2T shrink dramatically under it),
//!   and the simplex solves what is left from a cold start.
//! * [`flow`] — combinatorial max-flow and closed-form kernels for the
//!   truncation LPs whose structure admits one.
//!
//! The truncation LPs solved by R2T (Sections 6 and 7 of the paper) are pure
//! packing LPs — `max Σ u_k` subject to `Σ_{k∈C_j} u_k ≤ τ` and box bounds —
//! so the all-logical starting basis is primal feasible and Phase 1 is never
//! entered on the hot path; it exists (and is tested) for generality.
//!
//! ```
//! use r2t_lp::{Problem, RevisedSimplex, RowBounds, VarBounds, Status};
//!
//! // max x + y  s.t.  x + y ≤ 1.5,  x, y ∈ [0, 1]
//! let mut p = Problem::new();
//! let x = p.add_var(1.0, VarBounds::new(0.0, 1.0));
//! let y = p.add_var(1.0, VarBounds::new(0.0, 1.0));
//! p.add_row(RowBounds::at_most(1.5), &[(x, 1.0), (y, 1.0)]);
//! let s = RevisedSimplex::new().solve(&p).unwrap();
//! assert_eq!(s.status, Status::Optimal);
//! assert!((s.objective - 1.5).abs() < 1e-9);
//! ```

// Dense numerical kernels index several parallel arrays at once; iterator
// adapters obscure them more than they help.
#![allow(clippy::needless_range_loop)]

pub mod certify;
pub mod dense;
pub mod dual_bound;
pub mod flow;
pub mod problem;
pub mod revised;
pub mod sparse;
pub mod sweep;

pub use dense::DenseSimplex;
pub use dual_bound::lagrangian_bound;
pub use flow::{ClosedFormKernel, FallbackReason, FlowProblem, FlowSession, KernelClass, MinCut};
pub use problem::{Problem, RowBounds, Sense, VarBounds};
pub use revised::{RevisedSimplex, SolveOptions, SolveStats, SolverContext, SolverEvent};
pub use sparse::ColMatrix;
pub use sweep::{SweepProblem, SweepSession, SweepSolve};

/// Floating-point tolerance used to decide primal feasibility.
pub const FEAS_TOL: f64 = 1e-7;
/// Floating-point tolerance used to decide dual feasibility / optimality.
pub const OPT_TOL: f64 = 1e-7;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The problem has no feasible point.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
    /// The iteration limit was reached before optimality.
    IterationLimit,
    /// A user callback requested an early stop.
    Stopped,
}

/// The result of a solve: status, objective, primal values, and row duals.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value of the returned primal point (in the *maximize* sense).
    pub objective: f64,
    /// Primal values for the structural variables.
    pub x: Vec<f64>,
    /// Dual multipliers for the rows (sign convention: `y_i ≥ 0` for active
    /// upper row bounds, `y_i ≤ 0` for active lower row bounds).
    pub y: Vec<f64>,
    /// Number of simplex iterations performed.
    pub iterations: usize,
}

impl Solution {
    /// A solution representing an infeasible problem.
    pub fn infeasible(n: usize, m: usize, iterations: usize) -> Self {
        Solution {
            status: Status::Infeasible,
            objective: f64::NEG_INFINITY,
            x: vec![0.0; n],
            y: vec![0.0; m],
            iterations,
        }
    }
}

/// Errors raised while building or solving a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A variable or row index was out of range.
    BadIndex { what: &'static str, index: usize, len: usize },
    /// A bound pair had `lower > upper`.
    InvertedBounds { what: &'static str, index: usize, lower: f64, upper: f64 },
    /// A coefficient, bound, or objective entry was NaN.
    NotFinite { what: &'static str, index: usize },
    /// The basis matrix became numerically singular and could not be repaired.
    SingularBasis,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::BadIndex { what, index, len } => {
                write!(f, "{what} index {index} out of range (len {len})")
            }
            LpError::InvertedBounds { what, index, lower, upper } => {
                write!(f, "{what} {index} has inverted bounds [{lower}, {upper}]")
            }
            LpError::NotFinite { what, index } => write!(f, "{what} {index} is NaN"),
            LpError::SingularBasis => write!(f, "basis matrix is numerically singular"),
        }
    }
}

impl std::error::Error for LpError {}
