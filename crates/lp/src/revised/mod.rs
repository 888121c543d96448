//! Bounded-variable primal revised simplex.
//!
//! This is the production solver for R2T's truncation LPs. Design points:
//!
//! * **Logical formulation.** Every row `L_i ≤ a_i·x ≤ U_i` gets a logical
//!   variable `s_i` with those bounds and the system `A x − s = 0`, so the
//!   all-logical basis is triangular and the solver starts without any
//!   factorization work. For R2T's packing LPs (`x = 0` feasible) this basis
//!   is primal feasible and Phase 1 is skipped entirely.
//! * **Phase 1 by artificials.** When the all-logical start is infeasible,
//!   one artificial column per violated row absorbs the residual and a
//!   max `−Σ artificials` phase restores feasibility.
//! * **Sparse LU basis** ([`lu::LuFactors`]) with product-form (eta) updates
//!   and periodic refactorization. A refactorization that finds the basis
//!   numerically singular repairs it with logicals instead of failing, and
//!   re-enters Phase 1 when the repaired point leaves a bound.
//! * **One entry, cold start.** Every solve starts from the all-logical
//!   basis, so its result is a function of the LP alone, whatever was solved
//!   before it on the same [`SolverContext`].
//! * **Dantzig pricing** with an automatic switch to Bland's rule after a
//!   run of degenerate pivots (anti-cycling).
//! * **Progress events.** A callback receives the running primal objective
//!   (a valid lower bound — primal feasibility is maintained throughout) and
//!   a Lagrangian dual upper bound; returning `false` aborts the solve with
//!   [`Status::Stopped`]. This implements the paper's early-stop race
//!   (Algorithm 1) without a separate dual solver.

pub mod lu;

use crate::problem::Problem;
use crate::sparse::ColMatrix;
use crate::{LpError, Solution, Status};
use lu::{BasisColumn, LuFactors};

/// A progress snapshot passed to solve callbacks.
#[derive(Debug, Clone, Copy)]
pub struct SolverEvent {
    /// Simplex iterations completed so far.
    pub iteration: usize,
    /// Objective of the current (primal-feasible) point — a lower bound on
    /// the optimum for maximization problems once Phase 2 has begun.
    pub primal_objective: f64,
    /// A weak-duality upper bound on the optimum (maximize sense). May be
    /// `+inf` early in the solve.
    pub dual_bound: f64,
    /// Whether the solver is still in Phase 1 (primal objective is then the
    /// negated infeasibility, not a bound on the true objective).
    pub phase_one: bool,
}

/// Options controlling a revised-simplex solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Hard cap on simplex iterations (0 = automatic: `20(m+n) + 10000`).
    pub max_iterations: usize,
    /// Refactorize the basis after this many eta updates.
    pub refactor_interval: usize,
    /// Invoke the callback every this many iterations (0 = never).
    pub event_every: usize,
    /// Candidate-list (multiple) pricing: a full Dantzig scan periodically
    /// collects the best `partial_pricing` improving columns, and subsequent
    /// iterations price only that list until it is exhausted (0 = full
    /// Dantzig pricing every iteration). Near-Dantzig pivot quality at a
    /// fraction of the pricing cost on LPs with many columns.
    pub partial_pricing: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 0,
            refactor_interval: 96,
            event_every: 0,
            partial_pricing: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic,
    AtLower,
    AtUpper,
    /// Free variable parked at zero.
    AtZero,
}

/// A borrowed, already-frozen LP in **maximize** sense: the input of every
/// solve. [`crate::sweep::SweepProblem`] assembles these per-τ without
/// round-tripping through a [`Problem`].
pub(crate) struct RawLp<'a> {
    /// Constraint matrix, `m × n`.
    pub mat: &'a ColMatrix,
    /// Structural variable lower bounds (len `n`).
    pub var_lower: &'a [f64],
    /// Structural variable upper bounds (len `n`).
    pub var_upper: &'a [f64],
    /// Objective coefficients in maximize sense (len `n`).
    pub obj: &'a [f64],
    /// Row activity lower bounds (len `m`).
    pub row_lower: &'a [f64],
    /// Row activity upper bounds (len `m`).
    pub row_upper: &'a [f64],
}

/// A [`Problem`] frozen into the arrays a [`RawLp`] borrows, objective in
/// maximize sense.
struct OwnedLp {
    mat: ColMatrix,
    var_lower: Vec<f64>,
    var_upper: Vec<f64>,
    obj: Vec<f64>,
    row_lower: Vec<f64>,
    row_upper: Vec<f64>,
}

impl OwnedLp {
    fn from_problem(problem: &Problem) -> Result<Self, LpError> {
        let (n, m) = (problem.num_vars(), problem.num_rows());
        Ok(OwnedLp {
            mat: problem.freeze()?,
            var_lower: (0..n).map(|j| problem.var_bounds(j).lower).collect(),
            var_upper: (0..n).map(|j| problem.var_bounds(j).upper).collect(),
            obj: (0..n).map(|j| problem.max_objective(j)).collect(),
            row_lower: (0..m).map(|i| problem.row_bounds(i).lower).collect(),
            row_upper: (0..m).map(|i| problem.row_bounds(i).upper).collect(),
        })
    }

    fn raw(&self) -> RawLp<'_> {
        RawLp {
            mat: &self.mat,
            var_lower: &self.var_lower,
            var_upper: &self.var_upper,
            obj: &self.obj,
            row_lower: &self.row_lower,
            row_upper: &self.row_upper,
        }
    }
}

/// Counters accumulated by a [`SolverContext`] across solves.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveStats {
    /// Total solves routed through the context.
    pub solves: usize,
    /// Always 0: every solve starts from the all-logical basis.
    pub warm_attempts: usize,
    /// Always 0: every solve starts from the all-logical basis.
    pub warm_accepted: usize,
    /// Always 0: the solver runs no dual-simplex iterations.
    pub dual_iterations: usize,
    /// Phase 2 primal-simplex iterations.
    pub primal_iterations: usize,
}

/// Per-worker reusable solver state: scratch/workspace buffers, which every
/// solve resets before use, so a solve's result never depends on the solves
/// run before it. One context per thread — contexts are deliberately not
/// `Sync`.
#[derive(Debug, Default)]
pub struct SolverContext {
    col_buf: Vec<f64>,
    scratch: Vec<f64>,
    /// Counters across all solves run through this context.
    pub stats: SolveStats,
}

impl SolverContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        SolverContext::default()
    }
}

/// The production LP solver. See the module documentation.
#[derive(Debug, Default)]
pub struct RevisedSimplex {
    /// Solve options.
    pub options: SolveOptions,
}

struct Eta {
    slot: usize,
    pivot: f64,
    /// (slot, w) entries excluding the pivot slot.
    entries: Vec<(u32, f64)>,
}

const PIV_TOL: f64 = 1e-9;
/// Ceiling for the ratio-test pivot tolerance raised by basis repairs.
const MAX_PIV_TOL: f64 = 1e-6;
const D_TOL: f64 = 1e-7;
const DEGENERATE_SWITCH: usize = 20_000;

struct Work<'a> {
    n: usize,
    m: usize,
    mat: &'a ColMatrix,
    /// bounds/objective for all variables: structural, logical, artificial
    lower: Vec<f64>,
    upper: Vec<f64>,
    obj: Vec<f64>,
    /// artificial -> (source variable, sign): its column is `sign` times the
    /// column of the source, a logical for the start's artificials and the
    /// displaced basic variable for a basis repair's
    art: Vec<(usize, f64)>,
    state: Vec<VarState>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    lu: LuFactors,
    etas: Vec<Eta>,
    scratch: Vec<f64>,
    col_buf: Vec<f64>,
    iterations: usize,
    /// Smallest ratio-test pivot accepted: [`PIV_TOL`] until a basis repair
    /// raises it, so a spurious pivot that broke the basis once is not taken
    /// again.
    piv_tol: f64,
}

impl<'a> Work<'a> {
    /// The all-logical start of a solve: structurals at a finite bound (or
    /// zero), logicals basic, and one artificial per row that start
    /// violates, its logical parked at the violated bound. `ctx` lends its
    /// workspace buffers.
    fn start(raw: &RawLp<'a>, ctx: Option<&mut SolverContext>) -> Result<Work<'a>, LpError> {
        let mat = raw.mat;
        let n = mat.cols();
        let m = mat.rows();
        let mut lower: Vec<f64> = Vec::with_capacity(n + m);
        let mut upper: Vec<f64> = Vec::with_capacity(n + m);
        let mut obj: Vec<f64> = Vec::with_capacity(n + m);
        lower.extend_from_slice(raw.var_lower);
        lower.extend_from_slice(raw.row_lower);
        upper.extend_from_slice(raw.var_upper);
        upper.extend_from_slice(raw.row_upper);
        obj.extend_from_slice(raw.obj);
        obj.resize(n + m, 0.0);

        // Initial nonbasic states for structural variables.
        let mut state: Vec<VarState> = (0..n)
            .map(|j| {
                if lower[j].is_finite() {
                    VarState::AtLower
                } else if upper[j].is_finite() {
                    VarState::AtUpper
                } else {
                    VarState::AtZero
                }
            })
            .collect();
        state.extend(std::iter::repeat_n(VarState::Basic, m));

        // Row activities at the initial point.
        let mut act = vec![0.0f64; m];
        for j in 0..n {
            let v = match state[j] {
                VarState::AtLower => lower[j],
                VarState::AtUpper => upper[j],
                _ => 0.0,
            };
            if v != 0.0 {
                for (i, a) in mat.col(j) {
                    act[i] += a * v;
                }
            }
        }

        // Build artificials for violated rows; logicals of those rows become
        // nonbasic at their nearest bound.
        let mut art: Vec<(usize, f64)> = Vec::new();
        let mut basis: Vec<usize> = (0..m).map(|i| n + i).collect();
        let mut xb = act.clone();
        for i in 0..m {
            let (lo, hi) = (lower[n + i], upper[n + i]);
            if act[i] < lo - crate::FEAS_TOL {
                // s clamps to lo; artificial z = lo - act with column +e_i
                // (the negated logical column).
                state[n + i] = VarState::AtLower;
                let t = art.len();
                art.push((n + i, -1.0));
                basis[i] = n + m + t; // placeholder; art indices appended below
                xb[i] = lo - act[i];
            } else if act[i] > hi + crate::FEAS_TOL {
                state[n + i] = VarState::AtUpper;
                let t = art.len();
                art.push((n + i, 1.0));
                basis[i] = n + m + t;
                xb[i] = act[i] - hi;
            }
        }
        for _ in 0..art.len() {
            lower.push(0.0);
            upper.push(f64::INFINITY);
            obj.push(0.0);
            state.push(VarState::Basic);
        }

        // The initial basis is mixed logicals/artificials — all singleton
        // columns — so this factorization is trivially sparse.
        let lu = factorize_basis(n, m, mat, &art, &basis)?;
        let (mut col_buf, scratch) = match ctx {
            Some(c) => (std::mem::take(&mut c.col_buf), std::mem::take(&mut c.scratch)),
            None => (Vec::new(), Vec::new()),
        };
        col_buf.clear();
        col_buf.resize(m, 0.0);
        Ok(Work {
            n,
            m,
            mat,
            lower,
            upper,
            obj,
            art,
            state,
            basis,
            xb,
            lu,
            etas: Vec::new(),
            scratch,
            col_buf,
            iterations: 0,
            piv_tol: PIV_TOL,
        })
    }

    /// Phase 1's objective: maximize −Σ artificials.
    fn begin_phase_one(&mut self) {
        let nm = self.n + self.m;
        self.obj[..nm].fill(0.0);
        self.obj[nm..].fill(-1.0);
    }

    /// Ends a feasible Phase 1: fixes every artificial at zero and restores
    /// the real objective `obj` (structurals; logicals and artificials cost
    /// nothing).
    fn end_phase_one(&mut self, obj: &[f64]) {
        for j in self.n + self.m..self.nvars() {
            self.upper[j] = 0.0;
            if self.state[j] != VarState::Basic {
                self.state[j] = VarState::AtLower;
            }
        }
        self.obj.clear();
        self.obj.extend_from_slice(obj);
        self.obj.resize(self.nvars(), 0.0);
    }

    fn nvars(&self) -> usize {
        self.n + self.m + self.art.len()
    }

    /// Writes the constraint-matrix column of variable `j` into `out`
    /// (original row space, dense).
    fn scatter_col(&self, j: usize, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        if j < self.n {
            for (i, v) in self.mat.col(j) {
                out[i] = v;
            }
        } else if j < self.n + self.m {
            out[j - self.n] = -1.0;
        } else {
            for_each_entry(self.n, self.m, self.mat, &self.art, j, |i, v| out[i] = v);
        }
    }

    /// Dot of the constraint column of `j` with a dense row-space vector.
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            self.mat.col_dot(j, y)
        } else if j < self.n + self.m {
            -y[j - self.n]
        } else {
            self.art_dot(j, y)
        }
    }

    /// [`Self::col_dot`] for an artificial: its source is a structural or a
    /// logical, never another artificial (see [`Self::refactorize`]). Kept
    /// out of line so the structural and logical cases stay small in the
    /// pricing loop.
    #[cold]
    #[inline(never)]
    fn art_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (src, sign) = self.art[j - self.n - self.m];
        let d = if src < self.n { self.mat.col_dot(src, y) } else { -y[src - self.n] };
        sign * d
    }

    /// Nonbasic value of variable `j` implied by its state.
    fn nb_value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::AtLower => self.lower[j],
            VarState::AtUpper => self.upper[j],
            VarState::AtZero => 0.0,
            VarState::Basic => unreachable!("nb_value on basic variable"),
        }
    }

    /// Full FTRAN through LU and the eta file. `v` enters in original row
    /// space and exits indexed by basis slot.
    fn ftran(&mut self, v: &mut [f64]) {
        self.lu.ftran(v, &mut self.scratch);
        for eta in &self.etas {
            let xp = v[eta.slot] / eta.pivot;
            v[eta.slot] = xp;
            if xp != 0.0 {
                for &(i, w) in &eta.entries {
                    v[i as usize] -= w * xp;
                }
            }
        }
    }

    /// Full BTRAN. `c` enters indexed by basis slot and exits in original
    /// row space.
    fn btran(&mut self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = c[eta.slot];
            for &(i, w) in &eta.entries {
                s -= c[i as usize] * w;
            }
            c[eta.slot] = s / eta.pivot;
        }
        self.lu.btran(c, &mut self.scratch);
    }

    /// Recomputes basic values from nonbasic bound values.
    fn recompute_xb(&mut self) {
        let mut rhs = vec![0.0f64; self.m];
        for j in 0..self.nvars() {
            if self.state[j] != VarState::Basic {
                let v = self.nb_value(j);
                if v != 0.0 {
                    if j < self.n {
                        for (i, a) in self.mat.col(j) {
                            rhs[i] -= a * v;
                        }
                    } else if j < self.n + self.m {
                        rhs[j - self.n] += v;
                    } else {
                        for_each_entry(self.n, self.m, self.mat, &self.art, j, |i, a| {
                            rhs[i] -= a * v;
                        });
                    }
                }
            }
        }
        self.ftran(&mut rhs);
        self.xb = rhs;
    }

    /// Rebuilds the LU factorization from the current basis and clears etas.
    ///
    /// Roundoff in the eta file can let a pivot on a spurious nonzero make
    /// the basis numerically singular; the fresh LU then finds a column it
    /// cannot pivot. Such a basis is repaired: each deficient column leaves
    /// for the logical of a row the LU left unpivoted (the nonsingular basis
    /// of [`LuFactors::factorize_repairing`]), parked at the bound nearest its
    /// value. Any basic variable the new point leaves outside its bounds is
    /// parked at the violated bound, and an artificial copy of its column
    /// takes its slot and carries the difference. Returns whether that added
    /// artificials, in which case the caller re-enters Phase 1. A basis that
    /// factorizes — every solve that never meets a singular basis — takes
    /// none of this path.
    fn refactorize(&mut self) -> Result<bool, LpError> {
        let (n, m) = (self.n, self.m);
        let cols = basis_columns(n, m, self.mat, &self.art, &self.basis);
        let (lu, swaps) = LuFactors::factorize_repairing(m, |s| BasisColumn {
            rows: &cols[s].0,
            values: &cols[s].1,
        });
        self.lu = lu;
        self.etas.clear();
        if swaps.is_empty() {
            self.recompute_xb();
            return Ok(false);
        }
        r2t_obs::counter_add("lp.basis.repairs", 1);
        self.piv_tol = (self.piv_tol * 10.0).min(MAX_PIV_TOL);
        for (slot, row) in swaps {
            let out = self.basis[slot];
            self.state[out] = self.nearest_bound(out, self.xb[slot]);
            self.basis[slot] = n + row;
            self.state[n + row] = VarState::Basic;
        }
        self.recompute_xb();

        let mut added = false;
        for s in 0..m {
            let j = self.basis[s];
            let (x, lo, hi) = (self.xb[s], self.lower[j], self.upper[j]);
            // z = sign · (x − bound) ≥ 0 with column sign · a_j keeps every
            // other basic value where it is.
            let (parked, sign) = if x < lo - crate::FEAS_TOL {
                (VarState::AtLower, -1.0)
            } else if x > hi + crate::FEAS_TOL {
                (VarState::AtUpper, 1.0)
            } else {
                continue;
            };
            let source = if j < n + m {
                (j, sign)
            } else {
                (self.art[j - n - m].0, sign * self.art[j - n - m].1)
            };
            self.state[j] = parked;
            self.basis[s] = self.nvars();
            self.art.push(source);
            self.lower.push(0.0);
            self.upper.push(f64::INFINITY);
            self.obj.push(0.0);
            self.state.push(VarState::Basic);
            added = true;
        }
        if added {
            self.lu = factorize_basis(n, m, self.mat, &self.art, &self.basis)?;
            self.recompute_xb();
        }
        Ok(added)
    }

    /// The nonbasic state a variable leaving the basis at value `x` takes:
    /// its nearer finite bound, or zero when it has none.
    fn nearest_bound(&self, j: usize, x: f64) -> VarState {
        let (lo, hi) = (self.lower[j], self.upper[j]);
        match (lo.is_finite(), hi.is_finite()) {
            (true, true) if x - lo <= hi - x => VarState::AtLower,
            (true, true) | (false, true) => VarState::AtUpper,
            (true, false) => VarState::AtLower,
            (false, false) => VarState::AtZero,
        }
    }

    /// Current objective under cost vector `obj` (maximize sense).
    fn objective(&self) -> f64 {
        let mut total = 0.0;
        for (s, &j) in self.basis.iter().enumerate() {
            total += self.obj[j] * self.xb[s];
        }
        for j in 0..self.nvars() {
            if self.state[j] != VarState::Basic && self.obj[j] != 0.0 {
                total += self.obj[j] * self.nb_value(j);
            }
        }
        total
    }

    /// Row duals for the current basis under the current cost vector.
    fn duals(&mut self) -> Vec<f64> {
        let mut c = Vec::new();
        self.duals_into(&mut c);
        c
    }

    /// [`Self::duals`] into a caller-owned buffer, so per-iteration callers
    /// pay no allocation.
    fn duals_into(&mut self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.basis.iter().map(|&j| self.obj[j]));
        self.btran(out);
    }

    /// A weak-duality upper bound on the optimum from the current duals,
    /// with `y` projected onto the sign-feasible orthant of the row bounds
    /// (see `crate::dual_bound`). Computed without touching the `Problem`.
    fn dual_upper_bound(&mut self) -> f64 {
        #[inline]
        fn mul(y: f64, b: f64) -> f64 {
            if y == 0.0 {
                0.0
            } else {
                y * b
            }
        }
        let mut y = self.duals();
        let mut total = 0.0f64;
        for i in 0..self.m {
            let (lo, hi) = (self.lower[self.n + i], self.upper[self.n + i]);
            if hi.is_infinite() && y[i] > 0.0 {
                y[i] = 0.0;
            }
            if lo.is_infinite() && y[i] < 0.0 {
                y[i] = 0.0;
            }
            total += mul(y[i], lo).max(mul(y[i], hi));
        }
        for j in 0..self.n {
            let mut d = self.obj[j] - self.mat.col_dot(j, &y);
            if d.abs() < 1e-11 {
                d = 0.0;
            }
            total += mul(d, self.lower[j]).max(mul(d, self.upper[j]));
        }
        if total.is_nan() {
            f64::INFINITY
        } else {
            total
        }
    }
}

/// Calls `f(row, value)` for every entry of variable `j`'s column: a
/// structural's matrix column, a logical's `−e_i`, or an artificial's signed
/// copy of its source column.
fn for_each_entry(
    n: usize,
    m: usize,
    mat: &ColMatrix,
    art: &[(usize, f64)],
    j: usize,
    mut f: impl FnMut(usize, f64),
) {
    let (src, sign) = if j < n + m { (j, 1.0) } else { art[j - n - m] };
    if src < n {
        for (i, v) in mat.col(src) {
            f(i, sign * v);
        }
    } else {
        f(src - n, -sign);
    }
}

/// The sparse columns of the basis described by variable indices
/// (structural / logical / artificial), one per slot.
fn basis_columns(
    n: usize,
    m: usize,
    mat: &ColMatrix,
    art: &[(usize, f64)],
    basis: &[usize],
) -> Vec<(Vec<u32>, Vec<f64>)> {
    let mut cols: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(m);
    for &j in basis {
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for_each_entry(n, m, mat, art, j, |i, v| {
            rows.push(i as u32);
            vals.push(v);
        });
        cols.push((rows, vals));
    }
    cols
}

/// Factorizes the basis described by variable indices into LU form.
fn factorize_basis(
    n: usize,
    m: usize,
    mat: &ColMatrix,
    art: &[(usize, f64)],
    basis: &[usize],
) -> Result<LuFactors, LpError> {
    let cols = basis_columns(n, m, mat, art, basis);
    LuFactors::factorize(m, |s| BasisColumn { rows: &cols[s].0, values: &cols[s].1 })
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterLimit,
    Stopped,
    /// A basis repair added artificials: Phase 1 must run again.
    Repaired,
}

impl RevisedSimplex {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        RevisedSimplex::default()
    }

    /// Solves the problem to optimality (or another terminal status).
    pub fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        self.solve_with_callback(problem, |_| true)
    }

    /// Solves the problem, invoking `cb` every `options.event_every`
    /// iterations (if nonzero). Returning `false` from the callback aborts
    /// with [`Status::Stopped`]; the returned solution is the best
    /// primal-feasible point found (a valid lower bound for maximization).
    pub fn solve_with_callback<F>(&self, problem: &Problem, cb: F) -> Result<Solution, LpError>
    where
        F: FnMut(SolverEvent) -> bool,
    {
        let lp = OwnedLp::from_problem(problem)?;
        let mut sol = self.solve_raw(&lp.raw(), None, cb)?;
        // solve_raw works in maximize sense; negation back to the stated
        // sense is exact, so this matches evaluating the stated objective.
        if problem.sense() == crate::problem::Sense::Minimize && sol.status != Status::Infeasible {
            sol.objective = -sol.objective;
        }
        Ok(sol)
    }

    /// The solve entry over a borrowed maximize-sense LP: all-logical start,
    /// Phase 1 artificials when that start violates a row. `ctx` lends its
    /// workspace buffers and counts the solve.
    pub(crate) fn solve_raw<F>(
        &self,
        raw: &RawLp<'_>,
        mut ctx: Option<&mut SolverContext>,
        mut cb: F,
    ) -> Result<Solution, LpError>
    where
        F: FnMut(SolverEvent) -> bool,
    {
        let n = raw.mat.cols();
        let m = raw.mat.rows();
        let _solve_span = r2t_obs::span("lp.solve");
        r2t_obs::counter_add("lp.solves", 1);
        if let Some(c) = ctx.as_deref_mut() {
            c.stats.solves += 1;
        }
        if m == 0 {
            return Ok(box_solution(raw));
        }
        let mut w = Work::start(raw, ctx.as_deref_mut())?;
        let max_iters = if self.options.max_iterations == 0 {
            60 * (m + n) + 20_000
        } else {
            self.options.max_iterations
        };

        // Phase 1 runs whenever artificials are unfinished: at the start when
        // a row is violated, and again after a basis repair left a basic
        // variable outside its bounds (see `Work::refactorize`).
        let mut phase_one = !w.art.is_empty();
        let outcome = loop {
            if phase_one {
                w.begin_phase_one();
                match self.iterate(&mut w, max_iters, true, &mut cb)? {
                    PhaseOutcome::Optimal => {}
                    PhaseOutcome::Repaired => continue,
                    PhaseOutcome::Unbounded => {
                        // Phase-1 objective is bounded above by 0; "unbounded"
                        // can only arise from numerical trouble.
                        return Err(LpError::SingularBasis);
                    }
                    PhaseOutcome::IterLimit => {
                        return Ok(Solution {
                            status: Status::IterationLimit,
                            objective: f64::NAN,
                            x: vec![0.0; n],
                            y: vec![0.0; m],
                            iterations: w.iterations,
                        });
                    }
                    PhaseOutcome::Stopped => {
                        return Ok(Solution {
                            status: Status::Stopped,
                            objective: f64::NAN,
                            x: vec![0.0; n],
                            y: vec![0.0; m],
                            iterations: w.iterations,
                        });
                    }
                }
                if w.objective() < -1e-6 {
                    return Ok(Solution::infeasible(n, m, w.iterations));
                }
                w.end_phase_one(raw.obj);
            }
            let before = w.iterations;
            let outcome = self.iterate(&mut w, max_iters, false, &mut cb)?;
            r2t_obs::counter_add("lp.iterations.primal", (w.iterations - before) as u64);
            if let Some(c) = ctx.as_deref_mut() {
                c.stats.primal_iterations += w.iterations - before;
            }
            match outcome {
                PhaseOutcome::Repaired => phase_one = true,
                done => break done,
            }
        };
        let status = match outcome {
            PhaseOutcome::Optimal => Status::Optimal,
            PhaseOutcome::Unbounded => Status::Unbounded,
            PhaseOutcome::IterLimit => Status::IterationLimit,
            PhaseOutcome::Stopped => Status::Stopped,
            PhaseOutcome::Repaired => unreachable!("repairs loop back into Phase 1"),
        };
        Ok(finish(raw, w, status, ctx))
    }

    /// Runs simplex iterations under the current cost vector until optimal,
    /// unbounded, the iteration cap, or a callback stop. The callback is a
    /// trait object, so the pivot loop is compiled once, here, rather than
    /// once per caller's callback type.
    fn iterate(
        &self,
        w: &mut Work<'_>,
        max_iters: usize,
        phase_one: bool,
        cb: &mut dyn FnMut(SolverEvent) -> bool,
    ) -> Result<PhaseOutcome, LpError> {
        let mut degenerate_run = 0usize;
        let mut bland = false;
        let mut candidates: Vec<usize> = Vec::new();
        let mut all: Vec<(usize, f64, f64)> = Vec::new();
        let mut y: Vec<f64> = Vec::new();
        loop {
            if w.iterations >= max_iters {
                return Ok(PhaseOutcome::IterLimit);
            }
            // Pricing. Bland mode: full scan, smallest improving index
            // (anti-cycling). Candidate-list mode: price only the candidate
            // list; when it is exhausted, a full Dantzig scan refills it
            // with the top-K improving columns (a fruitless full scan proves
            // optimality). partial_pricing == 0: full Dantzig every time.
            w.duals_into(&mut y);
            let nvars = w.nvars();
            let klist = self.options.partial_pricing;
            let price = |w: &Work<'_>, j: usize, y: &[f64]| -> Option<(f64, f64)> {
                let st = w.state[j];
                if st == VarState::Basic || (w.lower[j] == w.upper[j] && st != VarState::AtZero) {
                    return None;
                }
                let d = w.obj[j] - w.col_dot(j, y);
                let dtol = D_TOL * (1.0 + w.obj[j].abs());
                let improving = match st {
                    VarState::AtLower => d > dtol,
                    VarState::AtUpper => d < -dtol,
                    VarState::AtZero => d.abs() > dtol,
                    VarState::Basic => false,
                };
                improving.then_some((d, d.abs()))
            };
            let mut enter: Option<(usize, f64, f64)> = None; // (var, d, score)
            if bland {
                for j in 0..nvars {
                    if let Some((d, score)) = price(w, j, &y) {
                        enter = Some((j, d, score));
                        break;
                    }
                }
            } else if klist != 0 {
                // Price the current candidate list.
                candidates.retain(|&j| {
                    if let Some((d, score)) = price(w, j, &y) {
                        if enter.is_none_or(|(_, _, s)| score > s) {
                            enter = Some((j, d, score));
                        }
                        true
                    } else {
                        false
                    }
                });
                if enter.is_none() {
                    // Refill with the top-K improving columns. Early pivots can
                    // see tens of thousands of improving columns, so select the
                    // top K first and only sort those.
                    all.clear();
                    for j in 0..nvars {
                        if let Some((d, score)) = price(w, j, &y) {
                            all.push((j, d, score));
                        }
                    }
                    if all.len() > klist {
                        all.select_nth_unstable_by(klist - 1, |a, b| {
                            b.2.partial_cmp(&a.2).expect("finite scores")
                        });
                        all.truncate(klist);
                    }
                    all.sort_unstable_by(|a, b| b.2.partial_cmp(&a.2).expect("finite scores"));
                    candidates.clear();
                    candidates.extend(all.iter().map(|&(j, _, _)| j));
                    enter = all.first().copied();
                }
            } else {
                for j in 0..nvars {
                    if let Some((d, score)) = price(w, j, &y) {
                        if enter.is_none_or(|(_, _, s)| score > s) {
                            enter = Some((j, d, score));
                        }
                    }
                }
            }
            let Some((enter, d_enter, _)) = enter else {
                return Ok(PhaseOutcome::Optimal);
            };
            candidates.retain(|&j| j != enter);
            let sigma = match w.state[enter] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::AtZero => {
                    if d_enter > 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VarState::Basic => unreachable!(),
            };

            // FTRAN the entering column.
            let mut col = std::mem::take(&mut w.col_buf);
            w.scatter_col(enter, &mut col);
            w.ftran(&mut col);

            // Ratio test.
            let mut t_star = f64::INFINITY;
            let mut leave: Option<(usize, VarState)> = None; // (slot, new state)
            let mut leave_w = 0.0f64;
            let piv_tol = w.piv_tol;
            for (s, &wv) in col.iter().enumerate() {
                let dir = sigma * wv;
                if dir > piv_tol {
                    let lb = w.lower[w.basis[s]];
                    if lb.is_finite() {
                        let t = (w.xb[s] - lb) / dir;
                        if t < t_star - 1e-12
                            || (t < t_star + 1e-12
                                && (wv.abs() > leave_w.abs()
                                    || (bland
                                        && leave.is_some_and(|(ls, _)| w.basis[s] < w.basis[ls]))))
                        {
                            t_star = t.max(0.0);
                            leave = Some((s, VarState::AtLower));
                            leave_w = wv;
                        }
                    }
                } else if dir < -piv_tol {
                    let ub = w.upper[w.basis[s]];
                    if ub.is_finite() {
                        let t = (ub - w.xb[s]) / (-dir);
                        if t < t_star - 1e-12
                            || (t < t_star + 1e-12
                                && (wv.abs() > leave_w.abs()
                                    || (bland
                                        && leave.is_some_and(|(ls, _)| w.basis[s] < w.basis[ls]))))
                        {
                            t_star = t.max(0.0);
                            leave = Some((s, VarState::AtUpper));
                            leave_w = wv;
                        }
                    }
                }
            }
            // Bound-flip candidate.
            let flip_len = w.upper[enter] - w.lower[enter];
            let flip = flip_len.is_finite() && flip_len < t_star;
            if flip {
                t_star = flip_len;
                leave = None;
            }
            if t_star.is_infinite() {
                w.col_buf = col;
                return Ok(PhaseOutcome::Unbounded);
            }

            // Apply the step to basic values.
            if t_star != 0.0 {
                for (s, &wv) in col.iter().enumerate() {
                    if wv != 0.0 {
                        w.xb[s] -= sigma * t_star * wv;
                    }
                }
            }
            if let Some((r, new_state)) = leave {
                let leaving = w.basis[r];
                // Clamp the leaving variable exactly onto its bound.
                w.state[leaving] = new_state;
                let enter_val = match w.state[enter] {
                    VarState::AtLower => w.lower[enter] + t_star,
                    VarState::AtUpper => w.upper[enter] - t_star,
                    VarState::AtZero => sigma * t_star,
                    VarState::Basic => unreachable!(),
                };
                w.basis[r] = enter;
                w.state[enter] = VarState::Basic;
                w.xb[r] = enter_val;
                // Record the eta (w vector without the pivot slot).
                let pivot = col[r];
                let mut entries: Vec<(u32, f64)> = Vec::new();
                for (s, &wv) in col.iter().enumerate() {
                    if s != r && wv != 0.0 {
                        entries.push((s as u32, wv));
                    }
                }
                w.etas.push(Eta { slot: r, pivot, entries });
                if w.etas.len() >= self.options.refactor_interval {
                    w.col_buf = col;
                    if w.refactorize()? {
                        w.iterations += 1;
                        return Ok(PhaseOutcome::Repaired);
                    }
                    col = std::mem::take(&mut w.col_buf);
                }
            } else {
                // Bound flip: entering variable jumps to its other bound.
                w.state[enter] = match w.state[enter] {
                    VarState::AtLower => VarState::AtUpper,
                    VarState::AtUpper => VarState::AtLower,
                    s => s,
                };
            }
            w.col_buf = col;
            w.iterations += 1;

            if t_star <= 1e-10 {
                degenerate_run += 1;
                if degenerate_run > DEGENERATE_SWITCH {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
                bland = false;
            }

            if self.options.event_every != 0
                && w.iterations.is_multiple_of(self.options.event_every)
            {
                let dual = if phase_one { f64::INFINITY } else { w.dual_upper_bound() };
                let ev = SolverEvent {
                    iteration: w.iterations,
                    primal_objective: w.objective(),
                    dual_bound: dual,
                    phase_one,
                };
                r2t_obs::counter_add("lp.cutoff.checks", 1);
                if !cb(ev) {
                    r2t_obs::counter_add("lp.cutoff.stops", 1);
                    return Ok(PhaseOutcome::Stopped);
                }
            }
        }
    }
}

/// Solves an `m == 0` pure box problem (maximize sense).
fn box_solution(raw: &RawLp<'_>) -> Solution {
    let n = raw.mat.cols();
    let mut x = vec![0.0; n];
    for j in 0..n {
        let (lo, hi) = (raw.var_lower[j], raw.var_upper[j]);
        let c = raw.obj[j];
        x[j] = if c > 0.0 {
            if hi.is_finite() {
                hi
            } else {
                f64::INFINITY
            }
        } else if c < 0.0 {
            if lo.is_finite() {
                lo
            } else {
                f64::NEG_INFINITY
            }
        } else if lo.is_finite() {
            lo
        } else if hi.is_finite() {
            hi
        } else {
            0.0
        };
        if !x[j].is_finite() {
            return Solution {
                status: Status::Unbounded,
                objective: f64::INFINITY,
                x: vec![0.0; n],
                y: Vec::new(),
                iterations: 0,
            };
        }
    }
    let objective = raw.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
    Solution { status: Status::Optimal, objective, x, y: Vec::new(), iterations: 0 }
}

/// Extracts the structural solution (maximize-sense objective) and returns
/// the workspace buffers to `ctx`.
fn finish(
    raw: &RawLp<'_>,
    mut w: Work<'_>,
    status: Status,
    ctx: Option<&mut SolverContext>,
) -> Solution {
    let n = w.n;
    let mut x = vec![0.0f64; n];
    for j in 0..n {
        if w.state[j] != VarState::Basic {
            x[j] = w.nb_value(j);
        }
    }
    for (s, &j) in w.basis.iter().enumerate() {
        if j < n {
            x[j] = w.xb[s];
        }
    }
    let y = w.duals();
    let objective = if status == Status::Unbounded {
        f64::INFINITY
    } else {
        raw.obj.iter().zip(&x).map(|(c, v)| c * v).sum()
    };
    if let Some(c) = ctx {
        c.col_buf = std::mem::take(&mut w.col_buf);
        c.scratch = std::mem::take(&mut w.scratch);
    }
    Solution { status, objective, x, y, iterations: w.iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RowBounds, Sense, VarBounds};

    fn solve(p: &Problem) -> Solution {
        RevisedSimplex::new().solve(p).unwrap()
    }

    #[test]
    fn simple_max() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::new(0.0, 1.0));
        let y = p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_most(1.0), &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn bound_flip_path() {
        // max 2x + y with x in [0,3] unconstrained by the row: x flips to its
        // upper bound without a basis change.
        let mut p = Problem::new();
        let _x = p.add_var(2.0, VarBounds::new(0.0, 3.0));
        let y = p.add_var(1.0, VarBounds::non_negative());
        p.add_row(RowBounds::at_most(4.0), &[(y, 1.0)]);
        let s = solve(&p);
        assert!((s.objective - 10.0).abs() < 1e-7, "{}", s.objective);
    }

    #[test]
    fn equality_rows_via_phase_one() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::non_negative());
        let y = p.add_var(0.0, VarBounds::new(1.0, f64::INFINITY));
        p.add_row(RowBounds::equal(2.0), &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-7, "{}", s.objective);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_least(2.0), &[(x, 1.0)]);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::non_negative());
        p.add_row(RowBounds::at_least(0.0), &[(x, 1.0)]);
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn minimize_sense() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::non_negative());
        let y = p.add_var(1.0, VarBounds::non_negative());
        p.set_sense(Sense::Minimize);
        p.add_row(RowBounds::at_least(3.0), &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn no_rows_box_problem() {
        let mut p = Problem::new();
        p.add_var(3.0, VarBounds::new(0.0, 2.0));
        p.add_var(-1.0, VarBounds::new(-1.0, 5.0));
        let s = solve(&p);
        assert!((s.objective - 7.0).abs() < 1e-12);
        assert_eq!(s.x, vec![2.0, -1.0]);
    }

    #[test]
    fn duals_close_weak_duality_gap() {
        // 4-clique truncation LP at tau = 2 (from Example 6.2): OPT = 4.
        let mut p = Problem::new();
        let edges = [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let vars: Vec<usize> =
            edges.iter().map(|_| p.add_var(1.0, VarBounds::new(0.0, 1.0))).collect();
        for v in 0..4 {
            let terms: Vec<(usize, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.0 == v || e.1 == v)
                .map(|(k, _)| (vars[k], 1.0))
                .collect();
            p.add_row(RowBounds::at_most(2.0), &terms);
        }
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-7, "{}", s.objective);
        let ub = crate::dual_bound::lagrangian_bound(&p, &s.y);
        assert!(ub >= s.objective - 1e-7);
        assert!(ub <= s.objective + 1e-6, "gap: {} vs {}", ub, s.objective);
    }

    #[test]
    fn callback_stop_returns_feasible_point() {
        // A big enough star LP that at least one event fires.
        let mut p = Problem::new();
        let vars: Vec<usize> = (0..200).map(|_| p.add_var(1.0, VarBounds::new(0.0, 1.0))).collect();
        for w in vars.chunks(2) {
            p.add_row(RowBounds::at_most(1.0), &[(w[0], 1.0), (w[1], 1.0)]);
        }
        let solver =
            RevisedSimplex { options: SolveOptions { event_every: 1, ..SolveOptions::default() } };
        let s = solver.solve_with_callback(&p, |ev| ev.iteration < 5).unwrap();
        assert_eq!(s.status, Status::Stopped);
        assert!(p.max_violation(&s.x) <= 1e-7);
    }

    #[test]
    fn events_report_consistent_bounds() {
        let mut p = Problem::new();
        let vars: Vec<usize> = (0..64).map(|_| p.add_var(1.0, VarBounds::new(0.0, 1.0))).collect();
        for w in vars.windows(2) {
            p.add_row(RowBounds::at_most(1.0), &[(w[0], 1.0), (w[1], 1.0)]);
        }
        let solver =
            RevisedSimplex { options: SolveOptions { event_every: 4, ..SolveOptions::default() } };
        let mut events = Vec::new();
        let s = solver
            .solve_with_callback(&p, |ev| {
                events.push(ev);
                true
            })
            .unwrap();
        assert_eq!(s.status, Status::Optimal);
        for ev in &events {
            assert!(ev.dual_bound >= ev.primal_objective - 1e-6, "dual bound below primal: {ev:?}");
            assert!(ev.dual_bound >= s.objective - 1e-6);
        }
    }

    #[test]
    fn large_chain_refactorizes() {
        // Force more iterations than the refactor interval.
        let mut p = Problem::new();
        let n = 300;
        let vars: Vec<usize> = (0..n)
            .map(|i| p.add_var(1.0 + (i % 7) as f64 * 0.1, VarBounds::new(0.0, 1.0)))
            .collect();
        for w in vars.windows(2) {
            p.add_row(RowBounds::at_most(1.2), &[(w[0], 1.0), (w[1], 1.0)]);
        }
        let solver = RevisedSimplex {
            options: SolveOptions { refactor_interval: 16, ..SolveOptions::default() },
        };
        let s = solver.solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(p.max_violation(&s.x) <= 1e-6);
        // Compare against the dense oracle.
        let d = crate::dense::DenseSimplex::new().solve(&p).unwrap();
        assert!((s.objective - d.objective).abs() < 1e-5, "{} vs {}", s.objective, d.objective);
    }

    /// Badly scaled rows on which the eta file pivots on a roundoff-sized
    /// entry: with a refactorization every two pivots the next LU finds the
    /// basis singular (without the repair the solve fails with
    /// [`LpError::SingularBasis`]).
    fn singular_after_two_pivots() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::new(0.0, 1e3));
        let y = p.add_var(3.0, VarBounds::new(0.0, 0.1));
        p.add_row(RowBounds::at_most(1e3), &[(x, -1.0)]);
        p.add_row(RowBounds::at_most(5.0), &[(x, -1.0), (y, 1e3)]);
        p.add_row(RowBounds::at_most(5.0), &[(x, 1.000000001e-3)]);
        p.add_row(RowBounds::at_most(1e-3), &[(y, 1.000000001)]);
        p.add_row(RowBounds::at_most(1e3), &[(x, 1e-6), (y, 1e6)]);
        p
    }

    #[test]
    fn singular_refactorization_is_repaired() {
        let p = singular_after_two_pivots();
        let dense = crate::dense::DenseSimplex::new().solve(&p).unwrap();
        for partial_pricing in [0, 64] {
            let solver = RevisedSimplex {
                options: SolveOptions {
                    refactor_interval: 2,
                    partial_pricing,
                    ..SolveOptions::default()
                },
            };
            let s = solver.solve(&p).expect("a singular refactorization is repaired");
            assert_eq!(s.status, Status::Optimal);
            assert!(
                (s.objective - dense.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
                "repaired {} vs dense {}",
                s.objective,
                dense.objective
            );
            assert!(p.max_violation(&s.x) <= 1e-6);
        }
    }

    /// Badly scaled rows on which, with a refactorization every three
    /// pivots, Phase 2 meets a singular basis and the repaired point leaves
    /// row 2's logical below its lower bound.
    fn reentry_after_repair() -> Problem {
        let mut p = Problem::new();
        let x0 = p.add_var(2.0, VarBounds::new(0.0, 1.0));
        let x1 = p.add_var(2.0, VarBounds::new(0.0, 1e3));
        let x2 = p.add_var(2.0, VarBounds::new(0.0, 100.0));
        p.add_var(2.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_most(10.0), &[(x0, 1e6), (x1, 1e-3), (x2, -2.0)]);
        p.add_row(RowBounds::at_most(10.0), &[(x0, 1e6), (x1, 1.000000001e-3)]);
        p.add_row(RowBounds { lower: 0.05, upper: 0.1 }, &[(x0, 1.000000001), (x1, 1e-3)]);
        p
    }

    #[test]
    fn a_repair_that_leaves_a_bound_reruns_phase_one() {
        let p = reentry_after_repair();
        let solver = RevisedSimplex {
            options: SolveOptions { refactor_interval: 3, ..SolveOptions::default() },
        };
        let lp = OwnedLp::from_problem(&p).unwrap();
        let raw = lp.raw();
        let (n, m) = (raw.mat.cols(), raw.mat.rows());
        // The start violates row 2's lower bound: one artificial, Phase 1.
        let mut w = Work::start(&raw, None).unwrap();
        assert_eq!(w.art.len(), 1);
        let mut go = |_: SolverEvent| true;
        w.begin_phase_one();
        assert!(matches!(solver.iterate(&mut w, 1000, true, &mut go), Ok(PhaseOutcome::Optimal)));
        w.end_phase_one(raw.obj);
        // Phase 2's first refactorization finds the basis singular; the
        // repair parks the displaced logical and an artificial takes its slot.
        assert!(matches!(solver.iterate(&mut w, 1000, false, &mut go), Ok(PhaseOutcome::Repaired)));
        assert_eq!(w.art.len(), 2, "the repair added an artificial: {:?}", w.art);
        assert!(w.piv_tol > PIV_TOL);
        let mut in_basis = vec![false; w.nvars()];
        for (s, &j) in w.basis.iter().enumerate() {
            assert!(!in_basis[j], "variable {j} basic twice: {:?}", w.basis);
            in_basis[j] = true;
            let (x, lo, hi) = (w.xb[s], w.lower[j], w.upper[j]);
            assert!(x >= lo - crate::FEAS_TOL && x <= hi + crate::FEAS_TOL, "slot {s}: {x}");
        }
        for (j, st) in w.state.iter().enumerate() {
            assert_eq!(*st == VarState::Basic, in_basis[j], "variable {j}: {st:?}");
        }
        assert!(w.basis.contains(&(n + m + 1)), "the new artificial is basic");
        // The solve then reruns Phase 1 and lands on the dense optimum.
        let dense = crate::dense::DenseSimplex::new().solve(&p).unwrap();
        for partial_pricing in [0, 64] {
            let options =
                SolveOptions { refactor_interval: 3, partial_pricing, ..SolveOptions::default() };
            let s = RevisedSimplex { options }.solve(&p).unwrap();
            assert_eq!(s.status, Status::Optimal);
            assert!((s.objective - dense.objective).abs() <= 1e-9 * dense.objective.abs());
            assert!(p.max_violation(&s.x) <= 1e-9);
        }
    }

    #[test]
    fn negative_rhs_rows_need_phase_one() {
        // x + y >= -1 with free-ish bounds pushing the start infeasible:
        // max -x - y with x,y in [-5,5], x + y <= -3 (start at lower bounds
        // -10 < -3 is fine) plus x + y >= -4.
        let mut p = Problem::new();
        let x = p.add_var(-1.0, VarBounds::new(-5.0, 5.0));
        let y = p.add_var(-1.0, VarBounds::new(-5.0, 5.0));
        p.add_row(RowBounds::at_most(-3.0), &[(x, 1.0), (y, 1.0)]);
        p.add_row(RowBounds::at_least(-4.0), &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-7, "{}", s.objective);
        assert!(p.max_violation(&s.x) <= 1e-7);
    }
}
