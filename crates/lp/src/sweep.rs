//! Branch-sweep solver layer: one LP structure shared across R2T's τ-race.
//!
//! R2T (Algorithm 1) solves `log₂ GS` truncation LPs that are **identical
//! except for the right-hand side** of the truncation rows: branch `j` uses
//! `τ = 2^j`. This module builds the LP once and re-parameterizes it per
//! branch:
//!
//! * **Shared structure.** [`SweepProblem`] freezes the constraint matrix,
//!   variable bounds and objective once. Each branch re-parameterizes only
//!   the sweep rows' upper bounds and gathers the surviving rows/columns —
//!   no `Problem` round trip, no activity recomputation.
//! * **Monotone presolve.** A truncation row `Σ_{k∈C} u_k ≤ τ` is redundant
//!   when its maximum activity is `≤ τ`, and the set of redundant rows at `τ`
//!   is a **superset** of the set at `τ/2`: redundancy is monotone in τ. Row
//!   activities and per-variable elimination thresholds are computed once;
//!   each branch's reduced LP is then a threshold cut over precomputed
//!   arrays. The cut is exact: a row is eliminated only when its maximum
//!   activity under the variable bounds proves it redundant, and a variable
//!   only once every row containing it is gone, pinned at its
//!   objective-optimal bound. The reduced LP keeps the **original row/column
//!   order** and the fixed objective is summed in original order.
//! * **One cold solve per branch.** Every branch starts the simplex from the
//!   all-logical basis of its reduced LP, so a branch value is a function of
//!   (structure, τ) alone: the same bits whichever session, worker, order or
//!   race mode asks for it.
//!
//! The intended driver is one [`SweepSession`] per racing worker thread: the
//! session owns the reusable solver workspace.

use crate::flow::{self, ClosedFormKernel, FlowProblem, FlowSession, KernelClass};
use crate::problem::{Problem, Sense};
use crate::revised::{RawLp, RevisedSimplex, SolveStats, SolverContext, SolverEvent};
use crate::sparse::ColMatrix;
use crate::{LpError, Status};

/// Relative tolerance for "row is redundant at τ".
const ELIM_TOL: f64 = 1e-9;

/// A τ-parameterized family of LPs sharing one frozen structure.
///
/// Built once from a maximize-sense [`Problem`] plus the list of *sweep rows*
/// (the rows whose upper bound is the truncation threshold τ). All other
/// ("static") rows keep their stated bounds in every branch. Sweep rows must
/// be upper-bounded only (`lower = -inf`), which is how the truncation LPs
/// build them.
#[derive(Debug)]
pub struct SweepProblem {
    /// Frozen matrix in original row/column order.
    mat: ColMatrix,
    /// Whether each row is a sweep (truncation) row.
    is_sweep: Vec<bool>,
    /// Per-row keep threshold: max activity for sweep rows, `+inf` for
    /// static rows (which are kept in every branch).
    row_act: Vec<f64>,
    /// Per-variable elimination threshold: the variable is kept at τ iff
    /// `threshold > τ` (up to tolerance). `+inf` when the variable touches a
    /// static row or has no finite fixed bound.
    var_threshold: Vec<f64>,
    /// Value each variable is fixed at once eliminated (NaN when it never
    /// can be).
    fixed_val: Vec<f64>,
    var_lower: Vec<f64>,
    var_upper: Vec<f64>,
    obj: Vec<f64>,
    /// Stated row bounds (sweep rows' upper bound is replaced by τ).
    row_lower: Vec<f64>,
    row_upper: Vec<f64>,
    /// Which solver backend the structure admits (see [`crate::flow`]).
    kernel: KernelClass,
    /// Flow network (double cover or layered), built when the class is
    /// `Matching` or `Layered`.
    flow: Option<FlowProblem>,
    /// Per-node closed form, built when the class is `ClosedForm`.
    closed: Option<ClosedFormKernel>,
}

/// Value a variable is fixed at when every row containing it is redundant
/// (the bound that maximizes its objective term). `None` when that bound is
/// infinite — such a variable can never be eliminated.
fn fixed_value(c: f64, lo: f64, hi: f64) -> Option<f64> {
    let v = if c > 0.0 {
        hi
    } else if c < 0.0 || lo.is_finite() {
        lo
    } else if hi.is_finite() {
        hi
    } else {
        0.0
    };
    v.is_finite().then_some(v)
}

impl SweepProblem {
    /// Builds the shared sweep structure. `sweep_rows` lists the rows whose
    /// upper bound becomes τ in each branch (their stated upper bound is
    /// ignored; their lower bound must be `-inf`).
    ///
    /// # Panics
    ///
    /// Panics if the problem is not maximize-sense, a sweep row index is out
    /// of range or repeated, or a sweep row has a finite lower bound.
    pub fn new(problem: &Problem, sweep_rows: &[usize]) -> Result<Self, LpError> {
        assert_eq!(problem.sense(), Sense::Maximize, "sweep problems are maximize-sense");
        let mat = problem.freeze()?;
        let n = mat.cols();
        let m = mat.rows();
        let mut is_sweep = vec![false; m];
        for &i in sweep_rows {
            assert!(i < m, "sweep row {i} out of range");
            assert!(!is_sweep[i], "sweep row {i} repeated");
            assert_eq!(
                problem.row_bounds(i).lower,
                f64::NEG_INFINITY,
                "sweep rows must be at-most rows"
            );
            is_sweep[i] = true;
        }

        let var_lower: Vec<f64> = (0..n).map(|j| problem.var_bounds(j).lower).collect();
        let var_upper: Vec<f64> = (0..n).map(|j| problem.var_bounds(j).upper).collect();
        let obj: Vec<f64> = (0..n).map(|j| problem.max_objective(j)).collect();

        // Max activity of every row under the variable bounds; static rows
        // get +inf so the per-branch keep test is uniform.
        let mut max_act = vec![0.0f64; m];
        for j in 0..n {
            for (i, a) in mat.col(j) {
                max_act[i] += if a > 0.0 { a * var_upper[j] } else { a * var_lower[j] };
            }
        }
        let row_act: Vec<f64> =
            (0..m).map(|i| if is_sweep[i] { max_act[i] } else { f64::INFINITY }).collect();

        // Variable elimination thresholds: a variable leaves the LP once all
        // rows containing it are redundant, fixed at its best bound. Touching
        // a static row (or having an infinite best bound) pins it forever.
        let mut var_threshold = vec![f64::NEG_INFINITY; n];
        let mut fixed_val = vec![f64::NAN; n];
        for j in 0..n {
            match fixed_value(obj[j], var_lower[j], var_upper[j]) {
                Some(v) => fixed_val[j] = v,
                None => {
                    var_threshold[j] = f64::INFINITY;
                    continue;
                }
            }
            for (i, _) in mat.col(j) {
                if is_sweep[i] {
                    var_threshold[j] = var_threshold[j].max(max_act[i]);
                } else {
                    var_threshold[j] = f64::INFINITY;
                    break;
                }
            }
        }

        let row_lower: Vec<f64> = (0..m).map(|i| problem.row_bounds(i).lower).collect();
        let row_upper: Vec<f64> = (0..m).map(|i| problem.row_bounds(i).upper).collect();

        // Classify the structure once; when it is a max-flow (or separates
        // per row) this also builds the combinatorial kernel.
        let kernels = flow::build_kernels(&flow::SweepLp {
            mat: &mat,
            is_sweep: &is_sweep,
            obj: &obj,
            var_lower: &var_lower,
            var_upper: &var_upper,
            row_lower: &row_lower,
            row_upper: &row_upper,
        });

        Ok(SweepProblem {
            mat,
            is_sweep,
            row_act,
            var_threshold,
            fixed_val,
            var_lower,
            var_upper,
            obj,
            row_lower,
            row_upper,
            kernel: kernels.class,
            flow: kernels.flow,
            closed: kernels.closed,
        })
    }

    /// The elimination cut for τ: rows/variables with threshold above it
    /// survive.
    fn cut(tau: f64) -> f64 {
        tau + ELIM_TOL * (1.0 + tau.abs())
    }

    /// Total number of variables / rows of the full problem.
    pub fn dims(&self) -> (usize, usize) {
        (self.mat.cols(), self.mat.rows())
    }

    /// Starts a solving session (one per worker thread) with the given
    /// solver configuration.
    pub fn session(&self, solver: RevisedSimplex) -> SweepSession<'_> {
        SweepSession { problem: self, solver, ctx: SolverContext::new() }
    }

    /// Which solver backend this structure admits.
    pub fn kernel_class(&self) -> KernelClass {
        self.kernel
    }

    /// The flow network, when the class is [`KernelClass::Matching`] (the
    /// double cover) or [`KernelClass::Layered`] (the layered network).
    pub fn flow_problem(&self) -> Option<&FlowProblem> {
        self.flow.as_ref()
    }

    /// A worker-local max-flow session, when the class is
    /// [`KernelClass::Matching`] or [`KernelClass::Layered`].
    pub fn flow_session(&self) -> Option<FlowSession<'_>> {
        self.flow.as_ref().map(FlowProblem::session)
    }

    /// The per-node closed form, when the class is
    /// [`KernelClass::ClosedForm`].
    pub fn closed_form(&self) -> Option<&ClosedFormKernel> {
        self.closed.as_ref()
    }
}

/// Result of one branch solve: the objective of the *full* LP (reduced
/// optimum plus the fixed contribution of eliminated variables).
#[derive(Debug, Clone, Copy)]
pub struct SweepSolve {
    /// Terminal status of the reduced solve.
    pub status: Status,
    /// Full objective (maximize sense). Only meaningful for
    /// [`Status::Optimal`]; a `Stopped` racing solve carries no usable value.
    pub objective: f64,
}

/// A worker-local solving session over a [`SweepProblem`]: the problem, the
/// solver configuration and the reusable solver workspace. Branches may come
/// in any order; each is one cold solve of its threshold-cut LP.
#[derive(Debug)]
pub struct SweepSession<'a> {
    problem: &'a SweepProblem,
    solver: RevisedSimplex,
    ctx: SolverContext,
}

impl<'a> SweepSession<'a> {
    /// Solves the branch at `tau` to optimality. Progress events are
    /// suppressed for the duration — computing the dual bound they carry
    /// costs a BTRAN plus a full pricing pass each time, which only a racing
    /// caller ([`Self::solve_racing`]) has any use for.
    pub fn solve(&mut self, tau: f64) -> Result<SweepSolve, LpError> {
        let every = self.solver.options.event_every;
        self.solver.options.event_every = 0;
        let out = self.solve_racing(tau, |_| true);
        self.solver.options.event_every = every;
        out
    }

    /// Solves the branch at `tau`, reporting progress through `cb` (see
    /// [`RevisedSimplex::solve_with_callback`]); `cb` receiving the *full*
    /// objective bounds (fixed contribution included). Returning `false`
    /// aborts with [`Status::Stopped`].
    pub fn solve_racing<F>(&mut self, tau: f64, mut cb: F) -> Result<SweepSolve, LpError>
    where
        F: FnMut(SolverEvent) -> bool,
    {
        let p = self.problem;
        let (n, m) = p.dims();
        let cut = SweepProblem::cut(tau);

        // Kept rows, in original order.
        let mut row_map = vec![u32::MAX; m];
        let mut kept_rows: Vec<u32> = Vec::new();
        for i in 0..m {
            if p.row_act[i] > cut {
                row_map[i] = kept_rows.len() as u32;
                kept_rows.push(i as u32);
            }
        }
        // Kept variables plus the fixed objective of the eliminated ones,
        // accumulated in original order, so every session sums them alike.
        let mut kept_vars: Vec<u32> = Vec::new();
        let mut fixed = 0.0f64;
        for j in 0..n {
            if p.var_threshold[j] > cut {
                kept_vars.push(j as u32);
            } else if p.obj[j] != 0.0 {
                fixed += p.obj[j] * p.fixed_val[j];
            }
        }
        let (k, r) = (kept_vars.len(), kept_rows.len());
        r2t_obs::counter_add("lp.sweep.branches", 1);
        r2t_obs::counter_add("lp.sweep.rows_eliminated", (m - r) as u64);
        r2t_obs::counter_add("lp.sweep.vars_eliminated", (n - k) as u64);
        if k == 0 && r == 0 {
            // Everything eliminated: the closed-form fixed objective.
            r2t_obs::counter_add("lp.sweep.closed_form", 1);
            return Ok(SweepSolve { status: Status::Optimal, objective: fixed });
        }

        let mat = p.mat.gather(&kept_vars, &row_map, r);
        let var_lower: Vec<f64> = kept_vars.iter().map(|&j| p.var_lower[j as usize]).collect();
        let var_upper: Vec<f64> = kept_vars.iter().map(|&j| p.var_upper[j as usize]).collect();
        let obj: Vec<f64> = kept_vars.iter().map(|&j| p.obj[j as usize]).collect();
        let mut row_lower = Vec::with_capacity(r);
        let mut row_upper = Vec::with_capacity(r);
        for &i in &kept_rows {
            let i = i as usize;
            if p.is_sweep[i] {
                row_lower.push(f64::NEG_INFINITY);
                row_upper.push(tau);
            } else {
                row_lower.push(p.row_lower[i]);
                row_upper.push(p.row_upper[i]);
            }
        }
        let raw = RawLp {
            mat: &mat,
            var_lower: &var_lower,
            var_upper: &var_upper,
            obj: &obj,
            row_lower: &row_lower,
            row_upper: &row_upper,
        };

        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "lp.sweep.branch",
                &[
                    ("tau", r2t_obs::Attr::F64(tau)),
                    ("kept_vars", r2t_obs::Attr::U64(k as u64)),
                    ("kept_rows", r2t_obs::Attr::U64(r as u64)),
                ],
            );
        }
        let sol = {
            let _solve_ns = r2t_obs::hist_time("lp.solve.ns");
            self.solver.solve_raw(&raw, Some(&mut self.ctx), |mut ev| {
                ev.primal_objective += fixed;
                ev.dual_bound += fixed;
                cb(ev)
            })?
        };
        Ok(SweepSolve { status: sol.status, objective: sol.objective + fixed })
    }

    /// Counters across all solves of this session.
    pub fn stats(&self) -> SolveStats {
        self.ctx.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RowBounds, VarBounds};

    /// A packing LP shaped like the SJA truncation LPs: unit objective,
    /// weights as var upper bounds, at-most rows with unit coefficients.
    fn packing(n: usize, m: usize) -> (Problem, Vec<usize>) {
        let mut p = Problem::new();
        let mut s = 0xc0ffee_u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        for j in 0..n {
            p.add_var(1.0, VarBounds::new(0.0, 1.0 + (j % 4) as f64));
        }
        let mut sweep = Vec::new();
        for _ in 0..m {
            let kk = 2 + next() % 6;
            let mut terms: Vec<(usize, f64)> = (0..kk).map(|_| (next() % n, 1.0)).collect();
            terms.sort_unstable_by_key(|&(j, _)| j);
            terms.dedup_by_key(|&mut (j, _)| j);
            sweep.push(p.add_row(RowBounds::at_most(f64::INFINITY), &terms));
        }
        (p, sweep)
    }

    fn solve_direct(p: &mut Problem, sweep: &[usize], tau: f64) -> f64 {
        for &i in sweep {
            p.set_row_bounds(i, RowBounds::at_most(tau));
        }
        RevisedSimplex::new().solve(p).unwrap().objective
    }

    #[test]
    fn sweep_matches_direct_solves_across_taus() {
        let (mut p, sweep) = packing(80, 30);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.session(RevisedSimplex::new());
        for tau in [64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0] {
            let got = sess.solve(tau).unwrap();
            assert_eq!(got.status, Status::Optimal, "tau={tau}");
            let want = solve_direct(&mut p, &sweep, tau);
            assert!(
                (got.objective - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "tau={tau}: sweep {} direct {}",
                got.objective,
                want
            );
        }
    }

    #[test]
    fn large_tau_branch_matches_closed_form() {
        let (mut p, sweep) = packing(40, 12);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.session(RevisedSimplex::new());
        let got = sess.solve(1e9).unwrap();
        let want = solve_direct(&mut p, &sweep, 1e9);
        assert_eq!(got.status, Status::Optimal);
        assert!((got.objective - want).abs() <= 1e-9 * (1.0 + want.abs()));
    }

    #[test]
    fn static_rows_keep_their_bounds() {
        // Projected-style structure: group variables capped by static rows.
        let mut p = Problem::new();
        let u: Vec<usize> = (0..6).map(|_| p.add_var(0.0, VarBounds::new(0.0, 2.0))).collect();
        let v1 = p.add_var(1.0, VarBounds::new(0.0, 3.0));
        let v2 = p.add_var(1.0, VarBounds::new(0.0, 3.0));
        // v_l <= sum of its members (static rows).
        let mut t1 = vec![(v1, 1.0)];
        t1.extend(u[..3].iter().map(|&j| (j, -1.0)));
        p.add_row(RowBounds::at_most(0.0), &t1);
        let mut t2 = vec![(v2, 1.0)];
        t2.extend(u[3..].iter().map(|&j| (j, -1.0)));
        p.add_row(RowBounds::at_most(0.0), &t2);
        // Sweep rows: per-tuple capacity over u vars.
        let sweep = vec![
            p.add_row(RowBounds::at_most(f64::INFINITY), &[(u[0], 1.0), (u[3], 1.0)]),
            p.add_row(RowBounds::at_most(f64::INFINITY), &[(u[1], 1.0), (u[4], 1.0), (u[5], 1.0)]),
            p.add_row(RowBounds::at_most(f64::INFINITY), &[(u[2], 1.0)]),
        ];

        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.session(RevisedSimplex::new());
        for tau in [8.0, 4.0, 2.0, 1.0, 0.5] {
            let got = sess.solve(tau).unwrap();
            let want = solve_direct(&mut p, &sweep, tau);
            assert_eq!(got.status, Status::Optimal, "tau={tau}");
            assert!(
                (got.objective - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "tau={tau}: sweep {} direct {}",
                got.objective,
                want
            );
        }
    }

    #[test]
    fn racing_callback_can_stop_a_branch() {
        let (p, sweep) = packing(200, 80);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut solver = RevisedSimplex::new();
        solver.options.event_every = 1;
        let mut sess = sp.session(solver);
        let got = sess.solve_racing(2.0, |_| false).unwrap();
        assert_eq!(got.status, Status::Stopped);
        // A later full solve on the same session still works.
        let got = sess.solve(1.0).unwrap();
        assert_eq!(got.status, Status::Optimal);
    }

    #[test]
    fn ascending_taus_fall_back_to_cold_but_stay_correct() {
        let (mut p, sweep) = packing(50, 20);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.session(RevisedSimplex::new());
        for tau in [2.0, 8.0, 4.0, 32.0] {
            let got = sess.solve(tau).unwrap();
            let want = solve_direct(&mut p, &sweep, tau);
            assert_eq!(got.status, Status::Optimal, "tau={tau}");
            assert!((got.objective - want).abs() <= 1e-9 * (1.0 + want.abs()), "tau={tau}");
        }
    }

    #[test]
    fn branch_values_do_not_depend_on_session_history() {
        // One session fed τ in a scrambled order returns the same bits as a
        // fresh session per τ.
        let (p, sweep) = packing(50, 20);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.session(RevisedSimplex::new());
        for tau in [2.0, 8.0, 4.0, 32.0, 1.0, 16.0] {
            let got = sess.solve(tau).unwrap();
            let fresh = sp.session(RevisedSimplex::new()).solve(tau).unwrap();
            assert_eq!(got.status, Status::Optimal, "tau={tau}");
            assert_eq!(got.objective.to_bits(), fresh.objective.to_bits(), "tau={tau}");
        }
    }
}
