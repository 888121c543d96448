//! LP-based truncation for SPJA queries with projection (Section 7).
//!
//! ```text
//! maximize   Σ_l v_l
//! subject to v_l ≤ Σ_{k ∈ D_l} u_k     for every projected result l
//!            Σ_{k ∈ C_j} u_k ≤ τ       for every private tuple j
//!            0 ≤ u_k ≤ ψ(q_k),  0 ≤ v_l ≤ ψ(p_l)
//! ```
//!
//! Saturation happens at `τ*(I) = IS_Q(I)` (the *indirect* sensitivity,
//! Lemma 7.3); the gap between `IS_Q(I)` and the true `DS_Q(I)` is the price
//! of projection, which Theorem 7.2 proves unavoidable.
//!
//! Sweep sessions solve the LP exactly as a max-flow when the private tuples
//! split into two sides — each result touching at most one tuple per side,
//! every tuple of one side feeding a single projected result (TPC-H Q10's
//! customer) — and on the warm-starting simplex otherwise; `r2t_lp::flow`
//! decides. The stateless [`Truncation::value`] path always runs the
//! simplex.

use super::kernel::KernelWorker;
use super::{SweepBranchSolver, Truncation};
use r2t_engine::QueryProfile;
use r2t_lp::presolve::presolve;
use r2t_lp::{
    Problem, RevisedSimplex, RowBounds, SolveOptions, Status, SweepProblem, SweepSession, VarBounds,
};
use std::sync::OnceLock;

/// LP truncation for SPJA (projection) queries.
#[derive(Debug)]
pub struct ProjectedLpTruncation<'a> {
    profile: &'a QueryProfile,
    /// How often (in simplex iterations) to check the racing cutoff.
    pub event_every: usize,
    /// Shared τ-sweep structure (group rows static, tuple rows swept),
    /// built lazily by the first worker that asks for a sweep session
    /// (`None`: the profile has no sweep structure).
    sweep: OnceLock<Option<SweepProblem>>,
}

impl<'a> ProjectedLpTruncation<'a> {
    /// Prepares the projected LP truncation for a profile. Profiles without
    /// groups are accepted (each result forms its own group), so this method
    /// strictly generalizes [`super::LpTruncation`].
    pub fn new(profile: &'a QueryProfile) -> Self {
        ProjectedLpTruncation { profile, event_every: 16, sweep: OnceLock::new() }
    }

    fn build_lp(&self, tau: f64) -> Problem {
        let mut p = Problem::new();
        let has_groups = self.profile.groups.is_some();
        // u_k variables. Without groups the LP degenerates to the SJA LP
        // (v_k ≡ u_k), folded by putting the objective directly on u_k.
        let u_obj = if has_groups { 0.0 } else { 1.0 };
        for r in &self.profile.results {
            p.add_var(u_obj, VarBounds::new(0.0, r.weight));
        }
        if let Some(groups) = &self.profile.groups {
            for g in groups {
                let v = p.add_var(1.0, VarBounds::new(0.0, g.weight));
                // v_l - Σ_{k∈D_l} u_k ≤ 0.
                let mut terms: Vec<(usize, f64)> = vec![(v, 1.0)];
                terms.extend(g.members.iter().map(|&k| (k as usize, -1.0)));
                p.add_row(RowBounds::at_most(0.0), &terms);
            }
        }
        for c in self.profile.reference_lists() {
            if c.is_empty() {
                continue;
            }
            let terms: Vec<(usize, f64)> = c.iter().map(|&k| (k as usize, 1.0)).collect();
            p.add_row(RowBounds::at_most(tau), &terms);
        }
        p
    }

    fn solve(&self, tau: f64, mut cutoff: Option<&mut dyn FnMut(f64) -> bool>) -> Option<f64> {
        if self.profile.results.is_empty() {
            return Some(0.0);
        }
        if tau <= 0.0 {
            // Closed form: constrained u's are zero; each projected result
            // keeps min(ψ(p_l), total weight of its unconstrained members).
            return Some(match &self.profile.groups {
                Some(groups) => groups
                    .iter()
                    .map(|g| {
                        let free: f64 = g
                            .members
                            .iter()
                            .map(|&k| &self.profile.results[k as usize])
                            .filter(|r| r.refs.is_empty())
                            .map(|r| r.weight)
                            .sum();
                        free.min(g.weight)
                    })
                    .sum(),
                None => self
                    .profile
                    .results
                    .iter()
                    .filter(|r| r.refs.is_empty())
                    .map(|r| r.weight)
                    .sum(),
            });
        }
        let lp = self.build_lp(tau);
        let pre = presolve(&lp);
        if pre.reduced.num_rows() == 0 {
            return Some(pre.fixed_objective());
        }
        let solver = RevisedSimplex {
            options: SolveOptions {
                event_every: if cutoff.is_some() { self.event_every } else { 0 },
                ..SolveOptions::default()
            },
        };
        let fixed = pre.fixed_objective();
        let sol = solver
            .solve_with_callback(&pre.reduced, |ev| match cutoff.as_mut() {
                Some(f) => f(fixed + ev.dual_bound),
                None => true,
            })
            .expect("projected truncation LP is well-formed");
        match sol.status {
            Status::Optimal => Some(fixed + sol.objective),
            Status::Stopped => None,
            other => unreachable!("projected truncation LP cannot be {other:?}"),
        }
    }

    /// The shared sweep structure, built by the first caller.
    fn sweep_problem(&self) -> Option<&SweepProblem> {
        self.sweep
            .get_or_init(|| {
                if self.profile.results.is_empty() {
                    return None;
                }
                // Group rows (added first by build_lp) keep their ≤ 0 bound
                // in every branch; only the per-tuple rows sweep with τ.
                let lp = self.build_lp(f64::INFINITY);
                let n_groups = self.profile.groups.as_ref().map_or(0, |g| g.len());
                let rows: Vec<usize> = (n_groups..lp.num_rows()).collect();
                SweepProblem::new(&lp, &rows).ok()
            })
            .as_ref()
    }
}

impl Truncation for ProjectedLpTruncation<'_> {
    fn value(&self, tau: f64) -> f64 {
        self.solve(tau, None).expect("no cutoff provided")
    }

    fn value_racing(&self, tau: f64, should_continue: &mut dyn FnMut(f64) -> bool) -> Option<f64> {
        self.solve(tau, Some(should_continue))
    }

    fn sweep_session(&self) -> Option<Box<dyn SweepBranchSolver + '_>> {
        // With groups the v_l rows are static; the classifier reads them as
        // a layered max-flow when the tuples split into an other side and a
        // group side, and falls back to the simplex otherwise. Without
        // groups the LP degenerates to the SJA form and graph-shaped
        // profiles get the matching kernel.
        let sp = self.sweep_problem()?;
        match KernelWorker::try_new(sp, self.value(0.0)) {
            Some(w) => Some(Box::new(w)),
            None => self.simplex_sweep_session(),
        }
    }

    fn simplex_sweep_session(&self) -> Option<Box<dyn SweepBranchSolver + '_>> {
        let sp = self.sweep_problem()?;
        let solver = RevisedSimplex {
            options: SolveOptions { event_every: self.event_every, ..SolveOptions::default() },
        };
        Some(Box::new(SweepWorker { trunc: self, session: sp.session(solver) }))
    }

    fn tau_star(&self) -> f64 {
        // IS_Q(I) = max_j S_Q(I, t_j), computed over raw join results.
        self.profile.max_sensitivity()
    }
}

/// Worker-local warm-starting branch solver for [`ProjectedLpTruncation`];
/// see [`super::lp`] for the fallback contract.
struct SweepWorker<'t, 'p> {
    trunc: &'t ProjectedLpTruncation<'p>,
    session: SweepSession<'t>,
}

impl SweepBranchSolver for SweepWorker<'_, '_> {
    fn value(&mut self, tau: f64) -> f64 {
        if tau <= 0.0 {
            return self.trunc.value(tau);
        }
        match self.session.solve(tau) {
            Ok(s) if s.status == Status::Optimal => s.objective,
            _ => self.trunc.value(tau),
        }
    }

    fn value_racing(
        &mut self,
        tau: f64,
        should_continue: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64> {
        if tau <= 0.0 {
            return self.trunc.value_racing(tau, should_continue);
        }
        match self.session.solve_racing(tau, |ev| should_continue(ev.dual_bound)) {
            Ok(s) => match s.status {
                Status::Optimal => Some(s.objective),
                Status::Stopped => None,
                _ => self.trunc.value_racing(tau, should_continue),
            },
            Err(_) => self.trunc.value_racing(tau, should_continue),
        }
    }

    fn stats(&self) -> r2t_lp::SolveStats {
        self.session.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2t_engine::lineage::ProfileBuilder;

    /// Example 7.1: two private tuples, m projected results fully overlapped.
    fn overlap_profile(m: u64) -> QueryProfile {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for l in 0..m {
            b.add_projected_result(l, 1.0, 1.0, [1]).unwrap();
            b.add_projected_result(l, 1.0, 1.0, [2]).unwrap();
        }
        b.build()
    }

    #[test]
    fn overlapping_contributions_counted_once() {
        let p = overlap_profile(6);
        assert_eq!(p.query_result(), 6.0);
        let t = ProjectedLpTruncation::new(&p);
        // τ = 3: each private tuple can support 3 units, and the two cover
        // disjoint-able halves, so all 6 projected results reach weight 1.
        assert!((t.value(3.0) - 6.0).abs() < 1e-6, "{}", t.value(3.0));
        // τ = 1: total u mass ≤ 2, so at most 2 projected results covered.
        assert!((t.value(1.0) - 2.0).abs() < 1e-6, "{}", t.value(1.0));
        assert_eq!(t.value(0.0), 0.0);
        // Saturation at IS_Q(I) = 6.
        assert!((t.value(t.tau_star()) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn stability_on_down_neighbors() {
        let p = overlap_profile(4);
        let t = ProjectedLpTruncation::new(&p);
        for j in 0..p.num_private as u32 {
            let q = p.remove_private(j);
            let tq = ProjectedLpTruncation::new(&q);
            for tau in [0.0, 1.0, 2.0, 3.0, 4.0, 8.0] {
                let diff = (t.value(tau) - tq.value(tau)).abs();
                assert!(diff <= tau + 1e-6, "j={j} tau={tau} diff={diff}");
            }
        }
    }

    #[test]
    fn group_weight_caps_value() {
        // One projected result of weight 2 backed by three unit results.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_projected_result(0, 2.0, 1.0, [1]).unwrap();
        b.add_projected_result(0, 2.0, 1.0, [2]).unwrap();
        b.add_projected_result(0, 2.0, 1.0, [3]).unwrap();
        let p = b.build();
        let t = ProjectedLpTruncation::new(&p);
        assert!((t.value(1.0) - 2.0).abs() < 1e-6);
        assert!((t.value(0.5) - 1.5).abs() < 1e-6);
        assert!((t.value(10.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn monotone_underestimate() {
        let p = overlap_profile(5);
        let t = ProjectedLpTruncation::new(&p);
        let mut prev = 0.0;
        for tau in 0..8 {
            let v = t.value(tau as f64);
            assert!(v + 1e-9 >= prev);
            assert!(v <= p.query_result() + 1e-9);
            prev = v;
        }
    }
}
