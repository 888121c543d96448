//! LP-based truncation for SJA queries (Section 6 of the paper).
//!
//! ```text
//! maximize   Σ_k u_k
//! subject to Σ_{k ∈ C_j} u_k ≤ τ   for every private tuple j
//!            0 ≤ u_k ≤ ψ(q_k)      for every join result k
//! ```
//!
//! The optimum is a stable underestimate of `Q(I)` with saturation at
//! `τ*(I) = DS_Q(I)` (Lemma 6.1). Before solving we run the exact presolve
//! from `r2t-lp`, which eliminates every constraint row whose total weight
//! is already ≤ τ — the dominant case on sparse instances.

use super::kernel::KernelWorker;
use super::{SweepBranchSolver, Truncation};
use r2t_engine::QueryProfile;
use r2t_lp::presolve::presolve;
use r2t_lp::{
    Problem, RevisedSimplex, RowBounds, SolveOptions, Status, SweepProblem, SweepSession, VarBounds,
};
use std::sync::OnceLock;

/// LP truncation for SJA queries.
#[derive(Debug)]
pub struct LpTruncation<'a> {
    profile: &'a QueryProfile,
    /// How often (in simplex iterations) to check the racing cutoff.
    pub event_every: usize,
    /// Shared τ-sweep structure, built lazily by the first worker that asks
    /// for a sweep session (`None`: the profile has no sweep structure).
    sweep: OnceLock<Option<SweepProblem>>,
}

impl<'a> LpTruncation<'a> {
    /// Prepares the LP truncation for a profile.
    pub fn new(profile: &'a QueryProfile) -> Self {
        assert!(profile.groups.is_none(), "use ProjectedLpTruncation for projection queries");
        LpTruncation { profile, event_every: 16, sweep: OnceLock::new() }
    }

    /// Builds the truncation LP for a given τ.
    fn build_lp(&self, tau: f64) -> Problem {
        let mut p = Problem::new();
        for r in &self.profile.results {
            p.add_var(1.0, VarBounds::new(0.0, r.weight));
        }
        let lists = self.profile.reference_lists();
        for c in lists {
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
            // Closed form: every constrained result is forced to zero; only
            // results referencing no private tuple survive. (The LP would
            // grind through one degenerate pivot per variable here.)
            return Some(
                self.profile.results.iter().filter(|r| r.refs.is_empty()).map(|r| r.weight).sum(),
            );
        }
        let lp = self.build_lp(tau);
        let pre = presolve(&lp);
        if pre.reduced.num_rows() == 0 {
            // Fully presolved: every variable at its bound.
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
            .expect("truncation LP is well-formed");
        match sol.status {
            Status::Optimal => Some(fixed + sol.objective),
            Status::Stopped => None,
            other => unreachable!("truncation LP cannot be {other:?}"),
        }
    }

    /// The shared sweep structure, built by the first caller.
    fn sweep_problem(&self) -> Option<&SweepProblem> {
        self.sweep
            .get_or_init(|| {
                if self.profile.results.is_empty() {
                    return None;
                }
                // All rows are τ-parameterized; the placeholder bound is
                // irrelevant (sweep rows are re-bounded per branch).
                let lp = self.build_lp(f64::INFINITY);
                let rows: Vec<usize> = (0..lp.num_rows()).collect();
                SweepProblem::new(&lp, &rows).ok()
            })
            .as_ref()
    }
}

impl Truncation for LpTruncation<'_> {
    fn value(&self, tau: f64) -> f64 {
        self.solve(tau, None).expect("no cutoff provided")
    }

    fn value_racing(&self, tau: f64, should_continue: &mut dyn FnMut(f64) -> bool) -> Option<f64> {
        self.solve(tau, Some(should_continue))
    }

    fn sweep_session(&self) -> Option<Box<dyn SweepBranchSolver + '_>> {
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
        // For SJA queries DS_Q(I) = max_j S_Q(I, t_j) (Eq. 6).
        self.profile.max_sensitivity()
    }
}

/// Worker-local warm-starting branch solver for [`LpTruncation`]. Any
/// non-optimal outcome other than a racing stop falls back to the stateless
/// per-τ path, so results always agree with [`LpTruncation::value`].
struct SweepWorker<'t, 'p> {
    trunc: &'t LpTruncation<'p>,
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
    use super::super::test_support::example_6_2_profile;
    use super::*;
    use r2t_engine::lineage::ProfileBuilder;

    #[test]
    fn example_6_2_exact_lp_values() {
        // The paper works these optima out by hand (Example 6.2).
        let p = example_6_2_profile();
        assert_eq!(p.query_result(), 9992.0);
        let t = LpTruncation::new(&p);
        assert!((t.value(2.0) - 7222.0).abs() < 1e-4, "{}", t.value(2.0));
        assert!((t.value(4.0) - 9444.0).abs() < 1e-4, "{}", t.value(4.0));
        assert!((t.value(8.0) - 9888.0).abs() < 1e-4, "{}", t.value(8.0));
        assert!((t.value(16.0) - 9976.0).abs() < 1e-4, "{}", t.value(16.0));
        assert_eq!(t.value(0.0), 0.0);
        assert!((t.value(32.0) - 9992.0).abs() < 1e-4);
        assert!((t.value(256.0) - 9992.0).abs() < 1e-4);
        assert_eq!(t.tau_star(), 32.0);
    }

    #[test]
    fn stability_on_down_neighbors() {
        // |Q(I,τ) − Q(I′,τ)| ≤ τ — the DP-critical property (Lemma 6.1) —
        // on a profile with heavy overlap.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        // A 5-clique of weight-1 edges plus a 4-star.
        for i in 0..5u64 {
            for j in (i + 1)..5 {
                b.add_result(1.0, [i, j]);
            }
        }
        for leaf in 6..10u64 {
            b.add_result(1.0, [5, leaf]);
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        for j in 0..p.num_private as u32 {
            let q = p.remove_private(j);
            let tq = LpTruncation::new(&q);
            for tau in [0.0, 1.0, 2.0, 3.0, 4.0, 8.0] {
                let diff = (t.value(tau) - tq.value(tau)).abs();
                assert!(diff <= tau + 1e-6, "j={j} tau={tau} diff={diff}");
            }
        }
    }

    #[test]
    fn monotone_underestimate_saturating() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let mut prev = 0.0;
        for j in 0..=8 {
            let v = t.value((1u64 << j) as f64);
            assert!(v + 1e-6 >= prev, "monotone");
            assert!(v <= p.query_result() + 1e-6, "underestimate");
            prev = v;
        }
        assert!((t.value(t.tau_star()) - p.query_result()).abs() < 1e-4, "saturation");
    }

    #[test]
    fn fractional_weights_supported() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(2.5, [0, 1]);
        b.add_result(1.5, [1]);
        let p = b.build();
        let t = LpTruncation::new(&p);
        // τ=2: constraint at node1: u0 + u1 ≤ 2 and node0: u0 ≤ 2.
        // Max u0+u1 = 2.
        assert!((t.value(2.0) - 2.0).abs() < 1e-6);
        assert!((t.value(4.0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn racing_cutoff_aborts() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        // A cutoff that is immediately hopeless.
        let mut calls = 0;
        let out = t.value_racing(2.0, &mut |_ub| {
            calls += 1;
            false
        });
        // Either presolve finished it instantly (Some) or the cutoff fired.
        if out.is_none() {
            assert!(calls > 0);
        }
    }

    #[test]
    fn racing_with_generous_cutoff_matches_plain() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let plain = t.value(8.0);
        let raced = t.value_racing(8.0, &mut |_| true).unwrap();
        assert!((plain - raced).abs() < 1e-6);
    }

    #[test]
    fn empty_profile() {
        let b: ProfileBuilder<u64> = ProfileBuilder::new();
        let p = b.build();
        let t = LpTruncation::new(&p);
        assert_eq!(t.value(4.0), 0.0);
        assert_eq!(t.tau_star(), 0.0);
    }
}
