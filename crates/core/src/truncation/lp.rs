//! LP-based truncation for SJA queries (Section 6 of the paper) and for SPJA
//! queries with duplicate-removing projection (Section 7).
//!
//! ```text
//! maximize   Σ_l v_l
//! subject to v_l ≤ Σ_{k ∈ D_l} u_k     for every projected result l
//!            Σ_{k ∈ C_j} u_k ≤ τ       for every private tuple j
//!            0 ≤ u_k ≤ ψ(q_k),  0 ≤ v_l ≤ ψ(p_l)
//! ```
//!
//! Without projection every join result is its own projected result
//! (`v_k ≡ u_k`), and the LP folds to Section 6's: maximize `Σ_k u_k` under
//! the per-tuple rows alone. Its optimum is a stable underestimate of `Q(I)`
//! saturating at `τ*(I) = DS_Q(I)` (Lemma 6.1). With projection, saturation
//! happens at `τ*(I) = IS_Q(I)` (the *indirect* sensitivity, Lemma 7.3); the
//! gap between `IS_Q(I)` and the true `DS_Q(I)` is the price of projection,
//! which Theorem 7.2 proves unavoidable.
//!
//! Every `Q(I, τ)` with `τ > 0` comes from one shared [`SweepProblem`]: the LP
//! built once with the per-tuple rows as τ-rows and the group rows static.
//! Its threshold cut is the presolve: a per-tuple row whose total weight is
//! already ≤ τ can never bind, and is eliminated together with every result
//! it alone constrained — the dominant case on sparse instances. Sweep
//! sessions solve what is left on a combinatorial kernel when the structure
//! admits one (`r2t_lp::flow` decides: the matching double cover, the
//! layered network of TPC-H Q10's projection, or a per-tuple closed form)
//! and on the simplex otherwise. The stateless [`Truncation::value`] and
//! [`Truncation::value_racing`] run the same cold simplex solve a simplex
//! session runs, so they are the oracle every kernel is checked against and
//! a simplex session equals them bit for bit.

use super::kernel::KernelWorker;
use super::{SweepBranchSolver, Truncation};
use r2t_engine::QueryProfile;
use r2t_lp::{
    Problem, RevisedSimplex, RowBounds, SolveOptions, Status, SweepProblem, SweepSession, VarBounds,
};
use std::sync::OnceLock;

/// LP truncation for SJA and SPJA queries.
#[derive(Debug)]
pub struct LpTruncation<'a> {
    profile: &'a QueryProfile,
    /// How often (in simplex iterations) to check the racing cutoff.
    pub event_every: usize,
    /// Shared τ-sweep structure, built lazily by the first caller that needs
    /// an LP solve (`None`: no join results, or an LP that does not freeze).
    sweep: OnceLock<Option<SweepProblem>>,
}

impl<'a> LpTruncation<'a> {
    /// Prepares the LP truncation for a profile: Section 6's LP, plus
    /// Section 7's group rows when the profile has projection groups.
    pub fn new(profile: &'a QueryProfile) -> Self {
        LpTruncation { profile, event_every: 16, sweep: OnceLock::new() }
    }

    /// `Q(I, τ)` for τ ≤ 0 in closed form: every constrained result is forced
    /// to zero, so only results referencing no private tuple survive, each
    /// projected result keeping min(ψ(p_l), total weight of its free
    /// members). (The LP would grind through one degenerate pivot per
    /// variable here.)
    fn value_at_zero(&self) -> f64 {
        let results = &self.profile.results;
        if results.is_empty() {
            // +0.0, where the empty sums below would fold to -0.0.
            return 0.0;
        }
        let free = |k: usize| -> Option<f64> {
            let r = &results[k];
            r.refs.is_empty().then_some(r.weight)
        };
        match &self.profile.groups {
            Some(groups) => groups
                .iter()
                .map(|g| {
                    let free: f64 = g.members.iter().filter_map(|&k| free(k as usize)).sum();
                    free.min(g.weight)
                })
                .sum(),
            None => (0..results.len()).filter_map(free).sum(),
        }
    }

    /// Builds the truncation LP and lists its per-tuple rows. Group rows
    /// come first and keep their `≤ 0` bound in every branch; the per-tuple
    /// rows' placeholder bound is irrelevant (sweep rows are re-bounded to τ
    /// per branch).
    fn build_lp(&self) -> (Problem, Vec<usize>) {
        let mut p = Problem::new();
        let groups = self.profile.groups.as_deref();
        // Without groups v_k ≡ u_k: the objective sits on u_k directly.
        let u_obj = if groups.is_some() { 0.0 } else { 1.0 };
        for r in &self.profile.results {
            p.add_var(u_obj, VarBounds::new(0.0, r.weight));
        }
        for g in groups.unwrap_or_default() {
            let v = p.add_var(1.0, VarBounds::new(0.0, g.weight));
            // v_l - Σ_{k∈D_l} u_k ≤ 0.
            let mut terms: Vec<(usize, f64)> = vec![(v, 1.0)];
            terms.extend(g.members.iter().map(|&k| (k as usize, -1.0)));
            p.add_row(RowBounds::at_most(0.0), &terms);
        }
        let mut sweep_rows = Vec::new();
        for c in self.profile.reference_lists() {
            if c.is_empty() {
                continue;
            }
            let terms: Vec<(usize, f64)> = c.iter().map(|&k| (k as usize, 1.0)).collect();
            sweep_rows.push(p.add_row(RowBounds::at_most(f64::INFINITY), &terms));
        }
        (p, sweep_rows)
    }

    /// The shared sweep structure, built by the first caller.
    fn sweep_problem(&self) -> Option<&SweepProblem> {
        self.sweep
            .get_or_init(|| {
                if self.profile.results.is_empty() {
                    return None;
                }
                let (lp, rows) = self.build_lp();
                SweepProblem::new(&lp, &rows).ok()
            })
            .as_ref()
    }

    /// A simplex session over the shared structure (`None` as for
    /// [`Self::sweep_problem`]).
    fn simplex_session(&self) -> Option<SweepSession<'_>> {
        let solver = RevisedSimplex {
            options: SolveOptions { event_every: self.event_every, ..SolveOptions::default() },
        };
        Some(self.sweep_problem()?.session(solver))
    }

    /// The stateless path: a fresh simplex session for every τ.
    fn solve(&self, tau: f64, cutoff: Option<&mut dyn FnMut(f64) -> bool>) -> Option<f64> {
        if self.profile.results.is_empty() {
            return Some(self.value_at_zero());
        }
        let mut session = self.simplex_session().expect("truncation LP is well-formed");
        self.solve_on(&mut session, tau, cutoff)
    }

    /// `Q(I, τ)` from one cold solve of the τ-cut LP on `session`, the one
    /// place the simplex's outcome is read: an LP error or a status other
    /// than optimal or a racing stop is a bug in the LP it was handed.
    fn solve_on(
        &self,
        session: &mut SweepSession<'_>,
        tau: f64,
        cutoff: Option<&mut dyn FnMut(f64) -> bool>,
    ) -> Option<f64> {
        if tau <= 0.0 {
            return Some(self.value_at_zero());
        }
        let sol = match cutoff {
            Some(f) => session.solve_racing(tau, |ev| f(ev.dual_bound)),
            None => session.solve(tau),
        }
        .expect("truncation LP is well-formed");
        match sol.status {
            Status::Optimal => Some(sol.objective),
            Status::Stopped => None,
            other => unreachable!("truncation LP cannot be {other:?}"),
        }
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
        match KernelWorker::try_new(sp, self.value_at_zero()) {
            Some(w) => Some(Box::new(w)),
            None => Some(Box::new(SweepWorker { trunc: self, session: self.simplex_session()? })),
        }
    }

    fn tau_star(&self) -> f64 {
        // DS_Q(I) = max_j S_Q(I, t_j) for SJA queries (Eq. 6); with
        // projection the same maximum over raw join results is IS_Q(I).
        self.profile.max_sensitivity()
    }
}

/// Worker-local simplex branch solver for [`LpTruncation`]: one session
/// whose workspace every branch reuses. Each branch is the stateless path's
/// cold solve, so values equal [`LpTruncation::value`] bit for bit.
struct SweepWorker<'t, 'p> {
    trunc: &'t LpTruncation<'p>,
    session: SweepSession<'t>,
}

impl SweepBranchSolver for SweepWorker<'_, '_> {
    fn value(&mut self, tau: f64) -> f64 {
        self.trunc.solve_on(&mut self.session, tau, None).expect("no cutoff provided")
    }

    fn value_racing(
        &mut self,
        tau: f64,
        should_continue: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64> {
        self.trunc.solve_on(&mut self.session, tau, Some(should_continue))
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
        // Either the threshold cut finished it instantly (Some) or the
        // cutoff fired.
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
