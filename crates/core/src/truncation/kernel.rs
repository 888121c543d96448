//! Combinatorial branch solvers: the dispatch target for truncation LPs
//! whose structure admits one of the `r2t-lp` flow kernels.
//!
//! [`Truncation::sweep_session`][super::Truncation::sweep_session] routes
//! here when the shared [`SweepProblem`] classified itself as a max-flow —
//! matching-structured (≤ 2 unit references per result, the bipartite
//! double cover) or a layered projected LP (each result touches ≤ 1 tuple
//! per side and every group-side tuple feeds one group) — or as
//! single-reference (per-node closed form). Every other structure —
//! coefficients ≠ 1, ≥ 3 references, projected LPs without a group side —
//! keeps the revised-simplex worker. The classifier lives in `r2t-lp`; the
//! truncations never see which kernel answered.
//!
//! The worker implements the same [`SweepBranchSolver`] contract as the
//! simplex sessions: exact `Q(I, τ)` per branch, decreasing racing upper
//! bounds, fed in descending-τ order by the race. Internally the flow
//! session sweeps *ascending* (capacities grow with τ, so flow is retained
//! and only augmented) and memoizes every power-of-two grid point on the
//! way up — the descending race's first branch pays for one max-flow and
//! every later branch is a lookup.

use super::{KernelKind, SweepBranchSolver};
use r2t_lp::{ClosedFormKernel, FlowSession, KernelClass, SolveStats, SweepProblem};

enum Backend<'a> {
    Flow(FlowSession<'a>),
    Closed(&'a ClosedFormKernel),
}

/// A worker-local combinatorial branch solver over a classified
/// [`SweepProblem`].
pub(crate) struct KernelWorker<'a> {
    backend: Backend<'a>,
    /// `Q(I, τ)` at τ ≤ 0: only results referencing no private tuple
    /// survive. Precomputed by the caller (closed form, no LP involved).
    zero: f64,
}

impl<'a> KernelWorker<'a> {
    /// Builds a kernel worker when `sp`'s structure admits one; `None`
    /// routes the caller to its simplex session. `zero` is the truncation
    /// value at τ ≤ 0.
    pub fn try_new(sp: &'a SweepProblem, zero: f64) -> Option<Self> {
        let backend = match sp.kernel_class() {
            KernelClass::Matching | KernelClass::Layered => Backend::Flow(sp.flow_session()?),
            KernelClass::ClosedForm => Backend::Closed(sp.closed_form()?),
            KernelClass::Simplex(_) => return None,
        };
        r2t_obs::counter_add("trunc.kernel.sessions", 1);
        Some(KernelWorker { backend, zero })
    }
}

impl SweepBranchSolver for KernelWorker<'_> {
    fn value(&mut self, tau: f64) -> f64 {
        if tau <= 0.0 {
            return self.zero;
        }
        // Only the flow kernel is worth timing: a closed-form evaluation is
        // a handful of arithmetic ops, cheaper than the timer itself, and a
        // race runs ~10 of them per released answer.
        match &mut self.backend {
            Backend::Flow(s) => {
                let _solve_ns = r2t_obs::hist_time("trunc.kernel.solve.ns");
                s.solve(tau)
            }
            Backend::Closed(k) => k.value(tau),
        }
    }

    fn value_racing(
        &mut self,
        tau: f64,
        should_continue: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64> {
        if tau <= 0.0 {
            // Closed form, like the stateless path: no cutoff consulted.
            return Some(self.zero);
        }
        match &mut self.backend {
            Backend::Flow(s) => {
                let _solve_ns = r2t_obs::hist_time("trunc.kernel.solve.ns");
                s.solve_racing(tau, should_continue)
            }
            // The closed form is instantaneous — no point offering a cutoff
            // (nor paying a timer; see `value`).
            Backend::Closed(k) => Some(k.value(tau)),
        }
    }

    fn stats(&self) -> SolveStats {
        // No simplex iterations by construction; the kernel's own effort is
        // reported through the `lp.kernel.*` obs counters.
        SolveStats::default()
    }

    fn kind(&self) -> KernelKind {
        match self.backend {
            Backend::Flow(_) => KernelKind::Matching,
            Backend::Closed(_) => KernelKind::ClosedForm,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::truncation::test_support::example_6_2_profile;
    use crate::truncation::{for_profile, KernelKind, LpTruncation, Truncation};
    use r2t_engine::lineage::ProfileBuilder;

    #[test]
    fn graph_profiles_dispatch_to_the_matching_kernel() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Matching);
    }

    #[test]
    fn single_reference_profiles_dispatch_to_the_closed_form() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for i in 0..20u64 {
            b.add_result(1.0 + (i % 3) as f64, [i % 5]);
        }
        b.add_result(2.0, []); // free result
        let p = b.build();
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::ClosedForm);
    }

    #[test]
    fn three_references_fall_back_to_simplex() {
        // Path-2 style results reference three private nodes.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for i in 0..10u64 {
            b.add_result(1.0, [i, i + 1, i + 2]);
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Simplex);
    }

    #[test]
    fn duplicate_references_are_deduped_upstream() {
        // `ProfileBuilder` sorts + dedups refs, so a self-pair arrives as a
        // single reference and the kernel stays applicable. A genuine
        // coefficient of 2 (only constructible at the raw LP layer) is
        // rejected by the classifier — asserted in the `r2t-lp` flow tests.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(1.0, [0, 0]);
        b.add_result(1.0, [0, 1]);
        let p = b.build();
        assert_eq!(p.results[0].refs, vec![0]);
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Matching);
    }

    #[test]
    fn projected_group_rows_dispatch_to_the_layered_flow() {
        // Example 7.1: both tuples feed every group, so both sit on the
        // other side of the layered network.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for l in 0..4u64 {
            b.add_projected_result(l, 1.0, 1.0, [1]).unwrap();
            b.add_projected_result(l, 1.0, 1.0, [2]).unwrap();
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        let mut sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Matching);
        assert_eq!(sess.value(1.0), 2.0);
        assert_eq!(sess.value(4.0), 4.0);
    }

    #[test]
    fn projected_without_a_group_side_falls_back_to_simplex() {
        // An odd cycle of two-reference results: no two sides exist.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for (l, refs) in [[0u64, 1], [1, 2], [0, 2]].into_iter().enumerate() {
            b.add_projected_result(l as u64, 1.0, 1.0, refs).unwrap();
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Simplex);
    }

    #[test]
    fn projection_free_spja_degenerates_to_the_matching_kernel() {
        // Without groups the LP is Section 6's, which on an edge workload
        // is matching-structured.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for i in 0..12u64 {
            b.add_result(1.0, [i, (i + 1) % 12]);
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        let sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Matching);
    }

    #[test]
    fn kernel_values_match_the_stateless_path_on_example_6_2() {
        let p = example_6_2_profile();
        let t = for_profile(&p);
        let mut sess = t.sweep_session().unwrap();
        assert_eq!(sess.kind(), KernelKind::Matching);
        for j in (0..=8).rev() {
            let tau = (1u64 << j) as f64;
            let got = sess.value(tau);
            let want = t.value(tau);
            assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "tau={tau}: kernel {got} stateless {want}"
            );
        }
        assert_eq!(sess.value(0.0), 0.0);
    }

    #[test]
    fn kernel_racing_matches_plain_values() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let mut sess = t.sweep_session().unwrap();
        let plain = sess.value(8.0);
        let mut sess2 = t.sweep_session().unwrap();
        let raced = sess2.value_racing(8.0, &mut |_| true).unwrap();
        assert_eq!(plain, raced, "racing with a generous cutoff is the same computation");
        let mut sess3 = t.sweep_session().unwrap();
        assert!(sess3.value_racing(8.0, &mut |_| false).is_none(), "hopeless cutoff kills");
    }
}
