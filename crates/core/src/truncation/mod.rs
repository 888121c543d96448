//! Truncation methods `Q(I, τ)`.
//!
//! R2T works with any function satisfying the three properties of Section 5:
//!
//! 1. **Stability**: for any τ, the global sensitivity of `Q(·, τ)` is ≤ τ.
//! 2. **Underestimate**: `Q(I, τ) ≤ Q(I)`.
//! 3. **Saturation**: `Q(I, τ) = Q(I)` for all `τ ≥ τ*(I)`, with
//!    `τ*(I) = DS_Q(I)` (SJA) or `IS_Q(I)` (SPJA).
//!
//! Two methods are provided:
//! * [`NaiveTruncation`] — drop private tuples with sensitivity above τ.
//!   Stable *only* when every join result references exactly one private
//!   tuple (self-join-free, single primary private relation).
//! * [`LpTruncation`] — the LP of Section 6, valid for arbitrary SJA queries,
//!   extended by Section 7's group rows for SPJA queries with
//!   duplicate-removing projection.

mod kernel;
mod lp;
mod naive;
#[cfg(test)]
mod projected;

pub use lp::LpTruncation;
pub use naive::NaiveTruncation;

use r2t_engine::QueryProfile;

/// Which backend a [`SweepBranchSolver`] runs on. `r2t-lp` classifies the
/// shared sweep structure once (see [`r2t_lp::KernelClass`]); this is the
/// session-level view of where that classification landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Per-node closed form (every result references ≤ 1 private tuple).
    ClosedForm,
    /// Incremental max-flow: on the bipartite double cover for ≤ 2 unit
    /// references per result, and on the layered network for a projected
    /// LP whose tuples split into an other side and a group side.
    Matching,
    /// Revised simplex, one cold solve per branch (no special structure).
    Simplex,
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            KernelKind::ClosedForm => "closed-form",
            KernelKind::Matching => "max-flow",
            KernelKind::Simplex => "simplex",
        })
    }
}

/// A per-worker branch solver over a truncation's shared LP structure.
/// Created through [`Truncation::sweep_session`]; one session per racing
/// worker thread. A combinatorial kernel carries flow state across the
/// τ-branches it is fed, and its values match the stateless [`Truncation`]
/// entry points to solver tolerance. A simplex session only reuses its
/// workspace: each branch is one cold solve of the threshold-cut LP, so its
/// values equal the stateless ones bit for bit, in any branch order.
pub trait SweepBranchSolver {
    /// Computes `Q(I, τ)` (full solve).
    fn value(&mut self, tau: f64) -> f64;

    /// Racing variant; see [`Truncation::value_racing`].
    fn value_racing(
        &mut self,
        tau: f64,
        should_continue: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64>;

    /// Cumulative solver counters (solves, primal iterations) across every
    /// branch this session has solved. Combinatorial kernels report zeros —
    /// they never pivot.
    fn stats(&self) -> r2t_lp::SolveStats;

    /// Which backend this session solves branches with.
    fn kind(&self) -> KernelKind {
        KernelKind::Simplex
    }
}

/// Abstraction over truncation methods. Implementations borrow the profile
/// and may precompute shared state (e.g. the LP skeleton).
pub trait Truncation: Sync {
    /// Computes `Q(I, τ)`.
    fn value(&self, tau: f64) -> f64;

    /// Computes `Q(I, τ)` with a racing cutoff for the early-stop
    /// optimization (Algorithm 1): `should_continue(upper_bound)` is invoked
    /// periodically with a decreasing upper bound on `Q(I, τ)`; returning
    /// `false` aborts and yields `None`. The default implementation ignores
    /// the cutoff.
    fn value_racing(&self, tau: f64, should_continue: &mut dyn FnMut(f64) -> bool) -> Option<f64> {
        let _ = should_continue;
        Some(self.value(tau))
    }

    /// Creates a branch solver over this truncation's shared LP structure,
    /// if the method supports one (`None` = callers fall back to the
    /// stateless entry points). The first call builds the shared sweep
    /// structure; subsequent calls (other workers) reuse it.
    ///
    /// Implementations dispatch on the structure: matching-shaped SJA LPs
    /// and layered projected LPs get a combinatorial max-flow kernel,
    /// single-reference LPs a closed form, everything else the revised
    /// simplex (see [`KernelKind`]).
    fn sweep_session(&self) -> Option<Box<dyn SweepBranchSolver + '_>> {
        None
    }

    /// The saturation threshold `τ*(I)` of this method on this profile.
    fn tau_star(&self) -> f64;
}

/// The paper's truncation for a profile: the LP of Section 6, with
/// Section 7's group rows when the query has a projection.
pub fn for_profile(profile: &QueryProfile) -> Box<dyn Truncation + '_> {
    Box::new(LpTruncation::new(profile))
}

/// Like [`for_profile`], with an explicit racing-cutoff check cadence
/// (simplex iterations between callback invocations).
pub fn for_profile_with(profile: &QueryProfile, event_every: usize) -> Box<dyn Truncation + '_> {
    let mut t = LpTruncation::new(profile);
    t.event_every = event_every;
    Box::new(t)
}

#[cfg(test)]
pub(crate) mod test_support {
    use r2t_engine::lineage::ProfileBuilder;
    use r2t_engine::QueryProfile;

    /// Example 6.2's instance: 1000 triangles, 1000 4-cliques, 100 8-stars,
    /// 10 16-stars, one 32-star; join results are undirected edges with
    /// predicate ID1 < ID2 (weight 1, referencing both endpoints).
    pub fn example_6_2_profile() -> QueryProfile {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        let mut next_node: u64 = 0;
        let mut clique = |k: u64, count: usize, b: &mut ProfileBuilder<u64>| {
            for _ in 0..count {
                let base = next_node;
                next_node += k;
                for i in 0..k {
                    for j in (i + 1)..k {
                        b.add_result(1.0, [base + i, base + j]);
                    }
                }
            }
        };
        clique(3, 1000, &mut b); // triangles
        clique(4, 1000, &mut b); // 4-cliques
        let mut star = |k: u64, count: usize, b: &mut ProfileBuilder<u64>| {
            for _ in 0..count {
                let center = next_node;
                next_node += k + 1;
                for i in 1..=k {
                    b.add_result(1.0, [center, center + i]);
                }
            }
        };
        star(8, 100, &mut b);
        star(16, 10, &mut b);
        star(32, 1, &mut b);
        b.build()
    }
}
