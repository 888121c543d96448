//! Differential property tests for the combinatorial flow kernels: on every
//! matching-structured SJA profile and every layered projected profile, the
//! kernel session dispatched by [`Truncation::sweep_session`] must agree
//! with the revised-simplex oracle (the stateless [`Truncation::value`]) to
//! 1e-6 relative on every branch of the τ-race — including τ = 0,
//! fractional τ, and τ far past saturation.
//!
//! The generators cover the hostile shapes the kernels have to normalize:
//! fractional ψ weights, zero-weight results, results with no private
//! references (fixed mass), group caps below and above their members' sums,
//! and private-tuple islands (disconnected flow components). Projected
//! shapes without a layered split must fall back under a named reason.
//! Integrality and min-cut tightness are unit-tested at the `r2t-lp` layer
//! where the flow internals are visible.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use r2t_core::truncation::{LpTruncation, Truncation};
use r2t_core::KernelKind;
use r2t_engine::lineage::ProfileBuilder;
use r2t_engine::QueryProfile;

/// A random graph-shaped workload: islands of private tuples, each result
/// referencing 0, 1, or 2 tuples *within one island* (so distinct islands
/// are provably disconnected flow components).
#[derive(Debug, Clone)]
struct GraphProfile {
    tuples_per_island: usize,
    /// (weight, island, endpoints within the island — 0, 1, or 2 of them).
    results: Vec<(f64, usize, Vec<usize>)>,
}

fn arb_graph() -> impl Strategy<Value = GraphProfile> {
    (1..=3usize, 2..=8usize, 1..=50usize).prop_flat_map(|(islands, per, n)| {
        let result = (0u8..10, 0.05f64..4.0, 0..islands, prop::collection::vec(0..per, 0..=2));
        prop::collection::vec(result, n).prop_map(move |raw| GraphProfile {
            tuples_per_island: per,
            results: raw
                .into_iter()
                // Zero-weight results (~20% of draws) must be carried: they
                // contribute nothing but still appear as LP columns.
                .map(|(zero, w, island, ends)| (if zero < 2 { 0.0 } else { w }, island, ends))
                .collect(),
        })
    })
}

fn build(g: &GraphProfile) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for (w, island, ends) in &g.results {
        let base = (island * g.tuples_per_island) as u64;
        b.add_result(*w, ends.iter().map(|&e| base + e as u64));
    }
    b.build()
}

/// Race grid: descending powers of two, a fractional τ, τ = 0, and a τ far
/// past every plausible saturation point.
fn race_taus(p: &QueryProfile) -> Vec<f64> {
    let mut taus: Vec<f64> = (1..=8u32).rev().map(|j| (1u64 << j) as f64).collect();
    taus.push(2.0 * p.max_sensitivity() + 1024.0);
    taus.push(1.5);
    taus.push(0.25);
    taus.push(0.0);
    taus
}

/// A random projected workload shaped for the layered network. Each island
/// has `other` other-side tuples and `gside` group-side tuples; every
/// group-side tuple feeds its home group, while an other-side tuple may feed
/// any. A result touches at most one tuple of each side of its island.
#[derive(Debug, Clone)]
struct LayeredProfile {
    other: usize,
    gside: usize,
    /// Home group of group-side tuple `island * gside + t`.
    home: Vec<usize>,
    /// `ψ_l` per group: drawn independently of the members, so it lands
    /// both below and above their sum.
    group_weights: Vec<f64>,
    /// (weight, island, other-side tuple (`other` = none), group-side tuple
    /// (`gside` = none), group when the result has no group-side tuple).
    results: Vec<(f64, usize, usize, usize, usize)>,
}

fn arb_layered() -> impl Strategy<Value = LayeredProfile> {
    (1..=3usize, 1..=4usize, 1..=5usize, 1..=5usize, 1..=40usize).prop_flat_map(
        |(islands, other, gside, groups, n)| {
            let home = prop::collection::vec(0..groups, islands * gside);
            let group_weights = prop::collection::vec(0.0f64..6.0, groups);
            let result = (0u8..10, 0.05f64..4.0, 0..islands, 0..=other, 0..=gside, 0..groups);
            (home, group_weights, prop::collection::vec(result, n)).prop_map(
                move |(home, group_weights, raw)| LayeredProfile {
                    other,
                    gside,
                    home,
                    group_weights,
                    results: raw
                        .into_iter()
                        .map(|(zero, w, island, o, g, free)| {
                            (if zero < 2 { 0.0 } else { w }, island, o, g, free)
                        })
                        .collect(),
                },
            )
        },
    )
}

fn build_layered(lp: &LayeredProfile) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for &(w, island, o, g, free) in &lp.results {
        let mut refs = Vec::new();
        if o < lp.other {
            refs.push((island * lp.other + o) as u64);
        }
        let group = if g < lp.gside {
            let t = island * lp.gside + g;
            refs.push(1_000_000 + t as u64);
            lp.home[t]
        } else {
            free
        };
        b.add_projected_result(group as u64, lp.group_weights[group], w, refs)
            .expect("one weight per group");
    }
    b.build()
}

/// Projected results as `(group, refs)` pairs of unit weight.
type Results<'a> = &'a [(u64, &'a [u64])];

/// Builds a projected profile from unit-weight results.
fn projected(results: Results<'_>) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for &(g, refs) in results {
        b.add_projected_result(g, 1.0, 1.0, refs.iter().copied()).unwrap();
    }
    b.build()
}

fn assert_kernel_matches_simplex(
    trunc: &dyn Truncation,
    p: &QueryProfile,
) -> Result<(), TestCaseError> {
    let mut kernel = trunc.sweep_session().expect("LP truncations support sweeps");
    prop_assert!(
        kernel.kind() != KernelKind::Simplex,
        "kernel-shaped workloads must dispatch to a combinatorial kernel"
    );
    for tau in race_taus(p) {
        let want = trunc.value(tau);
        let got = kernel.value(tau);
        prop_assert!(
            (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
            "tau={tau}: kernel {got} vs simplex {want}"
        );
        // The racing entry point with a generous cutoff is the same number.
        let raced = kernel.value_racing(tau, &mut |_| true);
        prop_assert!(
            raced.is_some_and(|r| (r - want).abs() <= 1e-6 * (1.0 + want.abs())),
            "tau={tau}: raced {raced:?} vs simplex {want}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matching_kernel_matches_simplex_on_graph_profiles(g in arb_graph()) {
        let p = build(&g);
        prop_assume!(!p.results.is_empty());
        let t = LpTruncation::new(&p);
        assert_kernel_matches_simplex(&t, &p)?;
    }

    /// Projection-free SPJA profiles fold to the SJA LP; the projected
    /// truncation must reach the identical kernel values.
    #[test]
    fn projected_without_groups_matches_simplex(g in arb_graph()) {
        let p = build(&g);
        prop_assume!(!p.results.is_empty());
        let t = LpTruncation::new(&p);
        assert_kernel_matches_simplex(&t, &p)?;
    }

    /// Layered projected profiles dispatch to the max-flow kernel.
    #[test]
    fn layered_kernel_matches_simplex_on_projected_profiles(lp in arb_layered()) {
        let p = build_layered(&lp);
        let t = LpTruncation::new(&p);
        assert_kernel_matches_simplex(&t, &p)?;
    }

    /// Single-reference workloads dispatch to the closed form; same oracle.
    #[test]
    fn closed_form_matches_simplex_on_star_profiles(
        weights in prop::collection::vec(0.0f64..4.0, 1..40),
        owners in prop::collection::vec(0..6usize, 40),
    ) {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for (k, w) in weights.iter().enumerate() {
            if k % 7 == 3 {
                b.add_result(*w, []); // free result: fixed mass
            } else {
                b.add_result(*w, [owners[k] as u64]);
            }
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        let mut kernel = t.sweep_session().expect("sweep available");
        prop_assert!(kernel.kind() == KernelKind::ClosedForm);
        for tau in race_taus(&p) {
            let want = t.value(tau);
            let got = kernel.value(tau);
            prop_assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "tau={tau}: closed form {got} vs simplex {want}"
            );
        }
    }
}

/// A kernel session killed mid-race (cutoff refuses) must keep serving
/// correct values afterwards — the race retries branches after a kill when
/// the bar drops.
#[test]
fn killed_kernel_session_recovers() {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for i in 0..40u64 {
        b.add_result(1.0 + (i % 4) as f64 * 0.25, [i % 10, (i + 1) % 10]);
    }
    let p = b.build();
    let t = LpTruncation::new(&p);
    let mut kernel = t.sweep_session().unwrap();
    assert!(kernel.value_racing(64.0, &mut |_| false).is_none(), "hopeless cutoff kills");
    for tau in [64.0, 16.0, 4.0, 1.0] {
        let want = t.value(tau);
        let got = kernel.value_racing(tau, &mut |_| true).unwrap();
        assert!(
            (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
            "tau={tau}: post-kill kernel {got} vs simplex {want}"
        );
    }
}

/// The projected twin of [`killed_kernel_session_recovers`], on Q10's shape
/// (results touch one supplier and one customer; the customer determines the
/// group): after a kill the session serves the simplex's values, bit for bit
/// those of a session that was never killed.
#[test]
fn killed_projected_kernel_session_recovers() {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for i in 0..60u64 {
        let customer = 100 + i % 12;
        b.add_projected_result(customer, 1.0 + (customer % 3) as f64, 0.5, [i % 7, customer])
            .unwrap();
    }
    let p = b.build();
    let t = LpTruncation::new(&p);
    let mut kernel = t.sweep_session().unwrap();
    assert_eq!(kernel.kind(), KernelKind::Matching);
    assert!(kernel.value_racing(64.0, &mut |_| false).is_none(), "hopeless cutoff kills");
    let mut fresh = t.sweep_session().unwrap();
    for tau in [64.0, 16.0, 4.0, 1.0] {
        let want = t.value(tau);
        let got = kernel.value_racing(tau, &mut |_| true).unwrap();
        assert!(
            (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
            "tau={tau}: post-kill kernel {got} vs simplex {want}"
        );
        assert_eq!(got.to_bits(), fresh.value(tau).to_bits(), "tau={tau}");
    }
}

/// Projected shapes without a layered split fall back to the simplex, and
/// the `lp.kernel.fallback.*` counter names why (when obs is compiled in).
#[test]
fn non_layered_projections_fall_back_with_a_named_reason() {
    let cases: [(&str, Results<'_>); 3] = [
        ("too_many_refs", &[(0, &[0, 1, 2]), (1, &[2])]),
        ("no_group_side", &[(0, &[0, 1]), (0, &[1, 2]), (1, &[0, 2])]),
        // The 4-cycle 0 - 1 - 2 - 3: both colour classes ({0, 2}, {1, 3})
        // hold a tuple feeding two groups.
        (
            "no_group_side",
            &[(0, &[0, 1]), (1, &[0, 3]), (1, &[1, 2]), (0, &[2, 3]), (1, &[0]), (0, &[1])],
        ),
    ];
    r2t_obs::set_level(r2t_obs::Level::Counters);
    for (reason, results) in cases {
        let p = projected(results);
        let t = LpTruncation::new(&p);
        let start = r2t_obs::snapshot();
        let mut sess = t.sweep_session().unwrap();
        let counted = r2t_obs::snapshot().delta_since(&start);
        assert_eq!(sess.kind(), KernelKind::Simplex, "{reason}: {results:?}");
        let want = t.value(2.0);
        assert!((sess.value(2.0) - want).abs() <= 1e-9, "{reason}: the fallback still solves");
        let name = format!("lp.kernel.fallback.{reason}");
        let n = counted.counters.get(name.as_str()).copied().unwrap_or(0);
        assert_eq!(n >= 1, r2t_obs::COMPILED, "{name} counted {n}");
    }
    r2t_obs::set_level(r2t_obs::Level::Off);
}
