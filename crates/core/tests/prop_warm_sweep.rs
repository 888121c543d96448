//! Property test for warm-start correctness: a simplex sweep session fed the
//! τ-race in descending order (the warm-chain order R2T uses) must agree with
//! the stateless cold-start truncation value on **every** branch, for both
//! the SJA LP and the projected LP. The session is pinned to the simplex
//! ([`Truncation::simplex_sweep_session`]): many draws have a flow-kernel
//! shape, and `prop_flow_kernel` compares the kernels against this oracle.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use r2t_core::truncation::{LpTruncation, Truncation};
use r2t_engine::lineage::ProfileBuilder;
use r2t_engine::QueryProfile;

/// A randomly generated query profile described by plain data: results as
/// (weight, refs over the private-tuple id space), and a projection layer
/// assigning each result to a group with a per-group weight.
#[derive(Debug, Clone)]
struct RandomProfile {
    results: Vec<(f64, Vec<usize>)>,
    group_of: Vec<usize>,
    group_weights: Vec<f64>,
}

fn arb_profile() -> impl Strategy<Value = RandomProfile> {
    (2..=10usize, 1..=40usize, 1..=6usize).prop_flat_map(|(p, n, g)| {
        let results = prop::collection::vec((0.25f64..4.0, prop::collection::vec(0..p, 1..=4)), n);
        let group_of = prop::collection::vec(0..g, n);
        let group_weights = prop::collection::vec(0.5f64..4.0, g);
        (results, group_of, group_weights).prop_map(|(results, group_of, group_weights)| {
            RandomProfile { results, group_of, group_weights }
        })
    })
}

fn build_sja(rp: &RandomProfile) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for (w, refs) in &rp.results {
        b.add_result(*w, refs.iter().map(|&r| r as u64));
    }
    b.build()
}

fn build_projected(rp: &RandomProfile) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for (k, (w, refs)) in rp.results.iter().enumerate() {
        let gid = rp.group_of[k];
        b.add_projected_result(
            gid as u64,
            rp.group_weights[gid],
            *w,
            refs.iter().map(|&r| r as u64),
        )
        .expect("consistent group weights");
    }
    b.build()
}

/// The τ-race of a GS = 256 run, descending (warm-chain order), with τ = 0
/// appended to exercise the closed-form path.
fn race_taus() -> Vec<f64> {
    let mut taus: Vec<f64> = (1..=8u32).rev().map(|j| (1u64 << j) as f64).collect();
    taus.push(0.0);
    taus
}

fn assert_warm_matches_cold(trunc: &dyn Truncation) -> Result<(), TestCaseError> {
    let mut session = trunc.simplex_sweep_session().expect("LP truncations support sweeps");
    for tau in race_taus() {
        let cold = trunc.value(tau);
        let warm = session.value(tau);
        prop_assert!(
            (warm - cold).abs() <= 1e-6 * (1.0 + cold.abs()),
            "tau={tau}: warm {warm} vs cold {cold}"
        );
        // The racing entry point with a generous cutoff must agree too.
        let raced = session.value_racing(tau, &mut |_| true);
        prop_assert!(
            raced.is_some_and(|r| (r - cold).abs() <= 1e-6 * (1.0 + cold.abs())),
            "tau={tau}: raced {raced:?} vs cold {cold}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sja_warm_sweep_matches_cold(rp in arb_profile()) {
        let p = build_sja(&rp);
        let t = LpTruncation::new(&p);
        assert_warm_matches_cold(&t)?;
    }

    #[test]
    fn projected_warm_sweep_matches_cold(rp in arb_profile()) {
        let p = build_projected(&rp);
        let t = LpTruncation::new(&p);
        assert_warm_matches_cold(&t)?;
    }
}
