//! Property test: a branch value is a function of (LP, τ) alone. Whenever
//! the dispatched sweep session — what `R2TConfig::warm_sweep` selects —
//! lands on the simplex, every branch it returns equals the stateless
//! [`Truncation::value`] bit for bit: fed τ descending (the race's order) or
//! shuffled, through `value` or through `value_racing` with a generous
//! cutoff, for both the SJA LP and the projected LP. Kernel-served draws are
//! `prop_flow_kernel`'s subject.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use r2t_core::truncation::{LpTruncation, Truncation};
use r2t_core::KernelKind;
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

/// The τ-race of a GS = 256 run, descending (the race's order), with τ = 0
/// appended to exercise the closed-form path.
fn race_taus() -> Vec<f64> {
    let mut taus: Vec<f64> = (1..=8u32).rev().map(|j| (1u64 << j) as f64).collect();
    taus.push(0.0);
    taus
}

/// [`race_taus`] in a Fisher–Yates order drawn from `seed`.
fn shuffled_taus(seed: u64) -> Vec<f64> {
    let mut taus = race_taus();
    let mut s = seed | 1;
    for i in (1..taus.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        taus.swap(i, (s >> 33) as usize % (i + 1));
    }
    taus
}

fn assert_session_matches_stateless(
    trunc: &dyn Truncation,
    seed: u64,
) -> Result<(), TestCaseError> {
    let kind = trunc.sweep_session().expect("LP truncations support sweeps").kind();
    if kind != KernelKind::Simplex {
        return Ok(());
    }
    for order in [race_taus(), shuffled_taus(seed)] {
        // One session per entry point, each fed the whole order.
        let mut plain = trunc.sweep_session().expect("LP truncations support sweeps");
        let mut racing = trunc.sweep_session().expect("LP truncations support sweeps");
        for &tau in &order {
            let cold = trunc.value(tau);
            let v = plain.value(tau);
            prop_assert_eq!(
                v.to_bits(),
                cold.to_bits(),
                "tau={}: session {} vs stateless {}",
                tau,
                v,
                cold
            );
            let raced = racing.value_racing(tau, &mut |_| true);
            prop_assert_eq!(
                raced.map(f64::to_bits),
                Some(cold.to_bits()),
                "tau={}: raced {:?} vs stateless {}",
                tau,
                raced,
                cold
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sja_warm_sweep_matches_cold(rp in arb_profile(), seed in any::<u64>()) {
        let p = build_sja(&rp);
        let t = LpTruncation::new(&p);
        assert_session_matches_stateless(&t, seed)?;
    }

    #[test]
    fn projected_warm_sweep_matches_cold(rp in arb_profile(), seed in any::<u64>()) {
        let p = build_projected(&rp);
        let t = LpTruncation::new(&p);
        assert_session_matches_stateless(&t, seed)?;
    }
}
