//! Differential property tests for the columnar executor.
//!
//! On random schemas, instances, and queries, the columnar parallel executor
//! must produce *exactly* the same [`QueryProfile`] as (a) the reference
//! row-at-a-time executor and (b) itself under any worker count — including
//! projection and group-by queries — and its query result must agree with
//! the brute-force nested-loop oracle.

use proptest::prelude::*;
use r2t_engine::exec::{
    evaluate_bruteforce, profile, profile_grouped_reference, profile_grouped_with_stats_src,
    profile_reference, profile_with_stats_src, Source,
};

mod prop_common;
use prop_common::{arb_workload, forced_parallel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// The columnar executor reproduces the reference profile bit-for-bit,
    /// sequentially and under forced parallelism.
    #[test]
    fn columnar_profile_matches_reference(w in arb_workload()) {
        let (reference, _) = profile_reference(&w.schema, &w.inst, &w.query).expect("reference");
        let (seq, _) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &forced_parallel(1),
        ).expect("sequential");
        prop_assert_eq!(&seq, &reference);
        let (par, _) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &forced_parallel(3),
        ).expect("parallel");
        prop_assert_eq!(&par, &reference);
    }

    /// The profile's total agrees with the nested-loop oracle.
    #[test]
    fn columnar_result_matches_bruteforce(w in arb_workload()) {
        let p = profile(&w.schema, &w.inst, &w.query).expect("profile");
        let brute = evaluate_bruteforce(&w.schema, &w.inst, &w.query).expect("brute");
        prop_assert!((p.query_result() - brute).abs() < 1e-9);
    }

    /// Group-by evaluation: columnar == reference (keys and profiles), and
    /// forced parallelism changes nothing.
    #[test]
    fn grouped_columnar_matches_reference(w in arb_workload()) {
        prop_assume!(!w.group_vars.is_empty());
        let reference = profile_grouped_reference(&w.schema, &w.inst, &w.query, &w.group_vars)
            .expect("reference");
        for workers in [1usize, 3] {
            let (fast, _) = profile_grouped_with_stats_src(
                &w.schema, Source::Rows(&w.inst), &w.query, &w.group_vars,
                &forced_parallel(workers),
            ).expect("grouped");
            prop_assert_eq!(&fast, &reference);
        }
    }
}
