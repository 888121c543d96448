//! Differential property tests for the worst-case-optimal executor:
//! `wcoj == columnar == reference`, bit-for-bit, on random workloads.
//!
//! Coverage deliberately includes shapes the auto-dispatcher would never
//! send to the WCOJ path (acyclic chains, single atoms, Cartesian products)
//! by *forcing* `Strategy::Wcoj`, plus a cyclic family (triangles,
//! rectangles, 4-cliques — with self-joins, projections, GROUP BY, and
//! empty-result instances) that is its actual production diet. Forced
//! parallelism must reproduce the sequential profile exactly. The obs
//! feature states are covered by CI running this suite with and without
//! `--features obs`; telemetry must never perturb any of these equalities.

use proptest::prelude::*;
use r2t_engine::exec::{
    evaluate_bruteforce, profile_grouped_reference, profile_grouped_with_stats_src,
    profile_reference, profile_with_stats_src, ExecOptions, Source, Strategy as ExecStrategy,
};
use r2t_engine::query::{atom, join_is_acyclic, CmpOp, Predicate, Query};
use r2t_engine::schema::graph_schema_node_dp;

mod prop_common;
use prop_common::{arb_workload, edge_dp_schema, forced_parallel, graph_instance, Workload};

/// `forced_parallel` with the executor pinned.
fn pinned(workers: usize, strategy: ExecStrategy) -> ExecOptions {
    ExecOptions { strategy, ..forced_parallel(workers) }
}

/// Cyclic graph workloads: triangle, rectangle, or 4-clique atoms over a
/// random node-DP or edge-DP graph, with optional comparison predicate,
/// projection, and group-by. Small node counts make empty results common.
fn arb_cyclic_workload() -> impl proptest::prelude::Strategy<Value = Workload> {
    (
        2..12usize,
        prop::collection::vec((0..64i64, 0..64i64), 0..28),
        any::<bool>(), // edge-DP?
        0..3u8,        // pattern: triangle / rectangle / 4-clique
        0..3u8,        // predicate kind
        0..3u8,        // projection kind
        0..3u8,        // group-by kind
    )
        .prop_map(|(n, pairs, edge_dp, pat, pred, proj, grp)| {
            let schema = if edge_dp { edge_dp_schema() } else { graph_schema_node_dp() };
            let inst = graph_instance(n, pairs, edge_dp);
            let cycles: &[[u32; 2]] = match pat {
                0 => &[[0, 1], [1, 2], [0, 2]],
                1 => &[[0, 1], [1, 2], [2, 3], [3, 0]],
                _ => &[[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]],
            };
            let nnode_vars = if pat == 0 { 3u32 } else { 4u32 };
            let atoms = cycles
                .iter()
                .enumerate()
                .map(|(i, &[s, d])| {
                    if edge_dp {
                        atom("Edge", &[nnode_vars + i as u32, s, d])
                    } else {
                        atom("Edge", &[s, d])
                    }
                })
                .collect();
            let max_var = nnode_vars - 1;
            let mut q = Query::count(atoms);
            q = match pred {
                0 => q.with_predicate(Predicate::cmp_vars(0, CmpOp::Lt, max_var)),
                1 => q.with_predicate(Predicate::cmp_vars(0, CmpOp::Ne, 1)),
                _ => q,
            };
            q = match proj {
                0 => q.with_projection(vec![0]),
                1 => q.with_projection(vec![0, max_var]),
                _ => q,
            };
            let group_vars = match grp {
                0 => vec![0],
                1 => vec![1],
                _ => vec![],
            };
            Workload { schema, inst, query: q, group_vars }
        })
}

/// Cyclic and generic (acyclic, self-join, Cartesian) workloads mixed.
fn arb_any_workload() -> impl proptest::prelude::Strategy<Value = Workload> {
    (any::<bool>(), arb_cyclic_workload(), arb_workload())
        .prop_map(|(pick, cyc, gen)| if pick { cyc } else { gen })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// Forced WCOJ reproduces the reference profile bit-for-bit on *every*
    /// query shape, sequentially and under forced parallelism.
    #[test]
    fn wcoj_profile_matches_reference(w in arb_any_workload()) {
        let (reference, _) = profile_reference(&w.schema, &w.inst, &w.query).expect("reference");
        let (seq, _) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &pinned(1, ExecStrategy::Wcoj),
        ).expect("wcoj sequential");
        prop_assert_eq!(&seq, &reference);
        let (par, _) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &pinned(3, ExecStrategy::Wcoj),
        ).expect("wcoj parallel");
        prop_assert_eq!(&par, &reference);
    }

    /// All three strategies agree: Auto == pinned-Columnar == pinned-Wcoj.
    #[test]
    fn strategies_agree(w in arb_any_workload()) {
        let auto = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &forced_parallel(2),
        ).expect("auto").0;
        let col = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &pinned(2, ExecStrategy::Columnar),
        ).expect("columnar").0;
        let wcoj = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &pinned(2, ExecStrategy::Wcoj),
        ).expect("wcoj").0;
        prop_assert_eq!(&auto, &col);
        prop_assert_eq!(&auto, &wcoj);
    }

    /// The WCOJ total agrees with the nested-loop oracle on cyclic shapes.
    #[test]
    fn wcoj_result_matches_bruteforce(w in arb_cyclic_workload()) {
        let (p, stats) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &ExecOptions { strategy: ExecStrategy::Wcoj, ..ExecOptions::default() },
        ).expect("profile");
        let brute = evaluate_bruteforce(&w.schema, &w.inst, &w.query).expect("brute");
        prop_assert!((p.query_result() - brute).abs() < 1e-9);
        // Output-proportional buffering: every peak binding is a surviving
        // result record, never an intermediate.
        prop_assert_eq!(stats.peak_bindings, stats.surviving_results);
    }

    /// Grouped WCOJ matches the grouped reference executor, at any worker
    /// count.
    #[test]
    fn grouped_wcoj_matches_reference(w in arb_any_workload()) {
        prop_assume!(!w.group_vars.is_empty());
        let reference = profile_grouped_reference(&w.schema, &w.inst, &w.query, &w.group_vars)
            .expect("reference");
        for workers in [1usize, 3] {
            let (fast, _) = profile_grouped_with_stats_src(
                &w.schema, Source::Rows(&w.inst), &w.query, &w.group_vars,
                &pinned(workers, ExecStrategy::Wcoj),
            ).expect("grouped wcoj");
            prop_assert_eq!(&fast, &reference);
        }
    }

    /// The cyclic family really is cyclic (the dispatcher must route it to
    /// the WCOJ path), and the generic path family classifies consistently
    /// with GYO on the raw atoms.
    #[test]
    fn cyclic_family_classified_cyclic(w in arb_cyclic_workload()) {
        prop_assert!(!join_is_acyclic(&w.query.atoms));
    }
}
