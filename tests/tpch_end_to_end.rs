//! Integration: the ten TPC-H queries end to end — generation, lineage
//! evaluation, R2T, and the LS baseline's support matrix (Table 5).

use r2t::core::baselines::LocalSensitivitySvt;
use r2t::core::{Mechanism, R2TConfig, R2T};
use r2t::engine::exec;
use r2t::tpch::{all_queries, generate, Category};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn r2t_supports_every_query_and_underestimates() {
    let inst = generate(0.1, 0.3, 21);
    for tq in all_queries() {
        let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
        let truth = profile.query_result();
        let gs = if tq.category == Category::Aggregation { 1 << 18 } else { 1 << 12 } as f64;
        let r2t =
            R2T::new(R2TConfig::builder(0.8, 0.1, gs).early_stop(true).parallel(false).build());
        let mut rng = StdRng::seed_from_u64(5);
        let out = r2t.run(&profile, &mut rng).expect("R2T supports all SPJA queries");
        assert!(out.is_finite(), "{}", tq.name);
        // One seeded run: the output should be below Q(I) (holds w.p. 1-β/2;
        // the seed is fixed so this is deterministic).
        assert!(out <= truth + 1e-6, "{}: {out} > {truth}", tq.name);
    }
}

#[test]
fn ls_support_matrix_matches_table_5() {
    let inst = generate(0.1, 0.3, 21);
    let ls = LocalSensitivitySvt { epsilon: 0.8, gs: 4096.0 };
    for tq in all_queries() {
        let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
        let mut rng = StdRng::seed_from_u64(6);
        let supported = ls.run(&profile, &mut rng).is_some();
        let expected = matches!(tq.name, "Q3" | "Q12" | "Q20");
        assert_eq!(
            supported, expected,
            "{}: LS supported = {supported}, Table 5 says {expected}",
            tq.name
        );
    }
}

#[test]
fn multi_ppr_sensitivities_cover_both_relations() {
    // Q5 references both customers and suppliers; removing the heaviest
    // private tuple must change the query result accordingly.
    let inst = generate(0.1, 0.3, 21);
    let tq = all_queries().into_iter().find(|q| q.name == "Q5").expect("Q5 exists");
    let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
    assert!(profile.num_private > 0);
    let ds = profile.downward_sensitivity();
    assert!(ds > 0.0);
    assert_eq!(ds, profile.max_sensitivity(), "SJA: DS equals max sensitivity");
}

#[test]
fn q10_projection_bounded_by_distinct_customers() {
    let inst = generate(0.1, 0.3, 21);
    let tq = all_queries().into_iter().find(|q| q.name == "Q10").expect("Q10 exists");
    let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
    assert!(profile.groups.is_some(), "Q10 is a projection query");
    assert!(profile.query_result() <= inst.rows("customer").len() as f64);
    // Projection makes DS_Q(I) ≤ IS_Q(I).
    assert!(profile.downward_sensitivity() <= profile.max_sensitivity() + 1e-9);
}

#[test]
fn scaling_preserves_query_support() {
    for sf in [0.05, 0.2] {
        let inst = generate(sf, 0.3, 33);
        for tq in all_queries() {
            let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
            assert!(profile.query_result() > 0.0, "{} empty at scale {sf}", tq.name);
        }
    }
}

#[test]
fn benchmark_tpch_workloads_stay_on_the_columnar_path() {
    // Perf guard for the executor dispatch: the BENCH_join TPC-H workloads
    // are acyclic (pure foreign-key) joins, so `Strategy::Auto` must
    // classify them acyclic and keep them on the columnar pipeline — the
    // WCOJ executor is reserved for cyclic patterns. If one ever
    // classified cyclic, BENCH_join's TPC-H latencies would silently
    // change executor.
    use r2t::engine::query::join_is_acyclic;
    for tq in all_queries() {
        let acyclic = join_is_acyclic(&tq.query.atoms);
        match tq.name {
            "Q3" | "Q7" | "Q10" | "Q18" => {
                assert!(acyclic, "{} should classify acyclic (columnar dispatch)", tq.name);
            }
            // Q5 closes a genuine cycle (customer and supplier must share a
            // nation), so Auto routes it to the WCOJ path — checked below.
            "Q5" => assert!(!acyclic, "Q5's nation cycle should classify cyclic"),
            _ => {}
        }
    }
    // The one cyclic TPC-H query must produce a bit-identical profile
    // whichever executor Auto picks.
    use r2t::engine::exec::{ExecOptions, Source, Strategy};
    let inst = generate(0.08, 0.3, 21);
    let tq = all_queries().into_iter().find(|q| q.name == "Q5").expect("Q5 exists");
    let auto = exec::profile(&tq.schema, &inst, &tq.query).expect("auto");
    let pinned = ExecOptions { strategy: Strategy::Columnar, ..ExecOptions::default() };
    let col = exec::profile_with_stats_src(&tq.schema, Source::Rows(&inst), &tq.query, &pinned)
        .expect("columnar")
        .0;
    assert_eq!(auto, col, "Q5 profile must not depend on the dispatched executor");
}
