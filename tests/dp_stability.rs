//! Property tests for the DP-critical truncation stability across the whole
//! stack: instance-level down-neighbours (delete a private tuple and its
//! cascade) must change `Q(I, τ)` by at most τ — the property whose failure
//! under naive truncation (Example 1.2) motivates the paper.

use proptest::prelude::*;
use r2t::core::truncation::{LpTruncation, Truncation};
use r2t::engine::exec;
use r2t::engine::schema::graph_schema_node_dp;
use r2t::engine::Value;
use r2t::graph::patterns::to_instance;
use r2t::graph::{Graph, Pattern};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4..14usize).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..2 * n)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every node v: |Q(I,τ) − Q(I − v, τ)| ≤ τ, where the neighbour is
    /// built through the ENGINE's FK cascade (not the profile shortcut).
    #[test]
    fn lp_truncation_stable_across_instance_neighbors(g in arb_graph(), tau in 0.0f64..6.0) {
        let schema = graph_schema_node_dp();
        let inst = to_instance(&g);
        let query = Pattern::Triangle.to_query();
        let p = exec::profile(&schema, &inst, &query).expect("runs");
        let v_full = LpTruncation::new(&p).value(tau);
        for v in 0..g.num_vertices().min(5) {
            let nb = inst.down_neighbor(&schema, "Node", &Value::Int(v as i64)).expect("nb");
            let pn = exec::profile(&schema, &nb, &query).expect("runs");
            let v_nb = LpTruncation::new(&pn).value(tau);
            prop_assert!(
                (v_full - v_nb).abs() <= tau + 1e-6,
                "node {v}: |{v_full} - {v_nb}| > tau = {tau}"
            );
        }
    }

    /// The projected (SPJA) LP is stable too, via a distinct-source query.
    #[test]
    fn projected_lp_stable_across_instance_neighbors(g in arb_graph(), tau in 0.0f64..4.0) {
        let schema = graph_schema_node_dp();
        let inst = to_instance(&g);
        // |π_src(Edge ⋈ Node ⋈ Node)|: distinct sources with any edge.
        let query = r2t::engine::Query::count(vec![r2t::engine::query::atom("Edge", &[0, 1])])
            .with_projection(vec![0]);
        let p = exec::profile(&schema, &inst, &query).expect("runs");
        let v_full = LpTruncation::new(&p).value(tau);
        for v in 0..g.num_vertices().min(4) {
            let nb = inst.down_neighbor(&schema, "Node", &Value::Int(v as i64)).expect("nb");
            let pn = exec::profile(&schema, &nb, &query).expect("runs");
            let v_nb = LpTruncation::new(&pn).value(tau);
            prop_assert!(
                (v_full - v_nb).abs() <= tau + 1e-6,
                "node {v}: |{v_full} - {v_nb}| > tau = {tau}"
            );
        }
    }

    /// Saturation: Q(I, τ*) = Q(I) with τ* = DS_Q(I), and monotonicity in τ.
    #[test]
    fn truncation_saturates_at_downward_sensitivity(g in arb_graph()) {
        let p = Pattern::Path2.profile(&g);
        let t = LpTruncation::new(&p);
        let q = p.query_result();
        let ds = p.max_sensitivity();
        prop_assert!((t.value(ds) - q).abs() < 1e-6);
        let mut prev = 0.0;
        for tau in [0.0, 1.0, 2.0, 4.0, ds] {
            let v = t.value(tau);
            prop_assert!(v + 1e-9 >= prev);
            prop_assert!(v <= q + 1e-9);
            prev = v;
        }
    }
}
