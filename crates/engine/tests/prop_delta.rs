//! Differential property tests for incremental view maintenance.
//!
//! Over random workloads (graph node-DP/edge-DP, FK-chain and predicate-heavy
//! typed schemas, with predicates, SUM weights, projections, and group-by)
//! and random chains of insert/delete batches, an [`IncrementalView`] that
//! absorbed every batch must replay a profile **bit-identical** to a
//! from-scratch executor run on the batch-applied instance. Batches include
//! empty ones, deletes of rows that never matched the join, and deletes of
//! duplicated tuples.

use proptest::prelude::*;
use r2t_engine::delta::IncrementalView;
use r2t_engine::exec;
use r2t_engine::{Instance, Schema, Tuple, Value, WriteBatch};
use std::collections::HashMap;

#[allow(dead_code)] // shared with the other differential suites
mod prop_common;
use prop_common::arb_workload;

/// Builds a schema-valid (arity-wise) batch from raw proptest entropy:
/// `dels` pick existing rows to delete (skipping over-claimed duplicates so
/// resolution always succeeds), `ins` chunks become small-domain tuples.
fn make_batch(schema: &Schema, inst: &Instance, dels: &[u16], ins: &[i64]) -> WriteBatch {
    let rels = schema.relations();
    let mut batch = WriteBatch::new();
    let mut remaining: Vec<HashMap<&Tuple, usize>> = rels
        .iter()
        .map(|r| {
            let mut m: HashMap<&Tuple, usize> = HashMap::new();
            for t in inst.rows(&r.name) {
                *m.entry(t).or_insert(0) += 1;
            }
            m
        })
        .collect();
    for (i, &d) in dels.iter().enumerate() {
        let ri = (i + d as usize) % rels.len();
        let rows = inst.rows(&rels[ri].name);
        if rows.is_empty() {
            continue;
        }
        let t = &rows[d as usize % rows.len()];
        let left = remaining[ri].get_mut(t).expect("row counted");
        if *left == 0 {
            continue;
        }
        *left -= 1;
        batch.delete(&rels[ri].name, t.clone());
    }
    for (i, chunk) in ins.chunks(3).enumerate() {
        let rel = &rels[i % rels.len()];
        if chunk.len() < rel.arity() {
            continue;
        }
        let t: Tuple = (0..rel.arity()).map(|c| Value::Int(chunk[c].rem_euclid(8))).collect();
        batch.insert(&rel.name, t);
    }
    batch
}

type Step = (Vec<u16>, Vec<i64>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (prop::collection::vec(any::<u16>(), 0..6), prop::collection::vec(0..64i64, 0..12)),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat profiles: after every batch in a random mutation chain, the
    /// patched view replays bit-identically to a from-scratch rebuild.
    #[test]
    fn patched_profile_equals_rebuild((w, steps) in (arb_workload(), arb_steps())) {
        let mut inst = w.inst.clone();
        let mut view = IncrementalView::new(&w.schema, &inst, &w.query, None)
            .expect("acyclic workloads build")
            .expect("acyclic workloads have an incremental plan");
        for (dels, ins) in steps {
            let batch = make_batch(&w.schema, &inst, &dels, &ins);
            let resolved = batch.resolve(&w.schema, &inst).expect("in-range deletes resolve");
            let next = resolved.apply_to(&inst);
            view.apply(resolved.deltas()).expect("delta applies");
            let patched = view.profile().expect("replay");
            let rebuilt = exec::profile(&w.schema, &next, &w.query).expect("rebuild");
            prop_assert_eq!(&patched, &rebuilt);
            inst = next;
        }
    }

    /// Grouped profiles: same bit-identity bar, per group key.
    #[test]
    fn patched_grouped_profile_equals_rebuild((w, steps) in (arb_workload(), arb_steps())) {
        prop_assume!(!w.group_vars.is_empty());
        let mut inst = w.inst.clone();
        let mut view = IncrementalView::new(&w.schema, &inst, &w.query, Some(&w.group_vars))
            .expect("acyclic workloads build")
            .expect("acyclic workloads have an incremental plan");
        for (dels, ins) in steps {
            let batch = make_batch(&w.schema, &inst, &dels, &ins);
            let resolved = batch.resolve(&w.schema, &inst).expect("in-range deletes resolve");
            let next = resolved.apply_to(&inst);
            view.apply(resolved.deltas()).expect("delta applies");
            let patched = view.profile_grouped().expect("replay");
            let rebuilt =
                exec::profile_grouped(&w.schema, &next, &w.query, &w.group_vars).expect("rebuild");
            prop_assert_eq!(&patched, &rebuilt);
            inst = next;
        }
    }

    /// An empty batch leaves both the instance and the replayed profile
    /// untouched — and still round-trips through resolve/apply.
    #[test]
    fn empty_batch_is_identity(w in arb_workload()) {
        let mut view = IncrementalView::new(&w.schema, &w.inst, &w.query, None)
            .expect("builds")
            .expect("plans");
        let before = view.profile().expect("replay");
        let resolved = WriteBatch::new().resolve(&w.schema, &w.inst).expect("resolves");
        prop_assert!(resolved.touched().is_empty());
        let next = resolved.apply_to(&w.inst);
        view.apply(resolved.deltas()).expect("applies");
        prop_assert_eq!(&view.profile().expect("replay"), &before);
        prop_assert_eq!(next.total_tuples(), w.inst.total_tuples());
    }
}
