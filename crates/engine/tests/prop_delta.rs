//! Differential property tests for incremental view maintenance.
//!
//! Over random workloads (graph node-DP/edge-DP, FK-chain and predicate-heavy
//! typed schemas, with predicates, SUM weights, projections, and group-by)
//! and random chains of insert/delete batches, an [`IncrementalView`] that
//! absorbed every batch must replay a profile **bit-identical** to a
//! from-scratch executor run on the batch-applied instance. Batches include
//! empty ones, deletes of rows that never matched the join, and deletes of
//! duplicated tuples. A view bulk-loaded from an in-memory image must track
//! one built by inserting every row into empty tables, line for line.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use r2t_engine::delta::IncrementalView;
use r2t_engine::exec;
use r2t_engine::{Archive, Instance, Schema, Tuple, Value, WriteBatch};
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

/// `a` and `b` hold the same result lines in the same order — weights bit
/// for bit, private keys up to one consistent renaming (each view packs
/// value ids of its own interner, so only the keys' equality pattern is
/// comparable).
fn same_lines(a: &IncrementalView, b: &IncrementalView) -> Result<(), TestCaseError> {
    let (mut fwd, mut back): (HashMap<u64, u64>, HashMap<u64, u64>) = Default::default();
    prop_assert_eq!(a.num_records(), b.num_records());
    for ((wa, ka), (wb, kb)) in a.raw_lines().zip(b.raw_lines()) {
        prop_assert_eq!(wa.to_bits(), wb.to_bits());
        prop_assert_eq!(ka.len(), kb.len());
        for (&x, &y) in ka.iter().zip(kb) {
            prop_assert_eq!(*fwd.entry(x).or_insert(y), y);
            prop_assert_eq!(*back.entry(y).or_insert(x), x);
        }
    }
    Ok(())
}

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

    /// A view bulk-loaded from `Archive::from_instance` equals one whose
    /// rows all arrived as inserts over empty tables, in `raw_lines` and in
    /// `profile()`, before and after every batch of a mutation chain.
    #[test]
    fn image_loaded_view_equals_inserted_rows((w, steps) in (arb_workload(), arb_steps())) {
        let mut inst = w.inst.clone();
        let image = Archive::from_instance(&w.schema, &inst);
        let mut loaded = IncrementalView::from_archive(&w.schema, &image, &w.query, None)
            .expect("builds")
            .expect("plans");
        let mut inserted = IncrementalView::new(&w.schema, &Instance::new(), &w.query, None)
            .expect("builds")
            .expect("plans");
        let mut all = WriteBatch::new();
        for rel in w.schema.relations() {
            all.insert_all(&rel.name, inst.rows(&rel.name).iter().cloned());
        }
        let all = all.resolve(&w.schema, &Instance::new()).expect("inserts resolve");
        inserted.apply(all.deltas()).expect("inserts apply");
        same_lines(&loaded, &inserted)?;
        prop_assert_eq!(loaded.profile().expect("replay"), inserted.profile().expect("replay"));
        for (dels, ins) in steps {
            let batch = make_batch(&w.schema, &inst, &dels, &ins);
            let resolved = batch.resolve(&w.schema, &inst).expect("in-range deletes resolve");
            loaded.apply(resolved.deltas()).expect("delta applies");
            inserted.apply(resolved.deltas()).expect("delta applies");
            same_lines(&loaded, &inserted)?;
            prop_assert_eq!(loaded.profile().expect("replay"), inserted.profile().expect("replay"));
            inst = resolved.apply_to(&inst);
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
