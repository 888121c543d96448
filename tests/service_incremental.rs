//! Integration tests for the typed mutation path: `WriteBatch` →
//! `PrivateDatabase::apply` → prepared-query revalidation.
//!
//! The contract under test, end to end: a database that absorbed a delta
//! answers **bitwise** like a twin database built directly from the mutated
//! instance (exact results, prepared scalar answers, grouped answers —
//! through both the branch-patcher fast path and the full-recompute
//! fallback); sessions pinned to an older snapshot are untouched by
//! concurrent writes; rejected batches leave no trace; and the one
//! [`SessionOptions`] entry point enforces its database/tier split.

use proptest::prelude::*;
use r2t::core::R2TConfig;
use r2t::engine::{EngineError, Instance, Value, WriteBatch};
use r2t::system::{Error, PrivateDatabase, ServiceTier, SessionOptions};
use std::collections::HashSet;

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
const ITEMS_SQL: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";
/// Float weights (`extendedprice` is non-integral), so the integer-exact
/// branch patcher refuses to arm and revalidation takes the full
/// profile-plus-sweep fallback. Both paths must meet the same bit-identity
/// bar.
const REVENUE_SQL: &str = "SELECT SUM(lineitem.extendedprice) FROM orders, lineitem \
                           WHERE lineitem.l_ok = orders.ok";

/// TPC-H Q5's join shape: customer and supplier share a nation, which
/// closes a cycle, so the statement runs on the WCOJ executor and has no
/// incremental view.
const CYCLIC_SQL: &str = "SELECT COUNT(*) FROM customer, orders, lineitem, supplier \
                          WHERE orders.o_ck = customer.ck AND lineitem.l_ok = orders.ok \
                          AND lineitem.l_sk = supplier.sk AND customer.c_nk = supplier.s_nk";

/// A duplicate-removing projection: the projected LP, outside the
/// patcher's regime, so revalidation replays the view and re-sweeps.
const DISTINCT_SQL: &str = "SELECT DISTINCT customer.ck FROM customer, orders, lineitem \
                            WHERE orders.o_ck = customer.ck AND lineitem.l_ok = orders.ok";

/// Fresh primary keys far above anything the generator assigns.
const KEY_BASE: i64 = 1 << 40;

fn base_instance() -> Instance {
    r2t::tpch::generate(0.08, 0.3, 3)
}

fn db_on(inst: Instance) -> PrivateDatabase {
    PrivateDatabase::new(r2t::tpch::tpch_schema(&["customer"]), inst).expect("valid instance")
}

/// Deterministic race mode: prepared answers are bit-identical replays, so
/// two databases in the same logical state must agree on every bit.
fn seq_cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(false).parallel(false).build()
}

fn opts(seed: u64) -> SessionOptions {
    SessionOptions::new().total_epsilon(1e6).base(seq_cfg()).seed(seed)
}

/// An FK-valid growth batch: `n_orders` new orders for existing customers,
/// each with one lineitem, plus `n_dels` deletions of existing (distinct)
/// lineitem rows.
fn delta_batch(base: &Instance, n_orders: usize, n_dels: usize, key_base: i64) -> WriteBatch {
    let customers = base.rows("customer");
    let part = base.rows("part")[0][0].clone();
    let supplier = base.rows("supplier")[0][0].clone();
    let mut batch = WriteBatch::new();
    for i in 0..n_orders {
        let ok = key_base + i as i64;
        batch.insert(
            "orders",
            vec![Value::Int(ok), customers[i % customers.len()][0].clone(), Value::Int(7)],
        );
        batch.insert(
            "lineitem",
            vec![
                Value::Int(ok),
                part.clone(),
                supplier.clone(),
                Value::Int(1 + i as i64 % 5),
                Value::Float(17.25),
                Value::Float(0.05),
                Value::Int(30),
                Value::Int(60),
                Value::Int(45),
                Value::str("AIR"),
                Value::str("N"),
            ],
        );
    }
    // Deleting a row twice would over-claim its multiplicity, so dedupe.
    let mut seen = HashSet::new();
    let dels = base.rows("lineitem").iter().filter(|t| seen.insert(*t)).take(n_dels).cloned();
    batch.delete_all("lineitem", dels);
    batch
}

/// Applies `batch` to a live database and asserts it answers bitwise like a
/// twin built from scratch on the mutated instance, for every entry point:
/// exact, prepared scalar (patcher fast path on COUNT, fallback on float
/// SUM), and grouped.
fn assert_apply_equals_twin(base: &Instance, batch: WriteBatch, seed: u64) {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let next = batch.clone().resolve(&schema, base).expect("resolve").apply_to(base);

    let db = db_on(base.clone());
    let warm = db.session(opts(3)).expect("session opens");
    for sql in [ORDERS_SQL, ITEMS_SQL, REVENUE_SQL] {
        warm.prepare(sql).expect("prepare"); // entries `apply` must revalidate
    }
    db.apply(batch).expect("apply");
    let twin = db_on(next);

    let grouped = format!("{ORDERS_SQL} GROUP BY customer.mktsegment");
    for sql in [ORDERS_SQL, ITEMS_SQL, REVENUE_SQL] {
        let exact = db.query_exact(sql).expect("exact");
        let twin_exact = twin.query_exact(sql).expect("twin exact");
        assert_eq!(exact.to_bits(), twin_exact.to_bits(), "exact diverged on {sql}");
        let a = db.session(opts(seed)).unwrap().answer(sql, 0.5).expect("patched answer");
        let b = twin.session(opts(seed)).unwrap().answer(sql, 0.5).expect("twin answer");
        assert_eq!(
            a.noisy.to_bits(),
            b.noisy.to_bits(),
            "patched database diverged from twin on {sql}: {} vs {}",
            a.noisy,
            b.noisy
        );
    }
    let sa = db.session(opts(seed)).unwrap();
    let sb = twin.session(opts(seed)).unwrap();
    let ga = sa.prepare(&grouped).unwrap().answer_grouped(1.0).expect("grouped answer");
    let gb = sb.prepare(&grouped).unwrap().answer_grouped(1.0).expect("twin grouped");
    assert_eq!(ga.groups.len(), gb.groups.len());
    for (x, y) in ga.groups.iter().zip(&gb.groups) {
        assert_eq!(x.0, y.0, "group keys diverged");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "grouped answer diverged on key {:?}", x.0);
    }
}

#[test]
fn applied_delta_answers_bitwise_like_fresh_database() {
    let base = base_instance();
    assert_apply_equals_twin(&base, delta_batch(&base, 6, 3, KEY_BASE), 41);
}

#[test]
fn insert_only_and_delete_only_batches_match_fresh_database() {
    let base = base_instance();
    assert_apply_equals_twin(&base, delta_batch(&base, 5, 0, KEY_BASE), 42);
    assert_apply_equals_twin(&base, delta_batch(&base, 0, 4, KEY_BASE), 43);
}

#[test]
fn chained_applies_match_fresh_database() {
    // Two successive deltas through the same live database: the second
    // revalidation starts from already-patched entries.
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let base = base_instance();
    let db = db_on(base.clone());
    db.session(opts(5)).unwrap().prepare(ITEMS_SQL).expect("prepare");

    let first = delta_batch(&base, 4, 2, KEY_BASE);
    let mid = first.clone().resolve(&schema, &base).expect("resolve").apply_to(&base);
    db.apply(first).expect("first apply");
    let second = delta_batch(&mid, 3, 0, KEY_BASE + 100);
    let last = second.clone().resolve(&schema, &mid).expect("resolve").apply_to(&mid);
    db.apply(second).expect("second apply");

    let twin = db_on(last);
    let a = db.session(opts(9)).unwrap().answer(ITEMS_SQL, 0.5).unwrap();
    let b = twin.session(opts(9)).unwrap().answer(ITEMS_SQL, 0.5).unwrap();
    assert_eq!(a.noisy.to_bits(), b.noisy.to_bits());
}

#[test]
fn pinned_session_replays_bitwise_across_concurrent_apply() {
    let base = base_instance();
    let db = db_on(base.clone());
    let twin = db_on(base.clone());

    let pinned = db.session(opts(11)).expect("session opens");
    let prepared = pinned.prepare(ORDERS_SQL).expect("prepare");
    let before = prepared.answer(0.5).expect("answer before apply");

    let v0 = db.snapshot().version();
    db.apply(delta_batch(&base, 8, 4, KEY_BASE)).expect("apply");
    assert_eq!(db.snapshot().version(), v0 + 1);
    // The pinned session still serves the snapshot it opened on.
    assert_eq!(pinned.snapshot().version(), v0);

    // Its answers — the already-prepared statement and a fresh prepare —
    // replay bitwise against a twin that never saw the write.
    let after = prepared.answer(0.5).expect("answer after apply");
    let items = pinned.answer(ITEMS_SQL, 0.5).expect("fresh prepare on pinned snapshot");
    let t = twin.session(opts(11)).expect("session opens");
    let t1 = t.prepare(ORDERS_SQL).unwrap().answer(0.5).unwrap();
    let t2 = t.prepare(ORDERS_SQL).unwrap().answer(0.5).unwrap();
    let t3 = t.answer(ITEMS_SQL, 0.5).unwrap();
    assert_eq!(before.noisy.to_bits(), t1.noisy.to_bits());
    assert_eq!(after.noisy.to_bits(), t2.noisy.to_bits());
    assert_eq!(items.noisy.to_bits(), t3.noisy.to_bits());

    // New sessions see the write.
    let fresh = db.session(opts(11)).expect("session opens");
    assert_eq!(fresh.snapshot().version(), v0 + 1);
    assert!(
        db.query_exact(ORDERS_SQL).unwrap() > twin.query_exact(ORDERS_SQL).unwrap(),
        "the applied batch grows the orders join"
    );
}

#[test]
fn untouched_entries_are_shared_into_the_new_snapshot() {
    let base = base_instance();
    let db = db_on(base.clone());
    let warm = db.session(opts(13)).expect("session opens");
    warm.prepare(ORDERS_SQL).expect("prepare");
    warm.prepare(ITEMS_SQL).expect("prepare");
    assert_eq!(db.snapshot().cached_statements(), 2);

    // A lineitem-only batch: ITEMS changes, ORDERS does not.
    let order = base.rows("orders")[0][0].clone();
    let part = base.rows("part")[0][0].clone();
    let supplier = base.rows("supplier")[0][0].clone();
    let mut batch = WriteBatch::new();
    batch.insert(
        "lineitem",
        vec![
            order,
            part,
            supplier,
            Value::Int(2),
            Value::Float(17.25),
            Value::Float(0.05),
            Value::Int(30),
            Value::Int(60),
            Value::Int(45),
            Value::str("AIR"),
            Value::str("N"),
        ],
    );
    let next = batch
        .clone()
        .resolve(&r2t::tpch::tpch_schema(&["customer"]), &base)
        .expect("resolve")
        .apply_to(&base);
    db.apply(batch).expect("apply");

    // Both prepared entries survive revalidation into the new snapshot.
    assert_eq!(db.snapshot().cached_statements(), 2);

    // The untouched entry still answers bitwise like the pre-write state;
    // the touched one answers like the post-write state.
    let before = db_on(base.clone());
    let after = db_on(next);
    let s = db.session(opts(29)).unwrap();
    let a = s.answer(ORDERS_SQL, 0.5).unwrap();
    let b = before.session(opts(29)).unwrap().answer(ORDERS_SQL, 0.5).unwrap();
    assert_eq!(a.noisy.to_bits(), b.noisy.to_bits(), "untouched entry drifted");
    let c = db.session(opts(29)).unwrap().answer(ITEMS_SQL, 0.5).unwrap();
    let d = after.session(opts(29)).unwrap().answer(ITEMS_SQL, 0.5).unwrap();
    assert_eq!(c.noisy.to_bits(), d.noisy.to_bits(), "touched entry missed the write");
}

#[test]
fn touched_entries_without_a_view_are_dropped_and_rebuilt_on_demand() {
    let base = base_instance();
    let batch = delta_batch(&base, 6, 3, KEY_BASE);
    let next = batch
        .clone()
        .resolve(&r2t::tpch::tpch_schema(&["customer"]), &base)
        .expect("resolve")
        .apply_to(&base);
    let db = db_on(base);
    let warm = db.session(opts(19)).expect("session opens");
    warm.prepare(CYCLIC_SQL).expect("prepare");
    warm.prepare(ORDERS_SQL).expect("prepare");
    assert_eq!(db.snapshot().cached_statements(), 2);

    db.apply(batch).expect("apply");

    // The write touches both statements: the acyclic one is patched through
    // its view, the cyclic one has none and leaves the cache.
    assert_eq!(db.snapshot().cached_statements(), 1);
    let s = db.session(opts(37)).unwrap();
    s.answer(ORDERS_SQL, 0.5).expect("patched answer");
    assert_eq!(db.snapshot().cached_statements(), 1, "the surviving entry is the acyclic one");

    // The next answer rebuilds the cyclic entry on the new data, bit for bit
    // what a twin built from the mutated rows answers.
    let twin = db_on(next);
    let a = s.answer(CYCLIC_SQL, 0.5).expect("rebuilt answer");
    let b = twin.session(opts(37)).unwrap().answer(CYCLIC_SQL, 0.5).expect("twin answer");
    assert_eq!(db.snapshot().cached_statements(), 2);
    assert_eq!(
        a.noisy.to_bits(),
        b.noisy.to_bits(),
        "rebuilt cyclic entry diverged from twin: {} vs {}",
        a.noisy,
        b.noisy
    );
    assert_eq!(
        db.query_exact(CYCLIC_SQL).unwrap().to_bits(),
        twin.query_exact(CYCLIC_SQL).unwrap().to_bits()
    );
}

/// A batch touching only `partsupp`, which no statement here reads (no
/// foreign key leads to it, so no completion adds it).
fn partsupp_only_batch(rows: &Instance) -> WriteBatch {
    let part = rows.rows("part")[0][0].clone();
    let supplier = rows.rows("supplier")[0][0].clone();
    let mut batch = WriteBatch::new();
    batch.insert("partsupp", vec![part, supplier, Value::Int(5), Value::Float(1.5)]);
    batch
}

/// Prepares a COUNT the patcher carries, a float SUM, a `SELECT DISTINCT`
/// projection, a `GROUP BY` and a cyclic statement at version 0 — so no
/// entry has a view — then applies `writes` in order (each built against
/// the rows before it). After every write each statement answers bitwise
/// like a twin database built from the mutated rows. `first_touching` is
/// the index of the first write touching the statements: it drops the
/// cyclic entry and builds a view for each of the four others.
fn assert_lazy_views_match_twins(writes: &[fn(&Instance) -> WriteBatch], first_touching: usize) {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let grouped = format!("{ORDERS_SQL} GROUP BY customer.mktsegment");
    let scalar = [ORDERS_SQL, REVENUE_SQL, DISTINCT_SQL, CYCLIC_SQL];
    let mut rows = base_instance();
    let db = db_on(rows.clone());
    let warm = db.session(opts(23)).expect("session opens");
    for sql in scalar.iter().copied().chain([grouped.as_str()]) {
        warm.prepare(sql).expect("prepare");
    }
    for (step, write) in writes.iter().enumerate() {
        let batch = write(&rows);
        rows = batch.clone().resolve(&schema, &rows).expect("resolve").apply_to(&rows);
        db.apply(batch).expect("apply");
        let cached = if step < first_touching { 5 } else { 4 };
        assert_eq!(db.snapshot().cached_statements(), cached, "after write {step}");

        let twin = db_on(rows.clone());
        let seed = 100 + step as u64;
        let (sa, sb) = (db.session(opts(seed)).unwrap(), twin.session(opts(seed)).unwrap());
        for sql in scalar {
            // The cached lineage shape, exact result included: a noisy
            // answer alone can hide a wrong profile behind a truncated
            // winning branch.
            let (pa, pb) = (sa.prepare(sql).unwrap(), sb.prepare(sql).unwrap());
            assert_eq!(pa.summary(), pb.summary(), "write {step} diverged on {sql}");
            let a = pa.answer(0.5).expect("answer");
            let b = pb.answer(0.5).expect("twin answer");
            assert_eq!(a.noisy.to_bits(), b.noisy.to_bits(), "write {step} diverged on {sql}");
        }
        let ga = sa.prepare(&grouped).unwrap().answer_grouped(1.0).expect("grouped answer");
        let gb = sb.prepare(&grouped).unwrap().answer_grouped(1.0).expect("twin grouped");
        assert_eq!(ga.groups.len(), gb.groups.len());
        for (x, y) in ga.groups.iter().zip(&gb.groups) {
            assert_eq!(x.0, y.0, "group keys diverged after write {step}");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "write {step} diverged on key {:?}", x.0);
        }
    }
}

#[test]
fn lazily_built_views_answer_bitwise_like_fresh_databases() {
    let untouched: fn(&Instance) -> WriteBatch = partsupp_only_batch;
    let inserts: fn(&Instance) -> WriteBatch = |rows| delta_batch(rows, 5, 0, KEY_BASE);
    let deletes: fn(&Instance) -> WriteBatch = |rows| delta_batch(rows, 2, 3, KEY_BASE + 100);
    // Views built by an insert-only write, then patched by deletes.
    assert_lazy_views_match_twins(&[untouched, inserts, deletes], 1);
    // Views built by a delete-bearing write: its delete ranks address the
    // rows of the image the entries were prepared on.
    assert_lazy_views_match_twins(&[untouched, deletes, inserts], 1);
}

#[test]
fn empty_batch_bumps_version_and_keeps_entries() {
    let base = base_instance();
    let db = db_on(base);
    db.session(opts(17)).unwrap().prepare(ORDERS_SQL).expect("prepare");
    let v0 = db.snapshot().version();
    let exact = db.query_exact(ORDERS_SQL).unwrap();

    db.apply(WriteBatch::new()).expect("empty apply");
    assert_eq!(db.snapshot().version(), v0 + 1);
    assert_eq!(db.snapshot().cached_statements(), 1);
    assert_eq!(db.query_exact(ORDERS_SQL).unwrap().to_bits(), exact.to_bits());
}

#[test]
fn rejected_batches_leave_the_database_untouched() {
    let base = base_instance();
    let db = db_on(base.clone());
    db.session(opts(19)).unwrap().prepare(ORDERS_SQL).expect("prepare");
    let v0 = db.snapshot().version();
    let exact = db.query_exact(ORDERS_SQL).unwrap();

    // Unknown relation.
    let mut bad = WriteBatch::new();
    bad.insert("nosuch", vec![Value::Int(1)]);
    let err = db.apply(bad).unwrap_err();
    assert!(matches!(err, Error::Mutation(EngineError::UnknownRelation(ref r)) if r == "nosuch"));

    // Arity mismatch.
    let mut bad = WriteBatch::new();
    bad.insert("orders", vec![Value::Int(KEY_BASE)]);
    assert!(matches!(
        db.apply(bad).unwrap_err(),
        Error::Mutation(EngineError::ArityMismatch { expected: 3, got: 1, .. })
    ));

    // Delete of a row that does not exist.
    let mut bad = WriteBatch::new();
    bad.delete("orders", vec![Value::Int(KEY_BASE), Value::Int(0), Value::Int(0)]);
    assert!(matches!(
        db.apply(bad).unwrap_err(),
        Error::Mutation(EngineError::MissingDeleteTarget { .. })
    ));

    // Duplicate primary key: re-insert an existing order.
    let mut bad = WriteBatch::new();
    bad.insert("orders", base.rows("orders")[0].clone());
    assert!(matches!(
        db.apply(bad).unwrap_err(),
        Error::Mutation(EngineError::DuplicateKey { .. })
    ));

    // Broken foreign key: an order for a customer that does not exist.
    let mut bad = WriteBatch::new();
    bad.insert("orders", vec![Value::Int(KEY_BASE), Value::Int(KEY_BASE + 1), Value::Int(7)]);
    assert!(matches!(
        db.apply(bad).unwrap_err(),
        Error::Mutation(EngineError::BrokenForeignKey { .. })
    ));

    // Nothing moved: same version, same cache, same bits.
    assert_eq!(db.snapshot().version(), v0);
    assert_eq!(db.snapshot().cached_statements(), 1);
    assert_eq!(db.query_exact(ORDERS_SQL).unwrap().to_bits(), exact.to_bits());
}

#[test]
fn session_options_enforce_the_database_tier_split() {
    let db = db_on(base_instance());

    // The bare database refuses tenant sessions and demands a budget.
    assert!(matches!(
        db.session(SessionOptions::new().tenant("acme").seed(1)),
        Err(Error::Admission(_))
    ));
    assert!(matches!(
        db.session(SessionOptions::new().base(seq_cfg()).seed(1)),
        Err(Error::Admission(_))
    ));
    assert!(matches!(
        db.session(SessionOptions::new().total_epsilon(f64::NAN).base(seq_cfg())),
        Err(Error::Admission(_))
    ));
    assert!(matches!(
        db.session(SessionOptions::new().total_epsilon(1.0).seed(1)),
        Err(Error::Admission(_))
    ));

    // The tier refuses a private budget and demands a tenant.
    let tier = ServiceTier::new(db, seq_cfg());
    tier.register_tenant("acme", 4.0).expect("register");
    assert!(matches!(
        tier.session(SessionOptions::new().total_epsilon(1.0).tenant("acme")),
        Err(Error::Admission(_))
    ));
    assert!(matches!(tier.session(SessionOptions::new().seed(2)), Err(Error::Admission(_))));
    assert!(tier.session(SessionOptions::new().tenant("acme").seed(2)).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Service-level differential property: over random small deltas, a
    /// database that absorbed the batch answers bitwise like a twin built
    /// from the mutated instance — across the patcher fast path (COUNT),
    /// the full fallback (float SUM), and group-by.
    #[test]
    fn random_deltas_match_fresh_database(
        n_orders in 0usize..6,
        n_dels in 0usize..5,
        seed in 0u64..1000,
    ) {
        let base = base_instance();
        assert_apply_equals_twin(&base, delta_batch(&base, n_orders, n_dels, KEY_BASE), seed);
    }
}
