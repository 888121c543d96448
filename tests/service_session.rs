//! Integration tests for the session-based serving layer: prepared-query
//! caching, budget enforcement under concurrency, and the determinism
//! contract (prepared ≡ cold, worker-count independence, refusal draws no
//! noise).

use r2t::core::groupby::GroupByR2T;
use r2t::core::{R2TConfig, R2T};
use r2t::engine::{exec, Tuple};
use r2t::service::{substream_rng, QuerySpec, Session};
use r2t::sql::parse_statement;
use r2t::system::{PrivateDatabase, ServiceTier, SessionOptions};

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
const ITEMS_SQL: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";

fn db() -> PrivateDatabase {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    PrivateDatabase::new(schema, r2t::tpch::generate(0.08, 0.3, 3)).expect("valid instance")
}

/// The fully deterministic execution mode: sequential, no early stop. In
/// this mode a prepared answer is bit-identical to a cold run of the raw
/// pipeline on the same noise substream.
fn seq_cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(false).parallel(false).build()
}

/// Opens a session through the one [`SessionOptions`] entry point.
fn open(db: &PrivateDatabase, total_epsilon: f64, seed: u64) -> Session<'_> {
    db.session(SessionOptions::new().total_epsilon(total_epsilon).base(seq_cfg()).seed(seed))
        .expect("session opens")
}

/// Cold oracle: parse → profile → LP race assembled from the public layers
/// directly (the same instance `db()` wraps, regenerated — the generator is
/// deterministic), with no serving-layer involvement.
fn cold_scalar(sql: &str, eps: f64, seed: u64) -> f64 {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let inst = r2t::tpch::generate(0.08, 0.3, 3);
    let lowered = parse_statement(sql, &schema).expect("parse");
    let profile = exec::profile(&schema, &inst, &lowered.query).expect("profile");
    R2T::new(seq_cfg().with_epsilon(eps)).run_profile(&profile, &mut substream_rng(seed, 0)).output
}

/// Grouped counterpart of [`cold_scalar`]: the per-group R2T race under a
/// total budget of `eps`.
fn cold_grouped(sql: &str, eps: f64, seed: u64) -> Vec<(Tuple, f64)> {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let inst = r2t::tpch::generate(0.08, 0.3, 3);
    let lowered = parse_statement(sql, &schema).expect("parse");
    let groups = exec::profile_grouped(&schema, &inst, &lowered.query, &lowered.group_by)
        .expect("grouped profile");
    GroupByR2T::new(seq_cfg().with_epsilon(eps))
        .run(&groups, &mut substream_rng(seed, 0))
        .into_iter()
        .map(|g| (g.key, g.answer))
        .collect()
}

#[test]
fn prepared_answer_is_bit_identical_to_cold_query() {
    let db = db();
    let seed = 42;
    let eps = 0.5;
    let session = open(&db, 2.0, seed);
    let prepared = session.prepare(ORDERS_SQL).expect("prepare");
    let warm = prepared.answer(eps).expect("prepared answer");

    // Cold path: parse + profile + full LP race, same config, same substream
    // (the session's first charge has substream index 0).
    let cold = cold_scalar(ORDERS_SQL, eps, seed);
    assert_eq!(warm.noisy.to_bits(), cold.to_bits(), "{} vs {cold}", warm.noisy);

    // Receipt accounting.
    assert_eq!(warm.receipt.substream, 0);
    assert_eq!(warm.receipt.query, session.prepare(ORDERS_SQL).unwrap().sql());
    assert!((warm.receipt.spent - eps).abs() < 1e-12);
    assert!((warm.receipt.remaining - 1.5).abs() < 1e-12);
    assert_eq!(warm.receipt.race.branches, 12); // log2(4096)
}

#[test]
fn grouped_prepared_answer_matches_cold_query_grouped() {
    let db = db();
    let seed = 7;
    let eps = 1.0;
    let sql = format!("{ORDERS_SQL} GROUP BY customer.mktsegment");
    let session = open(&db, 2.0, seed);
    let prepared = session.prepare(&sql).expect("prepare");
    assert!(prepared.is_grouped());
    assert!(prepared.summary().is_none());
    let warm = prepared.answer_grouped(eps).expect("grouped answer");

    let cold = cold_grouped(&sql, eps, seed);
    assert_eq!(warm.groups.len(), 5);
    assert_eq!(cold.len(), 5);
    for ((wk, wv), (ck, cv)) in warm.groups.iter().zip(&cold) {
        assert_eq!(wk, ck);
        assert_eq!(wv.to_bits(), cv.to_bits(), "group {wk:?}: {wv} vs {cv}");
    }
}

#[test]
fn answer_all_is_independent_of_worker_count() {
    let specs: Vec<QuerySpec> = vec![
        QuerySpec::new(ORDERS_SQL, 0.25),
        QuerySpec::new(ITEMS_SQL, 0.25),
        QuerySpec::new(ORDERS_SQL, 0.125), // same text, different charge
        QuerySpec::new(ITEMS_SQL, 0.125),
    ];
    let db = db();
    let mut outputs: Vec<Vec<u64>> = Vec::new();
    for workers in [1, 2, 8] {
        let session = open(&db, 1.0, 99);
        let answers = session.answer_all_with(&specs, workers).expect("batch");
        assert_eq!(answers.len(), specs.len());
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.receipt.substream, i as u64, "batch indices are positional");
        }
        outputs.push(answers.iter().map(|a| a.noisy.to_bits()).collect());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");

    // The batch is also bit-identical to answering one by one in order.
    let session = open(&db, 1.0, 99);
    let sequential: Vec<u64> = specs
        .iter()
        .map(|s| session.answer(&s.sql, s.epsilon).expect("answer").noisy.to_bits())
        .collect();
    assert_eq!(outputs[0], sequential, "batch vs one-by-one");
}

#[test]
fn over_budget_batch_is_refused_atomically() {
    let db = db();
    let session = open(&db, 1.0, 5);
    session.answer(ORDERS_SQL, 0.5).expect("fits");
    let spent_before = session.spent();
    let charges_before = session.num_charges();

    // First two entries alone would fit; the batch does not.
    let specs = vec![
        QuerySpec::new(ORDERS_SQL, 0.2),
        QuerySpec::new(ITEMS_SQL, 0.2),
        QuerySpec::new(ORDERS_SQL, 0.2),
    ];
    let err = session.answer_all(&specs).expect_err("over budget");
    assert!(matches!(err, r2t::Error::Budget(_)), "{err}");
    assert_eq!(session.spent(), spent_before, "refused batch must not spend");
    assert_eq!(session.num_charges(), charges_before, "refused batch must not claim substreams");

    // The budget is still fully usable afterwards.
    let ok = session.answer_all(&specs[..2]).expect("fits now");
    assert_eq!(ok.len(), 2);
}

#[test]
fn refused_charge_draws_no_noise() {
    let db = db();
    // Session A: one answer, then a refused charge, then another answer.
    let a = open(&db, 1.0, 13);
    let a1 = a.answer(ORDERS_SQL, 0.5).expect("first");
    assert!(matches!(a.answer(ITEMS_SQL, 0.75), Err(r2t::Error::Budget(_))));
    let a2 = a.answer(ITEMS_SQL, 0.5).expect("second");

    // Session B: the same two successful charges, no refusal in between.
    let b = open(&db, 1.0, 13);
    let b1 = b.answer(ORDERS_SQL, 0.5).expect("first");
    let b2 = b.answer(ITEMS_SQL, 0.5).expect("second");

    // If the refused charge had consumed a substream (or any randomness),
    // a2 and b2 would diverge.
    assert_eq!(a1.noisy.to_bits(), b1.noisy.to_bits());
    assert_eq!(a2.noisy.to_bits(), b2.noisy.to_bits());
    assert_eq!(a2.receipt.substream, 1);
}

#[test]
fn concurrent_answers_charge_exactly() {
    let db = db();
    // Budget fits exactly 8 charges of 1/8 (both powers of two: float-exact).
    let session = open(&db, 1.0, 21);
    let prepared = session.prepare(ORDERS_SQL).expect("prepare");
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..16).map(|_| scope.spawn(|| prepared.answer(0.125).is_ok())).collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    let successes = outcomes.iter().filter(|&&ok| ok).count();
    assert_eq!(successes, 8, "exactly the budget's worth of answers");
    assert_eq!(session.spent(), 1.0, "charges sum exactly");
    assert_eq!(session.remaining(), 0.0);
    assert_eq!(session.num_charges(), 8);
}

#[test]
fn cache_is_keyed_by_normalized_text() {
    let db = db();
    let session = open(&db, 1.0, 1);
    let p1 = session.prepare(ORDERS_SQL).expect("prepare");
    let p2 = session
        .prepare("select  count( * )\n from customer,orders where orders.o_ck=customer.ck")
        .expect("prepare variant");
    assert_eq!(session.cached_queries(), 1, "one cache entry for both spellings");
    assert_eq!(p1.sql(), p2.sql());
    let s = p1.summary().expect("scalar summary");
    assert!(!s.is_projection);
    assert!(s.results > 0);

    session.prepare(ITEMS_SQL).expect("prepare second query");
    assert_eq!(session.cached_queries(), 2);
}

#[test]
fn per_answer_epsilon_is_validated() {
    let db = db();
    let session = open(&db, 1.0, 1);
    let prepared = session.prepare(ORDERS_SQL).expect("prepare");
    assert!(matches!(prepared.answer(0.0), Err(r2t::Error::Unsupported(_))));
    assert!(matches!(prepared.answer(-1.0), Err(r2t::Error::Unsupported(_))));
    assert!(matches!(prepared.answer(f64::INFINITY), Err(r2t::Error::Unsupported(_))));
    assert_eq!(session.num_charges(), 0, "invalid epsilon never reaches the budget cell");
}

#[test]
fn grouped_statements_are_fenced_from_scalar_entry_points() {
    let db = db();
    let session = open(&db, 2.0, 3);
    let grouped_sql = format!("{ORDERS_SQL} GROUP BY customer.mktsegment");
    let g = session.prepare(&grouped_sql).expect("prepare grouped");
    assert!(matches!(g.answer(0.5), Err(r2t::Error::Unsupported(_))));
    let scalar = session.prepare(ORDERS_SQL).expect("prepare scalar");
    assert!(matches!(scalar.answer_grouped(0.5), Err(r2t::Error::Unsupported(_))));
    let specs = vec![QuerySpec::new(grouped_sql, 0.5)];
    assert!(matches!(session.answer_all(&specs), Err(r2t::Error::Unsupported(_))));
    assert_eq!(session.num_charges(), 0);
}

#[test]
fn distinct_substreams_give_distinct_noise() {
    let db = db();
    // Large per-answer ε so the race is won by a noisy branch, not the
    // noise-free floor Q(I, 0) — this is a determinism test, not a DP one.
    let session = open(&db, 1000.0, 77);
    let prepared = session.prepare(ORDERS_SQL).expect("prepare");
    let a = prepared.answer(400.0).expect("a");
    let b = prepared.answer(400.0).expect("b");
    assert_eq!(a.receipt.substream, 0);
    assert_eq!(b.receipt.substream, 1);
    assert_ne!(a.noisy.to_bits(), b.noisy.to_bits(), "fresh noise per charge");
}

#[test]
fn empty_batch_is_free_even_on_a_zero_budget() {
    let db = db();
    let session = open(&db, 0.0, 1);
    let answers = session.answer_all(&[]).expect("an empty batch fits any budget");
    assert!(answers.is_empty());
    assert_eq!(session.spent(), 0.0);
    assert_eq!(session.num_charges(), 0);
}

#[test]
fn sessions_bound_gs_so_the_tau_grid_fits_u64() {
    let db = db();
    let with_gs =
        |gs: f64| SessionOptions::new().total_epsilon(1.0).base(R2TConfig::new(0.8, 0.1, gs));
    // 2^63 is the largest τ a u64 holds: accepted, and its 63-branch race
    // answers.
    let top = db.session(with_gs(2f64.powi(63))).expect("GS = 2^63 is accepted");
    let answer = top.answer(ORDERS_SQL, 0.5).expect("answers");
    assert_eq!(answer.receipt.race.branches, 63);
    assert!(answer.noisy.is_finite());
    for gs in [1e20, f64::INFINITY] {
        assert!(
            matches!(db.session(with_gs(gs)), Err(r2t::Error::Admission(_))),
            "GS = {gs} must be refused"
        );
    }

    // A tier refuses both an oversized tier default and an oversized
    // per-session override, before the tenant's quota or session count
    // moves.
    let tier = ServiceTier::new(db, R2TConfig::new(0.8, 0.1, 1e20));
    tier.register_tenant("acme", 1.0).expect("register");
    let tenant = SessionOptions::new().tenant("acme");
    assert!(matches!(tier.session(tenant.clone()), Err(r2t::Error::Admission(_))));
    let infinite = tenant.clone().base(R2TConfig::new(0.8, 0.1, f64::INFINITY));
    assert!(matches!(tier.session(infinite), Err(r2t::Error::Admission(_))));
    let info = tier.tenant("acme").expect("registered");
    assert_eq!((info.spent, info.sessions), (0.0, 0), "a refusal charges nothing");
    let session = tier.session(tenant.base(seq_cfg())).expect("a bounded override is admitted");
    session.answer(ORDERS_SQL, 0.5).expect("answers");
    assert_eq!(tier.tenant("acme").expect("registered").spent, 0.5);
}
