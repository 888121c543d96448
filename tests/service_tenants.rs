//! Integration tests for the multi-tenant serving tier: striped per-tenant
//! budget cells under contention, admission control, snapshot isolation
//! across writes, and the shared prepared cache.

use r2t::core::R2TConfig;
use r2t::service::Session;
use r2t::system::{PrivateDatabase, ServiceTier, SessionOptions, WriteBatch};

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
const ITEMS_SQL: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";

fn db() -> PrivateDatabase {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    PrivateDatabase::new(schema, r2t::tpch::generate(0.08, 0.3, 3)).expect("valid instance")
}

/// The fully deterministic execution mode: sequential, no early stop.
fn seq_cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(false).parallel(false).build()
}

/// Tier admission through the one [`SessionOptions`] entry point.
fn admit<'t>(tier: &'t ServiceTier, tenant: &str, seed: u64) -> Result<Session<'t>, r2t::Error> {
    tier.session(SessionOptions::new().tenant(tenant).seed(seed))
}

/// Private-database session through the same builder.
fn open(db: &PrivateDatabase, total_epsilon: f64, seed: u64) -> Session<'_> {
    db.session(SessionOptions::new().total_epsilon(total_epsilon).base(seq_cfg()).seed(seed))
        .expect("session opens")
}

#[test]
fn admission_control_refuses_before_any_randomness_exists() {
    let tier = ServiceTier::new(db(), seq_cfg());
    tier.register_tenant("acme", 1.0).expect("register");

    // Unknown tenant: refused at the door.
    assert!(matches!(admit(&tier, "ghost", 1), Err(r2t::Error::Admission(_))));

    // Duplicate registration and invalid quotas: refused.
    assert!(matches!(tier.register_tenant("acme", 2.0), Err(r2t::Error::Admission(_))));
    assert!(matches!(tier.register_tenant("bad", -1.0), Err(r2t::Error::Admission(_))));
    assert!(matches!(tier.register_tenant("bad", f64::NAN), Err(r2t::Error::Admission(_))));

    // Exhaust the quota, then admission itself is refused.
    let s = admit(&tier, "acme", 7).expect("admitted");
    s.answer(ORDERS_SQL, 1.0).expect("spends the whole quota");
    assert!(matches!(admit(&tier, "acme", 8), Err(r2t::Error::Admission(_))));

    // The refusals changed nothing: a parallel tier driven identically but
    // without the refused calls produces bit-identical answers.
    let tier2 = ServiceTier::new(db(), seq_cfg());
    tier2.register_tenant("acme", 1.0).expect("register");
    let s2 = admit(&tier2, "acme", 7).expect("admitted");
    let a2 = s2.answer(ORDERS_SQL, 1.0).expect("answer");
    let info = tier.tenant("acme").expect("registered");
    assert_eq!(info.spent, 1.0);
    assert_eq!(info.remaining, 0.0);
    assert_eq!(info.sessions, 1);
    // Cross-check determinism of the admitted path.
    let again = ServiceTier::new(db(), seq_cfg());
    again.register_tenant("acme", 1.0).unwrap();
    let s3 = admit(&again, "acme", 7).unwrap();
    assert_eq!(
        s3.answer(ORDERS_SQL, 1.0).unwrap().noisy.to_bits(),
        a2.noisy.to_bits(),
        "admission bookkeeping must not perturb answers"
    );
}

/// The satellite contention test: N tenant sessions × M threads hammering
/// one shared `PrivateDatabase`, with per-tenant quotas that only cover part
/// of the demand. Asserts (1) every tenant's cell spent exactly equals the
/// f64 sum of its sessions' successful receipts, (2) the aggregate across
/// the tier equals the sum of all successful receipts, and (3) refused
/// answers drew no noise — the successful answers are exactly the ones a
/// refusal-free sequential replay produces.
#[test]
fn contended_tenants_charge_exactly_and_refusals_draw_no_noise() {
    const TENANTS: usize = 4;
    const THREADS_PER_TENANT: usize = 4;
    const ATTEMPTS_PER_THREAD: usize = 16;
    // Each tenant's quota covers exactly half its 64 attempted charges.
    let eps = 1.0 / 32.0; // power of two: sums are f64-exact in any order
    let quota = eps * (THREADS_PER_TENANT * ATTEMPTS_PER_THREAD / 2) as f64;

    let tier = ServiceTier::new(db(), seq_cfg());
    for t in 0..TENANTS {
        tier.register_tenant(&format!("tenant-{t}"), quota).expect("register");
    }

    // One session per tenant, all threads of a tenant hammering that session.
    let sessions: Vec<_> =
        (0..TENANTS).map(|t| admit(&tier, &format!("tenant-{t}"), t as u64).unwrap()).collect();
    for s in &sessions {
        s.prepare(ORDERS_SQL).expect("prepare");
    }

    let receipts: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS * THREADS_PER_TENANT)
            .map(|i| {
                let session = &sessions[i % TENANTS];
                scope.spawn(move || {
                    let mut noisy = Vec::new();
                    for _ in 0..ATTEMPTS_PER_THREAD {
                        match session.answer(ORDERS_SQL, eps) {
                            Ok(a) => noisy.push(a.noisy),
                            Err(r2t::Error::Budget(_)) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    noisy
                })
            })
            .collect();
        let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); TENANTS];
        for (i, h) in handles.into_iter().enumerate() {
            per_tenant[i % TENANTS].extend(h.join().expect("no panic"));
        }
        per_tenant
    });

    let expected_successes = THREADS_PER_TENANT * ATTEMPTS_PER_THREAD / 2;
    for (t, tenant_receipts) in receipts.iter().enumerate() {
        let name = format!("tenant-{t}");
        let info = tier.tenant(&name).expect("registered");
        assert_eq!(
            tenant_receipts.len(),
            expected_successes,
            "{name}: exactly the quota's worth of answers succeed"
        );
        assert_eq!(
            info.spent,
            eps * tenant_receipts.len() as f64,
            "{name}: cell spent == sum of successful receipts, exactly"
        );
        assert_eq!(info.remaining, 0.0, "{name}: quota exactly exhausted");
        assert_eq!(sessions[t].num_charges(), expected_successes);

        // Refusals drew no noise: every successful answer used one of the
        // substream indices 0..successes, so the *set* of noisy outputs must
        // equal a clean sequential replay with the same seed — had a refusal
        // consumed randomness or an index, some output would diverge.
        let replay_tier = ServiceTier::new(db(), seq_cfg());
        replay_tier.register_tenant(&name, quota).unwrap();
        let replay = admit(&replay_tier, &name, t as u64).unwrap();
        let mut expected: Vec<u64> = (0..expected_successes)
            .map(|_| replay.answer(ORDERS_SQL, eps).expect("replay").noisy.to_bits())
            .collect();
        let mut got: Vec<u64> = tenant_receipts.iter().map(|v| v.to_bits()).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "{name}: refused answers must not perturb noise");
    }

    let aggregate: f64 = receipts.iter().map(|r| eps * r.len() as f64).sum();
    assert_eq!(tier.total_spent(), aggregate, "tier-wide charging is exact");
}

#[test]
fn sessions_share_one_tenant_quota() {
    let tier = ServiceTier::new(db(), seq_cfg());
    tier.register_tenant("shared", 1.0).expect("register");
    let a = admit(&tier, "shared", 1).expect("admitted");
    let b = admit(&tier, "shared", 2).expect("admitted");
    a.answer(ORDERS_SQL, 0.5).expect("a spends");
    b.answer(ITEMS_SQL, 0.5).expect("b spends the rest");
    assert!(matches!(a.answer(ORDERS_SQL, 0.25), Err(r2t::Error::Budget(_))));
    assert!(matches!(b.answer(ITEMS_SQL, 0.25), Err(r2t::Error::Budget(_))));
    assert_eq!(a.spent(), 1.0, "both sessions see the shared cell");
    assert_eq!(b.spent(), 1.0);
    // Per-session substream layouts stay independent.
    assert_eq!(a.num_charges(), 1);
    assert_eq!(b.num_charges(), 1);
}

#[test]
fn replace_swaps_snapshots_without_stalling_open_sessions() {
    let database = db();
    let session = open(&database, 10.0, 5);
    let prepared = session.prepare(ORDERS_SQL).expect("prepare");
    let before = prepared.answer(0.5).expect("answer on v0");
    let exact_before = database.query_exact(ORDERS_SQL).expect("exact");
    assert_eq!(session.snapshot().version(), 0);

    // Replace with a larger instance. The open session is pinned: answers
    // keep coming from the old snapshot, bit-identical to what the same
    // substream produced before.
    let v = database
        .apply(WriteBatch::replace(r2t::tpch::generate(0.16, 0.3, 9)))
        .expect("replace applies");
    assert_eq!(v, 1);
    let after = session.prepare(ORDERS_SQL).unwrap().answer(0.5).expect("answer on pinned v0");
    let replay_db = db();
    let replay = open(&replay_db, 10.0, 5);
    let r0 = replay.answer(ORDERS_SQL, 0.5).unwrap();
    let r1 = replay.answer(ORDERS_SQL, 0.5).unwrap();
    assert_eq!(before.noisy.to_bits(), r0.noisy.to_bits());
    assert_eq!(
        after.noisy.to_bits(),
        r1.noisy.to_bits(),
        "a replace must not perturb a pinned session"
    );

    // New sessions (and exact queries) see the new data.
    let fresh = open(&database, 10.0, 5);
    assert_eq!(fresh.snapshot().version(), 1);
    let exact_after = database.query_exact(ORDERS_SQL).expect("exact");
    assert!(exact_after > exact_before, "bigger instance: {exact_after} vs {exact_before}");

    // An invalid instance is rejected and the current snapshot stays.
    let mut broken = r2t::tpch::generate(0.01, 0.3, 1);
    // An orders row pointing at a customer that does not exist: FK violation.
    broken.insert(
        "orders",
        vec![
            r2t::engine::Value::Int(i64::MAX),
            r2t::engine::Value::Int(-999),
            r2t::engine::Value::Int(0),
        ],
    );
    assert!(
        database.apply(WriteBatch::replace(broken)).is_err(),
        "validation failure refuses the swap"
    );
    assert_eq!(database.snapshot().version(), 1, "failed replace leaves the snapshot untouched");
}

#[test]
fn prepared_cache_is_shared_across_sessions_on_one_snapshot() {
    let database = db();
    let s1 = open(&database, 1.0, 1);
    let s2 = open(&database, 1.0, 2);
    s1.prepare(ORDERS_SQL).expect("prepare in s1");
    assert_eq!(database.snapshot().cached_statements(), 1);
    s2.prepare(ORDERS_SQL).expect("prepare in s2 is a hit");
    assert_eq!(
        database.snapshot().cached_statements(),
        1,
        "same text + same grid: one shared entry"
    );
    // A different grid shape is a different entry (different τ ladder).
    let s3 = database
        .session(
            SessionOptions::new()
                .total_epsilon(1.0)
                .base(R2TConfig::builder(1.0, 0.1, 65536.0).build())
                .seed(3),
        )
        .expect("session opens");
    s3.prepare(ORDERS_SQL).expect("prepare under a deeper grid");
    assert_eq!(database.snapshot().cached_statements(), 2);
    // Session-local views count per-session statements.
    assert_eq!(s1.cached_queries(), 1);
    assert_eq!(s2.cached_queries(), 1);
}

#[test]
fn tier_batches_run_on_the_pool_and_stay_deterministic() {
    use r2t::system::QuerySpec;
    let tier = ServiceTier::new(db(), seq_cfg());
    tier.register_tenant("batcher", 100.0).expect("register");
    let specs: Vec<QuerySpec> = (0..32)
        .map(|i| QuerySpec::new(if i % 2 == 0 { ORDERS_SQL } else { ITEMS_SQL }, 1.0 / 64.0))
        .collect();
    let mut outputs: Vec<Vec<u64>> = Vec::new();
    for workers in [1usize, 3, 8] {
        let session = admit(&tier, "batcher", 42).expect("admitted");
        let answers = session.answer_all_with(&specs, workers).expect("batch");
        outputs.push(answers.iter().map(|a| a.noisy.to_bits()).collect());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 3 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
}
