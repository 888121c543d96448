//! Measures the session serving layer against the cold one-shot path and
//! records the trajectory into `results/BENCH_serving.json`.
//!
//! For each TPC-H-lite workload the same query is answered repeatedly three
//! ways per repetition: **cold** through the raw pipeline a one-shot caller
//! would assemble (`parse_statement` → `exec::profile` → an `R2T` race per
//! call, both in the library's default race mode and in the aligned
//! sequential mode), and **prepared** through a `Session` where `prepare`
//! paid the parse, lineage and presolve once and each `answer` only charges
//! the budget cell and draws fresh noise. The bench asserts that prepared answers are bit-identical to
//! cold answers on the same noise substream (the serving layer changes
//! latency, never values) and that the prepared path is at least 5x faster
//! than the cold aligned path. A second phase drives `answer_all_with` across
//! worker counts and asserts the batch output is worker-count independent.
//!
//! Honours `R2T_REPS` (default 5).

use r2t_bench::{mean, obs_init, p95, reps, timed, write_result};
use r2t_core::{R2TConfig, R2T};
use r2t_engine::{exec, Instance, Schema};
use r2t_service::{substream_rng, PrivateDatabase, QuerySpec, SessionOptions};
use r2t_sql::parse_statement;
use std::fmt::Write as _;

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
const ITEMS_SQL: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";

/// Answers per repetition on the prepared path. Prepared answers are
/// microsecond-scale, so each repetition times a block of them.
const WARM_BLOCK: usize = 64;

/// The fully deterministic race mode (sequential, no early stop): the mode in
/// which a prepared answer is bit-identical to a cold `query` call.
fn aligned_cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(false).parallel(false).build()
}

/// The library default race mode (early stop + parallel branches): what a
/// caller who never opened a session would actually pay per query.
fn default_cfg() -> R2TConfig {
    R2TConfig::new(1.0, 0.1, 4096.0)
}

struct WorkloadResult {
    name: String,
    json: String,
    prepare_s: f64,
    warm_per_answer: f64,
    cold_aligned: f64,
    cold_default: f64,
}

fn run_workload(
    name: &str,
    db: &PrivateDatabase,
    schema: &Schema,
    inst: &Instance,
    sql: &str,
    reps: usize,
) -> WorkloadResult {
    let seed = 0xA11CE;
    let eps = 0.5;

    // The cold oracle: the full pipeline a one-shot caller pays per query —
    // parse, lineage profile, LP race — assembled from the public layers
    // directly, with no serving-layer involvement.
    let cold_raw = |cfg: &R2TConfig, root: u64, i: u64| -> f64 {
        let lowered = parse_statement(sql, schema).expect("parse");
        let profile = exec::profile(schema, inst, &lowered.query).expect("profile");
        R2T::new(cfg.with_epsilon(eps)).run_profile(&profile, &mut substream_rng(root, i)).output
    };

    // Equality gate first: the serving layer must change latency, never
    // values. A fresh session's charges get substream indices 0, 1, 2, ... and
    // each index pins the noise substream, so a cold run on the same
    // substream must reproduce the prepared answer bit for bit.
    let session = db
        .session(SessionOptions::new().total_epsilon(1e9).base(aligned_cfg()).seed(seed))
        .expect("session opens");
    let prepared = session.prepare(sql).expect("prepare");
    for i in 0..4u64 {
        let warm = prepared.answer(eps).expect("prepared answer");
        assert_eq!(warm.receipt.substream, i);
        let cold = cold_raw(&aligned_cfg(), seed, i);
        assert_eq!(
            warm.noisy.to_bits(),
            cold.to_bits(),
            "{name}: prepared answer diverged from cold on substream {i}: {} vs {cold}",
            warm.noisy
        );
    }

    // One-time preparation cost on a fresh session (parse + lineage +
    // presolve + branch values), then the timed phases reuse that session.
    let session = db
        .session(SessionOptions::new().total_epsilon(1e9).base(aligned_cfg()).seed(seed ^ 1))
        .expect("session opens");
    let (prepared, prepare_s) = timed("bench.prepare", || session.prepare(sql).expect("prepare"));

    let warm_block = || {
        let ((), secs) = timed("bench.warm_block", || {
            for _ in 0..WARM_BLOCK {
                let a = prepared.answer(eps).expect("prepared answer");
                assert!(a.noisy.is_finite());
            }
        });
        secs / WARM_BLOCK as f64
    };
    let cold_one = |cfg: &R2TConfig, i: u64| {
        let (out, secs) = timed("bench.cold_query", || cold_raw(cfg, seed ^ 2, i));
        assert!(out.is_finite());
        secs
    };

    // Warm-up pass (untimed): stabilizes caches, the allocator and CPU
    // frequency so no measured path pays first-run effects.
    warm_block();
    cold_one(&aligned_cfg(), u64::MAX);
    cold_one(&default_cfg(), u64::MAX - 1);

    // Alternate which path runs first in each repetition so slow frequency /
    // thermal drift cannot systematically favour either side.
    let mut warm_times = Vec::with_capacity(reps);
    let mut cold_aligned_times = Vec::with_capacity(reps);
    let mut cold_default_times = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep % 2 == 0 {
            cold_aligned_times.push(cold_one(&aligned_cfg(), rep as u64));
            cold_default_times.push(cold_one(&default_cfg(), rep as u64));
            warm_times.push(warm_block());
        } else {
            warm_times.push(warm_block());
            cold_default_times.push(cold_one(&default_cfg(), rep as u64));
            cold_aligned_times.push(cold_one(&aligned_cfg(), rep as u64));
        }
    }

    let warm_per_answer = mean(&warm_times);
    let cold_aligned = mean(&cold_aligned_times);
    let cold_default = mean(&cold_default_times);
    let speedup_aligned = cold_aligned / warm_per_answer.max(1e-12);
    let speedup_default = cold_default / warm_per_answer.max(1e-12);
    assert!(
        speedup_aligned >= 5.0,
        "{name}: prepared answers must be >= 5x faster than cold queries \
         (cold {cold_aligned:.6}s vs warm {warm_per_answer:.6}s = {speedup_aligned:.1}x)"
    );

    let mut json = String::new();
    write!(
        json,
        "    {{\n      \"name\": \"{name}\",\n      \"warm_block\": {WARM_BLOCK},\n      \"prepare_s\": {prepare_s:.6},\n      \"warm_per_answer_mean_s\": {warm_per_answer:.9},\n      \"warm_per_answer_p95_s\": {:.9},\n      \"cold_aligned_mean_s\": {cold_aligned:.6},\n      \"cold_aligned_p95_s\": {:.6},\n      \"cold_default_mean_s\": {cold_default:.6},\n      \"speedup_vs_cold_aligned\": {speedup_aligned:.1},\n      \"speedup_vs_cold_default\": {speedup_default:.1},\n      \"bitwise_equal_to_cold\": true\n    }}",
        p95(&warm_times),
        p95(&cold_aligned_times),
    )
    .unwrap();

    WorkloadResult {
        name: name.to_string(),
        json,
        prepare_s,
        warm_per_answer,
        cold_aligned,
        cold_default,
    }
}

/// Batch serving: one `answer_all_with` call per repetition for each worker
/// count. Every measurement opens a fresh session with the same seed so the
/// batch output must be bit-identical across worker counts — the fan-out
/// changes throughput, never values.
fn run_batch(db: &PrivateDatabase, reps: usize) -> String {
    let specs: Vec<QuerySpec> = (0..16)
        .map(|i| {
            let sql = if i % 2 == 0 { ORDERS_SQL } else { ITEMS_SQL };
            QuerySpec::new(sql, 0.25)
        })
        .collect();
    let mut reference: Option<Vec<u64>> = None;
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let session = db
                .session(SessionOptions::new().total_epsilon(1e9).base(aligned_cfg()).seed(0xBA7C4))
                .expect("session opens");
            // Prepare both texts up front so the timed section is pure
            // serving: charge + noise draws fanned across `workers` threads.
            session.prepare(ORDERS_SQL).expect("prepare");
            session.prepare(ITEMS_SQL).expect("prepare");
            let (answers, secs) = timed("bench.answer_all", || {
                session.answer_all_with(&specs, workers).expect("batch")
            });
            times.push(secs);
            let bits: Vec<u64> = answers.iter().map(|a| a.noisy.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "batch output depends on worker count {workers}"),
            }
        }
        let batch_mean = mean(&times);
        let rate = specs.len() as f64 / batch_mean.max(1e-12);
        // Gate on the best rep, not the mean: the collapse this guards is
        // structural (it slows every rep), while a scheduler stall under
        // load poisons one ~50µs window and would flake a mean-based gate.
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        rates.push((workers, specs.len() as f64 / best.max(1e-12)));
        println!(
            "batch answer_all      workers={workers} batch={:.6}s throughput={:.0} answers/s",
            batch_mean, rate
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"batch_size\": {}, \"batch_mean_s\": {batch_mean:.6}, \"batch_p95_s\": {:.6}, \"answers_per_s\": {:.0}}}",
            specs.len(),
            p95(&times),
            rate
        ));
    }

    // The regression gate for the old per-batch thread-spawn collapse (455k
    // answers/s at 1 worker falling to 62k at 8): with the persistent pool a
    // tiny batch may not *gain* from extra workers, but it must never fall
    // off a cliff. `R2T_SERVING_MIN_FRAC` overrides the floor fraction (CI
    // smoke runs on noisy shared runners may need slack).
    let min_frac: f64 =
        std::env::var("R2T_SERVING_MIN_FRAC").ok().and_then(|v| v.parse().ok()).unwrap_or(0.3);
    let base_rate = rates[0].1;
    for &(workers, rate) in &rates[1..] {
        assert!(
            rate >= min_frac * base_rate,
            "batch throughput collapsed: {rate:.0} answers/s at {workers} workers \
             vs {base_rate:.0} at 1 (floor {min_frac} of baseline)"
        );
    }
    rows.join(",\n")
}

fn main() {
    let obs = obs_init("serving");
    let reps = reps();
    println!("# BENCH serving — prepared sessions vs cold one-shot queries (reps = {reps})\n");

    let schema = r2t_tpch::tpch_schema(&["customer"]);
    let inst = r2t_tpch::generate(0.2, 0.3, 0xC0FFEE);
    let db = PrivateDatabase::new(schema.clone(), inst.clone()).expect("valid TPC-H-lite instance");

    let workloads = vec![
        run_workload("orders_per_customer", &db, &schema, &inst, ORDERS_SQL, reps),
        run_workload("items_per_order", &db, &schema, &inst, ITEMS_SQL, reps),
    ];

    for w in &workloads {
        println!(
            "{:<22} prepare={:.4}s warm={:.2}us/ans cold_aligned={:.4}s cold_default={:.4}s speedup={:.0}x",
            w.name,
            w.prepare_s,
            w.warm_per_answer * 1e6,
            w.cold_aligned,
            w.cold_default,
            w.cold_aligned / w.warm_per_answer.max(1e-12)
        );
    }
    println!();
    let batch_json = run_batch(&db, reps);

    let body: Vec<&str> = workloads.iter().map(|w| w.json.as_str()).collect();
    let peak_rss = r2t_bench::peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"reps\": {reps},\n  \"peak_rss_bytes\": {peak_rss},\n  \"workloads\": [\n{}\n  ],\n  \"batch\": [\n{batch_json}\n  ]\n}}\n",
        body.join(",\n")
    );
    write_result("BENCH_serving.json", &json);
    obs.finish();
}
