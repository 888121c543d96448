//! Differential smoke test for the observability layer: a fully instrumented
//! run (level `full`) must produce **bit-identical** results to an
//! uninstrumented run (level `off`) — telemetry may never perturb the
//! mechanism. Exercised over the join executors (sequential and
//! forced-parallel columnar, plus the worst-case-optimal path) and both R2T
//! execution modes.
//!
//! The obs registry is process-global, so the tests in this binary serialize
//! through a mutex; being an integration-test binary keeps them in their own
//! process, away from every other test's registry.

use r2t::core::{R2TConfig, R2T};
use r2t::engine::exec::{
    profile_grouped_with_stats_src, profile_with_stats_src, ExecOptions, Source,
};
use r2t::engine::QueryProfile;
use r2t::obs::Level;
use r2t::tpch::{generate, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` at the given obs level and returns its result. Serialized, so
/// a report taken inside `f` holds only what `f` recorded.
fn at_level<T>(level: Level, f: impl FnOnce() -> T) -> T {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    r2t::obs::set_level(level);
    let out = f();
    r2t::obs::set_level(Level::Off);
    out
}

fn exec_opts(parallel: bool) -> ExecOptions {
    if parallel {
        // Force fan-out even on the small test instance.
        ExecOptions { workers: Some(4), parallel_threshold: 1, ..ExecOptions::default() }
    } else {
        ExecOptions { workers: Some(1), parallel_threshold: usize::MAX, ..ExecOptions::default() }
    }
}

/// Full R2T pipeline (join + race) under one obs level; returns the exact
/// profile and the released outputs of both race modes.
fn pipeline(level: Level, parallel: bool) -> (QueryProfile, f64, f64) {
    at_level(level, || {
        let inst = generate(0.08, 0.3, 21);
        let tq = queries::q3();
        let (profile, _) = profile_with_stats_src(
            &tq.schema,
            Source::Rows(&inst),
            &tq.query,
            &exec_opts(parallel),
        )
        .expect("q3");
        let cfg = R2TConfig::builder(0.8, 0.1, 4096.0).early_stop(true).parallel(parallel).build();
        let out_early = {
            let mut rng = StdRng::seed_from_u64(99);
            R2T::new(cfg.clone()).run_profile(&profile, &mut rng).output
        };
        let out_plain = {
            let mut rng = StdRng::seed_from_u64(99);
            R2T::new({
                let mut c = cfg.clone();
                c.early_stop = false;
                c
            })
            .run_profile(&profile, &mut rng)
            .output
        };
        (profile, out_early, out_plain)
    })
}

#[test]
fn instrumented_run_is_bit_identical_sequential() {
    let (p_off, early_off, plain_off) = pipeline(Level::Off, false);
    let (p_full, early_full, plain_full) = pipeline(Level::Full, false);
    assert_eq!(p_off, p_full, "sequential executor profile changed under instrumentation");
    assert_eq!(early_off.to_bits(), early_full.to_bits(), "early-stop R2T output changed");
    assert_eq!(plain_off.to_bits(), plain_full.to_bits(), "plain R2T output changed");
}

#[test]
fn instrumented_run_is_bit_identical_parallel() {
    let (p_off, early_off, plain_off) = pipeline(Level::Off, true);
    let (p_full, early_full, plain_full) = pipeline(Level::Full, true);
    assert_eq!(p_off, p_full, "parallel executor profile changed under instrumentation");
    assert_eq!(early_off.to_bits(), early_full.to_bits(), "early-stop R2T output changed");
    assert_eq!(plain_off.to_bits(), plain_full.to_bits(), "plain R2T output changed");
}

#[test]
fn wcoj_executor_is_bit_identical_under_instrumentation() {
    use r2t::engine::exec::Strategy;
    use r2t::engine::schema::graph_schema_node_dp;
    use r2t::graph::{generators::preferential_attachment, patterns::to_instance, Pattern};
    let run = |level| {
        at_level(level, || {
            let mut rng = StdRng::seed_from_u64(11);
            let g = preferential_attachment(600, 3, &mut rng);
            let inst = to_instance(&g);
            let q = Pattern::Triangle.to_query();
            let opts = ExecOptions { strategy: Strategy::Wcoj, ..exec_opts(true) };
            profile_with_stats_src(&graph_schema_node_dp(), Source::Rows(&inst), &q, &opts)
                .expect("triangle")
                .0
        })
    };
    assert_eq!(run(Level::Off), run(Level::Full), "WCOJ profile changed under instrumentation");
}

#[test]
fn grouped_executor_is_bit_identical_under_instrumentation() {
    let run = |level| {
        at_level(level, || {
            let inst = generate(0.08, 0.3, 21);
            let tq = queries::q10();
            let group_vars: Vec<_> = (0..1).collect();
            profile_grouped_with_stats_src(
                &tq.schema,
                Source::Rows(&inst),
                &tq.query,
                &group_vars,
                &exec_opts(true),
            )
            .expect("q10 grouped")
            .0
        })
    };
    assert_eq!(run(Level::Off), run(Level::Full), "grouped profiles changed");
}

/// The *live* plane under full load: serving-tier answers with histograms
/// recording and the background exporter running (JSONL + TCP scrapes
/// mid-run) must release answers bit-identical to a completely
/// uninstrumented run. The exporter only reads atomics — it can never touch
/// a noise stream or a budget commit.
#[test]
fn serving_with_exporter_and_histograms_is_bit_identical() {
    use r2t::core::R2TConfig;
    use r2t::system::{PrivateDatabase, QuerySpec, ServiceTier, SessionOptions};

    const SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";

    // One serving pass: register tenants, answer singles and a batch, and
    // return every released bit pattern in a deterministic order. `mid_run`
    // is called between the singles and the batch.
    let serve = |mid_run: &dyn Fn()| -> Vec<u64> {
        let schema = r2t::tpch::tpch_schema(&["customer"]);
        let db = PrivateDatabase::new(schema, generate(0.08, 0.3, 77)).expect("db");
        let tier = ServiceTier::new(db, R2TConfig::new(1.0, 0.1, 4096.0));
        tier.register_tenant("alpha", 2.0).expect("register");
        let session =
            tier.session(SessionOptions::new().tenant("alpha").seed(4242)).expect("admit");
        let prepared = session.prepare(SQL).expect("prepare");
        let mut bits = Vec::new();
        for _ in 0..8 {
            bits.push(prepared.answer(0.05).expect("answer").noisy.to_bits());
        }
        mid_run();
        let specs: Vec<QuerySpec> = (0..8).map(|_| QuerySpec::new(SQL, 0.05)).collect();
        for a in session.answer_all_with(&specs, 4).expect("batch") {
            bits.push(a.noisy.to_bits());
        }
        bits
    };

    let baseline = at_level(Level::Off, || serve(&|| {}));

    let instrumented = at_level(Level::Full, || {
        let jsonl =
            std::env::temp_dir().join(format!("r2t_obs_differential_{}.jsonl", std::process::id()));
        let mut exporter = r2t::obs::exporter::spawn(r2t::obs::exporter::ExporterConfig {
            interval: std::time::Duration::from_millis(5),
            jsonl_path: Some(jsonl.clone()),
            listen: Some("127.0.0.1:0".parse().expect("loopback")),
        })
        .expect("exporter spawns");
        let addr = exporter.local_addr().expect("bound");

        // Scrape concurrently while the serving pass runs, so the exporter
        // is provably *active* during answering, not just configured: the
        // pass waits mid-run until the scraper reports a finished scrape.
        let stop = &std::sync::atomic::AtomicBool::new(false);
        let (scraped, first_scrape) = std::sync::mpsc::channel::<()>();
        let bits = std::thread::scope(|scope| {
            let scraper = scope.spawn(move || {
                use std::io::{Read, Write};
                let mut scrapes = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
                    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
                    let mut body = String::new();
                    conn.read_to_string(&mut body).expect("scrape");
                    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body:.40}");
                    scrapes += 1;
                    // The serving pass stops listening after the first.
                    let _ = scraped.send(());
                }
                scrapes
            });
            let bits = serve(&|| first_scrape.recv().expect("scraper finished a scrape"));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(scraper.join().expect("scraper") >= 1, "endpoint scraped mid-run");
            bits
        });

        // Histogram activity must actually have happened on the live plane.
        if r2t::obs::COMPILED {
            let snap = r2t::obs::snapshot();
            let h = snap.hists.get("service.answer.ns").expect("answer latency histogram");
            assert!(h.count >= 16, "every answer recorded a latency sample");
        }
        exporter.shutdown();
        let _ = std::fs::remove_file(&jsonl);
        bits
    });

    assert_eq!(
        baseline, instrumented,
        "exporter/histogram activity perturbed a released answer bit"
    );
}

#[test]
fn full_instrumentation_records_race_and_exec_telemetry() {
    if !r2t::obs::COMPILED {
        return; // nothing is recorded without the `obs` feature
    }
    let report = at_level(Level::Full, || {
        let start = r2t::obs::snapshot();
        let inst = generate(0.08, 0.3, 21);
        let tq = queries::q3();
        let (profile, _) =
            profile_with_stats_src(&tq.schema, Source::Rows(&inst), &tq.query, &exec_opts(true))
                .expect("q3");
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = R2TConfig::new(0.8, 0.1, 4096.0);
        let _ = R2T::new(cfg).run_profile(&profile, &mut rng);
        r2t::obs::snapshot().delta_since(&start)
    });
    assert!(report.counters.contains_key("exec.stages"), "executor stages recorded");
    // Q3 is a single-PPR workload, so the race's branch values come from the
    // dispatched closed-form kernel rather than simplex LP solves.
    assert!(report.counters.contains_key("trunc.kernel.sessions"), "kernel dispatch recorded");
    assert!(
        report.counters.contains_key("lp.kernel.class.closed_form"),
        "structure classification recorded"
    );
    assert!(report.counters.contains_key("r2t.noise.draws"), "noise draw count recorded");
    assert!(report.counters.contains_key("r2t.race.start"), "race lifecycle recorded");
    assert!(report.spans.keys().any(|k| k.contains("r2t.run")), "race span recorded");
    assert!(
        report.events.iter().any(|e| e.path.contains("r2t.branch")),
        "per-branch events recorded"
    );
    // The JSON export of a real run must be non-trivial and well-formed
    // enough to contain the counters section.
    let json = report.to_json();
    assert!(json.contains("\"r2t.noise.draws\""));
}

/// The serving pool's threads never exit, so nothing they record may wait
/// on a thread exit to reach a report. At `full`, the report over a run of
/// `answer_all_with(…, 4)` batches holds every answer's noise draws and one
/// `r2t.race.done` event per answer.
#[test]
fn pool_thread_telemetry_reaches_the_report() {
    use r2t::system::{PrivateDatabase, QuerySpec, SessionOptions};
    if !r2t::obs::COMPILED {
        return;
    }
    const SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
    const BATCHES: usize = 16;
    const PER_BATCH: usize = 64;
    let (report, branches) = at_level(Level::Full, || {
        let schema = r2t::tpch::tpch_schema(&["customer"]);
        let db = PrivateDatabase::new(schema, generate(0.08, 0.3, 77)).expect("db");
        let session = db
            .session(
                SessionOptions::new()
                    .seed(5)
                    .total_epsilon(1.0)
                    .base(R2TConfig::new(1.0, 0.1, 4096.0)),
            )
            .expect("session");
        let specs: Vec<QuerySpec> = (0..PER_BATCH).map(|_| QuerySpec::new(SQL, 1e-4)).collect();
        let start = r2t::obs::snapshot();
        let mut branches = 0u64;
        for _ in 0..BATCHES {
            for a in session.answer_all_with(&specs, 4).expect("batch") {
                branches += a.receipt.race.branches as u64;
            }
        }
        (r2t::obs::snapshot().delta_since(&start), branches)
    });
    let answers = BATCHES * PER_BATCH;
    assert!(branches >= answers as u64, "every answer races at least one branch");
    assert_eq!(
        report.counters.get("r2t.noise.draws").copied(),
        Some(branches),
        "noise draws must equal branches x answers"
    );
    let done = report.events.iter().filter(|e| e.path.ends_with("r2t.race.done")).count();
    assert_eq!(done, answers, "one r2t.race.done event per answer");
}
