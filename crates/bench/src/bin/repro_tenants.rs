//! Sustained multi-tenant serving throughput plus the telemetry overhead
//! gate, recorded into `results/BENCH_tenants.json`.
//!
//! Drives a [`r2t_service::ServiceTier`] with many concurrent tenant
//! sessions over one shared `PrivateDatabase` — **twice**: once with
//! observability forced off and once at the configured obs level with the
//! live histograms recording and the snapshot exporter serving scrapes. The
//! bench asserts the serving tier's promises *in the bench itself* so the
//! recorded numbers are vouched-for:
//!
//! 1. **Exact aggregate charging.** Every tenant's quota is `answers × ε`
//!    with ε a power of two, so the lock-free budget cell must land on the
//!    quota *bitwise* — any lost or doubled CAS would show up as an exact-
//!    equality failure, not an epsilon-sized drift.
//! 2. **Telemetry is inert.** The obs-on phase reuses the obs-off phase's
//!    seeds; every released answer must match its obs-off twin bit for bit,
//!    and both must match a fresh single-threaded oracle replay.
//! 3. **Telemetry is cheap.** Obs-on throughput must be at least
//!    `R2T_TENANTS_OBS_MIN_FRAC` (default 0.85) of obs-off throughput.
//! 4. **The live plane is populated.** The exported snapshot must carry
//!    p50/p99/p999 prepared-answer latency quantiles and every tenant's ε
//!    gauges, and the Prometheus endpoint must serve them mid-run.
//! 5. **Refusals draw no noise.** A probe tenant whose quota covers only
//!    half its contended attempts must produce exactly the answer *set* a
//!    refusal-free sequential replay produces.
//!
//! Environment knobs: `R2T_TENANTS` (default `64·R2T_SCALE`),
//! `R2T_TENANTS_ANSWERS` (answers per tenant, default `2048·R2T_SCALE`),
//! `R2T_TENANTS_MIN_RATE` (aggregate answers/s floor on the obs-on phase,
//! default 1e6; set low for CI smoke on shared runners),
//! `R2T_TENANTS_OBS_MIN_FRAC` (obs-on / obs-off throughput floor, 0.85).

use r2t_bench::{obs_init, timed, write_result};
use r2t_core::R2TConfig;
use r2t_service::{PrivateDatabase, ServiceTier, Session, SessionOptions};
use std::fmt::Write as _;

const SQL: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";

/// ε per answer: a power of two, so every partial sum of charges is exactly
/// representable and the exactness assertions are bitwise, not approximate.
const EPS: f64 = 1.0 / 4096.0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The fully deterministic race mode — required for the bitwise oracle.
fn aligned_cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(false).parallel(false).build()
}

/// Serves `answers` per session with block-interleaved thread ownership:
/// client thread j drains sessions j, j+C, j+2C, ... sequentially. One
/// thread per tenant means each tenant's substream indices are assigned in
/// answer order, which is what lets the oracle replay compare per-index.
/// Threads still contend on the shared snapshot (reads) and — in the obs-on
/// phase — the live telemetry plane, which is the point.
fn serve(sessions: &[Session<'_>], answers: usize, client_threads: usize) -> Vec<Vec<f64>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads)
            .map(|j| {
                scope.spawn(move || {
                    let mut out: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut t = j;
                    while t < sessions.len() {
                        let q = sessions[t].prepare(SQL).expect("cached");
                        let mut vals = Vec::with_capacity(answers);
                        for _ in 0..answers {
                            vals.push(q.answer(EPS).expect("within quota").noisy);
                        }
                        out.push((t, vals));
                        t += client_threads;
                    }
                    out
                })
            })
            .collect();
        let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); sessions.len()];
        for h in handles {
            for (t, vals) in h.join().expect("client thread panicked") {
                per_tenant[t] = vals;
            }
        }
        per_tenant
    })
}

/// One HTTP scrape of the exporter's Prometheus endpoint.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect exporter");
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read scrape");
    out
}

fn main() {
    let obs = obs_init("tenants");
    // The level obs_init resolved (env/default) — the obs-on phase runs at
    // this level; the obs-off phase forces Off and restores it after.
    let on_level = r2t_obs::level();
    let scale = r2t_bench::scale();
    let tenants = env_usize("R2T_TENANTS", ((64.0 * scale).round() as usize).clamp(4, 4096));
    let answers =
        env_usize("R2T_TENANTS_ANSWERS", ((2048.0 * scale).round() as usize).clamp(64, 1 << 20));
    let min_rate = env_f64("R2T_TENANTS_MIN_RATE", 1e6);
    let min_frac = env_f64("R2T_TENANTS_OBS_MIN_FRAC", 0.85);
    let client_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).max(2);
    assert!(tenants >= 1 && answers >= 2, "need at least 1 tenant and 2 answers");

    println!(
        "# BENCH tenants — {tenants} tenant sessions x {answers} answers on \
         {client_threads} client threads (eps = 1/4096), obs-off vs obs-{}\n",
        on_level.as_str()
    );

    let schema = r2t_tpch::tpch_schema(&["customer"]);
    let inst = r2t_tpch::generate(0.1, 0.3, 0xC0FFEE);
    let db = PrivateDatabase::new(schema, inst).expect("valid TPC-H-lite instance");
    let tier = ServiceTier::new(db, aligned_cfg());

    // Twin tenant sets, one per phase, plus a warmup set. Tenant `t` of each
    // set opens its session with seed `t`, so the two phases release
    // *bit-identical* answer streams if and only if telemetry is inert.
    let quota = EPS * answers as f64;
    let warm_answers = answers.min(64);
    for t in 0..tenants {
        tier.register_tenant(&format!("off-{t}"), quota).expect("register off set");
        tier.register_tenant(&format!("on-{t}"), quota).expect("register on set");
    }
    for w in 0..client_threads {
        tier.register_tenant(&format!("warm-{w}"), EPS * warm_answers as f64).expect("register");
    }

    // Open every session and prepare the statement up front: the first
    // prepare pays parse + lineage + presolve once, the rest hit the shared
    // snapshot cache. The timed regions below are pure serving.
    let ((off_sessions, on_sessions), prepare_s) = timed("bench.prepare_all", || {
        let open_set = |prefix: &str| -> Vec<Session<'_>> {
            (0..tenants)
                .map(|t| {
                    tier.session(
                        SessionOptions::new().tenant(format!("{prefix}-{t}")).seed(t as u64),
                    )
                    .expect("admitted")
                })
                .collect()
        };
        let off = open_set("off");
        let on = open_set("on");
        for s in off.iter().chain(on.iter()) {
            s.prepare(SQL).expect("prepare");
        }
        (off, on)
    });
    assert_eq!(tier.db().snapshot().cached_statements(), 1, "one shared cache entry");

    // Untimed warmup: spin up the worker pool, fault in the shared cache,
    // and let the allocator settle so the first timed phase isn't penalized.
    let warm_sessions: Vec<Session<'_>> = (0..client_threads)
        .map(|w| {
            tier.session(SessionOptions::new().tenant(format!("warm-{w}")).seed(0xAAAA + w as u64))
                .expect("admitted")
        })
        .collect();
    serve(&warm_sessions, warm_answers, client_threads);

    // ---- Timed phases: interleaved obs-off / obs-on rounds ----------------
    // Pairing the phases round by round (instead of one long phase each)
    // makes the throughput ratio robust to machine drift — frequency
    // scaling, a noisy neighbor, or cache warmth hit both modes equally.
    // The exporter stays live throughout: it only reads atomics, and the
    // obs-on rounds must run with scrapes actually happening.
    let mut exporter = r2t_obs::exporter::spawn(r2t_obs::exporter::ExporterConfig {
        interval: std::time::Duration::from_millis(100),
        jsonl_path: None,
        listen: Some("127.0.0.1:0".parse().expect("loopback")),
    })
    .expect("exporter spawns");
    let addr = exporter.local_addr().expect("listener bound");

    let rounds = 16.min(answers);
    let per_round = answers / rounds;
    let mut noisy_off: Vec<Vec<f64>> = vec![Vec::new(); tenants];
    let mut noisy_on: Vec<Vec<f64>> = vec![Vec::new(); tenants];
    let (mut elapsed_off, mut elapsed_on) = (0.0f64, 0.0f64);
    let mut round_fracs: Vec<f64> = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let n = if r + 1 == rounds { answers - per_round * (rounds - 1) } else { per_round };
        r2t_obs::set_level(r2t_obs::Level::Off);
        let t0 = std::time::Instant::now();
        let chunk = serve(&off_sessions, n, client_threads);
        let dt_off = t0.elapsed().as_secs_f64();
        elapsed_off += dt_off;
        r2t_obs::set_level(on_level);
        let t0 = std::time::Instant::now();
        let chunk_on = serve(&on_sessions, n, client_threads);
        let dt_on = t0.elapsed().as_secs_f64();
        elapsed_on += dt_on;
        round_fracs.push(dt_off / dt_on.max(1e-12));
        for (t, vals) in chunk.into_iter().enumerate() {
            noisy_off[t].extend(vals);
        }
        for (t, vals) in chunk_on.into_iter().enumerate() {
            noisy_on[t].extend(vals);
        }
    }

    let total_answers = tenants * answers;
    let rate_off = total_answers as f64 / elapsed_off.max(1e-12);
    let rate_on = total_answers as f64 / elapsed_on.max(1e-12);
    // The gate uses the *median of per-round ratios*: adjacent off/on rounds
    // see the same machine state (frequency, cache, neighbors), so each
    // ratio is an unbiased paired sample of telemetry cost, and the median
    // discards rounds where either side absorbed a scheduler hiccup or an
    // exporter snapshot.
    round_fracs.sort_by(|a, b| a.total_cmp(b));
    let frac = round_fracs[round_fracs.len() / 2];
    println!(
        "obs-off: {total_answers} answers in {elapsed_off:.4}s = {rate_off:.0} answers/s\n\
         obs-{}:  {total_answers} answers in {elapsed_on:.4}s = {rate_on:.0} answers/s \
         (median paired round ratio {:.1}% of obs-off)",
        on_level.as_str(),
        frac * 100.0
    );

    // ---- Assertion: telemetry is inert (cross-phase bitwise equality) -----
    for t in 0..tenants {
        for (i, (off, on)) in noisy_off[t].iter().zip(&noisy_on[t]).enumerate() {
            assert_eq!(
                off.to_bits(),
                on.to_bits(),
                "tenant {t} answer {i}: obs-off {off} != obs-on {on} — telemetry perturbed \
                 a released answer"
            );
        }
    }
    println!("obs-on answers bit-identical to obs-off: {total_answers} pairs verified");

    // ---- Assertion: exact aggregate charging ------------------------------
    for t in 0..tenants {
        for prefix in ["off", "on"] {
            let info = tier.tenant(&format!("{prefix}-{t}")).expect("registered");
            assert_eq!(
                info.spent.to_bits(),
                quota.to_bits(),
                "{prefix}-{t}: cell spent {} != quota {quota} (exactness violated)",
                info.spent
            );
            assert_eq!(info.remaining, 0.0, "{prefix}-{t}: quota not exactly exhausted");
        }
        assert_eq!(off_sessions[t].num_charges(), answers);
        assert_eq!(on_sessions[t].num_charges(), answers);
    }
    println!("charging exact: {} cells each at {quota} eps", 2 * tenants);

    // ---- Assertion: bitwise equality to the sequential oracle -------------
    // Replay each tenant on a fresh session over the same snapshot, same
    // seed, single-threaded. Substream index i must give the same bits.
    for (t, vals) in noisy_on.iter().enumerate() {
        let oracle = tier
            .db()
            .session(SessionOptions::new().total_epsilon(quota).base(aligned_cfg()).seed(t as u64))
            .expect("session opens");
        let q = oracle.prepare(SQL).expect("prepare");
        for (i, v) in vals.iter().enumerate() {
            let o = q.answer(EPS).expect("oracle answer");
            assert_eq!(
                v.to_bits(),
                o.noisy.to_bits(),
                "tenant-{t} answer {i}: concurrent {v} != oracle {}",
                o.noisy
            );
        }
    }
    println!("bitwise equal to sequential oracle: {total_answers} answers verified");

    // ---- Assertion: the live plane is populated ---------------------------
    let (p50, p99, p999) = if r2t_obs::COMPILED && on_level >= r2t_obs::Level::Counters {
        let snap = r2t_obs::snapshot();
        let h = snap
            .hists
            .get("service.answer.ns")
            .expect("prepared-answer latency histogram on the live plane");
        assert!(
            h.count >= total_answers as u64,
            "answer latency histogram holds {} samples, expected >= {total_answers}",
            h.count
        );
        let (p50, p99, p999) = (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "quantiles ordered: {p50} {p99} {p999}");
        let spent = snap.polled.get("service.tenant.eps.spent").expect("tenant eps gauges");
        for t in 0..tenants {
            let name = format!("on-{t}");
            let row = spent.iter().find(|(l, _)| *l == name).expect("every tenant polled");
            assert_eq!(row.1.to_bits(), quota.to_bits(), "{name} gauge is the exact cell value");
        }
        let body = scrape(addr);
        assert!(body.starts_with("HTTP/1.0 200 OK"), "scrape failed: {body:.60}");
        for family in [
            "r2t_service_answer_ns{quantile=\"0.999\"}",
            "r2t_service_answer_ns_count",
            "r2t_service_tenant_eps_spent{tenant=\"on-0\"}",
        ] {
            assert!(body.contains(family), "scrape missing {family}");
        }
        println!(
            "live plane: answer latency p50 = {p50} ns, p99 = {p99} ns, p999 = {p999} ns; \
             {tenants} tenant gauge sets exported; endpoint scrape well-formed"
        );
        (p50, p99, p999)
    } else {
        println!("live plane assertions skipped (obs not compiled in or level off)");
        (0, 0, 0)
    };
    exporter.shutdown();

    // ---- Assertion: refusal probe — refusals draw no noise ----------------
    // A probe tenant's quota covers exactly half of 2 threads x `answers`
    // attempts. Under contention some interleaving of charges wins; whatever
    // it is, the surviving answers must be exactly the first-k oracle
    // answers as a set (refusals must not consume indices or RNG draws).
    let probe_quota = EPS * answers as f64;
    tier.register_tenant("probe", probe_quota).expect("register probe");
    let probe = tier.session(SessionOptions::new().tenant("probe").seed(0xBEEF)).expect("admitted");
    probe.prepare(SQL).expect("prepare");
    let (successes, refusals) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let probe = &probe;
                scope.spawn(move || {
                    let mut ok = Vec::new();
                    let mut refused = 0usize;
                    for _ in 0..answers {
                        match probe.answer(SQL, EPS) {
                            Ok(a) => ok.push(a.noisy),
                            Err(r2t_service::Error::Budget(_)) => refused += 1,
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    (ok, refused)
                })
            })
            .collect();
        let mut ok = Vec::new();
        let mut refused = 0;
        for h in handles {
            let (o, r) = h.join().expect("probe thread panicked");
            ok.extend(o);
            refused += r;
        }
        (ok, refused)
    });
    assert_eq!(successes.len(), answers, "exactly the quota's worth succeed");
    assert_eq!(refusals, answers, "the other half is refused");
    let probe_info = tier.tenant("probe").expect("registered");
    assert_eq!(probe_info.spent.to_bits(), probe_quota.to_bits());
    let oracle = tier
        .db()
        .session(SessionOptions::new().total_epsilon(probe_quota).base(aligned_cfg()).seed(0xBEEF))
        .expect("session opens");
    let q = oracle.prepare(SQL).expect("prepare");
    let mut expected: Vec<u64> =
        (0..answers).map(|_| q.answer(EPS).expect("oracle").noisy.to_bits()).collect();
    let mut got: Vec<u64> = successes.iter().map(|v| v.to_bits()).collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expected, "a refusal perturbed the surviving answers");
    println!(
        "refusal probe: {} admitted / {refusals} refused, surviving answers oracle-exact",
        successes.len()
    );

    // The serve phases are contention-free by construction (one client
    // thread per tenant cell), but the probe hammers one cell from two
    // threads — whenever a CAS actually retried, the retry histogram must
    // have seen it (both planes record from the same commit).
    if r2t_obs::COMPILED && on_level >= r2t_obs::Level::Counters {
        let snap = r2t_obs::snapshot();
        let contended = snap.counters.get("service.charge.contention").copied().unwrap_or(0);
        if contended > 0 {
            let h = snap.hists.get("core.budget.cas_retries").expect("CAS retry histogram");
            assert!(h.count > 0, "contended commits recorded no retry samples");
            println!(
                "budget CAS contention: {contended} retries across {} contended commits",
                h.count
            );
        }
    }

    // ---- Gates ------------------------------------------------------------
    // The overhead budget is a promise about the production `counters` tier;
    // `spans`/`full` add per-branch spans and lifecycle events that are
    // debug-priced by design, so the gate only arms when the obs-on phase
    // ran at exactly `counters` (e.g. `--obs` raises the default to `full` —
    // pin R2T_OBS=counters to combine a report with the gate).
    if r2t_obs::COMPILED && on_level == r2t_obs::Level::Counters {
        assert!(
            frac >= min_frac,
            "telemetry overhead gate: obs-on throughput is {:.1}% of obs-off, below the \
             {:.0}% floor (override with R2T_TENANTS_OBS_MIN_FRAC for noisy runners)",
            frac * 100.0,
            min_frac * 100.0
        );
        println!("overhead gate passed: obs-on >= {:.0}% of obs-off", min_frac * 100.0);
    }
    assert!(
        rate_on >= min_rate,
        "aggregate obs-on throughput {rate_on:.0} answers/s below the {min_rate:.0} floor \
         (override with R2T_TENANTS_MIN_RATE for smoke runs)"
    );

    let peak_rss = r2t_bench::peak_rss_bytes();
    let mut json = String::new();
    write!(
        json,
        "{{\n  \"bench\": \"tenants\",\n  \"peak_rss_bytes\": {peak_rss},\n  \"tenants\": {tenants},\n  \"answers_per_tenant\": {answers},\n  \"eps_per_answer\": {EPS:.9},\n  \"client_threads\": {client_threads},\n  \"prepare_s\": {prepare_s:.6},\n  \"serve_off_s\": {elapsed_off:.6},\n  \"serve_elapsed_s\": {elapsed_on:.6},\n  \"total_answers\": {total_answers},\n  \"answers_per_s_off\": {rate_off:.0},\n  \"answers_per_s\": {rate_on:.0},\n  \"us_per_answer\": {:.4},\n  \"min_rate_floor\": {min_rate:.0},\n  \"obs\": {{\"compiled\": {}, \"level\": \"{}\", \"on_frac_of_off\": {frac:.4}, \"min_frac\": {min_frac:.2}, \"answer_ns_p50\": {p50}, \"answer_ns_p99\": {p99}, \"answer_ns_p999\": {p999}, \"bit_identical_to_off\": true}},\n  \"charging_bitwise_exact\": true,\n  \"bitwise_equal_to_oracle\": true,\n  \"refusal_probe\": {{\"attempts\": {}, \"admitted\": {}, \"refused\": {refusals}, \"drew_no_noise\": true}}\n}}\n",
        elapsed_on / total_answers as f64 * 1e6,
        r2t_obs::COMPILED,
        on_level.as_str(),
        2 * answers,
        successes.len(),
    )
    .unwrap();
    write_result("BENCH_tenants.json", &json);
    obs.finish();
}
