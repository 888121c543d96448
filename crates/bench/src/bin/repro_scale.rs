//! Paper-scale out-of-core benchmark: the full pipeline (generate → archive
//! → stream-partitioned execution) at true TPC-H scale factors, recorded
//! into `results/BENCH_scale.json`.
//!
//! Three phases, each in its **own child process** (re-exec of this binary)
//! because the peak-RSS metric is `VmHWM` — a process-lifetime high-water
//! mark that only ever goes up, so phases sharing a process would all
//! report the largest phase's footprint:
//!
//! 1. `build` — generate the TPC-H instance (`generate_sf`, ≈7.5M tuples at
//!    SF 1) plus a preferential-attachment graph, and write both as on-disk
//!    columnar archives.
//! 2. `inmem` — rebuild from rows (generate + validate = the cold start
//!    without an archive), then run the query suite fully in-memory.
//! 3. `stream` — reopen the archives (mmap + checksum validation; no
//!    per-row work), then run the same suite over the mapped columns with
//!    partition streaming (`ExecOptions::stream_block`).
//!
//! The suite is Q3 (flat SJA), Q10 (projection) and triangle counting (the
//! WCOJ path). Every query reports a 64-bit profile digest; the parent
//! **asserts the streamed digests equal the in-memory digests before any
//! timing is compared** — streaming and mmap are pure performance changes.
//! At report scale (`sf ≥ 0.5`) the parent also gates `reopen ≥ 10×` faster
//! than rebuild-from-rows and `streamed peak RSS ≤ 0.5×` of the in-memory
//! run; at smoke scales the ratios are reported but not gated (fixed
//! process overhead dominates tiny datasets).
//!
//! Honours `R2T_SCALE` (a *true* scale factor here: 1.0 ≈ 7.5M tuples;
//! default 1.0), `R2T_REPS`, `R2T_WORKERS`, and `R2T_STREAM_BLOCK` (seed
//! rows per partition, default 65536).

use r2t_bench::{mean, obs_init, reps, scale, timed, write_result};
use r2t_engine::exec::{profile_with_stats_src, ExecOptions, Source};
use r2t_engine::schema::graph_schema_node_dp;
use r2t_engine::storage::write_archive;
use r2t_engine::{Archive, Instance, Query, QueryProfile, Schema};
use r2t_graph::generators::preferential_attachment;
use r2t_graph::patterns::to_instance;
use r2t_graph::Pattern;
use r2t_tpch::{generate_sf, queries, tpch_schema};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const TPCH_SEED: u64 = 0xC0FFEE;
const GRAPH_SEED: u64 = 7;

fn stream_block() -> usize {
    std::env::var("R2T_STREAM_BLOCK").ok().and_then(|v| v.parse().ok()).unwrap_or(65_536)
}

/// Graph size scaled with the TPC-H scale factor (≈100k extra tuples at SF 1).
fn graph_nodes(sf: f64) -> usize {
    ((20_000.0 * sf) as usize).max(500)
}

// ---------------------------------------------------------------------------
// Profile digest — the cross-process bit-identity witness
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A 64-bit FNV-1a digest over the profile's canonical bytes: every weight
/// bit pattern, every reference id, every group membership, in order. Two
/// profiles are bit-identical iff their canonical byte streams are equal,
/// so equal digests across processes certify the streamed run reproduced
/// the in-memory profile exactly (up to a 2⁻⁶⁴ collision).
fn digest_profile(p: &QueryProfile) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.num_private as u64);
    h.u64(p.results.len() as u64);
    for r in &p.results {
        h.u64(r.weight.to_bits());
        h.u64(r.refs.len() as u64);
        for &x in &r.refs {
            h.u64(x as u64);
        }
    }
    match &p.groups {
        None => h.u64(0),
        Some(gs) => {
            h.u64(1);
            h.u64(gs.len() as u64);
            for g in gs {
                h.u64(g.weight.to_bits());
                h.u64(g.members.len() as u64);
                for &m in &g.members {
                    h.u64(m as u64);
                }
            }
        }
    }
    h.0
}

// ---------------------------------------------------------------------------
// The shared query suite
// ---------------------------------------------------------------------------

/// (name, schema, query, uses_tpch_archive) — the same suite runs in both
/// execution phases; `uses_tpch_archive == false` routes to the graph
/// archive. Triangle is cyclic, so `Strategy::Auto` sends it to the WCOJ
/// executor in both phases.
fn suite() -> Vec<(&'static str, Schema, Query, bool)> {
    let q3 = queries::q3();
    let q10 = queries::q10();
    vec![
        ("tpch_q3", q3.schema, q3.query, true),
        ("tpch_q10", q10.schema, q10.query, true),
        ("graph_triangle", graph_schema_node_dp(), Pattern::Triangle.to_query(), false),
    ]
}

fn exec_opts(streamed: bool) -> ExecOptions {
    ExecOptions {
        workers: r2t_bench::workers(),
        stream_block: streamed.then(stream_block),
        ..ExecOptions::default()
    }
}

/// Runs the suite against the two sources, printing one `QUERY` marker line
/// per workload: `QUERY <name> <mean_s> <digest_hex>`.
fn run_suite(tpch: Source<'_>, graph: Source<'_>, streamed: bool, reps: usize) {
    let opts = exec_opts(streamed);
    for (name, schema, query, on_tpch) in suite() {
        let source = if on_tpch { tpch } else { graph };
        let (profile, _) = profile_with_stats_src(&schema, source, &query, &opts).expect("profile");
        let digest = digest_profile(&profile);
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let ((), secs) = timed("bench.scale.query", || {
                std::hint::black_box(
                    profile_with_stats_src(&schema, source, &query, &opts).expect("profile"),
                );
            });
            times.push(secs);
        }
        println!("QUERY {name} {:.6} {digest:016x}", mean(&times));
        eprintln!("  {name}: {} results, mean {:.3}s", profile.results.len(), mean(&times));
    }
}

// ---------------------------------------------------------------------------
// Phases (child processes)
// ---------------------------------------------------------------------------

fn tpch_archive(dir: &Path) -> PathBuf {
    dir.join("tpch.r2t")
}

fn graph_archive(dir: &Path) -> PathBuf {
    dir.join("graph.r2t")
}

fn generate_graph(sf: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    to_instance(&preferential_attachment(graph_nodes(sf), 4, &mut rng))
}

fn phase_build(dir: &Path, sf: f64) {
    let (tpch, gen_s) = timed("bench.scale.gen", || generate_sf(sf, 0.3, TPCH_SEED));
    let graph = generate_graph(sf);
    let tuples = tpch.total_tuples();
    let graph_tuples = graph.total_tuples();
    let ((), write_s) = timed("bench.scale.write", || {
        write_archive(&tpch_schema(&["customer"]), &tpch, &tpch_archive(dir)).expect("write tpch");
        write_archive(&graph_schema_node_dp(), &graph, &graph_archive(dir)).expect("write graph");
    });
    let bytes = std::fs::metadata(tpch_archive(dir)).expect("tpch archive").len()
        + std::fs::metadata(graph_archive(dir)).expect("graph archive").len();
    println!(
        "STATS build gen_s={gen_s:.6} write_s={write_s:.6} tuples={} archive_bytes={bytes} \
         peak_rss_bytes={}",
        tuples + graph_tuples,
        r2t_bench::peak_rss_bytes()
    );
}

fn phase_inmem(sf: f64, reps: usize) {
    // Cold start without an archive: produce the rows and validate them.
    let ((tpch, graph), open_s) = timed("bench.scale.rebuild", || {
        let tpch = generate_sf(sf, 0.3, TPCH_SEED);
        tpch.validate(&tpch_schema(&["customer"])).expect("valid tpch");
        let graph = generate_graph(sf);
        graph.validate(&graph_schema_node_dp()).expect("valid graph");
        (tpch, graph)
    });
    run_suite(Source::Rows(&tpch), Source::Rows(&graph), false, reps);
    println!("STATS inmem open_s={open_s:.6} peak_rss_bytes={}", r2t_bench::peak_rss_bytes());
}

fn phase_stream(dir: &Path, reps: usize) {
    let ((tpch, graph), open_s) = timed("bench.scale.reopen", || {
        let tpch =
            Archive::open(&tpch_schema(&["customer"]), &tpch_archive(dir)).expect("open tpch");
        let graph =
            Archive::open(&graph_schema_node_dp(), &graph_archive(dir)).expect("open graph");
        (tpch, graph)
    });
    run_suite(Source::Archive(&tpch), Source::Archive(&graph), true, reps);
    println!("STATS stream open_s={open_s:.6} peak_rss_bytes={}", r2t_bench::peak_rss_bytes());
}

// ---------------------------------------------------------------------------
// Parent: orchestration, bit-identity assertion, gates, JSON
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct PhaseOut {
    /// name → (mean seconds, digest).
    queries: Vec<(String, f64, String)>,
    /// `key=value` stats from the `STATS` line.
    stats: std::collections::HashMap<String, String>,
}

impl PhaseOut {
    fn stat_f64(&self, key: &str) -> f64 {
        self.stats.get(key).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            panic!("phase output missing numeric stat {key:?}: {:?}", self.stats)
        })
    }
}

fn run_phase(phase: &str, dir: &Path) -> PhaseOut {
    let exe = std::env::current_exe().expect("current exe");
    eprintln!("# phase {phase} …");
    let out = Command::new(exe)
        .arg("--phase")
        .arg(phase)
        .arg("--dir")
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("spawn phase {phase}: {e}"));
    assert!(
        out.status.success(),
        "phase {phase} failed with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    let mut parsed = PhaseOut::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("QUERY") => {
                let name = words.next().expect("QUERY name").to_string();
                let secs: f64 = words.next().expect("QUERY secs").parse().expect("QUERY secs");
                let digest = words.next().expect("QUERY digest").to_string();
                parsed.queries.push((name, secs, digest));
            }
            Some("STATS") => {
                let _phase = words.next();
                for kv in words {
                    let (k, v) = kv.split_once('=').expect("STATS key=value");
                    parsed.stats.insert(k.to_string(), v.to_string());
                }
            }
            _ => {}
        }
    }
    assert!(!parsed.stats.is_empty(), "phase {phase} printed no STATS line");
    parsed
}

fn main() {
    // Child dispatch: `--phase <build|inmem|stream> --dir <archive dir>`.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--phase") {
        let phase = args.get(i + 1).expect("--phase needs a value").as_str();
        let di = args.iter().position(|a| a == "--dir").expect("--dir required");
        let dir = PathBuf::from(args.get(di + 1).expect("--dir needs a value"));
        let sf = scale();
        match phase {
            "build" => phase_build(&dir, sf),
            "inmem" => phase_inmem(sf, reps()),
            "stream" => phase_stream(&dir, reps()),
            other => panic!("unknown phase {other:?}"),
        }
        return;
    }

    let obs = obs_init("scale");
    let sf = scale();
    let reps = reps();
    let block = stream_block();
    println!(
        "# BENCH scale — out-of-core archive + partition streaming \
         (sf = {sf}, reps = {reps}, stream_block = {block})\n"
    );

    let dir = std::env::temp_dir().join(format!("r2t_scale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("archive dir");

    let build = run_phase("build", &dir);
    let inmem = run_phase("inmem", &dir);
    let stream = run_phase("stream", &dir);
    std::fs::remove_dir_all(&dir).expect("clean archive dir");

    // Bit-identity first: timing a divergent run would be meaningless.
    assert_eq!(
        inmem.queries.len(),
        stream.queries.len(),
        "phases ran different suites: {:?} vs {:?}",
        inmem.queries,
        stream.queries
    );
    for ((name, _, d_inmem), (sname, _, d_stream)) in inmem.queries.iter().zip(&stream.queries) {
        assert_eq!(name, sname, "suite order diverged");
        assert_eq!(
            d_inmem, d_stream,
            "{name}: streamed mmap-backed profile diverged from the in-memory profile"
        );
    }
    println!("bit-identity: all {} streamed profiles match in-memory\n", inmem.queries.len());

    let open_rebuild_s = inmem.stat_f64("open_s");
    let open_archive_s = stream.stat_f64("open_s");
    let reopen_speedup = open_rebuild_s / open_archive_s.max(1e-9);
    let rss_inmem = inmem.stat_f64("peak_rss_bytes");
    let rss_stream = stream.stat_f64("peak_rss_bytes");
    let rss_ratio = rss_stream / rss_inmem.max(1.0);
    let tuples = build.stat_f64("tuples") as u64;
    let archive_bytes = build.stat_f64("archive_bytes") as u64;

    println!(
        "tuples={tuples} archive={archive_bytes}B build: gen={:.2}s write={:.2}s",
        build.stat_f64("gen_s"),
        build.stat_f64("write_s")
    );
    println!(
        "cold start: rebuild-from-rows={open_rebuild_s:.3}s archive-reopen={open_archive_s:.4}s \
         speedup={reopen_speedup:.1}x"
    );
    println!(
        "peak RSS: in-memory={:.1}MB streamed={:.1}MB ratio={rss_ratio:.2}",
        rss_inmem / 1e6,
        rss_stream / 1e6
    );
    for ((name, t_in, _), (_, t_st, _)) in inmem.queries.iter().zip(&stream.queries) {
        println!("{name:<16} inmem={t_in:.3}s streamed={t_st:.3}s");
    }

    // Perf gates only at report scale: at smoke scales fixed process
    // overhead (allocator, binary, ~10MB) swamps the data and the ratios
    // say nothing about the storage layer.
    if sf >= 0.5 {
        assert!(
            reopen_speedup >= 10.0,
            "archive reopen only {reopen_speedup:.1}x faster than rebuild-from-rows (need 10x)"
        );
        assert!(
            rss_ratio <= 0.5,
            "streamed peak RSS is {rss_ratio:.2}x of in-memory (need <= 0.5x)"
        );
        println!("\ngates passed: reopen {reopen_speedup:.1}x >= 10x, RSS {rss_ratio:.2} <= 0.5");
    } else {
        println!("\ngates reported only (sf = {sf} < 0.5): reopen {reopen_speedup:.1}x, RSS {rss_ratio:.2}");
    }

    let mut qjson = String::new();
    for (i, ((name, t_in, digest), (_, t_st, _))) in
        inmem.queries.iter().zip(&stream.queries).enumerate()
    {
        if i > 0 {
            qjson.push_str(",\n");
        }
        write!(
            qjson,
            "    {{\"name\": \"{name}\", \"inmem_s\": {t_in:.6}, \"stream_s\": {t_st:.6}, \
             \"profile_digest\": \"{digest}\", \"identical\": true}}"
        )
        .unwrap();
    }
    // The query phases run in child processes (their registries die with
    // them), so mirror the headline stats into the parent registry for the
    // obs report.
    r2t_obs::counter_add("bench.scale.tuples", tuples);
    r2t_obs::counter_add("bench.scale.archive_bytes", archive_bytes);
    r2t_obs::counter_add("bench.scale.queries_identical", inmem.queries.len() as u64);
    r2t_obs::gauge_max("bench.scale.peak_rss_inmem_bytes", rss_inmem as u64);
    r2t_obs::gauge_max("bench.scale.peak_rss_stream_bytes", rss_stream as u64);
    let peak_rss = r2t_bench::peak_rss_bytes();
    r2t_obs::gauge_max("proc.peak_rss_bytes", peak_rss);
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"peak_rss_bytes\": {peak_rss},\n  \"sf\": {sf},\n  \
         \"reps\": {reps},\n  \"stream_block\": {block},\n  \"tuples\": {tuples},\n  \
         \"archive_bytes\": {archive_bytes},\n  \"build_gen_s\": {:.6},\n  \
         \"build_write_s\": {:.6},\n  \"open_rebuild_s\": {open_rebuild_s:.6},\n  \
         \"open_archive_s\": {open_archive_s:.6},\n  \"reopen_speedup\": {reopen_speedup:.2},\n  \
         \"peak_rss_inmem_bytes\": {},\n  \"peak_rss_stream_bytes\": {},\n  \
         \"rss_ratio\": {rss_ratio:.4},\n  \"gated\": {},\n  \"queries\": [\n{qjson}\n  ]\n}}\n",
        build.stat_f64("gen_s"),
        build.stat_f64("write_s"),
        rss_inmem as u64,
        rss_stream as u64,
        sf >= 0.5,
    );
    write_result("BENCH_scale.json", &json);
    obs.finish();
}
