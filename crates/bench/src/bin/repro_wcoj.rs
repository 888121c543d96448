//! Measures the worst-case-optimal executor against the columnar
//! binary-join executor on cyclic graph patterns and records the comparison
//! into `results/BENCH_wcoj.json`.
//!
//! Workloads: triangle counting on preferential-attachment graphs, rectangle
//! counting on sparse Erdős–Rényi graphs, and 4-clique counting on
//! clique-planted graphs — each at three scales up to ~200k edges (10–100×
//! the BENCH_join graphs). For every workload both executors run `R2T_REPS`
//! times with the strategy pinned (`Strategy::Columnar` vs
//! `Strategy::Wcoj`); the JSON reports mean wall-clock per executor, the
//! speedup, and each executor's peak binding count and resident-byte
//! estimate. Two properties are *asserted* in-bench for every workload:
//!
//! * the two `QueryProfile`s are bit-identical (`identical` in the JSON) —
//!   the WCOJ path must be a pure performance change;
//! * the WCOJ peak binding count is within a constant factor of the output
//!   size (every buffered record is a surviving result), while the columnar
//!   peak is an intermediate-join artifact that can be orders of magnitude
//!   larger.
//!
//! Honours `R2T_REPS` (default 5), `R2T_SCALE` (default 1.0, scales vertex
//! counts), and `R2T_WORKERS`.

use r2t_bench::{mean, obs_init, reps, scale, timed, write_result};
use r2t_engine::exec::{profile_with_stats_src, ExecOptions, Source, Strategy};
use r2t_engine::query::{atom, CmpOp, Predicate};
use r2t_engine::schema::graph_schema_node_dp;
use r2t_engine::{Instance, Query, Schema};
use r2t_graph::generators::{erdos_renyi_sparse, planted_cliques, preferential_attachment};
use r2t_graph::patterns::to_instance;
use r2t_graph::Pattern;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

struct WorkloadResult {
    name: String,
    nodes: usize,
    edges: usize,
    num_results: usize,
    columnar_mean_s: f64,
    wcoj_mean_s: f64,
    speedup: f64,
    columnar_peak_bindings: usize,
    wcoj_peak_bindings: usize,
    columnar_peak_resident_bytes: usize,
    wcoj_peak_resident_bytes: usize,
    identical: bool,
}

fn opts(strategy: Strategy) -> ExecOptions {
    ExecOptions { workers: r2t_bench::workers(), strategy, ..ExecOptions::default() }
}

fn run_workload(
    name: &str,
    nodes: usize,
    edges: usize,
    schema: &Schema,
    inst: &Instance,
    query: &Query,
    reps: usize,
) -> WorkloadResult {
    let col_opts = opts(Strategy::Columnar);
    let wcoj_opts = opts(Strategy::Wcoj);
    // Warm-up + correctness checks (untimed).
    let (col_profile, col_stats) =
        profile_with_stats_src(schema, Source::Rows(inst), query, &col_opts).expect("columnar");
    let (wcoj_profile, wcoj_stats) =
        profile_with_stats_src(schema, Source::Rows(inst), query, &wcoj_opts).expect("wcoj");
    let identical = col_profile == wcoj_profile;
    assert!(identical, "{name}: WCOJ profile diverged from the columnar profile");
    let out = wcoj_profile.results.len();
    assert!(
        wcoj_stats.peak_bindings <= 2 * out + 16,
        "{name}: WCOJ peak bindings {} not output-proportional (output {out})",
        wcoj_stats.peak_bindings
    );

    let mut col_times = Vec::with_capacity(reps);
    let mut wcoj_times = Vec::with_capacity(reps);
    // Alternate which executor runs first per repetition so frequency /
    // thermal drift cannot systematically favour either side.
    for rep in 0..reps {
        let time_col = |times: &mut Vec<f64>| {
            let ((), secs) = timed("bench.columnar", || {
                std::hint::black_box(
                    profile_with_stats_src(schema, Source::Rows(inst), query, &col_opts)
                        .expect("columnar"),
                );
            });
            times.push(secs);
        };
        let time_wcoj = |times: &mut Vec<f64>| {
            let ((), secs) = timed("bench.wcoj", || {
                std::hint::black_box(
                    profile_with_stats_src(schema, Source::Rows(inst), query, &wcoj_opts)
                        .expect("wcoj"),
                );
            });
            times.push(secs);
        };
        if rep % 2 == 0 {
            time_col(&mut col_times);
            time_wcoj(&mut wcoj_times);
        } else {
            time_wcoj(&mut wcoj_times);
            time_col(&mut col_times);
        }
    }
    let columnar_mean_s = mean(&col_times);
    let wcoj_mean_s = mean(&wcoj_times);
    WorkloadResult {
        name: name.to_string(),
        nodes,
        edges,
        num_results: out,
        columnar_mean_s,
        wcoj_mean_s,
        speedup: columnar_mean_s / wcoj_mean_s.max(1e-12),
        columnar_peak_bindings: col_stats.peak_bindings,
        wcoj_peak_bindings: wcoj_stats.peak_bindings,
        columnar_peak_resident_bytes: col_stats.peak_resident_bytes,
        wcoj_peak_resident_bytes: wcoj_stats.peak_resident_bytes,
        identical,
    }
}

/// 4-clique counting (one count per unordered vertex quadruple).
fn clique4_query() -> Query {
    Query::count(vec![
        atom("Edge", &[0, 1]),
        atom("Edge", &[0, 2]),
        atom("Edge", &[0, 3]),
        atom("Edge", &[1, 2]),
        atom("Edge", &[1, 3]),
        atom("Edge", &[2, 3]),
    ])
    .with_predicate(Predicate::And(vec![
        Predicate::cmp_vars(0, CmpOp::Lt, 1),
        Predicate::cmp_vars(1, CmpOp::Lt, 2),
        Predicate::cmp_vars(2, CmpOp::Lt, 3),
    ]))
}

fn main() {
    let obs = obs_init("wcoj");
    let reps = reps();
    let scale = scale();
    println!(
        "# BENCH wcoj — columnar vs worst-case-optimal executor (reps = {reps}, scale = {scale})\n"
    );

    let schema = graph_schema_node_dp();
    let sz = |base: usize| ((base as f64 * scale) as usize).max(16);
    let mut workloads = Vec::new();

    // Triangles on skewed preferential-attachment graphs (m = 4, so ~4n
    // edges: up to ~200k at the largest scale).
    for base in [5_000usize, 20_000, 50_000] {
        let n = sz(base);
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let g = preferential_attachment(n, 4, &mut rng);
        let inst = to_instance(&g);
        let name = format!("tri_pa{base}");
        let q = Pattern::Triangle.to_query();
        workloads.push(run_workload(&name, n, g.num_edges(), &schema, &inst, &q, reps));
    }

    // Rectangles on sparse Erdős–Rényi graphs (mean degree 6). Random
    // sparse graphs have few 4-cycles — (np)⁴/8 in expectation — which is
    // exactly the regime where output-proportional memory shines: the
    // columnar path still materializes every length-3 path.
    for base in [3_000usize, 12_000, 40_000] {
        let n = sz(base);
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let g = erdos_renyi_sparse(n, 6.0 / n as f64, &mut rng);
        let inst = to_instance(&g);
        let name = format!("rect_er{base}");
        let q = Pattern::Rectangle.to_query();
        workloads.push(run_workload(&name, n, g.num_edges(), &schema, &inst, &q, reps));
    }

    // 4-cliques on clique-planted graphs: a sparse background plus n/500
    // planted 8-cliques, so the result set is nonzero and controlled
    // (C(8,4) = 70 per clique) at every scale.
    for base in [2_000usize, 8_000, 20_000] {
        let n = sz(base);
        let mut rng = StdRng::seed_from_u64(0xC11E);
        let g = planted_cliques(n, 2.0 / n as f64, 8, (n / 500).max(1), &mut rng);
        let inst = to_instance(&g);
        let name = format!("clique4_plant{base}");
        let q = clique4_query();
        workloads.push(run_workload(&name, n, g.num_edges(), &schema, &inst, &q, reps));
    }

    for w in &workloads {
        println!(
            "{:<22} n={:<6} m={:<7} results={:<8} columnar={:.4}s wcoj={:.4}s speedup={:.2}x peak {} -> {} resident {} -> {}",
            w.name,
            w.nodes,
            w.edges,
            w.num_results,
            w.columnar_mean_s,
            w.wcoj_mean_s,
            w.speedup,
            w.columnar_peak_bindings,
            w.wcoj_peak_bindings,
            w.columnar_peak_resident_bytes,
            w.wcoj_peak_resident_bytes,
        );
    }

    let mut body = String::new();
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        write!(
            body,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"edges\": {}, \"num_results\": {}, \"columnar_mean_s\": {:.6}, \"wcoj_mean_s\": {:.6}, \"speedup\": {:.3}, \"columnar_peak_bindings\": {}, \"wcoj_peak_bindings\": {}, \"columnar_peak_resident_bytes\": {}, \"wcoj_peak_resident_bytes\": {}, \"identical\": {}}}",
            w.name,
            w.nodes,
            w.edges,
            w.num_results,
            w.columnar_mean_s,
            w.wcoj_mean_s,
            w.speedup,
            w.columnar_peak_bindings,
            w.wcoj_peak_bindings,
            w.columnar_peak_resident_bytes,
            w.wcoj_peak_resident_bytes,
            w.identical
        )
        .unwrap();
    }
    let peak_rss = r2t_bench::peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"wcoj\",\n  \"reps\": {reps},\n  \"peak_rss_bytes\": {peak_rss},\n  \"scale\": {scale},\n  \"workloads\": [\n{body}\n  ]\n}}\n"
    );
    write_result("BENCH_wcoj.json", &json);
    obs.finish();
}
