//! Measures the columnar parallel join executor against the row-at-a-time
//! reference executor and records the comparison into
//! `results/BENCH_join.json`.
//!
//! Workloads: graph pattern counting (Edge / Path2 / Triangle / Rectangle on
//! preferential-attachment and Erdős–Rényi graphs) and TPC-H lineage
//! profiles (Q3, Q7, Q10, Q18). For every workload both executors run
//! `R2T_REPS` times; the JSON reports mean wall-clock per executor, the
//! speedup, each executor's peak materialized binding count, and an
//! `identical` flag asserting the two profiles compare equal (the columnar
//! path must be a pure performance change).
//!
//! Honours `R2T_REPS` (default 5) and `R2T_SCALE` (default 1.0, scales the
//! graph sizes and the TPC-H scale factor).

use r2t_bench::{mean, obs_init, reps, scale, timed, write_result};
use r2t_engine::exec::{profile_reference, profile_with_stats_src, ExecOptions, Source, Strategy};
use r2t_engine::schema::graph_schema_node_dp;
use r2t_engine::{Instance, Query, Schema};
use r2t_graph::generators::{erdos_renyi, preferential_attachment};
use r2t_graph::patterns::to_instance;
use r2t_graph::Pattern;
use r2t_tpch::{generate, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

struct WorkloadResult {
    name: String,
    num_results: usize,
    old_mean_s: f64,
    new_mean_s: f64,
    speedup: f64,
    old_peak_bindings: usize,
    new_peak_bindings: usize,
    old_peak_resident_bytes: usize,
    new_peak_resident_bytes: usize,
    identical: bool,
}

fn run_workload(
    name: &str,
    schema: &Schema,
    inst: &Instance,
    query: &Query,
    reps: usize,
) -> WorkloadResult {
    // Pin the columnar strategy: this bench isolates reference-vs-columnar,
    // so `Strategy::Auto` must not silently reroute the cyclic graph
    // patterns to the WCOJ executor (BENCH_wcoj covers that comparison).
    let opts = ExecOptions {
        workers: r2t_bench::workers(),
        strategy: Strategy::Columnar,
        ..ExecOptions::default()
    };
    // Warm-up + correctness check (untimed).
    let (old_profile, old_stats) = profile_reference(schema, inst, query).expect("reference");
    let (new_profile, new_stats) =
        profile_with_stats_src(schema, Source::Rows(inst), query, &opts).expect("columnar");
    let identical = old_profile == new_profile;
    assert!(identical, "{name}: columnar profile diverged from the reference profile");

    let mut old_times = Vec::with_capacity(reps);
    let mut new_times = Vec::with_capacity(reps);
    // Alternate which executor runs first per repetition so frequency /
    // thermal drift cannot systematically favour either side.
    for rep in 0..reps {
        let time_old = |times: &mut Vec<f64>| {
            let ((), secs) = timed("bench.reference", || {
                std::hint::black_box(profile_reference(schema, inst, query).expect("reference"));
            });
            times.push(secs);
        };
        let time_new = |times: &mut Vec<f64>| {
            let ((), secs) = timed("bench.columnar", || {
                std::hint::black_box(
                    profile_with_stats_src(schema, Source::Rows(inst), query, &opts)
                        .expect("columnar"),
                );
            });
            times.push(secs);
        };
        if rep % 2 == 0 {
            time_old(&mut old_times);
            time_new(&mut new_times);
        } else {
            time_new(&mut new_times);
            time_old(&mut old_times);
        }
    }
    let old_mean_s = mean(&old_times);
    let new_mean_s = mean(&new_times);
    WorkloadResult {
        name: name.to_string(),
        num_results: new_profile.results.len(),
        old_mean_s,
        new_mean_s,
        speedup: old_mean_s / new_mean_s.max(1e-12),
        old_peak_bindings: old_stats.peak_bindings,
        new_peak_bindings: new_stats.peak_bindings,
        old_peak_resident_bytes: old_stats.peak_resident_bytes,
        new_peak_resident_bytes: new_stats.peak_resident_bytes,
        identical,
    }
}

fn main() {
    let obs = obs_init("join");
    let reps = reps();
    let scale = scale();
    println!("# BENCH join — reference vs columnar executor (reps = {reps}, scale = {scale})\n");

    let mut workloads = Vec::new();

    // Graph pattern workloads: a skewed preferential-attachment graph and a
    // flatter Erdős–Rényi graph, all four patterns each.
    let mut rng = StdRng::seed_from_u64(7);
    let pa = preferential_attachment((2000.0 * scale) as usize, 4, &mut rng);
    let er = erdos_renyi((1500.0 * scale) as usize, 0.004, &mut rng);
    let schema = graph_schema_node_dp();
    for (gname, g) in [("pa2000", &pa), ("er1500", &er)] {
        let inst = to_instance(g);
        for pattern in Pattern::ALL {
            let name = format!("graph_{gname}_{}", pattern.label());
            let q = pattern.to_query();
            workloads.push(run_workload(&name, &schema, &inst, &q, reps));
        }
    }

    // TPC-H lineage profiles (Q10 exercises projection).
    let inst = generate(0.15 * scale, 0.3, 0xC0FFEE);
    for q in [queries::q3(), queries::q7(), queries::q10(), queries::q18()] {
        let name = format!("tpch_{}", q.name.to_lowercase());
        workloads.push(run_workload(&name, &q.schema, &inst, &q.query, reps));
    }

    for w in &workloads {
        println!(
            "{:<28} results={:<8} old={:.4}s new={:.4}s speedup={:.2}x peak {} -> {} resident {} -> {}",
            w.name,
            w.num_results,
            w.old_mean_s,
            w.new_mean_s,
            w.speedup,
            w.old_peak_bindings,
            w.new_peak_bindings,
            w.old_peak_resident_bytes,
            w.new_peak_resident_bytes
        );
    }

    let mut body = String::new();
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        write!(
            body,
            "    {{\"name\": \"{}\", \"num_results\": {}, \"old_mean_s\": {:.6}, \"new_mean_s\": {:.6}, \"speedup\": {:.3}, \"old_peak_bindings\": {}, \"new_peak_bindings\": {}, \"old_peak_resident_bytes\": {}, \"new_peak_resident_bytes\": {}, \"identical\": {}}}",
            w.name,
            w.num_results,
            w.old_mean_s,
            w.new_mean_s,
            w.speedup,
            w.old_peak_bindings,
            w.new_peak_bindings,
            w.old_peak_resident_bytes,
            w.new_peak_resident_bytes,
            w.identical
        )
        .unwrap();
    }
    let peak_rss = r2t_bench::peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"join_exec\",\n  \"reps\": {reps},\n  \"peak_rss_bytes\": {peak_rss},\n  \"scale\": {scale},\n  \"workloads\": [\n{body}\n  ]\n}}\n"
    );
    write_result("BENCH_join.json", &json);
    obs.finish();
}
