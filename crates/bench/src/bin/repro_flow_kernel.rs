//! Measures the combinatorial flow kernel against the simplex and records the
//! comparison into `results/BENCH_flow_kernel.json`.
//!
//! For each kernel-shaped workload the full descending τ-race is solved
//! twice per repetition: **simplex** through the stateless `value` (one cold
//! solve of each branch's threshold-cut LP) and **kernel** through the
//! dispatched `sweep_session` (Dinic's max-flow on the bipartite double cover
//! for 2-reference workloads and on the layered network for TPC-H Q10's
//! `SELECT DISTINCT`, the per-node closed form for 1-reference workloads).
//! Every branch value is asserted equal to 1e-6 relative in-bench — the
//! kernel changes runtime, never values. The JSON
//! reports per-branch mean/p95 times, the whole-race totals, and the
//! aggregate speedup on the small-τ branches (τ ≤ 4) where the simplex is
//! at its slowest (the threshold cut removes the fewest rows) and the
//! kernel serves memoized chain points.
//!
//! Honours `R2T_REPS` (default 5); `--obs` (with `--features obs`) writes the
//! run's telemetry to `results/OBS_flow_kernel.json`.

use r2t_bench::{example_6_2_scaled, mean, obs_init, p95, reps, timed, write_result};
use r2t_core::truncation::for_profile;
use r2t_core::KernelKind;
use r2t_engine::exec;
use r2t_engine::lineage::ProfileBuilder;
use r2t_engine::{Instance, QueryProfile};
use r2t_tpch::queries::q10;
use r2t_tpch::tpch_schema;
use std::fmt::Write as _;

/// The τ-race in descending (race) order for `nb` branches.
fn race_taus(nb: u32) -> Vec<f64> {
    (1..=nb).rev().map(|j| (1u64 << j) as f64).collect()
}

/// A pseudo-random sparse graph workload: `edges` 2-reference results over
/// `nodes` private tuples with fractional weights, plus a sprinkle of
/// 1-reference and reference-free results. Deterministic (split-mix LCG).
fn random_graph(nodes: u64, edges: usize, seed: u64) -> QueryProfile {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for _ in 0..edges {
        let w = 0.25 + (next() % 1000) as f64 / 250.0;
        match next() % 10 {
            0 => {
                b.add_result(w, []);
            }
            1 => {
                b.add_result(w, [next() % nodes]);
            }
            _ => {
                let a = next() % nodes;
                let c = next() % nodes;
                if a == c {
                    b.add_result(w, [a]);
                } else {
                    b.add_result(w, [a, c]);
                }
            }
        }
    }
    b.build()
}

/// A 1-reference (star) workload that exercises the closed-form kernel.
fn star_profile(owners: u64, results: usize) -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    for k in 0..results {
        let w = 0.5 + (k % 7) as f64 * 0.4;
        b.add_result(w, [(k as u64 * 2654435761) % owners]);
    }
    b.build()
}

/// TPC-H Q10 (`SELECT DISTINCT` customer key) through the executor with the
/// given primary private relations: customer alone is Table 5's shape,
/// customer plus supplier `adhoc_lp`'s (each result then references one
/// supplier and one customer, and the customer determines the group).
fn q10_profile(inst: &Instance, private: &[&str]) -> QueryProfile {
    exec::profile(&tpch_schema(private), inst, &q10().query).expect("Q10 runs")
}

struct WorkloadResult {
    name: String,
    num_results: usize,
    kind: KernelKind,
    json: String,
    simplex_total: f64,
    kernel_total: f64,
    small_tau_speedup: f64,
    max_divergence: f64,
}

fn run_workload(name: &str, profile: &QueryProfile, nb: u32, reps: usize) -> WorkloadResult {
    let t = for_profile(profile);
    let taus = race_taus(nb);
    let b = taus.len();
    let mut sx_times = vec![Vec::with_capacity(reps); b];
    let mut kn_times = vec![Vec::with_capacity(reps); b];
    let mut sx_totals = Vec::with_capacity(reps);
    let mut kn_totals = Vec::with_capacity(reps);
    let mut sx_values = vec![0.0f64; b];
    let mut kn_values = vec![0.0f64; b];

    let race = |solve: &mut dyn FnMut(f64) -> f64, times: &mut [Vec<f64>], values: &mut [f64]| {
        for (i, &tau) in taus.iter().enumerate() {
            let (v, secs) = timed("branch", || solve(tau));
            values[i] = v;
            times[i].push(secs);
        }
    };
    // The shared sweep structure (classification and kernel build included)
    // is built once, by the untimed warm-up pass below. Whole-race totals
    // include the kernel's session construction.
    let simplex_race = |times: &mut [Vec<f64>], values: &mut [f64]| {
        let ((), total) =
            timed("bench.simplex_race", || race(&mut |tau| t.value(tau), times, values));
        total
    };
    let kernel_race = |times: &mut [Vec<f64>], values: &mut [f64]| -> (f64, KernelKind) {
        let (kind, total) = timed("bench.kernel_race", || {
            let mut s = t.sweep_session().expect("sweep available");
            race(&mut |tau| s.value(tau), times, values);
            s.kind()
        });
        (total, kind)
    };

    // Warm-up pass (untimed) for caches / allocator / CPU frequency.
    let mut scratch_t = vec![Vec::new(); b];
    let mut scratch_v = vec![0.0f64; b];
    simplex_race(&mut scratch_t, &mut scratch_v);
    let (_, kind) = kernel_race(&mut scratch_t, &mut scratch_v);
    assert!(
        kind != KernelKind::Simplex,
        "{name}: expected a combinatorial kernel, dispatcher chose simplex"
    );

    // Alternate which path runs first per repetition (thermal fairness).
    for rep in 0..reps {
        if rep % 2 == 0 {
            sx_totals.push(simplex_race(&mut sx_times, &mut sx_values));
            kn_totals.push(kernel_race(&mut kn_times, &mut kn_values).0);
        } else {
            kn_totals.push(kernel_race(&mut kn_times, &mut kn_values).0);
            sx_totals.push(simplex_race(&mut sx_times, &mut sx_values));
        }
    }

    let mut max_div = 0.0f64;
    let mut branches_json = String::new();
    let mut small_sx = 0.0f64;
    let mut small_kn = 0.0f64;
    for i in 0..b {
        let div = (kn_values[i] - sx_values[i]).abs() / (1.0 + sx_values[i].abs());
        max_div = max_div.max(div);
        assert!(
            div <= 1e-6,
            "{name}: branch tau={} diverged: kernel {} vs simplex {}",
            taus[i],
            kn_values[i],
            sx_values[i]
        );
        if taus[i] <= 4.0 {
            small_sx += mean(&sx_times[i]);
            small_kn += mean(&kn_times[i]);
        }
        if i > 0 {
            branches_json.push_str(",\n");
        }
        write!(
            branches_json,
            "      {{\"tau\": {}, \"lp_value\": {:.6}, \"simplex_mean_s\": {:.6}, \"simplex_p95_s\": {:.6}, \"kernel_mean_s\": {:.6}, \"kernel_p95_s\": {:.6}, \"divergence\": {:.3e}}}",
            taus[i],
            sx_values[i],
            mean(&sx_times[i]),
            p95(&sx_times[i]),
            mean(&kn_times[i]),
            p95(&kn_times[i]),
            div
        )
        .unwrap();
    }
    let simplex_total = mean(&sx_totals);
    let kernel_total = mean(&kn_totals);
    let small_tau_speedup = small_sx / small_kn.max(1e-12);

    let mut json = String::new();
    write!(
        json,
        "    {{\n      \"name\": \"{name}\",\n      \"kernel\": \"{}\",\n      \"num_results\": {},\n      \"num_branches\": {b},\n      \"branches\": [\n{branches_json}\n      ],\n      \"simplex_total_mean_s\": {simplex_total:.6},\n      \"kernel_total_mean_s\": {kernel_total:.6},\n      \"race_speedup\": {:.3},\n      \"small_tau_speedup\": {small_tau_speedup:.3},\n      \"max_divergence\": {max_div:.3e}\n    }}",
        kind,
        profile.results.len(),
        simplex_total / kernel_total.max(1e-12),
    )
    .unwrap();

    WorkloadResult {
        name: name.to_string(),
        num_results: profile.results.len(),
        kind,
        json,
        simplex_total,
        kernel_total,
        small_tau_speedup,
        max_divergence: max_div,
    }
}

fn main() {
    let obs = obs_init("flow_kernel");
    let reps = reps();
    println!("# BENCH flow_kernel — simplex vs combinatorial kernel (reps = {reps})\n");

    let mut workloads = Vec::new();

    // Scale 1 is 9992 join results; nb = 12 branches (τ = 4096 .. 2).
    let ex = example_6_2_scaled(1);
    workloads.push(run_workload("example_6_2", &ex, 12, reps));

    let rg = random_graph(4000, 20_000, 0xD1CE);
    workloads.push(run_workload("random_graph_20k", &rg, 12, reps));

    let star = star_profile(500, 20_000);
    workloads.push(run_workload("star_closed_form_20k", &star, 12, reps));

    // Projected LPs (Section 7): Q10 at scale 1, raced over the 20 branches
    // of GS = 10⁶.
    let inst = r2t_tpch::generate(1.0, 0.3, 0xC0FFEE);
    let q10_customer = q10_profile(&inst, &["customer"]);
    workloads.push(run_workload("q10_customer", &q10_customer, 20, reps));
    let q10_both = q10_profile(&inst, &["customer", "supplier"]);
    workloads.push(run_workload("q10_customer_supplier", &q10_both, 20, reps));

    for w in &workloads {
        println!(
            "{:<24} kernel={:<12} results={:<7} simplex={:.4}s kernel={:.4}s race_speedup={:.1}x small_tau_speedup={:.1}x max_div={:.2e}",
            w.name,
            w.kind,
            w.num_results,
            w.simplex_total,
            w.kernel_total,
            w.simplex_total / w.kernel_total.max(1e-12),
            w.small_tau_speedup,
            w.max_divergence
        );
    }

    let body: Vec<&str> = workloads.iter().map(|w| w.json.as_str()).collect();
    let peak_rss = r2t_bench::peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"flow_kernel\",\n  \"reps\": {reps},\n  \"peak_rss_bytes\": {peak_rss},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    write_result("BENCH_flow_kernel.json", &json);
    obs.finish();
}
