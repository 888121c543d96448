//! Measures the warm-started branch sweep against the cold-start baseline
//! and records the perf trajectory into `results/BENCH_lp_sweep.json`.
//!
//! For each workload the full descending τ-race is solved twice per
//! repetition: **cold** through the stateless truncation path (a fresh
//! simplex session per branch over the shared sweep structure: threshold
//! cut, then a cold simplex) and **warm** through one `SweepSession` that
//! chains optimal bases across branches. Both sides run the revised
//! simplex (the warm side through `simplex_sweep_session`), so this bench
//! keeps measuring warm-start basis reuse even on workloads the dispatcher
//! routes to the combinatorial flow kernel (see `repro_flow_kernel` for
//! that comparison). The JSON
//! reports per-branch mean/p95 solve times, the primal iterations saved by
//! basis reuse alongside the dual iterations the warm repair spends, and
//! the worst warm/cold divergence (which must stay ≤ 1e-6 relative — warm
//! starts change runtime, never values).
//!
//! Honours `R2T_REPS` (default 5).

use r2t_bench::{example_6_2_scaled, mean, obs_init, p95, reps, timed, write_result};
use r2t_core::truncation::for_profile;
use r2t_engine::{exec, QueryProfile};
use r2t_tpch::{generate, queries};
use std::fmt::Write as _;

/// The τ-race in warm-chain (descending) order for `nb` branches.
fn race_taus(nb: u32) -> Vec<f64> {
    (1..=nb).rev().map(|j| (1u64 << j) as f64).collect()
}

struct WorkloadResult {
    name: String,
    num_results: usize,
    json: String,
    cold_total: f64,
    warm_total: f64,
    primal_iterations_saved: i64,
    dual_iterations_spent: usize,
    max_divergence: f64,
}

fn run_workload(name: &str, profile: &QueryProfile, nb: u32, reps: usize) -> WorkloadResult {
    let t = for_profile(profile);
    let taus = race_taus(nb);
    let b = taus.len();
    let mut cold_times = vec![Vec::with_capacity(reps); b];
    let mut warm_times = vec![Vec::with_capacity(reps); b];
    let mut cold_totals = Vec::with_capacity(reps);
    let mut warm_totals = Vec::with_capacity(reps);
    let mut cold_values = vec![0.0f64; b];
    let mut warm_values = vec![0.0f64; b];
    let mut warm_stats = r2t_lp::SolveStats::default();

    // One race per path: the cold race runs a fresh simplex session per
    // branch; the warm race chains bases through one session. Both share the
    // sweep structure, which the first call builds; totals are whole-race
    // wall-clock.
    let cold_race = |times: &mut [Vec<f64>], values: &mut [f64]| {
        let ((), total) = timed("bench.cold_race", || {
            for (i, &tau) in taus.iter().enumerate() {
                let (v, secs) = timed("branch", || t.value(tau));
                values[i] = v;
                times[i].push(secs);
            }
        });
        total
    };
    let warm_race =
        |t: &dyn r2t_core::truncation::Truncation, times: &mut [Vec<f64>], values: &mut [f64]| {
            let (stats, total) = timed("bench.warm_race", || {
                let mut session = t.simplex_sweep_session().expect("LP truncations support sweeps");
                for (i, &tau) in taus.iter().enumerate() {
                    let (v, secs) = timed("branch", || session.value(tau));
                    values[i] = v;
                    times[i].push(secs);
                }
                session.stats()
            });
            (total, stats)
        };

    // Warm-up pass (untimed): stabilizes caches, the allocator and CPU
    // frequency so neither measured path pays first-run effects.
    let mut scratch_t = vec![Vec::new(); b];
    let mut scratch_v = vec![0.0f64; b];
    cold_race(&mut scratch_t, &mut scratch_v);
    warm_race(t.as_ref(), &mut scratch_t, &mut scratch_v);

    // Alternate which path runs first in each repetition so slow frequency /
    // thermal drift cannot systematically favour either side.
    for rep in 0..reps {
        if rep % 2 == 0 {
            cold_totals.push(cold_race(&mut cold_times, &mut cold_values));
            let (wt, ws) = warm_race(t.as_ref(), &mut warm_times, &mut warm_values);
            warm_totals.push(wt);
            warm_stats = ws;
        } else {
            let (wt, ws) = warm_race(t.as_ref(), &mut warm_times, &mut warm_values);
            warm_totals.push(wt);
            warm_stats = ws;
            cold_totals.push(cold_race(&mut cold_times, &mut cold_values));
        }
    }

    // Cold iteration baseline: a fresh session per branch never has a basis
    // to reuse, so its primal iteration count is the cold-start cost of the
    // same reduced LPs the warm chain solves.
    let mut cold_iters = 0usize;
    for &tau in &taus {
        let mut fresh = t.simplex_sweep_session().expect("LP truncations support sweeps");
        fresh.value(tau);
        cold_iters += fresh.stats().primal_iterations + fresh.stats().dual_iterations;
    }

    let mut max_div = 0.0f64;
    let mut branches_json = String::new();
    for i in 0..b {
        let div = (warm_values[i] - cold_values[i]).abs() / (1.0 + cold_values[i].abs());
        max_div = max_div.max(div);
        assert!(
            div <= 1e-6,
            "{name}: branch tau={} diverged: warm {} vs cold {}",
            taus[i],
            warm_values[i],
            cold_values[i]
        );
        if i > 0 {
            branches_json.push_str(",\n");
        }
        write!(
            branches_json,
            "      {{\"tau\": {}, \"lp_value\": {:.6}, \"cold_mean_s\": {:.6}, \"cold_p95_s\": {:.6}, \"warm_mean_s\": {:.6}, \"warm_p95_s\": {:.6}, \"divergence\": {:.3e}}}",
            taus[i],
            cold_values[i],
            mean(&cold_times[i]),
            p95(&cold_times[i]),
            mean(&warm_times[i]),
            p95(&warm_times[i]),
            div
        )
        .unwrap();
    }
    let cold_total = mean(&cold_totals);
    let warm_total = mean(&warm_totals);
    // The warm chain trades primal pivots for (cheaper) dual repair pivots;
    // a single net number hid a chain whose repair cost ate the savings, so
    // the two directions are reported separately.
    let primal_iterations_saved = cold_iters as i64 - warm_stats.primal_iterations as i64;
    let dual_iterations_spent = warm_stats.dual_iterations;

    let mut json = String::new();
    write!(
        json,
        "    {{\n      \"name\": \"{name}\",\n      \"num_results\": {},\n      \"num_branches\": {b},\n      \"branches\": [\n{branches_json}\n      ],\n      \"cold_total_mean_s\": {cold_total:.6},\n      \"warm_total_mean_s\": {warm_total:.6},\n      \"speedup\": {:.3},\n      \"cold_iterations\": {cold_iters},\n      \"warm_primal_iterations\": {},\n      \"warm_dual_iterations\": {},\n      \"primal_iterations_saved\": {primal_iterations_saved},\n      \"dual_iterations_spent\": {dual_iterations_spent},\n      \"warm_attempts\": {},\n      \"warm_accepted\": {},\n      \"max_divergence\": {max_div:.3e}\n    }}",
        profile.results.len(),
        cold_total / warm_total.max(1e-12),
        warm_stats.primal_iterations,
        warm_stats.dual_iterations,
        warm_stats.warm_attempts,
        warm_stats.warm_accepted,
    )
    .unwrap();

    WorkloadResult {
        name: name.to_string(),
        num_results: profile.results.len(),
        json,
        cold_total,
        warm_total,
        primal_iterations_saved,
        dual_iterations_spent,
        max_divergence: max_div,
    }
}

fn main() {
    let obs = obs_init("lp_sweep");
    let reps = reps();
    println!("# BENCH lp_sweep — cold vs warm branch sweeps (reps = {reps})\n");

    let mut workloads = Vec::new();

    // Scale 1 is 9992 join results; the race is nb = 12 branches deep
    // (τ = 4096 .. 2), matching a paper-realistic global sensitivity well
    // above the largest row activity.
    let ex = example_6_2_scaled(1);
    workloads.push(run_workload("example_6_2", &ex, 12, reps));

    let inst = generate(0.2, 0.3, 0xC0FFEE);
    let q3 = queries::q3();
    let p3 = exec::profile(&q3.schema, &inst, &q3.query).expect("Q3 runs");
    workloads.push(run_workload("tpch_q3", &p3, 12, reps));

    let q10 = queries::q10();
    let p10 = exec::profile(&q10.schema, &inst, &q10.query).expect("Q10 runs");
    workloads.push(run_workload("tpch_q10_projected", &p10, 12, reps));

    for w in &workloads {
        println!(
            "{:<24} results={:<7} cold={:.4}s warm={:.4}s speedup={:.2}x primal_saved={} dual_spent={} max_div={:.2e}",
            w.name,
            w.num_results,
            w.cold_total,
            w.warm_total,
            w.cold_total / w.warm_total.max(1e-12),
            w.primal_iterations_saved,
            w.dual_iterations_spent,
            w.max_divergence
        );
    }

    let body: Vec<&str> = workloads.iter().map(|w| w.json.as_str()).collect();
    let peak_rss = r2t_bench::peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"lp_sweep\",\n  \"reps\": {reps},\n  \"peak_rss_bytes\": {peak_rss},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    write_result("BENCH_lp_sweep.json", &json);
    obs.finish();
}
