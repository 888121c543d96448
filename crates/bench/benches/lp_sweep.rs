//! Criterion benchmark for the branch sweep: the full descending τ-race
//! solved by the stateless simplex (`value`: one cold solve of each branch's
//! threshold-cut LP over the shared sweep structure) versus the dispatched
//! sweep session (a combinatorial kernel when the LP admits one, else the
//! same cold simplex solves), on the scaled Example 6.2 profile and a
//! TPC-H-derived profile.

use criterion::{criterion_group, criterion_main, Criterion};
use r2t_bench::example_6_2_scaled;
use r2t_core::truncation::for_profile;
use r2t_engine::{exec, QueryProfile};
use r2t_tpch::{generate, queries};
use std::hint::black_box;

/// The τ-race in descending (race) order for `nb` branches.
fn race_taus(nb: u32) -> Vec<f64> {
    (1..=nb).rev().map(|j| (1u64 << j) as f64).collect()
}

fn bench_profile(c: &mut Criterion, group: &str, profile: &QueryProfile, nb: u32) {
    let t = for_profile(profile);
    let taus = race_taus(nb);
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("stateless", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &tau in &taus {
                acc += t.value(tau);
            }
            black_box(acc)
        })
    });
    g.bench_function("session", |b| {
        b.iter(|| {
            let mut session = t.sweep_session().expect("LP truncations support sweeps");
            let mut acc = 0.0;
            for &tau in &taus {
                acc += session.value(tau);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_example_6_2(c: &mut Criterion) {
    let profile = example_6_2_scaled(1);
    bench_profile(c, "lp_sweep_example62", &profile, 12);
}

fn bench_tpch(c: &mut Criterion) {
    let inst = generate(0.2, 0.3, 0xC0FFEE);
    let tq = queries::q3();
    let profile = exec::profile(&tq.schema, &inst, &tq.query).expect("Q3 runs");
    bench_profile(c, "lp_sweep_tpch_q3", &profile, 12);
}

criterion_group!(benches, bench_example_6_2, bench_tpch);
criterion_main!(benches);
