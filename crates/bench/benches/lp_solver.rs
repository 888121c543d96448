//! Criterion microbenchmarks for the LP solver on R2T truncation-shaped
//! problems: revised vs dense simplex, and scaling. The τ-sweep's threshold
//! cut is benchmarked through the truncations in `lp_sweep`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use r2t_lp::{DenseSimplex, Problem, RevisedSimplex, RowBounds, VarBounds};
use std::hint::black_box;

/// A truncation LP over a synthetic pattern profile: `n` unit-weight results
/// each referencing `r` of `m` private tuples (round-robin-ish), threshold τ.
fn truncation_lp(n: usize, m: usize, r: usize, tau: f64) -> Problem {
    let mut p = Problem::new();
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for k in 0..n {
        let v = p.add_var(1.0, VarBounds::new(0.0, 1.0));
        for t in 0..r {
            rows[(k * r + t * 7 + k / m) % m].push((v, 1.0));
        }
    }
    for terms in rows {
        if !terms.is_empty() {
            p.add_row(RowBounds::at_most(tau), &terms);
        }
    }
    p
}

fn bench_revised_vs_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver_comparison");
    g.sample_size(10);
    for &n in &[40usize, 120] {
        let p = truncation_lp(n, n / 4, 2, 3.0);
        g.bench_with_input(BenchmarkId::new("dense", n), &p, |b, p| {
            b.iter(|| black_box(DenseSimplex::new().solve(p).expect("solves")))
        });
        g.bench_with_input(BenchmarkId::new("revised", n), &p, |b, p| {
            b.iter(|| black_box(RevisedSimplex::new().solve(p).expect("solves")))
        });
    }
    g.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("revised_scaling");
    g.sample_size(10);
    for &n in &[1_000usize, 4_000, 16_000] {
        let p = truncation_lp(n, n / 8, 3, 4.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter(|| black_box(RevisedSimplex::new().solve(p).expect("solves")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_revised_vs_dense, bench_scaling);
criterion_main!(benches);
