//! Criterion benchmarks for the columnar parallel join executor against the
//! row-at-a-time reference executor: graph pattern counting (Triangle on a
//! preferential-attachment graph) and a TPC-H lineage profile (Q3).

use criterion::{criterion_group, criterion_main, Criterion};
use r2t_engine::exec::{profile_reference, profile_with_stats_src, ExecOptions, Source};
use r2t_engine::schema::graph_schema_node_dp;
use r2t_graph::generators::preferential_attachment;
use r2t_graph::patterns::to_instance;
use r2t_graph::Pattern;
use r2t_tpch::{generate, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_graph_pattern(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = preferential_attachment(1500, 4, &mut rng);
    let schema = graph_schema_node_dp();
    let inst = to_instance(&g);
    let query = Pattern::Triangle.to_query();
    let mut grp = c.benchmark_group("join_exec_triangle_pa1500");
    grp.sample_size(10);
    grp.bench_function("reference", |b| {
        b.iter(|| black_box(profile_reference(&schema, &inst, &query).expect("reference")))
    });
    let seq = ExecOptions { workers: Some(1), ..Default::default() };
    grp.bench_function("columnar_1thread", |b| {
        b.iter(|| {
            black_box(
                profile_with_stats_src(&schema, Source::Rows(&inst), &query, &seq)
                    .expect("columnar"),
            )
        })
    });
    let par = ExecOptions::default();
    grp.bench_function("columnar_parallel", |b| {
        b.iter(|| {
            black_box(
                profile_with_stats_src(&schema, Source::Rows(&inst), &query, &par)
                    .expect("columnar"),
            )
        })
    });
    grp.finish();
}

fn bench_tpch_q3(c: &mut Criterion) {
    let inst = generate(0.1, 0.3, 0xC0FFEE);
    let q3 = queries::q3();
    let mut grp = c.benchmark_group("join_exec_tpch_q3");
    grp.sample_size(10);
    grp.bench_function("reference", |b| {
        b.iter(|| black_box(profile_reference(&q3.schema, &inst, &q3.query).expect("reference")))
    });
    let par = ExecOptions::default();
    grp.bench_function("columnar_parallel", |b| {
        b.iter(|| {
            black_box(
                profile_with_stats_src(&q3.schema, Source::Rows(&inst), &q3.query, &par)
                    .expect("columnar"),
            )
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_graph_pattern, bench_tpch_q3);
criterion_main!(benches);
