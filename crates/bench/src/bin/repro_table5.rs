//! Reproduces **Table 5**: R2T vs the local-sensitivity mechanism (LS) on
//! the ten TPC-H queries, grouped by category (single / multiple primary
//! private relations, SUM aggregation, projection). LS supports only the
//! self-join-free single-PPR queries; other cells print "not supported",
//! exactly as in the paper.
//!
//! `R2T_GS` overrides the assumed global sensitivity (defaults: 2^12 for
//! counting queries, 2^18 for SUM queries — the paper uses 10^6 everywhere,
//! matched to its 100× larger data and value domains).

use r2t_bench::{fmt_sig, measure, obs_init, reps, scale, timed, workers, Table};
use r2t_core::baselines::LocalSensitivitySvt;
use r2t_core::{Mechanism, R2TConfig, R2T};
use r2t_engine::exec::{self, ExecOptions, Source};
use r2t_tpch::{all_queries, generate};

fn main() {
    let obs = obs_init("table5");
    let reps = reps();
    let sf = scale();
    let gs_env: Option<f64> = std::env::var("R2T_GS").ok().and_then(|v| v.parse().ok());
    let inst = generate(sf, 0.3, 0xC0FFEE);
    let gs_label = match gs_env {
        Some(gs) => format!("{gs}"),
        None => "2^12 count / 2^18 sum".to_string(),
    };
    println!(
        "# Table 5 — TPC-H queries (eps = 0.8, GS = {gs_label}, scale = {sf}, reps = {reps}, {} tuples)\n",
        inst.total_tuples()
    );
    let mut table = Table::new(&[
        "query",
        "category",
        "Q(I)",
        "eval (s)",
        "R2T err %",
        "R2T (s)",
        "LS err %",
        "LS (s)",
    ]);
    for tq in all_queries() {
        let gs = gs_env.unwrap_or(if tq.category == r2t_tpch::Category::Aggregation {
            (1u64 << 18) as f64
        } else {
            (1u64 << 12) as f64
        });
        let opts = ExecOptions { workers: workers(), ..ExecOptions::default() };
        let (profile, eval_secs) = timed("bench.eval", || {
            exec::profile_with_stats_src(&tq.schema, Source::Rows(&inst), &tq.query, &opts)
                .expect("query runs")
                .0
        });
        let truth = profile.query_result();

        let r2t =
            R2T::new(R2TConfig::builder(0.8, 0.1, gs).early_stop(true).parallel(false).build());
        let r2t_cell = measure(truth, reps, 0x7A + truth as u64, |rng| r2t.run(&profile, rng))
            .expect("r2t runs");
        let ls = LocalSensitivitySvt { epsilon: 0.8, gs };
        let ls_cell = measure(truth, reps, 0x7B + truth as u64, |rng| ls.run(&profile, rng));
        let (ls_err, ls_time) = match ls_cell {
            Some(c) => (fmt_sig(c.rel_err_pct), format!("{:.2}", c.seconds)),
            None => ("not supported".to_string(), "-".to_string()),
        };
        table.row(&[
            tq.name.to_string(),
            format!("{:?}", tq.category),
            fmt_sig(truth),
            format!("{eval_secs:.2}"),
            fmt_sig(r2t_cell.rel_err_pct),
            format!("{:.2}", r2t_cell.seconds),
            ls_err,
            ls_time,
        ]);
    }
    println!("{}", table.render());
    obs.finish();
}
