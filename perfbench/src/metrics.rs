//! The metric sets: end-to-end (untraced runs) and per-layer (traced runs).
//! Every workload reports every name of the set its run mode prints.

use crate::replay::Counts;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Metric;

/// What an untraced run measured.
#[derive(Default)]
pub struct EndToEnd {
    /// Seconds per cold set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per answered request.
    pub answer_ms: Vec<f64>,
    /// Answered requests, and the client time spent on them.
    pub answers: u64,
    pub busy_s: f64,
    /// Milliseconds per applied write.
    pub write_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub rel_error_pct: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let tail = |samples: &[f64], p: f64, what: &str| {
            percentile(samples, p).ok_or_else(|| {
                format!("{} {what} samples leave fewer than ten beyond p{p}", samples.len())
            })
        };
        Ok(vec![
            Metric { name: "setup_s", value: median(&self.setup_s), unit: "s" },
            Metric {
                name: "answer_p50_ms",
                value: tail(&self.answer_ms, 50.0, "answer")?,
                unit: "ms",
            },
            Metric {
                name: "answer_p90_ms",
                value: tail(&self.answer_ms, 90.0, "answer")?,
                unit: "ms",
            },
            Metric { name: "answers_per_s", value: self.answers as f64 / self.busy_s, unit: "1/s" },
            Metric {
                name: "write_p50_ms",
                value: tail(&self.write_ms, 50.0, "write")?,
                unit: "ms",
            },
            Metric {
                name: "write_p90_ms",
                value: tail(&self.write_ms, 90.0, "write")?,
                unit: "ms",
            },
            Metric { name: "peak_rss_mb", value: self.peak_rss_mb, unit: "MB" },
            Metric { name: "rel_error_pct", value: self.rel_error_pct, unit: "%" },
        ])
    }
}

/// Median relative error, in percent, of noisy answers to one exact value.
pub fn rel_error_pct(noisy: &[f64], exact: f64) -> Result<f64, String> {
    if exact == 0.0 {
        return Err("an accuracy statement has an exact answer of 0".to_string());
    }
    let errors: Vec<f64> = noisy.iter().map(|n| 100.0 * (n - exact).abs() / exact.abs()).collect();
    Ok(median(&errors))
}

/// What a traced run recorded besides its spans.
#[derive(Default)]
pub struct TraceTotals {
    pub counts: Counts,
    /// Statements whose profile the replay derived.
    pub statements: u64,
    /// Milliseconds per `Session::prepare` that missed the cache.
    pub prepare_miss_ms: Vec<f64>,
    /// Prepares in the measured loop, and how many hit the cache.
    pub prepares: u64,
    pub hits: u64,
    /// Untraced end-to-end time of the measured requests: the service
    /// calls themselves, with no span inside them.
    pub untraced_ns: u64,
    /// The replays that were repeated without recording spans, timed with
    /// spans (`traced_ns`) and without (`plain_ns`).
    pub traced_ns: u64,
    pub plain_ns: u64,
}

/// Median of per-operation self time, 0 where the workload never entered
/// the layer.
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn per_layer(t: &Tracer, totals: &TraceTotals) -> Vec<Metric> {
    let ms = |name: &str| median_or_zero(&t.self_ms_per_op(name));
    let us = |name: &str| 1e3 * ms(name);
    let c = &totals.counts;
    let per_statement = |n: u64| n as f64 / totals.statements.max(1) as f64;
    let sweeps: u64 = c.kernels.iter().sum();
    let untraced = totals.untraced_ns.max(1) as f64;
    let plain = totals.plain_ns.max(1) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sql.parse_ms", ms("sql.parse"), "ms"),
        m("engine.open_ms", ms("engine.open"), "ms"),
        m("engine.join_ms", ms("engine.join"), "ms"),
        m("engine.join_results", ratio(c.join_results, c.exec_calls), "count"),
        m("engine.peak_bindings", c.peak_bindings as f64, "count"),
        m("engine.wcoj_ms", ms("engine.wcoj"), "ms"),
        m("engine.view_build_ms", ms("engine.view_build"), "ms"),
        m("engine.view_apply_ms", ms("engine.view_apply"), "ms"),
        m("engine.integrity_ms", ms("engine.integrity"), "ms"),
        m("engine.materialize_ms", ms("engine.materialize"), "ms"),
        m("lp.presolve_ms", ms("lp.presolve"), "ms"),
        m("lp.branches_ms", ms("lp.branches"), "ms"),
        m("lp.simplex_iters", per_statement(c.simplex_iters), "count"),
        m("lp.warm_accept_ratio", ratio(c.warm_accepted, c.warm_attempts), "ratio"),
        m("lp.kernel_closed_form", ratio(c.kernels[0], sweeps), "ratio"),
        m("lp.kernel_matching", ratio(c.kernels[1], sweeps), "ratio"),
        m("lp.kernel_simplex", ratio(c.kernels[2], sweeps), "ratio"),
        m("lp.resweep_ms", ms("lp.resweep"), "ms"),
        m("core.charge_us", us("core.charge"), "us"),
        m("core.noise_us", us("core.noise"), "us"),
        m("core.patch_ms", ms("core.patch"), "ms"),
        m("core.patch_hit_ratio", ratio(c.patched_fast, c.touched), "ratio"),
        m("service.prepare_ms", median_or_zero(&totals.prepare_miss_ms), "ms"),
        m("service.cache_hit_ratio", ratio(totals.hits, totals.prepares), "ratio"),
        m("service.apply_ms", ms("service.apply"), "ms"),
        // The service call and its replay are two runs of the same work:
        // negative when the replay's layer spans took longer than the
        // service call they stand for.
        m(
            "service.unattributed_pct",
            100.0 * (totals.untraced_ns as f64 - t.layer_covered_ns() as f64) / untraced,
            "%",
        ),
        m(
            "trace.overhead_pct",
            100.0 * (totals.traced_ns as f64 - totals.plain_ns as f64) / plain,
            "%",
        ),
    ]
}
