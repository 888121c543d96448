//! # r2t-bench — harness shared by the repro binaries and Criterion benches
//!
//! Utilities for reproducing every table and figure of the paper's
//! evaluation: repetition + trimmed-mean error reporting (the paper removes
//! the best/worst 20 of 100 runs; we apply the same 20%/20% trim to the
//! configured repetition count), wall-clock measurement, and plain-text
//! table rendering recorded into `EXPERIMENTS.md`.
//!
//! Environment knobs honoured by all `repro_*` binaries:
//! * `R2T_REPS` — repetitions per cell (default 5).
//! * `R2T_SCALE` — dataset scale multiplier (default 1.0).
//! * `R2T_WORKERS` — join-executor worker threads (default: machine parallelism).
//!
//! Only a run at the default `R2T_REPS` and `R2T_SCALE` updates a committed
//! `results/BENCH_*.json`; see [`write_result`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Repetitions per experiment cell (`R2T_REPS`, default 5).
pub fn reps() -> usize {
    std::env::var("R2T_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(5)
}

/// Dataset scale multiplier (`R2T_SCALE`, default 1.0).
pub fn scale() -> f64 {
    std::env::var("R2T_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0)
}

/// Join-executor worker override (`R2T_WORKERS`). `None` — the default —
/// lets the executor use the machine's available parallelism; setting it
/// forces a fixed fan-out (useful to exercise per-worker telemetry on small
/// machines, or to pin benchmarks to a core count).
pub fn workers() -> Option<usize> {
    std::env::var("R2T_WORKERS").ok().and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), 0 where procfs is unavailable.
///
/// `VmHWM` is a process-lifetime high-water mark: it only ever goes up, so
/// reading it at the end of a run reports the *largest* footprint any phase
/// reached. Benches that need per-phase peaks (e.g. `repro_scale` comparing
/// streamed vs in-memory execution) re-exec themselves and run each phase
/// in a child process.
pub fn peak_rss_bytes() -> u64 {
    r2t_obs::peak_rss_bytes()
}

/// Plain mean of a sample vector.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The 95th-percentile sample (nearest-rank).
pub fn p95(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() as f64 * 0.95).ceil() as usize - 1).min(s.len() - 1)]
}

/// Writes a `repro_*` binary's JSON record and prints where it went. Only a
/// run at the recorded settings — [`reps`] = 5 and [`scale`] = 1.0 — updates
/// the committed `results/<file>`; any other run (a CI smoke, a quick local
/// check) writes `target/bench-smoke/<file>` instead, so reduced-scale runs
/// never overwrite recorded results.
pub fn write_result(file: &str, json: &str) {
    let dir = if reps() == 5 && scale() == 1.0 { "results" } else { "target/bench-smoke" };
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    let path = Path::new(dir).join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// Times one closure under an `r2t-obs` span, returning its result and the
/// elapsed seconds. The single timing idiom shared by every repro binary —
/// the measured section also shows up in the span tree of an `--obs` report.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = r2t_obs::span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Shared `--obs` handling for the repro binaries: call [`obs_init`] first
/// thing in `main` and [`ObsRun::finish`] last. Repro binaries default the
/// runtime level to `counters` (release library builds default to `off`);
/// passing `--obs` raises the default to `full` and writes the run's report
/// — the [`r2t_obs::Delta`] between a snapshot taken here and one taken at
/// [`ObsRun::finish`] — to `results/OBS_<bench>.json`. An explicit
/// `R2T_OBS=` env value always wins over both defaults. `--obs-pretty`
/// additionally prints the human-readable trace.
///
/// The snapshot exporter also starts here when configured through the
/// environment (`R2T_OBS_LISTEN` / `R2T_OBS_JSONL` / `R2T_OBS_INTERVAL_MS`,
/// see [`r2t_obs::exporter::spawn_from_env`]) and is shut down — with a
/// final snapshot flush — by [`ObsRun::finish`].
pub fn obs_init(bench: &'static str) -> ObsRun {
    let write = std::env::args().any(|a| a == "--obs" || a == "--obs-pretty");
    let pretty = std::env::args().any(|a| a == "--obs-pretty");
    let default = if write { r2t_obs::Level::Full } else { r2t_obs::Level::Counters };
    r2t_obs::set_default_level(default);
    if write && !r2t_obs::COMPILED {
        eprintln!(
            "warning: --obs requested but the obs registry is not compiled in; \
             rerun with `--features obs` to get a populated results/OBS_{bench}.json"
        );
    }
    let exporter = r2t_obs::exporter::spawn_from_env();
    if let Some(addr) = exporter.as_ref().and_then(|e| e.local_addr()) {
        println!("# obs exporter serving Prometheus text on http://{addr}/metrics");
    }
    ObsRun { bench, write, pretty, exporter, start: r2t_obs::snapshot() }
}

/// Token returned by [`obs_init`]; finishing it writes/prints the run report
/// as requested.
#[must_use = "call finish() at the end of main to emit the obs report"]
pub struct ObsRun {
    bench: &'static str,
    write: bool,
    pretty: bool,
    exporter: Option<r2t_obs::exporter::ExporterHandle>,
    /// The run's start; event times in the report count from here.
    start: r2t_obs::Snapshot,
}

impl ObsRun {
    /// Shuts down the env-configured exporter, if any, flushing one final
    /// snapshot to its JSONL sink; when `--obs` was passed, writes the
    /// run's report to `results/OBS_<bench>.json` (and prints the pretty
    /// trace under `--obs-pretty`).
    pub fn finish(mut self) {
        if let Some(mut exporter) = self.exporter.take() {
            exporter.shutdown();
        }
        if !self.write {
            return;
        }
        std::fs::create_dir_all("results").expect("results dir");
        let report = r2t_obs::snapshot().delta_since(&self.start);
        let path = format!("results/OBS_{}.json", self.bench);
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        if self.pretty {
            println!("\n{}", report.pretty());
        }
    }
}

/// The paper's trimmed mean: drop the best 20% and worst 20% of the absolute
/// errors, average the rest. Falls back to the plain mean for < 3 samples.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
    let trim = v.len() / 5;
    let kept = &v[trim..v.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The outcome of measuring one mechanism on one workload.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Trimmed-mean relative error in percent.
    pub rel_err_pct: f64,
    /// Mean wall-clock seconds per run.
    pub seconds: f64,
}

impl Cell {
    /// Formats like the paper's tables: error% and time.
    pub fn fmt(&self) -> String {
        format!("{:>12} {:>9}", fmt_sig(self.rel_err_pct), format!("{:.2}s", self.seconds))
    }
}

/// Formats a number to 3 significant digits, paper-style.
pub fn fmt_sig(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == 0.0 {
        return "0".to_string();
    }
    let mag = x.abs().log10().floor() as i32;
    let digits = (2 - mag).max(0) as usize;
    format!("{x:.digits$}")
}

/// Runs `mech` `reps` times against the known true answer, returning the
/// trimmed-mean relative error (%) and mean time. `mech` returns `None` when
/// the mechanism does not support the workload.
pub fn measure<F>(truth: f64, reps: usize, seed: u64, mut mech: F) -> Option<Cell>
where
    F: FnMut(&mut StdRng) -> Option<f64>,
{
    let mut errors = Vec::with_capacity(reps);
    let mut total_time = 0.0;
    for r in 0..reps {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(r as u64 + 1)));
        let (out, secs) = timed("bench.mechanism", || mech(&mut rng));
        let out = out?;
        total_time += secs;
        errors.push((out - truth).abs());
    }
    let err = trimmed_mean(&errors);
    Some(Cell {
        rel_err_pct: 100.0 * err / truth.abs().max(1e-12),
        seconds: total_time / reps as f64,
    })
}

/// Example 6.2's instance scaled `scale`×: `1000·scale` triangles,
/// `1000·scale` 4-cliques, `100·scale` 8-stars, `10·scale` 16-stars and
/// `scale` 32-stars; join results are the weight-1 edges (9992 results per
/// unit of scale). Used by the τ-sweep benchmarks, which want a profile
/// whose truncation LPs are large enough for solver time to dominate.
pub fn example_6_2_scaled(scale: usize) -> r2t_engine::QueryProfile {
    let mut b: r2t_engine::lineage::ProfileBuilder<u64> =
        r2t_engine::lineage::ProfileBuilder::new();
    let mut next_node: u64 = 0;
    let mut clique = |k: u64, count: usize, b: &mut r2t_engine::lineage::ProfileBuilder<u64>| {
        for _ in 0..count {
            let base = next_node;
            next_node += k;
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_result(1.0, [base + i, base + j]);
                }
            }
        }
    };
    clique(3, 1000 * scale, &mut b);
    clique(4, 1000 * scale, &mut b);
    let mut star = |k: u64, count: usize, b: &mut r2t_engine::lineage::ProfileBuilder<u64>| {
        for _ in 0..count {
            let center = next_node;
            next_node += k + 1;
            for i in 1..=k {
                b.add_result(1.0, [center, center + i]);
            }
        }
    };
    star(8, 100 * scale, &mut b);
    star(16, 10 * scale, &mut b);
    star(32, scale, &mut b);
    b.build()
}

/// A fixed-width plain-text table writer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", c, w = width[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &width {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_p95() {
        let v: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert!((mean(&v) - 10.5).abs() < 1e-12);
        assert_eq!(p95(&v), 19.0);
        assert_eq!(p95(&[3.0]), 3.0);
    }

    #[test]
    fn timed_returns_result_and_elapsed() {
        let (out, secs) = timed("bench.test", || 40 + 2);
        assert_eq!(out, 42);
        assert!((0.0..1.0).contains(&secs));
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // 10 values: trim 2 from each end.
        let v: Vec<f64> = vec![1000.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        let m = trimmed_mean(&v);
        assert!((m - 4.5).abs() < 1e-12, "{m}");
    }

    #[test]
    fn trimmed_mean_small_samples() {
        assert_eq!(trimmed_mean(&[3.0]), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn fmt_sig_three_digits() {
        assert_eq!(fmt_sig(0.535), "0.535");
        assert_eq!(fmt_sig(12.34), "12.3");
        assert_eq!(fmt_sig(1370.0), "1370");
        assert_eq!(fmt_sig(0.0), "0");
    }

    #[test]
    fn measure_zero_noise_mechanism() {
        let c = measure(100.0, 5, 1, |_| Some(101.0)).unwrap();
        assert!((c.rel_err_pct - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measure_unsupported_returns_none() {
        assert!(measure(1.0, 3, 1, |_| None).is_none());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("| name   | value |"));
        assert!(s.lines().count() == 4);
    }
}
