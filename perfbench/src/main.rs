//! End-to-end benchmark of the R2T serving stack.
//!
//! ```text
//! r2t-perfbench --workload <adhoc_join|adhoc_lp|serve_rw> --seed <n>
//!               --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! One closed-loop client drives the public `r2t-service` API for
//! `--seconds`. With `--trace 0` the run reports the end-to-end metrics;
//! with `--trace 1` it replays the same requests through each layer's
//! public entry points and reports per-layer metrics instead, writing its
//! spans under `--out`. Every correctness gate is checked before anything
//! is printed; the last line of standard output is one JSON object. The
//! process expects to be pinned to one CPU (`run.py` pins it).

mod adhoc;
mod client;
mod metrics;
mod replay;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;
mod writes;

use r2t_core::R2TConfig;
use r2t_service::SessionOptions;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// ε charged per answer (the paper's Table 5 setting).
pub const EPSILON: f64 = 0.8;
/// A budget no run can exhaust: refusals would be failures, not load.
pub const TOTAL_EPSILON: f64 = 1e15;

/// The library-default mechanism at ε = 0.8, β = 0.1, `GS_Q` = 10⁶
/// (20 branches).
pub fn config() -> R2TConfig {
    R2TConfig::new(EPSILON, 0.1, 1e6)
}

/// A database session with an ample budget and noise rooted at `seed`.
pub fn session_options(seed: u64) -> SessionOptions {
    SessionOptions::new().total_epsilon(TOTAL_EPSILON).base(config()).seed(seed)
}

/// The noise seed of the session a client opens after its `round`-th write.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocJoin,
    AdhocLp,
    ServeRw,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocJoin => "adhoc_join",
            Workload::AdhocLp => "adhoc_lp",
            Workload::ServeRw => "serve_rw",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// TPC-H-lite scale override for the self-tests; `None` runs each
    /// workload at its own scale.
    pub scale: Option<f64>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut out) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        [Workload::AdhocJoin, Workload::AdhocLp, Workload::ServeRw]
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must lie in (0, 60], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out: out.ok_or("--out is required")?,
            scale: None,
        })
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints once every gate has passed.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Report, String> {
    // Pinned, the executor and the serving pool run inline: parallel
    // speed-ups are not what this benchmark measures.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if cores != 1 {
        return Err(format!("expected to run pinned to one CPU, found {cores} available"));
    }
    let cpu = sys::current_cpu()?;
    let steal_before = sys::steal_jiffies(cpu)?;
    let report = measure(args)?;
    let steal = sys::steal_jiffies(cpu)?.saturating_sub(steal_before);
    // Diagnostics, not metrics: they say whether the host disturbed the run.
    println!("{{\"diagnostics\": {{\"cpu\": {cpu}, \"steal_jiffies\": {steal}}}}}");
    Ok(report)
}

fn measure(args: &Args) -> Result<Report, String> {
    match args.workload {
        Workload::AdhocJoin => adhoc::run(args, stream::Mix::Join),
        Workload::AdhocLp => adhoc::run(args, stream::Mix::Lp),
        Workload::ServeRw => serve::run(args),
    }
}

fn render(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not a finite number: {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", render(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(argv("--workload serve_rw --seed 4 --seconds 10 --trace 1 --out o"))
            .unwrap();
        assert_eq!(a.workload, Workload::ServeRw);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(
            Args::parse(argv("--workload nope --seed 1 --seconds 1 --trace 0 --out o")).is_err()
        );
        assert!(Args::parse(argv("--workload adhoc_lp --seed 1 --trace 0 --out o")).is_err());
    }

    #[test]
    fn renders_one_json_object() {
        let line = render(&Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s", value: 0.25, unit: "s" },
                Metric { name: "answers_per_s", value: 12.5, unit: "1/s" },
            ],
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"answers_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }

    /// Every workload, untraced and traced, at a small scale and with two
    /// seeds: all correctness gates pass and the metric sets agree.
    #[test]
    fn a_second_seed_yields_the_same_metric_names_and_units() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{}", std::process::id()));
        for workload in [Workload::AdhocJoin, Workload::AdhocLp, Workload::ServeRw] {
            for trace in [false, true] {
                let names = |seed| {
                    let args = Args {
                        workload,
                        seed,
                        seconds: 0.01,
                        trace,
                        out: out.clone(),
                        scale: Some(0.05),
                    };
                    let report = measure(&args).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
                    assert_eq!(report.failed, 0);
                    report.metrics.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>()
                };
                let first = names(1);
                assert_eq!(first, names(2), "{workload:?} trace={trace}");
                assert_eq!(first.len(), if trace { 27 } else { 8 });
            }
        }
        std::fs::remove_dir_all(&out).expect("self-test output removed");
    }
}
