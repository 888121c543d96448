//! `obs-check` — schema validator for every observability artifact the
//! repro binaries and the snapshot exporter write.
//!
//! One tool, one schema. Both artifacts come from the one JSON writer in
//! `r2t-obs`: `results/OBS_*.json` is a run report ([`r2t_obs::Delta`]) and
//! the exporter's JSONL holds one [`r2t_obs::Snapshot`] per line. This
//! binary parses each with [`r2t_obs::json`] and checks the sections they
//! share the same way:
//!
//! * `counters` and `gauges`: maps of name → non-negative integer;
//! * `polled`: maps of metric → label → number (or `null`);
//! * `hists` and `spans`: maps of name → `{count, sum, p50, p90, p99, p999,
//!   max, buckets}` with integer fields, ordered quantiles and `count` equal
//!   to the bucket total.
//!
//! On top of that, a run report needs `obs_level` ∈ {off, counters, spans,
//! full}, `compiled` bool, `from_seq` ≤ `to_seq`, `interval_ms`, and
//! `events`, an array of `{t, path, …attrs}` objects with non-decreasing
//! `t`. A snapshot stream needs per line `seq` and `unix_ms`; *across*
//! lines, `seq` strictly increases and every counter and histogram count is
//! non-decreasing (the registry never resets).
//!
//! Usage: `obs_check [FILE...]`. With no arguments it validates every
//! `results/OBS_*.json` present (and succeeds vacuously when none exist, so
//! it can run before any bench). Files ending in `.jsonl` are validated as
//! snapshot streams, everything else as run reports. Exits non-zero with one
//! line per failure.

use r2t_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const LEVELS: [&str; 4] = ["off", "counters", "spans", "full"];

fn main() {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() { default_files() } else { args };

    let mut failures = 0usize;
    for path in &files {
        let errs = check_file(path);
        if errs.is_empty() {
            println!("obs-check: {} ok", path.display());
        } else {
            failures += errs.len();
            for e in errs {
                eprintln!("obs-check: {}: {e}", path.display());
            }
        }
    }
    println!("obs-check: {} file(s), {} error(s)", files.len(), failures);
    if failures > 0 {
        std::process::exit(1);
    }
}

/// All `results/OBS_*.json` artifacts, in stable order.
fn default_files() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir("results")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("OBS_") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

fn check_file(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    if path.extension().is_some_and(|e| e == "jsonl") {
        check_snapshot_jsonl(&text)
    } else {
        check_report(&text)
    }
}

/// Hist and span-hist counts by section and name, for the cross-line
/// monotonicity check (reports pass a throwaway map).
type HistCounts = BTreeMap<(&'static str, String), u64>;

/// The sections every artifact shares. `at` prefixes every error (the JSONL
/// checker passes the line number, reports pass "").
fn check_metrics(v: &Value, at: &str, hist_counts: &mut HistCounts, errs: &mut Vec<String>) {
    for key in ["counters", "gauges"] {
        match v.get(key).and_then(Value::as_object) {
            None => errs.push(format!("{at}{key}: missing or not an object")),
            Some(m) => {
                for (name, val) in m {
                    if val.as_u64().is_none() {
                        errs.push(format!("{at}{key}[{name:?}]: not a non-negative integer"));
                    }
                }
            }
        }
    }
    match v.get("polled").and_then(Value::as_object) {
        None => errs.push(format!("{at}polled: missing or not an object")),
        Some(polled) => {
            for (name, rows) in polled {
                match rows.as_object() {
                    None => errs.push(format!("{at}polled[{name:?}]: not an object")),
                    Some(rows) => {
                        for (label, value) in rows {
                            if value.as_f64().is_none() && *value != Value::Null {
                                errs.push(format!("{at}polled[{name:?}][{label:?}]: not a number"));
                            }
                        }
                    }
                }
            }
        }
    }
    for key in ["hists", "spans"] {
        match v.get(key).and_then(Value::as_object) {
            None => errs.push(format!("{at}{key}: missing or not an object")),
            Some(hists) => {
                for (name, h) in hists {
                    let Some(count) = check_hist(&format!("{at}{key}[{name:?}]"), h, errs) else {
                        continue;
                    };
                    if let Some(prev) = hist_counts.insert((key, name.clone()), count) {
                        if count < prev {
                            errs.push(format!(
                                "{at}{key}[{name:?}].count decreased ({prev} -> {count})"
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Checks one histogram object; returns its count when that is valid.
fn check_hist(at: &str, h: &Value, errs: &mut Vec<String>) -> Option<u64> {
    let Some(count) = h.get("count").and_then(Value::as_u64) else {
        errs.push(format!("{at}.count: missing or not an integer"));
        return None;
    };
    if h.get("sum").and_then(Value::as_u64).is_none() {
        errs.push(format!("{at}.sum: missing or not an integer"));
    }
    let q: Vec<Option<u64>> = ["p50", "p90", "p99", "p999", "max"]
        .iter()
        .map(|k| h.get(k).and_then(Value::as_u64))
        .collect();
    if q.iter().any(Option::is_none) {
        errs.push(format!("{at}: p50/p90/p99/p999/max must be integers"));
    } else {
        let q: Vec<u64> = q.into_iter().flatten().collect();
        if !(q[0] <= q[1] && q[1] <= q[2] && q[2] <= q[3]) {
            errs.push(format!("{at}: quantiles not ordered ({q:?})"));
        }
    }
    match h.get("buckets").and_then(Value::as_array) {
        None => errs.push(format!("{at}.buckets: missing or not an array")),
        Some(buckets) => {
            let mut total = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                match b.as_array() {
                    Some([idx, cnt]) if idx.as_u64().is_some() && cnt.as_u64().is_some() => {
                        total += cnt.as_u64().unwrap();
                    }
                    _ => errs.push(format!("{at}.buckets[{i}]: expected [index, count]")),
                }
            }
            if total != count {
                errs.push(format!("{at}: bucket total {total} != count {count}"));
            }
        }
    }
    Some(count)
}

// ------------------------------------------------------------ run reports

fn check_report(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![e.to_string()],
    };
    if v.as_object().is_none() {
        return vec!["report: top level is not an object".into()];
    }
    match v.get("obs_level").and_then(Value::as_str) {
        Some(l) if LEVELS.contains(&l) => {}
        Some(l) => errs.push(format!("obs_level: unknown level {l:?}")),
        None => errs.push("obs_level: missing or not a string".into()),
    }
    if !matches!(v.get("compiled"), Some(Value::Bool(_))) {
        errs.push("compiled: missing or not a bool".into());
    }
    let seq = |k: &str| v.get(k).and_then(Value::as_u64);
    match (seq("from_seq"), seq("to_seq")) {
        (Some(from), Some(to)) if from <= to => {}
        (Some(from), Some(to)) => errs.push(format!("from_seq {from} > to_seq {to}")),
        _ => errs.push("from_seq/to_seq: missing or not integers".into()),
    }
    if seq("interval_ms").is_none() {
        errs.push("interval_ms: missing or not an integer".into());
    }
    check_metrics(&v, "", &mut HistCounts::new(), &mut errs);

    match v.get("events").and_then(Value::as_array) {
        None => errs.push("events: missing or not an array".into()),
        Some(events) => {
            let mut last_t = 0.0f64;
            for (i, ev) in events.iter().enumerate() {
                match ev.get("t").and_then(Value::as_f64) {
                    Some(t) if t >= last_t => last_t = t,
                    Some(t) => {
                        errs.push(format!("events[{i}].t: {t} < previous {last_t} (not sorted)"))
                    }
                    None => errs.push(format!("events[{i}].t: missing or not a number")),
                }
                if ev.get("path").and_then(Value::as_str).is_none() {
                    errs.push(format!("events[{i}].path: missing or not a string"));
                }
            }
        }
    }
    errs
}

// ------------------------------------------------------- snapshot JSONL

fn check_snapshot_jsonl(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut last_ms: u64 = 0;
    let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_counts = HistCounts::new();
    let mut lines = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let n = lineno + 1;
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errs.push(format!("line {n}: {e}"));
                continue;
            }
        };
        match v.get("seq").and_then(Value::as_u64) {
            Some(seq) => {
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        errs.push(format!("line {n}: seq {seq} <= previous {prev}"));
                    }
                }
                last_seq = Some(seq);
            }
            None => errs.push(format!("line {n}: seq missing or not an integer")),
        }
        match v.get("unix_ms").and_then(Value::as_u64) {
            Some(ms) => {
                if ms < last_ms {
                    errs.push(format!("line {n}: unix_ms {ms} went backwards"));
                }
                last_ms = ms;
            }
            None => errs.push(format!("line {n}: unix_ms missing or not an integer")),
        }
        check_metrics(&v, &format!("line {n}: "), &mut hist_counts, &mut errs);
        // Counters are cumulative: a decrease means the registry reset.
        if let Some(m) = v.get("counters").and_then(Value::as_object) {
            for (name, val) in m {
                if let Some(cur) = val.as_u64() {
                    if let Some(prev) = last_counters.insert(name.clone(), cur) {
                        if cur < prev {
                            errs.push(format!(
                                "line {n}: counter {name:?} decreased ({prev} -> {cur})"
                            ));
                        }
                    }
                }
            }
        }
    }
    if lines == 0 {
        errs.push("empty: no snapshot lines".into());
    }
    errs
}
