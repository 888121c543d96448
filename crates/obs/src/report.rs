//! What a run report carries beyond metrics: discrete events with their
//! attributes, and the human-readable rendering of a [`Delta`].
//!
//! Everything in a report is built from `&'static str` metric names,
//! numbers, and booleans — the recording API deliberately cannot carry
//! runtime strings, so raw tuple values can never end up in a report by
//! construction (see the crate docs for the full DP-safety rules).

use crate::snapshot::{write_json_f64, write_json_str};
use crate::Delta;
use std::fmt::Write as _;

/// An attribute value attached to a discrete [`Event`].
///
/// Strings are restricted to `&'static str` on purpose: attribute *labels*
/// (outcomes, reasons, stage kinds) are compile-time constants, so private
/// database values cannot flow into telemetry through this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attr {
    /// Unsigned integer (counts, sizes, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point (τ values, seconds, released outputs).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Compile-time string label.
    Str(&'static str),
}

impl Attr {
    fn write_json(&self, out: &mut String) {
        match *self {
            Attr::U64(v) => write!(out, "{v}").unwrap(),
            Attr::I64(v) => write!(out, "{v}").unwrap(),
            Attr::F64(v) => write_json_f64(out, v),
            Attr::Bool(v) => write!(out, "{v}").unwrap(),
            Attr::Str(s) => write_json_str(out, s),
        }
    }
}

/// A discrete lifecycle event recorded at [`crate::Level::Full`].
#[derive(Debug, Clone)]
pub struct Event {
    /// Seconds since the earlier snapshot of the [`Delta`] holding it.
    pub t_secs: f64,
    /// Span-qualified event path (e.g. `r2t.run/r2t.branch`).
    pub path: String,
    /// Attribute key/value pairs.
    pub attrs: Vec<(&'static str, Attr)>,
}

impl Event {
    /// One JSON object: `{"t", "path", …attrs}`.
    pub(crate) fn write_json(&self, out: &mut String) {
        write!(out, "{{\"t\": {:.6}, \"path\": ", self.t_secs).unwrap();
        write_json_str(out, &self.path);
        for (k, v) in &self.attrs {
            out.push_str(", ");
            write_json_str(out, k);
            out.push_str(": ");
            v.write_json(out);
        }
        out.push('}');
    }
}

impl Delta {
    /// Renders a human-readable trace summary (counters, gauges, histograms,
    /// span tree, event tail) for terminal output.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "obs report — level {}, {:.3}s wall, {} events",
            self.level.as_str(),
            self.interval_ms as f64 / 1e3,
            self.events.len()
        )
        .unwrap();
        for (title, map) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            if !map.is_empty() {
                writeln!(out, "{title}:").unwrap();
                for (k, v) in map {
                    writeln!(out, "  {k:<36} {v}").unwrap();
                }
            }
        }
        if !self.hists.is_empty() {
            writeln!(out, "histograms:").unwrap();
            for (k, h) in &self.hists {
                writeln!(
                    out,
                    "  {k:<36} n={} p50={} p99={} max={}",
                    h.count,
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max_bound()
                )
                .unwrap();
            }
        }
        if !self.spans.is_empty() {
            writeln!(out, "spans:").unwrap();
            for (path, h) in &self.spans {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                writeln!(
                    out,
                    "  {:indent$}{name:<width$} n={} total={:.6}s max={:.6}s",
                    "",
                    h.count,
                    h.sum as f64 / 1e9,
                    h.max_bound() as f64 / 1e9,
                    indent = 2 * depth,
                    width = 34usize.saturating_sub(2 * depth),
                )
                .unwrap();
            }
        }
        for ev in self.events.iter().rev().take(12).rev() {
            write!(out, "  [{:>9.6}s] {}", ev.t_secs, ev.path).unwrap();
            for (k, v) in &ev.attrs {
                let mut s = String::new();
                v.write_json(&mut s);
                write!(out, " {k}={s}").unwrap();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistSnapshot, Level};

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        write_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_shape() {
        let mut d = Delta { level: Level::Full, ..Delta::default() };
        d.counters.insert("x.count", 3);
        d.gauges.insert("x.peak", 9);
        d.hists.insert("x.ns", HistSnapshot { count: 1, sum: 7, buckets: vec![(7, 1)] });
        d.spans.insert("a/b", HistSnapshot { count: 2, sum: 40, buckets: vec![(20, 2)] });
        d.events.push(Event {
            t_secs: 0.25,
            path: "a/ev".to_string(),
            attrs: vec![("tau", Attr::F64(4.0)), ("why", Attr::Str("cutoff"))],
        });
        let json = d.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("obs_level").and_then(|l| l.as_str()), Some("full"));
        assert_eq!(
            v.get("counters").and_then(|c| c.get("x.count")).and_then(|n| n.as_u64()),
            Some(3)
        );
        assert_eq!(v.get("gauges").and_then(|g| g.get("x.peak")).and_then(|n| n.as_u64()), Some(9));
        assert!(v.get("hists").and_then(|h| h.get("x.ns")).is_some());
        assert_eq!(
            v.get("spans").and_then(|s| s.get("a/b")).and_then(|h| h.get("count")),
            Some(&crate::json::Value::Number(2.0))
        );
        let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
        assert_eq!(events[0].get("why").and_then(|w| w.as_str()), Some("cutoff"));
        // Non-finite floats must not produce invalid JSON.
        let mut s = String::new();
        Attr::F64(f64::INFINITY).write_json(&mut s);
        assert_eq!(s, "null");
    }

    #[test]
    fn pretty_mentions_counters_and_events() {
        let mut d = Delta { level: Level::Full, ..Delta::default() };
        d.counters.insert("k", 7);
        d.spans.insert("outer/inner", HistSnapshot { count: 1, sum: 5, buckets: vec![(5, 1)] });
        d.events.push(Event { t_secs: 0.0, path: "e".into(), attrs: vec![] });
        let p = d.pretty();
        assert!(p.contains("level full"));
        assert!(p.contains('k'));
        assert!(p.contains("    inner"), "span tree indents children: {p}");
        assert!(p.contains("] e"));
    }
}
