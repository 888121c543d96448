//! The registry's read side: point-in-time snapshots, the deltas between
//! them, and their JSON and Prometheus renderings.
//!
//! Every [`crate::counter_add`] / [`crate::gauge_max`] /
//! [`crate::hist_record`] / [`crate::span`] lands in a global, **cumulative**
//! registry of striped atomics (the `live` module below), and every
//! `full`-level [`crate::event`] in its bounded event log. Any thread can fold
//! the registry into an immutable [`Snapshot`] at any moment — without
//! stopping writers, without a lock on the record path, and without ever
//! resetting (snapshot counters are monotone for the process lifetime).
//!
//! # Snapshots and deltas
//!
//! [`crate::snapshot`] assigns a fresh monotone sequence number and folds
//! every registered counter, gauge, histogram, span histogram and *gauge
//! provider* (a pull callback, e.g. the serving tier's per-tenant ε gauges)
//! into a [`Snapshot`], plus the event log's current position — never the
//! events themselves. Two snapshots subtract into a [`Delta`]: counter and
//! histogram increments, the gauges that rose, and the events logged in
//! between. A delta is what the repro binaries write as
//! `results/OBS_<bench>.json`; the exporter emits the snapshots themselves
//! as JSONL. Both go through the one writer in this module, and `obs_check`
//! validates them against one schema.
//!
//! # DP-safety
//!
//! The registry holds only what the call sites record under `&'static str`
//! names, plus polled gauges whose values are *released or public by
//! definition* — spent/remaining ε (covered budget), cache sizes, pool
//! occupancy. Reading it takes no lock any serving path holds and touches no
//! RNG, so exporting can never perturb a released answer;
//! `tests/obs_differential.rs` pins that bit-for-bit.

use crate::hist::HistSnapshot;
use crate::{Event, Level};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time, immutable view of the telemetry registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotone snapshot sequence number (process-wide, starts at 1).
    pub seq: u64,
    /// Milliseconds since the Unix epoch when the snapshot was taken.
    /// Operational timestamp only — nothing deterministic reads it.
    pub unix_ms: u64,
    /// The instrumentation level when the snapshot was taken.
    pub level: Level,
    /// Cumulative counters since process start, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water-mark gauges, by name.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Pull-gauges from registered providers: metric name → `(label, value)`
    /// rows (label `""` renders unlabeled). E.g. per-tenant ε gauges.
    pub polled: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Histograms, by name.
    pub hists: BTreeMap<&'static str, HistSnapshot>,
    /// Span durations in nanoseconds, by `/`-joined span path.
    pub spans: BTreeMap<&'static str, HistSnapshot>,
    /// Events logged before this snapshot (the event log's position).
    #[cfg(feature = "enabled")]
    pub(crate) events_end: u64,
    /// Nanoseconds since the registry's monotonic epoch (event time base).
    #[cfg(feature = "enabled")]
    pub(crate) uptime_ns: u64,
}

/// The difference between two [`Snapshot`]s of the same process: what was
/// recorded in the interval. A run's report is the delta between snapshots
/// taken at its start and end.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// `seq` of the earlier snapshot.
    pub from_seq: u64,
    /// `seq` of the later snapshot.
    pub to_seq: u64,
    /// Interval length in milliseconds (0 if clocks disagree).
    pub interval_ms: u64,
    /// The instrumentation level at the end of the interval.
    pub level: Level,
    /// Counter increments over the interval (absent counters count as 0).
    pub counters: BTreeMap<&'static str, u64>,
    /// The gauges that rose during the interval, at their high-water marks.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Latest polled gauge rows.
    pub polled: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Histogram increments over the interval.
    pub hists: BTreeMap<&'static str, HistSnapshot>,
    /// Span-histogram increments over the interval, by span path.
    pub spans: BTreeMap<&'static str, HistSnapshot>,
    /// The events logged in the interval, in time order, timed in seconds
    /// from the earlier snapshot. Events the log evicted before the delta
    /// was taken are missing here and counted on `obs.events.dropped`.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.polled.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// What was recorded between `earlier` and `self` (`self` taken later):
    /// counter and histogram increments, the gauges that rose, and the
    /// events the process logged in between, copied out of the event log.
    pub fn delta_since(&self, earlier: &Snapshot) -> Delta {
        let mut counters = BTreeMap::new();
        for (&k, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                counters.insert(k, d);
            }
        }
        let gauges = self
            .gauges
            .iter()
            .filter(|&(k, &v)| v > earlier.gauges.get(k).copied().unwrap_or(0))
            .map(|(&k, &v)| (k, v))
            .collect();
        #[cfg(feature = "enabled")]
        let events = live::events(earlier.events_end..self.events_end, earlier.uptime_ns);
        #[cfg(not(feature = "enabled"))]
        let events = Vec::new();
        Delta {
            from_seq: earlier.seq,
            to_seq: self.seq,
            interval_ms: self.unix_ms.saturating_sub(earlier.unix_ms),
            level: self.level,
            counters,
            gauges,
            polled: self.polled.clone(),
            hists: hists_since(&self.hists, &earlier.hists),
            spans: hists_since(&self.spans, &earlier.spans),
            events,
        }
    }

    /// Serializes the snapshot as one self-contained JSON object on a single
    /// line (JSONL-friendly). Schema: `{"seq", "unix_ms", "counters",
    /// "gauges", "polled", "hists", "spans"}` with each histogram as
    /// `{"count", "sum", "p50", "p90", "p99", "p999", "max", "buckets":
    /// [[idx, n], …]}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new(", ");
        write!(o.key("seq"), "{}", self.seq).unwrap();
        write!(o.key("unix_ms"), "{}", self.unix_ms).unwrap();
        write_metrics(&mut o, &self.counters, &self.gauges, &self.polled, &self.hists, &self.spans);
        o.finish()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `counter`, gauges and polled gauges as
    /// `gauge`, histograms as `summary` quantile series with `_sum` and
    /// `_count`, and span histograms as one `r2t_span_ns` summary labelled
    /// by `path`. Metric names are prefixed `r2t_` and `.`-separators become
    /// `_`; label values are escaped per the format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} counter\n{m} {v}").unwrap();
        }
        for (name, v) in &self.gauges {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} gauge\n{m} {v}").unwrap();
        }
        for (name, rows) in &self.polled {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} gauge").unwrap();
            for (label, value) in rows {
                if label.is_empty() {
                    writeln!(out, "{m} {}", prom_f64(*value)).unwrap();
                } else {
                    writeln!(out, "{m}{{tenant=\"{}\"}} {}", escape_label(label), prom_f64(*value))
                        .unwrap();
                }
            }
        }
        for (name, h) in &self.hists {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} summary").unwrap();
            write_summary(&mut out, &m, "", h);
        }
        if !self.spans.is_empty() {
            writeln!(out, "# TYPE r2t_span_ns summary").unwrap();
            for (path, h) in &self.spans {
                write_summary(
                    &mut out,
                    "r2t_span_ns",
                    &format!("path=\"{}\"", escape_label(path)),
                    h,
                );
            }
        }
        out
    }
}

impl Delta {
    /// Whether nothing was recorded in the interval (polled rows are current
    /// state, not records, and do not count).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
    }

    /// Serializes the delta as one JSON object with one section per line
    /// and one event per line: the interval fields, `obs_level`, `compiled`,
    /// then the same `counters`/`gauges`/`polled`/`hists`/`spans` sections as
    /// [`Snapshot::to_json`], then `events` as `{"t", "path", …attrs}`
    /// objects. This is the `results/OBS_<bench>.json` format.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new(",\n ");
        write!(o.key("from_seq"), "{}", self.from_seq).unwrap();
        write!(o.key("to_seq"), "{}", self.to_seq).unwrap();
        write!(o.key("interval_ms"), "{}", self.interval_ms).unwrap();
        write_json_str(o.key("obs_level"), self.level.as_str());
        write!(o.key("compiled"), "{}", crate::COMPILED).unwrap();
        write_metrics(&mut o, &self.counters, &self.gauges, &self.polled, &self.hists, &self.spans);
        let out = o.key("events");
        out.push('[');
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            ev.write_json(out);
        }
        out.push(']');
        let mut json = o.finish();
        json.push('\n');
        json
    }
}

/// Histogram increments of `later` over `earlier`, skipping empty ones.
fn hists_since(
    later: &BTreeMap<&'static str, HistSnapshot>,
    earlier: &BTreeMap<&'static str, HistSnapshot>,
) -> BTreeMap<&'static str, HistSnapshot> {
    let mut out = BTreeMap::new();
    for (&k, h) in later {
        let d = match earlier.get(k) {
            Some(e) => h.delta_since(e),
            None => h.clone(),
        };
        if !d.is_empty() {
            out.insert(k, d);
        }
    }
    out
}

/// The one JSON writer behind [`Snapshot::to_json`] and [`Delta::to_json`]:
/// an object whose members are separated by `sep` (`", "` keeps a snapshot
/// on one JSONL line; a newline gives a report one section per line).
struct JsonObject {
    out: String,
    sep: &'static str,
    empty: bool,
}

impl JsonObject {
    fn new(sep: &'static str) -> JsonObject {
        JsonObject { out: String::from("{"), sep, empty: true }
    }

    /// Starts member `key`; the caller writes its value into the returned
    /// buffer.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(self.sep);
        }
        self.empty = false;
        write_json_str(&mut self.out, key);
        self.out.push_str(": ");
        &mut self.out
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// The metric sections shared by snapshots and deltas.
fn write_metrics(
    o: &mut JsonObject,
    counters: &BTreeMap<&'static str, u64>,
    gauges: &BTreeMap<&'static str, u64>,
    polled: &BTreeMap<&'static str, Vec<(String, f64)>>,
    hists: &BTreeMap<&'static str, HistSnapshot>,
    spans: &BTreeMap<&'static str, HistSnapshot>,
) {
    write_map(o.key("counters"), counters, |out, v| write!(out, "{v}").unwrap());
    write_map(o.key("gauges"), gauges, |out, v| write!(out, "{v}").unwrap());
    write_map(o.key("polled"), polled, |out, rows| {
        out.push('{');
        for (j, (label, value)) in rows.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write_json_str(out, label);
            out.push_str(": ");
            write_json_f64(out, *value);
        }
        out.push('}');
    });
    write_map(o.key("hists"), hists, write_hist);
    write_map(o.key("spans"), spans, write_hist);
}

fn write_map<V>(out: &mut String, map: &BTreeMap<&str, V>, mut val: impl FnMut(&mut String, &V)) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_str(out, k);
        out.push_str(": ");
        val(out, v);
    }
    out.push('}');
}

fn write_hist(out: &mut String, h: &HistSnapshot) {
    write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \
         \"max\": {}, \"buckets\": [",
        h.count,
        h.sum,
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max_bound(),
    )
    .unwrap();
    for (j, &(idx, n)) in h.buckets.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        write!(out, "[{idx}, {n}]").unwrap();
    }
    out.push_str("]}");
}

/// Writes `s` as a JSON string literal with escaping.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a finite `v` as a JSON number and a non-finite one as `null`.
pub(crate) fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").unwrap();
    } else {
        out.push_str("null");
    }
}

/// One Prometheus summary series: the four quantiles plus `_sum`/`_count`,
/// with `labels` (already escaped, may be empty) on every line.
fn write_summary(out: &mut String, m: &str, labels: &str, h: &HistSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, qs) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
        writeln!(out, "{m}{{{labels}{sep}quantile=\"{qs}\"}} {}", h.quantile(q)).unwrap();
    }
    let labels = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    writeln!(out, "{m}_sum{labels} {}\n{m}_count{labels} {}", h.sum, h.count).unwrap();
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// `service.answer.ns` → `r2t_service_answer_ns`.
fn metric_name(name: &str) -> String {
    let mut m = String::with_capacity(name.len() + 4);
    m.push_str("r2t_");
    for c in name.chars() {
        m.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    m
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(feature = "enabled")]
pub(crate) mod live {
    //! The global cumulative registry behind [`super::Snapshot`].

    use super::Snapshot;
    use crate::hist::Histogram;
    use crate::{Attr, Event, EVENT_LOG_CAP};
    use std::collections::{HashMap, VecDeque};
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{LazyLock, Mutex, RwLock};
    use std::time::Instant;

    /// A cumulative live counter (never reset).
    pub(crate) struct LiveCounter(AtomicU64);

    impl LiveCounter {
        #[inline]
        pub(crate) fn add(&self, delta: u64) {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// A cumulative high-water-mark gauge.
    pub(crate) struct LiveGauge(AtomicU64);

    impl LiveGauge {
        #[inline]
        pub(crate) fn raise(&self, value: u64) {
            self.0.fetch_max(value, Ordering::Relaxed);
        }
    }

    type GaugeProviderFn = Box<dyn Fn(&mut dyn FnMut(&'static str, &str, f64)) + Send + Sync>;

    /// A logged `full`-level event, timed from the registry's epoch.
    struct LoggedEvent {
        t_ns: u64,
        path: String,
        attrs: Vec<(&'static str, Attr)>,
    }

    /// The newest [`EVENT_LOG_CAP`] events. `end` numbers every event ever
    /// logged, so a snapshot records a position without copying anything;
    /// the ring holds events `end - ring.len() .. end`.
    struct EventLog {
        ring: VecDeque<LoggedEvent>,
        end: u64,
    }

    struct Registry {
        counters: RwLock<HashMap<&'static str, &'static LiveCounter>>,
        gauges: RwLock<HashMap<&'static str, &'static LiveGauge>>,
        hists: RwLock<HashMap<&'static str, &'static Histogram>>,
        /// Span histograms by `/`-joined path; each path is leaked once.
        spans: RwLock<HashMap<&'static str, &'static Histogram>>,
        events: Mutex<EventLog>,
        epoch: Instant,
        providers: Mutex<Vec<(u64, GaugeProviderFn)>>,
        next_provider: AtomicU64,
        seq: AtomicU64,
        next_stripe: AtomicUsize,
    }

    static REGISTRY: LazyLock<Registry> = LazyLock::new(|| Registry {
        counters: RwLock::new(HashMap::new()),
        gauges: RwLock::new(HashMap::new()),
        hists: RwLock::new(HashMap::new()),
        spans: RwLock::new(HashMap::new()),
        events: Mutex::new(EventLog { ring: VecDeque::new(), end: 0 }),
        epoch: Instant::now(),
        providers: Mutex::new(Vec::new()),
        next_provider: AtomicU64::new(1),
        seq: AtomicU64::new(0),
        next_stripe: AtomicUsize::new(0),
    });

    /// Round-robin shard assignment for new threads (see `crate::hist`).
    pub(crate) fn assign_stripe() -> usize {
        REGISTRY.next_stripe.fetch_add(1, Ordering::Relaxed)
    }

    fn get_or_register<T>(
        lock: &RwLock<HashMap<&'static str, &'static T>>,
        name: &'static str,
        make: impl FnOnce() -> T,
    ) -> &'static T {
        if let Some(&m) = lock.read().expect("live registry poisoned").get(name) {
            return m;
        }
        let mut map = lock.write().expect("live registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::new(make())))
    }

    pub(crate) fn counter(name: &'static str) -> &'static LiveCounter {
        get_or_register(&REGISTRY.counters, name, || LiveCounter(AtomicU64::new(0)))
    }

    pub(crate) fn gauge(name: &'static str) -> &'static LiveGauge {
        get_or_register(&REGISTRY.gauges, name, || LiveGauge(AtomicU64::new(0)))
    }

    pub(crate) fn hist(name: &'static str) -> &'static Histogram {
        get_or_register(&REGISTRY.hists, name, Histogram::new)
    }

    /// The histogram of span path `path`, registering it (and leaking the
    /// path, once per distinct path) on first use.
    pub(crate) fn span(path: &str) -> (&'static str, &'static Histogram) {
        let lock = &REGISTRY.spans;
        if let Some((&p, &h)) = lock.read().expect("live registry poisoned").get_key_value(path) {
            return (p, h);
        }
        let mut map = lock.write().expect("live registry poisoned");
        if let Some((&p, &h)) = map.get_key_value(path) {
            return (p, h);
        }
        let p: &'static str = Box::leak(path.into());
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(p, h);
        (p, h)
    }

    fn uptime_ns() -> u64 {
        u64::try_from(REGISTRY.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends an event, evicting (and counting) the oldest when full.
    pub(crate) fn log_event(path: String, attrs: Vec<(&'static str, Attr)>) {
        let t_ns = uptime_ns();
        let mut log = REGISTRY.events.lock().expect("event log poisoned");
        if log.ring.len() == EVENT_LOG_CAP {
            log.ring.pop_front();
            counter("obs.events.dropped").add(1);
        }
        log.ring.push_back(LoggedEvent { t_ns, path, attrs });
        log.end += 1;
    }

    /// Copies out the still-logged events numbered `range`, timed in seconds
    /// from `since_ns` and sorted by time.
    pub(crate) fn events(range: Range<u64>, since_ns: u64) -> Vec<Event> {
        let log = REGISTRY.events.lock().expect("event log poisoned");
        let first = log.end - log.ring.len() as u64;
        let from = range.start.max(first);
        let to = range.end.min(log.end);
        let mut out: Vec<Event> = log
            .ring
            .range((from - first) as usize..(to.max(from) - first) as usize)
            .map(|e| Event {
                t_secs: e.t_ns.saturating_sub(since_ns) as f64 / 1e9,
                path: e.path.clone(),
                attrs: e.attrs.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.t_secs.total_cmp(&b.t_secs));
        out
    }

    pub(crate) fn register_provider(f: GaugeProviderFn) -> u64 {
        let id = REGISTRY.next_provider.fetch_add(1, Ordering::Relaxed);
        REGISTRY.providers.lock().expect("providers poisoned").push((id, f));
        id
    }

    pub(crate) fn unregister_provider(id: u64) {
        REGISTRY.providers.lock().expect("providers poisoned").retain(|(pid, _)| *pid != id);
    }

    /// Folds the whole registry into an immutable [`Snapshot`]. Cheap enough
    /// to call per answer batch: reads are relaxed atomic loads; the only
    /// locks taken are the registries' read locks, the event log's mutex
    /// (to read its position, never its events) and the provider list's
    /// mutex, none of which any recording hot path below `full` holds.
    pub(crate) fn take() -> Snapshot {
        let seq = REGISTRY.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let (events_end, uptime_ns) = {
            let log = REGISTRY.events.lock().expect("event log poisoned");
            (log.end, uptime_ns())
        };
        let mut snap = Snapshot {
            seq,
            unix_ms,
            level: crate::level(),
            events_end,
            uptime_ns,
            ..Snapshot::default()
        };
        for (&name, c) in REGISTRY.counters.read().expect("live registry poisoned").iter() {
            snap.counters.insert(name, c.0.load(Ordering::Relaxed));
        }
        for (&name, g) in REGISTRY.gauges.read().expect("live registry poisoned").iter() {
            snap.gauges.insert(name, g.0.load(Ordering::Relaxed));
        }
        for (map, lock) in [(&mut snap.hists, &REGISTRY.hists), (&mut snap.spans, &REGISTRY.spans)]
        {
            for (&name, h) in lock.read().expect("live registry poisoned").iter() {
                let s = h.snapshot();
                if !s.is_empty() {
                    map.insert(name, s);
                }
            }
        }
        {
            let providers = REGISTRY.providers.lock().expect("providers poisoned");
            let mut emit = |name: &'static str, label: &str, value: f64| {
                snap.polled.entry(name).or_default().push((label.to_string(), value));
            };
            for (_, f) in providers.iter() {
                f(&mut emit);
            }
        }
        for rows in snap.polled.values_mut() {
            rows.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot { seq: 3, unix_ms: 1700000000000, ..Snapshot::default() };
        s.counters.insert("service.answers", 42);
        s.gauges.insert("service.pool.workers", 7);
        s.polled.insert(
            "service.tenant.eps.spent",
            vec![("fraud".to_string(), 0.25), ("marketing".to_string(), 0.5)],
        );
        let h = HistSnapshot { count: 100, sum: 1000, buckets: vec![(10, 100)] };
        s.hists.insert("service.answer.ns", h.clone());
        s.spans.insert("service.answer/r2t.run", h);
        s
    }

    #[test]
    fn snapshot_json_is_one_line_with_all_sections() {
        let j = sample().to_json();
        assert!(!j.contains('\n'), "JSONL lines must be single-line");
        for frag in [
            "\"seq\": 3",
            "\"service.answers\": 42",
            "\"service.pool.workers\": 7",
            "\"marketing\": 0.5",
            "\"p50\": 10",
            "\"buckets\": [[10, 100]]",
            "\"spans\": {\"service.answer/r2t.run\": {\"count\": 100",
        ] {
            assert!(j.contains(frag), "missing {frag} in {j}");
        }
    }

    #[test]
    fn prometheus_text_has_types_quantiles_and_labels() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE r2t_service_answers counter"));
        assert!(p.contains("r2t_service_answers 42"));
        assert!(p.contains("# TYPE r2t_service_pool_workers gauge"));
        assert!(p.contains("r2t_service_tenant_eps_spent{tenant=\"marketing\"} 0.5"));
        assert!(p.contains("r2t_service_answer_ns{quantile=\"0.999\"} 10"));
        assert!(p.contains("r2t_service_answer_ns_count 100"));
        assert!(p.contains("# TYPE r2t_span_ns summary"));
        assert!(p.contains("r2t_span_ns{path=\"service.answer/r2t.run\",quantile=\"0.5\"} 10"));
        assert!(p.contains("r2t_span_ns_count{path=\"service.answer/r2t.run\"} 100"));
        assert!(p.ends_with('\n'));
    }

    #[test]
    fn delta_subtracts_counters_and_hists() {
        let earlier = sample();
        let mut later = sample();
        later.seq = 4;
        later.unix_ms += 250;
        *later.counters.get_mut("service.answers").unwrap() += 8;
        later.counters.insert("service.refusals.budget", 2);
        later.gauges.insert("service.cache.entries", 3);
        let h = later.hists.get_mut("service.answer.ns").unwrap();
        h.merge(&HistSnapshot { count: 5, sum: 250, buckets: vec![(20, 5)] });
        let d = later.delta_since(&earlier);
        assert_eq!(d.from_seq, 3);
        assert_eq!(d.to_seq, 4);
        assert_eq!(d.interval_ms, 250);
        assert_eq!(d.counters.get("service.answers"), Some(&8));
        assert_eq!(d.counters.get("service.refusals.budget"), Some(&2));
        let dh = &d.hists["service.answer.ns"];
        assert_eq!(dh.count, 5);
        assert_eq!(dh.buckets, vec![(20, 5)]);
        // Only gauges that rose in the interval are reported.
        assert_eq!(d.gauges.len(), 1);
        assert_eq!(d.gauges.get("service.cache.entries"), Some(&3));
        assert!(d.spans.is_empty(), "an unchanged span histogram has no increment");
        assert!(d.to_json().contains("\"interval_ms\": 250"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(metric_name("a.b-c/d"), "r2t_a_b_c_d");
    }
}
