//! `r2t-obs`: a DP-safe tracing/metrics spine for the R2T stack.
//!
//! The crate exposes the recording primitives [`counter_add`],
//! [`gauge_max`], [`hist_record`]/[`hist_time`] and [`span`]/[`event`].
//! There is one registry: every record lands in process-global state the
//! moment it is made. [`snapshot`] folds that state into an immutable
//! [`Snapshot`], and a run's report is the [`Delta`] between a snapshot
//! taken at its start and one taken at its end
//! (`r2t_obs::snapshot().delta_since(&start)`).
//!
//! # Cost model
//!
//! Without the `enabled` cargo feature every entry point is an inline no-op:
//! [`level`] is a constant `Off`, so the guard folds and the optimizer deletes
//! the call. With the feature compiled in, the hot path is one relaxed atomic
//! load plus a branch when the runtime level says "off"; when recording, a
//! thread-local cache maps the `&'static str` name to its global atomic, so a
//! counter bump is one pointer-keyed map hit plus a relaxed `fetch_add`. The
//! cache holds no recorded value, so nothing is ever flushed: a record made
//! on a pool thread that never exits, or on a scoped thread whose
//! thread-locals are torn down after its scope returns, is in every snapshot
//! taken after it.
//!
//! # Runtime levels
//!
//! The level is read from `R2T_OBS` (`off|counters|spans|full`) the first
//! time it is needed and cached. [`set_default_level`] lets binaries pick a
//! different default (repro binaries use `counters`) while still letting the
//! env var win; [`set_level`] overrides both.
//!
//! # DP-safety rules
//!
//! Telemetry must never widen the privacy loss of the mechanism it observes.
//! The API enforces the coarse rule by construction — metric names and string
//! attributes are `&'static str`, so raw tuple values cannot be recorded —
//! and instrumented code follows the fine rules:
//!
//! * **Released quantities are safe.** τ values, the *noisy shifted* branch
//!   estimates, and the final output are covered by the mechanism's ε budget
//!   (the race is ε-DP by composition over all branches), so recording them
//!   adds nothing.
//! * **Pre-noise values are never recorded.** The raw LP value `Q(I, τ)` and
//!   the Laplace draws themselves are *not* DP-protected; either one next to
//!   a released output reconstructs the true answer. Instrumentation keeps
//!   both in-process only.
//! * **Structural counts are public-parameter functions.** Branch counts,
//!   LP dimensions, presolve reductions, and executor partition sizes depend
//!   on the query, the schema, and GS_Q — public parameters — plus the input
//!   cardinality, which this pipeline (like the paper's experiments) treats
//!   as public.
//! * **Timings and iteration counts are side channels**, not outputs of the
//!   DP mechanism. They are recorded because this layer's threat model (ours
//!   and the paper's) assumes the analyst does not observe execution time;
//!   deployments with timing-sensitive adversaries should ship only the
//!   `counters` level off-box. DESIGN.md §3.3 carries the field-by-field
//!   table.
//!
//! # What the registry holds
//!
//! Counters are cumulative for the process lifetime and gauges are
//! high-water marks; neither ever resets. Histograms are lock-free striped
//! atomics ([`hist`]); a span's duration lands in a histogram keyed by the
//! thread's `/`-joined span path. `full`-level events go to one global log
//! that keeps the newest [`EVENT_LOG_CAP`] events and counts every evicted
//! one on `obs.events.dropped`. [`snapshot`] reads all of it without stopping
//! writers; a snapshot records only its position in the event log, and
//! [`Snapshot::delta_since`] copies out the events between two positions.
//! [`exporter`] ships snapshots as JSONL and serves Prometheus text over
//! localhost TCP. See DESIGN.md §3.3 and §3.8 for the architecture and the
//! DP-safety tables.

#[cfg(any(feature = "enabled", test))]
mod clock;
pub mod exporter;
pub mod hist;
pub mod json;
mod report;
mod snapshot;

pub use hist::HistSnapshot;
pub use report::{Attr, Event};
pub use snapshot::{Delta, Snapshot};

/// How many `full`-level events the global event log keeps. The log is a
/// ring: once full, each new event evicts the oldest and bumps the
/// `obs.events.dropped` counter. A fixed constant, not an option: it bounds
/// a long-running server at `full` to a few MB of events while holding
/// every committed repro report (the largest has 1,530 events).
pub const EVENT_LOG_CAP: usize = 1 << 14;

/// Whether the recording machinery is compiled in (`enabled` cargo feature).
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Instrumentation level, ordered by verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// Record nothing.
    #[default]
    Off = 0,
    /// Counters, gauges, and histograms only.
    Counters = 1,
    /// Plus hierarchical span durations.
    Spans = 2,
    /// Plus discrete time-stamped events with attributes.
    Full = 3,
}

impl Level {
    /// Parses a level name as accepted by `R2T_OBS`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(Level::Off),
            "counters" | "1" => Some(Level::Counters),
            "spans" | "2" => Some(Level::Spans),
            "full" | "3" => Some(Level::Full),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Spans => "spans",
            Level::Full => "full",
        }
    }

    #[cfg(feature = "enabled")]
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Counters,
            2 => Level::Spans,
            3 => Level::Full,
            _ => Level::Off,
        }
    }
}

/// Strict resolution of an `R2T_OBS`-style env value: unset keeps `default`,
/// a valid name parses, and an *invalid* name falls back to `default` with an
/// error message (returned so the caller can put it on stderr) instead of
/// silently recording nothing.
#[cfg(any(feature = "enabled", test))]
fn resolve_level_value(value: Option<&str>, default: Level) -> (Level, Option<String>) {
    match value {
        None => (default, None),
        Some(s) => match Level::parse(s) {
            Some(l) => (l, None),
            None => (
                default,
                Some(format!(
                    "r2t-obs: invalid R2T_OBS level {s:?}: expected off|counters|spans|full \
                     (or 0|1|2|3); falling back to {}",
                    default.as_str()
                )),
            ),
        },
    }
}

/// Current instrumentation level.
///
/// Constant [`Level::Off`] when the crate is compiled without `enabled`;
/// otherwise resolved once from [`set_level`] / `R2T_OBS` / the default.
#[inline(always)]
pub fn level() -> Level {
    #[cfg(feature = "enabled")]
    {
        registry::level()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Level::Off
    }
}

/// Whether recording at `at` (or verboser) is active.
#[inline(always)]
pub fn enabled(at: Level) -> bool {
    level() >= at
}

/// Forces the instrumentation level, overriding `R2T_OBS` and any default.
pub fn set_level(_level: Level) {
    #[cfg(feature = "enabled")]
    registry::set_level(_level);
}

/// Sets the level to use when `R2T_OBS` is unset. The env var, when present
/// and valid, still wins; an explicit [`set_level`] wins over both.
pub fn set_default_level(_level: Level) {
    #[cfg(feature = "enabled")]
    registry::set_default_level(_level);
}

/// Adds `delta` to the named monotonic counter ([`Level::Counters`]+).
#[inline(always)]
pub fn counter_add(_name: &'static str, _delta: u64) {
    #[cfg(feature = "enabled")]
    if level() >= Level::Counters {
        registry::with_shard(|s| s.counter_add(_name, _delta));
    }
}

/// Raises the named high-water-mark gauge to at least `value`
/// ([`Level::Counters`]+).
#[inline(always)]
pub fn gauge_max(_name: &'static str, _value: u64) {
    #[cfg(feature = "enabled")]
    if level() >= Level::Counters {
        registry::with_shard(|s| s.gauge_max(_name, _value));
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable. This is a
/// process-lifetime high-water mark maintained by the kernel: it only ever
/// rises, so per-phase measurements need per-process isolation (fork the
/// phase, read the child's peak). Always available regardless of the
/// instrumentation level — it reads the kernel, not the registry.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Opens a named span; when dropped, the returned guard records its wall
/// time in nanoseconds into the live histogram of the thread's `/`-joined
/// span path ([`Level::Spans`]+), timed with the same clock as
/// [`hist_time`]. Below that level the guard is inert and takes no
/// timestamp.
#[inline(always)]
#[must_use = "a span records its duration when the guard is dropped"]
pub fn span(_name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        if level() >= Level::Spans {
            return registry::enter_span(_name);
        }
        SpanGuard { armed: None }
    }
    #[cfg(not(feature = "enabled"))]
    {
        SpanGuard { _private: () }
    }
}

/// Records a discrete event. At [`Level::Counters`]+ this bumps the counter
/// `name`; at [`Level::Full`] it also appends a time-stamped event with the
/// given attributes, qualified by the thread's current span path, to the
/// global event log (see [`EVENT_LOG_CAP`]).
///
/// Attribute values are evaluated by the caller; guard expensive ones with
/// [`enabled`]`(Level::Full)`.
#[inline(always)]
pub fn event(_name: &'static str, _attrs: &[(&'static str, Attr)]) {
    #[cfg(feature = "enabled")]
    {
        let l = level();
        if l >= Level::Counters {
            registry::record_event(_name, _attrs, l >= Level::Full);
        }
    }
}

/// Records `value` into the named histogram ([`Level::Counters`]+).
/// Wait-free on the hot path after the first record per thread: two relaxed
/// `fetch_add`s on the thread's write stripe.
#[inline(always)]
pub fn hist_record(_name: &'static str, _value: u64) {
    #[cfg(feature = "enabled")]
    if level() >= Level::Counters {
        registry::with_shard(|s| s.hist_record(_name, _value));
    }
}

/// Starts a wall-clock timer that records its elapsed **nanoseconds** into
/// the named histogram when dropped ([`Level::Counters`]+). Below that level
/// (or compiled out) the guard is inert and takes no timestamp. Timestamps
/// come from the private `clock` module — the raw TSC on x86_64 — so an
/// armed timer costs two ~6 ns reads, cheap enough for sub-microsecond paths.
#[inline(always)]
#[must_use = "a hist timer records its duration when the guard is dropped"]
pub fn hist_time(_name: &'static str) -> HistTimer {
    #[cfg(feature = "enabled")]
    {
        if level() >= Level::Counters {
            return HistTimer { armed: Some((_name, clock::ticks())) };
        }
        HistTimer { armed: None }
    }
    #[cfg(not(feature = "enabled"))]
    {
        HistTimer { _private: () }
    }
}

/// RAII guard returned by [`hist_time`].
pub struct HistTimer {
    #[cfg(feature = "enabled")]
    armed: Option<(&'static str, u64)>,
    #[cfg(not(feature = "enabled"))]
    _private: (),
}

impl Drop for HistTimer {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((name, start)) = self.armed.take() {
            hist_record(name, clock::elapsed_ns(start));
        }
    }
}

/// Folds the registry — cumulative counters, gauges, histograms, span
/// histograms, the event log's position, and every registered gauge
/// provider — into an immutable [`Snapshot`] with a fresh monotone sequence
/// number. Never resets anything and never copies the event log; cheap
/// enough to call per scrape (relaxed loads plus registry read locks no
/// recorder holds).
///
/// Returns an empty `Snapshot` (seq 0) when the crate is compiled without
/// `enabled`.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        snapshot::live::take()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Snapshot::default()
    }
}

/// A pull-gauge callback: invoked at snapshot time with an
/// `emit(metric_name, label, value)` sink. See [`register_gauge_provider`].
pub type GaugeProvider = Box<dyn Fn(&mut dyn FnMut(&'static str, &str, f64)) + Send + Sync>;

/// Registers a pull-gauge provider: a callback invoked at every [`snapshot`]
/// with an `emit(metric_name, label, value)` sink. This is how components
/// with *dynamic* populations (the serving tier's per-tenant ε gauges)
/// expose state without a per-record hot-path cost — the metric name is
/// still `&'static str`; the label (e.g. a tenant name) is a
/// deployment-public operator identifier, never tuple data.
///
/// Providers run with no recorder-side lock held; they must not block and
/// must not call [`snapshot`] themselves. The provider stays registered
/// until the returned [`ProviderGuard`] is dropped.
#[must_use = "dropping the guard unregisters the provider"]
pub fn register_gauge_provider(_provider: GaugeProvider) -> ProviderGuard {
    #[cfg(feature = "enabled")]
    {
        ProviderGuard { id: Some(snapshot::live::register_provider(_provider)) }
    }
    #[cfg(not(feature = "enabled"))]
    {
        ProviderGuard { _private: () }
    }
}

/// RAII guard returned by [`register_gauge_provider`]; unregisters the
/// provider on drop.
pub struct ProviderGuard {
    #[cfg(feature = "enabled")]
    id: Option<u64>,
    #[cfg(not(feature = "enabled"))]
    _private: (),
}

impl Drop for ProviderGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(id) = self.id.take() {
            snapshot::live::unregister_provider(id);
        }
    }
}

/// RAII guard returned by [`span`].
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    armed: Option<registry::SpanEntry>,
    #[cfg(not(feature = "enabled"))]
    _private: (),
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(entry) = self.armed.take() {
            registry::exit_span(entry);
        }
    }
}

#[cfg(feature = "enabled")]
mod registry {
    use super::snapshot::live;
    use super::{Attr, Level, SpanGuard};
    use crate::clock;
    use crate::hist::Histogram;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// `0xFF` = not yet resolved; otherwise a `Level` discriminant.
    static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
    const UNSET: u8 = 0xFF;

    #[inline(always)]
    pub fn level() -> Level {
        let v = LEVEL.load(Ordering::Relaxed);
        if v != UNSET {
            return Level::from_u8(v);
        }
        resolve_level(Level::Off)
    }

    #[cold]
    fn resolve_level(default: Level) -> Level {
        let env = std::env::var("R2T_OBS").ok();
        let (l, error) = super::resolve_level_value(env.as_deref(), default);
        if let Some(msg) = error {
            eprintln!("{msg}");
        }
        LEVEL.store(l as u8, Ordering::Relaxed);
        l
    }

    pub fn set_level(l: Level) {
        LEVEL.store(l as u8, Ordering::Relaxed);
    }

    pub fn set_default_level(l: Level) {
        // Recompute with the new default; the env var still takes precedence.
        LEVEL.store(UNSET, Ordering::Relaxed);
        resolve_level(l);
    }

    /// Hasher for name-*pointer* keys: a single multiply. Obs names are
    /// `&'static str` literals, so the address identifies the name. Two
    /// codegen units can carry distinct copies of the same literal; both
    /// cache entries resolve to the one global handle registered under the
    /// name's *content*, so a duplicate costs a few cached bytes, never a
    /// split count. Fibonacci multiplicative hashing spreads the (aligned,
    /// clustered) addresses across buckets.
    #[derive(Default)]
    struct PtrHasher(u64);

    impl std::hash::Hasher for PtrHasher {
        #[inline(always)]
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, _bytes: &[u8]) {
            unreachable!("PtrHasher only hashes usize keys");
        }

        #[inline(always)]
        fn write_usize(&mut self, p: usize) {
            self.0 = (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    type PtrMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<PtrHasher>>;

    /// Per-thread caches in front of the global registry: name → `&'static`
    /// handle, the thread's open span path, and its histogram stripe. It
    /// holds no recorded value — every record goes straight into the global
    /// atomics or the event log — so a thread's exit has nothing to flush.
    ///
    /// Counters, gauges and histograms key on the name's pointer, so a
    /// steady-state record is one multiply-hashed map hit plus a relaxed
    /// atomic op; the registry's `RwLock` is taken only on a name's first
    /// use per thread, and the string itself is never hashed on the hot path.
    pub(super) struct ShardCell {
        counters: PtrMap<&'static live::LiveCounter>,
        gauges: PtrMap<&'static live::LiveGauge>,
        hists: PtrMap<&'static Histogram>,
        /// Span histograms by (leaked) `/`-joined path.
        spans: HashMap<&'static str, &'static Histogram>,
        /// `/`-joined names of the open spans on this thread.
        path: String,
        /// This thread's histogram write stripe (round-robin assigned).
        stripe: usize,
    }

    impl ShardCell {
        #[inline(always)]
        pub(super) fn counter_add(&mut self, name: &'static str, delta: u64) {
            self.counters
                .entry(name.as_ptr() as usize)
                .or_insert_with(|| live::counter(name))
                .add(delta);
        }

        #[inline(always)]
        pub(super) fn gauge_max(&mut self, name: &'static str, value: u64) {
            self.gauges
                .entry(name.as_ptr() as usize)
                .or_insert_with(|| live::gauge(name))
                .raise(value);
        }

        #[inline(always)]
        pub(super) fn hist_record(&mut self, name: &'static str, value: u64) {
            let stripe = self.stripe;
            self.hists
                .entry(name.as_ptr() as usize)
                .or_insert_with(|| live::hist(name))
                .record(stripe, value);
        }
    }

    thread_local! {
        static SHARD: RefCell<ShardCell> = RefCell::new(ShardCell {
            counters: PtrMap::default(),
            gauges: PtrMap::default(),
            hists: PtrMap::default(),
            spans: HashMap::new(),
            path: String::new(),
            stripe: live::assign_stripe(),
        });
    }

    /// Runs `f` against this thread's cache. Silently drops the record if the
    /// thread-local has already been destroyed (recording from other TLS
    /// destructors during thread teardown).
    #[inline]
    pub(super) fn with_shard(f: impl FnOnce(&mut ShardCell)) {
        let _ = SHARD.try_with(|cell| {
            if let Ok(mut cell) = cell.try_borrow_mut() {
                f(&mut cell);
            }
        });
    }

    pub(super) struct SpanEntry {
        /// `clock::ticks()` at entry.
        start: u64,
        /// Length to truncate the thread path back to on exit.
        truncate_to: usize,
    }

    pub(super) fn enter_span(name: &'static str) -> SpanGuard {
        let mut armed = None;
        with_shard(|cell| {
            let truncate_to = cell.path.len();
            if truncate_to > 0 {
                cell.path.push('/');
            }
            cell.path.push_str(name);
            armed = Some(SpanEntry { start: clock::ticks(), truncate_to });
        });
        SpanGuard { armed }
    }

    pub(super) fn exit_span(entry: SpanEntry) {
        let ns = clock::elapsed_ns(entry.start);
        with_shard(|cell| {
            let hist = match cell.spans.get(cell.path.as_str()) {
                Some(&hist) => hist,
                None => {
                    let (path, hist) = live::span(&cell.path);
                    cell.spans.insert(path, hist);
                    hist
                }
            };
            hist.record(cell.stripe, ns);
            cell.path.truncate(entry.truncate_to);
        });
    }

    pub(super) fn record_event(name: &'static str, attrs: &[(&'static str, Attr)], full: bool) {
        with_shard(|cell| {
            cell.counter_add(name, 1);
            if full {
                let path = if cell.path.is_empty() {
                    name.to_string()
                } else {
                    format!("{}/{name}", cell.path)
                };
                live::log_event(path, attrs.to_vec());
            }
        });
    }
}

#[cfg(test)]
mod level_tests {
    use super::{resolve_level_value, Level};

    #[test]
    fn parse_accepts_every_documented_value() {
        for (s, expect) in [
            ("off", Level::Off),
            ("0", Level::Off),
            ("", Level::Off),
            ("counters", Level::Counters),
            ("1", Level::Counters),
            ("spans", Level::Spans),
            ("2", Level::Spans),
            ("full", Level::Full),
            ("3", Level::Full),
            // Case- and whitespace-insensitive.
            ("FULL", Level::Full),
            ("  Counters  ", Level::Counters),
        ] {
            assert_eq!(Level::parse(s), Some(expect), "parsing {s:?}");
        }
    }

    #[test]
    fn parse_rejects_unknown_values() {
        for s in ["4", "-1", "verbose", "on", "true", "counter", "fulll", "off,spans"] {
            assert_eq!(Level::parse(s), None, "should reject {s:?}");
        }
    }

    #[test]
    fn resolve_is_strict_about_invalid_env_values() {
        // Unset: the default wins, no complaint.
        assert_eq!(resolve_level_value(None, Level::Counters), (Level::Counters, None));
        // Valid: the env wins, no complaint.
        assert_eq!(resolve_level_value(Some("full"), Level::Off), (Level::Full, None));
        // Invalid: falls back to the default WITH a diagnostic (never a
        // silent fall-through to `off` that eats the operator's typo).
        let (l, err) = resolve_level_value(Some("verbose"), Level::Spans);
        assert_eq!(l, Level::Spans);
        let msg = err.expect("invalid value must produce a diagnostic");
        assert!(msg.contains("verbose") && msg.contains("off|counters|spans|full"), "{msg}");
    }
}
