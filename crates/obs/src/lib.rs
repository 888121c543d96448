//! `r2t-obs`: a DP-safe tracing/metrics spine for the R2T stack.
//!
//! The crate exposes four recording primitives — [`counter_add`],
//! [`gauge_max`], [`record_value`], and [`span`]/[`event`] — plus a single
//! [`drain`] that merges every thread's shard into one [`RunReport`].
//!
//! # Cost model
//!
//! Without the `enabled` cargo feature every entry point is an inline no-op:
//! [`level`] is a constant `Off`, so the guard folds and the optimizer deletes
//! the call. With the feature compiled in, the hot path is one relaxed atomic
//! load plus a branch when the runtime level says "off"; when recording, each
//! thread writes into its own thread-local shard — no locks are taken until
//! [`drain`] (or thread exit, which flushes the shard into the global merge
//! under a mutex).
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
//! # Two planes: run reports and live snapshots
//!
//! [`drain`] serves *runs*: it merges and resets, producing one deterministic
//! [`RunReport`] per run. A serving tier needs the opposite — cumulative
//! metrics observable mid-flight — so every counter/gauge record *also* lands
//! in a process-global live plane of striped atomics, alongside the
//! histograms ([`hist_record`], [`hist_time`]) which live only there.
//! [`snapshot`] folds that plane into an immutable [`Snapshot`] (monotone
//! sequence numbers, never reset) without stopping writers; [`exporter`]
//! ships snapshots as JSONL and serves Prometheus text over localhost TCP.
//! See DESIGN.md §3.8 for the architecture and the extended DP-safety table.

#[cfg(any(feature = "enabled", test))]
mod clock;
pub mod exporter;
pub mod hist;
pub mod json;
mod report;
mod snapshot;

pub use hist::HistSnapshot;
pub use report::{Attr, Event, RunReport, ValueStats};
pub use snapshot::{Delta, Snapshot};

/// Whether the recording machinery is compiled in (`enabled` cargo feature).
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Instrumentation level, ordered by verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// Record nothing.
    #[default]
    Off = 0,
    /// Counters, gauges, and value aggregates only.
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

/// Folds a sample into the named value aggregate ([`Level::Counters`]+).
#[inline(always)]
pub fn record_value(_name: &'static str, _value: f64) {
    #[cfg(feature = "enabled")]
    if level() >= Level::Counters {
        registry::with_shard(|s| s.shard.values.entry(_name).or_default().record(_value));
    }
}

/// Opens a named span; the returned guard records the wall time under the
/// thread's `/`-joined span path when dropped ([`Level::Spans`]+). Below that
/// level the guard is inert and takes no timestamp.
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
/// `name`; at [`Level::Full`] it also stores a time-stamped event with the
/// given attributes, qualified by the thread's current span path.
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

/// Flushes the calling thread's shard, merges every exited thread's shard,
/// and returns the aggregate as a [`RunReport`], resetting the registry (and
/// its time epoch) for the next run.
///
/// Shards of *still-running* other threads are not included — drain after
/// worker threads have joined (the executor's scoped threads always have).
pub fn drain() -> RunReport {
    #[cfg(feature = "enabled")]
    {
        registry::drain()
    }
    #[cfg(not(feature = "enabled"))]
    {
        RunReport::default()
    }
}

/// Records `value` into the named live-plane histogram
/// ([`Level::Counters`]+). Wait-free on the hot path after the first record
/// per thread: two relaxed `fetch_add`s on the thread's write stripe.
///
/// Histograms live only on the live plane (read via [`snapshot`]), never in
/// the run report — use [`record_value`] for per-run aggregates.
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

/// Folds the live plane — cumulative counters, gauges, histograms, and every
/// registered gauge provider — into an immutable [`Snapshot`] with a fresh
/// monotone sequence number. Never resets anything; cheap enough to call per
/// scrape (relaxed loads plus registry read locks no recorder holds).
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

/// Sets span sampling to 1-in-`n`: each thread keeps a deterministic span
/// tick and only every `n`-th [`span`] on that thread is timed and recorded
/// (`n = 1` records all, the default). Sampling is counter-based — never
/// RNG-coupled — so enabling `R2T_OBS=spans` at full serving throughput
/// cannot touch any noise stream. Overrides `R2T_OBS_SAMPLE`.
pub fn set_span_sample(_n: u64) {
    #[cfg(feature = "enabled")]
    registry::set_span_sample(_n);
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
    use super::{Attr, Event, Level, RunReport, SpanGuard, ValueStats};
    use crate::hist::Histogram;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::{LazyLock, Mutex};
    use std::time::Instant;

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

    /// `0` = not yet resolved from `R2T_OBS_SAMPLE`; otherwise the 1-in-N
    /// span sampling divisor (≥ 1).
    static SPAN_SAMPLE: AtomicU64 = AtomicU64::new(0);

    #[inline(always)]
    fn span_sample() -> u64 {
        let n = SPAN_SAMPLE.load(Ordering::Relaxed);
        if n != 0 {
            return n;
        }
        resolve_span_sample()
    }

    #[cold]
    fn resolve_span_sample() -> u64 {
        let n = match std::env::var("R2T_OBS_SAMPLE") {
            Ok(s) => match s.trim().parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!(
                        "r2t-obs: invalid R2T_OBS_SAMPLE {s:?}: expected an integer >= 1; \
                         falling back to 1 (record every span)"
                    );
                    1
                }
            },
            Err(_) => 1,
        };
        SPAN_SAMPLE.store(n, Ordering::Relaxed);
        n
    }

    pub fn set_span_sample(n: u64) {
        SPAN_SAMPLE.store(n.max(1), Ordering::Relaxed);
    }

    #[derive(Default)]
    pub(super) struct Shard {
        pub counters: HashMap<&'static str, u64>,
        pub gauges: HashMap<&'static str, u64>,
        pub values: HashMap<&'static str, ValueStats>,
        pub spans: HashMap<String, ValueStats>,
        pub events: Vec<RawEvent>,
    }

    pub(super) struct RawEvent {
        at: Instant,
        path: String,
        attrs: Vec<(&'static str, Attr)>,
    }

    impl Shard {
        fn is_empty(&self) -> bool {
            self.counters.is_empty()
                && self.gauges.is_empty()
                && self.values.is_empty()
                && self.spans.is_empty()
                && self.events.is_empty()
        }

        fn merge_into(self, into: &mut Shard) {
            for (k, v) in self.counters {
                *into.counters.entry(k).or_insert(0) += v;
            }
            for (k, v) in self.gauges {
                let g = into.gauges.entry(k).or_insert(0);
                *g = (*g).max(v);
            }
            for (k, v) in self.values {
                into.values.entry(k).or_default().merge(&v);
            }
            for (k, v) in self.spans {
                into.spans.entry(k).or_default().merge(&v);
            }
            into.events.extend(self.events);
        }
    }

    struct Global {
        epoch: Instant,
        merged: Shard,
    }

    static GLOBAL: LazyLock<Mutex<Global>> =
        LazyLock::new(|| Mutex::new(Global { epoch: Instant::now(), merged: Shard::default() }));

    /// Hasher for name-*pointer* keys: a single multiply. Obs names are
    /// `&'static str` literals, so the address identifies the name. Two
    /// codegen units can carry distinct copies of the same literal; the
    /// entries they produce both carry the name and are folded by *content*
    /// at flush time, so a duplicate costs a few cached bytes, never a wrong
    /// count. Fibonacci multiplicative hashing spreads the (aligned,
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

    /// A counter's dual-plane state: the run-scoped delta (drained into the
    /// [`RunReport`]) and the cached handle to its cumulative live-plane
    /// twin, written in the same map hit.
    struct CounterEntry {
        name: &'static str,
        run: u64,
        /// Whether `run` has been written since the last flush — dirtiness,
        /// not `run > 0`, decides report membership so an explicit zero
        /// record still surfaces the name (pre-existing report semantics).
        dirty: bool,
        live: &'static live::LiveCounter,
    }

    /// A high-water gauge's dual-plane state (same shape as a counter's).
    struct GaugeEntry {
        name: &'static str,
        run: u64,
        dirty: bool,
        live: &'static live::LiveGauge,
    }

    /// Per-thread recording state: the shard plus the live span path. Flushed
    /// into [`GLOBAL`] on thread exit via `Drop`, so scoped worker threads
    /// contribute automatically before the spawning scope returns.
    ///
    /// Counters and gauges live in pointer-keyed maps whose entries hold the
    /// run-report value *and* the cached `&'static` live-plane handle (see
    /// `crate::snapshot::live`), so the steady-state dual-write is one
    /// multiply-hashed map hit plus a relaxed `fetch_add` — the global
    /// registry's `RwLock` is only touched on a name's first use per thread,
    /// and the string itself is never hashed on the hot path.
    pub(super) struct ShardCell {
        /// Cold-path report data: values, spans, events.
        pub shard: Shard,
        counters: PtrMap<CounterEntry>,
        gauges: PtrMap<GaugeEntry>,
        hists: PtrMap<&'static Histogram>,
        /// `/`-joined names of the open spans on this thread.
        path: String,
        /// This thread's histogram write stripe (round-robin assigned).
        stripe: usize,
        /// Deterministic 1-in-N span sampling tick (counter, never RNG).
        span_tick: u64,
    }

    impl ShardCell {
        #[inline(always)]
        pub(super) fn counter_add(&mut self, name: &'static str, delta: u64) {
            let e = self.counters.entry(name.as_ptr() as usize).or_insert_with(|| CounterEntry {
                name,
                run: 0,
                dirty: false,
                live: live::counter(name),
            });
            e.run += delta;
            e.dirty = true;
            e.live.add(delta);
        }

        #[inline(always)]
        pub(super) fn gauge_max(&mut self, name: &'static str, value: u64) {
            let e = self.gauges.entry(name.as_ptr() as usize).or_insert_with(|| GaugeEntry {
                name,
                run: 0,
                dirty: false,
                live: live::gauge(name),
            });
            e.run = e.run.max(value);
            e.dirty = true;
            e.live.raise(value);
        }

        #[inline(always)]
        pub(super) fn hist_record(&mut self, name: &'static str, value: u64) {
            let stripe = self.stripe;
            self.hists
                .entry(name.as_ptr() as usize)
                .or_insert_with(|| live::hist(name))
                .record(stripe, value);
        }

        /// Drains the report plane into a standalone [`Shard`], resetting the
        /// run-scoped values but keeping the cached live-plane handles (the
        /// live plane is cumulative and never resets).
        fn flush(&mut self) -> Shard {
            let mut out = std::mem::take(&mut self.shard);
            for e in self.counters.values_mut() {
                if e.dirty {
                    *out.counters.entry(e.name).or_insert(0) += e.run;
                    e.run = 0;
                    e.dirty = false;
                }
            }
            for e in self.gauges.values_mut() {
                if e.dirty {
                    let g = out.gauges.entry(e.name).or_insert(0);
                    *g = (*g).max(e.run);
                    e.run = 0;
                    e.dirty = false;
                }
            }
            out
        }
    }

    impl Drop for ShardCell {
        fn drop(&mut self) {
            let shard = self.flush();
            if !shard.is_empty() {
                if let Ok(mut g) = GLOBAL.lock() {
                    shard.merge_into(&mut g.merged);
                }
            }
        }
    }

    thread_local! {
        static SHARD: RefCell<ShardCell> = RefCell::new(ShardCell {
            shard: Shard::default(),
            counters: PtrMap::default(),
            gauges: PtrMap::default(),
            hists: PtrMap::default(),
            path: String::new(),
            stripe: live::assign_stripe(),
            span_tick: 0,
        });
    }

    /// Runs `f` against this thread's shard. Silently drops the record if the
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
        start: Instant,
        /// Length to truncate the thread path back to on exit.
        truncate_to: usize,
    }

    pub(super) fn enter_span(name: &'static str) -> SpanGuard {
        let sample = span_sample();
        let mut armed = None;
        with_shard(|cell| {
            // Deterministic 1-in-N sampling: a per-thread tick, no RNG. An
            // unsampled span takes no timestamp and leaves the path alone
            // (its children attribute to the enclosing sampled span).
            cell.span_tick = cell.span_tick.wrapping_add(1);
            if sample > 1 && cell.span_tick % sample != 0 {
                return;
            }
            let truncate_to = cell.path.len();
            if !cell.path.is_empty() {
                cell.path.push('/');
            }
            cell.path.push_str(name);
            armed = Some(SpanEntry { start: Instant::now(), truncate_to });
        });
        SpanGuard { armed }
    }

    pub(super) fn exit_span(entry: SpanEntry) {
        let secs = entry.start.elapsed().as_secs_f64();
        with_shard(|cell| {
            let stats = match cell.shard.spans.get_mut(cell.path.as_str()) {
                Some(stats) => stats,
                None => cell.shard.spans.entry(cell.path.clone()).or_default(),
            };
            stats.record(secs);
            cell.path.truncate(entry.truncate_to);
        });
    }

    pub(super) fn record_event(name: &'static str, attrs: &[(&'static str, Attr)], full: bool) {
        let at = if full { Some(Instant::now()) } else { None };
        with_shard(|cell| {
            cell.counter_add(name, 1);
            if let Some(at) = at {
                let path = if cell.path.is_empty() {
                    name.to_string()
                } else {
                    format!("{}/{}", cell.path, name)
                };
                cell.shard.events.push(RawEvent { at, path, attrs: to_owned_attrs(attrs) });
            }
        });
    }

    fn to_owned_attrs(attrs: &[(&'static str, Attr)]) -> Vec<(&'static str, Attr)> {
        attrs.to_vec()
    }

    pub(super) fn drain() -> RunReport {
        // Flush the calling thread's shard first so a single-threaded run
        // needs no thread exit to be visible.
        with_shard(|cell| {
            let shard = cell.flush();
            if !shard.is_empty() {
                if let Ok(mut g) = GLOBAL.lock() {
                    shard.merge_into(&mut g.merged);
                }
            }
        });
        let now = Instant::now();
        let (epoch, merged) = {
            let mut g = GLOBAL.lock().expect("obs registry poisoned");
            let epoch = std::mem::replace(&mut g.epoch, now);
            (epoch, std::mem::take(&mut g.merged))
        };
        let mut report = RunReport {
            level: level(),
            wall_secs: now.saturating_duration_since(epoch).as_secs_f64(),
            ..RunReport::default()
        };
        report.counters.extend(merged.counters);
        report.gauges.extend(merged.gauges);
        report.values.extend(merged.values);
        report.spans.extend(merged.spans);
        report.events = merged
            .events
            .into_iter()
            .map(|e| Event {
                t_secs: e.at.saturating_duration_since(epoch).as_secs_f64(),
                path: e.path,
                attrs: e.attrs,
            })
            .collect();
        report.events.sort_by(|a, b| a.t_secs.total_cmp(&b.t_secs));
        report
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
