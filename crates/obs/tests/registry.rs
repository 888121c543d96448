//! Registry behaviour: span nesting into path histograms, cross-thread
//! aggregation (scoped threads included), level gating, interval-scoped
//! deltas, the event log's cap, JSON output. Runs in its own process
//! (integration test binary); a static mutex serializes the tests because
//! the registry is process-global state.

use r2t_obs::{json, Attr, Delta, Level};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn with_level<T>(level: Level, f: impl FnOnce() -> T) -> T {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    r2t_obs::set_level(level);
    let out = f();
    r2t_obs::set_level(Level::Off);
    out
}

/// What `f` records at `level`: the delta between snapshots taken around it.
fn recorded(level: Level, f: impl FnOnce()) -> Delta {
    with_level(level, || {
        let start = r2t_obs::snapshot();
        f();
        r2t_obs::snapshot().delta_since(&start)
    })
}

#[test]
fn spans_nest_into_slash_paths() {
    if !r2t_obs::COMPILED {
        return;
    }
    let report = recorded(Level::Spans, || {
        let _outer = r2t_obs::span("outer");
        {
            let _inner = r2t_obs::span("inner");
            let _leaf = r2t_obs::span("leaf");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _inner2 = r2t_obs::span("inner");
    });
    let paths: Vec<&str> = report.spans.keys().copied().collect();
    assert_eq!(paths, vec!["outer", "outer/inner", "outer/inner/leaf"]);
    assert_eq!(report.spans["outer/inner"].count, 2, "re-entered span aggregates");
    assert_eq!(report.spans["outer"].count, 1);
    // Durations are nanoseconds, and a parent span's total covers its
    // children.
    assert!(report.spans["outer/inner/leaf"].sum >= 1_500_000, "a 2 ms span records ~2e6 ns");
    assert!(report.spans["outer"].sum >= report.spans["outer/inner"].sum);
}

#[test]
fn counters_aggregate_across_threads() {
    if !r2t_obs::COMPILED {
        return;
    }
    let report = recorded(Level::Counters, || {
        r2t_obs::counter_add("t.hits", 1);
        r2t_obs::gauge_max("t.peak", 5);
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                scope.spawn(move || {
                    r2t_obs::counter_add("t.hits", 10);
                    r2t_obs::gauge_max("t.peak", 3 + i);
                });
            }
        });
    });
    assert_eq!(report.counters["t.hits"], 41, "sums across threads");
    assert_eq!(report.gauges["t.peak"], 6, "gauge keeps the max across threads");
}

/// A scoped thread's thread-locals can be torn down after its scope has
/// returned, so nothing it records may wait on that teardown: a delta taken
/// right after the scope must hold every worker's counts, every round.
#[test]
fn scoped_thread_records_are_in_the_next_delta() {
    if !r2t_obs::COMPILED {
        return;
    }
    const ROUNDS: usize = 1_000;
    let misses = with_level(Level::Counters, || {
        (0..ROUNDS)
            .filter(|_| {
                let start = r2t_obs::snapshot();
                std::thread::scope(|scope| {
                    for _ in 0..4 {
                        scope.spawn(|| r2t_obs::counter_add("scoped.hits", 1));
                    }
                });
                let delta = r2t_obs::snapshot().delta_since(&start);
                delta.counters.get("scoped.hits").copied() != Some(4)
            })
            .count()
    });
    assert_eq!(misses, 0, "{misses} of {ROUNDS} deltas missed a scoped worker's counts");
}

#[test]
fn levels_gate_recording() {
    if !r2t_obs::COMPILED {
        return;
    }
    let everything = || {
        r2t_obs::counter_add("g.count", 1);
        let _s = r2t_obs::span("g.span");
        r2t_obs::event("g.event", &[("flag", Attr::Bool(true))]);
    };

    let off = recorded(Level::Off, everything);
    assert!(off.is_empty(), "Off records nothing");

    let counters = recorded(Level::Counters, everything);
    assert_eq!(counters.counters["g.count"], 1);
    assert_eq!(counters.counters["g.event"], 1, "events still bump their counter");
    assert!(counters.spans.is_empty(), "no span timings below Spans");
    assert!(counters.events.is_empty(), "no raw events below Full");

    let spans = recorded(Level::Spans, everything);
    assert_eq!(spans.spans["g.span"].count, 1);
    assert!(spans.events.is_empty());

    let full = recorded(Level::Full, everything);
    assert_eq!(full.events.len(), 1);
    assert_eq!(full.events[0].path, "g.span/g.event", "events are span-path qualified");
    assert_eq!(full.events[0].attrs, vec![("flag", Attr::Bool(true))]);
}

#[test]
fn deltas_cover_only_their_interval() {
    if !r2t_obs::COMPILED {
        return;
    }
    with_level(Level::Full, || {
        let start = r2t_obs::snapshot();
        r2t_obs::counter_add("d.once", 1);
        r2t_obs::event("d.event", &[]);
        let mid = r2t_obs::snapshot();
        let first = mid.delta_since(&start);
        assert_eq!(first.counters["d.once"], 1);
        assert_eq!(first.events.len(), 1);
        let second = r2t_obs::snapshot().delta_since(&mid);
        assert!(second.is_empty(), "a later interval excludes earlier records: {second:?}");
    });
}

/// The event log keeps the newest `EVENT_LOG_CAP` events; each event pushed
/// past the cap evicts the oldest and is counted on `obs.events.dropped`.
#[test]
fn event_log_overflow_is_counted() {
    if !r2t_obs::COMPILED {
        return;
    }
    const OVER: usize = 10;
    with_level(Level::Full, || {
        // Fill the log so that every further event evicts exactly one.
        for _ in 0..r2t_obs::EVENT_LOG_CAP {
            r2t_obs::event("cap.fill", &[]);
        }
        let start = r2t_obs::snapshot();
        for i in 0..OVER {
            r2t_obs::event("cap.over", &[("i", Attr::U64(i as u64))]);
        }
        let delta = r2t_obs::snapshot().delta_since(&start);
        assert_eq!(delta.counters.get("obs.events.dropped").copied(), Some(OVER as u64));
        assert_eq!(delta.events.len(), OVER, "the newest events survive");
        assert!(delta.events.iter().all(|e| e.path == "cap.over"));

        // A delta opened before the fill sees the cap, not the overflow.
        let before_fill = r2t_obs::snapshot();
        for _ in 0..r2t_obs::EVENT_LOG_CAP + OVER {
            r2t_obs::event("cap.fill", &[]);
        }
        let delta = r2t_obs::snapshot().delta_since(&before_fill);
        assert_eq!(delta.events.len(), r2t_obs::EVENT_LOG_CAP);
        assert_eq!(
            delta.counters.get("obs.events.dropped").copied(),
            Some((r2t_obs::EVENT_LOG_CAP + OVER) as u64)
        );
    });
}

#[test]
fn full_report_serializes_to_json() {
    if !r2t_obs::COMPILED {
        return;
    }
    let report = recorded(Level::Full, || {
        let _s = r2t_obs::span("j.run");
        r2t_obs::counter_add("j.count", 2);
        r2t_obs::event(
            "j.branch",
            &[("tau", Attr::F64(8.0)), ("outcome", Attr::Str("killed")), ("iters", Attr::U64(3))],
        );
    });
    let v = json::parse(&report.to_json()).expect("a report is valid JSON");
    assert_eq!(v.get("obs_level").and_then(|l| l.as_str()), Some("full"));
    assert_eq!(v.get("counters").and_then(|c| c.get("j.count")).and_then(|n| n.as_u64()), Some(2));
    let span = v.get("spans").and_then(|s| s.get("j.run")).expect("span histogram");
    assert_eq!(span.get("count").and_then(|n| n.as_u64()), Some(1));
    let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].get("path").and_then(|p| p.as_str()), Some("j.run/j.branch"));
    assert_eq!(events[0].get("outcome").and_then(|o| o.as_str()), Some("killed"));
    // Events carry a non-negative offset from the report's start.
    let t = events[0].get("t").and_then(|t| t.as_f64()).expect("numeric t");
    assert!((0.0..10.0).contains(&t), "t = {t}");
    assert!(report.pretty().contains("j.run"));
}

#[test]
fn disabled_build_is_inert() {
    if r2t_obs::COMPILED {
        return;
    }
    // Without the feature the API must stay callable and record nothing.
    r2t_obs::set_level(Level::Full);
    let start = r2t_obs::snapshot();
    r2t_obs::counter_add("x", 1);
    let _s = r2t_obs::span("x");
    r2t_obs::event("x", &[("v", Attr::U64(1))]);
    assert_eq!(r2t_obs::level(), Level::Off);
    assert!(!r2t_obs::enabled(Level::Counters));
    assert!(r2t_obs::snapshot().delta_since(&start).is_empty());
}
