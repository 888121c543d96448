//! Snapshot and exporter integration tests: snapshot monotonicity under
//! concurrent writers, gauge providers, the exporter's JSONL and Prometheus
//! outputs, and an exporter whose spawn fails.
//!
//! Everything here needs the `enabled` feature (without it the registry is
//! compiled out and there is nothing to test). Tests share process-global
//! state (the level, the cumulative registry), so they serialize on one
//! mutex and assert *deltas* and *per-reader monotonicity*, never absolute
//! registry contents.
#![cfg(feature = "enabled")]

use r2t_obs::{json, Level, Snapshot};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner());
    r2t_obs::set_level(Level::Counters);
    guard
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    static UNIQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "r2t_obs_live_{}_{}_{}.jsonl",
        std::process::id(),
        tag,
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// 16 writer threads hammer a counter and a histogram while 2 interleaved
/// readers snapshot continuously: every reader must observe strictly
/// increasing sequence numbers and never-decreasing counter and histogram
/// counts, and the final fold must account for every write exactly.
#[test]
fn snapshots_are_monotone_under_sixteen_writers() {
    let _guard = serial();
    const WRITERS: usize = 16;
    const WRITES: u64 = 2_000;

    let before = r2t_obs::snapshot();
    let seen_before = before.counters.get("live.mono.writes").copied().unwrap_or(0);
    let hist_before = before.hists.get("live.mono.hist").map(|h| h.count).unwrap_or(0);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..WRITES {
                    r2t_obs::counter_add("live.mono.writes", 1);
                    r2t_obs::hist_record("live.mono.hist", (w as u64) * WRITES + i);
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                let mut last_seq = 0u64;
                let mut last_count = 0u64;
                let mut last_hist = 0u64;
                for _ in 0..50 {
                    let snap = r2t_obs::snapshot();
                    assert!(
                        snap.seq > last_seq,
                        "sequence numbers must be strictly increasing per reader"
                    );
                    let count = snap.counters.get("live.mono.writes").copied().unwrap_or(0);
                    assert!(count >= last_count, "counters must never decrease per reader");
                    let hist = snap.hists.get("live.mono.hist").map(|h| h.count).unwrap_or(0);
                    assert!(hist >= last_hist, "histogram counts must never decrease");
                    last_seq = snap.seq;
                    last_count = count;
                    last_hist = hist;
                }
            });
        }
    });

    let after = r2t_obs::snapshot();
    let total = WRITERS as u64 * WRITES;
    assert_eq!(
        after.counters.get("live.mono.writes").copied().unwrap_or(0) - seen_before,
        total,
        "every write must be accounted exactly"
    );
    let h = after.hists.get("live.mono.hist").expect("histogram registered");
    assert_eq!(h.count - hist_before, total);
    assert!(after.seq > before.seq);
}

/// The same multiset of values recorded from threads on different write
/// stripes folds to the same snapshot: shard merge order cannot matter.
#[test]
fn histogram_fold_is_stripe_order_independent() {
    let _guard = serial();
    let values: Vec<u64> = (0..512u64).map(|i| i * i % 10_007).collect();

    let before = r2t_obs::snapshot();
    let base = before.hists.get("live.stripes.hist").cloned().unwrap_or_default();

    // Each thread gets its own stripe assignment; split the values across
    // them in two different ways and compare the resulting *deltas*.
    let record_split = |chunks: Vec<Vec<u64>>| {
        std::thread::scope(|scope| {
            for chunk in chunks {
                scope.spawn(move || {
                    for v in chunk {
                        r2t_obs::hist_record("live.stripes.hist", v);
                    }
                });
            }
        });
        r2t_obs::snapshot().hists.get("live.stripes.hist").cloned().unwrap_or_default()
    };

    let after_a = record_split(values.chunks(64).map(|c| c.to_vec()).collect());
    let delta_a = after_a.delta_since(&base);
    let after_b = record_split(values.chunks(17).map(|c| c.to_vec()).collect());
    let delta_b = after_b.delta_since(&after_a);
    assert_eq!(delta_a, delta_b, "identical multisets must fold identically across stripes");
    assert_eq!(delta_a.count, values.len() as u64);
}

#[test]
fn gauge_providers_appear_until_their_guard_drops() {
    let _guard = serial();
    let provider = r2t_obs::register_gauge_provider(Box::new(|emit| {
        emit("live.provider.gauge", "alpha", 1.5);
        emit("live.provider.gauge", "beta", 2.5);
    }));
    let snap = r2t_obs::snapshot();
    let rows = snap.polled.get("live.provider.gauge").expect("provider polled");
    assert_eq!(rows, &vec![("alpha".to_string(), 1.5), ("beta".to_string(), 2.5)]);
    drop(provider);
    let snap = r2t_obs::snapshot();
    assert!(
        !snap.polled.contains_key("live.provider.gauge"),
        "dropped provider must stop being polled"
    );
}

/// End-to-end exporter: JSONL lines parse against the snapshot schema with
/// monotone sequence numbers, and the TCP endpoint answers a scrape with
/// well-formed Prometheus text.
#[test]
fn exporter_emits_jsonl_and_serves_prometheus() {
    let _guard = serial();
    let path = temp_path("exporter");
    let mut handle = r2t_obs::exporter::spawn(r2t_obs::exporter::ExporterConfig {
        interval: Duration::from_millis(20),
        jsonl_path: Some(path.clone()),
        listen: Some("127.0.0.1:0".parse().expect("loopback addr")),
    })
    .expect("exporter spawns");
    let addr = handle.local_addr().expect("listener bound");

    r2t_obs::counter_add("live.exporter.pings", 3);
    r2t_obs::hist_record("live.exporter.ns", 1234);
    r2t_obs::set_level(Level::Spans);
    drop(r2t_obs::span("live.exporter.span"));
    r2t_obs::set_level(Level::Counters);
    // Let at least two emission intervals elapse so the JSONL has lines.
    std::thread::sleep(Duration::from_millis(90));

    // Scrape the endpoint like a Prometheus server would.
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "status line: {response:.60}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response.split("\r\n\r\n").nth(1).expect("has a body");
    assert!(body.contains("# TYPE r2t_live_exporter_pings counter"), "{body}");
    assert!(body.contains("# TYPE r2t_live_exporter_ns summary"), "{body}");
    assert!(body.contains("r2t_live_exporter_ns{quantile=\"0.999\"}"), "{body}");
    assert!(body.contains("r2t_live_exporter_ns_count"), "{body}");
    assert!(body.contains("r2t_span_ns_count{path=\"live.exporter.span\"}"), "{body}");

    handle.shutdown();
    let jsonl = std::fs::read_to_string(&path).expect("jsonl written");
    let _ = std::fs::remove_file(&path);
    let mut last_seq = 0u64;
    let mut lines = 0;
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).expect("every JSONL line parses");
        let seq = v.get("seq").and_then(|s| s.as_u64()).expect("seq field");
        assert!(seq > last_seq, "JSONL sequence numbers must be monotone");
        last_seq = seq;
        for key in ["unix_ms", "counters", "gauges", "polled", "hists", "spans"] {
            assert!(v.get(key).is_some(), "snapshot line missing {key}");
        }
        lines += 1;
    }
    assert!(lines >= 1, "at least one snapshot line emitted");

    // The final flush must carry the recorded activity.
    let last = json::parse(jsonl.lines().rev().find(|l| !l.trim().is_empty()).unwrap())
        .expect("last line parses");
    assert!(
        last.get("counters").and_then(|c| c.get("live.exporter.pings")).is_some(),
        "exported snapshot carries the live counters"
    );
    assert!(
        last.get("spans").and_then(|s| s.get("live.exporter.span")).is_some(),
        "exported snapshot carries the span histograms"
    );
}

/// A spawn that fails — here on a port that is already taken — must start no
/// thread: nothing may keep writing the JSONL file after `spawn` returned
/// `Err`.
#[test]
fn failed_spawn_leaves_no_emitter_running() {
    let _guard = serial();
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port to occupy");
    let path = temp_path("failed_spawn");
    let spawned = r2t_obs::exporter::spawn(r2t_obs::exporter::ExporterConfig {
        interval: Duration::from_millis(10),
        jsonl_path: Some(path.clone()),
        listen: Some(taken.local_addr().expect("bound address")),
    });
    assert!(spawned.is_err(), "binding a taken port must fail the spawn");
    r2t_obs::counter_add("live.failed_spawn.pings", 1);
    std::thread::sleep(Duration::from_millis(60));
    let written = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    assert!(written.is_empty(), "a failed spawn left an emitter writing: {written}");
}

/// An empty (compiled-out style) snapshot still serializes to valid JSON and
/// valid Prometheus text — exporters never crash on a quiet process.
#[test]
fn empty_snapshot_serializes_cleanly() {
    let snap = Snapshot::default();
    let v = json::parse(&snap.to_json()).expect("valid JSON");
    assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(0));
    assert_eq!(snap.to_prometheus(), "");
}
