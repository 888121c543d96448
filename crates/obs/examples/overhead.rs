//! Measures the per-call cost of the obs hot-path primitives, in
//! nanoseconds. This is the arithmetic behind the serving tier's telemetry
//! overhead budget (see `repro_tenants`'s obs-on/obs-off gate): a prepared
//! answer is ~0.5 µs, so at a 0.85× throughput floor the *sum* of all obs
//! calls on the answer path must stay under ~100 ns.
//!
//! Run with the live plane compiled in:
//!
//! ```text
//! cargo run --release -p r2t-obs --features enabled --example overhead
//! ```

fn time(label: &str, iters: u64, f: impl Fn(u64)) {
    // One warmup pass resolves level, registers names, and faults TLS.
    f(0);
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        f(i);
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!("{label:<34} {ns:7.1} ns/call");
}

fn main() {
    let iters = 4_000_000;
    r2t_obs::set_level(r2t_obs::Level::Off);
    time("counter_add (level off)", iters, |i| r2t_obs::counter_add("ov.off.counter", i));
    r2t_obs::set_level(r2t_obs::Level::Counters);
    time("counter_add", iters, |i| r2t_obs::counter_add("ov.counter", i));
    time("gauge_max", iters, |i| r2t_obs::gauge_max("ov.gauge", i));
    time("hist_record", iters, |i| r2t_obs::hist_record("ov.hist", i));
    time("hist_time (2 clock reads)", iters, |_| drop(r2t_obs::hist_time("ov.hist.ns")));
    time("span (inert below Spans)", iters, |_| drop(r2t_obs::span("ov.span")));
    time("event (counter tier)", iters, |_| r2t_obs::event("ov.event", &[]));
    time("clock read (Instant::now)", iters, |_| {
        std::hint::black_box(std::time::Instant::now());
    });
    r2t_obs::set_level(r2t_obs::Level::Spans);
    time("span (spans level)", iters, |_| drop(r2t_obs::span("ov.span.timed")));
    time("nested span (spans level)", iters, |_| {
        let _outer = r2t_obs::span("ov.span.outer");
        drop(r2t_obs::span("ov.span.inner"));
    });
}
