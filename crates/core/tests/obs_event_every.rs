//! `R2TConfig::event_every` controls how often each branch LP checks the
//! racing cutoff and reports progress. The granularity must be purely
//! observational: changing it changes the `r2t.progress.checks` counter
//! total (when the obs registry is compiled in) but never the released
//! output. Own integration-test binary: the obs registry is process-global.

use r2t_core::{R2TConfig, R2T};
use r2t_engine::lineage::ProfileBuilder;
use r2t_engine::QueryProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Example 6.2's skewed instance: enough results that branch LPs run for
/// multiple simplex iterations (so `event_every` granularities differ). A
/// layer of 3-reference results keeps the profile off the flow kernel —
/// `event_every` is a *simplex* granularity, so the test must exercise the
/// simplex dispatch path.
fn profile() -> QueryProfile {
    let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
    let mut next: u64 = 0;
    for k in [3u64, 4] {
        for _ in 0..300 {
            let base = next;
            next += k;
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_result(1.0, [base + i, base + j]);
                }
            }
        }
    }
    for _ in 0..40 {
        let center = next;
        next += 9;
        for i in 1..=8 {
            b.add_result(1.0, [center, center + i]);
        }
    }
    for _ in 0..30 {
        let base = next;
        next += 3;
        b.add_result(1.0, [base, base + 1, base + 2]);
    }
    b.build()
}

/// One seeded early-stop race at the given granularity; returns the released
/// output and the progress-check counter total.
fn race(profile: &QueryProfile, event_every: usize) -> (f64, u64) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    r2t_obs::set_level(r2t_obs::Level::Counters);
    let start = r2t_obs::snapshot();
    let cfg = R2TConfig::builder(1.0, 0.1, 256.0)
        .early_stop(true)
        .parallel(false)
        .event_every(event_every)
        .build();
    let mut rng = StdRng::seed_from_u64(42);
    let out = R2T::new(cfg).run_profile(profile, &mut rng).output;
    let report = r2t_obs::snapshot().delta_since(&start);
    r2t_obs::set_level(r2t_obs::Level::Off);
    (out, report.counters.get("r2t.progress.checks").copied().unwrap_or(0))
}

#[test]
fn granularity_changes_counters_but_never_results() {
    let p = profile();
    let (out_fine, checks_fine) = race(&p, 1);
    let (out_coarse, checks_coarse) = race(&p, 64);

    // The released output is bit-identical at every granularity.
    assert_eq!(
        out_fine.to_bits(),
        out_coarse.to_bits(),
        "event_every changed the mechanism output: {out_fine} vs {out_coarse}"
    );

    if r2t_obs::COMPILED {
        // Checking every iteration must observe strictly more progress than
        // checking every 64th.
        assert!(
            checks_fine > checks_coarse,
            "progress checks should scale with granularity: {checks_fine} vs {checks_coarse}"
        );
        assert!(checks_fine > 0, "event_every=1 must record progress checks");
    } else {
        assert_eq!(checks_fine, 0, "no counters without the obs feature");
        assert_eq!(checks_coarse, 0);
    }
}
