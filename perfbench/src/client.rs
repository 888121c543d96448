//! What the closed-loop clients of every workload share: when a run stops,
//! when it spreads its extra set-ups and writes, and how it measures
//! accuracy.

use crate::metrics;
use crate::EPSILON;
use r2t_service::PreparedQuery;
use std::time::Instant;

/// Cold set-ups per untraced run; `setup_s` is their median. The first
/// builds the measured database; the others are spread over the run.
pub const SETUPS: usize = 9;
/// Requests (ad hoc) or writes (`serve_rw`) below which a run keeps going
/// past `--seconds`, so the p90 always has ten samples beyond it. The
/// peak-RSS reading is taken when this many have been served.
pub const MIN_SAMPLES: usize = 100;
/// Wall-clock cap on a measuring loop past `--seconds`.
pub const OVERRUN_SECS: f64 = 60.0;
/// Extra answers drawn per accuracy statement.
pub const ACCURACY_ANSWERS: usize = 201;
/// Root of the accuracy session's noise, apart from the timed session's.
pub const ACCURACY_SALT: u64 = 0xacc0;

/// The wall clock of a measuring loop.
///
/// Some operations are spread evenly over the part of the run after the
/// peak-RSS reading instead of being timed back to back. On a shared
/// 2-vCPU VM the speed of a fixed loop moved by up to ±25% from one second
/// to the next; spread out, their median samples many of those seconds
/// rather than one.
pub struct Clock {
    start: Instant,
    seconds: f64,
    /// Seconds into the run at which spreading began.
    spread_from: Option<f64>,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        Clock { start: Instant::now(), seconds, spread_from: None }
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the loop goes on: until `--seconds` have passed, `samples`
    /// has reached [`MIN_SAMPLES`] and no spread operation is `pending`,
    /// but never [`OVERRUN_SECS`] past the end.
    pub fn keep_going(&self, samples: usize, pending: bool) -> bool {
        let elapsed = self.elapsed();
        (elapsed < self.seconds || samples < MIN_SAMPLES || pending)
            && elapsed < self.seconds + OVERRUN_SECS
    }

    /// Starts spreading operations over the rest of the run.
    pub fn spread_from_now(&mut self) {
        self.spread_from = Some(self.elapsed());
    }

    /// Whether the `k`-th (from 0) of `n` operations spread over the rest
    /// of the run is due. Past the end of the run every one is due.
    pub fn due(&self, k: usize, n: usize) -> bool {
        let Some(from) = self.spread_from else { return false };
        let to = self.seconds.max(from);
        k < n && self.elapsed() >= from + (to - from) * (k + 1) as f64 / (n + 1) as f64
    }
}

/// Median relative error, in percent, of [`ACCURACY_ANSWERS`] answers to
/// `prepared` against its exact value.
pub fn accuracy_pct(prepared: &PreparedQuery<'_, '_>, exact: f64) -> Result<f64, String> {
    let noisy: Vec<f64> = (0..ACCURACY_ANSWERS)
        .map(|_| prepared.answer(EPSILON).map(|a| a.noisy))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    metrics::rel_error_pct(&noisy, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_operations_fall_due_in_order_and_all_by_the_end() {
        let mut clock = Clock::start(0.0);
        assert!(!clock.due(0, 3), "nothing is due before spreading starts");
        clock.spread_from_now();
        // The run is already over: everything left is due at once.
        assert!((0..3).all(|k| clock.due(k, 3)));
        assert!(!clock.due(3, 3));
        assert!(clock.keep_going(0, false), "too few samples");
        assert!(clock.keep_going(MIN_SAMPLES, true), "an operation is pending");
        assert!(!clock.keep_going(MIN_SAMPLES, false));

        let mut clock = Clock::start(3600.0);
        clock.spread_from_now();
        assert!(!clock.due(0, 3), "the first of three falls a quarter into the run");
    }
}
