//! Privacy budget accounting (basic sequential composition).
//!
//! R2T itself spends a single ε per query; an analyst asking *many* queries
//! against the same primary private relation composes. [`BudgetCell`] tracks
//! a total pure-ε budget and refuses charges that would exceed it — the
//! standard discipline a deployment wraps around any DP mechanism (the
//! paper defers composition to "various DP composition theorems"; basic
//! composition is the one valid for pure ε-DP).

use std::sync::atomic::{AtomicU64, Ordering};

/// A charge was refused because it would exceed the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetExceeded {
    /// Requested ε.
    pub requested: f64,
    /// Remaining ε.
    pub remaining: f64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "privacy budget exceeded: requested eps = {}, remaining = {}",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A successful [`BudgetCell`] charge: what the budget looked like the
/// instant this charge committed, plus how contended the commit was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCharge {
    /// ε spent *before* this charge committed.
    pub spent_before: f64,
    /// ε spent *after* this charge committed (`spent_before + ε`, evaluated
    /// in f64 exactly as the cell stored it).
    pub spent_after: f64,
    /// Number of compare-and-swap retries the commit needed. Zero in the
    /// uncontended case; a serving layer surfaces the sum as a contention
    /// counter.
    pub retries: u64,
}

/// A *lock-free* ε-budget ledger.
///
/// The cell stores `spent` as an `f64` bit pattern in an [`AtomicU64`] and
/// commits every charge with a single compare-and-swap, so concurrent
/// charges never serialize on a lock — they serialize only on the cache line
/// holding the budget, which is exactly the shared state the semantics
/// require.
///
/// **Exact-charging invariant.** A successful CAS replaces `spent` with
/// `spent + ε` computed in f64, so after any interleaving of concurrent
/// charges the cell's `spent` is *exactly* the f64 left-fold of the
/// successful charges in their commit order — every committed ε is
/// accounted, none is lost or double-counted, and no refused charge moves
/// the value. When the charged values sum exactly in f64 (e.g. equal
/// power-of-two ε), `spent` equals their sum bit-for-bit in every
/// interleaving; tests and the tenant benchmark pin this.
///
/// The cell deliberately carries *no* labels and *no* substream counter:
/// noise-substream indices are a session concern layered on top (see
/// `r2t-service`). A refused charge returns before any side effect,
/// which is what lets a serving layer prove its refusal path draws no
/// randomness.
#[derive(Debug)]
pub struct BudgetCell {
    total: f64,
    spent_bits: AtomicU64,
}

impl BudgetCell {
    /// Creates a cell with the given total ε budget.
    pub fn new(total_epsilon: f64) -> Self {
        assert!(total_epsilon >= 0.0, "budget must be non-negative");
        BudgetCell { total: total_epsilon, spent_bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Total budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε spent so far (a racy-but-exact snapshot: some committed charge
    /// produced exactly this value).
    pub fn spent(&self) -> f64 {
        f64::from_bits(self.spent_bits.load(Ordering::Acquire))
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent()).max(0.0)
    }

    /// Attempts to reserve `epsilon` (a batch reserves its summed ε in one
    /// call: all of it commits or none does). Commits with one CAS; on
    /// refusal the cell is untouched and nothing observable happened. A
    /// `1e-12` slack admits exact exhaustion and refuses the first
    /// over-budget charge.
    pub fn try_charge(&self, epsilon: f64) -> Result<CellCharge, BudgetExceeded> {
        assert!(epsilon >= 0.0, "charges must be non-negative");
        let mut retries = 0u64;
        let mut cur = self.spent_bits.load(Ordering::Relaxed);
        loop {
            let spent_before = f64::from_bits(cur);
            let spent_after = spent_before + epsilon;
            if spent_after > self.total + 1e-12 {
                return Err(BudgetExceeded {
                    requested: epsilon,
                    remaining: (self.total - spent_before).max(0.0),
                });
            }
            match self.spent_bits.compare_exchange_weak(
                cur,
                spent_after.to_bits(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Contention telemetry: how many CAS rounds this commit
                    // needed. DP-safe — retries depend on thread timing, not
                    // on any tuple value.
                    // Record only contended commits: on the uncontended fast
                    // path (retries == 0, the overwhelmingly common case) the
                    // record itself would be the most expensive step of the
                    // charge. Uncontended commits are countable as
                    // `service.charges` minus this histogram's count.
                    if retries > 0 {
                        r2t_obs::hist_record("core.budget.cas_retries", retries);
                    }
                    return Ok(CellCharge { spent_before, spent_after, retries });
                }
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_charges_and_refuses_like_the_accountant() {
        let c = BudgetCell::new(1.0);
        let first = c.try_charge(0.5).expect("fits");
        assert_eq!(first.spent_before, 0.0);
        assert_eq!(first.spent_after, 0.5);
        assert_eq!(first.retries, 0);
        c.try_charge(0.5).expect("exact exhaustion");
        assert_eq!(c.spent(), 1.0);
        assert_eq!(c.remaining(), 0.0);
        let err = c.try_charge(1e-6).expect_err("over budget");
        assert_eq!(err.requested, 1e-6);
        assert_eq!(c.spent(), 1.0, "refused charge must not move the cell");
    }

    #[test]
    fn cell_batch_charge_is_all_or_nothing() {
        let c = BudgetCell::new(1.0);
        c.try_charge(0.75).expect("fits");
        assert!(c.try_charge(0.5).is_err(), "batch over budget");
        assert_eq!(c.spent(), 0.75);
    }

    #[test]
    fn cell_concurrent_charges_are_exact() {
        use std::sync::Arc;
        // 16 threads race 64 charges of 1/128 each against a budget that
        // fits exactly half of them. Power-of-two ε: every partial sum is
        // exact in f64, so the invariant is bitwise, not approximate.
        let cell = Arc::new(BudgetCell::new(0.5));
        let eps = 1.0 / 128.0;
        let successes: usize = std::thread::scope(|scope| {
            (0..16)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    scope.spawn(move || (0..64).filter(|_| cell.try_charge(eps).is_ok()).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .sum()
        });
        assert_eq!(successes, 64, "exactly the budget's worth of charges");
        assert_eq!(cell.spent(), 0.5, "spent is the exact sum of successes");
    }
}
