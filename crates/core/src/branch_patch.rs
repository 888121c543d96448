//! Incremental maintenance of [`BranchValues`] under result-line deltas.
//!
//! [`BranchValues::compute`] replays the whole query profile through the
//! truncation grid — `O(results)` per branch even when the sweep dispatches
//! to the closed-form kernel. After a small write, the serving layer knows
//! *exactly* which result lines appeared and disappeared (the engine's
//! delta-join report), and for the closed-form regime that is enough to
//! patch the branch values in `O(delta)` without ever replaying the profile.
//!
//! # Why the patch is bitwise-exact
//!
//! The closed-form kernel evaluates every branch as
//!
//! ```text
//! Q(I, τ) = (fixed + Σ_{S_k ≤ τ} S_k) + τ · #{k : S_k > τ}
//! ```
//!
//! over per-private-tuple sensitivity sums `S_k = Σ ψ` and the `fixed`
//! weight of lines referencing no private tuple. [`BranchPatcher`] engages
//! only when every quantity in that expression is an exact nonnegative
//! integer small enough (≤ 2⁵¹) that f64 arithmetic over it is exact — the
//! COUNT-query regime, where all ψ are small integers. Then the sums,
//! prefix accumulations, and comparisons are order-independent, so a
//! hash-map of integer sums maintained under line inserts/removals
//! reproduces, bit for bit, what a from-scratch kernel build over the
//! patched profile would produce. Arming additionally *verifies* the mirror
//! against the canonically computed values before trusting it.
//!
//! Everything outside that regime — warm sweep disabled (the stateless path
//! runs presolve + simplex, which only agrees to tolerance), fractional or
//! huge weights, multi-reference lines (the matching/simplex kernels),
//! grouped profiles — refuses to arm or disengages on patch, and the caller
//! falls back to the full recompute.

use crate::BranchValues;
use std::collections::{BTreeMap, HashMap};

/// Largest magnitude we allow any maintained integer aggregate to reach.
/// Well under 2⁵³ so every intermediate f64 add of two aggregates is exact.
const MAX_EXACT: i64 = 1 << 51;

/// Incrementally maintained mirror of the closed-form branch-value kernel
/// for one prepared query. Feed it the engine's line-level change report
/// ([`patch`][Self::patch]); read back [`values`][Self::values] and
/// [`summary`][Self::summary_parts] without touching the profile.
#[derive(Debug)]
pub struct BranchPatcher {
    /// Grid depth: values are evaluated at τ = 2¹ .. 2^branches.
    branches: u32,
    /// Per raw private key: (number of referencing lines, exact sensitivity
    /// sum `S_k`). Keys are the view's stable packed identifiers.
    sums: HashMap<u64, (u32, i64)>,
    /// Sensitivity histogram: `S` → number of keys whose sum is `S`.
    hist: BTreeMap<i64, u32>,
    /// Σ weight of lines referencing no private tuple (the kernel's fixed
    /// contribution). Invariant under patches — changes disengage.
    fixed: i64,
    /// Number of no-reference lines (tracked to keep `fixed`'s invariance
    /// honest even for weight-0 lines).
    no_ref_lines: usize,
    /// Σ weight over all lines (the summary's `query_result`).
    total: i64,
    /// Total surviving lines.
    lines: usize,
}

/// `true` iff `w` is a nonnegative integer small enough for exact f64
/// arithmetic after aggregation.
fn exact_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0 && w.fract() == 0.0 && w <= MAX_EXACT as f64
}

impl BranchPatcher {
    /// Arms a patcher over the current result lines iff the closed-form
    /// exactness conditions hold, verifying the mirrored evaluation against
    /// `canonical` (the values just computed from scratch) bit for bit.
    ///
    /// `lines` yields `(weight, raw private keys)` for every surviving
    /// result — [`IncrementalView::raw_lines`] order, though order is
    /// irrelevant here. Returns `None` whenever any gate fails; the caller
    /// then stays on the full-recompute path.
    ///
    /// [`IncrementalView::raw_lines`]: r2t_engine::IncrementalView::raw_lines
    pub fn try_new<'a, I>(
        lines: I,
        canonical: &BranchValues,
        branches: u32,
        warm_sweep: bool,
    ) -> Option<BranchPatcher>
    where
        I: IntoIterator<Item = (f64, &'a [u64])>,
    {
        // Without the warm sweep the grid is evaluated by the stateless
        // presolve+simplex path, which the mirror only matches to tolerance.
        if !warm_sweep || branches == 0 || branches > 62 {
            return None;
        }
        let mut p = BranchPatcher {
            branches,
            sums: HashMap::new(),
            hist: BTreeMap::new(),
            fixed: 0,
            no_ref_lines: 0,
            total: 0,
            lines: 0,
        };
        for (w, refs) in lines {
            if !p.add_line(w, refs) {
                return None;
            }
        }
        // An empty profile short-circuits `compute` entirely (base +0.0, no
        // kernel); the first insert would then flip `base`'s bits. Refuse.
        if p.lines == 0 {
            return None;
        }
        // The analytic argument says the mirror now reproduces the kernel;
        // make it an enforced fact before anyone trusts a patched value.
        let mine = p.values();
        let ok = mine.base.to_bits() == canonical.base.to_bits()
            && mine.values.len() == canonical.values.len()
            && mine.values.iter().zip(&canonical.values).all(|(a, b)| a.to_bits() == b.to_bits());
        if !ok {
            r2t_obs::counter_add("core.branch_patch.arm_mismatch", 1);
            return None;
        }
        Some(p)
    }

    /// Applies one step's line changes. Returns `false` — leaving the
    /// patcher poisoned, the caller must discard it — when any removed or
    /// added line falls outside the exactness regime: multi-reference
    /// lines, fractional/negative/huge weights, an aggregate overflowing
    /// the exact range, removal of a line that was never added, or the line
    /// set emptying (an empty profile short-circuits `compute` and derives
    /// its `base` bits differently).
    pub fn patch(&mut self, removed: &[(f64, Box<[u64]>)], added: &[(f64, Box<[u64]>)]) -> bool {
        for (w, refs) in removed {
            if !self.remove_line(*w, refs) {
                return false;
            }
        }
        for (w, refs) in added {
            if !self.add_line(*w, refs) {
                return false;
            }
        }
        self.lines > 0
    }

    fn add_line(&mut self, w: f64, refs: &[u64]) -> bool {
        if !exact_weight(w) || refs.len() > 1 {
            return false;
        }
        let wi = w as i64;
        self.total += wi;
        if self.total > MAX_EXACT {
            return false;
        }
        self.lines += 1;
        match refs.first() {
            None => {
                self.fixed += wi;
                self.no_ref_lines += 1;
            }
            Some(&k) => {
                let (count, sum) = self.sums.entry(k).or_insert((0, 0));
                if *count > 0 {
                    Self::hist_dec(&mut self.hist, *sum);
                }
                *count += 1;
                *sum += wi;
                let s = *sum;
                *self.hist.entry(s).or_insert(0) += 1;
            }
        }
        true
    }

    fn remove_line(&mut self, w: f64, refs: &[u64]) -> bool {
        if !exact_weight(w) || refs.len() > 1 {
            return false;
        }
        let wi = w as i64;
        match refs.first() {
            None => {
                if self.no_ref_lines == 0 || self.fixed < wi {
                    return false;
                }
                self.fixed -= wi;
                self.no_ref_lines -= 1;
            }
            Some(k) => {
                let Some((count, sum)) = self.sums.get_mut(k) else { return false };
                if *count == 0 || *sum < wi {
                    return false;
                }
                Self::hist_dec(&mut self.hist, *sum);
                *count -= 1;
                *sum -= wi;
                if *count == 0 {
                    // A key with no referencing lines has no LP row at all
                    // (even if its residual sum were nonzero, count 0 forces
                    // sum 0 for nonnegative weights).
                    self.sums.remove(k);
                } else {
                    let s = *sum;
                    *self.hist.entry(s).or_insert(0) += 1;
                }
            }
        }
        self.lines -= 1;
        self.total -= wi;
        true
    }

    fn hist_dec(hist: &mut BTreeMap<i64, u32>, s: i64) {
        if let Some(n) = hist.get_mut(&s) {
            *n -= 1;
            if *n == 0 {
                hist.remove(&s);
            }
        }
    }

    /// Branch values over the current state, mirroring
    /// [`BranchValues::compute`] on the warm closed-form path bit for bit:
    /// `values[j-1] = (fixed + Σ_{S ≤ 2^j} S) + 2^j · #{S > 2^j}`.
    pub fn values(&self) -> BranchValues {
        // Ascending (sum, count) entries with cumulative counts and sums —
        // the kernel's sorted `sums`/`prefix`, deduplicated.
        let entries: Vec<(i64, u32)> = self.hist.iter().map(|(&s, &n)| (s, n)).collect();
        let total_keys: u64 = entries.iter().map(|&(_, n)| n as u64).sum();
        let nb = self.branches as usize;
        let mut values = vec![0.0f64; nb];
        let mut idx = 0usize; // entries[..idx] have sum ≤ τ
        let mut below: i64 = 0; // Σ sums over those entries
        let mut keys_below: u64 = 0;
        for (j, slot) in values.iter_mut().enumerate() {
            let tau_int: i64 = 1i64 << (j + 1);
            while idx < entries.len() && entries[idx].0 <= tau_int {
                below += entries[idx].0 * entries[idx].1 as i64;
                keys_below += entries[idx].1 as u64;
                idx += 1;
            }
            let tau = (1u64 << (j + 1)) as f64;
            *slot = (self.fixed + below) as f64 + tau * ((total_keys - keys_below) as f64);
        }
        // `value(0.0)` is the no-reference filtered sum, folded from the
        // -0.0 additive identity: -0.0 when the filter is empty, else the
        // exact integer total (order-independent for exact integers).
        let base = if self.no_ref_lines == 0 { -0.0 } else { self.fixed as f64 };
        BranchValues { base, values }
    }

    /// The pieces of a [`ProfileSummary`] this state determines, exactly as
    /// a replayed profile would compute them:
    /// `(results, num_private, query_result, max_sensitivity)`.
    /// Under the arm gates `max_refs = (num_private > 0) as usize` and
    /// `is_projection = false`.
    ///
    /// [`ProfileSummary`]: r2t_engine::ProfileSummary
    pub fn summary_parts(&self) -> (usize, usize, f64, f64) {
        // An empty `.sum::<f64>()` is -0.0 (the additive identity), which is
        // what a replay reports when no lines survive — but `patch` refuses
        // to empty the line set, so `lines > 0` holds and integer sums of
        // nonnegative terms match the fold bitwise.
        let query_result = self.total as f64;
        let max_sensitivity = self.hist.last_key_value().map(|(&s, _)| s as f64).unwrap_or(0.0);
        (self.lines, self.sums.len(), query_result, max_sensitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2t_engine::lineage::ProfileBuilder;

    const NB: u32 = 12;

    fn canonical(lines: &[(f64, &[u64])]) -> BranchValues {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for (w, refs) in lines {
            b.add_result(*w, refs.iter().copied());
        }
        BranchValues::for_profile_grid(&b.build(), NB, true, 0)
    }

    fn assert_bits(a: &BranchValues, b: &BranchValues) {
        assert_eq!(a.base.to_bits(), b.base.to_bits(), "base bits");
        assert_eq!(a.values.len(), b.values.len());
        for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "branch {i}: {x} vs {y}");
        }
    }

    #[test]
    fn arms_and_mirrors_single_reference_counts() {
        let lines: Vec<(f64, &[u64])> =
            vec![(1.0, &[7][..]), (1.0, &[7][..]), (1.0, &[9][..]), (2.0, &[11][..])];
        let canon = canonical(&lines);
        let p = BranchPatcher::try_new(lines.iter().copied(), &canon, NB, true)
            .expect("closed-form profile arms");
        assert_bits(&p.values(), &canon);
    }

    #[test]
    fn patch_tracks_rebuild_bit_for_bit() {
        let mut lines: Vec<(f64, Box<[u64]>)> = (0..200)
            .map(|i| (1.0 + (i % 3) as f64, vec![(i % 17) as u64].into_boxed_slice()))
            .collect();
        lines.push((5.0, Box::from(&[][..]))); // a fixed line, never touched
        let as_refs = |ls: &[(f64, Box<[u64]>)]| -> Vec<(f64, Vec<u64>)> {
            ls.iter().map(|(w, r)| (*w, r.to_vec())).collect()
        };
        let snapshot = as_refs(&lines);
        let canon =
            canonical(&snapshot.iter().map(|(w, r)| (*w, r.as_slice())).collect::<Vec<_>>());
        let mut p = BranchPatcher::try_new(
            snapshot.iter().map(|(w, r)| (*w, r.as_slice())),
            &canon,
            NB,
            true,
        )
        .expect("arms");

        // Remove 20 lines, add 30 with both old and brand-new keys.
        let removed: Vec<(f64, Box<[u64]>)> = lines.drain(0..20).collect();
        let added: Vec<(f64, Box<[u64]>)> =
            (0..30).map(|i| (1.0, vec![40 + (i % 5) as u64].into_boxed_slice())).collect();
        lines.extend(added.iter().cloned());
        assert!(p.patch(&removed, &added), "patch stays in regime");

        let now = as_refs(&lines);
        let rebuilt = canonical(&now.iter().map(|(w, r)| (*w, r.as_slice())).collect::<Vec<_>>());
        assert_bits(&p.values(), &rebuilt);

        let (results, num_private, query_result, max_s) = p.summary_parts();
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for (w, r) in &now {
            b.add_result(*w, r.iter().copied());
        }
        let s = b.build().summary();
        assert_eq!(results, s.results);
        assert_eq!(num_private, s.num_private);
        assert_eq!(query_result.to_bits(), s.query_result.to_bits());
        assert_eq!(max_s.to_bits(), s.max_sensitivity.to_bits());
    }

    #[test]
    fn no_reference_lines_patch_exactly() {
        // Fixed lines (no private reference) appear and disappear; the
        // mirrored `base`/`fixed` must keep tracking the rebuild bitwise —
        // including the -0.0 the fold reports once the filter empties.
        let start: Vec<(f64, &[u64])> = vec![(1.0, &[1][..]), (4.0, &[][..])];
        let canon = canonical(&start);
        let mut p = BranchPatcher::try_new(start.iter().copied(), &canon, NB, true).expect("arms");
        assert!(p.patch(&[(4.0, Box::from(&[][..]))], &[(2.0, Box::from(&[3u64][..]))]));
        let now: Vec<(f64, &[u64])> = vec![(1.0, &[1][..]), (2.0, &[3][..])];
        let rebuilt = canonical(&now);
        assert_bits(&p.values(), &rebuilt);
        assert_eq!(rebuilt.base.to_bits(), (-0.0f64).to_bits(), "fold identity");

        assert!(p.patch(&[], &[(3.0, Box::from(&[][..]))]));
        let now: Vec<(f64, &[u64])> = vec![(1.0, &[1][..]), (2.0, &[3][..]), (3.0, &[][..])];
        assert_bits(&p.values(), &canonical(&now));
    }

    #[test]
    fn refuses_out_of_regime_profiles() {
        let multi: Vec<(f64, &[u64])> = vec![(1.0, &[1, 2][..])];
        assert!(
            BranchPatcher::try_new(multi.iter().copied(), &canonical(&multi), NB, true).is_none()
        );

        let frac: Vec<(f64, &[u64])> = vec![(1.5, &[1][..])];
        assert!(BranchPatcher::try_new(frac.iter().copied(), &canonical(&frac), NB, true).is_none());

        let fine: Vec<(f64, &[u64])> = vec![(1.0, &[1][..])];
        let canon = canonical(&fine);
        assert!(BranchPatcher::try_new(fine.iter().copied(), &canon, NB, false).is_none());
        assert!(BranchPatcher::try_new(std::iter::empty(), &canon, NB, true).is_none());
    }

    #[test]
    fn disengages_instead_of_drifting() {
        let fine: Vec<(f64, &[u64])> = vec![(1.0, &[1][..]), (2.0, &[2][..])];
        let canon = canonical(&fine);
        let arm = || BranchPatcher::try_new(fine.iter().copied(), &canon, NB, true).unwrap();

        // Removing a line that was never there.
        assert!(!arm().patch(&[(1.0, Box::from(&[5u64][..]))], &[]));
        // Adding a fractional-weight line.
        assert!(!arm().patch(&[], &[(0.25, Box::from(&[1u64][..]))]));
        // Adding a multi-reference line.
        assert!(!arm().patch(&[], &[(1.0, Box::from(&[1u64, 2][..]))]));
        // Removing a no-reference line that was never there.
        assert!(!arm().patch(&[(3.0, Box::from(&[][..]))], &[]));
        // Emptying the line set.
        assert!(!arm().patch(&[(1.0, Box::from(&[1u64][..])), (2.0, Box::from(&[2u64][..]))], &[]));
    }
}
