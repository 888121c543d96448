//! Lock-free log-linear latency/value histograms (HDR-style).
//!
//! A `Histogram` covers the full `u64` value domain with a **fixed**
//! log-linear bucket layout: values below 2^[`SUB_BITS`] land in exact
//! unit-width buckets, and every power-of-two octave above is split into
//! 2^[`SUB_BITS`] equal sub-buckets, bounding the relative quantile error at
//! `2^-SUB_BITS` (≈ 3.1% for the default of 5 bits). The layout is a pure
//! function of the value — no configuration, no rescaling, no allocation on
//! the record path — so two histograms (or two shards of one) always merge
//! bucket-by-bucket with plain addition, which is commutative and
//! associative: merges are order-independent by construction.
//!
//! **Concurrency.** The hot path is wait-free: a record is two relaxed
//! `fetch_add`s (bucket count and value sum) on one of [`SHARDS`] per-thread
//! shards; threads are assigned shards round-robin so concurrent recorders
//! do not share cache lines. Readers fold all shards into an immutable
//! [`HistSnapshot`] without stopping writers; because every bucket is
//! monotonically non-decreasing, two snapshots taken by one reader are
//! totally ordered (counts never decrease) even while 16 writers hammer the
//! histogram.
//!
//! **DP-safety.** A histogram records only quantities the DP-safety table in
//! DESIGN.md §3.3/§3.8 classifies as safe: wall-clock latencies and span
//! durations, CAS retry counts, and structural sizes. Bucket indices are value-derived but the
//! values themselves are operational (timings, counts), never tuple data —
//! the `&'static str` naming rule of the recording API still applies.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets,
/// so quantiles are exact to a relative error of `2^-SUB_BITS` ≈ 3.1%.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`: the linear group (indices
/// `0..SUB_BUCKETS`) plus one group of `SUB_BUCKETS` per shift value
/// `0..=(63 - SUB_BITS)` — 60 groups of 32 for the default layout, so the
/// top bucket (index 1919) holds `u64::MAX`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Number of independent write shards per histogram. Threads are assigned
/// shards round-robin at first use; 8 shards keep false sharing negligible
/// at serving-tier thread counts without bloating snapshots.
pub const SHARDS: usize = 8;

/// The bucket index a value lands in. Pure integer math — no floats, no
/// branches beyond the linear/log split — identical on every platform.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) as usize & (SUB_BUCKETS - 1))
    }
}

/// The largest value that maps into bucket `index` (the inverse of
/// [`bucket_index`], upper edge). Quantile extraction reports this bound, so
/// reported quantiles are conservative (never below the true quantile).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < NUM_BUCKETS);
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & (SUB_BUCKETS - 1)) as u64;
        let low = (SUB_BUCKETS as u64 + sub) << shift;
        low + ((1u64 << shift) - 1)
    }
}

/// An immutable point-in-time view of one histogram: sparse non-zero bucket
/// counts plus the total count and value sum. Produced by folding write
/// shards (see `Histogram::snapshot`); mergeable with plain bucket-wise
/// addition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total recorded samples (the sum of all bucket counts).
    pub count: u64,
    /// Sum of all recorded values (wraps only after ~1.8e19 value-units).
    pub sum: u64,
    /// `(bucket index, count)` for every non-zero bucket, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the upper bound of
    /// the bucket containing the `ceil(q·count)`-th sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx as usize);
            }
        }
        // Unreachable when count == Σ buckets; be safe under a torn read.
        self.buckets.last().map(|&(idx, _)| bucket_upper_bound(idx as usize)).unwrap_or(0)
    }

    /// The largest non-empty bucket's upper bound (a cheap max estimate).
    pub fn max_bound(&self) -> u64 {
        self.buckets.last().map(|&(idx, _)| bucket_upper_bound(idx as usize)).unwrap_or(0)
    }

    /// Folds `other` in bucket-by-bucket. Addition is commutative and
    /// associative, so any merge order over any shard partition yields the
    /// same snapshot.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The counts recorded since `earlier` (bucket-wise saturating
    /// difference). Meaningful when both snapshots come from the same
    /// histogram, `self` taken later.
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut e = earlier.buckets.iter().peekable();
        for &(idx, n) in &self.buckets {
            while e.peek().is_some_and(|&&(ei, _)| ei < idx) {
                e.next();
            }
            let prev = match e.peek() {
                Some(&&(ei, en)) if ei == idx => en,
                _ => 0,
            };
            let d = n.saturating_sub(prev);
            if d > 0 {
                buckets.push((idx, d));
            }
        }
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            buckets,
        }
    }
}

#[cfg(feature = "enabled")]
pub(crate) use live::Histogram;

#[cfg(feature = "enabled")]
mod live {
    use super::{bucket_index, HistSnapshot, NUM_BUCKETS, SHARDS};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One write shard: a dense bucket array plus the value sum. All shards
    /// are allocated when the histogram is registered: 8 shards × 1920
    /// buckets × 8 B = 120 KiB per histogram.
    struct Shard {
        buckets: Box<[AtomicU64]>,
        sum: AtomicU64,
    }

    impl Shard {
        fn new() -> Shard {
            Shard {
                buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            }
        }
    }

    /// A lock-free log-linear histogram: [`SHARDS`] independent write shards
    /// folded on read. Registered once per `&'static str` name (or span
    /// path) in the registry (see `crate::snapshot`) and leaked to
    /// `'static`, so the hot path holds a plain reference.
    pub(crate) struct Histogram {
        shards: Vec<Shard>,
    }

    impl Histogram {
        pub(crate) fn new() -> Histogram {
            Histogram { shards: (0..SHARDS).map(|_| Shard::new()).collect() }
        }

        /// Records `value` on the caller's shard: two relaxed `fetch_add`s,
        /// wait-free, no allocation.
        #[inline]
        pub(crate) fn record(&self, stripe: usize, value: u64) {
            let shard = &self.shards[stripe % SHARDS];
            shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            shard.sum.fetch_add(value, Ordering::Relaxed);
        }

        /// Folds every shard into an immutable snapshot without stopping
        /// writers. Buckets only grow, so per-reader successive snapshots
        /// are monotone; shard fold order cannot matter (addition).
        pub(crate) fn snapshot(&self) -> HistSnapshot {
            let mut snap = HistSnapshot::default();
            for i in 0..NUM_BUCKETS {
                let n: u64 = self.shards.iter().map(|s| s.buckets[i].load(Ordering::Relaxed)).sum();
                if n > 0 {
                    snap.buckets.push((i as u32, n));
                    snap.count += n;
                }
            }
            snap.sum =
                self.shards.iter().fold(0u64, |a, s| a.wrapping_add(s.sum.load(Ordering::Relaxed)));
            snap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_in_the_linear_range() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for v in [32u64, 33, 63, 64, 65, 100, 1 << 20, (1 << 20) + 12345, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            // Relative bucket width is bounded by 2^-SUB_BITS.
            assert!(
                (ub - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "v={v} ub={ub}: bucket too wide"
            );
            // The upper bound itself maps back to the same bucket.
            assert_eq!(bucket_index(ub), idx);
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2] {
                let idx = bucket_index(probe);
                assert!(idx >= prev, "non-monotone at {probe}");
                prev = idx;
            }
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        // 1000 samples of value 100, 10 of value 10_000.
        let (b_lo, b_hi) = (bucket_index(100) as u32, bucket_index(10_000) as u32);
        let snap = HistSnapshot {
            count: 1010,
            sum: 1000 * 100 + 10 * 10_000,
            buckets: vec![(b_lo, 1000), (b_hi, 10)],
        };
        let p50 = snap.quantile(0.50);
        let p999 = snap.quantile(0.999);
        assert!((100..=104).contains(&p50), "p50 = {p50}");
        assert!((10_000..=10_000 + 10_000 / 32 + 1).contains(&p999), "p999 = {p999}");
        assert_eq!(snap.quantile(0.0), snap.quantile(1e-9), "q=0 clamps to first sample");
        assert_eq!(snap.quantile(1.0), p999);
        assert!((snap.mean() - (1000.0 * 100.0 + 10.0 * 10_000.0) / 1010.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_commutative_and_matches_the_union() {
        let mk = |pairs: &[(u64, u64)]| {
            let mut s = HistSnapshot::default();
            for &(v, n) in pairs {
                s.buckets.push((bucket_index(v) as u32, n));
                s.count += n;
                s.sum += v * n;
            }
            s.buckets.sort_unstable();
            s
        };
        let a = mk(&[(5, 3), (1000, 7)]);
        let b = mk(&[(5, 2), (77, 1), (1 << 40, 4)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge order must not matter");
        assert_eq!(ab.count, a.count + b.count);
        assert_eq!(ab.sum, a.sum + b.sum);
        let five = bucket_index(5) as u32;
        assert_eq!(ab.buckets.iter().find(|&&(i, _)| i == five), Some(&(five, 5)));
    }

    #[test]
    fn delta_since_subtracts_bucketwise() {
        let earlier = HistSnapshot { count: 7, sum: 100, buckets: vec![(3, 5), (40, 2)] };
        let mut later = earlier.clone();
        later.merge(&HistSnapshot { count: 4, sum: 50, buckets: vec![(3, 1), (90, 3)] });
        let d = later.delta_since(&earlier);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 50);
        assert_eq!(d.buckets, vec![(3, 1), (90, 3)]);
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let s = HistSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max_bound(), 0);
    }
}
