//! Section 7 cases of [`super::LpTruncation`]: SPJA queries whose
//! duplicate-removing projection adds the `v_l ≤ Σ_{k ∈ D_l} u_k` group
//! rows to the LP.

mod tests {
    use crate::truncation::{LpTruncation, Truncation};
    use r2t_engine::lineage::ProfileBuilder;
    use r2t_engine::QueryProfile;

    /// Example 7.1: two private tuples, m projected results fully overlapped.
    fn overlap_profile(m: u64) -> QueryProfile {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for l in 0..m {
            b.add_projected_result(l, 1.0, 1.0, [1]).unwrap();
            b.add_projected_result(l, 1.0, 1.0, [2]).unwrap();
        }
        b.build()
    }

    #[test]
    fn overlapping_contributions_counted_once() {
        let p = overlap_profile(6);
        assert_eq!(p.query_result(), 6.0);
        let t = LpTruncation::new(&p);
        // τ = 3: each private tuple can support 3 units, and the two cover
        // disjoint-able halves, so all 6 projected results reach weight 1.
        assert!((t.value(3.0) - 6.0).abs() < 1e-6, "{}", t.value(3.0));
        // τ = 1: total u mass ≤ 2, so at most 2 projected results covered.
        assert!((t.value(1.0) - 2.0).abs() < 1e-6, "{}", t.value(1.0));
        assert_eq!(t.value(0.0), 0.0);
        // Saturation at IS_Q(I) = 6.
        assert!((t.value(t.tau_star()) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn stability_on_down_neighbors() {
        let p = overlap_profile(4);
        let t = LpTruncation::new(&p);
        for j in 0..p.num_private as u32 {
            let q = p.remove_private(j);
            let tq = LpTruncation::new(&q);
            for tau in [0.0, 1.0, 2.0, 3.0, 4.0, 8.0] {
                let diff = (t.value(tau) - tq.value(tau)).abs();
                assert!(diff <= tau + 1e-6, "j={j} tau={tau} diff={diff}");
            }
        }
    }

    #[test]
    fn group_weight_caps_value() {
        // One projected result of weight 2 backed by three unit results.
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_projected_result(0, 2.0, 1.0, [1]).unwrap();
        b.add_projected_result(0, 2.0, 1.0, [2]).unwrap();
        b.add_projected_result(0, 2.0, 1.0, [3]).unwrap();
        let p = b.build();
        let t = LpTruncation::new(&p);
        assert!((t.value(1.0) - 2.0).abs() < 1e-6);
        assert!((t.value(0.5) - 1.5).abs() < 1e-6);
        assert!((t.value(10.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn monotone_underestimate() {
        let p = overlap_profile(5);
        let t = LpTruncation::new(&p);
        let mut prev = 0.0;
        for tau in 0..8 {
            let v = t.value(tau as f64);
            assert!(v + 1e-9 >= prev);
            assert!(v <= p.query_result() + 1e-9);
            prev = v;
        }
    }
}
