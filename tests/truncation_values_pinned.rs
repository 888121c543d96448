//! Pins every LP truncation value bit for bit.
//!
//! For the ten TPC-H queries and Example 6.2, `truncation::for_profile` is
//! evaluated at τ ∈ {0, 2⁰, …, 2¹²} through every entry point that yields a
//! `Q(I, τ)`: the stateless `value` and `value_racing` (generous cutoff, and
//! a cutoff at 0.999 × the value that may kill the solve), and a dispatched
//! sweep session fed τ descending (a combinatorial kernel, or the simplex
//! for the queries no kernel serves). Every result's `to_bits()` is folded
//! into one FNV-1a digest, so a change to any solver path that moves a
//! single value by one ulp fails here.

use r2t::core::truncation::{for_profile, SweepBranchSolver, Truncation};
use r2t::engine::exec;
use r2t::graph::{Graph, Pattern};
use r2t::tpch::{all_queries, generate};

/// The digest the truncation stack produced when this test was written.
const PINNED: u64 = 0x96c7_dcdf_8d0c_02b8;

/// FNV-1a 64 over the little-endian bytes of each pushed word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_value(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    /// `None` (a killed solve, or no session) is its own tag, never a value.
    fn push_opt(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.push(1);
                self.push_value(v);
            }
            None => self.push(0),
        }
    }
}

/// τ = 0, 2⁰, …, 2¹² in ascending order.
fn taus() -> Vec<f64> {
    std::iter::once(0.0).chain((0..=12).map(|j| f64::from(1u32 << j))).collect()
}

/// Example 6.2's graph: 1000 triangles, 1000 4-cliques, 100 8-stars,
/// 10 16-stars and one 32-star.
fn example_6_2_graph() -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut next = 0u32;
    for (k, count) in [(3u32, 1000usize), (4, 1000)] {
        for _ in 0..count {
            let base = next;
            next += k;
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j));
                }
            }
        }
    }
    for (k, count) in [(8u32, 100usize), (16, 10), (32, 1)] {
        for _ in 0..count {
            let center = next;
            next += k + 1;
            for leaf in 1..=k {
                edges.push((center, center + leaf));
            }
        }
    }
    Graph::from_edges(next as usize, &edges)
}

/// Feeds one session every τ in descending order (the race's order); a
/// truncation without a session folds a single `None`.
fn fold_session(h: &mut Fnv, session: Option<Box<dyn SweepBranchSolver + '_>>) {
    let Some(mut s) = session else {
        h.push_opt(None);
        return;
    };
    for &tau in taus().iter().rev() {
        h.push_value(s.value(tau));
    }
}

fn fold_truncation(h: &mut Fnv, t: &dyn Truncation) {
    for tau in taus() {
        let v = t.value(tau);
        h.push_value(v);
        h.push_opt(t.value_racing(tau, &mut |_| true));
        let bar = 0.999 * v;
        h.push_opt(t.value_racing(tau, &mut |ub| ub >= bar));
    }
    fold_session(h, t.sweep_session());
}

#[test]
fn truncation_values_match_the_pinned_digest() {
    let mut h = Fnv::new();
    let inst = generate(0.15, 0.3, 21);
    for tq in all_queries() {
        let p = exec::profile(&tq.schema, &inst, &tq.query).expect("query runs");
        fold_truncation(&mut h, for_profile(&p).as_ref());
    }
    let p = Pattern::Edge.profile(&example_6_2_graph());
    fold_truncation(&mut h, for_profile(&p).as_ref());
    assert_eq!(h.0, PINNED, "digest {:#018x} moved from the pinned {PINNED:#018x}", h.0);
}
