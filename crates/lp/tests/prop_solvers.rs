//! Property tests: the production revised simplex must agree with the dense
//! tableau oracle on random problems, solutions must satisfy primal
//! feasibility and weak duality, and the sweep's threshold cut must preserve
//! the optimum.

use proptest::prelude::*;
use r2t_lp::{
    lagrangian_bound, DenseSimplex, Problem, RevisedSimplex, RowBounds, Status, SweepProblem,
    VarBounds,
};

/// One random constraint row: (terms, sense -1/0/+1, rhs).
type RandomRow = (Vec<(usize, f64)>, i8, f64);

/// A randomly generated bounded LP described by plain data.
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    var_bounds: Vec<(f64, f64)>,
    objective: Vec<f64>,
    rows: Vec<RandomRow>,
}

impl RandomLp {
    fn build(&self) -> Problem {
        let mut p = Problem::new();
        for j in 0..self.nvars {
            let (lo, hi) = self.var_bounds[j];
            p.add_var(self.objective[j], VarBounds::new(lo, hi));
        }
        for (terms, sense, rhs) in &self.rows {
            let b = match sense {
                -1 => RowBounds::at_most(*rhs),
                0 => RowBounds::equal(*rhs),
                _ => RowBounds::at_least(*rhs),
            };
            p.add_row(b, terms);
        }
        p
    }
}

fn arb_lp(max_vars: usize, max_rows: usize, allow_eq: bool) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars, 1..=max_rows).prop_flat_map(move |(n, m)| {
        let bounds = prop::collection::vec((0.0f64..3.0, 0.0f64..4.0), n)
            .prop_map(|v| v.into_iter().map(|(lo, w)| (lo, lo + w)).collect::<Vec<_>>());
        let obj = prop::collection::vec(-3.0f64..3.0, n);
        let senses = if allow_eq { -1i8..=1 } else { -1i8..=-1 };
        let rows = prop::collection::vec(
            (prop::collection::vec((0..n, -2.0f64..2.0), 1..=n.min(4)), senses, -2.0f64..6.0),
            m,
        );
        (bounds, obj, rows).prop_map(move |(var_bounds, objective, rows)| RandomLp {
            nvars: n,
            var_bounds,
            objective,
            rows,
        })
    })
}

/// Packing LPs mirror the structure of R2T truncation LPs exactly.
fn arb_packing_lp() -> impl Strategy<Value = RandomLp> {
    (2..=14usize, 1..=10usize).prop_flat_map(|(n, m)| {
        let psi = prop::collection::vec(0.0f64..5.0, n);
        let rows =
            prop::collection::vec((prop::collection::vec(0..n, 1..=n.min(5)), 0.5f64..8.0), m);
        (psi, rows).prop_map(move |(psi, rows)| RandomLp {
            nvars: n,
            var_bounds: psi.iter().map(|&u| (0.0, u)).collect(),
            objective: vec![1.0; n],
            rows: rows
                .into_iter()
                .map(|(vars, tau)| {
                    let mut terms: Vec<(usize, f64)> = vars.into_iter().map(|v| (v, 1.0)).collect();
                    terms.sort_unstable_by_key(|&(v, _)| v);
                    terms.dedup_by_key(|t| t.0);
                    (terms, -1i8, tau)
                })
                .collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packing_lps_agree_with_oracle(lp in arb_packing_lp()) {
        let p = lp.build();
        let dense = DenseSimplex::new().solve(&p).unwrap();
        let revised = RevisedSimplex::new().solve(&p).unwrap();
        prop_assert_eq!(dense.status, Status::Optimal);
        prop_assert_eq!(revised.status, Status::Optimal);
        let scale = 1.0 + dense.objective.abs();
        prop_assert!(
            (dense.objective - revised.objective).abs() <= 1e-6 * scale,
            "dense {} vs revised {}", dense.objective, revised.objective
        );
        // Primal feasibility of the revised solution.
        prop_assert!(p.max_violation(&revised.x) <= 1e-6);
        // Weak duality: the returned duals certify (near-)optimality.
        let ub = lagrangian_bound(&p, &revised.y);
        prop_assert!(ub >= revised.objective - 1e-6 * scale);
        prop_assert!(ub <= revised.objective + 1e-5 * scale, "gap {} vs {}", ub, revised.objective);
    }

    #[test]
    fn general_inequality_lps_agree(lp in arb_lp(8, 6, false)) {
        let p = lp.build();
        let dense = DenseSimplex::new().solve(&p).unwrap();
        let revised = RevisedSimplex::new().solve(&p).unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            let scale = 1.0 + dense.objective.abs();
            prop_assert!(
                (dense.objective - revised.objective).abs() <= 1e-6 * scale,
                "dense {} vs revised {}", dense.objective, revised.objective
            );
            prop_assert!(p.max_violation(&revised.x) <= 1e-6);
        }
    }

    #[test]
    fn general_mixed_sense_lps_agree(lp in arb_lp(7, 5, true)) {
        let p = lp.build();
        let dense = DenseSimplex::new().solve(&p).unwrap();
        let revised = RevisedSimplex::new().solve(&p).unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            let scale = 1.0 + dense.objective.abs();
            prop_assert!(
                (dense.objective - revised.objective).abs() <= 1e-6 * scale,
                "dense {} vs revised {}", dense.objective, revised.objective
            );
            prop_assert!(p.max_violation(&revised.x) <= 1e-6);
        }
    }

    #[test]
    fn sweep_cut_preserves_optimum(lp in arb_packing_lp(), tau in 0.1f64..16.0) {
        // Every row swept: at τ the sweep's branch LP is the packing LP with
        // every row bounded by τ, solved cold after the threshold cut.
        let mut p = lp.build();
        let rows: Vec<usize> = (0..p.num_rows()).collect();
        let sp = SweepProblem::new(&p, &rows).unwrap();
        let cold = sp.session(RevisedSimplex::new()).solve(tau).unwrap();
        for &i in &rows {
            p.set_row_bounds(i, RowBounds::at_most(tau));
        }
        let direct = RevisedSimplex::new().solve(&p).unwrap();
        prop_assert_eq!(cold.status, Status::Optimal);
        prop_assert_eq!(direct.status, Status::Optimal);
        let scale = 1.0 + direct.objective.abs();
        prop_assert!(
            (cold.objective - direct.objective).abs() <= 1e-6 * scale,
            "direct {} vs swept {}", direct.objective, cold.objective
        );
        // A branch solve carries no primal point: the value it matched is
        // attained by the direct solve's point, which must be feasible for
        // the τ-bounded LP, and weak duality caps it from above.
        prop_assert!(p.max_violation(&direct.x) <= 1e-6);
        prop_assert!(cold.objective <= lagrangian_bound(&p, &direct.y) + 1e-6 * scale);
    }

    #[test]
    fn optimal_solutions_certify(lp in arb_packing_lp()) {
        let p = lp.build();
        let s = RevisedSimplex::new().solve(&p).unwrap();
        prop_assume!(s.status == Status::Optimal);
        let cert = r2t_lp::certify::certify(&p, &s);
        prop_assert!(cert.is_optimal(s.objective, 1e-5), "{cert:?}");
    }

    #[test]
    fn lagrangian_bound_is_always_valid(lp in arb_packing_lp(), ys in prop::collection::vec(-2.0f64..4.0, 10)) {
        let p = lp.build();
        let opt = DenseSimplex::new().solve(&p).unwrap();
        prop_assume!(opt.status == Status::Optimal);
        let m = p.num_rows();
        let y: Vec<f64> = (0..m).map(|i| ys[i % ys.len()]).collect();
        let ub = lagrangian_bound(&p, &y);
        prop_assert!(ub >= opt.objective - 1e-7 * (1.0 + opt.objective.abs()));
    }
}
