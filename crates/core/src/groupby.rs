//! Group-by queries (the paper's Section 11 extension).
//!
//! A group-by SPJA query is answered by treating each group as its own SPJA
//! query (a predicate restricting to that group) and splitting the privacy
//! budget across the groups by basic composition: with `k` groups each runs
//! R2T at `ε/k`. The group *keys* released are those with a non-trivial
//! noisy answer; since R2T underestimates and every per-group run is DP, the
//! whole release is `ε`-DP by composition and post-processing.
//!
//! The paper notes a one-shot mechanism could do better for self-join-free
//! queries (high-dimensional mean estimation); that refinement is future
//! work in the paper as well.

use crate::noise::substream_rng;
use crate::r2t::{R2TConfig, R2T};
use r2t_engine::{QueryProfile, Tuple};
use rand::RngCore;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One released group: key, privatized answer, and the branch diagnostics.
#[derive(Debug, Clone)]
pub struct GroupAnswer {
    /// Group key values (from the GROUP BY columns).
    pub key: Tuple,
    /// Privatized aggregate for this group.
    pub answer: f64,
}

/// R2T over group-by queries via budget splitting.
#[derive(Debug, Clone, Default)]
pub struct GroupByR2T {
    /// Configuration; `epsilon` is the *total* budget across all groups.
    pub config: R2TConfig,
}

impl GroupByR2T {
    /// Creates the mechanism with a total budget configuration.
    pub fn new(config: R2TConfig) -> Self {
        GroupByR2T { config }
    }

    /// Answers one profile per group under a total budget of
    /// `config.epsilon` (each group gets `ε/k`). Returns one answer per
    /// input group, in input order.
    ///
    /// Groups are independent ε/k races, so they run concurrently — on up to
    /// [`std::thread::available_parallelism`] workers when
    /// [`R2TConfig::parallel`] is set, sequentially otherwise. One root draw
    /// from `rng` seeds a positionally pinned noise substream per group
    /// (group `i` always replays substream `i`), so answers are bit-identical
    /// for any worker count.
    pub fn run(&self, groups: &[(Tuple, QueryProfile)], rng: &mut dyn RngCore) -> Vec<GroupAnswer> {
        let workers = if self.config.parallel {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            1
        };
        self.run_with_workers(groups, rng, workers)
    }

    /// [`Self::run`] with an explicit worker count (≥ 1). Results are
    /// identical for every count.
    pub fn run_with_workers(
        &self,
        groups: &[(Tuple, QueryProfile)],
        rng: &mut dyn RngCore,
        workers: usize,
    ) -> Vec<GroupAnswer> {
        if groups.is_empty() {
            return Vec::new();
        }
        // The substream root is the only draw from the caller's stream; it
        // is fixed before any fan-out, like a batch charge's substreams.
        let root = rng.next_u64();
        let workers = workers.max(1).min(groups.len());
        let per_group = R2TConfig {
            epsilon: self.config.epsilon / groups.len() as f64,
            // Workers already saturate the machine when racing across
            // groups; nested branch parallelism would only oversubscribe
            // (per-branch results are worker-count independent either way).
            parallel: self.config.parallel && workers == 1,
            ..self.config.clone()
        };
        let r2t = R2T::new(per_group);
        let run_group = |i: usize| -> GroupAnswer {
            let (key, profile) = &groups[i];
            let mut rng = substream_rng(root, i as u64);
            GroupAnswer { key: key.clone(), answer: r2t.run_profile(profile, &mut rng).output }
        };
        if workers <= 1 {
            return (0..groups.len()).map(run_group).collect();
        }
        let mut results: Vec<Option<GroupAnswer>> = (0..groups.len()).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let computed: Vec<(usize, GroupAnswer)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers {
                let next = &next;
                let run_group = &run_group;
                let n = groups.len();
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, run_group(i)));
                    }
                    out
                }));
            }
            handles.into_iter().flat_map(|h| h.join().expect("group worker panicked")).collect()
        });
        for (i, a) in computed {
            results[i] = Some(a);
        }
        results.into_iter().map(|a| a.expect("every group answered")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2t_engine::lineage::ProfileBuilder;
    use r2t_engine::Value;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group(n_tuples: u64, per_tuple: usize) -> QueryProfile {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for t in 0..n_tuples {
            for _ in 0..per_tuple {
                b.add_result(1.0, [t]);
            }
        }
        b.build()
    }

    #[test]
    fn answers_every_group() {
        let groups = vec![
            (vec![Value::str("A")], group(100, 2)),
            (vec![Value::str("B")], group(50, 4)),
            (vec![Value::str("C")], group(10, 1)),
        ];
        let m = GroupByR2T::new(R2TConfig {
            epsilon: 3.0,
            beta: 0.1,
            gs: 64.0,
            early_stop: true,
            parallel: false,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let out = m.run(&groups, &mut rng);
        assert_eq!(out.len(), 3);
        for (got, (key, p)) in out.iter().zip(&groups) {
            assert_eq!(&got.key, key);
            // Underestimate w.h.p.; fixed seed makes this deterministic.
            assert!(got.answer <= p.query_result() + 1e-9);
        }
    }

    #[test]
    fn budget_splitting_hurts_with_more_groups() {
        // Same data split into 1 vs 8 groups: the per-group noise grows.
        let single = vec![(vec![Value::Int(0)], group(400, 2))];
        let many: Vec<(Tuple, QueryProfile)> =
            (0..8).map(|i| (vec![Value::Int(i)], group(50, 2))).collect();
        let cfg = R2TConfig {
            epsilon: 1.0,
            beta: 0.1,
            gs: 64.0,
            early_stop: true,
            parallel: false,
            ..Default::default()
        };
        let m = GroupByR2T::new(cfg);
        let runs = 12;
        let mut err_single = 0.0;
        let mut err_many = 0.0;
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + r);
            let a = m.run(&single, &mut rng);
            err_single += (a[0].answer - 800.0).abs();
            let mut rng = StdRng::seed_from_u64(200 + r);
            let b = m.run(&many, &mut rng);
            let total: f64 = b.iter().map(|g| g.answer).sum();
            err_many += (total - 800.0).abs();
        }
        assert!(
            err_many > err_single,
            "splitting the budget across 8 groups should cost accuracy: {err_many} vs {err_single}"
        );
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let groups: Vec<(Tuple, QueryProfile)> =
            (0..7).map(|i| (vec![Value::Int(i)], group(30 + 10 * i as u64, 2))).collect();
        let m = GroupByR2T::new(R2TConfig {
            epsilon: 2.0,
            beta: 0.1,
            gs: 64.0,
            early_stop: true,
            parallel: false,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let sequential = m.run_with_workers(&groups, &mut rng, 1);
        for workers in [2, 3, 8, 64] {
            let mut rng = StdRng::seed_from_u64(5);
            let parallel = m.run_with_workers(&groups, &mut rng, workers);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.key, s.key);
                assert_eq!(p.answer.to_bits(), s.answer.to_bits(), "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_config_matches_sequential_bitwise() {
        let groups: Vec<(Tuple, QueryProfile)> =
            (0..5).map(|i| (vec![Value::Int(i)], group(40, 3))).collect();
        let base = R2TConfig {
            epsilon: 1.5,
            beta: 0.1,
            gs: 64.0,
            early_stop: true,
            parallel: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let seq = GroupByR2T::new(base.clone()).run(&groups, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let par = GroupByR2T::new(R2TConfig { parallel: true, ..base }).run(&groups, &mut rng);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.answer.to_bits(), s.answer.to_bits());
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let m = GroupByR2T::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.run(&[], &mut rng).is_empty());
    }
}
