//! The R2T (Race-to-the-Top) mechanism — Section 5 and Algorithm 1.
//!
//! Given a valid truncation `Q(I, τ)`, R2T computes, for geometrically
//! increasing `τ⁽ʲ⁾ = 2ʲ, j = 1 … log₂(GS_Q)`,
//!
//! ```text
//! Q̃(I, τ⁽ʲ⁾) = Q(I, τ⁽ʲ⁾) + Lap(log GS_Q · τ⁽ʲ⁾/ε)
//!                           − log GS_Q · ln(log GS_Q / β) · τ⁽ʲ⁾/ε
//! ```
//!
//! and returns `max(max_j Q̃(I, τ⁽ʲ⁾), Q(I, 0))` (Eqs. 7–8). Each branch is
//! `ε / log GS_Q`-DP, so the whole race is `ε`-DP by basic composition, and
//! Theorem 5.1 bounds the error by `4 log GS_Q · ln(log GS_Q / β) · τ*(I)/ε`
//! with probability `1 − β`.
//!
//! The *early stop* optimization (Algorithm 1) pre-draws all noise terms,
//! runs the races from the largest `τ` down, and kills a branch as soon as
//! the LP's decreasing dual upper bound plus the branch's (fixed) shift can
//! no longer beat the current winner. With `parallel = true` branches run on
//! scoped threads and share the winner through an atomic.

use crate::noise::laplace;
use crate::truncation::{self, SweepBranchSolver, Truncation};
use crate::Mechanism;
use r2t_engine::QueryProfile;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration for R2T.
///
/// Construct through [`R2TConfig::builder`] (or [`R2TConfig::new`] for the
/// default execution strategy); the struct is `#[non_exhaustive]` so knobs
/// can be added without breaking downstream crates. Individual fields stay
/// public and may be reassigned after construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct R2TConfig {
    /// Privacy budget ε.
    pub epsilon: f64,
    /// Failure probability β of the utility guarantee (does not affect
    /// privacy). The paper's experiments use 0.1.
    pub beta: f64,
    /// Assumed global sensitivity `GS_Q` (an upper bound promised by the
    /// analyst; public information).
    pub gs: f64,
    /// Enable the early-stop optimization (Algorithm 1).
    pub early_stop: bool,
    /// Solve the branches on multiple threads.
    pub parallel: bool,
    /// Solve branches on per-worker sessions from
    /// [`Truncation::sweep_session`], which dispatch to the closed-form and
    /// max-flow kernels when the LP admits one and to the simplex otherwise
    /// (one cold solve per branch, the same bits as the stateless path).
    /// `false` sends every branch through the stateless simplex. Affects
    /// runtime only; kernel values agree with the simplex to solver
    /// tolerance.
    pub warm_sweep: bool,
    /// How often (in simplex iterations) each branch LP checks the racing
    /// cutoff and reports progress.
    pub event_every: usize,
}

impl Default for R2TConfig {
    fn default() -> Self {
        R2TConfig {
            epsilon: 0.8,
            beta: 0.1,
            gs: (1u64 << 20) as f64,
            early_stop: true,
            parallel: true,
            warm_sweep: true,
            event_every: 16,
        }
        .normalized()
    }
}

impl R2TConfig {
    fn normalized(mut self) -> Self {
        self.gs = self.gs.max(2.0);
        self
    }

    /// Number of race branches: `log₂(GS_Q)`, rounded up.
    pub fn num_branches(&self) -> u32 {
        (self.gs.max(2.0)).log2().ceil() as u32
    }
}

/// A convenience constructor: ε, β, GS.
impl R2TConfig {
    /// Creates a config with the given privacy/utility parameters and the
    /// default execution strategy (early stop, parallel).
    pub fn new(epsilon: f64, beta: f64, gs: f64) -> Self {
        R2TConfig { epsilon, beta, gs, ..R2TConfig::default() }.normalized()
    }

    /// Starts a builder. The privacy/utility parameters (ε, β, `GS_Q`) are
    /// required up front; execution knobs are chained:
    ///
    /// ```
    /// let cfg = r2t_core::R2TConfig::builder(1.0, 0.1, 4096.0)
    ///     .early_stop(false)
    ///     .parallel(false)
    ///     .build();
    /// assert_eq!(cfg.num_branches(), 12);
    /// ```
    pub fn builder(epsilon: f64, beta: f64, gs: f64) -> R2TConfigBuilder {
        R2TConfigBuilder { cfg: R2TConfig { epsilon, beta, gs, ..R2TConfig::default() } }
    }

    /// This config with a different ε (all other knobs kept). The per-charge
    /// override a serving session applies on top of its base config.
    pub fn with_epsilon(&self, epsilon: f64) -> R2TConfig {
        let mut cfg = self.clone();
        cfg.epsilon = epsilon;
        cfg
    }
}

/// Chained builder for [`R2TConfig`]; see [`R2TConfig::builder`].
#[derive(Debug, Clone)]
pub struct R2TConfigBuilder {
    cfg: R2TConfig,
}

impl R2TConfigBuilder {
    /// Enable/disable the early-stop optimization (Algorithm 1).
    pub fn early_stop(mut self, on: bool) -> Self {
        self.cfg.early_stop = on;
        self
    }

    /// Solve race branches on multiple threads.
    pub fn parallel(mut self, on: bool) -> Self {
        self.cfg.parallel = on;
        self
    }

    /// Solve branches on per-worker sweep sessions (kernel dispatch); see
    /// [`R2TConfig::warm_sweep`].
    pub fn warm_sweep(mut self, on: bool) -> Self {
        self.cfg.warm_sweep = on;
        self
    }

    /// Racing-cutoff check cadence, in simplex iterations.
    pub fn event_every(mut self, iterations: usize) -> Self {
        self.cfg.event_every = iterations;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> R2TConfig {
        self.cfg.normalized()
    }
}

/// Outcome of one race branch.
#[derive(Debug, Clone)]
pub struct BranchReport {
    /// The truncation threshold τ⁽ʲ⁾.
    pub tau: f64,
    /// `Q(I, τ)` if the branch ran to completion (`None` if early-stopped).
    pub lp_value: Option<f64>,
    /// The shifted noisy estimate `Q̃(I, τ)` (only when completed).
    pub shifted: Option<f64>,
    /// Wall-clock time spent on this branch.
    pub seconds: f64,
}

/// Full diagnostic output of an R2T run.
#[derive(Debug, Clone)]
pub struct R2TReport {
    /// The privatized answer `Q̃(I)`.
    pub output: f64,
    /// Per-branch details, in increasing τ order.
    pub branches: Vec<BranchReport>,
    /// Index (into `branches`) of the winning branch, if any branch beat
    /// `Q(I, 0)`.
    pub winner: Option<usize>,
    /// Total wall-clock seconds.
    pub seconds: f64,
}

/// The R2T mechanism.
#[derive(Debug, Clone, Default)]
pub struct R2T {
    /// Configuration.
    pub config: R2TConfig,
}

impl R2T {
    /// Creates an R2T mechanism with the given configuration.
    pub fn new(config: R2TConfig) -> Self {
        R2T { config }
    }

    /// Runs R2T on a profile, choosing the paper's truncation automatically
    /// (SJA LP, or the projected LP when the query has a projection).
    pub fn run_profile(&self, profile: &QueryProfile, rng: &mut dyn RngCore) -> R2TReport {
        let trunc = truncation::for_profile_with(profile, self.config.event_every);
        self.run_with(trunc.as_ref(), rng)
    }

    /// Runs R2T with an explicit truncation method. A simplex-served branch
    /// is one cold solve of its threshold-cut LP, a function of (LP, τ)
    /// whichever worker, order or race mode reaches it, so on LPs the
    /// simplex serves every `early_stop` × `parallel` mode releases the same
    /// bits as [`Self::run_cached`].
    pub fn run_with(&self, trunc: &dyn Truncation, rng: &mut dyn RngCore) -> R2TReport {
        let start = Instant::now();
        let _run_span = r2t_obs::span("r2t.run");
        let cfg = &self.config;
        let log_gs = cfg.num_branches().max(1) as f64;
        let nb = cfg.num_branches().max(1) as usize;
        let penalty_unit = log_gs * (log_gs / cfg.beta).ln() / cfg.epsilon;

        // All attributes here are public mechanism parameters. Per-release
        // lifecycle events are Full-tier: at serving throughput (~1M
        // releases/s) even a counter bump per release is measurable, and the
        // Counters tier's aggregate view of the same information is the
        // answer/latency histograms.
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "r2t.race.start",
                &[
                    ("branches", r2t_obs::Attr::U64(nb as u64)),
                    ("epsilon", r2t_obs::Attr::F64(cfg.epsilon)),
                    ("gs", r2t_obs::Attr::F64(cfg.gs)),
                    ("early_stop", r2t_obs::Attr::Bool(cfg.early_stop)),
                    ("parallel", r2t_obs::Attr::Bool(cfg.parallel)),
                    ("warm_sweep", r2t_obs::Attr::Bool(cfg.warm_sweep)),
                ],
            );
        }

        // Pre-draw all noise so early stop cannot leak through the noise
        // stream (and so with/without early stop are comparable). Only the
        // *count* of draws is recorded — a draw's value next to the released
        // output would reconstruct the true branch value.
        let taus: Vec<f64> = (1..=nb).map(|j| (1u64 << j) as f64).collect();
        let shifts: Vec<f64> = taus
            .iter()
            .map(|&tau| laplace(rng, log_gs * tau / cfg.epsilon) - penalty_unit * tau)
            .collect();
        r2t_obs::counter_add("r2t.noise.draws", nb as u64);

        let base = trunc.value(0.0);
        let mut reports: Vec<BranchReport> = taus
            .iter()
            .map(|&tau| BranchReport { tau, lp_value: None, shifted: None, seconds: 0.0 })
            .collect();

        // Branches are processed from the largest τ down in both modes: the
        // paper observes those LPs terminate fastest under early stop.
        let order: Vec<usize> = (0..nb).rev().collect();
        // A fresh worker-local solver session (shared LP structure, private
        // kernel state or simplex workspace). `None` falls back to the
        // stateless path.
        let new_session = || -> Option<Box<dyn SweepBranchSolver + '_>> {
            if cfg.warm_sweep {
                trunc.sweep_session()
            } else {
                None
            }
        };
        let threads = if cfg.parallel && nb > 1 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(nb)
        } else {
            1
        };

        // Under early stop the winner so far is shared through an atomic
        // max-register; plain R2T evaluates every branch fully.
        let best = AtomicF64::new(base);
        let run_branch =
            |j: usize, session: &mut Option<Box<dyn SweepBranchSolver + '_>>| -> BranchReport {
                let tau = taus[j];
                let shift = shifts[j];
                let _branch_span = r2t_obs::span("r2t.branch");
                let t0 = Instant::now();
                let value = if cfg.early_stop {
                    // The cutoff check is the progress granule `event_every`
                    // configures; counting it here makes branch progress
                    // observable instead of silently discarded.
                    let mut keep_going = |ub: f64| {
                        r2t_obs::counter_add("r2t.progress.checks", 1);
                        ub + shift > best.load()
                    };
                    let value = match session.as_mut() {
                        Some(s) => s.value_racing(tau, &mut keep_going),
                        None => trunc.value_racing(tau, &mut keep_going),
                    };
                    if let Some(v) = value {
                        best.fetch_max(v + shift);
                    }
                    value
                } else {
                    Some(match session.as_mut() {
                        Some(s) => s.value(tau),
                        None => trunc.value(tau),
                    })
                };
                let report = BranchReport {
                    tau,
                    lp_value: value,
                    shifted: value.map(|v| v + shift),
                    seconds: t0.elapsed().as_secs_f64(),
                };
                record_branch(&report, session.is_some());
                report
            };
        if threads > 1 {
            // Each worker claims the next unclaimed branch (in `order`) and
            // carries one solver session across the branches it claims.
            let next = AtomicUsize::new(0);
            let results: Vec<(usize, BranchReport)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut session = new_session();
                            let mut out = Vec::new();
                            while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                                out.push((j, run_branch(j, &mut session)));
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("branch panicked")).collect()
            });
            for (j, r) in results {
                reports[j] = r;
            }
        } else {
            let mut session = new_session();
            for &j in &order {
                reports[j] = run_branch(j, &mut session);
            }
        }

        let (output, winner) = pick_winner(&reports, base);
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "r2t.race.done",
                &[
                    // `output` is the released ε-DP answer; the winning τ is
                    // a function of the released per-branch noisy estimates —
                    // both already covered by the privacy budget.
                    ("output", r2t_obs::Attr::F64(output)),
                    ("winner_tau", r2t_obs::Attr::F64(winner.map_or(0.0, |i| reports[i].tau))),
                    ("base_won", r2t_obs::Attr::Bool(winner.is_none())),
                ],
            );
        }
        R2TReport { output, branches: reports, winner, seconds: start.elapsed().as_secs_f64() }
    }

    /// Runs R2T over *precomputed* branch values: draws the same noise stream
    /// as [`Self::run_with`] (one Laplace sample per branch, ascending τ) and
    /// takes the shifted maximum of Eq. 8, but spends no solver time.
    ///
    /// `Q(I, τ)` is a deterministic, pre-noise function of the instance, so a
    /// serving layer may evaluate the τ grid once per query and then answer
    /// repeated (separately budgeted) charges from the cache — each call here
    /// still draws fresh noise and is a full ε-DP release. The output is
    /// bit-identical to [`Self::run_with`] in the sequential
    /// no-early-stop mode that [`BranchValues::compute`] mirrors, and in
    /// every mode on LPs the simplex serves; on kernel-served LPs it agrees
    /// with the other modes to solver tolerance.
    ///
    /// Panics if `values` was computed for a different τ grid than
    /// `self.config.num_branches()` implies.
    pub fn run_cached(&self, values: &BranchValues, rng: &mut dyn RngCore) -> R2TReport {
        let start = Instant::now();
        let _run_span = r2t_obs::span("r2t.run");
        let cfg = &self.config;
        let log_gs = cfg.num_branches().max(1) as f64;
        let nb = cfg.num_branches().max(1) as usize;
        assert_eq!(
            nb,
            values.values.len(),
            "BranchValues computed for a different GS grid ({} branches, config wants {nb})",
            values.values.len(),
        );
        let penalty_unit = log_gs * (log_gs / cfg.beta).ln() / cfg.epsilon;
        // Full-tier, as in `run_with`: this is the serving fast path, where
        // per-release event bumps are a measurable throughput tax.
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "r2t.race.start",
                &[
                    ("branches", r2t_obs::Attr::U64(nb as u64)),
                    ("epsilon", r2t_obs::Attr::F64(cfg.epsilon)),
                    ("gs", r2t_obs::Attr::F64(cfg.gs)),
                    ("cached", r2t_obs::Attr::Bool(true)),
                ],
            );
        }
        // The exact noise stream of `run_with`: one draw per branch in
        // ascending-τ order, shifted down by the branch's own noise scale.
        let reports: Vec<BranchReport> = (1..=nb)
            .map(|j| {
                let tau = (1u64 << j) as f64;
                let shift = laplace(rng, log_gs * tau / cfg.epsilon) - penalty_unit * tau;
                let v = values.values[j - 1];
                BranchReport { tau, lp_value: Some(v), shifted: Some(v + shift), seconds: 0.0 }
            })
            .collect();
        // Full-tier on this path only: the cached race is the serving fast
        // path, and its draw count is structurally `answers × branches`
        // (every release draws every branch — early stop never skips draws).
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("r2t.noise.draws", nb as u64);
        }
        let (output, winner) = pick_winner(&reports, values.base);
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "r2t.race.done",
                &[
                    ("output", r2t_obs::Attr::F64(output)),
                    ("winner_tau", r2t_obs::Attr::F64(winner.map_or(0.0, |i| reports[i].tau))),
                    ("base_won", r2t_obs::Attr::Bool(winner.is_none())),
                ],
            );
        }
        R2TReport { output, branches: reports, winner, seconds: start.elapsed().as_secs_f64() }
    }
}

/// The pre-noise half of an R2T run: `Q(I, 0)` plus `Q(I, τ⁽ʲ⁾)` for the
/// geometric τ grid. Deterministic per (profile, grid) — no randomness is
/// consumed computing it — so it can be cached and replayed by
/// [`R2T::run_cached`] across any number of separately budgeted answers.
///
/// **DP-safety**: these are raw query evaluations. A cache entry must be
/// treated like the instance itself — never released without noise, and never
/// reused beyond the lifetime of the instance it was computed on.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchValues {
    /// `Q(I, 0)` — the no-noise floor of Eq. 8.
    pub base: f64,
    /// `Q(I, 2ʲ)` for `j = 1 ..= num_branches`, ascending.
    pub values: Vec<f64>,
}

impl BranchValues {
    /// Number of branches in the grid.
    pub fn num_branches(&self) -> usize {
        self.values.len()
    }

    /// Evaluates the τ grid the way the sequential no-early-stop race does
    /// (one [`SweepBranchSolver`] session fed τ values largest-first when
    /// `warm_sweep` is set, the stateless path otherwise), so the cached
    /// values — and therefore [`R2T::run_cached`]'s outputs — are
    /// bit-identical to that mode of [`R2T::run_with`]. A simplex-served
    /// branch is a function of (LP, τ) alone, so on those LPs they also
    /// equal every other mode's values.
    pub fn compute(trunc: &dyn Truncation, num_branches: u32, warm_sweep: bool) -> Self {
        let nb = num_branches.max(1) as usize;
        let mut values = vec![0.0f64; nb];
        let mut session = if warm_sweep { trunc.sweep_session() } else { None };
        for j in (1..=nb).rev() {
            let tau = (1u64 << j) as f64;
            values[j - 1] = match session.as_mut() {
                Some(s) => s.value(tau),
                None => trunc.value(tau),
            };
        }
        BranchValues { base: trunc.value(0.0), values }
    }

    /// [`Self::compute`] with the truncation method picked for the profile
    /// the way [`R2T::run_profile`] picks it, honouring the config's grid
    /// depth, warm-sweep setting, and cutoff cadence.
    pub fn for_profile(profile: &QueryProfile, cfg: &R2TConfig) -> Self {
        Self::for_profile_grid(profile, cfg.num_branches(), cfg.warm_sweep, cfg.event_every)
    }

    /// [`Self::for_profile`] with the grid parameters spelled out instead of
    /// taken from an [`R2TConfig`]. The computation is deterministic in
    /// `(profile, branches, warm_sweep)`: recomputing over a profile that
    /// compares equal yields bitwise-equal values, which is what lets a
    /// prepared-query cache revalidate entries after a data mutation — an
    /// incrementally patched profile that matches the from-scratch rebuild
    /// reproduces exactly the branch values a rebuild would have produced.
    pub fn for_profile_grid(
        profile: &QueryProfile,
        branches: u32,
        warm_sweep: bool,
        event_every: usize,
    ) -> Self {
        let trunc = truncation::for_profile_with(profile, event_every);
        Self::compute(trunc.as_ref(), branches, warm_sweep)
    }
}

/// Emits a branch lifecycle event. Records the τ, the *noisy shifted*
/// estimate (released, budget-covered), and the wall time — never the raw
/// pre-noise `lp_value`, which is not DP-protected.
fn record_branch(report: &BranchReport, warm_sweep: bool) {
    // Full-tier only: a race is ~10 branches per release, so per-branch
    // events on the serving fast path would cost more than the release
    // itself. The Counters-tier aggregate is the latency histograms.
    if !r2t_obs::enabled(r2t_obs::Level::Full) {
        return;
    }
    match report.shifted {
        Some(shifted) => r2t_obs::event(
            "r2t.branch.completed",
            &[
                ("tau", r2t_obs::Attr::F64(report.tau)),
                ("shifted", r2t_obs::Attr::F64(shifted)),
                ("secs", r2t_obs::Attr::F64(report.seconds)),
                ("warm_sweep", r2t_obs::Attr::Bool(warm_sweep)),
            ],
        ),
        None => r2t_obs::event(
            "r2t.branch.killed",
            &[
                ("tau", r2t_obs::Attr::F64(report.tau)),
                ("reason", r2t_obs::Attr::Str("dual-bound-cutoff")),
                ("secs", r2t_obs::Attr::F64(report.seconds)),
                ("warm_sweep", r2t_obs::Attr::Bool(warm_sweep)),
            ],
        ),
    }
}

/// Exact post-hoc maximum over the completed branches: the output is
/// `max(base, max_j shifted_j)` and the winner is the lowest-index branch
/// attaining it strictly above `base`. Identical values tie toward the
/// smaller τ, deterministically — no float matching against a recomputed
/// output (completed-branch sets, and therefore the winner, are the same in
/// every execution mode because early stop only skips branches that cannot
/// win).
fn pick_winner(reports: &[BranchReport], base: f64) -> (f64, Option<usize>) {
    let mut output = base;
    let mut winner = None;
    for (i, r) in reports.iter().enumerate() {
        if let Some(s) = r.shifted {
            if s > output {
                output = s;
                winner = Some(i);
            }
        }
    }
    (output, winner)
}

impl Mechanism for R2T {
    fn name(&self) -> String {
        if self.config.early_stop {
            "R2T".to_string()
        } else {
            "R2T (no early stop)".to_string()
        }
    }

    fn run(&self, profile: &QueryProfile, rng: &mut dyn RngCore) -> Option<f64> {
        Some(self.run_profile(profile, rng).output)
    }
}

/// An `f64` max-register built on `AtomicU64` bit transmutation.
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    fn fetch_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            if v <= f64::from_bits(cur) {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truncation::test_support::example_6_2_profile;
    use crate::truncation::LpTruncation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> R2TConfig {
        // Example 6.2's setting: GS = 256, ε = 1, β = 0.1.
        R2TConfig {
            epsilon: 1.0,
            beta: 0.1,
            gs: 256.0,
            early_stop: false,
            parallel: false,
            ..R2TConfig::default()
        }
    }

    #[test]
    fn num_branches_matches_log() {
        assert_eq!(R2TConfig::new(1.0, 0.1, 256.0).num_branches(), 8);
        assert_eq!(R2TConfig::new(1.0, 0.1, 1e6).num_branches(), 20);
        assert_eq!(R2TConfig::new(1.0, 0.1, 2.0).num_branches(), 1);
    }

    #[test]
    fn output_below_true_answer_whp() {
        let p = example_6_2_profile();
        let q = p.query_result();
        let r2t = R2T::new(cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let mut above = 0;
        let runs = 30;
        for _ in 0..runs {
            let t = LpTruncation::new(&p);
            let out = r2t.run_with(&t, &mut rng).output;
            if out > q {
                above += 1;
            }
        }
        // β/2 = 0.05 expected; allow generous slack.
        assert!(above <= 6, "output exceeded Q(I) {above}/{runs} times");
    }

    #[test]
    fn error_bound_of_theorem_5_1() {
        let p = example_6_2_profile();
        let q = p.query_result();
        let c = cfg();
        let r2t = R2T::new(c.clone());
        let log_gs = c.num_branches() as f64;
        let bound = 4.0 * log_gs * (log_gs / c.beta).ln() * 32.0 / c.epsilon; // τ* = 32
        let mut rng = StdRng::seed_from_u64(2);
        let runs = 25;
        let mut violations = 0;
        for _ in 0..runs {
            let t = LpTruncation::new(&p);
            let out = r2t.run_with(&t, &mut rng).output;
            if (q - out) > bound {
                violations += 1;
            }
        }
        assert!(violations <= 6, "error bound violated {violations}/{runs}");
    }

    #[test]
    fn early_stop_equals_plain_given_same_noise() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let mut c = cfg();
        let plain = R2T::new(c.clone());
        c.early_stop = true;
        let early = R2T::new(c);
        // Same seed → same pre-drawn noise → identical outputs.
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        let a = plain.run_with(&t, &mut rng1).output;
        let b = early.run_with(&t, &mut rng2).output;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn parallel_equals_sequential() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let mut c = cfg();
        c.early_stop = true;
        let seq = R2T::new(c.clone());
        c.parallel = true;
        let par = R2T::new(c);
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let a = seq.run_with(&t, &mut rng1).output;
        let b = par.run_with(&t, &mut rng2).output;
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn report_contains_all_branches() {
        let p = example_6_2_profile();
        let t = LpTruncation::new(&p);
        let r2t = R2T::new(cfg());
        let mut rng = StdRng::seed_from_u64(3);
        let rep = r2t.run_with(&t, &mut rng);
        assert_eq!(rep.branches.len(), 8);
        assert_eq!(rep.branches[0].tau, 2.0);
        assert_eq!(rep.branches[7].tau, 256.0);
        assert!(rep.branches.iter().all(|b| b.lp_value.is_some()));
        // With τ ≥ 32 the LP value is the exact answer.
        assert!((rep.branches[5].lp_value.unwrap() - 9992.0).abs() < 1e-4);
    }

    #[test]
    fn builder_matches_literal_and_normalizes() {
        let b = R2TConfig::builder(1.0, 0.1, 256.0)
            .early_stop(false)
            .parallel(false)
            .warm_sweep(false)
            .event_every(32)
            .build();
        assert_eq!(b.epsilon, 1.0);
        assert_eq!(b.beta, 0.1);
        assert_eq!(b.gs, 256.0);
        assert!(!b.early_stop && !b.parallel && !b.warm_sweep);
        assert_eq!(b.event_every, 32);
        // GS is clamped exactly like the literal constructors do.
        assert_eq!(R2TConfig::builder(1.0, 0.1, 0.5).build().gs, 2.0);
        let e = R2TConfig::builder(1.0, 0.1, 256.0).build().with_epsilon(0.25);
        assert_eq!(e.epsilon, 0.25);
        assert_eq!(e.gs, 256.0);
    }

    #[test]
    fn cached_values_reproduce_sequential_run_bitwise() {
        let p = example_6_2_profile();
        for warm in [false, true] {
            let mut c = cfg(); // early_stop = false, parallel = false
            c.warm_sweep = warm;
            let r2t = R2T::new(c.clone());
            let t = LpTruncation::new(&p);
            let values = BranchValues::compute(&t, c.num_branches(), warm);
            assert_eq!(values.num_branches(), 8);
            for seed in 0..5 {
                let mut rng1 = StdRng::seed_from_u64(seed);
                let mut rng2 = StdRng::seed_from_u64(seed);
                let t2 = LpTruncation::new(&p);
                let full = r2t.run_with(&t2, &mut rng1);
                let cached = r2t.run_cached(&values, &mut rng2);
                assert_eq!(
                    full.output.to_bits(),
                    cached.output.to_bits(),
                    "warm={warm} seed={seed}: {} vs {}",
                    full.output,
                    cached.output
                );
                assert_eq!(full.winner, cached.winner);
            }
        }
    }

    #[test]
    fn every_mode_releases_the_cached_bits_on_a_simplex_lp() {
        // Three-reference path results: no kernel applies, so every branch
        // is a simplex solve, run by whichever worker claims it.
        let mut b: r2t_engine::lineage::ProfileBuilder<u64> =
            r2t_engine::lineage::ProfileBuilder::new();
        let mut s = 0x5eed_u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        for _ in 0..400 {
            let a = next() % 60;
            b.add_result(1.0 + (next() % 3) as f64, [a, (a + 1 + next() % 5) % 60, next() % 60]);
        }
        let p = b.build();
        let t = LpTruncation::new(&p);
        assert_eq!(t.sweep_session().unwrap().kind(), crate::KernelKind::Simplex);
        let base = cfg();
        let values = BranchValues::compute(&t, base.num_branches(), true);
        for early_stop in [false, true] {
            for parallel in [false, true] {
                let mut c = base.clone();
                c.early_stop = early_stop;
                c.parallel = parallel;
                let r2t = R2T::new(c);
                for seed in 0..4 {
                    let mut rng1 = StdRng::seed_from_u64(seed);
                    let mut rng2 = StdRng::seed_from_u64(seed);
                    let full = r2t.run_with(&t, &mut rng1);
                    let cached = r2t.run_cached(&values, &mut rng2);
                    assert_eq!(
                        full.output.to_bits(),
                        cached.output.to_bits(),
                        "early_stop={early_stop} parallel={parallel} seed={seed}: {} vs {}",
                        full.output,
                        cached.output
                    );
                    assert_eq!(full.winner, cached.winner);
                }
            }
        }
    }

    #[test]
    fn cached_run_consumes_same_noise_stream() {
        // After a cached run the RNG must sit exactly where a full run would
        // leave it: one draw per branch, nothing else.
        let p = example_6_2_profile();
        let c = cfg();
        let r2t = R2T::new(c.clone());
        let values = BranchValues::for_profile(&p, &c);
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let t = LpTruncation::new(&p);
        r2t.run_with(&t, &mut rng1);
        r2t.run_cached(&values, &mut rng2);
        assert_eq!(rng1.next_u64(), rng2.next_u64());
    }

    #[test]
    #[should_panic(expected = "different GS grid")]
    fn cached_run_rejects_mismatched_grid() {
        let p = example_6_2_profile();
        let values = BranchValues::for_profile(&p, &cfg()); // 8 branches
        let other = R2T::new(R2TConfig::builder(1.0, 0.1, 1024.0).build()); // 10
        let mut rng = StdRng::seed_from_u64(1);
        other.run_cached(&values, &mut rng);
    }

    #[test]
    fn empty_profile_returns_zero_ish() {
        let b: r2t_engine::lineage::ProfileBuilder<u64> =
            r2t_engine::lineage::ProfileBuilder::new();
        let p = b.build();
        let r2t = R2T::new(cfg());
        let mut rng = StdRng::seed_from_u64(4);
        let out = r2t.run_profile(&p, &mut rng).output;
        assert_eq!(out, 0.0);
    }
}
