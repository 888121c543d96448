//! Sessions: budget-enforced, cache-backed, deterministic serving.
//!
//! A [`Session`] pins three things for its lifetime: a data [`Snapshot`] of
//! the database it answers over, an ε budget (a lock-free
//! [`BudgetCell`], possibly shared with other sessions of the same tenant),
//! and a noise seed. Preparation ([`Session::prepare`]) computes the
//! *pre-noise* half of an R2T run — the lineage profile and the τ-grid of
//! truncation LP values — and caches it in the snapshot's shared prepared
//! cache under the statement's normalized text. Answering replays the cached
//! grid through [`R2T::run_cached`], which draws exactly the noise stream a
//! full run would, so a prepared answer is bit-identical to a cold run of
//! the raw pipeline in the sequential no-early-stop execution mode (and
//! equal to solver tolerance in every other mode).
//!
//! **Concurrency layout.** The session serializes on *nothing* in the answer
//! hot path: the budget is a CAS cell, the substream counter is a
//! `fetch_add`, and the prepared cache is behind an `RwLock` whose read path
//! never blocks on (or takes) the budget state. Cache lookups and concurrent
//! answers therefore never contend.
//!
//! **DP-safety of the cache.** Cached profiles, LP structures, and branch
//! values are deterministic functions of the raw instance: pre-noise state,
//! equivalent to the data itself. The cache lives inside the snapshot, keyed
//! by query text and grid shape only — it must never be consulted to answer
//! without a fresh noise draw, and every draw happens *after* the budget
//! cell has committed the charge.
//!
//! **Determinism.** The `i`-th successful charge of the session (substream
//! index `i`) draws its noise from [`substream_rng`]`(seed, i)`. A refused
//! charge provably draws no noise — not as a discipline, but structurally:
//! the substream counter only advances *after* the budget CAS commits, and
//! there is no RNG to draw from until an index exists. Batch answering
//! reserves its whole ε in one CAS and assigns the batch's index range
//! before any fan-out, which makes [`Session::answer_all`] bit-identical for
//! any worker count.

use crate::pool::WorkerPool;
use crate::snapshot::{Prepared, PreparedKind, Snapshot};
use crate::{Error, PrivateDatabase};
use r2t_core::{BudgetCell, R2TConfig, R2TReport, R2T};
use r2t_engine::{ProfileSummary, Tuple};
use r2t_sql::normalize;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub use r2t_core::noise::substream_rng;

/// How to open a [`Session`]: one builder for both entry points.
///
/// - [`PrivateDatabase::session`] wants [`Self::total_epsilon`] (the
///   session's private budget) and [`Self::base`] (mechanism parameters),
///   and refuses [`Self::tenant`].
/// - [`crate::ServiceTier::session`] wants [`Self::tenant`] (the budget is
///   the tenant's shared quota, the base config defaults to the tier's),
///   and refuses [`Self::total_epsilon`].
///
/// [`Self::seed`] (default 0) roots the session's deterministic noise
/// substreams in both cases; the caller owns seed hygiene — two sessions
/// must not share a seed, or they would replay each other's noise.
///
/// ```
/// use r2t_service::SessionOptions;
/// # use r2t_core::R2TConfig;
/// let opts = SessionOptions::new()
///     .total_epsilon(1.0)
///     .base(R2TConfig::builder(1.0, 0.1, 4096.0).build())
///     .seed(7);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    pub(crate) seed: u64,
    pub(crate) tenant: Option<String>,
    pub(crate) total_epsilon: Option<f64>,
    pub(crate) base: Option<R2TConfig>,
}

impl SessionOptions {
    /// Starts an empty option set (seed 0, no tenant, no budget, no base).
    pub fn new() -> Self {
        Self::default()
    }

    /// Roots the session's noise substreams (the `i`-th successful charge
    /// draws from [`substream_rng`]`(seed, i)`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Opens the session against a registered tenant's shared quota
    /// (tier sessions only).
    pub fn tenant(mut self, name: impl Into<String>) -> Self {
        self.tenant = Some(name.into());
        self
    }

    /// Total ε budget for a private (database) session.
    pub fn total_epsilon(mut self, epsilon: f64) -> Self {
        self.total_epsilon = Some(epsilon);
        self
    }

    /// Mechanism parameters (β, `GS_Q`, execution strategy) for every
    /// answer; each charge still picks its own ε. Required for database
    /// sessions; overrides the tier default for tier sessions.
    pub fn base(mut self, base: R2TConfig) -> Self {
        self.base = Some(base);
        self
    }
}

/// One query in a [`Session::answer_all`] batch.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Statement text (normalized internally).
    pub sql: String,
    /// ε to charge for this answer.
    pub epsilon: f64,
}

impl QuerySpec {
    /// Creates a batch entry.
    pub fn new(sql: impl Into<String>, epsilon: f64) -> Self {
        QuerySpec { sql: sql.into(), epsilon }
    }
}

/// τ-race diagnostics carried on a receipt. All fields are post-noise,
/// budget-covered quantities (the winning τ is a function of the released
/// noisy estimates).
#[derive(Debug, Clone)]
pub struct RaceStats {
    /// Number of race branches (`log₂ GS_Q`), summed over groups for a
    /// grouped answer.
    pub branches: usize,
    /// τ of the winning branch; `None` when the no-noise floor `Q(I, 0)` won
    /// (or for grouped answers, which race per group).
    pub winner_tau: Option<f64>,
    /// Wall-clock seconds spent answering (noise + max, not solving).
    pub seconds: f64,
}

/// Accounting receipt returned with every answer.
#[derive(Debug, Clone)]
pub struct Receipt {
    /// Normalized statement text (the cache key).
    pub query: String,
    /// ε charged for this answer.
    pub epsilon: f64,
    /// The charge's substream index within its session.
    pub substream: u64,
    /// Budget ε spent after this charge (the session's cell — tenant-wide
    /// when the session was opened through a service tier).
    pub spent: f64,
    /// Budget ε remaining after this charge.
    pub remaining: f64,
    /// τ-race diagnostics.
    pub race: RaceStats,
}

/// An ε-DP answer plus its accounting receipt.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The privatized aggregate.
    pub noisy: f64,
    /// What it cost and how it was produced.
    pub receipt: Receipt,
}

/// An ε-DP answer to a GROUP BY statement: one privatized aggregate per
/// group key, under a single total charge split evenly across groups.
#[derive(Debug, Clone)]
pub struct GroupedAnswer {
    /// (group key, privatized aggregate), in deterministic group order.
    pub groups: Vec<(Tuple, f64)>,
    /// What it cost and how it was produced.
    pub receipt: Receipt,
}

/// A serving session over a [`PrivateDatabase`]: an ε budget cell, a pinned
/// data snapshot with its prepared-statement cache, and a deterministic
/// noise-substream layout. Created by [`PrivateDatabase::session`]
/// (private budget) or [`crate::ServiceTier::session`] (budget shared
/// tenant-wide), both driven by one [`SessionOptions`] builder. All methods
/// take `&self`; the session is safe to share
/// across threads and none of its hot paths serialize on a common lock.
pub struct Session<'db> {
    db: &'db PrivateDatabase,
    snapshot: Arc<Snapshot>,
    base: R2TConfig,
    seed: u64,
    budget: Arc<BudgetCell>,
    /// The next substream index == number of successful charges so far.
    /// Advanced only after a budget commit; a refused charge never touches
    /// it, which is what makes "refusals draw no randomness" structural.
    next_substream: AtomicU64,
    /// Statements this session has prepared: a session-local view into the
    /// snapshot's shared cache. Reads take only the read lock.
    prepared: RwLock<HashMap<String, Arc<Prepared>>>,
}

impl<'db> Session<'db> {
    pub(crate) fn new(
        db: &'db PrivateDatabase,
        budget: Arc<BudgetCell>,
        base: R2TConfig,
        seed: u64,
    ) -> Self {
        r2t_obs::counter_add("service.sessions.opened", 1);
        Session {
            db,
            snapshot: db.snapshot(),
            base,
            seed,
            budget,
            next_substream: AtomicU64::new(0),
            prepared: RwLock::new(HashMap::new()),
        }
    }

    /// The data snapshot this session pinned at open time. Writes applied
    /// to the database never change it.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// Total budget of the session's cell.
    pub fn total(&self) -> f64 {
        self.budget.total()
    }

    /// ε spent so far from the session's cell (tenant-wide for tier
    /// sessions).
    pub fn spent(&self) -> f64 {
        self.budget.spent()
    }

    /// ε still available in the session's cell.
    pub fn remaining(&self) -> f64 {
        self.budget.remaining()
    }

    /// Number of successful charges of *this session* (= the next substream
    /// index).
    pub fn num_charges(&self) -> usize {
        self.next_substream.load(Ordering::Acquire) as usize
    }

    /// Number of distinct prepared statements this session has seen.
    pub fn cached_queries(&self) -> usize {
        self.prepared.read().expect("prepared view poisoned").len()
    }

    /// Prepares a statement: normalizes the text, and — unless an entry for
    /// the same normalized text is already cached in the snapshot — parses,
    /// plans, executes the lineage join, and evaluates the τ-grid of
    /// truncation LP values. Spends no budget and draws no noise; the
    /// expensive work happens at most once per distinct statement *per
    /// snapshot*, shared across every session (and tenant) on it. The lookup
    /// takes no budget lock, so preparation never blocks concurrent answers.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery<'_, 'db>, Error> {
        let text = normalize(sql)?;
        if let Some(p) = self.prepared.read().expect("prepared view poisoned").get(&text) {
            return Ok(PreparedQuery { session: self, inner: Arc::clone(p) });
        }
        let built = self.snapshot.get_or_prepare(self.db.schema(), &text, &self.base)?;
        let mut view = self.prepared.write().expect("prepared view poisoned");
        let entry = view.entry(text).or_insert(built);
        Ok(PreparedQuery { session: self, inner: Arc::clone(entry) })
    }

    /// Prepares and answers in one call.
    pub fn answer(&self, sql: &str, epsilon: f64) -> Result<Answer, Error> {
        self.prepare(sql)?.answer(epsilon)
    }

    /// Answers a batch of statements under one *atomic* charge: either the
    /// budget covers the whole batch (every query answered, each with its own
    /// substream) or nothing is spent and nothing is drawn. Queries are
    /// answered concurrently on up to [`std::thread::available_parallelism`]
    /// workers from the persistent serving pool; results are positionally
    /// matched to `specs` and bit-identical for any worker count.
    pub fn answer_all(&self, specs: &[QuerySpec]) -> Result<Vec<Answer>, Error> {
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        self.answer_all_with(specs, workers)
    }

    /// [`Self::answer_all`] with an explicit worker count (≥ 1): the calling
    /// thread plus up to `workers − 1` pool workers.
    pub fn answer_all_with(
        &self,
        specs: &[QuerySpec],
        workers: usize,
    ) -> Result<Vec<Answer>, Error> {
        let _batch_ns = r2t_obs::hist_time("service.batch.ns");
        let _batch_span = r2t_obs::span("service.batch");
        // Prepare everything (and surface errors) before any budget moves.
        let mut jobs: Vec<(Arc<Prepared>, f64)> = Vec::with_capacity(specs.len());
        for spec in specs {
            check_epsilon(spec.epsilon)?;
            let prepared = self.prepare(&spec.sql)?;
            if prepared.is_grouped() {
                return Err(Error::Unsupported(
                    "answer_all serves scalar statements; answer GROUP BY via answer_grouped"
                        .to_string(),
                ));
            }
            jobs.push((prepared.inner, spec.epsilon));
        }
        let n = jobs.len();

        // One atomic batch reservation (a single CAS), then the substream
        // index range — fixed here, before any fan-out, which is what makes
        // the results worker-count independent.
        let batch_eps: f64 = jobs.iter().map(|(_, e)| *e).sum();
        let charge = match self.budget.try_charge(batch_eps) {
            Ok(c) => c,
            Err(e) => {
                r2t_obs::counter_add("service.refusals.budget", 1);
                return Err(Error::Budget(e));
            }
        };
        // Full-tier: on success `charges` always equals `answers` (and the
        // answer-latency histogram's count), so the Counters tier keeps only
        // the latter — the serving fast path has a ~100 ns telemetry budget.
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("service.charges", n as u64);
        }
        if charge.retries > 0 {
            r2t_obs::counter_add("service.charge.contention", charge.retries);
        }
        let batch_start = self.next_substream.fetch_add(n as u64, Ordering::AcqRel);

        // Receipt totals reflect the batch prefix up to each charge —
        // deterministic, unlike a racing read of the live cell.
        let total = self.budget.total();
        let mut spent_prefix = Vec::with_capacity(n);
        let mut acc = charge.spent_before;
        for (_, e) in &jobs {
            acc += e;
            spent_prefix.push(acc);
        }

        // Owned job set: the pool's worker threads are 'static, so the
        // runner captures everything by value (Arcs and scalars only).
        let results: Arc<Vec<OnceLock<Answer>>> =
            Arc::new((0..n).map(|_| OnceLock::new()).collect());
        let run = {
            let results = Arc::clone(&results);
            let base = self.base.clone();
            let seed = self.seed;
            Box::new(move |i: usize| {
                let (prepared, epsilon) = &jobs[i];
                let spent = spent_prefix[i];
                // Per-answer latency inside the batch, on whichever pool
                // worker runs the job (same histogram as single answers).
                let _answer_ns = r2t_obs::hist_time("service.answer.ns");
                let answer = answer_charged(
                    &base,
                    seed,
                    prepared,
                    *epsilon,
                    batch_start + i as u64,
                    spent,
                    (total - spent).max(0.0),
                );
                assert!(results[i].set(answer).is_ok(), "each job claimed once");
            })
        };
        WorkerPool::global().run(n, workers.max(1), run);
        // Full-tier: at Counters the answer count is already exported as the
        // latency histogram's `_count` (every answer records one sample).
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("service.answers", n as u64);
        }
        Ok(results.iter().map(|slot| slot.get().expect("every job answered").clone()).collect())
    }

    /// Commits one charge and returns (substream index, spent, remaining).
    fn charge_one(&self, epsilon: f64) -> Result<(u64, f64, f64), Error> {
        let charge = match self.budget.try_charge(epsilon) {
            Ok(c) => c,
            Err(e) => {
                r2t_obs::counter_add("service.refusals.budget", 1);
                return Err(Error::Budget(e));
            }
        };
        // Full-tier: success charges equal answers (see the batch path).
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("service.charges", 1);
        }
        // Uncontended charges (the fast path) skip the zero record — the
        // counter tracks contention, not charges.
        if charge.retries > 0 {
            r2t_obs::counter_add("service.charge.contention", charge.retries);
        }
        let index = self.next_substream.fetch_add(1, Ordering::AcqRel);
        Ok((index, charge.spent_after, (self.budget.total() - charge.spent_after).max(0.0)))
    }
}

/// Runs the mechanism for an already-committed charge. No locking, no budget
/// checks: the substream index and totals were fixed at charge time.
fn answer_charged(
    base: &R2TConfig,
    seed: u64,
    prepared: &Prepared,
    epsilon: f64,
    substream: u64,
    spent: f64,
    remaining: f64,
) -> Answer {
    let PreparedKind::Single { values, .. } = &prepared.kind else {
        unreachable!("answer_charged serves scalar statements only");
    };
    let mut rng = substream_rng(seed, substream);
    let report = R2T::new(base.with_epsilon(epsilon)).run_cached(values, &mut rng);
    Answer {
        noisy: report.output,
        receipt: Receipt {
            query: prepared.text.clone(),
            epsilon,
            substream,
            spent,
            remaining,
            race: race_stats(&report),
        },
    }
}

fn race_stats(report: &R2TReport) -> RaceStats {
    RaceStats {
        branches: report.branches.len(),
        winner_tau: report.winner.map(|i| report.branches[i].tau),
        seconds: report.seconds,
    }
}

/// The largest `GS_Q` a session accepts, 2⁶³: its race's top branch
/// τ = 2⁶³ is the largest power of two a `u64` holds.
const MAX_GS: f64 = 9_223_372_036_854_775_808.0;

/// Refuses a base config whose `GS_Q` is not finite or exceeds [`MAX_GS`]
/// (its τ grid would overflow), before a session — and with it any budget
/// cell charge or substream index — exists.
pub(crate) fn check_base(base: &R2TConfig) -> Result<(), Error> {
    if base.gs.is_finite() && base.gs <= MAX_GS {
        Ok(())
    } else {
        Err(Error::Admission(format!(
            "GS_Q must be finite and at most 2^63 (the largest τ the race can reach), got {}",
            base.gs
        )))
    }
}

fn check_epsilon(epsilon: f64) -> Result<(), Error> {
    if epsilon > 0.0 && epsilon.is_finite() {
        Ok(())
    } else {
        Err(Error::Unsupported(format!("per-answer epsilon must be positive, got {epsilon}")))
    }
}

/// A handle to a cached prepared statement, bound to its session. Cheap to
/// clone-by-reprepare: [`Session::prepare`] with the same (normalized) text
/// returns a handle to the same cache entry.
pub struct PreparedQuery<'s, 'db> {
    session: &'s Session<'db>,
    inner: Arc<Prepared>,
}

impl PreparedQuery<'_, '_> {
    /// The normalized statement text — the cache key and receipt label.
    pub fn sql(&self) -> &str {
        &self.inner.text
    }

    /// Lineage shape diagnostics (`None` for GROUP BY statements). Not DP.
    pub fn summary(&self) -> Option<&ProfileSummary> {
        self.inner.summary.as_ref()
    }

    /// Whether this is a GROUP BY statement (answer via
    /// [`Self::answer_grouped`]).
    pub fn is_grouped(&self) -> bool {
        matches!(self.inner.kind, PreparedKind::Grouped { .. })
    }

    /// Answers the prepared statement, charging `epsilon` from the session's
    /// budget cell. The charge commits first; only then is noise drawn, from
    /// the charge's own substream. A refused charge returns [`Error::Budget`]
    /// having consumed nothing — no noise, no substream index.
    pub fn answer(&self, epsilon: f64) -> Result<Answer, Error> {
        check_epsilon(epsilon)?;
        if self.is_grouped() {
            return Err(Error::Unsupported("GROUP BY statement: use answer_grouped".to_string()));
        }
        // End-to-end prepared-answer latency (charge + noise + max), into
        // the live histogram; the span is 1-in-N sampled at `spans` level.
        let _answer_ns = r2t_obs::hist_time("service.answer.ns");
        let _answer_span = r2t_obs::span("service.answer");
        let (substream, spent, remaining) = self.session.charge_one(epsilon)?;
        // Full-tier: the histogram's count carries this at Counters.
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("service.answers", 1);
        }
        Ok(answer_charged(
            &self.session.base,
            self.session.seed,
            &self.inner,
            epsilon,
            substream,
            spent,
            remaining,
        ))
    }

    /// Answers a prepared GROUP BY statement: one total charge of `epsilon`,
    /// split evenly across the `k` groups (Section 11), each group racing at
    /// `ε/k`. The charge's substream yields one root draw and group `i` then
    /// replays [`substream_rng`]`(root, i)` — the same derivation as
    /// [`r2t_core::groupby::GroupByR2T::run`], so the answers are
    /// bit-identical to the one-shot grouped race given the same RNG, for
    /// any worker count on either side.
    pub fn answer_grouped(&self, epsilon: f64) -> Result<GroupedAnswer, Error> {
        check_epsilon(epsilon)?;
        let PreparedKind::Grouped { groups } = &self.inner.kind else {
            return Err(Error::Unsupported("scalar statement: use answer".to_string()));
        };
        let _answer_ns = r2t_obs::hist_time("service.answer.ns");
        let _answer_span = r2t_obs::span("service.answer");
        let (substream, spent, remaining) = self.session.charge_one(epsilon)?;
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::counter_add("service.answers", 1);
        }
        let root = substream_rng(self.session.seed, substream).next_u64();
        let per_group = self.session.base.with_epsilon(epsilon / groups.len().max(1) as f64);
        let r2t = R2T::new(per_group);
        let mut out = Vec::with_capacity(groups.len());
        let mut branches = 0;
        let mut seconds = 0.0;
        for (i, (key, _profile, values)) in groups.iter().enumerate() {
            let mut rng = substream_rng(root, i as u64);
            let report = r2t.run_cached(values, &mut rng);
            branches += report.branches.len();
            seconds += report.seconds;
            out.push((key.clone(), report.output));
        }
        Ok(GroupedAnswer {
            groups: out,
            receipt: Receipt {
                query: self.inner.text.clone(),
                epsilon,
                substream,
                spent,
                remaining,
                race: RaceStats { branches, winner_tau: None, seconds },
            },
        })
    }
}
