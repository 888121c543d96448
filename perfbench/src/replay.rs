//! The layer-by-layer replay behind the traced run.
//!
//! Each function calls the public entry points of one layer after another,
//! the way `r2t-service` composes them when it prepares a statement or
//! carries its prepared cache across a write, and wraps every call in a
//! span. Because the service's result is a deterministic function of those
//! calls, the replay doubles as a cold oracle: its answer on the same noise
//! substream must equal the service's bit for bit.

use crate::trace::Tracer;
use r2t_core::truncation::{self, KernelKind};
use r2t_core::{BranchPatcher, BranchValues, R2TConfig};
use r2t_engine::complete::complete_query;
use r2t_engine::exec::{self, ExecOptions, Source};
use r2t_engine::query::join_is_acyclic;
use r2t_engine::{delta, IncrementalView, QueryProfile, ResolvedWrite, Schema};

/// Work counts gathered at the layer boundaries.
#[derive(Default)]
pub struct Counts {
    /// Executor calls, and the join results they emitted
    /// (`ExecStats::surviving_results`).
    pub exec_calls: u64,
    pub join_results: u64,
    /// Largest binding arena any executor call held.
    pub peak_bindings: u64,
    /// Simplex iterations (dual + primal) over every sweep.
    pub simplex_iters: u64,
    pub warm_attempts: u64,
    pub warm_accepted: u64,
    /// Sweeps per kernel: closed form, matching, simplex.
    pub kernels: [u64; 3],
    /// Cached entries a write touched, and how many of them the
    /// closed-form patcher absorbed in O(delta).
    pub touched: u64,
    pub patched_fast: u64,
}

/// The τ grid the service evaluates for `cfg`, solved the way
/// `BranchValues::compute` solves it: one warm sweep session fed τ values
/// largest first, then the stateless `Q(I, 0)`.
pub fn sweep(
    t: &mut Tracer,
    profile: &QueryProfile,
    cfg: &R2TConfig,
    counts: &mut Counts,
) -> BranchValues {
    let nb = cfg.num_branches().max(1) as usize;
    let presolve = t.enter("lp.presolve", 1);
    let trunc = truncation::for_profile_with(profile, cfg.event_every);
    let mut session = if cfg.warm_sweep { trunc.sweep_session() } else { None };
    t.exit(presolve);
    let branches = t.enter("lp.branches", 1);
    let mut values = vec![0.0f64; nb];
    for j in (1..=nb).rev() {
        let tau = (1u64 << j) as f64;
        values[j - 1] = match session.as_mut() {
            Some(s) => s.value(tau),
            None => trunc.value(tau),
        };
    }
    let base = trunc.value(0.0);
    t.exit(branches);
    if let Some(s) = &session {
        let stats = s.stats();
        counts.simplex_iters += (stats.dual_iterations + stats.primal_iterations) as u64;
        counts.warm_attempts += stats.warm_attempts as u64;
        counts.warm_accepted += stats.warm_accepted as u64;
        counts.kernels[match s.kind() {
            KernelKind::ClosedForm => 0,
            KernelKind::Matching => 1,
            KernelKind::Simplex => 2,
        }] += 1;
    }
    BranchValues { base, values }
}

/// Lowers a statement the way `Session::prepare` does: normalize, then
/// parse the normalized text.
pub fn parse(t: &mut Tracer, schema: &Schema, sql: &str) -> Result<r2t_sql::LoweredQuery, String> {
    t.span("sql.parse", |_| {
        let text = r2t_sql::normalize(sql).map_err(|e| e.to_string())?;
        r2t_sql::parse_statement(&text, schema).map_err(|e| e.to_string())
    })
}

/// The lineage profile of a scalar statement as a cold prepare derives it:
/// through an incremental view on row data when the join is acyclic, and
/// through the executor on an archive or for a cyclic join.
pub fn profile(
    t: &mut Tracer,
    schema: &Schema,
    source: Source<'_>,
    query: &r2t_engine::Query,
    counts: &mut Counts,
) -> Result<QueryProfile, String> {
    let acyclic = join_is_acyclic(&complete_query(schema, query).map_err(|e| e.to_string())?.atoms);
    if let (Source::Rows(instance), true) = (source, acyclic) {
        let (profile, view) = build_view(t, schema, instance, query)?;
        // The service keeps its view; freeing ours is not layer work.
        drop(view);
        return Ok(profile);
    }
    let name = if acyclic { "engine.join" } else { "engine.wcoj" };
    let (profile, stats) = t.span(name, |_| {
        exec::profile_with_stats_src(schema, source, query, &ExecOptions::default())
            .map_err(|e| e.to_string())
    })?;
    counts.exec_calls += 1;
    counts.join_results += stats.surviving_results as u64;
    counts.peak_bindings = counts.peak_bindings.max(stats.peak_bindings as u64);
    Ok(profile)
}

/// The incremental view of an acyclic statement over row data, and the
/// profile replayed from it.
fn build_view(
    t: &mut Tracer,
    schema: &Schema,
    instance: &r2t_engine::Instance,
    query: &r2t_engine::Query,
) -> Result<(QueryProfile, IncrementalView), String> {
    t.span("engine.view_build", |_| {
        let view = IncrementalView::new(schema, instance, query, None)
            .map_err(|e| e.to_string())?
            .ok_or("acyclic statement without an incremental plan")?;
        view.profile().map(|p| (p, view)).map_err(|e| e.to_string())
    })
}

/// One prepared scalar statement as the service maintains it on a heap
/// database: the view, the profile it last replayed (`None` while the
/// patcher carries the entry), the armed patcher, and the branch values.
pub struct Entry {
    relations: Vec<String>,
    view: IncrementalView,
    profile: Option<QueryProfile>,
    patcher: Option<BranchPatcher>,
    pub values: BranchValues,
}

impl Entry {
    /// Prepares `sql` over row data.
    pub fn prepare(
        t: &mut Tracer,
        schema: &Schema,
        instance: &r2t_engine::Instance,
        sql: &str,
        cfg: &R2TConfig,
        counts: &mut Counts,
    ) -> Result<Entry, String> {
        let lowered = parse(t, schema, sql)?;
        let relations =
            delta::query_relations(schema, &lowered.query).map_err(|e| e.to_string())?;
        let (profile, view) = build_view(t, schema, instance, &lowered.query)?;
        let values = sweep(t, &profile, cfg, counts);
        let patcher = arm(t, &view, &profile, &values, cfg);
        Ok(Entry { relations, view, profile: Some(profile), patcher, values })
    }

    /// Carries the entry across a write the way the service revalidates
    /// its cache: untouched entries are shared, a write that changes no
    /// result line keeps the values, the armed patcher absorbs the line
    /// delta in O(delta), and anything else replays the profile and
    /// re-sweeps the τ grid.
    pub fn apply(
        &mut self,
        t: &mut Tracer,
        write: &ResolvedWrite,
        cfg: &R2TConfig,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let touched = write.touched();
        if self.relations.iter().all(|r| !touched.contains(&r.as_str())) {
            return Ok(());
        }
        counts.touched += 1;
        let changes = t
            .span("engine.view_apply", |_| self.view.apply_reporting(write.deltas()))
            .map_err(|e| e.to_string())?;
        if changes.is_noop() {
            return Ok(());
        }
        if let (false, Some(mut p)) = (changes.rebuilt, self.patcher.take()) {
            let patched = t.span("core.patch", |_| {
                p.patch(&changes.removed, &changes.added).then(|| p.values())
            });
            if let Some(values) = patched {
                counts.patched_fast += 1;
                self.values = values;
                self.profile = None;
                self.patcher = Some(p);
                return Ok(());
            }
        }
        let profile =
            t.span("engine.view_replay", |_| self.view.profile()).map_err(|e| e.to_string())?;
        if self.profile.as_ref() != Some(&profile) {
            self.values = t.span("lp.resweep", |_| {
                BranchValues::for_profile_grid(
                    &profile,
                    cfg.num_branches(),
                    cfg.warm_sweep,
                    cfg.event_every,
                )
            });
        }
        self.patcher = arm(t, &self.view, &profile, &self.values, cfg);
        self.profile = Some(profile);
        Ok(())
    }
}

/// Arms the closed-form patcher where the service would: flat profiles,
/// checked bitwise against the swept values.
fn arm(
    t: &mut Tracer,
    view: &IncrementalView,
    profile: &QueryProfile,
    values: &BranchValues,
    cfg: &R2TConfig,
) -> Option<BranchPatcher> {
    if profile.groups.is_some() {
        return None;
    }
    t.span("core.arm", |_| {
        BranchPatcher::try_new(view.raw_lines(), values, cfg.num_branches(), cfg.warm_sweep)
    })
}
