//! Immutable database snapshots, the snapshot-scoped prepared cache, and
//! the revalidation machinery that carries that cache across writes.
//!
//! A [`Snapshot`] is one validated, *frozen* version of the instance data
//! plus everything deterministically derived from it: the prepared-statement
//! cache of lineage profiles and τ-grid branch values. Sessions pin an
//! `Arc<Snapshot>` when they open and answer against it for their whole
//! lifetime, so a concurrent [`crate::PrivateDatabase::apply`] never stalls
//! a reader and never changes an answer mid-session — new data is only
//! visible to sessions opened after the swap.
//!
//! **Deferred materialization.** A snapshot produced by a *delta* apply does
//! not copy the instance eagerly: it holds an `Arc` link to its parent plus
//! the [`ResolvedWrite`] that separates them, and materializes its own row
//! vectors only when a reader first asks ([`Snapshot::instance`] walks the
//! pending chain iteratively and folds the writes forward). A burst of
//! insert-only applies therefore costs O(batch) each, not O(data), and the
//! intermediate versions that no session ever pinned are reclaimed without
//! ever having been built.
//!
//! **One image per snapshot.** Every prepare runs the executor over the
//! snapshot's interned columnar image ([`Snapshot::source`]): the archive
//! itself for a mapped snapshot, and for a heap snapshot an
//! [`Archive::from_instance`] built on the first prepare miss — never by
//! [`crate::PrivateDatabase::apply`], so a snapshot nobody prepares on costs
//! no image. A deferred delta snapshot likewise builds one only when a
//! prepare misses on it (folding its rows first, as any row-level reader
//! does). Interning happens once per snapshot, not once per statement.
//!
//! **Revalidation.** Rather than starting every new version with an empty
//! cache, [`Snapshot::revalidate_from`] carries the parent's prepared
//! entries forward. Each entry knows which relations its join reads
//! ([`Prepared::relations`]): entries untouched by the write share the same
//! `Arc` (their profile is a function of rows the write did not move), and
//! touched entries are *patched* — the entry's [`IncrementalView`] absorbs
//! the delta and replays a profile bit-identical to a from-scratch rebuild,
//! so the refreshed branch values equal what a cold prepare on the new data
//! would compute. A prepare builds no view: the first write that touches an
//! entry builds it ([`IncrState::Unbuilt`]) from the image the entry was
//! prepared on, which still equals the write's parent on every relation the
//! view reads. Entries with no incremental plan (cyclic joins and
//! zero-variable queries, both served by the WCOJ executor) are dropped; the
//! next prepare of the statement rebuilds them against the new snapshot.
//!
//! **DP-safety.** Everything in a snapshot is pre-noise state, equivalent to
//! the raw instance: it must never leave the process un-noised, and a cache
//! entry is only meaningful for the snapshot holding it. Revalidation
//! preserves that scoping: a shared entry is shared precisely because the
//! two snapshots agree on every row its query reads, and a patched entry is
//! re-derived (bit-identically) from the new snapshot's data before any
//! session can answer over it. The cache stays a deterministic function of
//! (instance, normalized text, grid parameters) — pre-noise state only, so
//! carrying it across versions releases nothing.
//!
//! The cache is shared across every session on the snapshot (all tenants):
//! two tenants preparing the same statement under the same grid share one
//! entry and one planning cost. The read path takes only a `RwLock` read
//! lock — concurrent answers never contend with it, and budget state lives
//! elsewhere entirely.

use crate::Error;
use r2t_core::{BranchPatcher, BranchValues, R2TConfig};
use r2t_engine::delta::{self, IncrementalView, ResolvedWrite};
use r2t_engine::exec::{ExecOptions, Source};
use r2t_engine::query::Var;
use r2t_engine::{exec, Archive, Instance, ProfileSummary, Query, QueryProfile, Schema, Tuple};
use r2t_sql::parse_statement;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// The part of a prepared-cache key that is *not* the statement text: the
/// τ-grid shape the branch values were evaluated on. Two sessions whose base
/// configs agree on these knobs can share entries; ε and β never enter —
/// they only scale noise at answer time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct GridKey {
    branches: u32,
    warm_sweep: bool,
    event_every: usize,
}

impl GridKey {
    pub(crate) fn of(base: &R2TConfig) -> Self {
        GridKey {
            branches: base.num_branches(),
            warm_sweep: base.warm_sweep,
            event_every: base.event_every,
        }
    }
}

/// Branch values for a profile under a grid — the one evaluation path every
/// prepare *and* every revalidation goes through, so a patched entry whose
/// profile changed is bitwise-equal to a cold re-prepare by construction.
fn branch_values(profile: &QueryProfile, grid: &GridKey) -> BranchValues {
    BranchValues::for_profile_grid(profile, grid.branches, grid.warm_sweep, grid.event_every)
}

/// The cached pre-noise state of one prepared statement.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// Normalized statement text (the cache key).
    pub(crate) text: String,
    /// Lineage shape, for diagnostics (`None` for grouped statements).
    pub(crate) summary: Option<ProfileSummary>,
    /// Relations the statement's completed join reads — the revalidation
    /// scope. A write touching none of them cannot change the profile, so
    /// the entry is shared with the successor snapshot as-is.
    pub(crate) relations: Vec<String>,
    pub(crate) kind: PreparedKind,
    /// Incremental-maintenance state, consumed (moved into the successor's
    /// entry) when a write touches this statement's relations.
    pub(crate) incr: Mutex<IncrState>,
}

impl Prepared {
    /// This statement's entry in a successor snapshot: same text and
    /// relations, revalidated shape, values and maintenance state.
    fn successor(
        &self,
        summary: Option<ProfileSummary>,
        kind: PreparedKind,
        incr: IncrState,
    ) -> Arc<Prepared> {
        Arc::new(Prepared {
            text: self.text.clone(),
            summary,
            relations: self.relations.clone(),
            kind,
            incr: Mutex::new(incr),
        })
    }
}

#[derive(Debug)]
pub(crate) enum PreparedKind {
    Single {
        /// `Q(I, 0)` and the τ-grid values — all `run_cached` needs at
        /// answer time. Answering only draws noise against these.
        values: BranchValues,
    },
    Grouped {
        /// Per group: key, profile, and its τ-grid values.
        groups: Vec<(Tuple, QueryProfile, BranchValues)>,
    },
}

/// How a prepared entry is maintained across writes.
#[derive(Debug)]
pub(crate) enum IncrState {
    /// Prepared, no view yet: the image the entry was prepared on,
    /// restricted to the entry's relations (so a long-lived entry keeps no
    /// other relation's columns alive), and the statement. The first write
    /// touching the entry builds its view from `image`, or drops the entry
    /// when the statement has no incremental plan (cyclic joins and
    /// zero-variable statements, both served by the WCOJ executor).
    Unbuilt { image: Arc<Archive>, query: Query, group_by: Vec<Var> },
    /// Scalar statement: the materialized join, the profile it last
    /// *replayed* (kept to detect writes that left the profile unchanged;
    /// `None` while the closed-form patcher carries the entry — the profile
    /// is then implicit in the view and replayed only if the patcher
    /// disengages), and the armed patcher itself when the profile sits in
    /// the exact closed-form regime.
    Single { view: IncrementalView, profile: Option<QueryProfile>, patcher: Option<BranchPatcher> },
    /// Grouped statement: the materialized join; per-group profiles live in
    /// [`PreparedKind::Grouped`] alongside their values.
    Grouped { view: IncrementalView },
    /// Already moved into a successor snapshot by revalidation.
    Taken,
}

/// Per-outcome entry accounting for one revalidation pass (exported onto
/// the `service.apply.entries.*` counters by [`crate::PrivateDatabase::apply`]).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RevalStats {
    /// Entries whose relations the write did not touch: `Arc`-shared.
    pub(crate) shared: u64,
    /// Touched entries patched through their view, profile changed.
    pub(crate) patched: u64,
    /// Touched entries whose branch values were patched in `O(delta)` by
    /// the closed-form [`BranchPatcher`] — no profile replay, no LP sweep.
    pub(crate) patched_fast: u64,
    /// Touched entries patched through their view, profile (and therefore
    /// branch values) provably unchanged — the LP sweep was skipped.
    pub(crate) patched_unchanged: u64,
    /// Touched entries dropped (no incremental plan, or the patch failed);
    /// re-prepared on demand.
    pub(crate) dropped: u64,
    /// Touched entries prepared without a view that this write built one
    /// for (each is also counted under its revalidation outcome).
    pub(crate) views_built: u64,
}

/// One immutable version of the instance plus its derived prepared cache.
/// Created by [`crate::PrivateDatabase::new`] /
/// [`crate::PrivateDatabase::apply`].
#[derive(Debug)]
pub struct Snapshot {
    /// The materialized row data. Set at construction for root (full)
    /// snapshots; deferred for delta snapshots until a reader asks.
    state: OnceLock<Instance>,
    /// For a not-yet-materialized delta snapshot: the parent it derives
    /// from and the write separating them. Cleared once `state` is set so
    /// the ancestor chain can be reclaimed.
    pending: Mutex<Option<(Arc<Snapshot>, Arc<ResolvedWrite>)>>,
    /// The interned columnar image every query path runs over
    /// ([`Self::source`]). For an archive-opened snapshot it is the
    /// memory-mapped archive, set at construction; row-level readers fold
    /// it into `state` on first demand ([`Self::instance`]). For a heap
    /// snapshot it is built from `state` on the first prepare miss.
    image: OnceLock<Arc<Archive>>,
    /// Whether `image` is a memory-mapped archive. Mapped snapshots refuse
    /// delta writes ([`crate::PrivateDatabase::apply`]), so the mapping
    /// never diverges from heap state.
    mapped: bool,
    version: u64,
    prepared: RwLock<HashMap<(String, GridKey), Arc<Prepared>>>,
}

impl Snapshot {
    pub(crate) fn new(instance: Instance, version: u64) -> Self {
        let state = OnceLock::new();
        let _ = state.set(instance);
        Snapshot {
            state,
            pending: Mutex::new(None),
            image: OnceLock::new(),
            mapped: false,
            version,
            prepared: RwLock::new(HashMap::new()),
        }
    }

    /// A snapshot served directly from a validated on-disk archive: the
    /// column data stays memory-mapped and is the snapshot's image, so
    /// queries execute over it zero-copy. No row vectors exist until a
    /// row-level reader forces [`Self::instance`].
    pub(crate) fn from_archive(archive: Arc<Archive>, version: u64) -> Self {
        Snapshot {
            state: OnceLock::new(),
            pending: Mutex::new(None),
            image: OnceLock::from(archive),
            mapped: true,
            version,
            prepared: RwLock::new(HashMap::new()),
        }
    }

    /// Whether this snapshot serves straight from a memory-mapped archive.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// This snapshot's interned columnar image, building it from the
    /// (possibly lazily folded) rows on first use. At most one per snapshot.
    fn image(&self, schema: &Schema) -> &Arc<Archive> {
        self.image.get_or_init(|| {
            r2t_obs::counter_add("service.snapshot.images", 1);
            Arc::new(Archive::from_instance(schema, self.instance()))
        })
    }

    /// The executor-facing view of this snapshot's data: always its image
    /// ([`Self::image`]), so no query re-interns the relations it joins.
    pub(crate) fn source(&self, schema: &Schema) -> Source<'_> {
        Source::Archive(self.image(schema))
    }

    /// The raw instance data this snapshot froze, materializing it on first
    /// use. Pre-noise — for the engine and the serving layer, not for
    /// release.
    pub(crate) fn instance(&self) -> &Instance {
        if let Some(inst) = self.state.get() {
            return inst;
        }
        let built = self.materialize();
        // A lost set race just drops the duplicate; either way the pending
        // link can go, releasing the parent chain.
        let _ = self.state.set(built);
        *self.pending.lock().expect("pending write poisoned") = None;
        self.state.get().expect("state was just set")
    }

    /// Walks the pending chain to the nearest materialized ancestor and
    /// folds the writes forward. Iterative on purpose: a long run of
    /// unread applies must not recurse chain-deep.
    fn materialize(&self) -> Instance {
        if let Some(archive) = self.image.get().filter(|_| self.mapped) {
            // Row-level reader on a mapped snapshot: fold the mapped columns
            // back into row vectors once. The mapping itself stays live for
            // the executor paths.
            r2t_obs::counter_add("service.snapshot.materializations", 1);
            return archive.materialize();
        }
        let link = self.pending.lock().expect("pending write poisoned").clone();
        let Some((first_parent, first_write)) = link else {
            // Raced: another thread materialized and cleared the link after
            // our `state` miss. Its `state.set` happened before its clear,
            // and the mutex ordered that clear before our read.
            return self.state.get().expect("cleared pending implies materialized state").clone();
        };
        let mut writes: Vec<Arc<ResolvedWrite>> = vec![first_write];
        let mut cur = first_parent;
        let mut inst = loop {
            if let Some(i) = cur.state.get() {
                break i.clone();
            }
            let link = cur.pending.lock().expect("pending write poisoned").clone();
            match link {
                Some((parent, w)) => {
                    writes.push(w);
                    cur = parent;
                }
                None => {
                    break cur
                        .state
                        .get()
                        .expect("cleared pending implies materialized state")
                        .clone()
                }
            }
        };
        for w in writes.iter().rev() {
            w.apply_mut(&mut inst);
        }
        r2t_obs::counter_add("service.snapshot.materializations", 1);
        inst
    }

    /// Monotone version number: 0 for the instance the database was opened
    /// with, +1 per [`crate::PrivateDatabase::apply`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of distinct (statement, grid) entries in the shared cache.
    pub fn cached_statements(&self) -> usize {
        self.prepared.read().expect("prepared cache poisoned").len()
    }

    /// Looks up `text` (already normalized) under `base`'s grid, preparing
    /// and inserting it on a miss. The expensive work — parse, lineage join,
    /// LP presolve, the τ-grid sweep — runs *outside* both locks; a
    /// concurrent duplicate costs time, not correctness (the loser's
    /// identical entry is discarded).
    pub(crate) fn get_or_prepare(
        &self,
        schema: &Schema,
        text: &str,
        base: &R2TConfig,
    ) -> Result<Arc<Prepared>, Error> {
        let grid = GridKey::of(base);
        if let Some(p) = self
            .prepared
            .read()
            .expect("prepared cache poisoned")
            .get(&(text.to_string(), grid.clone()))
        {
            r2t_obs::counter_add("service.cache.hits", 1);
            return Ok(Arc::clone(p));
        }
        r2t_obs::counter_add("service.cache.misses", 1);
        let built = Arc::new(prepare_with_grid(schema, self.image(schema), text, &grid)?);
        let mut cache = self.prepared.write().expect("prepared cache poisoned");
        let entry = Arc::clone(cache.entry((text.to_string(), grid)).or_insert(built));
        r2t_obs::gauge_max("service.cache.entries", cache.len() as u64);
        Ok(entry)
    }

    /// Builds the successor snapshot for a delta write: the instance is
    /// deferred (parent + write, folded on first read) and the parent's
    /// prepared cache is carried forward entry by entry — shared when the
    /// write touches none of the entry's relations, patched through the
    /// entry's incremental view otherwise (built first from the entry's
    /// image when the entry has none yet), dropped when there is no
    /// incremental plan. A patched entry's profile is bit-identical to a
    /// from-scratch rebuild (the engine's differential suites hold that
    /// bar), so when it compares equal to the old profile the old branch
    /// values are reused verbatim and the LP sweep is skipped.
    pub(crate) fn revalidate_from(
        schema: &Schema,
        parent: &Arc<Snapshot>,
        write: &Arc<ResolvedWrite>,
        version: u64,
    ) -> (Snapshot, RevalStats) {
        let touched: HashSet<&str> = write.touched().into_iter().collect();
        let mut stats = RevalStats::default();
        let mut cache: HashMap<(String, GridKey), Arc<Prepared>> = HashMap::new();
        let parent_cache = parent.prepared.read().expect("prepared cache poisoned");
        for (key, entry) in parent_cache.iter() {
            if entry.relations.iter().all(|r| !touched.contains(r.as_str())) {
                stats.shared += 1;
                cache.insert(key.clone(), Arc::clone(entry));
                continue;
            }
            let grid = &key.1;
            let state = std::mem::replace(
                &mut *entry.incr.lock().expect("incremental state poisoned"),
                IncrState::Taken,
            );
            // No write has touched the entry's relations since it was
            // prepared (it was shared until now), so its image equals the
            // parent on every relation the view reads, row order included.
            let state = match state {
                IncrState::Unbuilt { image, query, group_by } => {
                    match build_view(schema, &image, &query, &group_by, &entry.kind, grid) {
                        Ok(Some(state)) => {
                            stats.views_built += 1;
                            state
                        }
                        Ok(None) | Err(_) => {
                            stats.dropped += 1;
                            continue;
                        }
                    }
                }
                state => state,
            };
            match state {
                IncrState::Single { mut view, profile: old_profile, patcher } => {
                    let PreparedKind::Single { values: old_values } = &entry.kind else {
                        unreachable!("Single incr state on a grouped entry")
                    };
                    match view.apply_reporting(write.deltas()) {
                        // Not a single result line changed: values, summary,
                        // profile, and patcher all carry over untouched.
                        Ok(changes) if changes.is_noop() => {
                            stats.patched_unchanged += 1;
                            cache.insert(
                                key.clone(),
                                entry.successor(
                                    entry.summary.clone(),
                                    PreparedKind::Single { values: old_values.clone() },
                                    IncrState::Single { view, profile: old_profile, patcher },
                                ),
                            );
                        }
                        Ok(changes) => {
                            // Fast path: feed the line delta to the armed
                            // closed-form patcher — O(delta), no profile
                            // replay, no LP sweep, bitwise-equal values. A
                            // wholesale rebuild or a failed patch poisons
                            // the patcher; fall through and re-arm below.
                            let fast = match (changes.rebuilt, patcher) {
                                (false, Some(mut p)) => {
                                    p.patch(&changes.removed, &changes.added).then_some(p)
                                }
                                _ => None,
                            };
                            if let Some(p) = fast {
                                stats.patched_fast += 1;
                                let values = p.values();
                                let (results, num_private, query_result, max_sensitivity) =
                                    p.summary_parts();
                                let summary = ProfileSummary {
                                    results,
                                    num_private,
                                    query_result,
                                    max_sensitivity,
                                    is_projection: false,
                                    max_refs: usize::from(num_private > 0),
                                };
                                cache.insert(
                                    key.clone(),
                                    entry.successor(
                                        Some(summary),
                                        PreparedKind::Single { values },
                                        IncrState::Single { view, profile: None, patcher: Some(p) },
                                    ),
                                );
                                continue;
                            }
                            match view.profile() {
                                Ok(profile) => {
                                    let values = if old_profile.as_ref() == Some(&profile) {
                                        stats.patched_unchanged += 1;
                                        old_values.clone()
                                    } else {
                                        stats.patched += 1;
                                        branch_values(&profile, grid)
                                    };
                                    let patcher =
                                        arm_patcher(&view, profile.groups.is_none(), &values, grid);
                                    cache.insert(
                                        key.clone(),
                                        entry.successor(
                                            Some(profile.summary()),
                                            PreparedKind::Single { values },
                                            IncrState::Single {
                                                view,
                                                profile: Some(profile),
                                                patcher,
                                            },
                                        ),
                                    );
                                }
                                Err(_) => stats.dropped += 1,
                            }
                        }
                        Err(_) => stats.dropped += 1,
                    }
                }
                IncrState::Grouped { mut view } => {
                    match view.apply(write.deltas()).and_then(|()| view.profile_grouped()) {
                        Ok(new_groups) => {
                            let PreparedKind::Grouped { groups: old } = &entry.kind else {
                                unreachable!("Grouped incr state on a scalar entry")
                            };
                            let old_by_key: HashMap<&Tuple, (&QueryProfile, &BranchValues)> =
                                old.iter().map(|(k, p, v)| (k, (p, v))).collect();
                            let mut any_changed = false;
                            let groups: Vec<(Tuple, QueryProfile, BranchValues)> = new_groups
                                .into_iter()
                                .map(|(gk, profile)| {
                                    let values = match old_by_key.get(&gk) {
                                        Some((op, ov)) if **op == profile => (*ov).clone(),
                                        _ => {
                                            any_changed = true;
                                            branch_values(&profile, grid)
                                        }
                                    };
                                    (gk, profile, values)
                                })
                                .collect();
                            if any_changed {
                                stats.patched += 1;
                            } else {
                                stats.patched_unchanged += 1;
                            }
                            cache.insert(
                                key.clone(),
                                entry.successor(
                                    None,
                                    PreparedKind::Grouped { groups },
                                    IncrState::Grouped { view },
                                ),
                            );
                        }
                        Err(_) => stats.dropped += 1,
                    }
                }
                IncrState::Unbuilt { .. } => unreachable!("unbuilt states are built above"),
                // The state already moved on: the next prepare rebuilds the
                // entry against the new snapshot, and prepare is
                // deterministic, so answers do not change.
                IncrState::Taken => stats.dropped += 1,
            }
        }
        drop(parent_cache);
        let snap = Snapshot {
            state: OnceLock::new(),
            pending: Mutex::new(Some((Arc::clone(parent), Arc::clone(write)))),
            image: OnceLock::new(),
            mapped: false,
            version,
            prepared: RwLock::new(cache),
        };
        (snap, stats)
    }
}

/// Builds the maintenance state of an entry prepared without a view, from
/// the image it was prepared on: the view, and for a scalar entry the
/// closed-form patcher armed against the cached values (checked bitwise by
/// [`BranchPatcher::try_new`]) or, outside its regime, the replayed profile
/// the next write compares against. `Ok(None)` when the statement has no
/// incremental plan.
fn build_view(
    schema: &Schema,
    image: &Archive,
    query: &Query,
    group_by: &[Var],
    kind: &PreparedKind,
    grid: &GridKey,
) -> Result<Option<IncrState>, Error> {
    let group_vars = (!group_by.is_empty()).then_some(group_by);
    let Some(view) = IncrementalView::from_archive(schema, image, query, group_vars)? else {
        return Ok(None);
    };
    Ok(Some(match kind {
        PreparedKind::Single { values } => {
            let patcher = arm_patcher(&view, query.projection.is_none(), values, grid);
            let profile = match patcher {
                Some(_) => None,
                None => Some(view.profile()?),
            };
            IncrState::Single { view, profile, patcher }
        }
        PreparedKind::Grouped { .. } => IncrState::Grouped { view },
    }))
}

/// Arms a closed-form branch patcher over a freshly (re)computed scalar
/// entry, when the profile sits in the exact regime: `flat` (no projection
/// groups), every line referencing at most one private tuple with small
/// nonnegative integral weight, and a warm-sweep grid. Out-of-regime
/// profiles — or any bitwise mismatch between the mirror and `values` —
/// yield `None` and the entry stays on the replay-and-recompute path.
fn arm_patcher(
    view: &IncrementalView,
    flat: bool,
    values: &BranchValues,
    grid: &GridKey,
) -> Option<BranchPatcher> {
    if !flat {
        return None;
    }
    BranchPatcher::try_new(view.raw_lines(), values, grid.branches, grid.warm_sweep)
}

/// Prepares one statement against a snapshot's image under a grid: the
/// executor (columnar, or WCOJ for a cyclic join) runs over the image's
/// pre-interned columns, and the τ grid is swept over the profile. No
/// incremental view is built; the entry keeps the image and the statement
/// ([`IncrState::Unbuilt`]) so the first write touching it can build one.
fn prepare_with_grid(
    schema: &Schema,
    image: &Arc<Archive>,
    text: &str,
    grid: &GridKey,
) -> Result<Prepared, Error> {
    let lowered = parse_statement(text, schema)?;
    let relations = delta::query_relations(schema, &lowered.query)?;
    let source = Source::Archive(image);
    let opts = ExecOptions::default();
    let (summary, kind) = if lowered.group_by.is_empty() {
        let (profile, _) = exec::profile_with_stats_src(schema, source, &lowered.query, &opts)?;
        let values = branch_values(&profile, grid);
        (Some(profile.summary()), PreparedKind::Single { values })
    } else {
        let (groups, _) = exec::profile_grouped_with_stats_src(
            schema,
            source,
            &lowered.query,
            &lowered.group_by,
            &opts,
        )?;
        let groups = groups
            .into_iter()
            .map(|(key, profile)| {
                let values = branch_values(&profile, grid);
                (key, profile, values)
            })
            .collect();
        (None, PreparedKind::Grouped { groups })
    };
    let image = Arc::new(image.restrict(&relations));
    Ok(Prepared {
        text: text.to_string(),
        summary,
        relations,
        kind,
        incr: Mutex::new(IncrState::Unbuilt {
            image,
            query: lowered.query,
            group_by: lowered.group_by,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrivateDatabase, SessionOptions};
    use r2t_engine::{Value, WriteBatch};

    /// A tiny FK chain (customer ← orders) with customer primary private.
    fn chain() -> (Schema, Instance) {
        let mut schema = Schema::new();
        schema.add_relation("customer", &["ck"], Some("ck"), &[]).unwrap();
        schema.add_relation("orders", &["ok", "ck"], Some("ok"), &[("ck", "customer")]).unwrap();
        schema.set_primary_private(&["customer"]).unwrap();
        let mut inst = Instance::new();
        inst.insert_all("customer", (0..7i64).map(|c| vec![Value::Int(c)]));
        inst.insert_all("orders", (0..23i64).map(|o| vec![Value::Int(o), Value::Int(o % 7)]));
        (schema, inst)
    }

    fn new_order(ok: i64, ck: i64) -> WriteBatch {
        let mut batch = WriteBatch::new();
        batch.insert("orders", vec![Value::Int(ok), Value::Int(ck)]);
        batch
    }

    #[test]
    fn prepare_leaves_entries_unbuilt_and_the_first_touching_write_builds_the_view() {
        let (schema, inst) = chain();
        let db = PrivateDatabase::new(schema.clone(), inst.clone()).unwrap();
        let base = R2TConfig::builder(1.0, 0.1, 64.0).build();
        let session =
            db.session(SessionOptions::new().total_epsilon(10.0).base(base).seed(1)).unwrap();
        session
            .prepare("SELECT COUNT(*) FROM customer, orders WHERE customer.ck = orders.ck")
            .unwrap();
        session.prepare("SELECT COUNT(*) FROM customer").unwrap();
        let root = db.snapshot();

        // One image for the snapshot; each entry holds it restricted to
        // the relations it reads (same interner, no copy) and no view.
        let image = root.image.get().expect("a prepare miss builds the image");
        {
            let cache = root.prepared.read().unwrap();
            assert_eq!(cache.len(), 2);
            for entry in cache.values() {
                match &*entry.incr.lock().unwrap() {
                    IncrState::Unbuilt { image: held, .. } => {
                        assert!(std::ptr::eq(held.interner(), image.interner()));
                        for rel in ["customer", "orders"] {
                            let reads = entry.relations.iter().any(|r| r == rel);
                            assert_eq!(held.table(rel).is_some(), reads, "{rel}");
                        }
                    }
                    other => panic!("prepare left {other:?}"),
                }
            }
        }

        // The first write touching `orders` builds exactly one view (the
        // customer-only entry is shared) and builds no image.
        let write = Arc::new(new_order(100, 3).resolve(&schema, &inst).unwrap());
        let (next, stats) = Snapshot::revalidate_from(&schema, &root, &write, 1);
        assert_eq!((stats.views_built, stats.shared, stats.dropped), (1, 1, 0));
        assert!(next.image.get().is_none(), "revalidation builds no image");
        let touched = next
            .prepared
            .read()
            .unwrap()
            .values()
            .filter(|e| matches!(*e.incr.lock().unwrap(), IncrState::Single { .. }))
            .count();
        assert_eq!(touched, 1);

        // The next touching write patches the view it finds.
        let next = Arc::new(next);
        let write = Arc::new(new_order(101, 4).resolve(&schema, &Instance::new()).unwrap());
        let (_, stats) = Snapshot::revalidate_from(&schema, &next, &write, 2);
        assert_eq!(stats.views_built, 0);
        assert_eq!(stats.patched_fast + stats.patched + stats.patched_unchanged, 1);
    }
}
