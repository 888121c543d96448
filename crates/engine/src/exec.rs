//! The join executors with lineage tracking.
//!
//! Evaluates an SPJA query by multi-way hash join: atoms are joined in a
//! greedy order (start from the smallest relation, then always pick the atom
//! sharing the most bound variables, breaking ties by relation size, so
//! Cartesian products are taken only when forced). Results failing the
//! predicate are dropped (equivalent to setting `ψ(q) = 0` as the paper
//! does). The columnar executor splits the predicate into its top-level
//! conjuncts and checks each one whose variables all lie in one atom against
//! that atom's rows before the join (selection pushdown); the rest are
//! checked on complete bindings.
//!
//! For every surviving result the executor records which primary-private
//! tuples it references: after completion, each atom over a primary private
//! relation binds that relation's PK to a variable, and the value of that
//! variable in the result identifies the referenced tuple (Section 3.2:
//! `q` references `t_P` iff `|t_P ⋈ q| = 1`).
//!
//! Three executors share these semantics:
//!
//! * The **columnar executor** ([`profile`], [`profile_grouped`]) interns
//!   every joined value into a dense `u32` id once per relation, represents
//!   partial bindings as flat id arrays in a reusable arena, probes id-keyed
//!   hash indexes, and partitions probe work across `std::thread::scope`
//!   workers. The final probe stage streams surviving bindings straight into
//!   per-worker [`IdProfileBuilder`] shards (unpushed conjuncts, weight, and
//!   lineage are evaluated inside the probe loop — the full binding set is
//!   never materialized), which are merged in deterministic chunk order: the
//!   resulting [`QueryProfile`] is bit-identical regardless of worker count.
//!   Pushed-down conjuncts shrink every stage's candidate rows to an
//!   ascending subsequence of the unfiltered ones, and drop only rows whose
//!   bindings would all fail the predicate, so the emission stream — and
//!   with it the profile — is unchanged.
//! * The **worst-case-optimal executor** ([`crate::wcoj`]) enumerates
//!   bindings variable-at-a-time by leapfrog intersection of sorted trie
//!   iterators, so cyclic patterns (triangles, rectangles, cliques) never
//!   materialize the binary-join intermediate blowup. [`Strategy::Auto`]
//!   routes α-cyclic join hypergraphs there and keeps acyclic ones (all of
//!   TPC-H) on the columnar pipeline. Zero-variable queries (relations
//!   without columns) run there under every strategy.
//! * The **reference executor** ([`profile_reference`],
//!   [`profile_grouped_reference`]) is the original single-threaded
//!   row-at-a-time path over `Vec<Value>` bindings, kept as a differential
//!   oracle and as the baseline for the `join_exec` benchmark.
//!
//! All three produce bit-identical [`QueryProfile`]s for the same query, a
//! property the differential proptests (`prop_exec_differential.rs`,
//! `prop_wcoj.rs`) pin down.

use crate::complete::complete_query;
use crate::instance::Instance;
use crate::interner::{ColumnarTable, Interner, UNBOUND};
use crate::lineage::{pack_private_key, IdProfileBuilder, ProfileBuilder, QueryProfile};
use crate::query::{Aggregate, Atom, Predicate, Query, Var};
use crate::schema::Schema;
use crate::storage::Archive;
use crate::value::{cmp_tuples, Tuple, Value};
use crate::EngineError;
use r2t_obs::Attr;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Where a query reads its tuples from.
///
/// [`Source::Rows`] is the classic heap path: the instance's rows are
/// interned into a fresh per-query id space. [`Source::Archive`] reads an
/// opened on-disk archive instead: columns are zero-copy memory-mapped views
/// and the archive's global interner is borrowed, so no per-query interning
/// happens at all. Both sources produce **bit-identical profiles**: dense
/// private ids, projection groups, and group keys depend only on the
/// *emission order* of results and on value *equality* — never on the raw
/// interned id values — and the pipeline enumerates bindings in the same
/// row order for both sources.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Heap-resident rows; interned per query.
    Rows(&'a Instance),
    /// A memory-mapped archive (see [`crate::storage`]).
    Archive(&'a Archive),
}

/// A reference key for a private tuple: (primary-private relation index,
/// primary-key value). Used by the reference executor; the columnar path
/// packs the interned equivalent via [`pack_private_key`].
pub type PrivateKey = (u32, Value);

/// Which join executor evaluates a query. Every strategy produces the same
/// bit-identical [`QueryProfile`]; the choice only affects wall clock and
/// peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Route by join-hypergraph shape ([`crate::query::join_is_acyclic`]):
    /// α-acyclic queries (FK chains, paths, stars — all of TPC-H) stay on
    /// the columnar binary-join pipeline, where the greedy order is already
    /// near worst-case optimal; cyclic queries (triangles, rectangles,
    /// cliques) run on the worst-case-optimal executor to avoid the
    /// intermediate-result blowup.
    #[default]
    Auto,
    /// Always the columnar binary-join pipeline (zero-variable queries,
    /// which it cannot join, excepted).
    Columnar,
    /// Always the worst-case-optimal (generic join / leapfrog) executor.
    Wcoj,
}

/// Tuning knobs for the columnar executor.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for probe/emission stages. `None` uses the machine's
    /// available parallelism. The produced profile is identical for every
    /// setting — workers change wall clock, never results.
    pub workers: Option<usize>,
    /// Minimum probe-side binding count before a stage fans out to threads;
    /// below it the stage runs inline (thread setup would dominate).
    pub parallel_threshold: usize,
    /// Executor selection; [`Strategy::Auto`] routes on join-hypergraph
    /// shape.
    pub strategy: Strategy,
    /// Streamed-execution block size for the columnar pipeline: the maximum
    /// number of seed-stage rows processed per partition. `None` (the
    /// default) runs the whole seed in one partition. `Some(n)` splits the
    /// seed into ascending contiguous blocks of at most `n` rows, runs the
    /// full pipeline per block with a bounded binding arena, and merges the
    /// per-partition profile shards in block order — the profile is
    /// bit-identical to the unpartitioned run for any block size (same
    /// deterministic merge the worker shards use). Ignored by the WCOJ
    /// executor, whose buffered state is already output-proportional.
    pub stream_block: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            workers: None,
            parallel_threshold: 4096,
            strategy: Strategy::Auto,
            stream_block: None,
        }
    }
}

/// Execution statistics reported alongside a profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Largest number of partial bindings materialized at once (the final
    /// stage streams into the profile, so it never counts here). For the
    /// WCOJ executor this is the buffered emission-record count, which is
    /// proportional to the *output*, not to any intermediate join.
    pub peak_bindings: usize,
    /// Distinct values interned by the columnar executor (0 for the
    /// reference path).
    pub interned_values: usize,
    /// Join results that survived the predicate and nonzero-weight filters.
    pub surviving_results: usize,
    /// Estimated peak bytes resident in binding storage: peak bindings ×
    /// binding arity × element width (4 bytes for interned-id executors,
    /// `size_of::<Value>()` for the reference path). Index/trie structures
    /// are excluded on every path — they are proportional to the *input* —
    /// so this is the number the output-proportional-memory claim of the
    /// WCOJ executor is asserted on.
    pub peak_resident_bytes: usize,
}

/// Private atoms of a *completed* query: (primary-private relation index,
/// PK variable), sorted and deduplicated. Shared by every executor path.
pub(crate) fn private_key_vars(schema: &Schema, q: &Query) -> Result<Vec<(u32, Var)>, EngineError> {
    let mut private_vars: Vec<(u32, Var)> = Vec::new();
    for atom in &q.atoms {
        if let Some(pidx) = schema.primary_private().iter().position(|p| *p == atom.relation) {
            let rel = schema.relation(&atom.relation)?;
            let pk = rel.primary_key.ok_or_else(|| {
                EngineError::MalformedQuery(format!(
                    "primary private relation {} has no primary key",
                    atom.relation
                ))
            })?;
            private_vars.push((pidx as u32, atom.vars[pk]));
        }
    }
    private_vars.sort_unstable();
    private_vars.dedup();
    Ok(private_vars)
}

/// Evaluates the query and returns the lineage-annotated profile.
pub fn profile(
    schema: &Schema,
    instance: &Instance,
    query: &Query,
) -> Result<QueryProfile, EngineError> {
    Ok(profile_with_stats_src(schema, Source::Rows(instance), query, &ExecOptions::default())?.0)
}

/// [`profile`] reading from an arbitrary [`Source`], with explicit options
/// and execution statistics.
pub fn profile_with_stats_src(
    schema: &Schema,
    source: Source<'_>,
    query: &Query,
    opts: &ExecOptions,
) -> Result<(QueryProfile, ExecStats), EngineError> {
    let (out, stats) = execute(schema, source, query, None, opts)?;
    let Output::Flat(profile) = out else {
        unreachable!("flat run produced grouped output");
    };
    Ok((profile, stats))
}

/// Evaluates a *group-by* query: join results are partitioned by the values
/// of `group_vars` and one lineage profile is produced per group, keyed by
/// the group's tuple. This is the engine half of the paper's Section 11
/// extension; the DP half (splitting ε across groups) lives in
/// `r2t-core::groupby`.
///
/// Groups are returned sorted by their key under the canonical value order
/// ([`crate::value::Value::cmp_key`]), so the output is deterministic.
pub fn profile_grouped(
    schema: &Schema,
    instance: &Instance,
    query: &Query,
    group_vars: &[Var],
) -> Result<Vec<(Tuple, QueryProfile)>, EngineError> {
    let opts = ExecOptions::default();
    Ok(profile_grouped_with_stats_src(schema, Source::Rows(instance), query, group_vars, &opts)?.0)
}

/// [`profile_grouped`] reading from an arbitrary [`Source`], with explicit
/// options and execution statistics.
pub fn profile_grouped_with_stats_src(
    schema: &Schema,
    source: Source<'_>,
    query: &Query,
    group_vars: &[Var],
    opts: &ExecOptions,
) -> Result<(Vec<(Tuple, QueryProfile)>, ExecStats), EngineError> {
    let (out, stats) = execute(schema, source, query, Some(group_vars), opts)?;
    let Output::Grouped(groups) = out else {
        unreachable!("grouped run produced flat output");
    };
    Ok((groups, stats))
}

/// What one executor run produced: a flat profile, or one profile per group.
enum Output {
    Flat(QueryProfile),
    Grouped(Vec<(Tuple, QueryProfile)>),
}

/// The one driver behind the flat (`group_vars == None`) and grouped entry
/// points: completes the query, routes by [`ExecOptions::strategy`] to the
/// WCOJ or the columnar executor, and returns an empty output for atom-free
/// queries. Zero-variable queries (relations without columns) always run on
/// the WCOJ executor, whose enumeration emits the one empty binding once per
/// row combination; the columnar pipeline has no variable to join on.
fn execute(
    schema: &Schema,
    source: Source<'_>,
    query: &Query,
    group_vars: Option<&[Var]>,
    opts: &ExecOptions,
) -> Result<(Output, ExecStats), EngineError> {
    let q = complete_query(schema, query)?;
    let nvars = q.num_vars();
    if let Some(&v) = group_vars.unwrap_or_default().iter().find(|&&v| v as usize >= nvars) {
        return Err(EngineError::MalformedQuery(format!(
            "group-by variable {v} not bound by the join"
        )));
    }
    let empty = || {
        let out = match group_vars {
            None => Output::Flat(QueryProfile::default()),
            Some(_) => Output::Grouped(Vec::new()),
        };
        (out, ExecStats::default())
    };
    let private_vars = private_key_vars(schema, &q)?;
    if nvars == 0 || use_wcoj(&q, opts.strategy) {
        let Some(plan) = crate::wcoj::WcojPlan::new(schema, source, &q, private_vars, opts)? else {
            return Ok(empty());
        };
        let (out, stats) = plan.run(group_vars)?;
        return Ok((out.finish(&plan.interner), stats));
    }
    let Some(plan) = Plan::new(schema, source, &q, private_vars, opts)? else {
        return Ok(empty());
    };
    let (out, peak_bindings, surviving_results) = plan.run(group_vars)?;
    let stats = ExecStats {
        peak_bindings,
        interned_values: plan.interner.len(),
        surviving_results,
        peak_resident_bytes: peak_bindings * plan.nvars * std::mem::size_of::<u32>(),
    };
    Ok((out.finish(&plan.interner), stats))
}

/// Whether the query should run on the worst-case-optimal executor.
fn use_wcoj(q: &Query, strategy: Strategy) -> bool {
    match strategy {
        Strategy::Columnar => false,
        Strategy::Wcoj => true,
        Strategy::Auto => !crate::query::join_is_acyclic(&q.atoms),
    }
}

/// Resolves a [`GroupedAcc`]'s interned group keys back to value tuples and
/// sorts groups by the canonical key order. Shared by both executors and the
/// incremental views so every grouped output is constructed identically.
pub(crate) fn resolve_groups(acc: GroupedAcc, interner: &Interner) -> Vec<(Tuple, QueryProfile)> {
    let mut groups: Vec<(Tuple, QueryProfile)> = acc
        .entries
        .into_iter()
        .map(|(key, b)| {
            let tuple: Tuple = key.iter().map(|&id| interner.resolve(id).clone()).collect();
            (tuple, b.build())
        })
        .collect();
    groups.sort_by(|(a, _), (b, _)| cmp_tuples(a, b));
    groups
}

/// Evaluates the query answer `Q(I)` directly.
pub fn evaluate(schema: &Schema, instance: &Instance, query: &Query) -> Result<f64, EngineError> {
    Ok(profile(schema, instance, query)?.query_result())
}

// ---------------------------------------------------------------------------
// The columnar pipeline.
// ---------------------------------------------------------------------------

/// The interner a plan reads ids from: owned when built per-query from heap
/// rows, borrowed when the source is an archive (whose database-wide
/// interner is shared by every query — cloning it would cost O(values)).
pub(crate) enum PlanInterner<'a> {
    Owned(Interner),
    Borrowed(&'a Interner),
}

impl std::ops::Deref for PlanInterner<'_> {
    type Target = Interner;

    #[inline]
    fn deref(&self) -> &Interner {
        match self {
            PlanInterner::Owned(i) => i,
            PlanInterner::Borrowed(i) => i,
        }
    }
}

/// Resolves the columnar id tables a query joins over, one table per
/// *distinct* relation in first-appearance order (self-joins share). Shared
/// by the columnar and WCOJ executors — identical table order is what makes
/// their interned-id spaces, and therefore their private reference keys,
/// line up bit-for-bit.
///
/// For [`Source::Rows`] every touched relation is interned into a fresh
/// per-query id space; for [`Source::Archive`] the archive's mapped tables
/// are reused as-is (a cheap `Arc` clone per column) along with its global
/// interner. The two id spaces differ in raw values but agree on equality
/// and row order, which is all profile construction depends on.
pub(crate) fn intern_tables<'a>(
    schema: &Schema,
    source: Source<'a>,
    q: &Query,
) -> Result<(PlanInterner<'a>, Vec<ColumnarTable>, Vec<usize>), EngineError> {
    let mut tables: Vec<ColumnarTable> = Vec::new();
    let mut by_rel: HashMap<&str, usize> = HashMap::new();
    let mut atom_table = Vec::with_capacity(q.atoms.len());
    let mut interner = match source {
        Source::Rows(_) => Interner::new(),
        Source::Archive(_) => Interner::default(), // unused; archive interner is borrowed
    };
    for atom in &q.atoms {
        schema.relation(&atom.relation)?;
        let idx = match by_rel.get(atom.relation.as_str()) {
            Some(&i) => i,
            None => {
                let i = tables.len();
                let table = match source {
                    Source::Rows(instance) => instance.columnar(&atom.relation, &mut interner),
                    Source::Archive(a) => a
                        .table(&atom.relation)
                        .cloned()
                        .unwrap_or(ColumnarTable { cols: Vec::new(), nrows: 0 }),
                };
                tables.push(table);
                by_rel.insert(atom.relation.as_str(), i);
                i
            }
        };
        atom_table.push(idx);
    }
    let interner = match source {
        Source::Rows(_) => PlanInterner::Owned(interner),
        Source::Archive(a) => PlanInterner::Borrowed(a.interner()),
    };
    Ok((interner, tables, atom_table))
}

/// Variables whose `Value` must be resolved per result: those read by the
/// predicate or the weight expression. Sorted and deduplicated.
pub(crate) fn needed_value_vars(q: &Query) -> Vec<Var> {
    value_vars(q, [&q.predicate])
}

/// Variables read by `checks` or by the query's weight expression, sorted
/// and deduplicated.
fn value_vars<'p>(q: &Query, checks: impl IntoIterator<Item = &'p Predicate>) -> Vec<Var> {
    let mut vars = Vec::new();
    checks.into_iter().for_each(|p| p.vars(&mut vars));
    if let Aggregate::Sum(e) = &q.aggregate {
        e.vars(&mut vars);
    }
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Prepared columnar execution state: interned tables, join order, the rows
/// each atom keeps after selection pushdown, and the variable sets each
/// emission needs.
struct Plan<'a> {
    q: &'a Query,
    nvars: usize,
    interner: PlanInterner<'a>,
    /// Interned tables, one per *distinct* relation (self-joins share).
    tables: Vec<ColumnarTable>,
    /// Atom index -> index into `tables`.
    atom_table: Vec<usize>,
    /// Greedy join order over atom indices (on raw table sizes).
    order: Vec<usize>,
    /// Atom index -> the ascending rows that pass the conjuncts pushed down
    /// to it; `None` when none were (every row).
    kept: Vec<Option<Vec<u32>>>,
    /// The conjuncts no single atom holds, checked on complete bindings.
    residual: Vec<&'a Predicate>,
    /// (primary-private relation index, PK variable) pairs.
    private_vars: Vec<(u32, Var)>,
    /// Variables whose `Value` must be materialized per result (those read
    /// by the residual conjuncts or the weight expression).
    needed_vars: Vec<Var>,
    workers: usize,
    threshold: usize,
    /// Streamed-execution block size (seed rows per partition); 0 disables.
    stream_block: usize,
}

impl<'a> Plan<'a> {
    /// Resolves the source tables and plans the join; `None` when the query
    /// has no atoms (empty profile).
    fn new(
        schema: &Schema,
        source: Source<'a>,
        q: &'a Query,
        private_vars: Vec<(u32, Var)>,
        opts: &ExecOptions,
    ) -> Result<Option<Plan<'a>>, EngineError> {
        if q.atoms.is_empty() {
            return Ok(None);
        }
        let nvars = q.num_vars();
        let (interner, tables, atom_table) = intern_tables(schema, source, q)?;
        // The order stays on raw sizes: ordering by filtered sizes would
        // change the emission order, and with it the profile's dense ids.
        let sizes: Vec<usize> = atom_table.iter().map(|&i| tables[i].nrows).collect();
        let order = greedy_order(q, &sizes, nvars);
        let (kept, residual) = push_down(q, &interner, &tables, &atom_table);
        let needed_vars = value_vars(q, residual.iter().copied());
        let workers = opts
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        r2t_obs::gauge_max("exec.interner.values", interner.len() as u64);
        Ok(Some(Plan {
            q,
            nvars,
            interner,
            tables,
            atom_table,
            order,
            kept,
            residual,
            private_vars,
            needed_vars,
            workers: workers.max(1),
            threshold: opts.parallel_threshold,
            stream_block: opts.stream_block.unwrap_or(0),
        }))
    }

    /// Worker count for a stage over `nparts` probe bindings.
    fn workers_for(&self, nparts: usize) -> usize {
        if nparts < self.threshold.max(1) {
            1
        } else {
            self.workers.min(nparts)
        }
    }

    /// Runs the pipeline: every stage but the last extends the binding
    /// arena; the last streams into profile shards. Returns the emitted
    /// output, the peak binding count, and the surviving-result count.
    ///
    /// With a `stream_block` the seed stage is split into ascending
    /// contiguous row blocks, the pipeline runs once per block (seeded with
    /// the block's kept rows), and the per-partition shards are merged in
    /// block order. Because the unpartitioned run enumerates bindings in
    /// seed-row order, the concatenation of the partitions' emission streams
    /// is exactly the unpartitioned emission stream — so the deterministic
    /// shard merge yields a bit-identical profile while the binding arena
    /// stays bounded by a block's output instead of the whole join's.
    fn run(&self, group_vars: Option<&[Var]>) -> Result<(EmitOut, usize, usize), EngineError> {
        let _run_span = r2t_obs::span("exec.run");
        // Per-stage key indexes depend only on the bound-variable
        // progression and the kept rows, never on binding contents, so they
        // are built once and shared by every partition.
        let mut bound = vec![false; self.nvars];
        let mut indexes = Vec::with_capacity(self.order.len());
        for &ai in &self.order {
            let atom = &self.q.atoms[ai];
            let table = &self.tables[self.atom_table[ai]];
            indexes.push(match &self.kept[ai] {
                None => KeyIndex::build(table, &atom.vars, &bound, 0..table.nrows as u32),
                Some(rows) => KeyIndex::build(table, &atom.vars, &bound, rows.iter().copied()),
            });
            for &v in &atom.vars {
                bound[v as usize] = true;
            }
        }
        let seed_rows = self.tables[self.atom_table[self.order[0]]].nrows;
        let out = if self.stream_block == 0 || seed_rows <= self.stream_block {
            self.run_partition(&indexes, None, group_vars)?
        } else {
            self.run_streamed(&indexes, seed_rows, group_vars)?
        };
        r2t_obs::gauge_max("exec.peak_bindings", out.1 as u64);
        r2t_obs::gauge_max("proc.peak_rss_bytes", r2t_obs::peak_rss_bytes());
        Ok(out)
    }

    /// The streamed driver: one pipeline pass per contiguous seed block,
    /// shards merged in block order.
    fn run_streamed(
        &self,
        indexes: &[KeyIndex],
        seed_rows: usize,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize, usize), EngineError> {
        let block = self.stream_block;
        let mut acc = EmitOut::empty(group_vars.is_some());
        let mut peak = 0usize;
        let mut emitted = 0usize;
        let mut partitions = 0u64;
        let mut start = 0usize;
        while start < seed_rows {
            let end = (start + block).min(seed_rows);
            let (out, p, n) = self.run_partition(indexes, Some(start..end), group_vars)?;
            peak = peak.max(p);
            emitted += n;
            partitions += 1;
            match (&mut acc, out) {
                (EmitOut::Flat(a), EmitOut::Flat(b)) => a.merge(b)?,
                (EmitOut::Grouped(a), EmitOut::Grouped(b)) => a.merge(b)?,
                _ => unreachable!("partitions agree on grouping"),
            }
            start = end;
        }
        r2t_obs::counter_add("exec.partition.count", partitions);
        r2t_obs::counter_add("exec.partition.seed_rows", seed_rows as u64);
        r2t_obs::gauge_max("exec.partition.peak_bindings", peak as u64);
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "exec.partitioned_run",
                &[
                    ("partitions", Attr::U64(partitions)),
                    ("block", Attr::U64(block as u64)),
                    ("seed_rows", Attr::U64(seed_rows as u64)),
                    ("emitted", Attr::U64(emitted as u64)),
                ],
            );
        }
        Ok((acc, peak, emitted))
    }

    /// One pipeline pass over the kept rows among `seed` rows of the seed
    /// stage (all kept rows when `None`), with per-stage indexes prebuilt by
    /// the caller.
    fn run_partition(
        &self,
        indexes: &[KeyIndex],
        seed: Option<Range<usize>>,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize, usize), EngineError> {
        let nvars = self.nvars;
        // The seed is one fully-unbound partial: probing it against the
        // first atom's index (which has no bound key columns, i.e. matches
        // every kept row) is exactly the seeding scan.
        let seed_index = seed.map(|r| {
            let KeyIndex::All(rows) = &indexes[0] else {
                unreachable!("the seed stage has no bound key columns")
            };
            let lo = rows.partition_point(|&ri| (ri as usize) < r.start);
            let hi = rows.partition_point(|&ri| (ri as usize) < r.end);
            KeyIndex::All(rows[lo..hi].to_vec())
        });
        let mut partials: Vec<u32> = vec![UNBOUND; nvars];
        let mut peak = 1usize;
        for (s, &ai) in self.order.iter().enumerate() {
            let atom = &self.q.atoms[ai];
            let table = &self.tables[self.atom_table[ai]];
            let index = match (&seed_index, s) {
                (Some(si), 0) => si,
                _ => &indexes[s],
            };
            let rows_in = partials.len() / nvars;
            let build_rows = self.kept[ai].as_ref().map_or(table.nrows, Vec::len);
            if s + 1 == self.order.len() {
                let (out, emitted) =
                    self.emit_stage(&partials, s, atom, table, index, group_vars)?;
                r2t_obs::counter_add("exec.rows.emitted", emitted as u64);
                self.record_stage(s, "emit", rows_in, emitted, build_rows);
                return Ok((out, peak, emitted));
            }
            partials = self.extend_stage(&partials, s, atom, table, index);
            peak = peak.max(partials.len() / nvars);
            self.record_stage(s, "extend", rows_in, partials.len() / nvars, build_rows);
            if partials.is_empty() {
                break;
            }
        }
        Ok((EmitOut::empty(group_vars.is_some()), peak, 0))
    }

    /// Records one pipeline stage's build/probe volumes. All counts are
    /// non-private pipeline cardinalities (see DESIGN.md §3.3).
    fn record_stage(
        &self,
        stage: usize,
        kind: &'static str,
        rows_in: usize,
        rows_out: usize,
        build_rows: usize,
    ) {
        r2t_obs::counter_add("exec.stages", 1);
        if r2t_obs::enabled(r2t_obs::Level::Full) {
            r2t_obs::event(
                "exec.stage",
                &[
                    ("stage", Attr::U64(stage as u64)),
                    ("kind", Attr::Str(kind)),
                    ("rows_in", Attr::U64(rows_in as u64)),
                    ("rows_out", Attr::U64(rows_out as u64)),
                    ("build_rows", Attr::U64(build_rows as u64)),
                    ("workers", Attr::U64(self.workers_for(rows_in) as u64)),
                ],
            );
        }
    }

    /// One intermediate probe stage: extends every partial with the atom's
    /// matching rows, fanning out across workers when the probe side is
    /// large enough. Chunks are contiguous and concatenated in order, so the
    /// output arena is identical for any worker count. `stage` is the
    /// pipeline position, used only for telemetry labels.
    fn extend_stage(
        &self,
        partials: &[u32],
        stage: usize,
        atom: &Atom,
        table: &ColumnarTable,
        index: &KeyIndex,
    ) -> Vec<u32> {
        let nvars = self.nvars;
        let nparts = partials.len() / nvars;
        let workers = self.workers_for(nparts);
        if workers <= 1 {
            return extend_range(partials, nvars, &atom.vars, table, index);
        }
        let chunk_parts = nparts.div_ceil(workers);
        let outs: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partials
                .chunks(chunk_parts * nvars)
                .enumerate()
                .map(|(widx, chunk)| {
                    scope.spawn(move || {
                        let t0 = worker_clock();
                        let out = extend_range(chunk, nvars, &atom.vars, table, index);
                        record_worker(t0, stage, widx, chunk.len() / nvars, out.len() / nvars);
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("probe worker panicked")).collect()
        });
        let total = outs.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for o in outs {
            out.extend_from_slice(&o);
        }
        out
    }

    /// The final probe stage: surviving bindings stream into per-worker
    /// profile shards, merged in chunk order (deterministic for any worker
    /// count).
    fn emit_stage(
        &self,
        partials: &[u32],
        stage: usize,
        atom: &Atom,
        table: &ColumnarTable,
        index: &KeyIndex,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize), EngineError> {
        let nparts = partials.len() / self.nvars;
        let workers = self.workers_for(nparts);
        if workers <= 1 {
            return self.emit_range(partials, atom, table, index, group_vars);
        }
        let chunk_parts = nparts.div_ceil(workers);
        let shards: Vec<Result<(EmitOut, usize), EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partials
                .chunks(chunk_parts * self.nvars)
                .enumerate()
                .map(|(widx, chunk)| {
                    scope.spawn(move || {
                        let t0 = worker_clock();
                        let out = self.emit_range(chunk, atom, table, index, group_vars);
                        let emitted = out.as_ref().map(|&(_, n)| n).unwrap_or(0);
                        record_worker(t0, stage, widx, chunk.len() / self.nvars, emitted);
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("emit worker panicked")).collect()
        });
        let mut shards = shards.into_iter();
        let (mut acc, mut emitted) = shards.next().expect("at least one worker")?;
        for shard in shards {
            let (shard, n) = shard?;
            emitted += n;
            match (&mut acc, shard) {
                (EmitOut::Flat(a), EmitOut::Flat(b)) => a.merge(b)?,
                (EmitOut::Grouped(a), EmitOut::Grouped(b)) => a.merge(b)?,
                _ => unreachable!("workers agree on grouping"),
            }
        }
        Ok((acc, emitted))
    }

    /// Probes one contiguous chunk of partials through the final atom and
    /// emits surviving bindings into a fresh shard.
    fn emit_range(
        &self,
        chunk: &[u32],
        atom: &Atom,
        table: &ColumnarTable,
        index: &KeyIndex,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize), EngineError> {
        let nvars = self.nvars;
        let mut out = EmitOut::empty(group_vars.is_some());
        let mut emitted = 0usize;
        let mut keybuf: Vec<u32> = Vec::new();
        let mut gkey: Vec<u32> = Vec::new();
        let mut pkey: Vec<u32> = Vec::new();
        let mut nb: Vec<u32> = vec![UNBOUND; nvars];
        let mut scratch: Vec<Value> = vec![Value::Int(i64::MIN); nvars];
        for p in chunk.chunks_exact(nvars) {
            let Some(matches) = index.candidates(p, &mut keybuf) else { continue };
            'rows: for &ri in matches {
                nb.copy_from_slice(p);
                for (col, &v) in atom.vars.iter().enumerate() {
                    let id = table.cols[col][ri as usize];
                    let slot = &mut nb[v as usize];
                    if *slot == UNBOUND {
                        *slot = id;
                    } else if *slot != id {
                        continue 'rows;
                    }
                }
                // The binding is complete: evaluate the residual conjuncts
                // and the weight on the resolved values, then emit lineage
                // over interned ids.
                for &v in &self.needed_vars {
                    scratch[v as usize] = self.interner.resolve(nb[v as usize]).clone();
                }
                if !self.residual.iter().all(|c| c.eval(&scratch)) {
                    continue;
                }
                let w = self.q.aggregate.weight(&scratch);
                if w == 0.0 {
                    continue;
                }
                emitted += 1;
                let refs = self
                    .private_vars
                    .iter()
                    .map(|&(pidx, var)| pack_private_key(pidx, nb[var as usize]));
                let builder = match (&mut out, group_vars) {
                    (EmitOut::Flat(b), _) => b,
                    (EmitOut::Grouped(acc), Some(gv)) => {
                        gkey.clear();
                        gkey.extend(gv.iter().map(|&v| nb[v as usize]));
                        acc.builder(&gkey)
                    }
                    _ => unreachable!("grouped output without group vars"),
                };
                match &self.q.projection {
                    None => {
                        builder.add_result(w, refs);
                    }
                    Some(proj) => {
                        pkey.clear();
                        pkey.extend(proj.iter().map(|&v| nb[v as usize]));
                        builder.add_projected_result(&pkey, w, w, refs)?;
                    }
                }
            }
        }
        Ok((out, emitted))
    }
}

/// Selection pushdown: splits the completed query's predicate into its
/// top-level conjuncts and checks each one whose variables all lie in one
/// atom against that atom's rows before the join. Such a conjunct goes to
/// every atom holding all of its variables (a join variable can have
/// several); one with no variables, or spanning atoms, stays residual for
/// the emission check. Returns each atom's kept rows (ascending; `None` when
/// nothing was pushed to it) and the residual conjuncts.
///
/// Sound because a dropped row could only lead to bindings that fail the
/// conjunct. Kept rows ascend, so every stage's candidates are a
/// subsequence of the unfiltered ones and the emission order is unchanged.
/// Single-variable conjuncts are evaluated once per distinct value id, via a
/// one-byte memo per id of the plan's id space shared by every atom holding
/// the variable; multi-variable ones once per row.
fn push_down<'q>(
    q: &'q Query,
    interner: &Interner,
    tables: &[ColumnarTable],
    atom_table: &[usize],
) -> (Vec<Option<Vec<u32>>>, Vec<&'q Predicate>) {
    let natoms = q.atoms.len();
    let holds =
        |a: &Atom, vars: &[Var]| !vars.is_empty() && vars.iter().all(|v| a.vars.contains(v));
    let (pushed, residual): (Vec<_>, Vec<_>) = q
        .predicate
        .conjuncts()
        .into_iter()
        .map(|c| {
            let mut vars = Vec::new();
            c.vars(&mut vars);
            vars.sort_unstable();
            vars.dedup();
            (c, vars)
        })
        .partition(|(_, vars)| q.atoms.iter().any(|a| holds(a, vars)));
    let residual = residual.into_iter().map(|(c, _)| c).collect();
    if pushed.is_empty() {
        return (vec![None; natoms], residual);
    }
    let mut scratch = vec![Value::Int(i64::MIN); q.num_vars()];
    // Per variable: 0 = not yet evaluated, 1 = passes, 2 = fails its
    // single-variable conjuncts.
    let mut memos: Vec<Vec<u8>> = vec![Vec::new(); q.num_vars()];
    let (mut scanned, mut kept_rows) = (0usize, 0usize);
    let mut kept = Vec::with_capacity(natoms);
    for (atom, &ti) in q.atoms.iter().zip(atom_table) {
        let table = &tables[ti];
        let cs: Vec<&(&Predicate, Vec<Var>)> =
            pushed.iter().filter(|(_, vars)| holds(atom, vars)).collect();
        if cs.is_empty() || table.nrows == 0 {
            kept.push(None);
            continue;
        }
        let col = |v: Var| -> &[u32] {
            &table.cols[atom.vars.iter().position(|&u| u == v).expect("conjunct var in atom")]
        };
        // Single-variable conjuncts grouped by variable; multi-variable ones
        // with the union of their variables.
        let mut singles: Vec<(Var, &[u32], Vec<&Predicate>)> = Vec::new();
        let mut multis: Vec<&Predicate> = Vec::new();
        let mut multi_vars: Vec<Var> = Vec::new();
        for (c, vars) in cs {
            if let [v] = vars[..] {
                match singles.iter_mut().find(|s| s.0 == v) {
                    Some(s) => s.2.push(*c),
                    None => singles.push((v, col(v), vec![*c])),
                }
            } else {
                multis.push(*c);
                multi_vars.extend(vars);
            }
        }
        multi_vars.sort_unstable();
        multi_vars.dedup();
        let multi_cols: Vec<(Var, &[u32])> = multi_vars.iter().map(|&v| (v, col(v))).collect();
        for (v, _, _) in &singles {
            if memos[*v as usize].is_empty() {
                memos[*v as usize] = vec![0; interner.len()];
            }
        }
        let mut rows = Vec::new();
        'rows: for ri in 0..table.nrows {
            for (v, ids, cs) in &singles {
                let id = ids[ri] as usize;
                let memo = &mut memos[*v as usize][id];
                if *memo == 0 {
                    scratch[*v as usize] = interner.resolve(id as u32).clone();
                    *memo = if cs.iter().all(|c| c.eval(&scratch)) { 1 } else { 2 };
                }
                if *memo == 2 {
                    continue 'rows;
                }
            }
            for &(v, ids) in &multi_cols {
                scratch[v as usize] = interner.resolve(ids[ri]).clone();
            }
            if multis.iter().all(|c| c.eval(&scratch)) {
                rows.push(ri as u32);
            }
        }
        scanned += table.nrows;
        kept_rows += rows.len();
        kept.push(Some(rows));
    }
    r2t_obs::counter_add("exec.pushdown.conjuncts", pushed.len() as u64);
    r2t_obs::counter_add("exec.pushdown.rows_scanned", scanned as u64);
    r2t_obs::counter_add("exec.pushdown.rows_kept", kept_rows as u64);
    (kept, residual)
}

/// Greedy join order: smallest atom first, then maximize shared bound
/// variables, tie-breaking towards smaller relations. The WCOJ executor
/// reuses this as its canonical *atom pipeline order* so its emission order
/// reproduces the columnar executor's exactly.
pub(crate) fn greedy_order(q: &Query, sizes: &[usize], nvars: usize) -> Vec<usize> {
    let natoms = q.atoms.len();
    let mut used = vec![false; natoms];
    let mut order = Vec::with_capacity(natoms);
    let first = (0..natoms).min_by_key(|&i| sizes[i]).expect("nonempty");
    used[first] = true;
    order.push(first);
    let mut bound = vec![false; nvars];
    for &v in &q.atoms[first].vars {
        bound[v as usize] = true;
    }
    while order.len() < natoms {
        let next = (0..natoms)
            .filter(|&i| !used[i])
            .max_by_key(|&i| {
                let shared = q.atoms[i].vars.iter().filter(|&&v| bound[v as usize]).count();
                (shared, std::cmp::Reverse(sizes[i]))
            })
            .expect("unused atom exists");
        used[next] = true;
        for &v in &q.atoms[next].vars {
            bound[v as usize] = true;
        }
        order.push(next);
    }
    order
}

/// Starts the per-worker timer when full-trace telemetry is active; the
/// level check keeps `Instant::now` syscalls off the hot path otherwise.
pub(crate) fn worker_clock() -> Option<Instant> {
    r2t_obs::enabled(r2t_obs::Level::Full).then(Instant::now)
}

/// Records one worker's chunk timing (skew shows up as spread across the
/// `secs` values of a stage's workers). No-op unless [`worker_clock`] armed.
pub(crate) fn record_worker(
    t0: Option<Instant>,
    stage: usize,
    worker: usize,
    rows_in: usize,
    rows_out: usize,
) {
    if let Some(t0) = t0 {
        r2t_obs::event(
            "exec.worker",
            &[
                ("stage", Attr::U64(stage as u64)),
                ("worker", Attr::U64(worker as u64)),
                ("rows_in", Attr::U64(rows_in as u64)),
                ("rows_out", Attr::U64(rows_out as u64)),
                ("secs", Attr::F64(t0.elapsed().as_secs_f64())),
            ],
        );
    }
}

/// Extends each partial in `chunk` with the atom's matching rows; the
/// `UNBOUND` sentinel marks unbound variables, and repeated variables must
/// agree (within the atom and against the partial).
fn extend_range(
    chunk: &[u32],
    nvars: usize,
    vars: &[Var],
    table: &ColumnarTable,
    index: &KeyIndex,
) -> Vec<u32> {
    let mut out = Vec::new();
    let mut keybuf: Vec<u32> = Vec::new();
    for p in chunk.chunks_exact(nvars) {
        let Some(matches) = index.candidates(p, &mut keybuf) else { continue };
        'rows: for &ri in matches {
            let base = out.len();
            out.extend_from_slice(p);
            for (col, &v) in vars.iter().enumerate() {
                let id = table.cols[col][ri as usize];
                let slot = &mut out[base + v as usize];
                if *slot == UNBOUND {
                    *slot = id;
                } else if *slot != id {
                    out.truncate(base);
                    continue 'rows;
                }
            }
        }
    }
    out
}

/// A per-stage hash index over the atom's key columns (first occurrence of
/// each already-bound variable), keyed by interned ids.
enum KeyIndex {
    /// No bound key columns: every row matches (seed or Cartesian stage).
    All(Vec<u32>),
    /// 1–2 key columns packed into a `u64`.
    Packed { key_vars: [Var; 2], nkeys: usize, map: HashMap<u64, Vec<u32>> },
    /// 3+ key columns.
    Wide { key_vars: Vec<Var>, map: HashMap<Box<[u32]>, Vec<u32>> },
}

impl KeyIndex {
    /// Indexes the table's `rows`, which must ascend so each key's candidate
    /// list does too.
    fn build(
        table: &ColumnarTable,
        vars: &[Var],
        bound: &[bool],
        rows: impl Iterator<Item = u32>,
    ) -> KeyIndex {
        if table.nrows == 0 {
            // An empty relation has no column vectors to index (its arity is
            // unknowable from zero rows); no candidate ever matches.
            return KeyIndex::All(Vec::new());
        }
        let mut key_cols: Vec<(usize, Var)> = Vec::new();
        let mut seen: Vec<Var> = Vec::new();
        for (col, &v) in vars.iter().enumerate() {
            if bound[v as usize] && !seen.contains(&v) {
                key_cols.push((col, v));
                seen.push(v);
            }
        }
        match key_cols.len() {
            0 => KeyIndex::All(rows.collect()),
            n @ (1 | 2) => {
                let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
                let c0: &[u32] = &table.cols[key_cols[0].0];
                let c1: &[u32] = &table.cols[key_cols[n - 1].0];
                for ri in rows {
                    let mut k = c0[ri as usize] as u64;
                    if n == 2 {
                        k = (k << 32) | c1[ri as usize] as u64;
                    }
                    map.entry(k).or_default().push(ri);
                }
                let second = if n == 2 { key_cols[1].1 } else { 0 };
                KeyIndex::Packed { key_vars: [key_cols[0].1, second], nkeys: n, map }
            }
            _ => {
                let mut map: HashMap<Box<[u32]>, Vec<u32>> = HashMap::new();
                let mut key: Vec<u32> = Vec::with_capacity(key_cols.len());
                let cols: Vec<&[u32]> = key_cols.iter().map(|&(c, _)| &*table.cols[c]).collect();
                for ri in rows {
                    key.clear();
                    key.extend(cols.iter().map(|c| c[ri as usize]));
                    if let Some(rows) = map.get_mut(key.as_slice()) {
                        rows.push(ri);
                    } else {
                        map.insert(key.as_slice().into(), vec![ri]);
                    }
                }
                KeyIndex::Wide { key_vars: key_cols.iter().map(|&(_, v)| v).collect(), map }
            }
        }
    }

    /// Row ids matching the partial's key values (`None` when absent).
    #[inline]
    fn candidates<'a>(&'a self, p: &[u32], keybuf: &mut Vec<u32>) -> Option<&'a [u32]> {
        match self {
            KeyIndex::All(rows) => Some(rows),
            KeyIndex::Packed { key_vars, nkeys, map } => {
                let mut k = p[key_vars[0] as usize] as u64;
                if *nkeys == 2 {
                    k = (k << 32) | p[key_vars[1] as usize] as u64;
                }
                map.get(&k).map(Vec::as_slice)
            }
            KeyIndex::Wide { key_vars, map } => {
                keybuf.clear();
                keybuf.extend(key_vars.iter().map(|&v| p[v as usize]));
                map.get(keybuf.as_slice()).map(Vec::as_slice)
            }
        }
    }
}

/// Per-worker emission target: one shard for flat queries, a keyed shard
/// collection for group-by queries.
pub(crate) enum EmitOut {
    Flat(IdProfileBuilder),
    Grouped(GroupedAcc),
}

impl EmitOut {
    pub(crate) fn empty(grouped: bool) -> EmitOut {
        if grouped {
            EmitOut::Grouped(GroupedAcc::default())
        } else {
            EmitOut::Flat(IdProfileBuilder::new())
        }
    }

    /// Builds the emitted shards into profiles, resolving group keys through
    /// the run's interner.
    fn finish(self, interner: &Interner) -> Output {
        match self {
            EmitOut::Flat(builder) => Output::Flat(builder.build()),
            EmitOut::Grouped(acc) => Output::Grouped(resolve_groups(acc, interner)),
        }
    }
}

/// Group-keyed shard collection preserving first-seen group order (so shard
/// merges reproduce the sequential group discovery order).
#[derive(Default)]
pub(crate) struct GroupedAcc {
    ids: HashMap<Box<[u32]>, u32>,
    pub(crate) entries: Vec<(Box<[u32]>, IdProfileBuilder)>,
}

impl GroupedAcc {
    pub(crate) fn builder(&mut self, key: &[u32]) -> &mut IdProfileBuilder {
        if let Some(&i) = self.ids.get(key) {
            return &mut self.entries[i as usize].1;
        }
        let key: Box<[u32]> = key.into();
        self.ids.insert(key.clone(), self.entries.len() as u32);
        self.entries.push((key, IdProfileBuilder::new()));
        &mut self.entries.last_mut().expect("just pushed").1
    }

    pub(crate) fn merge(&mut self, shard: GroupedAcc) -> Result<(), EngineError> {
        for (key, b) in shard.entries {
            self.builder(&key).merge(b)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The reference executor (pre-columnar row-at-a-time path).
// ---------------------------------------------------------------------------

/// Evaluates via the original single-threaded row-at-a-time executor
/// (`Vec<Value>` bindings, value-keyed hash indexes). Kept as the
/// differential-testing oracle and the baseline the `join_exec` benchmark
/// measures against.
pub fn profile_reference(
    schema: &Schema,
    instance: &Instance,
    query: &Query,
) -> Result<(QueryProfile, ExecStats), EngineError> {
    let q = complete_query(schema, query)?;
    let nvars = q.num_vars();
    let private_vars = private_key_vars(schema, &q)?;
    let (bindings, peak_bindings) = join_rows(schema, instance, &q, nvars)?;
    let mut builder: ProfileBuilder<PrivateKey, Tuple> = ProfileBuilder::new();
    let mut surviving = 0usize;
    for binding in &bindings {
        if !q.predicate.eval(binding) {
            continue;
        }
        let w = q.aggregate.weight(binding);
        if w == 0.0 {
            continue;
        }
        surviving += 1;
        let refs = private_vars.iter().map(|&(pidx, var)| (pidx, binding[var as usize].clone()));
        match &q.projection {
            None => {
                builder.add_result(w, refs);
            }
            Some(proj) => {
                let key: Tuple = proj.iter().map(|&v| binding[v as usize].clone()).collect();
                builder.add_projected_result(key, w, w, refs)?;
            }
        }
    }
    let stats = ExecStats {
        peak_bindings,
        interned_values: 0,
        surviving_results: surviving,
        peak_resident_bytes: peak_bindings * nvars * std::mem::size_of::<Value>(),
    };
    Ok((builder.build(), stats))
}

/// Group-by evaluation via the reference executor; same output contract as
/// [`profile_grouped`] (canonically key-sorted groups).
pub fn profile_grouped_reference(
    schema: &Schema,
    instance: &Instance,
    query: &Query,
    group_vars: &[Var],
) -> Result<Vec<(Tuple, QueryProfile)>, EngineError> {
    let q = complete_query(schema, query)?;
    let nvars = q.num_vars();
    for &v in group_vars {
        if (v as usize) >= nvars {
            return Err(EngineError::MalformedQuery(format!(
                "group-by variable {v} not bound by the join"
            )));
        }
    }
    let private_vars = private_key_vars(schema, &q)?;
    let (bindings, _) = join_rows(schema, instance, &q, nvars)?;
    let mut ids: HashMap<Tuple, usize> = HashMap::new();
    let mut entries: Vec<(Tuple, ProfileBuilder<PrivateKey, Tuple>)> = Vec::new();
    for binding in &bindings {
        if !q.predicate.eval(binding) {
            continue;
        }
        let w = q.aggregate.weight(binding);
        if w == 0.0 {
            continue;
        }
        let key: Tuple = group_vars.iter().map(|&v| binding[v as usize].clone()).collect();
        let idx = match ids.get(&key) {
            Some(&i) => i,
            None => {
                let i = entries.len();
                ids.insert(key.clone(), i);
                entries.push((key, ProfileBuilder::new()));
                i
            }
        };
        let builder = &mut entries[idx].1;
        let refs = private_vars.iter().map(|&(pidx, var)| (pidx, binding[var as usize].clone()));
        match &q.projection {
            None => {
                builder.add_result(w, refs);
            }
            Some(proj) => {
                let pkey: Tuple = proj.iter().map(|&v| binding[v as usize].clone()).collect();
                builder.add_projected_result(pkey, w, w, refs)?;
            }
        }
    }
    let mut out: Vec<(Tuple, QueryProfile)> =
        entries.into_iter().map(|(key, b)| (key, b.build())).collect();
    out.sort_by(|(a, _), (b, _)| cmp_tuples(a, b));
    Ok(out)
}

/// Computes all join bindings (dense variable assignments) row-at-a-time,
/// returning the bindings and the peak materialized binding count.
fn join_rows(
    schema: &Schema,
    instance: &Instance,
    q: &Query,
    nvars: usize,
) -> Result<(Vec<Vec<Value>>, usize), EngineError> {
    if q.atoms.is_empty() {
        return Ok((Vec::new(), 0));
    }
    // Validate relations and collect sizes.
    let mut sizes = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        schema.relation(&atom.relation)?;
        sizes.push(instance.rows(&atom.relation).len());
    }
    let order = greedy_order(q, &sizes, nvars);

    // Seed with the first atom.
    let sentinel = Value::Int(i64::MIN);
    let mut partials: Vec<Vec<Value>> = Vec::new();
    let mut bound_now = vec![false; nvars];
    {
        let atom = &q.atoms[order[0]];
        for row in instance.rows(&atom.relation) {
            if let Some(b) = bind_tuple(&vec![sentinel.clone(); nvars], &bound_now, atom, row) {
                partials.push(b);
            }
        }
        for &v in &atom.vars {
            bound_now[v as usize] = true;
        }
    }
    let mut peak = partials.len();

    for &ai in &order[1..] {
        let atom = &q.atoms[ai];
        let rows = instance.rows(&atom.relation);
        // Key positions: columns whose variable is already bound (first
        // occurrence per variable).
        let mut key_vars: Vec<(usize, Var)> = Vec::new(); // (col, var)
        let mut seen = Vec::new();
        for (col, &v) in atom.vars.iter().enumerate() {
            if bound_now[v as usize] && !seen.contains(&v) {
                key_vars.push((col, v));
                seen.push(v);
            }
        }
        // Build a hash index on those columns.
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (ri, row) in rows.iter().enumerate() {
            let key: Vec<Value> = key_vars.iter().map(|&(c, _)| row[c].clone()).collect();
            index.entry(key).or_default().push(ri);
        }
        let mut next_partials = Vec::new();
        for p in &partials {
            let key: Vec<Value> = key_vars.iter().map(|&(_, v)| p[v as usize].clone()).collect();
            if let Some(matches) = index.get(&key) {
                for &ri in matches {
                    if let Some(b) = bind_tuple(p, &bound_now, atom, &rows[ri]) {
                        next_partials.push(b);
                    }
                }
            }
        }
        partials = next_partials;
        peak = peak.max(partials.len());
        for &v in &atom.vars {
            bound_now[v as usize] = true;
        }
    }
    Ok((partials, peak))
}

/// Extends a partial binding with a tuple; `None` on conflict (repeated
/// variables must agree).
fn bind_tuple(partial: &[Value], bound: &[bool], atom: &Atom, row: &Tuple) -> Option<Vec<Value>> {
    let mut out = partial.to_vec();
    let mut newly: Vec<Var> = Vec::with_capacity(atom.vars.len());
    for (col, &v) in atom.vars.iter().enumerate() {
        let vi = v as usize;
        if bound[vi] || newly.contains(&v) {
            if out[vi] != row[col] {
                return None;
            }
        } else {
            out[vi] = row[col].clone();
            newly.push(v);
        }
    }
    Some(out)
}

/// A deliberately naive nested-loop evaluator used as a test oracle.
pub fn evaluate_bruteforce(
    schema: &Schema,
    instance: &Instance,
    query: &Query,
) -> Result<f64, EngineError> {
    let q = complete_query(schema, query)?;
    let nvars = q.num_vars();
    let sentinel = Value::Int(i64::MIN);
    let mut bindings: Vec<Vec<Value>> = vec![vec![sentinel; nvars]];
    let mut bound = vec![false; nvars];
    for atom in &q.atoms {
        schema.relation(&atom.relation)?;
        let rows = instance.rows(&atom.relation);
        let mut next = Vec::new();
        for b in &bindings {
            for row in rows {
                if let Some(nb) = bind_tuple(b, &bound, atom, row) {
                    next.push(nb);
                }
            }
        }
        bindings = next;
        for &v in &atom.vars {
            bound[v as usize] = true;
        }
    }
    let mut total = 0.0;
    let mut seen: std::collections::HashSet<Tuple> = std::collections::HashSet::new();
    for b in &bindings {
        if !q.predicate.eval(b) {
            continue;
        }
        let w = q.aggregate.weight(b);
        match &q.projection {
            None => total += w,
            Some(proj) => {
                let key: Tuple = proj.iter().map(|&v| b[v as usize].clone()).collect();
                if seen.insert(key) {
                    total += w;
                }
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{atom, CmpOp, Expr, Predicate, Query};
    use crate::schema::{graph_schema_node_dp, Schema};

    fn triangle_plus_star() -> (Schema, Instance) {
        // Triangle 0-1-2 and a star center 3 with leaves 4,5,6.
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..7).map(|i| vec![Value::Int(i)]));
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6)] {
            edges.push(vec![Value::Int(a), Value::Int(b)]);
            edges.push(vec![Value::Int(b), Value::Int(a)]);
        }
        inst.insert_all("Edge", edges);
        (s, inst)
    }

    #[test]
    fn edge_count_with_predicate() {
        let (s, inst) = triangle_plus_star();
        // Undirected edges counted once: src < dst.
        let q = Query::count(vec![atom("Edge", &[0, 1])]).with_predicate(Predicate::cmp_vars(
            0,
            CmpOp::Lt,
            1,
        ));
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 6.0);
    }

    #[test]
    fn lineage_tracks_both_endpoints() {
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1])]).with_predicate(Predicate::cmp_vars(
            0,
            CmpOp::Lt,
            1,
        ));
        let p = profile(&s, &inst, &q).unwrap();
        assert_eq!(p.results.len(), 6);
        assert!(p.results.iter().all(|r| r.refs.len() == 2));
        // Star center has sensitivity 3; triangle nodes 2; leaves 1.
        let mut sens = p.sensitivities();
        sens.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sens, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn triangle_count_via_self_join() {
        let (s, inst) = triangle_plus_star();
        let q =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])])
                .with_predicate(Predicate::And(vec![
                    Predicate::cmp_vars(0, CmpOp::Lt, 1),
                    Predicate::cmp_vars(1, CmpOp::Lt, 2),
                ]));
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 1.0);
    }

    #[test]
    fn matches_bruteforce_on_patterns() {
        let (s, inst) = triangle_plus_star();
        // Length-2 paths (ordered, center distinct ends).
        let q = Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])])
            .with_predicate(Predicate::cmp_vars(0, CmpOp::Lt, 2));
        let fast = evaluate(&s, &inst, &q).unwrap();
        let slow = evaluate_bruteforce(&s, &inst, &q).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn sum_aggregate() {
        // Sum of dst over all edges from node 3.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1])])
            .with_predicate(Predicate::cmp_const(0, CmpOp::Eq, Value::Int(3)))
            .with_sum(Expr::Var(1));
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 15.0);
    }

    #[test]
    fn projection_removes_duplicates() {
        // Distinct sources with any outgoing edge.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1])]).with_projection(vec![0]);
        // All 7 nodes have at least one incident (directed) edge.
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 7.0);
        let brute = evaluate_bruteforce(&s, &inst, &q).unwrap();
        assert_eq!(brute, 7.0);
        let p = profile(&s, &inst, &q).unwrap();
        assert_eq!(p.groups.as_ref().unwrap().len(), 7);
        assert_eq!(p.results.len(), 12);
    }

    #[test]
    fn empty_instance_yields_zero() {
        let s = graph_schema_node_dp();
        let inst = Instance::new();
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 0.0);
        let p = profile(&s, &inst, &q).unwrap();
        assert_eq!(p.num_private, 0);
        assert!(p.results.is_empty());
    }

    #[test]
    fn zero_variable_queries_match_the_reference_on_rows_and_archives() {
        // Relations without columns: every row is the empty tuple, so these
        // queries bind no variable and count row combinations.
        let mut s = Schema::new();
        for name in ["Flag", "Mark", "Void"] {
            s.add_relation(name, &[], None, &[]).unwrap();
        }
        let mut inst = Instance::new();
        inst.insert_all("Flag", (0..3).map(|_| Vec::new()));
        inst.insert_all("Mark", (0..2).map(|_| Vec::new()));
        let path =
            std::env::temp_dir().join(format!("r2t-exec-zero-vars-{}.r2t", std::process::id()));
        crate::storage::write_archive(&s, &inst, &path).unwrap();
        let archive = crate::storage::Archive::open(&s, &path).unwrap();
        let flag_mark = || vec![atom("Flag", &[]), atom("Mark", &[])];
        let queries = [
            Query::count(vec![atom("Flag", &[])]),
            Query::count(flag_mark()),
            Query::count(flag_mark()).with_projection(vec![]),
            Query::count(vec![atom("Flag", &[]), atom("Void", &[])]),
        ];
        // Equal profiles whose weights also agree bit for bit.
        let same = |got: &QueryProfile, want: &QueryProfile| {
            assert_eq!(got, want);
            let bits = |p: &QueryProfile| -> Vec<u64> {
                let groups = p.groups.iter().flatten().map(|g| g.weight);
                p.results.iter().map(|r| r.weight).chain(groups).map(f64::to_bits).collect()
            };
            assert_eq!(bits(got), bits(want));
        };
        let opts = ExecOptions::default();
        for q in &queries {
            let (want, _) = profile_reference(&s, &inst, q).unwrap();
            let want_grouped = profile_grouped_reference(&s, &inst, q, &[]).unwrap();
            for src in [Source::Rows(&inst), Source::Archive(&archive)] {
                let (got, _) = profile_with_stats_src(&s, src, q, &opts).unwrap();
                same(&got, &want);
                let (grouped, _) = profile_grouped_with_stats_src(&s, src, q, &[], &opts).unwrap();
                assert_eq!(grouped.len(), want_grouped.len());
                for ((key, got), (want_key, want)) in grouped.iter().zip(&want_grouped) {
                    assert_eq!(key, want_key);
                    same(got, want);
                }
            }
        }
        assert_eq!(profile(&s, &inst, &queries[1]).unwrap().query_result(), 6.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cartesian_product_when_forced() {
        // Node(A) x Node(B): no shared variables.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Node", &[0]), atom("Node", &[1])]);
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 49.0);
    }

    #[test]
    fn repeated_variable_within_atom() {
        // Self-loops only: Edge(A, A). None exist.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 0])]);
        assert_eq!(evaluate(&s, &inst, &q).unwrap(), 0.0);
    }

    /// Queries exercising every executor feature on the shared fixture.
    fn fixture_queries() -> Vec<Query> {
        vec![
            Query::count(vec![atom("Edge", &[0, 1])]),
            Query::count(vec![atom("Edge", &[0, 1])]).with_predicate(Predicate::cmp_vars(
                0,
                CmpOp::Lt,
                1,
            )),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])])
                .with_predicate(Predicate::cmp_vars(0, CmpOp::Ne, 2)),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])]),
            Query::count(vec![atom("Edge", &[0, 1])]).with_sum(Expr::Var(1)),
            Query::count(vec![atom("Edge", &[0, 1])]).with_projection(vec![0]),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])])
                .with_projection(vec![0, 2]),
            Query::count(vec![atom("Node", &[0]), atom("Node", &[1])]),
        ]
    }

    #[test]
    fn columnar_matches_reference() {
        let (s, inst) = triangle_plus_star();
        for q in fixture_queries() {
            let fast = profile(&s, &inst, &q).unwrap();
            let (slow, _) = profile_reference(&s, &inst, &q).unwrap();
            assert_eq!(fast, slow, "{q:?}");
        }
    }

    #[test]
    fn parallel_profiles_are_deterministic() {
        let (s, inst) = triangle_plus_star();
        for q in fixture_queries() {
            let mut runs = Vec::new();
            for workers in [1, 2, 5] {
                let opts = ExecOptions {
                    workers: Some(workers),
                    parallel_threshold: 1,
                    ..ExecOptions::default()
                };
                runs.push(profile_with_stats_src(&s, Source::Rows(&inst), &q, &opts).unwrap().0);
            }
            assert_eq!(runs[0], runs[1], "{q:?}");
            assert_eq!(runs[0], runs[2], "{q:?}");
            // And the forced-parallel profile equals the default one.
            assert_eq!(runs[0], profile(&s, &inst, &q).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn inconsistent_projected_weight_rejected() {
        // SUM(dst) projected onto src: node 0 has edges to 1 and 2, so the
        // "group weight" differs across members — malformed by Section 7.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1])])
            .with_sum(Expr::Var(1))
            .with_projection(vec![0]);
        let err = profile(&s, &inst, &q).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentGroupWeight { .. }), "{err}");
        let err = profile_reference(&s, &inst, &q).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentGroupWeight { .. }), "{err}");
    }

    #[test]
    fn stats_report_peak_and_interning() {
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])]);
        let (_, stats) =
            profile_with_stats_src(&s, Source::Rows(&inst), &q, &ExecOptions::default()).unwrap();
        assert!(stats.peak_bindings > 0);
        // 7 node ids; every edge value is a node id, so nothing more.
        assert_eq!(stats.interned_values, 7);
        assert!(stats.surviving_results > 0);
        let (_, ref_stats) = profile_reference(&s, &inst, &q).unwrap();
        assert_eq!(ref_stats.surviving_results, stats.surviving_results);
    }

    #[test]
    fn pushdown_bounds_peak_bindings_by_the_filtered_join() {
        // Out-edges of the star center. Completion adds Node(0) and Node(1);
        // the pipeline runs Node(0), Edge(0, 1), Node(1). With the condition
        // checked before the join, the Edge stage holds only the 3 filtered
        // bindings instead of all 12 directed edges.
        let (s, inst) = triangle_plus_star();
        let q = Query::count(vec![atom("Edge", &[0, 1])]).with_predicate(Predicate::cmp_const(
            0,
            CmpOp::Eq,
            Value::Int(3),
        ));
        for stream_block in [None, Some(2)] {
            let opts = ExecOptions { stream_block, ..ExecOptions::default() };
            let (p, stats) = profile_with_stats_src(&s, Source::Rows(&inst), &q, &opts).unwrap();
            assert_eq!(stats.surviving_results, 3);
            assert_eq!(stats.peak_bindings, 3, "peak is the filtered join's size");
            assert_eq!(p, profile_reference(&s, &inst, &q).unwrap().0);
        }
    }
}

#[cfg(test)]
mod grouped_tests {
    use super::*;
    use crate::query::{atom, Query};
    use crate::schema::graph_schema_node_dp;

    #[test]
    fn grouped_profile_partitions_results() {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..4).map(|i| vec![Value::Int(i)]));
        // Out-edges: node 0 has 2, node 1 has 1.
        inst.insert_all(
            "Edge",
            [(0, 1), (0, 2), (1, 2)].map(|(a, b)| vec![Value::Int(a), Value::Int(b)]),
        );
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        let groups = profile_grouped(&s, &inst, &q, &[0]).unwrap();
        assert_eq!(groups.len(), 2);
        let total: f64 = groups.iter().map(|(_, p)| p.query_result()).sum();
        assert_eq!(total, 3.0);
        // Each group's lineage is self-contained.
        for (key, p) in &groups {
            assert_eq!(key.len(), 1);
            assert!(p.results.iter().all(|r| r.refs.len() == 2));
        }
    }

    #[test]
    fn grouped_totals_match_ungrouped() {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..6).map(|i| vec![Value::Int(i)]));
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)] {
            edges.push(vec![Value::Int(a), Value::Int(b)]);
        }
        inst.insert_all("Edge", edges);
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        let total = profile(&s, &inst, &q).unwrap().query_result();
        let grouped: f64 = profile_grouped(&s, &inst, &q, &[0])
            .unwrap()
            .iter()
            .map(|(_, p)| p.query_result())
            .sum();
        assert_eq!(total, grouped);
    }

    #[test]
    fn bad_group_var_rejected() {
        let s = graph_schema_node_dp();
        let inst = Instance::new();
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        assert!(profile_grouped(&s, &inst, &q, &[99]).is_err());
    }

    #[test]
    fn grouped_columnar_matches_reference_and_is_deterministic() {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..8).map(|i| vec![Value::Int(i)]));
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 5)] {
            edges.push(vec![Value::Int(a), Value::Int(b)]);
            edges.push(vec![Value::Int(b), Value::Int(a)]);
        }
        inst.insert_all("Edge", edges);
        for q in [
            Query::count(vec![atom("Edge", &[0, 1])]),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])]),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])])
                .with_projection(vec![0, 2]),
        ] {
            let reference = profile_grouped_reference(&s, &inst, &q, &[0]).unwrap();
            let fast = profile_grouped(&s, &inst, &q, &[0]).unwrap();
            assert_eq!(fast, reference, "{q:?}");
            let opts =
                ExecOptions { workers: Some(4), parallel_threshold: 1, ..ExecOptions::default() };
            let forced =
                profile_grouped_with_stats_src(&s, Source::Rows(&inst), &q, &[0], &opts).unwrap().0;
            assert_eq!(forced, reference, "{q:?}");
        }
    }

    #[test]
    fn group_output_is_sorted_by_canonical_key_order() {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..12).map(|i| vec![Value::Int(i)]));
        inst.insert_all(
            "Edge",
            [(10, 1), (2, 3), (7, 4)].map(|(a, b)| vec![Value::Int(a), Value::Int(b)]),
        );
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        let groups = profile_grouped(&s, &inst, &q, &[0]).unwrap();
        let keys: Vec<i64> = groups.iter().map(|(k, _)| k[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![2, 7, 10], "numeric order, not display order");
    }
}
