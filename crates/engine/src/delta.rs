//! Typed mutations and incremental view maintenance.
//!
//! This module is the engine half of the live-update story. Instead of
//! rebuilding an [`Instance`] (and re-deriving every lineage profile) on each
//! base-table change, callers describe changes as a [`WriteBatch`] of
//! per-relation insert/delete tuple sets, resolve it against the current
//! instance into a [`ResolvedWrite`], check referential integrity in
//! O(batch) with an [`IntegrityIndex`], and propagate the delta through any
//! number of [`IncrementalView`]s — each of which re-derives *only the join
//! bindings that touch changed rows* and can then replay a [`QueryProfile`]
//! that is **bit-identical** to a from-scratch rebuild on the post-write
//! instance.
//!
//! ## Why the replay is bit-identical
//!
//! The columnar executor ([`crate::exec`]) emits surviving bindings in the
//! lexicographic order of per-stage row indices along its greedy pipeline
//! order, and builds the profile by feeding that stream through an
//! [`IdProfileBuilder`]. An [`IncrementalView`] stores one record per
//! surviving binding, keyed by its *trail* — the persistent row id at each
//! pipeline position. Persistent ids are assigned append-only and deletes
//! compact the live set in place, so live ids in ascending order correspond
//! exactly to the rebuilt instance's row order; sorting records by trail
//! therefore reconstructs the executor's emission order, and replaying them
//! through a fresh [`IdProfileBuilder`] (the very type the executor emits
//! into) reproduces its dense-id assignment — and hence the profile —
//! bit for bit. Interned value ids never appear in a profile, only their
//! equality pattern does, so the view's own append-only [`Interner`] is
//! interchangeable with the executor's. A view built from an interned image
//! ([`IncrementalView::from_archive`]) starts from a clone of the image's
//! interner and copies of its columns, so it skips re-interning rows.
//!
//! ## Memory model
//!
//! Views accrete: deleted rows are tombstoned (their column ids and interner
//! entries are retained) and the interner only grows. This is the standard
//! trade of incremental maintenance — bounded per-apply work in exchange for
//! storage proportional to the *history* of the relation, not its live size.
//! Rebuild the view (or the owning snapshot) to compact.

use crate::complete::complete_query;
use crate::exec::{greedy_order, needed_value_vars, private_key_vars, resolve_groups, GroupedAcc};
use crate::instance::Instance;
use crate::interner::{ColumnarTable, Interner};
use crate::lineage::{pack_private_key, IdProfileBuilder, QueryProfile};
use crate::query::{join_is_acyclic, Query, Var};
use crate::schema::Schema;
use crate::storage::Archive;
use crate::value::{Tuple, Value};
use crate::EngineError;
use std::collections::{HashMap, HashSet, VecDeque};

// ---------------------------------------------------------------------------
// WriteBatch: the one typed mutation surface.
// ---------------------------------------------------------------------------

/// A typed set of mutations: per-relation inserts and deletes, or a full
/// instance replacement. This is the single write surface — CSV import
/// ([`crate::csv::csv_batch`]) and full reloads are expressed as batches too.
///
/// A batch is *unvalidated* until [`WriteBatch::resolve`] checks it against a
/// schema and matches deletes against concrete rows of an instance.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    kind: BatchKind,
}

#[derive(Debug, Clone)]
enum BatchKind {
    Delta(Vec<RelationDelta>),
    Replace(Instance),
}

#[derive(Debug, Clone)]
struct RelationDelta {
    relation: String,
    inserts: Vec<Tuple>,
    deletes: Vec<Tuple>,
}

impl Default for WriteBatch {
    fn default() -> Self {
        WriteBatch::new()
    }
}

impl WriteBatch {
    /// An empty delta batch.
    pub fn new() -> Self {
        WriteBatch { kind: BatchKind::Delta(Vec::new()) }
    }

    /// A full-replacement batch: the entire instance is swapped for
    /// `instance` (the compatibility shape of the old `reload`).
    pub fn replace(instance: Instance) -> Self {
        WriteBatch { kind: BatchKind::Replace(instance) }
    }

    fn delta_mut(&mut self, relation: &str) -> &mut RelationDelta {
        let BatchKind::Delta(deltas) = &mut self.kind else {
            panic!("cannot add per-relation deltas to a replace batch");
        };
        match deltas.iter().position(|d| d.relation == relation) {
            Some(i) => &mut deltas[i],
            None => {
                deltas.push(RelationDelta {
                    relation: relation.to_string(),
                    inserts: Vec::new(),
                    deletes: Vec::new(),
                });
                deltas.last_mut().expect("just pushed")
            }
        }
    }

    /// Stages one tuple for insertion into `relation`.
    ///
    /// # Panics
    /// On a [`WriteBatch::replace`] batch, which carries no per-relation
    /// deltas.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> &mut Self {
        self.delta_mut(relation).inserts.push(tuple);
        self
    }

    /// Stages tuples for insertion into `relation`.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        relation: &str,
        tuples: I,
    ) -> &mut Self {
        self.delta_mut(relation).inserts.extend(tuples);
        self
    }

    /// Stages one tuple for deletion from `relation`. Each staged delete
    /// consumes one matching pre-batch row; deleting the same tuple twice
    /// requires two matching rows.
    pub fn delete(&mut self, relation: &str, tuple: Tuple) -> &mut Self {
        self.delta_mut(relation).deletes.push(tuple);
        self
    }

    /// Stages tuples for deletion from `relation`.
    pub fn delete_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        relation: &str,
        tuples: I,
    ) -> &mut Self {
        self.delta_mut(relation).deletes.extend(tuples);
        self
    }

    /// Whether this is a full-replacement batch.
    pub fn is_replace(&self) -> bool {
        matches!(self.kind, BatchKind::Replace(_))
    }

    /// Whether the batch stages no mutations at all (a replace batch is
    /// never empty — it replaces, even with an empty instance).
    pub fn is_empty(&self) -> bool {
        match &self.kind {
            BatchKind::Delta(ds) => ds.iter().all(|d| d.inserts.is_empty() && d.deletes.is_empty()),
            BatchKind::Replace(_) => false,
        }
    }

    /// Whether any deletes are staged. Resolving an insert-only batch never
    /// consults the instance's rows, so callers with deferred materialization
    /// can pass an empty instance to [`WriteBatch::resolve`] when this is
    /// `false`.
    pub fn has_deletes(&self) -> bool {
        match &self.kind {
            BatchKind::Delta(ds) => ds.iter().any(|d| !d.deletes.is_empty()),
            BatchKind::Replace(_) => false,
        }
    }

    /// Validates the batch against `schema` and matches staged deletes
    /// against concrete rows of `instance`, producing a [`ResolvedWrite`].
    ///
    /// Checks performed here: relation names exist, tuple arities match, and
    /// every staged delete finds a distinct pre-batch row (equal tuples are
    /// claimed lowest-index first; a miss is
    /// [`EngineError::MissingDeleteTarget`]). Referential integrity is a
    /// separate, instance-wide concern — see [`IntegrityIndex::check`].
    ///
    /// `instance` is consulted *only* for delete matching (see
    /// [`WriteBatch::has_deletes`]); a replace batch ignores it entirely.
    pub fn resolve(
        self,
        schema: &Schema,
        instance: &Instance,
    ) -> Result<ResolvedWrite, EngineError> {
        match self.kind {
            BatchKind::Replace(inst) => Ok(ResolvedWrite { kind: ResolvedKind::Replace(inst) }),
            BatchKind::Delta(deltas) => {
                let mut out = Vec::with_capacity(deltas.len());
                for d in deltas {
                    let rel = schema.relation(&d.relation)?;
                    for t in d.inserts.iter().chain(d.deletes.iter()) {
                        if t.len() != rel.arity() {
                            return Err(EngineError::ArityMismatch {
                                relation: d.relation.clone(),
                                expected: rel.arity(),
                                got: t.len(),
                            });
                        }
                    }
                    let mut delete_ranks = Vec::with_capacity(d.deletes.len());
                    if !d.deletes.is_empty() {
                        let rows = instance.rows(&d.relation);
                        let mut by_tuple: HashMap<&Tuple, VecDeque<usize>> = HashMap::new();
                        for (i, row) in rows.iter().enumerate() {
                            by_tuple.entry(row).or_default().push_back(i);
                        }
                        for t in &d.deletes {
                            match by_tuple.get_mut(t).and_then(|q| q.pop_front()) {
                                Some(i) => delete_ranks.push(i),
                                None => {
                                    return Err(EngineError::MissingDeleteTarget {
                                        relation: d.relation.clone(),
                                        tuple: format_tuple(t),
                                    })
                                }
                            }
                        }
                        delete_ranks.sort_unstable();
                    }
                    let rows = instance.rows(&d.relation);
                    let deleted_rows = delete_ranks.iter().map(|&i| rows[i].clone()).collect();
                    out.push(ResolvedDelta {
                        relation: d.relation,
                        delete_ranks,
                        deleted_rows,
                        inserts: d.inserts,
                    });
                }
                Ok(ResolvedWrite { kind: ResolvedKind::Delta(out) })
            }
        }
    }
}

fn format_tuple(t: &[Value]) -> String {
    let fields: Vec<String> = t.iter().map(|v| v.to_string()).collect();
    format!("({})", fields.join(", "))
}

// ---------------------------------------------------------------------------
// ResolvedWrite: a batch pinned to concrete rows.
// ---------------------------------------------------------------------------

/// One relation's resolved delta: deletes as sorted pre-batch row ranks
/// (with the matched rows retained for integrity checking), inserts in
/// staging order.
#[derive(Debug, Clone)]
pub struct ResolvedDelta {
    relation: String,
    delete_ranks: Vec<usize>,
    deleted_rows: Vec<Tuple>,
    inserts: Vec<Tuple>,
}

impl ResolvedDelta {
    /// The relation this delta mutates.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Sorted pre-batch row indices to delete.
    pub fn delete_ranks(&self) -> &[usize] {
        &self.delete_ranks
    }

    /// The deleted rows, aligned with [`ResolvedDelta::delete_ranks`].
    pub fn deleted_rows(&self) -> &[Tuple] {
        &self.deleted_rows
    }

    /// Rows to append, in staging order.
    pub fn inserts(&self) -> &[Tuple] {
        &self.inserts
    }

    /// Whether this delta stages no mutations.
    pub fn is_empty(&self) -> bool {
        self.delete_ranks.is_empty() && self.inserts.is_empty()
    }
}

/// A [`WriteBatch`] resolved against a concrete instance state: deletes are
/// pinned to row indices, so application is deterministic — survivors keep
/// their relative order and inserts append.
#[derive(Debug, Clone)]
pub struct ResolvedWrite {
    kind: ResolvedKind,
}

#[derive(Debug, Clone)]
enum ResolvedKind {
    Delta(Vec<ResolvedDelta>),
    Replace(Instance),
}

impl ResolvedWrite {
    /// Whether this is a full replacement.
    pub fn is_replace(&self) -> bool {
        matches!(self.kind, ResolvedKind::Replace(_))
    }

    /// Consumes a replace write into its instance.
    pub fn into_replace(self) -> Option<Instance> {
        match self.kind {
            ResolvedKind::Replace(inst) => Some(inst),
            ResolvedKind::Delta(_) => None,
        }
    }

    /// The per-relation deltas (empty for a replace write).
    pub fn deltas(&self) -> &[ResolvedDelta] {
        match &self.kind {
            ResolvedKind::Delta(ds) => ds,
            ResolvedKind::Replace(_) => &[],
        }
    }

    /// Names of relations with a non-empty delta (empty for replace — a
    /// replace invalidates everything regardless).
    pub fn touched(&self) -> Vec<&str> {
        self.deltas().iter().filter(|d| !d.is_empty()).map(|d| d.relation()).collect()
    }

    /// Applies the write in place: per relation, survivors keep their
    /// relative order, then inserts append in staging order.
    pub fn apply_mut(&self, instance: &mut Instance) {
        match &self.kind {
            ResolvedKind::Replace(inst) => *instance = inst.clone(),
            ResolvedKind::Delta(deltas) => {
                for d in deltas {
                    let rows = instance.table_mut(&d.relation);
                    if !d.delete_ranks.is_empty() {
                        let mut keep = 0usize;
                        let mut di = 0usize;
                        for i in 0..rows.len() {
                            if di < d.delete_ranks.len() && d.delete_ranks[di] == i {
                                di += 1;
                                continue;
                            }
                            if keep != i {
                                rows.swap(keep, i);
                            }
                            keep += 1;
                        }
                        rows.truncate(keep);
                    }
                    rows.extend(d.inserts.iter().cloned());
                }
            }
        }
    }

    /// [`ResolvedWrite::apply_mut`] on a clone.
    pub fn apply_to(&self, instance: &Instance) -> Instance {
        let mut out = instance.clone();
        self.apply_mut(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// IntegrityIndex: O(batch) referential-integrity checking.
// ---------------------------------------------------------------------------

/// Per-relation primary-key values `(deleted, added)` by a batch.
type PkChurn<'a> = HashMap<&'a str, (HashSet<&'a Value>, HashSet<&'a Value>)>;

/// Incremental referential-integrity state: per-relation primary-key sets
/// plus, per FK edge, how many rows reference each key. Built once from a
/// *validated* instance, then [`IntegrityIndex::check`] prices an entire
/// delta batch in O(batch) — the full `Instance::validate` rescan is only
/// needed for replace writes.
#[derive(Debug, Clone)]
pub struct IntegrityIndex {
    /// Relation -> set of live primary-key values (PK relations only).
    pks: HashMap<String, HashSet<Value>>,
    /// FK edge (referencing relation, column index) -> referenced value ->
    /// count of live referencing rows.
    refs: HashMap<(String, usize), HashMap<Value, u64>>,
}

impl IntegrityIndex {
    /// Builds the index from a validated instance (PK uniqueness and FK
    /// integrity are assumed to already hold).
    pub fn build(schema: &Schema, instance: &Instance) -> Self {
        let mut pks: HashMap<String, HashSet<Value>> = HashMap::new();
        let mut refs: HashMap<(String, usize), HashMap<Value, u64>> = HashMap::new();
        for rel in schema.relations() {
            let rows = instance.rows(&rel.name);
            if let Some(pk) = rel.primary_key {
                pks.insert(rel.name.clone(), rows.iter().map(|t| t[pk].clone()).collect());
            }
            for fk in &rel.foreign_keys {
                let counts = refs.entry((rel.name.clone(), fk.column)).or_default();
                for t in rows {
                    *counts.entry(t[fk.column].clone()).or_insert(0) += 1;
                }
            }
        }
        IntegrityIndex { pks, refs }
    }

    /// Per-relation PK values `(deleted, added)` of the batch. Uniqueness
    /// checks consult raw `deleted` (a delete frees the key for re-insert);
    /// FK liveness consults the *effective* removal `deleted − added` (a
    /// re-inserted key never stops existing).
    fn pk_churn<'a>(
        schema: &Schema,
        deltas: &'a [ResolvedDelta],
    ) -> Result<PkChurn<'a>, EngineError> {
        let mut churn: HashMap<&str, (HashSet<&Value>, HashSet<&Value>)> = HashMap::new();
        for d in deltas {
            let rel = schema.relation(&d.relation)?;
            if let Some(pk) = rel.primary_key {
                let entry = churn.entry(d.relation.as_str()).or_default();
                entry.0.extend(d.deleted_rows.iter().map(|t| &t[pk]));
                entry.1.extend(d.inserts.iter().map(|t| &t[pk]));
            }
        }
        Ok(churn)
    }

    /// Validates a delta batch against the post-write state in O(batch):
    /// inserted PKs must be unique against surviving keys and within the
    /// batch, inserted FK values must reference a post-write key, and every
    /// deleted PK must end the batch with zero referencing rows.
    pub fn check(&self, schema: &Schema, deltas: &[ResolvedDelta]) -> Result<(), EngineError> {
        let churn = Self::pk_churn(schema, deltas)?;

        // Inserted-PK uniqueness against post-write survivors and the batch.
        for d in deltas {
            let rel = schema.relation(&d.relation)?;
            let Some(pk) = rel.primary_key else { continue };
            let live = self.pks.get(&d.relation);
            let (deleted, _) = churn.get(d.relation.as_str()).expect("PK relation has churn");
            let mut batch_added: HashSet<&Value> = HashSet::new();
            for t in &d.inserts {
                let v = &t[pk];
                let survives = live.is_some_and(|s| s.contains(v)) && !deleted.contains(v);
                if survives || !batch_added.insert(v) {
                    return Err(EngineError::DuplicateKey {
                        relation: d.relation.clone(),
                        value: v.to_string(),
                    });
                }
            }
        }

        // Inserted FK values must reference a key live after the batch.
        for d in deltas {
            let rel = schema.relation(&d.relation)?;
            for fk in &rel.foreign_keys {
                let live = self.pks.get(&fk.references);
                let (t_deleted, t_added) = match churn.get(fk.references.as_str()) {
                    Some((del, a)) => (Some(del), Some(a)),
                    None => (None, None),
                };
                for t in &d.inserts {
                    let v = &t[fk.column];
                    // Live post-batch: added by the batch, or pre-existing
                    // and not (effectively) deleted — a re-inserted key
                    // never stops existing.
                    let added_now = t_added.is_some_and(|a| a.contains(v));
                    let deleted_now = t_deleted.is_some_and(|del| del.contains(v));
                    let live_now =
                        added_now || (live.is_some_and(|s| s.contains(v)) && !deleted_now);
                    if !live_now {
                        return Err(EngineError::BrokenForeignKey {
                            relation: d.relation.clone(),
                            column: rel.columns[fk.column].clone(),
                            value: v.to_string(),
                        });
                    }
                }
            }
        }

        // Deleted PKs must not be referenced after the batch. Reference
        // counts are adjusted by the batch's own deletes/inserts per edge.
        for rel in schema.relations() {
            for fk in &rel.foreign_keys {
                let Some((t_deleted, t_added)) = churn.get(fk.references.as_str()) else {
                    continue;
                };
                let t_removed: Vec<&Value> =
                    t_deleted.iter().filter(|v| !t_added.contains(*v)).copied().collect();
                if t_removed.is_empty() {
                    continue;
                }
                let counts = self.refs.get(&(rel.name.clone(), fk.column));
                let mut net: HashMap<&Value, i64> = HashMap::new();
                if let Some(d) = deltas.iter().find(|d| d.relation == rel.name) {
                    for t in &d.deleted_rows {
                        *net.entry(&t[fk.column]).or_insert(0) -= 1;
                    }
                    for t in &d.inserts {
                        *net.entry(&t[fk.column]).or_insert(0) += 1;
                    }
                }
                for &v in t_removed.iter() {
                    let before = counts.and_then(|c| c.get(v)).copied().unwrap_or(0) as i64;
                    if before + net.get(v).copied().unwrap_or(0) != 0 {
                        return Err(EngineError::BrokenForeignKey {
                            relation: rel.name.clone(),
                            column: rel.columns[fk.column].clone(),
                            value: v.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a *checked* batch to the index. Call only after
    /// [`IntegrityIndex::check`] succeeded on the same deltas.
    pub fn commit(&mut self, schema: &Schema, deltas: &[ResolvedDelta]) {
        for d in deltas {
            let Ok(rel) = schema.relation(&d.relation) else { continue };
            if let Some(pk) = rel.primary_key {
                let set = self.pks.entry(d.relation.clone()).or_default();
                for t in &d.deleted_rows {
                    set.remove(&t[pk]);
                }
                for t in &d.inserts {
                    set.insert(t[pk].clone());
                }
            }
            for fk in &rel.foreign_keys {
                let counts = self.refs.entry((d.relation.clone(), fk.column)).or_default();
                for t in &d.deleted_rows {
                    if let Some(c) = counts.get_mut(&t[fk.column]) {
                        *c -= 1;
                        if *c == 0 {
                            counts.remove(&t[fk.column]);
                        }
                    }
                }
                for t in &d.inserts {
                    *counts.entry(t[fk.column].clone()).or_insert(0) += 1;
                }
            }
        }
    }
}

/// Sorted, deduplicated relation names of the query's *completion* — the
/// relations whose mutations can change the query's profile. This is the
/// revalidation scope a cache keys on: a write touching none of these leaves
/// the prepared entry valid as-is.
pub fn query_relations(schema: &Schema, query: &Query) -> Result<Vec<String>, EngineError> {
    let q = complete_query(schema, query)?;
    let mut rels: Vec<String> = q.atoms.iter().map(|a| a.relation.clone()).collect();
    rels.sort_unstable();
    rels.dedup();
    Ok(rels)
}

// ---------------------------------------------------------------------------
// IncrementalView: delta-join maintenance of one query's lineage.
// ---------------------------------------------------------------------------

/// Line-level report of one maintenance step: the join results that
/// disappeared and appeared, each as a `(weight, raw private keys)` pair
/// under the view's stable packed key space (see [`IncrementalView::raw_lines`]).
///
/// When `rebuilt` is set the surviving set was re-derived wholesale (the
/// greedy join order shifted, or a joined relation emptied) and the
/// `removed`/`added` lists are intentionally left empty — they are not
/// meaningful deltas. Consumers holding per-line state must fall back to a
/// full replay in that case.
#[derive(Debug, Default)]
pub struct ProfileChanges {
    /// Lines dropped this step (a deleted row appeared in their trail).
    pub removed: Vec<(f64, Box<[u64]>)>,
    /// Lines newly derived this step.
    pub added: Vec<(f64, Box<[u64]>)>,
    /// The record set was rebuilt from scratch; the lists above are empty.
    pub rebuilt: bool,
}

impl ProfileChanges {
    /// No line changed: the surviving set — and hence any profile replay —
    /// is exactly what it was before the step.
    pub fn is_noop(&self) -> bool {
        !self.rebuilt && self.removed.is_empty() && self.added.is_empty()
    }
}

/// One surviving join binding, keyed by its trail (persistent row id per
/// pipeline position). Everything the profile replay needs is precomputed at
/// emission: weight, packed private-reference keys, and the projection /
/// group key ids under the view's own interner.
#[derive(Debug, Clone)]
struct EmitRecord {
    trail: Box<[u32]>,
    weight: f64,
    /// Packed `(private relation idx, value id)` keys in `private_vars`
    /// order — raw, exactly as the executor feeds its builder.
    refs: Box<[u64]>,
    pkey: Option<Box<[u32]>>,
    gkey: Option<Box<[u32]>>,
}

/// One relation's columnar image under persistent row ids: ids are assigned
/// append-only; deletes tombstone. `live_ids` (ascending) maps the live set
/// onto the corresponding instance's row order.
#[derive(Debug)]
struct DeltaTable {
    arity: usize,
    /// `cols[c][id]` — interned value id of column `c` of persistent row
    /// `id`. Dead rows retain their slots.
    cols: Vec<Vec<u32>>,
    live: Vec<bool>,
    /// Live persistent ids, ascending.
    live_ids: Vec<u32>,
}

impl DeltaTable {
    /// Bulk-loads `relation`'s columns from an image: persistent id `r` is
    /// image row `r`, all live. An absent or empty table loads empty.
    fn from_image(
        relation: &str,
        arity: usize,
        table: Option<&ColumnarTable>,
    ) -> Result<Self, EngineError> {
        let Some(t) = table.filter(|t| t.nrows > 0) else {
            return Ok(DeltaTable {
                arity,
                cols: vec![Vec::new(); arity],
                live: Vec::new(),
                live_ids: Vec::new(),
            });
        };
        if t.cols.len() != arity {
            return Err(EngineError::ArityMismatch {
                relation: relation.to_string(),
                expected: arity,
                got: t.cols.len(),
            });
        }
        // Power-of-two capacity, as appends grow it: the first write's
        // appends then do not reallocate every column.
        let cap = t.nrows.next_power_of_two();
        let copy = |ids: &[u32]| {
            let mut v = Vec::with_capacity(cap);
            v.extend_from_slice(ids);
            v
        };
        let mut live = Vec::with_capacity(cap);
        live.resize(t.nrows, true);
        let mut live_ids = Vec::with_capacity(cap);
        live_ids.extend(0..t.nrows as u32);
        Ok(DeltaTable { arity, cols: t.cols.iter().map(|c| copy(c)).collect(), live, live_ids })
    }

    /// Total ids ever assigned (== next id).
    fn next_id(&self) -> u32 {
        self.live.len() as u32
    }

    /// Live rows whose id is below `threshold` (the pre-delta live count
    /// for a per-apply threshold).
    fn old_count(&self, threshold: u32) -> usize {
        self.live_ids.partition_point(|&id| id < threshold)
    }
}

/// A per-(table, key columns) hash index over *live* persistent row ids,
/// maintained incrementally: inserts append (ids grow, so buckets stay
/// ascending) and deletes remove by binary search.
#[derive(Debug)]
enum DeltaIndex {
    /// 1–2 key columns packed into a `u64`.
    Packed(HashMap<u64, Vec<u32>>),
    /// 3+ key columns.
    Wide(HashMap<Box<[u32]>, Vec<u32>>),
}

impl DeltaIndex {
    fn build(table: &DeltaTable, cols: &[usize]) -> DeltaIndex {
        let mut idx = if cols.len() <= 2 {
            DeltaIndex::Packed(HashMap::new())
        } else {
            DeltaIndex::Wide(HashMap::new())
        };
        for &id in &table.live_ids {
            idx.insert(table, cols, id);
        }
        idx
    }

    fn packed_key(table: &DeltaTable, cols: &[usize], id: u32) -> u64 {
        let mut k = table.cols[cols[0]][id as usize] as u64;
        if cols.len() == 2 {
            k = (k << 32) | table.cols[cols[1]][id as usize] as u64;
        }
        k
    }

    fn insert(&mut self, table: &DeltaTable, cols: &[usize], id: u32) {
        match self {
            DeltaIndex::Packed(map) => {
                map.entry(Self::packed_key(table, cols, id)).or_default().push(id)
            }
            DeltaIndex::Wide(map) => {
                let key: Box<[u32]> = cols.iter().map(|&c| table.cols[c][id as usize]).collect();
                map.entry(key).or_default().push(id)
            }
        }
    }

    fn remove(&mut self, table: &DeltaTable, cols: &[usize], id: u32) {
        let bucket = match self {
            DeltaIndex::Packed(map) => map.get_mut(&Self::packed_key(table, cols, id)),
            DeltaIndex::Wide(map) => {
                let key: Vec<u32> = cols.iter().map(|&c| table.cols[c][id as usize]).collect();
                map.get_mut(key.as_slice())
            }
        };
        if let Some(bucket) = bucket {
            if let Ok(pos) = bucket.binary_search(&id) {
                bucket.remove(pos);
            }
        }
    }

    /// The ascending live ids matching the partial binding's key values.
    fn candidates<'a>(
        &'a self,
        cols_vars: &[Var],
        nb: &[u32],
        keybuf: &mut Vec<u32>,
    ) -> Option<&'a [u32]> {
        match self {
            DeltaIndex::Packed(map) => {
                let mut k = nb[cols_vars[0] as usize] as u64;
                if cols_vars.len() == 2 {
                    k = (k << 32) | nb[cols_vars[1] as usize] as u64;
                }
                map.get(&k).map(Vec::as_slice)
            }
            DeltaIndex::Wide(map) => {
                keybuf.clear();
                keybuf.extend(cols_vars.iter().map(|&v| nb[v as usize]));
                map.get(keybuf.as_slice()).map(Vec::as_slice)
            }
        }
    }
}

/// How one enumeration stage binds its atom's columns against the running
/// partial binding.
#[derive(Debug, Clone)]
struct StageDesc {
    /// Pipeline position (index into the greedy order).
    pos: usize,
    /// Table index.
    table: usize,
    /// `(column, variable, sets)` per atom column: `sets` columns write a
    /// fresh variable; the rest must agree with the bound id.
    binds: Vec<(usize, Var, bool)>,
    /// Canonical (sorted) key columns for the probe index; empty for a
    /// Cartesian probe or the seed stage.
    key_cols: Vec<usize>,
    /// Variable to read from the partial per key column, aligned with
    /// `key_cols`.
    key_vars: Vec<Var>,
    /// Restrict candidates to pre-delta rows (pipeline positions after the
    /// delta stage).
    old_only: bool,
}

/// Incrementally maintained lineage view of one (optionally grouped) query
/// over an instance.
///
/// Construct with [`IncrementalView::from_archive`] over an interned image
/// of the instance, or [`IncrementalView::new`] over its rows (both return
/// `None` for plans the delta pass does not cover: zero-variable queries and
/// cyclic joins, which the caller re-runs through [`crate::exec`]'s WCOJ
/// executor). Feed every applied write
/// through [`IncrementalView::apply`] — the deltas must have been resolved
/// against exactly the instance state the view currently reflects — then
/// replay [`IncrementalView::profile`] / [`IncrementalView::profile_grouped`]
/// at will.
#[derive(Debug)]
pub struct IncrementalView {
    /// The completed query.
    q: Query,
    nvars: usize,
    interner: Interner,
    tables: Vec<DeltaTable>,
    /// Relation name per table (first-appearance order, self-joins share).
    names: Vec<String>,
    /// Atom index -> table index.
    atom_table: Vec<usize>,
    /// Greedy pipeline order over atom indices (recomputed per apply; an
    /// order change triggers a full re-enumeration).
    order: Vec<usize>,
    private_vars: Vec<(u32, Var)>,
    needed_vars: Vec<Var>,
    group_vars: Option<Vec<Var>>,
    /// Surviving bindings sorted by trail (the executor's emission order).
    records: Vec<EmitRecord>,
    /// Probe indexes keyed by (table, canonical key columns).
    indexes: HashMap<(usize, Box<[usize]>), DeltaIndex>,
}

impl IncrementalView {
    /// Builds the view over `instance`: interns the relations the view
    /// joins into an image ([`Archive`]) and bulk-loads it through
    /// [`Self::from_archive`]. `group_vars: None` is the flat profile shape;
    /// `Some(vars)` the grouped one.
    ///
    /// Returns `Ok(None)` when the query has no incremental plan — no
    /// variables or a cyclic join, both WCOJ-executor territory — in which
    /// case the caller falls back to a full re-run.
    pub fn new(
        schema: &Schema,
        instance: &Instance,
        query: &Query,
        group_vars: Option<&[Var]>,
    ) -> Result<Option<Self>, EngineError> {
        let Some(q) = Self::plan(schema, query, group_vars)? else { return Ok(None) };
        let mut relations: Vec<&str> = Vec::new();
        for atom in &q.atoms {
            if !relations.contains(&atom.relation.as_str()) {
                relations.push(&atom.relation);
            }
        }
        let image = Archive::from_relations(instance, &relations);
        Self::load(schema, q, &image, group_vars).map(Some)
    }

    /// Builds the view over an interned image of the instance (an opened
    /// archive or [`Archive::from_instance`]): copies the columns the view
    /// joins, clones the image's interner, and derives every binding in one
    /// delta pass over empty tables — the code path later applies run.
    /// Persistent row ids are image row indices, so `delete_ranks` resolved
    /// against the imaged instance address the same rows.
    ///
    /// Returns `Ok(None)` for the plans [`Self::new`] refuses.
    pub fn from_archive(
        schema: &Schema,
        image: &Archive,
        query: &Query,
        group_vars: Option<&[Var]>,
    ) -> Result<Option<Self>, EngineError> {
        let Some(q) = Self::plan(schema, query, group_vars)? else { return Ok(None) };
        Self::load(schema, q, image, group_vars).map(Some)
    }

    /// The completed query, or `None` when the delta pass does not cover
    /// it (zero variables or a cyclic join).
    fn plan(
        schema: &Schema,
        query: &Query,
        group_vars: Option<&[Var]>,
    ) -> Result<Option<Query>, EngineError> {
        let q = complete_query(schema, query)?;
        let nvars = q.num_vars();
        if let Some(gv) = group_vars {
            for &v in gv {
                if (v as usize) >= nvars {
                    return Err(EngineError::MalformedQuery(format!(
                        "group-by variable {v} not bound by the join"
                    )));
                }
            }
        }
        if nvars == 0 || !join_is_acyclic(&q.atoms) {
            return Ok(None);
        }
        Ok(Some(q))
    }

    /// Loads the planned view's tables from `image` and derives its
    /// bindings: every loaded row is one big insert delta.
    fn load(
        schema: &Schema,
        q: Query,
        image: &Archive,
        group_vars: Option<&[Var]>,
    ) -> Result<Self, EngineError> {
        let private_vars = private_key_vars(schema, &q)?;
        let needed_vars = needed_value_vars(&q);

        let mut names: Vec<String> = Vec::new();
        let mut tables: Vec<DeltaTable> = Vec::new();
        let mut atom_table = Vec::with_capacity(q.atoms.len());
        for atom in &q.atoms {
            let rel = schema.relation(&atom.relation)?;
            let idx = match names.iter().position(|n| n == &atom.relation) {
                Some(i) => i,
                None => {
                    let table = image.table(&atom.relation);
                    tables.push(DeltaTable::from_image(&atom.relation, rel.arity(), table)?);
                    names.push(atom.relation.clone());
                    names.len() - 1
                }
            };
            atom_table.push(idx);
        }

        let mut view = IncrementalView {
            // No plan yet: an empty order differs from every greedy order,
            // so `derive` enumerates all rows as one rebuild and lists no
            // line changes nobody reads.
            order: Vec::new(),
            nvars: q.num_vars(),
            q,
            interner: image.interner().clone(),
            tables,
            names,
            atom_table,
            private_vars,
            needed_vars,
            group_vars: group_vars.map(|gv| gv.to_vec()),
            records: Vec::new(),
            indexes: HashMap::new(),
        };
        let all: Vec<Vec<u32>> = view.tables.iter().map(|t| t.live_ids.clone()).collect();
        view.derive(ProfileChanges::default(), &vec![0; all.len()], &all)?;
        Ok(view)
    }

    /// Relations whose mutations this view must see (sorted).
    pub fn relations(&self) -> Vec<String> {
        let mut names = self.names.clone();
        names.sort_unstable();
        names
    }

    /// Number of surviving join bindings currently held.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// `(weight, raw private keys)` of every surviving join binding, in the
    /// current stored order. Keys are the view's stable packed
    /// `(private relation idx, value id)` identifiers — unlike the dense ids
    /// a [`Self::profile`] replay assigns, they never renumber across
    /// applies, which is what lets a caller maintain per-private-tuple
    /// aggregates against [`ProfileChanges`] without replaying.
    pub fn raw_lines(&self) -> impl Iterator<Item = (f64, &[u64])> + '_ {
        self.records.iter().map(|r| (r.weight, &*r.refs))
    }

    /// Applies one resolved write's deltas. Deltas for relations the view
    /// does not join over are ignored; `delete_ranks` are interpreted
    /// against the instance state the view currently reflects, so the caller
    /// must apply every write exactly once and in order.
    pub fn apply(&mut self, deltas: &[ResolvedDelta]) -> Result<(), EngineError> {
        self.apply_reporting(deltas).map(|_| ())
    }

    /// [`Self::apply`], additionally reporting exactly which result lines
    /// the step removed and added (or that it rebuilt wholesale). The report
    /// is what the serving layer feeds its closed-form branch patcher, so a
    /// small write revalidates a prepared query in `O(delta)` instead of
    /// `O(results)`.
    pub fn apply_reporting(
        &mut self,
        deltas: &[ResolvedDelta],
    ) -> Result<ProfileChanges, EngineError> {
        let mut dels: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut ins: Vec<(usize, &[Tuple])> = Vec::new();
        for d in deltas {
            let Some(t) = self.names.iter().position(|n| n == d.relation()) else { continue };
            for row in d.inserts() {
                if row.len() != self.tables[t].arity {
                    return Err(EngineError::ArityMismatch {
                        relation: d.relation().to_string(),
                        expected: self.tables[t].arity,
                        got: row.len(),
                    });
                }
            }
            let live = &self.tables[t].live_ids;
            let mut ids = Vec::with_capacity(d.delete_ranks().len());
            for &rank in d.delete_ranks() {
                let Some(&id) = live.get(rank) else {
                    return Err(EngineError::MalformedQuery(format!(
                        "delete rank {rank} out of range for {} ({} live rows): the write \
                         was resolved against a different instance state",
                        d.relation(),
                        live.len()
                    )));
                };
                ids.push(id);
            }
            if !ids.is_empty() {
                dels.push((t, ids));
            }
            if !d.inserts().is_empty() {
                ins.push((t, d.inserts()));
            }
        }
        self.step(dels, ins)
    }

    /// One maintenance step: tombstone deletes, drop records touching them,
    /// ingest inserts, then re-derive exactly the bindings that use a new
    /// row (or everything, when the greedy order shifted).
    fn step(
        &mut self,
        dels: Vec<(usize, Vec<u32>)>,
        ins: Vec<(usize, &[Tuple])>,
    ) -> Result<ProfileChanges, EngineError> {
        let mut changes = ProfileChanges::default();
        // Drop every record whose trail touches a deleted row.
        if !dels.is_empty() {
            let mut del_sets: Vec<Option<HashSet<u32>>> = vec![None; self.tables.len()];
            for (t, ids) in &dels {
                del_sets[*t] = Some(ids.iter().copied().collect());
            }
            let trail_tables: Vec<usize> =
                self.order.iter().map(|&ai| self.atom_table[ai]).collect();
            self.records.retain(|r| {
                let dead = r
                    .trail
                    .iter()
                    .zip(&trail_tables)
                    .any(|(&id, &t)| del_sets[t].as_ref().is_some_and(|s| s.contains(&id)));
                if dead {
                    changes.removed.push((r.weight, r.refs.clone()));
                }
                !dead
            });
            // Tombstone and unindex the deleted rows.
            for (t, ids) in &dels {
                for ((it, cols), idx) in self.indexes.iter_mut() {
                    if it == t {
                        for &id in ids {
                            idx.remove(&self.tables[*t], cols, id);
                        }
                    }
                }
                let table = &mut self.tables[*t];
                let del: HashSet<u32> = ids.iter().copied().collect();
                for &id in ids {
                    table.live[id as usize] = false;
                }
                table.live_ids.retain(|id| !del.contains(id));
            }
        }

        // Ingest inserts append-only; per-table thresholds split old from new.
        let thresholds: Vec<u32> = self.tables.iter().map(DeltaTable::next_id).collect();
        let mut delta_ids: Vec<Vec<u32>> = vec![Vec::new(); self.tables.len()];
        for &(t, rows) in &ins {
            for row in rows {
                let table = &mut self.tables[t];
                let id = table.next_id();
                for (c, v) in row.iter().enumerate() {
                    let vid = self.interner.intern(v);
                    table.cols[c].push(vid);
                }
                table.live.push(true);
                table.live_ids.push(id);
                delta_ids[t].push(id);
            }
            for ((it, cols), idx) in self.indexes.iter_mut() {
                if *it == t {
                    for &id in &delta_ids[t] {
                        idx.insert(&self.tables[t], cols, id);
                    }
                }
            }
        }
        self.derive(changes, &thresholds, &delta_ids)
    }

    /// Re-derives the bindings that use a row in `delta_ids` (rows at or
    /// above each table's threshold are new), adding them to `changes`.
    fn derive(
        &mut self,
        mut changes: ProfileChanges,
        thresholds: &[u32],
        delta_ids: &[Vec<u32>],
    ) -> Result<ProfileChanges, EngineError> {
        // Re-plan: a shifted greedy order invalidates stored trails, so the
        // view re-enumerates from scratch (all live rows as one delta over
        // empty base). Size drifts large enough to flip the order are rare
        // under small deltas, and a rebuild is never wrong — only slower.
        let sizes: Vec<usize> =
            self.atom_table.iter().map(|&t| self.tables[t].live_ids.len()).collect();
        if self.tables.iter().any(|t| t.live_ids.is_empty()) {
            // Some joined relation is empty: no bindings survive at all, and
            // greedy_order over a zero size is still fine to keep current.
            // Report a rebuild unless nothing was stored anyway — listing
            // every dropped line would cost O(records) for no consumer.
            if !self.records.is_empty() || !changes.removed.is_empty() {
                changes = ProfileChanges { rebuilt: true, ..Default::default() };
            }
            self.records.clear();
            return Ok(changes);
        }
        let new_order = greedy_order(&self.q, &sizes, self.nvars);
        if new_order != self.order {
            self.order = new_order;
            self.records.clear();
            let all: Vec<Vec<u32>> = self.tables.iter().map(|t| t.live_ids.clone()).collect();
            let rebuilt = self.enumerate(&all, &vec![0; self.tables.len()])?;
            self.records = rebuilt;
            changes = ProfileChanges { rebuilt: true, ..Default::default() };
        } else {
            let fresh = self.enumerate(delta_ids, thresholds)?;
            changes.added.extend(fresh.iter().map(|r| (r.weight, r.refs.clone())));
            self.records.extend(fresh);
        }
        // Trails are unique per binding, so this total order is exactly the
        // executor's emission order on the rebuilt instance.
        self.records.sort_by(|a, b| a.trail.cmp(&b.trail));
        r2t_obs::counter_add("delta.steps", 1);
        r2t_obs::gauge_max("delta.records", self.records.len() as u64);
        Ok(changes)
    }

    /// Runs one delta pass per pipeline position `i` with a non-empty delta:
    /// the pass enumerates every binding whose *highest* pipeline position
    /// using a new row is `i` (position `i` seeds from the delta, earlier
    /// positions probe old∪new, later positions old only). The union over
    /// passes is disjoint and covers exactly the new bindings.
    fn enumerate(
        &mut self,
        delta_ids: &[Vec<u32>],
        thresholds: &[u32],
    ) -> Result<Vec<EmitRecord>, EngineError> {
        let k = self.order.len();
        let mut out: Vec<EmitRecord> = Vec::new();
        for i in 0..k {
            let seed_table = self.atom_table[self.order[i]];
            if delta_ids[seed_table].is_empty() {
                continue;
            }
            // A pass is empty if any later stage has no old rows (initial
            // builds and rebuilds hit this for every i but the last).
            let dead = (i + 1..k).any(|j| {
                let t = self.atom_table[self.order[j]];
                self.tables[t].old_count(thresholds[t]) == 0
            });
            if dead {
                continue;
            }
            let stages = self.pass_stages(i);
            for s in stages.iter().skip(1) {
                if !s.key_cols.is_empty() {
                    let key = (s.table, s.key_cols.clone().into_boxed_slice());
                    self.indexes
                        .entry(key)
                        .or_insert_with(|| DeltaIndex::build(&self.tables[s.table], &s.key_cols));
                }
            }
            self.run_pass(&stages, &delta_ids[seed_table], thresholds, &mut out)?;
        }
        Ok(out)
    }

    /// Enumeration order for the pass seeded at pipeline position `i`:
    /// start at the delta stage, then greedily take the stage sharing the
    /// most bound variables (ties towards smaller tables, then later
    /// pipeline positions) so probes stay connected wherever the join is.
    fn pass_stages(&self, i: usize) -> Vec<StageDesc> {
        let k = self.order.len();
        let mut bound = vec![false; self.nvars];
        let mut picked = vec![false; k];
        let mut seq: Vec<usize> = Vec::with_capacity(k);
        picked[i] = true;
        seq.push(i);
        for &v in &self.q.atoms[self.order[i]].vars {
            bound[v as usize] = true;
        }
        while seq.len() < k {
            let next = (0..k)
                .filter(|&s| !picked[s])
                .max_by_key(|&s| {
                    let atom = &self.q.atoms[self.order[s]];
                    let shared = atom.vars.iter().filter(|&&v| bound[v as usize]).count();
                    let size = self.tables[self.atom_table[self.order[s]]].live_ids.len();
                    (shared, std::cmp::Reverse(size), s)
                })
                .expect("unpicked stage exists");
            picked[next] = true;
            for &v in &self.q.atoms[self.order[next]].vars {
                bound[v as usize] = true;
            }
            seq.push(next);
        }

        // Bind/check roles and probe keys follow the enumeration prefix.
        let mut bound = vec![false; self.nvars];
        let mut stages = Vec::with_capacity(k);
        for (d, &s) in seq.iter().enumerate() {
            let atom = &self.q.atoms[self.order[s]];
            let mut binds = Vec::with_capacity(atom.vars.len());
            let mut key_pairs: Vec<(usize, Var)> = Vec::new();
            let mut seen_here: Vec<Var> = Vec::new();
            for (col, &v) in atom.vars.iter().enumerate() {
                let already = bound[v as usize] || seen_here.contains(&v);
                binds.push((col, v, !already));
                if d > 0 && bound[v as usize] && !seen_here.contains(&v) {
                    key_pairs.push((col, v));
                }
                seen_here.push(v);
            }
            key_pairs.sort_unstable_by_key(|&(c, _)| c);
            for &v in &atom.vars {
                bound[v as usize] = true;
            }
            stages.push(StageDesc {
                pos: s,
                table: self.atom_table[self.order[s]],
                binds,
                key_cols: key_pairs.iter().map(|&(c, _)| c).collect(),
                key_vars: key_pairs.iter().map(|&(_, v)| v).collect(),
                old_only: s > i,
            });
        }
        stages
    }

    /// Depth-first enumeration of one pass over the prepared stages.
    fn run_pass(
        &self,
        stages: &[StageDesc],
        seed: &[u32],
        thresholds: &[u32],
        out: &mut Vec<EmitRecord>,
    ) -> Result<(), EngineError> {
        let mut nb: Vec<u32> = vec![crate::interner::UNBOUND; self.nvars];
        let mut trail: Vec<u32> = vec![0; stages.len()];
        let mut scratch: Vec<Value> = vec![Value::Int(i64::MIN); self.nvars];
        let mut keybuf: Vec<u32> = Vec::new();
        self.dfs(stages, 0, seed, thresholds, &mut nb, &mut trail, &mut scratch, &mut keybuf, out)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        stages: &[StageDesc],
        depth: usize,
        seed: &[u32],
        thresholds: &[u32],
        nb: &mut Vec<u32>,
        trail: &mut Vec<u32>,
        scratch: &mut Vec<Value>,
        keybuf: &mut Vec<u32>,
        out: &mut Vec<EmitRecord>,
    ) -> Result<(), EngineError> {
        if depth == stages.len() {
            self.emit(nb, trail, scratch, out)?;
            return Ok(());
        }
        let stage = &stages[depth];
        let table = &self.tables[stage.table];
        let candidates: &[u32] = if depth == 0 {
            seed
        } else if stage.key_cols.is_empty() {
            &table.live_ids
        } else {
            let idx = self
                .indexes
                .get(&(stage.table, stage.key_cols.clone().into_boxed_slice()))
                .expect("pass indexes are pre-built");
            idx.candidates(&stage.key_vars, nb, keybuf).unwrap_or(&[])
        };
        let candidates = if stage.old_only {
            &candidates[..candidates.partition_point(|&id| id < thresholds[stage.table])]
        } else {
            candidates
        };
        'rows: for &id in candidates {
            for &(col, v, sets) in &stage.binds {
                let vid = table.cols[col][id as usize];
                if sets {
                    nb[v as usize] = vid;
                } else if nb[v as usize] != vid {
                    // Unwind the vars this row already set before moving on.
                    for &(c2, v2, s2) in stage.binds.iter() {
                        if s2 && c2 < col {
                            nb[v2 as usize] = crate::interner::UNBOUND;
                        }
                    }
                    continue 'rows;
                }
            }
            trail[stage.pos] = id;
            self.dfs(stages, depth + 1, seed, thresholds, nb, trail, scratch, keybuf, out)?;
            for &(_, v, sets) in &stage.binds {
                if sets {
                    nb[v as usize] = crate::interner::UNBOUND;
                }
            }
        }
        Ok(())
    }

    /// Emits one complete binding, mirroring the executor's final-stage
    /// emission exactly: resolve needed values, predicate, weight, packed
    /// private refs, projection and group keys.
    fn emit(
        &self,
        nb: &[u32],
        trail: &[u32],
        scratch: &mut [Value],
        out: &mut Vec<EmitRecord>,
    ) -> Result<(), EngineError> {
        for &v in &self.needed_vars {
            scratch[v as usize] = self.interner.resolve(nb[v as usize]).clone();
        }
        if !self.q.predicate.eval(scratch) {
            return Ok(());
        }
        let w = self.q.aggregate.weight(scratch);
        if w == 0.0 {
            return Ok(());
        }
        let refs: Box<[u64]> = self
            .private_vars
            .iter()
            .map(|&(pidx, var)| pack_private_key(pidx, nb[var as usize]))
            .collect();
        let pkey =
            self.q.projection.as_ref().map(|proj| proj.iter().map(|&v| nb[v as usize]).collect());
        let gkey = self.group_vars.as_ref().map(|gv| gv.iter().map(|&v| nb[v as usize]).collect());
        out.push(EmitRecord { trail: trail.into(), weight: w, refs, pkey, gkey });
        Ok(())
    }

    /// Replays the flat profile: records in trail order through a fresh
    /// [`IdProfileBuilder`] — the executor's own emission target — so the
    /// result is bit-identical to `exec::profile` on the rebuilt instance.
    pub fn profile(&self) -> Result<QueryProfile, EngineError> {
        debug_assert!(self.group_vars.is_none(), "grouped view replayed flat");
        let mut b = IdProfileBuilder::new();
        for r in &self.records {
            match &r.pkey {
                None => {
                    b.add_result(r.weight, r.refs.iter().copied());
                }
                Some(pkey) => {
                    b.add_projected_result(pkey, r.weight, r.weight, r.refs.iter().copied())?;
                }
            }
        }
        Ok(b.build())
    }

    /// Replays the grouped profiles, mirroring `exec::profile_grouped`:
    /// groups form in first-seen emission order, then resolve to value
    /// tuples and sort canonically.
    pub fn profile_grouped(&self) -> Result<Vec<(Tuple, QueryProfile)>, EngineError> {
        debug_assert!(self.group_vars.is_some(), "flat view replayed grouped");
        let mut acc = GroupedAcc::default();
        for r in &self.records {
            let gkey = r.gkey.as_deref().unwrap_or(&[]);
            let b = acc.builder(gkey);
            match &r.pkey {
                None => {
                    b.add_result(r.weight, r.refs.iter().copied());
                }
                Some(pkey) => {
                    b.add_projected_result(pkey, r.weight, r.weight, r.refs.iter().copied())?;
                }
            }
        }
        Ok(resolve_groups(acc, &self.interner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::query::atom;
    use crate::schema::graph_schema_node_dp;

    fn node(i: i64) -> Tuple {
        vec![Value::Int(i)]
    }
    fn edge(a: i64, b: i64) -> Tuple {
        vec![Value::Int(a), Value::Int(b)]
    }

    fn graph_instance() -> Instance {
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..4).map(node));
        inst.insert_all("Edge", [(0, 1), (1, 2), (2, 3), (0, 2)].map(|(a, b)| edge(a, b)));
        inst
    }

    fn path2_query() -> Query {
        Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])])
    }

    /// Applies a batch three ways and checks the view replay against a
    /// from-scratch executor run on the rebuilt instance, bit for bit.
    fn check_apply(schema: &Schema, inst: &Instance, q: &Query, batch: WriteBatch) -> Instance {
        let mut view =
            IncrementalView::new(schema, inst, q, None).expect("view").expect("incremental plan");
        let resolved = batch.resolve(schema, inst).expect("resolves");
        let next = resolved.apply_to(inst);
        view.apply(resolved.deltas()).expect("applies");
        let patched = view.profile().expect("replay");
        let rebuilt = exec::profile(schema, &next, q).expect("rebuild");
        assert_eq!(patched, rebuilt, "patched profile must equal from-scratch rebuild");
        next
    }

    #[test]
    fn batch_builder_merges_relations() {
        let mut b = WriteBatch::new();
        b.insert("Edge", edge(7, 8)).delete("Edge", edge(0, 1)).insert("Edge", edge(8, 9));
        assert!(!b.is_empty());
        assert!(b.has_deletes());
        assert!(!b.is_replace());
        let s = graph_schema_node_dp();
        let resolved = b.resolve(&s, &graph_instance()).expect("resolves");
        assert_eq!(resolved.deltas().len(), 1);
        assert_eq!(resolved.deltas()[0].inserts().len(), 2);
        assert_eq!(resolved.deltas()[0].delete_ranks(), &[0]);
        assert_eq!(resolved.touched(), vec!["Edge"]);
    }

    #[test]
    fn resolve_rejects_unknown_relation_and_arity() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let mut b = WriteBatch::new();
        b.insert("Nope", node(1));
        assert!(matches!(
            b.resolve(&s, &inst),
            Err(EngineError::UnknownRelation(r)) if r == "Nope"
        ));
        let mut b = WriteBatch::new();
        b.insert("Edge", node(1));
        assert!(matches!(b.resolve(&s, &inst), Err(EngineError::ArityMismatch { .. })));
    }

    #[test]
    fn resolve_rejects_missing_delete_target() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let mut b = WriteBatch::new();
        b.delete("Edge", edge(9, 9));
        assert!(matches!(
            b.resolve(&s, &inst),
            Err(EngineError::MissingDeleteTarget { relation, .. }) if relation == "Edge"
        ));
        // Duplicate deletes need duplicate rows.
        let mut b = WriteBatch::new();
        b.delete("Edge", edge(0, 1)).delete("Edge", edge(0, 1));
        assert!(matches!(b.resolve(&s, &inst), Err(EngineError::MissingDeleteTarget { .. })));
    }

    #[test]
    fn apply_preserves_survivor_order_and_appends() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let mut b = WriteBatch::new();
        b.delete("Edge", edge(1, 2)).insert("Edge", edge(3, 0));
        let next = b.resolve(&s, &inst).expect("resolves").apply_to(&inst);
        assert_eq!(next.rows("Edge"), &[edge(0, 1), edge(2, 3), edge(0, 2), edge(3, 0)]);
        // Source instance untouched.
        assert_eq!(inst.rows("Edge").len(), 4);
    }

    #[test]
    fn integrity_index_matches_full_validation() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let idx = IntegrityIndex::build(&s, &inst);

        // Insert referencing an existing node: fine.
        let mut ok = WriteBatch::new();
        ok.insert("Edge", edge(3, 1));
        let ok = ok.resolve(&s, &inst).unwrap();
        idx.check(&s, ok.deltas()).expect("valid insert");

        // Insert referencing a missing node: broken FK.
        let mut bad = WriteBatch::new();
        bad.insert("Edge", edge(0, 99));
        let bad = bad.resolve(&s, &inst).unwrap();
        assert!(matches!(idx.check(&s, bad.deltas()), Err(EngineError::BrokenForeignKey { .. })));

        // Duplicate PK insert.
        let mut dup = WriteBatch::new();
        dup.insert("Node", node(0));
        let dup = dup.resolve(&s, &inst).unwrap();
        assert!(matches!(idx.check(&s, dup.deltas()), Err(EngineError::DuplicateKey { .. })));

        // Deleting a still-referenced node: broken FK on delete.
        let mut orphan = WriteBatch::new();
        orphan.delete("Node", node(0));
        let orphan = orphan.resolve(&s, &inst).unwrap();
        assert!(matches!(
            idx.check(&s, orphan.deltas()),
            Err(EngineError::BrokenForeignKey { .. })
        ));

        // Deleting a node together with all its edges: fine.
        let mut cascade = WriteBatch::new();
        cascade.delete("Node", node(3)).delete("Edge", edge(2, 3));
        let cascade = cascade.resolve(&s, &inst).unwrap();
        idx.check(&s, cascade.deltas()).expect("delete with cascading edge deletes");

        // Delete + reinsert of the same key in one batch keeps referencing
        // rows valid.
        let mut swap = WriteBatch::new();
        swap.delete("Node", node(0)).insert("Node", node(0));
        let swap = swap.resolve(&s, &inst).unwrap();
        idx.check(&s, swap.deltas()).expect("reinserted key is not orphaned");
    }

    #[test]
    fn integrity_commit_tracks_state() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let mut idx = IntegrityIndex::build(&s, &inst);
        // Remove edge (2,3), then node 3 becomes deletable.
        let mut b1 = WriteBatch::new();
        b1.delete("Edge", edge(2, 3));
        let b1 = b1.resolve(&s, &inst).unwrap();
        idx.check(&s, b1.deltas()).unwrap();
        idx.commit(&s, b1.deltas());
        let inst2 = b1.apply_to(&inst);

        let mut b2 = WriteBatch::new();
        b2.delete("Node", node(3));
        let b2 = b2.resolve(&s, &inst2).unwrap();
        idx.check(&s, b2.deltas()).expect("no referencing rows remain after commit");
    }

    #[test]
    fn query_relations_include_completion() {
        let s = graph_schema_node_dp();
        let rels = query_relations(&s, &Query::count(vec![atom("Edge", &[0, 1])])).unwrap();
        assert_eq!(rels, vec!["Edge".to_string(), "Node".to_string()]);
    }

    #[test]
    fn initial_build_matches_executor() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let q = path2_query();
        let view = IncrementalView::new(&s, &inst, &q, None).unwrap().expect("plan");
        let p = view.profile().unwrap();
        let direct = exec::profile(&s, &inst, &q).unwrap();
        assert_eq!(p, direct);
        assert_eq!(p.query_result(), 3.0); // paths: 0-1-2, 1-2-3, 0-2-3
    }

    #[test]
    fn insert_delta_matches_rebuild() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let q = path2_query();
        let mut b = WriteBatch::new();
        b.insert("Node", node(4)).insert("Edge", edge(3, 4)).insert("Edge", edge(1, 3));
        check_apply(&s, &inst, &q, b);
    }

    #[test]
    fn delete_delta_matches_rebuild() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let q = path2_query();
        let mut b = WriteBatch::new();
        b.delete("Edge", edge(1, 2));
        check_apply(&s, &inst, &q, b);
    }

    #[test]
    fn mixed_chain_of_applies_matches_rebuild() {
        let s = graph_schema_node_dp();
        let mut inst = graph_instance();
        let q = path2_query();
        let mut b1 = WriteBatch::new();
        b1.insert("Node", node(4)).insert("Edge", edge(2, 4));
        inst = check_apply(&s, &inst, &q, b1);
        let mut b2 = WriteBatch::new();
        b2.delete("Edge", edge(0, 2)).insert("Edge", edge(4, 0));
        inst = check_apply(&s, &inst, &q, b2);
        let mut b3 = WriteBatch::new();
        b3.delete("Node", node(3)).delete("Edge", edge(2, 3)).delete("Edge", edge(2, 4));
        b3.delete("Edge", edge(4, 0));
        check_apply(&s, &inst, &q, b3);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let q = path2_query();
        check_apply(&s, &inst, &q, WriteBatch::new());
    }

    #[test]
    fn projection_and_sum_replay_identically() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        // SUM(dst) over Edge, projected on src: exercises pkey + weights.
        let q = Query::count(vec![atom("Edge", &[0, 1])])
            .with_sum(crate::query::Expr::Var(1))
            .with_projection(vec![0]);
        let mut b = WriteBatch::new();
        b.insert("Edge", edge(3, 1)).delete("Edge", edge(0, 2));
        check_apply(&s, &inst, &q, b);
    }

    #[test]
    fn grouped_replay_matches_rebuild() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        let q = Query::count(vec![atom("Edge", &[0, 1])]);
        let mut view = IncrementalView::new(&s, &inst, &q, Some(&[0])).unwrap().expect("plan");
        let mut b = WriteBatch::new();
        b.insert("Edge", edge(2, 0)).delete("Edge", edge(0, 1));
        let resolved = b.resolve(&s, &inst).unwrap();
        let next = resolved.apply_to(&inst);
        view.apply(resolved.deltas()).unwrap();
        let patched = view.profile_grouped().unwrap();
        let rebuilt = exec::profile_grouped(&s, &next, &q, &[0]).unwrap();
        assert_eq!(patched, rebuilt);
    }

    #[test]
    fn cyclic_query_has_no_incremental_plan() {
        let s = graph_schema_node_dp();
        let inst = graph_instance();
        // Triangle: cyclic join graph routes to WCOJ, no incremental plan.
        let q =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[2, 0])]);
        assert!(IncrementalView::new(&s, &inst, &q, None).unwrap().is_none());
    }

    #[test]
    fn greedy_order_flip_triggers_rebuild() {
        // Start with Edge smaller than Node, then grow Edge past Node so the
        // greedy order flips; replay must still match a rebuild.
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..6).map(node));
        inst.insert_all("Edge", [(0, 1), (1, 2)].map(|(a, b)| edge(a, b)));
        let q = path2_query();
        let mut b = WriteBatch::new();
        b.insert_all("Edge", (0..5).flat_map(|a| (0..5).map(move |b| edge(a, b))));
        inst = check_apply(&s, &inst, &q, b);
        assert!(inst.rows("Edge").len() > inst.rows("Node").len());
    }

    #[test]
    fn view_ignores_foreign_relations() {
        let mut s = Schema::new();
        s.add_relation("customer", &["ck"], Some("ck"), &[]).unwrap();
        s.add_relation("orders", &["ok", "ck"], Some("ok"), &[("ck", "customer")]).unwrap();
        s.add_relation("lineitem", &["ok"], None, &[("ok", "orders")]).unwrap();
        s.set_primary_private(&["customer"]).unwrap();
        let mut inst = Instance::new();
        inst.insert_all("customer", (1..=2).map(node));
        inst.insert("orders", vec![Value::Int(10), Value::Int(1)]);
        inst.insert("lineitem", vec![Value::Int(10)]);
        let q = Query::count(vec![atom("orders", &[0, 1])]);
        let mut view = IncrementalView::new(&s, &inst, &q, None).unwrap().expect("plan");
        assert_eq!(view.relations(), vec!["customer".to_string(), "orders".to_string()]);
        // A lineitem-only write leaves the view untouched.
        let mut b = WriteBatch::new();
        b.insert("lineitem", vec![Value::Int(10)]);
        let resolved = b.resolve(&s, &inst).unwrap();
        let before = view.num_records();
        view.apply(resolved.deltas()).unwrap();
        assert_eq!(view.num_records(), before);
    }
}
