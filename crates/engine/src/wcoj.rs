//! Worst-case-optimal join executor (generic join / leapfrog triejoin).
//!
//! The columnar pipeline in [`crate::exec`] joins atom-at-a-time, so cyclic
//! patterns pay the classic intermediate blowup: counting triangles on a
//! graph first materializes every *wedge* (length-2 path), of which there
//! are `Σ_v deg(v)²` — orders of magnitude more than there are triangles.
//! This executor instead enumerates bindings *variable-at-a-time*: for each
//! variable in a global order it intersects, by leapfrog search over sorted
//! trie iterators, the candidate values of every atom containing that
//! variable. Intermediate state is one root-to-leaf path of trie windows, so
//! peak binding storage is proportional to the **output**, never to an
//! intermediate join (the AGM/NPRR worst-case-optimality argument).
//!
//! ## Bit-identity with the columnar executor
//!
//! Every executor must produce the same [`crate::QueryProfile`] down to
//! result order and dense private-id numbering, because R2T's DP outputs are
//! a deterministic function of the profile. The columnar pipeline emits
//! results in lexicographic order of the per-atom row-index vector `(r_{o_0},
//! …, r_{o_{k-1}})`, where `o` is its greedy join order (`exec::greedy_order`):
//! the seed stage scans atom `o_0`'s rows ascending, and every probe stage
//! extends partials in arena order with candidate rows ascending. This
//! executor therefore records, for every surviving result, exactly that
//! row-index vector (plus an index into a value-binding arena), **globally
//! sorts** the records by row vector, and only then streams them — in the
//! columnar executor's order — into the same per-worker
//! [`crate::lineage::IdProfileBuilder`] shards, merged in the same positional
//! order. Enumeration order, variable order, and worker partitioning
//! therefore cannot leak into the profile, which makes the deterministic
//! parallelization trivial: workers split the first variable's domain and the
//! sort erases the split.
//!
//! ## Comparison-predicate pushdown
//!
//! Trie keys live in a *value-ordered* remap of the interner id space (ids
//! sorted by the predicate comparator [`Value::cmp_total`], ties by id), so
//! order-comparison conjuncts of the predicate (`a < b`, `v ≥ 3`) become
//! per-level key-range bounds enforced *inside* the intersections. For the
//! symmetry-broken cyclic patterns this is the difference between skipping
//! the `k!` automorphic orderings and enumerating then discarding them. The
//! leaf still evaluates the full predicate, so pruning is sound by
//! construction: it removes only bindings the leaf would reject, and the
//! emitted record set — hence the profile — is unchanged.
//!
//! Telemetry is reported under `exec.wcoj.*` (intersections, galloping
//! seeks, emitted bindings, peak trie depth, per-worker skew) and obeys the
//! same rule as the rest of the engine: observability never changes outputs.

use crate::exec::{
    greedy_order, intern_tables, needed_value_vars, record_worker, worker_clock, EmitOut,
    ExecOptions, ExecStats, PlanInterner, Source,
};
use crate::interner::{ColumnarTable, Interner, UNBOUND};
use crate::lineage::pack_private_key;
use crate::query::{CmpOp, Expr, Predicate, Query, Var};
use crate::schema::Schema;
use crate::value::Value;
use crate::EngineError;
use r2t_obs::Attr;
use std::collections::HashMap;

/// Trie-sharing key: (table index, level columns, equality-filter pairs).
/// Self-join atoms with the same shape share one trie.
type TrieShape = (usize, Vec<usize>, Vec<(usize, usize)>);

// ---------------------------------------------------------------------------
// Tries.
// ---------------------------------------------------------------------------

/// A sorted trie over one atom's interned columns, laid out flat: `rows`
/// holds the backing table's row ids sorted lexicographically by the atom's
/// columns *permuted into the global variable order* (raw row id as final
/// tiebreak, so leaf row lists ascend), and `keys[d][i]` is the id at trie
/// level `d` of sorted position `i`. A "trie node" is just a `(lo, hi)`
/// window into this layout; descending means shrinking the window to one
/// key's run, so no pointer structure is ever built.
struct Trie {
    rows: Vec<u32>,
    keys: Vec<Vec<u32>>,
    /// Distinct level-0 keys. An atom participates at trie depth 0 exactly
    /// when its window is still the full root, so root-level intersections
    /// run over this (much shorter, duplicate-free) list instead of the
    /// per-row key column.
    dir_keys: Vec<u32>,
    /// Row-space run boundaries per distinct level-0 key: key `i` covers
    /// rows `dir_lo[i]..dir_lo[i + 1]` (one sentinel entry at the end).
    dir_lo: Vec<u32>,
    /// `dir_seek[t]` is the first directory position whose key is `>= t`,
    /// for every ordered key `t` (plus a sentinel): directory members seek
    /// in O(1) instead of galloping. Input-proportional memory (one entry
    /// per interned value), like the tries themselves.
    dir_seek: Vec<u32>,
}

impl Trie {
    /// Builds the trie for `level_cols` (one column per distinct variable,
    /// outermost first). Rows violating an intra-atom repeated-variable
    /// equality (`eq_pairs`, each `(first_col, later_col)`) are filtered out
    /// up front so enumeration never sees them. Keys are stored in the
    /// *value-ordered* key space (`ord_of_id`, see [`WcojPlan`]) rather than
    /// raw interner ids, so comparison-predicate bounds translate to key
    /// ranges; the map is injective, so key equality is still id equality.
    fn build(
        table: &ColumnarTable,
        level_cols: &[usize],
        eq_pairs: &[(usize, usize)],
        ord_of_id: &[u32],
    ) -> Trie {
        let mut rows: Vec<u32> = (0..table.nrows as u32)
            .filter(|&ri| {
                eq_pairs
                    .iter()
                    .all(|&(a, b)| table.cols[a][ri as usize] == table.cols[b][ri as usize])
            })
            .collect();
        let key = |c: usize, ri: u32| ord_of_id[table.cols[c][ri as usize] as usize];
        let keys: Vec<Vec<u32>>;
        if (1..=3).contains(&level_cols.len()) {
            // Pack `(keys…, row id)` into one `u128` so the sort compares
            // registers instead of chasing table columns on every
            // comparison: up to three 32-bit key levels above the 32-bit
            // row-id tiebreak; missing levels stay zero, which preserves
            // the lexicographic order.
            let mut packed: Vec<u128> = rows
                .iter()
                .map(|&ri| {
                    let mut p = ri as u128;
                    for (d, &c) in level_cols.iter().enumerate() {
                        p |= (key(c, ri) as u128) << (96 - 32 * d);
                    }
                    p
                })
                .collect();
            packed.sort_unstable();
            for (r, &p) in rows.iter_mut().zip(&packed) {
                *r = p as u32;
            }
            // The key columns are already inside the packed words —
            // unpack them sequentially rather than re-chasing the table.
            keys = (0..level_cols.len())
                .map(|d| packed.iter().map(|&p| (p >> (96 - 32 * d)) as u32).collect())
                .collect();
        } else {
            rows.sort_unstable_by(|&a, &b| {
                for &c in level_cols {
                    match key(c, a).cmp(&key(c, b)) {
                        std::cmp::Ordering::Equal => {}
                        o => return o,
                    }
                }
                a.cmp(&b)
            });
            keys =
                level_cols.iter().map(|&c| rows.iter().map(|&ri| key(c, ri)).collect()).collect();
        }
        // Level-0 run directory (see the field docs above).
        let mut dir_keys = Vec::new();
        let mut dir_lo = Vec::new();
        if let Some(k0) = keys.first() {
            let mut i = 0u32;
            let n = k0.len() as u32;
            while i < n {
                dir_keys.push(k0[i as usize]);
                dir_lo.push(i);
                i = run_end(k0, i, n);
            }
        }
        dir_lo.push(rows.len() as u32);
        let n_ids = ord_of_id.len();
        let mut dir_seek = vec![0u32; n_ids + 1];
        let mut p = 0u32;
        for (t, slot) in dir_seek.iter_mut().enumerate() {
            while (p as usize) < dir_keys.len() && dir_keys[p as usize] < t as u32 {
                p += 1;
            }
            *slot = p;
        }
        Trie { rows, keys, dir_keys, dir_lo, dir_seek }
    }

    fn len(&self) -> u32 {
        self.rows.len() as u32
    }
}

/// First position in `keys[lo..hi]` whose key is `>= target`, found by a
/// short linear probe (intersections of similarly dense sets advance by a
/// handful of positions most of the time), then exponential (galloping)
/// probe plus binary search — `O(log d)` in the distance `d` advanced, which
/// is what makes leapfrog intersection cost proportional to the *smallest*
/// participating set.
#[inline]
fn gallop_ge(keys: &[u32], lo: u32, hi: u32, target: u32) -> u32 {
    let mut lo = lo as usize;
    let hi = hi as usize;
    for _ in 0..4 {
        if lo >= hi || keys[lo] >= target {
            return lo as u32;
        }
        lo += 1;
    }
    if lo >= hi || keys[lo] >= target {
        return lo as u32;
    }
    let mut step = 1usize;
    while lo + step < hi && keys[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let upper = (lo + step).min(hi);
    (lo + 1 + keys[lo + 1..upper].partition_point(|&k| k < target)) as u32
}

/// End of the run of positions whose key equals `keys[p]`: linear peek for
/// the overwhelmingly common short run, galloping for long ones (duplicate-
/// heavy first trie levels).
#[inline]
fn run_end(keys: &[u32], p: u32, hi: u32) -> u32 {
    let x = keys[p as usize];
    let mut e = p + 1;
    let peek = hi.min(p + 4);
    while e < peek && keys[e as usize] == x {
        e += 1;
    }
    if e == peek && e < hi && keys[e as usize] == x {
        return gallop_ge(keys, e, hi, x + 1);
    }
    e
}

// ---------------------------------------------------------------------------
// Planning.
// ---------------------------------------------------------------------------

/// Prepared WCOJ execution state: interned tables (shared layout with the
/// columnar executor via [`intern_tables`]), per-atom tries, the global
/// variable order, and the emission metadata.
pub(crate) struct WcojPlan<'q> {
    q: &'q Query,
    nvars: usize,
    natoms: usize,
    pub(crate) interner: PlanInterner<'q>,
    /// Canonical atom order for emission row vectors — the columnar
    /// executor's pipeline order, so the post-sort emission sequence is
    /// bit-identical to its output.
    pipeline: Vec<usize>,
    /// Global variable order (only variables that occur in atoms).
    var_order: Vec<Var>,
    tries: Vec<Trie>,
    /// Atom index -> index into `tries` (atoms with identical shape share).
    atom_trie: Vec<usize>,
    /// For each variable-order level: the `(atom, trie depth)` pairs whose
    /// tries participate in that level's intersection.
    atoms_at_level: Vec<Vec<(usize, usize)>>,
    /// Value-ordered key space: interner ids sorted by the predicate
    /// comparator [`Value::cmp_total`] (ties broken by id, so the map is
    /// injective). `id_of_ord[k]` recovers the interner id behind ordered
    /// key `k`; `class_of_ord[k]` is its `cmp_total` equivalence class (e.g.
    /// `Int(3)` and `Float(3.0)` share a class but keep distinct keys);
    /// `class_start[c]` is the first ordered key of class `c`, with a final
    /// sentinel entry, so class-granular range bounds are O(1) lookups.
    id_of_ord: Vec<u32>,
    class_of_ord: Vec<u32>,
    class_start: Vec<u32>,
    /// Per-level pruning bounds compiled from the predicate's top-level
    /// comparison conjuncts (see [`LevelBounds`]).
    level_bounds: Vec<LevelBounds>,
    needed_vars: Vec<Var>,
    private_vars: Vec<(u32, Var)>,
    workers: usize,
    threshold: usize,
}

/// Range constraints on one level's intersection, compiled from necessary
/// conditions of the query predicate (top-level `And` conjuncts of the form
/// `var op var` / `var op const` with an order comparison). Pruning with
/// them is sound because it only ever removes bindings the leaf predicate
/// check would reject — the emitted record set, and with it the profile, is
/// untouched; cyclic patterns with symmetry-breaking predicates (`a < b <
/// c`) skip the factorial blowup instead of filtering it at the leaf.
#[derive(Default)]
struct LevelBounds {
    /// `(earlier variable, strict)`: this level's value must compare greater
    /// (or equal) to the named already-bound variable.
    lower_vars: Vec<(Var, bool)>,
    /// `(earlier variable, strict)`: upper counterpart.
    upper_vars: Vec<(Var, bool)>,
    /// Constant bounds, pre-resolved to ordered-key space: admissible keys
    /// lie in `const_lo..const_hi`.
    const_lo: u32,
    const_hi: u32,
}

/// Mirrors a comparison for operand swap: `c op v  ≡  v mirror(op) c`.
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

/// Compiles the predicate's top-level comparison conjuncts into per-level
/// [`LevelBounds`]. Var-var comparisons attach to the *later* variable's
/// level (the earlier one is already bound when the level intersects);
/// var-const comparisons resolve to ordered-key constants here, at class
/// granularity, via binary search over the class representatives.
fn compile_bounds(
    q: &Query,
    var_level: &[usize],
    nlevels: usize,
    interner: &Interner,
    id_of_ord: &[u32],
    class_start: &[u32],
) -> Vec<LevelBounds> {
    let n_ids = id_of_ord.len() as u32;
    let mut bounds: Vec<LevelBounds> = (0..nlevels)
        .map(|_| LevelBounds { const_lo: 0, const_hi: n_ids, ..LevelBounds::default() })
        .collect();
    let nclasses = class_start.len() - 1;
    let rep = |c: usize| interner.resolve(id_of_ord[class_start[c] as usize]);
    let level = |v: Var| var_level.get(v as usize).copied().unwrap_or(usize::MAX);
    for c in q.predicate.conjuncts() {
        let Predicate::Cmp(op, ea, eb) = c else { continue };
        // Normalize to `v op rhs` with `rhs` a variable or constant.
        let (op, v, rhs) = match (ea, eb) {
            (Expr::Var(v), rhs @ (Expr::Var(_) | Expr::Const(_))) => (*op, *v, rhs),
            (lhs @ Expr::Const(_), Expr::Var(v)) => (mirror(*op), *v, lhs),
            _ => continue,
        };
        let lv = level(v);
        if lv == usize::MAX {
            continue;
        }
        match rhs {
            Expr::Var(u) => {
                let lu = level(*u);
                if lu == usize::MAX || lu == lv {
                    continue;
                }
                // Attach the constraint to whichever side binds later.
                let (target, other, op) = if lv > lu { (lv, *u, op) } else { (lu, v, mirror(op)) };
                let lb = &mut bounds[target];
                match op {
                    CmpOp::Gt => lb.lower_vars.push((other, true)),
                    CmpOp::Ge => lb.lower_vars.push((other, false)),
                    CmpOp::Lt => lb.upper_vars.push((other, true)),
                    CmpOp::Le => lb.upper_vars.push((other, false)),
                    CmpOp::Eq => {
                        lb.lower_vars.push((other, false));
                        lb.upper_vars.push((other, false));
                    }
                    CmpOp::Ne => {}
                }
            }
            Expr::Const(cv) => {
                // `ins`: first class whose representative is not below the
                // constant; `eq` when that class *is* the constant's class.
                let mut lo = 0usize;
                let mut hi = nclasses;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if rep(mid).cmp_total(cv) == std::cmp::Ordering::Less {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                let ins = lo;
                let eq = ins < nclasses && rep(ins).cmp_total(cv) == std::cmp::Ordering::Equal;
                let above = class_start[if eq { ins + 1 } else { ins }];
                let at = class_start[ins];
                let lb = &mut bounds[lv];
                match op {
                    CmpOp::Gt => lb.const_lo = lb.const_lo.max(above),
                    CmpOp::Ge => lb.const_lo = lb.const_lo.max(at),
                    CmpOp::Lt => lb.const_hi = lb.const_hi.min(at),
                    CmpOp::Le => lb.const_hi = lb.const_hi.min(above),
                    CmpOp::Eq => {
                        lb.const_lo = lb.const_lo.max(at);
                        lb.const_hi = lb.const_hi.min(above);
                    }
                    CmpOp::Ne => {}
                }
            }
            // The normalization above only lets Var/Const through.
            _ => unreachable!("rhs is a variable or constant"),
        }
    }
    bounds
}

/// Frequency-driven variable order: start from the variable occurring in the
/// most atoms (it has the most constraining intersections), then repeatedly
/// pick, among variables sharing an atom with the already-ordered set (to
/// keep intersections selective rather than Cartesian), the one with the
/// highest atom frequency; ties break to the smallest variable id so the
/// order — and with it all telemetry — is deterministic. Disconnected
/// components fall back to the global frequency maximum.
fn variable_order(q: &Query, nvars: usize) -> Vec<Var> {
    let atom_vars: Vec<Vec<Var>> = q
        .atoms
        .iter()
        .map(|a| {
            let mut vs = a.vars.clone();
            vs.sort_unstable();
            vs.dedup();
            vs
        })
        .collect();
    let mut freq = vec![0usize; nvars];
    for vs in &atom_vars {
        for &v in vs {
            freq[v as usize] += 1;
        }
    }
    let mut chosen = vec![false; nvars];
    let mut order: Vec<Var> = Vec::new();
    let total = freq.iter().filter(|&&c| c > 0).count();
    while order.len() < total {
        let connected = |v: Var| {
            atom_vars.iter().any(|vs| vs.contains(&v) && vs.iter().any(|&u| chosen[u as usize]))
        };
        let pick = (0..nvars as Var)
            .filter(|&v| freq[v as usize] > 0 && !chosen[v as usize])
            .max_by_key(|&v| {
                (!order.is_empty() && connected(v), freq[v as usize], std::cmp::Reverse(v))
            })
            .expect("unordered variable exists");
        chosen[pick as usize] = true;
        order.push(pick);
    }
    order
}

impl<'q> WcojPlan<'q> {
    /// Resolves the source tables, plans the variable order, and builds the
    /// tries; `None` when the query has no atoms.
    pub(crate) fn new(
        schema: &Schema,
        source: Source<'q>,
        q: &'q Query,
        private_vars: Vec<(u32, Var)>,
        opts: &ExecOptions,
    ) -> Result<Option<WcojPlan<'q>>, EngineError> {
        if q.atoms.is_empty() {
            return Ok(None);
        }
        let nvars = q.num_vars();
        let natoms = q.atoms.len();
        let (interner, tables, atom_table) = intern_tables(schema, source, q)?;
        let sizes: Vec<usize> = atom_table.iter().map(|&i| tables[i].nrows).collect();
        let pipeline = greedy_order(q, &sizes, nvars);
        let var_order = variable_order(q, nvars);
        let mut var_level = vec![usize::MAX; nvars];
        for (l, &v) in var_order.iter().enumerate() {
            var_level[v as usize] = l;
        }
        // Value-ordered key space (see the field docs on `WcojPlan`).
        let n_ids = interner.len();
        let mut id_of_ord: Vec<u32> = (0..n_ids as u32).collect();
        // All-integer domains (every graph workload) sort by packed
        // order-preserving `(u64-mapped value, id)` words; `cmp_total` on
        // two `Int`s is exactly the numeric order, so this matches the
        // general comparator below without resolving values per comparison.
        let all_int = id_of_ord.iter().all(|&id| matches!(interner.resolve(id), Value::Int(_)));
        if all_int {
            let mut packed: Vec<u128> = id_of_ord
                .iter()
                .map(|&id| {
                    let Value::Int(v) = *interner.resolve(id) else { unreachable!() };
                    ((((v as u64) ^ (1u64 << 63)) as u128) << 32) | id as u128
                })
                .collect();
            packed.sort_unstable();
            for (slot, &p) in id_of_ord.iter_mut().zip(&packed) {
                *slot = p as u32;
            }
        } else {
            id_of_ord.sort_unstable_by(|&a, &b| {
                interner.resolve(a).cmp_total(interner.resolve(b)).then(a.cmp(&b))
            });
        }
        let mut ord_of_id = vec![0u32; n_ids];
        let mut class_of_ord = vec![0u32; n_ids];
        let mut class_start: Vec<u32> = Vec::new();
        for (pos, &id) in id_of_ord.iter().enumerate() {
            ord_of_id[id as usize] = pos as u32;
            if pos == 0
                || interner.resolve(id_of_ord[pos - 1]).cmp_total(interner.resolve(id))
                    != std::cmp::Ordering::Equal
            {
                class_start.push(pos as u32);
            }
            class_of_ord[pos] = class_start.len() as u32 - 1;
        }
        class_start.push(n_ids as u32);
        let level_bounds =
            compile_bounds(q, &var_level, var_order.len(), &interner, &id_of_ord, &class_start);
        // One trie per distinct (table, level columns, equality filter)
        // shape; self-join atoms with the same variable pattern share.
        let mut tries: Vec<Trie> = Vec::new();
        let mut shapes: HashMap<TrieShape, usize> = HashMap::new();
        let mut atom_trie = Vec::with_capacity(natoms);
        let mut atoms_at_level: Vec<Vec<(usize, usize)>> = vec![Vec::new(); var_order.len()];
        for (ai, atom) in q.atoms.iter().enumerate() {
            // Distinct variables ordered by their global level; `level_cols`
            // is each variable's first column, `eq_pairs` pins repeats.
            let mut distinct: Vec<Var> = atom.vars.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.sort_unstable_by_key(|&v| var_level[v as usize]);
            let mut level_cols = Vec::with_capacity(distinct.len());
            let mut eq_pairs = Vec::new();
            for &v in &distinct {
                let first = atom.vars.iter().position(|&u| u == v).expect("var occurs");
                level_cols.push(first);
                for (c, &u) in atom.vars.iter().enumerate().skip(first + 1) {
                    if u == v {
                        eq_pairs.push((first, c));
                    }
                }
            }
            eq_pairs.sort_unstable();
            let table_idx = atom_table[ai];
            let key = (table_idx, level_cols.clone(), eq_pairs.clone());
            let trie_idx = match shapes.get(&key) {
                Some(&i) => i,
                None => {
                    let i = tries.len();
                    tries.push(Trie::build(&tables[table_idx], &level_cols, &eq_pairs, &ord_of_id));
                    shapes.insert(key, i);
                    i
                }
            };
            atom_trie.push(trie_idx);
            for (depth, &v) in distinct.iter().enumerate() {
                atoms_at_level[var_level[v as usize]].push((ai, depth));
            }
        }
        let workers = opts
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        r2t_obs::gauge_max("exec.interner.values", interner.len() as u64);
        Ok(Some(WcojPlan {
            q,
            nvars,
            natoms,
            interner,
            pipeline,
            var_order,
            tries,
            atom_trie,
            atoms_at_level,
            id_of_ord,
            class_of_ord,
            class_start,
            level_bounds,
            needed_vars: needed_value_vars(q),
            private_vars,
            workers: workers.max(1),
            threshold: opts.parallel_threshold,
        }))
    }

    fn trie(&self, atom: usize) -> &Trie {
        &self.tries[self.atom_trie[atom]]
    }

    /// The admissible ordered-key range `lo..hi` for `level`, given the
    /// already-bound prefix in `binding`. Var-var bounds resolve through the
    /// bound variable's `cmp_total` class, so e.g. a strict lower bound
    /// admits exactly the keys comparing greater under predicate semantics.
    fn bounds_at(&self, binding: &[u32], level: usize) -> (u32, u32) {
        let lb = &self.level_bounds[level];
        let mut lo = lb.const_lo;
        let mut hi = lb.const_hi;
        for &(u, strict) in &lb.lower_vars {
            let c = self.class_of_ord[binding[u as usize] as usize];
            lo = lo.max(self.class_start[(c + strict as u32) as usize]);
        }
        for &(u, strict) in &lb.upper_vars {
            let c = self.class_of_ord[binding[u as usize] as usize];
            hi = hi.min(self.class_start[(c + !strict as u32) as usize]);
        }
        (lo, hi)
    }

    /// Runs enumeration, sorts the emission records into the columnar
    /// executor's order, and streams them into profile shards.
    pub(crate) fn run(
        &self,
        group_vars: Option<&[crate::query::Var]>,
    ) -> Result<(EmitOut, ExecStats), EngineError> {
        let _span = r2t_obs::span("exec.wcoj.run");
        let shared = Shared::new(self);
        let harvest = self.enumerate_all(&shared);
        let stride = self.natoms + 1;
        let nrec = harvest.emits.len() / stride;
        // Sort records by row vector: this is exactly the columnar
        // executor's emission order (see the module docs), and row vectors
        // are unique, so the order is total and worker-count independent.
        let mut order: Vec<u32> = (0..nrec as u32).collect();
        let emits = &harvest.emits;
        let natoms = self.natoms;
        order.sort_unstable_by(|&a, &b| {
            let ra = &emits[a as usize * stride..a as usize * stride + natoms];
            let rb = &emits[b as usize * stride..b as usize * stride + natoms];
            ra.cmp(rb)
        });
        let (out, emitted) = self.emit_sorted(&order, &harvest, group_vars)?;
        let peak_resident_bytes = harvest.emits.len() * std::mem::size_of::<u32>()
            + order.len() * std::mem::size_of::<u32>()
            + harvest.bindings.len() * std::mem::size_of::<u32>()
            + harvest.weights.len() * std::mem::size_of::<f64>();
        r2t_obs::counter_add("exec.wcoj.runs", 1);
        r2t_obs::counter_add("exec.wcoj.intersections", harvest.intersections);
        r2t_obs::counter_add("exec.wcoj.seeks", harvest.seeks);
        r2t_obs::counter_add("exec.wcoj.emitted", emitted as u64);
        r2t_obs::counter_add("exec.rows.emitted", emitted as u64);
        r2t_obs::gauge_max("exec.wcoj.depth", harvest.max_depth);
        r2t_obs::gauge_max("exec.peak_bindings", nrec as u64);
        // Per-run seek-depth distribution (the gauge only keeps the max).
        r2t_obs::hist_record("exec.wcoj.seek.depth", harvest.max_depth);
        let stats = ExecStats {
            peak_bindings: nrec,
            interned_values: self.interner.len(),
            surviving_results: emitted,
            peak_resident_bytes,
        };
        Ok((out, stats))
    }

    /// Enumerates all bindings, fanning the first variable's domain out
    /// across scoped threads when it is large enough. The returned harvest
    /// is the concatenation of the workers' harvests in worker order —
    /// irrelevant for the profile (the sort erases it), deterministic for
    /// telemetry anyway.
    fn enumerate_all(&self, shared: &Shared<'_>) -> Harvest {
        if self.var_order.is_empty() {
            // No variables anywhere (all atoms are zero-column): the single
            // empty binding joins every row combination.
            let mut st = State::new(self);
            leaf(shared, &mut st);
            return st.into_harvest();
        }
        let v0: Vec<u32> = self.level0_values(shared);
        let workers = if v0.len() < self.threshold.max(1) { 1 } else { self.workers.min(v0.len()) };
        if workers <= 1 {
            let mut st = State::new(self);
            enumerate(shared, &mut st, 0);
            return st.into_harvest();
        }
        let members = &self.atoms_at_level[0];
        let harvests: Vec<Harvest> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let v0 = &v0;
                    scope.spawn(move || {
                        let t0 = worker_clock();
                        let mut st = State::new(self);
                        // Strided assignment spreads skewed value runs
                        // across workers; the global sort makes any
                        // assignment produce the same profile.
                        let mut assigned = 0usize;
                        for &x in v0.iter().skip(w).step_by(workers) {
                            assigned += 1;
                            // Every level-0 member is at trie depth 0 (an
                            // atom containing the globally first variable
                            // binds it first), so seek in directory space
                            // via the O(1) table and push the mapped
                            // row-space run.
                            for &(ai, _) in members {
                                let t = self.trie(ai);
                                let lo = t.dir_seek[x as usize];
                                let end = t.dir_seek[x as usize + 1];
                                st.seeks += 2;
                                st.ranges[ai].push((t.dir_lo[lo as usize], t.dir_lo[end as usize]));
                            }
                            st.binding[self.var_order[0] as usize] = x;
                            enumerate(shared, &mut st, 1);
                            for &(ai, _) in members {
                                st.ranges[ai].pop();
                            }
                        }
                        let h = st.into_harvest();
                        record_worker(t0, 0, w, assigned, h.weights.len());
                        if r2t_obs::enabled(r2t_obs::Level::Full) {
                            r2t_obs::event(
                                "exec.wcoj.worker",
                                &[
                                    ("worker", Attr::U64(w as u64)),
                                    ("values", Attr::U64(assigned as u64)),
                                    ("bindings", Attr::U64(h.weights.len() as u64)),
                                    ("intersections", Attr::U64(h.intersections)),
                                ],
                            );
                        }
                        h
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("wcoj worker panicked")).collect()
        });
        let mut merged = Harvest::default();
        let stride = self.natoms + 1;
        for h in harvests {
            let base = merged.weights.len() as u32;
            merged.emits.reserve(h.emits.len());
            for rec in h.emits.chunks_exact(stride) {
                merged.emits.extend_from_slice(&rec[..self.natoms]);
                merged.emits.push(rec[self.natoms] + base);
            }
            merged.bindings.extend_from_slice(&h.bindings);
            merged.weights.extend_from_slice(&h.weights);
            merged.intersections += h.intersections;
            merged.seeks += h.seeks;
            merged.max_depth = merged.max_depth.max(h.max_depth);
        }
        merged
    }

    /// Materializes the first variable's intersected domain (used only to
    /// size and partition the parallel fan-out).
    fn level0_values(&self, shared: &Shared<'_>) -> Vec<u32> {
        let members = &self.atoms_at_level[0];
        let mut sc = LevelScratch::default();
        sc.windows.clear();
        for &(ai, _) in members {
            // Level-0 members intersect in directory space (see above).
            sc.windows.push((0, self.trie(ai).dir_keys.len() as u32));
        }
        // Level 0 has no earlier variables, so only constant bounds apply.
        let lb = &self.level_bounds[0];
        let mut values = Vec::new();
        intersect_level(
            &shared.level_keys[0],
            &shared.level_luts[0],
            &mut sc,
            lb.const_lo,
            lb.const_hi,
            |x, _| values.push(x),
        );
        values
    }

    /// Streams the sorted records into profile shards — chunked across
    /// workers and merged positionally, exactly like the columnar executor's
    /// emit stage.
    fn emit_sorted(
        &self,
        order: &[u32],
        harvest: &Harvest,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize), EngineError> {
        let workers =
            if order.len() < self.threshold.max(1) { 1 } else { self.workers.min(order.len()) };
        if workers <= 1 {
            return self.emit_records(order, harvest, group_vars);
        }
        let chunk = order.len().div_ceil(workers);
        let shards: Vec<Result<(EmitOut, usize), EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(chunk)
                .enumerate()
                .map(|(widx, idxs)| {
                    scope.spawn(move || {
                        let t0 = worker_clock();
                        let out = self.emit_records(idxs, harvest, group_vars);
                        let emitted = out.as_ref().map(|&(_, n)| n).unwrap_or(0);
                        record_worker(t0, self.var_order.len(), widx, idxs.len(), emitted);
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

    /// Emits one contiguous run of sorted records into a fresh shard. The
    /// per-record work mirrors the columnar `emit_range` exactly: predicate
    /// and weight were already applied at the leaf, so what is left is
    /// lineage packing, projection, and grouping.
    fn emit_records(
        &self,
        idxs: &[u32],
        harvest: &Harvest,
        group_vars: Option<&[Var]>,
    ) -> Result<(EmitOut, usize), EngineError> {
        let stride = self.natoms + 1;
        let mut out = EmitOut::empty(group_vars.is_some());
        let mut gkey: Vec<u32> = Vec::new();
        let mut pkey: Vec<u32> = Vec::new();
        // Bindings hold ordered keys; everything leaving the executor
        // (lineage, group keys, projection keys) speaks interner ids.
        let to_id = |k: u32| if k == UNBOUND { k } else { self.id_of_ord[k as usize] };
        for &i in idxs {
            let rec = &harvest.emits[i as usize * stride..(i as usize + 1) * stride];
            let bidx = rec[self.natoms] as usize;
            let b = &harvest.bindings[bidx * self.nvars..(bidx + 1) * self.nvars];
            let w = harvest.weights[bidx];
            let refs = self
                .private_vars
                .iter()
                .map(|&(pidx, var)| pack_private_key(pidx, to_id(b[var as usize])));
            let builder = match (&mut out, group_vars) {
                (EmitOut::Flat(bld), _) => bld,
                (EmitOut::Grouped(acc), Some(gv)) => {
                    gkey.clear();
                    gkey.extend(gv.iter().map(|&v| to_id(b[v as usize])));
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
                    pkey.extend(proj.iter().map(|&v| to_id(b[v as usize])));
                    builder.add_projected_result(&pkey, w, w, refs)?;
                }
            }
        }
        Ok((out, idxs.len()))
    }
}

// ---------------------------------------------------------------------------
// Enumeration.
// ---------------------------------------------------------------------------

/// Immutable enumeration context shared across workers: the plan plus the
/// per-level key slices (resolved once so the hot loop never re-derives
/// them).
struct Shared<'p> {
    plan: &'p WcojPlan<'p>,
    /// `level_keys[l][m]` — the sorted key column member `m` of level `l`
    /// intersects over.
    level_keys: Vec<Vec<&'p [u32]>>,
    /// `level_luts[l][m]` — the member's O(1) seek table when it intersects
    /// over its trie's directory (depth 0), `None` otherwise. Directory
    /// keys are distinct, so a `Some` member's runs always have length 1.
    level_luts: Vec<Vec<Option<&'p [u32]>>>,
}

impl<'p> Shared<'p> {
    fn new(plan: &'p WcojPlan<'p>) -> Shared<'p> {
        let level_keys = plan
            .atoms_at_level
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&(ai, depth)| {
                        let t = plan.trie(ai);
                        // A depth-0 member's window is always the full
                        // root, so it intersects over the distinct-key
                        // directory instead of the per-row key column.
                        if depth == 0 {
                            t.dir_keys.as_slice()
                        } else {
                            t.keys[depth].as_slice()
                        }
                    })
                    .collect()
            })
            .collect();
        let level_luts = plan
            .atoms_at_level
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&(ai, depth)| (depth == 0).then(|| plan.trie(ai).dir_seek.as_slice()))
                    .collect()
            })
            .collect();
        Shared { plan, level_keys, level_luts }
    }
}

/// Per-worker mutable enumeration state. Everything the recursion touches is
/// pooled here so the hot path never allocates.
struct State {
    /// Per-atom stack of trie windows; the top is the atom's current node.
    ranges: Vec<Vec<(u32, u32)>>,
    /// Current value binding, indexed by variable id (`UNBOUND` for
    /// variables not yet — or never — bound).
    binding: Vec<u32>,
    /// Surviving value bindings, `nvars` ids each.
    bindings: Vec<u32>,
    /// Per-binding aggregate weight.
    weights: Vec<f64>,
    /// Emission records, `natoms + 1` u32s each: per-atom row ids in
    /// pipeline order, then the binding index.
    emits: Vec<u32>,
    /// Value scratch for predicate/weight evaluation.
    scratch: Vec<Value>,
    /// Per-level intersection scratch (taken/restored around recursion).
    pools: Vec<LevelScratch>,
    /// Leaf cross-product scratch: per pipeline slot, the row window and the
    /// odometer cursor.
    leaf_windows: Vec<(u32, u32)>,
    odo: Vec<u32>,
    intersections: u64,
    seeks: u64,
    max_depth: u64,
}

/// Totals carried out of one worker's enumeration.
#[derive(Default)]
struct Harvest {
    emits: Vec<u32>,
    bindings: Vec<u32>,
    weights: Vec<f64>,
    intersections: u64,
    seeks: u64,
    max_depth: u64,
}

impl State {
    fn new(plan: &WcojPlan<'_>) -> State {
        let ranges =
            (0..plan.natoms).map(|ai| vec![(0u32, plan.trie(ai).len())]).collect::<Vec<_>>();
        State {
            ranges,
            binding: vec![UNBOUND; plan.nvars],
            bindings: Vec::new(),
            weights: Vec::new(),
            emits: Vec::new(),
            scratch: vec![Value::Int(i64::MIN); plan.nvars],
            pools: (0..plan.var_order.len()).map(|_| LevelScratch::default()).collect(),
            leaf_windows: vec![(0, 0); plan.natoms],
            odo: vec![0; plan.natoms],
            intersections: 0,
            seeks: 0,
            max_depth: 0,
        }
    }

    fn into_harvest(self) -> Harvest {
        Harvest {
            emits: self.emits,
            bindings: self.bindings,
            weights: self.weights,
            intersections: self.intersections,
            seeks: self.seeks,
            max_depth: self.max_depth,
        }
    }
}

/// Reusable per-level intersection arrays; `intersections`/`seeks` tallies
/// accumulate here while the level owns the scratch and are drained back
/// into the [`State`] afterwards.
#[derive(Default)]
struct LevelScratch {
    windows: Vec<(u32, u32)>,
    subs: Vec<(u32, u32)>,
    ptrs: Vec<u32>,
    ends: Vec<u32>,
    intersections: u64,
    seeks: u64,
}

/// Seeks one member to the first position with key `>= target`: an O(1)
/// table lookup when the member intersects over its trie directory, a
/// gallop otherwise.
#[inline]
fn seek_ge(keys: &[u32], lut: Option<&[u32]>, lo: u32, hi: u32, target: u32) -> u32 {
    match lut {
        Some(l) => l[target as usize].max(lo),
        None => gallop_ge(keys, lo, hi, target),
    }
}

/// Run delimiting: directory keys are distinct, so a `lut` member's run is
/// always exactly one position.
#[inline]
fn seek_run_end(keys: &[u32], lut: Option<&[u32]>, p: u32, hi: u32) -> u32 {
    if lut.is_some() {
        p + 1
    } else {
        run_end(keys, p, hi)
    }
}

/// Visits every value in the intersection of the members' current key
/// windows, restricted to ordered keys in `key_lo..key_hi`, in ascending
/// order. `visit(x, subs)` receives the value and each member's sub-window
/// (the run of positions whose key equals `x`). Classic leapfrog: repeatedly
/// seek every member to the current maximum key until all agree.
fn intersect_level(
    keys: &[&[u32]],
    luts: &[Option<&[u32]>],
    sc: &mut LevelScratch,
    key_lo: u32,
    key_hi: u32,
    mut visit: impl FnMut(u32, &[(u32, u32)]),
) {
    if key_lo >= key_hi {
        return;
    }
    let k = keys.len();
    sc.ptrs.clear();
    sc.ends.clear();
    for (m, &(lo, hi)) in sc.windows.iter().enumerate() {
        let lo = if key_lo > 0 {
            sc.seeks += 1;
            seek_ge(keys[m], luts[m], lo, hi, key_lo)
        } else {
            lo
        };
        if lo >= hi {
            return;
        }
        sc.ptrs.push(lo);
        sc.ends.push(hi);
    }
    if k == 1 {
        // Single membership: every key run is an intersection value.
        let (keys, lut) = (keys[0], luts[0]);
        let (mut p, hi) = (sc.ptrs[0], sc.ends[0]);
        while p < hi {
            let x = keys[p as usize];
            if x >= key_hi {
                return;
            }
            let end = seek_run_end(keys, lut, p, hi);
            sc.intersections += 1;
            sc.seeks += 1;
            sc.subs.clear();
            sc.subs.push((p, end));
            visit(x, &sc.subs);
            p = end;
        }
        return;
    }
    if k == 2 {
        // Binary intersection — the dominant shape for graph patterns —
        // with the generic machinery peeled away.
        let (ka, kb) = (keys[0], keys[1]);
        let (la, lb) = (luts[0], luts[1]);
        let (mut pa, mut pb) = (sc.ptrs[0], sc.ptrs[1]);
        let (ea, eb) = (sc.ends[0], sc.ends[1]);
        loop {
            let xa = ka[pa as usize];
            let xb = kb[pb as usize];
            let x = xa.max(xb);
            // Any future match is >= x, so the range bound ends everything.
            if x >= key_hi {
                return;
            }
            if xa < x {
                sc.seeks += 1;
                pa = seek_ge(ka, la, pa, ea, x);
                if pa >= ea {
                    return;
                }
            } else if xb < x {
                sc.seeks += 1;
                pb = seek_ge(kb, lb, pb, eb, x);
                if pb >= eb {
                    return;
                }
            } else {
                let ra = seek_run_end(ka, la, pa, ea);
                let rb = seek_run_end(kb, lb, pb, eb);
                sc.intersections += 1;
                sc.seeks += 2;
                sc.subs.clear();
                sc.subs.push((pa, ra));
                sc.subs.push((pb, rb));
                visit(x, &sc.subs);
                pa = ra;
                pb = rb;
                if pa >= ea || pb >= eb {
                    return;
                }
            }
        }
    }
    'outer: loop {
        let mut x = 0u32;
        for m in 0..k {
            x = x.max(keys[m][sc.ptrs[m] as usize]);
        }
        if x >= key_hi {
            break 'outer;
        }
        // Seek everyone to >= x; whenever someone overshoots, raise x and
        // go again. Pointers only move forward, so this terminates.
        loop {
            let mut aligned = true;
            for m in 0..k {
                if keys[m][sc.ptrs[m] as usize] < x {
                    let np = seek_ge(keys[m], luts[m], sc.ptrs[m], sc.ends[m], x);
                    sc.seeks += 1;
                    if np >= sc.ends[m] {
                        break 'outer;
                    }
                    sc.ptrs[m] = np;
                    if keys[m][np as usize] > x {
                        aligned = false;
                    }
                }
            }
            if aligned {
                break;
            }
            for m in 0..k {
                x = x.max(keys[m][sc.ptrs[m] as usize]);
            }
        }
        // Alignment may have pushed x past the admissible range.
        if x >= key_hi {
            break 'outer;
        }
        // All members sit on a run of x: delimit the runs and visit.
        sc.intersections += 1;
        sc.subs.clear();
        for m in 0..k {
            let end = seek_run_end(keys[m], luts[m], sc.ptrs[m], sc.ends[m]);
            sc.seeks += 1;
            sc.subs.push((sc.ptrs[m], end));
        }
        visit(x, &sc.subs);
        for m in 0..k {
            sc.ptrs[m] = sc.subs[m].1;
            if sc.ptrs[m] == sc.ends[m] {
                break 'outer;
            }
        }
    }
}

/// Recursive variable-at-a-time enumeration from `level` downwards.
fn enumerate(sh: &Shared<'_>, st: &mut State, level: usize) {
    let plan = sh.plan;
    if level == plan.var_order.len() {
        leaf(sh, st);
        return;
    }
    st.max_depth = st.max_depth.max(level as u64 + 1);
    let members = &plan.atoms_at_level[level];
    let var = plan.var_order[level] as usize;
    let (key_lo, key_hi) = plan.bounds_at(&st.binding, level);
    let mut sc = std::mem::take(&mut st.pools[level]);
    sc.windows.clear();
    for &(ai, depth) in members {
        sc.windows.push(if depth == 0 {
            // Depth-0 windows are the full root, expressed in the trie's
            // distinct-key directory space (matching `Shared::level_keys`).
            (0, plan.trie(ai).dir_keys.len() as u32)
        } else {
            *st.ranges[ai].last().expect("window present")
        });
    }
    intersect_level(
        &sh.level_keys[level],
        &sh.level_luts[level],
        &mut sc,
        key_lo,
        key_hi,
        |x, subs| {
            for (m, &(ai, depth)) in members.iter().enumerate() {
                let sub = subs[m];
                // Translate directory sub-windows back to row space before
                // they become deeper levels' (or the leaf's) windows.
                st.ranges[ai].push(if depth == 0 {
                    let t = plan.trie(ai);
                    (t.dir_lo[sub.0 as usize], t.dir_lo[sub.1 as usize])
                } else {
                    sub
                });
            }
            st.binding[var] = x;
            enumerate(sh, st, level + 1);
            for &(ai, _) in members {
                st.ranges[ai].pop();
            }
        },
    );
    st.intersections += sc.intersections;
    st.seeks += sc.seeks;
    sc.intersections = 0;
    sc.seeks = 0;
    st.pools[level] = sc;
}

/// A complete value binding: apply predicate and weight once, then emit one
/// record per combination of matching rows (bag semantics — every duplicate
/// row joins separately, exactly as the columnar probe does).
fn leaf(sh: &Shared<'_>, st: &mut State) {
    let plan = sh.plan;
    for &v in &plan.needed_vars {
        let id = plan.id_of_ord[st.binding[v as usize] as usize];
        st.scratch[v as usize] = plan.interner.resolve(id).clone();
    }
    if !plan.q.predicate.eval(&st.scratch) {
        return;
    }
    let w = plan.q.aggregate.weight(&st.scratch);
    if w == 0.0 {
        return;
    }
    let bidx = st.weights.len() as u32;
    st.bindings.extend_from_slice(&st.binding);
    st.weights.push(w);
    let mut single = true;
    for (slot, &ai) in plan.pipeline.iter().enumerate() {
        let win = *st.ranges[ai].last().expect("window present");
        st.leaf_windows[slot] = win;
        single &= win.1 - win.0 == 1;
    }
    if single {
        // Overwhelmingly common: one matching row per atom.
        for (slot, &ai) in plan.pipeline.iter().enumerate() {
            st.emits.push(plan.trie(ai).rows[st.leaf_windows[slot].0 as usize]);
        }
        st.emits.push(bidx);
        return;
    }
    // Odometer over the row windows (duplicate rows / zero-column atoms).
    for (slot, win) in st.leaf_windows.iter().enumerate() {
        if win.0 >= win.1 {
            // A zero-column atom over an empty table: no combinations.
            st.bindings.truncate(st.bindings.len() - plan.nvars);
            st.weights.pop();
            return;
        }
        st.odo[slot] = win.0;
    }
    loop {
        for (slot, &ai) in plan.pipeline.iter().enumerate() {
            st.emits.push(plan.trie(ai).rows[st.odo[slot] as usize]);
        }
        st.emits.push(bidx);
        let mut slot = plan.natoms;
        loop {
            if slot == 0 {
                return;
            }
            slot -= 1;
            st.odo[slot] += 1;
            if st.odo[slot] < st.leaf_windows[slot].1 {
                break;
            }
            st.odo[slot] = st.leaf_windows[slot].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{
        profile, profile_grouped_with_stats_src, profile_reference, profile_with_stats_src,
        Strategy,
    };
    use crate::instance::Instance;
    use crate::query::{atom, CmpOp, Expr, Predicate};
    use crate::schema::graph_schema_node_dp;

    fn wcoj_opts() -> ExecOptions {
        ExecOptions { strategy: Strategy::Wcoj, ..ExecOptions::default() }
    }

    fn columnar_opts() -> ExecOptions {
        ExecOptions { strategy: Strategy::Columnar, ..ExecOptions::default() }
    }

    fn fixture() -> (Schema, Instance) {
        // Triangle 0-1-2, a square 3-4-5-6, and a pendant 0-6.
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..7).map(|i| vec![Value::Int(i)]));
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (0, 6)] {
            edges.push(vec![Value::Int(a), Value::Int(b)]);
            edges.push(vec![Value::Int(b), Value::Int(a)]);
        }
        inst.insert_all("Edge", edges);
        (s, inst)
    }

    fn shapes() -> Vec<Query> {
        vec![
            Query::count(vec![atom("Edge", &[0, 1])]),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])]),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])])
                .with_predicate(Predicate::And(vec![
                    Predicate::cmp_vars(0, CmpOp::Lt, 1),
                    Predicate::cmp_vars(1, CmpOp::Lt, 2),
                ])),
            Query::count(vec![
                atom("Edge", &[0, 1]),
                atom("Edge", &[1, 2]),
                atom("Edge", &[2, 3]),
                atom("Edge", &[3, 0]),
            ])
            .with_predicate(Predicate::And(vec![
                Predicate::cmp_vars(0, CmpOp::Lt, 1),
                Predicate::cmp_vars(0, CmpOp::Lt, 2),
                Predicate::cmp_vars(0, CmpOp::Lt, 3),
                Predicate::cmp_vars(1, CmpOp::Lt, 3),
                Predicate::cmp_vars(1, CmpOp::Ne, 2),
            ])),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])]).with_sum(Expr::Var(2)),
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])])
                .with_projection(vec![0]),
            Query::count(vec![atom("Edge", &[0, 0])]),
            Query::count(vec![atom("Node", &[0]), atom("Node", &[1])]),
        ]
    }

    #[test]
    fn wcoj_matches_reference_and_columnar() {
        let (s, inst) = fixture();
        for q in shapes() {
            let (wcoj, _) =
                profile_with_stats_src(&s, Source::Rows(&inst), &q, &wcoj_opts()).unwrap();
            let (col, _) =
                profile_with_stats_src(&s, Source::Rows(&inst), &q, &columnar_opts()).unwrap();
            let (slow, _) = profile_reference(&s, &inst, &q).unwrap();
            assert_eq!(wcoj, col, "{q:?}");
            assert_eq!(wcoj, slow, "{q:?}");
        }
    }

    #[test]
    fn forced_parallel_is_deterministic() {
        let (s, inst) = fixture();
        for q in shapes() {
            let seq = profile_with_stats_src(&s, Source::Rows(&inst), &q, &wcoj_opts()).unwrap().0;
            for workers in [2, 3, 5] {
                let opts = ExecOptions {
                    workers: Some(workers),
                    parallel_threshold: 1,
                    strategy: Strategy::Wcoj,
                    ..ExecOptions::default()
                };
                let par = profile_with_stats_src(&s, Source::Rows(&inst), &q, &opts).unwrap().0;
                assert_eq!(seq, par, "workers={workers} {q:?}");
            }
        }
    }

    #[test]
    fn grouped_wcoj_matches_columnar() {
        let (s, inst) = fixture();
        let q =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])]);
        let wcoj = profile_grouped_with_stats_src(&s, Source::Rows(&inst), &q, &[0], &wcoj_opts())
            .unwrap()
            .0;
        let col =
            profile_grouped_with_stats_src(&s, Source::Rows(&inst), &q, &[0], &columnar_opts())
                .unwrap()
                .0;
        assert_eq!(wcoj, col);
        assert!(!wcoj.is_empty());
    }

    #[test]
    fn auto_routes_cyclic_to_wcoj_and_acyclic_to_columnar() {
        use crate::query::join_is_acyclic;
        let tri =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])]);
        assert!(!join_is_acyclic(&tri.atoms));
        let path = Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])]);
        assert!(join_is_acyclic(&path.atoms));
        // Auto must agree with both pinned strategies on results.
        let (s, inst) = fixture();
        for q in [tri, path] {
            let auto = profile(&s, &inst, &q).unwrap();
            let wcoj = profile_with_stats_src(&s, Source::Rows(&inst), &q, &wcoj_opts()).unwrap().0;
            let col =
                profile_with_stats_src(&s, Source::Rows(&inst), &q, &columnar_opts()).unwrap().0;
            assert_eq!(auto, wcoj, "{q:?}");
            assert_eq!(auto, col, "{q:?}");
        }
    }

    #[test]
    fn peak_bindings_track_output_not_intermediates() {
        let (s, inst) = fixture();
        let tri =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])])
                .with_predicate(Predicate::And(vec![
                    Predicate::cmp_vars(0, CmpOp::Lt, 1),
                    Predicate::cmp_vars(1, CmpOp::Lt, 2),
                ]));
        let (p, wstats) =
            profile_with_stats_src(&s, Source::Rows(&inst), &tri, &wcoj_opts()).unwrap();
        assert_eq!(wstats.peak_bindings, p.results.len());
        assert_eq!(wstats.surviving_results, p.results.len());
        assert!(wstats.peak_resident_bytes > 0);
        let (_, cstats) =
            profile_with_stats_src(&s, Source::Rows(&inst), &tri, &columnar_opts()).unwrap();
        assert!(
            cstats.peak_bindings > wstats.peak_bindings,
            "columnar {} vs wcoj {}",
            cstats.peak_bindings,
            wstats.peak_bindings
        );
    }

    #[test]
    fn gallop_finds_lower_bounds() {
        let keys = [1u32, 3, 3, 3, 7, 9, 9, 12];
        assert_eq!(gallop_ge(&keys, 0, 8, 0), 0);
        assert_eq!(gallop_ge(&keys, 0, 8, 1), 0);
        assert_eq!(gallop_ge(&keys, 0, 8, 2), 1);
        assert_eq!(gallop_ge(&keys, 0, 8, 3), 1);
        assert_eq!(gallop_ge(&keys, 0, 8, 4), 4);
        assert_eq!(gallop_ge(&keys, 0, 8, 9), 5);
        assert_eq!(gallop_ge(&keys, 0, 8, 13), 8);
        assert_eq!(gallop_ge(&keys, 2, 5, 3), 2);
        assert_eq!(gallop_ge(&keys, 5, 5, 3), 5);
    }

    #[test]
    fn variable_order_prefers_frequency_then_connectivity() {
        // Triangle: every variable occurs twice; smallest id first.
        let tri =
            Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2]), atom("Edge", &[0, 2])]);
        assert_eq!(variable_order(&tri, tri.num_vars()), vec![0, 1, 2]);
        // Star with a hub: the hub (var 0, in all atoms) leads.
        let star =
            Query::count(vec![atom("Edge", &[1, 0]), atom("Edge", &[0, 2]), atom("Edge", &[0, 3])]);
        assert_eq!(variable_order(&star, star.num_vars())[0], 0);
    }
}
