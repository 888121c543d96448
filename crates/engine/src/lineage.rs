//! Query profiles: the artifact the DP mechanisms consume.
//!
//! Evaluating an SPJA query with lineage produces, per surviving join result
//! `q_k`, its weight `ψ(q_k)` and the set of primary-private tuples it
//! references (`C_j(I)` transposed). Projection queries additionally carry
//! the duplicate groups `D_l(I)`: which join results collapse onto each
//! projected result `p_l`, and that result's weight `ψ(p_l)`.
//!
//! Private tuples are remapped to dense ids `0..num_private`; only tuples
//! referenced by at least one join result receive an id (unreferenced tuples
//! have zero sensitivity and never constrain the truncation LPs).

use crate::EngineError;
use std::collections::HashMap;
use std::hash::Hash;

/// Tolerance for the projected-group weight consistency check: the weight of
/// a projected result must depend only on the projected attributes, so every
/// member must report the same `ψ(p_l)` up to rounding.
const GROUP_WEIGHT_TOL: f64 = 1e-9;

/// One join result: weight and referenced private tuples (dense ids).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// `ψ(q_k)` — non-negative.
    pub weight: f64,
    /// Sorted, deduplicated dense private-tuple ids referenced by the result.
    pub refs: Vec<u32>,
}

/// One projected result `p_l` (only for projection queries).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// `ψ(p_l)` — the weight of the projected result.
    pub weight: f64,
    /// Indices into [`QueryProfile::results`] of the members `D_l(I)`.
    pub members: Vec<u32>,
}

/// The lineage-annotated evaluation of an SPJA query on an instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Number of distinct referenced private tuples.
    pub num_private: usize,
    /// Join results with weights and references.
    pub results: Vec<ResultLine>,
    /// Duplicate groups for projection queries (`None` for SJA queries).
    pub groups: Option<Vec<Group>>,
}

impl QueryProfile {
    /// The true query answer `Q(I)`.
    pub fn query_result(&self) -> f64 {
        match &self.groups {
            Some(groups) => groups.iter().map(|g| g.weight).sum(),
            None => self.results.iter().map(|r| r.weight).sum(),
        }
    }

    /// Per-private-tuple sensitivities `S_Q(I, t_j) = Σ_{k ∈ C_j} ψ(q_k)`
    /// (Eq. 4 of the paper).
    pub fn sensitivities(&self) -> Vec<f64> {
        let mut s = vec![0.0f64; self.num_private];
        for r in &self.results {
            for &j in &r.refs {
                s[j as usize] += r.weight;
            }
        }
        s
    }

    /// `DS_Q(I) = max_j S_Q(I, t_j)` for SJA queries; for SPJA queries this
    /// quantity is the *indirect sensitivity* `IS_Q(I)` (Section 7), which
    /// upper-bounds the (possibly much smaller) true downward sensitivity.
    pub fn max_sensitivity(&self) -> f64 {
        self.sensitivities().into_iter().fold(0.0, f64::max)
    }

    /// Whether every join result references exactly one private tuple.
    /// Naive truncation is a valid (stable) truncation method exactly in
    /// this case; self-joins or multiple primary private relations break it.
    pub fn is_functionally_self_join_free(&self) -> bool {
        self.results.iter().all(|r| r.refs.len() <= 1)
    }

    /// The profile of the *down-neighbour* obtained by deleting private
    /// tuple `j`: every join result referencing `j` disappears (the paper's
    /// neighbourhood: deleting `t_P` deletes all tuples referencing it, and
    /// with them all join results they participate in). Remaining private
    /// ids keep their numbering; `num_private` is unchanged so indices stay
    /// comparable across neighbours.
    pub fn remove_private(&self, j: u32) -> QueryProfile {
        let mut keep = vec![true; self.results.len()];
        let mut results = Vec::with_capacity(self.results.len());
        let mut new_index = vec![u32::MAX; self.results.len()];
        for (k, r) in self.results.iter().enumerate() {
            if r.refs.contains(&j) {
                keep[k] = false;
            } else {
                new_index[k] = results.len() as u32;
                results.push(r.clone());
            }
        }
        let groups = self.groups.as_ref().map(|gs| {
            gs.iter()
                .filter_map(|g| {
                    let members: Vec<u32> = g
                        .members
                        .iter()
                        .filter(|&&m| keep[m as usize])
                        .map(|&m| new_index[m as usize])
                        .collect();
                    (!members.is_empty()).then_some(Group { weight: g.weight, members })
                })
                .collect()
        });
        QueryProfile { num_private: self.num_private, results, groups }
    }

    /// The true downward local sensitivity `DS_Q(I)` computed by definition
    /// (Eq. 6): the largest drop in the query answer over all single-private-
    /// tuple deletions. For SJA queries this equals [`Self::max_sensitivity`];
    /// for projection queries it can be much smaller (Example 7.1).
    pub fn downward_sensitivity(&self) -> f64 {
        let q = self.query_result();
        (0..self.num_private as u32)
            .map(|j| q - self.remove_private(j).query_result())
            .fold(0.0, f64::max)
    }

    /// Summarizes the profile's shape for explain/describe output. Like the
    /// profile itself the summary is *pre-noise* state — `max_sensitivity`
    /// and `query_result` are raw data-dependent quantities, so the summary
    /// must never be released to an analyst without going through a DP
    /// mechanism.
    pub fn summary(&self) -> ProfileSummary {
        ProfileSummary {
            results: self.results.len(),
            num_private: self.num_private,
            query_result: self.query_result(),
            max_sensitivity: self.max_sensitivity(),
            is_projection: self.groups.is_some(),
            max_refs: self.results.iter().map(|r| r.refs.len()).max().unwrap_or(0),
        }
    }

    /// Transposes references into `C_j(I)`: for each private tuple, the
    /// indices of the join results referencing it.
    pub fn reference_lists(&self) -> Vec<Vec<u32>> {
        let mut c: Vec<Vec<u32>> = vec![Vec::new(); self.num_private];
        for (k, r) in self.results.iter().enumerate() {
            for &j in &r.refs {
                c[j as usize].push(k as u32);
            }
        }
        c
    }
}

/// Shape of a [`QueryProfile`], produced by [`QueryProfile::summary`]. Not
/// DP: a planning/debugging artifact, rendered by `explain`-style APIs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Number of surviving join results.
    pub results: usize,
    /// Number of distinct referenced private tuples.
    pub num_private: usize,
    /// The true (noiseless) query answer `Q(I)`.
    pub query_result: f64,
    /// `max_j S_Q(I, t_j)` — `DS_Q(I)` for SJA queries, `IS_Q(I)` for SPJA.
    pub max_sensitivity: f64,
    /// Whether the query has a duplicate-removing projection.
    pub is_projection: bool,
    /// Largest number of private tuples referenced by any single result
    /// (0 for an empty or reference-free profile).
    pub max_refs: usize,
}

impl std::fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} join results; {} referenced private tuples; Q(I) = {}; \
             max tuple sensitivity = {}; projection: {}; \
             max refs/result = {}",
            self.results,
            self.num_private,
            self.query_result,
            self.max_sensitivity,
            self.is_projection,
            self.max_refs,
        )
    }
}

/// Builds a [`QueryProfile`] while remapping arbitrary private-tuple keys
/// (`K`) to dense ids. Projected-result groups are keyed by a separate type
/// `G` (defaulting to `K`) so projection keys need not be encoded into the
/// private-key space.
#[derive(Debug)]
pub struct ProfileBuilder<K: Hash + Eq, G: Hash + Eq = K> {
    ids: HashMap<K, u32>,
    results: Vec<ResultLine>,
    groups: Option<(HashMap<G, u32>, Vec<Group>)>,
}

impl<K: Hash + Eq + Clone, G: Hash + Eq> Default for ProfileBuilder<K, G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, G: Hash + Eq> ProfileBuilder<K, G> {
    /// Creates an empty builder for an SJA query.
    pub fn new() -> Self {
        ProfileBuilder { ids: HashMap::new(), results: Vec::new(), groups: None }
    }

    /// Dense id of a private tuple key (allocating on first sight).
    pub fn private_id(&mut self, key: K) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(key).or_insert(next)
    }

    /// Adds a join result with weight `psi` referencing the given private
    /// tuples; returns the result index. Duplicate references are merged.
    pub fn add_result<I: IntoIterator<Item = K>>(&mut self, psi: f64, refs: I) -> u32 {
        let mut ids: Vec<u32> = refs.into_iter().map(|k| self.private_id(k)).collect();
        ids.sort_unstable();
        ids.dedup();
        self.results.push(ResultLine { weight: psi, refs: ids });
        (self.results.len() - 1) as u32
    }

    /// Adds a join result that belongs to projected-result group `group_key`
    /// with group weight `group_psi`. Fails with
    /// [`EngineError::InconsistentGroupWeight`] when a later member reports a
    /// different group weight — the projected weight must depend only on the
    /// projected attributes, so a mismatch means the query is malformed.
    pub fn add_projected_result<I: IntoIterator<Item = K>>(
        &mut self,
        group_key: G,
        group_psi: f64,
        result_psi: f64,
        refs: I,
    ) -> Result<u32, EngineError> {
        let idx = self.add_result(result_psi, refs);
        let (group_ids, groups) = self.groups.get_or_insert_with(|| (HashMap::new(), Vec::new()));
        let gid = *group_ids.entry(group_key).or_insert_with(|| {
            groups.push(Group { weight: group_psi, members: Vec::new() });
            (groups.len() - 1) as u32
        });
        let expected = groups[gid as usize].weight;
        if (expected - group_psi).abs() > GROUP_WEIGHT_TOL {
            return Err(EngineError::InconsistentGroupWeight { expected, got: group_psi });
        }
        groups[gid as usize].members.push(idx);
        Ok(gid)
    }

    /// Finalizes the profile.
    pub fn build(self) -> QueryProfile {
        QueryProfile {
            num_private: self.ids.len(),
            results: self.results,
            groups: self.groups.map(|(_, g)| g),
        }
    }
}

/// Packs a private-tuple reference — primary-private relation index plus the
/// *interned* id of its primary-key value (see [`crate::interner`]) — into
/// the raw `u64` key consumed by [`IdProfileBuilder`].
#[inline]
pub fn pack_private_key(pidx: u32, value_id: u32) -> u64 {
    ((pidx as u64) << 32) | value_id as u64
}

/// The streaming, id-based profile builder used by the columnar executor.
///
/// Where [`ProfileBuilder`] hashes arbitrary keys (cloning a `(u32, Value)`
/// per reference), this builder takes pre-densified keys: private tuples are
/// packed `u64`s from [`pack_private_key`] and projection groups are interned
/// `u32` id tuples, so emission never touches a [`crate::value::Value`].
///
/// Builders are also *mergeable*: each probe worker fills its own shard and
/// the shards are [`IdProfileBuilder::merge`]d in deterministic (chunk)
/// order. Merging preserves first-seen dense-id assignment over the
/// concatenated emission stream, so the final profile is identical to the
/// one a single-threaded pass would produce, regardless of worker count.
#[derive(Debug, Default)]
pub struct IdProfileBuilder {
    ids: HashMap<u64, u32>,
    /// Dense id -> raw key, for remapping during merge.
    keys: Vec<u64>,
    results: Vec<ResultLine>,
    groups: Option<IdGroupTable>,
}

#[derive(Debug, Default)]
struct IdGroupTable {
    ids: HashMap<Box<[u32]>, u32>,
    /// Group id -> raw key, for remapping during merge.
    keys: Vec<Box<[u32]>>,
    groups: Vec<Group>,
}

impl IdGroupTable {
    fn group_id(&mut self, key: &[u32], weight: f64) -> u32 {
        if let Some(&gid) = self.ids.get(key) {
            return gid;
        }
        let gid = self.groups.len() as u32;
        let key: Box<[u32]> = key.into();
        self.ids.insert(key.clone(), gid);
        self.keys.push(key);
        self.groups.push(Group { weight, members: Vec::new() });
        gid
    }
}

impl IdProfileBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IdProfileBuilder::default()
    }

    /// Dense id of a packed private key (allocating on first sight).
    #[inline]
    pub fn private_id(&mut self, key: u64) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids.insert(key, id);
        self.keys.push(key);
        id
    }

    /// Number of results added so far.
    pub fn num_results(&self) -> usize {
        self.results.len()
    }

    /// Adds a join result with weight `psi` referencing the given packed
    /// private keys; returns the result index.
    pub fn add_result<I: IntoIterator<Item = u64>>(&mut self, psi: f64, refs: I) -> u32 {
        let mut ids: Vec<u32> = refs.into_iter().map(|k| self.private_id(k)).collect();
        ids.sort_unstable();
        ids.dedup();
        self.results.push(ResultLine { weight: psi, refs: ids });
        (self.results.len() - 1) as u32
    }

    /// Adds a join result belonging to the projected-result group keyed by
    /// the interned id tuple `group_key`. Fails with
    /// [`EngineError::InconsistentGroupWeight`] on a group-weight mismatch.
    pub fn add_projected_result<I: IntoIterator<Item = u64>>(
        &mut self,
        group_key: &[u32],
        group_psi: f64,
        result_psi: f64,
        refs: I,
    ) -> Result<u32, EngineError> {
        let idx = self.add_result(result_psi, refs);
        let table = self.groups.get_or_insert_with(IdGroupTable::default);
        let gid = table.group_id(group_key, group_psi);
        let expected = table.groups[gid as usize].weight;
        if (expected - group_psi).abs() > GROUP_WEIGHT_TOL {
            return Err(EngineError::InconsistentGroupWeight { expected, got: group_psi });
        }
        table.groups[gid as usize].members.push(idx);
        Ok(gid)
    }

    /// Appends `shard` to this builder, remapping the shard's dense private
    /// ids, group ids, and member indices into this builder's spaces. Raw
    /// keys are allocated in the shard's first-seen order, so merging shards
    /// in emission-chunk order reproduces the sequential profile exactly.
    pub fn merge(&mut self, shard: IdProfileBuilder) -> Result<(), EngineError> {
        let offset = self.results.len() as u32;
        let remap: Vec<u32> = shard.keys.iter().map(|&k| self.private_id(k)).collect();
        self.results.reserve(shard.results.len());
        for r in shard.results {
            let mut refs: Vec<u32> = r.refs.iter().map(|&j| remap[j as usize]).collect();
            // Remapping is injective, so refs stay distinct; restore order.
            refs.sort_unstable();
            self.results.push(ResultLine { weight: r.weight, refs });
        }
        if let Some(sg) = shard.groups {
            let table = self.groups.get_or_insert_with(IdGroupTable::default);
            for (key, g) in sg.keys.iter().zip(sg.groups) {
                let gid = table.group_id(key, g.weight);
                let expected = table.groups[gid as usize].weight;
                if (expected - g.weight).abs() > GROUP_WEIGHT_TOL {
                    return Err(EngineError::InconsistentGroupWeight { expected, got: g.weight });
                }
                let members = &mut table.groups[gid as usize].members;
                members.extend(g.members.iter().map(|&m| m + offset));
            }
        }
        Ok(())
    }

    /// Finalizes the profile.
    pub fn build(self) -> QueryProfile {
        QueryProfile {
            num_private: self.keys.len(),
            results: self.results,
            groups: self.groups.map(|t| t.groups),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_remaps_keys_densely() {
        let mut b: ProfileBuilder<&str> = ProfileBuilder::new();
        b.add_result(1.0, ["alice", "bob"]);
        b.add_result(2.0, ["bob"]);
        let p = b.build();
        assert_eq!(p.num_private, 2);
        assert_eq!(p.query_result(), 3.0);
        let s = p.sensitivities();
        assert_eq!(s, vec![1.0, 3.0]); // alice: 1, bob: 1 + 2
        assert_eq!(p.max_sensitivity(), 3.0);
        assert!(!p.is_functionally_self_join_free());
    }

    #[test]
    fn summary_reflects_shape() {
        let mut b: ProfileBuilder<&str> = ProfileBuilder::new();
        b.add_result(1.0, ["alice", "bob"]);
        b.add_result(2.0, ["bob"]);
        let s = b.build().summary();
        assert_eq!(s.results, 2);
        assert_eq!(s.num_private, 2);
        assert_eq!(s.query_result, 3.0);
        assert_eq!(s.max_sensitivity, 3.0);
        assert!(!s.is_projection);
        assert_eq!(s.max_refs, 2);
        assert!(s.to_string().contains("2 join results"));
    }

    #[test]
    fn duplicate_refs_merged() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(1.0, [7, 7, 7]);
        let p = b.build();
        assert_eq!(p.results[0].refs, vec![0]);
        assert!(p.is_functionally_self_join_free());
    }

    #[test]
    fn reference_lists_transpose() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(1.0, [0, 1]);
        b.add_result(1.0, [1]);
        let p = b.build();
        let c = p.reference_lists();
        assert_eq!(c[0], vec![0]);
        assert_eq!(c[1], vec![0, 1]);
    }

    #[test]
    fn projection_groups_counted_once() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        // Two join results collapsing onto one projected result of weight 1.
        b.add_projected_result(100, 1.0, 1.0, [1]).unwrap();
        b.add_projected_result(100, 1.0, 1.0, [2]).unwrap();
        b.add_projected_result(200, 1.0, 1.0, [1]).unwrap();
        let p = b.build();
        assert_eq!(p.query_result(), 2.0);
        assert_eq!(p.results.len(), 3);
        let g = p.groups.as_ref().unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].members, vec![0, 1]);
    }

    #[test]
    fn inconsistent_group_weight_is_an_error() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_projected_result(100, 1.0, 1.0, [1]).unwrap();
        let err = b.add_projected_result(100, 2.0, 2.0, [2]).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentGroupWeight { .. }));
        // Id-based builder enforces the same invariant.
        let mut ib = IdProfileBuilder::new();
        ib.add_projected_result(&[7], 1.0, 1.0, [1]).unwrap();
        let err = ib.add_projected_result(&[7], 2.0, 2.0, [2]).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentGroupWeight { .. }));
    }

    #[test]
    fn id_builder_matches_generic_builder() {
        let mut a: ProfileBuilder<u64> = ProfileBuilder::new();
        a.add_result(1.0, [10, 20]);
        a.add_result(2.0, [20]);
        let mut b = IdProfileBuilder::new();
        b.add_result(1.0, [10, 20]);
        b.add_result(2.0, [20]);
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn shard_merge_reproduces_sequential_profile() {
        // One sequential pass over six results...
        let emissions: [(f64, [u64; 2]); 6] = [
            (1.0, [5, 3]),
            (2.0, [3, 8]),
            (1.0, [9, 5]),
            (4.0, [8, 1]),
            (1.0, [1, 5]),
            (2.0, [2, 9]),
        ];
        let mut seq = IdProfileBuilder::new();
        for (w, refs) in emissions {
            seq.add_result(w, refs);
        }
        let seq = seq.build();
        // ...must equal any contiguous chunking merged in order.
        for split in [(2, 4), (1, 5), (3, 3), (6, 0)] {
            let mut shards =
                vec![IdProfileBuilder::new(), IdProfileBuilder::new(), IdProfileBuilder::new()];
            for (i, (w, refs)) in emissions.iter().enumerate() {
                let s = if i < split.0 {
                    0
                } else if i < split.0 + split.1 {
                    1
                } else {
                    2
                };
                shards[s].add_result(*w, refs.iter().copied());
            }
            let mut merged = IdProfileBuilder::new();
            for s in shards {
                merged.merge(s).unwrap();
            }
            assert_eq!(merged.build(), seq, "chunking {split:?}");
        }
    }

    #[test]
    fn shard_merge_remaps_groups() {
        let mut s0 = IdProfileBuilder::new();
        s0.add_projected_result(&[1], 1.0, 1.0, [10]).unwrap();
        s0.add_projected_result(&[2], 1.0, 1.0, [11]).unwrap();
        let mut s1 = IdProfileBuilder::new();
        s1.add_projected_result(&[2], 1.0, 1.0, [12]).unwrap();
        s1.add_projected_result(&[3], 1.0, 1.0, [10]).unwrap();
        let mut merged = IdProfileBuilder::new();
        merged.merge(s0).unwrap();
        merged.merge(s1).unwrap();
        let p = merged.build();
        assert_eq!(p.results.len(), 4);
        assert_eq!(p.num_private, 3);
        let g = p.groups.as_ref().unwrap();
        assert_eq!(g.len(), 3);
        // Group [2] accumulated members from both shards, in shard order.
        assert_eq!(g[1].members, vec![1, 2]);
        assert_eq!(p.query_result(), 3.0);
    }

    #[test]
    fn shard_merge_detects_cross_shard_weight_mismatch() {
        let mut s0 = IdProfileBuilder::new();
        s0.add_projected_result(&[1], 1.0, 1.0, [10]).unwrap();
        let mut s1 = IdProfileBuilder::new();
        s1.add_projected_result(&[1], 3.0, 3.0, [11]).unwrap();
        let mut merged = IdProfileBuilder::new();
        merged.merge(s0).unwrap();
        let err = merged.merge(s1).unwrap_err();
        assert!(matches!(err, EngineError::InconsistentGroupWeight { .. }));
    }
}

#[cfg(test)]
mod neighbor_tests {
    use super::*;

    #[test]
    fn remove_private_drops_referencing_results() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(1.0, [0, 1]);
        b.add_result(2.0, [1]);
        b.add_result(4.0, [2]);
        let p = b.build();
        let q = p.remove_private(1);
        assert_eq!(q.results.len(), 1);
        assert_eq!(q.query_result(), 4.0);
        assert_eq!(q.num_private, p.num_private);
    }

    #[test]
    fn downward_sensitivity_equals_max_sensitivity_for_sja() {
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        b.add_result(1.0, [0, 1]);
        b.add_result(2.0, [1]);
        b.add_result(4.0, [2]);
        let p = b.build();
        assert_eq!(p.downward_sensitivity(), p.max_sensitivity());
    }

    #[test]
    fn projection_overlap_shrinks_downward_sensitivity() {
        // Example 7.1: two private tuples each covering the same m projected
        // results; removing either changes nothing.
        let m = 5;
        let mut b: ProfileBuilder<u64> = ProfileBuilder::new();
        for l in 0..m {
            b.add_projected_result(l, 1.0, 1.0, [1]).unwrap();
            b.add_projected_result(l, 1.0, 1.0, [2]).unwrap();
        }
        let p = b.build();
        assert_eq!(p.query_result(), m as f64);
        assert_eq!(p.max_sensitivity(), m as f64); // IS_Q(I) = m
        assert_eq!(p.downward_sensitivity(), 0.0); // DS_Q(I) = 0
    }
}
