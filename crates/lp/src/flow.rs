//! Combinatorial kernels for truncation LPs that are max-flows in disguise.
//!
//! **SJA LPs on graph workloads.** On the paper's graph workloads (Section
//! 10: edge counting with `Node` as the primary private relation) every join
//! result references at most two private tuples with unit coefficients, so
//! the truncation LP
//!
//! ```text
//! maximize   Σ_j u_j
//! subject to Σ_{j ∋ k} u_j ≤ τ    for every private tuple k
//!            0 ≤ u_j ≤ ψ_j
//! ```
//!
//! is a *fractional b-matching* LP: private tuples are nodes with uniform
//! capacity τ, results are edges (two references) or pendant half-edges (one
//! reference) with capacity ψ_j. Such LPs are solved exactly — no simplex —
//! by max-flow on the **bipartite double cover**:
//!
//! * every node `k` splits into `k⁺` (fed by `s → k⁺`, capacity τ) and `k⁻`
//!   (drained by `k⁻ → t`, capacity τ);
//! * an edge `j = {a, b}` becomes the arc pair `a⁺ → b⁻` and `b⁺ → a⁻`, each
//!   with capacity ψ_j;
//! * a pendant result `j = {a}` becomes `a⁺ → t` and `s → a⁻`, each ψ_j.
//!
//! Any feasible `u` pushes `u_j` along both of `j`'s arcs (flow `2 Σ u_j`),
//! and conversely `u_j := (f_j¹ + f_j²)/2` of any flow is feasible: summing
//! the `k⁺` out-capacity and `k⁻` in-capacity constraints gives
//! `2 Σ_{j∋k} u_j ≤ 2τ` exactly. So `max-flow = 2 · LP-opt`, for *arbitrary
//! real* τ and ψ — no integrality needed — and when τ and every ψ_j are
//! integral, an integral max-flow (which Dinic's returns on integral input)
//! yields the classic **half-integral** optimal vertex.
//!
//! **Projected LPs (Section 7).** A `SELECT DISTINCT` adds one *static* row
//! per projected result `l`, `v_l − Σ_{k∈D_l} u_k ≤ 0`, and maximizes
//! `Σ_l v_l` with `v_l ≤ ψ_l`. That LP is a max-flow whenever the private
//! tuples split into two sides such that each result touches at most one
//! tuple per side and every tuple of one side — the *group side* — feeds a
//! single group (TPC-H Q10: a customer determines its group, a supplier
//! does not). The **layered network** has
//!
//! * `s → o` (capacity τ) for every other-side tuple `o`;
//! * one arc per result `k` (capacity ψ_k) from its other-side tuple, or
//!   from `s` when it has none, to its group-side tuple, or straight to its
//!   group when it has none;
//! * `g → l` (capacity τ) from every group-side tuple to the group it feeds;
//! * `l → t` (capacity ψ_l) for every group.
//!
//! A flow is a feasible LP point of equal value: `u_k` is the flow on `k`'s
//! arc and `v_l` the flow on `l → t`, and conservation at the tuples and
//! groups gives the tuple rows and `v_l = Σ_{k∈D_l} u_k`. Conversely any LP
//! optimum can lower `u` until `Σ_{k∈D_l} u_k = v_l` without breaking a row,
//! which is a flow of the same value. So `max-flow = LP-opt`, again for
//! arbitrary real τ and ψ, and integral on integral input. The sides are a
//! fixed function of the LP: the reference graph (tuples joined by
//! two-reference results) is 2-coloured component by component in row
//! order, and a component's group side is the first colour class whose
//! tuples each feed one group.
//!
//! **One incremental session for both networks.** The τ-race solves a family
//! at `τ = 2, 4, …, GS`. Only the τ arcs (`s → k⁺` and `k⁻ → t` on the double
//! cover, `s → o` and `g → l` on the layered network) depend on τ, and their
//! capacities grow with it, so a retained max-flow at τ stays feasible at any
//! τ' > τ and only needs *augmenting* to optimality: [`FlowSession`] sweeps
//! the grid ascending, memoizing each branch value, and the whole race costs
//! roughly one max-flow on the largest branch. The min cut at termination
//! certifies optimality and equals the LP dual bound the early-stop race
//! consumes, with zero gap. Level graphs have depth ≤ 3 on the double cover
//! and ≤ 4 on the layered network, so Dinic's finishes every τ in a handful
//! of phases.
//!
//! A third, even cheaper shape is handled first: when every column of an
//! LP without static rows touches **at most one** sweep row, the LP
//! separates per node into fractional knapsacks with the closed form
//! `Σ_k min(τ, Σ_{j∋k} ψ_j)` ([`ClosedFormKernel`]). Everything else falls
//! back to the revised simplex with an explicit [`FallbackReason`].

use crate::sparse::ColMatrix;
use std::collections::HashMap;

/// Which solver backend a [`crate::SweepProblem`]'s structure admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Every column touches ≤ 1 sweep row with a unit coefficient: the LP
    /// separates into per-node fractional knapsacks with a closed form.
    ClosedForm,
    /// Every column touches ≤ 2 sweep rows with unit coefficients: a
    /// fractional b-matching LP, solved by max-flow on the double cover.
    Matching,
    /// A projected LP whose private tuples split into an other side and a
    /// group side (see the module docs): solved by max-flow on the layered
    /// network.
    Layered,
    /// No special structure detected — solve with the revised simplex.
    Simplex(FallbackReason),
}

impl KernelClass {
    /// The fallback reason, when the class is [`KernelClass::Simplex`].
    pub fn fallback(&self) -> Option<FallbackReason> {
        match self {
            KernelClass::Simplex(r) => Some(*r),
            _ => None,
        }
    }

    fn counter(&self) -> &'static str {
        match self {
            KernelClass::ClosedForm => "lp.kernel.class.closed_form",
            KernelClass::Matching => "lp.kernel.class.matching",
            KernelClass::Layered => "lp.kernel.class.layered",
            KernelClass::Simplex(reason) => reason.counter(),
        }
    }
}

/// Why a sweep structure was routed to the simplex instead of a
/// combinatorial kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The problem has rows that do not sweep with τ and are not projection
    /// group rows `v_l − Σ_{k∈D_l} u_k ≤ 0` (one unit-objective `v_l`,
    /// zero-objective members).
    StaticRows,
    /// A projected LP whose private tuples admit no layered split: an odd
    /// cycle of two-reference results, or a component whose two colour
    /// classes each hold a tuple that feeds two groups.
    NoGroupSide,
    /// Some column touches more than two sweep rows (a join result
    /// referencing ≥ 3 private tuples, e.g. path counting).
    TooManyRefs,
    /// Some constraint coefficient differs from 1 (e.g. a result referencing
    /// the same private tuple twice).
    NonUnitCoefficient,
    /// Some objective coefficient differs from 1.
    NonUnitObjective,
    /// Some variable has a nonzero lower bound.
    NonZeroLower,
    /// Some variable has an infinite or negative upper bound.
    UnboundedColumn,
}

impl FallbackReason {
    /// Stable counter-name suffix for observability.
    pub fn as_str(&self) -> &'static str {
        match self {
            FallbackReason::StaticRows => "static_rows",
            FallbackReason::NoGroupSide => "no_group_side",
            FallbackReason::TooManyRefs => "too_many_refs",
            FallbackReason::NonUnitCoefficient => "non_unit_coefficient",
            FallbackReason::NonUnitObjective => "non_unit_objective",
            FallbackReason::NonZeroLower => "non_zero_lower",
            FallbackReason::UnboundedColumn => "unbounded_column",
        }
    }

    fn counter(&self) -> &'static str {
        match self {
            FallbackReason::StaticRows => "lp.kernel.fallback.static_rows",
            FallbackReason::NoGroupSide => "lp.kernel.fallback.no_group_side",
            FallbackReason::TooManyRefs => "lp.kernel.fallback.too_many_refs",
            FallbackReason::NonUnitCoefficient => "lp.kernel.fallback.non_unit_coefficient",
            FallbackReason::NonUnitObjective => "lp.kernel.fallback.non_unit_objective",
            FallbackReason::NonZeroLower => "lp.kernel.fallback.non_zero_lower",
            FallbackReason::UnboundedColumn => "lp.kernel.fallback.unbounded_column",
        }
    }
}

/// Classifier output: the class plus the kernel built for it (if any).
pub(crate) struct BuiltKernels {
    pub class: KernelClass,
    pub flow: Option<FlowProblem>,
    pub closed: Option<ClosedFormKernel>,
}

/// The frozen LP a [`crate::SweepProblem`] hands the classifier.
pub(crate) struct SweepLp<'a> {
    pub mat: &'a ColMatrix,
    /// Whether each row is a sweep (truncation) row.
    pub is_sweep: &'a [bool],
    pub obj: &'a [f64],
    pub var_lower: &'a [f64],
    pub var_upper: &'a [f64],
    pub row_lower: &'a [f64],
    pub row_upper: &'a [f64],
}

/// What [`classify`] found.
enum Shape {
    ClosedForm,
    Matching,
    Layered(Layering),
}

/// Classifies the sweep structure and builds the kernel when the structure
/// admits one. `O(nnz)`, run once per [`crate::SweepProblem`].
pub(crate) fn build_kernels(lp: &SweepLp<'_>) -> BuiltKernels {
    let built = match classify(lp) {
        Ok(Shape::ClosedForm) => BuiltKernels {
            class: KernelClass::ClosedForm,
            flow: None,
            closed: Some(ClosedFormKernel::build(lp.mat, lp.var_upper)),
        },
        Ok(Shape::Matching) => BuiltKernels {
            class: KernelClass::Matching,
            flow: Some(FlowProblem::double_cover(lp.mat, lp.var_upper)),
            closed: None,
        },
        Ok(Shape::Layered(sides)) => BuiltKernels {
            class: KernelClass::Layered,
            flow: Some(FlowProblem::layered(lp, &sides)),
            closed: None,
        },
        Err(reason) => {
            BuiltKernels { class: KernelClass::Simplex(reason), flow: None, closed: None }
        }
    };
    r2t_obs::counter_add(built.class.counter(), 1);
    built
}

fn classify(lp: &SweepLp<'_>) -> Result<Shape, FallbackReason> {
    if lp.is_sweep.iter().any(|&s| !s) {
        return layering(lp).map(Shape::Layered);
    }
    let mat = lp.mat;
    let mut max_refs = 0usize;
    for j in 0..mat.cols() {
        if lp.obj[j] != 1.0 {
            return Err(FallbackReason::NonUnitObjective);
        }
        if lp.var_lower[j] != 0.0 {
            return Err(FallbackReason::NonZeroLower);
        }
        if !lp.var_upper[j].is_finite() || lp.var_upper[j] < 0.0 {
            return Err(FallbackReason::UnboundedColumn);
        }
        let nnz = mat.col_nnz(j);
        if nnz > 2 {
            return Err(FallbackReason::TooManyRefs);
        }
        // `ColMatrix` merges duplicate entries, so a result referencing the
        // same private tuple twice shows up as a single coefficient of 2.
        if mat.col(j).any(|(_, a)| a != 1.0) {
            return Err(FallbackReason::NonUnitCoefficient);
        }
        max_refs = max_refs.max(nnz);
    }
    Ok(if max_refs <= 1 { Shape::ClosedForm } else { Shape::Matching })
}

/// `feeds` marker: no member column touches the tuple.
const FEEDS_NONE: u32 = u32::MAX;
/// `feeds` marker: the tuple's members lie in two or more groups.
const FEEDS_MANY: u32 = u32::MAX - 1;

/// What a column of a projected LP is in the layered network.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// `v_l` of the group row with this index.
    Group(u32),
    /// `u_k` of a member of the group row with this index.
    Member(u32),
    /// A zero-objective column in no group row: zero at some optimum, so it
    /// stays out of the network.
    Free,
}

/// The layered reading of a projected LP.
struct Layering {
    /// Per column: its role.
    role: Vec<Role>,
    /// Per row: whether the tuple is on the group side (false for group
    /// rows).
    group_side: Vec<bool>,
    /// Per row: the group row a tuple's members all belong to, or
    /// [`FEEDS_NONE`] / [`FEEDS_MANY`] (always `FEEDS_NONE` for group rows).
    feeds: Vec<u32>,
}

/// Reads the static rows as projection group rows and splits the tuples into
/// an other side and a group side (see the module docs).
fn layering(lp: &SweepLp<'_>) -> Result<Layering, FallbackReason> {
    let (mat, is_sweep) = (lp.mat, lp.is_sweep);
    let m = mat.rows();
    if (0..m)
        .any(|i| !is_sweep[i] && (lp.row_upper[i] != 0.0 || lp.row_lower[i] != f64::NEG_INFINITY))
    {
        return Err(FallbackReason::StaticRows);
    }
    let mut role = Vec::with_capacity(mat.cols());
    let mut has_v = vec![false; m];
    for j in 0..mat.cols() {
        if lp.var_lower[j] != 0.0 {
            return Err(FallbackReason::NonZeroLower);
        }
        if !lp.var_upper[j].is_finite() || lp.var_upper[j] < 0.0 {
            return Err(FallbackReason::UnboundedColumn);
        }
        let mut group = None;
        let mut refs = 0usize;
        for (i, a) in mat.col(j) {
            if is_sweep[i] {
                if a != 1.0 {
                    return Err(FallbackReason::NonUnitCoefficient);
                }
                refs += 1;
            } else if group.replace((i, a)).is_some() {
                return Err(FallbackReason::StaticRows);
            }
        }
        role.push(match group {
            None if lp.obj[j] == 0.0 => Role::Free,
            Some((i, a)) if a == 1.0 && lp.obj[j] == 1.0 && refs == 0 && !has_v[i] => {
                has_v[i] = true;
                Role::Group(i as u32)
            }
            Some((i, a)) if a == -1.0 && lp.obj[j] == 0.0 => {
                if refs > 2 {
                    return Err(FallbackReason::TooManyRefs);
                }
                Role::Member(i as u32)
            }
            _ => return Err(FallbackReason::StaticRows),
        });
    }
    if (0..m).any(|i| !is_sweep[i] && !has_v[i]) {
        return Err(FallbackReason::StaticRows);
    }

    // Which group each tuple feeds, and the reference graph: one edge per
    // member touching two tuples.
    let tuples = |j: usize| mat.col(j).map(|(i, _)| i).filter(|&i| is_sweep[i]);
    let mut feeds = vec![FEEDS_NONE; m];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (j, r) in role.iter().enumerate() {
        let Role::Member(g) = *r else { continue };
        let mut ends = [u32::MAX; 2];
        for (e, t) in tuples(j).enumerate() {
            ends[e] = t as u32;
            feeds[t] = match feeds[t] {
                FEEDS_NONE => g,
                f if f == g => g,
                _ => FEEDS_MANY,
            };
        }
        if ends[1] != u32::MAX {
            edges.push((ends[0], ends[1]));
        }
    }
    let mut ptr = vec![0usize; m + 1];
    for &(a, b) in &edges {
        ptr[a as usize + 1] += 1;
        ptr[b as usize + 1] += 1;
    }
    for i in 0..m {
        ptr[i + 1] += ptr[i];
    }
    let mut next = ptr.clone();
    let mut nbr = vec![0u32; 2 * edges.len()];
    for &(a, b) in &edges {
        nbr[next[a as usize]] = b;
        next[a as usize] += 1;
        nbr[next[b as usize]] = a;
        next[b as usize] += 1;
    }

    // 2-colour component by component in row order; colour 0 holds the
    // component's first row, so it wins a tie.
    const UNSET: u8 = u8::MAX;
    let mut colour = vec![UNSET; m];
    let mut group_side = vec![false; m];
    let mut comp: Vec<u32> = Vec::new();
    for r in 0..m {
        if !is_sweep[r] || colour[r] != UNSET {
            continue;
        }
        colour[r] = 0;
        comp.clear();
        comp.push(r as u32);
        let mut head = 0;
        while head < comp.len() {
            let v = comp[head] as usize;
            head += 1;
            for &w in &nbr[ptr[v]..ptr[v + 1]] {
                let w = w as usize;
                if colour[w] == UNSET {
                    colour[w] = 1 - colour[v];
                    comp.push(w as u32);
                } else if colour[w] == colour[v] {
                    return Err(FallbackReason::NoGroupSide);
                }
            }
        }
        let single = |c: u8| {
            comp.iter().all(|&t| colour[t as usize] != c || feeds[t as usize] != FEEDS_MANY)
        };
        let side = match (single(0), single(1)) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => return Err(FallbackReason::NoGroupSide),
        };
        for &t in &comp {
            group_side[t as usize] = colour[t as usize] == side;
        }
    }
    Ok(Layering { role, group_side, feeds })
}

/// The closed form for single-reference structures: the LP separates per
/// sweep row `k` into `max Σ u_j  s.t. Σ u_j ≤ τ, u_j ≤ ψ_j`, whose optimum
/// is `min(τ, S_k)` with `S_k = Σ_{j∋k} ψ_j`; unconstrained columns are
/// fixed at their upper bound. Branch evaluation is a binary search over the
/// sorted row sums.
#[derive(Debug)]
pub struct ClosedFormKernel {
    /// Per-row weight sums `S_k`, ascending.
    sums: Vec<f64>,
    /// `prefix[i] = Σ sums[..i]`.
    prefix: Vec<f64>,
    /// Fixed contribution of columns touching no sweep row.
    fixed: f64,
}

impl ClosedFormKernel {
    fn build(mat: &ColMatrix, var_upper: &[f64]) -> Self {
        let mut sums = vec![0.0f64; mat.rows()];
        let mut fixed = 0.0f64;
        for j in 0..mat.cols() {
            match mat.col(j).next() {
                Some((i, _)) => sums[i] += var_upper[j],
                None => fixed += var_upper[j],
            }
        }
        sums.sort_by(f64::total_cmp);
        let mut prefix = Vec::with_capacity(sums.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for &s in &sums {
            acc += s;
            prefix.push(acc);
        }
        ClosedFormKernel { sums, prefix, fixed }
    }

    /// `Q(I, τ)` for τ > 0: `fixed + Σ_k min(τ, S_k)`.
    pub fn value(&self, tau: f64) -> f64 {
        let idx = self.sums.partition_point(|&s| s <= tau);
        self.fixed + self.prefix[idx] + tau * (self.sums.len() - idx) as f64
    }
}

const SOURCE: u32 = 0;
const SINK: u32 = 1;
/// Unused slot of [`FlowProblem::col_arcs`].
const NO_ARC: u32 = u32::MAX;

/// Arc lists of a network under construction. Arcs come in `(forward,
/// reverse)` pairs `2a, 2a+1`; the reverse twin has capacity 0.
#[derive(Default)]
struct Arcs {
    from: Vec<u32>,
    to: Vec<u32>,
    cap: Vec<f64>,
    is_tau: Vec<bool>,
    source_arcs: Vec<u32>,
    max_cap: f64,
}

impl Arcs {
    /// Adds the arc `f → t` with capacity `cap`, or τ when `tau_arc` (then
    /// `cap` is ignored); returns the forward arc id.
    fn add(&mut self, f: u32, t: u32, cap: f64, tau_arc: bool) -> u32 {
        let id = self.to.len() as u32;
        self.from.extend([f, t]);
        self.to.extend([t, f]);
        self.cap.extend([cap, 0.0]);
        self.is_tau.extend([tau_arc, false]);
        if f == SOURCE {
            self.source_arcs.push(id);
        }
        if !tau_arc {
            self.max_cap = self.max_cap.max(cap);
        }
        id
    }

    /// Freezes the arcs into a network over `num_verts` vertices whose flow
    /// value `F` is worth `fixed + scale·F` in the LP.
    fn finish(
        self,
        num_verts: usize,
        col_arcs: Vec<[u32; 2]>,
        col_base: Vec<f64>,
        fixed: f64,
        scale: f64,
    ) -> FlowProblem {
        // CSR adjacency over arc ids.
        let mut counts = vec![0u32; num_verts + 1];
        for &f in &self.from {
            counts[f as usize + 1] += 1;
        }
        for v in 0..num_verts {
            counts[v + 1] += counts[v];
        }
        let adj_ptr = counts.clone();
        let mut adj = vec![0u32; self.from.len()];
        for (a, &f) in self.from.iter().enumerate() {
            adj[counts[f as usize] as usize] = a as u32;
            counts[f as usize] += 1;
        }
        FlowProblem {
            num_verts,
            to: self.to,
            cap: self.cap,
            is_tau: self.is_tau,
            adj_ptr,
            adj,
            source_arcs: self.source_arcs,
            col_arcs,
            col_base,
            fixed,
            scale,
            max_cap: self.max_cap,
        }
    }
}

/// The immutable τ-parameterised network of a flow-structured sweep family:
/// topology, fixed ψ capacities, and which arcs carry the τ capacity. Built
/// once per [`crate::SweepProblem`] — as the double cover of a matching LP
/// or the layered network of a projected LP (see the module docs) — and
/// shared (by reference) across every worker's [`FlowSession`].
#[derive(Debug)]
pub struct FlowProblem {
    /// Number of vertices, source and sink included.
    num_verts: usize,
    /// Arc heads; arcs come in `(forward, reverse)` pairs `2a, 2a+1`.
    to: Vec<u32>,
    /// Stated capacity per arc (reverse arcs: 0). τ-arcs read the branch's τ
    /// instead — see `is_tau`.
    cap: Vec<f64>,
    /// Whether the arc's capacity is the branch parameter τ.
    is_tau: Vec<bool>,
    /// CSR adjacency: `adj[adj_ptr[v]..adj_ptr[v+1]]` are arc ids out of `v`
    /// (both directions, as usual for residual networks).
    adj_ptr: Vec<u32>,
    adj: Vec<u32>,
    /// Forward arc ids out of the source: the flow value is the sum of their
    /// flows, and the `{s}` cut over them is the cheap racing upper bound.
    source_arcs: Vec<u32>,
    /// Per LP column: the forward arcs carrying it (`NO_ARC` in unused
    /// slots).
    col_arcs: Vec<[u32; 2]>,
    /// Per LP column: its value outside the network (the upper bound of a
    /// column fixed there, else 0).
    col_base: Vec<f64>,
    /// Fixed objective contribution of columns outside the network.
    fixed: f64,
    /// LP objective per unit of flow: ½ on the double cover (every column
    /// crosses it twice), 1 on the layered network.
    scale: f64,
    /// Largest ψ capacity, for scaling the augmentation tolerance.
    max_cap: f64,
}

impl FlowProblem {
    /// The bipartite double cover of a matching-structured LP; node `k` of
    /// the network is sweep row `k`.
    fn double_cover(mat: &ColMatrix, var_upper: &[f64]) -> Self {
        let n = mat.rows();
        let plus = |k: usize| (2 + k) as u32;
        let minus = |k: usize| (2 + n + k) as u32;
        let mut net = Arcs::default();
        for k in 0..n {
            net.add(SOURCE, plus(k), 0.0, true);
            net.add(minus(k), SINK, 0.0, true);
        }
        let mut col_arcs = Vec::with_capacity(mat.cols());
        let mut col_base = vec![0.0f64; mat.cols()];
        let mut fixed = 0.0f64;
        for j in 0..mat.cols() {
            let psi = var_upper[j];
            let mut ends = mat.col(j).map(|(i, _)| i);
            col_arcs.push(match (ends.next(), ends.next()) {
                (None, _) => {
                    fixed += psi;
                    col_base[j] = psi;
                    [NO_ARC; 2]
                }
                (Some(a), None) => {
                    [net.add(plus(a), SINK, psi, false), net.add(SOURCE, minus(a), psi, false)]
                }
                (Some(a), Some(b)) => {
                    [net.add(plus(a), minus(b), psi, false), net.add(plus(b), minus(a), psi, false)]
                }
            });
        }
        net.finish(2 + 2 * n, col_arcs, col_base, fixed, 0.5)
    }

    /// The layered network of a projected LP. Row `i` is vertex `2 + i`: a
    /// tuple for a sweep row, a group for a group row.
    fn layered(lp: &SweepLp<'_>, sides: &Layering) -> Self {
        let m = lp.mat.rows();
        let vert = |i: usize| (2 + i) as u32;
        let mut net = Arcs::default();
        for t in 0..m {
            match (sides.feeds[t], sides.group_side[t]) {
                (FEEDS_NONE, _) => {}
                (g, true) => {
                    net.add(vert(t), vert(g as usize), 0.0, true);
                }
                (_, false) => {
                    net.add(SOURCE, vert(t), 0.0, true);
                }
            }
        }
        let mut col_arcs = Vec::with_capacity(lp.mat.cols());
        for (j, role) in sides.role.iter().enumerate() {
            let psi = lp.var_upper[j];
            col_arcs.push(match *role {
                Role::Free => [NO_ARC; 2],
                Role::Group(l) => [net.add(vert(l as usize), SINK, psi, false), NO_ARC],
                Role::Member(l) => {
                    let (mut tail, mut head) = (SOURCE, vert(l as usize));
                    for (t, _) in lp.mat.col(j).filter(|&(i, _)| lp.is_sweep[i]) {
                        if sides.group_side[t] {
                            head = vert(t);
                        } else {
                            tail = vert(t);
                        }
                    }
                    [net.add(tail, head, psi, false), NO_ARC]
                }
            });
        }
        net.finish(2 + m, col_arcs, vec![0.0; lp.mat.cols()], 0.0, 1.0)
    }

    /// Residuals below this are dust: a saturated arc's leftover rounding
    /// error (≤ 1 ulp of its capacity) must land strictly below, so the
    /// threshold scales with the largest capacity in play — every ψ arc,
    /// the group caps ψ_l included, and τ, which can dwarf them all.
    fn eps(&self, tau: f64) -> f64 {
        1e-12 * (1.0 + self.max_cap.max(tau))
    }

    /// The LP objective carried by a flow of value `flow`.
    fn value_of(&self, flow: f64) -> f64 {
        self.fixed + self.scale * flow
    }

    /// Starts a worker-local solving session with empty flow.
    pub fn session(&self) -> FlowSession<'_> {
        FlowSession {
            p: self,
            flow: vec![0.0; self.to.len()],
            rollback: Vec::new(),
            level: vec![-1; self.num_verts],
            it: vec![0; self.num_verts],
            queue: Vec::with_capacity(self.num_verts),
            cap_tau: 0.0,
            memo: HashMap::new(),
        }
    }
}

/// A min-cut certificate: the source side of the cut and its capacity,
/// which equals the max-flow value (strong duality with zero gap).
#[derive(Debug)]
pub struct MinCut {
    /// Whether each vertex of the network is on the source side.
    pub source_side: Vec<bool>,
    /// Total capacity of the cut at the certified τ.
    pub capacity: f64,
}

/// The racing callback of a solve: `None` for an unconditional solve.
type Racing<'c> = Option<&'c mut dyn FnMut(f64) -> bool>;

/// Offers an upper bound to the racing callback; `false` stops the branch.
fn offer(cb: &mut Racing<'_>, ub: f64) -> bool {
    cb.as_mut().is_none_or(|f| f(ub))
}

/// A worker-local incremental max-flow session over a [`FlowProblem`].
///
/// The session retains its flow across branches: τ capacities grow
/// monotonically with τ, so moving to a larger τ only *augments*. A request
/// for τ above the current frontier first completes every power-of-two grid
/// point in between (ascending), memoizing each — the descending τ-race then
/// costs one max-flow for its first (largest) branch and a memo lookup for
/// every other. A racing stop rolls the flow back to the last completed grid
/// point, so each memoized grid value is a function of the grid point alone:
/// bit-identical for any order of grid requests, kill pattern or worker
/// count. Requests below the frontier that were never memoized solve from
/// scratch into scratch state (the retained chain is untouched).
#[derive(Debug)]
pub struct FlowSession<'a> {
    p: &'a FlowProblem,
    /// Signed flow per arc (reverse arcs carry the negation).
    flow: Vec<f64>,
    /// The flow at the start of the step being augmented, kept while a
    /// racing callback may stop it.
    rollback: Vec<f64>,
    level: Vec<i32>,
    it: Vec<u32>,
    queue: Vec<u32>,
    /// The largest τ the retained flow has been augmented toward.
    cap_tau: f64,
    /// Completed branch values keyed by `tau.to_bits()`.
    memo: HashMap<u64, f64>,
}

impl<'a> FlowSession<'a> {
    /// The LP optimum at `tau` (> 0).
    pub fn solve(&mut self, tau: f64) -> f64 {
        self.run(tau, None).expect("unconditional solve cannot be stopped")
    }

    /// Racing variant: `cb` receives decreasing upper bounds on the *full*
    /// LP optimum at `tau` (from `{s}`-cuts of the residual network during
    /// augmentation, and the exact optimum at completion); returning `false`
    /// abandons the branch with `None`. The step being augmented rolls back;
    /// completed grid points stay memoized.
    pub fn solve_racing(&mut self, tau: f64, cb: &mut dyn FnMut(f64) -> bool) -> Option<f64> {
        self.run(tau, Some(cb))
    }

    fn run(&mut self, tau: f64, mut cb: Racing<'_>) -> Option<f64> {
        debug_assert!(tau > 0.0, "flow kernel branches are strictly positive");
        if let Some(&v) = self.memo.get(&tau.to_bits()) {
            r2t_obs::counter_add("lp.kernel.memo_hits", 1);
            return Some(v);
        }
        if tau >= self.cap_tau {
            // Ascending chain: complete every power-of-two grid point in
            // (cap_tau, tau) first, so the whole τ-race costs one max-flow.
            // Each completed point tightens a concave-chord upper bound on
            // the target's optimum (the LP value function is concave in τ):
            // through points (s₀, v₀), (s₁, v₁) of the chain,
            // `value(τ) ≤ v₁ + (τ - s₁)·(v₁ - v₀)/(s₁ - s₀)`. The anchor
            // (0, fixed) must not exceed value(0⁺): constrained columns
            // vanish at τ = 0, so `fixed` (0 on the layered network) is safe.
            let mut prev = (0.0, self.p.fixed);
            if let Some(&v) = self.memo.get(&self.cap_tau.to_bits()) {
                prev = (self.cap_tau, v);
            }
            let mut best_ub = f64::INFINITY;
            for k in 1u32..63 {
                let step = (1u64 << k) as f64;
                if step >= tau {
                    break;
                }
                if step > self.cap_tau {
                    let v = self.augment_to(step, tau, best_ub, &mut cb)?;
                    let chord = v + (tau - step) * (v - prev.1) / (step - prev.0);
                    prev = (step, v);
                    best_ub = best_ub.min(chord);
                    if !offer(&mut cb, best_ub) {
                        return None;
                    }
                }
            }
            return self.augment_to(tau, tau, best_ub, &mut cb);
        }
        // Below the frontier and never memoized: a from-scratch solve on
        // scratch flow state; the retained ascending chain stays intact.
        r2t_obs::counter_add("lp.kernel.restarts", 1);
        let saved_flow = std::mem::replace(&mut self.flow, vec![0.0; self.p.to.len()]);
        let saved_tau = self.cap_tau;
        self.cap_tau = 0.0;
        let out = self.augment_to(tau, tau, f64::INFINITY, &mut cb);
        self.flow = saved_flow;
        self.cap_tau = saved_tau;
        out
    }

    /// Augments the retained flow to optimality at `tau`, memoizing the
    /// branch value. `bound_tau` (≥ `tau`) is the ascending chain's final
    /// target; racing upper bounds hold for *its* optimum (which dominates
    /// every branch of the chain). `best_ub` is the tightest bound the chain
    /// has established so far. A stop restores the flow and frontier this
    /// call started from.
    fn augment_to(
        &mut self,
        tau: f64,
        bound_tau: f64,
        best_ub: f64,
        cb: &mut Racing<'_>,
    ) -> Option<f64> {
        let floor = self.cap_tau;
        self.cap_tau = self.cap_tau.max(tau);
        let eps = self.p.eps(tau);
        let mut phases = 0u64;
        let mut augments = 0u64;
        while self.bfs(tau) {
            if phases == 0 && cb.is_some() {
                self.rollback.clone_from(&self.flow);
            }
            phases += 1;
            self.it.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(SOURCE, f64::INFINITY, tau);
                if pushed <= eps {
                    break;
                }
                augments += 1;
            }
            // The `{s}` cut at the chain's target τ upper-bounds the target
            // optimum; re-offering a bound lets the race kill this branch
            // once some *other* branch has raised the bar past it.
            if cb.is_some() {
                let scut =
                    self.p.value_of(self.flow_value() + self.residual_out_of_source(bound_tau));
                if !offer(cb, best_ub.min(scut)) {
                    r2t_obs::counter_add("lp.kernel.phases", phases);
                    r2t_obs::counter_add("lp.kernel.augments", augments);
                    std::mem::swap(&mut self.flow, &mut self.rollback);
                    self.cap_tau = floor;
                    return None;
                }
            }
        }
        r2t_obs::counter_add("lp.kernel.phases", phases);
        r2t_obs::counter_add("lp.kernel.augments", augments);
        r2t_obs::counter_add("lp.kernel.solves", 1);
        let value = self.p.value_of(self.flow_value());
        self.memo.insert(tau.to_bits(), value);
        // At completion the min cut is tight: the bound *is* the optimum.
        if tau == bound_tau && !offer(cb, value) {
            return None;
        }
        Some(value)
    }

    fn residual(&self, arc: u32, tau: f64) -> f64 {
        let stated = if self.p.is_tau[arc as usize] { tau } else { self.p.cap[arc as usize] };
        stated - self.flow[arc as usize]
    }

    fn flow_value(&self) -> f64 {
        self.p.source_arcs.iter().map(|&a| self.flow[a as usize]).sum()
    }

    fn residual_out_of_source(&self, tau: f64) -> f64 {
        self.p.source_arcs.iter().map(|&a| self.residual(a, tau).max(0.0)).sum()
    }

    fn bfs(&mut self, tau: f64) -> bool {
        let eps = self.p.eps(tau);
        self.level.iter_mut().for_each(|l| *l = -1);
        self.level[SOURCE as usize] = 0;
        self.queue.clear();
        self.queue.push(SOURCE);
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let (lo, hi) =
                (self.p.adj_ptr[v as usize] as usize, self.p.adj_ptr[v as usize + 1] as usize);
            for &a in &self.p.adj[lo..hi] {
                let u = self.p.to[a as usize];
                if self.level[u as usize] < 0 && self.residual(a, tau) > eps {
                    self.level[u as usize] = self.level[v as usize] + 1;
                    self.queue.push(u);
                }
            }
        }
        self.level[SINK as usize] >= 0
    }

    /// One augmenting path in the level graph (depth ≤ 3 on the double
    /// cover, ≤ 4 on the layered network, so recursion is shallow). Returns
    /// the pushed amount.
    fn dfs(&mut self, v: u32, pushed: f64, tau: f64) -> f64 {
        if v == SINK {
            return pushed;
        }
        let eps = self.p.eps(tau);
        let lo = self.p.adj_ptr[v as usize];
        let hi = self.p.adj_ptr[v as usize + 1];
        while lo + self.it[v as usize] < hi {
            let a = self.p.adj[(lo + self.it[v as usize]) as usize];
            let u = self.p.to[a as usize];
            let r = self.residual(a, tau);
            if self.level[u as usize] == self.level[v as usize] + 1 && r > eps {
                let f = self.dfs(u, pushed.min(r), tau);
                if f > eps {
                    self.flow[a as usize] += f;
                    self.flow[(a ^ 1) as usize] -= f;
                    return f;
                }
            }
            self.it[v as usize] += 1;
        }
        0.0
    }

    /// The min-cut certificate at the session's current τ frontier: vertices
    /// reachable from `s` in the residual network, plus the capacity of the
    /// crossing arcs. After a completed solve `capacity == max-flow`, i.e.
    /// `fixed + scale · capacity` equals the LP optimum — the exact dual
    /// bound.
    pub fn min_cut(&mut self) -> MinCut {
        let tau = self.cap_tau;
        let reached = !self.bfs(tau); // false ⇒ t unreachable ⇒ flow is maximum
        debug_assert!(reached, "min_cut certificate requires a completed solve");
        let source_side: Vec<bool> = self.level.iter().map(|&l| l >= 0).collect();
        let mut capacity = 0.0;
        for a in (0..self.p.to.len()).step_by(2) {
            let f = {
                // Forward arcs only: reverse arcs have stated capacity 0.
                let from = self.p.to[a ^ 1] as usize;
                let to = self.p.to[a] as usize;
                source_side[from] && !source_side[to]
            };
            if f {
                capacity += if self.p.is_tau[a] { tau } else { self.p.cap[a] };
            }
        }
        MinCut { source_side, capacity }
    }

    /// Primal values per LP column at the session's τ frontier: `(f_j¹ +
    /// f_j²)/2` on the double cover, the arc's flow on the layered network,
    /// and the value outside the network for columns without arcs.
    /// Half-integral (double cover) or integral (layered) whenever τ and
    /// every ψ are integers.
    pub fn primal(&self) -> Vec<f64> {
        self.p
            .col_arcs
            .iter()
            .zip(&self.p.col_base)
            .map(|(arcs, &base)| {
                let carried: f64 =
                    arcs.iter().filter(|&&a| a != NO_ARC).map(|&a| self.flow[a as usize]).sum();
                base + self.p.scale * carried
            })
            .collect()
    }

    /// The largest τ the retained flow has been augmented toward.
    pub fn frontier(&self) -> f64 {
        self.cap_tau
    }

    /// Number of distinct completed (memoized) branch values.
    pub fn solved_branches(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, RowBounds, VarBounds};
    use crate::{RevisedSimplex, Status, SweepProblem};

    /// A deterministic ≤2-refs-per-result packing family shaped like the
    /// graph truncation LPs: `n` results over `m` private nodes.
    fn matching_lp(n: usize, m: usize, seed: u64, fractional: bool) -> (Problem, Vec<usize>) {
        let mut p = Problem::new();
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for j in 0..n {
            let psi = match next() % 5 {
                0 => 0.0, // zero-weight results
                k if fractional => 0.25 * k as f64 + 0.5,
                k => k as f64,
            };
            p.add_var(1.0, VarBounds::new(0.0, psi));
            match next() % 8 {
                0 => {} // results referencing no private tuple
                1 | 2 => rows[next() % m].push((j, 1.0)),
                _ => {
                    let a = next() % m;
                    let b = (a + 1 + next() % (m - 1)) % m;
                    rows[a].push((j, 1.0));
                    rows[b].push((j, 1.0));
                }
            }
        }
        let sweep: Vec<usize> =
            rows.iter().map(|terms| p.add_row(RowBounds::at_most(f64::INFINITY), terms)).collect();
        (p, sweep)
    }

    fn simplex_value(p: &mut Problem, sweep: &[usize], tau: f64) -> f64 {
        for &i in sweep {
            p.set_row_bounds(i, RowBounds::at_most(tau));
        }
        let s = RevisedSimplex::new().solve(p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        s.objective
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn classifier_accepts_matching_and_rejects_everything_else() {
        let (p, sweep) = matching_lp(60, 12, 1, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Matching);

        // Three references → too many.
        let mut p = Problem::new();
        for _ in 0..3 {
            p.add_var(1.0, VarBounds::new(0.0, 1.0));
        }
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0), (1, 1.0)]);
        let r2 = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]);
        let r3 = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]);
        let sp = SweepProblem::new(&p, &[r, r2, r3]).unwrap();
        assert_eq!(
            sp.kernel_class(),
            KernelClass::Simplex(FallbackReason::TooManyRefs),
            "column 0 touches three sweep rows"
        );

        // Duplicate reference merges into a coefficient of 2.
        let mut p = Problem::new();
        p.add_var(1.0, VarBounds::new(0.0, 1.0));
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0), (0, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::NonUnitCoefficient));

        // Static rows (projected group rows) bar the kernel.
        let mut p = Problem::new();
        p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_most(0.0), &[(0, 1.0), (1, -1.0)]);
        let r = p.add_row(RowBounds::at_most(1.0), &[(1, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::StaticRows));

        // Non-unit objective.
        let mut p = Problem::new();
        p.add_var(2.0, VarBounds::new(0.0, 1.0));
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::NonUnitObjective));

        // Unbounded column.
        let mut p = Problem::new();
        p.add_var(1.0, VarBounds::non_negative());
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::UnboundedColumn));

        // Single references classify to the closed form.
        let mut p = Problem::new();
        p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_var(1.0, VarBounds::new(0.0, 2.0));
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0), (1, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::ClosedForm);
    }

    #[test]
    fn flow_matches_simplex_across_taus_and_seeds() {
        for seed in 0..6u64 {
            let fractional = seed % 2 == 0;
            let (mut p, sweep) = matching_lp(80, 14, 0xABC0 + seed, fractional);
            let sp = SweepProblem::new(&p, &sweep).unwrap();
            assert_eq!(sp.kernel_class(), KernelClass::Matching);
            let mut sess = sp.flow_session().unwrap();
            // Ascending, descending and repeated requests all agree.
            for tau in [64.0, 32.0, 8.0, 2.0, 1.0, 0.5, 3.0, 8.0, 100.0] {
                let got = sess.solve(tau);
                let want = simplex_value(&mut p, &sweep, tau);
                assert!(rel_close(got, want), "seed={seed} tau={tau}: flow {got} simplex {want}");
            }
        }
    }

    #[test]
    fn incremental_sweep_equals_from_scratch_per_branch() {
        let (p, sweep) = matching_lp(100, 16, 7, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut chained = sp.flow_session().unwrap();
        for k in 1..=7 {
            let tau = (1u64 << k) as f64;
            let chained_v = chained.solve(tau);
            let scratch_v = sp.flow_session().unwrap().solve(tau);
            assert!(
                rel_close(chained_v, scratch_v),
                "tau={tau}: chained {chained_v} scratch {scratch_v}"
            );
        }
        // The descending race order hits the memo for every later branch.
        let mut desc = sp.flow_session().unwrap();
        let first = desc.solve(128.0);
        assert!(first >= 0.0);
        assert_eq!(desc.solved_branches(), 7, "ascending chain memoizes the 2..=128 grid");
    }

    #[test]
    fn half_integral_on_integer_instances() {
        let (mut p, sweep) = matching_lp(60, 10, 3, false);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        let v = sess.solve(4.0);
        let u = sess.primal();
        let mut total = 0.0;
        for (j, &uj) in u.iter().enumerate() {
            let doubled = 2.0 * uj;
            assert!((doubled - doubled.round()).abs() < 1e-9, "u[{j}] = {uj} is not half-integral");
            total += uj;
        }
        assert!(rel_close(total, v), "primal sums to the optimum: {total} vs {v}");
        // Primal feasibility: box bounds and row capacities at τ = 4.
        for &i in &sweep {
            p.set_row_bounds(i, RowBounds::at_most(4.0));
        }
        assert!(p.max_violation(&u) <= 1e-9, "violation {}", p.max_violation(&u));
    }

    #[test]
    fn min_cut_is_tight_at_the_optimum() {
        let (p, sweep) = matching_lp(70, 12, 11, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        for tau in [2.0, 8.0, 64.0] {
            let v = sess.solve(tau);
            let cut = sess.min_cut();
            let dual = cut.capacity;
            let net = sp.flow_problem().unwrap();
            let flow = (v - net.fixed) / net.scale;
            assert!(
                (dual - flow).abs() <= 1e-6 * (1.0 + flow.abs()),
                "tau={tau}: cut {dual} vs flow {flow}"
            );
        }
    }

    #[test]
    fn closed_form_matches_simplex() {
        let mut p = Problem::new();
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 6];
        for j in 0..24 {
            p.add_var(1.0, VarBounds::new(0.0, 0.5 + (j % 4) as f64));
            if j % 5 != 0 {
                rows[j % 6].push((j, 1.0));
            }
        }
        let sweep: Vec<usize> =
            rows.iter().map(|terms| p.add_row(RowBounds::at_most(f64::INFINITY), terms)).collect();
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::ClosedForm);
        let kernel = sp.closed_form().unwrap();
        for tau in [0.25, 1.0, 2.0, 5.0, 100.0] {
            let got = kernel.value(tau);
            let want = simplex_value(&mut p, &sweep, tau);
            assert!(rel_close(got, want), "tau={tau}: closed {got} simplex {want}");
        }
    }

    #[test]
    fn racing_stop_keeps_partial_flow_usable() {
        let (mut p, sweep) = matching_lp(90, 15, 21, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        // Kill immediately: the branch dies, the step rolls back, and the
        // session stays coherent.
        let killed = sess.solve_racing(64.0, &mut |_| false);
        assert!(killed.is_none());
        let got = sess.solve(64.0);
        let want = simplex_value(&mut p, &sweep, 64.0);
        assert!(rel_close(got, want), "after a kill: {got} vs {want}");
    }

    #[test]
    fn racing_bounds_are_valid_and_decreasing_to_the_optimum() {
        let (p, sweep) = matching_lp(120, 18, 31, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        let mut bounds = Vec::new();
        let v = sess
            .solve_racing(32.0, &mut |ub| {
                bounds.push(ub);
                true
            })
            .unwrap();
        assert!(!bounds.is_empty());
        for &ub in &bounds {
            assert!(ub + 1e-9 >= v, "upper bound {ub} below the optimum {v}");
        }
        assert!(
            (bounds.last().unwrap() - v).abs() <= 1e-9 * (1.0 + v.abs()),
            "final bound is the exact optimum"
        );
    }

    #[test]
    fn saturated_taus_return_the_unconstrained_total() {
        let (p, sweep) = matching_lp(50, 9, 41, false);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        let total: f64 = (0..p.num_vars()).map(|j| p.var_bounds(j).upper).sum();
        let v = sess.solve(1e9);
        assert!(rel_close(v, total), "τ past saturation: {v} vs {total}");
    }

    /// A deterministic projected LP laid out as `LpTruncation` builds it
    /// (members `u_k` first, then each group's `v_l` with its static row,
    /// then one sweep row per tuple) that conforms to the
    /// layered shape: `n_group_side` tuples each feed one group, the
    /// `n_other` tuples feed any, and results touch 0, 1 or 2 tuples, at
    /// most one per side.
    fn layered_lp(
        n: usize,
        n_other: usize,
        n_group_side: usize,
        n_groups: usize,
        seed: u64,
        fractional: bool,
    ) -> (Problem, Vec<usize>) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        // Fractional weights are not dyadic, so sums round.
        let weight = |r: usize| match r % 5 {
            0 => 0.0,
            k if fractional => 0.3 * k as f64 + 0.1,
            k => k as f64,
        };
        let home: Vec<usize> = (0..n_group_side).map(|_| next() % n_groups).collect();
        let mut p = Problem::new();
        let mut members: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_groups];
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_other + n_group_side];
        for j in 0..n {
            p.add_var(0.0, VarBounds::new(0.0, weight(next())));
            let other = (next() % 3 != 0).then(|| next() % n_other);
            let mine = (next() % 3 != 0).then(|| next() % n_group_side);
            let g = mine.map_or_else(|| next() % n_groups, |t| home[t]);
            members[g].push((j, -1.0));
            if let Some(o) = other {
                rows[o].push((j, 1.0));
            }
            if let Some(t) = mine {
                rows[n_other + t].push((j, 1.0));
            }
        }
        for terms in &mut members {
            let step = if fractional { 0.7 } else { 1.0 };
            let cap = weight(next()) + step * (next() % 6) as f64;
            let v = p.add_var(1.0, VarBounds::new(0.0, cap));
            terms.push((v, 1.0));
            p.add_row(RowBounds::at_most(0.0), terms);
        }
        let sweep = rows
            .iter()
            .filter(|terms| !terms.is_empty())
            .map(|terms| p.add_row(RowBounds::at_most(f64::INFINITY), terms))
            .collect();
        (p, sweep)
    }

    /// Builds a projected LP from explicit results `(group, refs)` with unit
    /// weights and group caps.
    fn projected(groups: usize, tuples: usize, results: &[(usize, &[usize])]) -> SweepProblem {
        let mut p = Problem::new();
        let mut members: Vec<Vec<(usize, f64)>> = vec![Vec::new(); groups];
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); tuples];
        for (j, &(g, refs)) in results.iter().enumerate() {
            p.add_var(0.0, VarBounds::new(0.0, 1.0));
            members[g].push((j, -1.0));
            for &t in refs {
                rows[t].push((j, 1.0));
            }
        }
        for terms in &mut members {
            let v = p.add_var(1.0, VarBounds::new(0.0, 1.0));
            terms.push((v, 1.0));
            p.add_row(RowBounds::at_most(0.0), terms);
        }
        let sweep: Vec<usize> =
            rows.iter().map(|terms| p.add_row(RowBounds::at_most(f64::INFINITY), terms)).collect();
        SweepProblem::new(&p, &sweep).unwrap()
    }

    #[test]
    fn classifier_reads_projected_group_rows() {
        let (p, sweep) = layered_lp(60, 5, 8, 4, 1, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Layered);

        // Example 7.1: both tuples feed every group, so both sit on the
        // other side and every group-side class is empty.
        let sp = projected(3, 2, &[(0, &[0]), (0, &[1]), (1, &[0]), (1, &[1]), (2, &[0])]);
        assert_eq!(sp.kernel_class(), KernelClass::Layered);

        // Supplier 0 and customers 1, 2: the customers feed one group each.
        let sp = projected(2, 3, &[(0, &[0, 1]), (1, &[0, 2]), (1, &[2])]);
        assert_eq!(sp.kernel_class(), KernelClass::Layered);

        // Three references on one result.
        let sp = projected(1, 3, &[(0, &[0, 1, 2])]);
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::TooManyRefs));

        // An odd cycle of two-reference results admits no two sides.
        let sp = projected(1, 3, &[(0, &[0, 1]), (0, &[1, 2]), (0, &[0, 2])]);
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::NoGroupSide));

        // The 4-cycle 0 - 1 - 2 - 3: colour classes {0, 2} and {1, 3};
        // tuples 0 and 1 each feed two groups.
        let sp = projected(
            2,
            4,
            &[(0, &[0, 1]), (1, &[0, 3]), (1, &[1, 2]), (0, &[2, 3]), (1, &[0]), (0, &[1])],
        );
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::NoGroupSide));

        // A static row that is not a group row (bound 1, not 0).
        let mut p = Problem::new();
        p.add_var(0.0, VarBounds::new(0.0, 1.0));
        p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_most(1.0), &[(1, 1.0), (0, -1.0)]);
        let r = p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]);
        let sp = SweepProblem::new(&p, &[r]).unwrap();
        assert_eq!(sp.kernel_class(), KernelClass::Simplex(FallbackReason::StaticRows));
        assert_eq!(FallbackReason::NoGroupSide.as_str(), "no_group_side");
    }

    #[test]
    fn layered_flow_matches_simplex_across_taus_and_seeds() {
        for seed in 0..6u64 {
            let fractional = seed % 2 == 0;
            let (mut p, sweep) = layered_lp(70, 6, 9, 5, 0x5EED + seed, fractional);
            let sp = SweepProblem::new(&p, &sweep).unwrap();
            assert_eq!(sp.kernel_class(), KernelClass::Layered);
            let mut sess = sp.flow_session().unwrap();
            for tau in [64.0, 32.0, 8.0, 2.0, 1.0, 0.5, 3.0, 8.0, 100.0] {
                let got = sess.solve(tau);
                let want = simplex_value(&mut p, &sweep, tau);
                assert!(rel_close(got, want), "seed={seed} tau={tau}: flow {got} simplex {want}");
            }
        }
    }

    #[test]
    fn min_cut_is_tight_on_the_layered_network() {
        let (p, sweep) = layered_lp(80, 7, 10, 6, 17, true);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        for tau in [1.0, 4.0, 32.0] {
            let v = sess.solve(tau);
            let cut = sess.min_cut();
            assert!(
                (cut.capacity - v).abs() <= 1e-9 * (1.0 + v.abs()),
                "tau={tau}: cut {} vs flow {v}",
                cut.capacity
            );
        }
    }

    #[test]
    fn integral_on_integral_layered_input() {
        let (mut p, sweep) = layered_lp(70, 6, 9, 5, 23, false);
        let sp = SweepProblem::new(&p, &sweep).unwrap();
        let mut sess = sp.flow_session().unwrap();
        let v = sess.solve(4.0);
        assert_eq!(v, v.round(), "optimum {v} is not an integer");
        let x = sess.primal();
        for (j, &xj) in x.iter().enumerate() {
            assert_eq!(xj, xj.round(), "x[{j}] = {xj} is not integral");
        }
        assert_eq!(p.objective_value(&x), v, "primal objective equals the optimum");
        for &i in &sweep {
            p.set_row_bounds(i, RowBounds::at_most(4.0));
        }
        assert!(p.max_violation(&x) <= 1e-9, "violation {}", p.max_violation(&x));
    }

    #[test]
    fn killed_steps_roll_back_to_bitwise_chain_values() {
        let taus: Vec<f64> = (1..=10u32).rev().map(|j| (1u64 << j) as f64).collect();
        // Without the rollback, 3 of these 80 instances (seeds 55, 73, 77)
        // finish a killed chain with different low bits.
        for seed in 0..80u64 {
            let (p, sweep) = layered_lp(300, 20, 30, 9, 0xB175 + seed, true);
            let sp = SweepProblem::new(&p, &sweep).unwrap();
            let mut plain = sp.flow_session().unwrap();
            let want: Vec<f64> = taus.iter().map(|&t| plain.solve(t)).collect();
            // Stop after every k-th bound offered, then finish each branch.
            for k in 1..8 {
                let mut sess = sp.flow_session().unwrap();
                let mut offered = 0;
                for (&tau, &w) in taus.iter().zip(&want) {
                    let raced = sess.solve_racing(tau, &mut |_| {
                        offered += 1;
                        offered % k != 0
                    });
                    let got = raced.unwrap_or_else(|| sess.solve(tau));
                    assert_eq!(got.to_bits(), w.to_bits(), "seed={seed} k={k} tau={tau}");
                }
            }
        }
    }
}
