//! Combinatorial kernels for matching-structured truncation LPs.
//!
//! On the paper's graph workloads (Section 10: edge counting with `Node` as
//! the primary private relation) every join result references at most two
//! private tuples with unit coefficients, so the truncation LP
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
//! yields the classic **half-integral** optimal vertex. The min cut at
//! termination certifies optimality and equals the LP dual bound the
//! early-stop race consumes, with zero gap.
//!
//! The τ-race solves this family at `τ = 2, 4, …, GS`. Source/sink
//! capacities grow monotonically with τ while every other capacity is fixed,
//! so a retained max-flow at τ stays feasible at any τ' > τ and only needs
//! *augmenting* to optimality: [`FlowSession`] sweeps the grid ascending,
//! memoizing each branch value, and the whole race costs roughly one
//! max-flow on the largest branch. Level graphs here have depth ≤ 3
//! (`s → k⁺ → k⁻ → t`), so Dinic's finishes every τ in at most a handful of
//! phases — the near-linear behaviour the classifier is gating on.
//!
//! A second, even cheaper shape is handled first: when every column touches
//! **at most one** sweep row the LP separates per node into fractional
//! knapsacks with the closed form `Σ_k min(τ, Σ_{j∋k} ψ_j)`
//! ([`ClosedFormKernel`]). Everything else falls back to the revised simplex
//! with an explicit [`FallbackReason`].

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
}

/// Why a sweep structure was routed to the simplex instead of a
/// combinatorial kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The problem has rows that do not sweep with τ (e.g. the `v_l ≤ Σ u_k`
    /// group rows of the projected SPJA LP).
    StaticRows,
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

/// Classifies the sweep structure and builds the matching kernel when the
/// structure admits one. `O(nnz)`, run once per [`crate::SweepProblem`].
pub(crate) fn build_kernels(
    mat: &ColMatrix,
    n_static: usize,
    obj: &[f64],
    var_lower: &[f64],
    var_upper: &[f64],
) -> BuiltKernels {
    let class = classify(mat, n_static, obj, var_lower, var_upper);
    match class {
        KernelClass::ClosedForm => {
            r2t_obs::counter_add("lp.kernel.class.closed_form", 1);
            BuiltKernels {
                class,
                flow: None,
                closed: Some(ClosedFormKernel::build(mat, var_upper)),
            }
        }
        KernelClass::Matching => {
            r2t_obs::counter_add("lp.kernel.class.matching", 1);
            BuiltKernels { class, flow: Some(FlowProblem::build(mat, var_upper)), closed: None }
        }
        KernelClass::Simplex(reason) => {
            r2t_obs::counter_add(reason.counter(), 1);
            BuiltKernels { class, flow: None, closed: None }
        }
    }
}

fn classify(
    mat: &ColMatrix,
    n_static: usize,
    obj: &[f64],
    var_lower: &[f64],
    var_upper: &[f64],
) -> KernelClass {
    if n_static > 0 {
        return KernelClass::Simplex(FallbackReason::StaticRows);
    }
    let mut max_refs = 0usize;
    for j in 0..mat.cols() {
        if obj[j] != 1.0 {
            return KernelClass::Simplex(FallbackReason::NonUnitObjective);
        }
        if var_lower[j] != 0.0 {
            return KernelClass::Simplex(FallbackReason::NonZeroLower);
        }
        if !var_upper[j].is_finite() || var_upper[j] < 0.0 {
            return KernelClass::Simplex(FallbackReason::UnboundedColumn);
        }
        let nnz = mat.col_nnz(j);
        if nnz > 2 {
            return KernelClass::Simplex(FallbackReason::TooManyRefs);
        }
        // `ColMatrix` merges duplicate entries, so a result referencing the
        // same private tuple twice shows up as a single coefficient of 2.
        if mat.col(j).any(|(_, a)| a != 1.0) {
            return KernelClass::Simplex(FallbackReason::NonUnitCoefficient);
        }
        max_refs = max_refs.max(nnz);
    }
    if max_refs <= 1 {
        KernelClass::ClosedForm
    } else {
        KernelClass::Matching
    }
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

/// The immutable double-cover network of a matching-structured sweep family:
/// topology, fixed ψ capacities, and which arcs carry the τ capacity. Built
/// once per [`crate::SweepProblem`] and shared (by reference) across every
/// worker's [`FlowSession`].
#[derive(Debug)]
pub struct FlowProblem {
    /// Number of sweep rows (= private tuples with a constraint).
    n_nodes: usize,
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
    /// Forward arc ids out of the source (τ-arcs plus pendant ψ-arcs): the
    /// flow value is the sum of their flows, and the `{s}` cut over them is
    /// the cheap racing upper bound.
    source_arcs: Vec<u32>,
    /// Per column: its two forward arc ids (`u32::MAX` for unconstrained
    /// columns, which are fixed at their upper bound).
    col_arcs: Vec<(u32, u32)>,
    /// Column upper bounds ψ (kept for primal extraction).
    col_upper: Vec<f64>,
    /// Fixed objective contribution of unconstrained columns.
    fixed: f64,
    /// Largest ψ capacity, for scaling the augmentation tolerance.
    max_psi: f64,
}

impl FlowProblem {
    fn build(mat: &ColMatrix, var_upper: &[f64]) -> Self {
        let n = mat.rows();
        let num_verts = 2 + 2 * n;
        let plus = |k: usize| (2 + k) as u32;
        let minus = |k: usize| (2 + n + k) as u32;

        let mut from: Vec<u32> = Vec::new();
        let mut to: Vec<u32> = Vec::new();
        let mut cap: Vec<f64> = Vec::new();
        let mut is_tau: Vec<bool> = Vec::new();
        let mut add_arc = |f: u32, t: u32, c: f64, tau_arc: bool| -> u32 {
            let id = to.len() as u32;
            from.push(f);
            to.push(t);
            cap.push(c);
            is_tau.push(tau_arc);
            from.push(t);
            to.push(f);
            cap.push(0.0);
            is_tau.push(false);
            id
        };

        let mut source_arcs = Vec::with_capacity(n);
        for k in 0..n {
            source_arcs.push(add_arc(SOURCE, plus(k), 0.0, true));
            add_arc(minus(k), SINK, 0.0, true);
        }
        let mut col_arcs = Vec::with_capacity(mat.cols());
        let mut fixed = 0.0f64;
        let mut max_psi = 0.0f64;
        for j in 0..mat.cols() {
            let psi = var_upper[j];
            let mut ends = mat.col(j).map(|(i, _)| i);
            match (ends.next(), ends.next()) {
                (None, _) => {
                    fixed += psi;
                    col_arcs.push((u32::MAX, u32::MAX));
                    continue;
                }
                (Some(a), None) => {
                    let a1 = add_arc(plus(a), SINK, psi, false);
                    let a2 = add_arc(SOURCE, minus(a), psi, false);
                    source_arcs.push(a2);
                    col_arcs.push((a1, a2));
                }
                (Some(a), Some(b)) => {
                    let a1 = add_arc(plus(a), minus(b), psi, false);
                    let a2 = add_arc(plus(b), minus(a), psi, false);
                    col_arcs.push((a1, a2));
                }
            }
            max_psi = max_psi.max(psi);
        }

        // CSR adjacency over arc ids.
        let mut counts = vec![0u32; num_verts + 1];
        for &f in &from {
            counts[f as usize + 1] += 1;
        }
        for v in 0..num_verts {
            counts[v + 1] += counts[v];
        }
        let adj_ptr = counts.clone();
        let mut adj = vec![0u32; from.len()];
        for (a, &f) in from.iter().enumerate() {
            adj[counts[f as usize] as usize] = a as u32;
            counts[f as usize] += 1;
        }

        FlowProblem {
            n_nodes: n,
            to,
            cap,
            is_tau,
            adj_ptr,
            adj,
            source_arcs,
            col_arcs,
            col_upper: var_upper.to_vec(),
            fixed,
            max_psi,
        }
    }

    /// Residuals below this are dust: a saturated arc's leftover rounding
    /// error (≤ 1 ulp of its capacity) must land strictly below, so the
    /// threshold scales with the largest capacity in play — including τ,
    /// which can dwarf every ψ.
    fn eps(&self, tau: f64) -> f64 {
        1e-12 * (1.0 + self.max_psi.max(tau))
    }

    /// Starts a worker-local solving session with empty flow.
    pub fn session(&self) -> FlowSession<'_> {
        FlowSession {
            p: self,
            flow: vec![0.0; self.to.len()],
            level: vec![-1; 2 + 2 * self.n_nodes],
            it: vec![0; 2 + 2 * self.n_nodes],
            queue: Vec::with_capacity(2 + 2 * self.n_nodes),
            cap_tau: 0.0,
            memo: HashMap::new(),
        }
    }
}

/// A min-cut certificate: the source side of the cut and its capacity,
/// which equals the max-flow value (strong duality with zero gap).
#[derive(Debug)]
pub struct MinCut {
    /// Whether each vertex of the double cover is on the source side.
    pub source_side: Vec<bool>,
    /// Total capacity of the cut at the certified τ.
    pub capacity: f64,
}

/// A worker-local incremental max-flow session over a [`FlowProblem`].
///
/// The session retains its flow across branches: source/sink capacities grow
/// monotonically with τ, so moving to a larger τ only *augments*. A request
/// for τ above the current frontier first completes every power-of-two grid
/// point in between (ascending), memoizing each — the descending τ-race then
/// costs one max-flow for its first (largest) branch and a memo lookup for
/// every other. Requests below the frontier that were never memoized solve
/// from scratch into scratch state (the retained chain is untouched).
#[derive(Debug)]
pub struct FlowSession<'a> {
    p: &'a FlowProblem,
    /// Signed flow per arc (reverse arcs carry the negation).
    flow: Vec<f64>,
    level: Vec<i32>,
    it: Vec<u32>,
    queue: Vec<u32>,
    /// The largest τ the retained flow has been augmented toward.
    cap_tau: f64,
    /// Completed branch values keyed by `tau.to_bits()`.
    memo: HashMap<u64, f64>,
}

impl<'a> FlowSession<'a> {
    /// The LP optimum at `tau` (> 0): fixed contribution plus half the
    /// max-flow on the double cover.
    pub fn solve(&mut self, tau: f64) -> f64 {
        self.solve_racing(tau, &mut |_| true).expect("unconditional solve cannot be stopped")
    }

    /// Racing variant: `cb` receives decreasing upper bounds on the *full*
    /// LP optimum at `tau` (from `{s}`-cuts of the residual network during
    /// augmentation, and the exact optimum at completion); returning `false`
    /// abandons the branch with `None`. Partial augmentation is kept — it
    /// remains a feasible flow for every later branch.
    pub fn solve_racing(&mut self, tau: f64, cb: &mut dyn FnMut(f64) -> bool) -> Option<f64> {
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
            // `value(τ) ≤ v₁ + (τ - s₁)·(v₁ - v₀)/(s₁ - s₀)`.
            let mut prev = (0.0, self.p.fixed); // value(0⁺): constrained columns vanish
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
                    let v = self.augment_to(step, tau, best_ub, cb)?;
                    let chord = v + (tau - step) * (v - prev.1) / (step - prev.0);
                    prev = (step, v);
                    best_ub = best_ub.min(chord);
                    if !cb(best_ub) {
                        return None;
                    }
                }
            }
            return self.augment_to(tau, tau, best_ub, cb);
        }
        // Below the frontier and never memoized: a from-scratch solve on
        // scratch flow state; the retained ascending chain stays intact.
        r2t_obs::counter_add("lp.kernel.restarts", 1);
        let saved_flow = std::mem::replace(&mut self.flow, vec![0.0; self.p.to.len()]);
        let saved_tau = self.cap_tau;
        self.cap_tau = 0.0;
        let out = self.augment_to(tau, tau, f64::INFINITY, cb);
        self.flow = saved_flow;
        self.cap_tau = saved_tau;
        out
    }

    /// Augments the retained flow to optimality at `tau`, memoizing the
    /// branch value. `bound_tau` (≥ `tau`) is the ascending chain's final
    /// target; racing upper bounds hold for *its* optimum (which dominates
    /// every branch of the chain). `best_ub` is the tightest bound the chain
    /// has established so far.
    fn augment_to(
        &mut self,
        tau: f64,
        bound_tau: f64,
        best_ub: f64,
        cb: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64> {
        self.cap_tau = self.cap_tau.max(tau);
        let eps = self.p.eps(tau);
        let mut phases = 0u64;
        let mut augments = 0u64;
        while self.bfs(tau) {
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
            let scut =
                self.p.fixed + 0.5 * (self.flow_value() + self.residual_out_of_source(bound_tau));
            if !cb(best_ub.min(scut)) {
                r2t_obs::counter_add("lp.kernel.phases", phases);
                r2t_obs::counter_add("lp.kernel.augments", augments);
                return None;
            }
        }
        r2t_obs::counter_add("lp.kernel.phases", phases);
        r2t_obs::counter_add("lp.kernel.augments", augments);
        r2t_obs::counter_add("lp.kernel.solves", 1);
        let value = self.p.fixed + 0.5 * self.flow_value();
        self.memo.insert(tau.to_bits(), value);
        if tau == bound_tau {
            // At completion the min cut is tight: the bound *is* the optimum.
            if !cb(value) {
                return None;
            }
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
    /// cover, so recursion is shallow). Returns the pushed amount.
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
    /// `fixed + capacity/2` equals the LP optimum — the exact dual bound.
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

    /// Primal values `u_j` per column at the session's τ frontier:
    /// `(f_j¹ + f_j²)/2` for constrained columns, the upper bound for
    /// unconstrained ones. Half-integral whenever τ and every ψ are
    /// integers.
    pub fn primal(&self) -> Vec<f64> {
        self.p
            .col_arcs
            .iter()
            .zip(&self.p.col_upper)
            .map(|(&(a1, a2), &psi)| {
                if a1 == u32::MAX {
                    psi
                } else {
                    0.5 * (self.flow[a1 as usize] + self.flow[a2 as usize])
                }
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
            let flow = 2.0 * (v - sp.flow_problem().unwrap().fixed);
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
        // Kill immediately: the branch dies but the session stays coherent.
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
}
