//! The SPJA query IR.
//!
//! A query is a multi-way join `R_1(x̄_1) ⋈ … ⋈ R_n(x̄_n)` (relations may
//! repeat with different variables — self-joins), an arbitrary predicate over
//! the variables, a weight expression `ψ` (1 for COUNT, an arithmetic
//! expression for SUM), and an optional duplicate-removing projection.
//! Evaluating the query returns `Σ_{q ∈ π_y J(I)} ψ(q)` as in Eq. (2) of the
//! paper.

use crate::value::Value;

/// A join variable, identified by a small integer.
pub type Var = u32;

/// One atom `R(x̄)` of the join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// One variable per column; repeating a variable within or across atoms
    /// expresses equality.
    pub vars: Vec<Var>,
}

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on an ordering.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Scalar expressions over join variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A join variable.
    Var(Var),
    /// A constant.
    Const(Value),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant integer shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Constant float shorthand.
    pub fn float(v: f64) -> Expr {
        Expr::Const(Value::Float(v))
    }

    /// Evaluates the expression under a variable assignment.
    pub fn eval(&self, binding: &[Value]) -> Value {
        match self {
            Expr::Var(v) => binding[*v as usize].clone(),
            Expr::Const(c) => c.clone(),
            Expr::Add(a, b) => numeric(a.eval(binding), b.eval(binding), |x, y| x + y),
            Expr::Sub(a, b) => numeric(a.eval(binding), b.eval(binding), |x, y| x - y),
            Expr::Mul(a, b) => numeric(a.eval(binding), b.eval(binding), |x, y| x * y),
        }
    }

    /// The variables mentioned by the expression.
    pub fn vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Var(v) => out.push(*v),
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

fn numeric(a: Value, b: Value, f: impl Fn(f64, f64) -> f64) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            // Integer arithmetic stays integral when exact.
            let r = f(x as f64, y as f64);
            if r.fract() == 0.0 && r.abs() < 2f64.powi(53) {
                Value::Int(r as i64)
            } else {
                Value::Float(r)
            }
        }
        (x, y) => Value::Float(f(x.as_f64().unwrap_or(f64::NAN), y.as_f64().unwrap_or(f64::NAN))),
    }
}

/// Boolean predicates over join variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Comparison between two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate under a variable assignment.
    pub fn eval(&self, binding: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp(op, a, b) => {
                let av = a.eval(binding);
                let bv = b.eval(binding);
                op.eval(av.cmp_total(&bv))
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval(binding)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(binding)),
            Predicate::Not(p) => !p.eval(binding),
        }
    }

    /// Convenience: `var op const`.
    pub fn cmp_const(var: Var, op: CmpOp, value: Value) -> Predicate {
        Predicate::Cmp(op, Expr::Var(var), Expr::Const(value))
    }

    /// Convenience: `var op var`.
    pub fn cmp_vars(a: Var, op: CmpOp, b: Var) -> Predicate {
        Predicate::Cmp(op, Expr::Var(a), Expr::Var(b))
    }

    /// The top-level conjuncts: nested `And`s flattened in order, `True`s
    /// dropped. Each is a necessary condition of the predicate, and their
    /// conjunction is equivalent to it (an empty list means "always true").
    pub(crate) fn conjuncts(&self) -> Vec<&Predicate> {
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
            match p {
                Predicate::And(ps) => ps.iter().for_each(|q| walk(q, out)),
                Predicate::True => {}
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The variables mentioned by the predicate.
    pub fn vars(&self, out: &mut Vec<Var>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.vars(out);
                }
            }
            Predicate::Not(p) => p.vars(out),
        }
    }
}

/// The aggregate applied to the (possibly projected) join results.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`: every result weighs 1.
    Count,
    /// `SUM(expr)`: the result weight is the expression value.
    Sum(Expr),
}

impl Aggregate {
    /// Weight `ψ(q)` of a join result.
    pub fn weight(&self, binding: &[Value]) -> f64 {
        match self {
            Aggregate::Count => 1.0,
            Aggregate::Sum(e) => e.eval(binding).as_f64().unwrap_or(0.0),
        }
    }
}

/// A full SPJA query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Join atoms.
    pub atoms: Vec<Atom>,
    /// Filter predicate (folded into `ψ` per the paper: failing results get
    /// weight 0, i.e. they are dropped).
    pub predicate: Predicate,
    /// Aggregate / weight function.
    pub aggregate: Aggregate,
    /// Duplicate-removing projection onto these variables (SPJA queries).
    /// `None` means an SJA query (aggregate over raw join results).
    pub projection: Option<Vec<Var>>,
}

impl Query {
    /// A counting SJA query over the given atoms.
    pub fn count(atoms: Vec<Atom>) -> Query {
        Query { atoms, predicate: Predicate::True, aggregate: Aggregate::Count, projection: None }
    }

    /// Adds a predicate (replacing the existing one).
    pub fn with_predicate(mut self, p: Predicate) -> Query {
        self.predicate = p;
        self
    }

    /// Sets a SUM aggregate.
    pub fn with_sum(mut self, e: Expr) -> Query {
        self.aggregate = Aggregate::Sum(e);
        self
    }

    /// Sets a duplicate-removing projection.
    pub fn with_projection(mut self, vars: Vec<Var>) -> Query {
        self.projection = Some(vars);
        self
    }

    /// The number of distinct variables (1 + max id).
    pub fn num_vars(&self) -> usize {
        let mut max = 0u32;
        let mut any = false;
        for a in &self.atoms {
            for &v in &a.vars {
                max = max.max(v);
                any = true;
            }
        }
        if any {
            max as usize + 1
        } else {
            0
        }
    }
}

/// Shorthand for building an atom.
pub fn atom(relation: &str, vars: &[Var]) -> Atom {
    Atom { relation: relation.to_string(), vars: vars.to_vec() }
}

/// Whether the join hypergraph of `atoms` is α-acyclic, decided by GYO
/// reduction: repeatedly remove *ear* variables (variables occurring in a
/// single hyperedge) and hyperedges contained in another hyperedge. The
/// hypergraph is acyclic iff everything reduces away.
///
/// The executor dispatch uses this to route queries: acyclic joins (FK
/// chains, paths, stars — all of TPC-H) stay on the binary-join columnar
/// pipeline, whose greedy order is already worst-case optimal for them,
/// while cyclic joins (triangles, rectangles, cliques) go to the
/// [`crate::wcoj`] executor to avoid the intermediate-result blowup.
pub fn join_is_acyclic(atoms: &[Atom]) -> bool {
    // Hyperedges are the atoms' deduplicated variable sets (kept sorted so
    // subset tests are merges); duplicate edges reduce to one.
    let mut edges: Vec<Vec<Var>> = atoms
        .iter()
        .map(|a| {
            let mut vs = a.vars.clone();
            vs.sort_unstable();
            vs.dedup();
            vs
        })
        .filter(|vs| !vs.is_empty())
        .collect();
    edges.sort();
    edges.dedup();
    loop {
        let before: usize = edges.iter().map(Vec::len).sum::<usize>() + edges.len();
        // Drop edges strictly contained in another edge (equal edges were
        // deduplicated, so containment here is proper).
        let snapshot = edges.clone();
        edges.retain(|e| !snapshot.iter().any(|f| f.len() > e.len() && is_subset(e, f)));
        // Remove ear variables: those occurring in exactly one edge.
        let mut occurrences: std::collections::HashMap<Var, usize> =
            std::collections::HashMap::new();
        for e in &edges {
            for &v in e {
                *occurrences.entry(v).or_insert(0) += 1;
            }
        }
        for e in &mut edges {
            e.retain(|v| occurrences[v] > 1);
        }
        edges.retain(|e| !e.is_empty());
        edges.sort();
        edges.dedup();
        let after: usize = edges.iter().map(Vec::len).sum::<usize>() + edges.len();
        if after == before {
            return edges.is_empty();
        }
    }
}

/// Whether sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[Var], b: &[Var]) -> bool {
    let mut i = 0;
    for &v in a {
        while i < b.len() && b[i] < v {
            i += 1;
        }
        if i == b.len() || b[i] != v {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_mixed_arithmetic() {
        // price * (1 - discount)
        let e = Expr::Mul(
            Box::new(Expr::Var(0)),
            Box::new(Expr::Sub(Box::new(Expr::int(1)), Box::new(Expr::Var(1)))),
        );
        let v = e.eval(&[Value::Float(100.0), Value::Float(0.25)]);
        assert_eq!(v.as_f64(), Some(75.0));
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        let e = Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::int(2)));
        assert_eq!(e.eval(&[Value::Int(3)]), Value::Int(5));
    }

    #[test]
    fn predicate_combinators() {
        let p = Predicate::And(vec![
            Predicate::cmp_const(0, CmpOp::Lt, Value::Int(10)),
            Predicate::Not(Box::new(Predicate::cmp_vars(0, CmpOp::Eq, 1))),
        ]);
        assert!(p.eval(&[Value::Int(5), Value::Int(6)]));
        assert!(!p.eval(&[Value::Int(5), Value::Int(5)]));
        assert!(!p.eval(&[Value::Int(50), Value::Int(6)]));
    }

    #[test]
    fn cmp_ops() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Ne.eval(Less));
        assert!(!CmpOp::Eq.eval(Greater));
        assert!(CmpOp::Ge.eval(Equal));
    }

    #[test]
    fn num_vars_counts_max() {
        let q = Query::count(vec![atom("Edge", &[0, 1]), atom("Edge", &[1, 2])]);
        assert_eq!(q.num_vars(), 3);
    }

    #[test]
    fn aggregate_weights() {
        assert_eq!(Aggregate::Count.weight(&[]), 1.0);
        let s = Aggregate::Sum(Expr::Var(0));
        assert_eq!(s.weight(&[Value::Int(7)]), 7.0);
    }
}
