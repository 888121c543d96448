//! Workload generators shared by the executor differential proptests
//! (`prop_exec_differential.rs`, `prop_wcoj.rs`, `prop_storage.rs`,
//! `prop_delta.rs`).

use proptest::prelude::*;
use r2t_engine::exec::ExecOptions;
use r2t_engine::query::{atom, CmpOp, Expr, Predicate, Query, Var};
use r2t_engine::schema::graph_schema_node_dp;
use r2t_engine::{Instance, Schema, Value};

/// A randomly selected workload: schema, instance, and a query valid for it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub schema: Schema,
    pub inst: Instance,
    pub query: Query,
    /// Group-by variables valid for the completed query (may be empty).
    pub group_vars: Vec<Var>,
}

/// Edge-DP graph schema where `Edge(eid, src, dst)` is the primary private
/// relation keyed by an explicit edge id (the paper's edge-DP needs a PK on
/// the private relation for lineage).
pub fn edge_dp_schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("Node", &["id"], Some("id"), &[]).unwrap();
    s.add_relation("Edge", &["eid", "src", "dst"], Some("eid"), &[]).unwrap();
    s.set_primary_private(&["Edge"]).unwrap();
    s
}

fn chain_schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("customer", &["ck", "nation"], Some("ck"), &[]).unwrap();
    s.add_relation("orders", &["ok", "ck"], Some("ok"), &[("ck", "customer")]).unwrap();
    s.add_relation("lineitem", &["ok", "qty"], None, &[("ok", "orders")]).unwrap();
    s.set_primary_private(&["customer"]).unwrap();
    s
}

/// Random graph instance over `n` nodes with undirected edges. With
/// `with_eid` each directed edge row carries a unique edge id (edge-DP).
pub fn graph_instance(n: usize, pairs: Vec<(i64, i64)>, with_eid: bool) -> Instance {
    let mut inst = Instance::new();
    inst.insert_all("Node", (0..n as i64).map(|i| vec![Value::Int(i)]));
    let mut seen = std::collections::HashSet::new();
    let mut eid = 0i64;
    for (a, b) in pairs {
        let (a, b) = (a % n as i64, b % n as i64);
        if a != b && seen.insert((a.min(b), a.max(b))) {
            for (s, d) in [(a, b), (b, a)] {
                let mut row = vec![Value::Int(s), Value::Int(d)];
                if with_eid {
                    row.insert(0, Value::Int(eid));
                    eid += 1;
                }
                inst.insert("Edge", row);
            }
        }
    }
    inst
}

/// Graph workload: node-DP or edge-DP schema, 1–3-atom Edge query with a
/// predicate, optionally a projection, and a valid group-by set. Under
/// edge-DP each atom binds its edge id to a fresh variable.
pub fn arb_graph_workload() -> impl Strategy<Value = Workload> {
    (
        2..10usize,
        prop::collection::vec((0..64i64, 0..64i64), 0..24),
        any::<bool>(), // edge-DP?
        1..=3usize,    // atoms
        0..4u32,       // predicate var a
        0..4u32,       // predicate var b
        0..3u8,        // predicate kind
        0..3u8,        // projection kind
        0..3u8,        // group-by kind
    )
        .prop_map(|(n, pairs, edge_dp, natoms, a, b, pred, proj, grp)| {
            let schema = if edge_dp { edge_dp_schema() } else { graph_schema_node_dp() };
            let inst = graph_instance(n, pairs, edge_dp);
            let path: [[u32; 2]; 3] = [[0, 1], [1, 2], [2, 3]];
            let atoms = (0..natoms)
                .map(|i| {
                    let [s, d] = path[i];
                    if edge_dp {
                        // Fresh eid variable per atom, after the node vars.
                        atom("Edge", &[natoms as u32 + 1 + i as u32, s, d])
                    } else {
                        atom("Edge", &[s, d])
                    }
                })
                .collect();
            let max_var = natoms as u32;
            let (a, b) = (a.min(max_var), b.min(max_var));
            let mut q = Query::count(atoms);
            q = match pred {
                0 => q.with_predicate(Predicate::cmp_vars(a, CmpOp::Lt, b)),
                1 => q.with_predicate(Predicate::cmp_vars(a, CmpOp::Ne, b)),
                _ => q,
            };
            q = match proj {
                0 => q.with_projection(vec![0]),
                1 => q.with_projection(vec![0, max_var]),
                _ => q,
            };
            let group_vars = match grp {
                0 => vec![0],
                1 => vec![max_var, 0],
                _ => vec![],
            };
            Workload { schema, inst, query: q, group_vars }
        })
}

/// FK-chain workload (customer -> orders -> lineitem): SUM or COUNT over the
/// 3-way join, with optional selection on the customer's nation.
pub fn arb_chain_workload() -> impl Strategy<Value = Workload> {
    (
        1..6usize,                                         // customers
        prop::collection::vec(0..6i64, 0..10),             // orders (customer picks)
        prop::collection::vec((0..12i64, 1..5i64), 0..20), // lineitems (order pick, qty)
        any::<bool>(),                                     // sum qty?
        any::<bool>(),                                     // nation filter?
        any::<bool>(),                                     // group by nation?
    )
        .prop_map(|(nc, ords, lis, sum, filter, grp)| {
            let schema = chain_schema();
            let mut inst = Instance::new();
            for c in 0..nc as i64 {
                inst.insert("customer", vec![Value::Int(c), Value::Int(c % 2)]);
            }
            let nords = ords.len();
            for (ok, ck) in ords.into_iter().enumerate() {
                inst.insert("orders", vec![Value::Int(ok as i64), Value::Int(ck % nc as i64)]);
            }
            if nords > 0 {
                for (ok, qty) in lis {
                    inst.insert("lineitem", vec![Value::Int(ok % nords as i64), Value::Int(qty)]);
                }
            }
            // customer(CK, Nation), orders(OK, CK), lineitem(OK, Qty)
            // vars: 0=CK 1=Nation 2=OK 3=Qty
            let mut q = Query::count(vec![
                atom("customer", &[0, 1]),
                atom("orders", &[2, 0]),
                atom("lineitem", &[2, 3]),
            ]);
            if sum {
                q = q.with_sum(Expr::Var(3));
            }
            if filter {
                q = q.with_predicate(Predicate::cmp_const(1, CmpOp::Eq, Value::Int(0)));
            }
            let group_vars = if grp { vec![1] } else { vec![] };
            Workload { schema, inst, query: q, group_vars }
        })
}

/// Typed FK chain for the predicate family: Int, Float and Str columns.
fn shop_schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("cust", &["ck", "seg", "bal"], Some("ck"), &[]).unwrap();
    s.add_relation("ord", &["ok", "ck", "day", "price"], Some("ok"), &[("ck", "cust")]).unwrap();
    s.add_relation("item", &["ok", "qty", "mode"], None, &[("ok", "ord")]).unwrap();
    s.set_primary_private(&["cust"]).unwrap();
    s
}

const SEGS: [&str; 3] = ["auto", "build", "house"];
const MODES: [&str; 3] = ["AIR", "RAIL", "SHIP"];
const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

// Variables of the predicate family: cust(CK, SEG, BAL), ord(OK, CK, DAY,
// PRICE), item(OK, QTY, MODE), and with the self-join a second order
// ord(OK2, CK, DAY2, PRICE2) of the same customer.
const CK: Var = 0;
const SEG: Var = 1;
const BAL: Var = 2;
const OK: Var = 3;
const DAY: Var = 4;
const PRICE: Var = 5;
const QTY: Var = 6;
const MODE: Var = 7;
const OK2: Var = 8;
const DAY2: Var = 9;
const PRICE2: Var = 10;

/// One conjunct of the predicate family, by kind; `k` picks the operator
/// and the constant.
fn family_conjunct(kind: u8, k: i64, self_join: bool) -> Predicate {
    let op = OPS[k as usize % OPS.len()];
    let seg = || Value::str(SEGS[k as usize % 3]);
    let mode = || Value::str(MODES[k as usize % 3]);
    match kind {
        // Int, Float and Str columns against constants.
        0 => Predicate::cmp_const(DAY, op, Value::Int(k)),
        1 => Predicate::cmp_const(PRICE, op, Value::Float(k as f64 * 1.5)),
        2 => Predicate::cmp_const(SEG, op, seg()),
        // An `Or` over two of one atom's columns, and a `Not` over one.
        3 => Predicate::Or(vec![
            Predicate::cmp_const(SEG, CmpOp::Eq, seg()),
            Predicate::cmp_const(BAL, CmpOp::Gt, Value::Float(k as f64 * 0.5)),
        ]),
        4 => Predicate::Not(Box::new(Predicate::Or(vec![
            Predicate::cmp_const(MODE, CmpOp::Eq, mode()),
            Predicate::cmp_const(MODE, CmpOp::Eq, Value::str(MODES[(k as usize + 1) % 3])),
        ]))),
        // Two variables inside one atom, through arithmetic.
        5 => Predicate::Cmp(
            op,
            Expr::Mul(Box::new(Expr::Var(PRICE)), Box::new(Expr::float(0.5))),
            Expr::Add(Box::new(Expr::Var(DAY)), Box::new(Expr::int(k - 4))),
        ),
        // A join variable: CK lies in cust and every ord copy, OK in ord
        // and item.
        6 if k % 2 == 0 => Predicate::cmp_const(CK, op, Value::Int(k / 2)),
        6 => Predicate::cmp_const(OK, op, Value::Int(k)),
        // Across atoms: must stay on the emission check.
        7 if k % 2 == 0 => Predicate::cmp_vars(BAL, op, PRICE),
        7 => Predicate::Cmp(
            op,
            Expr::Add(Box::new(Expr::Var(QTY)), Box::new(Expr::int(k))),
            Expr::Var(DAY),
        ),
        // No variables at all: true or false for the whole query.
        8 => Predicate::Cmp(CmpOp::Lt, Expr::int(1), Expr::int(k)),
        // One copy of the self-join only (plain item filter without it).
        _ if self_join => Predicate::cmp_const(DAY2, op, Value::Int(k)),
        _ => Predicate::cmp_const(QTY, op, Value::Int(k % 5)),
    }
}

/// Predicate-heavy workload: customer -> orders -> lineitem over Int, Float
/// and Str columns, optionally self-joining orders on the customer, under an
/// `And` of 2–4 conjuncts (sometimes nested) drawn from every shape the
/// executors treat differently: single-column comparisons with constants,
/// `Or`/`Not` over one atom, two variables of one atom, a join variable
/// shared by several atoms, a cross-atom comparison, a zero-variable
/// comparison, and a condition on one copy of a self-join. Instances are
/// valid (unique keys, intact foreign keys).
pub fn arb_predicate_workload() -> impl Strategy<Value = Workload> {
    (
        1..6usize,                                                    // customers
        prop::collection::vec((0..6i64, 0..10i64, 0..8i64), 0..10),   // ord: ck, day, price
        prop::collection::vec((0..12i64, 1..5i64, 0..3usize), 0..20), // item: ok, qty, mode
        any::<bool>(),                                                // self-join?
        prop::collection::vec((0..10u8, 0..8i64), 2..5),              // conjuncts: kind, k
        any::<bool>(),                                                // nest the last two?
        0..3u8,                                                       // weight
        0..3u8,                                                       // projection
        0..4u8,                                                       // group-by
    )
        .prop_map(|(nc, ords, items, self_join, conj, nest, weight, proj, grp)| {
            let schema = shop_schema();
            let mut inst = Instance::new();
            for c in 0..nc as i64 {
                let bal = Value::Float(c as f64 * 0.75 - 1.0);
                inst.insert("cust", vec![Value::Int(c), Value::str(SEGS[c as usize % 3]), bal]);
            }
            let nords = ords.len() as i64;
            for (ok, (ck, day, price)) in ords.into_iter().enumerate() {
                let row = vec![
                    Value::Int(ok as i64),
                    Value::Int(ck % nc as i64),
                    Value::Int(day),
                    Value::Float(price as f64 * 1.5),
                ];
                inst.insert("ord", row);
            }
            if nords > 0 {
                for (ok, qty, mode) in items {
                    let row =
                        vec![Value::Int(ok % nords), Value::Int(qty), Value::str(MODES[mode])];
                    inst.insert("item", row);
                }
            }
            let mut atoms = vec![
                atom("cust", &[CK, SEG, BAL]),
                atom("ord", &[OK, CK, DAY, PRICE]),
                atom("item", &[OK, QTY, MODE]),
            ];
            if self_join {
                atoms.push(atom("ord", &[OK2, CK, DAY2, PRICE2]));
            }
            let mut cs: Vec<Predicate> =
                conj.iter().map(|&(kind, k)| family_conjunct(kind, k, self_join)).collect();
            if nest && cs.len() >= 3 {
                let inner = cs.split_off(cs.len() - 2);
                cs.push(Predicate::And(inner));
            }
            let mut q = Query::count(atoms).with_predicate(Predicate::And(cs));
            q = match weight {
                0 => q,
                1 => q.with_sum(Expr::Var(QTY)),
                _ => q.with_sum(Expr::Var(PRICE)),
            };
            // Projections keep COUNT so every group's weight is consistent.
            if weight == 0 {
                q = match proj {
                    0 => q.with_projection(vec![CK]),
                    1 => q.with_projection(vec![CK, SEG]),
                    _ => q,
                };
            }
            let group_vars = match grp {
                0 => vec![SEG],
                1 => vec![MODE],
                2 => vec![CK, DAY],
                _ => vec![],
            };
            Workload { schema, inst, query: q, group_vars }
        })
}

/// One of the three workload families, chosen by an integer selector (the
/// vendored proptest shim has no `prop_oneof!`).
pub fn arb_workload() -> impl Strategy<Value = Workload> {
    (0..3u8, arb_graph_workload(), arb_chain_workload(), arb_predicate_workload()).prop_map(
        |(pick, g, c, p)| match pick {
            0 => g,
            1 => c,
            _ => p,
        },
    )
}

pub fn forced_parallel(workers: usize) -> ExecOptions {
    ExecOptions { workers: Some(workers), parallel_threshold: 1, ..ExecOptions::default() }
}
