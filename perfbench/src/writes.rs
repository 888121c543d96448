//! The write stream: batches of new orders and lineitems, with one batch in
//! four also retiring orders inserted earlier.

use crate::stream::{RETURN_FLAGS, SHIP_MODES};
use r2t_engine::{Instance, Tuple, Value, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Keys of inserted orders start here, far above every generated key, so
/// no batch can collide with the generated data or with another batch.
const KEY_BASE: i64 = 1 << 40;
/// Orders per batch.
const ORDERS: usize = 16;
/// Every `RETENTION_EVERY`-th batch deletes what was inserted before the
/// `RETAINED` batches just before it.
const RETENTION_EVERY: usize = 4;
const RETAINED: usize = 2;

/// Rows one batch inserted: orders with their lineitems.
type Inserted = Vec<(Tuple, Vec<Tuple>)>;

/// A seed-determined stream of FK-valid write batches for a TPC-H-lite
/// instance.
pub struct WriteStream {
    rng: StdRng,
    customers: i64,
    parts: i64,
    suppliers: i64,
    next_key: i64,
    issued: usize,
    /// Inserted rows still live, oldest batch first.
    live: VecDeque<Inserted>,
    retention: bool,
}

impl WriteStream {
    /// Batches against `base`'s key ranges. With `retention`, one batch in
    /// four also deletes the orders (and their lineitems) inserted before
    /// the two batches preceding it; without, every batch is insert-only.
    pub fn new(base: &Instance, seed: u64, retention: bool) -> Self {
        WriteStream {
            rng: StdRng::seed_from_u64(seed ^ 0x7772_6974),
            customers: base.rows("customer").len() as i64,
            parts: base.rows("part").len() as i64,
            suppliers: base.rows("supplier").len() as i64,
            next_key: KEY_BASE,
            issued: 0,
            live: VecDeque::new(),
            retention,
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> WriteBatch {
        self.issued += 1;
        let mut batch = WriteBatch::new();
        if self.retention && self.issued.is_multiple_of(RETENTION_EVERY) {
            while self.live.len() > RETAINED {
                for (order, items) in self.live.pop_front().expect("non-empty") {
                    batch.delete_all("lineitem", items);
                    batch.delete("orders", order);
                }
            }
        }
        let mut inserted = Inserted::with_capacity(ORDERS);
        for _ in 0..ORDERS {
            let (order, items) = self.order();
            batch.insert("orders", order.clone());
            batch.insert_all("lineitem", items.iter().cloned());
            inserted.push((order, items));
        }
        if self.retention {
            self.live.push_back(inserted);
        }
        batch
    }

    /// One order (generated keys are dense from 0, so any key below the
    /// generated count references a live tuple) and its lineitems.
    fn order(&mut self) -> (Tuple, Vec<Tuple>) {
        let r = &mut self.rng;
        let ok = self.next_key;
        self.next_key += 1;
        let orderdate = r.random_range(0..2400i64);
        let order = vec![
            Value::Int(ok),
            Value::Int(r.random_range(0..self.customers)),
            Value::Int(orderdate),
        ];
        let items = (0..r.random_range(1..=4))
            .map(|_| {
                let quantity = r.random_range(1..=50i64);
                let shipdate = orderdate + r.random_range(1..=121i64);
                vec![
                    Value::Int(ok),
                    Value::Int(r.random_range(0..self.parts)),
                    Value::Int(r.random_range(0..self.suppliers)),
                    Value::Int(quantity),
                    Value::Float(quantity as f64 * r.random_range(9..21) as f64),
                    Value::Float(r.random_range(0..=10) as f64 / 100.0),
                    Value::Int(shipdate),
                    Value::Int(orderdate + r.random_range(30..=90i64)),
                    Value::Int(shipdate + r.random_range(1..=30i64)),
                    Value::str(SHIP_MODES[r.random_range(0..SHIP_MODES.len())]),
                    Value::str(RETURN_FLAGS[r.random_range(0..RETURN_FLAGS.len())]),
                ]
            })
            .collect();
        (order, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_apply_cleanly_and_retention_bounds_growth() {
        let schema = r2t_tpch::tpch_schema(&["customer"]);
        let mut inst = r2t_tpch::generate(0.05, 0.3, 3);
        let orders = inst.rows("orders").len();
        let mut writes = WriteStream::new(&inst, 9, true);
        let mut index = r2t_engine::IntegrityIndex::build(&schema, &inst);
        for i in 1..=12 {
            let batch = writes.next_batch();
            assert_eq!(batch.has_deletes(), i % 4 == 0);
            let resolved = batch.resolve(&schema, &inst).expect("resolves");
            index.check(&schema, resolved.deltas()).expect("FK-valid");
            index.commit(&schema, resolved.deltas());
            resolved.apply_mut(&mut inst);
        }
        inst.validate(&schema).expect("still valid");
        let grown = inst.rows("orders").len() - orders;
        assert!(grown <= 6 * ORDERS, "retention keeps at most six batches, got {grown}");
    }
}
