//! The ad-hoc statement streams: a round-robin of TPC-H-lite shapes whose
//! constants are drawn from the workload seed.
//!
//! Every text in a stream is new. A repeated text would hit the prepared
//! cache at a few microseconds and pull the latency median between the
//! templates' clusters, so a drawn text that was already issued is redrawn.
//! The round-robin (instead of a random mix) keeps each template's share
//! of the stream exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Which ad-hoc mix a stream draws from; templates in round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Q3 (COUNT), Q12 (COUNT) and Q18 (SUM) over customer-private data:
    /// acyclic joins with closed-form truncation.
    Join,
    /// Q5 (cyclic COUNT), Q18 (SUM) and Q10 (`SELECT DISTINCT`) with
    /// customer and supplier both private: truncation LPs.
    Lp,
}

/// Templates per mix.
pub const TEMPLATES: usize = 3;

/// One ad-hoc request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Position of the template in its mix's round-robin.
    pub template: usize,
    /// SQL text, never issued before by this stream.
    pub text: String,
}

/// An endless, seed-determined stream of statements.
pub struct StatementStream {
    mix: Mix,
    rng: StdRng,
    seen: HashSet<String>,
    issued: usize,
}

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
/// The TPC-H-lite `lineitem.shipmode` and `lineitem.returnflag` values.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
pub const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];

/// Width in days of every order-date window. Order dates are uniform, so a
/// fixed width keeps each template's work nearly the same whichever start
/// the seed draws.
const WINDOW: i64 = 900;

/// Joins of the customer → orders → lineitem chain.
const CHAIN: &str = "customer.ck = orders.o_ck AND orders.ok = lineitem.l_ok";

impl StatementStream {
    /// The stream of `mix` for a workload seed.
    pub fn new(mix: Mix, seed: u64) -> Self {
        let salt = match mix {
            Mix::Join => 0x6a6f_696e,
            Mix::Lp => 0x6c70,
        };
        StatementStream {
            mix,
            rng: StdRng::seed_from_u64(seed ^ salt),
            seen: HashSet::new(),
            issued: 0,
        }
    }

    fn draw(&mut self, template: usize) -> String {
        let r = &mut self.rng;
        match (self.mix, template) {
            (Mix::Join, 0) => {
                let seg = SEGMENTS[r.random_range(0..SEGMENTS.len())];
                let day = r.random_range(600..1800);
                format!(
                    "SELECT COUNT(*) FROM customer, orders, lineitem WHERE {CHAIN} \
                     AND customer.mktsegment = '{seg}' AND orders.orderdate < {day} \
                     AND lineitem.shipdate > {day}"
                )
            }
            (Mix::Join, 1) => {
                let a = r.random_range(0..SHIP_MODES.len());
                let b = (a + r.random_range(1..SHIP_MODES.len())) % SHIP_MODES.len();
                let from = r.random_range(0..2000);
                format!(
                    "SELECT COUNT(*) FROM orders, lineitem WHERE orders.ok = lineitem.l_ok \
                     AND (lineitem.shipmode = '{}' OR lineitem.shipmode = '{}') \
                     AND lineitem.receiptdate >= {from} AND lineitem.receiptdate < {}",
                    SHIP_MODES[a],
                    SHIP_MODES[b],
                    from + 365
                )
            }
            (Mix::Join, _) | (Mix::Lp, 1) => {
                let from = r.random_range(0..1500i64);
                let to = from + WINDOW;
                format!(
                    "SELECT SUM(lineitem.quantity) FROM customer, orders, lineitem WHERE {CHAIN} \
                     AND orders.orderdate >= {from} AND orders.orderdate < {to}"
                )
            }
            (Mix::Lp, 0) => {
                let from = r.random_range(0..1500i64);
                let to = from + WINDOW;
                format!(
                    "SELECT COUNT(*) FROM customer, orders, lineitem, supplier, nation, region \
                     WHERE {CHAIN} AND lineitem.l_sk = supplier.sk \
                     AND customer.c_nk = supplier.s_nk AND supplier.s_nk = nation.nk \
                     AND nation.rk = region.rk \
                     AND orders.orderdate >= {from} AND orders.orderdate < {to}"
                )
            }
            (Mix::Lp, _) => {
                let flag = RETURN_FLAGS[r.random_range(0..RETURN_FLAGS.len())];
                let from = r.random_range(0..1500i64);
                let to = from + WINDOW;
                format!(
                    "SELECT DISTINCT customer.ck FROM customer, orders, lineitem WHERE {CHAIN} \
                     AND lineitem.returnflag = '{flag}' \
                     AND orders.orderdate >= {from} AND orders.orderdate < {to}"
                )
            }
        }
    }
}

impl Iterator for StatementStream {
    type Item = Statement;

    fn next(&mut self) -> Option<Statement> {
        let template = self.issued % TEMPLATES;
        self.issued += 1;
        // Each template has thousands of distinct texts, far more than any
        // run issues, so redraws stay rare.
        for _ in 0..10_000 {
            let text = self.draw(template);
            if self.seen.insert(text.clone()) {
                return Some(Statement { template, text });
            }
        }
        panic!("template {template} of {:?} ran out of distinct texts", self.mix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for mix in [Mix::Join, Mix::Lp] {
            let a: Vec<Statement> = StatementStream::new(mix, 7).take(500).collect();
            let b: Vec<Statement> = StatementStream::new(mix, 7).take(500).collect();
            assert_eq!(a, b);
            let c: Vec<Statement> = StatementStream::new(mix, 8).take(500).collect();
            assert_ne!(a, c, "another seed draws other constants");
        }
    }

    #[test]
    fn never_repeats_a_text() {
        for mix in [Mix::Join, Mix::Lp] {
            let texts: Vec<String> =
                StatementStream::new(mix, 3).take(3000).map(|s| s.text).collect();
            let distinct: HashSet<&String> = texts.iter().collect();
            assert_eq!(distinct.len(), texts.len());
        }
    }

    #[test]
    fn templates_share_the_stream_equally_in_round_robin() {
        for mix in [Mix::Join, Mix::Lp] {
            let mut counts = [0usize; TEMPLATES];
            for (i, s) in StatementStream::new(mix, 11).take(30 * TEMPLATES).enumerate() {
                assert_eq!(s.template, i % TEMPLATES);
                counts[s.template] += 1;
            }
            assert!(counts.iter().all(|&c| c == 30), "{counts:?}");
        }
    }

    #[test]
    fn every_text_parses_against_its_schema() {
        let join = r2t_tpch::tpch_schema(&["customer"]);
        let lp = r2t_tpch::tpch_schema(&["customer", "supplier"]);
        for (mix, schema) in [(Mix::Join, &join), (Mix::Lp, &lp)] {
            for s in StatementStream::new(mix, 5).take(30) {
                r2t_sql::parse_statement(&s.text, schema)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.text));
            }
        }
    }
}
