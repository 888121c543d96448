//! The serving layer end to end: open a `PrivateDatabase`, start a
//! budgeted `Session`, prepare queries once, answer them repeatedly with
//! fresh noise, fan a batch across threads, and watch an over-budget
//! request get refused before any randomness exists.
//!
//! Run with: `cargo run --release --example session`

use r2t::core::R2TConfig;
use r2t::system::{PrivateDatabase, QuerySpec, SessionOptions};

fn main() -> Result<(), r2t::Error> {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let db = PrivateDatabase::new(schema, r2t::tpch::generate(0.2, 0.3, 42))?;

    const ORDERS: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";
    const ITEMS: &str = "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok";

    // A session owns the total ε budget. Every answer must charge it before
    // a single noise draw; when it runs out, answers are refused.
    let session = db.session(
        SessionOptions::new().total_epsilon(1.0).base(R2TConfig::new(1.0, 0.1, 65536.0)).seed(7),
    )?;
    println!("session budget: {} (seed 7)\n", session.total());

    // prepare() pays parse + lineage join + LP presolve + the race's branch
    // values once; the profile summary is pre-noise state and stays inside
    // the session — only noisy answers ever leave it.
    let orders = session.prepare(ORDERS)?;
    println!("prepared: {}", orders.sql());
    println!("  profile: {}\n", orders.summary().expect("scalar query"));

    // Each answer charges ε, then replays the cached race with fresh noise.
    for eps in [0.1, 0.1, 0.2] {
        let a = orders.answer(eps)?;
        println!(
            "answer(eps = {eps}): {:>9.1}   [substream {}, spent {:.2}, remaining {:.2}, race {:.1} us]",
            a.noisy,
            a.receipt.substream,
            a.receipt.spent,
            a.receipt.remaining,
            a.receipt.race.seconds * 1e6,
        );
    }

    // Batches charge atomically (all or nothing) and fan across threads;
    // the outputs are bit-identical no matter the worker count because each
    // answer's noise substream is pinned at commit time.
    let batch = session.answer_all(&[
        QuerySpec::new(ORDERS, 0.1), // cache hit: no re-planning
        QuerySpec::new(ITEMS, 0.2),  // prepared on first use
    ])?;
    println!();
    for a in &batch {
        println!("batch answer: {:>9.1}   [{}]", a.noisy, a.receipt.query);
    }

    // 0.7 of 1.0 spent; 0.5 more does not fit. The refusal happens at the
    // budget cell, before any noise is drawn — a refused query consumes
    // neither budget nor randomness (see tests/service_session.rs).
    println!("\nspent {:.2}, remaining {:.2}", session.spent(), session.remaining());
    match orders.answer(0.5) {
        Err(r2t::Error::Budget(b)) => println!("refused as expected: {b}"),
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    let last = orders.answer(0.25)?;
    println!("but 0.25 still fits: {:.1} (remaining {:.2})", last.noisy, last.receipt.remaining);

    println!(
        "\n{} cache entries served {} charges from one plan each.",
        session.cached_queries(),
        session.num_charges(),
    );
    Ok(())
}
