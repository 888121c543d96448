//! `serve_rw`: dashboards answering prepared statements over live writes.
//!
//! Customer is private, scale 1.0, heap database. Each round answers the
//! serving set in fixed blocks (cache hits: a budget charge plus the
//! Laplace race over cached branch values), applies one write batch, and
//! opens a fresh session on the new snapshot. The serving set is chosen so
//! that writes reach every way the prepared cache is carried across them.

use crate::client::{self, Clock, ACCURACY_SALT, MIN_SAMPLES, SETUPS};
use crate::metrics::{self, EndToEnd, TraceTotals};
use crate::replay::{Counts, Entry};
use crate::sys::{self, CpuTimer};
use crate::trace::Tracer;
use crate::writes::WriteStream;
use crate::{config, round_seed, session_options, Args, Report, EPSILON};
use r2t_core::{BranchValues, BudgetCell, R2T};
use r2t_engine::{exec, Instance, IntegrityIndex, Schema, WriteBatch};
use r2t_service::{substream_rng, PreparedQuery, PrivateDatabase, Session};
use std::hint::black_box;

/// The serving set.
const SERVING: [&str; 5] = [
    // Reads no relation a write touches: shared across every write.
    "SELECT COUNT(*) FROM customer WHERE customer.mktsegment = 'BUILDING'",
    // Integral, one private reference per line: the closed-form patcher
    // updates these in O(delta).
    "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck",
    "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok AND lineitem.quantity < 10",
    "SELECT SUM(lineitem.quantity) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok",
    // Float weights are outside the patcher's regime: the view replays and
    // the τ grid is swept again.
    "SELECT SUM(lineitem.extendedprice * (1 - lineitem.discount)) FROM orders, lineitem \
     WHERE lineitem.l_ok = orders.ok",
];
/// Answers per timed block: one answer takes about a microsecond, below
/// what a single clock reading resolves steadily.
const BLOCK: usize = 256;
/// Blocks per round, cycling through the serving set.
const BLOCKS_PER_ROUND: usize = 10;
/// Seed of the sessions that compare the database with its twin.
const TWIN_SEED: u64 = 0x7717;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn prepare_all<'s, 'db>(session: &'s Session<'db>) -> Result<Vec<PreparedQuery<'s, 'db>>, String> {
    SERVING.iter().map(|sql| session.prepare(sql).map_err(err)).collect()
}

struct Inputs {
    schema: Schema,
    rows: Instance,
    writes: WriteStream,
    /// The set-up's write: the integrity index is built lazily on the
    /// first delta, so set-up includes one.
    warm: WriteBatch,
}

impl Inputs {
    fn generate(args: &Args) -> Inputs {
        let scale = args.scale.unwrap_or(1.0);
        let rows = r2t_tpch::generate(scale, 0.3, args.seed);
        let mut writes = WriteStream::new(&rows, args.seed, true);
        let warm = writes.next_batch();
        Inputs { schema: r2t_tpch::tpch_schema(&["customer"]), rows, writes, warm }
    }

    /// A cold database: rows validated, the serving set prepared, one
    /// write. Returns the database and its seconds.
    fn set_up(&self, k: usize) -> Result<(PrivateDatabase, f64), String> {
        let (rows, warm) = (self.rows.clone(), self.warm.clone());
        let start = CpuTimer::start();
        let db = PrivateDatabase::new(self.schema.clone(), rows).map_err(err)?;
        {
            let session = db.session(session_options(k as u64)).map_err(err)?;
            prepare_all(&session)?;
        }
        db.apply(warm).map_err(err)?;
        let seconds = start.elapsed_s();
        Ok((db, seconds))
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut inputs = Inputs::generate(args);
    // Exact values come from the benchmark's own copy of the rows — never
    // from the measured database — computed before the peak-RSS reset so
    // the reference joins stay out of `peak_rss_mb`.
    let exact: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        let shadow = inputs.warm.clone().resolve(&inputs.schema, &inputs.rows).map_err(err)?;
        let shadow = shadow.apply_to(&inputs.rows);
        SERVING
            .iter()
            .map(|sql| {
                let lowered = r2t_sql::parse_statement(sql, &inputs.schema).map_err(err)?;
                Ok(exec::profile(&inputs.schema, &shadow, &lowered.query)
                    .map_err(err)?
                    .query_result())
            })
            .collect::<Result<_, String>>()?
    };
    sys::release_free_memory();
    sys::reset_peak_rss()?;
    if args.trace {
        return traced(args, &mut inputs);
    }
    let (db, first) = inputs.set_up(0)?;
    let mut e2e = EndToEnd { setup_s: vec![first], ..EndToEnd::default() };

    // Accuracy on the state set-up left, which depends on the seed alone.
    {
        let accuracy = db.session(session_options(args.seed ^ ACCURACY_SALT)).map_err(err)?;
        let errors = prepare_all(&accuracy)?
            .iter()
            .zip(&exact)
            .map(|(prepared, exact)| client::accuracy_pct(prepared, *exact))
            .collect::<Result<Vec<_>, _>>()?;
        e2e.rel_error_pct = crate::stats::median(&errors);
    }

    let mut log = vec![inputs.warm.clone()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = Clock::start(args.seconds);
    let mut round = 0u64;
    while clock.keep_going(e2e.write_ms.len(), e2e.setup_s.len() < SETUPS) {
        {
            let session = db.session(session_options(round_seed(args.seed, round))).map_err(err)?;
            let prepared = prepare_all(&session)?;
            for b in 0..BLOCKS_PER_ROUND {
                let statement = &prepared[b % prepared.len()];
                let mut answered = 0u64;
                let t0 = CpuTimer::start();
                for _ in 0..BLOCK {
                    if let Ok(a) = statement.answer(EPSILON) {
                        black_box(a.noisy);
                        answered += 1;
                    }
                }
                let elapsed = t0.elapsed_s();
                attempted += BLOCK as u64;
                failed += BLOCK as u64 - answered;
                e2e.answer_ms.push(elapsed * 1e3 / BLOCK as f64);
                e2e.busy_s += elapsed;
                e2e.answers += answered;
            }
        }
        let batch = inputs.writes.next_batch();
        log.push(batch.clone());
        let t0 = CpuTimer::start();
        let result = db.apply(batch);
        let elapsed = t0.elapsed_s();
        attempted += 1;
        match result {
            Ok(_) => {
                e2e.write_ms.push(elapsed * 1e3);
                if e2e.write_ms.len() == MIN_SAMPLES {
                    e2e.peak_rss_mb = sys::peak_rss_mb()?;
                    clock.spread_from_now();
                }
            }
            Err(e) => {
                eprintln!("write failed: {e}");
                failed += 1;
            }
        }
        round += 1;
        while clock.due(e2e.setup_s.len() - 1, SETUPS - 1) {
            let seconds = inputs.set_up(e2e.setup_s.len())?.1;
            e2e.setup_s.push(seconds);
        }
    }

    // Gate: a twin built from the benchmark's shadow rows answers the
    // serving set bitwise like the measured database.
    let Inputs { schema, rows: mut shadow, .. } = inputs;
    for batch in log {
        batch.resolve(&schema, &shadow).map_err(err)?.apply_mut(&mut shadow);
    }
    let twin = PrivateDatabase::new(schema, shadow).map_err(err)?;
    let measured = db.session(session_options(TWIN_SEED)).map_err(err)?;
    let reference = twin.session(session_options(TWIN_SEED)).map_err(err)?;
    for sql in SERVING {
        for _ in 0..3 {
            let a = measured.answer(sql, EPSILON).map_err(err)?.noisy;
            let b = reference.answer(sql, EPSILON).map_err(err)?.noisy;
            if a.to_bits() != b.to_bits() {
                return Err(format!("measured database answered {a}, its twin {b}: {sql}"));
            }
        }
    }
    Ok(Report { attempted, failed, metrics: e2e.metrics()? })
}

/// The layer-by-layer mirror of the serving state: the benchmark's own
/// rows, integrity index and prepared entries, carried across every write
/// the way the service carries its cache.
struct Mirror {
    rows: Instance,
    index: IntegrityIndex,
    entries: Vec<Entry>,
}

impl Mirror {
    fn write(
        &mut self,
        t: &mut Tracer,
        schema: &Schema,
        batch: WriteBatch,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let cfg = config();
        let resolved = if batch.has_deletes() {
            // Deletes are matched against materialized rows: the service
            // folds its deferred snapshot chain back into rows here.
            let (resolved, next) = t
                .span("engine.materialize", |_| {
                    let resolved = batch.resolve(schema, &self.rows)?;
                    let next = resolved.apply_to(&self.rows);
                    Ok::<_, r2t_engine::EngineError>((resolved, next))
                })
                .map_err(err)?;
            self.rows = next;
            resolved
        } else {
            t.span("engine.resolve", |_| {
                let resolved = batch.resolve(schema, &Instance::new())?;
                resolved.apply_mut(&mut self.rows);
                Ok::<_, r2t_engine::EngineError>(resolved)
            })
            .map_err(err)?
        };
        t.span("engine.integrity", |_| {
            self.index.check(schema, resolved.deltas())?;
            self.index.commit(schema, resolved.deltas());
            Ok::<_, r2t_engine::EngineError>(())
        })
        .map_err(err)?;
        for entry in &mut self.entries {
            entry.apply(t, &resolved, &cfg, counts)?;
        }
        Ok(())
    }
}

fn traced(args: &Args, inputs: &mut Inputs) -> Result<Report, String> {
    let cfg = config();
    let schema = inputs.schema.clone();
    let mut t = Tracer::default();
    let mut totals = TraceTotals::default();

    // Set-up, request 0: the service's database and the replay's mirror.
    let db = PrivateDatabase::new(schema.clone(), inputs.rows.clone()).map_err(err)?;
    let mut mirror = t.request(0, |t| -> Result<Mirror, String> {
        {
            let session = db.session(session_options(0)).map_err(err)?;
            for sql in SERVING {
                let id = t.enter("service.prepare", 1);
                session.prepare(sql).map_err(err)?;
                t.exit(id);
                totals.prepare_miss_ms.push(t.spans()[id].duration_ns() as f64 / 1e6);
            }
        }
        db.apply(inputs.warm.clone()).map_err(err)?;
        let entries = SERVING
            .iter()
            .map(|sql| Entry::prepare(t, &schema, &inputs.rows, sql, &cfg, &mut totals.counts))
            .collect::<Result<Vec<_>, _>>()?;
        let index =
            t.span("engine.integrity_build", |_| IntegrityIndex::build(&schema, &inputs.rows));
        let mut mirror = Mirror { rows: inputs.rows.clone(), index, entries };
        mirror.write(t, &schema, inputs.warm.clone(), &mut totals.counts)?;
        Ok(mirror)
    })?;
    totals.statements = SERVING.len() as u64;
    // Patcher outcomes in the measured loop only.
    totals.counts.touched = 0;
    totals.counts.patched_fast = 0;

    let cell = BudgetCell::new(crate::TOTAL_EPSILON);
    let (mut attempted, mut request) = (0u64, 0u64);
    let mut writes_done = 0usize;
    let clock = Clock::start(args.seconds);
    let mut round = 0u64;
    while clock.keep_going(writes_done, false) {
        let seed = round_seed(args.seed, round);
        {
            let session = db.session(session_options(seed)).map_err(err)?;
            let cached = session.snapshot().cached_statements();
            let prepared = t.span("service.prepare_hit", |_| prepare_all(&session))?;
            totals.prepares += SERVING.len() as u64;
            if session.snapshot().cached_statements() == cached {
                totals.hits += SERVING.len() as u64;
            }
            for b in 0..BLOCKS_PER_ROUND {
                let k = b % prepared.len();
                request += 1;
                t.request(request, |t| -> Result<(), String> {
                    let id = t.enter("service.answer", BLOCK as u64);
                    let served: Vec<(f64, u64)> = (0..BLOCK)
                        .map(|_| {
                            prepared[k].answer(EPSILON).map(|a| (a.noisy, a.receipt.substream))
                        })
                        .collect::<Result<_, _>>()
                        .map_err(err)?;
                    t.exit(id);
                    totals.untraced_ns += t.spans()[id].duration_ns();
                    let values = &mirror.entries[k].values;
                    let runs = t.replay_twice(BLOCK as u64, request % 2 == 1, |t, _| {
                        replay_block(t, &cell, values, &served, seed)
                    })?;
                    totals.traced_ns += runs.traced_ns;
                    totals.plain_ns += runs.plain_ns;
                    let (replayed, again) = (runs.traced, runs.plain);
                    for ((&(noisy, sub), out), plain) in served.iter().zip(&replayed).zip(&again) {
                        if noisy.to_bits() != out.to_bits() || plain.to_bits() != out.to_bits() {
                            return Err(format!(
                                "replay answered {out} (untraced {plain}), the service {noisy} \
                                 on substream {sub}: {}",
                                SERVING[k]
                            ));
                        }
                    }
                    Ok(())
                })?;
                attempted += BLOCK as u64;
            }
        }
        let batch = inputs.writes.next_batch();
        request += 1;
        t.request(request, |t| -> Result<(), String> {
            let copy = batch.clone();
            let id = t.enter("service.apply", 1);
            db.apply(copy).map_err(err)?;
            t.exit(id);
            totals.untraced_ns += t.spans()[id].duration_ns();
            t.span("replay", |t| mirror.write(t, &schema, batch, &mut totals.counts))
        })?;
        attempted += 1;
        writes_done += 1;
        round += 1;
    }
    crate::adhoc::write_trace(args, &t)?;
    Ok(Report { attempted, failed: 0, metrics: metrics::per_layer(&t, &totals) })
}

/// Budget charges and noise draws for one block of answers on the
/// substreams the service used; returns the replayed answers.
fn replay_block(
    t: &mut Tracer,
    cell: &BudgetCell,
    values: &BranchValues,
    served: &[(f64, u64)],
    seed: u64,
) -> Result<Vec<f64>, String> {
    let cfg = config();
    let ops = served.len() as u64;
    t.span_ops("core.charge", ops, |_| {
        served.iter().try_for_each(|_| cell.try_charge(EPSILON).map(drop))
    })
    .map_err(err)?;
    Ok(t.span_ops("core.noise", ops, |_| {
        served
            .iter()
            .map(|&(_, sub)| {
                R2T::new(cfg.with_epsilon(EPSILON))
                    .run_cached(values, &mut substream_rng(seed, sub))
                    .output
            })
            .collect()
    }))
}
