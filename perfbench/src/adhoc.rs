//! The ad-hoc workloads: analysts sending statements never seen before,
//! each one `Session::prepare` + `answer` on a cold cache entry, while the
//! data owner refreshes the data set.
//!
//! - `adhoc_join` opens a read-only archive (customer private, scale 1.0):
//!   the columnar executor does nearly all of the work.
//! - `adhoc_lp` queries the writable heap database (customer and supplier
//!   private, scale 0.3): truncation LPs and the incremental views that
//!   every heap prepare builds and caches.
//!
//! A refresh installs the generated rows plus every batch of new orders so
//! far with `WriteBatch::replace`. That is the one write an archive-opened
//! database accepts, and on the heap database it stands for a reload from
//! the source: a delta batch there re-prepares every cached cyclic
//! statement and re-sweeps every cached projection, about 6 s per batch
//! with 100 statements cached and 17 s with 300.

use crate::client::{self, Clock, ACCURACY_SALT, MIN_SAMPLES, SETUPS};
use crate::metrics::{self, EndToEnd, TraceTotals};
use crate::replay::{self, Counts};
use crate::stream::{Mix, Statement, StatementStream, TEMPLATES};
use crate::sys::{self, CpuTimer};
use crate::trace::Tracer;
use crate::writes::WriteStream;
use crate::{config, round_seed, session_options, Args, Report, EPSILON};
use r2t_core::{BudgetCell, R2T};
use r2t_engine::exec::{self, Source};
use r2t_engine::{storage, Archive, Instance, Schema, WriteBatch};
use r2t_service::{substream_rng, PrivateDatabase};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Statements (the first of the timed stream) whose accuracy is measured.
const ACCURACY_STATEMENTS: usize = 24;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Data {
    schema: Schema,
    scale: f64,
    seed: u64,
    /// Row data for the heap database; `None` once written to the archive.
    rows: Option<Instance>,
    archive: Option<ArchiveFile>,
}

/// The archive written for `adhoc_join`, removed when dropped.
struct ArchiveFile(PathBuf);

impl Drop for ArchiveFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl Data {
    fn generate(args: &Args, mix: Mix) -> Data {
        let (schema, scale) = match mix {
            Mix::Join => (r2t_tpch::tpch_schema(&["customer"]), 1.0),
            Mix::Lp => (r2t_tpch::tpch_schema(&["customer", "supplier"]), 0.3),
        };
        let scale = args.scale.unwrap_or(scale);
        let rows = r2t_tpch::generate(scale, 0.3, args.seed);
        Data { schema, scale, seed: args.seed, rows: Some(rows), archive: None }
    }

    /// Moves the rows into an archive file under `out`.
    fn write_archive(&mut self, out: &Path) -> Result<(), String> {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("adhoc_join-{}.r2t", std::process::id()));
        let rows = self.rows.take().expect("rows not yet archived");
        storage::write_archive(&self.schema, &rows, &path).map_err(err)?;
        self.archive = Some(ArchiveFile(path));
        Ok(())
    }

    fn archive_path(&self) -> Option<&Path> {
        self.archive.as_ref().map(|a| a.0.as_path())
    }

    /// A cold database: the archive opened, or the rows validated.
    /// Copying the rows is input preparation and stays off the clock.
    fn open(&self) -> Result<(PrivateDatabase, CpuTimer), String> {
        let rows = self.rows.clone();
        let start = CpuTimer::start();
        let db = match (self.archive_path(), rows) {
            (Some(path), _) => PrivateDatabase::open_archive(self.schema.clone(), path),
            (None, Some(rows)) => PrivateDatabase::new(self.schema.clone(), rows),
            (None, None) => unreachable!("heap data keeps its rows"),
        };
        Ok((db.map_err(err)?, start))
    }

    /// The generated rows, regenerated when the archive replaced them.
    fn shadow_rows(&self) -> Instance {
        self.rows.clone().unwrap_or_else(|| r2t_tpch::generate(self.scale, 0.3, self.seed))
    }

    /// Where the next refresh lands when not on the measured heap
    /// database: the workload's archive opened afresh, since a replace
    /// moves a database off its archive for good.
    fn refresh_target(&self) -> Result<Option<PrivateDatabase>, String> {
        self.archive_path()
            .map(|path| PrivateDatabase::open_archive(self.schema.clone(), path).map_err(err))
            .transpose()
    }
}

/// One cold set-up: a fresh database plus one answer per template, with
/// texts outside the timed stream. Returns the database and its seconds.
fn set_up(data: &Data, warm: &[Statement], k: usize) -> Result<(PrivateDatabase, f64), String> {
    let (db, start) = data.open()?;
    {
        let session = db.session(session_options(k as u64)).map_err(err)?;
        for s in warm {
            session.answer(&s.text, EPSILON).map_err(err)?;
        }
    }
    let seconds = start.elapsed_s();
    Ok((db, seconds))
}

/// The data versions the refreshes install: the generated rows plus one
/// more batch of new orders each time.
struct Versions {
    rows: Instance,
    writes: WriteStream,
}

impl Versions {
    fn new(rows: Instance, seed: u64) -> Versions {
        let writes = WriteStream::new(&rows, seed, false);
        Versions { rows, writes }
    }

    fn next(&mut self, schema: &Schema) -> Result<Instance, String> {
        let batch = self.writes.next_batch();
        batch.resolve(schema, &Instance::new()).map_err(err)?.apply_mut(&mut self.rows);
        Ok(self.rows.clone())
    }
}

pub fn run(args: &Args, mix: Mix) -> Result<Report, String> {
    let mut data = Data::generate(args, mix);
    if mix == Mix::Join {
        data.write_archive(&args.out)?;
    }
    sys::release_free_memory();
    sys::reset_peak_rss()?;
    let mut stream = StatementStream::new(mix, args.seed);
    let warm: Vec<Statement> = stream.by_ref().take(TEMPLATES).collect();
    if args.trace {
        return traced(args, &data, &warm, stream);
    }
    let (db, first) = set_up(&data, &warm, 0)?;
    let mut e2e = EndToEnd { setup_s: vec![first], ..EndToEnd::default() };
    // Opened before any refresh, it keeps the state the accuracy statements
    // are prepared on, and whose exact values the generated rows give.
    let accuracy = db.session(session_options(args.seed ^ ACCURACY_SALT)).map_err(err)?;
    let mut session = db.session(session_options(args.seed)).map_err(err)?;
    let mut versions = None;
    let mut refreshes = 0usize;
    let mut issued = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = Clock::start(args.seconds);
    while clock
        .keep_going(e2e.answer_ms.len(), e2e.setup_s.len() < SETUPS || refreshes < MIN_SAMPLES)
    {
        let s = stream.next().expect("endless stream");
        let t0 = CpuTimer::start();
        let result = session.prepare(&s.text).and_then(|p| p.answer(EPSILON));
        let elapsed = t0.elapsed_s();
        attempted += 1;
        match result {
            Ok(a) => {
                black_box(a.noisy);
                e2e.answer_ms.push(elapsed * 1e3);
                e2e.busy_s += elapsed;
                e2e.answers += 1;
                if e2e.answers == MIN_SAMPLES as u64 {
                    // A fixed amount of work: the prepared cache grows with
                    // every statement, so a later reading would depend on
                    // how many fitted in the run.
                    e2e.peak_rss_mb = sys::peak_rss_mb()?;
                    clock.spread_from_now();
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}: {}", s.text);
                failed += 1;
            }
        }
        if issued.len() < ACCURACY_STATEMENTS {
            issued.push(s);
        }
        while clock.due(e2e.setup_s.len() - 1, SETUPS - 1) {
            let seconds = set_up(&data, &warm, e2e.setup_s.len())?.1;
            e2e.setup_s.push(seconds);
        }
        while clock.due(refreshes, MIN_SAMPLES) {
            // Generated once the peak-RSS reading is taken, so the copy of
            // the rows stays out of it.
            let versions =
                versions.get_or_insert_with(|| Versions::new(data.shadow_rows(), data.seed));
            let batch = WriteBatch::replace(versions.next(&data.schema)?);
            let target = data.refresh_target()?;
            let t0 = CpuTimer::start();
            let result = target.as_ref().unwrap_or(&db).apply(batch);
            let elapsed = t0.elapsed_s();
            refreshes += 1;
            attempted += 1;
            match result {
                Ok(_) => e2e.write_ms.push(elapsed * 1e3),
                Err(e) => {
                    eprintln!("refresh failed: {e}");
                    failed += 1;
                }
            }
            if data.archive.is_none() {
                // The session pinned the state before the refresh; the
                // analysts' next statements see the refreshed data.
                session = db
                    .session(session_options(round_seed(args.seed, refreshes as u64)))
                    .map_err(err)?;
            }
        }
    }
    drop(session);

    // Accuracy: many extra answers per statement, drawn after the timed
    // loop from a session of their own (so the figure depends on the seed
    // alone, not on how many requests the loop fitted), against exact
    // values from the benchmark's own copy of the rows.
    let rows = data.shadow_rows();
    let mut errors = Vec::new();
    for s in &issued {
        let prepared = accuracy.prepare(&s.text).map_err(err)?;
        let lowered = r2t_sql::parse_statement(&s.text, &data.schema).map_err(err)?;
        let exact = exec::profile(&data.schema, &rows, &lowered.query).map_err(err)?.query_result();
        // Gate: the service's exact answer (through the archive on
        // adhoc_join) equals the executor's over the rows.
        let served = prepared.summary().expect("scalar statement").query_result;
        if served.to_bits() != exact.to_bits() {
            return Err(format!(
                "exact answer {served} through the service != {exact} over the rows: {}",
                s.text
            ));
        }
        errors.push(client::accuracy_pct(&prepared, exact)?);
    }
    e2e.rel_error_pct = crate::stats::median(&errors);
    Ok(Report { attempted, failed, metrics: e2e.metrics()? })
}

/// The traced run: the same set-up, stream and refreshes, each request
/// served by the service and then replayed layer by layer; the replay must
/// reproduce the service's answer bit for bit. Every request is replayed a
/// second time without recording spans, which times what tracing costs.
fn traced(
    args: &Args,
    data: &Data,
    warm: &[Statement],
    mut stream: StatementStream,
) -> Result<Report, String> {
    let mut t = Tracer::default();
    let mut totals = TraceTotals::default();
    let (db, _) = set_up(data, warm, 0)?;
    let archive = match data.archive_path() {
        Some(path) => Some(
            t.request(0, |t| t.span("engine.open", |_| Archive::open(&data.schema, path)))
                .map_err(err)?,
        ),
        None => None,
    };
    // The rows the heap database serves, which each refresh replaces.
    let mut rows = data.rows.clone();
    let mut seed = args.seed;
    let mut session = db.session(session_options(seed)).map_err(err)?;
    let cell = BudgetCell::new(crate::TOTAL_EPSILON);
    let mut versions = None;
    let mut refreshes = 0usize;
    let (mut attempted, mut request) = (0u64, 0u64);
    let mut clock = Clock::start(args.seconds);
    while clock.keep_going(attempted as usize, refreshes < MIN_SAMPLES) {
        let s = stream.next().expect("endless stream");
        attempted += 1;
        request += 1;
        let source = match (&archive, &rows) {
            (Some(a), _) => Source::Archive(a),
            (None, Some(rows)) => Source::Rows(rows),
            (None, None) => unreachable!("heap data keeps its rows"),
        };
        t.request(request, |t| -> Result<(), String> {
            let cached = session.snapshot().cached_statements();
            let id = t.enter("service.prepare", 1);
            let prepared = session.prepare(&s.text);
            t.exit(id);
            let prepare_ns = t.spans()[id].duration_ns();
            totals.prepares += 1;
            if session.snapshot().cached_statements() == cached {
                totals.hits += 1;
            } else {
                totals.prepare_miss_ms.push(prepare_ns as f64 / 1e6);
            }
            let id = t.enter("service.answer", 1);
            let answer = prepared.and_then(|p| p.answer(EPSILON)).map_err(err)?;
            t.exit(id);
            totals.untraced_ns += prepare_ns + t.spans()[id].duration_ns();
            totals.statements += 1;

            let sub = answer.receipt.substream;
            let mut scratch = Counts::default();
            let runs = t.replay_twice(1, request % 2 == 1, |t, recording| {
                let counts = if recording { &mut totals.counts } else { &mut scratch };
                replay_answer(t, &data.schema, source, &s.text, &cell, counts, seed, sub)
            })?;
            totals.traced_ns += runs.traced_ns;
            totals.plain_ns += runs.plain_ns;
            let (out, again) = (runs.traced, runs.plain);
            if out.to_bits() != answer.noisy.to_bits() || again.to_bits() != out.to_bits() {
                return Err(format!(
                    "replay answered {out} (untraced {again}), the service {} on substream \
                     {sub}: {}",
                    answer.noisy, s.text
                ));
            }
            Ok(())
        })?;
        if attempted == MIN_SAMPLES as u64 {
            clock.spread_from_now();
        }
        while clock.due(refreshes, MIN_SAMPLES) {
            let versions =
                versions.get_or_insert_with(|| Versions::new(data.shadow_rows(), data.seed));
            let version = versions.next(&data.schema)?;
            refreshes += 1;
            request += 1;
            t.request(request, |t| -> Result<(), String> {
                let (replayed, batch) = (version.clone(), WriteBatch::replace(version));
                let target = data.refresh_target()?;
                let id = t.enter("service.apply", 1);
                target.as_ref().unwrap_or(&db).apply(batch).map_err(err)?;
                t.exit(id);
                totals.untraced_ns += t.spans()[id].duration_ns();
                t.span("replay", |t| {
                    t.span("engine.validate", |_| replayed.validate(&data.schema))
                })
                .map_err(err)?;
                if archive.is_none() {
                    rows = Some(replayed);
                }
                Ok(())
            })?;
            if archive.is_none() {
                seed = round_seed(args.seed, refreshes as u64);
                session = db.session(session_options(seed)).map_err(err)?;
            }
        }
    }
    write_trace(args, &t)?;
    Ok(Report {
        attempted: attempted + refreshes as u64,
        failed: 0,
        metrics: metrics::per_layer(&t, &totals),
    })
}

/// SQL → lineage → τ grid → budget charge → noise, through each layer's
/// entry point; returns the answer drawn on the service's noise substream.
#[allow(clippy::too_many_arguments)]
fn replay_answer(
    t: &mut Tracer,
    schema: &Schema,
    source: Source<'_>,
    sql: &str,
    cell: &BudgetCell,
    counts: &mut Counts,
    seed: u64,
    substream: u64,
) -> Result<f64, String> {
    let cfg = config();
    let lowered = replay::parse(t, schema, sql)?;
    let profile = replay::profile(t, schema, source, &lowered.query, counts)?;
    let values = replay::sweep(t, &profile, &cfg, counts);
    t.span("core.charge", |_| cell.try_charge(EPSILON)).map_err(err)?;
    Ok(t.span("core.noise", |_| {
        R2T::new(cfg.with_epsilon(EPSILON))
            .run_cached(&values, &mut substream_rng(seed, substream))
            .output
    }))
}

/// Writes the spans of a traced run under `--out`.
pub fn write_trace(args: &Args, t: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
}
