//! The database facade: a validated instance plus its privacy policy.

use crate::session::{check_base, Session, SessionOptions};
use crate::snapshot::Snapshot;
use crate::Error;
use r2t_core::{truncation, BudgetCell};
use r2t_engine::exec::{self, ExecOptions};
use r2t_engine::{Instance, IntegrityIndex, ProfileSummary, QueryProfile, Schema, WriteBatch};
use r2t_sql::parse_statement;
use std::sync::{Arc, Mutex, RwLock};

/// A validated database instance plus its privacy policy, answering SQL
/// queries under ε-DP with R2T.
///
/// The instance data lives in an immutable [`Snapshot`] behind an
/// atomically swapped `Arc`. Writes go through [`Self::apply`]: a typed
/// [`WriteBatch`] of per-relation inserts and deletes is validated against
/// the schema, checked for integrity in O(batch) against an incrementally
/// maintained index, and installed as a new snapshot *without* rebuilding —
/// the new version defers its row data (parent + delta, folded on first
/// read) and carries the parent's prepared-statement cache forward, patched
/// through each entry's incremental view (built by the first write that
/// touches the entry). Concurrent readers are never
/// stalled, and every open [`Session`] keeps answering bit-identically on
/// the snapshot it pinned at open time.
///
/// The schema (and with it the privacy designation) is fixed for the
/// database's lifetime — changing it would invalidate every cached profile
/// and every sensitivity bound at once, so that is a new database, not a
/// write.
///
/// Answers come from a [`Session`] ([`Self::session`]): it enforces a total
/// budget across everything the analyst asks and amortizes query
/// preparation.
#[derive(Debug)]
pub struct PrivateDatabase {
    schema: Schema,
    data: RwLock<Arc<Snapshot>>,
    /// Serializes writers and holds the incrementally maintained integrity
    /// index for the *current* snapshot (built lazily on the first delta
    /// apply, reset by a replace). Readers never take this lock.
    write_gate: Mutex<Option<IntegrityIndex>>,
}

impl Clone for PrivateDatabase {
    /// The clone shares the current (immutable) snapshot — including its
    /// prepared cache — but swaps independently from the original.
    fn clone(&self) -> Self {
        PrivateDatabase {
            schema: self.schema.clone(),
            data: RwLock::new(self.snapshot()),
            write_gate: Mutex::new(None),
        }
    }
}

impl PrivateDatabase {
    /// Builds the system, validating referential integrity and the FK DAG.
    pub fn new(schema: Schema, instance: Instance) -> Result<Self, Error> {
        instance.validate(&schema)?;
        Ok(PrivateDatabase {
            schema,
            data: RwLock::new(Arc::new(Snapshot::new(instance, 0))),
            write_gate: Mutex::new(None),
        })
    }

    /// Opens the database from an on-disk columnar archive
    /// ([`r2t_engine::storage::write_archive`]) instead of row data.
    ///
    /// Cold start is mmap + checksum validation — no per-row work. The
    /// opening snapshot serves queries zero-copy over the mapped columns;
    /// referential integrity was checked when the archive was written (the
    /// writer refuses unvalidated instances and the format records it), so
    /// it is not re-derived here. The mapped snapshot is read-only:
    /// [`Self::apply`] refuses delta batches against it with
    /// [`Error::Unsupported`] — a [`r2t_engine::WriteBatch::replace`] (which
    /// never reads the parent) installs fresh heap data and re-enables
    /// writes from that version on.
    pub fn open_archive(schema: Schema, path: impl AsRef<std::path::Path>) -> Result<Self, Error> {
        let archive = r2t_engine::Archive::open(&schema, path.as_ref())?;
        Ok(PrivateDatabase {
            schema,
            data: RwLock::new(Arc::new(Snapshot::from_archive(Arc::new(archive), 0))),
            write_gate: Mutex::new(None),
        })
    }

    /// The schema (including the privacy designation).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current data snapshot. Cheap (one `Arc` clone under a read lock
    /// held for nanoseconds); the returned snapshot is immutable and stays
    /// valid — and answerable — however many writes happen after.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.data.read().expect("snapshot lock poisoned"))
    }

    /// Applies a typed write batch and returns the new snapshot version.
    ///
    /// **Delta batches** (staged via [`WriteBatch::insert`] /
    /// [`WriteBatch::delete`]) are validated against the schema, resolved to
    /// concrete rows, and integrity-checked in O(batch) against an
    /// incrementally maintained PK/FK index — a rejected batch changes
    /// nothing and reports [`Error::Mutation`]. An accepted batch installs a
    /// new snapshot whose row data is *deferred* (parent + delta, folded on
    /// first read) and whose prepared cache is revalidated from the parent:
    /// entries whose relations the write did not touch are shared, touched
    /// entries are patched through their incremental view (bit-identical to
    /// a from-scratch re-prepare; an entry's first touching write builds the
    /// view from the image it was prepared on) or dropped when they have no
    /// incremental plan (the next prepare rebuilds them), and the
    /// per-outcome counts land on the `service.apply.entries.*` counters.
    /// An empty batch still installs a (fully shared) new version. No
    /// snapshot image is built here.
    ///
    /// **Replace batches** ([`WriteBatch::replace`]) validate the new
    /// instance from scratch and install it with an empty cache; failures
    /// report [`Error::Engine`].
    ///
    /// Writers serialize on the write gate; readers are never stalled, and
    /// open sessions keep their pinned snapshot untouched (bit-identical
    /// answers before and after).
    pub fn apply(&self, batch: WriteBatch) -> Result<u64, Error> {
        let _apply_ns = r2t_obs::hist_time("service.apply.ns");
        let mut gate = self.write_gate.lock().expect("write gate poisoned");
        let parent = self.snapshot();
        if batch.is_replace() {
            // Resolve never reads the instance for a replace batch, so an
            // unmaterialized parent chain stays unmaterialized.
            let instance = batch
                .resolve(&self.schema, &Instance::new())?
                .into_replace()
                .expect("replace batch resolves to a replace write");
            instance.validate(&self.schema)?;
            // The index describes rows that are being discarded wholesale.
            *gate = None;
            let version = parent.version() + 1;
            let mut data = self.data.write().expect("snapshot lock poisoned");
            *data = Arc::new(Snapshot::new(instance, version));
            drop(data);
            r2t_obs::counter_add("service.reloads", 1);
            return Ok(version);
        }
        if parent.is_mapped() {
            // A delta against mapped columns would have to fork them onto the
            // heap, silently ending the out-of-core guarantee mid-write.
            // Refuse instead: mapped snapshots are immutable by contract.
            return Err(Error::Unsupported(
                "delta writes against an archive-opened database are not supported: \
                 the memory-mapped columns are immutable (stage the new data as \
                 WriteBatch::replace, or open the database from rows to mutate it)"
                    .to_string(),
            ));
        }
        // Insert-only batches never consult existing rows while resolving,
        // so they keep a chain of unread snapshots unmaterialized.
        let resolved = if batch.has_deletes() {
            batch.resolve(&self.schema, parent.instance())
        } else {
            batch.resolve(&self.schema, &Instance::new())
        }
        .map_err(Error::Mutation)?;
        let index = match gate.as_mut() {
            Some(i) => i,
            None => gate.insert(IntegrityIndex::build(&self.schema, parent.instance())),
        };
        index.check(&self.schema, resolved.deltas()).map_err(Error::Mutation)?;
        let write = Arc::new(resolved);
        let version = parent.version() + 1;
        let (snap, stats) = Snapshot::revalidate_from(&self.schema, &parent, &write, version);
        index.commit(&self.schema, write.deltas());
        {
            let mut data = self.data.write().expect("snapshot lock poisoned");
            *data = Arc::new(snap);
        }
        r2t_obs::counter_add("service.applies", 1);
        r2t_obs::counter_add("service.apply.entries.shared", stats.shared);
        r2t_obs::counter_add("service.apply.entries.patched", stats.patched);
        r2t_obs::counter_add("service.apply.entries.patched_fast", stats.patched_fast);
        r2t_obs::counter_add("service.apply.entries.patched_unchanged", stats.patched_unchanged);
        r2t_obs::counter_add("service.apply.entries.dropped", stats.dropped);
        r2t_obs::counter_add("service.apply.entries.views_built", stats.views_built);
        Ok(version)
    }

    /// Opens a serving session described by `opts`: requires
    /// [`SessionOptions::total_epsilon`] (the session's private budget) and
    /// [`SessionOptions::base`] (the mechanism parameters — β, `GS_Q`,
    /// execution strategy — for every answer; each charge picks its own ε).
    /// [`SessionOptions::tenant`] is refused here — tenant sessions draw a
    /// shared quota and are opened through a [`crate::ServiceTier`].
    ///
    /// [`SessionOptions::seed`] roots the session's deterministic noise
    /// substreams: the `i`-th successful charge draws from
    /// [`crate::substream_rng`]`(seed, i)`. The session pins the current
    /// snapshot: a concurrent [`Self::apply`] never changes its answers.
    ///
    /// A base config whose `GS_Q` is not finite or exceeds 2⁶³ is refused
    /// with [`Error::Admission`]: its τ grid would run past `u64`.
    pub fn session(&self, opts: SessionOptions) -> Result<Session<'_>, Error> {
        if let Some(tenant) = opts.tenant.as_deref() {
            return Err(Error::Admission(format!(
                "tenant {tenant:?} sessions are opened through a ServiceTier, \
                 not the bare database"
            )));
        }
        let Some(total) = opts.total_epsilon else {
            return Err(Error::Admission(
                "a database session needs a total ε budget (SessionOptions::total_epsilon)"
                    .to_string(),
            ));
        };
        if !(total >= 0.0 && total.is_finite()) {
            return Err(Error::Admission(format!(
                "total ε budget must be a non-negative finite epsilon, got {total}"
            )));
        }
        let Some(base) = opts.base else {
            return Err(Error::Admission(
                "a database session needs mechanism parameters (SessionOptions::base)".to_string(),
            ));
        };
        check_base(&base)?;
        Ok(Session::new(self, Arc::new(BudgetCell::new(total)), base, opts.seed))
    }

    /// Evaluates a query *without* privacy (for testing / utility studies),
    /// against the current snapshot.
    pub fn query_exact(&self, sql: &str) -> Result<f64, Error> {
        Ok(self.profile(sql)?.query_result())
    }

    /// The lineage shape of a query without answering it. The output is
    /// *not* DP — it is a planning/debugging aid.
    pub fn describe(&self, sql: &str) -> Result<ProfileSummary, Error> {
        Ok(self.profile(sql)?.summary())
    }

    /// [`Self::describe`] rendered as one line, followed by the kernel the
    /// truncation dispatcher picks for the statement's LP (`closed-form`,
    /// `max-flow` or `simplex`; `none` for an empty profile).
    pub fn explain(&self, sql: &str) -> Result<String, Error> {
        let profile = self.profile(sql)?;
        let trunc = truncation::for_profile(&profile);
        let kernel = trunc.sweep_session().map_or("none".to_string(), |s| s.kind().to_string());
        Ok(format!("{}; LP kernel = {kernel}", profile.summary()))
    }

    /// The lineage profile of a statement over the current snapshot's
    /// image (built on first use, and shared with every prepare on it).
    fn profile(&self, sql: &str) -> Result<QueryProfile, Error> {
        let lowered = parse_statement(sql, &self.schema)?;
        let snap = self.snapshot();
        let opts = ExecOptions::default();
        Ok(exec::profile_with_stats_src(
            &self.schema,
            snap.source(&self.schema),
            &lowered.query,
            &opts,
        )?
        .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2t_engine::{storage, Value};

    /// A tiny FK chain (customer ← orders) with customer primary private.
    fn chain() -> (Schema, Instance) {
        let mut schema = Schema::new();
        schema.add_relation("customer", &["ck"], Some("ck"), &[]).unwrap();
        schema.add_relation("orders", &["ok", "ck"], Some("ok"), &[("ck", "customer")]).unwrap();
        schema.set_primary_private(&["customer"]).unwrap();
        let mut inst = Instance::new();
        for c in 0..7i64 {
            inst.insert("customer", vec![Value::Int(c)]);
        }
        for o in 0..23i64 {
            inst.insert("orders", vec![Value::Int(o), Value::Int(o % 7)]);
        }
        (schema, inst)
    }

    #[test]
    fn archive_database_answers_like_rows_and_refuses_deltas() {
        let (schema, inst) = chain();
        let path =
            std::env::temp_dir().join(format!("r2t_service_archive_{}.r2t", std::process::id()));
        storage::write_archive(&schema, &inst, &path).unwrap();

        let from_rows = PrivateDatabase::new(schema.clone(), inst.clone()).unwrap();
        let mapped = PrivateDatabase::open_archive(schema, &path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // Queries over the mapped columns are bit-identical to the heap path.
        let sql = "SELECT COUNT(*) FROM customer, orders WHERE customer.ck = orders.ck";
        assert_eq!(
            mapped.query_exact(sql).unwrap().to_bits(),
            from_rows.query_exact(sql).unwrap().to_bits(),
        );
        assert_eq!(mapped.describe(sql).unwrap(), from_rows.describe(sql).unwrap());

        // A delta batch is refused loudly — never applied, never forked.
        let mut delta = WriteBatch::new();
        delta.insert("customer", vec![Value::Int(100)]);
        match mapped.apply(delta) {
            Err(Error::Unsupported(msg)) => assert!(msg.contains("archive")),
            other => panic!("expected Unsupported for delta on mapped db, got {other:?}"),
        }
        assert_eq!(mapped.snapshot().version(), 0, "refused write must not bump");

        // A replace never reads the parent, so it is allowed — and the
        // installed heap snapshot accepts deltas again.
        let version = mapped.apply(WriteBatch::replace(inst)).unwrap();
        assert_eq!(version, 1);
        let mut delta = WriteBatch::new();
        delta.insert("customer", vec![Value::Int(100)]);
        assert_eq!(mapped.apply(delta).unwrap(), 2);
        assert_eq!(mapped.query_exact("SELECT COUNT(*) FROM customer").unwrap(), 8.0);
    }
}
