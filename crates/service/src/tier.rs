//! The multi-tenant serving tier: striped tenant directory, per-tenant ε
//! quotas, and admission control.
//!
//! A [`ServiceTier`] fronts one [`PrivateDatabase`] for many tenants — the
//! Shrinkwrap-style multi-party setting where each analyst (tenant) holds an
//! ε quota against the same private instance and the server must enforce all
//! quotas exactly while serving everyone concurrently. The directory is
//! *striped*: tenants hash across [`STRIPES`] independent `RwLock` shards,
//! and each tenant's budget is a lock-free [`BudgetCell`], so charges from
//! different tenants never serialize on anything and charges from the same
//! tenant serialize only on that tenant's own cache line (DESIGN.md §3.7).
//!
//! **Admission control.** [`ServiceTier::session`] refuses unknown
//! tenants and tenants with an exhausted quota; a refused admission — like a
//! refused charge — happens strictly before any substream index exists, so
//! it provably draws no randomness. Refusals and admissions are counted on
//! the `service.*` observability spine.
//!
//! Sessions opened through the tier are ordinary [`Session`]s whose budget
//! cell is the tenant's shared quota: any number of concurrent sessions of
//! one tenant draw down one cell, and the exact-charging invariant of
//! [`BudgetCell`] guarantees the quota is never over-committed under any
//! interleaving.

use crate::session::{check_base, Session, SessionOptions};
use crate::{Error, PrivateDatabase};
use r2t_core::{BudgetCell, R2TConfig};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};

/// Number of independent directory shards. A power of two well above any
/// realistic core count keeps the probability of two hot tenants sharing a
/// stripe low without bloating the struct.
const STRIPES: usize = 64;

struct Tenant {
    cell: Arc<BudgetCell>,
    sessions_opened: AtomicU64,
}

/// A point-in-time view of one tenant's accounting (not DP-sensitive: ε
/// budgets and their consumption are public parameters of the deployment).
#[derive(Debug, Clone)]
pub struct TenantInfo {
    /// Tenant name.
    pub name: String,
    /// Total ε quota.
    pub quota: f64,
    /// ε charged so far, across all of the tenant's sessions.
    pub spent: f64,
    /// ε still available.
    pub remaining: f64,
    /// Sessions opened (admitted) so far.
    pub sessions: u64,
}

/// The tier's shared state. Behind an `Arc` so the live-telemetry gauge
/// provider (see [`ServiceTier::new`]) can hold a `Weak` reference and pull
/// per-tenant budget state at every snapshot without tying the exporter's
/// lifetime to the tier's.
struct TierInner {
    db: PrivateDatabase,
    base: R2TConfig,
    stripes: Vec<RwLock<HashMap<String, Arc<Tenant>>>>,
}

impl TierInner {
    fn stripe(&self, name: &str) -> &RwLock<HashMap<String, Arc<Tenant>>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.stripes[(h.finish() as usize) % STRIPES]
    }

    /// Emits every tenant's ε accounting and session count into a live
    /// snapshot. Takes only stripe read locks — the same locks a directory
    /// lookup takes, never held across a recording call — so snapshotting
    /// cannot deadlock against serving (register_tenant drops its write
    /// lock before it records, and no recorder calls back into snapshots).
    fn emit_tenant_gauges(&self, emit: &mut dyn FnMut(&'static str, &str, f64)) {
        for stripe in &self.stripes {
            let stripe = stripe.read().expect("tenant stripe poisoned");
            for (name, t) in stripe.iter() {
                emit("service.tenant.eps.quota", name, t.cell.total());
                emit("service.tenant.eps.spent", name, t.cell.spent());
                emit("service.tenant.eps.remaining", name, t.cell.remaining());
                emit(
                    "service.tenant.sessions",
                    name,
                    t.sessions_opened.load(Ordering::Relaxed) as f64,
                );
            }
        }
    }
}

/// A multi-tenant, high-QPS serving front end over one [`PrivateDatabase`].
pub struct ServiceTier {
    inner: Arc<TierInner>,
    /// Unregisters the per-tenant gauge provider when the tier drops.
    _gauges: r2t_obs::ProviderGuard,
}

impl ServiceTier {
    /// Builds a tier over `db`. `base` fixes the mechanism parameters for
    /// every session the tier opens (per-answer ε still overrides
    /// [`R2TConfig::epsilon`]).
    ///
    /// Construction registers a pull-gauge provider with the live telemetry
    /// plane: every [`r2t_obs::snapshot`] carries each tenant's quota,
    /// spent, and remaining ε plus its session count, labelled by tenant
    /// name. ε budgets and their consumption are deployment-public operator
    /// state (released quantities by definition), and tenant names are
    /// operator-chosen identifiers — never tuple data.
    pub fn new(db: PrivateDatabase, base: R2TConfig) -> Self {
        let inner = Arc::new(TierInner {
            db,
            base,
            stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
        });
        let weak: Weak<TierInner> = Arc::downgrade(&inner);
        let _gauges = r2t_obs::register_gauge_provider(Box::new(move |emit| {
            if let Some(tier) = weak.upgrade() {
                tier.emit_tenant_gauges(emit);
            }
        }));
        ServiceTier { inner, _gauges }
    }

    /// The fronted database (e.g. for [`PrivateDatabase::apply`] — already
    /// admitted sessions keep their pinned snapshot).
    pub fn db(&self) -> &PrivateDatabase {
        &self.inner.db
    }

    fn stripe(&self, name: &str) -> &RwLock<HashMap<String, Arc<Tenant>>> {
        self.inner.stripe(name)
    }

    /// Registers a tenant with a total ε quota. Every session the tenant
    /// opens charges this one quota; it can never be over-committed, however
    /// many sessions run concurrently. Fails on duplicate names and invalid
    /// quotas.
    pub fn register_tenant(&self, name: &str, quota_epsilon: f64) -> Result<(), Error> {
        if !(quota_epsilon >= 0.0 && quota_epsilon.is_finite()) {
            return Err(Error::Admission(format!(
                "tenant quota must be a non-negative finite epsilon, got {quota_epsilon}"
            )));
        }
        let mut stripe = self.stripe(name).write().expect("tenant stripe poisoned");
        if stripe.contains_key(name) {
            return Err(Error::Admission(format!("tenant {name:?} is already registered")));
        }
        stripe.insert(
            name.to_string(),
            Arc::new(Tenant {
                cell: Arc::new(BudgetCell::new(quota_epsilon)),
                sessions_opened: AtomicU64::new(0),
            }),
        );
        drop(stripe); // tenants() re-locks every stripe, including this one
        r2t_obs::counter_add("service.tenants.registered", 1);
        r2t_obs::gauge_max("service.tenants", self.tenants() as u64);
        Ok(())
    }

    /// Number of registered tenants.
    pub fn tenants(&self) -> usize {
        self.inner.stripes.iter().map(|s| s.read().expect("tenant stripe poisoned").len()).sum()
    }

    /// The tenant's current accounting, or `None` if unknown.
    pub fn tenant(&self, name: &str) -> Option<TenantInfo> {
        let stripe = self.stripe(name).read().expect("tenant stripe poisoned");
        stripe.get(name).map(|t| TenantInfo {
            name: name.to_string(),
            quota: t.cell.total(),
            spent: t.cell.spent(),
            remaining: t.cell.remaining(),
            sessions: t.sessions_opened.load(Ordering::Relaxed),
        })
    }

    /// Aggregate ε charged across all tenants (sum of cell spends; exact
    /// whenever the per-charge ε values sum exactly in f64, e.g. equal
    /// powers of two).
    pub fn total_spent(&self) -> f64 {
        self.inner
            .stripes
            .iter()
            .map(|s| {
                s.read()
                    .expect("tenant stripe poisoned")
                    .values()
                    .map(|t| t.cell.spent())
                    .sum::<f64>()
            })
            .sum()
    }

    /// Admits a tenant session described by `opts`: requires
    /// [`SessionOptions::tenant`], looks the tenant up in its stripe (a
    /// shared read lock — admissions of different tenants never serialize),
    /// refuses unknown tenants and exhausted quotas, and otherwise opens a
    /// [`Session`] whose budget cell *is* the tenant's quota.
    /// [`SessionOptions::total_epsilon`] is refused — the budget comes from
    /// [`Self::register_tenant`], never from the caller.
    /// [`SessionOptions::base`] overrides the tier's base config (either is
    /// refused with [`Error::Admission`] when its `GS_Q` is not finite or
    /// exceeds 2⁶³); [`SessionOptions::seed`] roots the session's noise
    /// substreams (the caller owns seed hygiene: two sessions of one tenant
    /// must not share a seed, or they would replay each other's noise).
    ///
    /// A refused admission draws no randomness, structurally: the refusal
    /// happens before a session — and with it any substream index — exists.
    pub fn session(&self, opts: SessionOptions) -> Result<Session<'_>, Error> {
        if let Some(eps) = opts.total_epsilon {
            return Err(Error::Admission(format!(
                "tier sessions draw the tenant's registered quota; \
                 remove total_epsilon({eps})"
            )));
        }
        let Some(tenant) = opts.tenant.as_deref() else {
            return Err(Error::Admission(
                "a tier session needs a tenant (SessionOptions::tenant)".to_string(),
            ));
        };
        let base = opts.base.unwrap_or_else(|| self.inner.base.clone());
        check_base(&base)?;
        let cell = {
            let stripe = self.stripe(tenant).read().expect("tenant stripe poisoned");
            match stripe.get(tenant) {
                None => {
                    // Refusals are counted in aggregate AND split by kind,
                    // so dashboards separate misconfiguration (unknown)
                    // from budget exhaustion.
                    r2t_obs::counter_add("service.refusals.admission", 1);
                    r2t_obs::counter_add("service.refusals.admission.unknown", 1);
                    return Err(Error::Admission(format!("unknown tenant {tenant:?}")));
                }
                Some(t) => {
                    if t.cell.remaining() <= 0.0 {
                        r2t_obs::counter_add("service.refusals.admission", 1);
                        r2t_obs::counter_add("service.refusals.admission.exhausted", 1);
                        return Err(Error::Admission(format!(
                            "tenant {tenant:?} has exhausted its quota ({} of {} spent)",
                            t.cell.spent(),
                            t.cell.total()
                        )));
                    }
                    t.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(&t.cell)
                }
            }
        };
        r2t_obs::counter_add("service.admissions", 1);
        Ok(Session::new(&self.inner.db, cell, base, opts.seed))
    }
}
