//! Shared database state: the committed catalog and the cross-session
//! plan cache.
//!
//! A [`Database`] is what N concurrent sessions attach to. The committed
//! [`Catalog`] lives behind `RwLock<Arc<Catalog>>` (an `ArcSwap` built from
//! std parts): readers take the read lock just long enough to clone the
//! `Arc`, so a snapshot is two atomic ops and never waits on a writer's
//! *compute*. Writers run copy-on-write — clone the committed catalog
//! (cheap: table rows and indexes are `Arc`-shared, see
//! [`crate::catalog::Table`]), mutate the private clone, then swap it in
//! under the brief write lock. A failed mutation commits nothing, which
//! gives DDL/DML statement-level atomicity for free.
//!
//! The plan cache is keyed by statement text (plus parameter-scope shape)
//! and shared across sessions. Each entry carries the dependencies its
//! planner recorded — the stamp of every table it read, the definition of
//! every function it calls — and a lookup serves it only while all of them
//! are current in the reader's snapshot. A commit therefore strands just
//! the plans that read what it changed, in every session, rather than
//! serving a stale plan or flushing the rest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use plaway_common::Result;

use crate::catalog::Catalog;
use crate::config::EngineConfig;
use crate::metrics::{MetricsRegistry, MetricsSnapshot, PlanCacheStats};
use crate::planner::PreparedPlan;
use crate::session::Session;

/// Soft cap on shared plan-cache entries; on overflow, entries whose
/// dependencies the committed catalog no longer matches are evicted first.
const PLAN_CACHE_CAP: usize = 4096;

/// What a plan-cache lookup found.
#[derive(Debug)]
pub enum PlanLookup {
    /// A plan valid for the reader's snapshot.
    Hit(Arc<PreparedPlan>),
    /// An entry whose dependencies have changed since it was planned.
    Stale,
    /// No entry under the key.
    Miss,
}

/// Shared, thread-safe database state. See the module docs for the
/// concurrency model; `DESIGN.md` has the full write-up.
#[derive(Debug)]
pub struct Database {
    /// The committed catalog. `read → Arc::clone → drop guard` is the only
    /// reader protocol; the guard must never be held across user code.
    state: RwLock<Arc<Catalog>>,
    /// Serializes writers so every commit's read-modify-write sees the
    /// latest committed state (no lost updates between concurrent commits).
    writer: Mutex<()>,
    /// Statement text (+ param scope) -> prepared plan, shared by all
    /// sessions. Entries are validated against the reader's snapshot at
    /// lookup time.
    plans: RwLock<HashMap<String, Arc<PreparedPlan>>>,
    /// Engine counters: what sessions fold in at statement boundaries,
    /// commits and plan-cache traffic (see [`crate::metrics`]).
    pub(crate) registry: MetricsRegistry,
    /// Monotonic session-id source; ids tag trace events.
    next_session_id: AtomicU64,
    /// Buffered structured trace events (JSON lines), only written to when
    /// [`EngineConfig::trace`] is on.
    trace: Mutex<Vec<String>>,
    /// Engine cost model every attached session inherits.
    pub config: EngineConfig,
}

impl Database {
    pub fn new(config: EngineConfig) -> Arc<Database> {
        Arc::new(Database {
            state: RwLock::new(Arc::new(Catalog::new())),
            writer: Mutex::new(()),
            plans: RwLock::new(HashMap::new()),
            registry: MetricsRegistry::default(),
            next_session_id: AtomicU64::new(1),
            trace: Mutex::new(Vec::new()),
            config,
        })
    }

    /// Open a new session against this database.
    pub fn session(self: &Arc<Database>) -> Session {
        Session::attach(self)
    }

    /// The committed catalog, as a shared snapshot. Readers work off this
    /// `Arc` for the remainder of their statement: a concurrent commit
    /// swaps the committed pointer but can never mutate rows the snapshot
    /// holds.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&read_lock(&self.state))
    }

    /// Run a copy-on-write commit: `f` gets a private clone of the latest
    /// committed catalog; if it succeeds the clone becomes the committed
    /// state, if it errs nothing changes. Writers are serialized; readers
    /// are only blocked for the final pointer swap.
    pub fn commit<R>(&self, f: impl FnOnce(&mut Catalog) -> Result<R>) -> Result<R> {
        let _writer: MutexGuard<'_, ()> = lock(&self.writer);
        let mut next: Catalog = (*self.snapshot()).clone();
        let out = f(&mut next)?;
        *write_lock(&self.state) = Arc::new(next);
        self.registry.commits.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Look up a cached plan for a reader of `snapshot`. A hit is a plan
    /// whose dependencies are all current there
    /// ([`Catalog::deps_current`]); a stale or absent entry counts as a
    /// miss (the caller replans and [`Database::store_plan`] replaces it).
    pub fn lookup_plan(&self, key: &str, snapshot: &Catalog) -> PlanLookup {
        let entry = read_lock(&self.plans).get(key).map(Arc::clone);
        let found = match entry {
            Some(p) if snapshot.deps_current(&p.deps) => PlanLookup::Hit(p),
            Some(_) => PlanLookup::Stale,
            None => PlanLookup::Miss,
        };
        let counter = match found {
            PlanLookup::Hit(_) => &self.registry.plan_cache_hits,
            _ => &self.registry.plan_cache_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`Database::lookup_plan`] for a reader of the committed catalog, named
    /// by its version: a hit needs `catalog_version` to still be the
    /// committed version, otherwise the lookup is a miss.
    pub fn cached_plan(&self, key: &str, catalog_version: u64) -> Option<Arc<PreparedPlan>> {
        let committed = self.snapshot();
        if committed.version != catalog_version {
            self.registry
                .plan_cache_misses
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.lookup_plan(key, &committed) {
            PlanLookup::Hit(p) => Some(p),
            PlanLookup::Stale | PlanLookup::Miss => None,
        }
    }

    /// Publish a freshly prepared plan for other sessions to reuse.
    pub fn store_plan(&self, key: String, plan: Arc<PreparedPlan>) {
        let mut plans = write_lock(&self.plans);
        if plans.len() >= PLAN_CACHE_CAP && !plans.contains_key(&key) {
            let before = plans.len();
            let committed = self.snapshot();
            plans.retain(|_, p| committed.deps_current(&p.deps));
            if plans.len() >= PLAN_CACHE_CAP {
                plans.clear();
            }
            self.registry
                .plan_cache_evictions
                .fetch_add((before - plans.len()) as u64, Ordering::Relaxed);
        }
        plans.insert(key, plan);
    }

    /// Cumulative shared plan-cache counters across all sessions.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.metrics().plan_cache
    }

    /// Number of live entries in the shared plan cache.
    pub fn plan_cache_len(&self) -> usize {
        read_lock(&self.plans).len()
    }

    /// Point-in-time view of the engine-wide metrics: the registry's
    /// session totals, commit and plan-cache counters, and the committed
    /// catalog version. See [`MetricsSnapshot::to_json`] for the JSON form.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot(self.snapshot().version)
    }

    /// Next session id (trace events are tagged with it).
    pub(crate) fn allocate_session_id(&self) -> u64 {
        self.next_session_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one structured trace event. Callers must gate on
    /// [`EngineConfig::trace`]; the buffer itself is always present so the
    /// accessor works (and returns nothing) with tracing off.
    pub(crate) fn trace_event(&self, line: String) {
        lock(&self.trace).push(line);
    }

    /// Drain and return the buffered trace events (JSON lines, in arrival
    /// order across all sessions).
    pub fn take_trace(&self) -> Vec<String> {
        std::mem::take(&mut *lock(&self.trace))
    }
}

// Lock poisoning only happens when a thread panics while holding the
// guard; the protected data here (an Arc pointer, a plan map) is never
// left half-written across a panic point, so recovering the inner value
// is sound and keeps the serving loop alive after a worker dies.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, PlanDep};
    use plaway_common::{Error, Type, Value};

    fn int_col(name: &str) -> Column {
        Column {
            name: name.to_string(),
            ty: Type::Int,
        }
    }

    #[test]
    fn snapshots_are_immutable_under_commit() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        let before = db.snapshot();
        db.commit(|cat| cat.bulk_insert("t", vec![vec![Value::Int(1)]]))
            .unwrap();
        // The old snapshot still sees zero rows; the new one sees the insert.
        assert_eq!(before.table("t").unwrap().rows.len(), 0);
        assert_eq!(db.snapshot().table("t").unwrap().rows.len(), 1);
        assert!(db.snapshot().version > before.version);
    }

    #[test]
    fn failed_commit_changes_nothing() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        let v = db.snapshot().version;
        let err: Result<()> = db.commit(|cat| {
            cat.bulk_insert("t", vec![vec![Value::Int(7)]])?;
            Err(Error::exec("boom"))
        });
        assert!(err.is_err());
        // The partial bulk_insert inside the failed commit is discarded.
        assert_eq!(db.snapshot().table("t").unwrap().rows.len(), 0);
        assert_eq!(db.snapshot().version, v);
    }

    /// A stub plan reading `table` at its stamp in `cat`.
    fn plan_over(cat: &Catalog, table: &str, sql: &str) -> Arc<PreparedPlan> {
        let stamp = cat.table(table).unwrap().stamp;
        Arc::new(PreparedPlan::test_stub(
            sql,
            vec![PlanDep::Table {
                name: table.to_string(),
                stamp,
            }],
        ))
    }

    #[test]
    fn stale_plans_count_as_misses() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        db.commit(|cat| cat.create_table("u", vec![int_col("a")]))
            .unwrap();
        let old = db.snapshot();
        db.store_plan("q".into(), plan_over(&old, "t", "q"));
        assert!(matches!(db.lookup_plan("q", &old), PlanLookup::Hit(_)));
        assert!(db.cached_plan("q", old.version).is_some());
        // A commit to a table the plan does not read keeps it valid; one to
        // the table it reads makes it stale, in the new snapshot and for
        // any version other than the committed one.
        db.commit(|cat| cat.bulk_insert("u", vec![vec![Value::Int(1)]]))
            .unwrap();
        assert!(db.cached_plan("q", db.snapshot().version).is_some());
        assert!(db.cached_plan("q", old.version).is_none());
        db.commit(|cat| cat.bulk_insert("t", vec![vec![Value::Int(1)]]))
            .unwrap();
        assert!(matches!(
            db.lookup_plan("q", &db.snapshot()),
            PlanLookup::Stale
        ));
        assert!(matches!(db.lookup_plan("q", &old), PlanLookup::Hit(_)));
        assert!(matches!(db.lookup_plan("r", &old), PlanLookup::Miss));
        assert_eq!(
            db.plan_cache_stats(),
            PlanCacheStats {
                hits: 4,
                misses: 3,
                evictions: 0
            }
        );
    }

    #[test]
    fn plan_cache_evicts_stale_versions_at_cap() {
        let db = Database::new(EngineConfig::raw());
        db.commit(|cat| cat.create_table("t", vec![int_col("a")]))
            .unwrap();
        db.commit(|cat| cat.create_table("u", vec![int_col("a")]))
            .unwrap();
        let cat = db.snapshot();
        let kept = PLAN_CACHE_CAP / 4;
        for i in 0..PLAN_CACHE_CAP {
            let table = if i < kept { "t" } else { "u" };
            let sql = format!("SELECT {i}");
            db.store_plan(sql.clone(), plan_over(&cat, table, &sql));
        }
        assert_eq!(db.plan_cache_len(), PLAN_CACHE_CAP);
        // A commit to `u` strands every entry that reads it; the next
        // insert sweeps exactly those and keeps the plans over `t`, which
        // are still valid.
        db.commit(|cat| cat.bulk_insert("u", vec![vec![Value::Int(1)]]))
            .unwrap();
        db.store_plan("fresh".into(), plan_over(&db.snapshot(), "u", "fresh"));
        assert_eq!(db.plan_cache_len(), kept + 1);
        assert_eq!(
            db.plan_cache_stats().evictions,
            (PLAN_CACHE_CAP - kept) as u64,
            "the capacity sweep must count every discarded entry"
        );
        assert!(db.cached_plan("SELECT 0", db.snapshot().version).is_some());
    }
}
