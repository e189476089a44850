//! Engine counters, declared once in a table and merged lock-free.
//!
//! Every counter a session feeds is one line of the `counters!` table
//! below, giving its name, its group and its [`Kind`]. The macro derives
//! from it the [`RuntimeStats`] fields the executor bumps,
//! [`RuntimeStats::delta_since`], the flat [`SessionMetrics`] and the
//! [`COUNTERS`] list; walking that list, one code path per kind builds the
//! [`MetricsRegistry`] atomics, the [`MetricsSnapshot`] and its JSON.
//!
//! At each statement boundary a session turns its wall time and
//! [`RuntimeStats`] delta into a one-statement [`SessionMetrics`], folds it
//! into its own mirror ([`crate::Session::metrics`]) and into the
//! [`Database`]'s registry with relaxed atomics — no locks. Merging the
//! mirrors of every session therefore gives exactly the registry's totals
//! (for [`Kind::Peak`] counters, at most them), which `tests/concurrency.rs`
//! checks under contention. [`Database::metrics`] snapshots the registry,
//! plus the commit and plan-cache counters and the committed catalog
//! version, into a [`MetricsSnapshot`] that serializes to JSON with a fixed,
//! sorted key order and parses back losslessly.
//!
//! [`Database`]: crate::Database
//! [`Database::metrics`]: crate::Database::metrics

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log2 latency buckets: bucket `i` counts statements whose wall time in
/// nanoseconds has `i` significant bits, i.e. `ns in [2^(i-1), 2^i)` for
/// `i > 0` and `ns == 0` in bucket 0. 64 buckets cover the full `u64` range.
pub const LATENCY_BUCKETS: usize = 64;

/// Shared plan-cache counters, cumulative across all sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the shared cache at the current catalog version.
    pub hits: u64,
    /// Lookups that missed (including stale-version entries).
    pub misses: u64,
    /// Entries discarded by the capacity sweep in `store_plan`.
    pub evictions: u64,
}

/// A mergeable log2-bucketed latency histogram (plain counters; the
/// registry keeps the atomic twin and converts on snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

/// Bucket index for a nanosecond measurement: its significant-bit count,
/// clamped so the top bucket absorbs everything from `2^62` ns (~146
/// years) up.
pub fn latency_bucket(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    pub fn record(&mut self, ns: u64) {
        self.buckets[latency_bucket(ns)] += 1;
    }

    /// Fold another histogram into this one (buckets are independent
    /// counters, so merging is a per-bucket add).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Total recorded measurements.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// measurement (0.0 ..= 1.0), or 0 when empty. Log-bucketed, so this
    /// is an order-of-magnitude answer — exactly what tail-latency
    /// attribution needs, at 64 words of state.
    pub fn approx_quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

/// How a counter folds across statements and sessions — the one attribute
/// of a table entry besides its name and group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A running total: a statement's share is the difference, merges add.
    Sum,
    /// A high-water mark: a statement reports the later value, merges keep
    /// the maximum.
    Peak,
}

impl Kind {
    /// The counter's change from `before` to `now`. Sums subtract
    /// saturating, so a mid-interval reset yields zero, not wrap-around.
    pub fn delta(self, now: u64, before: u64) -> u64 {
        match self {
            Kind::Sum => now.saturating_sub(before),
            Kind::Peak => now,
        }
    }

    /// Fold `v` into `acc`.
    pub fn merge(self, acc: &mut u64, v: u64) {
        match self {
            Kind::Sum => *acc += v,
            Kind::Peak => *acc = (*acc).max(v),
        }
    }

    /// [`Kind::merge`] into a shared relaxed atomic: the value publishes no
    /// other data, and `fetch_add` / `fetch_max` never lose an update.
    fn merge_atomic(self, acc: &AtomicU64, v: u64) {
        match self {
            Kind::Sum => acc.fetch_add(v, Ordering::Relaxed),
            Kind::Peak => acc.fetch_max(v, Ordering::Relaxed),
        };
    }
}

/// One table entry as the generic walks see it: the counter's field name,
/// which is also its JSON key, and its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    pub name: &'static str,
    pub kind: Kind,
}

/// Expands the counter table into every type that carries the counters.
/// Groups: `statement` counters are fed by the session at each statement
/// boundary; `top`, `batch` and `tier` counters are [`RuntimeStats`]
/// fields (the last two nested as `stats.batch` / `stats.tier`).
macro_rules! counters {
    (
        statement { $($(#[$sdoc:meta])* $stmt:ident: $skind:ident,)* }
        top { $($(#[$tdoc:meta])* $top:ident: $tkind:ident,)* }
        batch { $($(#[$bdoc:meta])* $batch:ident: $bkind:ident,)* }
        tier { $($(#[$rdoc:meta])* $tier:ident: $rkind:ident,)* }
    ) => {
        /// Execution counters (beyond buffer accounting), bumped in place by
        /// the executor, VM and tiers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct RuntimeStats {
            $($(#[$tdoc])* pub $top: u64,)*
            /// Batch-trampoline working-set counters (the `WITH RETIRE` driver).
            pub batch: BatchCounters,
            /// Tiered-execution counters (the [`crate::tier`] mono tier).
            pub tier: TierCounters,
        }

        /// Working-set counters of the batch trampoline (`WITH RETIRE`
        /// fixpoints), nested in [`RuntimeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct BatchCounters {
            $($(#[$bdoc])* pub $batch: u64,)*
        }

        /// Counters of the tiered-execution layer ([`crate::tier`]), nested
        /// in [`RuntimeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TierCounters {
            $($(#[$rdoc])* pub $tier: u64,)*
        }

        impl RuntimeStats {
            /// Field-wise change since a `before` copy, per [`Kind::delta`]
            /// (statement-boundary metrics).
            pub fn delta_since(&self, before: &RuntimeStats) -> RuntimeStats {
                RuntimeStats {
                    $($top: Kind::$tkind.delta(self.$top, before.$top),)*
                    batch: BatchCounters {
                        $($batch: Kind::$bkind.delta(self.batch.$batch, before.batch.$batch),)*
                    },
                    tier: TierCounters {
                        $($tier: Kind::$rkind.delta(self.tier.$tier, before.tier.$tier),)*
                    },
                }
            }

            /// Every counter's slot, in table order.
            #[cfg(test)]
            pub(crate) fn counters_mut(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$top,)* $(&mut self.batch.$batch,)* $(&mut self.tier.$tier,)*]
            }
        }

        /// Every counter of the table, flattened, plus the statement
        /// latency histogram. A session keeps one as its cumulative mirror
        /// ([`crate::Session::metrics`], never cleared by
        /// `reset_instrumentation`) that tests and `bench_smoke` read per
        /// session; a [`MetricsSnapshot`] holds the registry's merge of
        /// every session's mirror.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct SessionMetrics {
            $($(#[$sdoc])* pub $stmt: u64,)*
            $($(#[$tdoc])* pub $top: u64,)*
            $($(#[$bdoc])* pub $batch: u64,)*
            $($(#[$rdoc])* pub $tier: u64,)*
            /// Statement wall times, log2-bucketed.
            pub latency: LatencyHistogram,
        }

        /// The counter table, in [`SessionMetrics`] field order.
        pub const COUNTERS: &[Counter] = &[
            $(Counter { name: stringify!($stmt), kind: Kind::$skind },)*
            $(Counter { name: stringify!($top), kind: Kind::$tkind },)*
            $(Counter { name: stringify!($batch), kind: Kind::$bkind },)*
            $(Counter { name: stringify!($tier), kind: Kind::$rkind },)*
        ];

        impl SessionMetrics {
            /// The [`RuntimeStats`] counters of `delta`; statement counters
            /// and latency zero.
            fn from_stats(delta: &RuntimeStats) -> SessionMetrics {
                SessionMetrics {
                    $($top: delta.$top,)*
                    $($batch: delta.batch.$batch,)*
                    $($tier: delta.tier.$tier,)*
                    ..SessionMetrics::default()
                }
            }

            /// Every counter's value, in [`COUNTERS`] order.
            pub fn counters(&self) -> [u64; COUNTERS.len()] {
                [$(self.$stmt,)* $(self.$top,)* $(self.$batch,)* $(self.$tier,)*]
            }

            fn counters_mut(&mut self) -> [&mut u64; COUNTERS.len()] {
                [
                    $(&mut self.$stmt,)*
                    $(&mut self.$top,)*
                    $(&mut self.$batch,)*
                    $(&mut self.$tier,)*
                ]
            }
        }
    };
}

counters! {
    statement {
        /// Statements executed, each counted once at its outermost boundary.
        statements: Sum,
        /// Summed wall time of those statements, ns.
        statement_ns_total: Sum,
    }
    top {
        /// Fixpoint driver iterations.
        recursive_iterations: Sum,
        /// Correlated subplan evaluations.
        subplan_evals: Sum,
        /// SQL UDF invocations.
        udf_calls: Sum,
        /// Base-table rows touched by scans.
        rows_scanned: Sum,
        /// Index access-path probes (point lookups and range scans). Together
        /// with `rows_scanned` this attributes the index win.
        index_probes: Sum,
        /// Deepest SQL UDF nesting reached.
        max_udf_depth: Peak,
        /// Row-loop snapshots materialized (one per compiled loop entry).
        snapshots_materialized: Sum,
        /// Snapshots released; equals `snapshots_materialized` when nothing leaks.
        snapshots_released: Sum,
        /// `ExecutorStart` penalties charged; a batched execution charges one.
        start_penalty_charges: Sum,
        /// `ExecutorEnd` penalties charged.
        end_penalty_charges: Sum,
        /// Expression-VM opcodes dispatched, on success and error paths alike.
        vm_ops_executed: Sum,
        /// Rows driven through the fused fixpoint transition.
        fused_transition_rows: Sum,
    }
    batch {
        /// Peak number of in-flight activations across retire fixpoints.
        batch_rows_in_flight: Peak,
        /// Activations retired into results.
        batch_rows_retired: Sum,
    }
    tier {
        /// Transitions promoted VM → mono (per promotion, not per row).
        tier_promotions: Sum,
        /// Promoted transitions demoted back to the VM mid-execution.
        tier_demotions: Sum,
        /// Rows executed through the monomorphized typed pipeline.
        tier_mono_rows: Sum,
    }
}

impl RuntimeStats {
    pub fn reset(&mut self) {
        *self = RuntimeStats::default();
    }
}

impl SessionMetrics {
    /// One statement's contribution: `ns` of wall time and the
    /// [`RuntimeStats`] delta it produced.
    pub(crate) fn statement(ns: u64, delta: &RuntimeStats) -> SessionMetrics {
        let mut one = SessionMetrics::from_stats(delta);
        one.statements = 1;
        one.statement_ns_total = ns;
        one.latency.record(ns);
        one
    }

    /// Fold another mirror into this one, per [`Kind::merge`].
    pub fn merge(&mut self, other: &SessionMetrics) {
        for ((acc, v), c) in self
            .counters_mut()
            .into_iter()
            .zip(other.counters())
            .zip(COUNTERS)
        {
            c.kind.merge(acc, v);
        }
        self.latency.merge(&other.latency);
    }
}

/// The lock-free registry living on [`crate::Database`]. Every field is a
/// relaxed atomic: totals are exact (adds never race away), only
/// cross-field consistency is unsynchronized — fine for monitoring.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// One atomic per [`COUNTERS`] entry, merged per its kind.
    counters: [AtomicU64; COUNTERS.len()],
    latency: [AtomicU64; LATENCY_BUCKETS],
    pub(crate) commits: AtomicU64,
    pub(crate) plan_cache_hits: AtomicU64,
    pub(crate) plan_cache_misses: AtomicU64,
    pub(crate) plan_cache_evictions: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            commits: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_evictions: AtomicU64::new(0),
        }
    }
}

impl MetricsRegistry {
    /// Fold one session's contribution into the shared totals. Zero values
    /// are skipped: they change neither a sum nor a peak.
    pub(crate) fn merge(&self, m: &SessionMetrics) {
        for ((v, acc), c) in m.counters().into_iter().zip(&self.counters).zip(COUNTERS) {
            if v != 0 {
                c.kind.merge_atomic(acc, v);
            }
        }
        for (&v, acc) in m.latency.buckets.iter().zip(&self.latency) {
            if v != 0 {
                acc.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self, catalog_version: u64) -> MetricsSnapshot {
        let r = Ordering::Relaxed;
        let mut sessions = SessionMetrics::default();
        for (v, acc) in sessions.counters_mut().into_iter().zip(&self.counters) {
            *v = acc.load(r);
        }
        for (v, acc) in sessions.latency.buckets.iter_mut().zip(&self.latency) {
            *v = acc.load(r);
        }
        MetricsSnapshot {
            sessions,
            commits: self.commits.load(r),
            plan_cache: PlanCacheStats {
                hits: self.plan_cache_hits.load(r),
                misses: self.plan_cache_misses.load(r),
                evictions: self.plan_cache_evictions.load(r),
            },
            catalog_version,
        }
    }
}

/// A point-in-time view of the registry: every session's counters merged,
/// plus the commit and plan-cache counters and the committed catalog
/// version. Serializes to flat JSON with keys in sorted order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The merge of every session's [`SessionMetrics`].
    pub sessions: SessionMetrics,
    /// Catalog commits (`Database::commit`).
    pub commits: u64,
    pub plan_cache: PlanCacheStats,
    /// Committed catalog version at snapshot time.
    pub catalog_version: u64,
}

impl MetricsSnapshot {
    /// Every scalar JSON key with its slot (all keys but `latency_buckets`).
    fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        let mut fields: Vec<_> = COUNTERS
            .iter()
            .map(|c| c.name)
            .zip(self.sessions.counters_mut())
            .collect();
        fields.extend([
            ("catalog_version", &mut self.catalog_version),
            ("commits", &mut self.commits),
            ("plan_cache_evictions", &mut self.plan_cache.evictions),
            ("plan_cache_hits", &mut self.plan_cache.hits),
            ("plan_cache_misses", &mut self.plan_cache.misses),
        ]);
        fields
    }

    /// Deterministic JSON: one flat object, keys in sorted order,
    /// `latency_buckets` as a 64-element array. Hand-rolled because the
    /// container has no serde; `from_json` is the inverse.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .sessions
            .latency
            .buckets
            .iter()
            .map(u64::to_string)
            .collect();
        let mut copy = *self;
        let mut fields: Vec<(&str, String)> = copy
            .fields_mut()
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
        fields.push(("latency_buckets", format!("[{}]", buckets.join(","))));
        fields.sort_unstable_by_key(|&(k, _)| k);
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parse the output of [`MetricsSnapshot::to_json`]. Tolerates
    /// whitespace and key reordering and ignores unknown keys; returns
    /// `None` on malformed input or a missing key.
    pub fn from_json(s: &str) -> Option<MetricsSnapshot> {
        let pairs: HashMap<&str, &str> = json_pairs(s)?.into_iter().collect();
        let mut snap = MetricsSnapshot::default();
        for (key, slot) in snap.fields_mut() {
            *slot = pairs.get(key)?.parse().ok()?;
        }
        let buckets = pairs
            .get("latency_buckets")?
            .strip_prefix('[')?
            .strip_suffix(']')?;
        let buckets: Vec<u64> = buckets
            .split(',')
            .map(|b| b.trim().parse().ok())
            .collect::<Option<_>>()?;
        snap.sessions.latency.buckets = buckets.try_into().ok()?;
        Some(snap)
    }
}

/// The `"key":value` pairs of a flat JSON object in order, each value as
/// its raw text (an array with its brackets); `None` when malformed.
fn json_pairs(s: &str) -> Option<Vec<(&str, &str)>> {
    let mut rest = s.trim().strip_prefix('{')?.strip_suffix('}')?.trim();
    let mut pairs = Vec::new();
    while !rest.is_empty() {
        let (key, tail) = rest.strip_prefix('"')?.split_once('"')?;
        let tail = tail.trim_start().strip_prefix(':')?.trim_start();
        let end = match tail.strip_prefix('[') {
            Some(array) => array.find(']')? + 2,
            None => tail.find(',').unwrap_or(tail.len()),
        };
        pairs.push((key, tail[..end].trim_end()));
        rest = tail[end..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_and_quantile() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for ns in [10, 20, 30] {
            a.record(ns);
        }
        for ns in [1_000_000, 2_000_000] {
            b.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        // Median lands in the small-ns buckets, p99 in the millisecond ones.
        assert!(a.approx_quantile_ns(0.5) <= 64);
        assert!(a.approx_quantile_ns(0.99) >= 1_000_000);
    }

    /// A snapshot whose every scalar key holds a distinct value.
    fn distinct_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (i, (_, slot)) in snap.fields_mut().into_iter().enumerate() {
            *slot = 100 + i as u64;
        }
        for ns in [0, 1500, u64::MAX] {
            snap.sessions.latency.record(ns);
        }
        snap
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = distinct_snapshot();
        let json = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json), Some(snap));
        // Deterministic: serializing twice yields the identical string.
        assert_eq!(json, snap.to_json());
        // Every key comes out, once, in sorted order, with its own value.
        let pairs = json_pairs(&json).unwrap();
        let keys: Vec<&str> = pairs.iter().map(|&(k, _)| k).collect();
        let mut want: Vec<&str> = COUNTERS.iter().map(|c| c.name).collect();
        want.extend([
            "catalog_version",
            "commits",
            "latency_buckets",
            "plan_cache_evictions",
            "plan_cache_hits",
            "plan_cache_misses",
        ]);
        want.sort_unstable();
        assert_eq!(keys, want, "{json}");
        let mut values: Vec<&str> = pairs.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), pairs.len(), "values must be distinct: {json}");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert_eq!(MetricsSnapshot::from_json(""), None);
        assert_eq!(MetricsSnapshot::from_json("{}"), None);
        assert_eq!(MetricsSnapshot::from_json("{\"statements\":true}"), None);
        // Every key is required: dropping any one of them fails the parse.
        let json = distinct_snapshot().to_json();
        let pairs = json_pairs(&json).unwrap();
        for drop in 0..pairs.len() {
            let kept: Vec<String> = pairs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, (k, v))| format!("\"{k}\":{v}"))
                .collect();
            let partial = format!("{{{}}}", kept.join(","));
            assert_eq!(
                MetricsSnapshot::from_json(&partial),
                None,
                "missing {:?} must not parse",
                pairs[drop].0
            );
        }
    }

    #[test]
    fn every_json_key_has_a_design_glossary_row() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### Metrics registry")
            .nth(1)
            .and_then(|s| s.split("\n#").next())
            .expect("DESIGN.md has a Metrics registry section");
        let rows: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        for (key, _) in json_pairs(&distinct_snapshot().to_json()).unwrap() {
            assert!(
                rows.contains(&key),
                "DESIGN.md's metrics glossary has no row for `{key}`"
            );
        }
    }
}
