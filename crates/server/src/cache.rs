//! The class-keyed prepared-plan cache.
//!
//! Maps a query's *shape class* ([`hique_plan::shape_class_and_consts`] —
//! the lexer's tokens with literals masked) to the fully prepared
//! artifact: the optimized plan, the instantiated kernel program
//! ([`GeneratedQuery`]) and the query-time-compiled bytecode
//! ([`hique_vm::VmProgram`]).  Each entry also records the constant
//! vector its plan was prepared for, so a lookup distinguishes two cases:
//!
//! * [`Lookup::Exact`] — same class *and* same constants: the cached
//!   artifact is exact for this query (including literal-dependent
//!   cardinality estimates) and is reused as-is.
//! * [`Lookup::Template`] — same class, different constants: the cached
//!   plan cannot be reused verbatim, but its *pooled* bytecode template
//!   can be rebound to the new constants, skipping kernel lowering.
//!
//! The old literal-preserving key made every literal-varying repeat of a
//! template a full miss (0% hit rate for point-lookup workloads); keying
//! on the class turns those into template hits.  Eviction is LRU over a
//! fixed entry budget; a class's latest constants win its slot.

use std::collections::HashMap;
use std::sync::Arc;

use hique_holistic::GeneratedQuery;
use hique_plan::PhysicalPlan;
use hique_vm::VmProgram;
use parking_lot::Mutex;

/// A fully prepared query: what the paper's Table III calls the
/// preparation cost, paid once per shape and amortized by every reuse.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Literal-masked token stream — the cache key.
    pub class: String,
    /// The literals masked out of `class`, in left-to-right order;
    /// `(class, consts)` is a lossless split of the query's tokens
    /// ([`hique_plan::shape_class_and_consts`]).
    pub consts: Vec<String>,
    /// The generated kernel program (carries the physical plan).
    pub generated: GeneratedQuery,
    /// Bytecode with this query's constants folded to immediates, for the
    /// `vm` engine.
    pub vm: VmProgram,
    /// The pooled (constant-free) bytecode template, shared across
    /// literal-varying classmates via [`VmProgram::bind`].
    pub vm_template: Arc<VmProgram>,
}

impl PreparedQuery {
    /// The optimized physical plan (shared by all five engine modes).
    pub fn plan(&self) -> &PhysicalPlan {
        self.generated.plan()
    }
}

/// Outcome of a cache lookup.
pub enum Lookup {
    /// Same class, same constants: the artifact is exact for this query.
    Exact(Arc<PreparedQuery>),
    /// Same class, different constants: re-plan, but rebind the entry's
    /// pooled bytecode template instead of compiling from scratch.
    Template(Arc<PreparedQuery>),
    /// No classmate cached.
    Miss,
}

struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<String, Entry>,
    clock: u64,
    hits: u64,
    template_hits: u64,
    misses: u64,
}

/// Cache hit/miss counters and current size.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (exact and template alike).
    pub hits: u64,
    /// The subset of `hits` where only the class matched and the pooled
    /// bytecode template was rebound to new constants.
    pub template_hits: u64,
    /// Lookups that required a fresh preparation.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// A bounded LRU cache of [`PreparedQuery`]s, shared by every session of a
/// server.  All operations take one short-held lock; preparation itself
/// (parse/plan/codegen/bytecode) happens *outside* the lock, so a slow
/// preparation never blocks other sessions' lookups.  Two sessions racing
/// to prepare the same class both succeed; one insert wins and the loser's
/// artifact is simply dropped — correctness does not depend on
/// single-flight.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` prepared classes (min 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                clock: 0,
                hits: 0,
                template_hits: 0,
                misses: 0,
            }),
        }
    }

    /// Look up a shape class with this query's constant vector, counting
    /// a hit (exact or template) or a miss.
    pub fn lookup(&self, class: &str, consts: &[String]) -> Lookup {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(class) {
            Some(entry) => {
                entry.last_used = clock;
                let prepared = Arc::clone(&entry.prepared);
                inner.hits += 1;
                if prepared.consts == consts {
                    Lookup::Exact(prepared)
                } else {
                    inner.template_hits += 1;
                    Lookup::Template(prepared)
                }
            }
            None => {
                inner.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Insert a prepared query under its shape class, evicting the
    /// least-recently-used class when the cache is full.  An existing
    /// entry for the same class is replaced (latest constants win).
    pub fn insert(&self, prepared: Arc<PreparedQuery>) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.entries.contains_key(&prepared.class) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
            }
        }
        inner.entries.insert(
            prepared.class.clone(),
            Entry {
                prepared,
                last_used: clock,
            },
        );
    }

    /// Hit/miss counters and current size.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            template_hits: inner.template_hits,
            misses: inner.misses,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_query, shape_class_and_consts, CatalogProvider, PlannerConfig};
    use hique_storage::Catalog;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn prepared_for(sql: &str, cat: &Catalog) -> Arc<PreparedQuery> {
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(cat)).unwrap();
        let plan = plan_query(&bound, cat, &PlannerConfig::default()).unwrap();
        let generated = hique_holistic::generate(&plan).unwrap();
        let template = hique_vm::compile(&generated, cat, hique_vm::CompileMode::Pooled).unwrap();
        let vm = template.bind(&generated, cat).unwrap();
        let (class, consts) = shape_class_and_consts(sql);
        Arc::new(PreparedQuery {
            class,
            consts,
            generated,
            vm,
            vm_template: Arc::new(template),
        })
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..50 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Float64(i as f64)]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat
    }

    fn lookup_sql(cache: &PlanCache, sql: &str) -> Lookup {
        let (class, consts) = shape_class_and_consts(sql);
        cache.lookup(&class, &consts)
    }

    #[test]
    fn exact_template_and_miss_are_distinguished() {
        let cat = catalog();
        let cache = PlanCache::new(8);
        let sql = "select k from r where v > 10";
        assert!(matches!(lookup_sql(&cache, sql), Lookup::Miss));
        cache.insert(prepared_for(sql, &cat));
        // A differently formatted spelling of the same query is exact.
        assert!(matches!(
            lookup_sql(&cache, "SELECT k FROM r   WHERE v > 10;"),
            Lookup::Exact(_)
        ));
        // A literal-varying classmate is a template hit, and carries the
        // pooled program the new query can rebind.
        match lookup_sql(&cache, "select k from r where v > 25") {
            Lookup::Template(entry) => {
                assert!(entry.vm_template.has_pool_refs());
            }
            _ => panic!("expected a template hit"),
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.template_hits, stats.misses, stats.entries),
            (2, 1, 1, 1)
        );
    }

    #[test]
    fn lru_eviction_keeps_recently_used_classes() {
        let cat = catalog();
        let cache = PlanCache::new(2);
        // Three structurally different queries: literal-varying spellings
        // would share one class (and one slot) by design.
        let q1 = "select k from r where v > 1";
        let q2 = "select v from r where k > 2";
        let q3 = "select k, v from r where v > 3";
        cache.insert(prepared_for(q1, &cat));
        cache.insert(prepared_for(q2, &cat));
        // Touch q1 so q2 becomes the LRU victim.
        assert!(matches!(lookup_sql(&cache, q1), Lookup::Exact(_)));
        cache.insert(prepared_for(q3, &cat));
        assert_eq!(cache.stats().entries, 2);
        assert!(matches!(lookup_sql(&cache, q1), Lookup::Exact(_)));
        assert!(
            matches!(lookup_sql(&cache, q2), Lookup::Miss),
            "LRU victim survived"
        );
        assert!(matches!(lookup_sql(&cache, q3), Lookup::Exact(_)));
    }

    #[test]
    fn reinsert_replaces_the_class_slot() {
        let cat = catalog();
        let cache = PlanCache::new(8);
        cache.insert(prepared_for("select k from r where v > 10", &cat));
        cache.insert(prepared_for("select k from r where v > 99", &cat));
        assert_eq!(cache.stats().entries, 1, "classmates share one slot");
        match lookup_sql(&cache, "select k from r where v > 99") {
            Lookup::Exact(entry) => assert_eq!(entry.consts, vec!["99".to_string()]),
            _ => panic!("latest constants should win the slot"),
        }
    }
}
