//! Server and session: concurrent query execution over one shared catalog.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hique_dsm::DsmDatabase;
use hique_holistic::GeneratedQuery;
use hique_plan::{plan_query, CatalogProvider, PlannerConfig, ShapeKey};
use hique_storage::Catalog;
use hique_types::{CancelToken, ExecOptions, HiqueError, QueryResult, Result};
use hique_vm::VmProgram;
use parking_lot::Mutex;

use crate::cache::{CacheStats, Lookup, PlanCache, PreparedQuery};
use crate::engine::{run_plan, Engine};

/// Server sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently admitted spill claims — set on the catalog's
    /// [`hique_storage::TempSpace`] so the spill budget is split by
    /// admission control instead of raced for.  Sessions beyond this count
    /// still execute; their budgeted queries queue at the spill claim.
    pub max_sessions: usize,
    /// Worker threads per query (the planner's fan-out).
    pub threads: usize,
    /// Memory budget handed to every session's plans, in buffer-pool
    /// pages.  `0` means "the catalog's pool capacity when paged, else
    /// unbudgeted" — the shared pool *is* the session budget, and the
    /// per-execution peak window proves each run stayed within it.
    pub memory_budget_pages: usize,
    /// Prepared-plan cache entries.
    pub plan_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            threads: 1,
            memory_budget_pages: 0,
            plan_cache_capacity: 256,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) catalog: Catalog,
    /// The dsm engine's column copy of the catalog: empty until the first
    /// dsm statement decomposes it ([`Shared::dsm`]).
    dsm: Mutex<Option<Arc<DsmDatabase>>>,
    /// Decompositions started, successful or not.
    dsm_decompositions: AtomicU64,
    pub(crate) cache: PlanCache,
    pub(crate) planner: PlannerConfig,
    pub(crate) config: ServerConfig,
    session_seq: AtomicU64,
    queries_served: AtomicU64,
    queries_cancelled: AtomicU64,
    /// Cancellation tokens of queries currently executing, keyed by session
    /// id (one in-flight statement per session).  [`Server::cancel_all`]
    /// fires every one of them, which is how drain-on-shutdown stops
    /// in-flight work without tearing connections down mid-response.
    inflight: Mutex<HashMap<u64, CancelToken>>,
}

impl Shared {
    /// The column copy the dsm engine runs on, decomposed by the first
    /// caller.  Concurrent first callers wait for that one decomposition;
    /// a failed one leaves the cell empty, so the next caller retries it.
    /// A server that never runs dsm never holds a column.
    fn dsm(&self) -> Result<Arc<DsmDatabase>> {
        let mut cell = self.dsm.lock();
        if let Some(dsm) = cell.as_ref() {
            return Ok(Arc::clone(dsm));
        }
        self.dsm_decompositions.fetch_add(1, Ordering::Relaxed);
        let dsm = Arc::new(DsmDatabase::from_catalog(&self.catalog)?);
        *cell = Some(Arc::clone(&dsm));
        Ok(dsm)
    }
}

/// RAII registration of one executing query's token in the server's
/// in-flight table; removed even when execution unwinds through `?`.
struct InflightGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.shared.inflight.lock().remove(&self.id);
    }
}

/// A long-lived query service: one catalog + buffer pool + plan cache,
/// any number of concurrent [`Session`]s.  Cloning is cheap (shared
/// handle); the catalog is immutable once the server owns it, which is
/// what makes lock-free concurrent reads sound.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Build a server over `catalog`.  When the catalog runs in paged mode
    /// the spill admission cap is set to `config.max_sessions` and the
    /// default session budget is the pool capacity.  Nothing is decomposed
    /// here: the dsm engine's columns are built by the first dsm statement.
    pub fn new(catalog: Catalog, config: ServerConfig) -> Result<Server> {
        let budget = if config.memory_budget_pages != 0 {
            config.memory_budget_pages
        } else {
            catalog.buffer_pool().map(|p| p.capacity()).unwrap_or(0)
        };
        if let Some(runtime) = catalog.storage() {
            runtime.temp().set_max_claims(config.max_sessions.max(1));
        }
        let planner = PlannerConfig::default()
            .with_threads(config.threads.max(1))
            .with_memory_budget_pages(budget);
        Ok(Server {
            shared: Arc::new(Shared {
                catalog,
                dsm: Mutex::new(None),
                dsm_decompositions: AtomicU64::new(0),
                cache: PlanCache::new(config.plan_cache_capacity),
                planner,
                config,
                session_seq: AtomicU64::new(0),
                queries_served: AtomicU64::new(0),
                queries_cancelled: AtomicU64::new(0),
                inflight: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Open a session (default engine: holistic, no statement timeout).
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.session_seq.fetch_add(1, Ordering::Relaxed),
            engine: Engine::Holistic,
            timeout: None,
        }
    }

    /// Cancel every query currently executing (drain-on-shutdown): each
    /// in-flight statement stops at its next cooperative check point and
    /// surfaces a typed `cancelled` error to its client.
    pub fn cancel_all(&self) {
        for token in self.shared.inflight.lock().values() {
            token.cancel();
        }
    }

    /// Queries that ended in cooperative cancellation (deadline or
    /// [`Server::cancel_all`]) since startup.
    pub fn queries_cancelled(&self) -> u64 {
        self.shared.queries_cancelled.load(Ordering::Relaxed)
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Plan-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The sizing configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Queries executed across all sessions since startup.
    pub fn queries_served(&self) -> u64 {
        self.shared.queries_served.load(Ordering::Relaxed)
    }
}

/// One client's handle on a [`Server`]: prepares through the shared plan
/// cache and executes on its selected engine.  Sessions are `Send` — each
/// client thread owns one — and any number run concurrently.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
    engine: Engine,
    /// Per-statement deadline (`.timeout` wire command); `None` means no
    /// deadline, though the statement's token still observes
    /// [`Server::cancel_all`].
    timeout: Option<Duration>,
}

impl Session {
    /// Server-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine [`Session::execute`] runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Select the engine for subsequent [`Session::execute`] calls.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Set (or with `None` clear) the per-statement execution deadline.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// The current per-statement deadline.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Prepare `sql` through the shared cache: returns the prepared
    /// artifact and whether it was a cache hit.  The text is lexed once:
    /// its tokens are the cache key ([`ShapeKey`]) and the parser's input;
    /// a text that does not lex is a `Parse` error and no lookup.  An
    /// exact hit (same class, same constants) reuses the cached artifact
    /// outright.  A template hit (literal-varying classmate) re-plans with
    /// this query's exact constants but rebinds the cached pooled bytecode
    /// template instead of lowering from scratch.  A miss pays the full
    /// parse → analyze → plan → generate → compile cost (the paper's Table
    /// III preparation) and publishes the result for every other session.
    /// A generator or lowering error is returned as the typed error it is.
    pub fn prepare(&self, sql: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        let key = ShapeKey::lex(sql)?;
        let template = match self.shared.cache.lookup(&key) {
            Lookup::Exact(prepared) => return Ok((prepared, true)),
            Lookup::Template(prepared) => Some(prepared),
            Lookup::Miss => None,
        };
        let catalog = &self.shared.catalog;
        let query = hique_sql::parse_tokens(key.tokens())?;
        let bound = hique_sql::analyze(&query, &CatalogProvider::new(catalog))?;
        let plan = plan_query(&bound, catalog, &self.shared.planner)?;
        let generated = hique_holistic::generate(&plan)?;
        let (vm, vm_template) = compile_vm(
            &generated,
            catalog,
            template.as_ref().map(|t| &t.vm_template),
        )?;
        let hit = template.is_some();
        let prepared = Arc::new(PreparedQuery {
            generated,
            vm,
            vm_template,
        });
        self.shared.cache.insert(key, Arc::clone(&prepared));
        Ok((prepared, hit))
    }

    /// Prepare (through the cache) and execute on the session's engine.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_on(sql, self.engine)
    }

    /// Prepare (through the cache) and execute on an explicit engine.
    ///
    /// The statement runs under a live [`CancelToken`] — with the session's
    /// deadline when one is set — registered in the server's in-flight
    /// table for the duration, so [`Server::cancel_all`] reaches it.  A
    /// cancelled statement returns the typed [`HiqueError::Cancelled`] and
    /// is counted in [`Server::queries_cancelled`]; its claims, pins and
    /// temp files unwind through the ordinary error path.
    pub fn execute_on(&mut self, sql: &str, engine: Engine) -> Result<QueryResult> {
        let (prepared, _hit) = self.prepare(sql)?;
        let cancel = match self.timeout {
            Some(timeout) => CancelToken::with_deadline(timeout),
            None => CancelToken::new(),
        };
        let _inflight = {
            self.shared.inflight.lock().insert(self.id, cancel.clone());
            InflightGuard {
                shared: Arc::clone(&self.shared),
                id: self.id,
            }
        };
        let options = ExecOptions {
            cancel,
            ..ExecOptions::default()
        };
        let catalog = &self.shared.catalog;
        let result = match engine {
            // The two kernel engines run their cached programs; the rest
            // have nothing to cache beyond the plan.
            Engine::Holistic => prepared.generated.execute_with(catalog, &options),
            Engine::IterGeneric | Engine::IterOptimized => {
                run_plan(engine, prepared.plan(), catalog, None, &options)
            }
            Engine::Dsm => self
                .shared
                .dsm()
                .and_then(|dsm| run_plan(engine, prepared.plan(), catalog, Some(&dsm), &options)),
            Engine::Vm => prepared.vm.execute(&prepared.generated, catalog, &options),
        };
        match result {
            Ok(result) => {
                self.shared.queries_served.fetch_add(1, Ordering::Relaxed);
                Ok(result)
            }
            Err(e) => {
                if matches!(e, HiqueError::Cancelled(_)) {
                    self.shared
                        .queries_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// Lower `generated` to bytecode for the `vm` engine.  When a classmate's
/// pooled template is available, rebinding it (swap the constant pool,
/// fold to immediates) replaces the full lowering; a template that refuses
/// the rebind — a literal shifted the chosen join order — is not reused,
/// and the query compiles afresh.
fn compile_vm(
    generated: &GeneratedQuery,
    catalog: &Catalog,
    template: Option<&Arc<VmProgram>>,
) -> Result<(VmProgram, Arc<VmProgram>)> {
    if let Some(template) = template {
        if let Ok(vm) = template.bind(generated, catalog) {
            return Ok((vm, Arc::clone(template)));
        }
    }
    let pooled = hique_vm::compile(generated, catalog, hique_vm::CompileMode::Pooled)?;
    Ok((pooled.bind(generated, catalog)?, Arc::new(pooled)))
}

// Sessions are handed to client threads; the whole stack under them
// (catalog, heaps, pool, DSM columns, cached kernels) must be shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn catalog(rows: i32) -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..rows {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 10),
                    Value::Float64(i as f64),
                ]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat
    }

    #[test]
    fn sessions_share_the_plan_cache_across_engines() {
        let server = Server::new(catalog(200), ServerConfig::default()).unwrap();
        let mut s1 = server.session();
        let mut s2 = server.session();
        assert_ne!(s1.id(), s2.id());
        let sql = "select k, count(*) as n from r group by k order by k";
        let a = s1.execute(sql).unwrap();
        // Same shape from another session and another engine: cache hit,
        // identical rows.
        let b = s2
            .execute_on(
                "SELECT k, COUNT(*) AS n FROM r GROUP BY k ORDER BY k",
                Engine::IterOptimized,
            )
            .unwrap();
        assert_eq!(a.rows, b.rows);
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert!(stats.hits >= 1, "{stats:?}");
        assert_eq!(server.queries_served(), 2);
    }

    /// An apostrophe in a `--` comment is comment text, so two statements
    /// that differ only in a later literal's case are two cache keys: the
    /// second statement gets its own rows, not the first one's.
    #[test]
    fn a_commented_apostrophe_does_not_merge_two_literals() {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("tag", DataType::Char(4)),
            ]),
        )
        .unwrap();
        for (k, tag) in [(1, "ABC"), (2, "abc"), (3, "abc")] {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(k), Value::Str(tag.into())]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        let server = Server::new(cat, ServerConfig::default()).unwrap();
        let mut s = server.session();
        let upper = s
            .execute("select k from r -- don't\nwhere tag = 'ABC' order by k")
            .unwrap();
        let lower = s
            .execute("select k from r -- don't\nwhere tag = 'abc' order by k")
            .unwrap();
        assert_eq!(upper.rows.len(), 1);
        let keys: Vec<&Value> = lower.rows.iter().map(|r| r.get(0)).collect();
        assert_eq!(keys, [&Value::Int32(2), &Value::Int32(3)]);
        assert_eq!(server.cache_stats().template_hits, 1);
    }

    fn decompositions(server: &Server) -> u64 {
        server.shared.dsm_decompositions.load(Ordering::Relaxed)
    }

    #[test]
    fn no_table_is_decomposed_before_the_first_dsm_statement() {
        let server = Server::new(catalog(300), ServerConfig::default()).unwrap();
        let sql = "select k, sum(v) as sv from r group by k order by k";
        let mut s = server.session();
        for engine in [
            Engine::Holistic,
            Engine::Vm,
            Engine::IterGeneric,
            Engine::IterOptimized,
        ] {
            s.execute_on(sql, engine).unwrap();
        }
        assert!(server.shared.dsm.lock().is_none());
        assert_eq!(decompositions(&server), 0);
        let first = s.execute_on(sql, Engine::Dsm).unwrap();
        assert!(server.shared.dsm.lock().is_some());
        let again = s.execute_on(sql, Engine::Dsm).unwrap();
        assert_eq!(first.rows, again.rows);
        assert_eq!(decompositions(&server), 1);
    }

    #[test]
    fn concurrent_first_dsm_statements_decompose_once() {
        let server = Server::new(catalog(20_000), ServerConfig::default()).unwrap();
        let start = Arc::new(std::sync::Barrier::new(2));
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (server, start) = (server.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let mut s = server.session();
                    s.set_engine(Engine::Dsm);
                    start.wait();
                    s.execute("select k, count(*) as n from r group by k order by k")
                        .unwrap()
                        .rows
                })
            })
            .collect();
        let rows: Vec<_> = runs.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(rows[0].len(), 10);
        assert_eq!(rows[0], rows[1]);
        assert_eq!(decompositions(&server), 1);
    }

    /// A decomposition that fails on a storage fault answers its statement
    /// with a typed `ERR` and leaves the cell empty: the next dsm statement
    /// decomposes again and answers.
    #[test]
    fn a_failed_decomposition_is_a_typed_error_and_the_next_dsm_statement_retries() {
        use crate::wire::{serve, WireClient};
        use hique_storage::FaultPlan;
        use std::sync::atomic::AtomicBool;

        let mut cat = catalog(2_000);
        cat.spill_to_disk(2).unwrap();
        let server = Server::new(cat, ServerConfig::default()).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let serving = {
            let (server, stop) = (server.clone(), Arc::clone(&stop));
            std::thread::spawn(move || serve(server, listener, stop))
        };
        let runtime = server.catalog().storage().unwrap();
        runtime.install_fault_plan(Some(Arc::new(FaultPlan::new().fail_nth_read(1))));

        let sql = "select k, count(*) as n from r group by k order by k";
        let mut client = WireClient::connect(addr).unwrap();
        assert!(client.request(".engine dsm").unwrap().is_ok());
        let err = client.request(sql).unwrap();
        assert!(
            err.status.starts_with("ERR storage: injected fault"),
            "{}",
            err.status
        );
        assert!(server.shared.dsm.lock().is_none());

        runtime.install_fault_plan(None);
        let dsm = client.query(sql).unwrap();
        assert!(client.request(".engine holistic").unwrap().is_ok());
        let holistic = client.query(sql).unwrap();
        assert_eq!(dsm.rows().len(), 10);
        assert_eq!(dsm.rows(), holistic.rows());
        assert_eq!(decompositions(&server), 2);

        assert!(client.request(".quit").unwrap().is_ok());
        stop.store(true, Ordering::Relaxed);
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn all_engines_agree_through_sessions() {
        let server = Server::new(catalog(500), ServerConfig::default()).unwrap();
        let sql = "select k, sum(v) as sv from r where v < 400 group by k order by k";
        let mut results = Vec::new();
        for engine in Engine::ALL {
            let mut s = server.session();
            results.push(s.execute_on(sql, engine).unwrap().rows);
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn literal_varying_repeats_are_template_hits_that_rebind_bytecode() {
        let server = Server::new(catalog(200), ServerConfig::default()).unwrap();
        let mut s = server.session();
        s.set_engine(Engine::Vm);
        let sql_a = "select k, count(*) as n from r where v < 150 group by k order by k";
        let sql_b = "select k, count(*) as n from r where v < 170 group by k order by k";
        s.execute(sql_a).unwrap();
        let b = s.execute(sql_b).unwrap();
        // Same template, different constant: a template hit (the pooled
        // bytecode rebinds), not a second full preparation.
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.template_hits, 1, "{stats:?}");
        // The rebound program computes the same answer as the paper's
        // engine evaluating the new query from scratch.
        let mut s2 = server.session();
        let reference = s2.execute_on(sql_b, Engine::Holistic).unwrap();
        assert_eq!(b.rows, reference.rows);
    }

    /// An aggregate whose DAG has 201 nodes (1 load + 100 constants + 100
    /// adds) and an output expression 300 levels deep: both register
    /// programs wider than any one-byte register file.
    fn wide_and_deep() -> [String; 2] {
        let sums: Vec<String> = (1..=100).map(|i| format!("sum(v + {i}) as a{i}")).collect();
        let deep = (0..300).fold("v".to_string(), |e, _| format!("v + ({e})"));
        [
            format!("select k, {} from r group by k order by k", sums.join(", ")),
            format!("select k, {deep} as x from r order by k, x"),
        ]
    }

    #[test]
    fn the_vm_engine_runs_wide_and_deep_programs_as_bytecode() {
        let server = Server::new(catalog(60), ServerConfig::default()).unwrap();
        for sql in wide_and_deep() {
            let mut vm = server.session();
            vm.set_engine(Engine::Vm);
            let vm = vm.execute(&sql).unwrap();
            let mut reference = server.session();
            let reference = reference.execute_on(&sql, Engine::Holistic).unwrap();
            assert!(!vm.rows.is_empty());
            assert_eq!(vm.rows, reference.rows);
            // The kernels came from the bytecode: its scans count their pages.
            assert!(vm.stats.vm_batches > 0);
        }
        assert_eq!(server.queries_served(), 4);
    }

    #[test]
    fn engine_names_round_trip_and_errors_are_typed() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()).unwrap(), e);
        }
        assert!(matches!(
            Engine::parse("volcano"),
            Err(HiqueError::Unsupported(_))
        ));
        let server = Server::new(catalog(10), ServerConfig::default()).unwrap();
        let mut s = server.session();
        assert!(matches!(
            s.execute("select nope from r"),
            Err(HiqueError::Analysis(_))
        ));
        assert!(matches!(s.execute("not sql"), Err(HiqueError::Parse(_))));
    }

    /// A statement that does not lex is answered by the lexer before the
    /// cache is consulted: no lookup, so no miss.
    #[test]
    fn a_statement_that_does_not_lex_leaves_the_cache_alone() {
        let server = Server::new(catalog(10), ServerConfig::default()).unwrap();
        let s = server.session();
        let before = server.cache_stats();
        assert!(matches!(
            s.prepare("select 'unterminated"),
            Err(HiqueError::Parse(_))
        ));
        assert_eq!(server.cache_stats(), before);
    }
}
