//! Seeded random query generation over the TPC-H-shaped schema.
//!
//! Queries are drawn from the dialect every engine supports (paper §IV):
//! conjunctive filters, equi-joins along the TPC-H foreign-key graph (up to
//! four tables), grouped aggregates (`SUM`/`AVG`/`MIN`/`MAX`/`COUNT`),
//! arithmetic output columns, ORDER BY and LIMIT. Every generated query is
//! fully deterministic in its seed, and its ordering is chosen so that the
//! result set is a well-defined multiset: projection queries order by every
//! selected column and grouped queries order by their (unique) group keys,
//! which makes LIMIT safe to apply before canonical comparison.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hique_plan::{AggAlgorithm, JoinAlgorithm, PlannerConfig};
use hique_types::value::{days_from_civil, format_date};

/// Value domain of a filterable column, used to draw plausible constants.
#[derive(Clone, Copy, Debug)]
enum Domain {
    /// Integer key in `1..=max(base * sf, floor)`.
    Key { base: f64, floor: i64 },
    /// Integer in a fixed inclusive range.
    IntRange(i64, i64),
    /// Float in a fixed range.
    FloatRange(f64, f64),
    /// Day number between TPC-H's date bounds.
    Date,
    /// One of a fixed set of strings.
    Strings(&'static [&'static str]),
}

/// A filterable column: qualified name plus its value domain.
struct FilterCol {
    table: &'static str,
    column: &'static str,
    domain: Domain,
}

/// An equi-join edge of the TPC-H foreign-key graph.
struct JoinEdge {
    left_table: &'static str,
    left_column: &'static str,
    right_table: &'static str,
    right_column: &'static str,
}

const TABLES: [&str; 7] = [
    "lineitem", "orders", "customer", "supplier", "part", "nation", "region",
];

const JOIN_EDGES: [JoinEdge; 7] = [
    JoinEdge {
        left_table: "customer",
        left_column: "c_custkey",
        right_table: "orders",
        right_column: "o_custkey",
    },
    JoinEdge {
        left_table: "orders",
        left_column: "o_orderkey",
        right_table: "lineitem",
        right_column: "l_orderkey",
    },
    JoinEdge {
        left_table: "lineitem",
        left_column: "l_partkey",
        right_table: "part",
        right_column: "p_partkey",
    },
    JoinEdge {
        left_table: "lineitem",
        left_column: "l_suppkey",
        right_table: "supplier",
        right_column: "s_suppkey",
    },
    JoinEdge {
        left_table: "customer",
        left_column: "c_nationkey",
        right_table: "nation",
        right_column: "n_nationkey",
    },
    JoinEdge {
        left_table: "supplier",
        left_column: "s_nationkey",
        right_table: "nation",
        right_column: "n_nationkey",
    },
    JoinEdge {
        left_table: "nation",
        left_column: "n_regionkey",
        right_table: "region",
        right_column: "r_regionkey",
    },
];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
const LINE_STATUSES: [&str; 2] = ["O", "F"];
const ORDER_STATUSES: [&str; 2] = ["O", "F"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

fn filter_cols() -> Vec<FilterCol> {
    vec![
        FilterCol {
            table: "lineitem",
            column: "l_orderkey",
            domain: Domain::Key {
                base: 1_500_000.0,
                floor: 100,
            },
        },
        FilterCol {
            table: "lineitem",
            column: "l_quantity",
            domain: Domain::FloatRange(1.0, 50.0),
        },
        FilterCol {
            table: "lineitem",
            column: "l_extendedprice",
            domain: Domain::FloatRange(900.0, 21_000.0),
        },
        FilterCol {
            table: "lineitem",
            column: "l_discount",
            domain: Domain::FloatRange(0.0, 0.10),
        },
        FilterCol {
            table: "lineitem",
            column: "l_tax",
            domain: Domain::FloatRange(0.0, 0.08),
        },
        FilterCol {
            table: "lineitem",
            column: "l_returnflag",
            domain: Domain::Strings(&RETURN_FLAGS),
        },
        FilterCol {
            table: "lineitem",
            column: "l_linestatus",
            domain: Domain::Strings(&LINE_STATUSES),
        },
        FilterCol {
            table: "lineitem",
            column: "l_shipdate",
            domain: Domain::Date,
        },
        FilterCol {
            table: "lineitem",
            column: "l_receiptdate",
            domain: Domain::Date,
        },
        FilterCol {
            table: "lineitem",
            column: "l_shipmode",
            domain: Domain::Strings(&SHIP_MODES),
        },
        FilterCol {
            table: "orders",
            column: "o_orderstatus",
            domain: Domain::Strings(&ORDER_STATUSES),
        },
        FilterCol {
            table: "orders",
            column: "o_totalprice",
            domain: Domain::FloatRange(900.0, 200_000.0),
        },
        FilterCol {
            table: "orders",
            column: "o_orderdate",
            domain: Domain::Date,
        },
        FilterCol {
            table: "orders",
            column: "o_orderpriority",
            domain: Domain::Strings(&PRIORITIES),
        },
        FilterCol {
            table: "customer",
            column: "c_custkey",
            domain: Domain::Key {
                base: 150_000.0,
                floor: 10,
            },
        },
        FilterCol {
            table: "customer",
            column: "c_nationkey",
            domain: Domain::IntRange(0, 24),
        },
        FilterCol {
            table: "customer",
            column: "c_acctbal",
            domain: Domain::FloatRange(-999.99, 9999.99),
        },
        FilterCol {
            table: "customer",
            column: "c_mktsegment",
            domain: Domain::Strings(&SEGMENTS),
        },
        FilterCol {
            table: "supplier",
            column: "s_nationkey",
            domain: Domain::IntRange(0, 24),
        },
        FilterCol {
            table: "supplier",
            column: "s_acctbal",
            domain: Domain::FloatRange(-999.99, 9999.99),
        },
        FilterCol {
            table: "part",
            column: "p_size",
            domain: Domain::IntRange(1, 50),
        },
        FilterCol {
            table: "part",
            column: "p_retailprice",
            domain: Domain::FloatRange(900.0, 21_000.0),
        },
        FilterCol {
            table: "nation",
            column: "n_nationkey",
            domain: Domain::IntRange(0, 24),
        },
        FilterCol {
            table: "nation",
            column: "n_regionkey",
            domain: Domain::IntRange(0, 4),
        },
        FilterCol {
            table: "region",
            column: "r_regionkey",
            domain: Domain::IntRange(0, 4),
        },
    ]
}

/// Columns safe to project in non-aggregate queries (fixed, low-noise set).
const PROJ_COLS: [(&str, &str); 18] = [
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_linenumber"),
    ("lineitem", "l_quantity"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_returnflag"),
    ("lineitem", "l_shipdate"),
    ("orders", "o_orderkey"),
    ("orders", "o_custkey"),
    ("orders", "o_totalprice"),
    ("orders", "o_orderdate"),
    ("customer", "c_custkey"),
    ("customer", "c_name"),
    ("customer", "c_mktsegment"),
    ("supplier", "s_suppkey"),
    ("part", "p_partkey"),
    ("part", "p_size"),
    ("nation", "n_name"),
    ("region", "r_name"),
];

/// Arithmetic output columns of the projection shape, by the table they
/// read (every one `Float64`, like the paper's revenue expressions).
const PROJ_EXPRS: [(&str, &str); 6] = [
    (
        "lineitem",
        "lineitem.l_extendedprice * (1 - lineitem.l_discount)",
    ),
    ("lineitem", "lineitem.l_quantity * 2 + lineitem.l_tax"),
    ("orders", "orders.o_totalprice / 2"),
    ("customer", "customer.c_acctbal - 100"),
    ("supplier", "supplier.s_acctbal + supplier.s_acctbal"),
    ("part", "part.p_retailprice * 1.5"),
];

/// Low-cardinality columns usable as GROUP BY keys.  `p_mfgr` and
/// `p_type` are strings wider than eight bytes whose values share their
/// first eight, so their key images alone do not tell them apart.
const GROUP_COLS: [(&str, &str); 13] = [
    ("lineitem", "l_returnflag"),
    ("lineitem", "l_linestatus"),
    ("lineitem", "l_shipmode"),
    ("orders", "o_orderstatus"),
    ("orders", "o_orderpriority"),
    ("customer", "c_mktsegment"),
    ("customer", "c_nationkey"),
    ("supplier", "s_nationkey"),
    ("part", "p_size"),
    ("part", "p_mfgr"),
    ("part", "p_type"),
    ("nation", "n_name"),
    ("region", "r_name"),
];

/// Numeric columns usable inside aggregate functions.
const AGG_COLS: [(&str, &str); 9] = [
    ("lineitem", "l_quantity"),
    ("lineitem", "l_extendedprice"),
    ("lineitem", "l_discount"),
    ("lineitem", "l_tax"),
    ("orders", "o_totalprice"),
    ("customer", "c_acctbal"),
    ("supplier", "s_acctbal"),
    ("part", "p_retailprice"),
    ("part", "p_size"),
];

/// One generated query: the SQL text, the planner configuration to run it
/// under, and the seed that reproduces it.
#[derive(Debug, Clone)]
pub struct RandomQuery {
    pub sql: String,
    pub config: PlannerConfig,
    pub seed: u64,
}

/// Seeded generator of random conformance queries against a TPC-H-shaped
/// catalog populated at scale factor `sf`.
pub struct QueryGenerator {
    base_seed: u64,
    next_index: u64,
    sf: f64,
}

impl QueryGenerator {
    pub fn new(base_seed: u64, sf: f64) -> Self {
        QueryGenerator {
            base_seed,
            next_index: 0,
            sf,
        }
    }

    /// Generate the next query. Query `i` from seed `s` is identical across
    /// runs and across generator instances.
    pub fn next_query(&mut self) -> RandomQuery {
        let index = self.next_index;
        self.next_index += 1;
        query_for_seed(self.base_seed, index, self.sf)
    }
}

/// Build the `index`-th query of the stream identified by `base_seed`.
pub fn query_for_seed(base_seed: u64, index: u64, sf: f64) -> RandomQuery {
    let seed = base_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index);
    replay_seed(seed, sf)
}

/// Columns whose values the TPC-H generator derives from one another, so
/// that conjunctions across them violate the cross-column independence
/// assumption by construction (e.g. `l_returnflag` is a function of
/// `l_receiptdate`, `o_orderstatus` of the line ship dates).  The scan
/// q-error stream draws at most one column per group: single-column
/// statistics cannot see these dependencies, and the gate is meant to
/// measure histogram/MCV quality, not the (open, see ROADMAP) lack of
/// multi-column statistics.  Two filters on the *same* column remain in
/// the domain — the estimator intersects those exactly.
const CORRELATED_GROUPS: [&[&str]; 3] = [
    &[
        "l_shipdate",
        "l_receiptdate",
        "l_returnflag",
        "l_linestatus",
    ],
    &["o_orderdate", "o_orderstatus"],
    &["l_quantity", "l_extendedprice"],
];

fn correlation_group(column: &str) -> Option<usize> {
    CORRELATED_GROUPS.iter().position(|g| g.contains(&column))
}

/// Build the `index`-th **filtered scan** query of the plan-quality stream:
/// a single-table `count(*)` with 1–3 conjunctive filters, used to compare
/// the planner's post-filter cardinality estimates against measured row
/// counts (the q-error gate).  Runs under the default planner config so the
/// estimates under test are the ones production plans would use.
pub fn scan_query_for_seed(base_seed: u64, index: u64, sf: f64) -> RandomQuery {
    let seed = base_seed
        .wrapping_mul(0xd134_2543_de82_ef95)
        .wrapping_add(index)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool = filter_cols();
    // Drawing the anchor column first weights tables by how many
    // filterable columns they expose (lineitem-heavy, like real plans).
    let anchor = &pool[rng.gen_range(0..pool.len())];
    let table = anchor.table;
    let tpool: Vec<&FilterCol> = pool.iter().filter(|c| c.table == table).collect();
    let count = rng.gen_range(1..=3usize.min(tpool.len()));
    let mut chosen: Vec<&FilterCol> = Vec::new();
    let mut attempts = 0;
    while chosen.len() < count && attempts < count * 8 {
        attempts += 1;
        let col = tpool[rng.gen_range(0..tpool.len())];
        let conflicts = chosen.iter().any(|picked| {
            picked.column != col.column
                && correlation_group(picked.column).is_some()
                && correlation_group(picked.column) == correlation_group(col.column)
        });
        if !conflicts {
            chosen.push(col);
        }
    }
    let filters: Vec<String> = chosen
        .into_iter()
        .map(|col| random_filter(&mut rng, col, sf))
        .collect();
    RandomQuery {
        sql: format!(
            "select count(*) as n from {table} where {}",
            filters.join(" and ")
        ),
        config: PlannerConfig::default(),
        seed,
    }
}

/// Reconstruct a query directly from the per-query seed a [`RandomQuery`]
/// (and every divergence report) carries. Works for queries from any base
/// seed/stream — the per-query seed fully determines the SQL and config.
pub fn replay_seed(seed: u64, sf: f64) -> RandomQuery {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sql = generate_sql(&mut rng, sf);
    let config = random_config(&mut rng);
    RandomQuery { sql, config, seed }
}

fn random_config(rng: &mut SmallRng) -> PlannerConfig {
    PlannerConfig {
        force_join_algorithm: match rng.gen_range(0..4u32) {
            0 => Some(JoinAlgorithm::Merge),
            1 => Some(JoinAlgorithm::Partition),
            2 => Some(JoinAlgorithm::HybridHashSortMerge),
            _ => None,
        },
        force_agg_algorithm: match rng.gen_range(0..4u32) {
            0 => Some(AggAlgorithm::Sort),
            1 => Some(AggAlgorithm::HybridHashSort),
            2 => Some(AggAlgorithm::Map),
            _ => None,
        },
        enable_join_teams: rng.gen_bool(0.75),
        // Randomizing the worker count continuously cross-checks the
        // partition-parallel holistic paths against the serial engines: the
        // iterator/DSM baselines ignore `threads`, so any parallel-only
        // divergence (ordering, merge, stats-driven row counts) surfaces as
        // a cross-engine mismatch carrying the seed.
        threads: [1, 2, 4][rng.gen_range(0..3usize)],
        // Randomizing the page budget cross-checks spill-and-reload staging
        // the same way: on a paged fixture ([`crate::Fixture::
        // generate_paged`]) a non-zero budget makes the holistic engine
        // round-trip staged inputs and join temporaries through the buffer
        // pool, which must never change what any engine returns.  On
        // memory-resident fixtures the knob is inert.
        memory_budget_pages: [0, 0, 128, 1024][rng.gen_range(0..4usize)],
        ..PlannerConfig::default()
    }
}

/// Pick a connected set of 1..=4 tables along the foreign-key graph and
/// return (tables, join predicates).
fn pick_tables(rng: &mut SmallRng) -> (Vec<&'static str>, Vec<String>) {
    let num_tables = match rng.gen_range(0..10u32) {
        0..=2 => 1,
        3..=5 => 2,
        6..=8 => 3,
        _ => 4,
    };
    let mut tables = vec![TABLES[rng.gen_range(0..TABLES.len())]];
    let mut joins = Vec::new();
    while tables.len() < num_tables {
        // Edges with exactly one endpoint inside the current set keep the
        // join graph connected (the planner rejects cross products).
        let candidates: Vec<&JoinEdge> = JOIN_EDGES
            .iter()
            .filter(|e| tables.contains(&e.left_table) != tables.contains(&e.right_table))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let edge = candidates[rng.gen_range(0..candidates.len())];
        let newcomer = if tables.contains(&edge.left_table) {
            edge.right_table
        } else {
            edge.left_table
        };
        tables.push(newcomer);
        joins.push(format!(
            "{}.{} = {}.{}",
            edge.left_table, edge.left_column, edge.right_table, edge.right_column
        ));
    }
    (tables, joins)
}

fn random_date(rng: &mut SmallRng) -> String {
    let lo = days_from_civil(1992, 1, 1);
    let hi = days_from_civil(1998, 8, 2);
    format_date(rng.gen_range(lo..=hi))
}

fn random_filter(rng: &mut SmallRng, col: &FilterCol, sf: f64) -> String {
    random_filter_as(rng, col.table, col, sf)
}

/// Render a random filter with an explicit qualifier (table name or alias).
fn random_filter_as(rng: &mut SmallRng, qualifier: &str, col: &FilterCol, sf: f64) -> String {
    let qualified = format!("{}.{}", qualifier, col.column);
    match col.domain {
        Domain::Key { base, floor } => {
            let max = ((base * sf) as i64).max(floor);
            let constant = rng.gen_range(1..=max);
            let op = ["<", "<=", ">", ">=", "="][rng.gen_range(0..5usize)];
            format!("{qualified} {op} {constant}")
        }
        Domain::IntRange(lo, hi) => {
            let constant = rng.gen_range(lo..=hi);
            let op = ["<", "<=", ">", ">=", "=", "<>"][rng.gen_range(0..6usize)];
            format!("{qualified} {op} {constant}")
        }
        Domain::FloatRange(lo, hi) => {
            let constant = rng.gen_range(lo..hi);
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            format!("{qualified} {op} {constant:.2}")
        }
        Domain::Date => {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
            format!("{qualified} {op} date '{}'", random_date(rng))
        }
        Domain::Strings(domain) => {
            let constant = domain[rng.gen_range(0..domain.len())];
            let op = ["=", "<>"][rng.gen_range(0..2usize)];
            format!("{qualified} {op} '{constant}'")
        }
    }
}

fn filters_for(rng: &mut SmallRng, tables: &[&'static str], sf: f64) -> Vec<String> {
    let pool: Vec<FilterCol> = filter_cols()
        .into_iter()
        .filter(|c| tables.contains(&c.table))
        .collect();
    let count = rng.gen_range(0..=3usize.min(pool.len()));
    (0..count)
        .map(|_| {
            let col = &pool[rng.gen_range(0..pool.len())];
            random_filter(rng, col, sf)
        })
        .collect()
}

fn aggregate_exprs(rng: &mut SmallRng, tables: &[&'static str]) -> Vec<String> {
    let numeric: Vec<String> = AGG_COLS
        .iter()
        .filter(|(t, _)| tables.contains(t))
        .map(|(t, c)| format!("{t}.{c}"))
        .collect();
    let count = rng.gen_range(1..=4usize);
    let mut exprs = Vec::new();
    for i in 0..count {
        let choice = rng.gen_range(0..6u32);
        let expr = match choice {
            0 => "count(*)".to_string(),
            1 if tables.contains(&"lineitem") => {
                // The paper's Q1/Q3 revenue expression shape.
                "sum(lineitem.l_extendedprice * (1 - lineitem.l_discount))".to_string()
            }
            _ if numeric.is_empty() => "count(*)".to_string(),
            _ => {
                let func = ["sum", "avg", "min", "max"][rng.gen_range(0..4usize)];
                let col = &numeric[rng.gen_range(0..numeric.len())];
                format!("{func}({col})")
            }
        };
        exprs.push(format!("{expr} as agg{i}"));
    }
    exprs
}

/// (table, key column) pairs usable for self-joins via aliases.  `s_name`
/// and `c_name` are strings wider than eight bytes whose values share
/// their first eight (`Supplier#…`, `Customer#…`).
const SELF_JOIN_KEYS: [(&str, &str); 7] = [
    ("lineitem", "l_orderkey"),
    ("orders", "o_orderkey"),
    ("customer", "c_custkey"),
    ("nation", "n_nationkey"),
    ("part", "p_partkey"),
    ("supplier", "s_name"),
    ("customer", "c_name"),
];

/// A self-join of one table with itself through two aliases, projecting
/// columns from both sides.  Ordering by every projected column keeps the
/// (ordered, limited) result engine-independent, exactly as in the plain
/// projection shape.
fn generate_self_join(rng: &mut SmallRng, sf: f64) -> String {
    let (table, key) = SELF_JOIN_KEYS[rng.gen_range(0..SELF_JOIN_KEYS.len())];
    let pool: Vec<String> = PROJ_COLS
        .iter()
        .filter(|(t, _)| *t == table)
        .flat_map(|(_, c)| ["a", "b"].into_iter().map(move |q| format!("{q}.{c}")))
        .collect();
    let hi = pool.len().clamp(1, 4);
    let num_cols = rng.gen_range(2.min(hi)..=hi);
    let mut cols: Vec<String> = Vec::new();
    while cols.len() < num_cols {
        let col = pool[rng.gen_range(0..pool.len())].clone();
        if !cols.contains(&col) {
            cols.push(col);
        }
    }
    let mut predicates = vec![format!("a.{key} = b.{key}")];
    let fpool: Vec<FilterCol> = filter_cols()
        .into_iter()
        .filter(|c| c.table == table)
        .collect();
    if !fpool.is_empty() {
        for _ in 0..rng.gen_range(0..=2usize) {
            let col = &fpool[rng.gen_range(0..fpool.len())];
            let alias = if rng.gen_bool(0.5) { "a" } else { "b" };
            predicates.push(random_filter_as(rng, alias, col, sf));
        }
    }
    let order = order_by_clause(rng, &cols);
    let limit = random_limit(rng, 0.4, 100);
    format!(
        "select {} from {table} a, {table} b where {} order by {order}{limit}",
        cols.join(", "),
        predicates.join(" and ")
    )
}

/// Random ORDER BY over all of `cols` with per-key random direction.
fn order_by_clause(rng: &mut SmallRng, cols: &[String]) -> String {
    cols.iter()
        .map(|c| {
            let dir = if rng.gen_bool(0.25) { " desc" } else { "" };
            format!("{c}{dir}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// With probability `p`, a LIMIT clause in `0..=max` — LIMIT 0 (empty
/// result) is deliberately in the domain.
fn random_limit(rng: &mut SmallRng, p: f64, max: u32) -> String {
    if rng.gen_bool(p) {
        format!(" limit {}", rng.gen_range(0..=max))
    } else {
        String::new()
    }
}

fn generate_sql(rng: &mut SmallRng, sf: f64) -> String {
    // A slice of the budget goes to self-joins through table aliases.
    if rng.gen_range(0..10u32) == 0 {
        return generate_self_join(rng, sf);
    }
    let (tables, joins) = pick_tables(rng);
    let mut predicates = joins;
    predicates.extend(filters_for(rng, &tables, sf));
    let where_clause = if predicates.is_empty() {
        String::new()
    } else {
        format!(" where {}", predicates.join(" and "))
    };
    let from_clause = tables.join(", ");

    let aggregate_shape = rng.gen_bool(0.55);
    if aggregate_shape {
        let group_pool: Vec<String> = GROUP_COLS
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .map(|(t, c)| format!("{t}.{c}"))
            .collect();
        let num_keys = rng.gen_range(0..=2usize.min(group_pool.len()));
        let mut keys: Vec<String> = Vec::new();
        while keys.len() < num_keys {
            let key = group_pool[rng.gen_range(0..group_pool.len())].clone();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let aggs = aggregate_exprs(rng, &tables);
        let select_list = keys
            .iter()
            .cloned()
            .chain(aggs.iter().cloned())
            .collect::<Vec<_>>()
            .join(", ");
        if keys.is_empty() {
            // Global aggregate: exactly one output row, no ordering needed.
            return format!("select {select_list} from {from_clause}{where_clause}");
        }
        // Group keys are unique per row, so ordering by all of them is a
        // total order and LIMIT selects a well-defined prefix.
        let order = order_by_clause(rng, &keys);
        let limit = random_limit(rng, 0.25, 25);
        format!(
            "select {select_list} from {from_clause}{where_clause} \
             group by {} order by {order}{limit}",
            keys.join(", ")
        )
    } else {
        let pool: Vec<String> = PROJ_COLS
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .map(|(t, c)| format!("{t}.{c}"))
            .collect();
        let hi = pool.len().clamp(1, 4);
        let num_cols = rng.gen_range(2.min(hi)..=hi);
        let mut cols: Vec<String> = Vec::new();
        while cols.len() < num_cols {
            let col = pool[rng.gen_range(0..pool.len())].clone();
            if !cols.contains(&col) {
                cols.push(col);
            }
        }
        // Sometimes one or two arithmetic columns too, ordered by alias.
        let mut select = cols.clone();
        let exprs: Vec<&str> = PROJ_EXPRS
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .map(|(_, e)| *e)
            .collect();
        if !exprs.is_empty() && rng.gen_bool(0.4) {
            let first = rng.gen_range(0..exprs.len());
            let count = rng.gen_range(1..=exprs.len().min(2));
            for (i, expr) in exprs.iter().cycle().skip(first).take(count).enumerate() {
                select.push(format!("{expr} as e{i}"));
                cols.push(format!("e{i}"));
            }
        }
        // Ordering by every projected column makes ties identical rows, so
        // the (ordered, limited) result is engine-independent regardless of
        // per-key direction.
        let order = order_by_clause(rng, &cols);
        let limit = random_limit(rng, 0.35, 200);
        format!(
            "select {} from {from_clause}{where_clause} order by {order}{limit}",
            select.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = QueryGenerator::new(1234, 0.002);
        let mut b = QueryGenerator::new(1234, 0.002);
        for _ in 0..50 {
            let qa = a.next_query();
            let qb = b.next_query();
            assert_eq!(qa.sql, qb.sql);
            assert_eq!(qa.config, qb.config);
            assert_eq!(qa.seed, qb.seed);
        }
        let mut c = QueryGenerator::new(5678, 0.002);
        let diverges = (0..50).any(|i| query_for_seed(1234, i, 0.002).sql != c.next_query().sql);
        assert!(diverges, "different base seeds must give different streams");
    }

    #[test]
    fn query_for_seed_matches_the_stream() {
        let mut g = QueryGenerator::new(99, 0.002);
        for i in 0..20 {
            assert_eq!(g.next_query().sql, query_for_seed(99, i, 0.002).sql);
        }
    }

    #[test]
    fn configs_cover_every_thread_count() {
        let mut g = QueryGenerator::new(11, 0.002);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(g.next_query().config.threads);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn generator_covers_self_joins_and_limit_zero() {
        let mut g = QueryGenerator::new(21, 0.002);
        let sqls: Vec<String> = (0..400).map(|_| g.next_query().sql).collect();
        // Self-joins through aliases appear and always carry the a/b join.
        let self_joins: Vec<&String> = sqls.iter().filter(|s| s.contains(" a, ")).collect();
        assert!(!self_joins.is_empty(), "no self-joins generated");
        for sql in &self_joins {
            assert!(sql.contains("where a."), "{sql}");
            assert!(sql.contains(" = b."), "{sql}");
        }
        // LIMIT 0 and descending ORDER BY keys are in the dialect.
        assert!(sqls.iter().any(|s| s.ends_with("limit 0")), "no limit 0");
        assert!(sqls.iter().any(|s| s.contains(" desc")), "no desc order");
        assert!(
            sqls.iter().any(|s| {
                s.split(" limit ")
                    .nth(1)
                    .and_then(|l| l.parse::<u32>().ok())
                    .is_some_and(|l| l > 100)
            }),
            "no wide limits"
        );
    }

    #[test]
    fn scan_queries_are_single_table_counts() {
        for i in 0..50 {
            let q = scan_query_for_seed(7, i, 0.01);
            assert!(q.sql.starts_with("select count(*) as n from "), "{}", q.sql);
            assert!(q.sql.contains(" where "), "{}", q.sql);
            assert!(!q.sql.contains(", "), "single table only: {}", q.sql);
            // Deterministic in (seed, index).
            assert_eq!(q.sql, scan_query_for_seed(7, i, 0.01).sql);
        }
        assert_ne!(
            scan_query_for_seed(7, 0, 0.01).sql,
            scan_query_for_seed(8, 0, 0.01).sql
        );
    }

    #[test]
    fn queries_cover_joins_and_aggregates() {
        let mut g = QueryGenerator::new(7, 0.002);
        let sqls: Vec<String> = (0..200).map(|_| g.next_query().sql).collect();
        assert!(sqls.iter().any(|s| s.contains("group by")));
        assert!(sqls.iter().any(|s| !s.contains("group by")));
        // Projections carry arithmetic output columns, ordered by alias.
        assert!(sqls.iter().any(|s| s.contains(" as e0")
            && s.split(" order by ")
                .nth(1)
                .is_some_and(|o| o.contains("e0"))));
        assert!(sqls.iter().any(|s| s.contains(" = ") && s.contains(", ")));
        assert!(sqls.iter().any(|s| s.contains("limit")));
        assert!(sqls.iter().any(|s| s.matches(',').count() >= 1));
        // Multi-table queries appear and never exceed four tables.
        for sql in &sqls {
            let from = sql.split(" from ").nth(1).unwrap();
            let from = from.split(" where ").next().unwrap();
            let from = from.split(" order by ").next().unwrap();
            let from = from.split(" group by ").next().unwrap();
            let n = from.split(", ").count();
            assert!((1..=4).contains(&n), "{sql}");
        }
        assert!(sqls
            .iter()
            .any(|s| s.split(" from ").nth(1).unwrap().contains("lineitem, ")
                || s.split(" from ").nth(1).unwrap().contains(", lineitem")));
    }
}
