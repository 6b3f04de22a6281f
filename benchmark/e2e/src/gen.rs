//! Workload definitions and seeded statement streams.
//!
//! The server only ever sees SQL text; everything that makes a workload
//! stress one layer rather than another (which statements, which literals,
//! whether an alias repeats) is decided here from `--seed`.

/// SplitMix64: small, seedable, and good enough to pick forms and literals.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Which statement generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's battery Q1/Q3/Q10 with fixed literals: every statement
    /// after the first pass is an `Exact` plan-cache hit.
    Tpch,
    /// Ad-hoc forms with a never-repeated alias: every statement is a new
    /// shape class, so every statement is a plan-cache `Miss`.
    AdhocCold,
    /// The same forms with a fixed alias and literals from small domains:
    /// after warm-up every statement is a `Template` or `Exact` hit.
    AdhocRebind,
}

/// One benchmark workload: the server it runs against and the sessions
/// that load it.  Flags are always passed explicitly, so a change to the
/// server's defaults does not silently change a workload.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `--sf` of the server's TPC-H fixture.
    pub sf: &'static str,
    /// `--budget-pages` of the server's buffer pool.
    pub budget_pages: &'static str,
    /// Whether the statements' working set exceeds that pool, so that scans
    /// must evict; otherwise nearly every page request must hit.
    pub pool_thrashes: bool,
    /// One entry per session: the engines it runs on, in order, each for
    /// an equal share of the window (`.engine` is sent at each switch).
    pub sessions: &'static [&'static [&'static str]],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch_fit_1s",
        kind: Kind::Tpch,
        sf: "0.05",
        budget_pages: "16384",
        pool_thrashes: false,
        sessions: &[&["holistic", "vm"]],
    },
    Workload {
        name: "tpch_spill_2s",
        kind: Kind::Tpch,
        sf: "0.01",
        budget_pages: "64",
        pool_thrashes: true,
        sessions: &[&["holistic"], &["vm"]],
    },
    Workload {
        name: "adhoc_cold_1s",
        kind: Kind::AdhocCold,
        sf: "0.01",
        budget_pages: "64",
        pool_thrashes: false,
        sessions: &[&["vm"]],
    },
    Workload {
        name: "adhoc_rebind_1s",
        kind: Kind::AdhocRebind,
        sf: "0.01",
        budget_pages: "64",
        pool_thrashes: false,
        sessions: &[&["vm"]],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn server_flags(&self) -> [&'static str; 4] {
        ["--sf", self.sf, "--budget-pages", self.budget_pages]
    }
}

/// The paper's battery (Figure 8), as single request lines.
pub const TPCH: [(&str, &str); 3] = [
    (
        "q1",
        "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
         sum(l_extendedprice) as sum_base_price, \
         sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
         avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
         avg(l_discount) as avg_disc, count(*) as count_order \
         from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
         group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
    ),
    (
        "q3",
        "select l.l_orderkey, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
         o.o_orderdate, o.o_shippriority from customer c, orders o, lineitem l \
         where c.c_mktsegment = 'BUILDING' and c.c_custkey = o.o_custkey \
         and l.l_orderkey = o.o_orderkey and o.o_orderdate < date '1995-03-15' \
         and l.l_shipdate > date '1995-03-15' \
         group by l.l_orderkey, o.o_orderdate, o.o_shippriority \
         order by revenue desc, o.o_orderdate limit 10",
    ),
    (
        "q10",
        "select c.c_custkey, c.c_name, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
         c.c_acctbal, n.n_name, c.c_address, c.c_phone \
         from customer c, orders o, lineitem l, nation n \
         where c.c_custkey = o.o_custkey and l.l_orderkey = o.o_orderkey \
         and c.c_nationkey = n.n_nationkey and o.o_orderdate >= date '1993-10-01' \
         and o.o_orderdate < date '1994-01-01' and l.l_returnflag = 'R' \
         group by c.c_custkey, c.c_name, c.c_acctbal, c.c_phone, n.n_name, c.c_address \
         order by revenue desc limit 20",
    ),
];

/// Region of each of the 25 TPC-H nations, by nation key (TPC-H spec 4.2.3).
pub const NATION_REGION: [u8; 25] = [
    0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
];

/// One ad-hoc statement form: `{a}` is the alias slot, `{l}` the literal.
pub struct Form {
    pub class: &'static str,
    pub template: &'static str,
    pub domain: &'static [&'static str],
}

const KEY_CUTS: &[&str] = &["3", "6", "9", "12", "15", "18", "21", "24"];

/// The ad-hoc forms.  README.md records why each was chosen; ORDER BY names
/// select-list aliases because this dialect requires it, and every ORDER BY
/// ends in a unique column so engines cannot disagree on ties.
pub const FORMS: [Form; 6] = [
    Form {
        class: "f0",
        template: "select n_name as {a}, n_regionkey as rk from nation where n_regionkey = {l}",
        domain: &["0", "1", "2", "3", "4"],
    },
    Form {
        class: "f1",
        template: "select s_name as {a}, s_acctbal as bal from supplier \
                   where s_acctbal > {l} order by bal desc, {a} limit 10",
        domain: &[
            "500.5", "1500.25", "2500.5", "3500.25", "4500.5", "5500.25", "6500.5", "7500.25",
        ],
    },
    Form {
        class: "f2",
        template: "select n_regionkey as {a}, count(*) as cnt from nation \
                   where n_nationkey < {l} group by n_regionkey order by {a}",
        domain: KEY_CUTS,
    },
    Form {
        class: "f3",
        template: "select r.r_name as {a}, count(*) as cnt from nation n, region r \
                   where n.n_regionkey = r.r_regionkey and n.n_nationkey < {l} \
                   group by r.r_name order by {a}",
        domain: KEY_CUTS,
    },
    Form {
        class: "f4",
        template: "select r.r_name as {a}, count(*) as cnt, sum(s.s_acctbal) as bal \
                   from supplier s, nation n, region r \
                   where s.s_nationkey = n.n_nationkey and n.n_regionkey = r.r_regionkey \
                   and s.s_acctbal > {l} group by r.r_name order by {a}",
        domain: &[
            "1000.5", "2000.25", "3000.5", "4000.25", "5000.5", "6000.25", "7000.5", "8000.25",
        ],
    },
    Form {
        class: "f5",
        template: "select n.n_name as {a}, count(*) as cnt, max(s.s_acctbal) as top \
                   from supplier s, nation n \
                   where s.s_nationkey = n.n_nationkey and s.s_suppkey <= {l} \
                   group by n.n_name order by cnt desc, {a} limit 5",
        domain: &["20", "30", "40", "50", "60", "70", "80", "90"],
    },
];

impl Form {
    pub fn render(&self, alias: &str, literal: &str) -> String {
        self.template.replace("{a}", alias).replace("{l}", literal)
    }

    /// Row count the TPC-H spec fixes for the `nation`/`region`-only forms,
    /// independent of any engine.
    fn rows_by_spec(&self, literal: &str) -> Option<usize> {
        match self.class {
            "f0" => Some(5),
            "f2" | "f3" => {
                let cut: usize = literal.parse().expect("key cut is an integer");
                let mut regions = [false; 5];
                for &r in &NATION_REGION[..cut.min(25)] {
                    regions[r as usize] = true;
                }
                Some(regions.iter().filter(|&&seen| seen).count())
            }
            _ => None,
        }
    }
}

/// Alias used when fetching reference answers: a shape class of its own, so
/// reference traffic never shares a plan-cache entry with measured traffic.
const REFERENCE_ALIAS: &str = "ref";

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// `q1`/`q3`/`q10` or `f0`..`f5`.
    pub class: &'static str,
    pub sql: String,
    /// The statement whose answer under the reference engine this one must
    /// match (the same text for TPC-H; the form under the reference alias
    /// for ad-hoc, since an alias only renames the header).
    pub reference: String,
    pub rows_by_spec: Option<usize>,
}

/// Every reference statement a workload kind can ask for.
pub fn reference_statements(kind: Kind) -> Vec<String> {
    match kind {
        Kind::Tpch => TPCH.iter().map(|(_, sql)| sql.to_string()).collect(),
        Kind::AdhocCold | Kind::AdhocRebind => FORMS
            .iter()
            .flat_map(|f| f.domain.iter().map(|l| f.render(REFERENCE_ALIAS, l)))
            .collect(),
    }
}

/// Share of `adhoc_rebind_1s` statements that repeat their class's previous
/// literal (an `Exact` hit); the rest change it (a `Template` hit).
pub const REBIND_EXACT_PERCENT: u64 = 30;

/// An endless, seeded statement stream for one session of one workload.
pub struct Stream {
    kind: Kind,
    session: usize,
    rng: Rng,
    issued: u64,
    /// Last literal index per form (`adhoc_rebind_1s` only).
    last: [Option<usize>; FORMS.len()],
}

impl Stream {
    pub fn new(kind: Kind, seed: u64, session: usize) -> Stream {
        Stream {
            kind,
            session,
            rng: Rng::new(seed ^ (session as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            issued: 0,
            last: [None; FORMS.len()],
        }
    }

    pub fn next_statement(&mut self) -> Statement {
        let n = self.issued;
        self.issued += 1;
        if self.kind == Kind::Tpch {
            let (class, sql) = TPCH[(n % 3) as usize];
            return Statement {
                class,
                sql: sql.to_string(),
                reference: sql.to_string(),
                rows_by_spec: None,
            };
        }
        // The first statements walk the forms in order, so any warm-up of at
        // least `FORMS.len()` statements has seen every class.
        let f = if (n as usize) < FORMS.len() {
            n as usize
        } else {
            self.rng.below(FORMS.len())
        };
        let form = &FORMS[f];
        let choices = form.domain.len();
        let (alias, l) = match self.kind {
            Kind::AdhocCold => (format!("c{}x{n}", self.session), self.rng.below(choices)),
            _ => {
                let l = match self.last[f] {
                    Some(prev) if self.rng.chance(REBIND_EXACT_PERCENT) => prev,
                    Some(prev) => (prev + 1 + self.rng.below(choices - 1)) % choices,
                    None => self.rng.below(choices),
                };
                self.last[f] = Some(l);
                ("a".to_string(), l)
            }
        };
        let literal = form.domain[l];
        Statement {
            class: form.class,
            sql: form.render(&alias, literal),
            reference: form.render(REFERENCE_ALIAS, literal),
            rows_by_spec: form.rows_by_spec(literal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(kind: Kind, seed: u64, session: usize, n: usize) -> Vec<Statement> {
        let mut s = Stream::new(kind, seed, session);
        (0..n).map(|_| s.next_statement()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        for kind in [Kind::AdhocCold, Kind::AdhocRebind] {
            assert_eq!(take(kind, 7, 0, 500), take(kind, 7, 0, 500));
            assert_ne!(take(kind, 7, 0, 500), take(kind, 8, 0, 500));
            assert_ne!(take(kind, 7, 0, 500), take(kind, 7, 1, 500));
        }
        assert_eq!(take(Kind::Tpch, 1, 0, 9), take(Kind::Tpch, 1, 0, 9));
    }

    #[test]
    fn every_statement_is_one_request_line_with_a_reference() {
        for w in &WORKLOADS {
            let refs = reference_statements(w.kind);
            for s in take(w.kind, 42, 0, 2000) {
                assert!(!s.sql.contains('\n'));
                assert!(refs.contains(&s.reference), "{}", s.reference);
            }
        }
    }

    #[test]
    fn warm_up_prefix_walks_every_form() {
        let classes: Vec<_> = take(Kind::AdhocRebind, 3, 0, FORMS.len())
            .iter()
            .map(|s| s.class)
            .collect();
        assert_eq!(classes, ["f0", "f1", "f2", "f3", "f4", "f5"]);
    }

    #[test]
    fn spec_row_counts() {
        assert_eq!(FORMS[2].rows_by_spec("3"), Some(2)); // nations 0,1,2 -> regions 0,1
        assert_eq!(FORMS[3].rows_by_spec("24"), Some(5));
        assert_eq!(FORMS[0].rows_by_spec("4"), Some(5));
        assert_eq!(FORMS[1].rows_by_spec("500.5"), None);
        for r in 0..5u8 {
            assert_eq!(NATION_REGION.iter().filter(|&&x| x == r).count(), 5);
        }
    }
}
