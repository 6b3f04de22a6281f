//! `hique-server`: the long-lived HIQUE query daemon.
//!
//! ```text
//! hique-server [--sf F] [--budget-pages N] [--port P] [--sessions N] [--threads N]
//! hique-server --smoke
//! ```
//!
//! Default mode generates a TPC-H fixture at the given scale factor,
//! spills it behind a budgeted buffer pool, and serves the line protocol
//! (see [`hique_server::wire`]) on `--port` until stdin reaches EOF —
//! which makes clean shutdown scriptable (`echo | hique-server ...` or
//! closing the pipe from a supervisor).
//!
//! `--smoke` is the CI entry point: it binds an ephemeral port, runs a
//! battery of real-TCP queries (including repeated shapes, engine
//! switches, a wide string key, a 100-aggregate statement, a 300-level
//! output expression and integer and date arithmetic outputs each answered
//! identically by four engines, Q1 respelled as a plan-cache hit,
//! and a deliberate error), verifies the responses and the plan cache
//! counters, shuts the server down cleanly, and exits nonzero on
//! any failure.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use std::collections::HashMap;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hique_server::{serve, Server, ServerConfig, WireClient};
use hique_sql::lexer::tokenize;
use hique_sql::token::Token;

struct Args {
    sf: f64,
    budget_pages: usize,
    port: u16,
    sessions: usize,
    threads: usize,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sf: 0.01,
            budget_pages: 64,
            port: 5433,
            sessions: 8,
            threads: 1,
            smoke: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--budget-pages" => {
                args.budget_pages = value("--budget-pages")?
                    .parse()
                    .map_err(|e| format!("--budget-pages: {e}"))?
            }
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn build_server(args: &Args) -> Result<Server, String> {
    let mut catalog = hique_tpch::generate_into_catalog(args.sf)
        .map_err(|e| format!("fixture generation failed: {e}"))?;
    if args.budget_pages > 0 {
        catalog
            .spill_to_disk(args.budget_pages)
            .map_err(|e| format!("spill_to_disk failed: {e}"))?;
    }
    Server::new(
        catalog,
        ServerConfig {
            max_sessions: args.sessions,
            threads: args.threads,
            memory_budget_pages: 0,
            plan_cache_capacity: 256,
        },
    )
    .map_err(|e| format!("server startup failed: {e}"))
}

fn run_daemon(args: Args) -> Result<(), String> {
    let server = build_server(&args)?;
    let listener = TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("bind 127.0.0.1:{} failed: {e}", args.port))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let serve_handle = {
        let server = server.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve(server, listener, stop))
    };
    eprintln!(
        "hique-server listening on {addr} (sf={}, budget={} pages, max {} sessions); \
         close stdin to stop",
        args.sf, args.budget_pages, args.sessions
    );
    // Block until the controlling process closes our stdin.
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    stop.store(true, Ordering::Release);
    serve_handle
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let cache = server.cache_stats();
    eprintln!(
        "hique-server stopped: {} queries served, cache {} hits / {} misses",
        server.queries_served(),
        cache.hits,
        cache.misses
    );
    Ok(())
}

fn run_smoke() -> Result<(), String> {
    let args = Args {
        sessions: 4,
        ..Args::default()
    };
    let server = build_server(&args)?;
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("ephemeral bind failed: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let serve_handle = {
        let server = server.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve(server, listener, stop))
    };
    eprintln!("smoke: serving on {addr}");

    let result = (|| -> Result<(), String> {
        let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
        // The paper's battery over the wire; run each twice so the second
        // pass must hit the plan cache.
        let mut first_pass = HashMap::new();
        for pass in 0..2 {
            for (name, sql) in hique_tpch::queries::all_queries() {
                let resp = client
                    .query(sql)
                    .map_err(|e| format!("{name} pass {pass}: {e}"))?;
                if resp.rows().is_empty() {
                    return Err(format!("{name} pass {pass}: empty result"));
                }
                if pass == 0 {
                    first_pass.insert(name, resp.rows().to_vec());
                } else if first_pass[name] != resp.rows() {
                    return Err(format!("{name}: pass 1 diverged from pass 0"));
                }
                eprintln!("smoke: {name} pass {pass}: {} rows", resp.rows().len());
            }
        }
        // Same battery on a second connection and a different engine: the
        // cached plans must serve another session too.
        let mut c2 = WireClient::connect(addr).map_err(|e| e.to_string())?;
        let resp = c2
            .request(".engine iter-optimized")
            .map_err(|e| e.to_string())?;
        if !resp.is_ok() {
            return Err(format!("engine switch failed: {}", resp.status));
        }
        for (name, sql) in hique_tpch::queries::all_queries() {
            let resp = c2
                .query(sql)
                .map_err(|e| format!("{name} (iter-optimized): {e}"))?;
            if first_pass[name] != resp.rows() {
                return Err(format!("{name}: iter-optimized diverged from holistic"));
            }
        }
        let stats = server.cache_stats();
        eprintln!(
            "smoke: cache {} hits / {} misses, {} queries served",
            stats.hits,
            stats.misses,
            server.queries_served()
        );
        if stats.misses != 3 {
            return Err(format!("expected 3 cache misses, got {}", stats.misses));
        }
        if stats.hits < 6 {
            return Err(format!("expected >= 6 cache hits, got {}", stats.hits));
        }
        // Statements the four engines must answer identically: a string
        // key wider than its eight-byte image, whose five values share those
        // eight bytes (`Manufacturer#1` … `#5`); an aggregate whose register
        // program has 201 nodes; an output expression 300 levels deep; and
        // arithmetic that must leave as an integer and a date.
        let sums: Vec<String> = (1..=100)
            .map(|i| format!("sum(o_totalprice + {i}) as a{i}"))
            .collect();
        let deep = (0..300).fold("o_totalprice".to_string(), |e, _| {
            format!("o_totalprice + ({e})")
        });
        let statements = [
            (
                "p_mfgr groups",
                "select p_mfgr, count(*) as n from part group by p_mfgr order by p_mfgr"
                    .to_string(),
                Some(5),
            ),
            (
                "100 sums",
                format!(
                    "select o_orderstatus, {} from orders group by o_orderstatus \
                     order by o_orderstatus",
                    sums.join(", ")
                ),
                None,
            ),
            (
                "300-level expression",
                format!(
                    "select o_orderkey, {deep} as x from orders where o_orderkey < 2000 \
                     order by o_orderkey"
                ),
                None,
            ),
            (
                "typed expressions",
                "select o_orderkey + 1 as k, o_orderdate + 1 as d from orders \
                 where o_orderkey < 100 order by k"
                    .to_string(),
                None,
            ),
        ];
        for (name, sql, expected_rows) in &statements {
            let mut replies = Vec::new();
            for engine in ["holistic", "vm", "iter-generic", "dsm"] {
                let resp = client
                    .request(&format!(".engine {engine}"))
                    .map_err(|e| e.to_string())?;
                if !resp.is_ok() {
                    return Err(format!("engine switch to {engine} failed: {}", resp.status));
                }
                let resp = client
                    .query(sql)
                    .map_err(|e| format!("{name} ({engine}): {e}"))?;
                let rows = resp.rows().len();
                if rows == 0 || expected_rows.is_some_and(|n| n != rows) {
                    return Err(format!("{name} ({engine}): {rows} rows"));
                }
                replies.push(resp.lines);
            }
            if replies.iter().any(|reply| *reply != replies[0]) {
                return Err(format!("{name}: replies differ across engines"));
            }
            eprintln!("smoke: {name}: identical on holistic, vm, iter-generic and dsm");
        }
        // Q1 respelled — keywords upper-cased, one space between tokens, a
        // trailing `;` and a comment holding an apostrophe — is the same
        // statement to the lexer, so the plan cache must answer it as a hit
        // without a miss.
        let (hits, misses) = cache_counters(&mut client)?;
        let mut respelled = String::new();
        for token in tokenize(hique_tpch::Q1_SQL).map_err(|e| e.to_string())? {
            match token {
                Token::Keyword(k) => respelled += &k.as_str().to_ascii_uppercase(),
                Token::Eof => respelled += "; -- don't",
                token => respelled += &token.to_string(),
            }
            respelled.push(' ');
        }
        client
            .query(&respelled)
            .map_err(|e| format!("respelled Q1: {e}"))?;
        if cache_counters(&mut client)? != (hits + 1, misses) {
            return Err("respelled Q1 was not one cache hit".to_string());
        }
        eprintln!("smoke: respelled Q1 hit the plan cache");
        // A bad query must produce a typed error and leave the connection
        // usable.
        let err = client
            .request("select no_such_column from lineitem")
            .map_err(|e| e.to_string())?;
        if err.is_ok() {
            return Err("bogus query did not error".to_string());
        }
        let bye = client.request(".quit").map_err(|e| e.to_string())?;
        if bye.status != "OK bye" {
            return Err(format!("quit: {}", bye.status));
        }
        Ok(())
    })();

    stop.store(true, Ordering::Release);
    serve_handle
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve loop: {e}"))?;
    result?;
    eprintln!("smoke: OK");
    Ok(())
}

/// `cache_hits` and `cache_misses` as `.stats` reports them.
fn cache_counters(client: &mut WireClient) -> Result<(u64, u64), String> {
    let stats = client.request(".stats").map_err(|e| e.to_string())?;
    let counter = |name| {
        stats
            .lines
            .iter()
            .find_map(|l| l.strip_prefix(name)?.parse().ok())
    };
    (counter("cache_hits=").zip(counter("cache_misses=")))
        .ok_or_else(|| format!(".stats reports no cache counters: {:?}", stats.lines))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hique-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.smoke {
        run_smoke()
    } else {
        run_daemon(args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hique-server: {e}");
            ExitCode::FAILURE
        }
    }
}
