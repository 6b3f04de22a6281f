//! MIN/MAX answer in their argument's type on every engine.
//!
//! The kernel-providing engines (`holistic`, `vm`) and `dsm` accumulate
//! every aggregate in `f64` and once finished MIN/MAX as `Float64` whatever
//! the aggregate's type, so over the wire `min(d)` of a date column read
//! `8041.0000` there and `1992-01-07` on the iterator engines (and
//! `min(i)` read `1.0000` vs `1`).  The differential harness compares
//! numerics through `f64` and never saw it; the wire shows the bytes.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hique_server::{serve, Engine, Server, ServerConfig, WireClient};
use hique_storage::Catalog;
use hique_types::value::parse_date;
use hique_types::{Column, DataType, Row, Schema, Value};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        "t",
        Schema::new(vec![
            Column::new("g", DataType::Int32),
            Column::new("i", DataType::Int32),
            Column::new("l", DataType::Int64),
            Column::new("d", DataType::Date),
            Column::new("f", DataType::Float64),
        ]),
    )
    .unwrap();
    let epoch = parse_date("1992-01-07").unwrap();
    for n in 0..60i32 {
        cat.table_mut("t")
            .unwrap()
            .heap
            .append_row(&Row::new(vec![
                Value::Int32(n % 3),
                Value::Int32(n - 7),
                Value::Int64(1_000_000_007 * (n as i64 + 1)),
                Value::Date(epoch + 31 * n),
                Value::Float64(n as f64 * 0.25 - 3.0),
            ]))
            .unwrap();
    }
    cat.analyze_table("t").unwrap();
    cat
}

#[test]
fn min_max_over_ints_and_dates_is_byte_identical_on_every_engine() {
    let server = Server::new(catalog(), ServerConfig::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let serving = {
        let (server, stop) = (server.clone(), Arc::clone(&stop));
        std::thread::spawn(move || serve(server, listener, stop))
    };
    let mut client = WireClient::connect(addr).unwrap();

    let grouped = "select g, min(i) as lo_i, max(i) as hi_i, min(l) as lo_l, max(l) as hi_l, \
                   min(d) as lo_d, max(d) as hi_d, min(f) as lo_f, max(f) as hi_f \
                   from t group by g order by g";
    let global = "select min(i) as lo_i, max(l) as hi_l, min(d) as lo_d, max(d) as hi_d, \
                  max(f) as hi_f from t";
    for (sql, first_row) in [
        (
            grouped,
            "0\t-7\t50\t1000000007\t58000000406\t1992-01-07\t1996-11-08\t-3.0000\t11.2500",
        ),
        (global, "-7\t60000000420\t1992-01-07\t1997-01-09\t11.7500"),
    ] {
        let mut replies = Vec::new();
        for engine in Engine::ALL {
            let ok = client
                .request(&format!(".engine {}", engine.name()))
                .unwrap();
            assert!(ok.is_ok(), "{}", ok.status);
            let reply = client.query(sql).unwrap();
            replies.push((engine.name(), reply.status, reply.lines));
        }
        let (_, status, lines) = &replies[0];
        assert_eq!(lines[1], first_row, "{sql}");
        for (engine, s, l) in &replies[1..] {
            assert_eq!(
                (s, l),
                (status, lines),
                "{engine} vs {}: {sql}",
                replies[0].0
            );
        }
    }

    drop(client);
    stop.store(true, Ordering::SeqCst);
    serving.join().unwrap().unwrap();
}
