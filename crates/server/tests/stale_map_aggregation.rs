//! Map aggregation planned on stale statistics fails the statement, not the
//! server.
//!
//! The planner picks map aggregation when the catalogue's distinct counts
//! promise a small cell array.  Rows appended after the last `analyze` can
//! make the value directories outgrow anything that can be laid out; the
//! kernel once sized the array with an unchecked product and a plain
//! allocation, which overflows or aborts the process — every session with
//! it.  It is a typed `Execution` error naming the directory sizes now.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_server::{Engine, Server, ServerConfig};
use hique_storage::Catalog;
use hique_types::{Column, DataType, HiqueError, Row, Schema, Value};

const ATTRIBUTES: usize = 8;

/// `t(g0..g7, v)`: analyzed while it holds two rows, then grown by 200 rows
/// that are distinct in every column.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut columns: Vec<Column> = (0..ATTRIBUTES)
        .map(|a| Column::new(format!("g{a}"), DataType::Int32))
        .collect();
    columns.push(Column::new("v", DataType::Float64));
    cat.create_table("t", Schema::new(columns)).unwrap();
    let append = |cat: &mut Catalog, i: i32| {
        let mut values = vec![Value::Int32(i); ATTRIBUTES];
        values.push(Value::Float64(i as f64));
        let heap = &mut cat.table_mut("t").unwrap().heap;
        heap.append_row(&Row::new(values)).unwrap();
    };
    (0..2).for_each(|i| append(&mut cat, i));
    cat.analyze_table("t").unwrap();
    (2..202).for_each(|i| append(&mut cat, i));
    cat
}

#[test]
fn the_statement_fails_typed_and_the_server_keeps_answering() {
    let server = Server::new(catalog(), ServerConfig::default()).unwrap();
    let mut session = server.session();
    let groups: Vec<String> = (0..ATTRIBUTES).map(|a| format!("g{a}")).collect();
    let wide = format!(
        "select {0}, count(*) as n from t group by {0}",
        groups.join(", ")
    );

    // Two distinct values per attribute on record: 256 cells, map aggregation.
    let err = session.execute(&wide).unwrap_err();
    let HiqueError::Execution(message) = &err else {
        panic!("expected a typed execution error, got {err}");
    };
    assert!(message.contains("map aggregation"), "{message}");
    // It names the directory sizes, one per attribute.
    assert_eq!(message.matches(", ").count(), ATTRIBUTES - 1, "{message}");

    // The session, and another one on the same server, still answer.
    for mut session in [session, server.session()] {
        let count = session.execute("select count(*) as n from t").unwrap();
        assert_eq!(count.rows[0].get(0), &Value::Int64(202));
        // The bytecode engine runs the same plan's map aggregation, so it
        // fails the same typed way.
        let err = session.execute_on(&wide, Engine::Vm).unwrap_err();
        assert!(
            matches!(&err, HiqueError::Execution(m) if m.contains("map aggregation")),
            "{err}"
        );
        assert!(session.execute(&wide).is_err(), "and the error repeats");
    }
}
