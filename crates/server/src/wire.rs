//! The std-only line-based wire protocol.
//!
//! One request per line; one response per request, terminated by a line
//! containing a single `.`:
//!
//! ```text
//! C: select k, count(*) as n from r group by k order by k
//! S: OK 10 2
//! S: k\tn
//! S: 0\t20
//! S: ...
//! S: .
//! C: .engine dsm
//! S: OK engine dsm
//! S: .
//! C: .stats
//! S: OK stats
//! S: cache_hits=3
//! S: ...
//! S: .
//! C: .quit
//! S: OK bye
//! S: .
//! ```
//!
//! Errors are `ERR <layer>: <message>` followed by `.`.  The protocol is
//! deliberately `nc`-compatible: no framing beyond newlines, values
//! tab-separated using the engine's canonical [`hique_types::Value`] rendering.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hique_types::{HiqueError, QueryResult, Result};

use crate::engine::Engine;
use crate::session::{Server, Session};

/// How often an idle connection or the accept loop re-checks the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest request line accepted, in bytes.  A longer line gets a typed
/// `ERR` (its excess is discarded) instead of buffering without bound, and
/// the connection stays usable.
const MAX_LINE: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> HiqueError {
    HiqueError::Storage(format!("wire i/o: {e}"))
}

/// Serve connections on `listener` until `stop` is set.  Each connection
/// gets its own [`Session`] on its own thread; the call blocks until stop,
/// then joins every connection thread (connections see the flag within one
/// poll interval).
pub fn serve(server: Server, listener: TcpListener, stop: Arc<AtomicBool>) -> Result<()> {
    listener.set_nonblocking(true).map_err(io_err)?;
    let mut workers = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let session = server.session();
                let server = server.clone();
                let stop = Arc::clone(&stop);
                workers.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, server, session, stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    // Drain on shutdown: cancel every in-flight statement so connection
    // threads finish their current response (a typed `ERR cancelled`, not a
    // dropped connection) within one cooperative check, then join them.
    server.cancel_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Outcome of reading one request line under the size cap.
enum LineRead {
    /// A complete line (without unbounded buffering) sits in the buffer.
    Line,
    /// Client closed (EOF, I/O error, or server stop) — drop the connection.
    Closed,
    /// The line exceeded [`MAX_LINE`]; its excess was discarded.
    TooLong,
}

/// Read one `\n`-terminated request into `buf`, never holding more than
/// ~2×[`MAX_LINE`] bytes, re-polling `stop` across read timeouts.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    stop: &AtomicBool,
    buf: &mut Vec<u8>,
) -> LineRead {
    buf.clear();
    loop {
        if stop.load(Ordering::Acquire) {
            return LineRead::Closed;
        }
        match reader
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', buf)
        {
            // EOF: treat a final unterminated line as a request (so piped
            // input without a trailing newline still works).
            Ok(0) => {
                return if buf.is_empty() {
                    LineRead::Closed
                } else {
                    LineRead::Line
                }
            }
            Ok(_) if buf.last() == Some(&b'\n') => {
                return if buf.len() > MAX_LINE {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                }
            }
            Ok(_) if buf.len() > MAX_LINE => {
                // Oversized and still unterminated: discard through to the
                // newline in bounded chunks, then report.
                let mut scratch = Vec::with_capacity(4096);
                loop {
                    if stop.load(Ordering::Acquire) {
                        return LineRead::Closed;
                    }
                    scratch.clear();
                    match reader.by_ref().take(4096).read_until(b'\n', &mut scratch) {
                        Ok(0) => return LineRead::Closed,
                        Ok(_) if scratch.last() == Some(&b'\n') => return LineRead::TooLong,
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(_) => return LineRead::Closed,
                    }
                }
            }
            // The take() limit stopped us mid-line: keep reading.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

fn write_result(out: &mut impl Write, result: &QueryResult) -> std::io::Result<()> {
    let cols = result.schema.columns();
    writeln!(out, "OK {} {}", result.rows.len(), cols.len())?;
    if !cols.is_empty() {
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        writeln!(out, "{}", names.join("\t"))?;
        for row in &result.rows {
            let vals: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
            writeln!(out, "{}", vals.join("\t"))?;
        }
    }
    writeln!(out, ".")
}

fn write_err(out: &mut impl Write, e: &HiqueError) -> std::io::Result<()> {
    let msg = e.message().replace('\n', " ");
    writeln!(out, "ERR {}: {msg}", e.layer())?;
    writeln!(out, ".")
}

fn handle_connection(
    stream: TcpStream,
    server: Server,
    mut session: Session,
    stop: Arc<AtomicBool>,
) -> Result<()> {
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .map_err(io_err)?;
    let mut writer = stream.try_clone().map_err(io_err)?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match read_request_line(&mut reader, &stop, &mut buf) {
            LineRead::Closed => break,
            LineRead::TooLong => {
                let e = HiqueError::Parse(format!(
                    "request line exceeds {MAX_LINE} bytes; excess discarded"
                ));
                if write_err(&mut writer, &e).is_err() || writer.flush().is_err() {
                    break;
                }
                continue;
            }
            LineRead::Line => {}
        }
        let request = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim(),
            Err(_) => {
                let e = HiqueError::Parse("request is not valid UTF-8".into());
                if write_err(&mut writer, &e).is_err() || writer.flush().is_err() {
                    break;
                }
                continue;
            }
        };
        if request.is_empty() {
            continue;
        }
        let outcome = if let Some(command) = request.strip_prefix('.') {
            let mut parts = command.split_whitespace();
            match parts.next() {
                Some("quit") => {
                    let _ = writeln!(writer, "OK bye\n.");
                    break;
                }
                Some("engine") => match parts.next().map(Engine::parse) {
                    Some(Ok(engine)) => {
                        session.set_engine(engine);
                        writeln!(writer, "OK engine {}\n.", engine.name()).map_err(io_err)
                    }
                    Some(Err(e)) => write_err(&mut writer, &e).map_err(io_err),
                    None => write_err(
                        &mut writer,
                        &HiqueError::Unsupported(".engine needs an argument".into()),
                    )
                    .map_err(io_err),
                },
                Some("timeout") => match parts.next().map(str::parse::<u64>) {
                    Some(Ok(0)) => {
                        session.set_timeout(None);
                        writeln!(writer, "OK timeout off\n.").map_err(io_err)
                    }
                    Some(Ok(ms)) => {
                        session.set_timeout(Some(Duration::from_millis(ms)));
                        writeln!(writer, "OK timeout {ms}\n.").map_err(io_err)
                    }
                    Some(Err(_)) => write_err(
                        &mut writer,
                        &HiqueError::Parse(".timeout needs milliseconds (0 clears)".into()),
                    )
                    .map_err(io_err),
                    None => write_err(
                        &mut writer,
                        &HiqueError::Unsupported(".timeout needs an argument".into()),
                    )
                    .map_err(io_err),
                },
                Some("stats") => {
                    let cache = server.cache_stats();
                    writeln!(
                        writer,
                        "OK stats\ncache_hits={}\ncache_misses={}\ncache_entries={}\nqueries={}\nqueries_cancelled={}\nengine={}\n.",
                        cache.hits,
                        cache.misses,
                        cache.entries,
                        server.queries_served(),
                        server.queries_cancelled(),
                        session.engine().name()
                    )
                    .map_err(io_err)
                }
                _ => write_err(
                    &mut writer,
                    &HiqueError::Unsupported(format!("unknown command '{request}'")),
                )
                .map_err(io_err),
            }
        } else {
            match session.execute(request) {
                Ok(result) => write_result(&mut writer, &result).map_err(io_err),
                Err(e) => write_err(&mut writer, &e).map_err(io_err),
            }
        };
        if outcome.is_err() {
            break; // client went away mid-response
        }
        if writer.flush().is_err() {
            break;
        }
    }
    Ok(())
}

/// One parsed wire response: the status line plus the body lines up to
/// (excluding) the `.` terminator.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// `OK ...` or `ERR ...`.
    pub status: String,
    /// Body lines (for a query: the header line, then one line per row).
    pub lines: Vec<String>,
}

impl WireResponse {
    /// True when the status line starts with `OK`.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// Row lines of a query response (body minus the header line).
    pub fn rows(&self) -> &[String] {
        if self.lines.is_empty() {
            &[]
        } else {
            &self.lines[1..]
        }
    }
}

/// A minimal blocking client for the line protocol (used by the smoke
/// mode, the benchmarks and the tests).
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let writer = stream.try_clone().map_err(io_err)?;
        Ok(WireClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read the full response.
    pub fn request(&mut self, line: &str) -> Result<WireResponse> {
        writeln!(self.writer, "{line}").map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut status = String::new();
        if self.reader.read_line(&mut status).map_err(io_err)? == 0 {
            return Err(HiqueError::Storage("server closed the connection".into()));
        }
        let status = status.trim_end().to_string();
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            if self.reader.read_line(&mut l).map_err(io_err)? == 0 {
                return Err(HiqueError::Storage(
                    "connection closed before response terminator".into(),
                ));
            }
            let l = l.trim_end().to_string();
            if l == "." {
                break;
            }
            lines.push(l);
        }
        Ok(WireResponse { status, lines })
    }

    /// Convenience: send SQL, error on an `ERR` response.
    pub fn query(&mut self, sql: &str) -> Result<WireResponse> {
        let resp = self.request(sql)?;
        if !resp.is_ok() {
            return Err(HiqueError::Execution(resp.status));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ServerConfig;
    use hique_storage::Catalog;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn catalog_sized(rows: i32) -> Catalog {
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
                    Value::Int32(i % 5),
                    Value::Float64(i as f64),
                ]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat
    }

    fn catalog() -> Catalog {
        catalog_sized(100)
    }

    fn start(server: &Server) -> (std::net::SocketAddr, Arc<AtomicBool>, ServeHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve(server, listener, stop))
        };
        (addr, stop, handle)
    }

    type ServeHandle = std::thread::JoinHandle<Result<()>>;

    #[test]
    fn queries_commands_and_errors_round_trip_over_tcp() {
        let server = Server::new(catalog(), ServerConfig::default()).unwrap();
        let (addr, stop, serve_handle) = start(&server);

        let mut client = WireClient::connect(addr).unwrap();
        let resp = client
            .query("select k, count(*) as n from r group by k order by k")
            .unwrap();
        assert_eq!(resp.status, "OK 5 2");
        assert_eq!(resp.lines[0], "k\tn");
        assert_eq!(resp.rows().len(), 5);
        assert_eq!(resp.rows()[0], "0\t20");

        // Engine switch changes the executor, not the result.
        let ok = client.request(".engine dsm").unwrap();
        assert_eq!(ok.status, "OK engine dsm");
        let resp2 = client
            .query("select k, count(*) as n from r group by k order by k")
            .unwrap();
        assert_eq!(resp2.rows(), resp.rows());

        // Errors are typed lines, and the connection survives them.
        let err = client.request("select nope from r").unwrap();
        assert!(err.status.starts_with("ERR analysis:"), "{}", err.status);
        let err = client.request(".engine warp").unwrap();
        assert!(err.status.starts_with("ERR unsupported:"), "{}", err.status);

        // Stats reflect the cache hit from the repeated shape.
        let stats = client.request(".stats").unwrap();
        assert!(stats.is_ok());
        assert!(
            stats.lines.iter().any(|l| l == "cache_hits=1"),
            "{:?}",
            stats.lines
        );

        let bye = client.request(".quit").unwrap();
        assert_eq!(bye.status, "OK bye");

        // A second client gets its own session.
        let mut c2 = WireClient::connect(addr).unwrap();
        assert!(c2.query("select k from r where k = 1").is_ok());
        drop(c2);

        stop.store(true, Ordering::Release);
        serve_handle.join().unwrap().unwrap();
        assert_eq!(server.queries_served(), 3);
    }

    /// `engine=vm` on an aggregate whose register program has 201 nodes (1
    /// load + 100 constants + 100 adds) and on an output expression 300
    /// levels deep: the wire reply is byte-identical to `engine=holistic`.
    #[test]
    fn wide_and_deep_vm_replies_are_identical_to_holistic_over_the_wire() {
        let server = Server::new(catalog(), ServerConfig::default()).unwrap();
        let (addr, stop, serve_handle) = start(&server);

        let mut client = WireClient::connect(addr).unwrap();
        let sums: Vec<String> = (1..=100).map(|i| format!("sum(v + {i}) as a{i}")).collect();
        let deep = (0..300).fold("v".to_string(), |e, _| format!("v + ({e})"));
        for sql in [
            format!("select k, {} from r group by k order by k", sums.join(", ")),
            format!("select k, {deep} as x from r order by k, x"),
        ] {
            client.request(".engine holistic").unwrap();
            let holistic = client.query(&sql).unwrap();
            assert!(holistic.is_ok(), "{}", holistic.status);
            assert!(!holistic.rows().is_empty());

            client.request(".engine vm").unwrap();
            let vm = client.query(&sql).unwrap();
            assert_eq!(vm.status, holistic.status);
            assert_eq!(vm.lines, holistic.lines);
        }

        stop.store(true, Ordering::Release);
        serve_handle.join().unwrap().unwrap();
    }

    /// Satellite 3: the server survives hostile input — oversized lines,
    /// non-UTF-8 bytes, a mid-statement disconnect, and a `.stats` flood —
    /// answering each abuse with a typed `ERR` (or shrugging it off) while
    /// the next client still gets a clean `OK`.
    #[test]
    fn hostile_wire_input_leaves_the_server_usable() {
        let server = Server::new(catalog(), ServerConfig::default()).unwrap();
        let (addr, stop, serve_handle) = start(&server);

        // Oversized request line: typed ERR, connection stays usable.
        let mut client = WireClient::connect(addr).unwrap();
        let huge = "a".repeat(MAX_LINE + 4096);
        let resp = client.request(&huge).unwrap();
        assert!(resp.status.starts_with("ERR parse:"), "{}", resp.status);
        assert!(resp.status.contains("exceeds"), "{}", resp.status);
        let ok = client.query("select k from r where k = 1").unwrap();
        assert_eq!(ok.rows().len(), 20);

        // Non-UTF-8 bytes: typed ERR on the same connection, which survives.
        {
            let raw = TcpStream::connect(addr).unwrap();
            let mut w = raw.try_clone().unwrap();
            let mut r = BufReader::new(raw);
            w.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
            w.flush().unwrap();
            let mut status = String::new();
            r.read_line(&mut status).unwrap();
            assert!(
                status.starts_with("ERR parse:") && status.contains("UTF-8"),
                "{status}"
            );
            let mut dot = String::new();
            r.read_line(&mut dot).unwrap();
            assert_eq!(dot.trim_end(), ".");
            w.write_all(b".stats\n").unwrap();
            w.flush().unwrap();
            let mut again = String::new();
            r.read_line(&mut again).unwrap();
            assert!(again.starts_with("OK stats"), "{again}");
        }

        // Mid-statement disconnect: a partial line with no newline, then the
        // socket drops.  The server must not wedge or crash.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(b"select k from r whe").unwrap();
            raw.flush().unwrap();
        }

        // `.stats` flood from one client.
        for _ in 0..100 {
            assert!(client.request(".stats").unwrap().is_ok());
        }

        // After all of that, a fresh client gets a normal answer.
        let mut c2 = WireClient::connect(addr).unwrap();
        let resp = c2
            .query("select k, count(*) as n from r group by k order by k")
            .unwrap();
        assert_eq!(resp.status, "OK 5 2");

        stop.store(true, Ordering::Release);
        serve_handle.join().unwrap().unwrap();
    }

    /// Tentpole: `.timeout <ms>` installs a per-statement deadline.  A query
    /// that blows the deadline comes back as a typed `ERR cancelled:` on a
    /// connection that stays open, and the cancellation is counted in
    /// `.stats`.  `.timeout 0` clears the deadline.
    #[test]
    fn timeout_command_cancels_a_long_query_with_a_typed_error() {
        // Big enough that scanning it takes well over the 1ms deadline.
        let server = Server::new(catalog_sized(400_000), ServerConfig::default()).unwrap();
        let (addr, stop, serve_handle) = start(&server);

        let mut client = WireClient::connect(addr).unwrap();
        let resp = client.request(".timeout 1").unwrap();
        assert_eq!(resp.status, "OK timeout 1");

        let err = client
            .request("select k, sum(v) as sv, count(*) as n from r group by k order by k")
            .unwrap();
        assert!(err.status.starts_with("ERR cancelled:"), "{}", err.status);

        // The connection survived the cancellation; clearing the deadline
        // lets the same query finish.
        let resp = client.request(".timeout 0").unwrap();
        assert_eq!(resp.status, "OK timeout off");
        let ok = client
            .query("select k, sum(v) as sv, count(*) as n from r group by k order by k")
            .unwrap();
        assert_eq!(ok.rows().len(), 5);

        assert!(server.queries_cancelled() >= 1);
        let stats = client.request(".stats").unwrap();
        assert!(
            stats
                .lines
                .iter()
                .any(|l| l.starts_with("queries_cancelled=") && l != "queries_cancelled=0"),
            "{:?}",
            stats.lines
        );

        // Bad arguments are typed errors, not dropped connections.
        let err = client.request(".timeout soon").unwrap();
        assert!(err.status.starts_with("ERR parse:"), "{}", err.status);
        let err = client.request(".timeout").unwrap();
        assert!(err.status.starts_with("ERR unsupported:"), "{}", err.status);

        stop.store(true, Ordering::Release);
        serve_handle.join().unwrap().unwrap();
    }

    /// Tentpole: shutdown drains in-flight queries by cancelling them.  A
    /// client mid-query during stop gets a typed `ERR cancelled:` response
    /// (not a dropped connection), and serve() returns promptly.
    #[test]
    fn shutdown_drains_in_flight_queries_with_cancellation() {
        let server = Server::new(catalog_sized(400_000), ServerConfig::default()).unwrap();
        let (addr, stop, serve_handle) = start(&server);

        // Warm the plan cache so the in-flight request below spends its time
        // executing (cancellable) rather than planning (not), and reuse the
        // same already-accepted connection for the in-flight statement (a
        // fresh connect could race the accept loop against the stop flag).
        let mut client = WireClient::connect(addr).unwrap();
        client
            .query("select k, sum(v) as sv, count(*) as n from r group by k order by k")
            .unwrap();

        let client_thread = std::thread::spawn(move || {
            client.request("select k, sum(v) as sv, count(*) as n from r group by k order by k")
        });
        // Let the statement get in flight, then stop the server.
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Release);
        serve_handle.join().unwrap().unwrap();

        let resp = client_thread.join().unwrap();
        match resp {
            Ok(resp) => {
                // Either the query finished just before the drain, or it was
                // cancelled with a typed error; both keep the protocol intact.
                assert!(
                    resp.status.starts_with("OK") || resp.status.starts_with("ERR cancelled:"),
                    "{}",
                    resp.status
                );
            }
            Err(e) => panic!("drain must answer, not drop the connection: {e}"),
        }
    }
}
