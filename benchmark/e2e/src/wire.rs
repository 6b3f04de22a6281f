//! The benchmark's own client for the server's line protocol: one request
//! per line, a reply of `OK ...`/`ERR ...` plus body lines up to a lone `.`.
//!
//! A plain `TcpStream` with client-side `TCP_NODELAY` and nothing else: no
//! quick-ack or other socket trick that would hide a server-side stall.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A statement that has no reply after this long counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `OK ...` or `ERR ...`.
    pub status: String,
    /// Body lines; for a query, the header line then one line per row.
    pub lines: Vec<String>,
    /// Bytes on the wire, terminator included.
    pub bytes: usize,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// Row lines of a query reply (the body minus its header line).
    pub fn rows(&self) -> &[String] {
        self.lines.get(1..).unwrap_or(&[])
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read the reply through its terminator.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = Reply {
            status: String::new(),
            lines: Vec::new(),
            bytes: 0,
        };
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            reply.bytes += n;
            let text = buf.trim_end_matches(['\r', '\n']);
            if reply.status.is_empty() {
                reply.status = text.to_string();
            } else if text == "." {
                return Ok(reply);
            } else {
                reply.lines.push(text.to_string());
            }
        }
    }
}

/// Whether `got` is the same answer as `want`: same status line, same rows
/// in the same order, numeric cells equal to a relative 1e-6.  The header
/// line is skipped because an alias renames it.
pub fn same_answer(want: &Reply, got: &Reply) -> bool {
    want.status == got.status
        && want.rows().len() == got.rows().len()
        && want.rows().iter().zip(got.rows()).all(|(w, g)| {
            let (w, g): (Vec<&str>, Vec<&str>) = (w.split('\t').collect(), g.split('\t').collect());
            w.len() == g.len() && w.iter().zip(&g).all(|(w, g)| same_cell(w, g))
        })
}

fn same_cell(want: &str, got: &str) -> bool {
    if want == got {
        return true;
    }
    match (want.parse::<f64>(), got.parse::<f64>()) {
        (Ok(w), Ok(g)) => (w - g).abs() <= 1e-6 * w.abs().max(g.abs()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A listener that answers each request line with the next canned reply.
    fn stub(
        replies: &'static [&'static str],
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut seen = Vec::new();
            for reply in replies {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                seen.push(line.trim_end().to_string());
                writer.write_all(reply.as_bytes()).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn round_trips_ok_err_and_multi_row_replies() {
        let (addr, server) = stub(&[
            "OK engine vm\n.\n",
            "ERR parse: unexpected token\n.\n",
            "OK 2 2\nk\tn\n0\t20\n1\t21.5\n.\n",
        ]);
        let mut client = Client::connect(addr).unwrap();

        let ok = client.request(".engine vm").unwrap();
        assert!(ok.is_ok() && ok.lines.is_empty() && ok.rows().is_empty());

        let err = client.request("selec").unwrap();
        assert!(!err.is_ok());
        assert_eq!(err.status, "ERR parse: unexpected token");

        let rows = client.request("select k, n from r").unwrap();
        assert_eq!(rows.status, "OK 2 2");
        assert_eq!(rows.rows(), ["0\t20", "1\t21.5"]);
        assert_eq!(rows.bytes, "OK 2 2\nk\tn\n0\t20\n1\t21.5\n.\n".len());

        drop(client);
        assert_eq!(
            server.join().unwrap(),
            [".engine vm", "selec", "select k, n from r"]
        );
    }

    #[test]
    fn closed_connection_is_an_error_not_a_reply() {
        let (addr, server) = stub(&["OK 1 1\nk\n"]);
        let mut client = Client::connect(addr).unwrap();
        assert!(client.request("select k from r").is_err());
        server.join().unwrap();
    }

    fn reply(status: &str, lines: &[&str]) -> Reply {
        Reply {
            status: status.to_string(),
            lines: lines.iter().map(|l| l.to_string()).collect(),
            bytes: 0,
        }
    }

    #[test]
    fn answers_compare_by_rows_with_float_tolerance() {
        let want = reply("OK 2 2", &["ref\tbal", "A\t100.0000001", "B\t7"]);
        assert!(same_answer(
            &want,
            &reply("OK 2 2", &["c0x9\tbal", "A\t100.0", "B\t7"])
        ));
        assert!(!same_answer(
            &want,
            &reply("OK 2 2", &["ref\tbal", "B\t7", "A\t100.0"])
        ));
        assert!(!same_answer(
            &want,
            &reply("OK 2 2", &["ref\tbal", "A\t100.1", "B\t7"])
        ));
        assert!(!same_answer(
            &want,
            &reply("OK 1 2", &["ref\tbal", "A\t100.0"])
        ));
        assert!(!same_answer(&want, &reply("ERR execution: boom", &[])));
    }
}
