//! The load generator's side of the rkrd wire protocol: newline-delimited
//! JSON over TCP.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rkranks_server::json::Json;

/// How long any single reply may take before it counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection with its own read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// A second handle on the socket, for a thread that only writes.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// The next reply line, waiting at most [`REPLY_TIMEOUT`].
    pub fn recv(&mut self) -> io::Result<String> {
        self.stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..pos].to_vec())
                    .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF-8 reply"));
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed by the daemon",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return Err(io::Error::new(ErrorKind::TimedOut, "reply timed out"))
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Send one request and decode a successful reply.
    pub fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.call(line).map_err(|e| format!("{line}: {e}"))?;
        parse_ok(&reply).map_err(|e| format!("{line}: {e}"))
    }
}

/// Decode a reply line, turning `{"ok":false,...}` into its error text.
pub fn parse_ok(line: &str) -> Result<Json, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed reply ({e}): {line}"))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        _ => Err(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("reply without \"ok\":true")
            .to_string()),
    }
}

/// A decoded query answer.
pub struct Answer {
    pub entries: Vec<(u32, u32)>,
    pub partial: bool,
    /// Served from the daemon's result cache.
    pub cached: bool,
    pub graph_epoch: u64,
}

pub fn parse_answer(line: &str) -> Result<Answer, String> {
    let v = parse_ok(line)?;
    let entries = v
        .get("result")
        .and_then(Json::as_arr)
        .ok_or("query reply without a result")?
        .iter()
        .map(|pair| {
            let p = pair.as_arr().filter(|p| p.len() == 2)?;
            Some((p[0].as_u32()?, p[1].as_u32()?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed result entry")?;
    Ok(Answer {
        entries,
        partial: v.get("partial").and_then(Json::as_bool).unwrap_or(false),
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        graph_epoch: v.get("graph_epoch").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// The request line for one query. `strategy: None` uses the daemon's
/// default (the snapshot-indexed search); `cache: false` bypasses the
/// result cache.
pub fn query_line(node: u32, k: u32, strategy: Option<&str>, cache: bool) -> String {
    let mut line = format!("{{\"op\":\"query\",\"node\":{node},\"k\":{k}");
    if let Some(s) = strategy {
        line.push_str(&format!(",\"strategy\":\"{s}\""));
    }
    if !cache {
        line.push_str(",\"cache\":false");
    }
    line.push('}');
    line
}
