//! A keep-alive HTTP/1.1 client with one request in flight, for the
//! `cold_http` workload.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How a request failed, by the class the report counts it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `429`: shed by admission control.
    Shed,
    /// `504`: the engine missed the per-request deadline.
    Timeout,
    /// Any other non-2xx status.
    Status,
    /// Connect, write or read failed, or the reply was not HTTP.
    Transport,
}

impl Failure {
    pub fn class(self) -> &'static str {
        match self {
            Failure::Shed => "http_429",
            Failure::Timeout => "http_504",
            Failure::Status => "http_other_non2xx",
            Failure::Transport => "transport",
        }
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    last_used: Instant,
}

pub struct Client {
    addr: SocketAddr,
    /// A connection idle longer than this is replaced before sending, so
    /// a request never goes out on a socket the server has already closed
    /// for idleness.
    max_idle: Duration,
    conn: Option<Connection>,
    pub connects: u64,
}

impl Client {
    /// `server_idle_timeout` is the server's keep-alive idle timeout; the
    /// client reconnects once half of it has passed.
    pub fn new(addr: SocketAddr, server_idle_timeout: Duration) -> Self {
        Self {
            addr,
            max_idle: server_idle_timeout / 2,
            conn: None,
            connects: 0,
        }
    }

    fn connection(&mut self) -> std::io::Result<&mut Connection> {
        let stale = self
            .conn
            .as_ref()
            .is_some_and(|c| c.last_used.elapsed() > self.max_idle);
        if stale || self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.connects += 1;
            self.conn = Some(Connection {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
                last_used: Instant::now(),
            });
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// Opens the connection ahead of the first request.
    pub fn connect(&mut self) -> std::io::Result<()> {
        self.connection().map(|_| ())
    }

    /// POSTs `body` to `path` and returns the reply body of a 2xx answer.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Vec<u8>, Failure> {
        let result = self.exchange(path, body);
        match &result {
            Ok((_, keep_alive)) if *keep_alive => {
                if let Some(conn) = self.conn.as_mut() {
                    conn.last_used = Instant::now();
                }
            }
            // Closed by the server, or the stream is out of sync.
            _ => self.conn = None,
        }
        let (reply, _) = result.map_err(|_| Failure::Transport)?;
        match reply.0 {
            200..=299 => Ok(reply.1),
            429 => Err(Failure::Shed),
            504 => Err(Failure::Timeout),
            _ => Err(Failure::Status),
        }
    }

    /// One request/response exchange: `((status, body), keep_alive)`.
    #[allow(clippy::type_complexity)]
    fn exchange(&mut self, path: &str, body: &str) -> std::io::Result<((u16, Vec<u8>), bool)> {
        let addr = self.addr;
        let conn = self.connection()?;
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.writer.write_all(request.as_bytes())?;
        read_response(&mut conn.reader)
    }
}

fn read_response(reader: &mut impl BufRead) -> std::io::Result<((u16, Vec<u8>), bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers cut short"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(((status, body), keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_body_and_connection_header() {
        let wire = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}rest";
        let ((status, body), keep_alive) = read_response(&mut &wire[..]).unwrap();
        assert_eq!(
            (status, body.as_slice(), keep_alive),
            (429, &b"{}"[..], false)
        );
    }

    #[test]
    fn truncated_reply_is_an_error() {
        assert!(
            read_response(&mut &b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\n{}"[..]).is_err()
        );
        assert!(read_response(&mut &b""[..]).is_err());
    }
}
