//! A minimal HTTP/1.1 client: one request per connection (the servers
//! answer `Connection: close`), with a gauge of open connections so the
//! load generator can prove it never held more than two at once.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static OPEN: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Most connections this process ever held open at once.
pub fn peak_connections() -> usize {
    PEAK.load(Ordering::SeqCst)
}

struct Gauge;

impl Gauge {
    fn open() -> Gauge {
        let now = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK.fetch_max(now, Ordering::SeqCst);
        Gauge
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One parsed response.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the whole response. A response whose
/// body is shorter than its `Content-Length` is an error (torn reply).
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Reply, String> {
    let sock: SocketAddr = addr.parse().map_err(|e| format!("bad address {addr}: {e}"))?;
    let _gauge = Gauge::open();
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw).map_err(|e| format!("read {path}: {e}"))?;
    parse(&raw).ok_or_else(|| format!("{method} {path}: malformed or torn reply"))
}

fn parse(raw: &[u8]) -> Option<Reply> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    if !status_line.starts_with("HTTP/1.") {
        return None;
    }
    let status = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    let reply = Reply { status, headers, body: body.to_string() };
    match reply.header("Content-Length").map(str::parse::<usize>) {
        Some(Ok(n)) if n != reply.body.len() => None,
        Some(Err(_)) => None,
        _ => Some(reply),
    }
}
