//! The one HTTP/1.1 layer under `cfserve` ([`crate::StatusServer`]),
//! `cfrouter` ([`crate::RouterServer`]) and the byte-level
//! [`crate::FaultProxy`]: each of them keeps only its routing and builds
//! on the same four parts.
//!
//! * **Server.** [`Server`] binds `127.0.0.1`, blocks in `accept`, and
//!   hands each connection to its own thread, so a long-poll never
//!   blocks a probe. Nothing polls: shutdown wakes the blocking accept
//!   with a self-connect, stops accepting, and waits until every
//!   connection already accepted has written its response.
//! * **Request reader.** [`read_request`] accumulates socket reads
//!   through [`api::parse_request`] under one per-read timeout and one
//!   total deadline, and hands back the parsed request together with
//!   the exact bytes read (the fault proxy forwards those verbatim).
//! * **Response writer.** [`Response::write_to`] is the only place that
//!   writes a response head. It always stamps `Content-Length`,
//!   `Connection: close` and the `X-CF-Digest` FNV-1a of the body, so
//!   every answer — parse errors included — can be held to one
//!   integrity check (DESIGN.md §11).
//! * **Client.** The [`Connector`] seam, the plain [`TcpConnector`]
//!   dialer, the hedging [`CancelSlot`], and [`parse_reply`] /
//!   [`digest_ok`] over the raw bytes. Parsing sits above the seam so a
//!   decorator ([`crate::netfault::FaultConnector`]) can mangle bytes
//!   exactly like a lying network would.
//!
//! Every exchange is one request per connection: the server closes after
//! its response, which frames the body for read-to-EOF clients and lets
//! [`parse_reply`] detect a torn reply by its short `Content-Length`.
//! See DESIGN.md §8–§11.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::api::{self, HttpParseError, HttpRequest};
use crate::fault::fnv1a;
use crate::serve::json_str;
use crate::sync;

/// Per-read/write socket timeout on accepted connections: a stalled
/// peer must not wedge a connection thread forever.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Total time a client gets to deliver one complete request.
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// How long shutdown waits for its wake-up self-connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long the accept loop waits for a connection to close after an
/// accept error (out of descriptors) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The number of connections being served, and the condition shutdown
/// waits on until it drops to zero.
#[derive(Debug, Default)]
struct Live {
    count: Mutex<usize>,
    closed: Condvar,
}

/// Counts one accepted connection as live until dropped — also when its
/// thread never spawns and the connection is dropped unanswered.
struct LiveGuard(Arc<Live>);

impl LiveGuard {
    fn new(live: &Arc<Live>) -> LiveGuard {
        *sync::lock(&live.count) += 1;
        LiveGuard(Arc::clone(live))
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        *sync::lock(&self.0.count) -= 1;
        self.0.closed.notify_all();
    }
}

/// A thread-per-connection HTTP listener on `127.0.0.1` (see the module
/// docs). Dropping it is [`shutdown`](Server::shutdown).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    live: Arc<Live>,
}

impl Server {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free port — read it back
    /// via [`local_addr`](Server::local_addr)) and starts accepting on a
    /// thread named `name`. Each accepted connection, with its read and
    /// write timeouts set, is passed to `handle` on its own thread.
    ///
    /// # Errors
    ///
    /// Any socket bind failure or thread spawn failure, unchanged.
    pub fn bind<F>(port: u16, name: &str, handle: F) -> std::io::Result<Server>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let live = Arc::new(Live::default());
        let accept = {
            let (stopping, live) = (Arc::clone(&stopping), Arc::clone(&live));
            let conn_name = format!("{name}-conn");
            thread::Builder::new().name(name.to_string()).spawn(move || {
                accept_loop(&listener, &conn_name, &stopping, &live, Arc::new(handle));
            })?
        };
        Ok(Server { addr, stopping, accept: Some(accept), live })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and returns once every connection already
    /// accepted has finished its response (also done on drop).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept: it sees the flag and returns,
        // closing the listener. Without the wake-up the thread cannot
        // be joined, so it is left to exit on its next accept.
        if TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT).is_ok() {
            let _ = accept.join();
        }
        let mut live = sync::lock(&self.live.count);
        while *live > 0 {
            live = sync::wait(&self.live.closed, live);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<F>(
    listener: &TcpListener,
    conn_name: &str,
    stopping: &AtomicBool,
    live: &Arc<Live>,
    handle: Arc<F>,
) where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    loop {
        let accepted = listener.accept();
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let guard = LiveGuard::new(live);
                let handle = Arc::clone(&handle);
                // A failed spawn drops the closure, which closes the
                // connection and releases its guard.
                let _ = thread::Builder::new().name(conn_name.to_string()).spawn(move || {
                    let _guard = guard;
                    let timeouts = stream
                        .set_read_timeout(Some(IO_TIMEOUT))
                        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
                    if timeouts.is_ok() {
                        handle(stream);
                    }
                });
            }
            // Out of descriptors (or a peer that reset before we got to
            // it): a closing connection frees a descriptor, so wait for
            // one instead of spinning on the error.
            Err(_) => drop(sync::wait_timeout(&live.closed, sync::lock(&live.count), ACCEPT_RETRY)),
        }
    }
}

// ---------------------------------------------------------------------------
// Request reader
// ---------------------------------------------------------------------------

/// Reads one complete request off `stream` through
/// [`api::parse_request`], returning it together with every byte read.
/// `Ok(None)` is a connection that closed or idled without sending a
/// byte (a port probe, or [`Server`]'s own wake-up connect); a request
/// that stalls, truncates or runs past the deadline is
/// [`HttpParseError::BadRequestLine`].
///
/// # Errors
///
/// See [`HttpParseError`]; [`Response::rejected`] is the answer.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
) -> Result<Option<(HttpRequest, Vec<u8>)>, HttpParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + READ_DEADLINE;
    loop {
        if let Some(request) = api::parse_request(&buf, max_body)? {
            return Ok(Some((request, buf)));
        }
        if Instant::now() > deadline {
            return Err(HttpParseError::BadRequestLine);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) if buf.is_empty() => return Ok(None),
            Ok(0) | Err(_) => return Err(HttpParseError::BadRequestLine),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Serves one connection: reads one request bounded by `max_body`, lets
/// `route` answer it, and writes the answer. `route` also sees a request
/// that failed to parse (so a server can log it) and normally answers
/// that with [`Response::rejected`]. A connection that sends nothing
/// gets nothing back.
pub fn serve(
    mut stream: TcpStream,
    max_body: usize,
    route: impl FnOnce(Result<&HttpRequest, HttpParseError>) -> Response,
) {
    let response = match read_request(&mut stream, max_body) {
        Ok(Some((request, _))) => route(Ok(&request)),
        Ok(None) => return,
        Err(e) => route(Err(e)),
    };
    let _ = response.write_to(&mut stream);
}

// ---------------------------------------------------------------------------
// Response writer
// ---------------------------------------------------------------------------

/// The reason phrase of every status this stack answers with; `None`
/// for any other code.
pub fn reason(status: u16) -> Option<&'static str> {
    Some(match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => return None,
    })
}

const JSON: &str = "application/json";

/// The content type Prometheus' text parser expects.
pub const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One response, ready to write (see [`Response::write_to`]).
#[derive(Debug)]
pub struct Response {
    /// The status code (the reason phrase comes from [`reason`]).
    pub status: u16,
    /// The `Content-Type` header.
    pub content_type: &'static str,
    /// Further headers: `Allow` on a `405`, `Retry-After` on a shed,
    /// `X-CF-Trace` and `X-CF-Attribution` (trace identity and latency
    /// attribution ride as headers only, so record bodies stay
    /// byte-identical).
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response { status, content_type: JSON, headers: Vec::new(), body }
    }

    /// A `{"error":…}` JSON response.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_str(message)))
    }

    /// A `405` naming the one method the route accepts.
    pub fn not_allowed(allow: &'static str, message: &str) -> Response {
        Response::error(405, message).with("Allow", allow.to_string())
    }

    /// The response with one more header.
    pub fn with(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// The `400`/`413` answer to a request that did not parse.
    pub fn rejected(e: &HttpParseError) -> Response {
        Response::error(e.status(), &e.to_string())
    }

    /// Writes the head and body in one write. The head always carries
    /// `Content-Length`, `Connection: close` and `X-CF-Digest`, then
    /// [`headers`](Response::headers) in order.
    ///
    /// # Errors
    ///
    /// Socket write failures, unchanged.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\nX-CF-Digest: {:016x}\r\n",
            self.status,
            reason(self.status).unwrap_or("Unknown"),
            self.content_type,
            self.body.len(),
            fnv1a(self.body.as_bytes()),
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        out.write_all(&bytes)?;
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One parsed reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, cut to the declared `Content-Length`.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as text (invalid UTF-8 replaced).
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A handle the hedging path uses to abort the losing request: the
/// in-flight stream is registered here, and cancelling shuts it down so
/// the loser unblocks instead of riding out its read timeout. A fault
/// decorator just passes it through to the real dialer.
#[derive(Debug, Default)]
pub struct CancelSlot {
    stream: Mutex<Option<TcpStream>>,
    cancelled: AtomicBool,
}

impl CancelSlot {
    fn arm(&self, stream: &TcpStream) {
        let clone = stream.try_clone().ok();
        *sync::lock(&self.stream) = clone;
        if self.cancelled.load(Ordering::SeqCst) {
            self.cancel();
        }
    }

    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        if let Some(s) = sync::lock(&self.stream).take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The client's wire seam: one blocking HTTP/1.1 exchange returning the
/// **raw response bytes** (parsing happens above the seam, so a
/// decorator — [`crate::netfault::FaultConnector`] — can refuse, delay,
/// tear, garble, or corrupt at the byte level exactly like a real
/// network would).
pub trait Connector: Send + Sync + std::fmt::Debug {
    /// Dials `addr`, writes `raw`, reads the response to EOF (the peer
    /// closes the connection after its response, which frames the
    /// body). `cancel`, when present, lets a hedging caller abort the
    /// exchange mid-flight.
    ///
    /// # Errors
    ///
    /// Connect/read/write failures, unchanged from the socket layer.
    fn exchange(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>>;
}

/// The real dialer: plain blocking TCP, no faults.
#[derive(Debug, Default)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    fn exchange(
        &self,
        addr: &str,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
        cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>> {
        let sock: SocketAddr = addr.parse().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{addr}: {e}"))
        })?;
        let mut stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(connect_timeout))?;
        if let Some(slot) = cancel {
            slot.arm(&stream);
        }
        stream.write_all(raw)?;
        let mut bytes = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => bytes.extend_from_slice(&chunk[..n]),
                Err(e) => {
                    if bytes.is_empty() {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(bytes)
    }
}

/// Parses raw reply bytes, holding the peer to its declared
/// `Content-Length`.
///
/// # Errors
///
/// `InvalidData` for a truncated head, a status line that does not lead
/// with `HTTP/`, or a body shorter than its `Content-Length` (a torn
/// reply).
pub fn parse_reply(bytes: &[u8]) -> std::io::Result<Reply> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end =
        bytes.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("truncated reply"))?;
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| bad("non-UTF-8 reply head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty reply"))?;
    // A real peer always leads with the protocol version; anything else
    // is line noise (a garbled status line must not parse as a reply).
    if !status_line.starts_with("HTTP/") {
        return Err(bad("malformed status line"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_string(), v.trim().to_string()))
        .collect();
    let mut reply = Reply { status, headers, body: bytes[head_end + 4..].to_vec() };
    // Read-to-EOF framing cannot tell a complete body from a torn one
    // on its own — hold the peer to its declared Content-Length.
    if let Some(declared) = reply.header("content-length").and_then(|v| v.parse::<usize>().ok()) {
        if reply.body.len() < declared {
            return Err(bad("torn reply: body shorter than Content-Length"));
        }
        reply.body.truncate(declared);
    }
    Ok(reply)
}

/// Whether the reply's `X-CF-Digest` header (when present) matches its
/// body bytes. Replies without the header pass — the check is for peers
/// that stamp it (every [`Response`] does).
pub fn digest_ok(reply: &Reply) -> bool {
    match reply.header("x-cf-digest") {
        Some(h) => {
            u64::from_str_radix(h.trim(), 16).map(|d| d == fnv1a(&reply.body)).unwrap_or(false)
        }
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const T: Duration = Duration::from_secs(5);

    fn get(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Reply> {
        parse_reply(&TcpConnector.exchange(&addr.to_string(), raw, T, T, None)?)
    }

    #[test]
    fn every_answer_carries_length_close_and_digest() {
        let server = Server::bind(0, "t-http", |stream| {
            serve(stream, 16, |request| match request {
                Ok(r) if r.path() == "/busy" => {
                    Response::error(503, "busy").with("Retry-After", "3".to_string())
                }
                Ok(r) => Response::json(200, format!("{{\"path\":{}}}", json_str(r.path()))),
                Err(e) => Response::rejected(&e),
            });
        })
        .unwrap();
        let addr = server.local_addr();
        for (raw, status) in [
            (&b"GET /x HTTP/1.1\r\n\r\n"[..], 200),
            (b"GET /busy HTTP/1.1\r\n\r\n", 503),
            (b"garbage\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n", 413),
        ] {
            let reply = get(addr, raw).unwrap();
            assert_eq!(reply.status, status, "{}", reply.text());
            assert!(reply.header("x-cf-digest").is_some(), "{reply:?}");
            assert!(digest_ok(&reply), "{reply:?}");
            assert_eq!(reply.header("connection"), Some("close"));
            assert_eq!(reply.header("content-length"), Some(reply.body.len().to_string().as_str()));
        }
        assert_eq!(
            get(addr, b"GET /busy HTTP/1.1\r\n\r\n").unwrap().header("retry-after"),
            Some("3")
        );
        // A connect-and-close probe gets no answer and breaks nothing.
        drop(TcpStream::connect(addr).unwrap());
        assert_eq!(get(addr, b"GET /x HTTP/1.1\r\n\r\n").unwrap().text(), "{\"path\":\"/x\"}");
        server.shutdown();
    }

    #[test]
    fn shutdown_lets_accepted_requests_finish_then_refuses() {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new((entered_tx, release_rx));
        let server = Server::bind(0, "t-http", move |stream| {
            serve(stream, 1024, |_| {
                let gate = sync::lock(&gate);
                let _ = gate.0.send(());
                let _ = gate.1.recv();
                Response::json(200, "{\"done\":true}".to_string())
            });
        })
        .unwrap();
        let addr = server.local_addr();
        let client = thread::spawn(move || get(addr, b"GET /slow HTTP/1.1\r\n\r\n"));
        entered_rx.recv().unwrap();

        // Shutdown must not return while the accepted request is being
        // answered ...
        let stopper = thread::spawn(move || server.shutdown());
        thread::sleep(Duration::from_millis(100));
        assert!(!stopper.is_finished(), "shutdown returned with a request in flight");
        // ... and the request gets its whole response.
        release_tx.send(()).unwrap();
        stopper.join().unwrap();
        let reply = client.join().unwrap().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.text(), "{\"done\":true}");
        assert!(digest_ok(&reply));
        // Once shut down, nothing accepts any more.
        assert!(TcpStream::connect(addr).is_err(), "listener still open after shutdown");
    }

    #[test]
    fn parse_reply_rejects_garbage_and_torn_bodies() {
        // Garbled status line: not a reply at all.
        assert!(parse_reply(b"GARBAGE! 200 OK\r\nContent-Length: 2\r\n\r\n{}").is_err());
        // Body shorter than the declared Content-Length: torn.
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}").is_err());
        assert!(parse_reply(b"HTTP/1.1 200").is_err());
        // Trailing bytes past Content-Length are dropped, not trusted.
        let r = parse_reply(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\n{}junk")
            .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("7"));
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn digest_header_verifies_the_body() {
        let body = b"{\"id\":0}".to_vec();
        let stamped = |digest: u64| Reply {
            status: 202,
            headers: vec![("X-CF-Digest".to_string(), format!("{digest:016x}"))],
            body: body.clone(),
        };
        assert!(digest_ok(&stamped(fnv1a(&body))));
        assert!(!digest_ok(&stamped(fnv1a(&body) ^ 1)));
        let unstamped = Reply { status: 202, headers: Vec::new(), body: body.clone() };
        assert!(digest_ok(&unstamped), "plain upstreams without the header still pass");
        assert_eq!(reason(202), Some("Accepted"));
        assert_eq!(reason(999), None);
    }
}
