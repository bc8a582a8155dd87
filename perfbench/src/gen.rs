//! The load generator: closed-loop TLS 1.2 clients that drive one
//! workload's connection shape over the server's virtual listener and
//! check every response.

use crate::spans::SpanLog;
use qtls_crypto::ecc::NamedCurve;
use qtls_server::net::{SockError, VListener, VSocket};
use qtls_tls::client::{ClientSession, ResumeData};
use qtls_tls::provider::CryptoProvider;
use qtls_tls::suite::CipherSuite;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-connection deadline; a connection past it counts as failed.
pub const CONN_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Handshake,
    Resume,
    Bulk,
}

/// What one client connection does.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Object fetched by every request.
    pub path: &'static str,
    /// Its body length, which every response must carry byte-exact.
    pub body_len: usize,
    /// Keep-alive requests per connection; the last one closes.
    pub requests: usize,
    /// Resume the client's first session on every later connection.
    pub resume: bool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Handshake, Workload::Resume, Workload::Bulk];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Handshake => "handshake",
            Workload::Resume => "resume",
            Workload::Bulk => "bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            // Full TLS-RSA handshake + one small GET: RSA-2048 private
            // key offload dominates.
            Workload::Handshake => Shape {
                path: "/1kb",
                body_len: 1024,
                requests: 1,
                resume: false,
            },
            // Abbreviated handshake + one small GET: no asymmetric op,
            // so per-offload framework costs dominate.
            Workload::Resume => Shape {
                path: "/1kb",
                body_len: 1024,
                requests: 1,
                resume: true,
            },
            // One full handshake amortised over 16 x 128 KiB keep-alive
            // GETs: the batched record data plane dominates.
            Workload::Bulk => Shape {
                path: "/128kb",
                body_len: 128 * 1024,
                requests: 16,
                resume: false,
            },
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The TLS session seed of a client's `conn`-th connection, derived from
/// the workload seed alone: one workload seed always yields the same
/// sequence, which is everything the server receives as input.
pub fn client_seed(workload_seed: u64, client: usize, conn: u64) -> u64 {
    splitmix64(splitmix64(workload_seed ^ ((client as u64) << 56)).wrapping_add(conn))
}

/// What a connection produced before it ended or failed.
#[derive(Default)]
pub struct ConnRecord {
    /// Request write -> full response, seconds, per completed request.
    pub req_s: Vec<f64>,
    /// Response body bytes received and verified.
    pub body_bytes: u64,
    /// The handshake was abbreviated.
    pub resumed: bool,
    /// Session state for resuming later connections.
    pub resume_out: Option<ResumeData>,
}

/// One client connection on the wire, with optional span recording.
struct Client<'a> {
    sock: VSocket,
    session: ClientSession,
    deadline: Instant,
    trace: Option<(&'a mut SpanLog, usize, u64)>,
}

impl Client<'_> {
    /// One pump turn: flush client output, feed whatever arrived.
    /// Returns whether anything moved.
    fn turn(&mut self) -> Result<bool, String> {
        let t0 = self.trace.as_ref().map(|(log, ..)| log.now_ns());
        let mut moved = false;
        let out = self.session.take_output();
        if !out.is_empty() {
            self.sock.write(&out).map_err(|e| format!("write: {e:?}"))?;
            moved = true;
        }
        match self.sock.read_all() {
            Ok(bytes) => {
                self.session.feed(&bytes);
                self.session
                    .process()
                    .map_err(|e| format!("client TLS: {e:?}"))?;
                moved = true;
            }
            Err(SockError::WouldBlock) => {}
            Err(SockError::Closed) => return Err("server closed the connection".into()),
        }
        if let (Some(start_ns), Some((log, root, conn))) = (t0, self.trace.as_mut()) {
            if moved {
                let end_ns = log.now_ns();
                log.push(crate::spans::Span {
                    name: "gen.client_tls",
                    start_ns,
                    end_ns,
                    parent: Some(*root),
                    conn: *conn,
                });
            }
        }
        if Instant::now() > self.deadline {
            return Err("connection timed out".into());
        }
        Ok(moved)
    }
}

fn content_length(head: &str) -> Option<usize> {
    head.split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
}

/// Total length of the first response in `buf`, once its head is in.
fn response_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    Some(head_end + 4 + content_length(head).unwrap_or(0))
}

/// Check one complete response: status 200, the expected length, and a
/// body byte-equal to the object the server must serve. Returns the
/// response's length in `buf`.
pub fn check_response(buf: &[u8], body: &[u8]) -> Result<usize, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Err("response has no header terminator".into());
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    if !head.starts_with("HTTP/1.1 200 ") {
        return Err(format!("unexpected status line {:?}", head.lines().next()));
    }
    let len = content_length(head).ok_or("missing Content-Length")?;
    if len != body.len() {
        return Err(format!("Content-Length {len}, expected {}", body.len()));
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Err("response shorter than its Content-Length".into());
    }
    if &buf[head_end + 4..total] != body {
        return Err("response body differs from the served object".into());
    }
    Ok(total)
}

/// Run one connection of `shape`: connect, handshake (resuming `resume`
/// when given), the shape's requests, close. `idle` runs whenever a pump
/// turn moves nothing — a yield for a client facing a server thread, or
/// one server iteration when the server is driven in-thread. With
/// `trace`, the connection is a `gen.conn` span whose children are the
/// connect, client TLS work and response checks; its self time is the
/// generator's wait.
#[allow(clippy::too_many_arguments)]
pub fn run_conn(
    listener: &VListener,
    shape: &Shape,
    body: &[u8],
    seed: u64,
    resume: Option<ResumeData>,
    rec: &mut ConnRecord,
    idle: &mut dyn FnMut(),
    trace: Option<(&mut SpanLog, u64)>,
) -> Result<(), String> {
    let offered = resume.is_some();
    let mut trace = trace.map(|(log, conn)| {
        let root = log.begin("gen.conn", None, conn);
        (log, root, conn)
    });
    let connect = |resume| -> Result<(VSocket, ClientSession), String> {
        let sock = listener.connect();
        let mut session = ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::TlsRsa,
            NamedCurve::P256,
            resume,
            seed,
        );
        session
            .start()
            .map_err(|e| format!("client hello: {e:?}"))?;
        Ok((sock, session))
    };
    let (sock, session) = match trace.as_mut() {
        Some((log, root, conn)) => log.time("gen.connect", Some(*root), *conn, || connect(resume)),
        None => connect(resume),
    }?;
    let mut client = Client {
        sock,
        session,
        deadline: Instant::now() + CONN_TIMEOUT,
        trace,
    };
    let result = drive(&mut client, shape, body, offered, rec, idle);
    client.sock.close();
    if let Some((log, root, _)) = client.trace.as_mut() {
        log.end(*root);
    }
    result
}

fn drive(
    client: &mut Client,
    shape: &Shape,
    body: &[u8],
    offered: bool,
    rec: &mut ConnRecord,
    idle: &mut dyn FnMut(),
) -> Result<(), String> {
    while !client.session.is_established() {
        if !client.turn()? {
            idle();
        }
    }
    rec.resumed = client.session.was_resumed();
    if offered && !rec.resumed {
        return Err("resumption offered but the server ran a full handshake".into());
    }
    rec.resume_out = client.session.export_resume_data();
    let mut buf: Vec<u8> = Vec::new();
    for i in 0..shape.requests {
        let last = i + 1 == shape.requests;
        let req = format!(
            "GET {} HTTP/1.1\r\nHost: qtls\r\nConnection: {}\r\n\r\n",
            shape.path,
            if last { "close" } else { "keep-alive" }
        );
        let t0 = Instant::now();
        client
            .session
            .write_app_data(req.as_bytes())
            .map_err(|e| format!("write request: {e:?}"))?;
        loop {
            let moved = client.turn()?;
            while let Some(chunk) = client.session.read_app_data() {
                buf.extend_from_slice(&chunk);
            }
            if response_len(&buf).is_some_and(|total| buf.len() >= total) {
                break;
            }
            if !moved {
                idle();
            }
        }
        let done = t0.elapsed().as_secs_f64();
        let used = match client.trace.as_mut() {
            Some((log, root, conn)) => log.time("gen.check", Some(*root), *conn, || {
                check_response(&buf, body)
            }),
            None => check_response(&buf, body),
        }?;
        buf.drain(..used);
        rec.req_s.push(done);
        rec.body_bytes += shape.body_len as u64;
    }
    if !buf.is_empty() {
        return Err("bytes after the last response".into());
    }
    Ok(())
}

/// What one generator thread measured.
#[derive(Default)]
pub struct GenOut {
    /// Connect -> last response byte -> close, seconds; `+inf` if failed.
    pub conn_s: Vec<f64>,
    /// Request latencies, seconds; `+inf` for each request a failed
    /// connection did not complete.
    pub req_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub requests: u64,
    pub body_bytes: u64,
    pub resumed: u64,
    /// First few failure reasons, for the diagnostic on stderr.
    pub errors: Vec<String>,
    pub spans: Option<SpanLog>,
}

impl GenOut {
    pub fn merge(&mut self, other: GenOut) {
        self.conn_s.extend(other.conn_s);
        self.req_s.extend(other.req_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.requests += other.requests;
        self.body_bytes += other.body_bytes;
        self.resumed += other.resumed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
        match (self.spans.as_mut(), other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, theirs) => self.spans = theirs,
            _ => {}
        }
    }
}

/// One closed-loop client: connections back to back until `stop`.
/// Connection numbers start at `first_conn` (earlier ones were the
/// warm-up). With `epoch`, every connection is recorded as spans.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    listener: &VListener,
    workload: Workload,
    workload_seed: u64,
    client: usize,
    first_conn: u64,
    resume: Option<ResumeData>,
    stop: &AtomicBool,
    epoch: Option<Instant>,
) -> GenOut {
    let shape = workload.shape();
    let body = qtls_server::http::synthetic_body(shape.body_len);
    let mut out = GenOut {
        spans: epoch.map(SpanLog::new),
        ..GenOut::default()
    };
    let mut conn = first_conn;
    while !stop.load(Ordering::Relaxed) {
        let seed = client_seed(workload_seed, client, conn);
        let conn_id = ((client as u64) << 32) | conn;
        conn += 1;
        let mut rec = ConnRecord::default();
        let t0 = Instant::now();
        let result = run_conn(
            listener,
            &shape,
            &body,
            seed,
            if shape.resume { resume.clone() } else { None },
            &mut rec,
            &mut std::thread::yield_now,
            out.spans.as_mut().map(|log| (log, conn_id)),
        );
        let elapsed = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        out.requests += rec.req_s.len() as u64;
        out.body_bytes += rec.body_bytes;
        out.resumed += u64::from(rec.resumed);
        let completed = rec.req_s.len();
        out.req_s.extend(rec.req_s);
        match result {
            Ok(()) => out.conn_s.push(elapsed),
            Err(why) => {
                out.failed += 1;
                out.conn_s.push(f64::INFINITY);
                out.req_s.extend(std::iter::repeat_n(
                    f64::INFINITY,
                    shape.requests - completed,
                ));
                if out.errors.len() < 8 {
                    out.errors.push(why);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_client_seed_sequence() {
        let seq = |seed: u64, client: usize| -> Vec<u64> {
            (0..64).map(|c| client_seed(seed, client, c)).collect()
        };
        assert_eq!(seq(7, 0), seq(7, 0));
        assert_eq!(seq(7, 1), seq(7, 1));
        assert_ne!(seq(7, 0), seq(8, 0), "another workload seed, other inputs");
        let mut all: Vec<u64> = seq(7, 0).into_iter().chain(seq(7, 1)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 128, "clients and connections never share a seed");
    }

    #[test]
    fn response_check_demands_status_length_and_bytes() {
        let body = qtls_server::http::synthetic_body(1024);
        let ok = qtls_server::http::build_response(200, "OK", &body, true);
        assert_eq!(check_response(&ok, &body), Ok(ok.len()));
        let not_found = qtls_server::http::build_response(404, "Not Found", &body, true);
        assert!(check_response(&not_found, &body).is_err());
        let mut flipped = ok.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(check_response(&flipped, &body).is_err());
        let short = qtls_server::http::build_response(200, "OK", &body[..1000], true);
        assert!(check_response(&short, &body).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
