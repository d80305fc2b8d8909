//! A hand-rolled HTTP/1.1 subset over blocking `std::net` sockets.
//!
//! Exactly the slice of the protocol the gateway needs, and nothing more:
//! `GET`/`POST`, `Content-Length` bodies (no chunked encoding, no trailers,
//! no 100-continue), keep-alive connections, and byte-exact bodies. The
//! grammar is documented in DESIGN.md §12; anything outside it is rejected
//! with `InvalidData` so the caller can answer `400` and close.
//!
//! Reads poll with a short socket timeout so a blocked connection notices a
//! gateway shutdown instead of pinning its thread forever.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method token, uppercase (`GET`, `POST`).
    pub method: String,
    /// Request target as sent (no query parsing; the gateway routes on the
    /// whole path).
    pub path: String,
    /// Header name/value pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (give it lowercased), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Pulls more bytes from `stream` into `carry`, polling through read
/// timeouts until data arrives, EOF, or `stop` is raised. Returns the bytes
/// read (0 = EOF).
fn fill(stream: &mut TcpStream, carry: &mut Vec<u8>, stop: &AtomicBool) -> io::Result<usize> {
    let mut tmp = [0u8; 4096];
    loop {
        match stream.read(&mut tmp) {
            Ok(n) => {
                carry.extend_from_slice(&tmp[..n]);
                return Ok(n);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return Err(io::Error::other("gateway shutting down"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Extracts `Content-Length` from a lowercased header list, strictly.
///
/// Stricter than `str::parse::<usize>` on purpose: a leading `+` (which
/// `from_str` accepts) and any non-digit byte are rejected, and a repeated
/// `Content-Length` header is refused outright — mismatched copies are the
/// classic request-smuggling vector, and even matching ones signal a peer
/// whose framing cannot be trusted.
fn parse_content_length(headers: &[(String, String)]) -> io::Result<usize> {
    let mut found: Option<&str> = None;
    for (name, value) in headers {
        if name == "content-length" {
            if found.is_some() {
                return Err(invalid("duplicate content-length header"));
            }
            found = Some(value);
        }
    }
    let Some(v) = found else { return Ok(0) };
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(invalid(format!("bad content-length: {v:?}")));
    }
    v.parse::<usize>()
        .map_err(|_| invalid(format!("bad content-length: {v:?}")))
}

/// Reads one request from `stream`, carrying unconsumed bytes between calls
/// in `carry` (pipelined or keep-alive traffic parks there).
///
/// Returns `Ok(None)` on a clean EOF between requests (the peer hung up),
/// `InvalidData` on anything outside the accepted grammar, and
/// `UnexpectedEof` on a connection torn mid-request.
pub fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    max_body: usize,
    stop: &AtomicBool,
) -> io::Result<Option<Request>> {
    // Accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(end) = find_head_end(carry) {
            break end;
        }
        // `>=`, not `>`: a full 16 KiB of headless bytes can never become a
        // valid head (the terminator would have been found above), so reject
        // now — waiting for more bytes pinned the connection forever when a
        // peer sent exactly `MAX_HEAD_BYTES` and stopped.
        if carry.len() >= MAX_HEAD_BYTES {
            return Err(invalid("request head too large"));
        }
        if fill(stream, carry, stop)? == 0 {
            if carry.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(invalid("request head too large"));
    }
    let head = std::str::from_utf8(&carry[..head_end - 4])
        .map_err(|_| invalid("request head is not UTF-8"))?
        .to_string();
    carry.drain(..head_end);

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("malformed request line: {request_line:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header line: {line:?}")))?;
        if headers.len() >= MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = parse_content_length(&headers)?;
    if content_length > max_body {
        return Err(invalid(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    while carry.len() < content_length {
        if fill(stream, carry, stop)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
    }
    let body: Vec<u8> = carry.drain(..content_length).collect();
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// One response about to be written.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Connection` (which the writer
    /// always emits itself).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with no extra headers.
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
        }
    }

    /// A JSON response (sets `Content-Type: application/json`).
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// Adds a `Retry-After: <secs>` header (for 429/503 shed responses).
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.headers.push(("Retry-After".into(), secs.to_string()));
        self
    }
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serialises `resp`'s status line and headers (through the terminating
/// blank line). Factored out of [`write_response`] so the chaos paths can
/// write a deliberately truncated or throttled head from the same bytes a
/// healthy response would use.
pub fn response_head(resp: &Response, keep_alive: bool) -> String {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    for (name, value) in &resp.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// Serialises and writes `resp`, flushing before returning.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    stream.write_all(response_head(resp, keep_alive).as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// [`write_response`], but slow-loris style: the bytes dribble out in eight
/// slices with `stall / 8` pauses between them (total added latency ≈
/// `stall`). The payload is byte-identical to the healthy write — this
/// fault stresses client read timeouts, not correctness.
pub fn write_response_throttled(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
    stall: Duration,
) -> io::Result<()> {
    let mut bytes = response_head(resp, keep_alive).into_bytes();
    bytes.extend_from_slice(&resp.body);
    let slices = 8usize;
    let chunk = bytes.len().div_ceil(slices).max(1);
    for (i, piece) in bytes.chunks(chunk).enumerate() {
        if i > 0 {
            std::thread::sleep(stall / slices as u32);
        }
        stream.write_all(piece)?;
        stream.flush()?;
    }
    Ok(())
}

/// Client-side socket timeouts. Every limit is always on: the old client
/// blocked forever against a listener that accepted and then went silent,
/// which turned one wedged gateway into a wedged load generator.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect limit.
    pub connect_timeout: Duration,
    /// Limit on each *stall* while reading a response (not the whole
    /// response): any single quiet period longer than this errors
    /// `TimedOut`. A slow-but-moving response stays alive.
    pub read_timeout: Duration,
    /// Socket write limit (full send buffer + dead peer).
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// A keep-alive HTTP client over one TCP connection — enough for the load
/// generator, the swap tool, and tests; the server side accepts real
/// clients like `curl` just the same.
pub struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

/// A response as seen by [`Client`].
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of lowercased header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:8080"`) with default timeouts.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to `addr` under explicit timeouts. Tries each resolved
    /// address in turn with `connect_timeout`; the returned client's socket
    /// carries the read/write timeouts for its whole lifetime.
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        let mut last = None;
        let mut stream = None;
        for a in addrs {
            match TcpStream::connect_timeout(&a, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            last.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::AddrNotAvailable, format!("no address for {addr}"))
            })
        })?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        Ok(Client {
            stream,
            carry: Vec::new(),
        })
    }

    /// Pulls more response bytes into the carry. Unlike the server-side
    /// [`fill`] (which polls through timeouts watching a stop flag), a
    /// client read that hits its socket timeout *is* the failure: the
    /// silent-listener case must surface as `TimedOut`, not a hang.
    fn fill_client(&mut self) -> io::Result<usize> {
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(n) => {
                    self.carry.extend_from_slice(&tmp[..n]);
                    return Ok(n);
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for response bytes",
                    ));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: msd-gateway\r\n");
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head_end = loop {
            if let Some(end) = find_head_end(&self.carry) {
                break end;
            }
            if self.carry.len() >= MAX_HEAD_BYTES {
                return Err(invalid("response head too large"));
            }
            if self.fill_client()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
        };
        let head = std::str::from_utf8(&self.carry[..head_end - 4])
            .map_err(|_| invalid("response head is not UTF-8"))?
            .to_string();
        self.carry.drain(..head_end);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("malformed status line: {status_line:?}")))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid(format!("malformed header line: {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = parse_content_length(&headers)?;
        while self.carry.len() < content_length {
            if self.fill_client()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        let body: Vec<u8> = self.carry.drain(..content_length).collect();
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            let stop = AtomicBool::new(false);
            let mut carry = Vec::new();
            let req = read_request(&mut stream, &mut carry, 1024, &stop)
                .unwrap()
                .unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/models/m/predict");
            assert_eq!(req.header("x-msd-key"), Some("alpha"));
            assert_eq!(req.body, b"payload");
            let mut resp = Response::new(200, b"pong".to_vec());
            resp.headers.push(("X-Msd-Model-Version".into(), "3".into()));
            write_response(&mut stream, &resp, true).unwrap();
            // Second request on the same connection (keep-alive).
            let req2 = read_request(&mut stream, &mut carry, 1024, &stop)
                .unwrap()
                .unwrap();
            assert_eq!(req2.method, "GET");
            assert!(req2.body.is_empty());
            write_response(&mut stream, &Response::json(200, "{}".into()), false).unwrap();
        });
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let resp = client
            .request(
                "POST",
                "/v1/models/m/predict",
                &[("X-Msd-Key", "alpha")],
                b"payload",
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"pong");
        assert_eq!(resp.header("x-msd-model-version"), Some("3"));
        let resp2 = client.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(resp2.status, 200);
        server.join().unwrap();
    }

    #[test]
    fn oversized_body_and_garbage_are_rejected_not_hung() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            // Oversized declared body.
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            let mut carry = Vec::new();
            let err = read_request(&mut stream, &mut carry, 8, &stop).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // Garbage request line.
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            let mut carry = Vec::new();
            let err = read_request(&mut stream, &mut carry, 8, &stop).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        });
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n")
            .unwrap();
        a.flush().unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        b.write_all(b"not http at all\r\n\r\n").unwrap();
        b.flush().unwrap();
        server.join().unwrap();
    }

    /// Accept one connection, apply `read_request`, and return its result —
    /// the server half of every hostile-input test below.
    fn serve_one(
        listener: &TcpListener,
        max_body: usize,
    ) -> io::Result<Option<Request>> {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let stop = AtomicBool::new(false);
        let mut carry = Vec::new();
        read_request(&mut stream, &mut carry, max_body, &stop)
    }

    #[test]
    fn exactly_max_head_bytes_of_valid_head_is_accepted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_one(&listener, 1024));
        // Pad the head to land the terminating blank line exactly on the
        // 16 KiB boundary; the cap is inclusive of a complete head.
        let fixed = "POST /x HTTP/1.1\r\nContent-Length: 7\r\nX-Pad: \r\n\r\n";
        let head = format!(
            "POST /x HTTP/1.1\r\nContent-Length: 7\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES - fixed.len())
        );
        assert_eq!(head.len(), MAX_HEAD_BYTES);
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(head.as_bytes()).unwrap();
        c.write_all(b"payload").unwrap();
        c.flush().unwrap();
        let req = server.join().unwrap().unwrap().unwrap();
        assert_eq!(req.body, b"payload");
    }

    #[test]
    fn max_head_bytes_without_terminator_rejects_instead_of_hanging() {
        // Regression: the cap check was `>`, so a peer that sent exactly
        // MAX_HEAD_BYTES of headless bytes and then went quiet pinned the
        // connection forever waiting for a terminator that cannot fit.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_one(&listener, 1024));
        let mut c = TcpStream::connect(addr).unwrap();
        let junk = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_HEAD_BYTES));
        c.write_all(&junk.as_bytes()[..MAX_HEAD_BYTES]).unwrap();
        c.flush().unwrap();
        // Keep the socket open: the reject must come from the cap, not EOF.
        let err = server.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(c);
    }

    #[test]
    fn content_length_must_be_plain_ascii_digits() {
        // `usize::from_str` accepts a leading `+`; the wire grammar must not.
        for bad in ["+7", "7a", "1e2", "", "٣"] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || serve_one(&listener, 1024));
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(
                format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\npayload").as_bytes(),
            )
            .unwrap();
            c.flush().unwrap();
            let err = server.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "value {bad:?}");
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Even two *matching* copies: duplicated framing headers are the
        // classic smuggling vector, so the grammar refuses them outright.
        for second in ["7", "8"] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || serve_one(&listener, 1024));
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(
                format!(
                    "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: {second}\r\n\r\npayload"
                )
                .as_bytes(),
            )
            .unwrap();
            c.flush().unwrap();
            let err = server.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "second copy {second:?}");
        }
    }

    #[test]
    fn header_count_cap_boundary() {
        for (count, ok) in [(MAX_HEADERS, true), (MAX_HEADERS + 1, false)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || serve_one(&listener, 1024));
            let mut head = String::from("GET /x HTTP/1.1\r\n");
            for i in 0..count {
                head.push_str(&format!("x-h{i}: v\r\n"));
            }
            head.push_str("\r\n");
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(head.as_bytes()).unwrap();
            c.flush().unwrap();
            let result = server.join().unwrap();
            if ok {
                assert_eq!(result.unwrap().unwrap().headers.len(), MAX_HEADERS);
            } else {
                assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn silent_listener_times_out_instead_of_hanging_the_client() {
        // Regression: the client reused the server-side fill loop with a
        // stop flag nobody ever raised, so a listener that accepted and
        // then never wrote a byte hung the client forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the socket open, silently, past the client's timeout.
            std::thread::sleep(std::time::Duration::from_millis(500));
            drop(stream);
        });
        let cfg = ClientConfig {
            read_timeout: std::time::Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let started = std::time::Instant::now();
        let mut client = Client::connect_with(&addr.to_string(), cfg).unwrap();
        let err = client.request("GET", "/healthz", &[], b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "client took {:?} to notice the silent listener",
            started.elapsed()
        );
    }

    #[test]
    fn throttled_write_is_byte_identical_to_the_plain_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            let stop = AtomicBool::new(false);
            let mut carry = Vec::new();
            // Consume the request so closing the socket later cannot RST
            // the response out of the client's receive buffer.
            read_request(&mut stream, &mut carry, 1024, &stop)
                .unwrap()
                .unwrap();
            let mut resp = Response::new(200, b"slow but intact".to_vec());
            resp.headers.push(("X-Msd-Replica".into(), "1".into()));
            write_response_throttled(
                &mut stream,
                &resp,
                false,
                std::time::Duration::from_millis(40),
            )
            .unwrap();
        });
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let resp = client.request("GET", "/x", &[], b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"slow but intact");
        assert_eq!(resp.header("x-msd-replica"), Some("1"));
        server.join().unwrap();
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        drop(client); // connect then hang up without sending anything
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let stop = AtomicBool::new(false);
        let mut carry = Vec::new();
        assert!(read_request(&mut stream, &mut carry, 8, &stop)
            .unwrap()
            .is_none());
    }
}
