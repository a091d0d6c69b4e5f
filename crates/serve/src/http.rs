//! Minimal HTTP/1.1 plumbing for `zbp-serve`.
//!
//! The repository is dependency-free by design, so the daemon speaks
//! just enough HTTP itself: one request per connection (`Connection:
//! close` on every response), request line + headers + an optional
//! `Content-Length` body on the way in, and either a complete response
//! or a close-delimited NDJSON stream on the way out. That subset is
//! exactly what `curl`, CI smoke scripts and the bench harness need —
//! there is deliberately no keep-alive, chunked encoding or TLS.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use zbp_support::json::Json;

/// Cap on the request line + headers, bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a request body, bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed incoming request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client already).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw body bytes (`Content-Length`-delimited; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// When the body is not valid UTF-8 JSON.
    pub fn json_body(&self) -> Result<Json, String> {
        let text =
            std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        Json::parse(text).map_err(|e| format!("body is not valid JSON: {}", e.0))
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// On malformed request framing, oversized head/body, or I/O errors
/// (including the stream's read timeout elapsing).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_line_capped(&mut reader, &mut head_budget)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(bad_request("malformed request line"));
    };
    let method = method.to_string();
    // Strip any query string: the daemon routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    loop {
        let header = read_line_capped(&mut reader, &mut head_budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad_request("unparsable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad_request("request body exceeds 1 MiB"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one `\n`-terminated line, charging every byte against the
/// shared head `budget` — the check runs per buffered chunk, *before*
/// the chunk is kept, so a client streaming an endless newline-free
/// line can never make the daemon buffer more than the head cap. EOF
/// before a newline yields whatever arrived (the caller's parser
/// rejects incomplete heads).
fn read_line_capped(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            break;
        }
        let taken = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            None => available.len(),
        };
        if taken > *budget {
            return Err(bad_request("request head exceeds 64 KiB"));
        }
        let done = available[taken - 1] == b'\n';
        line.extend_from_slice(&available[..taken]);
        reader.consume(taken);
        *budget -= taken;
        if done {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| bad_request("request head is not UTF-8"))
}

fn bad_request(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes it.
///
/// # Errors
///
/// On I/O errors writing to the stream.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    respond_raw(stream, status, "application/json", &body.render_pretty())
}

/// Writes a complete plain-text response and flushes it.
///
/// # Errors
///
/// On I/O errors writing to the stream.
pub fn respond_text(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond_raw(stream, status, "text/plain; charset=utf-8", body)
}

fn respond_raw(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A close-delimited NDJSON event stream: headers go out on the first
/// event, then one JSON object per line, flushed per event so clients
/// see progress live. The body ends when the connection closes
/// (`Connection: close`), which every HTTP/1.1 client accepts.
pub struct NdjsonStream<'a> {
    stream: &'a mut TcpStream,
    started: bool,
}

impl<'a> NdjsonStream<'a> {
    /// Wraps `stream`; nothing is written until the first event.
    pub fn new(stream: &'a mut TcpStream) -> Self {
        Self { stream, started: false }
    }

    /// Wraps a stream whose response head already went out (e.g. to
    /// append a trailing event after an earlier writer was dropped).
    pub fn resumed(stream: &'a mut TcpStream) -> Self {
        Self { stream, started: true }
    }

    /// Whether any event (and therefore the response head) went out —
    /// after that, errors can only be reported as stream events, not as
    /// an HTTP status.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Writes one event line — and, before the first, the response
    /// head — in a single write, then flushes it.
    ///
    /// # Errors
    ///
    /// On I/O errors (e.g. the client hung up — the caller treats that
    /// as cancellation).
    pub fn emit(&mut self, event: &Json) -> io::Result<()> {
        let mut line = event.render();
        line.push('\n');
        if !self.started {
            self.started = true;
            line.insert_str(
                0,
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
            );
        }
        self.stream.write_all(line.as_bytes())?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn);
        writer.join().expect("writer");
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.json_body().expect("json").get("a"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn strips_query_strings_and_tolerates_missing_body() {
        let req = roundtrip(b"GET /metrics?pretty=1 HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(roundtrip(raw.as_bytes()).is_err());
    }

    #[test]
    fn rejects_a_newline_free_flood_without_unbounded_buffering() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            // Stream several times the head cap with no newline; stop
            // when the server rejects the head and closes on us.
            let chunk = [b'A'; 8192];
            for _ in 0..(4 * MAX_HEAD_BYTES / chunk.len()) {
                if c.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let err = read_request(&mut conn).expect_err("endless request line must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(conn);
        writer.join().expect("writer");
    }

    #[test]
    fn rejects_an_oversized_multi_header_head() {
        // Many newline-terminated headers must also stay under the
        // shared head budget.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert!(roundtrip(&raw).is_err());
    }
}
