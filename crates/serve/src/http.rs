//! A hand-rolled, std-only HTTP/1.1 subset: exactly what a long-lived
//! explanation service needs and nothing more.
//!
//! The parser is written against hostile input: every limit (request-line
//! length, header count, header size, body size) is enforced while
//! reading, socket timeouts surface as structured errors instead of
//! hangs (the slow-loris shield — a client dribbling one byte per second
//! is cut off at the socket's read timeout), and every failure carries a
//! stable `OBX30x` diagnostic code so clients and tests can assert on the
//! class of rejection, never on message wording.
//!
//! Supported: `GET`/`POST`, `Content-Length` bodies, keep-alive and
//! `Connection: close`. Deliberately unsupported (rejected with a code,
//! not ignored): other methods, chunked transfer encoding, HTTP/2
//! upgrades.

use std::fmt;
use std::io::{BufRead, Write};

/// Parsing limits, all enforced *while* reading (an attacker cannot make
/// the server buffer more than these before rejection).
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Longest accepted request line (method + path + version), bytes.
    pub max_request_line: usize,
    /// Most header lines accepted.
    pub max_headers: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 256 * 1024,
        }
    }
}

/// A parsed request. Header names are lowercased at parse time; values
/// keep their bytes (trimmed of surrounding whitespace).
#[derive(Debug)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected while parsing).
    pub method: String,
    /// The request target, e.g. `/explain`.
    pub path: String,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (give it lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A structured ingestion failure: stable `OBX30x` code, the HTTP status
/// to answer with, and a human-readable message.
#[derive(Debug)]
pub struct HttpError {
    /// Stable diagnostic code (`OBX300`–`OBX307`).
    pub code: &'static str,
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable detail (wording is not a stable interface).
    pub msg: String,
}

impl HttpError {
    fn new(code: &'static str, status: u16, msg: impl Into<String>) -> Self {
        Self {
            code,
            status,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.msg)
    }
}

impl std::error::Error for HttpError {}

/// Maps an I/O failure mid-request to the right diagnostic: timeouts are
/// the slow-loris code (`OBX305`), everything else a truncated request.
fn io_err(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::new(
            "OBX305",
            408,
            "timed out reading the request (slow client?)",
        ),
        _ => HttpError::new("OBX305", 400, format!("request truncated: {e}")),
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes (excluding the
/// terminator), stripping a trailing `\r`. `Ok(None)` = clean EOF before
/// the first byte.
fn read_line_limited(
    r: &mut impl BufRead,
    max: usize,
    over_limit: impl FnOnce() -> HttpError,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(io_err(&e)),
        };
        if buf.is_empty() {
            // EOF: clean only if nothing was read at all.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::new("OBX305", 400, "request truncated mid-line"));
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if line.len() + take > max + 2 {
            // +2 allows the \r\n itself on an exactly-max-sized line.
            return Err(over_limit());
        }
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(HttpError::new(
            "OBX301",
            400,
            "request head is not valid UTF-8",
        )),
    }
}

/// Reads and parses one request off the wire. `Ok(None)` means the client
/// closed the connection cleanly between requests (normal keep-alive
/// shutdown); every malformed, oversized, or dribbled request is a
/// structured [`HttpError`].
pub fn read_request(
    r: &mut impl BufRead,
    limits: &HttpLimits,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line_limited(r, limits.max_request_line, || {
        HttpError::new("OBX300", 414, "request line too long")
    })?
    else {
        return Ok(None);
    };
    let mut parts = line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::new(
                "OBX300",
                400,
                format!("malformed request line `{line}`"),
            ))
        }
    };
    if !matches!(method, "GET" | "POST") {
        return Err(HttpError::new(
            "OBX302",
            405,
            format!("unsupported method `{method}` (only GET and POST)"),
        ));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            "OBX302",
            505,
            format!("unsupported protocol version `{version}`"),
        ));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(
            "OBX300",
            400,
            format!("request target must be an absolute path, got `{path}`"),
        ));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = read_line_limited(r, limits.max_header_line, || {
            HttpError::new("OBX301", 431, "header line too long")
        })?
        else {
            return Err(HttpError::new(
                "OBX305",
                400,
                "request truncated in the header section",
            ));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::new(
                "OBX301",
                431,
                format!("too many headers (limit {})", limits.max_headers),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(
                "OBX301",
                400,
                format!("malformed header line `{line}`"),
            ));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(
                "OBX301",
                400,
                format!("malformed header name `{name}`"),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::new(
            "OBX303",
            501,
            "chunked transfer encoding is not supported",
        ));
    }
    let body_len = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(HttpError::new(
                    "OBX303",
                    400,
                    format!("invalid Content-Length `{v}`"),
                ))
            }
        },
    };
    if body_len > limits.max_body {
        return Err(HttpError::new(
            "OBX304",
            413,
            format!(
                "request body of {body_len} bytes exceeds limit {}",
                limits.max_body
            ),
        ));
    }
    let mut body = vec![0u8; body_len];
    if body_len > 0 {
        if let Err(e) = r.read_exact(&mut body) {
            return Err(io_err(&e));
        }
    }
    Ok(Some(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
    }))
}

/// A response ready for the wire.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, `(name, value)`.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain; charset=utf-8` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response (the caller provides valid JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// The reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto the wire. `close` advertises
/// `Connection: close` (the caller then drops the stream).
pub fn write_response(w: &mut impl Write, resp: &Response, close: bool) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(input: &str) -> Result<Option<Request>, HttpError> {
        read_request(
            &mut BufReader::new(input.as_bytes()),
            &HttpLimits::default(),
        )
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let req = parse("GET /metrics HTTP/1.1\nhost: y\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn malformed_request_lines_are_obx300() {
        for bad in [
            "GARBAGE",
            "GET /x",
            "GET  HTTP/1.1",
            "GET /x HTTP/1.1 extra",
        ] {
            let e = parse(&format!("{bad}\r\n\r\n")).unwrap_err();
            assert_eq!(e.code, "OBX300", "{bad}: {e}");
        }
    }

    #[test]
    fn unsupported_method_and_version_are_obx302() {
        assert_eq!(parse("PUT /x HTTP/1.1\r\n\r\n").unwrap_err().code, "OBX302");
        assert_eq!(parse("GET /x HTTP/2\r\n\r\n").unwrap_err().code, "OBX302");
    }

    #[test]
    fn bad_content_length_is_obx303_and_chunked_is_rejected() {
        let e = parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert_eq!(e.code, "OBX303");
        let e = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.code, "OBX303");
    }

    #[test]
    fn oversized_body_is_obx304_before_reading_it() {
        let e = parse("POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(e.code, "OBX304");
        assert_eq!(e.status, 413);
    }

    #[test]
    fn truncated_body_is_obx305() {
        let e = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e.code, "OBX305");
    }

    #[test]
    fn oversized_request_line_is_rejected_while_reading() {
        let line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100_000));
        let e = parse(&line).unwrap_err();
        assert_eq!(e.code, "OBX300");
        assert_eq!(e.status, 414);
    }

    #[test]
    fn header_flood_is_obx301() {
        let mut req = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..100 {
            req.push_str(&format!("h{i}: v\r\n"));
        }
        req.push_str("\r\n");
        assert_eq!(parse(&req).unwrap_err().code, "OBX301");
    }

    #[test]
    fn responses_round_trip() {
        let mut out = Vec::new();
        let resp = Response::text(200, "hello").with_header("x-obx-epoch", "3");
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("x-obx-epoch: 3\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello"), "{text}");
    }
}
