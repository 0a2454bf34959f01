//! A minimal HTTP/1.1 client: one request per connection, timed from
//! connect to the last response byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
pub struct Reply {
    pub status: u16,
    /// Value of the `x-obx-exit` header, when present.
    pub exit: Option<String>,
    pub body: Vec<u8>,
    /// Connect to last byte.
    pub elapsed: Duration,
}

/// The raw bytes of a `POST` with a body, closing the connection after
/// the response.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends `raw` on a fresh connection and reads the response to EOF.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(120));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let elapsed = started.elapsed();
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&reply[..split]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let exit = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("x-obx-exit")
            .then(|| value.trim().to_owned())
    });
    Ok(Reply {
        status,
        exit,
        body: reply[split + 4..].to_vec(),
        elapsed,
    })
}
