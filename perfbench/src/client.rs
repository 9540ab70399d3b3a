//! A minimal HTTP/1.1 client over loopback. The daemon answers every
//! request with `Connection: close`, so each call opens one connection,
//! writes the request, and reads to end of stream.

use serde_json::Value as Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One response: status code and body text.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn json(&self) -> Json {
        serde_json::from_str(&self.body).unwrap_or(Json::Null)
    }
}

/// Send one request. A refused connection, a timeout or an unparsable
/// status line is an `Err`; the caller counts it as a failed operation.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let raw = String::from_utf8_lossy(&raw);
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    request(addr, "GET", path, "")
}

/// `GET` that must answer 200 with a JSON body.
pub fn get_ok(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = get(addr, path)?;
    if reply.status != 200 {
        return Err(format!("GET {path}: {} {}", reply.status, reply.body));
    }
    Ok(reply.json())
}
