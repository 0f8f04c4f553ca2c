//! A minimal blocking HTTP client — just enough to exercise the server
//! from tests, CI smoke jobs, and `loadbench` without pulling in a
//! dependency. One request per connection, mirroring the
//! server's `Connection: close` behavior.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body as UTF-8 text.
    pub body: String,
}

impl HttpResponse {
    /// First header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response (the server closes the
/// connection after answering).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    request_with_headers(addr, method, path, body, &[])
}

/// [`request`] with extra request headers (`("X-Scis-Trace-Id", "abc")`
/// style pairs), for exercising header-sensitive server paths.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let extra: String = headers
        .iter()
        .map(|(n, v)| format!("{}: {}\r\n", n, v))
        .collect();
    let raw = format!(
        "{} {} HTTP/1.1\r\nHost: {}\r\n{}Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{}",
        method,
        path,
        addr,
        extra,
        body.len(),
        body
    );
    stream.write_all(raw.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    parse_response(&response)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad http response"))
}

fn parse_response(raw: &str) -> Option<HttpResponse> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Some(HttpResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_canned_response() {
        let raw =
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.body, "{}");
        assert!(parse_response("garbage").is_none());
    }
}
