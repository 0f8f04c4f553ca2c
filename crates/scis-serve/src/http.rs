//! A deliberately small HTTP/1.1 subset over [`std::net::TcpStream`]:
//! enough to parse one request (request line, headers, `Content-Length`
//! body) and write one response, connection-close semantics. No chunked
//! encoding, no pipelining, no TLS — clients that need more sit behind a
//! reverse proxy, exactly like every other single-binary model server.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Client-supplied `X-Scis-Trace-Id`, when present and well-formed
    /// (1–64 characters of `[A-Za-z0-9_-]`); anything else is ignored and
    /// the server mints its own id.
    pub trace_id: Option<String>,
}

/// Whether a client-supplied trace id is safe to echo into headers and the
/// access log: 1–64 chars, alphanumerics plus `-` and `_` only.
fn valid_trace_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed request line or headers → 400.
    Malformed(String),
    /// Body exceeds the configured cap → 413.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Server's cap.
        cap: usize,
    },
    /// The request line and headers exceed a fixed cap → 431.
    HeaderTooLarge {
        /// Which cap was hit: `"line"` ([`MAX_LINE_BYTES`]), `"count"`
        /// ([`MAX_HEADER_COUNT`]) or `"total"` ([`MAX_HEAD_BYTES`]).
        cap: &'static str,
        /// That cap's value (bytes; header lines for `"count"`).
        limit: usize,
    },
    /// The whole request did not arrive within [`REQUEST_DEADLINE`] → 408.
    Timeout {
        /// The deadline that ran out.
        limit: Duration,
    },
}

/// Longest request line or header line accepted, line terminator included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines one request may carry.
pub const MAX_HEADER_COUNT: usize = 64;
/// Most bytes the request line and all headers may take together.
pub const MAX_HEAD_BYTES: usize = 32 * 1024;
/// Longest time one request (line, headers and body together) may take to
/// arrive, so a client that trickles bytes cannot hold a connection slot.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// The request stream under a whole-request deadline: each read waits at
/// most for the time that remains of it.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {}", e),
            HttpError::Malformed(m) => write!(f, "malformed request: {}", m),
            HttpError::BodyTooLarge { declared, cap } => {
                write!(f, "body of {} bytes exceeds cap {}", declared, cap)
            }
            HttpError::HeaderTooLarge { cap, limit } => {
                write!(f, "request head exceeds the {} cap of {}", cap, limit)
            }
            HttpError::Timeout { limit } => {
                write!(f, "request did not arrive within {:?}", limit)
            }
        }
    }
}

/// Reads one line of the request head through [`Read::take`], so a line
/// that never ends costs at most its cap in memory. `budget` is what is
/// left of [`MAX_HEAD_BYTES`]; a line at end of stream comes back
/// unterminated (empty when nothing was left).
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let limit = MAX_LINE_BYTES.min(*budget);
    let mut line = String::new();
    let n = reader.by_ref().take(limit as u64).read_line(&mut line)?;
    if n == limit && !line.ends_with('\n') {
        return Err(if limit == MAX_LINE_BYTES {
            HttpError::HeaderTooLarge {
                cap: "line",
                limit: MAX_LINE_BYTES,
            }
        } else {
            HttpError::HeaderTooLarge {
                cap: "total",
                limit: MAX_HEAD_BYTES,
            }
        });
    }
    *budget -= n;
    Ok(line)
}

/// Reads one request from the stream. `max_body` caps `Content-Length`;
/// the request line and headers are held to [`MAX_LINE_BYTES`] per line,
/// [`MAX_HEADER_COUNT`] lines and [`MAX_HEAD_BYTES`] in total, and the
/// whole request must arrive within [`REQUEST_DEADLINE`].
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    read_request_within(stream, max_body, REQUEST_DEADLINE)
}

/// [`read_request`] under a deadline of `limit` from now. A read that times
/// out ran out of the deadline, since each read waits only for what is
/// left of it.
fn read_request_within(
    stream: &TcpStream,
    max_body: usize,
    limit: Duration,
) -> Result<Request, HttpError> {
    let mut timed = DeadlineStream {
        stream,
        deadline: Instant::now() + limit,
    };
    parse_request(&mut BufReader::new(&mut timed), max_body).map_err(|e| match e {
        HttpError::Io(io) if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            HttpError::Timeout { limit }
        }
        other => other,
    })
}

fn parse_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {:?}",
            version
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    let mut trace_id: Option<String> = None;
    let mut headers = 0usize;
    loop {
        let header = read_head_line(reader, &mut budget)?;
        if header.is_empty() {
            return Err(HttpError::Malformed("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADER_COUNT {
            return Err(HttpError::HeaderTooLarge {
                cap: "count",
                limit: MAX_HEADER_COUNT,
            });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let v = value.trim();
                // Strict canonical decimal only. `usize::from_str` would
                // accept a leading `+` ("+4"), and lenient parses of forms
                // like "1e3" or "0x10" are classic request-smuggling fodder
                // when a proxy and this server disagree on the body length.
                if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::Malformed("bad content-length".into()));
                }
                let parsed: usize = v
                    .parse()
                    .map_err(|_| HttpError::Malformed("content-length overflow".into()))?;
                // duplicate headers must agree, else the framing is ambiguous
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::Malformed(
                        "conflicting content-length headers".into(),
                    ));
                }
                content_length = Some(parsed);
            } else if name.eq_ignore_ascii_case("x-scis-trace-id") {
                let v = value.trim();
                if valid_trace_id(v) {
                    trace_id = Some(v.to_string());
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            cap: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        body,
        trace_id,
    })
}

/// Human phrase for the status codes this server emits.
pub fn status_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response with `Connection: close` and optional extra
/// headers (already formatted as `Name: value`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[String],
    body: &str,
) -> std::io::Result<()> {
    write_response_typed(stream, status, "application/json", extra_headers, body)
}

/// Like [`write_response`] with an explicit `Content-Type` (the `/metricsz`
/// exposition is `text/plain`, everything else JSON).
pub fn write_response_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_phrase(status),
        content_type,
        body.len()
    );
    for h in extra_headers {
        out.push_str(h);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, max_body);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            "POST /impute?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/impute");
        assert_eq!(req.body, b"body");
        assert_eq!(req.trace_id, None);
    }

    #[test]
    fn captures_well_formed_trace_ids_only() {
        let req = roundtrip(
            "GET /healthz HTTP/1.1\r\nX-Scis-Trace-Id: abc-123_XYZ\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("abc-123_XYZ"));
        // header name matching is case-insensitive, value is trimmed
        let req = roundtrip(
            "GET / HTTP/1.1\r\nx-scis-trace-id:  deadbeef \r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("deadbeef"));
        // ids that could corrupt headers or the JSONL log are discarded,
        // not echoed (the server mints a fresh one instead)
        for bad in ["", "has space", "quote\"", "semi;colon", &"x".repeat(65)] {
            let raw = format!("GET / HTTP/1.1\r\nX-Scis-Trace-Id: {}\r\n\r\n", bad);
            let req = roundtrip(&raw, 1024).unwrap();
            assert_eq!(req.trace_id, None, "trace id {:?} must be dropped", bad);
        }
    }

    #[test]
    fn rejects_oversized_bodies() {
        let err = roundtrip("POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16).unwrap_err();
        assert!(matches!(
            err,
            HttpError::BodyTooLarge {
                declared: 999,
                cap: 16
            }
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            roundtrip("NONSENSE\r\n\r\n", 16),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_non_canonical_content_length() {
        // regression: `usize::from_str` accepts a leading `+`, so "+4" used
        // to slip through and desynchronize the framing vs. any proxy that
        // rejects it; same for hex/exponent spellings and the empty value
        for bad in ["+4", "-4", " ", "", "1e3", "0x10", "4 bytes", "4,0"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\nbody", bad);
            assert!(
                matches!(roundtrip(&raw, 1024), Err(HttpError::Malformed(_))),
                "Content-Length {:?} must be rejected",
                bad
            );
        }
    }

    #[test]
    fn rejects_overflowing_content_length() {
        // all-digits but larger than usize::MAX: overflow, not panic/wrap
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n";
        assert!(matches!(roundtrip(raw, 1024), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn rejects_an_overlong_line() {
        let long = "a".repeat(MAX_LINE_BYTES);
        for raw in [
            format!("GET /{long} HTTP/1.1\r\n\r\n"),
            format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n"),
        ] {
            assert!(matches!(
                roundtrip(&raw, 1024),
                Err(HttpError::HeaderTooLarge {
                    cap: "line",
                    limit: MAX_LINE_BYTES
                })
            ));
        }
    }

    #[test]
    fn rejects_too_many_headers() {
        let headers = |k: usize| -> String {
            let lines: String = (0..k).map(|i| format!("X-H{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{lines}\r\n")
        };
        assert!(roundtrip(&headers(MAX_HEADER_COUNT), 1024).is_ok());
        assert!(matches!(
            roundtrip(&headers(MAX_HEADER_COUNT + 1), 1024),
            Err(HttpError::HeaderTooLarge {
                cap: "count",
                limit: MAX_HEADER_COUNT
            })
        ));
    }

    #[test]
    fn rejects_an_oversized_header_block() {
        // every line and the line count within their caps, the sum not
        let value = "v".repeat(MAX_LINE_BYTES - 64);
        let lines: String = (0..MAX_HEAD_BYTES / value.len() + 1)
            .map(|i| format!("X-H{i}: {value}\r\n"))
            .collect();
        let raw = format!("GET / HTTP/1.1\r\n{lines}\r\n");
        assert!(matches!(
            roundtrip(&raw, 1024),
            Err(HttpError::HeaderTooLarge {
                cap: "total",
                limit: MAX_HEAD_BYTES
            })
        ));
    }

    #[test]
    fn a_trickling_client_runs_out_of_the_request_deadline() {
        // one head byte every 40 ms: each read returns well inside any
        // per-read timeout, so only a whole-request deadline stops it
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ").unwrap();
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(40));
                if s.write_all(b"a").is_err() {
                    break; // the server gave up and closed the connection
                }
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let limit = Duration::from_millis(300);
        let started = Instant::now();
        let err = read_request_within(&conn, 1024, limit).unwrap_err();
        let waited = started.elapsed();
        drop(conn);
        client.join().unwrap();
        assert!(
            matches!(err, HttpError::Timeout { limit: l } if l == limit),
            "got {err:?}"
        );
        assert!(waited >= limit, "gave up after {waited:?}");
        assert!(waited < limit * 4, "held on for {waited:?}");
        assert_eq!(status_phrase(408), "Request Timeout");
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody";
        assert!(matches!(roundtrip(raw, 1024), Err(HttpError::Malformed(_))));
        // agreeing duplicates keep unambiguous framing and stay accepted
        let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(roundtrip(raw, 1024).unwrap().body, b"body");
    }
}
