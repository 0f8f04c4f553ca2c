//! The HTTP front end: accept loop, routing, and the degradation ladder.
//!
//! One thread accepts connections, one short-lived thread handles each
//! connection, and one batcher thread owns the generator. The ladder, top
//! to bottom:
//!
//! 1. healthy — requests coalesce through the [`Batcher`] into policy-aware
//!    generator forwards;
//! 2. saturated — the bounded queue is full, the server answers `503` with
//!    `Retry-After` instead of building an unbounded backlog;
//! 3. degraded — the batcher is gone (or the generator emitted non-finite
//!    values), missing cells are filled with training-time column means and
//!    the response carries `X-Scis-Degraded: 1` — the serving analogue of
//!    the batch CLI's exit-code-2 semantics.

use crate::batcher::{BatchConfig, Batcher, SubmitError};
use crate::bundle::ModelBundle;
use crate::http::{read_request, write_response, write_response_typed, HttpError, Request};
use crate::json::{self, Json};
use crate::service::{ImputeResult, ImputeRow, ImputeService};
use scis_telemetry::{
    json_f64, render_prometheus, Counter, Hist, HistSnapshot, RateWindow, Telemetry,
};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server knobs. `addr` may use port 0 for an ephemeral port;
/// [`Server::local_addr`] reports what was actually bound.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Execution policy for generator forwards (bit-identical at any).
    pub exec: scis_tensor::ExecPolicy,
    /// Batching knobs.
    pub batch: BatchConfig,
    /// Cap on request body bytes; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Cap on rows in one request; more gets `400`.
    pub max_request_rows: usize,
    /// Cap on concurrently handled connections; beyond it, `503`.
    pub max_connections: usize,
    /// Opt-in JSONL access log: one line per handled request (trace id,
    /// method, path, status, rows, latency, degraded flag), appended
    /// whole-line-at-a-time so concurrent writers interleave at line
    /// granularity only.
    pub access_log: Option<std::path::PathBuf>,
    /// Seed for the server-minted trace-id stream (16 hex chars per id).
    pub trace_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            exec: scis_tensor::ExecPolicy::Auto,
            batch: BatchConfig::default(),
            max_body_bytes: 1 << 20,
            max_request_rows: 1024,
            max_connections: 256,
            access_log: None,
            trace_seed: 0x5c15_1d50,
        }
    }
}

struct Shared {
    batcher: Batcher,
    telemetry: Telemetry,
    columns: usize,
    fallback: Vec<f64>,
    started: Instant,
    stop: AtomicBool,
    active: AtomicUsize,
    /// Requests per second over the trailing window (off when telemetry is).
    req_rate: RateWindow,
    /// Imputed rows per second over the trailing window.
    row_rate: RateWindow,
    /// Seeded stream behind server-minted trace ids.
    trace_rng: Mutex<scis_tensor::Rng64>,
    /// Open access-log sink; one `write_all` per line keeps appends atomic
    /// at line granularity (the checkpoint-I/O append discipline).
    access_log: Option<Mutex<std::fs::File>>,
    cfg: ServerConfig,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, drains in-flight connections, and joins the batcher.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_join: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts serving `bundle`.
    pub fn start(
        bundle: ModelBundle,
        cfg: ServerConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let columns = bundle.n_features();
        let fallback = bundle.fallback_row();
        let service = ImputeService::new(bundle, cfg.exec, telemetry.clone());
        let batcher = Batcher::spawn(service, cfg.batch, telemetry.clone());
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        // rate windows share telemetry's off-is-free contract: a server run
        // with a disabled collector allocates no rate cells either
        let (req_rate, row_rate) = if telemetry.is_enabled() {
            (RateWindow::collecting(), RateWindow::collecting())
        } else {
            (RateWindow::off(), RateWindow::off())
        };
        let shared = Arc::new(Shared {
            batcher,
            telemetry,
            columns,
            fallback,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            req_rate,
            row_rate,
            trace_rng: Mutex::new(scis_tensor::Rng64::seed_from_u64(cfg.trace_seed)),
            access_log,
            cfg,
        });
        let accept_shared = shared.clone();
        let accept_join = std::thread::Builder::new()
            .name("scis-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_join: Some(accept_join),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits for in-flight handlers, joins the accept
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        // bounded wait for handler threads to finish their last response
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared.telemetry.incr(Counter::ServeRejected);
            let _ = write_response(
                &mut stream,
                503,
                &["Retry-After: 1".to_string()],
                "{\"error\":\"connection limit reached\"}",
            );
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let handler_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("scis-serve-conn".into())
            .spawn(move || {
                handle_connection(&mut stream, &handler_shared);
                handler_shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// What one handled request resolved to — the facts the access log records.
#[derive(Debug, Clone, Copy)]
struct ReqOutcome {
    status: u16,
    rows: u64,
    batch_rows: u64,
    degraded: bool,
}

impl ReqOutcome {
    fn status(status: u16) -> Self {
        ReqOutcome {
            status,
            rows: 0,
            batch_rows: 0,
            degraded: false,
        }
    }
}

/// Mints the next server-assigned trace id: 16 hex chars from the seeded
/// per-server `Rng64` stream.
fn next_trace_id(shared: &Shared) -> String {
    let mut rng = shared
        .trace_rng
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    format!("{:016x}", rng.next_u64())
}

/// Appends one JSONL access-log line. The whole line goes out in a single
/// `write_all` under the sink mutex, so lines never interleave; a failed
/// write is dropped rather than failing the request it describes.
fn access_log_line(
    shared: &Shared,
    trace_id: &str,
    method: &str,
    path: &str,
    outcome: ReqOutcome,
    started: Instant,
) {
    let Some(log) = &shared.access_log else {
        return;
    };
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let line = format!(
        "{{\"ts_ms\":{},\"trace_id\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"rows\":{},\"batch_rows\":{},\"latency_ns\":{},\"degraded\":{}}}\n",
        ts_ms,
        trace_id,
        scis_telemetry::json_escape(method),
        scis_telemetry::json_escape(path),
        outcome.status,
        outcome.rows,
        outcome.batch_rows,
        started.elapsed().as_nanos().min(u64::MAX as u128),
        outcome.degraded,
    );
    let mut sink = log
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = sink.write_all(line.as_bytes());
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let started = Instant::now();
    let request = match read_request(stream, shared.cfg.max_body_bytes) {
        Ok(r) => r,
        Err(HttpError::Io(_)) => return, // client vanished; nothing to answer
        Err(e) => {
            shared.telemetry.incr(Counter::ServeErrors);
            // unparseable requests still get a minted trace id, so the 4xx
            // a client sees can be matched to its access-log line
            let trace_id = next_trace_id(shared);
            let trace_header = format!("X-Scis-Trace-Id: {}", trace_id);
            let (status, body) = match e {
                HttpError::Malformed(m) => (
                    400,
                    format!("{{\"error\":{}}}", scis_telemetry::json_escape(&m)),
                ),
                HttpError::BodyTooLarge { declared, cap } => (
                    413,
                    format!(
                        "{{\"error\":\"body of {} bytes exceeds cap {}\"}}",
                        declared, cap
                    ),
                ),
                e @ HttpError::HeaderTooLarge { .. } => (
                    431,
                    format!(
                        "{{\"error\":{}}}",
                        scis_telemetry::json_escape(&e.to_string())
                    ),
                ),
                e @ HttpError::Timeout { .. } => (
                    408,
                    format!(
                        "{{\"error\":{}}}",
                        scis_telemetry::json_escape(&e.to_string())
                    ),
                ),
                HttpError::Io(_) => unreachable!("handled above"),
            };
            let _ = write_response(stream, status, std::slice::from_ref(&trace_header), &body);
            access_log_line(
                shared,
                &trace_id,
                "-",
                "-",
                ReqOutcome::status(status),
                started,
            );
            return;
        }
    };
    shared.telemetry.incr(Counter::ServeRequests);
    shared.req_rate.record(1);
    // client-supplied ids pass through (already validated by the parser);
    // otherwise the server mints one from its seeded stream
    let trace_id = match &request.trace_id {
        Some(id) => id.clone(),
        None => next_trace_id(shared),
    };
    let trace_header = format!("X-Scis-Trace-Id: {}", trace_id);
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"batcher_alive\":{},\"columns\":{}}}",
                shared.batcher.is_alive(),
                shared.columns
            );
            let _ = write_response(stream, 200, std::slice::from_ref(&trace_header), &body);
            ReqOutcome::status(200)
        }
        ("GET", "/statz") => {
            let body = statz_json(shared);
            let _ = write_response(stream, 200, std::slice::from_ref(&trace_header), &body);
            ReqOutcome::status(200)
        }
        ("GET", "/metricsz") => {
            let body = metricsz_text(shared);
            let _ = write_response_typed(
                stream,
                200,
                "text/plain; version=0.0.4",
                std::slice::from_ref(&trace_header),
                &body,
            );
            ReqOutcome::status(200)
        }
        ("POST", "/impute") => handle_impute(stream, shared, &request, &trace_id),
        (_, "/healthz" | "/statz" | "/metricsz" | "/impute") => {
            shared.telemetry.incr(Counter::ServeErrors);
            let _ = write_response(
                stream,
                405,
                std::slice::from_ref(&trace_header),
                "{\"error\":\"method not allowed\"}",
            );
            ReqOutcome::status(405)
        }
        _ => {
            shared.telemetry.incr(Counter::ServeErrors);
            let _ = write_response(
                stream,
                404,
                std::slice::from_ref(&trace_header),
                "{\"error\":\"no such route\"}",
            );
            ReqOutcome::status(404)
        }
    };
    access_log_line(
        shared,
        &trace_id,
        &request.method,
        &request.path,
        outcome,
        started,
    );
}

fn handle_impute(
    stream: &mut TcpStream,
    shared: &Shared,
    request: &Request,
    trace_id: &str,
) -> ReqOutcome {
    let trace_header = format!("X-Scis-Trace-Id: {}", trace_id);
    let rows = match parse_impute_body(&request.body, shared.columns, shared.cfg.max_request_rows) {
        Ok(rows) => rows,
        Err(message) => {
            shared.telemetry.incr(Counter::ServeErrors);
            let body = format!("{{\"error\":{}}}", scis_telemetry::json_escape(&message));
            let _ = write_response(stream, 400, std::slice::from_ref(&trace_header), &body);
            return ReqOutcome::status(400);
        }
    };
    let n_rows = rows.len() as u64;
    shared.telemetry.add(Counter::ServeRows, n_rows);
    shared.row_rate.record(n_rows);

    let mut echo_id = trace_id.to_string();
    let (result, batch_rows) = match shared.batcher.submit(rows.clone(), Arc::from(trace_id)) {
        Ok(reply) => match reply.recv() {
            // the reply carries the id back out of the queue: the echoed
            // header is the one that rode through the batcher with the job
            Ok(r) => {
                echo_id = r.trace_id.to_string();
                (r.result, r.batch_rows)
            }
            // the batcher died while holding our job: bottom ladder rung
            Err(_) => (mean_fallback(shared, &rows), 0),
        },
        Err(SubmitError::QueueFull) => {
            shared.telemetry.incr(Counter::ServeRejected);
            let _ = write_response(
                stream,
                503,
                &["Retry-After: 1".to_string(), trace_header],
                "{\"error\":\"impute queue full, retry\"}",
            );
            return ReqOutcome {
                status: 503,
                rows: n_rows,
                batch_rows: 0,
                degraded: false,
            };
        }
        Err(SubmitError::Unavailable) => (mean_fallback(shared, &rows), 0),
    };

    let mut body = String::from("{\"rows\":[");
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(*v));
        }
        body.push(']');
    }
    body.push_str(&format!("],\"degraded\":{}}}", result.degraded));
    let mut headers = vec![format!("X-Scis-Trace-Id: {}", echo_id)];
    if result.degraded {
        headers.push("X-Scis-Degraded: 1".to_string());
    }
    let _ = write_response(stream, 200, &headers, &body);
    ReqOutcome {
        status: 200,
        rows: n_rows,
        batch_rows,
        degraded: result.degraded,
    }
}

fn mean_fallback(shared: &Shared, rows: &[ImputeRow]) -> ImputeResult {
    shared.telemetry.incr(Counter::ServeDegraded);
    let filled = rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, cell)| cell.unwrap_or(shared.fallback[j]))
                .collect()
        })
        .collect();
    ImputeResult {
        rows: filled,
        degraded: true,
    }
}

/// Parses a request body into rows. Accepts `{"row": [...]}` for one row
/// or `{"rows": [[...], ...]}` for a micro-batch; `null` marks a missing
/// cell. Width and row-count violations are typed messages for the `400`.
fn parse_impute_body(
    body: &[u8],
    columns: usize,
    max_rows: usize,
) -> Result<Vec<ImputeRow>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let row_arrays: Vec<&Json> = if let Some(rows) = doc.get("rows") {
        rows.as_arr()
            .ok_or_else(|| "\"rows\" must be an array of arrays".to_string())?
            .iter()
            .collect()
    } else if let Some(row) = doc.get("row") {
        vec![row]
    } else {
        return Err("body must carry \"row\" or \"rows\"".to_string());
    };
    if row_arrays.is_empty() {
        return Err("no rows to impute".to_string());
    }
    if row_arrays.len() > max_rows {
        return Err(format!(
            "{} rows exceeds the per-request cap of {}",
            row_arrays.len(),
            max_rows
        ));
    }
    let mut rows = Vec::with_capacity(row_arrays.len());
    for (i, row_json) in row_arrays.iter().enumerate() {
        let cells = row_json
            .as_arr()
            .ok_or_else(|| format!("row {} is not an array", i))?;
        if cells.len() != columns {
            return Err(format!(
                "row {} width {} does not match the model's {} columns",
                i,
                cells.len(),
                columns
            ));
        }
        let mut row: ImputeRow = Vec::with_capacity(columns);
        for (j, cell) in cells.iter().enumerate() {
            match cell {
                Json::Null => row.push(None),
                Json::Num(v) => row.push(Some(*v)),
                _ => return Err(format!("row {} column {} must be a number or null", i, j)),
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Upper bound of the histogram bucket holding the `q`-quantile
/// observation. Power-of-two buckets make this an upper envelope, which is
/// the honest direction for latency reporting.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let target = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut seen = 0u64;
    for (_, hi, c) in h.nonzero_buckets() {
        seen += c;
        if seen >= target {
            return hi;
        }
    }
    0
}

fn statz_json(shared: &Shared) -> String {
    let t = &shared.telemetry;
    let latency = t.hist(Hist::ServeRequestNanos);
    let batch_rows = t.hist(Hist::ServeBatchRows);
    let mean_ns = if latency.count > 0 {
        latency.sum as f64 / latency.count as f64
    } else {
        0.0
    };
    let mean_rows = if batch_rows.count > 0 {
        batch_rows.sum as f64 / batch_rows.count as f64
    } else {
        0.0
    };
    let mut counters = String::new();
    for c in [
        Counter::ServeRequests,
        Counter::ServeRows,
        Counter::ServeBatches,
        Counter::ServeRejected,
        Counter::ServeErrors,
        Counter::ServeDegraded,
    ] {
        if !counters.is_empty() {
            counters.push(',');
        }
        counters.push_str(&format!("\"{}\":{}", c.name(), t.counter(c)));
    }
    // v2 = v1 + quantile_kind disclosure + rate-window gauges; every v1
    // field is unchanged (README documents the migration)
    format!(
        concat!(
            "{{\"schema\":\"scis-serve-statz-v2\",",
            "\"quantile_kind\":\"bucket_upper_bound\",",
            "\"uptime_secs\":{},",
            "\"columns\":{},",
            "\"batcher_alive\":{},",
            "\"active_connections\":{},",
            "\"requests_per_sec\":{},",
            "\"rows_per_sec\":{},",
            "\"counters\":{{{}}},",
            "\"request_latency_ns\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{}}},",
            "\"batch_rows\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}}}"
        ),
        json_f64(shared.started.elapsed().as_secs_f64()),
        shared.columns,
        shared.batcher.is_alive(),
        shared.active.load(Ordering::SeqCst),
        json_f64(shared.req_rate.per_sec()),
        json_f64(shared.row_rate.per_sec()),
        counters,
        latency.count,
        json_f64(mean_ns),
        hist_quantile(&latency, 0.50),
        hist_quantile(&latency, 0.99),
        batch_rows.count,
        json_f64(mean_rows),
        hist_quantile(&batch_rows, 0.50),
        hist_quantile(&batch_rows, 0.99),
    )
}

/// The `/metricsz` body: the full telemetry slab in Prometheus text format
/// plus the serving layer's trailing-window throughput gauges.
fn metricsz_text(shared: &Shared) -> String {
    let mut out = render_prometheus(&shared.telemetry.snapshot());
    out.push_str(&format!(
        concat!(
            "# TYPE scis_serve_requests_per_sec gauge\n",
            "scis_serve_requests_per_sec {}\n",
            "# TYPE scis_serve_rows_per_sec gauge\n",
            "scis_serve_rows_per_sec {}\n"
        ),
        shared.req_rate.per_sec(),
        shared.row_rate.per_sec()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_telemetry::hist_bucket;

    #[test]
    fn hist_quantile_walks_buckets() {
        let mut h = HistSnapshot::empty();
        // 90 observations of ~100, 10 of ~100000
        h.buckets[hist_bucket(100)] = 90;
        h.buckets[hist_bucket(100_000)] = 10;
        h.count = 100;
        h.sum = 90 * 100 + 10 * 100_000;
        let p50 = hist_quantile(&h, 0.50);
        let p99 = hist_quantile(&h, 0.99);
        assert!((100..256).contains(&p50), "p50 = {}", p50);
        assert!(p99 >= 100_000, "p99 = {}", p99);
        assert_eq!(hist_quantile(&HistSnapshot::empty(), 0.5), 0);
    }

    #[test]
    fn parse_impute_body_shapes() {
        let rows = parse_impute_body(br#"{"row": [1, null, 2.5]}"#, 3, 16).unwrap();
        assert_eq!(rows, vec![vec![Some(1.0), None, Some(2.5)]]);
        let rows = parse_impute_body(br#"{"rows": [[1, 2], [null, 4]]}"#, 2, 16).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![None, Some(4.0)]);
    }

    #[test]
    fn parse_impute_body_typed_errors() {
        let err = parse_impute_body(br#"{"row": [1, 2]}"#, 3, 16).unwrap_err();
        assert!(err.contains("width 2"), "{}", err);
        assert!(err.contains("3 columns"), "{}", err);
        assert!(parse_impute_body(b"not json", 3, 16).is_err());
        assert!(parse_impute_body(br#"{"rows": []}"#, 3, 16).is_err());
        assert!(parse_impute_body(br#"{"other": 1}"#, 3, 16).is_err());
        assert!(parse_impute_body(br#"{"rows": [[1,2],[1,2],[1,2]]}"#, 2, 2)
            .unwrap_err()
            .contains("cap"),);
        assert!(parse_impute_body(br#"{"row": [1, "x", 3]}"#, 3, 16).is_err());
    }
}
