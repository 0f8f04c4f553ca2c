//! End-to-end tests for the `scis-serve` HTTP server: many concurrent
//! clients with bit-identical responses, queue backpressure (503 then
//! success on retry), and typed errors for truncated bundles and
//! wrong-width rows.

use scis_repro::api::{ExecPolicy, ImputeRow, ImputeService, ModelBundle, Server, ServerConfig};
use scis_repro::data::{ColumnKind, MinMaxScaler};
use scis_repro::imputers::{AdversarialImputer, GainImputer, TrainConfig};
use scis_repro::serve::batcher::BatchConfig;
use scis_repro::serve::bundle::{BundleError, ColumnMeta};
use scis_repro::serve::client::request;
use scis_repro::serve::json::{parse as json_parse, Json};
use scis_repro::telemetry::Telemetry;
use scis_repro::tensor::{Matrix, Rng64};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn tiny_bundle(d: usize, seed: u64) -> ModelBundle {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut gain = GainImputer::new(TrainConfig::fast_test());
    gain.init_networks(d, &mut rng);
    let spec = gain.generator_spec();
    let generator = gain.generator_mut().clone();
    let values = Matrix::from_fn(32, d, |i, j| (i * 3 + j) as f64 * 0.25 - 1.0);
    let scaler = MinMaxScaler::fit(&values);
    let columns = (0..d)
        .map(|j| ColumnMeta {
            name: format!("c{}", j),
            kind: ColumnKind::Continuous,
            mean: j as f64 * 0.5,
        })
        .collect();
    ModelBundle::new(generator, spec, scaler, columns, Default::default()).unwrap()
}

/// A client-side row pattern: every third cell missing, values vary by
/// (client, request) so concurrent batches mix distinct rows.
fn client_rows(d: usize, client: usize, req: usize, n_rows: usize) -> Vec<ImputeRow> {
    (0..n_rows)
        .map(|r| {
            (0..d)
                .map(|j| {
                    if (client + req + r + j).is_multiple_of(3) {
                        None
                    } else {
                        Some((client * 7 + req * 3 + r + j) as f64 * 0.125 - 2.0)
                    }
                })
                .collect()
        })
        .collect()
}

fn rows_to_json(rows: &[ImputeRow]) -> String {
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            match cell {
                Some(v) => body.push_str(&scis_repro::telemetry::json_f64(*v)),
                None => body.push_str("null"),
            }
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

fn parse_rows(body: &str) -> Vec<Vec<f64>> {
    let json = json_parse(body).expect("response is valid JSON");
    json.get("rows")
        .and_then(Json::as_arr)
        .expect("response has rows")
        .iter()
        .map(|row| {
            row.as_arr()
                .expect("row is an array")
                .iter()
                .map(|v| v.as_f64().expect("cell is a number"))
                .collect()
        })
        .collect()
}

/// Posts rows until a 200 arrives, retrying on 503 backpressure. Returns
/// the imputed rows and how many 503s were absorbed along the way.
fn impute_with_retry(addr: std::net::SocketAddr, body: &str) -> (Vec<Vec<f64>>, usize) {
    let mut retried = 0usize;
    loop {
        let resp = request(addr, "POST", "/impute", Some(body)).expect("request I/O");
        match resp.status {
            200 => return (parse_rows(&resp.body), retried),
            503 => {
                assert_eq!(resp.header("Retry-After"), Some("1"));
                retried += 1;
                assert!(retried < 10_000, "starved by backpressure");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            other => panic!("unexpected status {}: {}", other, resp.body),
        }
    }
}

fn assert_bits_equal(got: &[Vec<f64>], want: &[Vec<f64>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{}: row count", ctx);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{}: row {} width", ctx, i);
        for (j, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: cell ({}, {}): {} vs {}",
                ctx,
                i,
                j,
                a,
                b
            );
        }
    }
}

#[test]
fn sixty_four_concurrent_clients_get_bit_identical_answers() {
    const CLIENTS: usize = 64;
    const REQUESTS: usize = 4;
    const ROWS: usize = 3;
    let d = 6;
    let bundle = tiny_bundle(d, 41);

    // The reference answers come from a direct in-process forward at a
    // *different* ExecPolicy than the server uses: responses must be
    // bit-identical across both the HTTP boundary and the exec policy.
    let mut reference = ImputeService::new(bundle.clone(), ExecPolicy::Serial, Telemetry::off());

    let server = Server::start(
        bundle,
        ServerConfig {
            exec: ExecPolicy::threads(2),
            ..ServerConfig::default()
        },
        Telemetry::collecting(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // scrape /metricsz while the clients load the server: the exposition
    // must keep answering, counters included, under load
    let clients_done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let done = clients_done.clone();
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            loop {
                let resp = request(addr, "GET", "/metricsz", None).expect("metricsz scrape");
                assert_eq!(resp.status, 200, "metricsz must answer under load");
                assert!(
                    resp.body.contains("# TYPE scis_serve_requests counter"),
                    "metricsz lost its counters under load"
                );
                scrapes += 1;
                if done.load(Ordering::SeqCst) {
                    return scrapes;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };

    let retried_total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let retried_total = retried_total.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for req in 0..REQUESTS {
                    let rows = client_rows(d, client, req, ROWS);
                    let (answer, retried) = impute_with_retry(addr, &rows_to_json(&rows));
                    retried_total.fetch_add(retried, Ordering::Relaxed);
                    out.push((rows, answer));
                }
                out
            })
        })
        .collect();

    let mut served = 0usize;
    for handle in handles {
        for (rows, answer) in handle.join().expect("client thread") {
            let want = reference.impute_rows(&rows);
            assert!(!want.degraded);
            assert_bits_equal(&answer, &want.rows, "server vs direct forward");
            served += 1;
        }
    }
    // zero dropped: every one of the 64 * 4 requests came back with a 200
    assert_eq!(served, CLIENTS * REQUESTS);
    clients_done.store(true, Ordering::SeqCst);
    let scrapes = scraper.join().expect("metricsz scraper");
    assert!(scrapes >= 1);

    // the statz endpoint saw the traffic
    let statz = request(addr, "GET", "/statz", None).expect("statz");
    assert_eq!(statz.status, 200);
    let json = json_parse(&statz.body).expect("statz is valid JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("scis-serve-statz-v2")
    );
    let requests_seen = json
        .get("counters")
        .and_then(|c| c.get("serve_requests"))
        .and_then(Json::as_f64)
        .expect("serve_requests counter") as usize;
    assert!(requests_seen >= CLIENTS * REQUESTS);
}

#[test]
fn saturated_queue_returns_503_then_succeeds_on_retry() {
    let d = 8;
    let bundle = tiny_bundle(d, 43);
    let mut reference = ImputeService::new(bundle.clone(), ExecPolicy::Serial, Telemetry::off());

    // One queue slot and one-row batches: concurrent writers must collide
    // with QueueFull while the batcher is mid-forward.
    let server = Server::start(
        bundle,
        ServerConfig {
            batch: BatchConfig {
                queue_cap: 1,
                max_batch_rows: 1,
                flush_micros: 0,
            },
            ..ServerConfig::default()
        },
        Telemetry::collecting(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let total_503 = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..16)
        .map(|client| {
            let total_503 = total_503.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for req in 0..24 {
                    let rows = client_rows(d, client, req, 8);
                    let (answer, retried) = impute_with_retry(addr, &rows_to_json(&rows));
                    total_503.fetch_add(retried, Ordering::Relaxed);
                    out.push((rows, answer));
                }
                out
            })
        })
        .collect();
    for handle in handles {
        for (rows, answer) in handle.join().expect("client thread") {
            let want = reference.impute_rows(&rows);
            assert_bits_equal(&answer, &want.rows, "answer after backpressure");
        }
    }
    // the 1-slot queue must actually have pushed back at least once, and
    // every 503 was followed by an eventual success (asserted above)
    assert!(
        total_503.load(Ordering::Relaxed) > 0,
        "16 writers against a 1-slot queue never saw a 503"
    );
}

#[test]
fn truncated_bundle_is_a_typed_error_not_a_panic() {
    let bundle = tiny_bundle(5, 47);
    let dir = std::env::temp_dir().join(format!("scis_serve_trunc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bundle");
    bundle.save(&path).unwrap();

    let full = std::fs::read_to_string(&path).unwrap();
    for frac in [4, 2] {
        let cut = full.len() / frac;
        std::fs::write(&path, &full[..cut]).unwrap();
        match ModelBundle::load(&path) {
            Err(BundleError::Format { .. }) | Err(BundleError::Checksum { .. }) => {}
            Err(other) => panic!("unexpected error kind: {}", other),
            Ok(_) => panic!("truncated bundle at {} bytes loaded successfully", cut),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_width_row_is_rejected_with_400() {
    let d = 4;
    let server = Server::start(
        tiny_bundle(d, 53),
        ServerConfig::default(),
        Telemetry::off(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // d+1 cells: typed 400, message names both widths
    let resp = request(addr, "POST", "/impute", Some("{\"row\":[1,2,3,4,5]}")).expect("request");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains('4') && resp.body.contains('5'),
        "{}",
        resp.body
    );

    // malformed JSON: typed 400, never a hung connection or panic
    let resp = request(addr, "POST", "/impute", Some("{\"row\":[1,")).expect("request");
    assert_eq!(resp.status, 400);

    // a valid request on the same server still succeeds afterwards
    let resp = request(addr, "POST", "/impute", Some("{\"row\":[1,null,3,null]}")).expect("ok");
    assert_eq!(resp.status, 200);
    let rows = parse_rows(&resp.body);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].len(), d);
    assert!(rows[0].iter().all(|v| v.is_finite()));
}

#[test]
fn trace_ids_flow_from_response_header_to_access_log_and_metricsz_counts() {
    use scis_repro::serve::client::request_with_headers;
    let d = 4;
    let dir = std::env::temp_dir().join(format!("scis_serve_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let mut server = Server::start(
        tiny_bundle(d, 61),
        ServerConfig {
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        },
        Telemetry::collecting(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // a server-minted trace id: 16 lowercase hex chars, unique per request
    let first = request(addr, "POST", "/impute", Some("{\"row\":[1,null,3,null]}")).unwrap();
    assert_eq!(first.status, 200);
    let minted = first
        .header("X-Scis-Trace-Id")
        .expect("minted id")
        .to_owned();
    assert_eq!(minted.len(), 16, "minted id {minted:?}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
    let second = request(addr, "POST", "/impute", Some("{\"row\":[1,null,3,null]}")).unwrap();
    let minted2 = second
        .header("X-Scis-Trace-Id")
        .expect("minted id")
        .to_owned();
    assert_ne!(minted, minted2, "trace ids must be unique per request");

    // a client-supplied id round-trips verbatim
    let resp = request_with_headers(
        addr,
        "POST",
        "/impute",
        Some("{\"row\":[null,2,null,4]}"),
        &[("X-Scis-Trace-Id", "req-42_abc")],
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Scis-Trace-Id"), Some("req-42_abc"));

    // /metricsz is valid-looking Prometheus text and saw all three requests
    let metrics = request(addr, "GET", "/metricsz", None).expect("metricsz");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    let line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("scis_serve_requests "))
        .expect("serve_requests sample");
    let seen: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(seen >= 3.0, "metricsz lost requests: {line}");
    assert!(metrics.body.contains("# TYPE scis_serve_requests counter"));
    assert!(metrics.body.contains("scis_serve_requests_per_sec"));

    // every handled request left one access-log line carrying its trace id
    server.shutdown();
    let log = std::fs::read_to_string(&log_path).expect("access log exists");
    let ids: Vec<String> = log
        .lines()
        .map(|l| {
            let v = json_parse(l).unwrap_or_else(|e| panic!("bad access-log line {l:?}: {e}"));
            assert!(v.get("status").is_some(), "no status in {l}");
            assert!(v.get("latency_ns").is_some(), "no latency in {l}");
            v.get("trace_id")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no trace_id in {l}"))
                .to_owned()
        })
        .collect();
    for id in [minted.as_str(), minted2.as_str(), "req-42_abc"] {
        assert!(
            ids.iter().any(|i| i == id),
            "access log lost trace {id}: {log}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_reports_live_batcher_and_schema_width() {
    let d = 7;
    let server = Server::start(
        tiny_bundle(d, 59),
        ServerConfig::default(),
        Telemetry::off(),
    )
    .expect("server starts");
    let resp = request(server.local_addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    let json = json_parse(&resp.body).expect("healthz is valid JSON");
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        json.get("batcher_alive").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(json.get("columns").and_then(Json::as_f64), Some(d as f64));
}
