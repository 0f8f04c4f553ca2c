//! The two serving workloads: a `scis serve` child process driven by an
//! open-loop Poisson load generator.
//!
//! Requests are sent on a seeded schedule whatever the server does, and
//! each is timed from when it was *due*, so a stall delays and penalises
//! the requests queued behind it. At most two sender threads share at most
//! two connections; a connection is reused only when the server keeps it
//! open. Every request has a 2 s deadline; a timeout, a refused connection
//! or a non-200 status counts as a failure.

use crate::gen::{mix, poisson_schedule, Table};
use crate::micro::{self, Shape};
use crate::report::Outcome;
use crate::stats::{max_rate, median, percentile, sorted, Step};
use crate::sys::{self, ServerProc};
use crate::trace::{Span, Tracer};
use crate::train::{bundle_from, pipeline_metrics, SharedBuf, LEARNING_RATE};
use crate::Ctx;
use scis_core::dim::{AccelConfig, DimConfig};
use scis_core::guard::GuardConfig;
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::HeartbeatHook;
use scis_data::{Dataset, MinMaxScaler};
use scis_imputers::{GainImputer, TrainConfig};
use scis_ot::EscalationPolicy;
use scis_serve::bundle::ModelBundle;
use scis_serve::service::{ImputeRow, ImputeService};
use scis_telemetry::Telemetry;
use scis_tensor::{ExecPolicy, Precision, Rng64};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Everything that defines one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub cols: usize,
    pub missing: f64,
    /// One request in `multi_every` carries 16 rows, the rest one row.
    pub multi_every: u64,
    /// Offered rate of the measured step, requests per second.
    pub reference_rps: f64,
    /// Higher rates tried by traced runs to find the sustainable maximum.
    pub ladder: &'static [f64],
    /// p99 latency limit of the maximum-rate search, ms.
    pub p99_limit_ms: f64,
}

pub const NARROW: ServeSpec = ServeSpec {
    cols: 9,
    missing: 0.25,
    multi_every: 16,
    reference_rps: 1000.0,
    ladder: &[1500.0, 2000.0, 2500.0, 3000.0],
    p99_limit_ms: 10.0,
};

/// Wide rows, 81% of cells null (the Search dataset's missing rate). The
/// Search width, 424 columns, makes a 4.3 MB f64 generator that each
/// forward pass streams from the L3 cache, which other tenants of the host
/// share; measured on a 2-vCPU VM with a 2 MiB per-core L2, its latency
/// and CPU per row then varied ±25% between interleaved runs, against ±6%
/// and ±9% at 200 columns, whose 0.96 MB generator stays in L2.
pub const WIDE: ServeSpec = ServeSpec {
    cols: 200,
    missing: 0.81,
    multi_every: 4,
    reference_rps: 100.0,
    ladder: &[200.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0],
    p99_limit_ms: 50.0,
};

const SETUPS: usize = 3;
const SENDERS: usize = 2;
const DEADLINE: Duration = Duration::from_secs(2);
const WARM_UP_S: f64 = 1.0;
const LADDER_STEP_S: f64 = 2.0;
/// One response in this many is checked bit for bit against an in-process
/// `ImputeService` and carries a pinned trace id that must be echoed.
const CHECK_EVERY: usize = 64;
const MULTI_ROWS: usize = 16;
/// Bundle training, as `scis train --save-model` would run it on a sample:
/// n0 = 512 of 1024 rows, 5 epochs of 4 batches, a fixed cap of 10 sweeps
/// per solve. Measured on a 2-vCPU VM, the served models then beat mean
/// fill (RMSE 0.238 against 0.274 narrow, 0.191 against 0.297 wide);
/// trained on 128 rows for 3 epochs at learning rate 0.005, neither does.
const BUNDLE_ROWS: usize = 1024;
const BUNDLE_N0: usize = 512;
const BUNDLE_BATCH: usize = 128;
const BUNDLE_EPOCHS: usize = 5;
const BUNDLE_SWEEPS: usize = 10;
const TRAIN_SEED: u64 = 42;
/// Seed of the bundle's training sample. The served model is the same in
/// every run, like a deployed one, and the workload seed draws the
/// requests. Trained on a sample drawn from the workload seed, the model's
/// RMSE varied 8–9% between seeds, and with it the work of set-up.
const BUNDLE_SAMPLE_SEED: u64 = 0x5eb0_4d1e;

/// Runs a serving workload and reports its metrics.
pub fn run(ctx: &Ctx, spec: ServeSpec) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let bundle_path = ctx.tmp.join("serve.bundle");

    // set-up, from a sample to a serving endpoint: train the model, save
    // the bundle, start the server, wait for /healthz
    let setup = |k: usize, layer: &mut BTreeMap<String, f64>| {
        let root = tracer.root(&format!("setup-{k}"), "bench");
        let t = Instant::now();
        let bundle = train_bundle(ctx, spec, root.id(), layer)?;
        let server = start_server(ctx, &bundle, &bundle_path, None, tracer, root.id())?;
        Ok::<_, String>((bundle, server, t.elapsed().as_secs_f64()))
    };
    let (bundle, mut server, first) = match setup(0, &mut out.layer) {
        Ok(started) => started,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let mut setup_s = vec![first];
    let table = Table::new(spec.cols, spec.missing, mix(ctx.seed, 31, 0));
    let load = Load {
        spec,
        table: &table,
        seed: ctx.seed,
        means: bundle.columns.iter().map(|c| c.mean).collect(),
    };

    let warm = load.step(&server, spec.reference_rps, WARM_UP_S, 0, &Tracer::off());
    let reference_s = if tracer.is_on() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let reference = load.step(&server, spec.reference_rps, reference_s, 1, &Tracer::off());
    count_step(&warm, "warm-up", &mut out);
    count_step(&reference, "reference", &mut out);
    report_reference(&reference, &mut out);
    out.e2e.insert(
        "peak_rss_mb",
        sys::peak_rss_mib(&server.pid()).unwrap_or(f64::NAN),
    );
    for step in [&warm, &reference] {
        verify_samples(step, &bundle_path, &mut out);
    }
    // the other set-ups run after the measured step, so that their median
    // spans the run rather than one moment of it
    for k in 1..SETUPS {
        match setup(k, &mut out.layer) {
            Ok((_, _, secs)) => setup_s.push(secs),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
    }
    out.e2e.insert("setup_s", median(&setup_s));

    if tracer.is_on() {
        // the traced half: a fresh server with the access log on, the same
        // rate with client spans on, then the rate ladder
        drop(server);
        let log = ctx.tmp.join("access.jsonl");
        let root = tracer.root("setup-traced", "bench");
        server = match start_server(ctx, &bundle, &bundle_path, Some(&log), tracer, root.id()) {
            Ok(s) => s,
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        };
        drop(root);
        let warm = load.step(&server, spec.reference_rps, WARM_UP_S, 2, &Tracer::off());
        let traced = load.step(&server, spec.reference_rps, reference_s, 3, tracer);
        count_step(&warm, "traced warm-up", &mut out);
        count_step(&traced, "traced reference", &mut out);
        verify_samples(&traced, &bundle_path, &mut out);
        let plain_p50 = median(&reference.latency_ms);
        let traced_p50 = median(&traced.latency_ms);
        out.layer.insert(
            "telemetry.overhead_pct".into(),
            (traced_p50 / plain_p50 - 1.0) * 100.0,
        );
        layer_metrics(&traced, &log, &mut out.layer);

        let mut steps = vec![reference.as_step()];
        for (i, &rate) in spec.ladder.iter().enumerate() {
            let s = load.step(&server, rate, LADDER_STEP_S, 4 + i as u64, &Tracer::off());
            steps.push(s.as_step());
            out.layer
                .insert(format!("serve.ladder_p99_ms_{rate}"), s.p99());
            if !s.as_step().passes(spec.p99_limit_ms) {
                break;
            }
        }
        let (rate, censored) = max_rate(&steps, spec.p99_limit_ms).unwrap_or((0.0, false));
        out.layer.insert("serve.max_rate_rps".into(), rate);
        out.layer.insert(
            "serve.max_rate_censored".into(),
            f64::from(u8::from(censored)),
        );
        statz_metrics(&server, &mut out.layer);
        micro::run(
            Shape {
                batch: BUNDLE_BATCH,
                cols: spec.cols,
                exec: ExecPolicy::Serial,
                precision: Precision::F64,
                decomposed_cost: false,
                max_sinkhorn_iters: BUNDLE_SWEEPS,
            },
            &bundle_path,
            tracer,
            &mut out.layer,
        );
    }
    out
}

/// Trains the served model on a sample with the SCIS pipeline and wraps it
/// in a bundle, as `scis train --save-model` does. With tracing on its
/// telemetry supplies the training-layer metrics of the serve workloads.
fn train_bundle(
    ctx: &Ctx,
    spec: ServeSpec,
    parent: crate::trace::SpanId,
    layer: &mut BTreeMap<String, f64>,
) -> Result<ModelBundle, String> {
    let tracer = &ctx.tracer;
    let table = Table::new(spec.cols, spec.missing, BUNDLE_SAMPLE_SEED);
    let (_, observed) = {
        let _s = tracer.child(parent, "generate", "bench");
        table.matrices(BUNDLE_ROWS)
    };
    let t = Instant::now();
    let (ds, scaler) = {
        let _s = tracer.child(parent, "MinMaxScaler::fit_transform_dataset", "scis-data");
        MinMaxScaler::fit_transform_dataset(&Dataset::from_values(observed))
    };
    layer.insert("data.scaler_fit_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    let train = TrainConfig {
        epochs: BUNDLE_EPOCHS,
        batch_size: BUNDLE_BATCH,
        learning_rate: LEARNING_RATE,
        dropout: 0.0,
    };
    let config = ScisConfig::default()
        .dim(
            DimConfig::default()
                .train(train)
                .max_sinkhorn_iters(BUNDLE_SWEEPS),
        )
        .epsilon(1.0)
        .exec(ExecPolicy::Serial)
        .guard(GuardConfig::default().sinkhorn_escalation(EscalationPolicy::none()));
    let beats = SharedBuf::default();
    let (tel, heartbeat) = if tracer.is_on() {
        (
            Telemetry::collecting(),
            HeartbeatHook::to_writer(Box::new(beats.clone()), Duration::ZERO),
        )
    } else {
        (Telemetry::off(), HeartbeatHook::off())
    };
    let mut gain = GainImputer::new(train);
    let outcome = {
        let _s = tracer.child(parent, "Scis::try_run", "scis-core");
        Scis::new(config)
            .telemetry(tel.clone())
            .heartbeat(heartbeat)
            .try_run(
                &mut gain,
                &ds,
                BUNDLE_N0,
                &mut Rng64::seed_from_u64(TRAIN_SEED),
            )
            .map_err(|e| format!("training the served model: {e}"))?
    };
    if outcome.anomalies.is_degraded() {
        return Err("training the served model degraded its output".into());
    }
    if tel.is_enabled() {
        pipeline_metrics(&tel, outcome.n_star, &beats.text(), layer);
    }
    bundle_from(&gain, &scaler, &ds, AccelConfig::default())
}

/// Saves the bundle, starts `scis serve` on it, and waits until `/healthz`
/// answers 200.
fn start_server(
    ctx: &Ctx,
    bundle: &ModelBundle,
    path: &Path,
    access_log: Option<&Path>,
    tracer: &Tracer,
    parent: crate::trace::SpanId,
) -> Result<ServerProc, String> {
    {
        let _s = tracer.child(parent, "ModelBundle::save", "scis-serve");
        bundle
            .save(path)
            .map_err(|e| format!("saving the bundle: {e}"))?;
    }
    let _s = tracer.child(parent, "scis serve: start to /healthz", "scis-serve");
    let mut args = vec![
        "--model".to_string(),
        path.display().to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--threads".into(),
        "2".into(),
    ];
    if let Some(log) = access_log {
        args.push("--access-log".into());
        args.push(log.display().to_string());
    }
    let server = ServerProc::spawn(&ctx.exe, &args)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(resp) = get(server.addr, "/healthz") {
            if resp.status == 200 {
                return Ok(server);
            }
        }
        if Instant::now() > deadline {
            return Err("the server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The request stream of one workload run.
struct Load<'a> {
    spec: ServeSpec,
    table: &'a Table,
    seed: u64,
    /// The bundle's column means, the fill of its degraded path.
    means: Vec<f64>,
}

/// One request: its body and what the benchmark knows about its rows.
struct Request {
    bytes: Vec<u8>,
    /// Sent cells (None = null) per row.
    rows: Vec<ImputeRow>,
    /// Ground truth per row.
    truth: Vec<Vec<f64>>,
    /// Squared error of filling the missing cells with the column means.
    mean_fill_sq: f64,
    /// Pinned trace id the response must echo.
    trace_id: Option<String>,
    /// Kept for the in-process bit check.
    sampled: bool,
}

impl Load<'_> {
    fn request(&self, step: u64, i: usize, traced: bool) -> Request {
        let key = (step << 32) | i as u64;
        // a fixed pattern, not a draw: the share of multi-row requests is
        // then the same in every run, and so is the work per request
        let n = if (i as u64).is_multiple_of(self.spec.multi_every) {
            MULTI_ROWS
        } else {
            1
        };
        let d = self.spec.cols;
        let (mut t, mut o) = (vec![0.0; d], vec![0.0; d]);
        let mut rows = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        let mut mean_fill_sq = 0.0;
        for r in 0..n {
            self.table
                .row(key * MULTI_ROWS as u64 + r as u64, &mut t, &mut o);
            for ((&v, &t), &m) in o.iter().zip(&t).zip(&self.means) {
                if v.is_nan() {
                    mean_fill_sq += (m - t) * (m - t);
                }
            }
            rows.push(o.iter().map(|v| (!v.is_nan()).then_some(*v)).collect());
            truth.push(t.clone());
        }
        // one in 64, alternating between a multi-row and a one-row request
        let sampled = i % CHECK_EVERY == (i / CHECK_EVERY) % 2;
        let trace_id = (sampled || traced).then(|| format!("lb-{step}-{i}"));
        let body = request_body(&rows);
        let mut head = format!(
            "POST /impute HTTP/1.1\r\nHost: loadbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(id) = &trace_id {
            head.push_str(&format!("X-Scis-Trace-Id: {id}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Request {
            bytes,
            rows,
            truth,
            mean_fill_sq,
            trace_id,
            sampled,
        }
    }

    /// Offers `rate` requests per second for `secs` seconds, open loop.
    fn step(
        &self,
        server: &ServerProc,
        rate: f64,
        secs: f64,
        step: u64,
        tracer: &Tracer,
    ) -> StepResult {
        let schedule = poisson_schedule(mix(self.seed, 50, step), rate, secs);
        let next = AtomicUsize::new(0);
        let pid = server.pid();
        let cpu0 = sys::cpu_secs(&pid);
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut result = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = StepResult::default();
                        let mut conn = None;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&at) = schedule.get(i) else { break };
                            let req = self.request(step, i, tracer.is_on());
                            let due = t0 + Duration::from_secs_f64(at);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            send(server.addr, &mut conn, &req, due, tracer, &mut local);
                        }
                        local
                    })
                })
                .collect();
            let mut all = StepResult::default();
            for s in senders {
                all.merge(s.join().expect("a sender thread panicked"));
            }
            all
        });
        result.cpu_secs = match (cpu0, sys::cpu_secs(&pid)) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        let end = t0 + Duration::from_secs_f64(secs);
        result.on_time = result.completions.iter().filter(|&&t| t <= end).count() as u64;
        result.scheduled = schedule.len() as u64;
        result.secs = secs;
        result.offered_rps = rate;
        result
    }
}

/// `{"row": [...]}` for one row, `{"rows": [[...], ...]}` for several;
/// `null` marks a missing cell. Numbers print in shortest round-trip form.
pub fn request_body(rows: &[ImputeRow]) -> String {
    let fmt_row = |row: &ImputeRow| {
        let cells: Vec<String> = row
            .iter()
            .map(|c| c.map_or_else(|| "null".to_string(), |v| format!("{v}")))
            .collect();
        format!("[{}]", cells.join(","))
    };
    if rows.len() == 1 {
        format!("{{\"row\":{}}}", fmt_row(&rows[0]))
    } else {
        let all: Vec<String> = rows.iter().map(fmt_row).collect();
        format!("{{\"rows\":[{}]}}", all.join(","))
    }
}

/// What one open-loop step measured.
#[derive(Default)]
struct StepResult {
    secs: f64,
    offered_rps: f64,
    scheduled: u64,
    /// Successful requests completed before the step's end.
    on_time: u64,
    attempted: u64,
    ok: u64,
    status_503: u64,
    timeouts: u64,
    connect_errors: u64,
    /// Other statuses and broken exchanges.
    other_failures: u64,
    connects: u64,
    rows_ok: u64,
    /// Per successful request, due to last byte.
    latency_ms: Vec<f64>,
    /// Per request, due to send start: how late the generator ran.
    lag_ms: Vec<f64>,
    connect_us: Vec<f64>,
    ttfb_ms: Vec<f64>,
    /// (trace id, due-to-done ms) of traced requests.
    by_id: Vec<(String, f64)>,
    sum_sq: f64,
    /// Over the same cells as `sum_sq`, filled with the column means.
    sum_sq_mean_fill: f64,
    missing_cells: u64,
    samples: Vec<(Vec<ImputeRow>, Vec<Vec<f64>>)>,
    problems: Vec<String>,
    /// Completion time of every successful request.
    completions: Vec<Instant>,
    /// Server CPU time (user + system) over the step.
    cpu_secs: f64,
}

impl StepResult {
    fn merge(&mut self, o: StepResult) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.status_503 += o.status_503;
        self.timeouts += o.timeouts;
        self.connect_errors += o.connect_errors;
        self.other_failures += o.other_failures;
        self.connects += o.connects;
        self.rows_ok += o.rows_ok;
        self.latency_ms.extend(o.latency_ms);
        self.lag_ms.extend(o.lag_ms);
        self.connect_us.extend(o.connect_us);
        self.ttfb_ms.extend(o.ttfb_ms);
        self.by_id.extend(o.by_id);
        self.sum_sq += o.sum_sq;
        self.sum_sq_mean_fill += o.sum_sq_mean_fill;
        self.missing_cells += o.missing_cells;
        self.samples.extend(o.samples);
        self.problems.extend(o.problems);
        self.completions.extend(o.completions);
    }

    fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    fn p99(&self) -> f64 {
        percentile(&sorted(&self.latency_ms), 0.99)
    }

    fn as_step(&self) -> Step {
        Step {
            offered_rps: self.offered_rps,
            achieved_share: self.on_time as f64 / self.scheduled.max(1) as f64,
            p99_ms: self.p99(),
            fail_ratio: self.failed() as f64 / self.attempted.max(1) as f64,
        }
    }
}

/// Why a request failed.
enum Failure {
    Timeout,
    Connect,
    Io,
}

fn io_failure(e: std::io::Error) -> Failure {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => Failure::Timeout,
        _ => Failure::Io,
    }
}

struct Response {
    status: u16,
    close: bool,
    trace_id: Option<String>,
    body: String,
}

/// Sends one request and records its outcome into `local`.
fn send(
    addr: SocketAddr,
    conn: &mut Option<TcpStream>,
    req: &Request,
    due: Instant,
    tracer: &Tracer,
    local: &mut StepResult,
) {
    local.attempted += 1;
    let start = Instant::now();
    local.lag_ms.push(ms(start.saturating_duration_since(due)));
    // the deadline runs from the due time, so a stalled server cannot
    // stretch a step past its schedule by more than the deadline
    let deadline = due + DEADLINE;
    let mut connected = start;
    let mut first_byte = None;
    let result = (|| {
        if conn.is_none() {
            let left = deadline
                .checked_duration_since(start)
                .filter(|d| !d.is_zero())
                .ok_or(Failure::Timeout)?;
            let stream = TcpStream::connect_timeout(&addr, left).map_err(|e| match e.kind() {
                std::io::ErrorKind::TimedOut => Failure::Timeout,
                _ => Failure::Connect,
            })?;
            let _ = stream.set_nodelay(true);
            connected = Instant::now();
            local.connects += 1;
            local
                .connect_us
                .push((connected - start).as_secs_f64() * 1e6);
            *conn = Some(stream);
        }
        let stream = conn.as_mut().expect("connected above");
        exchange(stream, &req.bytes, deadline, &mut first_byte)
    })();
    let done = Instant::now();
    let response = match result {
        Ok(r) => r,
        Err(f) => {
            *conn = None;
            match f {
                Failure::Timeout => local.timeouts += 1,
                Failure::Connect => local.connect_errors += 1,
                Failure::Io => local.other_failures += 1,
            }
            return;
        }
    };
    if response.close {
        *conn = None;
    }
    if let Some(fb) = first_byte {
        local.ttfb_ms.push(ms(fb - connected));
    }
    match response.status {
        200 => {}
        503 => {
            local.status_503 += 1;
            return;
        }
        _ => {
            local.other_failures += 1;
            return;
        }
    }
    let latency = ms(done - due);
    local.ok += 1;
    local.rows_ok += req.rows.len() as u64;
    local.completions.push(done);
    local.latency_ms.push(latency);
    if tracer.is_on() {
        let id = req.trace_id.clone().expect("traced requests carry an id");
        local.by_id.push((id, latency));
        let root = tracer.alloc(None);
        let span =
            |id: u64, parent: u64, name: &str, layer: &'static str, a: Instant, b: Instant| Span {
                trace: root.trace,
                span: id,
                parent,
                name: name.to_string(),
                layer,
                start_ns: tracer.at(a),
                end_ns: tracer.at(b),
            };
        let child = |name: &str, layer: &'static str, a: Instant, b: Instant| {
            span(tracer.alloc(Some(root)).span, root.span, name, layer, a, b)
        };
        tracer.record(span(root.span, 0, "request", "bench", due, done));
        if start > due {
            tracer.record(child("wait for a sender", "bench", due, start));
        }
        if connected > start {
            tracer.record(child("connect", "scis-serve", start, connected));
        }
        tracer.record(child("POST /impute", "scis-serve", connected, done));
    }
    check_response(req, &response, local);
}

/// Writes the request and reads one full response, honouring `deadline`.
fn exchange(
    stream: &mut TcpStream,
    bytes: &[u8],
    deadline: Instant,
    first_byte: &mut Option<Instant>,
) -> Result<Response, Failure> {
    let remaining = || {
        deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or(Failure::Timeout)
    };
    stream
        .set_write_timeout(Some(remaining()?))
        .map_err(io_failure)?;
    stream.write_all(bytes).map_err(io_failure)?;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut head_end = None;
    let mut content_length = 0usize;
    loop {
        if let Some(h) = head_end {
            if buf.len() >= h + content_length {
                break;
            }
        }
        stream
            .set_read_timeout(Some(remaining()?))
            .map_err(io_failure)?;
        let n = stream.read(&mut chunk).map_err(io_failure)?;
        if n == 0 {
            return Err(Failure::Io);
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                head_end = Some(pos + 4);
                content_length = header(&buf[..pos], "content-length")
                    .and_then(|v| v.parse().ok())
                    .ok_or(Failure::Io)?;
            }
        }
    }
    let h = head_end.expect("loop exits with a parsed head");
    let head = std::str::from_utf8(&buf[..h]).map_err(|_| Failure::Io)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(Failure::Io)?;
    let close = header(&buf[..h], "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let trace_id = header(&buf[..h], "x-scis-trace-id").map(str::to_string);
    let body = String::from_utf8(buf[h..h + content_length].to_vec()).map_err(|_| Failure::Io)?;
    Ok(Response {
        status,
        close,
        trace_id,
        body,
    })
}

fn header<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    std::str::from_utf8(head)
        .ok()?
        .split("\r\n")
        .find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks a 200 response: one finite row per request row, observed cells
/// returned bit for bit, not degraded, the pinned trace id echoed. Folds
/// the imputed cells' error against the ground truth into the step.
fn check_response(req: &Request, resp: &Response, local: &mut StepResult) {
    let mut problem = |p: String| {
        if local.problems.len() < 8 {
            local.problems.push(p);
        }
    };
    if let Some(id) = &req.trace_id {
        if resp.trace_id.as_deref() != Some(id) {
            problem(format!("trace id {id} was not echoed"));
        }
    }
    let Some((rows, degraded)) = parse_rows(&resp.body) else {
        problem(format!(
            "unparseable response body {:?}",
            truncate(&resp.body)
        ));
        return;
    };
    if degraded {
        problem("the server answered from its degraded path".into());
    }
    if rows.len() != req.rows.len() {
        problem(format!(
            "{} rows answered for {} sent",
            rows.len(),
            req.rows.len()
        ));
        return;
    }
    for ((sent, got), truth) in req.rows.iter().zip(&rows).zip(&req.truth) {
        if got.len() != sent.len() {
            problem(format!(
                "a row of width {} came back as {}",
                sent.len(),
                got.len()
            ));
            return;
        }
        for ((cell, &v), &t) in sent.iter().zip(got).zip(truth) {
            match cell {
                Some(o) if o.to_bits() != v.to_bits() => {
                    problem(format!("observed cell {o} came back as {v}"));
                }
                Some(_) => {}
                None if !v.is_finite() => problem("non-finite imputed cell".into()),
                None => {
                    local.sum_sq += (v - t) * (v - t);
                    local.missing_cells += 1;
                }
            }
        }
    }
    local.sum_sq_mean_fill += req.mean_fill_sq;
    if req.sampled {
        local.samples.push((req.rows.clone(), rows));
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(120)]
}

/// Parses `{"rows":[[n,...],...],"degraded":b}` — the server's response
/// shape — without building a document tree.
pub fn parse_rows(body: &str) -> Option<(Vec<Vec<f64>>, bool)> {
    let rest = body.strip_prefix("{\"rows\":[")?;
    let mut rows = Vec::new();
    let mut s = rest;
    loop {
        if let Some(r) = s.strip_prefix(']') {
            s = r;
            break;
        }
        s = s.strip_prefix(',').unwrap_or(s);
        let inner = s.strip_prefix('[')?;
        let end = inner.find(']')?;
        let row: Option<Vec<f64>> = if end == 0 {
            Some(Vec::new())
        } else {
            inner[..end].split(',').map(|v| v.parse().ok()).collect()
        };
        rows.push(row?);
        s = &inner[end + 1..];
    }
    let degraded = match s {
        ",\"degraded\":false}" => false,
        ",\"degraded\":true}" => true,
        _ => return None,
    };
    Some((rows, degraded))
}

/// Recomputes the sampled responses in process with `ImputeService` on the
/// bundle the server loaded; they must agree bit for bit.
fn verify_samples(step: &StepResult, bundle_path: &Path, out: &mut Outcome) {
    out.problems.extend(step.problems.iter().cloned());
    let bundle = match ModelBundle::load(bundle_path) {
        Ok(b) => b,
        Err(e) => {
            out.problems
                .push(format!("loading the bundle for the bit check: {e}"));
            return;
        }
    };
    let mut service = ImputeService::new(bundle, ExecPolicy::Serial, Telemetry::off());
    for (rows, served) in &step.samples {
        let expected = service.impute_rows(rows);
        let same = expected.rows.len() == served.len()
            && expected.rows.iter().zip(served).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            });
        out.check(same, || {
            "a served row differs from the in-process imputation".into()
        });
    }
    out.check(!step.samples.is_empty() || step.ok == 0, || {
        "no response was sampled for the bit check".into()
    });
}

/// Counts a step at or below the reference rate into the run. No request
/// there may fail: a 503, a timeout, a refused connection or any other
/// failure fails the run, so shedding or dropping slow requests can never
/// pass for lower latency.
fn count_step(step: &StepResult, name: &str, out: &mut Outcome) {
    out.attempted += step.attempted;
    out.failed += step.failed();
    out.check(step.failed() == 0, || {
        format!(
            "{} of {} requests failed in the {name} step ({} answered 503, {} timed out, {} refused, {} other)",
            step.failed(),
            step.attempted,
            step.status_503,
            step.timeouts,
            step.connect_errors,
            step.other_failures
        )
    });
}

fn report_reference(step: &StepResult, out: &mut Outcome) {
    let lat = sorted(&step.latency_ms);
    out.e2e.insert("p50_ms", percentile(&lat, 0.5));
    let cells = step.missing_cells.max(1) as f64;
    out.e2e.insert("rmse", (step.sum_sq / cells).sqrt());
    let l = &mut out.layer;
    l.insert(
        "imputers.mean_fill_rmse".into(),
        (step.sum_sq_mean_fill / cells).sqrt(),
    );
    l.insert(
        "cpu_us_per_row".into(),
        step.cpu_secs * 1e6 / step.rows_ok.max(1) as f64,
    );
    l.insert(
        "serve.server_cpu_us_per_req".into(),
        step.cpu_secs * 1e6 / step.ok.max(1) as f64,
    );
    l.insert("serve.p90_ms".into(), percentile(&lat, 0.9));
    l.insert("serve.p99_ms".into(), percentile(&lat, 0.99));
    l.insert("serve.latency_samples".into(), lat.len() as f64);
    l.insert("serve.achieved_rps".into(), step.ok as f64 / step.secs);
}

/// Client-side and server-side serving metrics of the traced step.
fn layer_metrics(step: &StepResult, access_log: &Path, l: &mut BTreeMap<String, f64>) {
    let p = |v: &[f64], q: f64| percentile(&sorted(v), q);
    l.insert("serve.sent".into(), step.attempted as f64);
    l.insert("serve.ok".into(), step.ok as f64);
    l.insert("serve.status_503".into(), step.status_503 as f64);
    l.insert("serve.timeouts".into(), step.timeouts as f64);
    l.insert("serve.connect_errors".into(), step.connect_errors as f64);
    l.insert("serve.other_failures".into(), step.other_failures as f64);
    l.insert(
        "serve.connects_per_req".into(),
        step.connects as f64 / step.attempted.max(1) as f64,
    );
    l.insert("serve.connect_us_p50".into(), p(&step.connect_us, 0.5));
    l.insert("serve.ttfb_ms_p50".into(), p(&step.ttfb_ms, 0.5));
    l.insert("serve.ttfb_ms_p99".into(), p(&step.ttfb_ms, 0.99));
    l.insert("serve.gen_lag_ms_p99".into(), p(&step.lag_ms, 0.99));
    // server-side latency per request, joined on the pinned trace ids
    let text = std::fs::read_to_string(access_log).unwrap_or_default();
    let mut server_ms: HashMap<String, f64> = HashMap::new();
    for line in text.lines() {
        let Ok(doc) = scis_serve::json::parse(line) else {
            continue;
        };
        if let (Some(id), Some(ns)) = (
            doc.get("trace_id").and_then(|v| v.as_str()),
            doc.get("latency_ns").and_then(|v| v.as_f64()),
        ) {
            server_ms.insert(id.to_string(), ns * 1e-6);
        }
    }
    let mut server = Vec::new();
    let mut queue_net = Vec::new();
    for (id, client) in &step.by_id {
        if let Some(&s) = server_ms.get(id) {
            server.push(s);
            queue_net.push(client - s);
        }
    }
    l.insert("serve.server_us_p50".into(), p(&server, 0.5) * 1e3);
    l.insert("serve.server_us_p99".into(), p(&server, 0.99) * 1e3);
    l.insert("serve.queue_net_ms_p50".into(), p(&queue_net, 0.5));
}

/// Batching counters from the server's own `/statz`.
fn statz_metrics(server: &ServerProc, l: &mut BTreeMap<String, f64>) {
    let Ok(resp) = get(server.addr, "/statz") else {
        return;
    };
    let Ok(doc) = scis_serve::json::parse(&resp.body) else {
        return;
    };
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    l.insert("serve.batches".into(), counter("serve_batches"));
    l.insert("serve.rejected".into(), counter("serve_rejected"));
    l.insert("serve.degraded".into(), counter("serve_degraded"));
    l.insert(
        "serve.rows_per_batch".into(),
        counter("serve_rows") / counter("serve_batches").max(1.0),
    );
}

/// A one-off GET on a fresh connection.
fn get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, DEADLINE).map_err(|e| format!("connect: {e}"))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: loadbench\r\n\r\n");
    let mut first = None;
    exchange(
        &mut stream,
        req.as_bytes(),
        Instant::now() + DEADLINE,
        &mut first,
    )
    .map_err(|_| format!("GET {path} failed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_rows_parse_exactly() {
        let body = "{\"rows\":[[0.1,2,-3.5e-7],[1,0.30000000000000004,5]],\"degraded\":false}";
        let (rows, degraded) = parse_rows(body).unwrap();
        assert!(!degraded);
        assert_eq!(rows[1][1].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(rows[0][2], -3.5e-7);
        assert_eq!(
            parse_rows("{\"rows\":[[1]],\"degraded\":true}"),
            Some((vec![vec![1.0]], true))
        );
        assert_eq!(parse_rows("{\"error\":\"x\"}"), None);
        assert_eq!(parse_rows("{\"rows\":[[1,null]],\"degraded\":false}"), None);
    }

    #[test]
    fn a_failed_request_fails_the_run() {
        let mut out = Outcome::default();
        let clean = StepResult {
            attempted: 100,
            ok: 100,
            ..Default::default()
        };
        count_step(&clean, "reference", &mut out);
        assert!(out.correct());
        for failing in [
            StepResult {
                status_503: 1,
                ..Default::default()
            },
            StepResult {
                timeouts: 1,
                ..Default::default()
            },
            StepResult {
                connect_errors: 1,
                ..Default::default()
            },
        ] {
            let step = StepResult {
                attempted: 100,
                ok: 99,
                ..failing
            };
            let mut out = Outcome::default();
            count_step(&step, "reference", &mut out);
            assert!(!out.correct());
            assert_eq!((out.attempted, out.failed), (100, 1));
        }
    }

    #[test]
    fn request_bodies_round_trip_through_the_server_parser() {
        let rows: Vec<ImputeRow> = vec![vec![Some(0.1 + 0.2), None, Some(-0.125)]];
        let one = request_body(&rows);
        assert_eq!(one, "{\"row\":[0.30000000000000004,null,-0.125]}");
        let doc = scis_serve::json::parse(&one).unwrap();
        let cells = doc.get("row").unwrap().as_arr().unwrap();
        assert_eq!(
            cells[0].as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        let two = request_body(&[rows[0].clone(), rows[0].clone()]);
        assert!(two.starts_with("{\"rows\":[["));
    }
}
