//! The two training workloads: in-memory `Scis::try_run` on a CSV the
//! benchmark writes, and out-of-core `Scis::try_run_streamed` over a spill
//! directory.
//!
//! A run repeats *jobs* — set up one input from a sub-seed, run the
//! pipeline once, check the output — for the measured time. Every job uses
//! fresh rows, so a run's median averages over several inputs rather than
//! resting on one draw.

use crate::gen::{mix, Table};
use crate::micro::{self, Shape};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::sys;
use crate::trace::{SpanId, Tracer};
use crate::Ctx;
use scis_core::dim::{AccelConfig, DimConfig};
use scis_core::guard::GuardConfig;
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::HeartbeatHook;
use scis_data::metrics::rmse_vs_ground_truth;
use scis_data::shard::{
    observed_column_means, RowSource, ShardError, ShardSink, ShardedDataset, SpillWriter,
};
use scis_data::{ColumnKind, Dataset, MinMaxScaler, ScaledSource};
use scis_imputers::mean::MeanImputer;
use scis_imputers::{AdversarialImputer, GainImputer, Imputer, TrainConfig};
use scis_ot::EscalationPolicy;
use scis_serve::bundle::{ColumnMeta, ModelBundle};
use scis_telemetry::{Counter, SpanKind, Telemetry};
use scis_tensor::{ExecPolicy, Matrix, Rng64};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run at least. A set-up takes tens of milliseconds, so a run
/// sets up more inputs than its one to three jobs need and reports the
/// median: one slow file write then cannot move `setup_s`.
const SETUPS: usize = 9;

/// Seed of the training RNG — a program setting, like `scis train --seed`.
/// Inputs vary with the workload seed; the training procedure does not.
const TRAIN_SEED: u64 = 42;

/// Adam's step size in every model the benchmark trains, ten times the
/// 0.005 the repository's examples use. Measured on one input of the
/// in-memory workload, its 24 steps at 0.005 left the model worse than
/// filling each column with its mean (RMSE 0.311 against 0.306); at 0.05
/// they beat it by a fifth (0.245).
pub const LEARNING_RATE: f64 = 0.05;

/// Everything that defines one training workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub rows: usize,
    pub cols: usize,
    pub missing: f64,
    pub batch: usize,
    pub n0: usize,
    pub epochs: usize,
    pub accel: AccelConfig,
    pub exec: ExecPolicy,
    pub sweeps: Sweeps,
    /// Rows per spill shard; `None` runs the in-memory pipeline.
    pub shard_rows: Option<usize>,
}

/// How a workload bounds its Sinkhorn solves.
#[derive(Debug, Clone, Copy)]
pub enum Sweeps {
    /// This sweep cap and no escalation.
    Fixed(usize),
    /// The program's default sweep cap and escalation ladder, cut after its
    /// first `rungs` escalations.
    Ladder { rungs: usize },
}

/// SSE's error bound ε in both training workloads: loose enough that SSE
/// accepts n* = n0 on every input, so no job retrains. SSE itself (the
/// calibration sibling, the Fisher probe and the Monte-Carlo search) runs
/// in full. Measured on a 2-vCPU VM, the default ε = 0.001 rejects n0 and
/// retrains on far more rows than a run can hold: train-b1024-f32's n* was
/// all 8,000 rows on three of three inputs (a 50 s retrain, 130 s jobs),
/// and stream-weather's was 80–90k of its 98k rows (minutes). Between the
/// two, at ε = 0.02, stream-weather's n* ranged from 400 to 2,692 (jobs of
/// 19–111 s), so no bound could hold its job time.
const EPSILON: f64 = 1.0;

/// In-memory, big-batch, f32 compute with the warm-start cache and the
/// decomposed cost kernel on two threads. 24 epochs of one batch each, so
/// the model beats mean fill, at a fixed cap of 5 sweeps per solve, so a
/// run usually holds two jobs: the warm-start cache carries the potentials from one
/// step to the next, and every solve does the same work. With the default
/// cap and ladder the work of a job varied ±10% between inputs, because a
/// solve costs 1×, 4× or 16× its cap depending on the data.
pub const TRAIN_B1024: Spec = Spec {
    rows: 8000,
    cols: 8,
    missing: 0.25,
    batch: 1024,
    n0: 1024,
    epochs: 24,
    accel: AccelConfig {
        warm_start: true,
        decomposed_cost: true,
        eps_scale_cold: true,
        f32_compute: true,
    },
    exec: ExecPolicy::Threads(2),
    sweeps: Sweeps::Fixed(5),
    shard_rows: None,
};

/// Weather shape at scale 0.02 (98,220 × 9, 21.56% missing), spilled in
/// 4096-row shards, the default f64 path with the default Sinkhorn cap and
/// the first rung of the default escalation ladder: about half the solves
/// at B = 128 miss the cap and are re-solved with ε-scaling (4 stages of up
/// to 800 sweeps). Measured on a 2-vCPU VM, the second rung (8 stages of up
/// to 3,200 sweeps) doubled a job and made its cost heavy-tailed: the
/// sweeps of a 3-epoch job varied 78–97k between inputs, against 37–40k
/// with one rung, and job times spread 22% between runs. n0 = 800: over
/// seven inputs the model's RMSE was 0.239–0.246, against 0.274 for mean
/// fill; trained on 400 rows for as many steps (5 epochs) it ranged
/// 0.225–0.266, and for 3 epochs it came within 4–10% of mean fill.
pub const STREAM_WEATHER: Spec = Spec {
    rows: 98_220,
    cols: 9,
    missing: 0.2156,
    batch: 128,
    n0: 800,
    epochs: 3,
    accel: AccelConfig {
        warm_start: false,
        decomposed_cost: false,
        eps_scale_cold: false,
        f32_compute: false,
    },
    exec: ExecPolicy::Serial,
    sweeps: Sweeps::Ladder { rungs: 1 },
    shard_rows: Some(4096),
};

impl Spec {
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch,
            learning_rate: LEARNING_RATE,
            dropout: 0.0,
        }
    }

    fn scis_config(&self) -> ScisConfig {
        let mut dim = DimConfig::default().train(self.train_config());
        let mut guard = GuardConfig::default();
        match self.sweeps {
            Sweeps::Fixed(cap) => {
                dim = dim.max_sinkhorn_iters(cap);
                guard = guard.sinkhorn_escalation(EscalationPolicy::none());
            }
            Sweeps::Ladder { rungs } => guard.sinkhorn_escalation.max_attempts = rungs,
        }
        ScisConfig::default()
            .dim(dim)
            .epsilon(EPSILON)
            .exec(self.exec)
            .accel(self.accel)
            .guard(guard)
    }

    pub fn shape(&self) -> Shape {
        Shape {
            batch: self.batch,
            cols: self.cols,
            exec: self.exec,
            precision: self.accel.precision(),
            decomposed_cost: self.accel.decomposed_cost,
            max_sinkhorn_iters: self.scis_config().dim.max_sinkhorn_iters,
        }
    }
}

/// One prepared input.
enum Input {
    Memory {
        ds: Dataset,
        truth: Matrix,
        scaler: MinMaxScaler,
        scaler_fit_ms: f64,
    },
    Spilled {
        table: Table,
        src: ShardedDataset,
        scaler: MinMaxScaler,
        scaler_fit_ms: f64,
        spill_bytes: u64,
        spill_write_s: f64,
        dir: std::path::PathBuf,
    },
}

/// What one job measured.
struct Job {
    ms: f64,
    cpu_us_per_row: f64,
    /// `VmHWM` after the job, reset before it.
    rss_mb: f64,
    rmse: f64,
    /// Cells `rmse` is over.
    missing_cells: u64,
    layer: BTreeMap<String, f64>,
    gain: GainImputer,
}

/// A run may end this many times its measured time after it starts.
const OVERRUN: f64 = 1.5;

/// Runs a training workload for `ctx.seconds` of jobs and reports its
/// metrics: jobs start until the measured time is used up, so the last one
/// ends past it, but none starts that would end past [`OVERRUN`] times
/// that, and at least [`SETUPS`] inputs are set up. A failed job fails the
/// run and ends it. Traced runs repeat every job on the same input with
/// telemetry, heartbeats and spans on; the difference is the tracing
/// overhead.
pub fn run(ctx: &Ctx, spec: Spec) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let bundle_path = ctx.tmp.join("micro.bundle");
    let mut setup_s = Vec::new();
    let mut plain: Vec<Job> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let start = Instant::now();
    let mut jobs_done = false;
    for j in 0u64.. {
        let t = Instant::now();
        let input = {
            let root = tracer.root(&format!("setup-{j}"), "bench");
            prepare(ctx, spec, j, root.id())
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if !jobs_done {
            out.attempted += 1;
            match job(spec, &input, &Tracer::off(), SpanId::NONE, &mut out) {
                Some(job) => plain.push(job),
                None => out.failed += 1,
            }
            if tracer.is_on() {
                let root = tracer.root(&format!("job-{j}"), "bench");
                if let Some(tj) = job(spec, &input, tracer, root.id(), &mut out) {
                    let (scaler, normalized) = input.normalized();
                    if let Err(e) = bundle_from(&tj.gain, scaler, &*normalized, spec.accel)
                        .and_then(|b| {
                            b.save(&bundle_path)
                                .map_err(|e| format!("saving the bundle: {e}"))
                        })
                    {
                        out.problems.push(e);
                    }
                    traced.push(tj);
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let per_job = elapsed / out.attempted as f64;
            jobs_done = out.failed > 0
                || elapsed >= ctx.seconds
                || elapsed + per_job > OVERRUN * ctx.seconds;
        }
        if let Input::Spilled { dir, .. } = &input {
            std::fs::remove_dir_all(dir).ok();
        }
        if jobs_done && setup_s.len() >= SETUPS {
            break;
        }
    }
    if plain.is_empty() {
        out.problems.push("no job succeeded".into());
        return out;
    }

    let col = |f: fn(&Job) -> f64, jobs: &[Job]| jobs.iter().map(f).collect::<Vec<f64>>();
    let ms = sorted(&col(|j| j.ms, &plain));
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("p50_ms", median(&ms));
    // pooled over every job's imputed cells: steadier than a median of
    // per-job values, whose inputs each hold only about 16,000 such cells
    let cells: u64 = plain.iter().map(|j| j.missing_cells).sum();
    let sum_sq: f64 = plain
        .iter()
        .map(|j| j.rmse * j.rmse * j.missing_cells as f64)
        .sum();
    out.e2e
        .insert("rmse", (sum_sq / cells.max(1) as f64).sqrt());
    // the first job's: later jobs reuse a heap earlier ones grew, so their
    // peaks read a few percent higher, and how many jobs a run holds
    // depends on the speed of the host
    out.e2e.insert("peak_rss_mb", plain[0].rss_mb);
    out.layer.insert(
        "cpu_us_per_row".into(),
        median(&col(|j| j.cpu_us_per_row, &plain)),
    );

    if !traced.is_empty() {
        let keys: Vec<String> = traced[0].layer.keys().cloned().collect();
        for k in keys {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|j| j.layer.get(&k).copied())
                .collect();
            out.layer.insert(k, median(&vals));
        }
        let traced_ms = median(&col(|j| j.ms, &traced));
        out.layer.insert(
            "telemetry.overhead_pct".into(),
            (traced_ms / median(&ms) - 1.0) * 100.0,
        );
        micro::run(spec.shape(), &bundle_path, tracer, &mut out.layer);
    }
    out
}

impl Input {
    /// The scaler and the scaled training input the pipeline saw.
    fn normalized(&self) -> (&MinMaxScaler, Box<dyn RowSource + '_>) {
        match self {
            Input::Memory { ds, scaler, .. } => (scaler, Box::new(ds.clone())),
            Input::Spilled { src, scaler, .. } => {
                (scaler, Box::new(ScaledSource::new(src, scaler)))
            }
        }
    }
}

/// Sets up the input of job `j`: writes and ingests a CSV (in memory) or
/// spills shards and fits the scaler over them (streamed).
fn prepare(ctx: &Ctx, spec: Spec, j: u64, parent: SpanId) -> Input {
    let tracer = &ctx.tracer;
    let table = Table::new(spec.cols, spec.missing, mix(ctx.seed, 10, j));
    match spec.shard_rows {
        None => {
            let (truth, observed) = {
                let _s = tracer.child(parent, "generate", "bench");
                table.matrices(spec.rows)
            };
            let path = ctx.tmp.join(format!("train-{j}.csv"));
            {
                let _s = tracer.child(parent, "csvio::write_dataset", "scis-data");
                scis_data::csvio::write_dataset(&path, &Dataset::from_values(observed))
                    .expect("writing the input CSV inside the run directory");
            }
            let raw = {
                let _s = tracer.child(parent, "csvio::read_dataset", "scis-data");
                scis_data::csvio::read_dataset(&path).expect("reading back the input CSV")
            };
            std::fs::remove_file(&path).ok();
            let _s = tracer.child(parent, "MinMaxScaler::fit_transform_dataset", "scis-data");
            let t = Instant::now();
            let (ds, scaler) = MinMaxScaler::fit_transform_dataset(&raw);
            let scaler_fit_ms = t.elapsed().as_secs_f64() * 1e3;
            Input::Memory {
                ds,
                truth: scaler.transform(&truth),
                scaler,
                scaler_fit_ms,
            }
        }
        Some(shard_rows) => {
            let dir = ctx.tmp.join(format!("spill-{j}"));
            let kinds = vec![ColumnKind::Continuous; spec.cols];
            let mut w = SpillWriter::create(&dir, spec.cols, kinds, shard_rows)
                .expect("creating the spill directory inside the run directory");
            let (mut t, mut o) = (vec![0.0; spec.cols], vec![0.0; spec.cols]);
            let mut write_s = 0.0;
            for start in (0..spec.rows).step_by(shard_rows) {
                let n = shard_rows.min(spec.rows - start);
                let block = {
                    let _s = tracer.child(parent, "generate", "bench");
                    let mut block = Matrix::zeros(n, spec.cols);
                    for i in 0..n {
                        table.row((start + i) as u64, &mut t, &mut o);
                        block.row_mut(i).copy_from_slice(&o);
                    }
                    block
                };
                let _s = tracer.child(parent, "SpillWriter::push_rows", "scis-data");
                let t = Instant::now();
                w.push_rows(&block).expect("writing a spill shard");
                write_s += t.elapsed().as_secs_f64();
            }
            let src = {
                let _s = tracer.child(parent, "SpillWriter::finish", "scis-data");
                let t = Instant::now();
                let src = w.finish().expect("finishing the spill");
                write_s += t.elapsed().as_secs_f64();
                src
            };
            let spill_bytes: u64 = std::fs::read_dir(&dir)
                .map(|d| {
                    d.filter_map(|e| e.ok()?.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0);
            let _s = tracer.child(parent, "MinMaxScaler::fit_source", "scis-data");
            let t = Instant::now();
            let scaler = MinMaxScaler::fit_source(&src).expect("reading the spill");
            let scaler_fit_ms = t.elapsed().as_secs_f64() * 1e3;
            Input::Spilled {
                table,
                src,
                scaler,
                scaler_fit_ms,
                spill_bytes,
                spill_write_s: write_s,
                dir,
            }
        }
    }
}

/// Runs the pipeline once on `input` and checks the output. Returns `None`
/// when the job failed (error or degraded output).
fn job(
    spec: Spec,
    input: &Input,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> Option<Job> {
    let traced = tracer.is_on();
    let tel = if traced {
        Telemetry::collecting()
    } else {
        Telemetry::off()
    };
    let beats = SharedBuf::default();
    let heartbeat = if traced {
        HeartbeatHook::to_writer(Box::new(beats.clone()), Duration::ZERO)
    } else {
        HeartbeatHook::off()
    };
    let scis = Scis::new(spec.scis_config())
        .telemetry(tel.clone())
        .heartbeat(heartbeat);
    let mut gain = GainImputer::new(spec.train_config());
    let mut rng = Rng64::seed_from_u64(TRAIN_SEED);
    let mut layer = BTreeMap::new();
    let (Input::Memory { scaler_fit_ms, .. } | Input::Spilled { scaler_fit_ms, .. }) = input;
    layer.insert("data.scaler_fit_ms".into(), *scaler_fit_ms);
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_secs("self");
    let t0 = Instant::now();
    let (elapsed, n_star, degraded, (rmse, missing_cells), mean_fill_rmse) = match input {
        Input::Memory { ds, truth, .. } => {
            let run = {
                let _s = tracer.child(parent, "Scis::try_run", "scis-core");
                scis.try_run(&mut gain, ds, spec.n0, &mut rng)
            };
            let elapsed = t0.elapsed();
            let outcome = match run {
                Ok(o) => o,
                Err(e) => {
                    out.problems.push(format!("try_run: {e}"));
                    return None;
                }
            };
            let _c = tracer.child(parent, "check", "bench");
            let imputed = &outcome.imputed;
            out.check(imputed.as_slice().iter().all(|v| v.is_finite()), || {
                "non-finite imputed cell".into()
            });
            out.check(
                ds.observed_cells()
                    .all(|(i, j, v)| imputed[(i, j)].to_bits() == v.to_bits()),
                || "an observed cell changed".into(),
            );
            let mean_filled = MeanImputer.impute(ds, &mut Rng64::seed_from_u64(0));
            (
                elapsed,
                outcome.n_star,
                outcome.anomalies.is_degraded(),
                (
                    rmse_vs_ground_truth(ds, truth, imputed),
                    ds.values.as_slice().iter().filter(|v| v.is_nan()).count() as u64,
                ),
                rmse_vs_ground_truth(ds, truth, &mean_filled),
            )
        }
        Input::Spilled {
            table,
            src,
            scaler,
            spill_bytes,
            spill_write_s,
            ..
        } => {
            layer.insert("data.spill_bytes".into(), *spill_bytes as f64);
            layer.insert(
                "data.spill_write_mb_s".into(),
                *spill_bytes as f64 / (1 << 20) as f64 / spill_write_s,
            );
            let scaled = ScaledSource::new(src, scaler);
            let span = tracer.child(parent, "Scis::try_run_streamed", "scis-core");
            let counted = CountingSource {
                inner: &scaled,
                tracer,
                parent: span.id(),
                loads: Cell::new(0),
                bytes: Cell::new(0),
                load_ns: Cell::new(0),
            };
            let mut sink = RmseSink::new(table, scaler, tracer, span.id());
            let run = scis.try_run_streamed(&mut gain, &counted, spec.n0, &mut rng, &mut sink);
            let elapsed = t0.elapsed();
            drop(span);
            let outcome = match run {
                Ok(o) => o,
                Err(e) => {
                    out.problems.push(format!("try_run_streamed: {e}"));
                    return None;
                }
            };
            out.check(
                sink.rows == spec.rows as u64 && outcome.rows_written == spec.rows,
                || {
                    format!(
                        "the sink saw {} rows, the source has {}",
                        sink.rows, spec.rows
                    )
                },
            );
            out.problems.append(&mut sink.problems);
            layer.insert("data.shard_loads".into(), counted.loads.get() as f64);
            let load_s = counted.load_ns.get() as f64 * 1e-9;
            layer.insert("data.shard_read_ms".into(), load_s * 1e3);
            if load_s > 0.0 {
                layer.insert(
                    "data.shard_read_mb_s".into(),
                    counted.bytes.get() as f64 / (1 << 20) as f64 / load_s,
                );
            }
            if let (Some(a), Some(b)) = (sink.first_push, sink.last_push) {
                layer.insert("data.impute_pass_s".into(), (b - a).as_secs_f64());
            }
            (
                elapsed,
                outcome.n_star,
                outcome.anomalies.is_degraded(),
                (sink.rmse(), sink.missing),
                sink.mean_fill_rmse(),
            )
        }
    };
    finish(
        spec,
        out,
        Finished {
            elapsed,
            cpu0,
            n_star,
            degraded,
            rmse,
            missing_cells,
            mean_fill_rmse,
            tel: &tel,
            beats: &beats,
            layer,
            gain,
        },
    )
}

struct Finished<'a> {
    elapsed: Duration,
    cpu0: Option<f64>,
    n_star: usize,
    degraded: bool,
    rmse: f64,
    missing_cells: u64,
    mean_fill_rmse: f64,
    tel: &'a Telemetry,
    beats: &'a SharedBuf,
    layer: BTreeMap<String, f64>,
    gain: GainImputer,
}

/// Shared tail of a job: the degraded gate, accounting, and (traced) the
/// telemetry counters, phase times and heartbeat epoch times.
fn finish(spec: Spec, out: &mut Outcome, f: Finished<'_>) -> Option<Job> {
    let cpu = match (f.cpu0, sys::cpu_secs("self")) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    out.check(f.n_star >= spec.n0, || {
        format!("n* = {} below n0", f.n_star)
    });
    if f.degraded {
        out.problems.push("the pipeline degraded its output".into());
        return None;
    }
    let mut layer = f.layer;
    layer.insert("imputers.mean_fill_rmse".into(), f.mean_fill_rmse);
    if f.tel.is_enabled() {
        pipeline_metrics(f.tel, f.n_star, &f.beats.text(), &mut layer);
    }
    Some(Job {
        rss_mb: sys::peak_rss_mib("self").unwrap_or(f64::NAN),
        ms: f.elapsed.as_secs_f64() * 1e3,
        cpu_us_per_row: cpu * 1e6 / spec.rows as f64,
        rmse: f.rmse,
        missing_cells: f.missing_cells,
        layer,
        gain: f.gain,
    })
}

/// Per-layer metrics of one pipeline run: solver, network and phase
/// counters from its telemetry, and epoch times from its heartbeats.
pub fn pipeline_metrics(
    t: &Telemetry,
    n_star: usize,
    beats: &str,
    layer: &mut BTreeMap<String, f64>,
) {
    let solves = t.counter(Counter::SinkhornSolves) as f64;
    let mut put = |k: &str, v: f64| {
        layer.insert(k.to_string(), v);
    };
    let iterations = t.counter(Counter::SinkhornIterations) as f64;
    put("ot.solves", solves);
    put("ot.iterations", iterations);
    put("ot.iters_per_solve", iterations / solves.max(1.0));
    put(
        "ot.escalations",
        t.counter(Counter::SinkhornEscalations) as f64,
    );
    put(
        "ot.unconverged",
        t.counter(Counter::SinkhornUnconverged) as f64,
    );
    put(
        "ot.warm_hit_rate",
        t.counter(Counter::WarmStartHits) as f64 / solves.max(1.0),
    );
    put("ot.iters_saved", t.counter(Counter::ItersSaved) as f64);
    put("nn.forwards", t.counter(Counter::NnForwards) as f64);
    put("nn.backwards", t.counter(Counter::NnBackwards) as f64);
    put("core.train_initial_s", t.span_secs(SpanKind::TrainInitial));
    // the calibration span is nested inside the SSE span
    let calibration = t.span_secs(SpanKind::Calibration);
    put("core.calibration_s", calibration);
    put("core.sse_self_s", t.span_secs(SpanKind::Sse) - calibration);
    put("core.retrain_s", t.span_secs(SpanKind::Retrain));
    put("core.impute_s", t.span_secs(SpanKind::Impute));
    put("core.dim_batches", t.counter(Counter::DimBatches) as f64);
    put(
        "core.batches_skipped",
        t.counter(Counter::DimBatchesSkipped) as f64,
    );
    put(
        "core.guard_rollbacks",
        t.counter(Counter::GuardRollbacks) as f64,
    );
    put("core.sse_mc_evals", t.counter(Counter::SseMcEvals) as f64);
    put("core.n_star", n_star as f64);
    let epochs = sorted(&epoch_ms(beats));
    if !epochs.is_empty() {
        put("core.epoch_ms_p50", percentile(&epochs, 0.5));
        put("core.epoch_ms_p90", percentile(&epochs, 0.9));
    }
}

/// Durations between consecutive heartbeats of the same training phase
/// (one heartbeat per finished epoch), in ms.
pub fn epoch_ms(jsonl: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut prev: Option<(String, f64, f64)> = None;
    for line in jsonl.lines() {
        let Ok(doc) = scis_serve::json::parse(line) else {
            continue;
        };
        let phase = doc.get("phase").and_then(|v| v.as_str()).unwrap_or("");
        let epoch = doc.get("epoch").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let at = doc
            .get("elapsed_secs")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if let Some((p, e, t)) = &prev {
            if p == phase && epoch == e + 1.0 {
                out.push((at - t) * 1e3);
            }
        }
        prev = Some((phase.to_string(), epoch, at));
    }
    out
}

/// Assembles a serving bundle from a trained imputer, as `scis train
/// --save-model` does: the generator, the scaler that normalized the
/// training input, and per-column observed means (the degraded-path fill)
/// from `normalized`, the training input after scaling.
pub fn bundle_from(
    gain: &GainImputer,
    scaler: &MinMaxScaler,
    normalized: &dyn RowSource,
    accel: AccelConfig,
) -> Result<ModelBundle, String> {
    let mut gain = gain.clone();
    let spec = gain.generator_spec();
    let generator = gain.generator_mut().clone();
    let means = observed_column_means(normalized).map_err(|e| format!("column means: {e}"))?;
    let columns = means
        .iter()
        .enumerate()
        .map(|(j, m)| ColumnMeta {
            name: format!("c{j}"),
            kind: ColumnKind::Continuous,
            mean: m * scaler.spans()[j] + scaler.mins()[j],
        })
        .collect();
    ModelBundle::new(generator, spec, scaler.clone(), columns, accel)
        .map_err(|e| format!("assembling the bundle: {e}"))
}

/// A heartbeat writer the benchmark can read back.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("heartbeat buffer")).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("heartbeat buffer")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Wraps the pipeline's source to count (and, traced, time) shard loads.
struct CountingSource<'a> {
    inner: &'a dyn RowSource,
    tracer: &'a Tracer,
    parent: SpanId,
    loads: Cell<u64>,
    bytes: Cell<u64>,
    load_ns: Cell<u64>,
}

impl RowSource for CountingSource<'_> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }
    fn kinds(&self) -> &[ColumnKind] {
        self.inner.kinds()
    }
    fn shard_rows(&self) -> usize {
        self.inner.shard_rows()
    }
    fn load_shard(&self, k: usize) -> Result<Dataset, ShardError> {
        let _s = self.tracer.child(self.parent, "load_shard", "scis-data");
        let t = Instant::now();
        let shard = self.inner.load_shard(k)?;
        self.load_ns
            .set(self.load_ns.get() + t.elapsed().as_nanos() as u64);
        self.loads.set(self.loads.get() + 1);
        self.bytes
            .set(self.bytes.get() + (shard.values.len() * 8) as u64);
        Ok(shard)
    }
}

/// The streamed pipeline's output sink. It stores nothing: each pushed row
/// is checked against the input row regenerated from its index, and the
/// squared error of its imputed cells is folded into a running sum, so
/// memory stays O(1) in the number of rows.
pub struct RmseSink<'a> {
    table: &'a Table,
    mins: Vec<f64>,
    spans: Vec<f64>,
    tracer: &'a Tracer,
    parent: SpanId,
    pub rows: u64,
    sum_sq: f64,
    /// Missing cells seen so far.
    pub missing: u64,
    /// Per column, what the RMSE of filling it with its observed mean needs.
    columns: Vec<ColumnFold>,
    pub problems: Vec<String>,
    pub first_push: Option<Instant>,
    pub last_push: Option<Instant>,
    truth: Vec<f64>,
    observed: Vec<f64>,
}

impl<'a> RmseSink<'a> {
    pub fn new(
        table: &'a Table,
        scaler: &MinMaxScaler,
        tracer: &'a Tracer,
        parent: SpanId,
    ) -> Self {
        let d = table.cols();
        RmseSink {
            table,
            mins: scaler.mins().to_vec(),
            spans: scaler.spans().to_vec(),
            tracer,
            parent,
            rows: 0,
            sum_sq: 0.0,
            missing: 0,
            columns: vec![ColumnFold::default(); d],
            problems: Vec::new(),
            first_push: None,
            last_push: None,
            truth: vec![0.0; d],
            observed: vec![0.0; d],
        }
    }

    /// RMSE over the missing cells seen so far, in normalized units.
    pub fn rmse(&self) -> f64 {
        (self.sum_sq / self.missing.max(1) as f64).sqrt()
    }

    /// RMSE of `MeanImputer` on the rows seen so far: each missing cell
    /// filled with its column's observed mean (0.5 for a column with none).
    /// Per column, Σ (m − t)² = c·m² − 2·m·Σt + Σt² over its missing cells.
    pub fn mean_fill_rmse(&self) -> f64 {
        let sum_sq: f64 = self
            .columns
            .iter()
            .map(|c| {
                let m = if c.observed > 0 {
                    c.observed_sum / c.observed as f64
                } else {
                    0.5
                };
                c.missing as f64 * m * m - 2.0 * m * c.truth_sum + c.truth_sq
            })
            .sum();
        (sum_sq.max(0.0) / self.missing.max(1) as f64).sqrt()
    }
}

/// Running sums of one column in [`RmseSink`].
#[derive(Debug, Clone, Default)]
struct ColumnFold {
    observed: u64,
    observed_sum: f64,
    missing: u64,
    /// Sum and sum of squares of the ground truth at missing cells.
    truth_sum: f64,
    truth_sq: f64,
}

impl ShardSink for RmseSink<'_> {
    fn push_rows(&mut self, block: &Matrix) -> Result<(), ShardError> {
        let _s = self.tracer.child(self.parent, "sink.push_rows", "bench");
        self.first_push.get_or_insert_with(Instant::now);
        for i in 0..block.rows() {
            self.table
                .row(self.rows, &mut self.truth, &mut self.observed);
            for (j, &v) in block.row(i).iter().enumerate() {
                // the same map `MinMaxScaler::transform` applies
                let scale = |x: f64| (x - self.mins[j]) / self.spans[j];
                let o = self.observed[j];
                let column = &mut self.columns[j];
                if o.is_nan() {
                    if !v.is_finite() && self.problems.len() < 8 {
                        self.problems.push(format!(
                            "row {} col {j}: non-finite imputed cell",
                            self.rows
                        ));
                    }
                    let t = scale(self.truth[j]);
                    self.sum_sq += (v - t) * (v - t);
                    self.missing += 1;
                    column.missing += 1;
                    column.truth_sum += t;
                    column.truth_sq += t * t;
                    continue;
                }
                column.observed += 1;
                column.observed_sum += v;
                if v.to_bits() != scale(o).to_bits() && self.problems.len() < 8 {
                    self.problems
                        .push(format!("row {} col {j}: observed cell changed", self.rows));
                }
            }
            self.rows += 1;
        }
        self.last_push = Some(Instant::now());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_rmses_equal_rmse_vs_ground_truth() {
        let table = Table::new(5, 0.3, 11);
        let (truth, observed) = table.matrices(300);
        let raw = Dataset::from_values(observed);
        let (ds, scaler) = MinMaxScaler::fit_transform_dataset(&raw);
        let truth = scaler.transform(&truth);
        // an "imputation": observed cells kept, missing cells filled with a
        // row-dependent guess
        let imputed = Matrix::from_fn(300, 5, |i, j| {
            let v = ds.values[(i, j)];
            if v.is_nan() {
                (i % 7) as f64 / 7.0
            } else {
                v
            }
        });
        let tracer = Tracer::off();
        let mut sink = RmseSink::new(&table, &scaler, &tracer, SpanId::NONE);
        let head: Vec<usize> = (0..128).collect();
        let tail: Vec<usize> = (128..300).collect();
        sink.push_rows(&imputed.select_rows(&head)).unwrap();
        sink.push_rows(&imputed.select_rows(&tail)).unwrap();
        assert!(sink.problems.is_empty(), "{:?}", sink.problems);
        assert_eq!(sink.rows, 300);
        let expected = rmse_vs_ground_truth(&ds, &truth, &imputed);
        assert!(
            (sink.rmse() - expected).abs() <= 1e-12 * expected,
            "{} vs {expected}",
            sink.rmse()
        );
        let mean_filled = MeanImputer.impute(&ds, &mut Rng64::seed_from_u64(0));
        let expected = rmse_vs_ground_truth(&ds, &truth, &mean_filled);
        assert!(
            (sink.mean_fill_rmse() - expected).abs() <= 1e-9 * expected,
            "{} vs {expected}",
            sink.mean_fill_rmse()
        );

        // a changed observed cell is caught
        let mut broken = imputed.clone();
        let (i, j, _) = ds.observed_cells().next().unwrap();
        broken[(i, j)] += 1e-9;
        let mut sink = RmseSink::new(&table, &scaler, &tracer, SpanId::NONE);
        sink.push_rows(&broken).unwrap();
        assert_eq!(sink.problems.len(), 1);
    }

    #[test]
    fn epoch_times_come_from_same_phase_heartbeats() {
        let beats = concat!(
            "{\"phase\":\"initial\",\"epoch\":1,\"elapsed_secs\":0.5}\n",
            "{\"phase\":\"initial\",\"epoch\":2,\"elapsed_secs\":0.75}\n",
            "{\"phase\":\"calibration\",\"epoch\":1,\"elapsed_secs\":1.0}\n",
            "{\"phase\":\"calibration\",\"epoch\":2,\"elapsed_secs\":1.5}\n",
            "{\"phase\":\"impute\",\"epoch\":0,\"elapsed_secs\":1.6}\n"
        );
        assert_eq!(epoch_ms(beats), vec![250.0, 500.0]);
    }
}
