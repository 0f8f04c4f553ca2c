//! Command-line implementation behind the `scis` multitool.
//!
//! The public surface is four subcommands over one flag vocabulary:
//!
//! * `scis train INPUT OUTPUT [flags]` — the full SSE pipeline;
//!   `--save-model` writes a self-contained [`ModelBundle`] artifact.
//! * `scis impute INPUT OUTPUT --model PATH [--threads t]` — apply-only:
//!   load a bundle (or a bare v2 generator file) and fill a CSV without
//!   training.
//! * `scis serve --model PATH [--addr a] [--threads t] …` — the online
//!   server from `scis-serve`.
//! * `scis report FILE…` — render any of the repo's JSON artifacts (run
//!   reports, bench files, `/statz` captures) as an indented summary.
//!
//! The global flags `--threads`, `--trace-json`, `--events`, and
//! `--profile` may also appear *before* the subcommand; they are forwarded
//! into it.
//!
//! `train` and `impute` read their input in memory, or with `--shard-rows`
//! spill it to checksummed shards first; either way one code path runs
//! over the input as a [`RowSource`] (the in-memory dataset is a one-shard
//! source) and writes the output CSV shard by shard, so both modes write
//! the same bytes.
//!
//! Exit codes (train/impute): `0` clean, `1` error, `2` degraded output,
//! `3` deadline-exceeded (precedence over 2).

use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::{CheckpointPolicy, RunAnomalies, StreamOutcome, TrainCheckpoint};
use scis_data::csvio::{read_dataset, CsvRows, CsvWriter};
use scis_data::dataset::{infer_kinds_source, ColumnKind};
use scis_data::normalize::MinMaxScaler;
use scis_data::shard::{ShardError, ShardSink, SpillWriter};
use scis_data::validate::validate_source;
use scis_data::{Dataset, RowSource, ScaledSource, ShardedDataset};
use scis_imputers::knn::KnnImputer;
use scis_imputers::mean::MeanImputer;
use scis_imputers::mice::MiceImputer;
use scis_imputers::missforest::MissForestImputer;
use scis_imputers::vaei::VaeImputer;
use scis_imputers::{AdversarialImputer, GainImputer, GinnImputer, Imputer, TrainConfig};
use scis_serve::batcher::BatchConfig;
use scis_serve::bundle::{ColumnMeta, ModelBundle};
use scis_serve::server::{Server, ServerConfig};
use scis_serve::service::{ImputeRow, ImputeService};
use scis_tensor::ExecPolicy;
use scis_tensor::{Matrix, Rng64};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Entry point for the `scis` multitool.
pub fn run_scis() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // global flags may precede the subcommand; forward them into it
    let mut forwarded: Vec<String> = Vec::new();
    while let Some(first) = argv.first().cloned() {
        match first.as_str() {
            "--threads" | "--trace-json" | "--events" => {
                if argv.len() < 2 {
                    eprintln!("error: {} needs a value\n{}", first, TOP_USAGE);
                    return ExitCode::FAILURE;
                }
                forwarded.push(argv.remove(0));
                forwarded.push(argv.remove(0));
            }
            "--profile" => forwarded.push(argv.remove(0)),
            _ => break,
        }
    }
    let Some(sub) = argv.first().cloned() else {
        eprintln!("error: missing subcommand\n{}", TOP_USAGE);
        return ExitCode::FAILURE;
    };
    let mut rest: Vec<String> = argv.into_iter().skip(1).collect();
    rest.extend(forwarded);
    match sub.as_str() {
        "train" => finish(run_train("scis", rest)),
        "impute" => finish(run_impute("scis", rest)),
        "serve" => finish(run_serve("scis", rest)),
        "report" => finish(run_report(rest)),
        "--help" | "-h" | "help" => {
            println!("{}", TOP_USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown subcommand {:?}\n{}", other, TOP_USAGE);
            ExitCode::FAILURE
        }
    }
}

const TOP_USAGE: &str = "usage: scis [--threads t] [--trace-json p] [--events p] [--profile] <subcommand>\n\
subcommands:\n  \
train INPUT.csv OUTPUT.csv [flags]   train (SSE pipeline) and impute; --save-model writes a model bundle; --shard-rows streams out of core\n  \
impute INPUT.csv OUTPUT.csv --model PATH [--threads t] [--shard-rows n]   apply a saved model, no training\n  \
serve --model PATH [--addr host:port] [--threads t] [--queue-cap n] [--batch-rows n] [--access-log p]   online HTTP server\n  \
report FILE.json [...]   summarize run-report / bench / statz JSON artifacts plus heartbeat / access-log JSONL streams";

/// Outcome flags that decide the process exit code.
#[derive(Default)]
struct RunFlags {
    /// The fault-tolerant runtime had to degrade the output (exit code 2).
    degraded: bool,
    /// The `--deadline-secs` budget expired; the output comes from the best
    /// model trained so far (exit code 3, takes precedence over 2).
    deadline_exceeded: bool,
}

impl From<&RunAnomalies> for RunFlags {
    fn from(a: &RunAnomalies) -> Self {
        Self {
            degraded: a.is_degraded(),
            deadline_exceeded: a.deadline_exceeded,
        }
    }
}

fn finish(result: Result<RunFlags, String>) -> ExitCode {
    match result {
        Ok(flags) if flags.deadline_exceeded => ExitCode::from(3),
        Ok(flags) if flags.degraded => ExitCode::from(2),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e);
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// train — the full pipeline
// ---------------------------------------------------------------------------

struct TrainArgs {
    input: PathBuf,
    output: PathBuf,
    method: String,
    epsilon: f64,
    n0: Option<usize>,
    epochs: usize,
    threads: Option<usize>,
    seed: u64,
    save_model: Option<PathBuf>,
    load_model: Option<PathBuf>,
    trace_json: Option<PathBuf>,
    events: Option<PathBuf>,
    profile: bool,
    accel: bool,
    accel_f32: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: Option<PathBuf>,
    deadline_secs: Option<f64>,
    shard_rows: Option<usize>,
    spill_dir: Option<PathBuf>,
    progress: Option<PathBuf>,
    progress_interval_secs: f64,
}

fn parse_train_args(argv: Vec<String>) -> Result<TrainArgs, String> {
    let mut args = argv.into_iter();
    let input = PathBuf::from(args.next().ok_or("missing INPUT.csv")?);
    let output = PathBuf::from(args.next().ok_or("missing OUTPUT.csv")?);
    let mut parsed = TrainArgs {
        input,
        output,
        method: "scis-gain".into(),
        epsilon: 0.001,
        n0: None,
        epochs: 100,
        threads: None,
        seed: 42,
        save_model: None,
        load_model: None,
        trace_json: None,
        events: None,
        profile: false,
        accel: false,
        accel_f32: false,
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: None,
        deadline_secs: None,
        shard_rows: None,
        spill_dir: None,
        progress: None,
        progress_interval_secs: 0.0,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{} needs a value", flag));
        match flag.as_str() {
            "--method" => parsed.method = value()?,
            "--epsilon" => {
                parsed.epsilon = value()?.parse().map_err(|e| format!("--epsilon: {}", e))?
            }
            "--n0" => parsed.n0 = Some(value()?.parse().map_err(|e| format!("--n0: {}", e))?),
            "--epochs" => {
                parsed.epochs = value()?.parse().map_err(|e| format!("--epochs: {}", e))?
            }
            "--threads" => {
                parsed.threads = Some(value()?.parse().map_err(|e| format!("--threads: {}", e))?)
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {}", e))?,
            "--save-model" => parsed.save_model = Some(PathBuf::from(value()?)),
            "--load-model" => parsed.load_model = Some(PathBuf::from(value()?)),
            "--trace-json" => parsed.trace_json = Some(PathBuf::from(value()?)),
            "--events" => parsed.events = Some(PathBuf::from(value()?)),
            "--profile" => parsed.profile = true,
            "--accel" => parsed.accel = true,
            "--accel-f32" => {
                // f32 compute implies the rest of the accelerated path
                parsed.accel = true;
                parsed.accel_f32 = true;
            }
            "--checkpoint-dir" => parsed.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => {
                parsed.checkpoint_every = value()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {}", e))?
            }
            "--resume" => parsed.resume = Some(PathBuf::from(value()?)),
            "--deadline-secs" => {
                parsed.deadline_secs = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--deadline-secs: {}", e))?,
                )
            }
            "--shard-rows" => {
                parsed.shard_rows = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--shard-rows: {}", e))?,
                )
            }
            "--spill-dir" => parsed.spill_dir = Some(PathBuf::from(value()?)),
            "--progress" => parsed.progress = Some(PathBuf::from(value()?)),
            "--progress-interval-secs" => {
                parsed.progress_interval_secs = value()?
                    .parse()
                    .map_err(|e| format!("--progress-interval-secs: {}", e))?
            }
            other => return Err(format!("unknown flag {}", other)),
        }
    }
    if parsed.epochs == 0 {
        return Err("--epochs must be at least 1".into());
    }
    if parsed.method != "scis-gain" && (parsed.save_model.is_some() || parsed.load_model.is_some())
    {
        return Err(format!(
            "--save-model/--load-model only apply to --method scis-gain (got {:?})",
            parsed.method
        ));
    }
    if parsed.accel && parsed.method != "scis-gain" {
        return Err(format!(
            "--accel/--accel-f32 only apply to --method scis-gain (got {:?})",
            parsed.method
        ));
    }
    if parsed.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if parsed.checkpoint_every != 1 && parsed.checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir".into());
    }
    if parsed.resume.is_some() && parsed.load_model.is_some() {
        return Err("--resume is incompatible with --load-model (no training runs)".into());
    }
    if let Some(d) = parsed.deadline_secs {
        if !d.is_finite() || d <= 0.0 {
            return Err(format!(
                "--deadline-secs must be a positive finite number (got {})",
                d
            ));
        }
    }
    if parsed.shard_rows == Some(0) {
        return Err("--shard-rows must be at least 1".into());
    }
    if !parsed.progress_interval_secs.is_finite() || parsed.progress_interval_secs < 0.0 {
        return Err(format!(
            "--progress-interval-secs must be a non-negative finite number (got {})",
            parsed.progress_interval_secs
        ));
    }
    if parsed.progress_interval_secs > 0.0 && parsed.progress.is_none() {
        return Err("--progress-interval-secs requires --progress".into());
    }
    if parsed.spill_dir.is_some() && parsed.shard_rows.is_none() {
        return Err("--spill-dir requires --shard-rows".into());
    }
    if parsed.shard_rows.is_some() && parsed.save_model.is_some() {
        return Err(
            "--shard-rows is incompatible with --save-model (the bundle needs the \
             in-memory input; train without --shard-rows to export a model)"
                .into(),
        );
    }
    for (set, flag) in [
        (parsed.trace_json.is_some(), "--trace-json"),
        (parsed.events.is_some(), "--events"),
        (parsed.profile, "--profile"),
        (parsed.checkpoint_dir.is_some(), "--checkpoint-dir"),
        (parsed.resume.is_some(), "--resume"),
        (parsed.deadline_secs.is_some(), "--deadline-secs"),
        (parsed.shard_rows.is_some(), "--shard-rows"),
        (parsed.spill_dir.is_some(), "--spill-dir"),
        (parsed.progress.is_some(), "--progress"),
    ] {
        if !set {
            continue;
        }
        if parsed.method != "scis-gain" {
            return Err(format!(
                "{} only applies to --method scis-gain (got {:?})",
                flag, parsed.method
            ));
        }
        if parsed.load_model.is_some() {
            return Err(format!(
                "{} is incompatible with --load-model (no pipeline runs)",
                flag
            ));
        }
    }
    Ok(parsed)
}

/// Prints the fault-tolerant runtime's recovery summary to stderr.
fn report_anomalies(prog: &str, a: &scis_core::RunAnomalies) {
    if a.is_clean() {
        return;
    }
    eprintln!(
        "{}: anomalies — {} NaN batches skipped, {} rollbacks, {} LR backoffs, \
         {} sinkhorn escalations ({} unconverged), {} non-finite cells patched",
        prog,
        a.nan_batches_skipped,
        a.rollbacks,
        a.lr_backoffs,
        a.sinkhorn_escalations,
        a.sinkhorn_unconverged,
        a.non_finite_cells_patched,
    );
    if !a.all_missing_columns.is_empty() {
        eprintln!(
            "{}: columns with no observed cells: {:?}",
            prog, a.all_missing_columns
        );
    }
    if !a.constant_columns.is_empty() {
        eprintln!("{}: constant columns: {:?}", prog, a.constant_columns);
    }
    for note in &a.notes {
        eprintln!("{}: recovery: {}", prog, note);
    }
}

/// Writes the flight recorder's buffered event stream as JSON Lines.
fn write_events(prog: &str, path: &Path, tel: &scis_telemetry::Telemetry) -> Result<(), String> {
    let events = tel.events();
    let mut out = String::new();
    for ev in &events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("writing events {:?}: {}", path, e))?;
    eprintln!(
        "{}: wrote {} flight-recorder events to {:?}",
        prog,
        events.len(),
        path
    );
    Ok(())
}

/// Resolves `--threads` to an [`ExecPolicy`]: `0` forces serial execution,
/// `n ≥ 1` pins `n` workers, and an absent flag defers to `SCIS_THREADS` /
/// the machine's available parallelism.
fn threads_policy(threads: Option<usize>) -> ExecPolicy {
    match threads {
        Some(0) => ExecPolicy::Serial,
        Some(n) => ExecPolicy::threads(n),
        None => ExecPolicy::Auto,
    }
}

/// Mean of the observed (non-NaN) cells of column `j` in original units;
/// NaN when the column has no observed cells (the bundle's fallback row
/// degrades that to 0.0).
fn observed_mean(ds: &Dataset, j: usize) -> f64 {
    let mut sum = 0.0;
    let mut count = 0u64;
    for i in 0..ds.n_samples() {
        let v = ds.values[(i, j)];
        if !v.is_nan() {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// Assembles the serving artifact from a trained GAIN imputer plus the
/// training input's schema and scaler.
fn build_bundle(
    gain: &mut GainImputer,
    orig: &Dataset,
    scaler: &MinMaxScaler,
    accel: scis_core::dim::AccelConfig,
) -> Result<ModelBundle, String> {
    let spec = gain.generator_spec();
    let generator = gain.generator_mut().clone();
    let columns = (0..orig.n_features())
        .map(|j| ColumnMeta {
            name: format!("c{}", j),
            kind: orig.kinds[j].clone(),
            mean: observed_mean(orig, j),
        })
        .collect();
    ModelBundle::new(generator, spec, scaler.clone(), columns, accel)
        .map_err(|e| format!("assembling model bundle: {}", e))
}

/// The `AccelConfig` a parsed command line asks for.
fn accel_config(args: &TrainArgs) -> scis_core::dim::AccelConfig {
    if args.accel_f32 {
        scis_core::dim::AccelConfig::all_f32()
    } else if args.accel {
        scis_core::dim::AccelConfig::all()
    } else {
        scis_core::dim::AccelConfig::default()
    }
}

/// The heartbeat hook a parsed command line asks for: `--progress -`
/// streams JSONL to stdout (stderr keeps the human log), any other value
/// creates/truncates that file. An absent flag costs nothing.
fn heartbeat_hook(args: &TrainArgs) -> Result<scis_core::HeartbeatHook, String> {
    let Some(path) = &args.progress else {
        return Ok(scis_core::HeartbeatHook::off());
    };
    let writer: Box<dyn std::io::Write + Send> = if path.as_os_str() == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(
            std::fs::File::create(path)
                .map_err(|e| format!("creating progress file {:?}: {}", path, e))?,
        )
    };
    Ok(scis_core::HeartbeatHook::to_writer(
        writer,
        std::time::Duration::from_secs_f64(args.progress_interval_secs),
    ))
}

/// The training hyper-parameters a parsed command line asks for.
fn train_config(args: &TrainArgs) -> TrainConfig {
    TrainConfig {
        epochs: args.epochs,
        ..TrainConfig::default()
    }
}

/// Runs one of the comparison methods on the normalized dataset.
fn impute_baseline(
    method: &str,
    train: TrainConfig,
    ds: &Dataset,
    rng: &mut Rng64,
) -> Result<Matrix, String> {
    Ok(match method {
        "gain" => GainImputer::new(train).impute(ds, rng),
        "ginn" => GinnImputer::new(train).impute(ds, rng),
        "mice" => MiceImputer::default().impute(ds, rng),
        "missforest" => MissForestImputer::default().impute(ds, rng),
        "knn" => KnnImputer::default().impute(ds, rng),
        "mean" => MeanImputer.impute(ds, rng),
        "vae" => VaeImputer {
            config: train,
            ..Default::default()
        }
        .impute(ds, rng),
        other => {
            return Err(format!(
                "unknown method {:?} (try scis-gain, gain, ginn, mice, missforest, knn, mean, vae)",
                other
            ))
        }
    })
}

fn write_err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("writing {:?}: {}", path, e)
}

/// The train output: each block of normalized rows goes back to original
/// units before the csvio writer appends it.
struct UnscaledCsv<'a> {
    csv: CsvWriter,
    scaler: &'a MinMaxScaler,
    path: &'a Path,
}

impl<'a> UnscaledCsv<'a> {
    fn create(path: &'a Path, n_cols: usize, scaler: &'a MinMaxScaler) -> Result<Self, String> {
        let csv = CsvWriter::create(path, n_cols).map_err(|e| write_err(path, e))?;
        Ok(Self { csv, scaler, path })
    }

    /// Writes a whole imputed matrix and closes the file.
    fn write_all(mut self, imputed: &Matrix) -> Result<(), String> {
        self.push_rows(imputed)
            .map_err(|e| write_err(self.path, e))?;
        self.close()
    }

    fn close(self) -> Result<(), String> {
        self.csv.finish().map_err(|e| write_err(self.path, e))
    }
}

impl ShardSink for UnscaledCsv<'_> {
    fn push_rows(&mut self, rows: &Matrix) -> Result<(), ShardError> {
        self.csv.push_rows(&self.scaler.inverse_transform(rows))
    }
}

/// Builds, runs and reports the scis-gain pipeline over `src` — the
/// normalized dataset in memory, or the scaled spill shards under
/// `--shard-rows` — writing the imputed rows to the output CSV in original
/// units as they are produced.
fn run_pipeline(
    prog: &str,
    args: &TrainArgs,
    src: &dyn RowSource,
    scaler: &MinMaxScaler,
    gain: &mut GainImputer,
) -> Result<StreamOutcome, String> {
    let n = src.n_rows();
    let n0 = args.n0.unwrap_or_else(|| 500.min(n / 3).max(8));
    if 2 * n0 > n {
        return Err(format!("n0 = {} too large for {} rows", n0, n));
    }
    let mut config = ScisConfig::default()
        .dim(scis_core::dim::DimConfig::default().train(train_config(args)))
        .epsilon(args.epsilon)
        .exec(threads_policy(args.threads));
    if args.accel {
        config = config.accel(accel_config(args));
    }
    let mut scis = Scis::new(config);
    if let Some(dir) = &args.checkpoint_dir {
        scis = scis.checkpoints(CheckpointPolicy::new(dir).every(args.checkpoint_every));
    }
    if let Some(secs) = args.deadline_secs {
        scis = scis.deadline(scis_tensor::RunDeadline::after(
            std::time::Duration::from_secs_f64(secs),
        ));
    }
    if let Some(path) = &args.resume {
        let ckpt = TrainCheckpoint::load(path)
            .map_err(|e| format!("loading checkpoint {:?}: {}", path, e))?;
        eprintln!(
            "{}: resuming {} training from epoch {} ({:?})",
            prog,
            ckpt.phase.name(),
            ckpt.epoch,
            path
        );
        scis = scis.resume_from(ckpt);
    }
    scis = scis.heartbeat(heartbeat_hook(args)?);
    let want_telemetry = args.trace_json.is_some() || args.events.is_some() || args.profile;
    let tel = if want_telemetry {
        scis_telemetry::Telemetry::collecting()
    } else {
        scis_telemetry::Telemetry::off()
    };
    if want_telemetry {
        scis = scis.telemetry(tel.clone());
    }

    let mut sink = UnscaledCsv::create(&args.output, src.n_cols(), scaler)?;
    let mut rng = Rng64::seed_from_u64(args.seed);
    let result = scis.try_run_streamed(gain, src, n0, &mut rng, &mut sink);
    // the event stream is most valuable on failure: flush it before
    // surfacing any error so the JSONL doubles as a post-mortem
    if let Some(path) = &args.events {
        write_events(prog, path, &tel)?;
    }
    let outcome = result.map_err(|e| e.to_string())?;
    sink.close()?;
    if let Some(path) = &args.trace_json {
        std::fs::write(path, outcome.report.to_json())
            .map_err(|e| format!("writing trace {:?}: {}", path, e))?;
        eprintln!("{}: wrote run report to {:?}", prog, path);
    }
    if args.profile {
        eprint!("{}", outcome.report.render_profile());
    }
    eprintln!(
        "{}: trained on n* = {} of {} rows (R_t = {:.2}%), SSE {:.2}s",
        prog,
        outcome.n_star,
        outcome.n_total,
        outcome.training_sample_rate() * 100.0,
        outcome.sse_time.as_secs_f64()
    );
    report_anomalies(prog, &outcome.anomalies);
    if outcome.anomalies.deadline_exceeded {
        eprintln!(
            "{}: run deadline expired; output comes from the best model so far",
            prog
        );
    }
    Ok(outcome)
}

/// Reads, validates, and annotates the input CSV (shared by train/impute).
fn load_input(prog: &str, input: &Path, method: &str) -> Result<Dataset, String> {
    let mut ds = read_dataset(input).map_err(|e| format!("reading {:?}: {}", input, e))?;
    // reject unusable inputs before any training; degenerate (but usable)
    // columns are only warned about here and recorded as anomalies later
    let report = ds
        .validate()
        .map_err(|e| format!("validating {:?}: {}", input, e))?;
    if !report.all_missing_columns.is_empty() {
        eprintln!(
            "{}: warning: columns with no observed cells: {:?}",
            prog, report.all_missing_columns
        );
    }
    // detect ordinal-coded categorical columns so methods with
    // heterogeneous heads treat them properly
    ds.kinds = scis_data::dataset::infer_kinds(&ds.values, 16);
    eprintln!(
        "{}: {} rows x {} cols, {:.2}% missing, method {}",
        prog,
        ds.n_samples(),
        ds.n_features(),
        ds.missing_rate() * 100.0,
        method
    );
    if ds.missing_rate() == 0.0 {
        eprintln!(
            "{}: nothing to do (no missing cells); copying through",
            prog
        );
    }
    Ok(ds)
}

fn run_train(prog: &str, argv: Vec<String>) -> Result<RunFlags, String> {
    let args = parse_train_args(argv).map_err(|e| {
        format!("{}\nusage: scis train INPUT.csv OUTPUT.csv [--method m] [--epsilon e] [--n0 n] [--epochs k] [--threads t] [--seed s] [--accel] [--accel-f32] [--trace-json path] [--events path] [--profile] [--checkpoint-dir dir] [--checkpoint-every n] [--resume path] [--deadline-secs s] [--shard-rows n] [--spill-dir dir] [--progress path|-] [--progress-interval-secs s]", e)
    })?;
    let flags = if let Some(shard_rows) = args.shard_rows {
        // out of core: spill the CSV, fit the scaler as a shard fold, and
        // stream the pipeline over the scaled shards
        let spill = SpillDir::new(args.spill_dir.clone(), &args.output);
        let sharded = spill_input(prog, &args.input, &spill.path, shard_rows, &args.method)?;
        let scaler = MinMaxScaler::fit_source(&sharded).map_err(|e| e.to_string())?;
        let scaled = ScaledSource::new(&sharded, &scaler);
        let mut gain = GainImputer::new(train_config(&args));
        let outcome = run_pipeline(prog, &args, &scaled, &scaler, &mut gain)?;
        spill.close(prog);
        RunFlags::from(&outcome.anomalies)
    } else {
        let ds = load_input(prog, &args.input, &args.method)?;
        // a model *bundle* given to --load-model short-circuits into the
        // apply-only path (it carries its own scaler and schema)
        if let Some(path) = args.load_model.as_deref().filter(|p| is_bundle_file(p)) {
            let exec = threads_policy(args.threads);
            return apply_bundle(prog, &ds, load_bundle(prog, path)?, exec, &args.output);
        }
        let (norm, scaler) = MinMaxScaler::fit_transform_dataset(&ds);
        if args.method != "scis-gain" {
            let mut rng = Rng64::seed_from_u64(args.seed);
            let imputed = impute_baseline(&args.method, train_config(&args), &norm, &mut rng)?;
            UnscaledCsv::create(&args.output, ds.n_features(), &scaler)?.write_all(&imputed)?;
            RunFlags::default()
        } else if let Some(path) = &args.load_model {
            // pre-trained bare generator: skip Algorithm 1, just impute
            let mut gain = GainImputer::new(train_config(&args));
            gain.load_generator(path)
                .map_err(|e| format!("loading model: {}", e))?;
            eprintln!("{}: loaded generator from {:?}", prog, path);
            let imputed =
                scis_imputers::traits::impute_with_generator_chunked(&mut gain, &norm, 65_536);
            UnscaledCsv::create(&args.output, ds.n_features(), &scaler)?.write_all(&imputed)?;
            RunFlags::default()
        } else {
            let mut gain = GainImputer::new(train_config(&args));
            let outcome = run_pipeline(prog, &args, &norm, &scaler, &mut gain)?;
            if let Some(path) = &args.save_model {
                if outcome.anomalies.mean_fallback {
                    eprintln!(
                        "{}: not saving a model — training fell back to mean imputation",
                        prog
                    );
                } else {
                    let bundle = build_bundle(&mut gain, &ds, &scaler, accel_config(&args))?;
                    bundle
                        .save(path)
                        .map_err(|e| format!("saving model: {}", e))?;
                    eprintln!("{}: saved model bundle to {:?}", prog, path);
                }
            }
            RunFlags::from(&outcome.anomalies)
        }
    };
    eprintln!("{}: wrote {:?}", prog, args.output);
    if flags.degraded {
        eprintln!(
            "{}: run completed in DEGRADED mode (see recovery notes above)",
            prog
        );
    }
    if flags.deadline_exceeded {
        eprintln!(
            "{}: run completed under an EXPIRED deadline (exit code 3)",
            prog
        );
    }
    Ok(flags)
}

// ---------------------------------------------------------------------------
// --shard-rows — out-of-core input
// ---------------------------------------------------------------------------

/// Streams the input CSV into a checksummed spill directory, then runs the
/// same validation / kind-inference / summary logging as [`load_input`] —
/// without ever materializing the full table.
fn spill_input(
    prog: &str,
    input: &Path,
    spill_dir: &Path,
    shard_rows: usize,
    method: &str,
) -> Result<ShardedDataset, String> {
    let mut csv = CsvRows::open(input).map_err(|e| format!("reading {:?}: {}", input, e))?;
    let d = csv.n_cols();
    let mut writer = SpillWriter::create(spill_dir, d, vec![ColumnKind::Continuous; d], shard_rows)
        .map_err(|e| format!("creating spill dir {:?}: {}", spill_dir, e))?;
    for row in &mut csv {
        let row = row.map_err(|e| format!("reading {:?}: {}", input, e))?;
        writer
            .push_row(&row)
            .map_err(|e| format!("spilling to {:?}: {}", spill_dir, e))?;
    }
    if writer.rows_written() == 0 {
        return Err(format!("reading {:?}: no data rows", input));
    }
    let mut sharded = writer
        .finish()
        .map_err(|e| format!("finishing spill {:?}: {}", spill_dir, e))?;
    // same checks and annotations as the in-memory load_input, as
    // one-pass shard folds
    let report = validate_source(&sharded).map_err(|e| format!("validating {:?}: {}", input, e))?;
    if !report.all_missing_columns.is_empty() {
        eprintln!(
            "{}: warning: columns with no observed cells: {:?}",
            prog, report.all_missing_columns
        );
    }
    let kinds = infer_kinds_source(&sharded, 16).map_err(|e| e.to_string())?;
    sharded.set_kinds(kinds);
    let missing = sharded.missing_rate().map_err(|e| e.to_string())?;
    eprintln!(
        "{}: {} rows x {} cols, {:.2}% missing, method {} ({} spill shards of <= {} rows)",
        prog,
        sharded.n_rows(),
        d,
        missing * 100.0,
        method,
        sharded.n_shards(),
        shard_rows,
    );
    if missing == 0.0 {
        eprintln!(
            "{}: nothing to do (no missing cells); copying through",
            prog
        );
    }
    Ok(sharded)
}

/// Where a `--shard-rows` run spills its input: `--spill-dir` when given
/// (kept afterwards), else a directory derived from the output path
/// (deleted again after a successful run).
struct SpillDir {
    path: PathBuf,
    keep: bool,
}

impl SpillDir {
    fn new(spill_dir: Option<PathBuf>, output: &Path) -> Self {
        let keep = spill_dir.is_some();
        let path = spill_dir.unwrap_or_else(|| {
            let mut name = output
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "scis-out".into());
            name.push_str(".spill");
            output.with_file_name(name)
        });
        Self { path, keep }
    }

    fn close(self, prog: &str) {
        if self.keep {
            eprintln!("{}: kept spill shards in {:?}", prog, self.path);
        } else {
            std::fs::remove_dir_all(&self.path).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// impute — apply-only
// ---------------------------------------------------------------------------

/// True when the file starts with the model-bundle magic line.
fn is_bundle_file(path: &Path) -> bool {
    use std::io::Read as _;
    let mut buf = [0u8; 16];
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let Ok(n) = f.read(&mut buf) else {
        return false;
    };
    buf[..n].starts_with(b"scis-bundle v1")
}

fn load_bundle(prog: &str, path: &Path) -> Result<ModelBundle, String> {
    let bundle = ModelBundle::load(path).map_err(|e| format!("loading model bundle: {}", e))?;
    eprintln!("{}: loaded model bundle from {:?}", prog, path);
    Ok(bundle)
}

/// Fills every missing cell of `src` through an [`ImputeService`] built on
/// `bundle` — the same code path the HTTP server runs — in slices of at
/// most 8,192 rows of each shard, appending finished rows to the output CSV
/// as it goes.
fn apply_bundle(
    prog: &str,
    src: &dyn RowSource,
    bundle: ModelBundle,
    exec: ExecPolicy,
    output: &Path,
) -> Result<RunFlags, String> {
    const SLICE_ROWS: usize = 8192;
    bundle
        .validate_width(src.n_cols())
        .map_err(|e| format!("input does not match the model bundle: {}", e))?;
    let mut svc = ImputeService::new(bundle, exec, scis_telemetry::Telemetry::off());
    let mut csv = CsvWriter::create(output, src.n_cols()).map_err(|e| write_err(output, e))?;
    let mut degraded = false;
    for k in 0..src.n_shards() {
        let shard = src
            .load_shard(k)
            .map_err(|e| format!("loading shard {}: {}", k, e))?;
        for start in (0..shard.n_samples()).step_by(SLICE_ROWS) {
            let end = (start + SLICE_ROWS).min(shard.n_samples());
            let rows: Vec<ImputeRow> = (start..end)
                .map(|i| {
                    let row = shard.values.row(i);
                    row.iter().map(|&v| (!v.is_nan()).then_some(v)).collect()
                })
                .collect();
            let result = svc.impute_rows(&rows);
            degraded |= result.degraded;
            let block = Matrix::from_fn(rows.len(), src.n_cols(), |i, j| result.rows[i][j]);
            csv.write_rows(&block).map_err(|e| write_err(output, e))?;
        }
    }
    csv.finish().map_err(|e| write_err(output, e))?;
    eprintln!("{}: wrote {:?}", prog, output);
    if degraded {
        eprintln!(
            "{}: run completed in DEGRADED mode (generator output was non-finite; \
             column means served instead)",
            prog
        );
    }
    Ok(RunFlags {
        degraded,
        deadline_exceeded: false,
    })
}

fn run_impute(prog: &str, argv: Vec<String>) -> Result<RunFlags, String> {
    const USAGE: &str = "usage: scis impute INPUT.csv OUTPUT.csv --model PATH [--threads t] \
[--shard-rows n] [--spill-dir dir]";
    let mut input = None;
    let mut output = None;
    let mut model = None;
    let mut threads = None;
    let mut shard_rows = None;
    let mut spill_dir: Option<PathBuf> = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or(format!("{} needs a value\n{}", arg, USAGE))
        };
        match arg.as_str() {
            "--model" | "--load-model" => model = Some(PathBuf::from(value()?)),
            "--threads" => {
                threads = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--threads: {}\n{}", e, USAGE))?,
                )
            }
            "--shard-rows" => {
                shard_rows = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--shard-rows: {}\n{}", e, USAGE))?,
                )
            }
            "--spill-dir" => spill_dir = Some(PathBuf::from(value()?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {}\n{}", other, USAGE))
            }
            _ if input.is_none() => input = Some(PathBuf::from(arg)),
            _ if output.is_none() => output = Some(PathBuf::from(arg)),
            other => return Err(format!("unexpected argument {:?}\n{}", other, USAGE)),
        }
    }
    let input = input.ok_or(format!("missing INPUT.csv\n{}", USAGE))?;
    let output = output.ok_or(format!("missing OUTPUT.csv\n{}", USAGE))?;
    let model = model.ok_or(format!("--model is required\n{}", USAGE))?;
    if shard_rows == Some(0) {
        return Err(format!("--shard-rows must be at least 1\n{}", USAGE));
    }
    if spill_dir.is_some() && shard_rows.is_none() {
        return Err(format!("--spill-dir requires --shard-rows\n{}", USAGE));
    }
    let exec = threads_policy(threads);
    const METHOD: &str = "scis-gain (apply-only)";
    if let Some(shard_rows) = shard_rows {
        if !is_bundle_file(&model) {
            return Err(format!(
                "--shard-rows needs a model *bundle* (bare v2 generator files refit their \
                 scaler on the whole input)\n{}",
                USAGE
            ));
        }
        let spill = SpillDir::new(spill_dir, &output);
        let sharded = spill_input(prog, &input, &spill.path, shard_rows, METHOD)?;
        let flags = apply_bundle(prog, &sharded, load_bundle(prog, &model)?, exec, &output)?;
        spill.close(prog);
        return Ok(flags);
    }
    let ds = load_input(prog, &input, METHOD)?;
    if is_bundle_file(&model) {
        return apply_bundle(prog, &ds, load_bundle(prog, &model)?, exec, &output);
    }
    // bare v2 generator file (pre-bundle artifact): old semantics — the
    // scaler is refitted on the input being imputed
    let mut gain = GainImputer::new(TrainConfig::default());
    gain.load_generator(&model)
        .map_err(|e| format!("loading model: {}", e))?;
    eprintln!("{}: loaded generator from {:?}", prog, model);
    let (norm, scaler) = MinMaxScaler::fit_transform_dataset(&ds);
    let out = scis_imputers::traits::impute_with_generator_chunked(&mut gain, &norm, 65_536);
    UnscaledCsv::create(&output, ds.n_features(), &scaler)?.write_all(&out)?;
    eprintln!("{}: wrote {:?}", prog, output);
    Ok(RunFlags::default())
}

// ---------------------------------------------------------------------------
// serve — the online server
// ---------------------------------------------------------------------------

fn run_serve(prog: &str, argv: Vec<String>) -> Result<RunFlags, String> {
    const USAGE: &str =
        "usage: scis serve --model PATH [--addr host:port] [--threads t|serial|auto] \
[--queue-cap n] [--batch-rows n] [--max-body-bytes n] [--access-log path]";
    let mut model = None;
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut batch = BatchConfig::default();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or(format!("{} needs a value\n{}", arg, USAGE))
        };
        let parse_usize = |flag: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{}: {}\n{}", flag, e, USAGE))
        };
        match arg.as_str() {
            "--model" => model = Some(PathBuf::from(value()?)),
            "--addr" => cfg.addr = value()?,
            "--threads" => {
                cfg.exec = ExecPolicy::parse(&value()?)
                    .map_err(|e| format!("--threads: {}\n{}", e, USAGE))?
            }
            "--queue-cap" => batch.queue_cap = parse_usize("--queue-cap", value()?)?,
            "--batch-rows" => batch.max_batch_rows = parse_usize("--batch-rows", value()?)?,
            "--max-body-bytes" => cfg.max_body_bytes = parse_usize("--max-body-bytes", value()?)?,
            "--access-log" => cfg.access_log = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {}\n{}", other, USAGE)),
        }
    }
    let model = model.ok_or(format!("--model is required\n{}", USAGE))?;
    cfg.batch = batch;
    let bundle = ModelBundle::load(&model).map_err(|e| format!("loading model bundle: {}", e))?;
    eprintln!(
        "{}: serving {:?} ({} columns) — POST /impute, GET /healthz, GET /statz, GET /metricsz",
        prog,
        model,
        bundle.n_features()
    );
    let telemetry = scis_telemetry::Telemetry::collecting();
    let server =
        Server::start(bundle, cfg, telemetry).map_err(|e| format!("starting server: {}", e))?;
    // scripts scrape this line for the resolved (possibly ephemeral) port
    println!("listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // serve until the process is killed
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------------
// report — summarize JSON artifacts
// ---------------------------------------------------------------------------

fn render_json(out: &mut String, value: &scis_serve::json::Json, indent: usize) {
    use scis_serve::json::Json;
    let pad = "  ".repeat(indent);
    match value {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                match v {
                    Json::Obj(_) | Json::Arr(_) => {
                        out.push_str(&format!("{}{}:\n", pad, k));
                        render_json(out, v, indent + 1);
                    }
                    _ => render_json_leaf(out, &pad, k, v),
                }
            }
        }
        Json::Arr(items) => {
            // long numeric arrays (metric series) are summarized, not dumped
            let nums: Vec<f64> = items.iter().filter_map(|i| i.as_f64()).collect();
            if nums.len() == items.len() && nums.len() > 8 {
                let (min, max) = nums
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                out.push_str(&format!(
                    "{}[{} values, first {}, last {}, min {}, max {}]\n",
                    pad,
                    nums.len(),
                    nums[0],
                    nums[nums.len() - 1],
                    min,
                    max
                ));
            } else {
                for (i, item) in items.iter().enumerate() {
                    match item {
                        Json::Obj(_) | Json::Arr(_) => {
                            out.push_str(&format!("{}- [{}]\n", pad, i));
                            render_json(out, item, indent + 1);
                        }
                        _ => render_json_leaf(out, &pad, &format!("[{}]", i), item),
                    }
                }
            }
        }
        other => render_json_leaf(out, &pad, "value", other),
    }
}

fn render_json_leaf(out: &mut String, pad: &str, key: &str, v: &scis_serve::json::Json) {
    use scis_serve::json::Json;
    let rendered = match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => scis_telemetry::json_f64(*n),
        Json::Str(s) => s.clone(),
        _ => unreachable!("containers handled by render_json"),
    };
    out.push_str(&format!("{}{}: {}\n", pad, key, rendered));
}

/// Summarizes a heartbeat JSONL stream (`scis train --progress`): one line
/// per phase with the last record's position plus stream-wide peaks.
fn render_heartbeat_jsonl(out: &mut String, records: &[scis_serve::json::Json]) {
    let f = |r: &scis_serve::json::Json, k: &str| r.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    out.push_str(&format!("heartbeat stream: {} records\n", records.len()));
    // the last record per phase, in order of first appearance
    let mut phases: Vec<(String, &scis_serve::json::Json)> = Vec::new();
    for r in records {
        let phase = r
            .get("phase")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        match phases.iter_mut().find(|(p, _)| *p == phase) {
            Some(slot) => slot.1 = r,
            None => phases.push((phase, r)),
        }
    }
    for (phase, r) in &phases {
        out.push_str(&format!(
            "  {}: epoch {}/{}, shard {}/{}, rows {}/{}, {:.1} rows/s, eta {:.1}s, rollbacks {}\n",
            phase,
            f(r, "epoch"),
            f(r, "epochs"),
            f(r, "shard"),
            f(r, "shards"),
            f(r, "rows_done"),
            f(r, "rows_total"),
            f(r, "rows_per_sec"),
            f(r, "eta_secs"),
            f(r, "rollbacks"),
        ));
    }
    if let Some(last) = records.last() {
        out.push_str(&format!(
            "  elapsed {:.2}s, peak rss {:.1} MiB\n",
            f(last, "elapsed_secs"),
            f(last, "peak_rss_bytes") / (1024.0 * 1024.0),
        ));
    }
}

/// Summarizes a serve access log (`scis serve --access-log`): request and
/// row totals, status mix, latency range, degraded count.
fn render_access_log_jsonl(out: &mut String, records: &[scis_serve::json::Json]) {
    let f = |r: &scis_serve::json::Json, k: &str| r.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    out.push_str(&format!("access log: {} requests\n", records.len()));
    let mut statuses: Vec<(u64, usize)> = Vec::new();
    let (mut rows, mut degraded) = (0u64, 0usize);
    let (mut lat_min, mut lat_max, mut lat_sum) = (f64::MAX, 0f64, 0f64);
    for r in records {
        let status = f(r, "status") as u64;
        match statuses.iter_mut().find(|(s, _)| *s == status) {
            Some(slot) => slot.1 += 1,
            None => statuses.push((status, 1)),
        }
        rows += f(r, "rows") as u64;
        degraded += (f(r, "degraded") as u64 != 0) as usize;
        let lat = f(r, "latency_ns");
        lat_min = lat_min.min(lat);
        lat_max = lat_max.max(lat);
        lat_sum += lat;
    }
    statuses.sort_unstable();
    for (status, count) in &statuses {
        out.push_str(&format!("  status {}: {}\n", status, count));
    }
    out.push_str(&format!("  rows: {}, degraded: {}\n", rows, degraded));
    if !records.is_empty() {
        out.push_str(&format!(
            "  latency_ns: min {:.0}, mean {:.0}, max {:.0}\n",
            lat_min,
            lat_sum / records.len() as f64,
            lat_max
        ));
    }
}

/// Renders a JSONL file (one JSON object per line). Heartbeat streams and
/// access logs get schema-aware summaries; anything else falls back to a
/// per-record dump.
fn render_jsonl(out: &mut String, path: &str, text: &str) -> Result<(), String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            scis_serve::json::parse(line).map_err(|e| format!("{} line {}: {}", path, i + 1, e))?;
        records.push(doc);
    }
    if records.is_empty() {
        return Err(format!("{}: empty file", path));
    }
    let first = &records[0];
    let is_heartbeat = first.get("type").and_then(|v| v.as_str()) == Some("heartbeat");
    let is_access_log = first.get("trace_id").is_some() && first.get("status").is_some();
    if is_heartbeat {
        render_heartbeat_jsonl(out, &records);
    } else if is_access_log {
        render_access_log_jsonl(out, &records);
    } else {
        for (i, r) in records.iter().enumerate() {
            out.push_str(&format!("- [{}]\n", i));
            render_json(out, r, 1);
        }
    }
    Ok(())
}

fn run_report(argv: Vec<String>) -> Result<RunFlags, String> {
    if argv.is_empty() {
        return Err("usage: scis report FILE.json [FILE.jsonl ...]".into());
    }
    for path in &argv {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {:?}: {}", path, e))?;
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", path));
        // a whole-file parse accepts every single-document artifact; what it
        // rejects is retried as JSONL (heartbeat streams, access logs)
        match scis_serve::json::parse(&text) {
            Ok(doc) => render_json(&mut out, &doc, 0),
            Err(e) => {
                render_jsonl(&mut out, path, &text)
                    .map_err(|le| format!("{}: not JSON ({}) and not JSONL ({})", path, e, le))?;
            }
        }
        print!("{}", out);
    }
    Ok(RunFlags::default())
}
