//! `loadbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! loadbench --workload W --seed S --seconds T --trace 0|1   one workload, one result line
//! loadbench run [--seed S] [--seconds T] [--runs N] [--trace] [--workloads a,b] [--save F]
//! loadbench calibrate [--runs N] [--seed S] [--from F] [--write]
//! loadbench compare A.jsonl B.jsonl
//! ```
//!
//! See `bench/README.md` for the workloads, the metrics and their bounds.

mod gen;
mod micro;
mod report;
mod serve;
mod stats;
mod sys;
mod tools;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// A workload process gives up after this long; its result would be late
/// for any caller anyway.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What a workload run needs from its invocation.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// On in traced runs only.
    pub tracer: Tracer,
    /// Scratch directory for inputs, bundles and logs; removed at exit.
    pub tmp: PathBuf,
    /// This executable, which is also the `scis serve` child.
    pub exe: PathBuf,
}

/// The benchmark's own directory (`bench/`), where `out/` lives.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // the server child: exactly `scis serve`, plus an exit when the
        // benchmark that started it goes away
        Some("serve") => {
            sys::exit_with_parent();
            scis_repro::cli::run_scis()
        }
        Some("run") => tools::exit_code("run", tools::run(&args[1..])),
        Some("calibrate") => tools::exit_code("calibrate", tools::calibrate(&args[1..])),
        Some("compare") => tools::exit_code("compare", tools::compare(&args[1..])),
        Some(_) => workload_main(&args),
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: loadbench --workload W --seed S --seconds T --trace 0|1 [--out DIR]\n       \
loadbench run [--seed S] [--seconds T] [--runs N] [--trace] [--workloads a,b] [--save FILE]\n       \
loadbench calibrate [--runs N] [--seed S] [--from FILE] [--write]\n       \
loadbench compare A.jsonl B.jsonl";

/// Parsed `--flag value` pairs; every flag must be known.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// `switches` take no value.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                out.push((a.clone(), String::new()));
            } else if valued.contains(&a.as_str()) {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                out.push((a.clone(), v.clone()));
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(Flags(out))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: bad value {v:?}")),
        }
    }
}

/// Removes the scratch directory on every exit path.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn workload_main(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(Flags, String, u64, f64, bool), String> {
        let flags = Flags::parse(
            args,
            &["--workload", "--seed", "--seconds", "--trace", "--out"],
            &[],
        )?;
        let workload = flags.get("--workload").ok_or("--workload is required")?;
        if !report::WORKLOADS.iter().any(|w| w.name == workload) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let workload = workload.to_string();
        let seed = flags.num("--seed", 1u64)?;
        let seconds = flags.num("--seconds", tools::RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        let trace = match flags.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok((flags, workload, seed, seconds, trace))
    })();
    let (flags, workload, seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    sys::watchdog(WATCHDOG, format!("workload {workload}"));
    let out_dir = bench_dir().join("out").join(
        flags
            .get("--out")
            .map_or_else(|| format!("s{seed}"), str::to_string),
    );
    let tmp = TmpDir(
        bench_dir()
            .join("out")
            .join(format!("tmp-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("loadbench: creating {}: {e}", tmp.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        tracer: if traced { Tracer::on() } else { Tracer::off() },
        tmp: tmp.0.clone(),
        exe: std::env::current_exe().expect("path of the running executable"),
    };
    let mut outcome = match workload.as_str() {
        "train-b1024-f32" => train::run(&ctx, train::TRAIN_B1024),
        "stream-weather" => train::run(&ctx, train::STREAM_WEATHER),
        "serve-narrow" => serve::run(&ctx, serve::NARROW),
        "serve-wide" => serve::run(&ctx, serve::WIDE),
        _ => unreachable!("validated above"),
    };
    outcome.check_measured();
    if traced {
        if let Err(e) = write_trace(&ctx, &workload, &out_dir, &mut outcome) {
            outcome.problems.push(e);
        }
    }
    for p in &outcome.problems {
        eprintln!("loadbench: {workload}: check failed: {p}");
    }
    let line = outcome.result_line(traced);
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `trace-<workload>.jsonl` and `layers-<workload>.json`, then
/// rebuilds `layers.json` from every workload's layer file in the directory.
fn write_trace(
    ctx: &Ctx,
    workload: &str,
    dir: &Path,
    out: &mut report::Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spans = ctx.tracer.spans();
    let (layers, consistent) = trace::layer_totals(&spans);
    out.check(consistent, || {
        "in some trace the layer self times add up to more than the root span".into()
    });
    let write = |name: String, text: String| {
        std::fs::write(dir.join(&name), text).map_err(|e| format!("writing {name}: {e}"))
    };
    write(format!("trace-{workload}.jsonl"), trace::to_jsonl(&spans))?;
    let object = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
    let layer_json = object(
        layers
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\":{{\"self_ms\":{},\"spans\":{}}}",
                    report::json_num(t.self_ns as f64 * 1e-6),
                    t.spans
                )
            })
            .collect(),
    );
    let metrics = object(
        out.layer
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", report::json_num(*v)))
            .collect(),
    );
    let e2e = object(
        out.e2e
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", report::json_num(*v)))
            .collect(),
    );
    write(
        format!("layers-{workload}.json"),
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{},\"self_times_within_root\":{consistent},\"layers\":{layer_json},\"metrics\":{metrics},\"untraced_end_to_end\":{e2e}}}\n",
            ctx.seed
        ),
    )?;
    let mut parts = Vec::new();
    for w in &report::WORKLOADS {
        if let Ok(text) = std::fs::read_to_string(dir.join(format!("layers-{}.json", w.name))) {
            parts.push(format!("\"{}\":{}", w.name, text.trim()));
        }
    }
    write("layers.json".into(), object(parts) + "\n")
}
