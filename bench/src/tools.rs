//! `loadbench run`, `calibrate` and `compare`: each workload runs in its
//! own child process (so peak RSS is per workload) under a deadline.

use crate::report::{json_num, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, Better, Verdict};
use crate::{bench_dir, sys, Flags};
use scis_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// A child workload run is killed after this long.
const CHILD_DEADLINE: Duration = Duration::from_secs(180);

/// The command `BENCHMARK.json` records for running one workload.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// Measured seconds per run: long enough for two training jobs or 20k
/// requests, short enough that a campaign of about ninety runs fits in
/// under an hour.
pub const RUN_SECONDS: u64 = 20;

/// One result line from a workload child, with how it was run.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    result: Json,
    /// The result line as printed (empty for records read from a file).
    line: String,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn failed(&self) -> u64 {
        self.result
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"result\":{}}}",
            self.workload, self.seed, self.traced, self.line
        )
    }

    fn from_json(doc: &Json) -> Option<Record> {
        Some(Record {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_f64()? as u64,
            traced: doc.get("traced")?.as_bool()?,
            result: doc.get("result")?.clone(),
            line: String::new(),
        })
    }
}

/// Runs one workload in a child process and parses its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &str,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--out", out]);
    let text = sys::run_with_deadline(cmd, CHILD_DEADLINE)
        .map_err(|e| format!("{workload} (seed {seed}): {e}"))?;
    // a failed run still prints its result line, with "correct": false
    let line = text.lines().last().unwrap_or("");
    let result =
        json::parse(line).map_err(|e| format!("{workload} (seed {seed}): no result line ({e})"))?;
    Ok(Record {
        workload: workload.to_string(),
        seed,
        traced,
        result,
        line: line.to_string(),
    })
}

fn selected(flags: &Flags) -> Result<Vec<&'static str>, String> {
    match flags.get("--workloads") {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(list) => list
            .split(',')
            .map(|n| {
                WORKLOADS
                    .iter()
                    .find(|w| w.name == n)
                    .map(|w| w.name)
                    .ok_or(format!("unknown workload {n:?}"))
            })
            .collect(),
    }
}

fn print_record(r: &Record) {
    let correct = r.correct();
    let num = |k: &str| r.result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{} seed {}{}: correct {}, attempted {}, failed {}",
        r.workload,
        r.seed,
        if r.traced { " (traced)" } else { "" },
        correct,
        num("attempted"),
        num("failed")
    );
    let defs = if r.traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for d in defs {
        if let Some(v) = r.metric(d.name) {
            println!("  {:<28} {:>14} {}", d.name, format!("{v:.6}"), d.unit);
        }
    }
}

/// Exit code of a subcommand: success only for `Ok(true)`.
pub fn exit_code(command: &str, result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn create(path: Option<&str>) -> Result<Option<std::fs::File>, String> {
    path.map(|p| std::fs::File::create(p).map_err(|e| format!("{p}: {e}")))
        .transpose()
}

/// `loadbench run`: every selected workload, `--runs` times with seeds
/// `seed, seed+1, ...`, untraced and (with `--trace`) traced. `Ok(false)`
/// when a run failed its checks or did not finish.
pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--seed", "--seconds", "--runs", "--workloads", "--save"],
        &["--trace"],
    )?;
    let seed = flags.num("--seed", 1u64)?;
    let seconds = flags.num("--seconds", RUN_SECONDS as f64)?;
    let runs = flags.num("--runs", 1u64)?;
    let workloads = selected(&flags)?;
    let out = format!("run-s{seed}");
    let mut save = create(flags.get("--save"))?;
    let modes: &[bool] = if flags.has("--trace") {
        &[false, true]
    } else {
        &[false]
    };
    let mut all_ok = true;
    for r in 0..runs {
        for w in &workloads {
            for &traced in modes {
                match run_child(w, seed + r, seconds, traced, &out) {
                    Ok(rec) => {
                        print_record(&rec);
                        all_ok &= rec.correct();
                        if let Some(f) = save.as_mut() {
                            writeln!(f, "{}", rec.to_json()).map_err(|e| e.to_string())?;
                        }
                    }
                    Err(e) => {
                        eprintln!("loadbench: {e}");
                        all_ok = false;
                    }
                }
            }
        }
    }
    if flags.has("--trace") {
        println!("traces: {}", bench_dir().join("out").join(&out).display());
    }
    Ok(all_ok)
}

/// Bound rule: the larger of twice the largest relative deviation from the
/// median and three times the interquartile range over the median seen
/// while calibrating (so the run-to-run spread stays within a third of the
/// bound), over all workloads, rounded up to a multiple of 5%, at most 25%,
/// the largest any metric may have. Set-up time always gets the largest
/// bound: it is short, so a few milliseconds of jitter are a large share of
/// it.
fn bound_for(name: &str, values_by_workload: &[Vec<f64>]) -> f64 {
    if name == "setup_s" {
        return MAX_BOUND;
    }
    let need = values_by_workload
        .iter()
        .map(|v| (2.0 * stats::max_rel_dev(v)).max(3.0 * stats::rel_iqr(v).unwrap_or(0.0)))
        .fold(0.0, f64::max);
    // a hair below each step, so 10% computed as 0.1000…01 stays 10%
    ((need / 0.05 - 1e-9).ceil() * 0.05).clamp(0.05, MAX_BOUND)
}

/// The largest bound a metric may have.
const MAX_BOUND: f64 = 0.25;

/// The calibration runs `BENCHMARK.json`'s bounds were computed from.
fn calibration_path() -> PathBuf {
    bench_dir().join("calibration.jsonl")
}

/// `loadbench calibrate`: runs every workload `--runs` times on distinct
/// seeds for the recorded run length, or reads such runs back from a file
/// (`--from`). It reports each metric's median and spreads and (with
/// `--write`) regenerates `BENCHMARK.json` with the resulting bounds and
/// keeps the runs in `bench/calibration.jsonl`, so the file can be
/// regenerated and checked. `Ok(false)` when a spread exceeds a third of
/// its bound.
pub fn calibrate(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--runs", "--seed", "--from"], &["--write"])?;
    let text = match flags.get("--from") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let runs = flags.num("--runs", 5u64)?;
            let seed = flags.num("--seed", 1000u64)?;
            let mut text = String::new();
            for w in WORKLOADS.iter().map(|w| w.name) {
                for r in 0..runs {
                    let rec = run_child(
                        w,
                        seed + r,
                        RUN_SECONDS as f64,
                        false,
                        &format!("calibrate-s{seed}"),
                    )?;
                    text.push_str(&rec.to_json());
                    text.push('\n');
                    eprintln!("calibrate: {w} seed {} done", seed + r);
                }
            }
            text
        }
    };
    let records = parse_records(&text, "calibration runs")?;
    let values = calibration_values(&records)?;
    println!(
        "{:<16} {:<16} {:>12} {:>9} {:>9} {:>7}",
        "metric", "workload", "median", "iqr/med", "maxdev", "bound"
    );
    let bounds = calibrated_bounds(&values);
    let mut steady = true;
    for d in &END_TO_END {
        let (by_w, bound) = (&values[d.name], bounds[d.name]);
        for (w, v) in by_w {
            let iqr = stats::rel_iqr(v).unwrap_or(0.0);
            let flag = if d.name != "setup_s" && iqr > bound / 3.0 {
                steady = false;
                "  <- spread above a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<16} {:<16} {:>12.6} {:>9.4} {:>9.4} {:>7.3}{flag}",
                d.name,
                w,
                stats::median(v),
                iqr,
                stats::max_rel_dev(v),
                bound
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
            println!("    runs: {}", runs.join(" "));
        }
    }
    if flags.has("--write") {
        for (path, contents) in [
            (benchmark_json_path(), benchmark_json(&bounds)),
            (calibration_path(), text),
        ] {
            std::fs::write(&path, contents)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
    }
    Ok(steady)
}

/// Per end-to-end metric and workload, the values of the untraced runs.
/// Every run must have passed its checks, and every workload must appear.
fn calibration_values(
    records: &[Record],
) -> Result<BTreeMap<&'static str, BTreeMap<&str, Vec<f64>>>, String> {
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    for rec in records.iter().filter(|r| !r.traced) {
        if !rec.correct() {
            return Err(format!(
                "{} seed {} failed its checks",
                rec.workload, rec.seed
            ));
        }
        for d in &END_TO_END {
            let v = rec
                .metric(d.name)
                .ok_or(format!("{}: {} missing", rec.workload, d.name))?;
            values
                .entry(d.name)
                .or_default()
                .entry(&rec.workload)
                .or_default()
                .push(v);
        }
    }
    for w in &WORKLOADS {
        let measured = |d: &MetricDef| values.get(d.name).is_some_and(|v| v.contains_key(w.name));
        if !END_TO_END.iter().all(measured) {
            return Err(format!("no runs of {}", w.name));
        }
    }
    Ok(values)
}

/// Each end-to-end metric's bound under [`bound_for`].
fn calibrated_bounds(
    values: &BTreeMap<&'static str, BTreeMap<&str, Vec<f64>>>,
) -> BTreeMap<&'static str, f64> {
    values
        .iter()
        .map(|(&name, by_w)| {
            let all: Vec<Vec<f64>> = by_w.values().cloned().collect();
            (name, bound_for(name, &all))
        })
        .collect()
}

fn benchmark_json_path() -> PathBuf {
    bench_dir().join("..").join("BENCHMARK.json")
}

/// `BENCHMARK.json`, generated from the catalog and the calibrated bounds.
fn benchmark_json(bounds: &BTreeMap<&str, f64>) -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let q = |s: &str| format!("\"{}\"", scis_telemetry::json_escape(s));
    let command: Vec<String> = COMMAND.iter().map(|s| q(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                q(d.name),
                q(d.unit),
                better(d.better),
                json_num((bounds[d.name] * 1000.0).round() / 1000.0)
            )
        })
        .collect();
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                q(d.name),
                q(d.unit),
                better(d.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n")
    )
}

/// Bounds of the end-to-end metrics as `BENCHMARK.json` records them.
fn recorded_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(n), Some(b)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(n.to_string(), b);
        }
    }
    Ok(out)
}

fn load_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_records(&text, path)
}

/// Records, one per line, as `loadbench run --save` writes them; `source`
/// names the text in errors.
fn parse_records(text: &str, source: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            json::parse(l)
                .ok()
                .as_ref()
                .and_then(Record::from_json)
                .ok_or(format!("{source}: not a loadbench record: {l}"))
        })
        .collect()
}

/// Failed operations and runs that failed their checks, summed over the
/// untraced runs of one workload.
fn failures(rs: &[Record], workload: &str) -> (u64, u64) {
    rs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .fold((0, 0), |(ops, runs), r| {
            (ops + r.failed(), runs + u64::from(!r.correct()))
        })
}

/// A change that fails more operations, or more runs, than its parent is
/// worse whatever its metrics say: dropped work can look faster.
fn failure_verdict(a: (u64, u64), b: (u64, u64)) -> Verdict {
    if b.0 > a.0 || b.1 > a.1 {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// `loadbench compare A B`: A is the parent, B the change, both written by
/// `loadbench run --save`. One row per workload and metric with both
/// sides' median and quartiles, B's win share over the pairs, and the
/// verdict, then one row for failed operations and failed runs, and one
/// summary row per workload. `Ok(false)` when any verdict is `worse`.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: loadbench compare A.jsonl B.jsonl".into());
    };
    let (ra, rb) = (load_records(a)?, load_records(b)?);
    let bounds = recorded_bounds()?;
    let mut any_worse = false;
    let mut summary = Vec::new();
    println!(
        "{:<16} {:<16} {:>28} {:>28} {:>5} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for w in &WORKLOADS {
        let pick = |rs: &[Record], name: &str| -> Vec<f64> {
            rs.iter()
                .filter(|r| r.workload == w.name && !r.traced)
                .filter_map(|r| r.metric(name))
                .collect()
        };
        let mut verdicts = Vec::new();
        for d in &END_TO_END {
            let (va, vb) = (pick(&ra, d.name), pick(&rb, d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(d.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", d.name))?;
            let (verdict, wins) = stats::compare(&va, &vb, d.better, bound);
            any_worse |= verdict == Verdict::Worse;
            verdicts.push(format!("{} {}", d.name, verdict.name()));
            let side = |v: &[f64]| {
                let s = stats::Side::of(v);
                format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
            };
            println!(
                "{:<16} {:<16} {:>28} {:>28} {:>5.2} {}",
                w.name,
                d.name,
                side(&va),
                side(&vb),
                wins,
                verdict.name()
            );
        }
        if verdicts.is_empty() {
            continue;
        }
        let (fa, fb) = (failures(&ra, w.name), failures(&rb, w.name));
        let verdict = failure_verdict(fa, fb);
        any_worse |= verdict == Verdict::Worse;
        verdicts.push(format!("failed {}", verdict.name()));
        println!(
            "{:<16} {:<16} {:>28} {:>28} {:>5} {}",
            w.name,
            "failed",
            format!("{} ops, {} runs", fa.0, fa.1),
            format!("{} ops, {} runs", fb.0, fb.1),
            "",
            verdict.name()
        );
        summary.push(format!("{:<16} {}", w.name, verdicts.join(", ")));
    }
    println!();
    for row in summary {
        println!("{row}");
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_well_formed_and_complete() {
        let bounds: BTreeMap<&str, f64> = END_TO_END.iter().map(|d| (d.name, 0.1)).collect();
        let text = benchmark_json(&bounds);
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            doc.get("workloads").and_then(Json::as_arr).map(|a| a.len()),
            Some(WORKLOADS.len())
        );
        assert_eq!(
            doc.get("per_layer").and_then(Json::as_arr).map(|a| a.len()),
            Some(PER_LAYER.len())
        );
        let first = &doc.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("bound").and_then(Json::as_f64), Some(0.1));
    }

    #[test]
    fn bounds_follow_the_rule() {
        assert_eq!(bound_for("setup_s", &[vec![1.0, 1.0]]), 0.25);
        // 3% largest deviation -> 6% (the quartile spread, 1.5%, needs
        // 4.5%), rounded up to 10%
        let v = vec![vec![100.0, 103.0, 97.0, 100.0, 101.0, 100.0, 99.0]];
        assert!((bound_for("p50_ms", &v) - 0.10).abs() < 1e-12);
        // quartiles 94 and 106 (12% of the median) outweigh the 6% largest
        // deviation: 3 × 12% = 36%, capped at 25%
        let v = vec![vec![94.0, 94.0, 100.0, 106.0, 106.0]];
        assert_eq!(bound_for("p50_ms", &v), 0.25);
        // the widest workload sets the bound; tiny spreads get the 5% floor
        let v = vec![
            vec![1.0, 1.0, 1.001],
            vec![100.0, 103.0, 97.0, 100.0, 101.0, 100.0, 99.0],
        ];
        assert!((bound_for("peak_rss_mb", &v) - 0.10).abs() < 1e-12);
        assert_eq!(bound_for("peak_rss_mb", &[vec![1.0, 1.0, 1.001]]), 0.05);
    }

    #[test]
    fn more_failures_make_a_change_worse() {
        let rec = |workload: &str, correct: bool, failed: u64, traced: bool| Record {
            workload: workload.into(),
            seed: 1,
            traced,
            result: json::parse(&format!(
                "{{\"correct\":{correct},\"attempted\":100,\"failed\":{failed},\"metrics\":{{}}}}"
            ))
            .unwrap(),
            line: String::new(),
        };
        let a = [
            rec("serve-narrow", true, 0, false),
            rec("serve-narrow", true, 0, false),
        ];
        let fa = failures(&a, "serve-narrow");
        assert_eq!(fa, (0, 0));
        assert_eq!(failure_verdict(fa, fa), Verdict::Same);
        // one timed-out request in one run of B
        let b = [
            rec("serve-narrow", false, 1, false),
            rec("serve-narrow", true, 0, false),
        ];
        let fb = failures(&b, "serve-narrow");
        assert_eq!(fb, (1, 1));
        assert_eq!(failure_verdict(fa, fb), Verdict::Worse);
        // fewer failures than the parent are not worse
        assert_eq!(failure_verdict(fb, fa), Verdict::Same);
        // traced runs and other workloads do not count
        let c = [
            rec("serve-narrow", false, 5, true),
            rec("serve-wide", false, 5, false),
        ];
        assert_eq!(failures(&c, "serve-narrow"), (0, 0));
    }

    #[test]
    fn committed_benchmark_json_is_the_generators_output() {
        let text = std::fs::read_to_string(calibration_path()).unwrap();
        let records = parse_records(&text, "calibration.jsonl").unwrap();
        let bounds = calibrated_bounds(&calibration_values(&records).unwrap());
        assert_eq!(
            std::fs::read_to_string(benchmark_json_path()).unwrap(),
            benchmark_json(&bounds),
            "regenerate it with `loadbench calibrate --from bench/calibration.jsonl --write`"
        );
    }

    #[test]
    fn records_round_trip() {
        let line = "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}";
        let rec = Record {
            workload: "serve-narrow".into(),
            seed: 7,
            traced: false,
            result: json::parse(line).unwrap(),
            line: line.into(),
        };
        let back = Record::from_json(&json::parse(&rec.to_json()).unwrap()).unwrap();
        assert_eq!(back.workload, "serve-narrow");
        assert_eq!(back.seed, 7);
        assert_eq!(back.metric("p50_ms"), Some(1.5));
    }
}
