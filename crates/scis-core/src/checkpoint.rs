//! Crash-safe training checkpoints (DESIGN.md §14).
//!
//! A [`TrainCheckpoint`] captures everything the DIM train loop needs to
//! continue bit-exactly from an epoch boundary: generator (and
//! discriminator) weights, Adam moments, the RNG stream position, the
//! [`TrainingGuard`](crate::guard::TrainingGuard) best-snapshot/backoff
//! state, and the recovery accounting. Files are versioned, checksummed
//! (FNV-1a 64) and written atomically (temp file → fsync → rename) through
//! the same machinery as the model format in `scis-nn`, so a crash mid-save
//! never corrupts the latest checkpoint on disk.
//!
//! Format (line-oriented, all `f64` values as IEEE-754 bit patterns in hex):
//!
//! ```text
//! scis-ckpt v1
//! phase <initial|calibration|retrain>
//! epoch <next epoch to run>
//! rng <s0> <s1> <s2> <s3> <spare|->
//! adam <lr> <beta1> <beta2> <eps> <t>
//! vec adam_m <count>     (then one hex f64 per line; same for the rest)
//! vec adam_v <count>
//! vec gen <count>
//! disc <0|1>
//! vec disc <count>       (only when disc = 1)
//! guard <best_loss> <lr> <retries>
//! vec guard_best <count>
//! stats <nan_batches_skipped> <rollbacks> <lr_backoffs>
//! solve <solves> <iterations> <converged> <escalations> <unconverged> <warm_starts> <iters_saved>
//! checksum <fnv1a64 of everything above, hex>
//! ```

use crate::error::TrainPhase;
use crate::guard::GuardStats;
use scis_nn::serialize::ModelIoError;
use scis_nn::{write_atomic, AdamState};
use scis_ot::SolveStats;
use scis_tensor::fnv1a64;
use scis_tensor::rng::RngState;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Full training state at an epoch boundary; see the module docs for the
/// on-disk format and DESIGN.md §14 for the resume determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Training phase this checkpoint belongs to.
    pub phase: TrainPhase,
    /// Next epoch to run when resuming (epochs `0..epoch` are complete).
    pub epoch: usize,
    /// RNG stream position at the epoch boundary.
    pub rng: RngState,
    /// Generator Adam optimizer state (moments + step count).
    pub adam: AdamState,
    /// Flat generator parameters.
    pub gen_params: Vec<f64>,
    /// Flat discriminator parameters, when the imputer keeps one.
    pub disc_params: Option<Vec<f64>>,
    /// Guard best-snapshot parameters.
    pub guard_best_params: Vec<f64>,
    /// Loss of the guard's best snapshot (`+inf` before any accept).
    pub guard_best_loss: f64,
    /// Guard learning rate (after any backoffs).
    pub guard_lr: f64,
    /// Guard recovery attempts consumed.
    pub guard_retries: usize,
    /// Recovery accounting accumulated so far in this phase. The per-solve
    /// iteration scratch (`solve_iters`) is telemetry-only and is not
    /// persisted; it restarts empty on resume.
    pub stats: GuardStats,
}

fn phase_from(name: &str, line: usize) -> Result<TrainPhase, ModelIoError> {
    Ok(match name {
        "initial" => TrainPhase::Initial,
        "calibration" => TrainPhase::Calibration,
        "retrain" => TrainPhase::Retrain,
        other => {
            return Err(ModelIoError::Format {
                line,
                message: format!("unknown training phase {:?}", other),
            })
        }
    })
}

fn push_vec(body: &mut String, name: &str, values: &[f64]) {
    let _ = writeln!(body, "vec {} {}", name, values.len());
    for v in values {
        let _ = writeln!(body, "{:016x}", v.to_bits());
    }
}

fn format_err(line: usize, message: impl Into<String>) -> ModelIoError {
    ModelIoError::Format {
        line,
        message: message.into(),
    }
}

type LineIter<'a> = std::iter::Enumerate<std::str::Lines<'a>>;

fn next_line<'a>(lines: &mut LineIter<'a>, expect: &str) -> Result<(usize, &'a str), ModelIoError> {
    match lines.next() {
        Some((i, l)) => Ok((i + 1, l)),
        None => Err(format_err(
            0,
            format!("unexpected end of file (expected {})", expect),
        )),
    }
}

fn parse_u64_hex(tok: &str, ln: usize) -> Result<u64, ModelIoError> {
    u64::from_str_radix(tok, 16).map_err(|_| format_err(ln, "bad hex value"))
}

fn parse_f64_hex(tok: &str, ln: usize) -> Result<f64, ModelIoError> {
    Ok(f64::from_bits(parse_u64_hex(tok, ln)?))
}

fn parse_usize(tok: &str, ln: usize) -> Result<usize, ModelIoError> {
    tok.parse().map_err(|_| format_err(ln, "bad integer"))
}

fn read_vec(lines: &mut LineIter<'_>, name: &str) -> Result<Vec<f64>, ModelIoError> {
    let (ln, line) = next_line(lines, name)?;
    let count = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["vec", n, count] if *n == name => parse_usize(count, ln)?,
        _ => return Err(format_err(ln, format!("expected `vec {} <count>`", name))),
    };
    // the count is untrusted: the vector grows with the lines actually read,
    // and a count past the end of the file ends in a typed error
    let mut out = Vec::new();
    for _ in 0..count {
        let (ln, line) = next_line(lines, "vector entry")?;
        out.push(parse_f64_hex(line.trim(), ln)?);
    }
    Ok(out)
}

impl TrainCheckpoint {
    /// Serializes the checkpoint to its on-disk text form (with trailing
    /// checksum line).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        let _ = writeln!(body, "scis-ckpt v1");
        let _ = writeln!(body, "phase {}", self.phase.name());
        let _ = writeln!(body, "epoch {}", self.epoch);
        let spare = match self.rng.spare_normal {
            Some(v) => format!("{:016x}", v.to_bits()),
            None => "-".to_string(),
        };
        let _ = writeln!(
            body,
            "rng {:016x} {:016x} {:016x} {:016x} {}",
            self.rng.s[0], self.rng.s[1], self.rng.s[2], self.rng.s[3], spare
        );
        let _ = writeln!(
            body,
            "adam {:016x} {:016x} {:016x} {:016x} {}",
            self.adam.lr.to_bits(),
            self.adam.beta1.to_bits(),
            self.adam.beta2.to_bits(),
            self.adam.eps.to_bits(),
            self.adam.t
        );
        push_vec(&mut body, "adam_m", &self.adam.m);
        push_vec(&mut body, "adam_v", &self.adam.v);
        push_vec(&mut body, "gen", &self.gen_params);
        match &self.disc_params {
            Some(d) => {
                let _ = writeln!(body, "disc 1");
                push_vec(&mut body, "disc", d);
            }
            None => {
                let _ = writeln!(body, "disc 0");
            }
        }
        let _ = writeln!(
            body,
            "guard {:016x} {:016x} {}",
            self.guard_best_loss.to_bits(),
            self.guard_lr.to_bits(),
            self.guard_retries
        );
        push_vec(&mut body, "guard_best", &self.guard_best_params);
        let _ = writeln!(
            body,
            "stats {} {} {}",
            self.stats.nan_batches_skipped, self.stats.rollbacks, self.stats.lr_backoffs
        );
        let s = &self.stats.sinkhorn;
        let _ = writeln!(
            body,
            "solve {} {} {} {} {} {} {}",
            s.solves,
            s.iterations,
            s.converged,
            s.escalations,
            s.unconverged,
            s.warm_starts,
            s.iters_saved
        );
        let _ = writeln!(body, "checksum {:016x}", fnv1a64(body.as_bytes()));
        body.into_bytes()
    }

    /// Writes the checkpoint atomically (temp file → fsync → rename).
    pub fn save(&self, path: &Path) -> Result<(), ModelIoError> {
        write_atomic(path, &self.to_bytes())?;
        Ok(())
    }

    /// Loads and verifies a checkpoint: version check, structural parse,
    /// and checksum verification. Every corruption mode surfaces as a typed
    /// [`ModelIoError`]; this never panics on bad input.
    pub fn load(path: &Path) -> Result<Self, ModelIoError> {
        let content = std::fs::read_to_string(path)?;
        let mut lines = content.lines().enumerate();

        let (l1, header) = next_line(&mut lines, "header")?;
        match header.trim() {
            "scis-ckpt v1" => {}
            other if other.starts_with("scis-ckpt ") => {
                return Err(format_err(
                    l1,
                    format!(
                        "unsupported checkpoint version {:?} (this build reads v1)",
                        other.trim_start_matches("scis-ckpt ")
                    ),
                ));
            }
            _ => return Err(format_err(l1, "bad header")),
        }

        let (ln, line) = next_line(&mut lines, "phase")?;
        let phase = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["phase", name] => phase_from(name, ln)?,
            _ => return Err(format_err(ln, "expected `phase <name>`")),
        };
        let (ln, line) = next_line(&mut lines, "epoch")?;
        let epoch = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["epoch", n] => parse_usize(n, ln)?,
            _ => return Err(format_err(ln, "expected `epoch <n>`")),
        };
        let (ln, line) = next_line(&mut lines, "rng")?;
        let rng = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["rng", s0, s1, s2, s3, spare] => RngState {
                s: [
                    parse_u64_hex(s0, ln)?,
                    parse_u64_hex(s1, ln)?,
                    parse_u64_hex(s2, ln)?,
                    parse_u64_hex(s3, ln)?,
                ],
                spare_normal: if *spare == "-" {
                    None
                } else {
                    Some(parse_f64_hex(spare, ln)?)
                },
            },
            _ => return Err(format_err(ln, "expected `rng <s0> <s1> <s2> <s3> <spare>`")),
        };
        let (ln, line) = next_line(&mut lines, "adam")?;
        let (lr, beta1, beta2, eps, t) =
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["adam", lr, b1, b2, eps, t] => (
                    parse_f64_hex(lr, ln)?,
                    parse_f64_hex(b1, ln)?,
                    parse_f64_hex(b2, ln)?,
                    parse_f64_hex(eps, ln)?,
                    t.parse::<u64>().map_err(|_| format_err(ln, "bad adam t"))?,
                ),
                _ => return Err(format_err(ln, "expected `adam <lr> <b1> <b2> <eps> <t>`")),
            };

        let m = read_vec(&mut lines, "adam_m")?;
        let v = read_vec(&mut lines, "adam_v")?;
        let gen_params = read_vec(&mut lines, "gen")?;
        let (ln, line) = next_line(&mut lines, "disc")?;
        let disc_params = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["disc", "1"] => Some(read_vec(&mut lines, "disc")?),
            ["disc", "0"] => None,
            _ => return Err(format_err(ln, "expected `disc <0|1>`")),
        };
        let (ln, line) = next_line(&mut lines, "guard")?;
        let (guard_best_loss, guard_lr, guard_retries) =
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["guard", loss, lr, retries] => (
                    parse_f64_hex(loss, ln)?,
                    parse_f64_hex(lr, ln)?,
                    parse_usize(retries, ln)?,
                ),
                _ => return Err(format_err(ln, "expected `guard <loss> <lr> <retries>`")),
            };
        let guard_best_params = read_vec(&mut lines, "guard_best")?;
        let (ln, line) = next_line(&mut lines, "stats")?;
        let mut stats = GuardStats::default();
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["stats", nan, rb, lb] => {
                stats.nan_batches_skipped = parse_usize(nan, ln)?;
                stats.rollbacks = parse_usize(rb, ln)?;
                stats.lr_backoffs = parse_usize(lb, ln)?;
            }
            _ => {
                return Err(format_err(
                    ln,
                    "expected `stats <nan> <rollbacks> <backoffs>`",
                ))
            }
        }
        let (ln, line) = next_line(&mut lines, "solve")?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["solve", so, it, co, es, un, ws, is] => {
                stats.sinkhorn = SolveStats {
                    solves: parse_usize(so, ln)?,
                    iterations: parse_usize(it, ln)?,
                    converged: parse_usize(co, ln)?,
                    escalations: parse_usize(es, ln)?,
                    unconverged: parse_usize(un, ln)?,
                    warm_starts: parse_usize(ws, ln)?,
                    iters_saved: parse_usize(is, ln)?,
                    ..SolveStats::default()
                };
            }
            _ => return Err(format_err(ln, "expected `solve <7 counters>`")),
        }

        let (ln, line) = next_line(&mut lines, "checksum")?;
        let expected = line
            .strip_prefix("checksum ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or_else(|| format_err(ln, "expected `checksum <hex>`"))?;
        let body: String = content
            .lines()
            .take(ln - 1)
            .map(|l| format!("{}\n", l))
            .collect();
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(ModelIoError::Checksum { expected, actual });
        }

        Ok(TrainCheckpoint {
            phase,
            epoch,
            rng,
            adam: AdamState {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            },
            gen_params,
            disc_params,
            guard_best_params,
            guard_best_loss,
            guard_lr,
            guard_retries,
            stats,
        })
    }
}

/// Where and how often periodic checkpoints are written.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory receiving checkpoint files (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every `every` epochs (≥ 1).
    pub every: usize,
    /// Rotating retention: keep the last `keep` periodic checkpoints per
    /// phase (≥ 1); older ones are deleted after a successful write.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` every epoch, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 1,
            keep: 3,
        }
    }

    /// Fluent setter for [`CheckpointPolicy::every`] (clamped to ≥ 1).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Fluent setter for [`CheckpointPolicy::keep`] (clamped to ≥ 1).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    fn periodic_name(phase: TrainPhase, epoch: usize) -> String {
        format!("ckpt-{}-e{:05}.ckpt", phase.name(), epoch)
    }

    fn emergency_name(phase: TrainPhase) -> String {
        format!("ckpt-{}-emergency.ckpt", phase.name())
    }

    /// Writes a periodic checkpoint and rotates old ones (keep-last-K per
    /// phase). Returns the path written.
    pub fn write_periodic(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf, ModelIoError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(Self::periodic_name(ckpt.phase, ckpt.epoch));
        ckpt.save(&path)?;
        self.rotate(ckpt.phase);
        Ok(path)
    }

    /// Writes an emergency checkpoint (training failure or deadline expiry)
    /// at a fixed per-phase name, outside the rotation. Returns the path.
    pub fn write_emergency(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf, ModelIoError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(Self::emergency_name(ckpt.phase));
        ckpt.save(&path)?;
        Ok(path)
    }

    /// Best-effort deletion of periodic checkpoints beyond `keep` for one
    /// phase (newest — highest epoch — retained).
    fn rotate(&self, phase: TrainPhase) {
        let prefix = format!("ckpt-{}-e", phase.name());
        let mut files: Vec<(usize, PathBuf)> = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().to_string();
                    let epoch = name
                        .strip_prefix(&prefix)?
                        .strip_suffix(".ckpt")?
                        .parse::<usize>()
                        .ok()?;
                    Some((epoch, e.path()))
                })
                .collect(),
            Err(_) => return,
        };
        files.sort_by_key(|(epoch, _)| *epoch);
        if files.len() > self.keep {
            let n_drop = files.len() - self.keep;
            for (_, path) in files.into_iter().take(n_drop) {
                std::fs::remove_file(path).ok();
            }
        }
    }
}

/// Finds the most advanced *loadable* checkpoint in `dir`: later phases win
/// over earlier ones, higher epochs win within a phase, and a phase's
/// emergency checkpoint (written last, at failure or deadline expiry) wins
/// over its periodic ones. Candidates that fail [`TrainCheckpoint::load`]
/// (truncated writes, checksum mismatches) are skipped rather than returned,
/// so a corrupt emergency file never shadows a valid periodic checkpoint.
/// Returns `None` when the directory has no loadable checkpoints.
pub fn latest_checkpoint(dir: &Path) -> Option<PathBuf> {
    let phases = [
        TrainPhase::Initial,
        TrainPhase::Calibration,
        TrainPhase::Retrain,
    ];
    let mut candidates: Vec<((u8, usize), PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).ok()?.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().to_string();
        for phase in phases {
            let rank = if name == CheckpointPolicy::emergency_name(phase) {
                Some((phase.code(), usize::MAX))
            } else {
                name.strip_prefix(&format!("ckpt-{}-e", phase.name()))
                    .and_then(|r| r.strip_suffix(".ckpt"))
                    .and_then(|r| r.parse::<usize>().ok())
                    .map(|epoch| (phase.code(), epoch))
            };
            if let Some(rank) = rank {
                candidates.push((rank, entry.path()));
            }
        }
    }
    candidates.sort_by(|(a, _), (b, _)| b.cmp(a));
    candidates
        .into_iter()
        .find(|(_, path)| TrainCheckpoint::load(path).is_ok())
        .map(|(_, path)| path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scis_ckpt_{}_{}", std::process::id(), name));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_ckpt() -> TrainCheckpoint {
        TrainCheckpoint {
            phase: TrainPhase::Initial,
            epoch: 7,
            rng: RngState {
                s: [1, u64::MAX, 0xDEAD_BEEF, 42],
                spare_normal: Some(-0.0),
            },
            adam: AdamState {
                lr: 0.005,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 910,
                m: vec![0.1, -0.2, 5e-324],
                v: vec![0.0, 1e300, 1.0 / 3.0],
            },
            gen_params: vec![1.5, -2.5, 0.25],
            disc_params: Some(vec![7.0, 8.0]),
            guard_best_params: vec![1.5, -2.5, 0.125],
            guard_best_loss: 0.75,
            guard_lr: 0.0025,
            guard_retries: 1,
            stats: GuardStats {
                nan_batches_skipped: 2,
                rollbacks: 1,
                lr_backoffs: 1,
                sinkhorn: SolveStats {
                    solves: 30,
                    iterations: 900,
                    converged: 29,
                    escalations: 1,
                    unconverged: 1,
                    warm_starts: 10,
                    iters_saved: 50,
                    ..SolveStats::default()
                },
            },
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.ckpt");
        let ckpt = sample_ckpt();
        ckpt.save(&path).unwrap();
        let loaded = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        // PartialEq on f64 treats -0.0 == 0.0; pin the bits too
        assert_eq!(
            loaded.rng.spare_normal.unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(loaded.adam.m[2].to_bits(), 5e-324f64.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infinite_best_loss_survives() {
        let dir = tmp_dir("inf");
        let path = dir.join("a.ckpt");
        let mut ckpt = sample_ckpt();
        ckpt.guard_best_loss = f64::INFINITY;
        ckpt.disc_params = None;
        ckpt.rng.spare_normal = None;
        ckpt.save(&path).unwrap();
        let loaded = TrainCheckpoint::load(&path).unwrap();
        assert!(loaded.guard_best_loss.is_infinite());
        assert!(loaded.disc_params.is_none());
        assert!(loaded.rng.spare_normal.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_checkpoint_fails_cleanly() {
        let dir = tmp_dir("trunc");
        let path = dir.join("a.ckpt");
        sample_ckpt().save(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &content[..content.len() / 2]).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(ModelIoError::Format { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_fails_checksum() {
        let dir = tmp_dir("bitrot");
        let path = dir.join("a.ckpt");
        sample_ckpt().save(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(String::from).collect();
        // flip a digit in a vector entry; structure stays parseable
        let idx = lines.iter().position(|l| l.starts_with("vec gen")).unwrap() + 1;
        let mut flipped = lines[idx].clone();
        let last = flipped.pop().unwrap();
        flipped.push(if last == '0' { '1' } else { '0' });
        lines[idx] = flipped;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(ModelIoError::Checksum { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_is_rejected() {
        let dir = tmp_dir("skew");
        let path = dir.join("a.ckpt");
        std::fs::write(&path, "scis-ckpt v99\nphase initial\n").unwrap();
        match TrainCheckpoint::load(&path) {
            Err(ModelIoError::Format { message, .. }) => {
                assert!(message.contains("v99"), "{}", message);
            }
            other => panic!("expected Format error, got ok={}", other.is_ok()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_last_k() {
        let dir = tmp_dir("rotate");
        let policy = CheckpointPolicy::new(&dir).keep(2);
        let mut ckpt = sample_ckpt();
        for epoch in 1..=5 {
            ckpt.epoch = epoch;
            policy.write_periodic(&ckpt).unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["ckpt-initial-e00004.ckpt", "ckpt-initial-e00005.ckpt"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_prefers_later_phase_then_epoch_then_emergency() {
        let dir = tmp_dir("latest");
        let policy = CheckpointPolicy::new(&dir);
        let mut ckpt = sample_ckpt();
        ckpt.epoch = 3;
        policy.write_periodic(&ckpt).unwrap();
        ckpt.epoch = 9;
        policy.write_periodic(&ckpt).unwrap();
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("ckpt-initial-e00009.ckpt"));
        // emergency in the same phase wins
        policy.write_emergency(&ckpt).unwrap();
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("ckpt-initial-emergency.ckpt"));
        // a later phase wins over everything in an earlier one
        ckpt.phase = TrainPhase::Retrain;
        ckpt.epoch = 1;
        policy.write_periodic(&ckpt).unwrap();
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("ckpt-retrain-e00001.ckpt"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_has_no_latest() {
        let dir = tmp_dir("empty");
        assert!(latest_checkpoint(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_emergency_does_not_shadow_valid_periodic() {
        let dir = tmp_dir("corrupt_shadow");
        let policy = CheckpointPolicy::new(&dir);
        let mut ckpt = sample_ckpt();
        ckpt.epoch = 7;
        policy.write_periodic(&ckpt).unwrap();
        // a truncated emergency checkpoint outranks the periodic one by name,
        // but must be skipped because it fails to load
        let emergency = dir.join(CheckpointPolicy::emergency_name(TrainPhase::Initial));
        let full = ckpt.to_bytes();
        std::fs::write(&emergency, &full[..full.len() / 2]).unwrap();
        assert!(TrainCheckpoint::load(&emergency).is_err());
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("ckpt-initial-e00007.ckpt"));
        // once every candidate is corrupt there is no latest checkpoint
        std::fs::write(dir.join("ckpt-initial-e00007.ckpt"), b"scis-ckpt v1\n").unwrap();
        assert!(latest_checkpoint(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
