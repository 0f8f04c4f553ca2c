//! Model persistence: a small self-describing text format for MLPs.
//!
//! Format (line-oriented, versioned):
//!
//! ```text
//! scis-mlp v2
//! in <in_dim>
//! dense <out> <activation>
//! dropout <p>
//! …
//! params <count>
//! <one f64 per line, hex bits for lossless round-trip>
//! checksum <fnv1a64 of everything above, hex>
//! ```
//!
//! The architecture lines mirror the [`crate::mlp::MlpBuilder`] calls, so a
//! loaded model is reconstructed through the same code path that built the
//! original. Parameters are stored as hexadecimal IEEE-754 bit patterns —
//! bit-exact round-trips, no decimal parsing surprises. The trailing
//! checksum line (v2) detects truncation and bit-rot; v1 files (no
//! checksum) still load. Writes go through [`write_atomic`]
//! (temp file → fsync → rename), so a crash mid-save never leaves a
//! half-written model at the target path.

use crate::layer::Activation;
use crate::mlp::{Mlp, MlpBuilder};
use scis_tensor::{fnv1a64, Rng64};
use std::io::Write;
use std::path::Path;

/// Errors from model load/save.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The recorded checksum does not match the file contents — the file
    /// was truncated or corrupted after writing.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the contents as read.
        actual: u64,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "io error: {}", e),
            ModelIoError::Format { line, message } => {
                write!(f, "line {}: {}", line, message)
            }
            ModelIoError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: file records {:016x}, contents hash to {:016x}",
                expected, actual
            ),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Crash-safe file write: writes `contents` to a sibling temp file, fsyncs
/// it, then atomically renames over `path`. Readers never observe a
/// half-written file.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    // Best-effort directory fsync so the rename itself survives a crash.
    if result.is_ok() {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                d.sync_all().ok();
            }
        }
    }
    result
}

fn act_name(a: Activation) -> &'static str {
    match a {
        Activation::Relu => "relu",
        Activation::LeakyRelu => "leaky_relu",
        Activation::Sigmoid => "sigmoid",
        Activation::Tanh => "tanh",
        Activation::Identity => "identity",
    }
}

fn act_from(name: &str, line: usize) -> Result<Activation, ModelIoError> {
    Ok(match name {
        "relu" => Activation::Relu,
        "leaky_relu" => Activation::LeakyRelu,
        "sigmoid" => Activation::Sigmoid,
        "tanh" => Activation::Tanh,
        "identity" => Activation::Identity,
        other => {
            return Err(ModelIoError::Format {
                line,
                message: format!("unknown activation {:?}", other),
            })
        }
    })
}

/// Architecture descriptor recorded alongside the parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpSpec {
    /// Input feature count.
    pub in_dim: usize,
    /// Layer entries in builder order.
    pub layers: Vec<SpecLayer>,
}

/// One builder step.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecLayer {
    /// `dense(out, act)`.
    Dense {
        /// Output units.
        out: usize,
        /// Trailing activation.
        act: Activation,
    },
    /// `dropout(p)`.
    Dropout {
        /// Drop probability.
        p: f64,
    },
}

impl MlpSpec {
    /// Materializes the network described by this spec (fresh weights; use
    /// [`load_mlp`] to also restore parameters).
    pub fn build(&self, rng: &mut Rng64) -> Mlp {
        let mut b: MlpBuilder = Mlp::builder(self.in_dim);
        for l in &self.layers {
            b = match *l {
                SpecLayer::Dense { out, act } => b.dense(out, act),
                SpecLayer::Dropout { p } => b.dropout(p),
            };
        }
        b.build(rng)
    }
}

/// The parameter count of the network `spec` describes (the dense layers'
/// weights and biases), or `None` for a network without layers or a count
/// that overflows `usize`.
fn spec_param_count(spec: &MlpSpec) -> Option<usize> {
    let (mut width, mut total) = (spec.in_dim, 0usize);
    for layer in &spec.layers {
        if let SpecLayer::Dense { out, .. } = *layer {
            total = width.checked_add(1)?.checked_mul(out)?.checked_add(total)?;
            width = out;
        }
    }
    (!spec.layers.is_empty()).then_some(total)
}

/// Renders an MLP (architecture + parameters) to the v2 text format with a
/// trailing checksum line — the exact bytes [`save_mlp`] writes. Container
/// formats (model bundles, checkpoints) embed this string as their
/// generator section and parse it back with [`mlp_from_str`].
pub fn mlp_to_string(net: &Mlp, spec: &MlpSpec) -> String {
    use std::fmt::Write as _;
    let mut body = String::new();
    let _ = writeln!(body, "scis-mlp v2");
    let _ = writeln!(body, "in {}", spec.in_dim);
    for l in &spec.layers {
        match *l {
            SpecLayer::Dense { out, act } => {
                let _ = writeln!(body, "dense {} {}", out, act_name(act));
            }
            SpecLayer::Dropout { p } => {
                let _ = writeln!(body, "dropout {}", p);
            }
        }
    }
    let params = net.param_vector_ref();
    let _ = writeln!(body, "params {}", params.len());
    for p in params {
        let _ = writeln!(body, "{:016x}", p.to_bits());
    }
    let _ = writeln!(body, "checksum {:016x}", fnv1a64(body.as_bytes()));
    body
}

/// Saves an MLP (architecture + parameters) to `path` atomically, with a
/// trailing checksum line (format v2).
pub fn save_mlp(path: &Path, net: &Mlp, spec: &MlpSpec) -> Result<(), ModelIoError> {
    write_atomic(path, mlp_to_string(net, spec).as_bytes())?;
    Ok(())
}

/// Loads an MLP saved by [`save_mlp`]; weights restored bit-exactly.
/// Accepts v1 (no checksum) and v2 (checksum verified) files; any other
/// version is rejected with a typed error.
pub fn load_mlp(path: &Path) -> Result<(Mlp, MlpSpec), ModelIoError> {
    let content = std::fs::read_to_string(path)?;
    mlp_from_str(&content)
}

/// Parses the text produced by [`mlp_to_string`] (or read from a
/// [`save_mlp`] file); weights restored bit-exactly. Accepts v1 (no
/// checksum) and v2 (checksum verified) content.
pub fn mlp_from_str(content: &str) -> Result<(Mlp, MlpSpec), ModelIoError> {
    let mut lines = content.lines().enumerate();
    let mut next = |expect: &str| -> Result<(usize, String), ModelIoError> {
        match lines.next() {
            Some((i, l)) => Ok((i + 1, l.to_string())),
            None => Err(ModelIoError::Format {
                line: 0,
                message: format!("unexpected end of file (expected {})", expect),
            }),
        }
    };

    let (l1, header) = next("header")?;
    let version = match header.trim() {
        "scis-mlp v1" => 1,
        "scis-mlp v2" => 2,
        other if other.starts_with("scis-mlp ") => {
            return Err(ModelIoError::Format {
                line: l1,
                message: format!(
                    "unsupported format version {:?} (this build reads v1 and v2)",
                    other.trim_start_matches("scis-mlp ")
                ),
            });
        }
        _ => {
            return Err(ModelIoError::Format {
                line: l1,
                message: "bad header".into(),
            });
        }
    };
    let (l2, in_line) = next("in <dim>")?;
    let in_dim: usize = in_line
        .strip_prefix("in ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or(ModelIoError::Format {
            line: l2,
            message: "expected `in <dim>`".into(),
        })?;

    let mut layers = Vec::new();
    let n_params = loop {
        let (ln, line) = next("layer or params")?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["dense", out, act] => {
                let out: usize = out.parse().map_err(|_| ModelIoError::Format {
                    line: ln,
                    message: "bad dense width".into(),
                })?;
                layers.push(SpecLayer::Dense {
                    out,
                    act: act_from(act, ln)?,
                });
            }
            ["dropout", p] => {
                let p: f64 = p.parse().ok().filter(|p| (0.0..1.0).contains(p)).ok_or(
                    ModelIoError::Format {
                        line: ln,
                        message: "bad dropout p".into(),
                    },
                )?;
                layers.push(SpecLayer::Dropout { p });
            }
            ["params", count] => {
                break count.parse::<usize>().map_err(|_| ModelIoError::Format {
                    line: ln,
                    message: "bad params count".into(),
                })?;
            }
            _ => {
                return Err(ModelIoError::Format {
                    line: ln,
                    message: format!("unrecognized line {:?}", line),
                })
            }
        }
    };
    // the count is untrusted: the vector grows with the lines actually read,
    // and a count past the end of the file ends in a typed error below
    let mut params = Vec::new();
    for _ in 0..n_params {
        let (ln, line) = next("parameter")?;
        let bits = u64::from_str_radix(line.trim(), 16).map_err(|_| ModelIoError::Format {
            line: ln,
            message: "bad parameter hex".into(),
        })?;
        params.push(f64::from_bits(bits));
    }

    if version >= 2 {
        let (ln, line) = next("checksum")?;
        let expected = line
            .strip_prefix("checksum ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or(ModelIoError::Format {
                line: ln,
                message: "expected `checksum <hex>`".into(),
            })?;
        // Hash everything preceding the checksum line, exactly as written.
        let body: String = content
            .lines()
            .take(ln - 1)
            .map(|l| format!("{}\n", l))
            .collect();
        let actual = fnv1a64(body.as_bytes());
        if actual != expected {
            return Err(ModelIoError::Checksum { expected, actual });
        }
    }

    let spec = MlpSpec { in_dim, layers };
    // checked before the build, so forged layer widths cannot size an
    // allocation beyond the parameters the file holds
    let expected = spec_param_count(&spec).ok_or(ModelIoError::Format {
        line: 0,
        message: "architecture has no layers or overflows".into(),
    })?;
    if expected != n_params {
        return Err(ModelIoError::Format {
            line: 0,
            message: format!(
                "parameter count {} does not match architecture ({} expected)",
                n_params, expected
            ),
        });
    }
    let mut rng = Rng64::seed_from_u64(0); // weights are overwritten below
    let mut net = spec.build(&mut rng);
    net.set_param_vector(&params);
    Ok((net, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use scis_tensor::Matrix;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scis_mlp_{}_{}", std::process::id(), name));
        p
    }

    fn spec() -> MlpSpec {
        MlpSpec {
            in_dim: 4,
            layers: vec![
                SpecLayer::Dense {
                    out: 8,
                    act: Activation::Relu,
                },
                SpecLayer::Dropout { p: 0.5 },
                SpecLayer::Dense {
                    out: 2,
                    act: Activation::Sigmoid,
                },
            ],
        }
    }

    #[test]
    fn save_load_roundtrip_is_bit_exact() {
        let mut rng = Rng64::seed_from_u64(1);
        let s = spec();
        let mut net = s.build(&mut rng);
        let path = tmp("roundtrip");
        save_mlp(&path, &net, &s).unwrap();
        let (mut loaded, loaded_spec) = load_mlp(&path).unwrap();
        assert_eq!(loaded_spec, s);
        assert_eq!(loaded.param_vector(), net.param_vector());
        // identical deterministic forward pass
        let x = Matrix::from_fn(3, 4, |i, j| (i as f64 - j as f64) * 0.3);
        let mut r = Rng64::seed_from_u64(0);
        assert_eq!(
            loaded.forward(&x, Mode::Eval, &mut r),
            net.forward(&x, Mode::Eval, &mut r)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn special_float_values_survive() {
        let mut rng = Rng64::seed_from_u64(2);
        let s = MlpSpec {
            in_dim: 1,
            layers: vec![SpecLayer::Dense {
                out: 2,
                act: Activation::Identity,
            }],
        };
        let mut net = s.build(&mut rng);
        // force awkward values: subnormal, negative zero, exact thirds
        net.set_param_vector(&[1.0 / 3.0, -0.0, 5e-324, 1e300]);
        let path = tmp("special");
        save_mlp(&path, &net, &s).unwrap();
        let (mut loaded, _) = load_mlp(&path).unwrap();
        let p = loaded.param_vector();
        assert_eq!(p[0].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(p[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(p[2].to_bits(), 5e-324f64.to_bits());
        assert_eq!(p[3], 1e300);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not a model\n").unwrap();
        assert!(matches!(load_mlp(&path), Err(ModelIoError::Format { .. })));
        std::fs::write(&path, "scis-mlp v1\nin 2\ndense 2 relu\nparams 99\n").unwrap();
        assert!(load_mlp(&path).is_err());
        std::fs::write(&path, "scis-mlp v1\nin 2\ndense 2 flux\nparams 6\n").unwrap();
        assert!(matches!(load_mlp(&path), Err(ModelIoError::Format { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn param_count_mismatch_is_detected() {
        let mut rng = Rng64::seed_from_u64(3);
        let s = spec();
        let net = s.build(&mut rng);
        let path = tmp("mismatch");
        save_mlp(&path, &net, &s).unwrap();
        // truncate one parameter line (drops the checksum line too)
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = content.lines().collect();
        lines.pop();
        lines.pop();
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(load_mlp(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_fails_cleanly() {
        let mut rng = Rng64::seed_from_u64(4);
        let s = spec();
        let net = s.build(&mut rng);
        let path = tmp("truncated");
        save_mlp(&path, &net, &s).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        // cut the file roughly in half, mid parameter block
        std::fs::write(&path, &content[..content.len() / 2]).unwrap();
        match load_mlp(&path) {
            Err(ModelIoError::Format { .. }) | Err(ModelIoError::Checksum { .. }) => {}
            other => panic!(
                "expected typed error on truncation, got {:?}",
                other.is_ok()
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let mut rng = Rng64::seed_from_u64(5);
        let s = spec();
        let net = s.build(&mut rng);
        let path = tmp("bitrot");
        save_mlp(&path, &net, &s).unwrap();
        // flip one hex digit inside a parameter line — structure stays
        // valid, only the checksum can catch it
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(String::from).collect();
        let param_line = lines.len() - 2; // last line is the checksum
        let mut flipped = lines[param_line].clone();
        let last = flipped.pop().unwrap();
        flipped.push(if last == '0' { '1' } else { '0' });
        assert_ne!(flipped, lines[param_line]);
        lines[param_line] = flipped;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(matches!(
            load_mlp(&path),
            Err(ModelIoError::Checksum { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_skew_is_rejected_with_version_name() {
        let path = tmp("skew");
        std::fs::write(&path, "scis-mlp v9\nin 2\ndense 2 relu\nparams 6\n").unwrap();
        match load_mlp(&path) {
            Err(ModelIoError::Format { message, .. }) => {
                assert!(message.contains("v9"), "message {:?}", message);
            }
            other => panic!("expected Format error, got ok={}", other.is_ok()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        // v1 has no checksum line; loader must accept it unchanged.
        let mut rng = Rng64::seed_from_u64(6);
        let s = MlpSpec {
            in_dim: 1,
            layers: vec![SpecLayer::Dense {
                out: 1,
                act: Activation::Identity,
            }],
        };
        let net = s.build(&mut rng);
        let params = net.param_vector_ref();
        let mut body = String::from("scis-mlp v1\nin 1\ndense 1 identity\nparams 2\n");
        for p in &params {
            body.push_str(&format!("{:016x}\n", p.to_bits()));
        }
        let path = tmp("v1legacy");
        std::fs::write(&path, body).unwrap();
        let (mut loaded, _) = load_mlp(&path).unwrap();
        assert_eq!(loaded.param_vector(), params);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let mut rng = Rng64::seed_from_u64(7);
        let s = spec();
        let net = s.build(&mut rng);
        let path = tmp("atomic");
        save_mlp(&path, &net, &s).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {:?}", leftovers);
        std::fs::remove_file(&path).ok();
    }
}
