//! The `ModelBundle` artifact: everything serving needs in one checksummed
//! file.
//!
//! Training (`scis train --save-model`) writes a bundle; `scis impute
//! --model` and `scis serve --model` load it. A bundle carries the trained
//! generator (embedded in the [`scis_nn::mlp_to_string`] v2 format, its own
//! checksum included), the [`MinMaxScaler`] fitted on the training input,
//! per-column metadata (name, kind, observed mean in original units — the
//! degradation ladder's fallback values), and the [`AccelConfig`] the model
//! was trained under (provenance; serving itself only runs generator
//! forwards).
//!
//! Format (line-oriented, versioned, FNV-1a-64 whole-file checksum,
//! atomic writes — same discipline as the checkpoint and model formats):
//!
//! ```text
//! scis-bundle v1
//! columns <d>
//! col <kind> <min_hex> <span_hex> <mean_hex> <name>   × d
//! accel <warm_start> <decomposed_cost> <eps_scale_cold> <f32_compute>
//! generator <n_lines>
//! <embedded scis-mlp v2 text>
//! checksum <fnv1a64 of everything above, hex>
//! ```

use scis_core::dim::AccelConfig;
use scis_data::dataset::ColumnKind;
use scis_data::normalize::MinMaxScaler;
use scis_nn::serialize::ModelIoError;
use scis_nn::{mlp_from_str, mlp_to_string, write_atomic, Mlp, MlpSpec};
use scis_tensor::fnv1a64;
use std::path::Path;

/// Errors from bundle load/save — always typed, never a panic: a malformed
/// or mismatched bundle must map to a clean CLI exit / HTTP error.
#[derive(Debug)]
pub enum BundleError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file.
    Format {
        /// 1-based line number (0 when unknown).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The whole-file checksum does not match — truncation or bit-rot.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the contents as read.
        actual: u64,
    },
    /// The embedded generator section failed to parse.
    Model(ModelIoError),
    /// The bundle's column count does not match the data it is asked to
    /// impute (wrong-width request row, wrong-schema CSV, or a generator
    /// whose input width disagrees with the recorded columns).
    SchemaMismatch {
        /// Columns the bundle was trained on.
        expected: usize,
        /// Columns the caller presented.
        got: usize,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "io error: {}", e),
            BundleError::Format { line, message } => write!(f, "line {}: {}", line, message),
            BundleError::Checksum { expected, actual } => write!(
                f,
                "bundle checksum mismatch: file records {:016x}, contents hash to {:016x}",
                expected, actual
            ),
            BundleError::Model(e) => write!(f, "embedded generator: {}", e),
            BundleError::SchemaMismatch { expected, got } => write!(
                f,
                "schema mismatch: bundle has {} columns, request has {}",
                expected, got
            ),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

impl From<ModelIoError> for BundleError {
    fn from(e: ModelIoError) -> Self {
        BundleError::Model(e)
    }
}

/// Per-column serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name (CSV header cell; `c<j>` when the source had none).
    pub name: String,
    /// Continuous or ordinal-coded categorical.
    pub kind: ColumnKind,
    /// Mean of the observed cells in *original* units — the value the
    /// column-mean degradation ladder serves. NaN when the training input
    /// had no observed cells in this column.
    pub mean: f64,
}

/// A trained model plus everything needed to serve it.
#[derive(Clone)]
pub struct ModelBundle {
    /// Per-column metadata, one entry per data column.
    pub columns: Vec<ColumnMeta>,
    /// The min–max scaler fitted on the training input.
    pub scaler: MinMaxScaler,
    /// Acceleration settings the model was trained under (provenance).
    pub accel: AccelConfig,
    /// The trained generator network (normalized `[0,1]` domain).
    pub generator: Mlp,
    /// The generator's architecture descriptor.
    pub spec: MlpSpec,
}

fn kind_name(k: &ColumnKind) -> String {
    match k {
        ColumnKind::Continuous => "cont".into(),
        ColumnKind::Categorical { levels } => format!("cat:{}", levels),
    }
}

fn kind_from(s: &str, line: usize) -> Result<ColumnKind, BundleError> {
    if s == "cont" {
        return Ok(ColumnKind::Continuous);
    }
    if let Some(levels) = s.strip_prefix("cat:").and_then(|v| v.parse().ok()) {
        return Ok(ColumnKind::Categorical { levels });
    }
    Err(BundleError::Format {
        line,
        message: format!("unknown column kind {:?}", s),
    })
}

fn parse_hex_f64(s: &str, line: usize, what: &str) -> Result<f64, BundleError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| BundleError::Format {
            line,
            message: format!("bad {} hex {:?}", what, s),
        })
}

impl ModelBundle {
    /// Assembles a bundle, checking internal consistency: the generator
    /// input width must be the `2·d` GAIN encoding of `columns.len()`, and
    /// the scaler must cover the same columns.
    pub fn new(
        generator: Mlp,
        spec: MlpSpec,
        scaler: MinMaxScaler,
        columns: Vec<ColumnMeta>,
        accel: AccelConfig,
    ) -> Result<Self, BundleError> {
        let d = columns.len();
        if spec.in_dim != 2 * d {
            return Err(BundleError::SchemaMismatch {
                expected: d,
                got: spec.in_dim / 2,
            });
        }
        if scaler.n_cols() != d {
            return Err(BundleError::SchemaMismatch {
                expected: d,
                got: scaler.n_cols(),
            });
        }
        Ok(Self {
            columns,
            scaler,
            accel,
            generator,
            spec,
        })
    }

    /// Number of data columns the bundle imputes.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Rejects rows of the wrong width with a typed error (HTTP 400 / CLI
    /// exit 1 at the call sites — never a panic).
    pub fn validate_width(&self, got: usize) -> Result<(), BundleError> {
        if got != self.n_features() {
            return Err(BundleError::SchemaMismatch {
                expected: self.n_features(),
                got,
            });
        }
        Ok(())
    }

    /// Renders the bundle to its v1 text format (trailing checksum line).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut body = String::new();
        let _ = writeln!(body, "scis-bundle v1");
        let _ = writeln!(body, "columns {}", self.columns.len());
        for (j, col) in self.columns.iter().enumerate() {
            // names are free text at end of line; newlines cannot survive a
            // line format, so they are replaced on write
            let name = col.name.replace(['\n', '\r'], " ");
            let _ = writeln!(
                body,
                "col {} {:016x} {:016x} {:016x} {}",
                kind_name(&col.kind),
                self.scaler.mins()[j].to_bits(),
                self.scaler.spans()[j].to_bits(),
                col.mean.to_bits(),
                name
            );
        }
        let _ = writeln!(
            body,
            "accel {} {} {} {}",
            self.accel.warm_start as u8,
            self.accel.decomposed_cost as u8,
            self.accel.eps_scale_cold as u8,
            self.accel.f32_compute as u8
        );
        let generator = mlp_to_string(&self.generator, &self.spec);
        let _ = writeln!(body, "generator {}", generator.lines().count());
        body.push_str(&generator);
        let _ = writeln!(body, "checksum {:016x}", fnv1a64(body.as_bytes()));
        body
    }

    /// Saves the bundle atomically (temp file → fsync → rename).
    pub fn save(&self, path: &Path) -> Result<(), BundleError> {
        write_atomic(path, self.to_text().as_bytes())?;
        Ok(())
    }

    /// Loads a bundle from `path`; see [`ModelBundle::from_text`].
    pub fn load(path: &Path) -> Result<Self, BundleError> {
        let content = std::fs::read_to_string(path)?;
        Self::from_text(&content)
    }

    /// Parses a bundle, verifying the whole-file checksum, the embedded
    /// generator's own checksum, and cross-section column-count
    /// consistency. Truncated, corrupted, or internally inconsistent
    /// bundles are typed errors.
    pub fn from_text(content: &str) -> Result<Self, BundleError> {
        let lines: Vec<&str> = content.lines().collect();
        let mut idx = 0usize;
        let mut next = |expect: &str| -> Result<(usize, &str), BundleError> {
            match lines.get(idx) {
                Some(l) => {
                    idx += 1;
                    Ok((idx, l))
                }
                None => Err(BundleError::Format {
                    line: lines.len(),
                    message: format!("unexpected end of file (expected {})", expect),
                }),
            }
        };

        let (l1, header) = next("header")?;
        match header.trim() {
            "scis-bundle v1" => {}
            other if other.starts_with("scis-bundle ") => {
                return Err(BundleError::Format {
                    line: l1,
                    message: format!(
                        "unsupported bundle version {:?} (this build reads v1)",
                        other.trim_start_matches("scis-bundle ")
                    ),
                });
            }
            _ => {
                return Err(BundleError::Format {
                    line: l1,
                    message: "bad header".into(),
                });
            }
        }

        let (l2, cols_line) = next("columns <d>")?;
        let d: usize = cols_line
            .strip_prefix("columns ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or(BundleError::Format {
                line: l2,
                message: "expected `columns <d>`".into(),
            })?;
        if d == 0 {
            return Err(BundleError::Format {
                line: l2,
                message: "bundle has zero columns".into(),
            });
        }

        // `d` is unchecked until the checksum at the end: the vectors grow
        // with the lines actually read, and a count past the end of the file
        // ends in a typed error
        let (mut columns, mut mins, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..d {
            let (ln, line) = next("col")?;
            let rest = line.strip_prefix("col ").ok_or(BundleError::Format {
                line: ln,
                message: format!("expected `col …`, got {:?}", line),
            })?;
            let mut fields = rest.splitn(5, ' ');
            let kind = kind_from(
                fields.next().ok_or(BundleError::Format {
                    line: ln,
                    message: "missing column kind".into(),
                })?,
                ln,
            )?;
            let mut hex = |what: &str| -> Result<f64, BundleError> {
                let field = fields.next().ok_or(BundleError::Format {
                    line: ln,
                    message: format!("missing {}", what),
                })?;
                parse_hex_f64(field, ln, what)
            };
            let min = hex("min")?;
            let span = hex("span")?;
            let mean = hex("mean")?;
            let name = fields.next().unwrap_or("").to_string();
            columns.push(ColumnMeta { name, kind, mean });
            mins.push(min);
            spans.push(span);
        }

        let (la, accel_line) = next("accel")?;
        let accel_fields: Vec<&str> = accel_line
            .strip_prefix("accel ")
            .map(|r| r.split_whitespace().collect())
            .unwrap_or_default();
        let flag = |i: usize| -> Result<bool, BundleError> {
            match accel_fields.get(i) {
                Some(&"0") => Ok(false),
                Some(&"1") => Ok(true),
                _ => Err(BundleError::Format {
                    line: la,
                    message: "expected `accel <0|1> <0|1> <0|1> [<0|1>]`".into(),
                }),
            }
        };
        // 3 fields = legacy bundles from before the f32 compute mode
        if accel_fields.len() != 3 && accel_fields.len() != 4 {
            return Err(BundleError::Format {
                line: la,
                message: "expected `accel <0|1> <0|1> <0|1> [<0|1>]`".into(),
            });
        }
        let accel = AccelConfig::default()
            .warm_start(flag(0)?)
            .decomposed_cost(flag(1)?)
            .eps_scale_cold(flag(2)?)
            .f32_compute(if accel_fields.len() == 4 {
                flag(3)?
            } else {
                false
            });

        let (lg, gen_line) = next("generator <n>")?;
        let n_gen_lines: usize = gen_line
            .strip_prefix("generator ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or(BundleError::Format {
                line: lg,
                message: "expected `generator <n_lines>`".into(),
            })?;
        let mut generator_text = String::new();
        for _ in 0..n_gen_lines {
            let (_, line) = next("generator body")?;
            generator_text.push_str(line);
            generator_text.push('\n');
        }

        let (lc, ck_line) = next("checksum")?;
        let expected = ck_line
            .strip_prefix("checksum ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or(BundleError::Format {
                line: lc,
                message: "expected `checksum <hex>`".into(),
            })?;
        let hashed: String = lines[..lc - 1].iter().map(|l| format!("{}\n", l)).collect();
        let actual = fnv1a64(hashed.as_bytes());
        if actual != expected {
            return Err(BundleError::Checksum { expected, actual });
        }

        let (generator, spec) = mlp_from_str(&generator_text)?;
        let scaler = MinMaxScaler::from_params(mins, spans)
            .map_err(|message| BundleError::Format { line: 0, message })?;
        Self::new(generator, spec, scaler, columns, accel)
    }

    /// Column means in original units — the degradation ladder's fallback
    /// row (non-finite means degrade further to 0.0 so a malformed bundle
    /// can still answer).
    pub fn fallback_row(&self) -> Vec<f64> {
        self.columns
            .iter()
            .map(|c| if c.mean.is_finite() { c.mean } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_imputers::{AdversarialImputer, GainImputer, TrainConfig};
    use scis_tensor::{Matrix, Rng64};

    fn sample_bundle(d: usize) -> ModelBundle {
        let mut rng = Rng64::seed_from_u64(9);
        let mut gain = GainImputer::new(TrainConfig::fast_test());
        gain.init_networks(d, &mut rng);
        let spec = gain.generator_spec();
        let generator = gain.generator_mut().clone();
        let values = Matrix::from_fn(20, d, |i, j| (i + j) as f64);
        let scaler = MinMaxScaler::fit(&values);
        let columns = (0..d)
            .map(|j| ColumnMeta {
                name: format!("col {}", j),
                kind: ColumnKind::Continuous,
                mean: j as f64 + 0.5,
            })
            .collect();
        ModelBundle::new(generator, spec, scaler, columns, AccelConfig::all()).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let b = sample_bundle(4);
        let text = b.to_text();
        let loaded = ModelBundle::from_text(&text).unwrap();
        assert_eq!(loaded.columns, b.columns);
        assert_eq!(loaded.scaler.mins(), b.scaler.mins());
        assert_eq!(loaded.scaler.spans(), b.scaler.spans());
        assert_eq!(loaded.spec, b.spec);
        assert_eq!(loaded.accel.warm_start, b.accel.warm_start);
        let mut a = loaded.generator.clone();
        let mut bg = b.generator.clone();
        assert_eq!(a.param_vector(), bg.param_vector());
    }

    #[test]
    fn truncated_bundle_is_a_typed_error() {
        let b = sample_bundle(3);
        let text = b.to_text();
        // cut mid generator section: structure breaks or checksum fails,
        // either way a typed error, never a panic
        for frac in [4, 2, 3] {
            let cut = &text[..text.len() / frac];
            match ModelBundle::from_text(cut) {
                Err(
                    BundleError::Format { .. }
                    | BundleError::Checksum { .. }
                    | BundleError::Model(_),
                ) => {}
                Err(other) => panic!("unexpected error kind: {}", other),
                Ok(_) => panic!("truncated bundle loaded"),
            }
        }
    }

    #[test]
    fn bitrot_is_caught_by_the_whole_file_checksum() {
        let b = sample_bundle(3);
        let text = b.to_text();
        // flip a hex digit in a col line (outside the generator's own
        // checksummed section)
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let col_line = lines.iter().position(|l| l.starts_with("col ")).unwrap();
        lines[col_line] = lines[col_line].replacen('0', "1", 1);
        let tampered = lines.join("\n") + "\n";
        assert!(matches!(
            ModelBundle::from_text(&tampered),
            Err(BundleError::Checksum { .. })
        ));
    }

    #[test]
    fn wrong_width_is_a_typed_schema_error() {
        let b = sample_bundle(4);
        assert!(b.validate_width(4).is_ok());
        match b.validate_width(3) {
            Err(BundleError::SchemaMismatch {
                expected: 4,
                got: 3,
            }) => {}
            other => panic!("expected SchemaMismatch, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn column_names_with_spaces_survive() {
        let b = sample_bundle(2);
        let loaded = ModelBundle::from_text(&b.to_text()).unwrap();
        assert_eq!(loaded.columns[1].name, "col 1");
    }

    #[test]
    fn version_skew_is_rejected_by_name() {
        match ModelBundle::from_text("scis-bundle v9\ncolumns 1\n") {
            Err(BundleError::Format { message, .. }) => {
                assert!(message.contains("v9"), "{}", message)
            }
            other => panic!("expected Format error, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn nan_mean_survives_roundtrip_and_fallback_degrades_to_zero() {
        let mut b = sample_bundle(2);
        b.columns[0].mean = f64::NAN;
        let loaded = ModelBundle::from_text(&b.to_text()).unwrap();
        assert!(loaded.columns[0].mean.is_nan());
        assert_eq!(loaded.fallback_row(), vec![0.0, 1.5]);
    }
}
