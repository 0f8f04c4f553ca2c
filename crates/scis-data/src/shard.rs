//! Out-of-core sharded datasets: fixed-size row shards behind [`RowSource`].
//!
//! The paper's headline datasets (Weather 4.9M×9, Surveil 22.5M×7) do not
//! fit the "one `Matrix` in RAM" model the rest of the workspace was built
//! on. This module introduces the abstraction that lets the SCIS pipeline
//! stream over them:
//!
//! * [`RowSource`] — anything that can hand out fixed-size row shards as
//!   in-memory [`Dataset`] blocks and gather arbitrary row-id subsets. The
//!   in-memory [`Dataset`] implements it (one shard), so every streamed
//!   consumer also accepts plain datasets.
//! * [`ShardedDataset`] — the out-of-core implementation with two backends:
//!   **recipe-backed** shards generated on demand from a deterministic
//!   latent-factor model (seed-salted per shard, so shard `k` is
//!   reproducible in isolation), and **spill-backed** shards read from
//!   checksummed binary blocks on disk.
//! * [`SpillWriter`] / [`ShardSink`] / [`MemorySink`] — incremental row
//!   emitters, used both to spill inputs to disk and to write the final
//!   imputation shard by shard.
//! * streaming folds ([`observed_column_means`], plus
//!   `Dataset::validate`-equivalent and `MinMaxScaler::fit`-equivalent
//!   folds in [`crate::validate`] / [`crate::normalize`]) that replicate
//!   the in-memory passes *operation for operation*, in row order, so
//!   their results are bit-identical to the whole-matrix versions.
//!
//! ## Determinism contract
//!
//! Shards are row-contiguous: shard `k` holds rows
//! `[k·shard_rows, min((k+1)·shard_rows, n))`. Every fold visits shards in
//! ascending order, which is exactly the row order of the materialized
//! matrix, so sequential reductions (sums, min/max, first/constant
//! tracking) consume values in the same order as their in-memory
//! counterparts and produce bit-identical results. Recipe-backed shards
//! derive their per-shard RNG from `seed`, the recipe salt, and the shard
//! index only — generating shard `k` alone yields the same rows as
//! materializing everything.
//!
//! ## Spill format
//!
//! One file per shard (`shard-NNNNNN.bin`): an 8-byte magic (`SCISSHD1`),
//! row and column counts as `u64` LE, the cell values as `f64` bit
//! patterns LE (NaN = missing), and a trailing FNV-1a 64 checksum over
//! everything before it. Truncated files surface as [`ShardError::Torn`],
//! checksum mismatches as [`ShardError::Corrupt`]. A human-readable
//! `manifest.txt` records the dataset shape, shard size, and column kinds.

use crate::dataset::{ColumnKind, Dataset};
use crate::synth::SynthConfig;
use crate::validate::DataError;
use scis_tensor::{fnv1a64, Matrix, Rng64};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every spill-shard file.
pub const SPILL_MAGIC: &[u8; 8] = b"SCISSHD1";

/// First line of a spill directory's `manifest.txt`.
pub const MANIFEST_MAGIC: &str = "scis-spill v1";

/// Failures of the sharded-dataset layer.
#[derive(Debug)]
pub enum ShardError {
    /// An underlying file operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A spill shard file is shorter than its header promises (torn write
    /// or truncation).
    Torn {
        /// Shard index.
        shard: usize,
        /// The shard file.
        path: PathBuf,
    },
    /// A spill shard's trailing checksum does not match its contents.
    Corrupt {
        /// Shard index.
        shard: usize,
        /// The shard file.
        path: PathBuf,
    },
    /// The spill directory's manifest is missing or malformed.
    BadManifest {
        /// The manifest file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// A shard index past the end of the dataset was requested.
    ShardOutOfBounds {
        /// The requested shard.
        shard: usize,
        /// Number of shards available.
        n_shards: usize,
    },
    /// A row id past the end of the dataset was requested.
    RowOutOfBounds {
        /// The requested row id.
        row: usize,
        /// Number of rows available.
        n_rows: usize,
    },
    /// A streamed fold found a dataset defect (the shard-level equivalent
    /// of [`DataError`] from `Dataset::validate`).
    Data(DataError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { path, source } => write!(f, "io error at {:?}: {}", path, source),
            ShardError::Torn { shard, path } => {
                write!(f, "shard {} at {:?} is torn (truncated)", shard, path)
            }
            ShardError::Corrupt { shard, path } => {
                write!(f, "shard {} at {:?} failed its checksum", shard, path)
            }
            ShardError::BadManifest { path, reason } => {
                write!(f, "bad spill manifest {:?}: {}", path, reason)
            }
            ShardError::ShardOutOfBounds { shard, n_shards } => {
                write!(f, "shard {} out of bounds ({} shards)", shard, n_shards)
            }
            ShardError::RowOutOfBounds { row, n_rows } => {
                write!(f, "row {} out of bounds ({} rows)", row, n_rows)
            }
            ShardError::Data(e) => write!(f, "invalid data: {}", e),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io { source, .. } => Some(source),
            ShardError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for ShardError {
    fn from(e: DataError) -> Self {
        ShardError::Data(e)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> ShardError {
    ShardError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A dataset served as fixed-size row shards.
///
/// Shard `k` covers rows `[k·shard_rows, min((k+1)·shard_rows, n_rows))`;
/// all shards except possibly the last are full. Implementations must be
/// deterministic: loading the same shard twice yields bit-identical values.
pub trait RowSource {
    /// Total number of rows `N`.
    fn n_rows(&self) -> usize;

    /// Number of columns `d`.
    fn n_cols(&self) -> usize;

    /// Per-column kind metadata (len = `n_cols`).
    fn kinds(&self) -> &[ColumnKind];

    /// Rows per shard (the in-memory budget of every streamed pass).
    fn shard_rows(&self) -> usize;

    /// Loads shard `k` as an in-memory dataset of at most
    /// [`RowSource::shard_rows`] rows.
    fn load_shard(&self, k: usize) -> Result<Dataset, ShardError>;

    /// Number of shards.
    fn n_shards(&self) -> usize {
        let sr = self.shard_rows().max(1);
        self.n_rows().div_ceil(sr)
    }

    /// Row span `[start, end)` of shard `k`.
    fn shard_span(&self, k: usize) -> (usize, usize) {
        let sr = self.shard_rows().max(1);
        let start = k * sr;
        (start, (start + sr).min(self.n_rows()))
    }

    /// Maps a flat row id to its `(shard, offset)` address.
    fn locate(&self, row: usize) -> (usize, usize) {
        let sr = self.shard_rows().max(1);
        (row / sr, row % sr)
    }

    /// Gathers arbitrary row ids (repeats allowed) into one in-memory
    /// dataset, loading each referenced shard once. Output row `r` is
    /// source row `ids[r]` — the same contract as `Dataset::select_rows`,
    /// and bit-identical to it for any source whose missing cells are NaN.
    fn gather_rows(&self, ids: &[usize]) -> Result<Dataset, ShardError> {
        let n_rows = self.n_rows();
        let d = self.n_cols();
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, &id) in ids.iter().enumerate() {
            if id >= n_rows {
                return Err(ShardError::RowOutOfBounds { row: id, n_rows });
            }
            by_shard.entry(self.locate(id).0).or_default().push(pos);
        }
        let mut values = Matrix::full(ids.len(), d, f64::NAN);
        for (k, positions) in by_shard {
            let shard = self.load_shard(k)?;
            let (start, _) = self.shard_span(k);
            for pos in positions {
                values
                    .row_mut(pos)
                    .copy_from_slice(shard.values.row(ids[pos] - start));
            }
        }
        let mut ds = Dataset::from_values(values);
        ds.kinds = self.kinds().to_vec();
        Ok(ds)
    }

    /// Concatenates every shard into one in-memory dataset. Only sensible
    /// when `N × d` fits in RAM (tests, small runs).
    fn materialize(&self) -> Result<Dataset, ShardError> {
        let (n, d) = (self.n_rows(), self.n_cols());
        let mut values = Matrix::full(n, d, f64::NAN);
        for k in 0..self.n_shards() {
            let shard = self.load_shard(k)?;
            let (start, end) = self.shard_span(k);
            for (off, i) in (start..end).enumerate() {
                values.row_mut(i).copy_from_slice(shard.values.row(off));
            }
        }
        let mut ds = Dataset::from_values(values);
        ds.kinds = self.kinds().to_vec();
        Ok(ds)
    }
}

/// The in-memory dataset is a single-shard source, so every streamed
/// consumer also accepts plain datasets.
impl RowSource for Dataset {
    fn n_rows(&self) -> usize {
        self.n_samples()
    }

    fn n_cols(&self) -> usize {
        self.n_features()
    }

    fn kinds(&self) -> &[ColumnKind] {
        &self.kinds
    }

    fn shard_rows(&self) -> usize {
        self.n_samples().max(1)
    }

    fn load_shard(&self, k: usize) -> Result<Dataset, ShardError> {
        if k > 0 {
            return Err(ShardError::ShardOutOfBounds {
                shard: k,
                n_shards: 1,
            });
        }
        Ok(self.clone())
    }

    fn gather_rows(&self, ids: &[usize]) -> Result<Dataset, ShardError> {
        if let Some(&bad) = ids.iter().find(|&&id| id >= self.n_samples()) {
            return Err(ShardError::RowOutOfBounds {
                row: bad,
                n_rows: self.n_samples(),
            });
        }
        Ok(self.select_rows(ids))
    }

    fn materialize(&self) -> Result<Dataset, ShardError> {
        Ok(self.clone())
    }
}

/// A borrowed in-memory dataset re-chunked to an artificial shard size —
/// the bridge for spilling an existing `Dataset` to disk and for testing
/// streamed passes against their in-memory equivalents.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedDataset<'a> {
    ds: &'a Dataset,
    shard_rows: usize,
}

impl<'a> ChunkedDataset<'a> {
    /// Views `ds` as shards of `shard_rows` rows.
    ///
    /// # Panics
    /// Panics if `shard_rows` is zero.
    pub fn new(ds: &'a Dataset, shard_rows: usize) -> Self {
        assert!(shard_rows > 0, "ChunkedDataset: shard_rows must be > 0");
        Self { ds, shard_rows }
    }
}

impl RowSource for ChunkedDataset<'_> {
    fn n_rows(&self) -> usize {
        self.ds.n_samples()
    }

    fn n_cols(&self) -> usize {
        self.ds.n_features()
    }

    fn kinds(&self) -> &[ColumnKind] {
        &self.ds.kinds
    }

    fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    fn load_shard(&self, k: usize) -> Result<Dataset, ShardError> {
        if k >= self.n_shards() {
            return Err(ShardError::ShardOutOfBounds {
                shard: k,
                n_shards: self.n_shards(),
            });
        }
        let (start, end) = self.shard_span(k);
        let idx: Vec<usize> = (start..end).collect();
        Ok(self.ds.select_rows(&idx))
    }
}

// ---------------------------------------------------------------------------
// recipe-backed shards
// ---------------------------------------------------------------------------

/// Stream salt separating the per-shard row RNG from the model RNG.
const SHARD_STREAM_SALT: u64 = 0x5348_4152_445f_524e; // "SHARD_RN"

/// Rows drawn from the model RNG to place the categorical quantile cuts.
/// The whole-matrix generator bins against *global* empirical quantiles,
/// which no shard can compute locally; the sharded generator instead fixes
/// the cuts from this calibration sample so every shard bins identically.
const CUT_CALIBRATION_ROWS: usize = 2048;

/// Deterministic out-of-core synthetic generator: the latent-factor model
/// of [`crate::synth`] restated so any row shard can be generated in
/// isolation. Model parameters (factor weights, categorical cuts) depend
/// only on the seed; per-shard latents, noise, and the MCAR mask depend on
/// the seed and the shard index.
#[derive(Debug, Clone)]
pub struct RecipeShards {
    cfg: SynthConfig,
    missing_rate: f64,
    seed: u64,
    w1: Matrix,
    w2: Matrix,
    cuts: Vec<Vec<f64>>,
    kinds: Vec<ColumnKind>,
    shard_rows: usize,
}

impl RecipeShards {
    /// Builds the shard generator: derives the factor weights and the
    /// categorical cut points from `seed`, leaving row generation to
    /// [`RowSource::load_shard`].
    ///
    /// # Panics
    /// Panics if `shard_rows` is zero, `cfg.latent_dim` is zero,
    /// `cfg.n_categorical > cfg.n_features`, or `missing_rate` is outside
    /// `[0, 1)`.
    pub fn new(cfg: SynthConfig, missing_rate: f64, seed: u64, shard_rows: usize) -> Self {
        assert!(shard_rows > 0, "RecipeShards: shard_rows must be > 0");
        assert!(cfg.latent_dim > 0, "RecipeShards: latent_dim must be > 0");
        assert!(
            cfg.n_categorical <= cfg.n_features,
            "RecipeShards: more categorical than features"
        );
        assert!(
            (0.0..1.0).contains(&missing_rate),
            "RecipeShards: missing_rate must be in [0,1)"
        );
        let (d, k) = (cfg.n_features, cfg.latent_dim);
        let hidden = (2 * k).max(4);
        let mut model_rng = Rng64::seed_from_u64(seed);
        let w1 = Matrix::from_fn(k, hidden, |_, _| {
            model_rng.normal_with(0.0, 1.0 / (k as f64).sqrt())
        });
        let w2 = Matrix::from_fn(hidden, d, |_, _| {
            model_rng.normal_with(0.0, 1.0 / (hidden as f64).sqrt())
        });
        let mut shards = Self {
            cuts: Vec::new(),
            kinds: vec![ColumnKind::Continuous; d],
            missing_rate,
            seed,
            w1,
            w2,
            shard_rows,
            cfg,
        };
        // shard-independent categorical cuts from a calibration sample
        let first_cat = d - shards.cfg.n_categorical;
        if shards.cfg.n_categorical > 0 {
            let calib = shards.raw_rows(CUT_CALIBRATION_ROWS, &mut model_rng);
            let levels = shards.cfg.categorical_levels.max(2);
            for j in first_cat..d {
                let col = calib.col(j);
                let cuts: Vec<f64> = (1..levels)
                    .map(|l| {
                        scis_tensor::stats::quantile(&col, l as f64 / levels as f64)
                            .expect("non-empty calibration column")
                    })
                    .collect();
                shards.cuts.push(cuts);
                shards.kinds[j] = ColumnKind::Categorical { levels };
            }
        }
        shards
    }

    /// Generates `n` warped (pre-binning) rows from `rng` — the shared row
    /// model of the calibration sample and every shard.
    fn raw_rows(&self, n: usize, rng: &mut Rng64) -> Matrix {
        let (d, k) = (self.cfg.n_features, self.cfg.latent_dim);
        let hidden = self.w1.cols();
        let mut x = Matrix::zeros(n, d);
        let mut z = vec![0.0; k];
        let mut h = vec![0.0; hidden];
        for i in 0..n {
            for zv in z.iter_mut() {
                *zv = rng.normal();
            }
            for (c, hv) in h.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (r, &zv) in z.iter().enumerate() {
                    acc += zv * self.w1[(r, c)];
                }
                *hv = acc.tanh();
            }
            for j in 0..d {
                let mut acc = 0.0;
                for (r, &hv) in h.iter().enumerate() {
                    acc += hv * self.w2[(r, j)];
                }
                if self.cfg.noise_std > 0.0 {
                    acc += rng.normal_with(0.0, self.cfg.noise_std);
                }
                // the per-column marginal warps of `synth::generate`
                x[(i, j)] = match j % 3 {
                    0 => acc,
                    1 => acc.signum() * acc.abs().sqrt(),
                    _ => (acc * 1.5).tanh(),
                };
            }
        }
        x
    }

    fn shard_seed(&self, k: usize) -> u64 {
        self.seed ^ SHARD_STREAM_SALT ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k as u64 + 1)
    }
}

// ---------------------------------------------------------------------------
// spill-backed shards
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SpillShards {
    dir: PathBuf,
    kinds: Vec<ColumnKind>,
    n_cols: usize,
    shard_rows: usize,
}

fn shard_file(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{:06}.bin", k))
}

fn encode_kinds(kinds: &[ColumnKind]) -> String {
    kinds
        .iter()
        .map(|k| match k {
            ColumnKind::Continuous => "c".to_string(),
            ColumnKind::Categorical { levels } => levels.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_kinds(text: &str, path: &Path) -> Result<Vec<ColumnKind>, ShardError> {
    text.split(',')
        .map(|t| match t.trim() {
            "c" => Ok(ColumnKind::Continuous),
            other => other
                .parse::<usize>()
                .map(|levels| ColumnKind::Categorical { levels })
                .map_err(|_| ShardError::BadManifest {
                    path: path.to_path_buf(),
                    reason: format!("bad kind {:?}", other),
                }),
        })
        .collect()
}

fn write_spill_shard(dir: &Path, k: usize, values: &Matrix) -> Result<(), ShardError> {
    let path = shard_file(dir, k);
    let mut bytes = Vec::with_capacity(SPILL_MAGIC.len() + 16 + values.len() * 8 + 8);
    bytes.extend_from_slice(SPILL_MAGIC);
    bytes.extend_from_slice(&(values.rows() as u64).to_le_bytes());
    bytes.extend_from_slice(&(values.cols() as u64).to_le_bytes());
    for &v in values.as_slice() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    let mut f = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
    f.write_all(&bytes).map_err(|e| io_err(&path, e))?;
    Ok(())
}

fn read_spill_shard(dir: &Path, k: usize) -> Result<Matrix, ShardError> {
    let path = shard_file(dir, k);
    let mut bytes = Vec::new();
    std::fs::File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(&path, e))?;
    let header = SPILL_MAGIC.len() + 16;
    let torn = || ShardError::Torn {
        shard: k,
        path: path.clone(),
    };
    if bytes.len() < header + 8 || &bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
        return Err(torn());
    }
    let rows = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let cols = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let body = rows
        .checked_mul(cols)
        .and_then(|cells| cells.checked_mul(8))
        .ok_or_else(torn)?;
    if bytes.len() != header + body + 8 {
        return Err(torn());
    }
    let stored = u64::from_le_bytes(bytes[header + body..].try_into().expect("8 bytes"));
    if fnv1a64(&bytes[..header + body]) != stored {
        return Err(ShardError::Corrupt { shard: k, path });
    }
    let mut data = Vec::with_capacity(rows * cols);
    for chunk in bytes[header..header + body].chunks_exact(8) {
        data.push(f64::from_bits(u64::from_le_bytes(
            chunk.try_into().expect("8 bytes"),
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Streams rows into a spill directory, cutting a checksummed shard file
/// every `shard_rows` rows. [`SpillWriter::finish`] flushes the tail shard,
/// writes the manifest, and returns the readable [`ShardedDataset`].
#[derive(Debug)]
pub struct SpillWriter {
    dir: PathBuf,
    kinds: Vec<ColumnKind>,
    n_cols: usize,
    shard_rows: usize,
    buf: Vec<f64>,
    buf_rows: usize,
    next_shard: usize,
    rows_written: usize,
}

impl SpillWriter {
    /// Creates the spill directory (and parents) and an empty writer.
    ///
    /// # Panics
    /// Panics if `shard_rows` or `n_cols` is zero.
    pub fn create(
        dir: &Path,
        n_cols: usize,
        kinds: Vec<ColumnKind>,
        shard_rows: usize,
    ) -> Result<Self, ShardError> {
        assert!(shard_rows > 0, "SpillWriter: shard_rows must be > 0");
        assert!(n_cols > 0, "SpillWriter: n_cols must be > 0");
        assert_eq!(kinds.len(), n_cols, "SpillWriter: kinds len mismatch");
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            kinds,
            n_cols,
            shard_rows,
            buf: Vec::with_capacity(shard_rows * n_cols),
            buf_rows: 0,
            next_shard: 0,
            rows_written: 0,
        })
    }

    /// Appends one row (NaN = missing).
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the writer's column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), ShardError> {
        assert_eq!(row.len(), self.n_cols, "SpillWriter: row width mismatch");
        self.buf.extend_from_slice(row);
        self.buf_rows += 1;
        self.rows_written += 1;
        if self.buf_rows == self.shard_rows {
            self.flush_shard()?;
        }
        Ok(())
    }

    /// Rows appended so far.
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }

    fn flush_shard(&mut self) -> Result<(), ShardError> {
        if self.buf_rows == 0 {
            return Ok(());
        }
        let values = Matrix::from_vec(self.buf_rows, self.n_cols, std::mem::take(&mut self.buf));
        write_spill_shard(&self.dir, self.next_shard, &values)?;
        self.next_shard += 1;
        self.buf_rows = 0;
        self.buf = Vec::with_capacity(self.shard_rows * self.n_cols);
        Ok(())
    }

    /// Flushes the tail shard, writes the manifest, and opens the result
    /// for reading.
    pub fn finish(mut self) -> Result<ShardedDataset, ShardError> {
        self.flush_shard()?;
        let manifest = self.dir.join("manifest.txt");
        let text = format!(
            "{}\nrows={}\ncols={}\nshard_rows={}\nkinds={}\n",
            MANIFEST_MAGIC,
            self.rows_written,
            self.n_cols,
            self.shard_rows,
            encode_kinds(&self.kinds),
        );
        std::fs::write(&manifest, text).map_err(|e| io_err(&manifest, e))?;
        ShardedDataset::open_spill(&self.dir)
    }
}

impl ShardSink for SpillWriter {
    fn push_rows(&mut self, rows: &Matrix) -> Result<(), ShardError> {
        for i in 0..rows.rows() {
            self.push_row(rows.row(i))?;
        }
        Ok(())
    }
}

/// Spills every shard of `src` to `dir` and reopens it as a spill-backed
/// [`ShardedDataset`] with the same shape, shard size, and kinds.
pub fn spill_source(src: &dyn RowSource, dir: &Path) -> Result<ShardedDataset, ShardError> {
    let mut w = SpillWriter::create(dir, src.n_cols(), src.kinds().to_vec(), src.shard_rows())?;
    for k in 0..src.n_shards() {
        let shard = src.load_shard(k)?;
        w.push_rows(&shard.values)?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// ShardedDataset
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Backend {
    Recipe(RecipeShards),
    Spill(SpillShards),
}

/// An out-of-core dataset of fixed-size row shards: generated on demand
/// from a deterministic recipe, or read back from checksummed spill files.
/// See the module docs for the determinism contract and the spill format.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    backend: Backend,
    n_rows: usize,
}

impl ShardedDataset {
    /// Recipe-backed sharded dataset of `n_rows` rows: shard `k` is
    /// generated on demand (and reproducibly in isolation) from the
    /// latent-factor model seeded by `seed`, with MCAR missingness at
    /// `missing_rate`.
    pub fn from_recipe(cfg: SynthConfig, missing_rate: f64, seed: u64, shard_rows: usize) -> Self {
        let n_rows = cfg.n_samples;
        Self {
            backend: Backend::Recipe(RecipeShards::new(cfg, missing_rate, seed, shard_rows)),
            n_rows,
        }
    }

    /// Opens a spill directory written by [`SpillWriter`].
    pub fn open_spill(dir: &Path) -> Result<Self, ShardError> {
        let manifest = dir.join("manifest.txt");
        let text = std::fs::read_to_string(&manifest).map_err(|e| io_err(&manifest, e))?;
        let bad = |reason: &str| ShardError::BadManifest {
            path: manifest.clone(),
            reason: reason.to_string(),
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(bad("missing magic line"));
        }
        let mut rows = None;
        let mut cols = None;
        let mut shard_rows = None;
        let mut kinds = None;
        for line in lines {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "rows" => rows = value.parse::<usize>().ok(),
                "cols" => cols = value.parse::<usize>().ok(),
                "shard_rows" => shard_rows = value.parse::<usize>().ok(),
                "kinds" => kinds = Some(decode_kinds(value, &manifest)?),
                _ => {}
            }
        }
        let n_rows = rows.ok_or_else(|| bad("missing rows"))?;
        let n_cols = cols.ok_or_else(|| bad("missing cols"))?;
        let shard_rows = shard_rows.ok_or_else(|| bad("missing shard_rows"))?;
        if n_cols == 0 || shard_rows == 0 {
            return Err(bad("zero cols or shard_rows"));
        }
        let kinds = kinds.ok_or_else(|| bad("missing kinds"))?;
        if kinds.len() != n_cols {
            return Err(bad("kinds length does not match cols"));
        }
        Ok(Self {
            backend: Backend::Spill(SpillShards {
                dir: dir.to_path_buf(),
                kinds,
                n_cols,
                shard_rows,
            }),
            n_rows,
        })
    }

    /// Replaces the per-column kind metadata (e.g. after a streamed
    /// `infer_kinds` pass over a spilled CSV).
    ///
    /// # Panics
    /// Panics if `kinds.len()` differs from the column count.
    pub fn set_kinds(&mut self, kinds: Vec<ColumnKind>) {
        assert_eq!(kinds.len(), self.n_cols(), "set_kinds: length mismatch");
        match &mut self.backend {
            Backend::Recipe(r) => r.kinds = kinds,
            Backend::Spill(s) => s.kinds = kinds,
        }
    }

    /// Fraction of missing cells, computed by one streaming pass.
    pub fn missing_rate(&self) -> Result<f64, ShardError> {
        let mut missing = 0usize;
        for k in 0..self.n_shards() {
            let shard = self.load_shard(k)?;
            missing += shard
                .values
                .as_slice()
                .iter()
                .filter(|v| v.is_nan())
                .count();
        }
        let cells = self.n_rows() * self.n_cols();
        Ok(if cells == 0 {
            0.0
        } else {
            missing as f64 / cells as f64
        })
    }
}

impl RowSource for ShardedDataset {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        match &self.backend {
            Backend::Recipe(r) => r.cfg.n_features,
            Backend::Spill(s) => s.n_cols,
        }
    }

    fn kinds(&self) -> &[ColumnKind] {
        match &self.backend {
            Backend::Recipe(r) => &r.kinds,
            Backend::Spill(s) => &s.kinds,
        }
    }

    fn shard_rows(&self) -> usize {
        match &self.backend {
            Backend::Recipe(r) => r.shard_rows,
            Backend::Spill(s) => s.shard_rows,
        }
    }

    fn load_shard(&self, k: usize) -> Result<Dataset, ShardError> {
        if k >= self.n_shards() {
            return Err(ShardError::ShardOutOfBounds {
                shard: k,
                n_shards: self.n_shards(),
            });
        }
        let (start, end) = self.shard_span(k);
        match &self.backend {
            Backend::Recipe(r) => {
                let n = end - start;
                let mut rng = Rng64::seed_from_u64(r.shard_seed(k));
                let mut x = r.raw_rows(n, &mut rng);
                let d = r.cfg.n_features;
                let first_cat = d - r.cfg.n_categorical;
                for (c, j) in (first_cat..d).enumerate() {
                    let cuts = &r.cuts[c];
                    for i in 0..n {
                        let v = x[(i, j)];
                        let mut level = 0usize;
                        for &cut in cuts {
                            if v > cut {
                                level += 1;
                            }
                        }
                        x[(i, j)] = level as f64;
                    }
                }
                // MCAR in row-major order from the same per-shard stream
                for i in 0..n {
                    for j in 0..d {
                        if rng.bernoulli(r.missing_rate) {
                            x[(i, j)] = f64::NAN;
                        }
                    }
                }
                let mut ds = Dataset::from_values(x);
                ds.kinds = r.kinds.clone();
                Ok(ds)
            }
            Backend::Spill(s) => {
                let values = read_spill_shard(&s.dir, k)?;
                if values.rows() != end - start || values.cols() != s.n_cols {
                    return Err(ShardError::Torn {
                        shard: k,
                        path: shard_file(&s.dir, k),
                    });
                }
                let mut ds = Dataset::from_values(values);
                ds.kinds = s.kinds.clone();
                Ok(ds)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// sinks
// ---------------------------------------------------------------------------

/// Receives the streamed pipeline's output rows shard by shard, in row
/// order. Implementations decide where they go: RAM ([`MemorySink`]), spill
/// files ([`SpillWriter`]), or an incremental CSV writer.
pub trait ShardSink {
    /// Appends a block of finished rows.
    fn push_rows(&mut self, rows: &Matrix) -> Result<(), ShardError>;
}

/// Collects sink rows into one in-memory matrix (tests, small runs).
#[derive(Debug, Default)]
pub struct MemorySink {
    data: Vec<f64>,
    rows: usize,
    cols: Option<usize>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows received so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The assembled matrix.
    ///
    /// # Panics
    /// Panics if no rows were ever pushed.
    pub fn into_matrix(self) -> Matrix {
        let cols = self.cols.expect("MemorySink: no rows pushed");
        Matrix::from_vec(self.rows, cols, self.data)
    }
}

impl ShardSink for MemorySink {
    fn push_rows(&mut self, rows: &Matrix) -> Result<(), ShardError> {
        match self.cols {
            None => self.cols = Some(rows.cols()),
            Some(c) => assert_eq!(c, rows.cols(), "MemorySink: column mismatch"),
        }
        self.data.extend_from_slice(rows.as_slice());
        self.rows += rows.rows();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// streaming folds
// ---------------------------------------------------------------------------

/// Observed column means with the mean-imputer fallback (`0.5` for columns
/// without observed cells), computed by one streaming pass.
///
/// Bit-identical to mapping `nan_mean` over the materialized columns: the
/// per-column sums accumulate shard by shard in ascending row order, the
/// same addition sequence as the in-memory fold.
pub fn observed_column_means(src: &dyn RowSource) -> Result<Vec<f64>, ShardError> {
    let d = src.n_cols();
    let mut sums = vec![0.0f64; d];
    let mut counts = vec![0usize; d];
    for k in 0..src.n_shards() {
        let shard = src.load_shard(k)?;
        for i in 0..shard.n_samples() {
            for (j, &v) in shard.values.row(i).iter().enumerate() {
                if !v.is_nan() {
                    sums[j] += v;
                    counts[j] += 1;
                }
            }
        }
    }
    Ok((0..d)
        .map(|j| {
            if counts[j] == 0 {
                0.5
            } else {
                sums[j] / counts[j] as f64
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_tensor::stats::nan_mean;

    /// NaN-tolerant bitwise matrix equality (plain `==` fails on the NaN
    /// missing cells).
    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scis_shard_test_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn recipe(n: usize, shard_rows: usize) -> ShardedDataset {
        let cfg = SynthConfig {
            n_samples: n,
            n_features: 6,
            latent_dim: 2,
            n_categorical: 2,
            categorical_levels: 3,
            noise_std: 0.05,
        };
        ShardedDataset::from_recipe(cfg, 0.25, 99, shard_rows)
    }

    #[test]
    fn shard_spans_tile_the_dataset() {
        let src = recipe(103, 16);
        assert_eq!(src.n_shards(), 7);
        let mut covered = 0;
        for k in 0..src.n_shards() {
            let (a, b) = src.shard_span(k);
            assert_eq!(a, covered);
            covered = b;
        }
        assert_eq!(covered, 103);
        assert_eq!(src.locate(35), (2, 3));
    }

    #[test]
    fn recipe_shards_are_reproducible_in_isolation() {
        let src = recipe(100, 16);
        let full = src.materialize().unwrap();
        for k in [0, 3, 6] {
            let shard = src.load_shard(k).unwrap();
            let again = src.load_shard(k).unwrap();
            assert_bits_eq(&shard.values, &again.values);
            let (start, end) = src.shard_span(k);
            for (off, i) in (start..end).enumerate() {
                for j in 0..src.n_cols() {
                    let a = shard.values[(off, j)];
                    let b = full.values[(i, j)];
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "shard {} row {} col {}: {} vs {}",
                        k,
                        off,
                        j,
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn recipe_shard_size_does_not_change_kinds_or_shape() {
        let a = recipe(90, 7);
        let b = recipe(90, 64);
        assert_eq!(a.kinds(), b.kinds());
        assert_eq!(a.n_rows(), b.n_rows());
        // categorical columns take integer levels in every shard
        let shard = a.load_shard(2).unwrap();
        for i in 0..shard.n_samples() {
            for j in 4..6 {
                let v = shard.values[(i, j)];
                if !v.is_nan() {
                    assert_eq!(v.fract(), 0.0, "non-integer categorical {}", v);
                    assert!((0.0..3.0).contains(&v));
                }
            }
        }
    }

    #[test]
    fn gather_rows_matches_select_rows() {
        let src = recipe(80, 9);
        let full = src.materialize().unwrap();
        let ids = vec![79, 0, 13, 13, 42, 8, 77];
        let gathered = src.gather_rows(&ids).unwrap();
        let selected = full.select_rows(&ids);
        assert_bits_eq(&gathered.values, &selected.values);
        assert_eq!(gathered.mask, selected.mask);
        assert_eq!(gathered.kinds, selected.kinds);
    }

    #[test]
    fn gather_rows_rejects_out_of_bounds() {
        let src = recipe(50, 8);
        assert!(matches!(
            src.gather_rows(&[1, 50]),
            Err(ShardError::RowOutOfBounds {
                row: 50,
                n_rows: 50
            })
        ));
    }

    #[test]
    fn dataset_is_a_single_shard_source() {
        let src = recipe(40, 8);
        let ds = src.materialize().unwrap();
        assert_eq!(RowSource::n_rows(&ds), 40);
        assert_eq!(ds.n_shards(), 1);
        let gathered = ds.gather_rows(&[5, 2]).unwrap();
        assert_bits_eq(&gathered.values, &ds.select_rows(&[5, 2]).values);
        assert!(matches!(
            ds.load_shard(1),
            Err(ShardError::ShardOutOfBounds { .. })
        ));
    }

    #[test]
    fn chunked_dataset_streams_an_in_memory_dataset() {
        let src = recipe(61, 10);
        let ds = src.materialize().unwrap();
        let chunked = ChunkedDataset::new(&ds, 13);
        assert_eq!(chunked.n_shards(), 5);
        let back = chunked.materialize().unwrap();
        assert_bits_eq(&back.values, &ds.values);
        assert_eq!(back.kinds, ds.kinds);
    }

    #[test]
    fn spill_roundtrip_is_bit_exact() {
        let src = recipe(75, 11);
        let dir = tmp_dir("roundtrip");
        let spilled = spill_source(&src, &dir).unwrap();
        assert_eq!(spilled.n_rows(), 75);
        assert_eq!(spilled.shard_rows(), 11);
        assert_eq!(spilled.kinds(), src.kinds());
        let a = src.materialize().unwrap();
        let b = spilled.materialize().unwrap();
        assert_bits_eq(&a.values, &b.values);
        // reopening from the manifest alone works too
        let reopened = ShardedDataset::open_spill(&dir).unwrap();
        assert_bits_eq(&reopened.materialize().unwrap().values, &b.values);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_spill_shard_is_a_typed_error() {
        let src = recipe(40, 10);
        let dir = tmp_dir("torn");
        let spilled = spill_source(&src, &dir).unwrap();
        let path = shard_file(&dir, 2);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            spilled.load_shard(2),
            Err(ShardError::Torn { shard: 2, .. })
        ));
        // other shards stay readable
        assert!(spilled.load_shard(1).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_spill_shard_is_a_typed_error() {
        let src = recipe(40, 10);
        let dir = tmp_dir("corrupt");
        let spilled = spill_source(&src, &dir).unwrap();
        let path = shard_file(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            spilled.load_shard(1),
            Err(ShardError::Corrupt { shard: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = tmp_dir("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            ShardedDataset::open_spill(&dir),
            Err(ShardError::Io { .. })
        ));
        std::fs::write(dir.join("manifest.txt"), "not a manifest\n").unwrap();
        assert!(matches!(
            ShardedDataset::open_spill(&dir),
            Err(ShardError::BadManifest { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn column_means_match_in_memory_nan_mean_bitwise() {
        let src = recipe(120, 17);
        let full = src.materialize().unwrap();
        let streamed = observed_column_means(&src).unwrap();
        assert_eq!(streamed.len(), src.n_cols());
        for (j, mean) in streamed.iter().enumerate() {
            let reference = nan_mean(&full.values.col(j)).unwrap_or(0.5);
            assert_eq!(
                mean.to_bits(),
                reference.to_bits(),
                "column {} mean mismatch",
                j
            );
        }
    }

    #[test]
    fn memory_sink_reassembles_shards() {
        let src = recipe(45, 8);
        let mut sink = MemorySink::new();
        for k in 0..src.n_shards() {
            sink.push_rows(&src.load_shard(k).unwrap().values).unwrap();
        }
        assert_eq!(sink.rows(), 45);
        let out = sink.into_matrix();
        let full = src.materialize().unwrap();
        for (x, y) in out.as_slice().iter().zip(full.values.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn missing_rate_is_close_to_target() {
        let src = recipe(400, 64);
        let rate = src.missing_rate().unwrap();
        assert!((rate - 0.25).abs() < 0.03, "rate {}", rate);
    }
}
