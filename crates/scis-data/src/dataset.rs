//! The incomplete dataset: values + mask + column metadata.

use crate::mask::MaskMatrix;
use scis_tensor::Matrix;

/// Column type metadata, used by the synthetic generator, the HIVAE
/// likelihood heads, and the post-imputation prediction tasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// Real-valued feature.
    Continuous,
    /// Ordinal/categorical feature with the given number of levels, stored
    /// as `0.0 ..= (levels-1) as f64`.
    Categorical {
        /// Number of category levels.
        levels: usize,
    },
}

/// Per-column streaming state behind [`infer_kinds`]: feed observed values
/// in row order, then [`KindState::resolve`]. Tracking the running maximum
/// level inline (instead of `max()`-ing the distinct set afterwards) keeps
/// the empty-column case panic-free: a column with no observed values
/// resolves to [`ColumnKind::Continuous`] instead of tripping an `.expect`
/// on an empty set.
#[derive(Debug, Clone)]
struct KindState {
    distinct: Vec<i64>,
    max_level: i64,
    categorical: bool,
    any: bool,
}

impl KindState {
    fn new() -> Self {
        Self {
            distinct: Vec::new(),
            max_level: 0,
            categorical: true,
            any: false,
        }
    }

    fn observe(&mut self, v: f64, max_levels: usize) {
        if v.is_nan() || !self.categorical {
            return;
        }
        self.any = true;
        if v < 0.0 || v.fract() != 0.0 || v > 1e6 {
            self.categorical = false;
            return;
        }
        let iv = v as i64;
        if !self.distinct.contains(&iv) {
            self.distinct.push(iv);
            self.max_level = self.max_level.max(iv);
            if self.distinct.len() > max_levels {
                self.categorical = false;
            }
        }
    }

    fn resolve(&self) -> ColumnKind {
        if self.any && self.categorical && self.distinct.len() >= 2 {
            ColumnKind::Categorical {
                levels: (self.max_level as usize + 1).max(2),
            }
        } else {
            ColumnKind::Continuous
        }
    }
}

/// Infers per-column kinds from observed values: a column whose observed
/// values are all small non-negative integers with at most `max_levels`
/// distinct values is treated as categorical (ordinal-coded); everything
/// else is continuous. Used by the `scis` CLI so heterogeneous
/// heads (HIVAE) work on raw CSVs. A column with no observed values is
/// continuous.
pub fn infer_kinds(values: &Matrix, max_levels: usize) -> Vec<ColumnKind> {
    let mut states: Vec<KindState> = (0..values.cols()).map(|_| KindState::new()).collect();
    for i in 0..values.rows() {
        for (j, s) in states.iter_mut().enumerate() {
            s.observe(values[(i, j)], max_levels);
        }
    }
    states.iter().map(KindState::resolve).collect()
}

/// Streaming [`infer_kinds`] over a sharded source: one pass in shard
/// order, identical results to materializing the source (the per-column
/// state consumes observed values in the same row order).
pub fn infer_kinds_source(
    src: &dyn crate::shard::RowSource,
    max_levels: usize,
) -> Result<Vec<ColumnKind>, crate::shard::ShardError> {
    let mut states: Vec<KindState> = (0..src.n_cols()).map(|_| KindState::new()).collect();
    for k in 0..src.n_shards() {
        let shard = src.load_shard(k)?;
        for i in 0..shard.n_samples() {
            for (j, s) in states.iter_mut().enumerate() {
                s.observe(shard.values[(i, j)], max_levels);
            }
        }
    }
    Ok(states.iter().map(KindState::resolve).collect())
}

/// An incomplete dataset: observed values (NaN at missing cells), the mask
/// matrix `M` (1 = observed), and per-column kinds.
///
/// ```
/// use scis_data::Dataset;
/// use scis_tensor::Matrix;
///
/// let ds = Dataset::from_values(Matrix::from_rows(&[&[1.0, f64::NAN], &[3.0, 4.0]]));
/// assert_eq!(ds.missing_rate(), 0.25);
/// // Eq. 1: observed cells pass through, missing cells take the reconstruction
/// let imputed = ds.merge_imputed(&Matrix::full(2, 2, 9.0));
/// assert_eq!(imputed[(0, 1)], 9.0);
/// assert_eq!(imputed[(1, 1)], 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Data matrix `X`; missing cells hold NaN.
    pub values: Matrix,
    /// Mask matrix `M`.
    pub mask: MaskMatrix,
    /// Per-column type metadata (len = `values.cols()`).
    pub kinds: Vec<ColumnKind>,
}

impl Dataset {
    /// Builds a dataset from a value matrix, deriving the mask from its NaN
    /// pattern; all columns marked continuous.
    pub fn from_values(values: Matrix) -> Self {
        let mask = MaskMatrix::from_nan_pattern(&values);
        let kinds = vec![ColumnKind::Continuous; values.cols()];
        Self {
            values,
            mask,
            kinds,
        }
    }

    /// Builds a dataset from a *complete* matrix and an explicit mask:
    /// masked-out cells are overwritten with NaN.
    pub fn from_complete(complete: &Matrix, mask: MaskMatrix, kinds: Vec<ColumnKind>) -> Self {
        assert_eq!(mask.rows(), complete.rows(), "from_complete: row mismatch");
        assert_eq!(mask.cols(), complete.cols(), "from_complete: col mismatch");
        assert_eq!(
            kinds.len(),
            complete.cols(),
            "from_complete: kinds len mismatch"
        );
        let values = Matrix::from_fn(complete.rows(), complete.cols(), |i, j| {
            if mask.get(i, j) {
                (*complete)[(i, j)]
            } else {
                f64::NAN
            }
        });
        Self {
            values,
            mask,
            kinds,
        }
    }

    /// Number of samples `N`.
    pub fn n_samples(&self) -> usize {
        self.values.rows()
    }

    /// Number of features `d`.
    pub fn n_features(&self) -> usize {
        self.values.cols()
    }

    /// Fraction of missing cells.
    pub fn missing_rate(&self) -> f64 {
        self.mask.missing_rate()
    }

    /// The paper's Eq. 1: `X̂ = M ⊙ X + (1 − M) ⊙ X̄`.
    ///
    /// Observed cells are passed through *exactly*; missing cells are filled
    /// from the reconstruction `xbar`.
    pub fn merge_imputed(&self, xbar: &Matrix) -> Matrix {
        assert_eq!(
            xbar.shape(),
            self.values.shape(),
            "merge_imputed: shape mismatch"
        );
        Matrix::from_fn(self.values.rows(), self.values.cols(), |i, j| {
            if self.mask.get(i, j) {
                self.values[(i, j)]
            } else {
                (*xbar)[(i, j)]
            }
        })
    }

    /// Values with NaN replaced by `fill` (the usual network input form;
    /// GAIN feeds `M ⊙ X + (1−M) ⊙ Z` with noise `Z`).
    pub fn values_filled(&self, fill: f64) -> Matrix {
        self.values.map(|v| if v.is_nan() { fill } else { v })
    }

    /// Row subset as a new dataset (indices may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        Dataset {
            values: self.values.select_rows(indices),
            mask: self.mask.select_rows(indices),
            kinds: self.kinds.clone(),
        }
    }

    /// Dense `f64` mask of the whole dataset.
    pub fn dense_mask(&self) -> Matrix {
        self.mask.to_dense()
    }

    /// Iterator over `(row, col, value)` of observed cells.
    pub fn observed_cells(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.values.cols();
        (0..self.values.rows()).flat_map(move |i| {
            (0..cols).filter_map(move |j| {
                if self.mask.get(i, j) {
                    Some((i, j, self.values[(i, j)]))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let v = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 4.0], &[5.0, 6.0]]);
        Dataset::from_values(v)
    }

    #[test]
    fn from_values_derives_mask() {
        let ds = toy();
        assert_eq!(ds.n_samples(), 3);
        assert_eq!(ds.n_features(), 2);
        assert!((ds.missing_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!(ds.mask.get(0, 0) && !ds.mask.get(0, 1));
    }

    #[test]
    fn from_complete_masks_out_cells() {
        let complete = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut mask = MaskMatrix::all_observed(2, 2);
        mask.set(0, 1, false);
        let ds = Dataset::from_complete(&complete, mask, vec![ColumnKind::Continuous; 2]);
        assert!(ds.values[(0, 1)].is_nan());
        assert_eq!(ds.values[(1, 1)], 4.0);
    }

    #[test]
    fn merge_imputed_preserves_observed_exactly() {
        let ds = toy();
        let xbar = Matrix::full(3, 2, 9.9);
        let merged = ds.merge_imputed(&xbar);
        assert_eq!(merged[(0, 0)], 1.0);
        assert_eq!(merged[(0, 1)], 9.9);
        assert_eq!(merged[(1, 0)], 9.9);
        assert_eq!(merged[(1, 1)], 4.0);
        assert_eq!(merged[(2, 0)], 5.0);
        assert!(!merged.has_nan());
    }

    #[test]
    fn values_filled_replaces_nan_only() {
        let ds = toy();
        let f = ds.values_filled(0.0);
        assert_eq!(f[(0, 1)], 0.0);
        assert_eq!(f[(2, 1)], 6.0);
    }

    #[test]
    fn select_rows_keeps_mask_alignment() {
        let ds = toy();
        let sub = ds.select_rows(&[2, 0]);
        assert_eq!(sub.n_samples(), 2);
        assert_eq!(sub.values[(0, 1)], 6.0);
        assert!(sub.values[(1, 1)].is_nan());
        assert!(sub.mask.get(0, 1) && !sub.mask.get(1, 1));
    }

    #[test]
    fn infer_kinds_detects_ordinals_and_continuous() {
        let v = Matrix::from_rows(&[
            &[0.0, 0.5, 1.0, 3.0],
            &[1.0, 0.7, 2.0, f64::NAN],
            &[2.0, 0.9, 1.0, 3.0],
            &[1.0, 0.1, 0.0, 3.0],
        ]);
        let kinds = infer_kinds(&v, 8);
        // col 0: integers {0,1,2} → categorical with 3 levels
        assert_eq!(kinds[0], ColumnKind::Categorical { levels: 3 });
        // col 1: fractional → continuous
        assert_eq!(kinds[1], ColumnKind::Continuous);
        // col 2: integers {0,1,2} → categorical
        assert_eq!(kinds[2], ColumnKind::Categorical { levels: 3 });
        // col 3: constant (single distinct value) → continuous
        assert_eq!(kinds[3], ColumnKind::Continuous);
    }

    #[test]
    fn infer_kinds_respects_level_cap() {
        let v = Matrix::from_fn(100, 1, |i, _| i as f64);
        assert_eq!(infer_kinds(&v, 8)[0], ColumnKind::Continuous);
        let w = Matrix::from_fn(100, 1, |i, _| (i % 4) as f64);
        assert_eq!(infer_kinds(&w, 8)[0], ColumnKind::Categorical { levels: 4 });
    }

    #[test]
    fn infer_kinds_handles_all_missing_column() {
        // regression: the old implementation max()-ed the distinct set with
        // an `.expect("non-empty")` — an all-missing column must resolve to
        // Continuous, not panic
        let v = Matrix::from_fn(5, 3, |i, j| match j {
            0 => f64::NAN,
            1 => (i % 2) as f64,
            _ => 0.25,
        });
        let kinds = infer_kinds(&v, 8);
        assert_eq!(kinds[0], ColumnKind::Continuous);
        assert_eq!(kinds[1], ColumnKind::Categorical { levels: 2 });
        assert_eq!(kinds[2], ColumnKind::Continuous);
    }

    #[test]
    fn infer_kinds_source_matches_in_memory() {
        let v = Matrix::from_fn(40, 4, |i, j| match j {
            0 => (i % 3) as f64,
            1 => i as f64 * 0.1,
            2 => {
                if i % 4 == 0 {
                    f64::NAN
                } else {
                    (i % 5) as f64
                }
            }
            _ => f64::NAN,
        });
        let ds = Dataset::from_values(v.clone());
        let chunked = crate::shard::ChunkedDataset::new(&ds, 7);
        assert_eq!(infer_kinds_source(&chunked, 8).unwrap(), infer_kinds(&v, 8));
    }

    #[test]
    fn observed_cells_iterator() {
        let ds = toy();
        let cells: Vec<_> = ds.observed_cells().collect();
        assert_eq!(
            cells,
            vec![(0, 0, 1.0), (1, 1, 4.0), (2, 0, 5.0), (2, 1, 6.0)]
        );
    }
}
