//! Input validation for incomplete datasets.
//!
//! The fault-tolerant pipeline ([`Scis::try_run`] in `scis-core`) refuses to
//! train on data that would poison the Sinkhorn solves: an observed cell
//! holding NaN or ±Inf enters the masked cost matrix directly and turns the
//! whole plan non-finite. Degenerate-but-harmless structure (all-missing or
//! constant columns) is *reported*, not rejected — the mean imputer and the
//! min–max scaler both have documented fallbacks for it.
//!
//! [`Scis::try_run`]: https://docs.rs/scis-core

use crate::dataset::{ColumnKind, Dataset};
use crate::shard::{RowSource, ShardError};
use std::fmt;

/// A dataset defect that makes adversarial training unsafe.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An *observed* cell (mask = 1) holds a NaN or infinite value.
    NonFiniteObserved {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// The dataset has no rows or no columns.
    Empty,
    /// A column *declared* categorical has no observed cells, so its level
    /// structure cannot be established (level inference on it used to
    /// panic). All-missing *continuous* columns stay report-only.
    AllMissingCategorical {
        /// The offending column.
        col: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::NonFiniteObserved { row, col, value } => write!(
                f,
                "observed cell ({row}, {col}) holds non-finite value {value}"
            ),
            DataError::Empty => write!(f, "dataset has no rows or no columns"),
            DataError::AllMissingCategorical { col } => write!(
                f,
                "categorical column {col} has no observed cells; its levels cannot be established"
            ),
        }
    }
}

impl std::error::Error for DataError {}

/// Structural findings from [`Dataset::validate`]: degenerate columns that
/// are safe to train on but worth surfacing in the run's anomaly record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataReport {
    /// Columns with zero observed cells (the imputer can only guess a
    /// constant for them; [`crate::normalize::MinMaxScaler`] maps them
    /// through the identity).
    pub all_missing_columns: Vec<usize>,
    /// Columns whose observed cells all hold one value (zero range; the
    /// scaler falls back to span 1 so they round-trip losslessly).
    pub constant_columns: Vec<usize>,
}

impl DataReport {
    /// True when no degenerate structure was found.
    pub fn is_clean(&self) -> bool {
        self.all_missing_columns.is_empty() && self.constant_columns.is_empty()
    }
}

impl Dataset {
    /// Checks the dataset for defects that would poison training.
    ///
    /// Returns `Err` on the first column (in column order) that holds a
    /// non-finite observed cell, naming that column's first such row
    /// (missing cells are NaN *by design* and are skipped), and otherwise a
    /// [`DataReport`] flagging all-missing and constant columns.
    pub fn validate(&self) -> Result<DataReport, DataError> {
        if self.n_samples() == 0 || self.n_features() == 0 {
            return Err(DataError::Empty);
        }
        let mut fold = ValidateFold::new(self.n_features());
        fold.absorb(self, 0);
        fold.finish(&self.kinds)
    }
}

/// Streaming [`Dataset::validate`] over a sharded source: one pass in shard
/// order, holding only per-column fold state. Both checks run the same
/// fold, so the report — and on invalid data the reported defect — is
/// identical to validating the materialized dataset at any shard size.
pub fn validate_source(src: &dyn RowSource) -> Result<DataReport, ShardError> {
    if src.n_rows() == 0 || src.n_cols() == 0 {
        return Err(ShardError::Data(DataError::Empty));
    }
    let mut fold = ValidateFold::new(src.n_cols());
    for k in 0..src.n_shards() {
        fold.absorb(&src.load_shard(k)?, src.shard_span(k).0);
    }
    Ok(fold.finish(src.kinds())?)
}

/// Per-column validation state, folded over rows in ascending order. Each
/// column's state depends only on its own observed values in row order,
/// which shards preserve.
struct ValidateFold {
    /// First observed value per column.
    first: Vec<Option<f64>>,
    /// Whether every observed value so far equals `first`.
    constant: Vec<bool>,
    /// First non-finite observed cell per column: `(row, value)`.
    non_finite: Vec<Option<(usize, f64)>>,
}

impl ValidateFold {
    fn new(d: usize) -> Self {
        Self {
            first: vec![None; d],
            constant: vec![true; d],
            non_finite: vec![None; d],
        }
    }

    /// Folds `block`, whose row 0 is row `start` of the whole dataset.
    fn absorb(&mut self, block: &Dataset, start: usize) {
        for i in 0..block.n_samples() {
            for (j, &v) in block.values.row(i).iter().enumerate() {
                if !block.mask.get(i, j) {
                    continue;
                }
                if !v.is_finite() {
                    self.non_finite[j].get_or_insert((start + i, v));
                    continue;
                }
                match self.first[j] {
                    None => self.first[j] = Some(v),
                    Some(f0) if f0 != v => self.constant[j] = false,
                    Some(_) => {}
                }
            }
        }
    }

    /// The first defect in column order, else the report.
    fn finish(self, kinds: &[ColumnKind]) -> Result<DataReport, DataError> {
        let mut report = DataReport::default();
        for (j, kind) in kinds.iter().enumerate() {
            if let Some((row, value)) = self.non_finite[j] {
                return Err(DataError::NonFiniteObserved { row, col: j, value });
            }
            match self.first[j] {
                None if matches!(kind, ColumnKind::Categorical { .. }) => {
                    return Err(DataError::AllMissingCategorical { col: j });
                }
                None => report.all_missing_columns.push(j),
                Some(_) if self.constant[j] => report.constant_columns.push(j),
                Some(_) => {}
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_tensor::Matrix;

    #[test]
    fn clean_dataset_reports_clean() {
        let ds = Dataset::from_values(Matrix::from_rows(&[
            &[1.0, f64::NAN],
            &[2.0, 4.0],
            &[3.0, 5.0],
        ]));
        let report = ds.validate().unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn observed_nan_is_rejected() {
        // a NaN value whose mask bit claims "observed" — inconsistent input
        let complete = Matrix::from_rows(&[&[1.0, f64::NAN], &[2.0, 3.0]]);
        let mask = crate::mask::MaskMatrix::all_observed(2, 2);
        let ds = Dataset {
            values: complete,
            mask,
            kinds: vec![crate::ColumnKind::Continuous; 2],
        };
        match ds.validate() {
            Err(DataError::NonFiniteObserved { row: 0, col: 1, .. }) => {}
            other => panic!("expected NonFiniteObserved, got {other:?}"),
        }
    }

    #[test]
    fn observed_infinity_is_rejected() {
        let ds = Dataset::from_values(Matrix::from_rows(&[&[1.0], &[f64::INFINITY]]));
        assert!(matches!(
            ds.validate(),
            Err(DataError::NonFiniteObserved { row: 1, col: 0, .. })
        ));
    }

    #[test]
    fn degenerate_columns_are_flagged_not_rejected() {
        let ds = Dataset::from_values(Matrix::from_rows(&[
            &[1.0, f64::NAN, 7.0],
            &[2.0, f64::NAN, 7.0],
            &[3.0, f64::NAN, 7.0],
        ]));
        let report = ds.validate().unwrap();
        assert_eq!(report.all_missing_columns, vec![1]);
        assert_eq!(report.constant_columns, vec![2]);
        assert!(!report.is_clean());
    }

    #[test]
    fn all_missing_categorical_column_is_a_typed_error() {
        // regression for the categorical-level-inference panic path: a
        // column declared categorical with zero observed cells must surface
        // as a typed validate error, not a downstream panic
        let mut ds = Dataset::from_values(Matrix::from_rows(&[&[1.0, f64::NAN], &[2.0, f64::NAN]]));
        ds.kinds[1] = crate::ColumnKind::Categorical { levels: 3 };
        assert_eq!(
            ds.validate(),
            Err(DataError::AllMissingCategorical { col: 1 })
        );
        // the streamed fold agrees
        let chunked = crate::shard::ChunkedDataset::new(&ds, 1);
        assert!(matches!(
            validate_source(&chunked),
            Err(ShardError::Data(DataError::AllMissingCategorical {
                col: 1
            }))
        ));
    }

    #[test]
    fn validate_source_matches_in_memory_report() {
        let ds = Dataset::from_values(Matrix::from_rows(&[
            &[1.0, f64::NAN, 7.0, 0.3],
            &[2.0, f64::NAN, 7.0, f64::NAN],
            &[3.0, f64::NAN, 7.0, 0.9],
        ]));
        let in_memory = ds.validate().unwrap();
        let chunked = crate::shard::ChunkedDataset::new(&ds, 2);
        assert_eq!(validate_source(&chunked).unwrap(), in_memory);
        assert_eq!(in_memory.all_missing_columns, vec![1]);
        assert_eq!(in_memory.constant_columns, vec![2]);
    }

    #[test]
    fn validate_source_rejects_observed_non_finite() {
        let complete = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, f64::INFINITY]]);
        let mask = crate::mask::MaskMatrix::all_observed(2, 2);
        let ds = Dataset {
            values: complete,
            mask,
            kinds: vec![crate::ColumnKind::Continuous; 2],
        };
        let chunked = crate::shard::ChunkedDataset::new(&ds, 1);
        assert!(matches!(
            validate_source(&chunked),
            Err(ShardError::Data(DataError::NonFiniteObserved {
                row: 1,
                col: 1,
                ..
            }))
        ));
    }

    #[test]
    fn both_checks_report_the_same_defect_among_several() {
        // three non-finite observed cells: the first in column order wins,
        // at that column's first bad row, whatever the shard size
        let complete = Matrix::from_rows(&[
            &[1.0, f64::INFINITY, 2.0],
            &[3.0, 4.0, f64::NAN],
            &[f64::NEG_INFINITY, f64::NAN, 5.0],
        ]);
        let ds = Dataset {
            values: complete,
            mask: crate::mask::MaskMatrix::all_observed(3, 3),
            kinds: vec![crate::ColumnKind::Continuous; 3],
        };
        let expected = DataError::NonFiniteObserved {
            row: 2,
            col: 0,
            value: f64::NEG_INFINITY,
        };
        assert_eq!(ds.validate(), Err(expected.clone()));
        for shard_rows in 1..=3 {
            let chunked = crate::shard::ChunkedDataset::new(&ds, shard_rows);
            match validate_source(&chunked) {
                Err(ShardError::Data(e)) => assert_eq!(e, expected),
                other => panic!("expected a data error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let ds = Dataset::from_values(Matrix::zeros(0, 3));
        assert_eq!(ds.validate(), Err(DataError::Empty));
    }

    #[test]
    fn error_messages_name_the_cell() {
        let e = DataError::NonFiniteObserved {
            row: 3,
            col: 1,
            value: f64::INFINITY,
        };
        assert_eq!(
            e.to_string(),
            "observed cell (3, 1) holds non-finite value inf"
        );
    }
}
