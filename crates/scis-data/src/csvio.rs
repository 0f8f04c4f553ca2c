//! Minimal CSV I/O for numeric incomplete tables.
//!
//! Format: one header row (`c0,c1,…` on write; any header accepted on
//! read), numeric cells, *empty* cells mean missing. This is enough to
//! round-trip every dataset in the reproduction and to export imputed
//! matrices for external analysis.

use crate::dataset::Dataset;
use crate::shard::{ShardError, ShardSink};
use scis_tensor::Matrix;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data row had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A non-empty cell failed to parse as a float.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 0-based column.
        col: usize,
        /// Offending text.
        text: String,
    },
    /// The file had no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {}", e),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {}: {} fields, expected {}", line, got, expected)
            }
            CsvError::BadNumber { line, col, text } => {
                write!(f, "line {}, col {}: cannot parse {:?}", line, col, text)
            }
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes a dataset as CSV: missing cells become empty fields.
pub fn write_dataset(path: &Path, ds: &Dataset) -> Result<(), CsvError> {
    let mut w = CsvWriter::create(path, ds.n_features())?;
    w.write_rows(&ds.values)?;
    w.finish()?;
    Ok(())
}

/// Incremental CSV writer: the `c0,c1,…` header on creation, then one line
/// per row, `{}` per cell and an empty field for NaN. It is the
/// [`ShardSink`] streamed output goes to, and [`write_dataset`] is built on
/// it, so both write the same bytes.
pub struct CsvWriter {
    w: BufWriter<std::fs::File>,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates (or truncates) `path` and writes the header for `n_cols`
    /// columns.
    pub fn create(path: &Path, n_cols: usize) -> std::io::Result<Self> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let header: Vec<String> = (0..n_cols).map(|j| format!("c{j}")).collect();
        writeln!(w, "{}", header.join(","))?;
        Ok(Self {
            w,
            path: path.to_path_buf(),
        })
    }

    /// Appends every row of `rows`.
    pub fn write_rows(&mut self, rows: &Matrix) -> std::io::Result<()> {
        for i in 0..rows.rows() {
            for (j, v) in rows.row(i).iter().enumerate() {
                if j > 0 {
                    self.w.write_all(b",")?;
                }
                if !v.is_nan() {
                    write!(self.w, "{}", v)?;
                }
            }
            self.w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Flushes the buffered rows to the file.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

impl ShardSink for CsvWriter {
    fn push_rows(&mut self, rows: &Matrix) -> Result<(), ShardError> {
        self.write_rows(rows).map_err(|source| ShardError::Io {
            path: self.path.clone(),
            source,
        })
    }
}

/// Streaming row reader over a CSV file with a header line: yields one
/// parsed row at a time (empty cells → NaN), so large inputs can be spilled
/// out of core without ever materializing the full `N × d` matrix.
///
/// [`read_dataset`] is built on this reader; the parsing rules (trimmed
/// cells, empty → missing, ragged/bad-number errors with 1-based line
/// numbers) are identical by construction.
pub struct CsvRows {
    lines: std::io::Lines<BufReader<std::fs::File>>,
    n_cols: usize,
    /// 1-based file line of the most recently read line (header = 1).
    lineno: usize,
}

impl CsvRows {
    /// Opens `path` and consumes the header line.
    pub fn open(path: &Path) -> Result<Self, CsvError> {
        let reader = BufReader::new(std::fs::File::open(path)?);
        let mut lines = reader.lines();
        let header = match lines.next() {
            Some(h) => h?,
            None => return Err(CsvError::Empty),
        };
        Ok(Self {
            lines,
            n_cols: header.split(',').count(),
            lineno: 1,
        })
    }

    /// Number of columns declared by the header.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl Iterator for CsvRows {
    type Item = Result<Vec<f64>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => return Some(Err(e.into())),
            };
            self.lineno += 1;
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != self.n_cols {
                return Some(Err(CsvError::RaggedRow {
                    line: self.lineno,
                    got: fields.len(),
                    expected: self.n_cols,
                }));
            }
            let mut row = Vec::with_capacity(self.n_cols);
            for (col, f) in fields.iter().enumerate() {
                let t = f.trim();
                if t.is_empty() {
                    row.push(f64::NAN);
                } else {
                    match t.parse::<f64>() {
                        Ok(v) => row.push(v),
                        Err(_) => {
                            return Some(Err(CsvError::BadNumber {
                                line: self.lineno,
                                col,
                                text: t.to_string(),
                            }))
                        }
                    }
                }
            }
            return Some(Ok(row));
        }
    }
}

/// Reads a CSV with a header row into a [`Dataset`]; empty cells → missing.
pub fn read_dataset(path: &Path) -> Result<Dataset, CsvError> {
    let mut reader = CsvRows::open(path)?;
    let d = reader.n_cols();
    let mut data: Vec<f64> = Vec::new();
    let mut rows = 0usize;
    for row in &mut reader {
        data.extend(row?);
        rows += 1;
    }
    if rows == 0 {
        return Err(CsvError::Empty);
    }
    Ok(Dataset::from_values(Matrix::from_vec(rows, d, data)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scis_csv_test_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_preserves_values_and_missingness() {
        let v = Matrix::from_rows(&[&[1.5, f64::NAN, 3.0], &[f64::NAN, -2.25, 0.0]]);
        let ds = Dataset::from_values(v);
        let path = tmp("roundtrip.csv");
        write_dataset(&path, &ds).unwrap();
        let back = read_dataset(&path).unwrap();
        assert_eq!(back.n_samples(), 2);
        assert_eq!(back.n_features(), 3);
        assert_eq!(back.values[(0, 0)], 1.5);
        assert!(back.values[(0, 1)].is_nan());
        assert_eq!(back.values[(1, 1)], -2.25);
        assert_eq!(back.mask, ds.mask);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_writes_match_write_dataset_byte_for_byte() {
        let v = Matrix::from_fn(23, 3, |i, j| {
            if (i + j) % 4 == 0 {
                f64::NAN
            } else {
                (i as f64 - 7.5) * 0.1 + j as f64 * 1e-9
            }
        });
        let whole = tmp("whole.csv");
        write_dataset(&whole, &Dataset::from_values(v.clone())).unwrap();
        let expected = std::fs::read(&whole).unwrap();
        for shard_rows in [1, 5, 23] {
            let path = tmp(&format!("sharded_{shard_rows}.csv"));
            let mut w = CsvWriter::create(&path, 3).unwrap();
            for start in (0..23).step_by(shard_rows) {
                let idx: Vec<usize> = (start..(start + shard_rows).min(23)).collect();
                w.push_rows(&v.select_rows(&idx)).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                expected,
                "{shard_rows}-row shards"
            );
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&whole).ok();
    }

    #[test]
    fn ragged_row_is_an_error() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "a,b\n1,2\n3\n").unwrap();
        match read_dataset(&path) {
            Err(CsvError::RaggedRow {
                line: 3,
                got: 1,
                expected: 2,
            }) => {}
            other => panic!("unexpected {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_number_is_an_error() {
        let path = tmp("badnum.csv");
        std::fs::write(&path, "a\nxyz\n").unwrap();
        assert!(matches!(
            read_dataset(&path),
            Err(CsvError::BadNumber { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rows_streams_the_same_values_as_read_dataset() {
        let path = tmp("stream.csv");
        std::fs::write(&path, "a,b,c\n1,,3\n\n4,5,\n").unwrap();
        let ds = read_dataset(&path).unwrap();
        let mut reader = CsvRows::open(&path).unwrap();
        assert_eq!(reader.n_cols(), 3);
        let mut i = 0;
        for row in &mut reader {
            let row = row.unwrap();
            for (j, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), ds.values[(i, j)].to_bits());
            }
            i += 1;
        }
        assert_eq!(i, ds.n_samples());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rows_reports_errors_with_line_numbers() {
        let path = tmp("stream_err.csv");
        std::fs::write(&path, "a,b\n1,2\n3\n").unwrap();
        let rows: Vec<_> = CsvRows::open(&path).unwrap().collect();
        assert!(rows[0].is_ok());
        assert!(matches!(
            rows[1],
            Err(CsvError::RaggedRow {
                line: 3,
                got: 1,
                expected: 2
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_an_error() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(read_dataset(&path), Err(CsvError::Empty)));
        std::fs::write(&path, "a,b\n").unwrap();
        assert!(matches!(read_dataset(&path), Err(CsvError::Empty)));
        std::fs::remove_file(&path).ok();
    }
}
