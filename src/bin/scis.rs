//! `scis` — the SCIS multitool.
//!
//! ```sh
//! scis train  INPUT.csv OUTPUT.csv [flags]    # SSE pipeline; --save-model writes a bundle
//! scis impute INPUT.csv OUTPUT.csv --model m  # apply a saved model, no training
//! scis serve  --model m [--addr host:port]    # online HTTP imputation server
//! scis report FILE.json [...]                 # summarize JSON artifacts
//! ```
//!
//! Flag documentation lives on [`scis_repro::cli`]; `scis help` prints the
//! short form. Exit codes: `0` clean success, `1` error, `2` degraded
//! success, `3` deadline-exceeded success.

use std::process::ExitCode;

fn main() -> ExitCode {
    scis_repro::cli::run_scis()
}
