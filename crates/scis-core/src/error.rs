//! The workspace-level error hierarchy for the fault-tolerant pipeline.
//!
//! [`ScisError`] wraps every lower-layer failure mode — bad data
//! ([`scis_data::DataError`]), CSV parsing, Sinkhorn input defects, model
//! serialization, linear algebra — plus the two failure modes that only
//! exist at the pipeline level: invalid configuration and a DIM training
//! run that stayed numerically broken after every recovery attempt
//! ([`TrainingError`]).
//!
//! [`crate::pipeline::Scis::try_run`] returns these instead of panicking.
//! [`ScisError::OversizedInitialSample`] keeps the historical `"exceeds N"`
//! message, which callers and tests match on.

use scis_telemetry::RecordedEvent;
use std::fmt;

/// How many trailing flight-recorder events a [`TrainingError`] (or a
/// degraded pipeline outcome) carries as its post-mortem.
pub const POST_MORTEM_TAIL: usize = 64;

/// Which DIM training phase of Algorithm 1 an error came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPhase {
    /// Line 2: training `M0` on the initial sample `X0`.
    Initial,
    /// The SSE calibration sibling (trained on a second size-`n0` sample).
    Calibration,
    /// Line 5: retraining on the size-`n*` sample `X*`.
    Retrain,
}

impl TrainPhase {
    /// Stable snake_case slug used in flight-recorder events.
    pub fn name(self) -> &'static str {
        match self {
            TrainPhase::Initial => "initial",
            TrainPhase::Calibration => "calibration",
            TrainPhase::Retrain => "retrain",
        }
    }

    /// Numeric code for the `train_phase` metric series
    /// (0 = initial, 1 = calibration, 2 = retrain).
    pub fn code(self) -> u8 {
        match self {
            TrainPhase::Initial => 0,
            TrainPhase::Calibration => 1,
            TrainPhase::Retrain => 2,
        }
    }
}

impl fmt::Display for TrainPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainPhase::Initial => write!(f, "initial training"),
            TrainPhase::Calibration => write!(f, "SSE calibration training"),
            TrainPhase::Retrain => write!(f, "retraining"),
        }
    }
}

/// Why a guarded DIM epoch was declared broken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureReason {
    /// The mean epoch loss came out NaN or infinite.
    NonFiniteLoss,
    /// The generator gradient norm exceeded the guard's ceiling (or was
    /// itself non-finite).
    ExplodingGradient {
        /// The offending gradient norm.
        norm: f64,
    },
    /// Every batch of the epoch was skipped as numerically poisoned.
    AllBatchesSkipped,
    /// A resume checkpoint did not match the network it was applied to
    /// (different architecture or dataset width).
    ResumeMismatch {
        /// Parameter count of the freshly initialized network.
        expected: usize,
        /// Parameter count recorded in the checkpoint.
        actual: usize,
    },
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::NonFiniteLoss => write!(f, "non-finite epoch loss"),
            FailureReason::ExplodingGradient { norm } => {
                write!(f, "exploding gradient (norm {norm:.3e})")
            }
            FailureReason::AllBatchesSkipped => {
                write!(f, "every batch was skipped as numerically poisoned")
            }
            FailureReason::ResumeMismatch { expected, actual } => {
                write!(
                    f,
                    "resume checkpoint does not fit this model: network has {expected} \
                     parameters, checkpoint records {actual}"
                )
            }
        }
    }
}

/// A DIM training run that exhausted its rollback/LR-backoff budget.
///
/// The generator is left holding the best (lowest finite-loss) parameter
/// snapshot seen before the failure, so callers can still degrade
/// gracefully.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingError {
    /// The training phase that failed.
    pub phase: TrainPhase,
    /// Epoch index (successful epochs completed) at the terminal failure.
    pub epoch: usize,
    /// Recovery attempts (rollback + LR backoff) consumed before giving up.
    pub retries: usize,
    /// The terminal failure.
    pub reason: FailureReason,
    /// The last [`POST_MORTEM_TAIL`] flight-recorder events before the
    /// failure (empty when telemetry was off — the recorder only observes).
    pub post_mortem: Vec<RecordedEvent>,
}

impl fmt::Display for TrainingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DIM {} failed at epoch {} after {} recovery attempts: {}",
            self.phase, self.epoch, self.retries, self.reason
        )
    }
}

impl std::error::Error for TrainingError {}

/// Any failure the SCIS pipeline can surface instead of panicking.
#[derive(Debug)]
pub enum ScisError {
    /// The input dataset is unusable (non-finite observed cells, empty).
    Data(scis_data::DataError),
    /// A configuration value makes the run meaningless.
    InvalidConfig {
        /// Human-readable description of the bad setting.
        message: String,
    },
    /// `Nv + n0` exceeds the dataset size (Algorithm 1 cannot sample
    /// disjoint validation and initial sets).
    OversizedInitialSample {
        /// `Nv + n0` requested.
        requested: usize,
        /// Dataset size `N`.
        n_total: usize,
    },
    /// DIM training stayed broken after every recovery attempt.
    Training(TrainingError),
    /// A Sinkhorn solve rejected its inputs.
    Sinkhorn(scis_ot::SinkhornError),
    /// Model checkpoint load/save failed.
    ModelIo(scis_nn::serialize::ModelIoError),
    /// CSV input could not be parsed.
    Csv(scis_data::csvio::CsvError),
    /// A linear-algebra kernel failed (singular / non-PD matrix).
    Linalg(scis_tensor::linalg::LinalgError),
    /// The out-of-core shard layer failed (torn/corrupt spill shard, bad
    /// manifest, io error, or a defect found by a streamed validate fold).
    Shard(scis_data::ShardError),
}

impl fmt::Display for ScisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScisError::Data(e) => write!(f, "invalid dataset: {e}"),
            ScisError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
            ScisError::OversizedInitialSample { requested, n_total } => {
                // the historical "exceeds N" wording callers match on
                write!(f, "Nv + n0 = {requested} exceeds N = {n_total}")
            }
            ScisError::Training(e) => write!(f, "{e}"),
            ScisError::Sinkhorn(e) => write!(f, "sinkhorn: {e}"),
            ScisError::ModelIo(e) => write!(f, "model io: {e}"),
            ScisError::Csv(e) => write!(f, "csv: {e}"),
            ScisError::Linalg(e) => write!(f, "linalg: {e}"),
            ScisError::Shard(e) => write!(f, "shard: {e}"),
        }
    }
}

impl std::error::Error for ScisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScisError::Data(e) => Some(e),
            ScisError::Training(e) => Some(e),
            ScisError::Sinkhorn(e) => Some(e),
            ScisError::ModelIo(e) => Some(e),
            ScisError::Csv(e) => Some(e),
            ScisError::Linalg(e) => Some(e),
            ScisError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scis_data::DataError> for ScisError {
    fn from(e: scis_data::DataError) -> Self {
        ScisError::Data(e)
    }
}

impl From<TrainingError> for ScisError {
    fn from(e: TrainingError) -> Self {
        ScisError::Training(e)
    }
}

impl From<scis_ot::SinkhornError> for ScisError {
    fn from(e: scis_ot::SinkhornError) -> Self {
        ScisError::Sinkhorn(e)
    }
}

impl From<scis_nn::serialize::ModelIoError> for ScisError {
    fn from(e: scis_nn::serialize::ModelIoError) -> Self {
        ScisError::ModelIo(e)
    }
}

impl From<scis_data::csvio::CsvError> for ScisError {
    fn from(e: scis_data::csvio::CsvError) -> Self {
        ScisError::Csv(e)
    }
}

impl From<scis_tensor::linalg::LinalgError> for ScisError {
    fn from(e: scis_tensor::linalg::LinalgError) -> Self {
        ScisError::Linalg(e)
    }
}

impl From<scis_data::ShardError> for ScisError {
    fn from(e: scis_data::ShardError) -> Self {
        // a streamed fold finding a plain data defect is the same failure
        // as the in-memory validate finding it — unwrap to keep error
        // handling uniform across the two paths
        match e {
            scis_data::ShardError::Data(d) => ScisError::Data(d),
            other => ScisError::Shard(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_message_keeps_legacy_contract() {
        let e = ScisError::OversizedInitialSample {
            requested: 160,
            n_total: 100,
        };
        assert_eq!(e.to_string(), "Nv + n0 = 160 exceeds N = 100");
    }

    #[test]
    fn training_error_names_phase_and_reason() {
        let e = TrainingError {
            phase: TrainPhase::Retrain,
            epoch: 7,
            retries: 3,
            reason: FailureReason::NonFiniteLoss,
            post_mortem: Vec::new(),
        };
        let msg = e.to_string();
        assert!(msg.contains("retraining"), "{msg}");
        assert!(msg.contains("epoch 7"), "{msg}");
        assert!(msg.contains("non-finite"), "{msg}");
    }

    #[test]
    fn train_phase_slugs_and_codes_are_distinct() {
        let phases = [
            TrainPhase::Initial,
            TrainPhase::Calibration,
            TrainPhase::Retrain,
        ];
        let names: Vec<_> = phases.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["initial", "calibration", "retrain"]);
        let codes: Vec<_> = phases.iter().map(|p| p.code()).collect();
        assert_eq!(codes, vec![0, 1, 2]);
    }

    #[test]
    fn wrapped_errors_round_trip_through_from() {
        let e: ScisError = scis_data::DataError::Empty.into();
        assert!(matches!(e, ScisError::Data(_)));
        let e: ScisError = scis_tensor::linalg::LinalgError::Singular { pivot: 3 }.into();
        assert!(e.to_string().contains("singular"));
    }
}
