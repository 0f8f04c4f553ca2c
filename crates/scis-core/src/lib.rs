#![warn(missing_docs)]

//! `scis-core` — the paper's contribution: the SCIS scalable imputation
//! system for differentiable generative adversarial imputation models.
//!
//! SCIS wraps any [`scis_imputers::AdversarialImputer`] (GAIN, GINN) and
//! accelerates it under an accuracy guarantee:
//!
//! * [`dim`] — *Differentiable Imputation Modeling*: retrains the wrapped
//!   model's generator under the masking Sinkhorn divergence of
//!   [`scis_ot`], optionally through an adversarially-trained critic
//!   embedding (the "discriminator maximizes the MS divergence" game of
//!   §IV.B).
//! * [`sse`] — *Sample Size Estimation*: Theorem 1's parameter posterior
//!   `θ̂_n | θ0 ~ N(θ0, η H⁻¹)`, Proposition 2's Hoeffding-corrected
//!   Monte-Carlo acceptance rule, and the binary search for the minimum
//!   sample size `n*`.
//! * [`pipeline`] — Algorithm 1 end to end, with the timing/sample-rate
//!   accounting the paper's tables report.
//!
//! ```no_run
//! use scis_core::pipeline::{Scis, ScisConfig};
//! use scis_data::CovidRecipe;
//! use scis_imputers::{GainImputer, TrainConfig};
//! use scis_tensor::Rng64;
//!
//! let inst = CovidRecipe::Trial.generate(0.05, 7);
//! let mut rng = Rng64::seed_from_u64(7);
//! let mut gain = GainImputer::new(TrainConfig::default());
//! let outcome = Scis::new(ScisConfig::default()).try_run(&mut gain, &inst.dataset, inst.n0, &mut rng).unwrap();
//! println!("n* = {} (R_t = {:.2}%)", outcome.n_star, outcome.training_sample_rate() * 100.0);
//! ```

pub mod checkpoint;
pub mod dim;
pub mod error;
pub mod guard;
pub mod heartbeat;
pub mod pipeline;
pub mod report;
pub mod sse;

pub use checkpoint::{latest_checkpoint, CheckpointPolicy, TrainCheckpoint};
pub use dim::{train_dim, AccelConfig, DimConfig, DimReport, TrainRun};
pub use error::{FailureReason, ScisError, TrainPhase, TrainingError, POST_MORTEM_TAIL};
pub use guard::{GuardConfig, GuardStats, TrainingGuard};
pub use heartbeat::{HeartbeatHook, Progress};
pub use pipeline::{RunAnomalies, Scis, ScisConfig, ScisOutcome, StreamOutcome};
pub use report::{
    CounterValue, HistogramReport, PhaseTiming, RunReport, SeriesReport, RUN_REPORT_SCHEMA_VERSION,
};
pub use sse::{SseConfig, SseProbe, SseResult};
