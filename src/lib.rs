#![warn(missing_docs)]

//! SCIS reproduction facade crate.
//!
//! The stable, documented entry point is [`api`]; [`prelude`] is the
//! wildcard-import convenience over the same surface:
//!
//! ```
//! use scis_repro::prelude::*;
//!
//! let cfg = ScisConfig::default().exec(ExecPolicy::threads(2));
//! let scis = Scis::new(cfg);
//! assert_eq!(scis.config().dim.exec, ExecPolicy::threads(2));
//! ```
pub mod api;
pub mod cli;

pub use scis_core as core;
pub use scis_data as data;
pub use scis_imputers as imputers;
pub use scis_nn as nn;
pub use scis_ot as ot;
pub use scis_serve as serve;
pub use scis_telemetry as telemetry;
pub use scis_tensor as tensor;

/// One-stop imports for the common SCIS workflows: load a
/// [`Dataset`](prelude::Dataset), configure
/// [`ScisConfig`](prelude::ScisConfig) fluently (including the
/// [`ExecPolicy`](prelude::ExecPolicy) used by every compute layer), wrap a
/// GAN imputer, run [`Scis`](prelude::Scis), and serve the trained model
/// through a [`ModelBundle`](prelude::ModelBundle) /
/// [`ImputeService`](prelude::ImputeService).
///
/// The prelude deliberately stops at the workflow layer: solver internals
/// (`SinkhornOptions`, `MaskedRows`) and the raw telemetry slab enums
/// (`Counter`, `Hist`, `Series`, …) are not re-exported here — import them
/// from their home crates ([`crate::ot`], [`crate::telemetry`]) when a
/// program genuinely reaches below the facade.
pub mod prelude {
    pub use scis_core::dim::{AccelConfig, DimConfig, DimReport, GenerativeLoss, LambdaMode};
    pub use scis_core::error::{ScisError, TrainingError};
    pub use scis_core::guard::GuardConfig;
    pub use scis_core::pipeline::{RunAnomalies, Scis, ScisConfig, ScisOutcome};
    pub use scis_core::report::RunReport;
    pub use scis_core::sse::{SseConfig, SseProbe, SseResult};
    pub use scis_data::{Dataset, MaskMatrix};
    pub use scis_imputers::{AdversarialImputer, GainImputer, GinnImputer, Imputer, TrainConfig};
    pub use scis_serve::batcher::BatchConfig;
    pub use scis_serve::bundle::{BundleError, ColumnMeta, ModelBundle};
    pub use scis_serve::server::{Server, ServerConfig};
    pub use scis_serve::service::{ImputeResult, ImputeRow, ImputeService, ServeError};
    pub use scis_telemetry::Telemetry;
    pub use scis_tensor::{ExecPolicy, Matrix, Rng64};
}
