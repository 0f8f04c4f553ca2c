//! The stable, documented library surface.
//!
//! Everything a downstream program needs for the two supported workflows
//! is re-exported here, and this module — not the individual crates — is
//! the compatibility contract:
//!
//! **Train and impute in-process** (the paper's Algorithm 1):
//!
//! ```
//! use scis_repro::api::{ExecPolicy, Scis, ScisConfig};
//!
//! let config = ScisConfig::default().epsilon(0.01).exec(ExecPolicy::Serial);
//! let scis = Scis::new(config);
//! assert_eq!(scis.config().sse.epsilon, 0.01);
//! // then: scis.try_run(&mut GainImputer::new(...), &dataset, n0, &mut rng)
//! ```
//!
//! **Serve a trained model** (train-once/apply-many):
//!
//! ```no_run
//! use scis_repro::api::{ExecPolicy, ImputeService, ModelBundle, Telemetry};
//!
//! let bundle = ModelBundle::load(std::path::Path::new("model.bundle")).unwrap();
//! let mut svc = ImputeService::new(bundle, ExecPolicy::Auto, Telemetry::off());
//! let filled = svc.impute_rows(&[vec![Some(1.0), None, Some(3.0)]]);
//! assert_eq!(filled.rows[0][0], 1.0); // observed cells pass through bit-exactly
//! ```
//!
//! Fallible entry points ([`Scis::try_run`], [`ModelBundle::load`]) return
//! typed errors ([`ScisError`], [`BundleError`]).

pub use scis_core::dim::{AccelConfig, DimConfig};
pub use scis_core::error::{ScisError, TrainingError};
pub use scis_core::pipeline::{RunAnomalies, Scis, ScisConfig, ScisOutcome};
pub use scis_core::report::RunReport;
pub use scis_core::{CheckpointPolicy, TrainCheckpoint};
pub use scis_data::{Dataset, MaskMatrix};
pub use scis_imputers::{GainImputer, Imputer, TrainConfig};
pub use scis_serve::batcher::{BatchConfig, Batcher, SubmitError};
pub use scis_serve::bundle::{BundleError, ColumnMeta, ModelBundle};
pub use scis_serve::server::{Server, ServerConfig};
pub use scis_serve::service::{ImputeResult, ImputeRow, ImputeService, ServeError};
pub use scis_telemetry::Telemetry;
pub use scis_tensor::{ExecPolicy, Matrix, Rng64};
