#![warn(missing_docs)]

//! `scis-nn` — minimal neural-network substrate with manual backprop.
//!
//! The paper trains small fully connected networks (GAIN's generator and
//! discriminator are 2-layer MLPs; the autoencoder baselines use 1–2 hidden
//! layers). This crate implements exactly that surface: dense layers,
//! pointwise activations, inverted dropout, Adam/SGD, and the loss functions
//! the baselines need — all with hand-written, finite-difference-verified
//! backward passes ([`gradcheck`]).
//!
//! Parameters of a whole network can be flattened to a single `Vec<f64>` and
//! restored ([`Mlp::param_vector`] / [`Mlp::set_param_vector`]); the SSE
//! module of SCIS relies on this to sample perturbed generators from the
//! Theorem-1 posterior.

pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod serialize;

pub use layer::{Activation, Dense, Dropout, Layer, Mode};
pub use mlp::Mlp;
pub use optim::{clip_grad_norm, Adam, AdamState, Optimizer, RmsProp, Sgd, StepDecay};
pub use serialize::{
    load_mlp, mlp_from_str, mlp_to_string, save_mlp, write_atomic, MlpSpec, SpecLayer,
};
