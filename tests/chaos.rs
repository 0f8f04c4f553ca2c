//! Fault-injection ("chaos") tests for the fault-tolerant training runtime:
//! structured errors for unusable inputs, anomaly accounting for recoverable
//! faults, and the graceful-degradation guarantee that [`Scis::try_run`]
//! never hands back a non-finite cell.

use std::cell::Cell;

use scis_core::dim::{DimConfig, GenerativeLoss, LambdaMode};
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::sse::SseConfig;
use scis_core::{train_dim, GuardStats, ScisError, TrainPhase, TrainRun};
use scis_data::missing::inject_mcar;
use scis_data::Dataset;
use scis_imputers::{AdversarialImputer, GainImputer, Imputer, TrainConfig};
use scis_nn::Mlp;
use scis_tensor::{Matrix, Rng64};

fn correlated_table(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::seed_from_u64(seed);
    Matrix::from_fn(n, 4, |_, j| {
        let t = rng.uniform();
        match j {
            0 => t,
            1 => (0.8 * t + 0.1).clamp(0.0, 1.0),
            2 => (1.0 - t).clamp(0.0, 1.0),
            _ => (0.5 * t + 0.25).clamp(0.0, 1.0),
        }
    })
}

fn chaos_dataset(n: usize, miss: f64, seed: u64) -> Dataset {
    let complete = correlated_table(n, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xdead);
    inject_mcar(&complete, miss, &mut rng)
}

fn fast_config() -> ScisConfig {
    ScisConfig {
        dim: DimConfig {
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                learning_rate: 0.005,
                dropout: 0.0,
            },
            lambda: LambdaMode::Relative(0.1),
            max_sinkhorn_iters: 100,
            alpha: 10.0,
            critic: None,
            loss: GenerativeLoss::MaskedSinkhorn,
            ..Default::default()
        },
        sse: SseConfig {
            epsilon: 0.05,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// An adversarial imputer that NaN-poisons its generator on a schedule:
/// every `poison_every`-th batch, the generator's last parameter (an
/// output-layer bias) is set to NaN before the forward pass, simulating a
/// numerically diverged update. A NaN *input* would not do — the hidden
/// ReLU (`v.max(0.0)`) silently maps NaN to 0 — but a NaN bias reaches the
/// sigmoid output unfiltered, so the reconstruction turns non-finite.
///
/// The batch schedule is armed in `generator_input` (called exactly once
/// per batch) and applied in `generator_mut`; on unpoisoned batches the
/// saved bias is restored so transient faults really are transient.
struct PoisonedGain {
    inner: GainImputer,
    calls: Cell<usize>,
    poison_every: usize,
    armed: Cell<bool>,
    saved_bias: Cell<f64>,
}

impl PoisonedGain {
    fn new(train: TrainConfig, poison_every: usize) -> Self {
        Self {
            inner: GainImputer::new(train),
            calls: Cell::new(0),
            poison_every,
            armed: Cell::new(false),
            saved_bias: Cell::new(0.0),
        }
    }
}

impl Imputer for PoisonedGain {
    fn name(&self) -> &'static str {
        "poisoned-gain"
    }
    fn impute(&mut self, ds: &Dataset, rng: &mut Rng64) -> Matrix {
        self.inner.impute(ds, rng)
    }
}

impl AdversarialImputer for PoisonedGain {
    fn init_networks(&mut self, n_features: usize, rng: &mut Rng64) {
        self.inner.init_networks(n_features, rng);
    }
    fn is_initialized(&self, n_features: usize) -> bool {
        self.inner.is_initialized(n_features)
    }
    fn generator_mut(&mut self) -> &mut Mlp {
        let armed = self.armed.get();
        let gen = self.inner.generator_mut();
        let mut p = gen.param_vector();
        let last = p.len() - 1;
        if armed && p[last].is_finite() {
            self.saved_bias.set(p[last]);
            p[last] = f64::NAN;
            gen.set_param_vector(&p);
        } else if !armed && p[last].is_nan() {
            p[last] = self.saved_bias.get();
            gen.set_param_vector(&p);
        }
        self.inner.generator_mut()
    }
    fn reconstruct(&mut self, values: &Matrix, mask: &Matrix) -> Matrix {
        self.inner.reconstruct(values, mask)
    }
    fn generator_input(&self, values: &Matrix, mask: &Matrix, rng: &mut Rng64) -> Matrix {
        let k = self.calls.get();
        self.calls.set(k + 1);
        self.armed.set(k.is_multiple_of(self.poison_every));
        self.inner.generator_input(values, mask, rng)
    }
    fn train_native(&mut self, ds: &Dataset, rng: &mut Rng64) {
        self.inner.train_native(ds, rng);
    }
}

// ---------------------------------------------------------------------------
// structured errors: states with no useful output
// ---------------------------------------------------------------------------

#[test]
fn oversized_n0_is_a_structured_error() {
    let ds = chaos_dataset(40, 0.2, 1);
    let mut rng = Rng64::seed_from_u64(1);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let err = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 30, &mut rng)
        .unwrap_err();
    match &err {
        ScisError::OversizedInitialSample { requested, n_total } => {
            assert_eq!(*requested, 60);
            assert_eq!(*n_total, 40);
        }
        other => panic!("expected OversizedInitialSample, got {other}"),
    }
    // legacy panic-message contract
    assert!(err.to_string().contains("exceeds"), "message: {err}");
}

#[test]
fn zero_n0_and_zero_epochs_are_invalid_config() {
    let ds = chaos_dataset(40, 0.2, 2);
    let mut rng = Rng64::seed_from_u64(2);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let err = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 0, &mut rng)
        .unwrap_err();
    assert!(matches!(err, ScisError::InvalidConfig { .. }), "got {err}");

    let mut cfg = fast_config();
    cfg.dim.train.epochs = 0;
    let err = Scis::new(cfg)
        .try_run(&mut gain, &ds, 10, &mut rng)
        .unwrap_err();
    assert!(matches!(err, ScisError::InvalidConfig { .. }), "got {err}");
}

#[test]
fn non_finite_observed_cell_is_a_data_error() {
    // NaN marks "missing", but an observed Inf is corrupt data and must be
    // rejected before any training starts
    let mut values = correlated_table(40, 3);
    values[(7, 2)] = f64::INFINITY;
    let ds = Dataset::from_values(values);
    let mut rng = Rng64::seed_from_u64(3);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let err = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 10, &mut rng)
        .unwrap_err();
    match &err {
        ScisError::Data(e) => {
            let msg = e.to_string();
            assert!(msg.contains("(7, 2)"), "message: {msg}");
        }
        other => panic!("expected Data error, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// survivable pathologies: degraded or anomalous but finite output
// ---------------------------------------------------------------------------

#[test]
fn degenerate_columns_are_flagged_and_survivable() {
    let mut values = correlated_table(120, 4);
    let mut rng = Rng64::seed_from_u64(4);
    for i in 0..120 {
        values[(i, 2)] = f64::NAN; // column 2: never observed
        values[(i, 3)] = 0.5; // column 3: constant
        if rng.bernoulli(0.15) {
            values[(i, 0)] = f64::NAN;
        }
        if rng.bernoulli(0.15) {
            values[(i, 1)] = f64::NAN;
        }
    }
    let ds = Dataset::from_values(values);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let outcome = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 24, &mut rng)
        .unwrap();
    assert!(
        outcome.anomalies.all_missing_columns.contains(&2),
        "{:?}",
        outcome.anomalies
    );
    assert!(
        outcome.anomalies.constant_columns.contains(&3),
        "{:?}",
        outcome.anomalies
    );
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
    for (i, j, v) in ds.observed_cells() {
        assert_eq!(
            outcome.imputed[(i, j)],
            v,
            "observed cell modified at ({i},{j})"
        );
    }
}

#[test]
fn heavy_missingness_survives_with_finite_output() {
    let ds = chaos_dataset(160, 0.95, 5);
    let mut rng = Rng64::seed_from_u64(5);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let outcome = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 24, &mut rng)
        .unwrap();
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn extreme_magnitudes_survive_with_finite_output() {
    // unnormalized input at 1e6 scale — squared costs reach 1e12+
    let values = correlated_table(120, 6).map(|v| v * 1.0e6);
    let mut rng = Rng64::seed_from_u64(6);
    let ds = inject_mcar(&values, 0.2, &mut rng);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let outcome = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 24, &mut rng)
        .unwrap();
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
}

// ---------------------------------------------------------------------------
// injected faults: anomaly accounting and recovery rings
// ---------------------------------------------------------------------------

#[test]
fn transient_nan_batches_are_skipped_and_counted() {
    let ds = chaos_dataset(160, 0.2, 7);
    let cfg = fast_config();
    let mut rng = Rng64::seed_from_u64(7);
    // every 3rd generator input is NaN — each poisoned batch must be
    // dropped, counted, and training must still complete all epochs
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 3);
    let mut stats = GuardStats::default();
    let run = TrainRun::default();
    let report = train_dim(&mut poisoned, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect("transient poisoning must be survivable");
    assert_eq!(report.epoch_losses.len(), cfg.dim.train.epochs);
    assert!(stats.nan_batches_skipped > 0, "no skips counted: {stats:?}");
    assert!(report.final_loss().is_finite());
}

#[test]
fn total_poisoning_degrades_to_mean_fallback() {
    let ds = chaos_dataset(120, 0.2, 8);
    let cfg = fast_config();
    let mut rng = Rng64::seed_from_u64(8);
    // every batch is poisoned: all three recovery rings fail and try_run
    // must degrade to mean imputation rather than return NaN or panic
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 1);
    let outcome = Scis::new(cfg)
        .try_run(&mut poisoned, &ds, 24, &mut rng)
        .unwrap();
    assert!(outcome.anomalies.mean_fallback, "{:?}", outcome.anomalies);
    assert!(outcome.anomalies.is_degraded());
    assert!(!outcome.anomalies.is_clean());
    assert!(outcome.anomalies.nan_batches_skipped > 0);
    assert!(outcome.anomalies.rollbacks > 0);
    assert!(!outcome.anomalies.notes.is_empty());
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
    for (i, j, v) in ds.observed_cells() {
        assert_eq!(
            outcome.imputed[(i, j)],
            v,
            "observed cell modified at ({i},{j})"
        );
    }
    // no retrain happened — the outcome reports the skipped SSE honestly
    assert_eq!(outcome.n_star, 24);
}

#[test]
fn starved_sinkhorn_budget_triggers_escalation() {
    let ds = chaos_dataset(160, 0.2, 9);
    let mut cfg = fast_config();
    cfg.dim.max_sinkhorn_iters = 2; // far too few to converge at tol 1e-8
    let mut rng = Rng64::seed_from_u64(9);
    let mut gain = GainImputer::new(cfg.dim.train);
    let mut stats = GuardStats::default();
    let run = TrainRun::default();
    let report = train_dim(&mut gain, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect("starved sinkhorn must be survivable");
    assert!(
        stats.sinkhorn.escalations > 0,
        "no escalations recorded: {stats:?}"
    );
    assert!(report.final_loss().is_finite());
}

#[test]
fn rollback_invalidates_the_dual_cache() {
    use scis_core::AccelConfig;
    use scis_ot::DualCache;

    let ds = chaos_dataset(160, 0.2, 11);
    let mut cfg = fast_config();
    cfg.dim.accel = AccelConfig::default().warm_start(true);
    let mut rng = Rng64::seed_from_u64(11);
    // every batch poisoned: each epoch is rejected and rolled back, and
    // every rollback must drop the cached duals — they describe generator
    // states that no longer exist after the parameter rewind
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 1);
    let mut stats = GuardStats::default();
    let cache = DualCache::enabled();
    let run = TrainRun {
        cache: Some(&cache),
        ..TrainRun::default()
    };
    let result = train_dim(&mut poisoned, &ds, &cfg.dim, &run, &mut stats, &mut rng);
    assert!(result.is_err(), "total poisoning must exhaust the guard");
    assert!(stats.rollbacks > 0, "no rollbacks recorded: {stats:?}");
    let cs = cache.stats();
    assert!(
        cs.invalidations >= stats.rollbacks,
        "rollbacks {} but only {} cache invalidations",
        stats.rollbacks,
        cs.invalidations
    );
}

#[test]
fn accelerated_training_survives_transient_poisoning() {
    use scis_core::AccelConfig;
    use scis_ot::DualCache;

    let ds = chaos_dataset(160, 0.2, 12);
    let mut cfg = fast_config();
    cfg.dim.accel = AccelConfig::all();
    let mut rng = Rng64::seed_from_u64(12);
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 3);
    let mut stats = GuardStats::default();
    let cache = DualCache::enabled();
    let run = TrainRun {
        cache: Some(&cache),
        ..TrainRun::default()
    };
    let report = train_dim(&mut poisoned, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect("transient poisoning must be survivable with accel on");
    assert_eq!(report.epoch_losses.len(), cfg.dim.train.epochs);
    assert!(stats.nan_batches_skipped > 0, "no skips counted: {stats:?}");
    assert!(report.final_loss().is_finite());
}

#[test]
fn degraded_run_carries_flight_recorder_tail() {
    use scis_telemetry::{Event, Telemetry};

    let ds = chaos_dataset(120, 0.2, 8);
    let cfg = fast_config();
    let mut rng = Rng64::seed_from_u64(8);
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 1);
    let tel = Telemetry::collecting();
    let outcome = Scis::new(cfg)
        .telemetry(tel)
        .try_run(&mut poisoned, &ds, 24, &mut rng)
        .unwrap();
    assert!(outcome.anomalies.mean_fallback, "{:?}", outcome.anomalies);
    // the degraded outcome ships its own post-mortem: a non-empty event
    // tail ending in the Degraded marker, with the rollbacks that led there
    assert!(!outcome.flight_tail.is_empty(), "flight tail empty");
    let last = outcome.flight_tail.last().unwrap();
    assert!(
        matches!(last.event, Event::Degraded { reason } if reason == "mean_fallback"),
        "last event: {:?}",
        last
    );
    assert!(
        outcome
            .flight_tail
            .iter()
            .any(|r| matches!(r.event, Event::Rollback { .. })),
        "no rollback events in the tail"
    );
    // sequence numbers are monotonic, so truncation stays visible
    for pair in outcome.flight_tail.windows(2) {
        assert!(pair[1].seq > pair[0].seq);
    }
}

#[test]
fn training_error_carries_post_mortem_tail() {
    use scis_core::AccelConfig;
    use scis_ot::DualCache;
    use scis_telemetry::{Event, Telemetry};

    let ds = chaos_dataset(120, 0.2, 13);
    let mut cfg = fast_config();
    cfg.dim.accel = AccelConfig::default();
    let mut rng = Rng64::seed_from_u64(13);
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 1);
    let mut stats = GuardStats::default();
    let tel = Telemetry::collecting();
    let off = DualCache::off();
    let run = TrainRun {
        telemetry: tel,
        cache: Some(&off),
        ..TrainRun::default()
    };
    let err = train_dim(&mut poisoned, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect_err("total poisoning must exhaust the guard");
    assert!(!err.post_mortem.is_empty(), "post-mortem empty");
    assert!(
        err.post_mortem
            .iter()
            .any(|r| matches!(r.event, Event::Rollback { .. })),
        "no rollback events in the post-mortem"
    );
    // with telemetry off the error still surfaces, just without the tail
    let mut rng = Rng64::seed_from_u64(13);
    let mut poisoned = PoisonedGain::new(cfg.dim.train, 1);
    let mut stats = GuardStats::default();
    let run = TrainRun {
        telemetry: Telemetry::off(),
        cache: Some(&off),
        ..TrainRun::default()
    };
    let err = train_dim(&mut poisoned, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect_err("total poisoning must exhaust the guard");
    assert!(err.post_mortem.is_empty());
}

// ---------------------------------------------------------------------------
// crash-safe checkpointing, deadline watchdog, kill-and-resume determinism
// ---------------------------------------------------------------------------

/// A fresh per-test checkpoint directory under the system temp dir.
fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scis_chaos_{}_{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The resume determinism contract (DESIGN.md §14): interrupt training with
/// a deterministic deadline trip, resume a *fresh* process-equivalent run
/// from the emergency checkpoint, and the final imputations must be
/// bit-identical to an uninterrupted run — at any thread count.
#[test]
fn kill_and_resume_is_bit_identical() {
    use scis_core::{latest_checkpoint, CheckpointPolicy, TrainCheckpoint};
    use scis_tensor::{ExecPolicy, RunDeadline};

    for (pi, policy) in [ExecPolicy::Serial, ExecPolicy::threads(4)]
        .into_iter()
        .enumerate()
    {
        let ds = chaos_dataset(160, 0.2, 21);

        // uninterrupted baseline
        let mut rng = Rng64::seed_from_u64(21);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let baseline = Scis::new(fast_config().exec(policy))
            .try_run(&mut gain, &ds, 24, &mut rng)
            .unwrap();

        // interrupted run: the deadline trips mid-training, the trainer
        // stops at the last clean epoch boundary and writes an emergency
        // checkpoint
        let dir = ckpt_dir(&format!("resume_{}", pi));
        let mut rng = Rng64::seed_from_u64(21);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let interrupted = Scis::new(fast_config().exec(policy))
            .checkpoints(CheckpointPolicy::new(&dir))
            .deadline(RunDeadline::trip_after(40))
            .try_run(&mut gain, &ds, 24, &mut rng)
            .unwrap();
        assert!(
            interrupted.anomalies.deadline_exceeded,
            "deadline did not trip: {:?}",
            interrupted.anomalies
        );
        assert!(
            !interrupted.anomalies.is_degraded(),
            "deadline expiry must not count as degradation: {:?}",
            interrupted.anomalies
        );
        assert!(interrupted.imputed.as_slice().iter().all(|v| v.is_finite()));

        let path = latest_checkpoint(&dir).expect("no checkpoint on disk");
        let ckpt = TrainCheckpoint::load(&path).expect("checkpoint must load");
        assert_eq!(ckpt.phase, TrainPhase::Initial);
        assert!(
            ckpt.epoch < fast_config().dim.train.epochs,
            "trip landed after training finished (epoch {}); lower the budget",
            ckpt.epoch
        );

        // fresh run resumed from the checkpoint: replays deterministically
        // up to the checkpointed phase, fast-forwards, finishes the rest
        let mut rng = Rng64::seed_from_u64(21);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let resumed = Scis::new(fast_config().exec(policy))
            .resume_from(ckpt)
            .try_run(&mut gain, &ds, 24, &mut rng)
            .unwrap();

        assert_eq!(resumed.n_star, baseline.n_star, "n* diverged on resume");
        let b = baseline.imputed.as_slice();
        let r = resumed.imputed.as_slice();
        assert_eq!(b.len(), r.len());
        for (i, (x, y)) in b.iter().zip(r).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "imputation diverged at flat index {} ({:?}): {} vs {}",
                i,
                policy,
                x,
                y
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deadline expiry is a graceful finish, not a failure: finite output from
/// the best model so far, an emergency checkpoint on disk, and DeadlineHit/
/// Checkpoint markers in the flight-recorder tail.
#[test]
fn deadline_expiry_finishes_gracefully() {
    use scis_core::{latest_checkpoint, CheckpointPolicy};
    use scis_telemetry::{Event, Telemetry};
    use scis_tensor::RunDeadline;

    let ds = chaos_dataset(160, 0.2, 22);
    let dir = ckpt_dir("deadline");
    let tel = Telemetry::collecting();
    let mut rng = Rng64::seed_from_u64(22);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let outcome = Scis::new(fast_config())
        .checkpoints(CheckpointPolicy::new(&dir))
        .deadline(RunDeadline::trip_after(40))
        .telemetry(tel)
        .try_run(&mut gain, &ds, 24, &mut rng)
        .unwrap();
    assert!(
        outcome.anomalies.deadline_exceeded,
        "{:?}",
        outcome.anomalies
    );
    assert!(!outcome.anomalies.is_clean());
    assert!(
        !outcome.anomalies.is_degraded(),
        "deadline expiry is not degradation: {:?}",
        outcome.anomalies
    );
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
    assert!(
        outcome
            .anomalies
            .notes
            .iter()
            .any(|n| n.contains("deadline")),
        "no deadline note: {:?}",
        outcome.anomalies.notes
    );
    // SSE was skipped — training sample stays at n0
    assert_eq!(outcome.n_star, 24);
    // an emergency checkpoint is on disk and loads cleanly
    let path = latest_checkpoint(&dir).expect("no checkpoint on disk");
    assert!(scis_core::TrainCheckpoint::load(&path).is_ok());
    // the deadline-hit post-mortem rides in the flight tail
    assert!(
        outcome
            .flight_tail
            .iter()
            .any(|r| matches!(r.event, Event::DeadlineHit { .. })),
        "no DeadlineHit in the flight tail"
    );
    assert!(
        outcome.flight_tail.iter().any(|r| matches!(
            r.event,
            Event::Checkpoint {
                emergency: true,
                ..
            }
        )),
        "no emergency Checkpoint in the flight tail"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with a checkpoint that does not fit the model is a typed,
/// pre-training error — not a panic, not silent corruption.
#[test]
fn resume_mismatch_is_a_typed_error() {
    use scis_core::{latest_checkpoint, CheckpointPolicy, FailureReason, TrainCheckpoint};
    use scis_ot::DualCache;

    let ds = chaos_dataset(80, 0.2, 23);
    let cfg = fast_config();
    let dir = ckpt_dir("mismatch");
    let policy = CheckpointPolicy::new(&dir);

    // produce a legitimate checkpoint
    let mut rng = Rng64::seed_from_u64(23);
    let mut gain = GainImputer::new(cfg.dim.train);
    let mut stats = GuardStats::default();
    let off = DualCache::off();
    let run = TrainRun {
        cache: Some(&off),
        checkpoint: Some(&policy),
        ..TrainRun::default()
    };
    train_dim(&mut gain, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect("clean training must succeed");
    let path = latest_checkpoint(&dir).expect("no checkpoint written");
    let mut ckpt = TrainCheckpoint::load(&path).unwrap();

    // truncate the parameter vector — as if the checkpoint came from a
    // different architecture
    ckpt.gen_params.pop();
    let mut rng = Rng64::seed_from_u64(23);
    let mut gain = GainImputer::new(cfg.dim.train);
    let mut stats = GuardStats::default();
    let run = TrainRun {
        cache: Some(&off),
        resume: Some(&ckpt),
        ..TrainRun::default()
    };
    let err = train_dim(&mut gain, &ds, &cfg.dim, &run, &mut stats, &mut rng)
        .expect_err("mismatched checkpoint must be rejected");
    assert!(
        matches!(err.reason, FailureReason::ResumeMismatch { .. }),
        "wrong reason: {}",
        err.reason
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// degraded branches: in memory ≡ streamed at any shard size
// ---------------------------------------------------------------------------

/// A GAIN wrapper whose reconstruction comes back NaN in the missing cells
/// of about every `every`-th row: the rows whose generator-input bits hash
/// to a multiple of `every`. The choice depends on a row's content only, so
/// the same dataset rows are poisoned at any shard size.
struct NanRowsGain {
    inner: GainImputer,
    every: u64,
}

impl NanRowsGain {
    fn new(train: TrainConfig, every: u64) -> Self {
        Self {
            inner: GainImputer::new(train),
            every,
        }
    }

    fn poisons(&self, row: &[f64]) -> bool {
        let bytes: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
        scis_tensor::fnv1a64(&bytes).is_multiple_of(self.every)
    }
}

impl Imputer for NanRowsGain {
    fn name(&self) -> &'static str {
        "nan-rows-gain"
    }
    fn impute(&mut self, ds: &Dataset, rng: &mut Rng64) -> Matrix {
        self.inner.impute(ds, rng)
    }
}

impl AdversarialImputer for NanRowsGain {
    fn init_networks(&mut self, n_features: usize, rng: &mut Rng64) {
        self.inner.init_networks(n_features, rng);
    }
    fn is_initialized(&self, n_features: usize) -> bool {
        self.inner.is_initialized(n_features)
    }
    fn generator_mut(&mut self) -> &mut Mlp {
        self.inner.generator_mut()
    }
    fn reconstruct(&mut self, values: &Matrix, mask: &Matrix) -> Matrix {
        let mut out = self.inner.reconstruct(values, mask);
        for i in 0..out.rows() {
            if !self.poisons(values.row(i)) {
                continue;
            }
            for j in 0..out.cols() {
                if mask[(i, j)] == 0.0 {
                    out[(i, j)] = f64::NAN;
                }
            }
        }
        out
    }
    fn generator_input(&self, values: &Matrix, mask: &Matrix, rng: &mut Rng64) -> Matrix {
        self.inner.generator_input(values, mask, rng)
    }
    fn train_native(&mut self, ds: &Dataset, rng: &mut Rng64) {
        self.inner.train_native(ds, rng);
    }
}

/// Runs `try_run` on `ds`, then `try_run_streamed` over `ds` re-chunked to
/// 7 and to 50 rows, each with a fresh imputer and the same seed, and
/// checks that every run gives the same bits, the same anomaly record and
/// the same RNG state afterwards. Returns the in-memory outcome.
fn assert_degraded_run_ignores_sharding<A: AdversarialImputer>(
    cfg: ScisConfig,
    ds: &Dataset,
    n0: usize,
    seed: u64,
    mut make: impl FnMut() -> A,
) -> (scis_core::ScisOutcome, A) {
    use scis_data::{ChunkedDataset, MemorySink};

    let mut rng = Rng64::seed_from_u64(seed);
    let mut imp = make();
    let full = Scis::new(cfg)
        .try_run(&mut imp, ds, n0, &mut rng)
        .expect("in-memory run");
    let rng_after = rng.next_u64();
    for shard_rows in [7, 50] {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut streamed_imp = make();
        let mut sink = MemorySink::new();
        let streamed = Scis::new(cfg)
            .try_run_streamed(
                &mut streamed_imp,
                &ChunkedDataset::new(ds, shard_rows),
                n0,
                &mut rng,
                &mut sink,
            )
            .expect("streamed run");
        assert_eq!(
            streamed.anomalies, full.anomalies,
            "anomalies differ at {shard_rows}-row shards"
        );
        assert_eq!(streamed.n_star, full.n_star);
        assert_eq!(streamed.rows_written, ds.n_samples());
        let out = sink.into_matrix();
        assert_eq!(out.shape(), full.imputed.shape());
        for (k, (a, b)) in full
            .imputed
            .as_slice()
            .iter()
            .zip(out.as_slice())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "flat cell {k} differs at {shard_rows}-row shards: {a} vs {b}"
            );
        }
        assert_eq!(
            rng.next_u64(),
            rng_after,
            "rng state differs at {shard_rows}-row shards"
        );
    }
    (full, imp)
}

#[test]
fn mean_fallback_is_identical_across_shard_sizes() {
    let ds = chaos_dataset(120, 0.2, 8);
    let cfg = fast_config();
    let (outcome, _) = assert_degraded_run_ignores_sharding(cfg, &ds, 24, 8, || {
        PoisonedGain::new(cfg.dim.train, 1)
    });
    assert!(outcome.anomalies.mean_fallback, "{:?}", outcome.anomalies);
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn non_finite_patch_is_identical_across_shard_sizes() {
    let ds = chaos_dataset(120, 0.2, 14);
    let cfg = fast_config();
    let (outcome, imp) = assert_degraded_run_ignores_sharding(cfg, &ds, 24, 14, || {
        NanRowsGain::new(cfg.dim.train, 5)
    });
    let a = &outcome.anomalies;
    assert!(a.non_finite_cells_patched > 0, "{a:?}");
    assert!(a.is_degraded() && !a.mean_fallback, "{a:?}");
    // every poisoned missing cell holds its column's observed mean, and
    // those cells are exactly the ones counted as patched
    let inputs = ds.values_filled(0.0);
    let means: Vec<f64> = (0..ds.n_features())
        .map(|j| scis_tensor::stats::nan_mean(&ds.values.col(j)).unwrap())
        .collect();
    let mut patched = 0;
    for i in (0..ds.n_samples()).filter(|&i| imp.poisons(inputs.row(i))) {
        for (j, mean) in means.iter().enumerate() {
            if ds.mask.get(i, j) {
                continue;
            }
            patched += 1;
            assert_eq!(
                outcome.imputed[(i, j)].to_bits(),
                mean.to_bits(),
                "cell ({i},{j}) was not patched with its column mean"
            );
        }
    }
    assert_eq!(patched, a.non_finite_cells_patched);
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn clean_run_reports_no_anomalies() {
    let ds = chaos_dataset(120, 0.15, 10);
    let mut rng = Rng64::seed_from_u64(10);
    let mut gain = GainImputer::new(fast_config().dim.train);
    let outcome = Scis::new(fast_config())
        .try_run(&mut gain, &ds, 24, &mut rng)
        .unwrap();
    assert!(!outcome.anomalies.is_degraded(), "{:?}", outcome.anomalies);
    assert!(
        outcome.anomalies.notes.is_empty(),
        "{:?}",
        outcome.anomalies.notes
    );
    assert!(outcome.imputed.as_slice().iter().all(|v| v.is_finite()));
}
