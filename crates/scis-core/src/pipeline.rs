//! Algorithm 1 — the SCIS procedure end to end.
//!
//! ```text
//! 1: sample validation Xv (Nv) and initial X0 (n0)
//! 2: DIM-train the initial model M0 on X0
//! 3: SSE → minimum size n*
//! 4: if n* = n0 → M* = M0
//! 5: else DIM-retrain on a size-n* sample X*
//! 6-7: X̄ = M*(X); X̂ = M ⊙ X + (1−M) ⊙ X̄
//! ```

use crate::checkpoint::{CheckpointPolicy, TrainCheckpoint};
use crate::dim::{phase_cache, train_dim, AccelConfig, DimConfig, TrainRun};
use crate::error::{ScisError, TrainPhase, POST_MORTEM_TAIL};
use crate::guard::{GuardConfig, GuardStats};
use crate::heartbeat::{HeartbeatHook, Progress};
use crate::report::RunReport;
use crate::sse::{fisher_diagonal, model_distance, SseConfig, SseEstimator, SseResult};
use scis_data::shard::{observed_column_means, MemorySink, RowSource, ShardSink};
use scis_data::split::{sample_initial_split_source, sample_training_set_source};
use scis_data::validate::validate_source;
use scis_data::Dataset;
use scis_imputers::traits::impute_with_generator;
use scis_imputers::AdversarialImputer;
use scis_ot::SinkhornOptions;
use scis_telemetry::{Event, RecordedEvent, SpanKind, Telemetry};
use scis_tensor::{ExecPolicy, Matrix, Rng64, RunDeadline};
use std::time::{Duration, Instant};

/// Full SCIS configuration: DIM + SSE + fault-tolerance knobs.
///
/// Builds fluently from the defaults:
///
/// ```
/// use scis_core::pipeline::ScisConfig;
/// use scis_tensor::ExecPolicy;
///
/// let cfg = ScisConfig::default()
///     .exec(ExecPolicy::threads(8))
///     .lambda(130.0)
///     .epsilon(0.005);
/// assert_eq!(cfg.exec, ExecPolicy::threads(8));
/// assert_eq!(cfg.dim.exec, ExecPolicy::threads(8));
/// assert_eq!(cfg.sse.zeta_lambda, 130.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ScisConfig {
    /// DIM (MS-divergence training) settings.
    pub dim: DimConfig,
    /// SSE (sample-size estimation) settings.
    pub sse: SseConfig,
    /// Training-guard settings (rollback, LR backoff, Sinkhorn escalation).
    pub guard: GuardConfig,
    /// Execution policy for the whole pipeline. Kept in sync with
    /// [`DimConfig::exec`] and [`SseConfig::exec`] by [`ScisConfig::exec`];
    /// set the nested fields directly to give the phases different
    /// policies.
    pub exec: ExecPolicy,
}

impl ScisConfig {
    /// Fluent setter for [`ScisConfig::dim`].
    pub fn dim(mut self, dim: DimConfig) -> Self {
        self.dim = dim;
        self
    }

    /// Fluent setter for [`ScisConfig::sse`].
    pub fn sse(mut self, sse: SseConfig) -> Self {
        self.sse = sse;
        self
    }

    /// Fluent setter for [`ScisConfig::guard`].
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the execution policy for every phase of the pipeline (DIM
    /// training, Sinkhorn solves, and the SSE Monte-Carlo fan-out).
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self.dim.exec = exec;
        self.sse.exec = exec;
        self
    }

    /// Convenience for the paper's absolute λ: sets
    /// [`SseConfig::zeta_lambda`] (default 130).
    pub fn lambda(mut self, zeta_lambda: f64) -> Self {
        self.sse.zeta_lambda = zeta_lambda;
        self
    }

    /// Convenience for the user-tolerated error bound ε: sets
    /// [`SseConfig::epsilon`] (default 0.001).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.sse.epsilon = epsilon;
        self
    }

    /// Sets the hot-path acceleration flags ([`AccelConfig`]) for every
    /// training phase and the SSE Fisher probe. All flags default to off,
    /// which keeps the pipeline bit-identical to the unaccelerated
    /// historical path.
    pub fn accel(mut self, accel: AccelConfig) -> Self {
        self.dim.accel = accel;
        self
    }
}

/// Everything the fault-tolerant runtime caught and recovered from during
/// one run. A clean run has all counters zero, all lists empty, and both
/// flags false.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunAnomalies {
    /// Training batches dropped for non-finite values.
    pub nan_batches_skipped: usize,
    /// Epoch rollbacks to a parameter snapshot.
    pub rollbacks: usize,
    /// Learning-rate backoffs applied.
    pub lr_backoffs: usize,
    /// Sinkhorn solves that needed ε-scaling escalation.
    pub sinkhorn_escalations: usize,
    /// Sinkhorn solves left unconverged even after escalation.
    pub sinkhorn_unconverged: usize,
    /// Columns with zero observed cells (from `Dataset::validate`).
    pub all_missing_columns: Vec<usize>,
    /// Columns whose observed cells are constant.
    pub constant_columns: Vec<usize>,
    /// Initial DIM training failed terminally → the whole output fell back
    /// to mean imputation.
    pub mean_fallback: bool,
    /// SSE calibration sibling failed → raw (uncalibrated) SSE was used.
    pub calibration_skipped: bool,
    /// Retraining on `X*` failed → the initial model `M0` was kept.
    pub retrain_failed: bool,
    /// Non-finite imputed cells patched from the mean imputer at the end.
    pub non_finite_cells_patched: usize,
    /// The run deadline expired: later phases were skipped and the output
    /// comes from the best model trained before the cut. Not counted as
    /// *degraded* — the model is healthy, just trained for less long.
    pub deadline_exceeded: bool,
    /// Human-readable recovery notes, in order of occurrence.
    pub notes: Vec<String>,
}

impl RunAnomalies {
    /// True when the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.nan_batches_skipped == 0
            && self.rollbacks == 0
            && self.lr_backoffs == 0
            && self.sinkhorn_escalations == 0
            && self.sinkhorn_unconverged == 0
            && self.all_missing_columns.is_empty()
            && self.constant_columns.is_empty()
            && !self.mean_fallback
            && !self.calibration_skipped
            && !self.retrain_failed
            && self.non_finite_cells_patched == 0
            && !self.deadline_exceeded
    }

    /// Whether the output quality is degraded (not just recovered): the
    /// run fell back to mean imputation, kept `M0` after a failed retrain,
    /// or had to patch non-finite cells.
    pub fn is_degraded(&self) -> bool {
        self.mean_fallback || self.retrain_failed || self.non_finite_cells_patched > 0
    }

    /// Folds a guarded-training stats record into the counters.
    pub fn absorb_guard(&mut self, stats: &GuardStats) {
        self.nan_batches_skipped += stats.nan_batches_skipped;
        self.rollbacks += stats.rollbacks;
        self.lr_backoffs += stats.lr_backoffs;
        self.sinkhorn_escalations += stats.sinkhorn.escalations;
        self.sinkhorn_unconverged += stats.sinkhorn.unconverged;
    }
}

/// Everything Algorithm 1 returns, plus the accounting the paper's tables
/// need (training time split by phase, training sample rate `R_t`).
#[derive(Debug, Clone)]
pub struct ScisOutcome {
    /// The imputed matrix `X̂` over the *full* dataset.
    pub imputed: Matrix,
    /// The estimated minimum sample size `n*`.
    pub n_star: usize,
    /// Dataset size `N`.
    pub n_total: usize,
    /// The initial sample size `n0` used.
    pub n0: usize,
    /// SSE details.
    pub sse: SseResult,
    /// Wall-clock spent training `M0`.
    pub initial_train_time: Duration,
    /// Wall-clock spent in SSE.
    pub sse_time: Duration,
    /// Wall-clock spent retraining on `X*` (zero when `n* = n0`).
    pub retrain_time: Duration,
    /// Total wall-clock of the run.
    pub total_time: Duration,
    /// Everything the fault-tolerant runtime caught and recovered from.
    pub anomalies: RunAnomalies,
    /// Structured run report (sizes, phase timings, counter snapshot, SSE
    /// trace). Phase/counter sections are empty unless the run was started
    /// with [`Scis::telemetry`] set to a collecting handle.
    pub report: RunReport,
    /// The last [`POST_MORTEM_TAIL`] flight-recorder events, captured only
    /// when the run degraded ([`RunAnomalies::is_degraded`]) or the run
    /// deadline expired, and telemetry was collecting. Clean runs (and
    /// telemetry-off runs) leave it empty.
    pub flight_tail: Vec<RecordedEvent>,
}

impl ScisOutcome {
    /// `R_t = n*/N` — the paper's training sample rate.
    pub fn training_sample_rate(&self) -> f64 {
        self.n_star as f64 / self.n_total.max(1) as f64
    }

    /// Fraction of the total time spent inside SSE (reported in Figure 2).
    pub fn sse_time_fraction(&self) -> f64 {
        let t = self.total_time.as_secs_f64();
        if t > 0.0 {
            self.sse_time.as_secs_f64() / t
        } else {
            0.0
        }
    }
}

/// Everything Algorithm 1 returns when run over a sharded source — the
/// streamed sibling of [`ScisOutcome`]. The imputed matrix itself is never
/// held whole: output rows went to the run's [`ShardSink`] shard by shard,
/// and [`StreamOutcome::rows_written`] records how many.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Rows pushed to the sink (always the source's row count on success).
    pub rows_written: usize,
    /// The estimated minimum sample size `n*`.
    pub n_star: usize,
    /// Dataset size `N`.
    pub n_total: usize,
    /// The initial sample size `n0` used.
    pub n0: usize,
    /// SSE details.
    pub sse: SseResult,
    /// Wall-clock spent training `M0`.
    pub initial_train_time: Duration,
    /// Wall-clock spent in SSE.
    pub sse_time: Duration,
    /// Wall-clock spent retraining on `X*` (zero when `n* = n0`).
    pub retrain_time: Duration,
    /// Total wall-clock of the run.
    pub total_time: Duration,
    /// Everything the fault-tolerant runtime caught and recovered from.
    pub anomalies: RunAnomalies,
    /// Structured run report (see [`ScisOutcome::report`]).
    pub report: RunReport,
    /// Post-mortem flight-recorder tail (see [`ScisOutcome::flight_tail`]).
    pub flight_tail: Vec<RecordedEvent>,
}

impl StreamOutcome {
    /// `R_t = n*/N` — the paper's training sample rate.
    pub fn training_sample_rate(&self) -> f64 {
        self.n_star as f64 / self.n_total.max(1) as f64
    }
}

/// The SCIS system.
#[derive(Debug, Clone, Default)]
pub struct Scis {
    config: ScisConfig,
    telemetry: Telemetry,
    checkpoint: Option<CheckpointPolicy>,
    deadline: RunDeadline,
    resume: Option<TrainCheckpoint>,
    heartbeat: HeartbeatHook,
}

impl Scis {
    /// Creates a SCIS instance with the given configuration (telemetry
    /// disabled — recording costs nothing until a collector is attached).
    pub fn new(config: ScisConfig) -> Self {
        Self {
            config,
            telemetry: Telemetry::off(),
            checkpoint: None,
            deadline: RunDeadline::none(),
            resume: None,
            heartbeat: HeartbeatHook::off(),
        }
    }

    /// Enables crash-safe checkpointing: every training phase writes
    /// epoch-boundary checkpoints under `policy`, plus an emergency
    /// checkpoint on terminal training failure or deadline expiry
    /// (DESIGN.md §14).
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Attaches a run deadline. It is polled cooperatively (epoch, batch,
    /// Sinkhorn-sweep, and SSE-probe boundaries); on expiry the run skips
    /// the remaining phases, writes an emergency checkpoint (when
    /// [`Scis::checkpoints`] is active), and finishes gracefully with the
    /// best model so far, flagging [`RunAnomalies::deadline_exceeded`].
    pub fn deadline(mut self, deadline: RunDeadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Resumes a previous run from `ckpt`. The pipeline replays
    /// deterministically from the start (so the same seed must be used);
    /// phases before the checkpoint's recompute bit-exactly, and the
    /// checkpointed phase fast-forwards to the saved epoch. The final
    /// imputation is bit-identical to the uninterrupted run's.
    pub fn resume_from(mut self, ckpt: TrainCheckpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Attaches a heartbeat progress stream: every training phase and the
    /// final imputation pass emit JSONL progress records to the hook's
    /// writer (DESIGN.md §18). Pure observability — the hook only reads
    /// the wall clock to pace emission, so the run's imputed output is
    /// bit-identical with or without it.
    pub fn heartbeat(mut self, hook: HeartbeatHook) -> Self {
        self.heartbeat = hook;
        self
    }

    /// Attaches a telemetry collector: phase spans, solve/batch counters,
    /// and guard events of the next run are recorded on it, and the run's
    /// [`ScisOutcome::report`] carries the full snapshot. Recording never
    /// perturbs the imputation output or the RNG streams.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &ScisConfig {
        &self.config
    }

    /// Fault-tolerant Algorithm 1 on an in-memory dataset: validates inputs
    /// up front, trains every DIM phase under the [`crate::guard`] runtime,
    /// escalates non-converged Sinkhorn solves, and degrades gracefully
    /// instead of returning NaN:
    ///
    /// * terminal failure of the *initial* training falls back to mean
    ///   imputation (`anomalies.mean_fallback`);
    /// * a failed calibration sibling skips calibration
    ///   (`anomalies.calibration_skipped`);
    /// * a failed retrain keeps the initial model `M0`
    ///   (`anomalies.retrain_failed`);
    /// * any non-finite cell left in the final output is patched with its
    ///   column's observed mean (`anomalies.non_finite_cells_patched`).
    ///
    /// `Err` is reserved for states with no useful output at all: bad data,
    /// bad configuration, an oversized `n0`.
    ///
    /// This is [`Scis::try_run_streamed`] over `ds` as its own one-shard
    /// [`RowSource`], collected into a [`MemorySink`]. One shard is the
    /// whole matrix, so imputers whose reconstruction depends on other rows
    /// (GINN) see every row.
    pub fn try_run(
        &self,
        imp: &mut dyn AdversarialImputer,
        ds: &Dataset,
        n0: usize,
        rng: &mut Rng64,
    ) -> Result<ScisOutcome, ScisError> {
        let mut sink = MemorySink::new();
        let run = self.try_run_streamed(imp, ds, n0, rng, &mut sink)?;
        Ok(ScisOutcome {
            imputed: sink.into_matrix(),
            n_star: run.n_star,
            n_total: run.n_total,
            n0: run.n0,
            sse: run.sse,
            initial_train_time: run.initial_train_time,
            sse_time: run.sse_time,
            retrain_time: run.retrain_time,
            total_time: run.total_time,
            anomalies: run.anomalies,
            report: run.report,
            flight_tail: run.flight_tail,
        })
    }

    /// Algorithm 1 over a sharded [`RowSource`], never holding more than one
    /// shard of the full dataset (plus the size-`n0`/`n*` training sets) in
    /// memory at a time. This is the only body of Algorithm 1:
    /// [`Scis::try_run`] calls it with the in-memory dataset as a one-shard
    /// source, so there is one sequence of RNG draws whatever the shard size.
    ///
    /// Phase by phase:
    /// * validation runs as a one-pass shard fold ([`validate_source`]);
    /// * the validation/initial split and every later training-set draw
    ///   sample row ids from `rng`, then gather the rows shard by shard;
    /// * DIM training, calibration, SSE, and retraining operate on those
    ///   gathered in-memory sets;
    /// * the final imputation is a shard-wise pass writing finished rows to
    ///   `sink` incrementally; non-finite cells are patched with the
    ///   streamed observed column means.
    ///
    /// The rows pushed to `sink` are bit-identical at every shard size
    /// whenever the imputer's reconstruction is row-independent (true for
    /// GAIN; verified by the shard-stream integration tests at every thread
    /// count). The source must keep the dataset invariant that missing
    /// cells hold NaN.
    pub fn try_run_streamed(
        &self,
        imp: &mut dyn AdversarialImputer,
        src: &dyn RowSource,
        n0: usize,
        rng: &mut Rng64,
        sink: &mut dyn ShardSink,
    ) -> Result<StreamOutcome, ScisError> {
        let t_start = Instant::now();
        let tel = self.telemetry.clone();
        // forward the collector into the model so forward/backward passes
        // are counted (no-op for an `off` handle)
        imp.set_telemetry(tel.clone());
        let n_total = src.n_rows();
        let n_v = n0; // paper §VI: Nv = n0
        let span_validate = tel.span(SpanKind::Validate);
        let data_report = validate_source(src)?;
        if n_v + n0 > n_total {
            return Err(ScisError::OversizedInitialSample {
                requested: n_v + n0,
                n_total,
            });
        }
        if n0 == 0 {
            return Err(ScisError::InvalidConfig {
                message: "initial sample size n0 must be at least 1".into(),
            });
        }
        if self.config.dim.train.epochs == 0 {
            return Err(ScisError::InvalidConfig {
                message: "dim.train.epochs must be at least 1".into(),
            });
        }
        let mut anomalies = RunAnomalies {
            all_missing_columns: data_report.all_missing_columns,
            constant_columns: data_report.constant_columns,
            ..Default::default()
        };
        let guard = &self.config.guard;
        // one run context per phase: the phase tag and, for the initial
        // phase, the shared dual cache differ; the rest is the run's
        let run = |phase, cache| TrainRun {
            guard: *guard,
            phase,
            telemetry: tel.clone(),
            cache,
            checkpoint: self.checkpoint.as_ref(),
            resume: self.resume.as_ref(),
            deadline: self.deadline.clone(),
            heartbeat: self.heartbeat.clone(),
        };
        let accel = self.config.dim.accel;

        // line 1: sample validation + initial sets (row ids drawn from rng,
        // rows gathered shard by shard)
        let split = sample_initial_split_source(src, n_v, n0, rng)?;
        drop(span_validate);

        // line 2: DIM-train M0 on X0. The init seed is remembered so the
        // calibration sibling (below) starts from *identical* weights —
        // Theorem 1 models sampling noise around one optimum, not
        // re-initialization noise.
        let init_seed = rng.next_u64();
        let t0 = Instant::now();
        let span_initial = tel.span(SpanKind::TrainInitial);
        imp.init_networks(src.n_cols(), &mut Rng64::seed_from_u64(init_seed));
        let mut guard_stats = GuardStats::default();
        // The initial-phase cache is reused read-only by the SSE Fisher
        // probe, which iterates the same X0 rows (see `phase_cache`).
        let initial_cache = phase_cache(accel);
        let initial = train_dim(
            imp,
            &split.initial,
            &self.config.dim,
            &run(TrainPhase::Initial, Some(&initial_cache)),
            &mut guard_stats,
            rng,
        );
        drop(span_initial);
        let initial_train_time = t0.elapsed();
        anomalies.absorb_guard(&guard_stats);
        if let Err(e) = initial {
            // graceful degradation: the adversarial model is unusable, but
            // filling missing cells from the one-pass column means always
            // produces a finite answer
            anomalies.mean_fallback = true;
            anomalies
                .notes
                .push(format!("initial {e}; fell back to mean imputation"));
            tel.record_event(Event::Degraded {
                reason: "mean_fallback",
            });
            let means = observed_column_means(src)?;
            let mut rows_written = 0usize;
            for k in 0..src.n_shards() {
                let mut block = src.load_shard(k)?.values;
                patch_non_finite(&mut block, &means);
                rows_written += block.rows();
                sink.push_rows(&block)?;
            }
            let sse = SseResult::skipped(n0);
            let times = [initial_train_time, Duration::ZERO, Duration::ZERO];
            return Ok(finish(
                &tel,
                t_start,
                rows_written,
                n_total,
                n0,
                sse,
                times,
                anomalies,
            ));
        }

        // line 3: SSE — operates on n0, N, the validation set, and the
        // initial set only; none of them require the full matrix. Skipped
        // entirely when the deadline already expired during initial
        // training: n* falls back to n0 and the run finishes with M0.
        let t1 = Instant::now();
        let (sse, sse_time) = if self.deadline.expired() {
            (SseResult::skipped(n0), Duration::ZERO)
        } else {
            let span_sse = tel.span(SpanKind::Sse);
            let sinkhorn = SinkhornOptions {
                lambda: estimate_sse_lambda(&self.config.dim, &split.initial, imp, rng),
                max_iters: self.config.dim.max_sinkhorn_iters,
                tol: 1e-8,
                exec: self.config.dim.exec,
                deadline: self.deadline.clone(),
                precision: accel.precision(),
            };
            let batch = self.config.dim.train.batch_size;
            // read-only reuse of the initial-phase duals: warm-starting the
            // probe's solves from the converged training potentials saves
            // iterations without writing probe-state duals back
            let fisher = fisher_diagonal(
                imp,
                &split.initial,
                &sinkhorn,
                batch,
                &guard.sinkhorn_escalation,
                &tel,
                &initial_cache,
                accel,
                rng,
            );
            let mut estimator = SseEstimator::new(
                imp,
                &fisher,
                n0,
                n_total,
                src.n_cols(),
                self.config.sse,
                rng,
            );
            estimator.set_telemetry(tel.clone());
            estimator.set_deadline(self.deadline.clone());
            if self.config.sse.calibrate && !self.deadline.expired() {
                let _span_cal = tel.span(SpanKind::Calibration);
                // anchor Theorem 1's hidden constant: train a sibling model on a
                // second size-n0 sample and match the Monte-Carlo prediction to
                // the *observed* model-to-model difference (module docs of
                // `sse`). θ0 is restored afterwards.
                let theta0 = imp.generator_mut().param_vector();
                let sibling_set = sample_training_set_source(src, n0, rng)?;
                imp.init_networks(src.n_cols(), &mut Rng64::seed_from_u64(init_seed));
                let mut sibling_stats = GuardStats::default();
                let sibling = train_dim(
                    imp,
                    &sibling_set,
                    &self.config.dim,
                    &run(TrainPhase::Calibration, None),
                    &mut sibling_stats,
                    rng,
                );
                anomalies.absorb_guard(&sibling_stats);
                match sibling {
                    Ok(_) => {
                        let theta_sibling = imp.generator_mut().param_vector();
                        imp.generator_mut().set_param_vector(&theta0);
                        let d_obs = model_distance(imp, &split.validation, &theta0, &theta_sibling);
                        let d_ref = estimator.reference_mc_distance(imp, &split.validation);
                        if d_obs > 1e-12 && d_ref > 1e-12 {
                            estimator.set_calibration(d_obs / d_ref);
                        }
                    }
                    Err(e) => {
                        // SSE still works uncalibrated (Theorem 1's raw
                        // constant); restore θ0 and carry on
                        imp.generator_mut().set_param_vector(&theta0);
                        anomalies.calibration_skipped = true;
                        anomalies
                            .notes
                            .push(format!("calibration {e}; using uncalibrated SSE"));
                        tel.record_event(Event::Degraded {
                            reason: "calibration_skipped",
                        });
                    }
                }
            }
            let sse = estimator.estimate(imp, &split.validation);
            drop(span_sse);
            (sse, t1.elapsed())
        };

        // lines 4-5: retrain on X* when n* > n0 (warm start from θ0); X* is
        // gathered shard by shard, so n* rows is the peak training set.
        // Skipped when the deadline has expired — M0 is the best we have.
        let retrain_time = if sse.n_star > n0 && !self.deadline.expired() {
            let t2 = Instant::now();
            let _span_retrain = tel.span(SpanKind::Retrain);
            let x_star = sample_training_set_source(src, sse.n_star, rng)?;
            let mut retrain_stats = GuardStats::default();
            let retrain = train_dim(
                imp,
                &x_star,
                &self.config.dim,
                &run(TrainPhase::Retrain, None),
                &mut retrain_stats,
                rng,
            );
            anomalies.absorb_guard(&retrain_stats);
            if let Err(e) = retrain {
                // the guarded trainer already restored its best snapshot
                // (at worst the warm-start θ0 = M0) — keep it
                anomalies.retrain_failed = true;
                anomalies
                    .notes
                    .push(format!("retrain {e}; keeping the initial model M0"));
                tel.record_event(Event::Degraded {
                    reason: "retrain_failed",
                });
            }
            t2.elapsed()
        } else {
            Duration::ZERO
        };

        // lines 6-7: impute shard by shard, pushing finished rows to the
        // sink. `impute_with_generator` never consumes rng, and a
        // row-independent reconstruction makes per-shard output bit-equal
        // to the whole-matrix pass. Column means for the non-finite patch
        // (the last ring of defense: never hand back NaN) are computed
        // lazily, so clean runs never pay the extra pass. Observed cells are
        // untouched: they were validated finite and pass through the Eq.-1
        // merge.
        let span_impute = tel.span(SpanKind::Impute);
        let mut bad_cells = 0usize;
        let mut means: Option<Vec<f64>> = None;
        let mut rows_written = 0usize;
        for k in 0..src.n_shards() {
            let shard = src.load_shard(k)?;
            let mut block = impute_with_generator(imp, &shard, rng);
            if block.as_slice().iter().any(|v| !v.is_finite()) {
                if means.is_none() {
                    means = Some(observed_column_means(src)?);
                }
                let fills = means.as_deref().expect("column means computed above");
                bad_cells += patch_non_finite(&mut block, fills);
            }
            rows_written += block.rows();
            sink.push_rows(&block)?;
            // one heartbeat per imputed shard: the pipeline's natural unit
            // of forward progress
            self.heartbeat.poll(&Progress {
                phase: "impute",
                epoch: 0,
                epochs: 0,
                shard: (k + 1) as u64,
                shards: src.n_shards() as u64,
                rows_done: rows_written as u64,
                rows_total: n_total as u64,
                rollbacks: anomalies.rollbacks as u64,
                warm_hit_rate: 0.0,
            });
        }
        if bad_cells > 0 {
            anomalies.non_finite_cells_patched = bad_cells;
            anomalies.notes.push(format!(
                "patched {bad_cells} non-finite imputed cells from the mean imputer"
            ));
            tel.record_event(Event::Degraded {
                reason: "non_finite_cells_patched",
            });
        }
        drop(span_impute);

        if self.deadline.is_some() && self.deadline.expired() {
            anomalies.deadline_exceeded = true;
            anomalies
                .notes
                .push("run deadline expired; finished with the best model so far".into());
            // the trainer records DeadlineHit when it observes the expiry;
            // this covers a deadline that tripped between phases (the latch
            // guarantees exactly one event per run)
            if self.deadline.newly_expired() {
                tel.record_event(Event::DeadlineHit {
                    phase: "pipeline",
                    epoch: 0,
                });
            }
        }
        let times = [initial_train_time, sse_time, retrain_time];
        Ok(finish(
            &tel,
            t_start,
            rows_written,
            n_total,
            n0,
            sse,
            times,
            anomalies,
        ))
    }
}

/// Replaces every non-finite cell of `block` with its column's entry of
/// `fills`; returns how many cells it replaced.
fn patch_non_finite(block: &mut Matrix, fills: &[f64]) -> usize {
    let cols = block.cols();
    let mut patched = 0;
    for (k, v) in block.as_mut_slice().iter_mut().enumerate() {
        if !v.is_finite() {
            *v = fills[k % cols];
            patched += 1;
        }
    }
    patched
}

/// Closes a run: the post-mortem flight tail (degraded or deadline runs
/// only), the run report, and the outcome record. `times` holds the
/// initial-training, SSE and retraining wall-clock, in that order.
#[allow(clippy::too_many_arguments)]
fn finish(
    tel: &Telemetry,
    t_start: Instant,
    rows_written: usize,
    n_total: usize,
    n0: usize,
    sse: SseResult,
    times: [Duration; 3],
    anomalies: RunAnomalies,
) -> StreamOutcome {
    let [initial_train_time, sse_time, retrain_time] = times;
    let total_time = t_start.elapsed();
    let flight_tail = if anomalies.is_degraded() || anomalies.deadline_exceeded {
        tel.event_tail(POST_MORTEM_TAIL)
    } else {
        Vec::new()
    };
    let report = RunReport::assemble(
        &tel.snapshot(),
        n_total,
        n0,
        sse.n_star,
        total_time.as_secs_f64(),
        sse.trace.clone(),
        &anomalies,
    );
    StreamOutcome {
        rows_written,
        n_star: sse.n_star,
        n_total,
        n0,
        sse,
        initial_train_time,
        sse_time,
        retrain_time,
        total_time,
        anomalies,
        report,
        flight_tail,
    }
}

/// Resolves the DIM λ on a representative batch so SSE's Fisher pass uses
/// the same regularization scale the training saw.
fn estimate_sse_lambda(
    dim: &DimConfig,
    initial: &Dataset,
    imp: &mut dyn AdversarialImputer,
    rng: &mut Rng64,
) -> f64 {
    let n = initial.n_samples();
    let bs = dim.train.batch_size.min(n).max(2);
    // a *random* batch, not rows 0..bs — the initial set is sampled but
    // callers may pass datasets with ordered structure (sorted CSVs), and
    // a prefix batch would bias the λ scale
    let idx = rng.sample_indices(n, bs.min(n));
    let xb = initial.values_filled(0.0).select_rows(&idx);
    let mb = initial.dense_mask().select_rows(&idx);
    let g_in = imp.generator_input(&xb, &mb, rng);
    let generator = imp.generator_mut();
    let xbar = generator.forward(&g_in, scis_nn::Mode::Eval, rng);
    let cost = scis_ot::masked_sq_cost_with(&xbar, &mb, &xb, &mb, dim.exec);
    dim.resolve_lambda(&cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{GenerativeLoss, LambdaMode};
    use scis_data::metrics::rmse_vs_ground_truth;
    use scis_data::missing::inject_mcar;
    use scis_imputers::{GainImputer, Imputer, TrainConfig};

    fn correlated_table(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, 4);
        for i in 0..n {
            let t = rng.uniform();
            m[(i, 0)] = t;
            m[(i, 1)] = (0.8 * t + 0.1 + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
            m[(i, 2)] = (1.0 - t + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
            m[(i, 3)] = (0.5 * t + 0.25 + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
        }
        m
    }

    fn fast_config() -> ScisConfig {
        ScisConfig {
            dim: DimConfig {
                train: TrainConfig {
                    epochs: 25,
                    batch_size: 64,
                    learning_rate: 0.005,
                    dropout: 0.0,
                },
                lambda: LambdaMode::Relative(0.1),
                max_sinkhorn_iters: 150,
                alpha: 10.0,
                critic: None,
                loss: GenerativeLoss::MaskedSinkhorn,
                ..Default::default()
            },
            sse: SseConfig {
                epsilon: 0.02,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn algorithm1_end_to_end_produces_valid_imputation() {
        let complete = correlated_table(600, 1);
        let mut rng = Rng64::seed_from_u64(2);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let outcome = Scis::new(fast_config())
            .try_run(&mut gain, &ds, 100, &mut rng)
            .expect("pipeline run");

        assert_eq!(outcome.imputed.shape(), (600, 4));
        assert!(!outcome.imputed.has_nan());
        // observed cells pass through exactly
        for (i, j, v) in ds.observed_cells() {
            assert_eq!(outcome.imputed[(i, j)], v);
        }
        assert!((100..=600).contains(&outcome.n_star));
        assert!(outcome.training_sample_rate() <= 1.0);
        assert!(outcome.total_time >= outcome.sse_time);
    }

    #[test]
    fn scis_gain_beats_mean_imputation() {
        let complete = correlated_table(600, 3);
        let mut rng = Rng64::seed_from_u64(4);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let outcome = Scis::new(fast_config())
            .try_run(&mut gain, &ds, 100, &mut rng)
            .expect("pipeline run");
        let e = rmse_vs_ground_truth(&ds, &complete, &outcome.imputed);
        let mut mean = scis_imputers::mean::MeanImputer;
        let e_mean = rmse_vs_ground_truth(&ds, &complete, &mean.impute(&ds, &mut rng));
        assert!(e < e_mean, "scis-gain {} vs mean {}", e, e_mean);
    }

    #[test]
    fn loose_epsilon_keeps_n0_and_skips_retraining() {
        let complete = correlated_table(500, 5);
        let mut rng = Rng64::seed_from_u64(6);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_config();
        cfg.sse.epsilon = 100.0;
        let mut gain = GainImputer::new(cfg.dim.train);
        let outcome = Scis::new(cfg)
            .try_run(&mut gain, &ds, 80, &mut rng)
            .expect("pipeline run");
        assert_eq!(outcome.n_star, 80);
        assert_eq!(outcome.retrain_time, Duration::ZERO);
    }

    #[test]
    fn sse_time_fraction_is_sane() {
        let complete = correlated_table(400, 7);
        let mut rng = Rng64::seed_from_u64(8);
        let ds = inject_mcar(&complete, 0.2, &mut rng);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let outcome = Scis::new(fast_config())
            .try_run(&mut gain, &ds, 80, &mut rng)
            .expect("pipeline run");
        let f = outcome.sse_time_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {}", f);
    }

    #[test]
    fn rejects_oversized_n0() {
        let complete = correlated_table(100, 9);
        let mut rng = Rng64::seed_from_u64(10);
        let ds = inject_mcar(&complete, 0.2, &mut rng);
        let mut gain = GainImputer::new(fast_config().dim.train);
        let err = Scis::new(fast_config())
            .try_run(&mut gain, &ds, 80, &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("exceeds N"), "{}", err);
    }
}
