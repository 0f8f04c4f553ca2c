//! Numeric guards for DIM training: checkpoint/rollback with learning-rate
//! backoff.
//!
//! Adversarial imputation training can destabilize — a bad batch drives the
//! generator into a region where the Sinkhorn cost matrix overflows, losses
//! go NaN, and every later epoch trains on garbage. The guarded trainer
//! ([`crate::dim::train_dim`]) defends in three rings:
//!
//! 1. **Batch ring** — a batch whose reconstruction, loss, or gradient is
//!    non-finite is *skipped* (counted in
//!    [`GuardStats::nan_batches_skipped`]), not applied.
//! 2. **Epoch ring** — an epoch whose gradient norm exceeds
//!    [`GuardConfig::max_grad_norm`], whose mean loss is non-finite, or
//!    whose batches were all skipped triggers a **rollback**: the generator
//!    is restored to the best (lowest finite-loss) snapshot and the
//!    learning rate is multiplied by [`GuardConfig::lr_backoff`].
//! 3. **Run ring** — after [`GuardConfig::max_retries`] rollbacks (or once
//!    the learning rate would fall below [`GuardConfig::min_lr`]) the run
//!    surfaces a structured [`crate::error::TrainingError`], leaving the
//!    generator on its best snapshot so callers can degrade gracefully.
//!
//! Sinkhorn non-convergence is escalated separately through
//! [`EscalationPolicy`] (more annealing stages + a larger iteration budget)
//! and accounted in [`GuardStats::sinkhorn`].

use scis_ot::{EscalationPolicy, SolveStats};

/// Knobs of the training guard. `Copy` so it can live inside
/// [`crate::pipeline::ScisConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Rollback + LR-backoff attempts before surfacing a
    /// [`crate::error::TrainingError`].
    pub max_retries: usize,
    /// Learning-rate multiplier applied at each rollback.
    pub lr_backoff: f64,
    /// Give up once a backoff would push the learning rate below this.
    pub min_lr: f64,
    /// Generator gradient-norm ceiling; beyond it the epoch is declared
    /// exploded. Generous by design — it catches overflow spirals, not
    /// ordinary large steps.
    pub max_grad_norm: f64,
    /// Retry policy for non-converged Sinkhorn solves inside the loss.
    pub sinkhorn_escalation: EscalationPolicy,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            lr_backoff: 0.5,
            min_lr: 1e-7,
            max_grad_norm: 1e8,
            sinkhorn_escalation: EscalationPolicy::default(),
        }
    }
}

impl GuardConfig {
    /// Fluent setter for [`GuardConfig::max_retries`].
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Fluent setter for [`GuardConfig::lr_backoff`].
    pub fn lr_backoff(mut self, lr_backoff: f64) -> Self {
        self.lr_backoff = lr_backoff;
        self
    }

    /// Fluent setter for [`GuardConfig::min_lr`].
    pub fn min_lr(mut self, min_lr: f64) -> Self {
        self.min_lr = min_lr;
        self
    }

    /// Fluent setter for [`GuardConfig::max_grad_norm`].
    pub fn max_grad_norm(mut self, max_grad_norm: f64) -> Self {
        self.max_grad_norm = max_grad_norm;
        self
    }

    /// Fluent setter for [`GuardConfig::sinkhorn_escalation`].
    pub fn sinkhorn_escalation(mut self, policy: EscalationPolicy) -> Self {
        self.sinkhorn_escalation = policy;
        self
    }
}

/// Recovery accounting of one guarded training run, merged upward into the
/// pipeline's [`crate::pipeline::RunAnomalies`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Batches skipped because reconstruction, loss, or gradient was
    /// non-finite (or the Sinkhorn solve rejected its inputs).
    pub nan_batches_skipped: usize,
    /// Epoch rollbacks to the best parameter snapshot.
    pub rollbacks: usize,
    /// Learning-rate backoffs applied (one per rollback that retried).
    pub lr_backoffs: usize,
    /// Sinkhorn escalation accounting across all solves.
    pub sinkhorn: SolveStats,
}

impl GuardStats {
    /// Accumulates another stats record into this one.
    pub fn absorb(&mut self, other: GuardStats) {
        self.nan_batches_skipped += other.nan_batches_skipped;
        self.rollbacks += other.rollbacks;
        self.lr_backoffs += other.lr_backoffs;
        self.sinkhorn.absorb(other.sinkhorn);
    }

    /// True when no recovery machinery fired. The always-on solve counters
    /// inside [`GuardStats::sinkhorn`] (`solves`/`iterations`/`converged`)
    /// are telemetry, not anomalies, and do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.nan_batches_skipped == 0
            && self.rollbacks == 0
            && self.lr_backoffs == 0
            && self.sinkhorn.is_clean()
    }
}

/// The epoch-level checkpoint: best (lowest finite-loss) generator
/// parameters seen so far, starting from the entry parameters.
#[derive(Debug, Clone)]
pub struct TrainingGuard {
    cfg: GuardConfig,
    best_params: Vec<f64>,
    best_loss: f64,
    lr: f64,
    retries: usize,
}

/// What the guard decided about a finished (or aborted) epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardVerdict {
    /// Epoch accepted; training continues.
    Accept,
    /// Epoch rejected; the caller must restore [`TrainingGuard::best_params`]
    /// and rebuild its optimizer at the new [`TrainingGuard::lr`].
    Rollback,
    /// Retry budget exhausted; the caller must restore the best snapshot
    /// and surface a [`crate::error::TrainingError`].
    GiveUp,
}

impl TrainingGuard {
    /// Starts a guard at the entry parameters and learning rate.
    pub fn new(cfg: GuardConfig, entry_params: Vec<f64>, lr: f64) -> Self {
        Self {
            cfg,
            best_params: entry_params,
            best_loss: f64::INFINITY,
            lr,
            retries: 0,
        }
    }

    /// Rebuilds a guard from checkpointed state (resume path). The fields
    /// mirror the accessors; a restored guard behaves exactly as if it had
    /// reached this state through `accept_epoch`/`reject_epoch`.
    pub fn restore(
        cfg: GuardConfig,
        best_params: Vec<f64>,
        best_loss: f64,
        lr: f64,
        retries: usize,
    ) -> Self {
        Self {
            cfg,
            best_params,
            best_loss,
            lr,
            retries,
        }
    }

    /// The best snapshot to restore on rollback.
    pub fn best_params(&self) -> &[f64] {
        &self.best_params
    }

    /// The loss of the best snapshot (`+inf` until an epoch is accepted).
    pub fn best_loss(&self) -> f64 {
        self.best_loss
    }

    /// The current (possibly backed-off) learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Recovery attempts consumed so far.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Records a *successful* epoch: snapshots the parameters when the loss
    /// is the best seen.
    pub fn accept_epoch(&mut self, loss: f64, params: &[f64]) {
        if loss.is_finite() && loss <= self.best_loss {
            self.best_loss = loss;
            self.best_params.clear();
            self.best_params.extend_from_slice(params);
        }
    }

    /// Records a *failed* epoch: decides between another rollback (backing
    /// off the learning rate) and giving up.
    pub fn reject_epoch(&mut self) -> GuardVerdict {
        self.retries += 1;
        let next_lr = self.lr * self.cfg.lr_backoff;
        if self.retries > self.cfg.max_retries || next_lr < self.cfg.min_lr {
            return GuardVerdict::GiveUp;
        }
        self.lr = next_lr;
        GuardVerdict::Rollback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_keeps_best_by_loss() {
        let mut g = TrainingGuard::new(GuardConfig::default(), vec![0.0; 3], 0.01);
        g.accept_epoch(1.0, &[1.0, 1.0, 1.0]);
        g.accept_epoch(0.5, &[2.0, 2.0, 2.0]);
        g.accept_epoch(0.9, &[3.0, 3.0, 3.0]); // worse — not snapshotted
        assert_eq!(g.best_params(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn non_finite_loss_never_becomes_best() {
        let mut g = TrainingGuard::new(GuardConfig::default(), vec![7.0], 0.01);
        g.accept_epoch(f64::NAN, &[9.0]);
        assert_eq!(g.best_params(), &[7.0]);
    }

    #[test]
    fn rollback_backs_off_lr_until_budget_exhausted() {
        let cfg = GuardConfig {
            max_retries: 2,
            lr_backoff: 0.5,
            ..Default::default()
        };
        let mut g = TrainingGuard::new(cfg, vec![], 0.01);
        assert_eq!(g.reject_epoch(), GuardVerdict::Rollback);
        assert!((g.lr() - 0.005).abs() < 1e-15);
        assert_eq!(g.reject_epoch(), GuardVerdict::Rollback);
        assert!((g.lr() - 0.0025).abs() < 1e-15);
        assert_eq!(g.reject_epoch(), GuardVerdict::GiveUp);
    }

    #[test]
    fn min_lr_floor_forces_give_up() {
        let cfg = GuardConfig {
            max_retries: 100,
            min_lr: 1e-3,
            ..Default::default()
        };
        let mut g = TrainingGuard::new(cfg, vec![], 1.5e-3);
        // 1.5e-3 * 0.5 < 1e-3 → immediate give-up
        assert_eq!(g.reject_epoch(), GuardVerdict::GiveUp);
    }

    #[test]
    fn stats_absorb_adds_counters() {
        let mut a = GuardStats {
            nan_batches_skipped: 1,
            rollbacks: 2,
            ..Default::default()
        };
        let b = GuardStats {
            nan_batches_skipped: 3,
            lr_backoffs: 1,
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.nan_batches_skipped, 4);
        assert_eq!(a.rollbacks, 2);
        assert_eq!(a.lr_backoffs, 1);
        assert!(!a.is_clean());
        assert!(GuardStats::default().is_clean());
    }

    #[test]
    fn healthy_solve_counters_do_not_taint_cleanliness() {
        let healthy = GuardStats {
            sinkhorn: SolveStats {
                solves: 120,
                iterations: 4800,
                converged: 120,
                warm_starts: 40,
                iters_saved: 900,
                ..SolveStats::default()
            },
            ..Default::default()
        };
        assert!(healthy.is_clean(), "telemetry counters are not anomalies");
        let escalated = GuardStats {
            sinkhorn: SolveStats {
                escalations: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(!escalated.is_clean());
    }
}
