//! Warm-start dual cache for the Sinkhorn hot path.
//!
//! DIM training (paper Algorithm 1) solves the same three entropic-OT
//! problems — cross `OT(X̄, X)`, self `OT(X̄, X̄)`, self `OT(X, X)` — for every
//! batch of every epoch, from cold. Between consecutive epochs the generator
//! moves by one optimizer step per batch, so the optimal dual potentials
//! `(f, g)` barely move; re-starting each solve from the previous epoch's
//! duals cuts the sweep count by a large factor (the classic warm-start
//! observation, cf. Muzellec et al., arXiv:2002.03860).
//!
//! # Keying
//! DIM draws a fresh row permutation every epoch, so batch *slots* are not
//! stable identities — batch 3 of epoch 5 holds different rows than batch 3
//! of epoch 6. Potentials are therefore keyed by **dataset row index**, per
//! solve kind and per side: after a solve over rows `[r₀, r₁, …]` each `fᵢ`
//! is stored under `rᵢ`, and a later batch warm-starts only if *every* one
//! of its rows has a cached value (full coverage; partial hits fall back to
//! a cold solve).
//!
//! # Gauge
//! Sinkhorn duals are defined up to a constant shift (`f + c, g − c`). Before
//! storing, potentials are re-centered (`c = mean(f)`) so values cached by
//! different batches compose into a consistent warm start.
//!
//! # Invalidation
//! [`DualCache::invalidate_all`] drops every entry. The training guard calls
//! it on rollback/LR backoff: after parameters rewind, cached duals describe
//! a generator state that no longer exists and would steer solves from a
//! stale point (still correct — warm starts never change the fixed point —
//! but slower and misleading in the accounting).
//!
//! The handle is a clone-shared `Option<Arc<…>>` in the style of
//! `scis_telemetry::Telemetry`: a disabled cache ([`DualCache::off`]) is one
//! pointer-sized `None` and every operation is a no-op branch.

use crate::sinkhorn::SinkhornResult;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which of the MS-divergence solves a cached potential pair belongs to.
///
/// The three solves see different cost matrices, so their duals must never
/// mix even when they cover the same rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKind {
    /// Cross term `OT(X̄ ⊙ M, X ⊙ M)`.
    Cross,
    /// Generator self term `OT(X̄ ⊙ M, X̄ ⊙ M)`.
    SelfA,
    /// Data self term `OT(X ⊙ M, X ⊙ M)`.
    SelfB,
}

impl SolveKind {
    fn idx(self) -> usize {
        match self {
            SolveKind::Cross => 0,
            SolveKind::SelfA => 1,
            SolveKind::SelfB => 2,
        }
    }
}

/// Cache effectiveness counters, readable for tests and the bench suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that produced a full warm start.
    pub hits: usize,
    /// Lookups that fell back to a cold solve (missing rows or empty cache).
    pub misses: usize,
    /// Potential pairs stored.
    pub stores: usize,
    /// Times the whole cache was dropped (guard rollbacks).
    pub invalidations: usize,
}

#[derive(Default)]
struct Store {
    /// Row-keyed first-side potentials (gauge-recentered).
    f: HashMap<usize, f64>,
    /// Row-keyed second-side potentials (gauge-recentered).
    g: HashMap<usize, f64>,
    /// Iteration count of the most recent cold solve of this kind — the
    /// baseline for the `iters_saved` estimate.
    last_cold_iters: Option<usize>,
}

#[derive(Default)]
struct Inner {
    stores: [Store; 3],
    stats: CacheStats,
}

/// Clone-shared warm-start cache handle; see the module docs.
///
/// All clones point at the same storage, so the training loop, the gradient
/// layer and the SSE fan-out can share one cache without threading `&mut`
/// through every signature.
#[derive(Clone, Default)]
pub struct DualCache(Option<Arc<Mutex<Inner>>>);

impl std::fmt::Debug for DualCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "DualCache(off)"),
            Some(_) => write!(f, "DualCache(enabled, {:?})", self.stats()),
        }
    }
}

impl DualCache {
    /// A disabled cache: every operation is a no-op, every lookup misses.
    pub const fn off() -> Self {
        Self(None)
    }

    /// A live cache with empty storage.
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Mutex::new(Inner::default()))))
    }

    /// Whether this handle points at live storage.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.0
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Looks up warm-start potentials for a solve of `kind` whose first
    /// marginal covers dataset rows `rows_a` and second marginal `rows_b`.
    ///
    /// Returns `Some((f0, g0))` only on *full* coverage — every row of both
    /// sides present — otherwise `None` (counted as a miss). A disabled
    /// cache always misses without touching the counters.
    pub fn lookup(
        &self,
        kind: SolveKind,
        rows_a: &[usize],
        rows_b: &[usize],
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut inner = self.lock()?;
        let store = &inner.stores[kind.idx()];
        let f0: Option<Vec<f64>> = rows_a.iter().map(|r| store.f.get(r).copied()).collect();
        let g0: Option<Vec<f64>> = rows_b.iter().map(|r| store.g.get(r).copied()).collect();
        match (f0, g0) {
            (Some(f0), Some(g0)) => {
                inner.stats.hits += 1;
                Some((f0, g0))
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores the duals of a finished solve under its row keys.
    ///
    /// Potentials are gauge-recentered by the mean of `f` first, and the
    /// store is skipped entirely if any potential is non-finite (an
    /// unconverged or degenerate solve must not poison later warm starts).
    pub fn store(&self, kind: SolveKind, rows_a: &[usize], rows_b: &[usize], r: &SinkhornResult) {
        let Some(mut inner) = self.lock() else {
            return;
        };
        if r.f.len() != rows_a.len() || r.g.len() != rows_b.len() {
            return; // shape drift: refuse silently rather than mis-key
        }
        if !r.f.iter().chain(r.g.iter()).all(|v| v.is_finite()) {
            return;
        }
        let c = r.f.iter().sum::<f64>() / r.f.len().max(1) as f64;
        let store = &mut inner.stores[kind.idx()];
        for (&row, &fv) in rows_a.iter().zip(&r.f) {
            store.f.insert(row, fv - c);
        }
        for (&row, &gv) in rows_b.iter().zip(&r.g) {
            store.g.insert(row, gv + c);
        }
        inner.stats.stores += 1;
    }

    /// Records the iteration count of a cold solve of `kind` — the baseline
    /// the `iters_saved` telemetry estimate is measured against.
    pub fn note_cold_iters(&self, kind: SolveKind, iters: usize) {
        if let Some(mut inner) = self.lock() {
            inner.stores[kind.idx()].last_cold_iters = Some(iters);
        }
    }

    /// The most recent cold-solve iteration count for `kind`, if any.
    pub fn cold_baseline(&self, kind: SolveKind) -> Option<usize> {
        self.lock()?.stores[kind.idx()].last_cold_iters
    }

    /// Drops every cached potential (all kinds) and counts an invalidation.
    /// Cold baselines are dropped too — after a rollback the generator's
    /// solves are back to square one.
    pub fn invalidate_all(&self) {
        if let Some(mut inner) = self.lock() {
            inner.stores = Default::default();
            inner.stats.invalidations += 1;
        }
    }

    /// Snapshot of the effectiveness counters (all zero when disabled).
    pub fn stats(&self) -> CacheStats {
        self.lock().map(|i| i.stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinkhorn::{solve_uniform, SinkhornOptions};
    use scis_tensor::Matrix;

    fn solve(n: usize) -> SinkhornResult {
        let cost = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 7) as f64);
        solve_uniform(
            &cost,
            &SinkhornOptions {
                lambda: 1.0,
                max_iters: 2000,
                tol: 1e-9,
                ..Default::default()
            },
        )
    }

    #[test]
    fn off_cache_is_inert() {
        let c = DualCache::off();
        assert!(!c.is_enabled());
        c.store(SolveKind::Cross, &[0, 1], &[0, 1], &solve(2));
        assert!(c.lookup(SolveKind::Cross, &[0, 1], &[0, 1]).is_none());
        c.invalidate_all();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn full_coverage_hit_partial_coverage_miss() {
        let c = DualCache::enabled();
        let r = solve(3);
        c.store(SolveKind::Cross, &[10, 20, 30], &[10, 20, 30], &r);
        assert!(c
            .lookup(SolveKind::Cross, &[30, 10, 20], &[10, 20, 30])
            .is_some());
        // row 40 never seen → miss
        assert!(c
            .lookup(SolveKind::Cross, &[10, 40, 20], &[10, 20, 30])
            .is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
    }

    #[test]
    fn kinds_do_not_mix() {
        let c = DualCache::enabled();
        c.store(SolveKind::SelfA, &[1, 2], &[1, 2], &solve(2));
        assert!(c.lookup(SolveKind::Cross, &[1, 2], &[1, 2]).is_none());
        assert!(c.lookup(SolveKind::SelfA, &[1, 2], &[1, 2]).is_some());
    }

    #[test]
    fn lookup_respects_row_order() {
        let c = DualCache::enabled();
        let r = solve(2);
        c.store(SolveKind::SelfB, &[7, 8], &[7, 8], &r);
        let (f_fwd, _) = c.lookup(SolveKind::SelfB, &[7, 8], &[7, 8]).unwrap();
        let (f_rev, _) = c.lookup(SolveKind::SelfB, &[8, 7], &[7, 8]).unwrap();
        assert_eq!(f_fwd[0], f_rev[1]);
        assert_eq!(f_fwd[1], f_rev[0]);
    }

    #[test]
    fn gauge_recentering_keeps_sum_structure() {
        // f' = f − c, g' = g + c is the same dual solution; check the shift
        // really is applied so entries from different batches compose
        let c = DualCache::enabled();
        let mut r = solve(2);
        let shift = 3.5;
        for v in &mut r.f {
            *v += shift;
        }
        for v in &mut r.g {
            *v -= shift;
        }
        let mut r2 = r.clone();
        for v in &mut r2.f {
            *v -= 2.0 * shift;
        }
        for v in &mut r2.g {
            *v += 2.0 * shift;
        }
        c.store(SolveKind::Cross, &[0, 1], &[0, 1], &r);
        let (f_a, g_a) = c.lookup(SolveKind::Cross, &[0, 1], &[0, 1]).unwrap();
        c.invalidate_all();
        c.store(SolveKind::Cross, &[0, 1], &[0, 1], &r2);
        let (f_b, g_b) = c.lookup(SolveKind::Cross, &[0, 1], &[0, 1]).unwrap();
        for (x, y) in f_a.iter().zip(&f_b).chain(g_a.iter().zip(&g_b)) {
            assert!(
                (x - y).abs() < 1e-12,
                "gauge shift not removed: {} vs {}",
                x,
                y
            );
        }
    }

    #[test]
    fn non_finite_potentials_are_not_stored() {
        let c = DualCache::enabled();
        let mut r = solve(2);
        r.g[1] = f64::NAN;
        c.store(SolveKind::Cross, &[0, 1], &[0, 1], &r);
        assert!(c.lookup(SolveKind::Cross, &[0, 1], &[0, 1]).is_none());
        assert_eq!(c.stats().stores, 0);
    }

    #[test]
    fn invalidate_all_drops_entries_and_baselines() {
        let c = DualCache::enabled();
        c.store(SolveKind::Cross, &[0, 1], &[0, 1], &solve(2));
        c.note_cold_iters(SolveKind::Cross, 42);
        assert_eq!(c.cold_baseline(SolveKind::Cross), Some(42));
        c.invalidate_all();
        assert!(c.lookup(SolveKind::Cross, &[0, 1], &[0, 1]).is_none());
        assert_eq!(c.cold_baseline(SolveKind::Cross), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clones_share_storage() {
        let c = DualCache::enabled();
        let c2 = c.clone();
        c.store(SolveKind::SelfB, &[5], &[5], &solve(1));
        assert!(c2.lookup(SolveKind::SelfB, &[5], &[5]).is_some());
        c2.invalidate_all();
        assert!(c.lookup(SolveKind::SelfB, &[5], &[5]).is_none());
    }
}
