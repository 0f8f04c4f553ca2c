//! Property-style randomized tests on the core data structures and
//! invariants: mask algebra, Eq.-1 merging, normalization round-trips,
//! Sinkhorn plan marginals, divergence positivity, tree prediction bounds,
//! and metric sanity.
//!
//! The container has no cargo registry access, so instead of proptest these
//! run a fixed number of seeded trials through [`Rng64`]; failures print the
//! trial seed so a case can be replayed by pinning it.

use scis_data::mask::MaskMatrix;
use scis_data::normalize::MinMaxScaler;
use scis_data::{Dataset, Holdout};
use scis_imputers::tree::{RegressionTree, TreeConfig};
use scis_ot::{ms_divergence, SinkhornOptions};
use scis_tensor::{Matrix, Rng64};

/// Runs `cases` independent trials, each with its own deterministic seed.
fn trials(cases: u64, mut body: impl FnMut(u64, &mut Rng64)) {
    for case in 0..cases {
        let seed = 0x5c15_0000 + case;
        let mut rng = Rng64::seed_from_u64(seed);
        body(seed, &mut rng);
    }
}

/// A small matrix of finite values in [-100, 100] with random shape.
fn small_matrix(rng: &mut Rng64) -> Matrix {
    let r = rng.gen_range(7) + 1;
    let c = rng.gen_range(5) + 1;
    Matrix::from_fn(r, c, |_, _| rng.uniform_range(-100.0, 100.0))
}

fn random_bits(rng: &mut Rng64, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.bernoulli(0.5)).collect()
}

#[test]
fn mask_set_get_roundtrip() {
    trials(64, |seed, rng| {
        let m = small_matrix(rng);
        let (r, c) = m.shape();
        let bits = random_bits(rng, r * c);
        let mut mask = MaskMatrix::all_missing(r, c);
        for i in 0..r {
            for j in 0..c {
                mask.set(i, j, bits[i * c + j]);
            }
        }
        let mut count = 0usize;
        for i in 0..r {
            for j in 0..c {
                assert_eq!(mask.get(i, j), bits[i * c + j], "seed {}", seed);
                count += bits[i * c + j] as usize;
            }
        }
        assert_eq!(mask.count_observed(), count, "seed {}", seed);
    });
}

#[test]
fn merge_imputed_preserves_observed_exactly() {
    trials(64, |seed, rng| {
        let m = small_matrix(rng);
        let (r, c) = m.shape();
        let bits = random_bits(rng, r * c);
        let mut mask = MaskMatrix::all_missing(r, c);
        for i in 0..r {
            for j in 0..c {
                mask.set(i, j, bits[i * c + j]);
            }
        }
        let kinds = vec![scis_data::ColumnKind::Continuous; c];
        let ds = Dataset::from_complete(&m, mask, kinds);
        let xbar = Matrix::full(r, c, -7.25);
        let merged = ds.merge_imputed(&xbar);
        for i in 0..r {
            for j in 0..c {
                if bits[i * c + j] {
                    assert_eq!(merged[(i, j)], m[(i, j)], "seed {}", seed);
                } else {
                    assert_eq!(merged[(i, j)], -7.25, "seed {}", seed);
                }
            }
        }
    });
}

#[test]
fn minmax_roundtrip_is_lossless() {
    trials(64, |seed, rng| {
        let m = small_matrix(rng);
        let scaler = MinMaxScaler::fit(&m);
        let t = scaler.transform(&m);
        // all observed values land in [0,1]
        for v in t.as_slice() {
            assert!(
                (-1e-12..=1.0 + 1e-12).contains(v),
                "seed {}: normalized {}",
                seed,
                v
            );
        }
        let back = scaler.inverse_transform(&t);
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "seed {}: {} vs {}",
                seed,
                a,
                b
            );
        }
    });
}

#[test]
fn sinkhorn_plan_satisfies_marginals() {
    trials(24, |seed, rng| {
        let n = rng.gen_range(8) + 2;
        let lambda = rng.uniform_range(0.05, 5.0);
        let cost = Matrix::from_fn(n, n, |_, _| rng.uniform() * 3.0);
        // ε-scaling warm starts handle the slow small-λ regime; column
        // marginals are exact after every g-update by construction, rows
        // converge — gate the strict check on reported convergence
        let opts = SinkhornOptions {
            lambda,
            max_iters: 20_000,
            tol: 1e-9,
            ..Default::default()
        };
        let res = scis_ot::sinkhorn::sinkhorn_eps_scaling_uniform(&cost, &opts, 5);
        let plan = res.plan(&cost);
        let u = 1.0 / n as f64;
        for s in plan.col_sums() {
            assert!((s - u).abs() < 1e-6, "seed {}: col marginal {}", seed, s);
        }
        let row_tol = if res.converged { 1e-6 } else { 1e-3 };
        for s in plan.row_sums() {
            assert!(
                (s - u).abs() < row_tol,
                "seed {}: row marginal {} (converged={})",
                seed,
                s,
                res.converged
            );
        }
        for p in plan.as_slice() {
            assert!(*p >= 0.0 && p.is_finite(), "seed {}", seed);
        }
    });
}

#[test]
fn sinkhorn_rectangular_plans_satisfy_marginals() {
    trials(24, |seed, rng| {
        let n = rng.gen_range(6) + 2;
        let m = rng.gen_range(9) + 2; // usually n ≠ m
        let cost = Matrix::from_fn(n, m, |_, _| rng.uniform() * 3.0);
        // random positive marginals, normalized to probability vectors
        let raw_a: Vec<f64> = (0..n).map(|_| rng.uniform() + 0.05).collect();
        let raw_b: Vec<f64> = (0..m).map(|_| rng.uniform() + 0.05).collect();
        let sa: f64 = raw_a.iter().sum();
        let sb: f64 = raw_b.iter().sum();
        let a: Vec<f64> = raw_a.iter().map(|v| v / sa).collect();
        let b: Vec<f64> = raw_b.iter().map(|v| v / sb).collect();
        let opts = SinkhornOptions {
            lambda: 0.5,
            max_iters: 10_000,
            tol: 1e-10,
            ..Default::default()
        };
        let res = scis_ot::sinkhorn(&cost, &a, &b, &opts);
        let plan = res.plan(&cost);
        assert!(res.converged, "seed {}", seed);
        for (s, want) in plan.col_sums().iter().zip(&b) {
            assert!(
                (s - want).abs() < 1e-7,
                "seed {}: col {} vs {}",
                seed,
                s,
                want
            );
        }
        for (s, want) in plan.row_sums().iter().zip(&a) {
            assert!(
                (s - want).abs() < 1e-7,
                "seed {}: row {} vs {}",
                seed,
                s,
                want
            );
        }
    });
}

#[test]
fn sinkhorn_extreme_lambda_stays_finite_and_feasible() {
    // λ = 1e-6 (near-unregularized, slow) and λ = 1e6 (near product measure)
    // are both numerically extreme; the log-domain solver must keep the plan
    // finite, nonnegative, and column-feasible in either regime
    trials(16, |seed, rng| {
        let n = rng.gen_range(6) + 2;
        let cost = Matrix::from_fn(n, n, |_, _| rng.uniform() * 3.0);
        let u = 1.0 / n as f64;
        for lambda in [1e-6, 1e6] {
            let opts = SinkhornOptions {
                lambda,
                max_iters: 500,
                tol: 1e-9,
                ..Default::default()
            };
            let res = scis_ot::sinkhorn_uniform(&cost, &opts);
            let plan = res.plan(&cost);
            for p in plan.as_slice() {
                assert!(
                    p.is_finite() && *p >= 0.0,
                    "seed {} λ {}: plan {}",
                    seed,
                    lambda,
                    p
                );
            }
            assert!(res.transport_cost.is_finite(), "seed {} λ {}", seed, lambda);
            // column marginals are exact after every g-update by construction
            for s in plan.col_sums() {
                assert!(
                    (s - u).abs() < 1e-6,
                    "seed {} λ {}: col {}",
                    seed,
                    lambda,
                    s
                );
            }
            if lambda > 1.0 {
                // huge λ ⇒ plan ≈ a ⊗ b: every entry close to uniform
                for p in plan.as_slice() {
                    assert!(
                        (p - u * u).abs() < 1e-3,
                        "seed {}: entry {} far from product measure {}",
                        seed,
                        p,
                        u * u
                    );
                }
            }
        }
    });
}

#[test]
fn sinkhorn_degenerate_marginals_confine_mass() {
    // zero-mass rows/columns must receive exactly zero plan mass (and must
    // not poison the rest of the plan with NaN)
    trials(16, |seed, rng| {
        let n = rng.gen_range(5) + 3;
        let cost = Matrix::from_fn(n, n, |_, _| rng.uniform() * 2.0);
        let dead_row = rng.gen_range(n);
        let dead_col = rng.gen_range(n);
        let mut a = vec![1.0 / (n - 1) as f64; n];
        let mut b = vec![1.0 / (n - 1) as f64; n];
        a[dead_row] = 0.0;
        b[dead_col] = 0.0;
        let opts = SinkhornOptions {
            lambda: 0.3,
            max_iters: 5_000,
            tol: 1e-9,
            ..Default::default()
        };
        let res = scis_ot::sinkhorn(&cost, &a, &b, &opts);
        let plan = res.plan(&cost);
        for j in 0..n {
            assert_eq!(plan[(dead_row, j)], 0.0, "seed {}: dead row leaked", seed);
        }
        for i in 0..n {
            assert_eq!(plan[(i, dead_col)], 0.0, "seed {}: dead col leaked", seed);
        }
        for p in plan.as_slice() {
            assert!(p.is_finite() && *p >= 0.0, "seed {}", seed);
        }
        let total: f64 = plan.as_slice().iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "seed {}: total mass {}",
            seed,
            total
        );
    });
}

#[test]
fn ms_divergence_nonnegative_and_zero_on_self() {
    trials(24, |seed, rng| {
        let n = rng.gen_range(6) + 2;
        let d = rng.gen_range(4) + 1;
        let a = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let b = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, d, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let opts = SinkhornOptions {
            lambda: 0.5,
            max_iters: 3000,
            tol: 1e-10,
            ..Default::default()
        };
        let s_ab = ms_divergence(&a, &b, &mask, &opts).value;
        let s_aa = ms_divergence(&a, &a, &mask, &opts).value;
        assert!(s_ab > -1e-6, "seed {}: S(a,b) = {}", seed, s_ab);
        assert!(s_aa.abs() < 1e-6, "seed {}: S(a,a) = {}", seed, s_aa);
    });
}

#[test]
fn tree_predictions_bounded_by_targets() {
    trials(32, |seed, rng| {
        let n = rng.gen_range(50) + 10;
        let x = Matrix::from_fn(n, 3, |_, _| rng.uniform());
        let y: Vec<f64> = (0..n).map(|_| rng.uniform_range(-5.0, 5.0)).collect();
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default(), rng);
        let probe = Matrix::from_fn(20, 3, |_, _| rng.uniform_range(-2.0, 3.0));
        for p in tree.predict(&probe) {
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "seed {}: {} outside [{}, {}]",
                seed,
                p,
                lo,
                hi
            );
        }
    });
}

#[test]
fn holdout_rmse_matches_manual_computation() {
    trials(32, |seed, rng| {
        let shift = rng.uniform_range(-2.0, 2.0);
        let m = Matrix::from_fn(20, 3, |_, _| rng.uniform());
        let ds = Dataset::from_values(m.clone());
        let (_, holdout) = scis_data::metrics::make_holdout(&ds, 0.3, rng);
        if holdout.is_empty() {
            return;
        }
        let shifted = m.map(|v| v + shift);
        let r = holdout.rmse(&shifted);
        assert!(
            (r - shift.abs()).abs() < 1e-9,
            "seed {}: rmse {} vs |shift| {}",
            seed,
            r,
            shift.abs()
        );
    });
}

#[test]
fn rng_sample_indices_always_distinct() {
    trials(256, |seed, rng| {
        let n = rng.gen_range(199) + 1;
        let k = rng.gen_range(n) + 1;
        let idx = rng.sample_indices(n, k.min(n));
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), idx.len(), "seed {}", seed);
        assert!(idx.iter().all(|&i| i < n), "seed {}", seed);
    });
}

#[test]
fn holdout_struct_is_reexported() {
    // compile-time check that the facade exposes the metric types
    let h = Holdout {
        positions: vec![(0, 0)],
        truth: vec![1.0],
    };
    assert_eq!(h.len(), 1);
}
