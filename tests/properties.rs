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
use scis_ot::{ms_divergence, solve, EscalationPolicy, SinkhornOptions, Start};
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
        let none = EscalationPolicy::none();
        let (res, _) = solve(&cost, None, Start::Annealed(5), &opts, &none).unwrap();
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
        let ab = Some((&a[..], &b[..]));
        let (res, _) = solve(&cost, ab, Start::Cold, &opts, &EscalationPolicy::none()).unwrap();
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
            let none = EscalationPolicy::none();
            let (res, _) = solve(&cost, None, Start::Cold, &opts, &none).unwrap();
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
        let ab = Some((&a[..], &b[..]));
        let (res, _) = solve(&cost, ab, Start::Cold, &opts, &EscalationPolicy::none()).unwrap();
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

/// `text(count)` with its count line forged to `u64::MAX`, to 10^12, and to
/// one more than the file's lines. Each must parse to a typed error, never a
/// capacity-overflow panic or an allocation abort.
fn forged(text: impl Fn(&str) -> String) -> Vec<(String, String)> {
    let lines = text("0").lines().count();
    [
        u64::MAX.to_string(),
        "1000000000000".into(),
        (lines + 1).to_string(),
    ]
    .into_iter()
    .map(|count| {
        let forged = text(&count);
        (count, forged)
    })
    .collect()
}

#[test]
fn model_text_with_a_forged_count_or_width_is_a_typed_error() {
    // with 10^12 this is the 38-byte file that used to abort the process
    let mut texts: Vec<String> = forged(|c| format!("scis-mlp v2\nin 2\nparams {c}\n"))
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    // widths are as untrusted as counts, and a checksum does not vouch for
    // them: anyone can compute one
    let signed = |body: &str| format!("{body}checksum {:x}\n", scis_nn::fnv1a64(body.as_bytes()));
    texts.extend([
        "scis-mlp v1\nin 1000000\ndense 1000000 identity\nparams 0\n".to_string(),
        signed("scis-mlp v2\nin 1000000\ndense 1000000 identity\nparams 0\n"),
        signed(&format!(
            "scis-mlp v2\nin {}\ndense 2 relu\nparams 0\n",
            u64::MAX
        )),
        "scis-mlp v1\nin 2\ndropout 5\ndense 1 identity\nparams 3\n0\n0\n0\n".to_string(),
        "scis-mlp v1\nin 2\nparams 0\n".to_string(),
    ]);
    for text in texts {
        let Err(err) = scis_nn::mlp_from_str(&text) else {
            panic!("{text:?}: parsed");
        };
        assert!(
            matches!(err, scis_nn::serialize::ModelIoError::Format { .. }),
            "{text:?}: {err}"
        );
    }
}

#[test]
fn checkpoint_with_a_forged_vector_count_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("scis_prop_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("forged.ckpt");
    let head = "scis-ckpt v1\nphase initial\nepoch 0\nrng 1 2 3 4 -\nadam 0 0 0 0 0\n";
    for (count, text) in forged(|c| format!("{head}vec adam_m {c}\n0\n")) {
        std::fs::write(&path, text).unwrap();
        let err = scis_core::checkpoint::TrainCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, scis_nn::serialize::ModelIoError::Format { .. }),
            "vec adam_m {count}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bundle_with_a_forged_column_count_is_a_typed_error() {
    let col = "col cont 0000000000000000 3ff0000000000000 0000000000000000 a";
    for (count, text) in forged(|c| format!("scis-bundle v1\ncolumns {c}\n{col}\n")) {
        let Err(err) = scis_serve::ModelBundle::from_text(&text) else {
            panic!("columns {count}: parsed");
        };
        assert!(
            matches!(err, scis_serve::BundleError::Format { .. }),
            "columns {count}: {err}"
        );
    }
}

#[test]
fn json_strings_parse_in_linear_time() {
    use scis_serve::json::{parse, Json};
    // one `{"row":["…"]}` body just under the server's default 1 MiB body
    // cap, holding a single long string: a parser that rescans the rest of
    // the input for every character it copies spends seconds here
    let long = "x".repeat((1 << 20) - 16);
    let body = format!("{{\"row\":[\"{long}\"]}}");
    assert!(body.len() < 1 << 20);
    let t0 = std::time::Instant::now();
    let parsed = parse(&body).expect("a long plain string parses");
    let took = t0.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "parsing a {}-byte string took {took:?}",
        long.len()
    );
    let row = parsed.get("row").and_then(Json::as_arr).expect("row array");
    assert_eq!(row[0].as_str(), Some(long.as_str()));

    // multi-byte and escaped characters still come back the same
    for (text, want) in [
        (r#""héllo wörld""#, "héllo wörld"),
        (
            r#""日本語 \u00e9\n\t\"q\" \\ end""#,
            "日本語 é\n\t\"q\" \\ end",
        ),
        ("\"🦀 crab, ünïcode\"", "🦀 crab, ünïcode"),
        (r#""a\/b\u0041\r\b\f""#, "a/bA\r\u{8}\u{c}"),
        (r#""""#, ""),
    ] {
        assert_eq!(parse(text), Ok(Json::Str(want.into())), "{text}");
    }
    // and the rejects stay rejects
    for text in [
        "\"a\u{1}b\"",
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"\\u12\"",
    ] {
        assert!(parse(text).is_err(), "{text:?} parsed");
    }
}
