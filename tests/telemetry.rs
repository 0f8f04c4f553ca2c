//! The telemetry layer's two contracts, end to end:
//!
//! 1. **Determinism-neutral.** Attaching a collector never changes the
//!    imputation output, and counter totals are identical between serial
//!    and threaded execution — every counted event happens at the same
//!    logical program point regardless of [`ExecPolicy`] (only span
//!    timings may differ).
//! 2. **Structured reporting.** A collecting run returns a populated
//!    [`RunReport`] (non-empty phases, consistent solve counters, an SSE
//!    search trace) that serializes to well-formed JSON; a disabled run
//!    returns the structural fields only.

use scis_data::missing::inject_mcar;
use scis_data::{ChunkedDataset, MemorySink};
use scis_repro::prelude::*;
use scis_repro::telemetry::{Counter, Event, Hist, RecordedEvent, Series};

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

fn fast_config(exec: ExecPolicy) -> ScisConfig {
    ScisConfig::default()
        .dim(
            DimConfig::default().train(
                TrainConfig::default()
                    .epochs(8)
                    .batch_size(64)
                    .learning_rate(0.005)
                    .dropout(0.0),
            ),
        )
        .epsilon(0.02)
        .exec(exec)
}

/// One seeded run; returns the imputed matrix and the (possibly empty)
/// counter snapshot.
fn run_pipeline(exec: ExecPolicy, tel: Telemetry) -> (Matrix, usize, [u64; Counter::ALL.len()]) {
    let complete = correlated_table(400, 11);
    let mut rng = Rng64::seed_from_u64(12);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let mut gain = GainImputer::new(fast_config(exec).dim.train);
    let outcome = Scis::new(fast_config(exec))
        .telemetry(tel.clone())
        .try_run(&mut gain, &ds, 80, &mut rng)
        .expect("pipeline run failed");
    (
        outcome.imputed,
        outcome.n_star,
        tel.snapshot().counter_values(),
    )
}

/// Streamed twin of [`run_pipeline`]: same table, same seeds, same config,
/// but fed through [`Scis::try_run_streamed`] over an in-memory chunked
/// source into a memory sink.
fn run_pipeline_streamed(
    exec: ExecPolicy,
    tel: Telemetry,
    chunk_rows: usize,
) -> (Matrix, usize, [u64; Counter::ALL.len()]) {
    let complete = correlated_table(400, 11);
    let mut rng = Rng64::seed_from_u64(12);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let src = ChunkedDataset::new(&ds, chunk_rows);
    let mut gain = GainImputer::new(fast_config(exec).dim.train);
    let mut sink = MemorySink::new();
    let out = Scis::new(fast_config(exec))
        .telemetry(tel.clone())
        .try_run_streamed(&mut gain, &src, 80, &mut rng, &mut sink)
        .expect("streamed pipeline run failed");
    (
        sink.into_matrix(),
        out.n_star,
        tel.snapshot().counter_values(),
    )
}

/// The recorded event stream with its only wall-clock-valued field
/// (`PhaseEnd::secs`) zeroed, so full sequences compare bit-for-bit
/// across runs.
fn normalized_events(tel: &Telemetry) -> Vec<RecordedEvent> {
    tel.events()
        .into_iter()
        .map(|mut r| {
            if let Event::PhaseEnd { secs, .. } = &mut r.event {
                *secs = 0.0;
            }
            r
        })
        .collect()
}

#[test]
fn streamed_pipeline_matches_in_memory_telemetry() {
    for exec in [ExecPolicy::Serial, ExecPolicy::threads(4)] {
        let tel_mem = Telemetry::collecting();
        let tel_str = Telemetry::collecting();
        let (imp_mem, n_mem, counters_mem) = run_pipeline(exec, tel_mem.clone());
        // one 400-row chunk: the streamed run imputes in a single shard, so
        // it does exactly as many forward passes as the in-memory run and
        // every counter must match exactly
        let (imp_str, n_str, counters_str) = run_pipeline_streamed(exec, tel_str.clone(), 400);
        assert_eq!(imp_mem, imp_str, "imputed output diverged ({exec:?})");
        assert_eq!(n_mem, n_str, "n* diverged ({exec:?})");
        for (c, (a, b)) in Counter::ALL
            .iter()
            .zip(counters_mem.iter().zip(&counters_str))
        {
            assert_eq!(
                a,
                b,
                "counter {} diverged in-memory vs streamed ({exec:?})",
                c.name()
            );
        }
        let ev_mem = normalized_events(&tel_mem);
        let ev_str = normalized_events(&tel_str);
        assert!(!ev_mem.is_empty(), "no events recorded");
        assert_eq!(ev_mem, ev_str, "event sequences diverged ({exec:?})");
    }
}

#[test]
fn streamed_telemetry_is_identical_across_exec_policies() {
    // multi-shard this time (100-row chunks -> 4 shards): the parallel and
    // serial streamed runs must agree with each other bit-for-bit even when
    // the impute phase runs shard by shard
    let tel_s = Telemetry::collecting();
    let tel_p = Telemetry::collecting();
    let (imp_s, n_s, counters_s) = run_pipeline_streamed(ExecPolicy::Serial, tel_s.clone(), 100);
    let (imp_p, n_p, counters_p) =
        run_pipeline_streamed(ExecPolicy::threads(4), tel_p.clone(), 100);
    assert_eq!(imp_s, imp_p, "streamed imputed output diverged");
    assert_eq!(n_s, n_p, "streamed n* diverged");
    assert_eq!(counters_s, counters_p, "streamed counters diverged");
    assert_eq!(
        normalized_events(&tel_s),
        normalized_events(&tel_p),
        "streamed event sequences diverged"
    );
}

#[test]
fn counters_are_identical_across_exec_policies() {
    let (imp_s, n_s, counters_s) = run_pipeline(ExecPolicy::Serial, Telemetry::collecting());
    let (imp_p, n_p, counters_p) = run_pipeline(ExecPolicy::threads(4), Telemetry::collecting());
    assert_eq!(imp_s, imp_p, "imputed output diverged");
    assert_eq!(n_s, n_p, "n* diverged");
    assert_eq!(
        counters_s, counters_p,
        "counter totals must be policy-independent"
    );
    // the counters actually saw the run
    assert!(counters_s.iter().any(|&v| v > 0), "all counters zero");
}

#[test]
fn collecting_telemetry_does_not_perturb_the_output() {
    let (imp_off, n_off, counters_off) = run_pipeline(ExecPolicy::Serial, Telemetry::off());
    let (imp_on, n_on, _) = run_pipeline(ExecPolicy::Serial, Telemetry::collecting());
    assert_eq!(imp_off, imp_on, "recording changed the imputation");
    assert_eq!(n_off, n_on);
    assert_eq!(
        counters_off,
        [0u64; Counter::ALL.len()],
        "off collector recorded something"
    );
}

#[test]
fn run_report_is_populated_and_consistent() {
    let complete = correlated_table(400, 11);
    let mut rng = Rng64::seed_from_u64(12);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let cfg = fast_config(ExecPolicy::Serial);
    let mut gain = GainImputer::new(cfg.dim.train);
    let outcome = Scis::new(cfg)
        .telemetry(Telemetry::collecting())
        .try_run(&mut gain, &ds, 80, &mut rng)
        .expect("pipeline run failed");
    let r = &outcome.report;

    assert_eq!(r.n_total, 400);
    assert_eq!(r.n0, 80);
    assert_eq!(r.n_star, outcome.n_star);
    assert!(!r.phases.is_empty(), "phases must be recorded");
    assert!(!r.counters.is_empty(), "counters must be recorded");
    // every pipeline phase that must have happened was timed exactly once
    for phase in ["validate", "train_initial", "sse", "impute"] {
        let p = r
            .phases
            .iter()
            .find(|p| p.name == phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert_eq!(p.count, 1, "phase {phase} timed {} times", p.count);
    }
    // solve accounting is internally consistent
    let solves = r.counter("sinkhorn_solves").unwrap();
    let converged = r.counter("sinkhorn_converged").unwrap();
    let unconverged = r.counter("sinkhorn_unconverged").unwrap();
    assert!(solves > 0, "no sinkhorn solves counted");
    assert_eq!(solves, converged + unconverged, "solve outcomes must sum");
    assert!(r.counter("sinkhorn_iterations").unwrap() >= solves);
    assert!(r.counter("dim_epochs").unwrap() > 0);
    assert!(r.counter("dim_batches").unwrap() > 0);
    assert!(r.counter("nn_forwards").unwrap() > 0);
    assert!(r.counter("nn_backwards").unwrap() > 0);
    // SSE search trace matches the probe counter and the outcome
    assert_eq!(r.sse_trace.len() as u64, r.counter("sse_probes").unwrap());
    assert_eq!(r.sse_trace.len(), outcome.sse.probes);
    assert!(r.sse_trace.iter().any(|p| p.n == outcome.n_star));
    // flight-recorder sections (schema v2) saw the run
    assert!(!r.histograms.is_empty(), "histograms must be recorded");
    assert!(!r.series.is_empty(), "series must be recorded");
    assert!(r.events_recorded > 0, "no flight-recorder events");
    let solve_hist = r.histogram("sinkhorn_solve_iters").unwrap();
    assert!(solve_hist.count > 0, "no per-solve iterations observed");
    assert_eq!(
        solve_hist.buckets.iter().map(|b| b.2).sum::<u64>(),
        solve_hist.count
    );
    let loss = r.series("dim_loss").unwrap();
    assert!(!loss.is_empty(), "no per-epoch loss series");
    assert!(loss.iter().all(|v| v.is_finite()));
    // JSON serialization is self-consistent
    let json = r.to_json();
    assert!(json.contains("\"schema_version\":3"));
    assert!(json.contains("\"deadline_exceeded\":false"));
    assert!(json.contains(&format!("\"n_star\":{}", outcome.n_star)));
    assert!(json.contains(&format!("\"sinkhorn_solves\":{solves}")));
    assert!(json.contains("\"histograms\""));
    assert!(json.contains("\"series\""));
    assert!(json.contains("\"events_recorded\""));
}

#[test]
fn series_and_value_histograms_are_bit_identical_across_exec_policies() {
    let tel_s = Telemetry::collecting();
    let tel_p = Telemetry::collecting();
    let (imp_s, ..) = run_pipeline(ExecPolicy::Serial, tel_s.clone());
    let (imp_p, ..) = run_pipeline(ExecPolicy::threads(4), tel_p.clone());
    assert_eq!(imp_s, imp_p, "imputed output diverged");
    let snap_s = tel_s.snapshot();
    let snap_p = tel_p.snapshot();
    // every metric series, bit-for-bit (to_bits so a NaN regression would
    // still compare, instead of vacuously failing NaN != NaN)
    for ((name, a), (_, b)) in snap_s.series_iter().zip(snap_p.series_iter()) {
        assert_eq!(a.len(), b.len(), "series {name} length diverged");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "series {name}[{i}] diverged: {x} vs {y}"
            );
        }
    }
    // the iteration-valued histogram is in the determinism contract,
    // bucket for bucket; duration histograms only promise equal counts
    for h in Hist::ALL {
        let hs = snap_s.hist(h);
        let hp = snap_p.hist(h);
        assert_eq!(hs.count, hp.count, "hist {} count diverged", h.name());
        if h.is_deterministic() {
            assert_eq!(hs.sum, hp.sum, "hist {} sum diverged", h.name());
            assert_eq!(hs.buckets, hp.buckets, "hist {} buckets diverged", h.name());
        }
    }
    let solve = snap_s.hist(Hist::SinkhornSolveIters);
    assert!(solve.count > 0, "no per-solve iterations observed");
    // the typed event stream fires at the same logical points
    assert_eq!(snap_s.events_recorded(), snap_p.events_recorded());
    assert!(snap_s.events_recorded() > 0);
}

#[test]
fn disabled_telemetry_yields_structural_report_only() {
    let complete = correlated_table(400, 11);
    let mut rng = Rng64::seed_from_u64(12);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let cfg = fast_config(ExecPolicy::Serial);
    let mut gain = GainImputer::new(cfg.dim.train);
    let outcome = Scis::new(cfg)
        .try_run(&mut gain, &ds, 80, &mut rng)
        .expect("pipeline run failed");
    let r = &outcome.report;
    assert!(r.phases.is_empty());
    assert!(r.counters.is_empty());
    assert!(r.histograms.is_empty());
    assert!(r.series.is_empty());
    assert_eq!(r.events_recorded, 0);
    // the structural fields are still filled
    assert_eq!(r.n_total, 400);
    assert_eq!(r.n_star, outcome.n_star);
    assert_eq!(r.sse_trace.len(), outcome.sse.probes);
}

#[test]
fn try_run_surfaces_oversized_n0_as_error() {
    let complete = correlated_table(100, 9);
    let mut rng = Rng64::seed_from_u64(10);
    let ds = inject_mcar(&complete, 0.2, &mut rng);
    let cfg = fast_config(ExecPolicy::Serial);
    let mut gain = GainImputer::new(cfg.dim.train);
    let err = Scis::new(cfg)
        .try_run(&mut gain, &ds, 80, &mut rng)
        .expect_err("2*n0 > N must be rejected");
    assert!(err.to_string().contains("exceeds N"), "got: {err}");
}

#[test]
fn warm_start_hit_rate_never_drops_after_a_phase_s_first_epoch() {
    // a 100 × 4 correlated table, 25% MCAR, 6 full-batch epochs, n0 = 20,
    // ε = 0.02, serial, with every accelerator on: full-batch epochs
    // re-solve the same rows, so once a phase's first epoch has primed its
    // dual cache, the per-epoch hit rate may only hold or rise
    let complete = correlated_table(100, 51);
    let mut rng = Rng64::seed_from_u64(52);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let train = TrainConfig::default()
        .epochs(6)
        .batch_size(100)
        .learning_rate(0.005)
        .dropout(0.0);
    let config = ScisConfig::default()
        .dim(DimConfig::default().train(train))
        .epsilon(0.02)
        .exec(ExecPolicy::Serial)
        .accel(AccelConfig::all_f32());
    let mut gain = GainImputer::new(train);
    let tel = Telemetry::collecting();
    Scis::new(config)
        .telemetry(tel.clone())
        .try_run(&mut gain, &ds, 20, &mut rng)
        .expect("pipeline run failed");

    let hit_rate = tel.series(Series::WarmStartHitRate);
    let phase = tel.series(Series::TrainPhase);
    assert_eq!(hit_rate.len(), phase.len());
    assert!(
        hit_rate.iter().any(|&r| r > 0.0),
        "no warm starts: {hit_rate:?}"
    );
    // each phase owns a fresh cache: compare epochs within one phase only
    let mut start = 0;
    while start < phase.len() {
        let end = (start..phase.len())
            .find(|&e| phase[e] != phase[start])
            .unwrap_or(phase.len());
        for i in start + 2..end {
            assert!(
                hit_rate[i] >= hit_rate[i - 1] - 1e-12,
                "warm_start_hit_rate dropped in phase {} at epoch {}: {} -> {}",
                phase[start],
                i - start + 1,
                hit_rate[i - 1],
                hit_rate[i]
            );
        }
        start = end;
    }
}
