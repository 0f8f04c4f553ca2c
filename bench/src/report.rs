//! The metric and workload catalog, and the result line.
//!
//! `BENCHMARK.json` is generated from this catalog (`loadbench calibrate
//! --write`), so the names the benchmark prints and the names the file
//! lists cannot drift apart.

use crate::stats::Better;
use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "train-b1024-f32",
        why: "In-memory Algorithm 1 at batch 1024, f32 Sinkhorn, warm-start cache, 2 threads, fixed sweep budget: O(B^2) cost, plan and gradient work dominates",
    },
    WorkloadDef {
        name: "stream-weather",
        why: "Out-of-core Weather-shape run (98,220 x 9) in 24 spill shards: serial f64 Sinkhorn at batch 128 with the default cap and first escalation rung, shard reads, streamed imputation",
    },
    WorkloadDef {
        name: "serve-narrow",
        why: "scis serve, 9-column bundle, open-loop Poisson 1000 rps of 1-16 row requests: connect, thread spawn, parsing and batcher wait dominate",
    },
    WorkloadDef {
        name: "serve-wide",
        why: "scis serve, 200-column bundle (81% null), open-loop 100 rps of 1-16 row requests: generator forward pass and wide-row JSON dominate",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every one is measured on every workload
/// and is never zero.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", Lower),
    m("p50_ms", "ms", Lower),
    m("rmse", "1", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Single-layer metrics of traced runs, keyed by crate, plus the metrics
/// demoted from the end-to-end set because they spread too much between
/// runs. Counts may be zero on a workload that does not use the layer;
/// times are always measured.
pub const PER_LAYER: [MetricDef; 57] = [
    m("cpu_us_per_row", "us", Lower),
    m("serve.server_cpu_us_per_req", "us", Lower),
    m("serve.p90_ms", "ms", Lower),
    m("serve.p99_ms", "ms", Lower),
    m("serve.max_rate_rps", "1/s", Higher),
    m("ot.solves", "count", Lower),
    m("ot.iterations", "count", Lower),
    m("ot.iters_per_solve", "count", Lower),
    m("ot.escalations", "count", Lower),
    m("ot.unconverged", "count", Lower),
    m("ot.warm_hit_rate", "ratio", Higher),
    m("ot.iters_saved", "count", Higher),
    m("ot.cost_build_ms", "ms", Lower),
    m("ot.solve_ms", "ms", Lower),
    m("ot.sweep_ns_per_cell", "ns", Lower),
    m("nn.forwards", "count", Lower),
    m("nn.backwards", "count", Lower),
    m("nn.fwd_bwd_ms", "ms", Lower),
    m("nn.fwd_us_per_row", "us", Lower),
    m("imputers.mean_fill_rmse", "1", Lower),
    m("tensor.gemm_gflops_serial", "GFLOP/s", Higher),
    m("tensor.gemm_gflops_t2", "GFLOP/s", Higher),
    m("tensor.exec_dispatch_us", "us", Lower),
    m("core.train_initial_s", "s", Lower),
    m("core.calibration_s", "s", Lower),
    m("core.sse_self_s", "s", Lower),
    m("core.retrain_s", "s", Lower),
    m("core.impute_s", "s", Lower),
    m("core.epoch_ms_p50", "ms", Lower),
    m("core.epoch_ms_p90", "ms", Lower),
    m("core.dim_batches", "count", Lower),
    m("core.batches_skipped", "count", Lower),
    m("core.guard_rollbacks", "count", Lower),
    m("core.sse_mc_evals", "count", Lower),
    m("core.n_star", "count", Lower),
    m("data.scaler_fit_ms", "ms", Lower),
    m("data.shard_loads", "count", Lower),
    m("data.spill_bytes", "B", Lower),
    m("data.spill_write_mb_s", "MiB/s", Higher),
    m("data.shard_read_mb_s", "MiB/s", Higher),
    m("data.impute_pass_s", "s", Lower),
    m("serve.batches", "count", Lower),
    m("serve.rows_per_batch", "ratio", Higher),
    m("serve.rejected", "count", Lower),
    m("serve.degraded", "count", Lower),
    m("serve.connects_per_req", "ratio", Lower),
    m("serve.connect_us_p50", "us", Lower),
    m("serve.ttfb_ms_p50", "ms", Lower),
    m("serve.server_us_p50", "us", Lower),
    m("serve.queue_net_ms_p50", "ms", Lower),
    m("serve.gen_lag_ms_p99", "ms", Lower),
    m("serve.json_parse_us", "us", Lower),
    m("serve.impute_rows_us_1", "us", Lower),
    m("serve.impute_rows_us_16", "us", Lower),
    m("serve.impute_rows_us_256", "us", Lower),
    m("serve.bundle_load_ms", "ms", Lower),
    m("telemetry.overhead_pct", "%", Lower),
];

/// Everything one workload run produced. The run is correct when no check
/// failed, i.e. `problems` is empty.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, or requests up to the reference rate).
    pub attempted: u64,
    /// Operations that failed (degraded jobs; non-200, timed-out or
    /// refused requests).
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name, including diagnostics outside the catalog.
    pub layer: BTreeMap<String, f64>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Fails the run unless every end-to-end metric was measured: present,
    /// finite and positive.
    pub fn check_measured(&mut self) {
        for d in &END_TO_END {
            let v = self.e2e.get(d.name).copied().unwrap_or(f64::NAN);
            self.check(v.is_finite() && v > 0.0, || {
                format!("{} was not measured ({v})", d.name)
            });
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer metrics
    /// traced, each by name with its unit, in catalog order.
    pub fn result_line(&self, traced: bool) -> String {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = if traced {
                    self.layer.get(d.name).copied()
                } else {
                    self.e2e.get(d.name).copied()
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_num(v.unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit of the measurement.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.e2e.insert("p50_ms", 1.25);
        let line = o.result_line(false);
        let doc = scis_serve::json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for d in &END_TO_END {
            assert!(metrics.get(d.name).is_some(), "{} missing", d.name);
        }
        assert_eq!(
            metrics
                .get("p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        // the three metrics never inserted fail the measured gate
        o.check_measured();
        assert_eq!(o.problems.len(), END_TO_END.len() - 1);
        assert!(o.result_line(true).starts_with("{\"correct\":false"));
    }
}
