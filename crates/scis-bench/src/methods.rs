//! Method factory: one identifier per table row, covering the eleven
//! baselines, the two GAN models, their SCIS-wrapped versions, and the
//! ablation variants of Tables V/VI.

use scis_core::dim::{train_dim, DimConfig, TrainRun};
use scis_core::guard::GuardStats;
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::RunReport;
use scis_data::split::sample_training_set;
use scis_data::Dataset;
use scis_imputers::boost::BoostImputer;
use scis_imputers::datawig::DataWigImputer;
use scis_imputers::eddi::EddiImputer;
use scis_imputers::hivae::HivaeImputer;
use scis_imputers::knn::KnnImputer;
use scis_imputers::mean::{MeanImputer, MedianImputer};
use scis_imputers::mice::MiceImputer;
use scis_imputers::midae::MidaeImputer;
use scis_imputers::missforest::MissForestImputer;
use scis_imputers::miwae::MiwaeImputer;
use scis_imputers::rrsi::RrsiImputer;
use scis_imputers::traits::impute_with_generator;
use scis_imputers::vaei::VaeImputer;
use scis_imputers::{GainImputer, GinnImputer, Imputer, TrainConfig};
use scis_telemetry::Telemetry;
use scis_tensor::{Matrix, Rng64};

/// Identifier for every method row across the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// Column-mean fill (reference floor, not a paper row).
    Mean,
    /// Column-median fill (reference, not a paper row).
    Median,
    /// k-nearest-neighbour imputation (reference, not a paper row).
    Knn,
    /// MissForest ("MissF").
    MissF,
    /// Boosted-stump stand-in for Baran (see DESIGN.md §4).
    Baran,
    /// Chained equations.
    Mice,
    /// Per-column MLP.
    DataWig,
    /// Sinkhorn batch imputation.
    Rrsi,
    /// Denoising autoencoder.
    Midae,
    /// Variational autoencoder.
    Vaei,
    /// Importance-weighted autoencoder.
    Miwae,
    /// Partial VAE.
    Eddi,
    /// Heterogeneous VAE.
    Hivae,
    /// GAIN with its native JS/BCE adversarial training.
    Gain,
    /// GINN with its native training (incl. the O(N²) graph build).
    Ginn,
    /// SCIS wrapped around GAIN (the paper's flagship row).
    ScisGain,
    /// SCIS wrapped around GINN.
    ScisGinn,
    /// Ablation: DIM loss on the full dataset, no SSE (Table V "DIM-GAIN").
    DimGain,
    /// Ablation: DIM loss on a fixed 10% sample (Table V "Fixed-DIM-GAIN").
    FixedDimGain,
}

impl MethodId {
    /// The Table III row order (plus the non-paper references first).
    pub const TABLE3: [MethodId; 14] = [
        MethodId::MissF,
        MethodId::Baran,
        MethodId::Mice,
        MethodId::DataWig,
        MethodId::Rrsi,
        MethodId::Midae,
        MethodId::Vaei,
        MethodId::Miwae,
        MethodId::Eddi,
        MethodId::Hivae,
        MethodId::Ginn,
        MethodId::ScisGinn,
        MethodId::Gain,
        MethodId::ScisGain,
    ];

    /// The Table IV row order.
    pub const TABLE4: [MethodId; 5] = [
        MethodId::Hivae,
        MethodId::Ginn,
        MethodId::ScisGinn,
        MethodId::Gain,
        MethodId::ScisGain,
    ];

    /// The ablation rows of Tables V/VI.
    pub const ABLATION: [MethodId; 4] = [
        MethodId::Gain,
        MethodId::DimGain,
        MethodId::FixedDimGain,
        MethodId::ScisGain,
    ];

    /// Row label as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            MethodId::Mean => "Mean",
            MethodId::Median => "Median",
            MethodId::Knn => "kNN",
            MethodId::MissF => "MissF",
            MethodId::Baran => "Baran",
            MethodId::Mice => "MICE",
            MethodId::DataWig => "DataWig",
            MethodId::Rrsi => "RRSI",
            MethodId::Midae => "MIDAE",
            MethodId::Vaei => "VAEI",
            MethodId::Miwae => "MIWAE",
            MethodId::Eddi => "EDDI",
            MethodId::Hivae => "HIVAE",
            MethodId::Gain => "GAIN",
            MethodId::Ginn => "GINN",
            MethodId::ScisGain => "SCIS-GAIN",
            MethodId::ScisGinn => "SCIS-GINN",
            MethodId::DimGain => "DIM-GAIN",
            MethodId::FixedDimGain => "Fixed-DIM-GAIN",
        }
    }

    /// Runs the method on `ds`, returning the imputed matrix and the
    /// training sample rate `R_t` (1.0 unless SSE/fixed sampling shrank it).
    pub fn run(
        &self,
        ds: &Dataset,
        n0: usize,
        train: TrainConfig,
        rng: &mut Rng64,
    ) -> (Matrix, f64) {
        let (imputed, rt, _) = self.run_traced(ds, n0, train, &Telemetry::off(), rng);
        (imputed, rt)
    }

    /// [`MethodId::run`] with telemetry: the SCIS pipeline methods record on
    /// `tel` and return their structured [`RunReport`] (other methods return
    /// `None`). SCIS/DIM training failures degrade gracefully (SCIS falls
    /// back to mean imputation inside the pipeline; the DIM ablations keep
    /// the guard's best snapshot) instead of panicking mid-benchmark.
    pub fn run_traced(
        &self,
        ds: &Dataset,
        n0: usize,
        train: TrainConfig,
        tel: &Telemetry,
        rng: &mut Rng64,
    ) -> (Matrix, f64, Option<RunReport>) {
        let (imputed, rt) = match self {
            MethodId::Mean => (MeanImputer.impute(ds, rng), 1.0),
            MethodId::Median => (MedianImputer.impute(ds, rng), 1.0),
            MethodId::Knn => (KnnImputer::default().impute(ds, rng), 1.0),
            MethodId::MissF => {
                // forest size scaled down from the paper's 100 trees to keep
                // laptop runs feasible; the family-level ordering holds
                let mut m = MissForestImputer {
                    n_trees: 30,
                    max_iter: 3,
                    ..Default::default()
                };
                (m.impute(ds, rng), 1.0)
            }
            MethodId::Baran => (BoostImputer::default().impute(ds, rng), 1.0),
            MethodId::Mice => (MiceImputer::default().impute(ds, rng), 1.0),
            MethodId::DataWig => (
                DataWigImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Rrsi => (
                RrsiImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Midae => (
                MidaeImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Vaei => (
                VaeImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Miwae => (
                MiwaeImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Eddi => (
                EddiImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Hivae => (
                HivaeImputer {
                    config: train,
                    ..Default::default()
                }
                .impute(ds, rng),
                1.0,
            ),
            MethodId::Gain => (GainImputer::new(train).impute(ds, rng), 1.0),
            MethodId::Ginn => (GinnImputer::new(train).impute(ds, rng), 1.0),
            MethodId::ScisGain => {
                let mut gain = GainImputer::new(train);
                return run_scis(&mut gain, ds, n0, train, tel, rng);
            }
            MethodId::ScisGinn => {
                let mut ginn = GinnImputer::new(train);
                return run_scis(&mut ginn, ds, n0, train, tel, rng);
            }
            MethodId::DimGain => {
                let mut gain = GainImputer::new(train);
                run_dim_ablation(&mut gain, ds, train, tel, rng);
                (impute_with_generator(&mut gain, ds, rng), 1.0)
            }
            MethodId::FixedDimGain => {
                let frac = 0.10; // the paper's fixed 10% sample
                let n = ((ds.n_samples() as f64 * frac) as usize)
                    .max(16)
                    .min(ds.n_samples());
                let sample = sample_training_set(ds, n, rng);
                let mut gain = GainImputer::new(train);
                run_dim_ablation(&mut gain, &sample, train, tel, rng);
                (impute_with_generator(&mut gain, ds, rng), frac)
            }
        };
        (imputed, rt, None)
    }
}

/// Shared SCIS path for the wrapped methods: fallible pipeline entry with
/// telemetry attached. An `Err` (bad data/configuration — should not happen
/// with the bench's curated instances) degrades to mean imputation so a
/// multi-row table run survives one broken cell.
fn run_scis(
    imp: &mut dyn scis_imputers::AdversarialImputer,
    ds: &Dataset,
    n0: usize,
    train: TrainConfig,
    tel: &Telemetry,
    rng: &mut Rng64,
) -> (Matrix, f64, Option<RunReport>) {
    let config = ScisConfig {
        dim: DimConfig {
            train,
            ..Default::default()
        },
        ..Default::default()
    };
    match Scis::new(config)
        .telemetry(tel.clone())
        .try_run(imp, ds, n0, rng)
    {
        Ok(outcome) => {
            let rt = outcome.training_sample_rate();
            (outcome.imputed, rt, Some(outcome.report))
        }
        Err(e) => {
            eprintln!("scis-bench: SCIS run failed ({e}); falling back to mean imputation");
            (MeanImputer.impute(ds, rng), 1.0, None)
        }
    }
}

/// Shared DIM path for the ablation rows: guarded, telemetered training
/// that keeps the best parameter snapshot on terminal failure instead of
/// panicking (the guarded trainer restores it before surfacing the error).
fn run_dim_ablation(
    imp: &mut dyn scis_imputers::AdversarialImputer,
    ds: &Dataset,
    train: TrainConfig,
    tel: &Telemetry,
    rng: &mut Rng64,
) {
    let cfg = DimConfig {
        train,
        ..Default::default()
    };
    imp.set_telemetry(tel.clone());
    let mut stats = GuardStats::default();
    let run = TrainRun {
        telemetry: tel.clone(),
        ..TrainRun::default()
    };
    if let Err(e) = train_dim(imp, ds, &cfg, &run, &mut stats, rng) {
        eprintln!("scis-bench: DIM training failed ({e}); keeping the best snapshot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_data::missing::inject_mcar;

    #[test]
    fn every_method_id_runs_on_a_tiny_dataset() {
        let mut rng = Rng64::seed_from_u64(1);
        let complete = Matrix::from_fn(150, 4, |_, _| rng.uniform());
        let ds = inject_mcar(&complete, 0.2, &mut rng);
        let train = TrainConfig {
            epochs: 2,
            batch_size: 32,
            learning_rate: 0.01,
            dropout: 0.1,
        };
        let all = [
            MethodId::Mean,
            MethodId::Median,
            MethodId::Knn,
            MethodId::MissF,
            MethodId::Baran,
            MethodId::Mice,
            MethodId::DataWig,
            MethodId::Rrsi,
            MethodId::Midae,
            MethodId::Vaei,
            MethodId::Miwae,
            MethodId::Eddi,
            MethodId::Hivae,
            MethodId::Gain,
            MethodId::Ginn,
            MethodId::ScisGain,
            MethodId::ScisGinn,
            MethodId::DimGain,
            MethodId::FixedDimGain,
        ];
        for id in all {
            let (imputed, rt) = id.run(&ds, 30, train, &mut rng);
            assert_eq!(imputed.shape(), (150, 4), "{}", id.name());
            assert!(!imputed.has_nan(), "{} produced NaN", id.name());
            assert!((0.0..=1.0).contains(&rt), "{} R_t = {}", id.name(), rt);
        }
    }

    #[test]
    fn table_row_lists_have_expected_sizes() {
        assert_eq!(MethodId::TABLE3.len(), 14);
        assert_eq!(MethodId::TABLE4.len(), 5);
        assert_eq!(MethodId::ABLATION.len(), 4);
        assert_eq!(MethodId::ScisGain.name(), "SCIS-GAIN");
    }
}
