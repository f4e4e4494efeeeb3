//! Fig. 7: calibration of the online sampling fraction.
//!
//! 5-fold cross-validation over the application corpus: each held-out
//! application is estimated from a sparse sample of its settings, and we
//! measure the *consequences* of the residual error — server power
//! overshoot when allocating from underestimates, and performance
//! relative to the exhaustively-sampled optimal. The paper fixes 10%
//! from this experiment.

use powermed_cf::crossval::{CrossValidator, FoldModels, FoldReport};
use powermed_cf::matrix::UtilityMatrix;
use powermed_server::ServerSpec;
use powermed_units::Watts;
use powermed_workloads::catalog;
use powermed_workloads::generator::WorkloadGenerator;

use crate::support::{fold_bytes, heading, measure, par_map, pct, FNV_OFFSET};

/// Outcome at one sampling fraction.
#[derive(Debug, Clone)]
pub struct SamplePoint {
    /// Fraction of the 432-setting grid sampled online.
    pub fraction: f64,
    /// Mean relative power overshoot when the allocator trusts the
    /// estimate at a 15 W per-app budget (positive = cap violation).
    pub power_overshoot: f64,
    /// Mean performance at the chosen setting relative to the optimal
    /// (exhaustive-knowledge) choice at the same budget.
    pub perf_vs_optimal: f64,
    /// Mean power-estimation RMSE in watts (diagnostic).
    pub power_rmse: f64,
}

/// The sampling fractions swept (the paper's x-axis).
pub const FRACTIONS: [f64; 6] = [0.02, 0.05, 0.10, 0.20, 0.35, 0.50];

/// Budget at which allocation consequences are evaluated.
const BUDGET: Watts = Watts::new(15.0);

/// Builds the dense ground-truth utility matrix over the corpus
/// (catalog + perturbed variants, 24 apps total).
fn ground_truth() -> UtilityMatrix {
    let spec = ServerSpec::xeon_e5_2620();
    let mut gen = WorkloadGenerator::new(11);
    let mut profiles = catalog::all();
    profiles.extend(gen.variant_corpus(12, 0.25));
    let mut matrix = UtilityMatrix::new(spec.knob_grid().len());
    for p in &profiles {
        let m = measure(&spec, p);
        for i in 0..m.grid().len() {
            matrix.insert(p.name(), i, m.power(i), m.perf(i));
        }
    }
    matrix
}

/// Seed for the cross-validation sampler (fixed: the sweep is
/// deterministic).
const CV_SEED: u64 = 23;

/// Runs the sweep in two phases. Phase 1 fits the fold models once —
/// 10 ALS fits (5 folds × 2 channels), each a worker-pool task — then
/// phase 2 evaluates every sampling fraction against the same
/// [`FoldModels`], one fraction per task. The fits never depend on the
/// fraction, so this is result-identical to refitting inside the sweep
/// (60 fits) while doing a sixth of the work.
pub fn run() -> Vec<SamplePoint> {
    let matrix = ground_truth();
    let cv = CrossValidator::new(5);
    let fits = par_map(cv.fold_jobs(&matrix), |job| job.fit());
    let models = cv.assemble(&matrix, fits);
    par_map(FRACTIONS.to_vec(), |fraction| evaluate(&models, fraction))
}

fn evaluate(models: &FoldModels, fraction: f64) -> SamplePoint {
    score(fraction, &models.evaluate(fraction, CV_SEED))
}

/// Scores one fraction's fold reports: what happens when the allocator
/// trusts the estimated surfaces at the evaluation budget.
fn score(fraction: f64, reports: &[FoldReport]) -> SamplePoint {
    let mut overshoots = Vec::new();
    let mut perf_ratios = Vec::new();
    let mut rmses = Vec::new();
    for r in reports {
        rmses.push(r.power_rmse());
        // The allocator would pick, from the *estimated* surface, the
        // best-estimated-perf setting within the budget…
        let chosen = (0..r.power_pred.len())
            .filter(|&i| r.power_pred[i] <= BUDGET.value())
            .max_by(|&a, &b| {
                r.perf_pred[a]
                    .partial_cmp(&r.perf_pred[b])
                    .expect("finite perf")
            });
        // …and the truth determines what actually happens.
        let optimal = (0..r.power_true.len())
            .filter(|&i| r.power_true[i] <= BUDGET.value())
            .map(|i| r.perf_true[i])
            .fold(0.0f64, f64::max);
        match chosen {
            Some(i) => {
                let realized_power = r.power_true[i];
                overshoots.push(((realized_power - BUDGET.value()) / BUDGET.value()).max(0.0));
                if optimal > 0.0 {
                    perf_ratios.push(r.perf_true[i] / optimal);
                }
            }
            None => {
                overshoots.push(0.0);
                // An app with no truly-feasible setting has no defined
                // perf-vs-optimal ratio; including a hard 0.0 for it
                // (while the Some arm skips such apps) skewed the mean
                // with apples-to-oranges entries. One inclusion rule
                // for both arms: ratios exist only where an optimal
                // does.
                if optimal > 0.0 {
                    perf_ratios.push(0.0);
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    SamplePoint {
        fraction,
        power_overshoot: mean(&overshoots),
        perf_vs_optimal: mean(&perf_ratios),
        power_rmse: mean(&rmses),
    }
}

/// FNV-1a digest over every sweep value's exact bit pattern, used by
/// the `fig7 --digest` golden check in CI: any numeric drift in the
/// ALS kernels, the CV protocol or the scoring shows up as a digest
/// change.
pub fn digest(points: &[SamplePoint]) -> u64 {
    let values = points.iter().flat_map(|p| {
        [
            p.fraction,
            p.power_overshoot,
            p.perf_vs_optimal,
            p.power_rmse,
        ]
    });
    fold_bytes(FNV_OFFSET, values.flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Prints the sweep.
pub fn print() {
    heading("Fig. 7: Calibration of online sampling (5-fold CV)");
    println!(
        "{:>9} {:>16} {:>16} {:>14}",
        "fraction", "power overshoot", "perf vs optimal", "power RMSE"
    );
    for p in run() {
        println!(
            "{:>8.0}% {:>16} {:>16} {:>12.2} W",
            p.fraction * 100.0,
            pct(p.power_overshoot),
            pct(p.perf_vs_optimal),
            p.power_rmse
        );
    }
    println!("(the runtime fixes the online sampling rate at 10%)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-column-resolution report: `power_true`/`perf_true` and
    /// the predictions are given per grid cell.
    fn report(power_true: &[f64], perf_true: &[f64], power_pred: &[f64]) -> FoldReport {
        FoldReport {
            app: "fixture".into(),
            sampled_cols: vec![0],
            power_true: power_true.to_vec(),
            power_pred: power_pred.to_vec(),
            perf_true: perf_true.to_vec(),
            perf_pred: perf_true.to_vec(),
        }
    }

    #[test]
    fn infeasible_budget_apps_use_one_inclusion_rule() {
        // App A: feasible (true power under the 15 W budget), realizes
        // 80% of its optimal.
        let a = report(&[10.0, 14.0], &[8.0, 10.0], &[10.0, 14.0]);
        // App B: infeasible — no setting fits the budget even with
        // perfect knowledge (optimal = 0), and the estimate agrees
        // (chosen = None). It must not contribute a perf ratio.
        let b = report(&[20.0, 25.0], &[5.0, 9.0], &[20.0, 25.0]);
        let mixed = score(0.1, &[a.clone(), b]);
        assert_eq!(
            mixed.perf_vs_optimal, 1.0,
            "the infeasible app must not drag the mean; got {mixed:?}"
        );
        // App C: infeasible in truth but the *estimate* claims setting 0
        // fits (the Some arm). Same rule: no ratio.
        let c = report(&[20.0, 25.0], &[5.0, 9.0], &[12.0, 25.0]);
        let mixed2 = score(0.1, &[a, c]);
        assert_eq!(mixed2.perf_vs_optimal, 1.0);
        // All-infeasible: no ratios at all, mean degrades to 0 rather
        // than NaN.
        let only = score(0.1, &[report(&[20.0], &[5.0], &[20.0])]);
        assert_eq!(only.perf_vs_optimal, 0.0);
        assert!(only.perf_vs_optimal.is_finite());
    }

    #[test]
    fn digest_moves_with_any_value() {
        let p = SamplePoint {
            fraction: 0.1,
            power_overshoot: 0.01,
            perf_vs_optimal: 0.95,
            power_rmse: 1.5,
        };
        let mut q = p.clone();
        q.power_rmse += 1e-12;
        assert_ne!(digest(std::slice::from_ref(&p)), digest(&[q]));
        assert_eq!(digest(std::slice::from_ref(&p)), digest(&[p]));
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release or --ignored"]
    fn denser_sampling_tightens_power_and_perf() {
        let points = run();
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(last.power_rmse <= first.power_rmse + 1e-9);
        // Sparse sampling can exceed 100% perf-vs-optimal by choosing
        // settings whose *true* power overshoots the budget (the
        // overshoot column) — performance bought with a cap violation.
        // Discount `first` by its own overshoot before requiring the
        // denser, compliant estimate to keep up.
        assert!(
            last.perf_vs_optimal >= first.perf_vs_optimal - first.power_overshoot - 0.02,
            "dense {last:?} vs sparse {first:?}"
        );
        // At 10% sampling the system is already accurate enough.
        let ten = points.iter().find(|p| p.fraction == 0.10).unwrap();
        assert!(ten.power_overshoot < 0.05, "{ten:?}");
        assert!(ten.perf_vs_optimal > 0.9, "{ten:?}");
    }
}
