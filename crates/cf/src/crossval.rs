//! K-fold cross-validation of the online estimation pipeline (Fig. 7).
//!
//! The paper picks its 10% online sampling rate by 5-fold cross
//! validation: 80% of the applications (with exhaustive measurements)
//! train the model, and each held-out application is then estimated from
//! only a sparse sample of its own measurements. The consequence of the
//! remaining estimation error — power overshoot at the server, lost
//! performance — is what Fig. 7 plots against the sampling fraction.

use serde::{Deserialize, Serialize};

use crate::als::{Completion, FitConfig};
use crate::linalg::rmse;
use crate::matrix::UtilityMatrix;
use crate::sampler::SparseSampler;

/// The estimation outcome for one held-out application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldReport {
    /// The held-out application.
    pub app: String,
    /// Which grid columns were measured online.
    pub sampled_cols: Vec<usize>,
    /// Ground-truth power at every column (watts).
    pub power_true: Vec<f64>,
    /// Estimated power at every column (measured values pass through).
    pub power_pred: Vec<f64>,
    /// Ground-truth performance at every column.
    pub perf_true: Vec<f64>,
    /// Estimated performance at every column.
    pub perf_pred: Vec<f64>,
}

impl FoldReport {
    /// RMSE of the power estimates (watts).
    pub fn power_rmse(&self) -> f64 {
        rmse(&self.power_pred, &self.power_true)
    }

    /// RMSE of the performance estimates.
    pub fn perf_rmse(&self) -> f64 {
        rmse(&self.perf_pred, &self.perf_true)
    }

    /// Mean power *underestimation* (watts): the dangerous direction,
    /// since allocating on an underestimate overshoots the server cap.
    ///
    /// Returns 0.0 for an empty report (no grid points), mirroring the
    /// empty-input guard in [`rmse`] rather than dividing by zero.
    pub fn mean_power_underestimate(&self) -> f64 {
        if self.power_true.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .power_true
            .iter()
            .zip(&self.power_pred)
            .map(|(t, p)| (t - p).max(0.0))
            .sum();
        total / self.power_true.len() as f64
    }

    /// Worst-case power underestimation across the grid (watts).
    pub fn worst_power_underestimate(&self) -> f64 {
        self.power_true
            .iter()
            .zip(&self.power_pred)
            .map(|(t, p)| (t - p).max(0.0))
            .fold(0.0, f64::max)
    }
}

/// K-fold cross-validation driver.
#[derive(Debug, Clone)]
pub struct CrossValidator {
    folds: usize,
    fit: FitConfig,
}

impl CrossValidator {
    /// Creates a validator with `folds` folds (the paper uses 5).
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2`.
    pub fn new(folds: usize) -> Self {
        assert!(folds >= 2, "need at least two folds");
        Self {
            folds,
            fit: FitConfig::default(),
        }
    }

    /// Runs cross-validation on a **dense** utility matrix (every app
    /// measured at every column) at the given online sampling fraction.
    ///
    /// Returns one report per application (each app is held out exactly
    /// once).
    ///
    /// Convenience wrapper over the two-phase API: equivalent to
    /// `self.fit_folds(matrix).evaluate(fraction, seed)`. Callers
    /// sweeping several fractions should hold on to the
    /// [`FoldModels`] instead — the ALS fits depend only on the fold
    /// split and the fit config, not on the fraction, so refitting per
    /// fraction is pure waste.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer apps than folds, or any row is not
    /// fully dense.
    pub fn run(&self, matrix: &UtilityMatrix, fraction: f64, seed: u64) -> Vec<FoldReport> {
        self.fit_folds(matrix).evaluate(fraction, seed)
    }

    /// Phase 1, serial form: fits every fold's power/perf models.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer apps than folds, or any row is not
    /// fully dense.
    pub fn fit_folds(&self, matrix: &UtilityMatrix) -> FoldModels {
        let jobs = self.fold_jobs(matrix);
        let fits = jobs.iter().map(FoldFitJob::fit).collect();
        self.assemble(matrix, fits)
    }

    /// Phase 1, fan-out form: the independent `(fold × channel)` fit
    /// jobs backing [`Self::fit_folds`]. Run them in any order (e.g.
    /// on a worker pool — each job is `Send`), then pass the fitted
    /// models back to [`Self::assemble`] **in job order**.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer apps than folds, or any row is not
    /// fully dense.
    pub fn fold_jobs(&self, matrix: &UtilityMatrix) -> Vec<FoldFitJob> {
        let names: Vec<String> = matrix.app_names().iter().map(|s| s.to_string()).collect();
        assert!(
            names.len() >= self.folds,
            "need at least as many apps as folds"
        );
        for name in &names {
            assert_eq!(
                matrix.row_len(name),
                matrix.columns(),
                "cross-validation needs dense ground truth for {name}"
            );
        }
        let cols = matrix.columns();
        let mut jobs = Vec::with_capacity(2 * self.folds);
        for fold in 0..self.folds {
            let train: Vec<&String> = names
                .iter()
                .enumerate()
                .filter(|(i, _)| i % self.folds != fold)
                .map(|(_, n)| n)
                .collect();
            if train.len() == names.len() {
                // Empty fold: nothing held out, nothing to fit.
                continue;
            }
            let mut power_entries = Vec::new();
            let mut perf_entries = Vec::new();
            for (ri, name) in train.iter().enumerate() {
                for (c, p, q) in matrix.row(name) {
                    power_entries.push((ri, c, p.value()));
                    perf_entries.push((ri, c, q));
                }
            }
            jobs.push(FoldFitJob {
                fold,
                channel: Channel::Power,
                rows: train.len(),
                cols,
                entries: power_entries,
                fit: self.fit,
            });
            jobs.push(FoldFitJob {
                fold,
                channel: Channel::Perf,
                rows: train.len(),
                cols,
                entries: perf_entries,
                fit: self.fit,
            });
        }
        jobs
    }

    /// Phase 1 completion: pairs the fitted models (in
    /// [`Self::fold_jobs`] order) with each fold's held-out ground
    /// truth, producing a reusable [`FoldModels`].
    ///
    /// # Panics
    ///
    /// Panics if `fits` does not line up with this validator's jobs for
    /// `matrix` (wrong length), or the matrix fails the density checks.
    pub fn assemble(&self, matrix: &UtilityMatrix, mut fits: Vec<Completion>) -> FoldModels {
        let names: Vec<String> = matrix.app_names().iter().map(|s| s.to_string()).collect();
        assert!(
            names.len() >= self.folds,
            "need at least as many apps as folds"
        );
        let mut slots = Vec::with_capacity(self.folds);
        let mut drain = fits.drain(..);
        for fold in 0..self.folds {
            let held_out: Vec<HeldOutApp> = names
                .iter()
                .enumerate()
                .filter(|(i, _)| i % self.folds == fold)
                .map(|(_, name)| {
                    let row = matrix.row(name);
                    HeldOutApp {
                        name: name.clone(),
                        power_true: row.iter().map(|(_, p, _)| p.value()).collect(),
                        perf_true: row.iter().map(|(_, _, q)| *q).collect(),
                    }
                })
                .collect();
            if held_out.is_empty() {
                continue;
            }
            let power_model = drain.next().expect("one power fit per non-empty fold");
            let perf_model = drain.next().expect("one perf fit per non-empty fold");
            slots.push(FoldSlot {
                power_model,
                perf_model,
                held_out,
            });
        }
        assert!(
            drain.next().is_none(),
            "more fits than folds: fit list does not match fold_jobs order"
        );
        drop(drain);
        FoldModels {
            columns: matrix.columns(),
            slots,
        }
    }
}

/// Which estimation channel a [`FoldFitJob`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The power surface (watts).
    Power,
    /// The performance surface.
    Perf,
}

/// One independent ALS fit of a fold's training rows for one channel.
///
/// Produced by [`CrossValidator::fold_jobs`]; `Send`, so the
/// `(fold × channel)` fits can fan out across a worker pool and be
/// reassembled with [`CrossValidator::assemble`].
#[derive(Debug, Clone)]
pub struct FoldFitJob {
    /// The fold whose training rows this job fits.
    pub fold: usize,
    /// The channel this job trains.
    pub channel: Channel,
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
    fit: FitConfig,
}

impl FoldFitJob {
    /// Runs the ALS fit (the expensive part of cross-validation).
    pub fn fit(&self) -> Completion {
        Completion::fit(self.rows, self.cols, &self.entries, self.fit)
    }
}

/// One fold's held-out application with its dense ground truth.
#[derive(Debug, Clone)]
struct HeldOutApp {
    name: String,
    power_true: Vec<f64>,
    perf_true: Vec<f64>,
}

/// One fold's fitted channel models plus its held-out ground truth.
#[derive(Debug, Clone)]
struct FoldSlot {
    power_model: Completion,
    perf_model: Completion,
    held_out: Vec<HeldOutApp>,
}

/// Phase-1 output of cross-validation: the per-fold ALS fits, reusable
/// across sampling fractions.
///
/// The fits depend only on the fold split and the [`FitConfig`] — never
/// on the sampling fraction — so a fraction sweep evaluates one
/// `FoldModels` at each fraction instead of refitting
/// `folds × channels` models per point (fig7's 6-fraction sweep: 10
/// fits instead of 60).
#[derive(Debug, Clone)]
pub struct FoldModels {
    columns: usize,
    slots: Vec<FoldSlot>,
}

impl FoldModels {
    /// Number of fitted `(fold × channel)` models held.
    pub fn model_count(&self) -> usize {
        2 * self.slots.len()
    }

    /// Phase 2: evaluates the held-out applications at one sampling
    /// fraction — fold-in from the sampled columns, fused predict,
    /// measured pass-through, physical floor. Cheap relative to the
    /// fits; bit-identical to the historical single-phase
    /// [`CrossValidator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn evaluate(&self, fraction: f64, seed: u64) -> Vec<FoldReport> {
        let sampler = SparseSampler::new(self.columns, seed);
        let sampled_cols = sampler.columns_for(fraction);

        let mut reports = Vec::with_capacity(self.slots.iter().map(|s| s.held_out.len()).sum());
        for slot in &self.slots {
            for app in &slot.held_out {
                let power_obs: Vec<(usize, f64)> = sampled_cols
                    .iter()
                    .map(|&c| (c, app.power_true[c]))
                    .collect();
                let perf_obs: Vec<(usize, f64)> = sampled_cols
                    .iter()
                    .map(|&c| (c, app.perf_true[c]))
                    .collect();

                let mut power_pred = slot
                    .power_model
                    .predict_row(&slot.power_model.fold_in(&power_obs));
                let mut perf_pred = slot
                    .perf_model
                    .predict_row(&slot.perf_model.fold_in(&perf_obs));
                // Measured settings are known exactly: pass them through.
                for &c in &sampled_cols {
                    power_pred[c] = app.power_true[c];
                    perf_pred[c] = app.perf_true[c];
                }
                // Physical floor: neither power nor perf can be negative.
                for v in power_pred.iter_mut().chain(perf_pred.iter_mut()) {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }

                reports.push(FoldReport {
                    app: app.name.clone(),
                    sampled_cols: sampled_cols.clone(),
                    power_true: app.power_true.clone(),
                    power_pred,
                    perf_true: app.perf_true.clone(),
                    perf_pred,
                });
            }
        }
        reports
    }
}

/// Aggregates fold reports into mean power RMSE, mean underestimation and
/// mean perf RMSE — the summary series plotted in Fig. 7.
pub fn summarize(reports: &[FoldReport]) -> (f64, f64, f64) {
    if reports.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = reports.len() as f64;
    let power_rmse = reports.iter().map(FoldReport::power_rmse).sum::<f64>() / n;
    let under = reports
        .iter()
        .map(FoldReport::mean_power_underestimate)
        .sum::<f64>()
        / n;
    let perf_rmse = reports.iter().map(FoldReport::perf_rmse).sum::<f64>() / n;
    (power_rmse, under, perf_rmse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_units::Watts;

    /// A synthetic dense matrix with low-rank structure: app i has
    /// "compute affinity" a_i and "memory affinity" b_i; column c has
    /// compute/memory content.
    fn synthetic_matrix(apps: usize, cols: usize) -> UtilityMatrix {
        let mut m = UtilityMatrix::new(cols);
        for i in 0..apps {
            let a = 1.0 + 0.2 * i as f64;
            let b = 0.5 + 0.35 * ((i * 7) % 5) as f64;
            for c in 0..cols {
                let fc = (c as f64 / cols as f64) * 2.0 + 0.5;
                let mc = ((c % 8) as f64) / 8.0 + 0.3;
                let power = 3.0 + a * fc * fc + b * mc * 4.0;
                let perf = 10.0 * (a * fc).min(b * mc * 10.0) + a;
                m.insert(&format!("app{i}"), c, Watts::new(power), perf);
            }
        }
        m
    }

    #[test]
    fn runs_one_report_per_app() {
        let m = synthetic_matrix(10, 40);
        let cv = CrossValidator::new(5);
        let reports = cv.run(&m, 0.2, 3);
        assert_eq!(reports.len(), 10);
        let mut apps: Vec<&str> = reports.iter().map(|r| r.app.as_str()).collect();
        apps.sort();
        apps.dedup();
        assert_eq!(apps.len(), 10, "each app held out exactly once");
    }

    #[test]
    fn error_shrinks_with_sampling_fraction() {
        let m = synthetic_matrix(10, 48);
        let cv = CrossValidator::new(5);
        let sparse = summarize(&cv.run(&m, 0.05, 3));
        let dense = summarize(&cv.run(&m, 0.5, 3));
        assert!(
            dense.0 <= sparse.0 + 1e-9,
            "power RMSE: 50% sampling ({}) should beat 5% ({})",
            dense.0,
            sparse.0
        );
    }

    #[test]
    fn sampled_columns_pass_through_exactly() {
        let m = synthetic_matrix(6, 24);
        let cv = CrossValidator::new(3);
        let reports = cv.run(&m, 0.25, 1);
        for r in &reports {
            for &c in &r.sampled_cols {
                assert_eq!(r.power_pred[c], r.power_true[c]);
                assert_eq!(r.perf_pred[c], r.perf_true[c]);
            }
        }
    }

    #[test]
    fn underestimate_metrics_nonnegative() {
        let m = synthetic_matrix(8, 32);
        let cv = CrossValidator::new(4);
        for r in cv.run(&m, 0.1, 2) {
            assert!(r.mean_power_underestimate() >= 0.0);
            assert!(r.worst_power_underestimate() >= r.mean_power_underestimate());
        }
    }

    #[test]
    fn full_sampling_is_exact() {
        let m = synthetic_matrix(6, 24);
        let cv = CrossValidator::new(3);
        let reports = cv.run(&m, 1.0, 1);
        let (power_rmse, under, perf_rmse) = summarize(&reports);
        assert!(power_rmse < 1e-9);
        assert!(under < 1e-9);
        assert!(perf_rmse < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dense ground truth")]
    fn sparse_ground_truth_rejected() {
        let mut m = UtilityMatrix::new(4);
        m.insert("a", 0, Watts::new(1.0), 1.0);
        m.insert("b", 0, Watts::new(1.0), 1.0);
        let _ = CrossValidator::new(2).run(&m, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_rejected() {
        let _ = CrossValidator::new(1);
    }

    #[test]
    fn summarize_empty_is_zero() {
        assert_eq!(summarize(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn empty_report_metrics_are_zero_not_nan() {
        let r = FoldReport {
            app: "ghost".to_string(),
            sampled_cols: Vec::new(),
            power_true: Vec::new(),
            power_pred: Vec::new(),
            perf_true: Vec::new(),
            perf_pred: Vec::new(),
        };
        // A degenerate report must not poison a summary with NaN.
        assert_eq!(r.mean_power_underestimate(), 0.0);
        assert_eq!(r.worst_power_underestimate(), 0.0);
        assert_eq!(r.power_rmse(), 0.0);
        assert_eq!(r.perf_rmse(), 0.0);
        let (power_rmse, under, perf_rmse) = summarize(&[r]);
        assert_eq!((power_rmse, under, perf_rmse), (0.0, 0.0, 0.0));
    }

    #[test]
    fn two_phase_api_is_bit_identical_to_run() {
        let m = synthetic_matrix(10, 40);
        let cv = CrossValidator::new(5);
        let models = cv.fit_folds(&m);
        assert_eq!(models.model_count(), 10, "5 folds × 2 channels");
        for fraction in [0.05, 0.2, 0.5] {
            let single = cv.run(&m, fraction, 23);
            let phased = models.evaluate(fraction, 23);
            assert_eq!(single.len(), phased.len());
            for (a, b) in single.iter().zip(&phased) {
                assert_eq!(a, b, "fraction {fraction}: reports drifted");
            }
        }
    }

    #[test]
    fn fold_jobs_roundtrip_through_assemble() {
        let m = synthetic_matrix(8, 32);
        let cv = CrossValidator::new(4);
        let jobs = cv.fold_jobs(&m);
        assert_eq!(jobs.len(), 8, "4 folds × 2 channels");
        assert!(jobs.chunks(2).all(|pair| pair[0].fold == pair[1].fold
            && pair[0].channel == Channel::Power
            && pair[1].channel == Channel::Perf));
        // Fitting the jobs independently (as a worker pool would) and
        // reassembling matches the serial phase-1 output exactly.
        let fits: Vec<Completion> = jobs.iter().map(FoldFitJob::fit).collect();
        let assembled = cv.assemble(&m, fits).evaluate(0.1, 2);
        let serial = cv.fit_folds(&m).evaluate(0.1, 2);
        assert_eq!(assembled, serial);
    }

    #[test]
    #[should_panic(expected = "does not match fold_jobs")]
    fn assemble_rejects_extra_fits() {
        let m = synthetic_matrix(6, 24);
        let cv = CrossValidator::new(3);
        let mut fits: Vec<Completion> = cv.fold_jobs(&m).iter().map(FoldFitJob::fit).collect();
        fits.push(fits[0].clone());
        let _ = cv.assemble(&m, fits);
    }
}
