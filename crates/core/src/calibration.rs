//! Online calibration of application utility surfaces.
//!
//! When an application arrives (event E2) the runtime must learn its
//! `(power, perf)` surface. Exhaustive measurement (432 settings) is the
//! ground-truth path; the production path samples a fraction of the
//! settings (10% after Fig. 7's calibration) and completes the rest by
//! collaborative filtering against the corpus of previously-seen
//! applications.

use std::collections::BTreeSet;

use powermed_cf::als::{Completion, FitConfig, FoldedRow};
use powermed_cf::matrix::UtilityMatrix;
use powermed_cf::sampler::SparseSampler;
use powermed_profiles::{AppFingerprint, ProbeSample, StoredProfile};
use powermed_server::knobs::KnobSetting;
use powermed_server::ServerSpec;
use powermed_units::Watts;
use powermed_workloads::profile::AppProfile;

use crate::measurement::AppMeasurement;

/// The result of one online calibration, rich enough to republish to
/// the profile knowledge plane: the surface, the probe accounting, and
/// the observations + folded rows that produced it.
#[derive(Debug, Clone)]
pub struct OnlineCalibration {
    /// The completed utility surface.
    pub measurement: AppMeasurement,
    /// Settings actually probed on the server.
    pub probed: usize,
    /// Scheduled settings satisfied from the prior instead of probed.
    pub skipped: usize,
    /// Every observation backing the surface (fresh probes plus prior
    /// samples), sorted by column — the payload a store republication
    /// carries.
    pub samples: Vec<ProbeSample>,
    /// Folded-in row for the power channel (zeroed on the exhaustive
    /// fallback, where no CF model exists).
    pub power_row: FoldedRow,
    /// Folded-in row for the performance channel.
    pub perf_row: FoldedRow,
}

/// Builds [`AppMeasurement`]s, either exhaustively or by sparse sampling
/// plus collaborative filtering.
#[derive(Debug, Clone)]
pub struct Calibrator {
    spec: ServerSpec,
    /// Fraction of the knob grid measured online.
    sampling_fraction: f64,
    fit: FitConfig,
    corpus: UtilityMatrix,
    /// Fingerprints of profiles already folded into the corpus, so the
    /// same workload is never double-weighted however it arrives
    /// (catalog seeding, store-derived sparse rows, repeat seeding).
    seeded: BTreeSet<u64>,
    seed: u64,
}

impl Calibrator {
    /// Creates a calibrator measuring `sampling_fraction` of the grid
    /// online (the paper fixes 10%).
    ///
    /// # Panics
    ///
    /// Panics if `sampling_fraction` is not within `(0, 1]`.
    pub fn new(spec: ServerSpec, sampling_fraction: f64) -> Self {
        assert!(
            sampling_fraction > 0.0 && sampling_fraction <= 1.0,
            "sampling fraction in (0, 1]"
        );
        let columns = spec.knob_grid().len();
        Self {
            spec,
            sampling_fraction,
            fit: FitConfig::default(),
            corpus: UtilityMatrix::new(columns),
            seeded: BTreeSet::new(),
            seed: 17,
        }
    }

    /// The configured sampling fraction.
    pub fn sampling_fraction(&self) -> f64 {
        self.sampling_fraction
    }

    /// Number of previously-seen applications in the corpus.
    pub fn corpus_size(&self) -> usize {
        self.corpus.app_count()
    }

    /// Memoization key for the corpus completion models: the exact
    /// corpus content plus every [`FitConfig`] field. Two calibrators
    /// with equal keys would fit bit-identical `(power, perf)` model
    /// pairs, so the pair can be shared through the measurement cache.
    fn corpus_model_key(&self) -> u64 {
        let mut h = self.corpus.content_fingerprint();
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.fit.factors as u64);
        mix(self.fit.lambda.to_bits());
        mix(self.fit.sweeps as u64);
        mix(self.fit.seed);
        h
    }

    /// Adds a fully measured application to the corpus (dense row).
    pub fn add_to_corpus(&mut self, m: &AppMeasurement) {
        for (i, _) in m.grid().iter().enumerate() {
            self.corpus.insert(m.name(), i, m.power(i), m.perf(i));
        }
    }

    /// Seeds the corpus by exhaustively profiling `profiles` (the
    /// "previously seen applications" the paper's matrix starts with).
    /// Profiles whose fingerprint is already in the corpus — under any
    /// name, through any seeding path — are skipped, so repeat seeding
    /// never double-weights a workload's row in the completion model.
    pub fn seed_corpus(&mut self, profiles: &[AppProfile]) {
        // The cached surface is exactly `AppMeasurement::exhaustive`
        // for any profile (nominal intensity, phases ignored), so the
        // corpus can always share it.
        for p in profiles {
            if !self.seeded.insert(AppFingerprint::of(p).value()) {
                continue;
            }
            let m = crate::cache::MeasurementCache::global().measure(&self.spec, p);
            self.add_to_corpus(&m);
        }
    }

    /// Seeds the corpus with a *sparse* row from the profile knowledge
    /// plane: measured `(column, power, perf)` samples for a workload
    /// identified only by fingerprint. Returns `false` (and does
    /// nothing) when that fingerprint is already represented, so a
    /// store-derived row and a catalog row for the same workload
    /// collapse to one.
    pub fn seed_sparse_row(
        &mut self,
        fingerprint: AppFingerprint,
        samples: &[ProbeSample],
    ) -> bool {
        if samples.is_empty() || !self.seeded.insert(fingerprint.value()) {
            return false;
        }
        let name = format!("store:{fingerprint}");
        for s in samples {
            self.corpus
                .insert(&name, s.col, Watts::new(s.power_w), s.perf);
        }
        true
    }

    /// Ground-truth calibration: probe every grid setting.
    pub fn calibrate_exhaustive(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> (Watts, f64),
    ) -> AppMeasurement {
        self.try_calibrate_exhaustive(name, min_cores, |knob| Some(probe(knob)))
            .expect("infallible probe")
    }

    /// Fallible ground-truth calibration: probe every grid setting, or
    /// return `None` as soon as one probe fails (the application
    /// departed mid-calibration). No partial surface is produced.
    pub fn try_calibrate_exhaustive(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<AppMeasurement> {
        let grid = self.spec.knob_grid();
        let mut power = Vec::with_capacity(grid.len());
        let mut perf = Vec::with_capacity(grid.len());
        for knob in grid.iter() {
            let (p, q) = probe(knob)?;
            power.push(p);
            perf.push(q);
        }
        Some(AppMeasurement::from_vectors(
            name, grid, power, perf, min_cores,
        ))
    }

    /// Online calibration: probe `sampling_fraction` of the grid and
    /// estimate the rest by collaborative filtering against the corpus.
    ///
    /// Falls back to exhaustive calibration when the corpus has fewer
    /// than two applications (nothing to collaborate with).
    ///
    /// Returns the surface plus the number of settings actually probed.
    pub fn calibrate_online(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> (Watts, f64),
    ) -> (AppMeasurement, usize) {
        self.try_calibrate_online(name, min_cores, |knob| Some(probe(knob)))
            .expect("infallible probe")
    }

    /// Fallible online calibration: like [`Self::calibrate_online`] but
    /// returns `None` as soon as one probe fails (the application
    /// departed mid-calibration). No partial surface is produced.
    pub fn try_calibrate_online(
        &self,
        name: &str,
        min_cores: usize,
        probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<(AppMeasurement, usize)> {
        self.try_calibrate_online_seeded(name, min_cores, None, probe)
            .map(|oc| (oc.measurement, oc.probed))
    }

    /// Online calibration with an optional warm-start prior from the
    /// profile knowledge plane. Probe points the prior already covers
    /// are satisfied from its samples instead of being run, so a warm
    /// admission executes a strict subset of the cold probe schedule
    /// (possibly the empty subset); every prior sample also feeds the
    /// fold-in, tightening the completion beyond what the sparse
    /// schedule alone would see. With `prior = None` this is
    /// bit-identical to [`Self::try_calibrate_online`].
    pub fn try_calibrate_online_seeded(
        &self,
        name: &str,
        min_cores: usize,
        prior: Option<&StoredProfile>,
        mut probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<OnlineCalibration> {
        let grid = self.spec.knob_grid();
        let covered: std::collections::BTreeMap<usize, (f64, f64)> = prior
            .map(|p| {
                p.samples
                    .iter()
                    .filter(|s| s.col < grid.len())
                    .map(|s| (s.col, (s.power_w, s.perf)))
                    .collect()
            })
            .unwrap_or_default();
        if self.corpus.app_count() < 2 {
            // Nothing to collaborate with: exhaustive ground truth, with
            // prior-covered settings taken on faith instead of probed.
            let mut power = Vec::with_capacity(grid.len());
            let mut perf = Vec::with_capacity(grid.len());
            let mut probed = 0usize;
            for (c, knob) in grid.iter().enumerate() {
                let (p, q) = match covered.get(&c) {
                    Some(&(p, q)) => (Watts::new(p), q),
                    None => {
                        probed += 1;
                        probe(knob)?
                    }
                };
                power.push(p);
                perf.push(q);
            }
            let samples = power
                .iter()
                .zip(&perf)
                .enumerate()
                .map(|(c, (p, q))| ProbeSample {
                    col: c,
                    power_w: p.value(),
                    perf: *q,
                })
                .collect();
            let k = self.fit.factors;
            let skipped = grid.len() - probed;
            return Some(OnlineCalibration {
                measurement: AppMeasurement::from_vectors(name, grid, power, perf, min_cores),
                probed,
                skipped,
                samples,
                power_row: FoldedRow::new(0.0, vec![0.0; k]),
                perf_row: FoldedRow::new(0.0, vec![0.0; k]),
            });
        }
        let sampler = SparseSampler::new(grid.len(), self.seed);
        let cols = sampler.columns_for(self.sampling_fraction);

        let mut power_obs = Vec::with_capacity(cols.len());
        let mut perf_obs = Vec::with_capacity(cols.len());
        let mut probed = 0usize;
        let mut skipped = 0usize;
        for &c in &cols {
            let knob = grid.get(c).expect("sampled column on grid");
            let (p, q) = match covered.get(&c) {
                Some(&(p, q)) => {
                    skipped += 1;
                    (Watts::new(p), q)
                }
                None => {
                    probed += 1;
                    probe(knob)?
                }
            };
            power_obs.push((c, p.value()));
            perf_obs.push((c, q));
        }
        // Prior samples outside the schedule are extra observations for
        // free; appended after the scheduled columns so the prior-free
        // path sums in exactly the historical order.
        for (&c, &(p, q)) in &covered {
            if cols.binary_search(&c).is_err() {
                power_obs.push((c, p));
                perf_obs.push((c, q));
            }
        }

        // The fits depend only on corpus content + fit config, both of
        // which the key fingerprints exactly, so every admission against
        // an unchanged corpus (every warm re-admission, every server in
        // a sweep sharing a catalog) reuses one bit-identical pair.
        let models = crate::cache::MeasurementCache::global().completion_pair(
            self.corpus_model_key(),
            || {
                let (_, power_entries) = self.corpus.power_channel();
                let (_, perf_entries) = self.corpus.perf_channel();
                let rows = self.corpus.app_count();
                (
                    Completion::fit(rows, grid.len(), &power_entries, self.fit),
                    Completion::fit(rows, grid.len(), &perf_entries, self.fit),
                )
            },
        );
        let (power_model, perf_model) = (&models.0, &models.1);

        let power_row = power_model.fold_in(&power_obs);
        let perf_row = perf_model.fold_in(&perf_obs);
        let mut power_pred = power_model.predict_row(&power_row);
        let mut perf_pred = perf_model.predict_row(&perf_row);
        for (c, v) in &power_obs {
            power_pred[*c] = *v;
        }
        for (c, v) in &perf_obs {
            perf_pred[*c] = *v;
        }
        for v in power_pred.iter_mut().chain(perf_pred.iter_mut()) {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut samples: Vec<ProbeSample> = power_obs
            .iter()
            .zip(&perf_obs)
            .map(|(&(c, p), &(_, q))| ProbeSample {
                col: c,
                power_w: p,
                perf: q,
            })
            .collect();
        samples.sort_by_key(|s| s.col);
        let m = AppMeasurement::from_vectors(
            name,
            grid,
            power_pred.into_iter().map(Watts::new).collect(),
            perf_pred,
            min_cores,
        );
        Some(OnlineCalibration {
            measurement: m,
            probed,
            skipped,
            samples,
            power_row,
            perf_row,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::catalog;
    use powermed_workloads::generator::WorkloadGenerator;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn probe_for(profile: AppProfile) -> impl FnMut(KnobSetting) -> (Watts, f64) {
        let spec = spec();
        move |knob| {
            let op = profile.evaluate(&spec, knob);
            (op.dynamic_power, op.throughput)
        }
    }

    #[test]
    fn exhaustive_matches_direct_measurement() {
        let cal = Calibrator::new(spec(), 0.1);
        let m = cal.calibrate_exhaustive("kmeans", 4, probe_for(catalog::kmeans()));
        let direct = AppMeasurement::exhaustive(&spec(), &catalog::kmeans());
        for i in 0..m.grid().len() {
            assert_eq!(m.power(i), direct.power(i));
            assert_eq!(m.perf(i), direct.perf(i));
        }
    }

    #[test]
    fn empty_corpus_falls_back_to_exhaustive() {
        let cal = Calibrator::new(spec(), 0.1);
        let (m, probed) = cal.calibrate_online("stream", 4, probe_for(catalog::stream()));
        assert_eq!(probed, 432, "no corpus: every setting measured");
        assert_eq!(m.name(), "stream");
    }

    #[test]
    fn online_probes_only_the_sampled_fraction() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12);
        let mut count = 0usize;
        let mut probe = probe_for(catalog::stream());
        let (_, probed) = cal.calibrate_online("stream2", 4, |k| {
            count += 1;
            probe(k)
        });
        assert_eq!(probed, count);
        assert!((40..=48).contains(&count), "≈10% of 432, got {count}");
    }

    #[test]
    fn online_estimate_close_to_truth_at_ten_percent() {
        // Corpus: catalog variants (the new app itself is NOT in it).
        let mut cal = Calibrator::new(spec(), 0.1);
        let mut gen = WorkloadGenerator::new(5);
        let corpus_profiles: Vec<AppProfile> = gen.variant_corpus(24, 0.25);
        cal.seed_corpus(&corpus_profiles);

        let target = catalog::bfs();
        let truth = AppMeasurement::exhaustive(&spec(), &target);
        let (est, _) = cal.calibrate_online("bfs-new", 4, probe_for(target));

        // Relative power error averaged over the grid should be small
        // (Fig. 7: at 10% sampling the system stays within its cap).
        let mut rel_err = 0.0;
        for i in 0..truth.grid().len() {
            let t = truth.power(i).value();
            rel_err += (est.power(i).value() - t).abs() / t;
        }
        rel_err /= truth.grid().len() as f64;
        assert!(rel_err < 0.15, "mean relative power error {rel_err:.3}");
    }

    #[test]
    fn estimates_are_physical() {
        let mut cal = Calibrator::new(spec(), 0.05);
        cal.seed_corpus(&catalog::all());
        let (est, _) = cal.calibrate_online("x264-new", 4, probe_for(catalog::x264()));
        for i in 0..est.grid().len() {
            assert!(est.power(i).value() >= 0.0);
            assert!(est.perf(i) >= 0.0);
            assert!(est.power(i).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "sampling fraction")]
    fn bad_fraction_rejected() {
        let _ = Calibrator::new(spec(), 0.0);
    }

    #[test]
    fn try_exhaustive_aborts_cleanly_when_a_probe_fails() {
        let cal = Calibrator::new(spec(), 0.1);
        let mut probe = probe_for(catalog::kmeans());
        let mut calls = 0usize;
        // The app "departs" after 10 probes: no panic, no partial
        // surface — just None.
        let result = cal.try_calibrate_exhaustive("kmeans", 4, |k| {
            calls += 1;
            (calls <= 10).then(|| probe(k))
        });
        assert!(result.is_none());
        assert_eq!(calls, 11, "stops at the first failed probe");
    }

    #[test]
    fn try_online_aborts_cleanly_when_a_probe_fails() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let result = cal.try_calibrate_online("gone", 4, |_| None);
        assert!(result.is_none());
    }

    #[test]
    fn seeding_the_same_profiles_twice_does_not_duplicate_rows() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12);
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12, "repeat seeding must be a no-op");
    }

    #[test]
    fn sparse_row_and_catalog_row_for_one_workload_collapse() {
        let mut cal = Calibrator::new(spec(), 0.1);
        let fp = AppFingerprint::of(&catalog::stream());
        let samples = [ProbeSample {
            col: 0,
            power_w: 10.0,
            perf: 100.0,
        }];
        assert!(cal.seed_sparse_row(fp, &samples));
        assert_eq!(cal.corpus_size(), 1);
        // The catalog row for the same workload is skipped...
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12, "stream arrived via the store");
        // ...and so is a second copy of the sparse row.
        assert!(!cal.seed_sparse_row(fp, &samples));
    }

    #[test]
    fn empty_sparse_row_is_rejected_without_claiming_the_fingerprint() {
        let mut cal = Calibrator::new(spec(), 0.1);
        let fp = AppFingerprint::of(&catalog::bfs());
        assert!(!cal.seed_sparse_row(fp, &[]));
        assert!(cal.seed_sparse_row(
            fp,
            &[ProbeSample {
                col: 1,
                power_w: 9.0,
                perf: 50.0,
            }]
        ));
    }

    #[test]
    fn seeded_with_no_prior_matches_the_plain_online_path() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let mut probe_a = probe_for(catalog::stream());
        let (plain, probed_plain) = cal
            .try_calibrate_online("s", 4, |k| Some(probe_a(k)))
            .unwrap();
        let mut probe_b = probe_for(catalog::stream());
        let seeded = cal
            .try_calibrate_online_seeded("s", 4, None, |k| Some(probe_b(k)))
            .unwrap();
        assert_eq!(seeded.probed, probed_plain);
        assert_eq!(seeded.skipped, 0);
        for i in 0..plain.grid().len() {
            assert_eq!(plain.power(i), seeded.measurement.power(i));
            assert_eq!(plain.perf(i), seeded.measurement.perf(i));
        }
    }

    #[test]
    fn full_prior_makes_a_warm_admission_probe_nothing() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        // Cold pass: measure and keep the observations as the prior.
        let mut probe = probe_for(catalog::bfs());
        let cold = cal
            .try_calibrate_online_seeded("b", 4, None, |k| Some(probe(k)))
            .unwrap();
        assert!(cold.probed > 0);
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.clone();
        // Warm pass: every scheduled column is covered, so zero probes
        // run and the surface comes out bit-identical (the sampler is
        // deterministic, so cold and warm share one schedule).
        let warm = cal
            .try_calibrate_online_seeded("b", 4, Some(&prior), |_| {
                panic!("a fully covered admission must not probe")
            })
            .unwrap();
        assert_eq!(warm.probed, 0);
        assert_eq!(warm.skipped, cold.probed);
        for i in 0..warm.measurement.grid().len() {
            assert_eq!(warm.measurement.power(i), cold.measurement.power(i));
            assert_eq!(warm.measurement.perf(i), cold.measurement.perf(i));
        }
    }

    #[test]
    fn partial_prior_probes_only_the_uncovered_schedule() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let mut probe = probe_for(catalog::x264());
        let cold = cal
            .try_calibrate_online_seeded("x", 4, None, |k| Some(probe(k)))
            .unwrap();
        // Prior covering half the cold observations.
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.iter().step_by(2).copied().collect();
        let half = prior.samples.len();
        let mut probe2 = probe_for(catalog::x264());
        let warm = cal
            .try_calibrate_online_seeded("x", 4, Some(&prior), |k| Some(probe2(k)))
            .unwrap();
        assert_eq!(warm.skipped, half);
        assert_eq!(warm.probed, cold.probed - half);
        assert_eq!(
            warm.samples.len(),
            cold.samples.len(),
            "union of fresh + prior covers the same columns"
        );
    }

    #[test]
    fn exhaustive_fallback_honours_the_prior() {
        let cal = Calibrator::new(spec(), 0.1); // empty corpus
        let mut probe = probe_for(catalog::kmeans());
        let cold = cal
            .try_calibrate_online_seeded("k", 4, None, |k| Some(probe(k)))
            .unwrap();
        assert_eq!(cold.probed, 432);
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.clone();
        let warm = cal
            .try_calibrate_online_seeded("k", 4, Some(&prior), |_| {
                panic!("fully covered exhaustive fallback must not probe")
            })
            .unwrap();
        assert_eq!(warm.probed, 0);
        assert_eq!(warm.skipped, 432);
        for i in 0..warm.measurement.grid().len() {
            assert_eq!(warm.measurement.power(i), cold.measurement.power(i));
        }
    }

    #[test]
    fn repeated_admissions_share_one_model_fit() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let cache = crate::cache::MeasurementCache::global();
        let misses_before = cache.model_misses();
        let mut probe = probe_for(catalog::stream());
        let first = cal
            .try_calibrate_online_seeded("s1", 4, None, |k| Some(probe(k)))
            .unwrap();
        // Other tests share the global cache, so counter checks are
        // lower bounds rather than exact deltas.
        let fits_run = cache.model_misses() - misses_before;
        assert!(
            fits_run <= 1,
            "one pair fit per corpus state, got {fits_run}"
        );
        // Same corpus, different app: the pair must come from the cache
        // and the result must match the first admission bit for bit.
        let hits_before = cache.model_hits();
        let mut probe2 = probe_for(catalog::stream());
        let second = cal
            .try_calibrate_online_seeded("s2", 4, None, |k| Some(probe2(k)))
            .unwrap();
        assert!(cache.model_hits() > hits_before);
        for i in 0..first.measurement.grid().len() {
            assert_eq!(first.measurement.power(i), second.measurement.power(i));
            assert_eq!(first.measurement.perf(i), second.measurement.perf(i));
        }
        // Growing the corpus moves the key: the stale pair is not reused.
        let mut gen = WorkloadGenerator::new(3);
        cal.seed_corpus(&gen.variant_corpus(2, 0.25));
        let misses_mid = cache.model_misses();
        let mut probe3 = probe_for(catalog::stream());
        cal.try_calibrate_online_seeded("s3", 4, None, |k| Some(probe3(k)))
            .unwrap();
        assert!(cache.model_misses() > misses_mid);
    }

    #[test]
    fn try_variants_match_the_infallible_paths() {
        let cal = Calibrator::new(spec(), 0.1);
        let m = cal.calibrate_exhaustive("bfs", 4, probe_for(catalog::bfs()));
        let mut probe = probe_for(catalog::bfs());
        let t = cal
            .try_calibrate_exhaustive("bfs", 4, |k| Some(probe(k)))
            .unwrap();
        for i in 0..m.grid().len() {
            assert_eq!(m.power(i), t.power(i));
            assert_eq!(m.perf(i), t.perf(i));
        }
    }
}
