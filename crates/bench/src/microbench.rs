//! Kernel-level microbenchmarks for the mediator's hot paths, persisted
//! to `BENCH_harness.json` (`powermed-bench microbench`).
//!
//! [`run`] times every kernel with a plain wall-clock timer (a short
//! warm-up sizes the iteration count, then one measured batch) and
//! writes each mean seconds-per-iteration into a `microbench` section of
//! the harness document, so kernel-level regressions are visible in the
//! committed numbers next to the experiment wall clocks:
//!
//! * `als_fit_corpus_12x432` — one full [`Completion::fit`] over the
//!   12-app catalog corpus (the unit the fold-model cache saves);
//! * `fold_in_predict_10pct` — per-arrival fold-in plus fused row
//!   prediction at the production 10% sampling rate (event E2's kernel);
//! * `sparse_sampler_10pct_of_432` — drawing that 10% probe schedule;
//! * `utility_curve_build_30w` — one app's utility curve up to 30 W;
//! * `exhaustive_measurement_432` — one exhaustive 432-point surface;
//! * `dp_apportion_6apps` — one DP apportionment over six apps (the
//!   allocator work on every re-allocation event);
//! * `dp_apportion_with_cores_3apps` — the same DP with a 12-core budget;
//! * `slo_plan_two_apps` — one SLO plan for a latency-critical app
//!   beside a batch app;
//! * `cluster_dp_ten_servers` — the manager's cap apportionment over
//!   ten server value curves;
//! * `disagg_solve_{8,32,128}apps` — one constrained least-squares
//!   disaggregation solve (the estimated-power stack's per-poll
//!   kernel) at three app counts;
//! * `traffic_gen_1day` — one full compressed day of open-loop arrival
//!   generation for a two-app server (the per-step cost `ext_traffic`
//!   pays on every simulated server);
//! * `demand_agg_128apps` — one generate-and-serve step across 128
//!   apps (the aggregation scaling bound for consolidated fleets);
//! * `journal_digest_encode_1k` — one bounded digest extraction over a
//!   1k-record journal that has never shipped (the encode cost a server
//!   pays the first time its records go out on an uplink; each
//!   iteration clones the cold journal, and the clone is timed too);
//! * `journal_digest_reship_1k` — the same extraction once every
//!   record's wire cost is memoized (the cost of re-shipping an
//!   unacknowledged backlog);
//! * `fleet_merge_10x64` — one manager fold wave: ten servers' digests
//!   of 64 records each merged into a fresh fleet timeline;
//! * `profile_merge_identical` — a 16-entry profile store's digests
//!   merged into an identical replica (the per-wave agent path of the
//!   knowledge plane once the fleet has converged);
//! * `raw_sim_step_two_apps` — one unmediated simulator step;
//! * `mediated_step_app_res_aware` / `mediated_step_esd_cycle` — one
//!   mediated control step without and with a battery to cycle;
//! * `admit_with_exhaustive_calibration` — one calibrated admission
//!   into a fresh server.
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::support::{json_object, merge_harness, DT};
use powermed_cf::als::{Completion, FitConfig};
use powermed_cf::sampler::SparseSampler;
use powermed_cf::FoldedRow;
use powermed_cluster::manager::ClusterManager;
use powermed_core::allocator::PowerAllocator;
use powermed_core::measurement::AppMeasurement;
use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_core::slo::SloPlanner;
use powermed_core::utility::UtilityCurve;
use powermed_disagg::{solve_shares, AppPrior};
use powermed_esd::{LeadAcidBattery, NoEsd};
use powermed_profiles::{
    AppFingerprint, ProbeSample, ProfileDigest, ProfileStore, Provenance, StoredProfile,
};
use powermed_server::{KnobSetting, ServerSpec};
use powermed_sim::engine::ServerSim;
use powermed_telemetry::journal::{EventJournal, FleetTimeline, JournalDigest, ObsEvent};
use powermed_traffic::source::{TrafficConfig, TrafficSource};
use powermed_units::Seconds;
use powermed_units::Watts;
use powermed_workloads::{catalog, mixes};

const WARMUP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_millis(600);

/// Runs kernel bodies and collects `(name, mean seconds per iteration)`
/// in execution order. A `once` timer calls each body a single time
/// without timing it and records the name with `0.0`.
struct Timer {
    once: bool,
    results: Vec<(String, f64)>,
}

impl Timer {
    fn time<R>(&mut self, name: &str, mut body: impl FnMut() -> R) {
        if self.once {
            black_box(body());
            self.results.push((name.to_string(), 0.0));
            return;
        }
        let warm = Instant::now();
        let mut warm_iters = 0u64;
        while warm.elapsed() < WARMUP {
            black_box(body());
            warm_iters += 1;
        }
        let per_iter = warm.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((MEASURE.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(body());
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        println!("{name:<44} {:>12.3} µs/iter  ({iters} iters)", secs * 1e6);
        self.results.push((name.to_string(), secs));
    }
}

/// Synthetic priors for the disaggregation-solve kernel: varied
/// predictions and sigmas, with the meter budget 10% below the prior
/// sum so the correction and clamping paths both run.
fn disagg_case(n: usize) -> (f64, Vec<AppPrior>) {
    let priors: Vec<AppPrior> = (0..n)
        .map(|i| AppPrior {
            name: format!("app{i}"),
            predicted_w: 5.0 + (i % 7) as f64,
            sigma_w: 0.5 + 0.1 * (i % 3) as f64,
        })
        .collect();
    let total = 0.9 * priors.iter().map(|p| p.predicted_w).sum::<f64>();
    (total, priors)
}

/// Runs every kernel and merges the mean seconds per iteration into the
/// `microbench` section.
pub fn run() {
    let mut timer = Timer {
        once: false,
        results: Vec::new(),
    };
    kernels(&mut timer);
    let fields: Vec<(String, String)> = timer
        .results
        .iter()
        .map(|(name, secs)| (name.clone(), format!("{secs:.9}")))
        .collect();
    merge_harness(
        vec![
            ("microbench", json_object(&fields)),
            ("microbench_unit", "\"seconds_per_iteration\"".to_string()),
        ],
        "merged microbench into BENCH_harness.json",
    );
}

/// Builds each kernel's inputs and hands its body to `timer`.
fn kernels(timer: &mut Timer) {
    let spec = ServerSpec::xeon_e5_2620();
    let apps: Vec<AppMeasurement> = catalog::all()
        .iter()
        .map(|p| AppMeasurement::exhaustive(&spec, p))
        .collect();
    let cols = spec.knob_grid().len();
    let mut entries = Vec::new();
    for (r, m) in apps.iter().enumerate() {
        for c in 0..cols {
            entries.push((r, c, m.power(c).value()));
        }
    }
    let cfg = FitConfig::default();

    timer.time("als_fit_corpus_12x432", || {
        Completion::fit(apps.len(), cols, &entries, cfg)
    });

    let model = Completion::fit(apps.len(), cols, &entries, cfg);
    let sampler = SparseSampler::new(cols, 3);
    let sampled = sampler.columns_for(0.10);
    let observed: Vec<(usize, f64)> = sampled.iter().map(|&c| (c, 8.0)).collect();
    timer.time("fold_in_predict_10pct", || {
        model.predict_row(&model.fold_in(&observed))
    });
    timer.time("sparse_sampler_10pct_of_432", || sampler.columns_for(0.10));

    let family = apps[0].feasible_indices();
    timer.time("utility_curve_build_30w", || {
        UtilityCurve::build(&apps[0], &family, Watts::new(30.0), Watts::new(1.0))
    });
    let bfs = catalog::bfs();
    timer.time("exhaustive_measurement_432", || {
        AppMeasurement::exhaustive(&spec, &bfs)
    });

    let slice: Vec<(&AppMeasurement, Option<&[usize]>)> =
        apps.iter().take(6).map(|m| (m, None)).collect();
    let alloc = PowerAllocator::default();
    timer.time("dp_apportion_6apps", || {
        alloc.apportion(&slice, Watts::new(30.0))
    });
    timer.time("dp_apportion_with_cores_3apps", || {
        alloc.apportion_with_cores(&slice[..3], Watts::new(40.0), 12)
    });

    let planner = SloPlanner::new(spec.clone());
    let lc = AppMeasurement::exhaustive(&spec, &catalog::x264().with_slo(0.8));
    let pair = [("x264", &lc), ("bfs", &apps[2])];
    timer.time("slo_plan_two_apps", || {
        planner.plan(&pair, Watts::new(95.0))
    });

    let vals = [
        0.00, 0.07, 0.13, 0.21, 0.28, 0.36, 0.44, 0.53, 0.58, 0.77, 0.90, 0.99, 1.00, 1.00,
    ];
    let curve: Vec<(Watts, f64)> = ClusterManager::candidate_caps().zip(vals).collect();
    let curves = vec![curve; 10];
    timer.time("cluster_dp_ten_servers", || {
        ClusterManager::apportion_cluster(&curves, Watts::new(900.0))
    });

    for n in [8usize, 32, 128] {
        let (total, priors) = disagg_case(n);
        timer.time(&format!("disagg_solve_{n}apps"), || {
            solve_shares(total, &priors)
        });
    }

    // One compressed traffic day of arrival generation for a two-app
    // server: the fixed per-server cost every `ext_traffic` cell pays.
    let two_apps = vec![("front".to_string(), 4000.0), ("batch".to_string(), 9000.0)];
    let day_steps = (TrafficConfig::default().day.value() / DT.value()).round() as u64;
    timer.time("traffic_gen_1day", || {
        let mut source = TrafficSource::new(TrafficConfig::default(), &two_apps);
        for step in 0..day_steps {
            source.begin_step(Seconds::new(step as f64 * DT.value()), DT);
        }
        source.stats().requests
    });

    // One generate-and-serve step across 128 apps: how demand
    // aggregation scales with consolidation.
    let many_apps: Vec<(String, f64)> = (0..128)
        .map(|i| (format!("svc{i:03}"), 2000.0 + 50.0 * i as f64))
        .collect();
    let mut wide = TrafficSource::new(TrafficConfig::default(), &many_apps);
    let mut step = 0u64;
    timer.time("demand_agg_128apps", || {
        step += 1;
        let now = Seconds::new(step as f64 * DT.value());
        wide.begin_step(now, DT);
        let mut served = 0.0;
        for (name, capacity) in &many_apps {
            served += wide.serve(name, capacity * DT.value(), now);
        }
        served
    });

    // One bounded digest extraction over a 1k-record journal under the
    // default 8 KiB budget. A journal memoizes each record's wire cost
    // the first time a digest reaches it, so the cold case extracts
    // from a fresh clone of a never-shipped journal every iteration and
    // the re-ship case extracts from a warmed one.
    let mut journal = EventJournal::new(2048);
    for i in 0..1000u64 {
        journal.record(
            Seconds::new(i as f64 * 0.5),
            i,
            1,
            ObsEvent::Poll {
                alloc_w: 80.0,
                net_w: 85.0 + (i % 7) as f64,
                observed_w: Some(85.0),
                cap_w: 90.0,
                over_cap: i % 7 == 0,
            },
        );
    }
    timer.time("journal_digest_encode_1k", || {
        journal.clone().digest_since(3, 0, 8192)
    });
    journal.digest_since(3, 0, 8192);
    timer.time("journal_digest_reship_1k", || {
        journal.digest_since(3, 0, 8192)
    });

    // One manager fold wave: ten servers' digests of 64 records each
    // merged into a fresh fleet timeline (the per-step cost of the
    // manager's uplink fold at full fleet width).
    let digests: Vec<JournalDigest> = (0..10u64)
        .map(|s| {
            let mut j = EventJournal::new(128);
            for i in 0..64u64 {
                j.record(
                    Seconds::new(i as f64 * 0.5),
                    i,
                    1,
                    ObsEvent::UplinkSent {
                        server: s as usize,
                        step: i,
                    },
                );
            }
            j.digest_since(s, 0, usize::MAX)
        })
        .collect();
    timer.time("fleet_merge_10x64", || {
        let mut timeline = FleetTimeline::new();
        for d in &digests {
            timeline.merge_digest(d);
        }
        timeline.len()
    });

    // The knowledge plane's per-wave agent path: a 16-entry store's
    // digests (10% probe schedules, rank-4 folded rows) merged into an
    // identical replica, where every merge is a tie.
    let profiles: Vec<ProfileDigest> = (0..16u64)
        .map(|i| ProfileDigest {
            fingerprint: AppFingerprint::from_raw(i),
            profile: StoredProfile {
                version: 1,
                confidence: 0.9,
                samples: sampled
                    .iter()
                    .map(|&col| ProbeSample {
                        col,
                        power_w: 10.0 + i as f64 + col as f64 * 0.01,
                        perf: 100.0 + col as f64,
                    })
                    .collect(),
                power_row: FoldedRow::new(0.5, vec![0.1 * i as f64; 4]),
                perf_row: FoldedRow::new(-0.5, vec![0.2; 4]),
                provenance: Provenance {
                    server: i % 10,
                    epoch: 3,
                    probes: sampled.len() as u64,
                },
            },
        })
        .collect();
    let mut replica = ProfileStore::default();
    replica.merge_digests(&profiles);
    timer.time("profile_merge_identical", || {
        replica.merge_digests(&profiles)
    });

    let mix1 = mixes::mix(1).unwrap();
    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
    let knob = KnobSetting::max_for(&spec).with_cores(4);
    for app in mix1.apps() {
        sim.host(app.clone(), knob).unwrap();
    }
    timer.time("raw_sim_step_two_apps", || sim.step(DT));

    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), Watts::new(100.0));
    for app in mixes::mix(10).unwrap().apps() {
        med.admit(&mut sim, app.clone()).unwrap();
    }
    timer.time("mediated_step_app_res_aware", || med.step(&mut sim, DT));

    let battery = LeadAcidBattery::server_ups().with_soc(0.5);
    let mut sim = ServerSim::new(spec.clone(), Box::new(battery));
    let mut med = PowerMediator::new(PolicyKind::AppResEsdAware, spec.clone(), Watts::new(80.0));
    for app in mix1.apps() {
        med.admit(&mut sim, app.clone()).unwrap();
    }
    timer.time("mediated_step_esd_cycle", || med.step(&mut sim, DT));

    timer.time("admit_with_exhaustive_calibration", || {
        let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
        let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), Watts::new(100.0));
        med.admit(&mut sim, mix1.app1.clone()).unwrap();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_once_under_its_harness_name() {
        let mut timer = Timer {
            once: true,
            results: Vec::new(),
        };
        kernels(&mut timer);
        let names: Vec<&str> = timer.results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "als_fit_corpus_12x432",
                "fold_in_predict_10pct",
                "sparse_sampler_10pct_of_432",
                "utility_curve_build_30w",
                "exhaustive_measurement_432",
                "dp_apportion_6apps",
                "dp_apportion_with_cores_3apps",
                "slo_plan_two_apps",
                "cluster_dp_ten_servers",
                "disagg_solve_8apps",
                "disagg_solve_32apps",
                "disagg_solve_128apps",
                "traffic_gen_1day",
                "demand_agg_128apps",
                "journal_digest_encode_1k",
                "journal_digest_reship_1k",
                "fleet_merge_10x64",
                "profile_merge_identical",
                "raw_sim_step_two_apps",
                "mediated_step_app_res_aware",
                "mediated_step_esd_cycle",
                "admit_with_exhaustive_calibration",
            ]
        );
    }
}
