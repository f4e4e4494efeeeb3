//! Kernel-level microbenchmarks for the calibration hot paths, persisted
//! to `BENCH_harness.json` (`powermed-bench microbench`).
//!
//! The criterion benches under `benches/` print to stdout and vanish;
//! [`run`] runs the same three kernels through the vendored
//! criterion shim and writes each mean seconds-per-iteration into a
//! `microbench` section of the harness document, so kernel-level
//! regressions are visible in the committed numbers next to the
//! experiment wall clocks:
//!
//! * `als_fit_corpus_12x432` — one full [`Completion::fit`] over the
//!   12-app catalog corpus (the unit the fold-model cache saves);
//! * `fold_in_predict_10pct` — per-arrival fold-in plus fused row
//!   prediction at the production 10% sampling rate (event E2's kernel);
//! * `dp_apportion_6apps` — one DP apportionment over six apps (the
//!   allocator work on every re-allocation event);
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
//!   of 64 records each merged into a fresh fleet timeline.
use crate::support::{json_object, merge_harness, DT};
use criterion::Criterion;
use powermed_cf::als::{Completion, FitConfig};
use powermed_cf::sampler::SparseSampler;
use powermed_core::allocator::PowerAllocator;
use powermed_core::measurement::AppMeasurement;
use powermed_disagg::{solve_shares, AppPrior};
use powermed_server::ServerSpec;
use powermed_telemetry::journal::{EventJournal, FleetTimeline, JournalDigest, ObsEvent};
use powermed_traffic::source::{TrafficConfig, TrafficSource};
use powermed_units::Seconds;
use powermed_units::Watts;
use powermed_workloads::catalog;

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

    let mut crit = Criterion::default();
    crit.bench_function("als_fit_corpus_12x432", |b| {
        b.iter(|| Completion::fit(apps.len(), cols, &entries, cfg))
    });

    let model = Completion::fit(apps.len(), cols, &entries, cfg);
    let sampled = SparseSampler::new(cols, 3).columns_for(0.10);
    let observed: Vec<(usize, f64)> = sampled.iter().map(|&c| (c, 8.0)).collect();
    crit.bench_function("fold_in_predict_10pct", |b| {
        b.iter(|| model.predict_row(&model.fold_in(&observed)))
    });

    let slice: Vec<(&AppMeasurement, Option<&[usize]>)> =
        apps.iter().take(6).map(|m| (m, None)).collect();
    let alloc = PowerAllocator::default();
    crit.bench_function("dp_apportion_6apps", |b| {
        b.iter(|| alloc.apportion(&slice, Watts::new(30.0)))
    });

    for n in [8usize, 32, 128] {
        let (total, priors) = disagg_case(n);
        crit.bench_function(&format!("disagg_solve_{n}apps"), |b| {
            b.iter(|| solve_shares(total, &priors))
        });
    }

    // One compressed traffic day of arrival generation for a two-app
    // server: the fixed per-server cost every `ext_traffic` cell pays.
    let two_apps = vec![("front".to_string(), 4000.0), ("batch".to_string(), 9000.0)];
    let day_steps = (TrafficConfig::default().day.value() / DT.value()).round() as u64;
    crit.bench_function("traffic_gen_1day", |b| {
        b.iter(|| {
            let mut source = TrafficSource::new(TrafficConfig::default(), &two_apps);
            for step in 0..day_steps {
                source.begin_step(Seconds::new(step as f64 * DT.value()), DT);
            }
            source.stats().requests
        })
    });

    // One generate-and-serve step across 128 apps: how demand
    // aggregation scales with consolidation.
    let many_apps: Vec<(String, f64)> = (0..128)
        .map(|i| (format!("svc{i:03}"), 2000.0 + 50.0 * i as f64))
        .collect();
    let mut wide = TrafficSource::new(TrafficConfig::default(), &many_apps);
    let mut step = 0u64;
    crit.bench_function("demand_agg_128apps", |b| {
        b.iter(|| {
            step += 1;
            let now = Seconds::new(step as f64 * DT.value());
            wide.begin_step(now, DT);
            let mut served = 0.0;
            for (name, capacity) in &many_apps {
                served += wide.serve(name, capacity * DT.value(), now);
            }
            served
        })
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
    crit.bench_function("journal_digest_encode_1k", |b| {
        b.iter(|| journal.clone().digest_since(3, 0, 8192))
    });
    journal.digest_since(3, 0, 8192);
    crit.bench_function("journal_digest_reship_1k", |b| {
        b.iter(|| journal.digest_since(3, 0, 8192))
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
    crit.bench_function("fleet_merge_10x64", |b| {
        b.iter(|| {
            let mut timeline = FleetTimeline::new();
            for d in &digests {
                timeline.merge_digest(d);
            }
            timeline.len()
        })
    });

    let fields: Vec<(String, String)> = crit
        .results()
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
