//! The four fleet workloads: their cold set-up, one operation (a whole
//! workload run on one input draw, untraced or traced) and the reference
//! each operation's outcome is checked against.
//!
//! Everything runs on the calling thread: the library crates spawn no
//! threads, and the benchmark never goes through `par_map`.

use std::collections::BTreeMap;
use std::time::Instant;

use powermed_bench::experiments::{ext_cluster_faults, ext_traffic};
use powermed_bench::support::DT as TRAFFIC_DT;
use powermed_cluster::control::{
    self, BreakerConfig, ClusterFaultConfig, ControlOptions, FleetObsOptions, ManagedPolicy,
    ResilienceReport, WarmStartOptions,
};
use powermed_cluster::fleet::{self, build_fleet_skus, Fleet, WarmBoot};
use powermed_cluster::manager::ClusterManager;
use powermed_cluster::trace::ClusterPowerTrace;
use powermed_core::policy::PolicyKind;
use powermed_disagg::EstimatorConfig;
use powermed_profiles::ProfileStore;
use powermed_server::ServerSpec;
use powermed_telemetry::journal::{FleetTimeline, Obs, ObsConfig};
use powermed_telemetry::metrics::{prom_label, MetricsRegistry};
use powermed_traffic::source::TrafficSource;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};

use crate::stats::{percentile, unattributed};

/// Compressed traffic days per `traffic_hetero` operation: 8640 waves
/// of the three-server fleet, enough samples for a p99 with hundreds
/// beyond it.
const TRAFFIC_DAYS: f64 = 10.0;
/// `ext_traffic`'s tight heterogeneous operating point.
const TRAFFIC_TIGHTNESS: f64 = 0.75;
/// Index of the edge+xeon+big composition in `ext_traffic::sku_mixes`.
const HETERO_SKU: usize = 1;

/// Servers in the fleet workloads (the `ext_cluster_faults` fleet).
const FLEET_SERVERS: usize = ext_cluster_faults::SERVERS;
/// Trace length of the fleet workloads. Recording cost grows with the
/// run (the timeline and the unacked journal tails grow), so the
/// horizon is four times the 480 s reference: at 480 s recording costs
/// about 5x a plain run, at 1920 s about 13x.
const FLEET_HORIZON: Seconds = Seconds::new(1920.0);
/// Trace length of `fleet_warmstart`. Online calibration makes each
/// server-step about 20x dearer, so the warm fleet runs the 480 s
/// reference horizon.
const WARM_HORIZON: Seconds = Seconds::new(480.0);
/// Fault draws of `fleet_warmstart`. The warm fleet's cost per
/// server-step depends on where the churn lands (which servers
/// re-calibrate, what the store already holds): from one fault seed to
/// the next it moves by about 15% (quartile distance over median), far
/// more than on the other workloads. So one `--seed` stands for this
/// many fault seeds, which successive operations cycle through.
const WARM_DRAWS: u64 = 6;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mediated edge+xeon+big fleet under open-loop traffic, stepped by
    /// the benchmark's own lockstep loop.
    TrafficHetero,
    /// Churn plus a lossy control plane, recording off.
    FleetFaults,
    /// `FleetFaults` through the fleet flight recorder.
    FleetRecorded,
    /// `FleetFaults` on sparse online calibration and the profile
    /// knowledge plane.
    FleetWarmstart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TrafficHetero,
        Workload::FleetFaults,
        Workload::FleetRecorded,
        Workload::FleetWarmstart,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrafficHetero => "traffic_hetero",
            Workload::FleetFaults => "fleet_faults",
            Workload::FleetRecorded => "fleet_recorded",
            Workload::FleetWarmstart => "fleet_warmstart",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Modelled-fleet outcome of one operation. Deterministic for a seed.
#[derive(Debug, Clone)]
pub enum SimOutcome {
    /// `traffic_hetero`: share of offered requests served within SLO.
    Traffic {
        /// Pooled SLO attainment.
        slo_attainment: f64,
    },
    /// `fleet_*`: the cluster's performance and budget score.
    Fleet {
        /// Mean normalized throughput (% of uncapped, as a fraction).
        norm_perf: f64,
        /// Seconds the fleet's net draw exceeded the budget.
        budget_violation_s: f64,
        /// Digest of the control plane's fault history.
        trace_digest: u64,
    },
}

impl SimOutcome {
    /// `(name, value, unit)` of each modelled metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        match *self {
            SimOutcome::Traffic { slo_attainment } => {
                vec![("slo_attainment", slo_attainment, "share")]
            }
            SimOutcome::Fleet {
                norm_perf,
                budget_violation_s,
                ..
            } => vec![
                ("norm_perf", norm_perf, "share"),
                ("budget_violation_s", budget_violation_s, "s"),
            ],
        }
    }
}

/// What one operation produced.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Host seconds the whole operation took.
    pub wall_s: f64,
    /// Server control steps simulated (servers x waves).
    pub server_steps: u64,
    /// Requests offered (0 without traffic).
    pub requests: u64,
    /// Host µs per lockstep wave (`traffic_hetero` only).
    pub waves_us: Vec<f64>,
    /// FNV-1a digest of every scored number of the outcome.
    pub digest: u64,
    /// Per-layer numbers, filled only by traced operations.
    pub layers: BTreeMap<&'static str, f64>,
    /// Whether every replay of this operation reproduced the run's own
    /// counts (always true for untraced operations, which replay
    /// nothing).
    pub replay_ok: bool,
}

/// Host seconds of the cold set-up steps, replayed through the public
/// builders the workload's own run calls.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Value curves for the cluster DP (fills the measurement cache).
    pub value_curves_s: f64,
    /// Building every server and admitting its mix.
    pub fleet_build_s: f64,
}

/// A workload made ready to run: its inputs, built from the seed.
#[derive(Debug)]
pub enum Prepared {
    /// `traffic_hetero` inputs.
    Traffic(TrafficPrep),
    /// `fleet_*` inputs.
    Fleet(Box<FleetPrep>),
}

/// `traffic_hetero` inputs.
#[derive(Debug)]
pub struct TrafficPrep {
    scenario: ext_traffic::TrafficScenario,
    specs: Vec<ServerSpec>,
    host_mixes: Vec<Mix>,
    caps: Vec<Watts>,
    horizon: Seconds,
}

/// `fleet_*` inputs.
#[derive(Debug)]
pub struct FleetPrep {
    mixes: Vec<Mix>,
    trace: ClusterPowerTrace,
    /// One control configuration per fault draw; successive operations
    /// cycle through them.
    draws: Vec<ControlOptions>,
    recorded: bool,
}

/// The fleet workloads' cluster policy: utility DP apportionment with
/// App+Res+ESD-aware mediation on every server.
fn policy() -> ManagedPolicy {
    ManagedPolicy::unequal_ours()
}

fn fold(digest: &mut u64, bits: u64) {
    *digest ^= bits;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Builds the workload's inputs from `seed`, timing the cold set-up
/// steps. In a fresh process the measurement cache is empty, so this is
/// the set-up a user pays before the first simulated step.
pub fn prepare(workload: Workload, seed: u64) -> (Prepared, SetupTimes) {
    match workload {
        Workload::TrafficHetero => {
            let sku = &ext_traffic::sku_mixes()[HETERO_SKU];
            assert_eq!(
                sku.label, "edge+xeon+big",
                "ext_traffic SKU mixes reordered"
            );
            let host_mixes: Vec<Mix> = (1..=sku.specs.len())
                .map(|i| mixes::mix(i).expect("Table II mix"))
                .collect();
            let rated: f64 = sku.specs.iter().map(|s| s.rated_power().value()).sum();
            let total = Watts::new(rated * TRAFFIC_TIGHTNESS);
            let t0 = Instant::now();
            let caps = ext_traffic::flavor_caps(sku, &host_mixes, total, true);
            let value_curves_s = t0.elapsed().as_secs_f64();
            let prep = TrafficPrep {
                scenario: ext_traffic::TrafficScenario {
                    label: format!("{} @ {:.0}% rated", sku.label, TRAFFIC_TIGHTNESS * 100.0),
                    sku: HETERO_SKU,
                    tightness: TRAFFIC_TIGHTNESS,
                    seed,
                },
                specs: sku.specs.clone(),
                host_mixes,
                caps,
                horizon: ext_traffic::DAY * TRAFFIC_DAYS,
            };
            let t1 = Instant::now();
            std::hint::black_box(build_traffic_fleet(&prep, &[]));
            let fleet_build_s = t1.elapsed().as_secs_f64();
            (
                Prepared::Traffic(prep),
                SetupTimes {
                    value_curves_s,
                    fleet_build_s,
                },
            )
        }
        Workload::FleetFaults | Workload::FleetRecorded | Workload::FleetWarmstart => {
            let warm = workload == Workload::FleetWarmstart;
            let horizon = if warm { WARM_HORIZON } else { FLEET_HORIZON };
            let draws = if warm { WARM_DRAWS } else { 1 };
            let prep = FleetPrep {
                mixes: ClusterManager::new(FLEET_SERVERS, 7).workload(),
                trace: ext_cluster_faults::cap_schedule(FLEET_SERVERS, horizon),
                draws: (0..draws)
                    .map(|k| {
                        // Disjoint fault seeds per `--seed`; one draw
                        // uses the seed itself.
                        let seed = seed.wrapping_mul(draws).wrapping_add(k);
                        ControlOptions {
                            resilient: true,
                            faults: ClusterFaultConfig::default_scenario(seed),
                            breaker: BreakerConfig::default(),
                            warm_start: warm.then(WarmStartOptions::warm),
                            estimation: Some(EstimatorConfig::default()),
                            ..ControlOptions::perfect(seed)
                        }
                    })
                    .collect(),
                recorded: workload == Workload::FleetRecorded,
            };
            // Replays the prelude of `run_cluster`: the DP's value
            // curves, then every server booted with its mix admitted
            // (online calibration probes included on the warm fleet).
            let spec = ServerSpec::xeon_e5_2620();
            let t0 = Instant::now();
            std::hint::black_box(control::value_curves(&spec, &prep.mixes));
            let value_curves_s = t0.elapsed().as_secs_f64();
            let managed = policy();
            let initial_share = prep.trace.at(Seconds::ZERO) / FLEET_SERVERS as f64;
            let t1 = Instant::now();
            for (i, mix) in prep.mixes.iter().enumerate() {
                let boot = prep.draws[0].warm_start.as_ref().map(|w| WarmBoot {
                    store: w.store.map(ProfileStore::new),
                    server_id: i as u64,
                    sampling_fraction: w.sampling_fraction,
                });
                std::hint::black_box(fleet::build_server_with(
                    &spec,
                    mix,
                    managed.kind,
                    managed.with_battery,
                    initial_share,
                    boot,
                ));
            }
            let fleet_build_s = t1.elapsed().as_secs_f64();
            (
                Prepared::Fleet(Box::new(prep)),
                SetupTimes {
                    value_curves_s,
                    fleet_build_s,
                },
            )
        }
    }
}

/// The outcome every operation on each draw must reproduce exactly,
/// one entry per draw, from a path independent of the operation's own:
///
/// * `traffic_hetero`: `ext_traffic::run_one` on the same cell, seed
///   and horizon;
/// * `fleet_recorded`: the plain (unrecorded) run of the same fleet,
///   seed and horizon — recording must change bookkeeping only;
/// * `fleet_faults`, `fleet_warmstart`: a first untraced run, so every
///   later run, traced or not, must repeat it bit for bit.
///
/// The reference run also fills the caches before anything is timed.
pub fn reference(prep: &Prepared) -> Vec<(SimOutcome, u64)> {
    match prep {
        Prepared::Traffic(p) => {
            let out = ext_traffic::run_one(&p.scenario, true, p.horizon);
            let score = TrafficScore {
                requests: out.requests,
                completions: out.completions,
                windows: out.windows,
                windows_missed: out.windows_missed,
                attainment: out.attainment,
                energy_kj: out.energy_kj,
                backlog_ops: out.backlog_ops,
            };
            vec![(score.outcome(), score.digest(&p.caps))]
        }
        Prepared::Fleet(p) => p
            .draws
            .iter()
            .map(|options| {
                let report = control::run_cluster(&p.mixes, policy(), &p.trace, FLEET_DT, options);
                fleet_outcome(&report)
            })
            .collect(),
    }
}

/// Runs one operation of the prepared workload on input draw `draw`. A
/// traced operation attaches the flight recorder (spans on) and fills
/// `layers`.
pub fn run_op(prep: &Prepared, draw: usize, traced: bool) -> OpResult {
    match prep {
        Prepared::Traffic(p) => traffic_op(p, traced),
        Prepared::Fleet(p) => fleet_op(p, &p.draws[draw], traced),
    }
}

// ---------------------------------------------------------------------------
// traffic_hetero
// ---------------------------------------------------------------------------

/// The scored counters `ext_traffic` reports for a finished day.
struct TrafficScore {
    requests: u64,
    completions: u64,
    windows: u64,
    windows_missed: u64,
    attainment: f64,
    energy_kj: f64,
    backlog_ops: f64,
}

impl TrafficScore {
    /// Scores a finished fleet the way `ext_traffic` does.
    fn of(fleet: &Fleet) -> Self {
        let (mut requests, mut completions, mut within) = (0u64, 0u64, 0u64);
        let (mut windows, mut windows_missed) = (0u64, 0u64);
        let (mut backlog, mut energy_j) = (0.0f64, 0.0f64);
        for sim in &fleet.sims {
            let stats = sim.traffic().expect("traffic attached").stats();
            requests += stats.requests;
            completions += stats.completions;
            within += stats.within_slo;
            windows += stats.windows;
            windows_missed += stats.windows_missed;
            backlog += stats.offered_ops - stats.served_ops;
            energy_j += sim.meter().energy().value();
        }
        Self {
            requests,
            completions,
            windows,
            windows_missed,
            attainment: if requests > 0 {
                within as f64 / requests as f64
            } else {
                1.0
            },
            energy_kj: energy_j / 1e3,
            backlog_ops: backlog,
        }
    }

    fn outcome(&self) -> SimOutcome {
        SimOutcome::Traffic {
            slo_attainment: self.attainment,
        }
    }

    fn digest(&self, caps: &[Watts]) -> u64 {
        let mut d = FNV_OFFSET;
        for bits in [
            self.requests,
            self.completions,
            self.windows,
            self.windows_missed,
            self.attainment.to_bits(),
            self.energy_kj.to_bits(),
            self.backlog_ops.to_bits(),
        ] {
            fold(&mut d, bits);
        }
        for cap in caps {
            fold(&mut d, cap.value().to_bits());
        }
        d
    }
}

/// Boots the fleet the way `ext_traffic::run_observed` does: recorder
/// first (when given one handle per server), then the flavor's caps and
/// the day's traffic.
fn build_traffic_fleet(p: &TrafficPrep, obs: &[Obs]) -> Fleet {
    let mut fleet = build_fleet_skus(
        &p.specs,
        &p.host_mixes,
        PolicyKind::AppResAware,
        false,
        ext_traffic::ADMISSION_CAP,
    );
    for (i, o) in obs.iter().enumerate() {
        fleet.sims[i].set_observability(o.clone());
        fleet.mediators[i].set_observability(o.clone());
    }
    for (i, cap) in p.caps.iter().enumerate() {
        fleet.mediators[i].set_cap(&mut fleet.sims[i], *cap);
        fleet.sims[i].attach_traffic(ext_traffic::traffic_config(p.scenario.seed, i));
    }
    fleet
}

fn traffic_op(p: &TrafficPrep, traced: bool) -> OpResult {
    let start = Instant::now();
    let obs: Vec<Obs> = if traced {
        (0..p.specs.len())
            .map(|_| Obs::new(ObsConfig::default()))
            .collect()
    } else {
        Vec::new()
    };
    let mut fleet = build_traffic_fleet(p, &obs);
    // Pristine generators for the traffic replay: same configs, same
    // apps, nothing drawn yet.
    let sources: Vec<TrafficSource> = if traced {
        fleet
            .sims
            .iter()
            .map(|s| s.traffic().expect("traffic attached").clone())
            .collect()
    } else {
        Vec::new()
    };
    let waves = (p.horizon.value() / TRAFFIC_DT.value()).round() as usize;
    let mut waves_us = Vec::with_capacity(waves);
    let mut step_us = Vec::with_capacity(if traced { waves * p.specs.len() } else { 0 });
    for _ in 0..waves {
        let wave = Instant::now();
        for (sim, med) in fleet.sims.iter_mut().zip(fleet.mediators.iter_mut()) {
            if traced {
                let t = Instant::now();
                med.step(sim, TRAFFIC_DT);
                step_us.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                med.step(sim, TRAFFIC_DT);
            }
        }
        waves_us.push(wave.elapsed().as_secs_f64() * 1e6);
    }
    let score = TrafficScore::of(&fleet);
    let wall_s = start.elapsed().as_secs_f64();

    let mut layers = BTreeMap::new();
    let mut replay_ok = true;
    if traced {
        let regs: Vec<MetricsRegistry> = obs.iter().map(Obs::metrics).collect();
        span_layers(&regs, &mut layers);
        counter_layers(&regs, &mut layers);
        layers.insert("core.step_us_p50", percentile(&step_us, 0.5).unwrap_or(0.0));
        layers.insert(
            "core.step_us_p99",
            percentile(&step_us, 0.99).unwrap_or(0.0),
        );
        layers.insert(
            "core.replans",
            fleet.mediators.iter().map(|m| m.replans() as f64).sum(),
        );
        let stats: Vec<_> = fleet
            .sims
            .iter()
            .map(|s| s.traffic().expect("traffic attached").stats())
            .collect();
        layers.insert("traffic.requests", score.requests as f64);
        layers.insert("traffic.completions", score.completions as f64);
        layers.insert("traffic.slo_windows", score.windows as f64);
        layers.insert("traffic.windows_missed", score.windows_missed as f64);
        let (gen_s, replayed) = replay_traffic(sources, waves);
        replay_ok = replayed == stats.iter().map(|s| s.requests).collect::<Vec<_>>();
        layers.insert("traffic.gen_s", gen_s);
        let spans = [layers["core.plan_s"], layers["core.calibration_s"]];
        layers.insert("unattributed_share", unattributed(wall_s, &spans) / wall_s);
    }

    OpResult {
        wall_s,
        server_steps: (waves * p.specs.len()) as u64,
        requests: score.requests,
        waves_us,
        digest: score.digest(&p.caps),
        layers,
        replay_ok,
    }
}

/// Host seconds `TrafficSource::begin_step` takes over the horizon for
/// every server, and the requests each replayed generator drew. Queues
/// are drained between steps, outside the timer, so the replay times
/// arrival generation alone.
fn replay_traffic(sources: Vec<TrafficSource>, waves: usize) -> (f64, Vec<u64>) {
    let mut secs = 0.0;
    let mut drawn = Vec::with_capacity(sources.len());
    for mut source in sources {
        let names: Vec<String> = source.app_names().map(str::to_string).collect();
        let mut now = Seconds::ZERO;
        for _ in 0..waves {
            now += TRAFFIC_DT;
            let t = Instant::now();
            source.begin_step(now, TRAFFIC_DT);
            secs += t.elapsed().as_secs_f64();
            for name in &names {
                source.serve(name, f64::INFINITY, now);
            }
        }
        drawn.push(source.stats().requests);
    }
    (secs, drawn)
}

// ---------------------------------------------------------------------------
// fleet_*
// ---------------------------------------------------------------------------

/// Cluster control step (the `ext_cluster_faults` cadence).
const FLEET_DT: Seconds = ext_cluster_faults::DT;

fn fleet_outcome(report: &ResilienceReport) -> (SimOutcome, u64) {
    let norm_perf = report.report.aggregate_normalized_perf;
    let mut d = FNV_OFFSET;
    for bits in [
        norm_perf.to_bits(),
        report.violation_seconds.to_bits(),
        report.excess_watt_seconds.to_bits(),
        report.trace_digest,
    ] {
        fold(&mut d, bits);
    }
    (
        SimOutcome::Fleet {
            norm_perf,
            budget_violation_s: report.violation_seconds,
            trace_digest: report.trace_digest,
        },
        d,
    )
}

/// One cluster run under `options`, plus the recorder handle a traced
/// unrecorded run attaches.
fn cluster_run(
    p: &FleetPrep,
    options: &ControlOptions,
    traced: bool,
) -> (ResilienceReport, Option<Obs>) {
    if p.recorded {
        let fleet = FleetObsOptions {
            config: ObsConfig {
                spans: traced,
                ..ObsConfig::default()
            },
            ..FleetObsOptions::default()
        };
        let report = control::run_cluster_flight_recorded(
            &p.mixes,
            policy(),
            &p.trace,
            FLEET_DT,
            options,
            &fleet,
        );
        (report, None)
    } else {
        let obs = traced.then(|| Obs::new(ObsConfig::default()));
        let report = control::run_cluster_observed(
            &p.mixes,
            policy(),
            &p.trace,
            FLEET_DT,
            options,
            obs.as_ref(),
        );
        (report, obs)
    }
}

fn fleet_op(p: &FleetPrep, options: &ControlOptions, traced: bool) -> OpResult {
    let start = Instant::now();
    let (report, obs) = cluster_run(p, options, traced);
    let wall_s = start.elapsed().as_secs_f64();
    let steps = (p.trace.duration().value() / FLEET_DT.value()).ceil() as u64;
    OpResult {
        wall_s,
        server_steps: steps * FLEET_SERVERS as u64,
        requests: 0,
        waves_us: Vec::new(),
        digest: fleet_outcome(&report).1,
        layers: if traced {
            cluster_layers(&report, obs.as_ref(), wall_s)
        } else {
            BTreeMap::new()
        },
        replay_ok: true,
    }
}

/// Counts and seconds of one traced cluster run (`run_s` its host
/// time), from its journals, its report and the telemetry replays.
fn cluster_layers(
    report: &ResilienceReport,
    obs: Option<&Obs>,
    run_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    // Server journals carry the mediator spans and counters; the
    // manager's journal (recorded runs only) the coordination span.
    let (servers, manager): (Vec<MetricsRegistry>, Vec<MetricsRegistry>) = match &report.fleet {
        Some(f) => (
            f.server_obs.iter().map(Obs::metrics).collect(),
            vec![f.manager_obs.metrics()],
        ),
        None => (
            vec![obs.expect("traced runs attach a recorder").metrics()],
            Vec::new(),
        ),
    };
    let all: Vec<MetricsRegistry> = servers.iter().chain(&manager).cloned().collect();
    span_layers(&all, &mut layers);
    counter_layers(&servers, &mut layers);
    layers.insert(
        "telemetry.events",
        all.iter().map(|r| r.counter("events_total") as f64).sum(),
    );
    layers.insert("core.replans", layers["core.plan_calls"]);
    let spans = [
        layers["core.plan_s"],
        layers["cluster.coordination_s"],
        layers["core.calibration_s"],
    ];
    let rest = unattributed(run_s, &spans);
    layers.insert("cluster.run_s", run_s);
    layers.insert("cluster.unattributed_s", rest);
    layers.insert("unattributed_share", rest / run_s);

    let s = &report.stats;
    for (name, v) in [
        ("cluster.uplinks_dropped", s.uplinks_dropped),
        ("cluster.downlinks_dropped", s.downlinks_dropped),
        ("cluster.node_restarts", s.node_restarts),
        ("cluster.heartbeat_misses", s.heartbeat_misses),
        ("cluster.reapportionments", s.reapportionments),
        ("cluster.breaker_trips", s.breaker_trips),
        ("cf.probes_cold", report.probe_split.cold),
        ("cf.probes_warm", report.probe_split.warm),
        ("cf.probes_skipped", report.probe_split.skipped),
        ("profiles.hits", report.store_stats.hits),
        ("profiles.misses", report.store_stats.misses),
        ("profiles.merges", report.store_stats.merges),
        ("profiles.bytes", report.store_stats.bytes),
    ] {
        layers.insert(name, v as f64);
    }
    let lookups = report.store_stats.hits + report.store_stats.misses;
    if lookups > 0 {
        layers.insert(
            "profiles.hit_ratio",
            report.store_stats.hits as f64 / lookups as f64,
        );
    }
    if let Some(div) = report.store_divergence {
        layers.insert("profiles.divergence", div as f64);
    }
    if let Some(f) = &report.fleet {
        layers.insert("telemetry.digest_bytes", f.digest_bytes_total as f64);
        layers.insert("telemetry.max_wave_bytes", f.max_wave_bytes as f64);
        layers.insert("telemetry.timeline_len", f.timeline.len() as f64);
        if f.timeline.merged_total() > 0 {
            layers.insert(
                "telemetry.dedup_ratio",
                f.timeline.dedup_total() as f64 / f.timeline.merged_total() as f64,
            );
        }
        replay_telemetry(&f.server_obs, &f.timeline, &mut layers);
    }
    layers
}

/// Replays the telemetry kernels on the run's own journals: encode each
/// server's whole journal as one digest, merge them into a fresh
/// timeline, and digest the run's merged timeline.
fn replay_telemetry(
    server_obs: &[Obs],
    timeline: &FleetTimeline,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let t = Instant::now();
    let digests: Vec<_> = server_obs
        .iter()
        .enumerate()
        .map(|(i, o)| o.digest_since(i as u64, 0, usize::MAX))
        .collect();
    layers.insert("telemetry.encode_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut fresh = FleetTimeline::new();
    for d in &digests {
        fresh.merge_digest(d);
    }
    layers.insert("telemetry.merge_s", t.elapsed().as_secs_f64());
    std::hint::black_box(fresh);
    let t = Instant::now();
    std::hint::black_box(timeline.digest());
    layers.insert("telemetry.timeline_digest_s", t.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------------------
// Obs registries -> layer numbers
// ---------------------------------------------------------------------------

/// Seconds and calls of the program's three spans, summed over `regs`.
fn span_layers(regs: &[MetricsRegistry], layers: &mut BTreeMap<&'static str, f64>) {
    for (span, secs, calls) in [
        ("plan", "core.plan_s", "core.plan_calls"),
        (
            "calibration",
            "core.calibration_s",
            "core.calibration_calls",
        ),
        (
            "coordination",
            "cluster.coordination_s",
            "cluster.coordination_calls",
        ),
    ] {
        let key = prom_label("span_seconds", &[("name", span)]);
        let (mut s, mut n) = (0.0, 0u64);
        for h in regs.iter().filter_map(|r| r.histogram(&key)) {
            s += h.sum();
            n += h.count();
        }
        layers.insert(secs, s);
        layers.insert(calls, n as f64);
    }
}

/// Mediator poll and knob-write counters plus journal events, summed
/// over `regs`.
fn counter_layers(regs: &[MetricsRegistry], layers: &mut BTreeMap<&'static str, f64>) {
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        regs.iter()
            .flat_map(|r| r.counters())
            .filter(|(name, _)| pred(name))
            .map(|(_, v)| v as f64)
            .sum()
    };
    layers.insert("core.polls", sum(&|n| n == "polls_total"));
    layers.insert(
        "core.knob_writes",
        sum(&|n| n.starts_with("knob_writes_total")),
    );
    layers.insert("telemetry.events", sum(&|n| n == "events_total"));
}
