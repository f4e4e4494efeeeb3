//! The open-loop request source: per-app arrival streams, request
//! queues, and SLO accounting.
//!
//! A [`TrafficSource`] models a user population issuing requests
//! against the services hosted on one server. Arrivals are a
//! non-homogeneous Poisson process — the base rate (`users /
//! mean_think`) is shaped by the diurnal curve and flash-crowd bursts —
//! split across apps by Zipf popularity, with per-request cost drawn
//! from a bounded Pareto. The source is *open-loop*: arrivals do not
//! slow down when the server falls behind, which is exactly what makes
//! power caps hurt tail latency.
//!
//! Each step the simulation first calls [`TrafficSource::begin_step`]
//! (drawing that step's arrivals), then [`TrafficSource::serve`] per
//! app with the ops the app's current operating point can deliver.
//! Requests complete in FIFO order; a request's latency is its queueing
//! delay plus service, measured at the step where its last op is
//! served. SLO attainment is accounted in fixed windows: the fraction
//! of requests completed within the latency budget, with a verdict
//! event emitted per app per window.
//!
//! Determinism: every app stream owns a tagged splitmix64 channel, and
//! draws happen in registration order at fixed points of the step, so
//! one seed yields one bit-identical trace.

use std::collections::{BTreeMap, VecDeque};

use powermed_units::Seconds;

use crate::diurnal::{DiurnalCurve, FlashCrowds};
use crate::rng::TrafficRng;
use crate::samplers::{zipf_weights, BoundedPareto};

/// Scenario description for one server's request traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Seed for all traffic streams (per-app channels derive from it).
    pub seed: u64,
    /// Active user population driving requests.
    pub users: f64,
    /// Mean per-user think time between requests.
    pub mean_think: Seconds,
    /// Length of the (compressed) traffic day.
    pub day: Seconds,
    /// First-harmonic diurnal amplitude (day/night swing).
    pub diurnal_a1: f64,
    /// Second-harmonic diurnal amplitude (afternoon skew).
    pub diurnal_a2: f64,
    /// Zipf popularity exponent across apps (registration order = rank).
    pub zipf_s: f64,
    /// Pareto tail index of per-request cost.
    pub pareto_alpha: f64,
    /// Upper bound of per-request cost, as a multiple of the minimum.
    pub pareto_cap: f64,
    /// Number of flash-crowd bursts per day.
    pub flash_crowds: u32,
    /// Peak rate multiplier at a burst onset.
    pub flash_magnitude: f64,
    /// Exponential decay constant of a burst.
    pub flash_decay: Seconds,
    /// Mean offered load as a fraction of uncapped service capacity,
    /// averaged across apps (individual apps scale by Zipf popularity).
    pub target_utilization: f64,
    /// Per-request latency budget.
    pub latency_slo: Seconds,
    /// SLO accounting window length.
    pub slo_window: Seconds,
    /// Attainment below which a window verdict is a miss.
    pub slo_target: f64,
    /// Burst multiplier at/above which a demand-spike event fires.
    pub spike_factor: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 0x7EA5_5EED,
            users: 1000.0,
            mean_think: Seconds::new(10.0),
            // One day compressed 1000x, as in the replayed-trace
            // experiments.
            day: Seconds::new(86.4),
            diurnal_a1: 0.45,
            diurnal_a2: 0.2,
            zipf_s: 0.9,
            pareto_alpha: 1.5,
            pareto_cap: 50.0,
            flash_crowds: 2,
            flash_magnitude: 5.0,
            flash_decay: Seconds::new(1.5),
            target_utilization: 0.7,
            latency_slo: Seconds::new(0.5),
            slo_window: Seconds::new(4.32),
            slo_target: 0.95,
            spike_factor: 2.5,
        }
    }
}

/// An out-of-band traffic occurrence for the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficEvent {
    /// A flash crowd pushed offered load to `ratio` times the diurnal
    /// baseline for this app (edge-triggered per burst).
    DemandSpike {
        /// Affected application.
        app: String,
        /// Burst multiplier at onset.
        ratio: f64,
    },
    /// An SLO accounting window closed for this app.
    SloWindow {
        /// Affected application.
        app: String,
        /// Fraction of requests completed within the latency budget
        /// (1.0 when the window completed none).
        attainment: f64,
        /// Whether attainment met the configured target.
        ok: bool,
    },
}

/// Cumulative request accounting, per app or aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficStats {
    /// Requests that arrived.
    pub requests: u64,
    /// Requests fully served.
    pub completions: u64,
    /// Completions within the latency budget.
    pub within_slo: u64,
    /// SLO windows closed.
    pub windows: u64,
    /// Windows whose attainment missed the target.
    pub windows_missed: u64,
    /// Total ops offered (arrived request cost).
    pub offered_ops: f64,
    /// Total ops served.
    pub served_ops: f64,
}

impl TrafficStats {
    /// Fraction of completed requests served within the latency budget
    /// (1.0 when nothing completed).
    pub fn attainment(&self) -> f64 {
        if self.completions == 0 {
            1.0
        } else {
            self.within_slo as f64 / self.completions as f64
        }
    }
}

/// One queued request: arrival time and remaining service demand.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Request {
    arrived_s: f64,
    remaining_ops: f64,
}

/// One app's arrival stream and FIFO queue.
#[derive(Debug, Clone)]
struct AppStream {
    name: String,
    /// Zipf popularity weight (share of the request rate).
    weight: f64,
    /// Mean ops per request, calibrated against uncapped capacity.
    mean_ops_per_request: f64,
    rng: TrafficRng,
    queue: VecDeque<Request>,
    /// Open-window counters (completions, within-budget completions,
    /// arrivals).
    window_completions: u64,
    window_within: u64,
    window_arrivals: u64,
    stats: TrafficStats,
}

/// Maximum undrained events retained (a simulation without the flight
/// recorder attached never drains; bound the memory it pays).
const EVENT_CAP: usize = 16_384;

/// The open-loop request generator attached to one [`ServerSim`].
///
/// [`ServerSim`]: ../../powermed_sim/engine/struct.ServerSim.html
#[derive(Debug, Clone)]
pub struct TrafficSource {
    config: TrafficConfig,
    diurnal: DiurnalCurve,
    bursts: FlashCrowds,
    apps: Vec<AppStream>,
    index: BTreeMap<String, usize>,
    pareto: BoundedPareto,
    pareto_mean: f64,
    /// End of the currently open SLO window.
    window_end_s: f64,
    /// Whether a burst is currently above the spike threshold
    /// (edge-triggers the demand-spike event).
    spiking: bool,
    events: Vec<TrafficEvent>,
}

impl TrafficSource {
    /// Builds a source for the given apps, listed in popularity order
    /// (first entry = Zipf rank 1) with their *uncapped* service
    /// capacity in ops/s. Mean request cost is calibrated so app `i`'s
    /// mean offered load is `target_utilization * n * w_i` of its
    /// capacity — popular apps run hot, tail apps run cool, and the
    /// across-app mean is the configured target.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or any capacity is non-positive.
    pub fn new(config: TrafficConfig, apps: &[(String, f64)]) -> Self {
        assert!(!apps.is_empty(), "traffic needs at least one app");
        let weights = zipf_weights(apps.len(), config.zipf_s);
        let pareto = BoundedPareto::new(1.0, config.pareto_alpha, config.pareto_cap);
        let n = apps.len() as f64;
        let mut streams = Vec::with_capacity(apps.len());
        let mut index = BTreeMap::new();
        for (rank, ((name, capacity), weight)) in apps.iter().zip(&weights).enumerate() {
            assert!(*capacity > 0.0, "app {name} has non-positive capacity");
            // Offered ops/s for this app is (users * w / think) * mean
            // ops per request = target_utilization * n * w * capacity.
            let mean_ops_per_request =
                config.target_utilization * n * capacity * config.mean_think.value() / config.users;
            index.insert(name.clone(), rank);
            streams.push(AppStream {
                name: name.clone(),
                weight: *weight,
                mean_ops_per_request,
                rng: TrafficRng::new(config.seed, 0x0A00 + rank as u64),
                queue: VecDeque::new(),
                window_completions: 0,
                window_within: 0,
                window_arrivals: 0,
                stats: TrafficStats::default(),
            });
        }
        let diurnal = DiurnalCurve::new(config.day, config.diurnal_a1, config.diurnal_a2);
        let mut burst_rng = TrafficRng::new(config.seed, 0xB0B5);
        let bursts = FlashCrowds::new(
            &mut burst_rng,
            config.flash_crowds,
            config.day,
            config.flash_magnitude,
            config.flash_decay,
        );
        let window_end_s = config.slo_window.value();
        Self {
            config,
            diurnal,
            bursts,
            apps: streams,
            index,
            pareto,
            pareto_mean: pareto.mean(),
            window_end_s,
            spiking: false,
            events: Vec::new(),
        }
    }

    /// Draws this step's arrivals and closes any SLO windows that
    /// ended. Call once per simulation step, before serving.
    pub fn begin_step(&mut self, now: Seconds, dt: Seconds) {
        let t = now.value();
        while t >= self.window_end_s {
            self.close_window();
            self.window_end_s += self.config.slo_window.value();
        }

        let burst = self.bursts.multiplier(now);
        let envelope = self.diurnal.multiplier(now) * burst;
        if burst >= self.config.spike_factor {
            if !self.spiking {
                self.spiking = true;
                for i in 0..self.apps.len() {
                    let app = self.apps[i].name.clone();
                    self.push_event(TrafficEvent::DemandSpike { app, ratio: burst });
                }
            }
        } else {
            self.spiking = false;
        }

        let base_rate = self.config.users / self.config.mean_think.value();
        for app in &mut self.apps {
            let lambda = base_rate * app.weight * envelope * dt.value();
            let arrivals = app.rng.poisson(lambda);
            for _ in 0..arrivals {
                let cost =
                    self.pareto.sample(&mut app.rng) / self.pareto_mean * app.mean_ops_per_request;
                app.queue.push_back(Request {
                    arrived_s: t,
                    remaining_ops: cost,
                });
                app.stats.requests += 1;
                app.stats.offered_ops += cost;
                app.window_arrivals += 1;
            }
        }
    }

    /// Serves up to `capacity_ops` ops from `name`'s queue in FIFO
    /// order, completing requests and scoring their latency against the
    /// budget. Returns the ops actually served (≤ both the capacity and
    /// the backlog); the caller derives utilization from it.
    pub fn serve(&mut self, name: &str, capacity_ops: f64, now: Seconds) -> f64 {
        let Some(&i) = self.index.get(name) else {
            return 0.0;
        };
        let latency_slo = self.config.latency_slo.value();
        let app = &mut self.apps[i];
        let mut budget = capacity_ops.max(0.0);
        let mut served = 0.0;
        while budget > 0.0 {
            let Some(front) = app.queue.front_mut() else {
                break;
            };
            let take = front.remaining_ops.min(budget);
            front.remaining_ops -= take;
            budget -= take;
            served += take;
            if front.remaining_ops <= 1e-9 {
                let latency = now.value() - front.arrived_s;
                app.queue.pop_front();
                app.stats.completions += 1;
                app.window_completions += 1;
                if latency <= latency_slo {
                    app.stats.within_slo += 1;
                    app.window_within += 1;
                }
            }
        }
        app.stats.served_ops += served;
        served
    }

    /// Closes the open SLO window for every app, emitting a verdict.
    /// A window that completed nothing while demand was pending
    /// (arrivals landed, or a backlog sat unserved) is a total miss —
    /// a starved or parked server must not score a perfect window by
    /// serving no one. Only a genuinely idle window (no arrivals, no
    /// queue) passes vacuously.
    fn close_window(&mut self) {
        let target = self.config.slo_target;
        let mut verdicts = Vec::with_capacity(self.apps.len());
        for app in &mut self.apps {
            let attainment = if app.window_completions == 0 {
                if app.window_arrivals > 0 || !app.queue.is_empty() {
                    0.0
                } else {
                    1.0
                }
            } else {
                app.window_within as f64 / app.window_completions as f64
            };
            let ok = attainment >= target;
            app.stats.windows += 1;
            if !ok {
                app.stats.windows_missed += 1;
            }
            app.window_completions = 0;
            app.window_within = 0;
            app.window_arrivals = 0;
            verdicts.push(TrafficEvent::SloWindow {
                app: app.name.clone(),
                attainment,
                ok,
            });
        }
        for v in verdicts {
            self.push_event(v);
        }
    }

    fn push_event(&mut self, event: TrafficEvent) {
        if self.events.len() < EVENT_CAP {
            self.events.push(event);
        }
    }

    /// Drains the pending spike and window-verdict events (oldest
    /// first). The simulation forwards them to the flight recorder.
    pub fn take_events(&mut self) -> Vec<TrafficEvent> {
        std::mem::take(&mut self.events)
    }

    /// Ops still queued for `name` (zero for unknown apps).
    pub fn backlog_ops(&self, name: &str) -> f64 {
        self.index
            .get(name)
            .map(|&i| self.apps[i].queue.iter().map(|r| r.remaining_ops).sum())
            .unwrap_or(0.0)
    }

    /// Cumulative accounting summed across apps.
    pub fn stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for app in &self.apps {
            total.requests += app.stats.requests;
            total.completions += app.stats.completions;
            total.within_slo += app.stats.within_slo;
            total.windows += app.stats.windows;
            total.windows_missed += app.stats.windows_missed;
            total.offered_ops += app.stats.offered_ops;
            total.served_ops += app.stats.served_ops;
        }
        total
    }

    /// The scenario configuration this source was built from.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// App names in popularity order.
    pub fn app_names(&self) -> impl Iterator<Item = &str> {
        self.apps.iter().map(|a| a.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_apps() -> Vec<(String, f64)> {
        vec![("front".to_string(), 4000.0), ("batch".to_string(), 9000.0)]
    }

    fn drive(source: &mut TrafficSource, steps: usize, capacity_frac: f64) -> u64 {
        let dt = Seconds::new(0.1);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: f64| {
            digest ^= x.to_bits();
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for step in 0..steps {
            let now = Seconds::new((step + 1) as f64 * dt.value());
            source.begin_step(now, dt);
            for name in ["front", "batch"] {
                // Serve a fixed fraction of each app's calibration
                // capacity so tight fractions force queueing.
                let cap = if name == "front" { 4000.0 } else { 9000.0 };
                let served = source.serve(name, capacity_frac * cap * dt.value(), now);
                fold(served);
            }
        }
        let stats = source.stats();
        fold(stats.offered_ops);
        fold(stats.requests as f64);
        digest
    }

    /// Satellite check: one seed, one stream — two sources built from
    /// the same config produce a bit-identical trace, a different seed
    /// diverges.
    #[test]
    fn same_seed_identical_arrival_stream() {
        let config = TrafficConfig::default();
        let mut a = TrafficSource::new(config.clone(), &two_apps());
        let mut b = TrafficSource::new(config.clone(), &two_apps());
        assert_eq!(drive(&mut a, 400, 1.0), drive(&mut b, 400, 1.0));
        assert_eq!(a.stats(), b.stats());

        let reseeded = TrafficConfig {
            seed: config.seed ^ 1,
            ..config
        };
        let mut c = TrafficSource::new(reseeded, &two_apps());
        assert_ne!(drive(&mut a, 400, 1.0), drive(&mut c, 400, 1.0));
    }

    #[test]
    fn ample_capacity_meets_slo_and_starvation_misses_it() {
        // No bursts: flash crowds are *supposed* to cause misses even
        // on generously provisioned servers.
        let config = TrafficConfig {
            flash_crowds: 0,
            ..TrafficConfig::default()
        };
        let mut rich = TrafficSource::new(config.clone(), &two_apps());
        drive(&mut rich, 800, 2.0);
        let healthy = rich.stats();
        assert!(healthy.completions > 0, "no requests completed");
        assert!(
            healthy.attainment() > 0.95,
            "attainment {} despite double capacity",
            healthy.attainment()
        );

        let mut starved = TrafficSource::new(config, &two_apps());
        drive(&mut starved, 800, 0.2);
        let sick = starved.stats();
        assert!(
            sick.attainment() < 0.8,
            "attainment {} despite 20% capacity",
            sick.attainment()
        );
        assert!(
            sick.windows_missed > 0,
            "no missed windows under starvation"
        );
        assert!(
            starved.backlog_ops("front") > 0.0,
            "no backlog under starvation"
        );
    }

    #[test]
    fn offered_load_tracks_target_utilization() {
        let config = TrafficConfig {
            flash_crowds: 0,
            ..TrafficConfig::default()
        };
        let target = config.target_utilization;
        let day = config.day;
        let mut source = TrafficSource::new(config, &two_apps());
        let dt = Seconds::new(0.1);
        let steps = (day.value() / dt.value()).round() as usize;
        for step in 0..steps {
            let now = Seconds::new((step + 1) as f64 * dt.value());
            source.begin_step(now, dt);
            source.serve("front", f64::MAX, now);
            source.serve("batch", f64::MAX, now);
        }
        // Offered ops over a full day ≈ Σ_i target * n * w_i *
        // capacity_i * day (the diurnal curve is mean-one; Poisson and
        // Pareto noise average out over ~60k requests).
        let w = zipf_weights(2, 0.9);
        let expected = target * 2.0 * (w[0] * 4000.0 + w[1] * 9000.0) * day.value();
        let offered = source.stats().offered_ops;
        let ratio = offered / expected;
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "offered/expected ratio {ratio} off target"
        );
    }

    #[test]
    fn window_verdicts_and_spikes_are_emitted() {
        let config = TrafficConfig {
            flash_magnitude: 8.0,
            flash_crowds: 3,
            ..TrafficConfig::default()
        };
        let mut source = TrafficSource::new(config, &two_apps());
        let dt = Seconds::new(0.1);
        let mut spikes = 0;
        let mut windows = 0;
        for step in 0..864 {
            let now = Seconds::new((step + 1) as f64 * dt.value());
            source.begin_step(now, dt);
            source.serve("front", 400.0 * dt.value(), now);
            source.serve("batch", 900.0 * dt.value(), now);
            for event in source.take_events() {
                match event {
                    TrafficEvent::DemandSpike { ratio, .. } => {
                        assert!(ratio >= 2.5);
                        spikes += 1;
                    }
                    TrafficEvent::SloWindow { attainment, .. } => {
                        assert!((0.0..=1.0).contains(&attainment));
                        windows += 1;
                    }
                }
            }
        }
        assert!(spikes > 0, "no demand spikes over a bursty day");
        assert!(windows > 0, "no window verdicts over a day");
    }
}
