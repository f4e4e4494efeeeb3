//! Extension beyond the paper: the flight-recorder observability plane.
//!
//! PR 2's fault experiments answer *what* the hardened mediator did
//! (counters: retries, safe-mode entries, E5/E6 events). This
//! experiment answers *why*: it replays the PR 2 reference fault
//! scenario with an [`Obs`] handle attached to the mediator and the
//! simulator, so every decision lands in the journal with its causal
//! ids, then audits the run three ways:
//!
//! 1. **Bit-identical off**: the observed run must report exactly the
//!    same physics as the unobserved one — observability is bookkeeping,
//!    never behavior.
//! 2. **Causal chains**: the `throttle` spec of [`crate::chain`] walks
//!    the journal backward from a safe-mode force-throttle to the
//!    over-cap polls and sensor verdicts that armed the watchdog.
//! 3. **Overhead**: [`measure_overhead`] interleaves off/on repeats of
//!    the full scenario and reports the enabled-mode wall-clock ratio
//!    (target < 5%), merged into `BENCH_harness.json`.
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses a short
//! observed run (journal + counters, wall-clock spans excluded) into a
//! single hash so CI can diff two invocations (`ext_obs --smoke`).
//!
//! **Fleet mode** extends the same contract to the cluster tier: every
//! server agent ships its journal as bounded digests riding the
//! existing telemetry uplinks, the manager folds them (plus its own
//! journal and the control plane's mirrored fault events) into one
//! merged fleet timeline, and the `breaker-trip` and `fallback-cap`
//! specs of [`crate::chain`] walk that timeline *across servers* — from
//! a facility breaker trip back to the per-server overdraws that armed
//! it, and from a partitioned node's fallback cap back to the missed
//! downlinks that engaged it. [`fleet_smoke_digest`] is the CI
//! double-run witness that the merged timeline is byte-identical
//! across same-seed processes.

use std::time::Instant;

use powermed_cluster::control::{
    BreakerConfig, ClusterFaultConfig, ControlOptions, FleetObsOptions, ManagedPolicy,
    PartitionWindow, ResilienceReport,
};
use powermed_cluster::manager::ClusterManager;
use powermed_telemetry::journal::{Obs, ObsConfig};
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::Mix;

use crate::chain;
use crate::experiments::ext_cluster_faults;
use crate::experiments::ext_faults::{self, Scenario, SCENARIO_DURATION, SEED};
use crate::support::heading;

/// The PR 2 reference fault scenario (1% knob failures, 2% meter noise,
/// faded ESD) at the 80 W ESD-aware operating point — the scenario the
/// `doctor` binary replays.
pub fn reference_scenario(seed: u64) -> Scenario {
    ext_faults::scenarios(seed)
        .into_iter()
        .nth(1)
        .expect("the grid's second row is the reference scenario")
}

/// Outcome of one observed run: the physics alongside the recorder.
#[derive(Debug)]
pub struct ObservedRun {
    /// Mean normalized throughput across the mix.
    pub mean_normalized: f64,
    /// Fraction of time the *true* net draw exceeded the cap.
    pub violation_fraction: f64,
    /// Whether the run ended inside safe mode.
    pub safe_mode: bool,
    /// FNV-1a digest of the injected fault trace.
    pub trace_digest: u64,
    /// The attached flight recorder (journal + metrics).
    pub obs: Obs,
}

/// Runs `scenario` hardened with a flight recorder attached for
/// `duration` through [`ext_faults::run_with`].
pub fn run_observed(
    scenario: &Scenario,
    mix: &Mix,
    duration: Seconds,
    config: ObsConfig,
) -> ObservedRun {
    observed(scenario, mix, duration, None, config)
}

/// Like [`run_observed`] but wobbles the cap between `scenario.cap` and
/// `lo` every `period`, as [`ext_faults::run_wobble`] does.
/// This is the overhead benchmark's workload: each cap change replans
/// the schedule and re-actuates every knob, so the planner and the
/// knob-write verifier — the runtime's substantial, heavily journaled
/// paths — stay active throughout the run instead of only at admission.
pub fn run_observed_wobble(
    scenario: &Scenario,
    mix: &Mix,
    duration: Seconds,
    lo: Watts,
    period: Seconds,
    config: ObsConfig,
) -> ObservedRun {
    observed(scenario, mix, duration, Some((lo, period)), config)
}

fn observed(
    scenario: &Scenario,
    mix: &Mix,
    duration: Seconds,
    wobble: Option<(Watts, Seconds)>,
    config: ObsConfig,
) -> ObservedRun {
    let obs = Obs::new(config);
    let out = ext_faults::run_with(scenario, mix, true, duration, wobble, Some(&obs));
    ObservedRun {
        mean_normalized: out.mean_normalized,
        violation_fraction: out.violation_fraction,
        safe_mode: out.safe_mode,
        trace_digest: out.trace_digest,
        obs,
    }
}

/// One short observed reference run condensed to a determinism witness:
/// the recorder digest (journal + counters, spans excluded) folded with
/// the fault-trace digest and the outcome's bit patterns.
pub fn smoke_digest(seed: u64) -> u64 {
    let out = run_observed(
        &reference_scenario(seed),
        &ext_faults::reference_mix(),
        Seconds::new(5.0),
        ObsConfig::default(),
    );
    let mut digest = out.obs.digest();
    for bits in [
        out.trace_digest,
        out.mean_normalized.to_bits(),
        out.violation_fraction.to_bits(),
        out.obs.journal_counts().2,
    ] {
        digest ^= bits;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// Inner iterations per timed sample in [`measure_overhead`]. With the
/// profile cache warm a single 30 s run completes in well under a
/// millisecond of wall-clock, where timer granularity and first-touch
/// allocation dominate; batching the scenario stretches each timed
/// region into the tens of milliseconds so the ratio measures
/// steady-state per-poll cost, not fixed setup.
pub const OVERHEAD_BATCH: usize = 40;

/// Low cap phase of the overhead workload's wobble (high phase is the
/// reference scenario's 80 W).
const WOBBLE_LO: Watts = Watts::new(70.0);

/// Cap wobble period of the overhead workload: a replan every second.
const WOBBLE_PERIOD: Seconds = Seconds::new(1.0);

/// Wall-clock cost of the flight recorder: `repeats` interleaved off/on
/// samples, each a batch of [`OVERHEAD_BATCH`] full reference-scenario
/// wobble runs; returns the best (lowest) per-batch wall-clock per
/// flavor, `(off_seconds, on_seconds)`.
///
/// The workload wobbles the cap every second ([`ext_faults::run_wobble`]
/// with the reference scenario) so the planner and knob actuation — the
/// mediator's real per-decision work — run throughout, the way they do
/// on a production server reacting to datacenter cap adjustments. A
/// bare steady-state run would put a ~60 ns/step all-arithmetic loop in
/// the denominator, and a ratio against *that* measures lock latency,
/// not the recorder's cost relative to mediation. Best-of filters
/// scheduler noise the same way criterion's minimum estimator does, and
/// physics equality is asserted once per repeat so the two flavors are
/// provably timing the same work.
pub fn measure_overhead(repeats: usize) -> (f64, f64) {
    let scenario = reference_scenario(SEED);
    let mix = ext_faults::reference_mix();
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let mut off_last = None;
        for _ in 0..OVERHEAD_BATCH {
            off_last = Some(ext_faults::run_wobble(
                &scenario,
                &mix,
                true,
                SCENARIO_DURATION,
                WOBBLE_LO,
                WOBBLE_PERIOD,
            ));
        }
        best_off = best_off.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut on_last = None;
        for _ in 0..OVERHEAD_BATCH {
            on_last = Some(run_observed_wobble(
                &scenario,
                &mix,
                SCENARIO_DURATION,
                WOBBLE_LO,
                WOBBLE_PERIOD,
                ObsConfig::default(),
            ));
        }
        best_on = best_on.min(t.elapsed().as_secs_f64());
        let (off, on) = (off_last.expect("batch ran"), on_last.expect("batch ran"));
        assert_eq!(
            (off.violation_fraction, off.trace_digest),
            (on.violation_fraction, on.trace_digest),
            "observed physics must match unobserved physics bit-for-bit"
        );
    }
    (best_off, best_on)
}

/// Prints the extension experiment: event census, headline metrics, and
/// one reconstructed causal chain.
pub fn print() {
    heading("Extension: flight-recorder observability plane (reference fault scenario)");
    let out = run_observed(
        &reference_scenario(SEED),
        &ext_faults::reference_mix(),
        SCENARIO_DURATION,
        ObsConfig::default(),
    );
    let metrics = out.obs.metrics();
    let (retained, evicted, total) = out.obs.journal_counts();
    println!(
        "mean normalized {:.3}, violation fraction {:.4}, safe mode at end: {}",
        out.mean_normalized, out.violation_fraction, out.safe_mode
    );
    println!("journal: {retained} retained, {evicted} evicted, {total} total");
    println!("\nevents by kind:");
    for (key, v) in metrics.counters() {
        if let Some(kind) = key.strip_prefix("events_by_kind_total{kind=\"") {
            println!("  {:<24} {v:>6}", kind.trim_end_matches("\"}"));
        }
    }
    for name in ["cap_violation_w", "actuation_retry_latency_seconds"] {
        if let Some(h) = metrics.histogram(name) {
            println!(
                "{name}: count {}, mean {:.4}",
                h.count(),
                h.mean().unwrap_or(0.0)
            );
        }
    }

    println!();
    match chain::explain_journal("throttle", &out.obs.journal_snapshot(), None) {
        Some(c) => chain::print(&c),
        None => println!("no force-throttle recorded in this run"),
    }
}

// ---------------------------------------------------------------------------
// Fleet mode: journals shipped over the control plane, merged timeline,
// cross-server causal chains.
// ---------------------------------------------------------------------------

/// The fleet reference fault scenario: PR 3's "reference: churn +
/// lossy" row (10% drop both directions, ≤1 s delay, 0.1%/step node
/// crashes with 20 s outages). The breaker-trip doctor chain runs the
/// *naive* flavor on this scenario — staleness against the moving
/// budget is what trips the facility breaker.
pub fn fleet_scenario(seed: u64) -> ClusterFaultConfig {
    ClusterFaultConfig::default_scenario(seed)
}

/// The fallback-cap doctor scenario: PR 3's partition + lossy grid row
/// (server 2 cut from the manager 60–180 s, 10% drop and ≤1 s delay
/// both directions). The *resilient* flavor on this scenario engages
/// the partitioned node's local fallback cap, decays it toward the
/// idle floor, and releases it on rejoin — the chain
/// `doctor --explain fallback-cap` reconstructs. Churn is off here on
/// purpose: a crash landing mid-partition splits the outage into two
/// half-episodes (the first loses its release to the reboot, the
/// second engages already at the floor with nothing left to decay),
/// and the doctor's reference chain should show every phase.
pub fn fleet_doctor_scenario(seed: u64) -> ClusterFaultConfig {
    ClusterFaultConfig {
        downlink_drop_prob: 0.10,
        downlink_delay_max_steps: 2,
        uplink_drop_prob: 0.10,
        uplink_delay_max_steps: 2,
        partitions: vec![PartitionWindow {
            server: 2,
            from_step: 120,
            until_step: 360,
        }],
        ..ClusterFaultConfig::none(seed)
    }
}

/// Runs one flight-recorded cluster scenario: [`ext_cluster_faults`]'s
/// cap schedule and breaker, with per-server journals shipping digests
/// on every uplink and the manager folding them into a fleet timeline.
/// The returned report's `fleet` section is always populated.
pub fn run_fleet_observed(
    faults: &ClusterFaultConfig,
    resilient: bool,
    servers: usize,
    duration: Seconds,
    fleet: &FleetObsOptions,
) -> ResilienceReport {
    let caps = ext_cluster_faults::cap_schedule(servers, duration);
    let options = ControlOptions {
        resilient,
        faults: faults.clone(),
        breaker: BreakerConfig::default(),
        ..ControlOptions::perfect(faults.seed)
    };
    ClusterManager::new(servers, 7).run_flight_recorded(
        ManagedPolicy::equal_ours(),
        &caps,
        ext_cluster_faults::DT,
        &options,
        fleet,
    )
}

/// One short flight-recorded reference run condensed to a determinism
/// witness: the merged timeline's byte-identity digest folded with the
/// fault-trace digest, the shipping counters, and the outcome bits.
/// Two same-seed calls must agree bit-for-bit (the CI double-run
/// compares stdout across processes); different seeds must not.
pub fn fleet_smoke_digest(seed: u64) -> u64 {
    let report = run_fleet_observed(
        &fleet_scenario(seed),
        true,
        4,
        Seconds::new(60.0),
        &FleetObsOptions::default(),
    );
    let fleet = report.fleet.as_ref().expect("fleet recording enabled");
    let mut digest = fleet.timeline.digest();
    for bits in [
        report.trace_digest,
        report.violation_seconds.to_bits(),
        fleet.digest_bytes_total,
        fleet.max_wave_bytes,
        fleet.timeline.len() as u64,
        fleet.timeline.dedup_total(),
    ] {
        digest ^= bits;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// Prints the fleet flight-recorder experiment: merged-timeline and
/// shipping census for both reference flavors, plus one cross-server
/// chain of each kind.
pub fn print_fleet(naive: &ResilienceReport, resilient: &ResilienceReport) {
    heading("Extension: fleet flight recorder (journals shipped over the control plane)");
    for (label, report) in [
        ("naive, churn+lossy", naive),
        ("resilient, partition+lossy", resilient),
    ] {
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        let sources = 1 + fleet.server_obs.len();
        println!(
            "{label}: timeline {} records from {} journals; shipped {} digest bytes \
             (max wave {} B), dedup {}, gaps {}",
            fleet.timeline.len(),
            sources,
            fleet.digest_bytes_total,
            fleet.max_wave_bytes,
            fleet.timeline.dedup_total(),
            fleet.digest_gaps,
        );
    }

    for (name, report) in [("breaker-trip", naive), ("fallback-cap", resilient)] {
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        println!();
        match chain::explain_timeline(name, &fleet.timeline) {
            Some(c) => chain::print(&c),
            None => println!("no {name} chain in this run"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_telemetry::journal::{
        EventRecord, FleetTimeline, ObsEvent, SafeModeTransition, MANAGER_SERVER_ID,
    };

    #[test]
    fn same_seed_observed_runs_are_bit_identical() {
        assert_eq!(smoke_digest(3), smoke_digest(3));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(smoke_digest(3), smoke_digest(4));
    }

    #[test]
    fn observed_run_matches_unobserved_physics() {
        let scenario = reference_scenario(SEED);
        let mix = ext_faults::reference_mix();
        let duration = Seconds::new(5.0);
        let off = ext_faults::run_one(&scenario, &mix, true, duration);
        let on = run_observed(&scenario, &mix, duration, ObsConfig::default());
        assert_eq!(off.mean_normalized, on.mean_normalized);
        assert_eq!(off.violation_fraction, on.violation_fraction);
        assert_eq!(off.trace_digest, on.trace_digest);
        assert_eq!(off.safe_mode, on.safe_mode);
    }

    #[test]
    fn explain_throttle_reconstructs_the_chain() {
        // Hand-built journal: over-cap polls and a sensor verdict arm
        // the watchdog, safe mode engages, both apps are throttled.
        let at = Seconds::new;
        let mut j = powermed_telemetry::journal::EventJournal::new(64);
        let poll = |over| ObsEvent::Poll {
            alloc_w: 80.0,
            net_w: 90.0,
            observed_w: Some(90.0),
            cap_w: 80.0,
            over_cap: over,
        };
        j.record(at(0.0), 1, 0, poll(false));
        j.record(at(0.1), 2, 0, poll(true));
        j.record(
            at(0.1),
            2,
            0,
            ObsEvent::SensorSuspect {
                dropouts: 1,
                stuck: 0,
            },
        );
        j.record(at(0.2), 3, 0, poll(true));
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::SafeMode {
                transition: SafeModeTransition::Engaged,
            },
        );
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::ForceThrottle {
                app: "stream".into(),
            },
        );
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::ForceThrottle {
                app: "kmeans".into(),
            },
        );
        let journal: Vec<EventRecord> = j.iter().cloned().collect();

        let ex =
            chain::explain_journal("throttle", &journal, Some("stream")).expect("chain exists");
        assert!(matches!(
            ex.anchor.record.event,
            ObsEvent::ForceThrottle { ref app } if app == "stream"
        ));
        let causes = &ex["causes"];
        let engage = &ex["engage"][0].record;
        assert_eq!(causes.len(), 3, "two over-cap polls + one verdict");
        assert!(causes.windows(2).all(|w| w[0].record.seq < w[1].record.seq));
        assert!(causes.iter().all(|c| c.record.seq < engage.seq));
        assert!(engage.seq < ex.anchor.record.seq);
        // The clean poll before the breach is not evidence.
        assert!(causes.iter().all(|c| c.record.seq != 0));

        assert!(
            chain::explain_journal("throttle", &journal, Some("absent")).is_none(),
            "unknown app has no chain"
        );
        let any = chain::explain_journal("throttle", &journal, None).expect("any-app chain");
        assert!(matches!(
            any.anchor.record.event,
            ObsEvent::ForceThrottle { ref app } if app == "kmeans"
        ));
    }

    #[test]
    fn reference_run_yields_an_explainable_throttle() {
        // The acceptance contract behind `doctor --explain throttle`:
        // the reference scenario's full observed run must contain a
        // reconstructable chain for every app in the mix.
        let out = run_observed(
            &reference_scenario(SEED),
            &ext_faults::reference_mix(),
            SCENARIO_DURATION,
            ObsConfig::default(),
        );
        let journal = out.obs.journal_snapshot();
        let mix = ext_faults::reference_mix();
        for app in mix.apps() {
            let ex = chain::explain_journal("throttle", &journal, Some(app.name()))
                .unwrap_or_else(|| panic!("no chain for {}", app.name()));
            assert!(
                !ex["causes"].is_empty(),
                "{}: engagement must have evidence",
                app.name()
            );
            assert!(ex["causes"]
                .iter()
                .any(|c| matches!(c.record.event, ObsEvent::Poll { over_cap: true, .. })));
        }
    }

    #[test]
    fn fleet_smoke_is_deterministic_and_seed_sensitive() {
        assert_eq!(fleet_smoke_digest(3), fleet_smoke_digest(3));
        assert_ne!(fleet_smoke_digest(3), fleet_smoke_digest(4));
    }

    #[test]
    fn fleet_recording_leaves_cluster_physics_bit_identical() {
        // Zero-cost-on for the physics: the flight-recorded run and the
        // plain PR 3 run must agree bit-for-bit on everything measured.
        let scenario = ext_cluster_faults::Scenario {
            label: "fleet off",
            faults: fleet_scenario(11),
        };
        let off = ext_cluster_faults::run_one(&scenario, true, 4, Seconds::new(60.0));
        let on = run_fleet_observed(
            &fleet_scenario(11),
            true,
            4,
            Seconds::new(60.0),
            &FleetObsOptions::default(),
        );
        assert_eq!(off.trace_digest, on.trace_digest);
        assert_eq!(off.violation_seconds, on.violation_seconds);
        assert_eq!(
            off.aggregate_normalized_perf,
            on.report.aggregate_normalized_perf
        );
        assert_eq!(off.stats, on.stats);
    }

    fn mgr_breaker_journal() -> Vec<EventRecord> {
        let at = Seconds::new;
        let mut j = powermed_telemetry::journal::EventJournal::new(64);
        // An older, reset streak that must NOT join the chain.
        j.record(
            at(1.0),
            2,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 910.0,
                budget_w: 900.0,
                streak: 1,
            },
        );
        // The arming streak, interleaved with attribution + uplinks.
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::UplinkSent {
                server: 3,
                step: 10,
            },
        );
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 930.0,
                budget_w: 900.0,
                streak: 1,
            },
        );
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::ServerOverdraw {
                server: 3,
                net_w: 95.0,
                share_w: 80.0,
            },
        );
        j.record(
            at(5.5),
            11,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 935.0,
                budget_w: 900.0,
                streak: 2,
            },
        );
        j.record(
            at(5.5),
            11,
            1,
            ObsEvent::ServerOverdraw {
                server: 3,
                net_w: 96.0,
                share_w: 80.0,
            },
        );
        j.record(
            at(6.0),
            12,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 940.0,
                budget_w: 900.0,
                streak: 3,
            },
        );
        j.record(
            at(6.0),
            12,
            1,
            ObsEvent::BreakerTrip {
                hold_steps: 20,
                floor_w: 60.0,
            },
        );
        j.record(at(6.0), 12, 1, ObsEvent::EmergencyClamp { server: 0 });
        j.record(at(6.0), 12, 1, ObsEvent::EmergencyClamp { server: 3 });
        j.record(at(16.0), 32, 1, ObsEvent::BreakerRelease);
        j.iter().cloned().collect()
    }

    #[test]
    fn explain_breaker_trip_reconstructs_the_cross_server_chain() {
        let at = Seconds::new;
        let poll = |over| ObsEvent::Poll {
            alloc_w: 80.0,
            net_w: 95.0,
            observed_w: Some(95.0),
            cap_w: 95.0,
            over_cap: over,
        };
        let mut timeline = FleetTimeline::new();
        timeline.merge_records(MANAGER_SERVER_ID, &mgr_breaker_journal());
        // Server 3's shipped journal: one poll before the window, two
        // inside it (the stale-cap server believes it is under cap).
        let mut s3 = powermed_telemetry::journal::EventJournal::new(64);
        s3.record(at(1.0), 2, 1, poll(false));
        s3.record(at(5.0), 10, 1, poll(false));
        s3.record(at(5.5), 11, 1, poll(false));
        let s3_records: Vec<EventRecord> = s3.iter().cloned().collect();
        timeline.merge_records(3, &s3_records);

        let ex = chain::explain_timeline("breaker-trip", &timeline).expect("chain exists");
        assert!(matches!(
            ex.anchor.record.event,
            ObsEvent::BreakerTrip { .. }
        ));
        assert_eq!(ex.servers("overdraws"), vec![3]);
        // The streak is the three counting steps — the reset streak at
        // t=1.0 s is excluded.
        assert_eq!(ex["armed"].len(), 3);
        assert!(ex["armed"]
            .windows(2)
            .all(|w| w[0].record.seq < w[1].record.seq));
        assert_eq!(ex["overdraws"].len(), 2);
        assert_eq!(ex["uplinks"].len(), 1);
        assert_eq!(ex["clamps"].len(), 2);
        assert_eq!(ex["release"].len(), 1);
        // Only the in-window polls are evidence.
        assert_eq!(ex["polls"].len(), 2);
        assert!(ex["polls"].iter().all(|p| p.record.at.value() >= 5.0));

        // No overdraw attribution -> no chain.
        let mut bare = FleetTimeline::new();
        let keep: Vec<EventRecord> = mgr_breaker_journal()
            .into_iter()
            .filter(|r| !matches!(r.event, ObsEvent::ServerOverdraw { .. }))
            .collect();
        bare.merge_records(MANAGER_SERVER_ID, &keep);
        assert!(chain::explain_timeline("breaker-trip", &bare).is_none());
        // Empty timeline -> no chain.
        assert!(chain::explain_timeline("breaker-trip", &FleetTimeline::new()).is_none());
    }

    #[test]
    fn explain_fallback_cap_reconstructs_the_cross_server_chain() {
        let at = Seconds::new;
        let mut s2 = powermed_telemetry::journal::EventJournal::new(64);
        s2.record(at(60.0), 120, 2, ObsEvent::HeartbeatMissed { misses: 1 });
        s2.record(at(62.0), 124, 2, ObsEvent::HeartbeatMissed { misses: 2 });
        s2.record(at(64.0), 128, 2, ObsEvent::HeartbeatMissed { misses: 3 });
        s2.record(at(64.0), 128, 2, ObsEvent::FallbackEngage { cap_w: 90.0 });
        s2.record(at(66.0), 132, 2, ObsEvent::FallbackDecay { cap_w: 85.0 });
        s2.record(at(68.0), 136, 2, ObsEvent::FallbackDecay { cap_w: 80.0 });
        s2.record(at(180.5), 361, 3, ObsEvent::FallbackRelease { cap_w: 95.0 });
        let s2_records: Vec<EventRecord> = s2.iter().cloned().collect();

        let mut mgr = powermed_telemetry::journal::EventJournal::new(64);
        mgr.record(at(61.0), 122, 2, ObsEvent::EndpointLoss { server: 2 });
        mgr.record(at(61.0), 122, 2, ObsEvent::EndpointLoss { server: 0 });
        let mgr_records: Vec<EventRecord> = mgr.iter().cloned().collect();

        let mut timeline = FleetTimeline::new();
        timeline.merge_records(2, &s2_records);
        timeline.merge_records(MANAGER_SERVER_ID, &mgr_records);

        let ex = chain::explain_timeline("fallback-cap", &timeline).expect("chain exists");
        assert_eq!(ex.anchor.server_id, 2);
        assert_eq!(ex["missed"].len(), 3);
        assert!(ex["missed"]
            .windows(2)
            .all(|w| w[0].record.seq < w[1].record.seq));
        assert_eq!(ex["decays"].len(), 2);
        assert!(matches!(
            ex["release"][0].record.event,
            ObsEvent::FallbackRelease { cap_w } if cap_w == 95.0
        ));
        // Only server 2's endpoint loss is evidence.
        assert_eq!(ex["losses"].len(), 1);

        // A newer decay-free episode (engaged already at the floor)
        // loses to the richer one with decay steps…
        let mut floor = powermed_telemetry::journal::EventJournal::new(64);
        floor.record(at(200.0), 400, 3, ObsEvent::HeartbeatMissed { misses: 1 });
        floor.record(at(202.0), 404, 3, ObsEvent::HeartbeatMissed { misses: 2 });
        floor.record(at(202.0), 404, 3, ObsEvent::FallbackEngage { cap_w: 50.0 });
        floor.record(at(210.0), 420, 4, ObsEvent::FallbackRelease { cap_w: 95.0 });
        let floor_records: Vec<EventRecord> = floor.iter().cloned().collect();
        timeline.merge_records(4, &floor_records);
        let ex = chain::explain_timeline("fallback-cap", &timeline).expect("chain exists");
        assert_eq!(ex.anchor.server_id, 2, "decay-rich episode preferred");

        // …but still chains when it is the only complete episode.
        let mut t2 = FleetTimeline::new();
        t2.merge_records(4, &floor_records);
        let ex2 = chain::explain_timeline("fallback-cap", &t2).expect("floor episode chains");
        assert_eq!(ex2.anchor.server_id, 4);
        assert!(ex2["decays"].is_empty());

        // A still-partitioned run (no release retained) has no chain.
        let mut open = FleetTimeline::new();
        open.merge_records(2, &s2_records[..s2_records.len() - 1]);
        assert!(chain::explain_timeline("fallback-cap", &open).is_none());
    }

    #[test]
    fn fleet_metrics_round_trip_through_the_harness_doc() {
        // Satellite contract: the manager's fleet metrics exposition
        // survives the BENCH_harness.json save/load cycle bit-for-bit.
        let report = run_fleet_observed(
            &fleet_scenario(5),
            true,
            2,
            Seconds::new(20.0),
            &FleetObsOptions::default(),
        );
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        let mut doc = crate::support::HarnessDoc::load("/nonexistent/BENCH_harness.json");
        doc.set("ext_obs_fleet_metrics", fleet.metrics.to_json());
        let path = std::env::temp_dir().join(format!(
            "powermed_fleet_metrics_{}.json",
            std::process::id()
        ));
        let path = path.to_string_lossy().into_owned();
        doc.save(&path).expect("temp file is writable");
        let loaded = crate::support::HarnessDoc::load(&path);
        std::fs::remove_file(&path).ok();
        let text = loaded
            .get("ext_obs_fleet_metrics")
            .expect("section survives the save/load cycle");
        let back = powermed_telemetry::metrics::MetricsRegistry::from_json(text)
            .expect("exposition parses back");
        assert_eq!(back, fleet.metrics);
        assert!(back.counter("digest_bytes_total") > 0);
        assert!(back.gauge("timeline_len").is_some());
        assert!(back.gauge("last_acked_seq{server=\"0\"}").is_some());
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release or --ignored"]
    fn breaker_trip_chain_exists_on_the_naive_reference() {
        // The acceptance contract behind `doctor --explain breaker-trip`.
        let report = run_fleet_observed(
            &fleet_scenario(ext_cluster_faults::SEED),
            false,
            ext_cluster_faults::SERVERS,
            ext_cluster_faults::DURATION,
            &FleetObsOptions::default(),
        );
        assert!(report.stats.breaker_trips > 0);
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        let ex =
            chain::explain_timeline("breaker-trip", &fleet.timeline).expect("breaker-trip chain");
        assert!(!ex.servers("overdraws").is_empty());
        assert!(
            !ex["polls"].is_empty(),
            "implicated servers shipped their polls"
        );
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release or --ignored"]
    fn fallback_cap_chain_exists_on_the_partitioned_reference() {
        // The acceptance contract behind `doctor --explain fallback-cap`.
        let report = run_fleet_observed(
            &fleet_doctor_scenario(ext_cluster_faults::SEED),
            true,
            ext_cluster_faults::SERVERS,
            ext_cluster_faults::DURATION,
            &FleetObsOptions::default(),
        );
        assert!(report.stats.fallback_engagements > 0);
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        let ex =
            chain::explain_timeline("fallback-cap", &fleet.timeline).expect("fallback-cap chain");
        assert_eq!(
            ex.anchor.server_id, 2,
            "the partitioned server engaged the fallback"
        );
        assert!(!ex["losses"].is_empty(), "manager saw the endpoint outage");
    }
}
