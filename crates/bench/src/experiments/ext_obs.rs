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
//! across same-seed processes, and [`measure_fleet_overhead`] prices
//! the recorder against the same run with recording off (gated at
//! [`FLEET_OVERHEAD_GATE`]).

use std::time::Instant;

use powermed_cluster::control::{
    self, BreakerConfig, ClusterFaultConfig, ControlOptions, FleetObsOptions, ManagedPolicy,
    PartitionWindow, ResilienceReport,
};
use powermed_cluster::manager::ClusterManager;
use powermed_telemetry::journal::{Obs, ObsConfig};
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::Mix;

use crate::chain;
use crate::experiments::ext_cluster_faults;
use crate::experiments::ext_faults::{self, Scenario, SCENARIO_DURATION, SEED};
use crate::support::{field, fold_words, heading, json_object, merge_harness, HarnessDoc, HARNESS};

/// The PR 2 reference fault scenario (1% knob failures, 2% meter noise,
/// faded ESD) at the 80 W ESD-aware operating point — the scenario the
/// `doctor` command replays.
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
    fold_words(
        out.obs.digest(),
        [
            out.trace_digest,
            out.mean_normalized.to_bits(),
            out.violation_fraction.to_bits(),
            out.obs.journal_counts().2,
        ],
    )
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
/// not the recorder's cost relative to mediation. Best-of (a minimum
/// estimator) filters scheduler noise, and physics equality is asserted
/// once per repeat so the two flavors are provably timing the same work.
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
    control::run_cluster_flight_recorded(
        &ClusterManager::new(servers, 7).workload(),
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
    fold_words(
        fleet.timeline.digest(),
        [
            report.trace_digest,
            report.violation_seconds.to_bits(),
            fleet.digest_bytes_total,
            fleet.max_wave_bytes,
            fleet.timeline.len() as u64,
            fleet.timeline.dedup_total(),
        ],
    )
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

/// Timed plain/recorded pairs per flavor in [`measure_fleet_overhead`].
pub const FLEET_OVERHEAD_PAIRS: usize = 5;

/// Fleet-recording overhead gate: on each reference flavor the
/// flight-recorded run may take at most this multiple of the same run
/// with recording off.
pub const FLEET_OVERHEAD_GATE: f64 = 5.0;

/// Wall-clock cost of the fleet flight recorder on one reference
/// flavor: [`FLEET_OVERHEAD_PAIRS`] interleaved pairs of the plain run
/// ([`ext_cluster_faults::run_one`]) and the recorded one
/// ([`run_fleet_observed`]) over the 10-server, 480 s reference;
/// returns the median recorded-over-plain ratio. Interleaving exposes
/// both flavors to the same machine load, and the median of per-pair
/// ratios drops a pair a scheduler hiccup spoiled. Each pair asserts
/// the two runs saw the same fault history, so both time the same work.
pub fn measure_fleet_overhead(faults: &ClusterFaultConfig, resilient: bool) -> f64 {
    let scenario = ext_cluster_faults::Scenario {
        label: "fleet overhead",
        faults: faults.clone(),
    };
    let (servers, duration) = (ext_cluster_faults::SERVERS, ext_cluster_faults::DURATION);
    let fleet = FleetObsOptions::default();
    let mut ratios: Vec<f64> = (0..FLEET_OVERHEAD_PAIRS)
        .map(|_| {
            let t = Instant::now();
            let plain = ext_cluster_faults::run_one(&scenario, resilient, servers, duration);
            let plain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let recorded = run_fleet_observed(faults, resilient, servers, duration, &fleet);
            let recorded_s = t.elapsed().as_secs_f64();
            assert_eq!(
                plain.trace_digest, recorded.trace_digest,
                "recorded fleet physics must match the plain run bit-for-bit"
            );
            recorded_s / plain_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Overhead gate: the recorder's marginal wall-clock across the
/// measurement batch may cost at most this fraction of the `all`
/// harness's wall-clock (the < 5% target).
pub const OVERHEAD_GATE: f64 = 0.05;

/// The full `ext_obs` run: [`print()`], the overhead measurement and both
/// fleet reference flavors flight-recorded ([`print_fleet`]), merged
/// into the `ext_obs`, `ext_obs_metrics`, `ext_obs_fleet` and
/// `ext_obs_fleet_metrics` harness sections.
///
/// Exits 1 — *after* recording the measurement, so a failed gate still
/// leaves the evidence in the harness document — when a fleet wave put
/// more than `servers × max_digest_bytes` on the wire, when fleet
/// recording costs more than [`FLEET_OVERHEAD_GATE`] times the plain
/// run on either reference flavor, or when the enabled-mode overhead
/// exceeds [`OVERHEAD_GATE`] of the `all` harness's recorded
/// `total_seconds` (of this run's own wall-clock, a far smaller and so
/// stricter denominator, when `all` has not run).
pub fn report() {
    let start = Instant::now();
    print();
    let (off, on) = measure_overhead(3);
    let extra = (on - off).max(0.0);
    let per_run_ratio = if off > 0.0 { on / off } else { 1.0 };
    let secs = start.elapsed().as_secs_f64();

    let all_seconds = HarnessDoc::load(HARNESS)
        .get("total_seconds")
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|v| *v > 0.0);
    let denom = all_seconds.unwrap_or(secs);
    let ratio = extra / denom;
    println!(
        "\nflight-recorder overhead: off {off:.4} s, on {on:.4} s per {OVERHEAD_BATCH}-run batch \
         (per-run ratio {per_run_ratio:.4})"
    );
    println!(
        "enabled-mode overhead: {extra:.6} s extra vs {} wall-clock {denom:.3} s \
         -> {:.4}% (gate {:.1}%)",
        if all_seconds.is_some() {
            "`all`"
        } else {
            "ext_obs (no `all` section)"
        },
        ratio * 100.0,
        OVERHEAD_GATE * 100.0
    );
    println!("ext_obs wall-clock: {secs:.3} s");

    // One more observed run for the exposition section (deterministic,
    // so it matches what `print` just reported).
    let run = run_observed(
        &reference_scenario(SEED),
        &ext_faults::reference_mix(),
        SCENARIO_DURATION,
        ObsConfig::default(),
    );
    let (retained, evicted, total) = run.obs.journal_counts();
    let obs_section = json_object(&[
        field("seconds", format!("{secs:.6}")),
        field("overhead_off_seconds", format!("{off:.6}")),
        field("overhead_on_seconds", format!("{on:.6}")),
        field("overhead_batch_runs", OVERHEAD_BATCH),
        field("overhead_extra_seconds", format!("{extra:.6}")),
        field("overhead_per_run_ratio", format!("{per_run_ratio:.6}")),
        field("overhead_all_seconds", format!("{denom:.6}")),
        field("overhead_ratio", format!("{ratio:.6}")),
        field("overhead_gate", format!("{OVERHEAD_GATE:.6}")),
        field("journal_events", total),
        field("journal_retained", retained),
        field("journal_dropped", evicted),
    ]);

    // Fleet mode: both doctor reference flavors, flight-recorded over
    // the control plane — the naive churn+lossy run (breaker-trip's
    // scenario) and the resilient partition run (fallback-cap's).
    let fleet_opts = FleetObsOptions::default();
    let servers = ext_cluster_faults::SERVERS;
    let flavors = [
        (fleet_scenario(ext_cluster_faults::SEED), false),
        (fleet_doctor_scenario(ext_cluster_faults::SEED), true),
    ];
    let [naive, resilient] = flavors.clone().map(|(faults, resilient)| {
        let duration = ext_cluster_faults::DURATION;
        run_fleet_observed(&faults, resilient, servers, duration, &fleet_opts)
    });
    print_fleet(&naive, &resilient);
    let [naive_overhead, resilient_overhead] =
        flavors.map(|(faults, resilient)| measure_fleet_overhead(&faults, resilient));
    println!(
        "\nfleet recording overhead (median of {FLEET_OVERHEAD_PAIRS} interleaved pairs): \
         naive churn+lossy {naive_overhead:.2}x, resilient partition+lossy \
         {resilient_overhead:.2}x the plain run (gate {FLEET_OVERHEAD_GATE:.1}x)"
    );

    // The per-wave shipping bound the digests promise by construction:
    // no step may put more than `servers * max_digest_bytes` on the
    // wire. Checked on both flavors, enforced after recording.
    let wave_bound = (servers * fleet_opts.max_digest_bytes) as u64;
    let nf = naive.fleet.as_ref().expect("fleet recording enabled");
    let rf = resilient.fleet.as_ref().expect("fleet recording enabled");
    let worst_wave = nf.max_wave_bytes.max(rf.max_wave_bytes);
    println!(
        "\nfleet shipping bound: worst wave {worst_wave} B of {wave_bound} B allowed \
         ({servers} servers x {} B digest cap)",
        fleet_opts.max_digest_bytes
    );
    let fleet_section = json_object(&[
        field("naive_timeline_len", nf.timeline.len()),
        field(
            "naive_timeline_digest",
            format!("\"{:#018x}\"", nf.timeline.digest()),
        ),
        field("naive_digest_bytes_total", nf.digest_bytes_total),
        field("naive_breaker_trips", naive.stats.breaker_trips),
        field("resilient_timeline_len", rf.timeline.len()),
        field(
            "resilient_timeline_digest",
            format!("\"{:#018x}\"", rf.timeline.digest()),
        ),
        field("resilient_digest_bytes_total", rf.digest_bytes_total),
        field(
            "resilient_fallback_engagements",
            resilient.stats.fallback_engagements,
        ),
        field("max_wave_bytes", worst_wave),
        field("wave_bound_bytes", wave_bound),
        field("digest_gaps", nf.digest_gaps + rf.digest_gaps),
        field("naive_overhead_ratio", format!("{naive_overhead:.6}")),
        field(
            "resilient_overhead_ratio",
            format!("{resilient_overhead:.6}"),
        ),
        field("overhead_gate_ratio", format!("{FLEET_OVERHEAD_GATE:.6}")),
    ]);
    merge_harness(
        vec![
            ("ext_obs", obs_section),
            ("ext_obs_metrics", run.obs.metrics().to_json()),
            ("ext_obs_fleet", fleet_section),
            ("ext_obs_fleet_metrics", rf.metrics.to_json()),
        ],
        "merged ext_obs into BENCH_harness.json",
    );

    if worst_wave > wave_bound {
        eprintln!(
            "ext_obs FAILED: fleet wave {worst_wave} B exceeds the shipping bound \
             {wave_bound} B"
        );
        std::process::exit(1);
    }
    let worst_overhead = naive_overhead.max(resilient_overhead);
    if worst_overhead > FLEET_OVERHEAD_GATE {
        eprintln!(
            "ext_obs FAILED: fleet recording costs {worst_overhead:.2}x the plain run, \
             over the {FLEET_OVERHEAD_GATE:.1}x gate"
        );
        std::process::exit(1);
    }
    if ratio > OVERHEAD_GATE {
        eprintln!(
            "ext_obs FAILED: enabled-mode overhead {:.4}% of `all` wall-clock exceeds \
             gate {:.1}%",
            ratio * 100.0,
            OVERHEAD_GATE * 100.0
        );
        std::process::exit(1);
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
