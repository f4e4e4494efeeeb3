//! The `PowerMediator`: the paper's full runtime (Fig. 6) driving a
//! simulated server.
//!
//! Per control step it (1) executes the current [`Schedule`] — applying
//! knobs, suspending/resuming applications, commanding the ESD —
//! (2) advances the simulation, (3) lets the [`Accountant`] poll the
//! telemetry, and (4) re-plans (and re-calibrates, for E4) whenever an
//! event fires.
//!
//! Each optional layer — hardening, estimation, the integrity defense
//! and the profile knowledge plane — keeps its state in one private
//! stage value behind a single `Option`; `None` skips the layer with no
//! extra work per step. The safe-mode watchdog, the schedule and the
//! counters several layers bump stay in the core.

use std::collections::{BTreeMap, BTreeSet};

use powermed_disagg::{
    AppPrior, DegradeAction, EstimatedBreakdown, EstimatorConfig, PowerEstimator,
};
use powermed_profiles::{
    AppFingerprint, ProbeSplit, ProfileDigest, ProfileStore, Provenance, StoredProfile,
};
use powermed_server::knobs::{KnobGrid, KnobSetting};
use powermed_server::server::AppRunState;
use powermed_server::ServerSpec;
use powermed_sim::engine::{EsdCommand, ServerSim, StepReport};
use powermed_telemetry::faults::{EstimationStats, HardeningStats, TrustStats};
use powermed_telemetry::journal::{KnobWriteVerdict, Obs, ObsEvent, SafeModeTransition};
use powermed_telemetry::ProfileStoreStats;
use powermed_units::{Ratio, Seconds, Watts};
use powermed_workloads::profile::AppProfile;

use crate::accountant::{Accountant, Event, Observation};
use crate::cache::MeasurementCache;
use crate::calibration::Calibrator;
use crate::coordinator::{EsdParams, Schedule, TimeSlot};
use crate::error::CoreError;
use crate::measurement::AppMeasurement;
use crate::policy::{PolicyKind, PowerPolicy};
use crate::slo::SloPlanner;
use crate::trust::{
    clamp_budget, Evidence, TrustConfig, TrustScore, TrustTransition, WattDebtLedger,
};
use crate::watchdog::{HardeningConfig, SafeModeWatchdog, WatchdogTransition};

/// Which part of a temporal schedule is currently actuated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Actuation {
    None,
    Space,
    Slot(usize),
    HybridSlot(usize),
    /// Hybrid with no batch slots: pinned apps only.
    HybridPinned,
    EsdOff,
    EsdOn,
    Parked,
}

/// One poll's recorded self-report, held for the integrity layer's
/// plausibility cross-checks (defense mode only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClaimRecord {
    /// Raw claimed-over-expected heartbeat ratio (pre-clamp).
    ratio: f64,
    /// The profile's unscaled prediction at the actuated knob, in
    /// watts — what the claim moved the prior away from.
    unscaled_w: f64,
    /// Whether the ratio hit the estimator's clamp bound.
    clamped: bool,
}

/// A pending hardened knob retry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RetryState {
    /// Grid index being retried.
    idx: usize,
    /// Retry attempts already made.
    attempts: u32,
    /// Sim time before which the next attempt must not run (backoff).
    next_at: Seconds,
    /// Sim time of the original write that failed to land (the
    /// actuation-retry-latency metric measures from here).
    since: Seconds,
}

/// Graceful-degradation state ([`PowerMediator::with_hardening`]):
/// knob retries and the health of the observed power channel.
#[derive(Debug)]
struct Hardening {
    config: HardeningConfig,
    /// Knob writes that did not land, keyed by app, awaiting retry.
    retries: BTreeMap<String, RetryState>,
    /// Consecutive polls with no power sample at all.
    consecutive_dropouts: u32,
    /// Consecutive polls where the external meter repeated itself while
    /// the internal (RAPL-side) reading moved.
    stuck_observed: u32,
    last_observed: Option<Watts>,
    last_true_net: Option<Watts>,
    /// E6 fires once per bad-sensor episode.
    sensor_latched: bool,
}

impl Hardening {
    fn new(config: HardeningConfig) -> Self {
        Self {
            config,
            retries: BTreeMap::new(),
            consecutive_dropouts: 0,
            stuck_observed: 0,
            last_observed: None,
            last_true_net: None,
            sensor_latched: false,
        }
    }

    /// Sensor health for one poll. The external (PDU-side) observed
    /// channel is cross-checked against the internal RAPL-side reading:
    /// a meter that repeats itself bit-for-bit while the internal
    /// reading moves is stuck, and missing samples are dropouts.
    /// Returns the E6 description when a bad-sensor episode starts.
    fn note_sample(&mut self, report: &StepReport) -> Option<String> {
        match report.observed_net_power {
            None => {
                self.consecutive_dropouts += 1;
                self.stuck_observed = 0;
            }
            Some(obs) => {
                self.consecutive_dropouts = 0;
                let truth_moved = self
                    .last_true_net
                    .is_some_and(|t| (report.net_power - t).abs() > Watts::new(1e-6));
                if self.last_observed == Some(obs) && truth_moved {
                    self.stuck_observed += 1;
                } else {
                    self.stuck_observed = 0;
                }
                self.last_observed = Some(obs);
            }
        }
        self.last_true_net = Some(report.net_power);
        let dropped_out = self.consecutive_dropouts >= self.config.dropout_patience;
        let stuck = self.stuck_observed >= self.config.stuck_patience;
        if (dropped_out || stuck) && !self.sensor_latched {
            self.sensor_latched = true;
            return Some(if dropped_out {
                format!("{} consecutive dropouts", self.consecutive_dropouts)
            } else {
                format!("meter stuck for {} polls", self.stuck_observed)
            });
        }
        if self.consecutive_dropouts == 0 && self.stuck_observed == 0 {
            self.sensor_latched = false;
        }
        None
    }

    /// The watchdog's sample for this poll: fresh samples feed it
    /// directly, and a brief dropout is bridged with the last good
    /// reading for a bounded window — a breach in progress keeps arming
    /// the watchdog through a flaky meter. Past the window the channel
    /// is treated as absent (stale evidence is neither over- nor
    /// under-cap) and the E6 dropout deadline takes over.
    fn watchdog_sample(&self, report: &StepReport) -> Option<Watts> {
        match report.observed_net_power {
            Some(o) => Some(o),
            None if self.consecutive_dropouts <= self.config.dropout_hold_polls => {
                self.last_observed
            }
            None => None,
        }
    }
}

/// Non-intrusive power estimation state
/// ([`PowerMediator::with_estimation`]).
#[derive(Debug)]
struct Estimation {
    estimator: PowerEstimator,
    stats: EstimationStats,
    /// Conservative headroom shaved off the planning cap while the
    /// fallback is engaged (zero otherwise). The enforced cap handed to
    /// the simulator never changes — only how aggressively the planner
    /// fills it.
    fallback_shave: Watts,
    /// The most recent reconstructed breakdown.
    last_estimate: Option<EstimatedBreakdown>,
    /// Confidence of the profile each app's prior rides on (1.0 for a
    /// freshly measured surface; the store's confidence for a
    /// warm-started one).
    prior_confidence: BTreeMap<String, f64>,
}

/// Integrity-defense state ([`PowerMediator::with_integrity_defense`]).
#[derive(Debug)]
struct Defense {
    config: TrustConfig,
    /// Per-app trust state.
    trust: BTreeMap<String, TrustScore>,
    /// Overdrawn watts awaiting clawback.
    debts: WattDebtLedger,
    /// Quarantined apps that kept overdrawing with the clamp in force
    /// — the signature of knob non-compliance, which no commanded
    /// setting can curb. A contained app is planned with *no* setting
    /// (the actuator suspends it) until its watt debt is repaid in
    /// idle time; run-state is the one lever a defiant app cannot
    /// fake.
    contained: BTreeSet<String>,
    /// Deadline of the running integrity audit, if one is active: the
    /// planner pins a minimum-power Space schedule until then so
    /// heartbeat claims can mature and assign blame for an unexplained
    /// residual.
    audit_until: Option<Seconds>,
    stats: TrustStats,
    /// Self-reports recorded by the latest estimate pass, keyed by app.
    claims: BTreeMap<String, ClaimRecord>,
    /// Apps whose E4 churn crossed the threshold since the last
    /// integrity pass (strong evidence queued to avoid re-entrant
    /// event handling).
    drift_strikes: Vec<String>,
    /// When each app's knob last actually changed. Replans that
    /// re-install the same setting do not reset an app's heartbeat
    /// window — under an E4 storm the global actuation clock never
    /// settles, and the defense still needs clean claims from the apps
    /// whose settings are stable.
    knob_stable_since: BTreeMap<String, Seconds>,
}

impl Defense {
    fn new(config: TrustConfig) -> Self {
        Self {
            config,
            trust: BTreeMap::new(),
            debts: WattDebtLedger::new(),
            contained: BTreeSet::new(),
            audit_until: None,
            stats: TrustStats::default(),
            claims: BTreeMap::new(),
            drift_strikes: Vec::new(),
            knob_stable_since: BTreeMap::new(),
        }
    }

    fn distrusted(&self, name: &str) -> bool {
        self.trust.get(name).is_some_and(|t| t.distrusted())
    }

    /// Opens an integrity audit unless one is running or some app is
    /// already implicated: an unexplained breach with every app still
    /// trusted is what undetected collusion looks like.
    fn open_audit(&mut self, now: Seconds) {
        if self.audit_until.is_none() && self.trust.values().all(|t| !t.distrusted()) {
            self.audit_until = Some(now + Seconds::new(self.config.audit_secs));
        }
    }

    /// Repays up to `w` of `name`'s watt debt, counting and journalling
    /// a clawback poll when anything was repaid.
    fn repay(&mut self, obs: &Option<Obs>, now: Seconds, name: &str, w: f64) {
        let repaid = self.debts.repay(name, w);
        if repaid > 0.0 {
            self.stats.clawback_polls += 1;
            emit(obs, now, || ObsEvent::Clawback {
                app: name.to_string(),
                w: repaid,
            });
        }
    }

    fn forget(&mut self, name: &str) {
        self.trust.remove(name);
        self.debts.remove(name);
        self.contained.remove(name);
        self.claims.remove(name);
        self.knob_stable_since.remove(name);
    }
}

/// Folds the sparse rows of store digests into the completion corpus
/// (the first row seen per fingerprint wins; tombstones carry none).
fn seed_corpus_rows(calibrator: &mut Calibrator, digests: &[ProfileDigest]) {
    for d in digests {
        let _ = calibrator.seed_sparse_row(d.fingerprint, &d.profile.samples);
    }
}

/// Fleet profile knowledge-plane state
/// ([`PowerMediator::with_profile_store`]).
#[derive(Debug)]
struct Knowledge {
    store: ProfileStore,
    /// Digests published or tombstoned since the last drain, awaiting
    /// propagation over whatever plane the caller runs.
    outbox: Vec<ProfileDigest>,
    /// This server's identity in store provenance.
    server_id: u64,
    /// Content fingerprints of admitted applications (populated only
    /// under online calibration).
    fingerprints: BTreeMap<String, AppFingerprint>,
}

/// Journals the event `make` builds, if a flight recorder is attached;
/// the record is only built when it is.
fn emit(obs: &Option<Obs>, now: Seconds, make: impl FnOnce() -> ObsEvent) {
    if let Some(obs) = obs {
        obs.emit(now, make());
    }
}

/// Every (app, setting) entry of `schedule` in actuation order, flagged
/// `true` for always-on apps (Space and EsdCycle settings, Hybrid pins)
/// and `false` for duty-cycle slots.
fn schedule_entries(schedule: &Schedule) -> impl Iterator<Item = (&String, usize, bool)> {
    let (always_on, slots): (Option<&BTreeMap<String, usize>>, &[TimeSlot]) = match schedule {
        Schedule::Space { settings } | Schedule::EsdCycle { settings, .. } => (Some(settings), &[]),
        Schedule::Hybrid { pinned, slots } => (Some(pinned), slots),
        Schedule::Alternate { slots } => (None, slots),
        Schedule::Infeasible => (None, &[]),
    };
    let always_on = always_on.into_iter().flatten().map(|(n, i)| (n, *i, true));
    always_on.chain(slots.iter().map(|s| (&s.app, s.setting, false)))
}

/// The slot of a duty cycle in force `since` the schedule was
/// installed, or `None` for a cycle of zero length.
fn active_slot(slots: &[TimeSlot], since: Seconds) -> Option<usize> {
    let cycle: Seconds = slots.iter().map(|s| s.duration).sum();
    if cycle.value() <= 0.0 {
        return None;
    }
    let mut pos = Seconds::new(since.value().rem_euclid(cycle.value()));
    for (i, slot) in slots.iter().enumerate() {
        if pos < slot.duration {
            return Some(i);
        }
        pos -= slot.duration;
    }
    Some(0)
}

/// The cheapest of `m`'s `feasible` settings by power.
fn min_power_setting(m: &AppMeasurement, feasible: &[usize]) -> Option<usize> {
    feasible
        .iter()
        .copied()
        .min_by(|&a, &b| m.power(a).partial_cmp(&m.power(b)).expect("finite powers"))
}

/// The mediation runtime: one policy, one server, one cap.
#[derive(Debug)]
pub struct PowerMediator {
    policy: PowerPolicy,
    spec: ServerSpec,
    grid: KnobGrid,
    calibrator: Calibrator,
    online_calibration: bool,
    /// When set, planning honours per-application SLOs through the
    /// [`SloPlanner`] instead of the plain policy (latency-critical
    /// extension; ESD coordination is not combined with SLO pinning).
    slo_planner: Option<SloPlanner>,
    accountant: Accountant,
    measurements: BTreeMap<String, AppMeasurement>,
    schedule: Schedule,
    schedule_anchor: Seconds,
    /// A freshly planned schedule that has not taken effect yet (the
    /// paper observes ~800 ms between a triggering event and the new
    /// allocation being in force; the latency is configurable and
    /// defaults to zero).
    pending: Option<(Schedule, Seconds)>,
    actuation_latency: Seconds,
    actuation: Actuation,
    /// When the actuation last changed (heartbeat windows spanning a
    /// knob change are not clean drift evidence).
    last_actuation_at: Seconds,
    /// Count of re-planning events handled.
    replans: usize,
    /// Probe accounting split cold / warm / skipped (the calibration
    /// overhead metric).
    probe_split: ProbeSplit,
    watchdog: SafeModeWatchdog,
    /// Over-cap polls seen while already in safe mode (escalation).
    safe_mode_breach_polls: u32,
    escalated: bool,
    /// Once the ESD is implicated in a breach it is planned around.
    esd_quarantined: bool,
    hardening_stats: HardeningStats,
    /// The most recent fault the runtime acted on.
    last_fault_error: Option<CoreError>,
    /// Flight-recorder handle; `None` (the default) keeps every
    /// emission site a skipped branch, so the unobserved runtime is
    /// bit-identical to before the observability plane existed.
    obs: Option<Obs>,
    hardening: Option<Hardening>,
    estimation: Option<Estimation>,
    defense: Option<Defense>,
    knowledge: Option<Knowledge>,
}

impl PowerMediator {
    /// Creates a mediator running `kind` under the initial `cap`, using
    /// exhaustive (ground-truth) calibration.
    pub fn new(kind: PolicyKind, spec: ServerSpec, cap: Watts) -> Self {
        let grid = spec.knob_grid();
        Self {
            policy: PowerPolicy::new(kind, spec.clone()),
            calibrator: Calibrator::new(spec.clone(), 0.10),
            spec,
            grid,
            online_calibration: false,
            slo_planner: None,
            accountant: Accountant::new(cap, Ratio::new(0.10), 3),
            measurements: BTreeMap::new(),
            schedule: Schedule::Space {
                settings: BTreeMap::new(),
            },
            schedule_anchor: Seconds::ZERO,
            pending: None,
            actuation_latency: Seconds::ZERO,
            actuation: Actuation::None,
            last_actuation_at: Seconds::ZERO,
            replans: 0,
            probe_split: ProbeSplit::default(),
            watchdog: SafeModeWatchdog::new(5, 10),
            safe_mode_breach_polls: 0,
            escalated: false,
            esd_quarantined: false,
            hardening_stats: HardeningStats::default(),
            last_fault_error: None,
            obs: None,
            hardening: None,
            estimation: None,
            defense: None,
            knowledge: None,
        }
    }

    /// Enables graceful degradation: bounded retries with backoff for
    /// knob writes that fail or do not land, a safe-mode watchdog that
    /// force-throttles when the *observed* net draw stays over the cap,
    /// and sensor-fault detection (E6) over the observed power channel.
    pub fn with_hardening(mut self, config: HardeningConfig) -> Self {
        self.watchdog = SafeModeWatchdog::new(config.watchdog_patience, config.watchdog_release);
        self.hardening = Some(Hardening::new(config));
        self
    }

    /// Runs the full policy stack on *estimated* per-app power: the
    /// oracle breakdown is replaced by a constrained least-squares
    /// disaggregation of the aggregate net meter, seeded by the
    /// calibrated profiles (and their knowledge-plane confidence).
    /// A sustained residual between the meter and the model engages a
    /// confidence-aware fallback — the planner targets the cap minus
    /// the band — and escalates to safe mode if shaving does not stop
    /// the spikes.
    pub fn with_estimation(mut self, config: EstimatorConfig) -> Self {
        self.set_estimation(config);
        self
    }

    /// In-place form of [`Self::with_estimation`], for call sites that
    /// attach estimation to an already-built (and already-admitted)
    /// mediator — e.g. a cluster agent re-attaching it after a node
    /// restart rebuilt the stack. Re-attaching replaces the estimator
    /// and keeps the layer's counters and priors.
    pub fn set_estimation(&mut self, config: EstimatorConfig) {
        let estimator = PowerEstimator::new(config);
        match &mut self.estimation {
            Some(est) => est.estimator = estimator,
            None => {
                self.estimation = Some(Estimation {
                    estimator,
                    stats: EstimationStats::default(),
                    fallback_shave: Watts::ZERO,
                    last_estimate: None,
                    prior_confidence: BTreeMap::new(),
                });
            }
        }
    }

    /// Enables the integrity defense: per-app trust scores driven by
    /// physics plausibility cross-checks, a quarantine ladder (suspect
    /// → E7 + fair-share clamp → probation → re-admission), and a
    /// watt-debt ledger that claws back overdrawn watts so honest apps
    /// are made whole. Rides on the estimation layer's view of the
    /// world, so it requires [`Self::with_estimation`] first.
    ///
    /// # Panics
    ///
    /// Panics if estimation is not enabled.
    pub fn with_integrity_defense(mut self, config: TrustConfig) -> Self {
        assert!(
            self.estimation.is_some(),
            "integrity defense requires with_estimation"
        );
        self.defense = Some(Defense::new(config));
        self
    }

    /// Sets the delay between a re-planning event and the new schedule
    /// taking effect (the paper reports ~800 ms on its platform for
    /// calibration + actuation; default zero).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is negative.
    pub fn with_actuation_latency(mut self, latency: Seconds) -> Self {
        assert!(latency.value() >= 0.0, "latency must be non-negative");
        self.actuation_latency = latency;
        self
    }

    /// Enables SLO-aware planning: applications admitted with an SLO
    /// (see `AppProfile::with_slo`) are guaranteed their SLO budget and
    /// never duty-cycled; batch applications absorb the shortfall.
    pub fn with_slo_awareness(mut self) -> Self {
        self.slo_planner = Some(SloPlanner::new(self.spec.clone()));
        self
    }

    /// Overrides the nominal duty-cycle period for temporal schedules
    /// (default 10 s).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn with_cycle_period(mut self, period: Seconds) -> Self {
        self.policy = self.policy.with_cycle_period(period);
        self
    }

    /// Switches to online calibration (sparse sampling + collaborative
    /// filtering) seeded with a corpus of previously-seen applications.
    pub fn with_online_calibration(mut self, corpus: &[AppProfile], fraction: f64) -> Self {
        self.calibrator = Calibrator::new(self.spec.clone(), fraction);
        self.calibrator.seed_corpus(corpus);
        self.online_calibration = true;
        self
    }

    /// Attaches a profile knowledge-plane store (effective only with
    /// online calibration — the exhaustive paths are ground truth and
    /// stay cold). Admissions then consult the store first: a confident
    /// prior satisfies already-covered probe points without running
    /// them, fresh measurements are republished as versioned digests
    /// (drain with [`Self::take_store_outbox`]), and E4 drift
    /// tombstones the entry fleet-wide.
    ///
    /// The store's entries seed the completion corpus right away (call
    /// after [`Self::with_online_calibration`], which resets it): a
    /// rebooted node's restored store is knowledge the fleet will not
    /// send again, since manager deltas carry only what changed since.
    pub fn with_profile_store(mut self, store: ProfileStore, server_id: u64) -> Self {
        seed_corpus_rows(&mut self.calibrator, &store.digests());
        self.knowledge = Some(Knowledge {
            store,
            outbox: Vec::new(),
            server_id,
            fingerprints: BTreeMap::new(),
        });
        self
    }

    /// Attaches a flight-recorder observability plane: every mediator
    /// decision (polls, E1–E6, safe-mode transitions, probe choices,
    /// knob-write verdicts) is journalled and counted through `obs`.
    /// Share the same handle with the simulator (via
    /// [`ServerSim::set_observability`]) so both sides write one
    /// interleaved journal.
    pub fn with_observability(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches (or replaces) the observability plane after
    /// construction — the non-consuming form of
    /// [`Self::with_observability`], for drivers that build mediators
    /// through shared helpers.
    pub fn set_observability(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The attached observability handle, if any.
    pub fn observability(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The policy being run.
    pub fn kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// The active schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The accountant (cap, allocations on record).
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Number of online calibration probes performed so far.
    pub fn probes(&self) -> usize {
        self.probe_split.measured() as usize
    }

    /// Probe accounting split by how each point was satisfied.
    pub fn probe_split(&self) -> ProbeSplit {
        self.probe_split
    }

    /// The attached profile store, if any.
    pub fn profile_store(&self) -> Option<&ProfileStore> {
        self.knowledge.as_ref().map(|k| &k.store)
    }

    /// Store event counters (all zero when no store is attached).
    pub fn store_stats(&self) -> ProfileStoreStats {
        self.profile_store().map(|s| s.stats()).unwrap_or_default()
    }

    /// Drains the digests published or tombstoned since the last drain.
    pub fn take_store_outbox(&mut self) -> Vec<ProfileDigest> {
        self.knowledge
            .as_mut()
            .map(|k| std::mem::take(&mut k.outbox))
            .unwrap_or_default()
    }

    /// Merges digests received from the fleet into the local store and
    /// seeds the completion corpus with their sparse rows. Returns how
    /// many store entries changed (0 when no store is attached).
    pub fn absorb_digests(&mut self, digests: &[ProfileDigest]) -> usize {
        let Some(k) = self.knowledge.as_mut() else {
            return 0;
        };
        let changed = k.store.merge_digests(digests);
        seed_corpus_rows(&mut self.calibrator, digests);
        changed
    }

    /// Advances the store's epoch (for confidence decay); a no-op
    /// without a store.
    pub fn set_store_epoch(&mut self, epoch: u64) {
        if let Some(k) = self.knowledge.as_mut() {
            k.store.set_epoch(epoch);
        }
    }

    /// JSON snapshot of the attached store (crash-durable state), if any.
    pub fn store_snapshot_json(&self) -> Option<String> {
        self.profile_store().map(|s| s.snapshot_json())
    }

    /// Number of re-planning events handled so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Whether the safe-mode watchdog is currently engaged.
    pub fn safe_mode(&self) -> bool {
        self.watchdog.engaged()
    }

    /// Hardening counters (all zero when hardening is off).
    pub fn hardening_stats(&self) -> HardeningStats {
        self.hardening_stats
    }

    /// The most recent fault the hardened runtime acted on, if any.
    pub fn last_fault_error(&self) -> Option<&CoreError> {
        self.last_fault_error.as_ref()
    }

    /// Estimation counters (all zero when estimation is off).
    pub fn estimation_stats(&self) -> EstimationStats {
        self.estimation
            .as_ref()
            .map(|e| e.stats)
            .unwrap_or_default()
    }

    /// The most recent reconstructed per-app breakdown, if estimation
    /// is on and at least one step has run.
    pub fn last_estimate(&self) -> Option<&EstimatedBreakdown> {
        self.estimation.as_ref()?.last_estimate.as_ref()
    }

    /// Whether the estimation fallback cap is currently engaged (the
    /// planner is targeting the cap minus the confidence band).
    pub fn estimation_fallback_engaged(&self) -> bool {
        self.estimation
            .as_ref()
            .is_some_and(|e| e.estimator.fallback_engaged())
    }

    /// Integrity-defense counters (all zero when defense is off).
    pub fn trust_stats(&self) -> TrustStats {
        self.defense.as_ref().map(|d| d.stats).unwrap_or_default()
    }

    /// `name`'s trust state, if the defense has seen it.
    pub fn trust_score(&self, name: &str) -> Option<&TrustScore> {
        self.defense.as_ref()?.trust.get(name)
    }

    /// The watt-debt ledger (empty when defense is off).
    pub fn watt_debts(&self) -> &WattDebtLedger {
        static EMPTY: WattDebtLedger = WattDebtLedger::new();
        self.defense.as_ref().map_or(&EMPTY, |d| &d.debts)
    }

    /// Whether `name` is currently contained (suspended until its watt
    /// debt is repaid — the escalation for overdraw under clamp).
    pub fn is_contained(&self, name: &str) -> bool {
        self.defense
            .as_ref()
            .is_some_and(|d| d.contained.contains(name))
    }

    /// The utility surface on record for `name`.
    pub fn measurement(&self, name: &str) -> Option<&AppMeasurement> {
        self.measurements.get(name)
    }

    /// E2: admits `profile` onto the server, calibrates it, and
    /// re-plans.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] when placement fails (duplicate
    /// name or insufficient cores for the app's minimum).
    pub fn admit(&mut self, sim: &mut ServerSim, profile: AppProfile) -> Result<(), CoreError> {
        let name = profile.name().to_string();
        let min_cores = profile.min_cores();
        let slo = profile.slo();
        let initial = KnobSetting::min_for(&self.spec).with_cores(min_cores);
        if let Err(first_try) = sim.host(profile.clone(), initial) {
            // The incumbents may be holding every core; shrink each to
            // its floor (the arrival reallocation will regrow whoever
            // deserves it) and retry once.
            if !matches!(
                first_try,
                powermed_server::ServerError::InsufficientCores { .. }
            ) {
                return Err(first_try.into());
            }
            for existing in sim.app_names() {
                let Some(assignment) = sim.server().assignment(&existing) else {
                    continue;
                };
                let knob = assignment.knob();
                let floor = self
                    .measurements
                    .get(&existing)
                    .map(|m| m.min_cores())
                    .unwrap_or(1);
                if knob.cores() > floor {
                    let _ = sim.set_knobs(&existing, knob.with_cores(floor));
                }
            }
            sim.host(profile.clone(), initial)?;
        }
        self.accountant.arrival(&name);
        emit(&self.obs, sim.now(), || ObsEvent::Arrival {
            app: name.clone(),
        });
        if let Some(k) = self.knowledge.as_mut().filter(|_| self.online_calibration) {
            k.fingerprints
                .insert(name.clone(), AppFingerprint::of(&profile));
        }
        if !self.online_calibration && profile.phases().is_none() {
            // Phase-free surfaces are time-invariant, so probing the
            // simulator at every grid setting reproduces the shared
            // cache's exhaustive surface bit for bit; skip the probe
            // loop and reuse the cached one. The probe counters still
            // count the full grid so reported totals match the uncached
            // runtime.
            let m = MeasurementCache::global().measure(&self.spec, &profile);
            self.note_probes(sim.now(), &name, m.grid().len(), 0, 0);
            self.measurements.insert(name.clone(), (*m).clone());
        } else {
            self.calibrate(sim, &name, min_cores);
        }
        if let Some(target) = slo {
            if let Some(m) = self.measurements.remove(&name) {
                self.measurements.insert(name.clone(), m.with_slo(target));
            }
        }
        self.replan(sim);
        Ok(())
    }

    /// E1: the server's cap changed.
    pub fn set_cap(&mut self, sim: &mut ServerSim, cap: Watts) {
        self.accountant.cap_changed(cap);
        emit(&self.obs, sim.now(), || ObsEvent::CapChanged {
            cap_w: cap.value(),
        });
        self.replan(sim);
    }

    /// Runs one control step of `dt`: actuate, advance the simulation,
    /// sense, estimate, poll the accountant, then the integrity pass
    /// and the safety pass (sensor health and the safe-mode watchdog).
    pub fn step(&mut self, sim: &mut ServerSim, dt: Seconds) -> StepReport {
        if let Some(obs) = &self.obs {
            obs.begin_poll();
        }
        self.ensure_cap(sim);
        // Safe mode: the forced floor stays in place; the schedule
        // machinery and retries are held until the breach clears.
        if !self.watchdog.engaged() {
            self.actuate(sim);
            self.process_retries(sim);
        }
        let report = sim.step(dt);

        // Accountant polling. Heartbeat evidence is only clean in
        // steady spatial operation: duty-cycled windows and windows
        // spanning a knob change mix rates from different settings.
        let now = sim.now();
        let heartbeat_clean = matches!(self.actuation, Actuation::Space)
            && (now - self.last_actuation_at) > Seconds::new(2.5);
        // Per-app state is gathered once up front (heartbeat windows
        // drain on read), then the power channel is filled in: the
        // oracle per-app breakdown by default, the disaggregated
        // estimate when estimation is on.
        let mut meta: Vec<(String, bool, bool, Option<f64>)> = Vec::new();
        for name in sim.app_names() {
            let completed = sim.app(&name).map(|a| a.completed()).unwrap_or(false);
            let suspended = sim
                .server()
                .assignment(&name)
                .map(|a| a.run_state() == AppRunState::Suspended)
                .unwrap_or(true);
            // Defense mode refines the cleanliness gate per app: a knob
            // that has not actually changed keeps its window even when
            // churn elsewhere resets the global actuation clock. The
            // gate is deliberately per-app and schedule-shape-blind —
            // `apply_setting` stamps every real disturbance (knob
            // change or resume-from-suspend), so a pinned app in a
            // Hybrid schedule, or the active slot of an Alternate one,
            // still files claims. Gating on the global Space shape
            // would blind the defense exactly when attackers force the
            // planner into duty-cycling.
            let clean = match &self.defense {
                Some(d) => d
                    .knob_stable_since
                    .get(&name)
                    .map_or(heartbeat_clean, |t| (now - *t) > Seconds::new(2.5)),
                None => heartbeat_clean,
            };
            let heartbeat = if clean && !suspended && !completed {
                // Read through the adversary layer: what the app
                // *claims*, which is the truth unless an injector is
                // misreporting for it.
                sim.reported_heartbeat(&name, now)
            } else {
                None
            };
            if let (Some(obs), Some(rate)) = (&self.obs, heartbeat) {
                obs.note_heartbeat(&name, rate);
            }
            meta.push((name, completed, suspended, heartbeat));
        }
        let estimate = self.estimate_breakdown(sim, &report, &meta);
        let mut observations = BTreeMap::new();
        for (name, completed, suspended, heartbeat) in meta {
            let power = match &estimate {
                Some(eb) => eb
                    .apps
                    .get(&name)
                    .map(|s| Watts::new(s.watts))
                    .unwrap_or(Watts::ZERO),
                None => report
                    .breakdown
                    .apps
                    .get(&name)
                    .copied()
                    .unwrap_or(Watts::ZERO),
            };
            observations.insert(
                name,
                Observation {
                    power,
                    heartbeat,
                    completed,
                    suspended,
                },
            );
        }
        emit(&self.obs, now, || {
            let cap = self.accountant.cap();
            let observed = report.observed_net_power;
            ObsEvent::Poll {
                alloc_w: self.accountant.total_allocation().value(),
                net_w: report.net_power.value(),
                observed_w: observed.map(Watts::value),
                cap_w: cap.value(),
                over_cap: observed.is_some_and(|o| o.violates_cap(cap)),
            }
        });
        let events = self.accountant.poll(&observations);
        if !events.is_empty() {
            self.handle_events(sim, events);
        }
        if let Some(eb) = estimate {
            self.observe_estimated(sim, eb);
        }
        self.observe_integrity(sim);
        let expired = self
            .defense
            .as_mut()
            .filter(|d| d.audit_until.is_some_and(|t| now >= t));
        if let Some(d) = expired {
            // The audit expired without implicating anyone; return to
            // policy planning.
            d.audit_until = None;
            self.replan(sim);
        }
        self.observe_hardened(sim, &report);
        report
    }

    /// Runs for `duration` in control steps of `dt`.
    pub fn run_for(&mut self, sim: &mut ServerSim, duration: Seconds, dt: Seconds) {
        let steps = (duration.value() / dt.value()).round().max(1.0) as u64;
        for _ in 0..steps {
            self.step(sim, dt);
        }
    }

    fn ensure_cap(&mut self, sim: &mut ServerSim) {
        let cap = self.accountant.cap();
        if sim.cap() != Some(cap) {
            sim.set_cap(Some(cap));
        }
    }

    fn handle_events(&mut self, sim: &mut ServerSim, events: Vec<Event>) {
        if let Some(obs) = &self.obs {
            let now = sim.now();
            for event in &events {
                let record = match event {
                    Event::CapChanged(cap) => ObsEvent::CapChanged { cap_w: cap.value() },
                    Event::Arrival(name) => ObsEvent::Arrival { app: name.clone() },
                    Event::Departure(name) => ObsEvent::Departure { app: name.clone() },
                    Event::Drift(name) => ObsEvent::Drift { app: name.clone() },
                    Event::ActuationFault(name) => ObsEvent::ActuationFault { app: name.clone() },
                    Event::SensorFault(what) => ObsEvent::SensorFault { what: what.clone() },
                    Event::IntegrityFault(name) => ObsEvent::IntegrityFault { app: name.clone() },
                };
                obs.emit(now, record);
            }
        }
        let mut need_replan = false;
        for event in events {
            match event {
                Event::Departure(name) => {
                    self.forget(sim, &name);
                    need_replan = true;
                }
                Event::Drift(name) => {
                    // Repeated E4s on one app are how a sandbagged
                    // calibration looks from the outside: the strike is
                    // queued (not applied inline) so evidence handling
                    // never re-enters the event loop. Like overdraw,
                    // churn only counts against an app the primary
                    // detectors already distrust — a noisy neighbour
                    // can force legitimate E4s onto an honest victim.
                    if let Some(d) = self.defense.as_mut() {
                        let trust = d.trust.entry(name.clone()).or_default();
                        if trust.note_drift(&d.config) && trust.distrusted() {
                            d.drift_strikes.push(name.clone());
                        }
                    }
                    // E4: the stored profile is now wrong everywhere,
                    // not just here — tombstone it before re-measuring.
                    self.invalidate_profile(&name, sim.now());
                    let min_cores = self
                        .measurements
                        .get(&name)
                        .map(|m| m.min_cores())
                        .unwrap_or(1);
                    self.calibrate(sim, &name, min_cores);
                    need_replan = true;
                }
                // E1/E2 change the budget or the tenants; E5/E6 mean the
                // substrate is not doing (or not showing) what the plan
                // assumes, and re-planning re-installs the schedule,
                // which re-actuates every knob; E7's quarantine clamp
                // only takes effect through a fresh plan.
                Event::CapChanged(_)
                | Event::Arrival(_)
                | Event::ActuationFault(_)
                | Event::SensorFault(_)
                | Event::IntegrityFault(_) => {
                    need_replan = true;
                }
            }
        }
        if need_replan {
            self.replan(sim);
        }
    }

    /// Drops everything the runtime and its layers hold for a departed
    /// application. Pending knob retries are not dropped here: the
    /// next schedule install clears them, and a retry whose app is gone
    /// is discarded unattempted.
    fn forget(&mut self, sim: &mut ServerSim, name: &str) {
        let _ = sim.remove(name);
        self.accountant.remove(name);
        self.measurements.remove(name);
        if let Some(k) = self.knowledge.as_mut() {
            k.fingerprints.remove(name);
        }
        if let Some(est) = self.estimation.as_mut() {
            est.prior_confidence.remove(name);
        }
        if let Some(d) = self.defense.as_mut() {
            d.forget(name);
        }
    }

    /// Re-runs calibration for `name` (the E4 path, exposed so drivers
    /// can force a re-measurement). Returns `false` when the
    /// application vanished mid-calibration — the probe degrades to a
    /// skipped calibration and the departure is handled instead.
    pub fn recalibrate(&mut self, sim: &mut ServerSim, name: &str) -> bool {
        self.invalidate_profile(name, sim.now());
        let min_cores = self
            .measurements
            .get(name)
            .map(|m| m.min_cores())
            .unwrap_or(1);
        let ok = self.calibrate(sim, name, min_cores);
        if ok {
            self.replan(sim);
        }
        ok
    }

    /// Tombstones `name`'s store entry (E4: the profile is stale
    /// fleet-wide) and queues the tombstone for propagation.
    fn invalidate_profile(&mut self, name: &str, now: Seconds) {
        let Some(k) = self.knowledge.as_mut() else {
            return;
        };
        let Some(fp) = k.fingerprints.get(name).copied() else {
            return;
        };
        if let Some(tombstone) = k.store.invalidate(fp) {
            emit(&self.obs, now, || ObsEvent::StoreTombstone {
                app: name.to_string(),
                version: tombstone.profile.version,
            });
            k.outbox.push(tombstone);
        }
    }

    /// Counts one calibration's probes and journals them.
    fn note_probes(&mut self, now: Seconds, app: &str, cold: usize, warm: usize, skipped: usize) {
        self.probe_split.cold += cold as u64;
        self.probe_split.warm += warm as u64;
        self.probe_split.skipped += skipped as u64;
        emit(&self.obs, now, || ObsEvent::Probe {
            app: app.to_string(),
            cold,
            warm,
            skipped,
        });
    }

    fn calibrate(&mut self, sim: &mut ServerSim, name: &str, min_cores: usize) -> bool {
        let _span = self.obs.as_ref().map(|o| o.span("calibration"));
        if self.online_calibration {
            return self.calibrate_online(sim, name, min_cores);
        }
        let sim_ref: &ServerSim = sim;
        let result = self
            .calibrator
            .try_calibrate_exhaustive(name, min_cores, |knob| sim_ref.probe(name, knob));
        match result {
            Some(m) => {
                self.note_probes(sim.now(), name, m.grid().len(), 0, 0);
                self.measurements.insert(name.to_string(), m);
                true
            }
            None => self.calibration_departed(sim, name),
        }
    }

    /// Online calibration with the knowledge plane in the loop: consult
    /// the store for a confident prior, probe only what it does not
    /// cover, and republish whatever fresh measurement came out.
    fn calibrate_online(&mut self, sim: &mut ServerSim, name: &str, min_cores: usize) -> bool {
        let fingerprint = self
            .knowledge
            .as_ref()
            .and_then(|k| k.fingerprints.get(name).copied());
        let prior = match (fingerprint, self.knowledge.as_mut()) {
            (Some(fp), Some(k)) => k.store.confident(fp),
            _ => None,
        };
        let sim_ref: &ServerSim = sim;
        let result =
            self.calibrator
                .try_calibrate_online_seeded(name, min_cores, prior.as_ref(), |knob| {
                    sim_ref.probe(name, knob)
                });
        let Some(oc) = result else {
            return self.calibration_departed(sim, name);
        };
        if let Some(est) = self.estimation.as_mut() {
            // Estimation priors inherit the trust of what seeded this
            // surface: a warm start is only as good as the store entry
            // it rode on; a freshly probed surface is fully trusted.
            let confidence = prior.as_ref().map(|p| p.confidence).unwrap_or(1.0);
            est.prior_confidence.insert(name.to_string(), confidence);
        }
        if prior.is_some() {
            self.note_probes(sim.now(), name, 0, oc.probed, oc.skipped);
        } else {
            self.note_probes(sim.now(), name, oc.probed, 0, 0);
        }
        if let (Some(fp), Some(k)) = (fingerprint, self.knowledge.as_mut()) {
            if oc.probed > 0 {
                // Fresh data: republish one version past whatever the
                // store holds (so a post-tombstone recalibration wins
                // back). A fully warm admission learned nothing new and
                // republishes nothing.
                let version = k.store.peek(fp).map(|p| p.version + 1).unwrap_or(1);
                let coverage = oc.samples.len() as f64 / self.grid.len().max(1) as f64;
                let published = StoredProfile {
                    version,
                    confidence: 0.6 + 0.4 * coverage,
                    samples: oc.samples.clone(),
                    power_row: oc.power_row.clone(),
                    perf_row: oc.perf_row.clone(),
                    provenance: Provenance {
                        server: k.server_id,
                        epoch: k.store.epoch(),
                        probes: oc.probed as u64,
                    },
                };
                k.store.publish(fp, published.clone());
                emit(&self.obs, sim.now(), || ObsEvent::StorePublish {
                    app: name.to_string(),
                    version,
                });
                k.outbox.push(ProfileDigest {
                    fingerprint: fp,
                    profile: published,
                });
            }
        }
        self.measurements.insert(name.to_string(), oc.measurement);
        true
    }

    /// The application departed mid-calibration. Degrade to a skipped
    /// probe: fire (or finish) its E3 instead of panicking on a
    /// half-measured surface.
    fn calibration_departed(&mut self, sim: &mut ServerSim, name: &str) -> bool {
        self.hardening_stats.skipped_calibrations += 1;
        match self.accountant.force_departure(name) {
            Some(event) => self.handle_events(sim, vec![event]),
            None => self.forget(sim, name),
        }
        false
    }

    fn replan(&mut self, sim: &mut ServerSim) {
        // Wall-clock span around the planning pass (the DP allocator is
        // the paper's dominant decision cost).
        let _span = self.obs.as_ref().map(|o| o.span("plan"));
        self.replans += 1;
        let now = sim.now();
        let names: Vec<String> = sim.app_names();
        let clamped = self.quarantine_clamps(now, &names);
        let planned = if self
            .defense
            .as_ref()
            .is_some_and(|d| d.audit_until.is_some_and(|t| now < t))
        {
            // An active integrity audit overrides the policy wholesale:
            // every (non-contained) app is pinned at its minimum-power
            // feasible setting. Low and steady serves two purposes — the
            // summed floors always fit the cap, and pinned knobs let
            // heartbeat claims mature so the cross-checks can assign the
            // unexplained residual to whoever is lying. Ends at the
            // first quarantine or the deadline.
            let settings = names
                .iter()
                .filter(|n| !self.is_contained(n))
                .filter_map(|n| {
                    let m = self.measurements.get(n)?;
                    Some((n.clone(), min_power_setting(m, &m.feasible_indices())?))
                })
                .collect();
            Schedule::Space { settings }
        } else {
            self.plan_policy(sim, &names, &clamped)
        };
        if self.actuation_latency.value() > 0.0 && self.actuation != Actuation::None {
            // Keep executing the old schedule until the actuation
            // completes (the paper's ~800 ms window).
            self.pending = Some((planned, now + self.actuation_latency));
        } else {
            self.install_schedule(planned, now);
        }
    }

    /// Quarantined apps are planned by fiat, not by the policy: clamped
    /// to their fair share of the dynamic budget minus whatever the
    /// watt-debt ledger claws back this plan. Returns (app, setting,
    /// draw) per clamped app; empty when the defense is off, keeping
    /// the trusting planner bit-identical.
    fn quarantine_clamps(&mut self, now: Seconds, names: &[String]) -> Vec<(String, usize, Watts)> {
        let mut clamped = Vec::new();
        let Some(d) = self.defense.as_mut() else {
            return clamped;
        };
        let static_floor = self.spec.idle_power() + self.spec.chip_maintenance_power();
        let dynamic = (self.accountant.cap() - static_floor).max_zero();
        let fair = dynamic.value() / names.len().max(1) as f64;
        for name in names {
            // A contained app gets no setting at all: the actuator's
            // "suspend anything without a setting" branch parks it, and
            // its fair share flows back to the honest apps.
            if !d.trust.get(name).is_some_and(|t| t.quarantined()) || d.contained.contains(name) {
                continue;
            }
            let Some(m) = self.measurements.get(name) else {
                continue;
            };
            let (budget, clawback) =
                clamp_budget(fair, d.debts.outstanding(name), d.config.clawback_rate);
            let feasible = m.feasible_indices();
            // Clamp to the best setting under the docked budget; below
            // the app's floor, park it at the cheapest feasible setting
            // (the clamp never evicts).
            let idx = match m.best_within(Watts::new(budget), &feasible) {
                Some((i, _)) => i,
                None => min_power_setting(m, &feasible).unwrap_or(0),
            };
            d.repay(&self.obs, now, name, clawback);
            clamped.push((name.clone(), idx, m.power(idx)));
        }
        clamped
    }

    /// The policy's (or the SLO planner's) schedule for the apps not
    /// clamped or contained, in the planning budget left after the
    /// estimation fallback shave and the quarantine clamps, with the
    /// clamps merged back in.
    fn plan_policy(
        &self,
        sim: &ServerSim,
        names: &[String],
        clamped: &[(String, usize, Watts)],
    ) -> Schedule {
        let apps: Vec<(&str, &AppMeasurement)> = names
            .iter()
            .filter(|n| !clamped.iter().any(|(c, _, _)| c == *n))
            .filter(|n| !self.is_contained(n))
            .filter_map(|n| self.measurements.get(n).map(|m| (n.as_str(), m)))
            .collect();
        let esd = self.esd_params(sim);
        // The estimation fallback shaves headroom off the *planning*
        // target only; the enforced cap (accountant, simulator, E6
        // thresholds) is untouched. The branch keeps the shave-free
        // path bit-identical to the pre-estimation planner.
        let cap = self.accountant.cap();
        let shave = self
            .estimation
            .as_ref()
            .map_or(Watts::ZERO, |e| e.fallback_shave);
        let mut target = if shave.value() > 0.0 {
            (cap - shave).max_zero()
        } else {
            cap
        };
        // Honest apps are planned in the budget left after the
        // quarantine clamps — the watts docked from offenders flow
        // back to them.
        if !clamped.is_empty() {
            let clamped_sum: f64 = clamped.iter().map(|(_, _, w)| w.value()).sum();
            target = (target - Watts::new(clamped_sum)).max_zero();
        }
        let planned = match &self.slo_planner {
            Some(slo) if apps.iter().any(|(_, m)| m.slo().is_some()) => slo.plan(&apps, target),
            _ => self.policy.plan(&apps, target, esd),
        };
        if clamped.is_empty() {
            planned
        } else {
            Self::merge_quarantined(planned, clamped)
        }
    }

    /// Grafts the quarantine clamps onto a freshly planned schedule:
    /// clamped apps run always-on at their docked setting regardless of
    /// what shape the policy chose for the honest ones. A quarantined
    /// app never rides the duty cycle (its claimed rates cannot be
    /// trusted to meter a slot), so an Alternate schedule becomes a
    /// Hybrid one that pins it; an Infeasible one becomes a Space
    /// schedule of the clamps alone (the honest remainder could not be
    /// hosted, but the clamped settings are known-feasible floors).
    fn merge_quarantined(planned: Schedule, clamped: &[(String, usize, Watts)]) -> Schedule {
        let mut always_on: BTreeMap<String, usize> = schedule_entries(&planned)
            .filter(|&(_, _, on)| on)
            .map(|(name, idx, _)| (name.clone(), idx))
            .collect();
        always_on.extend(clamped.iter().map(|(name, idx, _)| (name.clone(), *idx)));
        match planned {
            Schedule::Space { .. } | Schedule::Infeasible => Schedule::Space {
                settings: always_on,
            },
            Schedule::EsdCycle {
                off,
                on,
                charge,
                discharge,
                ..
            } => Schedule::EsdCycle {
                off,
                on,
                settings: always_on,
                charge,
                discharge,
            },
            Schedule::Alternate { slots } | Schedule::Hybrid { slots, .. } => Schedule::Hybrid {
                pinned: always_on,
                slots,
            },
        }
    }

    /// Post-poll integrity pass (defense mode only): cross-check every
    /// app's self-reports against physics, update trust scores, and
    /// act on ladder transitions — E7 + fair-share clamp on quarantine,
    /// fresh probes on probation, full restoration on re-admission.
    fn observe_integrity(&mut self, sim: &mut ServerSim) {
        let Some(eb) = self
            .estimation
            .as_ref()
            .and_then(|e| e.last_estimate.as_ref())
        else {
            return;
        };
        let Some(d) = self.defense.as_mut() else {
            return;
        };
        let cfg = d.config;
        let fresh = eb.held_polls == 0;
        let residual = eb.residual_w;
        let band = eb.band_w;
        let attributed: BTreeMap<String, f64> =
            eb.apps.iter().map(|(k, v)| (k.clone(), v.watts)).collect();
        let now = sim.now();
        let drift_strikes = std::mem::take(&mut d.drift_strikes);
        let names: Vec<String> = sim.app_names();
        let mut quarantines: Vec<String> = Vec::new();
        let mut probations: Vec<String> = Vec::new();
        let mut readmitted = false;
        let mut charged = false;
        let mut containments: Vec<String> = Vec::new();
        for name in &names {
            let claim = d.claims.get(name).copied();
            // Evidence for this poll, strongest stream wins.
            let mut mild = false;
            let mut strong: Option<&'static str> = None;
            if let Some(c) = claim {
                if c.clamped {
                    mild = true;
                }
                if c.clamped && fresh && residual.abs() > band {
                    // The meter disagrees with the model; an app whose
                    // *implausible* claim moved the model away from the
                    // meter is charged. Claiming quiet across a
                    // positive residual (hidden draw) or hot across a
                    // negative one (sandbagged surface) is the
                    // signature. Plausible (unclamped) claims are never
                    // charged here: an honest app slowed by a noisy
                    // neighbour truthfully reports a sub-unity ratio
                    // while the neighbour's hidden draw inflates the
                    // residual.
                    let claimed_delta = (c.ratio - 1.0) * c.unscaled_w;
                    let wrong_way = (residual > 0.0 && claimed_delta < -0.25 * residual)
                        || (residual < 0.0 && claimed_delta > 0.25 * residual.abs());
                    if wrong_way {
                        strong = Some("claim against meter residual");
                    }
                }
            }
            if drift_strikes.iter().any(|s| s == name) {
                strong = Some("profile churn");
            }
            if d.contained.contains(name) {
                // Containment repays watt debt in idle time: the app
                // is suspended (drawing nothing), so each poll returns
                // a slice of its outstanding overdraw to the honest
                // pool. The floor keeps the geometric decay from
                // stalling. Containment holds through the quarantine
                // tier — a suspended app cannot re-offend, so its
                // clean streak below is what earns probation (and with
                // it fresh probes, a resume, and the clamp).
                let due = (d.debts.outstanding(name) * cfg.clawback_rate)
                    .max(cfg.overdraw_margin_w * cfg.clawback_rate);
                d.repay(&self.obs, now, name, due);
            }
            let trust = d.trust.entry(name.clone()).or_default();
            // Persistent overdraw: the estimated share stays above the
            // allocation. Only charged against apps already below the
            // trusted tier — their σ is inflated, so the solver routes
            // unexplained watts to them *because* the primary detectors
            // already flagged them; for a trusted app the same excess
            // attribution is just residual spread and must not
            // self-fulfil.
            let allocation = self.accountant.allocation(name);
            if trust.distrusted() {
                if let (Some(att), Some(alloc)) = (attributed.get(name), allocation) {
                    let overdraw = att - alloc.value();
                    if overdraw > cfg.overdraw_margin_w {
                        // An overdrawing poll is not a clean poll even
                        // when no other stream fires — note_clean would
                        // reset the patience streak and the app could
                        // overdraw forever in 1-poll bursts.
                        mild = true;
                        if trust.note_overdraw(&cfg) {
                            // The strike charges the ledger even when a
                            // stronger stream already fired this poll:
                            // the watts were overdrawn either way, and
                            // the clawback must account for them.
                            d.debts.charge(name, overdraw);
                            charged = true;
                            if strong.is_none() {
                                strong = Some("sustained overdraw");
                            }
                            // Overdraw *with the clamp already in
                            // force* is knob non-compliance: no
                            // commanded setting can curb it, so the
                            // ladder escalates to containment —
                            // suspension until the debt is idle-time
                            // repaid.
                            if trust.quarantined() && !d.contained.contains(name) {
                                containments.push(name.clone());
                            }
                        }
                    }
                }
            }
            let transition = if let Some(cause) = strong {
                d.stats.implausible_polls += 1;
                trust
                    .note_evidence(Evidence::Strong, &cfg)
                    .map(|t| (t, cause))
            } else if mild {
                d.stats.implausible_polls += 1;
                trust
                    .note_evidence(Evidence::Mild, &cfg)
                    .map(|t| (t, "implausible heartbeat"))
            } else {
                trust.note_clean(&cfg).map(|t| (t, ""))
            };
            let score = trust.score();
            match transition {
                Some((TrustTransition::Downgraded, _)) => {
                    d.stats.downgrades += 1;
                    emit(&self.obs, now, || ObsEvent::TrustDowngrade {
                        app: name.clone(),
                        score,
                    });
                }
                Some((TrustTransition::Quarantined, cause)) => {
                    d.stats.downgrades += 1;
                    d.stats.quarantines += 1;
                    emit(&self.obs, now, || ObsEvent::TrustDowngrade {
                        app: name.clone(),
                        score,
                    });
                    emit(&self.obs, now, || ObsEvent::Quarantine {
                        app: name.clone(),
                        cause: cause.to_string(),
                    });
                    quarantines.push(name.clone());
                }
                Some((TrustTransition::Probation, _)) => {
                    d.stats.probations += 1;
                    probations.push(name.clone());
                }
                Some((TrustTransition::Readmitted, _)) => {
                    d.stats.readmissions += 1;
                    self.accountant.clear_integrity(name);
                    readmitted = true;
                }
                None => {}
            }
        }
        if !quarantines.is_empty() {
            // The audit did its job: blame is assigned, the clamp plan
            // takes over.
            d.audit_until = None;
        }
        for name in quarantines {
            // E7 fires once per episode; a probation relapse is the
            // same episode, so only the clamp (via replan) returns.
            match self.accountant.integrity_fault(&name) {
                Some(event) => self.handle_events(sim, vec![event]),
                None => self.replan(sim),
            }
        }
        for name in containments {
            let Some(d) = self.defense.as_mut() else {
                break;
            };
            if d.contained.insert(name.clone()) {
                d.stats.containments += 1;
                emit(&self.obs, now, || ObsEvent::Quarantine {
                    app: name,
                    cause: "containment: overdraw under clamp".to_string(),
                });
            }
        }
        for name in probations {
            // Probation grants fresh probes: the old surface is the one
            // the offender poisoned (or drifted off); re-measure before
            // trusting anything again. `recalibrate` replans, lifting
            // the fair-share clamp. A contained app is released first —
            // probes need it running.
            if let Some(d) = self.defense.as_mut() {
                d.contained.remove(&name);
            }
            let _ = sim.server_mut().resume_app(&name);
            self.recalibrate(sim, &name);
        }
        if readmitted || charged {
            // Re-admission lifts the clamp. Fresh debt tightens it (and
            // newly contained apps drop out of the schedule, which is
            // what suspends them); settling at this cadence keeps the
            // clawback repaying instead of accruing forever between
            // (rare) accountant events.
            self.replan(sim);
        }
    }

    /// Installs a schedule as the one in force and records the expected
    /// draws/rates so E4 drift is measured against the operating points
    /// actually actuated.
    fn install_schedule(&mut self, schedule: Schedule, now: Seconds) {
        self.schedule_anchor = now;
        self.actuation = Actuation::None;
        self.pending = None;
        // Pending retries target the old schedule's settings.
        if let Some(h) = self.hardening.as_mut() {
            h.retries.clear();
        }
        // Journalled allocations accumulate here so one Planned record
        // precedes its per-app Allocation records.
        let mut granted: Vec<(String, Watts)> = Vec::new();
        for (name, idx, always_on) in schedule_entries(&schedule) {
            let Some(m) = self.measurements.get(name) else {
                continue;
            };
            self.accountant.note_allocation(name, m.power(idx));
            // A duty-cycled slot's heartbeats mix in its OFF time, so
            // only always-on apps carry an expected rate.
            if always_on {
                self.accountant.note_expected_perf(name, m.perf(idx));
            }
            if self.obs.is_some() {
                granted.push((name.clone(), m.power(idx)));
            }
        }
        if let Some(obs) = &self.obs {
            let mode = match &schedule {
                Schedule::Space { .. } => "space",
                Schedule::Alternate { .. } => "alternate",
                Schedule::Hybrid { .. } => "hybrid",
                Schedule::EsdCycle { .. } => "esd_cycle",
                Schedule::Infeasible => "infeasible",
            };
            obs.emit(
                now,
                ObsEvent::Planned {
                    apps: granted.len(),
                    mode,
                },
            );
            for (app, watts) in granted {
                obs.emit(
                    now,
                    ObsEvent::Allocation {
                        app,
                        watts: watts.value(),
                    },
                );
            }
        }
        self.schedule = schedule;
    }

    fn esd_params(&self, sim: &ServerSim) -> Option<EsdParams> {
        if self.esd_quarantined {
            // The device was implicated in a sustained breach: plan as
            // if no ESD were fitted.
            return None;
        }
        let esd = sim.esd();
        if esd.capacity().value() <= 0.0 {
            return None;
        }
        Some(EsdParams {
            efficiency: esd.round_trip_efficiency(),
            max_discharge: esd.max_discharge_power(),
            max_charge: esd.max_charge_power(),
        })
    }

    /// Applies the schedule for the current instant: knob settings,
    /// suspend/resume, ESD command. Only acts on phase transitions.
    fn actuate(&mut self, sim: &mut ServerSim) {
        if self
            .pending
            .as_ref()
            .is_some_and(|(_, at)| sim.now() >= *at)
        {
            let (schedule, _) = self.pending.take().expect("checked above");
            self.install_schedule(schedule, sim.now());
        }
        let since = sim.now() - self.schedule_anchor;
        // The phase in force now: its always-on settings and its active
        // duty-cycle slot.
        let (phase, always_on, slot) = match &self.schedule {
            Schedule::Space { settings } => (Actuation::Space, Some(settings), None),
            Schedule::Hybrid { pinned, slots } if slots.is_empty() => {
                (Actuation::HybridPinned, Some(pinned), None)
            }
            Schedule::Alternate { slots } => {
                let Some(i) = active_slot(slots, since) else {
                    return;
                };
                (Actuation::Slot(i), None, Some(&slots[i]))
            }
            Schedule::Hybrid { pinned, slots } => {
                let Some(i) = active_slot(slots, since) else {
                    return;
                };
                (Actuation::HybridSlot(i), Some(pinned), Some(&slots[i]))
            }
            Schedule::EsdCycle {
                off, on, settings, ..
            } => {
                let cycle = *off + *on;
                if cycle.value() <= 0.0 {
                    return;
                }
                let pos = since.value().rem_euclid(cycle.value());
                if pos < off.value() && off.value() > 0.0 {
                    (Actuation::EsdOff, None, None)
                } else {
                    (Actuation::EsdOn, Some(settings), None)
                }
            }
            Schedule::Infeasible => (Actuation::Parked, None, None),
        };
        if phase == self.actuation {
            return;
        }
        let mut run = always_on
            .map(|settings| self.shrinks_first(sim, settings))
            .unwrap_or_default();
        run.extend(slot.map(|s| (s.app.clone(), s.setting)));
        self.enter_phase(sim, phase, &run);
    }

    /// The one phase transition: applies each of `run`'s settings in
    /// order and resumes the app, suspends every other hosted app, then
    /// commands the ESD and stamps the actuation. A duty-cycle slot
    /// suspends the others before its writes, an always-on shape after
    /// them, and the ESD cycle's ON phase leaves them as the OFF phase
    /// left them.
    fn enter_phase(&mut self, sim: &mut ServerSim, phase: Actuation, run: &[(String, usize)]) {
        let suspend_others = |sim: &mut ServerSim| {
            for name in sim.app_names() {
                if !run.iter().any(|(r, _)| *r == name) {
                    let _ = sim.server_mut().suspend_app(&name);
                }
            }
        };
        let slotted = matches!(phase, Actuation::Slot(_) | Actuation::HybridSlot(_));
        if slotted {
            suspend_others(sim);
        }
        for (name, idx) in run {
            self.apply_setting(sim, name, *idx);
            let _ = sim.server_mut().resume_app(name);
        }
        if !slotted && phase != Actuation::EsdOn {
            suspend_others(sim);
        }
        let esd = match (phase, &self.schedule) {
            (Actuation::EsdOff, Schedule::EsdCycle { charge, .. }) => EsdCommand::Charge(*charge),
            (Actuation::EsdOn, _) => EsdCommand::DischargeToCap,
            _ => EsdCommand::Idle,
        };
        sim.set_esd_command(esd);
        self.actuation = phase;
        self.last_actuation_at = sim.now();
    }

    /// Orders simultaneous knob applications so core releases happen
    /// before core grabs: growing one app before its neighbour shrinks
    /// would fail on a fully-committed server and silently leave a stale
    /// knob in force.
    fn shrinks_first(
        &self,
        sim: &ServerSim,
        settings: &BTreeMap<String, usize>,
    ) -> Vec<(String, usize)> {
        let mut ordered: Vec<(String, usize)> =
            settings.iter().map(|(n, i)| (n.clone(), *i)).collect();
        ordered.sort_by_key(|(name, idx)| {
            let current = sim
                .server()
                .assignment(name)
                .map(|a| a.cores().len())
                .unwrap_or(0);
            let target = self.grid.get(*idx).map(|k| k.cores()).unwrap_or(current);
            // Negative growth (shrinks) sort first.
            target as isize - current as isize
        });
        ordered
    }

    /// Applies grid setting `idx` to `name`. Suspended applications do
    /// not need their cores (their processes are stopped), so when the
    /// target setting cannot fit, suspended apps are parked on a single
    /// core each — the `taskset` reshuffle of Sec. III-B — and the
    /// setting is retried.
    fn apply_setting(&mut self, sim: &mut ServerSim, name: &str, idx: usize) {
        let Some(knob) = self.grid.get(idx) else {
            return;
        };
        if let Some(d) = self.defense.as_mut() {
            // Stamp only real changes: a replan that re-installs the
            // same setting (or resumes an already-running app) leaves
            // the app's heartbeat window intact.
            let unchanged = sim
                .server()
                .assignment(name)
                .is_some_and(|a| a.knob() == knob && a.run_state() == AppRunState::Running);
            if !unchanged {
                d.knob_stable_since.insert(name.to_string(), sim.now());
            }
        }
        let mut ok = sim.set_knobs(name, knob).is_ok();
        if !ok {
            for other in sim.app_names() {
                if other == name {
                    continue;
                }
                let Some(a) = sim.server().assignment(&other) else {
                    continue;
                };
                if a.run_state() == AppRunState::Suspended && a.knob().cores() > 1 {
                    let parked = a.knob().with_cores(1);
                    let _ = sim.set_knobs(&other, parked);
                }
            }
            ok = sim.set_knobs(name, knob).is_ok();
        }
        // Hardened verification: a write can return Ok yet leave the old
        // setting in force (stale/partial actuation). Compare what the
        // server reports against what was commanded; schedule a bounded
        // backoff retry when they disagree.
        if let Some(h) = self.hardening.as_mut() {
            let landed = ok && sim.server().assignment(name).map(|a| a.knob()) == Some(knob);
            emit(&self.obs, sim.now(), || ObsEvent::KnobWrite {
                app: name.to_string(),
                verdict: if landed {
                    KnobWriteVerdict::Landed
                } else {
                    KnobWriteVerdict::Deferred
                },
                attempts: 1,
            });
            if landed {
                h.retries.remove(name);
            } else {
                h.retries.insert(
                    name.to_string(),
                    RetryState {
                        idx,
                        attempts: 0,
                        next_at: sim.now() + h.config.retry_backoff,
                        since: sim.now(),
                    },
                );
            }
        }
    }

    /// Re-attempts knob writes that did not land, with linear backoff.
    /// A write that exhausts its retry budget raises E5 and re-plans.
    fn process_retries(&mut self, sim: &mut ServerSim) {
        let Some(h) = self.hardening.as_mut() else {
            return;
        };
        if h.retries.is_empty() {
            return;
        }
        let cfg = h.config;
        let now = sim.now();
        let due: Vec<(String, RetryState)> = h
            .retries
            .iter()
            .filter(|(_, st)| now >= st.next_at)
            .map(|(n, st)| (n.clone(), *st))
            .collect();
        let mut exhausted = Vec::new();
        for (name, st) in due {
            let Some(knob) = self
                .grid
                .get(st.idx)
                .filter(|_| sim.server().assignment(&name).is_some())
            else {
                h.retries.remove(&name);
                continue;
            };
            self.hardening_stats.retries += 1;
            let landed = sim.set_knobs(&name, knob).is_ok()
                && sim.server().assignment(&name).map(|a| a.knob()) == Some(knob);
            if landed {
                emit(&self.obs, now, || ObsEvent::KnobWrite {
                    app: name.clone(),
                    verdict: KnobWriteVerdict::RetryLanded,
                    attempts: st.attempts + 2,
                });
                // Sim-time latency from the original failed write to the
                // retry that finally stuck.
                if let Some(obs) = &self.obs {
                    obs.observe("actuation_retry_latency_seconds", (now - st.since).value());
                }
                h.retries.remove(&name);
            } else if st.attempts + 1 >= cfg.max_retries {
                emit(&self.obs, now, || ObsEvent::KnobWrite {
                    app: name.clone(),
                    verdict: KnobWriteVerdict::RetryExhausted,
                    attempts: st.attempts + 2,
                });
                h.retries.remove(&name);
                exhausted.push(name);
            } else {
                let attempts = st.attempts + 1;
                h.retries.insert(
                    name,
                    RetryState {
                        idx: st.idx,
                        attempts,
                        next_at: now + cfg.retry_backoff * f64::from(attempts + 1),
                        since: st.since,
                    },
                );
            }
        }
        if exhausted.is_empty() {
            return;
        }
        let mut events = Vec::new();
        for name in exhausted {
            self.hardening_stats.actuation_faults += 1;
            self.last_fault_error = Some(CoreError::ActuationFailed {
                app: name.clone(),
                attempts: cfg.max_retries,
            });
            events.push(self.accountant.actuation_fault(&name));
        }
        self.handle_events(sim, events);
    }

    /// Estimation mode: reconstruct the per-app breakdown from the
    /// aggregate meter sample, the knob settings on record, the
    /// heartbeats just gathered, and the calibrated profiles. Returns
    /// `None` when estimation is off (zero extra work per step).
    fn estimate_breakdown(
        &mut self,
        sim: &ServerSim,
        report: &StepReport,
        meta: &[(String, bool, bool, Option<f64>)],
    ) -> Option<EstimatedBreakdown> {
        let est = self.estimation.as_mut()?;
        let cfg = *est.estimator.config();
        let mut priors = Vec::with_capacity(meta.len());
        let mut claims: BTreeMap<String, ClaimRecord> = BTreeMap::new();
        for (name, completed, suspended, heartbeat) in meta {
            let prior = if *completed || *suspended {
                // A suspended or finished app draws no dynamic power,
                // and the runtime knows it (the suspension was its own
                // command): a tight prior at zero.
                AppPrior {
                    name: name.clone(),
                    predicted_w: 0.0,
                    sigma_w: cfg.sigma_floor_w,
                }
            } else {
                let idx = sim
                    .server()
                    .assignment(name)
                    .and_then(|a| self.grid.index_of(a.knob()));
                match (self.measurements.get(name), idx) {
                    (Some(m), Some(idx)) => {
                        let mut predicted = m.power(idx).value();
                        if let Some(hb) = *heartbeat {
                            // A heartbeat off the calibrated rate means
                            // the app is not where the surface says it
                            // is (a phase); scale the prior with it,
                            // bounded so one noisy window cannot swing
                            // the model.
                            let expected = m.perf(idx);
                            if expected > 0.0 {
                                let ratio = hb / expected;
                                let bounded = ratio.clamp(cfg.hb_ratio_min, cfg.hb_ratio_max);
                                let clamped = bounded != ratio;
                                if clamped {
                                    // A claim pinned at the bound is a
                                    // claim physics would not honor —
                                    // the integrity layer seeds its
                                    // trust scores from these.
                                    est.stats.clamp_bound_polls += 1;
                                    emit(&self.obs, sim.now(), || ObsEvent::HeartbeatClampBound {
                                        app: name.clone(),
                                        ratio,
                                    });
                                }
                                // A distrusted app's self-report is
                                // ignored outright: the prior rides on
                                // the profile alone.
                                if !self.defense.as_ref().is_some_and(|d| d.distrusted(name)) {
                                    predicted *= bounded;
                                }
                                if self.defense.is_some() {
                                    claims.insert(
                                        name.clone(),
                                        ClaimRecord {
                                            ratio,
                                            unscaled_w: m.power(idx).value(),
                                            clamped,
                                        },
                                    );
                                }
                            }
                        }
                        let trust_weight = self
                            .defense
                            .as_ref()
                            .and_then(|d| d.trust.get(name))
                            .map_or(1.0, TrustScore::score);
                        let confidence = (est.prior_confidence.get(name).copied().unwrap_or(1.0)
                            * trust_weight)
                            .clamp(0.05, 1.0);
                        let mut sigma = predicted.abs() * cfg.prior_rel_sigma / confidence;
                        if self
                            .hardening
                            .as_ref()
                            .is_some_and(|h| h.retries.contains_key(name))
                        {
                            // The planned knob write has not verified:
                            // the app may still run at the stale setting.
                            sigma *= cfg.stale_knob_inflation;
                        }
                        AppPrior {
                            name: name.clone(),
                            predicted_w: predicted,
                            sigma_w: sigma.max(cfg.sigma_floor_w),
                        }
                    }
                    // No calibrated surface yet (mid-admission churn):
                    // a wide prior lets the meter place it.
                    _ => AppPrior {
                        name: name.clone(),
                        predicted_w: 0.0,
                        sigma_w: 20.0 * cfg.sigma_floor_w,
                    },
                }
            };
            priors.push(prior);
        }
        if let Some(d) = self.defense.as_mut() {
            d.claims = claims;
        }
        // Idle + chip-maintenance power is deterministic in the knob
        // assignments (spec constants per awake socket), not sensed per
        // app, so subtracting it does not consult the oracle. ESD flows
        // are separately metered by the BMS on a real server.
        let static_floor = (report.breakdown.idle + report.breakdown.uncore).value();
        let eb = est.estimator.estimate(
            report.observed_net_power.map(Watts::value),
            static_floor,
            report.esd_charge.value(),
            report.esd_discharge.value(),
            &priors,
        );
        est.stats.estimates += 1;
        if eb.held_polls > 0 {
            if eb.held_polls <= cfg.hold_max_polls {
                est.stats.held_samples += 1;
            } else {
                est.stats.blind_samples += 1;
            }
        }
        Some(eb)
    }

    /// Post-poll estimation bookkeeping: journal this poll's residual
    /// verdict, advance the degradation ladder, and act on whatever it
    /// returns (engage / escalate / release).
    fn observe_estimated(&mut self, sim: &mut ServerSim, eb: EstimatedBreakdown) {
        let now = sim.now();
        let est = self
            .estimation
            .as_mut()
            .expect("only called in estimation mode");
        let cfg = *est.estimator.config();
        let threshold = (cfg.residual_band_k * eb.band_w).max(cfg.residual_floor_w);
        let spike = eb.held_polls == 0 && eb.residual_w.abs() > threshold;
        let streak_before = est.estimator.spike_polls();
        let action = est.estimator.note_residual(&eb);
        if spike {
            est.stats.residual_spikes += 1;
            emit(&self.obs, now, || ObsEvent::ResidualSpike {
                residual_w: eb.residual_w,
                band_w: eb.band_w,
                streak: streak_before + 1,
            });
        }
        match action {
            DegradeAction::None => {}
            DegradeAction::EngageFallback => {
                // Sustained model-vs-meter disagreement is a sensor
                // fault the per-channel checks cannot see (a biased
                // meter, a fleet-wide phase shift, a poisoned profile):
                // fire E6 and plan against the cap minus the band.
                est.stats.fallback_engagements += 1;
                est.fallback_shave = Watts::new(eb.band_w.max(cfg.residual_floor_w));
                let shave_w = est.fallback_shave.value();
                self.hardening_stats.sensor_faults += 1;
                // An unexplained residual with every app still trusted
                // is also what undetected collusion looks like: open an
                // integrity audit so the plausibility cross-checks get
                // claims to work with before the shave duty-cycles the
                // schedule and silences them.
                if let Some(d) = self.defense.as_mut() {
                    d.open_audit(now);
                }
                let what = format!(
                    "estimated-vs-meter residual {:.1} W exceeded the {:.1} W confidence band",
                    eb.residual_w.abs(),
                    eb.band_w,
                );
                self.last_fault_error = Some(CoreError::TelemetryLoss { what: what.clone() });
                emit(&self.obs, now, || ObsEvent::FallbackCap {
                    shave_w,
                    engaged: true,
                });
                let event = self.accountant.sensor_fault(&what);
                self.handle_events(sim, vec![event]);
            }
            DegradeAction::Escalate => {
                est.stats.escalations += 1;
                if self.watchdog.force_engage() == Some(WatchdogTransition::Engaged) {
                    self.enter_safe_mode(sim);
                }
            }
            DegradeAction::ReleaseFallback => {
                est.stats.fallback_releases += 1;
                est.fallback_shave = Watts::ZERO;
                emit(&self.obs, now, || ObsEvent::FallbackCap {
                    shave_w: 0.0,
                    engaged: false,
                });
                self.replan(sim);
            }
        }
        if let Some(est) = self.estimation.as_mut() {
            est.last_estimate = Some(eb);
        }
    }

    /// Post-step safety pass: sensor health (hardening only), the
    /// safe-mode watchdog over the observed net draw, and the hardened
    /// series.
    fn observe_hardened(&mut self, sim: &mut ServerSim, report: &StepReport) {
        if let Some(h) = self.hardening.as_mut() {
            let fault = h.note_sample(report);
            let (dropouts, stuck) = (h.consecutive_dropouts, h.stuck_observed);
            if dropouts > 0 || stuck > 0 {
                emit(&self.obs, sim.now(), || ObsEvent::SensorSuspect {
                    dropouts,
                    stuck,
                });
            }
            if let Some(what) = fault {
                self.hardening_stats.sensor_faults += 1;
                self.last_fault_error = Some(CoreError::TelemetryLoss { what: what.clone() });
                let event = self.accountant.sensor_fault(&what);
                self.handle_events(sim, vec![event]);
            }
        }
        // Hardening feeds the watchdog every poll: that is how a breach
        // engages it. Safe mode engaged any other way (the estimation
        // ladder's escalation) is fed the meter until it releases.
        let sample = match &self.hardening {
            Some(h) => h.watchdog_sample(report),
            None => report
                .observed_net_power
                .filter(|_| self.watchdog.engaged()),
        };
        if let Some(sample) = sample {
            self.observe_safe_mode(sim, sample);
        }
        if self.hardening.is_none() {
            return;
        }
        let now = sim.now();
        let engaged = if self.watchdog.engaged() { 1.0 } else { 0.0 };
        sim.recorder_mut().push("safe_mode", now, engaged);
        sim.recorder_mut()
            .push("retries_total", now, self.hardening_stats.retries as f64);
        if let Some(obs) = &self.obs {
            obs.set_gauge("safe_mode_engaged", engaged);
            obs.set_gauge("retries_total", self.hardening_stats.retries as f64);
        }
    }

    /// Feeds the safe-mode watchdog one observed net-draw sample and
    /// acts on its transitions; a breach that persists through safe
    /// mode for the watchdog's patience escalates.
    fn observe_safe_mode(&mut self, sim: &mut ServerSim, sample: Watts) {
        let over = sample.violates_cap(self.accountant.cap());
        match self.watchdog.observe(over) {
            Some(WatchdogTransition::Engaged) => self.enter_safe_mode(sim),
            Some(WatchdogTransition::Released) => self.exit_safe_mode(sim),
            None => {}
        }
        if !self.watchdog.engaged() {
            self.safe_mode_breach_polls = 0;
        } else if over {
            self.safe_mode_breach_polls += 1;
            if !self.escalated && self.safe_mode_breach_polls >= self.watchdog.patience() {
                self.escalate(sim);
            }
        }
    }

    /// Journals a safe-mode transition.
    fn note_safe_mode(&self, now: Seconds, transition: SafeModeTransition) {
        emit(&self.obs, now, || ObsEvent::SafeMode { transition });
    }

    /// The observed net draw stayed over the cap past the watchdog's
    /// patience: stop trusting the plan. Every hosted application is
    /// forced to the minimum frequency/DRAM limit at its current core
    /// count, the ESD is idled, and — if an ESD-assisted co-run was in
    /// force — the device is quarantined out of future plans.
    fn enter_safe_mode(&mut self, sim: &mut ServerSim) {
        self.hardening_stats.safe_mode_entries += 1;
        self.safe_mode_breach_polls = 0;
        self.escalated = false;
        self.note_safe_mode(sim.now(), SafeModeTransition::Engaged);
        if matches!(self.schedule, Schedule::EsdCycle { .. }) {
            self.esd_quarantined = true;
        }
        for name in sim.app_names() {
            let Some(a) = sim.server().assignment(&name) else {
                continue;
            };
            let floor = KnobSetting::min_for(&self.spec).with_cores(a.knob().cores());
            let _ = sim.set_knobs(&name, floor);
            emit(&self.obs, sim.now(), || ObsEvent::ForceThrottle {
                app: name,
            });
        }
        sim.set_esd_command(EsdCommand::Idle);
        if let Some(h) = self.hardening.as_mut() {
            h.retries.clear();
        }
        self.actuation = Actuation::None;
        self.last_actuation_at = sim.now();
    }

    /// Safe mode alone did not clear the breach (e.g. the floor still
    /// sits above a very low cap): park every application. Progress
    /// stops, but the feed goes back under its provisioned limit.
    fn escalate(&mut self, sim: &mut ServerSim) {
        self.escalated = true;
        self.hardening_stats.safe_mode_escalations += 1;
        self.note_safe_mode(sim.now(), SafeModeTransition::Escalated);
        for name in sim.app_names() {
            let _ = sim.server_mut().suspend_app(&name);
        }
        sim.set_esd_command(EsdCommand::Idle);
    }

    /// The breach cleared for the configured release window: resume
    /// normal operation by re-planning (with any ESD quarantine still
    /// in force) and letting the next actuation pass re-assert knobs.
    fn exit_safe_mode(&mut self, sim: &mut ServerSim) {
        self.hardening_stats.safe_mode_exits += 1;
        self.safe_mode_breach_polls = 0;
        self.escalated = false;
        self.note_safe_mode(sim.now(), SafeModeTransition::Released);
        if self.hardening_stats.safe_mode_entries >= 2 {
            if let Some(d) = self.defense.as_mut() {
                // A breach that keeps coming back through replans with
                // nobody implicated is the watchdog-blinded defector
                // signature: each engage/release cycle changes every
                // knob, so no claim window ever matures and the
                // claim-based detectors see nothing. Pin the audit
                // schedule on release — a stable floor fits the cap
                // (safe mode just proved it), lets claims mature, and
                // makes the one app running hot at a floor setting
                // stand out.
                d.open_audit(sim.now());
            }
        }
        self.replan(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_esd::{LeadAcidBattery, NoEsd};
    use powermed_workloads::catalog;

    const DT: Seconds = Seconds::new(0.1);

    fn sim_no_esd() -> ServerSim {
        ServerSim::new(ServerSpec::xeon_e5_2620(), Box::new(NoEsd))
    }

    fn sim_with_battery() -> ServerSim {
        ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(LeadAcidBattery::server_ups().with_soc(0.2)),
        )
    }

    fn mediator(kind: PolicyKind, cap: f64) -> PowerMediator {
        PowerMediator::new(kind, ServerSpec::xeon_e5_2620(), Watts::new(cap))
    }

    #[test]
    fn space_mode_respects_cap_at_100w() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Space { .. }));
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
        assert!(sim.ops_done("pagerank") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn alternate_mode_at_80w_runs_one_at_a_time() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 80.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Alternate { .. }));
        med.run_for(&mut sim, Seconds::new(12.0), DT);
        // Both made progress (they alternate across the 10 s cycle).
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
    }

    #[test]
    fn esd_mode_at_80w_consolidates_and_uses_battery() {
        let mut sim = sim_with_battery();
        let mut med = mediator(PolicyKind::AppResEsdAware, 80.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::EsdCycle { .. }));
        med.run_for(&mut sim, Seconds::new(20.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
        // Battery cycled.
        assert!(sim.esd().stats().charged.value() > 0.0);
        assert!(sim.esd().stats().discharged.value() > 0.0);
        // The ESD keeps net draw at or below the cap.
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.05, "violation fraction {violations}");
    }

    #[test]
    fn departure_triggers_reallocation() {
        let mut sim = sim_no_esd();
        let spec = sim.server().spec().clone();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        // kmeans finishes after ~2 s of uncapped-rate work.
        let short = catalog::finite(catalog::kmeans(), &spec, Seconds::new(2.0));
        med.admit(&mut sim, short).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        let replans_before = med.replans();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        assert_eq!(sim.app_names(), vec!["pagerank".to_string()]);
        assert!(med.replans() > replans_before, "departure replanned");
        // The survivor now holds (close to) the whole budget.
        match med.schedule() {
            Schedule::Space { settings } => {
                let idx = settings["pagerank"];
                let m = med.measurement("pagerank").unwrap();
                assert!(
                    m.perf(idx) / m.nocap_perf() > 0.95,
                    "survivor should run nearly uncapped"
                );
            }
            other => panic!("expected Space after departure, got {other:?}"),
        }
    }

    #[test]
    fn cap_drop_switches_modes() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Space { .. }));
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        med.set_cap(&mut sim, Watts::new(80.0));
        assert!(matches!(med.schedule(), Schedule::Alternate { .. }));
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert_eq!(sim.cap(), Some(Watts::new(80.0)));
    }

    #[test]
    fn online_calibration_probes_fraction_of_grid() {
        let mut sim = sim_no_esd();
        let corpus = catalog::all();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
        med.admit(&mut sim, catalog::stream()).unwrap();
        assert!(
            med.probes() < 60,
            "10% sampling should probe ~43 settings, got {}",
            med.probes()
        );
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
    }

    #[test]
    fn util_unaware_never_gates_cores() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::UtilUnaware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(1.0), DT);
        for name in ["stream", "kmeans"] {
            let knob = sim.server().assignment(name).unwrap().knob();
            assert_eq!(knob.cores(), 6, "{name}: RAPL baseline keeps all cores");
        }
    }

    #[test]
    fn actuation_latency_defers_the_new_schedule() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_actuation_latency(Seconds::new(0.8));
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        let before = sim.server().assignment("kmeans").unwrap().knob();

        // E1 fires; the old knobs must stay in force for ~0.8 s.
        med.set_cap(&mut sim, Watts::new(85.0));
        med.run_for(&mut sim, Seconds::new(0.5), DT);
        assert_eq!(
            sim.server().assignment("kmeans").unwrap().knob(),
            before,
            "old allocation still in force during the actuation window"
        );
        med.run_for(&mut sim, Seconds::new(0.5), DT);
        assert_ne!(
            sim.server().assignment("kmeans").unwrap().knob(),
            before,
            "new allocation applied after the window"
        );
    }

    #[test]
    fn hardened_retries_ride_through_flaky_knob_writes() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 42,
            knob_failure_prob: 0.5,
            knob_stale_steps: 5,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        let stats = med.hardening_stats();
        assert!(stats.retries > 0, "half the writes fail: retries fired");
        assert!(sim.ops_done("pagerank") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn watchdog_throttles_a_stuck_esd_corun_and_quarantines_the_device() {
        use powermed_sim::faults::FaultConfig;
        let scenario = FaultConfig {
            seed: 7,
            esd_stuck_at_idle: true,
            ..FaultConfig::default()
        };
        let run = |hardened: bool| {
            let mut sim = sim_with_battery().with_fault_injection(scenario.clone());
            let mut med = mediator(PolicyKind::AppResEsdAware, 80.0);
            if hardened {
                med = med.with_hardening(HardeningConfig::default());
            }
            med.admit(&mut sim, catalog::stream()).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            assert!(matches!(med.schedule(), Schedule::EsdCycle { .. }));
            med.run_for(&mut sim, Seconds::new(30.0), DT);
            (sim.meter().compliance().violation_fraction(), med)
        };
        let (unhardened_violations, unhardened_med) = run(false);
        let (hardened_violations, hardened_med) = run(true);
        assert_eq!(unhardened_med.hardening_stats().safe_mode_entries, 0);
        assert!(
            unhardened_violations > 0.05,
            "the stuck ESD must hurt the trusting runtime, got {unhardened_violations}"
        );
        let stats = hardened_med.hardening_stats();
        assert!(stats.safe_mode_entries >= 1, "watchdog engaged");
        assert!(stats.safe_mode_exits >= 1, "and released once throttled");
        assert!(
            !matches!(hardened_med.schedule(), Schedule::EsdCycle { .. }),
            "the quarantined device is planned around"
        );
        assert!(
            hardened_violations < unhardened_violations,
            "hardened {hardened_violations} must beat unhardened {unhardened_violations}"
        );
    }

    #[test]
    fn sensor_dropouts_raise_e6_once_per_episode() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 1,
            meter_dropout_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(3.0), DT);
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "E6 latches per episode; an all-dropout run fires exactly once"
        );
        assert!(matches!(
            med.last_fault_error(),
            Some(CoreError::TelemetryLoss { .. })
        ));
        // A blind watchdog must not engage on missing samples.
        assert!(!med.safe_mode());
    }

    #[test]
    fn departed_app_degrades_to_a_skipped_calibration() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        // kmeans vanishes behind the mediator's back (crash between the
        // E4 trigger and the probe loop).
        sim.remove("kmeans").unwrap();
        let ok = med.recalibrate(&mut sim, "kmeans");
        assert!(!ok, "no surface was produced");
        assert_eq!(med.hardening_stats().skipped_calibrations, 1);
        assert!(
            !med.accountant().tracked().contains(&"kmeans"),
            "the departure was booked instead"
        );
        assert!(med.measurement("kmeans").is_none());
        // The survivor keeps running.
        med.run_for(&mut sim, Seconds::new(1.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
    }

    #[test]
    fn hardening_off_keeps_the_trusting_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert!(!med.safe_mode());
        assert_eq!(med.hardening_stats().retries, 0);
        assert!(med.last_fault_error().is_none());
        assert!(
            sim.recorder().series("safe_mode").is_none(),
            "no hardened series recorded when hardening is off"
        );
    }

    #[test]
    fn observability_journals_the_safe_mode_decision_chain() {
        use powermed_sim::faults::FaultConfig;
        use powermed_telemetry::journal::ObsConfig;
        let scenario = FaultConfig {
            seed: 7,
            esd_stuck_at_idle: true,
            ..FaultConfig::default()
        };
        let run = |observed: bool| {
            let mut sim = sim_with_battery().with_fault_injection(scenario.clone());
            let mut med = mediator(PolicyKind::AppResEsdAware, 80.0)
                .with_hardening(HardeningConfig::default());
            let obs = Obs::new(ObsConfig::default());
            if observed {
                med.set_observability(obs.clone());
                sim.set_observability(obs.clone());
            }
            med.admit(&mut sim, catalog::stream()).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            med.run_for(&mut sim, Seconds::new(30.0), DT);
            let ops = sim.ops_done("stream") + sim.ops_done("kmeans");
            (sim.meter().compliance().violation_fraction(), ops, obs)
        };
        let (base_viol, base_ops, _) = run(false);
        let (viol, ops, obs) = run(true);
        assert_eq!(
            (base_viol, base_ops),
            (viol, ops),
            "attaching the flight recorder must not change the physics"
        );

        let journal = obs.journal_snapshot();
        let engaged_at = journal
            .iter()
            .position(|r| {
                r.event
                    == ObsEvent::SafeMode {
                        transition: SafeModeTransition::Engaged,
                    }
            })
            .expect("the stuck ESD forces a safe-mode entry");
        let over_cap_before = journal[..engaged_at]
            .iter()
            .filter(|r| matches!(r.event, ObsEvent::Poll { over_cap: true, .. }))
            .count();
        assert!(
            over_cap_before >= 1,
            "the engage record is preceded by the over-cap polls that caused it"
        );
        assert!(
            journal[engaged_at..]
                .iter()
                .any(|r| matches!(r.event, ObsEvent::ForceThrottle { .. })),
            "the engage record is followed by per-app force-throttles"
        );
        let engage = &journal[engaged_at];
        assert!(engage.poll > 0, "events carry their poll id");
        let m = obs.metrics();
        assert!(m.counter("events_by_kind_total{kind=\"poll\"}") > 0);
        assert!(m.counter("events_by_kind_total{kind=\"allocation\"}") > 0);
        assert_eq!(m.counter("polls_total"), 300);

        // Same seed, same config: the deterministic digest matches.
        let (_, _, twin) = run(true);
        assert_eq!(obs.digest(), twin.digest());
    }

    #[test]
    fn warm_admission_from_a_restored_store_probes_nothing() {
        let corpus = catalog::all();
        // Cold server: measures, publishes to its store.
        let mut sim_a = sim_no_esd();
        let mut med_a = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 1);
        med_a.admit(&mut sim_a, catalog::stream()).unwrap();
        let cold = med_a.probe_split();
        assert!(cold.cold > 0);
        assert_eq!(cold.warm + cold.skipped, 0);
        assert_eq!(med_a.take_store_outbox().len(), 1, "publication queued");
        assert_eq!(med_a.store_stats().misses, 1, "cold lookup missed");

        // Warm server: restores the snapshot (the crash-durable path)
        // and admits the same workload without a single probe.
        let snapshot = med_a.store_snapshot_json().unwrap();
        let restored = ProfileStore::from_json(&snapshot).unwrap();
        let mut sim_b = sim_no_esd();
        let mut med_b = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(restored, 2);
        med_b.admit(&mut sim_b, catalog::stream()).unwrap();
        assert_eq!(med_b.probes(), 0, "fully covered prior: no probes");
        let warm = med_b.probe_split();
        assert_eq!(warm.cold + warm.warm, 0);
        assert_eq!(warm.skipped as usize, cold.cold as usize);
        assert_eq!(med_b.store_stats().hits, 1);
        assert!(
            med_b.take_store_outbox().is_empty(),
            "nothing new learned, nothing republished"
        );
        // Both servers computed the same surface from the same samples.
        let ma = med_a.measurement("stream").unwrap();
        let mb = med_b.measurement("stream").unwrap();
        for i in 0..ma.grid().len() {
            assert_eq!(ma.power(i), mb.power(i));
            assert_eq!(ma.perf(i), mb.perf(i));
        }
    }

    #[test]
    fn empty_store_matches_the_storeless_online_path() {
        let corpus = catalog::all();
        let run = |with_store: bool| {
            let mut sim = sim_no_esd();
            let mut med =
                mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
            if with_store {
                med = med.with_profile_store(ProfileStore::default(), 0);
            }
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            med.run_for(&mut sim, Seconds::new(2.0), DT);
            (med.probes(), sim.ops_done("kmeans"))
        };
        let (probes_plain, ops_plain) = run(false);
        let (probes_store, ops_store) = run(true);
        assert_eq!(probes_plain, probes_store);
        assert_eq!(ops_plain, ops_store, "store must not perturb the run");
    }

    #[test]
    fn drift_recalibration_tombstones_then_republishes() {
        let corpus = catalog::all();
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 3);
        med.admit(&mut sim, catalog::bfs()).unwrap();
        let first = med.take_store_outbox();
        assert_eq!(first.len(), 1);
        let v1 = first[0].profile.version;

        // Forced E4: the entry is tombstoned (v+1), then the fresh
        // recalibration republishes over it (v+2).
        assert!(med.recalibrate(&mut sim, "bfs"));
        let after = med.take_store_outbox();
        assert_eq!(after.len(), 2, "tombstone then republication");
        assert!(after[0].profile.is_tombstone());
        assert_eq!(after[0].profile.version, v1 + 1);
        assert!(!after[1].profile.is_tombstone());
        assert_eq!(after[1].profile.version, v1 + 2);
        assert_eq!(med.store_stats().invalidations, 1);
        // The stale profile was not served to the recalibration.
        let split = med.probe_split();
        assert_eq!(split.warm, 0, "post-tombstone lookup must miss");
        assert_eq!(split.skipped, 0);
    }

    #[test]
    fn a_restored_store_seeds_the_completion_corpus() {
        // An app the catalog corpus lacks, learned by the fleet: its
        // sparse row enters a rebooted node's corpus when the restored
        // store is attached, since the manager never re-sends it.
        let corpus: Vec<AppProfile> = catalog::all()
            .into_iter()
            .filter(|p| p.name() != "x264")
            .collect();
        let mut sim_a = sim_no_esd();
        let mut med_a = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 1);
        med_a.admit(&mut sim_a, catalog::x264()).unwrap();
        let restored = ProfileStore::from_json(&med_a.store_snapshot_json().unwrap()).unwrap();
        let med_b = mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
        let before = med_b.calibrator.corpus_size();
        let med_b = med_b.with_profile_store(restored, 2);
        assert_eq!(med_b.calibrator.corpus_size(), before + 1);
    }

    #[test]
    fn absorbed_fleet_digests_warm_up_local_admissions() {
        let corpus = catalog::all();
        // Server 1 measures x264 cold and broadcasts.
        let mut sim_a = sim_no_esd();
        let mut med_a = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 1);
        med_a.admit(&mut sim_a, catalog::x264()).unwrap();
        let digests = med_a.take_store_outbox();

        // Server 2 absorbs the broadcast, then admits the same app warm.
        let mut sim_b = sim_no_esd();
        let mut med_b = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 2);
        assert_eq!(med_b.absorb_digests(&digests), 1);
        med_b.admit(&mut sim_b, catalog::x264()).unwrap();
        assert_eq!(med_b.probes(), 0, "fleet knowledge made this warm");
        assert_eq!(med_b.store_stats().hits, 1);
    }

    fn over_cap_report(observed: Option<f64>) -> StepReport {
        use powermed_server::server::PowerBreakdown;
        StepReport {
            now: Seconds::ZERO,
            gross_power: Watts::new(90.0),
            net_power: Watts::new(90.0),
            esd_charge: Watts::ZERO,
            esd_discharge: Watts::ZERO,
            cap_violated: true,
            observed_net_power: observed.map(Watts::new),
            completed: Vec::new(),
            breakdown: PowerBreakdown {
                idle: Watts::new(30.0),
                uncore: Watts::new(20.0),
                apps: BTreeMap::new(),
                granted_bandwidth: BTreeMap::new(),
            },
        }
    }

    #[test]
    fn held_samples_bridge_dropouts_then_go_stale_then_e6() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 80.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        // Two fresh over-cap samples start arming the watchdog…
        med.observe_hardened(&mut sim, &over_cap_report(Some(90.0)));
        med.observe_hardened(&mut sim, &over_cap_report(Some(90.0)));
        assert!(!med.safe_mode());
        // …then the meter goes dark. The held last-good reading keeps
        // arming it through the bounded window: patience 5 is reached
        // on the third held poll.
        med.observe_hardened(&mut sim, &over_cap_report(None));
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert!(!med.safe_mode());
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert!(
            med.safe_mode(),
            "held samples bridge the dropout: a breach in progress still engages"
        );
        assert_eq!(med.hardening_stats().sensor_faults, 0, "not yet stale");
        // Past the hold window the channel counts as absent, and the
        // E6 dropout deadline fires at dropout_patience (5).
        med.observe_hardened(&mut sim, &over_cap_report(None));
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "sustained outage still raises E6 on schedule"
        );
    }

    #[test]
    fn estimation_reconstructs_shares_that_sum_to_the_meter() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        let stats = med.estimation_stats();
        assert_eq!(stats.estimates, 50, "one estimate per poll");
        assert_eq!(
            stats.fallback_engagements, 0,
            "a clean meter must not trip the fallback"
        );
        let eb = med.last_estimate().expect("estimation ran");
        let sum: f64 = eb.apps.values().map(|s| s.watts).sum();
        assert!(
            (sum - eb.dynamic_total_w).abs() < 1e-6,
            "shares sum to the meter-implied dynamic budget"
        );
        assert!(
            eb.residual_w.abs() < 5.0,
            "the model tracks a clean meter, residual {}",
            eb.residual_w
        );
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn estimation_off_keeps_the_oracle_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert_eq!(med.estimation_stats(), EstimationStats::default());
        assert!(med.last_estimate().is_none());
        assert!(!med.estimation_fallback_engaged());
    }

    #[test]
    fn shared_meter_bias_engages_the_confidence_fallback() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 11,
            meter_bias_frac: 0.12,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        let stats = med.estimation_stats();
        assert!(stats.residual_spikes > 0, "the bias shows up as residual");
        assert_eq!(
            stats.fallback_engagements, 1,
            "sustained correlated error engages the fallback once"
        );
        assert!(med.estimation_fallback_engaged(), "bias never clears");
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "each engagement fires one E6"
        );
        assert_eq!(
            sim.cap(),
            Some(Watts::new(100.0)),
            "the enforced cap is untouched; only the planning target shrinks"
        );
    }

    #[test]
    fn estimation_escalation_releases_safe_mode_without_hardening() {
        // The estimation ladder engages safe mode on its own evidence;
        // with hardening off nothing else feeds the watchdog, so it
        // must still be fed until the breach clears and it releases.
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 11,
            meter_bias_frac: 0.12,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(60.0), DT);
        assert!(
            med.estimation_stats().escalations > 0,
            "the ladder escalated to safe mode"
        );
        assert!(
            med.hardening_stats().safe_mode_exits > 0,
            "safe mode released at least once"
        );
        med.set_cap(&mut sim, Watts::new(115.0));
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        assert!(!med.safe_mode(), "safe mode released under the raised cap");
        let knob = sim.server().assignment("stream").unwrap().knob();
        let floor = KnobSetting::min_for(sim.server().spec()).with_cores(knob.cores());
        assert_ne!(
            knob, floor,
            "stream is no longer pinned at the safe-mode floor"
        );
    }

    #[test]
    fn infeasible_cap_parks_everything() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 45.0);
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert_eq!(*med.schedule(), Schedule::Infeasible);
        let r = med.step(&mut sim, DT);
        assert_eq!(r.gross_power, Watts::new(50.0), "server idles");
        assert_eq!(sim.ops_done("kmeans"), 0.0);
    }

    #[test]
    fn defense_off_keeps_the_estimating_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        assert_eq!(med.trust_stats(), TrustStats::default());
        assert!(med.trust_score("stream").is_none());
        assert_eq!(med.watt_debts().total_charged(), 0.0);
    }

    #[test]
    fn honest_apps_stay_trusted_under_the_defense() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        let stats = med.trust_stats();
        assert_eq!(stats.quarantines, 0, "no false quarantines: {stats:?}");
        for name in ["stream", "kmeans"] {
            let t = med.trust_score(name).expect("scored every poll");
            assert!(!t.distrusted(), "{name} must stay trusted: {t:?}");
        }
    }

    #[test]
    fn knob_defiance_is_quarantined_with_e7() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        assert!(
            sim.adversary_stats().knobs_defied > 0,
            "the injector was live"
        );
        let stats = med.trust_stats();
        assert!(
            stats.quarantines >= 1,
            "defiance must reach quarantine: {stats:?}"
        );
        let t = med.trust_score("kmeans").expect("scored");
        assert!(t.quarantined(), "the unrepentant defector stays locked up");
        for honest in ["stream", "pagerank"] {
            assert!(
                med.trust_score(honest).is_none_or(|t| !t.distrusted()),
                "the honest app {honest} is untouched"
            );
        }
    }

    #[test]
    fn heartbeat_deflation_loses_trust() {
        use powermed_sim::AdversaryConfig;
        let mut sim =
            sim_no_esd().with_adversary(AdversaryConfig::heartbeat_misreport(7, &["stream"], 0.3));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(20.0), DT);
        assert!(
            med.estimation_stats().clamp_bound_polls > 0,
            "a 0.3× claim pins the ratio clamp"
        );
        let stats = med.trust_stats();
        assert!(stats.implausible_polls > 0, "evidence accrued: {stats:?}");
        let t = med.trust_score("stream").expect("scored");
        assert!(t.score() < 1.0, "trust fell: {t:?}");
    }

    /// Probation pinned out of reach so the quarantine tier is stable
    /// across the whole run — the watchdog-interplay tests below need
    /// the integrity state to change only for integrity reasons.
    fn sticky_trust() -> TrustConfig {
        TrustConfig {
            probation_clean_polls: 100_000,
            ..TrustConfig::default()
        }
    }

    #[test]
    fn safe_mode_engages_over_a_quarantine_and_neither_launders_the_other() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(sticky_trust())
            .with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        // The defiant app breaches the cap, so the watchdog engages
        // before any claim window can mature — engage/release churn
        // would blind the claim-based detectors forever. The release
        // path notices the recurring breach and pins the audit
        // schedule, which is where blame finally lands.
        assert!(
            med.hardening_stats().safe_mode_entries >= 2,
            "precondition: the breach kept coming back through replans"
        );
        assert!(
            med.trust_score("kmeans").expect("scored").quarantined(),
            "the post-release audit implicated the defector"
        );
        let entries_before = med.hardening_stats().safe_mode_entries;
        let exits_before = med.hardening_stats().safe_mode_exits;
        let quarantines_before = med.trust_stats().quarantines;

        // An external cap cut no plan can satisfy: the watchdog must
        // still engage even though the integrity ladder already holds
        // an app — the two mechanisms protect different invariants.
        med.set_cap(&mut sim, Watts::new(20.0));
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        assert!(
            med.hardening_stats().safe_mode_entries > entries_before,
            "the watchdog engaged over the standing quarantine"
        );
        assert!(
            med.trust_score("kmeans").expect("scored").quarantined(),
            "safe mode does not launder trust"
        );

        // Restore the cap: the breach clears, safe mode releases, and
        // the release replan re-asserts the integrity clamp.
        med.set_cap(&mut sim, Watts::new(100.0));
        med.run_for(&mut sim, Seconds::new(8.0), DT);
        let stats = med.hardening_stats();
        assert!(
            stats.safe_mode_exits > exits_before,
            "released once the cap came back"
        );
        assert!(
            stats.safe_mode_entries >= stats.safe_mode_exits,
            "release ordering: every exit pairs with an earlier entry"
        );
        assert!(
            med.trust_score("kmeans").expect("scored").quarantined(),
            "the quarantine outlives the safe-mode round trip"
        );
        assert_eq!(
            med.trust_stats().quarantines,
            quarantines_before,
            "E7 fired once; the safe-mode round trip is not a relapse"
        );
        for honest in ["stream", "pagerank"] {
            assert!(
                med.trust_score(honest).is_none_or(|t| !t.distrusted()),
                "the honest app {honest} is untouched by the churn"
            );
        }
    }

    #[test]
    fn release_resumes_honest_apps_but_a_contained_app_stays_parked() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(sticky_trust())
            .with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        assert!(
            med.is_contained("kmeans"),
            "precondition: post-clamp overdraw escalated to containment: {:?}",
            med.trust_stats()
        );
        assert_eq!(
            sim.server()
                .assignment("kmeans")
                .expect("hosted")
                .run_state(),
            AppRunState::Suspended,
            "containment means suspension, the one lever defiance cannot fake"
        );

        let entries_before = med.hardening_stats().safe_mode_entries;
        let exits_before = med.hardening_stats().safe_mode_exits;

        // A cap below even the idle floor forces escalation: everyone
        // is parked, honest and contained alike.
        med.set_cap(&mut sim, Watts::new(5.0));
        med.run_for(&mut sim, Seconds::new(4.0), DT);
        assert!(
            med.hardening_stats().safe_mode_entries > entries_before,
            "the watchdog engaged on the impossible cap"
        );
        assert!(
            med.is_contained("kmeans"),
            "escalation does not clear containment"
        );

        // Release ordering: the exit replan hands settings back to the
        // honest apps (the actuator resumes them) while the contained
        // defector is planned *without* a setting and stays parked.
        med.set_cap(&mut sim, Watts::new(100.0));
        med.run_for(&mut sim, Seconds::new(6.0), DT);
        assert!(
            med.hardening_stats().safe_mode_exits > exits_before,
            "released once the cap came back"
        );
        for honest in ["stream", "pagerank"] {
            assert_eq!(
                sim.server().assignment(honest).expect("hosted").run_state(),
                AppRunState::Running,
                "the honest app {honest} is resumed on release"
            );
        }
        assert!(
            med.is_contained("kmeans"),
            "containment survives the release"
        );
        assert_eq!(
            sim.server()
                .assignment("kmeans")
                .expect("hosted")
                .run_state(),
            AppRunState::Suspended,
            "the contained app does not ride the release back in"
        );
        let debts = med.watt_debts();
        assert!(
            debts.total_repaid() <= debts.total_charged() + 1e-9,
            "clawback never repays more than was overdrawn"
        );
    }
}
