//! One causal-chain engine for `doctor`.
//!
//! Every `doctor --explain` target is one [`Spec`] in [`TARGETS`]: an
//! anchor event (the decision being explained) plus a list of
//! [`Stage`]s, each a role in the causal story (cause, decide, effect,
//! release), an event-kind predicate, a join on the anchor's app or on
//! servers another stage implicated, a [`Window`] relative to the
//! anchor, a minimum count and a print limit. [`explain`] evaluates a
//! spec over a log (one journal, or a merged fleet timeline) and
//! [`print`] renders the chain; `doctor`, `ext_obs::print` and
//! `ext_obs::print_fleet` all go through these two functions.
//!
//! The committed transcripts under `crates/bench/golden/doctor/` are
//! the authoritative output of each target.

use std::ops::Index;

use powermed_cluster::control::{ClusterFaultConfig, FleetObsOptions, ResilienceReport};
use powermed_telemetry::journal::{
    EventRecord, FleetRecord, FleetTimeline, Obs, ObsConfig, ObsEvent, SafeModeTransition,
    MANAGER_SERVER_ID,
};
use powermed_units::Seconds;

use Join::{App, Servers};
use Since::{At, Reset, Start};
use Window::{Back, During, Forward, Streak};

use crate::experiments::{
    ext_adversary, ext_cluster_faults, ext_disagg, ext_faults, ext_obs, ext_traffic,
};
use crate::support::parse_seed;

/// The part a stage plays in the causal story; its label prefixes each
/// printed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Evidence that armed a decision.
    Cause,
    /// The decision itself.
    Decide,
    /// What the decision did.
    Effect,
    /// The decision being lifted.
    Release,
}

impl Role {
    fn label(self) -> &'static str {
        match self {
            Role::Cause => "cause",
            Role::Decide => "decide",
            Role::Effect => "effect",
            Role::Release => "release",
        }
    }
}

/// An event-kind predicate.
pub type Kind = fn(&ObsEvent) -> bool;

/// Where a window opens, walking back from its upper bound.
#[derive(Debug, Clone, Copy)]
pub enum Since {
    /// The start of the retained log.
    Start,
    /// Just after the last record of this kind (passing the stage's
    /// join) before the upper bound: the point a counter was reset.
    Reset(Kind),
    /// At the first record of the named earlier stage.
    At(&'static str),
}

/// Where a stage's records are looked for, relative to the anchor.
/// "Own journal" means the anchor's source journal in sequence order.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Own journal, from `since` up to (excluding) the anchor or the
    /// first record of stage `to`; the newest [`Stage::max`] are kept.
    Back {
        /// Where the window opens.
        since: Since,
        /// The stage whose first record closes the window (`None`: the
        /// anchor).
        to: Option<&'static str>,
    },
    /// Own journal, backward from the anchor: a countdown streak k,
    /// k-1, …, 1 (breaker arming, heartbeat misses). A break in the
    /// countdown is an older episode and ends the walk.
    Streak,
    /// Own journal, forward from the anchor, stopping before the first
    /// `until` record; the first [`Stage::max`] are kept.
    Forward {
        /// The terminator, if any.
        until: Option<Kind>,
    },
    /// Every journal in the log: records stamped from the first record
    /// of stage `from` to the anchor (or stage `to`), in
    /// `(poll, server, seq)` order.
    During {
        /// The stage whose first record opens the window.
        from: &'static str,
        /// The stage whose first record closes it (`None`: the anchor).
        to: Option<&'static str>,
    },
}

/// Which records of the right kind and window belong to the chain.
#[derive(Debug, Clone, Copy)]
pub enum Join {
    /// All of them.
    Any,
    /// Those concerning the anchor's app.
    App,
    /// Those naming (or shipped by) a server the named stage implicated.
    Servers(&'static str),
}

/// One link of a chain spec.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Name the header, verdict and `print` list refer to.
    pub name: &'static str,
    /// Role label.
    pub role: Role,
    /// Event kinds that qualify.
    pub kind: Kind,
    /// Join on the anchor.
    pub join: Join,
    /// Where to look.
    pub window: Window,
    /// Records required for the chain to hold.
    pub min: usize,
    /// Records required in the preferred pass, when more than `min`
    /// (see [`explain`]).
    pub prefer: usize,
    /// Records kept at most.
    pub max: usize,
    /// Records printed at most.
    pub show: usize,
    /// Noun of the `…  N more` overflow line (`None`: no line).
    pub more: Option<&'static str>,
}

impl Stage {
    /// No join, no minimum, no limits: the base of every table entry.
    pub const DEFAULT: Stage = Stage {
        name: "",
        role: Role::Cause,
        kind: |_| false,
        join: Join::Any,
        window: Window::Streak,
        min: 0,
        prefer: 0,
        max: usize::MAX,
        show: usize::MAX,
        more: None,
    };
}

/// `on!(pattern)`: the [`Kind`] of events matching an `ObsEvent` pattern.
macro_rules! on {
    ($($kind:pat_param)|+) => {
        |e: &ObsEvent| matches!(e, $($kind)|+)
    };
}

/// `stage!(name, Role, window, field = value, …; pattern)`: a [`Stage`]
/// of the events matching `pattern`, the listed fields overriding
/// [`Stage::DEFAULT`].
macro_rules! stage {
    ($name:literal, $role:ident, $window:expr $(, $field:ident = $value:expr)*;
     $($kind:pat_param)|+) => {
        Stage {
            name: $name,
            role: Role::$role,
            kind: on!($($kind)|+),
            window: $window,
            $($field: $value,)*
            ..Stage::DEFAULT
        }
    };
}

/// `anchor!(name, Role; pattern)`: an [`Anchor`] on the events matching
/// `pattern`.
macro_rules! anchor {
    ($name:literal, $role:ident; $($kind:pat_param)|+) => {
        Anchor {
            name: $name,
            role: Role::$role,
            kind: on!($($kind)|+),
        }
    };
}

/// The record a chain is anchored on: the decision being explained.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Name the header, verdict and `print` list refer to.
    pub name: &'static str,
    /// Role label.
    pub role: Role,
    /// The event kind explained (the newest such record, by default).
    pub kind: Kind,
}

/// A replayed reference run, ready to explain.
#[derive(Debug)]
pub struct Replay {
    /// The log: one journal, or a merged fleet timeline.
    pub log: Vec<FleetRecord>,
    /// The app the anchor must concern, when the caller named one.
    pub focus: Option<String>,
}

/// One `doctor --explain` target.
#[derive(Debug)]
pub struct Spec {
    /// The `--explain` name.
    pub target: &'static str,
    /// Default replay seed.
    pub seed: u64,
    /// Replays the reference run (printing its banner) for a seed and
    /// an optional `--app`.
    pub replay: fn(u64, Option<&str>) -> Replay,
    /// Whether the log is a merged fleet timeline (records print with
    /// their source column).
    pub fleet: bool,
    /// The error message's name for a chain that cannot be walked.
    pub missing: &'static str,
    /// The decision being explained.
    pub anchor: Anchor,
    /// The stages, in evaluation order.
    pub stages: &'static [Stage],
    /// Stage names (the anchor's included) in print order.
    pub print: &'static [&'static str],
    /// The question line.
    pub header: fn(&Chain) -> String,
    /// The verdict line.
    pub verdict: fn(&Chain) -> String,
}

/// An evaluated chain: the anchor and each stage's records.
#[derive(Debug)]
pub struct Chain {
    /// The spec it was evaluated from.
    pub spec: &'static Spec,
    /// The anchor record.
    pub anchor: FleetRecord,
    stages: Vec<Vec<FleetRecord>>,
}

impl Index<&str> for Chain {
    type Output = [FleetRecord];

    fn index(&self, name: &str) -> &[FleetRecord] {
        if name == self.spec.anchor.name {
            return std::slice::from_ref(&self.anchor);
        }
        let i = self
            .spec
            .stages
            .iter()
            .position(|s| s.name == name)
            .filter(|&i| i < self.stages.len())
            .unwrap_or_else(|| panic!("{}: no evaluated stage {name:?}", self.spec.target));
        &self.stages[i]
    }
}

impl Chain {
    /// Servers the named stage's records name (or were shipped by),
    /// ascending.
    pub fn servers(&self, name: &str) -> Vec<usize> {
        let mut servers: Vec<usize> = self[name].iter().filter_map(server_of).collect();
        servers.sort_unstable();
        servers.dedup();
        servers
    }

    /// The app the anchor concerns (`?` when none).
    pub fn app(&self) -> &str {
        self.anchor.record.event.app().unwrap_or("?")
    }

    /// Records of the named stage matching `kind`.
    pub fn count(&self, name: &str, kind: Kind) -> usize {
        self[name].iter().filter(|r| kind(&r.record.event)).count()
    }
}

/// The server a record is about: the one its event names, else the
/// server that shipped it (`None` for the manager's own records).
fn server_of(r: &FleetRecord) -> Option<usize> {
    match r.record.event {
        ObsEvent::ServerOverdraw { server, .. }
        | ObsEvent::UplinkSent { server, .. }
        | ObsEvent::EndpointLoss { server }
        | ObsEvent::EmergencyClamp { server } => Some(server),
        _ if r.server_id == MANAGER_SERVER_ID => None,
        _ => Some(r.server_id as usize),
    }
}

/// The countdown value of a streak record.
fn streak_of(e: &ObsEvent) -> Option<u64> {
    match *e {
        ObsEvent::FleetOverBudget { streak, .. } => Some(streak),
        ObsEvent::HeartbeatMissed { misses } => Some(misses),
        _ => None,
    }
}

/// One server's journal as a log (its records all ship from server 0).
fn journal_log(journal: &[EventRecord]) -> Vec<FleetRecord> {
    journal
        .iter()
        .map(|record| FleetRecord {
            server_id: 0,
            record: record.clone(),
        })
        .collect()
}

/// The target named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    TARGETS.iter().find(|s| s.target == name)
}

/// The value following `flag` in `args`, if any.
fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `powermed-bench doctor`: replays a reference scenario with the flight
/// recorder attached and explains a mediator decision from the journal.
///
/// ```text
/// doctor --explain <target> [--app <name-or-1-based-index>] [--seed N|0xN]
/// ```
///
/// The target (default `throttle`) is one spec in [`TARGETS`]: it names
/// the reference run to replay, the decision to anchor on, and the
/// causes, decisions and effects to walk to from it. `--app` picks the
/// throttled app for `throttle`. `breaker-trip` and `fallback-cap` are
/// cross-server: they replay a whole fleet with every server shipping
/// its journal over the control plane and walk the manager's merged
/// timeline. The chain prints chronologically per stage (sequence
/// number, poll, sim time, epoch, event). Exits 2 on an unknown target
/// or a malformed seed, and 1 when the chain cannot be reconstructed.
pub fn doctor(args: &[String]) {
    let what = arg_value(args, "--explain").unwrap_or("throttle");
    let Some(spec) = spec(what) else {
        let supported: Vec<&str> = TARGETS.iter().map(|s| s.target).collect();
        eprintln!(
            "doctor: unknown --explain target {what:?} (supported: {})",
            supported.join(", ")
        );
        std::process::exit(2);
    };
    let seed = match arg_value(args, "--seed") {
        None => spec.seed,
        Some(v) => parse_seed(v).unwrap_or_else(|| {
            eprintln!("doctor: --seed takes a decimal or 0x-prefixed hex u64, got {v:?}");
            std::process::exit(2);
        }),
    };
    let replay = (spec.replay)(seed, arg_value(args, "--app"));
    let focus = replay.focus.as_deref();
    let Some(chain) = explain(spec, &replay.log, focus) else {
        let app = focus.map(|app| format!(" for {app}")).unwrap_or_default();
        eprintln!("doctor: found no {}{app}", spec.missing);
        std::process::exit(1);
    };
    print(&chain);
}

/// Explains the target `name` over one server's journal.
pub fn explain_journal(name: &str, journal: &[EventRecord], focus: Option<&str>) -> Option<Chain> {
    explain(target(name), &journal_log(journal), focus)
}

/// Explains the target `name` over a merged fleet timeline.
pub fn explain_timeline(name: &str, timeline: &FleetTimeline) -> Option<Chain> {
    let log: Vec<FleetRecord> = timeline.iter().cloned().collect();
    explain(target(name), &log, None)
}

fn target(name: &str) -> &'static Spec {
    spec(name).unwrap_or_else(|| panic!("{name:?} is not a doctor target"))
}

/// Evaluates `spec` over `log`, anchored on the newest record of the
/// anchor's kind (concerning `focus`, when given).
///
/// When a stage prefers more records than it requires, the engine
/// first looks for the newest anchor whose chain meets every
/// preference (the richest story), then relaxes to the newest anchor
/// whose chain meets the minimums. Otherwise only the newest anchor is
/// tried. Returns `None` when no anchor chains.
pub fn explain(spec: &'static Spec, log: &[FleetRecord], focus: Option<&str>) -> Option<Chain> {
    let mut anchors: Vec<&FleetRecord> = log
        .iter()
        .filter(|r| (spec.anchor.kind)(&r.record.event))
        .filter(|r| focus.is_none_or(|f| r.record.event.app() == Some(f)))
        .collect();
    anchors.sort_by(|a, b| {
        b.record
            .at
            .value()
            .total_cmp(&a.record.at.value())
            .then(b.server_id.cmp(&a.server_id))
            .then(b.record.seq.cmp(&a.record.seq))
    });
    let rich = spec.stages.iter().any(|s| s.prefer > s.min);
    if !rich {
        anchors.truncate(1);
    }
    let passes: &[bool] = if rich { &[true, false] } else { &[false] };
    passes.iter().find_map(|&preferred| {
        anchors
            .iter()
            .find_map(|anchor| evaluate(spec, log, anchor, preferred))
    })
}

fn evaluate(
    spec: &'static Spec,
    log: &[FleetRecord],
    anchor: &FleetRecord,
    preferred: bool,
) -> Option<Chain> {
    let mut own: Vec<&FleetRecord> = log
        .iter()
        .filter(|r| r.server_id == anchor.server_id)
        .collect();
    own.sort_by_key(|r| r.record.seq);
    let pos = |r: &FleetRecord| own.iter().position(|o| o.record.seq == r.record.seq);
    let at = pos(anchor)?;
    let mut chain = Chain {
        spec,
        anchor: anchor.clone(),
        stages: Vec::with_capacity(spec.stages.len()),
    };
    for stage in spec.stages {
        let servers = match stage.join {
            Join::Servers(name) => chain.servers(name),
            _ => Vec::new(),
        };
        let joins = |r: &FleetRecord| match stage.join {
            Join::Any => true,
            Join::App => r.record.event.app() == anchor.record.event.app(),
            Join::Servers(_) => server_of(r).is_some_and(|s| servers.contains(&s)),
        };
        let wanted = |r: &FleetRecord| (stage.kind)(&r.record.event) && joins(r);
        let first = |name: Option<&str>| match name {
            None => Some(anchor),
            Some(name) => chain[name].first(),
        };
        let found: Vec<FleetRecord> = match stage.window {
            Window::Back { since, to } => {
                let hi = pos(first(to)?)?;
                let lo = match since {
                    Since::Start => 0,
                    Since::Reset(reset) => own[..hi]
                        .iter()
                        .rposition(|r| reset(&r.record.event) && joins(r))
                        .map_or(0, |i| i + 1),
                    Since::At(name) => pos(first(Some(name))?)?,
                };
                let hits: Vec<FleetRecord> = own[lo..hi]
                    .iter()
                    .filter(|r| wanted(r))
                    .map(|r| (*r).clone())
                    .collect();
                let skip = hits.len().saturating_sub(stage.max);
                hits.into_iter().skip(skip).collect()
            }
            Window::Streak => {
                let mut run: Vec<FleetRecord> = Vec::new();
                for r in own[..at].iter().rev().filter(|r| wanted(r)) {
                    let n = streak_of(&r.record.event);
                    if run
                        .last()
                        .is_some_and(|last| streak_of(&last.record.event) != n.map(|n| n + 1))
                    {
                        break;
                    }
                    run.push((*r).clone());
                    if n == Some(1) {
                        break;
                    }
                }
                run.reverse();
                run
            }
            Window::Forward { until } => own[at + 1..]
                .iter()
                .take_while(|r| until.is_none_or(|u| !u(&r.record.event)))
                .filter(|r| wanted(r))
                .take(stage.max)
                .map(|r| (*r).clone())
                .collect(),
            Window::During { from, to } => {
                let lo = first(Some(from))?.record.at.value();
                let hi = first(to)?.record.at.value();
                let mut hits: Vec<FleetRecord> = log
                    .iter()
                    .filter(|r| (lo..=hi).contains(&r.record.at.value()))
                    .filter(|r| wanted(r))
                    .cloned()
                    .collect();
                hits.sort_by_key(|r| (r.record.poll, r.server_id, r.record.seq));
                hits
            }
        };
        if found.len() < if preferred { stage.prefer } else { 0 }.max(stage.min) {
            return None;
        }
        chain.stages.push(found);
    }
    Some(chain)
}

/// Formats one record: source column (fleet logs only), sequence, poll,
/// sim time, epoch and event.
fn fmt_record(r: &FleetRecord, fleet: bool) -> String {
    let src = match (fleet, r.server_id) {
        (false, _) => String::new(),
        (true, MANAGER_SERVER_ID) => format!("{:>4}  ", "mgr"),
        (true, id) => format!("{:>4}  ", format!("s{id}")),
    };
    let rec = &r.record;
    format!(
        "{src}seq {:>5}  poll {:>4}  t {:>6.1}s  epoch {:>2}  {:?}",
        rec.seq,
        rec.poll,
        rec.at.value(),
        rec.epoch,
        rec.event
    )
}

/// Prints `chain`: the header, each stage's records in the spec's
/// print order (with its role label and overflow line), the verdict.
pub fn print(chain: &Chain) {
    let spec = chain.spec;
    println!("{}", (spec.header)(chain));
    for &name in spec.print {
        let (role, show, more) = match spec.stages.iter().find(|s| s.name == name) {
            Some(s) => (s.role, s.show, s.more),
            None => (spec.anchor.role, 1, None),
        };
        let records = &chain[name];
        for r in records.iter().take(show) {
            println!("  {:<8}{}", role.label(), fmt_record(r, spec.fleet));
        }
        if let Some(noun) = more.filter(|_| records.len() > show) {
            println!("  …       {} more {noun}", records.len() - show);
        }
    }
    println!("\nverdict: {}", (spec.verdict)(chain));
}

// ---------------------------------------------------------------------------
// The target table.
// ---------------------------------------------------------------------------

/// Every `doctor --explain` target, in `supported:` order.
pub static TARGETS: &[Spec] = &[
    Spec {
        target: "throttle",
        seed: ext_faults::SEED,
        replay: replay_throttle,
        fleet: false,
        missing: "over-cap -> safe-mode -> force-throttle chain in the journal",
        anchor: anchor!("throttle", Effect; ObsEvent::ForceThrottle { .. }),
        stages: &[
            stage!("engage", Decide, BEFORE, max = 1, min = 1;
                ObsEvent::SafeMode { transition: SafeModeTransition::Engaged }
                | ObsEvent::SafeMode { transition: SafeModeTransition::Escalated }),
            // Evidence since the previous release, where the watchdog's
            // breach counters reset.
            stage!("causes", Cause, Back { since: Reset(SAFE_MODE_RELEASED), to: Some("engage") };
                ObsEvent::Poll { over_cap: true, .. }
                | ObsEvent::SensorSuspect { .. }
                | ObsEvent::SensorFault { .. }),
        ],
        print: &["causes", "engage", "throttle"],
        header: |c| {
            let (app, causes) = (c.app(), c["causes"].len());
            format!("why was {app} force-throttled? ({causes} evidence records)")
        },
        verdict: |c| {
            let polls = c.count("causes", on!(ObsEvent::Poll { .. }));
            let (verdicts, poll) = (c["causes"].len() - polls, c["engage"][0].record.poll);
            format!(
                "{polls} over-cap poll(s) and {verdicts} sensor verdict(s) armed the watchdog; \
                 safe mode engaged at poll {poll} and force-throttled the app."
            )
        },
    },
    Spec {
        target: "sensor-fault",
        seed: ext_disagg::SEED,
        replay: replay_sensor_fault,
        fleet: false,
        missing: "residual-spike -> fallback -> E6 chain in the journal",
        anchor: anchor!("fallback", Decide; ObsEvent::FallbackCap { engaged: true, .. }),
        stages: &[
            stage!("fault", Effect, AFTER, max = 1, min = 1; ObsEvent::SensorFault { .. }),
            // Evidence since the previous release, where the ladder's
            // spike streak resets.
            stage!("causes", Cause, Back { since: Reset(FALLBACK_RELEASED), to: None };
                ObsEvent::ResidualSpike { .. } | ObsEvent::SensorSuspect { .. }),
            // Not printed: a fallback without a spike in its window would
            // be a bug, not an explanation.
            stage!("spikes", Cause, Back { since: Reset(FALLBACK_RELEASED), to: None }, min = 1,
                show = 0; ObsEvent::ResidualSpike { .. }),
        ],
        print: &["causes", "fallback", "fault"],
        header: |c| {
            let causes = c["causes"].len();
            format!("why did the estimation ladder latch an E6? ({causes} evidence records)")
        },
        verdict: |c| {
            let (spikes, poll) = (c["spikes"].len(), c.anchor.record.poll);
            format!(
                "{spikes} residual spike(s) exceeded the confidence band; the conservative \
                 fallback engaged at poll {poll} (planning cap shaved) and latched the E6 \
                 sensor fault."
            )
        },
    },
    Spec {
        target: "quarantine",
        seed: ext_adversary::SEED,
        replay: replay_quarantine,
        fleet: false,
        missing: "clamp-bound -> downgrade -> quarantine chain in the journal",
        anchor: anchor!("quarantine", Effect; ObsEvent::Quarantine { .. }),
        stages: &[
            stage!("downgrades", Decide, BEFORE, join = App, min = 1;
                ObsEvent::TrustDowngrade { .. }),
            stage!("evidence", Cause, BEFORE, join = App; ObsEvent::HeartbeatClampBound { .. }),
            stage!("fault", Effect, AFTER, join = App, max = 1; ObsEvent::IntegrityFault { .. }),
        ],
        print: &["evidence", "downgrades", "quarantine", "fault"],
        header: |c| {
            let (evidence, downgrades) = (c["evidence"].len(), c["downgrades"].len());
            format!(
                "why was {} quarantined? ({evidence} evidence records, {downgrades} downgrades)",
                c.app()
            )
        },
        verdict: |c| {
            let (evidence, downgrades) = (c["evidence"].len(), c["downgrades"].len());
            format!(
                "{evidence} physically implausible heartbeat claim(s) drove the trust score \
                 down through {downgrades} downgrade(s); the quarantine at poll {} fired the E7 \
                 integrity fault and clamped the app to its fair share.",
                c.anchor.record.poll
            )
        },
    },
    Spec {
        target: "slo-miss",
        seed: ext_traffic::SEED,
        replay: replay_slo_miss,
        fleet: false,
        missing: "spike -> plan -> missed-window chain in the journal",
        anchor: anchor!("verdict", Effect; ObsEvent::SloWindow { ok: false, .. }),
        stages: &[
            stage!("cap", Decide, BEFORE, max = 1; ObsEvent::CapChanged { .. }),
            stage!("plan", Decide, BEFORE, max = 1, min = 1; ObsEvent::Planned { .. }),
            stage!("shares", Decide, Back { since: At("plan"), to: None }, join = App;
                ObsEvent::Allocation { .. } | ObsEvent::ForceThrottle { .. }),
            // Spikes inside the failed window, which opened after the
            // app's previous verdict; a miss with one is preferred.
            stage!("spikes", Cause, Back { since: Reset(on!(ObsEvent::SloWindow { .. })), to: None },
                join = App, prefer = 1; ObsEvent::DemandSpike { .. }),
        ],
        print: &["spikes", "cap", "plan", "shares", "verdict"],
        header: |c| {
            let spikes = c["spikes"].len();
            let decisions = c["cap"].len() + c["plan"].len() + c["shares"].len();
            format!(
                "why did {} miss its SLO window? ({spikes} spike(s), {decisions} decision \
                 record(s))",
                c.app()
            )
        },
        verdict: |c| {
            let field = |stage: &str, value: fn(&ObsEvent) -> Option<String>| {
                c[stage].iter().find_map(|r| value(&r.record.event))
            };
            let watts = field("shares", |e| match e {
                ObsEvent::Allocation { watts, .. } => Some(format!("{watts:.1}")),
                _ => None,
            });
            let cap = field("cap", |e| match e {
                ObsEvent::CapChanged { cap_w } => Some(format!("{cap_w:.0}")),
                _ => None,
            });
            format!(
                "the plan in force allotted the app {} W under a {} W cap; {} demand spike(s) \
                 landed inside the window, and the window closed below target at poll {}.",
                watts.as_deref().unwrap_or("?"),
                cap.as_deref().unwrap_or("?"),
                c["spikes"].len(),
                c.anchor.record.poll
            )
        },
    },
    Spec {
        target: "breaker-trip",
        seed: ext_cluster_faults::SEED,
        replay: replay_breaker_trip,
        fleet: true,
        missing: "overdraw -> uplink -> breaker-arm -> clamp chain in the fleet timeline",
        anchor: anchor!("trip", Effect; ObsEvent::BreakerTrip { .. }),
        stages: &[
            stage!("armed", Decide, Streak, min = 1; ObsEvent::FleetOverBudget { .. }),
            stage!("overdraws", Cause, Back { since: At("armed"), to: None }, min = 1;
                ObsEvent::ServerOverdraw { .. }),
            // Matched by time, not seq: a step's uplinks are journalled
            // before its over-budget verdict.
            stage!("uplinks", Cause, During { from: "armed", to: None },
                join = Servers("overdraws"), min = 1, show = 2; ObsEvent::UplinkSent { .. }),
            stage!("polls", Cause, During { from: "armed", to: None },
                join = Servers("overdraws"), show = 4, more = Some("shipped poll(s)");
                ObsEvent::Poll { .. }),
            stage!("clamps", Effect, Forward { until: Some(on!(ObsEvent::BreakerRelease)) },
                min = 1, show = 3, more = Some("clamp(s)"); ObsEvent::EmergencyClamp { .. }),
            stage!("release", Release, AFTER, max = 1; ObsEvent::BreakerRelease),
        ],
        print: &[
            "polls",
            "uplinks",
            "overdraws",
            "armed",
            "trip",
            "clamps",
            "release",
        ],
        header: |c| {
            let (servers, armed) = (c.servers("overdraws"), c["armed"].len());
            let (overdraws, uplinks) = (c["overdraws"].len(), c["uplinks"].len());
            format!(
                "why did the facility breaker trip? (servers {servers:?} overdrew their \
                 intended shares; {armed} arming steps, {overdraws} overdraw attributions, \
                 {uplinks} uplinks, {} shipped polls)",
                c["polls"].len()
            )
        },
        verdict: |c| {
            let (servers, armed) = (c.servers("overdraws"), c["armed"].len());
            format!(
                "server(s) {servers:?} reported draws above the shares the manager intended \
                 (stale caps on a lossy plane); their uplinked telemetry armed the breaker \
                 over {armed} consecutive over-budget step(s), and the trip clamped {} \
                 server(s) to the floor.",
                c["clamps"].len()
            )
        },
    },
    Spec {
        target: "fallback-cap",
        seed: ext_cluster_faults::SEED,
        replay: replay_fallback_cap,
        fleet: true,
        missing: "missed-downlink -> fallback-engage -> decay -> release chain in the timeline",
        anchor: anchor!("engage", Decide; ObsEvent::FallbackEngage { .. }),
        stages: &[
            stage!("missed", Cause, Streak, min = 1, show = 4, more = Some("missed heartbeat(s)");
                ObsEvent::HeartbeatMissed { .. }),
            // Episodes that decayed are preferred over ones that engaged
            // already at the floor.
            stage!("decays", Effect, Forward { until: Some(on!(ObsEvent::FallbackRelease { .. }
                | ObsEvent::FallbackEngage { .. })) }, prefer = 1, show = 4,
                more = Some("decay step(s)"); ObsEvent::FallbackDecay { .. }),
            // An episode that never released (the node crashed
            // mid-fallback) does not chain.
            stage!("release", Release, Forward { until: Some(on!(ObsEvent::FallbackEngage { .. })) },
                max = 1, min = 1; ObsEvent::FallbackRelease { .. }),
            // Manager-side evidence the silence was the network.
            stage!("losses", Cause, During { from: "missed", to: Some("release") },
                join = Servers("engage"), show = 3, more = Some("endpoint loss(es)");
                ObsEvent::EndpointLoss { .. }),
        ],
        print: &["losses", "missed", "engage", "decays", "release"],
        header: |c| {
            let (server, missed) = (c.anchor.server_id, c["missed"].len());
            let (losses, decays) = (c["losses"].len(), c["decays"].len());
            format!(
                "why did server {server} cap itself? ({missed} missed heartbeats, {losses} \
                 manager-side endpoint losses, {decays} decay steps)"
            )
        },
        verdict: |c| {
            let (server, missed) = (c.anchor.server_id, c["missed"].len());
            format!(
                "{missed} consecutive downlink silences engaged server {server}'s conservative \
                 local fallback; it decayed its cap {} step(s) toward the idle floor until a \
                 fresh downlink released it on rejoin — the partitioned node throttled itself \
                 rather than free-run on a stale cap.",
                c["decays"].len()
            )
        },
    },
];

/// Own journal up to the anchor, from the start of retained history.
const BEFORE: Window = Back {
    since: Start,
    to: None,
};

/// Own journal after the anchor, to its end.
const AFTER: Window = Forward { until: None };

/// The watchdog's release: where its breach counters reset.
const SAFE_MODE_RELEASED: Kind = on!(ObsEvent::SafeMode {
    transition: SafeModeTransition::Released
});

/// The confidence fallback's release: where its spike streak resets.
const FALLBACK_RELEASED: Kind = on!(ObsEvent::FallbackCap { engaged: false, .. });

// ---------------------------------------------------------------------------
// Reference replays: each prints its banner and returns the log.
// ---------------------------------------------------------------------------

/// Prints the replay banner for a single-server reference run.
fn banner(label: &str, duration: Seconds, seed: u64, mode: &str) {
    let secs = duration.value();
    println!(
        "doctor: replaying {label:?} for {secs} s (seed {seed:#x}, {mode}, flight recorder on)"
    );
}

/// Prints the journal census line, ending with `detail`, and returns
/// the journal as a log.
fn journal_replay(obs: &Obs, detail: String, focus: Option<String>) -> Replay {
    let (retained, evicted, total) = obs.journal_counts();
    println!("journal: {retained} records retained ({evicted} evicted of {total}); {detail}\n");
    Replay {
        log: journal_log(&obs.journal_snapshot()),
        focus,
    }
}

fn replay_throttle(seed: u64, app: Option<&str>) -> Replay {
    let mix = ext_faults::reference_mix();
    // `--app` takes an app name or a 1-based index into the mix.
    let focus = app.map(|v| match v.parse::<usize>() {
        Ok(i) if i >= 1 && i <= mix.apps().len() => mix.apps()[i - 1].name().to_string(),
        _ => v.to_string(),
    });
    let (scenario, duration) = (
        ext_obs::reference_scenario(seed),
        ext_faults::SCENARIO_DURATION,
    );
    banner(scenario.label, duration, seed, "hardened");
    let run = ext_obs::run_observed(&scenario, &mix, duration, ObsConfig::default());
    let inside = if run.safe_mode { "inside" } else { "outside" };
    journal_replay(&run.obs, format!("run ended {inside} safe mode"), focus)
}

fn replay_sensor_fault(seed: u64, _app: Option<&str>) -> Replay {
    let (scenario, duration) = (
        ext_disagg::doctor_scenario(seed),
        ext_faults::SCENARIO_DURATION,
    );
    banner(scenario.label, duration, seed, "estimated power");
    let mix = ext_faults::reference_mix();
    let run = ext_disagg::run_observed(&scenario, &mix, duration, ObsConfig::default());
    let est = &run.outcome.estimation;
    let detail = format!(
        "{} residual spike(s), {} fallback engagement(s), {} escalation(s)",
        est.residual_spikes, est.fallback_engagements, est.escalations,
    );
    journal_replay(&run.obs, detail, None)
}

fn replay_quarantine(seed: u64, _app: Option<&str>) -> Replay {
    let scenario = ext_adversary::doctor_scenario(seed);
    let duration = ext_adversary::SCENARIO_DURATION;
    banner(scenario.label, duration, seed, "integrity defense on");
    let run = ext_adversary::run_observed(&scenario, duration, ObsConfig::default());
    let out = &run.outcome;
    let detail = format!(
        "{} knob(s) defied, {} implausible poll(s), {} downgrade(s), {} quarantine(s), \
         {:.1} W clawed back",
        out.adversary.knobs_defied,
        out.trust.implausible_polls,
        out.trust.downgrades,
        out.trust.quarantines,
        out.debt_repaid_w,
    );
    journal_replay(&run.obs, detail, None)
}

fn replay_slo_miss(seed: u64, _app: Option<&str>) -> Replay {
    let scenario = ext_traffic::doctor_scenario(seed);
    banner(&scenario.label, ext_traffic::DAY, seed, "mediated fleet");
    let run = ext_traffic::run_observed(&scenario, ext_traffic::DAY, ObsConfig::default());
    let detail = format!(
        "observed server {} of {}: fleet attainment {:.1}%, {} window(s) missed",
        run.observed_server + 1,
        ext_traffic::sku_mixes()[scenario.sku].specs.len(),
        run.outcome.attainment * 100.0,
        run.outcome.windows_missed,
    );
    journal_replay(&run.obs, detail, None)
}

/// Prints the banner for replaying `fleet` (a description ending where
/// the duration starts), runs the reference fleet flight-recorded,
/// prints the timeline census line ending with `detail`, and returns
/// the merged timeline as a log.
fn fleet_replay(
    fleet: &str,
    seed: u64,
    faults: ClusterFaultConfig,
    resilient: bool,
    detail: fn(&ResilienceReport) -> String,
) -> Replay {
    let (servers, duration) = (ext_cluster_faults::SERVERS, ext_cluster_faults::DURATION);
    println!(
        "doctor: replaying {fleet} for {} s (seed {seed:#x}, {servers} servers, journals \
         shipped over the control plane)",
        duration.value()
    );
    let options = FleetObsOptions::default();
    let report = ext_obs::run_fleet_observed(&faults, resilient, servers, duration, &options);
    let fleet = report.fleet.as_ref().expect("fleet recording enabled");
    println!(
        "fleet timeline: {} records merged from {} journals ({} digest bytes shipped, \
         {} dedup, {} gaps); {}\n",
        fleet.timeline.len(),
        1 + fleet.server_obs.len(),
        fleet.digest_bytes_total,
        fleet.timeline.dedup_total(),
        fleet.digest_gaps,
        detail(&report),
    );
    Replay {
        log: fleet.timeline.iter().cloned().collect(),
        focus: None,
    }
}

fn replay_breaker_trip(seed: u64, _app: Option<&str>) -> Replay {
    let faults = ext_obs::fleet_scenario(seed);
    let fleet = "the naive fleet on \"reference: churn + lossy\"";
    fleet_replay(fleet, seed, faults, false, |r| {
        format!("{} breaker trip(s)", r.stats.breaker_trips)
    })
}

fn replay_fallback_cap(seed: u64, _app: Option<&str>) -> Replay {
    let faults = ext_obs::fleet_doctor_scenario(seed);
    let fleet = "the resilient fleet on the lossy plane with server 2 partitioned 60-180 s,";
    fleet_replay(fleet, seed, faults, true, |r| {
        let s = &r.stats;
        format!(
            "{} fallback engagement(s), {} rejoin(s)",
            s.fallback_engagements, s.rejoins
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_refer_only_to_earlier_stages_and_print_each_once() {
        let mut targets: Vec<&str> = TARGETS.iter().map(|s| s.target).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), TARGETS.len(), "target names are unique");
        for spec in TARGETS {
            let mut known = vec![spec.anchor.name];
            for stage in spec.stages {
                let mut refs: Vec<Option<&str>> = match stage.window {
                    Back {
                        since: At(name),
                        to,
                    } => vec![Some(name), to],
                    Back { to, .. } => vec![to],
                    During { from, to } => vec![Some(from), to],
                    Streak | Forward { .. } => Vec::new(),
                };
                if let Servers(name) = stage.join {
                    refs.push(Some(name));
                }
                for name in refs.into_iter().flatten() {
                    assert!(known.contains(&name), "{}: {name} unknown", spec.target);
                }
                assert!(!known.contains(&stage.name), "{}: duplicate", spec.target);
                known.push(stage.name);
            }
            let mut printed = spec.print.to_vec();
            printed.sort_unstable();
            known.retain(|name| spec.stages.iter().all(|s| s.name != *name || s.show > 0));
            known.sort_unstable();
            assert_eq!(
                printed, known,
                "{}: print lists every stage once",
                spec.target
            );
        }
    }
}
