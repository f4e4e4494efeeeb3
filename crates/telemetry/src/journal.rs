//! Flight-recorder event journal with causal ids.
//!
//! The figure-oriented [`crate::recorder::TraceRecorder`] stores
//! *signals*; this module stores *decisions*. Every consequential step
//! the mediator, simulator or cluster control plane takes — an
//! allocation installed, an E1–E6 event handled, a safe-mode
//! escalation, a probe skipped, a knob write retried, an uplink
//! dropped — is appended to a bounded ring buffer as a structured
//! [`ObsEvent`] stamped with simulation time and three causal ids:
//! the poll sequence number, the app name (when one is involved) and
//! the control-plane epoch. A post-mortem tool (`doctor`) can then walk
//! the journal backward from an effect (a force-throttle) to its causes
//! (the over-cap polls and sensor verdicts that armed the watchdog).
//!
//! The whole plane hangs off an `Option<`[`Obs`]`>` in each producer:
//! when the option is `None` (the default everywhere) no journal, no
//! registry and no lock exist and every emission site is a skipped
//! `if let` — the zero-cost-off property the bit-identical figure
//! checks in CI enforce.

use crate::metrics::{prom_label, Histogram, MetricsRegistry};
use powermed_units::Seconds;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// What a knob write attempt came to, as seen by the hardened mediator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobWriteVerdict {
    /// The write landed and read-back verified it on the first try.
    Landed,
    /// The write did not verify; a retry was scheduled.
    Deferred,
    /// A scheduled retry landed and verified.
    RetryLanded,
    /// The retry budget ran out; the fault was escalated as E5.
    RetryExhausted,
}

/// A safe-mode state change in the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeModeTransition {
    /// The watchdog engaged: all apps forced to their floor knobs.
    Engaged,
    /// Observed power stayed under the cap long enough to release.
    Released,
    /// Still over cap after the patience budget: apps suspended.
    Escalated,
}

/// One structured decision record.
///
/// Variants mirror the runtime's decision points one-to-one; the
/// [`ObsEvent::kind`] string doubles as the per-kind counter label in
/// the metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// One accounting poll: allocation out, net power in, the observed
    /// channel's reading, the active cap, and whether the observed
    /// reading violated the cap (the signal the watchdog feeds on).
    Poll {
        /// Total power currently allocated to apps, in watts.
        alloc_w: f64,
        /// True net draw this poll, in watts.
        net_w: f64,
        /// What the (possibly faulty) sensor channel reported.
        observed_w: Option<f64>,
        /// The active power cap, in watts.
        cap_w: f64,
        /// Whether the *observed* reading exceeded the cap.
        over_cap: bool,
    },
    /// A plan was computed and a schedule installed.
    Planned {
        /// Number of apps covered by the new schedule.
        apps: usize,
        /// Schedule shape (`"space"`, `"alternate"`, `"hybrid"`, …).
        mode: &'static str,
    },
    /// One app's power share under the freshly installed schedule.
    Allocation {
        /// The app receiving the share.
        app: String,
        /// Allocated watts.
        watts: f64,
    },
    /// E1: the cap changed.
    CapChanged {
        /// The new cap, in watts.
        cap_w: f64,
    },
    /// E2: an app arrived.
    Arrival {
        /// The arriving app.
        app: String,
    },
    /// E3: an app departed.
    Departure {
        /// The departing app.
        app: String,
    },
    /// E4: an app's performance drifted off its profile.
    Drift {
        /// The drifting app.
        app: String,
    },
    /// E5: a knob write was lost (actuation fault).
    ActuationFault {
        /// The app whose knob write failed.
        app: String,
    },
    /// E6: the power sensor was declared untrustworthy.
    SensorFault {
        /// The latched diagnosis (e.g. `"3 consecutive dropouts"`).
        what: String,
    },
    /// Sensor health counters crossed zero but have not latched yet.
    SensorSuspect {
        /// Consecutive dropout count so far.
        dropouts: u32,
        /// Consecutive stuck-reading count so far.
        stuck: u32,
    },
    /// The estimated-power residual (meter vs model prediction) spiked
    /// past the confidence band — one poll of evidence toward the
    /// estimation degradation ladder.
    ResidualSpike {
        /// Meter minus model-predicted net, in watts.
        residual_w: f64,
        /// One-sigma confidence band on the total at that poll.
        band_w: f64,
        /// Consecutive spike polls so far (including this one).
        streak: u32,
    },
    /// The estimation layer's conservative fallback cap changed state:
    /// engaged (planning cap shaved by the confidence band) or
    /// released (residual stayed clean long enough).
    FallbackCap {
        /// Watts shaved off the planning cap (0 on release).
        shave_w: f64,
        /// `true` on engage, `false` on release.
        engaged: bool,
    },
    /// A calibration decision for one admission.
    Probe {
        /// The app being calibrated.
        app: String,
        /// Grid points probed cold (measured on the platform).
        cold: usize,
        /// Grid points warm-started from a stored profile.
        warm: usize,
        /// Grid points skipped entirely thanks to prior knowledge.
        skipped: usize,
    },
    /// A verified knob write (or its failure).
    KnobWrite {
        /// The app whose knob was written.
        app: String,
        /// How the write fared.
        verdict: KnobWriteVerdict,
        /// Attempts consumed so far, including the original write.
        attempts: u32,
    },
    /// The safe-mode watchdog changed state.
    SafeMode {
        /// The transition taken.
        transition: SafeModeTransition,
    },
    /// Safe mode forced one app to its floor setting.
    ForceThrottle {
        /// The throttled app.
        app: String,
    },
    /// A profile version was published to the knowledge plane.
    StorePublish {
        /// The profiled app.
        app: String,
        /// Version number published.
        version: u64,
    },
    /// A profile was invalidated (tombstoned) fleet-wide.
    StoreTombstone {
        /// The invalidated app.
        app: String,
        /// Version number of the tombstone.
        version: u64,
    },
    /// The manager broadcast a downlink to one server.
    DownlinkSent {
        /// Destination server index.
        server: usize,
        /// Control-plane epoch carried by the frame.
        epoch: u64,
        /// Cap assignment carried by the frame, in watts.
        cap_w: f64,
        /// Whether this was a repair (re-send after suspected loss).
        repair: bool,
    },
    /// A server sent its periodic uplink report.
    UplinkSent {
        /// Source server index.
        server: usize,
        /// Control-plane step the report was sent at.
        step: u64,
    },
    /// A control-plane frame was dropped by the lossy network.
    LinkDropped {
        /// The server whose link dropped the frame.
        server: usize,
        /// `true` for uplink (server→manager), `false` for downlink.
        uplink: bool,
    },
    /// A control-plane frame was delayed in flight.
    LinkDelayed {
        /// The server whose link delayed the frame.
        server: usize,
        /// `true` for uplink (server→manager), `false` for downlink.
        uplink: bool,
        /// Delay, in control-plane steps.
        steps: u64,
    },
    /// A server lost both link directions (endpoint outage).
    EndpointLoss {
        /// The partitioned server.
        server: usize,
    },
    /// A server crashed.
    NodeCrash {
        /// The crashed server.
        server: usize,
    },
    /// A crashed server restarted.
    NodeRestart {
        /// The restarted server.
        server: usize,
    },
    /// The manager crashed.
    ManagerCrash,
    /// A standby manager took over from a checkpoint.
    ManagerTakeover,
    /// An app's claimed heartbeat ratio hit the estimator's clamp
    /// bound — mild evidence its self-reports disagree with physics.
    HeartbeatClampBound {
        /// The app whose claim was clamped.
        app: String,
        /// The raw (pre-clamp) claimed-over-expected heartbeat ratio.
        ratio: f64,
    },
    /// The integrity layer lowered an app's trust score.
    TrustDowngrade {
        /// The downgraded app.
        app: String,
        /// The trust score after the downgrade, in `[0, 1]`.
        score: f64,
    },
    /// E7: an app crossed the quarantine threshold and was clamped to
    /// its fair share with profile-only estimation.
    Quarantine {
        /// The quarantined app.
        app: String,
        /// The dominant evidence stream (e.g. `"implausible heartbeat"`).
        cause: String,
    },
    /// The watt-debt ledger clawed back overdrawn watts from an app's
    /// allocation so honest apps are made whole.
    Clawback {
        /// The app repaying its debt.
        app: String,
        /// Watts withheld from the allocation this plan.
        w: f64,
    },
    /// E7 surfaced through the accountant (one per quarantine episode).
    IntegrityFault {
        /// The offending app.
        app: String,
    },
    /// The traffic source's offered load jumped to a multiple of its
    /// diurnal baseline (a flash crowd; edge-triggered per burst).
    DemandSpike {
        /// The app whose offered load spiked.
        app: String,
        /// Offered-over-baseline rate multiplier at burst onset.
        ratio: f64,
    },
    /// An SLO accounting window closed with this verdict.
    SloWindow {
        /// The app the window scored.
        app: String,
        /// Fraction of the window's completed requests that met the
        /// latency budget.
        attainment: f64,
        /// Whether attainment met the configured target.
        ok: bool,
    },
    /// The bounded journal ring overwrote records that were never
    /// shipped in a digest: the fleet timeline has a hole of `dropped`
    /// events starting at this record's own `seq`. Synthesized at
    /// digest-extraction time (never stored in the ring, which would
    /// recurse at capacity 1) and regenerated identically on every
    /// re-ship, so the idempotent fleet merge dedups it for free.
    DigestGap {
        /// Unshipped records lost to the wraparound.
        dropped: u64,
    },
    /// Manager-side: one control step of aggregate net draw over the
    /// cluster budget while the facility breaker arms.
    FleetOverBudget {
        /// Aggregate net draw that step, in watts.
        net_w: f64,
        /// The cluster budget in force, in watts.
        budget_w: f64,
        /// Consecutive violating steps so far (including this one).
        streak: u64,
    },
    /// Manager-side: during an over-budget step, one server's reported
    /// draw exceeded the share the manager intended for it — the
    /// per-server attribution of a breaker arm (a naive server obeying a
    /// stale cap is over the manager's *intended* share, not its own).
    ServerOverdraw {
        /// The overdrawing server.
        server: usize,
        /// Its reported net draw, in watts.
        net_w: f64,
        /// The share the manager intended for it, in watts.
        share_w: f64,
    },
    /// The facility breaker tripped: every up server is clamped to the
    /// floor for the hold window.
    BreakerTrip {
        /// Steps the emergency clamp stays in force.
        hold_steps: u64,
        /// The clamp floor, in watts.
        floor_w: f64,
    },
    /// The breaker's hold expired and pre-trip caps were restored.
    BreakerRelease,
    /// The fleet clamp landed on one server (breaker floor applied).
    EmergencyClamp {
        /// The clamped server.
        server: usize,
    },
    /// Agent-side: one heartbeat interval elapsed with no downlink.
    HeartbeatMissed {
        /// Consecutive missed intervals so far (including this one).
        misses: u64,
    },
    /// Agent-side: downlink silence engaged the conservative local
    /// fallback cap (see [`crate::journal::ObsEvent::FallbackCap`] for
    /// the unrelated estimation-ladder cap shave).
    FallbackEngage {
        /// The cap the fallback engaged on (the last acked share), in
        /// watts.
        cap_w: f64,
    },
    /// Agent-side: the engaged fallback decayed the local cap one step
    /// toward the idle floor.
    FallbackDecay {
        /// The cap after the decay step, in watts.
        cap_w: f64,
    },
    /// Agent-side: a fresh downlink released the fallback cap (the
    /// partitioned node rejoined).
    FallbackRelease {
        /// The manager's cap that replaced the fallback, in watts.
        cap_w: f64,
    },
}

impl ObsEvent {
    /// Stable snake_case tag for this event, used as the `kind` label
    /// on the per-kind event counter and in `doctor` output.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Poll { .. } => "poll",
            ObsEvent::Planned { .. } => "planned",
            ObsEvent::Allocation { .. } => "allocation",
            ObsEvent::CapChanged { .. } => "cap_changed",
            ObsEvent::Arrival { .. } => "arrival",
            ObsEvent::Departure { .. } => "departure",
            ObsEvent::Drift { .. } => "drift",
            ObsEvent::ActuationFault { .. } => "actuation_fault",
            ObsEvent::SensorFault { .. } => "sensor_fault",
            ObsEvent::SensorSuspect { .. } => "sensor_suspect",
            ObsEvent::ResidualSpike { .. } => "residual_spike",
            ObsEvent::FallbackCap { .. } => "fallback_cap",
            ObsEvent::Probe { .. } => "probe",
            ObsEvent::KnobWrite { .. } => "knob_write",
            ObsEvent::SafeMode { .. } => "safe_mode",
            ObsEvent::ForceThrottle { .. } => "force_throttle",
            ObsEvent::StorePublish { .. } => "store_publish",
            ObsEvent::StoreTombstone { .. } => "store_tombstone",
            ObsEvent::DownlinkSent { .. } => "downlink_sent",
            ObsEvent::UplinkSent { .. } => "uplink_sent",
            ObsEvent::LinkDropped { .. } => "link_dropped",
            ObsEvent::LinkDelayed { .. } => "link_delayed",
            ObsEvent::EndpointLoss { .. } => "endpoint_loss",
            ObsEvent::NodeCrash { .. } => "node_crash",
            ObsEvent::NodeRestart { .. } => "node_restart",
            ObsEvent::ManagerCrash => "manager_crash",
            ObsEvent::ManagerTakeover => "manager_takeover",
            ObsEvent::HeartbeatClampBound { .. } => "heartbeat_clamp_bound",
            ObsEvent::TrustDowngrade { .. } => "trust_downgrade",
            ObsEvent::Quarantine { .. } => "quarantine",
            ObsEvent::Clawback { .. } => "clawback",
            ObsEvent::IntegrityFault { .. } => "integrity_fault",
            ObsEvent::DemandSpike { .. } => "demand_spike",
            ObsEvent::SloWindow { .. } => "slo_window",
            ObsEvent::DigestGap { .. } => "digest_gap",
            ObsEvent::FleetOverBudget { .. } => "fleet_over_budget",
            ObsEvent::ServerOverdraw { .. } => "server_overdraw",
            ObsEvent::BreakerTrip { .. } => "breaker_trip",
            ObsEvent::BreakerRelease => "breaker_release",
            ObsEvent::EmergencyClamp { .. } => "emergency_clamp",
            ObsEvent::HeartbeatMissed { .. } => "heartbeat_missed",
            ObsEvent::FallbackEngage { .. } => "fallback_engage",
            ObsEvent::FallbackDecay { .. } => "fallback_decay",
            ObsEvent::FallbackRelease { .. } => "fallback_release",
        }
    }

    /// The app this event concerns, when it concerns exactly one.
    pub fn app(&self) -> Option<&str> {
        match self {
            ObsEvent::Allocation { app, .. }
            | ObsEvent::Arrival { app }
            | ObsEvent::Departure { app }
            | ObsEvent::Drift { app }
            | ObsEvent::ActuationFault { app }
            | ObsEvent::Probe { app, .. }
            | ObsEvent::KnobWrite { app, .. }
            | ObsEvent::ForceThrottle { app }
            | ObsEvent::StorePublish { app, .. }
            | ObsEvent::StoreTombstone { app, .. }
            | ObsEvent::HeartbeatClampBound { app, .. }
            | ObsEvent::TrustDowngrade { app, .. }
            | ObsEvent::Quarantine { app, .. }
            | ObsEvent::Clawback { app, .. }
            | ObsEvent::IntegrityFault { app }
            | ObsEvent::DemandSpike { app, .. }
            | ObsEvent::SloWindow { app, .. } => Some(app),
            _ => None,
        }
    }
}

/// A journal entry: an [`ObsEvent`] plus its causal coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone sequence number, never reused even across eviction.
    pub seq: u64,
    /// Simulation time the event was emitted at.
    pub at: Seconds,
    /// Poll sequence number active when the event fired (0 before the
    /// first poll).
    pub poll: u64,
    /// Control-plane epoch active when the event fired (0 for a
    /// standalone server).
    pub epoch: u64,
    /// The decision itself.
    pub event: ObsEvent,
}

/// A bounded ring buffer of [`EventRecord`]s.
///
/// When full, the oldest record is evicted to admit the newest — the
/// flight-recorder discipline: recent history is always present,
/// ancient history is summarized by the metrics registry's counters. A
/// capacity of zero stores nothing (every record counts as evicted),
/// which keeps an attached-but-journalless configuration legal.
#[derive(Debug, Clone, Default)]
pub struct EventJournal {
    capacity: usize,
    ring: VecDeque<EventRecord>,
    /// Wire cost of the oldest `costs.len()` retained records, filled
    /// by [`EventJournal::digest_since`] the first time a digest reaches
    /// a record and popped with it on eviction. Emitting never pays for
    /// it: a journal that never ships never encodes.
    costs: VecDeque<u32>,
    next_seq: u64,
    evicted: u64,
}

/// Equality is over the recorded history; the memoized wire costs are
/// a cache and do not take part.
impl PartialEq for EventJournal {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.ring == other.ring
            && self.next_seq == other.next_seq
            && self.evicted == other.evicted
    }
}

impl EventJournal {
    /// Creates an empty journal holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            // Reserve lazily for large capacities: a journal attached to
            // a short smoke run should not pre-commit 64 Ki slots.
            ring: VecDeque::new(),
            costs: VecDeque::new(),
            next_seq: 0,
            evicted: 0,
        }
    }

    /// Appends an event, assigning the next sequence number. Returns
    /// the sequence number assigned.
    pub fn record(&mut self, at: Seconds, poll: u64, epoch: u64, event: ObsEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return seq;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.costs.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(EventRecord {
            seq,
            at,
            poll,
            epoch,
            event,
        });
        seq
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted (or dropped, at capacity zero) so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total records ever appended (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Iterates the retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.ring.iter()
    }

    /// The most recent record, if any.
    pub fn latest(&self) -> Option<&EventRecord> {
        self.ring.back()
    }

    /// Extracts a bounded delta digest of everything recorded since the
    /// receiver's watermark `since` (the first unacknowledged sequence
    /// number).
    ///
    /// Entries are contiguous and oldest-first, so acknowledging
    /// [`JournalDigest::ack_to`] never skips an unshipped record. The
    /// digest is size-capped at roughly `max_bytes` of deterministic
    /// encoding — a digest must survive a lossy link as one frame — with
    /// two carve-outs: the first record always ships even when it alone
    /// exceeds the budget (progress beats the cap), and everything past
    /// the budget is counted in [`JournalDigest::truncated`] and left
    /// for the next wave. When the ring wrapped past unshipped records,
    /// the digest leads with a synthesized [`ObsEvent::DigestGap`]
    /// carrying the dropped count, stamped with the oldest survivor's
    /// coordinates so every re-ship regenerates the identical gap record
    /// and the idempotent fleet merge dedups it.
    ///
    /// The cost is O(records shipped): ring seqs are contiguous, so the
    /// watermark's record sits at a fixed offset from the oldest one,
    /// and each record's wire cost is computed once, the first time a
    /// digest reaches it.
    pub fn digest_since(&mut self, server_id: u64, since: u64, max_bytes: usize) -> JournalDigest {
        let oldest_retained = self.ring.front().map_or(self.next_seq, |r| r.seq);
        let resume_at = oldest_retained.max(since);
        let dropped = resume_at - since;
        let wrapped = dropped > 0;
        let mut entries = Vec::new();
        let mut bytes = DIGEST_HEADER_BYTES;
        if wrapped {
            let (at, poll, epoch) = self
                .ring
                .front()
                .map_or((Seconds::ZERO, 0, 0), |r| (r.at, r.poll, r.epoch));
            let gap = EventRecord {
                seq: since,
                at,
                poll,
                epoch,
                event: ObsEvent::DigestGap { dropped },
            };
            bytes += encoded_cost(&gap);
            entries.push(gap);
        }
        // A watermark past the newest record resumes at the ring's end.
        let start = usize::try_from(resume_at - oldest_retained)
            .map_or(self.ring.len(), |offset| offset.min(self.ring.len()));
        let pending = self.ring.len() - start;
        let mut shipped = 0;
        for idx in start..self.ring.len() {
            let cost = self.cost_at(idx);
            // The delta must stay contiguous: once one record is over
            // budget, everything after it waits too.
            if bytes + cost > max_bytes && !entries.is_empty() {
                break;
            }
            bytes += cost;
            entries.push(self.ring[idx].clone());
            shipped += 1;
        }
        JournalDigest {
            server_id,
            since,
            entries,
            wrapped,
            dropped,
            truncated: (pending - shipped) as u64,
            bytes: bytes as u64,
        }
    }

    /// The wire cost of the retained record at ring index `idx`,
    /// memoizing it (and any uncosted record before it) on first use.
    fn cost_at(&mut self, idx: usize) -> usize {
        while self.costs.len() <= idx {
            let cost = encoded_cost(&self.ring[self.costs.len()]);
            self.costs
                .push_back(u32::try_from(cost).expect("a record encodes in under 4 GiB"));
        }
        self.costs[idx] as usize
    }
}

/// Fixed per-digest overhead charged by [`JournalDigest::bytes`]
/// (server id, watermark, flags) on top of the per-record encoding cost.
const DIGEST_HEADER_BYTES: usize = 32;

/// Deterministic wire-size estimate of one record: the length of its
/// `Debug` encoding, which is also what [`Obs::digest`] folds — so the
/// byte cap and the determinism fingerprint agree on what a record is.
/// Counted through a sink, so no string is built.
fn encoded_cost(rec: &EventRecord) -> usize {
    struct ByteCount(usize);
    impl std::fmt::Write for ByteCount {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = ByteCount(0);
    write!(count, "{rec:?}").expect("counting bytes cannot fail");
    count.0
}

/// Reserved `server_id` under which a manager merges its own journal
/// (including the control plane's mirrored fault events) into a
/// [`FleetTimeline`].
pub const MANAGER_SERVER_ID: u64 = u64::MAX;

/// A bounded delta of one server's journal, shipped over the control
/// plane (see [`EventJournal::digest_since`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDigest {
    /// The shipping server's fleet-wide id.
    pub server_id: u64,
    /// The watermark this digest is a delta against: the first sequence
    /// number the receiver had not acknowledged.
    pub since: u64,
    /// Records with `seq >= since`, contiguous and oldest-first. When
    /// the ring wrapped past unshipped records the first entry is a
    /// synthesized [`ObsEvent::DigestGap`].
    pub entries: Vec<EventRecord>,
    /// True when the ring overwrote records in `since..` before they
    /// could ship — the blind spot the gap entry marks.
    pub wrapped: bool,
    /// Unshipped records lost to the wraparound.
    pub dropped: u64,
    /// Records past the byte budget, left for the next wave.
    pub truncated: u64,
    /// Deterministic wire-size estimate of this digest.
    pub bytes: u64,
}

impl JournalDigest {
    /// The watermark the receiver should advance to after merging: one
    /// past the newest record shipped, or past the wraparound hole when
    /// nothing beyond it fit. Acknowledging this is safe because entries
    /// are contiguous — nothing below it remains unshipped.
    pub fn ack_to(&self) -> u64 {
        let past_hole = if self.wrapped {
            self.since + self.dropped
        } else {
            self.since
        };
        self.entries
            .iter()
            .map(|r| r.seq + 1)
            .fold(past_hole, u64::max)
    }

    /// True when the digest carries nothing (no new records, no gap).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One entry in a merged fleet timeline: a journal record plus the
/// server it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecord {
    /// The originating server ([`MANAGER_SERVER_ID`] for the manager's
    /// own journal).
    pub server_id: u64,
    /// The journal record.
    pub record: EventRecord,
}

/// The total order a [`FleetTimeline`] merges under:
/// `(epoch, poll_seq, server_id, seq)`.
pub type FleetKey = (u64, u64, u64, u64);

/// The manager's merged, queryable view of every journal in the fleet.
///
/// Records land keyed by `(epoch, poll_seq, server_id, seq)`, so the
/// merge is insert-if-absent over a total order: commutative and
/// idempotent by construction. That is what makes the shipping protocol
/// trivially robust — agents re-ship their entire unacknowledged
/// backlog every wave, and duplication under retry, reorder, or delayed
/// delivery costs nothing but a dedup counter bump. Same-seed runs
/// produce byte-identical timelines (the `ext_obs` fleet smoke
/// enforces it).
///
/// The timeline also remembers the order records were admitted in, so a
/// checkpoint is a [`TimelineMark`] (two counters) rather than a copy,
/// and [`FleetTimeline::rollback`] undoes everything merged since.
#[derive(Debug, Clone, Default)]
pub struct FleetTimeline {
    entries: BTreeMap<FleetKey, FleetRecord>,
    /// Every key in `entries`, in admission order.
    log: Vec<FleetKey>,
    deduped: u64,
}

/// Equality and [`FleetTimeline::digest`] see the merged content and the
/// dedup count, never the admission order.
impl PartialEq for FleetTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.deduped == other.deduped
    }
}

/// A point in a [`FleetTimeline`]'s merge history (see
/// [`FleetTimeline::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineMark {
    len: usize,
    deduped: u64,
}

impl FleetTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The merge key of `record` as shipped by `server_id`.
    pub fn key(server_id: u64, record: &EventRecord) -> FleetKey {
        (record.epoch, record.poll, server_id, record.seq)
    }

    /// Inserts one record if its key is absent. Returns whether it was
    /// added (false = dedup).
    pub fn insert(&mut self, server_id: u64, record: EventRecord) -> bool {
        self.admit(Self::key(server_id, &record), || FleetRecord {
            server_id,
            record,
        })
    }

    /// Admits the entry `make` builds under `key` if the key is absent,
    /// so a duplicate costs a lookup and never a copy.
    fn admit(&mut self, key: FleetKey, make: impl FnOnce() -> FleetRecord) -> bool {
        match self.entries.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(make());
                self.log.push(key);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => {
                self.deduped += 1;
                false
            }
        }
    }

    /// Merges one shipped digest; returns how many records were new.
    pub fn merge_digest(&mut self, digest: &JournalDigest) -> u64 {
        self.merge_records(digest.server_id, &digest.entries)
    }

    /// Merges a batch of records from one server; returns how many were
    /// new.
    pub fn merge_records(&mut self, server_id: u64, records: &[EventRecord]) -> u64 {
        records
            .iter()
            .filter(|r| {
                self.admit(Self::key(server_id, r), || FleetRecord {
                    server_id,
                    record: (*r).clone(),
                })
            })
            .count() as u64
    }

    /// Merges another timeline in (union of entries).
    pub fn merge(&mut self, other: &FleetTimeline) {
        for entry in other.iter() {
            self.admit(Self::key(entry.server_id, &entry.record), || entry.clone());
        }
    }

    /// The current point in the merge history, for a later
    /// [`FleetTimeline::rollback`]. O(1): a checkpoint costs nothing
    /// however long the timeline grows.
    pub fn mark(&self) -> TimelineMark {
        TimelineMark {
            len: self.log.len(),
            deduped: self.deduped,
        }
    }

    /// Restores the timeline to `mark`: removes every record admitted
    /// since and restores the dedup count, in O(records removed).
    /// The result equals a clone taken at the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies past the current history (it was taken on
    /// another timeline, or before a rollback to an earlier mark).
    pub fn rollback(&mut self, mark: TimelineMark) {
        for key in self.log.drain(mark.len..) {
            self.entries.remove(&key);
        }
        self.deduped = mark.deduped;
    }

    /// Number of merged records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has merged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records accepted as new across all merges (every one is still
    /// held, so this is also [`FleetTimeline::len`]).
    pub fn merged_total(&self) -> u64 {
        self.log.len() as u64
    }

    /// Records rejected as duplicates across all merges — the price of
    /// re-ship-everything, which the idempotent merge makes zero.
    pub fn dedup_total(&self) -> u64 {
        self.deduped
    }

    /// Iterates the merged records in `(epoch, poll, server, seq)`
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &FleetRecord> {
        self.entries.values()
    }

    /// FNV-1a digest over the merged records in key order — the
    /// byte-identity fingerprint the fleet `ext_obs --smoke` double-run
    /// compares across processes.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for entry in self.entries.values() {
            fold(&entry.server_id.to_le_bytes());
            fold(format!("{:?}", entry.record).as_bytes());
        }
        hash
    }
}

/// Configuration for the observability plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Ring-buffer bound for the event journal (0 disables retention
    /// but keeps counting).
    pub journal_capacity: usize,
    /// Whether wall-clock self-profiling spans are recorded. Spans are
    /// excluded from [`Obs::digest`] either way (wall time is not
    /// deterministic), so this only controls the cost of `Instant`
    /// reads.
    pub spans: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            journal_capacity: 65_536,
            spans: true,
        }
    }
}

/// Interior state behind the [`Obs`] handle.
#[derive(Debug)]
struct ObsCore {
    config: ObsConfig,
    journal: EventJournal,
    metrics: MetricsRegistry,
    /// Per-kind event tallies, kept on `&'static str` keys so the emit
    /// hot path never allocates; rendered into the registry's
    /// `events_total` / `events_by_kind_total{kind="…"}` counters only
    /// when a snapshot is taken.
    by_kind: BTreeMap<&'static str, u64>,
    poll: u64,
    epoch: u64,
    last_rate: BTreeMap<String, f64>,
}

impl ObsCore {
    /// The registry with the deferred per-kind event tallies folded in —
    /// what [`Obs::metrics`] and [`Obs::digest`] observe.
    fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = self.metrics.clone();
        let mut total = 0;
        for (&kind, &n) in &self.by_kind {
            merged.inc_by(&prom_label("events_by_kind_total", &[("kind", kind)]), n);
            total += n;
        }
        if total > 0 {
            merged.inc_by("events_total", total);
        }
        merged
    }
}

/// A cloneable handle on one observability plane.
///
/// Producers (`PowerMediator`, `ServerSim`, `ControlPlane`, agents)
/// each hold an `Option<Obs>`; cloning the handle shares the same
/// journal and registry, so a server's simulator and mediator write
/// interleaved records into one flight recorder. The mutex is
/// `parking_lot`'s (no poisoning), matching
/// [`crate::recorder::SharedRecorder`].
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<parking_lot::Mutex<ObsCore>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

impl Obs {
    /// Creates a fresh plane under `config`.
    pub fn new(config: ObsConfig) -> Self {
        let journal = EventJournal::new(config.journal_capacity);
        Self {
            inner: Arc::new(parking_lot::Mutex::new(ObsCore {
                config,
                journal,
                metrics: MetricsRegistry::new(),
                by_kind: BTreeMap::new(),
                poll: 0,
                epoch: 0,
                last_rate: BTreeMap::new(),
            })),
        }
    }

    /// Starts a new accounting poll and returns its sequence number
    /// (1-based; 0 means "before the first poll").
    pub fn begin_poll(&self) -> u64 {
        let mut core = self.inner.lock();
        core.poll += 1;
        core.metrics.inc("polls_total");
        core.poll
    }

    /// The current poll sequence number.
    pub fn poll(&self) -> u64 {
        self.inner.lock().poll
    }

    /// Sets the control-plane epoch stamped on subsequent records.
    pub fn set_epoch(&self, epoch: u64) {
        self.inner.lock().epoch = epoch;
    }

    /// Appends `event` to the journal at simulation time `at`, stamped
    /// with the current poll and epoch, and bumps the total and
    /// per-kind event counters.
    ///
    /// The per-kind tally is kept on `&'static str` keys here and only
    /// rendered into Prometheus-labeled counter names at snapshot time
    /// ([`Obs::metrics`] / [`Obs::digest`]), so this hot path does one
    /// lock, one map bump and one ring push — no string formatting.
    pub fn emit(&self, at: Seconds, event: ObsEvent) {
        let mut core = self.inner.lock();
        *core.by_kind.entry(event.kind()).or_insert(0) += 1;
        let (poll, epoch) = (core.poll, core.epoch);
        core.journal.record(at, poll, epoch, event);
    }

    /// Increments the counter `name`.
    pub fn inc(&self, name: &str) {
        self.inner.lock().metrics.inc(name);
    }

    /// Increments the counter `name` by `by`.
    pub fn inc_by(&self, name: &str, by: u64) {
        self.inner.lock().metrics.inc_by(name, by);
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.inner.lock().metrics.set_gauge(name, v);
    }

    /// Records `v` into the histogram `name` (default log layout).
    pub fn observe(&self, name: &str, v: f64) {
        self.inner.lock().metrics.observe(name, v);
    }

    /// Feeds one heartbeat-rate reading for `app`; the absolute change
    /// versus the previous reading lands in the `heartbeat_jitter_hz`
    /// histogram. Rates are simulation-derived, so this stays
    /// deterministic and digest-safe.
    pub fn note_heartbeat(&self, app: &str, rate: f64) {
        let mut guard = self.inner.lock();
        let core = &mut *guard;
        if let Some(prev) = core.last_rate.get_mut(app) {
            let jitter = (rate - *prev).abs();
            *prev = rate;
            core.metrics.observe("heartbeat_jitter_hz", jitter);
        } else {
            // First reading for this app: the only allocating path.
            core.last_rate.insert(app.to_string(), rate);
        }
    }

    /// Opens a wall-clock self-profiling span; the elapsed seconds land
    /// in `span_seconds{name="…"}` when the guard drops. A no-op guard
    /// is returned when spans are disabled in the config. Span
    /// histograms never enter [`Obs::digest`].
    pub fn span(&self, name: &'static str) -> ObsSpan {
        let enabled = self.inner.lock().config.spans;
        ObsSpan {
            obs: enabled.then(|| self.clone()),
            name,
            started: std::time::Instant::now(),
        }
    }

    /// A copy of the retained journal records, oldest-first.
    pub fn journal_snapshot(&self) -> Vec<EventRecord> {
        self.inner.lock().journal.iter().cloned().collect()
    }

    /// Extracts a bounded shipping digest of the journal since the
    /// receiver's watermark (see [`EventJournal::digest_since`]).
    pub fn digest_since(&self, server_id: u64, since: u64, max_bytes: usize) -> JournalDigest {
        self.inner
            .lock()
            .journal
            .digest_since(server_id, since, max_bytes)
    }

    /// `(retained, evicted, total)` journal record counts.
    pub fn journal_counts(&self) -> (usize, u64, u64) {
        let core = self.inner.lock();
        (
            core.journal.len(),
            core.journal.evicted(),
            core.journal.total_recorded(),
        )
    }

    /// A copy of the metrics registry, with the deferred per-kind event
    /// tallies folded into `events_total` and
    /// `events_by_kind_total{kind="…"}`.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.lock().merged_metrics()
    }

    /// Registers a custom histogram layout under `name`.
    pub fn register_histogram(&self, name: &str, histogram: Histogram) {
        self.inner
            .lock()
            .metrics
            .register_histogram(name, histogram);
    }

    /// FNV-1a digest over the journal and the deterministic part of the
    /// registry. Instruments whose family starts with `span_` carry
    /// wall-clock samples and are excluded, so the digest is stable
    /// across machines and runs — the property the `ext_obs --smoke`
    /// double-run check in CI asserts.
    pub fn digest(&self) -> u64 {
        let core = self.inner.lock();
        let merged = core.merged_metrics();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for rec in core.journal.iter() {
            fold(format!("{rec:?}").as_bytes());
        }
        for (name, value) in merged.counters() {
            if name.starts_with("span_") {
                continue;
            }
            fold(name.as_bytes());
            fold(&value.to_le_bytes());
        }
        for (name, value) in merged.gauges() {
            if name.starts_with("span_") {
                continue;
            }
            fold(name.as_bytes());
            fold(&value.to_bits().to_le_bytes());
        }
        for (name, hist) in merged.histograms() {
            if name.starts_with("span_") {
                continue;
            }
            fold(name.as_bytes());
            for &b in hist.buckets() {
                fold(&b.to_le_bytes());
            }
            fold(&hist.count().to_le_bytes());
            fold(&hist.sum().to_bits().to_le_bytes());
        }
        hash
    }
}

/// RAII guard for a wall-clock span opened by [`Obs::span`].
#[derive(Debug)]
pub struct ObsSpan {
    obs: Option<Obs>,
    name: &'static str,
    started: std::time::Instant,
}

impl Drop for ObsSpan {
    fn drop(&mut self) {
        if let Some(obs) = self.obs.take() {
            let elapsed = self.started.elapsed().as_secs_f64();
            obs.observe(&prom_label("span_seconds", &[("name", self.name)]), elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: f64) -> Seconds {
        Seconds::new(t)
    }

    #[test]
    fn journal_retains_in_order_and_assigns_sequence_numbers() {
        let mut j = EventJournal::new(8);
        for i in 0..3 {
            let seq = j.record(at(i as f64), i, 0, ObsEvent::CapChanged { cap_w: 80.0 });
            assert_eq!(seq, i);
        }
        let seqs: Vec<u64> = j.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(j.evicted(), 0);
        assert_eq!(j.latest().unwrap().poll, 2);
    }

    #[test]
    fn journal_wraparound_evicts_oldest_first() {
        let mut j = EventJournal::new(3);
        for i in 0..7u64 {
            j.record(
                at(i as f64),
                i,
                0,
                ObsEvent::UplinkSent { server: 0, step: i },
            );
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 4);
        assert_eq!(j.total_recorded(), 7);
        let seqs: Vec<u64> = j.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6], "oldest evicted, order preserved");
    }

    #[test]
    fn journal_capacity_one_keeps_only_the_latest() {
        let mut j = EventJournal::new(1);
        j.record(at(0.0), 1, 0, ObsEvent::ManagerCrash);
        j.record(at(1.0), 2, 0, ObsEvent::ManagerTakeover);
        assert_eq!(j.len(), 1);
        assert_eq!(j.latest().unwrap().event, ObsEvent::ManagerTakeover);
        assert_eq!(j.evicted(), 1);
    }

    #[test]
    fn journal_capacity_zero_counts_but_stores_nothing() {
        let mut j = EventJournal::new(0);
        let seq0 = j.record(at(0.0), 0, 0, ObsEvent::ManagerCrash);
        let seq1 = j.record(at(1.0), 0, 0, ObsEvent::ManagerTakeover);
        assert_eq!((seq0, seq1), (0, 1), "sequence numbers still advance");
        assert!(j.is_empty());
        assert_eq!(j.evicted(), 2);
        assert_eq!(j.total_recorded(), 2);
    }

    #[test]
    fn obs_emit_stamps_poll_epoch_and_counts_by_kind() {
        let obs = Obs::new(ObsConfig::default());
        obs.set_epoch(7);
        let poll = obs.begin_poll();
        assert_eq!(poll, 1);
        obs.emit(
            at(0.5),
            ObsEvent::Arrival {
                app: "stream".into(),
            },
        );
        obs.emit(
            at(0.5),
            ObsEvent::SafeMode {
                transition: SafeModeTransition::Engaged,
            },
        );
        let records = obs.journal_snapshot();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.poll == 1 && r.epoch == 7));
        let m = obs.metrics();
        assert_eq!(m.counter("events_total"), 2);
        assert_eq!(m.counter("events_by_kind_total{kind=\"arrival\"}"), 1);
        assert_eq!(m.counter("events_by_kind_total{kind=\"safe_mode\"}"), 1);
        assert_eq!(m.counter("polls_total"), 1);
    }

    #[test]
    fn heartbeat_jitter_measures_rate_deltas() {
        let obs = Obs::new(ObsConfig::default());
        obs.note_heartbeat("stream", 100.0);
        obs.note_heartbeat("stream", 103.0);
        obs.note_heartbeat("stream", 101.0);
        obs.note_heartbeat("kmeans", 50.0); // first reading: no jitter yet
        let m = obs.metrics();
        let h = m.histogram("heartbeat_jitter_hz").expect("recorded");
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn spans_record_only_when_enabled_and_never_enter_the_digest() {
        let on = Obs::new(ObsConfig::default());
        {
            let _guard = on.span("plan");
        }
        assert_eq!(
            on.metrics()
                .histogram("span_seconds{name=\"plan\"}")
                .map(Histogram::count),
            Some(1)
        );

        let off = Obs::new(ObsConfig {
            spans: false,
            ..ObsConfig::default()
        });
        {
            let _guard = off.span("plan");
        }
        assert!(off
            .metrics()
            .histogram("span_seconds{name=\"plan\"}")
            .is_none());

        // Same deterministic content, differing span samples → same digest.
        let twin = Obs::new(ObsConfig::default());
        {
            let _guard = twin.span("plan");
        }
        {
            let _guard = twin.span("plan");
        }
        on.emit(at(1.0), ObsEvent::ManagerCrash);
        twin.emit(at(1.0), ObsEvent::ManagerCrash);
        assert_eq!(on.digest(), twin.digest());
    }

    #[test]
    fn digest_is_sensitive_to_journal_content() {
        let a = Obs::new(ObsConfig::default());
        let b = Obs::new(ObsConfig::default());
        a.emit(at(0.0), ObsEvent::NodeCrash { server: 1 });
        b.emit(at(0.0), ObsEvent::NodeCrash { server: 2 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn event_kind_and_app_accessors() {
        let e = ObsEvent::KnobWrite {
            app: "stream".into(),
            verdict: KnobWriteVerdict::Deferred,
            attempts: 1,
        };
        assert_eq!(e.kind(), "knob_write");
        assert_eq!(e.app(), Some("stream"));
        assert_eq!(ObsEvent::ManagerCrash.app(), None);
    }

    #[test]
    fn cloned_handles_share_one_plane() {
        let obs = Obs::new(ObsConfig::default());
        let twin = obs.clone();
        twin.inc("knob_writes_total");
        obs.emit(at(0.0), ObsEvent::EndpointLoss { server: 3 });
        assert_eq!(obs.metrics().counter("knob_writes_total"), 1);
        assert_eq!(twin.journal_snapshot().len(), 1);
    }

    fn filled(capacity: usize, events: u64) -> EventJournal {
        let mut j = EventJournal::new(capacity);
        for i in 0..events {
            j.record(
                at(i as f64),
                i + 1,
                0,
                ObsEvent::UplinkSent { server: 0, step: i },
            );
        }
        j
    }

    #[test]
    fn digest_is_a_contiguous_delta_since_the_watermark() {
        let mut j = filled(64, 10);
        let d = j.digest_since(3, 4, 1 << 16);
        assert!(!d.wrapped);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.truncated, 0);
        let seqs: Vec<u64> = d.entries.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(d.ack_to(), 10);
        assert_eq!(d.server_id, 3);
        // Fully acked: the next digest is empty and holds the watermark.
        let empty = j.digest_since(3, d.ack_to(), 1 << 16);
        assert!(empty.is_empty());
        assert_eq!(empty.ack_to(), 10);
    }

    #[test]
    fn digest_byte_cap_truncates_but_the_watermark_still_advances() {
        let mut j = filled(64, 12);
        let mut since = 0u64;
        let mut waves = 0;
        // A budget this small admits one record per wave (the first
        // record always ships): repeated extraction walks the whole
        // journal without skipping or repeating a record.
        let mut shipped = Vec::new();
        while since < j.total_recorded() {
            let d = j.digest_since(0, since, 1);
            assert_eq!(d.entries.len(), 1, "one record per starved wave");
            assert!(d.truncated > 0 || d.ack_to() == j.total_recorded());
            shipped.extend(d.entries.iter().map(|r| r.seq));
            assert!(d.ack_to() > since, "progress under any budget");
            since = d.ack_to();
            waves += 1;
        }
        assert_eq!(waves, 12);
        assert_eq!(shipped, (0..12).collect::<Vec<u64>>());
        // A roomy budget ships everything in one wave, within bound.
        let d = j.digest_since(0, 0, 1 << 16);
        assert_eq!(d.entries.len(), 12);
        assert!(d.bytes <= 1 << 16);
    }

    #[test]
    fn wraparound_marks_a_digest_gap_at_cap_one() {
        // Capacity 1: three events recorded, only seq 2 survives. The
        // digest must lead with a DigestGap for the two lost records —
        // synthesized, not stored, so the ring itself never recursed.
        let mut j = filled(1, 3);
        let d = j.digest_since(0, 0, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 2);
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.entries[0].seq, 0, "gap sits at the first lost seq");
        assert_eq!(d.entries[0].event, ObsEvent::DigestGap { dropped: 2 });
        assert_eq!(d.entries[1].seq, 2);
        assert_eq!(d.ack_to(), 3);
        // Re-shipping regenerates the identical gap record.
        assert_eq!(j.digest_since(0, 0, 1 << 16), d);
    }

    #[test]
    fn wraparound_marks_a_digest_gap_at_cap_two() {
        let mut j = filled(2, 5);
        let d = j.digest_since(0, 1, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 2, "seqs 1 and 2 were overwritten unshipped");
        assert_eq!(d.entries[0].event, ObsEvent::DigestGap { dropped: 2 });
        assert_eq!(d.entries[0].seq, 1);
        let seqs: Vec<u64> = d.entries.iter().skip(1).map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(d.ack_to(), 5);
        // Already-acked evictions are not a gap.
        let clean = j.digest_since(0, 3, 1 << 16);
        assert!(!clean.wrapped);
        assert_eq!(clean.dropped, 0);
    }

    #[test]
    fn empty_ring_past_the_watermark_is_all_gap() {
        let mut j = filled(0, 4);
        let d = j.digest_since(0, 0, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 4);
        assert_eq!(d.entries.len(), 1, "only the gap marker ships");
        assert_eq!(d.ack_to(), 4, "the hole itself is acknowledged");
    }

    #[test]
    fn fleet_merge_is_idempotent_and_counts_dedup() {
        let mut j = filled(64, 6);
        let d = j.digest_since(7, 0, 1 << 16);
        let mut t = FleetTimeline::new();
        assert_eq!(t.merge_digest(&d), 6);
        assert_eq!(t.merge_digest(&d), 0, "re-ship merges nothing new");
        assert_eq!(t.len(), 6);
        assert_eq!(t.merged_total(), 6);
        assert_eq!(t.dedup_total(), 6);
        assert!(t.iter().all(|e| e.server_id == 7));
    }

    #[test]
    fn fleet_timeline_orders_by_epoch_poll_server_seq() {
        let rec = |seq, poll, epoch| EventRecord {
            seq,
            at: at(0.0),
            poll,
            epoch,
            event: ObsEvent::ManagerCrash,
        };
        let mut t = FleetTimeline::new();
        t.insert(1, rec(5, 2, 1));
        t.insert(0, rec(9, 2, 1));
        t.insert(2, rec(0, 1, 2));
        t.insert(0, rec(3, 9, 0));
        let keys: Vec<FleetKey> = t
            .iter()
            .map(|e| FleetTimeline::key(e.server_id, &e.record))
            .collect();
        assert_eq!(
            keys,
            vec![(0, 9, 0, 3), (1, 2, 0, 9), (1, 2, 1, 5), (2, 1, 2, 0)]
        );
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration follows the merge key order");
    }

    #[test]
    fn fleet_digest_is_sensitive_to_content_and_provenance() {
        let mut j = filled(64, 3);
        let mut a = FleetTimeline::new();
        let mut b = FleetTimeline::new();
        a.merge_digest(&j.digest_since(0, 0, 1 << 16));
        b.merge_digest(&j.digest_since(1, 0, 1 << 16));
        assert_ne!(a.digest(), b.digest(), "same records, different server");
        let mut twin = FleetTimeline::new();
        twin.merge_digest(&j.digest_since(0, 0, 1 << 16));
        assert_eq!(a.digest(), twin.digest());
    }

    /// Deterministic splitmix64 helper for the property tests below.
    fn mix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A generated fleet: per-server record streams with varied epochs
    /// and polls, derived entirely from `seed`.
    fn generated_fleet(seed: u64) -> Vec<(u64, Vec<EventRecord>)> {
        let mut s = seed;
        let servers = 1 + (mix64(&mut s) % 4) as usize;
        (0..servers as u64)
            .map(|sid| {
                let n = mix64(&mut s) % 24;
                let mut epoch = 0u64;
                let mut poll = 0u64;
                let records = (0..n)
                    .map(|seq| {
                        epoch += mix64(&mut s) % 2;
                        poll += mix64(&mut s) % 3;
                        EventRecord {
                            seq,
                            at: at(seq as f64),
                            poll,
                            epoch,
                            event: ObsEvent::UplinkSent {
                                server: sid as usize,
                                step: mix64(&mut s) % 100,
                            },
                        }
                    })
                    .collect();
                (sid, records)
            })
            .collect()
    }

    /// The linear-scan extraction the seeking, memoizing
    /// [`EventJournal::digest_since`] replaced: walk the whole ring,
    /// skip to the watermark, and format every unshipped record to
    /// price it. Kept as the reference the fast path must equal.
    fn reference_digest_since(
        j: &EventJournal,
        server_id: u64,
        since: u64,
        max_bytes: usize,
    ) -> JournalDigest {
        let oldest_retained = j.iter().next().map_or(j.total_recorded(), |r| r.seq);
        let resume_at = oldest_retained.max(since);
        let dropped = resume_at - since;
        let wrapped = dropped > 0;
        let mut entries = Vec::new();
        let mut bytes = DIGEST_HEADER_BYTES;
        let mut truncated = 0u64;
        if wrapped {
            let (at, poll, epoch) = j
                .iter()
                .next()
                .map_or((Seconds::ZERO, 0, 0), |r| (r.at, r.poll, r.epoch));
            let gap = EventRecord {
                seq: since,
                at,
                poll,
                epoch,
                event: ObsEvent::DigestGap { dropped },
            };
            bytes += format!("{gap:?}").len();
            entries.push(gap);
        }
        let mut shipping = true;
        for rec in j.iter() {
            if rec.seq < resume_at {
                continue;
            }
            let cost = format!("{rec:?}").len();
            if shipping && (bytes + cost <= max_bytes || entries.is_empty()) {
                bytes += cost;
                entries.push(rec.clone());
            } else {
                shipping = false;
                truncated += 1;
            }
        }
        JournalDigest {
            server_id,
            since,
            entries,
            wrapped,
            dropped,
            truncated,
            bytes: bytes as u64,
        }
    }

    /// A generated event whose `Debug` length varies with `r`, so byte
    /// budgets cut digests at varied places.
    fn generated_event(r: u64) -> ObsEvent {
        match r % 4 {
            0 => ObsEvent::ManagerCrash,
            1 => ObsEvent::UplinkSent {
                server: (r % 13) as usize,
                step: r % 1000,
            },
            2 => ObsEvent::Arrival {
                app: "x".repeat((r % 90) as usize),
            },
            _ => ObsEvent::Poll {
                alloc_w: (r % 97) as f64 * 0.25,
                net_w: 85.0,
                observed_w: r.is_multiple_of(3).then_some(84.5),
                cap_w: 90.0,
                over_cap: r.is_multiple_of(2),
            },
        }
    }

    proptest::proptest! {
        /// The seeking, memoizing extraction equals the linear-scan
        /// reference on every field, at every watermark and budget, on
        /// rings that wrapped — and again on a second call, when every
        /// cost it reads is memoized. Digests taken while the journal
        /// fills leave a partly filled cost column behind that eviction
        /// then pops, so the memo is checked under wraparound too.
        #[test]
        fn prop_digest_since_matches_the_linear_scan(
            seed in 0u64..u64::MAX,
            capacity in 0usize..=8,
            events in 0u64..=40,
        ) {
            let mut s = seed;
            let mut j = EventJournal::new(capacity);
            for i in 0..events {
                let r = mix64(&mut s);
                j.record(at(i as f64), i / 3, i / 10, generated_event(r));
                if (r >> 32).is_multiple_of(3) {
                    let since = mix64(&mut s) % (j.total_recorded() + 1);
                    let budget = [1, 100, 300][((r >> 40) % 3) as usize];
                    let expect = reference_digest_since(&j, 1, since, budget);
                    proptest::prop_assert_eq!(j.digest_since(1, since, budget), expect);
                }
            }
            for since in 0..=j.total_recorded() + 1 {
                for budget in [1, 100, 300, 1 << 16] {
                    let expect = reference_digest_since(&j, 5, since, budget);
                    proptest::prop_assert_eq!(j.digest_since(5, since, budget), expect.clone());
                    proptest::prop_assert_eq!(j.digest_since(5, since, budget), expect);
                }
            }
        }

        /// Rolling back to a mark lands on exactly the timeline a clone
        /// taken at the mark holds — even after duplicated, reordered
        /// delivery past the mark — and the restored timeline keeps
        /// merging like the clone.
        #[test]
        fn prop_rollback_equals_a_clone_taken_at_the_mark(
            seed in 0u64..u64::MAX,
            split in 1usize..8,
            cut in 0usize..64,
        ) {
            let fleet = generated_fleet(seed);
            let mut waves: Vec<(u64, &[EventRecord])> = Vec::new();
            for (sid, records) in &fleet {
                for chunk in records.chunks(split) {
                    waves.push((*sid, chunk));
                }
            }
            let cut = cut % (waves.len() + 1);
            let mut t = FleetTimeline::new();
            for (sid, chunk) in &waves[..cut] {
                t.merge_records(*sid, chunk);
            }
            let mark = t.mark();
            let at_mark = t.clone();
            // Past the mark: every wave, the pre-mark ones included,
            // delivered in reverse and twice.
            for (sid, chunk) in waves.iter().rev() {
                t.merge_records(*sid, chunk);
                t.merge_records(*sid, chunk);
            }
            t.rollback(mark);
            proptest::prop_assert!(t.iter().eq(at_mark.iter()));
            proptest::prop_assert_eq!(t.len(), at_mark.len());
            proptest::prop_assert_eq!(t.merged_total(), at_mark.merged_total());
            proptest::prop_assert_eq!(t.dedup_total(), at_mark.dedup_total());
            proptest::prop_assert_eq!(t.digest(), at_mark.digest());
            proptest::prop_assert_eq!(&t, &at_mark);
            let mut twin = at_mark.clone();
            for (sid, chunk) in &waves {
                t.merge_records(*sid, chunk);
                twin.merge_records(*sid, chunk);
            }
            proptest::prop_assert_eq!(&t, &twin);
            proptest::prop_assert_eq!(t.mark(), twin.mark());
        }

        /// Merging the same digest set in any delivery order — with
        /// duplication, reordering, and delayed (split) delivery — lands
        /// on the same timeline: the merge is commutative and idempotent.
        #[test]
        fn prop_merge_commutes_under_duplication_reorder_and_delay(
            seed in 0u64..u64::MAX,
            split in 1usize..8,
        ) {
            let fleet = generated_fleet(seed);
            // In-order, whole-stream delivery.
            let mut reference = FleetTimeline::new();
            for (sid, records) in &fleet {
                reference.merge_records(*sid, records);
            }
            // Adversarial delivery: streams split into waves, waves
            // delivered server-interleaved in reverse, every wave
            // delivered twice (retry duplication).
            let mut waves: Vec<(u64, &[EventRecord])> = Vec::new();
            for (sid, records) in &fleet {
                for chunk in records.chunks(split) {
                    waves.push((*sid, chunk));
                }
            }
            waves.reverse();
            let mut adversarial = FleetTimeline::new();
            for (sid, chunk) in &waves {
                adversarial.merge_records(*sid, chunk);
                adversarial.merge_records(*sid, chunk);
            }
            proptest::prop_assert_eq!(reference.len(), adversarial.len());
            proptest::prop_assert_eq!(reference.digest(), adversarial.digest());
            // Every record was delivered exactly twice.
            proptest::prop_assert_eq!(adversarial.dedup_total(), adversarial.merged_total());
            // Idempotence at the timeline level too.
            let before = adversarial.digest();
            let twin = adversarial.clone();
            adversarial.merge(&twin);
            proptest::prop_assert_eq!(adversarial.digest(), before);
        }

        /// The `(epoch, poll, server, seq)` key is a total order on any
        /// generated digest set: all keys are distinct (seq is unique
        /// per server) and iteration is strictly increasing.
        #[test]
        fn prop_merge_key_orders_generated_digest_sets_totally(
            seed in 0u64..u64::MAX,
        ) {
            let fleet = generated_fleet(seed);
            let mut t = FleetTimeline::new();
            let mut pushed = 0u64;
            for (sid, records) in &fleet {
                pushed += records.len() as u64;
                t.merge_records(*sid, records);
            }
            // seq is unique per server, so there are no key collisions.
            proptest::prop_assert_eq!(t.len() as u64, pushed);
            let keys: Vec<FleetKey> = t
                .iter()
                .map(|e| FleetTimeline::key(e.server_id, &e.record))
                .collect();
            for w in keys.windows(2) {
                proptest::prop_assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
            }
        }
    }
}
