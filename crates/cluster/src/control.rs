//! The cluster control plane: a deterministic, seeded message layer
//! between the cluster manager and its per-server agents, with
//! injectable faults and a resilient manager that degrades gracefully.
//!
//! The monolithic per-policy loops of [`ClusterManager`] are split into
//! explicit messages: the manager sends [`Downlink`] cap assignments and
//! heartbeats; every agent sends a [`Uplink`] telemetry report each
//! control step. The [`ControlPlane`] in between can drop, delay (and
//! thereby reorder) either direction, crash whole nodes, partition a
//! server away from the manager, and kill the manager itself for a
//! takeover window — all driven by per-channel splitmix64 streams
//! ([`powermed_sim::faults::channel_stream`]) so the same seed replays
//! the same fault history bit-for-bit and flavors can be compared under
//! common random numbers.
//!
//! Resilience is a flavor switch, not a different topology. The
//! **resilient** manager heartbeats current assignments (repairing
//! drops), checkpoints its apportionment state, restores it on failover,
//! declares nodes dead on missed telemetry and reapportions their share
//! across survivors (returning it on rejoin); resilient agents gate
//! assignments by epoch and fall back to a conservative decaying local
//! cap when partitioned (see [`crate::agent`]). The **naive** manager is
//! today's monolithic loop made honest about the network: fire-and-forget
//! assignments, no heartbeats, no liveness tracking, a cold-restart
//! standby. With faults disabled both flavors reproduce the monolithic
//! loops bit-for-bit — the zero-cost-off contract.

use powermed_core::cache::MeasurementCache;
use powermed_core::coordinator::EsdParams;
use powermed_core::policy::{PolicyKind, PowerPolicy};
use powermed_disagg::EstimatorConfig;
use powermed_profiles::{ProbeSplit, ProfileDigest, ProfileStore, StoreConfig};
use powermed_server::ServerSpec;
use powermed_telemetry::faults::ClusterControlStats;
use powermed_telemetry::journal::{
    FleetTimeline, JournalDigest, Obs, ObsConfig, ObsEvent, TimelineMark, MANAGER_SERVER_ID,
};
use powermed_telemetry::metrics::{prom_label, MetricsRegistry};
use powermed_telemetry::recorder::TraceRecorder;
use powermed_telemetry::ProfileStoreStats;
use powermed_units::{Joules, Ratio, Seconds, Watts};
use powermed_workloads::mixes::Mix;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::agent::{AgentConfig, ServerAgent};
use crate::manager::{ClusterManager, ClusterPolicy, ClusterReport};
use crate::trace::ClusterPowerTrace;

/// A cap assignment (or heartbeat) from the manager to one server.
#[derive(Debug, Clone, PartialEq)]
pub struct Downlink {
    /// Assignment epoch: strictly increasing across reapportionments,
    /// derived from the control step so it survives manager failover.
    pub epoch: u64,
    /// The per-server cap assigned at that epoch.
    pub cap: Watts,
    /// Re-send of already-assigned state (heartbeat, failover or
    /// membership re-broadcast) rather than a fresh budget-change
    /// assignment. A settled resilient agent acknowledges a repair whose
    /// cap it already enforces without re-actuating — re-planning is not
    /// free, and a repair carrying the value in force has nothing to fix.
    pub repair: bool,
    /// Knowledge-plane payload: the manager's profile digests, merged
    /// into the agent's store on receipt (empty when warm start is off).
    /// Digests are a semilattice, so stale or reordered deliveries are
    /// harmless — merge is commutative and idempotent.
    pub profiles: Vec<ProfileDigest>,
    /// Flight-recorder ack watermark: the manager has merged this
    /// server's journal records below this sequence number into the
    /// fleet timeline, so the agent's next digest starts here. Always 0
    /// when fleet recording is off, keeping the classic control plane
    /// bit-identical.
    pub journal_acked: u64,
}

impl Downlink {
    /// A bare assignment with no knowledge-plane payload.
    pub fn assignment(epoch: u64, cap: Watts, repair: bool) -> Self {
        Self {
            epoch,
            cap,
            repair,
            profiles: Vec::new(),
            journal_acked: 0,
        }
    }
}

/// A telemetry report from one server to the manager.
#[derive(Debug, Clone, PartialEq)]
pub struct Uplink {
    /// Reporting server index.
    pub server: usize,
    /// Control step the report was sent (stale reports carry old steps).
    pub sent_step: u64,
    /// Net (post-ESD) power the server drew that step.
    pub net_power: Watts,
    /// Knowledge-plane payload: profile digests this server published
    /// since its last report (empty when warm start is off).
    pub profiles: Vec<ProfileDigest>,
    /// Estimated per-app dynamic shares in watts, from the server's
    /// non-intrusive disaggregation layer — what a real deployment can
    /// actually report upstream, since no per-app power meter exists.
    /// Empty when estimation is off ([`ControlOptions::estimation`] is
    /// `None`), keeping the classic control plane bit-identical.
    pub app_shares: Vec<(String, f64)>,
    /// Flight-recorder payload: the server's journal delta since the
    /// last acked sequence number, size-capped so it survives lossy
    /// links. Re-shipped every wave until acked — the fleet merge is
    /// idempotent, so duplication under retry is free. `None` when
    /// fleet recording is off.
    pub journal: Option<JournalDigest>,
}

impl Uplink {
    /// A bare telemetry report with no knowledge-plane payload.
    pub fn report(server: usize, sent_step: u64, net_power: Watts) -> Self {
        Self {
            server,
            sent_step,
            net_power,
            profiles: Vec::new(),
            app_shares: Vec::new(),
            journal: None,
        }
    }
}

/// One server's scheduled partition from the manager: both directions of
/// its channel are cut for `from_step <= step < until_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// The partitioned server.
    pub server: usize,
    /// First step of the partition (inclusive).
    pub from_step: u64,
    /// End of the partition (exclusive).
    pub until_step: u64,
}

impl PartitionWindow {
    fn covers(&self, server: usize, step: u64) -> bool {
        self.server == server && (self.from_step..self.until_step).contains(&step)
    }
}

/// Fault injection configuration for the cluster control plane.
///
/// All probabilities are per message (drops) or per node per step
/// (crashes). Channels only consume random numbers for faults whose
/// knob is non-zero, so flavors compared under the same seed see the
/// same fault history (common random numbers) and a fully zeroed config
/// consumes no randomness at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterFaultConfig {
    /// Seed for every per-channel splitmix64 stream.
    pub seed: u64,
    /// Probability a manager → server message is dropped in flight.
    pub downlink_drop_prob: f64,
    /// Maximum delivery delay of a downlink, in control steps (uniform
    /// over `0..=max`; a positive draw reorders against later sends).
    pub downlink_delay_max_steps: u64,
    /// Probability a server → manager report is dropped in flight.
    pub uplink_drop_prob: f64,
    /// Maximum delivery delay of an uplink, in control steps.
    pub uplink_delay_max_steps: u64,
    /// Per-node per-step probability of a whole-node crash.
    pub node_crash_prob: f64,
    /// Steps a crashed node stays down before it restarts.
    pub node_down_steps: u64,
    /// Scheduled network partitions (node up, channel cut).
    pub partitions: Vec<PartitionWindow>,
    /// Step at which the manager crashes, if any.
    pub manager_crash_step: Option<u64>,
    /// Steps until the standby manager takes over after the crash.
    pub manager_takeover_steps: u64,
}

impl ClusterFaultConfig {
    /// A fault-free control plane (the zero-cost-off configuration).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            downlink_drop_prob: 0.0,
            downlink_delay_max_steps: 0,
            uplink_drop_prob: 0.0,
            uplink_delay_max_steps: 0,
            node_crash_prob: 0.0,
            node_down_steps: 0,
            partitions: Vec::new(),
            manager_crash_step: None,
            manager_takeover_steps: 0,
        }
    }

    /// The reference node-churn + message-loss scenario: 10% loss and up
    /// to 2 steps of delay on both directions, plus Poisson-like node
    /// crashes (0.1% per node-step) with 20-step outages.
    pub fn default_scenario(seed: u64) -> Self {
        Self {
            downlink_drop_prob: 0.10,
            downlink_delay_max_steps: 2,
            uplink_drop_prob: 0.10,
            uplink_delay_max_steps: 2,
            node_crash_prob: 0.001,
            node_down_steps: 40,
            ..Self::none(seed)
        }
    }

    fn has_downlink_faults(&self) -> bool {
        self.downlink_drop_prob > 0.0 || self.downlink_delay_max_steps > 0
    }

    fn has_uplink_faults(&self) -> bool {
        self.uplink_drop_prob > 0.0 || self.uplink_delay_max_steps > 0
    }
}

/// One event in the deterministic fault/response history of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterFaultEvent {
    /// A downlink to `server` was dropped.
    DownlinkDropped {
        /// Destination server.
        server: usize,
    },
    /// A downlink to `server` was delayed by `steps`.
    DownlinkDelayed {
        /// Destination server.
        server: usize,
        /// Delivery delay in control steps.
        steps: u64,
    },
    /// An uplink from `server` was dropped.
    UplinkDropped {
        /// Source server.
        server: usize,
    },
    /// An uplink from `server` was delayed by `steps`.
    UplinkDelayed {
        /// Source server.
        server: usize,
        /// Delivery delay in control steps.
        steps: u64,
    },
    /// A message died because its endpoint (node or manager) was down or
    /// the channel was partitioned.
    EndpointLoss {
        /// The server side of the lost message.
        server: usize,
    },
    /// Node `server` crashed (apps restart, ESD state resets).
    NodeCrash {
        /// The crashed server.
        server: usize,
    },
    /// Node `server` restarted and rejoined the fleet.
    NodeRestart {
        /// The restarted server.
        server: usize,
    },
    /// The manager crashed; the control plane is headless until takeover.
    ManagerCrash,
    /// The standby manager took over.
    ManagerTakeover,
}

/// A timestamped [`ClusterFaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterFaultRecord {
    /// Control step the event occurred at.
    pub step: u64,
    /// The event.
    pub event: ClusterFaultEvent,
}

/// FNV-1a digest of a fault history — the determinism fingerprint used
/// by the `ext_cluster_faults --smoke` CI check.
pub fn fault_trace_digest(records: &[ClusterFaultRecord]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for record in records {
        for byte in format!("{record:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// An in-flight message and the step it becomes deliverable.
#[derive(Debug, Clone)]
struct InFlight<T> {
    deliver_at: u64,
    msg: T,
}

/// Splits `queue` into the messages due at `step` (send-order preserved)
/// and the still-in-flight remainder, writing the remainder back.
fn drain_due<T>(queue: &mut Vec<InFlight<T>>, step: u64) -> Vec<InFlight<T>> {
    let mut due = Vec::new();
    let mut pending = Vec::new();
    for m in std::mem::take(queue) {
        if m.deliver_at <= step {
            due.push(m);
        } else {
            pending.push(m);
        }
    }
    *queue = pending;
    due
}

/// The seeded, fault-injectable message layer between manager and agents.
#[derive(Debug)]
pub struct ControlPlane {
    config: ClusterFaultConfig,
    servers: usize,
    step: u64,
    down_rngs: Vec<StdRng>,
    up_rngs: Vec<StdRng>,
    churn_rngs: Vec<StdRng>,
    downlinks: Vec<Vec<InFlight<Downlink>>>,
    uplinks: Vec<InFlight<Uplink>>,
    /// `Some(step)` while a node is down: it restarts at that step.
    down_until: Vec<Option<u64>>,
    stats: ClusterControlStats,
    records: Vec<ClusterFaultRecord>,
    /// Flight-recorder handle; every fault record and message send is
    /// mirrored into its journal. `None` (the default) is zero-cost.
    obs: Option<Obs>,
    /// Wall-clock length of one control step, for journal timestamps.
    obs_dt: Seconds,
}

impl ControlPlane {
    /// A control plane over `servers` channels under `config`.
    pub fn new(config: ClusterFaultConfig, servers: usize) -> Self {
        let stream = |tag: u64, i: usize| {
            powermed_sim::faults::channel_stream(config.seed, tag ^ ((i as u64) << 8))
        };
        Self {
            down_rngs: (0..servers).map(|i| stream(0xD0_01, i)).collect(),
            up_rngs: (0..servers).map(|i| stream(0x0D_02, i)).collect(),
            churn_rngs: (0..servers).map(|i| stream(0xC4_03, i)).collect(),
            downlinks: vec![Vec::new(); servers],
            uplinks: Vec::new(),
            down_until: vec![None; servers],
            stats: ClusterControlStats::default(),
            records: Vec::new(),
            obs: None,
            obs_dt: Seconds::new(1.0),
            config,
            servers,
            step: 0,
        }
    }

    /// Attaches a flight-recorder handle. Fault records and message
    /// sends are journalled from then on, timestamped `step * dt`.
    pub fn set_observability(&mut self, obs: Obs, dt: Seconds) {
        self.obs = Some(obs);
        self.obs_dt = dt;
    }

    /// The attached flight-recorder handle, if any.
    pub fn observability(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Journal timestamp for the current control step.
    fn obs_now(&self) -> Seconds {
        Seconds::new(self.step as f64 * self.obs_dt.value())
    }

    /// Advances the plane to `step` and records scheduled manager events.
    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
        if let Some(crash) = self.config.manager_crash_step {
            if step == crash {
                self.record(ClusterFaultEvent::ManagerCrash);
            }
            if step == crash + self.config.manager_takeover_steps {
                self.record(ClusterFaultEvent::ManagerTakeover);
            }
        }
    }

    fn record(&mut self, event: ClusterFaultEvent) {
        if let Some(obs) = self.obs.as_ref() {
            let mirrored = match event {
                ClusterFaultEvent::DownlinkDropped { server } => ObsEvent::LinkDropped {
                    server,
                    uplink: false,
                },
                ClusterFaultEvent::DownlinkDelayed { server, steps } => ObsEvent::LinkDelayed {
                    server,
                    uplink: false,
                    steps,
                },
                ClusterFaultEvent::UplinkDropped { server } => ObsEvent::LinkDropped {
                    server,
                    uplink: true,
                },
                ClusterFaultEvent::UplinkDelayed { server, steps } => ObsEvent::LinkDelayed {
                    server,
                    uplink: true,
                    steps,
                },
                ClusterFaultEvent::EndpointLoss { server } => ObsEvent::EndpointLoss { server },
                ClusterFaultEvent::NodeCrash { server } => ObsEvent::NodeCrash { server },
                ClusterFaultEvent::NodeRestart { server } => ObsEvent::NodeRestart { server },
                ClusterFaultEvent::ManagerCrash => ObsEvent::ManagerCrash,
                ClusterFaultEvent::ManagerTakeover => ObsEvent::ManagerTakeover,
            };
            obs.emit(self.obs_now(), mirrored);
        }
        self.records.push(ClusterFaultRecord {
            step: self.step,
            event,
        });
    }

    /// Whether node `i` is currently up.
    pub fn node_up(&self, i: usize) -> bool {
        self.down_until[i].is_none()
    }

    /// Whether the channel to node `i` is partitioned this step.
    pub fn partitioned(&self, i: usize) -> bool {
        self.config
            .partitions
            .iter()
            .any(|w| w.covers(i, self.step))
    }

    /// Whether the (primary or standby) manager is running this step.
    pub fn manager_up(&self) -> bool {
        match self.config.manager_crash_step {
            Some(crash) => {
                self.step < crash || self.step >= crash + self.config.manager_takeover_steps
            }
            None => true,
        }
    }

    /// Whether the standby takes over exactly this step (restore point).
    pub fn manager_takeover_now(&self) -> bool {
        self.config
            .manager_crash_step
            .is_some_and(|crash| self.step == crash + self.config.manager_takeover_steps)
    }

    /// Rolls node churn for node `i` (call once per step for an up
    /// node). On a crash the node goes down for the configured outage
    /// and everything queued toward it dies with it.
    pub fn roll_crash(&mut self, i: usize) -> bool {
        if self.config.node_crash_prob <= 0.0 {
            return false;
        }
        if self.churn_rngs[i].gen_range(0.0..1.0) >= self.config.node_crash_prob {
            return false;
        }
        self.down_until[i] = Some(self.step + self.config.node_down_steps.max(1));
        self.stats.node_crashes += 1;
        self.record(ClusterFaultEvent::NodeCrash { server: i });
        let lost = self.downlinks[i].len() as u64;
        if lost > 0 {
            self.stats.messages_lost_endpoint_down += lost;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            self.downlinks[i].clear();
        }
        true
    }

    /// Whether node `i`'s outage ends this step (call once per step for
    /// a down node; clears the outage and records the restart).
    pub fn restart_due(&mut self, i: usize) -> bool {
        match self.down_until[i] {
            Some(until) if self.step >= until => {
                self.down_until[i] = None;
                self.stats.node_restarts += 1;
                self.record(ClusterFaultEvent::NodeRestart { server: i });
                true
            }
            _ => false,
        }
    }

    /// Sends a downlink to node `i`, subject to partition, drop, and
    /// delay faults. Messages to a down node die at the sender.
    pub fn send_down(&mut self, i: usize, msg: Downlink) {
        if !self.node_up(i) || self.partitioned(i) {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            return;
        }
        let mut delay = 0u64;
        if self.config.has_downlink_faults() {
            if self.config.downlink_drop_prob > 0.0
                && self.down_rngs[i].gen_range(0.0..1.0) < self.config.downlink_drop_prob
            {
                self.stats.downlinks_dropped += 1;
                self.record(ClusterFaultEvent::DownlinkDropped { server: i });
                return;
            }
            if self.config.downlink_delay_max_steps > 0 {
                delay = self.down_rngs[i].gen_range(0..=self.config.downlink_delay_max_steps);
                if delay > 0 {
                    self.stats.downlinks_delayed += 1;
                    self.record(ClusterFaultEvent::DownlinkDelayed {
                        server: i,
                        steps: delay,
                    });
                }
            }
        }
        if let Some(obs) = self.obs.as_ref() {
            obs.emit(
                self.obs_now(),
                ObsEvent::DownlinkSent {
                    server: i,
                    epoch: msg.epoch,
                    cap_w: msg.cap.value(),
                    repair: msg.repair,
                },
            );
        }
        self.downlinks[i].push(InFlight {
            deliver_at: self.step + delay,
            msg,
        });
    }

    /// Sends node `i`'s telemetry report toward the manager, subject to
    /// partition, drop, and delay faults.
    pub fn send_up(&mut self, i: usize, msg: Uplink) {
        if self.partitioned(i) {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            return;
        }
        let mut delay = 0u64;
        if self.config.has_uplink_faults() {
            if self.config.uplink_drop_prob > 0.0
                && self.up_rngs[i].gen_range(0.0..1.0) < self.config.uplink_drop_prob
            {
                self.stats.uplinks_dropped += 1;
                self.record(ClusterFaultEvent::UplinkDropped { server: i });
                return;
            }
            if self.config.uplink_delay_max_steps > 0 {
                delay = self.up_rngs[i].gen_range(0..=self.config.uplink_delay_max_steps);
                if delay > 0 {
                    self.stats.uplinks_delayed += 1;
                    self.record(ClusterFaultEvent::UplinkDelayed {
                        server: i,
                        steps: delay,
                    });
                }
            }
        }
        if let Some(obs) = self.obs.as_ref() {
            obs.emit(
                self.obs_now(),
                ObsEvent::UplinkSent {
                    server: i,
                    step: msg.sent_step,
                },
            );
        }
        // Uplinks become deliverable the step after they were sent (the
        // manager runs before the servers within a step), plus any delay.
        self.uplinks.push(InFlight {
            deliver_at: self.step + 1 + delay,
            msg,
        });
    }

    /// Delivers the downlinks due at node `i`, oldest delivery first
    /// (delays reorder against later sends).
    pub fn poll_down(&mut self, i: usize) -> Vec<Downlink> {
        let mut due = drain_due(&mut self.downlinks[i], self.step);
        due.sort_by_key(|m| m.deliver_at);
        due.into_iter().map(|m| m.msg).collect()
    }

    /// Delivers the uplinks due at the manager, oldest delivery first,
    /// then by server index within a step.
    pub fn poll_up(&mut self) -> Vec<Uplink> {
        let mut due = drain_due(&mut self.uplinks, self.step);
        due.sort_by_key(|m| m.deliver_at);
        due.into_iter().map(|m| m.msg).collect()
    }

    /// Discards everything due this step because its receiving endpoint
    /// is dead (a down node's downlinks, a headless manager's uplinks).
    pub fn discard_due_downlinks(&mut self, i: usize) {
        let lost = self.poll_down(i).len() as u64;
        if lost > 0 {
            self.stats.messages_lost_endpoint_down += lost;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
        }
    }

    /// Discards the uplinks due at a dead manager.
    pub fn discard_due_uplinks(&mut self) {
        for up in self.poll_up() {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: up.server });
        }
    }

    /// Message-layer fault counters accumulated so far.
    pub fn stats(&self) -> ClusterControlStats {
        self.stats
    }

    /// The deterministic fault history.
    pub fn records(&self) -> &[ClusterFaultRecord] {
        self.records.as_slice()
    }

    /// Number of channels.
    pub fn servers(&self) -> usize {
        self.servers
    }
}

/// How the manager splits the cluster budget across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Apportionment {
    /// Even split across alive servers.
    Equal,
    /// Utility-curve DP split ([`ClusterManager::apportion_cluster`]).
    UtilityDp,
}

/// A cluster policy expressed for the managed control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagedPolicy {
    /// Report label.
    pub label: ClusterPolicy,
    /// Per-server mediation policy.
    pub kind: PolicyKind,
    /// Whether servers carry the Lead-Acid UPS.
    pub with_battery: bool,
    /// Budget apportionment strategy.
    pub apportionment: Apportionment,
}

impl ManagedPolicy {
    /// Equal split enforced by utility-unaware RAPL capping.
    pub fn equal_rapl() -> Self {
        Self {
            label: ClusterPolicy::EqualRapl,
            kind: PolicyKind::UtilUnaware,
            with_battery: false,
            apportionment: Apportionment::Equal,
        }
    }

    /// Equal split with `App+Res+ESD-Aware` mediation per server.
    pub fn equal_ours() -> Self {
        Self {
            label: ClusterPolicy::EqualOurs,
            kind: PolicyKind::AppResEsdAware,
            with_battery: true,
            apportionment: Apportionment::Equal,
        }
    }

    /// Utility-curve apportionment with `App+Res+ESD-Aware` mediation.
    pub fn unequal_ours() -> Self {
        Self {
            label: ClusterPolicy::UnequalOurs,
            kind: PolicyKind::AppResEsdAware,
            with_battery: true,
            apportionment: Apportionment::UtilityDp,
        }
    }
}

/// Tuning of the resilient manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Steps between heartbeats (each re-sends the current assignment,
    /// so a dropped assignment is repaired within one interval).
    pub heartbeat_interval_steps: u64,
    /// Steps of telemetry silence before a node is declared dead.
    pub dead_after_steps: u64,
    /// Steps between checkpoints of the apportionment state.
    pub checkpoint_interval_steps: u64,
    /// Steps a node must stay dead before its share is redistributed to
    /// the survivors. Redistribution re-plans every survivor, which
    /// costs real throughput, so short churn outages are ridden out by
    /// banking the dead node's headroom (strictly under budget) and
    /// only a sustained loss — a partition, a long outage — is worth
    /// re-cutting the pie for.
    pub reapportion_after_steps: u64,
    /// Idle-floor share reserved for a dead (or partitioned) node, so
    /// reapportioning survivors can never push the fleet over budget
    /// while the missing node decays toward the same floor.
    pub floor: Watts,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval_steps: 4,
            dead_after_steps: 30,
            checkpoint_interval_steps: 20,
            reapportion_after_steps: 60,
            floor: Watts::new(50.0),
        }
    }
}

/// The manager's replicated apportionment state (what checkpoints carry).
#[derive(Debug, Clone)]
struct ManagerState {
    epoch: u64,
    caps: Vec<Watts>,
    /// Change detector: Equal stores the last per-server share,
    /// UtilityDp the last total budget.
    last_key: Watts,
    alive: Vec<bool>,
    /// Step at which each currently-dead node was declared dead.
    dead_since: Vec<Option<u64>>,
    /// Nodes whose share has been redistributed to the survivors (dead
    /// past [`ManagerConfig::reapportion_after_steps`]). Freshly-dead
    /// nodes keep their assigned share — they draw nothing while down,
    /// so the fleet simply runs under budget until they return or the
    /// redistribution threshold passes.
    excluded: Vec<bool>,
    last_uplink_step: Vec<u64>,
}

impl ManagerState {
    fn initial(servers: usize, initial_share: Watts, apportionment: Apportionment) -> Self {
        Self {
            epoch: 0,
            caps: vec![initial_share; servers],
            last_key: match apportionment {
                // Mirrors the monolithic loops: the equal loop does not
                // re-send the boot share at step 0, the DP loop always
                // apportions at step 0.
                Apportionment::Equal => initial_share,
                Apportionment::UtilityDp => Watts::ZERO,
            },
            alive: vec![true; servers],
            dead_since: vec![None; servers],
            excluded: vec![false; servers],
            last_uplink_step: vec![0; servers],
        }
    }
}

/// The manager-side half of the fleet flight recorder: the merged
/// timeline, per-server ack watermarks, and the manager's own journal
/// fold position, checkpointed alongside the apportionment state so a
/// resilient standby resumes the timeline on takeover.
struct ManagerFleet {
    /// The manager's own flight recorder: mirrored control-plane fault
    /// events plus fleet-level decisions (breaker arm/trip/clamp) land
    /// here, then fold into the timeline under [`MANAGER_SERVER_ID`].
    obs: Obs,
    timeline: FleetTimeline,
    /// Per-server ack watermark: first journal seq not yet merged.
    /// Ridden back to each agent on every downlink wave.
    acked: Vec<u64>,
    /// First of the manager's own journal records not yet folded.
    own_shipped: u64,
    /// Digests whose ring wrapped past unshipped records (each carries
    /// a `DigestGap` marker in the timeline).
    digest_gaps: u64,
    checkpoint: Option<FleetCheckpoint>,
}

/// What a fleet-timeline checkpoint carries across manager failover.
/// The timeline itself is not copied: it only grows between
/// checkpoints, so a mark into its merge history is enough to rewind it.
#[derive(Clone)]
struct FleetCheckpoint {
    timeline: TimelineMark,
    acked: Vec<u64>,
    own_shipped: u64,
}

impl ManagerFleet {
    fn new(obs: Obs, servers: usize) -> Self {
        Self {
            obs,
            timeline: FleetTimeline::new(),
            acked: vec![0; servers],
            own_shipped: 0,
            digest_gaps: 0,
            checkpoint: None,
        }
    }

    /// Folds the manager's own journal delta into the timeline under
    /// [`MANAGER_SERVER_ID`]. Goes through the same digest path as the
    /// uplinked deltas so a wrapped manager ring leaves a `DigestGap`
    /// instead of a silent hole (no byte cap: the fold is local).
    fn fold_own_journal(&mut self) {
        let digest = self
            .obs
            .digest_since(MANAGER_SERVER_ID, self.own_shipped, usize::MAX);
        if digest.is_empty() {
            return;
        }
        if digest.wrapped {
            self.digest_gaps += 1;
        }
        self.timeline.merge_digest(&digest);
        self.own_shipped = digest.ack_to();
    }

    /// Merges one uplinked digest, advances the sender's ack watermark,
    /// and bumps the fleet-level metrics.
    fn fold_uplink(&mut self, server: usize, digest: &JournalDigest) {
        if digest.wrapped {
            self.digest_gaps += 1;
            self.obs.inc("digest_gaps_total");
        }
        let before = self.timeline.dedup_total();
        self.timeline.merge_digest(digest);
        let acked = &mut self.acked[server];
        *acked = (*acked).max(digest.ack_to());
        self.obs.inc_by("digest_bytes_total", digest.bytes);
        self.obs
            .inc_by("merge_dedup_total", self.timeline.dedup_total() - before);
        self.obs
            .set_gauge("timeline_len", self.timeline.len() as f64);
    }

    /// Publishes the per-server ack watermarks as labelled gauges.
    fn publish_ack_gauges(&self) {
        for (i, acked) in self.acked.iter().enumerate() {
            let server = i.to_string();
            let name = prom_label("last_acked_seq", &[("server", server.as_str())]);
            self.obs.set_gauge(&name, *acked as f64);
        }
    }
}

/// The cluster manager as a control-plane node.
struct Manager {
    resilient: bool,
    config: ManagerConfig,
    apportionment: Apportionment,
    curves: Option<Vec<Vec<(Watts, f64)>>>,
    servers: usize,
    initial_share: Watts,
    state: ManagerState,
    checkpoint: Option<ManagerState>,
    /// Fleet knowledge plane: the manager's replica of every published
    /// profile, rebroadcast to the agents with each downlink wave.
    store: Option<ProfileStore>,
    /// JSON snapshot of the store taken with each state checkpoint, so
    /// the resilient standby restores fleet knowledge on takeover.
    store_checkpoint: Option<String>,
    /// Fleet flight recorder (`None` when fleet recording is off).
    fleet: Option<ManagerFleet>,
    membership_dirty: bool,
    failovers: u64,
    checkpoints: u64,
    dead_declarations: u64,
    rejoins: u64,
    reapportionments: u64,
}

impl Manager {
    fn new(
        servers: usize,
        initial_share: Watts,
        apportionment: Apportionment,
        curves: Option<Vec<Vec<(Watts, f64)>>>,
        resilient: bool,
        config: ManagerConfig,
        store: Option<ProfileStore>,
    ) -> Self {
        Self {
            state: ManagerState::initial(servers, initial_share, apportionment),
            checkpoint: None,
            store,
            store_checkpoint: None,
            fleet: None,
            membership_dirty: false,
            failovers: 0,
            checkpoints: 0,
            dead_declarations: 0,
            rejoins: 0,
            reapportionments: 0,
            resilient,
            config,
            apportionment,
            curves,
            servers,
            initial_share,
        }
    }

    /// Standby takeover: the resilient standby restores the latest
    /// checkpoint and forces a fresh-epoch reapportionment; the naive
    /// standby cold-restarts from the boot state.
    fn failover(&mut self, step: u64) {
        self.failovers += 1;
        self.state = if self.resilient {
            self.checkpoint.clone().unwrap_or_else(|| {
                ManagerState::initial(self.servers, self.initial_share, self.apportionment)
            })
        } else {
            ManagerState::initial(self.servers, self.initial_share, self.apportionment)
        };
        if let Some(store) = self.store.as_mut() {
            // The standby's knowledge plane: the resilient flavor
            // restores the checkpointed snapshot (and re-learns anything
            // newer from subsequent uplinks); the naive flavor boots an
            // empty store and must recollect the whole fleet's profiles.
            let config = store.config();
            *store = self
                .store_checkpoint
                .as_deref()
                .filter(|_| self.resilient)
                .and_then(ProfileStore::from_json)
                .unwrap_or_else(|| ProfileStore::new(config));
        }
        // The fleet timeline lives (or dies) with the apportionment
        // state: the resilient standby resumes from the checkpointed
        // timeline and ack watermarks — rewound acks just trigger
        // harmless re-ships that the idempotent merge dedups — while
        // the naive standby starts empty with zeroed watermarks, so
        // every agent re-ships its whole retained ring. Either way the
        // manager's own fold position rewinds with the timeline, and
        // the idempotent re-fold repopulates whatever survived.
        if let Some(fleet) = self.fleet.as_mut() {
            match fleet.checkpoint.clone().filter(|_| self.resilient) {
                Some(cp) => {
                    fleet.timeline.rollback(cp.timeline);
                    fleet.acked = cp.acked;
                    fleet.own_shipped = cp.own_shipped;
                }
                None => {
                    fleet.timeline = FleetTimeline::new();
                    fleet.acked = vec![0; self.servers];
                    fleet.own_shipped = 0;
                }
            }
            fleet.obs.inc("timeline_failovers_total");
        }
        // Telemetry gathered before the crash is gone either way; grant
        // a fresh grace period so takeover does not mass-declare death.
        for t in &mut self.state.last_uplink_step {
            *t = step;
        }
        // Cold-restarted naive managers re-send by resetting the change
        // detector; the resilient one reapportions at a fresh epoch.
        if self.resilient {
            self.membership_dirty = true;
        } else {
            self.state.last_key = Watts::ZERO;
        }
    }

    /// One manager step: drain telemetry, track liveness, reapportion on
    /// budget or membership change, heartbeat, checkpoint.
    fn tick(&mut self, step: u64, total: Watts, plane: &mut ControlPlane) {
        if let Some(store) = self.store.as_mut() {
            store.set_epoch(step);
        }
        if let Some(fleet) = self.fleet.as_ref() {
            fleet.obs.set_epoch(self.state.epoch);
        }
        for up in plane.poll_up() {
            if let (Some(store), false) = (self.store.as_mut(), up.profiles.is_empty()) {
                store.merge_digests(&up.profiles);
            }
            if let (Some(fleet), Some(digest)) = (self.fleet.as_mut(), up.journal.as_ref()) {
                fleet.fold_uplink(up.server, digest);
            }
            if self.resilient && !self.state.alive[up.server] {
                self.state.alive[up.server] = true;
                self.state.dead_since[up.server] = None;
                self.rejoins += 1;
                if self.state.excluded[up.server] {
                    // Its share was redistributed; hand it back.
                    self.state.excluded[up.server] = false;
                    self.membership_dirty = true;
                }
            }
            let seen = &mut self.state.last_uplink_step[up.server];
            *seen = (*seen).max(up.sent_step);
        }
        if self.resilient {
            for i in 0..self.servers {
                if self.state.alive[i]
                    && step.saturating_sub(self.state.last_uplink_step[i])
                        > self.config.dead_after_steps
                {
                    self.state.alive[i] = false;
                    self.state.dead_since[i] = Some(step);
                    self.dead_declarations += 1;
                }
                if !self.state.excluded[i] {
                    if let Some(since) = self.state.dead_since[i] {
                        if step.saturating_sub(since) >= self.config.reapportion_after_steps {
                            self.state.excluded[i] = true;
                            self.membership_dirty = true;
                        }
                    }
                }
            }
        }

        let n_excluded = self.state.excluded.iter().filter(|e| **e).count();
        let n_included = self.servers - n_excluded;
        if n_included > 0 {
            let floor = self.config.floor;
            let key = match self.apportionment {
                Apportionment::Equal => (total - floor * n_excluded as f64) / n_included as f64,
                Apportionment::UtilityDp => total,
            };
            let changed = (key - self.state.last_key).abs() > Watts::new(1e-6);
            if changed || self.membership_dirty {
                let repair = !changed;
                if self.membership_dirty {
                    self.reapportionments += 1;
                    self.membership_dirty = false;
                }
                self.state.last_key = key;
                self.state.epoch = step + 1;
                if let Some(fleet) = self.fleet.as_ref() {
                    // Fresh-epoch records (the broadcast wave below)
                    // carry the new epoch in the timeline key.
                    fleet.obs.set_epoch(self.state.epoch);
                }
                self.state.caps = {
                    let _span = plane.observability().map(|o| o.span("coordination"));
                    self.apportion(total, floor)
                };
                self.broadcast(plane, repair);
            } else if self.resilient
                && self.config.heartbeat_interval_steps > 0
                && step.is_multiple_of(self.config.heartbeat_interval_steps)
            {
                self.broadcast(plane, true);
            }
        }

        // Fold the manager's own journal (plane fault mirrors, breaker
        // decisions) into the timeline every tick, so the checkpoint
        // below always carries a fold position consistent with the
        // timeline it snapshots.
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.fold_own_journal();
        }

        if self.resilient
            && self.config.checkpoint_interval_steps > 0
            && step.is_multiple_of(self.config.checkpoint_interval_steps)
        {
            self.checkpoint = Some(self.state.clone());
            self.store_checkpoint = self.store.as_ref().map(ProfileStore::snapshot_json);
            if let Some(fleet) = self.fleet.as_mut() {
                fleet.checkpoint = Some(FleetCheckpoint {
                    timeline: fleet.timeline.mark(),
                    acked: fleet.acked.clone(),
                    own_shipped: fleet.own_shipped,
                });
                fleet.obs.inc("timeline_checkpoints_total");
            }
            self.checkpoints += 1;
        }
    }

    /// Splits `total` over the non-excluded set, reserving `floor` per
    /// excluded (long-dead) node — which keeps the assigned sum within
    /// budget even while a merely-partitioned "dead" node still draws
    /// its decayed fallback floor. Freshly-dead nodes are apportioned
    /// normally: they draw nothing while down, and keeping their share
    /// on the books means a quick rejoin needs no redistribution at all.
    fn apportion(&self, total: Watts, floor: Watts) -> Vec<Watts> {
        let excluded = &self.state.excluded;
        let n_excluded = excluded.iter().filter(|e| **e).count();
        let n_included = self.servers - n_excluded;
        let budget = total - floor * n_excluded as f64;
        match self.apportionment {
            Apportionment::Equal => {
                let share = budget / n_included as f64;
                excluded
                    .iter()
                    .map(|out| if *out { floor } else { share })
                    .collect()
            }
            Apportionment::UtilityDp => {
                let curves = self.curves.as_ref().expect("UtilityDp carries curves");
                let included_curves: Vec<Vec<(Watts, f64)>> = curves
                    .iter()
                    .zip(excluded)
                    .filter(|(_, out)| !**out)
                    .map(|(c, _)| c.clone())
                    .collect();
                let split = ClusterManager::apportion_cluster(&included_curves, budget);
                let mut split = split.into_iter();
                excluded
                    .iter()
                    .map(|out| {
                        if *out {
                            floor
                        } else {
                            split.next().expect("one cap per included server")
                        }
                    })
                    .collect()
            }
        }
    }

    fn broadcast(&self, plane: &mut ControlPlane, repair: bool) {
        // Every downlink wave carries the manager's full digest set:
        // merge idempotence makes the redundancy free of harm, and it is
        // what lets a healed partition catch up within one heartbeat.
        let profiles = self
            .store
            .as_ref()
            .map(ProfileStore::digests)
            .unwrap_or_default();
        for i in 0..self.servers {
            plane.send_down(
                i,
                Downlink {
                    epoch: self.state.epoch,
                    cap: self.state.caps[i],
                    repair,
                    profiles: profiles.clone(),
                    // Ack watermarks ride the existing waves: a dropped
                    // downlink just means the agent re-ships a digest
                    // the idempotent merge dedups for free.
                    journal_acked: self.fleet.as_ref().map_or(0, |f| f.acked[i]),
                },
            );
        }
    }
}

/// The facility's upstream protection circuit.
///
/// The cluster budget is a hard utility contract, not advice: a fleet
/// that keeps drawing above it gets cut off upstream. When the
/// aggregate net draw stays over budget for `trip_after_steps`
/// consecutive steps the breaker trips — every up server is slammed to
/// `floor` for `hold_steps` steps, then restored to its pre-trip cap (a
/// resilient agent additionally flags itself so the next heartbeat
/// corrects any staleness the hold concealed). Both control-plane
/// flavors face the same breaker — it is physics, not policy — and a
/// run that never violates never trips.
///
/// The breaker is opt-in: [`ControlOptions::perfect`] disables it so
/// the managed fig-12 paths stay bit-identical to the old monolithic
/// loops (utility-unaware RAPL capping overshoots transiently while it
/// actuates a budget drop, which a live breaker would punish). The
/// fault experiments enable it with the default profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive violating steps before the breaker trips. Zero
    /// disables the breaker entirely.
    pub trip_after_steps: u64,
    /// Steps the emergency floor clamp stays in force once tripped.
    pub hold_steps: u64,
    /// The clamp cap (a parked server).
    pub floor: Watts,
}

impl BreakerConfig {
    /// No facility protection: violations are recorded but never
    /// punished.
    pub fn disabled() -> Self {
        Self {
            trip_after_steps: 0,
            ..Self::default()
        }
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after_steps: 10,
            hold_steps: 20,
            floor: Watts::new(50.0),
        }
    }
}

/// Tuning of the fleet flight recorder
/// ([`run_cluster_flight_recorded`]): every agent gets its own journal,
/// ships size-capped deltas on its uplinks, and the manager folds them
/// (plus its own journal) into a merged [`FleetTimeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetObsOptions {
    /// Per-journal configuration (ring capacity, heartbeat thresholds),
    /// shared by every server journal and the manager's.
    pub config: ObsConfig,
    /// Byte budget for one uplinked digest. A digest always carries at
    /// least one record so a backlog drains even under a tiny budget;
    /// the cap bounds bytes-on-the-wire per wave at
    /// `servers * max_digest_bytes`.
    pub max_digest_bytes: usize,
}

impl Default for FleetObsOptions {
    fn default() -> Self {
        Self {
            config: ObsConfig::default(),
            // Steady-state deltas are a handful of records (~120 bytes
            // each); 8 KiB lets a healed partition catch up within a
            // few waves without flooding the link.
            max_digest_bytes: 8192,
        }
    }
}

/// What a flight-recorded run hands back on top of the resilience
/// metrics: the merged timeline, the fleet-level metrics registry, and
/// the raw journal handles for per-server drill-down.
#[derive(Debug, Clone)]
pub struct FleetObsReport {
    /// The merged fleet timeline, keyed `(epoch, poll, server, seq)`.
    pub timeline: FleetTimeline,
    /// Manager-side fleet metrics (digest_bytes_total,
    /// merge_dedup_total, timeline_len, per-server last_acked_seq).
    pub metrics: MetricsRegistry,
    /// Digest bytes shipped on uplinks over the whole run.
    pub digest_bytes_total: u64,
    /// Largest single-step digest payload across all servers — bounded
    /// by `servers * max_digest_bytes` by construction.
    pub max_wave_bytes: u64,
    /// Digests that carried a `DigestGap` (ring wrapped past unshipped
    /// records).
    pub digest_gaps: u64,
    /// Final per-server ack watermarks.
    pub last_acked: Vec<u64>,
    /// The manager's own journal handle.
    pub manager_obs: Obs,
    /// Each server's journal handle, by server index.
    pub server_obs: Vec<Obs>,
}

/// Online-calibration and knowledge-plane configuration for a managed
/// cluster run.
///
/// `None` in [`ControlOptions::warm_start`] keeps the classic
/// exhaustive-calibration fleet, bit-identical to the pre-knowledge-plane
/// control plane. `Some` switches every server to sparse online
/// calibration; the store itself is a second opt-in so the experiment
/// can compare cold online calibration (probe on every admission)
/// against the warm fleet (consult the store first) under identical
/// probe schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartOptions {
    /// Store tuning, or `None` for the cold-start baseline (online
    /// calibration without the knowledge plane).
    pub store: Option<StoreConfig>,
    /// Sparse-sampling fraction of the knob grid per admission.
    pub sampling_fraction: f64,
    /// Forced E4 drift injections: at step `.0`, server `.1`
    /// re-calibrates its first app, tombstoning the profile fleet-wide.
    pub drift_at: Vec<(u64, usize)>,
}

impl WarmStartOptions {
    /// Store decay tuned to control-plane epochs: assignment epochs are
    /// derived from control steps (~2 per second), so the per-epoch
    /// decay must be gentle for a profile to stay confident across a
    /// multi-minute run while still aging out abandoned entries.
    pub const CLUSTER_DECAY: f64 = 0.9999;

    /// The warm fleet: online calibration plus the knowledge plane.
    pub fn warm() -> Self {
        Self {
            store: Some(StoreConfig {
                decay_per_epoch: Self::CLUSTER_DECAY,
                ..StoreConfig::default()
            }),
            sampling_fraction: 0.10,
            drift_at: Vec::new(),
        }
    }

    /// The cold baseline: identical probe schedules, no store.
    pub fn cold() -> Self {
        Self {
            store: None,
            ..Self::warm()
        }
    }
}

/// Options for a managed cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOptions {
    /// Resilient (heartbeats, checkpoints, liveness, fallback caps) or
    /// naive (fire-and-forget) flavor.
    pub resilient: bool,
    /// Fault injection configuration.
    pub faults: ClusterFaultConfig,
    /// Manager tuning.
    pub manager: ManagerConfig,
    /// Agent tuning.
    pub agent: AgentConfig,
    /// Facility protection (shared by both flavors).
    pub breaker: BreakerConfig,
    /// Online calibration + profile knowledge plane (`None` keeps the
    /// exhaustive-calibration fleet bit-identical to before).
    pub warm_start: Option<WarmStartOptions>,
    /// Non-intrusive per-app power estimation on every server: each
    /// mediator plans on disaggregated shares instead of the oracle
    /// breakdown, and uplinks carry the estimated shares. `None` (the
    /// default, and what [`ControlOptions::perfect`] uses) keeps the
    /// oracle fleet bit-identical to before.
    pub estimation: Option<EstimatorConfig>,
}

impl ControlOptions {
    /// The fault-free resilient configuration the refactored
    /// [`ClusterManager::run`] uses: bit-identical to the old monolithic
    /// loops.
    pub fn perfect(seed: u64) -> Self {
        Self {
            resilient: true,
            faults: ClusterFaultConfig::none(seed),
            manager: ManagerConfig::default(),
            agent: AgentConfig::default(),
            breaker: BreakerConfig::disabled(),
            warm_start: None,
            estimation: None,
        }
    }
}

/// Outcome of one managed cluster run: the policy report plus the
/// resilience metrics layered on top.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The Fig. 12b-style policy report.
    pub report: ClusterReport,
    /// Seconds the fleet's aggregate net draw exceeded the budget.
    pub violation_seconds: f64,
    /// Integral of the excess above budget (watt-seconds).
    pub excess_watt_seconds: f64,
    /// Control-plane fault and response counters.
    pub stats: ClusterControlStats,
    /// Cluster-level time series (net power, budget, violation-seconds,
    /// heartbeat misses, failovers, reapportionments).
    pub recorder: TraceRecorder,
    /// FNV-1a digest of the deterministic fault history.
    pub trace_digest: u64,
    /// Fleet-wide probe accounting across every server incarnation
    /// (all-cold when warm start is off).
    pub probe_split: ProbeSplit,
    /// Fleet-wide profile-store event counters (all zero when warm
    /// start is off).
    pub store_stats: ProfileStoreStats,
    /// Entries on which the manager's store and any agent's store still
    /// disagree at run end (0 = the knowledge plane converged). `None`
    /// when the knowledge plane is off.
    pub store_divergence: Option<usize>,
    /// Fleet flight-recorder outcome (`None` unless the run came
    /// through [`run_cluster_flight_recorded`]).
    pub fleet: Option<FleetObsReport>,
}

/// Fingerprints whose profiles differ between two digest sets (an entry
/// present on only one side counts as differing).
fn digest_divergence(a: &[ProfileDigest], b: &[ProfileDigest]) -> usize {
    let index = |side: &[ProfileDigest]| -> std::collections::BTreeMap<_, _> {
        side.iter()
            .map(|d| (d.fingerprint, d.profile.clone()))
            .collect()
    };
    let ma = index(a);
    let mb = index(b);
    ma.keys()
        .chain(mb.keys())
        .filter(|fp| ma.get(*fp) != mb.get(*fp))
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Per-server value curves over the candidate caps, through the shared
/// [`MeasurementCache`] so repeated cluster experiments stop
/// re-measuring identical mixes.
pub fn value_curves(spec: &ServerSpec, mixes: &[Mix]) -> Vec<Vec<(Watts, f64)>> {
    let esd = EsdParams {
        efficiency: Ratio::new(0.75),
        max_discharge: Watts::new(100.0),
        max_charge: Watts::new(50.0),
    };
    let policy = PowerPolicy::new(PolicyKind::AppResEsdAware, spec.clone());
    let cache = MeasurementCache::global();
    mixes
        .iter()
        .map(|mix| {
            let a = cache.measure(spec, &mix.app1);
            let b = cache.measure(spec, &mix.app2);
            let apps = [(mix.app1.name(), &*a), (mix.app2.name(), &*b)];
            ClusterManager::candidate_caps()
                .map(|cap| {
                    let schedule = policy.plan(&apps, cap, Some(esd));
                    (cap, schedule.expected_mean_normalized(&apps))
                })
                .collect()
        })
        .collect()
}

/// Runs `policy` over `trace` through the manager ↔ agent control plane.
///
/// Each control step proceeds in phases, all deterministic: node churn
/// (restarts, then crash rolls), the manager (takeover, telemetry drain,
/// apportionment, heartbeats, checkpoint), downlink delivery to the
/// agents, the simulation step of every up node (energy accounted in
/// server index order), telemetry uplinks, and budget scoring.
pub fn run_cluster(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
) -> ResilienceReport {
    run_cluster_observed(mixes, policy, trace, dt, options, None)
}

/// [`run_cluster`] with an optional flight-recorder handle attached to
/// the control plane and every agent's mediator and simulation. Passing
/// `None` is exactly [`run_cluster`]; the handle changes bookkeeping
/// only, never physics or policy.
pub fn run_cluster_observed(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
    obs: Option<&Obs>,
) -> ResilienceReport {
    run_cluster_inner(mixes, policy, trace, dt, options, obs, None)
}

/// [`run_cluster`] with the *fleet* flight recorder on: every server
/// journals locally and ships size-capped deltas on its uplinks, the
/// manager journals its own decisions (and the control plane's mirrored
/// fault events) and folds everything into a merged [`FleetTimeline`]
/// returned in [`ResilienceReport::fleet`]. Like the single-journal
/// mode, recording changes bookkeeping only — the physics, policy and
/// fault history stay bit-identical to [`run_cluster`].
pub fn run_cluster_flight_recorded(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
    fleet: &FleetObsOptions,
) -> ResilienceReport {
    run_cluster_inner(mixes, policy, trace, dt, options, None, Some(fleet))
}

fn run_cluster_inner(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
    obs: Option<&Obs>,
    fleet: Option<&FleetObsOptions>,
) -> ResilienceReport {
    let spec = ServerSpec::xeon_e5_2620();
    let servers = mixes.len();
    assert!(servers > 0, "cluster needs at least one server");
    let steps = (trace.duration().value() / dt.value()).ceil() as u64;
    let initial_share = trace.at(Seconds::ZERO) / servers as f64;

    let mut agents: Vec<ServerAgent> = mixes
        .iter()
        .enumerate()
        .map(|(i, mix)| {
            ServerAgent::new_with(
                &spec,
                mix,
                policy.kind,
                policy.with_battery,
                initial_share,
                options.resilient,
                options.agent,
                i as u64,
                options.warm_start.as_ref(),
            )
        })
        .collect();
    let nocap: Vec<Vec<(String, f64)>> = mixes
        .iter()
        .map(|mix| crate::fleet::nocap_rates(&spec, mix))
        .collect();
    let curves = match policy.apportionment {
        Apportionment::Equal => None,
        Apportionment::UtilityDp => Some(value_curves(&spec, mixes)),
    };

    if let Some(config) = options.estimation {
        for agent in &mut agents {
            agent.enable_estimation(config);
        }
    }
    let mut plane = ControlPlane::new(options.faults.clone(), servers);
    if let Some(obs) = obs {
        plane.set_observability(obs.clone(), dt);
        for agent in &mut agents {
            agent.set_observability(obs.clone());
        }
    }
    // Fleet recording: one journal per server, one for the manager. The
    // plane mirrors its fault events into the manager's journal (that
    // is where endpoint losses and takeovers are observed from), and
    // each agent journals into its own ring, shipped upstream as
    // digests.
    let fleet_server_obs: Option<Vec<Obs>> =
        fleet.map(|fo| (0..servers).map(|_| Obs::new(fo.config.clone())).collect());
    let fleet_manager_obs: Option<Obs> = fleet.map(|fo| Obs::new(fo.config.clone()));
    if let (Some(server_obs), Some(manager_obs)) = (&fleet_server_obs, &fleet_manager_obs) {
        plane.set_observability(manager_obs.clone(), dt);
        for (agent, o) in agents.iter_mut().zip(server_obs) {
            agent.set_observability(o.clone());
        }
    }
    let manager_store = options
        .warm_start
        .as_ref()
        .and_then(|w| w.store)
        .map(ProfileStore::new);
    let mut manager = Manager::new(
        servers,
        initial_share,
        policy.apportionment,
        curves,
        options.resilient,
        options.manager,
        manager_store,
    );
    if let Some(manager_obs) = &fleet_manager_obs {
        manager.fleet = Some(ManagerFleet::new(manager_obs.clone(), servers));
    }
    // Fleet-level decisions (breaker arm/trip/clamp) journal into the
    // manager's fleet journal, or — in the shared single-journal mode —
    // into that shared journal, so either recording flavor can explain
    // a trip. `None` when recording is off keeps the run allocation-
    // and bookkeeping-free.
    let breaker_obs: Option<&Obs> = fleet_manager_obs.as_ref().or(obs);
    let mut recorder = TraceRecorder::new();
    let mut energy = Joules::ZERO;
    let mut violation_seconds = 0.0f64;
    let mut excess_watt_seconds = 0.0f64;
    let mut breaker_streak = 0u64;
    let mut breaker_hold_until: Option<u64> = None;
    let mut breaker_trips = 0u64;
    let mut digest_bytes_total = 0u64;
    let mut max_wave_bytes = 0u64;
    let mut step_nets: Vec<(usize, Watts)> = Vec::new();
    let mut now = Seconds::ZERO;

    for step in 0..steps {
        plane.begin_step(step);
        if let Some(manager_obs) = &fleet_manager_obs {
            // Manager-side records get a poll counter aligned with the
            // control step, comparable to the per-server mediator polls.
            manager_obs.begin_poll();
        }

        // Phase 1: node churn. Restarts first (a node that crashed
        // `node_down_steps` ago rejoins), then fresh crash rolls.
        for (i, agent) in agents.iter_mut().enumerate() {
            if !plane.node_up(i) {
                if plane.restart_due(i) {
                    // A rebooted node's journal clock resumes at fleet
                    // time (its ring survived on local disk; the
                    // downtime is simply a gap in its records).
                    agent.sync_clock(now);
                    agent.restart();
                }
            } else if plane.roll_crash(i) {
                agent.crash();
            }
        }

        // Phase 1b: facility-protection release. The cooldown expired:
        // every up node gets its pre-trip cap back (a node that crashed
        // during the hold cleared its clamp when it rebooted).
        if breaker_hold_until == Some(step) {
            breaker_hold_until = None;
            if let Some(o) = breaker_obs {
                o.emit(now, ObsEvent::BreakerRelease);
            }
            for (i, agent) in agents.iter_mut().enumerate() {
                if plane.node_up(i) {
                    agent.emergency_release();
                }
            }
        }

        // Phase 2: the manager (or its corpse).
        let budget = trace.at(now);
        if plane.manager_takeover_now() {
            manager.failover(step);
        }
        if plane.manager_up() {
            manager.tick(step, budget, &mut plane);
        } else {
            plane.discard_due_uplinks();
        }

        // Phase 3: downlink delivery.
        for (i, agent) in agents.iter_mut().enumerate() {
            if plane.node_up(i) {
                let msgs = plane.poll_down(i);
                agent.receive(&msgs);
            } else {
                plane.discard_due_downlinks(i);
            }
        }

        // Phase 3b: scheduled E4 drift injections — the server's first
        // app stops matching its profile and must re-calibrate,
        // tombstoning the fleet-wide store entry on the way.
        if let Some(warm) = &options.warm_start {
            for &(at, server) in &warm.drift_at {
                if at == step && server < servers && plane.node_up(server) {
                    agents[server].force_drift();
                }
            }
        }

        // Phase 4: simulation step of every up node + telemetry uplink.
        let mut cluster_net = Watts::ZERO;
        let mut wave_bytes = 0u64;
        step_nets.clear();
        for (i, agent) in agents.iter_mut().enumerate() {
            if !plane.node_up(i) {
                continue;
            }
            let report = agent.step(dt);
            energy += report.net_power * dt;
            cluster_net += report.net_power;
            if breaker_obs.is_some() {
                step_nets.push((i, report.net_power));
            }
            // Since-last-ack journal delta. Shipped on *every* wave
            // until acked — a dropped uplink or a dead manager just
            // means the next wave re-ships a digest the idempotent
            // fleet merge dedups for free.
            let journal = fleet.and_then(|fo| agent.ship_journal(fo.max_digest_bytes));
            if let Some(digest) = &journal {
                wave_bytes += digest.bytes;
            }
            plane.send_up(
                i,
                Uplink {
                    server: i,
                    sent_step: step,
                    net_power: report.net_power,
                    profiles: agent.take_profile_digests(),
                    app_shares: if options.estimation.is_some() {
                        agent.estimated_shares()
                    } else {
                        Vec::new()
                    },
                    journal,
                },
            );
        }
        digest_bytes_total += wave_bytes;
        max_wave_bytes = max_wave_bytes.max(wave_bytes);

        // Phase 5: budget scoring, facility protection, and cluster
        // telemetry.
        let violating = cluster_net.violates_cap(budget);
        if violating {
            violation_seconds += dt.value();
            excess_watt_seconds += (cluster_net - budget).value() * dt.value();
            breaker_streak += 1;
            if let Some(o) = breaker_obs {
                // The arming evidence: the fleet-level violation, then
                // each up server drawing above its *intended* share.
                // Comparing against the manager's caps (not the cap the
                // server currently obeys) attributes overdraw to a
                // server running on a stale assignment — exactly the
                // naive-flavor failure a merged timeline must surface.
                o.emit(
                    now,
                    ObsEvent::FleetOverBudget {
                        net_w: cluster_net.value(),
                        budget_w: budget.value(),
                        streak: breaker_streak,
                    },
                );
                for &(i, net) in &step_nets {
                    let share = manager.state.caps[i];
                    if net.violates_cap(share) {
                        o.emit(
                            now,
                            ObsEvent::ServerOverdraw {
                                server: i,
                                net_w: net.value(),
                                share_w: share.value(),
                            },
                        );
                    }
                }
            }
        } else {
            breaker_streak = 0;
        }
        if options.breaker.trip_after_steps > 0
            && breaker_hold_until.is_none()
            && breaker_streak >= options.breaker.trip_after_steps
        {
            breaker_trips += 1;
            breaker_streak = 0;
            breaker_hold_until = Some(step + options.breaker.hold_steps);
            if let Some(o) = breaker_obs {
                o.emit(
                    now,
                    ObsEvent::BreakerTrip {
                        hold_steps: options.breaker.hold_steps,
                        floor_w: options.breaker.floor.value(),
                    },
                );
            }
            for (i, agent) in agents.iter_mut().enumerate() {
                if plane.node_up(i) {
                    agent.emergency_clamp(options.breaker.floor);
                    if let Some(o) = breaker_obs {
                        o.emit(now, ObsEvent::EmergencyClamp { server: i });
                    }
                }
            }
        }
        recorder.push("cluster_net_power", now, cluster_net.value());
        recorder.push("cluster_budget", now, budget.value());
        recorder.push("violation_seconds", now, violation_seconds);
        recorder.push(
            "heartbeat_misses",
            now,
            agents
                .iter()
                .map(ServerAgent::heartbeat_misses)
                .sum::<u64>() as f64,
        );
        recorder.push("failovers", now, manager.failovers as f64);
        recorder.push("reapportionments", now, manager.reapportionments as f64);
        recorder.push("breaker_trips", now, breaker_trips as f64);
        if options.warm_start.is_some() {
            let fleet = agents.iter().fold(ProfileStoreStats::default(), |acc, a| {
                acc.merged(&a.store_stats())
            });
            recorder.push("profile_hits", now, fleet.hits as f64);
            recorder.push("profile_misses", now, fleet.misses as f64);
            recorder.push("profile_invalidations", now, fleet.invalidations as f64);
            recorder.push("profile_evictions", now, fleet.evictions as f64);
            recorder.push("profile_store_bytes", now, fleet.bytes as f64);
        }
        now += dt;
    }

    let simulated = Seconds::new(steps as f64 * dt.value());
    let mut per_app_perf = Vec::new();
    for (i, rates) in nocap.iter().enumerate() {
        for (name, rate) in rates {
            let denom = rate * simulated.value();
            per_app_perf.push(if denom > 0.0 {
                agents[i].total_ops(name) / denom
            } else {
                0.0
            });
        }
    }

    let mut stats = plane.stats();
    stats.heartbeat_misses = agents.iter().map(ServerAgent::heartbeat_misses).sum();
    stats.fallback_engagements = agents.iter().map(ServerAgent::fallback_engagements).sum();
    stats.manager_failovers = manager.failovers;
    stats.checkpoints = manager.checkpoints;
    stats.dead_declarations = manager.dead_declarations;
    stats.rejoins = manager.rejoins;
    stats.reapportionments = manager.reapportionments;
    stats.breaker_trips = breaker_trips;

    let probe_split = agents
        .iter()
        .fold(ProbeSplit::default(), |acc, a| acc.merged(&a.probe_split()));
    let store_stats = agents.iter().fold(ProfileStoreStats::default(), |acc, a| {
        acc.merged(&a.store_stats())
    });
    let store_divergence = manager.store.as_ref().map(|store| {
        let reference = store.digests();
        agents
            .iter()
            .map(|a| digest_divergence(&reference, &a.store_digests()))
            .sum()
    });

    // Fleet flight-recorder epilogue: fold the manager's last journal
    // records (phase-5 breaker decisions land after its tick) and any
    // server records still in flight when the run ended, so the
    // returned timeline is complete — in a live deployment those would
    // simply ship on the next wave.
    let fleet_report = fleet_manager_obs.map(|manager_obs| {
        let mf = manager.fleet.as_mut().expect("fleet recording enabled");
        mf.fold_own_journal();
        let server_obs = fleet_server_obs.unwrap_or_default();
        for (i, o) in server_obs.iter().enumerate() {
            // Local drain, not a wire ship: merge directly so the
            // digest_bytes_total metric keeps counting uplink bytes
            // only.
            let digest = o.digest_since(i as u64, mf.acked[i], usize::MAX);
            if digest.wrapped {
                mf.digest_gaps += 1;
            }
            mf.timeline.merge_digest(&digest);
            mf.acked[i] = mf.acked[i].max(digest.ack_to());
        }
        mf.obs.set_gauge("timeline_len", mf.timeline.len() as f64);
        mf.publish_ack_gauges();
        FleetObsReport {
            timeline: std::mem::take(&mut mf.timeline),
            metrics: manager_obs.metrics(),
            digest_bytes_total,
            max_wave_bytes,
            digest_gaps: mf.digest_gaps,
            last_acked: mf.acked.clone(),
            manager_obs,
            server_obs,
        }
    });

    ResilienceReport {
        report: ClusterReport::from_parts(policy.label, per_app_perf, energy),
        violation_seconds,
        excess_watt_seconds,
        stats,
        trace_digest: fault_trace_digest(plane.records()),
        recorder,
        probe_split,
        store_stats,
        store_divergence,
        fleet: fleet_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_telemetry::metrics::prom_label;
    use powermed_workloads::mixes;

    const DT: Seconds = Seconds::new(0.5);

    fn mixes_for(n: usize) -> Vec<Mix> {
        (0..n).map(|i| mixes::mix((i % 15) + 1).unwrap()).collect()
    }

    fn short_trace(servers: usize) -> ClusterPowerTrace {
        ClusterPowerTrace::synthetic_diurnal(servers, Seconds::new(60.0), 3)
            .peak_shaved(Ratio::new(0.30))
            .clamped_below(Watts::new(78.0 * servers as f64))
    }

    #[test]
    fn estimating_fleet_completes_under_the_same_fault_history() {
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let oracle = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(3),
        );
        let estimating = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                estimation: Some(EstimatorConfig::default()),
                ..ControlOptions::perfect(3)
            },
        );
        // Estimation changes what the mediators plan on, never the
        // control plane's fault stream (CRN holds across the flavors).
        assert_eq!(oracle.trace_digest, estimating.trace_digest);
        for perf in &estimating.report.per_app_perf {
            assert!(
                (0.05..=1.1).contains(perf),
                "estimating fleet keeps apps running: {perf}"
            );
        }
    }

    #[test]
    fn fault_free_plane_consumes_no_randomness_and_delivers_everything() {
        let mut plane = ControlPlane::new(ClusterFaultConfig::none(1), 2);
        plane.begin_step(0);
        plane.send_down(0, Downlink::assignment(1, Watts::new(90.0), false));
        plane.send_up(1, Uplink::report(1, 0, Watts::new(80.0)));
        assert_eq!(plane.poll_down(0).len(), 1);
        assert!(plane.poll_up().is_empty(), "uplinks land next step");
        plane.begin_step(1);
        assert_eq!(plane.poll_up().len(), 1);
        assert_eq!(plane.stats().injected_events(), 0);
        assert!(plane.records().is_empty());
    }

    #[test]
    fn lossy_plane_is_deterministic_per_seed() {
        let config = ClusterFaultConfig {
            downlink_drop_prob: 0.3,
            downlink_delay_max_steps: 2,
            uplink_drop_prob: 0.3,
            uplink_delay_max_steps: 2,
            ..ClusterFaultConfig::none(9)
        };
        let run = |config: &ClusterFaultConfig| {
            let mut plane = ControlPlane::new(config.clone(), 3);
            for step in 0..50 {
                plane.begin_step(step);
                for i in 0..3 {
                    plane.send_down(i, Downlink::assignment(step, Watts::new(90.0), false));
                    plane.send_up(i, Uplink::report(i, step, Watts::new(80.0)));
                    plane.poll_down(i);
                }
                plane.poll_up();
            }
            (fault_trace_digest(plane.records()), plane.stats())
        };
        let (d1, s1) = run(&config);
        let (d2, s2) = run(&config);
        assert_eq!(d1, d2, "same seed, same fault history");
        assert_eq!(s1, s2);
        assert!(s1.downlinks_dropped > 0);
        assert!(s1.uplinks_delayed > 0);
        let reseeded = ClusterFaultConfig { seed: 10, ..config };
        let (d3, _) = run(&reseeded);
        assert_ne!(d1, d3, "different seed, different fault history");
    }

    #[test]
    fn partition_cuts_both_directions_for_the_window() {
        let config = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 0,
                from_step: 5,
                until_step: 10,
            }],
            ..ClusterFaultConfig::none(4)
        };
        let mut plane = ControlPlane::new(config, 2);
        plane.begin_step(5);
        assert!(plane.partitioned(0));
        assert!(!plane.partitioned(1));
        plane.send_down(0, Downlink::assignment(1, Watts::new(90.0), false));
        plane.send_up(0, Uplink::report(0, 5, Watts::new(80.0)));
        assert_eq!(plane.stats().messages_lost_endpoint_down, 2);
        plane.begin_step(10);
        assert!(!plane.partitioned(0), "window end is exclusive");
    }

    #[test]
    fn managed_equal_matches_monolithic_run_bit_for_bit() {
        // The zero-cost-off contract, at unit-test scale: the refactored
        // control plane with faults off reproduces the monolithic loop.
        let trace = short_trace(2);
        let mono = ClusterManager::new(2, 7).run(ClusterPolicy::EqualOurs, &trace, DT);
        let managed = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(7),
        );
        assert_eq!(mono, managed.report);
        assert_eq!(managed.stats.injected_events(), 0);
        assert_eq!(managed.stats.heartbeat_misses, 0);
        assert_eq!(managed.stats.fallback_engagements, 0);
    }

    #[test]
    fn managed_unequal_matches_monolithic_run_bit_for_bit() {
        let trace = short_trace(2);
        let mono = ClusterManager::new(2, 7).run(ClusterPolicy::UnequalOurs, &trace, DT);
        let managed = run_cluster(
            &mixes_for(2),
            ManagedPolicy::unequal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(7),
        );
        assert_eq!(mono, managed.report);
    }

    #[test]
    fn naive_and_resilient_agree_when_faults_are_off() {
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let resilient = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(11),
        );
        let naive = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                resilient: false,
                ..ControlOptions::perfect(11)
            },
        );
        assert_eq!(resilient.report, naive.report);
        assert_eq!(resilient.trace_digest, naive.trace_digest);
    }

    #[test]
    fn node_crash_restarts_and_rejoins() {
        let config = ClusterFaultConfig {
            node_crash_prob: 0.02,
            node_down_steps: 10,
            ..ClusterFaultConfig::none(21)
        };
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &short_trace(2),
            DT,
            &ControlOptions {
                faults: config,
                ..ControlOptions::perfect(21)
            },
        );
        assert!(report.stats.node_crashes > 0, "{:?}", report.stats);
        assert!(report.stats.node_restarts > 0);
        assert!(report.report.aggregate_normalized_perf > 0.0);
    }

    #[test]
    fn manager_failover_restores_from_checkpoint() {
        let config = ClusterFaultConfig {
            manager_crash_step: Some(40),
            manager_takeover_steps: 20,
            ..ClusterFaultConfig::none(31)
        };
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &short_trace(2),
            DT,
            &ControlOptions {
                faults: config,
                ..ControlOptions::perfect(31)
            },
        );
        assert_eq!(report.stats.manager_failovers, 1);
        assert!(report.stats.checkpoints > 0);
        // The takeover reapportions at a fresh epoch.
        assert!(report.stats.reapportionments >= 1);
        assert!(report.report.aggregate_normalized_perf > 0.0);
    }

    #[test]
    fn partitioned_agent_falls_back_and_stays_near_budget() {
        // Server 0 is cut off for 40 s; the resilient flavor decays it
        // to the floor while the naive one keeps the stale cap.
        let trace = short_trace(2);
        let config = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 0,
                from_step: 20,
                until_step: 100,
            }],
            ..ClusterFaultConfig::none(41)
        };
        let resilient = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                faults: config.clone(),
                ..ControlOptions::perfect(41)
            },
        );
        assert!(resilient.stats.heartbeat_misses > 0);
        assert!(resilient.stats.fallback_engagements >= 1);
        // The manager eventually declares the silent node dead and
        // reapportions, then takes it back on rejoin.
        assert!(resilient.stats.dead_declarations >= 1);
        assert!(resilient.stats.rejoins >= 1);
    }

    #[test]
    fn warm_fleet_reprobes_less_than_cold_under_churn() {
        // Same seed, same crash history: the cold fleet re-measures its
        // full sparse schedule after every reboot, the warm fleet
        // restores its store snapshot and re-admits without probing.
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let faults = ClusterFaultConfig {
            node_crash_prob: 0.02,
            node_down_steps: 10,
            ..ClusterFaultConfig::none(21)
        };
        let run = |warm: WarmStartOptions| {
            run_cluster(
                &mixes,
                ManagedPolicy::equal_ours(),
                &trace,
                DT,
                &ControlOptions {
                    faults: faults.clone(),
                    warm_start: Some(warm),
                    ..ControlOptions::perfect(21)
                },
            )
        };
        let cold = run(WarmStartOptions::cold());
        let warm = run(WarmStartOptions::warm());
        assert_eq!(
            cold.trace_digest, warm.trace_digest,
            "common random numbers: identical fault history"
        );
        assert!(cold.stats.node_crashes > 0, "{:?}", cold.stats);
        assert_eq!(cold.probe_split.skipped, 0);
        assert_eq!(cold.store_divergence, None);
        assert!(
            warm.probe_split.measured() < cold.probe_split.measured(),
            "warm {:?} vs cold {:?}",
            warm.probe_split,
            cold.probe_split
        );
        assert!(warm.probe_split.skipped > 0);
        assert!(warm.store_stats.hits > 0);
        // The recorder carries the knowledge-plane series.
        let hits = warm.recorder.series("profile_hits").unwrap();
        assert_eq!(hits.last().unwrap().1, warm.store_stats.hits as f64);
        assert!(warm.recorder.series("profile_store_bytes").is_some());
    }

    #[test]
    fn partition_heal_converges_the_stores_after_drift() {
        // Both servers host the same mix (same fingerprints). Server 1
        // is partitioned while server 0 suffers E4 drift: its profile is
        // tombstoned and republished at a higher version. After the
        // partition heals, heartbeats must bring server 1's store to the
        // fresh version — no stale profile left anywhere.
        let trace = short_trace(2);
        let mixes = vec![mixes::mix(1).unwrap(), mixes::mix(1).unwrap()];
        let faults = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 1,
                from_step: 10,
                until_step: 60,
            }],
            ..ClusterFaultConfig::none(5)
        };
        let warm = WarmStartOptions {
            drift_at: vec![(30, 0)],
            ..WarmStartOptions::warm()
        };
        let report = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                faults,
                warm_start: Some(warm),
                ..ControlOptions::perfect(5)
            },
        );
        assert!(
            report.store_stats.invalidations >= 1,
            "{:?}",
            report.store_stats
        );
        assert_eq!(
            report.store_divergence,
            Some(0),
            "stores must converge after the heal: {:?}",
            report.store_stats
        );
        // The drift re-measurement ran fresh probes even though the
        // first admission had already covered the schedule.
        assert!(report.probe_split.measured() > 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_journals_the_control_plane() {
        use powermed_telemetry::journal::ObsConfig;
        // A budget step mid-run forces a real reapportionment, so the
        // journal sees fresh-epoch assignment waves, not just heartbeats.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(160.0)),
            (Seconds::new(30.0), Watts::new(130.0)),
            (Seconds::new(60.0), Watts::new(160.0)),
        ]);
        let mixes = mixes_for(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig::default_scenario(13),
            ..ControlOptions::perfect(13)
        };
        let base = run_cluster(&mixes, ManagedPolicy::equal_ours(), &trace, DT, &options);
        let obs = Obs::new(ObsConfig::default());
        let observed = run_cluster_observed(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            Some(&obs),
        );
        // The flight recorder is bookkeeping only: physics, policy, and
        // the fault history are untouched by attaching it.
        assert_eq!(base.report, observed.report);
        assert_eq!(base.trace_digest, observed.trace_digest);
        assert_eq!(base.violation_seconds, observed.violation_seconds);
        assert_eq!(base.recorder, observed.recorder);
        // Message lifecycle and mirrored fault records hit the journal.
        let journal = obs.journal_snapshot();
        let kinds: std::collections::BTreeSet<&str> =
            journal.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains("downlink_sent"), "kinds: {kinds:?}");
        assert!(kinds.contains("uplink_sent"), "kinds: {kinds:?}");
        assert!(
            kinds.contains("link_dropped") || kinds.contains("link_delayed"),
            "the reference scenario injects link faults: {kinds:?}"
        );
        assert!(kinds.contains("poll"), "mediator polls are journalled");
        let metrics = obs.metrics();
        assert!(
            metrics.counter(&prom_label(
                "events_by_kind_total",
                &[("kind", "uplink_sent")]
            )) > 0
        );
        // Adopted assignment epochs are stamped onto later records.
        assert!(
            journal.iter().any(|r| r.epoch > 0),
            "downlink adoption sets the journal epoch"
        );
    }

    #[test]
    fn zero_duration_trace_yields_empty_run() {
        let trace = ClusterPowerTrace::from_samples(vec![(Seconds::ZERO, Watts::new(200.0))]);
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(1),
        );
        assert_eq!(report.report.per_app_perf, vec![0.0; 4]);
        assert_eq!(report.violation_seconds, 0.0);
        assert_eq!(report.report.energy, Joules::ZERO);
    }

    #[test]
    fn sustained_overdraw_trips_the_breaker_and_bounds_violations() {
        // Budget steps down at t=30 s but every downlink is lost, so the
        // naive fleet keeps drawing at its boot caps. The facility
        // breaker must trip repeatedly — clamping the fleet to the floor
        // for each cooldown — so total violation time stays well below
        // the unprotected run's.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(200.0)),
            (Seconds::new(30.0), Watts::new(120.0)),
            (Seconds::new(60.0), Watts::new(120.0)),
        ]);
        let faults = ClusterFaultConfig {
            downlink_drop_prob: 1.0,
            ..ClusterFaultConfig::none(9)
        };
        let opts = ControlOptions {
            resilient: false,
            faults,
            breaker: BreakerConfig::default(),
            ..ControlOptions::perfect(9)
        };
        let protected = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &opts,
        );
        let unprotected = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                breaker: BreakerConfig::disabled(),
                ..opts.clone()
            },
        );
        assert_eq!(unprotected.stats.breaker_trips, 0);
        assert!(
            unprotected.violation_seconds >= 25.0,
            "unprotected naive fleet stays in violation: {:.1} s",
            unprotected.violation_seconds
        );
        assert!(
            protected.stats.breaker_trips >= 2,
            "breaker re-trips while the stale cap keeps coming back: {}",
            protected.stats.breaker_trips
        );
        assert!(
            protected.violation_seconds < 0.5 * unprotected.violation_seconds,
            "clamp holds bound the violation time: {:.1} vs {:.1} s",
            protected.violation_seconds,
            unprotected.violation_seconds
        );
        let trips = protected.recorder.series("breaker_trips").unwrap();
        assert_eq!(
            trips.last().unwrap().1,
            protected.stats.breaker_trips as f64,
            "the telemetry series tracks the counter"
        );
    }

    #[test]
    fn flight_recorded_run_is_bit_identical_and_merges_every_journal() {
        // Same shape as the single-journal bit-identity test, but with
        // the fleet recorder: per-server journals ship digests over the
        // lossy reference plane and the manager merges them.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(160.0)),
            (Seconds::new(30.0), Watts::new(130.0)),
            (Seconds::new(60.0), Watts::new(160.0)),
        ]);
        let mixes = mixes_for(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig::default_scenario(13),
            ..ControlOptions::perfect(13)
        };
        let base = run_cluster(&mixes, ManagedPolicy::equal_ours(), &trace, DT, &options);
        let fo = FleetObsOptions::default();
        let recorded = run_cluster_flight_recorded(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &fo,
        );
        // Zero-cost-off, fleet flavor: recording changes bookkeeping
        // only — physics, policy and the fault history are untouched.
        assert_eq!(base.report, recorded.report);
        assert_eq!(base.trace_digest, recorded.trace_digest);
        assert_eq!(base.violation_seconds, recorded.violation_seconds);
        assert_eq!(base.recorder, recorded.recorder);
        assert!(base.fleet.is_none(), "plain runs carry no fleet report");

        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        // Every journal reached the timeline: both servers and the
        // manager's own (which holds the plane's mirrored fault events).
        let sources: std::collections::BTreeSet<u64> =
            fleet.timeline.iter().map(|e| e.server_id).collect();
        assert!(sources.contains(&0), "sources: {sources:?}");
        assert!(sources.contains(&1), "sources: {sources:?}");
        assert!(sources.contains(&MANAGER_SERVER_ID), "sources: {sources:?}");
        // Acks rode the downlink waves and advanced the watermarks.
        assert!(
            fleet.last_acked.iter().all(|a| *a > 0),
            "acks advanced: {:?}",
            fleet.last_acked
        );
        // Bytes-on-the-wire are bounded per wave by construction.
        assert!(fleet.digest_bytes_total > 0);
        assert!(
            fleet.max_wave_bytes <= (mixes.len() * fo.max_digest_bytes) as u64,
            "wave bound: {} <= {}",
            fleet.max_wave_bytes,
            mixes.len() * fo.max_digest_bytes
        );
        // The manager-side registry exposes the satellite metrics.
        assert!(fleet.metrics.counter("digest_bytes_total") > 0);
        assert_eq!(
            fleet.metrics.gauge("timeline_len"),
            Some(fleet.timeline.len() as f64)
        );
        assert!(fleet
            .metrics
            .gauge(&prom_label("last_acked_seq", &[("server", "0")]))
            .is_some());

        // Same seed, same merged timeline — byte-identical.
        let again = run_cluster_flight_recorded(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &fo,
        );
        let fleet_again = again.fleet.as_ref().expect("fleet report attached");
        assert_eq!(fleet.timeline.digest(), fleet_again.timeline.digest());
        assert_eq!(fleet.timeline, fleet_again.timeline);
    }

    #[test]
    fn fleet_timeline_survives_manager_failover() {
        // Kill the resilient manager mid-run: the standby restores the
        // checkpointed timeline and the agents re-ship whatever the
        // crash lost, so records from before the kill are still present
        // at run end.
        let trace = short_trace(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig {
                manager_crash_step: Some(60),
                manager_takeover_steps: 10,
                ..ClusterFaultConfig::default_scenario(21)
            },
            ..ControlOptions::perfect(21)
        };
        let recorded = run_cluster_flight_recorded(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &FleetObsOptions::default(),
        );
        assert!(recorded.stats.manager_failovers >= 1);
        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        // No perfbench workload reaches a takeover, so these literals pin
        // the rollback path. They were recorded while the standby still
        // restored a full copy of the checkpointed timeline; rewinding to
        // the checkpoint's mark must reproduce them.
        assert_eq!(fleet.timeline.len(), 713);
        assert_eq!(fleet.timeline.digest(), 0x8bb7_7a88_4d24_1280);
        assert_eq!(fleet.timeline.merged_total(), 713);
        assert_eq!(fleet.timeline.dedup_total(), 550);
        assert!(fleet.metrics.counter("timeline_checkpoints_total") > 0);
        // Pre-kill records (t < 30 s) from both servers survived the
        // takeover, through the checkpoint or an idempotent re-ship.
        for server in [0u64, 1u64] {
            assert!(
                fleet
                    .timeline
                    .iter()
                    .any(|e| e.server_id == server && e.record.at < Seconds::new(30.0)),
                "server {server} pre-kill records survive the failover"
            );
        }
        // The failover is itself on the record — both as mirrored fault
        // events in the manager's journal and as a metrics counter.
        assert!(fleet
            .manager_obs
            .journal_snapshot()
            .iter()
            .any(|r| matches!(r.event, ObsEvent::ManagerCrash | ObsEvent::ManagerTakeover)));
        assert!(fleet.metrics.counter("timeline_failovers_total") > 0);
    }

    #[test]
    fn breaker_trip_is_journalled_with_its_arming_evidence() {
        // The sustained-overdraw scenario, flight-recorded: the naive
        // fleet keeps drawing over a stepped-down budget, and the
        // manager's journal must carry the whole causal chain — the
        // over-budget streak, the per-server overdraw attribution, the
        // trip, the clamps, and the eventual release.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(200.0)),
            (Seconds::new(30.0), Watts::new(120.0)),
            (Seconds::new(60.0), Watts::new(120.0)),
        ]);
        let opts = ControlOptions {
            resilient: false,
            faults: ClusterFaultConfig {
                downlink_drop_prob: 1.0,
                ..ClusterFaultConfig::none(9)
            },
            breaker: BreakerConfig::default(),
            ..ControlOptions::perfect(9)
        };
        let recorded = run_cluster_flight_recorded(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &opts,
            &FleetObsOptions::default(),
        );
        assert!(recorded.stats.breaker_trips >= 1);
        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        let kinds: std::collections::BTreeSet<&str> = fleet
            .timeline
            .iter()
            .filter(|e| e.server_id == MANAGER_SERVER_ID)
            .map(|e| e.record.event.kind())
            .collect();
        for kind in [
            "fleet_over_budget",
            "server_overdraw",
            "breaker_trip",
            "emergency_clamp",
            "breaker_release",
        ] {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
        // Overdraw attribution names the stale-capped servers against
        // the manager's *intended* share, not the cap they obey.
        assert!(fleet.timeline.iter().any(|e| matches!(
            e.record.event,
            ObsEvent::ServerOverdraw { net_w, share_w, .. } if net_w > share_w
        )));
    }
}
