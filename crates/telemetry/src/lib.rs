//! Telemetry for `powermed`: application heartbeats, power metering and
//! time-series recording.
//!
//! The paper's runtime observes applications through two channels
//! (Sec. III-A): the **Application Heartbeats** interface for performance
//! and the **RAPL energy counters** for power. The Accountant polls both
//! "in the order of microseconds" to detect drift (event E4) and
//! departures (E3). This crate provides those observation channels for
//! the simulated platform, plus a general time-series recorder that the
//! figure-regeneration harness uses to dump every plotted signal.
//!
//! # Example
//!
//! ```
//! use powermed_telemetry::heartbeat::HeartbeatMonitor;
//! use powermed_units::Seconds;
//!
//! let mut hb = HeartbeatMonitor::new(Seconds::new(1.0));
//! hb.record(Seconds::new(0.1), 100.0);
//! hb.record(Seconds::new(0.6), 100.0);
//! let rate = hb.rate(Seconds::new(1.0)).unwrap();
//! assert!((rate - 200.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod heartbeat;
pub mod journal;
pub mod meter;
pub mod metrics;
pub mod recorder;
pub mod store;

pub use faults::{EstimationStats, FaultStats, HardeningStats};
pub use heartbeat::{Heartbeat, HeartbeatMonitor};
pub use journal::{
    EventJournal, EventRecord, FleetKey, FleetRecord, FleetTimeline, JournalDigest,
    KnobWriteVerdict, Obs, ObsConfig, ObsEvent, SafeModeTransition, TimelineMark,
    MANAGER_SERVER_ID,
};
pub use meter::{CapCompliance, PowerMeter};
pub use metrics::{prom_label, Histogram, MetricsRegistry};
pub use recorder::{SharedRecorder, TraceRecorder};
pub use store::ProfileStoreStats;
