//! The versioned profile store and its merge / decay / eviction
//! semantics.
//!
//! Every server runs one [`ProfileStore`]; the cluster manager runs
//! another. Entries are keyed by [`AppFingerprint`] and exchanged as
//! [`ProfileDigest`]s over the control plane, so the store must merge
//! deterministically no matter the order, duplication, or delay the
//! (faulty) network imposes. Merge is therefore the max of a *total*
//! order over profiles — version first, then confidence, then richness,
//! then provenance, with a canonical-serialization tie-break and a final
//! bit-pattern tie-break — which makes it commutative, associative and
//! idempotent: every replica that has seen the same set of digests holds
//! the same entries, bit for bit.
//!
//! Every change to an entry stamps it with the store's change counter
//! ([`ProfileStore::changes`]), so a replica that knows how far a peer
//! has caught up ships only what changed since
//! ([`ProfileStore::digests_since`]) instead of the whole store.
//!
//! Staleness is handled two ways. Gradually, an entry's *effective*
//! confidence decays geometrically with the number of epochs since it
//! was measured, so an old profile eventually stops clearing the
//! admission threshold on its own. Abruptly, an E4 drift event
//! tombstones the entry ([`ProfileStore::invalidate`]): the version is
//! bumped past every circulating copy with the payload cleared, so the
//! tombstone wins merges fleet-wide and no replica can serve the stale
//! profile again until a fresh recalibration publishes a higher version.

use std::collections::BTreeMap;

use powermed_cf::FoldedRow;
use powermed_telemetry::ProfileStoreStats;

use crate::fingerprint::AppFingerprint;
use crate::json::{write_f64, write_str, JsonValue};

/// One measured probe: the grid column that was actually run and the
/// `(power, performance)` pair it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Knob-grid column index.
    pub col: usize,
    /// Measured power draw in watts.
    pub power_w: f64,
    /// Measured performance (heartbeats/s).
    pub perf: f64,
}

/// Where a profile came from: which server measured it, in which
/// control-plane epoch, and how many probes it spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Index of the measuring server.
    pub server: u64,
    /// Control-plane epoch at measurement time (drives confidence decay).
    pub epoch: u64,
    /// Probes the measuring server spent building this profile.
    pub probes: u64,
}

/// A versioned, mergeable profile for one fingerprinted workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredProfile {
    /// Monotonic version; bumped on invalidation and republication.
    pub version: u64,
    /// Base confidence in `[0, 1]` assigned by the publisher.
    pub confidence: f64,
    /// The sparse probe measurements backing the profile.
    pub samples: Vec<ProbeSample>,
    /// Folded-in CF row for the power channel.
    pub power_row: FoldedRow,
    /// Folded-in CF row for the performance channel.
    pub perf_row: FoldedRow,
    /// Measurement provenance.
    pub provenance: Provenance,
}

impl StoredProfile {
    /// A tombstone at `version`: no payload, zero confidence. Loses
    /// every `confident` lookup but wins merges against anything below
    /// `version`.
    pub fn tombstone(version: u64, epoch: u64) -> Self {
        Self {
            version,
            confidence: 0.0,
            samples: Vec::new(),
            power_row: FoldedRow::new(0.0, Vec::new()),
            perf_row: FoldedRow::new(0.0, Vec::new()),
            provenance: Provenance {
                server: 0,
                epoch,
                probes: 0,
            },
        }
    }

    /// True if this is an invalidation tombstone rather than usable data.
    pub fn is_tombstone(&self) -> bool {
        self.samples.is_empty()
    }

    /// The canonical serialization used for snapshots and as the final
    /// merge tie-break.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        write_profile(&mut out, self);
        out
    }

    /// The total order behind merge: later version, then higher
    /// confidence, then more samples, then later/bigger provenance, then
    /// the canonical serialization, so merge is deterministic even
    /// between structurally different profiles that agree on everything
    /// else. The canonical form prints every NaN alike, so the last key
    /// is the fields' bit patterns: two replicas rank `Equal` only when
    /// they are bit-identical. That is also checked first — identical
    /// replicas are what a converged fleet merges almost every time, and
    /// they must not pay for two serializations.
    fn rank(&self, other: &Self) -> std::cmp::Ordering {
        if self.same_bits(other) {
            return std::cmp::Ordering::Equal;
        }
        self.version
            .cmp(&other.version)
            .then(self.confidence.total_cmp(&other.confidence))
            .then(self.samples.len().cmp(&other.samples.len()))
            .then(self.provenance.epoch.cmp(&other.provenance.epoch))
            .then(self.provenance.server.cmp(&other.provenance.server))
            .then_with(|| self.canonical().cmp(&other.canonical()))
            .then_with(|| self.words().cmp(other.words()))
    }

    /// Bit-for-bit identity, every float compared by its bits (unlike
    /// `==`, under which `-0.0 == 0.0` and a NaN never equals itself).
    pub fn same_bits(&self, other: &Self) -> bool {
        let f = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let row = |a: &FoldedRow, b: &FoldedRow| {
            f(a.bias(), b.bias())
                && a.factors().len() == b.factors().len()
                && a.factors().iter().zip(b.factors()).all(|(x, y)| f(*x, *y))
        };
        self.version == other.version
            && f(self.confidence, other.confidence)
            && self.provenance == other.provenance
            && self.samples.len() == other.samples.len()
            && self
                .samples
                .iter()
                .zip(&other.samples)
                .all(|(a, b)| a.col == b.col && f(a.power_w, b.power_w) && f(a.perf, b.perf))
            && row(&self.power_row, &other.power_row)
            && row(&self.perf_row, &other.perf_row)
    }

    /// Every field as raw bits, lengths included, in declaration order:
    /// equal sequences mean bit-identical profiles, and comparing them
    /// orders profiles that the canonical form cannot tell apart.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let p = &self.provenance;
        [
            self.version,
            self.confidence.to_bits(),
            self.samples.len() as u64,
        ]
        .into_iter()
        .chain(
            self.samples
                .iter()
                .flat_map(|s| [s.col as u64, s.power_w.to_bits(), s.perf.to_bits()]),
        )
        .chain(row_words(&self.power_row))
        .chain(row_words(&self.perf_row))
        .chain([p.server, p.epoch, p.probes])
    }

    /// Merges two replicas of the same fingerprint: the max of the total
    /// order. Commutative, associative, idempotent.
    pub fn merge(self, other: Self) -> Self {
        if other.rank(&self) == std::cmp::Ordering::Greater {
            other
        } else {
            self
        }
    }

    /// Approximate in-memory footprint of a store entry holding this
    /// profile (the profile plus 16 bytes of key and recency), for the
    /// `bytes` gauge.
    fn entry_bytes(&self) -> u64 {
        let fixed = 7 * 8; // version, confidence, provenance, two biases
        let samples = self.samples.len() * 24;
        let rows = (self.power_row.factors().len() + self.perf_row.factors().len()) * 8;
        (fixed + samples + rows + 16) as u64
    }
}

fn row_words(row: &FoldedRow) -> impl Iterator<Item = u64> + '_ {
    [row.bias().to_bits(), row.factors().len() as u64]
        .into_iter()
        .chain(row.factors().iter().map(|f| f.to_bits()))
}

/// A store entry in transit: the fingerprint plus the full profile.
/// These ride the cluster control plane's epoch-stamped messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDigest {
    /// Content address of the workload.
    pub fingerprint: AppFingerprint,
    /// The profile replica being propagated.
    pub profile: StoredProfile,
}

/// Tuning for a [`ProfileStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Maximum number of entries before LRU eviction kicks in.
    pub capacity: usize,
    /// Minimum *effective* confidence for a lookup to hit.
    pub confidence_threshold: f64,
    /// Geometric decay of confidence per epoch of age.
    pub decay_per_epoch: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            confidence_threshold: 0.5,
            decay_per_epoch: 0.95,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    profile: StoredProfile,
    touch: u64,
    /// The store's change counter right after this entry last changed.
    changed: u64,
}

/// Probe accounting split by how the probe points were satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeSplit {
    /// Probes run with no usable prior (cold admission).
    pub cold: u64,
    /// Probes run during a warm admission (prior existed but did not
    /// cover these points).
    pub warm: u64,
    /// Probe points satisfied from the store without running anything.
    pub skipped: u64,
}

impl ProbeSplit {
    /// Probes actually executed (cold + warm).
    pub fn measured(&self) -> u64 {
        self.cold + self.warm
    }

    /// All probe points the schedules called for, run or not.
    pub fn scheduled(&self) -> u64 {
        self.cold + self.warm + self.skipped
    }

    /// Component-wise sum, for fleet-wide aggregation.
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            cold: self.cold + other.cold,
            warm: self.warm + other.warm,
            skipped: self.skipped + other.skipped,
        }
    }
}

/// The versioned, bounded, mergeable profile store.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStore {
    config: StoreConfig,
    epoch: u64,
    clock: u64,
    /// Bumped on every entry change; see [`ProfileStore::changes`].
    changes: u64,
    entries: BTreeMap<AppFingerprint, Entry>,
    stats: ProfileStoreStats,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ProfileStore {
    /// An empty store with the given tuning.
    pub fn new(config: StoreConfig) -> Self {
        Self {
            config,
            epoch: 0,
            clock: 0,
            changes: 0,
            entries: BTreeMap::new(),
            stats: ProfileStoreStats::default(),
        }
    }

    /// The store's tuning.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of entries currently held (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Advances the store's epoch (monotonic; older values are ignored).
    /// Confidence decay is measured against this.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// The store's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Event counters plus the byte gauge.
    pub fn stats(&self) -> ProfileStoreStats {
        self.stats
    }

    /// The change counter: bumped whenever an entry is inserted or its
    /// profile changes (a merge won by the incoming replica, a
    /// tombstone). Only a store's own history orders it — a restored
    /// store restarts the count from its entries, and another replica's
    /// counter means nothing here.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The same entries, recency and epoch with the event counters
    /// restarted from zero (the bytes gauge describes the data and is
    /// kept): what a process that restores this store holds.
    pub fn restored(&self) -> Self {
        Self {
            stats: ProfileStoreStats {
                bytes: self.stats.bytes,
                ..ProfileStoreStats::default()
            },
            ..self.clone()
        }
    }

    /// Confidence after age decay:
    /// `confidence × decay^(store_epoch − measured_epoch)`.
    pub fn effective_confidence(&self, profile: &StoredProfile) -> f64 {
        let age = self.epoch.saturating_sub(profile.provenance.epoch);
        profile.confidence
            * self
                .config
                .decay_per_epoch
                .powi(age.min(i32::MAX as u64) as i32)
    }

    /// Inserts or merges a profile. Returns `true` if the stored entry
    /// changed bits (new entry, or the incoming replica won the merge).
    pub fn publish(&mut self, fingerprint: AppFingerprint, profile: StoredProfile) -> bool {
        self.offer(fingerprint, &profile)
    }

    /// [`ProfileStore::publish`] by reference: the profile is cloned
    /// only when it is stored.
    fn offer(&mut self, fingerprint: AppFingerprint, profile: &StoredProfile) -> bool {
        self.clock += 1;
        let touch = self.clock;
        let changed = match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                self.stats.merges += 1;
                entry.touch = touch;
                let wins = profile.rank(&entry.profile) == std::cmp::Ordering::Greater;
                if wins {
                    self.stats.bytes -= entry.profile.entry_bytes();
                    self.stats.bytes += profile.entry_bytes();
                    self.changes += 1;
                    entry.profile = profile.clone();
                    entry.changed = self.changes;
                }
                wins
            }
            None => {
                self.stats.inserts += 1;
                self.stats.bytes += profile.entry_bytes();
                self.changes += 1;
                let entry = Entry {
                    profile: profile.clone(),
                    touch,
                    changed: self.changes,
                };
                self.entries.insert(fingerprint, entry);
                true
            }
        };
        self.evict_to_capacity();
        changed
    }

    /// Merges a batch of digests (e.g. one control-plane message's
    /// payload). Returns how many entries changed.
    pub fn merge_digests(&mut self, digests: &[ProfileDigest]) -> usize {
        digests
            .iter()
            .filter(|d| self.offer(d.fingerprint, &d.profile))
            .count()
    }

    /// Looks up a profile usable for warm-start admission: present, not
    /// a tombstone, and effective confidence at or above the threshold.
    /// Counts a hit or miss and refreshes recency on hit.
    pub fn confident(&mut self, fingerprint: AppFingerprint) -> Option<StoredProfile> {
        let hit = self.entries.get(&fingerprint).and_then(|entry| {
            let usable = !entry.profile.is_tombstone()
                && self.effective_confidence(&entry.profile) >= self.config.confidence_threshold;
            usable.then(|| entry.profile.clone())
        });
        match hit {
            Some(profile) => {
                self.clock += 1;
                let clock = self.clock;
                if let Some(entry) = self.entries.get_mut(&fingerprint) {
                    entry.touch = clock;
                }
                self.stats.hits += 1;
                Some(profile)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks at the stored replica without stats or recency effects.
    pub fn peek(&self, fingerprint: AppFingerprint) -> Option<&StoredProfile> {
        self.entries.get(&fingerprint).map(|e| &e.profile)
    }

    /// Tombstones an entry after an E4 drift event. The tombstone's
    /// version is one past the stored replica's, so it wins merges
    /// against every copy of the stale profile still circulating; a
    /// subsequent recalibration publishes at version+2 and wins back.
    /// Returns the tombstone digest to propagate, or `None` if the
    /// fingerprint is unknown here.
    pub fn invalidate(&mut self, fingerprint: AppFingerprint) -> Option<ProfileDigest> {
        let entry = self.entries.get_mut(&fingerprint)?;
        if !entry.profile.is_tombstone() {
            self.stats.invalidations += 1;
        }
        // One version past the stored replica, the tombstone always wins.
        let tomb = StoredProfile::tombstone(entry.profile.version + 1, self.epoch);
        self.stats.bytes -= entry.profile.entry_bytes();
        self.stats.bytes += tomb.entry_bytes();
        entry.profile = tomb;
        self.clock += 1;
        entry.touch = self.clock;
        self.changes += 1;
        entry.changed = self.changes;
        Some(ProfileDigest {
            fingerprint,
            profile: entry.profile.clone(),
        })
    }

    /// Every entry as a digest, in fingerprint order.
    pub fn digests(&self) -> Vec<ProfileDigest> {
        self.digests_since(0)
    }

    /// The entries that changed after the change counter read `since`,
    /// as digests in fingerprint order. A replica that has merged this
    /// store's entries as of `since` converges with it by merging these.
    pub fn digests_since(&self, since: u64) -> Vec<ProfileDigest> {
        self.entries
            .iter()
            .filter(|(_, e)| e.changed > since)
            .map(|(fp, e)| ProfileDigest {
                fingerprint: *fp,
                profile: e.profile.clone(),
            })
            .collect()
    }

    /// Evicts least-recently-used entries down to capacity, never
    /// evicting the entry with the highest effective confidence (ties
    /// broken toward the smaller fingerprint).
    fn evict_to_capacity(&mut self) {
        while self.entries.len() > self.config.capacity {
            let protected = self
                .entries
                .iter()
                .max_by(|(fa, a), (fb, b)| {
                    self.effective_confidence(&a.profile)
                        .total_cmp(&self.effective_confidence(&b.profile))
                        .then(fb.cmp(fa)) // prefer the smaller fingerprint
                })
                .map(|(fp, _)| *fp);
            let victim = self
                .entries
                .iter()
                .filter(|(fp, _)| Some(**fp) != protected)
                .min_by(|(fa, a), (fb, b)| a.touch.cmp(&b.touch).then(fa.cmp(fb)))
                .map(|(fp, _)| *fp);
            match victim.and_then(|fp| self.entries.remove(&fp)) {
                Some(entry) => {
                    self.stats.bytes -= entry.profile.entry_bytes();
                    self.stats.evictions += 1;
                }
                None => break, // capacity 0 with one protected entry
            }
        }
    }

    /// Serializes the store (entries, recency, epoch, tuning — not the
    /// stats counters) to JSON. `snapshot → restore → snapshot` is
    /// bit-identical.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"epoch\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.epoch));
        out.push_str(",\"clock\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.clock));
        out.push_str(",\"capacity\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.config.capacity));
        out.push_str(",\"confidence_threshold\":");
        write_f64(&mut out, self.config.confidence_threshold);
        out.push_str(",\"decay_per_epoch\":");
        write_f64(&mut out, self.config.decay_per_epoch);
        out.push_str(",\"entries\":[");
        for (i, (fp, entry)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"fp\":");
            write_str(&mut out, &fp.to_string());
            out.push_str(",\"touch\":");
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", entry.touch));
            out.push_str(",\"profile\":");
            write_profile(&mut out, &entry.profile);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Restores a store from [`ProfileStore::snapshot_json`] output.
    /// Stats counters restart from zero (they describe a process, not
    /// the data). Returns `None` on any structural mismatch.
    pub fn from_json(text: &str) -> Option<Self> {
        let doc = JsonValue::parse(text)?;
        let config = StoreConfig {
            capacity: doc.get("capacity")?.as_u64()? as usize,
            confidence_threshold: doc.get("confidence_threshold")?.as_num()?,
            decay_per_epoch: doc.get("decay_per_epoch")?.as_num()?,
        };
        let mut store = Self::new(config);
        store.epoch = doc.get("epoch")?.as_u64()?;
        store.clock = doc.get("clock")?.as_u64()?;
        for item in doc.get("entries")?.as_arr()? {
            let fp = match item.get("fp")? {
                JsonValue::Str(hex) => AppFingerprint::from_raw(u64::from_str_radix(hex, 16).ok()?),
                _ => return None,
            };
            let profile = parse_profile(item.get("profile")?)?;
            store.stats.bytes += profile.entry_bytes();
            // The snapshot carries no change history: every restored
            // entry counts as one change, in fingerprint order.
            store.changes += 1;
            let entry = Entry {
                profile,
                touch: item.get("touch")?.as_u64()?,
                changed: store.changes,
            };
            store.entries.insert(fp, entry);
        }
        Some(store)
    }
}

fn write_row(out: &mut String, row: &FoldedRow) {
    out.push_str("{\"bias\":");
    write_f64(out, row.bias());
    out.push_str(",\"factors\":[");
    for (i, f) in row.factors().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, *f);
    }
    out.push_str("]}");
}

fn write_profile(out: &mut String, p: &StoredProfile) {
    out.push_str("{\"version\":");
    let _ = std::fmt::Write::write_fmt(out, format_args!("{}", p.version));
    out.push_str(",\"confidence\":");
    write_f64(out, p.confidence);
    out.push_str(",\"samples\":[");
    for (i, s) in p.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", s.col));
        out.push(',');
        write_f64(out, s.power_w);
        out.push(',');
        write_f64(out, s.perf);
        out.push(']');
    }
    out.push_str("],\"power_row\":");
    write_row(out, &p.power_row);
    out.push_str(",\"perf_row\":");
    write_row(out, &p.perf_row);
    let _ = std::fmt::Write::write_fmt(
        out,
        format_args!(
            ",\"provenance\":{{\"server\":{},\"epoch\":{},\"probes\":{}}}}}",
            p.provenance.server, p.provenance.epoch, p.provenance.probes
        ),
    );
}

fn parse_row(v: &JsonValue) -> Option<FoldedRow> {
    let factors = v
        .get("factors")?
        .as_arr()?
        .iter()
        .map(JsonValue::as_num)
        .collect::<Option<Vec<f64>>>()?;
    Some(FoldedRow::new(v.get("bias")?.as_num()?, factors))
}

fn parse_profile(v: &JsonValue) -> Option<StoredProfile> {
    let samples = v
        .get("samples")?
        .as_arr()?
        .iter()
        .map(|s| {
            let triple = s.as_arr()?;
            (triple.len() == 3).then_some(())?;
            Some(ProbeSample {
                col: triple[0].as_u64()? as usize,
                power_w: triple[1].as_num()?,
                perf: triple[2].as_num()?,
            })
        })
        .collect::<Option<Vec<ProbeSample>>>()?;
    let prov = v.get("provenance")?;
    Some(StoredProfile {
        version: v.get("version")?.as_u64()?,
        confidence: v.get("confidence")?.as_num()?,
        samples,
        power_row: parse_row(v.get("power_row")?)?,
        perf_row: parse_row(v.get("perf_row")?)?,
        provenance: Provenance {
            server: prov.get("server")?.as_u64()?,
            epoch: prov.get("epoch")?.as_u64()?,
            probes: prov.get("probes")?.as_u64()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(version: u64, confidence: f64, epoch: u64) -> StoredProfile {
        StoredProfile {
            version,
            confidence,
            samples: vec![
                ProbeSample {
                    col: 3,
                    power_w: 11.5,
                    perf: 420.0,
                },
                ProbeSample {
                    col: 17,
                    power_w: 19.25,
                    perf: 610.0,
                },
            ],
            power_row: FoldedRow::new(0.125, vec![0.5, -1.5, 2.0]),
            perf_row: FoldedRow::new(-0.25, vec![1.0, 0.0, -0.75]),
            provenance: Provenance {
                server: 2,
                epoch,
                probes: 2,
            },
        }
    }

    fn fp(n: u64) -> AppFingerprint {
        AppFingerprint::from_raw(n)
    }

    #[test]
    fn publish_then_confident_hits() {
        let mut store = ProfileStore::default();
        assert!(store.publish(fp(1), profile(1, 0.9, 0)));
        assert_eq!(store.confident(fp(1)), Some(profile(1, 0.9, 0)));
        assert_eq!(store.confident(fp(2)), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn low_confidence_misses() {
        let mut store = ProfileStore::default();
        store.publish(fp(1), profile(1, 0.3, 0));
        assert_eq!(store.confident(fp(1)), None);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn confidence_decays_with_epoch_age() {
        let mut store = ProfileStore::new(StoreConfig {
            decay_per_epoch: 0.5,
            confidence_threshold: 0.5,
            ..StoreConfig::default()
        });
        store.publish(fp(1), profile(1, 0.9, 0));
        assert!(store.confident(fp(1)).is_some());
        // After one epoch: 0.9 × 0.5 = 0.45 < 0.5.
        store.set_epoch(1);
        assert!(store.confident(fp(1)).is_none());
    }

    #[test]
    fn set_epoch_is_monotonic() {
        let mut store = ProfileStore::default();
        store.set_epoch(5);
        store.set_epoch(2);
        assert_eq!(store.epoch(), 5);
    }

    #[test]
    fn merge_prefers_higher_version_regardless_of_order() {
        let old = profile(1, 0.99, 0);
        let new = profile(2, 0.6, 1);
        assert_eq!(old.clone().merge(new.clone()), new);
        assert_eq!(new.clone().merge(old), new);
    }

    #[test]
    fn merge_same_version_prefers_higher_confidence() {
        let weak = profile(1, 0.6, 0);
        let strong = profile(1, 0.9, 0);
        assert_eq!(weak.clone().merge(strong.clone()), strong);
        assert_eq!(strong.clone().merge(weak), strong);
    }

    #[test]
    fn invalidate_tombstones_and_tombstone_wins_merges() {
        let mut store = ProfileStore::default();
        store.publish(fp(1), profile(3, 0.9, 0));
        let tomb = store.invalidate(fp(1)).unwrap();
        assert!(tomb.profile.is_tombstone());
        assert_eq!(tomb.profile.version, 4);
        assert_eq!(store.confident(fp(1)), None);
        // A delayed copy of the stale profile cannot resurrect it...
        store.publish(fp(1), profile(3, 0.9, 0));
        assert_eq!(store.confident(fp(1)), None);
        // ...but a fresh recalibration at version+2 wins back.
        store.publish(fp(1), profile(5, 0.8, 1));
        store.set_epoch(1);
        assert!(store.confident(fp(1)).is_some());
        assert_eq!(store.stats().invalidations, 1);
    }

    #[test]
    fn invalidating_unknown_fingerprint_is_a_noop() {
        let mut store = ProfileStore::default();
        assert!(store.invalidate(fp(99)).is_none());
        assert_eq!(store.stats().invalidations, 0);
    }

    #[test]
    fn lru_eviction_spares_the_highest_confidence_entry() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 2,
            ..StoreConfig::default()
        });
        // Oldest entry has the highest confidence: LRU alone would evict
        // it, but the confidence guard must protect it.
        store.publish(fp(1), profile(1, 0.99, 0));
        store.publish(fp(2), profile(1, 0.4, 0));
        store.publish(fp(3), profile(1, 0.5, 0));
        assert_eq!(store.len(), 2);
        assert!(store.peek(fp(1)).is_some(), "highest confidence evicted");
        assert!(store.peek(fp(2)).is_none(), "LRU entry survived");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 3,
            confidence_threshold: 0.0,
            ..StoreConfig::default()
        });
        store.publish(fp(1), profile(1, 0.6, 0));
        store.publish(fp(2), profile(1, 0.9, 0)); // protected (highest confidence)
        store.publish(fp(3), profile(1, 0.5, 0));
        // Without this hit, fp(1) would be the LRU victim below.
        let _ = store.confident(fp(1));
        store.publish(fp(4), profile(1, 0.5, 0));
        assert!(store.peek(fp(1)).is_some(), "recently-hit entry evicted");
        assert!(store.peek(fp(2)).is_some(), "protected entry evicted");
        assert!(store.peek(fp(3)).is_none(), "LRU entry survived");
        assert!(store.peek(fp(4)).is_some());
    }

    #[test]
    fn merge_digests_counts_changes() {
        let mut a = ProfileStore::default();
        let mut b = ProfileStore::default();
        a.publish(fp(1), profile(2, 0.9, 0));
        b.publish(fp(1), profile(1, 0.9, 0));
        b.publish(fp(2), profile(1, 0.7, 0));
        let changed = a.merge_digests(&b.digests());
        assert_eq!(changed, 1, "only fp(2) should change a");
        assert_eq!(a.peek(fp(1)).unwrap().version, 2);
        // Converged: replaying either side's digests changes nothing.
        assert_eq!(a.merge_digests(&b.digests()), 0);
        assert_eq!(b.merge_digests(&a.digests()), 1, "fp(1) catches up to v2");
        assert_eq!(b.merge_digests(&a.digests()), 0);
        assert_eq!(a.digests(), b.digests());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 8,
            confidence_threshold: 0.45,
            decay_per_epoch: 0.875,
        });
        store.set_epoch(3);
        store.publish(fp(0xdead_beef_dead_beef), profile(2, 0.9, 1));
        store.publish(fp(7), profile(1, 0.3, 3));
        store.invalidate(fp(7));
        let snap = store.snapshot_json();
        let restored = ProfileStore::from_json(&snap).expect("snapshot parses");
        assert_eq!(restored.snapshot_json(), snap);
        assert_eq!(restored.epoch(), 3);
        assert_eq!(restored.digests(), store.digests());
        // Counters restart; the bytes gauge reflects the restored data.
        assert_eq!(restored.stats().inserts, 0);
        assert_eq!(restored.stats().bytes, store.stats().bytes);
    }

    #[test]
    fn merge_is_commutative_by_bits_when_only_a_nan_sign_differs() {
        // The canonical form prints both NaNs as "NaN", so only the
        // bit-pattern tie-break can order these two replicas.
        let mut a = profile(1, 0.9, 0);
        a.samples[0].power_w = f64::NAN;
        let mut b = a.clone();
        b.samples[0].power_w = -f64::NAN;
        assert_eq!(a.canonical(), b.canonical());
        let ab = a.clone().merge(b.clone()).samples[0].power_w.to_bits();
        let ba = b.merge(a).samples[0].power_w.to_bits();
        assert_eq!(ab, ba);
    }

    #[test]
    fn publish_reports_a_change_only_when_bits_change() {
        let mut store = ProfileStore::default();
        let mut p = profile(1, 0.9, 0);
        p.samples[0].power_w = f64::NAN;
        assert!(store.publish(fp(1), p.clone()));
        // Bit-identical (NaN included): no change, though `!=` says so.
        assert!(!store.publish(fp(1), p.clone()));
        // `-0.0 == 0.0`, but the bits differ: `0` outranks `-0` in the
        // canonical form, so the positive zero replaces the negative.
        let mut neg = profile(1, 0.9, 0);
        neg.perf_row = FoldedRow::new(-0.0, vec![0.0]);
        let mut pos = neg.clone();
        pos.perf_row = FoldedRow::new(0.0, vec![0.0]);
        assert!(store.publish(fp(2), neg.clone()));
        assert!(store.publish(fp(2), pos));
        assert!(!store.publish(fp(2), neg));
        assert_eq!(store.stats().merges, 3);
    }

    #[test]
    fn digests_since_ships_only_what_changed() {
        let mut store = ProfileStore::default();
        assert_eq!(store.changes(), 0);
        store.publish(fp(1), profile(1, 0.9, 0));
        store.publish(fp(2), profile(1, 0.7, 0));
        let mark = store.changes();
        assert_eq!(mark, 2);
        // A losing or identical replica is no change.
        store.publish(fp(1), profile(1, 0.5, 0));
        store.publish(fp(2), profile(1, 0.7, 0));
        assert_eq!(store.changes(), mark);
        assert!(store.digests_since(mark).is_empty());
        store.publish(fp(2), profile(2, 0.7, 0));
        store.invalidate(fp(1));
        store.publish(fp(3), profile(1, 0.6, 0));
        let delta: Vec<u64> = store
            .digests_since(mark)
            .iter()
            .map(|d| d.fingerprint.value())
            .collect();
        assert_eq!(delta, [1, 2, 3], "fingerprint order");
        assert_eq!(store.digests_since(0), store.digests());
        // A replica as of `mark` converges on the delta alone.
        let mut replica = ProfileStore::default();
        replica.publish(fp(1), profile(1, 0.9, 0));
        replica.publish(fp(2), profile(1, 0.7, 0));
        replica.merge_digests(&store.digests_since(mark));
        assert_eq!(replica.digests(), store.digests());
    }

    #[test]
    fn running_bytes_match_a_fresh_sum() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 2,
            ..StoreConfig::default()
        });
        store.publish(fp(1), profile(1, 0.9, 0));
        store.publish(fp(2), profile(1, 0.4, 0));
        store.publish(fp(2), StoredProfile::tombstone(3, 0));
        store.publish(fp(3), profile(1, 0.5, 0));
        store.invalidate(fp(1));
        assert_eq!(store.stats().evictions, 1);
        let restored = ProfileStore::from_json(&store.snapshot_json()).unwrap();
        assert_eq!(restored.stats().bytes, store.stats().bytes);
        let sum: u64 = store
            .digests()
            .iter()
            .map(|d| d.profile.entry_bytes())
            .sum();
        assert_eq!(store.stats().bytes, sum);
    }

    #[test]
    fn restored_keeps_the_data_and_restarts_the_counters() {
        let mut store = ProfileStore::default();
        store.set_epoch(4);
        store.publish(fp(1), profile(1, 0.9, 0));
        store.publish(fp(1), profile(1, 0.9, 0));
        let _ = store.confident(fp(1));
        let restored = store.restored();
        assert_eq!(restored.snapshot_json(), store.snapshot_json());
        assert_eq!(restored.changes(), store.changes());
        let json = ProfileStore::from_json(&store.snapshot_json()).unwrap();
        assert_eq!(restored.stats(), json.stats());
        assert_eq!(restored.stats().merges, 0);
        assert!(restored.stats().bytes > 0);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(ProfileStore::from_json("").is_none());
        assert!(ProfileStore::from_json("{}").is_none());
        assert!(ProfileStore::from_json("{\"epoch\":0}").is_none());
    }

    #[test]
    fn probe_split_arithmetic() {
        let a = ProbeSplit {
            cold: 10,
            warm: 3,
            skipped: 7,
        };
        let b = ProbeSplit {
            cold: 1,
            warm: 2,
            skipped: 3,
        };
        assert_eq!(a.measured(), 13);
        assert_eq!(a.scheduled(), 20);
        let m = a.merged(&b);
        assert_eq!((m.cold, m.warm, m.skipped), (11, 5, 10));
    }
}
