//! Property tests for the profile store's distributed-systems contract:
//! merge is a semilattice join (commutative, associative, idempotent),
//! eviction never drops the best knowledge in the store, and snapshots
//! restore bit-identically. These are the properties that make replica
//! convergence over a lossy, reordering control plane a theorem rather
//! than a hope.

use proptest::prelude::*;

use powermed_cf::FoldedRow;
use powermed_profiles::{
    AppFingerprint, ProbeSample, ProfileStore, Provenance, StoreConfig, StoredProfile,
};

/// Deterministically expands a drawn tuple into a full profile. The
/// sample/factor payloads are derived from the scalars so that distinct
/// draws exercise distinct serializations without needing nested
/// collection strategies.
fn profile_from(
    version: u64,
    confidence: f64,
    n_samples: usize,
    server: u64,
    epoch: u64,
) -> StoredProfile {
    let samples = (0..n_samples)
        .map(|i| ProbeSample {
            col: i * 7 + server as usize,
            power_w: 5.0 + confidence * (i as f64 + 1.0),
            perf: 100.0 * (i as f64 + 1.0) + version as f64,
        })
        .collect();
    let factors: Vec<f64> = (0..4).map(|i| confidence * (i as f64 - 1.5)).collect();
    StoredProfile {
        version,
        confidence,
        samples,
        power_row: FoldedRow::new(confidence - 0.5, factors.clone()),
        perf_row: FoldedRow::new(0.5 - confidence, factors),
        provenance: Provenance {
            server,
            epoch,
            probes: n_samples as u64,
        },
    }
}

/// Float bit patterns that `==` and the canonical serialization get
/// wrong: both signed zeros, and NaNs of either sign with two payloads
/// (the canonical form prints every NaN as `NaN`).
const ODD: [u64; 6] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0xfff8_0000_0000_0001,
];

/// Overwrites one float field with an [`ODD`] value: `odd / 6` picks
/// the field (confidence, first sample's power, power-row bias,
/// perf-row first factor), `odd % 6` the value; `odd >= 24` leaves the
/// profile alone.
fn with_odd(mut p: StoredProfile, odd: u64) -> StoredProfile {
    let Some(&bits) = ODD.get((odd % 6) as usize).filter(|_| odd < 24) else {
        return p;
    };
    let v = f64::from_bits(bits);
    match odd / 6 {
        0 => p.confidence = v,
        1 => {
            if let Some(s) = p.samples.first_mut() {
                s.power_w = v;
            }
        }
        2 => p.power_row = FoldedRow::new(v, p.power_row.factors().to_vec()),
        _ => {
            let mut factors = p.perf_row.factors().to_vec();
            factors[0] = v;
            p.perf_row = FoldedRow::new(p.perf_row.bias(), factors);
        }
    }
    p
}

/// Every field of a profile as raw bits, lengths included: equal
/// vectors mean bit-identical profiles (unlike `PartialEq`, under which
/// a NaN-bearing profile is not even equal to itself).
fn bits(p: &StoredProfile) -> Vec<u64> {
    let mut out = vec![p.version, p.confidence.to_bits(), p.samples.len() as u64];
    for s in &p.samples {
        out.extend([s.col as u64, s.power_w.to_bits(), s.perf.to_bits()]);
    }
    for row in [&p.power_row, &p.perf_row] {
        out.extend([row.bias().to_bits(), row.factors().len() as u64]);
        out.extend(row.factors().iter().map(|f| f.to_bits()));
    }
    out.extend([p.provenance.server, p.provenance.epoch, p.provenance.probes]);
    out
}

/// One profile draw, nested because the shim's tuple strategies stop
/// at arity 4: `((version, confidence, odd), (samples, server, epoch))`.
type Draw = ((u64, f64, u64), (usize, u64, u64));

fn drawn(d: Draw) -> StoredProfile {
    let ((version, confidence, odd), (samples, server, epoch)) = d;
    with_odd(
        profile_from(version, confidence, samples, server, epoch),
        odd,
    )
}

#[allow(clippy::type_complexity)]
const DRAW: (
    (
        std::ops::Range<u64>,
        std::ops::RangeInclusive<f64>,
        std::ops::Range<u64>,
    ),
    (
        std::ops::Range<usize>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    ),
) = (
    (0u64..4, 0.0f64..=1.0, 0u64..36),
    (0usize..5, 0u64..6, 0u64..3),
);

proptest! {
    #[test]
    fn merge_is_commutative(a in DRAW, b in DRAW) {
        let pa = drawn(a);
        let pb = drawn(b);
        prop_assert_eq!(bits(&pa.clone().merge(pb.clone())), bits(&pb.merge(pa)));
    }

    #[test]
    fn merge_is_commutative_between_odd_variants(a in DRAW, odd in 0u64..36) {
        // Two replicas that differ in one odd float only: the canonical
        // form cannot order a NaN sign or payload, the bits must.
        let pa = drawn(a);
        let pb = with_odd(pa.clone(), odd);
        prop_assert_eq!(bits(&pa.clone().merge(pb.clone())), bits(&pb.merge(pa)));
    }

    #[test]
    fn merge_is_idempotent(a in DRAW) {
        let pa = drawn(a);
        prop_assert_eq!(bits(&pa.clone().merge(pa.clone())), bits(&pa));
    }

    #[test]
    fn merge_is_associative(a in DRAW, b in DRAW, c in DRAW) {
        let pa = drawn(a);
        let pb = drawn(b);
        let pc = drawn(c);
        prop_assert_eq!(
            bits(&pa.clone().merge(pb.clone()).merge(pc.clone())),
            bits(&pa.merge(pb.merge(pc)))
        );
    }

    #[test]
    fn eviction_never_drops_the_highest_confidence(
        capacity in 1usize..5,
        pubs in collection::vec((0u64..12, 0.0f64..=1.0, 1usize..4), 1usize..24),
    ) {
        // Fixed version and epoch: merge then keeps the higher-confidence
        // replica per fingerprint and no decay skews effective values, so
        // "highest confidence ever published" is well-defined.
        let mut store = ProfileStore::new(StoreConfig {
            capacity,
            ..StoreConfig::default()
        });
        for &(fp, confidence, n) in &pubs {
            store.publish(
                AppFingerprint::from_raw(fp),
                profile_from(1, confidence, n, fp, 0),
            );
        }
        let best = pubs
            .iter()
            .map(|&(_, c, _)| c)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_in_store = store
            .digests()
            .iter()
            .map(|d| d.profile.confidence)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(best_in_store, best);
    }

    #[test]
    fn snapshot_restore_is_bit_identical(
        epoch in 0u64..5,
        pubs in collection::vec((0u64..10, 0.0f64..=1.0, 0usize..4, 0u64..3), 0usize..12),
        invalidate in collection::vec(0u64..10, 0usize..4),
    ) {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 6,
            ..StoreConfig::default()
        });
        store.set_epoch(epoch);
        for &(fp, confidence, n, v) in &pubs {
            store.publish(
                AppFingerprint::from_raw(fp),
                profile_from(v, confidence, n, fp, epoch.min(v)),
            );
        }
        for &fp in &invalidate {
            let _ = store.invalidate(AppFingerprint::from_raw(fp));
        }
        let snap = store.snapshot_json();
        let restored = ProfileStore::from_json(&snap).expect("snapshot parses");
        prop_assert_eq!(restored.snapshot_json(), snap);
        prop_assert_eq!(restored.digests(), store.digests());
        prop_assert_eq!(restored.epoch(), store.epoch());
    }
}
