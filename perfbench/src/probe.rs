//! Host-speed probe.
//!
//! On a shared host, co-tenants slow this process by up to 1.8x in
//! phases lasting from a fraction of a second to tens of seconds, and
//! the guest cannot see it: thread CPU time equals wall time throughout.
//! A fixed kernel timed right before and after each operation measures
//! how fast the host runs at that moment, and operation times are
//! rescaled to the speed at which the kernel takes [`REFERENCE_S`]. The
//! kernel lives in the benchmark, so no change to the program can speed
//! it up.

use std::collections::BTreeMap;
use std::time::Instant;

/// The rescaling target: close to the kernel's host seconds on the
/// reference host (2-vCPU Intel Xeon at 2.0 GHz) with no co-tenant load.
pub const REFERENCE_S: f64 = 0.003;

/// The kernel, in two halves shaped like the simulator's two kinds of
/// work. Co-tenant load does not slow every kind of code alike, so the
/// kernel mixes both.
fn kernel() -> f64 {
    string_maps() + dense_solves()
}

/// String-keyed ordered-map updates, short-lived vectors and float math:
/// the shape of a control step.
fn string_maps() -> f64 {
    let mut map: BTreeMap<String, f64> = BTreeMap::new();
    let mut acc = 1.0f64;
    for round in 0..1_000u64 {
        for k in 0..16u64 {
            let key = format!("app-{}", (k * 7 + round) % 48);
            let v = map.entry(key).or_insert(k as f64);
            *v = (*v * 1.000_1 + acc).sqrt();
            acc = (acc + *v).ln_1p();
        }
        let mut buf: Vec<f64> = (0..32).map(|i| i as f64 * acc).collect();
        buf.sort_by(|a, b| b.total_cmp(a));
        acc += buf[3] * 1e-9;
    }
    acc
}

/// Small dense linear solves by Gaussian elimination: the shape of the
/// calibration fits.
fn dense_solves() -> f64 {
    const N: usize = 8;
    let mut acc = 0.0f64;
    for rep in 0..5_000u64 {
        let mut a = [[0.0f64; N]; N];
        let mut b = [0.0f64; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = 1.0 / (i + j + 1) as f64;
            }
            row[i] += 2.0 + (rep % 7) as f64 * 0.01;
            b[i] = (i as f64 + acc * 1e-9).sin();
        }
        for k in 0..N {
            let pivot = a[k];
            for i in k + 1..N {
                let f = a[i][k] / pivot[k];
                for (x, p) in a[i][k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let tail: f64 = (i + 1..N).map(|j| a[i][j] * b[j]).sum();
            b[i] = (b[i] - tail) / a[i][i];
        }
        acc += b.iter().sum::<f64>();
    }
    acc
}

/// Host seconds one run of the kernel takes now.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// `host_s` rescaled to reference speed, given the probe seconds
/// measured around it.
pub fn to_reference(host_s: f64, probe_s: f64) -> f64 {
    host_s * REFERENCE_S / probe_s
}
