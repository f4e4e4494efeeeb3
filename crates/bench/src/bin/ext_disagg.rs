//! Runs the estimated-power disaggregation extension experiment,
//! merging its timing and gate metrics into `BENCH_harness.json`
//! without clobbering the sections written by the `all` binary.
//!
//! `ext_disagg --smoke` instead runs a short estimated reference
//! scenario twice (plus once reseeded) and exits nonzero unless the two
//! same-seed runs are bit-identical and the reseeded one diverges — the
//! determinism contract CI relies on.
//!
//! `ext_disagg --gate` runs the full grid and exits nonzero unless the
//! release bounds hold: estimated within a fixed margin of the oracle
//! on the reference fault scenario, zero forced safe-mode escalations
//! there (the breaker-trip analogue), and zero false-positive
//! engagements or E6s on the clean row.
use std::time::Instant;

use powermed_bench::experiments::ext_disagg;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check("ext_disagg", ext_disagg::smoke_digest, ext_disagg::SEED);
        return;
    }
    if std::env::args().any(|a| a == "--gate") {
        ext_disagg::gate(&ext_disagg::run_grid()).enforce("ext_disagg");
        return;
    }

    let start = Instant::now();
    let rows = ext_disagg::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_disagg wall-clock: {secs:.3} s");

    let (_, ref_oracle, ref_est) = &rows[1];
    let (_, _, clean_est) = &rows[0];
    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set(
        "ext_disagg",
        json_object(&[
            ("seconds".to_string(), format!("{secs:.6}")),
            ("scenarios".to_string(), rows.len().to_string()),
            (
                "ref_mean_gap".to_string(),
                format!(
                    "{:.6}",
                    (ref_est.mean_normalized - ref_oracle.mean_normalized).abs()
                ),
            ),
            (
                "ref_violation_gap_s".to_string(),
                format!(
                    "{:.6}",
                    ref_est.violation_seconds - ref_oracle.violation_seconds
                ),
            ),
            (
                "ref_mean_abs_err_w".to_string(),
                format!("{:.6}", ref_est.mean_abs_err_w),
            ),
            (
                "ref_escalations".to_string(),
                ref_est.estimation.escalations.to_string(),
            ),
            (
                "clean_false_engagements".to_string(),
                clean_est.estimation.fallback_engagements.to_string(),
            ),
            (
                "clean_sensor_faults".to_string(),
                clean_est.hardening.sensor_faults.to_string(),
            ),
        ]),
    );
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_disagg into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }
}
