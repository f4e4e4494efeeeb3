//! Runs the warm-start knowledge-plane experiment, merging its timing
//! and fleet-wide probe counters into `BENCH_harness.json` without
//! clobbering the sections written by the other harness binaries.
//!
//! `ext_warmstart --smoke` instead runs a short cold + warm reference
//! pair twice (plus once reseeded) and exits nonzero unless the two
//! same-seed runs are bit-identical and the reseeded one diverges — the
//! determinism contract CI relies on.
//!
//! `ext_warmstart --gate` runs the full experiment and additionally
//! exits nonzero when the wall clock reaches [`GATE_SECONDS`] — the
//! per-PR perf budget CI enforces.
use std::time::Instant;

use powermed_bench::experiments::ext_warmstart;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

/// Perf-gate budget for the full experiment (release build, CI runner).
const GATE_SECONDS: f64 = 10.0;

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check(
            "ext_warmstart",
            ext_warmstart::smoke_digest,
            ext_warmstart::SEED,
        );
        return;
    }

    let start = Instant::now();
    let rows = ext_warmstart::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_warmstart wall-clock: {secs:.3} s");

    // The reference churn row's probe counters are the experiment's
    // headline numbers; record them alongside the timing.
    let (_, cold, warm) = &rows[1];
    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set(
        "ext_warmstart",
        json_object(&[
            ("seconds".to_string(), format!("{secs:.6}")),
            (
                "scenarios".to_string(),
                ext_warmstart::scenarios(ext_warmstart::SEED)
                    .len()
                    .to_string(),
            ),
            ("servers".to_string(), ext_warmstart::SERVERS.to_string()),
            (
                "reference_cold_probes".to_string(),
                cold.probes.measured().to_string(),
            ),
            (
                "reference_warm_probes".to_string(),
                warm.probes.measured().to_string(),
            ),
            (
                "reference_warm_skipped".to_string(),
                warm.probes.skipped.to_string(),
            ),
            (
                "reference_store_hits".to_string(),
                warm.store.hits.to_string(),
            ),
            (
                "reference_probes_saved".to_string(),
                format!("{:.6}", warm.probes_saved_vs(cold)),
            ),
        ]),
    );
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_warmstart into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }

    if std::env::args().any(|a| a == "--gate") {
        if secs >= GATE_SECONDS {
            eprintln!("perf gate FAILED: {secs:.3} s reaches the {GATE_SECONDS} s budget");
            std::process::exit(1);
        }
        println!("perf gate passed: {secs:.3} s within the {GATE_SECONDS} s budget");
    }
}
