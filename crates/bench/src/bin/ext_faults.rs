//! Runs the fault-injection extension experiment, merging its timing
//! into `BENCH_harness.json` without clobbering the sections written by
//! the `all` binary.
//!
//! `ext_faults --smoke` instead runs a short reference scenario twice
//! (plus once reseeded) and exits nonzero unless the two same-seed runs
//! are bit-identical and the reseeded one diverges — the determinism
//! contract CI relies on.
use std::time::Instant;

use powermed_bench::experiments::ext_faults;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check("ext_faults", ext_faults::smoke_digest, ext_faults::SEED);
        return;
    }

    let start = Instant::now();
    ext_faults::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_faults wall-clock: {secs:.3} s");

    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set(
        "ext_faults",
        json_object(&[
            ("seconds".to_string(), format!("{secs:.6}")),
            (
                "scenarios".to_string(),
                ext_faults::scenarios(ext_faults::SEED).len().to_string(),
            ),
            (
                "sweep_points".to_string(),
                ext_faults::SWEEP_RATES.len().to_string(),
            ),
        ]),
    );
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_faults into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }
}
