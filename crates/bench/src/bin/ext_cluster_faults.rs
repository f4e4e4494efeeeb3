//! Runs the cluster control-plane fault experiment, merging its timing
//! into `BENCH_harness.json` without clobbering the sections written by
//! the `all` binary.
//!
//! `ext_cluster_faults --smoke` instead runs a short reference scenario
//! twice (plus once reseeded) and exits nonzero unless the two
//! same-seed runs are bit-identical and the reseeded one diverges — the
//! determinism contract CI relies on.
use std::time::Instant;

use powermed_bench::experiments::ext_cluster_faults;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check(
            "ext_cluster_faults",
            ext_cluster_faults::smoke_digest,
            ext_cluster_faults::SEED,
        );
        return;
    }

    let start = Instant::now();
    ext_cluster_faults::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_cluster_faults wall-clock: {secs:.3} s");

    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set(
        "ext_cluster_faults",
        json_object(&[
            ("seconds".to_string(), format!("{secs:.6}")),
            (
                "scenarios".to_string(),
                ext_cluster_faults::scenarios(ext_cluster_faults::SEED)
                    .len()
                    .to_string(),
            ),
            (
                "servers".to_string(),
                ext_cluster_faults::SERVERS.to_string(),
            ),
        ]),
    );
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_cluster_faults into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }
}
