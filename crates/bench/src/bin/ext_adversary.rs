//! Runs the adversarial-mediation extension experiment, merging its
//! timing and gate metrics into `BENCH_harness.json` without
//! clobbering the sections written by the `all` binary.
//!
//! `ext_adversary --smoke` instead runs a short defended knob-defiance
//! scenario twice (plus once reseeded) and exits nonzero unless the
//! two same-seed runs are bit-identical and the reseeded one diverges
//! — the determinism contract CI relies on.
//!
//! `ext_adversary --gate` runs the full grid and exits nonzero unless
//! the release bounds hold: the defended attacker nets no more than a
//! fixed margin over honest behavior on any attack row, honest apps
//! keep their baseline throughput, the all-honest row shows zero
//! quarantines, and the knob-defiance row actually quarantines the
//! defector.
use std::time::Instant;

use powermed_bench::experiments::ext_adversary;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check(
            "ext_adversary",
            ext_adversary::smoke_digest,
            ext_adversary::SEED,
        );
        return;
    }
    if std::env::args().any(|a| a == "--gate") {
        ext_adversary::gate(&ext_adversary::run_grid()).enforce("ext_adversary");
        return;
    }

    let start = Instant::now();
    let rows = ext_adversary::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_adversary wall-clock: {secs:.3} s");

    let (_, _, base_def) = &rows[0];
    let (_, defi_undef, defi_def) = &rows[3];
    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set(
        "ext_adversary",
        json_object(&[
            ("seconds".to_string(), format!("{secs:.6}")),
            ("scenarios".to_string(), rows.len().to_string()),
            (
                "honest_false_quarantines".to_string(),
                base_def.trust.quarantines.to_string(),
            ),
            (
                "defiance_attacker_undefended".to_string(),
                format!("{:.6}", defi_undef.attacker_perf),
            ),
            (
                "defiance_attacker_defended".to_string(),
                format!("{:.6}", defi_def.attacker_perf),
            ),
            (
                "defiance_quarantines".to_string(),
                defi_def.trust.quarantines.to_string(),
            ),
            (
                "defiance_clawback_w".to_string(),
                format!("{:.6}", defi_def.debt_repaid_w),
            ),
        ]),
    );
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_adversary into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }
}
