//! Runs the request-driven traffic extension experiment, merging its
//! attainment-vs-tightness curves into `BENCH_harness.json` without
//! clobbering the sections written by the `all` binary.
//!
//! `ext_traffic --smoke` instead runs a short doctor-cell day twice
//! (plus once reseeded) and exits nonzero unless the two same-seed
//! runs are bit-identical and the reseeded one diverges — the
//! determinism contract CI relies on.
//!
//! `ext_traffic --gate` runs the full grid and exits nonzero unless
//! the release bounds hold: the mediated fleet beats the static split
//! on attainment at equal energy on the tight heterogeneous cell,
//! never loses attainment anywhere, and every DP split respects its
//! budget.
use std::time::Instant;

use powermed_bench::experiments::ext_traffic;
use powermed_bench::support::{json_object, smoke_check, HarnessDoc};

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_check("ext_traffic", ext_traffic::smoke_digest, ext_traffic::SEED);
        return;
    }
    if std::env::args().any(|a| a == "--gate") {
        ext_traffic::gate(&ext_traffic::run_grid()).enforce("ext_traffic");
        return;
    }

    let start = Instant::now();
    let rows = ext_traffic::print();
    let secs = start.elapsed().as_secs_f64();
    println!("\next_traffic wall-clock: {secs:.3} s");

    // One attainment-vs-tightness curve per fleet composition and
    // flavor, tightness axis loosest-first (matching `TIGHTNESS`).
    let mut fields: Vec<(String, String)> = vec![
        ("seconds".to_string(), format!("{secs:.6}")),
        ("scenarios".to_string(), rows.len().to_string()),
        (
            "tightness".to_string(),
            format!(
                "[{}]",
                ext_traffic::TIGHTNESS
                    .iter()
                    .map(|t| format!("{t:.2}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    for (sku, mix) in ext_traffic::sku_mixes().iter().enumerate() {
        let curve = |mediated: bool| {
            let pts: Vec<String> = rows
                .iter()
                .filter(|(s, _, _)| s.sku == sku)
                .map(|(_, st, md)| {
                    format!(
                        "{:.6}",
                        if mediated {
                            md.attainment
                        } else {
                            st.attainment
                        }
                    )
                })
                .collect();
            format!("[{}]", pts.join(","))
        };
        let energy = |mediated: bool| {
            let pts: Vec<String> = rows
                .iter()
                .filter(|(s, _, _)| s.sku == sku)
                .map(|(_, st, md)| {
                    format!("{:.3}", if mediated { md.energy_kj } else { st.energy_kj })
                })
                .collect();
            format!("[{}]", pts.join(","))
        };
        let tag = mix.label.replace(['+', '-'], "_");
        fields.push((format!("attainment_static_{tag}"), curve(false)));
        fields.push((format!("attainment_mediated_{tag}"), curve(true)));
        fields.push((format!("energy_kj_static_{tag}"), energy(false)));
        fields.push((format!("energy_kj_mediated_{tag}"), energy(true)));
    }
    let report = ext_traffic::gate(&rows);
    fields.push(("gate_passed".to_string(), report.passed().to_string()));
    let mut doc = HarnessDoc::load("BENCH_harness.json");
    doc.set("ext_traffic", json_object(&fields));
    match doc.save("BENCH_harness.json") {
        Ok(()) => println!("merged ext_traffic into BENCH_harness.json"),
        Err(e) => eprintln!("could not write BENCH_harness.json: {e}"),
    }
}
