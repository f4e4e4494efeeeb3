//! `powermed-bench <name> [flags]`: the experiment harness's one command.
//!
//! * `<experiment> [--smoke | --gate]` — one entry of
//!   [`EXPERIMENTS`]: its report, or its `--smoke` determinism checks,
//!   or its `--gate` verdict or wall-clock budget;
//! * `fig7 --digest` — the FNV-1a digest of every Fig. 7 sweep value
//!   (CI compares it with `crates/bench/golden/fig7_digest.txt`);
//! * `all [--gate]` — every paper table and figure, timed into
//!   `BENCH_harness.json` (`--gate` fails past a 1.5 s total);
//! * `extensions` — every ablation and extension report;
//! * `doctor --explain <target> [--app A] [--seed N]` — a decision audit
//!   (see [`chain::doctor`]);
//! * `microbench` — the kernel microbenchmarks (see [`microbench`]).
//!
//! An unknown name exits 2 and lists the supported ones.
use powermed_bench::experiments::{self, fig7, Group, COMMANDS, EXPERIMENTS};
use powermed_bench::{chain, microbench};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let flags = args.get(1..).unwrap_or_default();
    let has = |flag: &str| flags.iter().any(|a| a == flag);
    match name {
        "all" => experiments::run_all(has("--gate")),
        "extensions" => experiments::group(Group::Extension).for_each(|e| e.print()),
        "doctor" => chain::doctor(flags),
        "microbench" => microbench::run(),
        "fig7" if has("--digest") => println!("{:#018x}", fig7::digest(&fig7::run())),
        _ => match experiments::find(name) {
            Some(experiment) => experiment.run(flags),
            None => {
                let names: Vec<&str> = (COMMANDS.into_iter())
                    .chain(EXPERIMENTS.iter().map(|e| e.name))
                    .collect();
                eprintln!(
                    "powermed-bench: unknown experiment {name:?} (supported: {})",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
    }
}
