//! One module per table and figure of the paper's evaluation and per
//! extension experiment, and [`EXPERIMENTS`]: the table the
//! `powermed-bench` command dispatches over.
//!
//! Each entry names an experiment's print function and, where it has
//! them, its `--smoke` determinism checks, its `--gate` verdict and its
//! wall-clock budget; [`Experiment::run`] does the work every entry
//! shares (flag handling, timing, the harness-section merge, gate
//! enforcement), and [`run_all`] walks the paper group.

use std::time::Instant;

use crate::support::{field, json_object, merge_harness, smoke_check, GateReport};

pub mod ablations;
pub mod ext_adversary;
pub mod ext_cluster;
pub mod ext_cluster_faults;
pub mod ext_disagg;
pub mod ext_faults;
pub mod ext_latency;
pub mod ext_napp;
pub mod ext_obs;
pub mod ext_traffic;
pub mod ext_warmstart;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

/// Which walk an experiment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// A table or figure of the paper's evaluation (walked by `all`).
    Paper,
    /// An ablation or extension beyond the paper (walked by
    /// `extensions`).
    Extension,
}

/// What an experiment's plain run (no flags) does.
#[derive(Debug, Clone, Copy)]
pub enum Report {
    /// Prints the report; writes no harness section.
    Print(fn()),
    /// Prints the report and returns the fields of the experiment's
    /// harness section, which [`Experiment::run`] writes after a leading
    /// `seconds` field.
    Section(fn() -> Vec<(String, String)>),
    /// `print` is the report alone (what `extensions` shows); `run` is
    /// the full run, which times itself, writes its own sections and
    /// exits nonzero on a failed bound.
    Own {
        /// The report alone.
        print: fn(),
        /// The full run.
        run: fn(),
    },
}

/// One `--smoke` check: label, digest of a seed, and the seed (see
/// [`smoke_check`]).
pub type Smoke = (&'static str, fn(u64) -> u64, u64);

/// One experiment: the `powermed-bench <name>` command.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The command name.
    pub name: &'static str,
    /// Which walk runs it.
    pub group: Group,
    /// What the plain run does.
    pub report: Report,
    /// `--smoke` checks, in print order (none: `--smoke` is ignored).
    pub smoke: &'static [Smoke],
    /// The `--gate` verdict, run instead of the report.
    pub gate: Option<fn() -> GateReport>,
    /// The `--gate` wall-clock budget of the plain run, in seconds.
    pub budget: Option<f64>,
}

const fn extension(name: &'static str, report: Report) -> Experiment {
    Experiment {
        name,
        group: Group::Extension,
        report,
        smoke: &[],
        gate: None,
        budget: None,
    }
}

const fn paper(name: &'static str, print: fn()) -> Experiment {
    Experiment {
        group: Group::Paper,
        ..extension(name, Report::Print(print))
    }
}

/// Every experiment: the paper group in `all`'s order, then the
/// extension group in `extensions`' order.
pub static EXPERIMENTS: &[Experiment] = &[
    paper("table1", table1::print),
    paper("table2", table2::print),
    paper("fig2", fig2::print),
    paper("fig3", fig3::print),
    paper("fig4", fig4::print),
    paper("fig5", fig5::print),
    paper("fig7", fig7::print),
    paper("fig8", fig8::print),
    paper("fig9", fig9::print),
    paper("fig10", fig10::print),
    paper("fig11", fig11::print),
    paper("fig12", fig12::print),
    extension("ablations", Report::Print(ablations::print)),
    extension("ext_napp", Report::Print(ext_napp::print)),
    extension("ext_latency", Report::Print(ext_latency::print)),
    extension("ext_cluster", Report::Print(ext_cluster::print)),
    Experiment {
        smoke: &[("ext_faults", ext_faults::smoke_digest, ext_faults::SEED)],
        ..extension("ext_faults", Report::Section(ext_faults::print))
    },
    Experiment {
        smoke: &[
            ("ext_obs", ext_obs::smoke_digest, ext_faults::SEED),
            (
                "ext_obs fleet",
                ext_obs::fleet_smoke_digest,
                ext_cluster_faults::SEED,
            ),
        ],
        ..extension(
            "ext_obs",
            Report::Own {
                print: ext_obs::print,
                run: ext_obs::report,
            },
        )
    },
    Experiment {
        smoke: &[(
            "ext_cluster_faults",
            ext_cluster_faults::smoke_digest,
            ext_cluster_faults::SEED,
        )],
        ..extension(
            "ext_cluster_faults",
            Report::Section(ext_cluster_faults::print),
        )
    },
    Experiment {
        smoke: &[(
            "ext_warmstart",
            ext_warmstart::smoke_digest,
            ext_warmstart::SEED,
        )],
        budget: Some(1.0),
        ..extension("ext_warmstart", Report::Section(ext_warmstart::print))
    },
    Experiment {
        smoke: &[("ext_disagg", ext_disagg::smoke_digest, ext_disagg::SEED)],
        gate: Some(|| ext_disagg::gate(&ext_disagg::run_grid())),
        ..extension("ext_disagg", Report::Section(ext_disagg::print))
    },
    Experiment {
        smoke: &[(
            "ext_adversary",
            ext_adversary::smoke_digest,
            ext_adversary::SEED,
        )],
        gate: Some(|| ext_adversary::gate(&ext_adversary::run_grid())),
        ..extension("ext_adversary", Report::Section(ext_adversary::print))
    },
    Experiment {
        smoke: &[("ext_traffic", ext_traffic::smoke_digest, ext_traffic::SEED)],
        gate: Some(|| ext_traffic::gate(&ext_traffic::run_grid())),
        ..extension("ext_traffic", Report::Section(ext_traffic::print))
    },
];

/// The `powermed-bench` commands that are not table entries.
pub const COMMANDS: [&str; 4] = ["all", "extensions", "doctor", "microbench"];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiments of `group`, in table order.
pub fn group(group: Group) -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(move |e| e.group == group)
}

/// Per-PR perf budget of `all` (release build, CI runner), in seconds.
const ALL_BUDGET_SECONDS: f64 = 1.5;

/// `all`: every paper experiment in table order, timed, with the
/// wall-clock breakdown merged into the harness document's
/// `experiments`, `total_seconds` and `unit` sections. `gate` enforces
/// the 1.5 s budget on the total.
pub fn run_all(gate: bool) {
    let total_start = Instant::now();
    let timings: Vec<(&str, f64)> = group(Group::Paper)
        .map(|e| {
            let start = Instant::now();
            e.print();
            (e.name, start.elapsed().as_secs_f64())
        })
        .collect();
    let total = total_start.elapsed().as_secs_f64();

    println!("\n=== harness wall-clock ===");
    for (name, secs) in &timings {
        println!("{name:<8} {secs:>8.3} s");
    }
    println!("{:<8} {total:>8.3} s", "total");

    let fields: Vec<_> = (timings.iter())
        .map(|(name, secs)| field(name, format!("{secs:.6}")))
        .collect();
    merge_harness(
        vec![
            ("experiments", json_object(&fields)),
            ("total_seconds", format!("{total:.6}")),
            ("unit", "\"seconds\"".to_string()),
        ],
        "wrote BENCH_harness.json",
    );
    if gate {
        enforce_budget("total ", total, ALL_BUDGET_SECONDS);
    }
}

/// Prints the pass line when `secs` is under `budget`; otherwise prints
/// the failure and exits 1.
fn enforce_budget(what: &str, secs: f64, budget: f64) {
    if secs >= budget {
        eprintln!("perf gate FAILED: {what}{secs:.3} s reaches the {budget} s budget");
        std::process::exit(1);
    }
    println!("perf gate passed: {what}{secs:.3} s within the {budget} s budget");
}

impl Experiment {
    /// Prints the report alone, as `all` and `extensions` show it.
    pub fn print(&self) {
        match self.report {
            Report::Print(print) | Report::Own { print, .. } => print(),
            Report::Section(print) => {
                print();
            }
        }
    }

    /// Runs the experiment as `powermed-bench <name> <flags>` does.
    /// `--smoke` runs its smoke checks and `--gate` its verdict gate, in
    /// place of the report; otherwise the report runs, its harness
    /// section is merged, and `--gate` enforces the wall-clock budget.
    /// A flag the experiment does not have is ignored.
    pub fn run(&self, flags: &[String]) {
        let has = |flag: &str| flags.iter().any(|a| a == flag);
        if has("--smoke") && !self.smoke.is_empty() {
            for &(label, digest, seed) in self.smoke {
                smoke_check(label, digest, seed);
            }
            return;
        }
        if let (true, Some(gate)) = (has("--gate"), self.gate) {
            gate().enforce(self.name);
            return;
        }

        let start = Instant::now();
        let fields = match self.report {
            Report::Print(print) => {
                print();
                None
            }
            Report::Own { run, .. } => {
                run();
                None
            }
            Report::Section(print) => Some(print()),
        };
        let secs = start.elapsed().as_secs_f64();
        if let Some(fields) = fields {
            let name = self.name;
            println!("\n{name} wall-clock: {secs:.3} s");
            let mut section = vec![field("seconds", format!("{secs:.6}"))];
            section.extend(fields);
            merge_harness(
                vec![(name, json_object(&section))],
                &format!("merged {name} into BENCH_harness.json"),
            );
        }
        if let (true, Some(budget)) = (has("--gate"), self.budget) {
            enforce_budget("", secs, budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The experiment names the committed goldens under `golden/<dir>/`
    /// are for (file stems).
    fn goldens(dir: &str) -> BTreeSet<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(dir);
        std::fs::read_dir(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| {
                let path = entry.expect("readable golden entry").path();
                let stem = path.file_stem().expect("golden file name");
                stem.to_string_lossy().into_owned()
            })
            .collect()
    }

    #[test]
    fn smoke_goldens_and_smoke_entries_match_one_to_one() {
        let with_smoke: BTreeSet<String> = (EXPERIMENTS.iter())
            .filter(|e| !e.smoke.is_empty())
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(goldens("smoke"), with_smoke);
    }

    #[test]
    fn every_stdout_golden_names_a_print_only_entry() {
        let stdout = goldens("stdout");
        assert!(!stdout.is_empty());
        for name in stdout {
            let e = find(&name).unwrap_or_else(|| panic!("no experiment {name:?}"));
            assert!(
                matches!(e.report, Report::Print(_)),
                "{name} writes a section"
            );
            assert!(e.smoke.is_empty() && e.gate.is_none() && e.budget.is_none());
        }
    }

    #[test]
    fn names_are_unique_and_unknown_names_are_not_found() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.extend(COMMANDS);
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are unique");
        for unknown in ["fig6", "", "ext_fault", "all"] {
            assert!(find(unknown).is_none(), "{unknown:?}");
        }
    }
}
