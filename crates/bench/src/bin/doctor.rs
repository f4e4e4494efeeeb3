//! Decision-audit doctor: replays a reference scenario with the flight
//! recorder attached and explains a mediator decision from the journal.
//!
//! ```text
//! doctor --explain <target> [--app <name-or-1-based-index>] [--seed N|0xN]
//! ```
//!
//! Every target is one chain spec in [`powermed_bench::chain::TARGETS`]
//! (`throttle`, `sensor-fault`, `quarantine`, `slo-miss`,
//! `breaker-trip`, `fallback-cap`): the spec names the reference run to
//! replay, the decision to anchor on, and the causes, decisions and
//! effects to walk to from it. `--app` picks the throttled app for
//! `throttle`. The last two targets are cross-server: they replay a
//! whole fleet with every server shipping its journal over the control
//! plane and walk the manager's merged timeline. The chain prints
//! chronologically per stage (sequence number, poll, sim time, epoch,
//! event); the doctor exits 1 when the chain cannot be reconstructed.
//! The committed transcripts under `crates/bench/golden/doctor/` are
//! the authoritative output of each target.
use powermed_bench::chain::{self, TARGETS};
use powermed_bench::support::parse_seed;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = arg_value(&args, "--explain").unwrap_or_else(|| "throttle".to_string());
    let Some(spec) = chain::spec(&what) else {
        let supported: Vec<&str> = TARGETS.iter().map(|s| s.target).collect();
        eprintln!(
            "doctor: unknown --explain target {what:?} (supported: {})",
            supported.join(", ")
        );
        std::process::exit(2);
    };
    let seed = match arg_value(&args, "--seed") {
        None => spec.seed,
        Some(v) => parse_seed(&v).unwrap_or_else(|| {
            eprintln!("doctor: --seed takes a decimal or 0x-prefixed hex u64, got {v:?}");
            std::process::exit(2);
        }),
    };
    let replay = (spec.replay)(seed, arg_value(&args, "--app").as_deref());
    let focus = replay.focus.as_deref();
    let Some(chain) = chain::explain(spec, &replay.log, focus) else {
        let app = focus.map(|app| format!(" for {app}")).unwrap_or_default();
        eprintln!("doctor: found no {}{app}", spec.missing);
        std::process::exit(1);
    };
    chain::print(&chain);
}
