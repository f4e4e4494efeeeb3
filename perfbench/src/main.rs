//! Host-speed benchmark of the powermed fleet simulator.
//!
//! ```text
//! powermed-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload single-threaded in this process for `--seconds`,
//! checks every operation's outcome against an independent reference,
//! prints a human-readable table and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced operations; `--trace 1`
//! alternates untraced and traced operations and reports the per-layer
//! ledger. See `README.md` beside this package for what each number
//! means.

mod probe;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stats::{median, percentile};
use workloads::{OpResult, SimOutcome, Workload};

/// Extra cold processes that repeat the set-up, so `setup_s` is a
/// median of this many plus one samples.
const SETUP_CHILDREN: usize = 10;

/// End-to-end metrics every workload reports under `--trace 0`, with
/// units (the `end_to_end` list of `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 3] = [
    ("server_steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports under `--trace 1`, with
/// units (the `per_layer` list of `BENCHMARK.json`). A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("core.step_us_p50", "us"),
    ("core.step_us_p99", "us"),
    ("core.plan_s", "s"),
    ("core.plan_calls", "count"),
    ("core.replans", "count"),
    ("core.knob_writes", "count"),
    ("core.polls", "count"),
    ("core.calibration_s", "s"),
    ("core.calibration_calls", "count"),
    ("traffic.gen_s", "s"),
    ("traffic.requests", "count"),
    ("traffic.completions", "count"),
    ("traffic.slo_windows", "count"),
    ("traffic.windows_missed", "count"),
    ("sim.fleet_build_s", "s"),
    ("cluster.value_curves_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.unattributed_s", "s"),
    ("cluster.coordination_s", "s"),
    ("cluster.coordination_calls", "count"),
    ("cluster.uplinks_dropped", "count"),
    ("cluster.downlinks_dropped", "count"),
    ("cluster.node_restarts", "count"),
    ("cluster.heartbeat_misses", "count"),
    ("cluster.reapportionments", "count"),
    ("cluster.breaker_trips", "count"),
    ("telemetry.events", "count"),
    ("telemetry.digest_bytes", "bytes"),
    ("telemetry.max_wave_bytes", "bytes"),
    ("telemetry.timeline_len", "count"),
    ("telemetry.dedup_ratio", "ratio"),
    ("telemetry.encode_s", "s"),
    ("telemetry.merge_s", "s"),
    ("telemetry.timeline_digest_s", "s"),
    ("cf.probes_cold", "count"),
    ("cf.probes_warm", "count"),
    ("cf.probes_skipped", "count"),
    ("profiles.hits", "count"),
    ("profiles.misses", "count"),
    ("profiles.hit_ratio", "ratio"),
    ("profiles.merges", "count"),
    ("profiles.bytes", "bytes"),
    ("profiles.divergence", "count"),
    ("unattributed_share", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
];

const USAGE: &str =
    "usage: powermed-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: repeat the cold set-up in a fresh process and print
    /// its duration.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let (seconds, trace) = if setup_only {
        (0.0, false)
    } else {
        let seconds = get("seconds")?
            .parse::<f64>()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        (seconds, trace)
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Repeats the cold set-up in a fresh copy of this program and returns
/// its duration.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .strip_prefix("setup_s ")
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| "set-up probe printed no duration".to_string())
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The last-line result object.
fn result_json(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let born = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (prep, setup) = workloads::prepare(args.workload, args.seed);
    let own_setup_s = probe::to_reference(born.elapsed().as_secs_f64(), probe::probe_s());
    if args.setup_only {
        println!("setup_s {own_setup_s}");
        return ExitCode::SUCCESS;
    }
    match run(&args, &prep, own_setup_s, setup) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One operation on input draw `draw`, with its host time rescaled to
/// reference speed by the probes run just before and just after it.
struct Measured {
    op: OpResult,
    draw: usize,
    ref_s: f64,
}

fn measure(
    prep: &workloads::Prepared,
    draw: usize,
    traced: bool,
    last_probe_s: &mut f64,
) -> Measured {
    let op = workloads::run_op(prep, draw, traced);
    let next = probe::probe_s();
    let ref_s = probe::to_reference(op.wall_s, (*last_probe_s + next) / 2.0);
    *last_probe_s = next;
    Measured { op, draw, ref_s }
}

fn run(
    args: &Args,
    prep: &workloads::Prepared,
    own_setup_s: f64,
    setup: workloads::SetupTimes,
) -> Result<(), String> {
    let mut setup_samples = vec![own_setup_s];
    if !args.trace {
        for _ in 0..SETUP_CHILDREN {
            setup_samples.push(setup_in_child(args)?);
        }
    }

    let references = workloads::reference(prep);
    let draws = references.len();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut last_probe_s = probe::probe_s();
    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    let mut peak_rss = None;
    while plain.len() < draws || started.elapsed() < budget {
        let draw = plain.len() % draws;
        plain.push(measure(prep, draw, false, &mut last_probe_s));
        // Read once the workload has run in full, before the benchmark's
        // own per-operation records pile up.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        if args.trace {
            traced.push(measure(prep, draw, true, &mut last_probe_s));
        }
    }

    let mut failed = 0;
    for (kind, m) in plain
        .iter()
        .map(|m| ("untraced", m))
        .chain(traced.iter().map(|m| ("traced", m)))
    {
        let expected = references[m.draw].1;
        if m.op.digest != expected {
            failed += 1;
            eprintln!(
                "check failed: {kind} outcome {:#018x} differs from the reference {expected:#018x}",
                m.op.digest
            );
        } else if !m.op.replay_ok {
            failed += 1;
            eprintln!("check failed: a {kind} replay drew other counts than the run");
        }
    }
    let attempted = plain.len() + traced.len();

    println!(
        "workload {} seed {} ({} untraced, {} traced operations)",
        args.workload.name(),
        args.seed,
        plain.len(),
        traced.len()
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (_, d) in &references {
        digest = (digest ^ d).wrapping_mul(0x0000_0100_0000_01b3);
    }
    println!("outcome digest {digest:#018x} ({draws} input draws)");
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layer_metrics(&plain, &traced, setup)
    } else {
        let rss = peak_rss.expect("at least one operation ran");
        end_to_end_metrics(&plain, &setup_samples, rss, &references)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(())
}

fn median_of(ops: &[Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

/// `work` per second over the run's input draws: each draw's work over
/// the median time of its operations, summed across draws, so every
/// draw weighs once however many operations it got.
fn rate(
    ops: &[Measured],
    draws: usize,
    work: fn(&OpResult) -> u64,
    time: fn(&Measured) -> f64,
) -> f64 {
    let (mut units, mut secs) = (0.0, 0.0);
    for draw in 0..draws {
        let mine: Vec<&Measured> = ops.iter().filter(|m| m.draw == draw).collect();
        units += work(&mine[0].op) as f64;
        secs += median(&mine.iter().map(|m| time(m)).collect::<Vec<_>>());
    }
    units / secs
}

/// The `--trace 0` metrics. The JSON carries the three every workload
/// has; the workload-specific ones, and the raw host rates, are printed
/// above it.
fn end_to_end_metrics(
    plain: &[Measured],
    setup_samples: &[f64],
    peak_rss_mb: f64,
    references: &[(SimOutcome, u64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let draws = references.len();
    let steps = |op: &OpResult| op.server_steps;
    let steps_per_s = rate(plain, draws, steps, |m| m.ref_s);
    let raw = rate(plain, draws, steps, |m| m.op.wall_s);
    println!(
        "  {:<28} {raw:>16.6} steps/s (unscaled)",
        "server_steps_per_s"
    );
    let requests = rate(plain, draws, |op| op.requests, |m| m.ref_s);
    if requests > 0.0 {
        println!("  {:<28} {requests:>16.6} 1/s", "requests_per_s");
    }
    let waves: Vec<f64> = plain
        .iter()
        .flat_map(|m| m.op.waves_us.iter().copied())
        .collect();
    if !waves.is_empty() {
        for (name, q) in [("wave_p50_us", 0.5), ("wave_p99_us", 0.99)] {
            match percentile(&waves, q) {
                Some(v) => println!("  {name:<28} {v:>16.6} us (unscaled, n={})", waves.len()),
                None => println!("  {name:<28} {:>16} us (n={}, too few)", "-", waves.len()),
            }
        }
    }
    // Modelled metrics, averaged over the draws.
    for (k, (name, _, unit)) in references[0].0.metrics().into_iter().enumerate() {
        let mean = references
            .iter()
            .map(|(o, _)| o.metrics()[k].1)
            .sum::<f64>()
            / draws as f64;
        println!("  {name:<28} {mean:>16.6} {unit}");
    }
    for (o, _) in references {
        if let SimOutcome::Fleet { trace_digest, .. } = o {
            println!("  {:<28} {trace_digest:>#18x}", "fault_trace_digest");
        }
    }
    let values = BTreeMap::from([
        ("server_steps_per_s", steps_per_s),
        ("setup_s", median(setup_samples)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}

/// The `--trace 1` ledger: medians over the traced operations, the cold
/// set-up replays of this process, and the tracing overhead.
fn layer_metrics(
    plain: &[Measured],
    traced: &[Measured],
    setup: workloads::SetupTimes,
) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "sim.fleet_build_s" => setup.fleet_build_s,
                "cluster.value_curves_s" => setup.value_curves_s,
                "tracing.overhead_ratio" => {
                    median_of(traced, |m| m.ref_s) / median_of(plain, |m| m.ref_s)
                }
                _ => median_of(traced, |m| m.op.layers.get(name).copied().unwrap_or(0.0)),
            };
            (name, value, unit)
        })
        .collect()
}
