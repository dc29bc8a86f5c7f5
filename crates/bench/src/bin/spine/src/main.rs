//! `spine` — the repository's benchmark.
//!
//! ```text
//! spine [--workload NAME] [--seed N] [--seconds S] [--smoke]
//!       [--trace [0|1]] [--out DIR] [--check-determinism]
//! ```
//!
//! One process, one driver thread. Without `--workload` every workload
//! runs in turn. A run repeats its workload three times on identical
//! inputs and folds the repetitions into one outcome (`Outcome::merge`).
//! It measures end-to-end metrics with tracing off; `--trace` adds a
//! second, traced pass over the same inputs plus twin replays, and
//! reports the per-layer metrics. The last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); any failed oracle or unexpected outcome exits non-zero.
//! See `README.md` beside this crate for every metric and workload.

mod gen;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Cfg, Outcome, REPETITIONS};

/// `run_seconds` of `BENCHMARK.json`: the default length of a run's
/// measured phases together.
const RUN_SECONDS: f64 = 10.0;
/// `--smoke` runs every workload at one tenth size.
const SMOKE_SHARE: f64 = 0.1;
const DEFAULT_SEED: u64 = 2023;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    check_determinism: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from("target/spine"),
        check_determinism: false,
    };
    let mut smoke = false;
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--smoke" => smoke = true,
            "--check-determinism" => args.check_determinism = true,
            // A bare flag, or the `--trace 0|1` form.
            "--trace" => {
                args.trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if smoke {
        args.seconds *= SMOKE_SHARE;
    }
    if let Some(name) = &args.workload {
        if !report::WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = report::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    Ok(args)
}

/// One repetition of one workload.
fn run_once(name: &str, cfg: &Cfg, trace: bool) -> (Outcome, Tracer) {
    let workload = report::WORKLOADS.iter().find(|w| w.name == name).expect("validated name");
    let mut tracer = Tracer::new(trace);
    let outcome = (workload.run)(cfg, &mut tracer);
    (outcome, tracer)
}

/// One run of one workload: [`REPETITIONS`] repetitions on identical
/// inputs, each a third of `cfg.seconds`, folded into one outcome. The
/// peak resident set is the first repetition's, which starts on the
/// heap the process was given; a later one starts on whatever the
/// allocator kept of the one before, and its peak wanders by a few per
/// cent. The spans kept are the last repetition's.
fn run_workload(name: &str, cfg: &Cfg, trace: bool) -> (Outcome, Tracer) {
    let share = Cfg { seconds: cfg.seconds / REPETITIONS as f64, ..cfg.clone() };
    let mut reps = Vec::with_capacity(REPETITIONS);
    let mut spans = Tracer::new(trace);
    let mut peak_rss_mb = 0.0;
    workloads::reset_peak_rss();
    for rep in 0..REPETITIONS {
        let (outcome, tracer) = run_once(name, &share, trace);
        if rep == 0 {
            peak_rss_mb = workloads::rss_mb("VmHWM:");
        }
        reps.push(outcome);
        spans = tracer;
    }
    let mut outcome = Outcome::merge(&reps, &report::EXACT);
    outcome.push("peak_rss_mb", peak_rss_mb, "MiB");
    (outcome, spans)
}

fn check_determinism(names: &[&str], args: &Args) -> bool {
    // One repetition of a smoke run.
    let seconds = RUN_SECONDS * SMOKE_SHARE / REPETITIONS as f64;
    let cfg = |seed| Cfg { seed, seconds, out_dir: args.out_dir.clone() };
    let mut all_ok = true;
    for name in names {
        let (a, _) = run_once(name, &cfg(args.seed), false);
        let (b, _) = run_once(name, &cfg(args.seed), false);
        let (c, _) = run_once(name, &cfg(args.seed.wrapping_add(1)), false);
        let same = a.inputs_fp == b.inputs_fp && a.virtual_fp == b.virtual_fp;
        let exact_equal = report::EXACT.iter().all(|m| a.e2e_value(m) == b.e2e_value(m));
        let differs = a.inputs_fp != c.inputs_fp;
        let ok = same && exact_equal && differs && a.correct() && b.correct() && c.correct();
        println!(
            "determinism {name}: inputs {:016x}/{:016x}/{:016x} virtual {:016x}/{:016x}/{:016x} -> {}",
            a.inputs_fp,
            b.inputs_fp,
            c.inputs_fp,
            a.virtual_fp,
            b.virtual_fp,
            c.virtual_fp,
            if ok { "ok" } else { "FAIL" },
        );
        all_ok &= ok;
    }
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => report::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("spine: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    if args.check_determinism {
        return if check_determinism(&names, &args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let cfg = Cfg { seed: args.seed, seconds: args.seconds, out_dir: args.out_dir.clone() };
    let host = report::Host::detect();
    println!(
        "spine: seed {} · {:.1} s measured in {REPETITIONS} repetitions · trace {} · {}",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        host.line()
    );
    let mut all_correct = true;
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for name in &names {
        let (mut outcome, tracer) = run_workload(name, &cfg, args.trace);
        for name in report::unlisted_layers(&outcome) {
            outcome.check(
                format!("per-layer metric {name} is listed in report::PER_LAYER"),
                false,
                "",
            );
        }
        report::print_outcome(name, &outcome, &tracer);
        if args.trace {
            traces.push(format!("\"{name}\": {}", tracer.to_json()));
        }
        all_correct &= outcome.correct();
        results.push((*name, outcome));
    }
    if args.trace {
        let path = args.out_dir.join("trace.json");
        if let Err(e) = std::fs::write(&path, format!("{{\n{}\n}}\n", traces.join(",\n"))) {
            eprintln!("spine: cannot write {}: {e}", path.display());
        }
    }
    let path = args.out_dir.join("report.json");
    if let Err(e) = std::fs::write(&path, report::report_json(&host, &args_json(&args), &results)) {
        eprintln!("spine: cannot write {}: {e}", path.display());
    }
    // The contract's result line: of one workload, or of all of them
    // folded together when every workload ran.
    println!("{}", report::result_line(&results, args.trace));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn args_json(args: &Args) -> String {
    format!("\"seed\": {}, \"seconds\": {}, \"trace\": {}", args.seed, args.seconds, args.trace)
}
