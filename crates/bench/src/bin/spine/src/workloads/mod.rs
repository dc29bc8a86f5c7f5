//! The five workloads and what they share: the run configuration, the
//! outcome record, repeated set-up timing and resident-set accounting.

pub mod area_hotspot;
pub mod compile_corpus;
pub mod node_driver;
pub mod paper_campaign;
pub mod report_storm;
pub mod state_churn;

use crate::layers::{Address, Arg, EvmSandbox, Template};
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// A set-up of milliseconds is repeated inside one repetition of the
/// workload — until about [`SETUP_BUDGET_S`] is spent, at most
/// [`SETUP_REPS_MAX`] times — because a single such sample moves with
/// every page fault. A set-up of seconds runs once per repetition; the
/// run as a whole still times it [`REPETITIONS`] times.
pub const SETUP_REPS_MAX: usize = 25;
pub const SETUP_BUDGET_S: f64 = 0.3;

/// Times a workload is repeated, on identical inputs, in one run. Each
/// repetition is the whole sequence — set-up, measured phase, oracles —
/// at a third of `--seconds`, and [`Outcome::merge`] folds them into the
/// run's outcome. The measured phases are thereby spread over the whole
/// wall time of the run instead of sitting in one block of it, so a burst
/// of load from the host's other tenants covers fewer of a run's segments.
pub const REPETITIONS: usize = 3;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Target length of the measured phase. Sizes are *counts* derived
    /// from this by fixed per-second constants, never a time limit, so
    /// two commits given the same `--seconds` run identical inputs.
    pub seconds: f64,
    pub out_dir: PathBuf,
}

impl Cfg {
    /// `per_second × seconds`, at least `floor`.
    pub fn count(&self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// One output oracle.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.into(), ok, detail: detail.into() }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and those whose outcome differed from the
    /// expected one (or that were lost in a drain).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metrics (every run) and per-layer metrics (traced runs).
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// The samples behind `ops_per_s` (throughput of each segment),
    /// `op_p50_us` (median latency of each segment) and `op_p99_us`
    /// (every latency, ascending). A run pools those of its repetitions.
    pub segment_rates: Vec<f64>,
    pub segment_p50_us: Vec<f64>,
    pub op_us: Vec<f64>,
    /// Fingerprints `--check-determinism` compares.
    pub inputs_fp: u64,
    pub virtual_fp: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric::new(name, value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// `spine.trace_overhead_share`: `1 − traced ÷ untraced` of the
    /// throughput already pushed as `ops_per_s`.
    pub fn layer_trace_overhead(&mut self, traced_rates: &[f64]) {
        let untraced = self.e2e_value("ops_per_s").expect("ops_per_s is pushed before tracing");
        let overhead = 1.0 - stats::quiet_quartile(traced_rates, true) / untraced;
        self.layer("spine.trace_overhead_share", overhead, "share");
    }

    /// `ops_per_s`, `op_p50_us`, and `op_p99_us` where enough samples lie
    /// beyond it, from the throughput of each segment and the latency
    /// samples in the order they were taken. The first two are quiet
    /// quartiles over segments ([`stats::quiet_quartile`]): the upper
    /// quartile of segment throughput, and the lower quartile of the
    /// segments' median latencies.
    pub fn push_op_metrics(&mut self, segment_rates: Vec<f64>, op_us: Vec<f64>) {
        let segment_p50_us = stats::segment_bounds(op_us.len())
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|r| stats::median(&op_us[r]))
            .collect();
        self.set_op_metrics(segment_rates, segment_p50_us, stats::sorted(op_us));
    }

    fn set_op_metrics(&mut self, rates: Vec<f64>, p50_us: Vec<f64>, sorted_op_us: Vec<f64>) {
        self.set("ops_per_s", stats::quiet_quartile(&rates, true), "1/s");
        self.set("op_p50_us", stats::quiet_quartile(&p50_us, false), "us");
        if sorted_op_us.len() >= 1000 {
            if let Some(p99) = stats::percentile(&sorted_op_us, 99.0) {
                self.set("op_p99_us", p99, "us");
            }
        }
        self.segment_rates = rates;
        self.segment_p50_us = p50_us;
        self.op_us = sorted_op_us;
    }

    /// Replaces an end-to-end metric's value, or appends the metric.
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.e2e.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.push(name, value, unit),
        }
    }

    /// Folds the repetitions of one workload into the outcome of the run.
    /// Counts are summed; `ops_per_s`, `op_p50_us` and `op_p99_us` are
    /// taken over the pooled segments and samples of every repetition;
    /// every other metric is the median of the repetitions that report
    /// it; an oracle holds only if it held every time. The repetitions
    /// ran identical inputs, so their fingerprints and every metric named
    /// in `exact` must be bit-identical — one more oracle.
    pub fn merge(reps: &[Outcome], exact: &[&str]) -> Outcome {
        let first = &reps[0];
        let mut out = Outcome {
            inputs_fp: first.inputs_fp,
            virtual_fp: first.virtual_fp,
            ..Outcome::default()
        };
        for rep in reps {
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            for check in &rep.checks {
                match out.checks.iter_mut().find(|c| c.name == check.name) {
                    Some(seen) if seen.ok && !check.ok => *seen = check.clone(),
                    Some(_) => {}
                    None => out.checks.push(check.clone()),
                }
            }
        }
        let medians = |list: fn(&Outcome) -> &Vec<Metric>| -> Vec<Metric> {
            let mut merged: Vec<Metric> = Vec::new();
            for m in reps.iter().flat_map(list) {
                if merged.iter().all(|seen| seen.name != m.name) {
                    let values: Vec<f64> = reps
                        .iter()
                        .filter_map(|r| list(r).iter().find(|x| x.name == m.name))
                        .map(|x| x.value)
                        .collect();
                    merged.push(Metric::new(m.name.clone(), stats::median(&values), m.unit));
                }
            }
            merged
        };
        out.e2e = medians(|o| &o.e2e);
        out.layers = medians(|o| &o.layers);
        let pooled = |list: fn(&Outcome) -> &Vec<f64>| -> Vec<f64> {
            reps.iter().flat_map(|r| list(r).iter().copied()).collect()
        };
        out.set_op_metrics(
            pooled(|o| &o.segment_rates),
            pooled(|o| &o.segment_p50_us),
            stats::sorted(pooled(|o| &o.op_us)),
        );
        let repeatable = reps.iter().all(|r| {
            r.inputs_fp == first.inputs_fp
                && r.virtual_fp == first.virtual_fp
                && exact.iter().all(|m| r.e2e_value(m) == first.e2e_value(m))
        });
        out.check(
            "repetitions agree on inputs, virtual clock and every exact metric",
            repeatable,
            format!("{} repetitions", reps.len()),
        );
        out
    }
}

/// Runs `setup` on identical arguments — once if it takes seconds or the
/// run is traced (a traced result line carries no `setup_s`), repeatedly
/// if it takes milliseconds — returning the last result and the median
/// wall time in seconds. The repetition count affects only how well
/// `setup_s` is known; every repetition builds the same inputs.
pub fn timed_setup<T>(tracer: &mut Tracer, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut reps = 1;
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps {
        // Drop the previous repetition first so resident memory reflects
        // one set of inputs, not several.
        drop(last.take());
        let start = Instant::now();
        let built = tracer.span("spine.setup", crate::trace::NO_OP, &mut setup);
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
        if times.len() == 1 && !tracer.enabled() {
            let affordable = (SETUP_BUDGET_S / times[0].max(1e-9)) as usize;
            reps = affordable.clamp(1, SETUP_REPS_MAX);
        }
    }
    (last.expect("at least one repetition"), stats::median(&times))
}

/// Peak resident set (`VmHWM`) in MiB, or the current one (`VmRSS`).
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's high-water mark so `VmHWM` afterwards is this
/// workload's own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `node_load`'s certified contract: the target of `report-storm`'s
/// starved-gas class and one of `compile-corpus`'s programs.
pub const GAS_SINK_SOURCE: &str = r#"
contract gas_sink {
    participant Creator {
        slots: uint,
    }

    global open: uint = field(slots) view;
    global acc: uint = 0 view;
    map m0[32];

    phase live while open > 0 invariant open >= 0 {
        api bump(key: uint, val: uint) -> acc {
            acc = acc + val;
            m0[key] = [val];
        }
        api clear(key: uint) -> acc {
            delete m0[key];
        }
    }
}
"#;

/// The share of the measured phase no span accounts for: the self time
/// of the root span `root` over its duration (`1 − Σ self times of every
/// span beneath it ÷ measured wall`).
pub fn sum_gap_share(tracer: &Tracer, root: &str) -> f64 {
    let spans = tracer.spans();
    let Some(root_idx) = spans.iter().position(|s| s.name == root) else { return 1.0 };
    let self_ns = crate::trace::self_times(spans)[root_idx];
    self_ns as f64 / (spans[root_idx].duration_ns() as f64).max(1.0)
}

/// `pol_evm`'s public call entry point on a standalone `WorldState`: one
/// instance of the paper's contract, fed `insert_data` calldata (each
/// with a DID of its own). Reports `evm.call_us` and `evm.mgas_s`.
pub fn evm_standalone(out: &mut Outcome, ctor: &[Arg], calls: Vec<Vec<u8>>, tracer: &mut Tracer) {
    let template = Template::proof_of_location();
    let mut sandbox = EvmSandbox::default();
    let caller = Address([0xA1; 20]);
    sandbox.fund(caller, u128::from(u64::MAX));
    let contract = sandbox.deploy(caller, &template.evm_init_code(ctor));
    let mut call_us = Vec::with_capacity(calls.len());
    let mut gas = 0u64;
    tracer.enter("twin.evm", crate::trace::NO_OP);
    for (i, data) in calls.into_iter().enumerate() {
        let t = Instant::now();
        tracer.enter("evm.call", i as u32);
        let (ok, used) = sandbox.call(caller, contract, data, 0);
        tracer.exit();
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(ok, "standalone insert_data reverted");
        gas += used;
    }
    tracer.exit();
    out.layer("evm.call_us", stats::median(&call_us), "us");
    out.layer("evm.mgas_s", gas as f64 / call_us.iter().sum::<f64>(), "Mgas/s");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One repetition: five segments at `rate` with one disturbed to a
    /// third of it, latencies around `us`.
    fn repetition(rate: f64, us: f64, setup_s: f64, gas: f64) -> Outcome {
        let mut rep = Outcome { attempted: 10, inputs_fp: 7, virtual_fp: 9, ..Outcome::default() };
        rep.push("setup_s", setup_s, "s");
        rep.push_op_metrics(
            vec![rate, rate + 1.0, rate / 3.0, rate + 2.0, rate + 3.0],
            (0..10).map(|i| us + f64::from(i)).collect(),
        );
        rep.push("gas_per_op", gas, "gas");
        rep.layer("crypto.verify_us", setup_s * 100.0, "us");
        rep.check("oracle", true, "");
        rep
    }

    #[test]
    fn merge_pools_op_metrics_and_takes_medians_of_the_rest() {
        let reps = [
            repetition(100.0, 50.0, 3.0, 21_000.0),
            repetition(30.0, 150.0, 1.0, 21_000.0), // a wholly disturbed repetition
            repetition(104.0, 40.0, 2.0, 21_000.0),
        ];
        // Within a repetition: 4th of 5 rates, 2nd of 5 segment medians.
        assert_eq!(reps[0].e2e_value("ops_per_s"), Some(102.0));
        assert_eq!(reps[0].e2e_value("op_p50_us"), Some(52.5));
        let run = Outcome::merge(&reps, &["gas_per_op"]);
        assert!(run.correct(), "{:?}", run.checks);
        assert_eq!((run.attempted, run.op_us.len(), run.segment_rates.len()), (30, 30, 15));
        // 12th of the 15 pooled rates, 4th of the 15 pooled segment medians:
        // the disturbed repetition moves neither.
        assert_eq!(run.e2e_value("ops_per_s"), Some(104.0));
        assert_eq!(run.e2e_value("op_p50_us"), Some(46.5));
        assert_eq!(run.e2e_value("setup_s"), Some(2.0));
        assert_eq!(run.e2e_value("gas_per_op"), Some(21_000.0));
        assert_eq!(run.layers[0].value, 200.0);
        assert_eq!(run.checks.iter().filter(|c| c.name == "oracle").count(), 1);
    }

    #[test]
    fn merge_fails_on_a_failed_oracle_or_an_exact_metric_that_moved() {
        let mut failed = repetition(100.0, 50.0, 1.0, 21_000.0);
        failed.check("oracle", false, "diverged");
        let run = Outcome::merge(&[repetition(100.0, 50.0, 1.0, 21_000.0), failed], &[]);
        assert!(!run.correct());
        assert_eq!(run.checks.iter().find(|c| c.name == "oracle").map(|c| c.ok), Some(false));

        let moved =
            [repetition(100.0, 50.0, 1.0, 21_000.0), repetition(100.0, 50.0, 1.0, 21_001.0)];
        assert!(Outcome::merge(&moved, &[]).correct());
        assert!(!Outcome::merge(&moved, &["gas_per_op"]).correct());
    }
}
