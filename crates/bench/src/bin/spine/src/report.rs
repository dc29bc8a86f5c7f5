//! The metric vocabulary and every output format: the workload and
//! metric tables `BENCHMARK.json` mirrors, the human-readable table,
//! `report.json`, and the one-line result the driver reads.

use crate::stats::Spread;
use crate::trace::Tracer;
use crate::workloads::{self, Cfg, Outcome};

pub struct WorkloadEntry {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&Cfg, &mut Tracer) -> Outcome,
}

pub const WORKLOADS: [WorkloadEntry; 5] = [
    WorkloadEntry {
        name: workloads::report_storm::NAME,
        why: workloads::report_storm::WHY,
        run: workloads::report_storm::run,
    },
    WorkloadEntry {
        name: workloads::area_hotspot::NAME,
        why: workloads::area_hotspot::WHY,
        run: workloads::area_hotspot::run,
    },
    WorkloadEntry {
        name: workloads::state_churn::NAME,
        why: workloads::state_churn::WHY,
        run: workloads::state_churn::run,
    },
    WorkloadEntry {
        name: workloads::paper_campaign::NAME,
        why: workloads::paper_campaign::WHY,
        run: workloads::paper_campaign::run,
    },
    WorkloadEntry {
        name: workloads::compile_corpus::NAME,
        why: workloads::compile_corpus::WHY,
        run: workloads::compile_corpus::run,
    },
];

/// `(name, unit)` of the end-to-end metrics every workload reports and
/// `BENCHMARK.json` bounds. The other end-to-end metrics apply to some
/// workloads only (see README.md) and are printed and written to
/// `report.json`, but a result line must carry every listed metric on
/// every workload, so they cannot be listed there.
pub const GATED_E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_us", "us"), ("peak_rss_mb", "MiB")];

/// End-to-end metrics that come from seeded virtual time or
/// deterministic output and must repeat bit for bit.
pub const EXACT: [&str; 6] =
    ["confirm_p50_vms", "confirm_p99_vms", "gas_per_op", "failed_share", "write_amp", "code_bytes"];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// A traced result line carries all of them; a layer the workload never
/// enters reads 0.
pub const PER_LAYER: [(&str, &str); 81] = [
    ("crypto.verify_us", "us"),
    ("ledger.txid_us", "us"),
    ("node.sigcheck_share", "share"),
    ("node.submit_self_us", "us"),
    ("node.tick_self_us", "us"),
    ("node.parked_share", "share"),
    ("node.rejected.bad_signature", "count"),
    ("node.rejected.fee_overflow", "count"),
    ("node.rejected.underfunded", "count"),
    ("node.rejected.over_budget", "count"),
    ("node.rejected.other", "count"),
    ("chainsim.submit_us", "us"),
    ("chainsim.admit_self_us", "us"),
    ("chainsim.clamp_share", "share"),
    ("chainsim.block_us_per_tx", "us"),
    ("chainsim.block_us_per_tx_seq", "us"),
    ("chainsim.block_us_per_tx_par", "us"),
    ("chainsim.block_us_per_tx_static", "us"),
    ("chainsim.block_us_per_tx_nocache", "us"),
    ("chainsim.block_us_per_tx_trie", "us"),
    ("chainsim.exec_us_per_tx", "us"),
    ("chainsim.validation_us_per_tx", "us"),
    ("chainsim.decode_us_per_tx", "us"),
    ("chainsim.wasted_exec_share", "share"),
    ("chainsim.conflicts_per_tx", "1/tx"),
    ("chainsim.revalidations_per_tx", "1/tx"),
    ("chainsim.static_lane_share", "share"),
    ("chainsim.cert_seeded_share", "share"),
    ("ledger.code_cache_hit_share", "share"),
    ("evm.call_us", "us"),
    ("evm.mgas_s", "Mgas/s"),
    ("avm.call_us", "us"),
    ("ledger.apply_us_per_key", "us"),
    ("ledger.root_ms", "ms"),
    ("store.memory.commit_us_per_key", "us"),
    ("store.wal.commit_us_per_key", "us"),
    ("store.trie.commit_us_per_key", "us"),
    ("store.memory.flush_ms", "ms"),
    ("store.wal.flush_ms", "ms"),
    ("store.trie.flush_ms", "ms"),
    ("store.memory.root_ms", "ms"),
    ("store.wal.root_ms", "ms"),
    ("store.trie.root_ms", "ms"),
    ("store.trie.prove_us", "us"),
    ("store.verify_proof_us", "us"),
    ("store.wal.replay_ms", "ms"),
    ("store.memory.rss_mb", "MiB"),
    ("store.wal.rss_mb", "MiB"),
    ("store.trie.rss_mb", "MiB"),
    ("store.trie.wall_share", "share"),
    ("core.submit_report_us", "us"),
    ("dfs.add_us", "us"),
    ("did.auth_us", "us"),
    ("core.attest_us", "us"),
    ("hypercube.find_us", "us"),
    ("hypercube.hops_mean", "hops"),
    ("core.chain_script_us", "us"),
    ("core.verifier_us_per_entry", "us"),
    ("core.factory_new_us", "us"),
    ("lang.parse_us", "us"),
    ("lang.check_us", "us"),
    ("lang.verify_us", "us"),
    ("lang.analyze_us", "us"),
    ("lang.access_us", "us"),
    ("lang.gas_us", "us"),
    ("lang.backend_us", "us"),
    ("lang.small.total_us", "us"),
    ("lang.api4.total_us", "us"),
    ("lang.api16.total_us", "us"),
    ("lang.api64.total_us", "us"),
    ("lang.api64.verify_us", "us"),
    ("lang.api64.gas_us", "us"),
    ("lang.api64.backend_us", "us"),
    ("lang.theorems", "count"),
    ("lang.avm_ops", "count"),
    ("lang.certified_gas_sum", "gas"),
    ("lang.wall_share", "share"),
    ("node.admission_wall_share", "share"),
    ("node.block_wall_share", "share"),
    ("spine.trace_overhead_share", "share"),
    ("spine.sum_gap_share", "share"),
];

/// Where and on what the numbers were measured.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host { nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get), cpu }
    }

    pub fn line(&self) -> String {
        format!("{} cores · {}", self.nproc, self.cpu)
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

pub fn print_outcome(name: &str, outcome: &Outcome, tracer: &Tracer) {
    let traced = tracer.enabled();
    let why = WORKLOADS.iter().find(|w| w.name == name).map_or("", |w| w.why);
    println!("\n== {name} ==\n  {why}");
    println!(
        "  attempted {} · failed {} · {} latency samples",
        outcome.attempted,
        outcome.failed,
        outcome.op_us.len()
    );
    let segments = Spread::of(&outcome.segment_rates);
    for m in &outcome.e2e {
        let spread = if m.name == "ops_per_s" {
            format!(
                "   {} segments min {} · max {} · (max-min)/median {:.3}",
                outcome.segment_rates.len(),
                fmt_value(segments.min),
                fmt_value(segments.max),
                segments.relative()
            )
        } else {
            String::new()
        };
        println!("  {:<28} {:>14} {:<7}{spread}", m.name, fmt_value(m.value), m.unit);
    }
    if traced {
        println!("  -- per layer --");
        for m in &outcome.layers {
            println!("  {:<34} {:>14} {}", m.name, fmt_value(m.value), m.unit);
        }
        println!("  -- self time by span (ms, calls) --");
        for (span, self_ns, calls) in tracer.self_time_by_name() {
            println!("  {:<34} {:>14} {calls}", span, fmt_value(self_ns as f64 / 1e6));
        }
    }
    for c in &outcome.checks {
        println!(
            "  [{}] {}{}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            if c.detail.is_empty() { String::new() } else { format!(" ({})", c.detail) }
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as measured, with all its digits (`{}` prints the shortest
/// string that round-trips).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn report_json(host: &Host, args: &str, results: &[(&str, Outcome)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"spine\",\n  {args},\n  \"host\": {{\"nproc\": {}, \"cpu\": {}}},\n  \"workloads\": [\n",
        host.nproc,
        json_str(&host.cpu)
    ));
    for (i, (name, o)) in results.iter().enumerate() {
        let metrics = |list: &[workloads::Metric]| {
            list.iter()
                .map(|m| {
                    format!(
                        "        {}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(&m.name),
                        json_num(m.value),
                        json_str(m.unit)
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let segments = Spread::of(&o.segment_rates);
        let rates: Vec<String> = o.segment_rates.iter().map(|r| json_num(*r)).collect();
        let p50s: Vec<String> = o.segment_p50_us.iter().map(|r| json_num(*r)).collect();
        let spreads = format!(
            "        \"ops_per_s\": {{\"min\": {}, \"median\": {}, \"max\": {}, \"segments\": [{}]}},\n        \"op_p50_us\": {{\"segments\": [{}]}}",
            json_num(segments.min),
            json_num(segments.median),
            json_num(segments.max),
            rates.join(", "),
            p50s.join(", ")
        );
        let checks = o
            .checks
            .iter()
            .map(|c| {
                format!(
                    "        {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json_str(&c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        out.push_str(&format!(
            "    {{\n      \"name\": {},\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"samples\": {},\n      \"inputs_fp\": \"{:016x}\",\n      \"virtual_fp\": \"{:016x}\",\n      \"end_to_end\": {{\n{}\n      }},\n      \"segment_spread\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }},\n      \"checks\": [\n{}\n      ]\n    }}{}\n",
            json_str(name),
            o.correct(),
            o.attempted,
            o.failed,
            o.op_us.len(),
            o.inputs_fp,
            o.virtual_fp,
            metrics(&o.e2e),
            spreads,
            metrics(&o.layers),
            checks,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(name), json_num(value), json_str(unit))
}

/// Per-layer metrics a workload emitted that [`PER_LAYER`] does not list
/// (they would silently vanish from the result line).
pub fn unlisted_layers(outcome: &Outcome) -> Vec<String> {
    outcome
        .layers
        .iter()
        .filter(|m| !PER_LAYER.iter().any(|(name, unit)| *name == m.name && *unit == m.unit))
        .map(|m| m.name.clone())
        .collect()
}

/// The last line of standard output. For one workload: every gated
/// end-to-end metric (untraced) or every per-layer metric (traced), a
/// layer the workload never entered reading 0. When several workloads
/// ran in one process the counts are summed and every metric is prefixed
/// with its workload.
pub fn result_line(results: &[(&str, Outcome)], traced: bool) -> String {
    let correct = results.iter().all(|(_, o)| o.correct());
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = Vec::new();
    for (workload, outcome) in results {
        let prefix = if results.len() == 1 { String::new() } else { format!("{workload}.") };
        if traced {
            for (name, unit) in PER_LAYER {
                let value = outcome.layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                metrics.push(metric_json(&format!("{prefix}{name}"), value, unit));
            }
        } else {
            for (name, unit) in GATED_E2E {
                let value = outcome.e2e_value(name).unwrap_or(f64::NAN);
                metrics.push(metric_json(&format!("{prefix}{name}"), value, unit));
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"key": "value"` pairs of one kind out of the objects of a
    /// JSON array, in order — enough of a parser for the flat, fixed
    /// shape of `BENCHMARK.json`.
    fn field_of_each(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("section is an array");
        let close = open + json[open..].find(']').expect("array closes");
        let needle = format!("\"{key}\"");
        json[open..close]
            .match_indices(&needle)
            .map(|(at, _)| {
                let rest = &json[open + at + needle.len()..];
                let q1 = rest.find('"').expect("string value opens");
                let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("string value closes");
                rest[q1 + 1..q2].to_string()
            })
            .collect()
    }

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_workloads_and_metrics_the_binary_reports() {
        let names = |section| field_of_each(BENCHMARK_JSON, section, "name");
        let units = |section| field_of_each(BENCHMARK_JSON, section, "unit");
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(
            field_of_each(BENCHMARK_JSON, "workloads", "why"),
            WORKLOADS.iter().map(|w| w.why).collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end"), GATED_E2E.iter().map(|m| m.0).collect::<Vec<_>>());
        assert_eq!(units("end_to_end"), GATED_E2E.iter().map(|m| m.1).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        assert_eq!(units("per_layer"), PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>());
    }

    #[test]
    fn names_units_and_reasons_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in GATED_E2E.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_carries_every_listed_metric_and_zero_for_untouched_layers() {
        let mut outcome = Outcome { attempted: 7, ..Outcome::default() };
        outcome.push("setup_s", 0.5, "s");
        outcome.layer("crypto.verify_us", 207.25, "us");
        let untraced = result_line(&[("w", outcome.clone())], false);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0"));
        assert!(untraced.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let traced = result_line(&[("w", outcome.clone())], true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"crypto.verify_us\": {\"value\": 207.25, \"unit\": \"us\"}"));
        assert!(traced.contains("\"lang.parse_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(unlisted_layers(&outcome).is_empty());
        outcome.layer("made.up", 1.0, "us");
        assert_eq!(unlisted_layers(&outcome), ["made.up"]);
    }
}
