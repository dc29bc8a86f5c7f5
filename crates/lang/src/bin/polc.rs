//! `polc` — the contract linting / diagnostics front end.
//!
//! ```text
//! polc lint <file.pol>...
//!                           run the checker, verifier and dataflow
//!                           lints; render rustc-style diagnostics.
//!                           When a sibling `<file>.pol.expected`
//!                           golden exists, compare against it instead
//!                           of gating on severity.
//! polc verify [--json <path>] <file.pol>...
//!                           run the theorem verifier per file, then
//!                           the cross-contract system analysis over
//!                           all files together; print both reports
//!                           and optionally write their counts as JSON.
//! polc summaries [--json <path>] <file.pol>...
//!                           run the access-summary analysis and print
//!                           each method's inferred read/write footprint
//!                           (globals, map-key patterns, transfers,
//!                           phase effects); optionally write the
//!                           machine-readable form as JSON.
//! polc gas [--json <path>] <file.pol>...
//!                           run the static worst-case gas pass and
//!                           print each method's certified bound for
//!                           both backends (EVM affine-in-calldata,
//!                           AVM opcode budget); optionally write the
//!                           machine-readable form as JSON.
//! polc codes                print the diagnostic-code registry as
//!                           markdown (published to
//!                           results/lint_codes.md by CI).
//! ```
//!
//! Exit status: 0 when every file is clean (or matches its golden),
//! 1 when an error-severity diagnostic fires (or a golden mismatches),
//! 2 on usage or I/O errors.

use pol_lang::diag::{Diagnostic, Span};
use pol_lang::{lint, pretty, xcontract};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    let Some(Options { json_path, files }) = Options::parse(rest) else {
        return usage();
    };
    let json = json_path.as_deref();
    // Each subcommand takes only the flags its usage line names:
    // (subcommand, json, no files).
    match (cmd.as_str(), json, files.is_empty()) {
        ("lint", None, false) => lint_files(&files),
        ("verify", _, false) => exit_code(verify_files(&files, json)),
        ("summaries", _, false) => exit_code(summarize_files(&files, json)),
        ("gas", _, false) => exit_code(gas_files(&files, json)),
        ("codes", None, true) => {
            print!("{}", lint::codes_markdown());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: polc lint <file.pol>...\n\
         \x20      polc verify [--json <path>] <file.pol>...\n\
         \x20      polc summaries [--json <path>] <file.pol>...\n\
         \x20      polc gas [--json <path>] <file.pol>...\n\
         \x20      polc codes"
    );
    ExitCode::from(2)
}

fn exit_code(outcome: Result<(), ExitCode>) -> ExitCode {
    outcome.err().unwrap_or(ExitCode::SUCCESS)
}

/// One subcommand's arguments after its name.
struct Options {
    json_path: Option<String>,
    files: Vec<String>,
}

impl Options {
    /// Separates the flags from the files. `None` (a usage error) on an
    /// unknown or repeated flag, or `--json` without a path after it.
    fn parse(args: &[String]) -> Option<Self> {
        let mut opts = Options { json_path: None, files: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" if opts.json_path.is_none() => {
                    opts.json_path = Some(args.next().filter(|p| !p.starts_with("--"))?.clone());
                }
                flag if flag.starts_with("--") => return None,
                file => opts.files.push(file.to_string()),
            }
        }
        Some(opts)
    }
}

fn lint_files(files: &[String]) -> ExitCode {
    let mut failed = false;
    for file in files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("polc: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let diags = diagnose(&source);
        let rendered = pretty::render_diagnostics(&diags, &source, file);
        if !rendered.is_empty() {
            print!("{rendered}");
        }
        let golden_path = format!("{file}.expected");
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) => {
                let got = canonical(&diags, &source);
                let want: Vec<String> =
                    golden.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect();
                if got != want {
                    failed = true;
                    eprintln!("polc: {file}: diagnostics do not match {golden_path}");
                    eprintln!("  expected:");
                    for line in &want {
                        eprintln!("    {line}");
                    }
                    eprintln!("  got:");
                    for line in &got {
                        eprintln!("    {line}");
                    }
                } else {
                    println!("polc: {file}: matches golden ({} diagnostic(s))", diags.len());
                }
            }
            Err(_) => {
                if diags.iter().any(Diagnostic::is_error) {
                    failed = true;
                } else {
                    println!("polc: {file}: clean ({} warning(s))", diags.len());
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads, parses and type-checks one file. On failure the diagnostic
/// is already on stderr and the exit code is returned: 2 for I/O and
/// syntax errors, 1 for type errors.
fn load(file: &str) -> Result<pol_lang::Program, ExitCode> {
    let source = std::fs::read_to_string(file).map_err(|e| {
        eprintln!("polc: cannot read {file}: {e}");
        ExitCode::from(2)
    })?;
    let program = pol_lang::parse::parse(&source).map_err(|e| {
        eprintln!("polc: {file}:{}:{}: {}", e.line, e.col, e.message);
        ExitCode::from(2)
    })?;
    let type_errors = pol_lang::check::check(&program);
    if !type_errors.is_empty() {
        for d in &type_errors {
            eprintln!("polc: {file}: {d}");
        }
        return Err(ExitCode::FAILURE);
    }
    Ok(program)
}

/// Writes the `--json` artifact, when asked for: the per-contract
/// entries under `"contracts"`, then `tail` (further top-level members).
fn write_json(path: Option<&str>, contracts: &[String], tail: &str) -> Result<(), ExitCode> {
    let Some(path) = path else { return Ok(()) };
    let json = format!("{{\n  \"contracts\": [\n{}\n  ]{tail}\n}}\n", contracts.join(",\n"));
    std::fs::write(path, json).map_err(|e| {
        eprintln!("polc: cannot write {path}: {e}");
        ExitCode::from(2)
    })
}

/// Loads each file, prints `render`'s text under a `== file ==` header
/// and writes the collected JSON entries — the shape `summaries` and
/// `gas` share.
fn report_files(
    files: &[String],
    json_path: Option<&str>,
    render: impl Fn(&str, &pol_lang::Program) -> Result<(String, String), ExitCode>,
) -> Result<(), ExitCode> {
    let mut rendered = Vec::new();
    for file in files {
        let (text, json) = render(file, &load(file)?)?;
        println!("== {file} ==");
        print!("{text}");
        println!();
        rendered.push(json);
    }
    write_json(json_path, &rendered, "")
}

/// Runs the access-summary analysis over each file and prints the
/// per-method footprints; `--json` additionally writes the
/// deterministic machine-readable form (the CI artifact).
fn summarize_files(files: &[String], json_path: Option<&str>) -> Result<(), ExitCode> {
    report_files(files, json_path, |file, program| {
        let summaries = pol_lang::access::summarize(program);
        Ok((summaries.render_text(), summaries.to_json(file, "    ")))
    })
}

/// Runs the static gas-certificate pass over each file and prints the
/// per-method worst-case bounds; `--json` additionally writes the
/// deterministic machine-readable form (the CI artifact).
fn gas_files(files: &[String], json_path: Option<&str>) -> Result<(), ExitCode> {
    report_files(files, json_path, |file, program| {
        let bounds = pol_lang::gas::certify(program).map_err(|e| {
            eprintln!("polc: {file}: {e}");
            ExitCode::FAILURE
        })?;
        Ok((bounds.render_text(), bounds.to_json(file, "    ")))
    })
}

/// Per-file theorem verification plus the cross-contract system pass.
fn verify_files(files: &[String], json_path: Option<&str>) -> Result<(), ExitCode> {
    let mut failed = false;
    let mut programs = Vec::new();
    for file in files {
        programs.push((file.clone(), load(file)?));
    }

    let mut contract_lines = Vec::new();
    let mut reports = Vec::new();
    for (file, program) in &programs {
        let report = pol_lang::verify::verify(program);
        println!("== {file} ({}) ==", program.name);
        println!("{report}");
        println!();
        if !report.ok() {
            failed = true;
        }
        contract_lines.push(format!(
            "    {{\"file\": \"{file}\", \"name\": \"{}\", \"theorems_checked\": {}, \
             \"failures\": {}}}",
            program.name,
            report.theorems_checked,
            report.failures.len(),
        ));
        reports.push(report);
    }

    // Compile the clean programs so the system pass can cross-check the
    // artifacts against the declared layouts (X0502); programs that
    // fail verification still join the system with source-only checks.
    let compiled: Vec<Option<pol_lang::backend::CompiledContract>> = programs
        .iter()
        .zip(&reports)
        .map(|((_, p), r)| if r.ok() { pol_lang::backend::compile(p).ok() } else { None })
        .collect();
    let members: Vec<xcontract::SystemMember<'_>> = programs
        .iter()
        .zip(&compiled)
        .map(|((_, p), c)| xcontract::SystemMember::new(p, c.as_ref()))
        .collect();
    let system = xcontract::analyze_system(&members);
    println!("== system ==");
    println!("{system}");
    for d in &system.diagnostics {
        println!("  {d}");
    }
    if !system.ok() {
        failed = true;
    }

    let system_json = format!(
        ",\n  \"system\": {{\"contracts\": {}, \
         \"edges\": {}, \"transfer_sites\": {}, \"conserved\": {}, \
         \"aggregate_conserved\": {}, \"failures\": {}}}",
        system.contracts,
        system.edges.len(),
        system.transfer_edges,
        system.conserved_transfers,
        system.aggregate_conserved,
        system.diagnostics.iter().filter(|d| d.is_error()).count(),
    );
    write_json(json_path, &contract_lines, &system_json)?;

    if failed {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

/// The full source-level pipeline: parse → type check → verify + lint.
fn diagnose(source: &str) -> Vec<Diagnostic> {
    let program = match pol_lang::parse::parse(source) {
        Ok(p) => p,
        Err(e) => {
            let start = byte_offset(source, e.line, e.col);
            return vec![Diagnostic::error("P0001", e.message).at(Span::new(start, start + 1))];
        }
    };
    let type_errors = pol_lang::check::check(&program);
    if !type_errors.is_empty() {
        return type_errors;
    }
    let mut diags = pol_lang::verify::verify(&program).failures;
    diags.extend(lint::lint(&program));
    diags
}

/// One stable line per diagnostic for golden comparison:
/// `severity[CODE] line:col message`.
fn canonical(diags: &[Diagnostic], source: &str) -> Vec<String> {
    diags
        .iter()
        .map(|d| {
            let pos = match d.span.line_col(source) {
                Some((line, col)) => format!("{line}:{col}"),
                None => "-".to_string(),
            };
            format!("{}[{}] {pos} {}", d.severity, d.code, d.message)
        })
        .collect()
}

fn byte_offset(source: &str, line: usize, col: usize) -> usize {
    let mut offset = 0;
    for (i, l) in source.lines().enumerate() {
        if i + 1 == line {
            return offset + (col - 1).min(l.len());
        }
        offset += l.len() + 1;
    }
    source.len().saturating_sub(1)
}
