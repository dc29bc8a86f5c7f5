//! Pretty-printer: renders an AST back to the surface syntax of
//! [`crate::parse()`] (`parse(to_source(p)) == p` for every well-formed
//! program, so sources can be generated, stored and diffed), and
//! renders [`Diagnostic`]s rustc-style with the offending source line
//! and a caret underline.

use crate::ast::{BinOp, Expr, GlobalInit, Program, Stmt, Ty};
use crate::diag::{Diagnostic, Span};

/// Renders one diagnostic rustc-style:
///
/// ```text
/// error[V0102]: subtraction may underflow
///  --> contract.pol:12:9
///    |
/// 12 |         count = count - 1;
///    |         ^^^^^^^^^^^^^^^^^
/// ```
///
/// followed by `note:` snippets and an `= help:` suggestion when the
/// diagnostic carries them. Diagnostics without a source span render
/// the header line only.
pub(crate) fn render_diagnostic(diag: &Diagnostic, source: &str, filename: &str) -> String {
    let mut out = format!("{}[{}]: {}\n", diag.severity, diag.code, diag.message);
    if let Some(snip) = snippet(diag.span, source, filename) {
        out.push_str(&snip);
    }
    for note in &diag.notes {
        out.push_str(&format!("note: {}\n", note.message));
        if let Some(snip) = snippet(note.span, source, filename) {
            out.push_str(&snip);
        }
    }
    if let Some(help) = &diag.suggestion {
        out.push_str(&format!("  = help: {help}\n"));
    }
    out
}

/// Renders a batch of diagnostics separated by blank lines.
///
/// Diagnostics carrying the same code at the same source span are
/// rendered once: the constructor pass and an API pass can both report
/// the identical defect for one byte range (e.g. a global initialised
/// in the constructor and misused identically in an API lowered from
/// the same span), and repeating the block is pure noise. Dummy spans
/// are exempt — builder-made programs have no spans, and collapsing
/// their (all-dummy) diagnostics would swallow distinct findings.
pub fn render_diagnostics(diags: &[Diagnostic], source: &str, filename: &str) -> String {
    let mut seen: std::collections::HashSet<(&str, Span)> = std::collections::HashSet::new();
    diags
        .iter()
        .filter(|d| d.span.is_dummy() || seen.insert((d.code, d.span)))
        .map(|d| render_diagnostic(d, source, filename))
        .collect::<Vec<_>>()
        .join("\n")
}

fn snippet(span: Span, source: &str, filename: &str) -> Option<String> {
    let (line, col) = span.line_col(source)?;
    let line_text = source.lines().nth(line - 1).unwrap_or("");
    let line_start = span.start - (col - 1);
    let line_end = line_start + line_text.len();
    let width = span.end.min(line_end).saturating_sub(span.start).max(1);
    let gutter = line.to_string();
    let pad = " ".repeat(gutter.len());
    Some(format!(
        " --> {filename}:{line}:{col}\n\
         {pad} |\n\
         {gutter} | {line_text}\n\
         {pad} | {}{}\n",
        " ".repeat(col - 1),
        "^".repeat(width),
    ))
}

/// Renders a program as contract source text.
pub fn to_source(program: &Program) -> String {
    let mut out = String::new();
    out.push_str(&format!("contract {} {{\n", program.name));
    out.push_str(&format!("    participant {} {{", program.creator.name));
    if program.creator.fields.is_empty() {
        out.push_str(" }\n");
    } else {
        out.push('\n');
        for (name, ty) in &program.creator.fields {
            out.push_str(&format!("        {name}: {},\n", ty_str(ty)));
        }
        out.push_str("    }\n");
    }
    out.push('\n');
    for g in &program.globals {
        let init = match &g.init {
            GlobalInit::Const(c) => c.to_string(),
            GlobalInit::FromField(f) => format!("field({f})"),
            GlobalInit::CreatorAddress => "creator".to_string(),
        };
        let view = if g.viewable { " view" } else { "" };
        out.push_str(&format!("    global {}: {} = {init}{view};\n", g.name, ty_str(&g.ty)));
    }
    for m in &program.maps {
        out.push_str(&format!("    map {}[{}];\n", m.name, m.value_bytes));
    }
    if !program.constructor.is_empty() {
        out.push_str("\n    constructor {\n");
        for stmt in &program.constructor {
            push_stmt(&mut out, stmt, 2);
        }
        out.push_str("    }\n");
    }
    for phase in &program.phases {
        out.push_str(&format!(
            "\n    phase {} while {} invariant {} {{\n",
            phase.name,
            expr_str(&phase.while_cond),
            expr_str(&phase.invariant)
        ));
        for api in &phase.apis {
            let params: Vec<String> =
                api.params.iter().map(|(n, t)| format!("{n}: {}", ty_str(t))).collect();
            let pay = match &api.pay {
                Some(p) => format!(" pay {}", expr_str(p)),
                None => String::new(),
            };
            out.push_str(&format!(
                "        api {}({}){pay} -> {} {{\n",
                api.name,
                params.join(", "),
                expr_str(&api.returns)
            ));
            for stmt in &api.body {
                push_stmt(&mut out, stmt, 3);
            }
            out.push_str("        }\n");
        }
        out.push_str("    }\n");
    }
    out.push_str("}\n");
    out
}

fn ty_str(ty: &Ty) -> String {
    match ty {
        Ty::UInt => "uint".to_string(),
        Ty::Bool => "bool".to_string(),
        Ty::Address => "address".to_string(),
        Ty::Bytes(n) => format!("bytes[{n}]"),
    }
}

fn push_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    let pad = "    ".repeat(depth);
    match stmt {
        Stmt::Require(e) => out.push_str(&format!("{pad}require({});\n", expr_str(e))),
        Stmt::GlobalSet { name, value } => {
            out.push_str(&format!("{pad}{name} = {};\n", expr_str(value)));
        }
        Stmt::MapSet { map, key, value } => {
            let parts: Vec<String> = value.iter().map(expr_str).collect();
            out.push_str(&format!("{pad}{map}[{}] = [{}];\n", expr_str(key), parts.join(", ")));
        }
        Stmt::MapDelete { map, key } => {
            out.push_str(&format!("{pad}delete {map}[{}];\n", expr_str(key)));
        }
        Stmt::Transfer { to, amount } => {
            out.push_str(&format!("{pad}transfer({}, {});\n", expr_str(to), expr_str(amount)));
        }
        Stmt::If { cond, then, otherwise } => {
            out.push_str(&format!("{pad}if {} {{\n", expr_str(cond)));
            for s in then {
                push_stmt(out, s, depth + 1);
            }
            if otherwise.is_empty() {
                out.push_str(&format!("{pad}}}\n"));
            } else {
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in otherwise {
                    push_stmt(out, s, depth + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
        Stmt::Log(parts) => {
            let parts: Vec<String> = parts.iter().map(expr_str).collect();
            out.push_str(&format!("{pad}log({});\n", parts.join(", ")));
        }
    }
}

fn expr_str(expr: &Expr) -> String {
    // Parenthesize every binary operand: unambiguous, always
    // re-parseable, never wrong on precedence.
    match expr {
        Expr::UInt(v) => v.to_string(),
        Expr::Param(name) | Expr::Global(name) => name.clone(),
        Expr::Caller => "caller".to_string(),
        Expr::Balance => "balance".to_string(),
        Expr::MapGet { map, key } => format!("{map}[{}]", expr_str(key)),
        Expr::MapContains { map, key } => format!("contains({map}, {})", expr_str(key)),
        Expr::Hash(parts) => {
            let parts: Vec<String> = parts.iter().map(expr_str).collect();
            format!("hash({})", parts.join(", "))
        }
        Expr::Bin(op, lhs, rhs) => {
            let op = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Lt => "<",
                BinOp::Gt => ">",
                BinOp::Le => "<=",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            format!("({} {op} {})", expr_str(lhs), expr_str(rhs))
        }
        Expr::Not(inner) => format!("!({})", expr_str(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trips() {
        let program = Program::counter_example();
        let source = to_source(&program);
        let reparsed = crate::parse::parse(&source).unwrap();
        assert_eq!(reparsed, program, "source was:\n{source}");
    }

    #[test]
    fn renderer_points_at_the_offending_line() {
        let source = "contract c {\n    participant P { }\n    global g: uint = 0;\n";
        let start = source.find("global g").unwrap();
        let diag = Diagnostic::error("E0001", "duplicate global declaration")
            .at(Span::new(start, start + "global g".len()))
            .suggest("rename one of the declarations");
        let rendered = render_diagnostic(&diag, source, "c.pol");
        assert!(rendered.starts_with("error[E0001]: duplicate global declaration\n"));
        assert!(rendered.contains(" --> c.pol:3:5\n"), "{rendered}");
        assert!(rendered.contains("3 |     global g: uint = 0;\n"), "{rendered}");
        assert!(rendered.contains("  |     ^^^^^^^^\n"), "{rendered}");
        assert!(rendered.contains("  = help: rename one of the declarations\n"));
    }

    #[test]
    fn renderer_handles_dummy_spans_and_notes() {
        let source = "contract c {\n}\n";
        let diag = Diagnostic::warning("L0001", "unreachable code")
            .note(Span::new(0, 8), "because of this");
        let rendered = render_diagnostic(&diag, source, "c.pol");
        assert!(rendered.starts_with("warning[L0001]: unreachable code\n"));
        assert!(rendered.contains("note: because of this\n"));
        assert!(rendered.contains("1 | contract c {\n"), "{rendered}");
    }

    #[test]
    fn duplicate_code_span_pairs_render_once() {
        let source = "contract c {\n    global g: uint = 0;\n}\n";
        let start = source.find("global g").unwrap();
        let span = Span::new(start, start + 8);
        let diags = vec![
            Diagnostic::warning("L0003", "constructor: condition always evaluates to true")
                .at(span),
            Diagnostic::warning("L0003", "api \"f\": condition always evaluates to true").at(span),
            Diagnostic::warning("L0002", "api \"f\": dead store").at(span),
        ];
        let rendered = render_diagnostics(&diags, source, "c.pol");
        // Same (code, span) pair renders once; different code at the
        // same span still renders.
        assert_eq!(rendered.matches("warning[L0003]").count(), 1, "{rendered}");
        assert_eq!(rendered.matches("warning[L0002]").count(), 1, "{rendered}");
    }

    #[test]
    fn dummy_spans_are_never_deduped() {
        let diags = vec![
            Diagnostic::error("V0102", "subtraction a - b may underflow"),
            Diagnostic::error("V0102", "subtraction c - d may underflow"),
        ];
        let rendered = render_diagnostics(&diags, "", "c.pol");
        assert_eq!(rendered.matches("error[V0102]").count(), 2, "{rendered}");
    }

    #[test]
    fn source_is_human_shaped() {
        let source = to_source(&Program::counter_example());
        assert!(source.contains("contract counter {"));
        assert!(source.contains("participant Creator {"));
        assert!(source.contains("global remaining: uint = field(limit) view;"));
        assert!(source.contains("api bump(by: uint) -> remaining {"));
    }
}
