//! Structured diagnostics: error codes, severities, byte spans and
//! suggestions, shared by the type checker, the theorem verifier, the
//! lint passes and the bytecode verifiers.
//!
//! Spans are byte offsets into the contract source. Programs built
//! through the AST builder API (rather than [`crate::parse()`]) carry an
//! empty [`SpanTable`]; their diagnostics fall back to `Span::DUMMY`
//! and render without a source snippet.

use std::collections::HashMap;

/// A half-open byte range `[start, end)` into the contract source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First byte of the spanned region.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// The placeholder span of AST nodes with no surface syntax.
    pub(crate) const DUMMY: Span = Span { start: usize::MAX, end: usize::MAX };

    /// Builds a span.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// Whether this is the placeholder span.
    pub(crate) fn is_dummy(&self) -> bool {
        *self == Span::DUMMY
    }

    /// The 1-based `(line, column)` of the span start within `source`,
    /// or `None` for dummy / out-of-range spans.
    pub fn line_col(&self, source: &str) -> Option<(usize, usize)> {
        if self.is_dummy() || self.start > source.len() {
            return None;
        }
        let upto = &source.as_bytes()[..self.start];
        let line = upto.iter().filter(|b| **b == b'\n').count() + 1;
        let col = self.start - upto.iter().rposition(|b| *b == b'\n').map_or(0, |p| p + 1) + 1;
        Some((line, col))
    }
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the program still compiles.
    Warning,
    /// The program is rejected.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A secondary label attached to a diagnostic (e.g. "original
/// definition here").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Where the note points (may be `Span::DUMMY`).
    pub span: Span,
    /// The note text.
    pub message: String,
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E…` type checker, `V…` verifier, `L…` lint,
    /// `B…` bytecode verifier, `X…` cross-checks).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Primary source span.
    pub span: Span,
    /// Main message.
    pub message: String,
    /// Secondary labels.
    pub notes: Vec<Note>,
    /// An actionable suggestion, when one is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A new error diagnostic (span defaults to `Span::DUMMY`).
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: Span::DUMMY,
            message: message.into(),
            notes: Vec::new(),
            suggestion: None,
        }
    }

    /// A new warning diagnostic (span defaults to [`Span::DUMMY`]).
    pub(crate) fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, message) }
    }

    /// Attaches the primary span.
    #[must_use]
    pub fn at(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    /// Adds a secondary note.
    #[must_use]
    pub(crate) fn note(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.notes.push(Note { span, message: message.into() });
        self
    }

    /// Attaches a suggestion.
    #[must_use]
    pub(crate) fn suggest(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Whether the diagnostic is error-severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Who owns a statement list (for span addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Owner {
    /// The constructor body.
    Constructor,
    /// An API body, by phase and API index.
    Api {
        /// Phase index.
        phase: u32,
        /// API index within the phase.
        api: u32,
    },
}

/// Address of an AST node within a [`crate::ast::Program`], used to key
/// the side [`SpanTable`] so the AST itself stays position-free (and
/// structural equality ignores formatting).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum NodePath {
    /// The contract name.
    ContractName,
    /// A creator field, by index.
    Field(usize),
    /// A global declaration (its name token), by index.
    Global(usize),
    /// A map declaration (its name token), by index.
    Map(usize),
    /// A phase (its name token), by index.
    Phase(usize),
    /// A phase's `while` condition.
    PhaseCond(usize),
    /// A phase's invariant.
    Invariant(usize),
    /// An API (its name token).
    Api {
        /// Phase index.
        phase: usize,
        /// API index within the phase.
        api: usize,
    },
    /// An API's `pay` expression.
    ApiPay {
        /// Phase index.
        phase: usize,
        /// API index within the phase.
        api: usize,
    },
    /// An API's return expression.
    ApiReturns {
        /// Phase index.
        phase: usize,
        /// API index within the phase.
        api: usize,
    },
    /// A statement. The path lists statement indices from the owner's
    /// body down: an `If` arm extends the path with `0` (then) or `1`
    /// (else) before the child index — `[2, 0, 1]` is the second
    /// statement of the then-arm of the third top-level statement.
    Stmt(Owner, Vec<u32>),
}

/// Side table mapping AST nodes to source spans. Deliberately excluded
/// from [`crate::ast::Program`] equality so parsed and builder-built
/// programs compare structurally.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    map: HashMap<NodePath, Span>,
}

impl SpanTable {
    /// Records a node's span.
    pub(crate) fn set(&mut self, path: NodePath, span: Span) {
        self.map.insert(path, span);
    }

    /// Looks up a node's span, `Span::DUMMY` when unknown.
    pub(crate) fn get(&self, path: &NodePath) -> Span {
        self.map.get(path).copied().unwrap_or(Span::DUMMY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_line_col() {
        let src = "abc\ndef\nghi";
        assert_eq!(Span::new(0, 1).line_col(src), Some((1, 1)));
        assert_eq!(Span::new(4, 5).line_col(src), Some((2, 1)));
        assert_eq!(Span::new(6, 7).line_col(src), Some((2, 3)));
        assert_eq!(Span::DUMMY.line_col(src), None);
    }

    #[test]
    fn diagnostic_builder_and_display() {
        let d = Diagnostic::error("E0001", "duplicate global \"x\"")
            .at(Span::new(3, 4))
            .note(Span::new(0, 1), "original definition here")
            .suggest("rename one of the declarations");
        assert!(d.is_error());
        assert_eq!(d.to_string(), "error[E0001]: duplicate global \"x\"");
        assert_eq!(d.notes.len(), 1);
        let w = Diagnostic::warning("L0002", "dead store");
        assert!(!w.is_error());
        assert!(w.to_string().starts_with("warning[L0002]"));
    }

    #[test]
    fn span_table_defaults_to_dummy() {
        let mut t = SpanTable::default();
        assert!(t.map.is_empty());
        t.set(NodePath::Global(0), Span::new(1, 2));
        assert_eq!(t.get(&NodePath::Global(0)), Span::new(1, 2));
        assert_eq!(t.get(&NodePath::Global(1)), Span::DUMMY);
        assert_eq!(t.map.len(), 1);
    }
}
