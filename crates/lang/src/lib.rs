//! A blockchain-agnostic smart contract language.
//!
//! This crate is the Rust equivalent of the role Reach plays in the
//! paper: **one contract source, compiled to every supported chain**,
//! with a static verifier and a conservative cost analysis run before any
//! code is emitted.
//!
//! * [`ast`] — the contract model: one *creator* participant with
//!   constructor fields, *phases* of concurrently-callable *APIs*
//!   (Reach's `parallelReduce`), read-only *views*, key→commitment
//!   *maps*, and native-token transfers;
//! * [`check`] — the type checker;
//! * [`verify`] — the theorem verifier (token linearity, map cleanup,
//!   guarded transfers, …) run in both honest and dishonest participant
//!   modes, as Reach does ("Verifying when ALL participants are honest /
//!   when NO participants are honest", Fig. 2.11);
//! * [`analyze`] — the conservative cost analysis of Fig. 5.1 (the
//!   [`gas`] certificates per chain, state footprint, step counts);
//! * [`backend::evm`] — compiles to EVM init+runtime bytecode using the
//!   state-commitment storage layout (maps hold 32-byte commitments, raw
//!   data travels in calldata and logs);
//! * [`backend::avm`] — compiles to an AVM approval program using boxes
//!   for maps and inner transactions for payouts.
//!
//! # Examples
//!
//! ```
//! use pol_lang::ast::*;
//!
//! let program = Program::counter_example();
//! assert!(pol_lang::check::check(&program).is_empty());
//! let report = pol_lang::verify::verify(&program);
//! assert!(report.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod analyze;
pub mod ast;
pub mod backend;
pub mod check;
pub mod diag;
pub mod gas;
pub(crate) mod ir;
pub mod lint;
pub mod parse;
pub mod pretty;
pub mod verify;
pub mod xcontract;

pub use ast::Program;
pub use diag::Diagnostic;
pub use parse::parse;

fn join_diags(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ")
}

/// Errors raised by the compiler pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// The program failed type checking.
    TypeErrors(Vec<Diagnostic>),
    /// The program failed verification.
    VerificationFailed(Vec<Diagnostic>),
    /// An error-severity lint diagnostic fired.
    LintErrors(Vec<Diagnostic>),
    /// Emitted bytecode failed post-emission verification or the
    /// two-sided cost gate (X0401/X0402).
    BytecodeRejected(Vec<Diagnostic>),
    /// A backend limitation was hit.
    Backend(String),
}

impl LangError {
    /// The structured diagnostics behind this error, when it carries any.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        match self {
            LangError::TypeErrors(d)
            | LangError::VerificationFailed(d)
            | LangError::LintErrors(d)
            | LangError::BytecodeRejected(d) => d,
            LangError::Backend(_) => &[],
        }
    }
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::TypeErrors(errs) => write!(f, "type errors: {}", join_diags(errs)),
            LangError::VerificationFailed(fails) => {
                write!(f, "verification failed: {}", join_diags(fails))
            }
            LangError::LintErrors(errs) => write!(f, "lint errors: {}", join_diags(errs)),
            LangError::BytecodeRejected(errs) => {
                write!(f, "bytecode rejected: {}", join_diags(errs))
            }
            LangError::Backend(msg) => write!(f, "backend error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}
