//! An Algorand-style virtual machine (AVM).
//!
//! The execution substrate for the simulated Algorand testnet: a typed
//! stack machine in the style of TEAL — two value types (`uint64` and
//! `bytes`), an *opcode budget* per application call instead of a gas
//! market (fees on Algorand are flat), application **global state** and
//! **boxes** for key-value storage, and **inner transactions** for
//! payments out of the application account.
//!
//! Programs are held in assembly form ([`opcode::AvmOp`]) rather than
//! packed bytecode; [`teal`] renders them as TEAL-like text, mirroring the
//! `index.main.mjs` artifacts the paper's Reach compiler emits.
//!
//! # Examples
//!
//! ```
//! use pol_avm::{Avm, AppCallParams};
//! use pol_avm::opcode::AvmOp::*;
//! use pol_avm::program::AvmProgram;
//!
//! // An app that always approves.
//! let program = AvmProgram::new(vec![PushInt(1), Return]);
//! let mut avm = Avm::new();
//! let mut balances = std::collections::HashMap::new();
//! let app_id =
//!     avm.create_app_with_args(pol_ledger::Address::ZERO, program, Vec::new(), &mut balances)?;
//! let out = avm.call(AppCallParams::new(pol_ledger::Address::ZERO, app_id), &mut balances)?;
//! assert!(out.approved);
//! # Ok::<(), pol_avm::interpreter::AvmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod interpreter;
pub mod opcode;
pub mod program;
pub(crate) mod state;
pub mod teal;
pub mod verifier;

pub use interpreter::{app_address, call_app, create_app, AppCallParams, Avm, AvmView};
pub use program::AvmProgram;
pub use state::TealValue;
