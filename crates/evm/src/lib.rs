//! An Ethereum-style virtual machine.
//!
//! This is the execution substrate for the simulated Ropsten, Goerli and
//! Mumbai chains: a 256-bit stack machine with the yellow-paper gas
//! schedule (the table reproduced as Fig. 1.4 in the paper), contract
//! storage with warm/cold access accounting, EIP-1559-compatible fee
//! charging hooks, and `CREATE`-style deployment where init code returns
//! the runtime image.
//!
//! The instruction set is the subset the blockchain-agnostic language
//! backend emits (arithmetic, comparison, Keccak-256, environment,
//! storage, control flow, logs, value-transfer `CALL`, `RETURN`/`REVERT`),
//! each charged its canonical gas cost.
//!
//! # Examples
//!
//! ```
//! use pol_evm::{Evm, CallParams};
//! use pol_evm::word::Word;
//! use pol_evm::assembler::Asm;
//!
//! // A contract whose runtime code returns 42.
//! let runtime = Asm::new().push_u64(42).push_u64(0).op(pol_evm::opcode::Op::MStore)
//!     .push_u64(32).push_u64(0).op(pol_evm::opcode::Op::Return).build();
//! let init = Asm::deploy_wrapper(&runtime);
//! let mut evm = Evm::new();
//! let mut balances = std::collections::HashMap::new();
//! let addr = evm.deploy(pol_ledger::Address::ZERO, &init, 10_000_000, &mut balances)?.0;
//! let out = evm.call(CallParams::new(pol_ledger::Address::ZERO, addr), &mut balances)?;
//! assert_eq!(Word::from_be_slice(&out.output), Word::from_u64(42));
//! # Ok::<(), pol_evm::EvmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod assembler;
pub(crate) mod cache;
pub mod gas;
pub mod interpreter;
pub mod opcode;
pub(crate) mod program;
pub mod verifier;
pub mod word;

pub use cache::{CodeCache, CodeCacheStats};
pub use interpreter::{call_contract, deploy_contract, CallParams, Evm, EvmError, ExecOutcome};
pub use program::EvmProgram;
pub use word::Word;
