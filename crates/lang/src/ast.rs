//! The contract model.
//!
//! A program has the Reach shape the paper's contract uses (§4.1):
//!
//! 1. a single **creator** participant publishes the constructor fields,
//!    which initialise the globals;
//! 2. one or more **phases** run in order; within a phase the listed
//!    **APIs** may be called concurrently (Reach's `parallelReduce`)
//!    while the phase condition holds;
//! 3. once every phase has ended, anyone may `closeContract`, which
//!    returns the remaining balance to the creator (discharging the
//!    token-linearity theorem).

/// Value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unsigned 64-bit integer (`UInt` in Reach).
    UInt,
    /// Fixed-capacity byte string.
    Bytes(usize),
    /// An account address.
    Address,
    /// A boolean.
    Bool,
}

impl Ty {
    /// Whether the type is word-sized (fits a single VM stack slot).
    pub(crate) fn is_word(&self) -> bool {
        !matches!(self, Ty::Bytes(_))
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Less-or-equal.
    Le,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    UInt(u64),
    /// An API or constructor parameter, by name.
    Param(String),
    /// A global, by name.
    Global(String),
    /// The calling account.
    Caller,
    /// The contract's own balance.
    Balance,
    /// The stored commitment for `map[key]` (32-byte value; zero when
    /// absent).
    MapGet {
        /// Map name.
        map: String,
        /// Key expression (UInt).
        key: Box<Expr>,
    },
    /// Whether `map[key]` holds an entry.
    MapContains {
        /// Map name.
        map: String,
        /// Key expression (UInt).
        key: Box<Expr>,
    },
    /// Keccak-256 over the concatenation of the listed expressions
    /// (byte params are hashed raw; word expressions as 32-byte words on
    /// the EVM and 8-byte words on the AVM).
    Hash(Vec<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `a == b` convenience.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// `a > b` convenience.
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Gt, Box::new(a), Box::new(b))
    }

    /// `a >= b` convenience.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Ge, Box::new(a), Box::new(b))
    }

    /// `a - b` convenience.
    #[allow(clippy::should_implement_trait)] // DSL constructor, not std::ops
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// Global reference convenience.
    pub fn global(name: &str) -> Expr {
        Expr::Global(name.to_string())
    }

    /// Parameter reference convenience.
    pub fn param(name: &str) -> Expr {
        Expr::Param(name.to_string())
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Abort (revert / reject) unless the condition holds.
    Require(Expr),
    /// Assign a global.
    GlobalSet {
        /// Global name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// Store `map[key] = commit(value ‖ …)`, logging the raw bytes.
    MapSet {
        /// Map name.
        map: String,
        /// Key expression (UInt).
        key: Expr,
        /// Concatenated value parts.
        value: Vec<Expr>,
    },
    /// Delete `map[key]`.
    MapDelete {
        /// Map name.
        map: String,
        /// Key expression (UInt).
        key: Expr,
    },
    /// Pay out of the contract balance.
    Transfer {
        /// Recipient (Address-typed expression).
        to: Expr,
        /// Amount in base units.
        amount: Expr,
    },
    /// Conditional execution.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Vec<Stmt>,
        /// Else-branch.
        otherwise: Vec<Stmt>,
    },
    /// Emit an event with the given payload parts.
    Log(Vec<Expr>),
}

/// How a global is initialised at deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalInit {
    /// From a creator constructor field of the same type.
    FromField(String),
    /// A constant.
    Const(u64),
    /// The deployer's address.
    CreatorAddress,
}

/// A global state cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Name.
    pub name: String,
    /// Type (byte-typed globals store commitments).
    pub ty: Ty,
    /// Initialiser.
    pub init: GlobalInit,
    /// Whether a read-only view is exposed for it.
    pub viewable: bool,
}

/// A key → commitment map (Reach `Map`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDecl {
    /// Name.
    pub name: String,
    /// Declared capacity of the raw value in bytes (pre-commitment).
    pub value_bytes: usize,
}

/// An API: a function callable while its phase is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Api {
    /// Function name (also the dispatch symbol).
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Ty)>,
    /// Payment this call must attach: `None` forbids value, `Some(e)`
    /// requires the attached value to equal `e`.
    pub pay: Option<Expr>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Returned expression (UInt-typed).
    pub returns: Expr,
}

/// A phase: a `parallelReduce` round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Name (documentation only).
    pub name: String,
    /// Condition keeping the phase alive, over globals; re-evaluated
    /// after every API call, advancing to the next phase when false.
    pub while_cond: Expr,
    /// Invariant the verifier checks is preserved by every API.
    pub invariant: Expr,
    /// APIs callable during the phase.
    pub apis: Vec<Api>,
}

/// The creator participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Participant {
    /// Participant name.
    pub name: String,
    /// Constructor fields published at deployment.
    pub fields: Vec<(String, Ty)>,
}

/// A full contract program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Contract name.
    pub name: String,
    /// The deploying participant.
    pub creator: Participant,
    /// Statements run at deployment (after globals are initialised),
    /// with the constructor fields in scope as parameters.
    pub constructor: Vec<Stmt>,
    /// Global state.
    pub globals: Vec<GlobalDecl>,
    /// Maps.
    pub maps: Vec<MapDecl>,
    /// Ordered phases.
    pub phases: Vec<Phase>,
    /// Source spans for diagnostics; empty for builder-built programs.
    /// Excluded from equality so parsed and hand-built ASTs compare
    /// structurally.
    pub spans: crate::diag::SpanTable,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.name == other.name
            && self.creator == other.creator
            && self.constructor == other.constructor
            && self.globals == other.globals
            && self.maps == other.maps
            && self.phases == other.phases
    }
}

impl Eq for Program {}

impl Program {
    /// Looks up a global's declaration index.
    pub(crate) fn global_index(&self, name: &str) -> Option<usize> {
        self.globals.iter().position(|g| g.name == name)
    }

    /// Looks up a map's declaration index.
    pub(crate) fn map_index(&self, name: &str) -> Option<usize> {
        self.maps.iter().position(|m| m.name == name)
    }

    /// Finds a constructor field's type.
    pub(crate) fn field_ty(&self, name: &str) -> Option<Ty> {
        self.creator.fields.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }

    /// All APIs across phases, with their phase index.
    pub(crate) fn all_apis(&self) -> impl Iterator<Item = (usize, &Api)> {
        self.phases.iter().enumerate().flat_map(|(i, p)| p.apis.iter().map(move |a| (i, a)))
    }

    /// A tiny sample program used by documentation and smoke tests: a
    /// counter anyone may bump a fixed number of times.
    pub fn counter_example() -> Program {
        Program {
            name: "counter".into(),
            creator: Participant {
                name: "Creator".into(),
                fields: vec![("limit".into(), Ty::UInt)],
            },
            constructor: vec![],
            globals: vec![
                GlobalDecl {
                    name: "remaining".into(),
                    ty: Ty::UInt,
                    init: GlobalInit::FromField("limit".into()),
                    viewable: true,
                },
                GlobalDecl {
                    name: "count".into(),
                    ty: Ty::UInt,
                    init: GlobalInit::Const(0),
                    viewable: true,
                },
            ],
            maps: vec![],
            phases: vec![Phase {
                name: "counting".into(),
                while_cond: Expr::gt(Expr::global("remaining"), Expr::UInt(0)),
                invariant: Expr::ge(Expr::global("remaining"), Expr::UInt(0)),
                apis: vec![Api {
                    name: "bump".into(),
                    params: vec![("by".into(), Ty::UInt)],
                    pay: None,
                    body: vec![
                        Stmt::Require(Expr::gt(Expr::param("by"), Expr::UInt(0))),
                        Stmt::GlobalSet {
                            name: "count".into(),
                            value: Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::global("count")),
                                Box::new(Expr::param("by")),
                            ),
                        },
                        Stmt::GlobalSet {
                            name: "remaining".into(),
                            value: Expr::sub(Expr::global("remaining"), Expr::UInt(1)),
                        },
                    ],
                    returns: Expr::global("remaining"),
                }],
            }],
            spans: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let p = Program::counter_example();
        assert_eq!(p.global_index("count"), Some(1));
        assert_eq!(p.global_index("missing"), None);
        assert_eq!(p.field_ty("limit"), Some(Ty::UInt));
        assert_eq!(p.all_apis().count(), 1);
    }

    #[test]
    fn word_types() {
        assert!(Ty::UInt.is_word());
        assert!(Ty::Address.is_word());
        assert!(!Ty::Bytes(32).is_word());
    }
}
