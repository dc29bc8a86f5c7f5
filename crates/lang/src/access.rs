//! Compile-time read/write-set inference: **access summaries**.
//!
//! For every method (and the constructor) this pass abstract-interprets
//! the lowered CFG (see `crate::ir`) into a sound, finite
//! [`AccessSummary`]: which globals the body may read or write, which
//! map entries it may touch — classified on the key-pattern lattice
//! `Const ⊑ Param ⊑ ⊤` using the interval domain to narrow key
//! expressions — plus balance and transfer effects and whether the
//! phase counter may advance.
//!
//! [`ContractSummaries`] then *resolves* a summary against a concrete
//! call (sender, value, calldata or app args) into runtime
//! [`AccessClaims`] over [`pol_ledger::StateKey`]s, replaying the exact
//! key derivations the backends emit: EVM map slots are
//! `keccak(key_word ‖ word(MAP_SLOT_BASE + idx))` (see
//! [`crate::backend::evm`]), AVM map entries are boxes keyed
//! `"<map>:" ‖ itob(key)` (see [`crate::backend::avm`]). The parallel
//! executor uses those claims to pre-partition blocks into
//! provably-disjoint lanes; its sanitizer cross-checks every observed
//! read/write set against them at commit time, so an unsound summary
//! fails loudly in every test run.
//!
//! # Soundness argument
//!
//! The summary is a *may* analysis over the reachable CFG: every
//! statement and condition the runtime can execute is walked, and every
//! key a site may touch is either pinned (constant, or a parameter the
//! resolver evaluates against the actual call data) or widened to the
//! family/⊤ claim that contains it. Reachability comes from the
//! interval pass, which over-approximates concrete executions, so a
//! block it proves unreachable truly never runs. Rolled-back execution
//! paths (reverts) only shrink the observed sets, never grow them.
//!
//! The phase counter needs care: the generated epilogue re-evaluates
//! the phase's `while` condition and advances the counter when it turned
//! false. The summary claims a phase write only when the body can
//! change an input of that condition (a global or map it reads, or —
//! via transfers — the balance); otherwise the condition still holds at
//! exit exactly as the entry `require` proved it, and the counter is
//! provably untouched. Without this refinement every call to a
//! contract would conflict on the phase slot and no two calls would
//! ever commute.

use crate::ast::{Expr, Program, Ty};
use crate::backend::evm::{
    global_slot, DispatchEntry, DispatchTarget, MAP_SLOT_BASE, SLOT_CREATOR, SLOT_PHASE,
};
use crate::backend::{avm as avm_backend, evm as evm_backend};
use crate::diag::Owner;
use crate::ir::{BodyAnalysis, Env, Inst, ProgramFlows, Src, Term};
use pol_avm::app_address;
use pol_crypto::keccak256;
use pol_evm::Word;
use pol_ledger::access::{AccessClaims, KeyClaim};
use pol_ledger::codec::encode_key;
use pol_ledger::{Address, StateKey};
use std::collections::{BTreeSet, HashMap};

/// How precisely a map-key expression is known. The lattice is
/// `Const ⊑ Param ⊑ Top`: a constant key pins one entry at compile
/// time, a parameter key pins one entry per call (resolved against the
/// call data), ⊤ claims the whole map. (A `sender`-derived arm is
/// structurally impossible for map keys — the checker types them
/// strictly `uint` — but sender-derived *addresses* appear in transfer
/// recipients, see [`AddrPattern::Caller`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPattern {
    /// The key is this constant (the interval domain pinned it).
    Const(u64),
    /// The key is exactly this parameter's value.
    Param(String),
    /// Unresolvable: claim every entry of the map.
    Top,
}

/// How precisely a transfer recipient is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPattern {
    /// The calling account (resolved to the tx sender).
    Caller,
    /// Exactly this address-typed parameter's value.
    Param(String),
    /// Unresolvable: claim every balance.
    Top,
}

/// One map access site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSite {
    /// Map name.
    pub map: String,
    /// Key classification.
    pub key: KeyPattern,
    /// Whether the site writes (put/delete) rather than reads.
    pub write: bool,
    /// Source statement path of the access (for diagnostics).
    pub path: Vec<u32>,
}

/// One transfer site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSite {
    /// Recipient classification.
    pub to: AddrPattern,
    /// Source statement path.
    pub path: Vec<u32>,
}

/// The sound, finite access summary of one body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSummary {
    /// Globals the body (or the phase condition / pay / return
    /// expressions evaluated around it) may read.
    pub globals_read: BTreeSet<String>,
    /// Globals the body may write.
    pub globals_written: BTreeSet<String>,
    /// Map access sites, reads and writes.
    pub maps: Vec<MapSite>,
    /// Transfer sites.
    pub transfers: Vec<TransferSite>,
    /// Whether the contract balance is read.
    pub reads_balance: bool,
    /// Whether the phase counter is read (true for every API — the
    /// dispatcher checks it — and false for views).
    pub reads_phase: bool,
    /// Whether the phase counter may be written (the epilogue advances
    /// it only when the body can falsify the phase condition).
    pub writes_phase: bool,
    /// Whether the method requires an attached payment.
    pub uses_pay: bool,
}

/// A site where the summary degrades to ⊤ (lint L0007).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Source statement path of the offending access.
    pub path: Vec<u32>,
    /// Human-readable description of what degraded.
    pub detail: String,
}

impl AccessSummary {
    /// Whether every site is pinned — no whole-map or whole-ledger
    /// claim anywhere.
    pub fn is_precise(&self) -> bool {
        self.degradations().is_empty()
    }

    /// Every ⊤ site, with the statement path the L0007 lint points at.
    pub fn degradations(&self) -> Vec<Degradation> {
        let mut out = Vec::new();
        for site in &self.maps {
            if site.key == KeyPattern::Top {
                let mode = if site.write { "write to" } else { "read of" };
                out.push(Degradation {
                    path: site.path.clone(),
                    detail: format!(
                        "{mode} map \"{}\" with unresolvable key widens the access summary \
                         to the whole map",
                        site.map
                    ),
                });
            }
        }
        for site in &self.transfers {
            if site.to == AddrPattern::Top {
                out.push(Degradation {
                    path: site.path.clone(),
                    detail: "transfer recipient is unresolvable at compile time; the access \
                             summary widens to every balance"
                        .to_string(),
                });
            }
        }
        out
    }
}

/// Whether a body with this summary can change an input of `cond`: a
/// global it reads, a map it reads, or — through a transfer — the
/// balance. Used for the phase-advance refinement (key precision is
/// irrelevant there).
fn writes_cond_input(cond: &Expr, summary: &AccessSummary) -> bool {
    match cond {
        Expr::Global(g) => summary.globals_written.contains(g.as_str()),
        Expr::Balance => !summary.transfers.is_empty(),
        Expr::MapGet { map, key } | Expr::MapContains { map, key } => {
            summary.maps.iter().any(|site| site.write && site.map == *map)
                || writes_cond_input(key, summary)
        }
        Expr::Hash(parts) => parts.iter().any(|p| writes_cond_input(p, summary)),
        Expr::Bin(_, a, b) => writes_cond_input(a, summary) || writes_cond_input(b, summary),
        Expr::Not(inner) => writes_cond_input(inner, summary),
        Expr::UInt(_) | Expr::Param(_) | Expr::Caller => false,
    }
}

/// Inserts `name` into a name set, allocating only when it is new.
fn note(set: &mut BTreeSet<String>, name: &str) {
    if !set.contains(name) {
        set.insert(name.to_string());
    }
}

/// Classifies a map-key expression at a program point: the interval
/// domain first (guard refinement can pin `require(k == 7)` keys), then
/// the syntactic parameter case, then ⊤. An expression evaluated around
/// the body sees the ⊤ store, which keeps constants and parameters and
/// nothing else.
fn classify_key(key: &Expr, env: Env<'_>) -> KeyPattern {
    if let Some(c) = env.interval_of(key).as_const() {
        return KeyPattern::Const(c);
    }
    if let Expr::Param(p) = key {
        return KeyPattern::Param(p.clone());
    }
    KeyPattern::Top
}

fn classify_addr(to: &Expr) -> AddrPattern {
    match to {
        Expr::Caller => AddrPattern::Caller,
        Expr::Param(p) => AddrPattern::Param(p.clone()),
        _ => AddrPattern::Top,
    }
}

struct Collector<'a> {
    flow: &'a BodyAnalysis<'a>,
    summary: AccessSummary,
}

impl Collector<'_> {
    /// Records every read an expression performs; map keys classified
    /// against the store observed at `path` (or the block terminator's
    /// store for condition expressions).
    fn reads(&mut self, expr: &Expr, env: Env<'_>, path: &[u32]) {
        match expr {
            Expr::Global(g) => note(&mut self.summary.globals_read, g),
            Expr::Balance => self.summary.reads_balance = true,
            Expr::MapGet { map, key } | Expr::MapContains { map, key } => {
                self.map_site(map, key, false, env, path);
                self.reads(key, env, path);
            }
            Expr::Hash(parts) => {
                for p in parts {
                    self.reads(p, env, path);
                }
            }
            Expr::Bin(_, a, b) => {
                self.reads(a, env, path);
                self.reads(b, env, path);
            }
            Expr::Not(inner) => self.reads(inner, env, path),
            Expr::UInt(_) | Expr::Param(_) | Expr::Caller => {}
        }
    }

    fn map_site(&mut self, map: &str, key: &Expr, write: bool, env: Env<'_>, path: &[u32]) {
        let key = classify_key(key, env);
        self.summary.maps.push(MapSite { map: map.to_string(), key, write, path: path.to_vec() });
    }

    fn walk_body(&mut self) {
        let flow = self.flow;
        for (b, block) in flow.reachable_blocks() {
            for i in block.insts.clone() {
                let inst = flow.cfg.insts[i];
                let path = flow.path(inst.path());
                let env = flow.env_before(i).unwrap_or(flow.top());
                match inst {
                    Inst::Set { name, value, .. } => {
                        note(&mut self.summary.globals_written, name);
                        self.reads(value, env, path);
                    }
                    Inst::MapPut { map, key, value, .. } => {
                        self.map_site(map, key, true, env, path);
                        self.reads(key, env, path);
                        for part in value {
                            self.reads(part, env, path);
                        }
                    }
                    Inst::MapDel { map, key, .. } => {
                        self.map_site(map, key, true, env, path);
                        self.reads(key, env, path);
                    }
                    Inst::Transfer { to, amount, .. } => {
                        self.summary
                            .transfers
                            .push(TransferSite { to: classify_addr(to), path: path.to_vec() });
                        self.reads(to, env, path);
                        self.reads(amount, env, path);
                    }
                    Inst::Emit { parts, .. } => {
                        for part in parts {
                            self.reads(part, env, path);
                        }
                    }
                }
            }
            // Condition expressions in terminators read state too; the
            // terminator store, after the block's assignments, keeps
            // them from laundering a stale constant into a key pattern.
            let env = flow.term_env(b).unwrap_or(flow.top());
            match block.term {
                Term::Branch { cond, path, .. } => self.reads(cond, env, flow.path(path)),
                Term::Require { cond, src, .. } => {
                    let path: &[u32] = match src {
                        Src::Stmt(p) => flow.path(p),
                        Src::PhaseCond => &[],
                    };
                    self.reads(cond, env, path);
                }
                Term::Goto(_) | Term::Return => {}
            }
        }
    }
}

/// Summarizes the body a [`BodyAnalysis`] was computed for. The flow's
/// owner decides whether API extras (pay/return expressions, phase
/// effects) apply.
fn summary_for_flow(program: &Program, flow: &BodyAnalysis) -> AccessSummary {
    let mut c = Collector { flow, summary: AccessSummary::default() };
    c.walk_body();
    match flow.cfg.owner {
        Owner::Constructor => {
            // The generated constructors write the creator/phase cells
            // and (on the AVM) every declared global; model all globals
            // as written — deployment is resolved conservatively at
            // runtime anyway, so this only affects reporting.
            let mut summary = c.summary;
            summary.writes_phase = true;
            summary.globals_written.extend(program.globals.iter().map(|g| g.name.clone()));
            summary
        }
        Owner::Api { phase, api } => {
            let phase_decl = &program.phases[phase as usize];
            let api_decl = &phase_decl.apis[api as usize];
            // The prologue checks the payment and the epilogue evaluates
            // the return value after the body ran: neither sits at a
            // program point of the body, so their map keys classify
            // against no store.
            if let Some(pay) = &api_decl.pay {
                c.reads(pay, flow.top(), &[]);
            }
            c.reads(&api_decl.returns, flow.top(), &[]);
            let mut summary = c.summary;
            summary.reads_phase = true;
            summary.uses_pay = api_decl.pay.is_some();

            // Phase-advance refinement: the counter can only move when
            // the body changes an input of the phase condition.
            summary.writes_phase = writes_cond_input(&phase_decl.while_cond, &summary);
            summary
        }
    }
}

/// What kind of dispatch entry a [`MethodSummary`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// A phase API.
    Api,
    /// A generated `view_<global>` read-only entry (EVM dispatcher
    /// only).
    View,
    /// The generated `closeContract` entry.
    Close,
}

impl MethodKind {
    /// The kind's name in the published JSON artifacts.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MethodKind::Api => "api",
            MethodKind::View => "view",
            MethodKind::Close => "close",
        }
    }
}

/// One dispatchable method with its summary and the ABI facts needed to
/// resolve concrete calls.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Dispatch name (`put`, `view_open`, `closeContract`, …).
    pub name: String,
    /// Phase name for APIs, `None` for views/close.
    pub phase: Option<String>,
    /// Dispatch kind.
    pub kind: MethodKind,
    /// The access summary.
    pub summary: AccessSummary,
    selector: [u8; 4],
    layout: Vec<(String, Ty, usize, usize)>,
}

/// Compile-time access summaries for every dispatchable method of one
/// contract, resolvable against concrete calls on either backend.
#[derive(Debug, Clone)]
pub struct ContractSummaries {
    /// Contract name.
    pub name: String,
    /// Constructor summary (reporting only; deployments resolve
    /// conservatively at runtime).
    pub constructor: AccessSummary,
    /// Dispatchable methods: phase APIs, EVM views, `closeContract`.
    pub methods: Vec<MethodSummary>,
    global_index: HashMap<String, usize>,
    map_index: HashMap<String, usize>,
}

/// Runs the access-summary pass over a checked program.
pub fn summarize(program: &Program) -> ContractSummaries {
    let table = evm_backend::dispatch_table(program);
    summarize_flows(program, &ProgramFlows::new(program), &table)
}

/// [`summarize`] over the flows and the method table the caller already
/// built (the compile pipeline's, see [`crate::backend::compile`]).
pub(crate) fn summarize_flows(
    program: &Program,
    flows: &ProgramFlows,
    table: &[DispatchEntry<'_>],
) -> ContractSummaries {
    let methods = table
        .iter()
        .map(|entry| {
            let summary = match entry.target {
                DispatchTarget::Api { phase, api_idx, .. } => {
                    summary_for_flow(program, &flows.apis[phase][api_idx])
                }
                DispatchTarget::View { global } => AccessSummary {
                    globals_read: BTreeSet::from([program.globals[global].name.clone()]),
                    ..AccessSummary::default()
                },
                DispatchTarget::Close => AccessSummary {
                    reads_balance: true,
                    reads_phase: true,
                    transfers: vec![TransferSite { to: AddrPattern::Top, path: Vec::new() }],
                    ..AccessSummary::default()
                },
            };
            let (kind, phase) = entry.kind_and_phase(program);
            MethodSummary {
                phase,
                kind,
                summary,
                selector: entry.selector,
                layout: evm_backend::layout(entry.params()),
                name: entry.name.clone(),
            }
        })
        .collect();
    ContractSummaries {
        name: program.name.clone(),
        constructor: summary_for_flow(program, &flows.constructor),
        methods,
        global_index: program
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.clone(), i))
            .collect(),
        map_index: program.maps.iter().enumerate().map(|(i, m)| (m.name.clone(), i)).collect(),
    }
}

/// The 32-byte big-endian storage-slot word for a reserved/global slot.
fn slot_word(slot: u64) -> [u8; 32] {
    Word::from_u128(u128::from(slot)).to_be_bytes()
}

/// The word CALLDATALOAD observes at `offset` (zero-padded past the
/// end, exactly like the EVM).
fn calldata_word(data: &[u8], offset: usize) -> [u8; 32] {
    let mut word = [0u8; 32];
    for (i, b) in word.iter_mut().enumerate() {
        *b = data.get(offset + i).copied().unwrap_or(0);
    }
    word
}

/// The prefix claiming every balance (⊤ transfer recipients).
fn balance_prefix() -> Vec<u8> {
    encode_key(&StateKey::Balance(Address::ZERO))[..1].to_vec()
}

/// Where one deployed instance keeps its state: everything
/// [`ContractSummaries::instantiate`] needs to know about a backend.
/// The derivations replay the ones [`crate::backend::evm`] and
/// [`crate::backend::avm`] emit.
enum KeySpace {
    Evm(Address),
    Avm(u64),
}

impl KeySpace {
    /// The key holding the code a call executes.
    fn program(&self) -> StateKey {
        match *self {
            KeySpace::Evm(contract) => StateKey::Code(contract),
            KeySpace::Avm(app_id) => StateKey::AppProgram(app_id),
        }
    }

    /// The account holding the contract's funds.
    fn escrow(&self) -> Address {
        match *self {
            KeySpace::Evm(contract) => contract,
            KeySpace::Avm(app_id) => app_address(app_id),
        }
    }

    /// A cell outside the maps (phase, creator, a global): a storage
    /// slot on the EVM, a named global on the AVM.
    fn cell(&self, slot: u64, name: &[u8]) -> StateKey {
        match *self {
            KeySpace::Evm(contract) => StateKey::Storage(contract, slot_word(slot)),
            KeySpace::Avm(app_id) => StateKey::AppGlobal(app_id, name.to_vec()),
        }
    }

    /// The entry of map `name` (declaration index `idx`) under a `uint`
    /// key given as a 32-byte big-endian word, or with no key the
    /// smallest prefix covering every entry: map slots are hashed all
    /// over one contract's storage on the EVM, so ⊤ is that whole
    /// storage; on the AVM it is the map's boxes.
    fn map_claim(&self, name: &str, idx: usize, key: Option<[u8; 32]>) -> KeyClaim {
        match *self {
            KeySpace::Evm(contract) => match key {
                Some(key) => {
                    let mut preimage = [0u8; 64];
                    preimage[..32].copy_from_slice(&key);
                    preimage[32..].copy_from_slice(&slot_word(MAP_SLOT_BASE + idx as u64));
                    KeyClaim::Exact(StateKey::Storage(contract, keccak256(&preimage)))
                }
                None => KeyClaim::Prefix(
                    encode_key(&StateKey::Storage(contract, [0u8; 32]))[..21].to_vec(),
                ),
            },
            KeySpace::Avm(app_id) => {
                let mut box_key = name.as_bytes().to_vec();
                box_key.push(b':');
                match key {
                    Some(key) => {
                        box_key.extend_from_slice(&key[24..]);
                        KeyClaim::Exact(StateKey::AppBox(app_id, box_key))
                    }
                    None => KeyClaim::Prefix(encode_key(&StateKey::AppBox(app_id, box_key))),
                }
            }
        }
    }
}

impl ContractSummaries {
    /// Resolves an EVM call against the summaries: returns sound claims
    /// for the state keys the call may touch, or `None` when no sound
    /// claim can be made. The caller adds fee-settlement claims.
    ///
    /// Mirrors the generated dispatcher: the selector is the first four
    /// calldata bytes (zero-padded), an unknown selector reverts after
    /// reading only the code, and attached value moves before dispatch.
    pub fn resolve_evm_call(
        &self,
        contract: Address,
        sender: Address,
        value: u128,
        calldata: &[u8],
    ) -> Option<AccessClaims> {
        let selector = calldata_word(calldata, 0);
        let method = self.methods.iter().find(|m| m.selector == selector[..4]);
        self.instantiate(&KeySpace::Evm(contract), sender, value > 0, method, |pos, _width| {
            let (_, _, off, _) = method?.layout[pos];
            Some(calldata_word(calldata, 4 + off))
        })
    }

    /// Resolves an AVM application call against the summaries; the
    /// first app arg is the dispatch symbol and parameters follow in
    /// declaration order (`uint` args are 8-byte big-endian, addresses
    /// raw 20 bytes — see [`crate::backend::avm`]).
    pub fn resolve_app_call(
        &self,
        app_id: u64,
        sender: Address,
        payment: u64,
        args: &[Vec<u8>],
    ) -> Option<AccessClaims> {
        // A missing or unknown dispatch symbol is rejected after reading
        // only the program; views are EVM-only entries.
        let method = args.first().and_then(|symbol| {
            self.methods
                .iter()
                .find(|m| m.kind != MethodKind::View && m.name.as_bytes() == symbol.as_slice())
        });
        self.instantiate(&KeySpace::Avm(app_id), sender, payment > 0, method, |pos, width| {
            // An argument that is not its type's exact encoding makes the
            // call's footprint unpredictable from here — refuse to claim
            // rather than widening.
            let raw = args.get(1 + pos).filter(|raw| raw.len() == width)?;
            let mut word = [0u8; 32];
            word[32 - width..].copy_from_slice(raw);
            Some(word)
        })
    }

    /// Instantiates `method`'s summary in one backend's key space.
    /// `param(pos, width)` is the call's value of the method's `pos`-th
    /// parameter, right-aligned in a 32-byte word (`width` is 8 for a
    /// `uint`, 20 for an address); `None` from it refuses the claim.
    fn instantiate(
        &self,
        space: &KeySpace,
        sender: Address,
        pays: bool,
        method: Option<&MethodSummary>,
        param: impl Fn(usize, usize) -> Option<[u8; 32]>,
    ) -> Option<AccessClaims> {
        let escrow = StateKey::Balance(space.escrow());
        let mut claims = AccessClaims::default();
        claims.read(space.program());
        if pays {
            claims.read_write(StateKey::Balance(sender));
            claims.read_write(escrow.clone());
        }
        let Some(method) = method else {
            return Some(claims); // the dispatcher rejects the call
        };
        let s = &method.summary;
        let param = |name: &str, width: usize| {
            param(method.layout.iter().position(|(n, ..)| n == name)?, width)
        };

        let phase = || space.cell(SLOT_PHASE, avm_backend::KEY_PHASE);
        if method.kind == MethodKind::Close {
            claims.read(phase());
            claims.read(space.cell(SLOT_CREATOR, avm_backend::KEY_CREATOR));
            claims.read_write(escrow);
            claims.read_write_prefix(balance_prefix());
            return Some(claims);
        }
        if s.reads_phase {
            if s.writes_phase {
                claims.read_write(phase());
            } else {
                claims.read(phase());
            }
        }
        let global =
            |g: &String| Some(space.cell(global_slot(*self.global_index.get(g)?), g.as_bytes()));
        for g in &s.globals_read {
            if !s.globals_written.contains(g) {
                claims.read(global(g)?);
            }
        }
        for g in &s.globals_written {
            claims.read_write(global(g)?);
        }
        for site in &s.maps {
            let key = match &site.key {
                KeyPattern::Const(k) => Some(Word::from_u128(u128::from(*k)).to_be_bytes()),
                KeyPattern::Param(p) => Some(param(p, 8)?),
                KeyPattern::Top => None,
            };
            let claim = space.map_claim(&site.map, *self.map_index.get(&site.map)?, key);
            claims.reads.push(claim.clone());
            if site.write {
                claims.writes.push(claim);
            }
        }
        if s.reads_balance || !s.transfers.is_empty() {
            claims.read(escrow.clone());
        }
        if !s.transfers.is_empty() {
            claims.read_write(escrow);
        }
        for site in &s.transfers {
            match &site.to {
                AddrPattern::Caller => claims.read_write(StateKey::Balance(sender)),
                AddrPattern::Param(p) => {
                    let word = param(p, 20)?;
                    claims.read_write(StateKey::Balance(Word::from_be_bytes(&word).to_address()));
                }
                AddrPattern::Top => claims.read_write_prefix(balance_prefix()),
            }
        }
        Some(claims)
    }
}

// ------------------------------------------------------- reporting --

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn key_pattern_label(p: &KeyPattern) -> String {
    match p {
        KeyPattern::Const(c) => format!("const:{c}"),
        KeyPattern::Param(name) => format!("param:{name}"),
        KeyPattern::Top => "top".to_string(),
    }
}

fn addr_pattern_label(p: &AddrPattern) -> String {
    match p {
        AddrPattern::Caller => "caller".to_string(),
        AddrPattern::Param(name) => format!("param:{name}"),
        AddrPattern::Top => "top".to_string(),
    }
}

fn summary_json(s: &AccessSummary, indent: &str) -> String {
    let list =
        |items: &BTreeSet<String>| items.iter().map(|g| json_str(g)).collect::<Vec<_>>().join(", ");
    let maps = s
        .maps
        .iter()
        .map(|m| {
            format!(
                "{{\"map\": {}, \"key\": {}, \"mode\": {}}}",
                json_str(&m.map),
                json_str(&key_pattern_label(&m.key)),
                json_str(if m.write { "write" } else { "read" }),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let transfers = s
        .transfers
        .iter()
        .map(|t| json_str(&addr_pattern_label(&t.to)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n{indent}  \"globals_read\": [{}],\n{indent}  \"globals_written\": [{}],\n\
         {indent}  \"maps\": [{maps}],\n{indent}  \"transfers\": [{transfers}],\n\
         {indent}  \"reads_balance\": {},\n{indent}  \"reads_phase\": {},\n\
         {indent}  \"writes_phase\": {},\n{indent}  \"precise\": {}\n{indent}}}",
        list(&s.globals_read),
        list(&s.globals_written),
        s.reads_balance,
        s.reads_phase,
        s.writes_phase,
        s.is_precise(),
    )
}

impl ContractSummaries {
    /// Deterministic JSON rendering of the summaries (the
    /// `polc summaries --json` artifact).
    pub fn to_json(&self, file: &str, indent: &str) -> String {
        let methods = self
            .methods
            .iter()
            .map(|m| {
                format!(
                    "{indent}    {{\"name\": {}, \"phase\": {}, \"kind\": {}, \"summary\": {}}}",
                    json_str(&m.name),
                    m.phase.as_ref().map_or("null".to_string(), |p| json_str(p)),
                    json_str(m.kind.label()),
                    summary_json(&m.summary, &format!("{indent}    ")),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{indent}{{\n{indent}  \"file\": {},\n{indent}  \"name\": {},\n\
             {indent}  \"constructor\": {},\n{indent}  \"methods\": [\n{methods}\n{indent}  ]\n{indent}}}",
            json_str(file),
            json_str(&self.name),
            summary_json(&self.constructor, &format!("{indent}  ")),
        )
    }

    /// Human-readable rendering (the `polc summaries` text output).
    pub fn render_text(&self) -> String {
        let mut out = format!("contract {}\n", self.name);
        for m in &self.methods {
            let s = &m.summary;
            let mut parts = Vec::new();
            if !s.globals_read.is_empty() {
                parts.push(format!(
                    "reads {{{}}}",
                    s.globals_read.iter().cloned().collect::<Vec<_>>().join(", ")
                ));
            }
            if !s.globals_written.is_empty() {
                parts.push(format!(
                    "writes {{{}}}",
                    s.globals_written.iter().cloned().collect::<Vec<_>>().join(", ")
                ));
            }
            for site in &s.maps {
                parts.push(format!(
                    "{} {}[{}]",
                    if site.write { "writes" } else { "reads" },
                    site.map,
                    key_pattern_label(&site.key),
                ));
            }
            for t in &s.transfers {
                parts.push(format!("transfers→{}", addr_pattern_label(&t.to)));
            }
            if s.reads_balance {
                parts.push("reads balance".into());
            }
            if s.writes_phase {
                parts.push("may advance phase".into());
            }
            let precision = if s.is_precise() { "precise" } else { "⊤" };
            out.push_str(&format!(
                "  {:<18} [{precision}] {}\n",
                m.name,
                if parts.is_empty() { "pure".to_string() } else { parts.join("; ") },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn pol_v1() -> Program {
        let src = include_str!("../../core/contracts/proof_of_location.pol");
        let program = parse(src).expect("parses");
        assert!(crate::check::check(&program).is_empty());
        program
    }

    #[test]
    fn proof_of_location_methods_are_precise() {
        let summaries = summarize(&pol_v1());
        for m in &summaries.methods {
            // closeContract is conservative by construction (it pays out
            // to the creator read from state) — every user method must
            // stay precise.
            if m.kind == MethodKind::Close {
                continue;
            }
            assert!(m.summary.is_precise(), "{} degraded: {:?}", m.name, m.summary.degradations());
        }
        let method = |name: &str| summaries.methods.iter().find(|m| m.name == name).expect("api");
        let insert = method("insert_data");
        assert!(insert.summary.writes_phase, "insert_data decrements availableSits");
        assert!(insert
            .summary
            .maps
            .iter()
            .any(|s| s.write && s.key == KeyPattern::Param("did".into())));
        let money = method("insert_money");
        assert!(!money.summary.writes_phase, "insert_money cannot falsify toVerify > 0");
        assert!(money.summary.reads_balance, "returns the balance");
        let verify = method("verify");
        assert!(verify.summary.writes_phase);
        assert!(verify
            .summary
            .transfers
            .iter()
            .all(|t| t.to == AddrPattern::Param("wallet".into())));
    }

    #[test]
    fn evm_resolution_pins_param_keyed_slots() {
        let program = pol_v1();
        let summaries = summarize(&program);
        let compiled = crate::backend::compile(&program).expect("compiles");
        let contract = Address([7u8; 20]);
        let sender = Address([9u8; 20]);
        let calldata = compiled
            .evm
            .encode_call(
                "insert_data",
                &[
                    crate::backend::AbiValue::Bytes(vec![1u8; 224]),
                    crate::backend::AbiValue::Word(42),
                ],
            )
            .expect("encodes");
        let claims = summaries.resolve_evm_call(contract, sender, 0, &calldata).expect("resolves");
        assert!(claims.is_exact(), "param-keyed method must resolve exactly: {claims:?}");
        // Distinct DIDs resolve to distinct map slots → calls commute.
        let other = compiled
            .evm
            .encode_call(
                "insert_data",
                &[
                    crate::backend::AbiValue::Bytes(vec![1u8; 224]),
                    crate::backend::AbiValue::Word(43),
                ],
            )
            .expect("encodes");
        let other_claims =
            summaries.resolve_evm_call(contract, Address([8u8; 20]), 0, &other).expect("resolves");
        // Both write availableSits/toVerify and the phase slot, so they
        // do NOT commute — but their map-slot claims must differ.
        assert_ne!(claims, other_claims);
        assert!(!claims.commutes_with(&other_claims), "both write the seat counters");

        // Unknown selectors revert after reading only the code.
        let unknown = summaries
            .resolve_evm_call(contract, sender, 0, &[0xde, 0xad, 0xbe, 0xef])
            .expect("resolves");
        assert!(unknown.writes.is_empty());
        assert_eq!(unknown.reads.len(), 1);
    }

    #[test]
    fn avm_resolution_pins_box_keys_and_rejects_malformed_args() {
        let summaries = summarize(&pol_v1());
        let sender = Address([9u8; 20]);
        let args = vec![b"insert_data".to_vec(), vec![1u8; 224], 42u64.to_be_bytes().to_vec()];
        let claims = summaries.resolve_app_call(5, sender, 0, &args).expect("resolves");
        assert!(claims.is_exact(), "{claims:?}");
        let pinned = claims.writes.iter().any(|c| {
            matches!(c, pol_ledger::KeyClaim::Exact(StateKey::AppBox(5, k))
                if k.starts_with(b"provers:"))
        });
        assert!(pinned, "box key must be pinned: {claims:?}");
        // A malformed (non-8-byte) key argument cannot be resolved.
        let bad = vec![b"insert_data".to_vec(), vec![1u8; 224], vec![1, 2, 3]];
        assert_eq!(summaries.resolve_app_call(5, sender, 0, &bad), None);
    }

    /// The shared body must instantiate the same claim shape in both key
    /// spaces: `[exact reads, exact writes, read prefixes, write prefixes]`.
    /// The documented differences do not move a count: a view exists on
    /// the EVM only (the AVM rejects its symbol after reading the
    /// program), and a ⊤ map key is one prefix on either — the contract's
    /// whole storage on the EVM, one map's boxes on the AVM.
    #[test]
    fn evm_and_avm_claims_have_the_same_shape() {
        use crate::backend::AbiValue;
        fn shape(claims: &AccessClaims) -> [usize; 4] {
            let exact =
                |cs: &[KeyClaim]| cs.iter().filter(|c| matches!(c, KeyClaim::Exact(_))).count();
            let [r, w] = [&claims.reads, &claims.writes].map(|cs| exact(cs));
            [r, w, claims.reads.len() - r, claims.writes.len() - w]
        }
        let v2 =
            parse(include_str!("../../core/contracts/proof_of_location_v2.pol")).expect("parses");
        let sender = Address([9u8; 20]);
        for program in [pol_v1(), v2] {
            let summaries = summarize(&program);
            let compiled = crate::backend::compile(&program).expect("compiles");
            for m in &summaries.methods {
                let args: Vec<AbiValue> = m
                    .layout
                    .iter()
                    .map(|(_, ty, ..)| match ty {
                        Ty::Address => AbiValue::Address(Address([3u8; 20])),
                        Ty::Bytes(cap) => AbiValue::Bytes(vec![1u8; *cap]),
                        Ty::UInt | Ty::Bool => AbiValue::Word(42),
                    })
                    .collect();
                let calldata = compiled.evm.encode_call(&m.name, &args).expect("encodes");
                let evm = summaries
                    .resolve_evm_call(Address([7u8; 20]), sender, 1, &calldata)
                    .expect("resolves");
                let app_args = match m.kind {
                    MethodKind::View => vec![m.name.as_bytes().to_vec()],
                    _ => compiled.avm.encode_call(&m.name, &args).expect("encodes"),
                };
                let avm = summaries.resolve_app_call(5, sender, 1, &app_args).expect("resolves");
                if m.kind == MethodKind::View {
                    // Program plus the payment on the AVM; the EVM adds the global.
                    assert_eq!(
                        (shape(&avm), shape(&evm)),
                        ([3, 2, 0, 0], [4, 2, 0, 0]),
                        "{}",
                        m.name
                    );
                } else {
                    assert_eq!(shape(&evm), shape(&avm), "{}: {evm:?} vs {avm:?}", m.name);
                }
            }
        }
    }

    #[test]
    fn json_rendering_is_deterministic_and_marks_precision() {
        let summaries = summarize(&pol_v1());
        let a = summaries.to_json("x.pol", "");
        let b = summaries.to_json("x.pol", "");
        assert_eq!(a, b);
        assert!(a.contains("\"precise\": true"));
        assert!(a.contains("\"key\": \"param:did\""));
    }
}
