//! The surface syntax: a Reach-like contract language parsed into the
//! [`crate::ast`] model.
//!
//! Where the paper's system keeps its one source of truth in an
//! `index.rsh` file, this front-end gives the same property: contracts
//! are written once as text, parsed, checked, verified and compiled for
//! every chain. Grammar sketch:
//!
//! ```text
//! contract counter {
//!     participant Creator { limit: uint }
//!
//!     global remaining: uint = field(limit) view;
//!     global count:     uint = 0 view;
//!
//!     phase counting while remaining > 0 invariant remaining >= 0 {
//!         api bump(by: uint) -> remaining {
//!             require(by > 0);
//!             count = count + by;
//!             remaining = remaining - 1;
//!         }
//!     }
//! }
//! ```
//!
//! Types are `uint`, `bool`, `address` and `bytes[N]`; maps are declared
//! `map name[N];` (N = value capacity in bytes); `constructor { … }`
//! gives the deployment body; APIs may declare a required payment with
//! `pay <expr>` before the `-> <return-expr>`.
//!
//! Besides the AST, the parser records a byte-offset [`SpanTable`] on
//! the returned [`Program`] so downstream diagnostics can point at the
//! offending source text.

use crate::ast::{
    Api, BinOp, Expr, GlobalDecl, GlobalInit, MapDecl, Participant, Phase, Program, Stmt, Ty,
};
use crate::diag::{NodePath, Owner, Span, SpanTable};

/// A parse failure, with 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line of the offending token.
    pub line: usize,
    /// Column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token's kind. Identifiers carry no text: the token's byte range
/// indexes the source, and a name becomes an owned `String` only where
/// the AST stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Ident,
    Number(u64),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone, Copy)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
    /// Byte offset of the token's first byte.
    start: usize,
    /// Byte offset one past the token's last byte.
    end: usize,
}

/// The two-byte punctuators, tried before the one-byte ones.
fn punct2(a: u8, b: u8) -> Option<&'static str> {
    Some(match (a, b) {
        (b'=', b'=') => "==",
        (b'!', b'=') => "!=",
        (b'<', b'=') => "<=",
        (b'>', b'=') => ">=",
        (b'&', b'&') => "&&",
        (b'|', b'|') => "||",
        (b'-', b'>') => "->",
        _ => return None,
    })
}

fn punct1(a: u8) -> Option<&'static str> {
    Some(match a {
        b'{' => "{",
        b'}' => "}",
        b'(' => "(",
        b')' => ")",
        b'[' => "[",
        b']' => "]",
        b',' => ",",
        b';' => ";",
        b':' => ":",
        b'=' => "=",
        b'<' => "<",
        b'>' => ">",
        b'+' => "+",
        b'-' => "-",
        b'!' => "!",
        b'*' => "*",
        b'/' => "/",
        _ => return None,
    })
}

/// Scans the source's bytes into tokens. Every token is ASCII, so only
/// whitespace outside ASCII is decoded; columns count characters, as
/// an editor shows them.
fn lex(source: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        // `char::is_whitespace` on the ASCII range (it includes the
        // vertical tab, which `u8::is_ascii_whitespace` does not).
        if matches!(c, b'\t' | 0x0B | 0x0C | b'\r' | b' ') {
            i += 1;
            col += 1;
            continue;
        }
        if !c.is_ascii() {
            // `i` always sits on a character boundary.
            let ch = source[i..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
            if !ch.is_whitespace() {
                return Err(ParseError {
                    line,
                    col,
                    message: format!("unexpected character {ch:?}"),
                });
            }
            i += ch.len_utf8();
            col += 1;
            continue;
        }
        // Line comments.
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let tok = if let Some(p) = bytes.get(i + 1).and_then(|&b| punct2(c, b)) {
            i += 2;
            Tok::Punct(p)
        } else if let Some(p) = punct1(c) {
            i += 1;
            Tok::Punct(p)
        } else if c.is_ascii_digit() {
            let mut value = Some(0u64);
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                if bytes[i] != b'_' {
                    let digit = u64::from(bytes[i] - b'0');
                    value = value.and_then(|v| v.checked_mul(10)?.checked_add(digit));
                }
                i += 1;
            }
            match value {
                Some(v) => Tok::Number(v),
                None => {
                    let text: String = source[start..i].chars().filter(|c| *c != '_').collect();
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("number {text:?} out of range"),
                    });
                }
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            Tok::Ident
        } else {
            return Err(ParseError {
                line,
                col,
                message: format!("unexpected character {:?}", c as char),
            });
        };
        tokens.push(Token { tok, line, col, start, end: i });
        col += i - start;
    }
    tokens.push(Token { tok: Tok::Eof, line, col, start: bytes.len(), end: bytes.len() });
    Ok(tokens)
}

struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// Names currently in parameter scope (API params or constructor
    /// fields); other identifiers resolve to globals.
    param_scope: Vec<&'s str>,
    /// Spans recorded for the program under construction.
    spans: SpanTable,
    /// End offset of the most recently consumed token.
    last_end: usize,
}

/// Renders a token the way error messages name it (`Ident("x")`,
/// `Number(7)`, `Punct("{")`, `Eof`).
struct Shown<'s>(Tok, &'s str);

impl std::fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Tok::Ident => write!(f, "Ident({:?})", self.1),
            other => write!(f, "{other:?}"),
        }
    }
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Tok {
        self.tokens[self.pos].tok
    }

    /// The next token's text (its identifier name, for `Tok::Ident`).
    fn text(&self) -> &'s str {
        let t = &self.tokens[self.pos];
        &self.source[t.start..t.end]
    }

    /// The next token as error messages name it.
    fn shown(&self) -> Shown<'s> {
        Shown(self.peek(), self.text())
    }

    /// The identifier at the cursor, if the next token is one.
    fn peek_ident(&self) -> Option<&'s str> {
        (self.peek() == Tok::Ident).then(|| self.text())
    }

    fn here(&self) -> (usize, usize) {
        (self.tokens[self.pos].line, self.tokens[self.pos].col)
    }

    /// Byte offset where the next token starts.
    fn start_offset(&self) -> usize {
        self.tokens[self.pos].start
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError { line, col, message: message.into() }
    }

    fn bump(&mut self) {
        self.last_end = self.tokens[self.pos].end;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.peek() == Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {p:?}, found {}", self.shown())))
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
        match self.peek_ident() {
            Some(name) => {
                self.bump();
                Ok(name)
            }
            None => Err(self.error(format!("expected identifier, found {}", self.shown()))),
        }
    }

    /// Expects an identifier, recording its span under `path`.
    fn expect_ident_at(&mut self, path: NodePath) -> Result<String, ParseError> {
        let start = self.start_offset();
        let name = self.expect_ident()?;
        self.spans.set(path, Span::new(start, self.last_end));
        Ok(name.to_string())
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw:?}, found {}", self.shown())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_ident() == Some(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            Tok::Number(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.error(format!("expected number, found {}", self.shown()))),
        }
    }

    // ---- grammar ----

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect_keyword("contract")?;
        let name = self.expect_ident_at(NodePath::ContractName)?;
        self.expect_punct("{")?;
        let mut creator = None;
        let mut constructor = Vec::new();
        let mut globals = Vec::new();
        let mut maps = Vec::new();
        let mut phases = Vec::new();
        // The creator's field names as the source spells them, for the
        // constructor's parameter scope.
        let mut field_names: Vec<&'s str> = Vec::new();
        while !self.eat_punct("}") {
            match self.peek_ident() {
                Some("participant") => {
                    let p = self.participant(&mut field_names)?;
                    if creator.replace(p).is_some() {
                        return Err(self.error("only one participant is supported"));
                    }
                }
                Some("global") => {
                    let idx = globals.len();
                    globals.push(self.global(idx)?);
                }
                Some("map") => {
                    let idx = maps.len();
                    maps.push(self.map_decl(idx)?);
                }
                Some("constructor") => {
                    self.bump();
                    self.param_scope.clear();
                    self.param_scope.extend(field_names.iter().copied());
                    let mut prefix = Vec::new();
                    constructor = self.block(Owner::Constructor, &mut prefix)?;
                    self.param_scope.clear();
                }
                Some("phase") => {
                    let idx = phases.len();
                    phases.push(self.phase(idx)?);
                }
                _ => return Err(self.error(format!("unexpected item {}", self.shown()))),
            }
        }
        if !matches!(self.peek(), Tok::Eof) {
            return Err(self.error("trailing input after contract body"));
        }
        let creator = creator.ok_or_else(|| self.error("contract has no participant"))?;
        let spans = std::mem::take(&mut self.spans);
        Ok(Program { name, creator, constructor, globals, maps, phases, spans })
    }

    fn participant(&mut self, names: &mut Vec<&'s str>) -> Result<Participant, ParseError> {
        self.expect_keyword("participant")?;
        let name = self.expect_ident()?.to_string();
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        names.clear();
        while !self.eat_punct("}") {
            let start = self.start_offset();
            let field = self.expect_ident()?;
            self.spans.set(NodePath::Field(fields.len()), Span::new(start, self.last_end));
            names.push(field);
            let field = field.to_string();
            self.expect_punct(":")?;
            let ty = self.ty()?;
            fields.push((field, ty));
            if !self.eat_punct(",") && !matches!(self.peek(), Tok::Punct("}")) {
                return Err(self.error("expected ',' or '}' in participant fields"));
            }
        }
        Ok(Participant { name, fields })
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let name = self.expect_ident()?;
        match name {
            "uint" => Ok(Ty::UInt),
            "bool" => Ok(Ty::Bool),
            "address" => Ok(Ty::Address),
            "bytes" => {
                self.expect_punct("[")?;
                let n = self.expect_number()? as usize;
                self.expect_punct("]")?;
                Ok(Ty::Bytes(n))
            }
            other => Err(self.error(format!("unknown type {other:?}"))),
        }
    }

    fn global(&mut self, idx: usize) -> Result<GlobalDecl, ParseError> {
        self.expect_keyword("global")?;
        let name = self.expect_ident_at(NodePath::Global(idx))?;
        self.expect_punct(":")?;
        let ty = self.ty()?;
        self.expect_punct("=")?;
        let init = match (self.peek(), self.peek_ident()) {
            (Tok::Number(v), _) => {
                self.bump();
                GlobalInit::Const(v)
            }
            (_, Some("field")) => {
                self.bump();
                self.expect_punct("(")?;
                let field = self.expect_ident()?.to_string();
                self.expect_punct(")")?;
                GlobalInit::FromField(field)
            }
            (_, Some("creator")) => {
                self.bump();
                GlobalInit::CreatorAddress
            }
            _ => return Err(self.error(format!("expected initialiser, found {}", self.shown()))),
        };
        let viewable = self.eat_keyword("view");
        self.expect_punct(";")?;
        Ok(GlobalDecl { name, ty, init, viewable })
    }

    fn map_decl(&mut self, idx: usize) -> Result<MapDecl, ParseError> {
        self.expect_keyword("map")?;
        let name = self.expect_ident_at(NodePath::Map(idx))?;
        self.expect_punct("[")?;
        let value_bytes = self.expect_number()? as usize;
        self.expect_punct("]")?;
        self.expect_punct(";")?;
        Ok(MapDecl { name, value_bytes })
    }

    fn phase(&mut self, idx: usize) -> Result<Phase, ParseError> {
        self.expect_keyword("phase")?;
        let name = self.expect_ident_at(NodePath::Phase(idx))?;
        self.expect_keyword("while")?;
        self.param_scope.clear();
        let while_cond = self.spanned_expr(NodePath::PhaseCond(idx))?;
        self.expect_keyword("invariant")?;
        let invariant = self.spanned_expr(NodePath::Invariant(idx))?;
        self.expect_punct("{")?;
        let mut apis = Vec::new();
        while !self.eat_punct("}") {
            let api_idx = apis.len();
            apis.push(self.api(idx, api_idx)?);
        }
        Ok(Phase { name, while_cond, invariant, apis })
    }

    fn api(&mut self, phase_idx: usize, api_idx: usize) -> Result<Api, ParseError> {
        self.expect_keyword("api")?;
        let name = self.expect_ident_at(NodePath::Api { phase: phase_idx, api: api_idx })?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        self.param_scope.clear();
        while !self.eat_punct(")") {
            let pname = self.expect_ident()?;
            self.expect_punct(":")?;
            let ty = self.ty()?;
            self.param_scope.push(pname);
            params.push((pname.to_string(), ty));
            if !self.eat_punct(",") && !matches!(self.peek(), Tok::Punct(")")) {
                return Err(self.error("expected ',' or ')' in parameters"));
            }
        }
        let pay = if self.eat_keyword("pay") {
            Some(self.spanned_expr(NodePath::ApiPay { phase: phase_idx, api: api_idx })?)
        } else {
            None
        };
        self.expect_punct("->")?;
        let returns = self.spanned_expr(NodePath::ApiReturns { phase: phase_idx, api: api_idx })?;
        let mut prefix = Vec::new();
        let body =
            self.block(Owner::Api { phase: phase_idx as u32, api: api_idx as u32 }, &mut prefix)?;
        self.param_scope.clear();
        Ok(Api { name, params, pay, body, returns })
    }

    fn block(&mut self, owner: Owner, prefix: &mut Vec<u32>) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            prefix.push(out.len() as u32);
            let stmt = self.stmt(owner, prefix);
            prefix.pop();
            out.push(stmt?);
        }
        Ok(out)
    }

    fn stmt(&mut self, owner: Owner, prefix: &mut Vec<u32>) -> Result<Stmt, ParseError> {
        let start = self.start_offset();
        let stmt = self.stmt_inner(owner, prefix)?;
        self.spans.set(NodePath::Stmt(owner, prefix.clone()), Span::new(start, self.last_end));
        Ok(stmt)
    }

    fn stmt_inner(&mut self, owner: Owner, prefix: &mut Vec<u32>) -> Result<Stmt, ParseError> {
        let Some(word) = self.peek_ident() else {
            return Err(self.error(format!("expected statement, found {}", self.shown())));
        };
        match word {
            "require" => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                Ok(Stmt::Require(cond))
            }
            "delete" => {
                self.bump();
                let map = self.expect_ident()?.to_string();
                self.expect_punct("[")?;
                let key = self.expr()?;
                self.expect_punct("]")?;
                self.expect_punct(";")?;
                Ok(Stmt::MapDelete { map, key })
            }
            "transfer" => {
                self.bump();
                self.expect_punct("(")?;
                let to = self.expr()?;
                self.expect_punct(",")?;
                let amount = self.expr()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                Ok(Stmt::Transfer { to, amount })
            }
            "log" => {
                self.bump();
                self.expect_punct("(")?;
                let parts = self.expr_list(")")?;
                self.expect_punct(";")?;
                Ok(Stmt::Log(parts))
            }
            "if" => {
                self.bump();
                let cond = self.expr()?;
                prefix.push(0);
                let then = self.block(owner, prefix);
                prefix.pop();
                let then = then?;
                let otherwise = if self.eat_keyword("else") {
                    prefix.push(1);
                    let otherwise = self.block(owner, prefix);
                    prefix.pop();
                    otherwise?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, otherwise })
            }
            name => {
                self.bump();
                let name = name.to_string();
                if self.eat_punct("[") {
                    // map set: name[key] = [e, …];
                    let key = self.expr()?;
                    self.expect_punct("]")?;
                    self.expect_punct("=")?;
                    self.expect_punct("[")?;
                    let value = self.expr_list("]")?;
                    self.expect_punct(";")?;
                    Ok(Stmt::MapSet { map: name, key, value })
                } else {
                    self.expect_punct("=")?;
                    let value = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::GlobalSet { name, value })
                }
            }
        }
    }

    fn expr_list(&mut self, close: &'static str) -> Result<Vec<Expr>, ParseError> {
        let mut out = Vec::new();
        while !self.eat_punct(close) {
            out.push(self.expr()?);
            if !self.eat_punct(",") && self.peek() != Tok::Punct(close) {
                return Err(self.error(format!("expected ',' or {close:?} in list")));
            }
        }
        Ok(out)
    }

    /// Parses an expression, recording its full extent under `path`.
    fn spanned_expr(&mut self, path: NodePath) -> Result<Expr, ParseError> {
        let start = self.start_offset();
        let e = self.expr()?;
        self.spans.set(path, Span::new(start, self.last_end));
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("==") => Some(BinOp::Eq),
            Tok::Punct("!=") => Some(BinOp::Ne),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">=") => Some(BinOp::Ge),
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct(">") => Some(BinOp::Gt),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.add_expr()?;
                Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            let inner = self.unary_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Number(v) => {
                self.bump();
                Ok(Expr::UInt(v))
            }
            Tok::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident => {
                let name = self.text();
                self.bump();
                match name {
                    "balance" => Ok(Expr::Balance),
                    "caller" => Ok(Expr::Caller),
                    "hash" => {
                        self.expect_punct("(")?;
                        let parts = self.expr_list(")")?;
                        Ok(Expr::Hash(parts))
                    }
                    "contains" => {
                        self.expect_punct("(")?;
                        let map = self.expect_ident()?.to_string();
                        self.expect_punct(",")?;
                        let key = self.expr()?;
                        self.expect_punct(")")?;
                        Ok(Expr::MapContains { map, key: Box::new(key) })
                    }
                    _ => {
                        if self.eat_punct("[") {
                            let key = self.expr()?;
                            self.expect_punct("]")?;
                            Ok(Expr::MapGet { map: name.to_string(), key: Box::new(key) })
                        } else if self.param_scope.contains(&name) {
                            Ok(Expr::Param(name.to_string()))
                        } else {
                            Ok(Expr::Global(name.to_string()))
                        }
                    }
                }
            }
            _ => Err(self.error(format!("expected expression, found {}", self.shown()))),
        }
    }
}

/// Parses a contract source into the AST (syntax only — run
/// [`crate::check::check`] afterwards for typing).
///
/// # Errors
///
/// [`ParseError`] with source position on the first syntax error.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let mut parser = Parser {
        source,
        tokens: lex(source)?,
        pos: 0,
        param_scope: Vec::new(),
        spans: SpanTable::default(),
        last_end: 0,
    };
    parser.program()
}

/// The char-scanning lexer the byte lexer replaced, kept verbatim as the
/// reference the differential test holds [`lex`] to.
#[cfg(test)]
mod reference {
    use super::ParseError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Tok {
        Ident(String),
        Number(u64),
        Punct(&'static str),
        Eof,
    }

    #[derive(Debug, Clone)]
    pub(super) struct Token {
        pub(super) tok: Tok,
        pub(super) line: usize,
        pub(super) col: usize,
        pub(super) start: usize,
        pub(super) end: usize,
    }

    pub(super) struct Lexer {
        pub(super) tokens: Vec<Token>,
    }

    const PUNCTS: [&str; 22] = [
        "==", "!=", "<=", ">=", "&&", "||", "->", "{", "}", "(", ")", "[", "]", ",", ";", ":", "=",
        "<", ">", "+", "-", "!",
    ];
    const PUNCTS_MULDIV: [&str; 2] = ["*", "/"];

    pub(super) fn lex(source: &str) -> Result<Lexer, ParseError> {
        let mut tokens = Vec::new();
        let bytes: Vec<char> = source.chars().collect();
        let offsets: Vec<usize> = {
            let mut v = Vec::with_capacity(bytes.len() + 1);
            let mut b = 0usize;
            for c in &bytes {
                v.push(b);
                b += c.len_utf8();
            }
            v.push(b);
            v
        };
        let mut i = 0usize;
        let mut line = 1usize;
        let mut col = 1usize;
        'outer: while i < bytes.len() {
            let c = bytes[i];
            if c == '\n' {
                line += 1;
                col = 1;
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                col += 1;
                continue;
            }
            if c == '/' && bytes.get(i + 1) == Some(&'/') {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            for p in PUNCTS {
                if p.len() == 2 {
                    let mut chars = p.chars();
                    let (a, b) = (chars.next().unwrap(), chars.next().unwrap());
                    if c == a && bytes.get(i + 1) == Some(&b) {
                        tokens.push(Token {
                            tok: Tok::Punct(p),
                            line,
                            col,
                            start: offsets[i],
                            end: offsets[i + 2],
                        });
                        i += 2;
                        col += 2;
                        continue 'outer;
                    }
                }
            }
            for p in PUNCTS.iter().chain(PUNCTS_MULDIV.iter()) {
                if p.len() == 1 && c == p.chars().next().unwrap() {
                    tokens.push(Token {
                        tok: Tok::Punct(p),
                        line,
                        col,
                        start: offsets[i],
                        end: offsets[i + 1],
                    });
                    i += 1;
                    col += 1;
                    continue 'outer;
                }
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().filter(|c| **c != '_').collect();
                let value = text.parse::<u64>().map_err(|_| ParseError {
                    line,
                    col,
                    message: format!("number {text:?} out of range"),
                })?;
                tokens.push(Token {
                    tok: Tok::Number(value),
                    line,
                    col,
                    start: offsets[start],
                    end: offsets[i],
                });
                col += i - start;
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                tokens.push(Token {
                    tok: Tok::Ident(text),
                    line,
                    col,
                    start: offsets[start],
                    end: offsets[i],
                });
                col += i - start;
                continue;
            }
            return Err(ParseError { line, col, message: format!("unexpected character {c:?}") });
        }
        tokens.push(Token {
            tok: Tok::Eof,
            line,
            col,
            start: offsets[bytes.len()],
            end: offsets[bytes.len()],
        });
        Ok(Lexer { tokens })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER_SRC: &str = r"
        contract counter {
            participant Creator { limit: uint }

            global remaining: uint = field(limit) view;
            global count:     uint = 0 view;

            phase counting while remaining > 0 invariant remaining >= 0 {
                api bump(by: uint) -> remaining {
                    require(by > 0);
                    count = count + by;
                    remaining = remaining - 1;
                }
            }
        }
    ";

    #[test]
    fn counter_source_matches_builder_ast() {
        let parsed = parse(COUNTER_SRC).unwrap();
        assert_eq!(parsed, Program::counter_example());
    }

    #[test]
    fn parsed_program_passes_pipeline() {
        let parsed = parse(COUNTER_SRC).unwrap();
        assert!(crate::check::check(&parsed).is_empty());
        assert!(crate::verify::verify(&parsed).ok());
        assert!(crate::backend::compile(&parsed).is_ok());
    }

    #[test]
    fn spans_point_at_source_text() {
        let p = parse(COUNTER_SRC).unwrap();
        let g0 = p.spans.get(&NodePath::Global(0));
        assert_eq!(&COUNTER_SRC[g0.start..g0.end], "remaining");
        let g1 = p.spans.get(&NodePath::Global(1));
        assert_eq!(&COUNTER_SRC[g1.start..g1.end], "count");
        let api = p.spans.get(&NodePath::Api { phase: 0, api: 0 });
        assert_eq!(&COUNTER_SRC[api.start..api.end], "bump");
        let owner = Owner::Api { phase: 0, api: 0 };
        let s0 = p.spans.get(&NodePath::Stmt(owner, vec![0]));
        assert_eq!(&COUNTER_SRC[s0.start..s0.end], "require(by > 0);");
        let s2 = p.spans.get(&NodePath::Stmt(owner, vec![2]));
        assert_eq!(&COUNTER_SRC[s2.start..s2.end], "remaining = remaining - 1;");
        let cond = p.spans.get(&NodePath::PhaseCond(0));
        assert_eq!(&COUNTER_SRC[cond.start..cond.end], "remaining > 0");
    }

    #[test]
    fn nested_stmt_spans_use_branch_paths() {
        let src = r"
            contract c {
                participant P { cap: uint }
                global left: uint = field(cap);
                phase run while left > 0 invariant left >= 0 {
                    api f() -> left {
                        if left > 2 {
                            left = left - 1;
                        } else {
                            log(left);
                        }
                    }
                }
            }
        ";
        let p = parse(src).unwrap();
        let owner = Owner::Api { phase: 0, api: 0 };
        let then0 = p.spans.get(&NodePath::Stmt(owner, vec![0, 0, 0]));
        assert_eq!(&src[then0.start..then0.end], "left = left - 1;");
        let else0 = p.spans.get(&NodePath::Stmt(owner, vec![0, 1, 0]));
        assert_eq!(&src[else0.start..else0.end], "log(left);");
    }

    #[test]
    fn comments_and_underscored_numbers() {
        let src = r"
            contract c {
                // the creator
                participant P { cap: uint }
                global left: uint = field(cap);
                phase run while left > 1_000 invariant left >= 0 {
                    api f() -> left { left = left - 1; }
                }
            }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.phases[0].while_cond, Expr::gt(Expr::global("left"), Expr::UInt(1000)));
        assert!(!p.globals[0].viewable);
    }

    #[test]
    fn full_feature_surface() {
        let src = r"
            contract kitchen_sink {
                participant P { data: bytes[64], owner: address, cap: uint }
                global who: address = creator;
                global left: uint = field(cap) view;
                map entries[64];
                constructor {
                    log(data);
                }
                phase fill while left > 0 invariant left >= 0 {
                    api put(data: bytes[64], key: uint) pay 10 -> left {
                        require(!contains(entries, key));
                        entries[key] = [data];
                        left = left - 1;
                        if balance >= 10 && left > 0 || key == 0 {
                            transfer(caller, 10 / 2 + 1 * 3);
                        } else {
                            log(key);
                        }
                    }
                    api drop(key: uint) -> left {
                        require(hash(key) == entries[key]);
                        delete entries[key];
                    }
                }
            }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.maps.len(), 1);
        assert_eq!(p.globals[0].init, GlobalInit::CreatorAddress);
        assert_eq!(p.constructor.len(), 1);
        let put = &p.phases[0].apis[0];
        assert_eq!(put.pay, Some(Expr::UInt(10)));
        // Precedence: 10 / 2 + 1 * 3 = (10/2) + (1*3).
        match &put.body[3] {
            Stmt::If { cond, then, .. } => {
                // (balance >= 10 && left > 0) || key == 0
                assert!(matches!(cond, Expr::Bin(BinOp::Or, _, _)));
                match &then[0] {
                    Stmt::Transfer { amount, .. } => {
                        assert_eq!(
                            *amount,
                            Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::Bin(
                                    BinOp::Div,
                                    Box::new(Expr::UInt(10)),
                                    Box::new(Expr::UInt(2))
                                )),
                                Box::new(Expr::Bin(
                                    BinOp::Mul,
                                    Box::new(Expr::UInt(1)),
                                    Box::new(Expr::UInt(3))
                                )),
                            )
                        );
                    }
                    other => panic!("expected transfer, got {other:?}"),
                }
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("contract x { participant P { } global g uint = 0; }").unwrap_err();
        assert!(err.line >= 1 && err.col > 1, "{err}");
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("contract {}").is_err());
        assert!(parse("contract c { phase p while 1 invariant 1 { } } trailing").is_err());
        assert!(parse("contract c @ {}").is_err());
    }

    #[test]
    fn name_resolution_params_shadow_globals() {
        let src = r"
            contract c {
                participant P { x: uint }
                global x: uint = 0;
                phase p while x < 5 invariant x >= 0 {
                    api f(x: uint) -> x {
                        require(x > 0); // the parameter
                    }
                }
            }
        ";
        let p = parse(src).unwrap();
        // Inside the API body, x is the parameter…
        match &p.phases[0].apis[0].body[0] {
            Stmt::Require(Expr::Bin(BinOp::Gt, lhs, _)) => {
                assert_eq!(**lhs, Expr::Param("x".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // …and the return expr (also in param scope) resolves likewise,
        // while the phase condition sees the global.
        assert_eq!(p.phases[0].apis[0].returns, Expr::Param("x".into()));
        assert_eq!(
            p.phases[0].while_cond,
            Expr::Bin(BinOp::Lt, Box::new(Expr::global("x")), Box::new(Expr::UInt(5)))
        );
    }
    /// Sources the lexer differential and the no-panic property mutate:
    /// both bundled contracts and every lint fixture.
    const CORPUS: [&str; 12] = [
        include_str!("../../core/contracts/proof_of_location.pol"),
        include_str!("../../core/contracts/proof_of_location_v2.pol"),
        include_str!("../../../examples/lint/clean_counter.pol"),
        include_str!("../../../examples/lint/dead_store.pol"),
        include_str!("../../../examples/lint/gas_bound.pol"),
        include_str!("../../../examples/lint/leaked_map.pol"),
        include_str!("../../../examples/lint/relational_guard.pol"),
        include_str!("../../../examples/lint/top_key.pol"),
        include_str!("../../../examples/lint/unguarded_subtraction.pol"),
        include_str!("../../../examples/lint/unreachable_branch.pol"),
        include_str!("../../../examples/lint/unsat_require.pol"),
        include_str!("../../../examples/lint/write_after_transfer.pol"),
    ];

    /// Insertions that stress the lexer: multi-byte characters (two of
    /// them whitespace), numbers at and past `u64::MAX`, stray slashes.
    const INSERTS: [&str; 12] = [
        "é",
        "\u{00A0}",
        "\u{3000}",
        "→",
        "🦀",
        "18446744073709551615",
        " 18446744073709551616 ",
        "99_999_999_999_999_999_999",
        "/",
        " / ",
        "//",
        "&",
    ];

    /// Applies `(kind, at, which)` mutations: kind 0 inserts
    /// `INSERTS[which]` at the character boundary nearest below `at`
    /// (a fraction of the length, in 1/1000ths); kind 1 truncates there.
    fn mutate(source: &str, edits: &[(u8, u16, usize)]) -> String {
        let mut out = source.to_string();
        for &(kind, at, which) in edits {
            let mut pos = out.len() * usize::from(at) / 1000;
            while !out.is_char_boundary(pos) {
                pos -= 1;
            }
            if kind == 0 {
                out.insert_str(pos, INSERTS[which % INSERTS.len()]);
            } else {
                out.truncate(pos);
            }
        }
        out
    }

    /// Edits that mostly keep a source parseable, so the type checker
    /// and the backends see what they must refuse or compile: kind 0
    /// inserts a multi-byte space at the next whitespace, kind 1 renames
    /// an identifier to another of the source's names, kind 2 swaps a
    /// number for 0, 1 or `u64::MAX`, kind 3 applies a [`mutate`] edit.
    fn mutate_tokens(source: &str, edits: &[(u8, u16, usize)]) -> String {
        let mut out = source.to_string();
        for &(kind, at, which) in edits {
            let Ok(tokens) = lex(&out) else { break };
            let pick = |want: fn(Tok) -> bool, n: usize| {
                let of_kind: Vec<&Token> = tokens.iter().filter(|t| want(t.tok)).collect();
                (!of_kind.is_empty()).then(|| *of_kind[n % of_kind.len()])
            };
            let at_kind = |want| pick(want, usize::from(at));
            match kind {
                0 => {
                    let pos = out.len() * usize::from(at) / 1000;
                    if let Some(ws) = out[pos..].find(char::is_whitespace) {
                        out.insert(pos + ws, if which % 2 == 0 { '\u{00A0}' } else { '\u{3000}' });
                    }
                }
                1 => {
                    let is_ident = |t| t == Tok::Ident;
                    if let (Some(target), Some(name)) = (at_kind(is_ident), pick(is_ident, which)) {
                        let name = out[name.start..name.end].to_string();
                        out.replace_range(target.start..target.end, &name);
                    }
                }
                2 => {
                    if let Some(target) = at_kind(|t| matches!(t, Tok::Number(_))) {
                        let number = ["0", "1", "18446744073709551615"][which % 3];
                        out.replace_range(target.start..target.end, number);
                    }
                }
                _ => out = mutate(&out, &[((which % 2) as u8, at, which)]),
            }
        }
        out
    }

    /// A token as both lexers report it: kind, line, column, byte span.
    type Lexed = (reference::Tok, usize, usize, usize, usize);

    /// The byte lexer's output in the reference lexer's terms.
    fn as_reference(source: &str) -> Result<Vec<Lexed>, ParseError> {
        Ok(lex(source)?
            .into_iter()
            .map(|t| {
                let tok = match t.tok {
                    Tok::Ident => reference::Tok::Ident(source[t.start..t.end].to_string()),
                    Tok::Number(v) => reference::Tok::Number(v),
                    Tok::Punct(p) => reference::Tok::Punct(p),
                    Tok::Eof => reference::Tok::Eof,
                };
                (tok, t.line, t.col, t.start, t.end)
            })
            .collect())
    }

    fn reference_tokens(source: &str) -> Result<Vec<Lexed>, ParseError> {
        Ok(reference::lex(source)?
            .tokens
            .into_iter()
            .map(|t| (t.tok, t.line, t.col, t.start, t.end))
            .collect())
    }

    #[test]
    fn byte_lexer_matches_reference_on_the_corpus() {
        for source in CORPUS {
            assert_eq!(as_reference(source), reference_tokens(source));
        }
        for edge in ["", "\u{0B}x", "a\u{85}b", "1_", "x\r\ny", "é", "// only a comment", "&|"] {
            assert_eq!(as_reference(edge), reference_tokens(edge), "{edge:?}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn byte_lexer_matches_reference_on_mutated_sources(
            which in 0usize..CORPUS.len(),
            edits in proptest::collection::vec((0u8..2, 0u16..1000, 0usize..INSERTS.len()), 1..5),
        ) {
            let source = mutate(CORPUS[which], &edits);
            prop_assert_eq!(as_reference(&source), reference_tokens(&source), "{:?}", edits);
        }

        #[test]
        fn mutated_sources_never_panic_the_pipeline(
            which in 0usize..CORPUS.len(),
            edits in proptest::collection::vec((0u8..4, 0u16..1000, 0usize..64), 1..3),
        ) {
            let source = mutate_tokens(CORPUS[which], &edits);
            if let Ok(program) = parse(&source) {
                if crate::check::check(&program).is_empty() {
                    let _ = crate::backend::compile(&program);
                }
            }
        }
    }
}
