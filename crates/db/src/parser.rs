//! A small concrete syntax for FOL(R) queries.
//!
//! Grammar (precedence from weakest to strongest binding):
//!
//! ```text
//! query   := or ( "=>" or )*                    -- implication, right-associative
//! or      := and ( "|" and )*
//! and     := unary ( "&" unary )*
//! unary   := "!" unary
//!          | ("exists" | "forall") var ("," var)* "." unary
//!          | primary
//! primary := "true" | "false" | "(" query ")"
//!          | IDENT "(" term ("," term)* ")"     -- relational atom
//!          | IDENT "(" ")"  | IDENT             -- proposition
//!          | term "=" term                      -- equality
//! term    := IDENT                              -- variable
//!          | "$" NUMBER                         -- constant data value  (e.g. $3 is e₃)
//! ```
//!
//! Examples: `exists u. R(u) & !Q(u)`, `p & forall u. C1(u) => u = $1`.
//!
//! A parsed query may nest at most 128 levels. Each `!`, quantified variable, `=>` and
//! parenthesised sub-query adds one level, as does each `&`/`|` operand after the first;
//! the left side of `a => b` sits two levels down, since it parses to `!a | b`.
//! Evaluation, printing and dropping a query all recurse over its tree, so deeper text —
//! such as an invariant sent by a client — is rejected with [`DbError::Parse`] before it
//! can exhaust a thread's stack.

use crate::error::DbError;
use crate::query::Query;
use crate::schema::RelName;
use crate::term::{Term, Var};
use crate::value::DataValue;

/// How many levels a parsed query may nest (see the module docs).
const MAX_DEPTH: usize = 128;

/// Parse a query from its concrete syntax.
pub fn parse_query(input: &str) -> Result<Query, DbError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let (q, _) = parser.parse_implies()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(q)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Const(u64),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Amp,
    Pipe,
    Eq,
    Implies,
    True,
    False,
    Exists,
    Forall,
}

struct SpannedTok {
    tok: Tok,
    offset: usize,
}

fn tokenize(input: &str) -> Result<Vec<SpannedTok>, DbError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(SpannedTok {
                    tok: Tok::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                tokens.push(SpannedTok {
                    tok: Tok::RParen,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                tokens.push(SpannedTok {
                    tok: Tok::Comma,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                tokens.push(SpannedTok {
                    tok: Tok::Dot,
                    offset: i,
                });
                i += 1;
            }
            '!' => {
                tokens.push(SpannedTok {
                    tok: Tok::Bang,
                    offset: i,
                });
                i += 1;
            }
            '&' => {
                tokens.push(SpannedTok {
                    tok: Tok::Amp,
                    offset: i,
                });
                i += 1;
            }
            '|' => {
                tokens.push(SpannedTok {
                    tok: Tok::Pipe,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(SpannedTok {
                        tok: Tok::Implies,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedTok {
                        tok: Tok::Eq,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(DbError::Parse {
                        position: i,
                        message: "expected digits after '$'".into(),
                    });
                }
                let n: u64 = input[start..j].parse().map_err(|_| DbError::Parse {
                    position: i,
                    message: "constant out of range".into(),
                })?;
                tokens.push(SpannedTok {
                    tok: Tok::Const(n),
                    offset: i,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &input[start..j];
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "exists" => Tok::Exists,
                    "forall" => Tok::Forall,
                    _ => Tok::Ident(word.to_owned()),
                };
                tokens.push(SpannedTok { tok, offset: start });
                i = j;
            }
            _ => {
                return Err(DbError::Parse {
                    position: i,
                    message: format!("unexpected character '{c}'"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    /// Sub-queries the parser is inside of, one per recursive [`Parser::descend`].
    open: usize,
}

/// A parsed (sub-)query and how many levels it nests.
type Parsed = Result<(Query, usize), DbError>;

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: &str) -> DbError {
        DbError::Parse {
            position: self
                .tokens
                .get(self.pos.min(self.tokens.len().saturating_sub(1)))
                .map(|t| t.offset)
                .unwrap_or(0),
            message: message.to_owned(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), DbError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            _ => Err(self.error(&format!("expected {what}"))),
        }
    }

    /// `depth`, if a query may nest that deep.
    fn within_bound(&self, depth: usize) -> Result<usize, DbError> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(depth)
    }

    /// Parse a nested sub-query with `parse`. Each sub-query the parser is inside of adds
    /// at least one level to the query it returns, so refusing to descend past
    /// [`MAX_DEPTH`] rejects nothing `within_bound` would accept — and stops the recursion
    /// before it can exhaust the stack.
    fn descend(&mut self, parse: fn(&mut Parser) -> Parsed) -> Parsed {
        self.within_bound(self.open + 1)?;
        self.open += 1;
        let parsed = parse(self);
        self.open -= 1;
        parsed
    }

    fn parse_implies(&mut self) -> Parsed {
        let (lhs, lhs_depth) = self.parse_or()?;
        if self.peek() != Some(&Tok::Implies) {
            return Ok((lhs, lhs_depth));
        }
        self.next();
        let (rhs, rhs_depth) = self.descend(Parser::parse_implies)?;
        // `lhs => rhs` is `!lhs | rhs`
        let depth = self.within_bound((lhs_depth + 2).max(rhs_depth + 1))?;
        Ok((lhs.implies(rhs), depth))
    }

    fn parse_or(&mut self) -> Parsed {
        let (mut q, mut depth) = self.parse_and()?;
        while self.peek() == Some(&Tok::Pipe) {
            self.next();
            let (rhs, rhs_depth) = self.parse_and()?;
            depth = self.within_bound(depth.max(rhs_depth) + 1)?;
            q = q.or(rhs);
        }
        Ok((q, depth))
    }

    fn parse_and(&mut self) -> Parsed {
        let (mut q, mut depth) = self.parse_unary()?;
        while self.peek() == Some(&Tok::Amp) {
            self.next();
            let (rhs, rhs_depth) = self.parse_unary()?;
            depth = self.within_bound(depth.max(rhs_depth) + 1)?;
            q = q.and(rhs);
        }
        Ok((q, depth))
    }

    fn parse_unary(&mut self) -> Parsed {
        match self.peek() {
            Some(Tok::Bang) => {
                self.next();
                let (q, depth) = self.descend(Parser::parse_unary)?;
                Ok((q.not(), self.within_bound(depth + 1)?))
            }
            Some(Tok::Exists) | Some(Tok::Forall) => {
                let is_exists = self.peek() == Some(&Tok::Exists);
                self.next();
                let mut vars = vec![self.parse_var()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.next();
                    vars.push(self.parse_var()?);
                }
                self.expect(Tok::Dot, "'.' after quantified variables")?;
                let (body, depth) = self.descend(Parser::parse_unary)?;
                // one level per variable, checked before the chain is built
                let depth = self.within_bound(depth + vars.len())?;
                let q = if is_exists {
                    Query::exists_many(vars, body)
                } else {
                    Query::forall_many(vars, body)
                };
                Ok((q, depth))
            }
            Some(Tok::LParen) => {
                self.next();
                let (q, depth) = self.descend(Parser::parse_implies)?;
                self.expect(Tok::RParen, "')'")?;
                Ok((q, self.within_bound(depth + 1)?))
            }
            _ => Ok((self.parse_primary()?, 0)),
        }
    }

    fn parse_var(&mut self) -> Result<Var, DbError> {
        match self.next() {
            Some(Tok::Ident(name)) => Ok(Var::new(&name)),
            _ => Err(self.error("expected a variable name")),
        }
    }

    /// A primary other than a parenthesised sub-query (see [`Parser::parse_unary`]).
    fn parse_primary(&mut self) -> Result<Query, DbError> {
        match self.next() {
            Some(Tok::True) => Ok(Query::True),
            Some(Tok::False) => Ok(Query::false_()),
            Some(Tok::Const(n)) => {
                // a constant can only start an equality
                self.expect(Tok::Eq, "'=' after constant")?;
                let rhs = self.parse_term()?;
                Ok(Query::Eq(Term::Value(DataValue(n)), rhs))
            }
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::LParen) => {
                    self.next();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        args.push(self.parse_term()?);
                        while self.peek() == Some(&Tok::Comma) {
                            self.next();
                            args.push(self.parse_term()?);
                        }
                    }
                    self.expect(Tok::RParen, "')'")?;
                    Ok(Query::Atom(RelName::new(&name), args))
                }
                Some(Tok::Eq) => {
                    self.next();
                    let rhs = self.parse_term()?;
                    Ok(Query::Eq(Term::Var(Var::new(&name)), rhs))
                }
                _ => Ok(Query::prop(RelName::new(&name))),
            },
            _ => Err(self.error("expected a query")),
        }
    }

    fn parse_term(&mut self) -> Result<Term, DbError> {
        match self.next() {
            Some(Tok::Ident(name)) => Ok(Term::Var(Var::new(&name))),
            Some(Tok::Const(n)) => Ok(Term::Value(DataValue(n))),
            _ => Err(self.error("expected a term (variable or $constant)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }
    fn v(name: &str) -> Var {
        Var::new(name)
    }

    #[test]
    fn parse_atoms_and_propositions() {
        assert_eq!(parse_query("p").unwrap(), Query::prop(r("p")));
        assert_eq!(parse_query("p()").unwrap(), Query::prop(r("p")));
        assert_eq!(
            parse_query("R(u, w)").unwrap(),
            Query::atom(r("R"), [v("u"), v("w")])
        );
    }

    #[test]
    fn parse_connectives_with_precedence() {
        // & binds tighter than |, which binds tighter than =>
        let q = parse_query("p & q | s").unwrap();
        assert_eq!(
            q,
            Query::prop(r("p"))
                .and(Query::prop(r("q")))
                .or(Query::prop(r("s")))
        );

        let q = parse_query("p => q | s").unwrap();
        assert_eq!(
            q,
            Query::prop(r("p")).implies(Query::prop(r("q")).or(Query::prop(r("s"))))
        );
    }

    #[test]
    fn parse_quantifiers() {
        let q = parse_query("exists u. R(u) & !Q(u)").unwrap();
        // quantifier body is a unary, so `exists u.` scopes over `R(u)` only unless parenthesised
        assert_eq!(
            q,
            Query::exists(v("u"), Query::atom(r("R"), [v("u")]))
                .and(Query::atom(r("Q"), [v("u")]).not())
        );

        let q = parse_query("exists u. (R(u) & !Q(u))").unwrap();
        assert_eq!(
            q,
            Query::exists(
                v("u"),
                Query::atom(r("R"), [v("u")]).and(Query::atom(r("Q"), [v("u")]).not())
            )
        );

        let q = parse_query("forall u, w. (S(u, w))").unwrap();
        assert_eq!(
            q,
            Query::forall_many([v("u"), v("w")], Query::atom(r("S"), [v("u"), v("w")]))
        );
    }

    #[test]
    fn parse_equality_and_constants() {
        assert_eq!(parse_query("u = w").unwrap(), Query::eq(v("u"), v("w")));
        assert_eq!(
            parse_query("u = $3").unwrap(),
            Query::eq(v("u"), DataValue::e(3))
        );
        assert_eq!(
            parse_query("$2 = u").unwrap(),
            Query::eq(DataValue::e(2), v("u"))
        );
    }

    #[test]
    fn parse_true_false() {
        assert_eq!(parse_query("true").unwrap(), Query::True);
        assert_eq!(parse_query("false").unwrap(), Query::false_());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("R(u").is_err());
        assert!(parse_query("exists . R(u)").is_err());
        assert!(parse_query("R(u) extra junk +").is_err());
        assert!(parse_query("$x").is_err());
        assert!(parse_query("").is_err());

        // nesting far past the bound is an error, not a stack overflow
        let too_deep = [
            format!("{}true{}", "(".repeat(5_000), ")".repeat(5_000)),
            format!("{}p", "!".repeat(10_000)),
            format!("{}true", "exists u. ".repeat(10_000)),
            vec!["p"; 100_000].join(" & "),
        ];
        for input in &too_deep {
            match parse_query(input) {
                Err(DbError::Parse { message, .. }) => {
                    assert!(message.contains("deeper than"), "{message}")
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_depth_is_bounded_exactly() {
        let nots = |n: usize| format!("{}p", "!".repeat(n));
        let parens = |n: usize| format!("{}p{}", "(".repeat(n), ")".repeat(n));
        let chain = |n: usize, op: &str| vec!["p"; n + 1].join(op);
        let implications = |n: usize| format!("{}p", "p => ".repeat(n));
        let quantified = |n: usize| {
            let vars: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
            format!("exists {}. p", vars.join(", "))
        };
        // at the bound every shape parses; one level more is rejected
        assert!(parse_query(&nots(MAX_DEPTH)).is_ok());
        assert!(parse_query(&nots(MAX_DEPTH + 1)).is_err());
        assert!(parse_query(&parens(MAX_DEPTH)).is_ok());
        assert!(parse_query(&parens(MAX_DEPTH + 1)).is_err());
        for op in [" & ", " | "] {
            assert!(parse_query(&chain(MAX_DEPTH, op)).is_ok());
            assert!(parse_query(&chain(MAX_DEPTH + 1, op)).is_err());
        }
        assert!(parse_query(&quantified(MAX_DEPTH)).is_ok());
        assert!(parse_query(&quantified(MAX_DEPTH + 1)).is_err());
        // `a => b` nests `a` two levels down (`!a | b`) and `b` one
        assert!(parse_query(&implications(MAX_DEPTH - 1)).is_ok());
        assert!(parse_query(&implications(MAX_DEPTH)).is_err());
        // a chain counts from its deepest operand
        let deep_first = format!("{} & p", nots(MAX_DEPTH));
        assert!(parse_query(&deep_first).is_err());
    }

    #[test]
    fn round_trip_display_parse() {
        let inputs = [
            "exists u. (R(u) & !(Q(u)))",
            "(p & q)",
            "forall u. (C1(u) => u = $1)",
        ];
        for input in inputs {
            let q1 = parse_query(input).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "display/parse round trip for {input}");
        }
    }
}
