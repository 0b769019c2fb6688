//! Recursive-descent parser for the concrete syntax.
//!
//! ```text
//! query  := "select" output "from" fromitem ("," fromitem)* ("where" conj)?
//! output := "struct" "(" (A "=" path),* ")" | path
//! fromitem := path IDENT | "let" IDENT ":=" path
//! conj   := path "=" path ("and" path "=" path)*
//! path   := primary ( "." IDENT | "[" path "]" | "{" path "}" )*
//! primary:= "dom" "(" path ")" | "(" path ")" | IDENT | literal
//!
//! dep    := "forall" binder+ ("where" conj)? "->"
//!           ( "exists" binder+ ("where" conj)? | conj )
//! binder := "(" IDENT "in" path ")"
//!
//! schema := ( "class" IDENT "{" (IDENT ":" type),* "}"
//!           | "let" IDENT ":" type ";" )*
//! type   := "Set" "<" type ">" | "Dict" "<" type "," type ">"
//!         | "Oid" "<" IDENT ">" | "Struct" "{" (IDENT ":" type),* "}"
//!         | "Int" | "String" | "Bool"
//! ```
//!
//! Bare identifiers denote bound variables when in scope and schema roots
//! otherwise; the parser performs that resolution with the dependent-
//! binding scoping rules (a binding path sees only earlier variables).

mod lexer;

pub use lexer::{lex, LexError, Spanned, Tok};

use std::collections::BTreeSet;
use std::fmt;

use crate::constraint::Dependency;
use crate::path::{Constant, Path};
use crate::query::{Binding, Equality, Output, Query};
use crate::schema::{ClassDecl, Schema};
use crate::types::Type;

/// A parse error with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            offset: e.offset,
            message: e.message,
        }
    }
}

/// The deepest nesting the parser accepts: recursive descent into
/// parenthesized, `dom(…)` and lookup sub-paths and into type arguments,
/// plus the postfix steps of one path (each makes the path one level
/// deeper). Every consumer of a parsed path recurses over it, so the
/// limit keeps both the parser and them far from the end of the stack:
/// hostile input is a [`ParseError`], never a stack overflow.
pub const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Current nesting, checked against [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Enters one more nesting level.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            offset: self.offset(),
            message,
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    // ---- paths (unresolved: all bare idents parse as variables) ----

    fn path(&mut self) -> Result<Path, ParseError> {
        let depth = self.depth;
        let p = self.path_steps();
        self.depth = depth;
        p
    }

    fn path_steps(&mut self) -> Result<Path, ParseError> {
        let mut p = self.primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.nest()?;
                    self.bump();
                    let field = self.eat_ident()?;
                    p = p.field(field);
                }
                Tok::LBracket => {
                    self.nest()?;
                    self.bump();
                    let k = self.path()?;
                    self.eat(&Tok::RBracket)?;
                    p = p.get(k);
                }
                Tok::LBrace => {
                    self.nest()?;
                    self.bump();
                    let k = self.path()?;
                    self.eat(&Tok::RBrace)?;
                    p = p.get_or_empty(k);
                }
                _ => return Ok(p),
            }
        }
    }

    fn primary(&mut self) -> Result<Path, ParseError> {
        match self.peek().clone() {
            Tok::Dom => {
                self.nest()?;
                self.bump();
                self.eat(&Tok::LParen)?;
                let p = self.path()?;
                self.eat(&Tok::RParen)?;
                Ok(p.dom())
            }
            Tok::LParen => {
                self.nest()?;
                self.bump();
                let p = self.path()?;
                self.eat(&Tok::RParen)?;
                Ok(p)
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Path::Var(name))
            }
            Tok::Int(n) => {
                self.bump();
                Ok(Path::Const(Constant::Int(n)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Path::Const(Constant::Str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(Path::Const(Constant::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Path::Const(Constant::Bool(false)))
            }
            other => Err(self.err(format!("expected a path, found {other}"))),
        }
    }

    fn conj(&mut self) -> Result<Vec<Equality>, ParseError> {
        let mut out = Vec::new();
        loop {
            let l = self.path()?;
            self.eat(&Tok::Eq)?;
            let r = self.path()?;
            out.push(Equality(l, r));
            if matches!(self.peek(), Tok::And) {
                self.bump();
            } else {
                return Ok(out);
            }
        }
    }

    // ---- queries ----

    fn query(&mut self) -> Result<Query, ParseError> {
        self.eat(&Tok::Select)?;
        let output = if matches!(self.peek(), Tok::Struct) {
            self.bump();
            self.eat(&Tok::LParen)?;
            let mut fields = Vec::new();
            if !matches!(self.peek(), Tok::RParen) {
                loop {
                    let name = self.eat_ident()?;
                    self.eat(&Tok::Eq)?;
                    fields.push((name, self.path()?));
                    if matches!(self.peek(), Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.eat(&Tok::RParen)?;
            Output::record(fields)
        } else {
            Output::Path(self.path()?)
        };

        let mut from = Vec::new();
        if matches!(self.peek(), Tok::From) {
            self.bump();
            loop {
                if matches!(self.peek(), Tok::Let) {
                    self.bump();
                    let var = self.eat_ident()?;
                    self.eat(&Tok::Assign)?;
                    let src = self.path()?;
                    from.push(Binding::let_(var, src));
                } else {
                    let src = self.path()?;
                    let var = self.eat_ident()?;
                    from.push(Binding::iter(var, src));
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }

        let where_ = if matches!(self.peek(), Tok::Where) {
            self.bump();
            self.conj()?
        } else {
            Vec::new()
        };

        Ok(resolve_query(Query::new(output, from, where_)))
    }

    // ---- dependencies ----

    fn binders(&mut self) -> Result<Vec<Binding>, ParseError> {
        let mut out = Vec::new();
        while matches!(self.peek(), Tok::LParen) {
            self.bump();
            let var = self.eat_ident()?;
            self.eat(&Tok::In)?;
            let src = self.path()?;
            self.eat(&Tok::RParen)?;
            out.push(Binding::iter(var, src));
        }
        if out.is_empty() {
            return Err(self.err("expected at least one `(x in P)` binder".into()));
        }
        Ok(out)
    }

    fn dependency(&mut self, name: &str) -> Result<Dependency, ParseError> {
        self.eat(&Tok::Forall)?;
        let forall = self.binders()?;
        let premise = if matches!(self.peek(), Tok::Where) {
            self.bump();
            self.conj()?
        } else {
            Vec::new()
        };
        self.eat(&Tok::Arrow)?;
        let (exists, conclusion) = if matches!(self.peek(), Tok::Exists) {
            self.bump();
            let exists = self.binders()?;
            let conclusion = if matches!(self.peek(), Tok::Where) {
                self.bump();
                self.conj()?
            } else {
                Vec::new()
            };
            (exists, conclusion)
        } else {
            (Vec::new(), self.conj()?)
        };
        Ok(resolve_dependency(Dependency::new(
            name, forall, premise, exists, conclusion,
        )))
    }

    // ---- schemas ----

    fn ty(&mut self) -> Result<Type, ParseError> {
        self.nest()?;
        let t = self.ty_args();
        self.depth -= 1;
        t
    }

    fn ty_args(&mut self) -> Result<Type, ParseError> {
        let name = self.eat_ident()?;
        match name.as_str() {
            "Int" => Ok(Type::Int),
            "String" => Ok(Type::Str),
            "Bool" => Ok(Type::Bool),
            "Set" => {
                self.eat(&Tok::Lt)?;
                let t = self.ty()?;
                self.eat(&Tok::Gt)?;
                Ok(Type::set(t))
            }
            "Dict" => {
                self.eat(&Tok::Lt)?;
                let k = self.ty()?;
                self.eat(&Tok::Comma)?;
                let v = self.ty()?;
                self.eat(&Tok::Gt)?;
                Ok(Type::dict(k, v))
            }
            "Oid" => {
                self.eat(&Tok::Lt)?;
                let class = self.eat_ident()?;
                self.eat(&Tok::Gt)?;
                Ok(Type::Oid(class))
            }
            "Struct" => {
                self.eat(&Tok::LBrace)?;
                let fields = self.field_list()?;
                self.eat(&Tok::RBrace)?;
                Ok(Type::record(fields))
            }
            other => Err(self.err(format!("unknown type constructor `{other}`"))),
        }
    }

    fn field_list(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        let mut fields = Vec::new();
        if matches!(self.peek(), Tok::RBrace) {
            return Ok(fields);
        }
        loop {
            let name = self.eat_ident()?;
            self.eat(&Tok::Colon)?;
            fields.push((name, self.ty()?));
            if matches!(self.peek(), Tok::Comma) {
                self.bump();
            } else {
                return Ok(fields);
            }
        }
    }

    fn schema(&mut self) -> Result<Schema, ParseError> {
        let mut s = Schema::new();
        while !self.at_eof() {
            match self.peek() {
                Tok::Class => {
                    self.bump();
                    let name = self.eat_ident()?;
                    self.eat(&Tok::LBrace)?;
                    let fields = self.field_list()?;
                    self.eat(&Tok::RBrace)?;
                    s.declare_class(ClassDecl::new(name, fields));
                }
                Tok::Let => {
                    self.bump();
                    let name = self.eat_ident()?;
                    self.eat(&Tok::Colon)?;
                    let ty = self.ty()?;
                    self.eat(&Tok::Semi)?;
                    s.add_root(name, ty);
                }
                other => {
                    return Err(self.err(format!(
                        "expected `class` or `let` declaration, found {other}"
                    )))
                }
            }
        }
        Ok(s)
    }
}

/// Replaces `Var(n)` with `Root(n)` for names not in `bound`.
fn resolve_path(p: &Path, bound: &BTreeSet<String>) -> Path {
    match p {
        Path::Var(n) => {
            if bound.contains(n) {
                p.clone()
            } else {
                Path::Root(n.clone())
            }
        }
        Path::Const(_) | Path::Root(_) => p.clone(),
        Path::Field(q, a) => Path::Field(Box::new(resolve_path(q, bound)), a.clone()),
        Path::Dom(q) => Path::Dom(Box::new(resolve_path(q, bound))),
        Path::Get(q, k) => Path::Get(
            Box::new(resolve_path(q, bound)),
            Box::new(resolve_path(k, bound)),
        ),
        Path::GetOrEmpty(q, k) => Path::GetOrEmpty(
            Box::new(resolve_path(q, bound)),
            Box::new(resolve_path(k, bound)),
        ),
    }
}

fn resolve_bindings(bindings: &mut [Binding], bound: &mut BTreeSet<String>) {
    for b in bindings {
        b.src = resolve_path(&b.src, bound);
        bound.insert(b.var.clone());
    }
}

fn resolve_query(mut q: Query) -> Query {
    let mut bound = BTreeSet::new();
    resolve_bindings(&mut q.from, &mut bound);
    q.where_ = q
        .where_
        .iter()
        .map(|Equality(l, r)| Equality(resolve_path(l, &bound), resolve_path(r, &bound)))
        .collect();
    q.output = q.output.map_paths(&mut |p| resolve_path(p, &bound));
    q
}

fn resolve_dependency(mut d: Dependency) -> Dependency {
    let mut bound = BTreeSet::new();
    resolve_bindings(&mut d.forall, &mut bound);
    d.premise = d
        .premise
        .iter()
        .map(|Equality(l, r)| Equality(resolve_path(l, &bound), resolve_path(r, &bound)))
        .collect();
    resolve_bindings(&mut d.exists, &mut bound);
    d.conclusion = d
        .conclusion
        .iter()
        .map(|Equality(l, r)| Equality(resolve_path(l, &bound), resolve_path(r, &bound)))
        .collect();
    d
}

/// Parses a standalone path; every bare identifier resolves to a schema
/// root.
pub fn parse_path(src: &str) -> Result<Path, ParseError> {
    let mut p = Parser::new(src)?;
    let path = p.path()?;
    if !p.at_eof() {
        return Err(p.err(format!("trailing input: {}", p.peek())));
    }
    Ok(resolve_path(&path, &BTreeSet::new()))
}

/// Parses a query or plan.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    if !p.at_eof() {
        return Err(p.err(format!("trailing input: {}", p.peek())));
    }
    Ok(q)
}

/// Parses a dependency, attaching `name` for traces.
pub fn parse_dependency(name: &str, src: &str) -> Result<Dependency, ParseError> {
    let mut p = Parser::new(src)?;
    let d = p.dependency(name)?;
    if !p.at_eof() {
        return Err(p.err(format!("trailing input: {}", p.peek())));
    }
    Ok(d)
}

/// Parses a schema (a sequence of `class` and `let` declarations).
pub fn parse_schema(src: &str) -> Result<Schema, ParseError> {
    let mut p = Parser::new(src)?;
    p.schema()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::BindKind;

    #[test]
    fn parse_paper_query() {
        let q = parse_query(
            r#"select struct(PN = s, PB = p.Budg, DN = d.DName)
               from depts d, d.DProjs s, Proj p
               where s = p.PName and p.CustName = "CitiBank""#,
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.from[0].src, Path::root("depts"));
        // `d` is bound by the time `d.DProjs` is parsed.
        assert_eq!(q.from[1].src, Path::var("d").field("DProjs"));
        assert_eq!(q.where_.len(), 2);
        assert_eq!(
            q.where_[1],
            Equality(Path::var("p").field("CustName"), Path::str("CitiBank"))
        );
        assert!(q.check_scopes().is_ok());
    }

    #[test]
    fn round_trip_display_parse() {
        let q = parse_query(
            r#"select struct(A = r.A, B = s.B)
               from V v, R r, S s
               where v.A = r.A and r.B = s.B"#,
        )
        .unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parse_plan_constructs() {
        let plan = parse_query(
            r#"select struct(A = rr.A, C = ss.C)
               from V v, let rr := IR[v.A], IS{rr.B} ss"#,
        )
        .unwrap();
        assert_eq!(plan.from[1].kind, BindKind::Let);
        assert_eq!(
            plan.from[1].src,
            Path::root("IR").get(Path::var("v").field("A"))
        );
        assert_eq!(
            plan.from[2].src,
            Path::root("IS").get_or_empty(Path::var("rr").field("B"))
        );
        assert!(!plan.is_plain_pc());
        let reparsed = parse_query(&plan.to_string()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_dom_and_lookup() {
        let q = parse_query("select struct(C = r.C) from dom(SA) x, SA[x] r where x = 5").unwrap();
        assert_eq!(q.from[0].src, Path::root("SA").dom());
        assert_eq!(q.from[1].src, Path::root("SA").get(Path::var("x")));
    }

    #[test]
    fn parse_tgd_dependency() {
        let d = parse_dependency(
            "RIC1",
            "forall (d in depts) (s in d.DProjs) -> exists (p in Proj) where s = p.PName",
        )
        .unwrap();
        assert_eq!(d.forall.len(), 2);
        assert_eq!(d.exists.len(), 1);
        assert!(!d.is_egd());
        assert!(d.check_scopes().is_ok());
        assert_eq!(d.forall[1].src, Path::var("d").field("DProjs"));
    }

    #[test]
    fn parse_egd_dependency() {
        let d = parse_dependency(
            "KEY2",
            "forall (p in Proj) (q in Proj) where p.PName = q.PName -> p = q",
        )
        .unwrap();
        assert!(d.is_egd());
        assert_eq!(d.conclusion, vec![Equality(Path::var("p"), Path::var("q"))]);
    }

    #[test]
    fn dependency_round_trip_via_display() {
        let src = "forall (p in Proj) -> exists (i in dom(I)) where i = p.PName and I[i] = p";
        let d = parse_dependency("PI1", src).unwrap();
        // Display prints "[PI1] forall …"; strip the name prefix and reparse.
        let text = d.to_string();
        let stripped = text.strip_prefix("[PI1] ").unwrap();
        let d2 = parse_dependency("PI1", stripped).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn parse_schema_decls() {
        let s = parse_schema(
            r#"
            class Dept { DName: String, DProjs: Set<String>, MgrName: String }
            let depts : Set<Oid<Dept>>;
            let Proj : Set<Struct{PName: String, CustName: String, PDept: String, Budg: Int}>;
            let I : Dict<String, Struct{PName: String, CustName: String, PDept: String, Budg: Int}>;
            let SI : Dict<String, Set<Struct{PName: String, CustName: String, PDept: String, Budg: Int}>>;
            "#,
        )
        .unwrap();
        assert_eq!(s.classes.len(), 1);
        assert_eq!(s.roots.len(), 4);
        assert_eq!(s.root("depts"), Some(&Type::set(Type::Oid("Dept".into()))));
        assert!(matches!(s.root("SI"), Some(Type::Dict(_, _))));
    }

    #[test]
    fn error_reporting() {
        assert!(parse_query("select").is_err());
        assert!(parse_query("select x from").is_err());
        assert!(parse_dependency("d", "forall -> x = y").is_err());
        assert!(parse_schema("let x Int;").is_err());
        let e = parse_query("select x where x = ").unwrap_err();
        assert!(e.message.contains("expected a path"));
    }

    /// `select struct(A = <path>) from R x` with `path` nested `n` deep.
    fn nested_query(open: &str, n: usize, inner: &str, close: &str) -> String {
        format!(
            "select struct(A = {}{inner}{}) from R x",
            open.repeat(n),
            close.repeat(n)
        )
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = nested_query("(", 30_000, "x", ")");
        let e = parse_query(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let e = parse_query(&nested_query("dom(", 30_000, "x", ")")).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let e = parse_query(&format!("select x{} from R x", ".A".repeat(100_000))).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let e = parse_path(&format!("{}M{}", "I[".repeat(30_000), "]".repeat(30_000))).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let ty = format!(
            "let r : {}Int{};",
            "Set<".repeat(30_000),
            ">".repeat(30_000)
        );
        assert!(parse_schema(&ty).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn nesting_just_under_the_limit_parses() {
        // `x.A` inside n parentheses nests n + 1 levels.
        let q = parse_query(&nested_query("(", MAX_NESTING - 1, "x.A", ")")).unwrap();
        assert_eq!(q.output.paths()[0].1, &Path::var("x").field("A"));
        assert!(parse_query(&nested_query("(", MAX_NESTING, "x.A", ")")).is_err());
        let ty = format!(
            "let r : {}Int{};",
            "Set<".repeat(MAX_NESTING - 1),
            ">".repeat(MAX_NESTING - 1)
        );
        assert!(parse_schema(&ty).is_ok());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_path("R.A extra").is_err());
        assert!(parse_query("select x from R x garbage garbage").is_err());
    }
}
