//! AST → IR lowering with static checks.
//!
//! The compiler resolves variables to frame slots and functions to ids,
//! raising static errors for:
//! - undefined variables (`XPST0008`) — including the paper's §3.2 rule
//!   that variables bound *before* `group by` are out of scope in the
//!   clauses *after* it (a dedicated diagnostic explains the rule);
//! - unknown functions or wrong arity (`XPST0017`);
//! - a grouping expression referencing another grouping variable (§3.2);
//! - unknown `using` comparators (must be a declared arity-2 function).

use crate::casts::cast_target_from_name;
use crate::error::{EngineError, EngineResult};
use crate::functions;
use crate::ir::{self, Ir};
use std::collections::HashMap;
use std::sync::Arc;
use xqa_frontend::ast;
use xqa_xdm::{Decimal, ErrorCode, QName};

/// Compile a parsed module to an executable query.
pub fn compile(module: &ast::Module) -> EngineResult<ir::CompiledQuery> {
    let mut c = Compiler::new();
    // Pass 1: register function signatures (enables mutual recursion).
    for f in &module.prolog.functions {
        c.declare_function(f)?;
    }
    // Pass 2: compile function bodies.
    let mut functions = Vec::with_capacity(module.prolog.functions.len());
    for (id, f) in module.prolog.functions.iter().enumerate() {
        functions.push(c.compile_function(id, f)?);
    }
    // Globals, in order (each sees the previous ones).
    let mut globals = Vec::new();
    for v in &module.prolog.variables {
        c.frame = Frame::default();
        let init = c.compile_expr(&v.init)?;
        let ty = v.ty.as_ref().map(|ty| c.compile_seq_type(ty)).transpose()?;
        globals.push(ir::GlobalInit {
            name: v.name.clone(),
            init,
            ty,
            frame_size: c.frame.max_slots,
        });
        let idx = globals.len() - 1;
        c.globals.insert(v.name.clone(), idx);
    }
    // Main body.
    c.frame = Frame::default();
    let body = c.compile_expr(&module.body)?;
    Ok(ir::CompiledQuery {
        globals,
        functions,
        body,
        frame_size: c.frame.max_slots,
        ordered: module.prolog.ordering != Some(ast::OrderingMode::Unordered),
    })
}

#[derive(Default)]
struct Frame {
    /// Innermost-last visible bindings.
    bindings: Vec<(String, ir::Slot)>,
    next_slot: usize,
    max_slots: usize,
}

impl Frame {
    fn bind(&mut self, name: &str) -> ir::Slot {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        self.bindings.push((name.to_string(), slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<ir::Slot> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    fn mark(&self) -> usize {
        self.bindings.len()
    }

    /// Drop visibility of bindings made after `mark` (slots stay
    /// allocated — tuples may still carry their values).
    fn truncate(&mut self, mark: usize) -> Vec<String> {
        self.bindings
            .split_off(mark)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }
}

struct Compiler {
    frame: Frame,
    globals: HashMap<String, ir::GlobalSlot>,
    /// (name, arity) → function id.
    function_ids: HashMap<(String, usize), ir::FunctionId>,
    /// Signatures registered in pass 1.
    signatures: Vec<FunctionSig>,
    /// Names hidden by an enclosing `group by` (for the §3.2 diagnostic).
    group_hidden: Vec<Vec<String>>,
}

struct FunctionSig {
    arity: usize,
}

impl Compiler {
    fn new() -> Compiler {
        Compiler {
            frame: Frame::default(),
            globals: HashMap::new(),
            function_ids: HashMap::new(),
            signatures: Vec::new(),
            group_hidden: Vec::new(),
        }
    }

    fn declare_function(&mut self, f: &ast::FunctionDecl) -> EngineResult<()> {
        let name = f.name.to_string();
        let key = (name.clone(), f.params.len());
        if self.function_ids.contains_key(&key) {
            return Err(EngineError::stat(
                ErrorCode::XPST0017,
                format!("duplicate function declaration {name}#{}", f.params.len()),
            ));
        }
        let id = self.signatures.len();
        self.function_ids.insert(key, id);
        let _ = name;
        self.signatures.push(FunctionSig {
            arity: f.params.len(),
        });
        Ok(())
    }

    fn compile_function(
        &mut self,
        id: ir::FunctionId,
        f: &ast::FunctionDecl,
    ) -> EngineResult<ir::UserFunction> {
        debug_assert_eq!(self.signatures[id].arity, f.params.len());
        self.frame = Frame::default();
        let mut param_types = Vec::new();
        for p in &f.params {
            self.frame.bind(&p.name);
            param_types.push(match &p.ty {
                Some(t) => Some(self.compile_seq_type(t)?),
                None => None,
            });
        }
        let body = self.compile_expr(&f.body)?;
        let return_type = match &f.return_type {
            Some(t) => Some(self.compile_seq_type(t)?),
            None => None,
        };
        Ok(ir::UserFunction {
            name: f.name.to_string(),
            arity: f.params.len(),
            param_types,
            return_type,
            body,
            frame_size: self.frame.max_slots,
        })
    }

    fn compile_seq_type(&self, t: &ast::SequenceType) -> EngineResult<ir::SeqTypeIr> {
        let item = match &t.item {
            ast::ItemType::AnyItem => ir::ItemTypeIr::AnyItem,
            ast::ItemType::AnyNode => ir::ItemTypeIr::AnyNode,
            ast::ItemType::Element(n) => ir::ItemTypeIr::Element(n.as_ref().map(to_qname)),
            ast::ItemType::Attribute(n) => ir::ItemTypeIr::Attribute(n.as_ref().map(to_qname)),
            ast::ItemType::Document => ir::ItemTypeIr::Document,
            ast::ItemType::Text => ir::ItemTypeIr::Text,
            ast::ItemType::Comment => ir::ItemTypeIr::Comment,
            ast::ItemType::ProcessingInstruction => ir::ItemTypeIr::Pi,
            ast::ItemType::EmptySequence => ir::ItemTypeIr::EmptySequence,
            ast::ItemType::Atomic(name) => {
                if name.local == "anyAtomicType"
                    && matches!(name.prefix.as_deref(), None | Some("xs"))
                {
                    ir::ItemTypeIr::AnyAtomic
                } else {
                    match cast_target_from_name(name.prefix.as_deref(), &name.local) {
                        Some(t) => ir::ItemTypeIr::Atomic(t),
                        None => {
                            return Err(EngineError::stat(
                                ErrorCode::XPST0003,
                                format!("unknown atomic type {name}"),
                            ))
                        }
                    }
                }
            }
        };
        let occurrence = match t.occurrence {
            ast::Occurrence::One => ir::OccurrenceIr::One,
            ast::Occurrence::Optional => ir::OccurrenceIr::Optional,
            ast::Occurrence::ZeroOrMore => ir::OccurrenceIr::ZeroOrMore,
            ast::Occurrence::OneOrMore => ir::OccurrenceIr::OneOrMore,
        };
        Ok(ir::SeqTypeIr { item, occurrence })
    }

    fn lookup_var(&self, name: &str) -> EngineResult<Ir> {
        if let Some(slot) = self.frame.lookup(name) {
            return Ok(Ir::Var(slot));
        }
        if let Some(&g) = self.globals.get(name) {
            return Ok(Ir::Global(g));
        }
        // The §3.2 diagnostic: the name exists but was hidden by group by.
        if self
            .group_hidden
            .iter()
            .any(|level| level.iter().any(|n| n == name))
        {
            return Err(EngineError::stat(
                ErrorCode::XPST0008,
                format!(
                    "variable ${name} is bound before 'group by' and is not in scope after it; \
                     rebind it as a grouping or nesting variable (paper §3.2)"
                ),
            ));
        }
        Err(EngineError::stat(
            ErrorCode::XPST0008,
            format!("undefined variable ${name}"),
        ))
    }

    fn compile_expr(&mut self, e: &ast::Expr) -> EngineResult<Ir> {
        Ok(match &e.kind {
            ast::ExprKind::StringLit(s) => Ir::Str(Arc::from(s.as_str())),
            ast::ExprKind::IntegerLit(v) => Ir::Int(*v),
            ast::ExprKind::DecimalLit(s) => Ir::Dec(Decimal::parse(s).map_err(EngineError::from)?),
            ast::ExprKind::DoubleLit(v) => Ir::Dbl(*v),
            ast::ExprKind::VarRef(name) => self.lookup_var(name)?,
            ast::ExprKind::ContextItem => Ir::ContextItem,
            ast::ExprKind::Sequence(items) => {
                if items.is_empty() {
                    Ir::Empty
                } else {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match self.compile_expr(item)? {
                            Ir::Seq(inner) => out.extend(inner),
                            Ir::Empty => {}
                            other => out.push(other),
                        }
                    }
                    match out.len() {
                        0 => Ir::Empty,
                        1 => out.into_iter().next().expect("len checked"),
                        _ => Ir::Seq(out),
                    }
                }
            }
            ast::ExprKind::Range(a, b) => Ir::Range(
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::Arith(op, a, b) => Ir::Arith(
                *op,
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::Unary(ast::UnaryOp::Neg, a) => Ir::Neg(Box::new(self.compile_expr(a)?)),
            ast::ExprKind::Unary(ast::UnaryOp::Plus, a) => self.compile_expr(a)?,
            ast::ExprKind::GeneralComp(op, a, b) => Ir::GeneralComp(
                comp_op(*op),
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::ValueComp(op, a, b) => Ir::ValueComp(
                comp_op(*op),
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::NodeComp(op, a, b) => Ir::NodeComp(
                *op,
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::And(a, b) => Ir::And(
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::Or(a, b) => Ir::Or(
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::SetOp(op, a, b) => Ir::SetOp(
                *op,
                Box::new(self.compile_expr(a)?),
                Box::new(self.compile_expr(b)?),
            ),
            ast::ExprKind::If {
                cond,
                then,
                otherwise,
            } => Ir::If(
                Box::new(self.compile_expr(cond)?),
                Box::new(self.compile_expr(then)?),
                Box::new(self.compile_expr(otherwise)?),
            ),
            ast::ExprKind::Quantified {
                kind,
                bindings,
                satisfies,
            } => {
                let mark = self.frame.mark();
                let mut compiled = Vec::with_capacity(bindings.len());
                for (var, expr) in bindings {
                    let e = self.compile_expr(expr)?;
                    let slot = self.frame.bind(var);
                    compiled.push((slot, e));
                }
                let satisfies = Box::new(self.compile_expr(satisfies)?);
                self.frame.truncate(mark);
                Ir::Quantified {
                    kind: *kind,
                    bindings: compiled,
                    satisfies,
                }
            }
            ast::ExprKind::Flwor(f) => self.compile_flwor(f)?,
            ast::ExprKind::Path(p) => self.compile_path(p)?,
            ast::ExprKind::Filter { base, predicates } => {
                let base = Box::new(self.compile_expr(base)?);
                let predicates = self.compile_predicates(predicates)?;
                Ir::Filter { base, predicates }
            }
            ast::ExprKind::FunctionCall { name, args } => self.compile_call(name, args)?,
            ast::ExprKind::DirectElement(el) => self.compile_direct_element(el)?,
            ast::ExprKind::DirectComment(text) => Ir::Comment(Arc::from(text.as_str())),
            ast::ExprKind::DirectPi(target, data) => {
                Ir::Pi(QName::local(target.as_str()), Arc::from(data.as_str()))
            }
            ast::ExprKind::ComputedElement { name, content } => {
                let content = match content {
                    Some(c) => vec![ir::ContentIr::Enclosed(self.compile_expr(c)?)],
                    None => Vec::new(),
                };
                Ir::Element(Box::new(ir::ElementIr {
                    name: to_qname(name),
                    attributes: Vec::new(),
                    content,
                }))
            }
            ast::ExprKind::ComputedAttribute { name, content } => Ir::Attribute {
                name: to_qname(name),
                value: match content {
                    Some(c) => Some(Box::new(self.compile_expr(c)?)),
                    None => None,
                },
            },
            ast::ExprKind::ComputedText(content) => Ir::Text(match content {
                Some(c) => Some(Box::new(self.compile_expr(c)?)),
                None => None,
            }),
            ast::ExprKind::InstanceOf(a, ty) => {
                Ir::InstanceOf(Box::new(self.compile_expr(a)?), self.compile_seq_type(ty)?)
            }
            ast::ExprKind::CastAs(a, name, optional) => {
                match cast_target_from_name(name.prefix.as_deref(), &name.local) {
                    Some(t) => Ir::Cast(Box::new(self.compile_expr(a)?), t, *optional),
                    None => {
                        return Err(EngineError::stat(
                            ErrorCode::XPST0003,
                            format!("unknown cast target {name}"),
                        ))
                    }
                }
            }
            ast::ExprKind::CastableAs(a, name, optional) => {
                match cast_target_from_name(name.prefix.as_deref(), &name.local) {
                    Some(t) => Ir::Castable(Box::new(self.compile_expr(a)?), t, *optional),
                    None => {
                        return Err(EngineError::stat(
                            ErrorCode::XPST0003,
                            format!("unknown cast target {name}"),
                        ))
                    }
                }
            }
        })
    }

    fn compile_predicates(&mut self, preds: &[ast::Expr]) -> EngineResult<Vec<Ir>> {
        preds.iter().map(|p| self.compile_expr(p)).collect()
    }

    fn compile_call(&mut self, name: &ast::Name, args: &[ast::Expr]) -> EngineResult<Ir> {
        let compiled: Vec<Ir> = args
            .iter()
            .map(|a| self.compile_expr(a))
            .collect::<EngineResult<_>>()?;
        // User functions take precedence for prefixed names they define
        // (`local:` in practice).
        let key = (name.to_string(), args.len());
        if let Some(&id) = self.function_ids.get(&key) {
            return Ok(Ir::CallUser(id, compiled));
        }
        if let Some(b) = functions::resolve(name.prefix.as_deref(), &name.local) {
            let (min, max) = functions::arity(b);
            if args.len() < min || args.len() > max {
                return Err(EngineError::stat(
                    ErrorCode::XPST0017,
                    format!(
                        "wrong number of arguments for {name}(): got {}, expected {}",
                        args.len(),
                        if max == usize::MAX {
                            format!("at least {min}")
                        } else if min == max {
                            format!("{min}")
                        } else {
                            format!("{min} to {max}")
                        }
                    ),
                ));
            }
            return Ok(Ir::CallBuiltin(b, compiled));
        }
        Err(EngineError::stat(
            ErrorCode::XPST0017,
            format!("unknown function {name}() with arity {}", args.len()),
        ))
    }

    fn compile_flwor(&mut self, f: &ast::Flwor) -> EngineResult<Ir> {
        let flwor_mark = self.frame.mark();
        let mut clauses = Vec::new();
        for clause in &f.clauses {
            match clause {
                ast::InitialClause::For(bindings) => {
                    for b in bindings {
                        let expr = self.compile_expr(&b.expr)?;
                        let slot = self.frame.bind(&b.var);
                        let at_slot = b.at.as_ref().map(|v| self.frame.bind(v));
                        let ty = match &b.ty {
                            Some(t) => Some(self.compile_seq_type(t)?),
                            None => None,
                        };
                        clauses.push(ir::ClauseIr::For {
                            slot,
                            at_slot,
                            ty,
                            expr,
                        });
                    }
                }
                ast::InitialClause::Let(bindings) => {
                    for b in bindings {
                        let expr = self.compile_expr(&b.expr)?;
                        let slot = self.frame.bind(&b.var);
                        let ty = match &b.ty {
                            Some(t) => Some(self.compile_seq_type(t)?),
                            None => None,
                        };
                        clauses.push(ir::ClauseIr::Let { slot, ty, expr });
                    }
                }
                ast::InitialClause::Count(var) => {
                    let slot = self.frame.bind(var);
                    clauses.push(ir::ClauseIr::Count { slot });
                }
                ast::InitialClause::Window(w) => {
                    clauses.push(ir::ClauseIr::Window(Box::new(self.compile_window(w)?)));
                }
            }
        }
        if let Some(w) = &f.where_clause {
            clauses.push(ir::ClauseIr::Where(self.compile_expr(w)?));
        }

        let mut hidden_pushed = false;
        if let Some(g) = &f.group_by {
            // Grouping/nesting expressions and nest order-by keys are
            // compiled in the *pre-group* scope (§3.1, §3.4.1).
            let mut key_exprs = Vec::new();
            for key in &g.keys {
                key_exprs.push((self.compile_expr(&key.expr)?, key.using.clone()));
            }
            let mut nest_parts = Vec::new();
            for nest in &g.nests {
                let expr = self.compile_expr(&nest.expr)?;
                let order_by = match &nest.order_by {
                    Some(ob) => Some(self.compile_order_by(ob)?),
                    None => None,
                };
                nest_parts.push((expr, order_by));
            }
            // Hide everything bound by this FLWOR before the group by.
            let hidden = self.frame.truncate(flwor_mark);
            self.group_hidden.push(hidden);
            hidden_pushed = true;
            // Bind output variables.
            let mut keys = Vec::new();
            for (key, (expr, using)) in g.keys.iter().zip(key_exprs) {
                let slot = self.frame.bind(&key.var);
                let using = match using {
                    None => None,
                    Some(name) => {
                        let key2 = (name.to_string(), 2usize);
                        match self.function_ids.get(&key2) {
                            Some(&id) => Some(id),
                            None => {
                                return Err(EngineError::stat(
                                    ErrorCode::XPST0017,
                                    format!(
                                        "'using {name}' requires a declared function \
                                         {name}($a, $b) of arity 2"
                                    ),
                                ))
                            }
                        }
                    }
                };
                keys.push(ir::GroupKeyIr { expr, slot, using });
            }
            let mut nests = Vec::new();
            for (nest, (expr, order_by)) in g.nests.iter().zip(nest_parts) {
                let slot = self.frame.bind(&nest.var);
                nests.push(ir::NestIr {
                    expr,
                    order_by,
                    slot,
                    var: nest.var.clone(),
                });
            }
            clauses.push(ir::ClauseIr::GroupBy(ir::GroupByIr { keys, nests }));

            for clause in &f.post_group_clauses {
                match clause {
                    ast::PostGroupClause::Let(b) => {
                        let expr = self.compile_expr(&b.expr)?;
                        let slot = self.frame.bind(&b.var);
                        let ty = match &b.ty {
                            Some(t) => Some(self.compile_seq_type(t)?),
                            None => None,
                        };
                        clauses.push(ir::ClauseIr::Let { slot, ty, expr });
                    }
                    ast::PostGroupClause::Count(var) => {
                        let slot = self.frame.bind(var);
                        clauses.push(ir::ClauseIr::Count { slot });
                    }
                }
            }
            if let Some(w) = &f.post_group_where {
                clauses.push(ir::ClauseIr::Where(self.compile_expr(w)?));
            }
        }

        if let Some(ob) = &f.order_by {
            clauses.push(ir::ClauseIr::OrderBy(self.compile_order_by(ob)?));
        }

        let return_at = f.return_at.as_ref().map(|v| self.frame.bind(v));
        let return_expr = self.compile_expr(&f.return_expr)?;

        if hidden_pushed {
            self.group_hidden.pop();
        }
        self.frame.truncate(flwor_mark);
        Ok(Ir::Flwor(Box::new(ir::FlworIr {
            ops: clauses.into_iter().map(ir::OpIr::from).collect(),
            return_at,
            return_expr,
            return_estimate: None,
        })))
    }

    /// Compile a window clause. Scoping per XQuery 3.0: the start
    /// condition sees its own variables; the end condition additionally
    /// sees the start variables; later clauses see everything plus the
    /// window variable itself.
    fn compile_window(&mut self, w: &ast::WindowClause) -> EngineResult<ir::WindowIr> {
        let expr = self.compile_expr(&w.expr)?;
        let bind_opt = |frame: &mut Frame, v: &Option<String>| v.as_ref().map(|n| frame.bind(n));
        let item_slot = bind_opt(&mut self.frame, &w.start.item_var);
        let at_slot = bind_opt(&mut self.frame, &w.start.at_var);
        let previous_slot = bind_opt(&mut self.frame, &w.start.previous_var);
        let next_slot = bind_opt(&mut self.frame, &w.start.next_var);
        let when = self.compile_expr(&w.start.when)?;
        let start = ir::WindowCondIr {
            item_slot,
            at_slot,
            previous_slot,
            next_slot,
            when,
        };
        let end = match &w.end {
            Some(c) => {
                let item_slot = bind_opt(&mut self.frame, &c.item_var);
                let at_slot = bind_opt(&mut self.frame, &c.at_var);
                let previous_slot = bind_opt(&mut self.frame, &c.previous_var);
                let next_slot = bind_opt(&mut self.frame, &c.next_var);
                let when = self.compile_expr(&c.when)?;
                Some(ir::WindowCondIr {
                    item_slot,
                    at_slot,
                    previous_slot,
                    next_slot,
                    when,
                })
            }
            None => None,
        };
        let slot = self.frame.bind(&w.var);
        Ok(ir::WindowIr {
            sliding: w.sliding,
            slot,
            expr,
            start,
            end,
            only_end: w.only_end,
        })
    }

    fn compile_order_by(&mut self, ob: &ast::OrderByClause) -> EngineResult<ir::OrderByIr> {
        let mut specs = Vec::new();
        for spec in &ob.specs {
            specs.push(ir::OrderSpecIr {
                expr: self.compile_expr(&spec.expr)?,
                descending: spec.descending,
                empty_greatest: spec.empty == Some(ast::EmptyOrder::Greatest),
            });
        }
        Ok(ir::OrderByIr {
            stable: ob.stable,
            specs,
            limit: None,
        })
    }

    fn compile_path(&mut self, p: &ast::Path) -> EngineResult<Ir> {
        let start = match &p.start {
            ast::PathStart::Context => ir::PathStartIr::Context,
            ast::PathStart::Root => ir::PathStartIr::Root,
            ast::PathStart::Expr(e) => ir::PathStartIr::Expr(self.compile_expr(e)?),
        };
        let mut steps = Vec::with_capacity(p.steps.len());
        for step in &p.steps {
            steps.push(match step {
                ast::Step::Axis(s) => ir::StepIr::Axis {
                    axis: s.axis,
                    test: compile_node_test(&s.test),
                    predicates: self.compile_predicates(&s.predicates)?,
                },
                ast::Step::Expr { expr, predicates } => ir::StepIr::Expr {
                    expr: self.compile_expr(expr)?,
                    predicates: self.compile_predicates(predicates)?,
                },
            });
        }
        Ok(Ir::Path(Box::new(ir::PathIr {
            start,
            steps,
            access: ir::AccessPathIr::Walk,
        })))
    }

    fn compile_direct_element(&mut self, el: &ast::DirectElement) -> EngineResult<Ir> {
        let mut attributes = Vec::new();
        for (name, parts) in &el.attributes {
            let mut compiled = Vec::new();
            for part in parts {
                compiled.push(match part {
                    ast::AttrPart::Literal(s) => ir::AttrPartIr::Literal(Arc::from(s.as_str())),
                    ast::AttrPart::Enclosed(e) => ir::AttrPartIr::Enclosed(self.compile_expr(e)?),
                });
            }
            attributes.push((to_qname(name), compiled));
        }
        let mut content = Vec::new();
        for part in &el.content {
            content.push(match part {
                ast::ContentPart::Literal(s) => ir::ContentIr::Literal(Arc::from(s.as_str())),
                ast::ContentPart::Enclosed(e) => ir::ContentIr::Enclosed(self.compile_expr(e)?),
                ast::ContentPart::Child(e) => ir::ContentIr::Child(self.compile_expr(e)?),
            });
        }
        Ok(Ir::Element(Box::new(ir::ElementIr {
            name: to_qname(&el.name),
            attributes,
            content,
        })))
    }
}

fn comp_op(op: ast::Comparison) -> xqa_xdm::CompOp {
    match op {
        ast::Comparison::Eq => xqa_xdm::CompOp::Eq,
        ast::Comparison::Ne => xqa_xdm::CompOp::Ne,
        ast::Comparison::Lt => xqa_xdm::CompOp::Lt,
        ast::Comparison::Le => xqa_xdm::CompOp::Le,
        ast::Comparison::Gt => xqa_xdm::CompOp::Gt,
        ast::Comparison::Ge => xqa_xdm::CompOp::Ge,
    }
}

fn to_qname(n: &ast::Name) -> QName {
    match &n.prefix {
        Some(p) => QName::prefixed(p.as_str(), n.local.as_str()),
        None => QName::local(n.local.as_str()),
    }
}

fn compile_node_test(t: &ast::NodeTest) -> ir::NodeTestIr {
    match t {
        ast::NodeTest::Name(n) => ir::NodeTestIr::Name(to_qname(n)),
        ast::NodeTest::Wildcard => ir::NodeTestIr::Wildcard,
        ast::NodeTest::AnyKind => ir::NodeTestIr::AnyKind,
        ast::NodeTest::Text => ir::NodeTestIr::Text,
        ast::NodeTest::Comment => ir::NodeTestIr::Comment,
        ast::NodeTest::ProcessingInstruction(target) => ir::NodeTestIr::Pi(target.clone()),
        ast::NodeTest::Element(n) => ir::NodeTestIr::Element(n.as_ref().map(to_qname)),
        ast::NodeTest::Attribute(n) => ir::NodeTestIr::Attribute(n.as_ref().map(to_qname)),
        ast::NodeTest::Document => ir::NodeTestIr::Document,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_frontend::parse_query;

    fn compile_src(src: &str) -> EngineResult<ir::CompiledQuery> {
        compile(&parse_query(src).expect("parse"))
    }

    #[test]
    fn literals_and_arithmetic_compile() {
        let q = compile_src("1 + 2.5").unwrap();
        assert!(matches!(q.body, Ir::Arith(..)));
        assert_eq!(q.frame_size, 0);
    }

    #[test]
    fn undefined_variable_is_static_error() {
        let err = compile_src("$nope").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0008);
        assert!(err.to_string().contains("$nope"));
    }

    #[test]
    fn flwor_allocates_slots() {
        let q = compile_src("for $b in (1,2,3) let $p := $b return $p").unwrap();
        assert_eq!(q.frame_size, 2);
    }

    #[test]
    fn pre_group_variable_out_of_scope_after_group_by() {
        let err = compile_src("for $b in (1,2) group by $b into $k return $b").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0008);
        assert!(err.to_string().contains("group by"), "got: {err}");
    }

    #[test]
    fn rebinding_same_name_as_nest_variable_is_allowed_q7() {
        // Q7 rebinds $b as a nesting variable.
        let q = compile_src("for $b in (1,2) group by $b into $pub nest $b into $b return $b");
        assert!(q.is_ok(), "{q:?}");
    }

    #[test]
    fn grouping_expression_may_not_reference_grouping_variable() {
        // $k is only in scope *after* groups form.
        let err =
            compile_src("for $b in (1,2) group by $b into $k, $k into $k2 return $k").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0008);
    }

    #[test]
    fn outer_variables_stay_in_scope_after_group_by() {
        let q = compile_src(
            "let $outer := 5 \
             return for $b in (1,2) group by $b into $k return ($k, $outer)",
        );
        assert!(q.is_ok(), "{q:?}");
    }

    #[test]
    fn unknown_function_is_xpst0017() {
        let err = compile_src("frobnicate(1)").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0017);
    }

    #[test]
    fn wrong_arity_is_xpst0017() {
        let err = compile_src("count()").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0017);
        let err = compile_src("count((1,2), 3)").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0017);
    }

    #[test]
    fn user_function_resolution_and_recursion() {
        let q = compile_src(
            "declare function local:fact($n as xs:integer) as xs:integer \
             { if ($n le 1) then 1 else $n * local:fact($n - 1) }; \
             local:fact(5)",
        )
        .unwrap();
        assert_eq!(q.functions.len(), 1);
        assert!(matches!(q.body, Ir::CallUser(0, _)));
    }

    #[test]
    fn using_requires_declared_arity_2_function() {
        let err = compile_src("for $b in (1,2) group by $b into $k using local:nope return $k")
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0017);
        let ok = compile_src(
            "declare function local:same($a as item()*, $b as item()*) as xs:boolean { true() }; \
             for $b in (1,2) group by $b into $k using local:same return $k",
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn globals_compile_in_order() {
        let q = compile_src("declare variable $a := 1; declare variable $b := $a + 1; $b").unwrap();
        assert_eq!(q.globals.len(), 2);
        assert!(matches!(q.body, Ir::Global(1)));
        // $b referencing a later global fails
        let err =
            compile_src("declare variable $b := $c; declare variable $c := 1; $b").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0008);
    }

    #[test]
    fn quantified_scope_is_local() {
        let err = compile_src("(some $x in (1,2) satisfies $x = 1) and $x = 2").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0008);
    }

    #[test]
    fn duplicate_function_declaration_rejected() {
        let err = compile_src(
            "declare function local:f($a) { 1 }; \
             declare function local:f($b) { 2 }; \
             local:f(0)",
        )
        .unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0017);
    }

    #[test]
    fn arity_overloading_allowed() {
        let q = compile_src(
            "declare function local:f($a) { 1 }; \
             declare function local:f($a, $b) { 2 }; \
             local:f(0) + local:f(0, 0)",
        )
        .unwrap();
        assert_eq!(q.functions.len(), 2);
    }

    #[test]
    fn unknown_cast_target_rejected() {
        let err = compile_src("\"x\" cast as xs:anyURI").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XPST0003);
    }

    #[test]
    fn return_at_binds_rank_variable() {
        let q = compile_src("for $b in (3,1,2) order by $b return at $i ($i, $b)").unwrap();
        match q.body {
            Ir::Flwor(f) => assert!(f.return_at.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
