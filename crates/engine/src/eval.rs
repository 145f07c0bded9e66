//! The IR evaluator.
//!
//! A straightforward tree-walking interpreter: expressions evaluate to
//! [`Sequence`]s against an environment of frame slots plus the focus
//! (context item / position / size). FLWOR evaluation lives in the
//! tuple pipeline, [`crate::pipeline`]; this module covers everything
//! else — literals, arithmetic, comparisons, paths, constructors, and
//! function calls.

use crate::casts::cast_atomic;
use crate::context::{DynamicContext, EvalStats, Focus};
use crate::error::{EngineError, EngineResult};
use crate::functions::{self, Builtin, FnCtx};
use crate::ir::*;
use crate::types::{function_conversion, matches_seq_type};
use std::cell::Cell;
use std::sync::Arc;
use xqa_frontend::ast::{ArithOp, Axis, NodeComparison, Quantifier, SetOp};
use xqa_storage::{DocumentStore, PathIds};
use xqa_xdm::{
    atomize_sequence, effective_boolean_value, general_compare, AtomicValue, Decimal, Document,
    DocumentBuilder, ErrorCode, Item, NodeHandle, NodeId, NodeKind, Sequence, SequenceBuilder,
};

/// Maximum user-function recursion depth. Kept conservative because each
/// level costs several (large, debug-mode) Rust stack frames; the paper's
/// recursive membership functions only recurse to category-tree depth.
const MAX_RECURSION: usize = 64;

/// Execute a compiled query against a dynamic context.
pub fn execute(query: &CompiledQuery, dynamic: &DynamicContext) -> EngineResult<Sequence> {
    with_run_accounting(dynamic, || {
        let interp = Interpreter::new(query, dynamic)?;
        let mut env = Env::new(query.frame_size, initial_focus(dynamic));
        interp.eval(&query.body, &mut env)
    })
}

/// [`execute`] into a sink: instead of materializing the result, each
/// pipeline batch of result items is handed to `emit` as it is
/// produced. Returns the total item count. Counter and profiler
/// bookkeeping matches [`execute`] exactly, so `--stats` totals and
/// flight records look the same whether a request streamed or not.
pub fn execute_streaming(
    query: &CompiledQuery,
    dynamic: &DynamicContext,
    emit: &mut dyn FnMut(&[Item]) -> EngineResult<()>,
) -> EngineResult<u64> {
    with_run_accounting(dynamic, || {
        let interp = Interpreter::new(query, dynamic)?;
        let mut env = Env::new(query.frame_size, initial_focus(dynamic));
        match &query.body {
            // A FLWOR body streams straight off the pipeline sink.
            Ir::Flwor(f) => crate::pipeline::run_streaming(&interp, f, &mut env, emit),
            // Any other body shape materializes (there is no tuple
            // pipeline to tap), then feeds out in batches.
            body => {
                let seq = interp.eval(body, &mut env)?;
                crate::pipeline::emit_sequence(&seq, emit)
            }
        }
    })
}

/// Wrap one evaluation in the per-run sequence-copy drain shared by the
/// materializing and streaming paths.
fn with_run_accounting<T>(
    dynamic: &DynamicContext,
    run: impl FnOnce() -> EngineResult<T>,
) -> EngineResult<T> {
    // Discard sequence-copy counts accumulated outside evaluation
    // (compile-time constant folding, earlier runs on this thread) so
    // the per-run totals cover this evaluation alone.
    let _ = xqa_xdm::take_seq_counters();
    let result = run();
    let (copied, shared) = xqa_xdm::take_seq_counters();
    dynamic.stats.seq_items_copied.add(copied);
    dynamic.stats.seq_clones_shared.add(shared);
    result
}

fn initial_focus(dynamic: &DynamicContext) -> Option<Focus> {
    dynamic.context_item().map(|item| Focus {
        item: item.clone(),
        position: 1,
        size: 1,
    })
}

/// The evaluation environment: frame slots plus the focus.
pub(crate) struct Env {
    /// Variable slots (`Sequence` clones are O(1), so tuple snapshots
    /// bind values directly — no `Arc<Sequence>` double indirection).
    pub slots: Vec<Sequence>,
    /// The focus, if a context item is defined.
    pub focus: Option<Focus>,
}

impl Env {
    pub(crate) fn new(frame_size: usize, focus: Option<Focus>) -> Env {
        Env {
            slots: vec![Sequence::Empty; frame_size],
            focus,
        }
    }
}

pub(crate) struct Interpreter<'a> {
    pub(crate) query: &'a CompiledQuery,
    pub(crate) dynamic: &'a DynamicContext,
    pub(crate) globals: Vec<Sequence>,
    depth: Cell<usize>,
    /// Where evaluator counters go: `&dynamic.stats`.
    pub(crate) stats: &'a EvalStats,
}

impl<'a> Interpreter<'a> {
    /// The root interpreter of one run, its globals evaluated in
    /// declaration order.
    pub(crate) fn new(
        query: &'a CompiledQuery,
        dynamic: &'a DynamicContext,
    ) -> EngineResult<Interpreter<'a>> {
        let mut interp = Interpreter {
            query,
            dynamic,
            globals: Vec::new(),
            depth: Cell::new(0),
            stats: &dynamic.stats,
        };
        for g in &query.globals {
            let mut env = Env::new(g.frame_size, initial_focus(dynamic));
            let v = interp.eval(&g.init, &mut env)?;
            if let Some(ty) = &g.ty {
                if !matches_seq_type(&v, ty) {
                    return Err(EngineError::dynamic(
                        ErrorCode::XPTY0004,
                        format!("value of ${} does not match its declared type", g.name),
                    ));
                }
            }
            interp.globals.push(v);
        }
        Ok(interp)
    }

    pub(crate) fn eval(&self, ir: &Ir, env: &mut Env) -> EngineResult<Sequence> {
        match ir {
            Ir::Str(s) => Ok(Sequence::one(Item::Atomic(AtomicValue::String(
                Arc::clone(s),
            )))),
            Ir::Int(v) => Ok(Sequence::one(*v)),
            Ir::Dec(v) => Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(*v)))),
            Ir::Dbl(v) => Ok(Sequence::one(*v)),
            Ir::Empty => Ok(Sequence::Empty),
            Ir::Seq(items) => {
                let mut out = SequenceBuilder::new();
                for item in items {
                    out.append(self.eval(item, env)?);
                }
                Ok(out.build())
            }
            Ir::Var(slot) => Ok(env.slots[*slot].clone()),
            Ir::Global(g) => Ok(self.globals[*g].clone()),
            Ir::ContextItem => match &env.focus {
                Some(f) => Ok(Sequence::one(f.item.clone())),
                None => Err(no_context("'.'")),
            },
            Ir::Range(a, b) => {
                let lo = range_bound(&self.eval(a, env)?, "range start")?;
                let hi = range_bound(&self.eval(b, env)?, "range end")?;
                match (lo, hi) {
                    (Some(lo), Some(hi)) if lo <= hi => Ok((lo..=hi).map(Item::from).collect()),
                    _ => Ok(Sequence::Empty),
                }
            }
            Ir::Arith(op, a, b) => {
                let lhs = self.eval(a, env)?;
                let rhs = self.eval(b, env)?;
                eval_arith(*op, &lhs, &rhs)
            }
            Ir::Neg(a) => {
                let v = self.eval(a, env)?;
                eval_neg(&v)
            }
            Ir::GeneralComp(op, a, b) => {
                let lhs = self.eval(a, env)?;
                let rhs = self.eval(b, env)?;
                eval_general_comp(*op, &lhs, &rhs, self.stats)
            }
            Ir::ValueComp(op, a, b) => {
                let lhs = self.eval(a, env)?;
                let rhs = self.eval(b, env)?;
                eval_value_comp(*op, &lhs, &rhs, self.stats)
            }
            Ir::NodeComp(op, a, b) => {
                let lhs = self.eval(a, env)?;
                let rhs = self.eval(b, env)?;
                let ln = opt_node(&lhs, "node comparison")?;
                let rn = opt_node(&rhs, "node comparison")?;
                match (ln, rn) {
                    (Some(ln), Some(rn)) => {
                        let result = match op {
                            NodeComparison::Is => ln.is_same_node(&rn),
                            NodeComparison::Precedes => ln.document_order(&rn).is_lt(),
                            NodeComparison::Follows => ln.document_order(&rn).is_gt(),
                        };
                        Ok(Sequence::one(result))
                    }
                    _ => Ok(Sequence::Empty),
                }
            }
            Ir::And(a, b) => {
                let lhs = self.eval_ebv(a, env)?;
                if !lhs {
                    return Ok(Sequence::one(false));
                }
                Ok(Sequence::one(self.eval_ebv(b, env)?))
            }
            Ir::Or(a, b) => {
                let lhs = self.eval_ebv(a, env)?;
                if lhs {
                    return Ok(Sequence::one(true));
                }
                Ok(Sequence::one(self.eval_ebv(b, env)?))
            }
            Ir::SetOp(op, a, b) => {
                let lhs = self.eval(a, env)?;
                let rhs = self.eval(b, env)?;
                eval_set_op(*op, lhs, rhs)
            }
            Ir::If(cond, then, otherwise) => {
                if self.eval_ebv(cond, env)? {
                    self.eval(then, env)
                } else {
                    self.eval(otherwise, env)
                }
            }
            Ir::Quantified {
                kind,
                bindings,
                satisfies,
            } => {
                let result = self.eval_quantified(*kind, bindings, satisfies, env, 0)?;
                Ok(Sequence::one(result))
            }
            Ir::Flwor(f) => crate::pipeline::run(self, f, env),
            Ir::Path(p) => self.eval_path(p, env),
            Ir::Filter { base, predicates } => {
                let seq = self.eval(base, env)?;
                self.apply_predicates(seq, predicates, env)
            }
            Ir::CallBuiltin(b, args) => {
                if let (Builtin::DistinctValues, [Ir::Path(p)]) = (b, args.as_slice()) {
                    return self.distinct_values_of_path(p, env);
                }
                let mut evaluated = Vec::with_capacity(args.len());
                for a in args {
                    evaluated.push(self.eval(a, env)?);
                }
                let cx = FnCtx {
                    focus: env.focus.as_ref(),
                    dynamic: self.dynamic,
                };
                functions::dispatch(*b, evaluated, &cx)
            }
            Ir::CallUser(id, args) => self.call_user(*id, args, env),
            Ir::Element(el) => {
                let mut out = SequenceBuilder::new();
                self.construct_rows(el, &[()], env, |_, _| {}, &mut out)?;
                Ok(out.build())
            }
            Ir::Attribute { name, value } => {
                let text = match value {
                    Some(v) => atomize_join(&self.eval(v, env)?),
                    None => String::new(),
                };
                Ok(Sequence::one(Item::Node(Document::standalone_attribute(
                    name.clone(),
                    text.as_str(),
                ))))
            }
            Ir::Text(content) => {
                let text = match content {
                    Some(c) => atomize_join(&self.eval(c, env)?),
                    None => String::new(),
                };
                if text.is_empty() {
                    // Zero-length text constructors produce no node.
                    return Ok(Sequence::Empty);
                }
                let mut b = DocumentBuilder::new();
                b.text(&text);
                let doc = b.finish();
                Ok(Sequence::one(Item::Node(
                    doc.root().children().next().expect("text node built"),
                )))
            }
            Ir::Comment(text) => {
                let mut b = DocumentBuilder::new();
                b.comment(&**text);
                let doc = b.finish();
                Ok(Sequence::one(Item::Node(
                    doc.root().children().next().expect("comment built"),
                )))
            }
            Ir::Pi(target, data) => {
                let mut b = DocumentBuilder::new();
                b.processing_instruction(target.clone(), &**data);
                let doc = b.finish();
                Ok(Sequence::one(Item::Node(
                    doc.root().children().next().expect("PI built"),
                )))
            }
            Ir::InstanceOf(a, ty) => {
                let v = self.eval(a, env)?;
                Ok(Sequence::one(matches_seq_type(&v, ty)))
            }
            Ir::Castable(a, target, optional) => {
                let v = self.eval(a, env)?;
                Ok(eval_castable(&v, *target, *optional))
            }
            Ir::Cast(a, target, optional) => {
                let v = self.eval(a, env)?;
                eval_cast(&v, *target, *optional)
            }
        }
    }

    pub(crate) fn eval_ebv(&self, ir: &Ir, env: &mut Env) -> EngineResult<bool> {
        let v = self.eval(ir, env)?;
        effective_boolean_value(&v).map_err(EngineError::from)
    }

    fn eval_quantified(
        &self,
        kind: Quantifier,
        bindings: &[(Slot, Ir)],
        satisfies: &Ir,
        env: &mut Env,
        index: usize,
    ) -> EngineResult<bool> {
        if index == bindings.len() {
            return self.eval_ebv(satisfies, env);
        }
        let (slot, ref expr) = bindings[index];
        let seq = self.eval(expr, env)?;
        for item in seq {
            env.slots[slot] = Sequence::One(item);
            let inner = self.eval_quantified(kind, bindings, satisfies, env, index + 1)?;
            match kind {
                Quantifier::Some if inner => return Ok(true),
                Quantifier::Every if !inner => return Ok(false),
                _ => {}
            }
        }
        Ok(kind == Quantifier::Every)
    }

    fn call_user(&self, id: FunctionId, args: &[Ir], env: &mut Env) -> EngineResult<Sequence> {
        let func = &self.query.functions[id];
        debug_assert_eq!(func.arity, args.len());
        let depth = self.depth.get();
        if depth >= MAX_RECURSION {
            return Err(EngineError::dynamic(
                ErrorCode::Other,
                format!(
                    "recursion limit ({MAX_RECURSION}) exceeded in {}",
                    func.name
                ),
            ));
        }
        // Function bodies see no focus (the context item is undefined
        // inside a function body per XQuery 1.0).
        let mut callee = Env::new(func.frame_size.max(func.arity), None);
        for (i, arg) in args.iter().enumerate() {
            let value = self.eval(arg, env)?;
            let value = match &func.param_types[i] {
                Some(ty) => {
                    function_conversion(value, ty, &format!("argument {} of {}", i + 1, func.name))?
                }
                None => value,
            };
            callee.slots[i] = value;
        }
        self.depth.set(depth + 1);
        let result = self.eval(&func.body, &mut callee);
        self.depth.set(depth);
        let result = result?;
        match &func.return_type {
            Some(ty) => function_conversion(result, ty, &format!("result of {}", func.name)),
            None => Ok(result),
        }
    }

    /// Call a user function (by id) with already-evaluated arguments —
    /// used by the `using` comparator in `group by`.
    pub(crate) fn call_user_values(
        &self,
        id: FunctionId,
        values: Vec<Sequence>,
    ) -> EngineResult<Sequence> {
        let func = &self.query.functions[id];
        debug_assert_eq!(func.arity, values.len());
        let depth = self.depth.get();
        if depth >= MAX_RECURSION {
            return Err(EngineError::dynamic(
                ErrorCode::Other,
                format!(
                    "recursion limit ({MAX_RECURSION}) exceeded in {}",
                    func.name
                ),
            ));
        }
        let mut callee = Env::new(func.frame_size.max(func.arity), None);
        for (i, value) in values.into_iter().enumerate() {
            let value = match &func.param_types[i] {
                Some(ty) => {
                    function_conversion(value, ty, &format!("argument {} of {}", i + 1, func.name))?
                }
                None => value,
            };
            callee.slots[i] = value;
        }
        self.depth.set(depth + 1);
        let result = self.eval(&func.body, &mut callee);
        self.depth.set(depth);
        let result = result?;
        match &func.return_type {
            Some(ty) => function_conversion(result, ty, &format!("result of {}", func.name)),
            None => Ok(result),
        }
    }

    // ---- paths ---------------------------------------------------------

    fn eval_path(&self, p: &PathIr, env: &mut Env) -> EngineResult<Sequence> {
        let start = self.path_start(p, env)?;
        match self.path_on_ids(p, &start) {
            Some((store, path)) => Ok(handles(store.document(), &path.ids)),
            None => self.eval_steps(p, start, env),
        }
    }

    /// `distinct-values` of a path. When the path runs on ids and its
    /// elements' name keeps a value column, the first element of each
    /// value id is atomized, and no other: every such element atomizes
    /// to `xs:untypedAtomic` of its text (attributes take no part), and
    /// untyped values are equal exactly when their texts are.
    fn distinct_values_of_path(&self, p: &PathIr, env: &mut Env) -> EngineResult<Sequence> {
        let start = self.path_start(p, env)?;
        let nodes = match self.path_on_ids(p, &start) {
            Some((store, path)) => match store.first_of_each_value(&path) {
                Some(firsts) => return Ok(atomize_sequence(&handles(store.document(), &firsts))),
                None => handles(store.document(), &path.ids),
            },
            None => self.eval_steps(p, start, env)?,
        };
        let cx = FnCtx {
            focus: env.focus.as_ref(),
            dynamic: self.dynamic,
        };
        functions::dispatch(Builtin::DistinctValues, vec![nodes], &cx)
    }

    /// `p` run on node ids ([`DocumentStore::child_path`]) when its
    /// leading step is index-resolved, it starts at one node of a
    /// document with a store, and every later step is a predicate-free
    /// `child::Name`. It counts what the step-by-step run counts for the
    /// index: one hit and the leading step's postings; and the postings
    /// the merges examined as visited nodes, in place of the children a
    /// walk would visit. `None` for any other path, and when the leading
    /// step's elements nest inside each other.
    fn path_on_ids(&self, p: &PathIr, start: &Sequence) -> Option<(&Arc<DocumentStore>, PathIds)> {
        let (AccessPathIr::IndexDescendant, [Item::Node(origin)]) = (&p.access, start.as_slice())
        else {
            return None;
        };
        let (first, rest) = p.steps.split_first()?;
        let first = plain_step(first, Axis::Descendant)?;
        let children = rest
            .iter()
            .map(|step| plain_step(step, Axis::Child))
            .collect::<Option<Vec<_>>>()?;
        let store = self.dynamic.store(origin.document().serial())?;
        let path = store.child_path(origin.id(), first, &children)?;
        self.stats.scan_index_hits.add(1);
        self.stats.scan_index_tuples.add(path.scanned);
        self.stats.nodes_visited.add(path.examined);
        Some((store, path))
    }

    /// The node or nodes a path's first step starts from.
    fn path_start(&self, p: &PathIr, env: &mut Env) -> EngineResult<Sequence> {
        Ok(match &p.start {
            PathStartIr::Context => match &env.focus {
                Some(f) => Sequence::one(f.item.clone()),
                None => return Err(no_context("relative path")),
            },
            PathStartIr::Root => match &env.focus {
                Some(f) => match &f.item {
                    Item::Node(n) => {
                        let root = n.ancestors().last().unwrap_or_else(|| n.clone());
                        Sequence::one(Item::Node(root))
                    }
                    _ => {
                        return Err(EngineError::dynamic(
                            ErrorCode::XPTY0004,
                            "'/' requires the context item to be a node",
                        ))
                    }
                },
                None => return Err(no_context("'/'")),
            },
            PathStartIr::Expr(e) => self.eval(e, env)?,
        })
    }

    /// Run `p` from `start` step by step, on handles.
    fn eval_steps(
        &self,
        p: &PathIr,
        mut current: Sequence,
        env: &mut Env,
    ) -> EngineResult<Sequence> {
        // The access path annotates the leading step only.
        let mut access = &p.access;
        for step in &p.steps {
            current = self.eval_step(step, access, current, env)?;
            access = &AccessPathIr::Walk;
        }
        Ok(current)
    }

    /// The index-resolved candidates for one origin node, or `None`
    /// when the lookup must fall back to the tree walk (no store for
    /// the document, or the value index cannot answer exactly).
    fn index_candidates(
        &self,
        access: &AccessPathIr,
        name: &xqa_xdm::QName,
        node: &NodeHandle,
    ) -> Option<Vec<NodeHandle>> {
        let doc = node.document();
        let store = self.dynamic.store(doc.serial())?;
        match access {
            AccessPathIr::Walk => None,
            AccessPathIr::IndexDescendant => {
                let ids = store.descendants_named(node.id(), name);
                Some(ids.iter().filter_map(|&id| doc.handle(id)).collect())
            }
            AccessPathIr::IndexValueEq { child, probe } => {
                let parents = probe.parents(store, child)?;
                let origin = node.id();
                let end = store.subtree_end(origin);
                Some(
                    parents
                        .into_iter()
                        .filter(|&id| id > origin && id <= end)
                        .filter_map(|id| doc.handle(id))
                        .filter(|h| h.kind() == NodeKind::Element && h.name() == Some(name))
                        .collect(),
                )
            }
        }
    }

    /// Evaluate one step from every node of `input`. Under an index
    /// `access` a `descendant::Name` step is resolved per origin: one
    /// whose document has a registered store (and whose index can
    /// answer exactly) is served from postings / the value index,
    /// every other one tree-walks, so mixed inputs and store-less
    /// documents stay byte-identical to the walk.
    fn eval_step(
        &self,
        step: &StepIr,
        access: &AccessPathIr,
        input: Sequence,
        env: &mut Env,
    ) -> EngineResult<Sequence> {
        match step {
            StepIr::Axis {
                axis,
                test,
                predicates,
            } => {
                // From one node without predicates, a child or attribute
                // step's candidates are already in document order and
                // distinct: they are the result as they come.
                if let ([Item::Node(node)], [], Axis::Child | Axis::Attribute) =
                    (input.as_slice(), predicates.as_slice(), axis)
                {
                    let mut out = SequenceBuilder::new();
                    self.axis_nodes(*axis, node, test, &mut out);
                    return Ok(out.build());
                }
                let indexed = match (access, axis, test) {
                    (AccessPathIr::Walk, ..) => None,
                    (_, Axis::Descendant, NodeTestIr::Name(name)) => Some(name),
                    _ => None,
                };
                let mut out: Vec<Item> = Vec::new();
                for item in &input {
                    let node = match item {
                        Item::Node(n) => n,
                        Item::Atomic(_) => {
                            return Err(EngineError::dynamic(
                                ErrorCode::XPTY0004,
                                "axis step applied to an atomic value",
                            ))
                        }
                    };
                    let start = out.len();
                    match indexed.and_then(|name| self.index_candidates(access, name, node)) {
                        Some(nodes) => {
                            self.stats.scan_index_hits.add(1);
                            self.stats.scan_index_tuples.add(nodes.len() as u64);
                            out.extend(nodes.into_iter().map(Item::Node));
                        }
                        None => self.axis_nodes(*axis, node, test, &mut out),
                    }
                    // Residual predicates always re-run on index
                    // candidates (the index prefilters; the walk
                    // semantics decide).
                    self.filter_tail(&mut out, start, predicates, env)?;
                }
                dedup_sort_document_order(&mut out);
                Ok(out.into())
            }
            StepIr::Expr { expr, predicates } => {
                let size = input.len() as i64;
                let saved = env.focus.take();
                let mut out: Vec<Item> = Vec::new();
                let mut result: EngineResult<()> = Ok(());
                for (i, item) in input.iter().enumerate() {
                    env.focus = Some(Focus {
                        item: item.clone(),
                        position: i as i64 + 1,
                        size,
                    });
                    match self.eval(expr, env) {
                        Ok(r) => match self.apply_predicates(r, predicates, env) {
                            Ok(r) => out.extend(r),
                            Err(e) => {
                                result = Err(e);
                                break;
                            }
                        },
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                env.focus = saved;
                result?;
                let nodes = out.iter().filter(|i| i.is_node()).count();
                if nodes == out.len() {
                    dedup_sort_document_order(&mut out);
                    Ok(out.into())
                } else if nodes == 0 {
                    Ok(out.into())
                } else {
                    Err(EngineError::dynamic(
                        ErrorCode::XPTY0018,
                        "path step result mixes nodes and atomic values",
                    ))
                }
            }
        }
    }

    /// Append the nodes selected by `axis::test` from `node` to `out`, in
    /// axis order. A `child::name` step compares name ids and makes a
    /// handle only for a match; every node examined counts as visited.
    fn axis_nodes(
        &self,
        axis: Axis,
        node: &NodeHandle,
        test: &NodeTestIr,
        out: &mut impl Extend<Item>,
    ) {
        let stats = &self.stats;
        let mut visited = 0u64;
        let mut walked = 0u64;
        let keep = |n: &NodeHandle| test_matches(test, n, false);
        match axis {
            Axis::Child => match test {
                NodeTestIr::Name(name) => {
                    let mut named = node.child_elements_named(name);
                    out.extend(named.by_ref().map(Item::Node));
                    visited += named.examined();
                }
                _ => out.extend(
                    node.children()
                        .inspect(|_| visited += 1)
                        .filter(keep)
                        .map(Item::Node),
                ),
            },
            Axis::Attribute => out.extend(
                node.attributes()
                    .inspect(|_| visited += 1)
                    .filter(|n| test_matches(test, n, true))
                    .map(Item::Node),
            ),
            Axis::Descendant => out.extend(
                node.descendants()
                    .inspect(|_| visited += 1)
                    .filter(keep)
                    .inspect(|_| walked += 1)
                    .map(Item::Node),
            ),
            Axis::DescendantOrSelf => out.extend(
                node.descendants_or_self()
                    .inspect(|_| visited += 1)
                    .filter(keep)
                    .inspect(|_| walked += 1)
                    .map(Item::Node),
            ),
            Axis::SelfAxis => {
                visited += 1;
                out.extend(keep(node).then(|| Item::Node(node.clone())));
            }
            Axis::Parent => {
                visited += 1;
                out.extend(node.parent().filter(keep).map(Item::Node));
            }
            Axis::Ancestor => out.extend(
                node.ancestors()
                    .inspect(|_| visited += 1)
                    .filter(keep)
                    .map(Item::Node),
            ),
            Axis::AncestorOrSelf => out.extend(
                std::iter::once(node.clone())
                    .chain(node.ancestors())
                    .inspect(|_| visited += 1)
                    .filter(keep)
                    .map(Item::Node),
            ),
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                let Some(parent) = node.parent() else {
                    return;
                };
                let siblings: Vec<NodeHandle> = parent.children().collect();
                visited += siblings.len() as u64;
                let pos = siblings
                    .iter()
                    .position(|s| s.is_same_node(node))
                    .expect("node is among its parent's children");
                if axis == Axis::FollowingSibling {
                    out.extend(
                        siblings[pos + 1..]
                            .iter()
                            .filter(|n| keep(n))
                            .cloned()
                            .map(Item::Node),
                    );
                } else {
                    // Axis order: nearest sibling first.
                    out.extend(
                        siblings[..pos]
                            .iter()
                            .rev()
                            .filter(|n| keep(n))
                            .cloned()
                            .map(Item::Node),
                    );
                }
            }
        }
        stats.nodes_visited.add(visited);
        if matches!(axis, Axis::Descendant | Axis::DescendantOrSelf) {
            stats.scan_walk_tuples.add(walked);
        }
    }

    /// Run `predicates` over the candidates `out[start..]` of one origin
    /// node, keeping the survivors in their place.
    fn filter_tail(
        &self,
        out: &mut Vec<Item>,
        start: usize,
        predicates: &[Ir],
        env: &mut Env,
    ) -> EngineResult<()> {
        if !predicates.is_empty() {
            let candidates: Sequence = out.drain(start..).collect::<Vec<_>>().into();
            out.extend(self.apply_predicates(candidates, predicates, env)?);
        }
        Ok(())
    }

    /// Apply predicates to a sequence with the usual focus/positional
    /// semantics (forward order).
    pub(crate) fn apply_predicates(
        &self,
        seq: Sequence,
        predicates: &[Ir],
        env: &mut Env,
    ) -> EngineResult<Sequence> {
        let mut current = seq;
        for pred in predicates {
            let size = current.len() as i64;
            let saved = env.focus.take();
            let mut kept: Vec<Item> = Vec::with_capacity(current.len());
            let mut failure: Option<EngineError> = None;
            for (i, item) in current.iter().enumerate() {
                let position = i as i64 + 1;
                env.focus = Some(Focus {
                    item: item.clone(),
                    position,
                    size,
                });
                match self.eval(pred, env) {
                    Ok(value) => match predicate_truth(&value, position) {
                        Ok(true) => kept.push(item.clone()),
                        Ok(false) => {}
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    },
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            env.focus = saved;
            if let Some(e) = failure {
                return Err(e);
            }
            current = kept.into();
        }
        Ok(current)
    }

    // ---- constructors ---------------------------------------------------

    /// Construct `el` once per row, all rows into one arena: one
    /// builder and one `finish` however many rows. Each row's element
    /// sits under a document node of its own
    /// ([`DocumentBuilder::start_root`]), so `root()`, `..`, `is` and
    /// `<<` between rows answer as they would with a document per row.
    /// `bind` installs a row's bindings before its element is built;
    /// the elements go to `out` in row order.
    pub(crate) fn construct_rows<T>(
        &self,
        el: &ElementIr,
        rows: &[T],
        env: &mut Env,
        mut bind: impl FnMut(&T, &mut Env),
        out: &mut SequenceBuilder,
    ) -> EngineResult<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut b = DocumentBuilder::new();
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                b.start_root();
            }
            bind(row, env);
            self.construct_element(&mut b, el, env)?;
        }
        let doc = b.finish();
        let mut root: NodeId = 0;
        for _ in rows {
            let element = doc.first_child_of(root).expect("each root holds its row");
            out.push(Item::Node(doc.handle(element).expect("a node of doc")));
            root = doc.subtree_end(root) + 1;
        }
        Ok(())
    }

    fn construct_element(
        &self,
        b: &mut DocumentBuilder,
        el: &ElementIr,
        env: &mut Env,
    ) -> EngineResult<()> {
        let name = b.intern(&el.name);
        b.start_element_id(name);
        for (name, parts) in &el.attributes {
            let name = b.intern(name);
            b.attribute_id(name, "");
            for part in parts {
                match part {
                    AttrPartIr::Literal(s) => {
                        b.append_attribute_value(s);
                    }
                    AttrPartIr::Enclosed(e) => {
                        let v = self.eval(unwrap_data(e), env)?;
                        write_atomized(&v, &mut |s| {
                            b.append_attribute_value(s);
                        });
                    }
                }
            }
        }
        let mut content_started = false;
        for part in &el.content {
            match part {
                ContentIr::Literal(s) => {
                    content_started = true;
                    b.text(s);
                }
                ContentIr::Child(ir) => match ir {
                    // Nested direct constructors build straight into the
                    // parent's arena — no temporary document.
                    Ir::Element(child) => {
                        content_started = true;
                        self.construct_element(b, child, env)?;
                    }
                    Ir::Comment(text) => {
                        content_started = true;
                        b.comment(&**text);
                    }
                    Ir::Pi(target, data) => {
                        content_started = true;
                        b.processing_instruction(target.clone(), &**data);
                    }
                    other => {
                        let v = self.eval(other, env)?;
                        self.insert_content(b, &v, &mut content_started)?;
                    }
                },
                // `{data(E)}` is all atomics, so it is text: written
                // straight into the arena, no atomic values built.
                ContentIr::Enclosed(e @ Ir::CallBuiltin(Builtin::Data, _)) => {
                    let v = self.eval(unwrap_data(e), env)?;
                    content_started |= !v.is_empty();
                    write_atomized(&v, &mut |s| {
                        b.text(s);
                    });
                }
                ContentIr::Enclosed(e) => {
                    let v = self.eval(e, env)?;
                    self.insert_content(b, &v, &mut content_started)?;
                }
            }
        }
        b.end_element();
        Ok(())
    }

    /// Insert an evaluated sequence as element content: adjacent atomic
    /// values join with single spaces into text; nodes are deep-copied;
    /// attribute nodes become attributes (only before other content).
    fn insert_content(
        &self,
        b: &mut DocumentBuilder,
        seq: &[Item],
        content_started: &mut bool,
    ) -> EngineResult<()> {
        let mut pending_text = String::new();
        let mut have_pending = false;
        for item in seq {
            match item {
                Item::Atomic(v) => {
                    if have_pending {
                        pending_text.push(' ');
                    }
                    pending_text.push_str(&v.string_value());
                    have_pending = true;
                }
                Item::Node(n) => {
                    if have_pending {
                        *content_started = true;
                        b.text(&pending_text);
                        pending_text.clear();
                        have_pending = false;
                    }
                    if n.kind() == NodeKind::Attribute {
                        if *content_started {
                            return Err(EngineError::dynamic(
                                ErrorCode::XQTY0024,
                                "attribute node after element content",
                            ));
                        }
                        let name = b.intern(n.name().expect("attribute has a name"));
                        b.attribute_id(name, n.raw_text().unwrap_or(""));
                    } else {
                        *content_started = true;
                        b.copy_node(n);
                    }
                }
            }
        }
        if have_pending {
            *content_started = true;
            b.text(&pending_text);
        }
        Ok(())
    }
}

// ---- helpers --------------------------------------------------------

pub(crate) fn no_context(what: &str) -> EngineError {
    EngineError::dynamic(
        ErrorCode::XPDY0002,
        format!("{what} used with no context item"),
    )
}

fn overflow() -> EngineError {
    EngineError::dynamic(ErrorCode::FOAR0002, "integer overflow")
}

/// Truth of a predicate value at `position`: singleton numerics are
/// positional tests, everything else uses the effective boolean value.
fn predicate_truth(value: &[Item], position: i64) -> EngineResult<bool> {
    if let [Item::Atomic(v)] = value {
        match v {
            AtomicValue::Integer(i) => return Ok(*i == position),
            AtomicValue::Decimal(d) => {
                return Ok(d.is_integer() && d.to_i64()? == position);
            }
            AtomicValue::Double(d) => {
                return Ok(d.fract() == 0.0 && *d == position as f64);
            }
            _ => {}
        }
    }
    effective_boolean_value(value).map_err(EngineError::from)
}

/// Atomized optional singleton.
pub(crate) fn opt_atomic(seq: &[Item], what: &str) -> EngineResult<Option<AtomicValue>> {
    Ok(opt_item(seq, what)?.map(Item::atomize))
}

/// Optional singleton.
fn opt_item<'s>(seq: &'s [Item], what: &str) -> EngineResult<Option<&'s Item>> {
    match seq {
        [] => Ok(None),
        [item] => Ok(Some(item)),
        _ => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one item, got {}", seq.len()),
        )),
    }
}

fn opt_node(seq: &[Item], what: &str) -> EngineResult<Option<NodeHandle>> {
    match seq {
        [] => Ok(None),
        [Item::Node(n)] => Ok(Some(n.clone())),
        [Item::Atomic(_)] => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: expected a node"),
        )),
        _ => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one node, got {}", seq.len()),
        )),
    }
}

// ---- scalar kernels -------------------------------------------------
//
// Each kernel is the single implementation of one scalar op's dynamic
// semantics. Constant folding (`crate::fold`) calls `eval_neg` and
// `eval_arith` too, so a folded constant is the value the evaluator
// would compute.

/// Unary minus over an atomized optional numeric singleton.
pub(crate) fn eval_neg(v: &[Item]) -> EngineResult<Sequence> {
    match opt_numeric(v, "unary minus")? {
        None => Ok(Sequence::Empty),
        Some(AtomicValue::Integer(i)) => Ok(Sequence::one(i.checked_neg().ok_or_else(overflow)?)),
        Some(AtomicValue::Decimal(d)) => {
            Ok(Sequence::one(Item::Atomic(AtomicValue::Decimal(d.neg()))))
        }
        Some(AtomicValue::Double(d)) => Ok(Sequence::one(-d)),
        Some(_) => unreachable!("opt_numeric returns numerics"),
    }
}

/// Value comparison (`eq`, `lt`, ...): optional singletons, untyped
/// operands compared as strings, empty when either side is empty.
fn eval_value_comp(
    op: xqa_xdm::CompOp,
    lhs: &[Item],
    rhs: &[Item],
    stats: &EvalStats,
) -> EngineResult<Sequence> {
    let l = opt_item(lhs, "value comparison")?;
    let r = opt_item(rhs, "value comparison")?;
    match (l, r) {
        (Some(l), Some(r)) => {
            stats.comparisons.add(1);
            Ok(Sequence::one(
                xqa_xdm::value_compare_items(l, r, op).map_err(EngineError::from)?,
            ))
        }
        _ => Ok(Sequence::Empty),
    }
}

/// General (existential) comparison (`=`, `<`, ...).
fn eval_general_comp(
    op: xqa_xdm::CompOp,
    lhs: &[Item],
    rhs: &[Item],
    stats: &EvalStats,
) -> EngineResult<Sequence> {
    stats.comparisons.add((lhs.len() * rhs.len()) as u64);
    Ok(Sequence::one(
        general_compare(lhs, rhs, op).map_err(EngineError::from)?,
    ))
}

/// `cast as`: empty input is an error unless the target is optional.
fn eval_cast(v: &[Item], target: CastTarget, optional: bool) -> EngineResult<Sequence> {
    match opt_atomic(v, "cast")? {
        None => {
            if optional {
                Ok(Sequence::Empty)
            } else {
                Err(EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    "cast of an empty sequence (use 'cast as T?' to allow it)",
                ))
            }
        }
        Some(v) => Ok(Sequence::one(Item::Atomic(cast_atomic(&v, target)?))),
    }
}

/// `castable as` — never raises; multi-item inputs are simply not
/// castable.
fn eval_castable(v: &[Item], target: CastTarget, optional: bool) -> Sequence {
    let ok = match opt_atomic(v, "castable") {
        Err(_) => false, // more than one item is never castable
        Ok(None) => optional,
        Ok(Some(v)) => cast_atomic(&v, target).is_ok(),
    };
    Sequence::one(ok)
}

/// A range bound: an atomized optional numeric singleton coerced to an
/// integer (whole doubles allowed, anything fractional is a type error).
fn range_bound(v: &[Item], what: &str) -> EngineResult<Option<i64>> {
    match opt_numeric(v, what)? {
        None => Ok(None),
        Some(AtomicValue::Integer(i)) => Ok(Some(i)),
        Some(AtomicValue::Decimal(d)) => Ok(Some(d.to_i64()?)),
        Some(AtomicValue::Double(d)) => {
            if d.fract() == 0.0 && d.is_finite() {
                Ok(Some(d as i64))
            } else {
                Err(EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    format!("{what}: not an integer"),
                ))
            }
        }
        Some(_) => unreachable!("opt_numeric returns numerics"),
    }
}

/// Atomized optional singleton coerced to a numeric (untyped → double).
fn opt_numeric(seq: &[Item], what: &str) -> EngineResult<Option<AtomicValue>> {
    match opt_atomic(seq, what)? {
        None => Ok(None),
        Some(AtomicValue::Untyped(s)) => Ok(Some(AtomicValue::Double(
            xqa_xdm::parse_double(&s).map_err(EngineError::from)?,
        ))),
        Some(v @ (AtomicValue::Integer(_) | AtomicValue::Decimal(_) | AtomicValue::Double(_))) => {
            Ok(Some(v))
        }
        Some(other) => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: expected a number, got {}", other.atomic_type()),
        )),
    }
}

/// Arithmetic with the integer → decimal → double promotion ladder.
pub(crate) fn eval_arith(op: ArithOp, lhs: &[Item], rhs: &[Item]) -> EngineResult<Sequence> {
    let a = opt_numeric(lhs, "arithmetic")?;
    let b = opt_numeric(rhs, "arithmetic")?;
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(Sequence::Empty),
    };
    use AtomicValue as V;
    let out = match (&a, &b) {
        (V::Double(_), _) | (_, V::Double(_)) => {
            let x = a.to_double()?;
            let y = b.to_double()?;
            double_arith(op, x, y)?
        }
        (V::Integer(x), V::Integer(y)) => integer_arith(op, *x, *y)?,
        _ => {
            let x = to_decimal(&a)?;
            let y = to_decimal(&b)?;
            decimal_arith(op, &x, &y)?
        }
    };
    Ok(Sequence::one(Item::Atomic(out)))
}

fn to_decimal(v: &AtomicValue) -> EngineResult<Decimal> {
    Ok(match v {
        AtomicValue::Integer(i) => Decimal::from_i64(*i),
        AtomicValue::Decimal(d) => *d,
        _ => unreachable!("filtered by eval_arith"),
    })
}

fn integer_arith(op: ArithOp, x: i64, y: i64) -> EngineResult<AtomicValue> {
    Ok(match op {
        ArithOp::Add => AtomicValue::Integer(x.checked_add(y).ok_or_else(overflow)?),
        ArithOp::Sub => AtomicValue::Integer(x.checked_sub(y).ok_or_else(overflow)?),
        ArithOp::Mul => AtomicValue::Integer(x.checked_mul(y).ok_or_else(overflow)?),
        ArithOp::Div => {
            // Integer ÷ integer is a decimal in XQuery.
            AtomicValue::Decimal(Decimal::from_i64(x).checked_div(&Decimal::from_i64(y))?)
        }
        ArithOp::IDiv => {
            if y == 0 {
                return Err(EngineError::dynamic(
                    ErrorCode::FOAR0001,
                    "integer division by zero",
                ));
            }
            AtomicValue::Integer(x.checked_div(y).ok_or_else(overflow)?)
        }
        ArithOp::Mod => {
            if y == 0 {
                return Err(EngineError::dynamic(ErrorCode::FOAR0001, "modulus by zero"));
            }
            AtomicValue::Integer(x % y)
        }
    })
}

fn decimal_arith(op: ArithOp, x: &Decimal, y: &Decimal) -> EngineResult<AtomicValue> {
    Ok(match op {
        ArithOp::Add => AtomicValue::Decimal(x.checked_add(y)?),
        ArithOp::Sub => AtomicValue::Decimal(x.checked_sub(y)?),
        ArithOp::Mul => AtomicValue::Decimal(x.checked_mul(y)?),
        ArithOp::Div => AtomicValue::Decimal(x.checked_div(y)?),
        ArithOp::IDiv => {
            AtomicValue::Integer(i64::try_from(x.checked_idiv(y)?).map_err(|_| overflow())?)
        }
        ArithOp::Mod => AtomicValue::Decimal(x.checked_rem(y)?),
    })
}

fn double_arith(op: ArithOp, x: f64, y: f64) -> EngineResult<AtomicValue> {
    Ok(match op {
        ArithOp::Add => AtomicValue::Double(x + y),
        ArithOp::Sub => AtomicValue::Double(x - y),
        ArithOp::Mul => AtomicValue::Double(x * y),
        ArithOp::Div => AtomicValue::Double(x / y),
        ArithOp::IDiv => {
            if y == 0.0 || y.is_nan() || x.is_nan() || x.is_infinite() {
                return Err(EngineError::dynamic(
                    ErrorCode::FOAR0001,
                    "invalid operands to idiv",
                ));
            }
            AtomicValue::Integer((x / y).trunc() as i64)
        }
        ArithOp::Mod => AtomicValue::Double(x % y),
    })
}

/// The name of a predicate-free `axis::Name` step.
fn plain_step(step: &StepIr, axis: Axis) -> Option<&xqa_xdm::QName> {
    match step {
        StepIr::Axis {
            axis: a,
            test: NodeTestIr::Name(name),
            predicates,
        } if *a == axis && predicates.is_empty() => Some(name),
        _ => None,
    }
}

/// Handles on the nodes `ids` of `doc`, in that order.
fn handles(doc: &Arc<Document>, ids: &[NodeId]) -> Sequence {
    ids.iter()
        .filter_map(|&id| doc.handle(id))
        .map(Item::Node)
        .collect()
}

/// Sort nodes into document order and drop duplicate identities.
pub(crate) fn dedup_sort_document_order(items: &mut Vec<Item>) {
    items.sort_by(|a, b| match (a, b) {
        (Item::Node(x), Item::Node(y)) => x.document_order(y),
        _ => std::cmp::Ordering::Equal,
    });
    items.dedup_by(|a, b| match (a, b) {
        (Item::Node(x), Item::Node(y)) => x.is_same_node(y),
        _ => false,
    });
}

fn node_identity_key(n: &NodeHandle) -> (u64, u32) {
    (n.document().serial(), n.id())
}

fn eval_set_op(op: SetOp, lhs: Sequence, rhs: Sequence) -> EngineResult<Sequence> {
    use std::collections::HashSet;
    let as_nodes = |seq: Sequence| -> EngineResult<Vec<NodeHandle>> {
        seq.into_iter()
            .map(|i| match i {
                Item::Node(n) => Ok(n),
                Item::Atomic(_) => Err(EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    "set operations require node sequences",
                )),
            })
            .collect()
    };
    let l = as_nodes(lhs)?;
    let r = as_nodes(rhs)?;
    let r_ids: HashSet<(u64, u32)> = r.iter().map(node_identity_key).collect();
    let mut out: Vec<Item> = match op {
        SetOp::Union => l.into_iter().chain(r).map(Item::Node).collect(),
        SetOp::Intersect => l
            .into_iter()
            .filter(|n| r_ids.contains(&node_identity_key(n)))
            .map(Item::Node)
            .collect(),
        SetOp::Except => l
            .into_iter()
            .filter(|n| !r_ids.contains(&node_identity_key(n)))
            .map(Item::Node)
            .collect(),
    };
    dedup_sort_document_order(&mut out);
    Ok(out.into())
}

/// Atomize a sequence and join the string values with single spaces
/// (computed constructors).
fn atomize_join(seq: &[Item]) -> String {
    let mut out = String::new();
    write_atomized(seq, &mut |s| out.push_str(s));
    out
}

/// Write the string value of each item of `seq` atomized, single spaces
/// between: the join of attribute values and text constructors, handed
/// over in pieces so a builder can take them without an intermediate
/// string. Strings and leaf nodes lend their text.
fn write_atomized(seq: &[Item], write: &mut impl FnMut(&str)) {
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            write(" ");
        }
        match item {
            Item::Node(n) => match n.leaf_text() {
                Some(text) => write(text),
                None => write(&n.string_value()),
            },
            Item::Atomic(AtomicValue::String(s) | AtomicValue::Untyped(s)) => write(s),
            Item::Atomic(v) => write(&v.string_value()),
        }
    }
}

/// `data(E)` as `E`, for a value about to be written atomized anyway.
fn unwrap_data(e: &Ir) -> &Ir {
    match e {
        Ir::CallBuiltin(Builtin::Data, args) if args.len() == 1 => &args[0],
        e => e,
    }
}

/// Node-test matching; `principal_attribute` is true on the attribute
/// axis, where name tests select attributes.
fn test_matches(test: &NodeTestIr, node: &NodeHandle, principal_attribute: bool) -> bool {
    match test {
        NodeTestIr::AnyKind => true,
        NodeTestIr::Name(q) => {
            let kind_ok = if principal_attribute {
                node.kind() == NodeKind::Attribute
            } else {
                node.kind() == NodeKind::Element
            };
            kind_ok && node.name() == Some(q)
        }
        NodeTestIr::Wildcard => {
            if principal_attribute {
                node.kind() == NodeKind::Attribute
            } else {
                node.kind() == NodeKind::Element
            }
        }
        NodeTestIr::Text => node.kind() == NodeKind::Text,
        NodeTestIr::Comment => node.kind() == NodeKind::Comment,
        NodeTestIr::Pi(target) => {
            node.kind() == NodeKind::ProcessingInstruction
                && target
                    .as_ref()
                    .map(|t| node.name().map(|q| q.local_part() == t).unwrap_or(false))
                    .unwrap_or(true)
        }
        NodeTestIr::Element(name) => {
            node.kind() == NodeKind::Element
                && name
                    .as_ref()
                    .map(|q| node.name() == Some(q))
                    .unwrap_or(true)
        }
        NodeTestIr::Attribute(name) => {
            node.kind() == NodeKind::Attribute
                && name
                    .as_ref()
                    .map(|q| node.name() == Some(q))
                    .unwrap_or(true)
        }
        NodeTestIr::Document => node.kind() == NodeKind::Document,
    }
}
