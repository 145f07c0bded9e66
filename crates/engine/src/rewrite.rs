//! Optimizer rewrites: implicit group-by detection (AST level) and
//! top-k pushdown into `order by` ([`pushdown_topk`], IR level).
//!
//! The paper argues (§2, §7) that recognizing grouping expressed in
//! XQuery-1.0 style — `distinct-values` over a path plus a correlated
//! self-join — is possible for simple patterns but "extremely difficult"
//! in general, which motivates the explicit syntax. This module
//! implements the detection for exactly the two templates of the
//! paper's Table 1:
//!
//! ```text
//! for $a in distinct-values(P/a) (, $b in distinct-values(P/b))?
//! let $items := for $i in P where $i/a = $a (and $i/b = $b)? return $i
//! (where exists($items))?
//! return BODY
//! ```
//!
//! rewriting it to the explicit plan
//!
//! ```text
//! for $item in P
//! group by data($item/a) into $a (, data($item/b) into $b)?
//! nest $item into $items
//! return BODY
//! ```
//!
//! **Equivalence caveat** (this *is* the paper's point): the rewrite is
//! only sound when every item of `P` has exactly one `a` (and `b`)
//! child — items *missing* the key produce no group in the original but
//! an empty-sequence group in the rewritten plan. The paper's workload
//! guarantees "each grouping element occurred exactly once in its
//! parent", and so does ours. The rewrite is opt-in
//! ([`crate::PlanHints::implicit_groupby`]) and is benchmarked
//! in the `ablation` bench.

use xqa_frontend::ast::*;

/// The fresh variable bound to the scanned item in rewritten plans.
const FRESH_ITEM_VAR: &str = "xqa--rewrite-item";

/// Walk the module body, rewriting every FLWOR that matches the Table-1
/// implicit-grouping template. Returns a description per fired rewrite.
pub fn detect_implicit_groupby(module: &mut Module) -> Vec<String> {
    let mut fired = Vec::new();
    rewrite_expr(&mut module.body, &mut fired);
    for f in &mut module.prolog.functions {
        rewrite_expr(&mut f.body, &mut fired);
    }
    for v in &mut module.prolog.variables {
        rewrite_expr(&mut v.init, &mut fired);
    }
    fired
}

fn rewrite_expr(e: &mut Expr, fired: &mut Vec<String>) {
    // Try the match at this node first; then recurse into children
    // (including the rewritten form's return clause).
    if let ExprKind::Flwor(f) = &mut e.kind {
        if let Some(desc) = try_rewrite_flwor(f) {
            fired.push(desc);
        }
    }
    for child in subexpressions_mut(e) {
        rewrite_expr(child, fired);
    }
}

/// Attempt the Table-1 match on one FLWOR; rewrite in place on success.
fn try_rewrite_flwor(f: &mut Flwor) -> Option<String> {
    if f.group_by.is_some() || !f.post_group_clauses.is_empty() || f.post_group_where.is_some() {
        return None;
    }
    // Shape: exactly one for-clause (1..=2 bindings) then one let-clause
    // (1 binding).
    if f.clauses.len() != 2 {
        return None;
    }
    let key_bindings: Vec<(String, Path, Name)> = match &f.clauses[0] {
        InitialClause::For(bindings) if (1..=2).contains(&bindings.len()) => {
            let mut keys = Vec::new();
            for b in bindings {
                if b.at.is_some() {
                    return None;
                }
                let (source, key) = match_distinct_values(&b.expr)?;
                keys.push((b.var.clone(), source, key));
            }
            keys
        }
        _ => return None,
    };
    // All distinct-values calls must scan the same source path.
    let source = key_bindings[0].1.clone();
    if !key_bindings.iter().all(|(_, p, _)| *p == source) {
        return None;
    }
    let (items_var, inner_var) = match &f.clauses[1] {
        InitialClause::Let(bindings) if bindings.len() == 1 => {
            let b = &bindings[0];
            let inner = match_self_join(&b.expr, &source, &key_bindings)?;
            (b.var.clone(), inner)
        }
        _ => return None,
    };
    let _ = inner_var;
    // Outer where must be absent or `exists($items)`.
    if let Some(w) = &f.where_clause {
        if !is_exists_of(w, &items_var) {
            return None;
        }
    }

    // Build the explicit plan.
    let span = Span::default();
    let item_var_ref = Expr::new(ExprKind::VarRef(FRESH_ITEM_VAR.to_string()), span);
    let keys = key_bindings
        .iter()
        .map(|(var, _, key)| GroupKey {
            expr: Expr::new(
                ExprKind::FunctionCall {
                    name: Name::local("data"),
                    args: vec![Expr::new(
                        ExprKind::Path(Box::new(Path {
                            start: PathStart::Expr(item_var_ref.clone()),
                            steps: vec![Step::Axis(AxisStep {
                                axis: Axis::Child,
                                test: NodeTest::Name(key.clone()),
                                predicates: Vec::new(),
                            })],
                        })),
                        span,
                    )],
                },
                span,
            ),
            var: var.clone(),
            using: None,
        })
        .collect();
    let nests = vec![NestBinding {
        expr: item_var_ref,
        order_by: None,
        var: items_var,
    }];
    let description = format!(
        "implicit group-by detected: distinct-values self-join over {} key(s) \
         rewritten to explicit group by",
        key_bindings.len()
    );
    f.clauses = vec![InitialClause::For(vec![ForBinding {
        var: FRESH_ITEM_VAR.to_string(),
        at: None,
        ty: None,
        expr: Expr::new(ExprKind::Path(Box::new(source)), span),
    }])];
    f.where_clause = None;
    f.group_by = Some(GroupByClause { keys, nests });
    Some(description)
}

/// Match `distinct-values(P/key)` where `key` is a trailing child name
/// step; returns (P, key).
fn match_distinct_values(e: &Expr) -> Option<(Path, Name)> {
    let ExprKind::FunctionCall { name, args } = &e.kind else {
        return None;
    };
    if name.prefix.as_deref().map(|p| p != "fn").unwrap_or(false) || name.local != "distinct-values"
    {
        return None;
    }
    let [arg] = args.as_slice() else { return None };
    let ExprKind::Path(p) = &arg.kind else {
        return None;
    };
    let mut steps = p.steps.clone();
    let last = steps.pop()?;
    let Step::Axis(AxisStep {
        axis: Axis::Child,
        test: NodeTest::Name(key),
        predicates,
    }) = last
    else {
        return None;
    };
    if !predicates.is_empty() {
        return None;
    }
    Some((
        Path {
            start: p.start.clone(),
            steps,
        },
        key,
    ))
}

/// Match the correlated self-join
/// `for $i in P where $i/k1 = $a1 (and $i/k2 = $a2)? return $i`.
/// Returns the inner variable name on success.
fn match_self_join(e: &Expr, source: &Path, keys: &[(String, Path, Name)]) -> Option<String> {
    let ExprKind::Flwor(inner) = &e.kind else {
        return None;
    };
    if inner.group_by.is_some() || inner.order_by.is_some() || inner.return_at.is_some() {
        return None;
    }
    let [InitialClause::For(bindings)] = inner.clauses.as_slice() else {
        return None;
    };
    let [binding] = bindings.as_slice() else {
        return None;
    };
    if binding.at.is_some() {
        return None;
    }
    let ExprKind::Path(scan) = &binding.expr.kind else {
        return None;
    };
    if **scan != *source {
        return None;
    }
    let inner_var = binding.var.clone();
    // return must be exactly $i
    if !matches!(&inner.return_expr.kind, ExprKind::VarRef(v) if *v == inner_var) {
        return None;
    }
    // where: conjunction of $i/k = $a covering every key exactly once.
    let where_clause = inner.where_clause.as_ref()?;
    let mut conjuncts = Vec::new();
    collect_conjuncts(where_clause, &mut conjuncts);
    if conjuncts.len() != keys.len() {
        return None;
    }
    let mut matched = vec![false; keys.len()];
    for c in conjuncts {
        let (step_name, var) = match_key_equality(c, &inner_var)?;
        let idx = keys
            .iter()
            .position(|(kvar, _, kname)| *kvar == var && *kname == step_name)?;
        if matched[idx] {
            return None;
        }
        matched[idx] = true;
    }
    matched.iter().all(|&m| m).then_some(inner_var)
}

fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match &e.kind {
        ExprKind::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        _ => out.push(e),
    }
}

/// Match `$i/key = $var` (either operand order). Returns (key, var).
fn match_key_equality(e: &Expr, inner_var: &str) -> Option<(Name, String)> {
    let ExprKind::GeneralComp(Comparison::Eq, lhs, rhs) = &e.kind else {
        return None;
    };
    let try_sides = |path_side: &Expr, var_side: &Expr| -> Option<(Name, String)> {
        let ExprKind::VarRef(var) = &var_side.kind else {
            return None;
        };
        let ExprKind::Path(p) = &path_side.kind else {
            return None;
        };
        let PathStart::Expr(start) = &p.start else {
            return None;
        };
        if !matches!(&start.kind, ExprKind::VarRef(v) if v == inner_var) {
            return None;
        }
        let [Step::Axis(AxisStep {
            axis: Axis::Child,
            test: NodeTest::Name(key),
            predicates,
        })] = p.steps.as_slice()
        else {
            return None;
        };
        if !predicates.is_empty() {
            return None;
        }
        Some((key.clone(), var.clone()))
    };
    try_sides(lhs, rhs).or_else(|| try_sides(rhs, lhs))
}

fn is_exists_of(e: &Expr, var: &str) -> bool {
    let ExprKind::FunctionCall { name, args } = &e.kind else {
        return false;
    };
    if name.prefix.is_some() && name.prefix.as_deref() != Some("fn") {
        return false;
    }
    name.local == "exists"
        && args.len() == 1
        && matches!(&args[0].kind, ExprKind::VarRef(v) if v == var)
}

/// All direct subexpressions, for the recursive walk.
fn subexpressions_mut(e: &mut Expr) -> Vec<&mut Expr> {
    let mut out: Vec<&mut Expr> = Vec::new();
    match &mut e.kind {
        ExprKind::StringLit(_)
        | ExprKind::IntegerLit(_)
        | ExprKind::DecimalLit(_)
        | ExprKind::DoubleLit(_)
        | ExprKind::VarRef(_)
        | ExprKind::ContextItem
        | ExprKind::DirectComment(_)
        | ExprKind::DirectPi(..) => {}
        ExprKind::Sequence(items) => out.extend(items.iter_mut()),
        ExprKind::Range(a, b)
        | ExprKind::Arith(_, a, b)
        | ExprKind::GeneralComp(_, a, b)
        | ExprKind::ValueComp(_, a, b)
        | ExprKind::NodeComp(_, a, b)
        | ExprKind::And(a, b)
        | ExprKind::Or(a, b)
        | ExprKind::SetOp(_, a, b) => {
            out.push(a);
            out.push(b);
        }
        ExprKind::Unary(_, a)
        | ExprKind::InstanceOf(a, _)
        | ExprKind::CastAs(a, _, _)
        | ExprKind::CastableAs(a, _, _)
        | ExprKind::ComputedText(Some(a)) => out.push(a),
        ExprKind::ComputedText(None) => {}
        ExprKind::If {
            cond,
            then,
            otherwise,
        } => {
            out.push(cond);
            out.push(then);
            out.push(otherwise);
        }
        ExprKind::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            out.extend(bindings.iter_mut().map(|(_, e)| e));
            out.push(satisfies);
        }
        ExprKind::Flwor(f) => {
            for clause in &mut f.clauses {
                match clause {
                    InitialClause::For(bs) => out.extend(bs.iter_mut().map(|b| &mut b.expr)),
                    InitialClause::Let(bs) => out.extend(bs.iter_mut().map(|b| &mut b.expr)),
                    InitialClause::Count(_) => {}
                    InitialClause::Window(w) => {
                        out.push(&mut w.expr);
                        out.push(&mut w.start.when);
                        if let Some(end) = &mut w.end {
                            out.push(&mut end.when);
                        }
                    }
                }
            }
            if let Some(w) = &mut f.where_clause {
                out.push(w);
            }
            if let Some(g) = &mut f.group_by {
                out.extend(g.keys.iter_mut().map(|k| &mut k.expr));
                for n in &mut g.nests {
                    out.push(&mut n.expr);
                    if let Some(ob) = &mut n.order_by {
                        out.extend(ob.specs.iter_mut().map(|s| &mut s.expr));
                    }
                }
            }
            for clause in &mut f.post_group_clauses {
                if let PostGroupClause::Let(b) = clause {
                    out.push(&mut b.expr);
                }
            }
            if let Some(w) = &mut f.post_group_where {
                out.push(w);
            }
            if let Some(ob) = &mut f.order_by {
                out.extend(ob.specs.iter_mut().map(|s| &mut s.expr));
            }
            out.push(&mut f.return_expr);
        }
        ExprKind::Path(p) => {
            if let PathStart::Expr(start) = &mut p.start {
                out.push(start);
            }
            for step in &mut p.steps {
                match step {
                    Step::Axis(s) => out.extend(s.predicates.iter_mut()),
                    Step::Expr { expr, predicates } => {
                        out.push(expr);
                        out.extend(predicates.iter_mut());
                    }
                }
            }
        }
        ExprKind::Filter { base, predicates } => {
            out.push(base);
            out.extend(predicates.iter_mut());
        }
        ExprKind::FunctionCall { args, .. } => out.extend(args.iter_mut()),
        ExprKind::DirectElement(el) => {
            for (_, parts) in &mut el.attributes {
                for part in parts {
                    if let AttrPart::Enclosed(e) = part {
                        out.push(e);
                    }
                }
            }
            for part in &mut el.content {
                match part {
                    ContentPart::Enclosed(e) | ContentPart::Child(e) => out.push(e),
                    ContentPart::Literal(_) => {}
                }
            }
        }
        ExprKind::ComputedElement { content, .. } | ExprKind::ComputedAttribute { content, .. } => {
            if let Some(c) = content {
                out.push(c);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Top-k pushdown (IR level)
// ---------------------------------------------------------------------

/// Detect positional bounds over a sorted FLWOR — `(for ... order by ...
/// return E)[position() le k]`, the bare `[k]` form, or
/// `fn:subsequence(flwor, 1, k)` — and push `limit k` into the
/// [`crate::ir::OrderByIr`], so the streaming pipeline's order-by runs a
/// bounded binary heap (O(n log k)) instead of a full sort.
///
/// The residual predicate is left in place, so the rewrite never changes
/// results: the pipeline still applies the positional filter to the (at
/// most k) returned items. Limiting the *tuple* stream to k is only sound when
/// the return expression contributes exactly one item per tuple, so the
/// rewrite is gated on a conservative single-item check (constructors
/// and literals).
pub fn pushdown_topk(query: &mut crate::ir::CompiledQuery) -> Vec<String> {
    let mut fired = Vec::new();
    for g in &mut query.globals {
        let loc = format!("global ${}", g.name);
        pushdown_ir(&mut g.init, &loc, &mut fired);
    }
    for f in &mut query.functions {
        let loc = format!("function {}#{}", f.name, f.arity);
        pushdown_ir(&mut f.body, &loc, &mut fired);
    }
    pushdown_ir(&mut query.body, "query body", &mut fired);
    fired
}

fn pushdown_ir(ir: &mut crate::ir::Ir, loc: &str, fired: &mut Vec<String>) {
    use crate::ir::Ir;
    match ir {
        Ir::Filter { base, predicates } => {
            // Only a *leading* positional bound is a prefix of the tuple
            // stream; predicates after another filter see renumbered
            // positions.
            if let (Ir::Flwor(f), Some(first)) = (&mut **base, predicates.first()) {
                if let Some(k) = positional_bound(first) {
                    try_limit_flwor(f, k, loc, fired);
                }
            }
        }
        Ir::CallBuiltin(crate::functions::Builtin::Subsequence, args) => {
            if let [Ir::Flwor(_), Ir::Int(1), Ir::Int(len)] = args.as_slice() {
                let k = (*len).max(0) as usize;
                let Ir::Flwor(f) = &mut args[0] else {
                    unreachable!()
                };
                try_limit_flwor(f, k, loc, fired);
            }
        }
        _ => {}
    }
    for child in crate::fold::child_irs(ir) {
        pushdown_ir(child, loc, fired);
    }
}

/// Apply `limit k` to the FLWOR's trailing order-by, if it has one and
/// the return expression is provably one item per tuple.
fn try_limit_flwor(f: &mut crate::ir::FlworIr, k: usize, loc: &str, fired: &mut Vec<String>) {
    use crate::ir::ClauseIr;
    if !single_item_return(&f.return_expr) {
        return;
    }
    let Some(ClauseIr::OrderBy(ob)) = f.clauses.last_mut() else {
        return;
    };
    let limit = ob.limit.map_or(k, |old| old.min(k));
    ob.limit = Some(limit);
    fired.push(format!(
        "top-k pushdown: order by bounded to a {limit}-tuple heap (in {loc})"
    ));
}

/// The `k` of a positional prefix bound, if the predicate is one:
/// `position() le k`, `position() lt k`, their flipped forms, or a bare
/// integer literal `[k]` (which selects position k, contained in the
/// k-prefix).
fn positional_bound(pred: &crate::ir::Ir) -> Option<usize> {
    use crate::ir::Ir;
    use xqa_xdm::CompOp;
    let as_k = |n: i64| Some(n.max(0) as usize);
    match pred {
        Ir::Int(n) => as_k(*n),
        Ir::ValueComp(op, a, b) | Ir::GeneralComp(op, a, b) => {
            match (is_position_call(a), &**b, &**a, is_position_call(b), op) {
                (true, Ir::Int(n), _, _, CompOp::Le) => as_k(*n),
                (true, Ir::Int(n), _, _, CompOp::Lt) => as_k(*n - 1),
                (_, _, Ir::Int(n), true, CompOp::Ge) => as_k(*n),
                (_, _, Ir::Int(n), true, CompOp::Gt) => as_k(*n - 1),
                _ => None,
            }
        }
        _ => None,
    }
}

fn is_position_call(ir: &crate::ir::Ir) -> bool {
    matches!(
        ir,
        crate::ir::Ir::CallBuiltin(crate::functions::Builtin::Position, args) if args.is_empty()
    )
}

/// Conservatively: does the return expression yield exactly one item per
/// tuple? (Constructors always produce one node; literals one value.)
fn single_item_return(ir: &crate::ir::Ir) -> bool {
    use crate::ir::Ir;
    matches!(
        ir,
        Ir::Element(_)
            | Ir::Comment(_)
            | Ir::Pi(..)
            | Ir::Str(_)
            | Ir::Int(_)
            | Ir::Dec(_)
            | Ir::Dbl(_)
    )
}

// ---- descendant-step fusion ------------------------------------------

/// Fuse `descendant-or-self::node()/child::T` step pairs (the expansion
/// of `//T`) into a single `descendant::T` step.
///
/// The expanded form materializes *every* node of the subtree as an
/// intermediate sequence, document-orders it, and then runs the child
/// step once per node — on a streaming scan that intermediate dwarfs
/// the useful output. The fused form is the textbook identity: every
/// descendant is a child of exactly one `descendant-or-self` node, so
/// `descendant::T` selects the same nodes in the same order for any
/// node test `T`. Fusion is skipped when either step carries
/// predicates, because predicates are evaluated per *context* node and
/// positional predicates would renumber.
pub fn fuse_descendant_paths(query: &mut crate::ir::CompiledQuery) -> Vec<String> {
    let mut fired = Vec::new();
    let mut record = |fused: usize, loc: &str| {
        if fused > 0 {
            fired.push(format!(
                "path fusion: {fused} descendant-or-self/child step pair(s) \
                 fused into a single descendant scan (in {loc})"
            ));
        }
    };
    for g in &mut query.globals {
        let mut fused = 0usize;
        fuse_ir(&mut g.init, &mut fused);
        record(fused, &format!("global ${}", g.name));
    }
    for f in &mut query.functions {
        let mut fused = 0usize;
        fuse_ir(&mut f.body, &mut fused);
        record(fused, &format!("function {}#{}", f.name, f.arity));
    }
    let mut fused = 0usize;
    fuse_ir(&mut query.body, &mut fused);
    record(fused, "query body");
    fired
}

fn fuse_ir(ir: &mut crate::ir::Ir, fused: &mut usize) {
    if let crate::ir::Ir::Path(p) = ir {
        fuse_steps(&mut p.steps, fused);
    }
    for child in crate::fold::child_irs(ir) {
        fuse_ir(child, fused);
    }
}

fn fuse_steps(steps: &mut Vec<crate::ir::StepIr>, fused: &mut usize) {
    use crate::ir::{NodeTestIr, StepIr};
    use xqa_frontend::ast::Axis;
    let mut i = 0;
    while i + 1 < steps.len() {
        let slash_slash = matches!(
            &steps[i],
            StepIr::Axis {
                axis: Axis::DescendantOrSelf,
                test: NodeTestIr::AnyKind,
                predicates,
            } if predicates.is_empty()
        );
        let plain_child = matches!(
            &steps[i + 1],
            StepIr::Axis {
                axis: Axis::Child,
                predicates,
                ..
            } if predicates.is_empty()
        );
        if slash_slash && plain_child {
            let StepIr::Axis { test, .. } = steps.remove(i + 1) else {
                unreachable!("matched an axis step above")
            };
            steps[i] = StepIr::Axis {
                axis: Axis::Descendant,
                test,
                predicates: Vec::new(),
            };
            *fused += 1;
        }
        i += 1;
    }
}

// ---- index-scan annotation -------------------------------------------

/// Without a hint, a descendant scan is only index-annotated when the
/// scanned name accounts for at most this fraction of all catalog
/// elements. Above it, the walk visits about as many nodes as the
/// posting list holds, so the index buys nothing but handle churn.
const MAX_INDEX_SELECTIVITY: f64 = 0.5;

/// Without a hint, join unnesting declines to build a hash table the
/// planner expects to exceed this many rows (it would trade O(n·m) time
/// for an oversized materialization); `join=hash` ignores the bound.
pub const MAX_HASH_BUILD_ROWS: u64 = 10_000_000;

/// Annotate leading `descendant::T` path steps with an index access
/// path (see [`crate::ir::AccessPathIr`]). `hint` is
/// [`crate::PlanHints::index_scan`]: `Some(false)` never annotates,
/// `Some(true)` annotates every matching shape, `None` annotates where
/// the attached catalog statistics favor the index (nowhere without
/// statistics). Two shapes qualify:
///
/// - `descendant::T` with no predicates → [`AccessPathIr::IndexDescendant`]:
///   a label-range slice of `T`'s element postings.
/// - `descendant::T[c = literal]` (either operand order, `c` a plain
///   child name step from the context, the literal a string or numeric
///   constant) → [`AccessPathIr::IndexValueEq`]: candidate parents from
///   the typed-value index, residual predicate re-evaluated. The exact
///   shape guarantees the predicate is position-free, so prefiltering
///   cannot renumber anything; without a hint the statistics must also
///   confirm the value index answers exactly (every `c` is a leaf, and
///   for numeric probes every value parses as `xs:double` — otherwise
///   the walk could raise a cast error the index would skip).
///
/// The annotation is a plan-time *choice*, not a promise: the evaluator
/// still falls back to the walk per context item when no store covers
/// its document or the store's gates refuse, so results are always
/// byte-identical to the walk.
pub fn annotate_index_scans(
    query: &mut crate::ir::CompiledQuery,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
) -> Vec<String> {
    if hint == Some(false) || (hint.is_none() && stats.is_none()) {
        return Vec::new();
    }
    let mut fired = Vec::new();
    let mut record = |notes: Vec<String>, loc: &str| {
        fired.extend(
            notes
                .into_iter()
                .map(|n| format!("index scan: {n} (in {loc})")),
        );
    };
    for g in &mut query.globals {
        let mut notes = Vec::new();
        annotate_ir(&mut g.init, hint, stats, &mut notes);
        record(notes, &format!("global ${}", g.name));
    }
    for f in &mut query.functions {
        let mut notes = Vec::new();
        annotate_ir(&mut f.body, hint, stats, &mut notes);
        record(notes, &format!("function {}#{}", f.name, f.arity));
    }
    let mut notes = Vec::new();
    annotate_ir(&mut query.body, hint, stats, &mut notes);
    record(notes, "query body");
    fired
}

fn annotate_ir(
    ir: &mut crate::ir::Ir,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
    notes: &mut Vec<String>,
) {
    if let crate::ir::Ir::Path(p) = ir {
        fuse_value_eq_shape(p);
        if let Some((access, note)) = choose_access_path(p, hint, stats) {
            p.access = access;
            notes.push(note);
        }
    }
    for child in crate::fold::child_irs(ir) {
        annotate_ir(child, hint, stats, notes);
    }
}

/// Fuse the leading `descendant-or-self::node()/child::T[c = literal]`
/// pair into `descendant::T[c = literal]` so the value-eq index shape
/// can match. The general fusion pass skips predicated child steps
/// because positional predicates renumber under fusion; the value-eq
/// shape is position-free by construction (an existential `=` over a
/// plain child step and a literal), so the selected node set is
/// identical either way.
fn fuse_value_eq_shape(p: &mut crate::ir::PathIr) {
    use crate::ir::{NodeTestIr, StepIr};
    use xqa_frontend::ast::Axis;
    let leading_slash_slash = matches!(
        p.steps.first(),
        Some(StepIr::Axis {
            axis: Axis::DescendantOrSelf,
            test: NodeTestIr::AnyKind,
            predicates,
        }) if predicates.is_empty()
    );
    if !leading_slash_slash {
        return;
    }
    let fusable = matches!(
        p.steps.get(1),
        Some(StepIr::Axis {
            axis: Axis::Child,
            test: NodeTestIr::Name(_),
            predicates,
        }) if matches!(predicates.as_slice(), [pred] if match_value_eq_predicate(pred).is_some())
    );
    if !fusable {
        return;
    }
    let StepIr::Axis {
        test, predicates, ..
    } = p.steps.remove(1)
    else {
        unreachable!("matched an axis step above")
    };
    p.steps[0] = StepIr::Axis {
        axis: Axis::Descendant,
        test,
        predicates,
    };
}

/// Decide the access path for one compiled path, if an index shape
/// matches. Returns the annotation plus its rewrite-note text.
fn choose_access_path(
    p: &crate::ir::PathIr,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
) -> Option<(crate::ir::AccessPathIr, String)> {
    use crate::ir::{AccessPathIr, NodeTestIr, StepIr};
    use xqa_frontend::ast::Axis;
    let StepIr::Axis {
        axis: Axis::Descendant,
        test: NodeTestIr::Name(name),
        predicates,
    } = p.steps.first()?
    else {
        return None;
    };
    match predicates.as_slice() {
        [] => {
            if hint.is_none() {
                let stats = stats?;
                let selectivity = stats.descendant_selectivity(name);
                if selectivity > MAX_INDEX_SELECTIVITY {
                    return None;
                }
                return Some((
                    AccessPathIr::IndexDescendant,
                    format!(
                        "descendant scan //{name} resolved via label-range postings \
                         (selectivity {selectivity:.3})"
                    ),
                ));
            }
            Some((
                AccessPathIr::IndexDescendant,
                format!("descendant scan //{name} resolved via label-range postings (forced)"),
            ))
        }
        [pred] => {
            let (child, probe) = match_value_eq_predicate(pred)?;
            if hint.is_none() {
                let stats = stats?;
                let numeric = matches!(probe, crate::ir::ValueProbeIr::Num(_));
                if !stats.value_eq_indexable(&child, numeric) {
                    return None;
                }
            }
            let desc = match &probe {
                crate::ir::ValueProbeIr::Str(s) => format!("//{name}[{child} = {s:?}]"),
                crate::ir::ValueProbeIr::Num(v) => format!("//{name}[{child} = {v}]"),
            };
            Some((
                AccessPathIr::IndexValueEq { child, probe },
                format!("value predicate {desc} resolved via typed-value index"),
            ))
        }
        _ => None,
    }
}

/// Match the predicate shape `child::c = literal` (either operand
/// order) under a general comparison. Returns the child name and the
/// probe literal. Anything else — other operators, paths with
/// predicates or extra steps, non-literal operands — declines, which is
/// also what keeps the predicate provably position-free.
fn match_value_eq_predicate(
    pred: &crate::ir::Ir,
) -> Option<(xqa_xdm::QName, crate::ir::ValueProbeIr)> {
    use crate::ir::{Ir, NodeTestIr, PathStartIr, StepIr, ValueProbeIr};
    use xqa_frontend::ast::Axis;
    use xqa_xdm::CompOp;
    let Ir::GeneralComp(CompOp::Eq, a, b) = pred else {
        return None;
    };
    let child_of = |side: &Ir| -> Option<xqa_xdm::QName> {
        let Ir::Path(p) = side else { return None };
        if !matches!(p.start, PathStartIr::Context) {
            return None;
        }
        let [StepIr::Axis {
            axis: Axis::Child,
            test: NodeTestIr::Name(c),
            predicates,
        }] = p.steps.as_slice()
        else {
            return None;
        };
        predicates.is_empty().then(|| c.clone())
    };
    let probe_of = |side: &Ir| -> Option<ValueProbeIr> {
        match side {
            Ir::Str(s) => Some(ValueProbeIr::Str(std::sync::Arc::clone(s))),
            // All numeric literals compare to untyped leaf values under
            // xs:double promotion, so one f64 probe covers them. NaN
            // never equals anything; declining keeps the walk's
            // comparison semantics authoritative.
            Ir::Int(v) => Some(ValueProbeIr::Num(*v as f64)),
            Ir::Dec(d) => Some(ValueProbeIr::Num(d.to_f64())),
            Ir::Dbl(v) => (!v.is_nan()).then_some(ValueProbeIr::Num(*v)),
            _ => None,
        }
    };
    let try_sides = |path_side: &Ir, lit_side: &Ir| -> Option<(xqa_xdm::QName, ValueProbeIr)> {
        Some((child_of(path_side)?, probe_of(lit_side)?))
    };
    try_sides(a, b).or_else(|| try_sides(b, a))
}

// ---- join unnesting ---------------------------------------------------

/// Detect joinable nested-FLWOR equality predicates and annotate them
/// for the pipeline's `HashJoin` operator. Two shapes match:
///
/// 1. **Let-join** — `let $m := (for $y in S where <eq> return $y)`
///    with no `at` / type / output-numbering decoration on the inner
///    FLWOR, binding `$m` to the matching build items.
/// 2. **Semi-join** — `where some $y in S satisfies <eq>`, a single
///    existential binding used as a filter.
///
/// In both, `<eq>` must be one `=` or `eq` comparison with exactly one
/// operand referencing `$y`; that side (the build key) may reference no
/// other slot the enclosing FLWOR binds, and the build source `S` must
/// be independent of every enclosing binding so it is sound to evaluate
/// once per FLWOR execution. `S` must also be free of node constructors
/// and user-function calls: the nested-loop plan constructs fresh nodes
/// per outer tuple, and sharing one materialization would change node
/// identity (constructors) or is too opaque to prove repeat-safe
/// (recursion). The probe side may be anything — it is (re)evaluated
/// per tuple either way.
///
/// The clause's original IR is left untouched; the annotation only
/// flips its plan operator, so the runtime's per-probe fallback scan
/// still evaluates the exact original predicate.
///
/// Gate (`hint` is [`crate::PlanHints::hash_join`]): `Some(false)` never
/// annotates. `None` requires attached statistics and declines a build
/// side the planner estimates above [`MAX_HASH_BUILD_ROWS`] (unknown
/// estimates are allowed — the hash table is never larger than what the
/// nested loop re-scans per tuple). `Some(true)` annotates every
/// matching shape.
pub fn detect_join_unnest(
    query: &mut crate::ir::CompiledQuery,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
) -> Vec<String> {
    if hint == Some(false) || (hint.is_none() && stats.is_none()) {
        return Vec::new();
    }
    let mut fired = Vec::new();
    for g in &mut query.globals {
        let loc = format!("global ${}", g.name);
        detect_join_ir(&mut g.init, hint, stats, &loc, &mut fired);
    }
    for f in &mut query.functions {
        let loc = format!("function {}#{}", f.name, f.arity);
        detect_join_ir(&mut f.body, hint, stats, &loc, &mut fired);
    }
    detect_join_ir(&mut query.body, hint, stats, "query body", &mut fired);
    fired
}

fn detect_join_ir(
    ir: &mut crate::ir::Ir,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
    loc: &str,
    fired: &mut Vec<String>,
) {
    if let crate::ir::Ir::Flwor(f) = ir {
        detect_join_flwor(f, hint, stats, loc, fired);
    }
    for child in crate::fold::child_irs(ir) {
        detect_join_ir(child, hint, stats, loc, fired);
    }
}

fn detect_join_flwor(
    f: &mut crate::ir::FlworIr,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
    loc: &str,
    fired: &mut Vec<String>,
) {
    use crate::ir::PlanOpIr;
    let bound = flwor_bound_slots(f);
    let mut joins: Vec<Option<crate::ir::JoinIr>> = vec![None; f.clauses.len()];
    for (i, clause) in f.clauses.iter().enumerate() {
        let Some(join) = match_join_clause(clause, &bound, hint, stats) else {
            continue;
        };
        fired.push(format!(
            "hash join: {} unnested on {} (in {loc})",
            match join.kind {
                crate::ir::JoinKindIr::LetMany { slot, .. } => format!("let slot{slot} binding"),
                crate::ir::JoinKindIr::ExistsSemi => "existential filter".to_string(),
            },
            join.key_desc,
        ));
        f.plan[i] = PlanOpIr::HashJoin;
        joins[i] = Some(join);
    }
    if joins.iter().any(|j| j.is_some()) {
        f.joins = joins;
    }
}

/// Every slot the FLWOR's own clauses (or `return at`) bind — the set a
/// build side must be independent of.
fn flwor_bound_slots(f: &crate::ir::FlworIr) -> std::collections::HashSet<crate::ir::Slot> {
    use crate::ir::ClauseIr;
    let mut bound = std::collections::HashSet::new();
    for clause in &f.clauses {
        match clause {
            ClauseIr::For { slot, at_slot, .. } => {
                bound.insert(*slot);
                bound.extend(at_slot.iter().copied());
            }
            ClauseIr::Let { slot, .. } | ClauseIr::Count { slot } => {
                bound.insert(*slot);
            }
            ClauseIr::Window(w) => {
                bound.insert(w.slot);
                for cond in std::iter::once(&w.start).chain(w.end.iter()) {
                    for s in [
                        cond.item_slot,
                        cond.at_slot,
                        cond.previous_slot,
                        cond.next_slot,
                    ] {
                        bound.extend(s);
                    }
                }
            }
            ClauseIr::GroupBy(g) => {
                bound.extend(g.keys.iter().map(|k| k.slot));
                bound.extend(g.nests.iter().map(|n| n.slot));
            }
            ClauseIr::OrderBy(_) | ClauseIr::Where(_) => {}
        }
    }
    bound.extend(f.return_at.iter().copied());
    bound
}

fn match_join_clause(
    clause: &crate::ir::ClauseIr,
    bound: &std::collections::HashSet<crate::ir::Slot>,
    hint: Option<bool>,
    stats: Option<&xqa_storage::CatalogStatistics>,
) -> Option<crate::ir::JoinIr> {
    use crate::ir::{ClauseIr, Ir, JoinKindIr};
    use xqa_frontend::ast::Quantifier;
    let (kind, y, src, pred) = match clause {
        // Pattern 1: let $m := (for $y in S where <eq> return $y).
        ClauseIr::Let { slot, ty, expr } => {
            let Ir::Flwor(inner) = expr else { return None };
            if inner.return_at.is_some() {
                return None;
            }
            let [ClauseIr::For {
                slot: y,
                at_slot: None,
                ty: None,
                expr: src,
            }, ClauseIr::Where(pred)] = inner.clauses.as_slice()
            else {
                return None;
            };
            if !matches!(&inner.return_expr, Ir::Var(v) if v == y) {
                return None;
            }
            let kind = JoinKindIr::LetMany {
                slot: *slot,
                ty: ty.clone(),
            };
            (kind, *y, src, pred)
        }
        // Pattern 2: where some $y in S satisfies <eq>.
        ClauseIr::Where(Ir::Quantified {
            kind: Quantifier::Some,
            bindings,
            satisfies,
        }) => {
            let [(y, src)] = bindings.as_slice() else {
                return None;
            };
            (JoinKindIr::ExistsSemi, *y, src, satisfies.as_ref())
        }
        _ => return None,
    };
    if !rebuild_safe(src) || refs_any_slot(src, bound) {
        return None;
    }
    let (build_key, probe_key, probe_is_lhs, value_comp) = split_eq_pred(pred, y, bound)?;
    if hint.is_none() {
        if let Some(est) = crate::estimate::source_cardinality(src, stats) {
            if est > MAX_HASH_BUILD_ROWS {
                return None;
            }
        }
    }
    let op = if value_comp { "eq" } else { "=" };
    let key_desc = format!(
        "key={} {op} {}",
        expr_oneline(probe_key),
        expr_oneline(build_key)
    );
    Some(crate::ir::JoinIr {
        kind,
        build_slot: y,
        build_src: src.clone(),
        pred: pred.clone(),
        build_key: build_key.clone(),
        probe_key: probe_key.clone(),
        probe_is_lhs,
        value_comp,
        key_desc,
    })
}

/// Split a single `=` / `eq` comparison into (build side referencing
/// `$y` and nothing else the enclosing FLWOR binds, probe side not
/// referencing `$y`). Conjunctions and every other operator decline.
fn split_eq_pred<'a>(
    pred: &'a crate::ir::Ir,
    y: crate::ir::Slot,
    bound: &std::collections::HashSet<crate::ir::Slot>,
) -> Option<(&'a crate::ir::Ir, &'a crate::ir::Ir, bool, bool)> {
    use crate::ir::Ir;
    use xqa_xdm::CompOp;
    let (a, b, value_comp) = match pred {
        Ir::GeneralComp(CompOp::Eq, a, b) => (a.as_ref(), b.as_ref(), false),
        Ir::ValueComp(CompOp::Eq, a, b) => (a.as_ref(), b.as_ref(), true),
        _ => return None,
    };
    let y_only = std::collections::HashSet::from([y]);
    let (build, probe, probe_is_lhs) = match (refs_any_slot(a, &y_only), refs_any_slot(b, &y_only))
    {
        (true, false) => (a, b, false),
        (false, true) => (b, a, true),
        _ => return None,
    };
    if refs_any_slot(build, bound) {
        return None;
    }
    Some((build, probe, probe_is_lhs, value_comp))
}

/// Does the expression reference any of the given frame slots? Slot
/// numbers are globally unique per compiled query (no shadowing), so a
/// plain `Var` scan over the whole subtree is exact.
fn refs_any_slot(ir: &crate::ir::Ir, slots: &std::collections::HashSet<crate::ir::Slot>) -> bool {
    if let crate::ir::Ir::Var(s) = ir {
        if slots.contains(s) {
            return true;
        }
    }
    crate::fold::child_irs_ref(ir)
        .into_iter()
        .any(|child| refs_any_slot(child, slots))
}

/// May the expression be evaluated once and its result shared across
/// outer tuples? Node constructors mint fresh node identities per
/// evaluation, and user-function bodies are not inspected — both
/// decline. Everything else in the IR is pure and deterministic.
fn rebuild_safe(ir: &crate::ir::Ir) -> bool {
    use crate::ir::Ir;
    if matches!(
        ir,
        Ir::Element(_)
            | Ir::Attribute { .. }
            | Ir::Text(_)
            | Ir::Comment(_)
            | Ir::Pi(..)
            | Ir::CallUser(..)
    ) {
        return false;
    }
    crate::fold::child_irs_ref(ir).into_iter().all(rebuild_safe)
}

/// A compact one-line rendering of a join key expression for rewrite
/// notes and the `[hash join key=…]` explain tag.
fn expr_oneline(ir: &crate::ir::Ir) -> String {
    use crate::ir::{Ir, NodeTestIr, PathStartIr, StepIr};
    match ir {
        Ir::Var(s) => format!("$slot{s}"),
        Ir::Global(g) => format!("$global{g}"),
        Ir::ContextItem => ".".to_string(),
        Ir::Str(s) => format!("{s:?}"),
        Ir::Int(v) => v.to_string(),
        Ir::Dec(d) => d.to_string(),
        Ir::Dbl(v) => v.to_string(),
        Ir::Path(p) => {
            let mut out = match &p.start {
                PathStartIr::Context => String::new(),
                PathStartIr::Root => "/".to_string(),
                PathStartIr::Expr(e) => expr_oneline(e),
            };
            for step in &p.steps {
                if !out.is_empty() && !out.ends_with('/') {
                    out.push('/');
                }
                match step {
                    StepIr::Axis {
                        test: NodeTestIr::Name(q),
                        ..
                    } => out.push_str(&q.to_string()),
                    _ => out.push_str("step()"),
                }
            }
            out
        }
        _ => "expr()".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_frontend::parse_query;

    fn rewrite(src: &str) -> (Module, Vec<String>) {
        let mut m = parse_query(src).expect("parse");
        let fired = detect_implicit_groupby(&mut m);
        (m, fired)
    }

    const Q_ONE_KEY: &str = r#"
        for $a in distinct-values(//order/lineitem/shipmode)
        let $items := for $i in //order/lineitem where $i/shipmode = $a return $i
        return <r>{$a, count($items)}</r>"#;

    const Q_TWO_KEY: &str = r#"
        for $a in distinct-values(//order/lineitem/shipinstruct),
            $b in distinct-values(//order/lineitem/shipmode)
        let $items := for $i in //order/lineitem
                      where $i/shipinstruct = $a and $i/shipmode = $b
                      return $i
        where exists($items)
        return <r>{$a, $b, count($items)}</r>"#;

    #[test]
    fn one_key_template_detected() {
        let (m, fired) = rewrite(Q_ONE_KEY);
        assert_eq!(fired.len(), 1, "{fired:?}");
        let ExprKind::Flwor(f) = &m.body.kind else {
            panic!("not a flwor")
        };
        let g = f.group_by.as_ref().expect("group by synthesized");
        assert_eq!(g.keys.len(), 1);
        assert_eq!(g.keys[0].var, "a");
        assert_eq!(g.nests.len(), 1);
        assert_eq!(g.nests[0].var, "items");
        assert!(f.where_clause.is_none());
    }

    #[test]
    fn two_key_template_detected() {
        let (m, fired) = rewrite(Q_TWO_KEY);
        assert_eq!(fired.len(), 1, "{fired:?}");
        let ExprKind::Flwor(f) = &m.body.kind else {
            panic!("not a flwor")
        };
        let g = f.group_by.as_ref().expect("group by synthesized");
        assert_eq!(g.keys.len(), 2);
        assert_eq!(g.keys[0].var, "a");
        assert_eq!(g.keys[1].var, "b");
    }

    #[test]
    fn reversed_equality_operands_still_match() {
        let (_, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $a = $i/k return $i
               return count($items)"#,
        );
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn different_scan_paths_do_not_match() {
        let (_, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //y where $i/k = $a return $i
               return count($items)"#,
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn extra_predicate_defeats_detection() {
        // The paper's point: omit or add any construct and the simple
        // pattern no longer matches.
        let (_, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $i/k = $a and $i/z = 1 return $i
               return count($items)"#,
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn unrelated_where_defeats_detection() {
        let (_, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $i/k = $a return $i
               where count($items) > 1
               return count($items)"#,
        );
        assert!(fired.is_empty());
    }

    #[test]
    fn nested_flwor_bodies_are_rewritten() {
        let src = format!("for $d in (1,2) return {}", Q_ONE_KEY.trim());
        let (_, fired) = rewrite(&src);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn explicit_group_by_left_alone() {
        let (_, fired) = rewrite(
            "for $b in //book group by $b/publisher into $p nest $b into $bs return count($bs)",
        );
        assert!(fired.is_empty());
    }
}
