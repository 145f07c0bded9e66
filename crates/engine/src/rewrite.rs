//! The planner: one ordered list of rules over the compiled plan.
//!
//! [`plan`] is every plan-shaping pass of the engine — the rewrites,
//! the access-path and join annotations, cardinality estimates and
//! expression lowering — as one rule list ([`RULES`]) run by one
//! driver: for each enabled rule, for each expression root of the query
//! ([`CompiledQuery::roots_mut`]: globals, functions, body), the rule
//! visits the root's nodes through [`walk`], which enumerates children
//! with [`crate::fold::child_irs`] and nothing else. What each rule
//! needs from the ones before it is written once, on [`RULES`].
//!
//! # The two views
//!
//! The FLWOR rules do not take the IR apart by hand; they match on two
//! read-only views of it:
//!
//! - the predicate view — a predicate's `conjuncts` and, per conjunct,
//!   [`EqPred`]: one `=` / `eq` comparison whose [`EqPred::orient`]
//!   finds the operand a rule is looking for on *either* side and says
//!   which side that was;
//! - [`NestedJoin`] — `let $m := (for $y in S where C return $y)` or
//!   `where some $y in S satisfies C`, as the inner variable, the
//!   source `S` and `C`'s conjunct list: the join graph of *XQuery Join
//!   Graph Isolation* (Grust et al.) cut down to one edge.
//!
//! Join unnesting, the value-equality index shape, implicit group-by
//! detection and the estimator's equality selectivity are each one
//! match on those views. The views never reorder operands in the IR: a
//! hash join must raise what the nested loop raises first, so the
//! annotation records which operand was the probe
//! ([`JoinIr::probe_is_lhs`]) and the original predicate stays in place
//! to be re-evaluated as written.
//!
//! # Implicit group-by
//!
//! The paper argues (§2, §7) that recognizing grouping expressed in
//! XQuery-1.0 style — `distinct-values` over a path plus a correlated
//! self-join — is possible for simple patterns but "extremely
//! difficult" in general, which motivates the explicit syntax. The
//! first rule detects exactly the two templates of the paper's Table 1:
//!
//! ```text
//! for $a in distinct-values(P/a) (, $b in distinct-values(P/b))?
//! let $items := for $i in P where $i/a = $a (and $i/b = $b)? return $i
//! (where exists($items))?
//! (order by ...)? return BODY
//! ```
//!
//! (a [`NestedJoin`] over the same `P`, every conjunct `$i/k = $for-var`)
//! and rewrites the plan to
//!
//! ```text
//! for $i in P
//! group by data($i/a) into $a (, data($i/b) into $b)?
//! nest $i into $items
//! (order by ...)? return BODY
//! ```
//!
//! reusing `$i`'s slot for the scanned item. A declared type on any of
//! the bindings declines: the grouped plan would not check it.
//!
//! **Equivalence caveat** (this *is* the paper's point): the rewrite is
//! only sound when every item of `P` has exactly one `a` (and `b`)
//! child — items *missing* the key produce no group in the original but
//! an empty-sequence group in the rewritten plan. The paper's workload
//! guarantees "each grouping element occurred exactly once in its
//! parent", and so does ours. The rewrite is opt-in
//! ([`crate::PlanHints::implicit_groupby`]) and is benchmarked in the
//! `ablation` bench.

use crate::fold::{child_irs_ref, walk};
use crate::functions::Builtin;
use crate::ir::*;
use crate::{bytecode, estimate, fold, PlanHints, RewriteKind, RewriteNote};
use std::collections::HashSet;
use std::fmt::Write;
use xqa_frontend::ast::{Axis, Quantifier};
use xqa_storage::CatalogStatistics;
use xqa_xdm::{CompOp, QName};

/// Without a hint, a descendant scan is only index-annotated when the
/// scanned name accounts for at most this fraction of all catalog
/// elements. Above it, the walk visits about as many nodes as the
/// posting list holds, so the index buys nothing but handle churn.
const MAX_INDEX_SELECTIVITY: f64 = 0.5;

/// Without a hint, join unnesting declines to build a hash table the
/// planner expects to exceed this many rows (it would trade O(n·m) time
/// for an oversized materialization); `join=hash` ignores the bound.
pub const MAX_HASH_BUILD_ROWS: u64 = 10_000_000;

/// What a rule sees besides the root it is planning.
struct Cx<'a> {
    hints: PlanHints,
    stats: Option<&'a CatalogStatistics>,
    /// Note details the running rule has fired, over all roots so far.
    fired: Vec<String>,
    /// Running count for a rule that reports one total per query.
    tally: usize,
}

/// One planning rule.
struct Rule {
    /// The kind its notes carry; `None` for the passes that only stamp
    /// the plan and never fire a note.
    kind: Option<RewriteKind>,
    /// Whether the driver ends each note with where it fired,
    /// ` (in query body)` / `(in global $g)` / `(in function f#1)`.
    located: bool,
    /// Whether the rule runs at all under these hints and statistics.
    /// A pinned hint decides; the two statistics-driven rules otherwise
    /// run exactly when a catalog is attached.
    enabled: fn(&Cx<'_>) -> bool,
    /// Plan one root.
    apply: fn(&mut Ir, &mut Cx<'_>),
}

/// The rules, in the order they must run:
///
/// 1. *implicit group-by* first: it matches the FLWOR as written, before
///    any other rule has annotated or reshaped it, and the rules below
///    then plan the grouped form like any explicit `group by`.
/// 2. *constant folding* before top-k, so literal bounds like
///    `[position() le 5 + 5]` are visible as literals.
/// 3. *nest aggregation* after implicit group-by (whose `count($items)`
///    it also sees) and before join unnesting, which copies the clause
///    expressions this rule rewrites into its annotations.
/// 4. *top-k pushdown* only changes how the order-by runs; the residual
///    predicate stays in place.
/// 5. *path fusion* before index annotation, so `//T` is visible as one
///    `descendant::T` step.
/// 6. *index annotation* before join unnesting, so the build-side
///    cardinality gate sees the final access paths.
/// 7. *join unnesting*.
/// 8. *estimates* after every plan-shaping rule (they read top-k
///    limits, access paths and join annotations).
/// 9. *expression lowering* last: every rule above mutates the IR the
///    programs are lowered from.
const RULES: [Rule; 9] = [
    Rule {
        kind: Some(RewriteKind::ImplicitGroupBy),
        located: false,
        enabled: |cx| cx.hints.implicit_groupby == Some(true),
        apply: implicit_groupby,
    },
    Rule {
        kind: Some(RewriteKind::ConstantFolding),
        located: false,
        enabled: |_| true,
        apply: fold_constants,
    },
    Rule {
        kind: None,
        located: false,
        enabled: |cx| cx.hints.nest_agg != Some(false),
        apply: aggregate_count_nests,
    },
    Rule {
        kind: Some(RewriteKind::TopKPushdown),
        located: true,
        enabled: |cx| cx.hints.topk != Some(false),
        apply: pushdown_topk,
    },
    Rule {
        kind: Some(RewriteKind::PathFusion),
        located: true,
        enabled: |_| true,
        apply: fuse_descendant_paths,
    },
    Rule {
        kind: Some(RewriteKind::IndexScan),
        located: true,
        enabled: |cx| cx.hints.index_scan.unwrap_or(cx.stats.is_some()),
        apply: annotate_index_scans,
    },
    Rule {
        kind: Some(RewriteKind::JoinUnnest),
        located: true,
        enabled: |cx| cx.hints.hash_join.unwrap_or(cx.stats.is_some()),
        apply: unnest_joins,
    },
    Rule {
        kind: None,
        located: false,
        enabled: |_| true,
        apply: stamp_estimates,
    },
    Rule {
        kind: None,
        located: false,
        enabled: |cx| cx.hints.bytecode != Some(false),
        apply: lower_exprs,
    },
];

/// Shape the compiled plan: run every enabled rule of [`RULES`], in
/// order, over every root of the query. `hints` are taken as given (the
/// `XQA_HINTS` environment variable is the engine's business, not the
/// planner's); `stats` are the attached catalog statistics, if any.
/// Returns what fired, rule by rule, root by root.
pub fn plan(
    query: &mut CompiledQuery,
    hints: PlanHints,
    stats: Option<&CatalogStatistics>,
) -> Vec<RewriteNote> {
    let mut cx = Cx {
        hints,
        stats,
        fired: Vec::new(),
        tally: 0,
    };
    let mut notes = Vec::new();
    for rule in &RULES {
        if !(rule.enabled)(&cx) {
            continue;
        }
        cx.tally = 0;
        for (loc, root) in query.roots_mut() {
            let before = cx.fired.len();
            (rule.apply)(root, &mut cx);
            if rule.located {
                for note in &mut cx.fired[before..] {
                    let _ = write!(note, " (in {loc})");
                }
            }
        }
        if let Some(kind) = rule.kind {
            notes.extend(
                cx.fired
                    .drain(..)
                    .map(|detail| RewriteNote { kind, detail }),
            );
        }
    }
    notes
}

// ---- the views --------------------------------------------------------

/// The conjuncts of a predicate, left to right: `a and (b and c)` is
/// `[a, b, c]`, anything else is itself.
fn conjuncts(pred: &Ir) -> Vec<&Ir> {
    fn collect<'a>(pred: &'a Ir, out: &mut Vec<&'a Ir>) {
        match pred {
            Ir::And(a, b) => {
                collect(a, out);
                collect(b, out);
            }
            _ => out.push(pred),
        }
    }
    let mut out = Vec::new();
    collect(pred, &mut out);
    out
}

/// One equality comparison, operands as written.
pub(crate) struct EqPred<'a> {
    /// The left operand.
    pub(crate) lhs: &'a Ir,
    /// The right operand.
    pub(crate) rhs: &'a Ir,
    /// `true` for a value comparison (`eq`), `false` for a general one
    /// (`=`).
    pub(crate) value_comp: bool,
}

impl<'a> EqPred<'a> {
    /// View `ir` as an equality comparison, if it is one.
    pub(crate) fn of(ir: &'a Ir) -> Option<EqPred<'a>> {
        let (lhs, rhs, value_comp) = match ir {
            Ir::GeneralComp(CompOp::Eq, a, b) => (&**a, &**b, false),
            Ir::ValueComp(CompOp::Eq, a, b) => (&**a, &**b, true),
            _ => return None,
        };
        Some(EqPred {
            lhs,
            rhs,
            value_comp,
        })
    }

    /// Find the operand `side` accepts, left operand first: what `side`
    /// made of it, the *other* operand, and whether the accepted one
    /// was the left. The IR is not touched; a rule that cares about
    /// operand order keeps the flag.
    pub(crate) fn orient<T>(
        &self,
        side: impl Fn(&'a Ir) -> Option<T>,
    ) -> Option<(T, &'a Ir, bool)> {
        match side(self.lhs) {
            Some(found) => Some((found, self.rhs, true)),
            None => side(self.rhs).map(|found| (found, self.lhs, false)),
        }
    }
}

/// A nested equality join: `let $m := (for $y in S where C return $y)`
/// with no `at` / type / `return at` decoration on the inner FLWOR, or
/// `where some $y in S satisfies C` with its single binding.
struct NestedJoin<'a> {
    /// What the matches feed: the `let` binding, or the existential
    /// filter.
    kind: JoinKindIr,
    /// Slot of the inner variable `$y`.
    y: Slot,
    /// The inner source `S`.
    src: &'a Ir,
    /// `C`, as its conjuncts.
    conjuncts: Vec<&'a Ir>,
}

impl<'a> NestedJoin<'a> {
    fn of(clause: &'a ClauseIr) -> Option<NestedJoin<'a>> {
        let (kind, y, src, pred) = match clause {
            ClauseIr::Let {
                slot,
                ty,
                expr: Ir::Flwor(inner),
            } => {
                let [ClauseIr::For {
                    slot: y,
                    at_slot: None,
                    ty: None,
                    expr: src,
                }, ClauseIr::Where(pred)] = inner.clauses().collect::<Vec<_>>()[..]
                else {
                    return None;
                };
                if inner.return_at.is_some() || !matches!(&inner.return_expr, Ir::Var(v) if v == y)
                {
                    return None;
                }
                let kind = JoinKindIr::LetMany {
                    slot: *slot,
                    ty: ty.clone(),
                };
                (kind, *y, src, pred)
            }
            ClauseIr::Where(Ir::Quantified {
                kind: Quantifier::Some,
                bindings,
                satisfies,
            }) => {
                let [(y, src)] = bindings.as_slice() else {
                    return None;
                };
                (JoinKindIr::ExistsSemi, *y, src, &**satisfies)
            }
            _ => return None,
        };
        Some(NestedJoin {
            kind,
            y,
            src,
            conjuncts: conjuncts(pred),
        })
    }
}

/// The name `c` of a path that is exactly one plain `child::c` step.
fn plain_child_step(p: &PathIr) -> Option<&QName> {
    match p.steps.as_slice() {
        [StepIr::Axis {
            axis: Axis::Child,
            test: NodeTestIr::Name(c),
            predicates,
        }] if predicates.is_empty() => Some(c),
        _ => None,
    }
}

/// Structural identity of two IR fragments. `Ir` holds `f64` literals
/// and compiled programs, so it derives no `PartialEq`; its derived
/// `Debug` rendering spells out every field, slot numbers included.
fn same<T: std::fmt::Debug>(a: T, b: T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// ---- implicit group-by ------------------------------------------------

fn implicit_groupby(root: &mut Ir, cx: &mut Cx<'_>) {
    // A node first, then its children — including the rewritten form's
    // return clause.
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        if let Some(keys) = rewrite_implicit_groupby(f) {
            cx.fired.push(format!(
                "implicit group-by detected: distinct-values self-join over {keys} key(s) \
                 rewritten to explicit group by"
            ));
        }
    });
}

/// Attempt the Table-1 match on one FLWOR; rewrite it in place on
/// success and return the number of grouping keys.
fn rewrite_implicit_groupby(f: &mut FlworIr) -> Option<usize> {
    // One or two `for`s, then the self-join `let`.
    let clauses: Vec<&ClauseIr> = f.clauses().collect();
    let fors = clauses
        .iter()
        .position(|c| !matches!(c, ClauseIr::For { .. }))?;
    let join = NestedJoin::of(clauses[fors])?;
    let JoinKindIr::LetMany {
        slot: items,
        ty: None,
    } = join.kind
    else {
        return None;
    };
    let Ir::Path(source) = join.src else {
        return None;
    };
    if !(1..=2).contains(&fors) || join.conjuncts.len() != fors {
        return None;
    }
    // Every `for` ranges over `distinct-values(P/k)` for the join's own
    // source `P`, and is compared to `$y/k` by a conjunct of its own
    // (the slots differ, so no two keys can claim one conjunct).
    let mut keys = Vec::with_capacity(fors);
    for clause in &clauses[..fors] {
        let ClauseIr::For {
            slot,
            at_slot: None,
            ty: None,
            expr: Ir::CallBuiltin(Builtin::DistinctValues, args),
        } = clause
        else {
            return None;
        };
        let [Ir::Path(scan)] = args.as_slice() else {
            return None;
        };
        let (
            StepIr::Axis {
                axis: Axis::Child,
                test: NodeTestIr::Name(key),
                predicates,
            },
            prefix,
        ) = scan.steps.split_last()?
        else {
            return None;
        };
        if !predicates.is_empty()
            || !same((&scan.start, prefix), (&source.start, &source.steps[..]))
        {
            return None;
        }
        let key_path = join.conjuncts.iter().find_map(|&c| {
            let eq = EqPred::of(c).filter(|eq| !eq.value_comp)?;
            let (path, other, _) = eq.orient(|side| match side {
                Ir::Path(p)
                    if matches!(&p.start, PathStartIr::Expr(Ir::Var(v)) if *v == join.y)
                        && plain_child_step(p) == Some(key) =>
                {
                    Some(side)
                }
                _ => None,
            })?;
            matches!(other, Ir::Var(v) if v == slot).then_some(path)
        })?;
        keys.push(GroupKeyIr {
            expr: Ir::CallBuiltin(Builtin::Data, vec![key_path.clone()]),
            slot: *slot,
            using: None,
        });
    }
    // After the `let`: at most `where exists($items)`, at most one
    // `order by`.
    let exists_items = |clause: &&ClauseIr| {
        matches!(clause, ClauseIr::Where(Ir::CallBuiltin(Builtin::Exists, args))
            if matches!(args.as_slice(), [Ir::Var(v)] if *v == items))
    };
    let mut rest = &clauses[fors + 1..];
    if rest.first().is_some_and(exists_items) {
        rest = &rest[1..];
    }
    if !matches!(rest, [] | [ClauseIr::OrderBy(_)]) {
        return None;
    }

    let scan = ClauseIr::For {
        slot: join.y,
        at_slot: None,
        ty: None,
        expr: join.src.clone(),
    };
    let nests = vec![NestIr {
        expr: Ir::Var(join.y),
        order_by: None,
        slot: items,
        // The `let` variable's name is not kept past compilation.
        var: format!("slot{items}"),
    }];
    let group = ClauseIr::GroupBy(GroupByIr { keys, nests });
    let grouped: Vec<ClauseIr> = [scan, group]
        .into_iter()
        .chain(rest.first().copied().cloned())
        .collect();
    f.parallel = parallel_eligible(&grouped);
    f.ops = grouped.into_iter().map(OpIr::from).collect();
    Some(fors)
}

// ---- constant folding, estimates, expression lowering -----------------

fn fold_constants(root: &mut Ir, cx: &mut Cx<'_>) {
    walk(root, true, &mut |ir| {
        cx.tally += usize::from(fold::fold_node(ir))
    });
    // One note for the whole query: each root restates the running
    // total.
    if cx.tally > 0 {
        cx.fired = vec![format!(
            "constant folding: {} subexpression(s) folded",
            cx.tally
        )];
    }
}

fn stamp_estimates(root: &mut Ir, cx: &mut Cx<'_>) {
    // Children first, so a nested FLWOR's sink estimate is there for
    // the enclosing chain's source estimate.
    walk(root, true, &mut |ir| {
        if let Ir::Flwor(f) = ir {
            estimate::estimate_chain(f, cx.stats);
        }
    });
}

fn lower_exprs(root: &mut Ir, _: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        if let Ir::Flwor(f) = ir {
            bytecode::lower_flwor(f);
        }
    });
}

// ---- count-only nests -------------------------------------------------

/// Aggregate the nests of a `group by` that the rest of the FLWOR reads
/// only as `count($nest)` (at least once) and that carry no `order by`:
/// record them in the group-by's [`OpIr::counted_nests`] and rewrite
/// every `count($nest)` into `$nest`, which the group operator binds to
/// the group's running item count. The nest expression still runs per
/// member, so its errors surface where they did; a nest with an `order
/// by`, or read any other way, keeps its members.
fn aggregate_count_nests(root: &mut Ir, _: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = &*ir else { return };
        let Some((at, g)) = f
            .ops
            .iter()
            .enumerate()
            .find_map(|(i, op)| match &op.clause {
                ClauseIr::GroupBy(g) => Some((i, g)),
                _ => None,
            })
        else {
            return;
        };
        // The nest slots are bound by the group by, so only the clauses
        // after it and the return expression can read them.
        let counted: Vec<usize> = (0..g.nests.len())
            .filter(|&i| {
                g.nests[i].order_by.is_none()
                    && matches!(count_uses(ir, g.nests[i].slot), Some(n) if n > 0)
            })
            .collect();
        if counted.is_empty() {
            return;
        }
        let slots: Vec<Slot> = counted.iter().map(|&i| g.nests[i].slot).collect();
        for child in fold::child_irs(ir) {
            walk(child, false, &mut |e| {
                if let Ir::CallBuiltin(Builtin::Count, args) = e {
                    if let [Ir::Var(s)] = args[..] {
                        if slots.contains(&s) {
                            *e = Ir::Var(s);
                        }
                    }
                }
            });
        }
        if let Ir::Flwor(f) = ir {
            f.ops[at].counted_nests = counted;
        }
    });
}

/// How many times `ir` reads `slot` as `count($slot)`; `None` if it
/// reads it any other way.
fn count_uses(ir: &Ir, slot: Slot) -> Option<usize> {
    match ir {
        Ir::CallBuiltin(Builtin::Count, args) if matches!(args[..], [Ir::Var(s)] if s == slot) => {
            Some(1)
        }
        Ir::Var(s) if *s == slot => None,
        _ => child_irs_ref(ir)
            .into_iter()
            .try_fold(0, |n, child| Some(n + count_uses(child, slot)?)),
    }
}

// ---- top-k pushdown ---------------------------------------------------

/// Detect positional bounds over a sorted FLWOR — `(for ... order by ...
/// return E)[position() le k]`, the bare `[k]` form, or
/// `fn:subsequence(flwor, 1, k)` — and push `limit k` into the
/// [`OrderByIr`], so the streaming pipeline's order-by runs a bounded
/// binary heap (O(n log k)) instead of a full sort.
///
/// The residual predicate is left in place, so the rewrite never changes
/// results: the pipeline still applies the positional filter to the (at
/// most k) returned items. Limiting the *tuple* stream to k is only sound when
/// the return expression contributes exactly one item per tuple, so the
/// rewrite is gated on a conservative single-item check (constructors
/// and literals).
fn pushdown_topk(root: &mut Ir, cx: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let (f, k) = match ir {
            // Only a *leading* positional bound is a prefix of the tuple
            // stream; predicates after another filter see renumbered
            // positions.
            Ir::Filter { base, predicates } => {
                match (&mut **base, predicates.first().and_then(positional_bound)) {
                    (Ir::Flwor(f), Some(k)) => (f, k),
                    _ => return,
                }
            }
            Ir::CallBuiltin(Builtin::Subsequence, args) => match args.as_mut_slice() {
                [Ir::Flwor(f), Ir::Int(1), Ir::Int(len)] => (f, (*len).max(0) as usize),
                _ => return,
            },
            _ => return,
        };
        if !single_item_return(&f.return_expr) {
            return;
        }
        let Some(ClauseIr::OrderBy(ob)) = f.ops.last_mut().map(|op| &mut op.clause) else {
            return;
        };
        let limit = ob.limit.map_or(k, |old| old.min(k));
        ob.limit = Some(limit);
        cx.fired.push(format!(
            "top-k pushdown: order by bounded to a {limit}-tuple heap"
        ));
    });
}

/// The `k` of a positional prefix bound, if the predicate is one:
/// `position() le k`, `position() lt k`, their flipped forms, or a bare
/// integer literal `[k]` (which selects position k, contained in the
/// k-prefix). The folder can hand over any `i64`, `i64::MIN` included.
fn positional_bound(pred: &Ir) -> Option<usize> {
    let is_position =
        |ir: &Ir| matches!(ir, Ir::CallBuiltin(Builtin::Position, args) if args.is_empty());
    let as_k = |n: i64| Some(n.max(0) as usize);
    match pred {
        Ir::Int(n) => as_k(*n),
        Ir::ValueComp(op, a, b) | Ir::GeneralComp(op, a, b) => match (&**a, op, &**b) {
            (pos, CompOp::Le, Ir::Int(n)) if is_position(pos) => as_k(*n),
            (pos, CompOp::Lt, Ir::Int(n)) if is_position(pos) => as_k(n.saturating_sub(1)),
            (Ir::Int(n), CompOp::Ge, pos) if is_position(pos) => as_k(*n),
            (Ir::Int(n), CompOp::Gt, pos) if is_position(pos) => as_k(n.saturating_sub(1)),
            _ => None,
        },
        _ => None,
    }
}

/// Conservatively: does the return expression yield exactly one item per
/// tuple? (Constructors always produce one node; literals one value.)
fn single_item_return(ir: &Ir) -> bool {
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

// ---- descendant-step fusion -------------------------------------------

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
fn fuse_descendant_paths(root: &mut Ir, cx: &mut Cx<'_>) {
    let mut fused = 0usize;
    walk(root, false, &mut |ir| {
        let Ir::Path(p) = ir else { return };
        let mut i = 0;
        while i + 1 < p.steps.len() {
            fused += usize::from(fuse_pair(&mut p.steps, i, |_, preds| preds.is_empty()));
            i += 1;
        }
    });
    if fused > 0 {
        cx.fired.push(format!(
            "path fusion: {fused} descendant-or-self/child step pair(s) \
             fused into a single descendant scan"
        ));
    }
}

/// Fuse the pair at `i` — a predicate-free `descendant-or-self::node()`
/// followed by a `child::T[preds]` step that `ok` accepts — into
/// `descendant::T[preds]`. Says whether it did.
fn fuse_pair(steps: &mut Vec<StepIr>, i: usize, ok: impl Fn(&NodeTestIr, &[Ir]) -> bool) -> bool {
    let fusable = matches!(
        (steps.get(i), steps.get(i + 1)),
        (
            Some(StepIr::Axis {
                axis: Axis::DescendantOrSelf,
                test: NodeTestIr::AnyKind,
                predicates: own,
            }),
            Some(StepIr::Axis {
                axis: Axis::Child,
                test,
                predicates,
            }),
        ) if own.is_empty() && ok(test, predicates)
    );
    if fusable {
        steps.remove(i);
        if let StepIr::Axis { axis, .. } = &mut steps[i] {
            *axis = Axis::Descendant;
        }
    }
    fusable
}

// ---- index-scan annotation --------------------------------------------

/// Annotate leading `descendant::T` path steps with an index access
/// path (see [`AccessPathIr`]). Under [`crate::PlanHints::index_scan`]
/// `Some(false)` the rule never runs, `Some(true)` annotates every
/// matching shape, `None` annotates where the attached catalog
/// statistics favor the index (the rule does not run without
/// statistics). Two shapes qualify:
///
/// - `descendant::T` with no predicates → [`AccessPathIr::IndexDescendant`]:
///   a label-range slice of `T`'s element postings.
/// - `descendant::T[c = literal]` (an [`EqPred`] between a plain child
///   name step from the context and a string or numeric constant, in
///   either order) → [`AccessPathIr::IndexValueEq`]: candidate parents
///   from the typed-value index, residual predicate re-evaluated. The
///   exact shape guarantees the predicate is position-free, so
///   prefiltering cannot renumber anything; without a hint the
///   statistics must also confirm the value index answers exactly
///   (every `c` is a leaf, and for numeric probes every value parses as
///   `xs:double` — otherwise the walk could raise a cast error the
///   index would skip).
///
/// The annotation is a plan-time *choice*, not a promise: the evaluator
/// still falls back to the walk per context item when no store covers
/// its document or the store's gates refuse, so results are always
/// byte-identical to the walk.
fn annotate_index_scans(root: &mut Ir, cx: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Path(p) = ir else { return };
        // The general fusion rule skips predicated child steps because
        // positional predicates renumber under fusion; the value-eq
        // shape is position-free by construction (an existential `=`
        // over a plain child step and a literal), so fusing a leading
        // `//T[c = literal]` selects the identical node set.
        fuse_pair(&mut p.steps, 0, |test, preds| {
            matches!(test, NodeTestIr::Name(_))
                && matches!(preds, [pred] if value_eq_probe(pred).is_some())
        });
        if let Some((access, note)) = choose_access_path(p, cx.hints.index_scan, cx.stats) {
            p.access = access;
            cx.fired.push(format!("index scan: {note}"));
        }
    });
}

/// Decide the access path for one compiled path, if an index shape
/// matches. Returns the annotation plus its rewrite-note text.
fn choose_access_path(
    p: &PathIr,
    hint: Option<bool>,
    stats: Option<&CatalogStatistics>,
) -> Option<(AccessPathIr, String)> {
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
            let note = |why: std::fmt::Arguments<'_>| {
                format!("descendant scan //{name} resolved via label-range postings ({why})")
            };
            let note = match hint {
                Some(_) => note(format_args!("forced")),
                None => {
                    let selectivity = stats?.descendant_selectivity(name);
                    if selectivity > MAX_INDEX_SELECTIVITY {
                        return None;
                    }
                    note(format_args!("selectivity {selectivity:.3}"))
                }
            };
            Some((AccessPathIr::IndexDescendant, note))
        }
        [pred] => {
            let (child, probe) = value_eq_probe(pred)?;
            let numeric = matches!(probe, ValueProbeIr::Num(_));
            if hint.is_none() && !stats?.value_eq_indexable(&child, numeric) {
                return None;
            }
            let desc = match &probe {
                ValueProbeIr::Str(s) => format!("//{name}[{child} = {s:?}]"),
                ValueProbeIr::Num(v) => format!("//{name}[{child} = {v}]"),
            };
            Some((
                AccessPathIr::IndexValueEq { child, probe },
                format!("value predicate {desc} resolved via typed-value index"),
            ))
        }
        _ => None,
    }
}

/// Match the predicate shape `child::c = literal` under a general
/// comparison. Returns the child name and the probe literal. Anything
/// else — other operators, paths with predicates or extra steps,
/// non-literal operands — declines, which is also what keeps the
/// predicate provably position-free.
fn value_eq_probe(pred: &Ir) -> Option<(QName, ValueProbeIr)> {
    let eq = EqPred::of(pred).filter(|eq| !eq.value_comp)?;
    let (child, literal, _) = eq.orient(|side| match side {
        Ir::Path(p) if matches!(p.start, PathStartIr::Context) => plain_child_step(p),
        _ => None,
    })?;
    let probe = match literal {
        Ir::Str(s) => ValueProbeIr::Str(std::sync::Arc::clone(s)),
        // All numeric literals compare to untyped leaf values under
        // xs:double promotion, so one f64 probe covers them. NaN never
        // equals anything; declining keeps the walk's comparison
        // semantics authoritative.
        Ir::Int(v) => ValueProbeIr::Num(*v as f64),
        Ir::Dec(d) => ValueProbeIr::Num(d.to_f64()),
        Ir::Dbl(v) if !v.is_nan() => ValueProbeIr::Num(*v),
        _ => return None,
    };
    Some((child.clone(), probe))
}

// ---- join unnesting ---------------------------------------------------

/// Annotate every [`NestedJoin`] clause that can run as the pipeline's
/// `HashJoin` operator. `C` must be one [`EqPred`] (a conjunction
/// declines: composite keys are not built) with exactly one operand
/// referencing `$y`; that side (the build key) may reference no other
/// slot the enclosing FLWOR binds, and the build source `S` must be
/// independent of every enclosing binding so it is sound to evaluate
/// once per FLWOR execution. `S` must also be free of node constructors
/// and user-function calls: the nested-loop plan constructs fresh nodes
/// per outer tuple, and sharing one materialization would change node
/// identity (constructors) or is too opaque to prove repeat-safe
/// (recursion). The probe side may be anything — it is (re)evaluated
/// per tuple either way.
///
/// The clause's original IR is left untouched; the annotation only
/// changes which operator its record runs as ([`OpKind::of`]), so the
/// runtime's per-probe fallback scan still evaluates the exact original
/// predicate.
///
/// Gate ([`crate::PlanHints::hash_join`]): under `Some(false)` the rule
/// never runs. `None` requires attached statistics and declines a build
/// side the planner estimates above [`MAX_HASH_BUILD_ROWS`] (unknown
/// estimates are allowed — the hash table is never larger than what the
/// nested loop re-scans per tuple). `Some(true)` annotates every
/// matching shape.
fn unnest_joins(root: &mut Ir, cx: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        let bound = flwor_bound_slots(f);
        for op in &mut f.ops {
            let Some(join) = match_join(&op.clause, &bound, cx) else {
                continue;
            };
            cx.fired.push(format!(
                "hash join: {} unnested on {}",
                match join.kind {
                    JoinKindIr::LetMany { slot, .. } => format!("let slot{slot} binding"),
                    JoinKindIr::ExistsSemi => "existential filter".to_string(),
                },
                join.key_desc,
            ));
            op.join = Some(join);
        }
    });
}

/// Every slot the FLWOR's own clauses (or `return at`) bind — the set a
/// build side must be independent of.
fn flwor_bound_slots(f: &FlworIr) -> HashSet<Slot> {
    let mut bound = HashSet::new();
    for clause in f.clauses() {
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

fn match_join(clause: &ClauseIr, bound: &HashSet<Slot>, cx: &Cx<'_>) -> Option<JoinIr> {
    let join = NestedJoin::of(clause)?;
    if !rebuild_safe(join.src) || refs_any_slot(join.src, bound) {
        return None;
    }
    let [pred] = join.conjuncts.as_slice() else {
        return None;
    };
    // The build key is the one operand that references `$y` (and nothing
    // else the enclosing FLWOR binds); the probe key is the other.
    let eq = EqPred::of(pred)?;
    let y = HashSet::from([join.y]);
    let (build_key, probe_key, build_is_lhs) =
        eq.orient(|side| refs_any_slot(side, &y).then_some(side))?;
    if refs_any_slot(probe_key, &y) || refs_any_slot(build_key, bound) {
        return None;
    }
    if cx.hints.hash_join.is_none()
        && estimate::source_cardinality(join.src, cx.stats).is_some_and(|n| n > MAX_HASH_BUILD_ROWS)
    {
        return None;
    }
    let key_desc = format!(
        "key={} {} {}",
        expr_oneline(probe_key),
        if eq.value_comp { "eq" } else { "=" },
        expr_oneline(build_key)
    );
    Some(JoinIr {
        kind: join.kind,
        build_slot: join.y,
        build_src: join.src.clone(),
        pred: (*pred).clone(),
        build_key: build_key.clone(),
        probe_key: probe_key.clone(),
        probe_is_lhs: !build_is_lhs,
        value_comp: eq.value_comp,
        key_desc,
    })
}

/// Does the expression reference any of the given frame slots? Slot
/// numbers are globally unique per compiled query (no shadowing), so a
/// plain `Var` scan over the whole subtree is exact.
fn refs_any_slot(ir: &Ir, slots: &HashSet<Slot>) -> bool {
    matches!(ir, Ir::Var(s) if slots.contains(s))
        || child_irs_ref(ir)
            .into_iter()
            .any(|child| refs_any_slot(child, slots))
}

/// May the expression be evaluated once and its result shared across
/// outer tuples? Node constructors mint fresh node identities per
/// evaluation, and user-function bodies are not inspected — both
/// decline. Everything else in the IR is pure and deterministic.
fn rebuild_safe(ir: &Ir) -> bool {
    !matches!(
        ir,
        Ir::Element(_)
            | Ir::Attribute { .. }
            | Ir::Text(_)
            | Ir::Comment(_)
            | Ir::Pi(..)
            | Ir::CallUser(..)
    ) && child_irs_ref(ir).into_iter().all(rebuild_safe)
}

/// A compact one-line rendering of a join key expression for rewrite
/// notes and the `[hash join key=…]` explain tag.
fn expr_oneline(ir: &Ir) -> String {
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

    /// Plan `src` with the implicit-group-by rule on; the body and what
    /// that rule fired.
    fn rewrite(src: &str) -> (Ir, usize) {
        let mut q = crate::compile::compile(&parse_query(src).expect("parse")).expect("compile");
        let hints = "implicit-groupby=on".parse().expect("valid hints");
        let fired = plan(&mut q, hints, None)
            .iter()
            .filter(|n| n.kind == RewriteKind::ImplicitGroupBy)
            .count();
        (q.body, fired)
    }

    /// The `group by` of a FLWOR plan, if it has one.
    fn group_by(ir: &Ir) -> Option<&GroupByIr> {
        let Ir::Flwor(f) = ir else {
            panic!("not a flwor")
        };
        f.clauses().find_map(|c| match c {
            ClauseIr::GroupBy(g) => Some(g),
            _ => None,
        })
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
        let (body, fired) = rewrite(Q_ONE_KEY);
        assert_eq!(fired, 1);
        let Ir::Flwor(f) = &body else {
            panic!("not a flwor")
        };
        // for $i in P, group by: the `let` and the `distinct-values`
        // scan are gone, and the slots of `$a` / `$items` carry over.
        let [ClauseIr::For { slot: item, .. }, ClauseIr::GroupBy(g)] =
            f.clauses().collect::<Vec<_>>()[..]
        else {
            panic!("not scan + group by: {:?}", f.ops)
        };
        let kinds: Vec<OpKind> = f.ops.iter().map(OpKind::of).collect();
        assert_eq!(kinds, [OpKind::ForScan, OpKind::GroupConsume]);
        assert_eq!((g.keys.len(), g.nests.len()), (1, 1));
        assert_eq!((g.keys[0].slot, g.nests[0].slot, *item), (0, 2, 1));
        assert!(matches!(&g.nests[0].expr, Ir::Var(v) if v == item));
    }

    #[test]
    fn two_key_template_detected() {
        let (body, fired) = rewrite(Q_TWO_KEY);
        assert_eq!(fired, 1);
        let g = group_by(&body).expect("group by synthesized");
        assert_eq!((g.keys.len(), g.nests.len()), (2, 1));
        assert_eq!((g.keys[0].slot, g.keys[1].slot), (0, 1));
        let Ir::Flwor(f) = &body else {
            panic!("not a flwor")
        };
        assert_eq!(f.ops.len(), 2, "where exists($items) is dropped");
    }

    #[test]
    fn reversed_equality_operands_still_match() {
        let (body, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $a = $i/k return $i
               return count($items)"#,
        );
        assert_eq!(fired, 1);
        assert!(group_by(&body).is_some());
    }

    #[test]
    fn different_scan_paths_do_not_match() {
        let (body, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //y where $i/k = $a return $i
               return count($items)"#,
        );
        assert_eq!(fired, 0);
        assert!(group_by(&body).is_none());
    }

    #[test]
    fn extra_predicate_defeats_detection() {
        // The paper's point: omit or add any construct and the simple
        // pattern no longer matches.
        let (body, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $i/k = $a and $i/z = 1 return $i
               return count($items)"#,
        );
        assert_eq!(fired, 0);
        assert!(group_by(&body).is_none());
    }

    #[test]
    fn unrelated_where_defeats_detection() {
        let (body, fired) = rewrite(
            r#"for $a in distinct-values(//x/k)
               let $items := for $i in //x where $i/k = $a return $i
               where count($items) > 1
               return count($items)"#,
        );
        assert_eq!(fired, 0);
        assert!(group_by(&body).is_none());
    }

    #[test]
    fn nested_flwor_bodies_are_rewritten() {
        let src = format!("for $d in (1,2) return {}", Q_ONE_KEY.trim());
        let (body, fired) = rewrite(&src);
        assert_eq!(fired, 1);
        assert!(group_by(&body).is_none(), "the outer FLWOR is untouched");
        let Ir::Flwor(outer) = &body else {
            panic!("not a flwor")
        };
        let g = group_by(&outer.return_expr).expect("inner FLWOR grouped");
        assert_eq!((g.keys.len(), g.nests.len()), (1, 1));
    }

    #[test]
    fn explicit_group_by_left_alone() {
        let (body, fired) = rewrite(
            "for $b in //book group by $b/publisher into $p nest $b into $bs return count($bs)",
        );
        assert_eq!(fired, 0);
        let g = group_by(&body).expect("the explicit group by");
        assert_eq!((g.keys.len(), g.nests.len()), (1, 1));
    }

    #[test]
    fn orient_finds_the_operand_on_either_side() {
        let q = |src: &str| {
            crate::compile::compile(&parse_query(src).expect("parse"))
                .expect("compile")
                .body
        };
        let is_int = |side: &Ir| matches!(side, Ir::Int(_)).then_some(());
        for (src, lhs) in [("1 = \"a\"", true), ("\"a\" eq 1", false)] {
            let body = q(src);
            let eq = EqPred::of(&body).expect("an equality");
            assert_eq!(eq.value_comp, !lhs);
            let ((), other, was_lhs) = eq.orient(is_int).expect("one side is an integer");
            assert!(matches!(other, Ir::Str(_)));
            assert_eq!(was_lhs, lhs);
        }
        let body = q("\"a\" = \"b\"");
        assert!(EqPred::of(&body)
            .expect("an equality")
            .orient(is_int)
            .is_none());
        assert!(EqPred::of(&q("1 lt 2")).is_none());
        assert_eq!(conjuncts(&q("1 = 1 and (2 = 2 and 3 = 3)")).len(), 3);
    }
}
