//! The planner: one ordered list of rules over the compiled plan.
//!
//! [`plan`] is every plan-shaping pass of the engine — the rewrites,
//! the access-path and join annotations and cardinality estimates — as
//! one rule list ([`RULES`]) run by one driver: for each enabled rule,
//! for each expression root of the query
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
//!   finds the operand a rule is looking for on *either* side;
//! - [`NestedJoin`] — `let $m := (for $y in S where C return $y)` or
//!   `where some $y in S satisfies C`, as the inner variable, the
//!   source `S` and `C`'s conjunct list: the join graph of *XQuery Join
//!   Graph Isolation* (Grust et al.) cut down to one edge.
//!
//! Join unnesting, the value-equality index shape, a `for`'s value
//! probes, implicit group-by detection and the estimator's equality
//! selectivity are each one match on those views. The views never
//! reorder operands in the IR: a hash join must raise what the nested
//! loop raises first, so its annotation ([`JoinIr`]) records only which
//! operand is its build key, the operator reads the clause back through
//! [`joined`], and the fallback scan evaluates the predicate as written.
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
use crate::{estimate, fold, PlanHints, RewriteKind, RewriteNote};
use std::collections::HashSet;
use std::fmt::Write;
use xqa_frontend::ast::{Axis, Quantifier};
use xqa_storage::CatalogStatistics;
use xqa_xdm::{CompOp, QName};

/// What a rule sees besides the root it is planning.
struct Cx<'a> {
    /// Read by the estimates alone: no plan decision depends on them.
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
    /// Whether the rule runs at all under these hints: the pin, else the
    /// hint's default ([`crate::PlanHints::table`]). Nothing else turns
    /// a rule on or off.
    enabled: fn(&PlanHints) -> bool,
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
/// 3. *nest aggregation* after implicit group-by, whose `count($items)`
///    it also sees.
/// 4. *top-k pushdown* only changes how the order-by runs; the residual
///    predicate stays in place.
/// 5. *path fusion* before index annotation, so `//T` is visible as one
///    `descendant::T` step.
/// 6. *index annotation*.
/// 7. *value-id grouping*, under the index annotation's hint: it only
///    chooses how a `group by` finds its groups.
/// 8. *join unnesting*.
/// 9. *value probes*, under the index annotation's hint, after join
///    unnesting: a `where` the join rule annotated is not probed.
/// 10. *source hoisting*, after join unnesting: a `let` the join rule
///     annotated never runs its FLWOR, so it keeps no source.
/// 11. *estimates* last, after every plan-shaping rule (they read top-k
///     limits, access paths, join annotations and value probes).
const RULES: [Rule; 11] = [
    Rule {
        kind: Some(RewriteKind::ImplicitGroupBy),
        located: false,
        enabled: |hints| hints.implicit_groupby == Some(true),
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
        enabled: |hints| hints.nest_agg != Some(false),
        apply: aggregate_count_nests,
    },
    Rule {
        kind: Some(RewriteKind::TopKPushdown),
        located: true,
        enabled: |hints| hints.topk != Some(false),
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
        enabled: index_access,
        apply: annotate_index_scans,
    },
    Rule {
        kind: None,
        located: false,
        enabled: index_access,
        apply: annotate_value_keys,
    },
    Rule {
        kind: Some(RewriteKind::JoinUnnest),
        located: true,
        enabled: |hints| hints.hash_join != Some(false),
        apply: unnest_joins,
    },
    Rule {
        kind: None,
        located: false,
        enabled: index_access,
        apply: annotate_value_probes,
    },
    Rule {
        kind: None,
        located: false,
        enabled: |_| true,
        apply: hoist_invariant_sources,
    },
    Rule {
        kind: None,
        located: false,
        enabled: |_| true,
        apply: stamp_estimates,
    },
];

/// The `access` hint of the index annotation, value-id grouping and
/// value-probe rules: on unless `access=walk`.
fn index_access(hints: &PlanHints) -> bool {
    hints.index_scan != Some(false)
}

/// Shape the compiled plan: run every enabled rule of [`RULES`], in
/// order, over every root of the query. `hints` are taken as given;
/// `stats` are the attached catalog statistics, if any, and only the
/// estimates read them.
/// Returns what fired, rule by rule, root by root.
pub fn plan(
    query: &mut CompiledQuery,
    hints: PlanHints,
    stats: Option<&CatalogStatistics>,
) -> Vec<RewriteNote> {
    let mut cx = Cx {
        stats,
        fired: Vec::new(),
        tally: 0,
    };
    let mut notes = Vec::new();
    for rule in &RULES {
        if !(rule.enabled)(&hints) {
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
pub(crate) fn conjuncts(pred: &Ir) -> Vec<&Ir> {
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
    /// made of it and the *other* operand. The IR is not touched.
    pub(crate) fn orient<T>(&self, side: impl Fn(&'a Ir) -> Option<T>) -> Option<(T, &'a Ir)> {
        match side(self.lhs) {
            Some(found) => Some((found, self.rhs)),
            None => side(self.rhs).map(|found| (found, self.lhs)),
        }
    }
}

/// A nested selection: `let $m := (for $y in S where C return $y)`
/// with no `at` / type / `return at` decoration on the inner FLWOR, or
/// `where some $y in S satisfies C` with its single binding.
pub(crate) struct NestedJoin<'a> {
    /// What the matches feed: the `let`'s slot and declared type, or
    /// `None` for the existential filter, which keeps the tuple iff any
    /// item matches.
    pub(crate) binds: Option<(Slot, Option<&'a SeqTypeIr>)>,
    /// Slot of the inner variable `$y`.
    pub(crate) y: Slot,
    /// The inner source `S`.
    pub(crate) src: &'a Ir,
    /// `C`, as its conjuncts.
    conjuncts: Vec<&'a Ir>,
}

impl<'a> NestedJoin<'a> {
    fn of(clause: &'a ClauseIr) -> Option<NestedJoin<'a>> {
        let (binds, y, src, pred) = match clause {
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
                (Some((*slot, ty.as_ref())), *y, src, pred)
            }
            ClauseIr::Where(Ir::Quantified {
                kind: Quantifier::Some,
                bindings,
                satisfies,
            }) => {
                let [(y, src)] = bindings.as_slice() else {
                    return None;
                };
                (None, *y, src, &**satisfies)
            }
            _ => return None,
        };
        Some(NestedJoin {
            binds,
            y,
            src,
            conjuncts: conjuncts(pred),
        })
    }
}

/// A join-annotated clause read back through its [`NestedJoin`] view,
/// its key operands as [`JoinIr`] oriented them.
pub(crate) struct Joined<'a> {
    pub(crate) join: NestedJoin<'a>,
    /// `C`, one equality: the fallback scan evaluates it as written.
    pub(crate) pred: &'a Ir,
    /// The operand independent of `$y`.
    pub(crate) probe_key: &'a Ir,
    /// The operand that references `$y`.
    pub(crate) build_key: &'a Ir,
    /// `eq` rather than `=`.
    pub(crate) value_comp: bool,
    /// `c` where the store may answer a build key `$y/c` under `=`
    /// ([`JoinIr::indexed`]).
    pub(crate) index_key: Option<&'a QName>,
}

/// The join `op` runs, if the join-unnesting rule annotated it.
pub(crate) fn joined(op: &OpIr) -> Option<Joined<'_>> {
    let j = op.join.as_ref()?;
    let join = NestedJoin::of(&op.clause)?;
    let [pred] = join.conjuncts[..] else {
        return None;
    };
    let eq = EqPred::of(pred)?;
    let (probe_key, build_key) = match j.build_rhs {
        true => (eq.lhs, eq.rhs),
        false => (eq.rhs, eq.lhs),
    };
    let index_key = child_of(build_key, join.y).filter(|_| j.indexed && !eq.value_comp);
    Some(Joined {
        join,
        pred,
        probe_key,
        build_key,
        value_comp: eq.value_comp,
        index_key,
    })
}

impl Joined<'_> {
    /// The `key=probe ~ build` description explain output and rewrite
    /// notes print.
    pub(crate) fn key_desc(&self) -> String {
        let op = if self.value_comp { "eq" } else { "=" };
        let (probe, build) = (expr_oneline(self.probe_key), expr_oneline(self.build_key));
        format!("key={probe} {op} {build}")
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

/// The name `c` of `$v/c`, one plain `child::c` step from the variable
/// in `slot`.
fn child_of(ir: &Ir, slot: Slot) -> Option<&QName> {
    match ir {
        Ir::Path(p) if matches!(p.start, PathStartIr::Expr(Ir::Var(v)) if v == slot) => {
            plain_child_step(p)
        }
        _ => None,
    }
}

/// A conjunct `$v/c = K`: a general comparison, in either operand
/// order, of `$v/c` (see [`child_of`]) and `K`. Returns `c`, the `$v/c`
/// operand and `K`.
fn child_eq(conjunct: &Ir, slot: Slot) -> Option<(&QName, &Ir, &Ir)> {
    let eq = EqPred::of(conjunct).filter(|eq| !eq.value_comp)?;
    let ((c, path), key) = eq.orient(|side| Some((child_of(side, slot)?, side)))?;
    Some((c, path, key))
}

/// Structural identity of two IR fragments. `Ir` holds `f64` literals,
/// so it derives no `PartialEq`; its derived
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
    let Some((items, None)) = join.binds else {
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
            let (c, path, other) = child_eq(c, join.y)?;
            (c == key && matches!(other, Ir::Var(v) if v == slot)).then_some(path)
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
    f.ops = [scan, group]
        .into_iter()
        .chain(rest.first().copied().cloned())
        .map(OpIr::from)
        .collect();
    Some(fors)
}

// ---- constant folding, estimates --------------------------------------

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
/// path (see [`AccessPathIr`]); `access=walk` turns the rule off. Two
/// shapes qualify:
///
/// - `descendant::T` with no predicates → [`AccessPathIr::IndexDescendant`]:
///   a label-range slice of `T`'s element postings.
/// - `descendant::T[c = literal]` (an [`EqPred`] between a plain child
///   name step from the context and a string or numeric constant, in
///   either order) → [`AccessPathIr::IndexValueEq`]: candidate parents
///   from the typed-value index, residual predicate re-evaluated. The
///   exact shape guarantees the predicate is position-free, so
///   prefiltering cannot renumber anything.
///
/// The annotation is a plan-time *choice*, not a promise: the evaluator
/// still falls back to the walk per context item when no store covers
/// its document or the store cannot answer exactly (some `c` is not a
/// leaf, or for a numeric probe some value is not an `xs:double`, where
/// the walk could raise a cast error the index would skip), so results
/// are always byte-identical to the walk.
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
        if let Some((access, note)) = choose_access_path(p) {
            p.access = access;
            cx.fired.push(format!("index scan: {note}"));
        }
    });
}

/// Decide the access path for one compiled path, if an index shape
/// matches. Returns the annotation plus its rewrite-note text.
fn choose_access_path(p: &PathIr) -> Option<(AccessPathIr, String)> {
    let StepIr::Axis {
        axis: Axis::Descendant,
        test: NodeTestIr::Name(name),
        predicates,
    } = p.steps.first()?
    else {
        return None;
    };
    match predicates.as_slice() {
        [] => Some((
            AccessPathIr::IndexDescendant,
            format!("descendant scan //{name} resolved via label-range postings"),
        )),
        [pred] => {
            let (child, probe) = value_eq_probe(pred)?;
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
    let (child, literal) = eq.orient(|side| match side {
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

// ---- value-id grouping ------------------------------------------------

/// Record [`OpIr::value_keys`] on every `group by` whose keys are all
/// `$v/N` — one predicate-free `child::N` step from a variable, no
/// `using` — so the group operator keys tuples by the document store's
/// dictionary ids of those children. Like the index annotation this is a
/// choice, not a promise: the operator falls back to canonical keys at
/// the first tuple the store cannot code, so results are those of the
/// uncoded plan.
fn annotate_value_keys(root: &mut Ir, _: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        for op in &mut f.ops {
            let ClauseIr::GroupBy(g) = &op.clause else {
                continue;
            };
            if let Some(keys) = value_keys(g) {
                op.value_keys = keys;
            }
        }
    });
}

/// Per key, `$v`'s slot and `N`, when every key qualifies.
pub(crate) fn value_keys(g: &GroupByIr) -> Option<Vec<(Slot, QName)>> {
    g.keys
        .iter()
        .map(|key| {
            let Ir::Path(p) = &key.expr else {
                return None;
            };
            let (PathStartIr::Expr(Ir::Var(v)), None) = (&p.start, key.using) else {
                return None;
            };
            Some((*v, plain_child_step(p)?.clone()))
        })
        .collect()
}

// ---- value probes ----------------------------------------------------

/// Record [`OpIr::probes`] on every `for` directly followed by a `where`
/// the join rule left alone: the `where`'s leading conjuncts of the form
/// `$v/c = $x` — a general comparison, in either operand order, of one
/// predicate-free `child::c` step from the `for`'s variable `$v` and a
/// variable `$x` bound before the `for`. A `for` with `at` or a declared
/// type declines: dropping items would renumber the positions or skip
/// the type check. The first other conjunct ends the list, since `and`
/// evaluates its operands in order and a dropped tuple must be one whose
/// `where` would not have raised.
///
/// Also set [`JoinIr::indexed`] on every join: where its build key is
/// `$y/c` under `=`, the same lookup answers its probes.
fn annotate_value_probes(root: &mut Ir, _: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        for j in f.ops.iter_mut().filter_map(|op| op.join.as_mut()) {
            j.indexed = true;
        }
        for i in 1..f.ops.len() {
            let (scan, next) = (&f.ops[i - 1], &f.ops[i]);
            let (
                ClauseIr::For {
                    slot,
                    at_slot: None,
                    ty: None,
                    ..
                },
                ClauseIr::Where(pred),
                None,
            ) = (&scan.clause, &next.clause, &next.join)
            else {
                continue;
            };
            let probes = conjuncts(pred)
                .into_iter()
                .map_while(|conjunct| match child_eq(conjunct, *slot)? {
                    (c, _, Ir::Var(x)) if x != slot => Some((c.clone(), *x)),
                    _ => None,
                })
                .collect();
            f.ops[i - 1].probes = probes;
        }
    });
}

// ---- source hoisting --------------------------------------------------

/// Set [`OpIr::hoist`] where a `for` source stays the same for a whole
/// FLWOR execution: (a) a `for` that is not the FLWOR's first clause,
/// and (b) a `let $v := G` the join rule left alone whose FLWOR `G`
/// starts with a `for`, keeping `G`'s first source across `G`'s runs.
/// The source must read no slot the enclosing FLWOR binds (nor, in (b),
/// one `G` binds) and be [`rebuild_safe`]: a constructor mints new
/// nodes per evaluation, and a user function body is not inspected.
/// The first clause of a FLWOR runs once per execution anyway.
fn hoist_invariant_sources(root: &mut Ir, _: &mut Cx<'_>) {
    let invariant =
        |src: &Ir, bound: &HashSet<Slot>| rebuild_safe(src) && !refs_any_slot(src, bound);
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        let bound = flwor_bound_slots(f);
        for (i, op) in f.ops.iter_mut().enumerate() {
            op.hoist = match (&op.clause, &op.join) {
                (ClauseIr::For { expr, .. }, _) => i > 0 && invariant(expr, &bound),
                (
                    ClauseIr::Let {
                        expr: Ir::Flwor(g), ..
                    },
                    None,
                ) => match g.ops.first() {
                    Some(OpIr {
                        clause: ClauseIr::For { expr, .. },
                        ..
                    }) => {
                        let mut bound = bound.clone();
                        bound.extend(flwor_bound_slots(g));
                        invariant(expr, &bound)
                    }
                    _ => false,
                },
                _ => false,
            };
        }
    });
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
/// The clause's IR is left untouched; the annotation only records which
/// operand is the build key and changes which operator its record runs
/// as ([`OpKind::of`]), so the runtime's per-probe fallback scan still
/// evaluates the exact original predicate.
///
/// `join=nested` turns the rule off; otherwise it annotates every
/// matching shape.
fn unnest_joins(root: &mut Ir, cx: &mut Cx<'_>) {
    walk(root, false, &mut |ir| {
        let Ir::Flwor(f) = ir else { return };
        let bound = flwor_bound_slots(f);
        for op in &mut f.ops {
            op.join = match_join(&op.clause, &bound);
            let Some(j) = joined(op) else {
                continue;
            };
            cx.fired.push(format!(
                "hash join: {} unnested on {}",
                match j.join.binds {
                    Some((slot, _)) => format!("let slot{slot} binding"),
                    None => "existential filter".to_string(),
                },
                j.key_desc(),
            ));
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

fn match_join(clause: &ClauseIr, bound: &HashSet<Slot>) -> Option<JoinIr> {
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
    let (build_key, probe_key) = eq.orient(|side| refs_any_slot(side, &y).then_some(side))?;
    if refs_any_slot(probe_key, &y) || refs_any_slot(build_key, bound) {
        return None;
    }
    Some(JoinIr {
        build_rhs: std::ptr::eq(build_key, eq.rhs),
        indexed: false,
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
        for (src, value_comp) in [("1 = \"a\"", false), ("\"a\" eq 1", true)] {
            let body = q(src);
            let eq = EqPred::of(&body).expect("an equality");
            assert_eq!(eq.value_comp, value_comp);
            let ((), other) = eq.orient(is_int).expect("one side is an integer");
            assert!(matches!(other, Ir::Str(_)));
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
