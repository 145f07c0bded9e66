//! Plan-time cardinality estimation.
//!
//! After all plan-shaping rules have run, the planner
//! ([`crate::rewrite::plan`]) stamps every compiled FLWOR, innermost
//! first, with [`estimate_chain`]: per pipeline operator (plus the
//! `ReturnAt` sink) the row count it is *expected* to emit. The
//! estimates come from the attached [`CatalogStatistics`] — the one
//! thing in the planner that reads them; no plan decision does — falling
//! back to structural facts the IR itself proves (literal ranges, literal
//! sequences, nested-FLWOR sink estimates).
//!
//! At run time the [`crate::pipeline`] instrumentation counts *actual*
//! tuples per operator; `explain analyze` joins the two into an
//! `est/actual (q=N.N)` column where the q-error is the standard
//! symmetric ratio `max(est/actual, actual/est)` (both clamped to ≥ 1
//! so empty operators don't divide by zero). The q-error stream is the
//! feedback signal the flight recorder aggregates per plan fingerprint,
//! and what future join-order / DOP decisions will be judged against.
//!
//! The per-operator model is deliberately simple and documented here
//! so misestimates are attributable:
//!
//! - `ForScan` — fan-out per input tuple from [`source_cardinality`],
//!   times `1/ndv` per value probe ([`OpIr::probes`]); a
//!   `distinct-values(P/k)` source yields the catalog's `ndv(k)`; unknown
//!   sources poison the rest of the chain (`None` propagates).
//! - `LetBind` / `CountBind` — 1:1, estimate passes through. A
//!   `HashJoin`-annotated `let` is still 1:1 on the *tuple* stream (it
//!   binds a sequence per tuple); the matched-pairs volume is the
//!   classic [`join_cardinality`] `|build| × |probe| / ndv(key)`.
//! - `Filter` — the leading conjuncts the `for` before it probed are
//!   not counted again, and a filter with none left passes its input;
//!   one remaining equality predicate against a value-indexed leaf uses
//!   the catalog's distinct-value count (`1/ndv` selectivity); a
//!   `HashJoin`-annotated existential filter uses [`join_cardinality`]
//!   capped at its input; everything else keeps the fixed
//!   [`FILTER_SELECTIVITY`] (the classic System-R default of 1/2 for
//!   an unanalyzed predicate).
//! - `WindowScan` — emits an unknown number of windows → `None`.
//! - `GroupConsume` — when every key is a predicate-free `$v/k` child
//!   path whose leaf the catalog counts, `min(n, Π ndv(k))` groups;
//!   otherwise the distinct-group count is guessed as `⌈√n⌉` of its
//!   input.
//! - `OrderBy` — `min(n, limit)` when top-k pushdown bounded it,
//!   otherwise a pass-through.
//! - `ReturnAt` — one output ordinal per input tuple.

use crate::functions::Builtin;
use crate::ir::*;
use crate::rewrite::{conjuncts, joined, value_keys, EqPred, Joined};
use xqa_storage::CatalogStatistics;

/// Default selectivity assumed for an unanalyzed `where` predicate.
pub const FILTER_SELECTIVITY: f64 = 0.5;

/// Stamp one estimate on every operator record of `f` and on its
/// `ReturnAt` sink (see the module docs for the model). Reads top-k
/// limits, access paths, join annotations and nested FLWORs' own
/// estimates; with no statistics attached only structurally-provable
/// sources (literal ranges and sequences) seed the chain.
pub(crate) fn estimate_chain(f: &mut FlworIr, stats: Option<&CatalogStatistics>) {
    // Tuples flowing into the next operator; the chain starts with the
    // single empty tuple every FLWOR conceptually begins from.
    let mut card: Option<u64> = Some(1);
    // Leading conjuncts of the next `where` the `for` before it probed.
    let mut probed = 0;
    for op in &mut f.ops {
        card = match &op.clause {
            ClauseIr::For { expr, .. } => {
                let fanout = source_cardinality(expr, stats);
                // A value probe on `c` keeps `1/ndv(c)` of the rows.
                let sel: f64 = op
                    .probes
                    .iter()
                    .map(
                        |(c, _)| match stats.and_then(|stats| stats.distinct_values(c)) {
                            Some(ndv) => 1.0 / ndv as f64,
                            None => FILTER_SELECTIVITY,
                        },
                    )
                    .product();
                match (card, fanout) {
                    (Some(n), Some(k)) => Some((n.saturating_mul(k) as f64 * sel).ceil() as u64),
                    _ => None,
                }
            }
            ClauseIr::Let { .. } | ClauseIr::Count { .. } => card,
            ClauseIr::Where(pred) => match joined(op) {
                // Semi-join: tuples whose probe key hits the build
                // table, estimated from the equi-join formula capped at
                // the input (each tuple survives at most once).
                Some(j) => match (card, join_estimate(&j, card, stats)) {
                    (Some(n), Some(m)) => Some(n.min(m)),
                    _ => card.map(filter_fallback),
                },
                None => card.map(|n| match conjuncts(pred)[probed..] {
                    [] => n,
                    [pred] => match eq_pred_selectivity(pred, stats) {
                        Some(sel) => ((n as f64 * sel).ceil() as u64).max(1),
                        None => filter_fallback(n),
                    },
                    _ => filter_fallback(n),
                }),
            },
            ClauseIr::Window(_) => None,
            ClauseIr::GroupBy(g) => card.map(|n| match key_combinations(g, stats) {
                Some(groups) => n.min(groups),
                None => isqrt(n).max(1),
            }),
            ClauseIr::OrderBy(ob) => match ob.limit {
                Some(k) => Some(card.map_or(k as u64, |n| n.min(k as u64))),
                None => card,
            },
        };
        op.estimate = card;
        probed = op.probes.len();
    }
    // The sink emits one output ordinal per surviving tuple.
    f.return_estimate = card;
}

fn filter_fallback(n: u64) -> u64 {
    (n as f64 * FILTER_SELECTIVITY).ceil() as u64
}

/// Classic equi-join output cardinality under uniformity:
/// `|build| × |probe| / ndv(key)` — every probe key matches
/// `|build| / ndv` build rows on average.
fn join_cardinality(build: u64, probe: u64, ndv: u64) -> u64 {
    ((build as f64) * (probe as f64) / (ndv.max(1) as f64)).ceil() as u64
}

/// Matched-pairs estimate for an annotated join: build-side cardinality
/// from [`source_cardinality`], key ndv from the catalog's per-name
/// distinct counts (keyed by the build key's deepest named step).
fn join_estimate(j: &Joined, probe: Option<u64>, stats: Option<&CatalogStatistics>) -> Option<u64> {
    let build = source_cardinality(j.join.src, stats)?;
    let ndv = stats?.distinct_values(&key_leaf_name(j.build_key)?)?;
    Some(join_cardinality(build, probe?, ndv))
}

/// The deepest named element step of a key path — the leaf whose
/// per-name ndv stands in for the join key's distinct count.
fn key_leaf_name(key: &Ir) -> Option<xqa_xdm::QName> {
    let Ir::Path(p) = key else { return None };
    p.steps.iter().rev().find_map(|step| match step {
        StepIr::Axis {
            test: NodeTestIr::Name(q),
            predicates,
            ..
        } if predicates.is_empty() => Some(q.clone()),
        _ => None,
    })
}

/// `Π ndv(k)` over the keys of a `group by` whose keys are all `$v/k`
/// ([`value_keys`]) with leaves the catalog counts: the most groups the
/// keys can form. `None` for any other key.
fn key_combinations(g: &GroupByIr, stats: Option<&CatalogStatistics>) -> Option<u64> {
    let stats = stats?;
    value_keys(g)?.iter().try_fold(1u64, |groups, (_, k)| {
        Some(groups.saturating_mul(stats.distinct_values(k)?))
    })
}

/// Selectivity of an equality `where` predicate whose compared side is
/// a predicate-free named path (`$x/c = lit`, `//T/c = $v`, either
/// operand order): `1/ndv` when the catalog counts that leaf's distinct
/// values. `None` falls back to [`FILTER_SELECTIVITY`].
fn eq_pred_selectivity(pred: &Ir, stats: Option<&CatalogStatistics>) -> Option<f64> {
    let stats = stats?;
    let (ndv, _) = EqPred::of(pred)?.orient(|side| stats.distinct_values(&key_leaf_name(side)?))?;
    Some(1.0 / ndv as f64)
}

/// How many items the planner expects a `for` binding sequence to
/// yield. `None` means "no idea" — the honest answer for arbitrary
/// expressions — and poisons downstream estimates rather than
/// fabricating a magic constant.
fn source_cardinality(expr: &Ir, stats: Option<&CatalogStatistics>) -> Option<u64> {
    match expr {
        Ir::Int(_) | Ir::Dec(_) | Ir::Dbl(_) | Ir::Str(_) => Some(1),
        Ir::Empty => Some(0),
        Ir::Seq(items) => Some(items.len() as u64),
        Ir::Range(a, b) => match (a.as_ref(), b.as_ref()) {
            (Ir::Int(lo), Ir::Int(hi)) if hi >= lo => Some((hi - lo + 1) as u64),
            (Ir::Int(_), Ir::Int(_)) => Some(0),
            _ => None,
        },
        Ir::Flwor(f) => f.return_estimate,
        Ir::Path(p) => path_cardinality(p, stats?),
        Ir::CallBuiltin(Builtin::DistinctValues, args) => match args.as_slice() {
            [arg @ Ir::Path(p)] if document_wide(p) => stats?.distinct_values(&key_leaf_name(arg)?),
            _ => None,
        },
        _ => None,
    }
}

/// Estimate a path scan from catalog statistics: the element count of
/// the *deepest named element step* bounds the scan's output (each
/// element appears at most once however it is reached), discounted by
/// [`FILTER_SELECTIVITY`] per predicate on that step. A value-eq index
/// probe selects among those elements by one child's value: with the
/// catalog's distinct count for that leaf, `count / ndv` matches per
/// probed value; without it the group-count heuristic `⌈√n⌉` stands in
/// (and subsumes the probe predicate itself).
fn path_cardinality(p: &PathIr, stats: &CatalogStatistics) -> Option<u64> {
    if !document_wide(p) {
        return None;
    }
    let (deepest, predicates) = p.steps.iter().rev().find_map(|step| match step {
        StepIr::Axis {
            test: NodeTestIr::Name(q),
            predicates,
            ..
        } => Some((q, predicates.len())),
        _ => None,
    })?;
    let count = stats.element_count(deepest);
    if let AccessPathIr::IndexValueEq { child, .. } = &p.access {
        if let Some(ndv) = stats.distinct_values(child) {
            return Some((count / ndv).max(1));
        }
        return Some(isqrt(count).max(1));
    }
    let mut est = count as f64;
    for _ in 0..predicates {
        est *= FILTER_SELECTIVITY;
    }
    Some(est.ceil() as u64)
}

/// Whether a path starts where the catalog's whole-document counts apply:
/// the root or the context item, not a variable bound per tuple.
fn document_wide(p: &PathIr) -> bool {
    matches!(p.start, PathStartIr::Root | PathStartIr::Context)
}

/// Integer square root (newton), enough for group-count guessing.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use xqa_frontend::parse_query;

    fn stamped(src: &str) -> CompiledQuery {
        let module = parse_query(src).expect("parse");
        let mut compiled = compile::compile(&module).expect("compile");
        crate::rewrite::plan(&mut compiled, Default::default(), None);
        compiled
    }

    fn body_estimates(q: &CompiledQuery) -> Vec<Option<u64>> {
        match &q.body {
            Ir::Flwor(f) => f
                .ops
                .iter()
                .map(|op| op.estimate)
                .chain([f.return_estimate])
                .collect(),
            other => panic!("expected FLWOR body, got {other:?}"),
        }
    }

    #[test]
    fn isqrt_matches_float_sqrt() {
        for n in [0u64, 1, 2, 3, 4, 24, 25, 26, 10_000, 999_983] {
            assert_eq!(isqrt(n), (n as f64).sqrt() as u64, "n={n}");
        }
    }

    #[test]
    fn literal_range_seeds_the_chain() {
        let q = stamped("for $x in 1 to 50 where $x le 40 return $x");
        // ForScan 50 -> Filter 25 -> ReturnAt 25
        assert_eq!(body_estimates(&q), vec![Some(50), Some(25), Some(25)]);
    }

    #[test]
    fn group_and_passthrough_operators() {
        let q = stamped(
            "for $x in 1 to 100 count $c let $m := $x mod 5 \
             group by $m into $k nest $x into $xs return $k",
        );
        // ForScan 100 -> CountBind 100 -> LetBind 100 -> GroupConsume 10 -> sink 10
        assert_eq!(
            body_estimates(&q),
            vec![Some(100), Some(100), Some(100), Some(10), Some(10)]
        );
    }

    #[test]
    fn unknown_source_poisons_downstream() {
        let q = stamped("for $x in //item where $x > 1 return $x");
        // No statistics attached: the path scan is unknown, and so is
        // everything after it.
        assert_eq!(body_estimates(&q), vec![None, None, None]);
    }

    #[test]
    fn nested_flwor_sink_feeds_outer_source() {
        let q = stamped("for $x in (for $y in 1 to 10 return $y) return $x");
        assert_eq!(body_estimates(&q), vec![Some(10), Some(10)]);
    }

    #[test]
    fn empty_and_literal_sources() {
        let q = stamped("for $x in (1, 2, 3) return $x");
        assert_eq!(body_estimates(&q), vec![Some(3), Some(3)]);
    }
}
