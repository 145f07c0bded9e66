//! Plan rendering ("explain") for compiled queries.
//!
//! Renders the IR as an indented operator tree. The motivating use is
//! the paper's argument made visible: the Table-1 `Qgb` plan is a
//! single scan feeding one `GroupBy`, while the `Q` plan is a
//! `distinct-values` scan with a *nested re-scan per tuple*.

use crate::context::EvalStatsSnapshot;
use crate::functions;
use crate::ir::*;
use crate::profile::QueryProfile;
use std::fmt::Write;

/// Render a whole compiled query.
pub fn explain_query(query: &CompiledQuery) -> String {
    let mut out = String::new();
    for (i, g) in query.globals.iter().enumerate() {
        let _ = writeln!(out, "global ${} (slot g{i}):", g.name);
        write_ir(&mut out, &g.init, 1);
    }
    for f in &query.functions {
        let _ = writeln!(out, "function {}#{}:", f.name, f.arity);
        write_ir(&mut out, &f.body, 1);
    }
    let _ = writeln!(
        out,
        "query body (frame size {}, streaming pipeline):",
        query.frame_size,
    );
    write_ir(&mut out, &query.body, 1);
    out
}

/// Render a measured profile as `explain analyze` text: every executed
/// pipeline with per-operator batch/tuple counts and self time, next to
/// the plan's `[heap]` / `[materializes]` tags, then the run's sequence
/// copy and index scan counters from `stats`.
pub fn explain_analyze(profile: &QueryProfile, stats: &EvalStatsSnapshot) -> String {
    let mut out = String::from("explain analyze:\n");
    if profile.is_empty() {
        out.push_str("  (no streaming pipeline executed)\n");
        return out;
    }
    for (i, p) in profile.pipelines.iter().enumerate() {
        let _ = writeln!(
            out,
            "pipeline #{i} ({} execution(s), total {}):",
            p.executions,
            fmt_time(p.total_nanos())
        );
        let _ = writeln!(out, "  plan: {}", p.signature());
        for op in &p.ops {
            let mut row = format!(
                "  {:<32} batches={:<6} tuples_in={:<8} tuples_out={:<8} time={}",
                op.label(),
                op.batches,
                op.tuples_in,
                op.tuples_out,
                fmt_time(op.nanos)
            );
            if let (Some(est), Some(q)) = (op.estimate, op.q_error()) {
                let _ = write!(row, " est/actual={}/{} (q={:.1})", est, op.tuples_out, q);
            }
            let _ = writeln!(out, "{row}");
        }
    }
    let _ = writeln!(
        out,
        "seq copies: items_copied={} clones_shared={}",
        stats.seq_items_copied, stats.seq_clones_shared
    );
    let _ = writeln!(
        out,
        "index scans: hits={} index_tuples={} walk_tuples={}",
        stats.scan_index_hits, stats.scan_index_tuples, stats.scan_walk_tuples
    );
    if let Some(m) = profile.worst_misestimate() {
        let _ = writeln!(
            out,
            "worst misestimate: {} est={} actual={} (q={:.1})",
            m.label, m.estimated, m.actual, m.q_error
        );
    }
    out
}

/// A stable fingerprint of the rewritten plan: FNV-1a (64-bit) over the
/// `explain` rendering — clause structure, operator plan and access
/// paths all feed the hash, so two requests share a fingerprint exactly
/// when the optimizer produced the same plan shape. FNV-1a is spelled out here (not
/// `DefaultHasher`) so fingerprints are stable across Rust releases and
/// processes — they key the service's flight-recorder aggregation and
/// may be logged or compared offline.
pub fn plan_fingerprint(query: &CompiledQuery) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in explain_query(query).bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn fmt_time(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1_000_000.0)
}

fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    pad(out, depth);
    out.push_str(text);
    out.push('\n');
}

fn write_ir(out: &mut String, ir: &Ir, depth: usize) {
    match ir {
        Ir::Str(s) => line(out, depth, &format!("string {s:?}")),
        Ir::Int(v) => line(out, depth, &format!("integer {v}")),
        Ir::Dec(v) => line(out, depth, &format!("decimal {v}")),
        Ir::Dbl(v) => line(out, depth, &format!("double {v}")),
        Ir::Empty => line(out, depth, "empty-sequence"),
        Ir::Seq(items) => {
            line(out, depth, "sequence");
            for item in items {
                write_ir(out, item, depth + 1);
            }
        }
        Ir::Var(slot) => line(out, depth, &format!("var slot{slot}")),
        Ir::Global(g) => line(out, depth, &format!("global g{g}")),
        Ir::ContextItem => line(out, depth, "context-item"),
        Ir::Range(a, b) => {
            line(out, depth, "range");
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::Arith(op, a, b) => {
            line(out, depth, &format!("arith {op:?}"));
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::Neg(a) => {
            line(out, depth, "negate");
            write_ir(out, a, depth + 1);
        }
        Ir::GeneralComp(op, a, b) => {
            line(out, depth, &format!("general-compare {op:?} (existential)"));
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::ValueComp(op, a, b) => {
            line(out, depth, &format!("value-compare {op:?}"));
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::NodeComp(op, a, b) => {
            line(out, depth, &format!("node-compare {op:?}"));
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::And(a, b) => {
            line(out, depth, "and");
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::Or(a, b) => {
            line(out, depth, "or");
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::SetOp(op, a, b) => {
            line(out, depth, &format!("set-op {op:?}"));
            write_ir(out, a, depth + 1);
            write_ir(out, b, depth + 1);
        }
        Ir::If(c, t, e) => {
            line(out, depth, "if");
            write_ir(out, c, depth + 1);
            line(out, depth, "then");
            write_ir(out, t, depth + 1);
            line(out, depth, "else");
            write_ir(out, e, depth + 1);
        }
        Ir::Quantified {
            kind,
            bindings,
            satisfies,
        } => {
            line(out, depth, &format!("quantified {kind:?}"));
            for (slot, expr) in bindings {
                line(out, depth + 1, &format!("bind slot{slot} in"));
                write_ir(out, expr, depth + 2);
            }
            line(out, depth + 1, "satisfies");
            write_ir(out, satisfies, depth + 2);
        }
        Ir::Flwor(f) => write_flwor(out, f, depth, true),
        Ir::Path(p) => {
            let start = match &p.start {
                PathStartIr::Context => "context".to_string(),
                PathStartIr::Root => "root".to_string(),
                PathStartIr::Expr(_) => "expr".to_string(),
            };
            line(
                out,
                depth,
                &format!("path from {start}{}", p.describe_access(true)),
            );
            if let PathStartIr::Expr(e) = &p.start {
                write_ir(out, e, depth + 1);
            }
            for step in &p.steps {
                match step {
                    StepIr::Axis {
                        axis,
                        test,
                        predicates,
                    } => {
                        line(
                            out,
                            depth + 1,
                            &format!(
                                "step {axis:?}::{}{}",
                                describe_test(test),
                                preds(predicates)
                            ),
                        );
                        for p in predicates {
                            write_ir(out, p, depth + 2);
                        }
                    }
                    StepIr::Expr { expr, predicates } => {
                        line(out, depth + 1, &format!("step expr{}", preds(predicates)));
                        write_ir(out, expr, depth + 2);
                        for p in predicates {
                            write_ir(out, p, depth + 2);
                        }
                    }
                }
            }
        }
        Ir::Filter { base, predicates } => {
            line(out, depth, &format!("filter{}", preds(predicates)));
            write_ir(out, base, depth + 1);
            for p in predicates {
                write_ir(out, p, depth + 1);
            }
        }
        Ir::CallBuiltin(b, args) => {
            line(out, depth, &format!("call {}", functions::name(*b)));
            for a in args {
                write_ir(out, a, depth + 1);
            }
        }
        Ir::CallUser(id, args) => {
            line(out, depth, &format!("call user#{id}"));
            for a in args {
                write_ir(out, a, depth + 1);
            }
        }
        Ir::Element(el) => {
            line(out, depth, &format!("construct element <{}>", el.name));
            for (name, parts) in &el.attributes {
                line(out, depth + 1, &format!("attribute {name}"));
                for part in parts {
                    match part {
                        AttrPartIr::Literal(s) => line(out, depth + 2, &format!("literal {s:?}")),
                        AttrPartIr::Enclosed(e) => write_ir(out, e, depth + 2),
                    }
                }
            }
            for part in &el.content {
                match part {
                    ContentIr::Literal(s) => line(out, depth + 1, &format!("text {s:?}")),
                    ContentIr::Enclosed(e) => {
                        line(out, depth + 1, "enclosed");
                        write_ir(out, e, depth + 2);
                    }
                    ContentIr::Child(e) => write_ir(out, e, depth + 1),
                }
            }
        }
        Ir::Attribute { name, value } => {
            line(out, depth, &format!("construct attribute {name}"));
            if let Some(v) = value {
                write_ir(out, v, depth + 1);
            }
        }
        Ir::Text(content) => {
            line(out, depth, "construct text");
            if let Some(c) = content {
                write_ir(out, c, depth + 1);
            }
        }
        Ir::Comment(text) => line(out, depth, &format!("construct comment {text:?}")),
        Ir::Pi(target, _) => line(out, depth, &format!("construct pi <?{target}?>")),
        Ir::InstanceOf(a, _) => {
            line(out, depth, "instance-of");
            write_ir(out, a, depth + 1);
        }
        Ir::Cast(a, target, _) => {
            line(out, depth, &format!("cast as {target:?}"));
            write_ir(out, a, depth + 1);
        }
        Ir::Castable(a, target, _) => {
            line(out, depth, &format!("castable as {target:?}"));
            write_ir(out, a, depth + 1);
        }
    }
}

/// A FLWOR's clauses, after its `pipeline:` line when `runs`: the
/// nested FLWOR of a hash-joined `let` never runs, so it has none.
fn write_flwor(out: &mut String, f: &FlworIr, depth: usize, runs: bool) {
    line(out, depth, "FLWOR");
    if runs {
        line(out, depth + 1, &format!("pipeline: {}", render_plan(f)));
    }
    for op in &f.ops {
        write_clause(out, op, depth + 1);
    }
    match f.return_at {
        Some(slot) => line(out, depth + 1, &format!("return at slot{slot}")),
        None => line(out, depth + 1, "return"),
    }
    write_ir(out, &f.return_expr, depth + 2);
}

fn write_clause(out: &mut String, op: &OpIr, depth: usize) {
    // The `[hash join key=…]` tag on a join-annotated `let` / `where`:
    // the clause runs as a HashJoin probe, not by re-evaluating the
    // nested expression per tuple.
    let join_tag = crate::rewrite::joined(op)
        .map(|j| format!(" [hash join {}]", j.key_desc()))
        .unwrap_or_default();
    match &op.clause {
        ClauseIr::For {
            slot,
            at_slot,
            expr,
            ..
        } => {
            let at = at_slot.map(|s| format!(" at slot{s}")).unwrap_or_default();
            line(out, depth, &format!("for slot{slot}{at} in"));
            write_ir(out, expr, depth + 1);
        }
        ClauseIr::Let { slot, expr, .. } => {
            line(out, depth, &format!("let slot{slot} :={join_tag}"));
            match expr {
                Ir::Flwor(f) if op.join.is_some() => write_flwor(out, f, depth + 1, false),
                expr => write_ir(out, expr, depth + 1),
            }
        }
        ClauseIr::Where(cond) => {
            line(out, depth, &format!("where{join_tag}"));
            write_ir(out, cond, depth + 1);
        }
        ClauseIr::Count { slot } => {
            line(out, depth, &format!("count slot{slot}"));
        }
        ClauseIr::Window(w) => {
            line(
                out,
                depth,
                &format!(
                    "window {} -> slot{}{}",
                    if w.sliding { "sliding" } else { "tumbling" },
                    w.slot,
                    if w.only_end { " (only end)" } else { "" }
                ),
            );
            write_ir(out, &w.expr, depth + 1);
            line(out, depth + 1, "start when");
            write_ir(out, &w.start.when, depth + 2);
            if let Some(end) = &w.end {
                line(out, depth + 1, "end when");
                write_ir(out, &end.when, depth + 2);
            }
        }
        ClauseIr::GroupBy(g) => {
            line(out, depth, "group-by (hash, deep-equal)");
            for key in &g.keys {
                let using = match key.using {
                    Some(id) => format!(" using user#{id} (linear probe)"),
                    None => String::new(),
                };
                line(out, depth + 1, &format!("key -> slot{}{using}", key.slot));
                write_ir(out, &key.expr, depth + 2);
            }
            for nest in &g.nests {
                let ordered = if nest.order_by.is_some() {
                    " (ordered)"
                } else {
                    ""
                };
                line(
                    out,
                    depth + 1,
                    &format!("nest -> slot{}{ordered}", nest.slot),
                );
                write_ir(out, &nest.expr, depth + 2);
                if let Some(ob) = &nest.order_by {
                    for spec in &ob.specs {
                        line(
                            out,
                            depth + 2,
                            &format!("order key{}", if spec.descending { " desc" } else { "" }),
                        );
                        write_ir(out, &spec.expr, depth + 3);
                    }
                }
            }
        }
        ClauseIr::OrderBy(ob) => {
            line(
                out,
                depth,
                if ob.stable {
                    "order-by (stable)"
                } else {
                    "order-by"
                },
            );
            for spec in &ob.specs {
                line(
                    out,
                    depth + 1,
                    &format!("key{}", if spec.descending { " desc" } else { "" }),
                );
                write_ir(out, &spec.expr, depth + 2);
            }
        }
    }
}

/// Render the operator plan as a `->` chain of [`OpIr::label`]s ending
/// in the `ReturnAt` sink: operators without a tag stream tuples
/// batch-at-a-time.
fn render_plan(f: &FlworIr) -> String {
    let mut plan: String = f.ops.iter().map(|op| op.label() + " -> ").collect();
    plan.push_str(&OpKind::ReturnAt.label(""));
    plan
}

fn preds(predicates: &[Ir]) -> String {
    if predicates.is_empty() {
        String::new()
    } else {
        format!(" [{} predicate(s)]", predicates.len())
    }
}

fn describe_test(test: &NodeTestIr) -> String {
    match test {
        NodeTestIr::Name(q) => q.to_string(),
        NodeTestIr::Wildcard => "*".to_string(),
        NodeTestIr::AnyKind => "node()".to_string(),
        NodeTestIr::Text => "text()".to_string(),
        NodeTestIr::Comment => "comment()".to_string(),
        NodeTestIr::Pi(Some(t)) => format!("processing-instruction({t})"),
        NodeTestIr::Pi(None) => "processing-instruction()".to_string(),
        NodeTestIr::Element(Some(q)) => format!("element({q})"),
        NodeTestIr::Element(None) => "element()".to_string(),
        NodeTestIr::Attribute(Some(q)) => format!("attribute({q})"),
        NodeTestIr::Attribute(None) => "attribute()".to_string(),
        NodeTestIr::Document => "document-node()".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use xqa_frontend::parse_query;

    fn explain(src: &str) -> String {
        let module = parse_query(src).expect("parse");
        let compiled = compile::compile(&module).expect("compile");
        explain_query(&compiled)
    }

    #[test]
    fn qgb_plan_shows_single_scan_and_groupby() {
        let plan = explain(
            "for $li in //order/lineitem \
             group by $li/shipmode into $a \
             nest $li into $items \
             return count($items)",
        );
        assert!(plan.contains("FLWOR"), "{plan}");
        assert!(plan.contains("group-by (hash, deep-equal)"), "{plan}");
        assert!(plan.contains("step DescendantOrSelf::node()"), "{plan}");
        // exactly one descendant scan in the whole plan
        assert_eq!(plan.matches("DescendantOrSelf").count(), 1, "{plan}");
    }

    #[test]
    fn q_plan_shows_nested_rescan() {
        let plan = explain(
            "for $a in distinct-values(//order/lineitem/shipmode) \
             let $items := for $i in //order/lineitem where $i/shipmode = $a return $i \
             return count($items)",
        );
        // two descendant scans: one under distinct-values, one nested
        // inside the let (re-executed per tuple)
        assert_eq!(plan.matches("DescendantOrSelf").count(), 2, "{plan}");
        assert!(!plan.contains("group-by"), "{plan}");
        assert!(plan.contains("general-compare"), "{plan}");
    }

    #[test]
    fn using_and_ordered_nest_are_annotated() {
        let plan = explain(
            "declare function local:eq($a as item()*, $b as item()*) as xs:boolean { true() }; \
             for $x in (1, 2) \
             group by $x into $k using local:eq \
             nest $x order by $x into $xs \
             return $k",
        );
        assert!(plan.contains("using user#0 (linear probe)"), "{plan}");
        assert!(
            plan.contains("nest -> slot") && plan.contains("(ordered)"),
            "{plan}"
        );
        assert!(plan.contains("function local:eq#2"), "{plan}");
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates_plans() {
        let compile = |src: &str| {
            let module = parse_query(src).expect("parse");
            compile::compile(&module).expect("compile")
        };
        let a = compile("for $x in 1 to 10 return $x");
        let b = compile("for $x in 1 to 10 return $x");
        let c = compile("for $x in 1 to 10 order by $x return $x");
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&c));
        // Whitespace-only source differences share a plan shape.
        let d = compile("for   $x in 1 to 10   return $x");
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&d));
    }

    #[test]
    fn fingerprint_keeps_the_hints() {
        let prepare = |hints: &str| {
            let hints = hints.parse().unwrap();
            crate::Engine::with_options(crate::EngineOptions {
                hints,
                ..Default::default()
            })
            .compile(
                "for $a in distinct-values((1, 2, 2)) \
                 let $m := for $y in (1, 2, 3) where $y = $a return $y \
                 return count($m)",
            )
            .expect("compile")
        };
        assert_ne!(
            prepare("join=hash").fingerprint(),
            prepare("join=nested").fingerprint()
        );
    }

    #[test]
    fn globals_and_return_at_render() {
        let plan = explain(
            "declare variable $n := 3; \
             for $x in (1, 2) order by $x return at $r ($r + $n)",
        );
        assert!(plan.contains("global $n (slot g0)"), "{plan}");
        assert!(plan.contains("return at slot"), "{plan}");
        assert!(plan.contains("order-by"), "{plan}");
    }
}
