//! Batch-compiled expression bytecode.
//!
//! The streaming pipeline evaluates the same small scalar expressions —
//! comparisons, arithmetic, EBV tests — once per tuple, and walking the
//! [`Ir`] tree for each evaluation pays enum dispatch and `Box` chasing
//! on every node. This module lowers the *scalar subset* of the IR into
//! a flat register program ([`ExprProgram`]) once at plan time; the
//! pipeline then runs the program per tuple with a reused register
//! file, hitting type-specialized fast paths for singleton
//! integer/decimal/double operands.
//!
//! Lowering is per-expression and silent: an expression containing any
//! op outside the scalar subset (paths, function calls, constructors,
//! nested FLWORs, focus-dependent ops) stays on the tree-walker and is
//! recorded as [`ExprPlan::Interpreted`]. Compiled programs reuse the
//! exact scalar kernels of [`crate::eval`] (promotion ladder, overflow
//! and division errors, untyped handling), so results and error codes
//! are byte-identical to the tree-walker by construction.

use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Env, Interpreter};
use crate::ir::{CastTarget, ClauseIr, CompiledQuery, FlworIr, GlobalSlot, Ir, Slot};
use std::sync::Arc;
use xqa_frontend::ast::ArithOp;
use xqa_xdm::{effective_boolean_value, AtomicValue, CompOp, Item, Sequence};

/// A register index within one program's register file.
type Reg = usize;

/// One instruction of a compiled expression program. Every op writes a
/// destination register; control flow is forward-only jumps (used for
/// `and`/`or` short-circuiting and `if`).
#[derive(Debug, Clone)]
enum BcOp {
    /// Load a constant-pool sequence.
    Const { dst: Reg, idx: usize },
    /// Read a frame slot (O(1) CoW clone).
    ReadSlot { dst: Reg, slot: Slot },
    /// Read an evaluated global variable.
    ReadGlobal { dst: Reg, idx: GlobalSlot },
    /// Numeric arithmetic with the int → decimal → double ladder.
    Arith {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Unary minus.
    Neg { dst: Reg, a: Reg },
    /// Value comparison (`eq`, `lt`, ...) over optional singletons.
    ValueComp {
        op: CompOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// General (existential) comparison (`=`, `<`, ...).
    GeneralComp {
        op: CompOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Effective boolean value, producing a singleton boolean.
    Ebv { dst: Reg, a: Reg },
    /// Integer range construction (`a to b`).
    Range { dst: Reg, a: Reg, b: Reg },
    /// `cast as` with the optional (`?`) empty-sequence rule.
    Cast {
        dst: Reg,
        a: Reg,
        target: CastTarget,
        optional: bool,
    },
    /// `castable as` — never raises.
    Castable {
        dst: Reg,
        a: Reg,
        target: CastTarget,
        optional: bool,
    },
    /// Move (take) a register's value.
    Move { dst: Reg, src: Reg },
    /// Jump when `cond` (a singleton boolean) is false.
    JumpIfFalse { cond: Reg, target: usize },
    /// Jump when `cond` (a singleton boolean) is true.
    JumpIfTrue { cond: Reg, target: usize },
    /// Unconditional jump.
    Jump { target: usize },
}

/// A flat register program compiled from the scalar subset of [`Ir`]:
/// an ops array, a constant pool, and slot/global reads. Compiled once
/// at plan time and cached on the plan; evaluated per tuple against a
/// caller-owned register file so batches reuse one allocation.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    ops: Vec<BcOp>,
    consts: Vec<Sequence>,
    regs: usize,
    result: Reg,
}

impl ExprProgram {
    /// Number of registers the program needs; callers size the scratch
    /// register file with this once per operator, not per tuple.
    pub fn reg_count(&self) -> usize {
        self.regs
    }

    /// Run the program against the current tuple's environment.
    /// `regs` must hold at least [`ExprProgram::reg_count`] entries.
    pub(crate) fn eval(
        &self,
        interp: &Interpreter<'_>,
        env: &Env,
        regs: &mut [Sequence],
    ) -> EngineResult<Sequence> {
        let stats = interp.stats;
        let mut pc = 0;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                BcOp::Const { dst, idx } => regs[*dst] = self.consts[*idx].clone(),
                BcOp::ReadSlot { dst, slot } => regs[*dst] = env.slots[*slot].clone(),
                BcOp::ReadGlobal { dst, idx } => regs[*dst] = interp.globals[*idx].clone(),
                BcOp::Arith { op, dst, a, b } => {
                    use AtomicValue as V;
                    let out = match (regs[*a].as_slice(), regs[*b].as_slice()) {
                        ([Item::Atomic(V::Integer(x))], [Item::Atomic(V::Integer(y))]) => {
                            Sequence::one(Item::Atomic(eval::integer_arith(*op, *x, *y)?))
                        }
                        ([Item::Atomic(V::Double(x))], [Item::Atomic(V::Double(y))]) => {
                            Sequence::one(Item::Atomic(eval::double_arith(*op, *x, *y)?))
                        }
                        ([Item::Atomic(V::Decimal(x))], [Item::Atomic(V::Decimal(y))]) => {
                            Sequence::one(Item::Atomic(eval::decimal_arith(*op, x, y)?))
                        }
                        (l, r) => eval::eval_arith(*op, l, r)?,
                    };
                    regs[*dst] = out;
                }
                BcOp::Neg { dst, a } => regs[*dst] = eval::eval_neg(&regs[*a])?,
                BcOp::ValueComp { op, dst, a, b } => {
                    use AtomicValue as V;
                    let out = match (regs[*a].as_slice(), regs[*b].as_slice()) {
                        ([Item::Atomic(V::Integer(x))], [Item::Atomic(V::Integer(y))]) => {
                            stats.comparisons.add(1);
                            Sequence::one(op.matches(x.cmp(y)))
                        }
                        ([Item::Atomic(V::Double(x))], [Item::Atomic(V::Double(y))]) => {
                            stats.comparisons.add(1);
                            Sequence::one(double_comp(*op, *x, *y))
                        }
                        (l, r) => eval::eval_value_comp(*op, l, r, stats)?,
                    };
                    regs[*dst] = out;
                }
                BcOp::GeneralComp { op, dst, a, b } => {
                    use AtomicValue as V;
                    let out = match (regs[*a].as_slice(), regs[*b].as_slice()) {
                        ([Item::Atomic(V::Integer(x))], [Item::Atomic(V::Integer(y))]) => {
                            stats.comparisons.add(1);
                            Sequence::one(op.matches(x.cmp(y)))
                        }
                        ([Item::Atomic(V::Double(x))], [Item::Atomic(V::Double(y))]) => {
                            stats.comparisons.add(1);
                            Sequence::one(double_comp(*op, *x, *y))
                        }
                        (l, r) => eval::eval_general_comp(*op, l, r, stats)?,
                    };
                    regs[*dst] = out;
                }
                BcOp::Ebv { dst, a } => {
                    let b = match regs[*a].as_slice() {
                        [Item::Atomic(AtomicValue::Boolean(v))] => *v,
                        [] => false,
                        s => effective_boolean_value(s).map_err(EngineError::from)?,
                    };
                    regs[*dst] = Sequence::one(b);
                }
                BcOp::Range { dst, a, b } => {
                    let lo = eval::range_bound(&regs[*a], "range start")?;
                    let hi = eval::range_bound(&regs[*b], "range end")?;
                    regs[*dst] = match (lo, hi) {
                        (Some(lo), Some(hi)) if lo <= hi => (lo..=hi).map(Item::from).collect(),
                        _ => Sequence::Empty,
                    };
                }
                BcOp::Cast {
                    dst,
                    a,
                    target,
                    optional,
                } => regs[*dst] = eval::eval_cast(&regs[*a], *target, *optional)?,
                BcOp::Castable {
                    dst,
                    a,
                    target,
                    optional,
                } => regs[*dst] = eval::eval_castable(&regs[*a], *target, *optional),
                BcOp::Move { dst, src } => {
                    regs[*dst] = std::mem::replace(&mut regs[*src], Sequence::Empty)
                }
                BcOp::JumpIfFalse { cond, target } => {
                    if !reg_bool(&regs[*cond]) {
                        pc = *target;
                        continue;
                    }
                }
                BcOp::JumpIfTrue { cond, target } => {
                    if reg_bool(&regs[*cond]) {
                        pc = *target;
                        continue;
                    }
                }
                BcOp::Jump { target } => {
                    pc = *target;
                    continue;
                }
            }
            pc += 1;
        }
        Ok(std::mem::replace(&mut regs[self.result], Sequence::Empty))
    }
}

/// Comparison of two doubles under value-comparison rules: NaN is
/// incomparable, so every operator except `ne` is false.
fn double_comp(op: CompOp, x: f64, y: f64) -> bool {
    match x.partial_cmp(&y) {
        Some(ord) => op.matches(ord),
        None => op == CompOp::Ne,
    }
}

/// Read a singleton boolean written by an [`BcOp::Ebv`] op.
fn reg_bool(seq: &Sequence) -> bool {
    matches!(seq.as_slice(), [Item::Atomic(AtomicValue::Boolean(true))])
}

/// Plan-time decision for one clause expression, cached on the
/// clause's operator record ([`crate::ir::OpIr::program`]).
#[derive(Debug, Clone)]
pub enum ExprPlan {
    /// The expression lowered to a register program.
    Compiled(ExprProgram),
    /// Lowering declined (an op outside the scalar subset); the
    /// tree-walker evaluates it and each evaluation counts as an
    /// `expr_fallback`.
    Interpreted,
}

/// Lower one expression, or `None` when any op falls outside the
/// scalar subset.
pub fn lower(ir: &Ir) -> Option<ExprProgram> {
    let mut p = ExprProgram {
        ops: Vec::new(),
        consts: Vec::new(),
        regs: 0,
        result: 0,
    };
    p.result = lower_into(&mut p, ir)?;
    Some(p)
}

fn fresh(p: &mut ExprProgram) -> Reg {
    let r = p.regs;
    p.regs += 1;
    r
}

fn push_const(p: &mut ExprProgram, value: Sequence) -> Reg {
    let idx = p.consts.len();
    p.consts.push(value);
    let dst = fresh(p);
    p.ops.push(BcOp::Const { dst, idx });
    dst
}

fn lower_into(p: &mut ExprProgram, ir: &Ir) -> Option<Reg> {
    Some(match ir {
        Ir::Str(s) => push_const(
            p,
            Sequence::one(Item::Atomic(AtomicValue::String(Arc::clone(s)))),
        ),
        Ir::Int(v) => push_const(p, Sequence::one(*v)),
        Ir::Dec(v) => push_const(p, Sequence::one(Item::Atomic(AtomicValue::Decimal(*v)))),
        Ir::Dbl(v) => push_const(p, Sequence::one(*v)),
        Ir::Empty => push_const(p, Sequence::Empty),
        Ir::Var(slot) => {
            let dst = fresh(p);
            p.ops.push(BcOp::ReadSlot { dst, slot: *slot });
            dst
        }
        Ir::Global(g) => {
            let dst = fresh(p);
            p.ops.push(BcOp::ReadGlobal { dst, idx: *g });
            dst
        }
        Ir::Arith(op, a, b) => {
            let a = lower_into(p, a)?;
            let b = lower_into(p, b)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Arith { op: *op, dst, a, b });
            dst
        }
        Ir::Neg(a) => {
            let a = lower_into(p, a)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Neg { dst, a });
            dst
        }
        Ir::ValueComp(op, a, b) => {
            let a = lower_into(p, a)?;
            let b = lower_into(p, b)?;
            let dst = fresh(p);
            p.ops.push(BcOp::ValueComp { op: *op, dst, a, b });
            dst
        }
        Ir::GeneralComp(op, a, b) => {
            let a = lower_into(p, a)?;
            let b = lower_into(p, b)?;
            let dst = fresh(p);
            p.ops.push(BcOp::GeneralComp { op: *op, dst, a, b });
            dst
        }
        Ir::Range(a, b) => {
            let a = lower_into(p, a)?;
            let b = lower_into(p, b)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Range { dst, a, b });
            dst
        }
        Ir::And(a, b) => {
            // EBV of the left; a false result short-circuits past the
            // right side, exactly like the tree-walker (errors in the
            // right operand are then never raised).
            let ra = lower_into(p, a)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Ebv { dst, a: ra });
            let jump_at = p.ops.len();
            p.ops.push(BcOp::JumpIfFalse {
                cond: dst,
                target: 0,
            });
            let rb = lower_into(p, b)?;
            p.ops.push(BcOp::Ebv { dst, a: rb });
            let end = p.ops.len();
            patch_jump(p, jump_at, end);
            dst
        }
        Ir::Or(a, b) => {
            let ra = lower_into(p, a)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Ebv { dst, a: ra });
            let jump_at = p.ops.len();
            p.ops.push(BcOp::JumpIfTrue {
                cond: dst,
                target: 0,
            });
            let rb = lower_into(p, b)?;
            p.ops.push(BcOp::Ebv { dst, a: rb });
            let end = p.ops.len();
            patch_jump(p, jump_at, end);
            dst
        }
        Ir::If(cond, then, otherwise) => {
            let rc = lower_into(p, cond)?;
            let cb = fresh(p);
            p.ops.push(BcOp::Ebv { dst: cb, a: rc });
            let jump_else = p.ops.len();
            p.ops.push(BcOp::JumpIfFalse {
                cond: cb,
                target: 0,
            });
            let out = fresh(p);
            let rt = lower_into(p, then)?;
            p.ops.push(BcOp::Move { dst: out, src: rt });
            let jump_end = p.ops.len();
            p.ops.push(BcOp::Jump { target: 0 });
            let else_at = p.ops.len();
            patch_jump(p, jump_else, else_at);
            let re = lower_into(p, otherwise)?;
            p.ops.push(BcOp::Move { dst: out, src: re });
            let end = p.ops.len();
            patch_jump(p, jump_end, end);
            out
        }
        Ir::Cast(a, target, optional) => {
            let a = lower_into(p, a)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Cast {
                dst,
                a,
                target: *target,
                optional: *optional,
            });
            dst
        }
        Ir::Castable(a, target, optional) => {
            let a = lower_into(p, a)?;
            let dst = fresh(p);
            p.ops.push(BcOp::Castable {
                dst,
                a,
                target: *target,
                optional: *optional,
            });
            dst
        }
        // Everything else — paths, function calls, constructors, nested
        // FLWORs, focus-dependent ops, sequence construction — stays on
        // the tree-walker.
        _ => return None,
    })
}

fn patch_jump(p: &mut ExprProgram, at: usize, target: usize) {
    match &mut p.ops[at] {
        BcOp::JumpIfFalse { target: t, .. }
        | BcOp::JumpIfTrue { target: t, .. }
        | BcOp::Jump { target: t } => *t = target,
        other => unreachable!("patching a non-jump op {other:?}"),
    }
}

/// Lower the clause expressions of one FLWOR into its records'
/// [`crate::ir::OpIr::program`] (the planner's last rule calls this on
/// every FLWOR of the query, nested ones included).
pub(crate) fn lower_flwor(f: &mut FlworIr) {
    for op in &mut f.ops {
        op.program = match &op.clause {
            ClauseIr::For { expr, .. } | ClauseIr::Let { expr, .. } | ClauseIr::Where(expr) => {
                Some(lower(expr).map_or(ExprPlan::Interpreted, ExprPlan::Compiled))
            }
            _ => None,
        };
    }
}

/// What lowering did, read back off the plan for the `compile-expr`
/// trace event: the labels of the clauses that compiled to programs,
/// then of those that stayed on the tree-walker.
pub(crate) fn lowering_summary(q: &mut CompiledQuery) -> [Vec<String>; 2] {
    let mut summary = [Vec::new(), Vec::new()];
    for (_, root) in q.roots_mut() {
        crate::fold::walk(root, false, &mut |ir| {
            let Ir::Flwor(f) = ir else { return };
            for op in &f.ops {
                let labels = match &op.program {
                    Some(ExprPlan::Compiled(_)) => &mut summary[0],
                    Some(ExprPlan::Interpreted) => &mut summary[1],
                    None => continue,
                };
                labels.push(match &op.clause {
                    ClauseIr::For { slot, .. } => format!("for slot{slot}"),
                    ClauseIr::Let { slot, .. } => format!("let slot{slot}"),
                    _ => "where".to_string(),
                });
            }
        });
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use xqa_frontend::parse_query;

    fn body_of(src: &str) -> Ir {
        compile::compile(&parse_query(src).expect("parse"))
            .expect("compile")
            .body
    }

    #[test]
    fn scalar_subset_lowers() {
        for src in [
            "1 + 2",
            "1.5 * 2.5",
            "1e0 div 2e0",
            "-(3)",
            "1 eq 2",
            "1 = 2",
            "1 to 10",
            "\"a\" lt \"b\"",
            "if (1 lt 2) then 3 else 4",
            "1 lt 2 and 3 lt 4",
            "1 lt 2 or 3 lt 4",
            "\"1\" cast as xs:integer",
            "\"x\" castable as xs:integer",
        ] {
            assert!(lower(&body_of(src)).is_some(), "{src} must lower");
        }
    }

    #[test]
    fn uncovered_ops_decline() {
        for src in ["//a", "count((1,2))", "(1, 2)", "<e/>", "."] {
            assert!(lower(&body_of(src)).is_none(), "{src} must not lower");
        }
    }

    /// Plan `src` (no hints, no statistics) and summarize the lowering.
    fn planned(src: &str) -> [Vec<String>; 2] {
        let mut q = compile::compile(&parse_query(src).expect("parse")).expect("compile");
        crate::rewrite::plan(&mut q, Default::default(), None);
        lowering_summary(&mut q)
    }

    #[test]
    fn scalar_clause_expressions_compile() {
        let [lowered, interpreted] =
            planned("for $x in 1 to 9 let $m := $x mod 3 where $m = 0 return $x");
        assert_eq!(lowered, ["for slot0", "let slot1", "where"]);
        assert!(interpreted.is_empty());
    }

    #[test]
    fn path_expressions_stay_interpreted() {
        let [lowered, interpreted] = planned("for $x in //a where $x/b = 1 return $x");
        assert!(lowered.is_empty());
        assert_eq!(interpreted, ["for slot0", "where"]);
    }
}
