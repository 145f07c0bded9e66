//! FLWOR evaluation: the tuple-stream pipeline.
//!
//! Exactly the model of the paper's §3.1: the `for`/`let` clauses
//! generate an ordered stream of tuples of bound variables; `where`
//! filters it; **`group by` consumes the stream and emits one tuple per
//! group** (grouping variables bound to representative values, nesting
//! variables to the concatenated nest-expression values in input order,
//! or in `nest ... order by` order); post-group `let`/`where` compute
//! and filter group properties; `order by` sorts; `return` — optionally
//! with an output positional variable (§4) — produces the result.

use crate::error::{EngineError, EngineResult};
use crate::eval::{opt_atomic, Env, Interpreter};
use crate::ir::*;
use std::cmp::Ordering;
use xqa_xdm::{effective_boolean_value, sort_compare, AtomicValue, ErrorCode, Item, Sequence};

/// One tuple of the stream: a snapshot of the frame slots. `Sequence`
/// clones are O(1), so snapshots bind values directly.
pub(crate) type Tuple = Vec<Sequence>;

/// Order-by key values for one tuple (one entry per spec).
pub(crate) type OrderKeys = Vec<Option<AtomicValue>>;

impl Interpreter<'_> {
    pub(crate) fn eval_flwor(&self, f: &FlworIr, env: &mut Env) -> EngineResult<Sequence> {
        // The pipeline writes slots in place: every binding in the query
        // has a globally unique slot (the compiler's frame only shrinks
        // *visibility*, never reuses numbers), so there is nothing to
        // save or restore.
        crate::pipeline::run(self, f, env)
    }

    /// XQuery 3.0 windows: emit one tuple per window over the binding
    /// sequence, binding the window variable and the start/end
    /// condition variables. (Also used per input tuple by the streaming
    /// [`crate::pipeline::WindowScan`] operator.)
    pub(crate) fn apply_window(
        &self,
        w: &WindowIr,
        tuples: Vec<Tuple>,
        env: &mut Env,
    ) -> EngineResult<Vec<Tuple>> {
        let mut out = Vec::new();
        for tuple in tuples {
            env.slots = tuple;
            let items = self.eval(&w.expr, env)?;
            let tuple = std::mem::take(&mut env.slots);
            let n = items.len();

            // Bind a condition's variables for boundary index `i` on the
            // scratch tuple, then evaluate `when` as a boolean.
            let eval_cond = |cond: &WindowCondIr,
                             base: &Tuple,
                             i: usize,
                             env: &mut Env|
             -> EngineResult<(bool, Tuple)> {
                let mut t = base.clone();
                bind_window_vars(&mut t, cond, &items, i);
                env.slots = t;
                let v = self.eval(&cond.when, env)?;
                let keep = effective_boolean_value(&v).map_err(EngineError::from)?;
                Ok((keep, std::mem::take(&mut env.slots)))
            };

            // Collect (start, end) index pairs.
            let mut windows: Vec<(usize, usize, Tuple)> = Vec::new();
            if w.sliding {
                for i in 0..n {
                    let (starts, with_start) = eval_cond(&w.start, &tuple, i, env)?;
                    if !starts {
                        continue;
                    }
                    let end_cond = w.end.as_ref().expect("parser enforces sliding end");
                    let mut closed = None;
                    for j in i..n {
                        let (ends, with_both) = eval_cond(end_cond, &with_start, j, env)?;
                        if ends {
                            closed = Some((j, with_both));
                            break;
                        }
                    }
                    match closed {
                        Some((j, t)) => windows.push((i, j, t)),
                        None if !w.only_end => {
                            // Close at the end of the sequence; end vars
                            // describe the final item.
                            let mut t = with_start;
                            bind_window_vars_opt(&mut t, w.end.as_ref(), &items, n - 1);
                            windows.push((i, n - 1, t));
                        }
                        None => {}
                    }
                }
            } else {
                let mut i = 0;
                while i < n {
                    let (starts, with_start) = eval_cond(&w.start, &tuple, i, env)?;
                    if !starts {
                        i += 1;
                        continue;
                    }
                    match &w.end {
                        Some(end_cond) => {
                            let mut closed = None;
                            for j in i..n {
                                let (ends, with_both) = eval_cond(end_cond, &with_start, j, env)?;
                                if ends {
                                    closed = Some((j, with_both));
                                    break;
                                }
                            }
                            match closed {
                                Some((j, t)) => {
                                    windows.push((i, j, t));
                                    i = j + 1;
                                }
                                None => {
                                    if !w.only_end {
                                        let mut t = with_start;
                                        bind_window_vars_opt(&mut t, w.end.as_ref(), &items, n - 1);
                                        windows.push((i, n - 1, t));
                                    }
                                    i = n;
                                }
                            }
                        }
                        None => {
                            // Tumbling without end: the window runs to
                            // just before the next start match.
                            let mut j = i + 1;
                            let mut next_start = n;
                            while j < n {
                                let (starts, _) = eval_cond(&w.start, &tuple, j, env)?;
                                if starts {
                                    next_start = j;
                                    break;
                                }
                                j += 1;
                            }
                            windows.push((i, next_start - 1, with_start));
                            i = next_start;
                        }
                    }
                }
            }

            for (s_idx, e_idx, mut t) in windows {
                t[w.slot] = Sequence::from_slice(&items[s_idx..=e_idx]);
                out.push(t);
            }
        }
        Ok(out)
    }

    /// Evaluate the order-by key values for the current tuple.
    pub(crate) fn order_keys(
        &self,
        specs: &[OrderSpecIr],
        env: &mut Env,
    ) -> EngineResult<OrderKeys> {
        let mut keys = Vec::with_capacity(specs.len());
        for spec in specs {
            let v = self.eval(&spec.expr, env)?;
            let key = opt_atomic(&v, "order by key")?;
            // Untyped order keys compare as strings (XQuery 1.0 rule).
            keys.push(key.map(AtomicValue::untyped_as_string));
        }
        Ok(keys)
    }
}

/// Stable-sort `(keys, payload)` pairs by the order specs. Errors from
/// incomparable keys are surfaced after the sort.
pub(crate) fn sort_keyed<T>(
    items: &mut [(OrderKeys, T)],
    specs: &[OrderSpecIr],
) -> EngineResult<()> {
    let mut failure: Option<EngineError> = None;
    items.sort_by(|(a, _), (b, _)| {
        if failure.is_some() {
            return Ordering::Equal;
        }
        match compare_order_keys(a, b, specs) {
            Ok(ord) => ord,
            Err(e) => {
                failure = Some(e);
                Ordering::Equal
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Compare two key tuples under the specs (major key first). The empty
/// sequence sorts least by default, greatest under `empty greatest`;
/// `descending` reverses the whole comparison for that key.
pub(crate) fn compare_order_keys(
    a: &OrderKeys,
    b: &OrderKeys,
    specs: &[OrderSpecIr],
) -> EngineResult<Ordering> {
    debug_assert_eq!(a.len(), specs.len());
    for ((ka, kb), spec) in a.iter().zip(b).zip(specs) {
        let ord = match (ka, kb) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => {
                if spec.empty_greatest {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Some(_), None) => {
                if spec.empty_greatest {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (Some(x), Some(y)) => sort_compare(x, y).map_err(|_| {
                EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    format!(
                        "order by keys are not comparable ({} vs {})",
                        x.atomic_type(),
                        y.atomic_type()
                    ),
                )
            })?,
        };
        let ord = if spec.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return Ok(ord);
        }
    }
    Ok(Ordering::Equal)
}

/// Bind a window condition's variables on the tuple for boundary `i`.
fn bind_window_vars(t: &mut Tuple, cond: &WindowCondIr, items: &[Item], i: usize) {
    if let Some(slot) = cond.item_slot {
        t[slot] = Sequence::One(items[i].clone());
    }
    if let Some(slot) = cond.at_slot {
        t[slot] = Sequence::one(i as i64 + 1);
    }
    if let Some(slot) = cond.previous_slot {
        t[slot] = if i > 0 {
            Sequence::One(items[i - 1].clone())
        } else {
            Sequence::Empty
        };
    }
    if let Some(slot) = cond.next_slot {
        t[slot] = items
            .get(i + 1)
            .map(|x| Sequence::One(x.clone()))
            .unwrap_or(Sequence::Empty);
    }
}

fn bind_window_vars_opt(t: &mut Tuple, cond: Option<&WindowCondIr>, items: &[Item], i: usize) {
    if let Some(cond) = cond {
        bind_window_vars(t, cond, items, i);
    }
}
