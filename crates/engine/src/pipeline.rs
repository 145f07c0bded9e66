//! The pull-based streaming FLWOR pipeline.
//!
//! Realizes the paper's §3.1 tuple stream as a Volcano-style operator
//! pipeline (the architecture VXQuery showed is what makes an XQuery
//! engine scale) instead of materializing a `Vec<Tuple>` snapshot after
//! every clause:
//!
//! - [`TupleSource`] is the pull interface. Operators exchange *batches*
//!   of tuples ([`BATCH`] at a time) to amortize dynamic dispatch.
//! - A [`Tuple`] is copy-on-write: a small delta of `(slot, value)`
//!   bindings layered over the shared parent frame, instead of a full
//!   frame snapshot. Cloning a tuple clones a handful of [`Sequence`]
//!   handles — O(1) each, sharing the backing storage.
//! - `ForScan`, `LetBind`, `Filter`, `HashJoin`, `CountBind` and
//!   `WindowScan` stream; `group by` and `order by` lower to the
//!   [`Breaker`] operator, which drains its input into a
//!   [`partial::Partial`] before emitting.
//! - When the planner's top-k rule ([`crate::rewrite::plan`]) has set
//!   [`OrderByIr::limit`], the `order by` partial keeps a bounded binary
//!   heap of k tuples instead of sorting the whole input: O(n log k)
//!   comparisons, O(k) kept tuples.
//!
//! There is one driver, [`drive`]: [`build_chain`] lowers clauses to
//! operators, `return_at` pulls the chain into a [`Sink`] that either
//! collects one `Sequence` or emits batch by batch. When more than one
//! thread is available and the outer `for` binds more than one
//! [`MORSEL`], an [`exchange`] runs the chain up to the first breaker on
//! worker threads, one partial per worker, and merges the partials; the
//! serial pipeline is the same chain with a single partial that never
//! merges, run on the calling thread.
//!
//! In-place slot writes are sound because the compiler never reuses slot
//! numbers: dropping a binding from scope only hides it, so every
//! binding in a body has a globally unique slot ([`Ir::Quantified`]
//! evaluation already relies on the same contract).

mod partial;

use crate::bytecode::{ExprPlan, ExprProgram};
use crate::context::EvalStats;
use crate::error::{EngineError, EngineResult};
use crate::eval::{opt_atomic, Env, Interpreter};
use crate::ir::*;
use crate::keys::atomic_key;
use crate::profile::{Clock, OpProfile, PipelineProfile, Span};
use crate::types::matches_seq_type;
use partial::Partial;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, OnceLock};
use xqa_xdm::sequence::SequenceIntoIter;
use xqa_xdm::{effective_boolean_value, AtomicValue, ErrorCode, Item, Sequence, SequenceBuilder};

/// Tuples per batch. Large enough to amortize the virtual `next_batch`
/// call, small enough that a streaming chain stays cache-resident.
pub(crate) const BATCH: usize = 64;

/// Items per morsel: the unit of work claimed by parallel workers from
/// the outermost `for` binding sequence. Large enough that a claim (one
/// atomic increment plus a slice copy) is noise, small enough to
/// load-balance skewed per-item work across threads.
pub(crate) const MORSEL: usize = 1024;

/// Global position of a tuple in the serial stream: (morsel index,
/// ordinal among the tuples its partial absorbed). Morsels are
/// contiguous chunks and each morsel's chain runs serially into one
/// partial, so sorting by tag restores exactly the serial tuple order —
/// the stable-sort / first-appearance tie-breaking one partial
/// absorbing the whole stream gets for free.
type Tag = (usize, usize);

/// A copy-on-write tuple: bindings this FLWOR has made, layered over the
/// shared parent frame. Slots absent from the delta hold their parent
/// values in `env.slots`, which no pipeline operator ever overwrites.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tuple {
    delta: Vec<(Slot, Sequence)>,
}

impl Tuple {
    /// Bind `slot` in this tuple (replacing an existing binding: the
    /// compiler can re-bind a slot only for the same variable).
    fn bind(&mut self, slot: Slot, value: Sequence) {
        for entry in &mut self.delta {
            if entry.0 == slot {
                entry.1 = value;
                return;
            }
        }
        self.delta.push((slot, value));
    }

    /// Install this tuple's bindings into the frame before evaluating a
    /// per-tuple expression. O(|delta|) `Sequence` clones.
    fn apply(&self, env: &mut Env) {
        for (slot, value) in &self.delta {
            env.slots[*slot] = value.clone();
        }
    }
}

/// The Volcano-style pull interface: `Ok(Some(batch))` (possibly empty)
/// while tuples remain, `Ok(None)` once exhausted.
pub(crate) trait TupleSource {
    /// Pull the next batch of tuples.
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>>;
}

type BoxSource<'p> = Box<dyn TupleSource + 'p>;

/// Batch sink for the streaming execution path: receives each
/// non-empty result batch in pipeline order. An `Err` aborts the run
/// (used by the serving layer to propagate socket write failures).
pub(crate) type EmitBatch<'e> = dyn FnMut(&[Item]) -> EngineResult<()> + 'e;

/// Where a pipeline's result items go. Without `emit` they collect in
/// `out`, which the caller builds into one `Sequence` at the end; with
/// it, `out` only ever holds the batch in flight.
struct Sink<'a, 'e> {
    out: SequenceBuilder,
    emit: Option<&'a mut EmitBatch<'e>>,
    /// Items handed to `emit` so far.
    items: u64,
}

impl<'a, 'e> Sink<'a, 'e> {
    fn new(emit: Option<&'a mut EmitBatch<'e>>) -> Self {
        Sink {
            out: SequenceBuilder::new(),
            emit,
            items: 0,
        }
    }

    /// One batch's (or one morsel fragment's) items are all in `out`:
    /// when emitting, hand them over.
    fn end_batch(&mut self) -> EngineResult<()> {
        let Some(emit) = self.emit.as_mut() else {
            return Ok(());
        };
        let seq = std::mem::take(&mut self.out).build();
        if !seq.is_empty() {
            self.items += seq.len() as u64;
            emit(&seq)?;
        }
        Ok(())
    }
}

/// Evaluate a FLWOR through the streaming pipeline into one `Sequence`.
pub(crate) fn run(interp: &Interpreter, f: &FlworIr, env: &mut Env) -> EngineResult<Sequence> {
    let mut sink = Sink::new(None);
    drive(interp, f, env, &mut sink)?;
    Ok(sink.out.build())
}

/// Evaluate a FLWOR handing each batch's return-expression output to
/// `emit` as soon as the batch is pulled (behind a parallel exchange:
/// each morsel's, in morsel order, as soon as it and every earlier
/// morsel are done). Returns the total number of items emitted.
pub(crate) fn run_streaming(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    emit: &mut EmitBatch,
) -> EngineResult<u64> {
    let mut sink = Sink::new(Some(emit));
    drive(interp, f, env, &mut sink)?;
    Ok(sink.items)
}

/// Feed an already materialized sequence through `emit` in
/// [`BATCH`]-sized chunks: what a streaming caller does with a
/// non-FLWOR body, which has no tuple pipeline to tap.
pub(crate) fn emit_sequence(seq: &Sequence, emit: &mut EmitBatch) -> EngineResult<u64> {
    for chunk in seq.chunks(BATCH) {
        if !chunk.is_empty() {
            emit(chunk)?;
        }
    }
    Ok(seq.len() as u64)
}

/// The one FLWOR driver. When profiling is enabled on the dynamic
/// context, every operator is wrapped in an [`Instrumented`] decorator
/// and the measured chain is recorded into the context's profiler after
/// the run.
///
/// A parallel-eligible chain (see [`crate::ir::parallel_eligible`])
/// running where more than one thread is available evaluates the outer
/// `for` binding sequence up front, through that clause's own
/// [`ExprEval`] as `ForScan` would: inputs larger than one [`MORSEL`]
/// go through the [`exchange`] and the calling thread runs only what
/// follows the first breaker, smaller ones seed the ordinary chain.
fn drive(interp: &Interpreter, f: &FlworIr, env: &mut Env, sink: &mut Sink) -> EngineResult<()> {
    let n = f.ops.len();
    let cells = join_cells(f);
    let profiler = interp.dynamic.profiler().cloned();
    let clock = profiling_clock(interp);
    let counters = op_counters(clock.is_some(), n);

    let threads = if f.parallel { interp.threads } else { 1 };
    let mut seed = None;
    if threads > 1 {
        let ClauseIr::For { expr, .. } = &f.ops[0].clause else {
            unreachable!("parallel-eligible FLWOR starts with a for clause");
        };
        let mut outer = ExprEval::new(f.ops[0].program.as_ref());
        seed = Some(outer.eval(expr, interp, env)?);
        outer.flush(interp.stats);
    }

    let start = clock.as_ref().map(|c| c.now_nanos());
    let mut exchanged = None;
    let source = match seed {
        Some(items) if items.len() > MORSEL => {
            let (merged, profile) = exchange(interp, f, env, &items, threads, &cells, sink)?;
            let cut = profile.cut;
            exchanged = Some(profile);
            merged.map(|partial| {
                // A tagged collect (`cut == n`) is no clause and gets
                // no profile row: `counters` has no entry for it.
                let breaker = Box::new(Breaker {
                    input: Box::new(Singleton { done: true }),
                    partial: Some(partial),
                    output: Vec::new().into_iter(),
                });
                let breaker = instrument(breaker, counters.get(cut));
                build_chain(f, cut + 1..n, breaker, None, &cells, &counters)
            })
        }
        seed => Some(build_chain(
            f,
            0..n,
            Box::new(Singleton { done: false }),
            seed.map(|items| (items, 0)),
            &cells,
            &counters,
        )),
    };
    // `None`: the exchange's workers evaluated `return` themselves and
    // their fragments are already in the sink.
    let sink_stats = match source {
        Some(source) => Some(return_at(f, source, interp, env, sink)?),
        None => None,
    };
    if let (Some(profiler), Some(clock), Some(start)) = (profiler, clock, start) {
        let total = clock.now_nanos().saturating_sub(start);
        let tail = counters.iter().map(|c| c.get()).collect();
        let p = build_profile(f, tail, exchanged.as_ref(), sink_stats, total);
        profiler.add_span(pipeline_span(&p, start, total, exchanged));
        profiler.record(p);
    }
    Ok(())
}

/// Lower clauses `range` of `f` onto `input`, each operator metered by
/// its entry in `counters` (empty when not profiling). `seed` is the
/// already evaluated binding sequence of the range's first clause —
/// the outer `for` — with the ordinal its `at` positions start after.
fn build_chain<'p>(
    f: &'p FlworIr,
    range: Range<usize>,
    input: BoxSource<'p>,
    mut seed: Option<(Sequence, i64)>,
    cells: &[Option<JoinCell>],
    counters: &[Rc<Cell<OpCounters>>],
) -> BoxSource<'p> {
    let mut source = input;
    for i in range {
        let lowered = clause_source(&f.ops[i], cells[i].clone(), source, seed.take());
        source = instrument(lowered, counters.get(i));
    }
    source
}

/// The pipeline sink: pulls tuples, binds the §4 output ordinal
/// (`return at $rank`, numbered *after* any order by) and evaluates the
/// return expression per tuple into `sink`, batch by batch. A direct
/// element constructor builds the whole batch's rows into one arena
/// ([`Interpreter::construct_rows`]).
fn return_at(
    f: &FlworIr,
    mut source: BoxSource<'_>,
    interp: &Interpreter,
    env: &mut Env,
    sink: &mut Sink,
) -> EngineResult<SinkStats> {
    let mut stats = SinkStats::default();
    let mut ordinal = 0i64;
    while let Some(batch) = source.next_batch(interp, env)? {
        stats.batches += 1;
        stats.tuples += batch.len() as u64;
        let mut bind = |t: &Tuple, env: &mut Env| {
            t.apply(env);
            ordinal += 1;
            if let Some(at) = f.return_at {
                env.slots[at] = Sequence::one(ordinal);
            }
        };
        match &f.return_expr {
            Ir::Element(el) => interp.construct_rows(el, &batch, env, bind, &mut sink.out)?,
            expr => {
                for t in &batch {
                    bind(t, env);
                    sink.out.append(interp.eval(expr, env)?);
                }
            }
        }
        sink.end_batch()?;
    }
    Ok(stats)
}

/// What the sink consumed: the operator-level counters for `ReturnAt`'s
/// row in the profile.
#[derive(Debug, Default, Clone, Copy)]
struct SinkStats {
    batches: u64,
    tuples: u64,
}

/// Per-operator expression-evaluation state: the compiled bytecode
/// program when lowering produced one, the register scratch it runs in
/// (sized once, reused across every tuple the operator sees), and
/// locally batched counter updates flushed to the shared stats block
/// once per output batch instead of once per tuple.
///
/// Programs are total — they raise exactly the errors the tree-walker
/// would — so an operator holding a `Compiled` plan never consults the
/// interpreter for its expression. `Interpreted` means lowering
/// declined the expression at compile time: the tree-walker evaluates
/// it and each evaluation counts as an `expr_fallback`. `None` (tree
/// mode, or IR that never went through lowering) counts nothing.
struct ExprEval<'p> {
    program: Option<&'p ExprProgram>,
    counts_fallback: bool,
    regs: Vec<Sequence>,
    n_compiled: u64,
    n_fallback: u64,
}

impl<'p> ExprEval<'p> {
    fn new(plan: Option<&'p ExprPlan>) -> ExprEval<'p> {
        let (program, counts_fallback) = match plan {
            Some(ExprPlan::Compiled(p)) => (Some(p), false),
            Some(ExprPlan::Interpreted) => (None, true),
            None => (None, false),
        };
        ExprEval {
            program,
            counts_fallback,
            regs: vec![Sequence::Empty; program.map_or(0, |p| p.reg_count())],
            n_compiled: 0,
            n_fallback: 0,
        }
    }

    /// Evaluate the clause expression against the current env frame,
    /// through the program when one was compiled.
    fn eval(&mut self, expr: &Ir, interp: &Interpreter, env: &mut Env) -> EngineResult<Sequence> {
        match self.program {
            Some(p) => {
                self.n_compiled += 1;
                p.eval(interp, env, &mut self.regs)
            }
            None => {
                if self.counts_fallback {
                    self.n_fallback += 1;
                }
                interp.eval(expr, env)
            }
        }
    }

    /// Flush locally accumulated evaluation counts to the stats block.
    fn flush(&mut self, stats: &EvalStats) {
        if self.n_compiled > 0 {
            stats.expr_compiled.add(self.n_compiled);
            self.n_compiled = 0;
        }
        if self.n_fallback > 0 {
            stats.expr_fallback.add(self.n_fallback);
            self.n_fallback = 0;
        }
    }
}

/// Lower one clause record onto `input`, yielding the operator
/// [`OpKind::of`] names. A record the join-unnesting rule annotated
/// lowers to the hash-join operator instead of its nested form; `cell`
/// is the run-scoped build-table cell shared by every lowering of the
/// same record (see [`join_cells`]). A `for` given a `seed` (see
/// [`build_chain`]) starts out holding it and never pulls `input` or
/// evaluates its expression.
fn clause_source<'p>(
    op: &'p OpIr,
    cell: Option<JoinCell>,
    input: BoxSource<'p>,
    seed: Option<(Sequence, i64)>,
) -> BoxSource<'p> {
    if let Some((j, cell)) = op.join.as_ref().zip(cell) {
        return Box::new(HashJoin {
            input,
            j,
            cell,
            table: None,
        });
    }
    let plan = op.program.as_ref();
    match &op.clause {
        ClauseIr::For {
            slot,
            at_slot,
            ty,
            expr,
        } => {
            let input_done = seed.is_some();
            let (items, item_pos) = seed.unwrap_or_default();
            Box::new(ForScan {
                input,
                slot: *slot,
                at_slot: *at_slot,
                ty: ty.as_ref(),
                expr,
                expr_eval: ExprEval::new(plan),
                batch: Vec::new().into_iter(),
                items: items.into_iter(),
                item_pos,
                base: Tuple::default(),
                input_done,
            })
        }
        ClauseIr::Let { slot, ty, expr } => Box::new(LetBind {
            input,
            slot: *slot,
            ty: ty.as_ref(),
            expr,
            expr_eval: ExprEval::new(plan),
        }),
        ClauseIr::Where(cond) => Box::new(Filter {
            input,
            cond,
            expr_eval: ExprEval::new(plan),
        }),
        ClauseIr::Count { slot } => Box::new(CountBind {
            input,
            slot: *slot,
            n: 0,
        }),
        ClauseIr::Window(w) => Box::new(WindowScan { input, w }),
        ClauseIr::GroupBy(_) | ClauseIr::OrderBy(_) => Box::new(Breaker {
            input,
            partial: Partial::for_op(op),
            output: Vec::new().into_iter(),
        }),
    }
}

/// What one instrumented operator measured. Shared as `Rc<Cell<_>>`
/// (not atomics) because one chain runs on one thread and
/// [`TupleSource`] is not `Send`; workers hand plain copies back.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    batches: u64,
    tuples_out: u64,
    /// Cumulative time spent in this operator *and everything upstream*
    /// of it (`next_batch` pulls recursively); self time is recovered by
    /// subtracting the input operator's cumulative time.
    cum_nanos: u64,
}

/// The injected clock when this run is profiled; `None` keeps every
/// clock read off the unprofiled path.
fn profiling_clock(interp: &Interpreter) -> Option<Arc<dyn Clock>> {
    let profiled = interp.dynamic.profiler().is_some();
    profiled.then(|| Arc::clone(interp.dynamic.clock()))
}

/// One zeroed counter per clause of an `n`-clause FLWOR when profiling
/// (indexed by clause, whichever clauses the chain ends up running),
/// none otherwise.
fn op_counters(profiling: bool, n: usize) -> Vec<Rc<Cell<OpCounters>>> {
    let n = if profiling { n } else { 0 };
    (0..n).map(|_| Rc::default()).collect()
}

/// Decorator that meters the operator below it: batches, tuples and
/// wall time per `next_batch` call, read from the injected clock.
struct Instrumented<'p> {
    input: BoxSource<'p>,
    counters: Rc<Cell<OpCounters>>,
}

/// Wrap `source` in an [`Instrumented`] when a counter is given.
fn instrument<'p>(source: BoxSource<'p>, counters: Option<&Rc<Cell<OpCounters>>>) -> BoxSource<'p> {
    match counters {
        Some(c) => Box::new(Instrumented {
            input: source,
            counters: Rc::clone(c),
        }),
        None => source,
    }
}

impl TupleSource for Instrumented<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let clock = interp.dynamic.clock();
        let start = clock.now_nanos();
        let result = self.input.next_batch(interp, env);
        let elapsed = clock.now_nanos().saturating_sub(start);
        let mut c = self.counters.get();
        c.cum_nanos += elapsed;
        if let Ok(Some(batch)) = &result {
            c.batches += 1;
            c.tuples_out += batch.len() as u64;
        }
        self.counters.set(c);
        result
    }
}

/// Assemble the measured operator chain for one pipeline execution.
/// `tail` is the calling thread's chain and `exchange` carries the
/// workers' chains, every chain with one entry per clause (zero where
/// it did not run the clause). Per chain, self time per operator = its
/// cumulative time minus its input's; tuples_in = the input operator's
/// tuples_out (the `Singleton` root seeds exactly one tuple).
///
/// Rows sum over the chains, so behind an exchange their batch and
/// tuple counts are exact and their nanos are *CPU time across all
/// workers* (the pipeline total stays wall time; `workers` in the
/// profile flags the discrepancy for renderers). Worker time spent
/// outside the chains — absorbing into partials, or evaluating
/// `return` — and the coordinator's merge go to the breaker's row, or
/// to the sink's when there is no breaker.
fn build_profile(
    f: &FlworIr,
    tail: Vec<OpCounters>,
    exchange: Option<&ExchangeProfile>,
    sink_stats: Option<SinkStats>,
    total_nanos: u64,
) -> PipelineProfile {
    let n = f.ops.len();
    let (cut, outside) = exchange.map_or((n, 0), |x| {
        let pulled: u64 = x.chains.iter().map(|c| c[x.cut - 1].cum_nanos).sum();
        (x.cut, x.loop_nanos.saturating_sub(pulled) + x.merge_nanos)
    });
    let chains: Vec<&Vec<OpCounters>> = exchange
        .iter()
        .flat_map(|x| &x.chains)
        .chain([&tail])
        .collect();
    let mut ops = Vec::with_capacity(n + 1);
    let mut upstream_out = 1u64;
    for (i, planned) in f.ops.iter().enumerate() {
        let mut op = OpProfile {
            kind: OpKind::of(planned),
            detail: planned.detail(),
            batches: 0,
            tuples_in: upstream_out,
            tuples_out: 0,
            nanos: if i == cut { outside } else { 0 },
            estimate: planned.estimate,
        };
        for c in &chains {
            op.batches += c[i].batches;
            op.tuples_out += c[i].tuples_out;
            let upstream_cum = if i > 0 { c[i - 1].cum_nanos } else { 0 };
            op.nanos += c[i].cum_nanos.saturating_sub(upstream_cum);
        }
        upstream_out = op.tuples_out;
        ops.push(op);
    }
    let accounted: u64 = ops.iter().map(|o| o.nanos).sum();
    let (batches, tuples_out, nanos) = match sink_stats {
        Some(s) => (s.batches, s.tuples, total_nanos.saturating_sub(accounted)),
        // No sink ran on the calling thread: the workers evaluated the
        // return expression; mirror the chain's top row.
        None => (
            chains.iter().map(|c| c[n - 1].batches).sum(),
            upstream_out,
            outside,
        ),
    };
    ops.push(OpProfile {
        kind: OpKind::ReturnAt,
        detail: String::new(),
        batches,
        tuples_in: upstream_out,
        tuples_out,
        nanos,
        estimate: f.return_estimate,
    });
    PipelineProfile {
        executions: 1,
        workers: exchange.map_or(1, |x| x.chains.len() as u64),
        ops,
    }
}

/// Lay one execution out as a span timeline. A chain interleaves its
/// operators batch-at-a-time, so exact per-operator intervals don't
/// exist: without an exchange the children are the operators placed
/// end-to-end by measured self time, preserving durations. With one
/// they are the real loop interval of every morsel worker (attributed
/// by worker id) plus the coordinator's merge interval.
fn pipeline_span(
    p: &PipelineProfile,
    start_nanos: u64,
    total_nanos: u64,
    exchange: Option<ExchangeProfile>,
) -> Span {
    let mut root = Span::leaf("pipeline", start_nanos, start_nanos + total_nanos);
    match exchange {
        Some(x) => {
            root.children = x.spans;
            let merge_end = x.merge_start + x.merge_nanos;
            root.children
                .push(Span::leaf("merge", x.merge_start, merge_end));
        }
        None => {
            let mut at = start_nanos;
            for op in &p.ops {
                let end = at + op.nanos;
                root.children.push(Span::leaf(op.label(), at, end));
                at = end;
            }
        }
    }
    root
}

/// The pipeline root: one tuple with no bindings (the incoming frame).
struct Singleton {
    done: bool,
}

impl TupleSource for Singleton {
    fn next_batch(&mut self, _: &Interpreter, _: &mut Env) -> EngineResult<Option<Vec<Tuple>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(vec![Tuple::default()]))
    }
}

/// `for $v (at $i)? in e`: fan out one tuple per item. Resumable: a
/// half-expanded binding sequence carries over to the next batch, so a
/// million-item `for` still emits [`BATCH`]-sized batches.
struct ForScan<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    at_slot: Option<Slot>,
    ty: Option<&'p SeqTypeIr>,
    expr: &'p Ir,
    expr_eval: ExprEval<'p>,
    batch: std::vec::IntoIter<Tuple>,
    items: SequenceIntoIter,
    item_pos: i64,
    base: Tuple,
    input_done: bool,
}

impl TupleSource for ForScan<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let mut out = Vec::new();
        loop {
            for item in self.items.by_ref() {
                if let Some(ty) = self.ty {
                    let single = [item.clone()];
                    if !matches_seq_type(&single, ty) {
                        return Err(EngineError::dynamic(
                            ErrorCode::XPTY0004,
                            "for-binding value does not match its declared type",
                        ));
                    }
                }
                self.item_pos += 1;
                let mut t = self.base.clone();
                t.bind(self.slot, Sequence::One(item));
                if let Some(at) = self.at_slot {
                    t.bind(at, Sequence::one(self.item_pos));
                }
                out.push(t);
                if out.len() >= BATCH {
                    interp.stats.tuples_produced.add(out.len() as u64);
                    self.expr_eval.flush(interp.stats);
                    return Ok(Some(out));
                }
            }
            match self.batch.next() {
                Some(base) => {
                    base.apply(env);
                    self.items = self.expr_eval.eval(self.expr, interp, env)?.into_iter();
                    self.item_pos = 0;
                    self.base = base;
                }
                None if self.input_done => {
                    interp.stats.tuples_produced.add(out.len() as u64);
                    self.expr_eval.flush(interp.stats);
                    return Ok(if out.is_empty() { None } else { Some(out) });
                }
                None => match self.input.next_batch(interp, env)? {
                    Some(b) => self.batch = b.into_iter(),
                    None => self.input_done = true,
                },
            }
        }
    }
}

/// `let $v := e`: 1:1 streaming binder.
struct LetBind<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    ty: Option<&'p SeqTypeIr>,
    expr: &'p Ir,
    expr_eval: ExprEval<'p>,
}

impl TupleSource for LetBind<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(mut batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        for t in &mut batch {
            t.apply(env);
            let seq = self.expr_eval.eval(self.expr, interp, env)?;
            if let Some(ty) = self.ty {
                if !matches_seq_type(&seq, ty) {
                    return Err(EngineError::dynamic(
                        ErrorCode::XPTY0004,
                        "let-binding value does not match its declared type",
                    ));
                }
            }
            t.bind(self.slot, seq);
        }
        self.expr_eval.flush(interp.stats);
        Ok(Some(batch))
    }
}

/// `where e`: streaming filter.
struct Filter<'p> {
    input: BoxSource<'p>,
    cond: &'p Ir,
    expr_eval: ExprEval<'p>,
}

impl TupleSource for Filter<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for t in batch {
            t.apply(env);
            let v = self.expr_eval.eval(self.cond, interp, env)?;
            if effective_boolean_value(&v).map_err(EngineError::from)? {
                out.push(t);
            }
        }
        interp
            .stats
            .tuples_pruned_filter
            .add((before - out.len()) as u64);
        self.expr_eval.flush(interp.stats);
        Ok(Some(out))
    }
}

// ──────────────────────── hash join ────────────────────────
//
// The planner's join-unnesting rule (`crate::rewrite`)
// marks a `let $m := for $y in SRC where KEY-pred return $y` clause or
// a `where some $y in SRC satisfies KEY-pred` clause whose SRC is
// independent of the enclosing bindings. The operator here replaces
// the per-tuple nested loop: SRC is materialized *once per FLWOR
// execution*, its key atoms bucketed by the canonical-key machinery of
// `crate::keys`, and each probing tuple does one hash lookup plus an
// exact verifying comparison per candidate.
//
// Output is byte-identical to the nested plan, including errors:
//
// - The build is lazy (first probing tuple). Zero probing tuples never
//   evaluate SRC — exactly like the nested loop.
// - Bucket hits are *candidates only*: equal values always share a
//   canonical key, the converse is verified with the real `eq`, and
//   candidates are visited in build order, so a many-match `let` binds
//   its items in SRC order.
// - Comparisons that could *raise* never take the hash path. Atoms are
//   partitioned into comparison classes (string/untyped, the numeric
//   tower, boolean, date, dateTime); within one class `=`/`eq` is
//   total, across classes it can error. A build side that mixes
//   classes or raised evaluating any key, and any probing tuple whose
//   atoms fall outside the build's class, fall back to a literal
//   nested-loop scan of the materialized items — same values, same
//   errors, same error order as the nested plan.

/// Comparison classes: `=`/`eq` between two atoms of the same class
/// never raises, and value equality implies canonical-key equality.
const CLASS_STRING: u8 = 1 << 0;
const CLASS_NUMERIC: u8 = 1 << 1;
const CLASS_BOOLEAN: u8 = 1 << 2;
const CLASS_DATE: u8 = 1 << 3;
const CLASS_DATETIME: u8 = 1 << 4;

fn atom_class(v: &AtomicValue) -> u8 {
    match v {
        // Untyped atomics compare as strings against strings (both
        // comparison kinds), so they share the string class; against
        // any other class they cast — which can raise — so mixing
        // routes to the fallback scan.
        AtomicValue::String(_) | AtomicValue::Untyped(_) => CLASS_STRING,
        AtomicValue::Integer(_) | AtomicValue::Decimal(_) | AtomicValue::Double(_) => CLASS_NUMERIC,
        AtomicValue::Boolean(_) => CLASS_BOOLEAN,
        AtomicValue::Date(_) => CLASS_DATE,
        AtomicValue::DateTime(_) => CLASS_DATETIME,
    }
}

/// `eq` between two atoms of one comparison class (the only pairing
/// the class gate admits). NaN stays unequal to itself, matching both
/// comparison kinds.
fn atom_eq(a: &AtomicValue, b: &AtomicValue) -> bool {
    let a = a.clone().untyped_as_string();
    let b = b.clone().untyped_as_string();
    matches!(
        xqa_xdm::value_compare(&a, &b, xqa_xdm::CompOp::Eq),
        Ok(true)
    )
}

/// Existential match: any (probe atom, build atom) pair equal.
fn atoms_match(probe: &[AtomicValue], build: &[AtomicValue]) -> bool {
    probe.iter().any(|p| build.iter().any(|b| atom_eq(p, b)))
}

/// The materialized build side of one hash join.
struct JoinTable {
    /// SRC items in evaluation order.
    items: Vec<Item>,
    /// Per item, the atomized key (aligned with `items`; truncated and
    /// unused when `scan_only`).
    keys: Vec<Vec<AtomicValue>>,
    /// Canonical atom key → ascending indices of items carrying it.
    buckets: HashMap<String, Vec<usize>>,
    /// Union of every build atom's class bit.
    classes: u8,
    /// Every probe must take the verbatim nested-loop scan: a build key
    /// raised, or the build atoms span comparison classes.
    scan_only: bool,
}

/// The per-run, per-clause build cell. Serial runs own one privately;
/// parallel runs share it across workers, so whichever worker probes
/// first builds and the rest (and the coordinator's replay chain)
/// reuse the table — or replay the build's error.
type JoinCell = Arc<OnceLock<Result<Arc<JoinTable>, EngineError>>>;

/// Per clause record, a cell where it carries a join annotation,
/// created per pipeline execution (enclosing bindings are fixed for the
/// duration of one `run`, so the table is reusable exactly within it).
fn join_cells(f: &FlworIr) -> Vec<Option<JoinCell>> {
    f.ops
        .iter()
        .map(|op| op.join.as_ref().map(|_| JoinCell::default()))
        .collect()
}

/// The build key of one item (already bound into the env), atomized
/// under the comparison's rules: a value comparison admits at most one
/// atom, a general comparison atomizes the whole sequence.
fn eval_join_key(
    j: &JoinIr,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Vec<AtomicValue>> {
    let seq = interp.eval(&j.build_key, env)?;
    if j.value_comp {
        Ok(opt_atomic(&seq, "value comparison")?.into_iter().collect())
    } else {
        Ok(seq.iter().map(Item::atomize).collect())
    }
}

/// What keying one contiguous chunk of SRC items produced.
struct KeyedChunk {
    /// Per item, the atomized key (short when `raised`).
    keys: Vec<Vec<AtomicValue>>,
    /// Canonical atom key → ascending *table* indices of the chunk's
    /// items carrying it.
    buckets: HashMap<String, Vec<usize>>,
    classes: u8,
    /// A key raised: keying stopped at that item.
    raised: bool,
}

/// Key, classify and bucket `items`, which sit at `base..` in the
/// table. A key that raises does not surface here: whether and when it
/// would have in the nested plan depends on the probe (a `some` stops
/// at its first preceding match), so the table just degrades to
/// scan-only and the per-probe scan re-raises it at exactly the nested
/// position.
fn key_chunk(
    j: &JoinIr,
    interp: &Interpreter,
    env: &mut Env,
    base: usize,
    items: &[Item],
) -> KeyedChunk {
    let mut chunk = KeyedChunk {
        keys: Vec::with_capacity(items.len()),
        buckets: HashMap::new(),
        classes: 0,
        raised: false,
    };
    let mut scratch = String::new();
    for (idx, item) in (base..).zip(items) {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        let Ok(atoms) = eval_join_key(j, interp, env) else {
            chunk.raised = true;
            break;
        };
        for a in &atoms {
            chunk.classes |= atom_class(a);
            scratch.clear();
            atomic_key(a, &mut scratch);
            let bucket = chunk.buckets.entry(scratch.clone()).or_default();
            if bucket.last() != Some(&idx) {
                bucket.push(idx);
            }
        }
        chunk.keys.push(atoms);
    }
    chunk
}

/// Evaluate SRC and materialize the build table. The items are one
/// chunk keyed on the calling thread — or, with `threads > 1` and more
/// than one [`MORSEL`] of them, one chunk per scoped worker thread,
/// merged in chunk order: per-key index lists stay ascending, so probe
/// results do not depend on the split.
fn build_join_table(
    j: &JoinIr,
    interp: &Interpreter,
    env: &mut Env,
    threads: usize,
) -> EngineResult<JoinTable> {
    let src = interp.eval(&j.build_src, env)?;
    let items: Vec<Item> = src.into_iter().collect();
    let chunks = if threads <= 1 || items.len() <= MORSEL {
        vec![key_chunk(j, interp, env, 0, &items)]
    } else {
        let size = items.len().div_ceil(threads);
        let worker_stats: Vec<EvalStats> = (0..threads).map(|_| EvalStats::default()).collect();
        let chunks = std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(size)
                .zip(&worker_stats)
                .enumerate()
                .map(|(ci, (chunk_items, ws))| {
                    let winterp = interp.fork(ws);
                    let mut wenv = Env {
                        slots: env.slots.clone(),
                        focus: env.focus.clone(),
                    };
                    s.spawn(move || key_chunk(j, &winterp, &mut wenv, ci * size, chunk_items))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join build worker panicked"))
                .collect::<Vec<_>>()
        });
        for ws in &worker_stats {
            interp.stats.add_snapshot(&ws.snapshot());
        }
        chunks
    };
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("at least one chunk");
    let mut table = JoinTable {
        items,
        keys: first.keys,
        buckets: first.buckets,
        classes: first.classes,
        // Scan-only regardless of which chunk noticed a raising key
        // first: the flag depends only on the (deterministic) keys.
        scan_only: first.raised,
    };
    for chunk in chunks {
        if table.scan_only {
            break;
        }
        table.classes |= chunk.classes;
        table.keys.extend(chunk.keys);
        for (key, idxs) in chunk.buckets {
            table.buckets.entry(key).or_default().extend(idxs);
        }
        table.scan_only = chunk.raised;
    }
    if table.classes.count_ones() > 1 {
        table.scan_only = true;
    }
    interp.stats.join_build_tuples.add(table.items.len() as u64);
    Ok(table)
}

/// The probe key's atoms for the current tuple, or `None` when this
/// tuple must take the fallback scan (an atom outside the build class
/// means a real pair comparison could raise).
fn probe_atoms(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Option<Vec<AtomicValue>>> {
    let seq = interp.eval(&j.probe_key, env)?;
    let atoms: Vec<AtomicValue> = if j.value_comp {
        opt_atomic(&seq, "value comparison")?.into_iter().collect()
    } else {
        seq.iter().map(Item::atomize).collect()
    };
    // An all-empty build side (classes == 0) can never pair with
    // anything: no comparison happens, so any probe is safe (and
    // matches nothing).
    if table.classes != 0 && atoms.iter().any(|a| atom_class(a) != table.classes) {
        return Ok(None);
    }
    Ok(Some(atoms))
}

/// Candidate build indices for a probe: the union of its atoms'
/// buckets, ascending (build order) and deduplicated.
fn join_candidates(table: &JoinTable, atoms: &[AtomicValue]) -> Vec<usize> {
    let mut scratch = String::new();
    let mut cands: Vec<usize> = Vec::new();
    for a in atoms {
        scratch.clear();
        atomic_key(a, &mut scratch);
        if let Some(bucket) = table.buckets.get(scratch.as_str()) {
            cands.extend_from_slice(bucket);
        }
    }
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// One `let`-side probe: the matching build items in SRC order.
fn probe_let(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Sequence> {
    if table.items.is_empty() {
        // The nested loop iterates nothing and never touches the
        // probe-side expression.
        return Ok(Sequence::Empty);
    }
    if table.scan_only {
        return scan_let(j, table, interp, env);
    }
    let Some(atoms) = probe_atoms(j, table, interp, env)? else {
        return scan_let(j, table, interp, env);
    };
    interp.stats.join_hash_probes.add(1);
    let mut out = SequenceBuilder::new();
    for idx in join_candidates(table, &atoms) {
        if atoms_match(&atoms, &table.keys[idx]) {
            out.push(table.items[idx].clone());
        }
    }
    Ok(out.build())
}

/// One semi-join probe: does any build item match?
fn probe_semi(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<bool> {
    if table.items.is_empty() {
        return Ok(false);
    }
    if table.scan_only {
        return scan_semi(j, table, interp, env);
    }
    let Some(atoms) = probe_atoms(j, table, interp, env)? else {
        return scan_semi(j, table, interp, env);
    };
    interp.stats.join_hash_probes.add(1);
    Ok(join_candidates(table, &atoms)
        .into_iter()
        .any(|idx| atoms_match(&atoms, &table.keys[idx])))
}

/// Verbatim replay of the nested `for $y in SRC where pred return $y`
/// loop over the materialized items: same values, same errors, same
/// error order (SRC is constructor-free, so materializing it once
/// preserves item — and node — identity).
fn scan_let(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Sequence> {
    let mut out = SequenceBuilder::new();
    for item in &table.items {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        let v = interp.eval(&j.pred, env)?;
        if effective_boolean_value(&v).map_err(EngineError::from)? {
            out.push(item.clone());
        }
    }
    Ok(out.build())
}

/// Verbatim replay of `some $y in SRC satisfies pred`: first match
/// wins, and — exactly like the quantifier — an erroring predicate
/// only raises if no earlier item matched.
fn scan_semi(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<bool> {
    for item in &table.items {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        if interp.eval_ebv(&j.pred, env)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The hash-join operator: a streaming binder (`let` shape) or filter
/// (`some` shape) probing the shared build table.
struct HashJoin<'p> {
    input: BoxSource<'p>,
    j: &'p JoinIr,
    cell: JoinCell,
    /// Resolved handle, cached after the first probe.
    table: Option<Arc<JoinTable>>,
}

impl HashJoin<'_> {
    /// The build table, building it on first use (and replaying the
    /// build's error on every later probe, as re-evaluating SRC would).
    fn table(&mut self, interp: &Interpreter, env: &mut Env) -> EngineResult<Arc<JoinTable>> {
        if let Some(t) = &self.table {
            return Ok(Arc::clone(t));
        }
        let built = self
            .cell
            .get_or_init(|| build_join_table(self.j, interp, env, 1).map(Arc::new))
            .clone()?;
        self.table = Some(Arc::clone(&built));
        Ok(built)
    }
}

impl TupleSource for HashJoin<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for mut t in batch {
            t.apply(env);
            let table = self.table(interp, env)?;
            match &self.j.kind {
                JoinKindIr::LetMany { slot, ty } => {
                    let seq = probe_let(self.j, &table, interp, env)?;
                    if let Some(ty) = ty {
                        if !matches_seq_type(&seq, ty) {
                            return Err(EngineError::dynamic(
                                ErrorCode::XPTY0004,
                                "let-binding value does not match its declared type",
                            ));
                        }
                    }
                    t.bind(*slot, seq);
                    out.push(t);
                }
                JoinKindIr::ExistsSemi => {
                    if probe_semi(self.j, &table, interp, env)? {
                        out.push(t);
                    }
                }
            }
        }
        if matches!(self.j.kind, JoinKindIr::ExistsSemi) {
            interp
                .stats
                .tuples_pruned_filter
                .add((before - out.len()) as u64);
        }
        Ok(Some(out))
    }
}

/// `count $v`: bind the 1-based ordinal at this pipeline point.
struct CountBind<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    n: i64,
}

impl TupleSource for CountBind<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(mut batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        for t in &mut batch {
            self.n += 1;
            t.bind(self.slot, Sequence::one(self.n));
        }
        Ok(Some(batch))
    }
}

/// Window clause: delegates the boundary-condition machinery to the
/// materializing [`Interpreter::apply_window`] one input tuple at a
/// time, then converts the full-frame outputs back into deltas (only
/// the window slot and the condition-variable slots can have changed).
/// Windows are not a hot path; correctness over allocation thrift.
struct WindowScan<'p> {
    input: BoxSource<'p>,
    w: &'p WindowIr,
}

impl TupleSource for WindowScan<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for t in batch {
            t.apply(env);
            let frame = env.slots.clone();
            let windows = interp.apply_window(self.w, vec![frame.clone()], env)?;
            // apply_window leaves the frame moved-out; restore it.
            env.slots = frame;
            for full in windows {
                let mut nt = t.clone();
                bind_from_frame(&mut nt, &full, self.w.slot);
                bind_cond_slots(&mut nt, &full, &self.w.start);
                if let Some(end) = &self.w.end {
                    bind_cond_slots(&mut nt, &full, end);
                }
                out.push(nt);
            }
        }
        interp.stats.tuples_produced.add(out.len() as u64);
        Ok(Some(out))
    }
}

fn bind_from_frame(t: &mut Tuple, frame: &[Sequence], slot: Slot) {
    t.bind(slot, frame[slot].clone());
}

fn bind_cond_slots(t: &mut Tuple, frame: &[Sequence], cond: &WindowCondIr) {
    for slot in [
        cond.item_slot,
        cond.at_slot,
        cond.previous_slot,
        cond.next_slot,
    ]
    .into_iter()
    .flatten()
    {
        bind_from_frame(t, frame, slot);
    }
}

/// `group by ... nest ...` and `order by`: the pipeline breakers. The
/// first pull drains the input into the clause's [`Partial`] as one
/// morsel and finishes it: a hash aggregation emitting one tuple per
/// group in first-appearance order, or a full stable sort, or — when
/// the top-k rewrite set a limit — the k least tuples. Behind an
/// [`exchange`] the partial arrives already filled and merged, and the
/// input is exhausted from the start.
struct Breaker<'p> {
    input: BoxSource<'p>,
    /// `None` once finished into `output`.
    partial: Option<Partial<'p>>,
    output: std::vec::IntoIter<Tuple>,
}

impl TupleSource for Breaker<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        if let Some(mut partial) = self.partial.take() {
            partial.drain(self.input.as_mut(), 0, interp, env)?;
            self.output = partial.finish(interp)?.into_iter();
        }
        // Emit up to BATCH tuples of the buffered output.
        let out: Vec<Tuple> = self.output.by_ref().take(BATCH).collect();
        Ok(if out.is_empty() { None } else { Some(out) })
    }
}

// ──────────────────── morsel-driven parallelism ────────────────────
//
// A parallel-eligible chain (outer `for`, then only tuple-local
// streaming clauses up to at most one breaker) is split at the breaker:
// workers claim [`MORSEL`]-sized chunks of the outer binding sequence
// from a shared atomic counter and run their own clone of the streaming
// chain into a *partitioned* breaker state, one [`Partial`] per worker.
// The coordinator merges the partials — every tuple carries a [`Tag`],
// so finishing the merged partial yields the exact serial tuple order —
// and feeds any clauses after the breaker, plus the `return` sink,
// serially. A chain with no breaker and no `return at` has nothing to
// merge: workers evaluate `return` themselves and the coordinator —
// the calling thread, which is also the first worker — hands each
// morsel's fragment to the sink, in morsel order, between its own
// morsels.

/// What an [`exchange`] measured, for [`build_profile`] and
/// [`pipeline_span`]. Clock-derived fields are zero and the vectors
/// empty when not profiling.
struct ExchangeProfile {
    /// The clause index the chain was split at.
    cut: usize,
    /// Per worker, its chain's counters (one entry per clause).
    chains: Vec<Vec<OpCounters>>,
    /// Per worker, its claim loop's real interval.
    spans: Vec<Span>,
    /// Wall time the workers spent in their claim loops, summed.
    loop_nanos: u64,
    merge_start: u64,
    merge_nanos: u64,
}

/// Everything a worker reports back.
struct WorkerReport<'p> {
    /// The worker's partial (`None` in fragment mode), or its first
    /// error with the index of the morsel that raised it.
    outcome: Result<Option<Partial<'p>>, (usize, EngineError)>,
    counters: Vec<OpCounters>,
    /// The claim loop's (start, end) readings on the shared profiling
    /// clock (`None` when not profiling — no clock reads off the
    /// profiled path).
    loop_span: Option<(u64, u64)>,
}

/// Morsel-parallel execution of an eligible FLWOR's clauses up to its
/// first breaker, over its already evaluated outer binding sequence.
/// Returns the merged partial of that breaker (a tagged collect when
/// the chain has none but ranks its output), or `None` after handing
/// every morsel's `return` fragment to `sink` in morsel order.
fn exchange<'p>(
    interp: &Interpreter,
    f: &'p FlworIr,
    env: &mut Env,
    items: &[Item],
    threads: usize,
    cells: &[Option<JoinCell>],
    sink: &mut Sink,
) -> EngineResult<(Option<Partial<'p>>, ExchangeProfile)> {
    // The split point: the first breaker, or the whole chain. Clauses
    // after the breaker (and the sink) run on the calling thread over
    // the merged, serial-order stream, so they need no eligibility
    // restrictions of their own.
    let cut = f
        .ops
        .iter()
        .position(|op| OpKind::of(op).materializes())
        .unwrap_or(f.ops.len());
    let workers = threads.min(items.len().div_ceil(MORSEL));
    // Pre-build a join table sitting directly behind the outer `for`
    // with the morsel-partitioned parallel build. Safe to build eagerly
    // only there: the outer binding has items (> MORSEL) and an
    // untyped `for` cannot raise before its first tuple probes, so the
    // build side is certain to be evaluated; behind any later clause a
    // filter or a raising expression could mean it never is, and those
    // joins stay lazy (first probing worker builds into the shared
    // cell).
    if let [OpIr {
        clause: ClauseIr::For { ty: None, .. },
        ..
    }, OpIr { join: Some(j), .. }, ..] = &f.ops[..]
    {
        let cell = cells[1].as_ref().expect("a cell per join annotation");
        let _ = cell.set(build_join_table(j, interp, env, threads).map(Arc::new));
    }
    let clock = profiling_clock(interp);
    let morsels = Morsels {
        f,
        cut,
        items,
        cells,
        next: AtomicUsize::new(0),
        error_floor: AtomicUsize::new(usize::MAX),
    };
    // One private stats sink per worker, merged once after the join:
    // a single `add_snapshot` call per worker per query instead of
    // contended per-batch atomics on the shared sink.
    let worker_stats: Vec<EvalStats> = (0..workers).map(|_| EvalStats::default()).collect();
    let (tx, rx) = mpsc::channel::<(usize, Sequence)>();
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(workers);
    let mut sunk: EngineResult<()> = Ok(());
    std::thread::scope(|s| {
        // Interpreter is Send but not Sync (its recursion-depth Cell):
        // fork on the coordinator, move into the thread.
        let mut forks = worker_stats.iter().map(|ws| {
            let wenv = Env {
                slots: env.slots.clone(),
                focus: env.focus.clone(),
            };
            (interp.fork(ws), wenv, tx.clone())
        });
        // The calling thread is the first worker, so `threads` bounds
        // the threads that run, not only the ones spawned.
        let (interp0, env0, tx0) = forks.next().expect("at least one worker");
        let handles: Vec<_> = forks
            .map(|(winterp, wenv, wtx)| {
                let morsels = &morsels;
                s.spawn(move || morsels.work(winterp, wenv, wtx, &mut || ()))
            })
            .collect();
        drop(tx);
        // Fragments arrive in completion order; hold each until every
        // earlier morsel's has gone to the sink.
        let mut pending: HashMap<usize, Sequence> = HashMap::new();
        let mut next_out = 0usize;
        let mut deliver = |(m, frag): (usize, Sequence)| {
            pending.insert(m, frag);
            while let Some(frag) = pending.remove(&next_out) {
                next_out += 1;
                if sunk.is_ok() {
                    sink.out.append(frag);
                    sunk = sink.end_batch();
                    if sunk.is_err() {
                        // Nobody is listening: stop claiming morsels.
                        morsels.error_floor.store(0, AtomicOrdering::Relaxed);
                    }
                }
            }
        };
        // Between its own morsels this thread delivers what has
        // arrived; once it runs out of morsels it waits for the rest
        // (the channel closes when the last worker drops its sender).
        let mut arrived = || rx.try_iter().for_each(&mut deliver);
        reports.push(morsels.work(interp0, env0, tx0, &mut arrived));
        rx.iter().for_each(&mut deliver);
        for h in handles {
            reports.push(h.join().expect("parallel pipeline worker panicked"));
        }
    });
    for ws in &worker_stats {
        interp.stats.add_snapshot(&ws.snapshot());
    }
    sunk?;

    let mut profile = ExchangeProfile {
        cut,
        chains: Vec::with_capacity(workers),
        spans: Vec::new(),
        loop_nanos: 0,
        merge_start: clock.as_ref().map_or(0, |c| c.now_nanos()),
        merge_nanos: 0,
    };
    let mut merged: Option<Partial> = None;
    let mut first_error: Option<(usize, EngineError)> = None;
    for (wid, r) in reports.into_iter().enumerate() {
        if let Some((start, end)) = r.loop_span {
            profile.loop_nanos += end.saturating_sub(start);
            profile.spans.push(Span {
                name: "worker".to_string(),
                start_nanos: start,
                end_nanos: end,
                worker: Some(wid as u64),
                children: Vec::new(),
            });
        }
        profile.chains.push(r.counters);
        match r.outcome {
            Ok(None) => {}
            Ok(Some(partial)) => match &mut merged {
                Some(m) => m.merge(partial),
                None => merged = Some(partial),
            },
            // Keep the error from the smallest morsel index: tuple
            // results are independent, so that is exactly the error the
            // serial pipeline would have raised first.
            Err((m, e)) => match &first_error {
                Some((fm, _)) if *fm <= m => {}
                _ => first_error = Some((m, e)),
            },
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    if let Some(c) = &clock {
        profile.merge_nanos = c.now_nanos().saturating_sub(profile.merge_start);
    }
    Ok((merged, profile))
}

/// The state the workers of one [`exchange`] share.
struct Morsels<'a, 'p> {
    f: &'p FlworIr,
    cut: usize,
    /// The outer `for` binding sequence, claimed a [`MORSEL`] at a time.
    items: &'a [Item],
    cells: &'a [Option<JoinCell>],
    /// The next unclaimed morsel index.
    next: AtomicUsize,
    /// The smallest morsel index that raised so far (0 once the sink
    /// failed): nothing past it is worth claiming.
    error_floor: AtomicUsize,
}

impl<'p> Morsels<'_, 'p> {
    /// One worker: claim morsels until the input (or the error floor)
    /// is exhausted, streaming each through a private chain into this
    /// worker's partial — or, in fragment mode, through `return` and
    /// down `tx`. `between_morsels` runs after every finished morsel
    /// (the calling thread, itself a worker, delivers fragments there).
    fn work(
        &self,
        interp: Interpreter,
        mut env: Env,
        tx: Sender<(usize, Sequence)>,
        between_morsels: &mut dyn FnMut(),
    ) -> WorkerReport<'p> {
        let clock = profiling_clock(&interp);
        let loop_start = clock.as_ref().map(|c| c.now_nanos());
        let counters = op_counters(clock.is_some(), self.f.ops.len());
        let mut partial = match self.f.ops.get(self.cut) {
            Some(breaker) => Partial::for_op(breaker),
            None => self.f.return_at.map(|_| Partial::collect()),
        };
        let morsel_count = self.items.len().div_ceil(MORSEL);
        let mut error = None;
        loop {
            let m = self.next.fetch_add(1, AtomicOrdering::Relaxed);
            // Claims are monotonic, so every index below a claimed `m` is
            // already owned by someone; past the error floor there is no
            // point doing work whose output will be discarded.
            if m >= morsel_count || m > self.error_floor.load(AtomicOrdering::Relaxed) {
                break;
            }
            let done = self.run_morsel(m, &interp, &mut env, partial.as_mut(), &tx, &counters);
            if let Err(e) = done {
                self.error_floor.fetch_min(m, AtomicOrdering::Relaxed);
                error = Some((m, e));
                break;
            }
            between_morsels();
        }
        let loop_span = loop_start.zip(clock).map(|(s, c)| (s, c.now_nanos()));
        // Drain this thread's sequence-copy counters into the worker's
        // private sink so the coordinator's single add_snapshot merge picks
        // them up (the thread dies with the scope; counts would be lost).
        let (copied, shared) = xqa_xdm::take_seq_counters();
        interp.stats.seq_items_copied.add(copied);
        interp.stats.seq_clones_shared.add(shared);
        WorkerReport {
            outcome: match error {
                Some(e) => Err(e),
                None => Ok(partial),
            },
            counters: counters.iter().map(|c| c.get()).collect(),
            loop_span,
        }
    }

    /// Stream morsel `m` through a fresh clone of the pre-breaker
    /// chain. The seeded `ForScan` starts its `at` ordinals at the
    /// morsel's global offset, so positional variables are identical to
    /// the serial run.
    fn run_morsel(
        &self,
        m: usize,
        interp: &Interpreter,
        env: &mut Env,
        partial: Option<&mut Partial<'p>>,
        tx: &Sender<(usize, Sequence)>,
        counters: &[Rc<Cell<OpCounters>>],
    ) -> EngineResult<()> {
        let lo = m * MORSEL;
        let hi = self.items.len().min(lo + MORSEL);
        // ForScan owns its item iterator, so the morsel slice is cloned
        // into the worker here; `Item` is an Arc-backed handle.
        let seed = (Sequence::from_slice(&self.items[lo..hi]), lo as i64);
        let mut chain = build_chain(
            self.f,
            0..self.cut,
            Box::new(Singleton { done: true }),
            Some(seed),
            self.cells,
            counters,
        );
        match partial {
            Some(partial) => partial.drain(chain.as_mut(), m, interp, env),
            None => {
                let mut fragment = Sink::new(None);
                return_at(self.f, chain, interp, env, &mut fragment)?;
                // The receiver outlives every worker; a send cannot fail.
                let _ = tx.send((m, fragment.out.build()));
                Ok(())
            }
        }
    }
}
