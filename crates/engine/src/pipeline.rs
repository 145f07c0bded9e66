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
//! collects one `Sequence` or emits batch by batch. When a chain has a
//! breaker whose partials merge, more than one thread is available and
//! the outer `for` binds more than one [`MORSEL`], an [`exchange`] runs
//! the chain up to that breaker on worker threads, one partial per
//! worker, and merges the partials; the serial pipeline is the same
//! chain with a single partial that never merges, run on the calling
//! thread.
//!
//! In-place slot writes are sound because the compiler never reuses slot
//! numbers: dropping a binding from scope only hides it, so every
//! binding in a body has a globally unique slot ([`Ir::Quantified`]
//! evaluation already relies on the same contract).

mod partial;

use crate::context::EvalStats;
use crate::error::{EngineError, EngineResult};
use crate::eval::{opt_atomic, Env, Interpreter};
use crate::ir::*;
use crate::keys::atomic_key;
use crate::profile::{Clock, OpProfile, PipelineProfile};
use crate::rewrite::{conjuncts, joined, Joined};
use crate::types::matches_seq_type;
use partial::Partial;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use xqa_xdm::sequence::SequenceIntoIter;
use xqa_xdm::{
    effective_boolean_value, value_compare, AtomicValue, CompOp, ErrorCode, Item, NodeId, QName,
    Sequence, SequenceBuilder,
};

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

    /// One batch's items are all in `out`: when emitting, hand them
    /// over.
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
    drive(interp, f, env, &mut sink, None)?;
    Ok(sink.out.build())
}

/// Evaluate a FLWOR handing each batch's return-expression output to
/// `emit` as soon as the batch is pulled. Returns the total number of
/// items emitted.
pub(crate) fn run_streaming(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    emit: &mut EmitBatch,
) -> EngineResult<u64> {
    let mut sink = Sink::new(Some(emit));
    drive(interp, f, env, &mut sink, None)?;
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
/// the run, keyed by `f`'s address: one entry per FLWOR, however often
/// it runs.
///
/// A parallel-eligible chain (see [`crate::ir::parallel_eligible`])
/// running where more than one thread is available evaluates the outer
/// `for` binding sequence up front, as `ForScan` would: inputs larger
/// than one [`MORSEL`] go through the [`exchange`] and the calling
/// thread runs only what follows the first breaker, smaller ones seed
/// the ordinary chain.
///
/// `first` is the cell a hoisted `let $v := f` keeps `f`'s first
/// source in across `f`'s runs (see [`run_cells`]).
fn drive(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    sink: &mut Sink,
    first: Option<&SourceCell>,
) -> EngineResult<()> {
    let n = f.ops.len();
    let cells = run_cells(f, first);
    let profiler = interp.dynamic.profiler().cloned();
    let clock = profiling_clock(interp);
    let counters = op_counters(clock.is_some(), n);

    let cut = f.parallel.filter(|_| interp.threads > 1);
    let mut seed = None;
    if cut.is_some() {
        let ClauseIr::For { expr, .. } = &f.ops[0].clause else {
            unreachable!("parallel-eligible FLWOR starts with a for clause");
        };
        let source = for_source(interp, expr, cells[0].as_ref(), env)?;
        seed = Some(binding_sequence(interp, source, &f.ops[0].probes, env)?);
    }

    let start = clock.as_ref().map(|c| c.now_nanos());
    let mut exchanged = None;
    let source = match (cut, seed) {
        (Some(cut), Some(seed)) if seed.items.len() > MORSEL => {
            let (partial, profile) = exchange(interp, f, env, &seed, cut, &cells)?;
            exchanged = Some(profile);
            let breaker = Box::new(Breaker {
                input: Box::new(Singleton { done: true }),
                partial: Some(partial),
                output: Vec::new().into_iter(),
            });
            let breaker = instrument(breaker, counters.get(cut));
            build_chain(f, cut + 1..n, breaker, None, &cells, &counters)
        }
        (_, seed) => build_chain(
            f,
            0..n,
            Box::new(Singleton { done: false }),
            seed.map(|bound| (bound, 0)),
            &cells,
            &counters,
        ),
    };
    let mut sink_stats = SinkStats::default();
    let run = return_at(f, source, interp, env, sink, &mut sink_stats);
    // A run that fails on the way records what it did up to the error.
    if let (Some(profiler), Some(clock), Some(start)) = (profiler, clock, start) {
        let total = clock.now_nanos().saturating_sub(start);
        let tail = counters.iter().map(|c| c.get()).collect();
        let p = build_profile(f, tail, exchanged.as_ref(), sink_stats, total);
        profiler.record(std::ptr::from_ref(f) as usize, p);
    }
    run
}

/// Lower clauses `range` of `f` onto `input`, each operator metered by
/// its entry in `counters` (empty when not profiling). `seed` is the
/// already evaluated binding sequence of the range's first clause —
/// the outer `for` — with the ordinal its `at` positions start after.
/// A probed `for` and the `where` after it share an [`ExactFlag`].
fn build_chain<'p>(
    f: &'p FlworIr,
    range: Range<usize>,
    input: BoxSource<'p>,
    mut seed: Option<(Bindings, i64)>,
    cells: &[Option<SourceCell>],
    counters: &[Rc<Cell<OpCounters>>],
) -> BoxSource<'p> {
    let mut source = input;
    let mut probed = None;
    for i in range {
        let op = &f.ops[i];
        let flag = (!op.probes.is_empty()).then(ExactFlag::default);
        let after = std::mem::replace(&mut probed, flag.clone().map(|f| (f, op.probes.len())));
        let lowered = clause_source(op, cells[i].clone(), source, seed.take(), flag, after);
        source = instrument(lowered, counters.get(i));
    }
    source
}

/// The pipeline sink: pulls tuples, binds the §4 output ordinal
/// (`return at $rank`, numbered *after* any order by) and evaluates the
/// return expression per tuple into `sink`, batch by batch. A direct
/// element constructor builds the whole batch's rows into one arena
/// ([`Interpreter::construct_rows`]). What it consumed accumulates in
/// `stats`, a failed run's included.
fn return_at(
    f: &FlworIr,
    mut source: BoxSource<'_>,
    interp: &Interpreter,
    env: &mut Env,
    sink: &mut Sink,
    stats: &mut SinkStats,
) -> EngineResult<()> {
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
    Ok(())
}

/// What the sink consumed: the operator-level counters for `ReturnAt`'s
/// row in the profile.
#[derive(Debug, Default, Clone, Copy)]
struct SinkStats {
    batches: u64,
    tuples: u64,
}

/// Lower one clause record onto `input`, yielding the operator
/// [`OpKind::of`] names. A record the join-unnesting rule annotated
/// lowers to the hash-join operator instead of its nested form; `cell`
/// is the record's run-scoped kept source, shared by every lowering of
/// the same record (see [`run_cells`]). A `for` given a
/// `seed` (see [`build_chain`]) starts out holding it and never pulls
/// `input` or evaluates its expression. A probed `for` raises `flag` on
/// its exact batches; a `where` right after one gets `after_probe`, that
/// flag and the number of conjuncts the `for` probed.
fn clause_source<'p>(
    op: &'p OpIr,
    cell: Option<SourceCell>,
    input: BoxSource<'p>,
    seed: Option<(Bindings, i64)>,
    flag: Option<ExactFlag>,
    after_probe: Option<(ExactFlag, usize)>,
) -> BoxSource<'p> {
    let kept = match (joined(op), cell) {
        (Some(j), Some(cell)) => return Box::new(HashJoin { input, j, cell }),
        (_, cell) => cell,
    };
    match &op.clause {
        ClauseIr::For {
            slot,
            at_slot,
            ty,
            expr,
        } => {
            let input_done = seed.is_some();
            let (bound, item_pos) = seed.unwrap_or_default();
            Box::new(ForScan {
                input,
                slot: *slot,
                at_slot: *at_slot,
                ty: ty.as_ref(),
                expr,
                kept,
                probes: &op.probes,
                batch: Vec::new().into_iter(),
                items: bound.items.into_iter(),
                exact: bound.exact,
                flag,
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
            kept,
        }),
        ClauseIr::Where(cond) => Box::new(Filter {
            input,
            cond,
            residual: after_probe.map(|(flag, probed)| (flag, conjuncts(cond).split_off(probed))),
        }),
        ClauseIr::Count { slot } => Box::new(CountBind {
            input,
            slot: *slot,
            n: 0,
        }),
        ClauseIr::Window(w) => Box::new(WindowScan { input, w }),
        ClauseIr::GroupBy(_) | ClauseIr::OrderBy(_) => Box::new(Breaker {
            input,
            partial: Some(Partial::for_op(op)),
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
/// outside the chains — absorbing into partials — and the coordinator's
/// merge go to the breaker's row.
fn build_profile(
    f: &FlworIr,
    tail: Vec<OpCounters>,
    exchange: Option<&ExchangeProfile>,
    sink_stats: SinkStats,
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
    ops.push(OpProfile {
        kind: OpKind::ReturnAt,
        detail: String::new(),
        batches: sink_stats.batches,
        tuples_in: upstream_out,
        tuples_out: sink_stats.tuples,
        nanos: total_nanos.saturating_sub(accounted),
        estimate: f.return_estimate,
    });
    PipelineProfile {
        executions: 1,
        workers: exchange.map_or(1, |x| x.chains.len() as u64),
        ops,
    }
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
    /// Where a hoisted source ([`OpIr::hoist`]) is kept.
    kept: Option<SourceCell>,
    probes: &'p [(QName, Slot)],
    batch: std::vec::IntoIter<Tuple>,
    items: SequenceIntoIter,
    /// Whether `items` came from exact probes ([`Bindings::exact`]).
    exact: bool,
    /// Set when probed: raised on each batch of exact tuples. A batch
    /// ends wherever exactness changes, so one flag covers it.
    flag: Option<ExactFlag>,
    item_pos: i64,
    base: Tuple,
    input_done: bool,
}

impl ForScan<'_> {
    /// Hand `out` on: its tuples counted and its flag set.
    fn emit(&self, interp: &Interpreter, out: Vec<Tuple>, exact: bool) -> Vec<Tuple> {
        interp.stats.tuples_produced.add(out.len() as u64);
        if let Some(flag) = &self.flag {
            flag.set(exact);
        }
        out
    }
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
                    return Ok(Some(self.emit(interp, out, self.exact)));
                }
            }
            match self.batch.next() {
                Some(base) => {
                    base.apply(env);
                    let source = for_source(interp, self.expr, self.kept.as_ref(), env)?;
                    let bound = binding_sequence(interp, source, self.probes, env)?;
                    self.items = bound.items.into_iter();
                    self.item_pos = 0;
                    self.base = base;
                    let was = std::mem::replace(&mut self.exact, bound.exact);
                    if was != bound.exact && !out.is_empty() {
                        return Ok(Some(self.emit(interp, out, was)));
                    }
                }
                None if self.input_done => {
                    return Ok((!out.is_empty()).then(|| self.emit(interp, out, self.exact)));
                }
                None => match self.input.next_batch(interp, env)? {
                    Some(b) => self.batch = b.into_iter(),
                    None => self.input_done = true,
                },
            }
        }
    }
}

/// A `for` source's or a hash join's build side's value, as
/// [`binding_sequence`] and [`probe`] read it.
#[derive(Clone)]
struct SourceValue {
    items: Sequence,
    /// Set on a kept source whose items are all nodes of the document
    /// with this serial, in strictly increasing id order: a store lookup
    /// then picks its parents out of them by binary search
    /// ([`ordered_matches`]).
    ordered_doc: Option<u64>,
    /// A hash join's bucket table over `items`, built at the first probe
    /// the store does not answer.
    table: OnceLock<JoinTable>,
}

impl SourceValue {
    /// A source evaluated for one tuple: never inspected for order,
    /// since the filter it would save costs as much as the check.
    fn fresh(items: Sequence) -> SourceValue {
        SourceValue {
            items,
            ordered_doc: None,
            table: OnceLock::new(),
        }
    }

    /// A source kept for a FLWOR execution, with its order checked once.
    fn kept(items: Sequence) -> SourceValue {
        let ordered_doc = ordered_doc(&items);
        SourceValue {
            items,
            ordered_doc,
            table: OnceLock::new(),
        }
    }

    /// The bucket table, built now if no probe has needed it yet.
    fn table(&self, j: &Joined, interp: &Interpreter, env: &mut Env) -> &JoinTable {
        self.table
            .get_or_init(|| build_join_table(j, &self.items, interp, env))
    }
}

/// The serial of the document whose nodes `items` all are, in strictly
/// increasing id order; `None` for anything else, empty included.
fn ordered_doc(items: &[Item]) -> Option<u64> {
    let Some(Item::Node(first)) = items.first() else {
        return None;
    };
    let serial = first.document().serial();
    let id = |item: &Item| match item {
        Item::Node(node) if node.document().serial() == serial => Some(node.id()),
        _ => None,
    };
    let ordered = items.iter().all(|item| id(item).is_some())
        && items.windows(2).all(|pair| id(&pair[0]) < id(&pair[1]));
    ordered.then_some(serial)
}

/// The items of `items`, nodes in increasing id order, whose ids are in
/// `ids` (sorted): O(k log n) for k ids, in item order.
fn nodes_with_ids(items: &[Item], ids: Vec<NodeId>) -> impl Iterator<Item = &Item> {
    let id = |item: &Item| match item {
        Item::Node(node) => node.id(),
        Item::Atomic(_) => unreachable!("ordered items are nodes"),
    };
    ids.into_iter()
        .filter_map(move |want| items.binary_search_by_key(&want, id).ok())
        .map(|i| &items[i])
}

/// The one store lookup over a kept source: where `source` is ordered
/// ([`SourceValue::ordered_doc`]) and its document's store answers the
/// first of `keys`, the items whose ids [`probed_parents`] keeps, in
/// item order, and whether every key was answered.
fn ordered_matches<'a>(
    interp: &Interpreter,
    source: &'a SourceValue,
    keys: &[(&QName, ValueProbeIr)],
) -> Option<(impl Iterator<Item = &'a Item>, bool)> {
    let (parents, all) = probed_parents(interp, source.ordered_doc?, keys)?;
    Some((nodes_with_ids(&source.items, parents), all))
}

/// A source kept for one FLWOR execution: a hoisted record's
/// ([`OpIr::hoist`]) or a hash join's build side ([`OpIr::join`]),
/// shared by every lowering of its clause in the run. The first tuple
/// evaluates it, every later one reuses the value or replays its error,
/// as re-evaluating the source would.
type SourceCell = Arc<OnceLock<Result<SourceValue, EngineError>>>;

/// Per clause record, a kept-source cell where it is hoisted or
/// join-annotated, created per pipeline execution (enclosing bindings
/// are fixed for the duration of one `run`, so what a cell holds is
/// reusable exactly within it). The first record takes `first` instead:
/// the cell a hoisted `let` keeps this FLWOR's first source in across
/// its runs.
fn run_cells(f: &FlworIr, first: Option<&SourceCell>) -> Vec<Option<SourceCell>> {
    f.ops
        .iter()
        .enumerate()
        .map(|(i, op)| match first.filter(|_| i == 0) {
            Some(cell) => Some(Arc::clone(cell)),
            None => (op.hoist || op.join.is_some()).then(SourceCell::default),
        })
        .collect()
}

/// A `for` clause's source for the current tuple: the value kept in
/// `kept`, evaluated into it at the first tuple, or `expr` evaluated now.
fn for_source<'k>(
    interp: &Interpreter,
    expr: &Ir,
    kept: Option<&'k SourceCell>,
    env: &mut Env,
) -> EngineResult<Cow<'k, SourceValue>> {
    Ok(match kept {
        Some(cell) => Cow::Borrowed(
            cell.get_or_init(|| interp.eval(expr, env).map(SourceValue::kept))
                .as_ref()
                .map_err(EngineError::clone)?,
        ),
        None => Cow::Owned(SourceValue::fresh(interp.eval(expr, env)?)),
    })
}

/// A `for` clause's binding sequence, as [`binding_sequence`] makes it.
#[derive(Default)]
struct Bindings {
    items: Sequence,
    /// Every value probe applied, and the store answered each exactly for
    /// every item: the probed conjuncts hold on every item and cannot
    /// raise, so the `where` after the `for` skips them.
    exact: bool,
}

/// Raised by a probed `ForScan` on each batch of exact tuples
/// ([`Bindings::exact`]), read by the `where` after it.
type ExactFlag = Rc<Cell<bool>>;

/// A `for` clause's binding sequence: its source's items less the nodes
/// its value probes ([`OpIr::probes`]) prove the `where` after the `for`
/// rejects (DESIGN.md §5.1). Atomics, nodes of documents without a
/// store and, unless the probes were exact, every survivor still meet
/// the `where`. Over an ordered source ([`SourceValue::ordered_doc`])
/// each probed parent is looked up in the items; anything else is
/// filtered.
fn binding_sequence(
    interp: &Interpreter,
    source: Cow<'_, SourceValue>,
    probes: &[(QName, Slot)],
    env: &mut Env,
) -> EngineResult<Bindings> {
    // A probe applies to a key of one string, untyped or numeric atom.
    let keys: Vec<(&QName, ValueProbeIr)> = probes
        .iter()
        .map_while(|(c, x)| match env.slots[*x].as_slice() {
            [key] => Some((c, ValueProbeIr::of_atom(&key.atomize())?)),
            _ => None,
        })
        .collect();
    let unprobed = |source: Cow<'_, SourceValue>| Bindings {
        items: source.into_owned().items,
        exact: false,
    };
    if keys.is_empty() {
        return Ok(unprobed(source));
    }
    let applied = keys.len() == probes.len();
    if source.ordered_doc.is_some() {
        let answered = ordered_matches(interp, &source, &keys).map(|(matches, all)| Bindings {
            items: matches.cloned().collect(),
            exact: applied && all,
        });
        return Ok(answered.unwrap_or_else(|| unprobed(source)));
    }
    // Per document met so far, what `probed_parents` answered; `None`
    // when it has no store or its store answers no probe.
    let mut docs: Vec<(u64, Option<ProbeAnswer>)> = Vec::new();
    let mut exact = applied;
    let mut out = SequenceBuilder::new();
    for item in source.items.iter() {
        let answer = match item {
            Item::Node(node) => {
                let serial = node.document().serial();
                let i = match docs.iter().rposition(|(s, _)| *s == serial) {
                    Some(i) => i,
                    None => {
                        docs.push((serial, probed_parents(interp, serial, &keys)));
                        docs.len() - 1
                    }
                };
                docs[i]
                    .1
                    .as_ref()
                    .map(|(kept, all)| (kept.binary_search(&node.id()).is_ok(), *all))
            }
            Item::Atomic(_) => None,
        };
        // An item no store answers for stays, for the `where` to decide.
        let (survives, all) = answer.unwrap_or((true, false));
        exact &= all;
        if survives {
            out.push(item.clone());
        }
    }
    Ok(Bindings {
        items: out.build(),
        exact,
    })
}

/// What a document's store answers for a `for`'s probes: the parents
/// they keep, and whether every probe applied.
type ProbeAnswer = (Vec<NodeId>, bool);

/// The intersection of the parents the probes answer in document
/// `serial`'s store, taken in order up to the first the store cannot
/// answer exactly (a later conjunct runs only after the earlier ones
/// held, so an earlier one the index cannot decide might have raised),
/// and whether that was every probe.
fn probed_parents(
    interp: &Interpreter,
    serial: u64,
    keys: &[(&QName, ValueProbeIr)],
) -> Option<ProbeAnswer> {
    let store = interp.dynamic.store(serial)?;
    let mut kept: Option<Vec<NodeId>> = None;
    let mut all = true;
    for (c, key) in keys {
        let Some(parents) = key.parents(store, c) else {
            all = false;
            break;
        };
        kept = Some(match kept {
            None => parents,
            Some(kept) => kept
                .into_iter()
                .filter(|id| parents.binary_search(id).is_ok())
                .collect(),
        });
    }
    kept.map(|kept| (kept, all))
}

/// `let $v := e`: 1:1 streaming binder. A hoisted `let $v := G`
/// ([`OpIr::hoist`]) runs its FLWOR `G` per tuple over `G`'s first
/// source kept in `kept`.
struct LetBind<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    ty: Option<&'p SeqTypeIr>,
    expr: &'p Ir,
    kept: Option<SourceCell>,
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
            let seq = match (self.expr, &self.kept) {
                (Ir::Flwor(g), Some(kept)) => {
                    let mut sink = Sink::new(None);
                    drive(interp, g, env, &mut sink, Some(kept))?;
                    sink.out.build()
                }
                (expr, _) => interp.eval(expr, env)?,
            };
            check_let_type(&seq, self.ty)?;
            t.bind(self.slot, seq);
        }
        Ok(Some(batch))
    }
}

/// A `let` binding's declared-type check, shared by [`LetBind`] and the
/// `let` shape of [`HashJoin`].
fn check_let_type(seq: &Sequence, ty: Option<&SeqTypeIr>) -> EngineResult<()> {
    match ty {
        Some(ty) if !matches_seq_type(seq, ty) => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            "let-binding value does not match its declared type",
        )),
        _ => Ok(()),
    }
}

/// `where e`: streaming filter.
struct Filter<'p> {
    input: BoxSource<'p>,
    cond: &'p Ir,
    /// Right after a probed `for`: its [`ExactFlag`] and the conjuncts
    /// after the probed ones. On an exact batch only those run, in
    /// order, stopping at the first false, as `and` would once the
    /// probed conjuncts held.
    residual: Option<(ExactFlag, Vec<&'p Ir>)>,
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
        let residual = match &self.residual {
            Some((exact, conjuncts)) if exact.get() => Some(conjuncts.as_slice()),
            _ => None,
        };
        if residual.is_some_and(<[_]>::is_empty) {
            return Ok(Some(batch));
        }
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for t in batch {
            t.apply(env);
            let keep = match residual {
                Some(conjuncts) => all_hold(interp, conjuncts, env)?,
                None => interp.eval_ebv(self.cond, env)?,
            };
            if keep {
                out.push(t);
            }
        }
        interp
            .stats
            .tuples_pruned_filter
            .add((before - out.len()) as u64);
        Ok(Some(out))
    }
}

/// Whether every conjunct holds, evaluated left to right up to the
/// first that does not.
fn all_hold(interp: &Interpreter, conjuncts: &[&Ir], env: &mut Env) -> EngineResult<bool> {
    for conjunct in conjuncts {
        if !interp.eval_ebv(conjunct, env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

// ──────────────────────── hash join ────────────────────────
//
// The planner's join-unnesting rule (`crate::rewrite`)
// marks a `let $m := for $y in SRC where KEY-pred return $y` clause or
// a `where some $y in SRC satisfies KEY-pred` clause whose SRC is
// independent of the enclosing bindings; the operator reads SRC, `$y`
// and KEY-pred back from the clause (`Joined`). It replaces the
// per-tuple nested loop: SRC is kept *once per FLWOR execution* in the
// record's `SourceCell`, as a hoisted `for` keeps its source, and each
// probing tuple does one keyed lookup.
//
// Where the build key is `$y/c` under `=` (`Joined::index_key`), SRC's
// items are nodes of one document in increasing id order and the probe
// key is one string, untyped or numeric atom, the document store's
// value index answers the lookup exactly through the lookup a probed
// `for` makes (`ordered_matches`): the matching items are picked out of
// SRC by binary search. Every other probe reads a table of SRC's key
// atoms (`SourceValue::table`), bucketed by the canonical-key machinery
// of `crate::keys` at the first such probe, with an exact verifying
// comparison per candidate.
//
// Output is byte-identical to the nested plan, including errors:
//
// - The build is lazy (first probing tuple). Zero probing tuples never
//   evaluate SRC — exactly like the nested loop — and every later probe
//   replays its error.
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
//   nested-loop scan of the kept items — same values, same errors,
//   same error order as the nested plan.

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

/// Existential match: any (probe atom, build atom) pair `eq`. The class
/// gate admits only pairs of one class, where `value_compare` never
/// raises and compares untyped as string; NaN stays unequal to itself,
/// matching both comparison kinds.
fn atoms_match(probe: &[AtomicValue], build: &[AtomicValue]) -> bool {
    let eq = |p, b| matches!(value_compare(p, b, CompOp::Eq), Ok(true));
    probe.iter().any(|p| build.iter().any(|b| eq(p, b)))
}

/// A build side's bucket table.
#[derive(Clone)]
struct JoinTable {
    /// Per item, the atomized key (aligned with the items; truncated
    /// and unused when `scan_only`).
    keys: Vec<Vec<AtomicValue>>,
    /// Canonical atom key → ascending indices of items carrying it.
    buckets: HashMap<String, Vec<usize>>,
    /// Union of every build atom's class bit.
    classes: u8,
    /// Every probe must take the verbatim nested-loop scan: a build key
    /// raised, or the build atoms span comparison classes.
    scan_only: bool,
}

/// One key side (`build_key` with `$y` bound, or `probe_key`),
/// atomized under the comparison's rules: a value comparison admits at
/// most one atom, a general comparison atomizes the whole sequence.
fn key_atoms(
    j: &Joined,
    key: &Ir,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Vec<AtomicValue>> {
    let seq = interp.eval(key, env)?;
    if j.value_comp {
        Ok(opt_atomic(&seq, "value comparison")?.into_iter().collect())
    } else {
        Ok(seq.iter().map(Item::atomize).collect())
    }
}

/// Key, classify and bucket the build items. A key that raises does not
/// surface here: whether and when it would have in the nested plan
/// depends on the probe (a `some` stops at its first preceding match),
/// so the table just degrades to scan-only and the per-probe scan
/// re-raises it at exactly the nested position.
fn build_join_table(j: &Joined, items: &[Item], interp: &Interpreter, env: &mut Env) -> JoinTable {
    let mut keys = Vec::with_capacity(items.len());
    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    let mut classes = 0;
    let mut scan_only = false;
    let mut scratch = String::new();
    for (idx, item) in items.iter().enumerate() {
        env.slots[j.join.y] = Sequence::One(item.clone());
        let Ok(atoms) = key_atoms(j, j.build_key, interp, env) else {
            scan_only = true;
            break;
        };
        for a in &atoms {
            classes |= atom_class(a);
            scratch.clear();
            atomic_key(a, &mut scratch);
            match buckets.get_mut(scratch.as_str()) {
                Some(bucket) if bucket.last() == Some(&idx) => {}
                Some(bucket) => bucket.push(idx),
                None => {
                    buckets.insert(scratch.clone(), vec![idx]);
                }
            }
        }
        keys.push(atoms);
    }
    JoinTable {
        keys,
        buckets,
        classes,
        scan_only: scan_only || classes.count_ones() > 1,
    }
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

/// Hand the build items matching the current tuple to `take`, in SRC
/// order, until `take` returns `false` (a `let` takes every match, a
/// `some` stops at the first). A probe the store answers takes its
/// matches; one whose atoms share the build's class takes the hash
/// lookup. Any other probe replays the nested `for $y in SRC where pred`
/// (or `some $y in SRC satisfies pred`) loop verbatim over the
/// kept items: same values, same errors, same error order — SRC is
/// constructor-free, so keeping it once preserves item and node identity
/// — and, as in the quantifier, a predicate after the match a `some`
/// stopped at is never evaluated.
fn probe(
    j: &Joined,
    build: &SourceValue,
    interp: &Interpreter,
    env: &mut Env,
    mut take: impl FnMut(&Item) -> bool,
) -> EngineResult<()> {
    if build.items.is_empty() {
        // The nested loop iterates nothing and never touches the
        // probe-side expression.
        return Ok(());
    }
    // A store-answerable build's keys are `$y/c` over nodes, which never
    // raise, so its probe key is evaluated before the table is asked
    // for; any other build's keys may raise first.
    let table = match (j.index_key, build.ordered_doc) {
        (Some(_), Some(_)) => None,
        _ => Some(build.table(j, interp, env)),
    };
    if !table.is_some_and(|t| t.scan_only) {
        let atoms = key_atoms(j, j.probe_key, interp, env)?;
        let key = match (j.index_key, atoms.as_slice()) {
            (Some(c), [atom]) => ValueProbeIr::of_atom(atom).map(|key| (c, key)),
            _ => None,
        };
        if let Some((matches, _)) = key.and_then(|key| ordered_matches(interp, build, &[key])) {
            interp.stats.join_hash_probes.add(1);
            for item in matches {
                if !take(item) {
                    break;
                }
            }
            return Ok(());
        }
        let table = table.unwrap_or_else(|| build.table(j, interp, env));
        // An all-empty build side (classes == 0) can never pair with
        // anything: no comparison happens, so any probe is safe (and
        // matches nothing).
        let hashable = table.classes == 0 || atoms.iter().all(|a| atom_class(a) == table.classes);
        if !table.scan_only && hashable {
            interp.stats.join_hash_probes.add(1);
            for idx in join_candidates(table, &atoms) {
                if atoms_match(&atoms, &table.keys[idx]) && !take(&build.items[idx]) {
                    break;
                }
            }
            return Ok(());
        }
    }
    for item in build.items.iter() {
        env.slots[j.join.y] = Sequence::One(item.clone());
        if interp.eval_ebv(j.pred, env)? && !take(item) {
            break;
        }
    }
    Ok(())
}

/// The hash-join operator: a streaming binder (`let` shape) or filter
/// (`some` shape) probing the build side kept in the run's shared cell.
struct HashJoin<'p> {
    input: BoxSource<'p>,
    j: Joined<'p>,
    cell: SourceCell,
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
            let build = self
                .cell
                .get_or_init(|| {
                    let build = interp.eval(self.j.join.src, env).map(SourceValue::kept);
                    build.inspect(|b| interp.stats.join_build_tuples.add(b.items.len() as u64))
                })
                .as_ref()
                .map_err(EngineError::clone)?;
            match self.j.join.binds {
                Some((slot, ty)) => {
                    let mut matches = SequenceBuilder::new();
                    probe(&self.j, build, interp, env, |item| {
                        matches.push(item.clone());
                        true
                    })?;
                    let seq = matches.build();
                    check_let_type(&seq, ty)?;
                    t.bind(slot, seq);
                    out.push(t);
                }
                None => {
                    let mut found = false;
                    probe(&self.j, build, interp, env, |_| {
                        found = true;
                        false
                    })?;
                    if found {
                        out.push(t);
                    }
                }
            }
        }
        if self.j.join.binds.is_none() {
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

/// Window clause (XQuery 3.0): per input tuple, evaluate the binding
/// sequence once and emit one tuple per window, a delta binding the
/// window variable and the start/end condition variables.
///
/// A condition is tested with its boundary's variables bound in the
/// frame, in one fixed order, so a raising `when` raises at the same
/// point in every mode: `start` at `i`, then `end` from `i`; a tumbling
/// window without `end` looks ahead for the next start from `i + 1`,
/// and tests it again there.
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
        let w = self.w;
        let mut out = Vec::new();
        for t in batch {
            t.apply(env);
            let items = interp.eval(&w.expr, env)?;
            let n = items.len();
            let holds = |cond: &WindowCondIr, i: usize, env: &mut Env| {
                for (slot, value) in boundary_vars(cond, &items, i) {
                    env.slots[slot] = value;
                }
                let v = interp.eval(&cond.when, env)?;
                effective_boolean_value(&v).map_err(EngineError::from)
            };
            let first_holding = |cond: &WindowCondIr, from: Range<usize>, env: &mut Env| {
                for j in from {
                    if holds(cond, j, env)? {
                        return Ok(Some(j));
                    }
                }
                EngineResult::Ok(None)
            };
            let mut i = 0;
            while i < n {
                if !holds(&w.start, i, env)? {
                    i += 1;
                    continue;
                }
                // The window's last item, and whether `end` closed it
                // there; one that never closes runs to the end of the
                // sequence, with the end variables on the final item.
                let (last, closed) = match &w.end {
                    Some(end) => match first_holding(end, i..n, env)? {
                        Some(j) => (j, true),
                        None => (n - 1, false),
                    },
                    // Tumbling without `end` (the parser requires one on
                    // a sliding window): up to just before the next start.
                    None => (
                        first_holding(&w.start, i + 1..n, env)?.unwrap_or(n) - 1,
                        true,
                    ),
                };
                if closed || !w.only_end {
                    let mut window = t.clone();
                    let ends = w
                        .end
                        .iter()
                        .flat_map(|end| boundary_vars(end, &items, last));
                    for (slot, value) in boundary_vars(&w.start, &items, i).chain(ends) {
                        window.bind(slot, value);
                    }
                    window.bind(w.slot, Sequence::from_slice(&items[i..=last]));
                    out.push(window);
                }
                i = if w.sliding { i + 1 } else { last + 1 };
            }
        }
        interp.stats.tuples_produced.add(out.len() as u64);
        Ok(Some(out))
    }
}

/// The variables a window condition binds at boundary `i`: the item, its
/// 1-based position, and the items before and after it.
fn boundary_vars<'a>(
    cond: &'a WindowCondIr,
    items: &'a [Item],
    i: usize,
) -> impl Iterator<Item = (Slot, Sequence)> + 'a {
    let item = |k: usize| {
        items
            .get(k)
            .map_or(Sequence::Empty, |x| Sequence::One(x.clone()))
    };
    [
        cond.item_slot.map(|slot| (slot, item(i))),
        cond.at_slot.map(|slot| (slot, Sequence::one(i as i64 + 1))),
        cond.previous_slot
            .map(|slot| (slot, i.checked_sub(1).map_or(Sequence::Empty, item))),
        cond.next_slot.map(|slot| (slot, item(i + 1))),
    ]
    .into_iter()
    .flatten()
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
// streaming clauses up to a breaker whose partials merge) is split at
// the breaker: workers claim [`MORSEL`]-sized chunks of the outer
// binding sequence from a shared atomic counter and run their own clone
// of the streaming chain into a *partitioned* breaker state, one
// [`Partial`] per worker. The coordinator merges the partials — every
// tuple carries a [`Tag`], so finishing the merged partial yields the
// exact serial tuple order — and feeds any clauses after the breaker,
// plus the `return` sink, serially.

/// What an [`exchange`] measured, for [`build_profile`]. Clock-derived
/// fields are zero when not profiling.
struct ExchangeProfile {
    /// The clause index the chain was split at.
    cut: usize,
    /// Per worker, its chain's counters (one entry per clause).
    chains: Vec<Vec<OpCounters>>,
    /// Wall time the workers spent in their claim loops, summed.
    loop_nanos: u64,
    /// Wall time the coordinator spent merging the partials.
    merge_nanos: u64,
}

/// Everything a worker reports back.
struct WorkerReport<'p> {
    /// The worker's partial, or its first error with the index of the
    /// morsel that raised it.
    outcome: Result<Partial<'p>, (usize, EngineError)>,
    counters: Vec<OpCounters>,
    /// Wall time of the claim loop on the shared profiling clock (0
    /// when not profiling — no clock reads off the profiled path).
    loop_nanos: u64,
}

/// Morsel-parallel execution of an eligible FLWOR's clauses up to its
/// first breaker, clause `cut` ([`FlworIr::parallel`]), over its
/// already evaluated outer binding sequence. Clauses after the breaker
/// (and the sink) run on the calling thread over the merged,
/// serial-order stream, so they need no eligibility restrictions of
/// their own. Returns the merged partial of that breaker.
fn exchange<'p>(
    interp: &Interpreter,
    f: &'p FlworIr,
    env: &mut Env,
    seed: &Bindings,
    cut: usize,
    cells: &[Option<SourceCell>],
) -> EngineResult<(Partial<'p>, ExchangeProfile)> {
    let workers = interp.threads.min(seed.items.len().div_ceil(MORSEL));
    let clock = profiling_clock(interp);
    let morsels = Morsels {
        f,
        cut,
        items: &seed.items,
        exact: seed.exact,
        cells,
        next: AtomicUsize::new(0),
        error_floor: AtomicUsize::new(usize::MAX),
    };
    // One private stats sink per worker, merged once after the join:
    // a single `add_snapshot` call per worker per query instead of
    // contended per-batch atomics on the shared sink.
    let worker_stats: Vec<EvalStats> = (0..workers).map(|_| EvalStats::default()).collect();
    // Interpreter is Send but not Sync (its recursion-depth Cell):
    // fork on the coordinator, move into the thread.
    let fork = |ws| {
        let wenv = Env {
            slots: env.slots.clone(),
            focus: env.focus.clone(),
        };
        (interp.fork(ws), wenv)
    };
    let (own, others) = std::thread::scope(|s| {
        let handles: Vec<_> = worker_stats[1..]
            .iter()
            .map(|ws| {
                let (winterp, wenv) = fork(ws);
                let morsels = &morsels;
                s.spawn(move || morsels.work(winterp, wenv))
            })
            .collect();
        // The calling thread is the first worker, so `threads` bounds
        // the threads that run, not only the ones spawned.
        let (interp0, env0) = fork(&worker_stats[0]);
        let own = morsels.work(interp0, env0);
        let others: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel pipeline worker panicked"))
            .collect();
        (own, others)
    });
    for ws in &worker_stats {
        interp.stats.add_snapshot(&ws.snapshot());
    }

    let merge_began = clock.as_ref().map(|c| c.now_nanos());
    let mut chains = vec![own.counters];
    let mut loop_nanos = own.loop_nanos;
    let mut merged = own.outcome;
    for r in others {
        loop_nanos += r.loop_nanos;
        chains.push(r.counters);
        merged = match (merged, r.outcome) {
            (Ok(mut m), Ok(partial)) => {
                m.merge(partial);
                Ok(m)
            }
            // Keep the error from the smallest morsel index: tuple
            // results are independent, so that is exactly the error the
            // serial pipeline would have raised first.
            (Err(a), Err(b)) => Err(if b.0 < a.0 { b } else { a }),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        };
    }
    let merged = merged.map_err(|(_, e)| e)?;
    let merge_nanos = clock
        .zip(merge_began)
        .map_or(0, |(c, began)| c.now_nanos().saturating_sub(began));
    let profile = ExchangeProfile {
        cut,
        chains,
        loop_nanos,
        merge_nanos,
    };
    Ok((merged, profile))
}

/// The state the workers of one [`exchange`] share.
struct Morsels<'a, 'p> {
    f: &'p FlworIr,
    cut: usize,
    /// The outer `for` binding sequence, claimed a [`MORSEL`] at a time.
    items: &'a [Item],
    /// Whether its probes were exact ([`Bindings::exact`]).
    exact: bool,
    cells: &'a [Option<SourceCell>],
    /// The next unclaimed morsel index.
    next: AtomicUsize,
    /// The smallest morsel index that raised so far: nothing past it is
    /// worth claiming.
    error_floor: AtomicUsize,
}

impl<'p> Morsels<'_, 'p> {
    /// One worker: claim morsels until the input (or the error floor)
    /// is exhausted, streaming each through a private chain into this
    /// worker's partial.
    fn work(&self, interp: Interpreter, mut env: Env) -> WorkerReport<'p> {
        let clock = profiling_clock(&interp);
        let loop_start = clock.as_ref().map(|c| c.now_nanos());
        let counters = op_counters(clock.is_some(), self.f.ops.len());
        let mut partial = Partial::for_op(&self.f.ops[self.cut]);
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
            if let Err(e) = self.run_morsel(m, &interp, &mut env, &mut partial, &counters) {
                self.error_floor.fetch_min(m, AtomicOrdering::Relaxed);
                error = Some((m, e));
                break;
            }
        }
        let loop_nanos = loop_start
            .zip(clock)
            .map_or(0, |(s, c)| c.now_nanos().saturating_sub(s));
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
            loop_nanos,
        }
    }

    /// Stream morsel `m` through a fresh clone of the pre-breaker
    /// chain into `partial`. The seeded `ForScan` starts its `at`
    /// ordinals at the morsel's global offset, so positional variables
    /// are identical to the serial run.
    fn run_morsel(
        &self,
        m: usize,
        interp: &Interpreter,
        env: &mut Env,
        partial: &mut Partial<'p>,
        counters: &[Rc<Cell<OpCounters>>],
    ) -> EngineResult<()> {
        let lo = m * MORSEL;
        let hi = self.items.len().min(lo + MORSEL);
        // ForScan owns its item iterator, so the morsel slice is cloned
        // into the worker here; `Item` is an Arc-backed handle.
        let seed = Bindings {
            items: Sequence::from_slice(&self.items[lo..hi]),
            exact: self.exact,
        };
        let mut chain = build_chain(
            self.f,
            0..self.cut,
            Box::new(Singleton { done: true }),
            Some((seed, lo as i64)),
            self.cells,
            counters,
        );
        partial.drain(chain.as_mut(), m, interp, env)
    }
}
