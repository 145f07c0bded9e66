//! Breaker partial states: the `absorb` / `merge` / `finish` contract.
//!
//! A pipeline breaker (`group by`, `order by` with or without a top-k
//! limit, and the tagged collect a parallel `return at` needs) keeps
//! its state in a [`Partial`] covering a share of the tuple stream:
//!
//! - [`Partial::absorb`] takes one batch of one morsel and tags every
//!   tuple with its position in the serial stream;
//! - [`Partial::merge`] folds another partial of the same breaker in;
//! - [`Partial::finish`] turns the state into the breaker's output
//!   tuples, in exactly the order one partial absorbing the whole
//!   stream would produce.
//!
//! The serial pipeline is the one-partial case: the [`super::Breaker`]
//! operator absorbs its whole input as morsel 0 and finishes, never
//! merging. Morsel workers fill one partial each and the coordinator
//! merges them; the tags make the result independent of which worker
//! saw which morsel and of the order partials are merged in.

use super::{Tag, Tuple, TupleSource};
use crate::error::{EngineError, EngineResult};
use crate::eval::{Env, Interpreter};
use crate::flwor::{compare_order_keys, sort_keyed, OrderKeys};
use crate::ir::*;
use crate::keys::GroupIndex;
use std::cmp::Ordering;
use xqa_xdm::{deep_equal, effective_boolean_value, Sequence, SequenceBuilder};

/// One breaker's state over a share of the tuple stream.
pub(super) struct Partial<'p> {
    kind: Kind<'p>,
    /// Tuples absorbed so far: the within-morsel component of the next
    /// [`Tag`]. It never resets, which keeps tags ascending within a
    /// morsel (one partial absorbs a morsel whole).
    absorbed: usize,
}

enum Kind<'p> {
    Group(GroupTable<'p>),
    Order {
        run: OrderRun<'p>,
        /// Tuples a saturated top-k heap rejected or evicted.
        pruned: u64,
    },
    /// No breaker clause, but `return at` needs the tuples back in
    /// serial order before it can number them.
    Collect(Vec<(Tag, Tuple)>),
}

impl<'p> Partial<'p> {
    /// The empty partial of a breaker clause record (`None` for a
    /// streaming clause).
    pub(super) fn for_op(op: &'p OpIr) -> Option<Partial<'p>> {
        let kind = match &op.clause {
            ClauseIr::GroupBy(g) => Kind::Group(GroupTable {
                g,
                counted: (0..g.nests.len())
                    .map(|i| op.counted_nests.contains(&i))
                    .collect(),
                has_using: g.keys.iter().any(|k| k.using.is_some()),
                groups: Vec::new(),
                index: GroupIndex::new(),
                scratch: String::new(),
                key_buf: Vec::with_capacity(g.keys.len()),
                nest_buf: Vec::with_capacity(g.nests.len()),
            }),
            ClauseIr::OrderBy(ob) => Kind::Order {
                run: OrderRun {
                    specs: &ob.specs,
                    limit: ob.limit,
                    entries: Vec::with_capacity(ob.limit.map_or(0, |k| k.min(1024))),
                },
                pruned: 0,
            },
            _ => return None,
        };
        Some(Partial { kind, absorbed: 0 })
    }

    /// The empty tagged-collect partial.
    pub(super) fn collect() -> Partial<'p> {
        Partial {
            kind: Kind::Collect(Vec::new()),
            absorbed: 0,
        }
    }

    /// Absorb everything `source` yields, as morsel `morsel`.
    pub(super) fn drain(
        &mut self,
        source: &mut dyn TupleSource,
        morsel: usize,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<()> {
        while let Some(batch) = source.next_batch(interp, env)? {
            self.absorb(batch, morsel, interp, env)?;
        }
        Ok(())
    }

    /// Absorb one batch of morsel `morsel`. A partial must see its
    /// morsels whole; the order it sees them in does not matter.
    pub(super) fn absorb(
        &mut self,
        batch: Vec<Tuple>,
        morsel: usize,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<()> {
        for t in batch {
            let tag = (morsel, self.absorbed);
            self.absorbed += 1;
            match &mut self.kind {
                Kind::Group(table) => {
                    t.apply(env);
                    table.insert(t, tag, interp, env)?;
                }
                Kind::Order { run, pruned } => {
                    t.apply(env);
                    let keys = interp.order_keys(run.specs, env)?;
                    // An offer against a full heap prunes exactly one
                    // tuple: the newcomer (rejected) or an eviction.
                    *pruned += u64::from(run.saturated());
                    run.offer(keys, tag, t)?;
                }
                Kind::Collect(entries) => entries.push((tag, t)),
            }
        }
        Ok(())
    }

    /// Fold `other` (same breaker, a disjoint set of morsels) into
    /// this partial.
    pub(super) fn merge(&mut self, other: Partial<'p>) {
        self.absorbed += other.absorbed;
        match (&mut self.kind, other.kind) {
            (Kind::Group(table), Kind::Group(other)) => table.merge(other),
            (Kind::Order { run, pruned }, Kind::Order { run: o, pruned: p }) => {
                // No longer a heap, and need not be: a merged partial
                // only ever finishes, and `finish` sorts.
                run.entries.extend(o.entries);
                *pruned += p;
            }
            (Kind::Collect(entries), Kind::Collect(other)) => entries.extend(other),
            _ => unreachable!("partials of one breaker share a kind"),
        }
    }

    /// The breaker's output tuples, in serial order, and its counters
    /// into `interp.stats`.
    pub(super) fn finish(self, interp: &Interpreter) -> EngineResult<Vec<Tuple>> {
        match self.kind {
            Kind::Group(table) => {
                interp.stats.tuples_grouped.add(self.absorbed as u64);
                interp.stats.groups_emitted.add(table.groups.len() as u64);
                table.emit()
            }
            Kind::Order { run, mut pruned } => {
                // Serial arrival order first; the stable key sort on
                // top then breaks ties exactly as a serial sort does.
                let mut entries = run.entries;
                entries.sort_unstable_by_key(|(_, (tag, _))| *tag);
                sort_keyed(&mut entries, run.specs)?;
                if let Some(k) = run.limit {
                    // Each partial already counted its own prunes; the
                    // survivors of other partials cut here complete
                    // the serial total of n − k.
                    pruned += entries.len().saturating_sub(k) as u64;
                    entries.truncate(k);
                }
                interp.stats.tuples_pruned_topk.add(pruned);
                Ok(entries.into_iter().map(|(_, (_, t))| t).collect())
            }
            Kind::Collect(mut entries) => {
                entries.sort_unstable_by_key(|(tag, _)| *tag);
                Ok(entries.into_iter().map(|(_, t)| t).collect())
            }
        }
    }
}

/// The hash aggregation behind `group by ... nest ...`
/// ([`GroupIndex`], scratch-buffer key building).
struct GroupTable<'p> {
    g: &'p GroupByIr,
    /// Per nest: whether the planner made it a running count
    /// ([`OpIr::counted_nests`]).
    counted: Vec<bool>,
    /// Some key compares under a user-supplied `using` function.
    has_using: bool,
    groups: Vec<GroupState>,
    index: GroupIndex,
    scratch: String,
    /// The current tuple's key values and nest values, reused across
    /// tuples: a tuple that joins an existing group allocates neither.
    key_buf: Vec<Sequence>,
    nest_buf: Vec<Member>,
}

struct GroupState {
    /// One key sequence per grouping variable.
    keys: Vec<Sequence>,
    /// The first member tuple (source of outer-variable values for the
    /// output tuple; pre-group slots in it are hidden by the compiler's
    /// §3.2 scope rule).
    base: Tuple,
    /// Tag of that first member. Merging keeps the `keys` and `base` of
    /// the smallest tag, and groups are emitted in `first` order.
    first: Tag,
    /// Per nest binding, what the group's members contributed.
    nests: Vec<Nest>,
}

/// One member's value of one nest: its order keys, tag and value.
type Member = (OrderKeys, (Tag, Sequence));

/// One group's state of one nest binding.
enum Nest {
    /// Every member's entry, to be ordered and concatenated at emit.
    Members(Vec<Member>),
    /// The total item count of the members' values (nest values
    /// concatenate, §3.1, so this is the count of the nest sequence).
    Count(u64),
}

impl Nest {
    /// The state of a nest holding just `member`.
    fn first(counted: bool, member: Member) -> Nest {
        let mut nest = if counted {
            Nest::Count(0)
        } else {
            Nest::Members(Vec::new())
        };
        nest.add(member);
        nest
    }

    fn add(&mut self, member: Member) {
        match self {
            Nest::Members(entries) => entries.push(member),
            Nest::Count(n) => *n += member.1 .1.len() as u64,
        }
    }

    fn merge(&mut self, other: Nest) {
        match (self, other) {
            (Nest::Members(entries), Nest::Members(more)) => entries.extend(more),
            (Nest::Count(n), Nest::Count(more)) => *n += more,
            _ => unreachable!("one nest binding keeps one kind of state"),
        }
    }
}

impl GroupTable<'_> {
    /// Add the tuple currently applied to `env` to its group.
    fn insert(
        &mut self,
        t: Tuple,
        tag: Tag,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<()> {
        let GroupTable {
            g,
            counted,
            has_using,
            groups,
            index,
            scratch,
            key_buf,
            nest_buf,
        } = self;
        key_buf.clear();
        nest_buf.clear();
        for key in &g.keys {
            key_buf.push(interp.eval(&key.expr, env)?);
        }
        for nest in &g.nests {
            let value = interp.eval(&nest.expr, env)?;
            let okeys = match &nest.order_by {
                Some(ob) => interp.order_keys(&ob.specs, env)?,
                None => Vec::new(),
            };
            nest_buf.push((okeys, (tag, value)));
        }

        let group_idx = if *has_using {
            // Custom equality (§3.3): linear scan with the
            // user-supplied comparator for `using` keys and
            // deep-equal for the rest.
            let mut found = None;
            'groups: for (gi, group) in groups.iter().enumerate() {
                for (key, (stored, candidate)) in
                    g.keys.iter().zip(group.keys.iter().zip(key_buf.iter()))
                {
                    let equal = match key.using {
                        Some(fid) => {
                            let result = interp
                                .call_user_values(fid, vec![stored.clone(), candidate.clone()])?;
                            effective_boolean_value(&result).map_err(EngineError::from)?
                        }
                        None => deep_equal(stored, candidate),
                    };
                    if !equal {
                        continue 'groups;
                    }
                }
                found = Some(gi);
                break;
            }
            found
        } else {
            index
                .find_or_insert_buf(scratch, key_buf, groups.len(), |i| {
                    groups[i].keys.as_slice()
                })
                .ok()
        };

        match group_idx {
            Some(gi) => {
                for (nest, member) in groups[gi].nests.iter_mut().zip(nest_buf.drain(..)) {
                    nest.add(member);
                }
            }
            None => groups.push(GroupState {
                keys: std::mem::take(key_buf),
                base: t,
                first: tag,
                nests: counted
                    .iter()
                    .zip(nest_buf.drain(..))
                    .map(|(&counted, member)| Nest::first(counted, member))
                    .collect(),
            }),
        }
        Ok(())
    }

    /// Fold another table's groups in by canonical key. A `using` key
    /// defeats this (user equality has no canonical form), which is why
    /// [`parallel_eligible`] keeps such chains on one partial.
    fn merge(&mut self, other: GroupTable<'_>) {
        let GroupTable {
            groups,
            index,
            scratch,
            ..
        } = self;
        for og in other.groups {
            let hit = index.find_or_insert_buf(scratch, &og.keys, groups.len(), |i| {
                groups[i].keys.as_slice()
            });
            match hit {
                Ok(gi) => {
                    let dst = &mut groups[gi];
                    for (nest, more) in dst.nests.iter_mut().zip(og.nests) {
                        nest.merge(more);
                    }
                    if og.first < dst.first {
                        // Serial semantics: the group's base tuple and
                        // key values come from its globally first
                        // member. The keys are deep-equal (same
                        // canonical string), so the index stays valid.
                        dst.first = og.first;
                        dst.keys = og.keys;
                        dst.base = og.base;
                    }
                }
                Err(_) => groups.push(og),
            }
        }
    }

    /// One output tuple per group, in first-appearance order (stable,
    /// matching the materializing path): bind the key slots, and each
    /// nest slot to the sorted, concatenated nest sequence or, for a
    /// counted nest, its item count, onto each group's base tuple.
    fn emit(mut self) -> EngineResult<Vec<Tuple>> {
        self.groups.sort_unstable_by_key(|group| group.first);
        let mut out = Vec::with_capacity(self.groups.len());
        for group in self.groups {
            let mut t = group.base;
            for (key, vals) in self.g.keys.iter().zip(group.keys) {
                t.bind(key.slot, vals);
            }
            for (nest, state) in self.g.nests.iter().zip(group.nests) {
                let mut entries = match state {
                    Nest::Count(n) => {
                        t.bind(nest.slot, Sequence::one(n as i64));
                        continue;
                    }
                    Nest::Members(entries) => entries,
                };
                // Serial arrival order first; any nest `order by` then
                // stable-sorts on top.
                entries.sort_unstable_by_key(|(_, (tag, _))| *tag);
                if let Some(ob) = &nest.order_by {
                    sort_keyed(&mut entries, &ob.specs)?;
                }
                let mut seq = SequenceBuilder::new();
                for (_, (_, vals)) in entries {
                    // Nest values concatenate into one flat sequence —
                    // "merged and lose their individual identity" (§3.1).
                    // A single-member nest adopts its value's storage whole.
                    seq.append(vals);
                }
                t.bind(nest.slot, seq.build());
            }
            out.push(t);
        }
        Ok(out)
    }
}

/// The tuples an `order by` keeps: all of them, or — when the top-k
/// rewrite set a `limit` — a bounded max-heap of the k least
/// `(keys, tag)` entries, with a *fallible* comparator (order keys of
/// mixed type raise `XPTY0004`, which `std::collections::BinaryHeap`
/// cannot propagate — hence the hand-rolled sift loops). The [`Tag`]
/// breaks ties by serial input order, so the survivors are exactly the
/// first k of a full stable sort.
struct OrderRun<'p> {
    specs: &'p [OrderSpecIr],
    limit: Option<usize>,
    /// With a limit, a max-heap: `entries[0]` is the greatest survivor.
    entries: Vec<OrderEntry>,
}

type OrderEntry = (OrderKeys, (Tag, Tuple));

impl OrderRun<'_> {
    /// Whether the heap is full (every further offer prunes a tuple).
    fn saturated(&self) -> bool {
        self.limit.is_some_and(|k| self.entries.len() >= k)
    }

    /// Is entry `a` strictly greater than `b` under (keys, tag)?
    fn greater(&self, a: &OrderEntry, b: &OrderEntry) -> EngineResult<bool> {
        Ok(match compare_order_keys(&a.0, &b.0, self.specs)? {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => a.1 .0 > b.1 .0,
        })
    }

    /// Offer a tuple: kept, unless the heap is full of lesser entries.
    fn offer(&mut self, keys: OrderKeys, tag: Tag, tuple: Tuple) -> EngineResult<()> {
        let entry = (keys, (tag, tuple));
        if !self.saturated() {
            self.entries.push(entry);
            if self.limit.is_some() {
                self.sift_up(self.entries.len() - 1)?;
            }
        } else if let Some(greatest) = self.entries.first() {
            if !self.greater(&entry, greatest)? {
                self.entries[0] = entry;
                self.sift_down(0)?;
            }
        }
        Ok(())
    }

    fn sift_up(&mut self, mut i: usize) -> EngineResult<()> {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.greater(&self.entries[i], &self.entries[parent])? {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn sift_down(&mut self, mut i: usize) -> EngineResult<()> {
        let n = self.entries.len();
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && self.greater(&self.entries[child], &self.entries[largest])? {
                    largest = child;
                }
            }
            if largest == i {
                return Ok(());
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicContext, Engine};
    use xqa_workload::DetRng;

    /// `$x` draws from a small domain, as integer or double, so equal
    /// keys abound (ties, shared groups) yet stay tellable apart (which
    /// member represents a group); `$i` is the stream ordinal.
    fn stream(rng: &mut DetRng, x: Slot, i: Slot) -> Vec<Tuple> {
        (1..=rng.gen_range(0..300i64))
            .map(|ordinal| {
                let v = rng.gen_range(0..9i64);
                let mut t = Tuple::default();
                t.bind(
                    x,
                    if rng.gen_bool(0.5) {
                        Sequence::one(v)
                    } else {
                        Sequence::one(v as f64)
                    },
                );
                t.bind(i, Sequence::one(ordinal));
                t
            })
            .collect()
    }

    /// Absorb `morsels[m]` as morsel `m`, in batches of random size,
    /// each morsel whole into a random one of `k` partials; merge the
    /// partials in random order; finish. Returns the output tuples and
    /// the counters the finish reported.
    fn run_split<'p>(
        query: &CompiledQuery,
        new_partial: &dyn Fn() -> Partial<'p>,
        morsels: &[Vec<Tuple>],
        k: usize,
        rng: &mut DetRng,
    ) -> (String, [u64; 3]) {
        let ctx = DynamicContext::new();
        let interp = Interpreter::new(query, &ctx).expect("no globals");
        let mut env = Env::new(query.frame_size, None);
        let mut partials: Vec<Partial> = (0..k).map(|_| new_partial()).collect();
        for (m, morsel) in morsels.iter().enumerate() {
            let partial = &mut partials[rng.gen_range(0..k)];
            let mut rest = morsel.as_slice();
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                partial
                    .absorb(batch.to_vec(), m, &interp, &mut env)
                    .expect("absorb");
                rest = tail;
            }
        }
        let mut merged = partials.swap_remove(rng.gen_range(0..k));
        while !partials.is_empty() {
            merged.merge(partials.swap_remove(rng.gen_range(0..partials.len())));
        }
        let out = merged.finish(&interp).expect("finish");
        let s = ctx.stats.snapshot();
        (
            format!("{out:#?}"),
            [s.tuples_grouped, s.groups_emitted, s.tuples_pruned_topk],
        )
    }

    /// One partial absorbing the whole stream and k partials over a
    /// random contiguous morsel split must finish identically: tuple
    /// order, group representatives, nest order, tie order, counters.
    fn assert_merge_identity(query: &str, limit: Option<usize>) {
        let plan = Engine::new().compile(query).expect("compiles");
        let Ir::Flwor(f) = &plan.compiled().body else {
            panic!("FLWOR body expected");
        };
        let ClauseIr::For {
            slot,
            at_slot: Some(at),
            ..
        } = &f.ops[0].clause
        else {
            panic!("`for $x at $i` expected");
        };
        let mut breaker = f.ops.get(1).cloned();
        if let Some(ClauseIr::OrderBy(ob)) = breaker.as_mut().map(|op| &mut op.clause) {
            ob.limit = limit;
        }
        let new_partial = || match &breaker {
            Some(op) => Partial::for_op(op).expect("a breaker clause"),
            None => Partial::collect(),
        };
        let mut rng = DetRng::seed_from_u64(0x5eed);
        for _ in 0..40 {
            let tuples = stream(&mut rng, *slot, *at);
            let one = std::slice::from_ref(&tuples);
            let whole = run_split(plan.compiled(), &new_partial, one, 1, &mut rng);
            let mut morsels: Vec<Vec<Tuple>> = Vec::new();
            let mut rest = tuples.as_slice();
            while !rest.is_empty() {
                let (morsel, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(64)));
                morsels.push(morsel.to_vec());
                rest = tail;
            }
            let k = rng.gen_range(1..=5usize);
            let split = run_split(plan.compiled(), &new_partial, &morsels, k, &mut rng);
            assert_eq!(whole, split, "{k} partials over {} morsels", morsels.len());
        }
    }

    #[test]
    fn group_partials_merge_to_the_single_partial_result() {
        assert_merge_identity(
            "for $x at $i in () group by $x into $k \
             nest $i into $is, $i order by $x mod 2 into $js return $k",
            None,
        );
    }

    #[test]
    fn full_sort_partials_merge_to_the_single_partial_result() {
        assert_merge_identity("for $x at $i in () order by $x mod 4 return $i", None);
    }

    #[test]
    fn top_k_partials_merge_to_the_single_partial_result() {
        for k in [0, 1, 7, 1000] {
            assert_merge_identity("for $x at $i in () order by $x mod 4 return $i", Some(k));
        }
    }

    #[test]
    fn tagged_collect_partials_merge_to_the_single_partial_result() {
        assert_merge_identity("for $x at $i in () return at $r ($r, $i)", None);
    }
}
