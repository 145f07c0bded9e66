//! Breaker partial states: the `absorb` / `merge` / `finish` contract.
//!
//! A pipeline breaker (`group by`, `order by` with or without a top-k
//! limit) keeps its state in a [`Partial`] covering a share of the
//! tuple stream:
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
use crate::eval::{opt_atomic, Env, Interpreter};
use crate::ir::*;
use crate::keys::{CodeIndex, GroupIndex};
use std::cmp::Ordering;
use std::sync::Arc;
use xqa_storage::{DocumentStore, NameId};
use xqa_xdm::{
    deep_equal, effective_boolean_value, sort_compare, AtomicValue, ErrorCode, Item, NodeKind,
    QName, Sequence, SequenceBuilder,
};

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
}

impl<'p> Partial<'p> {
    /// The empty partial of a breaker clause record.
    pub(super) fn for_op(op: &'p OpIr) -> Partial<'p> {
        let kind = match &op.clause {
            ClauseIr::GroupBy(g) => Kind::Group(GroupTable {
                g,
                counted: (0..g.nests.len())
                    .map(|i| op.counted_nests.contains(&i))
                    .collect(),
                has_using: g.keys.iter().any(|k| k.using.is_some()),
                groups: Vec::new(),
                coding: match op.value_keys.as_slice() {
                    [] => Coding::Off,
                    keys => Coding::Unbound(keys),
                },
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
            _ => unreachable!("only a group by or an order by keeps a partial"),
        };
        Partial { kind, absorbed: 0 }
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
        }
    }
}

/// The hash aggregation behind `group by ... nest ...`: by value-id
/// code while [`Coding::Bound`], else by canonical key ([`GroupIndex`],
/// scratch-buffer key building).
struct GroupTable<'p> {
    g: &'p GroupByIr,
    /// Per nest: whether the planner made it a running count
    /// ([`OpIr::counted_nests`]).
    counted: Vec<bool>,
    /// Some key compares under a user-supplied `using` function.
    has_using: bool,
    groups: Vec<GroupState>,
    /// Whether groups are found by value-id code; `index` holds no
    /// group until the table falls back.
    coding: Coding<'p>,
    index: GroupIndex,
    scratch: String,
    /// The current tuple's key values and nest values, reused across
    /// tuples: a tuple that joins an existing group allocates neither.
    key_buf: Vec<Sequence>,
    nest_buf: Vec<Member>,
}

/// Whether a [`GroupTable`] groups on value ids ([`OpIr::value_keys`]).
enum Coding<'p> {
    /// Yes, once the first tuple picks the store.
    Unbound(&'p [(Slot, QName)]),
    /// Yes, until the first tuple the store cannot code.
    Bound(Box<ValueIds<'p>>),
    /// No: by canonical key for the rest of the run.
    Off,
}

/// Grouping on dictionary ids. Every key is `$v/N`; a tuple's code is,
/// per key, the number of `$v`'s `N` children and then their value ids
/// ([`DocumentStore::leaf_value_id`]). Within one store, equal codes are
/// exactly deep-equal key sequences, so no key sequence is built or
/// compared for a tuple that joins a group.
struct ValueIds<'p> {
    /// Per key: `$v`'s slot and `N`.
    keys: &'p [(Slot, QName)],
    /// The store the first tuple's `$v` lies in. Every coded tuple's
    /// `$v` lies in it: ids of two stores do not compare.
    store: Arc<DocumentStore>,
    /// Per key, the id of `N` in the store's document (`None`: no node
    /// there has that name).
    names: Vec<Option<NameId>>,
    index: CodeIndex,
    /// The current tuple's code.
    code: Vec<u32>,
}

impl<'p> ValueIds<'p> {
    /// Bind `keys` to the store of the first key's `$v` in the tuple
    /// applied to `env`; `None` when that is not one node of an indexed
    /// document.
    fn bind(keys: &'p [(Slot, QName)], interp: &Interpreter, env: &Env) -> Option<Self> {
        let (slot, _) = keys.first()?;
        let [Item::Node(v)] = env.slots[*slot].as_slice() else {
            return None;
        };
        let store = Arc::clone(interp.dynamic.store(v.document().serial())?);
        let names = keys
            .iter()
            .map(|(_, n)| store.document().name_id(n))
            .collect();
        Some(ValueIds {
            keys,
            store,
            names,
            index: CodeIndex::default(),
            code: Vec::new(),
        })
    }

    /// Code the tuple applied to `env`. Returns how many children the
    /// key steps looked at, or `None` when some `$v` is not one element
    /// node of the bound store's document or some matching child has no
    /// value id (attributes, non-leaf content).
    fn encode(&mut self, env: &Env) -> Option<u64> {
        self.code.clear();
        let (store, mut visited) = (&*self.store, 0);
        let doc = store.document();
        for ((slot, _), &name) in self.keys.iter().zip(&self.names) {
            let [Item::Node(v)] = env.slots[*slot].as_slice() else {
                return None;
            };
            if !Arc::ptr_eq(v.document(), doc) || v.kind() != NodeKind::Element {
                return None;
            }
            let count_at = self.code.len();
            self.code.push(0);
            let mut children = doc.child_element_ids(v.id(), name);
            for child in &mut children {
                self.code.push(store.leaf_value_id(child)?);
                self.code[count_at] += 1;
            }
            visited += children.examined();
        }
        Some(visited)
    }
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

impl<'p> GroupTable<'p> {
    /// Add the tuple currently applied to `env` to its group.
    fn insert(
        &mut self,
        t: Tuple,
        tag: Tag,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<()> {
        if let Coding::Unbound(keys) = self.coding {
            self.coding = ValueIds::bind(keys, interp, env)
                .map_or(Coding::Off, |ids| Coding::Bound(Box::new(ids)));
        }
        // For a coded tuple, the group it joins (`None`: it opens one).
        let coded = match &mut self.coding {
            Coding::Bound(ids) => ids.encode(env).map(|visited| {
                let hit = ids.index.find_or_insert(&ids.code, self.groups.len()).ok();
                if hit.is_some() {
                    // The coded key steps looked at what the paths
                    // would have; a tuple opening a group evaluates them.
                    interp.stats.nodes_visited.add(visited);
                }
                hit
            }),
            _ => None,
        };
        if coded.is_none() {
            self.fall_back();
        }
        let GroupTable {
            g,
            counted,
            has_using,
            groups,
            index,
            scratch,
            key_buf,
            nest_buf,
            ..
        } = self;
        key_buf.clear();
        nest_buf.clear();
        if !matches!(coded, Some(Some(_))) {
            for key in &g.keys {
                key_buf.push(interp.eval(&key.expr, env)?);
            }
        }
        for nest in &g.nests {
            let value = interp.eval(&nest.expr, env)?;
            let okeys = match &nest.order_by {
                Some(ob) => interp.order_keys(&ob.specs, env)?,
                None => Vec::new(),
            };
            nest_buf.push((okeys, (tag, value)));
        }

        let group_idx = match coded {
            Some(found) => found,
            None if *has_using => {
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
                                let result = interp.call_user_values(
                                    fid,
                                    vec![stored.clone(), candidate.clone()],
                                )?;
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
            }
            None => index
                .find_or_insert_buf(scratch, key_buf, groups.len(), |i| {
                    groups[i].keys.as_slice()
                })
                .ok(),
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

    /// Stop grouping on value ids for the rest of the run: index every
    /// group so far by its canonical key. Groups keep their order and
    /// their `first` tags; codes that differ are never deep-equal, so
    /// each group gets an entry of its own.
    fn fall_back(&mut self) {
        if matches!(self.coding, Coding::Off) {
            return;
        }
        self.coding = Coding::Off;
        let GroupTable {
            groups,
            index,
            scratch,
            ..
        } = self;
        for (i, group) in groups.iter().enumerate() {
            let _ =
                index.find_or_insert_buf(scratch, &group.keys, i, |j| groups[j].keys.as_slice());
        }
    }

    /// Fold another table's groups in by canonical key (a table that
    /// groups on value ids falls back first). A `using` key defeats
    /// this (user equality has no canonical form), which is why
    /// [`parallel_eligible`] keeps such chains on one partial.
    fn merge(&mut self, other: GroupTable<'p>) {
        if other.groups.is_empty() {
            return;
        }
        if self.groups.is_empty() {
            *self = other;
            return;
        }
        self.fall_back();
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

/// Order-by key values for one tuple (one entry per spec).
type OrderKeys = Vec<Option<AtomicValue>>;

impl Interpreter<'_> {
    /// Evaluate the order-by key values for the current tuple.
    fn order_keys(&self, specs: &[OrderSpecIr], env: &mut Env) -> EngineResult<OrderKeys> {
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
fn sort_keyed<T>(items: &mut [(OrderKeys, T)], specs: &[OrderSpecIr]) -> EngineResult<()> {
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
fn compare_order_keys(
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
        let mut breaker = f.ops[1].clone();
        if let ClauseIr::OrderBy(ob) = &mut breaker.clause {
            ob.limit = limit;
        }
        let new_partial = || Partial::for_op(&breaker);
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

    /// The six `Qgb` templates coded and, as the same plan with its
    /// value-id annotation cleared, uncoded: equal results and equal
    /// `nodes_visited`, `tuples_grouped` and `groups_emitted`, at
    /// threads 1 and 4 (about 1 300 lineitems: two morsels).
    #[test]
    fn coded_and_uncoded_groupings_count_the_same_work() {
        let mut ctx = DynamicContext::new();
        ctx.set_context_document(&xqa_workload::generate_orders(
            &xqa_workload::OrdersConfig {
                orders: 320,
                ..Default::default()
            },
        ));
        ctx.index_documents();
        let keys: [&[&str]; 6] = [
            &["shipinstruct"],
            &["shipmode"],
            &["tax"],
            &["shipinstruct", "shipmode"],
            &["shipinstruct", "tax"],
            &["quantity"],
        ];
        for keys in keys {
            let by: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(i, key)| format!("$litem/{key} into $k{i}"))
                .collect();
            let query = format!(
                "for $litem in //order/lineitem group by {} nest $litem into $items \
                 return <r> {{$k0, count($items)}} </r>",
                by.join(", ")
            );
            for threads in [1, 4] {
                let engine = Engine::with_options(crate::EngineOptions {
                    threads,
                    hints: "access=index".parse().expect("valid hints"),
                });
                let coded = engine.compile(&query).expect("compiles").compiled().clone();
                let mut uncoded = coded.clone();
                let Ir::Flwor(f) = &mut uncoded.body else {
                    panic!("FLWOR body expected");
                };
                let group = f.ops.iter_mut().find(|op| !op.value_keys.is_empty());
                group.expect("a coded group by").value_keys.clear();
                let run = |plan: &CompiledQuery| {
                    let before = ctx.stats.snapshot();
                    let out = crate::eval::execute(plan, &ctx).expect("runs");
                    let s = ctx.stats.snapshot().delta(&before);
                    (
                        xqa_xmlparse::serialize_sequence(&out),
                        [s.nodes_visited, s.tuples_grouped, s.groups_emitted],
                    )
                };
                assert_eq!(run(&coded), run(&uncoded), "{query} at threads={threads}");
            }
        }
    }
}
