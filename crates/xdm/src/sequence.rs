//! The copy-on-write sequence representation.
//!
//! An XDM value is a flat, ordered sequence of items. Empty and
//! singleton sequences dominate XPath step results, and the paper's
//! grouping/nesting semantics make per-group sequences the engine's
//! central value — so the representation is tuned for exactly those
//! shapes:
//!
//! - [`Sequence::Empty`] and [`Sequence::One`] carry no heap backing at
//!   all (beyond what the item itself owns);
//! - [`Sequence::Many`] is an `Arc<[Item]>`: `clone()` is one atomic
//!   increment, and the items are structurally shared between every
//!   clone (a `let` binding, a tuple snapshot, a nest append all reuse
//!   the same backing allocation).
//!
//! `Deref<Target = [Item]>` keeps every read-only consumer (length,
//! iteration, indexing, `&[Item]` arguments) oblivious to the variants.
//! Construction goes through [`SequenceBuilder`] on hot paths or
//! `From<Vec<Item>>` elsewhere; both normalize 0/1-item results to the
//! unboxed variants.
//!
//! Two thread-local counters make the copy behaviour observable (they
//! feed `EvalStats`, `explain analyze` and the service's `/metrics`):
//!
//! - *items copied* — items cloned into newly allocated backing storage
//!   (building a `Many` from a slice, spilling a shared builder, taking
//!   an owned `Vec` out of a shared `Many`);
//! - *clone-shared items* — items whose copy was *avoided* because a
//!   `Many` clone shared its backing allocation instead (counted as the
//!   length of the shared sequence: under the old `Vec<Item>`
//!   representation each of those clones would have copied that many
//!   items).

use crate::item::Item;
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    static SEQ_ITEMS_COPIED: Cell<u64> = const { Cell::new(0) };
    static SEQ_CLONES_SHARED: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_copied(n: usize) {
    SEQ_ITEMS_COPIED.with(|c| c.set(c.get() + n as u64));
}

#[inline]
fn count_shared(n: usize) {
    SEQ_CLONES_SHARED.with(|c| c.set(c.get() + n as u64));
}

/// Drain this thread's sequence-copy counters, returning
/// `(items_copied, clones_shared)` accumulated since the last call.
///
/// The engine resets the counters at the start of every evaluation (by
/// draining and discarding) and folds the totals into its `EvalStats`
/// at the end; parallel workers drain into their private sinks before
/// the cross-worker merge, so concurrent queries never interleave.
pub fn take_seq_counters() -> (u64, u64) {
    let copied = SEQ_ITEMS_COPIED.with(|c| c.replace(0));
    let shared = SEQ_CLONES_SHARED.with(|c| c.replace(0));
    (copied, shared)
}

/// An XDM value: a flat, ordered sequence of items, with O(1) clone.
#[derive(Default)]
pub enum Sequence {
    /// The empty sequence `()`.
    #[default]
    Empty,
    /// A singleton — the overwhelmingly common XPath result shape.
    One(Item),
    /// Two or more items behind a shared, immutable allocation.
    Many(Arc<[Item]>),
}

impl Sequence {
    /// The empty sequence.
    #[inline]
    pub const fn empty() -> Sequence {
        Sequence::Empty
    }

    /// A singleton sequence.
    #[inline]
    pub fn one(item: impl Into<Item>) -> Sequence {
        Sequence::One(item.into())
    }

    /// Build from a borrowed slice, copying the items (counted).
    pub fn from_slice(items: &[Item]) -> Sequence {
        match items {
            [] => Sequence::Empty,
            [item] => Sequence::One(item.clone()),
            _ => {
                count_copied(items.len());
                Sequence::Many(items.into())
            }
        }
    }

    /// The items as a slice (what `Deref` also provides).
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        match self {
            Sequence::Empty => &[],
            Sequence::One(item) => std::slice::from_ref(item),
            Sequence::Many(items) => items,
        }
    }

    /// Take the items as an owned `Vec`. `Many` always copies (the
    /// backing allocation may be shared; counted), so reserve this for
    /// genuinely mutating consumers — sorting, deduplication, splicing.
    pub fn into_vec(self) -> Vec<Item> {
        match self {
            Sequence::Empty => Vec::new(),
            Sequence::One(item) => vec![item],
            Sequence::Many(items) => {
                count_copied(items.len());
                items.to_vec()
            }
        }
    }
}

impl Clone for Sequence {
    #[inline]
    fn clone(&self) -> Sequence {
        match self {
            Sequence::Empty => Sequence::Empty,
            Sequence::One(item) => Sequence::One(item.clone()),
            Sequence::Many(items) => {
                // The whole point: one refcount bump instead of
                // `items.len()` item copies under the old Vec layout.
                count_shared(items.len());
                Sequence::Many(Arc::clone(items))
            }
        }
    }
}

impl Deref for Sequence {
    type Target = [Item];

    #[inline]
    fn deref(&self) -> &[Item] {
        self.as_slice()
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<Item> for Sequence {
    #[inline]
    fn from(item: Item) -> Sequence {
        Sequence::One(item)
    }
}

impl From<Vec<Item>> for Sequence {
    /// Moves the items (nothing is copied): length 0 and 1 normalize to
    /// the unboxed variants, anything longer becomes a `Many`.
    fn from(mut items: Vec<Item>) -> Sequence {
        match items.len() {
            0 => Sequence::Empty,
            1 => Sequence::One(items.pop().expect("len checked")),
            _ => Sequence::Many(items.into()),
        }
    }
}

impl From<&[Item]> for Sequence {
    fn from(items: &[Item]) -> Sequence {
        Sequence::from_slice(items)
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Sequence {
        let mut b = SequenceBuilder::new();
        b.extend(iter);
        b.build()
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owning iterator. `Many` yields clones of the shared items (cheap —
/// an `Item` is two machine words; its heavy payloads are themselves
/// behind `Arc`s), because items cannot be moved out of a shared
/// `Arc<[Item]>`.
pub enum SequenceIntoIter {
    /// Exhausted / empty.
    Empty,
    /// One item left.
    One(Item),
    /// Walking a shared allocation.
    Many(Arc<[Item]>, usize),
}

impl Iterator for SequenceIntoIter {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        match std::mem::replace(self, SequenceIntoIter::Empty) {
            SequenceIntoIter::Empty => None,
            SequenceIntoIter::One(item) => Some(item),
            SequenceIntoIter::Many(items, i) => {
                let out = items.get(i).cloned();
                if i + 1 < items.len() {
                    *self = SequenceIntoIter::Many(items, i + 1);
                }
                out
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            SequenceIntoIter::Empty => 0,
            SequenceIntoIter::One(_) => 1,
            SequenceIntoIter::Many(items, i) => items.len() - i,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for SequenceIntoIter {}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = SequenceIntoIter;

    fn into_iter(self) -> SequenceIntoIter {
        match self {
            Sequence::Empty => SequenceIntoIter::Empty,
            Sequence::One(item) => SequenceIntoIter::One(item),
            Sequence::Many(items) => SequenceIntoIter::Many(items, 0),
        }
    }
}

/// Incremental sequence construction with sharing-aware appends.
///
/// The builder mirrors the sequence variants: it stays unboxed through
/// the empty/singleton cases, *adopts* a whole `Many` appended into an
/// empty builder without touching its items (the group-nest and
/// morsel-merge fast path), and only spills to an owned `Vec` — copying
/// the adopted items, counted — when construction keeps going past a
/// shared state.
#[derive(Debug, Default)]
pub struct SequenceBuilder {
    state: BuilderState,
}

#[derive(Debug, Default)]
enum BuilderState {
    #[default]
    Empty,
    One(Item),
    /// An adopted shared allocation, not yet copied.
    Shared(Arc<[Item]>),
    /// Owned storage being extended.
    Vec(Vec<Item>),
}

impl SequenceBuilder {
    /// An empty builder.
    pub fn new() -> SequenceBuilder {
        SequenceBuilder::default()
    }

    /// An empty builder with owned storage pre-sized for `n` items.
    /// (Appending a lone `Many` into it still shares; the capacity is
    /// only claimed once owned storage is actually needed.)
    pub fn with_capacity(n: usize) -> SequenceBuilder {
        if n <= 1 {
            return SequenceBuilder::new();
        }
        SequenceBuilder {
            state: BuilderState::Vec(Vec::with_capacity(n)),
        }
    }

    /// Number of items appended so far.
    pub fn len(&self) -> usize {
        match &self.state {
            BuilderState::Empty => 0,
            BuilderState::One(_) => 1,
            BuilderState::Shared(items) => items.len(),
            BuilderState::Vec(items) => items.len(),
        }
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spill to owned storage (copying any adopted shared items).
    fn spill(&mut self, extra: usize) -> &mut Vec<Item> {
        let state = std::mem::take(&mut self.state);
        let vec = match state {
            BuilderState::Vec(v) => v,
            BuilderState::Empty => Vec::with_capacity(extra),
            BuilderState::One(item) => {
                let mut v = Vec::with_capacity(1 + extra);
                v.push(item);
                v
            }
            BuilderState::Shared(items) => {
                count_copied(items.len());
                let mut v = Vec::with_capacity(items.len() + extra);
                v.extend_from_slice(&items);
                v
            }
        };
        self.state = BuilderState::Vec(vec);
        match &mut self.state {
            BuilderState::Vec(v) => v,
            _ => unreachable!("just set"),
        }
    }

    /// Append one item.
    pub fn push(&mut self, item: Item) {
        match &mut self.state {
            BuilderState::Empty => self.state = BuilderState::One(item),
            BuilderState::Vec(v) => v.push(item),
            _ => self.spill(1).push(item),
        }
    }

    /// Append a whole sequence. A `Many` appended into an *empty*
    /// builder is adopted — zero items touched; if nothing further is
    /// appended, [`SequenceBuilder::build`] hands the same allocation
    /// back out.
    pub fn append(&mut self, seq: Sequence) {
        match seq {
            Sequence::Empty => {}
            Sequence::One(item) => self.push(item),
            Sequence::Many(items) => match &mut self.state {
                BuilderState::Empty => self.state = BuilderState::Shared(items),
                BuilderState::Vec(v) => v.extend_from_slice(&items),
                _ => self.spill(items.len()).extend_from_slice(&items),
            },
        }
    }

    /// Append items from a borrowed slice (copied, counted).
    pub fn extend_from_slice(&mut self, items: &[Item]) {
        match items {
            [] => {}
            [item] => self.push(item.clone()),
            _ => {
                count_copied(items.len());
                match &mut self.state {
                    BuilderState::Empty => {
                        self.state = BuilderState::Vec(items.to_vec());
                    }
                    BuilderState::Vec(v) => v.extend_from_slice(items),
                    _ => self.spill(items.len()).extend_from_slice(items),
                }
            }
        }
    }

    /// Finish, normalizing to the smallest variant.
    pub fn build(self) -> Sequence {
        match self.state {
            BuilderState::Empty => Sequence::Empty,
            BuilderState::One(item) => Sequence::One(item),
            BuilderState::Shared(items) => Sequence::Many(items),
            BuilderState::Vec(items) => Sequence::from(items),
        }
    }
}

impl Extend<Item> for SequenceBuilder {
    fn extend<I: IntoIterator<Item = Item>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// Construct a [`Sequence`] from item-convertible expressions, the way
/// `vec![...]` built the old representation:
/// `seq![]`, `seq![Item::from(1i64)]`, `seq![a, b, c]`.
#[macro_export]
macro_rules! seq {
    () => {
        $crate::Sequence::Empty
    };
    ($item:expr $(,)?) => {
        $crate::Sequence::One($crate::Item::from($item))
    };
    ($($item:expr),+ $(,)?) => {
        $crate::Sequence::from(vec![$($crate::Item::from($item)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Sequence {
        range.map(Item::from).collect()
    }

    #[test]
    fn from_vec_normalizes_small_lengths() {
        assert!(matches!(Sequence::from(Vec::new()), Sequence::Empty));
        assert!(matches!(
            Sequence::from(vec![Item::from(1i64)]),
            Sequence::One(_)
        ));
        assert!(matches!(
            Sequence::from(vec![Item::from(1i64), Item::from(2i64)]),
            Sequence::Many(_)
        ));
    }

    #[test]
    fn deref_exposes_slice_api() {
        let s = ints(0..3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].string_value(), "1");
        assert_eq!(s.first().unwrap().string_value(), "0");
        let empty = Sequence::Empty;
        assert!(empty.is_empty());
        let one = Sequence::one(Item::from("x"));
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn clone_of_many_shares_the_allocation() {
        let s = ints(0..4);
        take_seq_counters();
        let t = s.clone();
        let (copied, shared) = take_seq_counters();
        assert_eq!(copied, 0);
        assert_eq!(shared, 4);
        match (&s, &t) {
            (Sequence::Many(a), Sequence::Many(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected Many/Many, got {other:?}"),
        }
    }

    #[test]
    fn clone_of_small_variants_counts_nothing() {
        take_seq_counters();
        let _ = Sequence::Empty.clone();
        let _ = Sequence::one(Item::from(1i64)).clone();
        assert_eq!(take_seq_counters(), (0, 0));
    }

    #[test]
    fn builder_adopts_a_lone_many_without_copying() {
        let s = ints(0..5);
        let arc = match &s {
            Sequence::Many(a) => Arc::clone(a),
            other => panic!("expected Many, got {other:?}"),
        };
        take_seq_counters();
        let mut b = SequenceBuilder::new();
        b.append(s);
        let rebuilt = b.build();
        let (copied, _) = take_seq_counters();
        assert_eq!(copied, 0, "adoption must not copy");
        match rebuilt {
            Sequence::Many(a) => assert!(Arc::ptr_eq(&a, &arc)),
            other => panic!("expected Many back, got {other:?}"),
        }
    }

    #[test]
    fn builder_spill_copies_and_counts() {
        let s = ints(0..5);
        take_seq_counters();
        let mut b = SequenceBuilder::new();
        b.append(s);
        b.push(Item::from(99i64));
        let out = b.build();
        let (copied, _) = take_seq_counters();
        assert_eq!(copied, 5, "spilling the adopted Many copies its items");
        assert_eq!(out.len(), 6);
        assert_eq!(out[5].string_value(), "99");
    }

    #[test]
    fn builder_concats_in_order() {
        let mut b = SequenceBuilder::new();
        b.append(ints(0..2));
        b.append(Sequence::Empty);
        b.append(Sequence::one(Item::from(9i64)));
        b.append(ints(0..2));
        let out = b.build();
        let values: Vec<String> = out.iter().map(|i| i.string_value()).collect();
        assert_eq!(values, ["0", "1", "9", "0", "1"]);
    }

    #[test]
    fn owning_iterator_yields_all_variants() {
        assert_eq!(Sequence::Empty.into_iter().count(), 0);
        let one: Vec<String> = Sequence::one(Item::from("a"))
            .into_iter()
            .map(|i| i.string_value())
            .collect();
        assert_eq!(one, ["a"]);
        let many = ints(0..3);
        assert_eq!(many.clone().into_iter().len(), 3);
        let values: Vec<String> = many.into_iter().map(|i| i.string_value()).collect();
        assert_eq!(values, ["0", "1", "2"]);
    }

    #[test]
    fn into_vec_counts_the_forced_copy() {
        take_seq_counters();
        let v = ints(0..3).into_vec();
        let (copied, _) = take_seq_counters();
        assert_eq!(v.len(), 3);
        assert_eq!(copied, 3);
        take_seq_counters();
        assert_eq!(Sequence::one(Item::from(1i64)).into_vec().len(), 1);
        assert_eq!(take_seq_counters().0, 0, "One moves, no copy");
    }

    #[test]
    fn seq_macro_builds_each_variant() {
        assert!(matches!(seq![], Sequence::Empty));
        assert!(matches!(seq![1i64], Sequence::One(_)));
        let s = seq!["a", "b", "c"];
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].string_value(), "c");
    }
}
