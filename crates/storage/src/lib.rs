//! Indexed, dictionary-encoded document storage below the catalog.
//!
//! Every query used to tree-walk arena nodes straight out of the
//! one-shot parse; the XML query processing survey shows that structural
//! labeling schemes turn descendant navigation into range lookups, and
//! VXQuery demonstrates that a storage/statistics layer below the
//! evaluator is what lets an XQuery engine scale past toy documents.
//! This crate compiles a parsed [`Document`] into a compact
//! [`DocumentStore`]:
//!
//! - **Names and interval labels come from the document.** The arena
//!   in `xqa-xdm` interns every name per document ([`NameId`]) and labels
//!   every node with the end of its preorder interval, so each node's
//!   subtree is the contiguous id range `[id, subtree_end(id)]`. The
//!   store keeps neither a name dictionary nor a label vector of its own;
//!   its per-name structures are indexed by the document's ids.
//! - **Path index**: per element name, the sorted posting list of node
//!   ids. `descendant::T` from any origin is a binary search of `T`'s
//!   postings against the origin's label range.
//! - **Typed-value index**: elements whose content is a single text node
//!   (or empty) are *indexable leaves*; their string values are
//!   dictionary-encoded and, when every leaf of the name parses in the
//!   `xs:double` lexical space, mirrored into a numeric index. Value
//!   equality predicates become dictionary/range lookups that return the
//!   leaf *parents*.
//! - **Statistics** ([`NameStats`], merged into [`CatalogStatistics`]):
//!   per-path cardinalities the optimizer consults when choosing index
//!   scan vs. tree walk.
//! - **Versioning**: every store gets a process-monotonic version from
//!   one global counter, so a plan cache keyed by catalog version
//!   invalidates precisely when any document is (re)loaded.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xqa_xdm::{parse_double, Document, NodeId, NodeKind, QName};

/// Interned name id: the indexed document's own ([`Document::names`]).
pub use xqa_xdm::NameId;

/// Global monotonic store version: bumped once per [`DocumentStore`]
/// built, so "any document changed" is a single `u64` comparison.
static STORE_VERSION: AtomicU64 = AtomicU64::new(0);

/// Per-element-name cardinality and value-index statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Number of elements with this name.
    pub elements: u64,
    /// Every element with this name is an indexable leaf (content is a
    /// single text node or empty), so its string value is in the value
    /// index and atomization equals the indexed string.
    pub all_leaf: bool,
    /// `all_leaf` and every leaf value parses in the `xs:double`
    /// lexical space — numeric equality lookups are then exact and can
    /// never hide a dynamic cast error the tree walk would raise.
    pub all_numeric: bool,
    /// Distinct leaf string values (0 when not `all_leaf`).
    pub distinct_values: u64,
}

/// A free slot of [`ValueIndex::table`].
const EMPTY: u32 = u32::MAX;

/// The typed-value index for one element name. Each distinct leaf string
/// value gets a dense id in order of first appearance; the value itself
/// stays in the document's text buffer, so nothing is allocated per
/// value. A numeric mirror is kept when the whole column parses as
/// `xs:double`.
#[derive(Debug, Default)]
struct ValueIndex {
    /// Every element of this name qualifies as an indexable leaf.
    complete: bool,
    /// `complete` and every value parses as `xs:double`.
    all_numeric: bool,
    /// Value dictionary, open-addressed: a value's hash picks a slot, a
    /// collision moves on to the next one. Slots hold distinct ids or
    /// [`EMPTY`]; at most half are taken. (Keying a `HashMap` by the
    /// hash would hash every probe a second time.)
    table: Vec<u32>,
    /// Per distinct id: its value's hash.
    hashes: Vec<u64>,
    /// Per distinct id: its first leaf, whose text is the value.
    keys: Vec<NodeId>,
    /// Per distinct id `v`: its leaves are `leaves[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Leaf element ids grouped by distinct id, each group in document
    /// order.
    leaves: Vec<NodeId>,
    /// `(value, distinct id)` over the numeric distinct values, sorted.
    /// Values are [`numeric_key`]s: NaN, equal to nothing, is left out.
    numeric: Vec<(f64, u32)>,
}

impl ValueIndex {
    /// The distinct id whose value is `value`, hashed to `hash`, or else
    /// the free slot it would take (any slot while the table is empty).
    fn find(&self, doc: &Document, hash: u64, value: &str) -> Result<u32, usize> {
        let mask = self.table.len().wrapping_sub(1);
        let mut slot = hash as usize & mask;
        loop {
            let v = *self.table.get(slot).unwrap_or(&EMPTY);
            if v == EMPTY {
                return Err(slot);
            }
            let (key, key_hash) = (self.keys[v as usize], self.hashes[v as usize]);
            if key_hash == hash && leaf_value(doc, key) == Some(value) {
                return Ok(v);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Give the value first seen at leaf `id`, hashed to `hash`, the next
    /// distinct id, in `slot` from [`ValueIndex::find`] unless the table
    /// has to grow first.
    fn insert(&mut self, hash: u64, id: NodeId, slot: usize) -> u32 {
        let v = self.keys.len() as u32;
        self.keys.push(id);
        self.hashes.push(hash);
        if 2 * self.keys.len() <= self.table.len() {
            self.table[slot] = v;
            return v;
        }
        // Double the table and put every id back, the new one last.
        self.table = vec![EMPTY; (2 * self.table.len()).max(16)];
        let mask = self.table.len() - 1;
        for (v, &hash) in (0..).zip(&self.hashes) {
            let mut slot = hash as usize & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = v;
        }
        v
    }

    fn leaves_of(&self, v: u32) -> &[NodeId] {
        &self.leaves[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    fn bytes(&self) -> u64 {
        let ids = self.table.len() + self.keys.len() + self.offsets.len() + self.leaves.len();
        (ids * 4 + self.hashes.len() * 8 + self.numeric.len() * 16) as u64
    }
}

/// The key a number is mirrored and probed under: `-0 eq 0`, so both
/// zeros are stored and looked up as `+0` (`-0 + 0` is `+0`, and adding
/// zero leaves every other value as it is).
fn numeric_key(n: f64) -> f64 {
    n + 0.0
}

/// One name's [`ValueIndex`] while [`DocumentStore::build`] runs. The
/// default is the state of a name that gave up: incomplete and empty.
#[derive(Default)]
struct ValueBuilder {
    index: ValueIndex,
    /// Per distinct id: its number of leaves.
    counts: Vec<u32>,
    /// Per leaf, in document order: its distinct id.
    leaf_values: Vec<u32>,
}

impl ValueBuilder {
    fn new() -> ValueBuilder {
        let mut builder = ValueBuilder::default();
        (builder.index.complete, builder.index.all_numeric) = (true, true);
        builder
    }

    /// Record leaf `id` with string value `value`. The value is parsed
    /// only the first time it is seen.
    fn add(&mut self, doc: &Document, hasher: &RandomState, value: &str, id: NodeId) {
        let hash = hasher.hash_one(value);
        let v = match self.index.find(doc, hash, value) {
            Ok(v) => v,
            Err(slot) => {
                let index = &mut self.index;
                let v = index.insert(hash, id, slot);
                self.counts.push(0);
                if index.all_numeric {
                    match parse_double(value) {
                        Ok(n) if n.is_nan() => {}
                        Ok(n) => index.numeric.push((numeric_key(n), v)),
                        Err(_) => {
                            index.all_numeric = false;
                            index.numeric = Vec::new();
                        }
                    }
                }
                v
            }
        };
        self.counts[v as usize] += 1;
        self.leaf_values.push(v);
    }

    /// An element of this name is not an indexable leaf: no lookup on
    /// the name can be exact.
    fn give_up(&mut self) {
        *self = ValueBuilder::default();
    }

    /// Pack the leaves, `postings` (the name's elements, in document
    /// order), into one array grouped by distinct id, and sort the
    /// numeric mirror.
    fn finish(self, postings: &[NodeId]) -> ValueIndex {
        let (mut index, mut cursor) = (self.index, self.counts);
        if !index.complete {
            return index;
        }
        // Each count becomes its group's start, and each start moves to
        // its group's end as the group fills ...
        let mut start = 0;
        for c in &mut cursor {
            (*c, start) = (start, start + *c);
        }
        let mut leaves = vec![0; postings.len()];
        for (&leaf, &v) in postings.iter().zip(&self.leaf_values) {
            leaves[cursor[v as usize] as usize] = leaf;
            cursor[v as usize] += 1;
        }
        // ... so that group `v` ends at `cursor[v]` and starts where
        // group `v - 1` ends.
        cursor.insert(0, 0);
        index.offsets = cursor;
        index.leaves = leaves;
        index
            .numeric
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        index
    }
}

/// One document compiled into its indexed form. Immutable after build,
/// shared as `Arc<DocumentStore>` alongside the `Arc<Document>` it
/// indexes.
#[derive(Debug)]
pub struct DocumentStore {
    doc: Arc<Document>,
    version: u64,
    /// Hashes leaf values into the value dictionaries, at build and at
    /// probe time.
    hasher: RandomState,
    /// Per [`NameId`]: sorted element node ids (empty for a name only
    /// attributes or PIs carry).
    element_postings: Vec<Vec<NodeId>>,
    /// Per [`NameId`]: the value index over that name's leaves.
    values: Vec<ValueIndex>,
    total_elements: u64,
}

impl DocumentStore {
    /// Compile `doc` into its indexed form: one pass over the arena in
    /// id order, reading name ids, labels and text spans straight from
    /// the records (postings come out sorted because ids are preorder).
    /// What it allocates is per name, not per node or value.
    pub fn build(doc: &Arc<Document>) -> DocumentStore {
        let names = doc.names().len();
        let hasher = RandomState::new();
        let mut element_postings = vec![Vec::new(); names];
        let mut values: Vec<ValueBuilder> = (0..names).map(|_| ValueBuilder::new()).collect();
        let mut total_elements = 0;
        for id in 0..doc.len() as NodeId {
            // Only elements are indexed, and an element always has a name.
            let (NodeKind::Element, Some(name)) = (doc.kind_of(id), doc.name_id_of(id)) else {
                continue;
            };
            total_elements += 1;
            element_postings[name as usize].push(id);
            let values = &mut values[name as usize];
            if values.index.complete {
                match leaf_value(doc, id) {
                    Some(value) => values.add(doc, &hasher, value, id),
                    None => values.give_up(),
                }
            }
        }
        let values = values
            .into_iter()
            .zip(&element_postings)
            .map(|(values, postings)| values.finish(postings))
            .collect();
        DocumentStore {
            doc: Arc::clone(doc),
            version: STORE_VERSION.fetch_add(1, Ordering::Relaxed) + 1,
            hasher,
            element_postings,
            values,
            total_elements,
        }
    }

    /// The id of `name` when some element of the document carries it.
    fn element_name(&self, name: &QName) -> Option<NameId> {
        self.doc
            .name_id(name)
            .filter(|&id| !self.element_postings[id as usize].is_empty())
    }

    /// The indexed document.
    pub fn document(&self) -> &Arc<Document> {
        &self.doc
    }

    /// The process-monotonic version assigned when this store was built.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The last node id inside `id`'s subtree (inclusive interval label).
    pub fn subtree_end(&self, id: NodeId) -> NodeId {
        self.doc.subtree_end(id)
    }

    /// Elements in the whole document, by name.
    pub fn element_count(&self, name: &QName) -> u64 {
        self.element_name(name)
            .map(|id| self.element_postings[id as usize].len() as u64)
            .unwrap_or(0)
    }

    /// Elements named `name` strictly inside `origin`'s subtree, in
    /// document order: the posting list sliced to the origin's interval
    /// label by two binary searches.
    pub fn descendants_named(&self, origin: NodeId, name: &QName) -> &[NodeId] {
        let Some(name_id) = self.element_name(name) else {
            return &[];
        };
        let postings = &self.element_postings[name_id as usize];
        let end = self.doc.subtree_end(origin);
        let lo = postings.partition_point(|&id| id <= origin);
        let hi = postings.partition_point(|&id| id <= end);
        &postings[lo..hi]
    }

    /// Whether equality lookups on `child`'s leaf values are exact:
    /// every element with that name is an indexable leaf and, for
    /// numeric probes, every value parses as `xs:double` (so the tree
    /// walk could not have raised a cast error the index skips).
    pub fn value_eq_applicable(&self, child: &QName, numeric: bool) -> bool {
        // A name absent from the document has no leaves to miss.
        self.element_name(child).is_none_or(|id| {
            let vi = &self.values[id as usize];
            vi.complete && (!numeric || vi.all_numeric)
        })
    }

    /// Parents of `child` leaves whose string value equals `value`,
    /// sorted in document order and deduplicated. `None` when the value
    /// index cannot answer exactly (some element of that name is not an
    /// indexable leaf).
    pub fn parents_by_string_eq(&self, child: &QName, value: &str) -> Option<Vec<NodeId>> {
        let name_id = self.element_name(child)?;
        let vi = &self.values[name_id as usize];
        if !vi.complete {
            return None;
        }
        let leaves = vi
            .find(&self.doc, self.hasher.hash_one(value), value)
            .map_or(&[][..], |v| vi.leaves_of(v));
        Some(self.parents_of(leaves.iter().copied()))
    }

    /// Parents of `child` leaves whose value compares `eq` to `value`
    /// under `xs:double` semantics. `None` when the numeric index cannot
    /// answer exactly (non-leaf elements, or some value outside the
    /// double lexical space — the walk would raise where the index
    /// would silently skip).
    pub fn parents_by_numeric_eq(&self, child: &QName, value: f64) -> Option<Vec<NodeId>> {
        let name_id = self.element_name(child)?;
        let vi = &self.values[name_id as usize];
        if !vi.complete || !vi.all_numeric {
            return None;
        }
        if value.is_nan() {
            return Some(Vec::new());
        }
        // Neither side holds a NaN or a -0, so `<` orders as the sort did.
        let key = numeric_key(value);
        let lo = vi.numeric.partition_point(|&(v, _)| v < key);
        let hi = vi.numeric.partition_point(|&(v, _)| v <= key);
        let leaves = vi.numeric[lo..hi]
            .iter()
            .flat_map(|&(_, v)| vi.leaves_of(v));
        Some(self.parents_of(leaves.copied()))
    }

    /// The dictionary id of element `id`'s value among the leaves of its
    /// name, for an element without attributes whose name's value index
    /// is complete. Two such elements of one name are deep-equal exactly
    /// when their ids are equal: both have no attributes, and their one
    /// text child (or no child at all) is their value. `None` for any
    /// other node — an element with attributes, or one whose name has
    /// some non-leaf element (no dictionary is kept for that name) — so
    /// a caller grouping on ids must fall back to deep-equal there.
    pub fn leaf_value_id(&self, id: NodeId) -> Option<u32> {
        let doc = &self.doc;
        if doc.kind_of(id) != NodeKind::Element || doc.attribute_count_of(id) != 0 {
            return None;
        }
        let vi = &self.values[doc.name_id_of(id)? as usize];
        if !vi.complete {
            return None;
        }
        let value = leaf_value(doc, id)?;
        vi.find(doc, self.hasher.hash_one(value), value).ok()
    }

    fn parents_of(&self, leaves: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
        let mut parents: Vec<NodeId> = leaves.filter_map(|id| self.doc.parent_of(id)).collect();
        parents.sort_unstable();
        parents.dedup();
        parents
    }

    /// Per-name statistics for this document.
    pub fn name_stats(&self, name: &QName) -> Option<NameStats> {
        self.element_name(name).map(|id| self.stats_of(id))
    }

    fn stats_of(&self, id: NameId) -> NameStats {
        let vi = &self.values[id as usize];
        NameStats {
            elements: self.element_postings[id as usize].len() as u64,
            all_leaf: vi.complete,
            all_numeric: vi.complete && vi.all_numeric,
            // An incomplete index keeps no dictionary.
            distinct_values: vi.keys.len() as u64,
        }
    }

    /// Total element count.
    pub fn total_elements(&self) -> u64 {
        self.total_elements
    }

    /// Approximate heap footprint of the index structures (postings,
    /// value dictionaries and their packed postings, numeric mirrors) —
    /// exported on `/metrics`. Names, interval labels and the values'
    /// text are the document's.
    pub fn index_bytes(&self) -> u64 {
        let postings: usize = self.element_postings.iter().map(Vec::len).sum();
        postings as u64 * 4 + self.values.iter().map(ValueIndex::bytes).sum::<u64>()
    }

    /// Iterate the names of the document's elements.
    pub fn names(&self) -> impl Iterator<Item = &QName> {
        self.element_names().map(|(_, name)| name)
    }

    /// The document's element names with their ids.
    fn element_names(&self) -> impl Iterator<Item = (NameId, &QName)> {
        (0..)
            .zip(self.doc.names().iter().zip(&self.element_postings))
            .filter(|(_, (_, postings))| !postings.is_empty())
            .map(|(id, (name, _))| (id, name))
    }
}

/// The indexable-leaf value of an element: its text content when the
/// children are exactly one text node, `""` when it has no children at
/// all. `None` for anything with element/comment/PI content (their
/// string values concatenate across structure the index does not model).
fn leaf_value(doc: &Document, id: NodeId) -> Option<&str> {
    match doc.first_child_of(id) {
        None => Some(""),
        // A text node is a leaf, so one that ends the element's interval
        // is its only child.
        Some(child) if child == doc.subtree_end(id) => doc
            .text_of(child)
            .filter(|_| doc.kind_of(child) == NodeKind::Text),
        Some(_) => None,
    }
}

/// Statistics merged across every store in a catalog: what the
/// optimizer consults at plan time to choose index scan vs. tree walk.
#[derive(Debug, Default, Clone)]
pub struct CatalogStatistics {
    version: u64,
    total_elements: u64,
    per_name: HashMap<QName, NameStats>,
}

impl CatalogStatistics {
    /// Merge the per-document statistics of `stores`. The catalog
    /// version is the maximum store version (so any rebuild moves it).
    pub fn from_stores<'a>(stores: impl IntoIterator<Item = &'a DocumentStore>) -> Self {
        let mut merged = CatalogStatistics::default();
        for store in stores {
            merged.version = merged.version.max(store.version());
            merged.total_elements += store.total_elements();
            for (id, name) in store.element_names() {
                let stats = store.stats_of(id);
                let entry = merged.per_name.entry(name.clone()).or_insert(NameStats {
                    all_leaf: true,
                    all_numeric: true,
                    ..NameStats::default()
                });
                entry.elements += stats.elements;
                entry.all_leaf &= stats.all_leaf;
                entry.all_numeric &= stats.all_numeric;
                entry.distinct_values += stats.distinct_values;
            }
        }
        merged
    }

    /// The catalog version these statistics describe.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Elements with `name` across the catalog (0 when unseen).
    pub fn element_count(&self, name: &QName) -> u64 {
        self.per_name.get(name).map(|s| s.elements).unwrap_or(0)
    }

    /// Fraction of all elements a `descendant::name` scan selects.
    /// Unseen names select nothing.
    pub fn descendant_selectivity(&self, name: &QName) -> f64 {
        if self.total_elements == 0 {
            return 0.0;
        }
        self.element_count(name) as f64 / self.total_elements as f64
    }

    /// Whether an equality predicate on `child`'s content can be served
    /// exactly by the value index in every catalog document.
    pub fn value_eq_indexable(&self, child: &QName, numeric: bool) -> bool {
        match self.per_name.get(child) {
            Some(s) => s.all_leaf && (!numeric || s.all_numeric),
            None => true,
        }
    }

    /// Distinct leaf values of `child` summed across the catalog (the
    /// per-name ndv the estimator divides equality selectivities by).
    /// `None` when the name is unseen or some document's elements of
    /// that name are not indexable leaves — the sum would undercount.
    pub fn distinct_values(&self, child: &QName) -> Option<u64> {
        let s = self.per_name.get(child)?;
        (s.all_leaf && s.distinct_values > 0).then_some(s.distinct_values)
    }

    /// Total elements across the catalog.
    pub fn total_elements(&self) -> u64 {
        self.total_elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_xdm::DocumentBuilder;

    fn q(s: &str) -> QName {
        QName::local(s)
    }

    /// `<orders><order id="1"><item><price>10</price><tag>a</tag></item>
    ///  <item><price>20</price><tag>b</tag></item></order>
    ///  <order id="2"><item><price>10.0</price><tag>a</tag></item></order></orders>`
    fn orders_doc() -> Arc<Document> {
        let mut b = DocumentBuilder::new();
        b.start_element(q("orders"));
        b.start_element(q("order"));
        b.attribute(q("id"), "1");
        b.start_element(q("item"));
        b.start_element(q("price")).text("10").end_element();
        b.start_element(q("tag")).text("a").end_element();
        b.end_element();
        b.start_element(q("item"));
        b.start_element(q("price")).text("20").end_element();
        b.start_element(q("tag")).text("b").end_element();
        b.end_element();
        b.end_element();
        b.start_element(q("order"));
        b.attribute(q("id"), "2");
        b.start_element(q("item"));
        b.start_element(q("price")).text("10.0").end_element();
        b.start_element(q("tag")).text("a").end_element();
        b.end_element();
        b.end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn subtree_labels_cover_exactly_the_descendants() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        // Every node's descendants (plus attributes) fall inside its
        // interval label, and nothing else does.
        for id in 0..doc.len() as NodeId {
            let node = doc.handle(id).unwrap();
            let end = store.subtree_end(id);
            let mut member = vec![false; doc.len()];
            member[id as usize] = true;
            let mut stack = vec![node.clone()];
            while let Some(n) = stack.pop() {
                for c in n.children().chain(n.attributes()) {
                    member[c.id() as usize] = true;
                    stack.push(c);
                }
            }
            for other in 0..doc.len() as NodeId {
                let inside = other >= id && other <= end;
                assert_eq!(
                    member[other as usize], inside,
                    "node {other} vs interval [{id}, {end}]"
                );
            }
        }
    }

    #[test]
    fn descendants_named_matches_tree_walk() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        for name in ["orders", "order", "item", "price", "tag", "absent"] {
            for origin in 0..doc.len() as NodeId {
                let node = doc.handle(origin).unwrap();
                let walked: Vec<NodeId> = node
                    .descendants()
                    .filter(|n| n.kind() == NodeKind::Element && n.name() == Some(&q(name)))
                    .map(|n| n.id())
                    .collect();
                let indexed: Vec<NodeId> = store.descendants_named(origin, &q(name)).to_vec();
                assert_eq!(walked, indexed, "//{name} from node {origin}");
            }
        }
    }

    #[test]
    fn value_index_answers_string_and_numeric_probes() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        // String probe on tag: both "a" items.
        let parents = store.parents_by_string_eq(&q("tag"), "a").unwrap();
        assert_eq!(parents.len(), 2);
        assert!(parents
            .iter()
            .all(|&p| doc.handle(p).unwrap().name() == Some(&q("item"))));
        assert!(store
            .parents_by_string_eq(&q("tag"), "missing")
            .unwrap()
            .is_empty());
        // Numeric probe on price: "10" and "10.0" both equal 10.
        let parents = store.parents_by_numeric_eq(&q("price"), 10.0).unwrap();
        assert_eq!(parents.len(), 2);
        assert_eq!(
            store
                .parents_by_numeric_eq(&q("price"), 20.0)
                .unwrap()
                .len(),
            1
        );
        assert!(store
            .parents_by_numeric_eq(&q("price"), f64::NAN)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn non_leaf_names_refuse_value_lookups() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        // `item` has element content: not an indexable leaf.
        assert!(store.parents_by_string_eq(&q("item"), "x").is_none());
        assert!(!store.value_eq_applicable(&q("item"), false));
        // `tag` is all-leaf but not numeric.
        assert!(store.value_eq_applicable(&q("tag"), false));
        assert!(!store.value_eq_applicable(&q("tag"), true));
        assert!(store.parents_by_numeric_eq(&q("tag"), 1.0).is_none());
        // Absent names cannot hide anything.
        assert!(store.value_eq_applicable(&q("absent"), true));
    }

    #[test]
    fn mixed_leaf_and_structured_content_disables_the_name() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("r"));
        b.start_element(q("v")).text("1").end_element();
        b.start_element(q("v"));
        b.start_element(q("inner")).text("2").end_element();
        b.end_element();
        b.end_element();
        let store = DocumentStore::build(&b.finish());
        assert!(store.parents_by_string_eq(&q("v"), "1").is_none());
        let stats = store.name_stats(&q("v")).unwrap();
        assert!(!stats.all_leaf);
        assert_eq!(stats.elements, 2);
    }

    #[test]
    fn empty_elements_index_as_empty_string_and_break_numeric() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("r"));
        b.start_element(q("v")).end_element();
        b.start_element(q("v")).text("3").end_element();
        b.end_element();
        let store = DocumentStore::build(&b.finish());
        // "" does not parse as xs:double, so numeric probes must refuse.
        assert!(store.parents_by_numeric_eq(&q("v"), 3.0).is_none());
        assert_eq!(store.parents_by_string_eq(&q("v"), "").unwrap().len(), 1);
    }

    #[test]
    fn statistics_report_cardinalities() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        assert_eq!(store.element_count(&q("item")), 3);
        assert_eq!(store.element_count(&q("price")), 3);
        assert_eq!(store.element_count(&q("absent")), 0);
        assert_eq!(store.total_elements(), 12);
        let stats = store.name_stats(&q("price")).unwrap();
        assert!(stats.all_leaf && stats.all_numeric);
        assert_eq!(stats.distinct_values, 3);
    }

    #[test]
    fn versions_are_monotonic_and_catalog_stats_merge() {
        let d1 = orders_doc();
        let d2 = orders_doc();
        let s1 = DocumentStore::build(&d1);
        let s2 = DocumentStore::build(&d2);
        assert!(s2.version() > s1.version());
        let merged = CatalogStatistics::from_stores([&s1, &s2]);
        assert_eq!(merged.version(), s2.version());
        assert_eq!(merged.element_count(&q("price")), 6);
        assert_eq!(merged.total_elements(), 24);
        assert!(merged.value_eq_indexable(&q("price"), true));
        assert!(merged.value_eq_indexable(&q("tag"), false));
        assert!(!merged.value_eq_indexable(&q("tag"), true));
        assert!(!merged.value_eq_indexable(&q("item"), false));
        assert!(merged.value_eq_indexable(&q("absent"), true));
        let sel = merged.descendant_selectivity(&q("item"));
        assert!((sel - 0.25).abs() < 1e-9, "{sel}");
    }

    #[test]
    fn index_bytes_is_nonzero_and_grows_with_content() {
        let small = DocumentStore::build(&orders_doc());
        let mut b = DocumentBuilder::new();
        b.start_element(q("r"));
        for i in 0..100 {
            b.start_element(q("v")).text(&i.to_string()).end_element();
        }
        b.end_element();
        let big = DocumentStore::build(&b.finish());
        assert!(small.index_bytes() > 0);
        assert!(big.index_bytes() > small.index_bytes());
    }
}
