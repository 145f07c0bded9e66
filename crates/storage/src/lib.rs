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

/// The leaves of one name that share one string value.
#[derive(Debug)]
struct Leaves {
    /// The value as `xs:double`; meaningful while the name's index is
    /// `all_numeric`.
    number: f64,
    /// Leaf element ids, in document order.
    ids: Vec<NodeId>,
}

/// The typed-value index for one element name: leaf string values
/// dictionary-encoded into postings, plus a numeric mirror when the
/// whole column parses as `xs:double`.
#[derive(Debug)]
struct ValueIndex {
    /// Every element of this name qualifies as an indexable leaf.
    complete: bool,
    /// `complete` and every value parses as `xs:double`.
    all_numeric: bool,
    /// Value dictionary: string → its leaves.
    by_string: HashMap<Arc<str>, Leaves>,
    /// `(value, leaf element id)` sorted by value then id.
    numeric: Vec<(f64, NodeId)>,
}

impl ValueIndex {
    fn new() -> ValueIndex {
        ValueIndex {
            complete: true,
            all_numeric: true,
            by_string: HashMap::new(),
            numeric: Vec::new(),
        }
    }

    /// Record leaf `id` with string value `value`. A dictionary key is
    /// allocated, and the value parsed, only the first time it is seen.
    fn add(&mut self, value: &str, id: NodeId) {
        if let Some(leaves) = self.by_string.get_mut(value) {
            leaves.ids.push(id);
            return;
        }
        let mut number = f64::NAN;
        if self.all_numeric {
            match parse_double(value) {
                Ok(v) => number = v,
                Err(_) => self.all_numeric = false,
            }
        }
        let ids = vec![id];
        self.by_string
            .insert(Arc::from(value), Leaves { number, ids });
    }

    /// An element of this name is not an indexable leaf: no lookup on
    /// the name can be exact.
    fn give_up(&mut self) {
        self.complete = false;
        self.all_numeric = false;
        self.by_string = HashMap::new();
    }

    /// Build the numeric mirror over the name's `leaves` leaves.
    fn finish(&mut self, leaves: usize) {
        if !self.all_numeric {
            return;
        }
        // Sized up front: the dictionary iterates in hash order, and
        // growing by its chunks would make the allocation count vary
        // from run to run.
        self.numeric.reserve_exact(leaves);
        for leaves in self.by_string.values() {
            self.numeric
                .extend(leaves.ids.iter().map(|&id| (leaves.number, id)));
        }
        self.numeric
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    fn bytes(&self) -> u64 {
        let mut total = 0u64;
        for (value, leaves) in &self.by_string {
            total += value.len() as u64 + (leaves.ids.len() * std::mem::size_of::<NodeId>()) as u64;
        }
        total + (self.numeric.len() * std::mem::size_of::<(f64, NodeId)>()) as u64
    }
}

/// One document compiled into its indexed form. Immutable after build,
/// shared as `Arc<DocumentStore>` alongside the `Arc<Document>` it
/// indexes.
#[derive(Debug)]
pub struct DocumentStore {
    doc: Arc<Document>,
    version: u64,
    /// Per [`NameId`]: sorted element node ids (empty for a name only
    /// attributes or PIs carry).
    element_postings: Vec<Vec<NodeId>>,
    /// Per [`NameId`]: the value index over that name's leaves.
    values: Vec<ValueIndex>,
    /// Distinct `(parent name, child name)` step counts — the per-path
    /// cardinality statistics behind [`CatalogStatistics`].
    step_counts: HashMap<(NameId, NameId), u64>,
    total_elements: u64,
}

impl DocumentStore {
    /// Compile `doc` into its indexed form: one pass over the arena in
    /// id order, reading name ids, labels and text spans straight from
    /// the records (postings come out sorted because ids are preorder).
    pub fn build(doc: &Arc<Document>) -> DocumentStore {
        let names = doc.names().len();
        let mut store = DocumentStore {
            doc: Arc::clone(doc),
            version: STORE_VERSION.fetch_add(1, Ordering::Relaxed) + 1,
            element_postings: vec![Vec::new(); names],
            values: (0..names).map(|_| ValueIndex::new()).collect(),
            step_counts: HashMap::new(),
            total_elements: 0,
        };
        for id in 0..doc.len() as NodeId {
            if doc.kind_of(id) != NodeKind::Element {
                continue;
            }
            let name = doc.name_id_of(id).expect("elements are named");
            store.total_elements += 1;
            store.element_postings[name as usize].push(id);
            // Only the document node and elements have element children.
            if let Some(parent_name) = doc.parent_of(id).and_then(|p| doc.name_id_of(p)) {
                *store.step_counts.entry((parent_name, name)).or_insert(0) += 1;
            }
            let values = &mut store.values[name as usize];
            if values.complete {
                match leaf_value(doc, id) {
                    Some(value) => values.add(value, id),
                    None => values.give_up(),
                }
            }
        }
        for (values, postings) in store.values.iter_mut().zip(&store.element_postings) {
            values.finish(postings.len());
        }
        store
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
        match self.element_name(child) {
            Some(id) => {
                let vi = &self.values[id as usize];
                vi.complete && (!numeric || vi.all_numeric)
            }
            // A name absent from the document has no leaves to miss.
            None => true,
        }
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
        let leaves = vi.by_string.get(value).map_or(&[][..], |l| &l.ids);
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
        let lo = vi
            .numeric
            .partition_point(|&(v, _)| v.total_cmp(&value).is_lt());
        let hi = vi
            .numeric
            .partition_point(|&(v, _)| v.total_cmp(&value).is_le());
        Some(self.parents_of(vi.numeric[lo..hi].iter().map(|&(_, id)| id)))
    }

    fn parents_of(&self, leaves: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
        let mut parents: Vec<NodeId> = leaves.filter_map(|id| self.doc.parent_of(id)).collect();
        parents.sort_unstable();
        parents.dedup();
        parents
    }

    /// Per-name statistics for this document.
    pub fn name_stats(&self, name: &QName) -> Option<NameStats> {
        let id = self.element_name(name)?;
        let vi = &self.values[id as usize];
        Some(NameStats {
            elements: self.element_postings[id as usize].len() as u64,
            all_leaf: vi.complete,
            all_numeric: vi.complete && vi.all_numeric,
            distinct_values: if vi.complete {
                vi.by_string.len() as u64
            } else {
                0
            },
        })
    }

    /// Count of `parent/child` element steps (per-path cardinality).
    pub fn step_count(&self, parent: &QName, child: &QName) -> u64 {
        match (self.doc.name_id(parent), self.doc.name_id(child)) {
            (Some(p), Some(c)) => self.step_counts.get(&(p, c)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Total element count.
    pub fn total_elements(&self) -> u64 {
        self.total_elements
    }

    /// Approximate heap footprint of the index structures (postings,
    /// value dictionaries, numeric mirrors, step counts) — exported on
    /// `/metrics`. Names and interval labels are the document's.
    pub fn index_bytes(&self) -> u64 {
        let mut total = 0u64;
        for postings in &self.element_postings {
            total += (postings.len() * std::mem::size_of::<NodeId>()) as u64;
        }
        for vi in &self.values {
            total += vi.bytes();
        }
        total += (self.step_counts.len() * std::mem::size_of::<((NameId, NameId), u64)>()) as u64;
        total
    }

    /// Iterate the names of the document's elements.
    pub fn names(&self) -> impl Iterator<Item = &QName> {
        self.doc
            .names()
            .iter()
            .zip(&self.element_postings)
            .filter(|(_, postings)| !postings.is_empty())
            .map(|(name, _)| name)
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
            for name in store.names() {
                let stats = store.name_stats(name).expect("interned name has stats");
                let entry = merged
                    .per_name
                    .entry(name.clone())
                    .or_insert_with(|| NameStats {
                        elements: 0,
                        all_leaf: true,
                        all_numeric: true,
                        distinct_values: 0,
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
    fn statistics_report_cardinalities_and_steps() {
        let doc = orders_doc();
        let store = DocumentStore::build(&doc);
        assert_eq!(store.element_count(&q("item")), 3);
        assert_eq!(store.element_count(&q("price")), 3);
        assert_eq!(store.element_count(&q("absent")), 0);
        assert_eq!(store.step_count(&q("item"), &q("price")), 3);
        assert_eq!(store.step_count(&q("order"), &q("item")), 3);
        assert_eq!(store.step_count(&q("order"), &q("price")), 0);
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
