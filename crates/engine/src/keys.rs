//! Canonical hash keys for value- and deep-equality.
//!
//! Both `fn:distinct-values` and the paper's `group by` need to bucket
//! values by an equality that spans the numeric tower (`2` = `2.0` =
//! `xs:double(2)`), treats untyped data as strings, and (for grouping)
//! extends to whole sequences under `fn:deep-equal` semantics.
//!
//! We compute a *canonical key string* per value. The key is designed so
//! that equal values always produce equal keys; the converse may fail in
//! corner cases (e.g. two distinct `xs:decimal`s that collapse to the
//! same `f64`), so callers must verify bucket hits with the real
//! equality predicate. That combination gives hash-speed grouping with
//! exact semantics.

use std::collections::HashMap;
use xqa_xdm::{deep_equal, AtomicValue, Item, NodeHandle, NodeKind, Sequence};

/// Append the canonical key of one atomic value.
pub fn atomic_key(v: &AtomicValue, out: &mut String) {
    use std::fmt::Write;
    match v {
        AtomicValue::String(s) | AtomicValue::Untyped(s) => {
            out.push_str("s:");
            out.push_str(s);
        }
        AtomicValue::Boolean(b) => {
            out.push_str(if *b { "b:1" } else { "b:0" });
        }
        AtomicValue::Integer(i) => {
            let _ = write!(out, "n:{i}");
        }
        AtomicValue::Decimal(d) => {
            if d.is_integer() {
                // Align with Integer keys for whole numbers.
                let _ = write!(out, "n:{d}");
            } else {
                // Align with Double keys through the f64 image; bucket
                // collisions between near-equal decimals are resolved by
                // the verifying comparison.
                let _ = write!(out, "f:{}", d.to_f64().to_bits());
            }
        }
        AtomicValue::Double(d) => {
            if d.is_nan() {
                out.push_str("f:nan");
            } else if *d == d.trunc() && d.abs() < 9.0e18 {
                let _ = write!(out, "n:{}", *d as i64);
            } else {
                let _ = write!(out, "f:{}", d.to_bits());
            }
        }
        AtomicValue::DateTime(dt) => {
            let _ = write!(out, "dt:{}:{}", dt.epoch_seconds(), dt.nanos);
        }
        AtomicValue::Date(d) => {
            let _ = write!(out, "d:{}", d.epoch_seconds());
        }
    }
}

/// Append a structural key for a node, mirroring `fn:deep-equal`:
/// kind + name + (sorted) attributes + significant children. Names are
/// written in place and text is borrowed from the document's arena, so
/// a key costs no allocation (an element with two or more attributes
/// sorts them in a scratch vector).
pub fn node_key(n: &NodeHandle, out: &mut String) {
    use std::fmt::Write;
    let name = |out: &mut String| {
        if let Some(name) = n.name() {
            let _ = write!(out, "{name}");
        }
    };
    let text = n.raw_text().unwrap_or_default();
    match n.kind() {
        NodeKind::Document => {
            out.push_str("D[");
            significant_children_keys(n, out);
            out.push(']');
        }
        NodeKind::Element => {
            out.push_str("E<");
            name(out);
            out.push('>');
            let attrs = n.attributes();
            if attrs.len() < 2 {
                attrs.for_each(|a| attribute_key(&a, out));
            } else {
                let mut sorted: Vec<NodeHandle> = attrs.collect();
                sorted.sort_by(|a, b| (a.name(), a.raw_text()).cmp(&(b.name(), b.raw_text())));
                for a in &sorted {
                    attribute_key(a, out);
                }
            }
            out.push('[');
            significant_children_keys(n, out);
            out.push(']');
        }
        NodeKind::Attribute => {
            out.push_str("A<");
            name(out);
            out.push_str(">=");
            out.push_str(text);
        }
        NodeKind::Text => {
            out.push_str("T:");
            out.push_str(text);
            out.push('\u{0}');
        }
        NodeKind::Comment => {
            out.push_str("C:");
            out.push_str(text);
            out.push('\u{0}');
        }
        NodeKind::ProcessingInstruction => {
            out.push_str("P<");
            name(out);
            out.push_str(">:");
            out.push_str(text);
            out.push('\u{0}');
        }
    }
}

/// `@name=value;`: one attribute inside its element's key.
fn attribute_key(a: &NodeHandle, out: &mut String) {
    use std::fmt::Write;
    out.push('@');
    if let Some(name) = a.name() {
        let _ = write!(out, "{name}");
    }
    out.push('=');
    out.push_str(a.raw_text().unwrap_or_default());
    out.push(';');
}

/// The keys of a document's or element's children, skipping comments
/// and PIs as deep-equal does.
fn significant_children_keys(n: &NodeHandle, out: &mut String) {
    for c in n.children() {
        if !matches!(
            c.kind(),
            NodeKind::Comment | NodeKind::ProcessingInstruction
        ) {
            node_key(&c, out);
        }
    }
}

/// Append the key of one item.
pub fn item_key(item: &Item, out: &mut String) {
    match item {
        Item::Atomic(a) => atomic_key(a, out),
        Item::Node(n) => node_key(n, out),
    }
}

/// Append the canonical key of a whole sequence to `out` (order-
/// sensitive, as the paper requires: "each permutation is considered a
/// distinct value", §3.3).
pub fn sequence_key_into(seq: &[Item], out: &mut String) {
    for item in seq {
        item_key(item, out);
        out.push('\u{1}'); // item separator, cannot appear ambiguously
    }
}

/// A set of atomic values under `eq` semantics (NaN collapses to one
/// value), used by `fn:distinct-values`.
#[derive(Debug, Default)]
pub struct AtomicDistinctSet {
    buckets: HashMap<String, Vec<AtomicValue>>,
    /// Reused key buffer: a hit (the common case on low-cardinality
    /// data) allocates nothing.
    scratch: String,
}

impl AtomicDistinctSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert, returning `true` when the value was not yet present.
    pub fn insert(&mut self, v: &AtomicValue) -> bool {
        self.scratch.clear();
        atomic_key(v, &mut self.scratch);
        if let Some(bucket) = self.buckets.get_mut(self.scratch.as_str()) {
            for existing in bucket.iter() {
                if atomic_eq_for_distinct(existing, v) {
                    return false;
                }
            }
            bucket.push(v.clone());
            return true;
        }
        self.buckets.insert(self.scratch.clone(), vec![v.clone()]);
        true
    }
}

/// Equality used by `distinct-values`: `eq`, with NaN = NaN and
/// incomparable types simply unequal.
fn atomic_eq_for_distinct(a: &AtomicValue, b: &AtomicValue) -> bool {
    if let (AtomicValue::Double(x), AtomicValue::Double(y)) = (a, b) {
        if x.is_nan() && y.is_nan() {
            return true;
        }
    }
    matches!(xqa_xdm::value_compare(a, b, xqa_xdm::CompOp::Eq), Ok(true))
}

/// A map from deep-equal sequence keys to group indices, with exact
/// verification: the backbone of the `group by` operator.
#[derive(Debug, Default)]
pub struct GroupIndex {
    buckets: HashMap<String, Vec<usize>>,
}

impl GroupIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find the group whose key sequences are pairwise deep-equal to
    /// `keys`, or insert `new_index` for them (`Err(new_index)`).
    /// `stored_keys(i)` yields the key sequences of group `i` for
    /// verification. The combined key is built into the caller-owned
    /// `scratch` and only cloned into the map on a vacant bucket, so a
    /// hit (the common case once groups stabilize) allocates nothing.
    pub fn find_or_insert_buf<'a>(
        &mut self,
        scratch: &mut String,
        keys: &[Sequence],
        new_index: usize,
        stored_keys: impl Fn(usize) -> &'a [Sequence],
    ) -> Result<usize, usize> {
        scratch.clear();
        for k in keys {
            sequence_key_into(k, scratch);
            scratch.push('\u{2}'); // key separator
        }
        if let Some(bucket) = self.buckets.get_mut(scratch.as_str()) {
            for &idx in bucket.iter() {
                let stored = stored_keys(idx);
                if stored.len() == keys.len()
                    && stored.iter().zip(keys).all(|(a, b)| deep_equal(a, b))
                {
                    return Ok(idx);
                }
            }
            bucket.push(new_index);
            return Err(new_index);
        }
        self.buckets.insert(scratch.clone(), vec![new_index]);
        Err(new_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xqa_workload::DetRng;
    use xqa_xdm::{node_deep_equal, Decimal, Document, DocumentBuilder, QName};

    fn key_of(v: AtomicValue) -> String {
        let mut s = String::new();
        atomic_key(&v, &mut s);
        s
    }

    fn sequence_key(seq: &[Item]) -> String {
        let mut s = String::new();
        sequence_key_into(seq, &mut s);
        s
    }

    fn node_key_of(n: &NodeHandle) -> String {
        let mut s = String::new();
        node_key(n, &mut s);
        s
    }

    #[test]
    fn numeric_tower_collapses() {
        assert_eq!(
            key_of(AtomicValue::Integer(2)),
            key_of(AtomicValue::Double(2.0))
        );
        assert_eq!(
            key_of(AtomicValue::Integer(2)),
            key_of(AtomicValue::Decimal(Decimal::parse("2.0").unwrap()))
        );
        assert_eq!(
            key_of(AtomicValue::Decimal(Decimal::parse("0.5").unwrap())),
            key_of(AtomicValue::Double(0.5))
        );
        assert_ne!(
            key_of(AtomicValue::Integer(2)),
            key_of(AtomicValue::Integer(3))
        );
    }

    #[test]
    fn strings_and_untyped_collapse() {
        assert_eq!(
            key_of(AtomicValue::string("x")),
            key_of(AtomicValue::untyped("x"))
        );
        // but string "2" is not the number 2
        assert_ne!(
            key_of(AtomicValue::string("2")),
            key_of(AtomicValue::Integer(2))
        );
    }

    #[test]
    fn nan_is_one_value() {
        assert_eq!(
            key_of(AtomicValue::Double(f64::NAN)),
            key_of(AtomicValue::Double(f64::NAN))
        );
        let mut set = AtomicDistinctSet::new();
        assert!(set.insert(&AtomicValue::Double(f64::NAN)));
        assert!(!set.insert(&AtomicValue::Double(f64::NAN)));
    }

    #[test]
    fn distinct_set_dedups_across_types() {
        let mut set = AtomicDistinctSet::new();
        assert!(set.insert(&AtomicValue::Integer(2)));
        assert!(!set.insert(&AtomicValue::Double(2.0)));
        assert!(set.insert(&AtomicValue::string("2")));
        assert!(!set.insert(&AtomicValue::untyped("2")));
    }

    #[test]
    fn sequence_key_is_order_sensitive() {
        let gray = Item::from("Gray");
        let reuter = Item::from("Reuter");
        assert_ne!(
            sequence_key(&[gray.clone(), reuter.clone()]),
            sequence_key(&[reuter, gray])
        );
        assert_eq!(sequence_key(&[]), sequence_key(&[]));
    }

    #[test]
    fn sequence_key_no_concat_ambiguity() {
        // ("ab") vs ("a", "b") must differ.
        let one = vec![Item::from("ab")];
        let two = vec![Item::from("a"), Item::from("b")];
        assert_ne!(sequence_key(&one), sequence_key(&two));
    }

    #[test]
    fn node_keys_follow_deep_equal() {
        let make = |author: &str| {
            let mut b = DocumentBuilder::new();
            b.start_element(QName::local("author"))
                .text(author)
                .end_element();
            b.finish().root().children().next().unwrap()
        };
        let a = node_key_of(&make("Jim Gray"));
        assert_eq!(a, node_key_of(&make("Jim Gray")));
        assert_ne!(a, node_key_of(&make("Andreas Reuter")));
    }

    #[test]
    fn node_key_ignores_comments_in_elements() {
        let with_comment = {
            let mut b = DocumentBuilder::new();
            b.start_element(QName::local("r"));
            b.comment("x");
            b.start_element(QName::local("v")).text("1").end_element();
            b.end_element();
            b.finish().root().children().next().unwrap()
        };
        let without = {
            let mut b = DocumentBuilder::new();
            b.start_element(QName::local("r"));
            b.start_element(QName::local("v")).text("1").end_element();
            b.end_element();
            b.finish().root().children().next().unwrap()
        };
        assert_eq!(node_key_of(&with_comment), node_key_of(&without));
    }

    /// Two documents that differ only by top-level comments and PIs are
    /// deep-equal, so they must share a key (and a `group by` group).
    #[test]
    fn node_key_ignores_comments_and_pis_at_document_level() {
        let doc = |noise: bool| {
            let mut b = DocumentBuilder::new();
            if noise {
                b.comment("generated");
            }
            b.start_element(QName::local("r")).text("1").end_element();
            if noise {
                b.processing_instruction(QName::local("pi"), "x");
            }
            b.finish().root()
        };
        let (plain, noisy) = (doc(false), doc(true));
        assert!(node_deep_equal(&plain, &noisy));
        assert_eq!(node_key_of(&plain), node_key_of(&noisy));
    }

    #[test]
    fn group_index_find_or_insert() {
        let mut idx = GroupIndex::new();
        let mut scratch = String::new();
        let keys_a: Vec<Sequence> = vec![
            vec![Item::from("West")].into(),
            vec![Item::from(2004i64)].into(),
        ];
        let keys_b: Vec<Sequence> = vec![
            vec![Item::from("East")].into(),
            vec![Item::from(2004i64)].into(),
        ];
        let stored: Vec<Vec<Sequence>> = vec![keys_a.clone(), keys_b.clone()];
        let lookup = |i: usize| stored[i].as_slice();
        let mut find =
            |keys: &[Sequence], new| idx.find_or_insert_buf(&mut scratch, keys, new, lookup);
        assert_eq!(find(&keys_a, 0), Err(0));
        assert_eq!(find(&keys_b, 1), Err(1));
        assert_eq!(find(&keys_a, 2), Ok(0));
        assert_eq!(find(&keys_b, 2), Ok(1));
    }

    #[test]
    fn empty_sequence_is_its_own_group_key() {
        let mut idx = GroupIndex::new();
        let mut scratch = String::new();
        let empty: Vec<Sequence> = vec![Sequence::Empty];
        let nonempty: Vec<Sequence> = vec![vec![Item::from("x")].into()];
        let stored = [empty.clone(), nonempty.clone()];
        let lookup = |i: usize| stored[i].as_slice();
        let mut find =
            |keys: &[Sequence], new| idx.find_or_insert_buf(&mut scratch, keys, new, lookup);
        assert_eq!(find(&empty, 0), Err(0));
        assert_eq!(find(&nonempty, 1), Err(1));
        assert_eq!(find(&empty, 2), Ok(0));
    }

    /// A small element tree: name, attributes, children.
    enum Spec {
        Elem(&'static str, Vec<(&'static str, &'static str)>, Vec<Spec>),
        Text(&'static str),
    }

    /// Tiny alphabets, so that deep-equal pairs across documents abound.
    fn gen_spec(rng: &mut DetRng, depth: usize) -> Spec {
        if depth > 0 && rng.gen_bool(0.3) {
            return Spec::Text(["p", "q"][rng.gen_range(0..2usize)]);
        }
        let name = ["a", "b"][rng.gen_range(0..2usize)];
        let mut attrs = Vec::new();
        for n in ["x", "y", "z"] {
            if rng.gen_bool(0.4) {
                attrs.push((n, ["1", "2"][rng.gen_range(0..2usize)]));
            }
        }
        let children = match depth {
            0..=2 => (0..rng.gen_range(0..=3usize))
                .map(|_| gen_spec(rng, depth + 1))
                .collect(),
            _ => Vec::new(),
        };
        Spec::Elem(name, attrs, children)
    }

    /// A comment or a PI, sometimes, where deep-equal skips them.
    fn noise(rng: &mut DetRng, b: &mut DocumentBuilder) {
        match rng.gen_range(0..4usize) {
            0 => {
                b.comment("c");
            }
            1 => {
                b.processing_instruction(QName::local("t"), "d");
            }
            _ => {}
        }
    }

    /// Build `spec` with its attributes in a random order and random
    /// comments and PIs around its content.
    fn build(rng: &mut DetRng, b: &mut DocumentBuilder, spec: &Spec) {
        match spec {
            Spec::Text(t) => {
                b.text(t);
            }
            Spec::Elem(name, attrs, children) => {
                b.start_element(QName::local(*name));
                let mut order: Vec<usize> = (0..attrs.len()).collect();
                if rng.gen_bool(0.5) {
                    order.reverse();
                }
                for i in order {
                    b.attribute(QName::local(attrs[i].0), attrs[i].1);
                }
                for child in children {
                    noise(rng, b);
                    build(rng, b, child);
                }
                noise(rng, b);
                b.end_element();
            }
        }
    }

    /// Every node of `doc`, attributes included.
    fn all_nodes(doc: &Arc<Document>) -> Vec<NodeHandle> {
        let root = doc.root();
        let mut out = vec![root.clone()];
        for n in root.descendants() {
            out.extend(n.attributes());
            out.push(n);
        }
        out
    }

    /// `node_deep_equal(a, b)` implies equal keys, and deep-equal is
    /// reflexive and symmetric, over generated trees that differ in
    /// attribute order, comments and PIs (inside elements and at the
    /// document level), with mixed content, each in a document of its
    /// own.
    #[test]
    fn deep_equal_nodes_share_a_key_over_generated_trees() {
        let mut rng = DetRng::seed_from_u64(0xdee9);
        let (mut equal_pairs, mut equal_documents) = (0, 0);
        for _ in 0..40 {
            let specs: Vec<Spec> = (0..3).map(|_| gen_spec(&mut rng, 0)).collect();
            let mut nodes = Vec::new();
            for spec in specs.iter().chain(&specs) {
                let mut b = DocumentBuilder::new();
                noise(&mut rng, &mut b);
                build(&mut rng, &mut b, spec);
                noise(&mut rng, &mut b);
                nodes.extend(all_nodes(&b.finish()));
            }
            let keys: Vec<String> = nodes.iter().map(node_key_of).collect();
            for (i, a) in nodes.iter().enumerate() {
                assert!(node_deep_equal(a, a), "not reflexive: {a:?}");
                for (j, b) in nodes.iter().enumerate().skip(i + 1) {
                    let equal = node_deep_equal(a, b);
                    assert_eq!(equal, node_deep_equal(b, a), "not symmetric: {a:?} {b:?}");
                    if equal {
                        assert_eq!(keys[i], keys[j], "deep-equal, keys differ: {a:?} {b:?}");
                        equal_pairs += 1;
                        if a.kind() == NodeKind::Document {
                            equal_documents += 1;
                        }
                    }
                }
            }
        }
        assert!(equal_pairs > 1_000, "only {equal_pairs} deep-equal pairs");
        assert!(
            equal_documents > 40,
            "only {equal_documents} deep-equal documents"
        );
    }
}
