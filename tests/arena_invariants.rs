//! The document arena derives every axis from preorder interval labels
//! instead of storing child and attribute vectors. This suite replays
//! generated `DocumentBuilder` call logs into the arena and into a naive
//! reference tree that does store them, and requires the two to agree
//! on every node; then it requires the store's index lookups to agree
//! with a plain walk of the reference.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use xqa::storage::DocumentStore;
use xqa::xdm::{parse_double, Document, DocumentBuilder, NodeHandle, NodeId, NodeKind, QName};
use xqa::MAX_XML_DEPTH;
use xqa_workload::{generate_orders, DetRng, OrdersConfig};

/// One `DocumentBuilder` call.
#[derive(Debug, Clone)]
enum Op {
    Start(&'static str),
    Attr(&'static str, String),
    Text(String),
    Comment(String),
    Pi(&'static str, String),
    End,
}

/// A node that stores what the arena derives.
#[derive(Debug)]
struct RefNode {
    kind: NodeKind,
    name: Option<&'static str>,
    text: String,
    parent: Option<usize>,
    children: Vec<usize>,
    attributes: Vec<usize>,
}

/// Replay `log` into the reference: ids are assigned in call order,
/// which is the preorder the arena promises. Empty text is dropped and
/// adjacent text merges, as the builder documents.
fn reference(log: &[Op]) -> Vec<RefNode> {
    let node = |kind, name, text: &str, parent| RefNode {
        kind,
        name,
        text: text.to_string(),
        parent,
        children: Vec::new(),
        attributes: Vec::new(),
    };
    let mut nodes = vec![node(NodeKind::Document, None, "", None)];
    let mut open = vec![0usize];
    for op in log {
        let current = *open.last().unwrap();
        let id = nodes.len();
        match op {
            Op::Start(name) => {
                nodes.push(node(NodeKind::Element, Some(*name), "", Some(current)));
                nodes[current].children.push(id);
                open.push(id);
            }
            Op::Attr(name, value) => {
                nodes.push(node(NodeKind::Attribute, Some(*name), value, Some(current)));
                nodes[current].attributes.push(id);
            }
            Op::Text(text) if text.is_empty() => {}
            Op::Text(text) => match nodes[current].children.last() {
                Some(&last) if nodes[last].kind == NodeKind::Text => nodes[last].text += text,
                _ => {
                    nodes.push(node(NodeKind::Text, None, text, Some(current)));
                    nodes[current].children.push(id);
                }
            },
            Op::Comment(text) => {
                nodes.push(node(NodeKind::Comment, None, text, Some(current)));
                nodes[current].children.push(id);
            }
            Op::Pi(target, text) => {
                let kind = NodeKind::ProcessingInstruction;
                nodes.push(node(kind, Some(*target), text, Some(current)));
                nodes[current].children.push(id);
            }
            Op::End => {
                open.pop();
            }
        }
    }
    assert_eq!(open, [0], "the generated log is balanced");
    nodes
}

fn build(log: &[Op]) -> Arc<Document> {
    let q = |name: &str| QName::parse(name).unwrap();
    let mut b = DocumentBuilder::new();
    for op in log {
        match op {
            Op::Start(name) => b.start_element(q(name)),
            Op::Attr(name, value) => b.attribute(q(name), value.as_str()),
            Op::Text(text) => b.text(text),
            Op::Comment(text) => b.comment(text.as_str()),
            Op::Pi(target, text) => b.processing_instruction(q(target), text.as_str()),
            Op::End => b.end_element(),
        };
    }
    b.finish()
}

/// The calls that rebuild the subtree of reference node `id`.
fn replay(nodes: &[RefNode], id: usize, out: &mut Vec<Op>) {
    let n = &nodes[id];
    match n.kind {
        NodeKind::Document => n.children.iter().for_each(|&c| replay(nodes, c, out)),
        NodeKind::Element => {
            out.push(Op::Start(n.name.unwrap()));
            for &a in &n.attributes {
                replay(nodes, a, out);
            }
            for &c in &n.children {
                replay(nodes, c, out);
            }
            out.push(Op::End);
        }
        NodeKind::Attribute => out.push(Op::Attr(n.name.unwrap(), n.text.clone())),
        NodeKind::Text => out.push(Op::Text(n.text.clone())),
        NodeKind::Comment => out.push(Op::Comment(n.text.clone())),
        NodeKind::ProcessingInstruction => out.push(Op::Pi(n.name.unwrap(), n.text.clone())),
    }
}

fn ref_descendants(nodes: &[RefNode], id: usize, out: &mut Vec<usize>) {
    for &c in &nodes[id].children {
        out.push(c);
        ref_descendants(nodes, c, out);
    }
}

fn ref_string_value(nodes: &[RefNode], id: usize) -> String {
    match nodes[id].kind {
        NodeKind::Document | NodeKind::Element => {
            let mut all = Vec::new();
            ref_descendants(nodes, id, &mut all);
            all.iter()
                .filter(|&&d| nodes[d].kind == NodeKind::Text)
                .map(|&d| nodes[d].text.as_str())
                .collect()
        }
        _ => nodes[id].text.clone(),
    }
}

fn ids(handles: impl Iterator<Item = NodeHandle>) -> Vec<usize> {
    handles.map(|h| h.id() as usize).collect()
}

const NAMES: [&str; 7] = ["a", "b", "c", "num", "str", "x:p", "only-attr"];

/// Every navigation answer of `doc` against the reference.
fn check_arena(doc: &Arc<Document>, nodes: &[RefNode]) {
    assert_eq!(doc.len(), nodes.len());
    assert_eq!(doc.is_empty(), nodes.len() == 1);
    for (id, expected) in nodes.iter().enumerate() {
        let node = doc.handle(id as NodeId).unwrap();
        let ctx = format!("node {id} of {nodes:?}");
        assert_eq!(node.id() as usize, id);
        assert_eq!(node.kind(), expected.kind, "{ctx}");
        assert_eq!(
            node.name().map(|n| n.to_string()),
            expected.name.map(str::to_string),
            "{ctx}"
        );
        assert_eq!(
            node.parent().map(|p| p.id() as usize),
            expected.parent,
            "{ctx}"
        );
        assert_eq!(ids(node.children()), expected.children, "{ctx}");
        assert_eq!(ids(node.attributes()), expected.attributes, "{ctx}");
        let ancestors: Vec<usize> =
            std::iter::successors(expected.parent, |&p| nodes[p].parent).collect();
        assert_eq!(ids(node.ancestors()), ancestors, "{ctx}");
        let mut descendants = Vec::new();
        ref_descendants(nodes, id, &mut descendants);
        assert_eq!(ids(node.descendants()), descendants, "{ctx}");
        descendants.insert(0, id);
        assert_eq!(ids(node.descendants_or_self()), descendants, "{ctx}");
        assert_eq!(node.string_value(), ref_string_value(nodes, id), "{ctx}");
        let has_text = !matches!(expected.kind, NodeKind::Document | NodeKind::Element);
        assert_eq!(
            node.raw_text(),
            has_text.then_some(expected.text.as_str()),
            "{ctx}"
        );
        for name in NAMES.iter().chain(&["absent"]) {
            let named = |pool: &[usize], kind| -> Vec<usize> {
                let keep = |&&n: &&usize| nodes[n].kind == kind && nodes[n].name == Some(*name);
                pool.iter().filter(keep).copied().collect()
            };
            let q = QName::parse(name).unwrap();
            assert_eq!(
                ids(node.child_elements_named(&q)),
                named(&expected.children, NodeKind::Element),
                "{ctx}: child::{name}"
            );
            assert_eq!(
                node.attribute(&q).map(|a| a.id() as usize),
                named(&expected.attributes, NodeKind::Attribute)
                    .first()
                    .copied(),
                "{ctx}: @{name}"
            );
        }
        // Document order is id order; identity is the id.
        let other = doc.handle(((id * 7 + 3) % nodes.len()) as NodeId).unwrap();
        assert_eq!(node.document_order(&other), node.id().cmp(&other.id()));
        assert_eq!(node.is_same_node(&other), node.id() == other.id());
    }
    assert!(doc.handle(nodes.len() as NodeId).is_none());
}

/// The store's lookups against a plain walk of the reference.
fn check_store(doc: &Arc<Document>, nodes: &[RefNode]) {
    let store = DocumentStore::build(doc);
    let elements = |name: &str| -> Vec<usize> {
        let is = |n: &RefNode| n.kind == NodeKind::Element && n.name == Some(name);
        (0..nodes.len()).filter(|&i| is(&nodes[i])).collect()
    };
    // An element is an indexable leaf when it has no children or exactly
    // one text child; its value is then its string value.
    let leaf_value = |id: usize| -> Option<String> {
        match nodes[id].children[..] {
            [] => Some(String::new()),
            [only] if nodes[only].kind == NodeKind::Text => Some(nodes[only].text.clone()),
            _ => None,
        }
    };
    let parents = |leaves: Vec<usize>| -> Vec<NodeId> {
        let mut parents: Vec<NodeId> = leaves
            .iter()
            .map(|&l| nodes[l].parent.unwrap() as NodeId)
            .collect();
        parents.sort_unstable();
        parents.dedup();
        parents
    };
    let mut total = 0;
    for name in NAMES.iter().chain(&["absent"]) {
        let q = QName::parse(name).unwrap();
        let of_name = elements(name);
        total += of_name.len();
        assert_eq!(store.element_count(&q), of_name.len() as u64, "{name}");
        assert_eq!(
            store.names().any(|n| *n == q),
            !of_name.is_empty(),
            "{name}"
        );
        for origin in 0..nodes.len() {
            let mut walked = Vec::new();
            ref_descendants(nodes, origin, &mut walked);
            walked.retain(|d| of_name.contains(d));
            let indexed: Vec<usize> = store
                .descendants_named(origin as NodeId, &q)
                .iter()
                .map(|&id| id as usize)
                .collect();
            assert_eq!(indexed, walked, "//{name} from {origin} of {nodes:?}");
        }
        let values: Option<Vec<String>> = of_name.iter().map(|&e| leaf_value(e)).collect();
        let Some(values) = values.filter(|_| !of_name.is_empty()) else {
            // No element of the name, or one that is not a leaf: only
            // the former may be probed (and finds nothing to miss).
            assert_eq!(
                store.value_eq_applicable(&q, false),
                of_name.is_empty(),
                "{name}"
            );
            let answer = of_name.is_empty().then(Vec::new);
            assert_eq!(store.parents_by_string_eq(&q, "1"), answer, "{name}");
            assert_eq!(store.parents_by_numeric_eq(&q, 1.0), answer, "{name}");
            continue;
        };
        assert!(store.value_eq_applicable(&q, false));
        let with = |keep: &dyn Fn(&str) -> bool| -> Vec<usize> {
            let keep = |(_, v): &(&usize, &String)| keep(v.as_str());
            of_name
                .iter()
                .zip(&values)
                .filter(keep)
                .map(|(&e, _)| e)
                .collect()
        };
        for probe in values.iter().map(String::as_str).chain(["missing"]) {
            assert_eq!(
                store.parents_by_string_eq(&q, probe),
                Some(parents(with(&|v| v == probe))),
                "{name} = {probe:?} in {nodes:?}"
            );
        }
        let numbers: Result<Vec<f64>, _> = values.iter().map(|v| parse_double(v)).collect();
        assert_eq!(
            store.value_eq_applicable(&q, true),
            numbers.is_ok(),
            "{name}"
        );
        match numbers {
            Err(_) => assert!(store.parents_by_numeric_eq(&q, 1.0).is_none(), "{name}"),
            Ok(numbers) => {
                for probe in numbers.iter().copied().chain([-7.25, f64::NAN]) {
                    assert_eq!(
                        store.parents_by_numeric_eq(&q, probe),
                        Some(parents(with(&|v| parse_double(v).unwrap() == probe))),
                        "{name} = {probe} in {nodes:?}"
                    );
                }
            }
        }
        let stats = store.name_stats(&q).unwrap();
        let mut distinct = values.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(stats.distinct_values, distinct.len() as u64, "{name}");
    }
    assert_eq!(store.total_elements(), total as u64);
    // A node's interval ends at the last of itself, its descendants and
    // all their attributes.
    for id in 0..nodes.len() {
        let mut inside = vec![id];
        ref_descendants(nodes, id, &mut inside);
        let with_attributes = |&n: &usize| nodes[n].attributes.iter().copied().chain([n]);
        let last = inside.iter().flat_map(with_attributes).max().unwrap();
        assert_eq!(
            store.subtree_end(id as NodeId) as usize,
            last,
            "{id} of {nodes:?}"
        );
    }
}

const NUMBERS: [&str; 9] = ["1", "2", "2.0", " 3 ", "1e1", "-0.5", "-0", "0", "0e0"];
const WORDS: [&str; 5] = ["x", "y z", "", "1", "é<&"];

fn pick<'a, T: ?Sized>(rng: &mut DetRng, pool: &[&'a T]) -> &'a T {
    pool[rng.gen_range(0..pool.len())]
}

/// Append the calls for one element and its content to `log`.
fn gen_element(rng: &mut DetRng, depth: usize, log: &mut Vec<Op>) {
    // Two names are reserved for leaves so that whole columns stay
    // indexable: `num` always numeric, `str` sometimes not.
    match rng.gen_range(0..8u32) {
        0 => {
            log.extend([
                Op::Start("num"),
                Op::Text(pick(rng, &NUMBERS).into()),
                Op::End,
            ]);
            return;
        }
        1 => {
            let value = if rng.gen_bool(0.5) {
                pick(rng, &NUMBERS)
            } else {
                pick(rng, &WORDS)
            };
            log.extend([Op::Start("str"), Op::Text(value.into()), Op::End]);
            return;
        }
        _ => {}
    }
    log.push(Op::Start(pick(rng, &NAMES[..3])));
    for _ in 0..rng.gen_range(0..3u32) {
        let name = pick(rng, &["id", "x:p", "only-attr", "a"]);
        log.push(Op::Attr(name, pick(rng, &WORDS).into()));
    }
    if depth > 0 {
        for _ in 0..rng.gen_range(0..5u32) {
            gen_content(rng, depth - 1, log);
        }
    }
    log.push(Op::End);
}

/// One child: an element, text (empty and adjacent included), a comment
/// or a PI.
fn gen_content(rng: &mut DetRng, depth: usize, log: &mut Vec<Op>) {
    match rng.gen_range(0..10u32) {
        0..=4 => gen_element(rng, depth, log),
        5..=7 => log.push(Op::Text(pick(rng, &WORDS).into())),
        8 => log.push(Op::Comment(pick(rng, &WORDS).into())),
        _ => log.push(Op::Pi(pick(rng, &["x:p", "go"]), pick(rng, &WORDS).into())),
    }
}

/// A multi-root fragment: several children of the document node.
fn gen_log(rng: &mut DetRng) -> Vec<Op> {
    let mut log = Vec::new();
    for _ in 0..rng.gen_range(0..4u32) {
        gen_content(rng, 4, &mut log);
    }
    log
}

#[test]
fn generated_trees_agree_with_the_reference() {
    let mut rng = DetRng::seed_from_u64(0xA2E4A);
    for _ in 0..300 {
        let log = gen_log(&mut rng);
        let nodes = reference(&log);
        let doc = build(&log);
        check_arena(&doc, &nodes);
        check_store(&doc, &nodes);
    }
}

#[test]
fn copies_agree_with_the_reference() {
    let mut rng = DetRng::seed_from_u64(0xC0B1);
    for _ in 0..200 {
        let log = gen_log(&mut rng);
        let nodes = reference(&log);
        let doc = build(&log);
        // Copy one node of every kind the tree has between two texts, so
        // that a copied text merges on either side.
        for id in 0..nodes.len() {
            if rng.gen_bool(0.7) {
                continue;
            }
            let before = pick(&mut rng, &WORDS);
            let after = pick(&mut rng, &WORDS);
            let attribute = nodes[id].kind == NodeKind::Attribute;
            let mut copy_log = vec![Op::Start("w")];
            let mut b = DocumentBuilder::new();
            b.start_element(QName::local("w"));
            if !attribute {
                copy_log.push(Op::Text(before.into()));
                b.text(before);
            }
            replay(&nodes, id, &mut copy_log);
            b.copy_node(&doc.handle(id as NodeId).unwrap());
            copy_log.extend([Op::Text(after.into()), Op::End]);
            b.text(after).end_element();
            let copy = b.finish();
            check_arena(&copy, &reference(&copy_log));
        }
    }
}

#[test]
fn depth_up_to_the_parser_limit() {
    let mut log = Vec::new();
    let nested = MAX_XML_DEPTH - 1;
    for level in 0..nested {
        log.push(Op::Start(NAMES[level % 3]));
        log.push(Op::Attr("id", level.to_string()));
        log.push(Op::Text("t".into()));
    }
    log.extend([Op::Start("num"), Op::Text("1".into()), Op::End]);
    for _ in 0..nested {
        log.extend([Op::Comment("c".into()), Op::End]);
    }
    let nodes = reference(&log);
    let doc = build(&log);
    check_arena(&doc, &nodes);
    check_store(&doc, &nodes);
    // The same tree through the parser.
    let text = xqa::serialize_node(&doc.root());
    check_arena(&xqa::parse_document(&text).unwrap(), &nodes);
}

/// The store's value lookups against a plain walk on the `cold_run`
/// document (2K lineitems): the generated pools above hold a few values
/// per name, this one about 2 000 distinct `partkey`s, so the value
/// dictionaries' hash tables grow and probe past collisions at a
/// realistic size.
#[test]
fn value_lookups_agree_with_a_walk_at_realistic_cardinality() {
    let doc = generate_orders(&OrdersConfig::with_total_lineitems(2_000));
    let store = DocumentStore::build(&doc);
    let elements = || (0..doc.len() as NodeId).filter_map(|id| doc.handle(id));
    let mut probed = 0;
    for name in store.names() {
        // The walk: each leaf's string value with its parent, in
        // document order; `None` when some element of the name is not
        // a leaf.
        let leaves: Option<Vec<(String, NodeId)>> = elements()
            .filter(|n| n.kind() == NodeKind::Element && n.name() == Some(name))
            .map(|n| {
                let mut children = n.children();
                let leaf = match (children.next(), children.next()) {
                    (None, _) => true,
                    (Some(only), None) => only.kind() == NodeKind::Text,
                    _ => false,
                };
                leaf.then(|| (n.string_value(), n.parent().unwrap().id()))
            })
            .collect();
        let Some(leaves) = leaves else {
            assert!(store.parents_by_string_eq(name, "x").is_none(), "{name}");
            continue;
        };
        let mut by_value: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for (value, parent) in &leaves {
            by_value.entry(value.as_str()).or_default().push(*parent);
        }
        for parents in by_value.values_mut() {
            parents.sort_unstable();
            parents.dedup();
        }
        let stats = store.name_stats(name).unwrap();
        assert_eq!(stats.distinct_values, by_value.len() as u64, "{name}");
        for (value, parents) in &by_value {
            let indexed = store.parents_by_string_eq(name, value);
            assert_eq!(indexed.as_ref(), Some(parents), "{name} = {value:?}");
        }
        assert_eq!(
            store.parents_by_string_eq(name, "missing"),
            Some(Vec::new())
        );
        let numbers: Result<Vec<(f64, NodeId)>, _> = leaves
            .iter()
            .map(|(v, p)| parse_double(v).map(|n| (n, *p)))
            .collect();
        assert_eq!(stats.all_numeric, numbers.is_ok(), "{name}");
        if let Ok(numbers) = numbers {
            let distinct: HashSet<u64> = numbers.iter().map(|(n, _)| n.to_bits()).collect();
            for probe in distinct.into_iter().map(f64::from_bits) {
                let mut walked: Vec<NodeId> = numbers
                    .iter()
                    .filter(|(n, _)| *n == probe)
                    .map(|&(_, p)| p)
                    .collect();
                walked.sort_unstable();
                walked.dedup();
                let indexed = store.parents_by_numeric_eq(name, probe);
                assert_eq!(indexed, Some(walked), "{name} = {probe}");
            }
        }
        probed += by_value.len();
    }
    assert!(probed > 2_000, "only {probed} distinct values probed");
}

/// `DocumentStore::leaf_value_id` against the tree: an element has an
/// id exactly when it carries no attributes and every element of its
/// name is an indexable leaf, two elements of one name share an id
/// exactly when their texts are equal, and no other node has one.
/// Returns how many elements got an id.
fn check_value_ids(doc: &Arc<Document>) -> usize {
    let store = DocumentStore::build(doc);
    let nodes = || (0..doc.len() as NodeId).filter_map(|id| doc.handle(id));
    let leaf_text = |n: &NodeHandle| -> Option<String> {
        let mut children = n.children();
        match (children.next(), children.next()) {
            (None, _) => Some(String::new()),
            (Some(only), None) if only.kind() == NodeKind::Text => Some(n.string_value()),
            _ => None,
        }
    };
    let mut coded = 0;
    for name in store.names() {
        let of_name: Vec<NodeHandle> = nodes()
            .filter(|n| n.kind() == NodeKind::Element && n.name() == Some(name))
            .collect();
        let all_leaf = of_name.iter().all(|n| leaf_text(n).is_some());
        let (mut text_of, mut id_of) = (HashMap::new(), HashMap::new());
        for n in &of_name {
            let id = store.leaf_value_id(n.id());
            let bare = n.attributes().len() == 0;
            assert_eq!(id.is_some(), all_leaf && bare, "{name}: {n:?}");
            let (Some(id), Some(text)) = (id, leaf_text(n)) else {
                continue;
            };
            coded += 1;
            assert_eq!(
                *text_of.entry(id).or_insert(text.clone()),
                text,
                "{name}: id {id}"
            );
            assert_eq!(
                *id_of.entry(text.clone()).or_insert(id),
                id,
                "{name}: {text:?}"
            );
        }
    }
    for n in nodes().filter(|n| n.kind() != NodeKind::Element) {
        assert_eq!(store.leaf_value_id(n.id()), None, "{n:?}");
    }
    coded
}

/// Value ids on the 2K-lineitem `cold_run` document, on a crafted one
/// (attributes on leaves, empty elements, mixed content, `-0` and `0`,
/// repeated children) and on generated trees.
#[test]
fn value_ids_are_equal_exactly_for_equal_leaf_texts() {
    let orders = generate_orders(&OrdersConfig::with_total_lineitems(2_000));
    assert!(check_value_ids(&orders) > 20_000);
    let crafted = xqa::parse_document(
        "<r><x><k a=\"1\">p</k><k>p</k><k/><k></k><k>-0</k><k>0</k><k>0</k><k>p</k></x>\
         <x><m>t<i/>u</m><m>t</m><z>1</z><z b=\"2\">1</z><e/><e><!--c--></e>\
         <w>a</w><w>a</w><w>b</w></x></r>",
    )
    .unwrap();
    // `k`: 7 bare of 8; `m` and `e` have a non-leaf element; `i`: 1;
    // `z`: 1 of 2; `w`: 3; `x` and `r` hold elements.
    assert_eq!(check_value_ids(&crafted), 12);
    let store = DocumentStore::build(&crafted);
    let k: Vec<Option<u32>> = (0..crafted.len() as NodeId)
        .filter(|&id| crafted.handle(id).unwrap().name() == Some(&QName::local("k")))
        .map(|id| store.leaf_value_id(id))
        .collect();
    assert_eq!(k.len(), 8);
    assert_eq!((k[0], k[1]), (None, k[7]));
    assert_eq!(k[2], k[3], "`<k/>` and `<k></k>` are both empty");
    assert_ne!(k[4], k[5], "`-0` and `0` are two texts");
    assert_eq!(k[5], k[6]);
    let mut rng = DetRng::seed_from_u64(0x1d5);
    for _ in 0..150 {
        check_value_ids(&build(&gen_log(&mut rng)));
    }
}

#[test]
fn empty_document_and_standalone_attribute() {
    let doc = build(&[]);
    check_arena(&doc, &reference(&[]));
    check_store(&doc, &reference(&[]));
    let attr = Document::standalone_attribute(QName::local("k"), "v");
    assert_eq!(attr.kind(), NodeKind::Attribute);
    assert_eq!(attr.string_value(), "v");
    assert!(attr.parent().is_none());
    assert_eq!(attr.children().count() + attr.descendants().count(), 0);
    let root = attr.document().root();
    assert_eq!(root.children().count() + root.descendants().count(), 0);
    assert_eq!(root.string_value(), "");
}
