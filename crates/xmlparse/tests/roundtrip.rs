//! Round-trip tests on deterministically generated trees: they survive
//! serialize → parse → serialize as a fixed point, and deep-equal is
//! preserved.

use std::sync::Arc;
use xqa_xdm::node::{Document, DocumentBuilder};
use xqa_xdm::{node_deep_equal, QName};
use xqa_xmlparse::{parse_document, serialize_node};

/// Minimal splitmix64 (same algorithm as `xqa_workload::DetRng`),
/// inlined to keep this crate dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A recursive element-tree description.
#[derive(Debug, Clone)]
enum Tree {
    Element {
        name: usize,
        attrs: Vec<(usize, String)>,
        children: Vec<Tree>,
    },
    Text(String),
}

const NAMES: [&str; 6] = ["book", "title", "author", "sale", "region", "price"];
const ATTR_NAMES: [&str; 4] = ["id", "year", "month", "kind"];
/// Text alphabet includes XML-significant characters to exercise
/// escaping, and the three the parser normalizes (XML 1.0 §2.11 and
/// §3.3.3), which the serializer must write as character references;
/// generated strings are never whitespace-only (the parser strips
/// whitespace-only text nodes by default).
const TEXT_CHARS: &[u8] = b"abcXYZ019<>&'\" \r\n\t";

fn gen_text(rng: &mut Rng) -> String {
    loop {
        let len = 1 + rng.below(12) as usize;
        let s: String = (0..len)
            .map(|_| TEXT_CHARS[rng.below(TEXT_CHARS.len() as u64) as usize] as char)
            .collect();
        if !s.chars().all(|c| c.is_ascii_whitespace()) {
            return s;
        }
    }
}

fn gen_attrs(rng: &mut Rng) -> Vec<(usize, String)> {
    let mut attrs: Vec<(usize, String)> = (0..rng.below(3))
        .map(|_| (rng.below(ATTR_NAMES.len() as u64) as usize, gen_text(rng)))
        .collect();
    attrs.sort_by_key(|(i, _)| *i);
    attrs.dedup_by_key(|(i, _)| *i);
    attrs
}

/// Generate a random tree of bounded depth.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.below(4) == 0 {
        if rng.below(2) == 0 {
            return Tree::Text(gen_text(rng));
        }
        return Tree::Element {
            name: rng.below(NAMES.len() as u64) as usize,
            attrs: gen_attrs(rng),
            children: Vec::new(),
        };
    }
    let children = (0..rng.below(5))
        .map(|_| gen_tree(rng, depth - 1))
        .collect();
    Tree::Element {
        name: rng.below(NAMES.len() as u64) as usize,
        attrs: gen_attrs(rng),
        children,
    }
}

fn build(tree: &Tree) -> Arc<Document> {
    let mut b = DocumentBuilder::new();
    // Ensure a single element root: wrap when the root is text.
    match tree {
        Tree::Element { .. } => build_into(&mut b, tree),
        Tree::Text(_) => {
            b.start_element(QName::local("wrapper"));
            build_into(&mut b, tree);
            b.end_element();
        }
    }
    b.finish()
}

fn build_into(b: &mut DocumentBuilder, tree: &Tree) {
    match tree {
        Tree::Text(t) => {
            b.text(t);
        }
        Tree::Element {
            name,
            attrs,
            children,
        } => {
            b.start_element(QName::local(NAMES[*name]));
            for (attr, value) in attrs {
                b.attribute(QName::local(ATTR_NAMES[*attr]), value.as_str());
            }
            for child in children {
                build_into(b, child);
            }
            b.end_element();
        }
    }
}

/// serialize → parse → serialize is a fixed point.
#[test]
fn serialize_parse_fixed_point() {
    let mut rng = Rng(0xF1);
    for _ in 0..128 {
        let tree = gen_tree(&mut rng, 4);
        let doc = build(&tree);
        let text1 = serialize_node(&doc.root());
        let reparsed = parse_document(&text1).unwrap();
        let text2 = serialize_node(&reparsed.root());
        assert_eq!(text1, text2);
    }
}

/// Parsing a serialization yields a deep-equal tree.
#[test]
fn roundtrip_preserves_deep_equality() {
    let mut rng = Rng(0xF2);
    for _ in 0..128 {
        let tree = gen_tree(&mut rng, 4);
        let doc = build(&tree);
        let text = serialize_node(&doc.root());
        let reparsed = parse_document(&text).unwrap();
        assert!(
            node_deep_equal(&doc.root(), &reparsed.root()),
            "round-trip changed the tree: {text}"
        );
    }
}

/// A file saved with CRLF (or bare CR) line ends parses deep-equal to
/// its LF twin: every literal line end is normalized, and the ones that
/// are data were written as references.
#[test]
fn crlf_twin_parses_deep_equal() {
    let mut rng = Rng(0xF3);
    for _ in 0..128 {
        let tree = gen_tree(&mut rng, 4);
        let doc = build(&tree);
        let text = serialize_node(&doc.root());
        for line_end in ["\r\n", "\r"] {
            let twin = text.replace('\n', line_end);
            let reparsed = parse_document(&twin).unwrap();
            assert!(
                node_deep_equal(&doc.root(), &reparsed.root()),
                "{line_end:?} twin changed the tree: {twin:?}"
            );
        }
    }
}

#[test]
fn deep_documents_error_instead_of_overflowing() {
    std::thread::Builder::new()
        .stack_size(16 * 1024 * 1024)
        .spawn(|| {
            let ok = format!("{}x{}", "<e>".repeat(200), "</e>".repeat(200));
            assert!(parse_document(&ok).is_ok());
            let deep = format!("{}x{}", "<e>".repeat(100_000), "</e>".repeat(100_000));
            let err = parse_document(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        })
        .expect("spawn")
        .join()
        .expect("deep XML thread");
}
