//! Serialization of XDM nodes back to XML text.
//!
//! Two modes: compact (no added whitespace — round-trips with the
//! parser's default whitespace stripping) and indented (for human
//! inspection, used by the CLI and examples).

use std::fmt::Write as _;
use xqa_xdm::item::Item;
use xqa_xdm::node::{NodeHandle, NodeKind};

/// Serialization configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializeOptions {
    /// Pretty-print with the given indent width; `None` = compact.
    pub indent: Option<usize>,
}

impl SerializeOptions {
    /// Pretty-printing with a 2-space indent.
    pub fn pretty() -> Self {
        SerializeOptions { indent: Some(2) }
    }
}

/// Serialize one node (compact).
pub fn serialize_node(node: &NodeHandle) -> String {
    serialize_node_with(node, SerializeOptions::default())
}

/// Serialize one node with options.
pub fn serialize_node_with(node: &NodeHandle, options: SerializeOptions) -> String {
    let mut out = String::new();
    write_node(&mut out, node, &options, 0);
    out
}

/// Serialize a whole sequence: nodes as XML, atomics as their string
/// values, with single spaces between adjacent atomic values (the
/// XQuery serialization rule).
pub fn serialize_sequence(seq: &[Item]) -> String {
    serialize_sequence_with(seq, SerializeOptions::default())
}

/// Serialize a whole sequence with options.
pub fn serialize_sequence_with(seq: &[Item], options: SerializeOptions) -> String {
    let mut out = String::new();
    let mut ser = SequenceSerializer::new(options);
    ser.push(seq, &mut out);
    out
}

/// Incremental sequence serializer: feed the items of one logical
/// sequence across any number of [`push`](Self::push) calls and the
/// concatenated output is byte-identical to a single
/// [`serialize_sequence_with`] call over the whole sequence.
///
/// The inter-item state (the adjacent-atomic space rule and the
/// indent-mode newline between top-level nodes) is carried across
/// batch boundaries, which is what makes the streaming serving path
/// safe: the engine can hand over each 64-item pipeline batch as it is
/// pulled without changing the wire bytes.
#[derive(Debug, Clone)]
pub struct SequenceSerializer {
    options: SerializeOptions,
    /// Items serialized so far (drives the indent-mode newline rule).
    index: usize,
    /// Whether the previous item was an atomic (drives the space rule).
    prev_atomic: bool,
}

impl SequenceSerializer {
    /// Start a fresh sequence with the given options.
    pub fn new(options: SerializeOptions) -> Self {
        SequenceSerializer {
            options,
            index: 0,
            prev_atomic: false,
        }
    }

    /// Serialize the next batch of items onto `out`.
    pub fn push(&mut self, items: &[Item], out: &mut String) {
        for item in items {
            match item {
                Item::Node(n) => {
                    if self.options.indent.is_some() && self.index > 0 {
                        out.push('\n');
                    }
                    write_node(out, n, &self.options, 0);
                    self.prev_atomic = false;
                }
                Item::Atomic(a) => {
                    if self.prev_atomic {
                        out.push(' ');
                    }
                    out.push_str(&a.string_value());
                    self.prev_atomic = true;
                }
            }
            self.index += 1;
        }
    }

    /// Number of items serialized so far.
    pub fn items(&self) -> usize {
        self.index
    }
}

fn write_node(out: &mut String, node: &NodeHandle, options: &SerializeOptions, depth: usize) {
    match node.kind() {
        NodeKind::Document => {
            let mut first = true;
            for child in node.children() {
                if !first && options.indent.is_some() {
                    out.push('\n');
                }
                write_node(out, &child, options, depth);
                first = false;
            }
        }
        NodeKind::Element => write_element(out, node, options, depth),
        NodeKind::Attribute => {
            // A bare attribute outside an element serializes as name="value".
            let _ = write!(
                out,
                "{}=\"{}\"",
                node.name().expect("attribute name"),
                escape_attr(&node.string_value())
            );
        }
        NodeKind::Text => out.push_str(&escape_text(node.raw_text().unwrap_or(""))),
        NodeKind::Comment => {
            let _ = write!(out, "<!--{}-->", node.raw_text().unwrap_or(""));
        }
        NodeKind::ProcessingInstruction => {
            let _ = write!(
                out,
                "<?{} {}?>",
                node.name().expect("PI target"),
                node.raw_text().unwrap_or("")
            );
        }
    }
}

fn write_element(out: &mut String, node: &NodeHandle, options: &SerializeOptions, depth: usize) {
    let name = node.name().expect("element name");
    let pad = |out: &mut String, depth: usize| {
        if let Some(w) = options.indent {
            out.push_str(&" ".repeat(w * depth));
        }
    };
    let _ = write!(out, "<{name}");
    for attr in node.attributes() {
        let _ = write!(
            out,
            " {}=\"{}\"",
            attr.name().expect("attribute name"),
            escape_attr(&attr.string_value())
        );
    }
    let children: Vec<NodeHandle> = node.children().collect();
    if children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    // Text-only content stays inline even when indenting.
    let text_only = children.iter().all(|c| c.kind() == NodeKind::Text);
    if text_only || options.indent.is_none() {
        for child in &children {
            write_node(out, child, options, depth + 1);
        }
    } else {
        for child in &children {
            out.push('\n');
            pad(out, depth + 1);
            write_node(out, child, options, depth + 1);
        }
        out.push('\n');
        pad(out, depth);
    }
    let _ = write!(out, "</{name}>");
}

/// Escape character data: `&`, `<`, `>` (the latter for `]]>` safety),
/// and a carriage return as a character reference, because the parser
/// reads a literal one as a line end (XML 1.0 §2.11).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape attribute values: `&`, `<`, `"`, and tab, newline and
/// carriage return as character references, because the parser reads
/// literal ones as spaces (XML 1.0 §3.3.3).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            '\t' => out.push_str("&#9;"),
            '\n' => out.push_str("&#10;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use xqa_xdm::item::AtomicValue;

    #[test]
    fn compact_round_trip() {
        let src = r#"<book year="1993"><title>A &amp; B</title><price>65.00</price></book>"#;
        let doc = parse_document(src).unwrap();
        assert_eq!(serialize_node(&doc.root()), src);
    }

    #[test]
    fn empty_elements_self_close() {
        let doc = parse_document("<c><db></db></c>").unwrap();
        assert_eq!(serialize_node(&doc.root()), "<c><db/></c>");
    }

    #[test]
    fn pretty_print_indents_structure() {
        let doc = parse_document("<r><a>1</a><b><c/></b></r>").unwrap();
        let s = serialize_node_with(&doc.root(), SerializeOptions::pretty());
        assert_eq!(s, "<r>\n  <a>1</a>\n  <b>\n    <c/>\n  </b>\n</r>");
    }

    #[test]
    fn sequence_spaces_adjacent_atomics() {
        let seq = vec![
            Item::Atomic(AtomicValue::Integer(1)),
            Item::Atomic(AtomicValue::Integer(2)),
            Item::from("x"),
        ];
        assert_eq!(serialize_sequence(&seq), "1 2 x");
    }

    #[test]
    fn sequence_mixes_nodes_and_atomics() {
        let doc = parse_document("<a>v</a>").unwrap();
        let a = doc.root().children().next().unwrap();
        let seq = vec![Item::from(1i64), Item::Node(a), Item::from(2i64)];
        assert_eq!(serialize_sequence(&seq), "1<a>v</a>2");
    }

    #[test]
    fn escaping_in_text_and_attrs() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(
            escape_attr(r#"say "hi" & <go>"#),
            "say &quot;hi&quot; &amp; &lt;go>"
        );
        assert_eq!(escape_text("a\r\nb\tc"), "a&#13;\nb\tc");
        assert_eq!(escape_attr("a\r\nb\tc"), "a&#13;&#10;b&#9;c");
    }

    #[test]
    fn incremental_serializer_matches_one_shot_at_every_split() {
        let doc = parse_document("<a>v</a>").unwrap();
        let a = doc.root().children().next().unwrap();
        let seq = vec![
            Item::from(1i64),
            Item::from(2i64),
            Item::Node(a.clone()),
            Item::from("x"),
            Item::from("y"),
            Item::Node(a),
            Item::from(3i64),
        ];
        for options in [SerializeOptions::default(), SerializeOptions::pretty()] {
            let whole = serialize_sequence_with(&seq, options);
            for split in 0..=seq.len() {
                let mut ser = SequenceSerializer::new(options);
                let mut out = String::new();
                ser.push(&seq[..split], &mut out);
                ser.push(&seq[split..], &mut out);
                assert_eq!(out, whole, "split at {split} with {options:?}");
                assert_eq!(ser.items(), seq.len());
            }
        }
    }

    #[test]
    fn incremental_serializer_ignores_empty_batches() {
        let seq = [Item::from(1i64), Item::from(2i64)];
        let mut ser = SequenceSerializer::new(SerializeOptions::default());
        let mut out = String::new();
        ser.push(&seq[..1], &mut out);
        ser.push(&[], &mut out);
        ser.push(&seq[1..], &mut out);
        assert_eq!(out, "1 2");
    }

    #[test]
    fn comment_and_pi_serialization() {
        let doc = parse_document("<r><!--note--><?app data?></r>").unwrap();
        assert_eq!(
            serialize_node(&doc.root()),
            "<r><!--note--><?app data?></r>"
        );
    }
}
