//! Byte-mutation fuzz for `xmlparse` (fixed seeds, `DetRng`).
//!
//! The parser scans raw bytes and slices the input `&str` at the
//! positions it stops at, so a wrong assumption about UTF-8 boundaries
//! or about what follows a truncated reference is a panic, not a wrong
//! answer. Every mutated input must come back `Ok` or `Err`, and an `Ok`
//! document must survive `parse(serialize(doc))` deep-equal and
//! byte-identical on the second serialization.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use xqa::xdm::{node_deep_equal, Document};
use xqa::{parse_document, parse_fragment, serialize_node, ParseError};
use xqa_workload::{generate_bib, generate_orders, BibConfig, DetRng, OrdersConfig};

/// Well-formed inputs that use every construct the parser knows.
const RICH: [&str; 5] = [
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n\
     <!-- head --><r a=\"1\" b='t&amp;wo' xmlns:x=\"urn:x\">\n  <x:c>one &lt; two &#65;&#x42;</x:c>\n  \
     <d><![CDATA[<raw> & ]] text]]></d><?app do it?><!--note--><e/>tail\n</r>\n<?after x?>",
    "<r k='a\tb\nc' l=\"&#9;&#10;&#13;&quot;&apos;\">line\r\none\rtwo&#13;\n<s> <![CDATA[ ]]> </s>x]]&gt;y]</r>",
    "<é ü='ö&amp;ß'>日本&lt;語 𝄞 \u{FFFD}<ñ/>€</é>",
    "<a><b><c><d><e f='g'>deep</e></d><d/></c>mixed <i>content</i> here</b></a>",
    " lead <a/> mid &#32;<b>x</b><!--c-->tail ",
];

/// The parser's own rejection cases: mutation should not turn an error
/// path into a panic either.
const MALFORMED: [&str; 14] = [
    "",
    "<a>",
    "<a></b>",
    "<a/><b/>",
    "text only",
    "<a b=c/>",
    "<a>&nbsp;</a>",
    "<1tag/>",
    "<a><!-- -- --></a>",
    "<a>&#0;</a>",
    "<a>&#x+41;</a>",
    "<a b='&#xD800;'/>",
    "<a><![CDATA[x]]</a>",
    "<a>x]]>y</a>",
];

/// Bytes a mutation inserts: markup delimiters, the reference and CDATA
/// alphabet, line ends, and lead/continuation bytes of UTF-8 sequences.
const INTERESTING: &[u8] =
    b"<>&;#xX\"'/=![]-? \r\n\tCDATA019azlgtmpqu\xC3\xA9\xE2\x82\xF0\x9D\x80\xBF";

fn seeds() -> Vec<String> {
    let orders = generate_orders(&OrdersConfig {
        orders: 3,
        seed: 7,
        ..Default::default()
    });
    let bib = generate_bib(&BibConfig {
        books: 4,
        seed: 7,
        with_categories: true,
        ..Default::default()
    });
    [orders, bib]
        .iter()
        .map(|doc| serialize_node(&doc.root()))
        .chain(RICH.iter().chain(&MALFORMED).map(|s| s.to_string()))
        .collect()
}

fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    let at = |rng: &mut DetRng, len: usize| rng.gen_range(0..len.max(1));
    match rng.gen_range(0..5u32) {
        // Flip one bit.
        0 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8u32);
        }
        // Overwrite one byte.
        1 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            bytes[i] = INTERESTING[at(rng, INTERESTING.len())];
        }
        // Delete a short range.
        2 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            let n = rng.gen_range(1..=8usize).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        // Truncate.
        3 if !bytes.is_empty() => bytes.truncate(at(rng, bytes.len())),
        // Insert a few bytes.
        _ => {
            let i = at(rng, bytes.len() + 1);
            for _ in 0..rng.gen_range(1..=4u32) {
                bytes.insert(i, INTERESTING[at(rng, INTERESTING.len())]);
            }
        }
    }
}

type Parse = fn(&str) -> Result<Arc<Document>, ParseError>;

/// Parse `input`; a panic or a round trip that changes the tree fails
/// the test with the input in the message.
fn check(what: &str, parse: Parse, input: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(input)));
    let Ok(parsed) = outcome else {
        panic!("{what} panicked on {input:?}");
    };
    let Ok(doc) = parsed else {
        return;
    };
    let text = serialize_node(&doc.root());
    let again = parse(&text).unwrap_or_else(|e| {
        panic!("{what} rejects its own serialization {text:?} of {input:?}: {e}")
    });
    assert!(
        node_deep_equal(&doc.root(), &again.root()),
        "{what}: round trip of {input:?} through {text:?} changed the tree"
    );
    assert_eq!(
        serialize_node(&again.root()),
        text,
        "{what}: serialization of {input:?} is not a fixed point"
    );
}

fn check_both(input: &str) {
    check("parse_document", parse_document, input);
    check("parse_fragment", parse_fragment, input);
}

#[test]
fn unmutated_seeds_round_trip() {
    let seeds = seeds();
    for seed in &seeds {
        check_both(seed);
    }
    let well_formed = seeds.len() - MALFORMED.len();
    for seed in &seeds[..well_formed - 1] {
        assert!(parse_document(seed).is_ok(), "{seed:?}");
    }
    // The last rich seed is a fragment: text and two elements at top level.
    assert!(parse_fragment(&seeds[well_formed - 1]).is_ok());
    for seed in &seeds[well_formed..] {
        assert!(parse_document(seed).is_err(), "{seed:?}");
    }
}

#[test]
fn every_truncation_of_the_rich_seeds_is_ok_or_err() {
    for seed in RICH.iter().chain(&MALFORMED) {
        for len in 0..seed.len() {
            check_both(&String::from_utf8_lossy(&seed.as_bytes()[..len]));
        }
    }
}

#[test]
fn mutated_seeds_never_panic_and_round_trip() {
    for (n, seed) in seeds().iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(0xF0_22 + n as u64);
        for _ in 0..300 {
            let mut bytes = seed.clone().into_bytes();
            for _ in 0..rng.gen_range(1..=4u32) {
                mutate(&mut rng, &mut bytes);
            }
            check_both(&String::from_utf8_lossy(&bytes));
        }
    }
}
