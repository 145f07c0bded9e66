//! Value comparison, general comparison, and `fn:deep-equal`.
//!
//! `fn:deep-equal` is load-bearing for this reproduction: the paper's
//! `group by` uses it as the *default grouping equality* (§3.3), with the
//! two documented properties — permutations of a sequence are distinct
//! values, and the empty sequence is a distinct value.

use crate::decimal::Decimal;
use crate::error::{XdmError, XdmResult};
use crate::item::{parse_double, AtomicType, AtomicValue, Item};
use crate::node::{NodeHandle, NodeKind};
use std::cmp::Ordering;
use std::sync::Arc;

/// The six comparison operators shared by value (`eq`) and general (`=`)
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `eq` / `=`
    Eq,
    /// `ne` / `!=`
    Ne,
    /// `lt` / `<`
    Lt,
    /// `le` / `<=`
    Le,
    /// `gt` / `>`
    Gt,
    /// `ge` / `>=`
    Ge,
}

impl CompOp {
    /// Apply the operator to an `Ordering`.
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CompOp::Eq => ord == Ordering::Equal,
            CompOp::Ne => ord != Ordering::Equal,
            CompOp::Lt => ord == Ordering::Less,
            CompOp::Le => ord != Ordering::Greater,
            CompOp::Gt => ord == Ordering::Greater,
            CompOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Result of comparing two atomics: an ordering, or incomparable because
/// one side is NaN (every operator except `ne` is then false).
enum PartialComparison {
    Ordered(Ordering),
    NaN,
}

impl PartialComparison {
    fn matches(self, op: CompOp) -> bool {
        match self {
            PartialComparison::Ordered(ord) => op.matches(ord),
            PartialComparison::NaN => op == CompOp::Ne,
        }
    }

    fn reverse(self) -> PartialComparison {
        match self {
            PartialComparison::Ordered(ord) => PartialComparison::Ordered(ord.reverse()),
            PartialComparison::NaN => PartialComparison::NaN,
        }
    }
}

/// Compare two atomic values under *value comparison* rules
/// (`eq`, `lt`, ...): untyped operands are treated as strings.
pub fn value_compare(a: &AtomicValue, b: &AtomicValue, op: CompOp) -> XdmResult<bool> {
    Ok(partial_compare(a, b)?.matches(op))
}

/// Value comparison of two items: each is atomized and an untyped value
/// compares as an `xs:string`. A node whose string value is one stored
/// span ([`NodeHandle::leaf_text`]) is compared on the borrowed text.
pub fn value_compare_items(a: &Item, b: &Item, op: CompOp) -> XdmResult<bool> {
    if let Some(c) = leaf_comparison(a, b, false) {
        return Ok(c.matches(op));
    }
    let a = a.atomize().untyped_as_string();
    let b = b.atomize().untyped_as_string();
    value_compare(&a, &b, op)
}

/// The comparison of a node operand whose string value is one stored
/// span ([`NodeHandle::leaf_text`]) with a string, untyped or numeric
/// atomic, in either order, decided on the borrowed text. It is what
/// atomizing the node to `xs:untypedAtomic` and casting would decide:
/// codepoint order against a string or untyped value; under general
/// comparison (`general`), `parse_double` and the double comparison with
/// its NaN rule against a number. `None` hands the pair back to the
/// atomizing path: value comparison with a number, any other type, a
/// node without leaf text, or a text `parse_double` rejects. So the
/// fast path never returns a result or error that path would not.
fn leaf_comparison(a: &Item, b: &Item, general: bool) -> Option<PartialComparison> {
    let (node, other, swapped) = match (a, b) {
        (Item::Node(n), Item::Atomic(v)) => (n, v, false),
        (Item::Atomic(v), Item::Node(n)) => (n, v, true),
        _ => return None,
    };
    let text = node.leaf_text()?;
    let c = match other {
        AtomicValue::String(s) | AtomicValue::Untyped(s) => PartialComparison::Ordered(text.cmp(s)),
        v if general && v.is_numeric() => double_cmp(parse_double(text).ok()?, v.to_double().ok()?),
        _ => return None,
    };
    Some(if swapped { c.reverse() } else { c })
}

/// Total ordering used by `order by` and `min`/`max`: NaN sorts before
/// every other number (and equal to itself).
pub fn sort_compare(a: &AtomicValue, b: &AtomicValue) -> XdmResult<Ordering> {
    let a_nan = matches!(a, AtomicValue::Double(d) if d.is_nan());
    let b_nan = matches!(b, AtomicValue::Double(d) if d.is_nan());
    match (a_nan, b_nan) {
        (true, true) => Ok(Ordering::Equal),
        (true, false) => Ok(Ordering::Less),
        (false, true) => Ok(Ordering::Greater),
        (false, false) => match partial_compare(a, b)? {
            PartialComparison::Ordered(ord) => Ok(ord),
            PartialComparison::NaN => unreachable!("NaN handled above"),
        },
    }
}

/// Pairwise comparison with numeric promotion. Untyped values compare as
/// strings (value-comparison semantics); general comparison casts its
/// untyped operands *before* calling this.
fn partial_compare(a: &AtomicValue, b: &AtomicValue) -> XdmResult<PartialComparison> {
    use AtomicValue as V;
    let ord = match (a, b) {
        // Numeric tower.
        (V::Integer(x), V::Integer(y)) => x.cmp(y),
        (V::Decimal(x), V::Decimal(y)) => x.cmp(y),
        (V::Integer(x), V::Decimal(y)) => Decimal::from_i64(*x).cmp(y),
        (V::Decimal(x), V::Integer(y)) => x.cmp(&Decimal::from_i64(*y)),
        (V::Double(x), y) if y.is_numeric() => return Ok(double_cmp(*x, y.to_double()?)),
        (x, V::Double(y)) if x.is_numeric() => return Ok(double_cmp(x.to_double()?, *y)),
        // Strings and untyped (codepoint collation).
        (V::String(x) | V::Untyped(x), V::String(y) | V::Untyped(y)) => x.cmp(y),
        (V::Boolean(x), V::Boolean(y)) => x.cmp(y),
        (V::DateTime(x), V::DateTime(y)) => x.cmp(y),
        (V::Date(x), V::Date(y)) => x.cmp(y),
        _ => {
            return Err(XdmError::type_error(format!(
                "cannot compare {} with {}",
                a.atomic_type(),
                b.atomic_type()
            )))
        }
    };
    Ok(PartialComparison::Ordered(ord))
}

fn double_cmp(x: f64, y: f64) -> PartialComparison {
    match x.partial_cmp(&y) {
        Some(ord) => PartialComparison::Ordered(ord),
        None => PartialComparison::NaN,
    }
}

/// General comparison (`=`, `<`, ...): existential over the atomized
/// operands with the untyped-casting rules of XQuery 1.0 —
/// untyped vs numeric casts the untyped side to `xs:double`,
/// untyped vs untyped/string compares as strings, untyped vs other typed
/// casts the untyped side to the other side's type. A node whose string
/// value is one stored span ([`NodeHandle::leaf_text`]) is compared on
/// the borrowed text; an operand is atomized only when a pair needs it.
pub fn general_compare(lhs: &[Item], rhs: &[Item], op: CompOp) -> XdmResult<bool> {
    for l in lhs {
        let mut la = None;
        for r in rhs {
            if let Some(c) = leaf_comparison(l, r, true) {
                if c.matches(op) {
                    return Ok(true);
                }
                continue;
            }
            let la = la.get_or_insert_with(|| l.atomize());
            let ra = r.atomize();
            let (la2, ra2) = general_cast_pair(la, &ra)?;
            if value_compare(&la2, &ra2, op)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

fn general_cast_pair(a: &AtomicValue, b: &AtomicValue) -> XdmResult<(AtomicValue, AtomicValue)> {
    let at = a.atomic_type();
    let bt = b.atomic_type();
    match (at, bt) {
        (AtomicType::Untyped, AtomicType::Untyped) => Ok((a.clone(), b.clone())),
        (AtomicType::Untyped, _) => Ok((a.cast_untyped_as(bt)?, b.clone())),
        (_, AtomicType::Untyped) => Ok((a.clone(), b.cast_untyped_as(at)?)),
        _ => Ok((a.clone(), b.clone())),
    }
}

/// `fn:deep-equal` over two sequences. Never raises: incomparable items
/// simply compare unequal, and NaN is deep-equal to NaN (per F&O).
pub fn deep_equal(a: &[Item], b: &[Item]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| item_deep_equal(x, y))
}

fn item_deep_equal(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (Item::Atomic(x), Item::Atomic(y)) => atomic_deep_equal(x, y),
        (Item::Node(x), Item::Node(y)) => node_deep_equal(x, y),
        _ => false,
    }
}

fn atomic_deep_equal(x: &AtomicValue, y: &AtomicValue) -> bool {
    // NaN = NaN for deep-equal purposes.
    if let (AtomicValue::Double(a), AtomicValue::Double(b)) = (x, y) {
        if a.is_nan() && b.is_nan() {
            return true;
        }
    }
    matches!(value_compare(x, y, CompOp::Eq), Ok(true))
}

/// Structural node equality per `fn:deep-equal`:
/// same kind; same name; elements additionally require equal attribute
/// *sets* and deep-equal child sequences with comments/PIs skipped.
/// Both sides are walked in step and text is compared in place, so the
/// check allocates nothing.
pub fn node_deep_equal(a: &NodeHandle, b: &NodeHandle) -> bool {
    if a.kind() != b.kind() {
        return false;
    }
    match a.kind() {
        NodeKind::Document => children_deep_equal(a, b),
        NodeKind::Element => {
            same_name(a, b) && attribute_sets_equal(a, b) && children_deep_equal(a, b)
        }
        NodeKind::Text | NodeKind::Comment => a.raw_text() == b.raw_text(),
        NodeKind::Attribute | NodeKind::ProcessingInstruction => {
            same_name(a, b) && a.raw_text() == b.raw_text()
        }
    }
}

/// Name equality; within one document, by name id.
fn same_name(a: &NodeHandle, b: &NodeHandle) -> bool {
    let (da, db) = (a.document(), b.document());
    if Arc::ptr_eq(da, db) {
        da.name_id_of(a.id()) == db.name_id_of(b.id())
    } else {
        a.name() == b.name()
    }
}

fn attribute_sets_equal(a: &NodeHandle, b: &NodeHandle) -> bool {
    // Attribute order is not significant; names within one element are
    // distinct, so equal counts plus a match for each of `a`'s suffice.
    a.attributes().len() == b.attributes().len()
        && a.attributes()
            .all(|x| b.attributes().any(|y| node_deep_equal(&x, &y)))
}

fn children_deep_equal(a: &NodeHandle, b: &NodeHandle) -> bool {
    let significant = |n: &NodeHandle| {
        !matches!(
            n.kind(),
            NodeKind::Comment | NodeKind::ProcessingInstruction
        )
    };
    let mut bc = b.children().filter(significant);
    a.children()
        .filter(significant)
        .all(|x| bc.next().is_some_and(|y| node_deep_equal(&x, &y)))
        && bc.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datetime::{Date, DateTime};
    use crate::node::DocumentBuilder;
    use crate::qname::QName;

    fn q(s: &str) -> QName {
        QName::local(s)
    }

    fn elem(build: impl FnOnce(&mut DocumentBuilder)) -> NodeHandle {
        let mut b = DocumentBuilder::new();
        build(&mut b);
        b.finish().root().children().next().unwrap()
    }

    fn int(v: i64) -> AtomicValue {
        AtomicValue::Integer(v)
    }

    #[test]
    fn numeric_promotion_in_value_compare() {
        let d = AtomicValue::Decimal(Decimal::parse("2.5").unwrap());
        assert!(value_compare(&int(2), &d, CompOp::Lt).unwrap());
        assert!(value_compare(&AtomicValue::Double(2.5), &d, CompOp::Eq).unwrap());
        assert!(value_compare(&int(3), &AtomicValue::Double(2.5), CompOp::Gt).unwrap());
    }

    #[test]
    fn exact_decimal_integer_comparison_avoids_float() {
        // 2^63 - 1 vs a decimal one greater: exact comparison must see it.
        let big = int(i64::MAX);
        let bigger = AtomicValue::Decimal(Decimal::from_parts(i64::MAX as i128 + 1, 0));
        assert!(value_compare(&big, &bigger, CompOp::Lt).unwrap());
    }

    #[test]
    fn nan_comparisons() {
        let nan = AtomicValue::Double(f64::NAN);
        assert!(!value_compare(&nan, &nan, CompOp::Eq).unwrap());
        assert!(value_compare(&nan, &nan, CompOp::Ne).unwrap());
        assert!(!value_compare(&nan, &int(1), CompOp::Lt).unwrap());
        // but deep-equal says NaN = NaN, and sorting puts NaN first
        assert!(atomic_deep_equal(&nan, &AtomicValue::Double(f64::NAN)));
        assert_eq!(sort_compare(&nan, &int(1)).unwrap(), Ordering::Less);
        assert_eq!(sort_compare(&nan, &nan).unwrap(), Ordering::Equal);
    }

    #[test]
    fn untyped_compares_as_string_in_value_comparison() {
        let a = AtomicValue::untyped("10");
        let b = AtomicValue::untyped("9");
        // String comparison: "10" < "9".
        assert!(value_compare(&a, &b, CompOp::Lt).unwrap());
    }

    #[test]
    fn incomparable_types_error() {
        let s = AtomicValue::string("x");
        assert!(value_compare(&s, &int(1), CompOp::Eq).is_err());
        let d = AtomicValue::Date(Date::parse("2004-01-01").unwrap());
        let dt = AtomicValue::DateTime(DateTime::parse("2004-01-01T00:00:00").unwrap());
        assert!(value_compare(&d, &dt, CompOp::Eq).is_err());
    }

    #[test]
    fn general_compare_is_existential() {
        let lhs = vec![Item::from(1i64), Item::from(5i64)];
        let rhs = vec![Item::from(3i64), Item::from(5i64)];
        assert!(general_compare(&lhs, &rhs, CompOp::Eq).unwrap());
        assert!(general_compare(&lhs, &rhs, CompOp::Lt).unwrap());
        assert!(!general_compare(&[], &rhs, CompOp::Eq).unwrap());
        // = and != are simultaneously true (classic general-comparison quirk)
        assert!(general_compare(&lhs, &rhs, CompOp::Ne).unwrap());
    }

    #[test]
    fn general_compare_casts_untyped_to_double_against_numbers() {
        let node_like = vec![Item::Atomic(AtomicValue::untyped("10"))];
        let num = vec![Item::from(9i64)];
        // Numeric comparison: 10 > 9 (string comparison would say "10" < "9").
        assert!(general_compare(&node_like, &num, CompOp::Gt).unwrap());
    }

    #[test]
    fn general_compare_against_node_content() {
        let price = elem(|b| {
            b.start_element(q("price")).text("65.00").end_element();
        });
        let lhs = vec![Item::Node(price)];
        assert!(general_compare(&lhs, &[Item::from(65.0)], CompOp::Eq).unwrap());
        assert!(general_compare(&lhs, &[Item::from("65.00")], CompOp::Eq).unwrap());
    }

    /// The `DetRng` stream (splitmix64), inlined: this crate has no
    /// dependencies to take it from.
    struct DetRng(u64);

    impl DetRng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    const LEAF_TEXTS: [&str; 12] = [
        "", " 7 ", "7.0", "7", "-0", "INF", "NaN", "1e3", "R", "r", "abc", "1,5",
    ];

    /// Every node kind whose string value is `text` stored as one span.
    fn leaf_nodes(text: &str) -> Vec<NodeHandle> {
        let mut b = DocumentBuilder::new();
        b.start_element(q("e"));
        b.attribute(q("a"), text);
        b.start_element(q("leaf")).text(text).end_element();
        b.comment(text);
        b.processing_instruction(q("pi"), text);
        b.end_element();
        let e = b.finish().root().children().next().unwrap();
        let leaf = e.children().next().unwrap();
        let mut nodes = vec![e.attribute(&q("a")).unwrap(), leaf.clone()];
        nodes.extend(leaf.children());
        nodes.extend(e.children().skip(1));
        let mut b = DocumentBuilder::new();
        b.text(text);
        nodes.push(b.finish().root());
        for n in &nodes {
            assert_eq!(n.leaf_text(), Some(text), "{n:?}");
        }
        nodes
    }

    fn other_value(rng: &mut DetRng) -> AtomicValue {
        let text = |rng: &mut DetRng| LEAF_TEXTS[rng.below(LEAF_TEXTS.len() as u64) as usize];
        match rng.below(5) {
            0 => AtomicValue::string(text(rng)),
            1 => AtomicValue::untyped(text(rng)),
            2 => int([7, 0, -1, 1000, i64::MAX, i64::MIN][rng.below(6) as usize]),
            3 => AtomicValue::Decimal(Decimal::from_parts(rng.below(20_000) as i128 - 10_000, 3)),
            _ => AtomicValue::Double(
                [
                    7.0,
                    0.0,
                    -0.0,
                    1000.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    6.99,
                ][rng.below(8) as usize],
            ),
        }
    }

    fn outcome(r: XdmResult<bool>) -> Result<bool, crate::error::ErrorCode> {
        r.map_err(|e| e.code)
    }

    /// Comparing a leaf node in place gives the boolean, or the error
    /// code, that comparing its atomized value gives: all six operators,
    /// both operand orders, general and value comparison, against
    /// string, untyped, integer, decimal and double values; and
    /// `fn:number` parses the same double.
    #[test]
    fn borrowed_leaf_comparisons_match_atomized() {
        const OPS: [CompOp; 6] = [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ];
        let mut rng = DetRng(7);
        for text in LEAF_TEXTS {
            let atomized = Item::Atomic(AtomicValue::untyped(text));
            for node in leaf_nodes(text).into_iter().map(Item::Node) {
                let (borrowed, reference) = (node.number(), atomized.number());
                assert!(
                    borrowed.to_bits() == reference.to_bits()
                        || borrowed.is_nan() && reference.is_nan(),
                    "number({text:?}): {borrowed} vs {reference}"
                );
                for _ in 0..64 {
                    let other = Item::Atomic(other_value(&mut rng));
                    let pairs = [
                        (&node, &other, &atomized, &other),
                        (&other, &node, &other, &atomized),
                    ];
                    for (l, r, al, ar) in pairs {
                        for op in OPS {
                            let what = format!("{l:?} {op:?} {r:?}");
                            assert_eq!(
                                outcome(general_compare(
                                    std::slice::from_ref(l),
                                    std::slice::from_ref(r),
                                    op
                                )),
                                outcome(general_compare(
                                    std::slice::from_ref(al),
                                    std::slice::from_ref(ar),
                                    op
                                )),
                                "general {what}"
                            );
                            assert_eq!(
                                outcome(value_compare_items(l, r, op)),
                                outcome(value_compare_items(al, ar, op)),
                                "value {what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deep_equal_sequences_are_order_sensitive() {
        let gray = Item::from("Gray");
        let reuter = Item::from("Reuter");
        let a = vec![gray.clone(), reuter.clone()];
        let b = vec![reuter, gray];
        assert!(
            !deep_equal(&a, &b),
            "permutations are distinct (paper §3.3)"
        );
        assert!(deep_equal(&a, &a.clone()));
    }

    #[test]
    fn deep_equal_empty_is_distinct_value() {
        assert!(deep_equal(&[], &[]));
        assert!(!deep_equal(&[], &[Item::from("x")]));
    }

    #[test]
    fn deep_equal_elements_by_structure() {
        let a = elem(|b| {
            b.start_element(q("author")).text("Jim Gray").end_element();
        });
        let a2 = elem(|b| {
            b.start_element(q("author")).text("Jim Gray").end_element();
        });
        let c = elem(|b| {
            b.start_element(q("author"))
                .text("Andreas Reuter")
                .end_element();
        });
        assert!(
            node_deep_equal(&a, &a2),
            "equal content, different identity"
        );
        assert!(!node_deep_equal(&a, &c));
        assert!(!a.is_same_node(&a2));
    }

    #[test]
    fn deep_equal_attributes_unordered() {
        let a = elem(|b| {
            b.start_element(q("r"));
            b.attribute(q("x"), "1").attribute(q("y"), "2");
            b.end_element();
        });
        let b2 = elem(|b| {
            b.start_element(q("r"));
            b.attribute(q("y"), "2").attribute(q("x"), "1");
            b.end_element();
        });
        assert!(node_deep_equal(&a, &b2));
        let c = elem(|b| {
            b.start_element(q("r"));
            b.attribute(q("x"), "1");
            b.end_element();
        });
        assert!(!node_deep_equal(&a, &c));
    }

    #[test]
    fn deep_equal_ignores_comments_inside_elements() {
        let a = elem(|b| {
            b.start_element(q("r"));
            b.comment("hi");
            b.start_element(q("v")).text("1").end_element();
            b.end_element();
        });
        let b2 = elem(|b| {
            b.start_element(q("r"));
            b.start_element(q("v")).text("1").end_element();
            b.end_element();
        });
        assert!(node_deep_equal(&a, &b2));
    }

    #[test]
    fn deep_equal_node_vs_atomic_is_false_not_error() {
        let n = elem(|b| {
            b.start_element(q("v")).text("1").end_element();
        });
        assert!(!deep_equal(&[Item::Node(n)], &[Item::from(1i64)]));
    }

    #[test]
    fn deep_equal_nested_structure() {
        let make = |inner: &str| {
            elem(|b| {
                b.start_element(q("categories"));
                b.start_element(q("software"));
                b.start_element(q(inner)).end_element();
                b.end_element();
                b.end_element();
            })
        };
        assert!(node_deep_equal(&make("db"), &make("db")));
        assert!(!node_deep_equal(&make("db"), &make("distributed")));
    }

    #[test]
    fn mixed_numeric_deep_equal() {
        assert!(atomic_deep_equal(&int(2), &AtomicValue::Double(2.0)));
        assert!(atomic_deep_equal(
            &AtomicValue::Decimal(Decimal::parse("2.0").unwrap()),
            &int(2)
        ));
        assert!(!atomic_deep_equal(&AtomicValue::string("2"), &int(2)));
    }
}
