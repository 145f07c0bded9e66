//! Items, atomic values and sequence-level predicates.
//!
//! An XDM value is a flat sequence of items; an item is a node or an
//! atomic value. Sequences live in [`crate::sequence`] as a
//! copy-on-write enum — flatness is an invariant maintained by
//! construction (there is no way to put a sequence inside an `Item`),
//! which is exactly the property the paper leans on when it notes that
//! nest expressions "are merged and lose their individual identity"
//! (§3.1).

use crate::datetime::{Date, DateTime};
use crate::decimal::Decimal;
use crate::error::{ErrorCode, XdmError, XdmResult};
use crate::node::NodeHandle;
use std::fmt;
use std::sync::Arc;

/// The atomic types the engine supports.
#[derive(Debug, Clone)]
pub enum AtomicValue {
    /// `xs:string`.
    String(Arc<str>),
    /// `xs:untypedAtomic` — the type of atomized node content.
    Untyped(Arc<str>),
    /// `xs:boolean`.
    Boolean(bool),
    /// `xs:integer`.
    Integer(i64),
    /// `xs:decimal`.
    Decimal(Decimal),
    /// `xs:double`.
    Double(f64),
    /// `xs:dateTime`.
    DateTime(DateTime),
    /// `xs:date`.
    Date(Date),
}

/// Names of the supported atomic types (for diagnostics and casts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// `xs:string`
    String,
    /// `xs:untypedAtomic`
    Untyped,
    /// `xs:boolean`
    Boolean,
    /// `xs:integer`
    Integer,
    /// `xs:decimal`
    Decimal,
    /// `xs:double`
    Double,
    /// `xs:dateTime`
    DateTime,
    /// `xs:date`
    Date,
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicType::String => "xs:string",
            AtomicType::Untyped => "xs:untypedAtomic",
            AtomicType::Boolean => "xs:boolean",
            AtomicType::Integer => "xs:integer",
            AtomicType::Decimal => "xs:decimal",
            AtomicType::Double => "xs:double",
            AtomicType::DateTime => "xs:dateTime",
            AtomicType::Date => "xs:date",
        };
        f.write_str(s)
    }
}

impl AtomicValue {
    /// Convenience constructor for `xs:string` values.
    pub fn string(s: impl Into<Arc<str>>) -> AtomicValue {
        AtomicValue::String(s.into())
    }

    /// Convenience constructor for `xs:untypedAtomic` values.
    pub fn untyped(s: impl Into<Arc<str>>) -> AtomicValue {
        AtomicValue::Untyped(s.into())
    }

    /// The dynamic type of this value.
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::Untyped(_) => AtomicType::Untyped,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
            AtomicValue::Date(_) => AtomicType::Date,
        }
    }

    /// True for the numeric types.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            AtomicValue::Integer(_) | AtomicValue::Decimal(_) | AtomicValue::Double(_)
        )
    }

    /// The string value (`fn:string` semantics).
    pub fn string_value(&self) -> String {
        match self {
            AtomicValue::String(s) | AtomicValue::Untyped(s) => s.to_string(),
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Integer(i) => i.to_string(),
            AtomicValue::Decimal(d) => d.to_string(),
            AtomicValue::Double(d) => format_double(*d),
            AtomicValue::DateTime(dt) => dt.to_string(),
            AtomicValue::Date(d) => d.to_string(),
        }
    }

    /// Cast to `xs:double` (used by arithmetic promotion and by general
    /// comparisons against untyped data).
    pub fn to_double(&self) -> XdmResult<f64> {
        match self {
            AtomicValue::Integer(i) => Ok(*i as f64),
            AtomicValue::Decimal(d) => Ok(d.to_f64()),
            AtomicValue::Double(d) => Ok(*d),
            AtomicValue::Boolean(b) => Ok(if *b { 1.0 } else { 0.0 }),
            AtomicValue::String(s) | AtomicValue::Untyped(s) => parse_double(s),
            other => Err(XdmError::type_error(format!(
                "cannot cast {} to xs:double",
                other.atomic_type()
            ))),
        }
    }

    /// An untyped value as `xs:string`, other values unchanged: how
    /// value comparisons and `order by` treat untyped operands.
    pub fn untyped_as_string(self) -> AtomicValue {
        match self {
            AtomicValue::Untyped(s) => AtomicValue::String(s),
            other => other,
        }
    }

    /// Cast an untyped value to the target numeric/temporal type for
    /// comparison purposes; other values pass through unchanged.
    pub fn cast_untyped_as(&self, target: AtomicType) -> XdmResult<AtomicValue> {
        let s = match self {
            AtomicValue::Untyped(s) => s,
            _ => return Ok(self.clone()),
        };
        match target {
            AtomicType::Integer | AtomicType::Decimal | AtomicType::Double => {
                Ok(AtomicValue::Double(parse_double(s)?))
            }
            AtomicType::Boolean => Ok(AtomicValue::Boolean(parse_boolean(s)?)),
            AtomicType::DateTime => Ok(AtomicValue::DateTime(DateTime::parse(s)?)),
            AtomicType::Date => Ok(AtomicValue::Date(Date::parse(s)?)),
            AtomicType::String | AtomicType::Untyped => Ok(AtomicValue::string(&**s)),
        }
    }
}

/// Parse the `xs:double` lexical form (covers integers, decimals,
/// scientific notation, INF/-INF/NaN).
pub fn parse_double(s: &str) -> XdmResult<f64> {
    let t = s.trim();
    match t {
        "INF" | "+INF" => return Ok(f64::INFINITY),
        "-INF" => return Ok(f64::NEG_INFINITY),
        "NaN" => return Ok(f64::NAN),
        _ => {}
    }
    // Rust's f64 parser accepts "inf"/"nan" spellings XQuery does not;
    // reject anything containing alphabetic chars other than e/E.
    if t.is_empty() || t.chars().any(|c| c.is_alphabetic() && c != 'e' && c != 'E') {
        return Err(XdmError::value_error(format!(
            "cannot cast {t:?} to xs:double"
        )));
    }
    t.parse::<f64>()
        .map_err(|_| XdmError::value_error(format!("cannot cast {t:?} to xs:double")))
}

/// Parse the `xs:boolean` lexical form.
pub fn parse_boolean(s: &str) -> XdmResult<bool> {
    match s.trim() {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        other => Err(XdmError::value_error(format!(
            "cannot cast {other:?} to xs:boolean"
        ))),
    }
}

/// Format an `xs:double` per the F&O `fn:string` rules (approximated):
/// plain decimal notation for magnitudes in `[1e-6, 1e6)`, otherwise
/// scientific notation with an explicit exponent.
pub fn format_double(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "INF" } else { "-INF" }.to_string();
    }
    if v == 0.0 {
        return if v.is_sign_negative() {
            "-0".to_string()
        } else {
            "0".to_string()
        };
    }
    let abs = v.abs();
    if (1e-6..1e6).contains(&abs) {
        if v == v.trunc() && abs < 1e15 {
            format!("{}", v as i64)
        } else {
            let s = format!("{v}");
            // Rust may still emit exponents for values like 1e-5 -> "0.00001".
            if s.contains('e') || s.contains('E') {
                format!("{v:.10}")
                    .trim_end_matches('0')
                    .trim_end_matches('.')
                    .to_string()
            } else {
                s
            }
        }
    } else {
        let formatted = format!("{v:E}");
        // Rust gives "1.25E7"; XQuery wants "1.25E7" as well. Keep it.
        formatted
    }
}

/// One item: a node or an atomic value. Two machine words plus the
/// enum tag; cheap to clone.
#[derive(Debug, Clone)]
pub enum Item {
    /// A node reference.
    Node(NodeHandle),
    /// An atomic value.
    Atomic(AtomicValue),
}

impl Item {
    /// The string value of the item (`fn:string`).
    pub fn string_value(&self) -> String {
        match self {
            Item::Node(n) => n.string_value(),
            Item::Atomic(a) => a.string_value(),
        }
    }

    /// Atomize this item: nodes become `xs:untypedAtomic` of their string
    /// value (schema-less data model), atomics pass through.
    pub fn atomize(&self) -> AtomicValue {
        match self {
            Item::Node(n) => AtomicValue::untyped(n.string_value()),
            Item::Atomic(a) => a.clone(),
        }
    }

    /// `fn:number`: the atomized item cast to `xs:double`, NaN when it
    /// does not cast. A leaf node's stored text is parsed in place.
    pub fn number(&self) -> f64 {
        match self {
            Item::Node(n) => match n.leaf_text() {
                Some(text) => parse_double(text),
                None => parse_double(&n.string_value()),
            },
            Item::Atomic(a) => a.to_double(),
        }
        .unwrap_or(f64::NAN)
    }

    /// The node inside, or a type error.
    pub fn as_node(&self) -> XdmResult<&NodeHandle> {
        match self {
            Item::Node(n) => Ok(n),
            Item::Atomic(a) => Err(XdmError::type_error(format!(
                "expected a node, got {}",
                a.atomic_type()
            ))),
        }
    }

    /// True when the item is a node.
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }
}

impl From<AtomicValue> for Item {
    fn from(v: AtomicValue) -> Item {
        Item::Atomic(v)
    }
}

impl From<NodeHandle> for Item {
    fn from(n: NodeHandle) -> Item {
        Item::Node(n)
    }
}

impl From<bool> for Item {
    fn from(v: bool) -> Item {
        Item::Atomic(AtomicValue::Boolean(v))
    }
}

impl From<i64> for Item {
    fn from(v: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(v))
    }
}

impl From<f64> for Item {
    fn from(v: f64) -> Item {
        Item::Atomic(AtomicValue::Double(v))
    }
}

impl From<&str> for Item {
    fn from(v: &str) -> Item {
        Item::Atomic(AtomicValue::string(v))
    }
}

/// Atomize a whole sequence (`fn:data`).
pub fn atomize_sequence(seq: &[Item]) -> crate::sequence::Sequence {
    seq.iter().map(|i| Item::Atomic(i.atomize())).collect()
}

/// The effective boolean value of a sequence (`fn:boolean`):
/// - empty → false
/// - first item a node → true
/// - singleton boolean/string/untyped/numeric → the usual rules
/// - anything else → `FORG0006`.
pub fn effective_boolean_value(seq: &[Item]) -> XdmResult<bool> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atomic(a)] => match a {
            AtomicValue::Boolean(b) => Ok(*b),
            AtomicValue::String(s) | AtomicValue::Untyped(s) => Ok(!s.is_empty()),
            AtomicValue::Integer(i) => Ok(*i != 0),
            AtomicValue::Decimal(d) => Ok(!d.is_zero()),
            AtomicValue::Double(d) => Ok(*d != 0.0 && !d.is_nan()),
            other => Err(XdmError::new(
                ErrorCode::FORG0006,
                format!("no effective boolean value for {}", other.atomic_type()),
            )),
        },
        _ => Err(XdmError::new(
            ErrorCode::FORG0006,
            "effective boolean value of a multi-item atomic sequence",
        )),
    }
}

/// Extract the single item of a singleton sequence, or report a type
/// error mentioning `what`.
pub fn singleton<'a>(seq: &'a [Item], what: &str) -> XdmResult<&'a Item> {
    match seq {
        [item] => Ok(item),
        [] => Err(XdmError::type_error(format!(
            "{what}: empty sequence where one item required"
        ))),
        _ => Err(XdmError::type_error(format!(
            "{what}: sequence of {} items where one required",
            seq.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DocumentBuilder;
    use crate::qname::QName;

    fn text_element(name: &str, text: &str) -> NodeHandle {
        let mut b = DocumentBuilder::new();
        b.start_element(QName::local(name)).text(text).end_element();
        b.finish().root().children().next().unwrap()
    }

    #[test]
    fn atomize_node_yields_untyped() {
        let n = text_element("price", "65.00");
        let v = Item::Node(n).atomize();
        assert_eq!(v.atomic_type(), AtomicType::Untyped);
        assert_eq!(v.string_value(), "65.00");
    }

    #[test]
    fn ebv_rules() {
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(effective_boolean_value(&[Item::Node(text_element("a", ""))]).unwrap());
        assert!(effective_boolean_value(&[Item::from(true)]).unwrap());
        assert!(!effective_boolean_value(&[Item::from(false)]).unwrap());
        assert!(effective_boolean_value(&[Item::from("x")]).unwrap());
        assert!(!effective_boolean_value(&[Item::from("")]).unwrap());
        assert!(effective_boolean_value(&[Item::from(5i64)]).unwrap());
        assert!(!effective_boolean_value(&[Item::from(0i64)]).unwrap());
        assert!(!effective_boolean_value(&[Item::from(f64::NAN)]).unwrap());
        // Two atomic items: error.
        let err = effective_boolean_value(&[Item::from(1i64), Item::from(2i64)]).unwrap_err();
        assert_eq!(err.code, ErrorCode::FORG0006);
        // dateTime singleton: error.
        let dt =
            AtomicValue::DateTime(crate::datetime::DateTime::parse("2004-01-01T00:00:00").unwrap());
        assert!(effective_boolean_value(&[Item::Atomic(dt)]).is_err());
    }

    #[test]
    fn double_formatting_follows_fo_rules() {
        assert_eq!(format_double(42.0), "42");
        assert_eq!(format_double(-3.5), "-3.5");
        assert_eq!(format_double(0.0), "0");
        assert_eq!(format_double(1.0e7), "1E7");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(0.5), "0.5");
    }

    #[test]
    fn parse_double_lexical_space() {
        assert_eq!(parse_double("1.5e2").unwrap(), 150.0);
        assert_eq!(parse_double(" 42 ").unwrap(), 42.0);
        assert!(parse_double("INF").unwrap().is_infinite());
        assert!(parse_double("NaN").unwrap().is_nan());
        assert!(parse_double("inf").is_err());
        assert!(parse_double("0x10").is_err());
        assert!(parse_double("").is_err());
    }

    #[test]
    fn untyped_casts_for_comparison() {
        let u = AtomicValue::untyped("42");
        match u.cast_untyped_as(AtomicType::Integer).unwrap() {
            AtomicValue::Double(d) => assert_eq!(d, 42.0),
            other => panic!("expected double, got {other:?}"),
        }
        let u = AtomicValue::untyped("2004-05-06");
        assert!(matches!(
            u.cast_untyped_as(AtomicType::Date).unwrap(),
            AtomicValue::Date(_)
        ));
        assert!(AtomicValue::untyped("abc")
            .cast_untyped_as(AtomicType::Double)
            .is_err());
    }

    #[test]
    fn singleton_helper_errors() {
        assert!(singleton(&[], "test").is_err());
        assert!(singleton(&[Item::from(1i64), Item::from(2i64)], "test").is_err());
        assert!(singleton(&[Item::from(1i64)], "test").is_ok());
    }

    #[test]
    fn item_string_values() {
        assert_eq!(Item::from(3i64).string_value(), "3");
        assert_eq!(Item::from(true).string_value(), "true");
        assert_eq!(Item::from("hi").string_value(), "hi");
        let d = AtomicValue::Decimal(crate::decimal::Decimal::parse("59.00").unwrap());
        assert_eq!(Item::Atomic(d).string_value(), "59");
    }
}
