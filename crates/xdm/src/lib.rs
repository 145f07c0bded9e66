//! # xqa-xdm — XQuery Data Model subset
//!
//! The value layer underneath the `xqa` XQuery engine, reproducing the
//! data model assumed by *"Extending XQuery for Analytics"* (SIGMOD
//! 2005): flat sequences of items, where an item is an atomic value or a
//! node in an immutable tree with node identity and document order.
//!
//! Modules:
//! - [`item`] — items, atomic values, atomization, EBV;
//! - [`sequence`] — the copy-on-write sequence representation and its
//!   builder;
//! - [`node`] — arena-backed documents, handles, builders;
//! - [`qname`] — qualified names;
//! - [`decimal`] — exact `xs:decimal` arithmetic;
//! - [`datetime`] — `xs:dateTime` / `xs:date`;
//! - [`compare`] — value/general comparison and `fn:deep-equal`;
//! - [`error`] — W3C-coded errors.

#![warn(missing_docs)]

pub mod compare;
pub mod datetime;
pub mod decimal;
pub mod error;
pub mod item;
pub mod node;
pub mod qname;
pub mod sequence;

pub use compare::{
    deep_equal, general_compare, node_deep_equal, sort_compare, value_compare, value_compare_items,
    CompOp,
};
pub use datetime::{Date, DateTime};
pub use decimal::Decimal;
pub use error::{ErrorCode, XdmError, XdmResult};
pub use item::{
    atomize_sequence, effective_boolean_value, format_double, parse_boolean, parse_double,
    singleton, AtomicType, AtomicValue, Item,
};
pub use node::{ChildElements, Document, DocumentBuilder, NameId, NodeHandle, NodeId, NodeKind};
pub use qname::QName;
pub use sequence::{take_seq_counters, Sequence, SequenceBuilder};
