//! # xqa-xmlparse — XML parsing and serialization
//!
//! A from-scratch, non-validating XML 1.0 parser producing
//! [`xqa_xdm`] documents, plus a serializer that writes XDM nodes back
//! out (compact or pretty-printed). This is the ingestion layer for the
//! paper's bibliography / sales / purchase-order documents.

#![warn(missing_docs)]

pub mod error;
pub mod parser;
pub mod serializer;

pub use error::{ParseError, ParseResult};
pub use parser::{
    parse_document, parse_document_with, parse_fragment, ParseOptions, MAX_XML_DEPTH,
};
pub use serializer::{
    escape_attr, escape_text, serialize_node, serialize_node_with, serialize_sequence,
    serialize_sequence_with, SequenceSerializer, SerializeOptions,
};
