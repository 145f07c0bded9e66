//! Error type shared by the data-model layer.
//!
//! Errors carry a W3C-style error code (e.g. `XPTY0004`) so that engine
//! layers and tests can match on the class of failure the same way an
//! XQuery processor reports `err:XPTY0004`.

use std::fmt;

/// A W3C XQuery/XPath error code.
///
/// Only the codes the engine can actually raise are listed; the
/// `Other` variant covers implementation-specific conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Type error (e.g. comparing incomparable values, wrong argument type).
    XPTY0004,
    /// A sequence of more than one item where a singleton is required.
    XPTY0005,
    /// A path step's result mixes nodes and atomic values.
    XPTY0018,
    /// Evaluation needs the context item and none is defined.
    XPDY0002,
    /// An attribute node in element content after other content.
    XQTY0024,
    /// Undefined variable reference.
    XPST0008,
    /// Undefined function / wrong arity.
    XPST0017,
    /// Static syntax error.
    XPST0003,
    /// Invalid value for cast (e.g. unparsable number or date).
    FORG0001,
    /// Invalid argument to an aggregate function.
    FORG0006,
    /// `fn:zero-or-one` called with a sequence containing more than one item.
    FORG0003,
    /// `fn:one-or-more` called with an empty sequence.
    FORG0004,
    /// `fn:exactly-one` called with a non-singleton sequence.
    FORG0005,
    /// Division by zero.
    FOAR0001,
    /// Numeric overflow/underflow.
    FOAR0002,
    /// Invalid timezone or date/time component value.
    FODT0001,
    /// Unsupported normalization form / collation.
    FOCH0002,
    /// Dynamic error raised by `fn:error`.
    FOER0000,
    /// Implementation-specific error.
    Other,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::XPTY0004 => "XPTY0004",
            ErrorCode::XPTY0005 => "XPTY0005",
            ErrorCode::XPTY0018 => "XPTY0018",
            ErrorCode::XPDY0002 => "XPDY0002",
            ErrorCode::XQTY0024 => "XQTY0024",
            ErrorCode::XPST0008 => "XPST0008",
            ErrorCode::XPST0017 => "XPST0017",
            ErrorCode::XPST0003 => "XPST0003",
            ErrorCode::FORG0001 => "FORG0001",
            ErrorCode::FORG0006 => "FORG0006",
            ErrorCode::FORG0003 => "FORG0003",
            ErrorCode::FORG0004 => "FORG0004",
            ErrorCode::FORG0005 => "FORG0005",
            ErrorCode::FOAR0001 => "FOAR0001",
            ErrorCode::FOAR0002 => "FOAR0002",
            ErrorCode::FODT0001 => "FODT0001",
            ErrorCode::FOCH0002 => "FOCH0002",
            ErrorCode::FOER0000 => "FOER0000",
            ErrorCode::Other => "XQAE0000",
        };
        f.write_str(s)
    }
}

/// A dynamic or type error raised while manipulating XDM values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XdmError {
    /// The W3C error code class.
    pub code: ErrorCode,
    /// Human-readable description of the failure.
    pub message: String,
}

impl XdmError {
    /// Create an error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        XdmError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for the ubiquitous type error `XPTY0004`.
    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::XPTY0004, message)
    }

    /// Shorthand for a cast/value error `FORG0001`.
    pub fn value_error(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::FORG0001, message)
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for XdmError {}

/// Convenient result alias for XDM operations.
pub type XdmResult<T> = Result<T, XdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let e = XdmError::new(ErrorCode::FOAR0001, "division by zero");
        assert_eq!(e.to_string(), "[FOAR0001] division by zero");
    }

    #[test]
    fn type_error_shorthand_uses_xpty0004() {
        assert_eq!(XdmError::type_error("x").code, ErrorCode::XPTY0004);
    }

    #[test]
    fn value_error_shorthand_uses_forg0001() {
        assert_eq!(XdmError::value_error("x").code, ErrorCode::FORG0001);
    }

    #[test]
    fn codes_display_as_w3c_names() {
        assert_eq!(ErrorCode::XPST0008.to_string(), "XPST0008");
        assert_eq!(ErrorCode::Other.to_string(), "XQAE0000");
    }
}
