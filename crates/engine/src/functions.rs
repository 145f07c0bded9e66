//! The built-in function library.
//!
//! Covers the `fn:` functions the paper's queries use (aggregates,
//! `distinct-values`, `deep-equal`, string/number utilities, dateTime
//! component extractors), the `xs:` constructor functions, and two
//! `xqa:` extension functions providing the §5 *membership functions*
//! (`xqa:paths`, `xqa:cube`) as builtins — the paper anticipates that
//! "a common set of such membership functions will be provided by the
//! implementations".

use crate::casts::cast_atomic;
use crate::context::{DynamicContext, Focus};
use crate::error::{EngineError, EngineResult};
use crate::eval::{no_context, opt_atomic};
use crate::ir::CastTarget;
use crate::keys::AtomicDistinctSet;
use xqa_xdm::{
    deep_equal, effective_boolean_value, sort_compare, AtomicValue, Decimal, DocumentBuilder,
    ErrorCode, Item, NodeHandle, NodeKind, QName, Sequence,
};

/// All built-in functions known to the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the F&O spec one-to-one
pub enum Builtin {
    // aggregates
    Count,
    Sum,
    Avg,
    Min,
    Max,
    // sequences
    DistinctValues,
    Empty,
    Exists,
    Reverse,
    Subsequence,
    InsertBefore,
    Remove,
    IndexOf,
    Data,
    StringJoin,
    ZeroOrOne,
    OneOrMore,
    ExactlyOne,
    Unordered,
    DeepEqual,
    // booleans
    Not,
    BooleanFn,
    TrueFn,
    FalseFn,
    // strings
    StringFn,
    Concat,
    Substring,
    StringLength,
    UpperCase,
    LowerCase,
    Contains,
    StartsWith,
    EndsWith,
    NormalizeSpace,
    SubstringBefore,
    SubstringAfter,
    Translate,
    // numerics
    NumberFn,
    Abs,
    Floor,
    Ceiling,
    Round,
    RoundHalfToEven,
    // nodes
    NameFn,
    LocalName,
    NodeName,
    Root,
    // focus
    Position,
    Last,
    // dateTime components
    YearFromDateTime,
    MonthFromDateTime,
    DayFromDateTime,
    HoursFromDateTime,
    MinutesFromDateTime,
    SecondsFromDateTime,
    YearFromDate,
    MonthFromDate,
    DayFromDate,
    // input
    Doc,
    Collection,
    // context instant
    CurrentDateTime,
    CurrentDate,
    // diagnostics
    Trace,
    // additional string/codepoint utilities
    Compare,
    StringToCodepoints,
    CodepointsToString,
    // errors
    ErrorFn,
    // xs: constructors
    Cast(CastTarget),
    // xqa: extension membership functions (§5)
    XqaPaths,
    XqaCube,
    // xqa: windowed-aggregation extensions (the paper's moving-window
    // queries in O(n) instead of O(n * w))
    XqaMovingSum,
    XqaMovingAvg,
}

/// Every builtin under its `(prefix, local name)`: the one table name
/// resolution and `explain` read. A builtin's first entry is the name
/// `explain` prints; later ones are aliases (`xs:int` for
/// `xs:integer`).
const BUILTINS: &[(&str, &str, Builtin)] = {
    use Builtin::*;
    &[
        ("fn", "count", Count),
        ("fn", "sum", Sum),
        ("fn", "avg", Avg),
        ("fn", "min", Min),
        ("fn", "max", Max),
        ("fn", "distinct-values", DistinctValues),
        ("fn", "empty", Empty),
        ("fn", "exists", Exists),
        ("fn", "reverse", Reverse),
        ("fn", "subsequence", Subsequence),
        ("fn", "insert-before", InsertBefore),
        ("fn", "remove", Remove),
        ("fn", "index-of", IndexOf),
        ("fn", "data", Data),
        ("fn", "string-join", StringJoin),
        ("fn", "zero-or-one", ZeroOrOne),
        ("fn", "one-or-more", OneOrMore),
        ("fn", "exactly-one", ExactlyOne),
        ("fn", "unordered", Unordered),
        ("fn", "deep-equal", DeepEqual),
        ("fn", "not", Not),
        ("fn", "boolean", BooleanFn),
        ("fn", "true", TrueFn),
        ("fn", "false", FalseFn),
        ("fn", "string", StringFn),
        ("fn", "concat", Concat),
        ("fn", "substring", Substring),
        ("fn", "string-length", StringLength),
        ("fn", "upper-case", UpperCase),
        ("fn", "lower-case", LowerCase),
        ("fn", "contains", Contains),
        ("fn", "starts-with", StartsWith),
        ("fn", "ends-with", EndsWith),
        ("fn", "normalize-space", NormalizeSpace),
        ("fn", "substring-before", SubstringBefore),
        ("fn", "substring-after", SubstringAfter),
        ("fn", "translate", Translate),
        ("fn", "number", NumberFn),
        ("fn", "abs", Abs),
        ("fn", "floor", Floor),
        ("fn", "ceiling", Ceiling),
        ("fn", "round", Round),
        ("fn", "round-half-to-even", RoundHalfToEven),
        ("fn", "name", NameFn),
        ("fn", "local-name", LocalName),
        ("fn", "node-name", NodeName),
        ("fn", "root", Root),
        ("fn", "position", Position),
        ("fn", "last", Last),
        ("fn", "year-from-dateTime", YearFromDateTime),
        ("fn", "month-from-dateTime", MonthFromDateTime),
        ("fn", "day-from-dateTime", DayFromDateTime),
        ("fn", "hours-from-dateTime", HoursFromDateTime),
        ("fn", "minutes-from-dateTime", MinutesFromDateTime),
        ("fn", "seconds-from-dateTime", SecondsFromDateTime),
        ("fn", "year-from-date", YearFromDate),
        ("fn", "month-from-date", MonthFromDate),
        ("fn", "day-from-date", DayFromDate),
        ("fn", "doc", Doc),
        ("fn", "collection", Collection),
        ("fn", "error", ErrorFn),
        ("fn", "current-dateTime", CurrentDateTime),
        ("fn", "current-date", CurrentDate),
        ("fn", "trace", Trace),
        ("fn", "compare", Compare),
        ("fn", "string-to-codepoints", StringToCodepoints),
        ("fn", "codepoints-to-string", CodepointsToString),
        ("xs", "string", Cast(CastTarget::String)),
        ("xs", "untypedAtomic", Cast(CastTarget::Untyped)),
        ("xs", "boolean", Cast(CastTarget::Boolean)),
        ("xs", "integer", Cast(CastTarget::Integer)),
        ("xs", "int", Cast(CastTarget::Integer)),
        ("xs", "long", Cast(CastTarget::Integer)),
        ("xs", "decimal", Cast(CastTarget::Decimal)),
        ("xs", "double", Cast(CastTarget::Double)),
        ("xs", "float", Cast(CastTarget::Double)),
        ("xs", "dateTime", Cast(CastTarget::DateTime)),
        ("xs", "date", Cast(CastTarget::Date)),
        ("xqa", "paths", XqaPaths),
        ("xqa", "cube", XqaCube),
        ("xqa", "moving-sum", XqaMovingSum),
        ("xqa", "moving-avg", XqaMovingAvg),
    ]
};

/// Resolve a function name to a builtin. `prefix` of `None` and `fn`
/// address the core library; `xs` the constructors; `xqa` the
/// extensions.
pub fn resolve(prefix: Option<&str>, local: &str) -> Option<Builtin> {
    let prefix = prefix.unwrap_or("fn");
    BUILTINS
        .iter()
        .find(|&&(p, l, _)| p == prefix && l == local)
        .map(|&(_, _, b)| b)
}

/// The prefixed name a query spells `b` with, e.g. `fn:count` or
/// `xs:integer`.
pub fn name(b: Builtin) -> String {
    let (prefix, local, _) = BUILTINS
        .iter()
        .find(|&&(_, _, entry)| entry == b)
        .expect("every builtin has a name");
    format!("{prefix}:{local}")
}

/// Allowed argument count: (min, max); `max == usize::MAX` means
/// variadic.
pub fn arity(b: Builtin) -> (usize, usize) {
    use Builtin::*;
    match b {
        TrueFn | FalseFn | Position | Last | CurrentDateTime | CurrentDate => (0, 0),
        StringFn | NumberFn | NameFn | LocalName | NodeName | Root | NormalizeSpace
        | StringLength => (0, 1),
        Collection => (0, 1),
        ErrorFn => (0, 2),
        Count | Avg | Min | Max | DistinctValues | Empty | Exists | Reverse | Data | Not
        | BooleanFn | Abs | Floor | Ceiling | Round | UpperCase | LowerCase | ZeroOrOne
        | OneOrMore | ExactlyOne | Unordered | YearFromDateTime | MonthFromDateTime
        | DayFromDateTime | HoursFromDateTime | MinutesFromDateTime | SecondsFromDateTime
        | YearFromDate | MonthFromDate | DayFromDate | Doc | Cast(_) | XqaPaths | XqaCube => (1, 1),
        Sum | RoundHalfToEven => (1, 2),
        Trace | XqaMovingSum | XqaMovingAvg | Compare => (2, 2),
        StringToCodepoints | CodepointsToString => (1, 1),
        Substring => (2, 3),
        Subsequence => (2, 3),
        StringJoin | Contains | StartsWith | EndsWith | SubstringBefore | SubstringAfter
        | Remove | IndexOf | DeepEqual => (2, 2),
        InsertBefore | Translate => (3, 3),
        Concat => (2, usize::MAX),
    }
}

/// Context handed to builtins that need the focus or the dynamic
/// context.
pub struct FnCtx<'a> {
    /// Current focus, if any.
    pub focus: Option<&'a Focus>,
    /// The dynamic context.
    pub dynamic: &'a DynamicContext,
}

/// Evaluate a builtin over already-evaluated arguments.
pub fn dispatch(b: Builtin, mut args: Vec<Sequence>, cx: &FnCtx<'_>) -> EngineResult<Sequence> {
    use Builtin::*;
    match b {
        Count => Ok(Sequence::one(Item::from(args[0].len() as i64))),
        Sum => {
            let zero = if args.len() == 2 {
                args.pop().expect("arity checked")
            } else {
                Sequence::one(Item::from(0i64))
            };
            fn_sum(&args[0], zero)
        }
        Avg => fn_avg(&args[0]),
        Min => fn_min_max(&args[0], true),
        Max => fn_min_max(&args[0], false),
        DistinctValues => fn_distinct_values(&args[0]),
        Empty => Ok(Sequence::one(Item::from(args[0].is_empty()))),
        Exists => Ok(Sequence::one(Item::from(!args[0].is_empty()))),
        Reverse => {
            let mut s = args.pop().expect("arity checked").into_vec();
            s.reverse();
            Ok(s.into())
        }
        Subsequence => fn_subsequence(args),
        InsertBefore => fn_insert_before(args),
        Remove => fn_remove(args),
        IndexOf => fn_index_of(&args[0], &args[1]),
        Data => Ok(xqa_xdm::atomize_sequence(&args[0])),
        StringJoin => {
            let sep = string_arg(&args[1], "string-join separator")?;
            let parts: Vec<String> = args[0].iter().map(|i| i.string_value()).collect();
            Ok(Sequence::one(Item::from(parts.join(&sep).as_str())))
        }
        ZeroOrOne => {
            if args[0].len() <= 1 {
                Ok(args.pop().expect("arity checked"))
            } else {
                Err(EngineError::dynamic(
                    ErrorCode::FORG0003,
                    "zero-or-one: more than one item",
                ))
            }
        }
        OneOrMore => {
            if args[0].is_empty() {
                Err(EngineError::dynamic(
                    ErrorCode::FORG0004,
                    "one-or-more: empty sequence",
                ))
            } else {
                Ok(args.pop().expect("arity checked"))
            }
        }
        ExactlyOne => {
            if args[0].len() == 1 {
                Ok(args.pop().expect("arity checked"))
            } else {
                Err(EngineError::dynamic(
                    ErrorCode::FORG0005,
                    format!("exactly-one: {} items", args[0].len()),
                ))
            }
        }
        Unordered => Ok(args.pop().expect("arity checked")),
        DeepEqual => Ok(Sequence::one(Item::from(deep_equal(&args[0], &args[1])))),
        Not => Ok(Sequence::one(Item::from(!effective_boolean_value(
            &args[0],
        )?))),
        BooleanFn => Ok(Sequence::one(Item::from(effective_boolean_value(
            &args[0],
        )?))),
        TrueFn => Ok(Sequence::one(Item::from(true))),
        FalseFn => Ok(Sequence::one(Item::from(false))),
        StringFn => {
            let target = zero_or_one_focus(args, cx, "string")?;
            Ok(Sequence::one(Item::from(
                target
                    .map(|i| i.string_value())
                    .unwrap_or_default()
                    .as_str(),
            )))
        }
        Concat => {
            let mut out = String::new();
            for a in &args {
                if let Some(v) = opt_atomic(a, "concat argument")? {
                    out.push_str(&v.string_value());
                }
            }
            Ok(Sequence::one(Item::from(out.as_str())))
        }
        Substring => fn_substring(args),
        StringLength => {
            let target = zero_or_one_focus(args, cx, "string-length")?;
            let s = target.map(|i| i.string_value()).unwrap_or_default();
            Ok(Sequence::one(Item::from(s.chars().count() as i64)))
        }
        UpperCase => {
            let s = string_arg(&args[0], "upper-case")?;
            Ok(Sequence::one(Item::from(s.to_uppercase().as_str())))
        }
        LowerCase => {
            let s = string_arg(&args[0], "lower-case")?;
            Ok(Sequence::one(Item::from(s.to_lowercase().as_str())))
        }
        Contains => {
            let (a, b) = (
                string_arg(&args[0], "contains")?,
                string_arg(&args[1], "contains")?,
            );
            Ok(Sequence::one(Item::from(a.contains(&b))))
        }
        StartsWith => {
            let (a, b) = (
                string_arg(&args[0], "starts-with")?,
                string_arg(&args[1], "starts-with")?,
            );
            Ok(Sequence::one(Item::from(a.starts_with(&b))))
        }
        EndsWith => {
            let (a, b) = (
                string_arg(&args[0], "ends-with")?,
                string_arg(&args[1], "ends-with")?,
            );
            Ok(Sequence::one(Item::from(a.ends_with(&b))))
        }
        NormalizeSpace => {
            let target = zero_or_one_focus(args, cx, "normalize-space")?;
            let s = target.map(|i| i.string_value()).unwrap_or_default();
            let normalized: Vec<&str> = s.split_ascii_whitespace().collect();
            Ok(Sequence::one(Item::from(normalized.join(" ").as_str())))
        }
        SubstringBefore => {
            let (a, b) = (
                string_arg(&args[0], "substring-before")?,
                string_arg(&args[1], "substring-before")?,
            );
            let out = a.find(&b).map(|i| &a[..i]).unwrap_or("");
            Ok(Sequence::one(Item::from(out)))
        }
        SubstringAfter => {
            let (a, b) = (
                string_arg(&args[0], "substring-after")?,
                string_arg(&args[1], "substring-after")?,
            );
            let out = a.find(&b).map(|i| &a[i + b.len()..]).unwrap_or("");
            Ok(Sequence::one(Item::from(out)))
        }
        Translate => {
            let s = string_arg(&args[0], "translate")?;
            let map_from: Vec<char> = string_arg(&args[1], "translate")?.chars().collect();
            let map_to: Vec<char> = string_arg(&args[2], "translate")?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match map_from.iter().position(|&f| f == c) {
                    Some(i) => map_to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Sequence::one(Item::from(out.as_str())))
        }
        NumberFn => {
            let target = zero_or_one_focus(args, cx, "number")?;
            let v = match target {
                None => f64::NAN,
                Some(item) => item.number(),
            };
            Ok(Sequence::one(Item::from(v)))
        }
        Abs | Floor | Ceiling | Round => fn_numeric_unary(b, &args[0]),
        RoundHalfToEven => fn_round_half_even(args),
        NameFn | LocalName | NodeName => {
            let target = zero_or_one_focus(args, cx, "name")?;
            let node = match target {
                None => {
                    return Ok(if b == NodeName {
                        Sequence::Empty
                    } else {
                        Sequence::one(Item::from(""))
                    })
                }
                Some(item) => match item {
                    Item::Node(n) => n,
                    _ => {
                        return Err(EngineError::dynamic(
                            ErrorCode::XPTY0004,
                            "name() requires a node",
                        ))
                    }
                },
            };
            let name = node.name();
            match b {
                NodeName => Ok(name
                    .map(|q| Sequence::one(Item::from(q.to_string().as_str())))
                    .unwrap_or_default()),
                LocalName => Ok(Sequence::one(Item::from(
                    name.map(|q| q.local_part().to_string())
                        .unwrap_or_default()
                        .as_str(),
                ))),
                _ => Ok(Sequence::one(Item::from(
                    name.map(|q| q.to_string()).unwrap_or_default().as_str(),
                ))),
            }
        }
        Root => {
            let target = zero_or_one_focus(args, cx, "root")?;
            match target {
                None => Ok(Sequence::Empty),
                Some(Item::Node(n)) => {
                    let root = n.ancestors().last().unwrap_or(n);
                    Ok(Sequence::one(Item::Node(root)))
                }
                Some(_) => Err(EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    "root() requires a node",
                )),
            }
        }
        Position => match cx.focus {
            Some(f) => Ok(Sequence::one(Item::from(f.position))),
            None => Err(no_context("position()")),
        },
        Last => match cx.focus {
            Some(f) => Ok(Sequence::one(Item::from(f.size))),
            None => Err(no_context("last()")),
        },
        YearFromDateTime | MonthFromDateTime | DayFromDateTime | HoursFromDateTime
        | MinutesFromDateTime | SecondsFromDateTime => fn_datetime_component(b, &args[0]),
        YearFromDate | MonthFromDate | DayFromDate => fn_date_component(b, &args[0]),
        Doc => {
            let uri = match opt_atomic(&args[0], "doc")? {
                None => return Ok(Sequence::Empty),
                Some(v) => v.string_value(),
            };
            match cx.dynamic.document(&uri) {
                Some(root) => Ok(Sequence::one(Item::Node(root.clone()))),
                None => Err(EngineError::dynamic(
                    ErrorCode::Other,
                    format!("doc: no document registered under {uri:?}"),
                )),
            }
        }
        Collection => {
            let name = if args.is_empty() {
                None
            } else {
                opt_atomic(&args[0], "collection")?.map(|v| v.string_value())
            };
            match cx.dynamic.collection(name.as_deref()) {
                Some(roots) => Ok(roots.iter().cloned().map(Item::Node).collect()),
                None => Err(EngineError::dynamic(
                    ErrorCode::Other,
                    format!("collection: not registered: {name:?}"),
                )),
            }
        }
        ErrorFn => {
            let description = args
                .get(1)
                .and_then(|s| s.first())
                .map(|i| i.string_value())
                .or_else(|| {
                    args.first()
                        .and_then(|s| s.first())
                        .map(|i| i.string_value())
                })
                .unwrap_or_else(|| "error raised by fn:error()".to_string());
            Err(EngineError::dynamic(ErrorCode::FOER0000, description))
        }
        CurrentDateTime => Ok(Sequence::one(Item::Atomic(AtomicValue::DateTime(
            cx.dynamic.current_datetime(),
        )))),
        CurrentDate => Ok(Sequence::one(Item::Atomic(AtomicValue::Date(
            cx.dynamic.current_datetime().date(),
        )))),
        Trace => {
            let label = string_arg(&args[1], "trace label")?;
            eprintln!("trace[{label}]: {} item(s)", args[0].len());
            Ok(args.swap_remove(0))
        }
        Compare => {
            let a = opt_atomic(&args[0], "compare")?;
            let b = opt_atomic(&args[1], "compare")?;
            match (a, b) {
                (Some(a), Some(b)) => {
                    let ord = a.string_value().cmp(&b.string_value());
                    Ok(Sequence::one(Item::from(match ord {
                        std::cmp::Ordering::Less => -1i64,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    })))
                }
                _ => Ok(Sequence::Empty),
            }
        }
        StringToCodepoints => {
            let s = string_arg(&args[0], "string-to-codepoints")?;
            Ok(s.chars().map(|c| Item::from(c as i64)).collect())
        }
        CodepointsToString => {
            let mut out = String::new();
            for item in &args[0] {
                let v = item.atomize().to_double().map_err(EngineError::from)? as u32;
                let c = char::from_u32(v).ok_or_else(|| {
                    EngineError::dynamic(ErrorCode::FORG0001, format!("invalid code point {v}"))
                })?;
                out.push(c);
            }
            Ok(Sequence::one(Item::from(out.as_str())))
        }
        XqaMovingSum | XqaMovingAvg => fn_xqa_moving(b, &args[0], &args[1]),
        Cast(target) => match opt_atomic(&args[0], "constructor function")? {
            None => Ok(Sequence::Empty),
            Some(v) => Ok(Sequence::one(Item::Atomic(cast_atomic(&v, target)?))),
        },
        XqaPaths => fn_xqa_paths(&args[0]),
        XqaCube => fn_xqa_cube(&args[0]),
    }
}

/// Helpers: 0-or-1-item argument, falling back to the focus item when
/// the argument list is empty (the `fn:string()` / `fn:name()` pattern).
fn zero_or_one_focus(
    mut args: Vec<Sequence>,
    cx: &FnCtx<'_>,
    what: &str,
) -> EngineResult<Option<Item>> {
    if args.is_empty() {
        return match cx.focus {
            Some(f) => Ok(Some(f.item.clone())),
            None => Err(no_context(what)),
        };
    }
    let arg = args.pop().expect("checked non-empty");
    match arg.len() {
        0 => Ok(None),
        1 => Ok(arg.into_iter().next()),
        n => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: expected at most one item, got {n}"),
        )),
    }
}

/// A string argument (empty sequence = "").
fn string_arg(seq: &[Item], what: &str) -> EngineResult<String> {
    Ok(opt_atomic(seq, what)?
        .map(|v| v.string_value())
        .unwrap_or_default())
}

/// Numeric accumulator over the tower integer → decimal → double.
enum NumAcc {
    Int(i64),
    Dec(Decimal),
    Dbl(f64),
}

impl NumAcc {
    fn add(self, v: &AtomicValue) -> EngineResult<NumAcc> {
        Ok(match (self, v) {
            (NumAcc::Int(a), AtomicValue::Integer(b)) => match a.checked_add(*b) {
                Some(s) => NumAcc::Int(s),
                None => NumAcc::Dec(
                    Decimal::from_i64(a)
                        .checked_add(&Decimal::from_i64(*b))
                        .map_err(EngineError::from)?,
                ),
            },
            (NumAcc::Int(a), AtomicValue::Decimal(b)) => NumAcc::Dec(
                Decimal::from_i64(a)
                    .checked_add(b)
                    .map_err(EngineError::from)?,
            ),
            (NumAcc::Dec(a), AtomicValue::Integer(b)) => NumAcc::Dec(
                a.checked_add(&Decimal::from_i64(*b))
                    .map_err(EngineError::from)?,
            ),
            (NumAcc::Dec(a), AtomicValue::Decimal(b)) => {
                NumAcc::Dec(a.checked_add(b).map_err(EngineError::from)?)
            }
            (acc, v) => {
                // Anything involving a double (or untyped data, which
                // casts to double for aggregation) collapses to f64.
                let base = match acc {
                    NumAcc::Int(a) => a as f64,
                    NumAcc::Dec(a) => a.to_f64(),
                    NumAcc::Dbl(a) => a,
                };
                NumAcc::Dbl(base + v.to_double().map_err(EngineError::from)?)
            }
        })
    }

    fn into_item(self) -> Item {
        match self {
            NumAcc::Int(v) => Item::from(v),
            NumAcc::Dec(v) => Item::Atomic(AtomicValue::Decimal(v)),
            NumAcc::Dbl(v) => Item::from(v),
        }
    }
}

/// Atomize and coerce to an aggregate-ready value (untyped → double).
fn aggregate_value(item: &Item, what: &str) -> EngineResult<AtomicValue> {
    let v = item.atomize();
    match v {
        AtomicValue::Untyped(ref s) => {
            let d = xqa_xdm::parse_double(s).map_err(|_| {
                EngineError::dynamic(
                    ErrorCode::FORG0006,
                    format!("{what}: cannot aggregate untyped value {s:?}"),
                )
            })?;
            Ok(AtomicValue::Double(d))
        }
        AtomicValue::Integer(_) | AtomicValue::Decimal(_) | AtomicValue::Double(_) => Ok(v),
        other => Err(EngineError::dynamic(
            ErrorCode::FORG0006,
            format!("{what}: {} values cannot be summed", other.atomic_type()),
        )),
    }
}

fn fn_sum(seq: &[Item], zero: Sequence) -> EngineResult<Sequence> {
    if seq.is_empty() {
        return Ok(zero);
    }
    let mut acc = NumAcc::Int(0);
    for item in seq {
        acc = acc.add(&aggregate_value(item, "sum")?)?;
    }
    Ok(Sequence::one(acc.into_item()))
}

fn fn_avg(seq: &[Item]) -> EngineResult<Sequence> {
    if seq.is_empty() {
        return Ok(Sequence::Empty);
    }
    let mut acc = NumAcc::Int(0);
    for item in seq {
        acc = acc.add(&aggregate_value(item, "avg")?)?;
    }
    let n = seq.len() as i64;
    let avg = match acc {
        NumAcc::Dbl(v) => Item::from(v / n as f64),
        NumAcc::Int(v) => {
            let d = Decimal::from_i64(v)
                .checked_div(&Decimal::from_i64(n))
                .map_err(EngineError::from)?;
            Item::Atomic(AtomicValue::Decimal(d))
        }
        NumAcc::Dec(v) => {
            let d = v
                .checked_div(&Decimal::from_i64(n))
                .map_err(EngineError::from)?;
            Item::Atomic(AtomicValue::Decimal(d))
        }
    };
    Ok(Sequence::one(avg))
}

fn fn_min_max(seq: &[Item], is_min: bool) -> EngineResult<Sequence> {
    if seq.is_empty() {
        return Ok(Sequence::Empty);
    }
    let mut best: Option<AtomicValue> = None;
    for item in seq {
        let mut v = item.atomize();
        // Untyped values are cast to double for min/max (F&O rule).
        if let AtomicValue::Untyped(s) = &v {
            v = AtomicValue::Double(xqa_xdm::parse_double(s).map_err(|_| {
                EngineError::dynamic(ErrorCode::FORG0006, format!("min/max: untyped value {s:?}"))
            })?);
        }
        // NaN poisons the whole aggregate.
        if matches!(v, AtomicValue::Double(d) if d.is_nan()) {
            return Ok(Sequence::one(Item::from(f64::NAN)));
        }
        best = Some(match best {
            None => v,
            Some(b) => {
                let ord = sort_compare(&v, &b).map_err(|_| {
                    EngineError::dynamic(ErrorCode::FORG0006, "min/max: incomparable values")
                })?;
                let take_new = if is_min { ord.is_lt() } else { ord.is_gt() };
                if take_new {
                    v
                } else {
                    b
                }
            }
        });
    }
    Ok(Sequence::one(Item::Atomic(best.expect("non-empty input"))))
}

fn fn_distinct_values(seq: &[Item]) -> EngineResult<Sequence> {
    let mut set = AtomicDistinctSet::new();
    let mut out = Vec::new();
    for item in seq {
        let v = item.atomize();
        if set.insert(&v) {
            out.push(Item::Atomic(v));
        }
    }
    Ok(out.into())
}

fn double_arg(seq: &[Item], what: &str) -> EngineResult<f64> {
    match opt_atomic(seq, what)? {
        Some(v) => Ok(v.to_double().map_err(EngineError::from)?),
        None => Err(EngineError::dynamic(
            ErrorCode::XPTY0004,
            format!("{what}: empty argument"),
        )),
    }
}

fn fn_subsequence(mut args: Vec<Sequence>) -> EngineResult<Sequence> {
    let len = if args.len() == 3 {
        Some(double_arg(
            &args.pop().expect("arity checked"),
            "subsequence length",
        )?)
    } else {
        None
    };
    let start = double_arg(&args.pop().expect("arity checked"), "subsequence start")?;
    let seq = args.pop().expect("arity checked");
    let start_r = start.round();
    let end_r = match len {
        None => f64::INFINITY,
        Some(l) => start_r + l.round(),
    };
    if start_r.is_nan() || end_r.is_nan() {
        return Ok(Sequence::Empty);
    }
    Ok(seq
        .into_iter()
        .enumerate()
        .filter(|(i, _)| {
            let p = (*i + 1) as f64;
            p >= start_r && p < end_r
        })
        .map(|(_, item)| item)
        .collect())
}

fn fn_insert_before(mut args: Vec<Sequence>) -> EngineResult<Sequence> {
    let inserts = args.pop().expect("arity checked");
    let pos = double_arg(
        &args.pop().expect("arity checked"),
        "insert-before position",
    )? as i64;
    let target = args.pop().expect("arity checked");
    let pos = pos.max(1).min(target.len() as i64 + 1) as usize - 1;
    let mut out = target.into_vec();
    // Splice the insert sequence at `pos`.
    let tail = out.split_off(pos);
    out.extend(inserts);
    out.extend(tail);
    Ok(out.into())
}

fn fn_remove(mut args: Vec<Sequence>) -> EngineResult<Sequence> {
    let pos = double_arg(&args.pop().expect("arity checked"), "remove position")? as i64;
    let seq = args.pop().expect("arity checked");
    if pos >= 1 && (pos as usize) <= seq.len() {
        let mut out = seq.into_vec();
        out.remove(pos as usize - 1);
        return Ok(out.into());
    }
    Ok(seq)
}

fn fn_index_of(seq: &[Item], search: &[Item]) -> EngineResult<Sequence> {
    let needle = match opt_atomic(search, "index-of search value")? {
        None => return Ok(Sequence::Empty),
        Some(v) => v,
    };
    let mut out = Vec::new();
    for (i, item) in seq.iter().enumerate() {
        let v = item.atomize();
        // `eq` semantics with incomparable = no match.
        let (a, b) = match (&v, &needle) {
            (AtomicValue::Untyped(_), n) if n.is_numeric() => (
                v.cast_untyped_as(needle.atomic_type()).ok(),
                Some(needle.clone()),
            ),
            _ => (Some(v.clone()), Some(needle.clone())),
        };
        if let (Some(a), Some(b)) = (a, b) {
            if matches!(
                xqa_xdm::value_compare(&a, &b, xqa_xdm::CompOp::Eq),
                Ok(true)
            ) {
                out.push(Item::from((i + 1) as i64));
            }
        }
    }
    Ok(out.into())
}

fn fn_substring(mut args: Vec<Sequence>) -> EngineResult<Sequence> {
    let len = if args.len() == 3 {
        Some(double_arg(
            &args.pop().expect("arity checked"),
            "substring length",
        )?)
    } else {
        None
    };
    let start = double_arg(&args.pop().expect("arity checked"), "substring start")?;
    let s = string_arg(&args.pop().expect("arity checked"), "substring")?;
    let start_r = start.round();
    let end_r = match len {
        None => f64::INFINITY,
        Some(l) => start_r + l.round(),
    };
    if start_r.is_nan() || end_r.is_nan() {
        return Ok(Sequence::one(Item::from("")));
    }
    let out: String = s
        .chars()
        .enumerate()
        .filter(|(i, _)| {
            let p = (*i + 1) as f64;
            p >= start_r && p < end_r
        })
        .map(|(_, c)| c)
        .collect();
    Ok(Sequence::one(Item::from(out.as_str())))
}

fn fn_numeric_unary(b: Builtin, seq: &[Item]) -> EngineResult<Sequence> {
    let v = match opt_atomic(seq, "numeric function")? {
        None => return Ok(Sequence::Empty),
        Some(v) => v,
    };
    let v = match v {
        AtomicValue::Untyped(ref s) => {
            AtomicValue::Double(xqa_xdm::parse_double(s).map_err(EngineError::from)?)
        }
        other => other,
    };
    let out = match (b, v) {
        (Builtin::Abs, AtomicValue::Integer(i)) => AtomicValue::Integer(i.abs()),
        (Builtin::Abs, AtomicValue::Decimal(d)) => AtomicValue::Decimal(d.abs()),
        (Builtin::Abs, AtomicValue::Double(d)) => AtomicValue::Double(d.abs()),
        (Builtin::Floor, AtomicValue::Integer(i)) => AtomicValue::Integer(i),
        (Builtin::Floor, AtomicValue::Decimal(d)) => AtomicValue::Decimal(d.floor()),
        (Builtin::Floor, AtomicValue::Double(d)) => AtomicValue::Double(d.floor()),
        (Builtin::Ceiling, AtomicValue::Integer(i)) => AtomicValue::Integer(i),
        (Builtin::Ceiling, AtomicValue::Decimal(d)) => AtomicValue::Decimal(d.ceiling()),
        (Builtin::Ceiling, AtomicValue::Double(d)) => AtomicValue::Double(d.ceil()),
        (Builtin::Round, AtomicValue::Integer(i)) => AtomicValue::Integer(i),
        (Builtin::Round, AtomicValue::Decimal(d)) => AtomicValue::Decimal(d.round()),
        (Builtin::Round, AtomicValue::Double(d)) => {
            // round half *up* (toward +INF) per F&O fn:round on doubles
            AtomicValue::Double((d + 0.5).floor())
        }
        (_, other) => {
            return Err(EngineError::dynamic(
                ErrorCode::XPTY0004,
                format!("numeric function applied to {}", other.atomic_type()),
            ))
        }
    };
    Ok(Sequence::one(Item::Atomic(out)))
}

fn fn_round_half_even(mut args: Vec<Sequence>) -> EngineResult<Sequence> {
    let precision = if args.len() == 2 {
        double_arg(
            &args.pop().expect("arity checked"),
            "round-half-to-even precision",
        )? as i32
    } else {
        0
    };
    let v = match opt_atomic(&args.pop().expect("arity checked"), "round-half-to-even")? {
        None => return Ok(Sequence::Empty),
        Some(v) => v,
    };
    let out = match v {
        AtomicValue::Integer(i) if precision >= 0 => AtomicValue::Integer(i),
        AtomicValue::Decimal(d) if precision >= 0 => {
            // Reuse decimal round-to with half-even via adjust: emulate by
            // rounding at precision with ties-to-even on the final digit.
            let scaled = d.round_to(precision as u32);
            // round_to is half-away; correct exact-half cases to even.
            let diff = d.checked_sub(&scaled).map_err(EngineError::from)?;
            let half = Decimal::parse(&format!("0.{}5", "0".repeat(precision as usize)))
                .expect("static literal");
            if diff.abs() == half {
                // exact tie: choose the even neighbour
                let unit = Decimal::parse(&format!("0.{}1", "0".repeat(precision as usize)))
                    .expect("static literal");
                let down = scaled.checked_sub(&unit).map_err(EngineError::from)?;
                let scaled_digit = last_digit(&scaled, precision as u32);
                AtomicValue::Decimal(if scaled_digit % 2 == 0 { scaled } else { down })
            } else {
                AtomicValue::Decimal(scaled)
            }
        }
        AtomicValue::Double(d) => {
            let factor = 10f64.powi(precision);
            let x = d * factor;
            let rounded = if (x - x.floor() - 0.5).abs() < f64::EPSILON {
                let f = x.floor();
                if (f as i64) % 2 == 0 {
                    f
                } else {
                    f + 1.0
                }
            } else {
                x.round()
            };
            AtomicValue::Double(rounded / factor)
        }
        other => {
            return Err(EngineError::dynamic(
                ErrorCode::XPTY0004,
                format!("round-half-to-even applied to {}", other.atomic_type()),
            ))
        }
    };
    Ok(Sequence::one(Item::Atomic(out)))
}

fn last_digit(d: &Decimal, precision: u32) -> i128 {
    if d.scale() < precision {
        return 0;
    }
    (d.mantissa() / 10i128.pow(d.scale() - precision)).abs() % 10
}

fn fn_datetime_component(b: Builtin, seq: &[Item]) -> EngineResult<Sequence> {
    let v = match opt_atomic(seq, "dateTime component")? {
        None => return Ok(Sequence::Empty),
        Some(v) => v,
    };
    let dt = match v {
        AtomicValue::DateTime(dt) => dt,
        AtomicValue::Untyped(ref s) | AtomicValue::String(ref s) => {
            xqa_xdm::DateTime::parse(s).map_err(EngineError::from)?
        }
        other => {
            return Err(EngineError::dynamic(
                ErrorCode::XPTY0004,
                format!("expected xs:dateTime, got {}", other.atomic_type()),
            ))
        }
    };
    let out = match b {
        Builtin::YearFromDateTime => Item::from(dt.year as i64),
        Builtin::MonthFromDateTime => Item::from(dt.month as i64),
        Builtin::DayFromDateTime => Item::from(dt.day as i64),
        Builtin::HoursFromDateTime => Item::from(dt.hour as i64),
        Builtin::MinutesFromDateTime => Item::from(dt.minute as i64),
        Builtin::SecondsFromDateTime => {
            if dt.nanos == 0 {
                Item::Atomic(AtomicValue::Decimal(Decimal::from_i64(dt.second as i64)))
            } else {
                Item::Atomic(AtomicValue::Decimal(Decimal::from_parts(
                    dt.second as i128 * 1_000_000_000 + dt.nanos as i128,
                    9,
                )))
            }
        }
        _ => unreachable!("dispatched subset"),
    };
    Ok(Sequence::one(out))
}

fn fn_date_component(b: Builtin, seq: &[Item]) -> EngineResult<Sequence> {
    let v = match opt_atomic(seq, "date component")? {
        None => return Ok(Sequence::Empty),
        Some(v) => v,
    };
    let d = match v {
        AtomicValue::Date(d) => d,
        AtomicValue::Untyped(ref s) | AtomicValue::String(ref s) => {
            xqa_xdm::Date::parse(s).map_err(EngineError::from)?
        }
        other => {
            return Err(EngineError::dynamic(
                ErrorCode::XPTY0004,
                format!("expected xs:date, got {}", other.atomic_type()),
            ))
        }
    };
    let out = match b {
        Builtin::YearFromDate => Item::from(d.year as i64),
        Builtin::MonthFromDate => Item::from(d.month as i64),
        Builtin::DayFromDate => Item::from(d.day as i64),
        _ => unreachable!("dispatched subset"),
    };
    Ok(Sequence::one(out))
}

/// `xqa:paths($roots as element()*) as xs:string*` — all slash-joined
/// paths through a category forest (the paper's §5 `local:paths`
/// membership function, provided as a builtin).
fn fn_xqa_paths(seq: &[Item]) -> EngineResult<Sequence> {
    let mut out = Vec::new();
    for item in seq {
        let node = match item {
            Item::Node(n) if n.kind() == NodeKind::Element => n,
            _ => {
                return Err(EngineError::dynamic(
                    ErrorCode::XPTY0004,
                    "xqa:paths expects element nodes",
                ))
            }
        };
        collect_paths(node, None, &mut out);
    }
    Ok(out.into())
}

fn collect_paths(node: &NodeHandle, prefix: Option<&str>, out: &mut Vec<Item>) {
    let name = node.name().map(|q| q.to_string()).unwrap_or_default();
    let path = match prefix {
        Some(p) => format!("{p}/{name}"),
        None => name,
    };
    out.push(Item::from(path.as_str()));
    for child in node.children() {
        if child.kind() == NodeKind::Element {
            collect_paths(&child, Some(&path), out);
        }
    }
}

/// `xqa:moving-sum($values, $window)` / `xqa:moving-avg($values, $window)`
/// — for each position i, the sum (avg) of the values in the window
/// ending at i (size min(i, $window)). A single O(n) pass, versus the
/// O(n * w) nested iteration of the paper's Q8 formulation; compared in
/// the `ablation` bench.
fn fn_xqa_moving(b: Builtin, values: &[Item], window: &[Item]) -> EngineResult<Sequence> {
    let w = match opt_atomic(window, "window size")? {
        Some(v) => v.to_double().map_err(EngineError::from)? as i64,
        None => {
            return Err(EngineError::dynamic(
                ErrorCode::XPTY0004,
                "window size required",
            ))
        }
    };
    if w < 1 {
        return Err(EngineError::dynamic(
            ErrorCode::FORG0001,
            format!("window size must be positive, got {w}"),
        ));
    }
    let w = w as usize;
    let nums: Vec<f64> = values
        .iter()
        .map(|item| item.atomize().to_double().map_err(EngineError::from))
        .collect::<EngineResult<_>>()?;
    let mut out = Vec::with_capacity(nums.len());
    let mut rolling = 0.0f64;
    for i in 0..nums.len() {
        rolling += nums[i];
        if i >= w {
            rolling -= nums[i - w];
        }
        let len = (i + 1).min(w);
        let value = if b == Builtin::XqaMovingSum {
            rolling
        } else {
            rolling / len as f64
        };
        out.push(Item::from(value));
    }
    Ok(out.into())
}

/// `xqa:cube($dims as item()*) as element()*` — the powerset of the
/// dimension sequence, each subset wrapped in a `<dims>` element whose
/// children are copies of the chosen dimension items (§5 `local:cube`).
/// Atomic dimensions are wrapped in `<dim>` elements carrying their
/// string value.
fn fn_xqa_cube(seq: &[Item]) -> EngineResult<Sequence> {
    if seq.len() > 20 {
        return Err(EngineError::dynamic(
            ErrorCode::Other,
            format!(
                "xqa:cube: {} dimensions would produce 2^{} subsets",
                seq.len(),
                seq.len()
            ),
        ));
    }
    let n = seq.len() as u32;
    let mut out = Vec::with_capacity(1 << n);
    for mask in 0..(1u32 << n) {
        let mut b = DocumentBuilder::new();
        b.start_element(QName::local("dims"));
        for (i, item) in seq.iter().enumerate() {
            if mask & (1 << i) != 0 {
                match item {
                    Item::Node(node) => {
                        b.copy_node(node);
                    }
                    Item::Atomic(v) => {
                        b.start_element(QName::local("dim"));
                        b.text(&v.string_value());
                        b.end_element();
                    }
                }
            }
        }
        b.end_element();
        let doc = b.finish();
        let dims = doc.root().children().next().expect("dims element built");
        out.push(Item::Node(dims));
    }
    Ok(out.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_xdm::{seq, DocumentBuilder};

    fn cx_owned() -> DynamicContext {
        DynamicContext::new()
    }

    fn call(b: Builtin, args: Vec<Sequence>) -> EngineResult<Sequence> {
        let dynamic = cx_owned();
        let cx = FnCtx {
            focus: None,
            dynamic: &dynamic,
        };
        dispatch(b, args, &cx)
    }

    fn dec(s: &str) -> Item {
        Item::Atomic(AtomicValue::Decimal(Decimal::parse(s).unwrap()))
    }

    #[test]
    fn count_sum_avg() {
        let seq = seq![dec("65.00"), dec("43.00"), dec("57.00")];
        assert_eq!(
            call(Builtin::Count, vec![seq.clone()]).unwrap()[0].string_value(),
            "3"
        );
        assert_eq!(
            call(Builtin::Sum, vec![seq.clone()]).unwrap()[0].string_value(),
            "165"
        );
        assert_eq!(
            call(Builtin::Avg, vec![seq]).unwrap()[0].string_value(),
            "55"
        );
    }

    #[test]
    fn avg_of_untyped_goes_double() {
        let seq = seq![
            Item::Atomic(AtomicValue::untyped("1")),
            Item::Atomic(AtomicValue::untyped("2")),
        ];
        let out = call(Builtin::Avg, vec![seq]).unwrap();
        assert!(matches!(out[0], Item::Atomic(AtomicValue::Double(d)) if d == 1.5));
    }

    #[test]
    fn sum_empty_returns_zero_or_custom() {
        assert_eq!(
            call(Builtin::Sum, vec![seq![]]).unwrap()[0].string_value(),
            "0"
        );
        let custom = call(Builtin::Sum, vec![seq![], seq![Item::from("none")]]).unwrap();
        assert_eq!(custom[0].string_value(), "none");
        assert!(call(Builtin::Avg, vec![seq![]]).unwrap().is_empty());
    }

    #[test]
    fn sum_integer_overflow_widens() {
        let seq = seq![Item::from(i64::MAX), Item::from(1i64)];
        let out = call(Builtin::Sum, vec![seq]).unwrap();
        assert_eq!(out[0].string_value(), "9223372036854775808");
    }

    #[test]
    fn min_max_across_types() {
        let seq = seq![Item::from(3i64), dec("2.5"), Item::from(4.0f64)];
        assert_eq!(
            call(Builtin::Min, vec![seq.clone()]).unwrap()[0].string_value(),
            "2.5"
        );
        assert_eq!(
            call(Builtin::Max, vec![seq]).unwrap()[0].string_value(),
            "4"
        );
        // strings compare too
        let strs = seq![Item::from("pear"), Item::from("apple")];
        assert_eq!(
            call(Builtin::Min, vec![strs]).unwrap()[0].string_value(),
            "apple"
        );
        // NaN poisons
        let with_nan = seq![Item::from(1i64), Item::from(f64::NAN)];
        assert_eq!(
            call(Builtin::Min, vec![with_nan]).unwrap()[0].string_value(),
            "NaN"
        );
        // incomparable mix errors
        let mixed = seq![Item::from(1i64), Item::from("x")];
        assert!(call(Builtin::Min, vec![mixed]).is_err());
    }

    #[test]
    fn distinct_values_dedups_preserving_first() {
        let seq = seq![
            Item::from("b"),
            Item::from("a"),
            Item::from("b"),
            Item::from(2i64),
            Item::from(2.0f64),
        ];
        let out = call(Builtin::DistinctValues, vec![seq]).unwrap();
        let strs: Vec<String> = out.iter().map(|i| i.string_value()).collect();
        assert_eq!(strs, ["b", "a", "2"]);
    }

    #[test]
    fn sequence_utilities() {
        let seq: Sequence = (1..=5).map(Item::from).collect();
        let rev = call(Builtin::Reverse, vec![seq.clone()]).unwrap();
        assert_eq!(rev[0].string_value(), "5");
        let sub = call(
            Builtin::Subsequence,
            vec![seq.clone(), seq![Item::from(2i64)], seq![Item::from(2i64)]],
        )
        .unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].string_value(), "2");
        let ins = call(
            Builtin::InsertBefore,
            vec![seq.clone(), seq![Item::from(1i64)], seq![Item::from(0i64)]],
        )
        .unwrap();
        assert_eq!(ins[0].string_value(), "0");
        assert_eq!(ins.len(), 6);
        let rem = call(Builtin::Remove, vec![seq.clone(), seq![Item::from(1i64)]]).unwrap();
        assert_eq!(rem.len(), 4);
        assert_eq!(rem[0].string_value(), "2");
        let idx = call(Builtin::IndexOf, vec![seq, seq![Item::from(3i64)]]).unwrap();
        assert_eq!(idx[0].string_value(), "3");
    }

    #[test]
    fn cardinality_checks() {
        assert!(call(Builtin::ZeroOrOne, vec![seq![]]).is_ok());
        assert!(call(
            Builtin::ZeroOrOne,
            vec![seq![Item::from(1i64), Item::from(2i64)]]
        )
        .is_err());
        assert!(call(Builtin::OneOrMore, vec![seq![]]).is_err());
        assert!(call(Builtin::ExactlyOne, vec![seq![Item::from(1i64)]]).is_ok());
        assert!(call(Builtin::ExactlyOne, vec![seq![]]).is_err());
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call(
                Builtin::Concat,
                vec![seq![Item::from("a")], seq![Item::from("b")], seq![]]
            )
            .unwrap()[0]
                .string_value(),
            "ab"
        );
        assert_eq!(
            call(
                Builtin::Substring,
                vec![seq![Item::from("motor car")], seq![Item::from(6i64)]]
            )
            .unwrap()[0]
                .string_value(),
            " car"
        );
        assert_eq!(
            call(
                Builtin::Substring,
                vec![
                    seq![Item::from("metadata")],
                    seq![Item::from(4i64)],
                    seq![Item::from(3i64)]
                ]
            )
            .unwrap()[0]
                .string_value(),
            "ada"
        );
        assert_eq!(
            call(Builtin::NormalizeSpace, vec![seq![Item::from("  a  b ")]]).unwrap()[0]
                .string_value(),
            "a b"
        );
        assert_eq!(
            call(
                Builtin::Translate,
                vec![
                    seq![Item::from("bar")],
                    seq![Item::from("abc")],
                    seq![Item::from("ABC")]
                ]
            )
            .unwrap()[0]
                .string_value(),
            "BAr"
        );
        assert_eq!(
            call(
                Builtin::SubstringBefore,
                vec![seq![Item::from("a/b/c")], seq![Item::from("/")]]
            )
            .unwrap()[0]
                .string_value(),
            "a"
        );
        assert_eq!(
            call(
                Builtin::SubstringAfter,
                vec![seq![Item::from("a/b/c")], seq![Item::from("/")]]
            )
            .unwrap()[0]
                .string_value(),
            "b/c"
        );
    }

    #[test]
    fn number_never_errors() {
        assert_eq!(
            call(Builtin::NumberFn, vec![seq![Item::from("42")]]).unwrap()[0].string_value(),
            "42"
        );
        assert_eq!(
            call(Builtin::NumberFn, vec![seq![Item::from("nope")]]).unwrap()[0].string_value(),
            "NaN"
        );
        assert_eq!(
            call(Builtin::NumberFn, vec![seq![]]).unwrap()[0].string_value(),
            "NaN"
        );
    }

    #[test]
    fn rounding_family() {
        assert_eq!(
            call(Builtin::Floor, vec![seq![dec("2.7")]]).unwrap()[0].string_value(),
            "2"
        );
        assert_eq!(
            call(Builtin::Ceiling, vec![seq![dec("2.1")]]).unwrap()[0].string_value(),
            "3"
        );
        assert_eq!(
            call(Builtin::Round, vec![seq![dec("2.5")]]).unwrap()[0].string_value(),
            "3"
        );
        // fn:round on double: round half toward +INF
        assert_eq!(
            call(Builtin::Round, vec![seq![Item::from(-2.5f64)]]).unwrap()[0].string_value(),
            "-2"
        );
        assert_eq!(
            call(Builtin::RoundHalfToEven, vec![seq![Item::from(2.5f64)]]).unwrap()[0]
                .string_value(),
            "2"
        );
        assert_eq!(
            call(Builtin::RoundHalfToEven, vec![seq![Item::from(3.5f64)]]).unwrap()[0]
                .string_value(),
            "4"
        );
        assert!(call(Builtin::Abs, vec![seq![]]).unwrap().is_empty());
    }

    #[test]
    fn datetime_components() {
        let dt = seq![Item::Atomic(AtomicValue::untyped("2004-01-31T11:32:07"))];
        assert_eq!(
            call(Builtin::YearFromDateTime, vec![dt.clone()]).unwrap()[0].string_value(),
            "2004"
        );
        assert_eq!(
            call(Builtin::MonthFromDateTime, vec![dt.clone()]).unwrap()[0].string_value(),
            "1"
        );
        assert_eq!(
            call(Builtin::DayFromDateTime, vec![dt.clone()]).unwrap()[0].string_value(),
            "31"
        );
        assert_eq!(
            call(Builtin::HoursFromDateTime, vec![dt.clone()]).unwrap()[0].string_value(),
            "11"
        );
        assert_eq!(
            call(Builtin::SecondsFromDateTime, vec![dt]).unwrap()[0].string_value(),
            "7"
        );
        let d = seq![Item::Atomic(AtomicValue::untyped("1993-06-15"))];
        assert_eq!(
            call(Builtin::YearFromDate, vec![d.clone()]).unwrap()[0].string_value(),
            "1993"
        );
        assert_eq!(
            call(Builtin::DayFromDate, vec![d]).unwrap()[0].string_value(),
            "15"
        );
    }

    #[test]
    fn xs_constructors() {
        assert_eq!(
            call(
                Builtin::Cast(CastTarget::Integer),
                vec![seq![Item::from("7")]]
            )
            .unwrap()[0]
                .string_value(),
            "7"
        );
        assert!(call(Builtin::Cast(CastTarget::Integer), vec![seq![]])
            .unwrap()
            .is_empty());
        assert!(call(
            Builtin::Cast(CastTarget::Integer),
            vec![seq![Item::from("x")]]
        )
        .is_err());
    }

    #[test]
    fn error_fn_raises() {
        let err = call(Builtin::ErrorFn, vec![]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::FOER0000);
        let err = call(
            Builtin::ErrorFn,
            vec![seq![Item::from("code")], seq![Item::from("boom")]],
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn resolve_names() {
        assert_eq!(resolve(None, "avg"), Some(Builtin::Avg));
        assert_eq!(resolve(Some("fn"), "deep-equal"), Some(Builtin::DeepEqual));
        assert_eq!(
            resolve(Some("xs"), "decimal"),
            Some(Builtin::Cast(CastTarget::Decimal))
        );
        assert_eq!(resolve(Some("xqa"), "paths"), Some(Builtin::XqaPaths));
        assert_eq!(resolve(None, "nonsense"), None);
        assert_eq!(resolve(Some("other"), "avg"), None);
    }

    #[test]
    fn names_are_spelled_as_queries_spell_them() {
        assert_eq!(name(Builtin::Count), "fn:count");
        assert_eq!(name(Builtin::NumberFn), "fn:number");
        assert_eq!(name(Builtin::Cast(CastTarget::Integer)), "xs:integer");
        assert_eq!(name(Builtin::XqaCube), "xqa:cube");
        // Every printed name resolves back to its builtin.
        for &(_, _, b) in BUILTINS {
            let printed = name(b);
            let (prefix, local) = printed.split_once(':').unwrap();
            assert_eq!(resolve(Some(prefix), local), Some(b), "{printed}");
        }
    }

    #[test]
    fn xqa_paths_walks_category_forest() {
        // <categories><software><db><concurrency/></db><distributed/></software></categories>
        let mut b = DocumentBuilder::new();
        b.start_element(QName::local("categories"));
        b.start_element(QName::local("software"));
        b.start_element(QName::local("db"));
        b.start_element(QName::local("concurrency")).end_element();
        b.end_element();
        b.start_element(QName::local("distributed")).end_element();
        b.end_element();
        b.end_element();
        let doc = b.finish();
        let cats = doc.root().children().next().unwrap();
        let roots: Sequence = cats.children().map(Item::Node).collect();
        let out = call(Builtin::XqaPaths, vec![roots]).unwrap();
        let paths: Vec<String> = out.iter().map(|i| i.string_value()).collect();
        assert_eq!(
            paths,
            [
                "software",
                "software/db",
                "software/db/concurrency",
                "software/distributed"
            ]
        );
    }

    #[test]
    fn xqa_cube_powerset() {
        let dims = seq![Item::from("A"), Item::from("B")];
        let out = call(Builtin::XqaCube, vec![dims]).unwrap();
        assert_eq!(out.len(), 4);
        // Every subset is a <dims> element.
        for item in &out {
            let n = item.as_node().unwrap();
            assert_eq!(n.name().unwrap().local_part(), "dims");
        }
        // Sizes: {}, {A}, {B}, {A,B}
        let mut sizes: Vec<usize> = out
            .iter()
            .map(|i| i.as_node().unwrap().children().count())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [0, 1, 1, 2]);
        // Guard against exponential blowup.
        let many: Sequence = (0..25).map(Item::from).collect();
        assert!(call(Builtin::XqaCube, vec![many]).is_err());
    }

    #[test]
    fn focus_dependent_functions_error_without_focus() {
        assert!(call(Builtin::Position, vec![]).is_err());
        assert!(call(Builtin::Last, vec![]).is_err());
        assert!(call(Builtin::StringFn, vec![]).is_err());
    }

    #[test]
    fn arity_table_spot_checks() {
        assert_eq!(arity(Builtin::Count), (1, 1));
        assert_eq!(arity(Builtin::Concat), (2, usize::MAX));
        assert_eq!(arity(Builtin::Substring), (2, 3));
        assert_eq!(arity(Builtin::Position), (0, 0));
        assert_eq!(arity(Builtin::StringFn), (0, 1));
    }
}
