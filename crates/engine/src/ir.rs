//! Compiled intermediate representation.
//!
//! The compiler lowers the AST into this IR, resolving:
//! - variable references to *frame slots* (indices into a flat
//!   per-invocation environment), enforcing the paper's §3.2 scoping
//!   rule at compile time;
//! - function names to builtin ids or user-function indices;
//! - decimal literals to exact [`Decimal`] values;
//! - AST names to interned [`QName`]s.
//!
//! The evaluator walks this IR directly; FLWOR clauses form an explicit
//! tuple-stream pipeline mirroring the paper's §3.1 description.

use crate::functions::Builtin;
use xqa_frontend::ast::{ArithOp, NodeComparison, Quantifier, SetOp};
use xqa_storage::DocumentStore;
use xqa_xdm::{AtomicValue, CompOp, Decimal, NodeId, QName};

/// Index of a variable slot in the current frame.
pub type Slot = usize;

/// Index of a global (prolog-declared) variable.
pub type GlobalSlot = usize;

/// Index of a user-declared function.
pub type FunctionId = usize;

/// A compiled expression.
#[derive(Debug, Clone)]
pub enum Ir {
    /// String constant.
    Str(std::sync::Arc<str>),
    /// Integer constant.
    Int(i64),
    /// Decimal constant.
    Dec(Decimal),
    /// Double constant.
    Dbl(f64),
    /// The empty sequence.
    Empty,
    /// Sequence concatenation.
    Seq(Vec<Ir>),
    /// A local variable.
    Var(Slot),
    /// A global variable.
    Global(GlobalSlot),
    /// The context item (`.`).
    ContextItem,
    /// `a to b`.
    Range(Box<Ir>, Box<Ir>),
    /// Binary arithmetic.
    Arith(ArithOp, Box<Ir>, Box<Ir>),
    /// Unary minus (unary plus folds away).
    Neg(Box<Ir>),
    /// General comparison (existential).
    GeneralComp(CompOp, Box<Ir>, Box<Ir>),
    /// Value comparison (singleton).
    ValueComp(CompOp, Box<Ir>, Box<Ir>),
    /// Node comparison.
    NodeComp(NodeComparison, Box<Ir>, Box<Ir>),
    /// Short-circuit conjunction.
    And(Box<Ir>, Box<Ir>),
    /// Short-circuit disjunction.
    Or(Box<Ir>, Box<Ir>),
    /// `union` / `intersect` / `except` over node sequences.
    SetOp(SetOp, Box<Ir>, Box<Ir>),
    /// Conditional.
    If(Box<Ir>, Box<Ir>, Box<Ir>),
    /// `some`/`every ... satisfies`.
    Quantified {
        /// `some` or `every`.
        kind: Quantifier,
        /// Bindings evaluated left to right.
        bindings: Vec<(Slot, Ir)>,
        /// The predicate.
        satisfies: Box<Ir>,
    },
    /// A FLWOR pipeline.
    Flwor(Box<FlworIr>),
    /// A path expression.
    Path(Box<PathIr>),
    /// Predicates over an arbitrary base.
    Filter {
        /// Base expression.
        base: Box<Ir>,
        /// Predicates applied left to right.
        predicates: Vec<Ir>,
    },
    /// Call to a built-in function.
    CallBuiltin(Builtin, Vec<Ir>),
    /// Call to a user-declared function.
    CallUser(FunctionId, Vec<Ir>),
    /// Direct or computed element constructor.
    Element(Box<ElementIr>),
    /// Computed attribute constructor.
    Attribute {
        /// Attribute name.
        name: QName,
        /// Value expression.
        value: Option<Box<Ir>>,
    },
    /// Computed text constructor.
    Text(Option<Box<Ir>>),
    /// Comment constructor (direct form has constant text).
    Comment(std::sync::Arc<str>),
    /// PI constructor.
    Pi(QName, std::sync::Arc<str>),
    /// `instance of` check.
    InstanceOf(Box<Ir>, SeqTypeIr),
    /// `cast as` (target type, empty-allowed flag).
    Cast(Box<Ir>, CastTarget, bool),
    /// `castable as` (target type, empty-allowed flag).
    Castable(Box<Ir>, CastTarget, bool),
}

/// A compiled element constructor (direct or computed).
#[derive(Debug, Clone)]
pub struct ElementIr {
    /// Element name.
    pub name: QName,
    /// Attributes: name plus value-template parts.
    pub attributes: Vec<(QName, Vec<AttrPartIr>)>,
    /// Content parts in document order.
    pub content: Vec<ContentIr>,
}

/// One part of an attribute value template.
#[derive(Debug, Clone)]
pub enum AttrPartIr {
    /// Literal text.
    Literal(std::sync::Arc<str>),
    /// `{ expr }` — atomized and space-joined.
    Enclosed(Ir),
}

/// One part of element content.
#[derive(Debug, Clone)]
pub enum ContentIr {
    /// Literal text.
    Literal(std::sync::Arc<str>),
    /// `{ expr }` — inserted per the construction rules.
    Enclosed(Ir),
    /// A nested constructor.
    Child(Ir),
}

/// Cast target types supported by `cast as` and constructor functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastTarget {
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

/// A compiled sequence type for runtime checks.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqTypeIr {
    /// Item test.
    pub item: ItemTypeIr,
    /// Occurrence bounds.
    pub occurrence: OccurrenceIr,
}

/// Runtime item tests.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemTypeIr {
    /// `item()`
    AnyItem,
    /// `node()`
    AnyNode,
    /// `element(name?)`
    Element(Option<QName>),
    /// `attribute(name?)`
    Attribute(Option<QName>),
    /// `document-node()`
    Document,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// A named atomic type.
    Atomic(CastTarget),
    /// `xs:anyAtomicType` — any atomic value.
    AnyAtomic,
    /// `empty-sequence()`
    EmptySequence,
}

/// Occurrence bounds for sequence types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccurrenceIr {
    /// Exactly one item.
    One,
    /// Zero or one.
    Optional,
    /// Any number.
    ZeroOrMore,
    /// At least one.
    OneOrMore,
}

/// A compiled FLWOR expression.
#[derive(Debug, Clone)]
pub struct FlworIr {
    /// The pipeline: one operator record per clause, in source order.
    pub ops: Vec<OpIr>,
    /// Slot for the output positional variable (`return at $v`).
    pub return_at: Option<Slot>,
    /// The return expression.
    pub return_expr: Ir,
    /// The planner's row estimate for the `ReturnAt` sink: one output
    /// ordinal per tuple that survives the last operator. `None` until
    /// [`crate::rewrite::plan`] runs, and where it has no basis.
    pub return_estimate: Option<u64>,
}

impl FlworIr {
    /// The clauses of the pipeline, in source order.
    pub fn clauses(&self) -> impl Iterator<Item = &ClauseIr> {
        self.ops.iter().map(|op| &op.clause)
    }
}

/// One operator of a FLWOR pipeline: a clause and everything the
/// planner knows about how it runs. Which operator that is
/// ([`OpKind::of`]), its plan label and its profile row are all read
/// off this record, so a planner rule records a new per-operator fact
/// by adding a field here.
#[derive(Debug, Clone)]
pub struct OpIr {
    /// The clause as compiled. Annotations never rewrite it, so the
    /// nested-loop plan of an unnested join stays available (the
    /// `join=nested` differential baseline, and the per-probe fallback
    /// scan).
    pub clause: ClauseIr,
    /// Set by the planner's join-unnesting rule on a `let` or `where`
    /// whose nested equality predicate runs as a [`OpKind::HashJoin`]
    /// probe.
    pub join: Option<JoinIr>,
    /// The planner's estimate of the rows this operator emits (see
    /// [`crate::estimate`]). `None` before [`crate::rewrite::plan`]
    /// runs, and where it has no basis.
    pub estimate: Option<u64>,
    /// Set by the planner's nest-aggregation rule on a `group by`: the
    /// positions in [`GroupByIr::nests`] of the nests read only through
    /// `count(...)`. The group operator keeps a running item count for
    /// each instead of its members and binds the nest slot to that
    /// `xs:integer`; the rule has turned every `count($nest)` into a
    /// read of the slot.
    pub counted_nests: Vec<usize>,
    /// Set by the planner's value-id grouping rule on a `group by` whose
    /// every key is `$v/N` (one predicate-free `child::N` step from a
    /// variable): per key, `$v`'s slot and `N`. The group operator then
    /// keys a tuple by the document store's dictionary ids of `$v`'s
    /// `N` children instead of a canonical key string, and falls back to
    /// the canonical string for the rest of the run at the first tuple
    /// the store cannot code (`GroupTable` in `pipeline/partial.rs`).
    pub value_keys: Vec<(Slot, QName)>,
    /// Set by the planner's value-probe rule on a `for` directly followed
    /// by a `where` whose leading conjuncts are `$v/c = $x`: per conjunct,
    /// `c` and `$x`'s slot. `ForScan` drops the nodes the value index
    /// proves they reject (`binding_sequence` in `pipeline.rs`).
    pub probes: Vec<(QName, Slot)>,
    /// Set by the planner's source-hoisting rule on a `for` that is not
    /// its FLWOR's first clause, or on a `let $v := G` whose FLWOR `G`
    /// starts with a `for`, when that source reads no slot the enclosing
    /// FLWOR (or `G`) binds: the pipeline evaluates the source at the
    /// first tuple and keeps it for the rest of the FLWOR execution
    /// (`SourceCell` in `pipeline.rs`).
    pub hoist: bool,
}

impl From<ClauseIr> for OpIr {
    /// The unplanned record of a clause.
    fn from(clause: ClauseIr) -> OpIr {
        OpIr {
            clause,
            join: None,
            estimate: None,
            counted_nests: Vec::new(),
            value_keys: Vec::new(),
            probes: Vec::new(),
            hoist: false,
        }
    }
}

impl OpIr {
    /// The plan detail: a join's key description (and `value index c` when
    /// the store answers its `$y/c` build key), a bounded order-by's
    /// `limit=k`, the index access path of a `for` over an annotated
    /// path (so plans show where the tuples come from), a kept source as
    /// `source once` and its value probes as `probe c ..`, a `let` that
    /// keeps its FLWOR's first source as `inner source once`, a
    /// group-by's `keys by value id` and its counted nests as
    /// `agg count($v)`; else empty.
    pub fn detail(&self) -> String {
        if let Some(j) = crate::rewrite::joined(self) {
            return match j.index_key {
                Some(c) => format!("{}, value index {c}", j.key_desc()),
                None => j.key_desc(),
            };
        }
        match &self.clause {
            ClauseIr::OrderBy(OrderByIr { limit: Some(k), .. }) => format!("limit={k}"),
            ClauseIr::GroupBy(g) => {
                let mut facts = Vec::new();
                if !self.value_keys.is_empty() {
                    facts.push("keys by value id".to_string());
                }
                if !self.counted_nests.is_empty() {
                    let counts: Vec<String> = self
                        .counted_nests
                        .iter()
                        .map(|&i| format!("count(${})", g.nests[i].var))
                        .collect();
                    facts.push(format!("agg {}", counts.join(", ")));
                }
                facts.join(", ")
            }
            ClauseIr::For { expr, .. } => {
                let mut facts = Vec::new();
                if let Ir::Path(p) = expr {
                    facts.push(p.describe_access(false));
                }
                if self.hoist {
                    facts.push("source once".to_string());
                }
                if !self.probes.is_empty() {
                    let names: Vec<String> =
                        self.probes.iter().map(|(c, _)| c.to_string()).collect();
                    facts.push(format!("probe {}", names.join(" ")));
                }
                facts.retain(|fact| !fact.is_empty());
                facts.join(", ")
            }
            ClauseIr::Let { .. } if self.hoist => "inner source once".to_string(),
            _ => String::new(),
        }
    }

    /// The plan label of this operator (see [`OpKind::label`]).
    pub fn label(&self) -> String {
        OpKind::of(self).label(&self.detail())
    }
}

/// The operator kinds of the streaming pipeline ([`crate::pipeline`]):
/// the eight a clause can run as, plus the `ReturnAt` sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `for $v (at $i)? in e`: fan-out scan.
    ForScan,
    /// `let $v := e`: 1:1 binder.
    LetBind,
    /// `where e`: streaming filter.
    Filter,
    /// `count $v`: ordinal binder.
    CountBind,
    /// Window clause scan.
    WindowScan,
    /// `group by`: hash aggregation over deep-equal keys
    /// ([`crate::keys::GroupIndex`]).
    GroupConsume,
    /// `order by`: full sort, or a bounded binary heap when
    /// [`OrderByIr::limit`] is set (top-k in O(n log k)).
    OrderBy,
    /// Unnested join probe (`let` binding or existential filter with a
    /// [`JoinIr`] annotation): streams tuples against a build table
    /// materialized once per FLWOR execution.
    HashJoin,
    /// The sink: binds `return at` ordinals, evaluates the return expr.
    ReturnAt,
}

impl OpKind {
    /// Every operator kind, in pipeline order of introduction.
    pub const ALL: [OpKind; 9] = [
        OpKind::ForScan,
        OpKind::LetBind,
        OpKind::Filter,
        OpKind::CountBind,
        OpKind::WindowScan,
        OpKind::GroupConsume,
        OpKind::OrderBy,
        OpKind::HashJoin,
        OpKind::ReturnAt,
    ];

    /// The operator a clause record runs as.
    pub fn of(op: &OpIr) -> OpKind {
        if op.join.is_some() {
            return OpKind::HashJoin;
        }
        match &op.clause {
            ClauseIr::For { .. } => OpKind::ForScan,
            ClauseIr::Let { .. } => OpKind::LetBind,
            ClauseIr::Where(_) => OpKind::Filter,
            ClauseIr::Count { .. } => OpKind::CountBind,
            ClauseIr::Window(_) => OpKind::WindowScan,
            ClauseIr::GroupBy(_) => OpKind::GroupConsume,
            ClauseIr::OrderBy(_) => OpKind::OrderBy,
        }
    }

    /// The operator's display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            OpKind::ForScan => "ForScan",
            OpKind::LetBind => "LetBind",
            OpKind::Filter => "Filter",
            OpKind::CountBind => "CountBind",
            OpKind::WindowScan => "WindowScan",
            OpKind::GroupConsume => "GroupConsume",
            OpKind::OrderBy => "OrderBy",
            OpKind::HashJoin => "HashJoin",
            OpKind::ReturnAt => "ReturnAt",
        }
    }

    /// Whether this operator is a pipeline breaker: it must consume its
    /// whole input before it emits, where every other operator passes
    /// tuples through batch-at-a-time (`HashJoin` included: only its
    /// build side is materialized, not the tuple stream).
    pub fn materializes(&self) -> bool {
        matches!(self, OpKind::GroupConsume | OpKind::OrderBy)
    }

    /// The plan label `explain`'s `pipeline:` line, profile rows, plan
    /// signatures and the worst misestimate all print: name,
    /// `(detail)`, and on a breaker `[materializes]` — or `[heap]` for
    /// an order-by whose detail is its top-k limit, which keeps k
    /// tuples, not its input.
    pub fn label(&self, detail: &str) -> String {
        let name = self.as_str();
        let tag = match self {
            OpKind::OrderBy if !detail.is_empty() => " [heap]",
            kind if kind.materializes() => " [materializes]",
            _ => "",
        };
        match detail {
            "" => format!("{name}{tag}"),
            detail => format!("{name}({detail}){tag}"),
        }
    }
}

/// A join-graph annotation on a nested selection whose predicate is
/// one equality, proven unnestable into a hash join (see
/// [`crate::rewrite`] for the detection rules). It records only what the
/// planner decided: `HashJoin`, `explain` and the estimator read the
/// inner variable, the source, the predicate and the `let`'s slot and
/// type from the clause itself (`rewrite::joined`).
#[derive(Debug, Clone)]
pub struct JoinIr {
    /// Whether the build key, the operand that references `$y` (atomized
    /// per build item into the table's keys), is the equality's right
    /// operand; the probe key is the other one (atomized per probing
    /// tuple into lookup keys).
    pub build_rhs: bool,
    /// Set by the planner's value-probe rule (on unless `access=walk`):
    /// where the build key is `$y/c` under `=`, `HashJoin` answers a
    /// probe from the document store's value index where it can
    /// (`HashJoin` in `pipeline.rs`).
    pub indexed: bool,
}

/// A compact one-line rendering of a join key expression for rewrite
/// notes and the `[hash join key=…]` explain tag.
pub(crate) fn expr_oneline(ir: &Ir) -> String {
    match ir {
        Ir::Var(s) => format!("$slot{s}"),
        Ir::Global(g) => format!("$global{g}"),
        Ir::ContextItem => ".".to_string(),
        Ir::Str(s) => format!("{s:?}"),
        Ir::Int(v) => v.to_string(),
        Ir::Dec(d) => d.to_string(),
        Ir::Dbl(v) => v.to_string(),
        Ir::Path(p) => {
            let mut out = match &p.start {
                PathStartIr::Context => String::new(),
                PathStartIr::Root => "/".to_string(),
                PathStartIr::Expr(e) => expr_oneline(e),
            };
            for step in &p.steps {
                if !out.is_empty() && !out.ends_with('/') {
                    out.push('/');
                }
                match step {
                    StepIr::Axis {
                        test: NodeTestIr::Name(q),
                        ..
                    } => out.push_str(&q.to_string()),
                    _ => out.push_str("step()"),
                }
            }
            out
        }
        _ => "expr()".to_string(),
    }
}

/// One clause of the pipeline.
#[derive(Debug, Clone)]
pub enum ClauseIr {
    /// `for $v (at $i)? in e` — fan out.
    For {
        /// Slot bound per item.
        slot: Slot,
        /// Input-position slot (`at`).
        at_slot: Option<Slot>,
        /// Declared type check, if any.
        ty: Option<SeqTypeIr>,
        /// Binding sequence.
        expr: Ir,
    },
    /// `let $v := e`.
    Let {
        /// Slot bound to the whole sequence.
        slot: Slot,
        /// Declared type check, if any.
        ty: Option<SeqTypeIr>,
        /// Bound expression.
        expr: Ir,
    },
    /// `where e` — filter tuples.
    Where(Ir),
    /// `count $v` — number tuples at this pipeline point (XQuery 3.0).
    Count {
        /// Slot bound to the 1-based ordinal.
        slot: Slot,
    },
    /// `for tumbling|sliding window` (XQuery 3.0 windows).
    Window(Box<WindowIr>),
    /// `group by ... nest ...` — the paper's §3 operator.
    GroupBy(GroupByIr),
    /// `order by` — blocking sort.
    OrderBy(OrderByIr),
}

/// A compiled window clause.
#[derive(Debug, Clone)]
pub struct WindowIr {
    /// Overlapping (`sliding`) vs disjoint (`tumbling`) windows.
    pub sliding: bool,
    /// Slot bound to each window's item sequence.
    pub slot: Slot,
    /// The binding sequence.
    pub expr: Ir,
    /// Start condition.
    pub start: WindowCondIr,
    /// End condition.
    pub end: Option<WindowCondIr>,
    /// Drop windows whose end condition never matched.
    pub only_end: bool,
}

/// A compiled window boundary condition.
#[derive(Debug, Clone)]
pub struct WindowCondIr {
    /// Slot for the boundary item.
    pub item_slot: Option<Slot>,
    /// Slot for the boundary position.
    pub at_slot: Option<Slot>,
    /// Slot for the item before the boundary.
    pub previous_slot: Option<Slot>,
    /// Slot for the item after the boundary.
    pub next_slot: Option<Slot>,
    /// The `when` predicate.
    pub when: Ir,
}

/// The compiled `group by` clause.
#[derive(Debug, Clone)]
pub struct GroupByIr {
    /// Grouping keys.
    pub keys: Vec<GroupKeyIr>,
    /// Nesting bindings.
    pub nests: Vec<NestIr>,
}

/// One grouping key.
#[derive(Debug, Clone)]
pub struct GroupKeyIr {
    /// Key expression, evaluated per input tuple (pre-group scope).
    pub expr: Ir,
    /// Output slot for the grouping variable.
    pub slot: Slot,
    /// Custom equality function (§3.3 `using`): a user function of
    /// arity 2 returning `xs:boolean`.
    pub using: Option<FunctionId>,
}

/// One nesting binding.
#[derive(Debug, Clone)]
pub struct NestIr {
    /// Nest expression, evaluated per input tuple (pre-group scope).
    pub expr: Ir,
    /// Optional per-group ordering of input tuples (§3.4.1); key
    /// expressions are compiled in pre-group scope.
    pub order_by: Option<OrderByIr>,
    /// Output slot for the nesting variable.
    pub slot: Slot,
    /// The nesting variable's name, without the `$` (plan labels only).
    pub var: String,
}

/// A compiled `order by` clause.
#[derive(Debug, Clone)]
pub struct OrderByIr {
    /// `stable` keyword present (we always sort stably; the flag is kept
    /// for explain output).
    pub stable: bool,
    /// Sort keys, major first.
    pub specs: Vec<OrderSpecIr>,
    /// Keep only the first `k` tuples of the sorted stream (top-k
    /// pushdown, set by the planner, [`crate::rewrite::plan`]). The
    /// pipeline then runs a bounded binary heap instead of a full sort
    /// (the residual positional predicate still bounds the result).
    pub limit: Option<usize>,
}

/// One sort key.
#[derive(Debug, Clone)]
pub struct OrderSpecIr {
    /// Key expression (must atomize to 0 or 1 items).
    pub expr: Ir,
    /// Descending?
    pub descending: bool,
    /// Empty-sequence placement; `None` = the default (`empty least`).
    pub empty_greatest: bool,
}

/// A compiled path.
#[derive(Debug, Clone)]
pub struct PathIr {
    /// Starting point.
    pub start: PathStartIr,
    /// Steps, left to right.
    pub steps: Vec<StepIr>,
    /// How the leading step is executed: tree walk (default) or a
    /// document-store index lookup, chosen at plan time by
    /// [`crate::rewrite::plan`]. Runtime falls back to
    /// the walk per context item when no store covers its document.
    pub access: AccessPathIr,
}

impl PathIr {
    /// The one description of an index access path (empty for a walk):
    /// as an operator detail, `index scan //T` or `index scan //T[c=..]`;
    /// with `tag`, the suffix of `explain`'s path line, which also
    /// names the probed literal. Either way the leading descendant step
    /// resolves via the document store instead of a tree walk (with
    /// per-document fallback at run time).
    pub(crate) fn describe_access(&self, tag: bool) -> String {
        let name = match self.steps.first() {
            Some(StepIr::Axis {
                test: NodeTestIr::Name(q),
                ..
            }) => q.to_string(),
            _ => "?".to_string(),
        };
        match (&self.access, tag) {
            (AccessPathIr::Walk, _) => String::new(),
            (AccessPathIr::IndexDescendant, false) => format!("index scan //{name}"),
            (AccessPathIr::IndexDescendant, true) => format!(" [index scan path=//{name}]"),
            (AccessPathIr::IndexValueEq { child, .. }, false) => {
                format!("index scan //{name}[{child}=..]")
            }
            (AccessPathIr::IndexValueEq { child, probe }, true) => {
                let probe = match probe {
                    ValueProbeIr::Str(s) => format!("{s:?}"),
                    ValueProbeIr::Num(v) => format!("{v}"),
                };
                format!(" [index scan path=//{name} value-eq {child}={probe}]")
            }
        }
    }
}

/// The plan-time access-path decision for a path's leading step.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum AccessPathIr {
    /// Tree-walk the axis (always applicable).
    #[default]
    Walk,
    /// Resolve a leading `descendant::T` step as a label-range slice of
    /// `T`'s element postings in the document store.
    IndexDescendant,
    /// Resolve `descendant::T[c = literal]` via the typed-value index:
    /// candidate parents from the index, then the residual predicate
    /// re-evaluated so results stay byte-identical to the walk.
    IndexValueEq {
        /// The leaf child name the equality predicate probes.
        child: QName,
        /// The literal being compared against.
        probe: ValueProbeIr,
    },
}

/// The comparison literal of an index-resolved value predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueProbeIr {
    /// A string literal — exact codepoint equality on leaf values.
    Str(std::sync::Arc<str>),
    /// A numeric literal — `xs:double` equality on leaf values (the
    /// same promotion general comparison applies to untyped operands).
    Num(f64),
}

impl ValueProbeIr {
    /// The probe for a comparison key atom: a string or untyped atom
    /// compares as a string, a numeric one as its `xs:double` image.
    /// `None` for every other type.
    pub(crate) fn of_atom(key: &AtomicValue) -> Option<ValueProbeIr> {
        match key {
            AtomicValue::String(s) | AtomicValue::Untyped(s) => Some(ValueProbeIr::Str(s.clone())),
            v if v.is_numeric() => v.to_double().ok().map(ValueProbeIr::Num),
            _ => None,
        }
    }

    /// The parents of `child` leaves equal to this probe, sorted and
    /// distinct, or `None` when `store` cannot answer exactly.
    pub(crate) fn parents(&self, store: &DocumentStore, child: &QName) -> Option<Vec<NodeId>> {
        match self {
            ValueProbeIr::Str(s) => store.parents_by_string_eq(child, s),
            ValueProbeIr::Num(v) => store.parents_by_numeric_eq(child, *v),
        }
    }
}

/// Where a path starts.
#[derive(Debug, Clone)]
pub enum PathStartIr {
    /// The context item.
    Context,
    /// The root of the context node's tree.
    Root,
    /// An arbitrary expression.
    Expr(Ir),
}

/// A compiled step.
#[derive(Debug, Clone)]
pub enum StepIr {
    /// An axis step.
    Axis {
        /// The axis.
        axis: xqa_frontend::ast::Axis,
        /// The node test.
        test: NodeTestIr,
        /// Predicates.
        predicates: Vec<Ir>,
    },
    /// A general expression step (evaluated per context item).
    Expr {
        /// The step expression.
        expr: Ir,
        /// Predicates.
        predicates: Vec<Ir>,
    },
}

/// A compiled node test.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTestIr {
    /// Match by name (principal node kind of the axis).
    Name(QName),
    /// `*`
    Wildcard,
    /// `node()`
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction(target?)`
    Pi(Option<String>),
    /// `element(name?)`
    Element(Option<QName>),
    /// `attribute(name?)`
    Attribute(Option<QName>),
    /// `document-node()`
    Document,
}

/// A compiled user function.
#[derive(Debug, Clone)]
pub struct UserFunction {
    /// Diagnostic name.
    pub name: String,
    /// Number of parameters (parameters occupy slots `0..arity`).
    pub arity: usize,
    /// Declared parameter types.
    pub param_types: Vec<Option<SeqTypeIr>>,
    /// Declared return type.
    pub return_type: Option<SeqTypeIr>,
    /// The body.
    pub body: Ir,
    /// Total frame size needed by the body.
    pub frame_size: usize,
}

/// A global-variable initializer.
#[derive(Debug, Clone)]
pub struct GlobalInit {
    /// Diagnostic name.
    pub name: String,
    /// The initializer expression.
    pub init: Ir,
    /// The declared type (`declare variable $x as T`), checked against
    /// the initializer's value.
    pub ty: Option<SeqTypeIr>,
    /// Frame size needed to evaluate it.
    pub frame_size: usize,
}

/// A fully compiled query: globals, functions, main body.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Global variable initializers, in declaration order.
    pub globals: Vec<GlobalInit>,
    /// User functions.
    pub functions: Vec<UserFunction>,
    /// The main expression.
    pub body: Ir,
    /// Frame size for the main expression.
    pub frame_size: usize,
    /// Whether `declare ordering unordered` was in effect (informational;
    /// the engine always produces the ordered result).
    pub ordered: bool,
}

/// Where an expression root of a query sits; displays as rewrite notes
/// name it: `global $g`, `function local:f#1`, `query body`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RootLoc<'a> {
    Global(&'a str),
    Function(&'a str, usize),
    Body,
}

impl std::fmt::Display for RootLoc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootLoc::Global(name) => write!(f, "global ${name}"),
            RootLoc::Function(name, arity) => write!(f, "function {name}#{arity}"),
            RootLoc::Body => f.write_str("query body"),
        }
    }
}

impl CompiledQuery {
    /// Every expression root of the query with where it sits: globals
    /// first, then functions, then the body. The one place the
    /// planner's globals/functions/body loop is written.
    pub(crate) fn roots_mut(&mut self) -> impl Iterator<Item = (RootLoc<'_>, &mut Ir)> {
        let globals = self
            .globals
            .iter_mut()
            .map(|g| (RootLoc::Global(&g.name), &mut g.init));
        let functions = self
            .functions
            .iter_mut()
            .map(|f| (RootLoc::Function(&f.name, f.arity), &mut f.body));
        let body = (RootLoc::Body, &mut self.body);
        globals.chain(functions).chain(std::iter::once(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compiled FLWOR that no planner has touched already has its one
    /// record per clause: nothing about the pipeline is "empty until
    /// planned", so it runs, explains and profiles as it is.
    #[test]
    fn an_unplanned_flwor_has_one_record_per_clause() {
        let module = xqa_frontend::parse_query(
            "for $x in (3, 1, 2) let $y := $x * 2 count $c where $y gt 2 \
             group by $y into $k nest $x into $xs order by $k return $k",
        )
        .expect("parses");
        let query = crate::compile::compile(&module).expect("compiles");
        let Ir::Flwor(f) = &query.body else {
            panic!("expected a FLWOR body");
        };
        let kinds: Vec<OpKind> = f.ops.iter().map(OpKind::of).collect();
        use OpKind::*;
        assert_eq!(
            kinds,
            [ForScan, LetBind, CountBind, Filter, GroupConsume, OrderBy]
        );
        for op in &f.ops {
            assert!(op.join.is_none() && op.estimate.is_none() && op.counted_nests.is_empty());
            assert!(op.value_keys.is_empty());
        }
        assert_eq!(f.return_estimate, None);
        assert!(crate::explain::explain_query(&query).contains(
            "pipeline: ForScan -> LetBind -> CountBind -> Filter -> \
             GroupConsume [materializes] -> OrderBy [materializes] -> ReturnAt"
        ));
    }
}
