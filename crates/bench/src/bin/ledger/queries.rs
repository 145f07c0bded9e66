//! Every query text the ledger runs. The templates are copied here, not
//! imported from `xqa-bench`, so a later change to that crate cannot
//! change what the ledger measures.

/// The grouping elements of the paper's six Section-6 experiments, in
/// order of group count: 4, 7, 9, 28, 36 and 50 groups.
pub const GROUP_KEYS: [&[&str]; 6] = [
    &["shipinstruct"],
    &["shipmode"],
    &["tax"],
    &["shipinstruct", "shipmode"],
    &["shipinstruct", "tax"],
    &["quantity"],
];

/// Lowest `quantity` the first export query keeps (about a third of the
/// lineitems).
pub const EXPORT_MIN_QUANTITY: u32 = 35;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Table 1, right template: explicit `group by ... nest`, over
    /// `GROUP_KEYS[i]`.
    Qgb(usize),
    /// Table 1, left template: `distinct-values` plus self-join, no
    /// explicit group by.
    Q(usize),
    /// Point lookup through the typed-value index: lineitems with the
    /// given quantity (1..=50).
    Point(u32),
    /// The point shape on `partkey`, spelled with `zeros` trailing zeros
    /// after the decimal point so the text (the plan-cache key) is new.
    Adhoc { partkey: u32, zeros: u32 },
    /// The ten most expensive lineitems, ranked by `return at`.
    TopK,
    /// Breaker-free scan + filter + element construction, large result.
    Export(usize),
}

/// Number of [`Query::Export`] shapes.
pub const EXPORTS: usize = 3;

impl Query {
    pub fn text(&self) -> String {
        match *self {
            Query::Qgb(i) => match GROUP_KEYS[i] {
                [a] => format!(
                    "for $litem in //order/lineitem \
                     group by $litem/{a} into $a \
                     nest $litem into $items \
                     return <r> {{$a, count($items)}} </r>"
                ),
                [a, b] => format!(
                    "for $litem in //order/lineitem \
                     group by $litem/{a} into $a, $litem/{b} into $b \
                     nest $litem into $items \
                     return <r> {{$a, $b, count($items)}} </r>"
                ),
                _ => unreachable!("one or two grouping elements"),
            },
            Query::Q(i) => match GROUP_KEYS[i] {
                [a] => format!(
                    "for $a in distinct-values(//order/lineitem/{a}) \
                     let $items := for $i in //order/lineitem where $i/{a} = $a return $i \
                     return <r>{{$a, count($items)}}</r>"
                ),
                [a, b] => format!(
                    "for $a in distinct-values(//order/lineitem/{a}), \
                         $b in distinct-values(//order/lineitem/{b}) \
                     let $items := for $i in //order/lineitem \
                                   where $i/{a} = $a and $i/{b} = $b return $i \
                     where exists($items) \
                     return <r>{{$a, $b, count($items)}}</r>"
                ),
                _ => unreachable!("one or two grouping elements"),
            },
            Query::Point(quantity) => format!("//lineitem[quantity = {quantity}]"),
            Query::Adhoc { partkey, zeros } => format!(
                "//lineitem[partkey = {partkey}.{}]",
                "0".repeat(zeros as usize + 1)
            ),
            Query::TopK => "(for $li in //order/lineitem \
                 order by number($li/extendedprice) descending \
                 return at $r <top rank=\"{$r}\">{data($li/extendedprice)}</top>)\
                [position() le 10]"
                .to_string(),
            Query::Export(0) => format!(
                "for $li in //order/lineitem \
                 where number($li/quantity) ge {EXPORT_MIN_QUANTITY} \
                 return <row>{{$li/partkey}}{{$li/extendedprice}}{{$li/shipmode}}</row>"
            ),
            Query::Export(1) => "for $li in //order/lineitem \
                 where $li/returnflag = 'R' \
                 return <row id=\"{data($li/partkey)}\">{data($li/extendedprice)}</row>"
                .to_string(),
            Query::Export(_) => "for $o in //order \
                 where $o/orderstatus = 'F' \
                 return <o>{$o/orderkey}{$o/customer/name}{$o/totalprice}{$o/comment}</o>"
                .to_string(),
        }
    }
}
