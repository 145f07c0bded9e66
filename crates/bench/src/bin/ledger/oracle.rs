//! The independent oracle. Expected results come from a plain tree walk
//! over the *generated* document (before it is ever serialized, parsed
//! or indexed by the program) and ordinary `HashMap` grouping, never
//! from the engine or the serializer.

use std::collections::HashMap;

use xqa::xdm::{Document, NodeHandle, NodeKind};

use crate::queries::{Query, EXPORT_MIN_QUANTITY, GROUP_KEYS};
use crate::stats::{fnv1a, FNV_START};

/// The lineitem children the queries touch.
const FIELDS: [&str; 7] = [
    "partkey",
    "quantity",
    "extendedprice",
    "tax",
    "returnflag",
    "shipinstruct",
    "shipmode",
];

struct Lineitem {
    /// Text of each of [`FIELDS`].
    fields: [String; 7],
    /// The lineitem element as XML text.
    xml: String,
}

impl Lineitem {
    fn field(&self, name: &str) -> &str {
        let i = FIELDS
            .iter()
            .position(|f| *f == name)
            .expect("a known field");
        &self.fields[i]
    }

    fn number(&self, name: &str) -> f64 {
        self.field(name).parse().expect("numeric lineitem field")
    }
}

struct Order {
    status: String,
    /// The `<o>` row the order export builds.
    export_row: String,
}

/// What the walk found in one generated document.
pub struct Facts {
    lineitems: Vec<Lineitem>,
    orders: Vec<Order>,
    /// Part key -> lineitem indexes in document order, so checking an
    /// `adhoc` response costs the client no scan.
    by_partkey: HashMap<u32, Vec<u32>>,
}

/// What a result must look like.
pub enum Expected {
    /// Exactly these rows, in this order.
    Ordered(Vec<String>),
    /// These `<r>` rows in any order (group order is the engine's).
    AnyOrder(Vec<String>),
}

/// Byte length and FNV-1a checksum of a verified result; every later
/// result of the same text is compared against these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: u64,
    pub fnv: u64,
}

impl Fingerprint {
    pub const EMPTY: Fingerprint = Fingerprint {
        len: 0,
        fnv: FNV_START,
    };

    pub fn of(text: &str) -> Fingerprint {
        Fingerprint::EMPTY.extend(text.as_bytes())
    }

    pub fn extend(self, bytes: &[u8]) -> Fingerprint {
        Fingerprint {
            len: self.len + bytes.len() as u64,
            fnv: fnv1a(self.fnv, bytes),
        }
    }
}

fn escape(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
}

fn local_name(node: &NodeHandle) -> &str {
    node.name().map_or("", |n| n.local_part())
}

/// Elements and text only: the generator emits nothing else.
fn write_xml(node: &NodeHandle, out: &mut String) {
    match node.kind() {
        NodeKind::Element => {
            let name = local_name(node);
            out.push('<');
            out.push_str(name);
            out.push('>');
            for child in node.children() {
                write_xml(&child, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        _ => escape(&node.string_value(), out),
    }
}

fn element(name: &str, text: &str) -> String {
    let mut out = format!("<{name}>");
    escape(text, &mut out);
    out.push_str(&format!("</{name}>"));
    out
}

fn child_text(node: &NodeHandle, name: &str) -> String {
    node.children()
        .find(|c| local_name(c) == name)
        .map(|c| c.string_value())
        .unwrap_or_else(|| panic!("generated <{}> has no <{name}>", local_name(node)))
}

impl Facts {
    pub fn walk(doc: &std::sync::Arc<Document>) -> Facts {
        let orders_root = doc.root().children().next().expect("<orders> root");
        let mut facts = Facts {
            lineitems: Vec::new(),
            orders: Vec::new(),
            by_partkey: HashMap::new(),
        };
        for order in orders_root.children() {
            for child in order.children() {
                if local_name(&child) != "lineitem" {
                    continue;
                }
                let mut xml = String::new();
                write_xml(&child, &mut xml);
                let fields = FIELDS.map(|f| child_text(&child, f));
                let item = Lineitem { fields, xml };
                let index = facts.lineitems.len() as u32;
                facts
                    .by_partkey
                    .entry(item.number("partkey") as u32)
                    .or_default()
                    .push(index);
                facts.lineitems.push(item);
            }
            let customer = order
                .children()
                .find(|c| local_name(c) == "customer")
                .expect("<customer>");
            // The order's own <comment> is its last child; lineitems
            // carry comments too, but not as children of the order.
            let export_row = format!(
                "<o>{}{}{}{}</o>",
                element("orderkey", &child_text(&order, "orderkey")),
                element("name", &child_text(&customer, "name")),
                element("totalprice", &child_text(&order, "totalprice")),
                element("comment", &child_text(&order, "comment")),
            );
            facts.orders.push(Order {
                status: child_text(&order, "orderstatus"),
                export_row,
            });
        }
        facts
    }

    #[cfg(test)]
    pub fn lineitem_count(&self) -> usize {
        self.lineitems.len()
    }

    /// Distinct part keys, ascending (the `adhoc` class draws its
    /// never-repeated literals from these).
    pub fn partkeys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.by_partkey.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    pub fn expected(&self, query: &Query) -> Expected {
        match *query {
            Query::Qgb(i) | Query::Q(i) => {
                let keys = GROUP_KEYS[i];
                let mut groups: HashMap<Vec<&str>, usize> = HashMap::new();
                for li in &self.lineitems {
                    let key = keys.iter().map(|k| li.field(k)).collect();
                    *groups.entry(key).or_default() += 1;
                }
                let explicit = matches!(query, Query::Qgb(_));
                let rows = groups
                    .iter()
                    .map(|(key, count)| {
                        // Qgb returns the key *elements*, Q the atomized
                        // distinct values (space-separated atomics).
                        let shown: String = if explicit {
                            key.iter().zip(keys).map(|(v, k)| element(k, v)).collect()
                        } else {
                            let mut text = String::new();
                            escape(&format!("{} ", key.join(" ")), &mut text);
                            text
                        };
                        format!("<r>{shown}{count}</r>")
                    })
                    .collect();
                Expected::AnyOrder(rows)
            }
            Query::Point(quantity) => Expected::Ordered(
                self.lineitems
                    .iter()
                    .filter(|li| li.number("quantity") == f64::from(quantity))
                    .map(|li| li.xml.clone())
                    .collect(),
            ),
            Query::Adhoc { partkey, .. } => Expected::Ordered(
                self.by_partkey
                    .get(&partkey)
                    .map_or(&[][..], Vec::as_slice)
                    .iter()
                    .map(|i| self.lineitems[*i as usize].xml.clone())
                    .collect(),
            ),
            Query::TopK => {
                let mut prices: Vec<&str> = self
                    .lineitems
                    .iter()
                    .map(|li| li.field("extendedprice"))
                    .collect();
                // Stable, so equal prices keep document order; they also
                // print identically, so ties cannot show in the result.
                prices.sort_by(|a, b| {
                    let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
                    b.total_cmp(&a)
                });
                Expected::Ordered(
                    prices
                        .iter()
                        .take(10)
                        .enumerate()
                        .map(|(i, p)| format!("<top rank=\"{}\">{p}</top>", i + 1))
                        .collect(),
                )
            }
            Query::Export(0) => Expected::Ordered(
                self.lineitems
                    .iter()
                    .filter(|li| li.number("quantity") >= f64::from(EXPORT_MIN_QUANTITY))
                    .map(|li| {
                        format!(
                            "<row>{}{}{}</row>",
                            element("partkey", li.field("partkey")),
                            element("extendedprice", li.field("extendedprice")),
                            element("shipmode", li.field("shipmode")),
                        )
                    })
                    .collect(),
            ),
            Query::Export(1) => Expected::Ordered(
                self.lineitems
                    .iter()
                    .filter(|li| li.field("returnflag") == "R")
                    .map(|li| {
                        format!(
                            "<row id=\"{}\">{}</row>",
                            li.field("partkey"),
                            li.field("extendedprice")
                        )
                    })
                    .collect(),
            ),
            Query::Export(_) => Expected::Ordered(
                self.orders
                    .iter()
                    .filter(|o| o.status == "F")
                    .map(|o| o.export_row.clone())
                    .collect(),
            ),
        }
    }

    /// The fingerprint of the one result `query` may have; only queries
    /// whose rows come in a fixed order have one.
    pub fn fingerprint(&self, query: &Query) -> Fingerprint {
        match self.expected(query) {
            Expected::Ordered(rows) => rows
                .iter()
                .fold(Fingerprint::EMPTY, |f, row| f.extend(row.as_bytes())),
            Expected::AnyOrder(_) => panic!("{query:?} has no fixed row order"),
        }
    }

    /// Compare a result in full against the oracle.
    pub fn matches(&self, query: &Query, output: &str) -> bool {
        match self.expected(query) {
            Expected::Ordered(rows) => {
                let mut rest = output;
                rows.iter()
                    .all(|row| match rest.strip_prefix(row.as_str()) {
                        Some(tail) => {
                            rest = tail;
                            true
                        }
                        None => false,
                    })
                    && rest.is_empty()
            }
            Expected::AnyOrder(mut rows) => {
                let mut got: Vec<&str> = output.split_inclusive("</r>").collect();
                got.sort_unstable();
                rows.sort_unstable();
                got == rows
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_workload::{generate_orders, OrdersConfig};

    fn facts() -> Facts {
        Facts::walk(&generate_orders(
            &OrdersConfig::with_total_lineitems(400).seed(3),
        ))
    }

    #[test]
    fn group_counts_add_up_and_domains_are_the_papers() {
        let facts = facts();
        for (i, groups) in [4, 7, 9, 28, 36, 50].into_iter().enumerate() {
            let Expected::AnyOrder(rows) = facts.expected(&Query::Qgb(i)) else {
                panic!("groups come in any order")
            };
            assert!(
                rows.len() <= groups && rows.len() >= groups / 2,
                "{i}: {}",
                rows.len()
            );
            let total: usize = rows
                .iter()
                .map(|r| {
                    let digits = r.trim_end_matches("</r>");
                    let start = digits.rfind(|c: char| !c.is_ascii_digit()).unwrap() + 1;
                    digits[start..].parse::<usize>().unwrap()
                })
                .sum();
            assert_eq!(total, facts.lineitem_count());
        }
    }

    #[test]
    fn a_wrong_result_does_not_match() {
        let facts = facts();
        let query = Query::Point(7);
        let Expected::Ordered(rows) = facts.expected(&query) else {
            panic!("point lookups are ordered")
        };
        let good = rows.concat();
        assert!(!rows.is_empty() && facts.matches(&query, &good));
        assert!(!facts.matches(&query, &good[1..]));
        assert!(!facts.matches(&query, &format!("{good}<lineitem/>")));
        assert!(!facts.matches(&Query::Qgb(0), "<r><shipinstruct>NONE</shipinstruct>1</r>"));
    }
}
