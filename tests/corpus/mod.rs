//! The query corpus shared by the rewrite-note golden
//! (`tests/rewrite_notes.rs`) and the plan-label check
//! (`tests/plan_labels.rs`): every string literal of
//! `tests/paper_queries.rs` and `tests/pipeline_differential.rs`, plus
//! the paper's six `Q` and six `Qgb` templates. Most literals there are query texts, the rest
//! (documents, messages, hint strings) are not: callers keep the
//! candidates that compile.

const SOURCES: [&str; 2] = [
    include_str!("../paper_queries.rs"),
    include_str!("../pipeline_differential.rs"),
];

/// Absent hints (each key's default: `access=index`, `join=hash`), the
/// other side of every hint the differential suites pin, and the
/// paper's opt-in rewrite.
pub const HINT_CELLS: [&str; 4] = ["", "access=walk", "join=nested", "implicit-groupby=on"];

/// The grouping elements of the paper's six Section-6 experiments.
const GROUP_KEYS: [&[&str]; 6] = [
    &["shipinstruct"],
    &["shipmode"],
    &["tax"],
    &["shipinstruct", "shipmode"],
    &["shipinstruct", "tax"],
    &["quantity"],
];

/// Table 1, left template: `distinct-values` plus self-join.
fn q_query(keys: &[&str]) -> String {
    match keys {
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
    }
}

/// Table 1, right template: explicit `group by ... nest`.
fn qgb_query(keys: &[&str]) -> String {
    let by: Vec<String> = keys
        .iter()
        .zip(["a", "b"])
        .map(|(key, var)| format!("$litem/{key} into ${var}"))
        .collect();
    let vars = if keys.len() == 1 { "$a" } else { "$a, $b" };
    format!(
        "for $litem in //order/lineitem group by {} nest $litem into $items \
         return <r> {{{vars}, count($items)}} </r>",
        by.join(", ")
    )
}

/// `query` with a stable breaker: `order by $x` before its last
/// `return` keeps the input order of `$x` and puts a sort behind the
/// chain. The differential builds these at run time (this file is not
/// one of [`SOURCES`]), so the corpus keeps the breaker-free texts.
#[allow(dead_code)] // the plan suites run the corpus texts as written
pub fn with_stable_sort(query: &str) -> String {
    let (head, ret) = query.rsplit_once(" return ").expect("a FLWOR");
    format!("{head} order by $x return {ret}")
}

/// Every candidate query text, whitespace-normalized, first occurrence
/// first, no duplicates.
pub fn candidates() -> Vec<String> {
    let mut raw = Vec::new();
    for src in SOURCES {
        string_literals(src, &mut raw);
    }
    for keys in GROUP_KEYS {
        raw.push(q_query(keys));
        raw.push(qgb_query(keys));
    }
    let mut out: Vec<String> = Vec::new();
    for text in raw {
        let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
        if !text.is_empty() && !out.contains(&text) {
            out.push(text);
        }
    }
    out
}

/// Append the value of every string literal (plain and raw) in a Rust
/// source text. Line comments and `'"'` char literals are skipped;
/// escapes other than `\"`, `\\`, `\n`, `\t` and the line continuation
/// are kept as written (such a literal is no query anyway).
pub fn string_literals(src: &str, out: &mut Vec<String>) {
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            i += b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .unwrap_or(b.len() - i);
        } else if b[i..].starts_with(b"'\"'") {
            i += 3;
        } else if b[i..].starts_with(b"'\\\"'") {
            i += 4;
        } else if b[i] == b'r'
            && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
        {
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            let open = i + 1 + hashes;
            if b.get(open) != Some(&b'"') {
                i += 1;
                continue;
            }
            let close = format!("\"{}", "#".repeat(hashes));
            let body = &src[open + 1..];
            let end = body.find(&close).unwrap_or(body.len());
            out.push(body[..end].to_string());
            i = open + 1 + end + close.len();
        } else if b[i] == b'"' {
            let mut text = String::new();
            let mut chars = src[i + 1..].char_indices().peekable();
            let mut len = src.len() - i - 1;
            while let Some((at, c)) = chars.next() {
                match c {
                    '"' => {
                        len = at + 1;
                        break;
                    }
                    '\\' => match chars.next().map(|(_, e)| e) {
                        Some('n') => text.push('\n'),
                        Some('t') => text.push('\t'),
                        Some('\n') => {
                            while chars.peek().is_some_and(|(_, w)| w.is_whitespace()) {
                                chars.next();
                            }
                        }
                        Some(e @ ('"' | '\\')) => text.push(e),
                        Some(e) => text.extend(['\\', e]),
                        None => {}
                    },
                    c => text.push(c),
                }
            }
            out.push(text);
            i += 1 + len;
        } else {
            i += 1;
        }
    }
}
