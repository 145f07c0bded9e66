//! One label per operator, wherever it is printed: for every corpus
//! query (see `corpus/mod.rs`) under each hint cell the differential
//! suites loop over, at `threads` 1 and 4, the plan signature of every
//! pipeline in the run's profile is a `pipeline:` line of the same
//! plan's `explain()`, and the run's flight record (what `--diag-json`
//! writes) is well-formed JSON. Every run outside the `implicit-groupby=on` cell
//! also has one outcome, the serialized result or the error code: the
//! one the first cell gives at threads 1.
//!
//! This file is deliberately not one of `corpus::SOURCES`: its query
//! texts stay out of `tests/golden/rewrite_notes.txt`.

mod corpus;

use std::sync::Arc;
use std::time::Duration;
use xqa::xdm::ErrorCode;
use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions, PreparedQuery};
use xqa_service::FlightRecord;

/// What a run gives: its serialized result, or its error code.
type Outcome = Result<String, ErrorCode>;

/// Run `plan` on the profiling `ctx` and hold what the run printed
/// about itself against what `explain` prints about the plan. A query
/// may fail at run time (most of the corpus was written for other
/// documents): the pipelines that ran before the error are checked all
/// the same. Returns how many pipelines that was, how many of them ran
/// behind a parallel exchange, and the run's outcome.
fn check_run(plan: &PreparedQuery, ctx: &DynamicContext, what: &str) -> ([usize; 2], Outcome) {
    let explain = plan.explain();
    let lines: Vec<&str> = explain
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pipeline: "))
        .map(|line| line.split(" [parallel ×").next().expect("a first piece"))
        .collect();
    let outcome = plan
        .run(ctx)
        .map(|items| serialize_sequence(&items))
        .map_err(|e| e.code());
    let profile = ctx.take_profile().expect("profiling was enabled");
    for pipeline in &profile.pipelines {
        let signature = pipeline.signature();
        assert!(
            lines.contains(&signature.as_str()),
            "{what}: profile signature `{signature}` is no pipeline line of\n{explain}"
        );
    }
    let json = FlightRecord::new(
        "1".to_string(),
        what,
        Some((plan, false)),
        1,
        Duration::ZERO,
        false,
        Ok((&ctx.stats.snapshot(), &profile)),
    )
    .full_json();
    if let Err(at) = json_well_formed(&json) {
        let shown = at.saturating_sub(60);
        panic!(
            "{what}: record JSON is malformed at byte {at}: …{}",
            &json[shown..]
        );
    }
    let exchanged = profile.pipelines.iter().filter(|p| p.workers > 1).count();
    ([profile.pipelines.len(), exchanged], outcome)
}

#[test]
fn profile_signatures_are_explain_lines_and_profile_json_parses() {
    // About 1 300 lineitems: an outer `for` over them spans two
    // morsels, so at `threads: 4` its chain runs behind the exchange
    // when a `group by` or `order by` follows it.
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 320,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    ctx.enable_profiling();
    let stats = Arc::new(xqa::storage::CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));

    let (mut queries, mut pipelines, mut exchanged, mut compared) = (0, 0, 0, 0);
    for query in corpus::candidates() {
        if Engine::new().compile(&query).is_err() {
            continue;
        }
        queries += 1;
        let mut first: Option<Outcome> = None;
        for hints in corpus::HINT_CELLS {
            for threads in [1, 4] {
                let engine = Engine::with_options(EngineOptions {
                    threads,
                    hints: hints.parse().expect("valid hints"),
                })
                .with_statistics(Arc::clone(&stats));
                let plan = engine
                    .compile(&query)
                    .unwrap_or_else(|e| panic!("compile under [{hints}]: {e}\n{query}"));
                let what = format!("[{hints}] threads={threads} {query}");
                let ([ran, parallel], outcome) = check_run(&plan, &ctx, &what);
                pipelines += ran;
                exchanged += parallel;
                // The paper's opt-in rewrite carries its premise, so
                // only that cell may change what a query gives.
                if hints == "implicit-groupby=on" {
                    continue;
                }
                match &first {
                    None => first = Some(outcome),
                    Some(first) => {
                        assert_eq!(&outcome, first, "{what}: outcome differs from [] threads=1");
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(queries > 100, "corpus shrank to {queries}");
    // Five outcomes per query are compared: three cells at two thread
    // counts, less the first.
    assert!(compared > 550, "only {compared} outcomes compared");
    assert!(pipelines > 650, "only {pipelines} pipelines ran");
    // Only chains with a `group by` / `order by` exchange: 132 of them
    // did when this floor was set.
    assert!(
        exchanged > 120,
        "only {exchanged} pipelines ran in parallel"
    );
}

/// A join key that is a string literal puts `"` into the operator's
/// detail, the plan signature and a span name.
#[test]
fn a_string_literal_join_key_stays_inside_its_json_string() {
    let doc =
        xqa::parse_document("<r><o/><o/><x><k>a</k></x><x><k>b</k></x></r>").expect("well-formed");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.enable_profiling();
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        hints: "join=hash".parse().expect("valid hints"),
    });
    let plan = engine
        .compile(
            "for $o in //o let $m := (for $y in //x where $y/k = \"a\" return $y) \
             return count($m)",
        )
        .expect("compiles");
    assert!(
        plan.explain()
            .contains("HashJoin(key=\"a\" = $slot1/k, value index k)"),
        "{}",
        plan.explain()
    );
    assert_eq!(check_run(&plan, &ctx, "string-literal key").0, [1, 0]);
}

/// Strict RFC 8259 well-formedness of one JSON document: `Err` carries
/// the byte offset of the first violation.
fn json_well_formed(text: &str) -> Result<(), usize> {
    let b = text.as_bytes();
    let end = json_value(b, json_ws(b, 0))?;
    match json_ws(b, end) {
        at if at == b.len() => Ok(()),
        at => Err(at),
    }
}

fn json_ws(b: &[u8], mut at: usize) -> usize {
    while matches!(b.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        at += 1;
    }
    at
}

/// Parse one value starting at `at`; the offset just past it.
fn json_value(b: &[u8], at: usize) -> Result<usize, usize> {
    match b.get(at) {
        Some(b'{') => json_items(b, at, b'}', |b, at| {
            let colon = json_ws(b, json_string(b, at)?);
            if b.get(colon) != Some(&b':') {
                return Err(colon);
            }
            json_value(b, json_ws(b, colon + 1))
        }),
        Some(b'[') => json_items(b, at, b']', json_value),
        Some(b'"') => json_string(b, at),
        Some(b't') => json_literal(b, at, b"true"),
        Some(b'f') => json_literal(b, at, b"false"),
        Some(b'n') => json_literal(b, at, b"null"),
        Some(b'-' | b'0'..=b'9') => json_number(b, at),
        _ => Err(at),
    }
}

/// `open item (, item)* close` or `open close`, `at` on the opener.
fn json_items(
    b: &[u8],
    at: usize,
    close: u8,
    item: fn(&[u8], usize) -> Result<usize, usize>,
) -> Result<usize, usize> {
    let mut at = json_ws(b, at + 1);
    if b.get(at) == Some(&close) {
        return Ok(at + 1);
    }
    loop {
        at = json_ws(b, item(b, at)?);
        match b.get(at) {
            Some(b',') => at = json_ws(b, at + 1),
            Some(c) if *c == close => return Ok(at + 1),
            _ => return Err(at),
        }
    }
}

fn json_string(b: &[u8], at: usize) -> Result<usize, usize> {
    if b.get(at) != Some(&b'"') {
        return Err(at);
    }
    let mut at = at + 1;
    loop {
        match b.get(at) {
            Some(b'"') => return Ok(at + 1),
            Some(b'\\') => match b.get(at + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => at += 2,
                Some(b'u')
                    if b.len() >= at + 6 && b[at + 2..at + 6].iter().all(u8::is_ascii_hexdigit) =>
                {
                    at += 6
                }
                _ => return Err(at),
            },
            // Control characters must be escaped; everything else is
            // `&str` content, so already valid UTF-8.
            Some(0x20..) => at += 1,
            _ => return Err(at),
        }
    }
}

fn json_literal(b: &[u8], at: usize, word: &[u8]) -> Result<usize, usize> {
    if b[at..].starts_with(word) {
        Ok(at + word.len())
    } else {
        Err(at)
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
fn json_number(b: &[u8], mut at: usize) -> Result<usize, usize> {
    let digits = |mut at: usize| {
        let start = at;
        while matches!(b.get(at), Some(b'0'..=b'9')) {
            at += 1;
        }
        if at == start {
            Err(at)
        } else {
            Ok(at)
        }
    };
    if b.get(at) == Some(&b'-') {
        at += 1;
    }
    at = match b.get(at) {
        Some(b'0') => at + 1,
        _ => digits(at)?,
    };
    if b.get(at) == Some(&b'.') {
        at = digits(at + 1)?;
    }
    if matches!(b.get(at), Some(b'e' | b'E')) {
        at += 1;
        if matches!(b.get(at), Some(b'+' | b'-')) {
            at += 1;
        }
        at = digits(at)?;
    }
    Ok(at)
}

#[test]
fn the_json_check_is_strict() {
    for ok in [
        "{}",
        " [ ] ",
        "{\"a\":[1,-0.5e+3,true,false,null,\"x\\n\\u00e9\\\"\"],\"b\":{}}",
    ] {
        assert_eq!(json_well_formed(ok), Ok(()), "{ok}");
    }
    for bad in [
        "",
        "{",
        "{\"a\":}",
        "{\"a\" 1}",
        "[1,]",
        "[1 2]",
        "01",
        "1.",
        "\"a\"b\"",
        "\"\\x\"",
        "\"\u{1}\"",
        "{\"detail\":\"key=\"a\" = $slot1/k\"}",
        "{} {}",
        "nul",
    ] {
        assert!(json_well_formed(bad).is_err(), "{bad}");
    }
}
