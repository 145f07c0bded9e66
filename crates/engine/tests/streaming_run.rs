//! Contract tests for the streaming execution path
//! (`PreparedQuery::run_streaming` / `run_serialized`): concatenated
//! streamed output must be byte-identical to the materialized run, the
//! pipeline must actually emit in multiple batches, and a failure must
//! say whether the query or the sink failed and how many items the sink
//! had accepted.

use xqa_engine::{DynamicContext, Engine, StreamError};
use xqa_xdm::{ErrorCode, Item};
use xqa_xmlparse::{parse_document, serialize_sequence, SequenceSerializer, SerializeOptions};

const BIB: &str = r#"
<bib>
  <book><title>A</title><publisher>MK</publisher><year>1993</year><price>65</price></book>
  <book><title>B</title><publisher>MK</publisher><year>1995</year><price>34</price></book>
  <book><title>C</title><publisher>AW</publisher><year>1993</year><price>48</price></book>
  <book><title>D</title><publisher>MK</publisher><year>1993</year><price>43</price></book>
</bib>"#;

fn ctx_for(xml: &str) -> DynamicContext {
    let doc = parse_document(xml).expect("well-formed test document");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx
}

/// Queries covering the serialization-sensitive shapes: adjacent
/// atomics, node constructors, mixed node/atomic output, grouping,
/// ordering with rank, and an empty result.
const CORPUS: &[&str] = &[
    "for $x in 1 to 10 return $x",
    "for $x in 1 to 10 return <n>{$x}</n>",
    "for $x in 1 to 5 return ($x, <sep/>, $x * 2)",
    "for $b in //book where $b/year = 1993 return $b/title",
    "for $b in //book \
       group by $b/publisher into $p \
       nest $b/price into $prices \
       order by $p \
       return <g p=\"{$p}\">{sum($prices)}</g>",
    "for $b in //book order by $b/price descending return at $r <r n=\"{$r}\">{$b/title}</r>",
    "for $b in //book where $b/year = 1800 return $b",
    "count(//book)",
    "(1, 2, 3)[. gt 5]",
];

#[test]
fn streamed_items_match_materialized_run() {
    let engine = Engine::new();
    for query in CORPUS {
        let plan = engine.compile(query).expect("compile");
        let ctx = ctx_for(BIB);
        let expected = plan.run(&ctx).expect("buffered run");
        let mut streamed: Vec<Item> = Vec::new();
        let n = plan
            .run_streaming(&ctx, &mut |items| {
                streamed.extend_from_slice(items);
                Ok(())
            })
            .expect("streaming run");
        assert_eq!(n as usize, expected.len(), "item count for {query:?}");
        assert_eq!(
            serialize_sequence(&streamed),
            serialize_sequence(&expected),
            "streamed bytes diverged for {query:?}"
        );
    }
}

#[test]
fn serialized_chunks_match_one_shot_serialization() {
    let engine = Engine::new();
    for query in CORPUS {
        let plan = engine.compile(query).expect("compile");
        let ctx = ctx_for(BIB);
        let expected = serialize_sequence(&plan.run(&ctx).expect("buffered run"));
        let mut out = String::new();
        let stats = plan
            .run_serialized(&ctx, &mut |chunk| {
                out.push_str(chunk);
                Ok(())
            })
            .expect("serialized streaming run");
        assert_eq!(out, expected, "chunked bytes diverged for {query:?}");
        assert_eq!(stats.bytes as usize, out.len());
    }
}

#[test]
fn large_results_stream_in_multiple_batches() {
    let engine = Engine::new();
    let plan = engine.compile("for $x in 1 to 1000 return $x").unwrap();
    let ctx = DynamicContext::new();
    let mut batches = 0usize;
    let mut total = 0usize;
    plan.run_streaming(&ctx, &mut |items| {
        batches += 1;
        total += items.len();
        Ok(())
    })
    .expect("streaming run");
    assert_eq!(total, 1000);
    assert!(
        batches > 1,
        "expected batched emission, got {batches} batch"
    );
}

/// An ordered FLWOR over 5 000 items streams the bytes of its one-shot
/// run.
#[test]
fn parallel_path_streams_identical_bytes() {
    let query = "for $x in 1 to 5000 where $x mod 7 = 0 order by $x return <n>{$x}</n>";
    let plan = Engine::new().compile(query).unwrap();
    let ctx = DynamicContext::new();
    let expected = serialize_sequence(&plan.run(&ctx).unwrap());
    let mut ser = SequenceSerializer::new(SerializeOptions::default());
    let mut out = String::new();
    plan.run_streaming(&ctx, &mut |items| {
        ser.push(items, &mut out);
        Ok(())
    })
    .expect("streaming run");
    assert_eq!(out, expected);
}

#[test]
fn error_before_first_item_classifies_as_before_first() {
    let engine = Engine::new();
    let plan = engine.compile("1 div 0").unwrap();
    let ctx = DynamicContext::new();
    let err = plan
        .run_streaming(&ctx, &mut |_| Ok(()))
        .expect_err("division by zero must fail");
    match err {
        StreamError::Engine {
            error,
            items_emitted,
        } => {
            assert_eq!(error.code(), ErrorCode::FOAR0001);
            assert_eq!(items_emitted, 0);
        }
        other => panic!("expected Engine, got {other:?}"),
    }
}

#[test]
fn error_after_emission_classifies_as_mid_stream() {
    let engine = Engine::new();
    // Fails at $x = 150: two full 64-item batches (128 items) emit first.
    let plan = engine
        .compile("for $x in 1 to 200 return 1 div (150 - $x)")
        .unwrap();
    let ctx = DynamicContext::new();
    let mut emitted = 0u64;
    let err = plan
        .run_streaming(&ctx, &mut |items| {
            emitted += items.len() as u64;
            Ok(())
        })
        .expect_err("mid-stream division by zero must fail");
    match err {
        StreamError::Engine {
            error,
            items_emitted,
        } => {
            assert_eq!(error.code(), ErrorCode::FOAR0001);
            assert_eq!(items_emitted, emitted);
            assert_eq!(items_emitted, 128);
        }
        other => panic!("expected Engine, got {other:?}"),
    }
}

#[test]
fn sink_failure_classifies_as_sink_error() {
    let engine = Engine::new();
    let plan = engine.compile("for $x in 1 to 1000 return $x").unwrap();
    let ctx = DynamicContext::new();
    let mut calls = 0usize;
    let err = plan
        .run_streaming(&ctx, &mut |_| {
            calls += 1;
            if calls > 1 {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client hung up",
                ))
            } else {
                Ok(())
            }
        })
        .expect_err("sink failure must surface");
    match err {
        StreamError::Sink {
            error,
            items_emitted,
        } => {
            assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
            assert_eq!(items_emitted, 64);
        }
        other => panic!("expected Sink, got {other:?}"),
    }
}

#[test]
fn streaming_run_reports_stats_like_buffered() {
    let engine = Engine::new();
    let query = "for $b in //book group by $b/publisher into $p return $p";
    let plan = engine.compile(query).unwrap();

    let buffered_ctx = ctx_for(BIB);
    plan.run(&buffered_ctx).unwrap();
    let buffered = buffered_ctx.stats.snapshot();

    let streamed_ctx = ctx_for(BIB);
    plan.run_streaming(&streamed_ctx, &mut |_| Ok(())).unwrap();
    let streamed = streamed_ctx.stats.snapshot();

    assert_eq!(streamed.tuples_grouped, buffered.tuples_grouped);
    assert!(streamed.tuples_grouped > 0);
}

/// Fails at $x = 4500: 70 batches (4 480 items) reach the sink before
/// the error, the bytes of the first 4 480 items of the stream.
#[test]
fn parallel_error_after_emission_truncates_a_serial_prefix() {
    let plan = Engine::new()
        .compile("for $x in 1 to 5000 return 1 div (4500 - $x)")
        .unwrap();
    let mut ser = SequenceSerializer::new(SerializeOptions::default());
    let mut out = String::new();
    let err = plan
        .run_streaming(&DynamicContext::new(), &mut |items| {
            ser.push(items, &mut out);
            Ok(())
        })
        .expect_err("division by zero must fail");
    match err {
        StreamError::Engine {
            error,
            items_emitted,
        } => {
            assert_eq!(error.code(), ErrorCode::FOAR0001);
            assert_eq!(items_emitted, 4480);
        }
        other => panic!("expected Engine, got {other:?}"),
    }
    let prefix = Engine::new()
        .compile("for $x in 1 to 4480 return 1 div (4500 - $x)")
        .unwrap()
        .run(&DynamicContext::new())
        .unwrap();
    assert_eq!(out, serialize_sequence(&prefix));
}

/// A sink failure surfaces as a sink error and stops a breaker-free run
/// within one batch: the first batch's hand-over fails and nothing more
/// is pulled.
#[test]
fn parallel_sink_failure_stops_the_run_within_one_batch() {
    const ITEMS: u64 = 300_000;
    let plan = Engine::new()
        .compile(&format!("for $x in 1 to {ITEMS} return <n>{{$x}}</n>"))
        .unwrap();
    let ctx = DynamicContext::new();
    let mut calls = 0;
    let err = plan
        .run_streaming(&ctx, &mut |_| {
            calls += 1;
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client hung up",
            ))
        })
        .expect_err("sink failure must surface");
    match err {
        StreamError::Sink {
            error,
            items_emitted,
        } => {
            assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
            assert_eq!(items_emitted, 0);
        }
        other => panic!("expected Sink, got {other:?}"),
    }
    assert_eq!(calls, 1);
    assert_eq!(ctx.stats.snapshot().tuples_produced, 64);
}

/// Rows a `return` constructor builds share one arena per batch, yet
/// each keeps a document node of its own: `root()`, `..`, `is` and `<<`
/// answer as they would with a document per row, for two rows of one
/// batch (1, 2) and two on either side of the 64-row batch boundary
/// (64, 65).
#[test]
fn constructed_rows_keep_a_document_node_each() {
    const ROWS: &str = "for $x in 1 to 3000 return <r n=\"{$x}\">{$x}</r>";
    let engine = Engine::new();
    for (a, b) in [(1, 2), (64, 65)] {
        let query = format!(
            "let $rows := ({ROWS}) let $a := $rows[{a}] let $b := $rows[{b}] \
             return (root($a) is $a/.., $a/@n/.. is $a, root($a) is root($b), $a is $b, \
                     $a << $b, $b << $a, root($a) << root($b), $a/.. << $b, \
                     root($a) instance of document-node(), count(root($a)/node()), \
                     count($a/ancestor::node()), string(root($b)))"
        );
        let plan = engine.compile(&query).unwrap();
        let out = serialize_sequence(&plan.run(&DynamicContext::new()).unwrap());
        assert_eq!(
            out,
            format!("true true false false true false true true true 1 1 {b}"),
            "rows {a} and {b}"
        );
    }
    // The streamed rows themselves, across the batch boundary.
    let plan = engine.compile(ROWS).unwrap();
    let mut rows: Vec<Item> = Vec::new();
    plan.run_streaming(&DynamicContext::new(), &mut |items| {
        rows.extend_from_slice(items);
        Ok(())
    })
    .unwrap();
    let node = |i: usize| rows[i].as_node().unwrap().clone();
    for (a, b) in [(0, 1), (63, 64)] {
        let (ra, rb) = (node(a).parent().unwrap(), node(b).parent().unwrap());
        assert!(ra.parent().is_none() && rb.parent().is_none());
        assert!(!ra.is_same_node(&rb), "rows {a} and {b} share a root");
        assert!(node(a).document_order(&node(b)).is_lt());
        assert!(ra.document_order(&rb).is_lt());
        assert_eq!(ra.children().count(), 1);
    }
}

/// A row whose content raises on row 100 fails the second batch: the
/// first 64 rows have reached the sink, the rows built before the error
/// in the failing batch have not.
#[test]
fn constructed_row_error_stops_after_the_last_whole_batch() {
    let plan = Engine::new()
        .compile("for $x in 1 to 200 return <r a=\"{$x}\">{1 div (100 - $x)}</r>")
        .unwrap();
    let mut emitted = 0u64;
    let err = plan
        .run_streaming(&DynamicContext::new(), &mut |items| {
            emitted += items.len() as u64;
            Ok(())
        })
        .expect_err("row 100 divides by zero");
    match err {
        StreamError::Engine {
            error,
            items_emitted,
        } => {
            assert_eq!(error.code(), ErrorCode::FOAR0001);
            assert_eq!((items_emitted, emitted), (64, 64));
        }
        other => panic!("expected Engine, got {other:?}"),
    }
}
