//! Trace-event tests: compilation through a traced engine emits
//! rewrite-fired events exactly when the rewrites apply.

use std::sync::Arc;

use xqa_engine::{Engine, EngineOptions, TickClock, TracePhase, TraceRing, TraceSink, Tracer};

fn traced_compile(query: &str) -> Vec<(TracePhase, String)> {
    let ring = Arc::new(TraceRing::new(64));
    let tracer = Tracer::new(
        7,
        Arc::new(TickClock::new(1_000)),
        Arc::clone(&ring) as Arc<dyn TraceSink>,
    );
    Engine::new()
        .compile_traced(query, Some(&tracer))
        .expect("compiles");
    ring.drain()
        .into_iter()
        .map(|e| (e.phase, e.detail))
        .collect()
}

fn rewrite_events(events: &[(TracePhase, String)]) -> Vec<&str> {
    events
        .iter()
        .filter(|(phase, _)| *phase == TracePhase::RewriteFired)
        .map(|(_, detail)| detail.as_str())
        .collect()
}

#[test]
fn every_compile_emits_parse_then_compile() {
    let events = traced_compile("1 + 1");
    assert_eq!(events.first().map(|(p, _)| *p), Some(TracePhase::Parse));
    assert_eq!(events.last().map(|(p, _)| *p), Some(TracePhase::Compile));
    assert!(events.last().unwrap().1.contains("streaming pipeline"));
}

#[test]
fn the_compile_event_names_the_effective_hints() {
    let ring = Arc::new(TraceRing::new(64));
    let tracer = Tracer::new(
        7,
        Arc::new(TickClock::new(1_000)),
        Arc::clone(&ring) as Arc<dyn TraceSink>,
    );
    let plan = Engine::with_options(EngineOptions {
        hints: "join=nested,expr=tree".parse().unwrap(),
        ..Default::default()
    })
    .compile_traced("1 + 1", Some(&tracer))
    .expect("compiles");
    let hints = plan.hints();
    assert_eq!(
        (hints.hash_join, hints.bytecode),
        (Some(false), Some(false))
    );
    let compile = ring.drain().pop().expect("compile event").detail;
    assert!(compile.ends_with(&format!("hints [{hints}]")), "{compile}");
}

#[test]
fn topk_pushdown_fires_exactly_when_a_positional_bound_exists() {
    // Bounded rank query: the pushdown applies and says where.
    let events = traced_compile(
        "(for $x in 1 to 100 order by $x descending return at $r <v>{$r}</v>)[position() le 5]",
    );
    let fired = rewrite_events(&events);
    assert!(
        fired
            .iter()
            .any(|d| d.starts_with("topk-pushdown:") && d.contains("5-tuple heap")),
        "missing topk event in {fired:?}"
    );
    assert!(
        fired.iter().any(|d| d.contains("in query body")),
        "missing location in {fired:?}"
    );

    // Unbounded order-by: nothing to push down, no event.
    let events = traced_compile("for $x in 1 to 100 order by $x descending return $x");
    assert!(
        rewrite_events(&events)
            .iter()
            .all(|d| !d.starts_with("topk-pushdown:")),
        "topk-pushdown must not fire without a bound"
    );
}

#[test]
fn path_fusion_fires_exactly_on_descendant_steps() {
    let events = traced_compile("for $v in //item return $v");
    let fired = rewrite_events(&events);
    assert!(
        fired
            .iter()
            .any(|d| d.starts_with("path-fusion:") && d.contains("in query body")),
        "missing fusion event in {fired:?}"
    );

    // Child-only steps leave nothing to fuse.
    let events = traced_compile("for $v in /root/item return $v");
    assert!(
        rewrite_events(&events)
            .iter()
            .all(|d| !d.starts_with("path-fusion:")),
        "path-fusion must not fire on child-only paths"
    );
}

#[test]
fn rewrites_in_functions_and_globals_name_their_location() {
    let events = traced_compile(
        "declare variable $g := count(//a); \
         declare function local:f() { count(//b) }; \
         local:f() + $g",
    );
    let fired = rewrite_events(&events);
    assert!(
        fired.iter().any(|d| d.contains("global $g")),
        "missing global location in {fired:?}"
    );
    assert!(
        fired.iter().any(|d| d.contains("function local:f#0")),
        "missing function location in {fired:?}"
    );
}

#[test]
fn events_are_stamped_with_query_id_and_monotone_timestamps() {
    let ring = Arc::new(TraceRing::new(64));
    let tracer = Tracer::new(
        42,
        Arc::new(TickClock::new(1_000)),
        Arc::clone(&ring) as Arc<dyn TraceSink>,
    );
    Engine::new()
        .compile_traced("for $v in //item return $v", Some(&tracer))
        .expect("compiles");
    let events = ring.drain();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.query_id == 42));
    assert!(
        events.windows(2).all(|w| w[0].ts_nanos < w[1].ts_nanos),
        "timestamps must increase"
    );
}
