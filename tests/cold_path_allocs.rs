//! Allocation ceilings for the cold path, constructed rows, grouping,
//! top-k pushdown and the flight recorder.
//!
//! The document arena keeps one record per node in a flat vector and all
//! text in one buffer, the parser appends to them, and the index build
//! reads them by id: none of the three allocates per node. These counts
//! are exact (one thread, no timing), so a change that brings a
//! per-node `Arc`, `String` or `Vec` back fails here before any
//! benchmark runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xqa::{parse_document, serialize_node, DynamicContext, Engine, EngineOptions};
use xqa_service::{FlightRecord, FlightRecorder};
use xqa_workload::{generate_orders, OrdersConfig};

struct Counting;

thread_local! {
    // `const` initializers: no lazy set-up and no destructor, so the
    // allocator can touch them at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one request of `size` bytes on the calling thread (the test
/// harness runs each test on a thread of its own).
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and bytes requested by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.get(), BYTES.get());
    let value = f();
    (value, ALLOCS.get() - before.0, BYTES.get() - before.1)
}

/// The `cold_run` document of the ledger: about 2K lineitems.
fn orders_xml() -> String {
    serialize_node(&generate_orders(&OrdersConfig::with_total_lineitems(2_000)).root())
}

/// Parse + index + drop of the 2K-lineitem orders document.
///
/// At commit 2302fab (one `NodeData` with two `Vec`s and an `Arc<str>`
/// per node) this was 3.735 allocations and 581 bytes per node. The
/// arena measures 0.321 and 151; what is left is the value dictionaries
/// (a key and a posting list per distinct value) and the doubling of
/// the few large vectors, so the ceilings leave a fifth of headroom.
#[test]
fn cold_path_allocates_per_distinct_value_not_per_node() {
    const ALLOCS_PER_NODE: f64 = 0.40;
    const BYTES_PER_NODE: f64 = 190.0;
    let xml = orders_xml();
    let (nodes, allocs, bytes) = counted(|| {
        let doc = parse_document(&xml).expect("generated XML parses");
        let mut ctx = DynamicContext::new();
        ctx.set_context_document(&doc);
        assert_eq!(ctx.index_documents(), 1);
        doc.len()
    });
    let (per_node, bytes_per_node) = (allocs as f64 / nodes as f64, bytes as f64 / nodes as f64);
    println!("{nodes} nodes: {allocs} allocations ({per_node:.3}/node), {bytes} bytes ({bytes_per_node:.1}/node)");
    assert!(
        per_node <= ALLOCS_PER_NODE,
        "{allocs} allocations for {nodes} nodes: {per_node:.3} per node, ceiling {ALLOCS_PER_NODE}"
    );
    assert!(
        bytes_per_node <= BYTES_PER_NODE,
        "{bytes} bytes for {nodes} nodes: {bytes_per_node:.1} per node, ceiling {BYTES_PER_NODE}"
    );
}

/// Constructed fragments go through the same builder as parsed
/// documents: 1 000 rows, each its own small document with a copied
/// element, an attribute and a text, must not cost more than they did
/// before the arena.
#[test]
fn constructed_rows_allocate_no_more_than_before_the_arena() {
    /// What this query allocated at commit 2302fab.
    const PARENT_ALLOCS: u64 = 31_831;
    const PARENT_BYTES: u64 = 3_757_517;
    let doc = parse_document(&orders_xml()).expect("generated XML parses");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let plan = engine
        .compile(
            "for $li in (//order/lineitem)[position() le 1000] \
             return <r id=\"{data($li/linenumber)}\">{$li/partkey}{data($li/quantity)}</r>",
        )
        .expect("compiles");
    let (rows, allocs, bytes) = counted(|| plan.run(&ctx).expect("runs").len());
    assert_eq!(rows, 1_000);
    println!("{rows} rows: {allocs} allocations, {bytes} bytes");
    assert!(
        allocs <= PARENT_ALLOCS,
        "{allocs} allocations for {rows} rows, {PARENT_ALLOCS} before the arena"
    );
    assert!(
        bytes <= PARENT_BYTES,
        "{bytes} bytes for {rows} rows, {PARENT_BYTES} before the arena"
    );
}

/// A warm, indexed document of about 1K lineitems.
fn orders_1k() -> DynamicContext {
    let doc = generate_orders(&OrdersConfig::with_total_lineitems(1_000));
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    ctx
}

/// Lineitems in the context document.
fn lineitems(ctx: &DynamicContext, engine: &Engine) -> u64 {
    let count = engine.compile("count(//order/lineitem)").expect("compiles");
    count.run(ctx).expect("runs")[0]
        .string_value()
        .parse()
        .expect("an integer")
}

/// The paper's six `Qgb` templates (Table 1, right; Section 6's
/// grouping elements): grouping a lineitem allocates nothing of its
/// own. What is left is the scan's binding vector per tuple plus a few
/// allocations per group and per output row: 1.18 (4 groups) to 1.78
/// (50 groups) per lineitem. Before key building and verification
/// borrowed from the arena it was 11.6 to 20.2 (a handle per child
/// examined, a key string, the verifying deep-equal's vectors, a kept
/// nest entry per member).
#[test]
fn grouping_allocates_per_group_not_per_member() {
    const ALLOCS_PER_TUPLE: f64 = 2.0;
    const GROUP_KEYS: [&[&str]; 6] = [
        &["shipinstruct"],
        &["shipmode"],
        &["tax"],
        &["shipinstruct", "shipmode"],
        &["shipinstruct", "tax"],
        &["quantity"],
    ];
    let ctx = orders_1k();
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let tuples = lineitems(&ctx, &engine);
    for keys in GROUP_KEYS {
        let (by, vars) = match keys {
            [a] => (format!("$litem/{a} into $a"), "$a"),
            [a, b] => (format!("$litem/{a} into $a, $litem/{b} into $b"), "$a, $b"),
            _ => unreachable!("one or two grouping elements"),
        };
        let query = format!(
            "for $litem in //order/lineitem group by {by} nest $litem into $items \
             return <r> {{{vars}, count($items)}} </r>"
        );
        let plan = engine.compile(&query).expect("compiles");
        plan.run(&ctx).expect("warm-up run");
        let (groups, allocs, _) = counted(|| plan.run(&ctx).expect("runs").len());
        let per_tuple = allocs as f64 / tuples as f64;
        println!("{keys:?}: {tuples} lineitems, {groups} groups, {allocs} allocations ({per_tuple:.2}/lineitem)");
        assert!(
            per_tuple <= ALLOCS_PER_TUPLE,
            "{keys:?}: {allocs} allocations for {tuples} lineitems: {per_tuple:.2} per lineitem, \
             ceiling {ALLOCS_PER_TUPLE}"
        );
    }
}

/// A `child::name` step compares name ids and makes a handle only for a
/// match: `//order/lineitem/shipmode` allocates for the result it
/// builds (0.031 per lineitem), not for each lineitem's candidates (1.39
/// when every step collected them into a vector of its own).
#[test]
fn child_name_step_allocates_per_match_not_per_child() {
    const ALLOCS_PER_LINEITEM: f64 = 0.25;
    let ctx = orders_1k();
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let n = lineitems(&ctx, &engine);
    let plan = engine
        .compile("//order/lineitem/shipmode")
        .expect("compiles");
    plan.run(&ctx).expect("warm-up run");
    let (len, allocs, _) = counted(|| plan.run(&ctx).expect("runs").len());
    assert_eq!(len as u64, n);
    let per_lineitem = allocs as f64 / n as f64;
    println!("{n} lineitems: {allocs} allocations ({per_lineitem:.3}/lineitem)");
    assert!(
        per_lineitem <= ALLOCS_PER_LINEITEM,
        "{allocs} allocations for {n} lineitems: {per_lineitem:.3} per lineitem, \
         ceiling {ALLOCS_PER_LINEITEM}"
    );
}

/// Top-k pushdown keeps ten tuples in a bounded heap and constructs ten
/// rows; with `topk=off` the same rank query sorts every lineitem
/// first. The full sort must cost at least 2.5 times the allocations:
/// 5 221 vs 18 490 when this floor was set.
#[test]
fn topk_pushdown_allocates_under_the_full_sort() {
    let ctx = orders_1k();
    let allocs = |hints: &str| {
        let engine = Engine::with_options(EngineOptions {
            threads: 1,
            hints: hints.parse().expect("valid hints"),
        });
        let plan = engine
            .compile(
                "(for $li in //order/lineitem \
                  order by number($li/extendedprice) descending \
                  return at $r <top rank=\"{$r}\">{data($li/partkey)}</top>)\
                 [position() le 10]",
            )
            .expect("compiles");
        plan.run(&ctx).expect("warm-up run");
        let (rows, allocs, _) = counted(|| plan.run(&ctx).expect("runs").len());
        assert_eq!(rows, 10);
        allocs
    };
    let (heap, full_sort) = (allocs("topk=on"), allocs("topk=off"));
    println!("rank query: {heap} allocations with top-k pushdown, {full_sort} with a full sort");
    assert!(
        2 * full_sort >= 5 * heap,
        "full sort {full_sort} allocations, top-k heap {heap}: under 2.5x"
    );
}

/// The flight recorder is on in every served request, so depositing a
/// record must stay cheap: one allocation (the shared record) into a
/// full ring, whose evicted record is freed, and none when recording is
/// off.
#[test]
fn flight_recorder_allocates_once_per_record() {
    const RECORDS: u64 = 1_000;
    let record = |i: u64| FlightRecord {
        request_id: i.to_string(),
        fingerprint: Some(0x8486_d01b_7883_8283 ^ (i % 7)),
        query: "sum(//quantity)".to_string(),
        ok: true,
        error: None,
        cached_plan: i > 0,
        streamed: false,
        latency_us: 150 + i % 50,
        tuples: 1_000,
        worst_q_error: Some(1.0 + (i % 10) as f64 / 10.0),
        stats_json: Some("{\"tuples_produced\":1000}".to_string()),
        profile_json: Some("{\"pipelines\":[]}".to_string()),
        trace_json: "[]".to_string(),
        rewrites: vec!["top-k pushdown".to_string()],
    };
    for (capacity, per_record) in [(256, 1), (0, 0)] {
        let recorder = FlightRecorder::new(capacity);
        for i in 0..capacity as u64 {
            recorder.record(record(i));
        }
        let records: Vec<FlightRecord> = (0..RECORDS).map(record).collect();
        let ((), allocs, _) = counted(|| {
            for r in records {
                recorder.record(r);
            }
        });
        println!("capacity {capacity}: {allocs} allocations for {RECORDS} records");
        assert!(
            allocs <= per_record * RECORDS,
            "capacity {capacity}: {allocs} allocations for {RECORDS} records, \
             ceiling {per_record} per record"
        );
    }
}
