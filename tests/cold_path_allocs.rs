//! Allocation ceilings for the cold path, constructed rows, export rows,
//! grouping, top-k pushdown and the flight recorder.
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
    /// Bytes allocated and not yet freed on this thread, and the most
    /// that has been since `peak_live` last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one request of `size` bytes on the calling thread (the test
/// harness runs each test on a thread of its own).
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

/// Move the calling thread's live bytes by `delta`.
fn live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
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

/// The most bytes `f` held allocated at once on this thread.
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.get();
    PEAK.set(base);
    let value = f();
    (value, PEAK.get() - base)
}

/// The `cold_run` document of the ledger: about 2K lineitems.
fn orders_xml() -> String {
    serialize_node(&generate_orders(&OrdersConfig::with_total_lineitems(2_000)).root())
}

/// Parse + index + drop of the 2K-lineitem orders document.
///
/// At commit 2302fab (one `NodeData` with two `Vec`s and an `Arc<str>`
/// per node) this was 3.735 allocations and 581 bytes per node. The
/// arena brought it to 0.321 and 151, most of it a dictionary key and a
/// posting list per distinct leaf value (commit a02b809). The value
/// dictionaries now keep their keys in the document's text buffer and
/// their postings in one array per name, so what is left is the doubling
/// of a few vectors per name and of the arena's own: 0.017 and 133. The
/// ceilings leave a fifth of headroom on the bytes and room for a few
/// more names on the count.
#[test]
fn cold_path_allocates_per_name_not_per_value() {
    const ALLOCS_PER_NODE: f64 = 0.03;
    const BYTES_PER_NODE: f64 = 160.0;
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

/// Constructed rows go through the same builder as parsed documents,
/// and the rows of one pipeline batch share one arena: 1 000 rows, each
/// with a copied element, an attribute and a text, take 1 406
/// allocations and 1 488 897 bytes, most of it the scan's binding per
/// tuple. With a document per row they took 18 522 and 1 871 969 (commit
/// b2eaded), and 31 831 and 3 757 517 before the arena (commit 2302fab).
/// The ceilings leave a fifth of headroom on the count.
#[test]
fn constructed_rows_share_one_arena_per_batch() {
    const ALLOCS: u64 = 1_700;
    const BYTES: u64 = 1_800_000;
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
        allocs <= ALLOCS,
        "{allocs} allocations for {rows} rows, ceiling {ALLOCS}"
    );
    assert!(
        bytes <= BYTES,
        "{bytes} bytes for {rows} rows, ceiling {BYTES}"
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

/// Nodes `path` selects in the context document.
fn items_in(ctx: &DynamicContext, engine: &Engine, path: &str) -> u64 {
    let count = engine.compile(&format!("count({path})")).expect("compiles");
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
    let tuples = items_in(&ctx, &engine, "//order/lineitem");
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
    let n = items_in(&ctx, &engine, "//order/lineitem");
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

/// The ledger's three `export_stream` shapes, `for … where <leaf test>
/// return <row>{…}</row>`, streamed and serialized at `threads = 1` as
/// the ledger runs them. The scan and the `where` test are costed per
/// tuple (the same query returning `()`), the rest per row built. A
/// leaf test borrows the node's text and the rows of a batch share one
/// arena, so what is left per tuple is the scan's binding (and
/// `number`'s argument vector), and per row mostly the serializer's.
/// Measured 2.12 / 1.12 / 1.16 per tuple and 8.09 / 4.96 / 9.94 per row;
/// at commit b2eaded they were 4.1 per tuple and 14.1 / 21.3 / 19.3 per
/// row. The ceilings leave a fifth of headroom.
#[test]
fn export_rows_allocate_per_batch_not_per_row() {
    /// (`for` path, `where` test, row constructor, ceiling per tuple,
    /// ceiling per row).
    const EXPORTS: [(&str, &str, &str, f64, f64); 3] = [
        (
            "//order/lineitem",
            "number($x/quantity) ge 35",
            "<row>{$x/partkey}{$x/extendedprice}{$x/shipmode}</row>",
            2.5,
            10.0,
        ),
        (
            "//order/lineitem",
            "$x/returnflag = 'R'",
            "<row id=\"{data($x/partkey)}\">{data($x/extendedprice)}</row>",
            1.35,
            6.0,
        ),
        (
            "//order",
            "$x/orderstatus = 'F'",
            "<o>{$x/orderkey}{$x/customer/name}{$x/totalprice}{$x/comment}</o>",
            1.4,
            12.0,
        ),
    ];
    let ctx = orders_1k();
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let streamed = |query: &str| {
        let plan = engine.compile(query).expect("compiles");
        let stream = || {
            plan.run_serialized(&ctx, &mut |_| Ok(()))
                .expect("streams")
                .items
        };
        stream();
        let (rows, allocs, _) = counted(stream);
        (rows, allocs)
    };
    for (path, test, row, tuple_ceiling, row_ceiling) in EXPORTS {
        let tuples = items_in(&ctx, &engine, path);
        let (_, filter) = streamed(&format!("for $x in {path} where {test} return ()"));
        let (rows, all) = streamed(&format!("for $x in {path} where {test} return {row}"));
        let built = all.saturating_sub(filter);
        let (per_tuple, per_row) = (filter as f64 / tuples as f64, built as f64 / rows as f64);
        println!(
            "{test}: {tuples} tuples, {filter} allocations ({per_tuple:.2}/tuple); \
             {rows} rows, {built} more ({per_row:.2}/row)"
        );
        assert!(
            per_tuple <= tuple_ceiling,
            "{test}: {filter} allocations for {tuples} tuples: {per_tuple:.2} per tuple, \
             ceiling {tuple_ceiling}"
        );
        assert!(
            per_row <= row_ceiling,
            "{test}: {built} allocations for {rows} rows: {per_row:.2} per row, \
             ceiling {row_ceiling}"
        );
    }
}

/// Top-k pushdown keeps ten tuples in a bounded heap and constructs ten
/// rows; with `topk=off` the same rank query sorts every lineitem and
/// builds every row first. The full sort must hold at least 2.5 times
/// the bytes live at its peak: 432 313 vs 110 201 when this floor was
/// set. (It was set at 2.5 times the allocations, 18 490 vs 5 221; since
/// a batch of rows shares one arena a row costs about one allocation,
/// and the count no longer tells O(k) from O(n) kept tuples.)
#[test]
fn topk_pushdown_allocates_under_the_full_sort() {
    let ctx = orders_1k();
    let peak = |hints: &str| {
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
        let (rows, peak) = peak_live(|| plan.run(&ctx).expect("runs").len());
        assert_eq!(rows, 10);
        peak
    };
    let (heap, full_sort) = (peak("topk=on"), peak("topk=off"));
    println!("rank query: {heap} bytes live at the peak with top-k pushdown, {full_sort} with a full sort");
    assert!(
        2 * full_sort >= 5 * heap,
        "full sort {full_sort} bytes live at the peak, top-k heap {heap}: under 2.5x"
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
