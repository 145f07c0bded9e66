//! Allocation ceilings for the cold path and for constructed rows.
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
