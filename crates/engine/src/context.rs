//! Static and dynamic evaluation contexts.

use crate::profile::{Clock, MonotonicClock, Profiler, QueryProfile};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xqa_storage::DocumentStore;
use xqa_xdm::{DateTime, Document, Item, NodeHandle};

/// The focus: context item, position and size, as set by path steps and
/// predicates (`.`, `fn:position()`, `fn:last()`).
#[derive(Debug, Clone)]
pub struct Focus {
    /// The context item.
    pub item: Item,
    /// 1-based position of the item in the context sequence.
    pub position: i64,
    /// Size of the context sequence.
    pub size: i64,
}

/// One evaluator counter: a relaxed [`AtomicU64`], so a context can be
/// shared (`Arc<DynamicContext>`) across service worker threads and the
/// stats aggregate without locks; single-threaded overhead is an
/// uncontended atomic add per bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// Declares the evaluator counters, one `field, "exported metric name",
/// "help";` line each, and generates everything that must name them
/// all: the atomic block, its plain-value snapshot, and the snapshot's
/// [`fields`](EvalStatsSnapshot::fields) list that every rendering
/// (`to_json`, `--stats`, `/metrics`, the README reference) walks.
macro_rules! eval_counters {
    ($($field:ident, $metric:literal, $help:literal;)*) => {
        /// Evaluation statistics, useful for demonstrating the
        /// plan-shape difference the paper measures (scans vs.
        /// single-pass grouping).
        #[derive(Debug, Default)]
        pub struct EvalStats {
            $(#[doc = $help] pub $field: Counter,)*
        }

        /// A plain-value copy of [`EvalStats`] taken at one instant.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct EvalStatsSnapshot {
            $(#[doc = $help] pub $field: u64,)*
        }

        impl EvalStats {
            /// Reset all counters to zero.
            pub fn reset(&self) {
                $(self.$field.0.store(0, Ordering::Relaxed);)*
            }

            /// Add a snapshot's counters into this block (used by the
            /// service to aggregate per-request snapshots into
            /// server-wide totals).
            pub fn add_snapshot(&self, s: &EvalStatsSnapshot) {
                $(self.$field.add(s.$field);)*
            }

            /// A point-in-time copy of all counters.
            pub fn snapshot(&self) -> EvalStatsSnapshot {
                EvalStatsSnapshot {
                    $($field: self.$field.0.load(Ordering::Relaxed),)*
                }
            }
        }

        impl EvalStatsSnapshot {
            /// What each counter gained since `before` (field-wise
            /// saturating subtraction: a `reset` in between reads as 0).
            pub fn delta(&self, before: &EvalStatsSnapshot) -> EvalStatsSnapshot {
                EvalStatsSnapshot {
                    $($field: self.$field.saturating_sub(before.$field),)*
                }
            }

            /// Every declared counter, in declaration order: `(field
            /// name, exported /metrics name, help text, value)`.
            pub fn fields(
                &self,
            ) -> impl Iterator<Item = (&'static str, &'static str, &'static str, u64)> {
                [$((stringify!($field), $metric, $help, self.$field),)*].into_iter()
            }
        }
    };
}

eval_counters! {
    nodes_visited, "xqa_eval_nodes_visited_total", "Nodes touched by axis traversal.";
    tuples_grouped, "xqa_eval_tuples_grouped_total", "Input tuples consumed by `group by` clauses.";
    groups_emitted, "xqa_eval_groups_emitted_total", "Groups emitted by `group by` clauses.";
    comparisons, "xqa_eval_comparisons_total", "Item comparisons performed (general and value).";
    tuples_produced, "xqa_eval_tuples_produced_total",
        "Tuples produced by pipeline scan operators (`for` / window).";
    tuples_pruned_filter, "xqa_eval_tuples_pruned_filter_total", "Tuples dropped by `where` filters.";
    tuples_pruned_topk, "xqa_eval_tuples_pruned_topk_total",
        "Tuples rejected or evicted by the bounded top-k heap.";
    seq_items_copied, "xqa_eval_seq_items_copied_total",
        "Items cloned into newly allocated sequence backing storage (DESIGN.md §11).";
    seq_clones_shared, "xqa_eval_seq_clones_shared_total",
        "Items whose copy was avoided because a sequence clone shared its backing allocation.";
    scan_index_hits, "xqa_scan_index_hits_total",
        "Leading descendant steps served by a document-store index lookup (DESIGN.md §12).";
    scan_index_tuples, "xqa_scan_index_tuples_total", "Tuples produced by index-resolved scans.";
    scan_walk_tuples, "xqa_scan_walk_tuples_total", "Tuples produced by tree-walk descendant scans.";
    // Retired with the expression bytecode evaluator and never bumped;
    // declared until the ledger stops reading both fields.
    expr_compiled, "xqa_eval_expr_compiled_total",
        "Retired, always 0: the expression bytecode evaluator it counted is gone (DESIGN.md §13).";
    expr_fallback, "xqa_eval_expr_fallback_total",
        "Retired, always 0: every expression runs on the IR tree-walker (DESIGN.md §13).";
    join_hash_probes, "xqa_join_hash_total",
        "Tuples that looked up a `HashJoin` build table by key; a probe that takes the nested-loop scan is not counted (DESIGN.md §15).";
    join_build_tuples, "xqa_join_build_tuples_total", "Items materialized into `HashJoin` build tables.";
}

impl EvalStatsSnapshot {
    /// Render the snapshot as one JSON object (std-only, hand-rolled).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut sep = '{';
        for (name, _, _, value) in self.fields() {
            let _ = write!(out, "{sep}\"{name}\":{value}");
            sep = ',';
        }
        out.push('}');
        out
    }
}

/// The `xqa --stats` line: `name=value` for every declared counter.
impl fmt::Display for EvalStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (name, _, _, value) in self.fields() {
            write!(f, "{sep}{name}={value}")?;
            sep = " ";
        }
        Ok(())
    }
}

/// The dynamic context: input documents and runtime counters.
#[derive(Debug)]
pub struct DynamicContext {
    context_item: Option<Item>,
    documents: HashMap<String, NodeHandle>,
    default_collection: Option<Vec<NodeHandle>>,
    collections: HashMap<String, Vec<NodeHandle>>,
    /// Indexed document stores, keyed by document serial. The evaluator
    /// resolves index-annotated path steps against these; documents
    /// without a store fall back to the tree walk per item.
    stores: HashMap<u64, Arc<DocumentStore>>,
    current_datetime: DateTime,
    /// Runtime counters (always collected; the overhead is a few
    /// relaxed atomic bumps).
    pub stats: EvalStats,
    /// The monotonic clock used for profiling timestamps. Injectable
    /// ([`DynamicContext::set_clock`]) so profiled runs can be made
    /// deterministic with a [`crate::profile::TickClock`] in tests.
    clock: Arc<dyn Clock>,
    /// Per-operator profile collector; `None` unless profiling was
    /// enabled, so unprofiled runs pay nothing in the pipeline.
    profiler: Option<Arc<Profiler>>,
}

impl Default for DynamicContext {
    fn default() -> Self {
        DynamicContext {
            context_item: None,
            documents: HashMap::new(),
            default_collection: None,
            collections: HashMap::new(),
            stores: HashMap::new(),
            // A fixed instant so queries are deterministic by default
            // (June 14, 2005 — the paper's SIGMOD). Override with
            // `set_current_datetime` for wall-clock behaviour.
            current_datetime: DateTime {
                year: 2005,
                month: 6,
                day: 14,
                hour: 9,
                minute: 0,
                second: 0,
                nanos: 0,
                tz_offset_min: Some(0),
            },
            stats: EvalStats::default(),
            clock: Arc::new(MonotonicClock::new()),
            profiler: None,
        }
    }
}

impl DynamicContext {
    /// An empty context (no input document).
    pub fn new() -> DynamicContext {
        DynamicContext::default()
    }

    /// The instant reported by `fn:current-dateTime()` /
    /// `fn:current-date()` (fixed per context, per the XQuery rule that
    /// the current dateTime is stable throughout a query).
    pub fn current_datetime(&self) -> DateTime {
        self.current_datetime
    }

    /// Override the context's current dateTime.
    pub fn set_current_datetime(&mut self, dt: DateTime) -> &mut Self {
        self.current_datetime = dt;
        self
    }

    /// Set the initial context item to the given document's root,
    /// making `/`, `//x` and `fn:root()` work.
    pub fn set_context_document(&mut self, doc: &Arc<Document>) -> &mut Self {
        self.context_item = Some(Item::Node(doc.root()));
        self
    }

    /// Set an arbitrary initial context item.
    pub fn set_context_item(&mut self, item: Item) -> &mut Self {
        self.context_item = Some(item);
        self
    }

    /// The initial context item, if any.
    pub fn context_item(&self) -> Option<&Item> {
        self.context_item.as_ref()
    }

    /// Register a document for `fn:doc("uri")`.
    pub fn register_document(&mut self, uri: impl Into<String>, doc: &Arc<Document>) -> &mut Self {
        self.documents.insert(uri.into(), doc.root());
        self
    }

    /// Look up a document by URI.
    pub fn document(&self, uri: &str) -> Option<&NodeHandle> {
        self.documents.get(uri)
    }

    /// Set the default collection (`fn:collection()` with no argument).
    pub fn set_default_collection(&mut self, roots: Vec<NodeHandle>) -> &mut Self {
        self.default_collection = Some(roots);
        self
    }

    /// Register a named collection for `fn:collection("name")`.
    pub fn register_collection(
        &mut self,
        name: impl Into<String>,
        roots: Vec<NodeHandle>,
    ) -> &mut Self {
        self.collections.insert(name.into(), roots);
        self
    }

    /// Look up a collection: `None` name means the default collection.
    pub fn collection(&self, name: Option<&str>) -> Option<&[NodeHandle]> {
        match name {
            None => self.default_collection.as_deref(),
            Some(n) => self.collections.get(n).map(|v| v.as_slice()),
        }
    }

    /// Register an indexed store for its document (keyed by document
    /// serial). Re-registering for the same document replaces the store.
    pub fn register_store(&mut self, store: Arc<DocumentStore>) -> &mut Self {
        self.stores.insert(store.document().serial(), store);
        self
    }

    /// The store indexing the document with the given serial, if any.
    pub fn store(&self, doc_serial: u64) -> Option<&Arc<DocumentStore>> {
        self.stores.get(&doc_serial)
    }

    /// The registered stores, in arbitrary order.
    pub fn stores(&self) -> impl Iterator<Item = &Arc<DocumentStore>> {
        self.stores.values()
    }

    /// Build and register a [`DocumentStore`] for every document
    /// reachable from this context (context item, `fn:doc` registry,
    /// default and named collections) that does not have one yet.
    /// Returns how many stores were built.
    pub fn index_documents(&mut self) -> usize {
        let mut docs: Vec<Arc<Document>> = Vec::new();
        let mut seen: std::collections::HashSet<u64> = self.stores.keys().copied().collect();
        let push = |doc: &Arc<Document>,
                    docs: &mut Vec<Arc<Document>>,
                    seen: &mut std::collections::HashSet<u64>| {
            if seen.insert(doc.serial()) {
                docs.push(Arc::clone(doc));
            }
        };
        if let Some(Item::Node(n)) = &self.context_item {
            push(n.document(), &mut docs, &mut seen);
        }
        for n in self.documents.values() {
            push(n.document(), &mut docs, &mut seen);
        }
        for n in self.default_collection.iter().flatten() {
            push(n.document(), &mut docs, &mut seen);
        }
        for n in self.collections.values().flatten() {
            push(n.document(), &mut docs, &mut seen);
        }
        let built = docs.len();
        for doc in docs {
            self.register_store(Arc::new(DocumentStore::build(&doc)));
        }
        built
    }

    /// The clock profiling timestamps are read from.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Replace the profiling clock (inject a deterministic
    /// [`crate::profile::TickClock`] for golden tests).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) -> &mut Self {
        self.clock = clock;
        self
    }

    /// Turn on per-operator profiling for subsequent runs against this
    /// context, installing a fresh collector.
    pub fn enable_profiling(&mut self) -> &mut Self {
        self.profiler = Some(Arc::new(Profiler::new()));
        self
    }

    /// The installed profile collector, if profiling is enabled.
    pub fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.profiler.as_ref()
    }

    /// Drain the collected per-operator profile. `None` when profiling
    /// was never enabled.
    pub fn take_profile(&self) -> Option<QueryProfile> {
        self.profiler.as_ref().map(|p| p.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_xdm::{DocumentBuilder, QName};

    fn doc() -> Arc<Document> {
        let mut b = DocumentBuilder::new();
        b.start_element(QName::local("r")).end_element();
        b.finish()
    }

    #[test]
    fn context_document_sets_root_item() {
        let d = doc();
        let mut ctx = DynamicContext::new();
        ctx.set_context_document(&d);
        match ctx.context_item().unwrap() {
            Item::Node(n) => assert!(n.is_same_node(&d.root())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn documents_and_collections() {
        let d1 = doc();
        let d2 = doc();
        let mut ctx = DynamicContext::new();
        ctx.register_document("a.xml", &d1);
        ctx.register_collection("orders", vec![d1.root(), d2.root()]);
        ctx.set_default_collection(vec![d2.root()]);
        assert!(ctx.document("a.xml").is_some());
        assert!(ctx.document("missing.xml").is_none());
        assert_eq!(ctx.collection(Some("orders")).unwrap().len(), 2);
        assert_eq!(ctx.collection(None).unwrap().len(), 1);
        assert!(ctx.collection(Some("nope")).is_none());
    }

    #[test]
    fn stats_reset() {
        let ctx = DynamicContext::new();
        ctx.stats.nodes_visited.add(5);
        ctx.stats.comparisons.add(2);
        assert_eq!(ctx.stats.snapshot().nodes_visited, 5);
        ctx.stats.reset();
        assert_eq!(ctx.stats.snapshot(), EvalStatsSnapshot::default());
    }

    #[test]
    fn profiling_disabled_by_default() {
        let mut ctx = DynamicContext::new();
        assert!(ctx.profiler().is_none());
        assert!(ctx.take_profile().is_none());
        ctx.enable_profiling();
        assert!(ctx.profiler().is_some());
        assert!(ctx.take_profile().expect("enabled").is_empty());
    }

    #[test]
    fn stats_aggregate_across_threads() {
        let ctx = std::sync::Arc::new(DynamicContext::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ctx = std::sync::Arc::clone(&ctx);
                s.spawn(move || {
                    for _ in 0..1000 {
                        ctx.stats.comparisons.add(1);
                    }
                });
            }
        });
        assert_eq!(ctx.stats.snapshot().comparisons, 4000);
    }
}
