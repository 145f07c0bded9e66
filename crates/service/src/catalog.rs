//! The document catalog: named documents and collections, parsed once
//! at startup and shared immutably across worker threads.
//!
//! Every entry is an `Arc<Document>`; building a per-request
//! [`DynamicContext`] from the catalog only clones handles, never
//! re-parses XML. The catalog is the single owner of input data for a
//! [`crate::Server`] — each request gets its own context (cheap `Arc`
//! clones) so per-request stats and profiles never interleave.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use xqa_engine::DynamicContext;
use xqa_storage::{CatalogStatistics, DocumentStore};
use xqa_xdm::Document;
use xqa_xmlparse::parse_document;

/// Error raised while loading catalog entries (file I/O or XML parse),
/// tagged with the offending source so startup failures are actionable.
#[derive(Debug)]
pub struct CatalogError {
    /// The document name, collection name or file path that failed.
    pub source: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.source, self.message)
    }
}

impl std::error::Error for CatalogError {}

fn parse_named(source: &str, xml: &str) -> Result<Arc<Document>, CatalogError> {
    parse_document(xml).map_err(|e| CatalogError {
        source: source.to_string(),
        message: e.to_string(),
    })
}

fn read_file(path: &Path) -> Result<String, CatalogError> {
    std::fs::read_to_string(path).map_err(|e| CatalogError {
        source: path.display().to_string(),
        message: format!("cannot read: {e}"),
    })
}

/// Named documents and collections, parsed once and shared immutably.
///
/// Entry order is preserved so contexts built from the same catalog are
/// identical (collections keep their file order, which is observable
/// through `fn:collection()` document order).
#[derive(Debug, Default, Clone)]
pub struct DocumentCatalog {
    context: Option<Arc<Document>>,
    documents: Vec<(String, Arc<Document>)>,
    collections: Vec<(String, Vec<Arc<Document>>)>,
    /// Parsed files by canonicalized path: a path repeated across (or
    /// within) collection lists parses once and shares one `Arc`.
    file_cache: HashMap<String, Arc<Document>>,
    /// Indexed stores built by [`DocumentCatalog::build_indexes`], one
    /// per distinct document.
    stores: Vec<Arc<DocumentStore>>,
    statistics: Option<Arc<CatalogStatistics>>,
}

impl DocumentCatalog {
    /// An empty catalog.
    pub fn new() -> DocumentCatalog {
        DocumentCatalog::default()
    }

    /// Indexes (and statistics) reflect the documents present when
    /// [`DocumentCatalog::build_indexes`] ran; any later mutation
    /// discards them so stale stores can never be served.
    fn invalidate_indexes(&mut self) {
        self.stores.clear();
        self.statistics = None;
    }

    /// Parse a file, serving repeats of the same path from the cache so
    /// the document is parsed once and shared via one `Arc`.
    fn load_file(&mut self, path: &Path) -> Result<Arc<Document>, CatalogError> {
        // Canonicalize so `a.xml` and `./a.xml` hit the same entry;
        // fall back to the literal path for files that vanish between
        // listing and loading (the read below will report the error).
        let key = std::fs::canonicalize(path)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| path.display().to_string());
        if let Some(doc) = self.file_cache.get(&key) {
            return Ok(Arc::clone(doc));
        }
        let doc = parse_named(&path.display().to_string(), &read_file(path)?)?;
        self.file_cache.insert(key, Arc::clone(&doc));
        Ok(doc)
    }

    /// Set the context document (the initial context item) from a
    /// pre-built document.
    pub fn set_context(&mut self, doc: Arc<Document>) -> &mut Self {
        self.invalidate_indexes();
        self.context = Some(doc);
        self
    }

    /// Set the context document from XML text.
    pub fn set_context_xml(&mut self, xml: &str) -> Result<&mut Self, CatalogError> {
        self.invalidate_indexes();
        self.context = Some(parse_named("<context>", xml)?);
        Ok(self)
    }

    /// Set the context document from a file.
    pub fn set_context_file(&mut self, path: impl AsRef<Path>) -> Result<&mut Self, CatalogError> {
        self.invalidate_indexes();
        let doc = self.load_file(path.as_ref())?;
        self.context = Some(doc);
        Ok(self)
    }

    /// Register a document for `fn:doc("name")` from XML text.
    pub fn add_document_xml(
        &mut self,
        name: impl Into<String>,
        xml: &str,
    ) -> Result<&mut Self, CatalogError> {
        self.invalidate_indexes();
        let name = name.into();
        let doc = parse_named(&name, xml)?;
        self.documents.push((name, doc));
        Ok(self)
    }

    /// Register a document for `fn:doc("name")` from a file.
    pub fn add_document_file(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<&mut Self, CatalogError> {
        self.invalidate_indexes();
        let doc = self.load_file(path.as_ref())?;
        self.documents.push((name.into(), doc));
        Ok(self)
    }

    /// Register a pre-built collection for `fn:collection("name")`.
    pub fn add_collection(
        &mut self,
        name: impl Into<String>,
        docs: Vec<Arc<Document>>,
    ) -> &mut Self {
        self.invalidate_indexes();
        self.collections.push((name.into(), docs));
        self
    }

    /// Register a collection for `fn:collection("name")` from files, in
    /// the given order. A path repeated in the list (or already loaded
    /// for another entry) is parsed once and shared.
    pub fn add_collection_files<P: AsRef<Path>>(
        &mut self,
        name: impl Into<String>,
        paths: &[P],
    ) -> Result<&mut Self, CatalogError> {
        self.invalidate_indexes();
        let mut docs = Vec::with_capacity(paths.len());
        for path in paths {
            docs.push(self.load_file(path.as_ref())?);
        }
        self.collections.push((name.into(), docs));
        Ok(self)
    }

    /// Build an indexed [`DocumentStore`] for every distinct document
    /// in the catalog (context document, named documents, collection
    /// members), through a fresh context's
    /// [`DynamicContext::index_documents`], and derive the catalog-wide
    /// [`CatalogStatistics`] the planner's estimates read. Subsequent
    /// [`DocumentCatalog::new_context`] calls register the stores so
    /// queries can take the index access path. Returns the statistics;
    /// calling again rebuilds every store.
    pub fn build_indexes(&mut self) -> Arc<CatalogStatistics> {
        self.stores.clear();
        let mut ctx = self.new_context();
        ctx.index_documents();
        self.stores = ctx.stores().cloned().collect();
        let stats = Arc::new(CatalogStatistics::from_stores(
            self.stores.iter().map(Arc::as_ref),
        ));
        self.statistics = Some(Arc::clone(&stats));
        stats
    }

    /// The statistics from the last [`DocumentCatalog::build_indexes`],
    /// if the catalog has not been mutated since.
    pub fn statistics(&self) -> Option<&Arc<CatalogStatistics>> {
        self.statistics.as_ref()
    }

    /// The catalog version: the highest store version among the built
    /// indexes (0 when indexes have not been built). Strictly grows as
    /// documents are (re)indexed, so it invalidates plan-cache entries
    /// compiled against older statistics.
    pub fn version(&self) -> u64 {
        self.statistics.as_ref().map_or(0, |s| s.version())
    }

    /// Number of indexed document stores currently built.
    pub fn indexed_document_count(&self) -> usize {
        self.stores.len()
    }

    /// Total estimated index heap footprint across built stores.
    pub fn index_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.index_bytes()).sum()
    }

    /// Build a fresh [`DynamicContext`] over the catalog's documents.
    ///
    /// Cheap: registers shared `Arc<Document>` handles, no re-parsing.
    /// The returned context carries its own [`xqa_engine::EvalStats`].
    pub fn new_context(&self) -> DynamicContext {
        let mut ctx = DynamicContext::new();
        if let Some(doc) = &self.context {
            ctx.set_context_document(doc);
        }
        for (name, doc) in &self.documents {
            ctx.register_document(name.clone(), doc);
        }
        for (name, docs) in &self.collections {
            ctx.register_collection(name.clone(), docs.iter().map(|d| d.root()).collect());
        }
        for store in &self.stores {
            ctx.register_store(Arc::clone(store));
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_engine::Engine;

    #[test]
    fn context_and_documents_are_queryable() {
        let mut catalog = DocumentCatalog::new();
        catalog.set_context_xml("<r><v>1</v><v>2</v></r>").unwrap();
        catalog
            .add_document_xml("aux", "<aux><v>40</v></aux>")
            .unwrap();
        let ctx = catalog.new_context();
        let engine = Engine::new();
        let q = engine.compile("sum(//v) + sum(doc('aux')//v)").unwrap();
        assert_eq!(q.run(&ctx).unwrap()[0].string_value(), "43");
    }

    #[test]
    fn collections_preserve_document_order() {
        let mut catalog = DocumentCatalog::new();
        catalog.add_collection(
            "c",
            vec![
                parse_document("<d><n>first</n></d>").unwrap(),
                parse_document("<d><n>second</n></d>").unwrap(),
            ],
        );
        let ctx = catalog.new_context();
        let engine = Engine::new();
        let q = engine
            .compile("for $d in collection('c') return string($d//n)")
            .unwrap();
        let out = q.run(&ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].string_value(), "first");
        assert_eq!(out[1].string_value(), "second");
    }

    #[test]
    fn parse_errors_name_the_source() {
        let mut catalog = DocumentCatalog::new();
        let err = catalog
            .add_document_xml("broken", "<not closed")
            .unwrap_err();
        assert_eq!(err.source, "broken");
        let err = catalog
            .add_document_file("x", "/nonexistent/path.xml")
            .unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn repeated_collection_files_parse_once_and_share() {
        let dir = std::env::temp_dir().join(format!("xqa-catalog-dedupe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("doc.xml");
        std::fs::write(&file, "<d><v>5</v></d>").unwrap();
        let mut catalog = DocumentCatalog::new();
        // The same file three times: twice in one list (once via a
        // relative-ish ./ spelling) and again in a second collection.
        let dotted = dir.join(".").join("doc.xml");
        catalog
            .add_collection_files("c", &[file.clone(), dotted, file.clone()])
            .unwrap();
        catalog
            .add_collection_files("c2", std::slice::from_ref(&file))
            .unwrap();
        let ctx = catalog.new_context();
        let collect = |name: &str| match ctx.collection(Some(name)) {
            Some(nodes) => nodes.to_vec(),
            None => panic!("collection {name} missing"),
        };
        let c = collect("c");
        let c2 = collect("c2");
        // Collection order (and multiplicity) is preserved...
        assert_eq!(c.len(), 3);
        assert_eq!(c2.len(), 1);
        // ...but every entry is the same parsed document.
        assert!(c[0].is_same_node(&c[1]));
        assert!(c[0].is_same_node(&c[2]));
        assert!(c[0].is_same_node(&c2[0]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_indexes_registers_stores_and_statistics() {
        let mut catalog = DocumentCatalog::new();
        catalog
            .set_context_xml("<r><item><p>1</p></item><item><p>2</p></item></r>")
            .unwrap();
        catalog
            .add_document_xml("aux", "<aux><p>3</p></aux>")
            .unwrap();
        let stats = catalog.build_indexes();
        assert_eq!(catalog.indexed_document_count(), 2);
        assert!(catalog.index_bytes() > 0);
        assert_eq!(catalog.version(), stats.version());
        assert!(catalog.version() > 0);
        let p = xqa_xdm::QName::local("p");
        assert_eq!(stats.element_count(&p), 3);
        // Contexts built after indexing carry the stores.
        let ctx = catalog.new_context();
        assert_eq!(ctx.stores().count(), 2);
        // Mutation invalidates: stale stores are never served.
        catalog.add_document_xml("more", "<m/>").unwrap();
        assert!(catalog.statistics().is_none());
        assert_eq!(catalog.indexed_document_count(), 0);
        let v2 = catalog.build_indexes().version();
        assert!(v2 > stats.version());
    }

    #[test]
    fn contexts_from_one_catalog_share_documents() {
        let mut catalog = DocumentCatalog::new();
        catalog.set_context_xml("<r><v>7</v></r>").unwrap();
        let a = catalog.new_context();
        let b = catalog.new_context();
        // Same underlying document: the root handles compare as the
        // same node across both contexts.
        match (a.context_item().unwrap(), b.context_item().unwrap()) {
            (xqa_xdm::Item::Node(na), xqa_xdm::Item::Node(nb)) => {
                assert!(na.is_same_node(nb));
            }
            other => panic!("unexpected context items {other:?}"),
        }
    }
}
