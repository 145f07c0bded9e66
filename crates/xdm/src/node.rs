//! Arena-backed node trees with node identity and document order.
//!
//! A [`Document`] is three flat vectors and nothing else: one fixed-size
//! record per node, one text buffer every text node, attribute value,
//! comment and PI body is a span of, and one table of the distinct names
//! (a node stores a [`NameId`] into it). A node is addressed by its index
//! ([`NodeId`]). The builder emits nodes in document order (preorder,
//! attributes directly after their owner element), so document order
//! within a document is simply `NodeId` order and every subtree is the
//! contiguous id range `[id, subtree_end(id)]`. That interval label is
//! all navigation needs: an element's attributes are the `attrs` ids
//! after it, its first child follows them, a node's next sibling is
//! `subtree_end + 1`, and its descendants are the rest of the range. No
//! node owns a heap object, so dropping a document frees three vectors.
//! An arena may hold several parentless trees one after the other
//! ([`DocumentBuilder::start_root`]): a batch of constructed rows shares
//! one arena while each row keeps a document node of its own.
//!
//! Each document also carries a process-unique serial number, giving a
//! stable, total document order across documents — XQuery leaves
//! inter-document order implementation-defined but requires it to be
//! stable within a query.
//!
//! A [`NodeHandle`] pairs an `Arc<Document>` with a `NodeId`; it is the
//! value stored inside [`crate::item::Item`]. Cloning a handle is a
//! refcount bump.

use crate::qname::QName;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Index of a node within its document's arena.
pub type NodeId = u32;

/// Index of a name within its document's name table. Two nodes of one
/// document have equal names exactly when their ids are equal.
pub type NameId = u32;

/// `NodeRec::parent` of a parentless node.
const NO_PARENT: NodeId = NodeId::MAX;
/// `NodeRec::name` of an unnamed node.
const NO_NAME: NameId = NameId::MAX;

/// The seven XDM node kinds (namespace nodes are not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The document root.
    Document,
    /// An element node.
    Element,
    /// An attribute node.
    Attribute,
    /// A text node.
    Text,
    /// A comment node.
    Comment,
    /// A processing instruction.
    ProcessingInstruction,
}

/// The arena record of one node.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: NodeId,
    /// Element/attribute name or PI target; `NO_NAME` otherwise.
    name: NameId,
    /// Last node id inside this node's subtree (inclusive; attributes
    /// count as inside their element). A leaf's is its own id.
    subtree_end: NodeId,
    /// Where this node's text starts in the document's text buffer. It
    /// ends where the next record's starts: text is appended in node
    /// order, and a node without text of its own has an empty span.
    text_start: u32,
    /// Attribute count (elements only): the ids right after the element.
    attrs: u32,
    kind: NodeKind,
}

/// The distinct names of one document, in first-use order. Lookup is a
/// scan while the table is small (a constructed `<r>{...}</r>` row has
/// two or three names and must not pay for a hash map); past
/// `LINEAR_NAMES` entries a map takes over, so a document with very many
/// distinct names still builds in linear time.
#[derive(Debug, Default)]
struct NameTable {
    by_id: Vec<QName>,
    index: Option<HashMap<QName, NameId>>,
}

const LINEAR_NAMES: usize = 16;

impl NameTable {
    fn get(&self, name: &QName) -> Option<NameId> {
        match &self.index {
            Some(index) => index.get(name).copied(),
            None => self
                .by_id
                .iter()
                .position(|n| n == name)
                .map(|i| i as NameId),
        }
    }

    fn intern(&mut self, name: &QName) -> NameId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = NameId::try_from(self.by_id.len())
            .ok()
            .filter(|&id| id != NO_NAME)
            .expect("fewer than 2^32 - 1 distinct names");
        self.by_id.push(name.clone());
        match &mut self.index {
            Some(index) => {
                index.insert(name.clone(), id);
            }
            None if self.by_id.len() > LINEAR_NAMES => {
                self.index = Some(
                    self.by_id
                        .iter()
                        .enumerate()
                        .map(|(i, n)| (n.clone(), i as NameId))
                        .collect(),
                );
            }
            None => {}
        }
        id
    }
}

static DOC_SERIAL: AtomicU64 = AtomicU64::new(0);

/// An immutable XML document (or constructed tree fragment).
pub struct Document {
    serial: u64,
    nodes: Vec<NodeRec>,
    text: String,
    names: NameTable,
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("serial", &self.serial)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Document {
    /// The process-unique serial number of this document.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Number of nodes in the arena (including the document node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document contains only its document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn rec(&self, id: NodeId) -> &NodeRec {
        &self.nodes[id as usize]
    }

    /// Handle to the document node of `doc`.
    pub fn root(self: &Arc<Self>) -> NodeHandle {
        NodeHandle {
            doc: Arc::clone(self),
            id: 0,
        }
    }

    /// Handle to an arbitrary node by arena id. Node ids are stable for
    /// the lifetime of the (immutable) document, so an id recorded in an
    /// external index resolves to the identical node later.
    pub fn handle(self: &Arc<Self>, id: NodeId) -> Option<NodeHandle> {
        ((id as usize) < self.nodes.len()).then(|| NodeHandle {
            doc: Arc::clone(self),
            id,
        })
    }

    // ---- navigation by id ------------------------------------------------
    //
    // What `NodeHandle` answers, without the `Arc` clone per node: the
    // index build in `xqa-storage` walks whole documents through these.
    // All of them panic when `id` is not a node of this document.

    /// The kind of node `id`.
    pub fn kind_of(&self, id: NodeId) -> NodeKind {
        self.rec(id).kind
    }

    /// The interned name of node `id` (element/attribute name or PI
    /// target); [`Document::names`] resolves it.
    pub fn name_id_of(&self, id: NodeId) -> Option<NameId> {
        let name = self.rec(id).name;
        (name != NO_NAME).then_some(name)
    }

    /// The parent of node `id` (attributes report their owner element).
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.rec(id).parent;
        (parent != NO_PARENT).then_some(parent)
    }

    /// The last node id inside `id`'s subtree, inclusive: the preorder
    /// interval label. Attributes lie inside their element's interval.
    pub fn subtree_end(&self, id: NodeId) -> NodeId {
        self.rec(id).subtree_end
    }

    /// The first child of node `id` (attributes are not children).
    pub fn first_child_of(&self, id: NodeId) -> Option<NodeId> {
        let rec = self.rec(id);
        let first = id + rec.attrs + 1;
        (first <= rec.subtree_end).then_some(first)
    }

    /// Raw stored text of node `id` (`None` for elements and documents).
    pub fn text_of(&self, id: NodeId) -> Option<&str> {
        match self.rec(id).kind {
            NodeKind::Element | NodeKind::Document => None,
            _ => Some(self.span(id)),
        }
    }

    /// The bytes of the text buffer that belong to node `id`.
    fn span(&self, id: NodeId) -> &str {
        &self.text[self.rec(id).text_start as usize..self.span_end(id)]
    }

    /// Where node `id`'s span ends: where the next record's starts.
    fn span_end(&self, id: NodeId) -> usize {
        match self.nodes.get(id as usize + 1) {
            Some(next) => next.text_start as usize,
            None => self.text.len(),
        }
    }

    /// The distinct names of this document, indexed by [`NameId`].
    pub fn names(&self) -> &[QName] {
        &self.names.by_id
    }

    /// The id `name` is interned under, `None` when no node of this
    /// document carries it. A name test resolves its name once through
    /// this and then compares ids.
    pub fn name_id(&self, name: &QName) -> Option<NameId> {
        self.names.get(name)
    }
}

/// A reference to one node: the owning document plus the node's id.
#[derive(Clone)]
pub struct NodeHandle {
    doc: Arc<Document>,
    id: NodeId,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NodeHandle(doc#{}, n{}, {:?}",
            self.doc.serial,
            self.id,
            self.kind()
        )?;
        if let Some(n) = self.name() {
            write!(f, " <{n}>")?;
        }
        f.write_str(")")
    }
}

impl NodeHandle {
    fn rec(&self) -> &NodeRec {
        self.doc.rec(self.id)
    }

    fn at(&self, id: NodeId) -> NodeHandle {
        NodeHandle {
            doc: Arc::clone(&self.doc),
            id,
        }
    }

    /// The owning document.
    pub fn document(&self) -> &Arc<Document> {
        &self.doc
    }

    /// This node's id within its document.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.rec().kind
    }

    /// Element/attribute name or PI target.
    pub fn name(&self) -> Option<&QName> {
        self.doc
            .name_id_of(self.id)
            .map(|name| &self.doc.names.by_id[name as usize])
    }

    /// The parent node, if any (attributes report their owner element).
    pub fn parent(&self) -> Option<NodeHandle> {
        self.doc.parent_of(self.id).map(|id| self.at(id))
    }

    /// Node identity: same document *and* same arena slot.
    pub fn is_same_node(&self, other: &NodeHandle) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.doc, &other.doc)
    }

    /// Total document order: by document serial, then arena index.
    pub fn document_order(&self, other: &NodeHandle) -> std::cmp::Ordering {
        (self.doc.serial, self.id).cmp(&(other.doc.serial, other.id))
    }

    /// Ids of the child nodes: the first follows the attributes, each
    /// next one follows its predecessor's subtree.
    fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let rec = self.rec();
        let end = rec.subtree_end;
        let mut next = self.id + rec.attrs + 1;
        std::iter::from_fn(move || {
            (next <= end).then(|| {
                let id = next;
                next = self.doc.rec(id).subtree_end + 1;
                id
            })
        })
    }

    /// Child nodes (attributes excluded), in document order.
    pub fn children(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        self.child_ids().map(move |id| self.at(id))
    }

    /// Attribute nodes, in the order they were written.
    pub fn attributes(&self) -> impl ExactSizeIterator<Item = NodeHandle> + '_ {
        (self.id + 1..self.id + 1 + self.rec().attrs).map(move |id| self.at(id))
    }

    /// The attribute with the given name, if present.
    pub fn attribute(&self, name: &QName) -> Option<NodeHandle> {
        let name = self.doc.name_id(name)?;
        (self.id + 1..=self.id + self.rec().attrs)
            .find(|&id| self.doc.rec(id).name == name)
            .map(|id| self.at(id))
    }

    /// Descendant nodes in document order (self excluded, attributes
    /// excluded), i.e. the `descendant::node()` axis.
    pub fn descendants(&self) -> Descendants {
        let rec = self.rec();
        Descendants {
            doc: Arc::clone(&self.doc),
            next: self.id + rec.attrs + 1,
            end: rec.subtree_end,
        }
    }

    /// Self plus descendants in document order (`descendant-or-self`).
    pub fn descendants_or_self(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        std::iter::once(self.clone()).chain(self.descendants())
    }

    /// Ancestor nodes, nearest first.
    pub fn ancestors(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        std::iter::successors(self.parent(), |n| n.parent())
    }

    /// The typed-value/string-value text content:
    /// - text/comment/PI/attribute: the stored text,
    /// - element/document: concatenation of descendant text nodes.
    pub fn string_value(&self) -> String {
        match self.doc.text_of(self.id) {
            Some(text) => text.to_string(),
            None => {
                let mut out = String::new();
                for id in self.id + 1..=self.rec().subtree_end {
                    if self.doc.rec(id).kind == NodeKind::Text {
                        out.push_str(self.doc.span(id));
                    }
                }
                out
            }
        }
    }

    /// Raw stored text (None for elements/documents).
    pub fn raw_text(&self) -> Option<&str> {
        self.doc.text_of(self.id)
    }

    /// The string value, borrowed, when it is one stored span: a text,
    /// attribute, comment or PI node's own text, or an element's or
    /// document's only child when that is a text node; `""` when an
    /// element or document has no children. `None` for any other
    /// content, whose string value [`string_value`](Self::string_value)
    /// must concatenate.
    pub fn leaf_text(&self) -> Option<&str> {
        if let Some(text) = self.raw_text() {
            return Some(text);
        }
        let rec = self.rec();
        let first = self.id + rec.attrs + 1;
        if first > rec.subtree_end {
            return Some("");
        }
        // A text node is a leaf, so a first child that ends the
        // interval is the only child.
        (first == rec.subtree_end && self.doc.rec(first).kind == NodeKind::Text)
            .then(|| self.doc.span(first))
    }

    /// Child *elements* with the given name (the ubiquitous `child::name`
    /// step): the name resolves to its id once, each child then costs an
    /// integer compare, and only a match gets a handle.
    pub fn child_elements_named(&self, name: &QName) -> ChildElements<'_> {
        let rec = self.rec();
        ChildElements {
            parent: self,
            // An absent name matches no record: `NO_NAME` is what
            // unnamed nodes carry, and those are not elements.
            name: self.doc.name_id(name).unwrap_or(NO_NAME),
            next: self.id + rec.attrs + 1,
            end: rec.subtree_end,
            examined: 0,
        }
    }
}

/// Iterator over the child elements of one name, in document order (see
/// [`NodeHandle::child_elements_named`]).
pub struct ChildElements<'a> {
    parent: &'a NodeHandle,
    name: NameId,
    next: NodeId,
    end: NodeId,
    examined: u64,
}

impl ChildElements<'_> {
    /// How many children, matching or not, the walk has looked at.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

impl Iterator for ChildElements<'_> {
    type Item = NodeHandle;

    fn next(&mut self) -> Option<NodeHandle> {
        let doc = &self.parent.doc;
        while self.next <= self.end {
            let id = self.next;
            let rec = doc.rec(id);
            self.next = rec.subtree_end + 1;
            self.examined += 1;
            if rec.name == self.name && rec.kind == NodeKind::Element {
                return Some(self.parent.at(id));
            }
        }
        None
    }
}

/// Iterator over descendants in document order: the ids of the origin's
/// interval, attributes skipped.
pub struct Descendants {
    doc: Arc<Document>,
    next: NodeId,
    end: NodeId,
}

impl Iterator for Descendants {
    type Item = NodeHandle;

    fn next(&mut self) -> Option<NodeHandle> {
        while self.next <= self.end {
            let id = self.next;
            self.next += 1;
            if self.doc.rec(id).kind != NodeKind::Attribute {
                return Some(NodeHandle {
                    doc: Arc::clone(&self.doc),
                    id,
                });
            }
        }
        None
    }
}

impl Document {
    /// Build a document holding a single parentless attribute node (the
    /// result of a computed attribute constructor evaluated outside an
    /// element). Returns the attribute's handle.
    pub fn standalone_attribute(name: QName, value: impl Into<Arc<str>>) -> NodeHandle {
        let leaf = |kind, name| NodeRec {
            parent: NO_PARENT,
            name,
            subtree_end: 0,
            text_start: 0,
            attrs: 0,
            kind,
        };
        // The attribute is outside the document node's interval: it is
        // nobody's attribute and nobody's descendant.
        let mut attr = leaf(NodeKind::Attribute, 0);
        attr.subtree_end = 1;
        let doc = Arc::new(Document {
            serial: DOC_SERIAL.fetch_add(1, AtomicOrdering::Relaxed),
            nodes: vec![leaf(NodeKind::Document, NO_NAME), attr],
            text: value.into().to_string(),
            names: NameTable {
                by_id: vec![name],
                index: None,
            },
        });
        NodeHandle { doc, id: 1 }
    }
}

/// Builds a [`Document`] in document order.
///
/// The builder enforces preorder construction: `start_element` /
/// `end_element` must nest properly, attributes may only be added
/// immediately after `start_element` (before any content).
///
/// ```
/// use xqa_xdm::{DocumentBuilder, QName};
///
/// let mut b = DocumentBuilder::new();
/// b.start_element(QName::local("book"));
/// b.attribute(QName::local("year"), "1993");
/// b.start_element(QName::local("title")).text("Transaction Processing").end_element();
/// b.end_element();
/// let doc = b.finish();
///
/// let book = doc.root().children().next().unwrap();
/// assert_eq!(book.string_value(), "Transaction Processing");
/// assert_eq!(book.attribute(&QName::local("year")).unwrap().string_value(), "1993");
/// ```
pub struct DocumentBuilder {
    nodes: Vec<NodeRec>,
    text: String,
    names: NameTable,
    /// The innermost open node (the document node when no element is).
    current: NodeId,
    /// The document node content goes under: 0 until
    /// [`start_root`](Self::start_root) opens another.
    root: NodeId,
    /// True until the first non-attribute content of the innermost
    /// open element has been written.
    attrs_allowed: bool,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Start an empty document.
    pub fn new() -> DocumentBuilder {
        let mut b = DocumentBuilder {
            nodes: Vec::new(),
            text: String::new(),
            names: NameTable::default(),
            current: 0,
            root: 0,
            attrs_allowed: false,
        };
        b.open_root();
        b
    }

    /// Start another parentless document node in the same arena; what
    /// follows goes under it. One arena can so hold many small
    /// documents, each with a node identity, root and document order of
    /// its own, for the price of one. Returns the new node's id.
    ///
    /// # Panics
    /// Panics if elements remain open.
    pub fn start_root(&mut self) -> NodeId {
        self.close_root();
        self.open_root()
    }

    fn open_root(&mut self) -> NodeId {
        let id = self.push(NodeKind::Document, NO_NAME);
        self.nodes[id as usize].parent = NO_PARENT;
        self.root = id;
        self.current = id;
        id
    }

    /// End the current document node's interval at the last record.
    fn close_root(&mut self) {
        assert!(self.current == self.root, "unclosed element(s)");
        self.nodes[self.root as usize].subtree_end = (self.nodes.len() - 1) as NodeId;
    }

    /// Append a record for a leaf child of the current node; an element
    /// extends its interval when it is closed.
    fn push(&mut self, kind: NodeKind, name: NameId) -> NodeId {
        assert!(
            name == NO_NAME || (name as usize) < self.names.by_id.len(),
            "name id from another builder"
        );
        let id = NodeId::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != NO_PARENT)
            .expect("fewer than 2^32 - 1 nodes per document");
        let text_start =
            u32::try_from(self.text.len()).expect("less than 4 GiB of text per document");
        self.nodes.push(NodeRec {
            parent: self.current,
            name,
            subtree_end: id,
            text_start,
            attrs: 0,
            kind,
        });
        id
    }

    /// Intern `name` in the document under construction. The id is what
    /// [`start_element_id`](Self::start_element_id) and
    /// [`attribute_id`](Self::attribute_id) take, so a caller that sees
    /// the same names over and over (the XML parser) resolves each once.
    pub fn intern(&mut self, name: &QName) -> NameId {
        self.names.intern(name)
    }

    /// Open a new element as a child of the current node.
    pub fn start_element(&mut self, name: QName) -> &mut Self {
        let name = self.names.intern(&name);
        self.start_element_id(name)
    }

    /// [`start_element`](Self::start_element) with an interned name.
    ///
    /// # Panics
    /// Panics if `name` did not come from [`intern`](Self::intern) on
    /// this builder.
    pub fn start_element_id(&mut self, name: NameId) -> &mut Self {
        self.current = self.push(NodeKind::Element, name);
        self.attrs_allowed = true;
        self
    }

    /// Add an attribute to the innermost open element.
    ///
    /// # Panics
    /// Panics if content has already been written to the element, or if
    /// no element is open — both indicate a builder-usage bug.
    pub fn attribute(&mut self, name: QName, value: impl Into<Arc<str>>) -> &mut Self {
        let name = self.names.intern(&name);
        self.attribute_id(name, &value.into())
    }

    /// [`attribute`](Self::attribute) with an interned name and a
    /// borrowed value.
    ///
    /// # Panics
    /// As [`attribute`](Self::attribute), and if `name` did not come
    /// from [`intern`](Self::intern) on this builder.
    pub fn attribute_id(&mut self, name: NameId, value: &str) -> &mut Self {
        assert!(
            self.attrs_allowed,
            "attributes must precede element content"
        );
        assert!(
            self.nodes[self.current as usize].kind == NodeKind::Element,
            "attributes require an open element"
        );
        self.push(NodeKind::Attribute, name);
        self.text.push_str(value);
        self.nodes[self.current as usize].attrs += 1;
        self
    }

    /// Append `value` to the value of the attribute added last: an
    /// attribute value template writes its parts straight into the
    /// arena. The attribute is the last record, so its span ends where
    /// the buffer does.
    ///
    /// # Panics
    /// Panics unless the last node added is an attribute of the
    /// innermost open element.
    pub fn append_attribute_value(&mut self, value: &str) -> &mut Self {
        let last = self.nodes.last().expect("the document node");
        assert!(
            self.attrs_allowed && last.kind == NodeKind::Attribute && last.parent == self.current,
            "no attribute to append to"
        );
        self.text.push_str(value);
        self
    }

    /// Append a text node. Adjacent text nodes are merged, and empty
    /// strings are ignored, per the XDM construction rules.
    pub fn text(&mut self, value: &str) -> &mut Self {
        if value.is_empty() {
            return self;
        }
        self.attrs_allowed = false;
        // A text node is a leaf, so when the current node's last child
        // is one it is also the arena's last record, and its span ends
        // where the buffer does: appending to the buffer merges.
        let last = self.nodes.last().expect("the document node");
        if !(last.kind == NodeKind::Text && last.parent == self.current) {
            self.push(NodeKind::Text, NO_NAME);
        }
        self.text.push_str(value);
        self
    }

    /// Append a comment node.
    pub fn comment(&mut self, value: impl Into<Arc<str>>) -> &mut Self {
        self.attrs_allowed = false;
        self.push(NodeKind::Comment, NO_NAME);
        self.text.push_str(&value.into());
        self
    }

    /// Append a processing-instruction node.
    pub fn processing_instruction(
        &mut self,
        target: QName,
        value: impl Into<Arc<str>>,
    ) -> &mut Self {
        self.attrs_allowed = false;
        let target = self.names.intern(&target);
        self.push(NodeKind::ProcessingInstruction, target);
        self.text.push_str(&value.into());
        self
    }

    /// Close the innermost open element.
    ///
    /// # Panics
    /// Panics when no element is open.
    pub fn end_element(&mut self) -> &mut Self {
        assert!(
            self.current != self.root,
            "end_element with no open element"
        );
        let last = (self.nodes.len() - 1) as NodeId;
        let element = &mut self.nodes[self.current as usize];
        element.subtree_end = last;
        self.current = element.parent;
        self.attrs_allowed = false;
        self
    }

    /// Deep-copy `node` (and its subtree) as a child of the current node.
    /// This is how element constructors copy enclosed content: the copy
    /// receives fresh node identities, per the XQuery construction rules.
    pub fn copy_node(&mut self, node: &NodeHandle) -> &mut Self {
        let src = &*node.doc;
        match node.kind() {
            NodeKind::Document => {
                for child in node.child_ids() {
                    self.copy_subtree(src, child);
                }
            }
            NodeKind::Attribute => {
                let name = self
                    .names
                    .intern(node.name().expect("attribute has a name"));
                self.attribute_id(name, src.span(node.id));
            }
            _ => self.copy_subtree(src, node.id),
        }
        self
    }

    /// Copy the records of `root`'s interval, rebased onto the end of
    /// this arena, and its slice of the text buffer in one piece.
    fn copy_subtree(&mut self, src: &Document, root: NodeId) {
        if src.rec(root).kind == NodeKind::Text {
            // May merge with a preceding text sibling.
            self.text(src.span(root));
            return;
        }
        self.attrs_allowed = false;
        let end = src.rec(root).subtree_end;
        let text_lo = src.rec(root).text_start;
        let text = &src.text[text_lo as usize..src.span_end(end)];
        u32::try_from(self.text.len() + text.len()).expect("less than 4 GiB of text per document");
        let base = self.nodes.len() as NodeId;
        for id in root..=end {
            let rec = *src.rec(id);
            let name = match rec.name {
                NO_NAME => NO_NAME,
                name => self.names.intern(&src.names.by_id[name as usize]),
            };
            // `push` made it a leaf child of the current node starting
            // at the end of the text buffer, which is right for `root`.
            let copy = self.push(rec.kind, name);
            let copied = &mut self.nodes[copy as usize];
            if id != root {
                copied.parent = rec.parent - root + base;
            }
            copied.subtree_end = rec.subtree_end - root + base;
            copied.text_start += rec.text_start - text_lo;
            copied.attrs = rec.attrs;
        }
        self.text.push_str(text);
    }

    /// Finish construction, producing the immutable document.
    ///
    /// # Panics
    /// Panics if elements remain open.
    pub fn finish(mut self) -> Arc<Document> {
        self.close_root();
        Arc::new(Document {
            serial: DOC_SERIAL.fetch_add(1, AtomicOrdering::Relaxed),
            nodes: self.nodes,
            text: self.text,
            names: self.names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> QName {
        QName::local(s)
    }

    /// Build the paper's first example instance.
    fn book_doc() -> Arc<Document> {
        let mut b = DocumentBuilder::new();
        b.start_element(q("book"));
        b.start_element(q("title"))
            .text("Transaction Processing")
            .end_element();
        b.start_element(q("author")).text("Jim Gray").end_element();
        b.start_element(q("author"))
            .text("Andreas Reuter")
            .end_element();
        b.start_element(q("publisher"))
            .text("Morgan Kaufmann")
            .end_element();
        b.start_element(q("price")).text("65.00").end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn builder_produces_preorder_ids() {
        let doc = book_doc();
        let root = doc.root();
        let ids: Vec<NodeId> = root.descendants().map(|n| n.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "descendants iterate in document order");
    }

    #[test]
    fn children_and_names() {
        let doc = book_doc();
        let book = doc.root().children().next().unwrap();
        assert_eq!(book.name().unwrap().local_part(), "book");
        let names: Vec<String> = book
            .children()
            .map(|c| c.name().unwrap().local_part().to_string())
            .collect();
        assert_eq!(names, ["title", "author", "author", "publisher", "price"]);
    }

    #[test]
    fn string_value_concatenates_text() {
        let doc = book_doc();
        let book = doc.root().children().next().unwrap();
        assert_eq!(
            book.string_value(),
            "Transaction ProcessingJim GrayAndreas ReuterMorgan Kaufmann65.00"
        );
        let title = book.children().next().unwrap();
        assert_eq!(title.string_value(), "Transaction Processing");
    }

    #[test]
    fn attributes_are_reachable_but_not_children() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("report"));
        b.attribute(q("year"), "2004");
        b.attribute(q("month"), "10");
        b.start_element(q("rank")).text("1").end_element();
        b.end_element();
        let doc = b.finish();
        let report = doc.root().children().next().unwrap();
        assert_eq!(report.attributes().count(), 2);
        assert_eq!(report.children().count(), 1);
        let year = report.attribute(&q("year")).unwrap();
        assert_eq!(year.string_value(), "2004");
        assert_eq!(year.kind(), NodeKind::Attribute);
        assert!(year.parent().unwrap().is_same_node(&report));
        assert!(report.attribute(&q("absent")).is_none());
    }

    #[test]
    fn node_identity_distinguishes_equal_content() {
        let doc = book_doc();
        let book = doc.root().children().next().unwrap();
        let authors: Vec<NodeHandle> = book.child_elements_named(&q("author")).collect();
        assert_eq!(authors.len(), 2);
        assert!(!authors[0].is_same_node(&authors[1]));
        assert!(authors[0].is_same_node(&authors[0].clone()));
    }

    #[test]
    fn document_order_is_total_across_documents() {
        let d1 = book_doc();
        let d2 = book_doc();
        let a = d1.root();
        let b = d2.root();
        assert_ne!(a.document_order(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.document_order(&b), b.document_order(&a).reverse());
    }

    #[test]
    fn adjacent_text_merges_and_empty_text_dropped() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("t"));
        b.text("foo").text("").text("bar");
        b.end_element();
        let doc = b.finish();
        let t = doc.root().children().next().unwrap();
        assert_eq!(t.children().count(), 1);
        assert_eq!(t.string_value(), "foobar");
    }

    #[test]
    fn copy_node_creates_fresh_identity() {
        let src = book_doc();
        let book = src.root().children().next().unwrap();
        let mut b = DocumentBuilder::new();
        b.start_element(q("wrapper"));
        b.copy_node(&book);
        b.end_element();
        let doc = b.finish();
        let copy = doc
            .root()
            .children()
            .next()
            .unwrap()
            .children()
            .next()
            .unwrap();
        assert_eq!(copy.name().unwrap().local_part(), "book");
        assert!(!copy.is_same_node(&book));
        assert_eq!(copy.string_value(), book.string_value());
    }

    #[test]
    fn ancestors_walk_to_document() {
        let doc = book_doc();
        let book = doc.root().children().next().unwrap();
        let title = book.children().next().unwrap();
        let kinds: Vec<NodeKind> = title.ancestors().map(|a| a.kind()).collect();
        assert_eq!(kinds, [NodeKind::Element, NodeKind::Document]);
    }

    #[test]
    #[should_panic(expected = "attributes must precede element content")]
    fn attribute_after_content_panics() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("e"));
        b.text("x");
        b.attribute(q("a"), "v");
    }

    #[test]
    fn start_root_keeps_each_tree_apart() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("r")).text("one").end_element();
        let second = b.start_root();
        b.start_element(q("r"));
        b.attribute(q("n"), "2").append_attribute_value("0");
        b.text("two").end_element();
        let doc = b.finish();
        let roots = [doc.root(), doc.handle(second).unwrap()];
        let rows: Vec<NodeHandle> = roots.iter().map(|r| r.children().next().unwrap()).collect();
        for (root, row) in roots.iter().zip(&rows) {
            assert_eq!(root.kind(), NodeKind::Document);
            assert_eq!(root.children().count(), 1);
            assert!(root.parent().is_none());
            assert!(row.parent().unwrap().is_same_node(root));
            assert!(row.ancestors().last().unwrap().is_same_node(root));
        }
        assert_eq!(roots[0].string_value(), "one");
        assert_eq!(roots[0].descendants().count(), 2);
        assert_eq!(rows[1].string_value(), "two");
        assert_eq!(rows[1].attribute(&q("n")).unwrap().string_value(), "20");
        assert!(rows[0].document_order(&rows[1]).is_lt());
    }

    #[test]
    fn leaf_text_borrows_exactly_one_span() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("r"));
        b.attribute(q("a"), "v");
        b.start_element(q("leaf")).text("7").end_element();
        b.start_element(q("empty")).end_element();
        b.start_element(q("mixed"))
            .text("x")
            .start_element(q("i"))
            .end_element()
            .end_element();
        b.start_element(q("commented")).comment("c").end_element();
        b.end_element();
        let doc = b.finish();
        let r = doc.root().children().next().unwrap();
        let kids: Vec<NodeHandle> = r.children().collect();
        assert_eq!(r.attribute(&q("a")).unwrap().leaf_text(), Some("v"));
        assert_eq!(kids[0].leaf_text(), Some("7"));
        assert_eq!(kids[0].children().next().unwrap().leaf_text(), Some("7"));
        assert_eq!(kids[1].leaf_text(), Some(""));
        assert_eq!(kids[2].leaf_text(), None);
        assert_eq!(kids[3].leaf_text(), None);
        assert_eq!(r.leaf_text(), None);
        for n in std::iter::once(r.clone()).chain(r.descendants()) {
            if let Some(text) = n.leaf_text() {
                assert_eq!(text, n.string_value());
            }
        }
    }

    #[test]
    fn comments_and_pis_are_stored() {
        let mut b = DocumentBuilder::new();
        b.start_element(q("e"));
        b.comment("a comment");
        b.processing_instruction(q("target"), "data");
        b.end_element();
        let doc = b.finish();
        let e = doc.root().children().next().unwrap();
        let kinds: Vec<NodeKind> = e.children().map(|c| c.kind()).collect();
        assert_eq!(kinds, [NodeKind::Comment, NodeKind::ProcessingInstruction]);
        // Comments/PIs do not contribute to an element's string value.
        assert_eq!(e.string_value(), "");
    }
}
