//! Resource state persistence backends.
//!
//! WSRF.NET "implements WS-Resources using any ODBC compliant database"
//! and §5 of the paper discusses the resulting tension: relational
//! stores want fixed typed columns, arbitrary resource state doesn't
//! fit, and storing state "as binary, unstructured data is effective
//! for loading and storing, but makes it very difficult to query".
//! The three backends here make that trade-off measurable (E7):
//!
//! * [`MemoryStore`] — plain in-memory documents; the baseline.
//! * [`StructuredStore`] — a relational-style table per service with a
//!   declared, typed column schema. Fast queries, but rejects resource
//!   state that does not fit the schema (the paper's pain point).
//! * [`BlobStore`] — serializes each document to XML text. Accepts
//!   anything; every load *and every query row* pays a full parse (the
//!   paper's other pain point, which pushed the authors toward XML
//!   databases like Yukon).
//!
//! All three are backed by [`ShardedRows`]: rows live in `SHARDS`
//! independently locked partitions chosen by hashing `(service, key)`,
//! so resources on different shards never contend on a store lock and
//! point lookups borrow the caller's `&str`s instead of allocating a
//! `(String, String)` probe key.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;
use wsrf_xml::xpath::Path;
use wsrf_xml::QName;

use crate::properties::PropertyDoc;

/// Errors raised by resource stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No resource with the given key.
    NotFound(String),
    /// `create` with a key that already exists.
    AlreadyExists(String),
    /// The document does not fit the store's schema
    /// ([`StructuredStore`] only).
    Schema(String),
    /// The backend's storage failed ([`crate::DurableStore`]'s log);
    /// the mutation was not made.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(k) => write!(f, "no such resource '{k}'"),
            StoreError::AlreadyExists(k) => write!(f, "resource '{k}' already exists"),
            StoreError::Schema(m) => write!(f, "schema violation: {m}"),
            StoreError::Io(m) => write!(f, "storage failure: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A persistence backend for WS-Resource state. One store instance
/// may serve many services; rows are keyed by `(service, key)`.
pub trait ResourceStore: Send + Sync {
    /// Create a new resource. Fails if the key exists.
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError>;

    /// Load a resource's property document.
    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError>;

    /// A read-only snapshot of a resource's stored document, for a
    /// caller that only looks: whatever is written after the call, the
    /// snapshot reads the document as it was. The default loads a copy;
    /// a backend whose rows *are* documents hands out its own, copying
    /// nothing. No lock is held once this returns, so the holder may
    /// call back into the store — `load` is for a caller that wants a
    /// copy of its own to edit.
    fn share(&self, service: &str, key: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        self.load(service, key).map(Arc::new)
    }

    /// Persist a (possibly modified) property document.
    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError>;

    /// [`save`](Self::save) a document the caller already holds in an
    /// `Arc`: the container's save stage and [`crate::ServiceCore::edit`]
    /// hand over the edited copy this way. The default saves a borrow of
    /// it; a backend whose rows *are* shared documents keeps the `Arc`
    /// itself, so a write copies its document once (the edit's
    /// copy-on-write), not twice.
    fn save_shared(
        &self,
        service: &str,
        key: &str,
        doc: &Arc<PropertyDoc>,
    ) -> Result<(), StoreError> {
        self.save(service, key, doc)
    }

    /// Remove a resource. Fails if absent.
    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError>;

    /// True if the resource exists.
    fn exists(&self, service: &str, key: &str) -> bool;

    /// All keys of a service, in unspecified order.
    fn list(&self, service: &str) -> Vec<String>;

    /// Keys of resources whose property document matches an XPath-lite
    /// expression (evaluated against a document rooted at
    /// `<Properties>`).
    fn query(&self, service: &str, path: &Path) -> Vec<String>;

    /// Backend label for diagnostics and bench tables.
    fn backend_name(&self) -> &'static str;
}

fn doc_root() -> QName {
    QName::new("urn:wsrf-store", "Properties")
}

fn matches(doc: &PropertyDoc, path: &Path) -> bool {
    !path.select(&doc.to_document(doc_root())).is_empty()
}

// ---------------------------------------------------------------------
// ShardedRows
// ---------------------------------------------------------------------

/// Number of lock partitions per store. Power of two so the shard
/// index is a mask, sized so a campus-grid's worth of services never
/// funnels through one lock.
pub(crate) const SHARDS: usize = 16;

pub(crate) fn shard_of(service: &str, key: &str) -> usize {
    let mut h = DefaultHasher::new();
    service.hash(&mut h);
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

/// The sharded `(service, key) → T` map under every backend. Each
/// shard holds a `service → key → row` nested map so point operations
/// probe with borrowed `&str`s — no per-lookup `String` allocation —
/// and scans (`list`/`query`) walk the shards one read lock at a time.
struct ShardedRows<T> {
    shards: [RwLock<HashMap<String, HashMap<String, T>>>; SHARDS],
}

impl<T> Default for ShardedRows<T> {
    fn default() -> Self {
        ShardedRows {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl<T> ShardedRows<T> {
    /// Insert a fresh row; `AlreadyExists` if `(service, key)` is taken.
    /// Single probe of the key map via the entry API.
    fn create(&self, service: &str, key: &str, row: T) -> Result<(), StoreError> {
        let mut shard = self.shards[shard_of(service, key)].write();
        match shard
            .entry(service.to_string())
            .or_default()
            .entry(key.to_string())
        {
            Entry::Occupied(_) => Err(StoreError::AlreadyExists(key.to_string())),
            Entry::Vacant(slot) => {
                slot.insert(row);
                Ok(())
            }
        }
    }

    /// Overwrite an existing row; `NotFound` if absent. Single probe,
    /// no allocation on the hot path.
    fn update(&self, service: &str, key: &str, row: T) -> Result<(), StoreError> {
        let mut shard = self.shards[shard_of(service, key)].write();
        match shard.get_mut(service).and_then(|keys| keys.get_mut(key)) {
            Some(slot) => {
                *slot = row;
                Ok(())
            }
            None => Err(StoreError::NotFound(key.to_string())),
        }
    }

    /// Read a row through a closure while the shard lock is held.
    fn get<R>(&self, service: &str, key: &str, f: impl FnOnce(&T) -> R) -> Option<R> {
        let shard = self.shards[shard_of(service, key)].read();
        shard.get(service).and_then(|keys| keys.get(key)).map(f)
    }

    fn remove(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let mut shard = self.shards[shard_of(service, key)].write();
        let Some(keys) = shard.get_mut(service) else {
            return Err(StoreError::NotFound(key.to_string()));
        };
        if keys.remove(key).is_none() {
            return Err(StoreError::NotFound(key.to_string()));
        }
        if keys.is_empty() {
            shard.remove(service);
        }
        Ok(())
    }

    fn contains(&self, service: &str, key: &str) -> bool {
        let shard = self.shards[shard_of(service, key)].read();
        shard
            .get(service)
            .is_some_and(|keys| keys.contains_key(key))
    }

    fn list(&self, service: &str) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Some(keys) = shard.read().get(service) {
                out.extend(keys.keys().cloned());
            }
        }
        out
    }

    /// Visit every `(key, row)` of a service, shard by shard.
    fn for_each(&self, service: &str, mut f: impl FnMut(&str, &T)) {
        for shard in &self.shards {
            if let Some(keys) = shard.read().get(service) {
                for (key, row) in keys.iter() {
                    f(key, row);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(HashMap::len).sum::<usize>())
            .sum()
    }
}

// ---------------------------------------------------------------------
// MemoryStore
// ---------------------------------------------------------------------

/// In-memory store holding decoded documents. Fast everything; no
/// schema; the baseline backend and the default for tests. A row is
/// replaced whole, never edited, so [`ResourceStore::share`] hands the
/// row itself out.
#[derive(Default)]
pub struct MemoryStore {
    rows: ShardedRows<Arc<PropertyDoc>>,
}

impl MemoryStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows across all services.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResourceStore for MemoryStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.rows.create(service, key, Arc::new(doc.clone()))
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.rows
            .get(service, key, |doc| PropertyDoc::clone(doc))
            .ok_or_else(|| StoreError::NotFound(key.to_string()))
    }

    fn share(&self, service: &str, key: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        self.rows
            .get(service, key, Arc::clone)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.rows.update(service, key, Arc::new(doc.clone()))
    }

    fn save_shared(
        &self,
        service: &str,
        key: &str,
        doc: &Arc<PropertyDoc>,
    ) -> Result<(), StoreError> {
        self.rows.update(service, key, Arc::clone(doc))
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        self.rows.remove(service, key)
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.rows.contains(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.rows.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        let mut out = Vec::new();
        self.rows.for_each(service, |key, doc| {
            if matches(doc, path) {
                out.push(key.to_string());
            }
        });
        out
    }

    fn backend_name(&self) -> &'static str {
        "memory"
    }
}

// ---------------------------------------------------------------------
// BlobStore
// ---------------------------------------------------------------------

/// Stores each document as serialized XML text — the paper's "binary,
/// unstructured data" strategy. Every load parses; every query parses
/// every row.
#[derive(Default)]
pub struct BlobStore {
    rows: ShardedRows<String>,
}

impl BlobStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResourceStore for BlobStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.rows
            .create(service, key, doc.to_document(doc_root()).to_xml())
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        let blob = self
            .rows
            .get(service, key, String::clone)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        let parsed = wsrf_xml::parse(&blob)
            .unwrap_or_else(|e| panic!("blob store corrupted for {service}/{key}: {e}"));
        Ok(PropertyDoc::from_document(&parsed))
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.rows
            .update(service, key, doc.to_document(doc_root()).to_xml())
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        self.rows.remove(service, key)
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.rows.contains(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.rows.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        // The expensive path the paper complains about: parse every row.
        let mut out = Vec::new();
        self.rows.for_each(service, |key, blob| {
            if wsrf_xml::parse(blob)
                .map(|doc| !path.select(&doc).is_empty())
                .unwrap_or(false)
            {
                out.push(key.to_string());
            }
        });
        out
    }

    fn backend_name(&self) -> &'static str {
        "blob"
    }
}

// ---------------------------------------------------------------------
// StructuredStore
// ---------------------------------------------------------------------

/// Column types supported by the relational-style store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Free text.
    Text,
    /// `f64`.
    Float,
    /// `i64`.
    Int,
}

/// One typed value in a structured row.
#[derive(Debug, Clone, PartialEq)]
enum ColumnValue {
    Text(String),
    Float(f64),
    Int(i64),
    Null,
}

/// Relational-style store: a service registers a fixed schema of
/// `(property name, type)` columns; rows are typed tuples. Queries on
/// simple `Property = value` shapes run against the typed columns with
/// no XML in sight; state that does not fit (multi-valued or nested
/// properties) is rejected with [`StoreError::Schema`] — exactly the
/// mismatch the paper describes between WS-Resource state and
/// traditional relational columns.
pub struct StructuredStore {
    schemas: RwLock<HashMap<String, Vec<(QName, ColumnType)>>>,
    rows: ShardedRows<Vec<ColumnValue>>,
}

impl Default for StructuredStore {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuredStore {
    /// Empty store with no schemas.
    pub fn new() -> Self {
        StructuredStore {
            schemas: RwLock::new(HashMap::new()),
            rows: ShardedRows::default(),
        }
    }

    /// Declare the column schema for a service. Must be called before
    /// creating resources for it.
    pub fn define_schema(&self, service: &str, columns: Vec<(QName, ColumnType)>) {
        self.schemas.write().insert(service.to_string(), columns);
    }

    fn encode(&self, service: &str, doc: &PropertyDoc) -> Result<Vec<ColumnValue>, StoreError> {
        let schemas = self.schemas.read();
        let schema = schemas
            .get(service)
            .ok_or_else(|| StoreError::Schema(format!("no schema declared for '{service}'")))?;
        // Reject properties outside the schema.
        for name in doc.names() {
            if !schema.iter().any(|(n, _)| n == name) {
                return Err(StoreError::Schema(format!(
                    "property {name} is not a declared column"
                )));
            }
        }
        let mut row = Vec::with_capacity(schema.len());
        for (name, ty) in schema.iter() {
            let vals = doc.get(name);
            match vals.len() {
                0 => row.push(ColumnValue::Null),
                1 => {
                    let v = &vals[0];
                    if v.elements().next().is_some() {
                        return Err(StoreError::Schema(format!(
                            "property {name} has nested structure; columns are scalar"
                        )));
                    }
                    let text = v.text_content();
                    row.push(match ty {
                        ColumnType::Text => ColumnValue::Text(text),
                        ColumnType::Float => {
                            ColumnValue::Float(text.trim().parse().map_err(|_| {
                                StoreError::Schema(format!("property {name} is not a float"))
                            })?)
                        }
                        ColumnType::Int => ColumnValue::Int(text.trim().parse().map_err(|_| {
                            StoreError::Schema(format!("property {name} is not an int"))
                        })?),
                    });
                }
                n => {
                    return Err(StoreError::Schema(format!(
                        "property {name} has {n} values; columns hold one"
                    )))
                }
            }
        }
        Ok(row)
    }

    fn decode(&self, service: &str, row: &[ColumnValue]) -> PropertyDoc {
        let schemas = self.schemas.read();
        let schema = &schemas[service];
        let mut doc = PropertyDoc::new();
        for ((name, _), val) in schema.iter().zip(row) {
            match val {
                ColumnValue::Null => {}
                ColumnValue::Text(t) => doc.set_text(name.clone(), t.clone()),
                ColumnValue::Float(v) => doc.set_f64(name.clone(), *v),
                ColumnValue::Int(v) => doc.set_i64(name.clone(), *v),
            }
        }
        doc
    }

    /// Try to run a query directly against typed columns. Supports the
    /// shape `Prop[.='v']`-free simple paths produced by
    /// `column_query`: a single step naming a column with an optional
    /// child-text predicate. Returns `None` when the expression is too
    /// complex, in which case the caller falls back to materializing
    /// documents.
    fn fast_query(&self, service: &str, path: &Path) -> Option<Vec<String>> {
        // Shape 1: `/Root[Col='v']` — a root test with one child-text
        // equality predicate. This is the relational sweet spot: a
        // typed column scan with no documents materialized.
        if path.absolute && path.steps.len() == 1 {
            let step = &path.steps[0];
            if step.preds.len() == 1 {
                if let wsrf_xml::xpath::Pred::ChildTextEq(col, val) = &step.preds[0] {
                    let schemas = self.schemas.read();
                    let schema = schemas.get(service)?;
                    if schema.iter().any(|(n, _)| n.local == *col) {
                        drop(schemas);
                        return Some(self.column_eq(service, col, val));
                    }
                }
            }
        }
        // Recognize `/Properties/Name[Sub='v']`? No — columns are flat.
        // We accept: relative or absolute single-step `Name` or
        // two-step `/Properties/Name`, with at most one ChildTextEq
        // predicate that must refer to the column itself... keep it
        // simple: match `Name` step with optional `AttrEq`-free
        // position-free predicates of form [text]='v' is not
        // expressible in our xpath-lite, so we only accept a bare
        // column-existence test or `Name[.='v']`-like queries written
        // as `Name='v'` via `column_eq`. Anything else → None.
        let steps = &path.steps;
        let step = match steps.len() {
            1 => &steps[0],
            2 if path.absolute => &steps[1],
            _ => return None,
        };
        let col_name: &str = match &step.test {
            wsrf_xml::xpath::NameTest::Local(l) => l,
            wsrf_xml::xpath::NameTest::Qualified(q) => &q.local,
            wsrf_xml::xpath::NameTest::Any => return None,
        };
        if !step.preds.is_empty() {
            return None;
        }
        let schemas = self.schemas.read();
        let schema = schemas.get(service)?;
        let idx = schema.iter().position(|(n, _)| n.local == col_name)?;
        drop(schemas);
        let mut out = Vec::new();
        self.rows.for_each(service, |key, row| {
            if !matches!(row[idx], ColumnValue::Null) {
                out.push(key.to_string());
            }
        });
        Some(out)
    }

    /// Typed equality query: keys where column `name` equals `value`
    /// textually (the fast path the paper wanted from relational
    /// storage; used directly by the Node Info Service).
    pub fn column_eq(&self, service: &str, local_name: &str, value: &str) -> Vec<String> {
        let schemas = self.schemas.read();
        let Some(schema) = schemas.get(service) else {
            return Vec::new();
        };
        let Some(idx) = schema.iter().position(|(n, _)| n.local == local_name) else {
            return Vec::new();
        };
        drop(schemas);
        let mut out = Vec::new();
        self.rows.for_each(service, |key, row| {
            let hit = match &row[idx] {
                ColumnValue::Text(t) => t == value,
                ColumnValue::Float(v) => value.parse::<f64>().is_ok_and(|x| x == *v),
                ColumnValue::Int(v) => value.parse::<i64>().is_ok_and(|x| x == *v),
                ColumnValue::Null => false,
            };
            if hit {
                out.push(key.to_string());
            }
        });
        out
    }
}

impl ResourceStore for StructuredStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        let row = self.encode(service, doc)?;
        self.rows.create(service, key, row)
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        let row = self
            .rows
            .get(service, key, Vec::clone)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        Ok(self.decode(service, &row))
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        let row = self.encode(service, doc)?;
        self.rows.update(service, key, row)
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        self.rows.remove(service, key)
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.rows.contains(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.rows.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        if let Some(fast) = self.fast_query(service, path) {
            return fast;
        }
        // Fallback: materialize documents (still no XML parse — decode
        // is column-to-element).
        let mut out = Vec::new();
        self.rows.for_each(service, |key, row| {
            if matches(&self.decode(service, row), path) {
                out.push(key.to_string());
            }
        });
        out
    }

    fn backend_name(&self) -> &'static str {
        "structured"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wsrf_xml::Element;

    const NS: &str = "urn:test";

    fn q(local: &str) -> QName {
        QName::new(NS, local)
    }

    fn job_doc(status: &str, cpu: f64) -> PropertyDoc {
        let mut d = PropertyDoc::new();
        d.set_text(q("Status"), status);
        d.set_f64(q("Cpu"), cpu);
        d
    }

    /// The contract every backend keeps (`wal`'s tests run it over
    /// [`crate::DurableStore`] too).
    pub(crate) fn crud_suite(store: &dyn ResourceStore) {
        assert!(!store.exists("svc", "a"));
        store.create("svc", "a", &job_doc("Running", 1.0)).unwrap();
        assert!(store.exists("svc", "a"));
        assert_eq!(
            store.create("svc", "a", &job_doc("Running", 1.0)),
            Err(StoreError::AlreadyExists("a".into()))
        );
        let mut doc = store.load("svc", "a").unwrap();
        assert_eq!(doc.text(&q("Status")).unwrap(), "Running");
        // `share` reads what `load` reads — `==` is by value and in
        // property order — and keeps reading it whatever is written.
        let running = store.share("svc", "a").unwrap();
        assert_eq!(*running, doc);
        doc.set_text(q("Status"), "Exited");
        store.save("svc", "a", &doc).unwrap();
        assert_eq!(
            store.load("svc", "a").unwrap().text(&q("Status")).unwrap(),
            "Exited"
        );
        assert_eq!(running.text(&q("Status")).unwrap(), "Running");
        let exited = store.share("svc", "a").unwrap();
        assert_eq!(*exited, doc);
        store.create("svc", "b", &job_doc("Running", 2.0)).unwrap();
        let mut keys = store.list("svc");
        keys.sort();
        assert_eq!(keys, ["a", "b"]);
        assert!(store.list("other").is_empty());
        store.destroy("svc", "a").unwrap();
        assert_eq!(
            store.destroy("svc", "a"),
            Err(StoreError::NotFound("a".into()))
        );
        assert_eq!(
            store.load("svc", "a"),
            Err(StoreError::NotFound("a".into()))
        );
        assert_eq!(
            store.share("svc", "a"),
            Err(StoreError::NotFound("a".into()))
        );
        assert_eq!(*exited, doc, "a snapshot outlives its resource");
        assert_eq!(
            store.save("svc", "a", &doc),
            Err(StoreError::NotFound("a".into()))
        );
    }

    #[test]
    fn memory_crud() {
        crud_suite(&MemoryStore::new());
    }

    #[test]
    fn memory_share_is_the_row_itself_until_the_next_write() {
        let store = MemoryStore::new();
        store.create("svc", "a", &job_doc("Running", 1.0)).unwrap();
        let first = store.share("svc", "a").unwrap();
        assert!(Arc::ptr_eq(&first, &store.share("svc", "a").unwrap()));
        store.save("svc", "a", &job_doc("Exited", 1.0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &store.share("svc", "a").unwrap()));
    }

    #[test]
    fn blob_crud() {
        crud_suite(&BlobStore::new());
    }

    #[test]
    fn structured_crud() {
        let s = StructuredStore::new();
        s.define_schema(
            "svc",
            vec![
                (q("Status"), ColumnType::Text),
                (q("Cpu"), ColumnType::Float),
            ],
        );
        crud_suite(&s);
    }

    fn query_suite(store: &dyn ResourceStore) {
        store.create("svc", "r1", &job_doc("Running", 1.0)).unwrap();
        store.create("svc", "r2", &job_doc("Exited", 2.0)).unwrap();
        store.create("svc", "r3", &job_doc("Running", 3.0)).unwrap();
        let p = Path::parse("//Status").unwrap();
        assert_eq!(store.query("svc", &p).len(), 3);
        let p = Path::parse("/Properties/Status[.='x']");
        // Our xpath-lite has no self-text predicate; use child-text on
        // the document instead.
        drop(p);
        let p = Path::parse("/Properties[Status='Running']").unwrap();
        let mut keys = store.query("svc", &p);
        keys.sort();
        assert_eq!(keys, ["r1", "r3"], "{}", store.backend_name());
    }

    #[test]
    fn memory_query() {
        query_suite(&MemoryStore::new());
    }

    #[test]
    fn blob_query() {
        query_suite(&BlobStore::new());
    }

    #[test]
    fn structured_query() {
        let s = StructuredStore::new();
        s.define_schema(
            "svc",
            vec![
                (q("Status"), ColumnType::Text),
                (q("Cpu"), ColumnType::Float),
            ],
        );
        query_suite(&s);
    }

    #[test]
    fn structured_rejects_unschema_state() {
        let s = StructuredStore::new();
        s.define_schema("svc", vec![(q("Status"), ColumnType::Text)]);
        // Undeclared property.
        assert!(matches!(
            s.create("svc", "k", &job_doc("Running", 1.0)),
            Err(StoreError::Schema(_))
        ));
        // Nested structure.
        let mut nested = PropertyDoc::new();
        nested.insert(
            q("Status"),
            Element::with_name(q("Status")).child(Element::local("inner")),
        );
        assert!(matches!(
            s.create("svc", "k", &nested),
            Err(StoreError::Schema(_))
        ));
        // Multi-valued property.
        let mut multi = PropertyDoc::new();
        multi.insert(q("Status"), Element::with_name(q("Status")).text("a"));
        multi.insert(q("Status"), Element::with_name(q("Status")).text("b"));
        assert!(matches!(
            s.create("svc", "k", &multi),
            Err(StoreError::Schema(_))
        ));
        // Type mismatch.
        let s2 = StructuredStore::new();
        s2.define_schema("svc", vec![(q("Cpu"), ColumnType::Float)]);
        let mut bad = PropertyDoc::new();
        bad.set_text(q("Cpu"), "fast");
        assert!(matches!(
            s2.create("svc", "k", &bad),
            Err(StoreError::Schema(_))
        ));
    }

    #[test]
    fn structured_allows_missing_columns_as_null() {
        let s = StructuredStore::new();
        s.define_schema(
            "svc",
            vec![
                (q("Status"), ColumnType::Text),
                (q("Exit"), ColumnType::Int),
            ],
        );
        let mut d = PropertyDoc::new();
        d.set_text(q("Status"), "Running");
        s.create("svc", "k", &d).unwrap();
        let back = s.load("svc", "k").unwrap();
        assert_eq!(back.text(&q("Status")).unwrap(), "Running");
        assert!(!back.contains(&q("Exit")));
    }

    #[test]
    fn structured_column_eq() {
        let s = StructuredStore::new();
        s.define_schema(
            "svc",
            vec![
                (q("Status"), ColumnType::Text),
                (q("Cpu"), ColumnType::Float),
            ],
        );
        s.create("svc", "r1", &job_doc("Running", 1.5)).unwrap();
        s.create("svc", "r2", &job_doc("Exited", 1.5)).unwrap();
        assert_eq!(s.column_eq("svc", "Status", "Running"), ["r1"]);
        let mut both = s.column_eq("svc", "Cpu", "1.5");
        both.sort();
        assert_eq!(both, ["r1", "r2"]);
        assert!(s.column_eq("svc", "Nope", "x").is_empty());
    }

    #[test]
    fn blob_survives_wide_unicode_content() {
        let store = BlobStore::new();
        let mut d = PropertyDoc::new();
        d.set_text(q("Path"), "C:\\données\\日本語 & <xml>");
        store.create("svc", "k", &d).unwrap();
        assert_eq!(store.load("svc", "k").unwrap(), d);
    }

    #[test]
    fn sharded_rows_span_multiple_shards() {
        // Sanity: keys really spread across partitions, and per-service
        // bookkeeping (list/len) still sees all of them.
        let store = MemoryStore::new();
        for i in 0..64 {
            store
                .create("svc", &format!("k{i}"), &job_doc("Running", i as f64))
                .unwrap();
        }
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_of("svc", &format!("k{i}"))).collect();
        assert!(hit.len() > 1, "64 keys all hashed to one shard");
        assert_eq!(store.len(), 64);
        assert_eq!(store.list("svc").len(), 64);
        for i in 0..64 {
            store.destroy("svc", &format!("k{i}")).unwrap();
        }
        assert!(store.is_empty());
    }
}
