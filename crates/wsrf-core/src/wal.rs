//! Durable WS-Resource state: a per-shard write-ahead log behind the
//! unchanged [`ResourceStore`] trait.
//!
//! The paper's §5 storage discussion (E7) stops at process lifetime:
//! every backend keeps state in memory, so a container restart loses
//! every WS-Resource. [`DurableStore`] closes that gap without touching
//! the trait: it wraps any inner backend and logs every mutation to
//! one append-only file per [`store`] shard (the same 16-way
//! `(service, key)` hash partitioning the in-memory rows use, so the
//! log never becomes a cross-shard serialization point). What survives:
//! a killed process — every acknowledged mutation is in the page cache
//! before the inner store sees it; not a power loss — nothing calls
//! `sync_data` yet (ROADMAP item 1b).
//!
//! One frame per record, integers little-endian `u32`:
//!
//! ```text
//! [payload_len][crc32(payload)][payload]
//! payload = [u8 op][service_len][key_len][service][key][body]
//! body    = [xml_len][<r>value elements…</r>] { [n_values | NONE][name] }*
//! name    = [NONE] | [local_len][ns_len | NONE][local][ns]
//! ```
//!
//! A body is a property list: each table entry names a property (or,
//! with no name, takes its first value's) and says how many of the XML
//! root's children, in order, are its values (`NONE`: it is deleted),
//! so zero-valued and multi-valued properties come back as they were,
//! under names no XML round trip can bend. `OP_CREATE`
//! lists a whole document; `OP_DELTA` lists what a `save` changed
//! against the stored one — properties new or with different values,
//! and the names of deleted ones; `OP_DESTROY` has no body.
//!
//! **Order and failure policy.** A mutation takes the shard lock,
//! checks its precondition (`create` ⇒ absent, `save` / `destroy` ⇒
//! present), renders its frame into the shard's reused buffer — a
//! `save` diffs against a snapshot of the stored document
//! ([`ResourceStore::share`], current because the shard lock keeps
//! other writers out): the change is computed, never taken on a
//! caller's word — hands it to the file in one `write`, and only
//! **then** touches the inner store. If the write fails, or the inner
//! store refuses the mutation once the record is down, the file is cut
//! back to its last good length and the caller gets the error; if the
//! cut fails too the shard fail-stops: every later mutation on it
//! errors until the directory is reopened. Replay folds frames in
//! order into per-key documents and stops at the first short,
//! CRC-mismatched or inapplicable frame — a torn tail is
//! indistinguishable from end-of-log, and no partial record is ever
//! applied — truncates the file to that prefix, and `create`s the
//! folded documents in the inner store.
//!
//! **Compaction.** Once a shard has appended as much as its last
//! compaction wrote (and 64 KiB), it writes the rows of the keys it
//! tracks to `shard-NN.log.tmp`, one `OP_CREATE` each, renames that
//! over `shard-NN.log` (atomic on POSIX) and appends to the new file:
//! the snapshot *is* the head of the log, so no crash leaves the two
//! disagreeing. A compaction that fails before the rename changes
//! nothing: it is counted, reported, and asked for again by the next
//! append — which, like the one that triggered it, is acknowledged
//! regardless. Failing to reopen the renamed file fail-stops the shard.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use wsrf_obs::{Counter, EventKind, EventLog, MetricsRegistry, Severity};
use wsrf_xml::xpath::Path as XPath;
use wsrf_xml::{Element, Node, QName, TreeWriter};

use crate::properties::PropertyDoc;
use crate::store::{shard_of, ResourceStore, StoreError, SHARDS};

const OP_CREATE: u8 = 1;
const OP_DELTA: u8 = 2;
const OP_DESTROY: u8 = 3;

/// Frame bytes before the payload: its length and CRC.
const HEAD: usize = 8;
/// In a property table: no value list (the property is deleted), no
/// name (it is its first value's), no namespace.
const NONE: u32 = u32::MAX;
/// Fewer appended bytes than this are not worth compacting.
const COMPACT_FLOOR: u64 = 64 << 10;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8 — no external crate.
// ---------------------------------------------------------------------

/// `t[0][b]` is byte `b` through the register; `t[k][b]` is `t[k-1][b]`
/// through one more byte of zeros — the same eight shifts.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 * 8 {
        let (k, b) = (i / 256, i % 256);
        let (mut c, mut bit) = (if k == 0 { b as u32 } else { t[k - 1][b] }, 0);
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[k][b] = c;
        i += 1;
    }
    t
}

static CRC: [[u32; 256]; 8] = crc32_tables();

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC[7][(lo & 0xFF) as usize]
            ^ CRC[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC[4][(lo >> 24) as usize]
            ^ CRC[3][w[4] as usize]
            ^ CRC[2][w[5] as usize]
            ^ CRC[1][w[6] as usize]
            ^ CRC[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = CRC[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------

/// Lengths go down as `u32` unchecked: one that does not fit makes a
/// payload that does not, which [`end_frame`] refuses.
fn put_u32(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Open a frame at the end of `buf`; the body follows, then
/// [`end_frame`]. Returns where the frame starts.
fn begin_frame(buf: &mut Vec<u8>, op: u8, service: &str, key: &str) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0; HEAD]); // patched by `end_frame`
    buf.push(op);
    put_u32(buf, service.len());
    put_u32(buf, key.len());
    buf.extend_from_slice(service.as_bytes());
    buf.extend_from_slice(key.as_bytes());
    at
}

/// Back-patch the length and CRC of the frame opened at `at`.
fn end_frame(buf: &mut [u8], at: usize) -> io::Result<()> {
    let len = u32::try_from(buf.len() - at - HEAD)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record exceeds 4 GiB"))?;
    let crc = crc32(&buf[at + HEAD..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + HEAD].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Takes one property of a record body: its values, or `None` to
/// delete it.
type Put<'p, 'n> = &'p mut dyn FnMut(&QName, Option<&'n [Element]>);

/// Append a record body straight from borrowed documents: `props`
/// hands each property to its argument, which renders the values into
/// `buf` and lists them in `table` (appended at the end). The XML root
/// is in `doc`'s first namespace, so the values that share it need not
/// each declare it.
fn put_body<'n>(
    buf: &mut Vec<u8>,
    table: &mut Vec<u8>,
    doc: &'n PropertyDoc,
    props: impl FnOnce(Put<'_, 'n>),
) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]); // XML length, patched below
    table.clear();
    let mut xml = TreeWriter::new(buf);
    xml.start(doc.names().next().and_then(QName::ns_str), "r");
    props(&mut |name, values| {
        put_u32(table, values.map_or(NONE as usize, <[Element]>::len));
        // A property named like its first value (nearly all are)
        // leaves its name out.
        if values.is_some_and(|v| v.first().is_some_and(|v| v.name == *name)) {
            put_u32(table, NONE as usize);
        } else {
            put_u32(table, name.local.len());
            put_u32(table, name.ns_str().map_or(NONE as usize, str::len));
            table.extend_from_slice(name.local.as_bytes());
            table.extend_from_slice(name.ns_str().unwrap_or("").as_bytes());
        }
        values.unwrap_or(&[]).iter().for_each(|v| xml.element(v));
    });
    xml.end();
    let xml_len = buf.len() - at - 4;
    buf[at..at + 4].copy_from_slice(&(xml_len as u32).to_le_bytes());
    buf.extend_from_slice(table);
}

fn whole<'n>(doc: &'n PropertyDoc, put: Put<'_, 'n>) {
    doc.entries()
        .for_each(|(name, values)| put(name, Some(values)));
}

/// What turns `old` into `new`: a name `new` does not have in its place
/// is deleted, changed values are set, and whatever of `new` is left is
/// set too — `update` appends those, in this order, so replay ends on
/// exactly `new` whatever the change was.
fn delta<'n>(old: &PropertyDoc, new: &'n PropertyDoc, put: Put<'_, 'n>) {
    let mut rest = new.entries().peekable();
    for (name, was) in old.entries() {
        match rest.next_if(|(n, _)| *n == name) {
            Some((_, now)) if now == was => {}
            Some((_, now)) => put(name, Some(now)),
            None => put(name, None),
        }
    }
    rest.for_each(|(name, values)| put(name, Some(values)));
}

/// Bounds-checked reads off the front of a byte slice.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: u32) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n as usize)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn str(&mut self, n: u32) -> Option<&'a str> {
        std::str::from_utf8(self.take(n)?).ok()
    }
}

/// A decoded frame: op, service, key, body.
type Record<'a> = (u8, &'a str, &'a str, &'a [u8]);

/// Decode the next frame at `buf[at..]`. Returns `Some((record, next))`
/// for a whole, CRC-clean, structurally valid frame; `None` for a torn
/// tail, a corrupted frame, or end-of-buffer — replay must stop there.
fn decode_frame(buf: &[u8], at: usize) -> Option<(Record<'_>, usize)> {
    let mut r = Reader(buf.get(at..)?);
    let (len, want) = (r.u32()?, r.u32()?);
    let mut p = Reader(r.take(len)?);
    if crc32(p.0) != want {
        return None;
    }
    let op = p.take(1)?[0];
    let (s_len, k_len) = (p.u32()?, p.u32()?);
    let (service, key) = (p.str(s_len)?, p.str(k_len)?);
    Some(((op, service, key, p.0), at + HEAD + len as usize))
}

/// Decode a record body into `(name, values)` pairs, `None` values
/// meaning "delete". All or nothing: `None` if any part is malformed.
fn decode_body(body: &[u8]) -> Option<Vec<(QName, Option<Vec<Element>>)>> {
    let mut r = Reader(body);
    let xml_len = r.u32()?;
    let root = wsrf_xml::parse(r.str(xml_len)?).ok()?;
    let mut values = root.children.into_iter().filter_map(|n| match n {
        Node::Element(e) => Some(e),
        Node::Text(_) => None,
    });
    let mut props = Vec::new();
    while !r.0.is_empty() {
        let count = r.u32()?;
        let vals: Option<Vec<Element>> =
            (count != NONE).then(|| values.by_ref().take(count as usize).collect());
        if vals.as_ref().is_some_and(|v| v.len() != count as usize) {
            return None;
        }
        let name = match (r.u32()?, vals.as_ref()) {
            (NONE, vals) => vals?.first()?.name.clone(),
            (local_len, _) => match (r.u32()?, r.str(local_len)?) {
                (NONE, local) => QName::local(local),
                (ns_len, local) => QName::new(r.str(ns_len)?, local),
            },
        };
        props.push((name, vals));
    }
    values.next().is_none().then_some(props)
}

/// The documents of one shard, by service and key, while replay folds
/// its records.
type Rows = BTreeMap<String, BTreeMap<String, PropertyDoc>>;

/// Fold one replayed record into `rows`; `None` if it does not decode
/// or has nothing to apply to.
fn fold(rows: &mut Rows, (op, service, key, body): Record<'_>) -> Option<()> {
    match op {
        OP_DESTROY => drop(rows.get_mut(service)?.remove(key)?),
        OP_DELTA => {
            let doc = rows.get_mut(service)?.get_mut(key)?;
            for (name, values) in decode_body(body)? {
                match values {
                    Some(values) => doc.update(name, values),
                    None => drop(doc.delete(&name)),
                }
            }
        }
        OP_CREATE => {
            let mut doc = PropertyDoc::new();
            for (name, values) in decode_body(body)? {
                doc.update(name, values?);
            }
            let keys = rows.entry(service.to_string()).or_default();
            keys.insert(key.to_string(), doc);
        }
        _ => return None,
    }
    Some(())
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

// ---------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------

// The file operations the rollback policy is about; tests make them fail.

fn write(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    #[cfg(test)] // a torn frame reaches the file
    tests::trip(tests::WRITE).inspect_err(|_| drop(file.write(&bytes[..bytes.len() / 2])))?;
    file.write_all(bytes)
}

fn set_len(file: &File, len: u64) -> io::Result<()> {
    #[cfg(test)]
    tests::trip(tests::SET_LEN)?;
    file.set_len(len)
}

/// Append mode: every write lands at the end, so cutting the file back
/// is all a rollback has to do.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new().append(true).create(true).open(path)
}

/// The `(service, key)`s a shard holds — what a compaction walks.
type Keys = BTreeSet<(String, String)>;

struct ShardLog {
    file: File,
    /// Bytes of valid log on disk, and how many of them the last
    /// compaction wrote (none, as far as a fresh open knows).
    len: u64,
    base: u64,
    keys: Keys,
    /// Reused frame and property-table buffers.
    buf: Vec<u8>,
    table: Vec<u8>,
    /// Why the shard stopped taking mutations, once it has.
    failed: Option<String>,
}

impl ShardLog {
    /// Start rendering a record; returns where its frame starts.
    fn begin(&mut self, op: u8, service: &str, key: &str) -> Result<usize, StoreError> {
        if let Some(why) = &self.failed {
            return Err(StoreError::Io(why.clone()));
        }
        self.buf.clear();
        Ok(begin_frame(&mut self.buf, op, service, key))
    }
}

struct WalMetrics {
    appends: Counter,
    bytes: Counter,
    snapshots: Counter,
    append_errors: Counter,
    snapshot_errors: Counter,
    events: EventLog,
}

impl WalMetrics {
    fn from(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("store.wal.appends"),
            bytes: registry.counter("store.wal.bytes"),
            snapshots: registry.counter("store.wal.snapshots"),
            append_errors: registry.counter("store.wal.append_errors"),
            snapshot_errors: registry.counter("store.wal.snapshot_errors"),
            events: registry.events().clone(),
        }
    }

    /// The WAL has no clock; events carry virtual time 0.
    fn emit(&self, severity: Severity, kind: EventKind, detail: impl FnOnce() -> String) {
        self.events.emit(severity, kind, "wal", 0, detail);
    }
}

/// Durability wrapper: any [`ResourceStore`] gains crash-surviving
/// state via per-shard write-ahead logs, compacted as they grow (the
/// module documentation has the format, the order and the failure
/// policy). The wrapped trait is unchanged — services and the
/// container cannot tell the difference, except that
/// [`DurableStore::open`] on the same directory restores every
/// resource that was committed before a crash.
///
/// `open` wants `inner` empty, and for a
/// [`crate::store::StructuredStore`] its schemas declared: replay
/// `create`s every restored row, and fails if one is refused.
pub struct DurableStore {
    inner: Arc<dyn ResourceStore>,
    dir: PathBuf,
    logs: [Mutex<ShardLog>; SHARDS],
    metrics: WalMetrics,
}

impl DurableStore {
    /// Open (or create) the log directory, replay every shard log's
    /// longest valid prefix into `inner`, and truncate each log to it.
    pub fn open(dir: impl Into<PathBuf>, inner: Arc<dyn ResourceStore>) -> io::Result<Self> {
        Self::open_with(dir, inner, None)
    }

    /// [`DurableStore::open`] with metrics: `store.wal.*` counters
    /// track append traffic; `recovery.records` / `recovery.resources`
    /// record what this open replayed.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        inner: Arc<dyn ResourceStore>,
        registry: Option<&MetricsRegistry>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (mut replayed, mut restored) = (0u64, 0u64);
        let mut logs = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let path = dir.join(format!("shard-{shard:02}.log"));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let (mut rows, mut len) = (Rows::new(), 0);
            while let Some((rec, next)) = decode_frame(&bytes, len) {
                if fold(&mut rows, rec).is_none() {
                    break;
                }
                replayed += 1;
                len = next;
            }
            // Make the valid prefix authoritative: drop any torn tail
            // so future appends extend a clean log.
            let file = open_log(&path)?;
            if len != bytes.len() {
                file.set_len(len as u64)?;
            }
            let mut keys = Keys::new();
            for (service, docs) in rows {
                for (key, doc) in docs {
                    let put = inner.create(&service, &key, &doc);
                    put.map_err(|e| invalid(format!("replaying {service}/{key}: {e}")))?;
                    keys.insert((service.clone(), key));
                }
            }
            restored += keys.len() as u64;
            let (len, base, buf, table) = (len as u64, 0, Vec::new(), Vec::new());
            logs.push(Mutex::new(ShardLog {
                file,
                len,
                base,
                keys,
                buf,
                table,
                failed: None,
            }));
        }
        let disabled = MetricsRegistry::disabled();
        let registry = registry.unwrap_or(&disabled);
        registry.counter("recovery.records").add(replayed);
        registry.counter("recovery.resources").add(restored);
        Ok(DurableStore {
            inner,
            dir,
            logs: logs
                .try_into()
                .unwrap_or_else(|_| unreachable!("SHARDS log files")),
            metrics: WalMetrics::from(registry),
        })
    }

    /// Total bytes appended to the shard logs since each was last
    /// compacted (the log-overhead number E7 reports).
    pub fn log_bytes(&self) -> u64 {
        let logs = self.logs.iter().map(|l| l.lock());
        logs.map(|l| l.len - l.base).sum()
    }

    /// Force a compaction of every shard.
    pub fn snapshot_all(&self) -> io::Result<()> {
        (0..SHARDS).try_for_each(|shard| self.snapshot_shard(shard, &mut self.logs[shard].lock()))
    }

    /// Write the record rendered in `log.buf` (frame opened at `at`),
    /// then `apply` it to the inner store and the shard's keys. If
    /// either fails the log is cut back to where it was — or, failing
    /// that, the shard stops.
    fn commit(
        &self,
        log: &mut ShardLog,
        shard: usize,
        at: usize,
        apply: impl FnOnce(&mut Keys) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let Err(error) = end_frame(&mut log.buf, at)
            .and_then(|()| write(&mut log.file, &log.buf))
            .map_err(|e| StoreError::Io(format!("wal shard {shard:02}: append: {e}")))
            .and_then(|()| apply(&mut log.keys))
        else {
            log.len += log.buf.len() as u64;
            self.metrics.appends.inc();
            self.metrics.bytes.add(log.buf.len() as u64);
            // Compact once as much is appended as was last compacted
            // to. This mutation is logged and applied, so it stays
            // acknowledged: `snapshot_shard` has counted and reported a
            // failure, and the log it left asks again next time.
            if log.len - log.base >= log.base.max(COMPACT_FLOOR) {
                self.snapshot_shard(shard, log).ok();
            }
            return Ok(());
        };
        if let Err(e) = set_len(&log.file, log.len) {
            log.failed = Some(format!(
                "wal shard {shard:02} stopped until reopened: rollback: {e}"
            ));
        }
        if log.failed.is_some() || matches!(error, StoreError::Io(_)) {
            self.metrics.append_errors.inc();
            let detail = log.failed.clone().unwrap_or_else(|| error.to_string());
            self.metrics
                .emit(Severity::Error, EventKind::WalAppendError, || detail);
        }
        Err(error)
    }

    /// Rewrite this shard's log as its current rows ([`Self::rewrite`]),
    /// counting and reporting how that went.
    fn snapshot_shard(&self, shard: usize, log: &mut ShardLog) -> io::Result<()> {
        let result = self.rewrite(shard, log);
        let (severity, counter) = match result {
            Ok(()) => (Severity::Info, &self.metrics.snapshots),
            Err(_) => (Severity::Error, &self.metrics.snapshot_errors),
        };
        counter.inc();
        self.metrics
            .emit(severity, EventKind::WalSnapshot, || match &result {
                Ok(()) => format!("shard {shard:02} compacted to {} snapshot bytes", log.base),
                Err(e) => format!("shard {shard:02} compaction failed: {e}"),
            });
        result
    }

    /// One `OP_CREATE` per key the shard holds, written beside the log
    /// and renamed over it.
    fn rewrite(&self, shard: usize, log: &mut ShardLog) -> io::Result<()> {
        if let Some(why) = &log.failed {
            return Err(io::Error::other(why.clone()));
        }
        let mut out = Vec::with_capacity(log.base as usize);
        for (service, key) in &log.keys {
            let at = begin_frame(&mut out, OP_CREATE, service, key);
            let doc = self
                .inner
                .share(service, key)
                .map_err(|e| invalid(format!("compacting {service}/{key}: {e}")))?;
            put_body(&mut out, &mut log.table, &doc, |put| whole(&doc, put));
            end_frame(&mut out, at)?;
        }
        let path = self.dir.join(format!("shard-{shard:02}.log"));
        let tmp = path.with_extension("log.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &path)?;
        // The handle still names the file just replaced: nothing more
        // may go to it.
        log.file = open_log(&path).inspect_err(|e| {
            log.failed = Some(format!(
                "wal shard {shard:02} stopped until reopened: reopening the compacted log: {e}"
            ));
        })?;
        (log.len, log.base) = (out.len() as u64, out.len() as u64);
        Ok(())
    }
}

impl ResourceStore for DurableStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        let shard = shard_of(service, key);
        let log = &mut *self.logs[shard].lock();
        if self.inner.exists(service, key) {
            return Err(StoreError::AlreadyExists(key.to_string()));
        }
        let at = log.begin(OP_CREATE, service, key)?;
        put_body(&mut log.buf, &mut log.table, doc, |put| whole(doc, put));
        self.commit(log, shard, at, |keys| {
            self.inner.create(service, key, doc)?;
            keys.insert((service.to_string(), key.to_string()));
            Ok(())
        })
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.inner.load(service, key)
    }

    fn share(&self, service: &str, key: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        self.inner.share(service, key)
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        let shard = shard_of(service, key);
        let log = &mut *self.logs[shard].lock();
        let at = log.begin(OP_DELTA, service, key)?;
        let stored = self.inner.share(service, key)?;
        put_body(&mut log.buf, &mut log.table, doc, |put| {
            delta(&stored, doc, put)
        });
        self.commit(log, shard, at, |_| self.inner.save(service, key, doc))
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let shard = shard_of(service, key);
        let log = &mut *self.logs[shard].lock();
        if !self.inner.exists(service, key) {
            return Err(StoreError::NotFound(key.to_string()));
        }
        let at = log.begin(OP_DESTROY, service, key)?;
        self.commit(log, shard, at, |keys| {
            self.inner.destroy(service, key)?;
            keys.remove(&(service.to_string(), key.to_string()));
            Ok(())
        })
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.inner.exists(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.inner.list(service)
    }

    fn query(&self, service: &str, path: &XPath) -> Vec<String> {
        self.inner.query(service, path)
    }

    fn backend_name(&self) -> &'static str {
        "durable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ColumnType, MemoryStore, StructuredStore};
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    // ---- fault injection behind `write` / `set_len` -------------------

    pub(super) const WRITE: u8 = 1;
    pub(super) const SET_LEN: u8 = 2;

    thread_local! {
        /// Faults armed on this thread; each fails the next call of
        /// its kind, once.
        static ARMED: Cell<u8> = const { Cell::new(0) };
        /// `write` calls this thread has made.
        static WRITES: Cell<u64> = const { Cell::new(0) };
        /// Heap allocations this thread has made.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn trip(point: u8) -> io::Result<()> {
        if point == WRITE {
            WRITES.set(WRITES.get() + 1);
        }
        let armed = ARMED.get();
        if armed & point == 0 {
            return Ok(());
        }
        ARMED.set(armed & !point);
        Err(io::Error::other("injected fault"))
    }

    fn arm(points: u8) {
        ARMED.set(points);
    }

    /// Make every compaction in `dir` fail (or work again): a directory
    /// squats on each shard's tmp path, so writing the snapshot cannot.
    fn block_compaction(dir: &Path, on: bool) {
        for shard in 0..SHARDS {
            let tmp = dir.join(format!("shard-{shard:02}.log.tmp"));
            let _ = if on {
                std::fs::create_dir_all(&tmp)
            } else {
                std::fs::remove_dir(&tmp)
            };
        }
    }

    struct Counting;

    // SAFETY: every call goes to `System` unchanged, which upholds the
    // `GlobalAlloc` contract; the counter is a const-initialised
    // thread-local `Cell` with no destructor, so touching it neither
    // allocates nor can observe a torn-down slot.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            // SAFETY: as for `dealloc`, with the caller's size contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn allocs(f: impl FnOnce()) -> u64 {
        let before = ALLOCS.get();
        f();
        ALLOCS.get() - before
    }

    /// A memory store that refuses the next mutation once armed — the
    /// inner store saying no after the record is written. It takes the
    /// trait's default `share`, so the load-a-copy path is covered.
    #[derive(Default)]
    struct Refusing {
        rows: MemoryStore,
        refuse: AtomicBool,
    }

    impl Refusing {
        fn gate(&self) -> Result<(), StoreError> {
            if self.refuse.swap(false, Ordering::SeqCst) {
                return Err(StoreError::Schema("refused".into()));
            }
            Ok(())
        }
    }

    impl ResourceStore for Refusing {
        fn create(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
            self.gate().and_then(|()| self.rows.create(s, k, d))
        }
        fn load(&self, s: &str, k: &str) -> Result<PropertyDoc, StoreError> {
            self.rows.load(s, k)
        }
        fn save(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
            self.gate().and_then(|()| self.rows.save(s, k, d))
        }
        fn destroy(&self, s: &str, k: &str) -> Result<(), StoreError> {
            self.gate().and_then(|()| self.rows.destroy(s, k))
        }
        fn exists(&self, s: &str, k: &str) -> bool {
            self.rows.exists(s, k)
        }
        fn list(&self, s: &str) -> Vec<String> {
            self.rows.list(s)
        }
        fn query(&self, s: &str, p: &XPath) -> Vec<String> {
            self.rows.query(s, p)
        }
        fn backend_name(&self) -> &'static str {
            "refusing"
        }
    }

    // ---- fixtures -----------------------------------------------------

    fn q(local: &str) -> QName {
        QName::new("urn:test", local)
    }

    fn doc(status: &str) -> PropertyDoc {
        let mut d = PropertyDoc::new();
        d.set_text(q("Status"), status);
        d
    }

    /// Twelve scalar properties, the shape the ledger writes.
    fn wide_doc() -> PropertyDoc {
        let mut d = PropertyDoc::new();
        for i in 0..12 {
            d.set_text(q(&format!("P{i:02}")), format!("value-{i}"));
        }
        d
    }

    /// `d` with its properties in the opposite order.
    fn reversed(d: &PropertyDoc) -> PropertyDoc {
        let mut out = PropertyDoc::new();
        for (name, values) in d.entries().collect::<Vec<_>>().into_iter().rev() {
            out.update(name.clone(), values.to_vec());
        }
        out
    }

    fn entry(id: u32) -> Element {
        Element::with_name(q("Entry"))
            .attr("id", id.to_string())
            .child(Element::with_name(q("Member")).text(format!("node-{id}")))
    }

    /// Unique scratch directory; removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("wsrf-wal-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn reopen(dir: &Path) -> DurableStore {
        DurableStore::open(dir, Arc::new(MemoryStore::new())).unwrap()
    }

    fn observed(dir: &Path) -> (DurableStore, Arc<MetricsRegistry>) {
        let reg = MetricsRegistry::enabled();
        let s = DurableStore::open_with(dir, Arc::new(MemoryStore::new()), Some(&reg)).unwrap();
        (s, reg)
    }

    /// Every `(key, document)` of `svc`, sorted by key.
    fn state(s: &dyn ResourceStore) -> Vec<(String, PropertyDoc)> {
        let mut keys = s.list("svc");
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let d = s.load("svc", &k).unwrap();
                (k, d)
            })
            .collect()
    }

    /// Reopening `dir` restores exactly what `live` holds: every
    /// property, its values and the property order.
    fn assert_replays_to(dir: &Path, live: &DurableStore) {
        assert_eq!(state(&reopen(dir)), state(live));
    }

    /// The ops of every frame in the shard log that holds `svc/key`.
    fn logged_ops(dir: &Path, key: &str) -> Vec<u8> {
        let shard = shard_of("svc", key);
        let bytes = std::fs::read(dir.join(format!("shard-{shard:02}.log"))).unwrap();
        let (mut ops, mut at) = (Vec::new(), 0);
        while let Some((rec, next)) = decode_frame(&bytes, at) {
            ops.push(rec.0);
            at = next;
        }
        assert_eq!(at, bytes.len(), "log ends in a whole frame");
        ops
    }

    // ---- format -------------------------------------------------------

    #[test]
    fn crc32_known_vector_and_every_tail_length() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // The sliced loop agrees with the bytewise one at every
        // length mod 8.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            let mut c = !0u32;
            for &b in &bytes[..len] {
                c = CRC[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&bytes[..len]), !c, "length {len}");
        }
    }

    #[test]
    fn the_store_contract_holds_over_a_sharing_and_a_copying_inner_store() {
        use crate::store::{tests::crud_suite, BlobStore};
        let t = TempDir::new("crud");
        crud_suite(&reopen(&t.0));
        let t = TempDir::new("crud-copying");
        // `BlobStore` takes the trait's default `share`.
        crud_suite(&DurableStore::open(&t.0, Arc::new(BlobStore::new())).unwrap());
    }

    #[test]
    fn state_survives_reopen() {
        let t = TempDir::new("reopen");
        {
            let s = reopen(&t.0);
            s.create("svc", "a", &doc("Running")).unwrap();
            s.create("svc", "b", &doc("Running")).unwrap();
            let mut d = s.load("svc", "a").unwrap();
            d.set_text(q("Status"), "Exited");
            s.save("svc", "a", &d).unwrap();
            s.destroy("svc", "b").unwrap();
        }
        let s = reopen(&t.0);
        assert_eq!(
            s.load("svc", "a").unwrap().text(&q("Status")).unwrap(),
            "Exited"
        );
        assert!(!s.exists("svc", "b"));
        assert_eq!(s.list("svc"), ["a"]);
    }

    #[test]
    fn torn_tail_is_dropped_and_log_stays_appendable() {
        let t = TempDir::new("torn");
        {
            let s = reopen(&t.0);
            s.create("svc", "a", &doc("Running")).unwrap();
        }
        // Append garbage to every shard log: a torn half-frame.
        for shard in 0..SHARDS {
            let p = t.0.join(format!("shard-{shard:02}.log"));
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }
        {
            let s = reopen(&t.0);
            assert!(s.exists("svc", "a"));
            s.create("svc", "c", &doc("Running")).unwrap();
        }
        // The torn bytes were truncated away, so the new record is
        // visible after another reopen.
        let s = reopen(&t.0);
        assert!(s.exists("svc", "a"));
        assert!(s.exists("svc", "c"));
    }

    #[test]
    fn a_log_file_that_exists_but_cannot_be_read_fails_open() {
        let t = TempDir::new("unreadable");
        std::fs::create_dir_all(t.0.join("shard-03.log")).unwrap();
        assert!(DurableStore::open(&t.0, Arc::new(MemoryStore::new())).is_err());
    }

    #[test]
    fn wal_metrics_are_recorded() {
        let t = TempDir::new("metrics");
        {
            let (s, reg) = observed(&t.0);
            s.create("svc", "a", &doc("Running")).unwrap();
            s.save("svc", "a", &doc("Exited")).unwrap();
            let snap = reg.snapshot();
            assert_eq!(snap.counter("store.wal.appends"), Some(2));
            assert_eq!(snap.counter("store.wal.bytes"), Some(s.log_bytes()));
            assert_eq!(snap.counter("store.wal.append_errors"), Some(0));
            assert_eq!(snap.counter("store.wal.snapshot_errors"), Some(0));
        }
        let (_s, reg) = observed(&t.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("recovery.records"), Some(2));
        assert_eq!(snap.counter("recovery.resources"), Some(1));
    }

    // ---- delta records ------------------------------------------------

    #[test]
    fn a_one_property_update_logs_that_property_only() {
        let t = TempDir::new("delta-size");
        let s = reopen(&t.0);
        s.create("svc", "k", &wide_doc()).unwrap();
        let whole = s.log_bytes();
        let mut d = wide_doc();
        d.set_text(q("P07"), "changed");
        s.save("svc", "k", &d).unwrap();
        let delta = s.log_bytes() - whole;
        assert!(
            delta * 4 < whole,
            "{delta} of {whole} bytes for one of 12 properties"
        );
        assert_eq!(logged_ops(&t.0, "k"), [OP_CREATE, OP_DELTA]);
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn a_save_allocates_nothing_of_its_own_and_writes_once() {
        let t = TempDir::new("allocs");
        let s = reopen(&t.0);
        let bare = MemoryStore::new();
        s.create("svc", "k", &wide_doc()).unwrap();
        bare.create("svc", "k", &wide_doc()).unwrap();
        let mut d = wide_doc();
        d.set_text(q("P03"), "warm the shard buffers");
        s.save("svc", "k", &d).unwrap();
        d.set_text(q("P03"), "measured");

        let writes = WRITES.get();
        let through_wal = allocs(|| s.save("svc", "k", &d).unwrap());
        assert_eq!(WRITES.get() - writes, 1, "one write per save");
        let inner_alone = allocs(|| bare.save("svc", "k", &d).unwrap());
        // What is left is the XML writer's prefix scope for the one
        // value rendered, measured here on the same value.
        let mut buf = Vec::with_capacity(256);
        let writer = allocs(|| {
            let mut w = TreeWriter::new(&mut buf);
            w.start(None, "r");
            w.element(&d.get(&q("P03"))[0]);
            w.end();
        });
        assert_eq!(through_wal - inner_alone, writer);
    }

    #[test]
    fn deletes_appends_and_reorders_replay_in_property_order() {
        let t = TempDir::new("order");
        let s = reopen(&t.0);
        s.create("svc", "k", &wide_doc()).unwrap();
        // Delete one, change one, append one: a delta.
        let mut d = wide_doc();
        d.delete(&q("P02"));
        d.set_text(q("P09"), "changed");
        d.set_text(q("Extra"), "appended");
        s.save("svc", "k", &d).unwrap();
        // Delete and re-add: the property moves to the end.
        d.delete(&q("P00"));
        d.set_text(q("P00"), "back, last");
        s.save("svc", "k", &d).unwrap();
        assert_eq!(logged_ops(&t.0, "k"), [OP_CREATE, OP_DELTA, OP_DELTA]);
        // Reversed: everything out of place is deleted and set again.
        let reversed = reversed(&d);
        s.save("svc", "k", &reversed).unwrap();
        assert_eq!(s.load("svc", "k").unwrap(), reversed);
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn multi_valued_and_zero_valued_properties_replay_as_they_were() {
        let t = TempDir::new("values");
        let s = reopen(&t.0);
        let mut group = doc("Open");
        for id in 0..5 {
            group.insert(q("Entry"), entry(id));
        }
        s.create("svc", "group", &group).unwrap();
        // One `insert` makes the property's six values the delta.
        group.insert(q("Entry"), entry(5));
        s.save("svc", "group", &group).unwrap();
        assert_replays_to(&t.0, &s);
        // Remove every entry: the property stays, with no values.
        while group.remove_value(&q("Entry"), |_| true) {}
        assert!(group.contains(&q("Entry")) && group.get(&q("Entry")).is_empty());
        group.update(q("Empty"), Vec::new());
        s.save("svc", "group", &group).unwrap();
        assert_eq!(logged_ops(&t.0, "group"), [OP_CREATE, OP_DELTA, OP_DELTA]);
        assert_eq!(reopen(&t.0).load("svc", "group").unwrap(), group);
        // A created document keeps its empty property too.
        s.create("svc", "fresh", &group).unwrap();
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn names_the_values_cannot_carry_replay_exactly() {
        let t = TempDir::new("names");
        let s = reopen(&t.0);
        // A namespace no Clark string could hold, no namespace at all,
        // and a value that is not named like its property.
        let odd = QName::new("urn:odd}{ns", "Odd");
        let mut d = doc("Running");
        d.set_text(odd.clone(), "x");
        d.set_text(QName::local("Bare"), "y");
        d.insert(q("Alias"), Element::with_name(q("Other")).text("z"));
        s.create("svc", "k", &d).unwrap();
        assert_replays_to(&t.0, &s);
        // Deleted and emptied, the table is all that names them.
        d.delete(&odd);
        d.update(QName::local("Bare"), Vec::new());
        d.insert(q("Alias"), Element::with_name(q("Another")).text("w"));
        s.save("svc", "k", &d).unwrap();
        assert_eq!(reopen(&t.0).load("svc", "k").unwrap(), d);
    }

    #[test]
    fn a_delta_for_a_key_destroyed_later_does_not_resurrect_it() {
        let t = TempDir::new("destroyed");
        let s = reopen(&t.0);
        s.create("svc", "gone", &wide_doc()).unwrap();
        let mut d = wide_doc();
        d.set_text(q("P01"), "changed");
        s.save("svc", "gone", &d).unwrap();
        s.destroy("svc", "gone").unwrap();
        assert_eq!(logged_ops(&t.0, "gone"), [OP_CREATE, OP_DELTA, OP_DESTROY]);
        assert!(!reopen(&t.0).exists("svc", "gone"));
        // Created again, it starts from its new document, not the old.
        s.create("svc", "gone", &doc("Again")).unwrap();
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn racing_saves_of_stale_documents_replay_to_what_memory_holds() {
        let t = TempDir::new("race");
        let s = reopen(&t.0);
        s.create("svc", "k", &wide_doc()).unwrap();
        // Both writers start from the same load and never look again:
        // each save's delta is against whatever is stored by then.
        let stale = s.load("svc", "k").unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let (s, barrier, mut d) = (&s, &barrier, stale.clone());
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..200 {
                        d.set_text(
                            q(&format!("P{:02}", writer * 6)),
                            format!("{writer}-{round}"),
                        );
                        d.set_text(q("P11"), format!("{writer}-{round}"));
                        s.save("svc", "k", &d).unwrap();
                    }
                });
            }
        });
        assert_replays_to(&t.0, &s);
    }

    // ---- compaction ---------------------------------------------------

    #[test]
    fn snapshot_truncates_log_and_preserves_state() {
        let t = TempDir::new("snap");
        let s = reopen(&t.0);
        for i in 0..32 {
            s.create("svc", &format!("k{i}"), &doc("Running")).unwrap();
        }
        assert!(s.log_bytes() > 0);
        s.snapshot_all().unwrap();
        assert_eq!(s.log_bytes(), 0, "compaction leaves nothing appended");
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn destroy_before_crash_does_not_resurrect() {
        let t = TempDir::new("destroy");
        {
            let s = reopen(&t.0);
            s.create("svc", "gone", &doc("Running")).unwrap();
            s.snapshot_all().unwrap();
            s.destroy("svc", "gone").unwrap();
        }
        let s = reopen(&t.0);
        assert!(!s.exists("svc", "gone"), "destroyed resource came back");
    }

    #[test]
    fn deltas_replay_over_a_compacted_log_and_a_stray_tmp_is_ignored() {
        let t = TempDir::new("compacted");
        let s = reopen(&t.0);
        s.create("svc", "a", &wide_doc()).unwrap();
        s.create("svc", "b", &wide_doc()).unwrap();
        s.destroy("svc", "b").unwrap();
        let mut d = wide_doc();
        d.delete(&q("P04"));
        s.save("svc", "a", &d).unwrap();
        s.snapshot_all().unwrap();
        assert_eq!(
            logged_ops(&t.0, "a"),
            [OP_CREATE],
            "the log is its own snapshot"
        );
        // Deltas after the compaction, one of which moves a property.
        d.set_text(q("P04"), "back, last");
        d.set_text(q("P05"), "changed");
        s.save("svc", "a", &d).unwrap();
        // A crash mid-compaction leaves at most a tmp file behind.
        let shard = shard_of("svc", "a");
        std::fs::write(
            t.0.join(format!("shard-{shard:02}.log.tmp")),
            b"half a snap",
        )
        .unwrap();
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn a_log_that_outgrows_its_snapshot_compacts_itself() {
        let t = TempDir::new("trigger");
        let (s, reg) = observed(&t.0);
        s.create("svc", "k", &wide_doc()).unwrap();
        let mut d = wide_doc();
        let mut saves = 0u64;
        while reg.snapshot().counter("store.wal.snapshots") == Some(0) {
            saves += 1;
            d.set_text(q("P05"), format!("v{saves}"));
            s.save("svc", "k", &d).unwrap();
            assert!(s.log_bytes() <= COMPACT_FLOOR + 1024, "no compaction");
        }
        assert!(saves > 200, "compacted after only {saves} saves");
        assert_eq!(logged_ops(&t.0, "k"), [OP_CREATE]);
        assert_eq!(reg.snapshot().counter("events.wal_snapshot"), Some(1));
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn a_failed_compaction_keeps_the_log_and_is_retried() {
        let t = TempDir::new("snapfail");
        let (s, reg) = observed(&t.0);
        s.create("svc", "k", &wide_doc()).unwrap();
        let mut d = wide_doc();
        let mut n = 0;
        let mut save = |s: &DurableStore| {
            n += 1;
            d.set_text(q("P05"), format!("v{n}"));
            s.save("svc", "k", &d)
        };
        while s.log_bytes() + 1024 < COMPACT_FLOOR {
            save(&s).unwrap();
        }
        // Compaction fails for the append that crosses the line: that
        // append is acknowledged all the same, and the log is intact.
        block_compaction(&t.0, true);
        while reg.snapshot().counter("store.wal.snapshot_errors") == Some(0) {
            save(&s).unwrap();
        }
        block_compaction(&t.0, false);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("store.wal.snapshot_errors"), Some(1));
        assert_eq!(snap.counter("store.wal.snapshots"), Some(0));
        assert_eq!(snap.counter("store.wal.append_errors"), Some(0));
        assert!(s.log_bytes() >= COMPACT_FLOOR);
        let events = reg.events().recent(Severity::Error, 8);
        assert!(events[0].detail.contains("compaction failed"));
        assert_replays_to(&t.0, &s);
        // The next append asks again, and this time it works.
        save(&s).unwrap();
        assert_eq!(reg.snapshot().counter("store.wal.snapshots"), Some(1));
        assert_eq!(s.log_bytes(), 0);
        assert_replays_to(&t.0, &s);
        // A forced compaction hands its failure to the caller.
        block_compaction(&t.0, true);
        assert!(s.snapshot_all().is_err());
        assert_eq!(reg.snapshot().counter("store.wal.snapshot_errors"), Some(2));
    }

    // ---- log-then-apply and its failure policy ------------------------

    #[test]
    fn preconditions_are_checked_before_anything_is_logged() {
        let t = TempDir::new("precond");
        let s = reopen(&t.0);
        s.create("svc", "a", &doc("One")).unwrap();
        let logged = s.log_bytes();
        assert_eq!(
            s.create("svc", "a", &doc("Two")),
            Err(StoreError::AlreadyExists("a".into()))
        );
        assert_eq!(
            s.save("svc", "nope", &doc("Two")),
            Err(StoreError::NotFound("nope".into()))
        );
        assert_eq!(
            s.destroy("svc", "nope"),
            Err(StoreError::NotFound("nope".into()))
        );
        assert_eq!(s.log_bytes(), logged);
        assert_eq!(reopen(&t.0).load("svc", "a").unwrap(), doc("One"));
    }

    #[test]
    fn a_failed_write_is_rolled_back_and_reported() {
        let t = TempDir::new("writefail");
        let (s, reg) = observed(&t.0);
        s.create("svc", "a", &doc("One")).unwrap();
        let logged = s.log_bytes();
        arm(WRITE);
        let err = s.save("svc", "a", &doc("Two")).unwrap_err();
        assert!(
            matches!(&err, StoreError::Io(m) if m.contains("injected fault")),
            "{err}"
        );
        assert_eq!(
            crate::faults::from_store(err).error_code,
            "wsrf:StorageFault"
        );
        // Neither the store nor the log moved, torn half-frame and all.
        assert_eq!(s.load("svc", "a").unwrap(), doc("One"));
        assert_eq!(s.log_bytes(), logged);
        let shard = shard_of("svc", "a");
        let file = t.0.join(format!("shard-{shard:02}.log"));
        assert_eq!(file.metadata().unwrap().len(), logged);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("store.wal.append_errors"), Some(1));
        assert_eq!(snap.counter("events.wal_append_error"), Some(1));
        let events = reg.events().recent(Severity::Error, 8);
        assert!(events[0].detail.contains(&format!("shard {shard:02}")));
        // The shard carries on.
        s.save("svc", "a", &doc("Three")).unwrap();
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn a_failed_rollback_stops_the_shard_until_reopen() {
        let t = TempDir::new("failstop");
        let (s, reg) = observed(&t.0);
        s.create("svc", "a", &doc("One")).unwrap();
        arm(WRITE | SET_LEN);
        assert!(s.save("svc", "a", &doc("Two")).is_err());
        // The torn frame is still on disk; nothing may follow it.
        for attempt in [s.save("svc", "a", &doc("Three")), s.destroy("svc", "a")] {
            let err = attempt.unwrap_err();
            assert!(matches!(&err, StoreError::Io(m) if m.contains("stopped until reopened")));
        }
        assert!(s.snapshot_all().is_err());
        assert_eq!(
            s.load("svc", "a").unwrap(),
            doc("One"),
            "reads still served"
        );
        assert_eq!(reg.snapshot().counter("store.wal.append_errors"), Some(1));
        // Another shard is not affected.
        let other = (0..)
            .map(|i| format!("k{i}"))
            .find(|k| shard_of("svc", k) != shard_of("svc", "a"))
            .unwrap();
        s.create("svc", &other, &doc("Fine")).unwrap();
        // Reopen drops the torn tail and the shard works again.
        drop(s);
        let s = reopen(&t.0);
        assert_eq!(s.load("svc", "a").unwrap(), doc("One"));
        s.save("svc", "a", &doc("Four")).unwrap();
        assert_replays_to(&t.0, &s);
    }

    #[test]
    fn a_mutation_the_inner_store_refuses_leaves_no_record() {
        let t = TempDir::new("refused");
        let inner = StructuredStore::new();
        let schema = || vec![(q("Status"), ColumnType::Text)];
        inner.define_schema("svc", schema());
        let reg = MetricsRegistry::enabled();
        let s = DurableStore::open_with(&t.0, Arc::new(inner), Some(&reg)).unwrap();
        s.create("svc", "a", &doc("One")).unwrap();
        let logged = s.log_bytes();
        // Both records are written before the schema says no.
        let mut misfit = doc("Two");
        misfit.set_text(q("Undeclared"), "x");
        assert!(matches!(
            s.save("svc", "a", &misfit),
            Err(StoreError::Schema(_))
        ));
        assert!(matches!(
            s.create("svc", "b", &misfit),
            Err(StoreError::Schema(_))
        ));
        assert_eq!(s.log_bytes(), logged);
        // A refusal is the store's answer, not a log failure.
        assert_eq!(reg.snapshot().counter("store.wal.append_errors"), Some(0));
        drop(s);
        let inner = StructuredStore::new();
        inner.define_schema("svc", schema());
        let s = DurableStore::open(&t.0, Arc::new(inner)).unwrap();
        assert_eq!(s.list("svc"), ["a"]);
        assert_eq!(s.load("svc", "a").unwrap(), doc("One"));
        // Replay that the inner store refuses fails the open.
        drop(s);
        assert!(DurableStore::open(&t.0, Arc::new(StructuredStore::new())).is_err());
    }

    // ---- the sweep ----------------------------------------------------

    const BLOCK: u8 = 4;
    const REFUSE: u8 = 8;

    /// The document a service would save next: its stored one with
    /// mutation `kind` applied (`salt` varies names and values).
    fn mutated(mut d: PropertyDoc, kind: u8, salt: u16) -> PropertyDoc {
        let name = q(&format!("P{}", salt % 5));
        match kind {
            // Update several properties (creating any that is missing).
            0 => {
                d.set_text(name, format!("v{salt}"));
                d.set_text(q(&format!("P{}", (salt / 5) % 5)), format!("w{salt}"));
                d.set_text(q("Touched"), salt.to_string());
            }
            1 => drop(d.delete(&name)),
            2 => d.insert(q("Entry"), entry(salt as u32)),
            3 => drop(d.remove_value(&q("Entry"), |_| true)),
            4 => d.update(name, Vec::new()),
            _ => d = reversed(&d),
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Any op sequence with one injected failure — a torn write, a
        /// refusing inner store, either with a failed rollback, or a
        /// forced compaction that cannot write its file: what was
        /// acknowledged is what memory holds and what a reopen
        /// replays, property for property and in property order; the
        /// op that failed is absent — or, refused with its whole
        /// record stranded by a failed rollback, possibly whole;
        /// never torn.
        #[test]
        fn acknowledged_is_replayed_and_unacknowledged_is_absent_or_whole(
            ops in proptest::collection::vec((0u8..9, 0usize..4, any::<u16>()), 1..40),
            fault_at in 0usize..40,
            fault in 1u8..16,
        ) {
            let t = TempDir::new("sweep");
            let inner = Arc::new(Refusing::default());
            let s = DurableStore::open(&t.0, inner.clone()).unwrap();
            let mut model: BTreeMap<String, PropertyDoc> = BTreeMap::new();
            let mut stopped = BTreeSet::new();
            // The one mutation that may come back although refused.
            let mut stranded: Option<(String, Option<PropertyDoc>)> = None;
            for (i, (kind, key, salt)) in ops.iter().enumerate() {
                let key = format!("k{key}");
                let shard = shard_of("svc", &key);
                let fault = if i == fault_at % ops.len() { fault } else { 0 };
                arm(fault & (WRITE | SET_LEN));
                block_compaction(&t.0, fault & BLOCK != 0);
                inner.refuse.store(fault & REFUSE != 0, Ordering::SeqCst);
                let (result, wanted) = match (kind, model.get(&key)) {
                    (8, _) => {
                        let result = s.snapshot_all().map_err(|e| StoreError::Io(e.to_string()));
                        let fails = fault & BLOCK != 0 || !stopped.is_empty();
                        prop_assert_eq!(result.is_err(), fails);
                        continue;
                    }
                    (7, Some(_)) => (s.destroy("svc", &key), None),
                    (_, None) => {
                        let d = mutated(wide_doc(), kind % 6, *salt);
                        (s.create("svc", &key, &d), Some(d))
                    }
                    (_, Some(stored)) => {
                        let d = mutated(stored.clone(), kind % 6, *salt);
                        (s.save("svc", &key, &d), Some(d))
                    }
                };
                let fails = fault & (WRITE | REFUSE) != 0 || stopped.contains(&shard);
                prop_assert_eq!(result.is_err(), fails, "op {} {:?}", i, result);
                if fails {
                    if fault & SET_LEN != 0 && stopped.insert(shard) && fault & WRITE == 0 {
                        stranded = Some((key, wanted));
                    }
                } else {
                    match wanted {
                        Some(d) => model.insert(key, d),
                        None => model.remove(&key),
                    };
                }
            }
            arm(0);
            block_compaction(&t.0, false);
            inner.refuse.store(false, Ordering::SeqCst);

            let expected: Vec<_> = model.clone().into_iter().collect();
            prop_assert_eq!(&state(&s), &expected, "memory holds what was acknowledged");
            drop(s);
            let replayed = state(&reopen(&t.0));
            if replayed != expected {
                let (key, doc) = stranded.expect("only a stranded record may differ");
                match doc {
                    Some(d) => model.insert(key, d),
                    None => model.remove(&key),
                };
                let whole: Vec<_> = model.into_iter().collect();
                prop_assert_eq!(replayed, whole, "the stranded record came back torn");
            }
        }
    }
}
