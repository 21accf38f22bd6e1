//! Namespace-qualified XML names and the two bounded intern tables
//! behind them: namespace URIs ([`intern_ns`]) and local names
//! ([`LocalName`]).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock};

/// Upper bound on distinct interned namespace URIs. A SOAP deployment
/// sees a dozen or two specification namespaces; the cap only exists
/// so hostile or generated input (fuzzers, per-tenant topic URIs)
/// cannot grow the table without bound. Overflow falls back to a
/// plain allocation.
const INTERN_CAP: usize = 256;

/// Upper bound on distinct interned local names. Interned names are
/// leaked (`&'static str`), so together with [`NAME_MAX_LEN`] this
/// bounds the leak at 256 KiB of name bytes however hostile the input.
/// The port types, property documents and job descriptions of a
/// deployment use a few hundred names; the rest of the room is for
/// generated property names. Overflow falls back to an owned string.
const NAME_INTERN_CAP: usize = 4096;

/// Names longer than this are never interned.
const NAME_MAX_LEN: usize = 64;

/// Slots in each per-thread front cache (a power of two).
const FRONT_SLOTS: usize = 128;

/// A direct-mapped per-thread cache in front of a global intern table,
/// so the common lookup takes no lock and hashes nothing but the ends
/// of the string. Colliding strings evict each other and fall through
/// to the table, which keeps the worst case at one table lookup.
struct Front<T> {
    slots: Vec<Option<T>>,
}

impl<T: Clone + AsRef<str>> Front<T> {
    const fn new() -> Self {
        Front { slots: Vec::new() }
    }

    fn slot_of(s: &str) -> usize {
        let b = s.as_bytes();
        let n = b.len().min(8);
        let (mut head, mut tail) = ([0u8; 8], [0u8; 8]);
        head[..n].copy_from_slice(&b[..n]);
        tail[..n].copy_from_slice(&b[b.len() - n..]);
        let mix = u64::from_le_bytes(head).rotate_left(29)
            ^ u64::from_le_bytes(tail)
            ^ ((b.len() as u64) << 56);
        (mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FRONT_SLOTS.trailing_zeros())) as usize
    }

    /// The cached value equal to `s`, else whatever `table` finds for
    /// it (cached for next time when it finds something).
    fn get_or_fill(&mut self, s: &str, table: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        if self.slots.is_empty() {
            self.slots.resize(FRONT_SLOTS, None);
        }
        let slot = &mut self.slots[Self::slot_of(s)];
        if let Some(hit) = slot {
            if (*hit).as_ref() == s {
                return Some(hit.clone());
            }
        }
        let found = table(s);
        if found.is_some() {
            slot.clone_from(&found);
        }
        found
    }
}

thread_local! {
    static NS_FRONT: RefCell<Front<Arc<str>>> = const { RefCell::new(Front::new()) };
    static NAME_FRONT: RefCell<Front<&'static str>> = const { RefCell::new(Front::new()) };
}

fn intern_table() -> &'static RwLock<HashMap<String, Arc<str>>> {
    static TABLE: OnceLock<RwLock<HashMap<String, Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Intern a namespace URI, returning a shared `Arc<str>`.
///
/// The same few specification namespaces (WS-Addressing,
/// WS-ResourceProperties, ...) repeat thousands of times across a
/// message exchange; interning makes every [`QName`] holding one a
/// pointer-sized clone instead of a fresh allocation — the same trick
/// the dispatch layer uses for its interned span names. The table is
/// process-global, seeded on first use, and capped at a fixed size
/// (overflow simply allocates); each thread keeps a small front cache
/// so repeat lookups skip the table's lock and hash.
pub fn intern_ns(uri: &str) -> Arc<str> {
    NS_FRONT
        .try_with(|front| {
            front
                .borrow_mut()
                .get_or_fill(uri, |uri| Some(intern_ns_global(uri)))
        })
        // Thread teardown: the front cache is already gone.
        .ok()
        .flatten()
        .unwrap_or_else(|| intern_ns_global(uri))
}

fn intern_ns_global(uri: &str) -> Arc<str> {
    if let Some(a) = intern_table().read().unwrap().get(uri) {
        return a.clone();
    }
    let mut table = intern_table().write().unwrap();
    if let Some(a) = table.get(uri) {
        return a.clone();
    }
    let a: Arc<str> = Arc::from(uri);
    if table.len() < INTERN_CAP {
        table.insert(uri.to_string(), a.clone());
    }
    a
}

fn name_table() -> &'static RwLock<HashSet<&'static str>> {
    static TABLE: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashSet::new()))
}

/// The interned spelling of `name`, or `None` when it is too long or
/// the table is full.
fn intern_name(name: &str) -> Option<&'static str> {
    if name.len() > NAME_MAX_LEN {
        return None;
    }
    NAME_FRONT
        .try_with(|front| front.borrow_mut().get_or_fill(name, intern_name_global))
        // Thread teardown: the front cache is already gone.
        .unwrap_or_else(|_| intern_name_global(name))
}

fn intern_name_global(name: &str) -> Option<&'static str> {
    const POISONED: &str = "name table lock poisoned";
    /// What the table already decides about `name`: its entry, or
    /// `Some(None)` when it is absent and there is no room to add it.
    fn settled(table: &HashSet<&'static str>, name: &str) -> Option<Option<&'static str>> {
        match table.get(name) {
            Some(&interned) => Some(Some(interned)),
            None if table.len() >= NAME_INTERN_CAP => Some(None),
            None => None,
        }
    }
    if let Some(answer) = settled(&name_table().read().expect(POISONED), name) {
        return answer;
    }
    let mut table = name_table().write().expect(POISONED);
    if let Some(answer) = settled(&table, name) {
        return answer;
    }
    let interned: &'static str = Box::leak(Box::from(name));
    table.insert(interned);
    Some(interned)
}

/// The local part of a [`QName`].
///
/// Element and attribute names repeat even more than namespaces do —
/// every stored property document, every envelope and every clone of
/// either spells the same few hundred names — so the first
/// `NAME_INTERN_CAP` distinct names of at most `NAME_MAX_LEN` bytes are
/// interned for the life of the process: building one is a lookup,
/// cloning one copies a pointer, dropping one does nothing. No
/// reference count is involved, so names shared by every thread put no
/// contended cache line under them. Longer names, and names that
/// arrive after the table is full, are plain owned strings.
///
/// Comparison, ordering and hashing are by content (and agree with
/// `str`), so an interned and an owned spelling of one name are the
/// same key in any map.
#[derive(Clone)]
pub struct LocalName(Repr);

#[derive(Clone)]
enum Repr {
    Interned(&'static str),
    Owned(String),
}

impl LocalName {
    /// The name as a plain `&str`.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Interned(s) => s,
            Repr::Owned(s) => s,
        }
    }
}

impl Default for LocalName {
    fn default() -> Self {
        LocalName(Repr::Interned(""))
    }
}

impl From<&str> for LocalName {
    fn from(s: &str) -> Self {
        match intern_name(s) {
            Some(interned) => LocalName(Repr::Interned(interned)),
            None => LocalName(Repr::Owned(s.to_string())),
        }
    }
}

impl From<String> for LocalName {
    fn from(s: String) -> Self {
        match intern_name(&s) {
            Some(interned) => LocalName(Repr::Interned(interned)),
            None => LocalName(Repr::Owned(s)),
        }
    }
}

impl From<&String> for LocalName {
    fn from(s: &String) -> Self {
        LocalName::from(s.as_str())
    }
}

impl Deref for LocalName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for LocalName {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.as_str(), other.as_str());
        // Same table entry: equal without looking at the bytes.
        std::ptr::eq(a, b) || a == b
    }
}

impl Eq for LocalName {}

impl Hash for LocalName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for LocalName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocalName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for LocalName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for LocalName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for LocalName {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Display for LocalName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for LocalName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A namespace-qualified XML name: `{namespace-uri}local-part`.
///
/// Namespace URIs are interned behind an [`Arc`] because the same few
/// specification namespaces (WS-Addressing, WS-ResourceProperties, ...)
/// are repeated thousands of times across a message exchange; local
/// parts are interned [`LocalName`]s.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QName {
    /// The namespace URI, or `None` for names in no namespace.
    pub ns: Option<Arc<str>>,
    /// The local part of the name.
    pub local: LocalName,
}

impl QName {
    /// A name in the given namespace. The namespace URI is interned
    /// (see [`intern_ns`]).
    pub fn new(ns: impl AsRef<str>, local: impl Into<LocalName>) -> Self {
        QName {
            ns: Some(intern_ns(ns.as_ref())),
            local: local.into(),
        }
    }

    /// A name in no namespace.
    pub fn local(local: impl Into<LocalName>) -> Self {
        QName {
            ns: None,
            local: local.into(),
        }
    }

    /// The namespace URI as a plain `&str`, if any.
    pub fn ns_str(&self) -> Option<&str> {
        self.ns.as_deref()
    }

    /// True when this name has the given namespace URI and local part.
    pub fn is(&self, ns: &str, local: &str) -> bool {
        self.local == *local && self.ns_str() == Some(ns)
    }

    /// Parse Clark notation, `{uri}local` or bare `local`.
    pub fn from_clark(s: &str) -> Self {
        if let Some(rest) = s.strip_prefix('{') {
            if let Some(end) = rest.find('}') {
                let (uri, local) = rest.split_at(end);
                return QName::new(uri, &local[1..]);
            }
        }
        QName::local(s)
    }
}

impl fmt::Display for QName {
    /// Clark notation: `{uri}local`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ns {
            Some(ns) => write!(f, "{{{}}}{}", ns, self.local),
            None => f.write_str(&self.local),
        }
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QName({})", self)
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::from_clark(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clark_roundtrip() {
        let q = QName::new("http://example.org/ns", "Job");
        assert_eq!(q.to_string(), "{http://example.org/ns}Job");
        assert_eq!(QName::from_clark(&q.to_string()), q);
        let bare = QName::local("Job");
        assert_eq!(bare.to_string(), "Job");
        assert_eq!(QName::from_clark("Job"), bare);
    }

    #[test]
    fn is_matches_namespace_and_local() {
        let q = QName::new("urn:a", "x");
        assert!(q.is("urn:a", "x"));
        assert!(!q.is("urn:b", "x"));
        assert!(!q.is("urn:a", "y"));
        assert!(!QName::local("x").is("urn:a", "x"));
    }

    #[test]
    fn from_str_conversion() {
        let q: QName = "{urn:a}x".into();
        assert!(q.is("urn:a", "x"));
    }

    fn hash_of(name: &LocalName) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    #[test]
    fn local_name_behaves_like_its_str() {
        let n = LocalName::from("Job");
        assert_eq!(n, "Job");
        assert_eq!(n, *"Job");
        assert_eq!(n, "Job".to_string());
        assert_eq!(n, LocalName::from("Job".to_string()));
        assert_eq!(n, LocalName::from(&"Job".to_string()));
        assert_eq!(n.len(), 3);
        assert_eq!(format!("{n} {n:?}"), "Job \"Job\"");
        assert_eq!(
            LocalName::from("a").cmp(&LocalName::from("b")),
            Ordering::Less
        );
        assert_eq!(LocalName::default(), "");
        assert_eq!(LocalName::default(), LocalName::from(""));
    }

    /// One test, in this order, because the table is process-wide and
    /// the flood fills it for good: sharing first, then the bound.
    #[test]
    fn name_table_is_shared_then_bounded() {
        let interned_ptr = |s: &str| match LocalName::from(s).0 {
            Repr::Interned(entry) => entry.as_ptr() as usize,
            Repr::Owned(_) => panic!("table has room for {s}"),
        };

        // Eight threads racing to intern the same names end up holding
        // the same table entries.
        let names: Vec<String> = (0..64).map(|i| format!("raced-name-{i}")).collect();
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<usize>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        names.iter().map(|n| interned_ptr(n)).collect()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for ptrs in &per_thread[1..] {
            assert_eq!(ptrs, &per_thread[0]);
        }

        // Names over the length limit are never interned.
        let long = "n".repeat(NAME_MAX_LEN + 1);
        assert!(matches!(LocalName::from(long.as_str()).0, Repr::Owned(_)));
        assert!(matches!(
            LocalName::from("n".repeat(NAME_MAX_LEN)).0,
            Repr::Interned(_)
        ));

        // A flood of distinct names stops growing the table at its cap,
        // and every name — interned or not — still parses, renders and
        // compares as itself.
        for i in 0..100_000 {
            let spelled = format!("flood-{i}");
            let xml = format!("<{spelled} {spelled}=\"v\"/>");
            let e = crate::parse(&xml).unwrap();
            assert_eq!(e.name.local, spelled);
            assert_eq!(e.attrs[0].0, QName::local(spelled));
            assert_eq!(e.to_xml(), xml);
            if i % 1000 == 0 {
                assert!(name_table().read().unwrap().len() <= NAME_INTERN_CAP);
            }
        }
        assert_eq!(name_table().read().unwrap().len(), NAME_INTERN_CAP);
        let overflow = LocalName::from("flood-99999");
        assert!(matches!(overflow.0, Repr::Owned(_)));

        // An owned and an interned spelling of one name are one key.
        let interned = LocalName::from("raced-name-0");
        assert!(matches!(interned.0, Repr::Interned(_)));
        for other in [long.as_str(), "flood-99999", "raced-name-1"] {
            let other = LocalName::from(other);
            assert_ne!(interned, other);
            assert_eq!(interned.cmp(&other), interned.as_str().cmp(other.as_str()));
        }
        let owned = LocalName(Repr::Owned("raced-name-0".to_string()));
        assert_eq!(interned, owned);
        assert_eq!(interned.cmp(&owned), Ordering::Equal);
        assert_eq!(hash_of(&interned), hash_of(&owned));
        let mut by_name = HashMap::new();
        by_name.insert(QName::new("urn:a", interned), 1);
        assert_eq!(by_name.get(&QName::new("urn:a", owned)), Some(&1));
    }

    #[test]
    fn interned_uris_share_storage() {
        let a = intern_ns("urn:share-me");
        let b = intern_ns("urn:share-me");
        assert!(Arc::ptr_eq(&a, &b));
        let qa = QName::new("urn:share-me", "x");
        assert!(Arc::ptr_eq(qa.ns.as_ref().unwrap(), &a));
    }
}
