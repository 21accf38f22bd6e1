//! Offline stand-in for the `bytes` crate, cut to what the workspace
//! uses: [`Bytes`], a cheaply-cloneable immutable byte buffer (an
//! `Arc<[u8]>`), which is how file contents move between machines.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v.into())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes(s.into())
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_buffer() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(std::ptr::eq(b.as_ptr(), c.as_ptr()));
        assert_eq!(c, &[1u8, 2, 3][..]);
        assert_eq!(
            format!("{:?}", Bytes::from_static(b"a\n\"")),
            "b\"a\\n\\\"\""
        );
    }
}
