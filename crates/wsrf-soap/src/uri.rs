//! Minimal URI handling for the testbed's address schemes.
//!
//! The paper's job-set descriptions mix several schemes:
//! `local://C:\file1` (the client's own file system, served over
//! WSE-TCP), `job1://output2` (a dependency on another job's output),
//! HTTP service addresses, and WSE's `soap.tcp` scheme for bulk
//! transfer. Our transports add `inproc` for the simulated campus
//! network.

use std::fmt;

/// A parsed `scheme://authority/path` URI.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Uri {
    /// The scheme, lowercased (e.g. `http`, `soap.tcp`, `inproc`,
    /// `local`, or a job name like `job1`).
    pub scheme: String,
    /// The authority (host, `host:port`, or machine name). May be the
    /// path itself for opaque schemes like `local://C:\x`.
    pub authority: String,
    /// The path after the authority, without the leading `/`.
    pub path: String,
}

impl Uri {
    /// Parse a URI. Fails only when no `://` separator is present.
    pub fn parse(s: &str) -> Option<Uri> {
        let (scheme, authority, path) = Uri::split(s)?;
        Some(Uri {
            scheme: scheme.to_ascii_lowercase(),
            authority: authority.to_string(),
            path: path.to_string(),
        })
    }

    /// [`parse`](Self::parse) for a caller that only looks:
    /// `(scheme, authority, path)` borrowed from `s`, nothing
    /// allocated. The scheme comes back as written, not lowercased.
    pub fn split(s: &str) -> Option<(&str, &str, &str)> {
        let (scheme, rest) = s.split_once("://")?;
        if scheme.is_empty() {
            return None;
        }
        let (authority, path) = rest.split_once('/').unwrap_or((rest, ""));
        Some((scheme, authority, path))
    }

    /// Reassemble the textual form.
    pub fn to_uri_string(&self) -> String {
        if self.path.is_empty() {
            format!("{}://{}", self.scheme, self.authority)
        } else {
            format!("{}://{}/{}", self.scheme, self.authority, self.path)
        }
    }

    /// Build an URI from parts.
    pub fn build(scheme: &str, authority: &str, path: &str) -> Uri {
        Uri {
            scheme: scheme.to_ascii_lowercase(),
            authority: authority.to_string(),
            path: path.trim_start_matches('/').to_string(),
        }
    }

    /// Everything after `scheme://` (used by opaque schemes such as
    /// `local://C:\dir\file`, where splitting on `/` is meaningless).
    pub fn opaque(&self) -> String {
        if self.path.is_empty() {
            self.authority.clone()
        } else {
            format!("{}/{}", self.authority, self.path)
        }
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_uri_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_service_addresses() {
        let u = Uri::parse("inproc://machine01/ExecutionService").unwrap();
        assert_eq!(u.scheme, "inproc");
        assert_eq!(u.authority, "machine01");
        assert_eq!(u.path, "ExecutionService");
        assert_eq!(u.to_uri_string(), "inproc://machine01/ExecutionService");
    }

    #[test]
    fn parses_host_port() {
        let u = Uri::parse("soap.tcp://127.0.0.1:9001/fs").unwrap();
        assert_eq!(u.scheme, "soap.tcp");
        assert_eq!(u.authority, "127.0.0.1:9001");
    }

    #[test]
    fn parses_job_scheme() {
        let u = Uri::parse("job1://output2").unwrap();
        assert_eq!(u.scheme, "job1");
        assert_eq!(u.opaque(), "output2");
    }

    #[test]
    fn parses_local_scheme_opaquely() {
        let u = Uri::parse(r"local://C:\data\file1").unwrap();
        assert_eq!(u.scheme, "local");
        assert_eq!(u.opaque(), r"C:\data\file1");
    }

    #[test]
    fn authority_only() {
        let u = Uri::parse("http://host").unwrap();
        assert_eq!(u.path, "");
        assert_eq!(u.to_uri_string(), "http://host");
    }

    #[test]
    fn rejects_schemeless() {
        assert!(Uri::parse("no-scheme-here").is_none());
        assert!(Uri::parse("://x").is_none());
    }

    #[test]
    fn scheme_is_case_insensitive() {
        assert_eq!(Uri::parse("HTTP://h/x").unwrap().scheme, "http");
    }

    #[test]
    fn split_borrows_the_parts_as_written() {
        assert_eq!(Uri::split("HTTP://Host"), Some(("HTTP", "Host", "")));
        assert_eq!(
            Uri::split("soap.tcp://127.0.0.1:9001/fs/a"),
            Some(("soap.tcp", "127.0.0.1:9001", "fs/a"))
        );
        assert_eq!(Uri::split("://x"), None);
    }

    #[test]
    fn build_normalizes_leading_slash() {
        let u = Uri::build("inproc", "m1", "/Svc");
        assert_eq!(u.to_uri_string(), "inproc://m1/Svc");
    }
}
