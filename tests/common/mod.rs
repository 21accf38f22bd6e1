//! Helpers shared by the root test suites. Each suite uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The expected value of every table a test renders with [`table`].
const EXPERIMENTS: &str = include_str!("../../EXPERIMENTS.md");

/// An aligned Markdown table, the way EXPERIMENTS.md prints one.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut s = String::from("|");
        for (cell, w) in cells.zip(&widths) {
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s + "\n"
    };
    let mut out = line(&mut headers.iter().copied());
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&line(&mut row.iter().map(String::as_str)));
    }
    out
}

/// `a` as a multiple of `b`, the way the tables print a ratio.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}×", a / b)
}

/// Fails unless EXPERIMENTS.md contains `table` verbatim. The failure
/// prints the table, so a deliberate change is a paste into the
/// document, and the diff shows in review.
pub fn assert_documented(table: &str) {
    assert!(
        EXPERIMENTS.contains(table),
        "EXPERIMENTS.md does not contain this table verbatim:\n\n{table}"
    );
}

/// A directory of its own for one test, removed when dropped — also
/// when the test fails.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wsrf-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
