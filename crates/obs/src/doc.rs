//! One versioned envelope for every JSON document the stack writes and
//! reads back: `cim_bench::BenchReport`, `cim_bench::LoadtestReport`,
//! `cim_dse::DseReport`, `cim_traffic::TrafficReport` and
//! `cim_traffic::Trace`.
//!
//! A [`Document`] states three things about itself: its kind (what error
//! messages call it), the window of layout versions this toolchain reads
//! (`MIN_VERSION..=VERSION`; it writes `VERSION`), and its *volatile*
//! fields — wall clocks, thread counts, cache counters: whatever two runs
//! of the same inputs may disagree on. Everything else is written once,
//! here: pretty JSON out, version-gated JSON in, validation of a document
//! that arrived already deserialized, and the [`Document::comparable`]
//! copy that CI byte-compares across worker counts, cache states and
//! tracing on/off.
//!
//! Each document type keeps its version history in its own module docs;
//! bump `VERSION` on any incompatible layout change, and raise
//! `MIN_VERSION` only when old documents can no longer be read.

use serde::{Deserialize, Serialize};

/// A schema-versioned JSON document (see the [module docs](self)).
pub trait Document: Serialize + Deserialize + Clone {
    /// What the document is, as messages name it (`"bench report"`).
    const KIND: &'static str;
    /// The layout version this toolchain writes — the newest it reads.
    const VERSION: u32;
    /// The oldest layout version this toolchain still reads.
    const MIN_VERSION: u32;

    /// The document's `schema_version` field.
    fn schema_version(&self) -> u32;

    /// Resets every run-specific field — the list of what is volatile in
    /// this document; everything it leaves alone is deterministic.
    fn strip_volatile(&mut self);

    /// Invariants a document must hold beyond its serde shape (checked
    /// after the version window by [`Document::validate`]).
    ///
    /// # Errors
    /// A message naming the violation.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Serializes the document as pretty-printed JSON.
    #[must_use]
    fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("documents always serialize")
    }

    /// Parses and [validates](Document::validate) a document.
    ///
    /// # Errors
    /// Returns [`DocError`] on malformed JSON, a `schema_version` outside
    /// the readable window, or a failed [`Document::check`].
    fn from_json(json: &str) -> Result<Self, DocError> {
        let doc: Self = serde_json::from_str(json).map_err(|e| DocError::Parse {
            kind: Self::KIND,
            message: e.to_string(),
        })?;
        doc.validate()?;
        Ok(doc)
    }

    /// Checks an already-deserialized document: version window, then
    /// [`Document::check`].
    ///
    /// # Errors
    /// Returns [`DocError`] naming the document's kind.
    fn validate(&self) -> Result<(), DocError> {
        let found = self.schema_version();
        if !(Self::MIN_VERSION..=Self::VERSION).contains(&found) {
            return Err(DocError::SchemaVersion {
                kind: Self::KIND,
                found,
                min: Self::MIN_VERSION,
                max: Self::VERSION,
            });
        }
        self.check().map_err(|message| DocError::Parse {
            kind: Self::KIND,
            message,
        })
    }

    /// A copy with every volatile field stripped: two runs of the same
    /// inputs serialize it to byte-identical JSON.
    #[must_use]
    fn comparable(&self) -> Self {
        let mut doc = self.clone();
        doc.strip_volatile();
        doc
    }
}

/// Why a document was rejected. Both variants name the document's kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// Not JSON, not the document's shape, or a broken invariant.
    Parse {
        /// [`Document::KIND`] of the rejecting type.
        kind: &'static str,
        /// What was wrong.
        message: String,
    },
    /// The `schema_version` is outside `min..=max`.
    SchemaVersion {
        /// [`Document::KIND`] of the rejecting type.
        kind: &'static str,
        /// Version found in the document.
        found: u32,
        /// Oldest readable version.
        min: u32,
        /// Newest readable version (the one this toolchain writes).
        max: u32,
    },
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::Parse { kind, message } => write!(f, "invalid {kind}: {message}"),
            DocError::SchemaVersion {
                kind,
                found,
                min,
                max,
            } => write!(
                f,
                "{kind} schema_version {found} is outside the supported range {min}..={max}"
            ),
        }
    }
}

impl std::error::Error for DocError {}

/// Wall-clock section of a run (a sweep, an exploration, a simulation).
/// Volatile: every document carrying one resets it in
/// [`Document::strip_volatile`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTiming {
    /// Total wall-clock time in milliseconds.
    pub total_ms: f64,
    /// Worker threads used.
    pub threads: usize,
}
