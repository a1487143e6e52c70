//! The unified error type of the CIM-MLC stack.
//!
//! Every fallible entry point of the facade — architecture construction
//! and loading, graph loading, compilation, bench sweeps and document
//! parsing — speaks its own crate-level error. [`Error`] wraps them all
//! with `From` conversions and [`std::error::Error::source`] chains, so a
//! binary can `?` across subsystem boundaries and print one coherent
//! chain instead of stringifying each layer ad hoc:
//!
//! ```
//! use cim_mlc::prelude::*;
//!
//! fn load_and_compile(arch_json: &str) -> Result<Compiled, Error> {
//!     let arch = cim_mlc::arch::from_json(arch_json)?; // ArchError -> Error
//!     let model = zoo::lenet5();
//!     Ok(Compiler::new().compile(&model, &arch)?) // CompileError -> Error
//! }
//!
//! let err = load_and_compile("{not json").unwrap_err();
//! assert!(std::error::Error::source(&err).is_some());
//! ```

use std::error::Error as StdError;
use std::fmt;

use cim_arch::ArchError;
use cim_bench::{DocError, SweepError};
use cim_compiler::CompileError;
use cim_dse::DseError;
use cim_graph::GraphError;
use cim_traffic::{TraceError, TrafficError};

/// Any error the CIM-MLC stack can produce, with the subsystem error as
/// its [`source`](std::error::Error::source).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An architecture description was invalid (construction or loading).
    Arch(ArchError),
    /// A computation graph was invalid (construction or loading).
    Graph(GraphError),
    /// Compilation failed.
    Compile(CompileError),
    /// A bench sweep spec was invalid.
    Sweep(SweepError),
    /// A report or trace document was rejected (the source names which).
    Doc(DocError),
    /// A design-space exploration could not start.
    Dse(DseError),
    /// A trace spec was rejected.
    Trace(TraceError),
    /// A traffic simulation could not run.
    Traffic(TrafficError),
    /// An API request failed (see [`crate::api::ApiError::kind`]).
    Api(crate::api::ApiError),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl Error {
    /// Wraps an I/O error with the path it occurred on.
    #[must_use]
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            path: path.into(),
            source,
        }
    }

    /// Renders the whole `source` chain as `error: cause: cause…` — the
    /// one-line form binaries print to stderr.
    #[must_use]
    pub fn render_chain(&self) -> String {
        let mut out = self.to_string();
        let mut source = self.source();
        while let Some(err) = source {
            out.push_str(": ");
            out.push_str(&err.to_string());
            source = err.source();
        }
        out
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Arch(_) => write!(f, "invalid architecture"),
            Error::Graph(_) => write!(f, "invalid model graph"),
            Error::Compile(_) => write!(f, "compilation failed"),
            Error::Sweep(_) => write!(f, "invalid sweep spec"),
            Error::Doc(_) => write!(f, "document rejected"),
            Error::Dse(_) => write!(f, "invalid exploration"),
            Error::Trace(_) => write!(f, "invalid trace"),
            Error::Traffic(_) => write!(f, "traffic simulation failed"),
            Error::Api(_) => write!(f, "request failed"),
            Error::Io { path, .. } => write!(f, "cannot access `{path}`"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Arch(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Sweep(e) => Some(e),
            Error::Doc(e) => Some(e),
            Error::Dse(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Traffic(e) => Some(e),
            Error::Api(e) => Some(e),
            Error::Io { source, .. } => Some(source),
        }
    }
}

impl From<ArchError> for Error {
    fn from(e: ArchError) -> Self {
        Error::Arch(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<SweepError> for Error {
    fn from(e: SweepError) -> Self {
        Error::Sweep(e)
    }
}

impl From<DocError> for Error {
    fn from(e: DocError) -> Self {
        Error::Doc(e)
    }
}

impl From<DseError> for Error {
    fn from(e: DseError) -> Self {
        Error::Dse(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<TrafficError> for Error {
    fn from(e: TrafficError) -> Self {
        Error::Traffic(e)
    }
}

impl From<crate::api::ApiError> for Error {
    fn from(e: crate::api::ApiError) -> Self {
        Error::Api(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_to_the_subsystem_error() {
        let err: Error = CompileError::NothingToMap {
            model: "empty".into(),
        }
        .into();
        let source = err.source().expect("wrapped errors have a source");
        assert!(source.to_string().contains("empty"));
        let chain = err.render_chain();
        assert!(
            chain.contains("compilation failed") && chain.contains("empty"),
            "{chain}"
        );
    }

    #[test]
    fn io_errors_name_the_path() {
        let err = Error::io(
            "missing.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
        );
        assert!(err.to_string().contains("missing.json"));
        assert!(err.render_chain().contains("no such file"));
    }

    #[test]
    fn every_subsystem_error_converts() {
        let _: Error = ArchError::inconsistent("x").into();
        let _: Error = GraphError::Malformed {
            message: "x".into(),
        }
        .into();
        let _: Error = SweepError::EmptyAxis("models").into();
        let _: Error = DocError::Parse {
            kind: "bench report",
            message: "x".into(),
        }
        .into();
        let _: Error = DseError::ZeroBudget.into();
        let _: Error = TraceError::InvalidSpec("x".into()).into();
        let _: Error = TrafficError::UnplacedModel("x".into()).into();
        let _: Error = crate::api::ApiError::argument("x").into();
    }
}
