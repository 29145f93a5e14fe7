//! Fault-tolerant distributed sketch plane for sketch-based change
//! detection.
//!
//! The paper's deployment picture (§1, §5) is a *set* of vantage points —
//! routers, monitors — each seeing a slice of the traffic, with change
//! detection wanted over the whole. Sketch linearity makes that cheap:
//! per-node k-ary sketches over disjoint key shards COMBINE by cell-wise
//! addition into exactly the sketch of the union stream. This crate is
//! the transport and fault-tolerance layer around that observation:
//!
//! * [`IngestNode`] — one vantage point: local `ShardedIngest` ingest
//!   (folded on the node's own thread at `shards: 1`), one frame per
//!   interval over TCP carrying its sketches in the exact packed form
//!   (`SCDSKP01`: the non-zero cells; tens of kilobytes where the dense
//!   `SCDSKT02` tables are megabytes, which remain the fallback for
//!   non-integer cells), spool-then-send reliability with jittered
//!   reconnect backoff, no wait for an ack inside an interval close, a
//!   resend only on proof of loss, and ring-parity material so a *lost*
//!   node's data remains reconstructible.
//! * [`Aggregator`] — the combine-and-detect point: per-node liveness
//!   deadlines, a straggler grace window, `(node, interval)` dedup, and a
//!   three-step degradation ladder (wait → recover from parity → emit an
//!   explicitly flagged partial — never silently wrong). It keeps each
//!   node's blobs as they arrived, checked at receipt, COMBINEs straight
//!   from their cells, and decodes only to recover.
//!   Its one global detector is the same `scd_core::DetectStage`, under
//!   the same panic-absorbing, checkpoint-resuming supervision, that every
//!   local runtime closes an interval through — so detection restarts
//!   mid-stream.
//! * [`Frame`] — the `SCDN` messages, carried in the workspace's shared
//!   frame envelope (`scd_hash::envelope`).
//! * [`NetMetrics`] — the plane's `scd-obs` metric inventory (lag,
//!   retries, reconnects, recovered/partial intervals).
//!
//! Everything is `std`-only, like the rest of the workspace.
//!
//! # Exactness
//!
//! Sketch cells here are sums of integer byte counts, each far below
//! 2⁵³, so `f64` addition and subtraction on them are *exact*. That
//! turns usually-approximate statements into bit-identities,
//! which the integration tests assert literally:
//!
//! * COMBINE of per-node sketches equals the single-box sketch of the
//!   concatenated trace, regardless of addition order.
//! * Parity recovery `D_m = P_{m+1} − D_{m+1}` returns the lost sketch
//!   bit for bit (`fl(fl(a+b)−b) = a` for exact integers).
//! * The packed blob a node ships decodes to the node's table bit for
//!   bit (an integer of magnitude ≤ 2⁵³ is one `f64` and back); a table
//!   holding anything else ships dense.
//! * Therefore a distributed run — healthy, or with one lost node
//!   recovered from parity — produces `IntervalReport`s bit-identical
//!   to the single-box run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod frame;
pub mod metrics;
pub mod sender;
pub mod spool;

pub use aggregator::{AggregateSummary, Aggregator, AggregatorConfig, EmittedInterval};
pub use frame::{Frame, FrameError, SCDN, VERSION};
pub use metrics::{AggregatorMetrics, NetMetrics, SenderMetrics};
pub use sender::{IngestNode, NodeConfig, NodeSummary};
pub use spool::SpoolDir;

/// Errors of the distributed plane.
#[derive(Debug)]
pub enum NetError {
    /// Transport or spool filesystem failure.
    Io(std::io::Error),
    /// A frame failed to encode or decode.
    Frame(FrameError),
    /// An embedded sketch blob failed to decode.
    Wire(scd_sketch::WireError),
    /// A sketch operation failed (family mismatch — configuration skew).
    Sketch(scd_sketch::SketchError),
    /// The local ingest engine failed.
    Engine(scd_core::engine::EngineError),
    /// Invalid configuration.
    Config(String),
    /// The reconnect budget ran out without reaching the aggregator.
    ConnectFailed {
        /// Connect attempts made.
        attempts: u32,
    },
    /// The aggregator's detector exhausted its restart budget.
    DetectorGaveUp {
        /// Panics absorbed before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Wire(e) => write!(f, "sketch blob: {e}"),
            NetError::Sketch(e) => write!(f, "sketch: {e}"),
            NetError::Engine(e) => write!(f, "ingest engine: {e}"),
            NetError::Config(msg) => write!(f, "config: {msg}"),
            NetError::ConnectFailed { attempts } => {
                write!(f, "could not reach the aggregator after {attempts} attempts")
            }
            NetError::DetectorGaveUp { attempts } => {
                write!(f, "detector gave up after absorbing {attempts} panics")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<scd_sketch::WireError> for NetError {
    fn from(e: scd_sketch::WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<scd_sketch::SketchError> for NetError {
    fn from(e: scd_sketch::SketchError) -> Self {
        NetError::Sketch(e)
    }
}

impl From<scd_core::engine::EngineError> for NetError {
    fn from(e: scd_core::engine::EngineError) -> Self {
        match e {
            scd_core::engine::EngineError::DetectorGaveUp { attempts } => {
                NetError::DetectorGaveUp { attempts }
            }
            e => NetError::Engine(e),
        }
    }
}
