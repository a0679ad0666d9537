//! Per-server local storage substrate for CSAR.
//!
//! In PVFS every I/O server stores its portion of each parallel file as a
//! plain file on its local file system. CSAR adds more local files per
//! parallel file: a redundancy file (mirror blocks or parity blocks) and,
//! under the Hybrid scheme, overflow-region files. This crate provides the
//! local-storage machinery those servers are built from:
//!
//! * [`Payload`] — write/read payloads that either carry real bytes
//!   ([`Payload::Data`]) or only a length ([`Payload::Phantom`]). Phantom
//!   payloads let the simulator run paper-scale experiments (gigabytes of
//!   traffic) while keeping exact offset/size/storage accounting, without
//!   materialising the data.
//! * [`SparseFile`] — an extent-mapped file image: the local "UNIX file" a
//!   PVFS I/O daemon would keep, with logical size, covered-byte
//!   accounting and hole-zero-filling reads.
//! * [`LocalStore`] — the set of streams (data / mirror / parity /
//!   overflow / overflow-mirror) a CSAR I/O server keeps per parallel
//!   file, with storage-usage reporting (paper Table 2).
//! * [`CacheModel`] — an LRU block-cache model of the server's OS page
//!   cache, used to classify reads/writes as cache hits or disk accesses
//!   (drives the §5.2 and §6 cache effects in the simulator).
//! * [`Bytes`] and [`Json`] — std-only replacements for the `bytes` and
//!   `serde_json` crates, keeping the workspace hermetic.

pub mod bytes;
pub mod json;
pub mod rng;

mod accounting;
mod cache;
mod local;
mod payload;
mod sparse;

pub use accounting::{fmt_mb, StorageReport, StreamUsage};
pub use bytes::Bytes;
pub use cache::{CacheModel, FileKey};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use cache::RangeAccess;
pub use local::{LocalStore, StoreImage, StreamKind};
pub use payload::Payload;
pub use rng::SplitMix64;
pub use sparse::SparseFile;
