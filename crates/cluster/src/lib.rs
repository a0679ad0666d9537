//! # csar-cluster — the live, in-process CSAR deployment
//!
//! Runs the `csar-core` engines as a real concurrent system: one server
//! worker thread per CPU (at most one per I/O server, each hosting its
//! servers' engines) plus one for the metadata manager, connected by
//! [`Mailbox`]es, a `Mutex<VecDeque>` plus a `Condvar` each (standing in
//! for the TCP/Myrinet transport of the paper's testbeds). Clients get a
//! blocking, PVFS-library-style API:
//!
//! ```
//! use csar_cluster::Cluster;
//! use csar_core::proto::Scheme;
//!
//! let cluster = Cluster::spawn(4, Default::default());
//! let client = cluster.client();
//! let file = client.create("checkpoint", Scheme::Hybrid, 64 * 1024).unwrap();
//! file.write_at(0, &vec![7u8; 1 << 20]).unwrap();
//! assert_eq!(file.read_at(0, 1 << 20).unwrap()[0], 7);
//! cluster.shutdown();
//! ```
//!
//! The cluster supports fail-stop **failure injection** (reads fall back
//! to degraded mode transparently), **rebuild** of a replacement server
//! from redundancy, per-file **storage reports** (paper Table 2), and
//! the §6.7 **overflow compaction** pass.

mod client;
mod deploy;
mod maintain;
mod node;
mod transport;

pub use client::{ClusterClient, File, OpStats, TransportConfig};
pub use deploy::Cluster;
pub use maintain::{CleanerHandle, ScrubReport};
pub use transport::Mailbox;
