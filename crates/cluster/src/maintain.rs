//! Maintenance: the §6.7 background overflow cleaner and the
//! parity/mirror scrubber, run by the live cluster.
//!
//! The paper proposes recovering overflow storage with "a simple process
//! that reads files in their entirety and writes them in a large chunk
//! … this process could be run in the background and activated when the
//! system is under a low load. With such a mechanism, the long-term
//! storage of the Hybrid scheme would be the same as the RAID5 scheme."
//! [`Cluster::start_cleaner`] is that process: a daemon thread that
//! periodically runs a cleaning pass.
//!
//! The pass and the scrub themselves are the csar-core tasks
//! [`csar_core::client::maintain::Clean`] and
//! [`csar_core::client::maintain::Scrub`], run through the client's
//! completion engine like any operation. [`Cluster::scrub`] checks each
//! parity group against the in-place data and every RAID1 mirror block
//! against its primary — the invariant all recovery paths rely on — over
//! the wire, so it needs no quiescent cluster, only no concurrent
//! writers to the files it checks.

use crate::deploy::Cluster;
use csar_core::client::maintain::{Clean, Scrub};
use csar_core::CsarError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use csar_core::client::maintain::ScrubReport;

/// Handle to a running background cleaner. Stops (and joins) on drop or
/// via [`CleanerHandle::stop`].
pub struct CleanerHandle {
    /// Set to stop the daemon; the passes it completed.
    state: Arc<(AtomicBool, AtomicU64)>,
    thread: Option<JoinHandle<()>>,
}

impl CleanerHandle {
    /// Completed cleaning passes.
    pub fn passes(&self) -> u64 {
        self.state.1.load(Ordering::SeqCst)
    }

    /// Stop the daemon and wait for it to exit.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for CleanerHandle {
    fn drop(&mut self) {
        self.state.0.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Cluster {
    /// Start the §6.7 background cleaner: a cleaning pass every
    /// `interval` until the returned handle is dropped.
    ///
    /// Like the paper's proposal the cleaner is meant for low-load
    /// periods, but it is safe against concurrent writers: each group is
    /// rewritten under its §5.1 parity lock, and the overflow entries it
    /// migrated are dropped only by a generation-guarded invalidation,
    /// so a partial write that lands mid-rewrite keeps its newer overflow
    /// entry and the group's reclaim waits for the next pass.
    pub fn start_cleaner(&self, interval: Duration) -> CleanerHandle {
        let state = Arc::new((AtomicBool::new(false), AtomicU64::new(0)));
        let (daemon, cluster) = (Arc::clone(&state), self.clone_ref());
        let thread = std::thread::Builder::new()
            .name("csar-cleaner".into())
            .spawn(move || {
                while !daemon.0.load(Ordering::SeqCst) {
                    let _ = cluster.clean_pass();
                    daemon.1.fetch_add(1, Ordering::SeqCst);
                    // Dropping the handle unparks this wait.
                    std::thread::park_timeout(interval);
                }
            })
            .expect("spawn cleaner");
        CleanerHandle { state, thread: Some(thread) }
    }

    /// One synchronous cleaning pass over every Hybrid file, the
    /// csar-core [`Clean`] task (which documents its steps). Returns the
    /// overflow bytes reclaimed.
    pub fn clean_pass(&self) -> Result<u64, CsarError> {
        self.clean_pass_hooked(&mut |_| {})
    }

    /// Test seam: `clean_pass` with a callback invoked after each
    /// group's latest contents are read but before they are rewritten —
    /// the exact window a concurrent partial write must survive.
    #[doc(hidden)]
    pub fn clean_pass_hooked(&self, mid_rewrite: &mut dyn FnMut(u64)) -> Result<u64, CsarError> {
        let client = self.client();
        let files = client.list_files()?;
        Ok(client.handle().run_task(Clean::new(files, mid_rewrite))?.reclaimed)
    }

    /// Verify every parity group and mirror block of every file against
    /// the in-place data (the csar-core [`Scrub`] task), around a failed
    /// server. Phantom contents cannot be verified and are skipped. No
    /// one may be writing the files meanwhile: the scrub takes no lock.
    pub fn scrub(&self) -> Result<ScrubReport, CsarError> {
        let client = self.client();
        let scrub = Scrub::new(client.list_files()?, self.inner.failed());
        Ok(client.handle().run_task(scrub)?.report)
    }
}
