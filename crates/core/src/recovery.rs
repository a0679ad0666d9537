//! Rebuild planning for a failed I/O server.
//!
//! The paper's long-term objective is tolerance of single disk failures;
//! CSAR's redundancy makes every lost local file reconstructible:
//!
//! * lost **data** blocks — from the mirror (RAID1) or by XOR of the
//!   parity group's survivors (RAID5/Hybrid);
//! * lost **mirror** blocks — re-copied from the home server (previous
//!   server's data);
//! * lost **parity** blocks — recomputed from the group's data blocks;
//! * lost **overflow** logs (Hybrid) — replayed from the next server's
//!   overflow-mirror table, and the lost overflow-*mirror* log from the
//!   previous server's primary table.
//!
//! [`RebuildPlan`] enumerates the work for one file; the
//! [`crate::client::maintain::Rebuild`] task sends it as up to three
//! waves of protocol requests per file, on any executor.

use crate::manager::FileMeta;
use crate::proto::{Scheme, ServerId};

/// What must be restored onto a replacement for server `failed`, for one
/// file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebuildPlan {
    /// Data blocks (global indices) homed on the failed server.
    pub data_blocks: Vec<u64>,
    /// Blocks whose *mirror* copies lived on the failed server (RAID1),
    /// i.e. blocks homed on the previous server.
    pub mirror_blocks: Vec<u64>,
    /// Parity groups whose parity block lived on the failed server.
    pub parity_groups: Vec<u64>,
    /// Whether the failed server's overflow log must be replayed from the
    /// next server's mirror (Hybrid).
    pub overflow_primary: bool,
    /// Whether the failed server's overflow-mirror log must be replayed
    /// from the previous server's primary log (Hybrid).
    pub overflow_mirror: bool,
}

impl RebuildPlan {
    /// Plan the rebuild of `failed` for one file.
    pub fn for_file(meta: &FileMeta, failed: ServerId) -> Self {
        let ly = meta.layout;
        let mut plan = RebuildPlan::default();
        if meta.size == 0 {
            return plan;
        }
        let last_block = ly.block_of(meta.size - 1);
        for b in 0..=last_block {
            if ly.home_server(b) == failed {
                plan.data_blocks.push(b);
            }
            if meta.scheme == Scheme::Raid1 && ly.mirror_server(b) == failed {
                plan.mirror_blocks.push(b);
            }
        }
        if meta.scheme.uses_parity() {
            let last_group = ly.group_of_block(last_block);
            for g in 0..=last_group {
                if ly.parity_server(g) == failed {
                    plan.parity_groups.push(g);
                }
            }
        }
        if meta.scheme == Scheme::Hybrid {
            plan.overflow_primary = true;
            plan.overflow_mirror = true;
        }
        plan
    }

    /// True when nothing needs restoring.
    pub fn is_empty(&self) -> bool {
        self.data_blocks.is_empty()
            && self.mirror_blocks.is_empty()
            && self.parity_groups.is_empty()
            && !self.overflow_primary
            && !self.overflow_mirror
    }
}

/// Check that a parity group is internally consistent: the parity block
/// equals the XOR of the group's data blocks. The benchmark's live check
/// uses it.
pub fn parity_consistent(data_blocks: &[&[u8]], parity: &[u8]) -> bool {
    let computed = csar_parity::parity_of(data_blocks);
    computed == parity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::proto::Scheme;

    fn meta(scheme: Scheme, servers: u32, unit: u64, size: u64) -> FileMeta {
        FileMeta { fh: 1, name: "f".into(), scheme, layout: Layout::new(servers, unit), size }
    }

    #[test]
    fn empty_file_needs_nothing_for_raid0() {
        let plan = RebuildPlan::for_file(&meta(Scheme::Raid0, 4, 8, 0), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn raid1_plan_covers_data_and_mirrors() {
        // 3 servers, unit 8, size 48 → blocks 0..6.
        let plan = RebuildPlan::for_file(&meta(Scheme::Raid1, 3, 8, 48), 1);
        // Blocks homed on 1: 1, 4. Mirrors on 1 = blocks homed on 0: 0, 3.
        assert_eq!(plan.data_blocks, vec![1, 4]);
        assert_eq!(plan.mirror_blocks, vec![0, 3]);
        assert!(plan.parity_groups.is_empty());
        assert!(!plan.overflow_primary);
    }

    #[test]
    fn hybrid_plan_includes_parity_and_overflow() {
        // 3 servers, unit 8: groups of 2 blocks; size 64 → blocks 0..8,
        // groups 0..4. Parity servers: g0→2, g1→1, g2→0, g3→2.
        let plan = RebuildPlan::for_file(&meta(Scheme::Hybrid, 3, 8, 64), 2);
        assert_eq!(plan.data_blocks, vec![2, 5]);
        assert_eq!(plan.parity_groups, vec![0, 3]);
        assert!(plan.overflow_primary);
        assert!(plan.overflow_mirror);
        assert!(plan.mirror_blocks.is_empty(), "hybrid has no RAID1 mirror stream");
    }

    #[test]
    fn parity_consistency_check() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let p = csar_parity::parity_of(&[&a, &b]);
        assert!(parity_consistent(&[&a, &b], &p));
        assert!(!parity_consistent(&[&a, &b], &[0, 0, 0]));
    }
}
