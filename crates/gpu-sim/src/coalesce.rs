//! Memory-coalescing model: how a warp's per-lane global accesses combine
//! into 128-byte memory transactions.
//!
//! The paper's herded perforation and warp-shared iACT designs are motivated
//! by keeping warp accesses aligned so that "memory transactions are aligned
//! and less fragmented" (§3.1.5). This module supplies the transaction count
//! the cost model charges for a warp-wide access.

/// Spatial pattern of one warp-wide global-memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// All active lanes access consecutive elements of `elem_bytes` each
    /// (perfectly coalesced, the `output[i] = f(input[i])` pattern).
    Coalesced,
    /// Lanes access elements separated by a fixed stride of `stride_bytes`
    /// (e.g. column-major multi-dimensional inputs, Fig 5's `input[i*5:5:N]`
    /// strided array section).
    Strided { stride_bytes: u32 },
    /// Every lane hits an unrelated cache segment (worst case).
    Scattered,
    /// All lanes read the same address (broadcast, one transaction).
    Broadcast,
}

/// DRAM transaction segment size in bytes (NVIDIA/AMD both coalesce into
/// 128-byte segments at the L1/L2 boundary).
pub const SEGMENT_BYTES: u32 = 128;

/// Number of 128-byte transactions needed for `active_lanes` lanes each
/// accessing `elem_bytes` bytes in the given pattern.
///
/// Returns at least 1 when any lane is active.
pub fn transactions(active_lanes: u32, elem_bytes: u32, pattern: AccessPattern) -> u32 {
    if active_lanes == 0 || elem_bytes == 0 {
        return 0;
    }
    match pattern {
        AccessPattern::Coalesced => (active_lanes * elem_bytes).div_ceil(SEGMENT_BYTES),
        AccessPattern::Strided { stride_bytes } => {
            if stride_bytes <= elem_bytes {
                // Overlapping or dense stride degenerates to coalesced.
                (active_lanes * elem_bytes).div_ceil(SEGMENT_BYTES)
            } else if stride_bytes >= SEGMENT_BYTES {
                // Each lane touches its own segment(s).
                active_lanes * elem_bytes.div_ceil(SEGMENT_BYTES).max(1)
            } else {
                // Lanes share segments at a density of stride/segment.
                let span = active_lanes * stride_bytes;
                span.div_ceil(SEGMENT_BYTES)
            }
        }
        AccessPattern::Scattered => active_lanes * elem_bytes.div_ceil(SEGMENT_BYTES).max(1),
        AccessPattern::Broadcast => elem_bytes.div_ceil(SEGMENT_BYTES).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_warp_f32_coalesced_is_one_txn() {
        assert_eq!(transactions(32, 4, AccessPattern::Coalesced), 1);
    }

    #[test]
    fn full_warp_f64_coalesced_is_two_txn() {
        assert_eq!(transactions(32, 8, AccessPattern::Coalesced), 2);
    }

    #[test]
    fn amd_wavefront_f64_coalesced_is_four_txn() {
        assert_eq!(transactions(64, 8, AccessPattern::Coalesced), 4);
    }

    #[test]
    fn scattered_pays_per_lane() {
        assert_eq!(transactions(32, 4, AccessPattern::Scattered), 32);
        assert_eq!(transactions(7, 8, AccessPattern::Scattered), 7);
    }

    #[test]
    fn broadcast_is_single_txn() {
        assert_eq!(transactions(32, 8, AccessPattern::Broadcast), 1);
        assert_eq!(transactions(64, 4, AccessPattern::Broadcast), 1);
    }

    #[test]
    fn wide_stride_is_per_lane() {
        let p = AccessPattern::Strided { stride_bytes: 256 };
        assert_eq!(transactions(32, 8, p), 32);
    }

    #[test]
    fn dense_stride_matches_coalesced() {
        let p = AccessPattern::Strided { stride_bytes: 8 };
        assert_eq!(
            transactions(32, 8, p),
            transactions(32, 8, AccessPattern::Coalesced)
        );
    }

    #[test]
    fn medium_stride_shares_segments() {
        // stride 32B: 4 lanes per 128B segment -> 32 lanes span 8 segments
        let p = AccessPattern::Strided { stride_bytes: 32 };
        assert_eq!(transactions(32, 8, p), 8);
    }

    #[test]
    fn zero_lanes_zero_txns() {
        assert_eq!(transactions(0, 8, AccessPattern::Coalesced), 0);
        assert_eq!(transactions(0, 8, AccessPattern::Scattered), 0);
    }

    #[test]
    fn partial_warp_fewer_txns_than_full() {
        let partial = transactions(4, 8, AccessPattern::Coalesced);
        let full = transactions(32, 8, AccessPattern::Coalesced);
        assert!(partial < full);
        assert_eq!(partial, 1);
    }
}
