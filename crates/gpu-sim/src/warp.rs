//! Warp-level collective primitives: ballot, popcount, and majority voting.
//!
//! HPAC-Offload's hierarchical decision-making is built on these intrinsics
//! (§3.3): "For warp-level decision-making, the ballot intrinsic identifies
//! threads that will approximate; popcount counts these threads." Warps here
//! support up to 64 lanes (AMD wavefronts), so ballots are `u64` masks.

/// Build a ballot mask from per-lane predicate votes.
///
/// `votes[i]` is lane `i`'s predicate; lanes beyond `votes.len()` are
/// inactive and contribute 0, exactly like inactive lanes in a hardware
/// ballot.
pub fn lane_mask_ballot(votes: &[bool]) -> u64 {
    assert!(votes.len() <= 64, "warp wider than 64 lanes");
    votes
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, &v)| if v { m | (1u64 << i) } else { m })
}

/// Population count of a ballot mask (the `__popc` intrinsic).
pub fn popcount(mask: u64) -> u32 {
    mask.count_ones()
}

/// Result of a warp-wide collective vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpVote {
    /// Ballot mask of lanes voting "yes".
    pub mask: u64,
    /// Number of active lanes that participated.
    pub active: u32,
    /// Number of "yes" votes.
    pub yes: u32,
}

impl WarpVote {
    /// Collect a vote over the active lanes' predicates.
    pub fn collect(votes: &[bool]) -> Self {
        let mask = lane_mask_ballot(votes);
        WarpVote {
            mask,
            active: votes.len() as u32,
            yes: popcount(mask),
        }
    }

    /// Majority-rules outcome (strict majority, as in the paper's
    /// "majority-rules" scheme: the group approximates if *most* of its
    /// threads meet the activation criteria).
    pub fn majority(&self) -> bool {
        2 * self.yes > self.active
    }

    /// Any lane voted yes.
    pub fn any(&self) -> bool {
        self.yes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_sets_expected_bits() {
        let m = lane_mask_ballot(&[true, false, true, true]);
        assert_eq!(m, 0b1101);
    }

    #[test]
    fn ballot_empty_is_zero() {
        assert_eq!(lane_mask_ballot(&[]), 0);
    }

    #[test]
    fn ballot_supports_64_lanes() {
        let votes = vec![true; 64];
        assert_eq!(lane_mask_ballot(&votes), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "warp wider than 64")]
    fn ballot_rejects_wider_warps() {
        let votes = vec![true; 65];
        lane_mask_ballot(&votes);
    }

    #[test]
    fn popcount_counts() {
        assert_eq!(popcount(0), 0);
        assert_eq!(popcount(0b1011), 3);
        assert_eq!(popcount(u64::MAX), 64);
    }

    #[test]
    fn majority_is_strict() {
        // 16 of 32 is NOT a majority
        let half = WarpVote {
            mask: 0,
            active: 32,
            yes: 16,
        };
        assert!(!half.majority());
        let over = WarpVote {
            mask: 0,
            active: 32,
            yes: 17,
        };
        assert!(over.majority());
    }

    #[test]
    fn collect_vote_counts() {
        let v = WarpVote::collect(&[true, true, false, true]);
        assert_eq!(v.active, 4);
        assert_eq!(v.yes, 3);
        assert!(v.majority());
        assert!(v.any());
    }
}
