//! Hierarchy-correspondence metrics between the views of one design.
//!
//! §2.1: "Our hierarchy may be significantly different between different
//! views of the design (RTL, schematic, and layout). ... This causes
//! irregular overlapping of schematic and RTL boundaries as shown in
//! Figure 1."
//!
//! The views live side by side with *no* structural coupling —
//! correspondence is measured, not mandated. [`partition_overlap`]
//! quantifies Fig 1: given two groupings of the same elements (e.g. nets
//! grouped by RTL block vs by schematic cell), it reports how irregularly
//! the boundaries overlap.

use std::collections::HashMap;

/// Overlap statistics between two partitions of the same element set.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapStats {
    /// Number of groups in partition A (e.g. RTL blocks).
    pub groups_a: usize,
    /// Number of groups in partition B (e.g. schematic cells).
    pub groups_b: usize,
    /// Mean best-match Jaccard similarity over A's groups: 1.0 means the
    /// hierarchies coincide, low values mean Fig 1's irregular overlap.
    pub mean_best_jaccard: f64,
    /// Elements whose A-group's best-matching B-group is not their own
    /// B-group — "boundary crossers".
    pub crossing_elements: usize,
    /// Total elements.
    pub total_elements: usize,
}

impl OverlapStats {
    /// Fraction of elements that cross boundaries.
    pub fn crossing_fraction(&self) -> f64 {
        if self.total_elements == 0 {
            0.0
        } else {
            self.crossing_elements as f64 / self.total_elements as f64
        }
    }
}

/// Measures the overlap of two groupings of the same elements. Element
/// `i` belongs to group `a[i]` in partition A and `b[i]` in partition B.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn partition_overlap(a: &[u32], b: &[u32]) -> OverlapStats {
    assert_eq!(a.len(), b.len(), "partitions must cover the same elements");
    let n = a.len();
    // Group memberships.
    let mut groups_a: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut groups_b: HashMap<u32, Vec<usize>> = HashMap::new();
    for i in 0..n {
        groups_a.entry(a[i]).or_default().push(i);
        groups_b.entry(b[i]).or_default().push(i);
    }
    // For each A group, find the best-Jaccard B group.
    let mut sum_jaccard = 0.0;
    let mut best_b_of_a: HashMap<u32, u32> = HashMap::new();
    for (&ga, members_a) in &groups_a {
        let mut best = 0.0f64;
        let mut best_gb = u32::MAX;
        for (&gb, members_b) in &groups_b {
            let inter = members_a.iter().filter(|i| b[**i] == gb).count();
            let union = members_a.len() + members_b.len() - inter;
            let j = if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            if j > best {
                best = j;
                best_gb = gb;
            }
        }
        sum_jaccard += best;
        best_b_of_a.insert(ga, best_gb);
    }
    let crossing_elements = (0..n)
        .filter(|&i| best_b_of_a.get(&a[i]).copied() != Some(b[i]))
        .count();
    OverlapStats {
        groups_a: groups_a.len(),
        groups_b: groups_b.len(),
        mean_best_jaccard: if groups_a.is_empty() {
            1.0
        } else {
            sum_jaccard / groups_a.len() as f64
        },
        crossing_elements,
        total_elements: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_are_perfect() {
        let a = [0u32, 0, 1, 1, 2, 2];
        let s = partition_overlap(&a, &a);
        assert_eq!(s.mean_best_jaccard, 1.0);
        assert_eq!(s.crossing_elements, 0);
    }

    #[test]
    fn relabeled_partitions_are_still_perfect() {
        let a = [0u32, 0, 1, 1, 2, 2];
        let b = [7u32, 7, 3, 3, 9, 9];
        let s = partition_overlap(&a, &b);
        assert_eq!(s.mean_best_jaccard, 1.0);
        assert_eq!(s.crossing_elements, 0);
    }

    #[test]
    fn shifted_boundary_counts_crossers() {
        // A: [0 0 0 | 1 1 1]   B: [0 0 | 1 1 1 1]
        let a = [0u32, 0, 0, 1, 1, 1];
        let b = [0u32, 0, 1, 1, 1, 1];
        let s = partition_overlap(&a, &b);
        assert!(s.mean_best_jaccard < 1.0);
        // Element 2: A-group 0 best-matches B-group 0 (or 1), one of the
        // six elements crosses.
        assert_eq!(s.crossing_elements, 1);
        assert!((s.crossing_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_partitions_overlap_poorly() {
        // Fig 1's irregular overlap, in the extreme.
        let a = [0u32, 0, 0, 0, 1, 1, 1, 1];
        let b = [0u32, 1, 0, 1, 0, 1, 0, 1];
        let s = partition_overlap(&a, &b);
        assert!(s.mean_best_jaccard < 0.5);
        assert!(s.crossing_elements >= 2);
    }

    #[test]
    #[should_panic(expected = "same elements")]
    fn mismatched_lengths_panic() {
        let _ = partition_overlap(&[0], &[0, 1]);
    }
}
