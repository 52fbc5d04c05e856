//! The naive one-valve-at-a-time baseline the paper compares against.
//!
//! Section IV: *"consider a simple baseline method where only one valve is
//! switched open or closed each time for fault test. The total number of
//! test vectors in this case would be two times of the number of valves"*
//! — a squared blow-up relative to the proposed `N ≈ 2·√n_v`.

use fpva_grid::Fpva;

/// Number of test vectors the naive method needs: `2 · n_v`.
pub fn baseline_vector_count(fpva: &Fpva) -> usize {
    2 * fpva.valve_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    #[test]
    fn baseline_count_is_two_nv() {
        let f = layouts::table1_5x5();
        assert_eq!(baseline_vector_count(&f), 78);
    }

    #[test]
    fn baseline_is_much_larger_than_proposed() {
        use crate::hierarchy::{hierarchical_cover, HierarchyConfig};
        let f = layouts::table1_10x10();
        let proposed = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert!(proposed.paths.len() * 10 < baseline_vector_count(&f));
    }
}
