//! The naive one-valve-at-a-time baseline the paper compares against.
//!
//! Section IV: *"consider a simple baseline method where only one valve is
//! switched open or closed each time for fault test. The total number of
//! test vectors in this case would be two times of the number of valves"*
//! — a squared blow-up relative to the proposed `N ≈ 2·√n_v`.
//!
//! To make the baseline simulatable (not just countable), each valve gets
//! one *open-test* vector (a dedicated flow path through that valve) and
//! one *close-test* vector (a dedicated cut-set through that valve).

use crate::connectivity::{endpoint_ports, Router};
use crate::cutset::cut_through_valve;
use crate::error::AtpgError;
use crate::path::FlowPath;
use fpva_grid::{Fpva, TestVector, ValveId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of test vectors the naive method needs: `2 · n_v`.
pub fn baseline_vector_count(fpva: &Fpva) -> usize {
    2 * fpva.valve_count()
}

/// Output of [`baseline_vectors`].
#[derive(Debug, Clone)]
pub struct BaselineSuite {
    /// One path vector + one cut vector per valve, interleaved
    /// `[open-test v0, close-test v0, open-test v1, ...]`.
    pub vectors: Vec<TestVector>,
    /// Valves for which no dedicated path or cut could be routed.
    pub skipped: Vec<ValveId>,
}

/// Builds the naive 2·n_v-vector suite; `seed` breaks ties in the
/// router's walks.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn baseline_vectors(fpva: &Fpva, seed: u64) -> Result<BaselineSuite, AtpgError> {
    if fpva.sources().next().is_none() || fpva.sinks().next().is_none() {
        return Err(AtpgError::MissingPorts);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let router = Router::new(fpva);
    let mut vectors = Vec::with_capacity(baseline_vector_count(fpva));
    let mut skipped = Vec::new();
    for (v, edge) in fpva.valves() {
        let mut ok = false;
        if let Some(cells) = router.path_through_edge(edge, &[], &|_| false, &mut rng) {
            // The router may end at any source/sink pair; resolve the
            // ports from the path endpoints.
            let (source, sink) = endpoint_ports(fpva, &cells).expect("routes end at port cells");
            let path =
                FlowPath::new(fpva, source, sink, cells).expect("routes are valid flow paths");
            vectors.push(path.to_vector(fpva));
            ok = true;
        }
        if let Some(cut) = cut_through_valve(fpva, v) {
            vectors.push(cut.to_vector(fpva));
        } else {
            ok = false;
        }
        if !ok {
            skipped.push(v);
        }
    }
    Ok(BaselineSuite { vectors, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;
    use fpva_sim::{audit, TestSuite};

    #[test]
    fn baseline_count_is_two_nv() {
        let f = layouts::table1_5x5();
        assert_eq!(baseline_vector_count(&f), 78);
    }

    #[test]
    fn baseline_suite_covers_all_single_faults_on_5x5() {
        let f = layouts::table1_5x5();
        let base = baseline_vectors(&f, 5).unwrap();
        assert!(base.skipped.is_empty(), "skipped: {:?}", base.skipped);
        assert_eq!(base.vectors.len(), 2 * f.valve_count());
        let suite = TestSuite::new(&f, base.vectors);
        let report = audit::single_fault_coverage(&f, &suite);
        assert!(report.is_complete(), "undetected: {:?}", report.undetected);
    }

    #[test]
    fn baseline_is_much_larger_than_proposed() {
        use crate::hierarchy::{hierarchical_cover, HierarchyConfig};
        let f = layouts::table1_10x10();
        let proposed = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert!(proposed.paths.len() * 10 < baseline_vector_count(&f));
    }
}
