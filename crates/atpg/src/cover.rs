//! Valve coverage bookkeeping shared by the generators.

use fpva_grid::{Fpva, ValveId};

/// Tracks which valves are already covered by generated paths or cuts
/// (the paper's constraint (2): every valve on at least one flow path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageTracker {
    covered: Vec<bool>,
    remaining: usize,
}

impl CoverageTracker {
    /// A tracker with every valve of `fpva` uncovered.
    pub fn new(fpva: &Fpva) -> Self {
        let n = fpva.valve_count();
        CoverageTracker {
            covered: vec![false; n],
            remaining: n,
        }
    }

    /// Marks a valve covered; returns `true` when it was newly covered.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cover(&mut self, v: ValveId) -> bool {
        let slot = &mut self.covered[v.index()];
        if *slot {
            false
        } else {
            *slot = true;
            self.remaining -= 1;
            true
        }
    }

    /// Marks many valves covered; returns how many were new.
    pub fn cover_all<I: IntoIterator<Item = ValveId>>(&mut self, valves: I) -> usize {
        valves.into_iter().filter(|&v| self.cover(v)).count()
    }

    /// `true` when `v` is covered.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_covered(&self, v: ValveId) -> bool {
        self.covered[v.index()]
    }

    /// Number of still-uncovered valves.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` when every valve is covered.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    #[test]
    fn cover_and_remaining() {
        let f = layouts::full_array(2, 2);
        let mut t = CoverageTracker::new(&f);
        assert_eq!(t.remaining(), 4);
        assert!(t.cover(ValveId(0)));
        assert!(!t.cover(ValveId(0)), "double-cover is not new");
        assert_eq!(t.remaining(), 3);
        assert_eq!(t.cover_all([ValveId(1), ValveId(2), ValveId(1)]), 2);
        assert!((0..3).all(|i| t.is_covered(ValveId(i))));
        assert!(!t.is_covered(ValveId(3)));
        assert!(!t.is_complete());
        t.cover(ValveId(3));
        assert!(t.is_complete());
    }
}
