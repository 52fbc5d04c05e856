//! A test-vector suite with pre-computed golden responses.

use crate::campaign::bfs_visit;
use crate::fault::FaultSet;
use crate::pressure::{propagate, respond, Response};
use fpva_grid::{Fpva, TestVector};

/// A set of test vectors together with the sink responses of a fault-free
/// chip, ready for fault-detection queries.
///
/// A fault set is **detected** when at least one vector's faulty response
/// differs from the golden response — exactly the pass/fail criterion the
/// paper's pressure meters implement.
///
/// Next to each golden response the suite keeps two cell regions of the
/// fault-free chip under that vector: the *golden region* `R`, the cells
/// the sources pressurise, and the *sink side* `S`, the cells joined to a
/// sink port by commanded-open edges (channels and commanded-open
/// valves). A sink in `S` outside `R` reads dry on the fault-free chip
/// but wet as soon as pressure enters its cell's commanded component.
/// The bit-parallel sweep decides most scenarios from these two regions
/// without simulating them (see [`crate::bitsim`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSuite {
    vectors: Vec<TestVector>,
    expected: Vec<Response>,
    /// Per vector, the cells a fault-free chip pressurises: a bitset over
    /// dense cell indices (bit `c % 64` of word `c / 64`).
    reach: Vec<Vec<u64>>,
    /// Per vector, the cells joined to a sink by commanded-open edges, as
    /// a bitset like `reach`.
    sink_side: Vec<Vec<u64>>,
}

impl TestSuite {
    /// Builds the suite and computes the golden response of every vector.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `fpva.valve_count()`.
    pub fn new(fpva: &Fpva, vectors: Vec<TestVector>) -> Self {
        let mut suite = TestSuite {
            vectors: Vec::with_capacity(vectors.len()),
            expected: Vec::with_capacity(vectors.len()),
            reach: Vec::with_capacity(vectors.len()),
            sink_side: Vec::with_capacity(vectors.len()),
        };
        suite.extend(fpva, vectors);
        suite
    }

    /// The vectors, in application order.
    pub fn vectors(&self) -> &[TestVector] {
        &self.vectors
    }

    /// Golden responses, parallel to [`TestSuite::vectors`].
    pub fn expected(&self) -> &[Response] {
        &self.expected
    }

    /// The fault-free pressure region `R` of vector `i`, as a bitset over
    /// dense cell indices.
    pub(crate) fn golden_reach(&self, i: usize) -> &[u64] {
        &self.reach[i]
    }

    /// The sink side `S` of vector `i`: the cells joined to a sink port by
    /// the vector's commanded-open edges, as a bitset like
    /// [`TestSuite::golden_reach`].
    pub(crate) fn sink_side(&self, i: usize) -> &[u64] {
        &self.sink_side[i]
    }

    /// Number of vectors (the paper's `N` when the suite is complete).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when the suite has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Appends more vectors, computing their golden responses.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `fpva.valve_count()`.
    pub fn extend(&mut self, fpva: &Fpva, vectors: impl IntoIterator<Item = TestVector>) {
        for v in vectors {
            let golden = propagate(fpva, &v, &FaultSet::new());
            self.expected.push(golden.response(fpva));
            self.reach.push(golden.cell_bits());
            self.sink_side.push(sink_side_cells(fpva, &v));
            self.vectors.push(v);
        }
    }

    /// Index of the first vector whose faulty response deviates from
    /// golden, or `None` when the fault set escapes the whole suite.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a valve outside the array.
    pub fn first_detecting_vector(&self, fpva: &Fpva, faults: &FaultSet) -> Option<usize> {
        self.vectors
            .iter()
            .zip(&self.expected)
            .position(|(v, golden)| respond(fpva, v, faults) != *golden)
    }

    /// `true` when some vector detects the fault set.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a valve outside the array.
    pub fn detects(&self, fpva: &Fpva, faults: &FaultSet) -> bool {
        self.first_detecting_vector(fpva, faults).is_some()
    }
}

/// The cells joined to a sink port by `vector`'s commanded-open edges: a
/// bitset over dense cell indices.
fn sink_side_cells(fpva: &Fpva, vector: &TestVector) -> Vec<u64> {
    let sinks: Vec<_> = fpva.sinks().map(|(_, p)| p.cell).collect();
    let mut bits = vec![0u64; fpva.cell_count().div_ceil(64)];
    bfs_visit(fpva, &sinks, vector, |cell| {
        let c = fpva.cell_index(cell);
        bits[c / 64] |= 1 << (c % 64);
        false
    });
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsim::{BitFrontier, LaneSet, LoweredChip};
    use crate::fault::Fault;
    use crate::pressure::propagate;
    use fpva_grid::{layouts, FpvaBuilder, PortKind, Side, ValveId, ValveState};

    fn line3() -> Fpva {
        FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap()
    }

    #[test]
    fn golden_suite_detects_nothing_on_fault_free_chip() {
        let f = line3();
        let suite = TestSuite::new(
            &f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        );
        assert_eq!(suite.len(), 2);
        assert!(!suite.detects(&f, &FaultSet::new()));
    }

    #[test]
    fn path_vector_detects_stuck_at_0() {
        let f = line3();
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let faults = FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap();
        assert_eq!(suite.first_detecting_vector(&f, &faults), Some(0));
    }

    #[test]
    fn cut_vector_detects_stuck_at_1() {
        let f = line3();
        // Cut = both valves closed; a single stuck-at-1 is NOT enough to
        // leak across two closed valves, two are.
        let suite = TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]);
        let one = FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(0))]).unwrap();
        assert!(!suite.detects(&f, &one));
        // Close only valve 1 (cut of size 1): one stuck-at-1 leaks through.
        let mut cut = TestVector::all_open(f.valve_count());
        cut.set(ValveId(1), ValveState::Closed);
        let suite = TestSuite::new(&f, vec![cut]);
        let leak = FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(1))]).unwrap();
        assert!(suite.detects(&f, &leak));
    }

    #[test]
    fn extend_keeps_golden_in_sync() {
        let f = line3();
        let mut suite = TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]);
        suite.extend(&f, [TestVector::all_open(f.valve_count())]);
        assert_eq!(suite.len(), 2);
        assert_eq!(suite.expected().len(), 2);
        // Closed: only the source cell; open: the whole line.
        assert_eq!(suite.golden_reach(0), &[0b001]);
        assert_eq!(suite.golden_reach(1), &[0b111]);
        // The sink side mirrors it from the sink cell.
        assert_eq!(suite.sink_side(0), &[0b100]);
        assert_eq!(suite.sink_side(1), &[0b111]);
        let faults = FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap();
        assert_eq!(suite.first_detecting_vector(&f, &faults), Some(1));
    }

    #[test]
    fn golden_reach_is_the_fault_free_pressure_region() {
        let f = layouts::custom_biochip();
        let mut vector = TestVector::all_open(f.valve_count());
        for v in (0..f.valve_count()).step_by(3) {
            vector.set(ValveId(v), ValveState::Closed);
        }
        let suite = TestSuite::new(&f, vec![vector.clone()]);
        let golden = propagate(&f, &vector, &FaultSet::new());
        let reach = suite.golden_reach(0);
        assert_eq!(reach.len(), f.cell_count().div_ceil(64));
        for c in 0..f.cell_count() {
            assert_eq!(reach[c / 64] >> (c % 64) & 1 == 1, golden.at(f.cell_at(c)));
        }
    }

    /// The sink side equals the bit kernel's flood from the sink cells
    /// over the commanded valve states.
    #[test]
    fn sink_side_is_the_commanded_reach_of_the_sinks() {
        let f = layouts::custom_biochip();
        let mut vector = TestVector::all_open(f.valve_count());
        for v in (0..f.valve_count()).step_by(2) {
            vector.set(ValveId(v), ValveState::Closed);
        }
        let suite = TestSuite::new(&f, vec![vector.clone()]);
        let chip = LoweredChip::build(&f);
        let mut open = LaneSet::zeros(chip.valve_count());
        open.broadcast(|v| vector.is_open(ValveId(v)));
        let mut frontier = BitFrontier::new(chip.cell_count());
        frontier.propagate_from(&chip, chip.sink_cells(), &open);
        let side = suite.sink_side(0);
        let mut size = 0;
        for c in 0..f.cell_count() {
            let inside = side[c / 64] >> (c % 64) & 1 == 1;
            assert_eq!(inside, frontier.lanes_at(c) != 0, "cell {c}");
            size += usize::from(inside);
        }
        assert!(size > chip.sink_cells().len(), "only the sink cells");
    }
}
