//! A test-vector suite with pre-computed golden responses.

use crate::bitsim::{changed_valve, holds, LoweredChip, OPEN_GATE};
use crate::fault::{Fault, FaultSet};
use crate::pressure::{respond, Response};
use fpva_grid::{Fpva, TestVector, ValveId};

/// A set of test vectors together with the sink responses of a fault-free
/// chip, ready for fault-detection queries.
///
/// A fault set is **detected** when at least one vector's faulty response
/// differs from the golden response — exactly the pass/fail criterion the
/// paper's pressure meters implement.
///
/// Next to each golden response the suite keeps what the bit-parallel
/// sweep needs to decide most scenarios without simulating them (see
/// [`crate::bitsim`]):
///
/// * two cell regions of the fault-free chip under the vector: the
///   *golden region* `R`, the cells the sources pressurise, and the *sink
///   side* `S`, the cells joined to a sink port by commanded-open edges
///   (channels and commanded-open valves). A sink in `S` outside `R` reads
///   dry on the fault-free chip but wet as soon as pressure enters its
///   cell's commanded component;
/// * when `R` is a *chain*, each of its cells' chain position: the fewest
///   commanded-open valves on a route to it from a source. `R` is a chain
///   when some sink lies at a position above 0 and every position below
///   the last sink's is joined to the next by exactly one open valve, as
///   on flow-path and leakage vectors;
/// * per valve, three *relevance masks* over the vectors: the *closing*
///   mask, the vectors that pressurise a sink and command the valve open
///   with its endpoints in `R`, so closing it touches `R`; the *opening*
///   mask, those that command it closed with exactly one endpoint in `R`,
///   so opening it crosses `R`, except where its far cell is a *dead end*:
///   sealed (every edge at it a valve the vector commands closed) and
///   outside `S`. Those vectors form the *dead-end* mask.
///
/// All of it comes from one flood from the sources and one from the sinks
/// per vector, over the chip that [`TestSuite::new`] lowers once and the
/// suite keeps for [`TestSuite::extend`] and for every
/// [`BitSimulator`](crate::BitSimulator) bound to it. Why the masks leave
/// out only visits that cannot change a reading is in "Relevance masks" in
/// [`crate::bitsim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSuite {
    /// The chip the suite was built for, lowered once.
    chip: LoweredChip,
    vectors: Vec<TestVector>,
    expected: Vec<Response>,
    /// Per vector, the cells a fault-free chip pressurises: a bitset over
    /// dense cell indices (bit `c % 64` of word `c / 64`).
    reach: Vec<Vec<u64>>,
    /// Per vector, the cells joined to a sink by commanded-open edges, as
    /// a bitset like `reach`.
    sink_side: Vec<Vec<u64>>,
    /// Per vector, its golden region's chain positions when it is a chain.
    chains: Vec<Option<Chain>>,
    /// The valves' relevance masks in blocks of 64 vectors: entry
    /// `block * valves + v` holds valve `v`'s closing, opening and
    /// dead-end masks over vectors `64 * block ..`, bit `i % 64` for
    /// vector `i`.
    masks: Vec<[u64; 3]>,
}

/// Indices of a valve's closing, opening and dead-end masks in an entry of
/// [`TestSuite::masks`](TestSuite).
const CLOSING: usize = 0;
const OPENING: usize = 1;
const DEAD_END: usize = 2;

/// The chain positions of a golden region that is a chain (see
/// [`TestSuite`] and "Cutting chains" in [`crate::bitsim`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Chain {
    /// Per dense cell index, the fewest commanded-open valves on a route
    /// to the cell from a source; `u16::MAX` off the golden region and
    /// past `u16::MAX - 1`, where no cut before the last sink lies.
    pub(crate) position: Vec<u16>,
    /// The largest position of a sink cell.
    pub(crate) last_sink: u16,
}

impl TestSuite {
    /// Lowers `fpva` once, then builds the suite and computes the golden
    /// response of every vector.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `fpva.valve_count()`.
    pub fn new(fpva: &Fpva, vectors: Vec<TestVector>) -> Self {
        let mut suite = TestSuite {
            chip: LoweredChip::build(fpva),
            vectors: Vec::with_capacity(vectors.len()),
            expected: Vec::with_capacity(vectors.len()),
            reach: Vec::with_capacity(vectors.len()),
            sink_side: Vec::with_capacity(vectors.len()),
            chains: Vec::with_capacity(vectors.len()),
            masks: Vec::new(),
        };
        suite.extend(vectors);
        suite
    }

    /// The chip the suite was built for, lowered for the bit kernel.
    pub(crate) fn chip(&self) -> &LoweredChip {
        &self.chip
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

    /// The chain positions of vector `i`'s golden region, or `None` when
    /// the region is not a chain.
    pub(crate) fn chain(&self, i: usize) -> Option<&Chain> {
        self.chains[i].as_ref()
    }

    /// The vectors `64 * block ..` at which `fault` can change a reading,
    /// bit `i % 64` for vector `i`: a stuck-at-0's closing mask, a
    /// stuck-at-1's opening mask, with its dead-end mask when `dead_ends`,
    /// and a control leak's victim's closing mask (a superset of the
    /// vectors that also command its actuator closed).
    pub(crate) fn relevance(&self, fault: Fault, block: usize, dead_ends: bool) -> u64 {
        let (valve, valves) = (changed_valve(fault), self.chip.valve_count());
        assert!(valve.index() < valves, "{valve} outside the chip");
        let masks = self.masks[block * valves + valve.index()];
        match fault {
            Fault::StuckAt1(_) if dead_ends => masks[OPENING] | masks[DEAD_END],
            Fault::StuckAt1(_) => masks[OPENING],
            _ => masks[CLOSING],
        }
    }

    /// Number of vectors (the paper's `N` when the suite is complete).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when the suite has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Appends more vectors for the suite's chip, computing their golden
    /// responses.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from the chip's valve count.
    pub fn extend(&mut self, vectors: impl IntoIterator<Item = TestVector>) {
        let valves = self.chip.valve_count();
        let mut floods = Floods::new(self.chip.cell_count());
        for vector in vectors {
            assert_eq!(vector.len(), valves, "vector/chip size mismatch");
            let i = self.vectors.len();
            if i.is_multiple_of(64) {
                self.masks.resize(self.masks.len() + valves, [0; 3]);
            }
            let chain = floods.flood_sources(&self.chip, &vector);
            let expected = floods.response(&self.chip);
            let sink_side = floods.flood_sinks(&self.chip, &vector);
            let base = i / 64 * valves;
            let bit = 1 << (i % 64);
            if expected.any_pressure() {
                for &v in &floods.open {
                    self.masks[base + v as usize][CLOSING] |= bit;
                }
            }
            for &(v, y) in &floods.crossing {
                let dead_end = !holds(&sink_side, y) && self.sealed(&vector, y);
                self.masks[base + v as usize][if dead_end { DEAD_END } else { OPENING }] |= bit;
            }
            self.expected.push(expected);
            self.reach.push(floods.reach());
            self.sink_side.push(sink_side);
            self.chains.push(chain);
            self.vectors.push(vector);
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

/// Scratch state of [`TestSuite::extend`]: the two floods of one vector
/// over the lowered chip, reused from vector to vector.
struct Floods {
    /// Per cell, its chain position in the golden region: the fewest
    /// commanded-open valves on a route from a source; `u32::MAX` off it.
    position: Vec<u32>,
    /// The golden region's cells in order of position.
    region: Vec<u32>,
    /// Per position, the open valves joining it to the next.
    joins: Vec<u32>,
    /// The cells beyond the open valves of the current position.
    entered: Vec<u32>,
    /// The commanded-open valves with an endpoint in the golden region,
    /// once per such endpoint.
    open: Vec<u32>,
    /// The commanded-closed valves with exactly one endpoint in the golden
    /// region, with their far cells.
    crossing: Vec<(u32, u32)>,
    /// The sink-side flood's worklist.
    stack: Vec<u32>,
}

impl Floods {
    fn new(cells: usize) -> Self {
        Floods {
            position: vec![u32::MAX; cells],
            region: Vec::new(),
            joins: Vec::new(),
            entered: Vec::new(),
            open: Vec::new(),
            crossing: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Floods `vector`'s golden region from the sources, position by
    /// position: channel edges keep a cell's position, commanded-open
    /// valves add one. Lists the valves at which a closing touches the
    /// region in `open` and those at which an opening crosses it in
    /// `crossing`, and returns the chain positions when the region is a
    /// chain.
    fn flood_sources(&mut self, chip: &LoweredChip, vector: &TestVector) -> Option<Chain> {
        const OFF: u32 = u32::MAX;
        self.position.fill(OFF);
        self.region.clear();
        self.joins.clear();
        self.open.clear();
        self.crossing.clear();
        for &s in chip.source_cells() {
            self.position[s as usize] = 0;
            self.region.push(s);
        }
        let (mut k, mut level) = (0, 0);
        loop {
            // The cells at `level` are the channel closure of the sources
            // (level 0) or of the cells entered through an open valve. Each
            // open valve joining `level - 1` to `level` is counted from
            // its upper end, where both positions are final.
            while let Some(&c) = self.region.get(k) {
                for (next, gate) in chip.adjacency(c) {
                    let far = self.position[next as usize];
                    if gate == OPEN_GATE {
                        if far == OFF {
                            self.position[next as usize] = level;
                            self.region.push(next);
                        }
                    } else if vector.is_open(ValveId(gate as usize)) {
                        self.open.push(gate);
                        if far == OFF {
                            self.entered.push(next);
                        } else if far + 1 == level {
                            self.joins[far as usize] += 1;
                        }
                    } else if far == OFF {
                        self.crossing.push((gate, next));
                    }
                }
                k += 1;
            }
            for next in self.entered.drain(..) {
                if self.position[next as usize] == OFF {
                    self.position[next as usize] = level + 1;
                    self.region.push(next);
                }
            }
            if k == self.region.len() {
                break;
            }
            level += 1;
            self.joins.push(0);
        }
        // A valve listed before the flood reached its far cell lies inside.
        let position = &self.position;
        self.crossing
            .retain(|&(_, next)| position[next as usize] == OFF);
        let last_sink = chip
            .sink_cells()
            .iter()
            .map(|&c| self.position[c as usize])
            .filter(|&p| p != OFF)
            .max()?;
        let last_sink = u16::try_from(last_sink).ok().filter(|&p| p < u16::MAX)?;
        if last_sink == 0 || self.joins[..usize::from(last_sink)].iter().any(|&n| n != 1) {
            return None;
        }
        let position = self
            .position
            .iter()
            .map(|&p| u16::try_from(p).unwrap_or(u16::MAX))
            .collect();
        Some(Chain {
            position,
            last_sink,
        })
    }

    /// The golden region of the last [`Floods::flood_sources`] as a bitset
    /// over dense cell indices.
    fn reach(&self) -> Vec<u64> {
        let mut bits = vec![0u64; self.position.len().div_ceil(64)];
        for &c in &self.region {
            bits[c as usize / 64] |= 1 << (c % 64);
        }
        bits
    }

    /// The sink readings of the last [`Floods::flood_sources`].
    fn response(&self, chip: &LoweredChip) -> Response {
        Response::from_readings(
            chip.sink_cells()
                .iter()
                .map(|&c| self.position[c as usize] != u32::MAX)
                .collect(),
        )
    }

    /// The cells joined to a sink port by `vector`'s commanded-open
    /// edges: a bitset over dense cell indices.
    fn flood_sinks(&mut self, chip: &LoweredChip, vector: &TestVector) -> Vec<u64> {
        let mut bits = vec![0u64; self.position.len().div_ceil(64)];
        let mut mark = |c: u32, stack: &mut Vec<u32>| {
            let (word, bit) = (c as usize / 64, 1 << (c % 64));
            if bits[word] & bit == 0 {
                bits[word] |= bit;
                stack.push(c);
            }
        };
        self.stack.clear();
        for &s in chip.sink_cells() {
            mark(s, &mut self.stack);
        }
        while let Some(c) = self.stack.pop() {
            for (next, gate) in chip.adjacency(c) {
                if gate == OPEN_GATE || vector.is_open(ValveId(gate as usize)) {
                    mark(next, &mut self.stack);
                }
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsim::{BitFrontier, LaneSet};
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
        suite.extend([TestVector::all_open(f.valve_count())]);
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

    /// A single file of open valves from the source to the sink is a
    /// chain whose positions count the valves crossed; two parallel routes
    /// are not, nor is a region with a dry sink.
    #[test]
    fn chain_positions_count_open_valves_from_the_sources() {
        let f = line3();
        let suite = TestSuite::new(
            &f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        );
        let chain = suite.chain(0).expect("the open line is a chain");
        assert_eq!(chain.position, [0, 1, 2]);
        assert_eq!(chain.last_sink, 2);
        assert!(suite.chain(1).is_none(), "no sink to cut off");
        // Fig. 5(a): two open rows join position 0 to 1 twice.
        let f = FpvaBuilder::new(2, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        assert!(suite.chain(0).is_none());
    }

    /// The relevance masks keep vectors 64 and up in a second block, and
    /// extending a suite gives the masks of building it at once. Closing
    /// bits fall only on vectors that pressurise a sink.
    #[test]
    fn relevance_masks_span_blocks_of_64_vectors() {
        let f = line3();
        let open = TestVector::all_open(f.valve_count());
        let mut cut = open.clone();
        cut.set(ValveId(1), ValveState::Closed);
        let vectors: Vec<TestVector> = (0..70)
            .map(|i| {
                if i % 2 == 0 {
                    open.clone()
                } else {
                    cut.clone()
                }
            })
            .collect();
        let suite = TestSuite::new(&f, vectors.clone());
        let evens = 0x5555_5555_5555_5555;
        // Valve 0 is open with both cells pressurised under every vector,
        // but only the even vectors wet the sink.
        assert_eq!(
            suite.relevance(Fault::StuckAt0(ValveId(0)), 0, false),
            evens
        );
        assert_eq!(
            suite.relevance(Fault::StuckAt0(ValveId(0)), 1, false),
            0b01_0101
        );
        // Valve 1 is open under the even vectors and crosses `R` closed
        // under the odd ones, into the sink's cell: no dead end. A leak
        // onto it follows its closing mask.
        assert_eq!(
            suite.relevance(Fault::StuckAt0(ValveId(1)), 0, false),
            evens
        );
        assert_eq!(
            suite.relevance(Fault::StuckAt0(ValveId(1)), 1, false),
            0b01_0101
        );
        for dead_ends in [false, true] {
            assert_eq!(
                suite.relevance(Fault::StuckAt1(ValveId(1)), 0, dead_ends),
                !evens
            );
            assert_eq!(
                suite.relevance(Fault::StuckAt1(ValveId(1)), 1, dead_ends),
                0b10_1010
            );
        }
        let leak = Fault::ControlLeak {
            actuator: ValveId(0),
            victim: ValveId(1),
        };
        assert_eq!(suite.relevance(leak, 1, false), 0b01_0101);
        let mut split = TestSuite::new(&f, vectors[..60].to_vec());
        split.extend(vectors[60..].iter().cloned());
        assert_eq!(split, suite);
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
        let chip = suite.chip();
        let mut open = LaneSet::zeros(chip.valve_count());
        open.broadcast(|v| vector.is_open(ValveId(v)));
        let mut frontier = BitFrontier::new(chip.cell_count());
        frontier.flood(chip, chip.sink_cells(), !0, &open);
        let side = suite.sink_side(0);
        let mut size = 0;
        for c in 0..f.cell_count() {
            let inside = side[c / 64] >> (c % 64) & 1 == 1;
            assert_eq!(inside, frontier.reached().word(c) != 0, "cell {c}");
            size += usize::from(inside);
        }
        assert!(size > chip.sink_cells().len(), "only the sink cells");
    }
}
