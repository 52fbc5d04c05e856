//! Pressure propagation through the flow layer.

use crate::fault::FaultSet;
use fpva_grid::{CellId, EdgeKind, Fpva, PortKind, TestVector};
use std::collections::VecDeque;

/// Which cells carry test pressure under one vector/fault combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pressure {
    pressurised: Vec<bool>,
    cols: usize,
}

impl Pressure {
    /// `true` when test pressure reaches `cell`.
    pub fn at(&self, cell: CellId) -> bool {
        self.pressurised[cell.row * self.cols + cell.col]
    }

    /// Number of pressurised cells.
    pub fn pressurised_count(&self) -> usize {
        self.pressurised.iter().filter(|&&p| p).count()
    }
}

/// Readings of all pressure meters (sink ports), in port order.
///
/// Two responses are comparable with `==`; a faulty chip is *detected* by a
/// vector exactly when its response differs from the fault-free one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Response {
    readings: Vec<bool>,
}

impl Response {
    /// The response with these meter readings, in sink-port order.
    pub(crate) fn from_readings(readings: Vec<bool>) -> Self {
        Response { readings }
    }

    /// Meter readings in sink-port order (`true` = pressure present).
    pub fn readings(&self) -> &[bool] {
        &self.readings
    }

    /// `true` when any meter sees pressure.
    pub fn any_pressure(&self) -> bool {
        self.readings.iter().any(|&r| r)
    }
}

/// Simulates one test application: pressure is applied at every source
/// port and spreads through every physically open valve site; the returned
/// [`Pressure`] marks the reached cells.
///
/// Physical valve states come from [`FaultSet::effective_states`]: commands
/// from `vector`, then control leaks, then stuck-at overrides. Channels are
/// always passable, walls never.
///
/// # Panics
///
/// Panics if `vector.len() != fpva.valve_count()` or a fault references a
/// valve outside the array.
pub fn propagate(fpva: &Fpva, vector: &TestVector, faults: &FaultSet) -> Pressure {
    let eff = faults.effective_states(fpva, vector);
    let cols = fpva.cols();
    let mut pressurised = vec![false; fpva.cell_count()];
    let mut queue = VecDeque::new();
    for (_, port) in fpva.ports() {
        if port.kind == PortKind::Source {
            let ix = fpva.cell_index(port.cell);
            if !pressurised[ix] {
                pressurised[ix] = true;
                queue.push_back(port.cell);
            }
        }
    }
    while let Some(cell) = queue.pop_front() {
        for (edge, next) in fpva.neighbors(cell) {
            let passable = match fpva.edge_kind(edge) {
                EdgeKind::Open => true,
                EdgeKind::Wall => false,
                EdgeKind::Valve => {
                    eff.is_open(fpva.valve_at(edge).expect("valve edge has a valve id"))
                }
            };
            if passable {
                let ix = fpva.cell_index(next);
                if !pressurised[ix] {
                    pressurised[ix] = true;
                    queue.push_back(next);
                }
            }
        }
    }
    Pressure { pressurised, cols }
}

impl Pressure {
    /// Reads every sink-port meter off this pressure map.
    pub fn response(&self, fpva: &Fpva) -> Response {
        let readings = fpva.sinks().map(|(_, p)| self.at(p.cell)).collect();
        Response { readings }
    }
}

/// Convenience: propagate and read the meters in one call.
pub fn respond(fpva: &Fpva, vector: &TestVector, faults: &FaultSet) -> Response {
    propagate(fpva, vector, faults).response(fpva)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use fpva_grid::{layouts, FpvaBuilder, Side, ValveId, ValveState};

    #[test]
    fn all_open_pressurises_everything_reachable() {
        let f = layouts::full_array(3, 3);
        let p = propagate(&f, &TestVector::all_open(f.valve_count()), &FaultSet::new());
        assert_eq!(p.pressurised_count(), 9);
        assert!(p.response(&f).any_pressure());
    }

    #[test]
    fn all_closed_confines_pressure_to_source_cell() {
        let f = layouts::full_array(3, 3);
        let p = propagate(
            &f,
            &TestVector::all_closed(f.valve_count()),
            &FaultSet::new(),
        );
        assert_eq!(p.pressurised_count(), 1);
        assert!(p.at(CellId::new(0, 0)));
        assert!(!p.response(&f).any_pressure());
    }

    #[test]
    fn single_open_path_reaches_sink() {
        // 1x3 row: open both valves -> pressure crosses to the sink.
        let f = FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let mut v = TestVector::all_closed(f.valve_count());
        for (id, _) in f.valves() {
            v.set(id, ValveState::Open);
        }
        assert!(respond(&f, &v, &FaultSet::new()).any_pressure());
        // Close the first valve: no pressure at the sink.
        let mut v2 = v.clone();
        v2.set(ValveId(0), ValveState::Closed);
        assert!(!respond(&f, &v2, &FaultSet::new()).any_pressure());
    }

    #[test]
    fn stuck_at_0_blocks_a_path() {
        let f = FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let v = TestVector::all_open(f.valve_count());
        let faults = FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap();
        assert!(!respond(&f, &v, &faults).any_pressure());
    }

    #[test]
    fn stuck_at_1_leaks_through_a_cut() {
        let f = FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let v = TestVector::all_closed(f.valve_count());
        let faults = FaultSet::try_from_faults(vec![
            Fault::StuckAt1(ValveId(0)),
            Fault::StuckAt1(ValveId(1)),
        ])
        .unwrap();
        assert!(respond(&f, &v, &faults).any_pressure());
    }

    #[test]
    fn walls_stop_pressure() {
        // Obstacle splits a 1x3 row; its incident edges are walls.
        let f = FpvaBuilder::new(1, 3)
            .obstacle(0, 1, 0, 1)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(f.valve_count(), 0);
        let v = TestVector::all_open(0);
        assert!(!respond(&f, &v, &FaultSet::new()).any_pressure());
    }

    #[test]
    fn channels_conduct_pressure_without_valves() {
        let f = FpvaBuilder::new(1, 3)
            .channel_horizontal(0, 0, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(f.valve_count(), 0);
        assert!(respond(&f, &TestVector::all_open(0), &FaultSet::new()).any_pressure());
    }

    #[test]
    fn masking_scenario_fig5a_second_path_hides_stuck_at_0() {
        // Fig. 5(a): two parallel open rows between source and sink mask a
        // stuck-at-0 on one of them.
        let f = FpvaBuilder::new(2, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let v = TestVector::all_open(f.valve_count());
        let golden = respond(&f, &v, &FaultSet::new());
        // Break one valve on the top row; the detour through row 1 still
        // delivers pressure: the fault is masked for this vector.
        let top = f.valve_at(fpva_grid::EdgeId::horizontal(0, 0)).unwrap();
        let faults = FaultSet::try_from_faults(vec![Fault::StuckAt0(top)]).unwrap();
        assert_eq!(respond(&f, &v, &faults), golden);
    }

    #[test]
    fn response_order_is_stable() {
        let f = FpvaBuilder::new(2, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 1, Side::East, PortKind::Sink)
            .port(1, 1, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let mut v = TestVector::all_closed(f.valve_count());
        v.set(
            f.valve_at(fpva_grid::EdgeId::horizontal(0, 0)).unwrap(),
            ValveState::Open,
        );
        let r = respond(&f, &v, &FaultSet::new());
        assert_eq!(r.readings(), &[true, false]);
    }
}
