//! The component-level fault model of the paper (Section II).

use crate::error::SimError;
use fpva_grid::{Fpva, TestVector, ValveId, ValveState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One manufacturing fault, per the fault model of Hu et al. (TCAD'14)
/// adopted by the paper:
///
/// * a **break in a flow channel** is equivalent to the valve at the
///   channel entrance never opening → [`Fault::StuckAt0`];
/// * a **leaking flow channel** and a **break in a control channel** both
///   leave a valve unable to close → [`Fault::StuckAt1`];
/// * a **leaking control channel** makes two valves close simultaneously
///   because they share pressure in the control layer →
///   [`Fault::ControlLeak`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fault {
    /// The valve can never open (it behaves as permanently closed).
    StuckAt0(ValveId),
    /// The valve can never close (it behaves as permanently open).
    StuckAt1(ValveId),
    /// Whenever `actuator` is commanded closed, control-layer pressure
    /// leaks to `victim`'s control channel and closes `victim` too.
    ControlLeak {
        /// The valve whose control channel leaks.
        actuator: ValveId,
        /// The valve that erroneously closes with it.
        victim: ValveId,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StuckAt0(v) => write!(f, "stuck-at-0 at {v}"),
            Fault::StuckAt1(v) => write!(f, "stuck-at-1 at {v}"),
            Fault::ControlLeak { actuator, victim } => {
                write!(f, "control leak {actuator} -> {victim}")
            }
        }
    }
}

/// A validated collection of simultaneous faults on one chip.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSet {
    faults: Vec<Fault>,
}

impl FaultSet {
    /// The empty (fault-free) set.
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Builds a fault set, rejecting physically meaningless combinations.
    ///
    /// # Errors
    ///
    /// * [`SimError::ConflictingStuckAt`] when a valve is listed both
    ///   stuck-at-0 and stuck-at-1,
    /// * [`SimError::SelfLeak`] when a control leak names itself as victim.
    pub fn try_from_faults(faults: Vec<Fault>) -> Result<Self, SimError> {
        for f in &faults {
            if let Fault::ControlLeak { actuator, victim } = f {
                if actuator == victim {
                    return Err(SimError::SelfLeak { valve: *actuator });
                }
            }
        }
        for f in &faults {
            if let Fault::StuckAt0(v) = f {
                if faults.contains(&Fault::StuckAt1(*v)) {
                    return Err(SimError::ConflictingStuckAt { valve: *v });
                }
            }
        }
        Ok(FaultSet { faults })
    }

    /// The faults in this set.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` for a fault-free chip.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Computes the *effective* (physical) state of every valve when the
    /// chip is driven with `vector`:
    ///
    /// 1. every valve starts at its commanded state;
    /// 2. control leaks force their victim closed whenever the actuator is
    ///    commanded closed;
    /// 3. stuck-at faults override everything (a broken valve does not care
    ///    about control pressure).
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from `fpva.valve_count()` or a
    /// fault references a valve outside the array.
    pub fn effective_states(&self, fpva: &Fpva, vector: &TestVector) -> EffectiveStates {
        assert_eq!(
            vector.len(),
            fpva.valve_count(),
            "vector/array size mismatch"
        );
        let mut open: Vec<bool> = (0..fpva.valve_count())
            .map(|i| vector.is_open(ValveId(i)))
            .collect();
        for f in &self.faults {
            if let Fault::ControlLeak { actuator, victim } = f {
                if !vector.is_open(*actuator) {
                    open[victim.index()] = false;
                }
            }
        }
        for f in &self.faults {
            match f {
                Fault::StuckAt0(v) => open[v.index()] = false,
                Fault::StuckAt1(v) => open[v.index()] = true,
                Fault::ControlLeak { .. } => {}
            }
        }
        EffectiveStates { open }
    }
}

impl AsRef<[Fault]> for FaultSet {
    fn as_ref(&self) -> &[Fault] {
        &self.faults
    }
}

impl FromIterator<Fault> for FaultSet {
    /// Collects faults without validation — prefer
    /// [`FaultSet::try_from_faults`] when the faults come from outside the
    /// crate.
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultSet {
            faults: iter.into_iter().collect(),
        }
    }
}

/// Physical open/closed state of every valve under one vector and fault
/// set (output of [`FaultSet::effective_states`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectiveStates {
    open: Vec<bool>,
}

impl EffectiveStates {
    /// Physical state of valve `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn state(&self, v: ValveId) -> ValveState {
        if self.open[v.index()] {
            ValveState::Open
        } else {
            ValveState::Closed
        }
    }

    /// `true` when valve `v` is physically open.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_open(&self, v: ValveId) -> bool {
        self.open[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    fn fixture() -> Fpva {
        layouts::full_array(3, 3)
    }

    #[test]
    fn fault_free_states_follow_vector() {
        let f = fixture();
        let mut vec = TestVector::all_closed(f.valve_count());
        vec.set(ValveId(2), ValveState::Open);
        let eff = FaultSet::new().effective_states(&f, &vec);
        assert!(eff.is_open(ValveId(2)));
        assert!(!eff.is_open(ValveId(0)));
    }

    #[test]
    fn stuck_at_0_overrides_open_command() {
        let f = fixture();
        let set = FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap();
        let eff = set.effective_states(&f, &TestVector::all_open(f.valve_count()));
        assert!(!eff.is_open(ValveId(1)));
        assert!(eff.is_open(ValveId(0)));
    }

    #[test]
    fn stuck_at_1_overrides_close_command() {
        let f = fixture();
        let set = FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(1))]).unwrap();
        let eff = set.effective_states(&f, &TestVector::all_closed(f.valve_count()));
        assert!(eff.is_open(ValveId(1)));
        assert_eq!(eff.state(ValveId(0)), ValveState::Closed);
    }

    #[test]
    fn control_leak_closes_victim_only_when_actuator_closed() {
        let f = fixture();
        let set = FaultSet::try_from_faults(vec![Fault::ControlLeak {
            actuator: ValveId(0),
            victim: ValveId(1),
        }])
        .unwrap();
        // Actuator commanded closed -> victim drags closed.
        let mut vec = TestVector::all_open(f.valve_count());
        vec.set(ValveId(0), ValveState::Closed);
        let eff = set.effective_states(&f, &vec);
        assert!(!eff.is_open(ValveId(1)));
        // Actuator commanded open -> no leak pressure, victim behaves.
        let eff = set.effective_states(&f, &TestVector::all_open(f.valve_count()));
        assert!(eff.is_open(ValveId(1)));
    }

    #[test]
    fn stuck_at_1_beats_control_leak() {
        let f = fixture();
        let set = FaultSet::try_from_faults(vec![
            Fault::ControlLeak {
                actuator: ValveId(0),
                victim: ValveId(1),
            },
            Fault::StuckAt1(ValveId(1)),
        ])
        .unwrap();
        let eff = set.effective_states(&f, &TestVector::all_closed(f.valve_count()));
        assert!(
            eff.is_open(ValveId(1)),
            "a valve that cannot close stays open"
        );
    }

    #[test]
    fn conflicting_stuck_at_rejected() {
        let err = FaultSet::try_from_faults(vec![
            Fault::StuckAt0(ValveId(3)),
            Fault::StuckAt1(ValveId(3)),
        ])
        .unwrap_err();
        assert_eq!(err, SimError::ConflictingStuckAt { valve: ValveId(3) });
    }

    #[test]
    fn self_leak_rejected() {
        let err = FaultSet::try_from_faults(vec![Fault::ControlLeak {
            actuator: ValveId(3),
            victim: ValveId(3),
        }])
        .unwrap_err();
        assert_eq!(err, SimError::SelfLeak { valve: ValveId(3) });
    }

    #[test]
    fn display_impls() {
        assert_eq!(Fault::StuckAt0(ValveId(2)).to_string(), "stuck-at-0 at v2");
        assert_eq!(Fault::StuckAt1(ValveId(2)).to_string(), "stuck-at-1 at v2");
        assert_eq!(
            Fault::ControlLeak {
                actuator: ValveId(1),
                victim: ValveId(2)
            }
            .to_string(),
            "control leak v1 -> v2"
        );
    }
}
