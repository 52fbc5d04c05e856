//! Host-speed calibration.
//!
//! The benchmark shares its host's cores with other tenants, and the speed
//! of one core drifts by up to 1.6× for seconds to minutes at a time. A
//! run times this fixed, benchmark-owned kernel interleaved with the
//! workload (its own family in the loop) and scales every end-to-end time
//! by `REFERENCE_SECS / median kernel time`, the median taken over the
//! kernel runs nearest in time to the timed work (see
//! `Loop::latencies`, and the set-up repetitions in `main`), so the
//! reported times are at one reference host speed and two runs of the
//! same code agree. The
//! kernel mixes what the program does: breadth-first search over a grid
//! graph with a hashed visited set, and floating-point relaxation sweeps.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;

/// The kernel's median time on the reference host when no neighbour loads
/// it (2-vCPU Xeon at 2.0 GHz).
pub const REFERENCE_SECS: f64 = 0.0021;

const SIDE: u32 = 64;

/// Seconds of each of `runs` back-to-back kernel runs.
pub fn sample(runs: usize) -> Vec<f64> {
    (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// One run of the calibration kernel; returns a checksum.
pub fn kernel() -> u64 {
    let n = SIDE * SIDE;
    let mut visited: HashSet<u32> = HashSet::with_capacity(n as usize);
    let mut queue = VecDeque::new();
    let mut order = Vec::with_capacity(n as usize);
    for source in [0, SIDE - 1, n - SIDE, n - 1] {
        visited.clear();
        queue.push_back(source);
        visited.insert(source);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            let (r, k) = (c / SIDE, c % SIDE);
            let neighbours = [
                (r > 0).then(|| c - SIDE),
                (r + 1 < SIDE).then(|| c + SIDE),
                (k > 0).then(|| c - 1),
                (k + 1 < SIDE).then(|| c + 1),
            ];
            for next in neighbours.into_iter().flatten() {
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
    }
    let mut x: Vec<f64> = order.iter().map(|&c| f64::from(c % 97)).collect();
    for _ in 0..8 {
        for i in 1..x.len() - 1 {
            x[i] = 0.25 * x[i - 1] + 0.5 * x[i] + 0.25 * x[i + 1];
        }
    }
    black_box(order.len() as u64 + x.iter().sum::<f64>() as u64)
}
