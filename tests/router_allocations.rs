//! A route allocates only the path it returns: once the first route has
//! built the witness network and scratch space in its `Routing`,
//! `Router::path_through_edge` makes one heap allocation when it finds a
//! path and none when no path exists.
//!
//! The allocator of this test binary counts the allocations of each
//! thread, so the test runs in a binary of its own.

use fpva::atpg::connectivity::{Router, Routing};
use fpva::grid::layouts;
use fpva::ValveId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counter is a thread-local
// `Cell` with a const initializer: touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as
        // every allocation of this allocator does.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_route_allocates_only_its_path() {
    for f in [layouts::table1_10x10(), layouts::custom_biochip()] {
        let router = Router::new(&f);
        let mut routing = Routing::default();
        let mut rng = StdRng::seed_from_u64(7);
        let prefer = |v: ValveId| v.index().is_multiple_of(3);
        // The first route builds the witness network and the buffers.
        router.path_through_edge(&mut routing, f.edge_of(ValveId(0)), &[], &prefer, &mut rng);
        let (mut found, mut missed) = (0, 0);
        for (v, edge) in f.valves() {
            let avoids = std::iter::once(None).chain(f.valve_neighbors(v).into_iter().map(Some));
            for avoid in avoids {
                let avoided: Vec<ValveId> = avoid.into_iter().collect();
                let before = allocations();
                let path =
                    router.path_through_edge(&mut routing, edge, &avoided, &prefer, &mut rng);
                let made = allocations() - before;
                assert_eq!(
                    made,
                    usize::from(path.is_some()),
                    "valve {v} avoiding {avoid:?}"
                );
                found += usize::from(path.is_some());
                missed += usize::from(path.is_none());
            }
        }
        assert!(found > 500 && missed > 0, "{found} paths, {missed} misses");
    }
}
