//! Guard test for the warm path's O(per-update) promise.
//!
//! `WarmState::transact` with `U = ∅` is the heartbeat of a resident
//! database: `park serve` answers `settle` requests with it whenever the
//! warm state is live. The fast path must do per-update work only — no
//! lens capture, no grounding enumeration, no state clone — so its
//! allocation count must be a small constant independent of how many
//! facts the committed state holds.
//!
//! Pinned with the same counting global allocator as `snapshot_alloc.rs`
//! (its own integration-test binary because the allocator is
//! process-wide): two warm databases with a 100x different fact count
//! must allocate *identically* on a no-op transaction.

use park_engine::{
    certify_incremental, CompiledProgram, Engine, EngineOptions, Inertia, WarmState,
};
use park_storage::{FactStore, UpdateSet, Vocabulary};
use park_syntax::parse_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is the only
// addition and is async-signal-safe (a relaxed atomic add).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_in(mut f: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A warm reachability database over an `n`-node cycle: `n` edge facts,
/// plus the program's full transitive closure in the committed state and
/// in the warm plus zone — the fact count scales as O(n²).
fn warm_db(n: usize) -> (CompiledProgram, WarmState) {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("e(v{i}, v{}).\n", (i + 1) % n));
    }
    let vocab = Vocabulary::new();
    let program = parse_program("e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).").unwrap();
    let engine =
        Engine::with_options(Arc::clone(&vocab), &program, EngineOptions::default()).unwrap();
    assert!(certify_incremental(engine.program()));
    let db = FactStore::from_source(vocab, &src).unwrap();
    let settle = engine.run(&db, &UpdateSet::empty(), &mut Inertia).unwrap();
    let warm = WarmState::build(engine.program(), settle.database, &settle.blocked)
        .expect("warm state builds");
    (engine.program().clone(), warm)
}

#[test]
fn noop_transaction_on_a_warm_database_does_no_per_fact_work() {
    let (small_program, mut small) = warm_db(4);
    let (large_program, mut large) = warm_db(40);
    assert_eq!(small.state().len(), 4 + 4 * 4);
    assert_eq!(large.state().len(), 40 + 40 * 40);

    let empty = UpdateSet::empty();
    // Warm up lazy allocator state, then take the minimum over a few
    // measurements so unrelated runtime allocations can't inflate a count.
    let _ = small.transact(&small_program, &empty);
    let measure = |f: &mut dyn FnMut()| (0..5).map(|_| allocations_in(&mut *f)).min().unwrap();

    let on_small = measure(&mut || {
        let _ = small.transact(&small_program, &empty);
    });
    let on_large = measure(&mut || {
        let _ = large.transact(&large_program, &empty);
    });
    assert_eq!(
        on_small, on_large,
        "a no-op warm transaction's allocation count must not scale with the database"
    );
    // Per-update work on zero updates means a constant handful of
    // allocations (the report itself), not a per-fact pass.
    assert!(
        on_large <= 4,
        "no-op transaction on a 1640-fact warm database allocated {on_large} times"
    );
}
