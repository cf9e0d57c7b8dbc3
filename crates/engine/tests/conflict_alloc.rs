//! Guard test for conflict collection's O(contested atoms) promise.
//!
//! A Γ step of an uncertified run usually contests a handful of atoms
//! among many firings. `collect_conflicts` detects them through the run's
//! marks and groups, decodes and sorts only them, reading their history
//! from the run's firing log — so its allocation count must not grow with
//! the number of uncontested firings, in the step or in the log.
//!
//! Pinned with the same counting global allocator as `incremental_alloc.rs`
//! (its own integration-test binary because the allocator is
//! process-wide): a step of 1k and a step of 10k uncontested firings, each
//! after a logged step of as many firings and each with one contested
//! atom, must allocate *identically*.

use park_engine::{
    collect_conflicts, Conflict, FiredAction, Grounding, IInterpretation, RuleId, StepLog,
};
use park_storage::{FactStore, PredId, Value, Vocabulary};
use park_syntax::Sign;
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

fn action(vocab: &Vocabulary, rule: u32, sign: Sign, pred: PredId, val: i64) -> FiredAction {
    let c = vocab.encode(Value::Int(val));
    FiredAction {
        grounding: Grounding {
            rule: RuleId(rule),
            subst: Box::from([c]),
        },
        sign,
        pred,
        tuple: Box::from([c]),
    }
}

/// A run after one consistent step that inserted `q(0..n)`, and its next
/// step: `n` further uncontested insertions and the deletion of `q(0)`,
/// which contests that one atom against its logged insertion.
struct SecondStep {
    vocab: Arc<Vocabulary>,
    interp: IInterpretation,
    log: StepLog,
    fired: Vec<FiredAction>,
}

impl SecondStep {
    fn new(n: i64) -> Self {
        let vocab = Vocabulary::new();
        let q = vocab.pred("q", 1).unwrap();
        let mut interp = IInterpretation::from_database(FactStore::new(Arc::clone(&vocab)));
        let first: Vec<FiredAction> = (0..n)
            .map(|i| action(&vocab, 0, Sign::Insert, q, i))
            .collect();
        for f in &first {
            interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        let mut log = StepLog::new();
        log.push_step(first);
        let mut fired: Vec<FiredAction> = (n..2 * n)
            .map(|i| action(&vocab, 1, Sign::Insert, q, i))
            .collect();
        fired.push(action(&vocab, 2, Sign::Delete, q, 0));
        SecondStep {
            vocab,
            interp,
            log,
            fired,
        }
    }

    fn collect(&self) -> Vec<Conflict> {
        collect_conflicts(&self.vocab, &self.fired, &self.interp, &self.log)
    }

    /// The fewest allocations of a collection over a few measurements, so
    /// unrelated runtime allocations can't inflate a count.
    fn allocations(&self) -> u64 {
        (0..5)
            .map(|_| {
                allocations_in(|| {
                    std::hint::black_box(self.collect());
                })
            })
            .min()
            .unwrap()
    }
}

#[test]
fn one_contested_atom_costs_the_same_among_1k_and_10k_firings() {
    let small = SecondStep::new(1_000);
    let large = SecondStep::new(10_000);
    for step in [&small, &large] {
        let conflicts = step.collect();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].ins.len(), 1);
        assert_eq!(conflicts[0].del.len(), 1);
    }
    let on_small = small.allocations();
    let on_large = large.allocations();
    assert_eq!(
        on_small, on_large,
        "conflict collection allocates per uncontested firing: {on_small} allocations \
         among 1k firings, {on_large} among 10k"
    );
}
