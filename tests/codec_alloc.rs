//! Allocation-count regression test for the snapshot codec (the "50 KB codec
//! anomaly", PR 3).
//!
//! PR 2's Arc-backed decode was blamed for regressing the 50 KB state-access
//! point (~6 µs → ~15 µs); the real culprit was the *encoder*: it grew a
//! transient records buffer by doubling (a 50 KB entity forced a 64 KB+
//! growth allocation that crossed the allocator's mmap threshold, paying a
//! fresh page-faulted mapping per snapshot) and then copied it into the
//! output. The encoder now pre-computes exact sizes and writes one
//! exactly-sized buffer.
//!
//! This test pins the fixed behavior *structurally*, so it cannot rot with
//! machine-dependent timings: a counting global allocator asserts that
//!
//! * encoding performs **no reallocation** (every buffer is exactly sized up
//!   front) and exactly **one payload-sized allocation** (the output);
//! * decoding performs exactly **one payload-sized allocation** (the single
//!   wire-to-`Arc<str>` copy) — the Arc decode path itself was never the
//!   regression and must stay single-copy;
//! * a barrier capture is a refcount walk: `capture_full` over 1,000 loaded
//!   accounts allocates only its output vector, never per entity, because
//!   entity slot arrays are copy-on-write;
//! * the first write to a captured entity forks its slot array (exactly one
//!   allocation) and the second write is in place (none).
//!
//! The file contains a single #[test] so no sibling test thread can disturb
//! the counters.

use stateful_entities::{interp, EntityAddr, Key, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::{account_addr, account_init_args, account_program, INITIAL_BALANCE};

/// Allocations at least this large are "payload-sized" for a 50 KB entity.
const BIG: usize = 40_000;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates to `System` verbatim; only bumps counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth of an undersized buffer lands here — exactly what the
        // exact-size encoder must never do.
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= BIG {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    allocs: u64,
    reallocs: u64,
    big: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let r0 = REALLOCS.load(Ordering::Relaxed);
    let b0 = BIG_ALLOCS.load(Ordering::Relaxed);
    let result = f();
    let counts = Counts {
        allocs: ALLOCS.load(Ordering::Relaxed) - a0,
        reallocs: REALLOCS.load(Ordering::Relaxed) - r0,
        big: BIG_ALLOCS.load(Ordering::Relaxed) - b0,
    };
    (result, counts)
}

#[test]
fn snapshot_codec_allocation_counts_stay_fixed() {
    let program = account_program();
    let args = vec![
        Value::Str("acc0".to_string().into()),
        Value::Int(INITIAL_BALANCE),
        Value::Str("x".repeat(50_000).into()),
    ];
    let (_, state) = interp::instantiate(&program.ir, "Account", &args).unwrap();
    let addr = EntityAddr::new("Account", Key::Str("acc0".into()));
    let mut part = state_backend::PartitionState::new();
    part.put(addr, state);

    // Warm up once (interner, layout Arcs), then take the minimum over a few
    // repetitions so a stray harness-thread allocation cannot flake the test.
    let bytes = part.to_bytes();

    let mut encode_best: Option<Counts> = None;
    let mut decode_best: Option<Counts> = None;
    for _ in 0..5 {
        let (encoded, enc) = counted(|| part.to_bytes());
        assert_eq!(encoded, bytes);
        let (decoded, dec) = counted(|| state_backend::PartitionState::from_bytes(&bytes).unwrap());
        assert_eq!(decoded, part);
        let keep_min = |best: &mut Option<Counts>, c: Counts| {
            if best.is_none_or(|b| c.allocs < b.allocs) {
                *best = Some(c);
            }
        };
        keep_min(&mut encode_best, enc);
        keep_min(&mut decode_best, dec);
    }
    let enc = encode_best.unwrap();
    let dec = decode_best.unwrap();

    // Encode: one exactly-sized output buffer, a handful of small dictionary
    // vectors, and crucially no growth reallocation at all.
    assert_eq!(
        enc.reallocs, 0,
        "encode must pre-size every buffer exactly, got {enc:?}"
    );
    assert_eq!(
        enc.big, 1,
        "encode must allocate the payload exactly once (the output), got {enc:?}"
    );
    assert!(
        enc.allocs <= 8,
        "encode allocation count regressed: {enc:?}"
    );

    // Decode: the 50 KB payload is copied wire → Arc<str> exactly once.
    assert_eq!(
        dec.big, 1,
        "decode must copy the payload exactly once (single Arc<str>), got {dec:?}"
    );
    assert!(
        dec.allocs <= 40,
        "decode allocation count regressed: {dec:?}"
    );

    // Capture: a refcount walk into one exactly-sized vector.
    const ACCOUNTS: usize = 1_000;
    let mut part = state_backend::PartitionState::new();
    for i in 0..ACCOUNTS {
        let (_, state) =
            interp::instantiate(&program.ir, "Account", &account_init_args(i, 64)).unwrap();
        part.put(account_addr(i), state);
    }
    let mut capture_best: Option<Counts> = None;
    let mut capture = part.capture_full();
    for _ in 0..5 {
        drop(capture);
        let (next, c) = counted(|| part.capture_full());
        capture = next;
        if capture_best.is_none_or(|b| c.allocs < b.allocs) {
            capture_best = Some(c);
        }
    }
    let cap = capture_best.unwrap();
    assert_eq!(capture.entity_count(), ACCOUNTS);
    assert!(
        cap.allocs <= 2,
        "capture_full over {ACCOUNTS} entities allocated per entity: {cap:?}"
    );

    // Copy-on-write: the first write after the capture forks the written
    // entity's slot array once; the capture keeps the old one.
    let addr = account_addr(7);
    let balance = part
        .get(&addr)
        .unwrap()
        .layout()
        .slot_of("balance")
        .unwrap();
    let state = part.get_mut(&addr).unwrap();
    let (_, first) = counted(|| state.set_slot(balance, Value::Int(1)));
    let (_, second) = counted(|| state.set_slot(balance, Value::Int(2)));
    assert_eq!(
        first.allocs, 1,
        "first write to a captured entity must fork its slots once: {first:?}"
    );
    assert_eq!(
        second.allocs, 0,
        "second write must be in place: {second:?}"
    );
    let captured = capture
        .entities()
        .iter()
        .find(|(a, _)| *a == addr)
        .map(|(_, s)| s.slot(balance).clone());
    assert_eq!(captured, Some(Value::Int(INITIAL_BALANCE)));
    assert_eq!(part.get(&addr).unwrap().slot(balance), &Value::Int(2));
}
