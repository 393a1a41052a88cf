//! The share ledger's steady state allocates nothing: once its buffers
//! have grown to a window's working size, pushing weeks, logging
//! membership changes and flushing reuse them. The aggregate fast path
//! runs this on every owned arm-week, so an allocation there would cost
//! more than the per-device loop the ledger replaced at paper scale.
//!
//! A counting global allocator tallies allocations made by the current
//! thread only, so tests running on other threads cannot disturb it.

#![allow(unsafe_code, clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fleet::device::{DeviceSpec, DeviceState};
use fleet::store::DeviceStore;
use simcore::time::SimTime;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One ledger window: weeks of shares with a failure and a replacement
/// logged in between, then a read that materializes.
fn window(store: &mut DeviceStore, base: &[u64], rem: &[u64], replacement: &DeviceState) {
    for week in 0..5u64 {
        store.seq_add_shares(base, rem);
        if week == 2 {
            store.mark_failed(3);
            store.set_row(3, replacement);
        }
    }
    let _ = store.seq(0);
}

#[test]
fn ledger_push_and_flush_do_not_allocate_once_warm() {
    let spec = DeviceSpec::paper_sensor(net::packet::RadioTech::Ieee802154);
    // 2 gateways, 120 devices in 3 cohorts: every window stays below the
    // size bound, so each flush comes from the read.
    let mut store = DeviceStore::build(spec, vec![SimTime::from_years(100); 120], |di, homes| {
        homes.push(di % 2);
        if di % 3 == 0 {
            homes.push(1 - di % 2);
        }
    });
    let cohorts = store.cohort_count();
    let base = vec![3u64; cohorts];
    let rem = vec![1u64; cohorts];
    let replacement = DeviceState { seq: 7, failed: false, ..store.row(3) };
    window(&mut store, &base, &rem, &replacement);
    let before = allocations();
    for _ in 0..50 {
        window(&mut store, &base, &rem, &replacement);
    }
    assert_eq!(allocations() - before, 0, "a warm ledger allocated");
    // The bound-triggered flush path: two devices in one cohort reach
    // the bound every second week.
    let mut tiny = DeviceStore::build(spec, vec![SimTime::from_years(100); 2], |_, _| {});
    for _ in 0..2 {
        tiny.seq_add_shares(&[5], &[1]);
    }
    assert_eq!(tiny.pending_weeks(), 0, "the warm-up reached the bound and flushed");
    let before = allocations();
    for _ in 0..50 {
        tiny.seq_add_shares(&[5], &[1]);
    }
    assert_eq!(allocations() - before, 0, "a warm self-flushing ledger allocated");
    assert_eq!(tiny.seq(0), 52 * 6);
    assert_eq!(tiny.seq(1), 52 * 5);
}
