//! A replication frame's length field is a claim, not a promise: the
//! reader must not reserve the claimed body before the peer sends it.
//!
//! This binary installs an allocator that remembers the largest single
//! request, and holds exactly one test, so nothing else allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mine_store::replicate::{read_message, ReplError, MAX_BODY_BYTES};

/// The system allocator, recording the largest size ever asked of it.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`; the only addition
// is an atomic store.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_huge_length_claim_with_three_bytes_behind_it_allocates_nothing_large() {
    // The largest body the bound admits (the u32 length field cannot
    // claim more than 4 GiB), followed by three bytes and end of stream.
    let claim = u32::try_from(MAX_BODY_BYTES).expect("the bound fits the length field");
    let mut wire = Vec::new();
    wire.extend_from_slice(&claim.to_le_bytes());
    wire.extend_from_slice(&0_u32.to_le_bytes());
    wire.extend_from_slice(&[4, 0, 0]);

    LARGEST.store(0, Ordering::Relaxed);
    let outcome = read_message(&mut &wire[..]);
    let largest = LARGEST.load(Ordering::Relaxed);

    match outcome {
        Err(ReplError::Io(err)) => assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected a short-read error, got {other:?}"),
    }
    assert!(
        largest < 64 * 1024,
        "reading a {claim}-byte claim allocated {largest} bytes at once"
    );
}
