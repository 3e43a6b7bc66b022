//! Proof that a claimed element count cannot make a decoder reserve
//! more memory than the message could hold.
//!
//! Each decoder below reads a `u32` count and reserves that many
//! elements before reading one. A short frame that claims the largest
//! count the decoder's protocol cap admits must be refused without the
//! reservation: a byte-counting global allocator measures what the
//! decode asks for. The count is per thread: `cargo test` runs these
//! tests on parallel threads, and one test's allocations must not land
//! in another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use alidrone_core::wire::{Request, Response};
use alidrone_core::{DroneId, ProofOfAlibi, ProtocolError, Verdict, ZoneId};
use alidrone_geo::{NoFlyZone, Timestamp};
use alidrone_tee::{SignedGapMarker, SignedSample};

struct CountingAlloc;

thread_local! {
    // `const`-initialised, so reading it never allocates (no lazy
    // initialisation inside the allocator).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_bytes(n: usize) {
    // `try_with` fails only while this thread's locals are being torn
    // down; allocations then belong to no measured closure.
    let _ = BYTES.try_with(|b| b.set(b.get() + n));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a refused decode may allocate: its error and bookkeeping, far
/// below any element reservation worth the name.
const LIMIT: usize = 64 * 1024;

/// Decodes `frame` with `decode`, and asserts that the frame is refused
/// and that the decode allocated under [`LIMIT`] bytes, where reserving
/// `cap` elements of `elem` bytes each (the count the frame claims, at
/// its protocol cap) would take far more.
fn assert_refused_cheaply<T>(
    what: &str,
    frame: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, ProtocolError>,
    cap: usize,
    elem: usize,
) {
    assert!(
        cap * elem >= 16 * LIMIT,
        "{what}: the case must be able to fail"
    );
    let before = BYTES.with(Cell::get);
    let refused = decode(frame).is_err();
    let allocated = BYTES.with(Cell::get) - before;
    assert!(refused, "{what}: a {}-byte frame decoded", frame.len());
    assert!(
        allocated < LIMIT,
        "{what}: refusing a {}-byte frame allocated {allocated} bytes",
        frame.len()
    );
}

/// `bytes` with its last four bytes replaced by `count`, big-endian.
fn with_count(mut bytes: Vec<u8>, count: u32) -> Vec<u8> {
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&count.to_be_bytes());
    bytes
}

#[test]
fn element_sizes_are_the_ones_the_caps_multiply() {
    assert_eq!(size_of::<SignedSample>(), 56);
    assert_eq!(size_of::<SignedGapMarker>(), 48);
    assert_eq!(size_of::<Vec<u8>>(), 24);
    assert_eq!(size_of::<(ZoneId, NoFlyZone)>(), 32);
    assert_eq!(size_of::<usize>(), 8);
}

#[test]
fn a_poa_claiming_more_samples_than_bytes_is_refused_unreserved() {
    assert_refused_cheaply(
        "samples",
        &u32::MAX.to_be_bytes(),
        ProofOfAlibi::from_bytes,
        1 << 20,
        size_of::<SignedSample>(),
    );
    // No samples, then a gap count the bytes cannot hold.
    let gaps = [0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF];
    assert_refused_cheaply(
        "gaps",
        &gaps,
        ProofOfAlibi::from_bytes,
        1 << 16,
        size_of::<SignedGapMarker>(),
    );
}

#[test]
fn an_encrypted_submission_claiming_more_blocks_than_bytes_is_refused_unreserved() {
    let empty = Request::SubmitEncryptedPoa {
        drone_id: DroneId::new(1),
        window_start: Timestamp::from_secs(0.0),
        window_end: Timestamp::from_secs(60.0),
        blocks: Vec::new(),
    };
    assert_refused_cheaply(
        "blocks",
        &with_count(empty.to_bytes(), 1 << 20),
        Request::from_bytes,
        1 << 20,
        size_of::<Vec<u8>>(),
    );
}

#[test]
fn responses_claiming_more_elements_than_bytes_are_refused_unreserved() {
    assert_refused_cheaply(
        "zones",
        &with_count(Response::Zones(Vec::new()).to_bytes(), 1 << 20),
        Response::from_bytes,
        1 << 20,
        size_of::<(ZoneId, NoFlyZone)>(),
    );
    // The verdict decoder also reads every replayed `PoaStored` record.
    let verdict = Response::Verdict(Verdict::InsufficientAlibi {
        pair_indices: Vec::new(),
    });
    assert_refused_cheaply(
        "pair indices",
        &with_count(verdict.to_bytes(), 1 << 24),
        Response::from_bytes,
        1 << 24,
        size_of::<usize>(),
    );
}
