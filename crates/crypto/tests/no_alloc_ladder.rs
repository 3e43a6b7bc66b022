//! Proof that the Montgomery exponentiation ladder stays off the heap.
//!
//! `MontgomeryContext::mod_pow` converts its operands in and out of
//! `BigUint` (a fixed handful of allocations per call), but the ladder in
//! between, with its window table and temporaries, works on fixed-width
//! stack arrays. So a 1024-bit exponent, hundreds of kernel products,
//! must cost exactly as many allocations as a 17-bit one. A counting
//! global allocator measures that. The count is per thread: `cargo test`
//! runs tests on parallel threads, and one test's allocations must not
//! land in another's count.
//!
//! The 512-bit modulus is 8 words wide, so on a CPU with BMI2 and ADX
//! (`bigint::backend()` says `"adx"`) its ladder runs the ADX kernel;
//! the wider moduli run the portable one.

use alidrone_crypto::bigint::{self, BigUint, MontgomeryContext};
use alidrone_crypto::rng::{Rng, XorShift64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised, so reading it never allocates (no lazy
    // initialisation inside the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while this thread's locals are being torn
    // down; allocations then belong to no measured closure.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A random value of exactly `bits` significant bits.
fn random_bits(rng: &mut XorShift64, bits: usize) -> BigUint {
    let mut bytes = vec![0u8; bits.div_ceil(8)];
    rng.fill_bytes(&mut bytes);
    let top = BigUint::one().shl(bits - 1);
    top.add(&BigUint::from_bytes_be(&bytes).rem(&top))
}

/// Moduli at the kernel widths the protocol uses: a 1024-bit key's CRT
/// prime (8 words), a 1024-bit modulus (16) and a 2048-bit one (32).
#[test]
fn ladder_allocations_do_not_grow_with_the_exponent() {
    let mut rng = XorShift64::seed_from_u64(17);
    for bits in [512usize, 1024, 2048] {
        // Odd, exactly `bits` bits.
        let m = random_bits(&mut rng, bits - 1).shl(1).add(&BigUint::one());
        let ctx = MontgomeryContext::new(&m).expect("odd modulus within the widest kernel");
        let base = random_bits(&mut rng, bits - 1);
        let short = random_bits(&mut rng, 17);
        let long = random_bits(&mut rng, 1024);
        // Warm-up: any one-time lazy set-up lands outside the counts.
        std::hint::black_box(ctx.mod_pow(&base, &long));

        let for_short = allocations_during(|| {
            std::hint::black_box(ctx.mod_pow(&base, &short));
        });
        let for_long = allocations_during(|| {
            std::hint::black_box(ctx.mod_pow(&base, &long));
        });
        assert_eq!(
            for_long,
            for_short,
            "{bits}-bit modulus ({} kernel at 8 words): a 1024-bit exponent \
             allocated {for_long} times, a 17-bit one {for_short}: the ladder allocates",
            bigint::backend()
        );
    }
}
