//! Simulated device memory: global memory (typed segments with synthetic
//! addresses for coalescing analysis), shared memory (per-block slot array
//! with a bump allocator), and the 8-byte slot encoding used for runtime
//! argument payloads (the `void**` of the paper's outlined functions).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub mod global;
pub mod hier;
pub mod pod;
pub mod ptr;
pub mod shared;

/// Hasher for integer keys (segment ids, cache-line numbers): a Fibonacci
/// multiply, at a fraction of SipHash's cost. hashbrown picks buckets from
/// the low bits, which a multiply leaves unmixed for `u64` keys that
/// differ only in their high bits (strided lines), so `u64` keys also fold
/// the product's high half down.
#[derive(Default)]
pub(crate) struct FibHasher(u64);

const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("integer keys hash through write_u32 or write_u64")
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(FIB);
    }

    fn write_u64(&mut self, key: u64) {
        let p = key.wrapping_mul(FIB);
        self.0 = p ^ (p >> 32);
    }
}

/// A `HashMap` over `u32` or `u64` keys, hashed by [`FibHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<FibHasher>>;
