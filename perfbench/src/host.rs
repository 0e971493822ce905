//! Host speed, measured by a fixed reference kernel interleaved with the
//! cells, so the end-to-end times can be given at a nominal host speed.
//!
//! The simulator's host time is bound by the memory system, which the
//! machine's other tenants share: a pass of fig11-fast took 22–44 s
//! within an hour on one 2-vCPU host, and ten runs of identical code
//! spread by up to 37% between their quartiles. The kernel below does
//! the same kind of work as the simulator (hashing, hash-map probes and
//! random reads and writes over a 2 MB table, the size of a core's L2)
//! and is timed after every cell. Over 12 passes of fig11-fast, the
//! pass time and the kernel's summed time correlated at r = 0.99: the
//! raw pass time spread by 30% (max - min over median), the pass time
//! divided by the kernel's by 5.5%.
//!
//! The kernel is this package's own code, which a change to the
//! simulator does not touch, so a faster simulator still shows as a
//! shorter normalized time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operations in one kernel sample.
const STEPS: u64 = 2_000_000;

/// About the kernel's time on an unloaded 2-vCPU KVM guest on a Xeon
/// with 2 MB L2 per core, the host the bounds were measured on. It is
/// only a scale: a normalized time is a measured time times `NOMINAL /
/// measured kernel time`.
pub const NOMINAL: Duration = Duration::from_millis(50);

/// Keys drawn, a quarter of which are ever inserted (about 0.4 MB of
/// map).
const KEYS: u64 = 1 << 16;
/// Slots in the side table (2 MB of `u64`).
const SLOTS: usize = 1 << 18;

/// The reference kernel: `STEPS` operations of a deterministic mix of
/// map inserts, lookups and removals and random side-table updates.
/// Returns a checksum so the work cannot be optimized away.
pub fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut table = vec![0u64; SLOTS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        match key % 4 {
            0 => {
                map.insert(key, x);
            }
            1 => acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(0)),
            2 => {
                map.remove(&key);
            }
            _ => {
                let i = (x >> 20) as usize % SLOTS;
                table[i] = table[i].wrapping_add(x);
                acc ^= table[i.wrapping_mul(7) % SLOTS];
            }
        }
    }
    acc ^ map.len() as u64
}

/// Times one kernel sample.
pub fn sample() -> Duration {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed()
}

/// How much slower than nominal the host ran over `samples` kernel
/// samples that took `total` together: 1 at nominal speed, 2 at half.
pub fn slowdown(total: Duration, samples: usize) -> f64 {
    total.as_secs_f64() / (NOMINAL.as_secs_f64() * samples.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nominal time belongs to this exact kernel: a change to it
    /// must re-measure `NOMINAL` and update the checksum together.
    #[test]
    fn kernel_is_pinned() {
        assert_eq!(kernel(), kernel());
        assert_eq!(kernel(), 11_476_027_737_420_729_330);
    }
}
