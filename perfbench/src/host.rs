//! The host-speed reference.
//!
//! On a shared host the CPU speed a process gets drifts by up to 2× over
//! minutes, and the two vCPUs drift independently. Wall-clock figures
//! taken minutes apart then differ by more than any useful bound. So
//! between replays the benchmark also times a fixed workload of its own,
//! which runs none of the program's code, and reports its CPU-bound
//! figures scaled to a reference host on which that workload takes
//! [`NOMINAL_S`]. A change to the program moves the scaled figures as it
//! moves the raw ones; a change in the host's speed moves both the raw
//! figures and the reference, and cancels out.

use std::collections::BTreeMap;
use std::time::Instant;

/// Duration of one [`kernel`] call on the reference host, seconds (about
/// its median, two calls at a time, on the 2-vCPU host this benchmark was
/// written on).
pub const NOMINAL_S: f64 = 400e-6;

/// Kernel calls per timed batch.
const CALLS: usize = 16;

/// The reference workload: ordered-map inserts of small vectors, a scan,
/// a sort and some formatting — allocation- and cache-heavy work of the
/// kind the answer path does, with a fixed input.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..2_000 {
        let k = next() % 1_024;
        map.entry(k).or_default().push(next());
    }
    let mut v: Vec<u64> = map.values().flatten().copied().collect();
    v.sort_unstable();
    let text: String = v.iter().take(200).map(|x| format!("{x:x};")).collect();
    v.iter().fold(text.len() as u64, |a, &b| a.wrapping_add(b))
}

/// Mean duration of one kernel call over a batch of back-to-back calls
/// on each of `threads` threads at once, seconds. The plane keeps both
/// vCPUs busy and their speeds drift independently, so the reference
/// times all of them together.
pub fn reference_batch(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let t0 = Instant::now();
                    for _ in 0..CALLS {
                        std::hint::black_box(kernel());
                    }
                    t0.elapsed().as_secs_f64() / CALLS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_time() {
        assert_eq!(kernel(), kernel());
        assert!(reference_batch(2) > 0.0);
    }
}
