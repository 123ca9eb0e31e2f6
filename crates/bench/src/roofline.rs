//! STREAM-style bandwidth probe and roofline model for the fused
//! hydro kernels.
//!
//! The perf harness reports throughput in million zones per second;
//! this module supplies the *predicted* roof to hold that against. A
//! triad probe (`a[i] = b[i] + s·c[i]`, the bandwidth-bound STREAM
//! kernel) measures what the host actually streams at the same worker
//! count the parallel fused bench uses. The per-zone byte and flop
//! counts are those of the code the bench runs — fused primitive
//! recovery plus one fused first-order sweep — counted the way Xue,
//! Wang & Roy (arXiv 2305.18057) count finite-volume kernels: the
//! compulsory traffic of each slab the pass touches, with a tile's
//! scratch (face fluxes, carried planes) staying in cache. Stores
//! count once, as the triad's `3 × 8` B does (no write-allocate read).
//! The ghost shell (primitives over allocated zones, ghost-column
//! faces) is left out: at the bench's 56³ it adds about a tenth, so
//! the roof reads a little high and the fraction a little low.

use std::time::Instant;

use hsim_hydro::kernels;
use hsim_hydro::state::{NCONS, NPRIM};

/// What the triad probe measured.
#[derive(Debug, Clone, Copy)]
pub struct TriadProbe {
    /// Sustained bandwidth in GB/s (3 × 8 bytes per element per rep).
    pub gbps: f64,
    /// Elements per array.
    pub len: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// Threads the probe fanned out over.
    pub workers: usize,
}

/// Run the triad probe: `reps` passes of `a[i] = b[i] + s·c[i]` over
/// three `len`-element arrays, split across `workers` threads.
///
/// Scoped threads (not the [`hsim_raja`] pool) keep the probe safe
/// code — each thread owns one disjoint chunk of every array — and
/// the spawn cost is noise against a multi-millisecond streaming
/// pass. Arrays are touched once before timing so page faults and
/// first-touch placement stay out of the measurement.
pub fn measure_triad(workers: usize, len: usize, reps: usize) -> TriadProbe {
    let workers = workers.max(1);
    let s = 3.0_f64;
    let mut a = vec![0.0_f64; len];
    let b = vec![1.5_f64; len];
    let c = vec![2.5_f64; len];
    let chunk = len.div_ceil(workers).max(1);
    let triad_pass = |a: &mut Vec<f64>| {
        std::thread::scope(|scope| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    let n = ac.len();
                    let (bc, cc) = (&bc[..n], &cc[..n]);
                    for i in 0..n {
                        ac[i] = bc[i] + s * cc[i];
                    }
                });
            }
        });
    };
    triad_pass(&mut a); // warm-up: faults, first touch, thread start
    let t0 = Instant::now();
    for _ in 0..reps {
        triad_pass(&mut a);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-12);
    std::hint::black_box(&a);
    let bytes = (3 * 8 * len * reps) as f64;
    TriadProbe {
        gbps: bytes / secs / 1e9,
        len,
        reps,
        workers,
    }
}

/// One f64, in bytes.
const WORD: f64 = 8.0;

/// Compulsory bytes one zone moves through the fused first-order
/// workload the kernel bench times: primitive recovery reads the five
/// conserved variables and writes the five primitives; the sweep (from
/// the target as it stands) reads the five conserved variables and the
/// five primitives, and reads and writes the five target variables.
pub fn first_order_bytes_per_zone() -> f64 {
    let (ncons, nprim) = (NCONS as f64, NPRIM as f64);
    let primitives = (ncons + nprim) * WORD;
    let sweep = (ncons + nprim + 2.0 * ncons) * WORD;
    primitives + sweep
}

/// Flops one zone executes in the same workload, per owned face and
/// zone. Primitive recovery: a density floor, three divides for the
/// velocity, seven for the kinetic energy, three for the floored
/// pressure, three for the sound speed. Per face (three per zone): five
/// for the wavespeed (two `abs`, two adds, a `max`), one for `½s`,
/// eighteen for the ten physical fluxes of both sides, and five per
/// variable for the Rusanov combination. Per zone and variable, three
/// per axis for the flux-difference update.
pub fn first_order_flops_per_zone() -> f64 {
    let ncons = NCONS as f64;
    let primitives = 1.0 + 3.0 + 7.0 + 3.0 + 3.0;
    let per_face = 5.0 + 1.0 + 18.0 + 5.0 * ncons;
    let update = 3.0 * 3.0 * ncons;
    primitives + 3.0 * per_face + update
}

/// Arithmetic intensity (flop/byte) of the fused workload. Under 1,
/// far below a core's flop:byte balance, so the workload is
/// bandwidth-bound and the triad roof is the binding one.
pub fn first_order_intensity() -> f64 {
    first_order_flops_per_zone() / first_order_bytes_per_zone()
}

/// Bandwidth-predicted throughput roof in million zones per second if
/// every compulsory byte of the workload streamed from memory at the
/// triad rate. The fused path's measured throughput divided by this is
/// the `roof_fraction` the CI gate floors.
pub fn predicted_mzones_per_s(triad_gbps: f64) -> f64 {
    triad_gbps * 1e9 / first_order_bytes_per_zone() / 1e6
}

/// `(name, flops/elem, bytes/elem, flop/byte)` for every catalog
/// kernel — the per-kernel arithmetic-intensity table the results
/// file and EXPERIMENTS.md carry.
pub fn kernel_intensities() -> Vec<(&'static str, f64, f64, f64)> {
    kernels::CATALOG
        .iter()
        .map(|d| {
            (
                d.name,
                d.flops_per_elem,
                d.bytes_per_elem,
                d.flops_per_elem / d.bytes_per_elem,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_probe_reports_positive_bandwidth_at_any_worker_count() {
        for workers in [1, 2, 3] {
            let probe = measure_triad(workers, 1 << 16, 2);
            assert!(
                probe.gbps.is_finite() && probe.gbps > 0.0,
                "workers {workers}: {probe:?}"
            );
            assert_eq!(probe.workers, workers);
        }
        // Zero workers clamps to one rather than dividing by zero.
        assert_eq!(measure_triad(0, 1 << 10, 1).workers, 1);
    }

    #[test]
    fn per_zone_traffic_matches_the_hand_count() {
        // (5 + 5) words for the primitives, (5 + 5 + 2 × 5) for the
        // sweep; 17 + 3 × (5 + 1 + 18 + 5 × 5) + 3 × 3 × 5 flops.
        assert_eq!(first_order_bytes_per_zone(), 240.0);
        assert_eq!(first_order_flops_per_zone(), 209.0);
        let ai = first_order_intensity();
        assert!(ai > 0.5 && ai < 1.0, "intensity {ai}");
    }

    #[test]
    fn predicted_roof_scales_linearly_with_bandwidth() {
        let lo = predicted_mzones_per_s(10.0);
        let hi = predicted_mzones_per_s(20.0);
        assert!((hi / lo - 2.0).abs() < 1e-12);
        // 10 GB/s over 240 B/zone ≈ 41.7 Mzones/s.
        assert!((lo - 10.0 * 1e9 / 240.0 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn intensity_table_covers_the_whole_catalog() {
        let table = kernel_intensities();
        assert_eq!(table.len(), kernels::CATALOG.len());
        for (name, flops, bytes, ai) in table {
            assert!(bytes > 0.0, "{name}");
            assert!((ai - flops / bytes).abs() < 1e-15, "{name}");
        }
    }
}
