//! The kernel catalog: per-element cost descriptors for every kernel
//! the hydro cycle launches.
//!
//! The flop/byte counts are hand-counted from the kernel bodies (reads
//! and writes of f64 fields; arithmetic in the body). They drive both
//! the GPU roofline and the CPU cost model, so the CPU:GPU speed ratio
//! the load balancer sees comes from the same numbers the kernels
//! would really exhibit.

use hsim_gpu::KernelDesc;

/// Velocity primitives from conserved momentum: 3 divides, 4 fields.
pub const VELOCITY: KernelDesc = KernelDesc {
    name: "primitives_velocity",
    flops_per_elem: 6.0,
    bytes_per_elem: 56.0,
};

/// Pressure from conserved energy (gamma law): ~8 flops.
pub const PRESSURE: KernelDesc = KernelDesc {
    name: "primitives_pressure",
    flops_per_elem: 10.0,
    bytes_per_elem: 56.0,
};

/// Sound speed: sqrt + divide.
pub const SOUND_SPEED: KernelDesc = KernelDesc {
    name: "primitives_soundspeed",
    flops_per_elem: 8.0,
    bytes_per_elem: 24.0,
};

/// Per-face max wavespeed for Rusanov dissipation.
pub const WAVESPEED: KernelDesc = KernelDesc {
    name: "face_wavespeed",
    flops_per_elem: 8.0,
    bytes_per_elem: 40.0,
};

/// One conserved variable's Rusanov face flux.
pub const FLUX: KernelDesc = KernelDesc {
    name: "face_flux",
    flops_per_elem: 14.0,
    bytes_per_elem: 64.0,
};

/// Flux-difference update of one conserved variable.
pub const UPDATE: KernelDesc = KernelDesc {
    name: "flux_update",
    flops_per_elem: 5.0,
    bytes_per_elem: 40.0,
};

/// Heun combine: U = (U0 + U*)/2.
pub const COMBINE: KernelDesc = KernelDesc {
    name: "rk_combine",
    flops_per_elem: 3.0,
    bytes_per_elem: 24.0,
};

/// Reflecting boundary fill for one field (touches faces only; cost
/// charged per touched element).
pub const BOUNDARY: KernelDesc = KernelDesc {
    name: "boundary_fill",
    flops_per_elem: 2.0,
    bytes_per_elem: 16.0,
};

/// Per-zone CFL bound (the min-reduction kernel).
pub const CFL: KernelDesc = KernelDesc {
    name: "cfl_minreduce",
    flops_per_elem: 12.0,
    bytes_per_elem: 40.0,
};

/// Snapshot copy of the conserved state (RK stage 0).
pub const SAVE_STATE: KernelDesc = KernelDesc {
    name: "save_state",
    flops_per_elem: 0.0,
    bytes_per_elem: 16.0,
};

/// Internal-energy extraction for the diffusion package.
pub const DIFF_EINT: KernelDesc = KernelDesc {
    name: "diffusion_internal_energy",
    flops_per_elem: 9.0,
    bytes_per_elem: 48.0,
};

/// Diffusive face flux of internal energy.
pub const DIFF_FLUX: KernelDesc = KernelDesc {
    name: "diffusion_face_flux",
    flops_per_elem: 4.0,
    bytes_per_elem: 24.0,
};

/// Diffusive flux-difference update.
pub const DIFF_UPDATE: KernelDesc = KernelDesc {
    name: "diffusion_update",
    flops_per_elem: 4.0,
    bytes_per_elem: 32.0,
};

/// MUSCL minmod reconstruction of one variable's face states.
pub const MUSCL_RECON: KernelDesc = KernelDesc {
    name: "muscl_reconstruct",
    flops_per_elem: 10.0,
    bytes_per_elem: 48.0,
};

/// Face-primitive recovery from reconstructed states.
pub const FACE_PRIMS: KernelDesc = KernelDesc {
    name: "face_primitives",
    flops_per_elem: 30.0,
    bytes_per_elem: 120.0,
};

/// All catalog entries (for reports and the workload generator).
pub const CATALOG: [&KernelDesc; 15] = [
    &VELOCITY,
    &PRESSURE,
    &SOUND_SPEED,
    &WAVESPEED,
    &FLUX,
    &UPDATE,
    &COMBINE,
    &BOUNDARY,
    &CFL,
    &SAVE_STATE,
    &DIFF_EINT,
    &DIFF_FLUX,
    &DIFF_UPDATE,
    &MUSCL_RECON,
    &FACE_PRIMS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = CATALOG.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
    }

    #[test]
    fn descriptors_have_positive_traffic() {
        for d in CATALOG {
            assert!(d.bytes_per_elem > 0.0, "{} moves no bytes", d.name);
            assert!(d.flops_per_elem >= 0.0);
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flux_kernels_are_the_heaviest_per_element() {
        assert!(FLUX.bytes_per_elem >= UPDATE.bytes_per_elem);
        assert!(FLUX.flops_per_elem > COMBINE.flops_per_elem);
    }
}
