//! Halo exchange and global reductions over the simulated MPI,
//! including host-staging charges for GPU-resident data.
//!
//! "Currently in ARES, the communication happens through the host
//! (CPU) only. Future hardware and software will enable direct
//! communication between GPUs, called GPU direct." (§5.3.) The
//! `gpu_direct` flag implements that future-work toggle: it removes
//! the D2H/H2D staging legs from the halo path.

use hsim_gpu::{xfer, DeviceSpec};
use hsim_hydro::{CoupleError, Coupler, HydroState, NCONS};
use hsim_mesh::{Decomposition, Exchange, HaloPlan};
use hsim_mpi::{Comm, Payload};
use hsim_raja::Fidelity;
use hsim_time::clock::ChargeKind;
use hsim_time::RankClock;

/// `comm` with the rank's `clock` lent to it: the two swap places
/// until the loan is dropped, so every send overhead, arrival wait and
/// collective hop made through it is charged to the one clock the
/// rank keeps, at the instant the rank had reached. The communicator's
/// own clock is never advanced by a cooperative run. A guard rather
/// than a closure so that the loan can span an `.await`.
pub(crate) struct LentClock<'a> {
    comm: &'a mut Comm,
    clock: &'a mut RankClock,
}

pub(crate) fn lend_clock<'a>(comm: &'a mut Comm, clock: &'a mut RankClock) -> LentClock<'a> {
    std::mem::swap(comm.clock_mut(), clock);
    LentClock { comm, clock }
}

impl std::ops::Deref for LentClock<'_> {
    type Target = Comm;
    fn deref(&self) -> &Comm {
        self.comm
    }
}

impl std::ops::DerefMut for LentClock<'_> {
    fn deref_mut(&mut self) -> &mut Comm {
        self.comm
    }
}

impl Drop for LentClock<'_> {
    fn drop(&mut self) {
        std::mem::swap(self.comm.clock_mut(), self.clock);
    }
}

/// A halo face message: real data in full fidelity, an empty vector
/// with the true wire size in cost-only fidelity.
pub struct FaceMsg {
    pub data: Vec<f64>,
    pub wire_bytes: u64,
}

impl Payload for FaceMsg {
    fn byte_len(&self) -> u64 {
        self.wire_bytes
    }
}

/// The cooperative runner's [`Coupler`]: ghost exchange + reductions.
pub struct MpiCoupler<'a> {
    pub comm: &'a mut Comm,
    pub plan: &'a HaloPlan,
    pub decomp: &'a Decomposition,
    /// `Some(spec)` when this rank's mesh data is GPU-resident (its
    /// halo faces must be staged through the host).
    pub gpu_spec: Option<DeviceSpec>,
    /// §5.3 future work: GPUs exchange halos directly.
    pub gpu_direct: bool,
}

impl MpiCoupler<'_> {
    /// The global box this rank sends for exchange `ex` (the owned
    /// strip adjacent to the shared plane) and the ghost box it
    /// receives into, as `(send_lo, send_hi, recv_lo, recv_hi)`.
    fn boxes(
        &self,
        rank: usize,
        ex: &Exchange,
        ghost: usize,
    ) -> ([i64; 3], [i64; 3], [i64; 3], [i64; 3]) {
        let axis = ex.axis;
        let g = ghost as i64;
        let plane = ex.plane as i64;
        let mut s_lo = [0i64; 3];
        let mut s_hi = [0i64; 3];
        let mut r_lo = [0i64; 3];
        let mut r_hi = [0i64; 3];
        for a in 0..3 {
            if a == axis {
                continue;
            }
            s_lo[a] = ex.lo[a] as i64;
            s_hi[a] = ex.hi[a] as i64;
            r_lo[a] = ex.lo[a] as i64;
            r_hi[a] = ex.hi[a] as i64;
        }
        if rank == ex.a {
            // Low side: own zones just below the plane; ghosts above.
            s_lo[axis] = plane - g;
            s_hi[axis] = plane;
            r_lo[axis] = plane;
            r_hi[axis] = plane + g;
        } else {
            s_lo[axis] = plane;
            s_hi[axis] = plane + g;
            r_lo[axis] = plane - g;
            r_hi[axis] = plane;
        }
        (s_lo, s_hi, r_lo, r_hi)
    }

    /// Convert a global zone box to allocated-local coordinates for
    /// this rank (`local = global − sub.lo + ghost`; ghost cells land
    /// at indices `< ghost` or `≥ ghost + extent`).
    fn to_local(&self, rank: usize, lo: [i64; 3], hi: [i64; 3]) -> ([usize; 3], [usize; 3]) {
        let sub = &self.decomp.domains[rank];
        let g = sub.ghost as i64;
        let mut llo = [0usize; 3];
        let mut lhi = [0usize; 3];
        for a in 0..3 {
            let base = sub.lo[a] as i64;
            let l = lo[a] - base + g;
            let h = hi[a] - base + g;
            debug_assert!(l >= 0, "box {lo:?} below rank {rank} domain");
            llo[a] = l as usize;
            lhi[a] = h as usize;
        }
        (llo, lhi)
    }

    /// The cost of one staging leg (device↔host) for `bytes` of halo
    /// data; zero when this rank's mesh is host-resident or there is
    /// nothing to move.
    fn staging_cost(&self, bytes: u64) -> hsim_time::SimDuration {
        match &self.gpu_spec {
            Some(spec) if bytes > 0 => xfer::halo_leg_time(spec, bytes, false),
            _ => hsim_time::SimDuration::ZERO,
        }
    }

    /// The cost of a peer-to-peer DMA for `bytes` (only nonzero with
    /// GPU-direct on a GPU-resident mesh; zero bytes are free).
    fn p2p_cost(&self, bytes: u64) -> hsim_time::SimDuration {
        match &self.gpu_spec {
            Some(spec) if self.gpu_direct && bytes > 0 => xfer::p2p_time(spec, bytes),
            _ => hsim_time::SimDuration::ZERO,
        }
    }

    /// Split this rank's halo bytes into (to/from GPU-rank peers,
    /// everything else).
    fn classify_bytes(
        &self,
        rank: usize,
        exchanges: &[(usize, Exchange)],
        ghost: usize,
    ) -> (u64, u64) {
        let mut gpu_peer = 0;
        let mut other = 0;
        for (_, ex) in exchanges {
            let peer = if ex.a == rank { ex.b } else { ex.a };
            let bytes = ex.bytes(ghost) * NCONS as u64;
            if self.decomp.owners[peer].is_gpu() {
                gpu_peer += bytes;
            } else {
                other += bytes;
            }
        }
        (gpu_peer, other)
    }
}

impl Coupler for MpiCoupler<'_> {
    async fn exchange(
        &mut self,
        state: &mut HydroState,
        clock: &mut RankClock,
    ) -> Result<(), CoupleError> {
        let rank = self.comm.rank();
        let ghost = self.decomp.domains[rank].ghost;
        let exchanges: Vec<(usize, Exchange)> = self
            .plan
            .exchanges_for_indexed(rank)
            .map(|(i, e)| (i, e.clone()))
            .collect();
        if exchanges.is_empty() {
            return Ok(());
        }
        // Injected link delay (hsim-faults): the slow link charges its
        // virtual latency before any staging leg; data is unaffected.
        if let Some(hit) = hsim_faults::check(hsim_faults::Site::XferDelay) {
            hsim_telemetry::count(hsim_telemetry::Counter::FaultsInjected, 1);
            let t0 = clock.now();
            clock.charge(
                ChargeKind::Comm,
                hsim_time::SimDuration::from_nanos(hit.param),
            );
            hsim_telemetry::count(hsim_telemetry::Counter::FaultsRecovered, 1);
            hsim_telemetry::rank_span(
                hsim_telemetry::Category::Transfer,
                "fault_xfer_delay",
                t0,
                clock.now(),
            );
        }

        // Outgoing transfer legs. Without GPU-direct every byte of a
        // GPU-resident mesh stages D2H; with it, faces bound for other
        // GPU ranks go peer-to-peer in a single DMA charged on the
        // sender (§5.3), while faces for CPU ranks still cross the
        // host both ways.
        let (gpu_peer_bytes, other_bytes) = self.classify_bytes(rank, &exchanges, ghost);
        let staged_out = other_bytes + if self.gpu_direct { 0 } else { gpu_peer_bytes };
        let p2p_out = if self.gpu_direct { gpu_peer_bytes } else { 0 };
        let t_stage = clock.now();
        let cost = self.staging_cost(staged_out) + self.p2p_cost(p2p_out);
        clock.charge(ChargeKind::Memory, cost);
        if cost > hsim_time::SimDuration::ZERO {
            hsim_telemetry::rank_span(
                hsim_telemetry::Category::Transfer,
                "halo_stage_out",
                t_stage,
                clock.now(),
            );
        }

        // Post all sends first (buffered transport: no deadlock).
        for (idx, ex) in &exchanges {
            let peer = if ex.a == rank { ex.b } else { ex.a };
            let (s_lo, s_hi, _, _) = self.boxes(rank, ex, ghost);
            for var in 0..NCONS {
                let tag = (*idx as u32) * 16 + var as u32 * 2 + u32::from(ex.a == rank);
                let data = if state.fidelity == Fidelity::Full {
                    let (llo, lhi) = self.to_local(rank, s_lo, s_hi);
                    state.u.pack_box(var, llo, lhi)
                } else {
                    Vec::new()
                };
                let msg = FaceMsg {
                    data,
                    wire_bytes: ex.bytes(ghost),
                };
                lend_clock(self.comm, clock)
                    .send(peer, tag, msg)
                    .map_err(|e| CoupleError {
                        op: "halo_send",
                        detail: format!("rank {rank} -> {peer}: {e}"),
                    })?;
            }
        }

        // Receive and unpack.
        let mut in_bytes = 0u64;
        for (idx, ex) in &exchanges {
            let peer = if ex.a == rank { ex.b } else { ex.a };
            let (_, _, r_lo, r_hi) = self.boxes(rank, ex, ghost);
            for var in 0..NCONS {
                // The peer's direction bit is the complement of ours.
                let tag = (*idx as u32) * 16 + var as u32 * 2 + u32::from(ex.a == peer);
                let msg: FaceMsg = lend_clock(self.comm, clock)
                    .irecv(peer, tag)
                    .await
                    .map_err(|e| CoupleError {
                        op: "halo_recv",
                        detail: format!("rank {rank} <- {peer}: {e}"),
                    })?;
                in_bytes += msg.wire_bytes;
                if state.fidelity == Fidelity::Full {
                    let (llo, lhi) = self.to_local(rank, r_lo, r_hi);
                    state.u.unpack_box(var, llo, lhi, &msg.data);
                }
            }
        }
        // Incoming staging: with GPU-direct the peer's DMA already
        // delivered GPU-peer faces into device memory (no charge
        // here); CPU-peer faces — and everything without GPU-direct —
        // pay the H2D leg.
        let _ = in_bytes;
        let t_stage = clock.now();
        let cost = self.staging_cost(staged_out);
        clock.charge(ChargeKind::Memory, cost);
        if cost > hsim_time::SimDuration::ZERO {
            hsim_telemetry::rank_span(
                hsim_telemetry::Category::Transfer,
                "halo_stage_in",
                t_stage,
                clock.now(),
            );
        }

        // Injected corruption (hsim-faults): the received faces fail
        // their checksum and the whole exchange is re-sent with
        // exponential backoff. The wire data is re-read from the
        // still-correct source fields, so physics is untouched; only
        // virtual time is lost. Corruption is inherently transient
        // here — a `perm` marking caps at the full retry budget.
        if let Some(hit) = hsim_faults::check(hsim_faults::Site::XferCorrupt) {
            hsim_telemetry::count(hsim_telemetry::Counter::FaultsInjected, 1);
            let t0 = clock.now();
            let retries = match hit.severity {
                hsim_faults::Severity::Permanent => hsim_faults::MAX_RETRIES,
                hsim_faults::Severity::Transient { count } => count.min(hsim_faults::MAX_RETRIES),
            };
            let resend = match &self.gpu_spec {
                Some(spec) if staged_out > 0 => {
                    xfer::retry_leg_time(spec, staged_out, self.gpu_direct)
                }
                _ => hsim_time::SimDuration::ZERO,
            };
            for attempt in 0..retries {
                clock.charge(ChargeKind::Memory, resend);
                clock.charge(ChargeKind::Wait, hsim_faults::backoff_delay(attempt));
                hsim_telemetry::count(hsim_telemetry::Counter::FaultRetries, 1);
            }
            hsim_telemetry::count(hsim_telemetry::Counter::FaultsRecovered, 1);
            hsim_telemetry::rank_span(
                hsim_telemetry::Category::Transfer,
                "fault_xfer_retry",
                t0,
                clock.now(),
            );
        }
        Ok(())
    }

    async fn allreduce_min(&mut self, x: f64, clock: &mut RankClock) -> Result<f64, CoupleError> {
        lend_clock(self.comm, clock)
            .iallreduce(x, f64::min)
            .await
            .map_err(|e| CoupleError {
                op: "allreduce_min",
                detail: e.to_string(),
            })
    }

    async fn migrate_particles(
        &mut self,
        outbound: Vec<Vec<f64>>,
        clock: &mut RankClock,
    ) -> Result<Vec<Vec<f64>>, CoupleError> {
        lend_clock(self.comm, clock)
            .ialltoallv_f64(outbound)
            .await
            .map_err(|e| CoupleError {
                op: "particle_migrate",
                detail: e.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_mesh::decomp::block::block_decomp;
    use hsim_mesh::GlobalGrid;
    use hsim_mpi::{CommCost, World};
    use hsim_raja::{CpuModel, Executor, Target};
    use hsim_time::task::block_on;
    use hsim_time::SimDuration;

    /// Two ranks split along x; verify ghosts carry the neighbor's
    /// boundary values after an exchange.
    #[test]
    fn exchange_fills_ghosts_with_neighbor_data() {
        let grid = GlobalGrid::new(8, 4, 4);
        let decomp = block_decomp(grid, 2, 1);
        let plan = HaloPlan::build(&decomp);
        let decomp = &decomp;
        let plan = &plan;
        let ok = World::run(2, CommCost::on_node(), |comm| {
            let rank = comm.rank();
            let sub = decomp.domains[rank];
            let mut state = HydroState::new(grid, sub, Fidelity::Full);
            // Tag every owned zone of every field with rank*1000 + var.
            for var in 0..NCONS {
                state.u.fill_owned(var, (rank * 1000 + var) as f64);
            }
            let mut clock = RankClock::new(rank);
            let mut coupler = MpiCoupler {
                comm,
                plan,
                decomp,
                gpu_spec: None,
                gpu_direct: false,
            };
            block_on(coupler.exchange(&mut state, &mut clock)).expect("exchange on a live world");
            // Rank 0 owns x ∈ [0,4): its high-x ghosts (allocated x =
            // 5) must now hold rank 1's values; mirrored for rank 1.
            let expect = ((1 - rank) * 1000) as f64;
            let f = &state.u;
            let gx = if rank == 0 { 5 } else { 0 };
            let idx = f.idx(gx, 2, 2);
            (f.var(0)[idx] - expect).abs() < 1e-12
        });
        assert!(ok.iter().all(|&b| b), "{ok:?}");
    }

    #[test]
    fn exchange_charges_comm_time() {
        let grid = GlobalGrid::new(16, 16, 16);
        let decomp = block_decomp(grid, 2, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let times = World::run(2, CommCost::on_node(), |comm| {
            let rank = comm.rank();
            let sub = decomp.domains[rank];
            let mut state = HydroState::new(grid, sub, Fidelity::CostOnly);
            let mut clock = RankClock::new(rank);
            let mut coupler = MpiCoupler {
                comm,
                plan,
                decomp,
                gpu_spec: None,
                gpu_direct: false,
            };
            block_on(coupler.exchange(&mut state, &mut clock)).expect("exchange on a live world");
            clock.now().as_nanos()
        });
        // 16x16 face × 5 fields × 8 B ≈ 10 KB each way + latency.
        assert!(times.iter().all(|&t| t > 1_000), "{times:?}");
    }

    /// Injected transfer faults charge virtual time on the faulted
    /// rank only, recover without touching physics, and replay
    /// byte-identically for the same plan.
    #[test]
    fn injected_transfer_faults_charge_virtual_time_deterministically() {
        use std::sync::Arc;
        let grid = GlobalGrid::new(16, 16, 16);
        let decomp = block_decomp(grid, 2, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let run = |spec: &str| {
            let fp = Arc::new(hsim_faults::FaultPlan::parse(spec).unwrap());
            World::run(2, CommCost::on_node(), |comm| {
                let rank = comm.rank();
                hsim_faults::install(rank, fp.clone());
                hsim_faults::set_cycle(0);
                let sub = decomp.domains[rank];
                let mut state = HydroState::new(grid, sub, Fidelity::CostOnly);
                let mut clock = RankClock::new(rank);
                let mut coupler = MpiCoupler {
                    comm,
                    plan,
                    decomp,
                    gpu_spec: None,
                    gpu_direct: false,
                };
                block_on(coupler.exchange(&mut state, &mut clock))
                    .expect("exchange on a live world");
                hsim_faults::uninstall();
                clock.now().as_nanos()
            })
        };
        let base = run("");
        let delayed = run("xfer.delay@rank0.cycle0:ns=200000");
        assert!(
            delayed[0] >= base[0] + 200_000,
            "delay not charged: {} vs {}",
            delayed[0],
            base[0]
        );
        // Same plan twice: byte-identical virtual times.
        assert_eq!(delayed, run("xfer.delay@rank0.cycle0:ns=200000"));
        let corrupted = run("xfer.corrupt@rank0.cycle0");
        assert!(
            corrupted[0] >= base[0] + hsim_faults::BACKOFF_BASE_NS,
            "retry backoff not charged: {} vs {}",
            corrupted[0],
            base[0]
        );
    }

    #[test]
    fn gpu_staging_adds_memory_charges_unless_gpu_direct() {
        let grid = GlobalGrid::new(16, 16, 16);
        let decomp = block_decomp(grid, 2, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let mut measured = Vec::new();
        for gpu_direct in [false, true] {
            let charges = World::run(2, CommCost::on_node(), |comm| {
                let rank = comm.rank();
                let sub = decomp.domains[rank];
                let mut state = HydroState::new(grid, sub, Fidelity::CostOnly);
                let mut clock = RankClock::new(rank);
                let mut coupler = MpiCoupler {
                    comm,
                    plan,
                    decomp,
                    gpu_spec: Some(DeviceSpec::tesla_k80()),
                    gpu_direct,
                };
                block_on(coupler.exchange(&mut state, &mut clock))
                    .expect("exchange on a live world");
                clock.bucket(ChargeKind::Memory).as_nanos()
            });
            assert!(charges.iter().all(|&c| c > 0), "{charges:?}");
            measured.push(charges[0]);
        }
        // GPU-direct (one peer DMA) must beat two staging legs.
        assert!(
            measured[1] < measured[0],
            "gpu-direct {} vs staged {}",
            measured[1],
            measured[0]
        );
    }

    #[test]
    fn allreduce_min_agrees_across_ranks_and_advances_clocks() {
        let grid = GlobalGrid::new(8, 8, 8);
        let decomp = block_decomp(grid, 4, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let out = World::run(4, CommCost::on_node(), |comm| {
            let rank = comm.rank();
            let mut clock = RankClock::new(rank);
            clock.charge(ChargeKind::Compute, SimDuration::from_micros(rank as u64));
            let mut coupler = MpiCoupler {
                comm,
                plan,
                decomp,
                gpu_spec: None,
                gpu_direct: false,
            };
            let m = block_on(coupler.allreduce_min(1.0 + rank as f64, &mut clock))
                .expect("allreduce on a live world");
            (m, clock.now().as_nanos())
        });
        for (m, t) in &out {
            assert_eq!(*m, 1.0);
            // Everyone waited for the slowest entrant (3 µs).
            assert!(*t >= 3_000, "clock {t}");
        }
    }

    /// The keystone correctness test: a 4-rank cooperative run must
    /// produce *bitwise* the same physics as a single-domain run
    /// (all reductions are exact-min, so no FP reordering exists).
    #[test]
    fn multirank_sedov_matches_solo_bitwise() {
        use hsim_hydro::sedov::{self, SedovConfig};
        use hsim_hydro::{step, SoloCoupler};

        let grid = GlobalGrid::new(16, 16, 16);
        // Solo reference.
        let solo_rho = {
            let sub = hsim_mesh::Subdomain::new([0, 0, 0], [16, 16, 16], 1);
            let mut st = HydroState::new(grid, sub, Fidelity::Full);
            sedov::init(&mut st, &SedovConfig::default());
            let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
            let mut clock = RankClock::new(0);
            let mut solo = SoloCoupler;
            for _ in 0..4 {
                step(&mut st, &mut exec, &mut clock, &mut solo, 0.3, 1.0).unwrap();
            }
            st
        };

        let decomp = block_decomp(grid, 4, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let pieces = World::run(4, CommCost::on_node(), |comm| {
            let rank = comm.rank();
            let sub = decomp.domains[rank];
            let mut st = HydroState::new(grid, sub, Fidelity::Full);
            sedov::init(&mut st, &SedovConfig::default());
            let mut exec = Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
            let mut clock = RankClock::new(rank);
            let mut coupler = MpiCoupler {
                comm,
                plan,
                decomp,
                gpu_spec: None,
                gpu_direct: false,
            };
            for _ in 0..4 {
                step(&mut st, &mut exec, &mut clock, &mut coupler, 0.3, 1.0).unwrap();
            }
            // Return owned density values with global coordinates.
            let mut out = Vec::new();
            for k in 0..sub.extent(2) {
                for j in 0..sub.extent(1) {
                    for i in 0..sub.extent(0) {
                        out.push((
                            [i + sub.lo[0], j + sub.lo[1], k + sub.lo[2]],
                            st.u.get(0, i, j, k),
                        ));
                    }
                }
            }
            out
        });
        let mut checked = 0;
        for piece in pieces {
            for ([i, j, k], rho) in piece {
                let reference = solo_rho.u.get(0, i, j, k);
                assert_eq!(
                    rho.to_bits(),
                    reference.to_bits(),
                    "density mismatch at ({i},{j},{k}): {rho} vs {reference}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 16 * 16 * 16);
    }
}
