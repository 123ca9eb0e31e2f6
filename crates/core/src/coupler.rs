//! Halo exchange and global reductions over the simulated MPI,
//! including host-staging charges for GPU-resident data.
//!
//! "Currently in ARES, the communication happens through the host
//! (CPU) only. Future hardware and software will enable direct
//! communication between GPUs, called GPU direct." (§5.3.) The
//! `gpu_direct` flag implements that future-work toggle: it removes
//! the D2H/H2D staging legs from the halo path.

use std::any::TypeId;

use hsim_gpu::{xfer, DeviceSpec};
use hsim_hydro::{CoupleError, Coupler, HydroState, NCONS};
use hsim_mesh::{Decomposition, Exchange, HaloPlan};
use hsim_mpi::{Body, Comm, Payload};
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

/// A transfer fault recovery gave up on (neither transfer site
/// escalates today; the policy, not this call site, decides that).
fn fault_error(e: hsim_faults::Escalation) -> CoupleError {
    CoupleError {
        op: e.site.spec_name(),
        detail: e.to_string(),
    }
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
#[derive(Debug, PartialEq)]
pub struct FaceMsg {
    pub data: Vec<f64>,
    pub wire_bytes: u64,
}

impl Payload for FaceMsg {
    fn byte_len(&self) -> u64 {
        self.wire_bytes
    }

    /// A face without data travels as its wire size alone.
    fn into_body(self) -> Body {
        if self.data.is_empty() {
            Body::Empty(TypeId::of::<FaceMsg>())
        } else {
            Body::Any(Box::new(self))
        }
    }

    fn from_body(body: Body, bytes: u64) -> Option<Self> {
        match body {
            Body::Empty(id) if id == TypeId::of::<FaceMsg>() => Some(FaceMsg {
                data: Vec::new(),
                wire_bytes: bytes,
            }),
            body => body.downcast(),
        }
    }
}

/// One face a rank exchanges: what its halo exchange sends and
/// receives there, worked out once per segment.
#[derive(Debug, Clone, PartialEq)]
struct Face {
    peer: usize,
    /// The five per-variable messages' tags, this rank's direction and
    /// the peer's.
    send_tags: [u32; NCONS],
    recv_tags: [u32; NCONS],
    /// The owned strip sent and the ghost strip received, in
    /// allocated-local coordinates.
    send: ([usize; 3], [usize; 3]),
    recv: ([usize; 3], [usize; 3]),
    /// Wire bytes of one variable's strip.
    bytes: u64,
}

/// The cooperative runner's [`Coupler`]: ghost exchange + reductions.
pub struct MpiCoupler<'a> {
    pub comm: &'a mut Comm,
    /// This rank's faces, in halo-plan order.
    faces: Vec<Face>,
    /// Halo bytes a cycle's exchange moves to and from GPU-rank peers,
    /// and to and from everyone else.
    gpu_peer_bytes: u64,
    other_bytes: u64,
    /// `Some(spec)` when this rank's mesh data is GPU-resident (its
    /// halo faces must be staged through the host).
    gpu_spec: Option<DeviceSpec>,
    /// §5.3 future work: GPUs exchange halos directly.
    gpu_direct: bool,
}

impl<'a> MpiCoupler<'a> {
    /// The coupler of `comm`'s rank in `decomp`, whose faces `plan`
    /// lists; `gpu_spec` is `Some` when the rank's mesh is GPU-resident.
    pub fn new(
        comm: &'a mut Comm,
        plan: &HaloPlan,
        decomp: &Decomposition,
        gpu_spec: Option<DeviceSpec>,
        gpu_direct: bool,
    ) -> Self {
        let rank = comm.rank();
        let ghost = decomp.domains[rank].ghost;
        let (mut gpu_peer_bytes, mut other_bytes) = (0, 0);
        let faces = plan.exchanges_for_indexed(rank).map(|(idx, ex)| {
            let peer = if ex.a == rank { ex.b } else { ex.a };
            let bytes = ex.bytes(ghost);
            if decomp.owners[peer].is_gpu_driver() {
                gpu_peer_bytes += bytes * NCONS as u64;
            } else {
                other_bytes += bytes * NCONS as u64;
            }
            // The peer's direction bit is the complement of ours.
            let tags = |dir: bool| {
                std::array::from_fn(|var| idx as u32 * 16 + var as u32 * 2 + u32::from(dir))
            };
            let (s_lo, s_hi, r_lo, r_hi) = boxes(rank, ex, ghost);
            Face {
                peer,
                send_tags: tags(ex.a == rank),
                recv_tags: tags(ex.a == peer),
                send: to_local(decomp, rank, s_lo, s_hi),
                recv: to_local(decomp, rank, r_lo, r_hi),
                bytes,
            }
        });
        let faces = faces.collect();
        MpiCoupler {
            comm,
            faces,
            gpu_peer_bytes,
            other_bytes,
            gpu_spec,
            gpu_direct,
        }
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
}

/// The global box `rank` sends for exchange `ex` (the owned strip
/// adjacent to the shared plane) and the ghost box it receives into, as
/// `(send_lo, send_hi, recv_lo, recv_hi)`.
fn boxes(rank: usize, ex: &Exchange, ghost: usize) -> ([i64; 3], [i64; 3], [i64; 3], [i64; 3]) {
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

/// Convert a global zone box to allocated-local coordinates for `rank`
/// (`local = global − sub.lo + ghost`; ghost cells land at indices
/// `< ghost` or `≥ ghost + extent`).
fn to_local(
    decomp: &Decomposition,
    rank: usize,
    lo: [i64; 3],
    hi: [i64; 3],
) -> ([usize; 3], [usize; 3]) {
    let sub = &decomp.domains[rank];
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

impl Coupler for MpiCoupler<'_> {
    async fn exchange(
        &mut self,
        state: &mut HydroState,
        clock: &mut RankClock,
    ) -> Result<(), CoupleError> {
        if self.faces.is_empty() {
            return Ok(());
        }
        let rank = self.comm.rank();
        // Injected link delay (hsim-faults): the slow link charges its
        // virtual latency before any staging leg; data is unaffected.
        if let Some(hit) = hsim_faults::check(hsim_faults::Site::XferDelay) {
            let stall = hsim_time::SimDuration::from_nanos(hit.param);
            let span = (hsim_telemetry::Category::Transfer, "fault_xfer_delay");
            hsim_faults::recover(clock, hit, Some((ChargeKind::Comm, stall)), span)
                .map_err(fault_error)?;
        }

        // Outgoing transfer legs. Without GPU-direct every byte of a
        // GPU-resident mesh stages D2H; with it, faces bound for other
        // GPU ranks go peer-to-peer in a single DMA charged on the
        // sender (§5.3), while faces for CPU ranks still cross the
        // host both ways.
        let (gpu_peer_bytes, other_bytes) = (self.gpu_peer_bytes, self.other_bytes);
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

        // Post all sends first (buffered transport: no deadlock): one
        // packet per face, carrying its five per-variable messages.
        let full = state.fidelity == Fidelity::Full;
        for face in &self.faces {
            let mut data = Vec::new();
            if full {
                let (lo, hi) = face.send;
                for var in 0..NCONS {
                    state.u.pack_box_into(var, lo, hi, &mut data);
                }
            }
            let msg = FaceMsg {
                data,
                wire_bytes: face.bytes * NCONS as u64,
            };
            lend_clock(self.comm, clock)
                .send_parts(face.peer, face.send_tags, msg)
                .map_err(|e| CoupleError {
                    op: "halo_send",
                    detail: format!("rank {rank} -> {}: {e}", face.peer),
                })?;
        }

        // Receive and unpack.
        for face in &self.faces {
            let msg: FaceMsg = lend_clock(self.comm, clock)
                .irecv_parts(face.peer, face.recv_tags)
                .await
                .map_err(|e| CoupleError {
                    op: "halo_recv",
                    detail: format!("rank {rank} <- {}: {e}", face.peer),
                })?;
            if full {
                let (lo, hi) = face.recv;
                let rows = msg.data.chunks_exact(msg.data.len() / NCONS);
                for (var, row) in rows.enumerate() {
                    state.u.unpack_box(var, lo, hi, row);
                }
            }
        }
        // Incoming staging: with GPU-direct the peer's DMA already
        // delivered GPU-peer faces into device memory (no charge
        // here); CPU-peer faces — and everything without GPU-direct —
        // pay the H2D leg.
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
        // virtual time is lost (`hsim_faults` caps a `perm` marking at
        // the full retry budget).
        if let Some(hit) = hsim_faults::check(hsim_faults::Site::XferCorrupt) {
            let resend = match &self.gpu_spec {
                Some(spec) if staged_out > 0 => {
                    xfer::retry_leg_time(spec, staged_out, self.gpu_direct)
                }
                _ => hsim_time::SimDuration::ZERO,
            };
            let span = (hsim_telemetry::Category::Transfer, "fault_xfer_retry");
            hsim_faults::recover(clock, hit, Some((ChargeKind::Memory, resend)), span)
                .map_err(fault_error)?;
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
    use hsim_mesh::decomp::block_decomp;
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
            let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
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
    fn a_face_message_arrives_as_it_left() {
        let face = |data: Vec<f64>, wire_bytes| FaceMsg { data, wire_bytes };
        let out = World::run(2, CommCost::free(), |comm| {
            if comm.rank() == 0 {
                for (tag, msg) in [(1, face(Vec::new(), 640)), (2, face(vec![1.0, -2.0], 16))] {
                    comm.send(1, tag, msg).expect("send to a live peer");
                }
                Vec::new()
            } else {
                vec![comm.recv::<FaceMsg>(0, 1), comm.recv::<FaceMsg>(0, 2)]
            }
        });
        let sent = vec![Ok(face(Vec::new(), 640)), Ok(face(vec![1.0, -2.0], 16))];
        assert_eq!(out[1], sent);
        // An empty face is no other payload, and no other payload one.
        assert_eq!(
            <Vec<u8>>::from_body(face(Vec::new(), 8).into_body(), 8),
            None
        );
        assert_eq!(FaceMsg::from_body(Body::Empty(TypeId::of::<()>()), 8), None);
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
            let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
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
                let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
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
                let mut coupler = MpiCoupler::new(
                    comm,
                    plan,
                    decomp,
                    Some(DeviceSpec::tesla_k80()),
                    gpu_direct,
                );
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
            let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
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
            let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
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

    /// Every ghost zone of every variable of `block` set to NaN.
    fn poison_ghosts(block: &mut hsim_mesh::SoaBlock) {
        let (d, g, core) = (block.dims(), block.ghost(), block.core());
        for v in 0..block.nvar() {
            for k in 0..d[2] {
                for j in 0..d[1] {
                    for i in 0..d[0] {
                        let owned = [i, j, k]
                            .iter()
                            .zip(core)
                            .all(|(&x, c)| x >= g && x < g + c);
                        if !owned {
                            let at = block.idx(i, j, k);
                            block.var_mut(v)[at] = f64::NAN;
                        }
                    }
                }
            }
        }
    }

    /// The multirank twin of `hsim-hydro`'s `ghosts_are_never_read`:
    /// the stage sweeps leave their target's ghosts stale, which is
    /// sound only if a ghost is rewritten — by the boundary fill or the
    /// halo exchange — before anything reads it. Poisoning every ghost
    /// of `u`, `u0` and `prim` between cycles must leave owned zones,
    /// `t` and every rank's clock bit-equal; each cycle is followed by
    /// a diffusion step.
    #[test]
    fn poisoned_ghosts_leave_a_four_rank_world_bit_equal() {
        use hsim_hydro::sedov::{self, SedovConfig};
        use hsim_hydro::{diffusion, step, DiffusionConfig};

        let grid = GlobalGrid::new(16, 16, 16);
        let decomp = block_decomp(grid, 4, 1);
        let plan = HaloPlan::build(&decomp);
        let (decomp, plan) = (&decomp, &plan);
        let run = |poison: bool| {
            World::run(4, CommCost::on_node(), |comm| {
                let rank = comm.rank();
                let sub = decomp.domains[rank];
                let mut st = HydroState::new(grid, sub, Fidelity::Full);
                sedov::init(&mut st, &SedovConfig::default());
                st.tile = [4, 4];
                let mut exec =
                    Executor::new(Target::CpuSeq, CpuModel::haswell_fixed(), Fidelity::Full);
                let mut clock = RankClock::new(rank);
                let mut coupler = MpiCoupler::new(comm, plan, decomp, None, false);
                let mut seen = Vec::new();
                for _ in 0..4 {
                    if poison {
                        for block in [&mut st.u, &mut st.u0, &mut st.prim] {
                            poison_ghosts(block);
                        }
                    }
                    let dt = step(&mut st, &mut exec, &mut clock, &mut coupler, 0.3, 1.0)
                        .unwrap()
                        .dt;
                    let heat = diffusion::advance(
                        &mut st,
                        &mut exec,
                        &mut clock,
                        &mut coupler,
                        &DiffusionConfig { kappa: 2e-3 },
                        dt,
                    );
                    block_on(heat).unwrap();
                    let e = st.ext();
                    for v in 0..NCONS {
                        for k in 0..e[2] {
                            for j in 0..e[1] {
                                for i in 0..e[0] {
                                    seen.push(st.u.get(v, i, j, k).to_bits());
                                }
                            }
                        }
                    }
                    seen.extend([st.t.to_bits(), clock.now().as_nanos()]);
                }
                seen
            })
        };
        let (clean, poisoned) = (run(false), run(true));
        for (rank, (a, b)) in clean.iter().zip(&poisoned).enumerate() {
            assert!(a == b, "rank {rank}: a poisoned ghost was read");
        }
    }
}
