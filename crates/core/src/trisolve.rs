//! Distributed supernodal triangular solve: `L·y = b` then `Lᵀ·x = y`.
//!
//! The solve reuses the factor blocks exactly where the factorization left
//! them. Both sweeps are organized around the diagonal-block owners:
//!
//! * **forward**: the owner of `L(j,j)` solves its supernode once every
//!   contribution `B(j,k)·y_k` from descendant supernodes has been folded
//!   into its accumulator, then fans `y_j` out to the owners of the blocks
//!   `B(i,j)`, which compute and send their contributions onward — the same
//!   fan-out pattern as the factorization;
//! * **backward**: mirror image, descending order, using `B(i,j)ᵀ·x_i`.
//!
//! The engine is *panel-native*: a solve carries `nrhs` right-hand sides as
//! one dense `n × nrhs` column panel, every message payload is a block-row
//! panel, and the task bodies run the panel kernels from `sympack-dense`
//! ([`sympack_dense::panel`]). [`solve`] is the single-vector special case
//! (`nrhs = 1`), which charges exactly the costs and bytes of the original
//! vector path; [`solve_panel`] is the batched entry point used by
//! `sympack-service` sessions. Batching amortizes per-message latency and
//! per-task overhead across the panel width — the messages per sweep stay
//! constant while their payloads grow.
//!
//! Messages are RPCs carrying their panel payloads, charged full
//! latency+bandwidth cost. Like the factorization, all arithmetic is real
//! and all timing is virtual.
//!
//! Scheduling (dependency counters, the policy-driven RTQ, tracing) runs
//! through the shared [`crate::sched::TaskEngine`]: each sweep's supernode
//! solves and block GEMVs are tasks, released by incoming messages and
//! picked under the session's [`RtqPolicy`] — the same queue the
//! factorization uses.
//!
//! The solve is planned once. A [`SolveSchedule`] per rank — owned
//! diagonals and blocks with their store slots, blocks by column and by
//! row, incoming counts, forward and backward destination sets, and the
//! task table itself — is built once per [`crate::SymbolicPlan`], on its
//! first solve, and shared by every later solve against it. A request allocates its accumulators and
//! copies the dependency counters, reads blocks by slot, and hashes
//! nothing. A solved panel fanned out to several ranks travels as one
//! shared allocation. None of this changes what the model charges: tasks,
//! messages, their byte counts and the RTQ order are those of a solve that
//! rebuilds its graph per request.

use crate::map2d::ProcGrid;
use crate::sched::{self, Csr, LoopExit, RtqPolicy, TaskEngine, TaskId, TaskKind};
use crate::storage::{Block, BlockStore};
use crate::SolverError;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_dense::panel::{
    gemm_nn_acc_raw, gemm_tn_acc_raw, trsm_left_lower_notrans_raw, trsm_left_lower_trans_raw,
};
use sympack_dense::Mat;
use sympack_gpu::{KernelEngine, Op};
use sympack_pgas::Rank;
use sympack_symbolic::SymbolicFactor;
use sympack_trace::{TraceCat, TraceEvent, Tracer};

/// Dense forward substitution `L·y = rhs` (lower, non-unit diagonal).
pub fn forward_subst(l: &Mat, rhs: &mut [f64]) {
    let n = l.rows();
    assert_eq!(rhs.len(), n);
    for c in 0..n {
        let yc = rhs[c] / l[(c, c)];
        rhs[c] = yc;
        for r in c + 1..n {
            rhs[r] -= l[(r, c)] * yc;
        }
    }
}

/// Dense backward substitution `Lᵀ·x = rhs`.
pub fn backward_subst(l: &Mat, rhs: &mut [f64]) {
    let n = l.rows();
    assert_eq!(rhs.len(), n);
    for c in (0..n).rev() {
        let mut v = rhs[c];
        for r in c + 1..n {
            v -= l[(r, c)] * rhs[r];
        }
        rhs[c] = v / l[(c, c)];
    }
}

/// Knobs of one distributed solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveParams {
    /// RTQ pop policy for the solve tasks (paper default: LIFO).
    pub policy: RtqPolicy,
    /// Extra per-message receive overhead (seconds). Zero for symPACK's
    /// one-sided protocol; the two-sided baselines pass a rendezvous cost.
    pub msg_overhead: f64,
    /// Collect a solve-task timeline.
    pub trace: bool,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            policy: RtqPolicy::Lifo,
            msg_overhead: 0.0,
            trace: false,
        }
    }
}

/// Tasks of the triangular solve, per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKey {
    /// Forward-substitute supernode `j` once its contributions arrived.
    FwdDiag { j: usize },
    /// `B(i,j)·y_j`, released by the arrival of `y_j`.
    FwdGemv { i: usize, j: usize },
    /// Backward-substitute supernode `j`.
    BwdDiag { j: usize },
    /// `B(i,j)ᵀ·x_i`, released by the arrival of `x_i`.
    BwdGemv { i: usize, j: usize },
}

impl TaskKind for SolveKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            // Forward critical path runs left-to-right…
            SolveKey::FwdDiag { j } => (j, 0),
            SolveKey::FwdGemv { i, j } => (j, i),
            // …the backward sweep mirrors it right-to-left.
            SolveKey::BwdDiag { j } => (usize::MAX - j, 0),
            SolveKey::BwdGemv { i, j } => (usize::MAX - i, j),
        }
    }

    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            SolveKey::FwdDiag { j } => (0, j, 0, 0),
            SolveKey::FwdGemv { i, j } => (1, j, i, 0),
            SolveKey::BwdDiag { j } => (2, usize::MAX - j, 0, 0),
            SolveKey::BwdGemv { i, j } => (3, usize::MAX - i, j, 0),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            SolveKey::FwdDiag { .. } => "fwd_diag",
            SolveKey::FwdGemv { .. } => "fwd_gemv",
            SolveKey::BwdDiag { .. } => "bwd_diag",
            SolveKey::BwdGemv { .. } => "bwd_gemv",
        }
    }

    fn trace_label(&self) -> String {
        match *self {
            SolveKey::FwdDiag { j } => format!("Ly({j})"),
            SolveKey::FwdGemv { i, j } => format!("Gv({i},{j})"),
            SolveKey::BwdDiag { j } => format!("Ltx({j})"),
            SolveKey::BwdGemv { i, j } => format!("Gv'({i},{j})"),
        }
    }

    fn trace_cat(&self) -> TraceCat {
        TraceCat::Solve
    }
}

/// Id marking "diagonal not owned here".
const NOT_OWNED: u32 = u32::MAX;

/// One owned off-diagonal block `B(i,j)` of a [`SolveSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SolveBlock {
    /// Target supernode (the block's rows).
    i: u32,
    /// Owner supernode (the block's columns).
    j: u32,
    /// Slot of the block in the rank's [`BlockStore`].
    slot: u32,
    /// Offset of the block's rows in `sf.patterns[j]`.
    row_offset: u32,
    /// Owner of diagonal `i`: where the forward contribution goes.
    i_owner: u32,
    /// Owner of diagonal `j`: where the backward contribution goes.
    j_owner: u32,
}

/// A task of the solve, decoded from its dense id (see
/// [`SolveSchedule`] for the id layout).
#[derive(Debug, Clone, Copy)]
enum SolveTask {
    /// Forward solve of owned diagonal number `d`.
    FwdDiag(usize),
    /// Backward solve of owned diagonal number `d`.
    BwdDiag(usize),
    /// Forward GEMV of owned block number `b`.
    FwdGemv(usize),
    /// Backward GEMV of owned block number `b`.
    BwdGemv(usize),
}

/// One rank's precomputed triangular-solve schedule: everything the two
/// sweeps need that depends on the symbolic factor and the process grid
/// alone. Built once per [`crate::SymbolicPlan`] (see
/// [`crate::SymbolicPlan::solve_schedules`]) and shared by every solve
/// against any factor of that plan, so a request builds no task graph.
///
/// Owned diagonals are numbered `d = 0..nd` in supernode order; owned
/// off-diagonal blocks `b = 0..nb` in column-then-target order, which is
/// the rank's [`BlockStore`] allocation order. Task ids follow:
///
/// | id range | task |
/// |---|---|
/// | `d` | `FwdDiag` of diagonal `d` |
/// | `nd + d` | `BwdDiag` of diagonal `d` |
/// | `2·nd + b` | `FwdGemv` of block `b` |
/// | `2·nd + nb + b` | `BwdGemv` of block `b` |
///
/// All adjacency is stored as flat [`Csr`] arrays with `u32` entries.
#[derive(Debug)]
pub struct SolveSchedule {
    /// Rank the schedule was built for.
    rank: usize,
    /// Owned diagonal supernodes, ascending.
    diags: Vec<u32>,
    /// Store slot of each owned diagonal block.
    diag_slots: Vec<u32>,
    /// Owned-diagonal number of each supernode ([`NOT_OWNED`] elsewhere).
    local_diag: Vec<u32>,
    /// Owned off-diagonal blocks, by column then target.
    blocks: Vec<SolveBlock>,
    /// Owned blocks of each column `j`: `blocks[col_ptr[j]..col_ptr[j+1]]`.
    col_ptr: Vec<u32>,
    /// Owned blocks of each target row `i`, by ascending column.
    by_row: Csr,
    /// Ranks that receive `y_j` from each owned diagonal (forward fan-out:
    /// owners of the blocks `B(·,j)`), ascending.
    fwd_dests: Csr,
    /// Ranks that receive `x_i` from each owned diagonal (backward
    /// fan-out: owners of the blocks `B(i,·)`), ascending.
    bwd_dests: Csr,
    /// Task keys by id (shared into every solve's task engine).
    keys: Arc<Vec<SolveKey>>,
    /// Initial dependency counters by id.
    deps: Vec<u32>,
}

impl SolveSchedule {
    /// Precompute `rank`'s solve schedule under `grid`.
    pub fn build(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> SolveSchedule {
        let ns = sf.n_supernodes();
        let mut diags = Vec::new();
        let mut diag_slots = Vec::new();
        let mut local_diag = vec![NOT_OWNED; ns];
        let mut blocks = Vec::new();
        let mut col_ptr = Vec::with_capacity(ns + 1);
        // Contributions each diagonal waits for in the forward sweep: one
        // per block B(j,k) anywhere in the job.
        let mut incoming = vec![0u32; ns];
        let mut slot = 0u32;
        for j in 0..ns {
            col_ptr.push(blocks.len() as u32);
            if grid.map(j, j) == rank {
                local_diag[j] = diags.len() as u32;
                diags.push(j as u32);
                diag_slots.push(slot);
                slot += 1;
            }
            for b in sf.layout.blocks_of(j) {
                incoming[b.target] += 1;
                if grid.map(b.target, j) == rank {
                    blocks.push(SolveBlock {
                        i: b.target as u32,
                        j: j as u32,
                        slot,
                        row_offset: b.row_offset as u32,
                        i_owner: grid.map(b.target, b.target) as u32,
                        j_owner: grid.map(j, j) as u32,
                    });
                    slot += 1;
                }
            }
        }
        col_ptr.push(blocks.len() as u32);
        let row_pairs: Vec<(u32, u32)> = blocks
            .iter()
            .enumerate()
            .map(|(b, blk)| (blk.i, b as u32))
            .collect();
        // Destination sets, sorted and deduplicated per diagonal.
        let mut fwd_pairs = Vec::new();
        let mut bwd_pairs = Vec::new();
        for j in 0..ns {
            for b in sf.layout.blocks_of(j) {
                let owner = grid.map(b.target, j) as u32;
                if local_diag[j] != NOT_OWNED {
                    fwd_pairs.push((local_diag[j], owner));
                }
                if local_diag[b.target] != NOT_OWNED {
                    bwd_pairs.push((local_diag[b.target], owner));
                }
            }
        }
        for pairs in [&mut fwd_pairs, &mut bwd_pairs] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        let (nd, nb) = (diags.len(), blocks.len());
        let mut keys = Vec::with_capacity(2 * (nd + nb));
        let mut deps = Vec::with_capacity(2 * (nd + nb));
        for &j in &diags {
            keys.push(SolveKey::FwdDiag { j: j as usize });
            deps.push(incoming[j as usize]);
        }
        // Backward diagonal solves carry one extra guard dependency,
        // released at the phase switch, so a root supernode (no
        // off-diagonal blocks) cannot start early.
        for &j in &diags {
            keys.push(SolveKey::BwdDiag { j: j as usize });
            deps.push(sf.layout.blocks_of(j as usize).len() as u32 + 1);
        }
        for blk in &blocks {
            let (i, j) = (blk.i as usize, blk.j as usize);
            keys.push(SolveKey::FwdGemv { i, j });
            deps.push(1);
        }
        for blk in &blocks {
            let (i, j) = (blk.i as usize, blk.j as usize);
            keys.push(SolveKey::BwdGemv { i, j });
            deps.push(1);
        }
        SolveSchedule {
            rank,
            diags,
            diag_slots,
            local_diag,
            blocks,
            col_ptr,
            by_row: Csr::from_pairs(ns, &row_pairs),
            fwd_dests: Csr::from_pairs(nd, &fwd_pairs),
            bwd_dests: Csr::from_pairs(nd, &bwd_pairs),
            keys: Arc::new(keys),
            deps,
        }
    }

    fn task(&self, id: TaskId) -> SolveTask {
        let (nd, nb) = (self.diags.len(), self.blocks.len());
        let id = id as usize;
        if id < nd {
            SolveTask::FwdDiag(id)
        } else if id < 2 * nd {
            SolveTask::BwdDiag(id - nd)
        } else if id < 2 * nd + nb {
            SolveTask::FwdGemv(id - 2 * nd)
        } else {
            SolveTask::BwdGemv(id - 2 * nd - nb)
        }
    }

    fn fwd_diag_id(&self, d: usize) -> TaskId {
        d as TaskId
    }

    fn bwd_diag_id(&self, d: usize) -> TaskId {
        (self.diags.len() + d) as TaskId
    }

    fn fwd_gemv_id(&self, b: usize) -> TaskId {
        (2 * self.diags.len() + b) as TaskId
    }

    fn bwd_gemv_id(&self, b: usize) -> TaskId {
        (2 * self.diags.len() + self.blocks.len() + b) as TaskId
    }

    /// Owned blocks of column `j`, as block numbers.
    fn col_blocks(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize
    }
}

/// Messages exchanged during the solve. All payloads are column-major
/// panels of `nrhs` columns (`nrhs = 1` for the vector solve). A solved
/// panel fanned out to several ranks is one shared allocation.
pub enum SolveMsg {
    /// `Y_j` (`w × nrhs`) fanned out to block owners (forward sweep).
    YReady { j: usize, y: Arc<Vec<f64>> },
    /// `B(i,j)·Y_j` (`m × nrhs`) folded into supernode `target`'s
    /// accumulator. The block's rows are `sf.patterns[j][row_offset..][..m]`
    /// (`m = vals.len() / nrhs`); the wire charge still counts them.
    FwdContrib {
        target: usize,
        j: usize,
        row_offset: usize,
        vals: Vec<f64>,
    },
    /// `X_i` (`w × nrhs`) fanned out to block owners (backward sweep).
    XReady { i: usize, x: Arc<Vec<f64>> },
    /// `B(i,j)ᵀ·X_i` (`w × nrhs`) folded into supernode `j`'s accumulator.
    /// `i` names the producing GEMV's row for profiling.
    BwdContrib {
        target: usize,
        i: usize,
        vals: Vec<f64>,
    },
}

/// Per-rank solve engine; installed as rank user state during the solve.
/// Its per-request state is a handful of `Vec`s indexed by the schedule's
/// diagonal numbers or by supernode.
pub struct SolveEngine {
    sf: Arc<SymbolicFactor>,
    schedule: Arc<SolveSchedule>,
    /// Right-hand sides carried through this solve (panel width).
    nrhs: usize,
    /// The shared scheduling core: dependency counters, RTQ, inbox, tracer.
    pub rt: TaskEngine<SolveKey, SolveMsg>,
    /// Accumulator panels (`w × nrhs`) by owned diagonal (forward: b rows,
    /// backward: y rows).
    acc: Vec<Vec<f64>>,
    /// Solved `Y_j` panels by owned diagonal, kept for the backward sweep.
    y: Vec<Option<Arc<Vec<f64>>>>,
    /// Solved `X_j` panels by owned diagonal.
    x: Vec<Option<Arc<Vec<f64>>>>,
    /// Received `Y_j` panels by supernode, awaiting their GEMV tasks.
    yin: Vec<Option<Arc<Vec<f64>>>>,
    /// Received `X_i` panels by supernode, awaiting their GEMV tasks.
    xin: Vec<Option<Arc<Vec<f64>>>>,
    kernels: KernelEngine,
    /// Extra per-message receive overhead (seconds).
    msg_overhead: f64,
}

impl SolveEngine {
    /// O(owned tasks): the task table comes from the schedule as is.
    fn new(
        sf: Arc<SymbolicFactor>,
        schedule: Arc<SolveSchedule>,
        nrhs: usize,
        kernels: KernelEngine,
        params: &SolveParams,
    ) -> Self {
        let mut rt = TaskEngine::with_tasks(
            Arc::clone(&schedule.keys),
            &schedule.deps,
            params.policy,
            Arc::new(AtomicBool::new(false)),
        );
        if params.trace {
            rt.tracer = Some(Tracer::new());
        }
        let (nd, ns) = (schedule.diags.len(), sf.n_supernodes());
        SolveEngine {
            sf,
            schedule,
            nrhs,
            rt,
            acc: vec![Vec::new(); nd],
            y: vec![None; nd],
            x: vec![None; nd],
            yin: vec![None; ns],
            xin: vec![None; ns],
            kernels,
            msg_overhead: params.msg_overhead,
        }
    }

    /// Cost-model seconds for a solve kernel (placement included).
    fn kernel_secs(&mut self, op: Op, elements: usize, flops: u64) -> f64 {
        let loc = self.kernels.place(op, elements);
        match loc {
            sympack_gpu::Loc::Cpu => self.kernels.cost.cpu_time(op, flops),
            sympack_gpu::Loc::Gpu => self.kernels.cost.gpu_time(op, flops),
        }
    }

    /// Route a message: local push or RPC with payload cost.
    fn send(&mut self, rank: &mut Rank, dest: usize, msg: SolveMsg) {
        if dest == rank.id() {
            self.rt.post(msg);
            return;
        }
        let bytes = match &msg {
            SolveMsg::YReady { y, .. } => y.len() * 8,
            // The block's row list rides along on the wire: m indices.
            SolveMsg::FwdContrib { vals, .. } => (vals.len() / self.nrhs + vals.len()) * 8,
            SolveMsg::XReady { x, .. } => x.len() * 8,
            SolveMsg::BwdContrib { vals, .. } => vals.len() * 8,
        };
        // Synchronization cost of the two-sided baseline's rendezvous
        // protocol: both sides block until the match completes, so the full
        // cost lands on sender *and* receiver for cross-node messages and a
        // fraction of it within a node. Zero for symPACK's one-sided path.
        let overhead = if rank.same_node(dest) {
            self.msg_overhead * 0.2
        } else {
            self.msg_overhead
        };
        rank.advance(overhead);
        // Wrap so the closure is Send: the payload moves into it.
        let cell = std::sync::Mutex::new(Some(msg));
        rank.rpc_payload(dest, bytes, move |r| {
            r.advance(overhead);
            let msg = cell.lock().unwrap().take().expect("message delivered once");
            r.with_state::<SolveEngine, _>(|_, st| st.rt.post(msg));
        });
    }

    /// The owned block in `slot`, checked against the key the schedule
    /// expects there.
    fn block(store: &BlockStore, slot: u32, key: (usize, usize)) -> &Block {
        let (k, b) = store.slot(slot as usize).expect("owned block present");
        assert_eq!(k, key, "block store slots disagree with the solve schedule");
        b
    }

    /// Seed the forward sweep: accumulator panels = this supernode's rows of
    /// every permuted RHS column; the ready queue starts with the leaf
    /// supernode solves. `bp` is the full `n × nrhs` panel, column-major.
    fn fwd_init(&mut self, bp: &[f64]) {
        let n = self.sf.n();
        for (d, &j) in self.schedule.diags.iter().enumerate() {
            let first = self.sf.partition.first_col(j as usize);
            let w = self.sf.partition.width(j as usize);
            let mut panel = vec![0.0; w * self.nrhs];
            for k in 0..self.nrhs {
                panel[k * w..(k + 1) * w].copy_from_slice(&bp[k * n + first..k * n + first + w]);
            }
            self.acc[d] = panel;
        }
        self.rt.seed_ready();
    }

    /// Switch to the backward sweep: accumulators = y rows; release the
    /// guard dependency on every owned backward diagonal solve.
    fn bwd_init(&mut self, rank: &mut Rank) {
        let now = rank.now();
        // Every forward GEMV on this rank has run: drop the received y
        // panels so the solved ones below are usually unshared.
        self.yin.iter_mut().for_each(|y| *y = None);
        for d in 0..self.schedule.diags.len() {
            let y = self.y[d].take().expect("forward solved");
            self.acc[d] = Arc::try_unwrap(y).unwrap_or_else(|y| (*y).clone());
            self.rt.dec(self.schedule.bwd_diag_id(d), now);
        }
    }

    /// Fold an incoming message into state and release dependent tasks.
    fn handle(&mut self, rank: &mut Rank, msg: SolveMsg) {
        let now = rank.now();
        let sched = Arc::clone(&self.schedule);
        match msg {
            SolveMsg::YReady { j, y } => {
                self.yin[j] = Some(y);
                for b in sched.col_blocks(j) {
                    self.rt
                        .dec_from(sched.fwd_gemv_id(b), now, || format!("Ly({j})"));
                }
            }
            SolveMsg::FwdContrib {
                target,
                j,
                row_offset,
                vals,
            } => {
                let first = self.sf.partition.first_col(target);
                let w = self.sf.partition.width(target);
                let m = vals.len() / self.nrhs;
                let rows = &self.sf.patterns[j][row_offset..row_offset + m];
                let d = sched.local_diag[target] as usize;
                let acc = &mut self.acc[d];
                for k in 0..self.nrhs {
                    for (ri, &r) in rows.iter().enumerate() {
                        acc[k * w + (r - first)] -= vals[k * m + ri];
                    }
                }
                self.rt
                    .dec_from(sched.fwd_diag_id(d), now, || format!("Gv({target},{j})"));
            }
            SolveMsg::XReady { i, x } => {
                self.xin[i] = Some(x);
                for &b in sched.by_row.row(i) {
                    self.rt
                        .dec_from(sched.bwd_gemv_id(b as usize), now, || format!("Ltx({i})"));
                }
            }
            SolveMsg::BwdContrib { target, i, vals } => {
                let d = sched.local_diag[target] as usize;
                for (a, &v) in self.acc[d].iter_mut().zip(&vals) {
                    *a -= v;
                }
                self.rt
                    .dec_from(sched.bwd_diag_id(d), now, || format!("Gv'({i},{target})"));
            }
        }
    }

    /// Execute one picked task.
    fn exec(&mut self, rank: &mut Rank, store: &BlockStore, id: TaskId) {
        let sched = Arc::clone(&self.schedule);
        match sched.task(id) {
            SolveTask::FwdDiag(d) => {
                let j = sched.diags[d] as usize;
                let l = Self::block(store, sched.diag_slots[d], (j, j)).dense();
                let w = l.rows();
                let mut rhs = std::mem::take(&mut self.acc[d]);
                trsm_left_lower_notrans_raw(
                    &self.kernels.config,
                    &mut rhs,
                    w,
                    w,
                    self.nrhs,
                    l.as_slice(),
                    l.ld(),
                );
                let secs = self.kernel_secs(Op::Trsm, w * w, (w * w * self.nrhs) as u64);
                self.rt.charge(rank, id, secs);
                // Fan y_j out to the owners of blocks B(i,j): one shared
                // panel for every destination and the backward sweep.
                let y = Arc::new(rhs);
                self.y[d] = Some(Arc::clone(&y));
                for &dest in sched.fwd_dests.row(d) {
                    let msg = SolveMsg::YReady {
                        j,
                        y: Arc::clone(&y),
                    };
                    self.send(rank, dest as usize, msg);
                }
            }
            SolveTask::FwdGemv(bi) => {
                let blk = sched.blocks[bi];
                let (i, j) = (blk.i as usize, blk.j as usize);
                let yj = Arc::clone(self.yin[j].as_ref().expect("y_j arrived"));
                let b = Self::block(store, blk.slot, (i, j));
                let (m, w) = (b.rows(), b.cols());
                // V = B(i,j) · Y_j — in factored form `U·(Vᵀ·Y_j)` when the
                // panel is stored compressed.
                let mut v = vec![0.0; m * self.nrhs];
                let secs = match b {
                    Block::Dense(b) => {
                        gemm_nn_acc_raw(
                            &self.kernels.config,
                            &mut v,
                            m,
                            m,
                            self.nrhs,
                            b.as_slice(),
                            b.ld(),
                            &yj,
                            w,
                            w,
                        );
                        self.kernel_secs(Op::Gemm, m * w, (2 * m * w * self.nrhs) as u64)
                    }
                    Block::LowRank(lr) => {
                        let r = lr.rank();
                        if r > 0 {
                            let mut t = vec![0.0; r * self.nrhs];
                            gemm_tn_acc_raw(
                                &self.kernels.config,
                                &mut t,
                                r,
                                r,
                                self.nrhs,
                                lr.v().as_slice(),
                                lr.v().ld(),
                                &yj,
                                w,
                                w,
                            );
                            gemm_nn_acc_raw(
                                &self.kernels.config,
                                &mut v,
                                m,
                                m,
                                self.nrhs,
                                lr.u().as_slice(),
                                lr.u().ld(),
                                &t,
                                r,
                                r,
                            );
                        }
                        self.kernel_secs(
                            Op::Gemm,
                            (m + w) * r,
                            (2 * r * (m + w) * self.nrhs) as u64,
                        )
                    }
                };
                self.rt.charge(rank, id, secs);
                let dest = blk.i_owner as usize;
                self.send(
                    rank,
                    dest,
                    SolveMsg::FwdContrib {
                        target: i,
                        j,
                        row_offset: blk.row_offset as usize,
                        vals: v,
                    },
                );
            }
            SolveTask::BwdDiag(d) => {
                let j = sched.diags[d] as usize;
                let l = Self::block(store, sched.diag_slots[d], (j, j)).dense();
                let w = l.rows();
                let mut rhs = std::mem::take(&mut self.acc[d]);
                trsm_left_lower_trans_raw(
                    &self.kernels.config,
                    &mut rhs,
                    w,
                    w,
                    self.nrhs,
                    l.as_slice(),
                    l.ld(),
                );
                let secs = self.kernel_secs(Op::Trsm, w * w, (w * w * self.nrhs) as u64);
                self.rt.charge(rank, id, secs);
                // Fan x_j out to owners of blocks B(j, k) — every rank
                // holding a block whose rows live in supernode j.
                let x = Arc::new(rhs);
                self.x[d] = Some(Arc::clone(&x));
                for &dest in sched.bwd_dests.row(d) {
                    let msg = SolveMsg::XReady {
                        i: j,
                        x: Arc::clone(&x),
                    };
                    self.send(rank, dest as usize, msg);
                }
            }
            SolveTask::BwdGemv(bi) => {
                let blk = sched.blocks[bi];
                let (i, j) = (blk.i as usize, blk.j as usize);
                let xi = Arc::clone(self.xin[i].as_ref().expect("x_i arrived"));
                let first_i = self.sf.partition.first_col(i);
                let wi = self.sf.partition.width(i);
                let b = Self::block(store, blk.slot, (i, j));
                let (m, w) = (b.rows(), b.cols());
                let off = blk.row_offset as usize;
                let rows = &self.sf.patterns[j][off..off + m];
                // Gather the block's rows of X_i into a dense m × nrhs
                // sub-panel, then V = B(i,j)ᵀ · X_i[rows].
                let mut xsub = vec![0.0; m * self.nrhs];
                for k in 0..self.nrhs {
                    for (ri, &gr) in rows.iter().enumerate() {
                        xsub[k * m + ri] = xi[k * wi + (gr - first_i)];
                    }
                }
                // V = B(i,j)ᵀ · X_i[rows] — `V·(Uᵀ·X)` when compressed.
                let mut v = vec![0.0; w * self.nrhs];
                let secs = match b {
                    Block::Dense(b) => {
                        gemm_tn_acc_raw(
                            &self.kernels.config,
                            &mut v,
                            w,
                            w,
                            self.nrhs,
                            b.as_slice(),
                            b.ld(),
                            &xsub,
                            m,
                            m,
                        );
                        self.kernel_secs(Op::Gemm, m * w, (2 * m * w * self.nrhs) as u64)
                    }
                    Block::LowRank(lr) => {
                        let r = lr.rank();
                        if r > 0 {
                            let mut t = vec![0.0; r * self.nrhs];
                            gemm_tn_acc_raw(
                                &self.kernels.config,
                                &mut t,
                                r,
                                r,
                                self.nrhs,
                                lr.u().as_slice(),
                                lr.u().ld(),
                                &xsub,
                                m,
                                m,
                            );
                            gemm_nn_acc_raw(
                                &self.kernels.config,
                                &mut v,
                                w,
                                w,
                                self.nrhs,
                                lr.v().as_slice(),
                                lr.v().ld(),
                                &t,
                                r,
                                r,
                            );
                        }
                        self.kernel_secs(
                            Op::Gemm,
                            (m + w) * r,
                            (2 * r * (m + w) * self.nrhs) as u64,
                        )
                    }
                };
                self.rt.charge(rank, id, secs);
                let dest = blk.j_owner as usize;
                self.send(
                    rank,
                    dest,
                    SolveMsg::BwdContrib {
                        target: j,
                        i,
                        vals: v,
                    },
                );
            }
        }
    }
    /// Run every ready task to exhaustion.
    fn pump(&mut self, rank: &mut Rank, store: &BlockStore) {
        while let Some((id, _, ready_at)) = self.rt.pick() {
            self.rt.begin(rank, ready_at);
            self.exec(rank, store, id);
            self.rt.complete(id);
        }
    }

    /// True when the given sweep's tasks have all executed on this rank.
    fn phase_done(&self, phase: Phase) -> bool {
        let diags = self.schedule.diags.len() as u64;
        let gemvs = self.schedule.blocks.len() as u64;
        match phase {
            Phase::Forward => {
                self.rt.count_of("fwd_diag") == diags && self.rt.count_of("fwd_gemv") == gemvs
            }
            Phase::Backward => {
                self.rt.count_of("bwd_diag") == diags && self.rt.count_of("bwd_gemv") == gemvs
            }
        }
    }

    /// The solved `X_j` panels with their supernodes, ascending.
    fn into_pieces(mut self) -> Vec<(usize, Vec<f64>)> {
        // Drop this rank's received copies so its own panels are unshared.
        self.xin.clear();
        self.schedule
            .diags
            .iter()
            .zip(self.x)
            .filter_map(|(&j, x)| {
                let x = x?;
                Some((
                    j as usize,
                    Arc::try_unwrap(x).unwrap_or_else(|x| (*x).clone()),
                ))
            })
            .collect()
    }
}

/// What one rank gets back from a distributed solve.
pub struct SolveOutcome {
    /// Per-supernode solution pieces owned by this rank, ascending by
    /// supernode: a `w × nrhs` column-major panel per diagonal supernode
    /// (`w`-vectors for the single-RHS [`solve`]).
    pub x: Vec<(usize, Vec<f64>)>,
    /// Virtual time spent in the solve.
    pub elapsed: f64,
    /// Solve-task timeline (empty unless [`SolveParams::trace`]).
    pub trace: Vec<TraceEvent>,
    /// Executed solve tasks per kind on this rank.
    pub task_counts: Vec<(&'static str, u64)>,
    /// Error observed during the solve (diagnosed stall, abort).
    pub error: Option<SolverError>,
}

/// Run the distributed solve for one right-hand side. `store` holds this
/// rank's factor blocks, in the slot order `schedule` was built for; `bp`
/// is the full permuted right-hand side (replicated, as in the paper's
/// driver). Equivalent to [`solve_panel`] with `nrhs = 1` — identical
/// arithmetic, costs and message bytes.
pub fn solve(
    rank: &mut Rank,
    schedule: &Arc<SolveSchedule>,
    sf: Arc<SymbolicFactor>,
    store: &BlockStore,
    bp: &[f64],
    kernels: KernelEngine,
    params: &SolveParams,
) -> SolveOutcome {
    solve_panel(rank, schedule, sf, store, bp, 1, kernels, params)
}

/// Run the distributed solve for a dense panel of `nrhs` right-hand sides.
///
/// `bp` is the full permuted `n × nrhs` panel, column-major and replicated
/// on every rank. The returned [`SolveOutcome::x`] pieces are `w × nrhs`
/// panels per owned diagonal supernode. One panel solve issues the same
/// number of messages and tasks as a single-vector solve — the panel width
/// rides along in the payloads, which is where the batching win comes from.
///
/// # Panics
/// Panics if `schedule` was built for another rank, `nrhs` is zero or `bp`
/// is not `n × nrhs`.
#[allow(clippy::too_many_arguments)] // mirrors `solve` plus the panel width
pub fn solve_panel(
    rank: &mut Rank,
    schedule: &Arc<SolveSchedule>,
    sf: Arc<SymbolicFactor>,
    store: &BlockStore,
    bp: &[f64],
    nrhs: usize,
    kernels: KernelEngine,
    params: &SolveParams,
) -> SolveOutcome {
    assert!(nrhs > 0, "panel solve needs at least one right-hand side");
    assert_eq!(bp.len(), sf.n() * nrhs, "rhs panel must be n × nrhs");
    assert_eq!(schedule.rank, rank.id(), "solve schedule of another rank");
    let start = rank.now();
    let mut st = SolveEngine::new(sf, Arc::clone(schedule), nrhs, kernels, params);
    st.fwd_init(bp);
    rank.set_state(st);
    // Forward sweep.
    run_phase(rank, store, Phase::Forward);
    rank.barrier();
    // Backward sweep. When the forward sweep aborted (anywhere in the job),
    // this rank may be missing y pieces — skip the seed; the phase loop
    // exits immediately on the sticky abort.
    rank.with_state::<SolveEngine, _>(|rank, st| {
        if !st.rt.aborted() && !rank.job_aborted() {
            st.bwd_init(rank);
        }
    });
    run_phase(rank, store, Phase::Backward);
    rank.barrier();
    let mut st = rank.take_state::<SolveEngine>();
    let trace = st
        .rt
        .tracer
        .take()
        .map(sympack_trace::Tracer::into_events)
        .unwrap_or_default();
    if st.rt.error.is_none() && !st.rt.aborted() && !rank.job_aborted() {
        st.rt.debug_assert_completed();
    }
    let task_counts = st.rt.task_counts();
    let error = st.rt.error.take();
    SolveOutcome {
        x: st.into_pieces(),
        elapsed: rank.now() - start,
        trace,
        task_counts,
        error,
    }
}

/// All-gather the distributed per-supernode solution pieces so every rank
/// holds the full permuted vector (used by iterative refinement to form the
/// residual). Messages are RPCs with payload cost; the result is identical
/// on every rank.
pub fn allgather_solution(
    rank: &mut Rank,
    sf: &SymbolicFactor,
    pieces: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    struct Gather {
        pieces: Vec<(usize, Vec<f64>)>,
    }
    let ns = sf.n_supernodes();
    let me = rank.id();
    let n_ranks = rank.n_ranks();
    rank.set_state(Gather {
        pieces: pieces.to_vec(),
    });
    // Send in supernode order: arrival order must not depend on anything
    // but the schedule (bit-determinism of the makespan).
    debug_assert!(pieces.windows(2).all(|w| w[0].0 < w[1].0));
    for (sn, piece) in pieces {
        for dest in (0..n_ranks).filter(|&d| d != me) {
            let cell = std::sync::Mutex::new(Some((*sn, piece.clone())));
            rank.rpc_payload(dest, piece.len() * 8, move |r| {
                let item = cell.lock().unwrap().take().expect("delivered once");
                r.with_state::<Gather, _>(|_, g| g.pieces.push(item));
            });
        }
    }
    sched::poll_until::<Gather, _>(rank, |_, g| g.pieces.len() == ns);
    let g = rank.take_state::<Gather>();
    let mut xp = vec![0.0; sf.n()];
    for (sn, piece) in g.pieces {
        let first = sf.partition.first_col(sn);
        xp[first..first + piece.len()].copy_from_slice(&piece);
    }
    rank.barrier();
    xp
}

#[derive(PartialEq, Clone, Copy)]
enum Phase {
    Forward,
    Backward,
}

fn run_phase(rank: &mut Rank, store: &BlockStore, phase: Phase) {
    let mut stall_rounds = 0;
    loop {
        let exit = sched::poll_until_or_stall::<SolveEngine, _>(rank, |rank, st| {
            st.pump(rank, store);
            let msgs = st.rt.take_signals();
            for msg in msgs {
                st.handle(rank, msg);
            }
            st.pump(rank, store);
            st.phase_done(phase) || st.rt.aborted() || rank.job_aborted()
        });
        match exit {
            LoopExit::Finished => break,
            LoopExit::Stalled => {
                stall_rounds += 1;
                assert!(stall_rounds < 16, "solve stall handler failed to abort");
                rank.with_state::<SolveEngine, _>(|rank, st| {
                    let (done, total) = (st.rt.done_count(), st.rt.total());
                    let which = match phase {
                        Phase::Forward => "forward",
                        Phase::Backward => "backward",
                    };
                    st.rt.fail(
                        rank,
                        SolverError::Stalled {
                            rank: rank.id(),
                            done,
                            total,
                            detail: format!("{which} solve sweep quiesced with unfinished tasks"),
                        },
                    );
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{factor_numeric, make_kernels, SolvePlan};
    use crate::SolverOptions;
    use sympack_pgas::Runtime;
    use sympack_sparse::gen::thermal_like;

    fn plan(p: usize) -> (SolvePlan, sympack_sparse::SparseSym) {
        let a = thermal_like(9, 8, 0.3, 4);
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            gpu: false,
            deterministic: true,
            ..Default::default()
        };
        (SolvePlan::new(&a, &opts), a)
    }

    #[test]
    fn schedules_partition_diagonals_and_blocks_exactly_once() {
        for p in [1usize, 2, 3, 4] {
            let (plan, _) = plan(p);
            let sf = plan.sf();
            let scheds = plan.symbolic.solve_schedules();
            assert_eq!(scheds.len(), p);
            let mut diags: Vec<usize> = Vec::new();
            let mut blocks: Vec<(usize, usize)> = Vec::new();
            for (r, s) in scheds.iter().enumerate() {
                assert_eq!(s.rank, r);
                diags.extend(s.diags.iter().map(|&j| j as usize));
                blocks.extend(s.blocks.iter().map(|b| (b.i as usize, b.j as usize)));
                let owned = s.diags.len() + s.blocks.len();
                assert_eq!(s.keys.len(), 2 * owned, "P={p} rank {r}");
            }
            diags.sort_unstable();
            assert_eq!(diags, (0..sf.n_supernodes()).collect::<Vec<_>>(), "P={p}");
            let mut all: Vec<(usize, usize)> = (0..sf.n_supernodes())
                .flat_map(|j| sf.layout.blocks_of(j).iter().map(move |b| (b.target, j)))
                .collect();
            all.sort_unstable();
            blocks.sort_unstable();
            assert_eq!(blocks, all, "P={p}");
        }
    }

    #[test]
    fn schedule_task_totals_match_executed_counts() {
        for p in [1usize, 2, 4] {
            let (plan, a) = plan(p);
            let ap = Arc::new(plan.permute(&a));
            let nf = factor_numeric(&plan, &ap).unwrap();
            let scheds = plan.symbolic.solve_schedules();
            let sf = Arc::clone(plan.sf());
            let bp: Vec<f64> = (0..2 * a.n()).map(|i| (i as f64 * 0.7).cos()).collect();
            let report = Runtime::run(plan.pgas_config(), |rank| {
                let out = solve_panel(
                    rank,
                    &scheds[rank.id()],
                    Arc::clone(&sf),
                    &nf.stores[rank.id()],
                    &bp,
                    2,
                    make_kernels(&plan.opts),
                    &SolveParams::default(),
                );
                assert!(out.error.is_none());
                out.task_counts
            });
            for (r, counts) in report.results.iter().enumerate() {
                let mut want = std::collections::BTreeMap::new();
                for k in scheds[r].keys.iter() {
                    *want.entry(k.kind_name()).or_insert(0u64) += 1;
                }
                let want: Vec<(&str, u64)> = want.into_iter().collect();
                assert_eq!(counts, &want, "P={p} rank {r}");
            }
        }
    }

    #[test]
    fn schedule_slots_follow_the_block_store() {
        let (plan, a) = plan(3);
        let ap = plan.permute(&a);
        for (r, s) in plan.symbolic.solve_schedules().iter().enumerate() {
            let store = BlockStore::init(plan.sf(), &ap, &plan.grid(), r);
            for (d, &j) in s.diags.iter().enumerate() {
                let (k, _) = store.slot(s.diag_slots[d] as usize).unwrap();
                assert_eq!(k, (j as usize, j as usize));
            }
            for b in &s.blocks {
                let (k, _) = store.slot(b.slot as usize).unwrap();
                assert_eq!(k, (b.i as usize, b.j as usize));
            }
        }
    }

    #[test]
    fn forward_subst_known_values() {
        // L = [[2,0],[1,3]]; L y = [4, 11] -> y = [2, 3].
        let l = Mat::from_row_major(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let mut rhs = vec![4.0, 11.0];
        forward_subst(&l, &mut rhs);
        assert_eq!(rhs, vec![2.0, 3.0]);
    }

    #[test]
    fn backward_subst_known_values() {
        // L^T x = [7, 6] with L = [[2,0],[1,3]] -> x[1] = 2, x[0] = (7-2)/2.
        let l = Mat::from_row_major(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let mut rhs = vec![7.0, 6.0];
        backward_subst(&l, &mut rhs);
        assert_eq!(rhs, vec![2.5, 2.0]);
    }

    #[test]
    fn substitutions_handle_identity() {
        let l = Mat::eye(5);
        let mut rhs: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let copy = rhs.clone();
        forward_subst(&l, &mut rhs);
        assert_eq!(rhs, copy);
        backward_subst(&l, &mut rhs);
        assert_eq!(rhs, copy);
    }

    #[test]
    fn forward_backward_substitution_invert_l() {
        let a = Mat::spd_from(7, |r, c| ((r * 3 + c) % 5) as f64 - 2.0);
        let mut l = a.clone();
        sympack_dense::potrf(&mut l).unwrap();
        l.zero_upper();
        let x_true: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        // b = L·Lᵀ·x
        let xt = Mat::from_col_major(7, 1, x_true.clone());
        let b = l.matmul(&l.transpose()).matmul(&xt);
        let mut rhs: Vec<f64> = b.as_slice().to_vec();
        forward_subst(&l, &mut rhs);
        backward_subst(&l, &mut rhs);
        for (got, want) in rhs.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
