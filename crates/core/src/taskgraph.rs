//! The fan-out task graph (paper §3.2, Fig. 2) and its per-rank slice.
//!
//! Task ownership follows the block ownership of §3.3: every task runs on
//! the rank owning its *target* block, so the completion of an update task
//! decrements its panel/diagonal successor *locally*, while factored panels
//! travel between ranks (the fan-out).

use crate::map2d::ProcGrid;
use crate::sched::{Csr, TaskId, TaskKind};
use std::sync::Arc;
use sympack_dense::{flops, KernelConfig};
use sympack_gpu::{CostModel, Op};
use sympack_symbolic::SymbolicFactor;
use sympack_trace::TraceCat;

// Scheduling-state types live in the shared runtime layer; re-exported here
// because the fan-out task graph is their historical home.
pub use crate::sched::{RtqPolicy, TaskState};

/// A task in the factorization DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKey {
    /// `D(j)`: factor the diagonal block of supernode `j` (POTRF).
    Diag { j: usize },
    /// `F(i,j)`: factor block `B(i,j)` (TRSM against `L(j,j)`).
    Panel { i: usize, j: usize },
    /// `U(a,j,b)`: update `B(a,b)` with `L(a,j)·L(b,j)ᵀ`
    /// (SYRK when `a == b`, GEMM otherwise).
    Update { j: usize, a: usize, b: usize },
}

impl TaskKind for TaskKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            TaskKey::Diag { j } => (j, 0),
            TaskKey::Panel { i, j } => (j, i),
            TaskKey::Update { j, a, b } => (b, j.max(a)),
        }
    }

    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            TaskKey::Diag { j } => (j, 0, 0, 0),
            TaskKey::Panel { i, j } => (j, 1, i, 0),
            TaskKey::Update { j, a, b } => (j, 2, a, b),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            TaskKey::Diag { .. } => "diag",
            TaskKey::Panel { .. } => "panel",
            TaskKey::Update { .. } => "update",
        }
    }

    fn trace_label(&self) -> String {
        match *self {
            TaskKey::Diag { j } => format!("D({j})"),
            TaskKey::Panel { i, j } => format!("F({i},{j})"),
            TaskKey::Update { j, a, b } => format!("U({a},{j},{b})"),
        }
    }

    fn trace_cat(&self) -> TraceCat {
        match *self {
            TaskKey::Diag { .. } => TraceCat::Potrf,
            TaskKey::Panel { .. } => TraceCat::Trsm,
            TaskKey::Update { a, b, .. } => {
                if a == b {
                    TraceCat::Syrk
                } else {
                    TraceCat::Gemm
                }
            }
        }
    }
}

impl TaskKey {
    /// The dense operation this task executes.
    pub fn op(&self) -> Op {
        match *self {
            TaskKey::Diag { .. } => Op::Potrf,
            TaskKey::Panel { .. } => Op::Trsm,
            TaskKey::Update { a, b, .. } => {
                if a == b {
                    Op::Syrk
                } else {
                    Op::Gemm
                }
            }
        }
    }

    /// Kernel shape `(m, n, k)` from the symbolic block layout, in the
    /// convention of [`sympack_dense::flops`]: POTRF `(n, 0, 0)`,
    /// TRSM `(m, n, 0)`, SYRK `(n, k, 0)`, GEMM `(m, n, k)`.
    ///
    /// # Panics
    /// Panics if the task references blocks absent from `sf`'s layout —
    /// a key/layout mismatch that is always a caller bug.
    pub fn shape(&self, sf: &SymbolicFactor) -> (usize, usize, usize) {
        let rows = |i: usize, j: usize| sf.layout.find(i, j).expect("block exists").n_rows;
        match *self {
            TaskKey::Diag { j } => (sf.partition.width(j), 0, 0),
            TaskKey::Panel { i, j } => (rows(i, j), sf.partition.width(j), 0),
            TaskKey::Update { j, a, b } => {
                let k = sf.partition.width(j);
                if a == b {
                    (rows(a, j), k, 0)
                } else {
                    (rows(a, j), rows(b, j), k)
                }
            }
        }
    }

    /// Flop count of this task from the symbolic layout.
    pub fn flops(&self, sf: &SymbolicFactor) -> u64 {
        let (m, n, k) = self.shape(sf);
        match self.op() {
            Op::Potrf => flops::potrf(m),
            Op::Trsm => flops::trsm(m, n),
            Op::Syrk => flops::syrk(m, n),
            Op::Gemm => flops::gemm(m, n, k),
        }
    }

    /// Estimated operand/result memory traffic in bytes: each operand read
    /// once, the destination read and written. When the shape clears the
    /// packed-dispatch threshold of `cfg`, the operands are additionally
    /// streamed once more through the pack buffers — which is why the
    /// scheduler's estimate depends on the kernel configuration, not just
    /// the shape.
    pub fn bytes(&self, sf: &SymbolicFactor, cfg: &KernelConfig) -> u64 {
        let (m, n, k) = self.shape(sf);
        let (operands, dest) = match self.op() {
            Op::Potrf => (0, m * m),
            Op::Trsm => (n * n / 2, m * n),
            Op::Syrk => (m * n, m * m),
            Op::Gemm => (m * k + n * k, m * n),
        };
        let packs = self.op() != Op::Potrf && self.flops(sf) >= cfg.pack_min_flops;
        let elems = operands * if packs { 2 } else { 1 } + 2 * dest;
        8 * elems as u64
    }

    /// Roofline CPU-time estimate for this task: flops and traffic from
    /// the symbolic layout through [`CostModel::cpu_task_time`]. This is
    /// the scheduler's *planning* estimate (progress, predicted makespan);
    /// the executed virtual clock keeps the legacy per-call accounting.
    pub fn estimate_secs(&self, sf: &SymbolicFactor, cost: &CostModel, cfg: &KernelConfig) -> f64 {
        cost.cpu_task_time(self.op(), self.flops(sf), self.bytes(sf, cfg))
    }

    /// Like [`TaskKey::estimate_secs`], but for update tasks whose operands
    /// are known to be *stored* low-rank (`ra`/`rb` = stored rank of
    /// `L(a,j)`/`L(b,j)`, `None` = dense): flops follow the factored-form
    /// kernels in `sympack_gpu` and bytes charge the actual `(rows+cols)·r`
    /// payloads instead of the symbolic dense extents. Non-update tasks and
    /// all-dense operands reduce to the symbolic estimate exactly.
    pub fn estimate_secs_stored(
        &self,
        sf: &SymbolicFactor,
        cost: &CostModel,
        cfg: &KernelConfig,
        ra: Option<usize>,
        rb: Option<usize>,
    ) -> f64 {
        let TaskKey::Update { a, b, .. } = *self else {
            return self.estimate_secs(sf, cost, cfg);
        };
        if ra.is_none() && rb.is_none() {
            return self.estimate_secs(sf, cost, cfg);
        }
        let (m, n, k) = self.shape(sf);
        let (fl, operands, dest) = if a == b {
            // SYRK with a rank-r operand: G = Vᵀ·V, W = U·G, C −= W·Uᵀ.
            let (n_, k_) = (m as u64, n as u64);
            let r = rb.or(ra).expect("checked above") as u64;
            (
                2 * k_ * r * r + 2 * n_ * r * r + 2 * n_ * n_ * r,
                ((n_ + k_) * r) as usize,
                m * m,
            )
        } else {
            let (m_, n_, k_) = (m as u64, n as u64, k as u64);
            let bytes_a = ra.map_or(m * k, |r| (m + k) * r);
            let bytes_b = rb.map_or(n * k, |r| (n + k) * r);
            let fl = match (ra, rb) {
                (Some(ra), Some(rb)) => {
                    let (ra, rb) = (ra as u64, rb as u64);
                    2 * k_ * ra * rb + 2 * m_ * ra * rb + 2 * m_ * n_ * rb
                }
                (Some(ra), None) => {
                    let ra = ra as u64;
                    2 * n_ * k_ * ra + 2 * m_ * n_ * ra
                }
                (None, Some(rb)) => {
                    let rb = rb as u64;
                    2 * m_ * k_ * rb + 2 * m_ * n_ * rb
                }
                (None, None) => unreachable!("checked above"),
            };
            (fl, bytes_a + bytes_b, m * n)
        };
        let packs = fl >= cfg.pack_min_flops;
        let elems = operands * if packs { 2 } else { 1 } + 2 * dest;
        cost.cpu_task_time(self.op(), fl, 8 * elems as u64)
    }
}

/// Id marking "no task owned here" in the per-block id tables.
const NO_TASK: TaskId = TaskId::MAX;

/// The slice of the task graph owned by one rank, as a dense task table.
///
/// Task `id` has key `keys[id]` and `deps[id]` incoming dependencies
/// (paper: "an incoming dependency counter, initially set to the number of
/// incoming edges in the task graph"); the engine's
/// [`TaskEngine`](crate::sched::TaskEngine) runs on exactly these ids.
/// Off-diagonal blocks are addressed by their *global block index*: the
/// blocks of supernode `j` in layout order, after those of every `k < j`.
/// A solver session builds the slice once per rank and shares it (behind
/// an `Arc`) across numeric re-factorizations.
#[derive(Debug, Default, Clone)]
pub struct LocalTasks {
    /// Owned tasks, indexed by [`TaskId`].
    pub keys: Arc<Vec<TaskKey>>,
    /// Initial dependency counter of each task, by id.
    pub deps: Vec<u32>,
    /// For each off-diagonal factor block `L(i,j)` (by global block index),
    /// the owned update tasks consuming it.
    pub consumers: Csr,
    /// For each supernode `j`, the owned panel tasks consuming `L(j,j)`.
    pub diag_consumers: Csr,
    /// Id of the owned task `D(j)`, by supernode ([`NO_TASK`] elsewhere).
    diag_task: Vec<TaskId>,
    /// Id of the owned task `F(i,j)`, by global block index.
    panel_task: Vec<TaskId>,
    /// Global index of each supernode's first off-diagonal block.
    block_base: Vec<u32>,
    /// Total owned tasks.
    pub total: usize,
}

/// Global index of block `L(i,j)` given the per-supernode bases.
fn block_index(sf: &SymbolicFactor, base: &[u32], i: usize, j: usize) -> usize {
    let k = sf
        .layout
        .blocks_of(j)
        .binary_search_by_key(&i, |b| b.target)
        .expect("block exists");
    base[j] as usize + k
}

impl LocalTasks {
    /// Enumerate the tasks owned by `rank` and compute their dependency
    /// counters and consumer lists, in one pass over the update pairs.
    pub fn build(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self {
        let ns = sf.n_supernodes();
        let mut block_base = Vec::with_capacity(ns + 1);
        let mut nb = 0u32;
        for j in 0..ns {
            block_base.push(nb);
            nb += sf.layout.blocks_of(j).len() as u32;
        }
        block_base.push(nb);
        let mut keys = Vec::new();
        let mut deps = Vec::new();
        // (input block, consuming task) pairs, in enumeration order.
        let mut consumer_pairs: Vec<(u32, TaskId)> = Vec::new();
        let mut diag_pairs: Vec<(u32, TaskId)> = Vec::new();
        // Update counts into each owned diagonal / off-diagonal block.
        let mut upd_into_diag = vec![0u32; ns];
        let mut upd_into_block = vec![0u32; nb as usize];
        for j in 0..ns {
            let blocks = sf.layout.blocks_of(j);
            let base = block_base[j];
            // Update tasks: every ordered pair (a ≥ b) of targets of j.
            for (bi, bb) in blocks.iter().enumerate() {
                for (ai, ba) in blocks.iter().enumerate().skip(bi) {
                    let (a, b) = (ba.target, bb.target);
                    if grid.map(a, b) != rank {
                        continue;
                    }
                    let id = keys.len() as TaskId;
                    keys.push(TaskKey::Update { j, a, b });
                    // Inputs: L(a,j) and L(b,j) — one dependency when equal.
                    deps.push(if a == b { 1 } else { 2 });
                    consumer_pairs.push((base + ai as u32, id));
                    if a == b {
                        upd_into_diag[b] += 1;
                    } else {
                        consumer_pairs.push((base + bi as u32, id));
                        upd_into_block[block_index(sf, &block_base, a, b)] += 1;
                    }
                }
            }
        }
        let mut diag_task = vec![NO_TASK; ns];
        let mut panel_task = vec![NO_TASK; nb as usize];
        for j in 0..ns {
            if grid.map(j, j) == rank {
                diag_task[j] = keys.len() as TaskId;
                keys.push(TaskKey::Diag { j });
                deps.push(upd_into_diag[j]);
            }
            for (k, b) in sf.layout.blocks_of(j).iter().enumerate() {
                let i = b.target;
                if grid.map(i, j) == rank {
                    let g = block_base[j] as usize + k;
                    let id = keys.len() as TaskId;
                    panel_task[g] = id;
                    keys.push(TaskKey::Panel { i, j });
                    deps.push(1 + upd_into_block[g]);
                    diag_pairs.push((j as u32, id));
                }
            }
        }
        let total = keys.len();
        LocalTasks {
            keys: Arc::new(keys),
            deps,
            consumers: Csr::from_pairs(nb as usize, &consumer_pairs),
            diag_consumers: Csr::from_pairs(ns, &diag_pairs),
            diag_task,
            panel_task,
            block_base,
            total,
        }
    }

    /// Owned update tasks consuming the factored block `L(i,j)`: for
    /// `i == j` the panel tasks `F(·,j)`, otherwise the updates `U(·,j,·)`.
    pub fn consumers_of(&self, sf: &SymbolicFactor, i: usize, j: usize) -> &[TaskId] {
        if i == j {
            self.diag_consumers.row(j)
        } else {
            self.consumers.row(block_index(sf, &self.block_base, i, j))
        }
    }

    /// Id of the owned task factoring block `(i,j)` — `D(j)` when
    /// `i == j`, else `F(i,j)` — the local successor of every update into
    /// that block.
    ///
    /// # Panics
    /// Panics if this rank does not own the block.
    pub fn factor_task(&self, sf: &SymbolicFactor, i: usize, j: usize) -> TaskId {
        let id = if i == j {
            self.diag_task[j]
        } else {
            self.panel_task[block_index(sf, &self.block_base, i, j)]
        };
        assert_ne!(id, NO_TASK, "block ({i},{j}) is not owned by this rank");
        id
    }

    /// Estimated total kernel seconds of this rank's slice — the sum of
    /// per-task roofline estimates (see [`TaskKey::estimate_secs`]); the
    /// rank-balance numerator for mapping diagnostics.
    pub fn estimated_secs(&self, sf: &SymbolicFactor, cost: &CostModel, cfg: &KernelConfig) -> f64 {
        self.keys
            .iter()
            .map(|k| k.estimate_secs(sf, cost, cfg))
            .sum()
    }

    /// Tasks with zero dependencies (initial RTQ contents), in seed order.
    pub fn initially_ready(&self) -> Vec<TaskKey> {
        let mut v: Vec<TaskKey> = self
            .keys
            .iter()
            .zip(&self.deps)
            .filter(|(_, &d)| d == 0)
            .map(|(k, _)| *k)
            .collect();
        v.sort_by_key(|k| k.seed_key());
        v
    }
}

/// The destination ranks a factored block must be fanned out to
/// (the paper's `P_F(i,j)` and `P_D(i)` sets, §3.3).
pub fn fanout_dests(
    sf: &SymbolicFactor,
    grid: &ProcGrid,
    rank: usize,
    i: usize,
    j: usize,
) -> Vec<usize> {
    let mut dests = Vec::new();
    if i == j {
        // Diagonal factor L(j,j): needed by panel tasks F(t,j).
        for b in sf.layout.blocks_of(j) {
            dests.push(grid.map(b.target, j));
        }
    } else {
        // Panel factor L(i,j): needed by updates U(i,j,b) for targets b ≤ i
        // and U(a,j,i) for targets a ≥ i.
        for b in sf.layout.blocks_of(j) {
            let t = b.target;
            if t <= i {
                dests.push(grid.map(i, t));
            }
            if t >= i {
                dests.push(grid.map(t, i));
            }
        }
    }
    dests.sort_unstable();
    dests.dedup();
    dests.retain(|&d| d != rank);
    dests
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_ordering::{compute_ordering, OrderingKind};
    use sympack_sparse::gen::laplacian_2d;
    use sympack_symbolic::{analyze, AnalyzeOptions};

    fn sf() -> SymbolicFactor {
        let a = laplacian_2d(7, 7);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        analyze(&a, &ord, &AnalyzeOptions::default())
    }

    #[test]
    fn task_counts_partition_across_ranks() {
        let sf = sf();
        for p in [1usize, 2, 4, 6] {
            let grid = ProcGrid::squarest(p);
            let total: usize = (0..p).map(|r| LocalTasks::build(&sf, &grid, r).total).sum();
            let single = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0).total;
            assert_eq!(total, single, "p={p}");
        }
    }

    #[test]
    fn consumer_lists_and_factor_ids_match_the_task_keys() {
        let sf = sf();
        let grid = ProcGrid::squarest(4);
        for r in 0..4 {
            let lt = LocalTasks::build(&sf, &grid, r);
            assert_eq!(lt.keys.len(), lt.total);
            assert_eq!(lt.deps.len(), lt.total);
            let mut edges = 0;
            for (id, k) in lt.keys.iter().enumerate() {
                let id = id as TaskId;
                match *k {
                    TaskKey::Update { j, a, b } => {
                        // Listed once under each distinct input block.
                        assert!(lt.consumers_of(&sf, a, j).contains(&id));
                        assert!(lt.consumers_of(&sf, b, j).contains(&id));
                        edges += if a == b { 1 } else { 2 };
                        // Its local successor factors the target block.
                        let succ = lt.keys[lt.factor_task(&sf, a, b) as usize];
                        let want = if a == b {
                            TaskKey::Diag { j: b }
                        } else {
                            TaskKey::Panel { i: a, j: b }
                        };
                        assert_eq!(succ, want);
                    }
                    TaskKey::Panel { i, j } => {
                        assert!(lt.consumers_of(&sf, j, j).contains(&id));
                        assert_eq!(lt.factor_task(&sf, i, j), id);
                        edges += 1;
                    }
                    TaskKey::Diag { j } => assert_eq!(lt.factor_task(&sf, j, j), id),
                }
            }
            assert_eq!(lt.consumers.len() + lt.diag_consumers.len(), edges);
        }
    }

    #[test]
    fn single_rank_initial_ready_tasks_are_leaf_diagonals() {
        let sf = sf();
        let lt = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let ready = lt.initially_ready();
        assert!(!ready.is_empty());
        for k in &ready {
            match k {
                TaskKey::Diag { j } => {
                    // Leaf supernodes: nothing updates into them.
                    let has_incoming = (0..*j).any(|k| sf.layout.find(*j, k).is_some());
                    assert!(!has_incoming, "diag {j} should have no incoming updates");
                }
                other => panic!("only diagonal tasks can start ready, got {other:?}"),
            }
        }
    }

    #[test]
    fn dep_count_totals_match_edge_count() {
        // With m_j off-diagonal blocks in supernode j:
        //   update deps  = m_j (diag pairs, 1 input) + m_j(m_j−1) (off-diag
        //                  pairs, 2 inputs)             = m_j²
        //   panel deps   = m_j (diag inputs)
        //   update→target deps (into panels/diag)       = m_j(m_j+1)/2
        let sf = sf();
        let lt = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let mut expect = 0usize;
        for j in 0..sf.n_supernodes() {
            let m = sf.layout.blocks_of(j).len();
            expect += m * m + m + m * (m + 1) / 2;
        }
        let total: usize = lt.deps.iter().map(|&d| d as usize).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn estimates_are_positive_and_partition_across_ranks() {
        let sf = sf();
        let cost = CostModel::default();
        let cfg = KernelConfig::default();
        let single = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let total1 = single.estimated_secs(&sf, &cost, &cfg);
        assert!(total1 > 0.0);
        for k in single.keys.iter() {
            assert!(k.estimate_secs(&sf, &cost, &cfg) > 0.0, "{k:?}");
            assert!(k.flops(&sf) > 0, "{k:?}");
        }
        // The per-rank estimates sum to the single-rank total exactly:
        // every task is owned by exactly one rank and the estimate only
        // depends on the task, not the owner.
        let grid = ProcGrid::squarest(4);
        let split: f64 = (0..4)
            .map(|r| LocalTasks::build(&sf, &grid, r).estimated_secs(&sf, &cost, &cfg))
            .sum();
        assert!((split - total1).abs() <= 1e-9 * total1);
    }

    #[test]
    fn estimate_depends_on_kernel_config_via_pack_traffic() {
        // A config that never packs predicts less memory traffic than one
        // that always packs; with a bandwidth-starved cost model the
        // difference must show up in the time estimate.
        let sf = sf();
        let cost = CostModel {
            mem_bandwidth: 1.0, // absurdly slow: all tasks bandwidth-bound
            ..Default::default()
        };
        let no_pack = KernelConfig {
            pack_min_flops: u64::MAX,
            ..Default::default()
        };
        let always_pack = KernelConfig {
            pack_min_flops: 0,
            ..Default::default()
        };
        let lt = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let gemm = lt
            .keys
            .iter()
            .find(|k| k.op() == sympack_gpu::Op::Gemm)
            .expect("graph has a gemm task");
        let t_no = gemm.estimate_secs(&sf, &cost, &no_pack);
        let t_yes = gemm.estimate_secs(&sf, &cost, &always_pack);
        assert!(t_yes > t_no, "packed traffic must raise the estimate");
    }

    #[test]
    fn fanout_dests_exclude_self_and_cover_consumers() {
        let sf = sf();
        let grid = ProcGrid::squarest(4);
        for j in 0..sf.n_supernodes() {
            for b in sf.layout.blocks_of(j) {
                let i = b.target;
                let owner = grid.map(i, j);
                let dests = fanout_dests(&sf, &grid, owner, i, j);
                assert!(!dests.contains(&owner));
                // Every rank with an update consuming L(i,j) is covered.
                for r in 0..4 {
                    if r == owner {
                        continue;
                    }
                    let lt = LocalTasks::build(&sf, &grid, r);
                    if !lt.consumers_of(&sf, i, j).is_empty() {
                        assert!(dests.contains(&r), "rank {r} missing for L({i},{j})");
                    }
                }
            }
        }
    }
}
