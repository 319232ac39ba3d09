//! The per-rank factorization executor: fan-out communication and the
//! task-execution bodies of the paper's Figs. 3–4. All scheduling (LTQ,
//! RTQ, signal inbox, dependency counters, abort) runs through the shared
//! [`crate::sched::TaskEngine`].

use crate::map2d::ProcGrid;
use crate::sched::{self, CommLayer, FetchConfig, FetchMode, TaskEngine, TaskId, TaskKind};
use crate::storage::{Block, BlockStore};
use crate::taskgraph::{fanout_dests, LocalTasks, RtqPolicy, TaskKey};
use crate::SolverError;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_dense::{LowRankMat, Mat};
use sympack_gpu::{KernelEngine, OomPolicy};
use sympack_pgas::coalesce::{
    plan_tree, BcastPlan, BcastTopology, CoalesceConfig, SIGNAL_WIRE_BYTES,
};
use sympack_pgas::{GlobalPtr, MemKind, Rank};
use sympack_symbolic::SymbolicFactor;

/// Sentinel rank meaning "dense payload" on the signal wire.
const DENSE_WIRE: usize = usize::MAX;

/// A factored block available to this rank (produced locally or fetched).
/// Availability *time* is tracked on the consuming tasks (via their
/// dependency decrements), not on the block itself. Compressed panels stay
/// compressed here: the update kernels consume them in factored form.
#[derive(Debug)]
struct InputBlock {
    data: Block,
}

/// A `signal(ptr, meta)` notification queued by an incoming RPC
/// (paper Fig. 4, steps 3–4). `lr_rank == usize::MAX` means the pointed-to
/// payload is the dense column-major block; any other value means the
/// payload is the concatenated `[U | V]` factors of that rank.
#[derive(Debug, Clone, Copy)]
pub struct Signal {
    ptr: GlobalPtr,
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
    lr_rank: usize,
}

impl sched::Signal for Signal {
    fn ptr(&self) -> GlobalPtr {
        self.ptr
    }

    fn describe(&self) -> String {
        if self.i == self.j {
            format!("factored diagonal block L({},{})", self.i, self.j)
        } else if self.lr_rank != DENSE_WIRE {
            format!(
                "factored panel block L({},{}) (rank-{} compressed)",
                self.i, self.j, self.lr_rank
            )
        } else {
            format!("factored panel block L({},{})", self.i, self.j)
        }
    }
}

/// A pending relay obligation: this rank is a leader position in a
/// hierarchical broadcast and must forward the block (re-hosted locally)
/// to its node members and child leaders once the data arrives.
struct RelayDuty {
    plan: Arc<BcastPlan>,
    pos: usize,
}

/// Per-rank block-publication accounting: payload bytes this rank placed in
/// its shared heap for consumers to fetch, split by stored form. For a
/// compressed publication, `lr_dense_equiv_bytes` records what the same
/// block would have cost dense — the basis of the compression ratio the
/// profiler reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Payload bytes of dense block publications.
    pub dense_bytes: u64,
    /// Payload bytes of compressed (`[U|V]`) block publications.
    pub lr_bytes: u64,
    /// Dense-equivalent bytes of the compressed publications.
    pub lr_dense_equiv_bytes: u64,
    /// Blocks published dense.
    pub dense_blocks: u64,
    /// Blocks published compressed.
    pub lr_blocks: u64,
}

impl PublishStats {
    /// Merge another rank's stats into this one.
    pub fn merge(&mut self, other: &PublishStats) {
        self.dense_bytes += other.dense_bytes;
        self.lr_bytes += other.lr_bytes;
        self.lr_dense_equiv_bytes += other.lr_dense_equiv_bytes;
        self.dense_blocks += other.dense_blocks;
        self.lr_blocks += other.lr_blocks;
    }

    /// Total payload bytes published (any form).
    pub fn published_bytes(&self) -> u64 {
        self.dense_bytes + self.lr_bytes
    }
}

/// Per-rank factorization engine. Installed as the rank's user state so the
/// RPC `signal` closures can reach it.
pub struct FactoEngine {
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    /// This rank's blocks of `A` (progressively overwritten with `L`).
    pub store: BlockStore,
    /// This rank's slice of the task graph: the task table the scheduler
    /// runs on, the consumer lists of every factored block and the id of
    /// each owned block's factor task. Shared with the plan.
    local: Arc<LocalTasks>,
    /// The shared scheduling core: LTQ, RTQ, inbox, abort, tracer.
    pub rt: TaskEngine<TaskKey, Signal>,
    inputs: HashMap<(usize, usize), InputBlock>,
    /// Dense-kernel executor with offload heuristic and op counters.
    pub kernels: KernelEngine,
    /// Signal-resolution data path: host `rget`s, or direct device copies
    /// for blocks of at least `device_threshold` elements (§4.2).
    pub fetch: FetchConfig,
    /// Block-publication wire pattern: flat owner→targets or k-ary tree
    /// over node groups with leader relays.
    topology: BcastTopology,
    /// Per-destination signal coalescing front-end (pass-through when the
    /// solver options leave coalescing off).
    comm: CommLayer,
    /// Relay obligations keyed by the incoming signal's pointer, installed
    /// at signal acceptance and discharged when the data arrives.
    relays: HashMap<GlobalPtr, RelayDuty>,
    /// Block-publication byte accounting (dense vs compressed).
    pub publish: PublishStats,
}

impl FactoEngine {
    /// Build the engine for `rank` over its slice of the task graph (the
    /// plan's [`LocalTasks`]): allocate owned blocks and scatter the
    /// permuted matrix into them. Every factorization — the driver's, a
    /// session's re-factorizations, a fleet's re-materializations — runs on
    /// the slices its [`crate::SymbolicPlan`] built once.
    #[allow(clippy::too_many_arguments)] // one-shot constructor called by the driver only
    pub fn with_tasks(
        sf: Arc<SymbolicFactor>,
        ap: &sympack_sparse::SparseSym,
        grid: ProcGrid,
        rank: usize,
        kernels: KernelEngine,
        policy: RtqPolicy,
        oom_policy: OomPolicy,
        abort: Arc<AtomicBool>,
        topology: BcastTopology,
        coalesce: Option<CoalesceConfig>,
        local: Arc<LocalTasks>,
    ) -> Self {
        let mut kernels = kernels;
        if kernels.blr.enabled() {
            // Global truncation scale: ‖A‖_F is permutation-invariant, so
            // every rank computes the identical value from its copy of the
            // permuted matrix (the absolute-threshold BLR criterion).
            kernels.blr_scale = ap.frobenius_norm();
        }
        let store = BlockStore::init(&sf, ap, &grid, rank);
        let mut rt = TaskEngine::with_tasks(Arc::clone(&local.keys), &local.deps, policy, abort);
        if policy == RtqPolicy::CommAware {
            // Overlap-driven urgency: a factor task's output unblocks this
            // many *remote* ranks, so producing it early feeds the network
            // while local update work hides behind the transfers. Installed
            // before seeding: the urgency travels with a task into the RTQ.
            for (id, k) in local.keys.iter().enumerate() {
                let urg = match *k {
                    TaskKey::Diag { j } => fanout_dests(&sf, &grid, rank, j, j).len(),
                    TaskKey::Panel { i, j } => fanout_dests(&sf, &grid, rank, i, j).len(),
                    TaskKey::Update { .. } => 0,
                };
                if urg > 0 {
                    rt.set_urgency(id as TaskId, urg as u64);
                }
            }
        }
        rt.seed_ready();
        // Advisory roofline estimates for progress/makespan prediction —
        // installed on every rank, never consulted by the RTQ policy.
        rt.set_estimates(|k| k.estimate_secs(&sf, &kernels.cost, &kernels.config));
        let fetch = FetchConfig {
            device_enabled: kernels.gpu_enabled,
            device_threshold: 64 * 64,
            oom_policy,
            mode: FetchMode::NonBlocking,
        };
        FactoEngine {
            sf,
            grid,
            store,
            local,
            rt,
            inputs: HashMap::new(),
            kernels,
            fetch,
            topology,
            comm: CommLayer::new(coalesce),
            relays: HashMap::new(),
            publish: PublishStats::default(),
        }
    }

    /// True when every owned task has executed (or the job aborted).
    pub fn finished(&self) -> bool {
        self.rt.finished()
    }

    /// Global pattern rows of block `(i, j)`.
    fn block_rows(&self, i: usize, j: usize) -> &[usize] {
        let b = self.sf.layout.find(i, j).expect("block exists");
        &self.sf.patterns[j][b.row_offset..b.row_offset + b.n_rows]
    }

    /// Record an available factored block and decrement its consumers,
    /// naming the producing task as the dependency edge for the profiler.
    /// A compressed arrival also corrects the advisory roofline estimates
    /// of the update tasks that will consume it: their flop and byte costs
    /// shrink with the operand's stored rank.
    fn add_input(&mut self, i: usize, j: usize, data: Block, ready_at: f64) {
        let producer = if i == j {
            TaskKey::Diag { j }
        } else {
            TaskKey::Panel { i, j }
        };
        let local = Arc::clone(&self.local);
        for &id in local.consumers_of(&self.sf, i, j) {
            self.rt.dec_from(id, ready_at, || producer.trace_label());
        }
        self.rt.add_mem(data.bytes());
        let compressed = data.is_lowrank();
        self.inputs.insert((i, j), InputBlock { data });
        if compressed {
            self.reestimate_consumers(i, j);
        }
    }

    /// Re-derive the advisory duration estimates of the update tasks
    /// consuming input `(i, j)` from the *actual stored form* of their
    /// operands. Estimates are never consulted by the RTQ policy, so this
    /// only sharpens progress/makespan prediction — it cannot perturb the
    /// schedule.
    fn reestimate_consumers(&mut self, i: usize, j: usize) {
        let local = Arc::clone(&self.local);
        for &id in local.consumers_of(&self.sf, i, j) {
            let k = self.rt.key(id);
            let TaskKey::Update { j: uj, a, b } = k else {
                continue;
            };
            let ra = self.inputs.get(&(a, uj)).and_then(|ib| ib.data.lr_rank());
            let rb = self.inputs.get(&(b, uj)).and_then(|ib| ib.data.lr_rank());
            let secs =
                k.estimate_secs_stored(&self.sf, &self.kernels.cost, &self.kernels.config, ra, rb);
            self.rt.update_estimate(id, secs);
        }
    }

    /// Resolve pending signals into data movement (Fig. 4 step 5) through
    /// the runtime's shared fetch path. A signal that carried a relay duty
    /// discharges it here, once the data has actually arrived.
    fn drain_pending(&mut self, rank: &mut Rank) {
        let signals = self.rt.take_signals();
        if signals.is_empty() {
            return;
        }
        let cfg = self.fetch;
        let res = sched::drain_signals(rank, signals, &cfg, |rank, s, data, ready_at| {
            if let Some(duty) = self.relays.remove(&s.ptr) {
                self.forward_relay(rank, &s, &data, ready_at, duty);
            }
            let blk = if s.lr_rank == DENSE_WIRE {
                Block::Dense(Mat::from_col_major(s.rows, s.cols, data))
            } else {
                Block::LowRank(LowRankMat::from_payload(s.rows, s.cols, s.lr_rank, &data))
            };
            self.add_input(s.i, s.j, blk, ready_at);
        });
        if let Err(err) = res {
            self.rt.fail(rank, err);
        }
    }

    /// Fan a completed factor block out to the ranks owning dependent tasks
    /// (Fig. 4 steps 1–2: allocate in the shared heap, then `signal` RPCs).
    /// Under [`BcastTopology::Tree`] the owner only signals its own node's
    /// consumers plus the first `arity` remote-node leaders; the leaders
    /// re-host and relay onward ([`FactoEngine::forward_relay`]), so the
    /// owner's NIC serves O(arity) remote pulls instead of O(targets).
    fn fanout(&mut self, rank: &mut Rank, i: usize, j: usize, data: &Block) {
        let dests = fanout_dests(&self.sf, &self.grid, rank.id(), i, j);
        if dests.is_empty() {
            return;
        }
        // Compressed panels ship their `[U | V]` factors — (rows+cols)·rank
        // values instead of rows·cols — so every rget/relay hop downstream
        // moves (and is charged for) the reduced byte count.
        let (payload_len, lr_rank) = match data {
            Block::Dense(m) => (m.rows() * m.cols(), DENSE_WIRE),
            Block::LowRank(lr) => (lr.payload_len(), lr.rank()),
        };
        match data {
            Block::Dense(_) => {
                self.publish.dense_blocks += 1;
                self.publish.dense_bytes += (payload_len * 8) as u64;
            }
            Block::LowRank(_) => {
                self.publish.lr_blocks += 1;
                self.publish.lr_bytes += (payload_len * 8) as u64;
                self.publish.lr_dense_equiv_bytes += (data.rows() * data.cols() * 8) as u64;
            }
        }
        let ptr = rank
            .alloc(MemKind::Host, payload_len)
            .expect("host allocation cannot fail");
        match data {
            Block::Dense(m) => rank.write_local(&ptr, m.as_slice()),
            Block::LowRank(lr) => rank.write_local(&ptr, &lr.to_payload()),
        }
        let sig = Signal {
            ptr,
            i,
            j,
            rows: data.rows(),
            cols: data.cols(),
            lr_rank,
        };
        match self.topology {
            BcastTopology::Flat => {
                for d in dests {
                    self.send_signal(rank, d, sig);
                }
            }
            BcastTopology::Tree { arity } => {
                let plan = Arc::new(plan_tree(rank.id(), &dests, arity, rank.ranks_per_node()));
                for idx in 0..plan.direct.len() {
                    self.send_signal(rank, plan.direct[idx], sig);
                }
                for pos in plan.root_children() {
                    self.send_relay(rank, sig, &plan, pos);
                }
            }
        }
    }

    /// Ship one plain dependency signal toward `dest`, through the
    /// coalescing layer (pass-through when coalescing is off).
    fn send_signal(&mut self, rank: &mut Rank, dest: usize, sig: Signal) {
        // Signals ride the droppable/duplicable path; the receiving
        // inbox deduplicates (post_unique) and the stall detector
        // diagnoses drops. try_with_state: a straggling duplicate may
        // land after the factorization state is torn down.
        self.comm
            .send(rank, dest, SIGNAL_WIRE_BYTES, move |target| {
                target.try_with_state::<FactoEngine, _>(|_, st| {
                    st.rt.post_unique(sig);
                });
            });
    }

    /// Ship a signal that also assigns a relay duty: the receiver — the
    /// leader at tree position `pos` of `plan` — must forward the block
    /// onward once its data arrives. The duty is installed only on first
    /// acceptance, so fault-injected duplicates never relay twice.
    fn send_relay(&mut self, rank: &mut Rank, sig: Signal, plan: &Arc<BcastPlan>, pos: usize) {
        let dest = plan.leaders[pos];
        let plan = Arc::clone(plan);
        self.comm
            .send(rank, dest, SIGNAL_WIRE_BYTES, move |target| {
                let plan = Arc::clone(&plan);
                target.try_with_state::<FactoEngine, _>(|_, st| {
                    if st.rt.post_unique(sig) {
                        st.relays.insert(sig.ptr, RelayDuty { plan, pos });
                    }
                });
            });
    }

    /// Discharge a relay duty: re-host the arrived block in this rank's
    /// shared heap and signal the leader's node members (flat) plus its
    /// child leaders (who inherit relay duties of their own). Virtual-time
    /// honesty: the block cannot leave this rank before it arrived, so the
    /// leader's clock first advances to the fetch completion time.
    fn forward_relay(
        &mut self,
        rank: &mut Rank,
        s: &Signal,
        data: &[f64],
        ready_at: f64,
        duty: RelayDuty,
    ) {
        rank.advance_to(ready_at);
        let ptr = rank
            .alloc(MemKind::Host, data.len())
            .expect("host allocation cannot fail");
        rank.write_local(&ptr, data);
        let fwd = Signal { ptr, ..*s };
        let RelayDuty { plan, pos } = duty;
        for idx in 0..plan.members[pos].len() {
            self.send_signal(rank, plan.members[pos][idx], fwd);
        }
        for child in plan.children_of(pos) {
            self.send_relay(rank, fwd, &plan, child);
        }
    }

    /// Execute one scheduler step: resolve notifications, then run one ready
    /// task. Returns `true` if a task executed.
    pub fn step(&mut self, rank: &mut Rank) -> bool {
        self.drain_pending(rank);
        // Quantum-expired frames flush as virtual time advances; when the
        // rank has no ready work at all, everything buffered must go out so
        // a held-back signal can never starve the job into a false stall.
        self.comm.tick(rank);
        let Some((id, key, ready_at)) = self.rt.pick() else {
            self.comm.flush_all(rank);
            return false;
        };
        self.rt.begin(rank, ready_at);
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, id, j),
            TaskKey::Panel { i, j } => self.exec_panel(rank, id, i, j),
            TaskKey::Update { j, a, b } => self.exec_update(rank, id, j, a, b),
        }
        self.rt.complete(id);
        true
    }

    fn exec_diag(&mut self, rank: &mut Rank, id: TaskId, j: usize) {
        let mut m = self
            .store
            .take((j, j))
            .expect("diag block owned")
            .into_dense();
        match self.kernels.potrf(&mut m) {
            Ok((_loc, secs)) => self.rt.charge(rank, id, secs),
            Err(sympack_dense::DenseError::NotPositiveDefinite { column }) => {
                let col = self.sf.partition.first_col(j) + column;
                self.rt
                    .fail(rank, SolverError::NotPositiveDefinite { column: col });
                self.store.put((j, j), m);
                return;
            }
            Err(other) => panic!("unexpected dense error: {other}"),
        }
        let blk = Block::Dense(m);
        self.fanout(rank, j, j, &blk);
        let now = rank.now();
        self.store.put((j, j), blk.clone());
        self.add_input(j, j, blk, now);
    }

    fn exec_panel(&mut self, rank: &mut Rank, id: TaskId, i: usize, j: usize) {
        let mut b = self
            .store
            .take((i, j))
            .expect("panel block owned")
            .into_dense();
        let ldiag = self
            .inputs
            .get(&(j, j))
            .expect("diagonal factor present")
            .data
            .dense();
        let (_loc, mut secs) = self.kernels.trsm(&mut b, ldiag);
        // BLR: try to truncate the factored panel right after the solve —
        // before publication — so storage, wire bytes, and every downstream
        // update see the compressed form. Disabled-tolerance runs skip this
        // branch entirely and stay bit-identical to the dense engine.
        let stored = if self.kernels.blr.eligible(b.rows(), b.cols()) {
            let (lr, csecs) = self.kernels.compress_block(&b);
            secs += csecs;
            match lr {
                Some(lr) => Block::LowRank(lr),
                None => Block::Dense(b),
            }
        } else {
            Block::Dense(b)
        };
        self.rt.charge(rank, id, secs);
        self.fanout(rank, i, j, &stored);
        let now = rank.now();
        self.store.put((i, j), stored.clone());
        self.add_input(i, j, stored, now);
    }

    fn exec_update(&mut self, rank: &mut Rank, id: TaskId, j: usize, a: usize, b: usize) {
        if a == b {
            // SYRK into the diagonal block of b.
            let lb = &self.inputs.get(&(b, j)).expect("input L(b,j) present").data;
            let nb = lb.rows();
            let mut temp = Mat::zeros(nb, nb);
            let (_loc, secs) = self.kernels.syrk_any(&mut temp, lb.as_ref());
            self.rt.charge(rank, id, secs);
            let rows_b: Vec<usize> = self.block_rows(b, j).to_vec();
            let first = self.sf.partition.first_col(b);
            let target = self
                .store
                .get_mut((b, b))
                .expect("diag target owned")
                .dense_mut();
            for (ci, &gc) in rows_b.iter().enumerate() {
                let tc = gc - first;
                for (ri, &gr) in rows_b.iter().enumerate().skip(ci) {
                    let tr = gr - first;
                    target[(tr, tc)] += temp[(ri, ci)];
                }
            }
        } else {
            // GEMM into block (a, b).
            let (la, lb) = (
                &self.inputs.get(&(a, j)).expect("input L(a,j) present").data,
                &self.inputs.get(&(b, j)).expect("input L(b,j) present").data,
            );
            let (ma, nb) = (la.rows(), lb.rows());
            let mut temp = Mat::zeros(ma, nb);
            let (_loc, secs) = self.kernels.gemm_any(&mut temp, la.as_ref(), lb.as_ref());
            self.rt.charge(rank, id, secs);
            let rows_a: Vec<usize> = self.block_rows(a, j).to_vec();
            let rows_b: Vec<usize> = self.block_rows(b, j).to_vec();
            let target_rows: Vec<usize> = self.block_rows(a, b).to_vec();
            let first_b = self.sf.partition.first_col(b);
            let target = self
                .store
                .get_mut((a, b))
                .expect("target block owned")
                .dense_mut();
            // Row map: rows of L(a,j) within supernode a are a subset of the
            // target block's rows (symbolic containment).
            let row_map: Vec<usize> = rows_a
                .iter()
                .map(|r| target_rows.binary_search(r).expect("row containment"))
                .collect();
            for (ci, &gc) in rows_b.iter().enumerate() {
                let tc = gc - first_b;
                for (ri, &tr) in row_map.iter().enumerate() {
                    target[(tr, tc)] += temp[(ri, ci)];
                }
            }
        }
        let now_ready = rank.now();
        // Local successor: the panel (or diagonal) task of the target block.
        let succ = self.local.factor_task(&self.sf, a, b);
        self.rt.dec_from(succ, now_ready, || {
            TaskKey::Update { j, a, b }.trace_label()
        });
    }

    /// Drive the factorization to completion. Returns the error if any rank
    /// failed.
    pub fn run_to_completion(rank: &mut Rank, engine: FactoEngine) -> (FactoEngine, f64) {
        let start = rank.now();
        let engine = sched::run_event_loop(
            rank,
            engine,
            |rank, st: &mut FactoEngine| {
                // Run until we go idle, then re-poll.
                while st.step(rank) {}
                st.finished() || rank.job_aborted()
            },
            |rank, st| {
                let (done, total) = (st.rt.done_count(), st.rt.total());
                st.rt.fail(
                    rank,
                    SolverError::Stalled {
                        rank: rank.id(),
                        done,
                        total,
                        detail: "factorization quiesced with unfinished tasks \
                                 (dropped signal suspected)"
                            .into(),
                    },
                );
            },
        );
        if !engine.rt.aborted() && !rank.job_aborted() {
            engine.rt.debug_assert_completed();
        }
        let elapsed = rank.now() - start;
        (engine, elapsed)
    }
}
