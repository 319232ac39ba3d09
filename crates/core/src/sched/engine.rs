//! The generic per-rank task engine: dependency counters, RTQ, signal
//! inbox, abort broadcast, virtual-clock accounting and tracer hooks.

use super::queue::{ReadyQueue, RtqPolicy};
use super::{Signal, TaskKind};
use crate::SolverError;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use sympack_pgas::{GlobalPtr, Rank};
use sympack_trace::{SpanKind, TraceCat, TraceEvent, Tracer};

/// Dense per-rank task id: the index of a task in its engine's task table.
/// Engines derive ids from their precomputed slice of the task graph, so
/// no task is ever looked up by hashing its key.
pub type TaskId = u32;

/// Mutable scheduling state of one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskState {
    /// Outstanding dependencies (input arrivals + local completions).
    pub deps: usize,
    /// Virtual time at which the latest input became available.
    pub ready_at: f64,
}

/// An RTQ entry: the dense id plus the key the pop policies order by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Queued<K> {
    id: TaskId,
    key: K,
}

impl<K: TaskKind> TaskKind for Queued<K> {
    fn priority_key(&self) -> (usize, usize) {
        self.key.priority_key()
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        self.key.seed_key()
    }
    fn kind_name(&self) -> &'static str {
        self.key.kind_name()
    }
    fn trace_label(&self) -> String {
        self.key.trace_label()
    }
    fn trace_cat(&self) -> TraceCat {
        self.key.trace_cat()
    }
}

/// The scheduling core shared by every engine: the LTQ (per-task dependency
/// counters), the RTQ, the signal inbox and the bookkeeping around them.
///
/// `K` is the engine's task species, `S` its signal (notification) type.
/// Engines embed one `TaskEngine` and route *all* scheduling through it;
/// this is the only definition of `dec`/`pick`/inbox draining in the tree.
///
/// Tasks live in one dense table indexed by [`TaskId`]; every per-task
/// record (counters, execution flags, estimates, urgencies, producer
/// labels) is a `Vec` over the same ids.
pub struct TaskEngine<K: TaskKind, S = ()> {
    /// Key of each task, by id. Shared with the precomputed slice the
    /// table came from (a plan's task graph or solve schedule), so building
    /// an engine never copies it.
    keys: Arc<Vec<K>>,
    /// Scheduling state per task (the LTQ of §3.4), by id.
    tasks: Vec<TaskState>,
    rtq: ReadyQueue<Queued<K>>,
    /// Notifications delivered by RPC but not yet turned into gets.
    inbox: Vec<S>,
    done: usize,
    /// Executed tasks per kind (schedule-invariant; checked by tests).
    counts: Vec<(&'static str, u64)>,
    /// Fixed overhead charged to the virtual clock per executed task — the
    /// classical-runtime tax the right-looking baseline models (zero for
    /// the fan-out engine).
    task_overhead: f64,
    /// First error observed (local or broadcast from another rank).
    pub error: Option<SolverError>,
    /// Job-wide abort flag, set by whichever rank first hits an error.
    abort: Arc<AtomicBool>,
    /// Optional task-timeline collector.
    pub tracer: Option<Tracer>,
    /// Optional live-telemetry bundle: task throughput, dep-wait, RTQ
    /// depth, resident bytes and the rank's comm counters, sampled into
    /// time-series rings at task boundaries. Like the tracer, updating it
    /// never touches the virtual clock.
    pub telemetry: Option<Box<sympack_trace::telemetry::SchedTelemetry>>,
    /// Signal pointers already accepted: the inbox is idempotent, so a
    /// duplicated `signal(ptr, meta)` delivery (network retry, fault
    /// injection) is absorbed instead of double-decrementing dependants.
    seen_signals: HashSet<GlobalPtr>,
    /// Which tasks have executed — the exactly-once invariant checker.
    executed: Vec<bool>,
    /// Ready time of the task most recently returned by `pick`, stamped
    /// onto the span `charge` records (profiler dep-wait attribution).
    picked_ready: f64,
    /// Producer label of each task's latest-arriving dependency, recorded
    /// by [`dec_from`](Self::dec_from) only while tracing (the profiler's
    /// dependency edges; empty and untouched otherwise).
    pred: Vec<Option<String>>,
    /// Resident input-buffer gauge (bytes), sampled onto exec spans.
    mem_bytes: u64,
    /// Per-task cost estimates installed by [`set_estimates`]
    /// (Self::set_estimates), by id (empty when none are installed);
    /// purely advisory — progress prediction only, never consulted by
    /// `pick`, so the schedule is estimate-independent.
    estimates: Vec<f64>,
    /// Sum of estimates of not-yet-completed tasks.
    est_remaining: f64,
    /// Per-task urgency for [`RtqPolicy::CommAware`], by id (empty when
    /// none is installed; absent ⇒ 0).
    urgency: Vec<u64>,
}

impl<K: TaskKind, S: Send + 'static> TaskEngine<K, S> {
    /// An empty engine; add tasks with [`insert_task`](Self::insert_task)
    /// and seed the RTQ with [`seed_ready`](Self::seed_ready).
    pub fn new(policy: RtqPolicy, abort: Arc<AtomicBool>) -> Self {
        Self::with_tasks(Arc::new(Vec::new()), &[], policy, abort)
    }

    /// An engine over a precomputed task table: task `id` has key
    /// `keys[id]` and `deps[id]` outstanding dependencies (the fan-out
    /// path, where `LocalTasks::build` computes the counters, and the
    /// solve, where the `SolveSchedule` does). O(tasks), no hashing.
    pub fn with_tasks(
        keys: Arc<Vec<K>>,
        deps: &[u32],
        policy: RtqPolicy,
        abort: Arc<AtomicBool>,
    ) -> Self {
        assert_eq!(keys.len(), deps.len(), "one dependency count per task");
        TaskEngine {
            tasks: deps
                .iter()
                .map(|&d| TaskState {
                    deps: d as usize,
                    ready_at: 0.0,
                })
                .collect(),
            executed: vec![false; keys.len()],
            keys,
            rtq: ReadyQueue::new(policy),
            inbox: Vec::new(),
            done: 0,
            counts: Vec::new(),
            task_overhead: 0.0,
            error: None,
            abort,
            tracer: None,
            telemetry: None,
            seen_signals: HashSet::new(),
            picked_ready: 0.0,
            pred: Vec::new(),
            mem_bytes: 0,
            estimates: Vec::new(),
            est_remaining: 0.0,
            urgency: Vec::new(),
        }
    }

    /// Install a per-task cost estimate (seconds) for every registered
    /// task. The estimates feed [`estimated_remaining`]
    /// (Self::estimated_remaining) and [`predicted_makespan`]
    /// (Self::predicted_makespan) and are retired as tasks complete; they
    /// are never consulted when picking from the RTQ, so installing (or
    /// skipping) them cannot change the schedule.
    pub fn set_estimates(&mut self, mut est: impl FnMut(&K) -> f64) {
        self.estimates = self.keys.iter().map(|k| est(k).max(0.0)).collect();
        self.est_remaining = self
            .estimates
            .iter()
            .zip(&self.executed)
            .filter(|(_, &done)| !done)
            .map(|(s, _)| s)
            .sum();
    }

    /// Replace the advisory estimate of one not-yet-completed task,
    /// adjusting the remaining-work sum by the delta. A no-op when no
    /// estimate was installed (e.g. [`set_estimates`](Self::set_estimates)
    /// was never called) or the task already completed — like installation,
    /// correction can never change the schedule, only sharpen progress
    /// prediction.
    pub fn update_estimate(&mut self, id: TaskId, secs: f64) {
        let i = id as usize;
        if self.executed[i] {
            return;
        }
        let Some(slot) = self.estimates.get_mut(i) else {
            return;
        };
        let s = secs.max(0.0);
        self.est_remaining = (self.est_remaining - *slot + s).max(0.0);
        *slot = s;
    }

    /// Estimated seconds of kernel work not yet completed (0.0 when no
    /// estimates are installed).
    pub fn estimated_remaining(&self) -> f64 {
        self.est_remaining
    }

    /// Predicted completion time of this rank, assuming it executes its
    /// remaining estimated work serially from virtual time `now` — the
    /// lower bound a perfectly communication-hidden schedule approaches.
    pub fn predicted_makespan(&self, now: f64) -> f64 {
        now + self.est_remaining
    }

    /// Set the per-task virtual-clock overhead (baseline runtime tax).
    pub fn set_task_overhead(&mut self, secs: f64) {
        self.task_overhead = secs;
    }

    /// Key of task `id`.
    pub fn key(&self, id: TaskId) -> K {
        self.keys[id as usize]
    }

    /// Record a task's urgency for [`RtqPolicy::CommAware`] scheduling
    /// (how many remote ranks its output unblocks). Advisory under every
    /// other policy. The urgency travels with the task into the RTQ, so
    /// install it before the task becomes ready (before
    /// [`seed_ready`](Self::seed_ready) for seeded tasks).
    pub fn set_urgency(&mut self, id: TaskId, urgency: u64) {
        if self.urgency.is_empty() {
            self.urgency = vec![0; self.tasks.len()];
        }
        self.urgency[id as usize] = urgency;
    }

    /// Register an owned task with `deps` outstanding dependencies and
    /// return its id (ids are handed out densely in insertion order).
    pub fn insert_task(&mut self, key: K, deps: usize) -> TaskId {
        let id = TaskId::try_from(self.tasks.len()).expect("task ids fit in u32");
        Arc::make_mut(&mut self.keys).push(key);
        self.tasks.push(TaskState {
            deps,
            ready_at: 0.0,
        });
        self.executed.push(false);
        if !self.estimates.is_empty() {
            self.estimates.push(0.0);
        }
        if !self.urgency.is_empty() {
            self.urgency.push(0);
        }
        id
    }

    fn push_ready(&mut self, id: TaskId) {
        let i = id as usize;
        let urgency = self.urgency.get(i).copied().unwrap_or(0);
        self.rtq.push_urgent(
            Queued {
                id,
                key: self.keys[i],
            },
            urgency,
        );
    }

    /// Move every zero-dependency task onto the RTQ, in the deterministic
    /// [`TaskKind::seed_key`] order (table order must not leak into the
    /// schedule).
    pub fn seed_ready(&mut self) {
        let mut v: Vec<TaskId> = (0..self.tasks.len() as TaskId)
            .filter(|&id| self.tasks[id as usize].deps == 0)
            .collect();
        v.sort_by_key(|&id| self.keys[id as usize].seed_key());
        for id in v {
            self.push_ready(id);
        }
    }

    /// Decrement one dependency of task `id`; move it to the RTQ at zero.
    pub fn dec(&mut self, id: TaskId, ready_at: f64) {
        let i = id as usize;
        debug_assert!(
            !self.executed[i],
            "dependency decrement of already-executed task {:?}",
            self.keys[i]
        );
        let st = &mut self.tasks[i];
        debug_assert!(st.deps > 0, "over-decrement of {:?}", self.keys[i]);
        st.deps -= 1;
        if ready_at > st.ready_at {
            st.ready_at = ready_at;
        }
        if st.deps == 0 {
            self.push_ready(id);
        }
    }

    /// [`dec`](Self::dec) that also names the producer whose arrival this
    /// decrement represents. While tracing, the label of the *latest*
    /// arrival is kept per task and stamped onto the execution span as the
    /// dependency edge for the critical-path walk. The label closure is
    /// only invoked when a tracer is installed, so the disabled path costs
    /// nothing beyond the plain `dec`.
    pub fn dec_from(&mut self, id: TaskId, ready_at: f64, producer: impl FnOnce() -> String) {
        if self.tracer.is_some() {
            let i = id as usize;
            if ready_at >= self.tasks[i].ready_at {
                if self.pred.is_empty() {
                    self.pred = vec![None; self.tasks.len()];
                }
                self.pred[i] = Some(producer());
            }
        }
        self.dec(id, ready_at);
    }

    /// Adjust the resident input-buffer gauge (bytes of fetched panels
    /// held); sampled onto exec spans as the memory high-water series.
    pub fn add_mem(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_add(bytes);
    }

    /// Scheduling state of a task (tests and engine assertions).
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        self.tasks.get(id as usize).copied()
    }

    /// Pick the next ready task under the RTQ policy: its id, key, and the
    /// virtual time its last input became available.
    pub fn pick(&mut self) -> Option<(TaskId, K, f64)> {
        let Queued { id, key } = self.rtq.pop()?;
        let ready_at = self.tasks[id as usize].ready_at;
        self.picked_ready = ready_at;
        Some((id, key, ready_at))
    }

    /// Advance the rank's clock to a picked task's ready time (dependencies
    /// must have arrived before work can start).
    pub fn begin(&self, rank: &mut Rank, ready_at: f64) {
        rank.advance_to(ready_at);
    }

    /// Charge an executed task's kernel time (plus the engine's per-task
    /// overhead) to the virtual clock and record it on the timeline as a
    /// typed exec span: kernel/overhead sub-spans, the ready time from the
    /// enclosing `pick`, the producer edge, and the queue-depth / resident-
    /// bytes gauges sampled at this task boundary.
    pub fn charge(&mut self, rank: &mut Rank, id: TaskId, secs: f64) {
        let total = secs + self.task_overhead;
        rank.advance(total);
        if let Some(tel) = &mut self.telemetry {
            let end = rank.now();
            // Dep-wait: how long this task sat ready before starting.
            let dep_wait = (end - total - self.picked_ready).max(0.0);
            tel.on_task(
                end,
                total,
                dep_wait,
                self.rtq.len(),
                self.mem_bytes,
                rank.comm_sample(),
            );
        }
        if let Some(tr) = &mut self.tracer {
            let end = rank.now();
            let key = self.keys[id as usize];
            tr.push(TraceEvent {
                rank: rank.id(),
                name: key.trace_label(),
                cat: key.trace_cat(),
                kind: SpanKind::Exec,
                start: end - total,
                dur: total,
                kernel: secs,
                overhead: self.task_overhead,
                ready_at: self.picked_ready,
                pred: self.pred.get(id as usize).cloned().flatten(),
                peer: None,
                bytes: self.mem_bytes,
                rtq_depth: self.rtq.len() as u32,
            });
        }
    }

    /// Mark a task executed (progress + per-kind accounting).
    pub fn complete(&mut self, id: TaskId) {
        let i = id as usize;
        debug_assert!(
            i < self.tasks.len(),
            "completed task {id} was never inserted"
        );
        let key = self.keys[i];
        debug_assert!(!self.executed[i], "task {key:?} executed more than once");
        self.executed[i] = true;
        self.done += 1;
        let kind = key.kind_name();
        match self.counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((kind, 1)),
        }
        if let Some(s) = self.estimates.get_mut(i) {
            // Clamp at zero: float subtraction drift must never leave a
            // finished engine reporting negative remaining work.
            self.est_remaining = (self.est_remaining - *s).max(0.0);
            *s = 0.0;
        }
    }

    /// Invariant check at a clean finish (debug builds): every inserted
    /// task executed exactly once and no dependency counter is dangling.
    /// Call only when the engine finished *without* aborting.
    pub fn debug_assert_completed(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert_eq!(
            self.done,
            self.tasks.len(),
            "engine finished with {}/{} tasks executed",
            self.done,
            self.tasks.len()
        );
        for (i, st) in self.tasks.iter().enumerate() {
            let k = self.keys[i];
            debug_assert!(
                st.deps == 0,
                "task {k:?} still has {} outstanding dependencies",
                st.deps
            );
            debug_assert!(self.executed[i], "task {k:?} never executed");
        }
    }

    /// Executed-task totals per kind, in stable (sorted) order.
    pub fn task_counts(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.counts.clone();
        v.sort_unstable();
        v
    }

    /// Executed tasks of one kind (phase-completion checks).
    pub fn count_of(&self, kind: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, c)| c)
    }

    /// Total owned tasks.
    pub fn total(&self) -> usize {
        self.tasks.len()
    }

    /// Executed owned tasks.
    pub fn done_count(&self) -> usize {
        self.done
    }

    /// True when every owned task has executed (or the job aborted).
    pub fn finished(&self) -> bool {
        self.done == self.tasks.len() || self.abort.load(Ordering::Relaxed)
    }
    /// True once any rank failed.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Record an error and broadcast the abort to every rank. The RPC
    /// closures capture the shared abort flag directly, so the broadcast is
    /// independent of the concrete engine type installed at the target.
    pub fn fail(&mut self, rank: &mut Rank, err: SolverError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        self.abort.store(true, Ordering::SeqCst);
        // Job-level abort: reaches every rank even when engines hold
        // per-rank abort flags, and cannot itself be dropped by fault
        // injection (it is not a signal).
        rank.signal_abort();
        let n = rank.n_ranks();
        let me = rank.id();
        for r in (0..n).filter(|&r| r != me) {
            let flag = Arc::clone(&self.abort);
            rank.rpc(r, move |_| flag.store(true, Ordering::SeqCst));
        }
    }

    /// Queue an incoming signal (called from RPC closures).
    pub fn post(&mut self, signal: S) {
        self.inbox.push(signal);
    }

    /// Take every queued signal for resolution (see
    /// [`drain_signals`](super::drain_signals)).
    pub fn take_signals(&mut self) -> Vec<S> {
        std::mem::take(&mut self.inbox)
    }
}

impl<K: TaskKind, S: Signal> TaskEngine<K, S> {
    /// Idempotent [`post`](Self::post): accept the signal only on first
    /// delivery, keyed by its global pointer (each advertised block gets a
    /// fresh shared-heap allocation, so the pointer identifies the
    /// notification). Returns whether the signal was accepted. Duplicate
    /// deliveries — fault-injected or from a retrying network — are
    /// dropped here, keeping dependency decrements exactly-once.
    pub fn post_unique(&mut self, signal: S) -> bool {
        if self.seen_signals.insert(signal.ptr()) {
            self.inbox.push(signal);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_trace::TraceCat;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct T(usize);

    impl TaskKind for T {
        fn priority_key(&self) -> (usize, usize) {
            (self.0, 0)
        }
        fn seed_key(&self) -> (usize, usize, usize, usize) {
            (self.0, 0, 0, 0)
        }
        fn kind_name(&self) -> &'static str {
            "t"
        }
        fn trace_label(&self) -> String {
            format!("T({})", self.0)
        }
        fn trace_cat(&self) -> TraceCat {
            TraceCat::Other
        }
    }

    fn engine() -> TaskEngine<T> {
        TaskEngine::new(RtqPolicy::Lifo, Arc::new(AtomicBool::new(false)))
    }

    #[test]
    fn dec_releases_at_zero_with_max_ready_time() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 2);
        assert!(e.pick().is_none());
        e.dec(t0, 3.0);
        assert!(e.pick().is_none(), "one dependency still outstanding");
        e.dec(t0, 1.5);
        let (id, k, ready_at) = e.pick().expect("released");
        assert_eq!((id, k), (t0, T(0)));
        assert_eq!(ready_at, 3.0, "ready time is the max over inputs");
    }

    #[test]
    fn seed_ready_orders_deterministically() {
        // Seed order follows seed keys, not ids: insert out of order.
        let mut e = engine();
        for v in [5, 1, 3] {
            e.insert_task(T(v), 0);
        }
        e.insert_task(T(2), 1);
        e.seed_ready();
        // LIFO pops the highest seed key first.
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(5)));
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(3)));
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(1)));
        assert!(e.pick().is_none());
    }

    #[test]
    fn finished_tracks_done_and_abort() {
        let abort = Arc::new(AtomicBool::new(false));
        let mut e: TaskEngine<T> = TaskEngine::new(RtqPolicy::Lifo, Arc::clone(&abort));
        let t0 = e.insert_task(T(0), 0);
        assert!(!e.finished());
        e.complete(t0);
        assert!(e.finished());
        assert_eq!(e.task_counts(), vec![("t", 1)]);

        let mut e2: TaskEngine<T> = TaskEngine::new(RtqPolicy::Lifo, Arc::clone(&abort));
        e2.insert_task(T(1), 1);
        assert!(!e2.finished());
        abort.store(true, Ordering::SeqCst);
        assert!(e2.finished(), "abort short-circuits completion");
    }

    #[test]
    fn inbox_roundtrip() {
        let mut e: TaskEngine<T, usize> =
            TaskEngine::new(RtqPolicy::Lifo, Arc::new(AtomicBool::new(false)));
        e.post(7);
        e.post(9);
        assert_eq!(e.take_signals(), vec![7, 9]);
        assert!(e.take_signals().is_empty());
    }

    #[derive(Debug, Clone, Copy)]
    struct Sig(GlobalPtr);

    impl Signal for Sig {
        fn ptr(&self) -> GlobalPtr {
            self.0
        }
    }

    fn ptr_at(offset: usize) -> GlobalPtr {
        GlobalPtr {
            rank: 0,
            seg: 1,
            offset,
            len: 4,
            kind: sympack_pgas::MemKind::Host,
        }
    }

    #[test]
    fn post_unique_absorbs_duplicate_deliveries() {
        let mut e: TaskEngine<T, Sig> =
            TaskEngine::new(RtqPolicy::Lifo, Arc::new(AtomicBool::new(false)));
        assert!(e.post_unique(Sig(ptr_at(0))));
        assert!(!e.post_unique(Sig(ptr_at(0))), "duplicate must be dropped");
        assert!(e.post_unique(Sig(ptr_at(8))), "distinct pointer accepted");
        assert_eq!(e.take_signals().len(), 2);
        // Draining does not forget: a straggler duplicate arriving after
        // the original was resolved is still absorbed.
        assert!(!e.post_unique(Sig(ptr_at(0))));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "executed more than once")]
    fn invariant_checker_catches_double_execution() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 0);
        e.complete(t0);
        e.complete(t0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decrement of already-executed")]
    fn invariant_checker_catches_dec_after_execute() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 1);
        e.dec(t0, 0.0);
        e.complete(t0);
        e.dec(t0, 0.0);
    }

    #[test]
    fn debug_assert_completed_passes_on_clean_finish() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 0);
        let t1 = e.insert_task(T(1), 1);
        e.seed_ready();
        e.complete(t0);
        e.dec(t1, 1.0);
        e.complete(t1);
        e.debug_assert_completed();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never executed")]
    fn debug_assert_completed_catches_a_skipped_task() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 0);
        e.insert_task(T(1), 0);
        e.complete(t0);
        // Force the done count to match so only the per-task check fires.
        e.done = e.total();
        e.debug_assert_completed();
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut e = engine();
        let ids: Vec<TaskId> = [7, 3, 9].iter().map(|&v| e.insert_task(T(v), 1)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!([e.key(0), e.key(1), e.key(2)], [T(7), T(3), T(9)]);
        assert_eq!(e.state(2).map(|s| s.deps), Some(1));
        assert!(e.state(3).is_none());
    }

    #[test]
    fn precomputed_table_matches_inserted_tasks() {
        // The same tasks through `with_tasks` and through `insert_task`
        // schedule identically.
        let keys = vec![T(4), T(1), T(6), T(2)];
        let deps = [0u32, 1, 0, 0];
        let mut table: TaskEngine<T> = TaskEngine::with_tasks(
            Arc::new(keys.clone()),
            &deps,
            RtqPolicy::Fifo,
            Arc::new(AtomicBool::new(false)),
        );
        let mut inserted: TaskEngine<T> =
            TaskEngine::new(RtqPolicy::Fifo, Arc::new(AtomicBool::new(false)));
        for (k, d) in keys.iter().zip(deps) {
            inserted.insert_task(*k, d as usize);
        }
        for e in [&mut table, &mut inserted] {
            e.seed_ready();
            let mut order = Vec::new();
            while let Some((id, k, _)) = e.pick() {
                order.push(k);
                e.complete(id);
                if k == T(2) {
                    e.dec(1, 0.5);
                }
            }
            assert_eq!(order, vec![T(2), T(4), T(6), T(1)]);
            e.debug_assert_completed();
        }
    }

    #[test]
    fn urgency_installed_before_seeding_orders_comm_aware_pops() {
        let mut e: TaskEngine<T> =
            TaskEngine::new(RtqPolicy::CommAware, Arc::new(AtomicBool::new(false)));
        let ids: Vec<TaskId> = [3, 1, 4, 2]
            .iter()
            .map(|&v| e.insert_task(T(v), 0))
            .collect();
        e.set_urgency(ids[2], 5);
        e.seed_ready();
        let order: Vec<T> = std::iter::from_fn(|| e.pick().map(|(_, k, _)| k)).collect();
        assert_eq!(order, vec![T(4), T(1), T(2), T(3)]);
    }

    #[test]
    fn estimates_retire_on_completion_and_ignore_completed_updates() {
        let mut e = engine();
        let t0 = e.insert_task(T(0), 0);
        let t1 = e.insert_task(T(1), 0);
        e.set_estimates(|k| (k.0 + 1) as f64);
        assert_eq!(e.estimated_remaining(), 3.0);
        e.complete(t0);
        assert_eq!(e.estimated_remaining(), 2.0);
        e.update_estimate(t0, 10.0);
        assert_eq!(e.estimated_remaining(), 2.0, "completed task ignored");
        e.update_estimate(t1, 0.5);
        assert_eq!(e.estimated_remaining(), 0.5);
        e.complete(t1);
        assert_eq!(e.estimated_remaining(), 0.0);
    }
}
