//! symPACK-rs: a task-based fan-out supernodal sparse Cholesky solver.
//!
//! A Rust reproduction of *"symPACK: A GPU-Capable Fan-Out Sparse Cholesky
//! Solver"* (SC-W 2023). The solver factors a sparse symmetric positive
//! definite matrix `A = L·Lᵀ` and solves `A·x = b`, distributing dense
//! supernode blocks over PGAS ranks with a 2D block-cyclic map and driving
//! the computation with the paper's three task types (§3.2):
//!
//! * `D(j)` — factor the diagonal block of supernode `j` (POTRF),
//! * `F(i,j)` — factor off-diagonal block `B(i,j)` (TRSM),
//! * `U(a,j,b)` — update block `B(a,b)` with the outer product of factored
//!   blocks `L(a,j)·L(b,j)ᵀ` (GEMM, or SYRK when `a = b`).
//!
//! Communication follows the fan-out paradigm of §3.4: a completed factor
//! block is *pushed* as a `signal(ptr, meta)` RPC to every rank owning a
//! dependent task; receivers poll, issue one-sided gets (or device copies
//! for GPU-bound blocks — the memory-kinds path of §4), and move tasks whose
//! dependency counters reach zero onto the ready-task queue (RTQ).
//!
//! # Quick start
//!
//! ```
//! use sympack::{SolverOptions, SymPack};
//! use sympack_sparse::gen::laplacian_2d;
//!
//! let a = laplacian_2d(12, 12);
//! let b = vec![1.0; a.n()];
//! let result = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
//! assert!(result.relative_residual < 1e-10);
//! ```

pub mod condest;
pub mod driver;
pub mod engine;
pub mod map2d;
pub mod plan;
pub mod sched;
pub mod selinv;
pub mod storage;
pub mod taskgraph;
pub mod trisolve;

pub use condest::condest;
pub use driver::{GatheredFactor, MultiSolveReport, SolveReport, SolverOptions, SymPack};
pub use map2d::ProcGrid;
pub use plan::{
    factor_store_bytes, make_kernels, pattern_hash, plan_cache_key, NumericFactor, PanelSolve,
    SolvePlan, SymbolicPlan,
};
pub use selinv::{selected_inverse, SelectedInverse};
// Re-exported so solver users can name `SolverOptions::kernel_config`'s
// and `SolverOptions::blr`'s types without depending on the dense crate
// directly.
pub use engine::PublishStats;
pub use storage::Block;
pub use sympack_dense::{BlrConfig, ConfigError, IsaSelect, KernelConfig};
// Re-exported so solver users can name the scaling knobs
// (`SolverOptions::bcast` / `SolverOptions::coalesce`) without depending
// on the pgas crate directly.
pub use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
pub use taskgraph::{RtqPolicy, TaskKey};

/// Errors surfaced by the solver.
#[derive(Debug, Clone)]
pub enum SolverError {
    /// The matrix is not positive definite; the offending column is given in
    /// the *permuted* ordering.
    NotPositiveDefinite {
        /// Column (in the permuted matrix) with a non-positive pivot.
        column: usize,
    },
    /// A device allocation failed and the OOM policy was
    /// [`sympack_gpu::OomPolicy::Abort`] (paper §4.2's strict fallback).
    DeviceOom {
        requested: usize,
        available: usize,
        /// Which task/block the allocation served (for diagnosis).
        context: String,
    },
    /// A one-sided get kept timing out and the bounded retry budget ran
    /// out (only possible under network fault injection).
    FetchTimeout {
        /// Attempts made before giving up.
        attempts: u32,
        /// Which task/block the fetch served.
        context: String,
    },
    /// A numeric re-factorization was handed values that do not match the
    /// sparsity pattern the session was analyzed for — either a value array
    /// of the wrong length or a matrix whose structure differs. The
    /// symbolic factor, mapping and task graph are pattern-specific, so the
    /// request is rejected instead of producing garbage.
    PatternMismatch {
        /// Lower-triangle nonzeros of the session's pattern.
        expected_nnz: usize,
        /// Lower-triangle nonzeros (or value count) actually supplied.
        actual_nnz: usize,
        /// What differed (length vs. structure).
        detail: String,
    },
    /// A solve was requested against a session whose numeric factor has
    /// been evicted from the factor cache (fleet memory-budget pressure).
    /// The factor must be re-materialized via `refactorize`/
    /// `ensure_resident` before solving; the fleet does this transparently,
    /// so the error only surfaces when a caller bypasses it.
    FactorEvicted {
        /// Pattern hash of the session whose factor is gone.
        pattern: u64,
    },
    /// The quiescence detector diagnosed a stall: every rank went idle with
    /// unfinished tasks and no messages in flight — the signature of a
    /// dropped notification. Reported instead of hanging.
    Stalled {
        /// Rank that diagnosed the stall.
        rank: usize,
        /// Tasks that rank had executed.
        done: usize,
        /// Tasks that rank owns in total.
        total: usize,
        /// Engine-specific diagnosis.
        detail: String,
    },
    /// A right-hand side does not fit the matrix: a column of the wrong
    /// length, or a request with no columns at all. Shapes are
    /// `(rows, columns)`.
    RhsShape {
        /// The shape the solve needs: the matrix order, and the supplied
        /// column count (at least one).
        expected: (usize, usize),
        /// The shape supplied (the first offending column's length).
        actual: (usize, usize),
    },
}

impl SolverError {
    /// Check a batch of right-hand-side columns against a matrix of order
    /// `n`: at least one column, each of length `n`.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] naming the expected and supplied shape.
    pub fn check_rhs<B: AsRef<[f64]>>(n: usize, columns: &[B]) -> Result<(), SolverError> {
        let cols = columns.len();
        if cols == 0 {
            return Err(SolverError::RhsShape {
                expected: (n, 1),
                actual: (n, 0),
            });
        }
        match columns.iter().find(|b| b.as_ref().len() != n) {
            Some(b) => Err(SolverError::RhsShape {
                expected: (n, cols),
                actual: (b.as_ref().len(), cols),
            }),
            None => Ok(()),
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite (permuted column {column})")
            }
            SolverError::DeviceOom { requested, available, context } => write!(
                f,
                "device allocation of {requested} bytes failed ({available} bytes free) with Abort policy while fetching {context}"
            ),
            SolverError::FetchTimeout { attempts, context } => write!(
                f,
                "one-sided get of {context} failed after {attempts} attempts (injected transient faults exhausted the retry budget)"
            ),
            SolverError::PatternMismatch { expected_nnz, actual_nnz, detail } => write!(
                f,
                "refactorization rejected: {detail} (session pattern has {expected_nnz} lower-triangle nonzeros, got {actual_nnz})"
            ),
            SolverError::FactorEvicted { pattern } => write!(
                f,
                "solve rejected: numeric factor for pattern {pattern:#018x} was evicted under memory pressure; re-materialize via refactorize/ensure_resident first"
            ),
            SolverError::Stalled { rank, done, total, detail } => write!(
                f,
                "stall diagnosed on rank {rank} after {done}/{total} tasks: {detail}"
            ),
            SolverError::RhsShape { expected, actual } => write!(
                f,
                "right-hand side rejected: got {}×{}, expected {}×{}",
                actual.0, actual.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for SolverError {}
