//! Jobs, result slots and the handles callers wait on.

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gramc_core::tiling::TileMapping;
use gramc_core::{CoreError, MacroGroup, OperatorId};
use gramc_linalg::{lu, qr, vector, Matrix};

use crate::error::RuntimeError;
use crate::registry::OperatorHandle;
use crate::tenant::{RequestId, TenantEntry, TenantId};

/// Result of a completed job.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobOutput {
    /// One result vector (an MVM request or a single-RHS solve).
    Vector(Vec<f64>),
    /// One result per input vector (explicit batch jobs).
    Vectors(Vec<Vec<f64>>),
    /// One result row per drive row of a [`Work::MvmRows`] request. The
    /// matrix is shared, not copied: waiting on the handle clones the
    /// `Arc`.
    Rows(Arc<Matrix>),
    /// The operator placed by a `Load` job.
    Loaded(OperatorHandle),
    /// Acknowledgement of a `Free` job.
    Freed,
}

/// One-shot result cell a job fills and any number of waiters read.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<Option<Result<JobOutput, RuntimeError>>>,
    ready: Condvar,
    /// The submitting tenant's accounting entry; its in-flight unit is
    /// returned when the slot is first filled. `None` only for slots that
    /// never went through admission (none today).
    gate: Option<Arc<TenantEntry>>,
}

impl Slot {
    /// First write wins: a panic-path error fill never clobbers a result
    /// the job already delivered. The winning fill releases the tenant's
    /// in-flight unit — exactly once per request, on every completion
    /// path (result, typed error, digital fallback, panic fill).
    pub(crate) fn fill(&self, result: Result<JobOutput, RuntimeError>) {
        let mut state = self.state.lock().expect("slot lock");
        if state.is_none() {
            *state = Some(result);
            self.ready.notify_all();
            if let Some(gate) = &self.gate {
                gate.release();
            }
        }
    }

    fn wait(&self) -> Result<JobOutput, RuntimeError> {
        let mut state = self.state.lock().expect("slot lock");
        while state.is_none() {
            state = self.ready.wait(state).expect("slot lock");
        }
        state.clone().expect("checked above")
    }

    fn wait_timeout(&self, timeout: Duration) -> Result<JobOutput, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("slot lock");
        while state.is_none() {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                return Err(RuntimeError::WaitTimeout);
            };
            state = self.ready.wait_timeout(state, left).expect("slot lock").0;
        }
        state.clone().expect("checked above")
    }

    fn try_peek(&self) -> Option<Result<JobOutput, RuntimeError>> {
        self.state.lock().expect("slot lock").clone()
    }
}

/// Handle to a submitted job.
///
/// The result is retrieved with [`wait`](Self::wait) (blocking) or
/// [`try_result`](Self::try_result) (non-blocking). Jobs only execute
/// inside [`Runtime::run_all`](crate::Runtime::run_all), so on a single
/// thread call `run_all` first and `wait` after; `wait` blocks safely when
/// another thread is driving the runtime.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) slot: Arc<Slot>,
    request: RequestId,
}

impl JobHandle {
    pub(crate) fn new(request: RequestId, gate: Arc<TenantEntry>) -> Self {
        Self { slot: Arc::new(Slot { gate: Some(gate), ..Slot::default() }), request }
    }

    /// The request id minted for this submission — the key of its spans
    /// and flow events in the chrome trace.
    pub fn request_id(&self) -> RequestId {
        self.request
    }

    /// Blocks until the job has retired and returns its output.
    ///
    /// # Errors
    ///
    /// The job's own error, if it failed.
    pub fn wait(&self) -> Result<JobOutput, RuntimeError> {
        self.slot.wait()
    }

    /// Blocks until the job has retired and returns its single result
    /// vector.
    ///
    /// # Errors
    ///
    /// The job's own error, or [`RuntimeError::WrongOutput`] if the job
    /// does not produce a single vector.
    pub fn wait_vector(&self) -> Result<Vec<f64>, RuntimeError> {
        match self.wait()? {
            JobOutput::Vector(v) => Ok(v),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Blocks until the job has retired and returns its batch of result
    /// vectors (a [`JobOutput::Rows`] matrix is split into its rows).
    ///
    /// # Errors
    ///
    /// The job's own error, or [`RuntimeError::WrongOutput`] if the job
    /// does not produce a batch.
    pub fn wait_vectors(&self) -> Result<Vec<Vec<f64>>, RuntimeError> {
        match self.wait()? {
            JobOutput::Vectors(v) => Ok(v),
            JobOutput::Rows(m) => Ok(m.to_row_vecs()),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Blocks until a [`Work::MvmRows`] job has retired and returns its
    /// result matrix (row `b` answers drive row `b`), shared rather than
    /// copied.
    ///
    /// # Errors
    ///
    /// The job's own error, or [`RuntimeError::WrongOutput`] if the job
    /// does not produce a matrix.
    pub fn wait_rows(&self) -> Result<Arc<Matrix>, RuntimeError> {
        match self.wait()? {
            JobOutput::Rows(m) => Ok(m),
            _ => Err(RuntimeError::WrongOutput),
        }
    }

    /// Blocks until the job has retired **or** `timeout` elapses. A caller
    /// waiting on a job nobody drains — e.g. `run_all` was never called, or
    /// the driving thread died — gets [`RuntimeError::WaitTimeout`] instead
    /// of blocking forever.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WaitTimeout`] on expiry; otherwise the job's own
    /// error, if it failed.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<JobOutput, RuntimeError> {
        self.slot.wait_timeout(timeout)
    }

    /// The job's result if it has already retired, `None` otherwise.
    pub fn try_result(&self) -> Option<Result<JobOutput, RuntimeError>> {
        self.slot.try_peek()
    }
}

/// A compute request against one operator — what
/// [`Runtime::submit_for`](crate::Runtime::submit_for) takes. Each variant
/// is one row of the runtime's operation table: an analog batch call on the
/// macro group, a digital fallback on the registry's kept matrix, a
/// residual check, and how the results fill the request's handle.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// One MVM input (`len == cols`), answered as [`JobOutput::Vector`].
    /// Requests against the same operator **coalesce** into one
    /// `mvm_batch` dispatch.
    Mvm(Vec<f64>),
    /// An explicit MVM batch: one dispatch, one handle, answered as
    /// [`JobOutput::Vectors`]. Bypasses coalescing. The vectors are stacked
    /// into one drive matrix at submission and run as a matrix batch.
    MvmBatch(Vec<Vec<f64>>),
    /// A matrix MVM batch: row `b` of `drive`, read through the column
    /// window `cols` (as wide as the operator), is input vector `b`. One
    /// dispatch, one handle, answered as [`JobOutput::Rows`]. The drive is
    /// shared with the job, never copied — the operator's DACs read the
    /// window in place — so several tiles of one logical operator can run
    /// off the same drive. Bypasses coalescing.
    MvmRows {
        /// The batch, one input vector per row.
        drive: Arc<Matrix>,
        /// The columns of `drive` the operator reads.
        cols: Range<usize>,
    },
    /// One INV right-hand side (`len == rows`), answered as
    /// [`JobOutput::Vector`].
    SolveInv(Vec<f64>),
    /// Multi-RHS INV solve: all right-hand sides share one conductance
    /// read and one factorization; answered as [`JobOutput::Vectors`].
    SolveInvBatch(Vec<Vec<f64>>),
    /// Multi-RHS PINV (least-squares) solve, answered as
    /// [`JobOutput::Vectors`].
    SolvePinvBatch(Vec<Vec<f64>>),
}

impl Work {
    /// The queued kind of this request (a lone MVM is a one-request set).
    pub(crate) fn kind(&self) -> ComputeKind {
        match self {
            Self::Mvm(_) => ComputeKind::MvmSet,
            Self::MvmBatch(_) => ComputeKind::MvmBatch,
            Self::MvmRows { .. } => ComputeKind::MvmRows,
            Self::SolveInv(_) => ComputeKind::SolveInv,
            Self::SolveInvBatch(_) => ComputeKind::SolveInvBatch,
            Self::SolvePinvBatch(_) => ComputeKind::SolvePinvBatch,
        }
    }

    /// The request's row weight in cost attribution: its number of input
    /// vectors (at least 1).
    pub(crate) fn weight(&self) -> u64 {
        let n = match self {
            Self::Mvm(_) | Self::SolveInv(_) => 1,
            Self::MvmBatch(xs) | Self::SolveInvBatch(xs) | Self::SolvePinvBatch(xs) => xs.len(),
            Self::MvmRows { drive, .. } => drive.rows(),
        };
        n.max(1) as u64
    }

    /// Checks every input against the operator's input length `expected`
    /// (`cols` for MVM, `rows` for INV/PINV) and for finiteness — an analog
    /// driver cannot encode `NaN`/`±inf`. A matrix request's window must be
    /// `expected` wide and lie inside its drive.
    pub(crate) fn validate(&self, expected: usize) -> Result<(), RuntimeError> {
        let check = |x: &[f64]| {
            if x.len() != expected {
                return Err(CoreError::ShapeMismatch { expected, found: x.len() }.into());
            }
            if !x.iter().all(|v| v.is_finite()) {
                return Err(RuntimeError::NonFiniteInput);
            }
            Ok(())
        };
        match self {
            Self::Mvm(x) | Self::SolveInv(x) => check(x),
            Self::MvmBatch(xs) | Self::SolveInvBatch(xs) | Self::SolvePinvBatch(xs) => {
                xs.iter().try_for_each(|x| check(x))
            }
            Self::MvmRows { drive, cols } => {
                if cols.len() != expected {
                    return Err(CoreError::ShapeMismatch { expected, found: cols.len() }.into());
                }
                if cols.end > drive.cols() {
                    let (expected, found) = (cols.end, drive.cols());
                    return Err(CoreError::ShapeMismatch { expected, found }.into());
                }
                (0..drive.rows()).try_for_each(|b| check(&drive.row(b)[cols.clone()]))
            }
        }
    }

    /// The queued form of a validated request; vector inputs, each `width`
    /// long, are stacked into the job's drive matrix.
    pub(crate) fn into_compute(self, handle: OperatorHandle, width: usize) -> Compute {
        let kind = self.kind();
        let inputs = match self {
            Self::Mvm(x) | Self::SolveInv(x) => Drive::stack(width, &[x]),
            Self::MvmBatch(xs) | Self::SolveInvBatch(xs) | Self::SolvePinvBatch(xs) => {
                Drive::stack(width, &xs)
            }
            Self::MvmRows { drive, cols } => Drive { matrix: drive, cols },
        };
        Compute { handle, kind, inputs }
    }
}

/// The inputs of a queued compute job: row `k` of `matrix`, read through
/// the column window `cols`, is input `k`. Every compute kind carries its
/// inputs this way — the MVM kinds hand the matrix to the macro's DACs
/// as is.
#[derive(Debug)]
pub(crate) struct Drive {
    pub matrix: Arc<Matrix>,
    pub cols: Range<usize>,
}

impl Drive {
    /// Stacks input vectors, each `width` long, into a drive.
    pub(crate) fn stack(width: usize, xs: &[Vec<f64>]) -> Self {
        Self { matrix: Arc::new(Matrix::from_row_vecs(width, xs)), cols: 0..width }
    }

    /// The inputs in order.
    pub(crate) fn inputs(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.matrix.rows()).map(|k| &self.matrix.row(k)[self.cols.clone()])
    }
}

/// The three analog operations one macro reaches by reconfiguring its
/// feedback wiring — the key of the operation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Mvm,
    Inv,
    Pinv,
}

impl Op {
    /// Required input length against an operator of shape `rows × cols`.
    pub(crate) fn input_len(self, rows: usize, cols: usize) -> usize {
        match self {
            Self::Mvm => cols,
            Self::Inv | Self::Pinv => rows,
        }
    }

    /// The analog batch call on the operator's macro group; row `k` of the
    /// result answers input `k`. An MVM drives the job's matrix through its
    /// column window directly; a solve hands its right-hand sides to the
    /// multi-RHS solver.
    pub(crate) fn analog(
        self,
        group: &mut MacroGroup,
        id: OperatorId,
        inputs: &Drive,
    ) -> Result<Matrix, CoreError> {
        let solve = match self {
            Self::Mvm => return group.mvm_batch_cols(id, &inputs.matrix, inputs.cols.clone()),
            Self::Inv => MacroGroup::solve_inv_batch,
            Self::Pinv => MacroGroup::solve_pinv_batch,
        };
        let bs: Vec<Vec<f64>> = inputs.inputs().map(<[f64]>::to_vec).collect();
        let xs = solve(group, id, &bs)?;
        Ok(Matrix::from_row_vecs(xs.first().map_or(0, Vec::len), &xs))
    }

    /// The digital fallback on the registry's kept matrix; the first
    /// failing input fails the batch.
    pub(crate) fn digital(self, a: &Matrix, inputs: &Drive) -> Result<Matrix, RuntimeError> {
        let ys = inputs
            .inputs()
            .map(|x| match self {
                Self::Mvm => Ok(a.matvec(x)),
                Self::Inv => lu::solve(a, x),
                Self::Pinv => qr::least_squares(a, x),
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| RuntimeError::from(CoreError::from(e)))?;
        let width = match self {
            Self::Mvm => a.rows(),
            Self::Inv | Self::Pinv => a.cols(),
        };
        Ok(Matrix::from_row_vecs(width, &ys))
    }

    /// Whether one analog result sits within `tol` of the quantized
    /// operator `q`: MVM against `q·x`, INV by the residual
    /// `‖q·x − b‖/‖b‖`, PINV against the digital least-squares solution
    /// (`‖q·x − b‖` is not small for an overdetermined system; a
    /// rank-deficient reference cannot arbitrate and passes).
    pub(crate) fn residual_ok(self, q: &Matrix, input: &[f64], output: &[f64], tol: f64) -> bool {
        match self {
            Self::Mvm => vector::rel_error(output, &q.matvec(input)) <= tol,
            Self::Inv => vector::rel_error(&q.matvec(output), input) <= tol,
            Self::Pinv => qr::least_squares(q, input)
                .map_or(true, |x_ref| vector::rel_error(output, &x_ref) <= tol),
        }
    }
}

/// A queued compute request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ComputeKind {
    /// A drained coalesced batch: one result slot per request.
    MvmSet,
    MvmBatch,
    MvmRows,
    SolveInv,
    SolveInvBatch,
    SolvePinvBatch,
}

impl ComputeKind {
    pub(crate) fn op(self) -> Op {
        match self {
            Self::MvmSet | Self::MvmBatch | Self::MvmRows => Op::Mvm,
            Self::SolveInv | Self::SolveInvBatch => Op::Inv,
            Self::SolvePinvBatch => Op::Pinv,
        }
    }

    /// The kind's index in the telemetry name table (`0` is the coalesced
    /// dispatch). A matrix batch is an MVM batch there: both report as
    /// `mvm_batch`.
    pub(crate) fn label(self) -> usize {
        match self {
            Self::MvmSet => 1,
            Self::MvmBatch | Self::MvmRows => 2,
            Self::SolveInv => 3,
            Self::SolveInvBatch => 4,
            Self::SolvePinvBatch => 5,
        }
    }

    /// Fills the job's slots with its results (row `k` answers input `k`):
    /// one [`JobOutput::Vector`] per slot for the per-input kinds (a
    /// coalesced set, a single solve), the whole matrix as
    /// [`JobOutput::Rows`] for a matrix batch, one [`JobOutput::Vectors`]
    /// in the batch's only slot otherwise. An error fails every slot.
    pub(crate) fn deliver(self, slots: &[Arc<Slot>], results: Result<Matrix, RuntimeError>) {
        let ys = match results {
            Ok(ys) => ys,
            Err(e) => {
                for slot in slots {
                    slot.fill(Err(e.clone()));
                }
                return;
            }
        };
        match self {
            Self::MvmSet | Self::SolveInv => {
                for (k, slot) in slots.iter().enumerate().take(ys.rows()) {
                    slot.fill(Ok(JobOutput::Vector(ys.row(k).to_vec())));
                }
            }
            Self::MvmRows => slots[0].fill(Ok(JobOutput::Rows(Arc::new(ys)))),
            Self::MvmBatch | Self::SolveInvBatch | Self::SolvePinvBatch => {
                slots[0].fill(Ok(JobOutput::Vectors(ys.to_row_vecs())));
            }
        }
    }
}

/// A queued compute job: one row of the operation table applied to the
/// inputs of one operator.
#[derive(Debug)]
pub(crate) struct Compute {
    pub handle: OperatorHandle,
    pub kind: ComputeKind,
    pub inputs: Drive,
}

/// What a job does once a worker runs it on its shard.
#[derive(Debug)]
pub(crate) enum JobKind {
    /// Dispatch of one operator's coalesced MVM requests: drains the
    /// operator's pending batch at execution time and runs it as one
    /// `mvm_batch` (one result slot per request, carried by the batch).
    MvmMany { handle: OperatorHandle },
    /// A compute request (also a hydrated coalesced batch, as
    /// [`ComputeKind::MvmSet`]).
    Compute(Compute),
    /// Place a matrix on the job's shard and fulfil the registry entry.
    Load { handle: OperatorHandle, matrix: Arc<Matrix>, mapping: TileMapping },
    /// Release the operator and retire the registry entry.
    Free { handle: OperatorHandle },
}

/// Attribution record of one request riding in a job: who submitted it,
/// its weight in the batch's hardware-counter split, and when it was
/// submitted (journal clock) for its queue-wait span.
///
/// Solo jobs carry exactly one; a hydrated coalesced dispatch carries one
/// per rider, in submission order (the split's remainder assignment is
/// keyed to that order, so attribution is deterministic).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestMeta {
    pub request: RequestId,
    pub tenant: TenantId,
    /// Row weight of this request in the batch (1 for a coalesced rider,
    /// the batch size for explicit batch jobs).
    pub rows: u64,
    /// Submission timestamp on the journal clock (riders stamp their own;
    /// enqueued jobs are stamped at ticket assignment — a re-dispatch
    /// restamps, matching the per-dispatch latency contract).
    pub submit_ns: u64,
}

impl RequestMeta {
    pub fn new(request: RequestId, tenant: TenantId, rows: u64) -> Self {
        Self { request, tenant, rows, submit_ns: 0 }
    }
}

/// A scheduled job: target shard, per-shard ticket, payload, the result
/// slots to fill (exactly one, except `MvmMany`, whose slots live in the
/// pending batch until it executes — and `MvmSet`, with one per request),
/// per-request attribution metadata, and how many times the recovery
/// policy has already re-dispatched it.
#[derive(Debug)]
pub(crate) struct Job {
    pub shard: usize,
    pub ticket: u64,
    pub kind: JobKind,
    pub slots: Vec<Arc<Slot>>,
    /// One record per request riding in this job (parallel to `slots` for
    /// multi-request kinds). Empty only for an `MvmMany` dispatch before
    /// hydration drains its pending batch into the job.
    pub meta: Vec<RequestMeta>,
    pub retries: u32,
    /// Enqueue timestamp feeding the serving histograms (a re-dispatched
    /// job restarts the clock; its measured latency is per dispatch).
    pub submitted: Instant,
    /// Enqueue timestamp on the journal clock, so the queued span of the
    /// submit→complete breakdown starts exactly at submission.
    pub submit_ns: u64,
}
