//! The workspace-wide error layer: one taxonomy for every way an
//! explanation pipeline can fail.
//!
//! Explainers are fragile by construction — they probe models with
//! perturbed inputs, fit local regressions on sampled neighbourhoods, and
//! retrain models on data subsets. Each of those steps can hit degenerate
//! data (NaN features, constant backgrounds), singular linear systems,
//! non-convergent optimizers, misbehaving models, or a worker panic. The
//! `try_*` twins of every entry point report those failures as
//! [`XaiError`] values instead of panicking or leaking NaN; the original
//! panicking APIs remain as thin wrappers for callers that prefer to
//! crash.
//!
//! Mapping rules (see `DESIGN.md` §8 for the full taxonomy):
//! - NaN/±Inf found in caller-supplied data → [`XaiError::NonFiniteInput`];
//! - NaN/±Inf produced by the *model under explanation* →
//!   [`XaiError::ModelFault`];
//! - a linear system that stays singular after ridge escalation →
//!   [`XaiError::SingularSystem`];
//! - an iterative fitter exhausting its iteration budget without meeting
//!   its tolerance → [`XaiError::ConvergenceFailure`];
//! - a [`SampleBudget`] expiring before *any* sample completed →
//!   [`XaiError::BudgetExceeded`] (partial progress is returned as a
//!   best-effort estimate instead, flagged on the result);
//! - a panic inside a parallel task → [`XaiError::WorkerPanic`].

use xai_data::csv::CsvError;
use xai_linalg::LinalgError;
use xai_rand::parallel::TaskPanic;

/// `Result` alias used by every fallible (`try_*`) API in the workspace.
pub type XaiResult<T> = Result<T, XaiError>;

/// Stable cause discriminator for [`XaiError::Io`]. Transport supervision
/// (retry, hedging, circuit breaking) branches on *why* an I/O operation
/// failed — a refused connection means the endpoint is down, a timeout
/// means it may be merely slow — so the cause must be matchable, not
/// buried in the context string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// The peer actively refused the connection (nothing listening).
    Refused,
    /// The connection was established and then torn down mid-stream
    /// (reset, aborted, broken pipe).
    Reset,
    /// The operation hit an OS-level timeout (connect or socket
    /// read/write deadline).
    Timeout,
    /// The stream ended before a complete unit (frame, file) arrived.
    ShortRead,
    /// The named file or executable does not exist.
    NotFound,
    /// Any other OS error (permissions, disk full, …).
    Other,
}

impl IoKind {
    /// The canonical lower-snake name, used on the wire and in `Display`.
    pub fn as_str(self) -> &'static str {
        match self {
            IoKind::Refused => "refused",
            IoKind::Reset => "reset",
            IoKind::Timeout => "timeout",
            IoKind::ShortRead => "short_read",
            IoKind::NotFound => "not_found",
            IoKind::Other => "other",
        }
    }

    /// Parses the canonical name back; `None` for unknown strings.
    pub fn parse(name: &str) -> Option<IoKind> {
        Some(match name {
            "refused" => IoKind::Refused,
            "reset" => IoKind::Reset,
            "timeout" => IoKind::Timeout,
            "short_read" => IoKind::ShortRead,
            "not_found" => IoKind::NotFound,
            "other" => IoKind::Other,
            _ => return None,
        })
    }

    /// Classifies a [`std::io::Error`] by its OS error kind. `WouldBlock`
    /// maps to [`IoKind::Timeout`] because the workspace only uses
    /// blocking sockets with read/write deadlines, where the OS reports
    /// an expired deadline as `WouldBlock` on Unix.
    pub fn classify(e: &std::io::Error) -> IoKind {
        use std::io::ErrorKind as K;
        match e.kind() {
            K::ConnectionRefused => IoKind::Refused,
            K::ConnectionReset | K::ConnectionAborted | K::BrokenPipe => IoKind::Reset,
            K::TimedOut | K::WouldBlock => IoKind::Timeout,
            K::UnexpectedEof => IoKind::ShortRead,
            K::NotFound => IoKind::NotFound,
            _ => IoKind::Other,
        }
    }
}

impl std::fmt::Display for IoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unified error type for the explanation pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum XaiError {
    /// Caller-supplied data (instance, background, training set, labels)
    /// contained NaN or ±Inf, or was degenerate in a way that makes the
    /// method meaningless (e.g. a background identical to the instance).
    NonFiniteInput {
        /// Which input failed validation, and how.
        context: String,
    },
    /// A linear system at the heart of the method was singular and could
    /// not be recovered by ridge escalation.
    SingularSystem {
        /// Which solve failed.
        context: String,
    },
    /// An iterative fitter ran out of iterations without meeting its
    /// tolerance; the would-be result is withheld rather than returned as
    /// garbage.
    ConvergenceFailure {
        /// Which fit failed to converge.
        context: String,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The model under explanation returned NaN/±Inf from a prediction.
    ModelFault {
        /// Which evaluation produced the fault.
        context: String,
    },
    /// A [`SampleBudget`] expired before a single sample completed, so not
    /// even a partial estimate exists.
    BudgetExceeded {
        /// Which estimator ran out of budget.
        context: String,
        /// Samples completed before exhaustion — 0 for estimators that
        /// fail on the first sample, nonzero when a minimum sample count
        /// exists (LIME needs a non-trivial neighbourhood) and the budget
        /// expired between the first sample and that minimum.
        completed: usize,
    },
    /// A parallel worker task panicked; the lowest-indexed panicking task
    /// is reported, independent of worker count and thread timing.
    WorkerPanic {
        /// Index of the panicking task.
        task: usize,
        /// The captured panic message.
        message: String,
    },
    /// An I/O operation (model/dataset file access, a socket to a shard
    /// worker) failed. The [`IoKind`] discriminator is stable: retry and
    /// supervision logic matches on it instead of grepping the context.
    Io {
        /// What failed, mechanically — refused, reset, timed out, short
        /// read, not found, or other.
        kind: IoKind,
        /// Path/endpoint and OS error.
        context: String,
    },
    /// Persisted or textual input (CSV, JSON model files) failed to parse.
    Parse {
        /// What failed to parse, and where.
        context: String,
    },
    /// The request cannot be served as posed: a required request field is
    /// missing (no instance for a local method, no utility for a
    /// valuation), the model lacks a capability the method needs
    /// (gradients, tree internals), or the `RunConfig` combines switches
    /// the method does not support (e.g. a budget on a parallel path).
    Unsupported {
        /// What was asked for and why it cannot be done.
        context: String,
    },
    /// The serving engine's bounded submission queue was full, so
    /// admission control rejected the request before it consumed any
    /// compute. Retry later or raise the queue capacity.
    QueueFull {
        /// The queue's capacity at the moment of rejection.
        capacity: usize,
    },
}

impl std::fmt::Display for XaiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XaiError::NonFiniteInput { context } => write!(f, "non-finite input: {context}"),
            XaiError::SingularSystem { context } => write!(f, "singular system: {context}"),
            XaiError::ConvergenceFailure { context, iterations } => {
                write!(f, "failed to converge after {iterations} iterations: {context}")
            }
            XaiError::ModelFault { context } => write!(f, "model fault: {context}"),
            XaiError::BudgetExceeded { context, completed } => {
                write!(f, "sample budget exhausted after {completed} samples: {context}")
            }
            XaiError::WorkerPanic { task, message } => {
                write!(f, "worker task {task} panicked: {message}")
            }
            XaiError::Io { kind, context } => write!(f, "io error ({kind}): {context}"),
            XaiError::Parse { context } => write!(f, "parse error: {context}"),
            XaiError::Unsupported { context } => write!(f, "unsupported request: {context}"),
            XaiError::QueueFull { capacity } => {
                write!(f, "submission rejected: serving queue full (capacity {capacity})")
            }
        }
    }
}

impl XaiError {
    /// Builds an [`XaiError::Io`] with an explicit kind.
    pub fn io(kind: IoKind, context: impl Into<String>) -> XaiError {
        XaiError::Io { kind, context: context.into() }
    }

    /// Builds an [`XaiError::Io`] from a [`std::io::Error`], classifying
    /// the kind via [`IoKind::classify`] and appending the OS message.
    pub fn from_io(e: &std::io::Error, context: impl std::fmt::Display) -> XaiError {
        XaiError::Io { kind: IoKind::classify(e), context: format!("{context}: {e}") }
    }
}

impl std::error::Error for XaiError {}

impl From<LinalgError> for XaiError {
    fn from(e: LinalgError) -> Self {
        match e {
            LinalgError::NonFinite { .. } => {
                XaiError::NonFiniteInput { context: e.to_string() }
            }
            LinalgError::NotSquare { .. }
            | LinalgError::NotPositiveDefinite { .. }
            | LinalgError::Singular { .. } => XaiError::SingularSystem { context: e.to_string() },
        }
    }
}

impl From<TaskPanic> for XaiError {
    fn from(e: TaskPanic) -> Self {
        XaiError::WorkerPanic { task: e.task, message: e.message }
    }
}

impl From<CsvError> for XaiError {
    fn from(e: CsvError) -> Self {
        match e {
            CsvError::Io { .. } => XaiError::Io { kind: IoKind::Other, context: e.to_string() },
            _ => XaiError::Parse { context: format!("csv: {e}") },
        }
    }
}

impl From<crate::json_parse::ParseError> for XaiError {
    fn from(e: crate::json_parse::ParseError) -> Self {
        XaiError::Parse { context: format!("json: {e}") }
    }
}

/// Runs a model/game/utility evaluation with panic isolation: a panic
/// inside `f` (a misbehaving model, an assert in user code) becomes
/// [`XaiError::ModelFault`] instead of unwinding through the explainer.
/// This is the sequential sibling of `try_par_map_seeded`'s per-task
/// `catch_unwind`.
pub fn catch_model<T>(context: &str, f: impl FnOnce() -> T) -> XaiResult<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = xai_rand::parallel::panic_message(payload);
        XaiError::ModelFault { context: format!("{context}: panicked: {message}") }
    })
}

/// Resource budget for Monte-Carlo estimators: a cap on model/utility
/// evaluations, a wall-clock deadline, or both.
///
/// Budgeted estimators stop drawing new samples once the budget is
/// exhausted and return a **best-effort partial estimate** built from the
/// samples that did complete, tagging the result with how many samples it
/// rests on. Only when the budget expires before the *first* sample does
/// the estimator fail with [`XaiError::BudgetExceeded`].
///
/// The eval cap is deterministic (same cap ⇒ same samples ⇒ bit-identical
/// result); the wall-clock deadline is inherently machine-dependent and
/// trades reproducibility for latency control.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleBudget {
    /// Maximum number of model/utility evaluations (`None` = unlimited).
    pub max_evals: Option<usize>,
    /// Wall-clock deadline measured from the estimator's start
    /// (`None` = unlimited).
    pub max_duration: Option<std::time::Duration>,
}

impl SampleBudget {
    /// A budget that never expires (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps model/utility evaluations.
    pub fn with_max_evals(n: usize) -> Self {
        Self { max_evals: Some(n), max_duration: None }
    }

    /// Caps wall-clock time.
    pub fn with_deadline(d: std::time::Duration) -> Self {
        Self { max_evals: None, max_duration: Some(d) }
    }

    /// True when neither cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_evals.is_none() && self.max_duration.is_none()
    }

    /// Starts metering against this budget.
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter { budget: *self, started: std::time::Instant::now(), evals: 0 }
    }
}

/// Running meter for one estimator invocation; see [`SampleBudget`].
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: SampleBudget,
    started: std::time::Instant,
    evals: usize,
}

impl BudgetMeter {
    /// Records `n` completed evaluations.
    pub fn record(&mut self, n: usize) {
        self.evals += n;
    }

    /// Evaluations recorded so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// True once either cap is hit; estimators check this between samples.
    pub fn exhausted(&self) -> bool {
        if let Some(cap) = self.budget.max_evals {
            if self.evals >= cap {
                return true;
            }
        }
        if let Some(deadline) = self.budget.max_duration {
            if self.started.elapsed() >= deadline {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linalg_errors_map_onto_the_taxonomy() {
        let e: XaiError = LinalgError::NonFinite { row: 1, col: 2 }.into();
        assert!(matches!(e, XaiError::NonFiniteInput { .. }));
        let e: XaiError = LinalgError::Singular { pivot: 0 }.into();
        assert!(matches!(e, XaiError::SingularSystem { .. }));
        let e: XaiError = LinalgError::NotPositiveDefinite { pivot: 1, value: -0.5 }.into();
        assert!(matches!(e, XaiError::SingularSystem { .. }));
    }

    #[test]
    fn task_panics_map_to_worker_panic() {
        let e: XaiError = TaskPanic { task: 3, message: "boom".into() }.into();
        assert_eq!(e, XaiError::WorkerPanic { task: 3, message: "boom".into() });
        assert!(e.to_string().contains("task 3"));
    }

    #[test]
    fn eval_budget_meters_deterministically() {
        let budget = SampleBudget::with_max_evals(10);
        assert!(!budget.is_unlimited());
        let mut meter = budget.start();
        assert!(!meter.exhausted());
        meter.record(9);
        assert!(!meter.exhausted());
        meter.record(1);
        assert!(meter.exhausted());
        assert_eq!(meter.evals(), 10);
    }

    #[test]
    fn deadline_budget_expires() {
        let budget = SampleBudget::with_deadline(std::time::Duration::ZERO);
        let meter = budget.start();
        assert!(meter.exhausted());
        assert!(SampleBudget::unlimited().start().exhausted() == false);
    }

    #[test]
    fn display_is_informative() {
        let e = XaiError::ConvergenceFailure { context: "logistic fit".into(), iterations: 50 };
        assert_eq!(e.to_string(), "failed to converge after 50 iterations: logistic fit");
    }
}
