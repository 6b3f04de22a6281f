//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a cheaply-clonable handle shared between the thread
//! that runs a query and anything that may want to stop it (a wire session's
//! deadline, the server's drain-on-shutdown, a test harness).  Execution
//! engines poll the token at page-granularity points — pin-guard fetches,
//! partition-stream pulls, merge steps, spill-admission waits — by calling
//! [`CancelToken::check`], which returns [`HiqueError::Cancelled`] once the
//! token is cancelled or its deadline has passed.
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-operation, so
//! every RAII guard (pins, spill claims, temp files) unwinds through the
//! ordinary `?` error path and the storage layer stays consistent.  The
//! default token ([`CancelToken::disabled`]) never fires and costs one
//! branch per check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{HiqueError, Result};

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation handle for one query execution.
///
/// `Clone` shares the underlying flag; a disabled token (the default) has
/// no state at all and every check is a single `None` test.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A live token that fires only when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that can never fire (the default for unattended execution).
    pub fn disabled() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A live token that also fires once `timeout` has elapsed from now.
    #[expect(clippy::disallowed_methods, reason = "a deadline is wall-clock")]
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            })),
        }
    }

    /// Request cancellation.  Idempotent; a disabled token ignores it.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// True once the token is cancelled or past its deadline.
    #[expect(clippy::disallowed_methods, reason = "a deadline is wall-clock")]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// The cooperative check point: `Ok(())` while the query may continue,
    /// [`HiqueError::Cancelled`] once it must stop.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(HiqueError::Cancelled(
                "query cancelled (deadline or explicit cancel)".into(),
            ))
        } else {
            Ok(())
        }
    }

    /// Remaining time until the deadline, if one is set and not yet passed.
    #[expect(clippy::disallowed_methods, reason = "a deadline is wall-clock")]
    pub fn time_left(&self) -> Option<Duration> {
        let deadline = self.inner.as_ref()?.deadline?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }
}

/// Execution options every engine takes.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// When `false`, the final result rows are not materialized — the
    /// executor only counts them (`stats.rows_out`), mirroring the paper's
    /// methodology of not materializing query output in the
    /// micro-benchmarks.  Aggregate results (a handful of groups) are always
    /// materialized.
    pub collect_rows: bool,
    /// Cooperative cancellation token, polled at page-granularity points
    /// (heap-scan pages, join steps, partition-stream pulls, spill-admission
    /// waits).  The default disabled token never fires (DESIGN.md §12).
    pub cancel: CancelToken,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            collect_rows: true,
            cancel: CancelToken::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_token_never_fires() {
        let t = CancelToken::disabled();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.time_left().is_none());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(t.check().is_ok());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(HiqueError::Cancelled(_))));
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(HiqueError::Cancelled(_))));
    }

    #[test]
    fn deadline_token_reports_time_left() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.time_left().unwrap() > Duration::from_secs(3000));
        assert!(t.check().is_ok());
    }
}
