//! Cooperative cancellation and deadlines for the decode data plane.
//!
//! A [`CancelToken`] is the engine's time-robustness primitive: an
//! `Arc`-shared atomic flag plus an optional deadline [`Instant`],
//! checked *between* jobs by the
//! [`exec`](super::exec) executor — never inside a segment decode, so
//! cancellation costs one atomic load + at most one clock read per job
//! and a segment's output is always either complete or absent.
//!
//! Tokens form a chain: [`child_with_deadline`](CancelToken::child_with_deadline)
//! derives a per-request token from a per-connection parent, so
//! cancelling the parent (the connection died) trips every outstanding
//! request token, while each request still carries its own deadline
//! (`min(client deadline, server budget)` in `ninec-serve`).
//!
//! What a trip means depends on the ladder rung that observes it:
//! strict mode surfaces a typed
//! [`DecodeError::Cancelled`]/[`DecodeError::DeadlineExceeded`], while
//! repair/salvage degrade the unfinished segments to
//! [`DamageReason::Cancelled`](super::frame::DamageReason::Cancelled)
//! erasures — a *partial* answer, consistent with salvage's contract
//! that damage becomes `X` runs, never a hang.

use crate::decode::DecodeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// [`CancelToken::cancel`] was called (caller went away).
    Cancelled,
    /// The token's (or an ancestor's) deadline passed.
    DeadlineExceeded,
}

impl Trip {
    /// The typed strict-mode decode error for this trip cause.
    #[must_use]
    pub fn decode_error(self) -> DecodeError {
        match self {
            Trip::Cancelled => DecodeError::Cancelled,
            Trip::DeadlineExceeded => DecodeError::DeadlineExceeded,
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

/// A cloneable cancellation handle (see the module docs). Clones share
/// state: cancelling any clone trips them all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only via [`cancel`](Self::cancel).
    #[must_use]
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that trips once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::build(Some(deadline), None)
    }

    /// A token that trips `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Derives a child that trips when *either* this token trips or the
    /// child's own `deadline` (if any) passes. Cancelling the child does
    /// not affect the parent.
    #[must_use]
    pub fn child_with_deadline(&self, deadline: Option<Instant>) -> Self {
        Self::build(deadline, Some(self.clone()))
    }

    fn build(deadline: Option<Instant>, parent: Option<CancelToken>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                parent,
            }),
        }
    }

    /// Trips this token (and every child derived from it).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` when [`cancel`](Self::cancel) was called on this token or
    /// an ancestor — deadline expiry does **not** set this.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self
                .inner
                .parent
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
    }

    /// This token's own deadline, if any (ancestors keep their own).
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Why the token is tripped right now, or `None` while it is live.
    /// Explicit cancellation wins over a passed deadline: a caller that
    /// hung up is reported as [`Trip::Cancelled`] even after its budget
    /// also ran out.
    #[must_use]
    pub fn trip(&self) -> Option<Trip> {
        if self.is_cancelled() {
            return Some(Trip::Cancelled);
        }
        let mut node = Some(self);
        while let Some(token) = node {
            if let Some(deadline) = token.inner.deadline {
                if Instant::now() >= deadline {
                    return Some(Trip::DeadlineExceeded);
                }
            }
            node = token.inner.parent.as_ref();
        }
        None
    }

    /// `true` when the token has tripped for any reason.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.trip().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_tripped());
        assert!(!t.is_cancelled());
        assert_eq!(t.trip(), None);
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.trip(), Some(Trip::Cancelled));
        assert!(clone.is_cancelled());
    }

    #[test]
    fn passed_deadline_trips_as_deadline_exceeded() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.trip(), Some(Trip::DeadlineExceeded));
        assert!(!t.is_cancelled(), "deadline expiry is not a cancel");
        let future = CancelToken::after(Duration::from_secs(3600));
        assert_eq!(future.trip(), None);
    }

    #[test]
    fn explicit_cancel_wins_over_a_passed_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.trip(), Some(Trip::Cancelled));
    }

    #[test]
    fn parent_trip_propagates_to_children_but_not_back() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(None);
        assert_eq!(child.trip(), None);
        parent.cancel();
        assert_eq!(child.trip(), Some(Trip::Cancelled));

        let parent = CancelToken::new();
        let child = parent.child_with_deadline(None);
        child.cancel();
        assert_eq!(parent.trip(), None, "child cancel must not trip parent");
    }

    #[test]
    fn child_deadline_is_independent_of_the_parent() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(child.trip(), Some(Trip::DeadlineExceeded));
        assert_eq!(parent.trip(), None);
        // And an expired *parent* deadline trips the child.
        let parent = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let child = parent.child_with_deadline(None);
        assert_eq!(child.trip(), Some(Trip::DeadlineExceeded));
    }

    #[test]
    fn trip_causes_map_to_typed_decode_errors() {
        assert_eq!(Trip::Cancelled.decode_error(), DecodeError::Cancelled);
        assert_eq!(
            Trip::DeadlineExceeded.decode_error(),
            DecodeError::DeadlineExceeded
        );
    }
}
