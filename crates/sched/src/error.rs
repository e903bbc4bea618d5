//! Scheduler errors.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// No valid modulo schedule was found at or below the II cap. The
    /// paper's framework falls back to list scheduling in this case
    /// (§4.1); [`crate::schedule_loop`] does so automatically, so callers
    /// only see this from [`crate::pipeline::run`].
    IiLimitExceeded {
        /// The II cap that was reached.
        limit: i64,
    },
    /// The machine cannot execute the loop at all (e.g. a cluster mix with
    /// zero units of a required kind).
    Unschedulable(String),
    /// A raced portfolio candidate was cut off early: its II ladder crossed
    /// the II at which it could still beat the incumbent, or exhausted its
    /// attempt budget, before finding a schedule. Unlike
    /// [`Self::IiLimitExceeded`] this is *not* a scheduling failure — the
    /// caller (the portfolio race) asked to stop once the candidate could
    /// no longer win — so it must not trigger the list fallback.
    RaceCutoff {
        /// The last II the run was allowed to try.
        limit: i64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::IiLimitExceeded { limit } => {
                write!(f, "no modulo schedule at or below ii limit {limit}")
            }
            SchedError::Unschedulable(why) => write!(f, "loop cannot be scheduled: {why}"),
            SchedError::RaceCutoff { limit } => {
                write!(f, "raced candidate cut off at ii limit {limit}")
            }
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SchedError::IiLimitExceeded { limit: 64 };
        assert!(e.to_string().contains("64"));
        let u = SchedError::Unschedulable("no fp units".into());
        assert!(u.to_string().contains("no fp units"));
    }
}
