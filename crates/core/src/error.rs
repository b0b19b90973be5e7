use std::error::Error;
use std::fmt;

use sr_lp::LpError;
use sr_tfg::{MessageId, TfgError};
use sr_topology::LinkId;

use crate::EPS;

/// Why scheduled-routing compilation failed.
///
/// Each variant corresponds to a stage of the Fig. 3 pipeline; the paper's
/// evaluation reports exactly these outcomes (utilization above unity at some
/// loads, message–interval allocation failing at three torus points, …).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// Time-bound assignment failed (period too short, oversized message…).
    TimeBounds(TfgError),
    /// The best path assignment found still has peak utilization above 1:
    /// the TFG's communication requirements exceed the link capacity at this
    /// period ("If U < 1, SR can be attempted; otherwise …").
    UtilizationExceeded {
        /// The peak utilization reached.
        utilization: f64,
    },
    /// The message–interval allocation LP for one maximal related subset is
    /// infeasible: no split of the messages' transmission times over their
    /// active intervals respects every link's per-interval capacity.
    AllocationInfeasible {
        /// Messages of the failing subset.
        subset: Vec<MessageId>,
    },
    /// An interval's messages cannot all be transmitted within it: the
    /// minimal total time of the link-feasible-set schedule exceeds the
    /// interval length.
    IntervalUnschedulable {
        /// Index of the failing interval.
        interval: usize,
        /// Minimal schedule length required, µs.
        required: f64,
        /// Interval length available, µs.
        available: f64,
    },
    /// Enumerating link-feasible sets would exceed the configured limit
    /// (pathologically dense conflict graph).
    TooManyFeasibleSets {
        /// Index of the offending interval.
        interval: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The LP solver failed unexpectedly (numerical trouble).
    Lp(LpError),
    /// Co-located tasks demand more execution time per period than their
    /// shared application processor has: the pipeline rate is unsustainable
    /// regardless of routing.
    NodeOverloaded {
        /// The overloaded node.
        node: sr_topology::NodeId,
        /// Total execution demand per invocation on that node, µs.
        demand: f64,
        /// The invocation period, µs.
        period: f64,
    },
    /// The allocation does not match the TFG/topology pair.
    AllocationMismatch {
        /// Placements supplied.
        alloc_tasks: usize,
        /// Tasks in the graph.
        tfg_tasks: usize,
    },
}

impl CompileError {
    /// The short status a load sweep prints for a compile this error
    /// rejected: `U=<peak>>1` with the peak rounded *up* to hundredths (one
    /// that fails by less than 0.005 must not read `1.00`),
    /// `alloc-infeasible`, `interval-unsched`, or else the full message.
    pub fn status(&self) -> String {
        match self {
            CompileError::UtilizationExceeded { utilization } => {
                let hundredths = (utilization * 100.0).round();
                let up = if hundredths / 100.0 < *utilization {
                    hundredths + 1.0
                } else {
                    hundredths
                };
                format!("U={:.2}>1", up / 100.0)
            }
            CompileError::AllocationInfeasible { .. } => "alloc-infeasible".into(),
            CompileError::IntervalUnschedulable { .. } => "interval-unsched".into(),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TimeBounds(e) => write!(f, "time-bound assignment failed: {e}"),
            CompileError::UtilizationExceeded { utilization } => write!(
                f,
                "peak utilization {utilization:.3} exceeds link capacity (need ≤ 1)"
            ),
            CompileError::AllocationInfeasible { subset } => write!(
                f,
                "message-interval allocation infeasible for a subset of {} messages",
                subset.len()
            ),
            CompileError::IntervalUnschedulable {
                interval,
                required,
                available,
            } => write!(
                f,
                "interval {interval} needs {required:.3} µs but only {available:.3} µs long"
            ),
            CompileError::TooManyFeasibleSets { interval, cap } => write!(
                f,
                "interval {interval} has more than {cap} link-feasible sets"
            ),
            CompileError::Lp(e) => write!(f, "LP solver failed: {e}"),
            CompileError::NodeOverloaded {
                node,
                demand,
                period,
            } => write!(
                f,
                "{node} must execute {demand:.3} µs of tasks per {period:.3} µs period"
            ),
            CompileError::AllocationMismatch {
                alloc_tasks,
                tfg_tasks,
            } => write!(
                f,
                "allocation covers {alloc_tasks} tasks but the graph has {tfg_tasks}"
            ),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::TimeBounds(e) => Some(e),
            CompileError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TfgError> for CompileError {
    fn from(e: TfgError) -> Self {
        CompileError::TimeBounds(e)
    }
}

impl From<LpError> for CompileError {
    fn from(e: LpError) -> Self {
        CompileError::Lp(e)
    }
}

/// A violation found while replaying a compiled schedule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Two message segments occupy the same link at overlapping times.
    LinkContention {
        /// The contended link.
        link: LinkId,
        /// The two clashing messages.
        messages: (MessageId, MessageId),
        /// Overlap start, µs.
        at: f64,
    },
    /// A message's scheduled segments do not add up to its transmission
    /// time.
    IncompleteTransmission {
        /// The short-changed message.
        message: MessageId,
        /// Time scheduled, µs.
        scheduled: f64,
        /// Time required, µs.
        required: f64,
    },
    /// Two segments of one message overlap: the later starts more than
    /// `EPS` before the earlier ends, so the message would be counted
    /// complete for time it spends transmitting twice at once.
    SelfOverlap {
        /// The offending message.
        message: MessageId,
        /// Start of the later segment, µs.
        at: f64,
    },
    /// A segment is shorter than `EPS`. The link sweep compares each
    /// segment with its start-order neighbour only, which is sound when
    /// every segment is at least `EPS` long: a shorter one could hide a
    /// guard violation between its own message and another.
    ShortSegment {
        /// The offending message.
        message: MessageId,
        /// Segment start, µs.
        start: f64,
        /// Segment end, µs.
        end: f64,
    },
    /// A segment lies (partly) outside the message's release/deadline spans.
    OutsideWindow {
        /// The offending message.
        message: MessageId,
        /// Segment start, µs.
        start: f64,
        /// Segment end, µs.
        end: f64,
    },
    /// A segment is not aligned with the message's assigned path (some node
    /// of the path lacks the command that backs it), or the assignment's
    /// link row for the message is not the link sequence of its node path.
    WrongPath {
        /// The offending message.
        message: MessageId,
    },
    /// Node switching commands disagree with the message segments (a
    /// crossbar would have to be in two states at once).
    ConflictingCommands {
        /// The node whose schedule is inconsistent.
        node: sr_topology::NodeId,
        /// When the conflict occurs, µs.
        at: f64,
    },
    /// A scheduled message's path crosses a failed link or node (only
    /// raised by [`crate::verify_with_faults`]).
    UsesFailedResource {
        /// The message routed over a failed resource.
        message: MessageId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::LinkContention { link, messages, at } => write!(
                f,
                "{} and {} contend for {link} at t={at:.3} µs",
                messages.0, messages.1
            ),
            VerifyError::IncompleteTransmission {
                message,
                scheduled,
                required,
            } => write!(
                f,
                "{message} scheduled for {scheduled:.3} µs of {required:.3} µs"
            ),
            VerifyError::SelfOverlap { message, at } => {
                write!(f, "{message} overlaps its own transmission at t={at:.3} µs")
            }
            VerifyError::ShortSegment {
                message,
                start,
                end,
            } => write!(
                f,
                "{message} segment [{start:.3}, {end:.3}] is shorter than the {EPS:e} µs tolerance"
            ),
            VerifyError::OutsideWindow {
                message,
                start,
                end,
            } => write!(
                f,
                "{message} segment [{start:.3}, {end:.3}] leaves its window"
            ),
            VerifyError::WrongPath { message } => {
                write!(f, "{message} segment deviates from its assigned path")
            }
            VerifyError::ConflictingCommands { node, at } => {
                write!(f, "switching commands conflict at {node}, t={at:.3} µs")
            }
            VerifyError::UsesFailedResource { message } => {
                write!(f, "{message} is routed over a failed link or node")
            }
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CompileError::UtilizationExceeded { utilization: 1.4 };
        assert!(e.to_string().contains("1.4"));
        let e = CompileError::IntervalUnschedulable {
            interval: 3,
            required: 5.0,
            available: 4.0,
        };
        assert!(e.to_string().contains("interval 3"));
        let v = VerifyError::IncompleteTransmission {
            message: MessageId(2),
            scheduled: 1.0,
            required: 2.0,
        };
        assert!(v.to_string().contains("M2"));
        let v = VerifyError::SelfOverlap {
            message: MessageId(3),
            at: 2.5,
        };
        assert_eq!(
            v.to_string(),
            "M3 overlaps its own transmission at t=2.500 µs"
        );
        let v = VerifyError::ShortSegment {
            message: MessageId(1),
            start: 4.0,
            end: 4.0,
        };
        assert_eq!(
            v.to_string(),
            "M1 segment [4.000, 4.000] is shorter than the 1e-6 µs tolerance"
        );
    }

    /// A U that fails by less than half a hundredth still reads as failing,
    /// and one on a hundredth prints as itself.
    #[test]
    fn status_rounds_a_failing_utilization_up() {
        let status = |utilization| CompileError::UtilizationExceeded { utilization }.status();
        assert_eq!(status(1.004), "U=1.01>1");
        assert_eq!(status(1.0001), "U=1.01>1");
        assert_eq!(status(1.08), "U=1.08>1");
        assert_eq!(status(1.2345), "U=1.24>1");
        let other = CompileError::TooManyFeasibleSets {
            interval: 2,
            cap: 9,
        };
        assert_eq!(other.status(), other.to_string());
    }

    #[test]
    fn conversions() {
        let e: CompileError = TfgError::Empty.into();
        assert!(matches!(e, CompileError::TimeBounds(_)));
        let e: CompileError = LpError::Infeasible.into();
        assert!(matches!(e, CompileError::Lp(_)));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CompileError>();
        assert_error::<VerifyError>();
    }
}
