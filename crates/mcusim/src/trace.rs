//! Execution traces: the ground truth every experiment is computed from.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::time::Cycles;

/// Index of a task within a task set (assigned at admission, dense from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub usize);

/// Index of a job (the `k`-th release of its task, from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u64);

/// Index of a segment within a task's segmented execution (from 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct SegmentId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}
impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}
impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// What happened at one instant of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceKind {
    /// A periodic job arrived and became ready.
    JobReleased {
        /// Task that released the job.
        task: TaskId,
        /// Job index.
        job: JobId,
        /// Absolute deadline of the job.
        deadline: Cycles,
    },
    /// A segment began computing on the CPU.
    SegmentStarted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
    },
    /// A segment finished its compute phase.
    SegmentCompleted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
    },
    /// A DMA fetch of a segment's weights started.
    FetchStarted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose weights are being staged.
        segment: SegmentId,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A DMA fetch completed.
    FetchCompleted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose weights were staged.
        segment: SegmentId,
    },
    /// An injected fault corrupted a DMA fetch; the transfer must be
    /// re-issued in full. Followed by a fresh
    /// [`TraceKind::FetchStarted`] for the retry.
    FetchFaulted {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment whose transfer faulted.
        segment: SegmentId,
        /// Which attempt faulted (0 = the first transfer).
        attempt: u32,
    },
    /// A job retired its last segment.
    JobCompleted {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
        /// Release-to-completion response time.
        response: Cycles,
    },
    /// A job was still unfinished at its absolute deadline.
    DeadlineMissed {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
    },
    /// A ready higher-priority job took the CPU at a segment boundary.
    Preempted {
        /// Task that lost the CPU.
        task: TaskId,
        /// Task that took it.
        by: TaskId,
    },
    /// A job was dropped mid-flight by the `Abort` deadline-miss policy.
    JobAborted {
        /// Owning task.
        task: TaskId,
        /// Job index.
        job: JobId,
    },
    /// A release was shed by the `SkipNextRelease` deadline-miss policy:
    /// the job was never created. The job index is the one the skipped
    /// release would have had.
    ReleaseShed {
        /// Owning task.
        task: TaskId,
        /// Job index that was skipped.
        job: JobId,
    },
    /// The CPU went idle (no ready segment). Paired with the next
    /// [`TraceKind::CpuIdleEnd`]; a trace may end mid-idle, in which
    /// case consumers clamp the interval at their analysis horizon
    /// (see [`Trace::idle_intervals`]).
    CpuIdle,
    /// The CPU left idle (a segment is about to start). Closes the most
    /// recent [`TraceKind::CpuIdle`].
    CpuIdleEnd,
    /// Attribution anchor: the head job of `task` cannot compute its
    /// next segment because its weights are not staged yet — the job is
    /// blocked on the DMA pipeline. Paired with the next
    /// [`TraceKind::FetchWaitEnded`] of the same job and segment.
    /// Emitted only when the simulator runs with attribution enabled.
    FetchWaitBegan {
        /// Waiting task.
        task: TaskId,
        /// Waiting job.
        job: JobId,
        /// Segment whose staging the job is blocked on.
        segment: SegmentId,
    },
    /// Attribution anchor: the blocking segment was staged (or the
    /// waiting job left the system) and the fetch wait opened by the
    /// matching [`TraceKind::FetchWaitBegan`] is over. Emitted only
    /// when the simulator runs with attribution enabled.
    FetchWaitEnded {
        /// Task that was waiting.
        task: TaskId,
        /// Job that was waiting.
        job: JobId,
        /// Segment the job was blocked on.
        segment: SegmentId,
    },
    /// Attribution anchor: the segment completing at this instant spent
    /// `stall` wall cycles of its CPU occupancy losing bus arbitration
    /// to a concurrent DMA transfer (occupancies are non-preemptive, so
    /// the stall is exactly wall time minus nominal work). Emitted just
    /// before the matching [`TraceKind::SegmentCompleted`], only when
    /// the stall is nonzero and attribution is enabled.
    SegmentStalled {
        /// Owning task.
        task: TaskId,
        /// Owning job.
        job: JobId,
        /// Segment index.
        segment: SegmentId,
        /// Wall cycles lost to bus contention within the occupancy.
        stall: Cycles,
    },
    /// Attribution anchor: a previously-started job re-claims the CPU
    /// after having been preempted, identifying which task ran in
    /// between (the most recent CPU occupant). Emitted at the resuming
    /// dispatch, only when attribution is enabled.
    Resumed {
        /// Task resuming execution.
        task: TaskId,
        /// Resuming job.
        job: JobId,
        /// The task that held the CPU before this dispatch.
        after: TaskId,
    },
}

/// A timestamped [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation instant.
    pub time: Cycles,
    /// What happened.
    pub kind: TraceKind,
}

/// An append-only log of simulation events with query helpers.
///
/// The scheduler simulator appends; experiments and tests query. Events
/// are appended in nondecreasing time order (enforced in debug builds).
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, JobId, SegmentId, TaskId, Trace, TraceKind};
///
/// let (task, job, segment) = (TaskId(0), JobId(0), SegmentId(0));
/// let mut trace = Trace::new();
/// trace.push(Cycles::new(10), TraceKind::SegmentStarted { task, job, segment });
/// trace.push(Cycles::new(52), TraceKind::SegmentCompleted { task, job, segment });
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.cpu_busy_cycles(), Cycles::new(42));
/// assert_eq!(trace.injected_faults(), 0);
/// ```
///
/// Per-task aggregates (responses, misses, utilization) live in
/// `rtmdm-obs`'s `Timeline`, built from a trace; its `gantt` module
/// renders a timeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends an event at `time`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` precedes the last appended
    /// event (the simulator must emit monotone timestamps).
    pub fn push(&mut self, time: Cycles, kind: TraceKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.time <= time),
            "trace timestamps must be nondecreasing"
        );
        self.events.push(TraceEvent { time, kind });
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// A new trace holding only the first `len` events — the
    /// restore-from-snapshot primitive: traces are append-only, so a
    /// simulator state captured mid-run is re-entered by truncating the
    /// finished run's trace back to the captured length instead of
    /// re-simulating (and re-emitting) the whole prefix. `len` is
    /// clamped to the recorded length.
    pub fn truncated(&self, len: usize) -> Trace {
        Trace {
            events: self.events[..len.min(self.events.len())].to_vec(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total injected DMA transfer faults across all tasks.
    pub fn injected_faults(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::FetchFaulted { .. }))
            .count()
    }

    /// Total shed releases plus aborted jobs — the work the
    /// deadline-miss policies dropped.
    pub fn shed_or_aborted(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::ReleaseShed { .. } | TraceKind::JobAborted { .. }
                )
            })
            .count()
    }

    /// Total cycles the CPU spent executing segments, derived from
    /// start/complete pairs.
    pub fn cpu_busy_cycles(&self) -> Cycles {
        let mut busy = Cycles::ZERO;
        let mut open: BTreeMap<(TaskId, JobId, SegmentId), Cycles> = BTreeMap::new();
        for e in &self.events {
            match e.kind {
                TraceKind::SegmentStarted { task, job, segment } => {
                    open.insert((task, job, segment), e.time);
                }
                TraceKind::SegmentCompleted { task, job, segment } => {
                    if let Some(start) = open.remove(&(task, job, segment)) {
                        busy += e.time - start;
                    }
                }
                _ => {}
            }
        }
        busy
    }

    /// CPU idle periods as `(start, end)` pairs derived from
    /// [`TraceKind::CpuIdle`]/[`TraceKind::CpuIdleEnd`] events, without
    /// scanning ahead past the pair. An idle period still open when the
    /// trace ends is clamped to `horizon` (the simulator stops emitting
    /// events at the horizon, so a trailing `CpuIdle` has no paired
    /// end). Periods starting at or after `horizon` are dropped.
    pub fn idle_intervals(&self, horizon: Cycles) -> Vec<(Cycles, Cycles)> {
        let mut out = Vec::new();
        let mut open: Option<Cycles> = None;
        for e in &self.events {
            match e.kind {
                TraceKind::CpuIdle => {
                    // Duplicate opens keep the earliest start.
                    open.get_or_insert(e.time);
                }
                TraceKind::CpuIdleEnd => {
                    if let Some(start) = open.take() {
                        let end = e.time.min(horizon);
                        if start < end {
                            out.push((start, end));
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            if start < horizon {
                out.push((start, horizon));
            }
        }
        out
    }

    /// Total idle cycles over `[0, horizon)` (the sum of
    /// [`Trace::idle_intervals`]).
    pub fn cpu_idle_cycles(&self, horizon: Cycles) -> Cycles {
        self.idle_intervals(horizon)
            .iter()
            .map(|(s, e)| e.saturating_sub(*s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_keeps_exactly_the_prefix() {
        let mut t = Trace::new();
        for i in 0..5u64 {
            t.push(Cycles::new(i * 10), TraceKind::CpuIdle);
        }
        let head = t.truncated(3);
        assert_eq!(head.len(), 3);
        assert_eq!(head.events(), &t.events()[..3]);
        // Clamped, not panicking, past the end; zero yields empty.
        assert_eq!(t.truncated(99).events(), t.events());
        assert!(t.truncated(0).is_empty());
    }

    fn cy(n: u64) -> Cycles {
        Cycles::new(n)
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let (t0, j0, s0) = (TaskId(0), JobId(0), SegmentId(0));
        t.push(
            cy(0),
            TraceKind::JobReleased {
                task: t0,
                job: j0,
                deadline: cy(100),
            },
        );
        t.push(
            cy(5),
            TraceKind::FetchStarted {
                task: t0,
                job: j0,
                segment: s0,
                bytes: 1024,
            },
        );
        t.push(
            cy(15),
            TraceKind::FetchCompleted {
                task: t0,
                job: j0,
                segment: s0,
            },
        );
        t.push(
            cy(15),
            TraceKind::SegmentStarted {
                task: t0,
                job: j0,
                segment: s0,
            },
        );
        t.push(
            cy(55),
            TraceKind::SegmentCompleted {
                task: t0,
                job: j0,
                segment: s0,
            },
        );
        t.push(
            cy(55),
            TraceKind::JobCompleted {
                task: t0,
                job: j0,
                response: cy(55),
            },
        );
        t
    }

    #[test]
    fn busy_cycles_from_segment_pairs() {
        let t = sample_trace();
        assert_eq!(t.cpu_busy_cycles(), cy(40));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_push_panics_in_debug() {
        let mut t = Trace::new();
        t.push(cy(10), TraceKind::CpuIdle);
        t.push(cy(5), TraceKind::CpuIdle);
    }

    #[test]
    fn idle_intervals_pair_up_without_scanning_ahead() {
        let mut t = Trace::new();
        t.push(cy(10), TraceKind::CpuIdle);
        t.push(cy(25), TraceKind::CpuIdleEnd);
        t.push(cy(40), TraceKind::CpuIdle);
        t.push(cy(60), TraceKind::CpuIdleEnd);
        assert_eq!(
            t.idle_intervals(cy(100)),
            vec![(cy(10), cy(25)), (cy(40), cy(60))]
        );
        assert_eq!(t.cpu_idle_cycles(cy(100)), cy(35));
    }

    #[test]
    fn trace_ending_mid_idle_clamps_to_horizon() {
        // Regression: the simulator stops at the horizon, so a trailing
        // CpuIdle has no paired end — the interval must clamp, not
        // vanish or panic.
        let mut t = Trace::new();
        t.push(cy(10), TraceKind::CpuIdle);
        t.push(cy(30), TraceKind::CpuIdleEnd);
        t.push(cy(70), TraceKind::CpuIdle);
        assert_eq!(
            t.idle_intervals(cy(100)),
            vec![(cy(10), cy(30)), (cy(70), cy(100))]
        );
        assert_eq!(t.cpu_idle_cycles(cy(100)), cy(50));
        // An idle period opening exactly at the horizon is dropped, and
        // an unmatched end is ignored.
        let mut u = Trace::new();
        u.push(cy(5), TraceKind::CpuIdleEnd);
        u.push(cy(100), TraceKind::CpuIdle);
        assert_eq!(u.idle_intervals(cy(100)), vec![]);
    }
}
