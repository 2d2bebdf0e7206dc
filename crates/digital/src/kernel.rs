use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::SimTime;

/// Identifier of a process registered with a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(usize);

impl ProcessId {
    /// The numeric index of the process (stable for the kernel's lifetime).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Errors reported by the digital kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// A process requested a wake-up earlier than the current simulation time.
    WakeUpInThePast {
        /// The offending process.
        process: ProcessId,
        /// The requested wake-up time.
        requested: SimTime,
        /// The kernel's current time.
        now: SimTime,
    },
    /// `run_until` was asked to run to a time before the current time.
    TargetInThePast {
        /// The requested target time.
        target: SimTime,
        /// The kernel's current time.
        now: SimTime,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::WakeUpInThePast { process, requested, now } => write!(
                f,
                "process {} requested a wake-up at {requested} which is before the current time {now}",
                process.index()
            ),
            KernelError::TargetInThePast { target, now } => {
                write!(f, "cannot run to {target}: the kernel is already at {now}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A discrete process driven by the [`Kernel`].
///
/// The environment type `E` is whatever shared state the digital side needs to
/// observe and influence — in the complete harvester it is the analogue model
/// interface (supercapacitor voltage, load mode, actuator position). Keeping it
/// generic lets the kernel be tested in isolation and reused for other
/// mixed-technology systems.
pub trait Process<E> {
    /// Human-readable name used in traces and error messages.
    fn name(&self) -> &str;

    /// Called when the process' scheduled wake-up time arrives. The process
    /// inspects/updates the environment and returns the absolute time of its
    /// next wake-up, or `None` to terminate.
    fn resume(&mut self, now: SimTime, env: &mut E) -> Option<SimTime>;

    /// Serialises the process' loop-carried state into an opaque byte blob
    /// for a checkpoint. The default returns an empty blob — correct for a
    /// stateless process whose behaviour depends only on the wake-up time.
    /// Stateful processes should encode every field that influences future
    /// [`Process::resume`] calls (a state machine's phase, accumulated
    /// counters, …) so that a restored kernel replays identically.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state previously produced by [`Process::save_state`].
    /// Returns `false` if the blob is not recognised (wrong process type or
    /// malformed bytes) — the caller must treat that as a corrupt checkpoint,
    /// never resume silently. The default accepts only the empty blob the
    /// default [`Process::save_state`] produces.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

struct ScheduledEvent {
    time: SimTime,
    sequence: u64,
    process: usize,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}
impl Eq for ScheduledEvent {}
impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by time, then insertion order for determinism.
        (self.time, self.sequence).cmp(&(other.time, other.sequence))
    }
}

/// The event-driven scheduler.
///
/// Processes are registered with [`Kernel::spawn_at`]; the kernel keeps a
/// time-ordered queue of wake-ups and [`Kernel::run_until`] executes every
/// event with a timestamp not later than the target, advancing the kernel
/// clock as it goes. Between events the clock jumps directly — there is no
/// polling — which is what makes the digital side essentially free compared to
/// the analogue integration.
pub struct Kernel<E> {
    processes: Vec<Box<dyn Process<E> + Send>>,
    queue: BinaryHeap<Reverse<ScheduledEvent>>,
    now: SimTime,
    sequence: u64,
    events_processed: u64,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Kernel<E> {
    /// Creates an empty kernel at time zero.
    pub fn new() -> Self {
        Kernel {
            processes: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            sequence: 0,
            events_processed: 0,
        }
    }

    /// Current simulation time of the digital kernel.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of process activations executed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Next insertion sequence number (monotone tie-break counter for
    /// simultaneous events); saved in checkpoints so a restored kernel keeps
    /// numbering where the original stopped.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of registered processes (running or finished).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Registers a process and schedules its first wake-up at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is before the current kernel time.
    pub fn spawn_at<P>(&mut self, start: SimTime, process: P) -> ProcessId
    where
        P: Process<E> + Send + 'static,
    {
        assert!(start >= self.now, "cannot schedule a process start in the past");
        let id = ProcessId(self.processes.len());
        self.processes.push(Box::new(process));
        self.schedule(id.0, start);
        id
    }

    fn schedule(&mut self, process: usize, time: SimTime) {
        self.queue.push(Reverse(ScheduledEvent { time, sequence: self.sequence, process }));
        self.sequence += 1;
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(ev)| ev.time)
    }

    /// Executes every event scheduled at or before `target`, then sets the
    /// kernel clock to `target`.
    ///
    /// # Errors
    ///
    /// * [`KernelError::TargetInThePast`] if `target < self.now()`.
    /// * [`KernelError::WakeUpInThePast`] if a process asks to be woken before
    ///   the time at which it was resumed.
    pub fn run_until(&mut self, target: SimTime, env: &mut E) -> Result<(), KernelError> {
        self.run_until_with(target, env, |_, _| {})
    }

    /// [`Kernel::run_until`] with an *event tap*: `tap(time, name)` is called
    /// once per executed process activation, after the process has resumed
    /// (so the environment already reflects its effects). This is the
    /// observation channel a streaming simulation facade forwards to its
    /// probes — the kernel stays free of any probe vocabulary, the tap is
    /// just a borrow-scoped callback, and `run_until` is the no-op-tap
    /// special case.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Kernel::run_until`].
    pub fn run_until_with(
        &mut self,
        target: SimTime,
        env: &mut E,
        mut tap: impl FnMut(SimTime, &str),
    ) -> Result<(), KernelError> {
        if target < self.now {
            return Err(KernelError::TargetInThePast { target, now: self.now });
        }
        while let Some(Reverse(event)) = self.queue.peek() {
            if event.time > target {
                break;
            }
            let Reverse(event) = self.queue.pop().expect("peeked event exists");
            self.now = event.time;
            self.events_processed += 1;
            let process_index = event.process;
            let next = self.processes[process_index].resume(self.now, env);
            tap(self.now, self.processes[process_index].name());
            if let Some(next_time) = next {
                if next_time < self.now {
                    return Err(KernelError::WakeUpInThePast {
                        process: ProcessId(process_index),
                        requested: next_time,
                        now: self.now,
                    });
                }
                self.schedule(process_index, next_time);
            }
        }
        self.now = target;
        Ok(())
    }

    /// Snapshot of the pending event queue as `(time, sequence, process
    /// index)` triples, sorted in execution order — the canonical form a
    /// checkpoint stores. The original insertion sequence numbers are
    /// preserved so that simultaneous events keep their tie-break order
    /// across a save/restore cycle.
    pub fn queue_snapshot(&self) -> Vec<(SimTime, u64, usize)> {
        let mut events: Vec<_> =
            self.queue.iter().map(|Reverse(ev)| (ev.time, ev.sequence, ev.process)).collect();
        events.sort_unstable();
        events
    }

    /// Serialised state blob of the process at `index` (see
    /// [`Process::save_state`]), or `None` for an out-of-range index.
    pub fn process_state(&self, index: usize) -> Option<Vec<u8>> {
        self.processes.get(index).map(|p| p.save_state())
    }

    /// Hands a previously saved blob back to the process at `index` (see
    /// [`Process::restore_state`]). Returns `false` if the index is out of
    /// range or the process rejects the blob.
    pub fn restore_process_state(&mut self, index: usize, bytes: &[u8]) -> bool {
        match self.processes.get_mut(index) {
            Some(process) => process.restore_state(bytes),
            None => false,
        }
    }

    /// Restores the kernel clock, counters and pending event queue from a
    /// checkpoint, replacing whatever was scheduled. `events` is in the
    /// `(time, sequence, process index)` form of [`Kernel::queue_snapshot`].
    /// Returns `false` (leaving the kernel untouched) if any event names a
    /// process index that is not registered, carries a sequence number not
    /// below `sequence`, or is scheduled before `now` — all symptoms of a
    /// corrupt or mismatched checkpoint.
    pub fn restore_schedule(
        &mut self,
        now: SimTime,
        sequence: u64,
        events_processed: u64,
        events: &[(SimTime, u64, usize)],
    ) -> bool {
        for &(time, seq, process) in events {
            if process >= self.processes.len() || seq >= sequence || time < now {
                return false;
            }
        }
        self.now = now;
        self.sequence = sequence;
        self.events_processed = events_processed;
        self.queue.clear();
        for &(time, seq, process) in events {
            self.queue.push(Reverse(ScheduledEvent { time, sequence: seq, process }));
        }
        true
    }
}

impl<E> fmt::Debug for Kernel<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("processes", &self.processes.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test environment: a log of (time, label) activations.
    #[derive(Default)]
    struct Log {
        entries: Vec<(SimTime, String)>,
    }

    struct Periodic {
        label: String,
        period: SimTime,
        remaining: usize,
    }

    impl Process<Log> for Periodic {
        fn name(&self) -> &str {
            &self.label
        }
        fn resume(&mut self, now: SimTime, env: &mut Log) -> Option<SimTime> {
            env.entries.push((now, self.label.clone()));
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(now + self.period)
        }
    }

    #[test]
    fn processes_run_in_time_order() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(
            SimTime::from_millis(10),
            Periodic { label: "slow".into(), period: SimTime::from_millis(10), remaining: 2 },
        );
        kernel.spawn_at(
            SimTime::from_millis(4),
            Periodic { label: "fast".into(), period: SimTime::from_millis(4), remaining: 5 },
        );
        let mut log = Log::default();
        kernel.run_until(SimTime::from_millis(20), &mut log).unwrap();
        // Events: fast at 4, 8, 12, 16, 20; slow at 10, 20.
        let times: Vec<u64> = log.entries.iter().map(|(t, _)| t.as_nanos() / 1_000_000).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "activations must be in chronological order");
        assert_eq!(kernel.now(), SimTime::from_millis(20));
        assert!(kernel.events_processed() >= 7);
    }

    #[test]
    fn simultaneous_events_preserve_spawn_order() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(
            SimTime::from_millis(5),
            Periodic { label: "first".into(), period: SimTime::from_millis(5), remaining: 0 },
        );
        kernel.spawn_at(
            SimTime::from_millis(5),
            Periodic { label: "second".into(), period: SimTime::from_millis(5), remaining: 0 },
        );
        let mut log = Log::default();
        kernel.run_until(SimTime::from_millis(5), &mut log).unwrap();
        assert_eq!(log.entries[0].1, "first");
        assert_eq!(log.entries[1].1, "second");
    }

    #[test]
    fn finished_processes_are_not_rescheduled() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(
            SimTime::ZERO,
            Periodic { label: "one-shot".into(), period: SimTime::from_millis(1), remaining: 0 },
        );
        let mut log = Log::default();
        kernel.run_until(SimTime::from_secs(1), &mut log).unwrap();
        assert_eq!(log.entries.len(), 1);
        assert_eq!(kernel.next_event_time(), None);
    }

    #[test]
    fn run_until_does_not_execute_future_events() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(
            SimTime::from_secs(10),
            Periodic { label: "late".into(), period: SimTime::from_secs(1), remaining: 0 },
        );
        let mut log = Log::default();
        kernel.run_until(SimTime::from_secs(5), &mut log).unwrap();
        assert!(log.entries.is_empty());
        assert_eq!(kernel.next_event_time(), Some(SimTime::from_secs(10)));
        assert_eq!(kernel.now(), SimTime::from_secs(5));
    }

    #[test]
    fn target_in_the_past_is_rejected() {
        let mut kernel: Kernel<Log> = Kernel::new();
        let mut log = Log::default();
        kernel.run_until(SimTime::from_secs(5), &mut log).unwrap();
        let err = kernel.run_until(SimTime::from_secs(1), &mut log).unwrap_err();
        assert!(matches!(err, KernelError::TargetInThePast { .. }));
        assert!(err.to_string().contains("already"));
    }

    struct TimeTraveller;
    impl Process<Log> for TimeTraveller {
        fn name(&self) -> &str {
            "time-traveller"
        }
        fn resume(&mut self, _now: SimTime, _env: &mut Log) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
    }

    #[test]
    fn wake_up_in_the_past_is_rejected() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(SimTime::from_secs(1), TimeTraveller);
        let mut log = Log::default();
        let err = kernel.run_until(SimTime::from_secs(2), &mut log).unwrap_err();
        assert!(matches!(err, KernelError::WakeUpInThePast { .. }));
        assert!(err.to_string().contains("wake-up"));
    }

    /// The event tap observes every activation in order, with the process
    /// name, and the no-tap `run_until` behaves identically.
    #[test]
    fn event_tap_sees_every_activation() {
        let mut kernel: Kernel<Log> = Kernel::new();
        kernel.spawn_at(
            SimTime::from_millis(2),
            Periodic { label: "ticker".into(), period: SimTime::from_millis(2), remaining: 3 },
        );
        let mut log = Log::default();
        let mut tapped: Vec<(SimTime, String)> = Vec::new();
        kernel
            .run_until_with(SimTime::from_millis(10), &mut log, |time, name| {
                tapped.push((time, name.to_string()));
            })
            .unwrap();
        // Activations at 2, 4, 6, 8 ms; the tap mirrors the environment log.
        assert_eq!(tapped.len(), 4);
        assert_eq!(tapped.len(), log.entries.len());
        for ((tap_time, tap_name), (log_time, _)) in tapped.iter().zip(&log.entries) {
            assert_eq!(tap_time, log_time);
            assert_eq!(tap_name, "ticker");
        }
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn spawn_in_the_past_panics() {
        let mut kernel: Kernel<Log> = Kernel::new();
        let mut log = Log::default();
        kernel.run_until(SimTime::from_secs(1), &mut log).unwrap();
        kernel.spawn_at(
            SimTime::ZERO,
            Periodic { label: "late".into(), period: SimTime::from_millis(1), remaining: 0 },
        );
    }

    #[test]
    fn debug_formatting_mentions_state() {
        let kernel: Kernel<Log> = Kernel::new();
        let s = format!("{kernel:?}");
        assert!(s.contains("Kernel"));
        assert!(s.contains("processes"));
    }
}
