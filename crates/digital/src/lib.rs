//! # harvsim-digital
//!
//! A small event-driven digital simulation kernel in the spirit of the
//! "standard SystemC modules" the paper uses to model the microcontroller of
//! the tunable energy harvester (Section III-D and Fig. 7).
//!
//! The analogue part of the harvester is solved by the linearised state-space
//! engine in `harvsim-core`; the digital part — the watchdog timer, the
//! energy-check / frequency-check / tuning decision flow of the
//! microcontroller — is modelled here as discrete processes that wake at
//! scheduled times, inspect their environment (supercapacitor voltage, ambient
//! and resonant frequency) and request their next wake-up. The kernel keeps a
//! time-ordered event queue and advances simulation time from event to event;
//! the mixed-signal coupling simply interleaves analogue integration intervals
//! with kernel event processing.
//!
//! Components:
//!
//! * [`SimTime`] — integer nanosecond simulation time (no floating-point drift
//!   in the event queue).
//! * [`Process`] — the behaviour trait: `resume` is called when the process'
//!   wake-up time arrives and returns the next wake-up request.
//! * [`Kernel`] — the scheduler: owns processes, maintains the event queue and
//!   advances time.
//!
//! # Example
//!
//! ```
//! use harvsim_digital::{Kernel, Process, SimTime};
//!
//! struct Blinker {
//!     count: usize,
//! }
//!
//! impl Process<()> for Blinker {
//!     fn name(&self) -> &str {
//!         "blinker"
//!     }
//!     fn resume(&mut self, now: SimTime, _env: &mut ()) -> Option<SimTime> {
//!         self.count += 1;
//!         Some(now + SimTime::from_millis(10))
//!     }
//! }
//!
//! let mut kernel = Kernel::new();
//! kernel.spawn_at(SimTime::ZERO, Blinker { count: 0 });
//! let mut env = ();
//! kernel.run_until(SimTime::from_millis(55), &mut env).expect("no process errors");
//! assert_eq!(kernel.now(), SimTime::from_millis(55));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod time;

pub use kernel::{Kernel, KernelError, Process, ProcessId};
pub use time::SimTime;
