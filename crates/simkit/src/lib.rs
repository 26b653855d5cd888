//! # wavm3-simkit — simulation kernel
//!
//! Foundation crate for the WAVM3 reproduction: simulation time,
//! reproducible random-number streams, and sampled time-series
//! containers.
//!
//! Everything in this crate is deliberately *deterministic*: two runs with
//! the same seeds produce bit-identical results regardless of host platform
//! or thread count (parallelism in the workspace only ever happens across
//! independent simulations).
//!
//! ## Example
//!
//! ```
//! use rand::Rng;
//! use wavm3_simkit::{RngFactory, SimDuration, SimTime};
//!
//! // Streams are keyed by label: the same seed and label give the same
//! // draws, whatever else the run asked for first.
//! let rng = RngFactory::new(7);
//! let a: f64 = rng.stream("meter.source").gen();
//! let b: f64 = rng.stream("meter.source").gen();
//! assert_eq!(a, b);
//!
//! // Time is integer microseconds, so the 2 Hz meter grid is exact.
//! let t = SimTime::from_millis(1_000) + SimDuration::from_millis(500);
//! assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(1_500));
//! assert_eq!(t.as_secs_f64(), 1.5);
//! ```

pub mod interval;
pub mod probe;
pub mod rng;
pub mod series;
pub mod time;

pub use interval::Interval;
pub use rng::{CounterRng, RngFactory, StreamRng};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
