//! A miniature stream-processing engine.
//!
//! The substrate for the paper's third meaning of data *velocity*: "data
//! streams continuously arrive and must be processed in real-time to keep
//! up with their arriving speed". Two operator families run on the
//! caller's thread, one event at a time: keyed event-time tumbling
//! windows ([`Windower`], with a zero-lateness watermark) and the
//! order-insensitive per-user aggregates of [`behavioral`]. The keep-up
//! test — offered arrival rate against processing latency — is the load
//! driver's open loop over the streaming engine, not a second pacer here.
//!
//! ```
//! use bdb_stream::Windower;
//! use bdb_common::event::Event;
//!
//! let mut windower = Windower::new(100);
//! let mut windows = Vec::new();
//! for i in 0..100 {
//!     windows.extend(windower.push(&Event::new(i * 10, i % 2, 1.0)));
//! }
//! windows.extend(windower.flush());
//! assert_eq!(windows.len(), 20); // 10 windows x 2 keys
//! assert_eq!(windows.iter().map(|w| w.count).sum::<u64>(), 100);
//! ```

pub mod behavioral;
pub mod window;

pub use window::{WindowAggregate, Windower};
