//! Offline stand-in for `crossbeam`: the [`channel`] module's unbounded
//! MPMC queue, backed by a mutex + condvar. Scoped threads need no
//! stand-in: `std::thread::scope` provides them.
//!
//! ```
//! let (tx, rx) = crossbeam::channel::unbounded();
//! for i in 1..=4 {
//!     tx.send(i).unwrap();
//! }
//! drop(tx);
//! // Two consumers drain one queue; each message reaches exactly one.
//! let total: i32 = std::thread::scope(|s| {
//!     let consumers: Vec<_> = (0..2)
//!         .map(|_| {
//!             let rx = rx.clone();
//!             s.spawn(move || {
//!                 let mut sum = 0;
//!                 while let Ok(v) = rx.recv() {
//!                     sum += v;
//!                 }
//!                 sum
//!             })
//!         })
//!         .collect();
//!     consumers.into_iter().map(|c| c.join().unwrap()).sum()
//! });
//! assert_eq!(total, 10);
//! ```

#![warn(missing_docs)]

pub mod channel;
