//! Sharded serving that survives a hostile network.
//!
//! This crate stretches the repository's single-node serving layer
//! ([`repose_service`]) across shard boundaries: a coordinator scatters
//! each query to shard workers that own disjoint subsets of the data,
//! hits stream back one frame per completed partition, and the
//! coordinator's merged k-th-distance bound is broadcast back out so a
//! hit found on one shard prunes every other — the in-process
//! shared-threshold design ([`repose_distance::SharedTopK`]) carried over
//! an actual wire protocol.
//! The answer stays **bitwise exact** (same distance multiset, same
//! tie-breaks) as the single-node path whenever every shard answers, and
//! degrades *visibly* (never silently) when shards fail past their retry
//! budgets.
//!
//! The pieces, bottom-up:
//!
//! * [`protocol`] — the length-prefixed, checksummed binary frames
//!   ([`Message`]) everything speaks; f64 distances travel as IEEE bit
//!   patterns so exactness survives serialization.
//! * [`fault`] — [`NetFaultPlan`], deterministic network fault injection
//!   (drop/delay/duplicate/reorder/partition/crash) armed in code at
//!   named sites; the network instantiation of the durability layer's
//!   fault-plan type.
//! * [`link`] — [`Link`], the link core: fault-site resolution, the six
//!   fault arms, partition/crash bookkeeping and the [`NetStats`]
//!   counters, written once under every transport.
//! * [`transport`] — the [`Transport`] trait and the in-process
//!   [`Loopback`]: real serialization on every send, one channel per
//!   node, the link core deciding each frame's fate.
//! * [`worker`] — [`ShardWorker`], one node's message loop: scatter-side
//!   query execution with mid-flight bound folding, WAL-backed writes,
//!   leader→follower delta-log replication (log-before-ack), heartbeats,
//!   and follower self-promotion.
//! * [`coordinator`] — [`ShardCluster`], the client-facing object:
//!   scatter-gather with per-shard deadlines, jittered-backoff retries
//!   that alternate leader and replica, write failover, and honest
//!   degradation accounting ([`ShardOutcome`]).

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod fault;
pub mod link;
pub mod protocol;
pub mod transport;
pub mod worker;

pub use coordinator::{
    ShardCluster, ShardClusterConfig, ShardOutcome, WriteFailed, WriteOutcome,
};
pub use fault::{NetFault, NetFaultPlan};
pub use link::{Delivery, Envelope, Link, NetStats};
pub use protocol::{Message, ProtocolError, RefusalReason};
pub use transport::{Loopback, NodeId, Transport};
pub use worker::{Role, ShardWorker, WorkerConfig};
