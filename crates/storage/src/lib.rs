//! # mwtj-storage
//!
//! Storage substrate for the multi-way theta-join reproduction: typed
//! values, schemas, tuples, a compact binary tuple codec (used to account
//! for every byte that crosses the simulated disk and network), in-memory
//! relations, and the sampling/statistics layer the paper's planner relies
//! on ("we run a sampling algorithm to collect rough data statistics",
//! §6.3).
//!
//! The paper's substrate is HDFS + Hadoop record readers; ours is an
//! in-memory store with the same *observable* properties: relations are
//! sequences of fixed-schema tuples, read in blocks, with sizes measured in
//! encoded bytes so the cost model (crate `mwtj-cost`) prices I/O the same
//! way the paper's Equations 1–5 do.

#![warn(missing_docs)]

pub mod codec;
pub mod csv;
pub mod error;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;
pub mod zones;

pub use codec::{decode_tuple, encode_tuple, encoded_len};
pub use csv::{parse_csv, to_csv};
pub use error::{Error, Result};
pub use relation::Relation;
pub use schema::{DataType, Field, Schema};
pub use stats::{ColumnStats, RelationStats, Sampler};
pub use tuple::Tuple;
pub use value::Value;
pub use zones::{BlockZones, ColumnZone, ZoneRange};
