//! # VelocityOLAP (VOLAP)
//!
//! A Rust reproduction of **"VOLAP: A Scalable Distributed System for
//! Real-Time OLAP with High Velocity Data"** (Dehne, Robillard,
//! Rau-Chaplin, Burke — IEEE CLUSTER 2016).
//!
//! VOLAP is a distributed, in-memory, real-time OLAP system: data items
//! carry hierarchical dimensions (TPC-DS style), queries aggregate any
//! hierarchy subtree in every dimension, and the system scales horizontally
//! by partitioning data into shards — each a concurrent **Hilbert PDC
//! tree** — spread across workers, routed to by servers holding a local
//! image of the shard map, coordinated through a Zookeeper-like store, and
//! kept balanced by a background manager that splits and migrates shards
//! without interrupting service.
//!
//! ## Crate map
//!
//! | layer | crate |
//! |---|---|
//! | compact Hilbert indices | `volap_hilbert` |
//! | hierarchies, MBR/MDS geometry | `volap_dims` |
//! | PDC-tree family (shard stores) | `volap_tree` |
//! | workload generation | `volap_data` |
//! | message fabric (ZeroMQ substitute) | `volap_net` |
//! | coordination store (Zookeeper substitute) | `volap_coord` |
//! | observability core (metrics, events, staleness) | `volap_obs` |
//! | the distributed system | this crate |
//!
//! ## Quickstart
//!
//! ```
//! use volap::{Cluster, VolapConfig};
//! use volap_dims::{Schema, QueryBox};
//! use volap_data::DataGen;
//!
//! let mut cfg = VolapConfig::new(Schema::tpcds());
//! cfg.workers = 2;
//! cfg.servers = 1;
//! let cluster = Cluster::start(cfg);
//! let client = cluster.client();
//!
//! let mut gen = DataGen::new(cluster.schema(), 42, 1.5);
//! for item in gen.items(100) {
//!     client.insert(&item).unwrap();
//! }
//! let (agg, _shards) = client.query(&QueryBox::all(cluster.schema())).unwrap();
//! assert_eq!(agg.count, 100);
//! cluster.shutdown();
//! ```

pub mod cluster;
pub mod config;
pub mod freshness;
pub mod image;
pub mod manager;
pub mod plan;
pub mod proto;
pub mod server;
pub mod server_index;
mod util;
pub mod wire;
pub mod worker;

pub use cluster::{ClientSession, Cluster};
pub use config::VolapConfig;
pub use freshness::FreshnessSim;
pub use image::{ImageStore, ShardRecord};
pub use manager::{balance_round, BalanceStats, ManagerHandle};
pub use plan::{QueryPlan, ShardExec, WorkerExec};
pub use proto::{Request, Response};
pub use server::ServerHandle;
pub use server_index::ServerIndex;
pub use volap_obs::{Obs, ObsConfig, Snapshot};
pub use worker::WorkerHandle;
