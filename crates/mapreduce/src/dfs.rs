//! A model of the distributed file system: named files split into
//! blocks, blocks replicated across nodes, with data locality for map
//! scheduling and priced uploads.
//!
//! Blocks hold decoded tuples (host memory is our disk) but their
//! *accounted* size is the encoded byte length, so block counts and all
//! I/O pricing match what a real HDFS would see.

use crate::config::ClusterConfig;
use mwtj_storage::{BlockZones, Relation, Schema, Tuple};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one block of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// File-unique block ordinal.
    pub index: u32,
}

/// One replicated block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Rows stored in this block.
    pub rows: Arc<Vec<Tuple>>,
    /// Encoded byte size of the rows.
    pub bytes: usize,
    /// Nodes holding a replica.
    pub replicas: Vec<u32>,
    /// Per-column zone maps (min/max/null counts) computed at write
    /// time — the metadata map-side data skipping routes on.
    pub zones: Arc<BlockZones>,
}

/// A named DFS file: a schema and its blocks.
#[derive(Debug, Clone)]
pub struct DfsFile {
    /// Schema of the rows in the file.
    pub schema: Schema,
    /// The blocks, in order.
    pub blocks: Vec<Block>,
    /// Total encoded bytes.
    pub bytes: usize,
    /// Total rows.
    pub rows: usize,
}

impl DfsFile {
    /// Iterate all rows in block order (testing/oracle use; the engine
    /// reads per block).
    pub fn all_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.blocks.iter().flat_map(|b| b.rows.iter())
    }
}

/// Zone maps of one *base* file, kept for alias reuse: a `__q<N>_`
/// namespaced alias shares its base relation's rows, and the byte-driven
/// block split is deterministic, so the alias's blocks carry exactly the
/// base's zones. `rows`/`bytes` guard against reusing a stale entry.
#[derive(Debug)]
struct ZoneEntry {
    rows: usize,
    bytes: usize,
    zones: Vec<Arc<BlockZones>>,
}

/// The file system. Cheap to clone (shared interior).
#[derive(Debug, Clone, Default)]
pub struct Dfs {
    inner: Arc<RwLock<HashMap<String, Arc<DfsFile>>>>,
    /// Per-logical-name zone catalog (see [`ZoneEntry`]).
    zone_catalog: Arc<RwLock<HashMap<String, ZoneEntry>>>,
    zone_hits: Arc<AtomicU64>,
    zone_misses: Arc<AtomicU64>,
}

impl Dfs {
    /// Create an empty DFS.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Store a relation as a file named `name`, splitting into blocks of
    /// `config.params.block_bytes` and placing `replication` replicas of
    /// each block on distinct random nodes. Returns the simulated upload
    /// time in seconds (each datanode uploads from local disk in
    /// parallel, §6.3: "uploading is performed by each DataNode from
    /// their local disk").
    pub fn put_relation(&self, name: &str, rel: &Relation, config: &ClusterConfig) -> f64 {
        let mut rng = StdRng::seed_from_u64(hash_name(name));
        let block_bytes = config.params.block_bytes.max(1);
        let nodes: Vec<u32> = (0..config.nodes).collect();
        let arity = rel.schema().arity();
        // `__q<N>_` aliases are views of their base relation's rows, and
        // the byte-accumulation split below is deterministic, so their
        // blocks carry exactly the base's zone maps — reuse them instead
        // of rescanning every value. `__run<N>_` intermediates never
        // reuse: different runs can collide on a logical name while
        // holding different data, and a wrong zone map would prune live
        // pairs.
        let logical = logical_file_name(name);
        let reuse: Option<Vec<Arc<BlockZones>>> = if logical != name && name.starts_with("__q") {
            let found = self.zone_catalog.read().get(logical).and_then(|e| {
                (e.rows == rel.len() && e.bytes == rel.encoded_bytes()).then(|| e.zones.clone())
            });
            if found.is_some() {
                self.zone_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.zone_misses.fetch_add(1, Ordering::Relaxed);
            }
            found
        } else {
            None
        };
        let mut blocks: Vec<Block> = Vec::new();
        let mut cur: Vec<Tuple> = Vec::new();
        let mut cur_bytes = 0usize;
        for row in rel.rows() {
            let len = row.encoded_len();
            if cur_bytes + len > block_bytes && !cur.is_empty() {
                let z = reuse.as_ref().and_then(|v| v.get(blocks.len()));
                blocks.push(Self::seal_block(
                    &mut cur,
                    &mut cur_bytes,
                    &nodes,
                    config,
                    &mut rng,
                    arity,
                    z,
                ));
            }
            cur_bytes += len;
            cur.push(row.clone());
        }
        if !cur.is_empty() || blocks.is_empty() {
            let z = reuse.as_ref().and_then(|v| v.get(blocks.len()));
            blocks.push(Self::seal_block(
                &mut cur,
                &mut cur_bytes,
                &nodes,
                config,
                &mut rng,
                arity,
                z,
            ));
        }
        // Base loads (re)register their zones under the logical name;
        // reloading a relation overwrites, so stale maps cannot outlive
        // the data they describe.
        if logical == name {
            self.zone_catalog.write().insert(
                name.to_string(),
                ZoneEntry {
                    rows: rel.len(),
                    bytes: rel.encoded_bytes(),
                    zones: blocks.iter().map(|b| Arc::clone(&b.zones)).collect(),
                },
            );
        }
        let file = DfsFile {
            schema: rel.schema().clone(),
            blocks,
            bytes: rel.encoded_bytes(),
            rows: rel.len(),
        };
        self.inner.write().insert(name.to_string(), Arc::new(file));
        // Parallel upload by all datanodes; the pipeline write rate
        // already includes replication (TestDFSIO semantics).
        let per_node_bytes = rel.encoded_bytes() as f64 / config.nodes.max(1) as f64;
        per_node_bytes / config.hardware.disk_write_bps
    }

    fn seal_block(
        cur: &mut Vec<Tuple>,
        cur_bytes: &mut usize,
        nodes: &[u32],
        config: &ClusterConfig,
        rng: &mut impl Rng,
        arity: usize,
        reuse: Option<&Arc<BlockZones>>,
    ) -> Block {
        let k = (config.params.replication as usize).min(nodes.len().max(1));
        let mut choice: Vec<u32> = nodes.to_vec();
        choice.shuffle(rng);
        choice.truncate(k);
        let rows = Arc::new(std::mem::take(cur));
        let zones = match reuse {
            // Belt and braces: a reused map must describe a block of
            // exactly this shape.
            Some(z) if z.rows == rows.len() as u64 => Arc::clone(z),
            _ => Arc::new(BlockZones::collect(&rows, arity)),
        };
        Block {
            rows,
            bytes: std::mem::take(cur_bytes),
            replicas: choice,
            zones,
        }
    }

    /// Zone-catalog reuse counters: `(hits, misses)` across alias loads.
    pub fn zone_cache_stats(&self) -> (u64, u64) {
        (
            self.zone_hits.load(Ordering::Relaxed),
            self.zone_misses.load(Ordering::Relaxed),
        )
    }

    /// Fetch a file.
    pub fn get(&self, name: &str) -> Option<Arc<DfsFile>> {
        self.inner.read().get(name).cloned()
    }

    /// Remove a file (e.g. a consumed intermediate), returning whether it
    /// existed.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().remove(name).is_some()
    }

    /// All file names.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Read a whole file back into a relation (final-result collection).
    pub fn read_relation(&self, name: &str) -> Option<Relation> {
        let f = self.get(name)?;
        let rows: Vec<Tuple> = f.all_rows().cloned().collect();
        Some(Relation::from_rows_unchecked(f.schema.clone(), rows))
    }
}

fn hash_name(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// The logical view of a DFS file name: per-run namespace prefixes —
/// `__q<N>_` alias instances of one SQL run, `__run<N>_` intermediate
/// files — are transient renamings of the same logical data. Block
/// seeding and the zone catalog key on the logical name so namespaced
/// runs behave (and share metadata) exactly like their base relations.
pub fn logical_file_name(file: &str) -> &str {
    for prefix in ["__q", "__run"] {
        if let Some(after) = file.strip_prefix(prefix) {
            let digits = after.chars().take_while(|c| c.is_ascii_digit()).count();
            if digits > 0 {
                if let Some(rest) = after[digits..].strip_prefix('_') {
                    return rest;
                }
            }
        }
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::{tuple, DataType};

    fn rel(n: usize) -> Relation {
        let schema = Schema::from_pairs("t", &[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = (0..n)
            .map(|i| tuple![i as i64, format!("row-{i:06}")])
            .collect();
        Relation::from_rows_unchecked(schema, rows)
    }

    #[test]
    fn blocks_respect_size_and_hold_all_rows() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(20_000);
        let t = dfs.put_relation("t", &r, &cfg);
        assert!(t > 0.0);
        let f = dfs.get("t").unwrap();
        assert_eq!(f.rows, 20_000);
        assert_eq!(f.bytes, r.encoded_bytes());
        assert!(f.blocks.len() > 1, "expected multiple blocks");
        for b in &f.blocks {
            assert!(b.bytes <= cfg.params.block_bytes * 2, "oversized block");
            assert_eq!(
                b.replicas.len(),
                cfg.params.replication as usize,
                "replication factor"
            );
            let mut sorted = b.replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), b.replicas.len(), "replicas on distinct nodes");
        }
        let total: usize = f.blocks.iter().map(|b| b.rows.len()).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn empty_relation_gets_one_empty_block() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(0);
        dfs.put_relation("e", &r, &cfg);
        let f = dfs.get("e").unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.rows, 0);
    }

    #[test]
    fn read_back_roundtrips() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(1234);
        dfs.put_relation("t", &r, &cfg);
        let back = dfs.read_relation("t").unwrap();
        assert_eq!(back.len(), r.len());
        assert_eq!(back.sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn upload_time_scales_with_bytes() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let t_small = dfs.put_relation("s", &rel(1000), &cfg);
        let t_big = dfs.put_relation("b", &rel(10_000), &cfg);
        assert!(t_big > t_small * 5.0, "{t_big} vs {t_small}");
    }

    #[test]
    fn blocks_carry_zone_maps() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("t", &rel(5_000), &cfg);
        let f = dfs.get("t").unwrap();
        let mut seen = 0usize;
        for b in &f.blocks {
            assert_eq!(b.zones.rows, b.rows.len() as u64);
            assert_eq!(b.zones.columns.len(), 2);
            // Column 0 is 0..5000 split in row order: each block's range
            // covers exactly its rows.
            match b.zones.column(0).range {
                mwtj_storage::ZoneRange::Range { min, max } => {
                    assert_eq!(min as usize, seen);
                    assert_eq!(max as usize, seen + b.rows.len() - 1);
                }
                other => panic!("expected range, got {other:?}"),
            }
            // Column 1 is strings: never prunable.
            assert_eq!(b.zones.column(1).range, mwtj_storage::ZoneRange::Unbounded);
            seen += b.rows.len();
        }
    }

    #[test]
    fn alias_reuses_base_zone_maps() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(20_000);
        dfs.put_relation("t", &r, &cfg);
        dfs.put_relation("__q7_t", &r, &cfg);
        assert_eq!(dfs.zone_cache_stats(), (1, 0));
        let base = dfs.get("t").unwrap();
        let alias = dfs.get("__q7_t").unwrap();
        assert_eq!(base.blocks.len(), alias.blocks.len());
        for (b, a) in base.blocks.iter().zip(&alias.blocks) {
            assert!(Arc::ptr_eq(&b.zones, &a.zones), "zones not shared");
        }
        // `__run` intermediates never reuse (logical-name collisions
        // across runs could carry different data).
        dfs.put_relation("__run1_t", &r, &cfg);
        assert_eq!(dfs.zone_cache_stats(), (1, 0));
        let run = dfs.get("__run1_t").unwrap();
        for (b, a) in base.blocks.iter().zip(&run.blocks) {
            assert!(!Arc::ptr_eq(&b.zones, &a.zones));
            assert_eq!(*b.zones, *a.zones, "fresh maps still equal");
        }
        // An alias of missing/changed data misses the catalog.
        dfs.put_relation("__q8_other", &rel(10), &cfg);
        assert_eq!(dfs.zone_cache_stats(), (1, 1));
    }

    #[test]
    fn logical_names_strip_namespaces() {
        assert_eq!(logical_file_name("__q12_trades"), "trades");
        assert_eq!(logical_file_name("__run3_mid"), "mid");
        assert_eq!(logical_file_name("trades"), "trades");
        assert_eq!(logical_file_name("__qx_t"), "__qx_t");
    }

    #[test]
    fn list_and_remove() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("a", &rel(1), &cfg);
        dfs.put_relation("b", &rel(1), &cfg);
        assert_eq!(dfs.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(dfs.remove("a"));
        assert!(!dfs.remove("a"));
        assert_eq!(dfs.list(), vec!["b".to_string()]);
    }
}
