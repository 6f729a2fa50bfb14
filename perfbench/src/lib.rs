//! The repository benchmark: three single-threaded closed-loop workloads
//! over the bulk-delete library, each measured end to end (wall clock and
//! the paper's simulated disk) and, in a separate traced run, layer by
//! layer. See `README.md` in this directory for why each workload exists.

pub mod lsm_tombstone;
pub mod paper_vertical;
pub mod retention_window;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use bd_btree::Key;
use bd_core::{Database, DbError, DbResult, MaintenanceReport, PhaseRow, Table, TableId, Tuple};
use bd_storage::{BufferPool, DiskStats, PoolStats, PAGE_SIZE};

/// Rows at the paper's full scale; memory budgets scale by `rows / this`.
pub const PAPER_ROWS: usize = 1_000_000;

/// The benchmark's table size: the repository's default scale, 1/10 of
/// the paper's.
pub const BENCH_ROWS: usize = 100_000;

/// Scale a memory size the paper quotes in MB down to `rows` rows, as the
/// repository's experiment harness does.
pub fn mem_bytes(paper_mb: f64, rows: usize) -> usize {
    let scale = rows as f64 / PAPER_ROWS as f64;
    ((paper_mb * 1024.0 * 1024.0 * scale) as usize).max(64 * 1024)
}

/// What one repetition runs on: the table size and the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Rows in the table.
    pub rows: usize,
    /// Seed of every generated input (rows, delete set, read keys).
    pub seed: u64,
}

impl Params {
    /// Point reads per repetition (scaled down with the table).
    pub fn n_reads(&self) -> usize {
        (self.rows / 5).max(100)
    }

    /// Range scans per repetition.
    pub fn n_scans(&self) -> usize {
        (self.rows / 50).max(40)
    }

    /// Refill inserts per repetition, where the workload does not fix it.
    pub fn n_inserts(&self) -> usize {
        (self.rows / 50).max(50)
    }
}

/// Width of a range scan in key units: generated keys are multiples of
/// 10, so a scan covers about 100 original keys.
pub const SCAN_WIDTH: Key = 990;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's vertical sort/merge plan, out of cache.
    PaperVertical,
    /// Tombstone bulk delete on the delete-aware LSM engine.
    LsmTombstone,
    /// Durable sliding-window deletes with upkeep and refill, in cache.
    RetentionWindow,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperVertical,
        Workload::LsmTombstone,
        Workload::RetentionWindow,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperVertical => "paper_vertical",
            Workload::LsmTombstone => "lsm_tombstone",
            Workload::RetentionWindow => "retention_window",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds of one set-up alone (the structures are dropped).
    pub fn setup_s(self, p: &Params) -> DbResult<f64> {
        let (built, s) = timed_s(|| match self {
            Workload::PaperVertical => paper_vertical::build(p).map(drop),
            Workload::LsmTombstone => lsm_tombstone::build(p).map(drop),
            Workload::RetentionWindow => retention_window::build(p).map(drop),
        });
        built.map(|()| s)
    }

    /// Run one repetition: a fresh set-up, the timed section, then the
    /// untimed output check.
    pub fn run_rep(self, p: &Params) -> DbResult<Rep> {
        match self {
            Workload::PaperVertical => paper_vertical::run(p),
            Workload::LsmTombstone => lsm_tombstone::run(p),
            Workload::RetentionWindow => retention_window::run(p),
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds to generate the rows and build every structure.
    pub setup_s: f64,
    /// Wall seconds of each bulk-delete statement.
    pub delete_s: Vec<f64>,
    /// Simulated ms of each bulk-delete statement.
    pub delete_sim_ms: Vec<f64>,
    /// Wall seconds of each upkeep pass that followed a statement.
    pub maint_s: Vec<f64>,
    /// Point-read latencies in ns.
    pub read_ns: Vec<u64>,
    /// Range-scan latencies in ns.
    pub scan_ns: Vec<u64>,
    /// Insert latencies in ns.
    pub insert_ns: Vec<u64>,
    /// Simulated ms of the cold-cache point reads, summed.
    pub read_sim_ms: f64,
    /// Point reads `read_sim_ms` covers.
    pub read_probes: u64,
    /// Bytes the statements and their upkeep wrote to the simulated disk.
    pub bytes_written: u64,
    /// Bytes of the rows the statements deleted.
    pub bytes_deleted: u64,
    /// In-use bytes per live-row byte at the end of the repetition.
    pub space_amp: f64,
    /// Operations run (statements, upkeep passes, reads, scans, inserts,
    /// output checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// First failures, for the error report.
    pub failures: Vec<String>,
    /// Per-layer counters (names from [`PER_LAYER`]).
    pub counters: BTreeMap<&'static str, f64>,
    /// Digest of the generated rows.
    pub rows_digest: u64,
    /// Digest of the generated delete set(s).
    pub d_digest: u64,
}

impl Rep {
    /// Count one operation; `ok == false` counts it as failed with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Add `v` to the per-layer counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        *self.counters.entry(name).or_default() += v;
    }

    /// Record a statement's disk counters under `storage.*`.
    pub fn add_disk(&mut self, io: &DiskStats) {
        self.add("storage.random_reads", io.random_reads as f64);
        self.add("storage.sequential_reads", io.sequential_reads as f64);
        self.add("storage.random_writes", io.random_writes as f64);
        self.add("storage.sequential_writes", io.sequential_writes as f64);
        self.add("storage.pages_read", io.pages_read as f64);
        self.add("storage.pages_written", io.pages_written as f64);
    }

    /// Record a statement's buffer-pool counters under `storage.pool_*`.
    pub fn add_pool(&mut self, s: &PoolStats) {
        self.add("storage.pool_hits", s.hits as f64);
        self.add("storage.pool_misses", s.misses as f64);
        self.add("storage.pool_prefetched", s.prefetched as f64);
        self.add("storage.pool_writebacks", s.writebacks as f64);
    }

    /// Attribute a vertical plan's phase rows to their layers; whatever
    /// the rows do not cover is the statement's closing flush, so the
    /// rows plus `core.flush.sim_ms` sum to the statement. Fails on a row
    /// no metric covers, or rows that add up to more than the statement.
    pub fn add_phases(&mut self, phases: &[PhaseRow], statement_sim_ms: f64) -> Result<(), String> {
        let mut covered = 0.0;
        for row in phases {
            let (sim, ios, random) = match phase_metrics(&row.name) {
                Some(names) => names,
                None => return Err(format!("unattributed phase row `{}`", row.name)),
            };
            self.add(sim, row.io.sim_ms);
            self.add(ios, row.io.total_ios() as f64);
            if let Some(random) = random {
                self.add(random, row.io.total_random() as f64);
            }
            covered += row.io.sim_ms;
        }
        let flush = statement_sim_ms - covered;
        if flush < -1e-9 * statement_sim_ms {
            return Err(format!(
                "phase rows cover {covered} sim ms of a {statement_sim_ms} sim ms statement"
            ));
        }
        self.add("core.flush.sim_ms", flush);
        Ok(())
    }

    /// Record a maintenance daemon's cumulative counters.
    pub fn add_maintenance(&mut self, m: &MaintenanceReport) {
        self.add("core.maintain.pages_reclaimed", m.pages_reclaimed as f64);
        self.add("core.maintain.pack_pages_freed", m.pack_pages_freed as f64);
        self.add(
            "core.maintain.heap_pages_released",
            m.heap_pages_released as f64,
        );
    }

    /// Record the height of `I_A` and the leaf counters of every B-tree
    /// of `table`.
    pub fn add_trees(&mut self, table: &Table) {
        let height = table.index_on(0).map_or(0, |i| i.tree.height());
        self.add("btree.height", height as f64);
        for index in &table.indices {
            self.add("btree.leaves_freed", index.tree.stats().leaves_freed as f64);
            self.add("btree.leaf_splits", index.tree.stats().leaf_splits as f64);
        }
    }

    /// Record the page footprint of `pool` under `storage.pages_in_use`
    /// and `storage.file_pages`, and return the in-use page count.
    pub fn add_footprint(&mut self, pool: &BufferPool) -> usize {
        let cat = pool.catalog();
        let in_use = cat.len() - cat.n_free();
        self.counters.insert("storage.pages_in_use", in_use as f64);
        let file = pool.with_disk(|d| d.num_pages());
        self.counters.insert("storage.file_pages", file as f64);
        in_use
    }
}

/// `(sim_ms, ios, random)` metric names of a vertical-plan phase row.
fn phase_metrics(phase: &str) -> Option<(&'static str, &'static str, Option<&'static str>)> {
    Some(if phase == "sort(D)" {
        ("exec.sort_D.sim_ms", "exec.sort_D.ios", None)
    } else if phase.starts_with("bd R ") {
        ("core.bd_R.sim_ms", "core.bd_R.ios", None)
    } else if phase.starts_with("bd I_A ") {
        (
            "btree.bd_I_A.sim_ms",
            "btree.bd_I_A.ios",
            Some("btree.bd_I_A.random"),
        )
    } else if phase.starts_with("bd I_B ") {
        (
            "btree.bd_I_B.sim_ms",
            "btree.bd_I_B.ios",
            Some("btree.bd_I_B.random"),
        )
    } else if phase.starts_with("bd I_C ") {
        (
            "btree.bd_I_C.sim_ms",
            "btree.bd_I_C.ios",
            Some("btree.bd_I_C.random"),
        )
    } else if phase.starts_with("H_D ") {
        ("hashidx.H_D.sim_ms", "hashidx.H_D.ios", None)
    } else {
        return None;
    })
}

/// Pool counters accumulated since `before` (the WAL driver does not
/// reset them the way `measure` does).
pub fn pool_since(now: &PoolStats, before: &PoolStats) -> PoolStats {
    PoolStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        prefetched: now.prefetched - before.prefetched,
        writebacks: now.writebacks - before.writebacks,
    }
}

/// In-use bytes per byte of live rows.
pub fn space_amp(pages_in_use: usize, live_rows: usize, record_len: usize) -> f64 {
    (pages_in_use * PAGE_SIZE) as f64 / (live_rows * record_len) as f64
}

/// Run `f`, returning its result and its wall time in ns.
pub fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Run `f`, returning its result and its wall time in seconds.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// SplitMix64: the benchmark's own generator for read, scan and refill
/// inputs, so they follow the seed without touching the library's.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `seed`, offset so that it does not replay the
    /// library's own seeded streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a sequence of keys.
pub fn digest(keys: impl IntoIterator<Item = Key>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of every attribute of `rows`, in order.
pub fn rows_digest(rows: &[Tuple]) -> u64 {
    digest(rows.iter().flat_map(|t| t.attrs.iter().copied()))
}

/// Fresh row number `i` of the refill stream. Generated values are
/// multiples of 10 below `rows * 10`, so `(rows + i) * 10 + 2a` collides
/// with no live value on any attribute.
pub fn fresh_row(rows: usize, i: usize, n_attrs: usize) -> Tuple {
    let base = ((rows + i) as Key) * 10;
    Tuple::new((0..n_attrs as Key).map(|a| base + a * 2).collect())
}

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("delete_s", "s"),
    ("delete_sim_min", "sim_min"),
    ("maint_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("read_sim_ms", "sim_ms"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layers with spans, as named in the per-layer self-time metrics.
pub const LAYERS: [&str; 8] = [
    "bench",
    "bd-workload",
    "bd-storage",
    "bd-btree",
    "bd-hashidx",
    "bd-core",
    "bd-lsm",
    "bd-wal",
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("workload.generate_s", "s"),
    ("storage.random_reads", "count"),
    ("storage.sequential_reads", "count"),
    ("storage.random_writes", "count"),
    ("storage.sequential_writes", "count"),
    ("storage.pages_read", "count"),
    ("storage.pages_written", "count"),
    ("storage.pool_hits", "count"),
    ("storage.pool_misses", "count"),
    ("storage.pool_prefetched", "count"),
    ("storage.pool_writebacks", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.heap_get_us", "us"),
    ("storage.pages_in_use", "count"),
    ("storage.file_pages", "count"),
    ("exec.sort_D.sim_ms", "sim_ms"),
    ("exec.sort_D.ios", "count"),
    ("btree.bulk_load_s", "s"),
    ("btree.bd_I_A.sim_ms", "sim_ms"),
    ("btree.bd_I_A.ios", "count"),
    ("btree.bd_I_A.random", "count"),
    ("btree.bd_I_B.sim_ms", "sim_ms"),
    ("btree.bd_I_B.ios", "count"),
    ("btree.bd_I_B.random", "count"),
    ("btree.bd_I_C.sim_ms", "sim_ms"),
    ("btree.bd_I_C.ios", "count"),
    ("btree.bd_I_C.random", "count"),
    ("btree.search_us", "us"),
    ("btree.range_us", "us"),
    ("btree.height", "count"),
    ("btree.leaves_freed", "count"),
    ("btree.leaf_splits", "count"),
    ("hashidx.build_s", "s"),
    ("hashidx.H_D.sim_ms", "sim_ms"),
    ("hashidx.H_D.ios", "count"),
    ("core.bd_R.sim_ms", "sim_ms"),
    ("core.bd_R.ios", "count"),
    ("core.flush.sim_ms", "sim_ms"),
    ("core.maintain.cycle_s", "s"),
    ("core.maintain.pages_reclaimed", "count"),
    ("core.maintain.pack_pages_freed", "count"),
    ("core.maintain.heap_pages_released", "count"),
    ("lsm.bulk_load_s", "s"),
    ("lsm.probe_s", "s"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.tombstones_left", "count"),
    ("lsm.runs", "count"),
    ("lsm.levels", "count"),
    ("lsm.pages", "count"),
    ("lsm.lookup_us", "us"),
    ("lsm.purge_s", "s"),
    ("lsm.purge_pages_written", "count"),
    ("wal.log_bytes_per_row", "B/row"),
    ("wal.records", "count"),
    ("wal.maintenance_cycle_s", "s"),
    ("trace.delete_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.overhead_delete_s", "s"),
    ("trace.overhead_setup_s", "s"),
    ("trace.spans", "count"),
    ("layer.bench.self_s", "s"),
    ("layer.bd-workload.self_s", "s"),
    ("layer.bd-storage.self_s", "s"),
    ("layer.bd-btree.self_s", "s"),
    ("layer.bd-hashidx.self_s", "s"),
    ("layer.bd-core.self_s", "s"),
    ("layer.bd-lsm.self_s", "s"),
    ("layer.bd-wal.self_s", "s"),
    ("layer.bench.calls", "count"),
    ("layer.bd-workload.calls", "count"),
    ("layer.bd-storage.calls", "count"),
    ("layer.bd-btree.calls", "count"),
    ("layer.bd-hashidx.calls", "count"),
    ("layer.bd-core.calls", "count"),
    ("layer.bd-lsm.calls", "count"),
    ("layer.bd-wal.calls", "count"),
];

/// A point read through the unique index on A: index search plus row
/// fetch. `None` when the key is not live.
pub fn point_read(db: &Database, tid: TableId, key: Key) -> DbResult<Option<Tuple>> {
    trace::span("bench", "point read", || {
        let rids = trace::span("bd-btree", "Database::lookup", || db.lookup(tid, 0, key))?;
        match rids.as_slice() {
            [] => Ok(None),
            [rid] => trace::span("bd-storage", "Database::get", || db.get(tid, *rid)).map(Some),
            _ => Err(DbError::Audit(format!(
                "unique key {key} has {} rows",
                rids.len()
            ))),
        }
    })
}

/// A range scan over `lo..=hi` on A: one index range, then a fetch per
/// entry, in key order.
pub fn range_scan(db: &Database, tid: TableId, lo: Key, hi: Key) -> DbResult<Vec<Tuple>> {
    trace::span("bench", "range scan", || {
        let tree = &db
            .table(tid)?
            .index_on(0)
            .ok_or(DbError::NoProbeIndex { attr: 0 })?
            .tree;
        let entries = trace::span("bd-btree", "BTree::range", || tree.range(lo, hi))?;
        entries
            .into_iter()
            .map(|(_, rid)| trace::span("bd-storage", "Database::get", || db.get(tid, rid)))
            .collect()
    })
}

/// Whether `rows` are exactly the live keys of `lo..=hi` from the sorted
/// live set, in key order.
pub fn scan_ok(rows: &[Tuple], live_sorted: &[Key], lo: Key, hi: Key) -> bool {
    let start = live_sorted.partition_point(|&k| k < lo);
    let end = live_sorted.partition_point(|&k| k <= hi);
    rows.len() == end - start
        && rows
            .iter()
            .zip(&live_sorted[start..end])
            .all(|(t, &k)| t.attr(0) == k)
}

/// The record's own check of a [`Database`] table: the library's
/// consistency check (which asserts) plus the page-catalog audit.
pub fn check_database(rep: &mut Rep, db: &Database, tid: TableId) {
    let consistent =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.check_consistency(tid)));
    rep.check(matches!(consistent, Ok(Ok(()))), || {
        "check_consistency failed".into()
    });
    let catalog = bd_core::audit_catalog(db, tid);
    rep.check(matches!(&catalog, Ok(r) if r.is_clean()), || {
        format!("audit_catalog: {catalog:?}")
    });
}

/// Whether the heap holds every key of `expect_sorted` exactly once and
/// nothing else.
pub fn heap_holds_exactly(db: &Database, tid: TableId, expect_sorted: &[Key]) -> DbResult<bool> {
    let table = db.table(tid)?;
    let mut keys: Vec<Key> = table
        .heap
        .dump()?
        .iter()
        .map(|(_, bytes)| table.schema.attr_of(bytes, 0))
        .collect();
    keys.sort_unstable();
    Ok(keys == expect_sorted)
}
