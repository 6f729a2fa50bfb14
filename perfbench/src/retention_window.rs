//! `retention_window`: the paper's §1 sliding window, durable and in
//! cache.
//!
//! A table with unique `I_A` and plain `I_B`, `I_C` in a pool that holds
//! every page. Each round deletes the oldest eighth of the live keys (a
//! key range; D arrives sorted) through the WAL driver, runs one durable
//! maintenance cycle, refills as many fresh rows with `Database::insert`,
//! then runs point reads and range scans.

use std::collections::VecDeque;

use bd_btree::Key;
use bd_core::{
    Database, DatabaseConfig, DbResult, IndexDef, Maintainer, MaintenanceConfig, TableId, Tuple,
};
use bd_storage::PAGE_SIZE;
use bd_wal::driver::{run_bulk_delete, run_maintenance_cycle, CrashInjector};
use bd_wal::LogManager;
use bd_workload::{TableSpec, Workload as Table};

use crate::trace::{self, span};
use crate::{
    check_database, digest, fresh_row, heap_holds_exactly, point_read, pool_since, range_scan,
    rows_digest, scan_ok, space_amp, timed_ns, timed_s, Params, Rep, Rng, SCAN_WIDTH,
};

/// Total memory: a 75 MiB pool (19.2k pages) over the ~15.5k pages the
/// table and its indices use, so every access after set-up hits the cache.
pub const TOTAL_MEMORY: usize = 100 << 20;

/// Each round deletes `1 / WINDOW_DIV` of the live keys.
pub const WINDOW_DIV: usize = 8;

/// Rounds per repetition: half the table turns over.
pub const ROUNDS: usize = 4;

/// A freshly built table and its inputs.
pub struct Setup {
    /// The database.
    pub db: Database,
    /// The table.
    pub tid: TableId,
    /// The generated rows, in heap order.
    pub rows: Vec<Tuple>,
}

/// Generate the rows and build the table and its indices.
pub fn build(p: &Params) -> DbResult<Setup> {
    let spec = TableSpec::paper_scaled()
        .with_rows(p.rows)
        .with_seed(p.seed);
    let rows = span("bd-workload", "TableSpec::generate_rows", || {
        spec.generate_rows()
    });
    let mut db = Database::new(DatabaseConfig::with_total_memory(TOTAL_MEMORY));
    let tid = db.create_table("R", spec.schema());
    span("bd-core", "Database::insert (load)", || {
        rows.iter().try_for_each(|r| db.insert(tid, r).map(drop))
    })?;
    let table = Table {
        spec,
        tid,
        a_values: Vec::new(),
    };
    for def in [
        IndexDef::secondary(0).unique(),
        IndexDef::secondary(1),
        IndexDef::secondary(2),
    ] {
        span("bd-btree", "Workload::attach_index", || {
            table.attach_index(&mut db, def)
        })?;
    }
    Ok(Setup { db, tid, rows })
}

/// One repetition: a fresh build, then [`ROUNDS`] rounds.
pub fn run(p: &Params) -> DbResult<Rep> {
    let mut rep = Rep::default();
    let (setup, setup_s) = timed_s(|| build(p));
    let Setup { mut db, tid, rows } = setup?;
    rep.setup_s = setup_s;
    rep.rows_digest = rows_digest(&rows);
    let schema = db.table(tid)?.schema;
    let pool = db.pool().clone();
    let log = LogManager::new();
    let mut maintainer = Maintainer::new(MaintenanceConfig::default());

    // Live keys, oldest first: the original keys ascending, then refills.
    let mut sorted: Vec<Key> = rows.iter().map(|r| r.attr(0)).collect();
    sorted.sort_unstable();
    let mut live: VecDeque<Key> = sorted.iter().copied().collect();
    let window = p.rows / WINDOW_DIV;
    let mut rng = Rng::new(p.seed);
    let mut refilled = 0;
    let mut d_digest = Vec::new();
    let mut log_bytes = 0;
    let mut deleted_rows = 0;

    for _ in 0..ROUNDS {
        // The statement: the oldest window, durably.
        let d: Vec<Key> = live.drain(..window).collect();
        d_digest.extend(d.iter().copied());
        let (disk0, pool0) = (pool.disk_stats(), pool.pool_stats());
        let (bytes0, records0) = (log.byte_len(), log.len());
        let (deleted, delete_s) = timed_s(|| {
            span("bd-wal", "driver::run_bulk_delete", || {
                run_bulk_delete(&mut db, tid, 0, &d, &log, CrashInjector::none())
            })
        });
        let deleted = deleted.map_err(|e| bd_core::DbError::Audit(format!("wal delete: {e}")))?;
        let io = pool.disk_stats().since(&disk0);
        rep.delete_s.push(delete_s);
        rep.delete_sim_ms.push(io.sim_ms);
        rep.add_disk(&io);
        rep.add_pool(&pool_since(&pool.pool_stats(), &pool0));
        rep.add("wal.records", (log.len() - records0) as f64);
        log_bytes += log.byte_len() - bytes0;
        deleted_rows += deleted;
        rep.bytes_written += io.pages_written * PAGE_SIZE as u64;
        rep.bytes_deleted += (deleted * schema.record_len) as u64;
        rep.check(deleted == d.len(), || {
            format!("statement deleted {deleted} of {} keys", d.len())
        });

        // Upkeep: one durable maintenance cycle.
        let disk0 = pool.disk_stats();
        let (cycle, maint_s) = timed_s(|| {
            span("bd-wal", "driver::run_maintenance_cycle", || {
                run_maintenance_cycle(&mut db, tid, &log, &mut maintainer)
            })
        });
        rep.check(cycle.is_ok(), || format!("maintenance cycle: {cycle:?}"));
        rep.maint_s.push(maint_s);
        rep.bytes_written += pool.disk_stats().since(&disk0).pages_written * PAGE_SIZE as u64;

        // Refill as many fresh rows as were deleted.
        for _ in 0..window {
            let row = fresh_row(p.rows, refilled, schema.n_attrs);
            refilled += 1;
            let (got, ns) =
                timed_ns(|| span("bd-core", "Database::insert", || db.insert(tid, &row)));
            rep.insert_ns.push(ns);
            rep.check(got.is_ok(), || {
                format!("insert of {:?}: {got:?}", row.attrs)
            });
            live.push_back(row.attr(0));
        }

        // Reads of original keys: live exactly when not yet windowed out.
        let oldest = *live.front().expect("the window never empties the table");
        let live_sorted = live.make_contiguous();
        for _ in 0..p.n_reads() {
            let key = sorted[rng.below(sorted.len())];
            let (got, ns) = timed_ns(|| point_read(&db, tid, key));
            rep.read_ns.push(ns);
            let ok = match got {
                Ok(Some(t)) => t.attr(0) == key && key >= oldest,
                Ok(None) => key < oldest,
                Err(_) => false,
            };
            rep.check(ok, || format!("point read of key {key}"));
        }
        for _ in 0..p.n_scans() {
            let lo = sorted[rng.below(sorted.len())];
            let hi = lo + SCAN_WIDTH;
            let (got, ns) = timed_ns(|| range_scan(&db, tid, lo, hi));
            rep.scan_ns.push(ns);
            let ok = matches!(&got, Ok(got) if scan_ok(got, live_sorted, lo, hi));
            rep.check(ok, || format!("range scan {lo}..={hi}"));
        }
    }
    rep.d_digest = digest(d_digest);
    rep.add(
        "wal.log_bytes_per_row",
        log_bytes as f64 / deleted_rows as f64,
    );
    rep.add_maintenance(maintainer.report());
    rep.add_trees(db.table(tid)?);
    let in_use = rep.add_footprint(&pool);
    rep.space_amp = space_amp(in_use, live.len(), schema.record_len);

    // The timed reads hit the cache and cost no simulated I/O, so the
    // simulated read cost is an untimed probe of live keys from a cold
    // cache at the end state, as many as one round reads. (The pool holds
    // the whole table, so a longer probe measures a warming cache.)
    let probes = p.n_reads();
    let live_keys = live.make_contiguous();
    pool.clear_cache()?;
    let before = pool.disk_stats();
    let found = trace::untraced(|| -> DbResult<usize> {
        let mut found = 0;
        for _ in 0..probes {
            let key = live_keys[rng.below(live_keys.len())];
            found += usize::from(point_read(&db, tid, key)?.is_some_and(|t| t.attr(0) == key));
        }
        Ok(found)
    })?;
    rep.check(found == probes, || {
        format!("cold probe found {found} of {probes} live keys")
    });
    rep.read_sim_ms += pool.disk_stats().since(&before).sim_ms;
    rep.read_probes += probes as u64;

    // Output check (untimed).
    check_database(&mut rep, &db, tid);
    let mut expect: Vec<Key> = live.iter().copied().collect();
    expect.sort_unstable();
    let exact = heap_holds_exactly(&db, tid, &expect);
    rep.check(matches!(exact, Ok(true)), || {
        "heap does not hold every live key exactly once".into()
    });
    Ok(rep)
}
