//! `paper_vertical`: the paper's headline plan, out of cache.
//!
//! The paper-scaled table (unclustered) with a unique B-tree on A,
//! B-trees on B and C and a hash index on D, in 5 paper-MB of memory: a
//! 96-page pool against ~15.5k pages of data. One
//! `strategy::vertical_sort_merge` deletes 15% of the keys (D in random
//! order) from a fresh build. Point reads and range scans follow, then
//! refill inserts into the freed space and one maintenance cycle.

use bd_btree::Key;
use bd_core::{
    strategy, Database, DatabaseConfig, DbError, DbResult, IndexDef, Maintainer, MaintenanceConfig,
    TableId, Tuple,
};
use bd_storage::PAGE_SIZE;
use bd_workload::{TableSpec, Workload as Table};

use crate::trace::span;
use crate::{
    check_database, digest, fresh_row, heap_holds_exactly, mem_bytes, point_read, range_scan,
    rows_digest, scan_ok, space_amp, timed_ns, timed_s, Params, Rep, Rng, SCAN_WIDTH,
};

/// Memory in paper MB (scaled with the table): the paper's default.
pub const PAPER_MEM_MB: f64 = 5.0;

/// Share of the keys the statement deletes.
pub const DELETE_FRACTION: f64 = 0.15;

/// Attribute carrying the hash index (D).
const HASH_ATTR: usize = 3;

/// A freshly built table and its inputs.
pub struct Setup {
    /// The database.
    pub db: Database,
    /// The table.
    pub tid: TableId,
    /// The generated rows, in heap order.
    pub rows: Vec<Tuple>,
    /// The delete set, in random order.
    pub d: Vec<Key>,
}

/// Generate the rows and build the table, its indices and the delete set.
pub fn build(p: &Params) -> DbResult<Setup> {
    let spec = TableSpec::paper_scaled()
        .with_rows(p.rows)
        .with_seed(p.seed);
    let rows = span("bd-workload", "TableSpec::generate_rows", || {
        spec.generate_rows()
    });
    let mut db = Database::new(DatabaseConfig::with_total_memory(mem_bytes(
        PAPER_MEM_MB,
        p.rows,
    )));
    let tid = db.create_table("R", spec.schema());
    span("bd-core", "Database::insert (load)", || {
        rows.iter().try_for_each(|r| db.insert(tid, r).map(drop))
    })?;
    let table = Table {
        spec,
        tid,
        a_values: rows.iter().map(|r| r.attr(0)).collect(),
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
    span("bd-hashidx", "Database::create_hash_index", || {
        db.create_hash_index(tid, HASH_ATTR)
    })?;
    let d = span("bd-workload", "Workload::delete_set", || {
        table.delete_set(DELETE_FRACTION, p.seed.wrapping_add(1))
    });
    Ok(Setup { db, tid, rows, d })
}

/// One repetition.
pub fn run(p: &Params) -> DbResult<Rep> {
    let mut rep = Rep::default();
    let (setup, setup_s) = timed_s(|| build(p));
    let Setup {
        mut db,
        tid,
        rows,
        d,
    } = setup?;
    rep.setup_s = setup_s;
    rep.rows_digest = rows_digest(&rows);
    rep.d_digest = digest(d.iter().copied());
    let record_len = db.table(tid)?.schema.record_len;
    let pool = db.pool().clone();

    // The statement.
    let (outcome, delete_s) = timed_s(|| {
        span("bd-core", "strategy::vertical_sort_merge", || {
            strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1)
        })
    });
    let outcome = outcome?;
    let report = &outcome.report;
    rep.delete_s.push(delete_s);
    rep.delete_sim_ms.push(report.sim_ms());
    rep.add_disk(&report.io);
    rep.add_pool(&report.pool);
    rep.add_phases(&report.phases, report.sim_ms())
        .map_err(DbError::Audit)?;
    rep.bytes_written += report.io.pages_written * PAGE_SIZE as u64;
    rep.bytes_deleted += (outcome.deleted.len() * record_len) as u64;
    let mut victims = d.clone();
    victims.sort_unstable();
    let mut removed: Vec<Key> = outcome.deleted.iter().map(|(_, t)| t.attr(0)).collect();
    removed.sort_unstable();
    rep.check(removed == victims, || {
        "statement deleted the wrong rows".into()
    });

    let mut live: Vec<Key> = rows
        .iter()
        .map(|r| r.attr(0))
        .filter(|k| victims.binary_search(k).is_err())
        .collect();
    live.sort_unstable();

    // Reads from a cold cache: what the statement's sparse leaves cost.
    pool.clear_cache()?;
    let before = pool.disk_stats();
    let mut rng = Rng::new(p.seed);
    for _ in 0..p.n_reads() {
        let key = rows[rng.below(rows.len())].attr(0);
        let (got, ns) = timed_ns(|| point_read(&db, tid, key));
        rep.read_ns.push(ns);
        let ok = match got {
            Ok(Some(t)) => t.attr(0) == key && live.binary_search(&key).is_ok(),
            Ok(None) => live.binary_search(&key).is_err(),
            Err(_) => false,
        };
        rep.check(ok, || format!("point read of key {key}"));
    }
    rep.read_sim_ms += pool.disk_stats().since(&before).sim_ms;
    rep.read_probes += p.n_reads() as u64;
    for _ in 0..p.n_scans() {
        let lo = rows[rng.below(rows.len())].attr(0);
        let hi = lo + SCAN_WIDTH;
        let (got, ns) = timed_ns(|| range_scan(&db, tid, lo, hi));
        rep.scan_ns.push(ns);
        let ok = matches!(&got, Ok(got) if scan_ok(got, &live, lo, hi));
        rep.check(ok, || format!("range scan {lo}..={hi}"));
    }

    // Upkeep: one maintenance cycle, its closing flush included.
    let mut maintainer = Maintainer::new(MaintenanceConfig::default());
    let before = pool.disk_stats();
    let (cycle, maint_s) = timed_s(|| {
        span("bd-core", "Maintainer::run_cycle", || -> DbResult<()> {
            maintainer.run_cycle(&mut db)?;
            span("bd-storage", "BufferPool::flush_all", || pool.flush_all())?;
            Ok(())
        })
    });
    rep.check(cycle.is_ok(), || format!("maintenance cycle: {cycle:?}"));
    rep.maint_s.push(maint_s);
    rep.bytes_written += pool.disk_stats().since(&before).pages_written * PAGE_SIZE as u64;
    rep.add_maintenance(maintainer.report());

    // Refill into the freed space.
    let n_attrs = db.table(tid)?.schema.n_attrs;
    for i in 0..p.n_inserts() {
        let row = fresh_row(p.rows, i, n_attrs);
        let (got, ns) = timed_ns(|| span("bd-core", "Database::insert", || db.insert(tid, &row)));
        rep.insert_ns.push(ns);
        rep.check(got.is_ok(), || {
            format!("insert of {:?}: {got:?}", row.attrs)
        });
        live.push(row.attr(0));
    }

    rep.add_trees(db.table(tid)?);
    let in_use = rep.add_footprint(&pool);
    rep.space_amp = space_amp(in_use, live.len(), record_len);

    // Output check (untimed).
    check_database(&mut rep, &db, tid);
    let exact = heap_holds_exactly(&db, tid, &live);
    rep.check(matches!(exact, Ok(true)), || {
        "heap does not hold every survivor and refill exactly once".into()
    });
    Ok(rep)
}
