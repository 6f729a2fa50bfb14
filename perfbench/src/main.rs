//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process: one warm-up repetition (discarded),
//! then timed repetitions for `--seconds` (at least [`MIN_REPS`]), each
//! followed by its output check. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` every per-layer metric, from
//! repetitions that alternate traced and untraced so the tracing overhead
//! can be reported. A human-readable report goes to stderr; the last line
//! of stdout is one JSON object.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::stats::{beyond, median, peak_rss_mib, percentile};
use perfbench::trace::{self, SelfTime};
use perfbench::{Params, Rep, Workload, BENCH_ROWS, END_TO_END, LAYERS, PER_LAYER};

/// Timed repetitions at least, whatever `--seconds` allows.
const MIN_REPS: usize = 2;

/// Set-ups timed at least, for the `setup_s` median.
const MIN_SETUPS: usize = 5;

/// Samples a reported tail percentile must have beyond it.
const MIN_BEYOND_P99: usize = 10;

const USAGE: &str = "usage: perfbench --workload <paper_vertical|lsm_tombstone|retention_window> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        if flags.insert(pair[0].as_str(), pair[1].as_str()).is_some() {
            return Err(format!("{} given twice", pair[0]));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let workload = take("--workload")?;
    let workload = Workload::from_name(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// A timed repetition and whether it was traced.
struct Timed {
    traced: bool,
    rep: Rep,
}

/// Run the workload and print its metrics. `Ok(false)` when an output
/// check failed (the result is still printed, marked incorrect).
fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let p = Params {
        rows: BENCH_ROWS,
        seed: args.seed,
    };
    eprintln!(
        "perfbench: {} seed {} rows {} for {} s{}",
        wl.name(),
        p.seed,
        p.rows,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let err = |e: bd_core::DbError| format!("{}: {e}", wl.name());

    let warm = wl.run_rep(&p).map_err(err)?;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut failures = warm.failures;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Timed> = Vec::new();
    loop {
        let have_both = !args.trace || reps.iter().any(|t| !t.traced);
        if reps.len() >= MIN_REPS && have_both && start.elapsed() >= budget {
            break;
        }
        let traced = args.trace && reps.len().is_multiple_of(2);
        trace::set_run(reps.len() as u32);
        trace::set_enabled(traced);
        let rep = wl.run_rep(&p);
        trace::set_enabled(false);
        let rep = rep.map_err(err)?;
        attempted += rep.attempted;
        failed += rep.failed;
        failures.extend(rep.failures.iter().cloned());
        reps.push(Timed { traced, rep });
    }
    eprintln!(
        "perfbench: {} timed repetitions in {:.1} s",
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    for f in failures.iter().take(8) {
        eprintln!("perfbench: FAILED {f}");
    }

    let metrics = if args.trace {
        per_layer(&reps)?
    } else {
        let mut setups: Vec<f64> = reps.iter().map(|t| t.rep.setup_s).collect();
        while setups.len() < MIN_SETUPS {
            setups.push(wl.setup_s(&p).map_err(err)?);
        }
        let reps: Vec<&Rep> = reps.iter().map(|t| &t.rep).collect();
        end_to_end(&reps, &setups)?
    };
    if let Some((name, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("{name} is {v}"));
    }
    let correct = failed == 0;
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// A metric value with its unit.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn flat<T: Copy>(reps: &[&Rep], field: impl Fn(&Rep) -> &Vec<T>) -> Vec<T> {
    reps.iter().flat_map(|r| field(r).iter().copied()).collect()
}

/// Median and tail latency in µs: each repetition's exact p50 and p99,
/// then the median over repetitions, so one repetition disturbed by
/// another process cannot move the figure. Every repetition's p99 must
/// rest on at least [`MIN_BEYOND_P99`] samples beyond it.
fn latency(name: &str, reps: &[&Rep], field: fn(&Rep) -> &Vec<u64>) -> Result<(f64, f64), String> {
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for rep in reps {
        let samples = field(rep);
        let n_beyond = beyond(samples, 0.99);
        if n_beyond < MIN_BEYOND_P99 {
            return Err(format!(
                "{name}: p99 of {} samples rests on {n_beyond} beyond it, fewer than {MIN_BEYOND_P99}",
                samples.len()
            ));
        }
        p50.push(percentile(samples, 0.5) as f64 / 1e3);
        p99.push(percentile(samples, 0.99) as f64 / 1e3);
    }
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "  {name:<8} {} repetitions x {} samples; p50 µs {}; p99 µs {}",
        reps.len(),
        field(reps[0]).len(),
        show(&p50),
        show(&p99)
    );
    Ok((median(&p50), median(&p99)))
}

fn end_to_end(reps: &[&Rep], setups: &[f64]) -> Result<Metrics, String> {
    let deletes = flat(reps, |r| &r.delete_s);
    let maints = flat(reps, |r| &r.maint_s);
    eprintln!(
        "  samples: {} set-ups, {} statements, {} upkeep passes",
        setups.len(),
        deletes.len(),
        maints.len()
    );
    let (read_p50, read_p99) = latency("read", reps, |r| &r.read_ns)?;
    let (scan_p50, scan_p99) = latency("scan", reps, |r| &r.scan_ns)?;
    let (insert_p50, insert_p99) = latency("insert", reps, |r| &r.insert_ns)?;
    let sum = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(r)).sum::<f64>();
    let by_name: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median(setups)),
        ("delete_s", median(&deletes)),
        (
            "delete_sim_min",
            median(&flat(reps, |r| &r.delete_sim_ms)) / 60_000.0,
        ),
        ("maint_s", median(&maints)),
        ("read_p50_us", read_p50),
        ("read_p99_us", read_p99),
        ("scan_p50_us", scan_p50),
        ("scan_p99_us", scan_p99),
        ("insert_p50_us", insert_p50),
        ("insert_p99_us", insert_p99),
        (
            "read_sim_ms",
            sum(|r| r.read_sim_ms) / sum(|r| r.read_probes as f64),
        ),
        (
            "write_amp",
            sum(|r| r.bytes_written as f64) / sum(|r| r.bytes_deleted as f64),
        ),
        (
            "space_amp",
            median(&reps.iter().map(|r| r.space_amp).collect::<Vec<_>>()),
        ),
        (
            "peak_rss_mb",
            peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        ),
    ]);
    Ok(END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, by_name[name]))
        .collect())
}

fn per_layer(reps: &[Timed]) -> Result<Metrics, String> {
    let spans = trace::take();
    let traced: Vec<&Rep> = reps.iter().filter(|t| t.traced).map(|t| &t.rep).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|t| !t.traced).map(|t| &t.rep).collect();
    let n = traced.len() as f64;
    let last = traced.last().ok_or("no traced repetition")?;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (&name, &v) in &last.counters {
        m.insert(name, v);
    }
    let pins = [
        "storage.pool_hits",
        "storage.pool_misses",
        "storage.pool_prefetched",
    ]
    .iter()
    .map(|k| m.get(k).copied().unwrap_or(0.0))
    .sum::<f64>();
    if pins > 0.0 {
        m.insert("storage.pool_hit_rate", m["storage.pool_hits"] / pins);
    }
    // Calls made once or a few times per repetition: seconds per rep.
    let per_rep_s =
        |call: &str| trace::durations(&spans, call).iter().sum::<u64>() as f64 / n / 1e9;
    // Calls made many times per repetition: the median call, in µs.
    let median_us = |call: &str| {
        let d: Vec<f64> = trace::durations(&spans, call)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    for (metric, call) in [
        ("workload.generate_s", "TableSpec::generate_rows"),
        ("btree.bulk_load_s", "Workload::attach_index"),
        ("hashidx.build_s", "Database::create_hash_index"),
        ("core.maintain.cycle_s", "Maintainer::run_cycle"),
        ("lsm.bulk_load_s", "LsmTable::bulk_load"),
        ("lsm.probe_s", "TableEngine::lookup (probe D)"),
        ("lsm.purge_s", "LsmTable::purge_all"),
        ("wal.maintenance_cycle_s", "driver::run_maintenance_cycle"),
    ] {
        m.insert(metric, per_rep_s(call));
    }
    for (metric, call) in [
        ("storage.heap_get_us", "Database::get"),
        ("btree.search_us", "Database::lookup"),
        ("btree.range_us", "BTree::range"),
        ("lsm.lookup_us", "LsmTable::lookup"),
    ] {
        m.insert(metric, median_us(call));
    }

    let med = |reps: &[&Rep], f: fn(&Rep) -> Vec<f64>| -> f64 {
        median(&reps.iter().flat_map(|r| f(r)).collect::<Vec<_>>())
    };
    let delete_traced = med(&traced, |r| r.delete_s.clone());
    let setup_traced = med(&traced, |r| vec![r.setup_s]);
    m.insert("trace.delete_s", delete_traced);
    m.insert("trace.setup_s", setup_traced);
    m.insert(
        "trace.overhead_delete_s",
        delete_traced - med(&untraced, |r| r.delete_s.clone()),
    );
    m.insert(
        "trace.overhead_setup_s",
        setup_traced - med(&untraced, |r| vec![r.setup_s]),
    );
    m.insert("trace.spans", spans.len() as f64 / n);

    let times = trace::self_times(&spans);
    print_self_times(&times, n);
    for layer in LAYERS {
        let t = times.iter().filter(|((l, _), _)| *l == layer).fold(
            SelfTime::default(),
            |acc, (_, t)| SelfTime {
                calls: acc.calls + t.calls,
                total_ns: acc.total_ns + t.total_ns,
                self_ns: acc.self_ns + t.self_ns,
            },
        );
        m.insert(layer_metric(layer, "self_s"), t.self_ns as f64 / n / 1e9);
        m.insert(layer_metric(layer, "calls"), t.calls as f64 / n);
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect())
}

/// The `PER_LAYER` name of a per-layer self-time or call-count metric.
fn layer_metric(layer: &str, what: &str) -> &'static str {
    let name = format!("layer.{layer}.{what}");
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| *m == name)
        .expect("every layer has its metrics listed")
}

fn print_self_times(times: &BTreeMap<(&str, &str), SelfTime>, n: f64) {
    eprintln!("  per-layer self time, per repetition:");
    eprintln!(
        "  {:<12} {:<32} {:>10} {:>12} {:>12}",
        "layer", "call", "calls", "total s", "self s"
    );
    for ((layer, call), t) in times {
        eprintln!(
            "  {layer:<12} {call:<32} {:>10.0} {:>12.6} {:>12.6}",
            t.calls as f64 / n,
            t.total_ns as f64 / n / 1e9,
            t.self_ns as f64 / n / 1e9
        );
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, unit, v) in metrics {
        eprintln!("  {name:<36} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
