//! The benchmark's own self-tests: simulated figures repeat exactly, the
//! seed reaches the generators, and the metric lists match
//! `BENCHMARK.json`.

use perfbench::{Params, Rep, Workload, END_TO_END, PER_LAYER};

/// Small enough for a debug build, large enough that every workload
/// flushes, compacts, splits and frees pages.
const ROWS: usize = 3_000;

/// Every figure of a repetition that comes from the simulated disk or a
/// counter, as exact bits.
fn exact_figures(rep: &Rep) -> Vec<(String, u64)> {
    let mut out = vec![
        ("read_sim_ms".to_string(), rep.read_sim_ms.to_bits()),
        ("read_probes".to_string(), rep.read_probes),
        ("bytes_written".to_string(), rep.bytes_written),
        ("bytes_deleted".to_string(), rep.bytes_deleted),
        ("space_amp".to_string(), rep.space_amp.to_bits()),
    ];
    for (i, ms) in rep.delete_sim_ms.iter().enumerate() {
        out.push((format!("delete_sim_ms[{i}]"), ms.to_bits()));
    }
    for (name, v) in &rep.counters {
        out.push((name.to_string(), v.to_bits()));
    }
    out
}

fn rep(w: Workload, seed: u64) -> Rep {
    let rep = w
        .run_rep(&Params { rows: ROWS, seed })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), rep.failures);
    assert!(rep.attempted > 0);
    rep
}

#[test]
fn simulated_figures_repeat_exactly() {
    for w in Workload::ALL {
        let a = rep(w, 11);
        let b = rep(w, 11);
        assert_eq!(exact_figures(&a), exact_figures(&b), "{}", w.name());
        assert!(!a.delete_sim_ms.is_empty() && a.delete_sim_ms.iter().all(|&ms| ms > 0.0));
        assert!(a.read_sim_ms > 0.0 && a.bytes_written > 0, "{}", w.name());
    }
}

#[test]
fn seed_reaches_the_generators() {
    for w in Workload::ALL {
        let a = rep(w, 11);
        let b = rep(w, 12);
        assert_ne!(
            a.rows_digest,
            b.rows_digest,
            "{}: rows ignore the seed",
            w.name()
        );
        // The retention window deletes the oldest keys, a key range the
        // seed does not move; the other two draw D at random.
        if w != Workload::RetentionWindow {
            assert_ne!(a.d_digest, b.d_digest, "{}: D ignores the seed", w.name());
        }
    }
}

#[test]
fn idle_layers_read_zero() {
    let idle: [(Workload, &[&str]); 3] = [
        (Workload::PaperVertical, &["lsm.", "wal."]),
        (
            Workload::LsmTombstone,
            &["btree.bd_", "hashidx.", "exec.", "wal.", "core."],
        ),
        (
            Workload::RetentionWindow,
            &["lsm.", "hashidx.", "exec.sort_D."],
        ),
    ];
    for (w, prefixes) in idle {
        let r = rep(w, 11);
        for (name, v) in &r.counters {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                assert_eq!(*v, 0.0, "{}: idle metric {name} = {v}", w.name());
            }
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name}: unit differs from {unit}");
    }
}
