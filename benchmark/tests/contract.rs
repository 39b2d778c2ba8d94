//! `BENCHMARK.json` and the harness must name the same workloads and
//! metrics, and both must stay inside the benchmark contract's limits.

use std::process::Command;
use xproj_testkit::{parse_json, Json};

fn listed() -> Vec<Vec<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_xproj-ledger"))
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success(), "--list failed");
    String::from_utf8(out.stdout)
        .expect("--list prints UTF-8")
        .lines()
        .map(|l| l.splitn(3, ' ').map(str::to_string).collect())
        .collect()
}

fn manifest() -> Json {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string '{key}' in {j:?}"))
}

fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array '{key}'"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn list_prints_exactly_what_the_manifest_declares() {
    let m = manifest();
    let mut expected = Vec::new();
    for w in entries(&m, "workloads") {
        expected.push(vec![
            "workload".to_string(),
            text(w, "name").to_string(),
            text(w, "why").to_string(),
        ]);
    }
    for e in entries(&m, "end_to_end") {
        let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
        let rest = format!("{} {} {bound}", text(e, "unit"), text(e, "better"));
        expected.push(vec![
            "end_to_end".to_string(),
            text(e, "name").to_string(),
            rest,
        ]);
    }
    for e in entries(&m, "per_layer") {
        let rest = format!("{} {}", text(e, "unit"), text(e, "better"));
        expected.push(vec![
            "per_layer".to_string(),
            text(e, "name").to_string(),
            rest,
        ]);
    }
    assert_eq!(listed(), expected);
}

#[test]
fn manifest_stays_inside_the_contract() {
    let m = manifest();
    let Json::Obj(members) = &m else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = entries(&m, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&m, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let run_seconds = m
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = entries(&m, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    // 4 + 22 runs per workload, each a window plus one set-up (2 s
    // warm-up and change), and two builds: all inside the driver's 3420 s.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        runs * (run_seconds + 3.0) + 2.0 * 150.0 <= 3420.0,
        "run_seconds leaves no room in the driver's budget"
    );

    let mut names = Vec::new();
    for w in workloads {
        names.push(text(w, "name"));
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {}",
            text(w, "name")
        );
    }
    let end_to_end = entries(&m, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for e in end_to_end {
        names.push(text(e, "name"));
        assert!(is_unit(text(e, "unit")), "unit of {}", text(e, "name"));
        assert!(["lower", "higher"].contains(&text(e, "better")));
        let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", text(e, "name"));
    }
    let setup = end_to_end
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|e| e.get("bound")?.as_f64())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest),
        "setup_s carries the largest bound"
    );

    let per_layer = entries(&m, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for e in per_layer {
        names.push(text(e, "name"));
        assert!(is_unit(text(e, "unit")), "unit of {}", text(e, "name"));
        assert!(["lower", "higher"].contains(&text(e, "better")));
    }
    for name in &names {
        assert!(is_name(name), "name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}
