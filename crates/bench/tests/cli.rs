//! The `hierdrl-bench` executable's surface: subcommand dispatch, named
//! CLI errors, and the shared write-or-merge path.

use hierdrl_exp::report::{BenchReport, FleetSize};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty scratch directory for one test (tests run in parallel).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the executable with `dir` as its working directory.
fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hierdrl-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn hierdrl-bench")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .expect("list scratch dir")
        .next()
        .is_none()
}

#[test]
fn scale_out_then_merge_keeps_two_cells_with_fleet_size() {
    let dir = scratch("scale-out-merge");
    let tiny = ["scale", "--m", "40", "--jobs", "800"];
    for flag in ["--out", "--merge"] {
        let out = bench(&dir, &[&tiny[..], &[flag, "A.json"]].concat());
        assert!(out.status.success(), "{flag}: {}", stderr(&out));
    }
    let text = std::fs::read_to_string(dir.join("A.json")).expect("artifact written");
    let report: BenchReport = serde_json::from_str(&text).expect("artifact parses");
    assert_eq!(report.cells_total, 2);
    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        assert_eq!(cell.fleet_size, FleetSize::fixed(40), "{}", cell.id);
    }
}

#[test]
fn unknown_fault_name_exits_2_and_writes_nothing() {
    let dir = scratch("unknown-fault");
    let out = bench(
        &dir,
        &["chaos", "--faults", "meteor-strike", "--out", "c.json"],
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("meteor-strike"), "{}", stderr(&out));
    assert!(is_empty(&dir), "a rejected run must write nothing");
}

#[test]
fn repeated_list_item_exits_2_and_writes_nothing() {
    // A repeated drift would build its cells twice under one id.
    let dir = scratch("repeated-drift");
    let args: Vec<&str> = "drift --quick --jobs 200 --drifts rate-step,rate-step --out x.json"
        .split(' ')
        .collect();
    let out = bench(&dir, &args);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--drifts: \"rate-step\" is repeated"),
        "{}",
        stderr(&out)
    );
    assert!(is_empty(&dir), "a rejected run must write nothing");
}

#[test]
fn drl_cells_on_too_few_servers_exit_2_and_write_nothing() {
    // One server cannot fill the DRL state's two groups: the learned cells
    // fail by name instead of panicking inside the state encoder.
    let dir = scratch("too-few-servers");
    let args: Vec<&str> = "chaos --quick --m 1 --jobs 200 --threads 1 --out c.json"
        .split(' ')
        .collect();
    let out = bench(&dir, &args);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unit 0: more groups (2) than servers (1)"),
        "{}",
        stderr(&out)
    );
    assert!(is_empty(&dir), "a failed run must write nothing");
}

#[test]
fn zero_servers_or_too_many_clusters_exit_2_and_write_nothing() {
    // Neither fleet shape can exist (no servers; a cluster without a
    // server): each must fail by name before a `Topology` constructor's
    // assertion can fire.
    let dir = scratch("bad-fleet-shape");
    let cases: [(&str, &str); 2] = [
        (
            "table1 --quick --m 0 --threads 1 --out t.json",
            "--m must be at least 1",
        ),
        (
            "multicluster --quick --clusters 20 --m 10 --out m.json",
            "--clusters 20 exceeds --m 10",
        ),
    ];
    for (command, needle) in cases {
        let args: Vec<&str> = command.split(' ').collect();
        let out = bench(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{command}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "{command}: {}", stderr(&out));
        assert!(
            is_empty(&dir),
            "{command}: a rejected run must write nothing"
        );
    }
}

#[test]
fn unknown_or_missing_subcommand_exits_2_and_lists_subcommands() {
    let dir = scratch("unknown-subcommand");
    let cases: [&[&str]; 2] = [&["frobnicate"], &[]];
    for args in cases {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        for name in ["table1", "scale", "qbench", "perf_gate"] {
            assert!(err.contains(name), "{args:?}: {err}");
        }
    }
}

#[test]
fn out_together_with_merge_is_rejected() {
    let dir = scratch("out-and-merge");
    let args = [
        "scale", "--m", "40", "--jobs", "800", "--out", "a.json", "--merge", "b.json",
    ];
    let out = bench(&dir, &args);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("exclusive"), "{}", stderr(&out));
    assert!(is_empty(&dir));
}
