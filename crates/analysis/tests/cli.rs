//! End-to-end tests of the `csar-analysis` binary: exit-code contract
//! (0 clean / 1 violations / 2 usage errors), JSON output shape, the
//! seeded-violation fixture, and the model checker's interleaving floor.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/analysis -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_csar-analysis"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn csar-analysis");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lint_passes_on_the_workspace() {
    let (code, stdout, stderr) = run(&["lint"]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn lint_json_reports_ok_and_counts() {
    let (code, stdout, _) = run(&["lint", "--json"]);
    assert_eq!(code, Some(0));
    let doc = csar_store::Json::parse(&stdout).expect("valid JSON");
    assert_eq!(doc.get("ok").as_bool(), Some(true));
    assert!(doc.get("files_scanned").as_u64().unwrap_or(0) >= 80);
    assert!(doc.get("violations").is_array());
}

#[test]
fn lint_fails_on_a_seeded_violation() {
    let dir = std::env::temp_dir().join("csar_analysis_seeded");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("bad.rs"),
        "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    )
    .unwrap();
    let (code, stdout, _) = run(&["lint", "--root", dir.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("unsafe-safety"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_allowlist_waives_the_seeded_violation() {
    let dir = std::env::temp_dir().join("csar_analysis_waived");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("bad.rs"), "pub fn f() {\n    unsafe { g() }\n}\n").unwrap();
    std::fs::write(
        dir.join("analysis.toml"),
        "[lint.unsafe-safety]\nallow = [\"src/bad.rs:2\"]\n",
    )
    .unwrap();
    let (code, stdout, _) = run(&["lint", "--root", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_flags_unmarked_request_path_allocation_and_honours_the_marker() {
    let dir = std::env::temp_dir().join("csar_analysis_alloc_marker");
    let client = dir.join("crates/core/src/client");
    std::fs::create_dir_all(&client).unwrap();
    let seeded = client.join("seed.rs");
    std::fs::write(&seeded, "pub fn f() -> Vec<u8> {\n    data.to_vec()\n}\n").unwrap();
    let (code, stdout, _) = run(&["lint", "--root", dir.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("seed.rs:2: [no-alloc-request-path]"), "{stdout}");
    std::fs::write(
        &seeded,
        "pub fn f() -> Vec<u8> {\n    // alloc-ok: cold path\n    data.to_vec()\n}\n",
    )
    .unwrap();
    let (code, stdout, _) = run(&["lint", "--root", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_rejects_a_missing_explicit_config() {
    let (code, _, stderr) = run(&["lint", "--config", "/nonexistent/analysis.toml"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn check_passes_and_meets_the_interleaving_floor() {
    let (code, stdout, stderr) = run(&["check", "--json"]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");
    let doc = csar_store::Json::parse(&stdout).expect("valid JSON");
    assert_eq!(doc.get("ok").as_bool(), Some(true));
    assert!(
        doc.get("total_interleavings").as_u64().unwrap_or(0) >= 1_000,
        "interleaving floor not met: {stdout}"
    );
    // Both self-test scenarios must report their planted violations.
    let scenarios = doc.get("scenarios").as_array().expect("scenarios array");
    for name in ["selftest_descending_order_deadlocks", "selftest_nolock_write_hole"] {
        let s = scenarios
            .iter()
            .find(|s| s.get("name").as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing scenario {name}"));
        assert!(
            !s.get("violations").as_array().unwrap().is_empty(),
            "{name} found no violation"
        );
    }
}

#[test]
fn bad_flags_exit_with_usage_error() {
    for args in [
        &["lint", "--bogus"][..],
        &["check", "--max", "not-a-number"][..],
        &["frobnicate"][..],
        &[][..],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(2), "args {args:?}");
        assert!(stderr.contains("usage"), "args {args:?}: {stderr}");
    }
}
