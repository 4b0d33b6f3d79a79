//! The `vine-fig` driver end to end: a named experiment writes its CSV
//! under `results/` of the working directory, and a missing or unknown
//! name lists the experiments and exits 2.

use std::process::Command;

fn vine_fig(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vine-fig"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("vine-fig runs")
}

#[test]
fn table2_writes_its_csv_and_unknown_names_exit_2() {
    // A fresh working directory, so the committed results/ is never
    // rewritten.
    let dir = std::env::temp_dir().join(format!("vine-fig-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let out = vine_fig(&dir, &["table2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TABLE II"), "{stdout}");
    let csv = std::fs::read_to_string(dir.join("results/table2.csv")).unwrap();
    assert!(csv.starts_with("Application,Input,Tasks"), "{csv}");
    assert_eq!(csv.lines().count(), 6, "header plus five workloads");

    for args in [&["no-such-figure"][..], &[]] {
        let out = vine_fig(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in ["table1", "fig15", "fig-watch"] {
            assert!(stderr.contains(name), "{args:?} lists {name}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
