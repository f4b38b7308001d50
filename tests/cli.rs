//! End-to-end tests of the `mine` CLI binary: each test drives the real
//! executable over a temp database file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mine_bin() -> PathBuf {
    // Integration tests run from target/debug/deps; the binary sits one
    // level up. CARGO_BIN_EXE_<name> is set because the bin belongs to
    // this package.
    PathBuf::from(env!("CARGO_BIN_EXE_mine"))
}

fn run(args: &[&str]) -> Output {
    Command::new(mine_bin())
        .args(args)
        .output()
        .expect("mine binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).to_string()
}

fn temp_db(tag: &str) -> (tempdir::Dir, String) {
    let dir = tempdir::Dir::new(tag);
    let db = dir.path.join("bank.json").display().to_string();
    (dir, db)
}

/// Minimal self-removing temp dir (no tempfile crate in the sanctioned
/// set).
mod tempdir {
    pub struct Dir {
        pub path: std::path::PathBuf,
    }

    impl Dir {
        pub fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "mine-cli-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::create_dir_all(&path).expect("temp dir creatable");
            Self { path }
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[test]
fn full_cli_workflow() {
    let (_dir, db) = temp_db("workflow");

    let out = run(&["init", &db]);
    assert!(out.status.success(), "{out:?}");

    let out = run(&[
        "add-choice",
        &db,
        "q1",
        "networking",
        "B",
        "A",
        "Which protocol is reliable?",
        "TCP",
        "UDP",
        "ICMP",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&[
        "add-tf",
        &db,
        "q2",
        "networking",
        "A",
        "true",
        "TCP",
        "is",
        "reliable",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&["add-exam", &db, "quiz", "Demo quiz", "q1", "q2"]);
    assert!(out.status.success(), "{out:?}");

    let out = run(&["list", &db]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("problems (2):"), "{text}");
    assert!(text.contains("multiple-choice"));
    assert!(text.contains("Demo quiz"));

    let out = run(&["search", &db, "reliable"]);
    let text = stdout(&out);
    assert!(text.contains("q1"), "{text}");
    assert!(text.contains("q2"), "{text}");

    let out = run(&["tree", &db, "q1"]);
    let text = stdout(&out);
    assert!(text.contains("MINE SCORM Meta-data"), "{text}");
    assert!(text.contains("Cognition: Comprehension (B)"), "{text}");

    let out = run(&["simulate", &db, "quiz", "44", "7"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("EXAM ANALYSIS REPORT"), "{text}");
    assert!(text.contains("class 44"), "{text}");
    assert!(text.contains("lights:"), "{text}");
}

#[test]
fn export_scorm_writes_a_package_tree() {
    let (dir, db) = temp_db("scorm");
    run(&["init", &db]);
    run(&["add-tf", &db, "q1", "s", "A", "true", "statement"]);
    run(&["add-exam", &db, "e", "Exported", "q1"]);
    let out_dir = dir.path.join("pkg").display().to_string();
    let out = run(&["export-scorm", &db, "e", &out_dir]);
    assert!(out.status.success(), "{out:?}");
    assert!(dir.path.join("pkg/imsmanifest.xml").is_file());
    assert!(dir.path.join("pkg/problems/q1/content.xml").is_file());
    assert!(dir.path.join("pkg/problems/q1/descriptor.xml").is_file());
    assert!(dir.path.join("pkg/exam/exam.xml").is_file());
    // The written tree reparses as a valid package.
    let package =
        mine_assessment::scorm::ContentPackage::read_from_dir(dir.path.join("pkg")).unwrap();
    assert_eq!(package.extract_problems().unwrap().len(), 1);
}

#[test]
fn cli_errors_are_reported_not_panicked() {
    let (_dir, db) = temp_db("errors");
    // Unknown command.
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing database.
    let out = run(&["list", "/nonexistent/db.json"]);
    assert!(!out.status.success());
    // Duplicate problem id.
    run(&["init", &db]);
    run(&["add-tf", &db, "q1", "s", "A", "true", "x"]);
    let out = run(&["add-tf", &db, "q1", "s", "A", "true", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("already exists"));
    // Bad cognition level.
    let out = run(&["add-tf", &db, "q2", "s", "Z", "true", "x"]);
    assert!(!out.status.success());
    // Exam referencing a missing problem.
    let out = run(&["add-exam", &db, "e", "T", "ghost"]);
    assert!(!out.status.success());
    // Simulate on an unknown exam.
    let out = run(&["simulate", &db, "nope", "10", "1"]);
    assert!(!out.status.success());
    // No args at all.
    let out = run(&[]);
    assert!(!out.status.success());
}

#[test]
fn thread_counts_are_validated_not_clamped() {
    let (_dir, db) = temp_db("threads");
    run(&["init", &db]);
    run(&["add-tf", &db, "q1", "s", "A", "true", "x"]);
    run(&["add-tf", &db, "q2", "s", "B", "false", "y"]);
    run(&["add-exam", &db, "e", "T", "q1", "q2"]);

    // Validation runs before anything touches the database, with a
    // typed error naming the offending source.
    for bad in ["0", "lots", "18446744073709551615", "4096"] {
        let out = run(&["batch-analyze", &db, "e", "1", "8", "1", "--threads", bad]);
        assert!(!out.status.success(), "--threads {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("--threads"), "error names the flag: {err}");
    }

    // The MINE_THREADS environment override is validated the same way…
    let out = Command::new(mine_bin())
        .args(["batch-analyze", &db, "e", "1", "8", "1"])
        .env("MINE_THREADS", "0")
        .output()
        .expect("mine binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("MINE_THREADS"));

    // …and an explicit --threads flag wins over a bad environment.
    let out = Command::new(mine_bin())
        .args(["batch-analyze", &db, "e", "1", "8", "1", "--threads", "2"])
        .env("MINE_THREADS", "0")
        .output()
        .expect("mine binary runs");
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("batch: 1 sittings"));

    // `serve` validates through the same path.
    let out = run(&["serve", &db, "--threads", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn batch_analyze_output_does_not_depend_on_thread_count() {
    let (_dir, db) = temp_db("batch");
    run(&["init", &db]);
    run(&["add-tf", &db, "q1", "s", "A", "true", "x"]);
    run(&["add-tf", &db, "q2", "s", "B", "false", "y"]);
    run(&["add-tf", &db, "q3", "s", "C", "true", "z"]);
    run(&["add-exam", &db, "e", "T", "q1", "q2", "q3"]);

    let batch = |threads: &str| {
        let out = run(&[
            "batch-analyze",
            &db,
            "e",
            "4",
            "30",
            "7",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{out:?}");
        stdout(&out)
    };
    let one = batch("1");
    assert_eq!(one, batch("2"), "thread count changed the output");
    assert!(
        one.contains("batch: 4 sittings of e (30 students each)"),
        "{one}"
    );
    assert!(one.contains("questions analyzed: 12"), "{one}");
    // Every sitting is analyzed afresh; there is no cache to report on.
    assert!(!one.contains("cache:"), "{one}");
}
