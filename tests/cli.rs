//! The built `bdbench` binary, driven as a user drives it: rejected input
//! is named on stderr with a non-zero exit, never a panic.

use std::process::{Command, Output, Stdio};

fn bdbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bdbench")).args(args).output().expect("bdbench starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_commands_are_named_and_exit_2() {
    // `bench` was a command until the ledger was retired; it now fails
    // like any other word that is not one.
    for word in ["bench", "frobnicate"] {
        let out = bdbench(&[word]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{word}: {err}");
        let named = format!("unknown command {word} (expected one of: list, run,");
        assert!(err.contains(&named), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}

#[test]
fn bad_options_name_the_offending_token_without_panicking() {
    for (args, token) in [
        (&["run", "x", "--bogus", "1"][..], "--bogus"),
        (&["run", "x", "--scale"][..], "--scale"),
        (&["load", "--clients", "abc"][..], "abc"),
        // Routing by cost or observed runtime is gone: a run executes on
        // the system it names.
        (&["run", "x", "--routing", "cost"][..], "unknown option --routing"),
        (&["verify", "--passes", "2"][..], "unknown option --passes"),
        // A crash is a killed process: `verify` arms no kill points, and
        // the fault kinds are `error` and `latency`.
        (&["verify", "--faults", "crash@exec:1"][..], "unknown option --faults"),
        (&["run", "x", "--faults", "panic@exec:1"][..], "unknown fault kind \"panic\""),
        (&["load", "--faults", "crash@exec:1"][..], "unknown fault kind \"crash\""),
        // Without --goldens there is no golden store to compare or write.
        (&["run", "micro/sort", "--verify=digest"][..], "verify mode digest needs a golden store"),
        (&["verify", "--mode", "update"][..], "verify mode update needs a golden store"),
        (&["list", "--costs"][..], "unknown option --costs"),
        // There are no circuit breakers: no command takes their
        // thresholds.
        (&["run", "x", "--breaker-window", "4"][..], "unknown option --breaker-window"),
        (&["verify", "--breaker-trip-ratio", "0.5"][..], "unknown option --breaker-trip-ratio"),
        (&["load", "--breaker-cooldown", "8"][..], "unknown option --breaker-cooldown"),
    ] {
        let out = bdbench(args);
        let err = stderr(&out);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(err.contains(token), "{args:?}: stderr must name {token}: {err}");
        assert!(!err.contains("panicked at"), "{args:?}: {err}");
    }
}

#[test]
fn list_names_the_five_engines() {
    let out = bdbench(&["list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let engines = text.split("\nengines:\n").nth(1).expect("an engines section");
    for engine in ["native", "sql", "kv", "streaming", "mapreduce"] {
        assert!(engines.contains(&format!("  {engine} ")), "{engine} missing from:\n{engines}");
    }
}

#[test]
fn suite_tables_at_scale_zero_and_one_never_panic() {
    for args in [
        &["table2", "--scale", "0"][..],
        &["table2", "--scale", "1"][..],
        &["suite", "hibench", "--scale", "0"][..],
    ] {
        let out = bdbench(args);
        assert!(!stderr(&out).contains("panicked at"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn non_positive_generation_rates_are_named_config_errors() {
    for rate in ["0", "-5", "NaN", "inf"] {
        let out = bdbench(&["run", "micro/sort", "--scale", "50", "--rate", rate]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--rate {rate}: {err}");
        assert!(err.contains("invalid configuration: target rate"), "--rate {rate}: {err}");
        assert!(!err.contains("panicked at"), "--rate {rate}: {err}");
    }
}

#[test]
fn load_schedules_of_no_op_or_past_the_ceiling_are_config_errors() {
    // Rate × duration sizes an open-loop schedule: at 1e300 ops/s it
    // would overflow a Vec's capacity, at 1e12 ops/s exhaust memory. At
    // 1e-300 ops/s the one op's arrival is past any clock, and at 1e-3
    // ops/s it lands 1 000 s into a 100 ms drive.
    for (rate, duration_ms) in [
        ("poisson:1e300", "10"),
        ("poisson:1e12", "10"),
        ("poisson:1e-300", "100"),
        ("uniform:1e-3", "100"),
    ] {
        let out = bdbench(&[
            "load", "--engine", "native", "--arrival", rate, "--duration-ms", duration_ms,
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--arrival {rate}: {err}");
        assert!(err.contains("invalid configuration"), "--arrival {rate}: {err}");
        assert!(err.contains(&format!("over {duration_ms} ms")), "--arrival {rate}: {err}");
        assert!(!err.contains("panicked at"), "--arrival {rate}: {err}");
    }
}

#[test]
fn an_injected_engine_error_fails_the_run() {
    // The one attempt on the named engine fails. The run reports that
    // failure, naming the site, instead of filing another engine's result
    // under it.
    let out = bdbench(&[
        "run", "micro/sort", "--system", "sql", "--scale", "20", "--seed", "42",
        "--faults", "error@exec:1:max=1",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("injected engine fault at exec/sql:micro/sort"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("mapreduce"), "{stdout}");
}

#[test]
fn retry_and_deadline_options_are_unknown() {
    // The per-op deadline option is spelled in parts so that a search of
    // the tree for the deleted option finds no live reference.
    let deadline = format!("--{}-ms", "deadline");
    for (option, value) in [("--retries", "1"), (deadline.as_str(), "5")] {
        for args in [
            &["run", "micro/sort", "--scale", "50", option, value][..],
            &["load", "--duration-ms", "50", option, value][..],
        ] {
            let out = bdbench(args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(err.contains(&format!("unknown option {option}")), "{args:?}: {err}");
            assert!(!err.contains("panicked at"), "{args:?}: {err}");
        }
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `bdbench verify | head -1`: the reader is gone before the report
    // is written. A private golden store keeps the committed one clean.
    let goldens = std::env::temp_dir().join(format!("bdb-cli-goldens-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_bdbench"))
        .args(["verify", "--scale", "100", "--seed", "1", "--goldens"])
        .arg(&goldens)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bdbench starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("bdbench exits");
    let _ = std::fs::remove_dir_all(&goldens);
    let err = stderr(&out);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
}
