//! The built `bdbench` binary, driven as a user drives it: rejected input
//! is named on stderr with a non-zero exit, never a panic.

use std::process::{Command, Output};

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
