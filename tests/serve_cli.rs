//! End-to-end tests of the `zbp-serve` binary's option handling: the
//! daemon takes its run options from the same environment variables
//! and the same validated flags as `zbp-cli`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zbp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The daemon command with the ambient ZBP_* environment cleared and
/// results rooted under `dir`.
fn serve(dir: &PathBuf, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_zbp-serve"));
    for var in [
        "ZBP_TRACE_LEN",
        "ZBP_SEED",
        "ZBP_WORKERS",
        "ZBP_CACHE_DIR",
        "ZBP_RESULTS_DIR",
        "ZBP_TRACE_STORE",
        "ZBP_FRESH_TRACES",
        "ZBP_TRACES",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("ZBP_RESULTS_DIR", dir).args(args).envs(env.iter().copied());
    cmd
}

#[test]
fn zbp_cache_dir_roots_the_daemon_cache() {
    let dir = tmpdir("cachedir");
    let cache = dir.join("env-cache");
    let mut child =
        serve(&dir, &["--addr", "127.0.0.1:0"], &[("ZBP_CACHE_DIR", cache.to_str().unwrap())])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("zbp-serve starts");
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let banner = rx.recv_timeout(Duration::from_secs(60));
    child.kill().unwrap();
    child.wait().unwrap();
    let banner = banner.expect("zbp-serve prints its listening banner");
    assert!(banner.contains("listening on"), "unexpected banner: {banner}");
    assert!(
        banner.contains(&format!("(cache: {})", cache.display())),
        "ZBP_CACHE_DIR must root the cache: {banner}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_workers_or_pool_are_rejected() {
    let dir = tmpdir("zero");
    for flag in ["--workers", "--pool"] {
        let out = serve(&dir, &["--addr", "127.0.0.1:0", flag, "0"], &[])
            .output()
            .expect("zbp-serve runs");
        assert!(!out.status.success(), "{flag} 0 must exit non-zero");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error") && err.contains(flag), "{flag} 0: unexpected stderr: {err}");
    }
    let out = serve(&dir, &["--addr", "127.0.0.1:0"], &[("ZBP_WORKERS", "0")])
        .output()
        .expect("zbp-serve runs");
    assert!(!out.status.success(), "ZBP_WORKERS=0 must exit non-zero");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_retired_lanes_flag_is_an_unknown_flag() {
    let dir = tmpdir("lanes");
    let out = serve(&dir, &["--addr", "127.0.0.1:0", "--lanes", "2"], &[])
        .output()
        .expect("zbp-serve runs");
    assert!(!out.status.success(), "--lanes must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--lanes"), "unexpected stderr: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
