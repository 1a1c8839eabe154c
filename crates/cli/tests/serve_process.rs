//! `cubemm serve` as a process: hostile input on stdin is answered
//! in-band and never takes the service (or the jobs behind it) down.

use std::io::Write;
use std::process::{Command, Stdio};

use cubemm_simnet::json::{self, Json};

#[test]
fn deeply_nested_line_is_malformed_and_the_next_job_still_runs() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubemm serve");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        writeln!(stdin, "{}", "[".repeat(300_000)).expect("write deep line");
        writeln!(stdin, r#"{{"id":"v","n":16,"p":16,"algo":"cannon"}}"#).expect("write valid job");
    } // EOF: the service drains and exits.
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let stdout = String::from_utf8(out.stdout).expect("UTF-8 responses");
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| json::parse(l).expect("each response is JSON"))
        .collect();
    assert_eq!(responses.len(), 2, "one response per line: {stdout}");
    let status_of = |id: &str| {
        let matching: Vec<&str> = responses
            .iter()
            .filter(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .filter_map(|r| r.get("status").and_then(Json::as_str))
            .collect();
        assert_eq!(matching.len(), 1, "exactly one response for id {id:?}");
        matching[0].to_string()
    };
    assert_eq!(status_of(""), "malformed");
    assert_eq!(status_of("v"), "ok");
}
