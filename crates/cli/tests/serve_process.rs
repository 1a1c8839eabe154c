//! `cubemm serve` as a process: hostile input on stdin is answered
//! in-band and never takes the service (or the jobs behind it) down.

use std::io::Write;
use std::process::{Command, Stdio};

use cubemm_simnet::json::{self, Json};

/// Pipes `lines` through `cubemm serve --workers 1`, asserts the drain
/// exits 0 with one JSON response per line, and returns the responses.
fn serve(lines: &[String]) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubemm serve");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in lines {
            writeln!(stdin, "{line}").expect("write request line");
        }
    } // EOF: the service drains and exits.
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let stdout = String::from_utf8(out.stdout).expect("UTF-8 responses");
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| json::parse(l).expect("each response is JSON"))
        .collect();
    assert_eq!(
        responses.len(),
        lines.len(),
        "one response per line: {stdout}"
    );
    responses
}

/// The one response for `id`, as `(status, error)`.
fn status_of(responses: &[Json], id: &str) -> (String, Option<String>) {
    let matching: Vec<&Json> = responses
        .iter()
        .filter(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .collect();
    assert_eq!(matching.len(), 1, "exactly one response for id {id:?}");
    let field = |key| {
        matching[0]
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    (field("status").expect("status field"), field("error"))
}

#[test]
fn deeply_nested_line_is_malformed_and_the_next_job_still_runs() {
    let responses = serve(&[
        "[".repeat(300_000),
        r#"{"id":"v","n":16,"p":16,"algo":"cannon"}"#.to_string(),
    ]);
    assert_eq!(status_of(&responses, "").0, "malformed");
    assert_eq!(status_of(&responses, "v").0, "ok");
}

#[test]
fn job_whose_operands_cannot_be_allocated_is_rejected_and_the_next_job_still_runs() {
    // 200000² f64 operands need 320 GB each. The allocator refuses a
    // single request beyond RAM + swap (Linux's default heuristic
    // overcommit), and the service must answer in-band, not abort.
    let responses = serve(&[
        r#"{"id":"big","algo":"cannon","n":200000,"p":4}"#.to_string(),
        r#"{"id":"ok","algo":"cannon","n":64,"p":4}"#.to_string(),
    ]);
    let (status, error) = status_of(&responses, "big");
    assert_eq!(status, "rejected");
    let error = error.expect("rejected carries an error");
    assert!(error.contains("320000000000 bytes"), "{error}");
    assert_eq!(status_of(&responses, "ok").0, "ok");
}
