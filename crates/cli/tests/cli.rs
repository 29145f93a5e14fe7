//! End-to-end tests of the `scd` binary: generate → info → tune → detect,
//! exercising the composed pipeline exactly as a user would.

use std::path::PathBuf;
use std::process::Command;

fn scd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scd"))
}

fn temp_trace(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("scd-cli-test-{name}-{}.bin", std::process::id()));
    p
}

fn run(cmd: &mut Command) -> (String, String, bool) {
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn generate_info_detect_pipeline() {
    let trace = temp_trace("pipeline");
    let trace_s = trace.to_str().unwrap();

    // Generate half an hour with a strong DoS at interval 12.
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    // The victim IP is announced; remember it.
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    // Info reports plausible stats.
    let (stdout, stderr, ok) = run(scd().args(["info", "--trace", trace_s]));
    assert!(ok, "info failed: {stderr}");
    assert!(stdout.contains("records:"), "{stdout}");
    assert!(stdout.contains("top talkers"), "{stdout}");

    // Detect flags the victim at interval 12.
    let (stdout, stderr, ok) = run(scd()
        .args(["detect", "--trace", trace_s, "--interval", "60"])
        .args(["--model", "ewma:0.5", "--threshold", "0.4", "--k", "8192"]));
    assert!(ok, "detect failed: {stderr}");
    let after_12 = stdout.split("interval 12:").nth(1).expect("interval 12 in output");
    let block_12 = after_12.split("interval").next().expect("block");
    assert!(block_12.contains(&victim), "victim {victim} not alarmed at interval 12:\n{stdout}");

    // The reversible strategy finds it too — with no key replay.
    let (stdout, stderr, ok) = run(scd()
        .args(["detect", "--trace", trace_s, "--interval", "60"])
        .args(["--model", "ewma:0.5", "--threshold", "0.4", "--k", "4096"])
        .args(["--strategy", "reversible"]));
    assert!(ok, "reversible detect failed: {stderr}");
    assert!(stdout.contains(&victim), "reversible missed {victim}:\n{stdout}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn tune_emits_spec_that_detect_accepts() {
    let trace = temp_trace("tune");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.25", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "3"]));
    assert!(ok, "generate failed: {stderr}");

    let (stdout, stderr, ok) = run(scd().args([
        "tune",
        "--trace",
        trace_s,
        "--interval",
        "60",
        "--model",
        "ewma",
        "--quiet",
    ]));
    assert!(ok, "tune failed: {stderr}");
    let spec = stdout.trim().to_string();
    assert!(spec.starts_with("ewma:"), "unexpected spec '{spec}'");

    let (_, stderr, ok) =
        run(scd().args(["detect", "--trace", trace_s, "--interval", "60", "--model", &spec]));
    assert!(ok, "detect with tuned spec failed: {stderr}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn helpful_errors() {
    // No subcommand → usage on stderr, exit code 2.
    let out = scd().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing required flag names the flag.
    let (_, stderr, ok) = run(scd().args(["info"]));
    assert!(!ok);
    assert!(stderr.contains("--trace"), "{stderr}");

    // Bad model spec names the offender.
    let (_, stderr, ok) = run(scd().args([
        "detect",
        "--trace",
        "/nonexistent",
        "--interval",
        "60",
        "--model",
        "bogus:1",
    ]));
    assert!(!ok);
    assert!(stderr.contains("bogus"), "{stderr}");

    // A flag the command does not honour is rejected by name — before
    // anything is written — instead of being silently ignored.
    let trace = temp_trace("flags");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "9"]));
    assert!(ok, "generate failed: {stderr}");
    let replay = ["--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"];
    let (_, stderr, ok) = run(scd()
        .arg("stream")
        .args(replay)
        .args(["--shards", "4", "--pipeline", "--glr", "4", "--strategy", "next"])
        .args(["--no-such-flag", "7"]));
    assert!(!ok, "stream accepted flags it cannot act on");
    assert!(
        stderr.contains("unknown flag --glr, --no-such-flag, --pipeline for 'scd stream'"),
        "{stderr}"
    );
    let (_, stderr, ok) = run(scd().arg("detect").args(replay).args(["--policy", "bogus"]));
    assert!(!ok, "detect accepted --policy");
    assert!(stderr.contains("unknown flag --policy for 'scd detect'"), "{stderr}");
    let digest = trace.with_extension("rep");
    let (stdout, stderr, ok) = run(scd().arg("detect").args(replay).args([
        "--report-out",
        digest.to_str().unwrap(),
        "--sharts",
        "2",
    ]));
    assert!(!ok && stderr.contains("unknown flag --sharts"), "{stderr}");
    assert!(stdout.is_empty() && !digest.exists(), "a rejected run must not start: {stdout}");
    // A value out of the range the library asserts on is a usage error
    // that names the flag (exit 1), not a panic (exit 101).
    let refused = |args: &[&str], named: &str| {
        let out = scd().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named) && !stderr.contains("panicked"), "{args:?}: {stderr}");
    };
    for cmd in ["detect", "tune", "stream"] {
        refused(&[cmd, "--trace", trace_s, "--interval", "0", "--model", "ewma"], "--interval");
    }
    let out_of_range: [(&[&str], &str); 6] = [
        (&["--k", "1000"], "--k 1000"),
        (&["--h", "0"], "--h"),
        (&["--strategy", "sampled:2"], "sampled rate 2"),
        (&["--threshold", "0"], "--threshold"),
        (&["--glr", "2", "--glr-window", "0"], "--glr-window"),
        (&["--glr", "2", "--glr-threshold", "0"], "--glr-threshold"),
    ];
    for (extra, named) in out_of_range {
        refused(&[&["detect"][..], &replay, extra].concat(), named);
    }
    refused(&[&["stream"][..], &replay, &["--capacity", "0"]].concat(), "--capacity");
    // `generate` refuses what its generator would panic on, and writes
    // nothing. The small profile has 4 000 destinations, ranks 0..4000.
    let generated = trace.with_extension("gen.bin");
    let generate = ["generate", "--profile", "small", "--out", generated.to_str().unwrap()];
    let bad_generate: [(&[&str], &str); 4] = [
        (&["--scale", "0"], "--scale"),
        (&["--interval", "0"], "--interval"),
        (&["--hours", "inf"], "--hours"),
        (&["--dos", "4000:3:1:30"], "--dos rank 4000"),
    ];
    for (extra, named) in bad_generate {
        refused(&[&generate[..], extra].concat(), named);
        assert!(!generated.exists(), "{extra:?}: a refused generate wrote a trace");
    }
    // ... and one it does honour is acted on: `archive` used to drop every
    // one of these on the floor and exit 0 with no metrics file.
    let (hist, metrics) = (trace.with_extension("scda"), trace.with_extension("jsonl"));
    let (_, stderr, ok) = run(scd()
        .arg("archive")
        .args(replay)
        .args(["--out", hist.to_str().unwrap(), "--pipeline", "--strategy", "sampled:0.1"])
        .args(["--metrics", metrics.to_str().unwrap()]));
    assert!(ok, "archive failed: {stderr}");
    let snapshots = std::fs::read_to_string(&metrics).expect("archive --metrics wrote no file");
    assert_eq!(snapshots.lines().count(), 6, "one snapshot line per interval:\n{snapshots}");
    for p in [&trace, &hist, &metrics] {
        std::fs::remove_file(p).ok();
    }

    // CSV round trip: generate csv, info reads it.
    let trace = temp_trace("csvgen");
    let csv = trace.with_extension("csv");
    let csv_s = csv.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", csv_s]));
    assert!(ok, "csv generate failed: {stderr}");
    let (stdout, _, ok) = run(scd().args(["info", "--trace", csv_s]));
    assert!(ok && stdout.contains("records:"));
    std::fs::remove_file(&csv).ok();
}

#[test]
fn sketch_combine_workflow() {
    let trace = temp_trace("sketchwf");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.2", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "5"]));
    assert!(ok, "generate failed: {stderr}");

    let a = trace.with_extension("a.sketch");
    let b = trace.with_extension("b.sketch");
    let sum = trace.with_extension("sum.sketch");
    for (at, path) in [("3", &a), ("4", &b)] {
        let (_, stderr, ok) = run(scd()
            .args(["sketch", "--trace", trace_s, "--interval", "60", "--at", at])
            .args(["--out", path.to_str().unwrap(), "--k", "4096"]));
        assert!(ok, "sketch failed: {stderr}");
    }
    let (stdout, stderr, ok) = run(scd()
        .args(["combine", "--out", sum.to_str().unwrap()])
        .args([a.to_str().unwrap(), b.to_str().unwrap()])
        .args(["--query", "10.0.0.1"]));
    assert!(ok, "combine failed: {stderr}");
    assert!(stdout.contains("combined 2 sketch(es)"), "{stdout}");
    assert!(stdout.contains("estimate[10.0.0.1]"), "{stdout}");

    // Mixing hash families must be rejected, not silently wrong.
    let c = trace.with_extension("c.sketch");
    let (_, _, ok) = run(scd()
        .args(["sketch", "--trace", trace_s, "--interval", "60", "--at", "3"])
        .args(["--out", c.to_str().unwrap(), "--k", "4096", "--sketch-seed", "999"]));
    assert!(ok);
    let (_, stderr, ok) = run(scd()
        .args(["combine", "--out", sum.to_str().unwrap()])
        .args([a.to_str().unwrap(), c.to_str().unwrap()]));
    assert!(!ok, "incompatible combine must fail");
    assert!(stderr.contains("hash famil"), "{stderr}");

    for p in [&trace, &a, &b, &c, &sum] {
        std::fs::remove_file(p).ok();
    }
}

/// The historical workflow: generate a trace with an injected DoS, replay
/// it through the 4-shard archiving engine, then query the archive for
/// the attack window — the victim must come back as a changed key, and
/// its per-key history must carry the burst.
#[test]
fn archive_query_workflow() {
    let trace = temp_trace("archive");
    let trace_s = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    let hist = trace.with_extension("scda");
    let hist_s = hist.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["archive", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"])
        .args(["--out", hist_s, "--shards", "4", "--k", "8192"])
        .args(["--budget", "16", "--full-res", "4", "--threshold", "0.4"]));
    assert!(ok, "archive failed: {stderr}");
    assert!(stdout.contains("archive: intervals [0, 30)"), "{stdout}");

    // The attack ran over intervals 12..=13; ask for the dyadic-decayed
    // window around it.
    let (stdout, stderr, ok) = run(scd()
        .args(["query", "--archive", hist_s, "--from", "8", "--to", "16"])
        .args(["--threshold", "0.4"]));
    assert!(ok, "query failed: {stderr}");
    assert!(stdout.contains(&victim), "victim {victim} not in change report:\n{stdout}");

    // Per-key history localizes the burst inside the window.
    let (stdout, stderr, ok) = run(scd()
        .args(["query", "--archive", hist_s, "--from", "0", "--to", "30"])
        .args(["--key", &victim]));
    assert!(ok, "history query failed: {stderr}");
    assert!(stdout.contains("history of"), "{stdout}");

    // Out-of-range windows fail loudly instead of answering nonsense.
    let (_, stderr, ok) =
        run(scd().args(["query", "--archive", hist_s, "--from", "50", "--to", "60"]));
    assert!(!ok, "out-of-range query must fail");
    assert!(stderr.contains("out"), "{stderr}");

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&hist).ok();
}

/// `scd stream` over a trace with more event-time intervals than the
/// bounded report channel holds (64). The CLI must drain reports while it
/// is still sending records; collecting them only at shutdown deadlocks —
/// detector blocked sending a report, producer blocked sending a record.
#[test]
fn stream_with_many_intervals_does_not_deadlock() {
    let trace = temp_trace("stream-many");
    let trace_s = trace.to_str().unwrap();
    // 1.5 hours at 60s intervals = 90 intervals > 64.
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "1.5", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "11"]));
    assert!(ok, "generate failed: {stderr}");

    // Stdout goes to a file so a full pipe can never masquerade as the
    // deadlock this test is hunting.
    let out_path = trace.with_extension("out");
    let out_file = std::fs::File::create(&out_path).expect("stdout file");
    let mut child = scd()
        .args(["stream", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"])
        .stdout(out_file)
        .spawn()
        .expect("spawn scd stream");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        match child.try_wait().expect("poll scd stream") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("scd stream made no progress within 120s: deadlocked");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    };
    assert!(status.success(), "stream exited with failure");
    let stdout = std::fs::read_to_string(&out_path).expect("read stream output");
    assert!(stdout.contains("streamed"), "{stdout}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&out_path).ok();
}

/// Live serving must agree with the offline archive byte for byte: run
/// `scd serve` over an integer-valued trace (ma:1 keeps forecast errors
/// integral, so the slim f32 read path is exact), `scd ask` every query
/// shape while the server lingers, then diff the body lines against
/// offline `scd query` over the archive the same run dumped. Every ask
/// response — data, live, and error alike — must announce the `as_of`
/// interval it was answered at.
#[test]
fn ask_matches_offline_query_and_prints_as_of() {
    let trace = temp_trace("serve-ask");
    let trace_s = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    let dump = trace.with_extension("scda");
    let dump_s = dump.to_str().unwrap();
    let addr = format!("127.0.0.1:{}", 21000 + (std::process::id() % 10_000) as u16);
    // Replay finishes in well under a second; the linger window is where
    // the asks land. Stdout/stderr go to files so a full pipe can never
    // stall the server, and so the test can watch for "replay done".
    let out_path = trace.with_extension("serve-out");
    let err_path = trace.with_extension("serve-err");
    let mut child = scd()
        .args(["serve", "--trace", trace_s, "--interval", "60", "--model", "ma:1"])
        .args(["--listen", &addr, "--k", "8192", "--threshold", "0.4", "--shards", "2"])
        .args(["--budget", "16", "--full-res", "4", "--out", dump_s])
        .args(["--linger-secs", "15"])
        .stdout(std::fs::File::create(&out_path).expect("stdout file"))
        .stderr(std::fs::File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("spawn scd serve");

    // Ask only once replay is done, so every answer reflects the final view.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let log = std::fs::read_to_string(&err_path).unwrap_or_default();
        if log.contains("replay done") {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll scd serve") {
            panic!("scd serve exited early ({status}): {log}");
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("scd serve never finished replay: {log}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let ask = |extra: &[&str]| -> String {
        let (stdout, stderr, ok) = run(scd().args(["ask", "--addr", &addr]).args(extra));
        assert!(ok, "ask {extra:?} failed: {stderr}");
        assert!(stdout.contains("as of interval"), "ask {extra:?} lost as_of:\n{stdout}");
        stdout
    };
    let changed = ask(&["--changed", "--from", "8", "--to", "16", "--threshold", "0.4"]);
    let history = ask(&["--history", &victim, "--from", "0", "--to", "30"]);
    let estimate = ask(&["--estimate", &victim, "--from", "8", "--to", "16"]);
    let live = ask(&["--estimate", &victim]);
    assert!(live.contains("live estimate as of interval"), "{live}");
    assert!(live.contains("slim-sketch bound"), "{live}");
    let range = ask(&["--range", "--from", "8", "--to", "16"]);
    assert!(range.contains("epochs, sum"), "{range}");
    // The error variant carries as_of too: a window past coverage fails
    // loudly but still says which interval the server was at.
    let (_, stderr, ok) =
        run(scd().args(["ask", "--addr", &addr, "--changed", "--from", "50", "--to", "60"]));
    assert!(!ok, "out-of-range ask must fail");
    assert!(stderr.contains("as of interval"), "error answer lost as_of: {stderr}");

    // Let the linger window expire so the server dumps its archive.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        match child.try_wait().expect("poll scd serve") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("scd serve did not exit after linger window");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    };
    assert!(status.success(), "serve exited with failure");

    // Offline answers over the dumped archive: body lines (the indented
    // CHANGE / intervals / ESTIMATE records) must match the served ones
    // exactly — only the `as of interval` headers may differ.
    let body = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("  ")).map(str::to_string).collect()
    };
    let offline = |extra: &[&str]| -> String {
        let (stdout, stderr, ok) = run(scd().args(["query", "--archive", dump_s]).args(extra));
        assert!(ok, "offline query {extra:?} failed: {stderr}");
        stdout
    };
    let q_changed = offline(&["--from", "8", "--to", "16", "--threshold", "0.4"]);
    assert_eq!(body(&changed), body(&q_changed), "served vs offline changed keys");
    assert!(!body(&changed).is_empty(), "changed-keys diff was vacuous:\n{q_changed}");
    let q_history = offline(&["--from", "0", "--to", "30", "--key", &victim]);
    assert_eq!(body(&history), body(&q_history), "served vs offline history");
    let q_estimate = offline(&["--from", "8", "--to", "16", "--estimate", &victim]);
    assert_eq!(body(&estimate), body(&q_estimate), "served vs offline estimate");

    for p in [&trace, &dump, &out_path, &err_path] {
        std::fs::remove_file(p).ok();
    }
}

/// An archive dumped before the model ever warmed up holds zero epochs.
/// Querying it must produce a clean "no data" answer (exit 0), not an
/// out-of-range error: nothing about the request was wrong, the archive
/// just has nothing to say.
#[test]
fn query_on_empty_archive_says_no_data() {
    let trace = temp_trace("empty-archive");
    let trace_s = trace.to_str().unwrap();
    // Segment the whole trace into ONE detection interval: every model
    // spends it warming up, no error sketch is ever produced, and the
    // archive is dumped with zero epochs.
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "3"]));
    assert!(ok, "generate failed: {stderr}");

    let hist = trace.with_extension("scda");
    let hist_s = hist.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["archive", "--trace", trace_s, "--interval", "3600", "--model", "ewma:0.5"])
        .args(["--out", hist_s, "--shards", "2", "--k", "1024"]));
    assert!(ok, "archive failed: {stderr}");
    assert!(stdout.contains("0 epochs"), "expected empty archive: {stdout}");

    // All three query shapes answer "no data" with a success exit.
    for extra in [&["--threshold", "0.4"][..], &["--key", "9"][..], &["--estimate", "9"][..]] {
        let (stdout, stderr, ok) =
            run(scd().args(["query", "--archive", hist_s, "--from", "0", "--to", "6"]).args(extra));
        assert!(ok, "query {extra:?} errored on empty archive: {stderr}");
        assert!(stdout.contains("no data"), "query {extra:?}: {stdout}");
    }

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&hist).ok();
}
