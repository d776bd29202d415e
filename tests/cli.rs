//! The `jgre` CLI binary, driven end to end.

use std::process::Command;

fn jgre() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jgre"))
}

#[test]
fn headline_renders_the_counts() {
    let out = jgre().arg("headline").output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("54 in 32 system services"), "{stdout}");
    assert!(
        stdout.contains("147 total, 67 init-only filtered"),
        "{stdout}"
    );
}

#[test]
fn headline_out_writes_what_stdout_prints() {
    let dir = std::env::temp_dir().join(format!("jgre-headline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("headline.json");
    let run = |json: bool| {
        let mut cmd = jgre();
        cmd.arg("headline").arg("--out").arg(&path);
        if json {
            cmd.arg("--json");
        }
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let rendered = run(false);
    let json = run(true);
    let written_json = std::fs::read(&path).expect("--out writes the JSON");
    let written_txt = std::fs::read(dir.join("headline.txt")).expect("--out writes the text");
    std::fs::remove_dir_all(&dir).ok();
    // Artifacts carry no trailing newline; stdout adds one.
    assert_eq!(json.strip_suffix(b"\n"), Some(&written_json[..]));
    assert_eq!(rendered.strip_suffix(b"\n"), Some(&written_txt[..]));
}

#[test]
fn json_output_is_machine_readable() {
    let out = jgre()
        .args(["table4", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(parsed["rows"].as_array().map(|r| r.len()), Some(3));
    assert_eq!(parsed["apps_scanned"], 88);
}

#[test]
fn lint_emits_sarif_with_witnessed_findings() {
    let out = jgre().arg("lint").output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sarif: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(sarif["version"].as_str(), Some("2.1.0"));

    let run = &sarif["runs"].as_array().expect("one run")[0];
    assert_eq!(run["tool"]["driver"]["name"].as_str(), Some("jgre-lint"));
    let rule_ids: Vec<&str> = run["tool"]["driver"]["rules"]
        .as_array()
        .expect("rules array")
        .iter()
        .filter_map(|r| r["id"].as_str())
        .collect();
    assert_eq!(rule_ids, ["JGRE001", "JGRE002", "JGRE003", "JGRE004"]);

    // 63 risky interfaces (60 unbounded + 3 bounded) plus the
    // signature-gated notes.
    let results = run["results"].as_array().expect("results array");
    let count = |id: &str| {
        results
            .iter()
            .filter(|r| r["ruleId"].as_str() == Some(id))
            .count()
    };
    assert_eq!(count("JGRE001"), 60);
    assert_eq!(count("JGRE003"), 3);
    assert!(count("JGRE002") >= 2);

    // Every finding carries at least one code flow ending at the sink.
    for result in results {
        let flows = result["codeFlows"].as_array().expect("codeFlows");
        assert!(!flows.is_empty());
        let steps = flows[0]["threadFlows"].as_array().expect("threadFlows")[0]["locations"]
            .as_array()
            .expect("locations");
        let first = steps[0]["location"]["message"]["text"].as_str().unwrap();
        let last = steps[steps.len() - 1]["location"]["message"]["text"]
            .as_str()
            .unwrap();
        assert!(first.starts_with("IPC entry "), "{first}");
        assert!(last.contains("inserts the JGR"), "{last}");
    }
}

#[test]
fn lint_sarif_snapshot_of_a_representative_finding() {
    // Model synthesis and result ordering are deterministic, so the first
    // finding is a stable snapshot of the whole SARIF shape.
    let out = jgre().arg("lint").output().expect("binary runs");
    let sarif: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let result = &sarif["runs"].as_array().unwrap()[0]["results"]
        .as_array()
        .unwrap()[0];
    assert_eq!(result["ruleId"].as_str(), Some("JGRE001"));
    assert_eq!(result["level"].as_str(), Some("error"));
    assert_eq!(
        result["message"]["text"].as_str(),
        Some(
            "accessibility.addAccessibilityInteractionConnection retains a JNI \
             global reference per call without bound (2 allocation sites)"
        )
    );
    assert_eq!(
        result["locations"].as_array().unwrap()[0]["logicalLocations"]
            .as_array()
            .unwrap()[0]["fullyQualifiedName"]
            .as_str(),
        Some("accessibility.addAccessibilityInteractionConnection")
    );
    let steps: Vec<&str> = result["codeFlows"].as_array().unwrap()[0]["threadFlows"]
        .as_array()
        .unwrap()[0]["locations"]
        .as_array()
        .unwrap()
        .iter()
        .map(|l| l["location"]["message"]["text"].as_str().unwrap())
        .collect();
    assert_eq!(
        steps,
        [
            "IPC entry com.android.server.AccessibilityService.addAccessibilityInteractionConnection",
            "com.android.server.AccessibilityService.addAccessibilityInteractionConnection calls \
             com.android.server.AccessibilityService.addAccessibilityInteractionConnectionInternal",
            "com.android.server.AccessibilityService.addAccessibilityInteractionConnectionInternal \
             calls android.os.RemoteCallbackList.register",
            "android.os.RemoteCallbackList.register calls android.os.Binder.linkToDeath",
            "android.os.Binder.linkToDeath calls android.os.Binder.linkToDeathNative",
            "JNI bridge android.os.Binder.linkToDeathNative -> android_os_BinderProxy_linkToDeath",
            "android_os_BinderProxy_linkToDeath calls JavaDeathRecipient::JavaDeathRecipient",
            "JavaDeathRecipient::JavaDeathRecipient calls art::IndirectReferenceTable::Add",
            "art::IndirectReferenceTable::Add inserts the JGR",
        ]
    );
}

#[test]
fn lint_json_prints_the_raw_report() {
    let out = jgre()
        .args(["lint", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The predicate lattice proves the three bounded collections bounded,
    // so they no longer count as false positives.
    assert_eq!(report["accuracy"]["true_positives"], 54);
    assert_eq!(report["accuracy"]["false_positives"], 0);
    assert_eq!(report["accuracy"]["false_negatives"], 0);
    assert!(report["diagnostics"].as_array().is_some());
}

#[test]
fn lint_path_insensitive_reproduces_the_boolean_era_score() {
    let out = jgre()
        .args(["lint", "--path-insensitive", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["accuracy"]["true_positives"], 54);
    assert_eq!(report["accuracy"]["false_positives"], 3);
    assert_eq!(report["accuracy"]["false_negatives"], 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("accuracy: tp=54 fp=3 fn=0"), "{stderr}");
}

#[test]
fn lint_prints_the_summary_footer_on_stderr() {
    let out = jgre().arg("lint").output().expect("binary runs");
    assert!(out.status.success());
    // The footer must not pollute the SARIF stdout stream.
    serde_json::from_slice::<serde_json::Value>(&out.stdout).expect("stdout is pure JSON");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("summaries: 3732 (hits 0, misses 3732)"),
        "{stderr}"
    );
    // The CI accuracy gate greps this exact line.
    assert!(stderr.contains("accuracy: tp=54 fp=0 fn=0"), "{stderr}");
}

#[test]
fn lint_cache_dir_roundtrips_with_identical_findings() {
    let dir = std::env::temp_dir().join(format!("jgre-cli-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run = || {
        let out = jgre()
            .args(["lint", "--cache-dir", dir.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            serde_json::from_slice::<serde_json::Value>(&out.stdout).expect("valid JSON"),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (cold, cold_err) = run();
    let (warm, warm_err) = run();
    std::fs::remove_dir_all(&dir).ok();
    assert!(cold_err.contains("misses 3732"), "{cold_err}");
    assert!(warm_err.contains("(hits 3732, misses 0)"), "{warm_err}");
    // Findings are structurally identical; only the invocation's cache
    // counters may differ between the cold and warm run.
    let results = |v: &serde_json::Value| v["runs"].as_array().unwrap()[0]["results"].clone();
    assert_eq!(results(&cold), results(&warm));
}

#[test]
fn closed_stdout_exits_cleanly() {
    // The reader hangs up before the command has computed anything, as
    // `jgre response | head -0` does; the first write hits a broken pipe.
    let mut child = jgre()
        .arg("response")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = jgre().arg("nonsense").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: nonsense"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn help_prints_and_succeeds() {
    let out = jgre().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COMMANDS"));
}

#[test]
fn seed_flag_is_parsed() {
    let out = jgre()
        .args(["--seed", "nope", "headline"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed needs a number"));
}

#[test]
fn chaos_matrix_runs_clean_and_is_seed_deterministic() {
    let run = |extra: &[&str]| {
        let mut cmd = jgre();
        cmd.args(["chaos", "--seed", "0", "--json"]).args(extra);
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run(&[]);
    let b = run(&[]);
    assert_eq!(a, b, "same seed must be byte-identical");
    let threaded = run(&["--threads", "2"]);
    assert_eq!(a, threaded, "thread count must not change the matrix");

    let parsed: serde_json::Value = serde_json::from_slice(&a).expect("valid JSON");
    assert_eq!(parsed["seed"], 0);
    assert_eq!(parsed["violations"], 0);
    // 2 attacks × (1 baseline + 10 kinds × 3 intensities).
    assert_eq!(parsed["cells"].as_array().map(|c| c.len()), Some(62));

    let other_seed = jgre()
        .args(["chaos", "--seed", "7", "--json"])
        .output()
        .expect("binary runs");
    assert!(other_seed.status.success());
    assert_ne!(a, other_seed.stdout, "a different seed changes the run");
}

#[test]
fn chaos_fault_flag_selects_one_channel() {
    let out = jgre()
        .args(["chaos", "--seed", "0", "--fault", "kill-fail", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // 2 attacks × (1 baseline + 1 kind × 3 intensities).
    let cells = parsed["cells"].as_array().expect("cells array");
    assert_eq!(cells.len(), 8);
    assert!(cells
        .iter()
        .all(|c| c["fault"] == "none" || c["fault"] == "kill-fail"));

    let bad = jgre()
        .args(["chaos", "--fault", "gamma-rays"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success(), "unknown fault kind must be rejected");
}

#[test]
fn chaos_list_cells_prints_ids_without_running() {
    let out = jgre()
        .args(["chaos", "--list-cells"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 62, "full matrix shape");
    assert!(ids.contains(&"clipboard.addPrimaryClipChangedListener/none/off"));
    assert!(ids.contains(&"midi.registerDeviceServer/defender-crash/severe"));

    let filtered = jgre()
        .args(["chaos", "--list-cells", "--fault", "defender-crash"])
        .output()
        .expect("binary runs");
    assert!(filtered.status.success());
    let stdout = String::from_utf8_lossy(&filtered.stdout);
    assert_eq!(stdout.lines().count(), 8, "2 baselines + 2×3 crash cells");
}

#[test]
fn chaos_out_writes_json_and_text_artifacts() {
    let dir = std::env::temp_dir().join(format!("jgre-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("matrix.json");
    let out = jgre()
        .args(["chaos", "--seed", "0", "--fault", "ipc-drop"])
        .arg("--out")
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed["violations"], 0);
    let txt = std::fs::read_to_string(dir.join("matrix.txt")).expect("text artifact written");
    assert!(txt.contains("Chaos matrix — seed 0"), "{txt}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_is_byte_identical_across_runs_and_threads() {
    let dir = std::env::temp_dir().join(format!("jgre-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, threads: &str| {
        let path = dir.join(name);
        let out = jgre()
            .args([
                "serve",
                "--seed",
                "3",
                "--events-per-sec",
                "4000",
                "--duration",
                "0.25",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out, std::fs::read(&path).expect("JSON artifact written"))
    };
    let (first, json_a) = run("a.json", "1");
    let (_, json_b) = run("b.json", "1");
    let (_, json_threaded) = run("c.json", "4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json_a, json_b, "same seed must write identical bytes");
    assert_eq!(
        json_a, json_threaded,
        "thread count must not change the report"
    );

    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("jgre serve: seed=3"), "{stdout}");
    assert!(stdout.contains("drops: backpressure="), "{stdout}");
    // Wall-clock throughput stays off the reproducible streams.
    assert!(!stdout.contains("events/sec"), "{stdout}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("events/sec"), "{stderr}");
}

#[test]
fn serve_attack_selector_profiles_the_vector() {
    let out = jgre()
        .args(["serve", "--duration", "0.1", "--attack", "0", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The tapped delay replaces the synthetic 500µs default.
    let delay = report["source"]["attack_delay"]["micros"]
        .as_u64()
        .or_else(|| report["source"]["attack_delay"].as_u64());
    assert!(delay.is_some(), "{report:?}");
    assert!(
        !report["verdicts"].as_array().expect("verdicts").is_empty(),
        "the profiled attack must still be caught"
    );

    let bad = jgre()
        .args(["serve", "--attack", "no.suchMethod"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown attack selector"));
}

#[test]
fn committed_chaos_golden_matches_a_fresh_run() {
    let out = jgre()
        .args(["chaos", "--seed", "0", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join("chaos_matrix.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden artifact committed");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        golden.trim_end(),
        "artifacts/chaos_matrix.json is stale; regenerate with \
         `jgre chaos --seed 0 --out artifacts/chaos_matrix.json`"
    );
}

#[test]
fn committed_defender_goldens_match_a_fresh_run() {
    for (command, name) in [
        ("defend", "defense_effectiveness"),
        ("response", "response_delay"),
    ] {
        let out = jgre()
            .args([command, "--paper", "--json"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("artifacts")
            .join(format!("{name}.json"));
        let golden = std::fs::read_to_string(golden_path).expect("golden artifact committed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim_end(),
            golden.trim_end(),
            "artifacts/{name}.json is stale; regenerate with \
             `jgre all --paper --out artifacts`"
        );
    }
}

#[test]
fn fuzz_is_byte_identical_across_runs_and_threads() {
    let dir = std::env::temp_dir().join(format!("jgre-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, threads: &str| {
        let path = dir.join(name);
        let out = jgre()
            .args([
                "fuzz",
                "--seed",
                "7",
                "--iters",
                "2000",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out, std::fs::read(&path).expect("JSON artifact written"))
    };
    let (first, json_a) = run("a.json", "1");
    let (_, json_b) = run("b.json", "1");
    let (_, json_threaded) = run("c.json", "4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json_a, json_b, "same seed must write identical bytes");
    assert_eq!(
        json_a, json_threaded,
        "thread count must not change the report"
    );
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join("fuzz_smoke.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden artifact committed");
    assert_eq!(
        String::from_utf8_lossy(&json_a).trim_end(),
        golden.trim_end(),
        "artifacts/fuzz_smoke.json is stale; regenerate with \
         `jgre fuzz --seed 7 --iters 2000 --out artifacts/fuzz_smoke.json`"
    );

    let artifact: serde_json::Value = serde_json::from_slice(&json_a).expect("valid JSON artifact");
    assert_eq!(artifact["fuzz"]["seed"], 7);
    assert_eq!(artifact["fuzz"]["execs"], 2000);
    // Hardened dispatch: a smoke-sized mutation storm lands plenty of
    // typed rejections and never crashes a host.
    assert_eq!(artifact["fuzz"]["host_aborts"], 0);
    assert!(
        artifact["fuzz"]["rejects"]["unknown-code"]
            .as_u64()
            .is_some_and(|n| n > 0),
        "typed rejection ledger is empty"
    );

    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("fuzz: seed 7"), "{stdout}");
    assert!(stdout.contains("differential:"), "{stdout}");
    // Wall-clock throughput stays off the reproducible streams.
    assert!(!stdout.contains("execs/sec"), "{stdout}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("execs/sec"), "{stderr}");
    assert!(stderr.contains("findings/sec"), "{stderr}");
}

#[test]
fn fuzz_attack_surface_selector_restricts_the_sweep() {
    let out = jgre()
        .args([
            "fuzz",
            "--seed",
            "7",
            "--iters",
            "500",
            "--attack-surface",
            "hidden",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(artifact["fuzz"]["attack_surface"], "hidden");

    let bad = jgre()
        .args(["fuzz", "--attack-surface", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success(), "bogus surface must be rejected");
}
