//! `jgre` — command-line front-end for the reproduction.
//!
//! ```console
//! $ jgre headline                 # §IV counts (quick scale)
//! $ jgre --paper fig3             # Figure 3 at the real 51200 capacity
//! $ jgre table2 --json            # Table II as JSON
//! $ jgre all --paper --out artifacts  # rewrite every deterministic artifact
//! ```

use std::process::ExitCode;

use jgre_core::{experiments, ExperimentScale};

const USAGE: &str = "\
jgre — reproduce 'JGRE: JNI Global Reference Exhaustion in Android' (DSN 2017)

USAGE: jgre [--paper] [--json] [--seed N] [--cache-dir DIR] [--threads N] <command>

COMMANDS:
  headline     §IV analysis counts (104/54/32/22, 147/67 paths, ...)
  table1       Table I  — 44 unprotected vulnerable interfaces
  table2       Table II — helper-class protections, bypassed live
  table3       Table III — per-process limits and the toast spoof
  table4       Table IV — vulnerable prebuilt apps
  table5       Table V  — vulnerable Play-store apps
  fig3         Figure 3 — exhaustion curves for all 54 interfaces
  fig4         Figure 4 — benign baseline (JGR band, process count)
  fig5         Figure 5 — execution-time growth under attack
  fig6         Figure 6 — execution-time CDF (1000 calls/interface)
  fig8         Figure 8 — attacker vs benign suspicious-call counts
  fig9         Figure 9 — four colluders, Δ sweep
  fig10        Figure 10 — defense IPC overhead vs payload
  response     §V-D.1 — detection delays for all 57 interfaces
  defend       §V-C  — drive all 57 attacks against the defender
  ablations    alarm thresholds, Δ, limit placement and multi-path
               evasion studies (fixed small tables; --paper has no effect)
  all          run everything above in order; with --out DIR, write
               each result to DIR as the file artifacts/ commits it under
  lint         dataflow leak analysis as SARIF 2.1.0, each finding backed
               by a checkable IPC-entry-to-IRT::Add witness path
               (--json prints the raw lint report instead)
  chaos        robustness matrix — seeded fault injection (drop/duplicate/
               delay/reorder IPC records, truncate/corrupt the JGR journal,
               clock jitter, failed/respawning kills, defender crashes)
               against the crash-consistent defender; exits nonzero on any
               recovery-invariant violation
  fleet        fleet campaign — N independent defended devices sharded
               across worker threads; device i streams its RNG from
               (seed, i), so the summary is byte-identical for every
               --threads value (devices/sec footer goes to stderr)
  fuzz         coverage-guided Parcel fuzzer — mutate transaction codes
               and parcel payloads (wrong arity, type confusion, stale
               binders, oversized blobs, truncation) against the raw
               dispatch of every registered service; GC-verified leak
               findings are delta-debug minimized and cross-checked
               against the static lint (differential section); the JSON
               report is byte-identical for every --threads value
               (execs/sec + findings/sec footer goes to stderr)
  serve        streaming defender — synthesize a framed telemetry stream
               (--events-per-sec, --duration, --seed) and score it online
               with the incremental sliding-window correlator; stdout and
               --out are byte-identical per seed for every --threads value
               (wall-clock events/sec footer goes to stderr)

OPTIONS:
  --paper      paper scale: 51200-entry tables, 4000/12000 thresholds
               (default: quick 1/16 scale)
  --scale S    quick | paper — same presets as --paper, spelled out
  --json       print the raw JSON instead of the rendered table
  --seed N     override the experiment seed (default 2017)
  --cache-dir DIR
               (lint) persist the whole-corpus summary table under DIR;
               an unchanged corpus re-lints from the cache, any edit
               re-solves the corpus and rewrites the table
  --threads N  (lint, fleet, fuzz, serve) worker threads — the lint's
               per-wave SCC fan-out, the fleet's device shards, the
               fuzzer's service shards; serve with N >= 2 runs the
               stream producer on its own thread
               (default 1; results are identical for every N)
  --devices N  (fleet) devices to simulate (default 1000)
  --attack SEL (fleet) catalog selector: a zero-based index, a
               service.method label, or 'all' to sweep the 57-vector
               catalog with device i driving vector i mod 57 (default)
               (serve) tap the selected vector on a simulated device and
               use its measured IPC→JGR delay as the stream's attack
               timing (default: the synthetic 500µs profile)
  --iters N    (fuzz) transaction budget across the whole surface,
               split per service proportionally to method count
               (default 320000 — enough for a full probe sweep plus a
               mutation tail; small budgets truncate the sweep)
  --attack-surface SEL
               (fuzz) all | sdk | hidden — which slice of the IPC
               surface to sweep: everything, only permission-gated or
               protection-wrapped methods, or only unmediated ones
               (default all)
  --events-per-sec R
               (serve) sustained call arrival rate (default 10000)
  --duration S (serve) virtual stream length in seconds, fractions ok
               (default 1.0)
  --path-insensitive
               (lint) disable the per-branch predicate reading: no
               JGRE004 error-path findings, no proven-bounded drops —
               reproduces the boolean-guard-era score
  --fault K    (chaos) restrict the matrix to one fault kind: ipc-drop,
               ipc-duplicate, ipc-delay, ipc-reorder, jgr-truncate,
               jgr-corrupt, clock-jitter, kill-fail, kill-respawn,
               defender-crash
               (default: all; fault-free baselines always run)
  --out PATH   (every command but lint) write the result as JSON to
               PATH and the rendered table next to it as PATH with a
               .txt extension; ablations and all print several results
               and take a directory, writing NAME.json and NAME.txt
               into it for each
  --list-cells (chaos) print the cell ids the matrix would run, one per
               line, without running anything (honors --fault)
";

struct Options {
    scale: ExperimentScale,
    json: bool,
    analysis: jgre_analysis::AnalysisOptions,
    fault: Option<jgre_core::sim::FaultKind>,
    out: Option<std::path::PathBuf>,
    list_cells: bool,
    threads: Option<usize>,
    devices: u64,
    attack: Option<String>,
    events_per_sec: u64,
    duration_secs: f64,
    iters: u64,
    attack_surface: jgre_fuzz::AttackSurface,
}

/// Writes one block of command output to stdout — the only way output
/// reaches it. A reader that hung up early (`jgre … | head`) ends the
/// process cleanly instead of panicking on the broken pipe.
fn say(text: impl std::fmt::Display) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Every deterministic artifact, in the order `all` prints them: the
/// command that computes it and the file stem `all --out DIR` writes it
/// under. `ablations` prints four studies, so it has four rows.
const ARTIFACTS: [(&str, &str); 19] = [
    ("headline", "t_analysis_headline"),
    ("table1", "table1_unprotected"),
    ("table2", "table2_helper_bypass"),
    ("table3", "table3_per_process_limits"),
    ("table4", "table4_prebuilt_apps"),
    ("table5", "table5_third_party"),
    ("fig3", "fig3_exhaustion"),
    ("fig4", "fig4_benign_baseline"),
    ("fig5", "fig5_exec_growth"),
    ("fig6", "fig6_exec_cdf"),
    ("fig8", "fig8_detection"),
    ("fig9", "fig9_collusion"),
    ("fig10", "fig10_overhead"),
    ("response", "response_delay"),
    ("defend", "defense_effectiveness"),
    ("ablations", "ablation_thresholds"),
    ("ablations", "ablation_delta"),
    ("ablations", "ablation_placement"),
    ("ablations", "ablation_multipath"),
];

fn pretty<T: serde::Serialize>(data: &T) -> String {
    serde_json::to_string_pretty(data).expect("experiment structs serialise")
}

/// Computes the artifact listed in [`ARTIFACTS`] as `name`: its JSON
/// and its rendered text.
fn artifact(name: &str, scale: ExperimentScale) -> (String, String) {
    macro_rules! result {
        ($r:expr) => {{
            let r = $r;
            (pretty(&r), r.render())
        }};
    }
    let paper = scale.jgr_capacity == jgre_core::art::MAX_GLOBAL_REFS;
    match name {
        "t_analysis_headline" => result!(experiments::analysis_headline(scale)),
        "table1_unprotected" => result!(experiments::table1(scale)),
        "table2_helper_bypass" => result!(experiments::table2(scale)),
        "table3_per_process_limits" => result!(experiments::table3(scale)),
        "table4_prebuilt_apps" => result!(experiments::table4(scale)),
        "table5_third_party" => result!(experiments::table5(scale)),
        "fig3_exhaustion" => result!(experiments::fig3(scale)),
        // The paper's protocol: 300 apps in 3 rounds of 100, two minutes each.
        "fig4_benign_baseline" => {
            let (apps, secs) = if paper { (300, 120) } else { (60, 20) };
            result!(experiments::fig4(scale, apps, secs))
        }
        "fig5_exec_growth" => result!(experiments::fig5(scale)),
        "fig6_exec_cdf" => result!(experiments::fig6(scale, if paper { 1_000 } else { 200 })),
        "fig8_detection" => result!(experiments::fig8(scale, 10, usize::MAX)),
        "fig9_collusion" => result!(experiments::fig9(scale)),
        "fig10_overhead" => result!(experiments::fig10(scale, 500)),
        "response_delay" => result!(experiments::response_delay(scale)),
        "defense_effectiveness" => result!(experiments::defense_effectiveness(scale)),
        "ablation_thresholds" => result!(experiments::threshold_sensitivity()),
        "ablation_delta" => result!(experiments::delta_sensitivity()),
        "ablation_placement" => result!(experiments::placement_comparison()),
        "ablation_multipath" => result!(experiments::multipath_comparison()),
        other => unreachable!("{other} is not in ARTIFACTS"),
    }
}

/// Prints one result — its JSON with `--json`, else its rendered text —
/// after writing both when `out` names a file: the JSON to `out` and the
/// text beside it with a `.txt` extension. Every caller's JSON excludes
/// threads and wall-clock, so two runs with the same seed write
/// identical bytes.
fn emit(
    options: &Options,
    out: Option<&std::path::Path>,
    json: String,
    rendered: String,
) -> Result<(), String> {
    if let Some(path) = out {
        std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let txt = path.with_extension("txt");
        std::fs::write(&txt, &rendered).map_err(|e| format!("writing {}: {e}", txt.display()))?;
    }
    say(if options.json { json } else { rendered });
    Ok(())
}

/// Runs the [`ARTIFACTS`] rows in order. With more than one row, `--out`
/// names a directory that receives `<name>.json` and `<name>.txt` per
/// row; with one, it names the JSON file itself.
fn run_artifacts(rows: &[(&str, &str)], options: &Options) -> Result<(), String> {
    let into_dir = rows.len() > 1;
    if let Some(dir) = options.out.as_ref().filter(|_| into_dir) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    for &(_, name) in rows {
        if into_dir {
            eprintln!("== {name} ==");
        }
        let out = options.out.as_ref().map(|out| {
            if into_dir {
                out.join(format!("{name}.json"))
            } else {
                out.clone()
            }
        });
        let (json, rendered) = artifact(name, options.scale);
        emit(options, out.as_deref(), json, rendered)?;
    }
    Ok(())
}

fn run(command: &str, options: &Options) -> Result<(), String> {
    let scale = options.scale;
    let out = options.out.as_deref();
    match command {
        "lint" => {
            let spec = jgre_corpus::AospSpec::android_6_0_1();
            let model = jgre_corpus::CodeModel::synthesize(&spec);
            let report = jgre_analysis::LintReport::generate_with(&model, &spec, &options.analysis);
            let rendered = if options.json {
                serde_json::to_string_pretty(&report).expect("lint report serialises")
            } else {
                serde_json::to_string_pretty(&report.to_sarif(&model)).expect("SARIF serialises")
            };
            say(rendered);
            // The solver/cache footer goes to stderr so stdout stays
            // pure JSON for downstream SARIF consumers.
            eprintln!(
                "summaries: {} (hits {}, misses {})",
                report.stats.methods, report.stats.cache_hits, report.stats.cache_misses
            );
            // Machine-greppable score line for the CI accuracy gate.
            eprintln!(
                "accuracy: tp={} fp={} fn={}",
                report.accuracy.true_positives,
                report.accuracy.false_positives,
                report.accuracy.false_negatives
            );
        }
        "chaos" => {
            if options.list_cells {
                for id in experiments::chaos_cell_ids(options.fault) {
                    say(id);
                }
                return Ok(());
            }
            let matrix = experiments::chaos_matrix(scale, options.fault);
            emit(options, out, pretty(&matrix), matrix.render())?;
            if matrix.violations > 0 {
                return Err(format!(
                    "chaos matrix: {} recovery-invariant violation(s)",
                    matrix.violations
                ));
            }
        }
        "fleet" => {
            let attack = match options.attack.as_deref() {
                None | Some("all") => None,
                Some(selector) => {
                    let spec = jgre_corpus::AospSpec::android_6_0_1();
                    match jgre_core::attack::AttackVector::resolve(&spec, selector) {
                        Some((index, _)) => Some(index),
                        None => {
                            return Err(format!(
                                "unknown attack selector: {selector} (use a catalog index, \
                                 a service.method label, or 'all')"
                            ))
                        }
                    }
                }
            };
            let config = jgre_core::fleet::FleetConfig {
                devices: options.devices,
                threads: options.threads.unwrap_or(1),
                scale,
                campaign_seed: scale.seed,
                attack,
                max_calls: None,
            };
            let started = std::time::Instant::now();
            let summary = jgre_core::run_campaign(&config);
            let elapsed = started.elapsed();
            emit(options, out, pretty(&summary), summary.render())?;
            // Throughput is wall-clock and thread-dependent, so it goes to
            // stderr only; stdout and --out stay byte-reproducible.
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                summary.devices as f64 / secs
            } else {
                0.0
            };
            eprintln!(
                "fleet: {} devices in {:.2}s — {:.0} devices/sec on {} thread(s)",
                summary.devices, secs, rate, config.threads
            );
        }
        "fuzz" => {
            let config = jgre_fuzz::FuzzConfig {
                seed: scale.seed,
                iters: options.iters,
                threads: options.threads.unwrap_or(1),
                attack_surface: options.attack_surface,
                scale,
                services: None,
            };
            let started = std::time::Instant::now();
            let report = jgre_fuzz::run_fuzz(&config);
            let fuzz_elapsed = started.elapsed();
            // Differential stage: cross-check the dynamic findings
            // against the static lint, replaying lint-only predictions.
            let spec = jgre_corpus::AospSpec::android_6_0_1();
            let model = jgre_corpus::CodeModel::synthesize(&spec);
            let lint = jgre_analysis::LintReport::generate_with(&model, &spec, &options.analysis);
            let diff = jgre_fuzz::differential(&report, &lint.diagnostics, scale, config.seed);
            let artifact = jgre_fuzz::FuzzArtifact {
                fuzz: report,
                differential: diff,
            };
            emit(options, out, artifact.to_json(), artifact.render())?;
            // Throughput is wall-clock and machine-dependent: stderr only.
            let secs = fuzz_elapsed.as_secs_f64();
            let total_execs = artifact.fuzz.execs + artifact.fuzz.minimize_execs;
            let (exec_rate, finding_rate) = if secs > 0.0 {
                (
                    total_execs as f64 / secs,
                    artifact.fuzz.findings.len() as f64 / secs,
                )
            } else {
                (0.0, 0.0)
            };
            eprintln!(
                "fuzz: {} execs in {:.2}s — {:.0} execs/sec, {:.2} findings/sec on {} thread(s)",
                total_execs, secs, exec_rate, finding_rate, config.threads
            );
        }
        "serve" => {
            let mut source = jgre_core::sim::source::SourceConfig {
                seed: scale.seed,
                events_per_sec: options.events_per_sec,
                duration: jgre_core::sim::SimDuration::from_micros(
                    (options.duration_secs * 1e6) as u64,
                ),
                ..jgre_core::sim::source::SourceConfig::default()
            };
            match options.attack.as_deref() {
                None | Some("all") => {}
                Some(selector) => {
                    let spec = jgre_corpus::AospSpec::android_6_0_1();
                    let Some((_, vector)) =
                        jgre_core::attack::AttackVector::resolve(&spec, selector)
                    else {
                        return Err(format!(
                            "unknown attack selector: {selector} (use a catalog index or a \
                             service.method label)"
                        ));
                    };
                    // Tap the vector on a simulated device and drive the
                    // synthetic stream with its measured timing signature.
                    let tap = jgre_core::tap_attack_events(scale, &vector, 40);
                    match tap.characteristic_delay() {
                        Some(delay) => source.attack_delay = delay,
                        None => {
                            return Err(format!(
                                "attack {selector} produced no IPC→JGR pairs to profile"
                            ))
                        }
                    }
                }
            }
            let config = jgre_core::defense::stream::ServeConfig {
                source,
                threads: options.threads.unwrap_or(1) as u32,
                ..jgre_core::defense::stream::ServeConfig::default()
            };
            let started = std::time::Instant::now();
            let report = jgre_core::defense::stream::run_serve(&config)
                .map_err(|e| format!("serve: {e}"))?;
            let elapsed = started.elapsed();
            emit(options, out, report.to_json(), report.render())?;
            // Throughput is wall-clock and machine-dependent: stderr only.
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                report.ingest.offered as f64 / secs
            } else {
                0.0
            };
            eprintln!(
                "serve: {} events in {:.2}s — {:.0} events/sec on {} thread(s)",
                report.ingest.offered, secs, rate, config.threads
            );
        }
        "all" => run_artifacts(&ARTIFACTS, options)?,
        command => {
            let rows: Vec<_> = ARTIFACTS
                .into_iter()
                .filter(|&(c, _)| c == command)
                .collect();
            if rows.is_empty() {
                return Err(format!("unknown command: {command}\n\n{USAGE}"));
            }
            run_artifacts(&rows, options)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::quick();
    let mut json = false;
    let mut analysis = jgre_analysis::AnalysisOptions::default();
    let mut fault = None;
    let mut out = None;
    let mut list_cells = false;
    let mut threads = None;
    let mut devices = 1_000u64;
    let mut attack = None;
    let mut events_per_sec = 10_000u64;
    let mut duration_secs = 1.0f64;
    let mut iters = 320_000u64;
    let mut attack_surface = jgre_fuzz::AttackSurface::All;
    let mut command = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => scale = ExperimentScale::paper(),
            "--scale" => match iter.next().map(String::as_str) {
                // with_seed keeps an earlier --seed override in force
                // regardless of flag order.
                Some("quick") => scale = ExperimentScale::quick().with_seed(scale.seed),
                Some("paper") => scale = ExperimentScale::paper().with_seed(scale.seed),
                _ => {
                    eprintln!("--scale needs 'quick' or 'paper'\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--devices" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => devices = n,
                _ => {
                    eprintln!("--devices needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--attack" => match iter.next() {
                Some(selector) => attack = Some(selector.clone()),
                None => {
                    eprintln!("--attack needs a selector (or 'all')\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--events-per-sec" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => events_per_sec = n,
                _ => {
                    eprintln!("--events-per-sec needs a positive number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--duration" => match iter.next().map(|s| s.parse::<f64>()) {
                Some(Ok(s)) if s > 0.0 => duration_secs = s,
                _ => {
                    eprintln!("--duration needs a positive number of seconds\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--iters" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => iters = n,
                _ => {
                    eprintln!("--iters needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--attack-surface" => {
                match iter.next().and_then(|s| jgre_fuzz::AttackSurface::parse(s)) {
                    Some(surface) => attack_surface = surface,
                    None => {
                        eprintln!("--attack-surface needs 'all', 'sdk', or 'hidden'\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            "--seed" => match iter.next().map(|s| s.parse::<u64>()) {
                Some(Ok(seed)) => scale = scale.with_seed(seed),
                _ => {
                    eprintln!("--seed needs a number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match iter.next() {
                Some(dir) => analysis.cache_dir = Some(dir.into()),
                None => {
                    eprintln!("--cache-dir needs a directory\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--path-insensitive" => analysis.path_sensitive = false,
            "--threads" => match iter.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => {
                    analysis.threads = Some(n);
                    threads = Some(n);
                }
                _ => {
                    eprintln!("--threads needs a positive number\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--fault" => match iter.next().map(String::as_str) {
                Some("all") => fault = None,
                Some(name) => match jgre_core::sim::FaultKind::parse(name) {
                    Some(kind) => fault = Some(kind),
                    None => {
                        eprintln!("unknown fault kind: {name}\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--fault needs a kind (or 'all')\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--list-cells" => list_cells = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.into()),
                None => {
                    eprintln!("--out needs a path\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                say(USAGE);
                return ExitCode::SUCCESS;
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_owned());
            }
            other => {
                eprintln!("unexpected argument: {other}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match run(
        &command,
        &Options {
            scale,
            json,
            analysis,
            fault,
            out,
            list_cells,
            threads,
            devices,
            attack,
            events_per_sec,
            duration_secs,
            iters,
            attack_surface,
        },
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
