//! CLI for the experiment harnesses.
//!
//! ```text
//! experiments <id>... [--quick] [--jobs N] [--json [DIR]] [--csv]
//!                     [--trace FILE] [--metrics]
//! experiments all [--quick] [--jobs N]
//! experiments list
//! ```
//!
//! `--jobs N` caps the scenario-parallel driver at `N` workers (`--jobs 1`
//! forces fully serial execution; output is byte-identical either way).
//! `--json` prints JSON to stdout; `--json DIR` writes one
//! `DIR/<id>.json` file per experiment instead.
//! `--trace FILE` writes every scenario's structured trace events as JSON
//! Lines (scenario header line, then one event per line); the file is
//! byte-identical for any `--jobs` count. `--metrics` dumps each
//! scenario's counters/gauges/latency quantiles — to `DIR/<id>.metrics.json`
//! alongside `--json DIR`, to stdout otherwise. Without either flag no sink
//! is ever attached and output bytes are unchanged.

use nvhsm_experiments::obs::{self, MetricsDump, ObsOptions, ScenarioHeader, ScenarioMetrics};
use nvhsm_experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
use nvhsm_obs::MetricsRegistry;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    ids: Vec<String>,
    quick: bool,
    json: bool,
    json_dir: Option<PathBuf>,
    csv: bool,
    jobs: Option<usize>,
    trace: Option<PathBuf>,
    metrics: bool,
}

fn usage() {
    eprintln!(
        "usage: experiments <id>... [--quick] [--jobs N] [--json [DIR]] [--csv] \
         [--trace FILE] [--metrics]"
    );
    eprintln!("known experiments: {}", ALL_EXPERIMENTS.join(", "));
    eprintln!("`all` runs everything in paper order");
    eprintln!("`--jobs N` caps parallel workers (1 = serial; same output either way)");
    eprintln!("`--json DIR` writes DIR/<id>.json per experiment instead of stdout");
    eprintln!("`--trace FILE` writes per-scenario trace events as JSON Lines");
    eprintln!("`--metrics` dumps per-scenario counters/gauges/latency quantiles");
}

fn is_experiment_word(word: &str) -> bool {
    word == "all" || word == "list" || ALL_EXPERIMENTS.contains(&word)
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        ids: Vec::new(),
        quick: false,
        json: false,
        json_dir: None,
        csv: false,
        jobs: None,
        trace: None,
        metrics: false,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => cli.quick = true,
            "--csv" => cli.csv = true,
            "--json" => {
                cli.json = true;
                // An optional value: anything that is not a flag and not an
                // experiment name is the output directory.
                if let Some(next) = args.get(i + 1) {
                    if !next.starts_with("--") && !is_experiment_word(next) {
                        cli.json_dir = Some(PathBuf::from(next));
                        i += 1;
                    }
                }
            }
            "--jobs" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| "--jobs needs a value".to_string())?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got {value:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                cli.jobs = Some(n);
                i += 1;
            }
            "--trace" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| "--trace needs a file path".to_string())?;
                cli.trace = Some(PathBuf::from(value));
                i += 1;
            }
            "--metrics" => cli.metrics = true,
            _ if arg.starts_with("--") => {
                return Err(format!("unknown flag {arg:?}"));
            }
            _ => cli.ids.push(arg.to_string()),
        }
        i += 1;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    if cli.ids.is_empty() || cli.ids == ["list"] {
        usage();
        return if cli.ids == ["list"] {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    nvhsm_sim::parallel::set_jobs(cli.jobs);
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    let ids: Vec<&str> = if cli.ids == ["all"] {
        ALL_EXPERIMENTS.to_vec()
    } else {
        cli.ids.iter().map(String::as_str).collect()
    };

    if let Some(dir) = &cli.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let obs_opts = ObsOptions {
        trace: cli.trace.is_some(),
        metrics: cli.metrics,
    };
    let mut trace_out = match &cli.trace {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("error: cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    for id in ids {
        obs::set_observation(obs_opts);
        match run_experiment(id, scale) {
            Ok(result) => {
                if let Err(e) = dump_observations(id, &cli, &mut trace_out) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                let json_body = if cli.json {
                    match serde_json::to_string_pretty(&result) {
                        Ok(body) => Some(body),
                        Err(e) => {
                            eprintln!("error: cannot serialize {id} result: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    None
                };
                if let (Some(dir), Some(body)) = (&cli.json_dir, &json_body) {
                    let path = dir.join(format!("{id}.json"));
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {}", path.display());
                } else if let Some(body) = json_body {
                    println!("{body}");
                } else if cli.csv {
                    println!("{}", result.to_csv());
                } else {
                    println!("{}", result.render());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(out) = &mut trace_out {
        if let Err(e) = out.flush() {
            eprintln!("error: cannot flush trace file: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Drains the scenario captures of one finished experiment: appends them to
/// the trace file and emits the metrics dump.
fn dump_observations(
    id: &str,
    cli: &Cli,
    trace_out: &mut Option<std::io::BufWriter<std::fs::File>>,
) -> Result<(), String> {
    let scenarios = obs::take_observations();
    if let Some(out) = trace_out {
        for s in &scenarios {
            let header = ScenarioHeader {
                experiment: id.to_owned(),
                grid: s.grid,
                case: s.case,
                label: s.label.clone(),
                events: s.obs.events.len() as u64,
                dropped: s.obs.dropped,
            };
            let line = serde_json::to_string(&header)
                .map_err(|e| format!("cannot serialize trace header: {e}"))?;
            writeln!(out, "{line}").map_err(|e| format!("cannot write trace file: {e}"))?;
            for event in &s.obs.events {
                let line = serde_json::to_string(event)
                    .map_err(|e| format!("cannot serialize trace event: {e}"))?;
                writeln!(out, "{line}").map_err(|e| format!("cannot write trace file: {e}"))?;
            }
            if s.obs.dropped > 0 {
                eprintln!(
                    "note: {id} scenario {} overflowed the trace ring; {} oldest events dropped",
                    s.label, s.obs.dropped
                );
            }
        }
    }
    if cli.metrics {
        let dump = MetricsDump {
            experiment: id.to_owned(),
            scenarios: scenarios
                .iter()
                .filter_map(|s| {
                    s.obs.metrics.as_ref().map(|snap| ScenarioMetrics {
                        label: s.label.clone(),
                        report: MetricsRegistry::restore(snap).report(),
                    })
                })
                .collect(),
        };
        let body = serde_json::to_string_pretty(&dump)
            .map_err(|e| format!("cannot serialize {id} metrics: {e}"))?;
        if let Some(dir) = &cli.json_dir {
            let path = dir.join(format!("{id}.metrics.json"));
            std::fs::write(&path, &body)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        } else {
            println!("{body}");
        }
    }
    Ok(())
}
