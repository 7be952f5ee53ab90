//! Distributed sweep driver: the same grid `sweep` runs, spread across
//! worker processes that rendezvous over a Unix socket.
//!
//! ```text
//! # one-command fleet: coordinator + 4 spawned workers
//! cargo run -p bench --release --bin campaign -- coordinate --spawn 4 \
//!     [BENCH ...] [--system NAME]... [--tiny] [common flags]
//!
//! # or launch the pieces yourself (any mix of both styles works):
//! campaign coordinate --socket /tmp/c.sock --tiny &
//! campaign work --socket /tmp/c.sock --tiny &
//! campaign work --socket /tmp/c.sock --tiny &
//! ```
//!
//! The coordinator owns the report: stdout is byte-identical to `sweep`
//! over the same grid, however many workers ran, died, or were SIGKILLed
//! along the way. Workers are disposable — lost leases are detected by
//! socket EOF, missed heartbeats, or a hard per-lease deadline, and
//! their cells are reassigned. A SIGKILLed *coordinator* restarted with
//! `--resume` recalls completed cells from its fsynced journal and the
//! shared result cache, and still prints the identical table.
//!
//! Coordinator-only flags:
//!
//! ```text
//! --socket PATH      rendezvous socket (default: $TMPDIR/getm-campaign.sock)
//! --spawn N          also fork N worker processes wired to the socket
//! --heartbeat-ms MS  worker heartbeat interval (default 2000)
//! --lease-ms MS      hard wall-clock bound per lease, all of its cells'
//!                    attempts included (default 120000)
//! --chunk N          cells granted per lease (default 1)
//! --max-deaths N     reassignments before a cell is abandoned (default 5)
//! ```
//!
//! `campaign work` takes `--socket PATH` plus the same grid/common flags
//! as the coordinator — both sides must describe the same grid (the
//! handshake verifies this by digest).

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    unix::main()
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("campaign: distributed campaigns need Unix domain sockets");
    std::process::ExitCode::FAILURE
}

#[cfg(unix)]
mod unix {
    use bench::cli::exit_usage;
    use bench::grid::{render_report, GridArgs, GRID_USAGE};
    use gputm::campaign::{coordinate, work, CampaignOptions};
    use std::path::PathBuf;
    use std::process::ExitCode;
    use std::time::Duration;

    const USAGE: &str = "usage: campaign <coordinate|work> [flags]\n\
        coordinate: --socket PATH --spawn N --heartbeat-ms MS --lease-ms MS \
        --chunk N --max-deaths N + grid/common flags\n\
        work:       --socket PATH + grid/common flags";

    /// The full usage text: subcommands, then the grid and common flags.
    fn usage() -> String {
        format!("{USAGE}\n\n{GRID_USAGE}\n\n{}", bench::cli::USAGE)
    }

    /// Parses the grid and common flags both subcommands share, exiting
    /// through [`exit_usage`] on a bad one.
    fn parse_grid(argv: Vec<String>) -> (gputm::sweep::ExperimentSpec, bench::cli::Args) {
        let (grid, rest) = GridArgs::strip_from(argv).unwrap_or_else(|e| exit_usage(&e, &usage()));
        let args = bench::cli::Args::parse_from(rest).unwrap_or_else(|e| exit_usage(&e, &usage()));
        let spec = grid
            .build_spec(&args)
            .unwrap_or_else(|e| exit_usage(&e, &usage()));
        (spec, args)
    }

    /// Coordinator-only flags, stripped before the shared parsers run.
    struct CampaignArgs {
        cfg: CampaignOptions,
        spawn: usize,
    }

    fn default_socket() -> PathBuf {
        std::env::temp_dir().join("getm-campaign.sock")
    }

    /// Strips `--socket`/`--spawn`/`--heartbeat-ms`/`--lease-ms`/
    /// `--chunk`/`--max-deaths` out of `argv`, returning them plus the
    /// remaining (grid + common) arguments.
    fn strip_campaign_flags(argv: Vec<String>) -> Result<(CampaignArgs, Vec<String>), String> {
        let mut out = CampaignArgs {
            cfg: CampaignOptions::at(default_socket()),
            spawn: 0,
        };
        let mut rest = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut num = |flag: &str| -> Result<u64, String> {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                v.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{flag} needs a positive integer, got {v:?}"))
            };
            match arg.as_str() {
                "--socket" => {
                    out.cfg.socket = it
                        .next()
                        .map(PathBuf::from)
                        .ok_or("--socket needs a value")?;
                }
                "--spawn" => out.spawn = num("--spawn")? as usize,
                "--heartbeat-ms" => {
                    let ms = num("--heartbeat-ms")?;
                    out.cfg = out.cfg.heartbeat(Duration::from_millis(ms));
                }
                "--lease-ms" => {
                    let ms = num("--lease-ms")?;
                    out.cfg = out.cfg.lease_timeout(Duration::from_millis(ms));
                }
                "--chunk" => out.cfg = out.cfg.chunk(num("--chunk")? as usize),
                "--max-deaths" => out.cfg = out.cfg.max_deaths(num("--max-deaths")? as u32),
                other => rest.push(other.to_string()),
            }
        }
        Ok((out, rest))
    }

    /// The arguments a spawned worker gets: the coordinator's grid and
    /// common flags, minus the coordinator-only concerns (telemetry
    /// sinks, resume, the live dashboard — the coordinator owns all
    /// three).
    fn worker_argv(shared: &[String], socket: &std::path::Path) -> Vec<String> {
        let mut out = vec!["work".to_string()];
        let mut it = shared.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--telemetry" => {
                    it.next();
                }
                "--live" | "--resume" => {}
                other => out.push(other.to_string()),
            }
        }
        out.push("--socket".to_string());
        out.push(socket.display().to_string());
        out
    }

    pub fn main() -> ExitCode {
        let mut argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.is_empty() {
            exit_usage("missing subcommand", &usage());
        }
        let sub = argv.remove(0);
        let result = match sub.as_str() {
            "coordinate" => coordinate_main(argv),
            "work" => work_main(argv),
            other => exit_usage(&format!("unknown subcommand {other:?}"), &usage()),
        };
        result.unwrap_or_else(|e| {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        })
    }

    fn coordinate_main(argv: Vec<String>) -> Result<ExitCode, String> {
        let (campaign, shared) =
            strip_campaign_flags(argv).unwrap_or_else(|e| exit_usage(&e, &usage()));
        let (spec, args) = parse_grid(shared.clone());
        let opts = args.sweep_options();

        // Workers first: they retry the connect long enough to cover the
        // coordinator still binding the socket.
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let wargv = worker_argv(&shared, &campaign.cfg.socket);
        let mut children = Vec::new();
        for _ in 0..campaign.spawn {
            let child = std::process::Command::new(&exe)
                .args(&wargv)
                .spawn()
                .map_err(|e| format!("cannot spawn worker: {e}"))?;
            children.push(child);
        }

        let cfg = campaign.cfg.workers_hint(campaign.spawn);
        let report = coordinate(spec.cells(), &opts, &cfg).map_err(|e| e.to_string())?;

        for mut child in children {
            match child.wait() {
                Ok(status) if !status.success() => {
                    // A worker that died or erred is survivable by design;
                    // the report above already accounts for its cells.
                    eprintln!("campaign: spawned worker exited with {status}");
                }
                Ok(_) => {}
                Err(e) => eprintln!("campaign: could not reap worker: {e}"),
            }
        }
        Ok(render_report(&report, spec.len(), "campaign"))
    }

    fn work_main(argv: Vec<String>) -> Result<ExitCode, String> {
        let mut socket = None;
        let mut rest = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--socket" => match it.next() {
                    Some(v) => socket = Some(PathBuf::from(v)),
                    None => exit_usage("--socket needs a value", &usage()),
                },
                other => rest.push(other.to_string()),
            }
        }
        let socket = socket.unwrap_or_else(default_socket);
        let (spec, args) = parse_grid(rest);
        let opts = args.sweep_options();
        work(spec.cells(), &opts, &socket).map_err(|e| e.to_string())?;
        Ok(ExitCode::SUCCESS)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn no_flags_yield_the_campaign_option_defaults() {
            let (args, rest) = strip_campaign_flags(vec!["--tiny".to_string()]).unwrap();
            // The defaults the module docs advertise.
            assert_eq!(args.cfg.socket, default_socket());
            assert_eq!(args.cfg.heartbeat, Duration::from_millis(2000));
            assert_eq!(args.cfg.lease_timeout, Duration::from_millis(120_000));
            assert_eq!(args.cfg.chunk, 1);
            assert_eq!(args.cfg.max_deaths, 5);
            assert_eq!(args.spawn, 0);
            assert_eq!(rest, ["--tiny"]);
        }
    }
}
