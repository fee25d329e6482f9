//! Service configuration and command-line parsing.
//!
//! This is the **only** file in the serving stack that reads the process
//! environment (`std::env`): everything downstream takes an explicit
//! [`ServeConfig`], so a server's behavior is fully determined by the
//! config value it was started with. The workspace linter enforces this
//! split (`env` rule, exempted for files named `config.rs`).

use battery_sched::optimal::DEFAULT_BUDGET;

/// Tuning knobs of a [`Server`](crate::Server).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue answers `overloaded`.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains into one micro-batched engine call.
    pub batch_max: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with an `oversized` error.
    pub max_line_bytes: usize,
    /// Largest optimal-search node budget an `interactive` request may ask
    /// for; bigger asks are refused at admission.
    pub interactive_budget: usize,
    /// Largest optimal-search node budget a `batch` request may ask for.
    pub batch_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 1024,
            batch_max: 64,
            max_line_bytes: 64 * 1024,
            interactive_budget: 2_000_000,
            batch_budget: DEFAULT_BUDGET,
        }
    }
}

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Answer requests from stdin, responses to stdout, exit at EOF.
    Stdin,
    /// Accept TCP connections on the given address, one protocol stream
    /// per connection.
    Listen(String),
    /// Run the self-contained smoke benchmark: fire a mixed burst through
    /// an in-process server, write `BENCH_serve.json`, gate a throughput
    /// floor.
    Smoke {
        /// Minimum sustained throughput in requests/second (0 disables the
        /// gate).
        min_throughput: f64,
        /// Where to write the benchmark artifact.
        bench_out: String,
    },
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The requested mode.
    pub mode: Mode,
    /// Service tuning (defaults overridden by flags).
    pub config: ServeConfig,
}

/// The usage text printed for `--help` and argument errors.
pub const USAGE: &str = "served: battery-scheduling service (line-delimited JSON requests)

USAGE:
    served --stdin
    served --listen ADDR            e.g. --listen 127.0.0.1:7070; port 0 picks a
                                    free port (the bound address goes to stderr)
    served --smoke [--min-throughput RPS] [--bench-out PATH]

OPTIONS:
    --workers N           worker threads (default 2)
    --queue N             request queue capacity (default 1024)
    --batch N             max requests per micro-batch (default 64)
    --max-line N          max request line bytes (default 65536)
    --min-throughput RPS  smoke: minimum sustained requests/second (default 50)
    --bench-out PATH      smoke: artifact path (default BENCH_serve.json)
    --help                print this text";

/// Parses the process arguments into a [`Cli`].
///
/// # Errors
///
/// Returns a human-readable message (print it with [`USAGE`]) for unknown
/// flags, missing values or conflicting modes. A `--help` request is
/// reported as the error string `"help"`.
pub fn parse_args() -> Result<Cli, String> {
    parse_arg_list(std::env::args().skip(1))
}

/// Flag parsing over an explicit argument list (testable without a
/// process environment).
///
/// # Errors
///
/// See [`parse_args`].
pub fn parse_arg_list<I: Iterator<Item = String>>(mut args: I) -> Result<Cli, String> {
    let mut mode: Option<Mode> = None;
    let mut config = ServeConfig::default();
    let mut min_throughput = 50.0;
    let mut bench_out = "BENCH_serve.json".to_owned();
    let mut smoke = false;

    fn set_mode(slot: &mut Option<Mode>, mode: Mode) -> Result<(), String> {
        match slot {
            Some(_) => Err("give exactly one of --stdin, --listen, --smoke".to_owned()),
            None => {
                *slot = Some(mode);
                Ok(())
            }
        }
    }

    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--stdin" => set_mode(&mut mode, Mode::Stdin)?,
            "--listen" => {
                let addr = value("--listen")?;
                set_mode(&mut mode, Mode::Listen(addr))?;
            }
            "--smoke" => {
                smoke = true;
                set_mode(&mut mode, Mode::Stdin)?; // placeholder, rewritten below
            }
            "--workers" => config.workers = parse_usize("--workers", &value("--workers")?)?,
            "--queue" => config.queue_capacity = parse_usize("--queue", &value("--queue")?)?,
            "--batch" => config.batch_max = parse_usize("--batch", &value("--batch")?)?,
            "--max-line" => {
                config.max_line_bytes = parse_usize("--max-line", &value("--max-line")?)?;
            }
            "--min-throughput" => {
                let raw = value("--min-throughput")?;
                min_throughput = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("--min-throughput: invalid value '{raw}'"))?;
            }
            "--bench-out" => bench_out = value("--bench-out")?,
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let mode = match (smoke, mode) {
        (true, _) => Mode::Smoke { min_throughput, bench_out },
        (false, Some(mode)) => mode,
        (false, None) => return Err("give one of --stdin, --listen, --smoke".to_owned()),
    };
    if config.workers == 0 || config.queue_capacity == 0 || config.batch_max == 0 {
        return Err("--workers, --queue and --batch must be at least 1".to_owned());
    }
    Ok(Cli { mode, config })
}

fn parse_usize(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>().map_err(|_| format!("{flag}: invalid value '{raw}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_arg_list(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_modes_and_overrides() {
        let cli = parse(&["--stdin", "--workers", "4", "--queue", "8"]).unwrap();
        assert_eq!(cli.mode, Mode::Stdin);
        assert_eq!(cli.config.workers, 4);
        assert_eq!(cli.config.queue_capacity, 8);

        let cli = parse(&["--listen", "127.0.0.1:7070"]).unwrap();
        assert_eq!(cli.mode, Mode::Listen("127.0.0.1:7070".to_owned()));

        let cli = parse(&["--smoke", "--min-throughput", "10", "--bench-out", "x.json"]).unwrap();
        assert_eq!(cli.mode, Mode::Smoke { min_throughput: 10.0, bench_out: "x.json".into() });
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--stdin", "--listen", "x"]).is_err());
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "zero"]).is_err());
        assert!(parse(&["--workers", "0", "--stdin"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }
}
