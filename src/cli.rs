//! Parsing and formatting helpers for the `maxrs` command-line tool.
//!
//! The binary (`src/bin/maxrs.rs`) is a thin wrapper around these functions so
//! that everything interesting — CSV parsing, query-spec parsing, result
//! formatting — is unit-testable without spawning processes.
//!
//! Two tables drive the command line.  `FLAGS` declares every flag once: what
//! it takes and which subcommands accept it.  `QUERY_KINDS` declares every
//! query kind once: problem, solver, shape, `ε` bound and report line; the
//! single-query subcommands and the batch-script parser both read it.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use mrs_geom::{ColoredSite, WeightedPoint};

use crate::engine::{
    registry_with, BatchAnswer, BatchExecutor, BatchQuery, DimSupport, EngineConfig,
    ExecutorConfig, Mutation, Phase, ProblemKind, RangeShape, ScriptOutcome, ScriptStep,
    ShapeClass, SolveStats, TraceRecorder, VersionedDataset,
};
use crate::server::ServerConfig;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// One query over a CSV file, answered as a certified one-query batch
    /// (`disk`, `disk-approx`, `rect`, `colored-disk`, `colored-disk-approx`).
    Query {
        /// The query kind (see [`QueryKind::subcommand`]).
        kind: &'static QueryKind,
        /// The range shape as given on the command line; it is checked when
        /// the query runs.
        shape: RangeShape<2>,
        /// Approximation parameter (`--eps`, where the kind takes one).
        eps: f64,
        /// Input CSV path.
        path: String,
    },
    /// Batch execution: many queries over one point set through the
    /// shared-index executor (`batch --queries Q [--threads N] [--eps E]
    /// [--deadline-ms MS] [--trace] <file>`).
    Batch {
        /// Path of the query-list file.
        queries: String,
        /// Worker threads (`None` lets the executor pick).
        threads: Option<usize>,
        /// Approximation parameter for the approximate solvers in the batch.
        eps: f64,
        /// Compute deadline for the whole batch, in milliseconds; queries
        /// still unanswered at the deadline fail typed (`None` disables it).
        deadline_ms: Option<u64>,
        /// Print one phase-timed trace line per executed query.
        trace: bool,
        /// Input CSV path.
        path: String,
    },
    /// Long-lived query service (`serve --addr HOST:PORT ...`; see [`USAGE`]).
    Serve {
        /// The service configuration the flags describe.
        config: ServerConfig,
        /// Datasets to load into the catalog at startup, as
        /// `(name, path, dim)` where `dim` is 1 (`name=path@1d`, 1-D
        /// `x[,weight]` CSV) or 2 (`name=path`, planar batch CSV).
        datasets: Vec<(String, String, usize)>,
    },
    /// Mutate a dataset resident in a running `maxrs serve` instance
    /// (`mutate --addr HOST:PORT --dataset NAME [--delete] <records.csv>`).
    Mutate {
        /// Address of the running server, `HOST:PORT`.
        addr: String,
        /// Name of the resident dataset to mutate.
        dataset: String,
        /// `true` to delete the records (bare coordinates); `false` to
        /// insert them (the dataset's own CSV record shape).
        delete: bool,
        /// Path of the mutation CSV file.
        path: String,
    },
    /// List the solvers registered with the engine (`solvers`).
    Solvers,
    /// Print usage.
    Help,
}

/// Errors produced while parsing arguments or input files.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(message.into()))
}

/// The usage string printed by `maxrs help`.
pub const USAGE: &str = "\
maxrs — maximum range sum queries over CSV point files

USAGE:
    maxrs disk                --radius R            <points.csv>
    maxrs disk-approx         --radius R --eps E    <points.csv>
    maxrs rect                --width W --height H  <points.csv>
    maxrs colored-disk        --radius R            <colored.csv>
    maxrs colored-disk-approx --radius R --eps E    <colored.csv>
    maxrs batch --queries <script.txt> [--threads N] [--eps E]
                [--deadline-ms MS] [--trace] <points.csv>
    maxrs serve --addr HOST:PORT [--threads N] [--eps E] [--seed S]
                [--slow-query-ms MS] [--request-timeout-ms MS]
                [--queue-capacity N] [--max-inflight N]
                [--overload-watermark F] [--dataset name=path[@1d]]...
    maxrs mutate --addr HOST:PORT --dataset NAME [--delete] <records.csv>
    maxrs solvers

Every query runs through the solver engine's batch executor and is
certified against its input: a single-query command is a one-query batch
over its file, and an answer that fails certification is an error.
`maxrs solvers` lists the registered solvers with their capabilities and
guarantees.  `maxrs batch` answers a file of queries over one point set
(spatial indexes built once, queries fanned out over a worker pool).
`maxrs serve` keeps datasets resident behind an HTTP/1.1 query service
with per-dataset shared indexes and an answer cache; datasets load at
startup from repeated `--dataset name=path` flags (planar batch CSV;
append `@1d` for 1-D `x[,weight]` CSV) or later via
`POST /datasets/{name}[?dim=1]`.  Resident datasets are *versioned and
mutable*: `maxrs mutate` posts a CSV of records to a running server's
`POST /datasets/{name}/insert` (or `/delete` with `--delete`), bumping the
dataset version and invalidating exactly the stale cached answers.

Observability: `maxrs batch --trace` prints one phase-timed line per
executed query (plan | index build | solve | certify); `maxrs serve`
exposes Prometheus text at `GET /metrics`, recent phase-timed traces at
`GET /debug/traces`, and — with `--slow-query-ms MS` — logs one structured
stderr line per query whose phases sum past the threshold.

Overload safety: `maxrs serve` sheds work past its limits instead of
queueing unboundedly.  `--queue-capacity N` bounds the live connections,
idle keep-alives included, and `--max-inflight N` the concurrently-handled
query/batch requests (both shed with `503` + `Retry-After`);
`--request-timeout-ms MS` sets the default compute deadline (a request's
`X-Deadline-Ms` header overrides it; expired queries fail with a typed
`504`); `--overload-watermark F` (default 0.75) picks the in-flight
fraction past which the `auto` router restricts itself to predicted-cheap
solvers.  `maxrs batch --deadline-ms MS` applies the same
cooperative-cancellation deadline to an offline batch.

INPUT FORMATS (one record per line, '#' starts a comment):
    weighted points:  x,y[,weight]          (weight defaults to 1)
    colored sites:    x,y,color             (color is a non-negative integer)
    batch points:     x,y[,weight[,color]]  (weighted and colored views of
                                             one point set; lines with a 4th
                                             field double as colored sites)
    batch scripts:    one step per line; queries run at the dataset's
                      then-current version, and update steps mutate it
                      in between (the interleaved update+query setting):
                          disk,R
                          disk-approx,R
                          disk-auto,R              (cost-model routed)
                          disk-dynamic,R           (incrementally maintained)
                          rect,W,H
                          rect-auto,W,H            (cost-model routed)
                          colored-disk,R
                          colored-disk-approx,R
                          colored-disk-auto,R      (cost-model routed)
                          insert,x,y[,weight[,color]]
                          delete,x,y
";

/// The `--eps` every command uses unless it takes and is given another.
const DEFAULT_EPS: f64 = 0.25;

/// One query kind, declared once in `QUERY_KINDS`: the batch-script step
/// `name,R` (ball kinds) or `name,W,H` (box kinds) and, when the kind has a
/// report line, the single-query subcommand `maxrs name`.
#[derive(Debug, PartialEq)]
pub struct QueryKind {
    name: &'static str,
    problem: ProblemKind,
    solver: &'static str,
    /// `Ball` kinds take `--radius R`, `AxisBox` kinds `--width W --height H`.
    shape: ShapeClass,
    /// The samplers' `--eps` must lie in `(0, bound)`, and an empty file is
    /// answered `empty input: nothing to place`.  `None`: no `--eps`.
    eps_below: Option<f64>,
    /// The subcommand's report line, with `{eps}`, `{at}` (the center, or a
    /// box's lower-left anchor), `{value}` and `{n}` (records read) filled
    /// in.  `None` for the script-only kinds.
    report: Option<&'static str>,
}

const QUERY_KINDS: &[QueryKind] = {
    use ProblemKind::{Colored, Weighted};
    use ShapeClass::{AxisBox, Ball};
    &[
        kind("disk", Weighted, "exact-disk-2d", Ball)
            .reports(None, "exact disk MaxRS: center = {at}, covered weight = {value}, points = {n}"),
        kind("disk-approx", Weighted, "approx-static-ball", Ball).reports(
            Some(0.5),
            "approximate disk MaxRS (Theorem 1.2, ε = {eps}): center = {at}, covered weight = {value}",
        ),
        kind("disk-auto", Weighted, "auto", Ball),
        kind("disk-dynamic", Weighted, "dynamic-ball", Ball),
        kind("rect", Weighted, "exact-rect-2d", AxisBox)
            .reports(None, "exact rectangle MaxRS: anchor = {at}, covered weight = {value}"),
        kind("rect-auto", Weighted, "auto", AxisBox),
        kind("colored-disk", Colored, "output-sensitive-colored-disk", Ball).reports(
            None,
            "exact colored disk MaxRS (Theorem 4.6): center = {at}, distinct colors = {value}",
        ),
        kind("colored-disk-approx", Colored, "approx-colored-disk-sampling", Ball).reports(
            Some(1.0),
            "approximate colored disk MaxRS (Theorem 1.6, ε = {eps}): center = {at}, distinct colors = {value}",
        ),
        kind("colored-disk-auto", Colored, "auto", Ball),
    ]
};

/// A script-only query kind.
const fn kind(
    name: &'static str,
    problem: ProblemKind,
    solver: &'static str,
    shape: ShapeClass,
) -> QueryKind {
    QueryKind { name, problem, solver, shape, eps_below: None, report: None }
}

impl QueryKind {
    /// The kind with a single-query subcommand that prints `report`.
    const fn reports(self, eps_below: Option<f64>, report: &'static str) -> Self {
        Self { eps_below, report: Some(report), ..self }
    }

    /// The kind of the single-query subcommand `name`, if there is one.
    pub fn subcommand(name: &str) -> Option<&'static QueryKind> {
        QUERY_KINDS.iter().find(|kind| kind.name == name && kind.report.is_some())
    }

    /// This kind's query for one shape.
    fn query(&self, shape: RangeShape<2>) -> BatchQuery<2> {
        BatchQuery { problem: self.problem, solver: self.solver.into(), shape }
    }
}

/// The positional input file.  It has a row in `FLAGS` like a flag, so that
/// one table also says which commands read a file.
const FILE: &str = "<file>";

/// One row of `FLAGS`.
struct Flag {
    name: &'static str,
    takes: Takes,
    /// The subcommands that accept it; on any other it is an error.
    commands: &'static [&'static str],
}

/// What follows a flag on the command line.
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// Nothing either: the row is the positional file itself.
    Itself,
    /// Free text; the string is what the error for a missing value asks for.
    Text(&'static str),
    /// A value the check accepts; the string names it in the error for one
    /// the check refuses.
    Value(&'static str, fn(&str) -> bool),
}

/// Any `f64`: `--radius`, `--width`, `--height` and `--eps` are range-checked
/// where they are used.
const NUMBER: fn(&str) -> bool = |raw| raw.parse::<f64>().is_ok();
const INTEGER: fn(&str) -> bool = |raw| raw.parse::<u64>().is_ok();
const COUNT: fn(&str) -> bool = |raw| raw.parse::<usize>().is_ok_and(|n| n >= 1);
const FRACTION: fn(&str) -> bool = |raw| raw.parse::<f64>().is_ok_and(|w| w.is_finite() && w > 0.0);

/// Every flag, declared once.
const FLAGS: &[Flag] = {
    use Takes::{Itself, Nothing, Text, Value};
    &[
        Flag {
            name: FILE,
            takes: Itself,
            commands: &[
                "disk",
                "disk-approx",
                "rect",
                "colored-disk",
                "colored-disk-approx",
                "batch",
                "mutate",
            ],
        },
        Flag {
            name: "--radius",
            takes: Value("number", NUMBER),
            commands: &["disk", "disk-approx", "colored-disk", "colored-disk-approx"],
        },
        Flag { name: "--width", takes: Value("number", NUMBER), commands: &["rect"] },
        Flag { name: "--height", takes: Value("number", NUMBER), commands: &["rect"] },
        Flag {
            name: "--eps",
            takes: Value("number", NUMBER),
            commands: &["disk-approx", "colored-disk-approx", "batch", "serve"],
        },
        Flag { name: "--queries", takes: Text("a file path"), commands: &["batch"] },
        Flag { name: "--threads", takes: Value("count", COUNT), commands: &["batch", "serve"] },
        Flag { name: "--deadline-ms", takes: Value("deadline", INTEGER), commands: &["batch"] },
        Flag { name: "--trace", takes: Nothing, commands: &["batch"] },
        Flag { name: "--addr", takes: Text("HOST:PORT"), commands: &["serve", "mutate"] },
        Flag { name: "--dataset", takes: Text("a value"), commands: &["serve", "mutate"] },
        Flag { name: "--delete", takes: Nothing, commands: &["mutate"] },
        Flag { name: "--seed", takes: Value("seed", INTEGER), commands: &["serve"] },
        Flag { name: "--slow-query-ms", takes: Value("threshold", INTEGER), commands: &["serve"] },
        Flag {
            name: "--request-timeout-ms",
            takes: Value("timeout", INTEGER),
            commands: &["serve"],
        },
        Flag { name: "--queue-capacity", takes: Value("capacity", COUNT), commands: &["serve"] },
        Flag { name: "--max-inflight", takes: Value("limit", COUNT), commands: &["serve"] },
        Flag {
            name: "--overload-watermark",
            takes: Value("fraction", FRACTION),
            commands: &["serve"],
        },
        Flag { name: "--chaos-solver", takes: Nothing, commands: &["serve"] },
    ]
};

/// A command line checked against `FLAGS`: the command, and each flag's raw
/// value in the order given (a switch's value is empty).
struct Args<'a> {
    command: &'a str,
    values: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(command: &'a str, args: &'a [String]) -> Result<Self, CliError> {
        let mut values: Vec<(&'static str, &'a str)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let name = if arg.starts_with("--") { arg.as_str() } else { FILE };
            let Some(flag) = FLAGS.iter().find(|flag| flag.name == name) else {
                return err(format!("unknown flag {arg}"));
            };
            if !flag.commands.contains(&command) {
                let hint = if command == "serve" { "; use --dataset name=path" } else { "" };
                return err(match name {
                    FILE => format!("{command} takes no positional file (got `{arg}`){hint}"),
                    _ => format!("{name} does not apply to `{command}`"),
                });
            }
            let value = match flag.takes {
                Takes::Nothing => "",
                Takes::Itself if values.iter().any(|(name, _)| *name == FILE) => {
                    return err(format!("unexpected extra argument {arg}"));
                }
                Takes::Itself => arg,
                Takes::Text(wanted) => {
                    rest.next().ok_or_else(|| CliError(format!("{name} requires {wanted}")))?
                }
                Takes::Value(noun, check) => {
                    let raw =
                        rest.next().ok_or_else(|| CliError(format!("{name} requires a value")))?;
                    if !check(raw) {
                        return err(format!("{name}: invalid {noun} {raw}"));
                    }
                    raw
                }
            };
            values.push((flag.name, value));
        }
        Ok(Self { command, values })
    }

    /// Every value given for `flag`, in order.
    fn all(&self, flag: &str) -> Vec<&'a str> {
        self.values.iter().filter(|(name, _)| *name == flag).map(|(_, value)| *value).collect()
    }

    fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`; its row's check already passed, so
    /// it parses as the type that check parses.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.all(flag).last()?.parse().ok()
    }

    /// The value of a flag the command cannot do without.
    fn need<T: FromStr>(&self, flag: &str) -> Result<T, CliError> {
        self.get(flag).ok_or_else(|| CliError(format!("{} requires {flag}", self.command)))
    }

    fn file(&self) -> Result<String, CliError> {
        self.get(FILE).ok_or_else(|| CliError("missing input file path".into()))
    }
}

/// Parses the command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let command = match args.first().map(String::as_str) {
        None => return Ok(Command::Help),
        Some("--help" | "-h") => "help",
        Some(command) => command,
    };
    let kind = QueryKind::subcommand(command);
    if kind.is_none() && !["help", "solvers", "batch", "serve", "mutate"].contains(&command) {
        return err(format!("unknown command {command}; run `maxrs help`"));
    }
    let args = Args::parse(command, &args[1..])?;
    if let Some(kind) = kind {
        let shape = match kind.shape {
            ShapeClass::Ball => RangeShape::Ball { radius: args.need("--radius")? },
            _ => RangeShape::AxisBox { extents: [args.need("--width")?, args.need("--height")?] },
        };
        let eps = args.get("--eps").unwrap_or(DEFAULT_EPS);
        return Ok(Command::Query { kind, shape, eps, path: args.file()? });
    }
    match command {
        "batch" => Ok(Command::Batch {
            queries: args.need("--queries")?,
            threads: args.get("--threads"),
            eps: args.get("--eps").unwrap_or(DEFAULT_EPS),
            deadline_ms: args.get("--deadline-ms"),
            trace: args.has("--trace"),
            path: args.file()?,
        }),
        "serve" => serve_command(&args),
        "mutate" => {
            let datasets = args.all("--dataset");
            let [name] = datasets.as_slice() else {
                return err("mutate requires exactly one --dataset NAME");
            };
            if name.contains('=') {
                return err(format!(
                    "mutate takes a dataset *name* (got `{name}`); the records come from the file"
                ));
            }
            Ok(Command::Mutate {
                addr: args
                    .get("--addr")
                    .ok_or_else(|| CliError("mutate requires --addr HOST:PORT".into()))?,
                dataset: name.to_string(),
                delete: args.has("--delete"),
                path: args.file()?,
            })
        }
        "solvers" => Ok(Command::Solvers),
        _ => Ok(Command::Help),
    }
}

/// Builds the `serve` command: the [`ServerConfig`] its flags describe, and
/// the startup datasets.
fn serve_command(args: &Args<'_>) -> Result<Command, CliError> {
    let mut datasets: Vec<(String, String, usize)> = Vec::new();
    for value in args.all("--dataset") {
        let parsed = value.split_once('=').map(|(name, file)| match file.strip_suffix("@1d") {
            Some(file) => (name, file, 1),
            None => (name, file, 2),
        });
        match parsed {
            Some((name, file, dim)) if !name.is_empty() && !file.is_empty() => {
                datasets.push((name.to_string(), file.to_string(), dim));
            }
            _ => return err(format!("--dataset: expected name=path, got `{value}`")),
        }
    }
    let eps = args.get("--eps").unwrap_or(DEFAULT_EPS);
    // Same validation as the query subcommands: a bad ε must be a CLI error,
    // not an engine-config panic at startup.
    check_eps(eps, 1.0)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: args
            .get("--addr")
            .ok_or_else(|| CliError("serve requires --addr HOST:PORT".into()))?,
        threads: args.get("--threads").unwrap_or(0),
        eps,
        seed: args.get("--seed"),
        slow_query: args.get("--slow-query-ms").map(Duration::from_millis),
        request_timeout: args.get("--request-timeout-ms").map(Duration::from_millis),
        queue_capacity: args.get("--queue-capacity").unwrap_or(defaults.queue_capacity),
        max_inflight: args.get("--max-inflight").unwrap_or(defaults.max_inflight),
        overload_watermark: args.get("--overload-watermark").unwrap_or(defaults.overload_watermark),
        chaos_solver: args.has("--chaos-solver"),
        ..defaults
    };
    Ok(Command::Serve { config, datasets })
}

/// Parses weighted points from CSV text (`x,y[,weight]` per line).
///
/// Thin wrapper over the shared [`mrs_core::input`] loader, mapping its
/// typed [`mrs_core::input::LoadError`] into the CLI's displayable error.
pub fn parse_weighted_csv(text: &str) -> Result<Vec<WeightedPoint<2>>, CliError> {
    mrs_core::input::parse_weighted_csv(text).map_err(load_error)
}

/// Parses colored sites from CSV text (`x,y,color` per line) via the shared
/// [`mrs_core::input`] loader.
pub fn parse_colored_csv(text: &str) -> Result<Vec<ColoredSite<2>>, CliError> {
    mrs_core::input::parse_colored_csv(text).map_err(load_error)
}

fn load_error(e: mrs_core::input::LoadError) -> CliError {
    CliError(e.to_string())
}

fn parse_number(raw: &str, lineno: usize) -> Result<f64, CliError> {
    // `f64::from_str` happily parses "inf" and "NaN", which the engine's
    // instance constructors reject with a panic; keep the CLI contract of
    // clean line-numbered errors instead.
    f64::from_str(raw)
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| CliError(format!("line {}: invalid number `{raw}`", lineno + 1)))
}

/// Parses a batch point file (`x,y[,weight[,color]]` per line) into its
/// weighted view (all lines) and its colored view (the lines carrying a
/// color), so one point set serves both query families.  Wraps the shared
/// [`mrs_core::input::parse_point_set_csv`] loader — the same one the
/// server's dataset catalog uses.
pub fn parse_batch_csv(
    text: &str,
) -> Result<(Vec<WeightedPoint<2>>, Vec<ColoredSite<2>>), CliError> {
    let set = mrs_core::input::parse_point_set_csv(text).map_err(load_error)?;
    Ok((set.points, set.sites))
}

/// Parses a batch **script** file: one step per line (`#` starts a
/// comment).  Query steps are `kind,R` or `kind,W,H` for every query kind
/// (the single-query subcommands' kinds with the same solvers, plus
/// `disk-dynamic,R` and the cost-model routed `disk-auto,R`,
/// `rect-auto,W,H` and `colored-disk-auto,R`); update steps mutate the
/// dataset between queries (`insert,x,y[,weight[,color]]`, `delete,x,y`),
/// so one file expresses the paper's interleaved update+query setting.
pub fn parse_batch_script(text: &str) -> Result<Vec<ScriptStep<2>>, CliError> {
    let mut steps = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let arity_error =
            |want: &str| CliError(format!("line {}: `{}` expects `{want}`", lineno + 1, fields[0]));
        let step = if let Some(kind) = QUERY_KINDS.iter().find(|kind| kind.name == fields[0]) {
            let at_line = |e: CliError| CliError(format!("line {}: {}", lineno + 1, e.0));
            let shape = match (kind.shape, &fields[1..]) {
                (ShapeClass::Ball, [radius]) => {
                    let radius = parse_number(radius, lineno)?;
                    check_positive("radius", radius).map_err(at_line)?;
                    RangeShape::ball(radius)
                }
                (ShapeClass::Ball, _) => return Err(arity_error("kind,R")),
                (_, [width, height]) => {
                    let (width, height) =
                        (parse_number(width, lineno)?, parse_number(height, lineno)?);
                    check_positive("rect extents", width.min(height)).map_err(at_line)?;
                    RangeShape::rect(width, height)
                }
                _ => return Err(arity_error("kind,W,H")),
            };
            ScriptStep::Query(kind.query(shape))
        } else {
            match (fields[0], fields.len()) {
                // Update records delegate to the shared `mrs_core::input`
                // mutation parsers — the *same* record semantics (weight
                // default, negative-weight rejection, color parsing) the
                // server's mutation bodies use, so CLI scripts and `POST
                // /datasets/{name}/insert|delete` can never drift apart.
                ("insert", 3..=5) => ScriptStep::Mutate(parse_mutation_record(
                    mrs_core::input::parse_planar_inserts_csv,
                    &fields[1..],
                    lineno,
                )?),
                ("delete", 3) => ScriptStep::Mutate(parse_mutation_record(
                    mrs_core::input::parse_planar_deletes_csv,
                    &fields[1..],
                    lineno,
                )?),
                ("insert", _) => return Err(arity_error("insert,x,y[,weight[,color]]")),
                ("delete", _) => return Err(arity_error("delete,x,y")),
                (other, _) => {
                    return err(format!("line {}: unknown step kind `{other}`", lineno + 1));
                }
            }
        };
        steps.push(step);
    }
    Ok(steps)
}

/// Parses one script update record through a shared [`mrs_core::input`]
/// mutation parser, re-anchoring the parser's (record-relative) error line
/// to the script line the record came from.
fn parse_mutation_record(
    parse: fn(&str) -> Result<Vec<Mutation<2>>, mrs_core::input::LoadError>,
    fields: &[&str],
    lineno: usize,
) -> Result<Mutation<2>, CliError> {
    let mut mutations = parse(&fields.join(","))
        .map_err(|e| load_error(mrs_core::input::LoadError { line: lineno + 1, kind: e.kind }))?;
    debug_assert_eq!(mutations.len(), 1, "one record parses to one mutation");
    Ok(mutations.remove(0))
}

/// Executes a batch command against already-loaded file contents: parses
/// the point set and the script, runs the whole thing through the
/// versioned script executor (queries answered and certified at the
/// dataset version they observe, update steps mutating it in between), and
/// renders one line per step plus the batch statistics.
pub fn run_batch_on_text(
    points_text: &str,
    queries_text: &str,
    threads: Option<usize>,
    eps: f64,
    deadline_ms: Option<u64>,
    trace: bool,
) -> Result<String, CliError> {
    check_eps(eps, 1.0)?;
    let (points, sites) = parse_batch_csv(points_text)?;
    let steps = parse_batch_script(queries_text)?;
    if steps.is_empty() {
        return Ok("empty query file: nothing to answer".to_string());
    }
    let dataset = VersionedDataset::new(points, sites);

    let registry = registry_with(EngineConfig::practical(eps));
    let deadline =
        deadline_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads, certify: true, deadline, ..ExecutorConfig::default() },
    );
    let mut recorder = if trace { TraceRecorder::new() } else { TraceRecorder::disabled() };
    let report = executor.execute_script(&dataset, &steps, &mut recorder);

    let mut out = String::new();
    for (i, (step, outcome)) in steps.iter().zip(&report.outcomes).enumerate() {
        let line = match outcome {
            ScriptOutcome::Answer { answer: BatchAnswer::Weighted(r), version, .. } => format!(
                "covered weight = {:.6} at ({:.6}, {:.6})  [{} @v{version}]",
                r.placement.value,
                r.placement.center.x(),
                r.placement.center.y(),
                solver_label(r.solver, &r.stats),
            ),
            ScriptOutcome::Answer { answer: BatchAnswer::Colored(r), version, .. } => format!(
                "distinct colors = {} at ({:.6}, {:.6})  [{} @v{version}]",
                r.placement.distinct,
                r.placement.center.x(),
                r.placement.center.y(),
                solver_label(r.solver, &r.stats),
            ),
            ScriptOutcome::Answer { answer: BatchAnswer::Failed(error), .. } => {
                format!("FAILED: {error}")
            }
            ScriptOutcome::Mutated { version, outcome, compacted } => format!(
                "applied: +{} −{} (missed {}) → v{version}{}",
                outcome.inserted,
                outcome.deleted,
                outcome.missed,
                if *compacted { ", compacted" } else { "" }
            ),
        };
        out.push_str(&format!("[{i:>4}] {:<28} {line}\n", render_step(step)));
    }
    let stats = &report.stats;
    out.push_str(&format!(
        "batch: {} queries ({} failed), {} updates in {:.2} ms | {:.0} queries/s | threads = {} | \
         index builds = {} ({:.2} ms) | certified {}/{} ({} mismatches)\n",
        stats.queries,
        stats.failed,
        report.updates,
        stats.wall.as_secs_f64() * 1e3,
        stats.queries_per_sec(),
        stats.threads,
        stats.index_builds,
        stats.index_build_time.as_secs_f64() * 1e3,
        stats.certified,
        stats.queries - stats.failed,
        stats.certify_failures,
    ));
    // The versioned-dataset counters: where the update path left the data.
    out.push_str(&format!(
        "dataset: version = {} | delta = {} | compactions = {}\n",
        report.final_version,
        dataset.view().delta_size(),
        dataset.compactions(),
    ));
    // Wall-clock-free work counters: what the shared spatial indexes could
    // not prune.  These are the numbers the perf-smoke tests bound.
    out.push_str(&format!(
        "index work: {} candidates examined | {} grid cells visited | {} sieve-rejected\n",
        stats.candidates_examined, stats.grid_cells_visited, stats.sieve_rejected,
    ));
    // Cost-model routing: how many queries the `auto` solver routed and how
    // well its predictions tracked the work the chosen solvers then did.
    if stats.auto_picks > 0 {
        out.push_str(&format!(
            "auto: routed {} | predicted work = {:.0} | actual work = {:.0}\n",
            stats.auto_picks, stats.auto_predicted_work, stats.auto_actual_work,
        ));
    }
    // Per-query wall time — the same `LatencySummary` the server's `/stats`
    // endpoint serializes per HTTP endpoint.
    out.push_str(&format!("per-query: {}\n", report.per_query_latency()));
    // `--trace`: one phase-timed line per executed query, keyed by the
    // step position the query ran at.
    if trace {
        out.push_str("traces:\n");
        for t in recorder.traces() {
            let us = |p: Phase| t.phase(p).as_secs_f64() * 1e6;
            out.push_str(&format!(
                "  [q{:>4}] {:<28} plan {:.1} µs | build {:.1} µs | solve {:.1} µs | certify \
                 {:.1} µs | total {:.1} µs | v{}{}\n",
                t.query,
                match t.routed {
                    Some(choice) => format!("{}→{choice}", t.solver),
                    None => t.solver.clone(),
                },
                us(Phase::Plan),
                us(Phase::IndexBuild),
                us(Phase::Solve),
                us(Phase::Certify),
                t.phase_total().as_secs_f64() * 1e6,
                t.version,
                if t.ok { "" } else { " FAILED" },
            ));
        }
    }
    Ok(out)
}

/// The solver tag of a per-step answer line: `auto→exact-disk-2d` when the
/// cost-model router answered (the routed choice matters more than the
/// literal name), the plain solver name otherwise.
fn solver_label(solver: &str, stats: &SolveStats) -> String {
    match stats.auto_choice {
        Some(choice) => format!("{solver}→{choice}"),
        None => solver.to_string(),
    }
}

fn render_step(step: &ScriptStep<2>) -> String {
    match step {
        ScriptStep::Query(query) => {
            let shape = match query.shape {
                RangeShape::Ball { radius } => format!("ball r={radius}"),
                RangeShape::AxisBox { extents } => format!("box {}x{}", extents[0], extents[1]),
            };
            format!("{} {shape}", query.problem)
        }
        ScriptStep::Mutate(Mutation::Insert { point, .. }) => {
            format!("insert ({}, {})", point.point.x(), point.point.y())
        }
        ScriptStep::Mutate(Mutation::Delete { point }) => {
            format!("delete ({}, {})", point.x(), point.y())
        }
    }
}

/// Renders the registry listing for `maxrs solvers`: every solver's name,
/// problem kind, shape class, supported dimensions, guarantee, batch
/// capability, and source reference.
fn render_solvers() -> String {
    let registry = crate::engine::registry();
    let mut out = String::from(
        "registered solvers (name | problem | shape | dims | guarantee | batch | updates | \
         reference):\n",
    );
    for d in registry.descriptors() {
        let dims = match d.dims {
            DimSupport::Any => "any d".to_string(),
            DimSupport::Fixed(d) => format!("d = {d}"),
        };
        let guarantee = match d.guarantee {
            crate::engine::GuaranteeClass::Exact => "exact",
            crate::engine::GuaranteeClass::HalfMinusEps => "(1/2 − ε)-approx",
            crate::engine::GuaranteeClass::OneMinusEps => "(1 − ε)-approx",
        };
        let updates = if d.dynamic { "incremental" } else { "static" };
        out.push_str(&format!(
            "  {:<30} {:<9} {:<5} {:<7} {:<17} {:<13} {:<11} {}\n",
            d.name,
            d.problem.to_string(),
            d.shape.to_string(),
            dims,
            guarantee,
            d.batch.to_string(),
            updates,
            d.reference
        ));
    }
    out
}

fn check_positive(name: &str, value: f64) -> Result<(), CliError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        err(format!("{name} must be positive"))
    }
}

fn check_eps(eps: f64, hi: f64) -> Result<(), CliError> {
    if eps > 0.0 && eps < hi {
        Ok(())
    } else {
        err(format!("--eps must lie in (0, {hi}), got {eps}"))
    }
}

/// Answers one single-query subcommand: the file becomes a
/// [`VersionedDataset`] at version 1, and the query a one-query batch
/// through the executor `maxrs batch` uses (see [`EngineConfig::practical`]
/// for the `ε ≥ 1/2` clamping rule), certified against the file.  A failed
/// or uncertified answer is an error, not a report.
fn run_query(
    kind: &QueryKind,
    shape: &RangeShape<2>,
    eps: f64,
    file_text: &str,
) -> Result<String, CliError> {
    let (points, sites) = match kind.problem {
        ProblemKind::Weighted => (parse_weighted_csv(file_text)?, Vec::new()),
        ProblemKind::Colored => (Vec::new(), parse_colored_csv(file_text)?),
    };
    let n = points.len() + sites.len();
    match *shape {
        RangeShape::Ball { radius } => check_positive("radius", radius)?,
        RangeShape::AxisBox { extents: [width, height] } => {
            check_positive("--width", width)?;
            check_positive("--height", height)?;
        }
    }
    // Outside the samplers `ε` only sizes the engine configuration, which
    // admits `(0, 1)`.
    check_eps(eps, kind.eps_below.unwrap_or(1.0))?;
    if kind.eps_below.is_some() && n == 0 {
        return Ok("empty input: nothing to place".to_string());
    }
    let registry = registry_with(EngineConfig::practical(eps));
    // The default executor configuration certifies every answer.
    let executor = BatchExecutor::new(&registry);
    let dataset = VersionedDataset::new(points, sites);
    let report = executor.execute_versioned_traced(
        &dataset,
        &[kind.query(*shape)],
        &mut TraceRecorder::disabled(),
    );
    let (center, value) = match &report.answers[0] {
        BatchAnswer::Failed(error) => return err(error.to_string()),
        BatchAnswer::Weighted(r) => (r.placement.center, format!("{:.6}", r.placement.value)),
        BatchAnswer::Colored(r) => (r.placement.center, r.placement.distinct.to_string()),
    };
    if report.certified[0] != Some(true) {
        return err(format!("the {} answer failed certification against the input", kind.solver));
    }
    let (x, y) = match shape.box_extents() {
        Some([width, height]) => (center.x() - width / 2.0, center.y() - height / 2.0),
        None => (center.x(), center.y()),
    };
    let report = kind.report.expect("a subcommand's kind has a report line");
    Ok(report
        .replace("{eps}", &eps.to_string())
        .replace("{at}", &format!("({x:.6}, {y:.6})"))
        .replace("{value}", &value)
        .replace("{n}", &n.to_string()))
}

/// Executes a parsed command against already-loaded file contents and returns
/// the report text.  The function stays pure so it can be tested without
/// touching the filesystem.
pub fn run_on_text(command: &Command, file_text: &str) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Solvers => Ok(render_solvers()),
        Command::Query { kind, shape, eps, .. } => run_query(kind, shape, *eps, file_text),
        Command::Batch { .. } => {
            err("batch commands need the query file too; use run_batch_on_text")
        }
        Command::Serve { .. } => {
            err("serve runs a long-lived network service; the binary handles it directly")
        }
        Command::Mutate { .. } => {
            err("mutate talks to a running server; the binary handles it directly")
        }
    }
}

/// The input file referenced by a command, if any.
pub fn input_path(command: &Command) -> Option<&str> {
    match command {
        Command::Help | Command::Solvers | Command::Serve { .. } => None,
        Command::Query { path, .. }
        | Command::Mutate { path, .. }
        | Command::Batch { path, .. } => Some(path),
    }
}

/// The query-list file referenced by a command, if any (batch only).
pub fn queries_path(command: &Command) -> Option<&str> {
    match command {
        Command::Batch { queries, .. } => Some(queries),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn query(kind: &str, shape: RangeShape<2>, eps: f64, path: &str) -> Command {
        let kind = QueryKind::subcommand(kind).expect("a single-query subcommand");
        Command::Query { kind, shape, eps, path: path.into() }
    }

    const fn ball(radius: f64) -> RangeShape<2> {
        RangeShape::Ball { radius }
    }

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_args(&args(&["disk", "--radius", "2.5", "pts.csv"])).unwrap(),
            query("disk", ball(2.5), 0.25, "pts.csv")
        );
        assert_eq!(
            parse_args(&args(&["rect", "--width", "1", "--height", "2", "pts.csv"])).unwrap(),
            query("rect", RangeShape::AxisBox { extents: [1.0, 2.0] }, 0.25, "pts.csv")
        );
        assert_eq!(
            parse_args(&args(&["colored-disk-approx", "--radius", "1", "--eps", "0.1", "c.csv"]))
                .unwrap(),
            query("colored-disk-approx", ball(1.0), 0.1, "c.csv")
        );
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["solvers"])).unwrap(), Command::Solvers);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse_args(&args(&["disk", "pts.csv"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "abc", "pts.csv"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "a.csv", "b.csv"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--bogus", "x", "a.csv"])).is_err());
    }

    #[test]
    fn inapplicable_flags_are_rejected_per_subcommand() {
        let e = parse_args(&args(&["colored-disk", "--radius", "1", "--eps", "0.3", "c.csv"]))
            .unwrap_err();
        assert!(e.0.contains("--eps") && e.0.contains("colored-disk"), "{e}");
        assert!(parse_args(&args(&["disk", "--radius", "1", "--width", "2", "a.csv"])).is_err());
        assert!(parse_args(&args(&[
            "rect", "--width", "1", "--height", "1", "--radius", "2", "a.csv"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&["disk-approx", "--radius", "1", "--height", "2", "a.csv"])).is_err()
        );
    }

    #[test]
    fn commands_refuse_flags_and_files_they_do_not_take() {
        assert_eq!(
            parse_args(&args(&["help", "--width", "3"])),
            Err(CliError("--width does not apply to `help`".into()))
        );
        assert_eq!(
            parse_args(&args(&["solvers", "--radius", "1"])),
            Err(CliError("--radius does not apply to `solvers`".into()))
        );
        assert_eq!(
            parse_args(&args(&["solvers", "stray.csv"])),
            Err(CliError("solvers takes no positional file (got `stray.csv`)".into()))
        );
    }

    /// Each single-query subcommand accepts exactly the shape flags of its
    /// kind's shape, `--eps` exactly when its kind has an `ε` bound, and a
    /// file; every flag has one row.
    #[test]
    fn the_flag_table_agrees_with_the_query_kind_table() {
        let accepts = |flag: &str, command: &str| {
            FLAGS.iter().any(|f| f.name == flag && f.commands.contains(&command))
        };
        for kind in QUERY_KINDS.iter().filter(|kind| kind.report.is_some()) {
            let ball = kind.shape == ShapeClass::Ball;
            assert_eq!(accepts("--radius", kind.name), ball, "{}", kind.name);
            assert_eq!(accepts("--width", kind.name), !ball, "{}", kind.name);
            assert_eq!(accepts("--height", kind.name), !ball, "{}", kind.name);
            assert_eq!(accepts("--eps", kind.name), kind.eps_below.is_some(), "{}", kind.name);
            assert!(accepts(FILE, kind.name), "{}", kind.name);
        }
        let mut names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FLAGS.len());
    }

    #[test]
    fn parses_weighted_and_colored_csv() {
        let weighted = "0,0\n1.5, 2.5, 3  # heavy point\n\n# comment line\n";
        let points = parse_weighted_csv(weighted).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].weight, 3.0);

        let colored = "0,0,0\n1,1,4\n";
        let sites = parse_colored_csv(colored).unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[1].color, 4);

        assert!(parse_weighted_csv("1,2,3,4").is_err());
        assert!(parse_weighted_csv("1,2,-1").is_err());
        assert!(parse_colored_csv("1,2").is_err());
        assert!(parse_colored_csv("1,2,red").is_err());
    }

    #[test]
    fn runs_queries_end_to_end_on_text_input() {
        let csv = "0,0\n0.5,0\n0.5,0.5\n9,9\n";
        let disk = query("disk", ball(1.0), 0.25, "ignored");
        let report = run_on_text(&disk, csv).unwrap();
        assert!(report.contains("covered weight = 3.0"), "{report}");

        let rect = query("rect", RangeShape::AxisBox { extents: [1.0, 1.0] }, 0.25, "ignored");
        let report = run_on_text(&rect, csv).unwrap();
        assert!(report.contains("covered weight = 3.0"), "{report}");

        let colored_csv = "0,0,0\n0.4,0,1\n0.4,0.3,1\n9,9,2\n";
        let colored = query("colored-disk", ball(1.0), 0.25, "ignored");
        let report = run_on_text(&colored, colored_csv).unwrap();
        assert!(report.contains("distinct colors = 2"), "{report}");

        let help = run_on_text(&Command::Help, "").unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn invalid_parameters_are_clean_errors_not_panics() {
        let csv = "0,0\n1,1\n";
        let bad_eps = query("disk-approx", ball(1.0), 0.9, "x");
        assert!(run_on_text(&bad_eps, csv).unwrap_err().0.contains("--eps"));
        let bad_rect = query("rect", RangeShape::AxisBox { extents: [-1.0, 1.0] }, 0.25, "x");
        assert!(run_on_text(&bad_rect, csv).unwrap_err().0.contains("--width"));
        let bad_radius = query("colored-disk", ball(-2.0), 0.25, "x");
        assert!(run_on_text(&bad_radius, "0,0,1\n").unwrap_err().0.contains("radius"));
        let bad_colored_eps = query("colored-disk-approx", ball(1.0), 1.5, "x");
        assert!(run_on_text(&bad_colored_eps, "0,0,1\n").unwrap_err().0.contains("--eps"));
        // An exact kind takes no `--eps`, but a hand-built command's ε still
        // sizes the engine configuration: out of range, it is refused too.
        let exact_bad_eps = query("disk", ball(1.0), 1.5, "x");
        assert!(run_on_text(&exact_bad_eps, csv).unwrap_err().0.contains("--eps"));
        // ε ∈ [1/2, 1) is legal for the (1 − ε) color sampler even though the
        // Technique 1 estimator inside it only admits ε < 1/2.
        let high_eps = query("colored-disk-approx", ball(1.0), 0.6, "x");
        assert!(run_on_text(&high_eps, "0,0,1\n0.1,0,2\n").unwrap().contains("distinct colors"));
    }

    /// Doctest-style golden test: `maxrs solvers` must render exactly this
    /// table — name, problem, shape, dims, guarantee, batch capability,
    /// update capability (static | incremental, from
    /// `SolverDescriptor::dynamic`), and reference for every registered
    /// solver.  Registering a new solver (or changing a capability) means
    /// updating this expectation deliberately.
    #[test]
    fn solvers_listing_golden_output() {
        let expected = "\
registered solvers (name | problem | shape | dims | guarantee | batch | updates | reference):
  batched-interval-1d            weighted  ball  d = 1   exact             index-shared  static      Theorem 1.3 upper bound (O(n log n + m·n))
  exact-interval-1d              weighted  ball  d = 1   exact             index-shared  static      Section 5 per-length oracle (sorted sweep)
  exact-rect-2d                  weighted  box   d = 2   exact             index-shared  static      [IA83]/[NB95] rectangle sweep
  exact-disk-2d                  weighted  ball  d = 2   exact             index-shared  static      [CL86] disk sweep
  approx-static-ball             weighted  ball  any d   (1/2 − ε)-approx  index-shared  static      Theorem 1.2
  dynamic-ball                   weighted  ball  any d   (1/2 − ε)-approx  independent   incremental Theorem 1.1
  exact-colored-disk-enum        colored   ball  d = 2   exact             independent   static      candidate enumeration baseline
  exact-colored-disk-union       colored   ball  d = 2   exact             independent   static      Lemma 4.2
  output-sensitive-colored-disk  colored   ball  d = 2   exact             independent   static      Theorem 4.6
  approx-colored-ball            colored   ball  any d   (1/2 − ε)-approx  index-shared  static      Theorem 1.5
  approx-colored-disk-sampling   colored   ball  d = 2   (1 − ε)-approx    independent   static      Theorem 1.6
  exact-colored-rect-2d          colored   box   d = 2   exact             independent   static      [ZGH+22]-style sweep
  auto                           weighted  any   any d   (1/2 − ε)-approx  index-shared  static      cost-model router over the registered solvers
  auto                           colored   any   any d   (1/2 − ε)-approx  index-shared  static      cost-model router over the registered solvers
";
        assert_eq!(run_on_text(&Command::Solvers, "").unwrap(), expected);
    }

    #[test]
    fn solvers_listing_names_every_registered_solver() {
        let listing = run_on_text(&Command::Solvers, "").unwrap();
        for name in [
            "exact-disk-2d",
            "exact-rect-2d",
            "exact-interval-1d",
            "batched-interval-1d",
            "approx-static-ball",
            "dynamic-ball",
            "output-sensitive-colored-disk",
            "approx-colored-disk-sampling",
            "approx-colored-ball",
        ] {
            assert!(listing.contains(name), "missing {name} in:\n{listing}");
        }
    }

    #[test]
    fn approx_commands_run_and_report() {
        let csv: String =
            (0..50).map(|i| format!("{},{}\n", 0.01 * i as f64, 0.0)).collect::<String>();
        let cmd = query("disk-approx", ball(1.0), 0.25, "ignored");
        let report = run_on_text(&cmd, &csv).unwrap();
        assert!(report.contains("approximate disk MaxRS"), "{report}");

        let colored_csv: String =
            (0..30).map(|i| format!("{},0,{}\n", 0.02 * i as f64, i % 5)).collect::<String>();
        let cmd = query("colored-disk-approx", ball(1.0), 0.25, "ignored");
        let report = run_on_text(&cmd, &colored_csv).unwrap();
        assert!(report.contains("distinct colors = 5"), "{report}");
    }

    #[test]
    fn input_path_extraction() {
        assert_eq!(input_path(&Command::Help), None);
        assert_eq!(input_path(&query("disk", ball(1.0), 0.25, "a.csv")), Some("a.csv"));
        let batch = Command::Batch {
            queries: "q.txt".into(),
            threads: Some(2),
            eps: 0.25,
            deadline_ms: None,
            trace: false,
            path: "pts.csv".into(),
        };
        assert_eq!(input_path(&batch), Some("pts.csv"));
        assert_eq!(queries_path(&batch), Some("q.txt"));
        assert_eq!(queries_path(&Command::Help), None);
    }

    #[test]
    fn parses_batch_command() {
        assert_eq!(
            parse_args(&args(&[
                "batch",
                "--queries",
                "q.txt",
                "--threads",
                "3",
                "--eps",
                "0.3",
                "pts.csv"
            ]))
            .unwrap(),
            Command::Batch {
                queries: "q.txt".into(),
                threads: Some(3),
                eps: 0.3,
                deadline_ms: None,
                trace: false,
                path: "pts.csv".into(),
            }
        );
        // `--trace` turns per-query tracing on; it applies to batch only.
        assert!(matches!(
            parse_args(&args(&["batch", "--queries", "q.txt", "--trace", "pts.csv"])).unwrap(),
            Command::Batch { trace: true, .. }
        ));
        assert!(parse_args(&args(&["disk", "--radius", "1", "--trace", "p"])).is_err());
        // `--deadline-ms` arms the batch compute deadline; batch-only.
        assert!(matches!(
            parse_args(&args(&["batch", "--queries", "q", "--deadline-ms", "500", "p"])).unwrap(),
            Command::Batch { deadline_ms: Some(500), .. }
        ));
        assert!(parse_args(&args(&["batch", "--queries", "q", "--deadline-ms", "x", "p"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--deadline-ms", "5", "p"])).is_err());
        // --queries is mandatory, --threads must be a positive integer, and
        // batch flags are rejected on other subcommands.
        assert!(parse_args(&args(&["batch", "pts.csv"])).is_err());
        assert!(parse_args(&args(&["batch", "--queries", "q", "--threads", "0", "p"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--queries", "q", "p"])).is_err());
        assert!(parse_args(&args(&["batch", "--queries", "q", "--radius", "1", "p"])).is_err());
    }

    #[test]
    fn parses_serve_command() {
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--addr",
                "127.0.0.1:7070",
                "--threads",
                "4",
                "--dataset",
                "demo=examples/data/batch_points.csv",
            ]))
            .unwrap(),
            Command::Serve {
                config: ServerConfig {
                    addr: "127.0.0.1:7070".into(),
                    threads: 4,
                    ..ServerConfig::default()
                },
                datasets: vec![("demo".into(), "examples/data/batch_points.csv".into(), 2)],
            }
        );
        // There is one connection runtime: `--runtime` is an unknown flag.
        assert_eq!(
            parse_args(&args(&["serve", "--addr", "x:1", "--runtime", "epoll"])),
            Err(CliError("unknown flag --runtime".into()))
        );
        // The overload knobs parse and are serve-only.
        assert!(matches!(
            parse_args(&args(&[
                "serve",
                "--addr",
                "x:1",
                "--request-timeout-ms",
                "250",
                "--queue-capacity",
                "64",
                "--max-inflight",
                "8",
                "--overload-watermark",
                "0.5",
                "--chaos-solver",
            ]))
            .unwrap(),
            Command::Serve {
                config: ServerConfig {
                    request_timeout: Some(timeout),
                    queue_capacity: 64,
                    max_inflight: 8,
                    overload_watermark,
                    chaos_solver: true,
                    ..
                },
                ..
            } if timeout == Duration::from_millis(250) && overload_watermark == 0.5
        ));
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--queue-capacity", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--max-inflight", "no"])).is_err());
        assert!(
            parse_args(&args(&["serve", "--addr", "x:1", "--overload-watermark", "-1"])).is_err()
        );
        assert!(parse_args(&args(&["disk", "--radius", "1", "--max-inflight", "4", "a"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--chaos-solver", "a"])).is_err());
        // `--slow-query-ms` arms the slow-query log; serve-only.
        assert!(matches!(
            parse_args(&args(&["serve", "--addr", "x:1", "--slow-query-ms", "250"])).unwrap(),
            Command::Serve { config: ServerConfig { slow_query: Some(threshold), .. }, .. }
                if threshold == Duration::from_millis(250)
        ));
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--slow-query-ms", "fast"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--slow-query-ms", "9", "a"])).is_err());
        // A `@1d` suffix marks a 1-D dataset file.
        assert!(matches!(
            parse_args(&args(&["serve", "--addr", "x:1", "--dataset", "ticks=events.csv@1d"]))
                .unwrap(),
            Command::Serve { ref datasets, .. }
                if datasets == &[("ticks".to_string(), "events.csv".to_string(), 1)]
        ));
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--dataset", "t=@1d"])).is_err());
        assert!(matches!(
            parse_args(&args(&["serve", "--addr", "x:1", "--seed", "7"])).unwrap(),
            Command::Serve { config: ServerConfig { seed: Some(7), .. }, .. }
        ));
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--seed", "-2"])).is_err());
        // A bad ε is a clean CLI error, not an engine-config panic.
        let e = parse_args(&args(&["serve", "--addr", "x:1", "--eps", "1.5"])).unwrap_err();
        assert!(e.0.contains("--eps"), "{e}");
        assert!(parse_args(&args(&["disk", "--radius", "1", "--seed", "7", "a.csv"])).is_err());
        // --addr is mandatory, name=path must be well-formed, serve takes no
        // positional file, and serve flags are rejected on other subcommands.
        assert!(parse_args(&args(&["serve"])).is_err());
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--dataset", "nopath"])).is_err());
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--dataset", "=p"])).is_err());
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "stray.csv"])).is_err());
        assert!(parse_args(&args(&["serve", "--addr", "x:1", "--radius", "1"])).is_err());
        assert!(parse_args(&args(&["disk", "--radius", "1", "--addr", "x:1", "a.csv"])).is_err());
        // The pure text runner refuses to serve; the binary owns that path.
        let serve = Command::Serve {
            config: ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
            datasets: Vec::new(),
        };
        assert!(run_on_text(&serve, "").is_err());
        assert_eq!(input_path(&serve), None);
    }

    #[test]
    fn parses_mutate_command() {
        assert_eq!(
            parse_args(&args(&[
                "mutate",
                "--addr",
                "127.0.0.1:7070",
                "--dataset",
                "demo",
                "new.csv"
            ]))
            .unwrap(),
            Command::Mutate {
                addr: "127.0.0.1:7070".into(),
                dataset: "demo".into(),
                delete: false,
                path: "new.csv".into(),
            }
        );
        assert!(matches!(
            parse_args(&args(&[
                "mutate",
                "--addr",
                "x:1",
                "--dataset",
                "demo",
                "--delete",
                "gone.csv"
            ]))
            .unwrap(),
            Command::Mutate { delete: true, .. }
        ));
        // --addr, --dataset NAME (exactly one, bare) and the file are all
        // mandatory; serve-style name=path is rejected with a hint.
        assert!(parse_args(&args(&["mutate", "--dataset", "demo", "f.csv"])).is_err());
        assert!(parse_args(&args(&["mutate", "--addr", "x:1", "f.csv"])).is_err());
        assert!(
            parse_args(&args(&["mutate", "--addr", "x:1", "--dataset", "a=b", "f.csv"])).is_err()
        );
        assert!(parse_args(&args(&[
            "mutate",
            "--addr",
            "x:1",
            "--dataset",
            "a",
            "--dataset",
            "b",
            "f.csv"
        ]))
        .is_err());
        assert!(parse_args(&args(&["mutate", "--addr", "x:1", "--dataset", "demo"])).is_err());
        // --delete applies to mutate only; query flags are rejected on mutate.
        assert!(parse_args(&args(&["disk", "--radius", "1", "--delete", "a.csv"])).is_err());
        assert!(parse_args(&args(&[
            "mutate",
            "--addr",
            "x:1",
            "--dataset",
            "d",
            "--radius",
            "1",
            "f.csv"
        ]))
        .is_err());
        // The pure text runner refuses; the binary owns the network path.
        let mutate = Command::Mutate {
            addr: "x:1".into(),
            dataset: "demo".into(),
            delete: false,
            path: "f.csv".into(),
        };
        assert!(run_on_text(&mutate, "").is_err());
        assert_eq!(input_path(&mutate), Some("f.csv"));
    }

    #[test]
    fn batch_scripts_interleave_updates_and_queries() {
        // Start with a 3-point cluster; insert a heavy point mid-script and
        // delete it again: the same query sees three different versions.
        let csv = "0,0\n0.4,0\n0,0.4\n9,9\n";
        let script = "disk,1.0\ninsert,0.2,0.2,5\ndisk,1.0\ndelete,0.2,0.2\ndisk,1.0\n";
        let out = run_batch_on_text(csv, script, None, 0.25, None, false).unwrap();
        assert!(out.contains("covered weight = 3.000000"), "{out}");
        assert!(out.contains("covered weight = 8.000000"), "{out}");
        assert!(out.contains("@v1]"), "{out}");
        assert!(out.contains("@v2]"), "{out}");
        assert!(out.contains("@v3]"), "{out}");
        assert!(out.contains("applied: +1 −0 (missed 0) → v2"), "{out}");
        assert!(out.contains("batch: 3 queries (0 failed), 2 updates"), "{out}");
        assert!(out.contains("certified 3/3 (0 mismatches)"), "{out}");
        assert!(out.contains("dataset: version = 3 | delta ="), "{out}");
        assert!(out.contains("compactions ="), "{out}");
    }

    #[test]
    fn parses_batch_points_and_queries() {
        let (points, sites) =
            parse_batch_csv("0,0\n1,1,2.5\n2,2,1,7  # weighted and colored\n").unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[1].weight, 2.5);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].color, 7);
        assert!(parse_batch_csv("1\n").is_err());
        assert!(parse_batch_csv("1,2,3,4,5\n").is_err());
        assert!(parse_batch_csv("1,2,-1\n").is_err());
        assert!(parse_batch_csv("1,2,1,red\n").is_err());
        // Non-finite numbers are clean errors, not engine panics.
        assert!(parse_batch_csv("inf,0,1\n").is_err());
        assert!(parse_batch_csv("0,0,NaN\n").is_err());
        assert!(parse_weighted_csv("0,inf\n").is_err());
        assert!(parse_colored_csv("NaN,0,1\n").is_err());

        let steps = parse_batch_script(
            "disk,1.0\nrect,2,1\ncolored-disk,0.5\n# comment\ndisk-approx,1\ncolored-disk-approx,1\n",
        )
        .unwrap();
        assert_eq!(steps.len(), 5);
        let solver_of = |step: &ScriptStep<2>| match step {
            ScriptStep::Query(q) => q.solver().to_string(),
            ScriptStep::Mutate(_) => unreachable!("query step"),
        };
        assert_eq!(solver_of(&steps[0]), "exact-disk-2d");
        assert_eq!(solver_of(&steps[1]), "exact-rect-2d");
        assert_eq!(solver_of(&steps[2]), "output-sensitive-colored-disk");
        assert!(parse_batch_script("disk,1,2\n").is_err());
        assert!(parse_batch_script("rect,1\n").is_err());
        assert!(parse_batch_script("disk,-1\n").is_err());
        assert!(parse_batch_script("frobnicate,1\n").is_err());

        // The `-auto` variants all hand their query to the cost-model router.
        let steps =
            parse_batch_script("disk-auto,1\nrect-auto,2,1\ncolored-disk-auto,0.5\n").unwrap();
        assert_eq!(steps.len(), 3);
        assert!(steps.iter().all(|s| solver_of(s) == "auto"), "{steps:?}");
        assert!(parse_batch_script("disk-auto,0\n").is_err());
        assert!(parse_batch_script("rect-auto,1\n").is_err());
        assert!(parse_batch_script("colored-disk-auto\n").is_err());

        // Update steps: inserts with optional weight/color, deletes by
        // coordinates, dynamic-disk queries through the maintained tracker.
        let steps = parse_batch_script(
            "insert,1,2\ninsert,1,2,3\ninsert,1,2,3,4\ndelete,1,2\ndisk-dynamic,1\n",
        )
        .unwrap();
        assert_eq!(steps.len(), 5);
        assert!(matches!(
            steps[0],
            ScriptStep::Mutate(Mutation::Insert { point, color: None }) if point.weight == 1.0
        ));
        assert!(matches!(steps[2], ScriptStep::Mutate(Mutation::Insert { color: Some(4), .. })));
        assert!(matches!(steps[3], ScriptStep::Mutate(Mutation::Delete { .. })));
        assert_eq!(solver_of(&steps[4]), "dynamic-ball");
        assert!(parse_batch_script("insert,1\n").is_err());
        assert!(parse_batch_script("insert,1,2,-1\n").is_err());
        assert!(parse_batch_script("insert,1,2,3,red\n").is_err());
        assert!(parse_batch_script("delete,1\n").is_err());
    }

    #[test]
    fn batch_runs_mixed_queries_through_the_executor() {
        // Four points: a weighted cluster of 3 near the origin carrying
        // colors 0/1/2, plus a far heavier point with a repeated color.  The
        // cluster wins the radius-1 queries; the far point wins at radius
        // 0.1, where no two points fit in one disk.
        let csv = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";
        let queries = "disk,1.0\nrect,1,1\ncolored-disk,1.0\ndisk,0.1\n";
        let out = run_batch_on_text(csv, queries, Some(2), 0.25, None, false).unwrap();
        assert!(out.contains("covered weight = 3.000000"), "{out}");
        assert!(out.contains("distinct colors = 3"), "{out}");
        assert!(out.contains("covered weight = 2.000000"), "{out}");
        assert!(out.contains("batch: 4 queries (0 failed)"), "{out}");
        assert!(out.contains("certified 4/4 (0 mismatches)"), "{out}");
        assert!(out.contains("threads = 2"), "{out}");
        // Per-query wall-time summary (satellite of the serving PR): the
        // batch report surfaces the same LatencySummary the server serializes,
        // tail quantiles included.
        assert!(out.contains("per-query: min"), "{out}");
        assert!(out.contains("p95"), "{out}");
        assert!(out.contains("p99"), "{out}");
        // Untraced runs print no trace block.
        assert!(!out.contains("traces:"), "{out}");
        // Work counters: the disk query runs through the shared grid, so the
        // batch must report nonzero candidates examined.
        assert!(out.contains("index work:"), "{out}");
        assert!(out.contains("candidates examined"), "{out}");
        assert!(out.contains("sieve-rejected"), "{out}");

        assert!(run_batch_on_text(csv, "", None, 0.25, None, false)
            .unwrap()
            .contains("empty query file"));
        assert!(run_batch_on_text(csv, queries, None, 1.5, None, false).is_err());
    }

    #[test]
    fn batch_trace_prints_one_phase_line_per_query() {
        let csv = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";
        let queries = "disk,1.0\ninsert,0.2,0.2,5\ndisk-auto,1.0\n";
        let out = run_batch_on_text(csv, queries, None, 0.25, None, true).unwrap();
        assert!(out.contains("traces:"), "{out}");
        // Two queries executed (the insert is an update, not a query): the
        // trace lines carry the step position, the solver (with the routed
        // choice for `auto`), the phase split and the observed version.
        assert!(out.contains("[q   0] exact-disk-2d"), "{out}");
        assert!(out.contains("[q   2] auto→"), "{out}");
        assert!(out.contains("plan "), "{out}");
        assert!(out.contains("solve "), "{out}");
        assert!(out.contains("certify "), "{out}");
        assert!(out.matches("| v").count() >= 2, "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn batch_surfaces_auto_routing_choices_and_work() {
        // Three `-auto` steps and one explicitly-solved step: the routed
        // lines carry the `auto→<choice>` tag, the explicit one stays plain,
        // and the aggregate line reports picks plus predicted/actual work.
        let csv = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";
        let queries = "disk-auto,1.0\nrect-auto,1,1\ncolored-disk-auto,1.0\ndisk,0.1\n";
        let out = run_batch_on_text(csv, queries, None, 0.25, None, false).unwrap();
        assert!(out.contains("[auto→"), "{out}");
        // A weighted axis-box can only go to the exact rect solver, so this
        // pick is deterministic; the colored-ball step must answer exactly
        // (all three cluster colors fit in a unit disk) whichever capable
        // solver the model scores cheapest.
        assert!(out.contains("[auto→exact-rect-2d @v1]"), "{out}");
        assert!(out.contains("covered weight = 3.000000"), "{out}");
        assert!(out.contains("distinct colors = 3"), "{out}");
        assert!(out.contains("[exact-disk-2d @v1]"), "{out}");
        assert!(out.contains("batch: 4 queries (0 failed)"), "{out}");
        assert!(out.contains("(0 mismatches)"), "{out}");
        assert!(out.contains("auto: routed 3 | predicted work = "), "{out}");
        assert!(out.contains("| actual work = "), "{out}");

        // No `-auto` steps → no aggregate auto line.
        let out = run_batch_on_text(csv, "disk,1.0\n", None, 0.25, None, false).unwrap();
        assert!(!out.contains("auto:"), "{out}");
    }
}
