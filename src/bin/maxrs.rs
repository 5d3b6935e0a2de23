//! The `maxrs` command-line tool: maximum range sum queries over CSV point
//! files.  All parsing and query logic lives in [`maxrs::cli`]; this binary
//! only wires it to the process arguments, the filesystem and the exit code.

use std::process::ExitCode;

use maxrs::cli::{
    input_path, parse_args, queries_path, run_batch_on_text, run_on_text, Command, USAGE,
};
use maxrs::server::ServerConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let file_text = match input_path(&command).map(read) {
        None => String::new(),
        Some(Some(text)) => text,
        Some(None) => return ExitCode::FAILURE,
    };
    let outcome = match command {
        // Serve is the one long-lived command: load the startup datasets,
        // bind, and park on the runtime until a `POST /shutdown` arrives.
        Command::Serve { config, datasets } => return run_server(config, &datasets),
        // Mutate posts the file to a running server's insert/delete endpoint.
        Command::Mutate { addr, dataset, delete, .. } => {
            return run_mutate(&addr, &dataset, delete, &file_text)
        }
        // Batch commands read a second file (the query list); everything
        // else runs on the one input file.
        Command::Batch { threads, eps, deadline_ms, trace, .. } => {
            let Some(queries_text) = queries_path(&command).and_then(read) else {
                return ExitCode::FAILURE;
            };
            run_batch_on_text(&file_text, &queries_text, threads, eps, deadline_ms, trace)
        }
        _ => run_on_text(&command, &file_text),
    };
    match outcome {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `path`, or says on stderr why it cannot.
fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .map_err(|error| eprintln!("error: cannot read {path}: {error}"))
        .ok()
}

/// Posts a mutation body to a running server: `POST
/// /datasets/{name}/insert` (or `/delete`), then prints the server's
/// summary — new version, what was inserted/deleted, and how many stale
/// cached answers were invalidated.
fn run_mutate(addr: &str, dataset: &str, delete: bool, body: &str) -> ExitCode {
    use maxrs::server::{Client, Json};

    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("error: cannot connect to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let action = if delete { "delete" } else { "insert" };
    let path = format!("/datasets/{dataset}/{action}");
    let (status, response) = match client.post(&path, body) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("error: {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    if status != 200 {
        eprintln!("error: {path} answered {status}: {response}");
        return ExitCode::FAILURE;
    }
    match Json::parse(&response) {
        Ok(parsed) => {
            let field = |path: &[&str]| {
                let mut node = Some(&parsed);
                for key in path {
                    node = node.and_then(|n| n.get(key));
                }
                node.and_then(Json::as_f64).unwrap_or(f64::NAN)
            };
            println!(
                "{action}: +{} −{} (missed {}) → version {} | delta {} | compactions {} | \
                 cache entries invalidated: {}",
                field(&["mutated", "inserted"]),
                field(&["mutated", "deleted"]),
                field(&["mutated", "missed"]),
                field(&["mutated", "version"]),
                field(&["dataset", "delta"]),
                field(&["dataset", "compactions"]),
                field(&["mutated", "cache_invalidated"]),
            );
            ExitCode::SUCCESS
        }
        Err(_) => {
            println!("{response}");
            ExitCode::SUCCESS
        }
    }
}

/// Boots the query service: loads every `--dataset name=path` into the
/// catalog, binds the address, prints one line per loaded dataset plus the
/// bound address, then blocks until shutdown.
fn run_server(config: ServerConfig, datasets: &[(String, String, usize)]) -> ExitCode {
    use maxrs::server::{serve_with, Service};
    use std::sync::Arc;

    let service = Arc::new(Service::new(config));
    for (name, path, dim) in datasets {
        let Some(csv) = read(path) else {
            return ExitCode::FAILURE;
        };
        let loaded = if *dim == 1 {
            service.catalog().load_line_csv(name, &csv)
        } else {
            service.catalog().load_planar_csv(name, &csv)
        };
        match loaded {
            Ok(dataset) => eprintln!(
                "loaded {}-D dataset `{name}` from {path}: {} points, {} sites (epoch {})",
                dataset.dim(),
                dataset.point_count(),
                dataset.site_count(),
                dataset.epoch()
            ),
            Err(error) => {
                eprintln!("error: dataset `{name}` ({path}): {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    match serve_with(Arc::clone(&service)) {
        Err(error) => {
            eprintln!("error: cannot serve on {}: {error}", service.config().addr);
            ExitCode::FAILURE
        }
        Ok(handle) => {
            eprintln!(
                "maxrs serve listening on {} ({} workers); POST /shutdown to stop",
                handle.addr(),
                handle.service().config().resolved_threads()
            );
            handle.join();
            eprintln!("maxrs serve: shut down cleanly");
            ExitCode::SUCCESS
        }
    }
}
