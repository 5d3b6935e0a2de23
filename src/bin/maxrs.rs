//! The `maxrs` command-line tool: maximum range sum queries over CSV point
//! files.  All parsing and query logic lives in [`maxrs::cli`]; this binary
//! only wires it to the process arguments, the filesystem and the exit code.

use std::process::ExitCode;

use maxrs::cli::{
    input_path, parse_args, queries_path, run_batch_on_text, run_on_text, Command, USAGE,
};

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
    let file_text = match input_path(&command) {
        None => String::new(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("error: cannot read {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
    };
    // Serve is the one long-lived command: load the startup datasets, bind,
    // and park on the runtime until a `POST /shutdown` arrives.
    if let Command::Serve { .. } = &command {
        return run_server(&command);
    }
    // Mutate posts the file to a running server's insert/delete endpoint.
    if let Command::Mutate { addr, dataset, delete, .. } = &command {
        return run_mutate(addr, dataset, *delete, &file_text);
    }
    // Batch commands read a second file (the query list) and run through the
    // shared-index executor; everything else is a single engine dispatch.
    let outcome = match &command {
        Command::Batch { threads, eps, deadline_ms, trace, .. } => {
            let queries = queries_path(&command).expect("batch commands carry a query path");
            match std::fs::read_to_string(queries) {
                Err(error) => {
                    eprintln!("error: cannot read {queries}: {error}");
                    return ExitCode::FAILURE;
                }
                Ok(queries_text) => run_batch_on_text(
                    &file_text,
                    &queries_text,
                    *threads,
                    *eps,
                    *deadline_ms,
                    *trace,
                ),
            }
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
fn run_server(command: &Command) -> ExitCode {
    use maxrs::server::{serve_with, ServerConfig, Service};
    use std::sync::Arc;
    use std::time::Duration;

    let Command::Serve {
        addr,
        threads,
        eps,
        seed,
        slow_query_ms,
        request_timeout_ms,
        queue_capacity,
        max_inflight,
        overload_watermark,
        chaos_solver,
        datasets,
    } = command
    else {
        unreachable!("run_server is only called on Command::Serve");
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: addr.to_string(),
        threads: threads.unwrap_or(0),
        eps: *eps,
        seed: *seed,
        slow_query: slow_query_ms.map(Duration::from_millis),
        request_timeout: request_timeout_ms.map(Duration::from_millis),
        queue_capacity: queue_capacity.unwrap_or(defaults.queue_capacity),
        max_inflight: max_inflight.unwrap_or(defaults.max_inflight),
        overload_watermark: overload_watermark.unwrap_or(defaults.overload_watermark),
        chaos_solver: *chaos_solver,
        ..defaults
    };
    let service = Arc::new(Service::new(config));
    for (name, path, dim) in datasets {
        let csv = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("error: cannot read {path}: {error}");
                return ExitCode::FAILURE;
            }
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
    match serve_with(service) {
        Err(error) => {
            eprintln!("error: cannot serve on {addr}: {error}");
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
