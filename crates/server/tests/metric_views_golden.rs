//! A golden contract for the service's two metric views, `GET /stats` and
//! `GET /metrics`.
//!
//! A fixed script drives a seeded service through [`Service::handle`]
//! alone: two uploads, a cache miss and hit, `auto`, colored and batch
//! queries, an insert and a delete, a 404, a 400, a caught panic and an
//! expired deadline.  Both views are then rendered and compared with
//! `tests/golden/metric_views.txt`, ignoring order:
//!
//! * `/stats` is flattened into sorted `path = value` lines, array elements
//!   keyed by their `endpoint` or `name` field;
//! * `/metrics` becomes its sorted lines, `# HELP` and `# TYPE` verbatim.
//!
//! Values that depend on wall time are masked: uptime, `requests_per_sec`,
//! `total_us`, `latency.*`, `*_time_us`, histogram `_bucket` and `_sum`
//! samples, and `*_seconds_total`.  Every key path, family, label set and
//! count stays in the contract.

use mrs_server::http::Request;
use mrs_server::{Json, ServerConfig, Service};

const GOLDEN: &str = include_str!("golden/metric_views.txt");
const MASK: &str = "<masked>";

fn request(method: &str, target: &str, headers: &[(&str, &str)], body: &str) -> Request {
    Request {
        method: method.into(),
        target: target.into(),
        headers: headers.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        body: body.as_bytes().to_vec(),
    }
}

/// Sends one request and checks its status.
fn send(service: &Service, request: Request, status: u16) -> String {
    let response = service.handle(&request);
    let body = String::from_utf8_lossy(&response.body).into_owned();
    assert_eq!(response.status, status, "{} {} → {body}", request.method, request.target);
    body
}

fn post(service: &Service, target: &str, body: &str, status: u16) -> String {
    send(service, request("POST", target, &[], body), status)
}

/// The fixed script: every server-wide counter the service records without
/// a reactor moves at least once.
fn drive(service: &Service) {
    post(service, "/datasets/plane", "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n", 200);
    post(service, "/datasets/ticks?dim=1", "0\n1\n1.5\n2\n10,4\n", 200);

    let exact = r#"{"dataset":"plane","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
    assert!(post(service, "/query", exact, 200).contains("\"cached\":false"));
    assert!(post(service, "/query", exact, 200).contains("\"cached\":true"));
    let auto = r#"{"dataset":"plane","solver":"auto","shape":{"ball":0.7}}"#;
    assert!(post(service, "/query", auto, 200).contains("\"choice\""));
    let colored =
        r#"{"dataset":"plane","solver":"output-sensitive-colored-disk","shape":{"ball":1.0}}"#;
    post(service, "/query", colored, 200);
    let batch = r#"{"dataset":"ticks","queries":[
        {"solver":"batched-interval-1d","shape":{"interval":2.0}},
        {"solver":"exact-interval-1d","shape":{"ball":1.0}}
    ]}"#;
    post(service, "/batch", batch, 200);

    post(service, "/datasets/plane/insert", "0.2,0.2,5\n0.3,0.2,5,9\n", 200);
    post(service, "/datasets/plane/delete", "0.2,0.2\n", 200);

    send(service, request("GET", "/nope", &[], ""), 404);
    post(service, "/query", "not json", 400);
    let chaos = r#"{"dataset":"plane","solver":"chaos-panic","shape":{"ball":1.0}}"#;
    post(service, "/query", chaos, 500);
    let late = r#"{"dataset":"plane","solver":"exact-disk-2d","shape":{"ball":0.5}}"#;
    send(service, request("POST", "/query", &[("x-deadline-ms", "0")], late), 504);
}

fn masked_stat(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf == "uptime_us"
        || leaf == "requests_per_sec"
        || leaf == "total_us"
        || leaf.ends_with("_time_us")
        || path.contains(".latency.")
}

/// Flattens a JSON value into `path = value` lines.
fn flatten(path: &str, value: &Json, out: &mut Vec<String>) {
    match value {
        Json::Obj(pairs) => {
            for (key, child) in pairs {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                flatten(&child_path, child, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let id = ["endpoint", "name"]
                    .iter()
                    .find_map(|key| item.get(key).and_then(Json::as_str))
                    .map_or_else(|| i.to_string(), str::to_string);
                flatten(&format!("{path}[{id}]"), item, out);
            }
        }
        scalar if masked_stat(path) => out.push(format!("{path} = {MASK} ({})", kind(scalar))),
        scalar => out.push(format!("{path} = {}", scalar.render())),
    }
}

fn kind(value: &Json) -> &'static str {
    match value {
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Bool(_) => "bool",
        _ => "other",
    }
}

fn stats_lines(body: &str) -> Vec<String> {
    let parsed = Json::parse(body).expect("/stats is JSON");
    let mut lines = Vec::new();
    flatten("", &parsed, &mut lines);
    lines.sort();
    lines
}

fn metrics_lines(body: &str) -> Vec<String> {
    let mut lines: Vec<String> = body
        .lines()
        .map(|line| {
            if line.starts_with('#') {
                return line.to_string();
            }
            let (series, _) = line.rsplit_once(' ').expect("a sample is `series value`");
            let name = series.split('{').next().unwrap_or(series);
            let timed = name.ends_with("_bucket")
                || name.ends_with("_sum")
                || name.ends_with("_seconds_total")
                || name == "maxrs_uptime_seconds";
            if timed {
                format!("{series} {MASK}")
            } else {
                line.to_string()
            }
        })
        .collect();
    lines.sort();
    lines
}

/// Both views after the script, as the golden file lays them out.
fn render_views() -> String {
    let service =
        Service::new(ServerConfig { seed: Some(7), chaos_solver: true, ..ServerConfig::default() });
    drive(&service);
    let stats = send(&service, request("GET", "/stats", &[], ""), 200);
    let metrics = send(&service, request("GET", "/metrics", &[], ""), 200);
    let mut out = String::from("## /stats\n");
    for line in stats_lines(&stats) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("## /metrics\n");
    for line in metrics_lines(&metrics) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn both_metric_views_match_the_golden_contract() {
    let actual = render_views();
    if actual != GOLDEN {
        let expected: Vec<&str> = GOLDEN.lines().collect();
        let got: Vec<&str> = actual.lines().collect();
        let missing: Vec<&&str> = expected.iter().filter(|l| !got.contains(l)).collect();
        let extra: Vec<&&str> = got.iter().filter(|l| !expected.contains(l)).collect();
        panic!(
            "the metric views drifted from tests/golden/metric_views.txt\n\
             missing: {missing:#?}\nunexpected: {extra:#?}\n--- full rendering ---\n{actual}"
        );
    }
}
