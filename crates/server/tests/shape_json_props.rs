//! Property tests for the server's shape JSON dialect: every positive finite
//! `{"ball": R}` / `{"box": [W, H]}` / `{"interval": L}` round-trips through
//! the std-only JSON layer and dispatches, `{"interval": L}` is exactly the
//! `{"ball": L/2}` sugar, and non-positive, non-finite, overflowing or
//! malformed shapes come back as clean 400s instead of reaching a solver.
//! Every 200 answer renders a finite center.

use mrs_server::http::{Request, Response};
use mrs_server::{Json, ServerConfig, Service};
use proptest::prelude::*;

const CSV: &str = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";

fn service_with_dataset() -> Service {
    let service = Service::new(ServerConfig { seed: Some(42), ..ServerConfig::default() });
    let upload = service.handle(&post("/datasets/demo", CSV));
    assert_eq!(upload.status, 200, "dataset upload failed");
    service
}

fn post(target: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        target: target.into(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn body_json(response: &Response) -> Json {
    Json::parse(std::str::from_utf8(&response.body).expect("UTF-8 body")).expect("JSON body")
}

/// The semantic part of a query answer: everything except the timing field.
/// Asserts the answer renders a finite center.
fn semantic_answer(response: &Response) -> Json {
    let answer = body_json(response).get("answer").expect("answer object").clone();
    let center = answer.get("center").and_then(Json::as_arr).expect("center array");
    assert!(center.iter().all(|c| c.as_f64().is_some_and(f64::is_finite)), "center {center:?}");
    match answer {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "solve_us").collect()),
        other => other,
    }
}

proptest! {
    /// Dyadic positive radii of widely varying magnitude: the query is
    /// accepted, and `{"interval": 2R}` halves back to exactly `{"ball": R}`
    /// (the values are dyadic, so `L / 2.0` is exact) — both shapes must
    /// produce the same answer on the same dataset.
    #[test]
    fn interval_sugar_is_exactly_a_halved_ball(m in 1u64..4096, shift in 0u32..12) {
        let radius = m as f64 / f64::from(1u32 << shift);
        let service = service_with_dataset();
        let ball = format!(
            r#"{{"dataset":"demo","solver":"exact-disk-2d","shape":{{"ball":{radius}}},"cache":false}}"#
        );
        let interval = format!(
            r#"{{"dataset":"demo","solver":"exact-disk-2d","shape":{{"interval":{}}},"cache":false}}"#,
            2.0 * radius
        );
        let from_ball = service.handle(&post("/query", &ball));
        let from_interval = service.handle(&post("/query", &interval));
        prop_assert_eq!(from_ball.status, 200, "ball radius {} rejected", radius);
        prop_assert_eq!(from_interval.status, 200, "interval length {} rejected", 2.0 * radius);
        prop_assert_eq!(semantic_answer(&from_ball), semantic_answer(&from_interval));
    }

    /// Box extents dispatch, and the rendered shape JSON survives a
    /// parse → render → parse round trip bit-exactly (the renderer emits the
    /// shortest representation that round-trips).
    #[test]
    fn box_shapes_dispatch_and_round_trip(
        wm in 1u64..4096, ws in 0u32..12, hm in 1u64..4096, hs in 0u32..12,
    ) {
        let (w, h) = (wm as f64 / f64::from(1u32 << ws), hm as f64 / f64::from(1u32 << hs));
        let shape = Json::Obj(vec![(
            "box".into(),
            Json::Arr(vec![Json::num(w), Json::num(h)]),
        )]);
        let reparsed = Json::parse(&shape.render()).expect("rendered shape parses");
        prop_assert_eq!(&reparsed, &shape);
        let dims = reparsed.get("box").unwrap().as_arr().unwrap();
        prop_assert_eq!(dims[0].as_f64(), Some(w));
        prop_assert_eq!(dims[1].as_f64(), Some(h));

        let service = service_with_dataset();
        let body = format!(
            r#"{{"dataset":"demo","solver":"exact-rect-2d","shape":{},"cache":false}}"#,
            shape.render()
        );
        let response = service.handle(&post("/query", &body));
        prop_assert_eq!(response.status, 200, "box [{}, {}] rejected", w, h);
        let answer = semantic_answer(&response);
        prop_assert!(answer.get("value").and_then(Json::as_f64).is_some());
    }

    /// Zero and negative measurements never reach a solver: every shape kind
    /// reports the offending field as "must be positive".
    #[test]
    fn nonpositive_measurements_are_rejected(m in 0u64..4096, shift in 0u32..12) {
        let v = -(m as f64 / f64::from(1u32 << shift)); // 0.0 or negative
        let service = service_with_dataset();
        for shape in [
            format!(r#"{{"ball":{v}}}"#),
            format!(r#"{{"interval":{v}}}"#),
            format!(r#"{{"box":[{v},1.0]}}"#),
            format!(r#"{{"box":[1.0,{v}]}}"#),
        ] {
            let body =
                format!(r#"{{"dataset":"demo","solver":"exact-disk-2d","shape":{shape}}}"#);
            let response = service.handle(&post("/query", &body));
            prop_assert_eq!(response.status, 400, "accepted {}", shape);
            let message = body_json(&response).get("error").unwrap().as_str().unwrap().to_string();
            prop_assert!(message.contains("must be positive"), "unexpected error: {}", message);
        }
    }

    /// Numeric overflow (literals beyond f64 range) is caught by the JSON
    /// layer itself — the parser admits only finite numbers, so `1e309` and
    /// friends never materialize as `inf` radii.
    #[test]
    fn overflowing_literals_are_rejected_as_non_finite(exp in 309u32..4000) {
        let service = service_with_dataset();
        for literal in [format!("1e{exp}"), format!("-1e{exp}")] {
            let body = format!(
                r#"{{"dataset":"demo","solver":"exact-disk-2d","shape":{{"ball":{literal}}}}}"#
            );
            let response = service.handle(&post("/query", &body));
            prop_assert_eq!(response.status, 400, "accepted {}", literal);
            let message = body_json(&response).get("error").unwrap().as_str().unwrap().to_string();
            prop_assert!(message.contains("a finite number"), "unexpected error: {}", message);
        }
    }
}

/// The solvers a 1-D ball query can name.
const LINE_SOLVERS: [&str; 3] = ["exact-interval-1d", "batched-interval-1d", "auto"];

fn line_service(csv: &str) -> Service {
    let service = Service::new(ServerConfig { seed: Some(42), ..ServerConfig::default() });
    assert_eq!(service.handle(&post("/datasets/ticks?dim=1", csv)).status, 200);
    service
}

fn panics(service: &Service) -> Option<f64> {
    let stats = service.handle(&Request { method: "GET".into(), ..post("/stats", "") });
    body_json(&stats).get("overload")?.get("panics")?.as_f64()
}

proptest! {
    /// A finite radius whose diameter overflows `f64` is refused where the
    /// shape enters, whatever the dataset: no solver sees it, and no worker
    /// panics.
    #[test]
    fn radii_with_overflowing_diameters_are_rejected(m in 1u64..1000) {
        let radius = f64::MAX / 2.0 * (1.0 + m as f64 / 1000.0);
        let service = line_service("0,1\n0.5,2\n3,1\n");
        for solver in LINE_SOLVERS {
            let body = format!(
                r#"{{"dataset":"ticks","solver":"{solver}","shape":{{"ball":{radius}}}}}"#
            );
            let response = service.handle(&post("/query", &body));
            prop_assert_eq!(response.status, 400, "{} accepted radius {}", solver, radius);
            let message = body_json(&response).get("error").unwrap().as_str().unwrap().to_string();
            prop_assert!(message.contains("too large"), "unexpected error: {}", message);
        }
        prop_assert_eq!(panics(&service), Some(0.0));
    }
}

/// The round probe `{"ball": 1e308}` (diameter 2e308) on a line dataset: a
/// 400 for every 1-D solver, and no worker panics.
#[test]
fn a_huge_ball_on_a_line_dataset_is_a_typed_400() {
    let service = line_service("0,1\n0.5,2\n3,1\n");
    for solver in LINE_SOLVERS {
        let body = format!(r#"{{"dataset":"ticks","solver":"{solver}","shape":{{"ball":1e308}}}}"#);
        assert_eq!(service.handle(&post("/query", &body)).status, 400, "{solver}");
    }
    assert_eq!(panics(&service), Some(0.0));
}

/// When nothing beats the empty placement (all weights 0), the answer is an
/// interval covering no point, and its center stays finite even where
/// twice the length leaves the `f64` range.
#[test]
fn empty_placements_render_finite_centers_at_any_length() {
    let service = line_service("-3,0\n0,0\n2.5,0\n");
    for len in ["1", "1e100", "1e308", "1.7e308"] {
        for solver in LINE_SOLVERS {
            let body = format!(
                r#"{{"dataset":"ticks","solver":"{solver}","shape":{{"interval":{len}}},"cache":false}}"#
            );
            let response = service.handle(&post("/query", &body));
            assert_eq!(response.status, 200, "{solver} length {len}");
            let answer = semantic_answer(&response);
            assert_eq!(answer.get("value").and_then(Json::as_f64), Some(0.0));
            assert_eq!(answer.get("certified").and_then(Json::as_bool), Some(true));
        }
    }
    assert_eq!(panics(&service), Some(0.0));
}

/// Textual NaN/infinity spellings are not JSON and malformed shape objects
/// name the accepted grammar — a fixed enumeration rather than a property,
/// since JSON has no non-finite literals to generate.
#[test]
fn non_numeric_and_malformed_shapes_are_rejected() {
    let service = service_with_dataset();
    for (shape, expected) in [
        (r#"{"ball":nan}"#, "a JSON"),
        (r#"{"ball":NaN}"#, "a JSON"),
        (r#"{"ball":inf}"#, "a JSON"),
        (r#"{"ball":Infinity}"#, "a JSON"),
        (r#"{"ball":"1.0"}"#, "`shape` must be"),
        (r#"{"box":[1.0]}"#, "array of two numbers"),
        (r#"{"box":1.0}"#, "`shape` must be"),
        (r#"{"sphere":1.0}"#, "`shape` must be"),
        (r#"{}"#, "`shape` must be"),
    ] {
        let body = format!(r#"{{"dataset":"demo","solver":"exact-disk-2d","shape":{shape}}}"#);
        let response = service.handle(&post("/query", &body));
        assert_eq!(response.status, 400, "accepted {shape}");
        let parsed = body_json(&response);
        let message = parsed.get("error").unwrap().as_str().unwrap();
        assert!(message.contains(expected), "shape {shape}: unexpected error {message}");
    }
}
