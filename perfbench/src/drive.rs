//! The closed-loop client: one connection, the next step is sent only after
//! the previous one completed.  Responses are kept and checked after the
//! measured window, so the loop itself does no parsing.

use std::time::{Duration, Instant};

use mrs_server::{Client, PipelineRequest};

use crate::oracle::Checker;
use crate::workload::{Spec, Step, Stream};

/// One completed step: its latency, measured from the first byte written
/// to the last response read, and its responses (status, body).  A
/// query response whose answer repeats the previous one of the same pool
/// query word for word (only the request id differs) is kept with an
/// empty body, which the checker reads as "same answer as last time":
/// a run of a million cache hits then neither fills memory nor takes
/// minutes to check.
pub struct Sample {
    pub step: Step,
    /// When the step was sent, from the start of its window.
    pub at: Duration,
    pub latency: Duration,
    pub responses: Vec<(u16, String)>,
}

/// Sends one step and reads every response it is owed.
pub fn send(client: &mut Client, spec: &Spec, step: &Step) -> Result<Vec<(u16, String)>, String> {
    let io = |e: std::io::Error| format!("request failed: {e}");
    Ok(match step {
        Step::Read(id) => vec![client.post("/query", &spec.pool[*id].body).map_err(io)?],
        Step::Burst(ids) => {
            let burst: Vec<PipelineRequest<'_>> = ids
                .iter()
                .map(|&id| PipelineRequest::post("/query", &spec.pool[id].body))
                .collect();
            client
                .pipeline(&burst)
                .map_err(io)?
                .into_iter()
                .map(|(status, _, body)| (status, body))
                .collect()
        }
        Step::Write(write) => vec![client.post(&write.path, &write.body).map_err(io)?],
    })
}

/// Runs the stream for `window`; returns the samples and the wall time from
/// the first write to the last response.
pub fn drive(
    client: &mut Client,
    spec: &Spec,
    stream: &mut Stream,
    window: Duration,
) -> Result<(Vec<Sample>, Duration), String> {
    let mut samples = Vec::new();
    let mut last: Vec<(bool, String)> = vec![(false, String::new()); spec.pool.len()];
    let start = Instant::now();
    while start.elapsed() < window {
        let step = stream.next_step();
        let sent = Instant::now();
        let mut responses = send(client, spec, &step)?;
        let latency = sent.elapsed();
        let ids: &[usize] = match &step {
            Step::Read(id) => std::slice::from_ref(id),
            Step::Burst(ids) => ids,
            Step::Write(_) => &[],
        };
        for (&id, (_, body)) in ids.iter().zip(&mut responses) {
            let cached = body.starts_with(r#"{"cached":true"#);
            let Some(at) = body.find(r#","answer":"#) else { continue };
            if last[id].0 == cached && last[id].1 == body[at..] {
                *body = String::new();
            } else {
                last[id] = (cached, body[at..].to_string());
            }
        }
        samples.push(Sample { step, at: sent - start, latency, responses });
    }
    Ok((samples, start.elapsed()))
}

/// One set-up: every upload, then every warm-up query.  Returns the time
/// from the first upload to the last warm-up answer; the answers are
/// checked afterwards, untimed.
pub fn set_up(client: &mut Client, spec: &Spec, checker: &mut Checker) -> Result<Duration, String> {
    let start = Instant::now();
    for dataset in &spec.datasets {
        let (status, body) = client
            .post(&dataset.upload_path(), &dataset.csv)
            .map_err(|e| format!("upload of {}: {e}", dataset.name))?;
        if status != 200 {
            return Err(format!("upload of {} answered {status}: {body}", dataset.name));
        }
    }
    let mut answers = Vec::with_capacity(spec.warmup.len());
    for &id in &spec.warmup {
        let answer =
            client.post("/query", &spec.pool[id].body).map_err(|e| format!("warm-up: {e}"))?;
        answers.push((id, answer));
    }
    let elapsed = start.elapsed();
    checker.reset(spec);
    for (id, answer) in &answers {
        checker.check_read(*id, answer);
    }
    Ok(elapsed)
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
