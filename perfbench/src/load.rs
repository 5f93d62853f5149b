//! The load generator: a closed loop, and an open loop over one
//! pipelined connection.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::trace::Recorder;
use crate::wire::{parse_answer, parse_ok, Answer, Conn};

/// One request to send: a query (its node and exact request line), or
/// an update batch followed by its `flush`, sent back to back.
#[derive(Clone)]
pub struct Job {
    pub id: usize,
    pub node: u32,
    pub line: String,
    /// Open loop only: when the request is due, after the loop's start.
    pub due: Duration,
    /// For an update batch: its index. The job is done at the second
    /// reply (the flush), when the batch is committed and published.
    pub batch: Option<usize>,
}

impl Job {
    fn replies(&self) -> usize {
        if self.batch.is_some() {
            2
        } else {
            1
        }
    }
}

/// One query as the client saw it.
pub struct Sample {
    pub id: usize,
    pub node: u32,
    /// The job's update batch, if it was one.
    pub batch: Option<usize>,
    /// Open loop: when it was due; closed loop: when it was sent.
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Result<Answer, String>,
    /// The raw reply line (kept only when tracing, for the render replay).
    pub raw: Option<String>,
}

impl Sample {
    /// Latency in ms as a user sees it: from due time to reply.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Round trip in ms from the moment the request was written.
    pub fn round_trip_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

impl Sample {
    pub fn failed(job: &Job, due: Instant, why: String) -> Sample {
        let now = Instant::now();
        Sample {
            id: job.id,
            node: job.node,
            batch: job.batch,
            due,
            sent: now,
            done: now,
            reply: Err(why),
            raw: None,
        }
    }
}

fn finish(
    job: &Job,
    due: Instant,
    (sent, written): (Instant, Instant),
    replies: Vec<String>,
    trace: &mut Option<Recorder>,
) -> Sample {
    let done = Instant::now();
    if let Some(rec) = trace.as_mut() {
        rec.record("loadgen.request", job.id, due, done);
        rec.record_child("loadgen.send", job.id, sent, written);
        rec.overhead += done.elapsed();
        rec.traced += done - due;
    }
    let reply = match job.batch {
        None => parse_answer(&replies[0]),
        Some(_) => replies
            .iter()
            .try_for_each(|r| parse_ok(r).map(drop))
            .map(|()| Answer {
                entries: Vec::new(),
                partial: false,
                cached: false,
                graph_epoch: 0,
            }),
    };
    Sample {
        id: job.id,
        node: job.node,
        batch: job.batch,
        due,
        sent,
        done,
        reply,
        raw: trace.is_some().then(|| replies.join("\n")),
    }
}

/// Closed loop: send the next job only after the previous reply (for an
/// update batch, after its flush reply), until the jobs run out.
pub fn closed_loop(
    conn: &mut Conn,
    jobs: impl Iterator<Item = Job>,
    trace: &mut Option<Recorder>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for job in jobs {
        let sent = Instant::now();
        let reply = conn
            .send(&job.line)
            .map(|()| Instant::now())
            .and_then(|written| {
                let lines: io::Result<Vec<String>> =
                    (0..job.replies()).map(|_| conn.recv()).collect();
                Ok((written, lines?))
            });
        match reply {
            Ok((written, lines)) => out.push(finish(&job, sent, (sent, written), lines, trace)),
            Err(e) => {
                // The connection's state is unknown after a transport
                // error: stop here and report it.
                out.push(Sample::failed(&job, sent, format!("transport: {e}")));
                break;
            }
        }
    }
    out
}

/// Open loop over one connection with two threads: a sender that writes
/// each job at its due time (sleeping, not polling, in between) without
/// waiting for earlier replies, and this thread, which reads the replies
/// in order as they arrive. Each job's latency counts from its due time.
/// Returns the samples and how late each write was, in ms.
pub fn open_loop(
    conn: &mut Conn,
    jobs: &[Job],
    start: Instant,
    trace: &mut Option<Recorder>,
) -> Result<(Vec<Sample>, Vec<f64>), String> {
    let mut writer = conn
        .writer()
        .map_err(|e| format!("cannot clone the socket: {e}"))?;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, (Instant, Instant))>();
    let mut out = Vec::with_capacity(jobs.len());
    let mut late = Vec::with_capacity(jobs.len());
    let stop = &stop;
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                let due = start + job.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let sent = Instant::now();
                late.push((sent - due).as_secs_f64() * 1e3);
                let mut bytes = job.line.clone().into_bytes();
                bytes.push(b'\n');
                if writer.write_all(&bytes).is_err() {
                    break;
                }
                if tx.send((i, (sent, Instant::now()))).is_err() {
                    break;
                }
            }
            late
        });
        // Replies come back in request order; the sender hands over each
        // job's send times before its reply can be read.
        for (i, sent) in rx.iter() {
            let job = &jobs[i];
            let due = start + job.due;
            let replies: io::Result<Vec<String>> =
                (0..job.replies()).map(|_| conn.recv()).collect();
            match replies {
                Ok(lines) => out.push(finish(job, due, sent, lines, trace)),
                Err(e) => {
                    out.push(Sample::failed(job, due, format!("no reply: {e}")));
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        // Drain what the sender wrote after a failure, then count it.
        for (i, _) in rx.iter() {
            out.push(Sample::failed(
                &jobs[i],
                start + jobs[i].due,
                "no reply".into(),
            ));
        }
        late = sender.join().expect("sender thread panicked");
    });
    // Jobs never written (after a failure) still count.
    for job in &jobs[out.len()..] {
        out.push(Sample::failed(job, start + job.due, "not sent".into()));
    }
    Ok((out, late))
}
