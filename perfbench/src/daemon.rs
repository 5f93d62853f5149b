//! Starting, timing and stopping the real `rkr` daemons.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::Conn;

/// One running `rkr serve` or `rkr coord` process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawn `rkr <args> --addr 127.0.0.1:0` and wait for the banner that
    /// names the bound address.
    pub fn spawn(rkr: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(rkr)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rkr.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("rkr {} exited before listening", args.join(" ")));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr: String = rest
                    .chars()
                    .take_while(|c| !c.is_whitespace() && *c != ',')
                    .collect();
                return Ok(Daemon {
                    child,
                    stdout,
                    addr,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Ask the daemon to shut down, wait for it to exit, and return what
    /// it printed after its banner. Kills it if it does not exit in time.
    pub fn stop(mut self) -> String {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.call("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        rest
    }
}

impl Drop for Daemon {
    /// A daemon left behind by an error path is killed and reaped; after
    /// [`Daemon::stop`] this finds the process already gone.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Poll `stats` until the daemon answers; the first reply ends set-up.
pub fn first_stats(addr: &str) -> Result<Conn, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Conn::connect(addr).and_then(|mut c| c.call("{\"op\":\"stats\"}").map(|_| c)) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() >= deadline => return Err(format!("{addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// A started deployment: the daemons, the connection that finished
/// set-up, and the address clients use.
pub struct Fleet {
    pub daemons: Vec<Daemon>,
    pub front: String,
    pub conn: Conn,
}

impl Fleet {
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemons.iter().map(Daemon::peak_rss_mb).sum()
    }

    /// The shard daemons of a fleet started by [`start_fleet`] (every
    /// daemon but the coordinator, which is last).
    pub fn shards(&self) -> &[Daemon] {
        &self.daemons[..self.daemons.len() - 1]
    }

    /// Stop every daemon, front first; returns the last daemon-to-stop's
    /// closing output (a single daemon's "rkrd stopped ..." line).
    pub fn stop(self) -> String {
        drop(self.conn);
        let mut out = String::new();
        for d in self.daemons.into_iter().rev() {
            out = d.stop();
        }
        out
    }
}

/// One `rkr serve` daemon on `graph`; set-up ends at its first `stats`.
pub fn start_single(rkr: &Path, graph: &Path) -> Result<Fleet, String> {
    let daemon = Daemon::spawn(rkr, &["serve".to_string(), graph.display().to_string()])?;
    let conn = first_stats(&daemon.addr)?;
    Ok(Fleet {
        front: daemon.addr.clone(),
        daemons: vec![daemon],
        conn,
    })
}

/// `shards` shard daemons plus `rkr coord` in front of them. Set-up ends
/// when every shard has answered `stats` and a `flush` through the
/// coordinator has come back, which needs the coordinator's handshake
/// with every shard on the returned connection.
pub fn start_fleet(rkr: &Path, graph: &Path, shards: u32) -> Result<Fleet, String> {
    let mut daemons = Vec::new();
    for i in 0..shards {
        let args: Vec<String> = [
            "serve",
            &graph.display().to_string(),
            "--shard-id",
            &i.to_string(),
            "--shard-count",
            &shards.to_string(),
            "--workers",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        daemons.push(Daemon::spawn(rkr, &args)?);
    }
    for d in &daemons {
        first_stats(&d.addr)?;
    }
    let list: Vec<&str> = daemons.iter().map(|d| d.addr.as_str()).collect();
    let coord = Daemon::spawn(
        rkr,
        &["coord".to_string(), "--shards".to_string(), list.join(",")],
    )?;
    let mut conn = first_stats(&coord.addr)?;
    conn.call_ok("{\"op\":\"flush\"}")?;
    let front = coord.addr.clone();
    daemons.push(coord);
    Ok(Fleet {
        daemons,
        front,
        conn,
    })
}

/// Start a deployment `reps` times in a row, timing each start, and keep
/// the last one running. Returns it with the set-up times in seconds.
pub fn timed_setup(
    reps: usize,
    mut start: impl FnMut() -> Result<Fleet, String>,
) -> Result<(Fleet, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let fleet = start()?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            kept = Some(fleet);
        } else {
            fleet.stop();
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}
