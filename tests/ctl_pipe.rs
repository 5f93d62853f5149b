//! `rkr ctl` writing into a pipe whose reader has gone away
//! (`rkr ctl ADDR stats | head -3`) ends quietly with exit status 0
//! instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

use rkranks_core::RkrIndex;
use rkranks_datasets::{dblp_like, Scale};
use rkranks_server::{spawn, Client, ServerConfig};

#[test]
fn ctl_into_a_closed_pipe_exits_zero_without_a_panic() {
    let g = dblp_like(Scale::Tiny, 3);
    let n = g.num_nodes();
    let handle = spawn(
        g,
        None,
        RkrIndex::empty(n, 16),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr().to_string();

    for op in [&["stats"][..], &["metrics"], &["metrics", "--prom"]] {
        // Close the read end before the command starts, so every write
        // it makes hits EPIPE deterministically.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_rkr"))
            .arg("ctl")
            .arg(&addr)
            .args(op)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn rkr ctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "rkr ctl {op:?}: {} {stderr}",
            out.status
        );
        assert!(
            stderr.is_empty(),
            "rkr ctl {op:?} must exit quietly: {stderr}"
        );
    }

    Client::connect(handle.addr())
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join();
}
