//! Readiness waits over a handful of shard sockets, so the fan-out reads
//! each reply as it arrives instead of in shard order.
//!
//! Linux uses `poll(2)` through an `extern "C"` binding against the libc
//! libstd already links (no crate, like the daemon's epoll bindings).
//! Elsewhere every socket reports ready at once, which degrades to the
//! in-order blocking reads the per-socket read timeout already bounds.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Wait until at least one of `socks` is readable — data, EOF or an error
/// pending all count, since each makes the next read return at once — or
/// until `timeout` passes. Returns the positions (into `socks`) of the
/// ready sockets, in ascending order; empty exactly on timeout.
pub fn wait_readable(socks: &[&TcpStream], timeout: Duration) -> io::Result<Vec<usize>> {
    imp::wait_readable(socks, timeout)
}

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::net::TcpStream;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub fn wait_readable(socks: &[&TcpStream], timeout: Duration) -> io::Result<Vec<usize>> {
        let mut fds: Vec<PollFd> = socks
            .iter()
            .map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            // Round up so a sub-millisecond remainder still waits.
            let ms = left.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int;
            // SAFETY: `fds` is a live, correctly laid out pollfd array of
            // exactly `fds.len()` entries for the duration of the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
            if n >= 0 {
                // POLLERR/POLLHUP/POLLNVAL come back unrequested: any
                // returned event means a read will not block.
                return Ok(fds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.revents != 0)
                    .map(|(i, _)| i)
                    .collect());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::TcpStream;
    use std::time::Duration;

    pub fn wait_readable(socks: &[&TcpStream], _timeout: Duration) -> io::Result<Vec<usize>> {
        Ok((0..socks.len()).collect())
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn reports_only_the_sockets_with_data_and_times_out_on_silence() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (mut a_peer, _) = listener.accept().unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let (b_peer, _) = listener.accept().unwrap();
        let socks = [&a, &b];

        let quiet = wait_readable(&socks, Duration::from_millis(20)).unwrap();
        assert!(quiet.is_empty(), "nothing was sent: {quiet:?}");

        a_peer.write_all(b"x\n").unwrap();
        let ready = wait_readable(&socks, Duration::from_secs(5)).unwrap();
        assert_eq!(ready, vec![0]);

        drop(b_peer); // EOF counts as readable
        let ready = wait_readable(&socks, Duration::from_secs(5)).unwrap();
        assert_eq!(ready, vec![0, 1]);
    }
}
