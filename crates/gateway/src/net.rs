//! Minimal socket abstraction over TCP and Unix-domain transports.
//!
//! Endpoints are plain strings: `"127.0.0.1:4410"` (TCP) or
//! `"unix:/tmp/sentinet.sock"` (Unix-domain). Both sides of the
//! gateway speak through [`Stream`]/[`Listener`] so the framing,
//! retry, and collector code is transport-agnostic, and `std::net`
//! stays confined to this crate (enforced by the `net-outside-gateway`
//! lint).
//!
//! Every stream gets an explicit read timeout before its first read —
//! a gateway thread must never block forever on a dead peer (enforced
//! by the `socket-read-timeout` lint).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A connected byte stream over either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// A bound listening socket over either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (remembers its path for cleanup).
    #[cfg(unix)]
    Unix(UnixListener),
}

#[cfg(not(unix))]
fn unsupported(spec: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!("unix-domain endpoint `{spec}` unsupported on this platform"),
    )
}

impl Listener {
    /// Binds `spec`, returning the listener and the resolved address a
    /// client can connect to (for TCP, the OS-assigned port is filled
    /// in).
    pub(crate) fn bind(spec: &str) -> io::Result<(Self, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // A stale socket file from a killed process blocks
                // rebinding; remove it first.
                // sentinet-allow(io-outside-vfs): a socket node is transport
                // state, not durable data — fault injection on the unlink
                // would only break rebinding, not durability.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                return Ok((Listener::Unix(listener), format!("unix:{path}")));
            }
            #[cfg(not(unix))]
            return Err(unsupported(spec));
        }
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?.to_string();
        Ok((Listener::Tcp(listener), addr))
    }

    /// Accepts one connection, blocking until one arrives. A TCP
    /// stream comes back with `TCP_NODELAY` set (see
    /// [`Stream::connect`]).
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

impl Stream {
    /// Connects to `spec` (same syntax as [`Listener::bind`]). TCP
    /// streams get `TCP_NODELAY`: every frame is written whole, and a
    /// small one (an ack, a heartbeat) held back by Nagle until the
    /// peer's delayed ACK fires costs its reader ≈ 40 ms.
    pub(crate) fn connect(spec: &str) -> io::Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            return UnixStream::connect(path).map(Stream::Unix);
            #[cfg(not(unix))]
            return Err(unsupported(spec));
        }
        let stream = TcpStream::connect(spec)?;
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Bounds how long a read may block.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds how long a write may block.
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Clones the handle (shared underlying socket), so one thread can
    /// read while another writes acks.
    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shuts down both directions.
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// True when a read failed only because its timeout elapsed.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_streams_disable_nagle_on_both_ends() {
        let (listener, addr) = Listener::bind("127.0.0.1:0").expect("bind");
        let client = Stream::connect(&addr).expect("connect");
        let accepted = listener.accept().expect("accept");
        for (end, stream) in [("client", &client), ("accepted", &accepted)] {
            let Stream::Tcp(tcp) = stream else {
                panic!("{end}: a TCP endpoint yields a TCP stream");
            };
            assert!(tcp.nodelay().expect("nodelay"), "{end}: TCP_NODELAY unset");
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_streams_connect_and_accept() {
        let path = std::env::temp_dir().join(format!("sentinet-net-{}.sock", std::process::id()));
        let spec = format!("unix:{}", path.display());
        let (listener, addr) = Listener::bind(&spec).expect("bind");
        let mut client = Stream::connect(&addr).expect("connect");
        let mut accepted = listener.accept().expect("accept");
        client.write_all(b"x").expect("write");
        let mut byte = [0u8; 1];
        accepted.read_exact(&mut byte).expect("read");
        assert_eq!(&byte, b"x");
        let _ = std::fs::remove_file(&path);
    }
}
