//! The load generator's side of the socket: a server booted in this
//! process on an ephemeral loopback port, and blocking line clients.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use strg::prelude::*;
use strg::serve::{ServeConfig, Server, ServerHandle};

use crate::env::POOL_THREADS;

/// A running `strg-serve` instance; stops and joins on [`Booted::stop`].
pub struct Booted {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<io::Result<()>>,
}

impl Booted {
    /// Graceful shutdown; waits for the accept loop and every worker.
    pub fn stop(self) {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("warning: server ended with {e}"),
            Err(_) => eprintln!("warning: server thread panicked"),
        }
    }
}

/// Boots the server the way `strgdb serve` does (`bind_shared` over a
/// type-erased database), with the pool pinned and no coalescing window.
pub fn boot(db: Arc<dyn Database>, db_path: Option<String>) -> io::Result<Booted> {
    let cfg = ServeConfig {
        threads: Threads::Fixed(POOL_THREADS),
        db_path,
        coalesce_window: None,
        ..ServeConfig::default()
    };
    let server = Server::bind_shared("127.0.0.1:0", db, cfg)?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::Builder::new()
        .name("bench-server".to_string())
        .spawn(move || server.run())?;
    Ok(Booted { addr, handle, join })
}

/// One closed-loop connection: a request line out, a response line back.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            out: Vec::with_capacity(256),
        })
    }

    /// Sends `line` (newline appended, one write) and reads one reply
    /// line into `reply` (cleared first, newline stripped).
    pub fn call_into(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(())
    }

    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut reply = String::new();
        self.call_into(line, &mut reply)?;
        Ok(reply)
    }
}

pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}
