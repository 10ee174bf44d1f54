//! The TCP front door: accept loop, per-connection reader/writer
//! threads, graceful shutdown.
//!
//! Per connection there is one reader thread (parses frames, submits to
//! the [`Service`]) and one writer thread (serializes completions back
//! as they finish — batched requests complete together, so responses
//! can arrive out of submission order; the echoed `id` correlates
//! them). Completions flow from the service's worker threads straight
//! into the connection's writer channel — no per-request thread, no
//! polling.
//!
//! Shutdown is in-band: a frame with the [`proto::SHUTDOWN`] kernel tag
//! acknowledges, stops the accept loop, drains the service (accepted
//! requests still complete), and wakes [`Server::wait`]. CI drives this
//! path to assert a clean exit without process signals.

use crate::proto::{self, Status, WireBody, WireResponse};
use crate::service::{Completed, Outcome, Service, ShedReason};
use imgproc::request::{self, Backend, KernelRequest};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A running SC-ReRAM service bound to a TCP listener.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the service engine and the accept loop on `listener`.
    ///
    /// # Errors
    ///
    /// Engine start-up errors ([`Service::start`]) or listener I/O
    /// errors.
    pub fn start(
        listener: TcpListener,
        cfg: crate::service::ServiceConfig,
    ) -> Result<Self, io::Error> {
        let addr = listener.local_addr()?;
        let service = Arc::new(
            Service::start(cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &service, &stop))
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            service,
            stop,
            accept_thread: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service engine (stats, config).
    #[must_use]
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Blocks until the server shuts down (an in-band shutdown frame or
    /// a [`Server::shutdown`] call), then drains the service.
    pub fn wait(&self) {
        let handle = self.accept_thread.lock().expect("accept lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.service.shutdown();
    }

    /// Initiates shutdown from the host process (equivalent to an
    /// in-band shutdown frame) and drains the service.
    pub fn shutdown(&self) {
        request_stop(&self.stop, self.addr);
        self.wait();
    }
}

/// Flags the accept loop to stop and pokes the listener with a
/// throwaway connection so a blocked `accept` observes the flag.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    if let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        drop(s);
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => {
                // A persistent accept failure (e.g. EMFILE under fd
                // exhaustion) returns immediately; back off so this
                // thread does not busy-spin while the condition lasts.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        let service = Arc::clone(service);
        let stop = Arc::clone(stop);
        let addr = listener.local_addr().expect("bound listener");
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &service, &stop, addr);
            });
    }
}

fn completed_to_wire(done: Completed) -> WireResponse {
    let (status, pixels, message) = match done.outcome {
        Outcome::Done(resp) => (Status::Ok, Some(resp.pixels), String::new()),
        Outcome::Shed(ShedReason::QueueFull) => (Status::Shed, None, "queue full".into()),
        Outcome::Shed(ShedReason::Deadline) => (Status::Shed, None, "deadline unmeetable".into()),
        Outcome::Failed(msg) => (Status::Error, None, msg),
        Outcome::Bye => (Status::Ok, None, String::new()),
    };
    WireResponse {
        id: done.id,
        status,
        downgraded: done.downgraded,
        effective_n: done.effective_n as u32,
        queue_ns: done.queue_ns,
        service_ns: done.service_ns,
        pixels,
        message,
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> io::Result<()> {
    // Each response is one small segment. With Nagle's algorithm on, a
    // response written while the previous one is still unacknowledged
    // waits for the peer's delayed ACK (~40 ms on Linux), so whether a
    // request stalls would depend on how closely its completion follows
    // the last one.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = stream;
    let (tx, rx) = mpsc::channel::<Completed>();

    let writer_thread = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || {
            let mut w = BufWriter::new(writer);
            while let Ok(done) = rx.recv() {
                if proto::write_response(&mut w, &completed_to_wire(done)).is_err() {
                    break; // peer went away; drain silently
                }
            }
        })
        .expect("spawn writer");

    loop {
        let frame = match proto::read_request(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // A well-framed but invalid request: answer it, keep reading.
            Err(e) => match proto::rejected(&e) {
                Some(r) => {
                    let _ = tx.send(fail(r.id, r.reason.clone()));
                    continue;
                }
                None => return Err(e),
            },
        };
        match frame.body {
            WireBody::Shutdown => {
                let _ = tx.send(Completed {
                    id: frame.id,
                    outcome: Outcome::Bye,
                    effective_n: 0,
                    downgraded: false,
                    queue_ns: 0,
                    service_ns: 0,
                });
                // Flush the ack before stopping the accept loop: once it
                // stops, `Server::wait` returns and the host process may
                // exit, tearing this connection down mid-write.
                drop(tx);
                let _ = writer_thread.join();
                request_stop(stop, addr);
                return Ok(());
            }
            WireBody::Kernel(req) => {
                dispatch_kernel(
                    service,
                    frame.id,
                    frame.deadline_us,
                    frame.backend,
                    frame.fault_prob,
                    req,
                    &tx,
                );
            }
        }
    }
    drop(tx);
    let _ = writer_thread.join();
    Ok(())
}

/// Routes one kernel frame: SC-ReRAM requests go through the batched
/// service (asynchronous completion); baseline backends run inline on
/// the connection thread — they are cheap reference implementations
/// with no farm to contend for.
fn dispatch_kernel(
    service: &Service,
    id: u64,
    deadline_us: u64,
    backend_byte: u8,
    fault_prob: f64,
    req: KernelRequest,
    tx: &mpsc::Sender<Completed>,
) {
    let engine = &service.config().engine;
    let backend = match proto::backend_of(backend_byte, fault_prob, engine) {
        Ok(b) => b,
        Err(e) => {
            let _ = tx.send(fail(id, e.to_string()));
            return;
        }
    };
    let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
    match backend {
        Backend::ScReram => {
            if let Err(e) = service.submit_via(req, deadline, id, tx.clone()) {
                let _ = tx.send(fail(id, e.to_string()));
            }
        }
        other => {
            let t0 = std::time::Instant::now();
            // Same admission validation the batched path gets from
            // `submit_via` — the inline backends must not see a request
            // shape the service would have rejected.
            let done = match req
                .validate()
                .and_then(|()| request::run_on(&req, &other, engine))
            {
                Ok(resp) => Completed {
                    id,
                    outcome: Outcome::Done(resp),
                    effective_n: engine.stream_len,
                    downgraded: false,
                    queue_ns: 0,
                    service_ns: t0.elapsed().as_nanos() as u64,
                },
                Err(e) => fail(id, e.to_string()),
            };
            let _ = tx.send(done);
        }
    }
}

fn fail(id: u64, msg: String) -> Completed {
    Completed {
        id,
        outcome: Outcome::Failed(msg),
        effective_n: 0,
        downgraded: false,
        queue_ns: 0,
        service_ns: 0,
    }
}
