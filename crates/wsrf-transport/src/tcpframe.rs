//! A WSE-like `soap.tcp` transport: length-prefixed SOAP frames over a
//! persistent TCP connection, with true one-way frames.
//!
//! The paper: "Files can be transferred via HTTP, but this is not the
//! preferred way to move large files. Instead, the FSS uses the Web
//! Service Enhancements (WSE) support for SOAP over TCP." WSE framed
//! SOAP with DIME; we use a simpler frame — magic, flags, length —
//! that preserves the two properties the paper relies on: persistent
//! connections (no per-message HTTP handshake) and binary-clean
//! payloads (no base64 inflation when shipping file content).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use parking_lot::Mutex;
use wsrf_obs::MetricsRegistry;
use wsrf_soap::{Envelope, SoapFault};

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::obs::LinkObs;
use crate::pool::{read_sized, release_oversized, BufPool};
use crate::serve::{is_timeout, Connection, Listener, MAX_MESSAGE, READ_TIMEOUT};

const MAGIC: &[u8; 4] = b"WSE1";
/// Frame is a request expecting a response frame.
const FLAG_CALL: u8 = 0;
/// Frame is one-way; no response will be sent.
const FLAG_ONEWAY: u8 = 1;
/// Response frame carrying an envelope.
const FLAG_RESPONSE: u8 = 2;
/// Response frame indicating the endpoint produced no response.
const FLAG_EMPTY: u8 = 3;

fn write_frame(w: &mut impl Write, flags: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut head = [0u8; 9];
    head[..4].copy_from_slice(MAGIC);
    head[4] = flags;
    head[5..9].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Render `env` as one complete frame — header plus payload — into the
/// reusable `buf`. The envelope serializes exactly once, straight into
/// the buffer; the length field is back-patched afterwards. Returns the
/// payload length.
fn frame_into(buf: &mut Vec<u8>, flags: u8, env: &Envelope) -> usize {
    buf.clear();
    buf.extend_from_slice(MAGIC);
    buf.push(flags);
    buf.extend_from_slice(&[0u8; 4]); // length, patched below
    env.write_into(buf);
    let payload_len = buf.len() - 9;
    buf[5..9].copy_from_slice(&(payload_len as u32).to_be_bytes());
    payload_len
}

/// Read the 9-byte frame header. The socket's read timeout applies
/// *inside* a frame only: firing with none of the header read, it found
/// an idle persistent connection and the wait resumes; firing after the
/// first byte, the peer stalled mid-frame and the error is returned.
/// Tracking progress here is what spares a `setsockopt` per frame.
fn read_head(r: &mut impl Read) -> std::io::Result<[u8; 9]> {
    let mut head = [0u8; 9];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if got == 0 && is_timeout(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(head)
}

/// Read one frame into the reusable `payload` buffer; returns the frame
/// flags.
fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<u8, TransportError> {
    let head = read_head(r).map_err(|e| TransportError::Io(format!("read frame header: {e}")))?;
    if &head[..4] != MAGIC {
        return Err(TransportError::Protocol("bad frame magic".into()));
    }
    let flags = head[4];
    let len = u32::from_be_bytes(head[5..9].try_into().expect("4-byte slice")) as usize;
    if len > MAX_MESSAGE {
        return Err(TransportError::Protocol(format!("frame too large: {len}")));
    }
    read_sized(r, len, payload).map_err(|e| TransportError::Io(format!("read frame body: {e}")))?;
    Ok(flags)
}

fn decode_envelope(payload: &[u8]) -> Result<Envelope, TransportError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| TransportError::Protocol("frame payload not utf-8".into()))?;
    Envelope::parse(text).map_err(|e| TransportError::Protocol(format!("bad envelope: {e}")))
}

/// Render a client fault as a response frame into `outbuf`.
fn fault_frame(outbuf: &mut Vec<u8>, detail: String) -> usize {
    frame_into(
        outbuf,
        FLAG_RESPONSE,
        &SoapFault::client(detail).to_envelope(),
    )
}

/// A listening `soap.tcp` endpoint.
pub struct FramedServer {
    listener: Listener,
}

impl FramedServer {
    /// Bind an ephemeral localhost port and serve `endpoint`.
    pub fn start(endpoint: Arc<dyn Endpoint>) -> std::io::Result<Self> {
        Self::start_with_metrics(endpoint, &MetricsRegistry::disabled())
    }

    /// Like [`FramedServer::start`], recording served frames into a
    /// metrics registry (`transport.tcpframe.*`).
    pub fn start_with_metrics(
        endpoint: Arc<dyn Endpoint>,
        registry: &MetricsRegistry,
    ) -> std::io::Result<Self> {
        let conn = FramedConn {
            endpoint,
            obs: LinkObs::new(registry, KIND),
        };
        Ok(FramedServer {
            listener: Listener::bind(KIND, registry, READ_TIMEOUT, conn)?,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The `host:port` authority string.
    pub fn authority(&self) -> String {
        self.local_addr().to_string()
    }
}

/// Metric and thread-name stem of this transport.
const KIND: &str = "tcpframe";

/// What one `soap.tcp` listener serves its connections with.
struct FramedConn {
    endpoint: Arc<dyn Endpoint>,
    obs: LinkObs,
}

/// A worker's frame buffers, reused across the frame loop and across
/// the connections the worker serves: one for inbound payloads, one the
/// response renders into (exactly once). The endpoint sees a *borrowed*
/// slice of `inbuf` through [`Endpoint::handle_wire`], so a
/// lazily-routing container never pays for an owned copy or an eager
/// DOM.
#[derive(Default)]
struct FrameBuffers {
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

impl Connection for FramedConn {
    type Buffers = FrameBuffers;

    fn serve(&self, stream: &TcpStream, buffers: &mut FrameBuffers) {
        let _ = self.serve_connection(stream, buffers);
        release_oversized(&mut buffers.inbuf);
        release_oversized(&mut buffers.outbuf);
    }

    /// A fault frame, then close: the caller's first `call` reads a
    /// parseable `Server` fault instead of a reset.
    fn shed(&self, mut stream: TcpStream) {
        let mut frame = Vec::new();
        frame_into(
            &mut frame,
            FLAG_RESPONSE,
            &SoapFault::server("soap.tcp listener is at its connection limit").to_envelope(),
        );
        let _ = stream.write_all(&frame);
    }
}

impl FramedConn {
    /// Serve one persistent connection: a loop of frames until EOF.
    fn serve_connection(
        &self,
        mut stream: &TcpStream,
        buffers: &mut FrameBuffers,
    ) -> Result<(), TransportError> {
        let FramedConn { endpoint, obs } = self;
        let FrameBuffers { inbuf, outbuf } = buffers;
        loop {
            let flags = match read_frame_into(&mut stream, inbuf) {
                Ok(f) => f,
                // Peer closed, or stalled inside a frame past the read
                // timeout.
                Err(TransportError::Io(_)) => return Ok(()),
                Err(e) => return Err(e),
            };
            let started = std::time::Instant::now();
            match flags {
                FLAG_ONEWAY => {
                    // Undecodable one-ways are dropped — there is nobody to
                    // answer — but the connection survives for later frames.
                    if let Ok(text) = std::str::from_utf8(inbuf) {
                        endpoint.handle_wire(text);
                    }
                    obs.record_oneway(inbuf.len() as u64, started);
                }
                FLAG_CALL => {
                    let resp = match std::str::from_utf8(inbuf) {
                        Ok(text) => endpoint.handle_wire(text),
                        // A garbage payload answers with a fault frame (the
                        // connection stays usable) instead of tearing the
                        // whole persistent session down.
                        Err(_) => {
                            let resp_len = fault_frame(outbuf, "frame payload not utf-8".into());
                            obs.record_call(inbuf.len() as u64, resp_len as u64, started);
                            stream.write_all(outbuf)?;
                            continue;
                        }
                    };
                    match resp {
                        Some(resp) => {
                            let t0 = std::time::Instant::now();
                            let resp_len = frame_into(outbuf, FLAG_RESPONSE, &resp);
                            obs.record_serialize(resp_len as u64, t0);
                            obs.record_call(inbuf.len() as u64, resp_len as u64, started);
                            stream.write_all(outbuf)?;
                        }
                        None => {
                            obs.record_call(inbuf.len() as u64, 0, started);
                            write_frame(&mut stream, FLAG_EMPTY, b"")?
                        }
                    }
                }
                other => {
                    return Err(TransportError::Protocol(format!(
                        "unexpected client frame flags {other}"
                    )))
                }
            }
        }
    }
}

/// A persistent client connection to a [`FramedServer`].
///
/// Thread-safe: calls are serialized over the single connection,
/// matching WSE's session semantics.
pub struct FramedClient {
    stream: Mutex<TcpStream>,
    authority: String,
    /// Reusable wire buffers. Frames render here *before* the
    /// connection lock is taken, so serialization cost never extends
    /// the critical section other callers queue behind.
    pool: BufPool,
}

impl FramedClient {
    /// Connect to `host:port`.
    pub fn connect(authority: &str) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(authority)
            .map_err(|e| TransportError::Io(format!("connect {authority}: {e}")))?;
        stream.set_nodelay(true).ok();
        Ok(FramedClient {
            stream: Mutex::new(stream),
            authority: authority.to_string(),
            pool: BufPool::new(),
        })
    }

    /// Request/response over the persistent connection.
    pub fn call(&self, env: &Envelope) -> Result<Envelope, TransportError> {
        let mut buf = self.pool.take();
        frame_into(&mut buf, FLAG_CALL, env);
        let io = {
            let mut stream = self.stream.lock();
            stream
                .write_all(&buf)
                .and_then(|()| stream.flush())
                .map_err(TransportError::from)
                // The request frame has been written; reuse the same
                // buffer for the response payload.
                .and_then(|()| read_frame_into(&mut *stream, &mut buf))
        };
        let out = match io {
            Ok(FLAG_RESPONSE) => decode_envelope(&buf),
            Ok(FLAG_EMPTY) => Err(TransportError::NoResponse(self.authority.clone())),
            Ok(other) => Err(TransportError::Protocol(format!(
                "unexpected response flags {other}"
            ))),
            Err(e) => Err(e),
        };
        self.pool.put(buf);
        out
    }

    /// Fire-and-forget frame; returns once the bytes are written.
    pub fn send_oneway(&self, env: &Envelope) -> Result<(), TransportError> {
        let mut buf = self.pool.take();
        frame_into(&mut buf, FLAG_ONEWAY, env);
        let io = {
            let mut stream = self.stream.lock();
            stream.write_all(&buf).and_then(|()| stream.flush())
        };
        self.pool.put(buf);
        io.map_err(TransportError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FnEndpoint;
    use crate::pool::FIRST_RESERVE;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wsrf_xml::Element;

    #[test]
    fn persistent_connection_carries_many_calls() {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let client = FramedClient::connect(&server.authority()).unwrap();
        for i in 0..20 {
            let req = Envelope::new(Element::local("Ping").attr("i", i.to_string()));
            assert_eq!(client.call(&req).unwrap(), req);
        }
    }

    #[test]
    fn oneway_frames_deliver_without_response() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let server = FramedServer::start(Arc::new(FnEndpoint::new("sink", move |_| {
            h.fetch_add(1, Ordering::SeqCst);
            None
        })))
        .unwrap();
        let client = FramedClient::connect(&server.authority()).unwrap();
        for _ in 0..10 {
            client
                .send_oneway(&Envelope::new(Element::local("Evt")))
                .unwrap();
        }
        // One-way frames race the assertion; poll briefly.
        for _ in 0..200 {
            if hits.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_response_is_no_response_error() {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("none", |_| None))).unwrap();
        let client = FramedClient::connect(&server.authority()).unwrap();
        let err = client
            .call(&Envelope::new(Element::local("X")))
            .unwrap_err();
        assert!(matches!(err, TransportError::NoResponse(_)));
    }

    #[test]
    fn binary_heavy_payload_roundtrips() {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let client = FramedClient::connect(&server.authority()).unwrap();
        let blob = wsrf_xml::base64::encode(&vec![0xA5u8; 100_000]);
        let req = Envelope::new(Element::local("Write").text(blob));
        assert_eq!(client.call(&req).unwrap(), req);
    }

    #[test]
    fn bad_call_payload_answers_fault_and_keeps_connection() {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut buf = Vec::new();

        // Garbage XML on a CALL frame: a fault frame comes back and the
        // persistent connection survives.
        write_frame(&mut stream, FLAG_CALL, b"<not-xml").unwrap();
        assert_eq!(
            read_frame_into(&mut stream, &mut buf).unwrap(),
            FLAG_RESPONSE
        );
        let fault = Envelope::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert!(fault.is_fault());
        assert!(fault
            .fault()
            .unwrap()
            .reason
            .contains("unparseable envelope"));

        // Non-utf-8 payload likewise faults without killing the session.
        write_frame(&mut stream, FLAG_CALL, &[0xFF, 0xFE, 0x00]).unwrap();
        assert_eq!(
            read_frame_into(&mut stream, &mut buf).unwrap(),
            FLAG_RESPONSE
        );
        assert!(Envelope::parse(std::str::from_utf8(&buf).unwrap())
            .unwrap()
            .is_fault());

        // The same connection still carries a good call.
        let req = Envelope::new(Element::local("Ping"));
        let mut out = Vec::new();
        frame_into(&mut out, FLAG_CALL, &req);
        stream.write_all(&out).unwrap();
        stream.flush().unwrap();
        assert_eq!(
            read_frame_into(&mut stream, &mut buf).unwrap(),
            FLAG_RESPONSE
        );
        assert_eq!(
            Envelope::parse(std::str::from_utf8(&buf).unwrap()).unwrap(),
            req
        );
    }

    #[test]
    fn claimed_length_reserves_no_more_than_arrives() {
        // Nine bytes claiming the largest legal frame, then EOF.
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.push(FLAG_CALL);
        head.extend_from_slice(&(MAX_MESSAGE as u32).to_be_bytes());
        let mut buf = Vec::new();
        let err = read_frame_into(&mut head.as_slice(), &mut buf).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert!(buf.capacity() <= FIRST_RESERVE, "{}", buf.capacity());
        // One byte past the cap — the same cap HTTP bodies have — is
        // refused on the header alone.
        head.truncate(5);
        head.extend_from_slice(&(MAX_MESSAGE as u32 + 1).to_be_bytes());
        let err = read_frame_into(&mut head.as_slice(), &mut buf).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");

        // A frame longer than the first reservation still arrives whole,
        // into a buffer that held a shorter frame before.
        let payload: Vec<u8> = (0..3 * FIRST_RESERVE + 17).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, FLAG_ONEWAY, &payload).unwrap();
        write_frame(&mut wire, FLAG_CALL, b"short").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), FLAG_ONEWAY);
        assert_eq!(buf, payload);
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), FLAG_CALL);
        assert_eq!(buf, b"short");
    }

    #[test]
    fn shared_client_across_threads() {
        let server = FramedServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let client = Arc::new(FramedClient::connect(&server.authority()).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let c = client.clone();
                std::thread::spawn(move || {
                    for j in 0..10 {
                        let req = Envelope::new(
                            Element::local("P")
                                .attr("t", i.to_string())
                                .attr("j", j.to_string()),
                        );
                        assert_eq!(c.call(&req).unwrap(), req);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A server on the engine with a read timeout and a worker cap a
    /// test can reach.
    fn tuned_server(
        registry: &MetricsRegistry,
        read_timeout: std::time::Duration,
        cap: usize,
    ) -> FramedServer {
        let conn = FramedConn {
            endpoint: Arc::new(FnEndpoint::new("echo", Some)),
            obs: LinkObs::new(registry, KIND),
        };
        FramedServer {
            listener: Listener::bind_capped(KIND, registry, read_timeout, conn, cap).unwrap(),
        }
    }

    const SHORT: std::time::Duration = std::time::Duration::from_millis(50);

    #[test]
    fn peer_stalling_inside_a_frame_header_is_dropped() {
        let server = tuned_server(&MetricsRegistry::disabled(), SHORT, 4);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Five of the nine header bytes, then silence.
        stream.write_all(b"WSE1\0").unwrap();
        // The server gives up on the frame and closes; a server without
        // the timeout leaves this read (bounded here) hanging.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).unwrap(), 0, "server closed");
    }

    #[test]
    fn idle_persistent_connection_outlives_the_read_timeout() {
        let server = tuned_server(&MetricsRegistry::disabled(), SHORT, 4);
        let client = FramedClient::connect(&server.authority()).unwrap();
        let req = Envelope::new(Element::local("Ping"));
        assert_eq!(client.call(&req).unwrap(), req);
        // Several timeouts' worth of silence between frames.
        std::thread::sleep(SHORT * 4);
        assert_eq!(client.call(&req).unwrap(), req);
    }

    #[test]
    fn connection_past_the_worker_cap_is_shed_with_a_fault_frame() {
        let registry = MetricsRegistry::enabled();
        let server = tuned_server(&registry, READ_TIMEOUT, 4);
        let counts = server.listener.worker_counts();
        let req = Envelope::new(Element::local("Ping"));
        // Four persistent connections, each proven to hold a worker.
        let mut held: Vec<_> = (0..4)
            .map(|_| {
                let client = FramedClient::connect(&server.authority()).unwrap();
                assert_eq!(client.call(&req).unwrap(), req);
                client
            })
            .collect();

        let fifth = FramedClient::connect(&server.authority()).unwrap();
        let answer = fifth.call(&req).unwrap();
        assert_eq!(answer.fault().unwrap().code, "Server");
        assert!(fifth.call(&req).is_err(), "a shed connection is closed");
        assert_eq!(
            registry.snapshot().counter("transport.tcpframe.shed"),
            Some(1)
        );

        // One session ends, its worker parks, and the listener serves
        // again.
        held.pop();
        crate::serve::eventually("a worker parks", || counts().1 > 0);
        let next = FramedClient::connect(&server.authority()).unwrap();
        assert_eq!(next.call(&req).unwrap(), req);
        assert_eq!(counts().0, 4);
    }
}
