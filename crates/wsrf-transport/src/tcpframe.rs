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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use wsrf_obs::MetricsRegistry;
use wsrf_soap::{Envelope, SoapFault};

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::obs::LinkObs;
use crate::pool::BufPool;

const MAGIC: &[u8; 4] = b"WSE1";
/// Frame is a request expecting a response frame.
const FLAG_CALL: u8 = 0;
/// Frame is one-way; no response will be sent.
const FLAG_ONEWAY: u8 = 1;
/// Response frame carrying an envelope.
const FLAG_RESPONSE: u8 = 2;
/// Response frame indicating the endpoint produced no response.
const FLAG_EMPTY: u8 = 3;

const MAX_FRAME: usize = 256 << 20;
/// The most a frame header's claimed length may reserve before any of
/// its payload has arrived; a longer frame grows the buffer with the
/// bytes actually received.
const FIRST_RESERVE: usize = 64 << 10;

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

/// Read one frame into the reusable `payload` buffer; returns the frame
/// flags.
fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<u8, TransportError> {
    let mut head = [0u8; 9];
    r.read_exact(&mut head)
        .map_err(|e| TransportError::Io(format!("read frame header: {e}")))?;
    if &head[..4] != MAGIC {
        return Err(TransportError::Protocol("bad frame magic".into()));
    }
    let flags = head[4];
    let len = u32::from_be_bytes(head[5..9].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::Protocol(format!("frame too large: {len}")));
    }
    payload.clear();
    payload.reserve(len.min(FIRST_RESERVE));
    // Reads straight into spare capacity (nothing is zero-filled); a
    // frame that fits the reservation arrives in one read, and the
    // `take` answers the end-of-frame probe without touching the socket.
    let got = r
        .by_ref()
        .take(len as u64)
        .read_to_end(payload)
        .map_err(|e| TransportError::Io(format!("read frame body: {e}")))?;
    if got < len {
        return Err(TransportError::Io(format!(
            "read frame body: connection closed {got} bytes into a {len}-byte frame"
        )));
    }
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
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
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
        let obs = Arc::new(LinkObs::new(registry, "tcpframe"));
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = shutdown.clone();
        let accept_thread = std::thread::Builder::new()
            .name("soap-tcp-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if sd.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    stream.set_nodelay(true).ok();
                    let ep = endpoint.clone();
                    let obs = obs.clone();
                    let _ = std::thread::Builder::new()
                        .name("soap-tcp-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, ep, &obs);
                        });
                }
            })?;
        Ok(FramedServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `host:port` authority string.
    pub fn authority(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for FramedServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve one persistent connection: a loop of frames until EOF.
fn serve_connection(
    stream: TcpStream,
    endpoint: Arc<dyn Endpoint>,
    obs: &LinkObs,
) -> Result<(), TransportError> {
    let mut reader = stream.try_clone().map_err(TransportError::from)?;
    let mut writer = stream;
    // Per-connection buffers, reused across the frame loop: one for
    // inbound payloads, one the response renders into (exactly once).
    // The endpoint sees a *borrowed* slice of `inbuf` through
    // [`Endpoint::handle_wire`], so a lazily-routing container never
    // pays for an owned copy or an eager DOM.
    let mut inbuf: Vec<u8> = Vec::new();
    let mut outbuf: Vec<u8> = Vec::new();
    loop {
        let flags = match read_frame_into(&mut reader, &mut inbuf) {
            Ok(f) => f,
            Err(TransportError::Io(_)) => return Ok(()), // peer closed
            Err(e) => return Err(e),
        };
        let started = std::time::Instant::now();
        match flags {
            FLAG_ONEWAY => {
                // Undecodable one-ways are dropped — there is nobody to
                // answer — but the connection survives for later frames.
                if let Ok(text) = std::str::from_utf8(&inbuf) {
                    endpoint.handle_wire(text);
                }
                obs.record_oneway(inbuf.len() as u64, started);
            }
            FLAG_CALL => {
                let resp = match std::str::from_utf8(&inbuf) {
                    Ok(text) => endpoint.handle_wire(text),
                    // A garbage payload answers with a fault frame (the
                    // connection stays usable) instead of tearing the
                    // whole persistent session down.
                    Err(_) => {
                        let resp_len = fault_frame(&mut outbuf, "frame payload not utf-8".into());
                        obs.record_call(inbuf.len() as u64, resp_len as u64, started);
                        writer.write_all(&outbuf)?;
                        writer.flush()?;
                        continue;
                    }
                };
                match resp {
                    Some(resp) => {
                        let t0 = std::time::Instant::now();
                        let resp_len = frame_into(&mut outbuf, FLAG_RESPONSE, &resp);
                        obs.record_serialize(resp_len as u64, t0);
                        obs.record_call(inbuf.len() as u64, resp_len as u64, started);
                        writer.write_all(&outbuf)?;
                        writer.flush()?;
                    }
                    None => {
                        obs.record_call(inbuf.len() as u64, 0, started);
                        write_frame(&mut writer, FLAG_EMPTY, b"")?
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
    use std::sync::atomic::AtomicUsize;
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
        head.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        let mut buf = Vec::new();
        let err = read_frame_into(&mut head.as_slice(), &mut buf).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        assert!(buf.capacity() <= FIRST_RESERVE, "{}", buf.capacity());

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
}
