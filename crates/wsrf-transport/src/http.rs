//! A minimal real SOAP-over-HTTP transport (HTTP/1.1 POST, one request
//! per connection) — the analogue of the paper's IIS/ASP.NET front end,
//! used to exercise true wire encoding/decoding costs in experiment E5
//! and the cross-process tests.

use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use simclock::Clock;
use wsrf_obs::MetricsRegistry;
use wsrf_soap::{Envelope, SoapFault};

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::obs::LinkObs;
use crate::pool::{read_sized, release_oversized};
use crate::serve::{is_timeout, Connection, Listener, MAX_MESSAGE, READ_TIMEOUT};

/// Cap on the request line + header block, in bytes. With
/// [`MAX_HEADER_LINES`] and the listener's `READ_TIMEOUT` (an idle read
/// past it answers 408), the anti-slowloris limits of every connection:
/// a client sending an unbounded header block gets a prompt 431 SOAP
/// fault instead of pinning its connection thread. Responses are read
/// under the same caps.
const MAX_HEADER_BYTES: usize = 16 << 10;
/// Cap on the number of header lines.
const MAX_HEADER_LINES: usize = 100;

/// What [`HttpSoapServer::start_with`] can be told. The default is
/// [`HttpSoapServer::start`]'s server: nothing recorded, no hop spans,
/// POST only.
#[derive(Clone)]
pub struct HttpConfig {
    /// Records served traffic (`transport.http.*`); scraped when
    /// `expose` is set.
    pub registry: Arc<MetricsRegistry>,
    /// With a clock, each served request that carries a trace header
    /// opens a transport hop span (timestamps read from it).
    pub clock: Option<Clock>,
    /// Serve the monitoring-plane GET endpoints.
    pub expose: bool,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            registry: MetricsRegistry::disabled(),
            clock: None,
            expose: false,
        }
    }
}

/// Monitoring context for the exposition endpoints: the registry to
/// scrape and the clock health views are evaluated against. A server
/// constructed without one keeps the historical POST-only behaviour —
/// GETs answer 405 and the SOAP path pays nothing for the feature.
struct Exposition {
    registry: Arc<MetricsRegistry>,
    clock: Clock,
    scrapes: wsrf_obs::Counter,
}

/// A listening HTTP SOAP endpoint.
pub struct HttpSoapServer {
    listener: Listener,
}

impl HttpSoapServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving
    /// `endpoint`.
    pub fn start(endpoint: Arc<dyn Endpoint>) -> std::io::Result<Self> {
        Self::start_with_metrics(endpoint, &MetricsRegistry::disabled())
    }

    /// Like [`HttpSoapServer::start`], recording served traffic into a
    /// metrics registry (`transport.http.*`).
    pub fn start_with_metrics(
        endpoint: Arc<dyn Endpoint>,
        registry: &MetricsRegistry,
    ) -> std::io::Result<Self> {
        Self::start_inner(endpoint, registry, None, None)
    }

    /// Start serving `endpoint` as `config` says. With `config.expose`
    /// the server also answers the monitoring-plane GET endpoints from
    /// `config.registry` (that needs `config.clock`):
    ///
    /// * `/metrics` — Prometheus text exposition,
    /// * `/metrics.json` — the flat JSON `MetricsSnapshot::from_json` reads,
    /// * `/healthz` — SLO health summary (503 when any burn rate > 1),
    /// * `/traces/<hex-id>.json` — one trace in Chrome trace format.
    ///
    /// Scrapes render through the sink pattern into the worker's reused
    /// wire buffer — no per-metric strings.
    pub fn start_with(endpoint: Arc<dyn Endpoint>, config: HttpConfig) -> std::io::Result<Self> {
        let HttpConfig {
            registry,
            clock,
            expose,
        } = config;
        let expose = match (expose, &clock) {
            (false, _) => None,
            (true, Some(clock)) => Some(Exposition {
                registry: registry.clone(),
                clock: clock.clone(),
                scrapes: registry.counter("expose.scrapes"),
            }),
            (true, None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "HttpConfig::expose needs HttpConfig::clock",
                ))
            }
        };
        Self::start_inner(endpoint, &registry, clock, expose)
    }

    fn start_inner(
        endpoint: Arc<dyn Endpoint>,
        registry: &MetricsRegistry,
        clock: Option<Clock>,
        expose: Option<Exposition>,
    ) -> std::io::Result<Self> {
        let conn = HttpConn {
            endpoint,
            obs: LinkObs::new(registry, KIND),
            clock,
            expose,
        };
        Ok(HttpSoapServer {
            listener: Listener::bind(KIND, registry, READ_TIMEOUT, conn)?,
        })
    }

    /// The bound address, e.g. `127.0.0.1:49152`.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The `http://host:port` authority string for building EPRs.
    pub fn authority(&self) -> String {
        self.local_addr().to_string()
    }
}

/// Metric and thread-name stem of this transport.
const KIND: &str = "http";

/// Outcome of scanning an HTTP header block for `Content-Length`.
enum ContentLength {
    /// No Content-Length header present.
    Missing,
    /// A Content-Length header whose value is not a number.
    Invalid(String),
    /// A well-formed length.
    Len(usize),
    /// The header block blew past [`MAX_HEADER_BYTES`] or
    /// [`MAX_HEADER_LINES`].
    TooLarge(&'static str),
}

/// Consume header lines up to the blank separator, extracting the
/// `Content-Length`. Server and client both parse through here, so the
/// two sides can never again drift on how a missing or garbage length
/// is treated (historically one side ignored it and the other silently
/// read a zero-byte body). The header block is bounded: a
/// peer streaming endless (or endlessly long) header lines gets
/// [`ContentLength::TooLarge`] instead of an unbounded read loop.
fn read_content_length(reader: &mut impl BufRead) -> std::io::Result<ContentLength> {
    let mut limited = reader.take(MAX_HEADER_BYTES as u64);
    let mut found = ContentLength::Missing;
    let mut lines = 0usize;
    let mut h = String::new();
    loop {
        h.clear();
        let n = limited.read_line(&mut h)?;
        if n == 0 {
            if limited.limit() == 0 {
                return Ok(ContentLength::TooLarge("header block exceeds byte cap"));
            }
            // Genuine EOF before the blank separator: treat as end of
            // headers (legacy behaviour).
            break;
        }
        if !h.ends_with('\n') && limited.limit() == 0 {
            return Ok(ContentLength::TooLarge("header line exceeds byte cap"));
        }
        lines += 1;
        if lines > MAX_HEADER_LINES {
            return Ok(ContentLength::TooLarge("too many header lines"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                found = match value.parse() {
                    Ok(n) => ContentLength::Len(n),
                    Err(_) => ContentLength::Invalid(value.to_string()),
                };
            }
        }
    }
    Ok(found)
}

/// Hand `w` a whole message, head then body, in **one** write. The
/// sockets run `TCP_NODELAY`, so every write is a segment of its own:
/// formatting a head straight onto the stream used to cost a segment
/// per format fragment. A write the kernel cuts short (a send buffer
/// smaller than the body) is finished with ordinary writes.
fn write_message(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let n = loop {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            wrote => break wrote?,
        }
    };
    match n.checked_sub(head.len()) {
        Some(of_body) => w.write_all(&body[of_body..]),
        None => {
            w.write_all(&head[n..])?;
            w.write_all(body)
        }
    }
}

fn write_response(
    w: &mut impl Write,
    head: &mut Vec<u8>,
    code: u16,
    reason: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_typed(w, head, code, reason, "text/xml; charset=utf-8", body)
}

/// Send one response: the status line and headers format into the
/// reusable `head`, which leaves together with `body`.
fn write_response_typed(
    w: &mut impl Write,
    head: &mut Vec<u8>,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    head.clear();
    write!(
        head,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    write_message(w, head, body)
}

/// Render a SOAP fault into `wire` and send it with the given HTTP
/// status.
fn write_fault_response(
    w: &mut impl Write,
    head: &mut Vec<u8>,
    wire: &mut Vec<u8>,
    code: u16,
    reason: &str,
    fault: SoapFault,
) -> std::io::Result<()> {
    wire.clear();
    fault.to_envelope().write_into(wire);
    write_response(w, head, code, reason, wire)
}

/// How long a refused connection is drained before it is closed.
const LINGER: std::time::Duration = std::time::Duration::from_secs(1);

/// Close after answering a request that was not read to its end.
/// Closing a socket with unread input resets it, and the reset can
/// cost the peer the answer (or fail the writes it is still making).
/// So: finish our side, then swallow what the peer is still sending
/// until it closes or [`LINGER`] has passed.
fn linger(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let deadline = std::time::Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    while std::time::Instant::now() < deadline {
        if matches!(stream.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// Size of a worker's socket read buffer (what `BufReader` defaults to).
const READ_BUF: usize = 8 << 10;

/// `BufReader` over a borrowed socket *and* a borrowed buffer, so the
/// buffer belongs to the worker and outlives the connection.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    buf: &'a mut [u8],
    pos: usize,
    end: usize,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        // Nothing buffered and room for at least a buffer's worth: read
        // a large body straight into the caller's memory.
        if self.pos == self.end && out.len() >= self.buf.len() {
            return self.stream.read(out);
        }
        let buffered = self.fill_buf()?;
        let n = buffered.len().min(out.len());
        out[..n].copy_from_slice(&buffered[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ConnReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
            self.end = self.stream.read(self.buf)?;
        }
        Ok(&self.buf[self.pos..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.end);
    }
}

/// What one HTTP listener serves its connections with.
struct HttpConn {
    endpoint: Arc<dyn Endpoint>,
    obs: LinkObs,
    clock: Option<Clock>,
    expose: Option<Exposition>,
}

/// A worker's buffers, reused across the connections it serves (each
/// carries one call): the request body lands in `body` — the endpoint
/// only ever sees a borrowed slice of it (via
/// [`Endpoint::handle_wire`]), never an owned copy — and every response
/// body (fault or not) is rendered exactly once into `wire`.
struct HttpBuffers {
    read: Box<[u8]>,
    line: String,
    body: Vec<u8>,
    head: Vec<u8>,
    wire: Vec<u8>,
}

impl Default for HttpBuffers {
    fn default() -> Self {
        HttpBuffers {
            read: vec![0u8; READ_BUF].into_boxed_slice(),
            line: String::new(),
            body: Vec::new(),
            head: Vec::new(),
            wire: Vec::with_capacity(512),
        }
    }
}

impl Connection for HttpConn {
    type Buffers = HttpBuffers;

    fn serve(&self, stream: &TcpStream, buffers: &mut HttpBuffers) {
        let _ = self.serve_connection(stream, buffers);
        release_oversized(&mut buffers.body);
        release_oversized(&mut buffers.wire);
    }

    /// `503` carrying a SOAP `Server` fault, so a shed SOAP caller
    /// still reads a parseable envelope. The request is not read: on
    /// loopback the response is in the caller's receive queue before
    /// this side closes.
    fn shed(&self, stream: TcpStream) {
        let _ = write_fault_response(
            &mut &stream,
            &mut Vec::new(),
            &mut Vec::new(),
            503,
            "Service Unavailable",
            SoapFault::server("http listener is at its connection limit"),
        );
    }
}

impl HttpConn {
    fn serve_connection(
        &self,
        stream: &TcpStream,
        buffers: &mut HttpBuffers,
    ) -> std::io::Result<()> {
        let started = std::time::Instant::now();
        let HttpConn {
            endpoint,
            obs,
            clock,
            expose,
        } = self;
        let HttpBuffers {
            read,
            line,
            body,
            head,
            wire,
        } = buffers;
        let mut writer = stream;
        let mut reader = ConnReader {
            stream,
            buf: read,
            pos: 0,
            end: 0,
        };
        // Every refusal below is a SOAP client fault, so SOAP callers
        // always get a parseable envelope.
        let mut refuse = |code: u16, reason: &str, detail: String| {
            write_fault_response(
                &mut writer,
                head,
                wire,
                code,
                reason,
                SoapFault::client(detail),
            )?;
            linger(stream);
            Ok(())
        };

        // Request line, bounded like the headers: a peer streaming one
        // endless line is cut off at the byte cap.
        line.clear();
        {
            let mut limited = (&mut reader).take(MAX_HEADER_BYTES as u64);
            match limited.read_line(line) {
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {
                    return refuse(
                        408,
                        "Request Timeout",
                        "timed out reading request line".into(),
                    );
                }
                Err(e) => return Err(e),
            }
            if !line.ends_with('\n') && limited.limit() == 0 {
                return refuse(
                    431,
                    "Request Header Fields Too Large",
                    "request line exceeds byte cap".into(),
                );
            }
        }
        if let (Some(exp), true) = (expose, line.starts_with("GET ")) {
            // Exposition GET: drain the (bounded) header block — scrapers
            // send no body — then route on the path.
            match read_content_length(&mut reader) {
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {
                    return refuse(
                        408,
                        "Request Timeout",
                        "timed out reading request headers".into(),
                    );
                }
                Err(e) => return Err(e),
            }
            let path = line.split_whitespace().nth(1).unwrap_or("/");
            return serve_exposition(&mut writer, head, wire, exp, path);
        }
        if !line.starts_with("POST ") {
            write_response(&mut writer, head, 405, "Method Not Allowed", b"")?;
            linger(stream);
            return Ok(());
        }

        // Headers. A client trickling them slower than the read timeout
        // gets 408 instead of pinning this thread.
        let scanned = match read_content_length(&mut reader) {
            Ok(s) => s,
            Err(e) if is_timeout(&e) => {
                return refuse(
                    408,
                    "Request Timeout",
                    "timed out reading request headers".into(),
                );
            }
            Err(e) => return Err(e),
        };
        let len = match scanned {
            ContentLength::Len(n) => n,
            ContentLength::Missing => {
                return refuse(
                    411,
                    "Length Required",
                    "request has no Content-Length header".into(),
                );
            }
            ContentLength::Invalid(v) => {
                return refuse(
                    400,
                    "Bad Request",
                    format!("unparseable Content-Length {v:?}"),
                );
            }
            ContentLength::TooLarge(why) => {
                return refuse(431, "Request Header Fields Too Large", why.into());
            }
        };
        if len > MAX_MESSAGE {
            write_response(&mut writer, head, 413, "Payload Too Large", b"")?;
            linger(stream);
            return Ok(());
        }
        match read_sized(&mut reader, len, body) {
            Ok(()) => {}
            Err(e) if is_timeout(&e) => {
                return refuse(
                    408,
                    "Request Timeout",
                    "timed out reading request body".into(),
                );
            }
            Err(e) => return Err(e),
        }

        let Ok(text) = std::str::from_utf8(body) else {
            return write_response(&mut writer, head, 400, "Bad Request", b"body is not utf-8");
        };
        // Tracing needs to re-stamp the trace header before dispatch, which
        // forces an eager parse; everyone else hands the endpoint the
        // borrowed wire text, so a lazily-routing container reads headers
        // straight out of the receive buffer and may never build a body DOM.
        // Hop span under the request's trace header, if any; the guard
        // covers the dispatch and the response write.
        let mut _hop = None;
        let resp = if clock.is_some() && obs.tracer.is_enabled() {
            match Envelope::parse(text) {
                Err(e) => {
                    return refuse(
                        500,
                        "Internal Server Error",
                        format!("unparseable envelope: {e}"),
                    );
                }
                Ok(mut env) => {
                    _hop = clock
                        .as_ref()
                        .and_then(|c| obs.hop_span(&mut env, "transport.serve", c));
                    endpoint.handle(env)
                }
            }
        } else {
            endpoint.handle_wire(text)
        };
        match resp {
            Some(resp) => {
                let t0 = std::time::Instant::now();
                wire.clear();
                resp.write_into(wire);
                obs.record_serialize(wire.len() as u64, t0);
                obs.record_call(len as u64, wire.len() as u64, started);
                // SOAP 1.1 over HTTP: faults ride status 500.
                let (code, reason) = if resp.is_fault() {
                    (500, "Internal Server Error")
                } else {
                    (200, "OK")
                };
                write_response(&mut writer, head, code, reason, wire)
            }
            None => {
                obs.record_oneway(len as u64, started);
                write_response(&mut writer, head, 202, "Accepted", b"")
            }
        }
    }
}

const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_JSON: &str = "application/json; charset=utf-8";

/// Serve one monitoring-plane GET. Bodies render sink-style into the
/// worker's reused `wire` buffer: the metric values stream through
/// stack formatters, so a scrape allocates no per-metric strings.
fn serve_exposition(
    writer: &mut impl Write,
    head: &mut Vec<u8>,
    wire: &mut Vec<u8>,
    expose: &Exposition,
    path: &str,
) -> std::io::Result<()> {
    expose.scrapes.inc();
    wire.clear();
    match path {
        "/metrics" => {
            expose.registry.write_prometheus_into(wire);
            write_response_typed(writer, head, 200, "OK", CT_PROM, wire)
        }
        "/metrics.json" => {
            expose.registry.write_json_into(wire);
            write_response_typed(writer, head, 200, "OK", CT_JSON, wire)
        }
        "/healthz" => {
            let now_ns = expose.clock.now().as_nanos();
            let health = expose.registry.slo().health_all(now_ns);
            let degraded = health.iter().any(|h| !h.is_healthy());
            use wsrf_obs::MetricSink;
            wire.put("{\"status\": \"");
            wire.put(if degraded { "degraded" } else { "ok" });
            wire.put("\", \"virt_ns\": ");
            wire.put_u64(now_ns);
            wire.put(", \"services\": [");
            for (i, h) in health.iter().enumerate() {
                if i > 0 {
                    wire.put(", ");
                }
                // Rates are the one place floats are unavoidable; the
                // health view is tiny and off the scrape hot path.
                wire.put(&format!(
                    "{{\"service\": \"{}\", \"total\": {}, \"success_rate\": {:.6}, \
                     \"p99_ns\": {}, \"burn_rate\": {:.3}, \"healthy\": {}}}",
                    h.service,
                    h.total,
                    h.success_rate,
                    h.p99_ns,
                    h.burn_rate,
                    h.is_healthy()
                ));
            }
            wire.put("]}");
            let (code, reason) = if degraded {
                (503, "Service Unavailable")
            } else {
                (200, "OK")
            };
            write_response_typed(writer, head, code, reason, CT_JSON, wire)
        }
        _ => {
            if let Some(id) = path
                .strip_prefix("/traces/")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|id| u64::from_str_radix(id, 16).ok())
            {
                let trace = expose.registry.tracer().trace(id);
                if trace.is_empty() {
                    return write_response_typed(
                        writer,
                        head,
                        404,
                        "Not Found",
                        CT_JSON,
                        b"{\"error\": \"no such trace\"}",
                    );
                }
                trace.write_chrome_into(wire);
                return write_response_typed(writer, head, 200, "OK", CT_JSON, wire);
            }
            write_response_typed(
                writer,
                head,
                404,
                "Not Found",
                CT_JSON,
                b"{\"error\": \"unknown path\"}",
            )
        }
    }
}

/// Send a SOAP POST of `env` to `path`: one render, straight into the
/// wire buffer, and one write.
fn write_post(
    w: &mut impl Write,
    authority: &str,
    path: &str,
    env: &Envelope,
) -> std::io::Result<()> {
    let mut body: Vec<u8> = Vec::with_capacity(512);
    env.write_into(&mut body);
    let head = format!(
        "POST /{} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        path.trim_start_matches('/'),
        body.len()
    );
    write_message(w, head.as_bytes(), &body)
}

/// Send a body-less GET for `path`.
fn write_get(w: &mut impl Write, authority: &str, path: &str) -> std::io::Result<()> {
    let head = format!(
        "GET /{} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n",
        path.trim_start_matches('/')
    );
    w.write_all(head.as_bytes())
}

/// Read a response's status code and header block.
fn read_response_head(reader: &mut impl BufRead) -> Result<(u16, ContentLength), TransportError> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TransportError::Protocol(format!("bad status line {status_line:?}")))?;
    Ok((code, read_content_length(reader)?))
}

/// Read a response body of the claimed `len`, which is the peer's say-so
/// until the bytes arrive: capped like a request body, and reserved no
/// faster than it is received.
fn read_response_body(reader: &mut impl Read, len: usize) -> Result<Vec<u8>, TransportError> {
    if len > MAX_MESSAGE {
        return Err(TransportError::Protocol(format!(
            "response Content-Length {len} exceeds the {MAX_MESSAGE}-byte cap"
        )));
    }
    let mut body = Vec::new();
    read_sized(reader, len, &mut body)?;
    Ok(body)
}

/// POST an envelope to `authority` (`host:port`) at `path`; returns the
/// response envelope (which may be a fault envelope), or `None` for a
/// 202 one-way acknowledgement.
pub fn http_post(
    authority: &str,
    path: &str,
    env: &Envelope,
) -> Result<Option<Envelope>, TransportError> {
    let stream = TcpStream::connect(authority)
        .map_err(|e| TransportError::Io(format!("connect {authority}: {e}")))?;
    stream.set_nodelay(true).ok();
    write_post(&mut &stream, authority, path, env)?;

    let mut reader = BufReader::new(stream);
    let (code, content_length) = read_response_head(&mut reader)?;
    if code == 202 {
        return Ok(None);
    }
    // A sized response is required past this point; treating a missing
    // or garbage length as zero would silently truncate the body.
    let len = match content_length {
        ContentLength::Len(n) => n,
        ContentLength::Missing => {
            return Err(TransportError::Protocol(
                "response missing Content-Length".into(),
            ));
        }
        ContentLength::Invalid(v) => {
            return Err(TransportError::Protocol(format!(
                "unparseable response Content-Length {v:?}"
            )));
        }
        ContentLength::TooLarge(why) => {
            return Err(TransportError::Protocol(format!(
                "response header block too large: {why}"
            )));
        }
    };
    let body = read_response_body(&mut reader, len)?;
    if !(code == 200 || code == 500) {
        return Err(TransportError::Protocol(format!("http status {code}")));
    }
    let text = std::str::from_utf8(&body)
        .map_err(|_| TransportError::Protocol("response not utf-8".into()))?;
    Envelope::parse(text)
        .map(Some)
        .map_err(|e| TransportError::Protocol(format!("bad response envelope: {e}")))
}

/// Request/response call over HTTP; `None` responses become errors.
pub fn http_call(authority: &str, path: &str, env: &Envelope) -> Result<Envelope, TransportError> {
    http_post(authority, path, env)?
        .ok_or_else(|| TransportError::NoResponse(format!("http://{authority}/{path}")))
}

/// Plain HTTP GET against `authority` (`host:port`): status code and
/// body. What a scraper (or the grid monitor pulling `/metrics.json`)
/// runs against an [`HttpConfig::expose`] server.
pub fn http_get(authority: &str, path: &str) -> Result<(u16, String), TransportError> {
    let stream = TcpStream::connect(authority)
        .map_err(|e| TransportError::Io(format!("connect {authority}: {e}")))?;
    stream.set_nodelay(true).ok();
    write_get(&mut &stream, authority, path)?;
    let mut reader = BufReader::new(stream);
    let (code, content_length) = read_response_head(&mut reader)?;
    let ContentLength::Len(len) = content_length else {
        return Err(TransportError::Protocol(
            "GET response missing Content-Length".into(),
        ));
    };
    let body = String::from_utf8(read_response_body(&mut reader, len)?)
        .map_err(|_| TransportError::Protocol("GET response not utf-8".into()))?;
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FnEndpoint;
    use crate::serve::eventually;
    use std::net::TcpListener;
    use wsrf_xml::Element;

    #[test]
    fn end_to_end_call_over_real_sockets() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", |env| {
            let mut e = env;
            e.body = Element::local("Pong").child(e.body);
            Some(e)
        })))
        .unwrap();
        let req = Envelope::new(Element::local("Ping").text("payload"));
        let resp = http_call(&server.authority(), "svc", &req).unwrap();
        assert_eq!(resp.body.name.local, "Pong");
        assert_eq!(resp.body.text_content(), "payload");
    }

    #[test]
    fn fault_travels_as_http_500() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("faulty", |_| {
            Some(wsrf_soap::SoapFault::server("boom").to_envelope())
        })))
        .unwrap();
        let resp = http_call(
            &server.authority(),
            "svc",
            &Envelope::new(Element::local("X")),
        )
        .unwrap();
        assert!(resp.is_fault());
        assert_eq!(resp.fault().unwrap().reason, "boom");
    }

    #[test]
    fn oneway_gets_202() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("sink", |_| None))).unwrap();
        let out = http_post(
            &server.authority(),
            "svc",
            &Envelope::new(Element::local("X")),
        )
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn connect_to_dead_port_is_io_error() {
        // Bind-then-drop to find a (very likely) dead port.
        let dead = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = http_call(&dead, "svc", &Envelope::new(Element::local("X"))).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    /// Read one raw HTTP response (status code + body) off a stream.
    fn raw_response(stream: TcpStream) -> (u16, String) {
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let code: u16 = status.split_whitespace().nth(1).unwrap().parse().unwrap();
        let len = match read_content_length(&mut reader).unwrap() {
            ContentLength::Len(n) => n,
            _ => 0,
        };
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (code, String::from_utf8(body).unwrap())
    }

    #[test]
    fn idle_slowloris_client_gets_408_soap_fault() {
        // A read timeout a test can wait out.
        let conn = HttpConn {
            endpoint: Arc::new(FnEndpoint::new("echo", Some)),
            obs: LinkObs::noop(),
            clock: None,
            expose: None,
        };
        let timeout = std::time::Duration::from_millis(100);
        let server = HttpSoapServer {
            listener: Listener::bind(KIND, &MetricsRegistry::disabled(), timeout, conn).unwrap(),
        };
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Open the request but never finish the header block.
        stream
            .write_all(b"POST /svc HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 408);
        let env = Envelope::parse(&body).unwrap();
        assert!(env.is_fault(), "408 carries a SOAP fault body");
        assert!(env.fault().unwrap().reason.contains("timed out"));
    }

    #[test]
    fn header_flood_gets_431_soap_fault() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /svc HTTP/1.1\r\n").unwrap();
        for i in 0..MAX_HEADER_LINES + 50 {
            stream
                .write_all(format!("X-Flood-{i}: y\r\n").as_bytes())
                .unwrap();
        }
        stream.write_all(b"\r\n").unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 431);
        assert!(Envelope::parse(&body).unwrap().is_fault());
    }

    #[test]
    fn oversized_header_block_gets_431() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /svc HTTP/1.1\r\n").unwrap();
        // One huge header line, no newline in sight.
        stream
            .write_all(&vec![b'a'; MAX_HEADER_BYTES + 4096])
            .unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 431);
        assert!(Envelope::parse(&body).unwrap().is_fault());
    }

    fn monitored_server() -> (HttpSoapServer, Arc<MetricsRegistry>, Clock) {
        let reg = wsrf_obs::MetricsRegistry::with_tracing(
            wsrf_obs::ObsConfig::enabled(),
            wsrf_obs::TraceConfig::enabled(),
        );
        let clock = Clock::manual();
        let config = HttpConfig {
            registry: reg.clone(),
            clock: Some(clock.clone()),
            expose: true,
        };
        let server =
            HttpSoapServer::start_with(Arc::new(FnEndpoint::new("echo", Some)), config).unwrap();
        (server, reg, clock)
    }

    #[test]
    fn exposition_endpoints_round_trip() {
        let (server, reg, clock) = monitored_server();
        reg.counter("jobs.completed").add(7);
        reg.histogram("op.lat_ns").record(500);
        reg.slo()
            .service("es")
            .record(true, 500, clock.now().as_nanos());

        let (code, text) = http_get(&server.authority(), "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(text.contains("jobs_completed 7"), "{text}");
        assert!(text.contains("op_lat_ns_count 1"));

        let (code, json) = http_get(&server.authority(), "/metrics.json").unwrap();
        assert_eq!(code, 200);
        assert!(json.contains("\"jobs.completed\": {\"type\": \"counter\", \"value\": 7}"));

        let (code, hz) = http_get(&server.authority(), "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(hz.contains("\"status\": \"ok\""), "{hz}");
        assert!(hz.contains("\"service\": \"es\""));

        let (code, _) = http_get(&server.authority(), "/nope").unwrap();
        assert_eq!(code, 404);
        // Scrapes were counted (4 GETs), and POST still works.
        assert!(reg.snapshot().counter("expose.scrapes") >= Some(4));
        let req = Envelope::new(Element::local("Ping").text("p"));
        let resp = http_call(&server.authority(), "svc", &req).unwrap();
        assert_eq!(resp.body.text_content(), "p");
    }

    #[test]
    fn healthz_degrades_on_slo_burn() {
        let (server, reg, clock) = monitored_server();
        let now = clock.now().as_nanos();
        let slo = reg.slo().service("es");
        for _ in 0..10 {
            slo.record(false, 1_000, now); // 100% errors → burn ≫ 1
        }
        let (code, hz) = http_get(&server.authority(), "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(hz.contains("\"status\": \"degraded\""), "{hz}");
        assert!(hz.contains("\"healthy\": false"));
    }

    #[test]
    fn trace_export_serves_chrome_format() {
        let (server, reg, clock) = monitored_server();
        let root = reg.tracer().start_root("submit", "Client", &clock);
        let trace_id = root.context().trace_id;
        drop(root);
        let (code, json) =
            http_get(&server.authority(), &format!("/traces/{trace_id:x}.json")).unwrap();
        assert_eq!(code, 200);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\": \"submit\""));
        let (code, _) = http_get(&server.authority(), "/traces/deadbeef.json").unwrap();
        assert_eq!(code, 404, "unknown trace id");
    }

    #[test]
    fn unmonitored_server_still_rejects_gets() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let err = http_get(&server.authority(), "/metrics");
        // 405 responses carry no Content-Length body contract for GET
        // clients; reaching the endpoint at all is the regression.
        match err {
            Ok((code, _)) => assert_eq!(code, 405),
            Err(TransportError::Protocol(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let auth = server.authority();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let auth = auth.clone();
                std::thread::spawn(move || {
                    let req = Envelope::new(Element::local("Ping").attr("i", i.to_string()));
                    let resp = http_call(&auth, "svc", &req).unwrap();
                    assert_eq!(resp, req);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
    // ---- one write per message -------------------------------------

    /// Counts the calls that reach the "socket" and keeps the bytes.
    /// `accept` caps how much one call takes, to force short writes.
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
        accept: usize,
    }

    impl CountingWriter {
        fn new() -> Self {
            Self::accepting(usize::MAX)
        }

        fn accepting(accept: usize) -> Self {
            CountingWriter {
                calls: 0,
                bytes: Vec::new(),
                accept,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.accept;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.accept - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The response head as the fragmenting writer formatted it.
    fn response_bytes(code: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn every_response_reaches_the_socket_in_one_write() {
        const XML: &str = "text/xml; charset=utf-8";
        let mut head = Vec::new();
        let mut wire = Vec::new();

        // A SOAP reply.
        let reply = Envelope::new(Element::local("Pong").text("payload")).to_xml();
        let mut w = CountingWriter::new();
        write_response(&mut w, &mut head, 200, "OK", reply.as_bytes()).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.bytes, response_bytes(200, "OK", XML, reply.as_bytes()));

        // A fault reply, rendered here.
        let fault = SoapFault::client("timed out reading request line");
        let mut w = CountingWriter::new();
        write_fault_response(
            &mut w,
            &mut head,
            &mut wire,
            408,
            "Request Timeout",
            fault.clone(),
        )
        .unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(
            w.bytes,
            response_bytes(
                408,
                "Request Timeout",
                XML,
                fault.to_envelope().to_xml().as_bytes()
            )
        );

        // The body-less one-way acknowledgement.
        let mut w = CountingWriter::new();
        write_response(&mut w, &mut head, 202, "Accepted", b"").unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.bytes, response_bytes(202, "Accepted", XML, b""));

        // An exposition GET.
        let registry = MetricsRegistry::enabled();
        registry.counter("jobs.completed").add(7);
        let expose = Exposition {
            registry: registry.clone(),
            clock: Clock::manual(),
            scrapes: registry.counter("expose.scrapes"),
        };
        let mut w = CountingWriter::new();
        serve_exposition(&mut w, &mut head, &mut wire, &expose, "/metrics.json").unwrap();
        assert_eq!(w.calls, 1);
        let mut json = Vec::new();
        registry.write_json_into(&mut json);
        assert_eq!(w.bytes, response_bytes(200, "OK", CT_JSON, &json));
    }

    #[test]
    fn every_request_reaches_the_socket_in_one_write() {
        let env = Envelope::new(Element::local("Ping").text("payload"));
        let body = env.to_xml();
        let mut w = CountingWriter::new();
        write_post(&mut w, "127.0.0.1:8080", "/svc", &env).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            format!(
                "POST /svc HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );

        let mut w = CountingWriter::new();
        write_get(&mut w, "127.0.0.1:8080", "metrics").unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(
            w.bytes,
            b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn a_short_write_is_finished() {
        let body: Vec<u8> = (0..1000).map(|i| i as u8).collect();
        // Cut inside the head, at the head/body seam, and inside the body.
        for accept in [7, 10, 64] {
            let mut w = CountingWriter::accepting(accept);
            write_message(&mut w, b"0123456789", &body).unwrap();
            assert_eq!(&w.bytes[..10], b"0123456789");
            assert_eq!(&w.bytes[10..], body);
        }
    }

    // ---- reused, bounded connection workers ------------------------

    /// A server on the engine at a worker cap a test can reach.
    fn capped_server(
        endpoint: Arc<dyn Endpoint>,
        registry: &MetricsRegistry,
        cap: usize,
    ) -> HttpSoapServer {
        let conn = HttpConn {
            endpoint,
            obs: LinkObs::new(registry, KIND),
            clock: None,
            expose: None,
        };
        HttpSoapServer {
            listener: Listener::bind_capped(KIND, registry, READ_TIMEOUT, conn, cap).unwrap(),
        }
    }

    /// An echo endpoint that records which threads served it.
    fn thread_recording_echo(
        inside: impl Fn() + Send + Sync + 'static,
    ) -> (
        Arc<dyn Endpoint>,
        Arc<parking_lot::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
    ) {
        let seen = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let record = seen.clone();
        let endpoint = FnEndpoint::new("echo", move |env| {
            record.lock().insert(std::thread::current().id());
            inside();
            Some(env)
        });
        (Arc::new(endpoint), seen)
    }

    #[test]
    fn sequential_calls_reuse_a_worker_and_concurrent_ones_each_get_their_own() {
        let (endpoint, seen) = thread_recording_echo(|| {});
        let server = HttpSoapServer::start(endpoint).unwrap();
        let counts = server.listener.worker_counts();
        let req = Envelope::new(Element::local("Ping"));
        // A caller that finds the worker parked always gets that worker.
        for _ in 0..200 {
            assert_eq!(http_call(&server.authority(), "svc", &req).unwrap(), req);
            eventually("the worker parks", || counts().1 == 1);
        }
        assert_eq!(seen.lock().len(), 1);
        // A caller that comes straight back may beat the worker that
        // answered it to the park, which costs one more worker — and
        // another only if it then beats every worker at once.
        for _ in 0..200 {
            assert_eq!(http_call(&server.authority(), "svc", &req).unwrap(), req);
        }
        assert!(seen.lock().len() <= 8, "{} workers", seen.lock().len());

        // Eight callers held inside the endpoint together cannot share.
        let all_in = Arc::new(std::sync::Barrier::new(8));
        let (endpoint, seen) = thread_recording_echo(move || {
            all_in.wait();
        });
        let server = HttpSoapServer::start(endpoint).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| http_call(&server.authority(), "svc", &req).unwrap());
            }
        });
        assert_eq!(seen.lock().len(), 8);
    }

    #[test]
    fn connection_past_the_worker_cap_is_shed_with_a_server_fault() {
        let registry = MetricsRegistry::enabled();
        // Callers park inside the endpoint until the gate opens.
        let (open_gate, gate) = crossbeam::channel::unbounded::<()>();
        let (entered_tx, entered) = crossbeam::channel::unbounded::<()>();
        let endpoint = FnEndpoint::new("gated", move |env| {
            entered_tx.send(()).unwrap();
            let _ = gate.recv();
            Some(env)
        });
        let server = capped_server(Arc::new(endpoint), &registry, 4);
        let counts = server.listener.worker_counts();
        let req = Envelope::new(Element::local("Ping"));
        std::thread::scope(|s| {
            let held: Vec<_> = (0..4)
                .map(|_| s.spawn(|| http_call(&server.authority(), "svc", &req).unwrap()))
                .collect();
            for _ in 0..4 {
                entered.recv().unwrap();
            }

            // The fifth: 503 with a parseable Server fault, read raw
            // because `http_post` maps the status to a protocol error.
            let mut fifth = TcpStream::connect(server.local_addr()).unwrap();
            write_post(&mut fifth, &server.authority(), "svc", &req).unwrap();
            let (code, body) = raw_response(fifth);
            assert_eq!(code, 503);
            let fault = Envelope::parse(&body).unwrap();
            assert_eq!(fault.fault().unwrap().code, "Server");
            assert!(matches!(
                http_call(&server.authority(), "svc", &req),
                Err(TransportError::Protocol(m)) if m.contains("503")
            ));
            assert_eq!(registry.snapshot().counter("transport.http.shed"), Some(2));
            assert_eq!(counts().0, 4, "shedding spawned nothing");

            drop(open_gate);
            for call in held {
                assert_eq!(call.join().unwrap(), req);
            }
        });
        // Once a worker has parked, the listener serves again.
        eventually("a worker parks", || counts().1 > 0);
        assert_eq!(http_call(&server.authority(), "svc", &req).unwrap(), req);
        assert_eq!(registry.snapshot().counter("transport.http.shed"), Some(2));
    }

    #[test]
    fn dropping_the_server_releases_its_parked_workers() {
        let all_in = Arc::new(std::sync::Barrier::new(3));
        let (endpoint, _) = thread_recording_echo(move || {
            all_in.wait();
        });
        let server = HttpSoapServer::start(endpoint).unwrap();
        let counts = server.listener.worker_counts();
        let req = Envelope::new(Element::local("Ping"));
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| http_call(&server.authority(), "svc", &req).unwrap());
            }
        });
        eventually("three workers park", || counts() == (3, 3));
        drop(server);
        eventually("every worker exits", || counts().0 == 0);
    }

    // ---- a claimed Content-Length is only a claim ------------------

    /// A one-shot peer that answers any request with `response`, then
    /// closes.
    fn fake_server(response: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut request_line = String::new();
            reader.read_line(&mut request_line).unwrap();
            read_content_length(&mut reader).unwrap();
            reader.get_mut().write_all(response.as_bytes()).unwrap();
        });
        (authority, peer)
    }

    #[test]
    fn response_claiming_a_terabyte_is_a_protocol_error() {
        const CLAIM: &str = "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n<x/>";
        let (authority, peer) = fake_server(CLAIM);
        let err = http_get(&authority, "/metrics").unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        peer.join().unwrap();

        let (authority, peer) = fake_server(CLAIM);
        let err = http_call(&authority, "svc", &Envelope::new(Element::local("X"))).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        peer.join().unwrap();
    }

    #[test]
    fn truncated_response_body_is_an_io_error() {
        let (authority, peer) = fake_server("HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n<x/>");
        let err = http_get(&authority, "/metrics").unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err:?}");
        peer.join().unwrap();
    }

    #[test]
    fn request_claiming_the_cap_reserves_no_more_than_arrives() {
        let conn = HttpConn {
            endpoint: Arc::new(FnEndpoint::new("echo", Some)),
            obs: LinkObs::noop(),
            clock: None,
            expose: None,
        };
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // The largest body the server admits, claimed; ten bytes sent.
        write!(
            client,
            "POST /svc HTTP/1.1\r\nContent-Length: {MAX_MESSAGE}\r\n\r\n0123456789"
        )
        .unwrap();
        drop(client);
        let mut buffers = HttpBuffers::default();
        let err = conn.serve_connection(&accepted, &mut buffers).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            buffers.body.capacity() <= crate::pool::FIRST_RESERVE,
            "{}",
            buffers.body.capacity()
        );
    }
}
