//! Wire-path agreement and transport framing hygiene.
//!
//! Every serialization surface of an envelope (`Envelope::write_into`
//! into a `String` and into a `Vec<u8>`, the exact-size pass
//! `wire_len`, the `to_xml` wrapper) must produce the same bytes, parse
//! back to the same envelope, and bind WS-Addressing once, on
//! `<soap:Envelope>` — pinned across fixed vectors (faults, addressing
//! headers, traceparent) by their exact bytes and across randomly
//! generated envelopes — plus the Content-Length handling both HTTP
//! peers share.

#![allow(clippy::result_large_err)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use proptest::prelude::*;
use wsrf_grid::prelude::*;
use wsrf_grid::soap::{ns, LazyEnvelope, MessageInfo, ScanError};
use wsrf_grid::transport::http::{http_post, HttpSoapServer};
use wsrf_grid::transport::{FnEndpoint, TransportError};
use wsrf_grid::xml::{Element as El, QName};

/// How many times `xml` declares the WS-Addressing namespace.
fn wsa_declarations(xml: &str) -> usize {
    xml.matches(&format!("=\"{}\"", ns::WSA)).count()
}

/// Assert every serialization surface renders `want` exactly — both
/// sinks, the exact-size pass and the compat wrapper — that it parses
/// back to `env`, and that it declares WS-Addressing once.
fn assert_wire_is(env: &Envelope, want: &str) {
    let mut s = String::new();
    env.write_into(&mut s);
    assert_eq!(s, want, "String sink");
    let mut v: Vec<u8> = Vec::new();
    env.write_into(&mut v);
    assert_eq!(v.as_slice(), want.as_bytes(), "Vec<u8> sink");
    assert_eq!(env.wire_len(), want.len(), "wire_len is not exact");
    assert_eq!(env.to_xml(), want, "to_xml wrapper");
    assert_eq!(
        &Envelope::parse(want).expect("the wire form reparses"),
        env,
        "parse roundtrip"
    );
    assert_eq!(wsa_declarations(want), 1, "{want}");
}

/// The prolog and the `<soap:Envelope>` start tag every envelope opens
/// with: `soap` is `ns0` and WS-Addressing `ns1`, for the whole message.
fn envelope_open() -> String {
    format!(
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\
         <ns0:Envelope xmlns:ns0=\"{}\" xmlns:ns1=\"{}\">",
        ns::SOAP_ENV,
        ns::WSA
    )
}

#[test]
fn headerless_envelope_exact_bytes() {
    let env = Envelope::new(El::local("Ping"));
    let want = envelope_open() + "<ns0:Body><Ping/></ns0:Body></ns0:Envelope>";
    assert_wire_is(&env, &want);
}

#[test]
fn fault_envelope_is_wire_identical() {
    let env = SoapFault::server("boom").to_envelope();
    let want = envelope_open()
        + "<ns0:Body><ns0:Fault><faultcode>Server</faultcode><faultstring>boom</faultstring>\
           </ns0:Fault></ns0:Body></ns0:Envelope>";
    assert_wire_is(&env, &want);
    assert!(Envelope::parse(&want).unwrap().is_fault());
}

#[test]
fn addressed_namespaced_envelope_is_wire_identical() {
    let epr = EndpointReference::service("soap.tcp://machine01/ExecutionService");
    let mut env = Envelope::new(
        El::new(ns::UVACG, "CreateJob")
            .child(El::new(ns::UVACG, "JobName").text("run-42"))
            .child(El::new("urn:other", "Mixed").attr("k", "v<&>\"\n"))
            .child(
                El::new(ns::UVACG, "Attr")
                    .attr_ns(QName::new("urn:third", "scope"), "all")
                    .text("tail & <text>"),
            ),
    );
    let mut info = MessageInfo::request(epr, format!("{}/CreateJob", ns::UVACG));
    info.message_id = "uuid:fixed-1".into();
    info.apply(&mut env);
    env = env.with_header(El::new("urn:custom", "Tag").text("x"));
    let want = envelope_open()
        + &format!(
            "<ns0:Header><ns1:To>soap.tcp://machine01/ExecutionService</ns1:To>\
             <ns1:Action>{uvacg}/CreateJob</ns1:Action>\
             <ns1:MessageID>uuid:fixed-1</ns1:MessageID>\
             <ns2:Tag xmlns:ns2=\"urn:custom\">x</ns2:Tag></ns0:Header>\
             <ns0:Body><ns3:CreateJob xmlns:ns3=\"{uvacg}\"><ns3:JobName>run-42</ns3:JobName>\
             <ns4:Mixed xmlns:ns4=\"urn:other\" k=\"v&lt;&amp;&gt;&quot;&#10;\"/>\
             <ns3:Attr xmlns:ns5=\"urn:third\" ns5:scope=\"all\">tail &amp; &lt;text&gt;</ns3:Attr>\
             </ns3:CreateJob></ns0:Body></ns0:Envelope>",
            uvacg = ns::UVACG
        );
    assert_wire_is(&env, &want);
}

#[test]
fn traceparent_stamped_header_is_wire_identical() {
    let tc = TraceContext::new(0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef, true);
    let mut env = Envelope::new(El::local("Ping"));
    tc.stamp(&mut env);
    let want = envelope_open()
        + &format!(
            "<ns0:Header><ns2:TraceContext xmlns:ns2=\"{}\">\
             00-0000000000000000deadbeefcafef00d-0123456789abcdef-01</ns2:TraceContext>\
             </ns0:Header><ns0:Body><Ping/></ns0:Body></ns0:Envelope>",
            ns::UVACG
        );
    assert_wire_is(&env, &want);
    // Re-stamping (what hop_span does before byte accounting) must
    // replace the header in place: the same bytes.
    let parsed = TraceContext::from_envelope(&env).expect("stamped header parses");
    parsed.stamp(&mut env);
    assert_wire_is(&env, &want);
}

// ---------------------------------------------------------------------------
// Randomized agreement: both sinks, wire_len and to_xml, and one
// WS-Addressing binding however many headers and body subtrees use it.
// (No parse-roundtrip here — the parser merges adjacent text nodes, so
// generated trees with sibling text are not reparse-stable by design.)
// ---------------------------------------------------------------------------

fn ns_strategy() -> BoxedStrategy<Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("urn:x")),
        Just(Some("urn:y")),
        Just(Some(ns::WSA)),
    ]
    .boxed()
}

fn make_el(ns: Option<&'static str>, local: String) -> El {
    match ns {
        Some(uri) => El::new(uri, local),
        None => El::local(local),
    }
}

fn element_strategy() -> BoxedStrategy<El> {
    let leaf = (
        ns_strategy(),
        "[A-Za-z][A-Za-z0-9]{0,7}",
        proptest::option::of("[ -~]{0,12}"),
    )
        .prop_map(|(ns, local, text)| {
            let mut e = make_el(ns, local);
            if let Some(t) = text {
                e.push_text(t);
            }
            e
        })
        .boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            ns_strategy(),
            "[A-Za-z][A-Za-z0-9]{0,7}",
            proptest::collection::vec(
                (ns_strategy(), "[A-Za-z][A-Za-z0-9]{0,5}", "[ -~]{0,8}"),
                0..3,
            ),
            proptest::collection::vec(inner, 0..4),
            proptest::option::of("[ -~]{0,12}"),
        )
            .prop_map(|(ns, local, attrs, kids, tail)| {
                let mut e = make_el(ns, local);
                for (ans, alocal, aval) in attrs {
                    let q = match ans {
                        Some(uri) => QName::new(uri, alocal),
                        None => QName::local(alocal),
                    };
                    e.attrs.push((q, aval));
                }
                for k in kids {
                    e.push_child(k);
                }
                if let Some(t) = tail {
                    e.push_text(t);
                }
                e
            })
            .boxed()
    })
}

fn envelope_strategy() -> BoxedStrategy<Envelope> {
    (
        proptest::collection::vec(element_strategy(), 0..3),
        element_strategy(),
    )
        .prop_map(|(headers, body)| {
            let mut env = Envelope::new(body);
            env.headers = headers;
            env
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_sink_renders_the_same_bytes(env in envelope_strategy()) {
        let mut s = String::new();
        env.write_into(&mut s);
        let mut v: Vec<u8> = Vec::new();
        env.write_into(&mut v);
        prop_assert_eq!(v.as_slice(), s.as_bytes());
        prop_assert_eq!(env.wire_len(), s.len());
        prop_assert_eq!(env.to_xml(), s);
    }

    #[test]
    fn an_envelope_declares_ws_addressing_once(env in envelope_strategy()) {
        let xml = env.to_xml();
        prop_assert_eq!(wsa_declarations(&xml), 1, "{}", xml);
    }

    #[test]
    fn element_encoded_len_is_exact(e in element_strategy()) {
        prop_assert_eq!(e.encoded_len(), e.to_xml().len());
    }
}

// ---------------------------------------------------------------------------
// Routing agreement on damaged wires: the lazy scan and the DOM path
// (`Envelope::parse` + `MessageInfo::extract`) read the same addressing
// headers and trace context from a cut or overwritten envelope, or both
// reject it for the same reason.
// ---------------------------------------------------------------------------

/// What a receiver makes of a wire document's headers.
#[derive(Debug, PartialEq)]
enum Routed {
    To(MessageInfo, Option<TraceContext>),
    MissingAction,
    Malformed,
}

fn routed_by_scan(wire: &str) -> Routed {
    match LazyEnvelope::scan(wire) {
        Ok(lazy) => Routed::To(lazy.info, lazy.trace),
        Err(ScanError::MissingAction) => Routed::MissingAction,
        Err(ScanError::Malformed(_)) => Routed::Malformed,
    }
}

fn routed_by_dom(wire: &str) -> Routed {
    let Ok(env) = Envelope::parse(wire) else {
        return Routed::Malformed;
    };
    match MessageInfo::extract(&env) {
        Ok(info) => Routed::To(info, TraceContext::from_envelope(&env)),
        Err(e) if e.to_string() == ScanError::MissingAction.to_string() => Routed::MissingAction,
        Err(_) => Routed::Malformed,
    }
}

/// A generated envelope as a request would carry it: addressed to a
/// WS-Resource, optionally trace-stamped, optionally without `Action`.
fn addressed_wire_strategy() -> BoxedStrategy<String> {
    (envelope_strategy(), any::<bool>(), any::<bool>())
        .prop_map(|(mut env, traced, drop_action)| {
            let to = EndpointReference::resource("inproc://m1/Exec", "{urn:k}JobKey", "j-7");
            let mut info = MessageInfo::request(to, "urn:svc/Run");
            info.message_id = "uuid:fixed".into();
            info.apply(&mut env);
            if traced {
                TraceContext::new(0x42, 0x7, true).stamp(&mut env);
            }
            if drop_action {
                env.headers.retain(|h| !h.name.is(ns::WSA, "Action"));
            }
            env.to_xml()
        })
        .boxed()
}

/// Bytes worth writing over one of the wire's: markup first.
fn damage_strategy() -> BoxedStrategy<u8> {
    prop_oneof![
        3 => prop_oneof![
            Just(b'<'),
            Just(b'>'),
            Just(b'/'),
            Just(b'='),
            Just(b'"'),
            Just(b':'),
            Just(b'&'),
            Just(b' '),
        ],
        1 => 0x20u8..0x7f,
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_cut_wire_routes_the_same_on_both_paths(
        wire in addressed_wire_strategy(),
        at in any::<usize>(),
    ) {
        let mut at = at % (wire.len() + 1);
        while !wire.is_char_boundary(at) {
            at -= 1;
        }
        let cut = &wire[..at];
        prop_assert_eq!(routed_by_scan(cut), routed_by_dom(cut), "{}", cut);
    }

    #[test]
    fn an_overwritten_byte_routes_the_same_on_both_paths(
        wire in addressed_wire_strategy(),
        at in any::<usize>(),
        byte in damage_strategy(),
    ) {
        let ascii: Vec<usize> = wire.bytes().enumerate().filter(|(_, b)| b.is_ascii()).map(|(i, _)| i).collect();
        let mut bytes = wire.into_bytes();
        bytes[ascii[at % ascii.len()]] = byte;
        let damaged = String::from_utf8(bytes).expect("one ASCII byte for another");
        prop_assert_eq!(routed_by_scan(&damaged), routed_by_dom(&damaged), "{}", damaged);
    }
}

// ---------------------------------------------------------------------------
// Byte accounting: the inproc zero-render path must charge exactly the
// bytes a real render would have produced.
// ---------------------------------------------------------------------------

#[test]
fn inproc_byte_accounting_matches_rendered_sizes() {
    let net = InProcNetwork::new(Clock::manual());
    net.register("inproc://m1/Echo", Arc::new(FnEndpoint::new("echo", Some)));
    let mut env = Envelope::new(El::new(ns::UVACG, "CreateJob").text("payload"));
    TraceContext::new(1, 2, true).stamp(&mut env);
    let wire = env.to_xml().len() as u64;

    net.call("inproc://m1/Echo", env.clone()).unwrap();
    let (_, _, bytes, _) = net.metrics.snapshot();
    assert_eq!(bytes, 2 * wire, "call charges request + response bytes");

    net.send_oneway("inproc://m1/Echo", env).unwrap();
    let (_, _, bytes, _) = net.metrics.snapshot();
    assert_eq!(bytes, 3 * wire, "one-way charges request bytes only");
}

// ---------------------------------------------------------------------------
// Content-Length handling — the one parser both HTTP peers share.
// ---------------------------------------------------------------------------

/// Read a full HTTP response off `stream` (server closes per
/// `Connection: close`); returns (status code, body text).
fn read_http_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let code = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

#[test]
fn missing_content_length_yields_411_client_fault() {
    let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write!(s, "POST /svc HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let (code, body) = read_http_response(&mut s);
    assert_eq!(code, 411);
    let fault = Envelope::parse(&body)
        .expect("fault body is a SOAP envelope")
        .fault()
        .expect("411 body carries a fault");
    assert_eq!(fault.code, "Client");
    assert!(
        fault.reason.contains("Content-Length"),
        "reason names the header: {}",
        fault.reason
    );
}

#[test]
fn garbage_content_length_yields_400_client_fault() {
    let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write!(
        s,
        "POST /svc HTTP/1.1\r\nHost: test\r\nContent-Length: twelve\r\n\r\n"
    )
    .unwrap();
    let (code, body) = read_http_response(&mut s);
    assert_eq!(code, 400);
    let fault = Envelope::parse(&body)
        .expect("fault body is a SOAP envelope")
        .fault()
        .expect("400 body carries a fault");
    assert_eq!(fault.code, "Client");
    assert!(
        fault.reason.contains("twelve"),
        "reason echoes the bad value: {}",
        fault.reason
    );
}

/// Spawn a one-shot fake HTTP server that drains the full request
/// (headers plus declared body — closing earlier races the client into
/// a broken pipe) and answers with `response` verbatim.
fn fake_http_server(response: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut data = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            data.extend_from_slice(&buf[..n]);
            let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            let head = String::from_utf8_lossy(&data[..head_end]);
            let body_len: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().unwrap())
                })
                .unwrap_or(0);
            if data.len() >= head_end + 4 + body_len {
                break;
            }
        }
        s.write_all(response.as_bytes()).unwrap();
        s.flush().unwrap();
    });
    addr
}

#[test]
fn response_without_content_length_is_protocol_error() {
    let addr = fake_http_server("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n<x/>");
    let err = http_post(&addr.to_string(), "svc", &Envelope::new(El::local("Ping"))).unwrap_err();
    match err {
        TransportError::Protocol(msg) => {
            assert!(msg.contains("Content-Length"), "{msg}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
}

#[test]
fn response_with_garbage_content_length_is_protocol_error() {
    let addr =
        fake_http_server("HTTP/1.1 200 OK\r\nContent-Length: NaN\r\nConnection: close\r\n\r\n");
    let err = http_post(&addr.to_string(), "svc", &Envelope::new(El::local("Ping"))).unwrap_err();
    match err {
        TransportError::Protocol(msg) => {
            assert!(msg.contains("NaN"), "{msg}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
}

#[test]
fn acknowledgement_without_content_length_is_still_accepted() {
    // A 202 one-way ack has no body; the client must not demand a
    // Content-Length before recognising it.
    let addr = fake_http_server("HTTP/1.1 202 Accepted\r\nConnection: close\r\n\r\n");
    let out = http_post(&addr.to_string(), "svc", &Envelope::new(El::local("Ping"))).unwrap();
    assert!(out.is_none(), "202 resolves to Ok(None)");
}
