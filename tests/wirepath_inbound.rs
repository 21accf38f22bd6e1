//! Inbound wire-path invariants: lazy header routing end to end, plus
//! per-exchange parse budgets.
//!
//! `wsrf_xml::parse_event_count` / `dom_build_count` are
//! process-global, so every test in this binary serializes on one
//! mutex — a counter delta measured while another test tokenizes
//! would be garbage. Integration test files run as separate
//! processes, so other files can't interfere.

#![allow(clippy::result_large_err)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use wsrf_grid::prelude::*;
use wsrf_grid::soap::{ns, MessageInfo};
use wsrf_grid::transport::http::{http_call, HttpSoapServer};
use wsrf_grid::transport::tcpframe::{FramedClient, FramedServer};
use wsrf_grid::wsrf::container::{action_uri, Service, ServiceBuilder};
use wsrf_grid::wsrf::porttypes::wsrp_action;
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc};
use wsrf_grid::xml::{dom_build_count, parse_event_count, Element as El, QName};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A Job service with one keyed resource (`job-1`, Status=Running).
fn job_service() -> (Arc<Service>, EndpointReference) {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let mut doc = PropertyDoc::new();
    doc.set_text(QName::new(ns::UVACG, "JobName"), "wire-job");
    doc.set_text(QName::new(ns::UVACG, "Status"), "Running");
    let svc = ServiceBuilder::new("Job", "inproc://m1/Job", Arc::new(MemoryStore::new()))
        .build(clock, net);
    let epr = svc.core().create_resource_with_key("job-1", doc).unwrap();
    (svc, epr)
}

/// A rendered WS-RP GetResourceProperty request for `{uvacg}Status`.
fn get_status_wire(epr: &EndpointReference) -> String {
    let mut env = Envelope::new(
        El::new(ns::WSRP, "GetResourceProperty").text(format!("{{{}}}Status", ns::UVACG)),
    );
    MessageInfo::request(epr.clone(), wsrp_action("GetResourceProperty")).apply(&mut env);
    env.to_xml()
}

/// Per-exchange parse budgets for the fixed wires below. The numbers
/// are pinned exactly, like the render budgets in `wirepath_renders`:
/// a regression that tokenizes twice or materializes an extra DOM
/// must show up as a diff here, not as a silent slowdown.
const GET_EVENTS_LAZY: u64 = 24;
const SET_EVENTS_LAZY: u64 = 32;

#[test]
fn wsrp_read_answers_without_materializing_a_body_dom() {
    let _g = lock();
    let (svc, epr) = job_service();
    let wire = get_status_wire(&epr);

    svc.dispatch_wire(&wire); // warm: interning, store paths
    let doms = dom_build_count();
    let events = parse_event_count();
    let resp = svc.dispatch_wire(&wire);
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    assert_eq!(resp.body.text_content(), "Running");
    assert_eq!(
        dom_build_count() - doms,
        0,
        "a WS-RP read must route and answer with zero DOM builds"
    );
    assert_eq!(parse_event_count() - events, GET_EVENTS_LAZY);
}

#[test]
fn write_op_materializes_exactly_one_body_dom() {
    let _g = lock();
    let (svc, epr) = job_service();
    let mut env = Envelope::new(
        El::new(ns::WSRP, "SetResourceProperties")
            .child(El::new(ns::WSRP, "Update").child(El::new(ns::UVACG, "Status").text("Done"))),
    );
    MessageInfo::request(epr.clone(), wsrp_action("SetResourceProperties")).apply(&mut env);
    let wire = env.to_xml();

    svc.dispatch_wire(&wire); // warm
    let doms = dom_build_count();
    let events = parse_event_count();
    let resp = svc.dispatch_wire(&wire);
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    assert_eq!(
        dom_build_count() - doms,
        1,
        "a write op materializes its deferred body exactly once"
    );
    assert_eq!(parse_event_count() - events, SET_EVENTS_LAZY);
    let check = svc.dispatch_wire(&get_status_wire(&epr));
    assert_eq!(check.body.text_content(), "Done");
}

#[test]
fn transport_read_exchanges_build_only_the_client_response_dom() {
    let _g = lock();
    let (svc, epr) = job_service();
    let mut env = Envelope::new(
        El::new(ns::WSRP, "GetResourceProperty").text(format!("{{{}}}Status", ns::UVACG)),
    );
    MessageInfo::request(epr.clone(), wsrp_action("GetResourceProperty")).apply(&mut env);

    // soap.tcp: the server routes lazily off its receive buffer; the
    // one DOM in the whole exchange is the client parsing the reply.
    let ts = FramedServer::start(svc.clone()).unwrap();
    let tc = FramedClient::connect(&ts.authority()).unwrap();
    tc.call(&env).unwrap(); // warm
    let doms = dom_build_count();
    let resp = tc.call(&env).unwrap();
    assert!(!resp.is_fault());
    assert_eq!(
        dom_build_count() - doms,
        1,
        "soap.tcp read exchange: client response parse only"
    );

    // HTTP (untraced): same budget.
    let hs = HttpSoapServer::start(svc.clone()).unwrap();
    http_call(&hs.authority(), "Job", &env).unwrap(); // warm
    let doms = dom_build_count();
    let resp = http_call(&hs.authority(), "Job", &env).unwrap();
    assert!(!resp.is_fault());
    assert_eq!(
        dom_build_count() - doms,
        1,
        "http read exchange: client response parse only"
    );
}

#[test]
fn headerless_envelope_faults_like_the_dom_path() {
    let _g = lock();
    let (svc, _) = job_service();
    let wire = Envelope::new(El::local("Ping")).to_xml();
    let resp = svc.dispatch_wire(&wire);
    let fault = resp.fault().expect("headerless envelope must fault");
    assert!(
        fault.reason.contains("wsa:Action"),
        "fault names the missing header: {}",
        fault.reason
    );
    // The DOM pipeline faults the same way on the same wire.
    let dom_resp = svc.dispatch(Envelope::parse(&wire).unwrap());
    assert_eq!(dom_resp.fault().unwrap().reason, fault.reason);
    // ...with the container's typed fault, not a bare SOAP Client one.
    assert_eq!(fault.error_code(), Some("wsrf:BadRequest"));
    assert_eq!(dom_resp.fault().unwrap().error_code(), fault.error_code());
}

#[test]
fn duplicate_to_and_swapped_sections_route_like_the_dom_path() {
    let _g = lock();
    let (svc, _) = job_service();
    // Duplicate <To> (last wins) plus the key as a promoted reference
    // property, hand-written rather than rendered.
    let dup_to = format!(
        "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\" xmlns:u=\"{uvacg}\">\
         <e:Header><a:To>inproc://bogus/Nope</a:To>\
         <a:Action>{action}</a:Action>\
         <u:JobKey>job-1</u:JobKey>\
         <a:To>inproc://m1/Job</a:To></e:Header>\
         <e:Body><w:GetResourceProperty xmlns:w=\"{wsrp}\">\
         {{{uvacg}}}Status</w:GetResourceProperty></e:Body></e:Envelope>",
        soap = ns::SOAP_ENV,
        wsa = ns::WSA,
        uvacg = ns::UVACG,
        wsrp = ns::WSRP,
        action = wsrp_action("GetResourceProperty"),
    );
    // <Body> before <Header> — legal per SOAP, and routing must not
    // depend on section order.
    let body_first = format!(
        "<e:Envelope xmlns:e=\"{soap}\" xmlns:a=\"{wsa}\" xmlns:u=\"{uvacg}\">\
         <e:Body><w:GetResourceProperty xmlns:w=\"{wsrp}\">\
         {{{uvacg}}}Status</w:GetResourceProperty></e:Body>\
         <e:Header><a:To>inproc://m1/Job</a:To>\
         <a:Action>{action}</a:Action>\
         <u:JobKey>job-1</u:JobKey></e:Header></e:Envelope>",
        soap = ns::SOAP_ENV,
        wsa = ns::WSA,
        uvacg = ns::UVACG,
        wsrp = ns::WSRP,
        action = wsrp_action("GetResourceProperty"),
    );
    for wire in [&dup_to, &body_first] {
        let lazy = svc.dispatch_wire(wire);
        assert!(!lazy.is_fault(), "{:?}", lazy.fault());
        assert_eq!(lazy.body.text_content(), "Running");
        // Same answer as the DOM pipeline (bodies compared — each
        // response mints a fresh MessageID header).
        let dom = svc.dispatch(Envelope::parse(wire).unwrap());
        assert_eq!(lazy.body, dom.body);
    }
}

/// Read one `WSE1` frame (flag + payload) off the stream.
fn read_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut head = [0u8; 9];
    stream.read_exact(&mut head).unwrap();
    assert_eq!(&head[..4], b"WSE1");
    let len = u32::from_be_bytes(head[5..9].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    (head[4], payload)
}

fn write_frame(stream: &mut TcpStream, flags: u8, payload: &[u8]) {
    let mut buf = Vec::with_capacity(9 + payload.len());
    buf.extend_from_slice(b"WSE1");
    buf.push(flags);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf).unwrap();
}

#[test]
fn truncated_body_after_routed_header_faults_not_hangs() {
    let _g = lock();
    let (svc, epr) = job_service();
    let full = get_status_wire(&epr);
    // Cut mid-body: the headers are complete and routable, the
    // operation element is not.
    let cut = full.find("Status</").expect("body text present") + 3;
    let truncated = &full[..cut];

    // Straight dispatch: a client fault, mirroring what the DOM-path
    // transports answered for unparseable wires.
    let fault = svc.dispatch_wire(truncated).fault().expect("must fault");
    assert!(
        fault.reason.contains("unparseable envelope"),
        "{}",
        fault.reason
    );

    // soap.tcp: the fault comes back as a response frame and the
    // persistent connection survives for the next (good) call.
    let ts = FramedServer::start(svc.clone()).unwrap();
    let mut stream = TcpStream::connect(ts.authority()).unwrap();
    write_frame(&mut stream, 0, truncated.as_bytes());
    let (flags, payload) = read_frame(&mut stream);
    assert_eq!(flags, 2, "FLAG_RESPONSE");
    let resp = Envelope::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(resp.fault().unwrap().reason.contains("unparseable"));
    write_frame(&mut stream, 0, full.as_bytes());
    let (_, payload) = read_frame(&mut stream);
    let resp = Envelope::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(resp.body.text_content(), "Running");

    // HTTP: a 500 carrying the fault envelope, not a stalled socket.
    let hs = HttpSoapServer::start(svc).unwrap();
    let mut s = TcpStream::connect(hs.local_addr()).unwrap();
    write!(
        s,
        "POST /Job HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        truncated.len(),
        truncated
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 500"),
        "{}",
        &raw[..40.min(raw.len())]
    );
    let body = raw.split_once("\r\n\r\n").unwrap().1;
    let fault = Envelope::parse(body).unwrap().fault().unwrap();
    assert!(
        fault.reason.contains("unparseable envelope"),
        "{}",
        fault.reason
    );
}

#[test]
fn custom_read_op_stays_dom_free_over_the_wire() {
    let _g = lock();
    // A service-author read op that only needs the body text keeps the
    // zero-DOM budget too — the contract isn't special to WS-RP.
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let svc = ServiceBuilder::new("Echo", "inproc://m1/Echo", Arc::new(MemoryStore::new()))
        .read_operation("Shout", |ctx| {
            Ok(El::new(ns::UVACG, "ShoutResponse").text(ctx.body.text().to_uppercase()))
        })
        .build(clock, net);
    let epr = svc.core().create_resource(PropertyDoc::new()).unwrap();
    let mut env = Envelope::new(El::new(ns::UVACG, "Shout").text("quiet"));
    MessageInfo::request(epr, action_uri("Echo", "Shout")).apply(&mut env);
    let wire = env.to_xml();

    svc.dispatch_wire(&wire); // warm
    let doms = dom_build_count();
    let resp = svc.dispatch_wire(&wire);
    assert_eq!(resp.body.text_content(), "QUIET");
    assert_eq!(dom_build_count() - doms, 0);
}
