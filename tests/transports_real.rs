//! Real-socket coverage: a WSRF service served over genuine localhost
//! HTTP and `soap.tcp` connections, exercising true wire encoding —
//! the paths experiment E5 prices.

#![allow(clippy::result_large_err)]

use std::sync::Arc;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::transport::http::{http_call, http_post, HttpSoapServer};
use wsrf_grid::transport::tcpframe::{FramedClient, FramedServer};
use wsrf_grid::wsrf::container::ServiceBuilder;
use wsrf_grid::wsrf::porttypes::wsrp_action;
use wsrf_grid::wsrf::Outbound;
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc};
use wsrf_grid::xml::{base64, Element as El, QName};

/// A tiny counter service used behind both transports.
fn counter_service() -> Arc<wsrf_grid::wsrf::Service> {
    let clock = Clock::manual();
    let net = InProcNetwork::new(clock.clone());
    let svc = ServiceBuilder::new(
        "Counter",
        "inproc://local/Counter",
        Arc::new(MemoryStore::new()),
    )
    .operation("Bump", |ctx| {
        let doc = ctx.resource_mut()?;
        let q = QName::new(wsrf_grid::testbed::UVACG, "Count");
        let n = doc.i64(&q).unwrap_or(0) + 1;
        doc.set_i64(q, n);
        Ok(El::new(wsrf_grid::testbed::UVACG, "BumpResponse").text(n.to_string()))
    })
    .build(clock, net);
    let mut doc = PropertyDoc::new();
    doc.set_i64(QName::new(wsrf_grid::testbed::UVACG, "Count"), 0);
    svc.core().create_resource_with_key("c1", doc).unwrap();
    svc
}

fn bump_request(svc: &wsrf_grid::wsrf::Service) -> Envelope {
    let epr = svc.core().epr_for("c1");
    bump(epr)
}

fn bump(epr: EndpointReference) -> Envelope {
    Outbound::new(
        epr,
        wsrf_grid::wsrf::container::action_uri("Counter", "Bump"),
        El::new(wsrf_grid::testbed::UVACG, "Bump"),
    )
    .into_envelope()
}

#[test]
fn wsrf_dispatch_over_real_http() {
    let svc = counter_service();
    let server = HttpSoapServer::start(svc.clone()).unwrap();
    for expected in 1..=5 {
        let resp = http_call(&server.authority(), "Counter", &bump_request(&svc)).unwrap();
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        assert_eq!(resp.body.text_content(), expected.to_string());
    }
    // Standard port types work over the wire too.
    let epr = svc.core().epr_for("c1");
    let body = El::new(ns::WSRP, "GetResourceProperty").text("Count");
    let env = Outbound::new(epr, wsrp_action("GetResourceProperty"), body).into_envelope();
    let resp = http_call(&server.authority(), "Counter", &env).unwrap();
    assert_eq!(resp.body.text_content(), "5");
}

#[test]
fn wsrf_fault_crosses_http_as_500_with_detail() {
    let svc = counter_service();
    let server = HttpSoapServer::start(svc.clone()).unwrap();
    // Bad key -> NoSuchResource fault.
    let ghost = svc.core().epr_for("ghost");
    let env = bump(ghost);
    let resp = http_call(&server.authority(), "Counter", &env).unwrap();
    let fault = resp.fault().unwrap();
    assert_eq!(fault.error_code(), Some("wsrf:NoSuchResource"));
    assert!(fault.detail.unwrap().originator.is_some());
}

#[test]
fn wsrf_dispatch_over_soap_tcp_persistent_connection() {
    let svc = counter_service();
    let server = FramedServer::start(svc.clone()).unwrap();
    let client = FramedClient::connect(&server.authority()).unwrap();
    for expected in 1..=10 {
        let resp = client.call(&bump_request(&svc)).unwrap();
        assert_eq!(resp.body.text_content(), expected.to_string());
    }
}

#[test]
fn bulk_binary_payload_over_both_transports() {
    // 256 KiB of binary content as base64 inside the envelope.
    let blob: Vec<u8> = (0..262_144u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let echo = Arc::new(wsrf_grid::transport::FnEndpoint::new("echo", Some));
    let body = El::local("Blob").text(base64::encode(&blob));
    let env = Envelope::new(body);

    let http_server = HttpSoapServer::start(echo.clone()).unwrap();
    let resp = http_call(&http_server.authority(), "echo", &env).unwrap();
    assert_eq!(base64::decode(&resp.body.text_content()).unwrap(), blob);

    let tcp_server = FramedServer::start(echo).unwrap();
    let tcp = FramedClient::connect(&tcp_server.authority()).unwrap();
    let resp = tcp.call(&env).unwrap();
    assert_eq!(base64::decode(&resp.body.text_content()).unwrap(), blob);
}

#[test]
fn one_way_messages_over_both_transports() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    let sink = Arc::new(wsrf_grid::transport::FnEndpoint::new("sink", move |_| {
        h.fetch_add(1, Ordering::SeqCst);
        None
    }));
    let env = Envelope::new(El::local("Event"));

    let http_server = HttpSoapServer::start(sink.clone()).unwrap();
    assert!(http_post(&http_server.authority(), "sink", &env)
        .unwrap()
        .is_none());
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    let tcp_server = FramedServer::start(sink).unwrap();
    let tcp = FramedClient::connect(&tcp_server.authority()).unwrap();
    tcp.send_oneway(&env).unwrap();
    for _ in 0..200 {
        if hits.load(Ordering::SeqCst) == 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
fn trace_context_survives_both_transports_byte_for_byte() {
    // The distributed-tracing header rides next to the WS-Addressing
    // headers; a hop must be able to parse it off the wire, re-stamp
    // it, and have the next hop read back the identical context.
    let tc = TraceContext::new(0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef, true);
    let wire = tc.to_traceparent();
    let relay = Arc::new(wsrf_grid::transport::FnEndpoint::new("relay", |env| {
        let parsed = TraceContext::from_envelope(&env).expect("trace header arrived");
        let mut reply = El::local("Ok").text(parsed.to_traceparent());
        reply = reply.attr("sampled", parsed.sampled.to_string());
        let mut out = Envelope::new(reply);
        parsed.stamp(&mut out); // re-stamp: the parse → stamp → parse cycle
        Some(out)
    }));
    let mut env = Envelope::new(El::local("Ping"));
    tc.stamp(&mut env);

    let http_server = HttpSoapServer::start(relay.clone()).unwrap();
    let resp = http_call(&http_server.authority(), "relay", &env).unwrap();
    assert_eq!(resp.body.text_content(), wire, "traceparent over HTTP");
    assert_eq!(TraceContext::from_envelope(&resp), Some(tc));

    let tcp_server = FramedServer::start(relay).unwrap();
    let tcp = FramedClient::connect(&tcp_server.authority()).unwrap();
    let resp = tcp.call(&env).unwrap();
    assert_eq!(resp.body.text_content(), wire, "traceparent over soap.tcp");
    assert_eq!(TraceContext::from_envelope(&resp), Some(tc));
}

#[test]
fn unicode_and_escaping_survive_the_wire() {
    let echo = Arc::new(wsrf_grid::transport::FnEndpoint::new("echo", Some));
    let server = HttpSoapServer::start(echo).unwrap();
    let tricky = "päth\\tö <file> & \"quotes\" 'apos' 日本語";
    let env = Envelope::new(El::local("T").attr("v", tricky).text(tricky));
    let resp = http_call(&server.authority(), "echo", &env).unwrap();
    assert_eq!(resp, env);
}
