//! Interoperability demo: the same WSRF service served over *real*
//! localhost transports — HTTP (as IIS/ASP.NET did) and WSE-style
//! `soap.tcp` — and driven by nothing but standard port types, the way
//! a foreign WSRF stack (the paper mentions early Globus Toolkit 4
//! interop testing) would see it.
//!
//! ```text
//! cargo run --example real_wire
//! ```

use std::sync::Arc;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::ns;
use wsrf_grid::transport::http::{http_call, HttpSoapServer};
use wsrf_grid::transport::tcpframe::{FramedClient, FramedServer};
use wsrf_grid::wsrf::container::ServiceBuilder;
use wsrf_grid::wsrf::porttypes::{wsrp_action, XPATH_DIALECT};
use wsrf_grid::wsrf::{MemoryStore, Outbound, PropertyDoc};
use wsrf_grid::xml::{Element as El, QName};

fn main() {
    // A small "instrument" service: one resource with live readings.
    let clock = Clock::scaled(1000.0);
    let net = InProcNetwork::new(clock.clone());
    let svc = ServiceBuilder::new(
        "Telescope",
        "inproc://observatory/Telescope",
        Arc::new(MemoryStore::new()),
    )
    .computed_property(
        QName::new(wsrf_grid::testbed::UVACG, "ObservationTime"),
        |_, now| {
            vec![El::new(wsrf_grid::testbed::UVACG, "ObservationTime")
                .text(format!("{:.3}", now.as_secs_f64()))]
        },
    )
    .build(clock, net);
    let mut doc = PropertyDoc::new();
    doc.set_text(QName::new(wsrf_grid::testbed::UVACG, "Target"), "M31");
    doc.set_f64(QName::new(wsrf_grid::testbed::UVACG, "Magnitude"), 3.44);
    let epr_template = svc.core().create_resource_with_key("scope-1", doc).unwrap();

    // Serve it over both real transports simultaneously.
    let http = HttpSoapServer::start(svc.clone()).expect("bind http");
    let tcp = FramedServer::start(svc).expect("bind tcp");
    println!("Telescope service live:");
    println!("  http://{}/Telescope", http.authority());
    println!("  soap.tcp://{}/Telescope", tcp.authority());

    // A foreign client knows only WS-ResourceProperties.
    let get = |prop: &str| {
        let body = El::new(ns::WSRP, "GetResourceProperty").text(prop);
        Outbound::new(
            epr_template.clone(),
            wsrp_action("GetResourceProperty"),
            body,
        )
        .into_envelope()
    };

    println!("\nover HTTP:");
    for prop in ["Target", "Magnitude", "ObservationTime"] {
        let resp = http_call(&http.authority(), "Telescope", &get(prop)).expect("call");
        println!("  {prop:<16} = {}", resp.body.text_content());
    }

    println!("\nover soap.tcp (one persistent connection):");
    let client = FramedClient::connect(&tcp.authority()).expect("connect");
    for prop in ["Target", "Magnitude", "ObservationTime"] {
        let resp = client.call(&get(prop)).expect("call");
        println!("  {prop:<16} = {}", resp.body.text_content());
    }

    // XPath query over the wire.
    let query = El::new(ns::WSRP, "QueryResourceProperties").child(
        El::new(ns::WSRP, "QueryExpression")
            .attr("Dialect", XPATH_DIALECT)
            .text("/ResourcePropertyDocument[Target='M31']/Magnitude"),
    );
    let env =
        Outbound::new(epr_template, wsrp_action("QueryResourceProperties"), query).into_envelope();
    let resp = client.call(&env).expect("query");
    println!(
        "\nXPath [Target='M31']/Magnitude = {}",
        resp.body.text_content()
    );

    // And self-description, the WSDL analogue.
    let env = Outbound::new(
        EndpointReference::service("inproc://observatory/Telescope"),
        wsrf_grid::wsrf::wsdl::DESCRIBE_ACTION,
        El::local("GetServiceDescription"),
    )
    .into_envelope();
    let resp = http_call(&http.authority(), "Telescope", &env).expect("describe");
    let desc = wsrf_grid::wsrf::wsdl::ServiceDescription::from_element(&resp.body).unwrap();
    println!(
        "\nservice description: {} operations, resource key {}",
        desc.operations.len(),
        desc.key_property
    );
}
