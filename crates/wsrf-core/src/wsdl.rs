//! Service self-description — the WSDL analogue.
//!
//! In WSRF.NET "the schema for this [resource properties] document is
//! part of the web service's WSDL", and clients discover a service's
//! port types by fetching it. Full WSDL 1.1 is far outside this
//! reproduction's scope, but the *capability* it provides — ask a
//! service what operations and properties it supports, with zero
//! prior agreement — is load-bearing for the paper's interoperability
//! story. Every service built by the container therefore answers
//! [`DESCRIBE_ACTION`] with a `<ServiceDescription>` document listing
//! its address, resource-key property, operations (action URIs and
//! whether they are resource-scoped) and declared computed properties.

use wsrf_soap::ns;
use wsrf_xml::Element;

/// The action URI of the description operation (installed on every
/// container-built service).
pub const DESCRIBE_ACTION: &str = "urn:wsrf-grid/GetServiceDescription";

/// Namespace of description documents.
pub const DESC_NS: &str = "urn:wsrf-grid/description";

/// Build the description document (called by the container at build
/// time, when the full operation table is known).
pub(crate) fn describe(
    name: &str,
    address: &str,
    key_property: &str,
    actions: &mut [(String, bool)],
    computed: &[wsrf_xml::QName],
) -> Element {
    actions.sort();
    let mut doc = Element::new(DESC_NS, "ServiceDescription")
        .attr("name", name)
        .attr("address", address);
    doc.push_child(Element::new(DESC_NS, "ResourceKeyProperty").text(key_property));
    let mut ops = Element::new(DESC_NS, "Operations");
    for (action, resource_scoped) in actions.iter() {
        ops.push_child(
            Element::new(DESC_NS, "Operation")
                .attr("action", action)
                .attr(
                    "scope",
                    if *resource_scoped {
                        "resource"
                    } else {
                        "service"
                    },
                ),
        );
    }
    doc.push_child(ops);
    if !computed.is_empty() {
        let mut props = Element::new(DESC_NS, "ComputedProperties");
        for c in computed {
            props.push_child(Element::new(DESC_NS, "Property").text(c.to_string()));
        }
        doc.push_child(props);
    }
    doc
}

/// Decoded description, for clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescription {
    /// Service name.
    pub name: String,
    /// Deployed address.
    pub address: String,
    /// Clark-form name of the resource-key reference property.
    pub key_property: String,
    /// `(action URI, resource-scoped?)` pairs, sorted.
    pub operations: Vec<(String, bool)>,
    /// Computed property names (Clark form).
    pub computed_properties: Vec<String>,
}

impl ServiceDescription {
    /// Decode a `<ServiceDescription>` document.
    pub fn from_element(e: &Element) -> Option<ServiceDescription> {
        Some(ServiceDescription {
            name: e.attr_value("name")?.to_string(),
            address: e.attr_value("address")?.to_string(),
            key_property: e
                .find(DESC_NS, "ResourceKeyProperty")
                .map(|k| k.text_content())
                .unwrap_or_default(),
            operations: e
                .find(DESC_NS, "Operations")?
                .elements()
                .filter_map(|o| {
                    Some((
                        o.attr_value("action")?.to_string(),
                        o.attr_value("scope") == Some("resource"),
                    ))
                })
                .collect(),
            computed_properties: e
                .find(DESC_NS, "ComputedProperties")
                .map(|p| p.elements().map(|c| c.text_content()).collect())
                .unwrap_or_default(),
        })
    }

    /// Does the service implement this action?
    pub fn supports(&self, action: &str) -> bool {
        self.operations.iter().any(|(a, _)| a == action)
    }

    /// Does it implement the standard WS-ResourceProperties port type?
    pub fn supports_resource_properties(&self) -> bool {
        self.supports(&crate::porttypes::wsrp_action("GetResourceProperty"))
    }

    /// Does it implement WS-ResourceLifetime?
    pub fn supports_lifetime(&self) -> bool {
        self.supports(&crate::porttypes::wsrl_action("Destroy"))
    }
}

/// Client helper: fetch and decode a service's description.
pub fn fetch_description(
    net: &wsrf_transport::InProcNetwork,
    address: &str,
) -> Result<ServiceDescription, wsrf_soap::SoapFault> {
    let resp = crate::proxy::Outbound::new(
        wsrf_soap::EndpointReference::service(address),
        DESCRIBE_ACTION,
        Element::new(DESC_NS, "GetServiceDescription"),
    )
    .call(net)?;
    ServiceDescription::from_element(&resp.body)
        .ok_or_else(|| wsrf_soap::SoapFault::server("malformed ServiceDescription"))
}

// `ns` is used by doc-links above; keep the import honest.
const _: &str = ns::WSRP;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ServiceBuilder;
    use crate::store::MemoryStore;
    use simclock::Clock;
    use std::sync::Arc;
    use wsrf_transport::InProcNetwork;
    use wsrf_xml::QName;

    #[test]
    fn services_self_describe() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Exec", "inproc://m1/Exec", Arc::new(MemoryStore::new()))
            .static_operation("Run", |_| Ok(Element::local("R")))
            .operation("Kill", |_| Ok(Element::local("K")))
            .computed_property(QName::new(ns::UVACG, "CpuTimeUsed"), |_, _| vec![])
            .build(clock, net.clone());
        svc.register(&net);

        let desc = fetch_description(&net, "inproc://m1/Exec").unwrap();
        assert_eq!(desc.name, "Exec");
        assert_eq!(desc.address, "inproc://m1/Exec");
        assert!(desc.key_property.ends_with("ExecKey"));
        assert!(desc.supports_resource_properties());
        assert!(desc.supports_lifetime());
        assert!(desc.supports(&crate::container::action_uri("Exec", "Run")));
        let (_, run_scoped) = desc
            .operations
            .iter()
            .find(|(a, _)| a.ends_with("/Run"))
            .unwrap();
        assert!(!run_scoped, "Run is a service-scoped factory");
        let (_, kill_scoped) = desc
            .operations
            .iter()
            .find(|(a, _)| a.ends_with("Exec/Kill"))
            .unwrap();
        assert!(kill_scoped);
        assert_eq!(desc.computed_properties.len(), 1);
        assert!(desc.computed_properties[0].contains("CpuTimeUsed"));
    }

    #[test]
    fn baseline_style_services_advertise_no_standard_port_types() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Gram", "inproc://hub/Gram", Arc::new(MemoryStore::new()))
            .without_standard_port_types()
            .without_lifetime()
            .static_operation("Submit", |_| Ok(Element::local("S")))
            .build(clock, net.clone());
        svc.register(&net);
        let desc = fetch_description(&net, "inproc://hub/Gram").unwrap();
        assert!(!desc.supports_resource_properties());
        assert!(!desc.supports_lifetime());
        assert!(desc.supports(&crate::container::action_uri("Gram", "Submit")));
    }
}
