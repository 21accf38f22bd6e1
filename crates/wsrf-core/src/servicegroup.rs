//! WS-ServiceGroup: a WS-Resource whose state is a collection of
//! member entries.
//!
//! The paper's Node Info Service "is a service group (as defined by
//! WS-ServiceGroups) whose members represent the processors available
//! for scheduling". This module layers group semantics on top of the
//! container: the group itself is a singleton resource whose `Entry`
//! property lists entry EPRs; each entry is a resource of the same
//! service carrying the member's EPR and its *content* (the member's
//! advertised properties). A membership content rule names the
//! properties every member's content must include.

use std::sync::Arc;

use simclock::Clock;
use wsrf_soap::{ns, BaseFault, EndpointReference};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

use crate::container::{action_uri, Service, ServiceBuilder};
use crate::faults;
use crate::properties::PropertyDoc;
use crate::store::ResourceStore;

/// Key of the singleton group resource.
pub const GROUP_KEY: &str = "group";

/// Property names used by the group implementation.
pub fn entry_property() -> QName {
    QName::new(ns::WSSG, "Entry")
}

/// Content rule: local names of properties each member's content must
/// carry.
#[derive(Debug, Clone, Default)]
pub struct MembershipContentRule {
    /// Required property local names.
    pub required: Vec<String>,
}

impl MembershipContentRule {
    /// Rule requiring the listed property names in every entry content.
    pub fn requiring(names: &[&str]) -> Self {
        MembershipContentRule {
            required: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Validate a content document against the rule.
    pub fn check(&self, content: &Element) -> Result<(), BaseFault> {
        for r in &self.required {
            if content.find_local(r).is_none() {
                return Err(BaseFault::new(
                    "wssg:ContentCreationFailed",
                    format!("member content is missing required property '{r}'"),
                ));
            }
        }
        Ok(())
    }
}

/// Build a WS-ServiceGroup service.
///
/// Operations (service-scoped actions under the service's name):
/// * `Add` — body `<Add><MemberEPR>{epr}</MemberEPR><Content>...</Content></Add>`;
///   responds with the entry's EPR.
/// * `Remove` — body `<Remove><EntryKey>k</EntryKey></Remove>`.
/// * `Entries` — lists entry EPRs.
/// * `FindByContent` — body carries an XPath-lite expression; responds
///   with the member EPRs whose content matches.
///
/// Entries are themselves WS-Resources: their `MemberEPR` and content
/// properties are readable through the standard port types, and they
/// can be destroyed/leased via WS-ResourceLifetime (the testbed's NIS
/// uses leases so dead machines age out).
pub fn service_group(
    name: &str,
    address: &str,
    store: Arc<dyn ResourceStore>,
    rule: MembershipContentRule,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let svc = service_group_builder(name, address, store, rule).build(clock, net);
    init_group_resource(&svc);
    svc
}

/// Create the singleton group resource (call once after building a
/// service from [`service_group_builder`]).
pub fn init_group_resource(svc: &Arc<Service>) {
    svc.core()
        .create_resource_with_key(GROUP_KEY, PropertyDoc::new())
        .expect("fresh store cannot already contain the group");
}

/// The group operations as a [`ServiceBuilder`], for services that
/// need to add their own operations on top of group membership (the
/// testbed's Node Info Service adds utilization updates and snapshot
/// queries).
pub fn service_group_builder(
    name: &str,
    address: &str,
    store: Arc<dyn ResourceStore>,
    rule: MembershipContentRule,
) -> ServiceBuilder {
    let rule = Arc::new(rule);
    let rule_add = rule.clone();
    ServiceBuilder::new(name, address, store)
        .static_operation("Add", move |ctx| {
            let member_el = ctx
                .body
                .find_local("MemberEPR")
                .ok_or_else(|| faults::bad_request("Add requires MemberEPR"))?;
            let member = EndpointReference::from_element(member_el)
                .map_err(|e| faults::bad_request(&format!("bad MemberEPR: {e}")))?;
            let content = ctx
                .body
                .find_local("Content")
                .cloned()
                .unwrap_or_else(|| Element::new(ns::WSSG, "Content"));
            rule_add.check(&content)?;

            // Create the entry resource.
            let mut doc = PropertyDoc::new();
            doc.update(
                QName::new(ns::WSSG, "MemberEPR"),
                vec![member.to_element_named(ns::WSSG, "MemberEPR")],
            );
            for prop in content.elements() {
                doc.insert(prop.name.clone(), prop.clone());
            }
            let entry_epr = ctx.core.create_resource(doc)?;
            let entry_key = faults::require_key(&entry_epr, "entry")?;

            // Append to the group's entry list.
            let entry = entry_epr
                .to_element_named(ns::WSSG, "Entry")
                .attr("key", &entry_key);
            ctx.core
                .edit(GROUP_KEY, |group| group.insert(entry_property(), entry))?
                .ok_or_else(|| faults::no_such_resource(GROUP_KEY))?;

            Ok(Element::new(ns::WSSG, "AddResponse").child(entry_epr.to_element()))
        })
        .static_operation("Remove", |ctx| {
            let key = ctx
                .body
                .find_local("EntryKey")
                .map(|e| e.text_content())
                .ok_or_else(|| faults::bad_request("Remove requires EntryKey"))?;
            ctx.core.destroy_resource(&key)?;
            ctx.core
                .edit(GROUP_KEY, |group| {
                    group.remove_value(&entry_property(), |e| e.attr_value("key") == Some(&key))
                })?
                .ok_or_else(|| faults::no_such_resource(GROUP_KEY))?;
            Ok(Element::new(ns::WSSG, "RemoveResponse"))
        })
        .static_operation("Entries", |ctx| {
            let (group, _) = ctx.core.share_live(GROUP_KEY).map_err(faults::from_store)?;
            let entries: Vec<Element> = group.get(&entry_property()).to_vec();
            Ok(Element::new(ns::WSSG, "EntriesResponse").children(entries))
        })
        .static_operation("FindByContent", |ctx| {
            // Body text only — stays DOM-free under lazy dispatch.
            let expr = ctx.body.text();
            let path = wsrf_xml::xpath::Path::parse(&expr)
                .map_err(|e| faults::invalid_query(&e.to_string()))?;
            let mut resp = Element::new(ns::WSSG, "FindByContentResponse");
            // Scan live entries. Dead ones (destroyed by lease expiry)
            // are skipped; their `Entry` stays on the group list.
            let (group, _) = ctx.core.share_live(GROUP_KEY).map_err(faults::from_store)?;
            for entry in group.get(&entry_property()) {
                let Some(key) = entry.attr_value("key") else {
                    continue;
                };
                let Ok((doc, _)) = ctx.core.share_live(key) else {
                    continue;
                };
                let view = doc.to_document(QName::new(ns::WSSG, "Content"));
                if !path.select(&view).is_empty() {
                    if let Some(member) = doc.get(&QName::new(ns::WSSG, "MemberEPR")).first() {
                        if let Ok(epr) = EndpointReference::from_element(member) {
                            resp.push_child(epr.to_element());
                        }
                    }
                }
            }
            Ok(resp)
        })
}

/// The group's own EPR (the singleton resource).
pub fn group_epr(svc: &Service) -> EndpointReference {
    svc.core().epr_for(GROUP_KEY)
}

/// Action URI helper for group operations.
pub fn group_action(service: &str, op: &str) -> String {
    action_uri(service, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use crate::Outbound;
    use wsrf_soap::Envelope;

    fn setup() -> (Arc<Service>, Clock) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = service_group(
            "NodeInfo",
            "inproc://hub/NodeInfo",
            Arc::new(MemoryStore::new()),
            MembershipContentRule::requiring(&["Utilization", "CpuMhz"]),
            clock.clone(),
            net,
        );
        (svc, clock)
    }

    fn invoke(svc: &Arc<Service>, op: &str, body: Element) -> Envelope {
        let to = svc.core().service_epr();
        svc.dispatch(Outbound::new(to, group_action("NodeInfo", op), body).into_envelope())
    }

    fn add_member(svc: &Arc<Service>, addr: &str, util: f64, mhz: u32) -> EndpointReference {
        let member = EndpointReference::service(addr);
        let content = Element::new(ns::WSSG, "Content")
            .child(Element::new(ns::UVACG, "Utilization").text(util.to_string()))
            .child(Element::new(ns::UVACG, "CpuMhz").text(mhz.to_string()));
        let resp = invoke(
            svc,
            "Add",
            Element::new(ns::WSSG, "Add")
                .child(member.to_element_named(ns::WSSG, "MemberEPR"))
                .child(content),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        EndpointReference::from_element(resp.body.find(ns::WSA, "EndpointReference").unwrap())
            .unwrap()
    }

    #[test]
    fn add_and_list_entries() {
        let (svc, _clock) = setup();
        add_member(&svc, "inproc://m1/Proc", 0.2, 3000);
        add_member(&svc, "inproc://m2/Proc", 0.9, 2000);
        let resp = invoke(&svc, "Entries", Element::new(ns::WSSG, "Entries"));
        assert_eq!(resp.body.element_count(), 2);
    }

    #[test]
    fn content_rule_enforced() {
        let (svc, _clock) = setup();
        let member = EndpointReference::service("inproc://m1/Proc");
        let resp = invoke(
            &svc,
            "Add",
            Element::new(ns::WSSG, "Add")
                .child(member.to_element_named(ns::WSSG, "MemberEPR"))
                .child(
                    Element::new(ns::WSSG, "Content")
                        .child(Element::new(ns::UVACG, "Utilization").text("0.5")),
                ),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wssg:ContentCreationFailed")
        );
    }

    #[test]
    fn find_by_content() {
        let (svc, _clock) = setup();
        add_member(&svc, "inproc://fast/Proc", 0.1, 3000);
        add_member(&svc, "inproc://busy/Proc", 0.95, 3000);
        let resp = invoke(
            &svc,
            "FindByContent",
            Element::new(ns::WSSG, "FindByContent").text("/Content[Utilization='0.1']"),
        );
        assert_eq!(resp.body.element_count(), 1);
        let epr = EndpointReference::from_element(resp.body.elements().next().unwrap()).unwrap();
        assert_eq!(epr.address, "inproc://fast/Proc");
    }

    #[test]
    fn remove_prunes_entry_and_resource() {
        let (svc, _clock) = setup();
        let entry = add_member(&svc, "inproc://m1/Proc", 0.2, 3000);
        let key = entry.resource_key().unwrap().to_string();
        let resp = invoke(
            &svc,
            "Remove",
            Element::new(ns::WSSG, "Remove").child(Element::new(ns::WSSG, "EntryKey").text(&key)),
        );
        assert!(!resp.is_fault());
        let resp = invoke(&svc, "Entries", Element::new(ns::WSSG, "Entries"));
        assert_eq!(resp.body.element_count(), 0);
        assert!(!svc.core().store.exists("NodeInfo", &key));
    }

    #[test]
    fn entry_is_a_first_class_resource() {
        let (svc, _clock) = setup();
        let entry = add_member(&svc, "inproc://m1/Proc", 0.25, 2400);
        // Read the entry's content through GetResourceProperty.
        let get = Outbound::new(
            entry,
            crate::porttypes::wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Utilization"),
        );
        let resp = svc.dispatch(get.into_envelope());
        assert_eq!(resp.body.text_content(), "0.25");
    }

    #[test]
    fn lease_expiry_drops_member_from_queries() {
        let (svc, clock) = setup();
        let entry = add_member(&svc, "inproc://m1/Proc", 0.2, 3000);
        let key = entry.resource_key().unwrap().to_string();
        let at = simclock::SimTime::from_secs(30);
        let stored = svc
            .core()
            .edit(&key, |doc| doc.set_termination_time(Some(at)));
        assert!(matches!(stored, Ok(Some(()))));
        svc.core().arm_lease(&key, at);
        clock.advance(std::time::Duration::from_secs(31));
        let resp = invoke(
            &svc,
            "FindByContent",
            Element::new(ns::WSSG, "FindByContent").text("//Utilization"),
        );
        assert_eq!(resp.body.element_count(), 0, "expired member is invisible");
    }

    #[test]
    fn a_member_whose_lease_ends_now_is_not_found_before_its_reaper_runs() {
        let (svc, clock) = setup();
        let entry = add_member(&svc, "inproc://m1/Proc", 0.2, 3000);
        let key = entry.resource_key().unwrap().to_string();
        let stored = svc
            .core()
            .edit(&key, |doc| doc.set_termination_time(Some(clock.now())));
        assert!(matches!(stored, Ok(Some(()))));
        let resp = invoke(
            &svc,
            "FindByContent",
            Element::new(ns::WSSG, "FindByContent").text("//Utilization"),
        );
        assert_eq!(resp.body.element_count(), 0, "the lease has run out");
        assert!(svc.core().store.exists("NodeInfo", &key), "unreaped");
    }

    #[test]
    fn keyless_entry_epr_faults_instead_of_panicking() {
        // Add() extracts the entry resource's key via
        // faults::require_key; keyless EPRs fault rather than panic.
        let keyless = EndpointReference::service("inproc://m1/Registry");
        let fault = faults::require_key(&keyless, "entry").unwrap_err();
        assert_eq!(fault.error_code, "wsrf:BadRequest");
        assert!(fault
            .description
            .contains("entry EPR carries no resource key"));
    }
}
