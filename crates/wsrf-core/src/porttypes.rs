//! The standard WSRF port types a service imports — the analogue of
//! WSRF.NET's `[WSRFPortType(typeof(GetResourcePropertyPortType))]`
//! attribute. Installing them gives every service the canonical
//! state-access interface the paper argues for: "Because
//! WS-ResourceProperties defines a small set of interfaces with
//! standard behavior, it is possible to implement tooling to easily
//! use them."

use std::collections::HashMap;

use simclock::SimTime;
use wsrf_soap::{ns, BaseFault};
use wsrf_xml::xpath::Path;
use wsrf_xml::{Element, QName};

use crate::container::{insert_op, Ctx, OpAccess, OpKind};
use crate::faults;

/// The XPath 1.0 dialect URI required by WS-ResourceProperties.
pub const XPATH_DIALECT: &str = "http://www.w3.org/TR/1999/REC-xpath-19991116";

type Ops = HashMap<String, crate::container::Op>;

/// Action URI for a standard WS-ResourceProperties operation.
pub fn wsrp_action(op: &str) -> String {
    format!("{}/{}", ns::WSRP, op)
}

/// Action URI for a standard WS-ResourceLifetime operation.
pub fn wsrl_action(op: &str) -> String {
    format!("{}/{}", ns::WSRL, op)
}

/// Parse a property name written either as Clark notation or as a
/// bare local name.
fn parse_property_name(text: &str) -> QName {
    QName::from_clark(text.trim())
}

fn get_one(ctx: &Ctx<'_>, name: &QName) -> Result<Vec<Element>, BaseFault> {
    let doc = ctx.resource()?;
    let vals = ctx.core.property_values(doc, name);
    if vals.is_empty() && !doc.contains(name) && !ctx.core.has_computed(name) {
        return Err(faults::invalid_property(&name.to_string()));
    }
    Ok(vals)
}

/// Install the WS-ResourceProperties operations into a service's
/// operation table.
pub(crate) fn install_resource_properties(ops: &mut Ops) {
    // GetResourceProperty: body text is the property QName.
    insert_op(
        ops,
        wsrp_action("GetResourceProperty"),
        OpKind::Resource,
        OpAccess::Read,
        Box::new(|ctx| {
            // `BodyRef::text` reads the body text straight off the wire
            // scan on the lazy path — the hottest WS-RP read answers
            // without ever materializing a body DOM.
            let name = parse_property_name(&ctx.body.text());
            let vals = get_one(ctx, &name)?;
            Ok(Element::new(ns::WSRP, "GetResourcePropertyResponse").children(vals))
        }),
    );

    // GetMultipleResourceProperties: <ResourceProperty> children.
    insert_op(
        ops,
        wsrp_action("GetMultipleResourceProperties"),
        OpKind::Resource,
        OpAccess::Read,
        Box::new(|ctx| {
            let names: Vec<QName> = ctx
                .body
                .find_all(ns::WSRP, "ResourceProperty")
                .map(|e| parse_property_name(&e.text_content()))
                .collect();
            if names.is_empty() {
                return Err(faults::bad_request(
                    "GetMultipleResourceProperties requires at least one ResourceProperty",
                ));
            }
            let mut resp = Element::new(ns::WSRP, "GetMultipleResourcePropertiesResponse");
            for name in names {
                for v in get_one(ctx, &name)? {
                    resp.push_child(v);
                }
            }
            Ok(resp)
        }),
    );

    // GetResourcePropertyDocument: the whole view.
    insert_op(
        ops,
        wsrp_action("GetResourcePropertyDocument"),
        OpKind::Resource,
        OpAccess::Read,
        Box::new(|ctx| {
            Ok(
                Element::new(ns::WSRP, "GetResourcePropertyDocumentResponse")
                    .child(ctx.core.property_view(ctx.resource()?)),
            )
        }),
    );

    // QueryResourceProperties: XPath against the property document.
    insert_op(
        ops,
        wsrp_action("QueryResourceProperties"),
        OpKind::Resource,
        OpAccess::Read,
        Box::new(|ctx| {
            let expr_el = ctx
                .body
                .find(ns::WSRP, "QueryExpression")
                .ok_or_else(|| faults::invalid_query("missing QueryExpression"))?;
            let dialect = expr_el.attr_value("Dialect").unwrap_or(XPATH_DIALECT);
            if dialect != XPATH_DIALECT {
                return Err(faults::invalid_query(&format!(
                    "unsupported dialect '{dialect}'"
                )));
            }
            let path = Path::parse(&expr_el.text_content())
                .map_err(|e| faults::invalid_query(&e.to_string()))?;
            let view = ctx.core.property_view(ctx.resource()?);
            let matches: Vec<Element> = path.select(&view).into_iter().cloned().collect();
            Ok(Element::new(ns::WSRP, "QueryResourcePropertiesResponse").children(matches))
        }),
    );

    // SetResourceProperties: Insert / Update / Delete components.
    insert_op(
        ops,
        wsrp_action("SetResourceProperties"),
        OpKind::Resource,
        OpAccess::Write,
        Box::new(|ctx| {
            // Collect the component edits first (ctx.body borrow), then
            // apply them to the resource.
            enum Edit {
                Insert(Element),
                Update(QName, Vec<Element>),
                Delete(QName),
            }
            let mut edits = Vec::new();
            for comp in ctx.body.elements() {
                match comp.name.local.as_str() {
                    "Insert" => {
                        for v in comp.elements() {
                            edits.push(Edit::Insert(v.clone()));
                        }
                    }
                    "Update" => {
                        let mut by_name: Vec<(QName, Vec<Element>)> = Vec::new();
                        for v in comp.elements() {
                            match by_name.iter_mut().find(|(n, _)| *n == v.name) {
                                Some((_, vs)) => vs.push(v.clone()),
                                None => by_name.push((v.name.clone(), vec![v.clone()])),
                            }
                        }
                        for (n, vs) in by_name {
                            edits.push(Edit::Update(n, vs));
                        }
                    }
                    "Delete" => {
                        let name = comp.attr_value("resourceProperty").ok_or_else(|| {
                            faults::bad_request("Delete requires resourceProperty attribute")
                        })?;
                        edits.push(Edit::Delete(parse_property_name(name)));
                    }
                    other => {
                        return Err(faults::bad_request(&format!(
                            "unknown SetResourceProperties component '{other}'"
                        )))
                    }
                }
            }
            let doc = ctx.resource_mut()?;
            let lease = doc.termination_time();
            for e in edits {
                match e {
                    Edit::Insert(v) => doc.insert(v.name.clone(), v),
                    Edit::Update(n, vs) => doc.update(n, vs),
                    Edit::Delete(n) => {
                        // Exact name first, then (like Get*) fall back
                        // to local-name matching.
                        if !doc.delete(&n) && n.ns.is_none() {
                            doc.delete_local(&n.local);
                        }
                    }
                }
            }
            // The lease changes only through WSRL, which arms its reaper.
            if doc.termination_time() != lease {
                return Err(faults::unmodifiable_property("wsrl:TerminationTime"));
            }
            Ok(Element::new(ns::WSRP, "SetResourcePropertiesResponse"))
        }),
    );
}

/// Install the WS-ResourceLifetime operations.
pub(crate) fn install_lifetime(ops: &mut Ops) {
    // Immediate destruction.
    insert_op(
        ops,
        wsrl_action("Destroy"),
        OpKind::Resource,
        OpAccess::Write,
        Box::new(|ctx| {
            let key = ctx.key()?.to_string();
            ctx.core.destroy_resource(&key)?;
            Ok(Element::new(ns::WSRL, "DestroyResponse"))
        }),
    );

    insert_op(
        ops,
        wsrl_action("SetTerminationTime"),
        OpKind::Resource,
        OpAccess::Write,
        Box::new(set_termination_time),
    );
}

/// A lease requested in seconds *from now* (WS-BaseNotification's
/// relative `InitialTerminationTime`, which a directory's create request
/// uses too): a 30 s lease taken at t=100 ends at t=130. Blank text asks
/// for none; `element` names the request's element in the fault.
pub fn relative_lease(
    text: &str,
    now: SimTime,
    element: &str,
) -> Result<Option<SimTime>, BaseFault> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(None);
    }
    match text.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs >= 0.0 => {
            Ok(Some(SimTime::from_secs_f64(now.as_secs_f64() + secs)))
        }
        _ => Err(faults::bad_request(&format!(
            "{element} must be a non-negative number of seconds"
        ))),
    }
}

/// The WSRL `SetTerminationTime` operation: scheduled destruction. The
/// body carries `<RequestedTerminationTime>seconds</>` (virtual seconds
/// since the grid epoch) or an empty element meaning "never". Public so
/// a service that installs its own operation under this action (the
/// Scheduler's, which passes a set's lease on to its directories) runs
/// the standard one first; the save stage arms the lease once stored.
pub fn set_termination_time(ctx: &mut Ctx<'_>) -> Result<Element, BaseFault> {
    let req = ctx
        .body
        .find(ns::WSRL, "RequestedTerminationTime")
        .ok_or_else(|| faults::bad_request("missing RequestedTerminationTime"))?;
    let text = req.text_content();
    let when = if text.trim().is_empty() {
        None
    } else {
        let secs: f64 = text
            .trim()
            .parse()
            .map_err(|_| faults::bad_request("RequestedTerminationTime must be seconds"))?;
        Some(SimTime::from_secs_f64(secs))
    };
    ctx.resource_mut()?.set_termination_time(when);
    let now = ctx.core.clock.now().as_secs_f64();
    Ok(Element::new(ns::WSRL, "SetTerminationTimeResponse")
        .child(Element::new(ns::WSRL, "NewTerminationTime").text(text.trim()))
        .child(Element::new(ns::WSRL, "CurrentTime").text(format!("{now}"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Service, ServiceBuilder};
    use crate::properties::PropertyDoc;
    use crate::store::MemoryStore;
    use crate::Outbound;
    use simclock::Clock;
    use std::sync::Arc;
    use std::time::Duration;
    use wsrf_soap::{EndpointReference, Envelope};
    use wsrf_transport::InProcNetwork;

    const U: &str = ns::UVACG;

    fn q(local: &str) -> QName {
        QName::new(U, local)
    }

    struct Fixture {
        svc: Arc<Service>,
        epr: EndpointReference,
        clock: Clock,
    }

    fn fixture() -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = ServiceBuilder::new("Job", "inproc://m1/Job", Arc::new(MemoryStore::new()))
            .computed_property(q("Uptime"), |_, now| {
                vec![Element::new(U, "Uptime").text(format!("{}", now.as_secs_f64()))]
            })
            .build(clock.clone(), net);
        let mut doc = PropertyDoc::new();
        doc.set_text(q("Status"), "Running");
        doc.set_f64(q("CpuTime"), 1.5);
        let epr = svc.core().create_resource_with_key("job-1", doc).unwrap();
        Fixture { svc, epr, clock }
    }

    fn invoke(f: &Fixture, action: String, body: Element) -> Envelope {
        f.svc
            .dispatch(Outbound::new(f.epr.clone(), action, body).into_envelope())
    }

    #[test]
    fn get_resource_property() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text(format!("{{{U}}}Status")),
        );
        assert!(!resp.is_fault());
        assert_eq!(resp.body.text_content(), "Running");
    }

    #[test]
    fn get_resource_property_by_local_name() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("CpuTime"),
        );
        assert_eq!(resp.body.text_content(), "1.5");
    }

    #[test]
    fn get_unknown_property_faults() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Nope"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrp:InvalidResourcePropertyQName")
        );
    }

    #[test]
    fn get_multiple() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("GetMultipleResourceProperties"),
            Element::new(ns::WSRP, "GetMultipleResourceProperties")
                .child(Element::new(ns::WSRP, "ResourceProperty").text("Status"))
                .child(Element::new(ns::WSRP, "ResourceProperty").text("CpuTime")),
        );
        assert_eq!(resp.body.element_count(), 2);
    }

    #[test]
    fn get_multiple_requires_names() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("GetMultipleResourceProperties"),
            Element::new(ns::WSRP, "GetMultipleResourceProperties"),
        );
        assert!(resp.is_fault());
    }

    #[test]
    fn computed_property_visible_through_get_and_document() {
        let f = fixture();
        f.clock.advance(Duration::from_secs(30));
        let resp = invoke(
            &f,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Uptime"),
        );
        assert_eq!(resp.body.text_content(), "30");

        let resp = invoke(
            &f,
            wsrp_action("GetResourcePropertyDocument"),
            Element::new(ns::WSRP, "GetResourcePropertyDocument"),
        );
        let doc = resp.body.elements().next().unwrap();
        let names: Vec<&str> = doc.elements().map(|e| e.name.local.as_str()).collect();
        assert_eq!(names, ["Status", "CpuTime", "Uptime"]);
    }

    #[test]
    fn query_resource_properties() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("QueryResourceProperties"),
            Element::new(ns::WSRP, "QueryResourceProperties").child(
                Element::new(ns::WSRP, "QueryExpression")
                    .attr("Dialect", XPATH_DIALECT)
                    .text("/ResourcePropertyDocument[Status='Running']/CpuTime"),
            ),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        assert_eq!(resp.body.text_content(), "1.5");
    }

    #[test]
    fn query_rejects_unknown_dialect() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("QueryResourceProperties"),
            Element::new(ns::WSRP, "QueryResourceProperties").child(
                Element::new(ns::WSRP, "QueryExpression")
                    .attr("Dialect", "urn:xquery")
                    .text("/x"),
            ),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrp:InvalidQueryExpression")
        );
    }

    #[test]
    fn set_resource_properties_insert_update_delete() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrp_action("SetResourceProperties"),
            Element::new(ns::WSRP, "SetResourceProperties")
                .child(
                    Element::new(ns::WSRP, "Insert")
                        .child(Element::new(U, "Tag").text("alpha"))
                        .child(Element::new(U, "Tag").text("beta")),
                )
                .child(
                    Element::new(ns::WSRP, "Update")
                        .child(Element::new(U, "Status").text("Exited")),
                )
                .child(
                    Element::new(ns::WSRP, "Delete")
                        .attr("resourceProperty", format!("{{{U}}}CpuTime")),
                ),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        let doc = f.svc.core().store.load("Job", "job-1").unwrap();
        assert_eq!(doc.get(&q("Tag")).len(), 2);
        assert_eq!(doc.text(&q("Status")).unwrap(), "Exited");
        assert!(!doc.contains(&q("CpuTime")));
    }

    #[test]
    fn destroy_removes_resource() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrl_action("Destroy"),
            Element::new(ns::WSRL, "Destroy"),
        );
        assert!(!resp.is_fault());
        assert!(!f.svc.core().store.exists("Job", "job-1"));
        // Second destroy faults.
        let resp = invoke(
            &f,
            wsrl_action("Destroy"),
            Element::new(ns::WSRL, "Destroy"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:NoSuchResource")
        );
    }

    #[test]
    fn set_termination_time_lifecycle() {
        let f = fixture();
        let resp = invoke(
            &f,
            wsrl_action("SetTerminationTime"),
            Element::new(ns::WSRL, "SetTerminationTime")
                .child(Element::new(ns::WSRL, "RequestedTerminationTime").text("60")),
        );
        assert!(!resp.is_fault(), "{:?}", resp.fault());
        assert!(resp.body.find(ns::WSRL, "CurrentTime").is_some());
        // TerminationTime became a queryable property.
        let doc = f.svc.core().store.load("Job", "job-1").unwrap();
        assert_eq!(
            doc.f64(&QName::new(ns::WSRL, "TerminationTime")).unwrap(),
            60.0
        );
        f.clock.advance(Duration::from_secs(61));
        assert!(!f.svc.core().store.exists("Job", "job-1"));
    }

    #[test]
    fn empty_termination_time_cancels() {
        let f = fixture();
        invoke(
            &f,
            wsrl_action("SetTerminationTime"),
            Element::new(ns::WSRL, "SetTerminationTime")
                .child(Element::new(ns::WSRL, "RequestedTerminationTime").text("60")),
        );
        invoke(
            &f,
            wsrl_action("SetTerminationTime"),
            Element::new(ns::WSRL, "SetTerminationTime")
                .child(Element::new(ns::WSRL, "RequestedTerminationTime")),
        );
        f.clock.advance(Duration::from_secs(120));
        assert!(f.svc.core().store.exists("Job", "job-1"));
    }

    fn set_termination_time(f: &Fixture, secs: &str) -> Envelope {
        invoke(
            f,
            wsrl_action("SetTerminationTime"),
            Element::new(ns::WSRL, "SetTerminationTime")
                .child(Element::new(ns::WSRL, "RequestedTerminationTime").text(secs)),
        )
    }

    #[test]
    fn a_lease_set_to_now_ends_the_resource_before_any_advance() {
        let f = fixture();
        f.clock.advance(Duration::from_secs(5));
        assert!(!set_termination_time(&f, "5").is_fault());
        let resp = invoke(
            &f,
            wsrp_action("GetResourceProperty"),
            Element::new(ns::WSRP, "GetResourceProperty").text("Status"),
        );
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:NoSuchResource")
        );
    }

    #[test]
    fn a_lease_the_store_refused_destroys_nothing() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let store = Arc::new(crate::store::StructuredStore::new());
        // No column for the lease: every save of one is refused.
        store.define_schema("Job", vec![(q("Status"), crate::store::ColumnType::Text)]);
        let svc = ServiceBuilder::new("Job", "inproc://m1/Job", store).build(clock.clone(), net);
        let mut doc = PropertyDoc::new();
        doc.set_text(q("Status"), "Running");
        let epr = svc.core().create_resource_with_key("job-1", doc).unwrap();
        let f = Fixture { svc, epr, clock };
        let resp = set_termination_time(&f, "60");
        assert_eq!(
            resp.fault().unwrap().error_code(),
            Some("wsrf:StorageFault")
        );
        f.clock.advance(Duration::from_secs(61));
        assert!(f.svc.core().store.exists("Job", "job-1"));
    }

    #[test]
    fn set_resource_properties_may_not_change_the_lease() {
        let f = fixture();
        let row = || f.svc.core().store.share("Job", "job-1").unwrap();
        let refused = |component: Element| {
            let before = row();
            let resp = invoke(
                &f,
                wsrp_action("SetResourceProperties"),
                Element::new(ns::WSRP, "SetResourceProperties").child(component),
            );
            assert_eq!(
                resp.fault().unwrap().error_code(),
                Some("wsrp:UnableToModifyResourceProperty")
            );
            assert!(Arc::ptr_eq(&before, &row()), "the row is untouched");
        };
        let lease = || Element::new(ns::WSRL, "TerminationTime").text("6000");
        refused(Element::new(ns::WSRP, "Insert").child(lease()));
        assert!(!set_termination_time(&f, "60").is_fault());
        refused(Element::new(ns::WSRP, "Update").child(lease()));
        refused(Element::new(ns::WSRP, "Delete").attr("resourceProperty", "TerminationTime"));
        f.clock.advance(Duration::from_secs(61));
        assert!(!f.svc.core().store.exists("Job", "job-1"));
    }
}
