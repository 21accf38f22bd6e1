//! The Node Info Service (§4.4).
//!
//! "The Node Info service (NIS) is a service group (as defined by
//! WS-ServiceGroups) whose members represent the processors available
//! for scheduling. Each machine in the system runs the Processor
//! Utilization Windows service. This service asynchronously notifies
//! the NIS whenever the utilization of the machine's processors
//! changes by more than a configurable amount. The NIS catalogs this
//! information and delivers it to the Scheduler service upon request."

use std::sync::Arc;

use simclock::Clock;
use wsrf_core::container::{action_uri, OpKind, Service};
use wsrf_core::faults;
use wsrf_core::servicegroup::{
    group_action, init_group_resource, service_group_builder, MembershipContentRule,
};
use wsrf_core::store::ResourceStore;
use wsrf_core::{epr_in, Outbound};
use wsrf_soap::ns::{UVACG, WSSG};
use wsrf_soap::{EndpointReference, SoapFault};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

use crate::policy::NodeSnapshot;

/// Service name used for actions.
pub const NIS_NAME: &str = "NodeInfo";

fn q(local: &str) -> QName {
    QName::new(UVACG, local)
}

/// Build the Node Info Service: a WS-ServiceGroup whose member content
/// carries machine name, hardware characteristics, utilization and
/// service addresses, extended with the utilization-update sink and a
/// snapshot query for the Scheduler.
pub fn node_info_service(
    address: &str,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let rule = MembershipContentRule::requiring(&[
        "Machine",
        "CpuMhz",
        "Cores",
        "RamMb",
        "Utilization",
        "Execution",
        "FileSystem",
    ]);
    let svc = service_group_builder(NIS_NAME, address, store, rule)
        // The Processor Utilization service's one-way updates land
        // here: find the member entry for the machine and update its
        // Utilization content property.
        .raw_operation(
            action_uri(NIS_NAME, "UpdateUtilization"),
            OpKind::Static,
            |ctx| {
                let machine = ctx
                    .body
                    .attr_value("machine")
                    .ok_or_else(|| faults::bad_request("UpdateUtilization requires machine"))?
                    .to_string();
                let utilization = ctx
                    .body
                    .attr_value("utilization")
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| faults::bad_request("UpdateUtilization requires utilization"))?;
                let core = ctx.core.clone();
                for key in core.store.list(&core.name) {
                    let Ok(doc) = core.store.share(&core.name, &key) else {
                        continue;
                    };
                    if doc.text(&q("Machine")).as_deref() == Some(machine.as_str()) {
                        // Staleness marker: virtual time of this
                        // report, so snapshot consumers can tell a
                        // fresh 0.3 from one frozen since deployment.
                        let now = core.clock.now().as_secs_f64();
                        core.edit(&key, |doc| {
                            doc.set_f64(q("Utilization"), utilization);
                            doc.set_f64(q("LastUpdated"), now);
                        })?
                        .ok_or_else(|| faults::no_such_resource(&key))?;
                        return Ok(Element::new(UVACG, "UpdateUtilizationAck"));
                    }
                }
                Err(faults::bad_request(&format!(
                    "no member for machine '{machine}'"
                )))
            },
        )
        // Step 2 of Figure 3: "the Scheduler polls the NIS to get the
        // latest processor utilization ... as well as their hardware
        // characteristics, such as CPU speed and total RAM".
        .raw_operation(action_uri(NIS_NAME, "Snapshot"), OpKind::Static, |ctx| {
            let core = ctx.core.clone();
            let mut resp = Element::new(UVACG, "SnapshotResponse");
            for key in core.store.list(&core.name) {
                if key == wsrf_core::servicegroup::GROUP_KEY {
                    continue;
                }
                let Ok(doc) = core.store.share(&core.name, &key) else {
                    continue;
                };
                let text = |n: &str| doc.text(&q(n)).unwrap_or_default();
                resp.push_child(
                    Element::new(UVACG, "Node")
                        .attr("machine", text("Machine"))
                        .attr("cpuMhz", text("CpuMhz"))
                        .attr("cores", text("Cores"))
                        .attr("ramMb", text("RamMb"))
                        .attr("utilization", text("Utilization"))
                        .attr("updatedAt", text("LastUpdated"))
                        .attr("execution", text("Execution"))
                        .attr("filesystem", text("FileSystem")),
                );
            }
            Ok(resp)
        })
        .build(clock, net);
    init_group_resource(&svc);
    svc
}

/// Register a machine with the NIS (called at deployment; the member
/// EPR is the machine's Execution Service).
#[allow(clippy::too_many_arguments)]
pub fn register_machine(
    net: &InProcNetwork,
    nis_address: &str,
    machine: &str,
    cpu_mhz: u32,
    cores: u32,
    ram_mb: u32,
    execution: &str,
    filesystem: &str,
) -> Result<EndpointReference, SoapFault> {
    let member = EndpointReference::service(execution);
    let content = Element::new(WSSG, "Content")
        .child(Element::with_name(q("Machine")).text(machine))
        .child(Element::with_name(q("CpuMhz")).text(cpu_mhz.to_string()))
        .child(Element::with_name(q("Cores")).text(cores.to_string()))
        .child(Element::with_name(q("RamMb")).text(ram_mb.to_string()))
        .child(Element::with_name(q("Utilization")).text("0"))
        .child(Element::with_name(q("Execution")).text(execution))
        .child(Element::with_name(q("FileSystem")).text(filesystem));
    let body = Element::new(WSSG, "Add")
        .child(member.to_element_named(WSSG, "MemberEPR"))
        .child(content);
    let resp = Outbound::new(
        EndpointReference::service(nis_address),
        group_action(NIS_NAME, "Add"),
        body,
    )
    .call(net)?;
    epr_in(&resp, wsrf_soap::ns::WSA, "EndpointReference")
}

/// One-way utilization report (what each machine's monitor sends).
pub fn report_utilization(
    net: &InProcNetwork,
    nis_address: &str,
    machine: &str,
    utilization: f64,
) -> Result<(), wsrf_transport::TransportError> {
    let body = Element::new(UVACG, "UpdateUtilization")
        .attr("machine", machine)
        .attr("utilization", format!("{utilization}"));
    Outbound::new(
        EndpointReference::service(nis_address),
        action_uri(NIS_NAME, "UpdateUtilization"),
        body,
    )
    .send(net)
}

/// Poll the NIS snapshot (what the Scheduler does before each
/// placement).
pub fn snapshot(net: &InProcNetwork, nis_address: &str) -> Result<Vec<NodeSnapshot>, SoapFault> {
    let resp = Outbound::new(
        EndpointReference::service(nis_address),
        action_uri(NIS_NAME, "Snapshot"),
        Element::new(UVACG, "Snapshot"),
    )
    .call(net)?;
    let mut nodes: Vec<NodeSnapshot> = resp
        .body
        .find_all(UVACG, "Node")
        .filter_map(|n| {
            Some(NodeSnapshot {
                machine: n.attr_value("machine")?.to_string(),
                cpu_mhz: n.attr_value("cpuMhz")?.parse().ok()?,
                cores: n.attr_value("cores")?.parse().ok()?,
                ram_mb: n.attr_value("ramMb")?.parse().ok()?,
                utilization: n.attr_value("utilization")?.parse().ok()?,
                updated_at: n
                    .attr_value("updatedAt")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0),
                execution: n.attr_value("execution")?.to_string(),
                filesystem: n.attr_value("filesystem")?.to_string(),
            })
        })
        .collect();
    nodes.sort_by(|a, b| a.machine.cmp(&b.machine));
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_core::store::MemoryStore;

    const ADDR: &str = "inproc://hub/NodeInfo";

    fn setup() -> (Arc<InProcNetwork>, Arc<Service>) {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let svc = node_info_service(ADDR, Arc::new(MemoryStore::new()), clock, net.clone());
        svc.register(&net);
        (net, svc)
    }

    fn add(net: &InProcNetwork, name: &str, mhz: u32) {
        register_machine(
            net,
            ADDR,
            name,
            mhz,
            1,
            1024,
            &format!("inproc://{name}/Execution"),
            &format!("inproc://{name}/FileSystem"),
        )
        .unwrap();
    }

    #[test]
    fn register_and_snapshot() {
        let (net, _svc) = setup();
        add(&net, "m1", 1000);
        add(&net, "m2", 3000);
        let nodes = snapshot(&net, ADDR).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].machine, "m1");
        assert_eq!(nodes[1].cpu_mhz, 3000);
        assert_eq!(nodes[0].utilization, 0.0);
        assert_eq!(nodes[1].execution, "inproc://m2/Execution");
    }

    #[test]
    fn utilization_updates_flow_into_snapshot() {
        let (net, _svc) = setup();
        add(&net, "m1", 1000);
        add(&net, "m2", 1000);
        net.clock().advance(std::time::Duration::from_secs(10));
        report_utilization(&net, ADDR, "m2", 0.75).unwrap();
        let nodes = snapshot(&net, ADDR).unwrap();
        assert_eq!(nodes[0].utilization, 0.0);
        assert_eq!(nodes[1].utilization, 0.75);
        // The update stamps the report's virtual time; machines that
        // never reported stay at 0.
        assert_eq!(nodes[0].updated_at, 0.0);
        assert_eq!(nodes[1].updated_at, 10.0);
        report_utilization(&net, ADDR, "m2", 0.25).unwrap();
        assert_eq!(snapshot(&net, ADDR).unwrap()[1].utilization, 0.25);
    }

    #[test]
    fn update_for_unknown_machine_is_ignored_gracefully() {
        let (net, _svc) = setup();
        add(&net, "m1", 1000);
        // One-way message; the fault is dropped on the floor but must
        // not corrupt anything.
        report_utilization(&net, ADDR, "ghost", 0.5).unwrap();
        assert_eq!(snapshot(&net, ADDR).unwrap().len(), 1);
    }

    #[test]
    fn members_are_entries_of_the_group() {
        let (net, svc) = setup();
        add(&net, "m1", 1000);
        let resp = Outbound::new(
            svc.core().service_epr(),
            group_action(NIS_NAME, "Entries"),
            Element::new(WSSG, "Entries"),
        )
        .call(&net)
        .unwrap();
        assert_eq!(resp.body.element_count(), 1);
    }

    #[test]
    fn incomplete_registration_rejected_by_content_rule() {
        let (net, _svc) = setup();
        let member = EndpointReference::service("inproc://m1/Execution");
        let content =
            Element::new(WSSG, "Content").child(Element::with_name(q("Machine")).text("m1"));
        let body = Element::new(WSSG, "Add")
            .child(member.to_element_named(WSSG, "MemberEPR"))
            .child(content);
        let fault = Outbound::new(
            EndpointReference::service(ADDR),
            group_action(NIS_NAME, "Add"),
            body,
        )
        .call(&net)
        .unwrap_err();
        assert_eq!(fault.error_code(), Some("wssg:ContentCreationFailed"));
    }
}
