//! Whole-campus assembly: deploy every service of Figure 3 in one
//! call.

use std::sync::Arc;

use grid_node::{Machine, MachineSpec, ProcSpawn};
use simclock::Clock;
use ws_notification::broker::notification_broker;
use wsrf_core::container::Service;
use wsrf_core::store::MemoryStore;
use wsrf_obs::{MetricsRegistry, MetricsSnapshot, ObsConfig, TraceConfig};
use wsrf_soap::EndpointReference;
use wsrf_transport::{InProcNetwork, NetConfig};

use crate::client::Client;
use crate::es::{execution_service, EsConfig};
use crate::fss::file_system_service;
use crate::monitor::{monitor_service, EventPump};
use crate::nis::{self, node_info_service};
use crate::policy::{FastestAvailable, SchedulingPolicy};
use crate::scheduler::{scheduler_service, Scheduler, SchedulerConfig};
use crate::security::GridSecurity;
use wsrf_core::store::ResourceStore;

/// Campus deployment configuration.
pub struct GridConfig {
    /// The machines to boot.
    pub machines: Vec<MachineSpec>,
    /// Network cost model.
    pub net: NetConfig,
    /// Scheduler placement policy.
    pub policy: Arc<dyn SchedulingPolicy>,
    /// Encrypt credentials end to end (WS-Security headers)?
    pub secure: bool,
    /// Utilization-monitor reporting threshold ("changes by more than
    /// a configurable amount").
    pub utilization_delta: f64,
    /// Seed for the PKI.
    pub seed: u64,
    /// Per-job watchdog timeout (virtual time); see
    /// [`crate::scheduler::SchedulerConfig::job_timeout`].
    pub job_timeout: Option<std::time::Duration>,
    /// Observability switch; enabled grids record dispatch, transport,
    /// broker and scheduler metrics into [`CampusGrid::metrics`].
    pub obs: ObsConfig,
    /// Distributed-tracing switch (default off, like sampling-off
    /// profilers); enabled grids stamp trace contexts onto SOAP headers
    /// and collect per-submission span trees.
    pub trace: TraceConfig,
    /// Scheduler state backend (None = a fresh in-memory store). Pass
    /// a [`wsrf_core::DurableStore`] to make job-set state survive a
    /// scheduler crash.
    pub scheduler_store: Option<Arc<dyn ResourceStore>>,
    /// Keep a submission record for every unfinished job set in the
    /// scheduler's store, so [`CampusGrid::take_over_scheduler`] can
    /// carry on after a crash (see
    /// [`crate::scheduler::SchedulerConfig::replicate`]).
    pub replicate: bool,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            machines: Vec::new(),
            net: NetConfig::default(),
            policy: Arc::new(FastestAvailable),
            secure: false,
            utilization_delta: 0.1,
            seed: 0xCA11_AB1E,
            job_timeout: None,
            obs: ObsConfig::enabled(),
            trace: TraceConfig::disabled(),
            scheduler_store: None,
            replicate: false,
        }
    }
}

impl GridConfig {
    /// `n` heterogeneous lab machines: speeds cycle through 1.0, 1.5,
    /// 2.0, 3.0 GHz with 1–2 cores, all with the default grid account.
    pub fn with_machines(n: usize) -> Self {
        let speeds = [1000u32, 1500, 2000, 3000];
        let machines = (0..n)
            .map(|i| {
                MachineSpec::new(format!("machine{:02}", i + 1))
                    .with_cpu_mhz(speeds[i % speeds.len()])
                    .with_cores(1 + (i % 2) as u32)
                    .with_ram_mb(512 * (1 + (i % 4) as u32))
            })
            .collect();
        GridConfig {
            machines,
            ..GridConfig::default()
        }
    }

    /// Builder: enable WS-Security credential encryption.
    pub fn secure(mut self) -> Self {
        self.secure = true;
        self
    }

    /// Builder: set the placement policy.
    pub fn with_policy(mut self, policy: Arc<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: set the network cost model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Builder: arm the per-job watchdog.
    pub fn with_job_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Builder: degrade the link to one machine — every message to
    /// `authority` pays `latency` regardless of size. The fault E6b
    /// injects: the NIS still advertises the machine's full speed, so
    /// only observed behaviour can reveal the slow uplink.
    pub fn with_slow_authority(mut self, authority: &str, latency: std::time::Duration) -> Self {
        self.net.per_authority.insert(
            authority.to_ascii_lowercase(),
            wsrf_transport::LinkProfile {
                latency,
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
        );
        self
    }

    /// Builder: set the observability switch (the `benchmark/` ledger's
    /// `obs.cost_us_per_op` measures the disabled configuration against
    /// the default enabled one).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Builder: enable distributed tracing. Every SOAP message then
    /// carries a `{UVACG}TraceContext` header and each submission's
    /// span tree is queryable through the job set's `Trace` resource
    /// property.
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: back the scheduler's job-set resources with `store`
    /// (e.g. a [`wsrf_core::DurableStore`] over a WAL directory).
    pub fn with_scheduler_store(mut self, store: Arc<dyn ResourceStore>) -> Self {
        self.scheduler_store = Some(store);
        self
    }

    /// Builder: turn on the scheduler's submission records, which
    /// [`CampusGrid::take_over_scheduler`] reads after a crash.
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }
}

/// A fully deployed campus grid.
pub struct CampusGrid {
    /// The shared virtual clock.
    pub clock: Clock,
    /// The simulated campus network.
    pub net: Arc<InProcNetwork>,
    /// The booted machines (same order as the config).
    pub machines: Vec<Arc<Machine>>,
    /// The Scheduler (service + its listener).
    pub scheduler: Scheduler,
    /// The broker's EPR.
    pub broker: EndpointReference,
    /// The Node Info Service address.
    pub nis_address: String,
    /// The campus PKI when `secure` was set.
    pub security: Option<Arc<GridSecurity>>,
    /// Deployment-wide metrics registry; every service, the network
    /// and the broker record into it (disabled via
    /// [`GridConfig::with_obs`]).
    pub metrics: Arc<MetricsRegistry>,
    /// Keeps every deployed service alive.
    services: Vec<Arc<Service>>,
    /// The monitoring-plane WSRF service: `{UVACG}EventLog` and
    /// `{UVACG}Health` computed RPs on the well-known `monitor`
    /// resource (kept out of `services` so Figure 3 service counts
    /// stay what the paper describes).
    monitor: Arc<Service>,
    /// Bridges the registry's event rings onto the `monitor/events`
    /// notification topic. Not started automatically — flush with
    /// [`CampusGrid::pump_events`] or schedule via [`EventPump::start`]
    /// so message-count assertions elsewhere stay undisturbed.
    event_pump: Arc<EventPump>,
    /// The primary scheduler's configuration, which
    /// [`CampusGrid::take_over_scheduler`] builds its successor from.
    scheduler_config: SchedulerConfig,
}

/// Well-known hub addresses.
pub const BROKER_ADDRESS: &str = "inproc://hub/Broker";
/// Node Info Service address.
pub const NIS_ADDRESS: &str = "inproc://hub/NodeInfo";
/// Scheduler address.
pub const SCHEDULER_ADDRESS: &str = "inproc://hub/Scheduler";
/// Scheduler subject name in the PKI.
pub const SCHEDULER_SUBJECT: &str = "scheduler";
/// The primary scheduler's listener address.
pub const SCHEDULER_LISTENER_ADDRESS: &str = "inproc://hub/SchedulerListener";
/// Monitor service address (EventLog/Health RPs).
pub const MONITOR_ADDRESS: &str = "inproc://hub/Monitor";
/// The listener address of a scheduler that took over from a crashed
/// primary (whose broker subscriptions still target the old one).
pub const STANDBY_LISTENER_ADDRESS: &str = "inproc://hub/StandbyListener";

impl CampusGrid {
    /// Deploy the whole testbed on `clock`.
    pub fn build(config: GridConfig, clock: Clock) -> CampusGrid {
        let metrics = MetricsRegistry::with_tracing(config.obs, config.trace);
        // Services built on this network inherit the registry.
        let net = InProcNetwork::with_metrics(clock.clone(), config.net.clone(), &metrics);
        let mut services = Vec::new();

        // Campus PKI.
        let security = config.secure.then(|| {
            let sec = GridSecurity::new(config.seed);
            sec.enroll(SCHEDULER_SUBJECT);
            for m in &config.machines {
                sec.enroll(&format!("es@{}", m.name));
            }
            sec
        });

        // Notification Broker.
        let broker_svc = notification_broker(
            "Broker",
            BROKER_ADDRESS,
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        broker_svc.register(&net);
        let broker = broker_svc.core().service_epr();
        services.push(broker_svc);

        // Node Info Service.
        let nis_svc = node_info_service(
            NIS_ADDRESS,
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        nis_svc.register(&net);
        services.push(nis_svc);

        // Machines: FSS + ES + ProcSpawn + utilization monitor.
        let mut machines = Vec::new();
        for spec in &config.machines {
            let machine = Machine::new(spec.clone(), clock.clone());
            let name = &spec.name;
            let fss_address = format!("inproc://{name}/FileSystem");
            let es_address = format!("inproc://{name}/Execution");

            let fss = file_system_service(
                name,
                machine.fs.clone(),
                Arc::new(MemoryStore::new()),
                clock.clone(),
                net.clone(),
            );
            fss.register(&net);
            services.push(fss);

            let spawner = Arc::new(ProcSpawn::new(machine.clone()));
            let es = execution_service(
                EsConfig {
                    machine: machine.clone(),
                    spawner,
                    fss_address: fss_address.clone(),
                    broker: Some(broker.clone()),
                    security: security.as_ref().map(|s| (s.clone(), format!("es@{name}"))),
                    store: Arc::new(MemoryStore::new()),
                },
                clock.clone(),
                net.clone(),
            );
            es.register(&net);
            services.push(es);

            nis::register_machine(
                &net,
                NIS_ADDRESS,
                name,
                spec.cpu_mhz,
                spec.cores,
                spec.ram_mb,
                &es_address,
                &fss_address,
            )
            .expect("NIS registration cannot fail on a fresh grid");

            // The Processor Utilization "Windows service": one-way
            // reports to the NIS on threshold crossings.
            let net_for_monitor = net.clone();
            let machine_name = name.clone();
            machine.monitor_utilization(config.utilization_delta, move |u| {
                // Nobody to tell: a failed report leaves an
                // `OutboundFailed` event.
                let _ = nis::report_utilization(&net_for_monitor, NIS_ADDRESS, &machine_name, u);
            });

            machines.push(machine);
        }

        // Scheduler.
        let scheduler_config = SchedulerConfig {
            nis_address: NIS_ADDRESS.to_string(),
            broker: broker.clone(),
            policy: config.policy,
            security: security
                .as_ref()
                .map(|s| (s.clone(), SCHEDULER_SUBJECT.to_string())),
            store: config
                .scheduler_store
                .unwrap_or_else(|| Arc::new(MemoryStore::new())),
            listener_address: SCHEDULER_LISTENER_ADDRESS.to_string(),
            job_timeout: config.job_timeout,
            replicate: config.replicate,
        };
        let scheduler = scheduler_service(
            SCHEDULER_ADDRESS,
            scheduler_config.clone(),
            clock.clone(),
            net.clone(),
        );
        scheduler.register(&net);

        // Monitoring plane: the EventLog/Health RP service and the
        // pump that streams events onto the `monitor/events` topic.
        let monitor = monitor_service(
            MONITOR_ADDRESS,
            &metrics,
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        monitor.register(&net);
        let event_pump = EventPump::new(net.clone(), metrics.clone(), broker.clone(), "campus");

        CampusGrid {
            clock,
            net,
            machines,
            scheduler,
            broker,
            nis_address: NIS_ADDRESS.to_string(),
            security,
            metrics,
            services,
            monitor,
            event_pump,
            scheduler_config,
        }
    }

    /// Call after the primary crashed: build and register a scheduler
    /// at [`SCHEDULER_ADDRESS`] that takes over every unfinished set the
    /// primary recorded (requires [`GridConfig::with_replication`]). Its
    /// listener is at [`STANDBY_LISTENER_ADDRESS`]. `store` is the store
    /// it reads (e.g. a [`wsrf_core::DurableStore`] reopened from the
    /// primary's WAL directory); None shares the primary's store.
    ///
    /// # Panics
    ///
    /// On a grid built without [`GridConfig::with_replication`]: its
    /// scheduler keeps no submission records to take over from.
    pub fn take_over_scheduler(&self, store: Option<Arc<dyn ResourceStore>>) -> Scheduler {
        let mut cfg = self.scheduler_config.clone();
        assert!(
            cfg.replicate,
            "take_over_scheduler without with_replication"
        );
        if let Some(store) = store {
            cfg.store = store;
        }
        cfg.listener_address = STANDBY_LISTENER_ADDRESS.to_string();
        scheduler_service(SCHEDULER_ADDRESS, cfg, self.clock.clone(), self.net.clone())
    }

    /// A point-in-time snapshot of every metric in the deployment.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// EPR of the monitor resource carrying the `{UVACG}EventLog` and
    /// `{UVACG}Health` computed properties.
    pub fn monitor_epr(&self) -> EndpointReference {
        self.monitor.core().epr_for(crate::monitor::MONITOR_KEY)
    }

    /// The pump bridging this grid's event log onto the
    /// `monitor/events` topic (start it, or flush manually).
    pub fn event_pump(&self) -> &Arc<EventPump> {
        &self.event_pump
    }

    /// Flush pending structured events onto the `monitor/events`
    /// topic; returns how many were published.
    pub fn pump_events(&self) -> usize {
        self.event_pump.flush()
    }

    /// A new client workstation attached to this grid.
    pub fn client(&self, id: &str) -> Client {
        Client::new(
            id,
            self.net.clone(),
            self.clock.clone(),
            self.scheduler.epr(),
            self.security
                .as_ref()
                .map(|s| (s.clone(), SCHEDULER_SUBJECT.to_string())),
        )
    }

    /// Machine lookup by name.
    pub fn machine(&self, name: &str) -> Option<&Arc<Machine>> {
        self.machines.iter().find(|m| m.spec.name == name)
    }

    /// Number of deployed services (diagnostics).
    pub fn service_count(&self) -> usize {
        self.services.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobSetOutcome;
    use crate::jobset::{FileRef, JobSetSpec, JobSpec};
    use grid_node::JobProgram;
    use std::time::Duration;

    fn two_machine_grid() -> CampusGrid {
        CampusGrid::build(GridConfig::with_machines(2), Clock::manual())
    }

    #[test]
    fn grid_builds_and_registers_everything() {
        let grid = two_machine_grid();
        // broker + nis + 2×(fss+es) + scheduler is registered
        // separately; services vec holds broker, nis, fss/es pairs.
        assert_eq!(grid.service_count(), 6);
        let nodes = nis::snapshot(&grid.net, &grid.nis_address).unwrap();
        assert_eq!(nodes.len(), 2);
        assert!(grid.machine("machine01").is_some());
        assert!(grid.machine("nope").is_none());
    }

    #[test]
    fn single_job_set_runs_end_to_end() {
        let grid = two_machine_grid();
        let client = grid.client("client-1");
        client.put_file(
            "C:\\prog.exe",
            JobProgram::compute(2.0)
                .writing("result.dat", 100)
                .to_manifest(),
        );
        let spec = JobSetSpec::new("solo").job(
            JobSpec::new("job1", FileRef::parse("local://C:\\prog.exe").unwrap())
                .output("result.dat"),
        );
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        assert!(handle.outcome().is_none(), "still running");
        grid.clock.advance(Duration::from_secs(10));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
        assert_eq!(handle.status().unwrap(), "Completed");
        let out = handle.fetch_output("job1", "result.dat").unwrap();
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn dependent_jobs_flow_outputs_between_machines() {
        let grid = two_machine_grid();
        let client = grid.client("client-1");
        client.put_file(
            "C:\\stage1.exe",
            JobProgram::compute(1.0)
                .writing("output2", 64)
                .to_manifest(),
        );
        client.put_file(
            "C:\\stage2.exe",
            JobProgram::compute(1.0)
                .reading("input.dat")
                .writing("final.dat", 32)
                .to_manifest(),
        );
        let spec = JobSetSpec::new("pipeline")
            .job(
                JobSpec::new("job1", FileRef::parse("local://C:\\stage1.exe").unwrap())
                    .output("output2"),
            )
            .job(
                JobSpec::new("job2", FileRef::parse("local://C:\\stage2.exe").unwrap())
                    .input(FileRef::parse("job1://output2").unwrap(), "input.dat"),
            );
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(60));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
        // job2 really consumed job1's output (exit would be 66 if the
        // input were missing) and produced its own.
        assert_eq!(handle.fetch_output("job2", "final.dat").unwrap().len(), 32);
    }

    #[test]
    fn failing_job_fails_the_set_with_fault_chain() {
        let grid = two_machine_grid();
        let client = grid.client("client-1");
        client.put_file(
            "C:\\bad.exe",
            JobProgram::compute(1.0).exiting(3).to_manifest(),
        );
        client.put_file("C:\\never.exe", JobProgram::compute(1.0).to_manifest());
        let spec = JobSetSpec::new("doomed")
            .job(JobSpec::new("bad", FileRef::parse("local://C:\\bad.exe").unwrap()).output("o"))
            .job(
                JobSpec::new("never", FileRef::parse("local://C:\\never.exe").unwrap())
                    .input(FileRef::parse("bad://o").unwrap(), "i"),
            );
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(60));
        match handle.outcome().unwrap() {
            JobSetOutcome::Failed(fault) => {
                assert_eq!(fault.error_code, "uvacg:JobSetFailed");
                assert!(fault.root_cause().description.contains("code 3"), "{fault}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // The dependent job never ran.
        let states = grid
            .scheduler
            .job_states(handle.jobset.resource_key().unwrap());
        let states = states.unwrap();
        let never = states.iter().find(|(n, _, _)| n == "never").unwrap();
        assert_eq!(never.1, "Waiting");
        assert_eq!(handle.status().unwrap(), "Failed");
    }

    #[test]
    fn secure_grid_runs_with_encrypted_credentials() {
        let grid = CampusGrid::build(GridConfig::with_machines(2).secure(), Clock::manual());
        let client = grid.client("client-1");
        client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
        let spec = JobSetSpec::new("secure").job(JobSpec::new(
            "j",
            FileRef::parse("local://C:\\p.exe").unwrap(),
        ));
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(30));
        assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    }

    #[test]
    fn secure_grid_rejects_wrong_password() {
        let grid = CampusGrid::build(GridConfig::with_machines(1).secure(), Clock::manual());
        let client = grid.client("client-1");
        client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
        let spec = JobSetSpec::new("s").job(JobSpec::new(
            "j",
            FileRef::parse("local://C:\\p.exe").unwrap(),
        ));
        let handle = client.submit(&spec, "griduser", "WRONG").unwrap();
        grid.clock.advance(Duration::from_secs(30));
        match handle.outcome().unwrap() {
            JobSetOutcome::Failed(fault) => {
                assert_eq!(
                    fault.root_cause().error_code,
                    "uvacg:BadCredentials",
                    "{fault}"
                );
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn scheduler_spreads_parallel_jobs_by_utilization() {
        // Identical machines so the only signal is utilization.
        let grid = CampusGrid::build(
            GridConfig {
                machines: vec![MachineSpec::new("alpha"), MachineSpec::new("beta")],
                ..GridConfig::default()
            },
            Clock::manual(),
        );
        let client = grid.client("client-1");
        client.put_file("C:\\p.exe", JobProgram::compute(50.0).to_manifest());
        let mut spec = JobSetSpec::new("parallel");
        for i in 0..2 {
            spec = spec.job(JobSpec::new(
                format!("j{i}"),
                FileRef::parse("local://C:\\p.exe").unwrap(),
            ));
        }
        let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
        grid.clock.advance(Duration::from_secs(1));
        // Both machines should have picked up one job each: the first
        // dispatch raised machine utilization (monitor -> NIS), so the
        // policy chose the other machine next.
        let busy: Vec<f64> = grid.machines.iter().map(|m| m.utilization()).collect();
        assert!(busy.iter().all(|&u| u > 0.0), "load spread: {busy:?}");
        let _ = handle;
    }
}
