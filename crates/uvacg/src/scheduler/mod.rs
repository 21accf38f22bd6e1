//! The Scheduler Service (§4.5) — "the heart of the remote job
//! execution testbed because it coordinates the activities of the
//! other grid components".
//!
//! Its WS-Resources are **job sets**. On submission it generates a
//! unique notification topic for the set, subscribes both itself and
//! the client's listener at the broker, and then drives the run: for
//! every job whose dependencies are satisfied it polls the Node Info
//! Service, picks a machine with the configured policy ("a
//! straightforward algorithm chooses the fastest, most available
//! machine"), and invokes `Run` on that machine's Execution Service.
//! As working-directory EPRs come back it "fills in" the locations of
//! files produced by earlier jobs into the upload requests of later
//! ones; job-exit notifications trigger the next wave of dispatches.
//!
//! What a set makes on its way — the two subscriptions and each job's
//! working directory — is leased for [`crate::TERMINAL_RETENTION`] in
//! the request that creates it. While the set runs, one renewal timer
//! extends those leases every half lease; once it has ended they run
//! out with the set's own retention, which ends no later than they do.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simclock::{Clock, SimTime};
use ws_notification::broker;
use ws_notification::consumer::NotificationListener;
use ws_notification::message::NotificationMessage;
use ws_notification::topics::{TopicExpression, TopicPath};
use wsrf_core::container::{action_uri, Ctx, OpKind, Service, ServiceBuilder, ServiceCore};
use wsrf_core::faults;
use wsrf_core::porttypes::{self, wsrl_action};
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_core::{epr_in, Outbound, ResourceProxy};
use wsrf_obs::{EventKind, Severity, SpanContext, TraceSnapshot};
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::Element;

use crate::es::{self, RunRequest};
use crate::job::{JobEvent, SetEnd, SetEvent};
use crate::jobset::{FileRef, JobSetSpec, JobSpec};
use crate::policy::{MachineOutcome, OutcomeKind, SchedulingPolicy};
use crate::q;
use crate::security::{open_credentials, GridSecurity};
use crate::TERMINAL_RETENTION;

mod run;
use run::{Change, JobRun, JobState, RunState};

/// The job-set key reference property (Clark form).
pub fn jobset_key_property() -> String {
    format!("{{{UVACG}}}JobSetKey")
}

/// Well-known resource key of the scheduler's feedback table. The
/// resource carries one `{UVACG}MachinePenalty` property per machine
/// the policy has observed (attributes `machine`, `penalty`, `ewmaNs`,
/// `observations`, `failures`), refreshed after every reported
/// outcome. Empty for feedback-less policies.
pub const FEEDBACK_KEY: &str = "feedback";

/// Job-set status values exposed through the `Status` property.
pub mod set_status {
    /// Jobs are being dispatched / running.
    pub const RUNNING: &str = "Running";
    /// Every job exited successfully.
    pub const COMPLETED: &str = "Completed";
    /// A job failed; dependents were not dispatched.
    pub const FAILED: &str = "Failed";
}

/// Scheduler deployment configuration.
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Node Info Service address.
    pub nis_address: String,
    /// The broker all job events flow through.
    pub broker: EndpointReference,
    /// Placement policy.
    pub policy: Arc<dyn SchedulingPolicy>,
    /// Campus PKI + the scheduler's subject; when set, submissions must
    /// carry a UsernameToken encrypted to the scheduler, which is
    /// re-encrypted per chosen Execution Service (subject `es@<machine>`).
    pub security: Option<(Arc<GridSecurity>, String)>,
    /// Resource state backend.
    pub store: Arc<dyn ResourceStore>,
    /// Address for the scheduler's own notification listener.
    pub listener_address: String,
    /// Watchdog: fail a job set if a dispatched job has not finished
    /// within this much virtual time (None = wait forever, like the
    /// paper, which has no fault-tolerance story). An extension for
    /// crashed machines, which never send their exit notification.
    pub job_timeout: Option<std::time::Duration>,
    /// Keep a submission record for every unfinished set in the store,
    /// and take over the sets recorded there when built: a scheduler
    /// built over a crashed primary's store with this set carries on
    /// where the primary stopped. Off by default: the record costs a
    /// store write per submission and a delete per finished set, and
    /// sends no message.
    pub replicate: bool,
}

struct SchedInner {
    /// Live job sets only: an entry is dropped when its set reaches a
    /// terminal state (the job-set resource keeps the outcome).
    runs: Mutex<HashMap<String, RunState>>,
    nis_address: String,
    broker: EndpointReference,
    policy: Arc<dyn SchedulingPolicy>,
    security: Option<(Arc<GridSecurity>, String)>,
    job_timeout: Option<std::time::Duration>,
    replicate: bool,
    /// Whether the one renewal timer is armed ([`arm_renewal`]).
    renewal_armed: Mutex<bool>,
    /// Set by [`Scheduler::crash`]: a crashed scheduler ignores every
    /// event, timer and dispatch opportunity from then on.
    crashed: AtomicBool,
    /// Invoked after every recorded Figure 3 step; the chaos harness
    /// uses it to crash the primary at an exact protocol point.
    step_hook: RwLock<Option<Arc<dyn Fn(u8, &str) + Send + Sync>>>,
}

impl SchedInner {
    fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }
}

/// What every step of driving a job set needs: the scheduler's service
/// core and its private state.
#[derive(Clone, Copy)]
struct Sched<'a> {
    core: &'a Arc<ServiceCore>,
    inner: &'a Arc<SchedInner>,
}

/// The deployed Scheduler: its WSRF service plus its notification
/// listener. Cheap to clone (shared handles).
#[derive(Clone)]
pub struct Scheduler {
    /// The WSRF service (resources = job sets).
    pub service: Arc<Service>,
    /// The scheduler's own notification listener.
    pub listener: NotificationListener,
    inner: Arc<SchedInner>,
}

impl Scheduler {
    /// Register the scheduler service on the network (the listener is
    /// registered at construction, and so is a replicating scheduler's
    /// service, before it takes over what its store records).
    pub fn register(&self, net: &InProcNetwork) {
        self.service.register(net);
    }

    /// The scheduler service's EPR.
    pub fn epr(&self) -> EndpointReference {
        self.service.core().service_epr()
    }

    /// EPR of the feedback-table resource (its `MachinePenalty`
    /// properties mirror the policy's [`crate::policy::PenaltyRow`]s).
    pub fn feedback_epr(&self) -> EndpointReference {
        self.service.core().epr_for(FEEDBACK_KEY)
    }

    /// Install a hook invoked after every recorded Figure 3 step with
    /// `(step, job)`. The chaos harness uses it to crash the primary at
    /// an exact point in the submission protocol.
    pub fn set_step_hook(&self, f: impl Fn(u8, &str) + Send + Sync + 'static) {
        *self.inner.step_hook.write() = Some(Arc::new(f));
    }

    /// Simulate a process crash: the scheduler stops reacting to
    /// events, timers and dispatch opportunities, and its endpoints
    /// drop off the network (in-flight messages addressed to them
    /// become undeliverable, like a real dead host).
    pub fn crash(&self, net: &InProcNetwork) {
        self.inner.crashed.store(true, Ordering::SeqCst);
        net.unregister(&self.service.core().service_epr().address);
        net.unregister(&self.listener.epr().address);
    }

    /// Has [`Scheduler::crash`] been called?
    pub fn crashed(&self) -> bool {
        self.inner.is_crashed()
    }

    /// Diagnostic: per-job states of a run (None for unknown sets).
    /// Finished sets answer from the `JobStatus` properties of their
    /// job-set resource, for as long as that resource lives.
    pub fn job_states(&self, jobset_key: &str) -> Option<Vec<(String, String, Option<i32>)>> {
        let live = self.inner.runs.lock().get(jobset_key).map(|run| {
            run.jobs
                .iter()
                .map(|(name, jr)| (name.clone(), format!("{:?}", jr.state), jr.exit_code))
                .collect()
        });
        let mut v: Vec<(String, String, Option<i32>)> = match live {
            Some(v) => v,
            None => {
                let (doc, _) = self.service.core().share_live(jobset_key).ok()?;
                doc.get(&q("JobStatus"))
                    .iter()
                    .map(|e| {
                        (
                            e.attr_value("job").unwrap_or_default().to_string(),
                            e.text_content(),
                            e.attr_value("exitCode").and_then(|c| c.parse().ok()),
                        )
                    })
                    .collect()
            }
        };
        v.sort();
        Some(v)
    }
}

/// Build and wire the Scheduler Service. One configured to
/// [`SchedulerConfig::replicate`] registers itself and takes over every
/// set its store holds a submission record of (see [`take_over`]): built
/// over a crashed primary's store, it carries on where the primary
/// stopped.
pub fn scheduler_service(
    address: &str,
    cfg: SchedulerConfig,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Scheduler {
    // Feedback policies read observed transport latencies from the
    // deployment's registry.
    cfg.policy.bind_metrics(net.metrics_registry());
    let inner = Arc::new(SchedInner {
        runs: Mutex::new(HashMap::new()),
        nis_address: cfg.nis_address,
        broker: cfg.broker,
        policy: cfg.policy,
        security: cfg.security,
        job_timeout: cfg.job_timeout,
        replicate: cfg.replicate,
        renewal_armed: Mutex::new(false),
        crashed: AtomicBool::new(false),
        step_hook: RwLock::new(None),
    });
    // Counting-only: the scheduler reacts to events through its one
    // handler and never reads them back.
    let listener = NotificationListener::register_counting(&net, &cfg.listener_address);

    let submit_inner = inner.clone();
    let submit_listener = listener.epr();
    let lease_inner = inner.clone();
    let trace_registry = net.metrics_registry().clone();
    let service = ServiceBuilder::new("Scheduler", address, cfg.store)
        .key_property(jobset_key_property())
        .static_operation("SubmitJobSet", move |ctx| {
            submit_op(ctx, &submit_inner, &submit_listener)
        })
        // The submission's span tree, queryable like any other resource
        // property: the `TraceId` text property (stamped at submit)
        // selects this set's spans out of the tracer's ring at query
        // time, so the tree keeps growing until the ring rotates.
        .computed_property(q("Trace"), move |doc, _now| {
            let Some(id) = doc
                .text(&q("TraceId"))
                .and_then(|t| u64::from_str_radix(&t, 16).ok())
            else {
                return vec![];
            };
            let snap = trace_registry.tracer().trace(id);
            if snap.is_empty() {
                return vec![];
            }
            vec![trace_to_element(&snap)]
        })
        // A client keeping a set longer keeps its outputs as long.
        .raw_operation(
            wsrl_action("SetTerminationTime"),
            OpKind::Resource,
            move |ctx| set_termination_time(ctx, &lease_inner),
        )
        // The §5 rediscovery path: "how a client might possibly
        // rediscover their resources should their EPRs be lost".
        .static_operation("FindJobSets", |ctx| {
            let name_filter = ctx.body.attr_value("name").map(str::to_string);
            let core = ctx.core.clone();
            let mut keys = core.store.list(&core.name);
            keys.sort_by_key(|k| (k.len(), k.clone()));
            let mut resp = Element::new(UVACG, "FindJobSetsResponse");
            for key in keys {
                if key == FEEDBACK_KEY {
                    continue; // not a job set
                }
                let Ok((doc, _)) = core.share_live(&key) else {
                    continue;
                };
                let name = doc.text(&q("Name")).unwrap_or_default();
                if let Some(f) = &name_filter {
                    if &name != f {
                        continue;
                    }
                }
                resp.push_child(
                    Element::new(UVACG, "JobSet")
                        .attr("name", name)
                        .attr("status", doc.text(&q("Status")).unwrap_or_default())
                        .attr("topic", doc.text(&q("Topic")).unwrap_or_default())
                        .child(core.epr_for(&key).to_element_named(UVACG, "JobSetEpr")),
                );
            }
            Ok(resp)
        })
        .build(clock, net);

    // The queryable feedback table: clients introspect placement the
    // same way they introspect job sets — as resource properties.
    // A scheduler built over a crashed primary's store finds it there;
    // any other refusal leaves the scheduler running without the table,
    // and says so.
    let mut doc = PropertyDoc::new();
    doc.set_text(q("Policy"), inner.policy.name());
    let core = service.core().clone();
    match core.store.create(&core.name, FEEDBACK_KEY, &doc) {
        Ok(()) | Err(StoreError::AlreadyExists(_)) => {}
        Err(e) => {
            core.metrics.events().emit(
                Severity::Error,
                EventKind::StoreWriteDropped,
                &core.name,
                core.clock.now().as_nanos(),
                || format!("feedback table not created: {e}"),
            );
        }
    }

    // One handler for every job set this scheduler will ever run: the
    // topic root `jobset-<key>` names the set an event belongs to.
    let inner2 = inner.clone();
    listener.on_topic(TopicExpression::full("//"), move |msg| {
        if let Some(key) = jobset_key_of(&msg.topic) {
            let s = Sched {
                core: &core,
                inner: &inner2,
            };
            on_event(s, key, msg);
        }
    });

    let scheduler = Scheduler {
        service,
        listener,
        inner,
    };
    if scheduler.inner.replicate {
        take_over(&scheduler);
    }
    scheduler
}

/// Report one placement outcome into the policy's feedback channel and
/// refresh the queryable penalty table. Must not be called while
/// `inner.runs` is locked (the policy takes its own locks, and some
/// policies consult the metrics registry).
fn report_outcome(s: Sched<'_>, machine: &str, kind: OutcomeKind) {
    let Sched { core, inner } = s;
    if inner.is_crashed() {
        return; // a dead scheduler writes nothing
    }
    // Feed the monitoring plane: job terminations become structured
    // events and per-machine SLO samples (service = machine name,
    // latency = virtual makespan). Dispatch latencies are placement
    // signal only, not completions, so they stay out of the SLO window.
    let now_ns = core.clock.now().as_nanos();
    let termination = match kind {
        OutcomeKind::Makespan { virt_ns } => {
            Some((true, virt_ns, Severity::Info, EventKind::JobCompleted))
        }
        OutcomeKind::Failure | OutcomeKind::Timeout => {
            Some((false, 0, Severity::Warn, EventKind::JobFailed))
        }
        OutcomeKind::Dispatch { .. } => None,
    };
    if let Some((ok, virt_ns, severity, event)) = termination {
        let metrics = &core.metrics;
        metrics.slo().service(machine).record(ok, virt_ns, now_ns);
        metrics
            .events()
            .emit(severity, event, machine, now_ns, || match kind {
                OutcomeKind::Failure => "job failed on machine".to_string(),
                OutcomeKind::Timeout => "job timed out on machine".to_string(),
                _ => format!("job completed in {virt_ns} virtual ns"),
            });
    }
    inner.policy.observe(&MachineOutcome {
        machine: machine.to_string(),
        kind,
    });
    let rows = inner.policy.penalties();
    // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
    let _ = core.edit(FEEDBACK_KEY, |doc| {
        let els = rows
            .iter()
            .map(|r| {
                Element::with_name(q("MachinePenalty"))
                    .attr("machine", &r.machine)
                    .attr("penalty", format!("{:.4}", r.penalty))
                    .attr("ewmaNs", r.ewma_ns.to_string())
                    .attr("observations", r.observations.to_string())
                    .attr("failures", format!("{:.4}", r.failures))
            })
            .collect();
        doc.update(q("MachinePenalty"), els);
    });
}

fn submit_op(
    ctx: &mut wsrf_core::container::Ctx<'_>,
    inner: &Arc<SchedInner>,
    listener: &EndpointReference,
) -> Result<Element, BaseFault> {
    let trace = ctx.trace;
    let s = Sched {
        core: ctx.core,
        inner,
    };
    // Step 1: decode and validate the description.
    let set_el = ctx
        .body
        .find(UVACG, "JobSet")
        .ok_or_else(|| faults::bad_request("SubmitJobSet requires JobSet"))?;
    let spec = JobSetSpec::from_element(set_el)
        .ok_or_else(|| faults::bad_request("malformed JobSet description"))?;
    spec.validate()
        .map_err(|e| BaseFault::new("uvacg:InvalidJobSet", e.to_string()))?;

    // Credentials travel encrypted to the scheduler (or plaintext in
    // insecure deployments).
    let credentials = open_credentials(
        &inner.security,
        ctx.header(WSSE, "Security"),
        ctx.body.find(UVACG, "Credentials"),
    )?;

    let client_listener = ctx
        .body
        .find(UVACG, "ClientListener")
        .map(EndpointReference::from_element)
        .transpose()
        .map_err(|e| faults::bad_request(&format!("bad ClientListener: {e}")))?;
    let client_fileserver = ctx
        .body
        .find(UVACG, "ClientFileServer")
        .map(|e| e.text_content());

    // Create the job-set resource and its topic.
    let key = ctx.core.fresh_key();
    let topic = format!("{JOBSET_TOPIC_PREFIX}{key}");
    let mut doc = PropertyDoc::new();
    doc.set_text(q("Name"), &spec.name);
    doc.set_text(q("Status"), set_status::RUNNING);
    doc.set_text(q("Topic"), &topic);
    if let Some(tc) = &trace {
        doc.set_text(q("TraceId"), format!("{:016x}", tc.trace_id));
    }
    for j in &spec.jobs {
        put_job_status(&mut doc, &j.name, JobRun::default().status(&j.name));
    }
    let set_epr = ctx.core.create_resource_with_key(&key, doc)?;

    // "The SS then invokes the Subscribe() method on the Notification
    // Broker to subscribe both itself and the client's notification
    // listener."
    let expr = TopicExpression::full(&format!("{topic}//"));
    let lease = Some(TERMINAL_RETENTION.as_secs_f64());
    // Client first: the broker delivers in subscription order, and the
    // scheduler's own handling of an exit event dispatches follow-on
    // jobs (and thus further events) inline on the test network.
    let client_sub = client_listener
        .as_ref()
        .map(|cl| broker::subscribe(&ctx.core.net, &inner.broker, cl, &expr, lease))
        .transpose()
        .map_err(|e| faults::storage(&format!("client subscribe failed: {e}")))?;
    let own_sub = broker::subscribe(&ctx.core.net, &inner.broker, listener, &expr, lease)
        .map_err(|e| faults::storage(&format!("broker subscribe failed: {e}")))?;

    // Record the run. A replicating scheduler stores the submission
    // first: its record exists while the set is unfinished.
    let run = RunState::new(
        spec,
        topic.clone(),
        credentials,
        client_fileserver,
        ctx.core.clock.now(),
        trace,
    );
    if inner.replicate {
        let mut record = PropertyDoc::new();
        record.insert(q("Submission"), run.to_element(&inner.security));
        if let Err(e) = ctx.core.store.create(SUBMISSIONS, &key, &record) {
            // A set no later scheduler could take over is not accepted.
            let _ = ctx.core.destroy_resource(&key);
            return Err(faults::storage(&format!(
                "submission record not stored: {e}"
            )));
        }
    }
    inner.runs.lock().insert(key.clone(), run);
    arm_renewal(s);

    // Figure 3 step 1: the submission itself, and the subscriptions to
    // renew while the set runs.
    let now = ctx.core.clock.now();
    record_steps(s, &key, "*", &[(1, "submit")], now, |doc| {
        keep_subscription(doc, CLIENT, client_sub.as_ref());
        keep_subscription(doc, SCHEDULER, Some(&own_sub));
    });

    // Dispatch the first wave.
    dispatch_ready(s, &key);

    Ok(Element::new(UVACG, "SubmitJobSetResponse")
        .child(set_epr.to_element_named(UVACG, "JobSetEpr"))
        .child(Element::new(UVACG, "Topic").text(topic)))
}

/// Record Figure 3 steps for job set `key` at virtual time `at`: each
/// becomes a `StepMetric` resource property on the job-set resource
/// (`step`, `name`, `job`, `t` = virtual ns) and a
/// `scheduler.step.<NN>_<name>_ns` histogram sample of the elapsed
/// virtual time since submission. `job` is `"*"` for set-level steps.
///
/// `edit` is applied to the job-set document first, in the same
/// [`ServiceCore::edit`]: an event handler that has its own property to
/// write does not pay for the document twice.
///
/// Must not be called while `inner.runs` is locked.
fn record_steps(
    s: Sched<'_>,
    key: &str,
    job: &str,
    steps: &[(u8, &str)],
    at: SimTime,
    edit: impl FnOnce(&mut PropertyDoc),
) {
    let Sched { core, inner } = s;
    if inner.is_crashed() {
        return; // a dead scheduler writes nothing
    }
    let (submitted, trace) = {
        let runs = inner.runs.lock();
        match runs.get(key) {
            Some(r) => (r.submitted_at, r.trace),
            None => return,
        }
    };
    // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
    let _ = core.edit(key, |doc| {
        edit(doc);
        for (step, name) in steps {
            doc.insert(
                q("StepMetric"),
                Element::with_name(q("StepMetric"))
                    .attr("step", step.to_string())
                    .attr("name", *name)
                    .attr("job", job)
                    .attr("t", at.as_nanos().to_string()),
            );
        }
    });
    if core.metrics.is_enabled() {
        let elapsed = at.since(submitted).as_nanos() as u64;
        for (step, name) in steps {
            core.metrics
                .histogram(&format!("scheduler.step.{step:02}_{name}_ns"))
                .record(elapsed);
        }
    }
    // Each step also lands in the span tree as an instant span under
    // the submission's dispatch span.
    if let Some(tc) = trace {
        let tracer = core.metrics.tracer();
        if tracer.is_enabled() {
            let parent = SpanContext {
                trace_id: tc.trace_id,
                span_id: tc.span_id,
                sampled: tc.sampled,
            };
            for (step, name) in steps {
                tracer.point(
                    parent,
                    format!("step.{step:02}_{name}"),
                    "Scheduler",
                    at.as_nanos(),
                    &[("job", job)],
                );
            }
        }
    }
    // Chaos hook last: a hook that crashes the scheduler still leaves
    // this step durably recorded, which is exactly the kill-point
    // semantics the failover tests need ("crashed right after step N").
    let hook = inner.step_hook.read().clone();
    if let Some(hook) = hook {
        for (step, _) in steps {
            hook(*step, job);
        }
    }
}

/// Every job set's events flow on topics rooted at `jobset-<key>`.
const JOBSET_TOPIC_PREFIX: &str = "jobset-";

/// The job set a topic belongs to, read off its root.
fn jobset_key_of(topic: &TopicPath) -> Option<&str> {
    topic.root().strip_prefix(JOBSET_TOPIC_PREFIX)
}

/// Handle a notification for job set `key`.
fn on_event(s: Sched<'_>, key: &str, msg: &NotificationMessage) {
    let Sched { core, inner } = s;
    if inner.is_crashed() {
        return;
    }
    let Some(SetEvent::Job(job_name, event)) = SetEvent::decode(msg) else {
        return;
    };
    if let JobEvent::Exit { .. } = event {
        // Figure 3 step 10: the exit event reached us through the
        // broker re-broadcast.
        let now = core.clock.now();
        record_steps(s, key, &job_name, &[(10, "exit_broadcast")], now, |_| {});
        if inner.is_crashed() {
            return; // killed right after step 10: the exit is lost here
        }
    }
    settle(s, key, &job_name, &event);
}

/// Apply a job's event — observed through the broker broadcast, or an
/// exit or failure found by polling the job resource during failover
/// reconciliation — and act on what changed: record the Figure 3 steps
/// it marks, feed the placement policy, and fail the set, complete it
/// or dispatch what became ready. Nothing happens for an event
/// [`RunState::apply`] ignores.
///
/// Must not be called while `inner.runs` is locked.
fn settle(s: Sched<'_>, key: &str, job_name: &str, event: &JobEvent) {
    let Sched { core, inner } = s;
    let now = core.clock.now();
    let (change, outcome) = {
        let mut runs = inner.runs.lock();
        let Some(run) = runs.get_mut(key) else { return };
        let change = run.apply(job_name, event);
        let kind = match change {
            Change::None => return,
            Change::Dir | Change::Started => None,
            // Feedback: a clean exit reports the observed per-job
            // makespan on that machine; a failure is a mark against it.
            Change::Exited { .. } => Some(OutcomeKind::Makespan {
                virt_ns: run.jobs[job_name]
                    .dispatched_at
                    .map_or(0, |t| now.since(t).as_nanos() as u64),
            }),
            Change::Failed { .. } => Some(OutcomeKind::Failure),
        };
        let outcome = kind.and_then(|kind| {
            let jr = &run.jobs[job_name];
            // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
            let _ = core.edit(key, |doc| {
                put_job_status(doc, job_name, jr.status(job_name))
            });
            Some((kind, jr.machine.clone()?))
        });
        (change, outcome)
    };
    if let Some((kind, machine)) = outcome {
        report_outcome(s, &machine, kind);
    }
    match (change, event) {
        (Change::Dir, JobEvent::Dir(epr)) => {
            // Figure 3 step 4: the working directory exists on the
            // chosen machine's FSS. Persist it into the job-set resource
            // so clients that lost their event history (the §5
            // durability concern) can rediscover output locations.
            record_steps(s, key, job_name, &[(4, "workdir")], now, |doc| {
                doc.remove_value(&q("JobDirectory"), |e| {
                    e.attr_value("job") == Some(job_name)
                });
                let dir = epr.to_element_named(UVACG, "JobDirectory");
                doc.insert(q("JobDirectory"), dir.attr("job", job_name));
            });
        }
        (Change::Started, _) => {
            // By the time the ES broadcasts "started", staging has
            // finished (client files over WSE-TCP, grid files via FSS
            // Read), the FSS sent its one-way upload-complete, the
            // process was spawned, and the job EPR is on the wire —
            // Figure 3 steps 5-9, observed here as one instant.
            let steps = [
                (5, "client_stage"),
                (6, "grid_stage"),
                (7, "upload_complete"),
                (8, "spawn"),
                (9, "epr_broadcast"),
            ];
            record_steps(s, key, job_name, &steps, now, |_| {});
        }
        (Change::Failed { why }, _) => {
            let cause = BaseFault::new("uvacg:JobFailed", format!("job '{job_name}' {why}"));
            finish_job_set(s, key, Outcome::Failed(job_name, cause));
        }
        (Change::Exited { complete: true }, _) => finish_job_set(s, key, Outcome::Completed),
        (Change::Exited { .. }, _) => dispatch_ready(s, key),
        _ => {}
    }
}

/// Dispatch every job whose dependencies are all complete.
fn dispatch_ready(s: Sched<'_>, key: &str) {
    let Sched { core, inner } = s;
    loop {
        if inner.is_crashed() {
            return;
        }
        // Pick one ready job under the lock; dispatch outside it (the
        // Run call triggers notifications that re-enter this module).
        let (job_name, req, es_address, machine, t_nis, status) = {
            let mut runs = inner.runs.lock();
            let Some(run) = runs.get_mut(key) else { return };
            let Some(job) = run.next_ready() else { return };
            let job_name = job.name.clone();

            // Step 2: poll the NIS. (Inside the lock: a consistent
            // pick beats a stale one, and the NIS call does not
            // re-enter the scheduler.)
            let t_nis = core.clock.now();
            let node = match crate::nis::snapshot(&core.net, &inner.nis_address) {
                Ok(nodes) if !nodes.is_empty() => match inner.policy.select(&nodes) {
                    Some(pick) => Ok(nodes.into_iter().nth(pick).expect("policy picked in range")),
                    None => Err("policy rejected all machines"),
                },
                _ => Err("no machines available for scheduling"),
            };
            let built = node
                .map_err(|why| BaseFault::new("uvacg:NoNodes", why))
                .and_then(|node| {
                    let req = build_run_request(run, job, &node.machine, &inner.security)?;
                    Ok((req, node))
                });
            match built {
                Ok((req, node)) => {
                    let jr = run.dispatch(&job_name, &node.machine, core.clock.now());
                    let status = jr.status(&job_name);
                    (job_name, req, node.execution, node.machine, t_nis, status)
                }
                Err(fault) => {
                    drop(runs);
                    finish_job_set(s, key, Outcome::Failed(&job_name, fault));
                    return;
                }
            }
        };

        // Figure 3 step 2: the NIS was polled for this job's placement
        // (written together with the job's `Dispatched` status). This is
        // the placement intent a take-over reads: if we die between here
        // and the dispatch, it re-issues the Run to the same machine,
        // where the ES deduplicates it.
        record_steps(s, key, &job_name, &[(2, "nis_poll")], t_nis, |doc| {
            put_job_status(doc, &job_name, status)
        });
        if inner.is_crashed() {
            return; // killed after step 2: the Run is never issued
        }

        // Step 3: "the ES on that machine is sent a request to run a
        // job". Notifications triggered inline during this call may
        // already complete the job (zero-work programs) or even the
        // whole set; state transitions happened in on_event.
        let es_run_span = core.metrics.timer("scheduler.es_run").start(&core.clock);
        let t_run = core.clock.now();
        let reply = es::run(&core.net, &es_address, &req);
        if inner.is_crashed() {
            return; // killed during the Run (a step it triggered inline)
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(fault) => {
                let cause = dispatch_failed(&job_name, &es_address, fault);
                finish_job_set(s, key, Outcome::Failed(&job_name, cause));
                return;
            }
        };
        es_run_span.finish();
        // Feedback: the observed virtual dispatch latency for this
        // machine (zero on a manual clock, which the policy discards as
        // signal-free).
        report_outcome(
            s,
            &machine,
            OutcomeKind::Dispatch {
                virt_ns: core.clock.now().since(t_run).as_nanos() as u64,
            },
        );
        let now = core.clock.now();
        record_steps(s, key, &job_name, &[(3, "es_run")], now, |_| {});
        if inner.is_crashed() {
            return; // killed after step 3: the reply is lost here
        }
        if let Some(run) = inner.runs.lock().get_mut(key) {
            run.note_dispatched(&job_name, reply);
        }
        arm_watchdog(s, key, &job_name, &machine);
    }
}

/// The cause a set fails with when `job`'s Run cannot be delivered to
/// the Execution Service at `es_address`.
fn dispatch_failed(job: &str, es_address: &str, fault: SoapFault) -> BaseFault {
    BaseFault::new(
        "uvacg:DispatchFailed",
        format!("cannot run job '{job}' on {es_address}"),
    )
    .caused_by(fault_cause(fault))
}

/// The fault a failed call carries, or its transport error as one.
fn fault_cause(fault: SoapFault) -> BaseFault {
    fault
        .detail
        .unwrap_or_else(|| BaseFault::new("uvacg:TransportFault", fault.reason))
}

/// Build the Run request for `job` on `machine`, resolving file
/// references — the "filling in" of EPRs the paper describes. Shared
/// by the normal dispatch path and failover reconciliation (which
/// re-issues a placed job to its recorded machine).
fn build_run_request(
    run: &RunState,
    job: &JobSpec,
    machine: &str,
    security: &Option<(Arc<GridSecurity>, String)>,
) -> Result<RunRequest, BaseFault> {
    let resolve = |r: &FileRef| -> Result<(EndpointReference, String), BaseFault> {
        match r {
            FileRef::Local(path) => {
                let fs = run.client_fileserver.as_ref().ok_or_else(|| {
                    BaseFault::new(
                        "uvacg:NoFileServer",
                        "job set uses local:// but no client file server was given",
                    )
                })?;
                Ok((EndpointReference::service(fs), path.clone()))
            }
            FileRef::JobOutput { job, file } => {
                let dep = &run.jobs[job];
                let dir = dep.dir_epr.clone().ok_or_else(|| {
                    BaseFault::new(
                        "uvacg:MissingWorkdir",
                        format!("no working directory recorded for job '{job}'"),
                    )
                })?;
                Ok((dir, file.clone()))
            }
        }
    };
    let (exe_src, exe_name) = resolve(&job.executable)?;
    let exe_as = exe_name.rsplit(['/', '\\']).next().map(str::to_string);
    let mut inputs = Vec::new();
    for (src, as_name) in &job.inputs {
        let (epr, name) = resolve(src)?;
        inputs.push((epr, name, as_name.clone()));
    }
    // Credentials for the chosen machine.
    let (security_header, plain_credentials) = match security {
        Some((sec, _)) => {
            let subject = format!("es@{machine}");
            let tok = UsernameToken::new(&run.credentials.0, &run.credentials.1);
            let header = sec.encrypt_token(&tok, &subject).ok_or_else(|| {
                BaseFault::new(
                    "uvacg:NoCertificate",
                    format!("no certificate enrolled for '{subject}'"),
                )
            })?;
            (Some(header), None)
        }
        None => (None, Some(run.credentials.clone())),
    };
    Ok(RunRequest {
        job_name: job.name.clone(),
        executable: (exe_src, exe_name, exe_as.unwrap_or_default()),
        inputs,
        topic: run.topic.clone(),
        security_header,
        plain_credentials,
        trace: run.trace,
    })
}

/// Watchdog: a machine that dies mid-run never sends its exit
/// notification; without a timeout the set would wait forever.
fn arm_watchdog(s: Sched<'_>, key: &str, job_name: &str, machine: &str) {
    let Sched { core, inner } = s;
    let Some(timeout) = inner.job_timeout else {
        return;
    };
    let core2 = core.clone();
    let inner2 = inner.clone();
    let key2 = key.to_string();
    let name2 = job_name.to_string();
    let machine2 = machine.to_string();
    core.clock.schedule(timeout, move |_| {
        if inner2.is_crashed() {
            return; // a dead scheduler's timers die with it
        }
        let s = Sched {
            core: &core2,
            inner: &inner2,
        };
        let timed_out = {
            let runs = inner2.runs.lock();
            runs.get(&key2)
                .and_then(|r| r.jobs.get(&name2))
                .is_some_and(|jr| jr.state == JobState::Dispatched)
        };
        if timed_out {
            report_outcome(s, &machine2, OutcomeKind::Timeout);
            let cause = BaseFault::new(
                "uvacg:JobTimeout",
                format!(
                    "job '{name2}' did not finish within {} virtual seconds",
                    timeout.as_secs_f64()
                ),
            );
            finish_job_set(s, &key2, Outcome::Failed(&name2, cause));
        }
    });
}

/// Replace `job`'s `JobStatus` value in a job-set document.
fn put_job_status(doc: &mut PropertyDoc, job: &str, status: Element) {
    doc.remove_value(&q("JobStatus"), |e| e.attr_value("job") == Some(job));
    doc.insert(q("JobStatus"), status);
}

/// How a job set ends.
enum Outcome<'a> {
    Completed,
    /// Failed at this job, for this cause.
    Failed(&'a str, BaseFault),
}

/// Record a set's terminal state, release its run state, start the
/// retention lease of the resource that keeps the outcome — ending when
/// the leases of its directories do — and broadcast how the set ended
/// ([`SetEnd`]).
fn finish_job_set(s: Sched<'_>, key: &str, outcome: Outcome<'_>) {
    let Sched { core, inner } = s;
    if inner.is_crashed() {
        return;
    }
    let Some(run) = inner.runs.lock().remove(key) else {
        return;
    };
    let now = core.clock.now();
    let makespan = now.since(run.submitted_at);
    let end = match outcome {
        Outcome::Completed => SetEnd::Completed,
        Outcome::Failed(job, cause) => SetEnd::Failed {
            job: job.to_string(),
            fault: BaseFault::new(
                "uvacg:JobSetFailed",
                format!("job set failed at job '{job}'"),
            )
            .at(now.as_secs_f64())
            .from_originator(core.service_epr())
            .caused_by(cause),
        },
    };
    let mut lease = None;
    // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
    let _ = core.edit(key, |doc| {
        doc.set_f64(q("Makespan"), makespan.as_secs_f64());
        match &end {
            SetEnd::Completed => doc.set_text(q("Status"), set_status::COMPLETED),
            SetEnd::Failed { fault, .. } => {
                doc.set_text(q("Status"), set_status::FAILED);
                let fault = Element::with_name(q("Fault")).child(fault.to_element());
                doc.update(q("Fault"), vec![fault]);
            }
        }
        // Its subscriptions, renewed no more, need no record.
        doc.delete(&q("Subscription"));
        // Kept while its outputs are: the client's termination time, or
        // none, but never past its directories' leases.
        let until = earlier(doc.termination_time(), run.dirs_until);
        if until != doc.termination_time() {
            doc.set_termination_time(until);
            lease = until;
        }
    });
    if inner.replicate {
        // Nobody to tell: a record left behind is dropped by the next
        // take-over, which finds its set finished.
        let _ = core.store.destroy(SUBMISSIONS, key);
    }
    if let Some(at) = lease {
        core.arm_lease(key, at);
    }
    core.metrics
        .histogram("scheduler.makespan_ns")
        .record(makespan.as_nanos() as u64);
    publish(
        core,
        &inner.broker,
        end.message(&run.topic),
        run.trace.as_ref(),
    );
}

// ---------------------------------------------------------------------
// Leases: what a set makes lives while the set does
// ---------------------------------------------------------------------

/// A set's leases are renewed this often while it runs (half a lease),
/// so a set shorter than this renews nothing.
const RENEW_EVERY: std::time::Duration =
    std::time::Duration::from_secs(TERMINAL_RETENTION.as_secs() / 2);

/// Whose subscription a `{UVACG}Subscription` of a job set is (its
/// `consumer` attribute).
const CLIENT: &str = "client";
const SCHEDULER: &str = "scheduler";

/// Record `sub`, `consumer`'s subscription to the set's events, in the
/// set's document for renewal, in place of one of the same consumer.
fn keep_subscription(doc: &mut PropertyDoc, consumer: &str, sub: Option<&EndpointReference>) {
    doc.remove_value(&q("Subscription"), |e| {
        e.attr_value("consumer") == Some(consumer)
    });
    if let Some(sub) = sub {
        let el = sub.to_element_named(UVACG, "Subscription");
        doc.insert(q("Subscription"), el.attr("consumer", consumer));
    }
}

/// The leased resources a set's document keeps under `name`: its
/// `Subscription`s or its `JobDirectory`s.
fn kept<'a>(doc: &'a PropertyDoc, name: &str) -> impl Iterator<Item = EndpointReference> + 'a {
    doc.get(&q(name))
        .iter()
        .filter_map(|e| EndpointReference::from_element(e).ok())
}

/// The earlier of two leases, `None` being the one that never ends.
fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Arm the scheduler's one renewal timer for the earliest running set's
/// next renewal, unless it is armed already (a set submitted later is
/// due later). The timer holds the scheduler weakly, so a scheduler that
/// is gone renews nothing and is kept alive by nothing.
fn arm_renewal(s: Sched<'_>) {
    let Sched { core, inner } = s;
    let mut armed = inner.renewal_armed.lock();
    if *armed {
        return;
    }
    let runs = inner.runs.lock();
    let Some(due) = runs.values().map(|run| run.renewed_at + RENEW_EVERY).min() else {
        return;
    };
    *armed = true;
    let (weak_core, weak_inner) = (Arc::downgrade(core), Arc::downgrade(inner));
    core.clock.schedule_at(due, move |_| {
        if let (Some(core), Some(inner)) = (weak_core.upgrade(), weak_inner.upgrade()) {
            renew(Sched {
                core: &core,
                inner: &inner,
            });
        }
    });
}

/// The renewal timer: renew what every running set last renewed half a
/// lease ago made ([`renew_set`]), then re-arm. A crashed scheduler
/// renews nothing, so what its sets made runs out.
fn renew(s: Sched<'_>) {
    let Sched { core, inner } = s;
    *inner.renewal_armed.lock() = false;
    if inner.is_crashed() {
        return;
    }
    let now = core.clock.now();
    let due: Vec<String> = inner
        .runs
        .lock()
        .iter_mut()
        .filter(|(_, run)| run.renewed_at + RENEW_EVERY <= now)
        .map(|(key, run)| {
            run.renewed_at = now;
            key.clone()
        })
        .collect();
    for key in due {
        renew_set(s, &key, now);
    }
    arm_renewal(s);
}

/// Renew what running set `key` made: its subscriptions to one lease
/// from `now`, and its directories to that or the set's own later
/// termination time, unless they hold as much already (or the client
/// kept them for good). The run's `dirs_until` moves only once every
/// directory took the new lease.
fn renew_set(s: Sched<'_>, key: &str, now: SimTime) {
    let Sched { core, inner } = s;
    let Ok((doc, _)) = core.share_live(key) else {
        return;
    };
    let until = now + TERMINAL_RETENTION;
    // A subscription not renewed costs the set events, not outputs.
    extend_leases(core, kept(&doc, "Subscription"), Some(until));
    let until = doc.termination_time().map_or(until, |t| t.max(until));
    let short = |run: &RunState| run.dirs_until.is_some_and(|d| d < until);
    if !inner.runs.lock().get(key).is_some_and(short) {
        return;
    }
    if extend_leases(core, kept(&doc, "JobDirectory"), Some(until)) {
        if let Some(run) = inner.runs.lock().get_mut(key) {
            run.dirs_until = Some(until);
        }
    }
}

/// Move the lease of every resource in `eprs` to `until` (WSRL
/// `SetTerminationTime`); true when all moved. One that cannot be moved
/// leaves an event: it ends on its old lease.
fn extend_leases(
    core: &ServiceCore,
    eprs: impl Iterator<Item = EndpointReference>,
    until: Option<SimTime>,
) -> bool {
    let mut moved = true;
    for epr in eprs {
        let proxy = ResourceProxy::new(&core.net, epr.clone());
        if let Err(e) = proxy.set_termination_time(until) {
            moved = false;
            core.metrics.events().emit(
                Severity::Warn,
                EventKind::OutboundFailed,
                &core.name,
                core.clock.now().as_nanos(),
                || format!("lease of {} not extended: {e}", epr.address),
            );
        }
    }
    moved
}

/// WSRL `SetTerminationTime` on a job set: the standard operation, kept
/// only once every working directory of the set took the same lease, so
/// a set kept longer keeps its outputs as long and never outlives them.
/// A running set's renewals then keep its directories at least that long.
fn set_termination_time(ctx: &mut Ctx<'_>, inner: &SchedInner) -> Result<Element, BaseFault> {
    let response = porttypes::set_termination_time(ctx)?;
    let doc = ctx.resource()?;
    let until = doc.termination_time();
    let moved = extend_leases(ctx.core, kept(doc, "JobDirectory"), until);
    let key = ctx.key()?;
    if let Some(run) = inner.runs.lock().get_mut(key) {
        // A directory that did not move keeps its old lease.
        run.dirs_until = if moved {
            until
        } else {
            earlier(run.dirs_until, until)
        };
    }
    if !moved {
        return Err(BaseFault::new(
            "uvacg:LeaseNotExtended",
            format!("job set {key} keeps its lease: a working directory refused the new one"),
        ));
    }
    Ok(response)
}

/// Publish `msg` through the broker as this scheduler's.
fn publish(
    core: &Arc<ServiceCore>,
    broker_epr: &EndpointReference,
    msg: NotificationMessage,
    trace: Option<&TraceContext>,
) {
    let msg = msg.from_producer(core.service_epr());
    // Nobody to tell: a failed send leaves an `OutboundFailed` event.
    let _ = msg.outbound(broker_epr).trace(trace).send(&core.net);
}

/// Serialize a span tree as a `{UVACG}Trace` resource-property element:
/// one `<Span>` child per retained span, parent links by id.
fn trace_to_element(snap: &TraceSnapshot) -> Element {
    let mut el = Element::with_name(q("Trace")).attr("spans", snap.len().to_string());
    for s in &snap.spans {
        el.push_child(
            Element::with_name(q("Span"))
                .attr("traceId", format!("{:016x}", s.trace_id))
                .attr("spanId", format!("{:016x}", s.span_id))
                .attr("parentId", format!("{:016x}", s.parent_id))
                .attr("name", &*s.name)
                .attr("service", &*s.service)
                .attr("start", s.virt_start_ns.to_string())
                .attr("end", s.virt_end_ns.to_string()),
        );
    }
    el
}

// ---------------------------------------------------------------------
// Failover: taking over from a crashed primary's store
// ---------------------------------------------------------------------

/// The store table of submission records ([`RunState::to_element`]):
/// one per unfinished set, under the set's key, written at submission
/// by a scheduler configured to `replicate` and deleted when the set
/// finishes. No EPR names it, so no WS-RP read reaches the credentials
/// it keeps.
const SUBMISSIONS: &str = "SchedulerSubmissions";

/// Take over every set whose submission record the store holds: answer
/// at the scheduler's address, restore each set (`adopt`) and drive it
/// to its conclusion exactly once (`reconcile`). Reads the Node Info
/// Service only if a set was adopted, so a store without records costs
/// one `list` and no message.
fn take_over(scheduler: &Scheduler) {
    let core = scheduler.service.core();
    let inner = &scheduler.inner;
    scheduler.register(&core.net);
    let s = Sched { core, inner };
    let listener = scheduler.listener.epr();
    let mut adopted = core.store.list(SUBMISSIONS);
    adopted.retain(|key| adopt(s, key, &listener));
    if adopted.is_empty() {
        return;
    }
    arm_renewal(s);
    let nodes = crate::nis::snapshot(&core.net, &inner.nis_address).map_err(|fault| {
        let at = &inner.nis_address;
        BaseFault::new(
            "uvacg:NoNodes",
            format!("cannot read the Node Info Service at {at} during failover"),
        )
        .caused_by(fault_cause(fault))
    });
    for key in &adopted {
        reconcile(s, key, &nodes);
    }
}

/// Take set `key` over from its submission record: restore its run
/// from the record and the job-set resource, then follow its events
/// (before any of its jobs is polled, so no exit falls between the poll
/// and the subscription). False when there is nothing to take over: the
/// record of a set that finished, or is gone, is deleted.
fn adopt(s: Sched<'_>, key: &str, listener: &EndpointReference) -> bool {
    let Sched { core, inner } = s;
    let Some((set, _)) = core
        .share_live(key)
        .ok()
        .filter(|(doc, _)| doc.text(&q("Status")).as_deref() == Some(set_status::RUNNING))
    else {
        // Nobody to tell: a record that stays is dropped again next time.
        let _ = core.store.destroy(SUBMISSIONS, key);
        return false;
    };
    let now = core.clock.now();
    let record = core.store.share(SUBMISSIONS, key).ok();
    let run = record
        .as_ref()
        .and_then(|r| r.get(&q("Submission")).first())
        .and_then(|el| RunState::restore(el, &set, &inner.security, now));
    let events = core.metrics.events();
    let Some(mut run) = run else {
        events.emit(
            Severity::Error,
            EventKind::JobFailed,
            &core.name,
            now.as_nanos(),
            || format!("job set {key} cannot be taken over: its submission record does not decode"),
        );
        return false;
    };
    let expr = TopicExpression::full(&format!("{}//", run.topic));
    // The primary renewed what the set made last at some time unknown:
    // renew it now.
    run.renewed_at = now;
    inner.runs.lock().insert(key.to_string(), run);
    let lease = Some(TERMINAL_RETENTION.as_secs_f64());
    let sub = broker::subscribe(&core.net, &inner.broker, listener, &expr, lease);
    if let Err(e) = &sub {
        events.emit(
            Severity::Warn,
            EventKind::OutboundFailed,
            &core.name,
            now.as_nanos(),
            || format!("job set {key} is taken over without its events: {e}"),
        );
    }
    // The dead primary's subscription is left to run out. Nobody to
    // tell: a refused write leaves a `StoreWriteDropped` event, and the
    // new subscription lives out one lease.
    let _ = core.edit(key, |doc| {
        keep_subscription(doc, SCHEDULER, sub.as_ref().ok())
    });
    renew_set(s, key, now);
    true
}

/// Bring a set restored at take-over up to date and drive it on. A set
/// whose store already says how it ends (a crash between a job's end
/// and the set's) ends now. Each placed job is found on its recorded
/// machine: one whose working directory was never recorded may never
/// have left the dead primary, so its Run is re-issued (the ES answers
/// a duplicate with the job it already has); then every placed job is
/// polled at its derived EPR for an end that raced the crash, or has
/// its watchdog re-armed. What is ready is dispatched.
fn reconcile(s: Sched<'_>, key: &str, nodes: &Result<Vec<crate::NodeSnapshot>, BaseFault>) {
    let Sched { core, inner } = s;
    let (topic, failure, placed) = {
        let runs = inner.runs.lock();
        let Some(run) = runs.get(key) else { return };
        let failure = run.failure().map(|(job, why)| (job.to_string(), why));
        let placed: Vec<(String, String, bool)> = run
            .jobs
            .iter()
            .filter(|(_, jr)| jr.state == JobState::Dispatched)
            .map(|(name, jr)| {
                let machine = jr.machine.clone().unwrap_or_default();
                (name.clone(), machine, jr.dir_epr.is_some())
            })
            .collect();
        (run.topic.clone(), failure, placed)
    };
    if let Some((job, why)) = failure {
        let cause = BaseFault::new("uvacg:JobFailed", format!("job '{job}' {why}"));
        return finish_job_set(s, key, Outcome::Failed(&job, cause));
    }
    for (job_name, machine, has_dir) in placed {
        if !inner.runs.lock().contains_key(key) {
            return; // a settled job ended the set
        }
        let node = match nodes {
            Ok(nodes) => nodes.iter().find(|n| n.machine == machine).ok_or_else(|| {
                BaseFault::new(
                    "uvacg:NoNodes",
                    format!("machine '{machine}' vanished during failover"),
                )
            }),
            Err(fault) => Err(fault.clone()),
        };
        let reissued = node.and_then(|node| {
            if !has_dir {
                reissue(s, key, &job_name, node)?;
            }
            Ok(node)
        });
        let node = match reissued {
            Ok(node) => node,
            Err(cause) => return finish_job_set(s, key, Outcome::Failed(&job_name, cause)),
        };
        let epr = es::job_epr(&node.execution, &topic, &job_name);
        let snap = es::query_job(&core.net, &epr).ok();
        match snap.as_ref().and_then(JobEvent::settled) {
            Some(end) => settle(s, key, &job_name, &end),
            None => arm_watchdog(s, key, &job_name, &machine),
        }
    }

    // Drive the set to its conclusion.
    let complete = inner
        .runs
        .lock()
        .get(key)
        .is_some_and(RunState::is_complete);
    if complete {
        finish_job_set(s, key, Outcome::Completed);
    } else {
        dispatch_ready(s, key);
    }
}

/// Re-issue placed `job`'s Run to `node`, the machine it was placed on,
/// and keep the working directory the ES answers with.
fn reissue(
    s: Sched<'_>,
    key: &str,
    job: &str,
    node: &crate::NodeSnapshot,
) -> Result<(), BaseFault> {
    let Sched { core, inner } = s;
    let req = {
        let runs = inner.runs.lock();
        let Some(run) = runs.get(key) else {
            return Ok(()); // a concurrent event ended the set
        };
        let spec = run.spec.get(job).expect("a job of this set");
        build_run_request(run, spec, &node.machine, &inner.security)?
    };
    let reply = es::run(&core.net, &node.execution, &req)
        .map_err(|fault| dispatch_failed(job, &node.execution, fault))?;
    if let Some(run) = inner.runs.lock().get_mut(key) {
        run.note_dispatched(job, reply);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Client-side helper
// ---------------------------------------------------------------------

/// A submission's useful outputs.
#[derive(Debug, Clone)]
pub struct SubmitReply {
    /// The job-set resource EPR (query `Status`, `JobStatus`, ...).
    pub jobset: EndpointReference,
    /// The notification topic base for this set.
    pub topic: String,
}

/// Submit a job set to the Scheduler.
pub fn submit(
    net: &InProcNetwork,
    scheduler: &EndpointReference,
    spec: &JobSetSpec,
    client_listener: Option<&EndpointReference>,
    client_fileserver: Option<&str>,
    security_header: Option<Element>,
    plain_credentials: Option<(&str, &str)>,
) -> Result<SubmitReply, SoapFault> {
    let mut body = Element::new(UVACG, "SubmitJobSet").child(spec.to_element());
    if let Some(cl) = client_listener {
        body.push_child(cl.to_element_named(UVACG, "ClientListener"));
    }
    if let Some(fs) = client_fileserver {
        body.push_child(Element::new(UVACG, "ClientFileServer").text(fs));
    }
    if let Some((u, p)) = plain_credentials {
        body.push_child(
            Element::new(UVACG, "Credentials")
                .attr("user", u)
                .attr("password", p),
        );
    }
    // Root span of the whole submission: every dispatch, transport hop,
    // staging call and broadcast triggered by this call (including the
    // inline ones on the test network) becomes a descendant.
    let tracer = net.metrics_registry().tracer().clone();
    let mut root = tracer
        .is_enabled()
        .then(|| tracer.start_root("client.submit", "Client", net.clock()));
    let trace = root.as_mut().and_then(|span| {
        span.annotate("jobset", spec.name.as_str());
        let c = span.context();
        c.is_active()
            .then(|| TraceContext::new(c.trace_id, c.span_id, c.sampled))
    });
    let resp = Outbound::new(
        scheduler.clone(),
        action_uri("Scheduler", "SubmitJobSet"),
        body,
    )
    .header(security_header)
    .trace(trace.as_ref())
    .call(net)?;
    let jobset = epr_in(&resp, UVACG, "JobSetEpr")?;
    let topic = resp
        .body
        .find(UVACG, "Topic")
        .map(|t| t.text_content())
        .unwrap_or_default();
    Ok(SubmitReply { jobset, topic })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobset_key_is_read_off_the_topic_root() {
        let key_of = |t: &str| jobset_key_of(&TopicPath::parse(t)).map(str::to_string);
        assert_eq!(
            key_of("jobset-scheduler-3/job/a/exit").as_deref(),
            Some("scheduler-3")
        );
        assert_eq!(
            key_of("jobset-scheduler-3/completed").as_deref(),
            Some("scheduler-3")
        );
        assert_eq!(key_of("monitor/events"), None);
        assert_eq!(key_of(""), None);
    }

    /// A feedback table already in the store (a scheduler built over a
    /// crashed primary's) is taken as it is; any other refusal is
    /// reported.
    #[test]
    fn feedback_table_creation_is_decided() {
        use wsrf_core::store::MemoryStore;
        let deploy = |store: Arc<dyn ResourceStore>| {
            let registry = wsrf_obs::MetricsRegistry::enabled();
            let net = InProcNetwork::with_metrics(Clock::manual(), Default::default(), &registry);
            let cfg = SchedulerConfig {
                nis_address: "inproc://hub/NIS".into(),
                broker: EndpointReference::service("inproc://hub/Broker"),
                policy: Arc::new(crate::policy::FastestAvailable),
                security: None,
                store,
                listener_address: "inproc://hub/SchedulerListener".into(),
                job_timeout: None,
                replicate: false,
            };
            scheduler_service("inproc://hub/Scheduler", cfg, Clock::manual(), net);
            registry.events().all()
        };

        let store = Arc::new(MemoryStore::new());
        assert!(deploy(store.clone()).is_empty());
        assert!(deploy(store).is_empty(), "already exists: taken as it is");

        let full = Arc::new(Refusing(MemoryStore::new()));
        let events = deploy(full);
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(
            (e.kind, e.severity),
            (EventKind::StoreWriteDropped, Severity::Error)
        );
        assert!(e.detail.contains("disk full"), "{}", e.detail);
    }

    /// A store whose every create fails with an I/O error.
    struct Refusing(wsrf_core::store::MemoryStore);

    impl ResourceStore for Refusing {
        fn create(&self, _: &str, _: &str, _: &PropertyDoc) -> Result<(), StoreError> {
            Err(StoreError::Io("disk full".into()))
        }
        fn load(&self, s: &str, k: &str) -> Result<PropertyDoc, StoreError> {
            self.0.load(s, k)
        }
        fn save(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
            self.0.save(s, k, d)
        }
        fn destroy(&self, s: &str, k: &str) -> Result<(), StoreError> {
            self.0.destroy(s, k)
        }
        fn exists(&self, s: &str, k: &str) -> bool {
            self.0.exists(s, k)
        }
        fn list(&self, s: &str) -> Vec<String> {
            self.0.list(s)
        }
        fn query(&self, s: &str, p: &wsrf_xml::xpath::Path) -> Vec<String> {
            self.0.query(s, p)
        }
        fn backend_name(&self) -> &'static str {
            "refusing"
        }
    }
}
