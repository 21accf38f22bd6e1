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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simclock::{Clock, SimTime};
use ws_notification::broker;
use ws_notification::consumer::NotificationListener;
use ws_notification::message::NotificationMessage;
use ws_notification::topics::{TopicExpression, TopicPath};
use wsrf_core::container::{action_uri, Service, ServiceBuilder, ServiceCore};
use wsrf_core::faults;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_core::{epr_in, Outbound};
use wsrf_obs::{EventKind, Severity, SpanContext, TraceSnapshot};
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::Element;

use crate::es::{self, RunReply, RunRequest};
use crate::job::{JobEvent, SetEnd, SetEvent};
use crate::jobset::{FileRef, JobSetSpec, JobSpec};
use crate::policy::{MachineOutcome, OutcomeKind, SchedulingPolicy};
use crate::q;
use crate::security::{open_credentials, GridSecurity};

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
    /// Replicate job-set state to a standby over the notification
    /// fabric (`schedrepl/<key>/...` topics, see [`standby_scheduler`]).
    /// Off by default: the extra one-ways change message counts that
    /// deployments may assert on.
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
    /// registered at construction).
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
                let core = self.service.core();
                let doc = core.store.share(&core.name, jobset_key).ok()?;
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

/// Build and wire the Scheduler Service.
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
        crashed: AtomicBool::new(false),
        step_hook: RwLock::new(None),
    });
    // Counting-only: the scheduler reacts to events through its one
    // handler and never reads them back.
    let listener = NotificationListener::register_counting(&net, &cfg.listener_address);

    let submit_inner = inner.clone();
    let submit_listener = listener.epr();
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
                let Ok(doc) = core.store.share(&core.name, &key) else {
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
    // A standby promoted over the primary's store finds it there; any
    // other refusal leaves the scheduler running without the table, and
    // says so.
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

    Scheduler {
        service,
        listener,
        inner,
    }
}

/// Report one placement outcome into the policy's feedback channel and
/// refresh the queryable penalty table. Must not be called while
/// `inner.runs` is locked (the policy takes its own locks, and some
/// policies consult the metrics registry).
fn report_outcome(s: Sched<'_>, machine: &str, kind: OutcomeKind) {
    let Sched { core, inner } = s;
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
        put_job_status(
            &mut doc,
            &j.name,
            job_status_element(&j.name, &JobRun::default()),
        );
    }
    let set_epr = ctx.core.create_resource_with_key(&key, doc)?;

    // "The SS then invokes the Subscribe() method on the Notification
    // Broker to subscribe both itself and the client's notification
    // listener."
    let expr = TopicExpression::full(&format!("{topic}//"));
    // Client first: the broker delivers in subscription order, and the
    // scheduler's own handling of an exit event dispatches follow-on
    // jobs (and thus further events) inline on the test network.
    if let Some(cl) = &client_listener {
        broker::subscribe(&ctx.core.net, &inner.broker, cl, &expr, None)
            .map_err(|e| faults::storage(&format!("client subscribe failed: {e}")))?;
    }
    broker::subscribe(&ctx.core.net, &inner.broker, listener, &expr, None)
        .map_err(|e| faults::storage(&format!("broker subscribe failed: {e}")))?;

    // Record the run. The replication record is encoded before the
    // run is recorded and published after, so the standby's view is
    // never ahead of the primary's.
    let run = RunState::new(
        spec,
        topic.clone(),
        credentials,
        client_fileserver,
        ctx.core.clock.now(),
        trace,
    );
    let repl = inner.replicate.then(|| run.to_element(&inner.security));
    inner.runs.lock().insert(key.clone(), run);
    if let Some(el) = repl {
        replicate(s, &key, "submit", || el);
    }

    // Figure 3 step 1: the submission itself.
    record_steps(s, &key, "*", &[(1, "submit")], ctx.core.clock.now(), |_| {});

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

/// When replicating, tell a standby what just happened to job set
/// `key`: one `record` on `schedrepl/<key>/<kind>`.
fn replicate(s: Sched<'_>, key: &str, kind: &str, record: impl FnOnce() -> Element) {
    let Sched { core, inner } = s;
    if inner.replicate {
        let topic = TopicPath::parse("schedrepl").child(key).child(kind);
        publish(
            core,
            &inner.broker,
            NotificationMessage::new(topic, record()),
            None,
        );
    }
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
                put_job_status(doc, job_name, job_status_element(job_name, jr))
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
                    let status = job_status_element(&job_name, jr);
                    (job_name, req, node.execution, node.machine, t_nis, status)
                }
                Err(fault) => {
                    drop(runs);
                    finish_job_set(s, key, Outcome::Failed(&job_name, fault));
                    return;
                }
            }
        };

        // A standby learns the placement intent before the Run leaves:
        // if we die between here and the dispatch, it re-issues the Run
        // to the same machine, where the ES deduplicates it.
        replicate(s, key, "intent", || {
            Element::new(UVACG, "ReplIntent")
                .attr("job", &job_name)
                .attr("machine", &machine)
        });

        // Figure 3 step 2: the NIS was polled for this job's placement
        // (written together with the job's `Dispatched` status).
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
        let reply = match es::run(&core.net, &es_address, &req) {
            Ok(reply) => reply,
            Err(fault) => {
                let cause = dispatch_failed(&job_name, &es_address, fault);
                finish_job_set(s, key, Outcome::Failed(&job_name, cause));
                return;
            }
        };
        es_run_span.finish();
        replicate(s, key, "dispatched", || {
            Element::new(UVACG, "ReplDispatched")
                .attr("job", &job_name)
                .child(reply.job.to_element_named(UVACG, "JobEpr"))
                .child(reply.workdir.to_element_named(UVACG, "DirEpr"))
        });
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
    .caused_by(
        fault
            .detail
            .unwrap_or_else(|| BaseFault::new("uvacg:TransportFault", fault.reason.clone())),
    )
}

/// Build the Run request for `job` on `machine`, resolving file
/// references — the "filling in" of EPRs the paper describes. Shared
/// by the normal dispatch path and failover reconciliation (which
/// re-issues uncertain dispatches to their recorded machine).
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

/// A job's state as its `JobStatus` resource property value.
fn job_status_element(job: &str, jr: &JobRun) -> Element {
    let mut el = Element::with_name(q("JobStatus"))
        .attr("job", job)
        .text(format!("{:?}", jr.state));
    if let Some(m) = &jr.machine {
        el = el.attr("machine", m);
    }
    if let Some(c) = jr.exit_code {
        el = el.attr("exitCode", c.to_string());
    }
    if let Some(cpu) = jr.cpu_used {
        el = el.attr("cpu", format!("{cpu:.6}"));
    }
    el
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
/// retention lease of the resource that keeps the outcome, and
/// broadcast how the set ended ([`SetEnd`]).
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
    });
    crate::retire(core, key);
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
// Standby + failover
// ---------------------------------------------------------------------

/// A standby's table and what its listener needs to keep it current.
struct Replica {
    /// Unfinished sets only, in the form the primary keeps them, built
    /// purely from the primary's replication stream plus the sets' own
    /// event topics.
    runs: Mutex<HashMap<String, RunState>>,
    /// Sets ever shadowed, finished ones included.
    seen: AtomicUsize,
    security: Option<(Arc<GridSecurity>, String)>,
    broker: EndpointReference,
    listener: EndpointReference,
    net: Arc<InProcNetwork>,
}

/// A warm standby scheduler. It follows a replicating primary's
/// `schedrepl/<key>/...` stream (and each shadowed set's own event
/// topic, so exits it witnesses first-hand never depend on the primary
/// surviving long enough to relay them) and can be promoted into a
/// full [`Scheduler`] once the primary crashes.
pub struct Standby {
    /// The standby's notification listener. Promotion re-registers a
    /// scheduler listener at this same address, so every broker
    /// subscription the standby accumulated transfers to the promoted
    /// scheduler without a single re-subscribe — and therefore without
    /// duplicate deliveries.
    pub listener: NotificationListener,
    replica: Arc<Replica>,
    cfg: SchedulerConfig,
    clock: Clock,
}

/// Deploy a standby that shadows a replicating primary.
///
/// `cfg.listener_address` is the standby's own listener address; the
/// remaining fields describe the deployment it will take over and
/// should match the primary's — except `store`, which may be the
/// primary's shared store or a [`wsrf_core::DurableStore`] recovered
/// from its write-ahead log.
pub fn standby_scheduler(cfg: SchedulerConfig, clock: Clock, net: Arc<InProcNetwork>) -> Standby {
    let listener = NotificationListener::register_counting(&net, &cfg.listener_address);
    broker::subscribe(
        &net,
        &cfg.broker,
        &listener.epr(),
        &TopicExpression::full("schedrepl//"),
        None,
    )
    .expect("standby subscription cannot fail on a live broker");
    let replica = Arc::new(Replica {
        runs: Mutex::default(),
        seen: AtomicUsize::new(0),
        security: cfg.security.clone(),
        broker: cfg.broker.clone(),
        listener: listener.epr(),
        net,
    });
    let r = replica.clone();
    listener.on_topic(TopicExpression::full("//"), move |msg| r.on_event(msg));
    Standby {
        listener,
        replica,
        cfg,
        clock,
    }
}

impl Replica {
    /// One handler for both streams: every shadowed set's own
    /// `jobset-<key>` events, applied exactly as the primary applies
    /// them, and the primary's `schedrepl/<key>/<kind>` records.
    fn on_event(&self, msg: &NotificationMessage) {
        if let Some(key) = jobset_key_of(&msg.topic) {
            let mut runs = self.runs.lock();
            match SetEvent::decode(msg) {
                // The primary finished the set before dying: nothing to
                // adopt.
                Some(SetEvent::End(_)) => {
                    runs.remove(key);
                }
                Some(SetEvent::Job(job, event)) => {
                    if let Some(run) = runs.get_mut(key) {
                        run.apply(&job, &event);
                    }
                }
                None => {}
            }
            return;
        }
        let [root, key, kind] = msg.topic.0.as_slice() else {
            return;
        };
        if root != "schedrepl" {
            return;
        }
        let p = &msg.payload;
        match kind.as_str() {
            "submit" => {
                let Some(run) = RunState::from_element(p, &self.security) else {
                    return;
                };
                let expr = TopicExpression::full(&format!("{}//", run.topic));
                self.runs.lock().insert(key.clone(), run);
                self.seen.fetch_add(1, Ordering::Relaxed);
                // Follow the set's own event stream too: a dir or exit
                // the standby saw with its own eyes survives any primary
                // crash. Without it the set is still shadowed from the
                // replication stream, and promotion polls every
                // dispatched job.
                if let Err(e) =
                    broker::subscribe(&self.net, &self.broker, &self.listener, &expr, None)
                {
                    self.net.metrics_registry().events().emit(
                        Severity::Warn,
                        EventKind::OutboundFailed,
                        "standby",
                        self.net.clock().now().as_nanos(),
                        || format!("job set {key} is shadowed without its own events: {e}"),
                    );
                }
            }
            "intent" | "dispatched" => {
                let mut runs = self.runs.lock();
                let (Some(run), Some(job)) = (runs.get_mut(key), p.attr_value("job")) else {
                    return;
                };
                let epr = |n| {
                    p.find(UVACG, n)
                        .and_then(|e| EndpointReference::from_element(e).ok())
                };
                if kind == "intent" {
                    run.note_intent(job, p.attr_value("machine"));
                } else if let (Some(job_epr), Some(workdir)) = (epr("JobEpr"), epr("DirEpr")) {
                    let reply = RunReply {
                        job: job_epr,
                        workdir,
                    };
                    run.note_dispatched(job, reply);
                }
            }
            _ => {}
        }
    }
}

impl Standby {
    /// Number of job sets shadowed so far (diagnostics). Finished sets
    /// count, though their shadow is released at the terminal event.
    pub fn shadow_count(&self) -> usize {
        self.replica.seen.load(Ordering::Relaxed)
    }

    /// Promote this standby into the active Scheduler at `address`
    /// (normally the crashed primary's address, so lost-EPR clients
    /// rediscover their sets through the same `FindJobSets` endpoint).
    ///
    /// Adoption then reconciliation: uncertain dispatches are re-issued
    /// to their recorded machine (idempotent at the ES), in-flight jobs
    /// are polled for exits that raced the crash, watchdogs are
    /// re-armed, and anything ready — or everything, if the set
    /// already finished — is driven to its conclusion exactly once.
    pub fn promote(self, address: &str) -> Scheduler {
        let Standby {
            listener: _standby_listener,
            replica,
            cfg,
            clock,
        } = self;
        let net = replica.net.clone();
        let scheduler = scheduler_service(address, cfg, clock, net.clone());
        scheduler.register(&net);
        let core = scheduler.service.core().clone();
        let inner = scheduler.inner.clone();

        // Adopt every unfinished set as the standby kept it. What the
        // standby witnessed supersedes what the primary last wrote into
        // the job-set resource.
        let now = core.clock.now();
        let adopted: Vec<String> = {
            let mut runs = inner.runs.lock();
            let mut shadowed = replica.runs.lock();
            shadowed
                .drain()
                .map(|(key, mut run)| {
                    run.adopt(now);
                    // Nobody to tell: a refused write leaves a `StoreWriteDropped` event.
                    let _ = core.edit(&key, |doc| {
                        for j in &run.spec.jobs {
                            let status = job_status_element(&j.name, &run.jobs[&j.name]);
                            put_job_status(doc, &j.name, status);
                        }
                    });
                    runs.insert(key.clone(), run);
                    key
                })
                .collect()
        };
        let nodes = crate::nis::snapshot(&net, &inner.nis_address).unwrap_or_default();
        let s = Sched {
            core: &core,
            inner: &inner,
        };
        for key in &adopted {
            reconcile(s, key, &nodes);
        }
        scheduler
    }
}

/// Bring a set adopted at failover up to date and drive it on.
fn reconcile(s: Sched<'_>, key: &str, nodes: &[crate::NodeSnapshot]) {
    let Sched { core, inner } = s;
    // Re-issue uncertain dispatches to their recorded machine: if the
    // primary's Run made it there, the ES returns the existing job
    // instead of staging and spawning a duplicate.
    let reissues: Vec<(String, String, RunRequest)> = {
        let runs = inner.runs.lock();
        let Some(run) = runs.get(key) else { return };
        let uncertain = run.jobs.iter().filter(|(_, jr)| jr.uncertain);
        uncertain
            .filter_map(|(name, jr)| {
                let machine = jr.machine.clone().unwrap_or_default();
                let job = run.spec.get(name)?;
                let req = build_run_request(run, job, &machine, &inner.security).ok()?;
                Some((name.clone(), machine, req))
            })
            .collect()
    };
    for (job_name, machine, req) in reissues {
        let reply = match nodes.iter().find(|n| n.machine == machine) {
            Some(node) => es::run(&core.net, &node.execution, &req)
                .map_err(|fault| dispatch_failed(&job_name, &node.execution, fault)),
            None => Err(BaseFault::new(
                "uvacg:NoNodes",
                format!("machine '{machine}' vanished during failover"),
            )),
        };
        match reply {
            Ok(reply) => {
                if let Some(run) = inner.runs.lock().get_mut(key) {
                    run.note_dispatched(&job_name, reply);
                }
            }
            Err(cause) => return finish_job_set(s, key, Outcome::Failed(&job_name, cause)),
        }
    }

    // Poll every in-flight job for an exit or a failure whose broadcast
    // raced the crash (apply is idempotent, so an end the standby
    // already witnessed is a no-op here); re-arm the watchdog of the
    // others.
    let in_flight: Vec<(String, Option<String>, Option<EndpointReference>)> = {
        let runs = inner.runs.lock();
        let Some(run) = runs.get(key) else { return };
        let jobs = run.jobs.iter();
        jobs.filter(|(_, j)| j.state == JobState::Dispatched)
            .map(|(n, j)| (n.clone(), j.machine.clone(), j.job_epr.clone()))
            .collect()
    };
    for (job_name, machine, epr) in in_flight {
        let snap = epr.and_then(|epr| es::query_job(&core.net, &epr).ok());
        match snap.as_ref().and_then(JobEvent::settled) {
            Some(end) => settle(s, key, &job_name, &end),
            None => arm_watchdog(s, key, &job_name, &machine.unwrap_or_default()),
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
        assert_eq!(key_of("schedrepl/scheduler-3/submit"), None);
        assert_eq!(key_of(""), None);
    }

    /// A standby that cannot follow a set's own events still shadows
    /// the set from the replication stream, and says so once.
    #[test]
    fn a_set_the_standby_cannot_follow_is_shadowed_and_reported() {
        let registry = wsrf_obs::MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(Clock::manual(), Default::default(), &registry);
        let replica = Replica {
            runs: Mutex::default(),
            seen: AtomicUsize::new(0),
            security: None,
            broker: EndpointReference::service("inproc://nowhere/Broker"),
            listener: EndpointReference::service("inproc://hub/StandbyListener"),
            net,
        };
        let exe = FileRef::parse("local://C:\\p.exe").unwrap();
        let spec = JobSetSpec::new("s").job(JobSpec::new("j", exe));
        let credentials = ("u".to_string(), "p".to_string());
        let run = RunState::new(spec, "jobset-k".into(), credentials, None, SimTime(0), None);
        let submit = run.to_element(&None);
        replica.on_event(&NotificationMessage::new(
            TopicPath::parse("schedrepl/k/submit"),
            submit,
        ));

        assert!(replica.runs.lock().contains_key("k"));
        assert_eq!(replica.seen.load(Ordering::Relaxed), 1);
        let events = registry.events().all();
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(
            (e.kind, e.severity),
            (EventKind::OutboundFailed, Severity::Warn)
        );
        assert!(e.detail.contains("job set k "), "{}", e.detail);
    }

    /// A feedback table already in the store (a standby promoted over
    /// the primary's) is taken as it is; any other refusal is reported.
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
