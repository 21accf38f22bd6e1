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
use wsrf_core::store::{save_detached, ResourceStore};
use wsrf_core::{epr_in, Outbound};
use wsrf_obs::{SpanContext, TraceSnapshot};
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

use crate::es::{self, RunRequest};
use crate::jobset::{FileRef, JobSetSpec, JobSpec};
use crate::policy::{MachineOutcome, OutcomeKind, SchedulingPolicy};
use crate::security::GridSecurity;

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

fn q(local: &str) -> QName {
    QName::new(UVACG, local)
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Waiting,
    Dispatched,
    Completed,
    Failed,
}

struct JobRun {
    state: JobState,
    machine: Option<String>,
    dir_epr: Option<EndpointReference>,
    job_epr: Option<EndpointReference>,
    exit_code: Option<i32>,
    cpu_used: Option<f64>,
    dispatched_at: Option<SimTime>,
}

struct RunState {
    spec: JobSetSpec,
    topic: String,
    credentials: (String, String),
    client_fileserver: Option<String>,
    jobs: HashMap<String, JobRun>,
    submitted_at: SimTime,
    /// Trace context of the submission dispatch: every downstream
    /// message and Figure 3 step mark for this set parents under it.
    trace: Option<TraceContext>,
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
    let mut doc = PropertyDoc::new();
    doc.set_text(q("Policy"), inner.policy.name());
    let _ = service.core().create_resource_with_key(FEEDBACK_KEY, doc);

    // One handler for every job set this scheduler will ever run: the
    // topic root `jobset-<key>` names the set an event belongs to.
    let core = service.core().clone();
    let inner2 = inner.clone();
    listener.on_topic(TopicExpression::full("//"), move |msg| {
        if let Some(key) = jobset_key_of(&msg.topic) {
            on_event(&core, &inner2, key, msg);
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
fn report_outcome(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    machine: &str,
    kind: OutcomeKind,
) {
    // Feed the monitoring plane: job terminations become structured
    // events and per-machine SLO samples (service = machine name,
    // latency = virtual makespan). Dispatch latencies are placement
    // signal only, not completions, so they stay out of the SLO window.
    let now_ns = core.clock.now().as_nanos();
    match kind {
        OutcomeKind::Makespan { virt_ns } => {
            core.metrics
                .slo()
                .service(machine)
                .record(true, virt_ns, now_ns);
            core.metrics.events().emit(
                wsrf_obs::Severity::Info,
                wsrf_obs::EventKind::JobCompleted,
                machine,
                now_ns,
                || format!("job completed in {virt_ns} virtual ns"),
            );
        }
        OutcomeKind::Failure | OutcomeKind::Timeout => {
            core.metrics.slo().service(machine).record(false, 0, now_ns);
            core.metrics.events().emit(
                wsrf_obs::Severity::Warn,
                wsrf_obs::EventKind::JobFailed,
                machine,
                now_ns,
                || {
                    if matches!(kind, OutcomeKind::Timeout) {
                        "job timed out on machine".to_string()
                    } else {
                        "job failed on machine".to_string()
                    }
                },
            );
        }
        OutcomeKind::Dispatch { .. } => {}
    }
    inner.policy.observe(&MachineOutcome {
        machine: machine.to_string(),
        kind,
    });
    let rows = inner.policy.penalties();
    edit_doc(core, FEEDBACK_KEY, |doc| {
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
    let credentials = match &inner.security {
        Some((sec, subject)) => {
            let header = ctx.header(WSSE, "Security").ok_or_else(|| {
                BaseFault::new("uvacg:MissingCredentials", "no WS-Security header")
            })?;
            let tok = sec.decrypt_token(header, subject).map_err(|e| {
                BaseFault::new("uvacg:BadCredentials", format!("cannot decrypt: {e}"))
            })?;
            (tok.username, tok.password)
        }
        None => {
            let el = ctx.body.find(UVACG, "Credentials").ok_or_else(|| {
                BaseFault::new("uvacg:MissingCredentials", "no Credentials element")
            })?;
            (
                el.attr_value("user").unwrap_or_default().to_string(),
                el.attr_value("password").unwrap_or_default().to_string(),
            )
        }
    };

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
        doc.insert(
            q("JobStatus"),
            Element::with_name(q("JobStatus"))
                .attr("job", &j.name)
                .text("Waiting"),
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

    // Record the run.
    let submitted_at = ctx.core.clock.now();
    // Built before the spec moves into the run state; published after,
    // so the standby's view is never ahead of the primary's.
    let repl = inner.replicate.then(|| {
        let mut el = Element::new(UVACG, "ReplSubmit")
            .attr("user", &credentials.0)
            .attr("password", &credentials.1)
            .attr("topic", &topic)
            .attr("t", submitted_at.as_nanos().to_string())
            .child(spec.to_element());
        if let Some(fs) = &client_fileserver {
            el = el.attr("fileserver", fs);
        }
        el
    });
    {
        let mut runs = inner.runs.lock();
        runs.insert(
            key.clone(),
            RunState {
                jobs: spec
                    .jobs
                    .iter()
                    .map(|j| {
                        (
                            j.name.clone(),
                            JobRun {
                                state: JobState::Waiting,
                                machine: None,
                                dir_epr: None,
                                job_epr: None,
                                exit_code: None,
                                cpu_used: None,
                                dispatched_at: None,
                            },
                        )
                    })
                    .collect(),
                spec,
                topic: topic.clone(),
                credentials,
                client_fileserver,
                submitted_at,
                trace,
            },
        );
    }
    if let Some(el) = repl {
        publish(
            ctx.core,
            &inner.broker,
            &repl_topic(&key, "submit"),
            el,
            None,
        );
    }

    // Figure 3 step 1: the submission itself.
    record_steps(
        ctx.core,
        inner,
        &key,
        "*",
        &[(1, "submit")],
        ctx.core.clock.now(),
    );

    // Dispatch the first wave.
    dispatch_ready(ctx.core, inner, &key);

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
/// Must not be called while `inner.runs` is locked.
fn record_steps(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    job: &str,
    steps: &[(u8, &str)],
    at: SimTime,
) {
    record_steps_with(core, inner, key, job, steps, at, |_| {});
}

/// [`record_steps`], with `edit` applied to the job-set document first
/// in the same load/save: an event handler that has its own property
/// to write does not pay for the document twice.
fn record_steps_with(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    job: &str,
    steps: &[(u8, &str)],
    at: SimTime,
    edit: impl FnOnce(&mut PropertyDoc),
) {
    let (submitted, trace) = {
        let runs = inner.runs.lock();
        match runs.get(key) {
            Some(r) => (r.submitted_at, r.trace),
            None => return,
        }
    };
    edit_doc(core, key, |doc| {
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

/// Load, edit and save job set `key`'s resource document (skipped when
/// the resource is gone).
fn edit_doc(core: &Arc<ServiceCore>, key: &str, edit: impl FnOnce(&mut PropertyDoc)) {
    if let Ok(mut doc) = core.store.load(&core.name, key) {
        edit(&mut doc);
        let events = core.metrics.events();
        save_detached(&*core.store, events, &core.clock, &core.name, key, &doc);
    }
}

/// Every job set's events flow on topics rooted at `jobset-<key>`.
const JOBSET_TOPIC_PREFIX: &str = "jobset-";

/// The job set a topic belongs to, read off its root.
fn jobset_key_of(topic: &TopicPath) -> Option<&str> {
    topic.root().strip_prefix(JOBSET_TOPIC_PREFIX)
}

/// Replication topic for job set `key`: `schedrepl/<key>/<kind>`.
fn repl_topic(key: &str, kind: &str) -> TopicPath {
    TopicPath::parse("schedrepl").child(key).child(kind)
}

/// Handle a notification for job set `key`.
fn on_event(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    msg: &NotificationMessage,
) {
    if inner.is_crashed() {
        return;
    }
    // Topics look like `jobset-K/job/<name>/<event>`.
    let segs = &msg.topic.0;
    if segs.len() != 4 || segs[1] != "job" {
        return;
    }
    let job_name = segs[2].clone();
    let event = segs[3].as_str();
    match event {
        "dir" => {
            if let Ok(epr) = EndpointReference::from_element(&msg.payload) {
                {
                    let mut runs = inner.runs.lock();
                    if let Some(run) = runs.get_mut(key) {
                        if let Some(jr) = run.jobs.get_mut(&job_name) {
                            jr.dir_epr = Some(epr.clone());
                        }
                    }
                }
                // Figure 3 step 4: the working directory exists on the
                // chosen machine's FSS. Persist it into the job-set
                // resource so clients that lost their event history
                // (the §5 durability concern) can rediscover output
                // locations.
                record_steps_with(
                    core,
                    inner,
                    key,
                    &job_name,
                    &[(4, "workdir")],
                    core.clock.now(),
                    |doc| {
                        doc.remove_value(&q("JobDirectory"), |e| {
                            e.attr_value("job") == Some(&job_name)
                        });
                        doc.insert(
                            q("JobDirectory"),
                            epr.to_element_named(UVACG, "JobDirectory")
                                .attr("job", &job_name),
                        );
                    },
                );
            }
        }
        "started" => {
            // By the time the ES broadcasts "started", staging has
            // finished (client files over WSE-TCP, grid files via FSS
            // Read), the FSS sent its one-way upload-complete, the
            // process was spawned, and the job EPR is on the wire —
            // Figure 3 steps 5-9, observed here as one instant.
            record_steps(
                core,
                inner,
                key,
                &job_name,
                &[
                    (5, "client_stage"),
                    (6, "grid_stage"),
                    (7, "upload_complete"),
                    (8, "spawn"),
                    (9, "epr_broadcast"),
                ],
                core.clock.now(),
            );
        }
        "exit" => {
            let code: i32 = msg
                .payload
                .attr_value("code")
                .and_then(|c| c.parse().ok())
                .unwrap_or(-1);
            let cpu_used: Option<f64> = msg.payload.attr_value("cpu").and_then(|c| c.parse().ok());
            // Figure 3 step 10: the exit event reached us through the
            // broker re-broadcast.
            record_steps(
                core,
                inner,
                key,
                &job_name,
                &[(10, "exit_broadcast")],
                core.clock.now(),
            );
            if inner.is_crashed() {
                return; // killed right after step 10: the exit is lost here
            }
            apply_exit(core, inner, key, &job_name, code, cpu_used);
        }
        "failed" => {
            let machine = {
                let mut runs = inner.runs.lock();
                let mut machine = None;
                if let Some(run) = runs.get_mut(key) {
                    if let Some(jr) = run.jobs.get_mut(&job_name) {
                        jr.state = JobState::Failed;
                        machine = jr.machine.clone();
                        edit_doc(core, key, |doc| set_job_status(doc, &job_name, jr));
                    }
                }
                machine
            };
            if let Some(machine) = machine {
                report_outcome(core, inner, &machine, OutcomeKind::Failure);
            }
            fail_job_set(
                core,
                inner,
                key,
                &job_name,
                BaseFault::new(
                    "uvacg:JobFailed",
                    format!("job '{job_name}' failed: {}", msg.payload.text_content()),
                ),
            );
        }
        _ => {}
    }
}

/// Apply a job's exit, observed either through the broker broadcast or
/// by polling the job resource during failover reconciliation.
/// Idempotent: a job already in a terminal state is left untouched, so
/// a re-observed exit can never double-count or re-trigger dispatches.
///
/// Must not be called while `inner.runs` is locked.
fn apply_exit(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    job_name: &str,
    code: i32,
    cpu_used: Option<f64>,
) {
    let (all_done, outcome) = {
        let mut runs = inner.runs.lock();
        let Some(run) = runs.get_mut(key) else { return };
        let Some(jr) = run.jobs.get_mut(job_name) else {
            return;
        };
        if matches!(jr.state, JobState::Completed | JobState::Failed) {
            return; // already accounted for
        }
        jr.exit_code = Some(code);
        jr.cpu_used = cpu_used;
        jr.state = if code == 0 {
            JobState::Completed
        } else {
            JobState::Failed
        };
        edit_doc(core, key, |doc| set_job_status(doc, job_name, jr));
        // Feedback: a clean exit reports the observed per-job
        // makespan on that machine; a nonzero exit is a
        // failure mark against it.
        let outcome = jr.machine.clone().map(|machine| {
            let kind = if code == 0 {
                OutcomeKind::Makespan {
                    virt_ns: jr
                        .dispatched_at
                        .map_or(0, |t| core.clock.now().since(t).as_nanos() as u64),
                }
            } else {
                OutcomeKind::Failure
            };
            (machine, kind)
        });
        let all_done = if code != 0 {
            None // handled below as failure
        } else {
            Some(run.jobs.values().all(|j| j.state == JobState::Completed))
        };
        (all_done, outcome)
    };
    if let Some((machine, kind)) = outcome {
        report_outcome(core, inner, &machine, kind);
    }
    match all_done {
        None => {
            fail_job_set(
                core,
                inner,
                key,
                job_name,
                BaseFault::new(
                    "uvacg:JobFailed",
                    format!("job '{job_name}' exited with code {code}"),
                ),
            );
        }
        Some(true) => complete_job_set(core, inner, key),
        Some(false) => dispatch_ready(core, inner, key),
    }
}

/// Dispatch every job whose dependencies are all complete.
fn dispatch_ready(core: &Arc<ServiceCore>, inner: &Arc<SchedInner>, key: &str) {
    loop {
        if inner.is_crashed() {
            return;
        }
        // Pick one ready job under the lock; dispatch outside it (the
        // Run call triggers notifications that re-enter this module).
        let next = {
            let mut runs = inner.runs.lock();
            let Some(run) = runs.get_mut(key) else { return };
            let ready = run.spec.jobs.iter().find(|j| {
                run.jobs[&j.name].state == JobState::Waiting
                    && j.dependencies()
                        .iter()
                        .all(|d| run.jobs[*d].state == JobState::Completed)
            });
            let Some(job) = ready else { return };
            let job_name = job.name.clone();

            // Step 2: poll the NIS. (Inside the lock: a consistent
            // pick beats a stale one, and the NIS call does not
            // re-enter the scheduler.)
            let t_nis = core.clock.now();
            let nodes = match crate::nis::snapshot(&core.net, &inner.nis_address) {
                Ok(n) if !n.is_empty() => n,
                _ => {
                    drop(runs);
                    fail_job_set(
                        core,
                        inner,
                        key,
                        &job_name,
                        BaseFault::new("uvacg:NoNodes", "no machines available for scheduling"),
                    );
                    return;
                }
            };
            let Some(pick) = inner.policy.select(&nodes) else {
                drop(runs);
                fail_job_set(
                    core,
                    inner,
                    key,
                    &job_name,
                    BaseFault::new("uvacg:NoNodes", "policy rejected all machines"),
                );
                return;
            };
            let node = nodes.into_iter().nth(pick).expect("policy picked in range");

            let built = build_run_request(run, job, &node.machine, &inner.security);
            match built {
                Ok(req) => {
                    let jr = run.jobs.get_mut(&job_name).unwrap();
                    jr.state = JobState::Dispatched;
                    jr.machine = Some(node.machine.clone());
                    jr.dispatched_at = Some(core.clock.now());
                    let status = job_status_element(&job_name, jr);
                    Some((job_name, req, node.execution, node.machine, t_nis, status))
                }
                Err(fault) => {
                    drop(runs);
                    fail_job_set(core, inner, key, &job_name, fault);
                    return;
                }
            }
        };

        let Some((job_name, req, es_address, machine, t_nis, status)) = next else {
            return;
        };

        // A standby learns the placement intent before the Run leaves:
        // if we die between here and the dispatch, it re-issues the Run
        // to the same machine, where the ES deduplicates it.
        if inner.replicate {
            publish(
                core,
                &inner.broker,
                &repl_topic(key, "intent"),
                Element::new(UVACG, "ReplIntent")
                    .attr("job", &job_name)
                    .attr("machine", &machine),
                None,
            );
        }

        // Figure 3 step 2: the NIS was polled for this job's placement
        // (written together with the job's `Dispatched` status).
        record_steps_with(
            core,
            inner,
            key,
            &job_name,
            &[(2, "nis_poll")],
            t_nis,
            |doc| put_job_status(doc, &job_name, status),
        );
        if inner.is_crashed() {
            return; // killed after step 2: the Run is never issued
        }

        // Step 3: "the ES on that machine is sent a request to run a
        // job". Notifications triggered inline during this call may
        // already complete the job (zero-work programs) or even the
        // whole set; state transitions happened in on_event.
        let es_run_span = core.metrics.timer("scheduler.es_run").start(&core.clock);
        let t_run = core.clock.now();
        match es::run(&core.net, &es_address, &req) {
            Ok(reply) => {
                es_run_span.finish();
                if inner.replicate {
                    publish(
                        core,
                        &inner.broker,
                        &repl_topic(key, "dispatched"),
                        Element::new(UVACG, "ReplDispatched")
                            .attr("job", &job_name)
                            .child(reply.job.to_element_named(UVACG, "JobEpr"))
                            .child(reply.workdir.to_element_named(UVACG, "DirEpr")),
                        None,
                    );
                }
                // Feedback: the observed virtual dispatch latency for
                // this machine (zero on a manual clock, which the
                // policy discards as signal-free).
                report_outcome(
                    core,
                    inner,
                    &machine,
                    OutcomeKind::Dispatch {
                        virt_ns: core.clock.now().since(t_run).as_nanos() as u64,
                    },
                );
                record_steps(
                    core,
                    inner,
                    key,
                    &job_name,
                    &[(3, "es_run")],
                    core.clock.now(),
                );
                if inner.is_crashed() {
                    return; // killed after step 3: the reply is lost here
                }
                {
                    let mut runs = inner.runs.lock();
                    if let Some(run) = runs.get_mut(key) {
                        if let Some(jr) = run.jobs.get_mut(&job_name) {
                            jr.job_epr = Some(reply.job);
                            if jr.dir_epr.is_none() {
                                jr.dir_epr = Some(reply.workdir);
                            }
                        }
                    }
                }
                arm_watchdog(core, inner, key, &job_name, &machine);
            }
            Err(fault) => {
                let wrapped = BaseFault::new(
                    "uvacg:DispatchFailed",
                    format!("cannot run job '{job_name}' on {es_address}"),
                )
                .caused_by(fault.detail.unwrap_or_else(|| {
                    BaseFault::new("uvacg:TransportFault", fault.reason.clone())
                }));
                fail_job_set(core, inner, key, &job_name, wrapped);
                return;
            }
        }
    }
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
    let exe_as = basename(&exe_name);
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
        executable: (exe_src, exe_name, exe_as),
        inputs,
        topic: run.topic.clone(),
        security_header,
        plain_credentials,
        trace: run.trace,
    })
}

/// Watchdog: a machine that dies mid-run never sends its exit
/// notification; without a timeout the set would wait forever.
fn arm_watchdog(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    job_name: &str,
    machine: &str,
) {
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
        let timed_out = {
            let runs = inner2.runs.lock();
            runs.get(&key2)
                .and_then(|r| r.jobs.get(&name2))
                .is_some_and(|jr| jr.state == JobState::Dispatched)
        };
        if timed_out {
            report_outcome(&core2, &inner2, &machine2, OutcomeKind::Timeout);
            fail_job_set(
                &core2,
                &inner2,
                &key2,
                &name2,
                BaseFault::new(
                    "uvacg:JobTimeout",
                    format!(
                        "job '{name2}' did not finish within {} virtual seconds",
                        timeout.as_secs_f64()
                    ),
                ),
            );
        }
    });
}

fn basename(path: &str) -> String {
    path.rsplit(['/', '\\']).next().unwrap_or(path).to_string()
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

/// Mirror a job's state into a job-set document.
fn set_job_status(doc: &mut PropertyDoc, job: &str, jr: &JobRun) {
    put_job_status(doc, job, job_status_element(job, jr));
}

fn complete_job_set(core: &Arc<ServiceCore>, inner: &Arc<SchedInner>, key: &str) {
    if inner.is_crashed() {
        return;
    }
    // Terminal: the run state is released here, and the resource that
    // keeps the outcome starts its retention lease.
    let Some(run) = inner.runs.lock().remove(key) else {
        return;
    };
    let (topic, submitted_at, trace) = (run.topic, run.submitted_at, run.trace);
    let makespan = core.clock.now().since(submitted_at);
    edit_doc(core, key, |doc| {
        doc.set_text(q("Status"), set_status::COMPLETED);
        doc.set_f64(q("Makespan"), makespan.as_secs_f64());
    });
    crate::retire(core, key);
    core.metrics
        .histogram("scheduler.makespan_ns")
        .record(makespan.as_nanos() as u64);
    publish(
        core,
        &inner.broker,
        &TopicPath::parse(&topic).child("completed"),
        Element::new(UVACG, "JobSetCompleted"),
        trace.as_ref(),
    );
}

fn fail_job_set(
    core: &Arc<ServiceCore>,
    inner: &Arc<SchedInner>,
    key: &str,
    job: &str,
    cause: BaseFault,
) {
    if inner.is_crashed() {
        return;
    }
    let Some(run) = inner.runs.lock().remove(key) else {
        return;
    };
    let (topic, submitted_at, trace) = (run.topic, run.submitted_at, run.trace);
    let makespan = core.clock.now().since(submitted_at);
    let fault = BaseFault::new(
        "uvacg:JobSetFailed",
        format!("job set failed at job '{job}'"),
    )
    .at(core.clock.now().as_secs_f64())
    .from_originator(core.service_epr())
    .caused_by(cause);
    edit_doc(core, key, |doc| {
        doc.set_text(q("Status"), set_status::FAILED);
        doc.set_f64(q("Makespan"), makespan.as_secs_f64());
        doc.update(
            q("Fault"),
            vec![Element::with_name(q("Fault")).child(fault.to_element())],
        );
    });
    crate::retire(core, key);
    core.metrics
        .histogram("scheduler.makespan_ns")
        .record(makespan.as_nanos() as u64);
    publish(
        core,
        &inner.broker,
        &TopicPath::parse(&topic).child("failed"),
        Element::new(UVACG, "JobSetFailed")
            .attr("job", job)
            .child(fault.to_element()),
        trace.as_ref(),
    );
}

fn publish(
    core: &Arc<ServiceCore>,
    broker_epr: &EndpointReference,
    topic: &TopicPath,
    payload: Element,
    trace: Option<&TraceContext>,
) {
    let msg = NotificationMessage::new(topic.clone(), payload).from_producer(core.service_epr());
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

/// A standby's view of one job, reconstructed purely from the
/// primary's replication stream plus the job set's own event topics.
struct ShadowJob {
    state: JobState,
    /// An `intent` was replicated but no `dispatched` followed: the
    /// primary may or may not have issued the Run before dying. Safe
    /// either way — re-issuing is deduplicated at the ES.
    uncertain: bool,
    machine: Option<String>,
    dir_epr: Option<EndpointReference>,
    job_epr: Option<EndpointReference>,
    exit_code: Option<i32>,
    cpu_used: Option<f64>,
}

struct ShadowRun {
    spec: JobSetSpec,
    topic: String,
    credentials: (String, String),
    client_fileserver: Option<String>,
    jobs: HashMap<String, ShadowJob>,
    submitted_at: SimTime,
}

/// The standby's shadow table: unfinished sets only.
#[derive(Default)]
struct Shadows {
    live: Mutex<HashMap<String, ShadowRun>>,
    /// Sets ever shadowed, finished ones included.
    seen: AtomicUsize,
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
    shadows: Arc<Shadows>,
    cfg: SchedulerConfig,
    clock: Clock,
    net: Arc<InProcNetwork>,
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
    let shadows = Arc::new(Shadows::default());

    // One handler for both streams: the primary's replication topics
    // and every shadowed set's own `jobset-<key>` events.
    let sh = shadows.clone();
    let net2 = net.clone();
    let broker_epr = cfg.broker.clone();
    let listener_epr = listener.epr();
    listener.on_topic(
        TopicExpression::full("//"),
        move |msg| match jobset_key_of(&msg.topic) {
            Some(key) => shadow_jobset_event(&sh, key, msg),
            None => shadow_event(&sh, &net2, &broker_epr, &listener_epr, msg),
        },
    );

    Standby {
        listener,
        shadows,
        cfg,
        clock,
        net,
    }
}

/// Apply one replication event to the shadow table.
fn shadow_event(
    shadows: &Shadows,
    net: &Arc<InProcNetwork>,
    broker_epr: &EndpointReference,
    listener: &EndpointReference,
    msg: &NotificationMessage,
) {
    let segs = &msg.topic.0;
    if segs.len() != 3 || segs[0] != "schedrepl" {
        return;
    }
    let key = segs[1].clone();
    match segs[2].as_str() {
        "submit" => {
            let Some(spec_el) = msg.payload.find(UVACG, "JobSet") else {
                return;
            };
            let Some(spec) = JobSetSpec::from_element(spec_el) else {
                return;
            };
            let topic = msg
                .payload
                .attr_value("topic")
                .unwrap_or_default()
                .to_string();
            let submitted_at = SimTime(
                msg.payload
                    .attr_value("t")
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(0),
            );
            let jobs = spec
                .jobs
                .iter()
                .map(|j| {
                    (
                        j.name.clone(),
                        ShadowJob {
                            state: JobState::Waiting,
                            uncertain: false,
                            machine: None,
                            dir_epr: None,
                            job_epr: None,
                            exit_code: None,
                            cpu_used: None,
                        },
                    )
                })
                .collect();
            let run = ShadowRun {
                topic: topic.clone(),
                credentials: (
                    msg.payload
                        .attr_value("user")
                        .unwrap_or_default()
                        .to_string(),
                    msg.payload
                        .attr_value("password")
                        .unwrap_or_default()
                        .to_string(),
                ),
                client_fileserver: msg.payload.attr_value("fileserver").map(str::to_string),
                jobs,
                submitted_at,
                spec,
            };
            shadows.live.lock().insert(key, run);
            shadows.seen.fetch_add(1, Ordering::Relaxed);
            // Follow the set's own event stream too: a dir or exit the
            // standby saw with its own eyes survives any primary crash.
            let expr = TopicExpression::full(&format!("{topic}//"));
            let _ = broker::subscribe(net, broker_epr, listener, &expr, None);
        }
        "intent" => {
            let mut shadows = shadows.live.lock();
            let Some(run) = shadows.get_mut(&key) else {
                return;
            };
            let Some(job) = msg.payload.attr_value("job") else {
                return;
            };
            if let Some(jr) = run.jobs.get_mut(job) {
                if jr.state == JobState::Waiting {
                    jr.uncertain = true;
                    jr.machine = msg.payload.attr_value("machine").map(str::to_string);
                }
            }
        }
        "dispatched" => {
            let mut shadows = shadows.live.lock();
            let Some(run) = shadows.get_mut(&key) else {
                return;
            };
            let Some(job) = msg.payload.attr_value("job") else {
                return;
            };
            if let Some(jr) = run.jobs.get_mut(job) {
                jr.uncertain = false;
                if jr.state == JobState::Waiting {
                    jr.state = JobState::Dispatched;
                }
                if let Some(e) = msg.payload.find(UVACG, "JobEpr") {
                    if let Ok(epr) = EndpointReference::from_element(e) {
                        jr.job_epr = Some(epr);
                    }
                }
                if jr.dir_epr.is_none() {
                    if let Some(e) = msg.payload.find(UVACG, "DirEpr") {
                        if let Ok(epr) = EndpointReference::from_element(e) {
                            jr.dir_epr = Some(epr);
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

/// Maintain a shadow from the job set's own notification topic.
fn shadow_jobset_event(shadows: &Shadows, key: &str, msg: &NotificationMessage) {
    let segs = &msg.topic.0;
    let mut shadows = shadows.live.lock();
    if segs.len() == 2 && (segs[1] == "completed" || segs[1] == "failed") {
        // The primary finished the set before dying: nothing to adopt.
        shadows.remove(key);
        return;
    }
    let Some(run) = shadows.get_mut(key) else {
        return;
    };
    if segs.len() != 4 || segs[1] != "job" {
        return;
    }
    let Some(jr) = run.jobs.get_mut(segs[2].as_str()) else {
        return;
    };
    match segs[3].as_str() {
        "dir" => {
            if let Ok(epr) = EndpointReference::from_element(&msg.payload) {
                jr.dir_epr = Some(epr);
            }
        }
        "started" => {
            // Staging finished and the process spawned: the Run
            // definitely reached the machine.
            jr.uncertain = false;
            if jr.state == JobState::Waiting {
                jr.state = JobState::Dispatched;
            }
        }
        "exit" => {
            if matches!(jr.state, JobState::Completed | JobState::Failed) {
                return;
            }
            let code: i32 = msg
                .payload
                .attr_value("code")
                .and_then(|c| c.parse().ok())
                .unwrap_or(-1);
            jr.exit_code = Some(code);
            jr.cpu_used = msg.payload.attr_value("cpu").and_then(|c| c.parse().ok());
            jr.uncertain = false;
            jr.state = if code == 0 {
                JobState::Completed
            } else {
                JobState::Failed
            };
            if let Some(e) = msg.payload.find(UVACG, "JobEpr") {
                if let Ok(epr) = EndpointReference::from_element(e) {
                    jr.job_epr = Some(epr);
                }
            }
        }
        "failed" => {
            jr.state = JobState::Failed;
        }
        _ => {}
    }
}

impl Standby {
    /// Number of job sets shadowed so far (diagnostics). Finished sets
    /// count, though their shadow is released at the terminal event.
    pub fn shadow_count(&self) -> usize {
        self.shadows.seen.load(Ordering::Relaxed)
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
            shadows,
            cfg,
            clock,
            net,
        } = self;
        let scheduler = scheduler_service(address, cfg, clock, net.clone());
        scheduler.register(&net);
        let core = scheduler.service.core().clone();
        let inner = scheduler.inner.clone();

        // Adopt every unfinished shadow and collect reconcile work.
        let mut reissues: Vec<(String, String, String, RunRequest)> = Vec::new();
        let mut polls: Vec<(String, String, EndpointReference)> = Vec::new();
        let mut adopted: Vec<String> = Vec::new();
        {
            let mut runs = inner.runs.lock();
            for (key, sh) in shadows.live.lock().drain() {
                let uncertain: Vec<String> = sh
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.uncertain && j.state == JobState::Waiting)
                    .map(|(n, _)| n.clone())
                    .collect();
                let now = core.clock.now();
                let run = RunState {
                    jobs: sh
                        .jobs
                        .into_iter()
                        .map(|(n, j)| {
                            let state = if j.uncertain && j.state == JobState::Waiting {
                                JobState::Dispatched
                            } else {
                                j.state
                            };
                            (
                                n,
                                JobRun {
                                    state,
                                    machine: j.machine,
                                    dir_epr: j.dir_epr,
                                    job_epr: j.job_epr,
                                    exit_code: j.exit_code,
                                    cpu_used: j.cpu_used,
                                    dispatched_at: (state == JobState::Dispatched).then_some(now),
                                },
                            )
                        })
                        .collect(),
                    spec: sh.spec,
                    topic: sh.topic,
                    credentials: sh.credentials,
                    client_fileserver: sh.client_fileserver,
                    submitted_at: sh.submitted_at,
                    trace: None,
                };
                for name in &uncertain {
                    let Some(job) = run.spec.jobs.iter().find(|j| j.name == *name) else {
                        continue;
                    };
                    let machine = run.jobs[name].machine.clone().unwrap_or_default();
                    if let Ok(req) = build_run_request(&run, job, &machine, &inner.security) {
                        reissues.push((key.clone(), name.clone(), machine, req));
                    }
                }
                for (n, j) in &run.jobs {
                    if j.state == JobState::Dispatched && !uncertain.contains(n) {
                        if let Some(epr) = &j.job_epr {
                            polls.push((key.clone(), n.clone(), epr.clone()));
                        }
                    }
                }
                // What the standby witnessed supersedes what the
                // primary last wrote into the job-set resource.
                edit_doc(&core, &key, |doc| {
                    for j in &run.spec.jobs {
                        set_job_status(doc, &j.name, &run.jobs[&j.name]);
                    }
                });
                adopted.push(key.clone());
                runs.insert(key, run);
            }
        }

        // Re-issue uncertain dispatches to their recorded machine: if
        // the primary's Run made it there, the ES returns the existing
        // job instead of staging and spawning a duplicate.
        let nodes = crate::nis::snapshot(&net, &inner.nis_address).unwrap_or_default();
        for (key, job_name, machine, req) in reissues {
            let Some(node) = nodes.iter().find(|n| n.machine == machine) else {
                fail_job_set(
                    &core,
                    &inner,
                    &key,
                    &job_name,
                    BaseFault::new(
                        "uvacg:NoNodes",
                        format!("machine '{machine}' vanished during failover"),
                    ),
                );
                continue;
            };
            match es::run(&net, &node.execution, &req) {
                Ok(reply) => {
                    let mut runs = inner.runs.lock();
                    if let Some(run) = runs.get_mut(&key) {
                        if let Some(jr) = run.jobs.get_mut(&job_name) {
                            jr.job_epr = Some(reply.job);
                            if jr.dir_epr.is_none() {
                                jr.dir_epr = Some(reply.workdir);
                            }
                        }
                    }
                }
                Err(fault) => {
                    let wrapped = BaseFault::new(
                        "uvacg:DispatchFailed",
                        format!("cannot re-issue job '{job_name}' on {}", node.execution),
                    )
                    .caused_by(fault.detail.unwrap_or_else(|| {
                        BaseFault::new("uvacg:TransportFault", fault.reason.clone())
                    }));
                    fail_job_set(&core, &inner, &key, &job_name, wrapped);
                }
            }
        }

        // Poll in-flight jobs for exits whose broadcast raced the
        // crash (apply_exit is idempotent, so an exit the standby
        // already witnessed is a no-op here).
        for (key, job_name, epr) in polls {
            if let Ok(snap) = es::query_job(&net, &epr) {
                if snap.status == es::status::EXITED {
                    apply_exit(
                        &core,
                        &inner,
                        &key,
                        &job_name,
                        snap.exit_code.unwrap_or(-1) as i32,
                        Some(snap.cpu_time),
                    );
                }
            }
        }

        // Re-arm watchdogs and drive every adopted set forward.
        for key in &adopted {
            let (dispatched, all_done) = {
                let runs = inner.runs.lock();
                let Some(run) = runs.get(key) else { continue };
                let dispatched: Vec<(String, String)> = run
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.state == JobState::Dispatched)
                    .map(|(n, j)| (n.clone(), j.machine.clone().unwrap_or_default()))
                    .collect();
                let all_done = run.jobs.values().all(|j| j.state == JobState::Completed);
                (dispatched, all_done)
            };
            for (name, machine) in dispatched {
                arm_watchdog(&core, &inner, key, &name, &machine);
            }
            if all_done {
                complete_job_set(&core, &inner, key);
            } else {
                dispatch_ready(&core, &inner, key);
            }
        }

        scheduler
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
}
