//! The Execution Service (§4.2).
//!
//! "The ES's WS-Resources are jobs, meaning that clients can interact
//! with their job by calling methods on the ES. Currently, these
//! methods allow the client to kill the job or to inquire about its
//! exit code (if it has exited). Each job resource has two Resource
//! Properties that allow clients to retrieve the job's status
//! (running, exited, etc.) and the job's CPU time used so far."
//!
//! The `Run` flow reproduces the paper's step-by-step behaviour:
//! create a working directory via the FSS (its EPR becomes the job's
//! working directory and is broadcast so the Scheduler can "fill in"
//! downstream input locations), direct the FSS to upload the inputs
//! and executable (one-way), and — on the upload-complete notification
//! — start the process via ProcSpawn under the user credentials that
//! arrived in the encrypted WS-Security header. Process exit flows
//! back as a notification carrying the exit code, which the ES
//! re-broadcasts through the Notification Broker.

use std::sync::Arc;

use grid_node::{Machine, ProcSpawn};
use parking_lot::Mutex;
use simclock::Clock;
use ws_notification::message::NotificationMessage;
use wsrf_core::container::{
    action_uri, Ctx, OpKind, Service, ServiceBuilder, ServiceCore, WriteRefused,
};
use wsrf_core::faults;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::ResourceStore;
use wsrf_core::{epr_in, Outbound, ResourceProxy};
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::Element;

use crate::fss;
use crate::job::{JobEvent, JobLife, Step};
use crate::q;
use crate::security::{open_credentials, GridSecurity};
use crate::TERMINAL_RETENTION;

pub use crate::job::{status, JobSnapshot};

/// The job key reference property (Clark form).
pub fn job_key_property() -> String {
    format!("{{{UVACG}}}JobKey")
}

/// Longest accepted derived job key, in bytes (store backends frame
/// keys with a 16-bit length, and both parts are caller-supplied text).
const MAX_JOB_KEY: usize = 4096;

/// Resource key of the job a `Run` carrying `topic` creates. The topic
/// is length-prefixed because job names are user text: no two
/// `(topic, job_name)` pairs share a key, whatever separators they
/// contain.
fn job_key_for(topic: &str, job_name: &str) -> String {
    format!("{}:{topic}/{job_name}", topic.len())
}

/// EPR of the job a `Run` for `job_name` carrying `topic` created at
/// the Execution Service at `es_address`.
pub(crate) fn job_epr(es_address: &str, topic: &str, job_name: &str) -> EndpointReference {
    EndpointReference::resource(es_address, job_key_property(), job_key_for(topic, job_name))
}

/// Deployment configuration for one machine's Execution Service.
pub struct EsConfig {
    /// The machine to execute on.
    pub machine: Arc<Machine>,
    /// Its process spawner.
    pub spawner: Arc<ProcSpawn>,
    /// The machine's File System Service address.
    pub fss_address: String,
    /// Broker to publish job events through (None disables events).
    pub broker: Option<EndpointReference>,
    /// Campus PKI + this service's enrolled subject name; None accepts
    /// plaintext `<Credentials>` elements instead (an insecure grid —
    /// `GridConfig` without `secure()` — and the ES unit tests).
    pub security: Option<(Arc<GridSecurity>, String)>,
    /// Resource state backend: the job resources and, in the
    /// [`STAGING`] table, each staging job's spawn inputs, so an ES
    /// restarted over the same store finishes the jobs it accepted.
    pub store: Arc<dyn ResourceStore>,
}

/// The store table of staging records, one per job from its `Run` to its
/// `UploadComplete` under the job's key: the staged-as executable, the
/// credentials as they arrived (sealed to this ES on a secure grid) and
/// the `Run`'s trace context. No EPR names it, so no WS-RP read reaches
/// the credentials.
pub const STAGING: &str = "ExecutionStaging";

/// A job as its events name it: its resource, and its place in a set.
#[derive(Clone)]
struct JobId {
    key: String,
    epr: EndpointReference,
    topic: String,
    name: String,
}

/// The deployment every operation shares; job state is in the store.
struct EsRuntime {
    /// Held from `Run`'s idempotency lookup until the job resource
    /// exists, so racing duplicates cannot both stage.
    accepting: Mutex<()>,
    machine: Arc<Machine>,
    fss_address: String,
    security: Option<(Arc<GridSecurity>, String)>,
    spawner: Arc<ProcSpawn>,
    broker: Option<EndpointReference>,
}

/// Build the Execution Service for one machine.
pub fn execution_service(cfg: EsConfig, clock: Clock, net: Arc<InProcNetwork>) -> Arc<Service> {
    let address = format!("inproc://{}/Execution", cfg.machine.spec.name);
    let runtime = Arc::new(EsRuntime {
        accepting: Mutex::new(()),
        machine: cfg.machine,
        fss_address: cfg.fss_address,
        security: cfg.security,
        spawner: cfg.spawner,
        broker: cfg.broker,
    });

    let rt_run = runtime.clone();
    let rt_upload = runtime.clone();
    let rt_kill = runtime.clone();
    let rt_cpu = runtime.clone();

    ServiceBuilder::new("Execution", address, cfg.store)
        .key_property(job_key_property())
        .static_operation("Run", move |ctx| run_op(ctx, &rt_run))
        .raw_operation(
            action_uri("Execution", "UploadComplete"),
            OpKind::Static,
            move |ctx| upload_complete_op(ctx, &rt_upload),
        )
        .raw_operation(
            action_uri("Execution", "Kill"),
            OpKind::Static,
            move |ctx| kill_op(ctx, &rt_kill),
        )
        .read_operation("GetExitCode", |ctx| {
            let doc = ctx.resource()?;
            match doc.text(&q("ExitCode")) {
                Some(code) => Ok(Element::new(UVACG, "GetExitCodeResponse").text(code)),
                None => Err(BaseFault::new(
                    "uvacg:NotExited",
                    format!(
                        "job has not exited (status: {})",
                        doc.text(&q("Status")).unwrap_or_default()
                    ),
                )),
            }
        })
        .read_operation("QueryJob", |ctx| {
            // One-call job snapshot (name, status, exit code, CPU time)
            // for pollers that would otherwise issue several
            // GetResourceProperty round trips; runs under a shared
            // lease so concurrent pollers never serialize each other.
            let doc = ctx.resource()?;
            let mut resp = Element::new(UVACG, "QueryJobResponse")
                .attr("name", doc.text(&q("JobName")).unwrap_or_default())
                .attr("status", doc.text(&q("Status")).unwrap_or_default());
            if let Some(code) = doc.text(&q("ExitCode")) {
                resp = resp.attr("exitCode", code);
            }
            if let Some(reason) = doc.text(&q("FailureReason")) {
                resp = resp.attr("reason", reason);
            }
            for v in ctx.core.property_values(doc, &q("CpuTimeUsed")) {
                resp = resp.attr("cpu", v.text_content());
            }
            Ok(resp)
        })
        .computed_property(q("CpuTimeUsed"), move |doc, _now| {
            // "the job's CPU time used so far": live from the process
            // table while running, frozen at exit.
            let live = doc
                .i64(&q("Pid"))
                .and_then(|pid| rt_cpu.spawner.status(pid as u64))
                .map(|s| match s {
                    grid_node::ProcStatus::Running { cpu_used } => cpu_used,
                    grid_node::ProcStatus::Done { cpu_used, .. } => cpu_used,
                });
            let value = live.or_else(|| doc.f64(&q("CpuAtExit"))).unwrap_or(0.0);
            vec![Element::with_name(q("CpuTimeUsed")).text(format!("{value:.6}"))]
        })
        .build(clock, net)
}

fn run_op(ctx: &mut Ctx<'_>, rt: &Arc<EsRuntime>) -> Result<Element, BaseFault> {
    let job_name = ctx
        .body
        .attr_value("jobName")
        .ok_or_else(|| faults::bad_request("Run requires jobName"))?
        .to_string();
    let topic = ctx
        .body
        .find(UVACG, "Topic")
        .map(|e| e.text_content())
        .unwrap_or_default();

    // Fail fast on bad credentials — ProcSpawn would reject them later
    // anyway, but a synchronous fault reaches the submitter directly.
    let header = ctx.header(WSSE, "Security");
    let plain = ctx.body.find(UVACG, "Credentials");
    let (user, password) = open_credentials(&rt.security, header, plain)?;
    if !rt.machine.check_credentials(&user, &password) {
        return Err(BaseFault::new(
            "uvacg:BadCredentials",
            format!("user '{user}' cannot log on to '{}'", rt.machine.spec.name),
        ));
    }

    // Idempotent Run: a scheduler retrying after failover must not
    // stage or spawn a job this machine already accepted. The
    // (Topic, JobName) pair identifies the attempt across retries, so
    // it *is* the resource key: the check is one keyed load, survives a
    // restart on a durable store, and a duplicate answers with the
    // accepted job's response.
    let derived_key = (!topic.is_empty()).then(|| job_key_for(&topic, &job_name));
    if derived_key.as_ref().is_some_and(|k| k.len() > MAX_JOB_KEY) {
        return Err(faults::bad_request("Topic and jobName are too long"));
    }
    let accepting = rt.accepting.lock();
    if let Some(key) = &derived_key {
        if let Ok((doc, _)) = ctx.core.share_live(key) {
            let mut resp = Element::new(UVACG, "RunResponse")
                .child(ctx.core.epr_for(key).to_element_named(UVACG, "JobEpr"));
            if let Some(wd) = doc.get(&q("WorkingDirectory")).first() {
                resp.push_child(wd.clone());
            }
            return Ok(resp);
        }
    }

    // Decode executable + inputs.
    let decode_file = |fe: &Element| -> Result<(EndpointReference, String, String), BaseFault> {
        let name = fe
            .attr_value("name")
            .ok_or_else(|| faults::bad_request("file element requires name"))?
            .to_string();
        let as_name = fe
            .attr_value("as")
            .map(str::to_string)
            .unwrap_or_else(|| name.clone());
        let src = fe
            .find(UVACG, "SourceEpr")
            .ok_or_else(|| faults::bad_request("file element requires SourceEpr"))?;
        let epr = EndpointReference::from_element(src)
            .map_err(|e| faults::bad_request(&format!("bad SourceEpr: {e}")))?;
        Ok((epr, name, as_name))
    };
    let exe_el = ctx
        .body
        .find(UVACG, "Executable")
        .ok_or_else(|| faults::bad_request("Run requires Executable"))?;
    let exe = decode_file(exe_el)?;
    let mut uploads = vec![exe.clone()];
    for ie in ctx.body.find_all(UVACG, "Input") {
        uploads.push(decode_file(ie)?);
    }

    // Step 4: create the working directory on our FSS, leased as long
    // as a finished job is kept; the Scheduler renews it while its set
    // runs.
    let trace = ctx.trace;
    let lease = Some(TERMINAL_RETENTION);
    let (dir_epr, dir_path) =
        fss::create_directory(&ctx.core.net, &rt.fss_address, lease, trace.as_ref())
            .map_err(|e| faults::storage(&format!("cannot create working directory: {e}")))?;

    // Create the job resource.
    let mut doc = PropertyDoc::new();
    doc.set_text(q("JobName"), &job_name);
    doc.set_text(q("Status"), status::STAGING);
    doc.set_text(q("Topic"), &topic);
    doc.set_text(q("WorkdirPath"), &dir_path);
    doc.update(
        q("WorkingDirectory"),
        vec![dir_epr
            .to_element_named(UVACG, "WorkingDirectory")
            .attr("job", &job_name)],
    );
    // The staging record goes first, so no job resource exists that no
    // upload could start; the credentials are stored as they arrived.
    let mut record = PropertyDoc::new();
    record.set_text(q("Executable"), &exe.2);
    if let Some(sealed) = if rt.security.is_some() { header } else { plain } {
        record.insert(sealed.name.clone(), sealed.clone());
    }
    if let Some(tc) = &trace {
        record.set_text(q("TraceParent"), tc.to_traceparent());
    }
    let job_key = derived_key.unwrap_or_else(|| ctx.core.fresh_key());
    let store = &ctx.core.store;
    store
        .create(STAGING, &job_key, &record)
        .map_err(faults::from_store)?;
    let job_epr = ctx
        .core
        .create_resource_with_key(&job_key, doc)
        .inspect_err(|_| {
            // Already faulting, and no upload will claim the record.
            let _ = store.destroy(STAGING, &job_key);
        })?;
    drop(accepting);
    let id = JobId {
        key: job_key,
        epr: job_epr,
        topic,
        name: job_name,
    };

    // Step 9 (first half): broadcast the working directory EPR so the
    // Scheduler can fill in downstream file locations and the client
    // can watch the directory.
    let dir = JobEvent::Dir(dir_epr.clone()).message(&id.topic, &id.name, &id.epr);
    rt.publish(ctx.core, dir, trace.as_ref());

    // Step 4/5/6: one-way upload request; completion will arrive as a
    // one-way UploadComplete addressed to this job resource. A request
    // that cannot leave fails the job here (no upload will complete
    // it), and the caller hears of it only as this fault.
    if let Err(e) = fss::upload_files(
        &ctx.core.net,
        &dir_epr,
        &uploads,
        Some(&id.epr),
        &action_uri("Execution", "UploadComplete"),
        &id.key,
        trace.as_ref(),
    ) {
        let why = format!("cannot request upload: {e}");
        // Already faulting, and no upload will claim the record.
        let _ = ctx.core.store.destroy(STAGING, &id.key);
        // A refused write leaves a `StoreWriteDropped` event.
        let _ = rt.advance(ctx.core, &id, Step::Faulted(why.clone()), trace.as_ref());
        return Err(faults::storage(&why));
    }

    Ok(Element::new(UVACG, "RunResponse")
        .child(id.epr.to_element_named(UVACG, "JobEpr"))
        .child(dir_epr.to_element_named(UVACG, "WorkingDirectory")))
}

fn upload_complete_op(ctx: &mut Ctx<'_>, rt: &Arc<EsRuntime>) -> Result<Element, BaseFault> {
    let key = ctx.key()?.to_string();
    let trace = ctx.trace;
    let core = ctx.core.clone();
    // Take the staging record first: the destroy that succeeds is the
    // claim, so a duplicate finds none, and a job destroyed while it
    // staged leaves no credentials behind.
    let record = core.store.share(STAGING, &key).ok();
    let record = record.filter(|_| core.store.destroy(STAGING, &key).is_ok());
    let (doc, _) = core.share_live(&key).map_err(faults::from_store)?;
    let Some(record) = record else {
        return Err(BaseFault::new(
            "uvacg:UnexpectedUpload",
            format!("job '{key}' has no pending upload"),
        ));
    };
    let text = |doc: &PropertyDoc, name| doc.text(&q(name)).unwrap_or_default();
    let id = JobId {
        epr: core.epr_for(&key),
        topic: text(&doc, "Topic"),
        name: text(&doc, "JobName"),
        key,
    };
    let gone = || faults::no_such_resource(&id.key);

    // A failed file, or credentials that no longer open, abort the job.
    let failure = |f: &Element| {
        let file = f.attr_value("file").unwrap_or("?");
        format!("{file}: {}", f.text_content())
    };
    let failures: Vec<String> = ctx.body.find_all(UVACG, "Failure").map(failure).collect();
    let staged = if failures.is_empty() {
        let sealed = |local| record.get_local(local).first();
        let opened = open_credentials(&rt.security, sealed("Security"), sealed("Credentials"));
        opened.map_err(|f| f.description)
    } else {
        Err(failures.join("; "))
    };
    // Step 8: start the process via ProcSpawn. Running is persisted and
    // "started" broadcast BEFORE spawning (step 9, second half: the
    // job's EPR, so anyone may poll its Status): a zero-work program's
    // exit callback runs inline inside spawn().
    let step = Step::Staged(staged.as_ref().map(drop).map_err(String::clone));
    rt.advance(&core, &id, step, trace.as_ref())?
        .ok_or_else(gone)?;
    let Ok((user, password)) = staged else {
        return Ok(Element::new(UVACG, "UploadCompleteAck"));
    };

    let workdir = text(&doc, "WorkdirPath");
    let exe_path = format!("{workdir}/{}", text(&record, "Executable"));
    let (core_exit, rt_exit, id_exit) = (core.clone(), rt.clone(), id.clone());
    // The exit broadcast is causally part of the submission even when
    // the process outlives the UploadComplete dispatch: parent it under
    // the Run's trace, not the (already-finished) dispatch span.
    let run_trace = record.text(&q("TraceParent"));
    let trace_exit = run_trace.and_then(|t| TraceContext::parse(&t)).or(trace);
    let spawned = rt
        .spawner
        .spawn(&exe_path, &workdir, &user, &password, move |code, cpu| {
            // Step 10: the process exited; record and re-broadcast.
            let step = Step::Exited { code, cpu };
            // Nobody to tell of a refused write: dropping it leaves a
            // `StoreWriteDropped` event.
            let _ = rt_exit.advance(&core_exit, &id_exit, step, trace_exit.as_ref());
        });
    let step = Step::Spawned(spawned.map_err(|e| e.to_string()));
    rt.advance(&core, &id, step, trace.as_ref())?
        .ok_or_else(gone)?;
    Ok(Element::new(UVACG, "UploadCompleteAck"))
}

impl EsRuntime {
    /// Move job `id` one step through its life: apply `step` to its
    /// resource under [`ServiceCore::edit`] ([`JobLife::apply`], or
    /// [`JobLife::gone`] when there is none), give a job that ended its
    /// retention lease, and broadcast what happened. `Ok(None)` when the
    /// resource is gone. A refused write is returned after the fact is
    /// acted on: the step happened all the same.
    fn advance<'c>(
        &self,
        core: &'c Arc<ServiceCore>,
        id: &JobId,
        step: Step,
        trace: Option<&TraceContext>,
    ) -> Result<Option<()>, WriteRefused<'c>> {
        let (mut change, mut lease) = (None, None);
        let edited = core.edit(&id.key, |doc| {
            let applied = JobLife::apply(doc, step.clone());
            if applied.retire {
                lease = crate::retire(doc, core.clock.now());
            }
            change = Some(applied);
        });
        if let Some(at) = lease {
            core.arm_lease(&id.key, at);
        }
        let change = change.unwrap_or_else(|| JobLife::gone(step));
        if let Some(event) = change.event {
            self.publish(core, event.message(&id.topic, &id.name, &id.epr), trace);
        }
        edited
    }

    /// Publish an event through the broker (silently skipped when no
    /// broker is deployed).
    fn publish(&self, core: &ServiceCore, msg: NotificationMessage, trace: Option<&TraceContext>) {
        let Some(b) = &self.broker else { return };
        // Nobody to tell: a failed send leaves an `OutboundFailed` event.
        let _ = msg.outbound(b).trace(trace).send(&core.net);
    }
}

fn kill_op(ctx: &mut Ctx<'_>, rt: &Arc<EsRuntime>) -> Result<Element, BaseFault> {
    let key = ctx.key()?;
    let (doc, _) = ctx.core.share_live(key).map_err(faults::from_store)?;
    let pid = doc
        .i64(&q("Pid"))
        .ok_or_else(|| BaseFault::new("uvacg:NotRunning", "job has no process"))?;
    let killed = rt.spawner.kill(pid as u64);
    // The exit callback updates the resource and broadcasts.
    Ok(Element::new(UVACG, "KillResponse").attr("killed", killed.to_string()))
}

// ---------------------------------------------------------------------
// Client-side helpers
// ---------------------------------------------------------------------

/// A decoded `Run` request (helper for the Scheduler and tests).
pub struct RunRequest {
    /// Job name within its set.
    pub job_name: String,
    /// Executable `(source, filename, staged-as)`.
    pub executable: (EndpointReference, String, String),
    /// Inputs `(source, filename, staged-as)`.
    pub inputs: Vec<(EndpointReference, String, String)>,
    /// Notification topic base for this job set.
    pub topic: String,
    /// Encrypted WS-Security header (secure deployments).
    pub security_header: Option<Element>,
    /// Plaintext credentials (insecure deployments).
    pub plain_credentials: Option<(String, String)>,
    /// Trace context to stamp on the `Run` message (step 3), parenting
    /// the ES dispatch under the caller's span tree.
    pub trace: Option<TraceContext>,
}

/// The useful parts of a `RunResponse`.
#[derive(Debug, Clone)]
pub struct RunReply {
    /// The job's EPR (poll its `Status` / `CpuTimeUsed`, or `Kill` it).
    pub job: EndpointReference,
    /// The working directory's EPR (fetch outputs from here).
    pub workdir: EndpointReference,
}

/// Invoke `Run` on an Execution Service.
pub fn run(net: &InProcNetwork, es_address: &str, req: &RunRequest) -> Result<RunReply, SoapFault> {
    let file_el = |tag: &str, (src, name, as_name): &(EndpointReference, String, String)| {
        Element::new(UVACG, tag)
            .attr("name", name)
            .attr("as", as_name)
            .child(src.to_element_named(UVACG, "SourceEpr"))
    };
    let mut body = Element::new(UVACG, "Run")
        .attr("jobName", &req.job_name)
        .child(Element::new(UVACG, "Topic").text(&req.topic))
        .child(file_el("Executable", &req.executable));
    for i in &req.inputs {
        body.push_child(file_el("Input", i));
    }
    if let Some((u, p)) = &req.plain_credentials {
        body.push_child(
            Element::new(UVACG, "Credentials")
                .attr("user", u)
                .attr("password", p),
        );
    }
    let resp = Outbound::new(
        EndpointReference::service(es_address),
        action_uri("Execution", "Run"),
        body,
    )
    .header(req.security_header.clone())
    .trace(req.trace.as_ref())
    .call(net)?;
    Ok(RunReply {
        job: epr_in(&resp, UVACG, "JobEpr")?,
        workdir: epr_in(&resp, UVACG, "WorkingDirectory")?,
    })
}

/// Kill a job by its EPR.
pub fn kill(net: &InProcNetwork, job: &EndpointReference) -> Result<bool, SoapFault> {
    let resp = Outbound::new(
        job.clone(),
        action_uri("Execution", "Kill"),
        Element::new(UVACG, "Kill"),
    )
    .call(net)?;
    Ok(resp.body.attr_value("killed") == Some("true"))
}

/// Read a job's `Status` resource property ("allowing either to poll
/// the job for its status (with GetResourceProperty calls)").
pub fn job_status(net: &InProcNetwork, job: &EndpointReference) -> Result<String, SoapFault> {
    ResourceProxy::new(net, job.clone()).get_text("Status")
}

/// Read a job's live `CpuTimeUsed` resource property.
pub fn job_cpu_time(net: &InProcNetwork, job: &EndpointReference) -> Result<f64, SoapFault> {
    ResourceProxy::new(net, job.clone()).get_f64("CpuTimeUsed")
}

/// Poll a job with a single `QueryJob` call instead of one
/// `GetResourceProperty` round trip per property.
pub fn query_job(net: &InProcNetwork, job: &EndpointReference) -> Result<JobSnapshot, SoapFault> {
    let resp = Outbound::new(
        job.clone(),
        action_uri("Execution", "QueryJob"),
        Element::new(UVACG, "QueryJob"),
    )
    .call(net)?;
    let attr = |name| resp.body.attr_value(name);
    Ok(JobSnapshot {
        name: attr("name").unwrap_or_default().to_string(),
        status: attr("status").unwrap_or_default().to_string(),
        exit_code: attr("exitCode").and_then(|c| c.parse().ok()),
        cpu_time: attr("cpu").and_then(|c| c.parse().ok()).unwrap_or(0.0),
        reason: attr("reason").map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_node::{JobProgram, MachineSpec};
    use std::time::Duration;
    use ws_notification::broker::notification_broker;
    use ws_notification::consumer::NotificationListener;
    use ws_notification::topics::TopicExpression;
    use wsrf_core::store::{MemoryStore, StoreError};
    use wsrf_security::wsse::UsernameToken;
    use wsrf_soap::Envelope;

    struct Fixture {
        clock: Clock,
        net: Arc<InProcNetwork>,
        machine: Arc<Machine>,
        listener: NotificationListener,
        fss: Arc<Service>,
        es: Arc<Service>,
        broker: EndpointReference,
        security: Option<(Arc<GridSecurity>, String)>,
        es_addr: String,
        fss_addr: String,
    }

    /// A user of the fixture machine whose password the staging-record
    /// tests look for wherever it must not be.
    const SECRET_USER: &str = "carol";
    const SECRET_PASSWORD: &str = "staging-secret-7f3a9c";

    /// Full single-machine deployment: FSS + ES + broker + listener.
    fn fixture() -> Fixture {
        fixture_on(Arc::new(MemoryStore::new()))
    }

    /// [`fixture`] with the ES state on `es_store`.
    fn fixture_on(es_store: Arc<dyn ResourceStore>) -> Fixture {
        fixture_with(es_store, None)
    }

    /// [`fixture_on`] with the ES accepting only credentials sealed to
    /// `security`'s subject when it is set.
    fn fixture_with(
        es_store: Arc<dyn ResourceStore>,
        security: Option<(Arc<GridSecurity>, String)>,
    ) -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machine = Machine::new(
            MachineSpec::new("m1")
                .with_cpu_mhz(1000)
                .with_user("alice", "pw")
                .with_user(SECRET_USER, SECRET_PASSWORD),
            clock.clone(),
        );
        let fss = fss::file_system_service(
            "m1",
            machine.fs.clone(),
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        fss.register(&net);
        let broker = notification_broker(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        broker.register(&net);
        let listener = NotificationListener::register(&net, "inproc://client/listener");
        ws_notification::broker::subscribe(
            &net,
            &broker.core().service_epr(),
            &listener.epr(),
            &TopicExpression::full("js//"),
            None,
        )
        .unwrap();
        let broker = broker.core().service_epr();
        let es = deploy_es(&clock, &net, &machine, &broker, &security, es_store);
        Fixture {
            clock,
            net,
            machine,
            listener,
            fss,
            es,
            broker,
            security,
            es_addr: "inproc://m1/Execution".into(),
            fss_addr: "inproc://m1/FileSystem".into(),
        }
    }

    /// Deploy the machine's ES over `store` at its address.
    fn deploy_es(
        clock: &Clock,
        net: &Arc<InProcNetwork>,
        machine: &Arc<Machine>,
        broker: &EndpointReference,
        security: &Option<(Arc<GridSecurity>, String)>,
        store: Arc<dyn ResourceStore>,
    ) -> Arc<Service> {
        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine.clone())),
                fss_address: "inproc://m1/FileSystem".into(),
                broker: Some(broker.clone()),
                security: security.clone(),
                store,
            },
            clock.clone(),
            net.clone(),
        );
        es.register(net);
        es
    }

    impl Fixture {
        /// Restart the ES over `store`: the running one leaves the
        /// network and is dropped, with everything it kept in memory,
        /// and a new one takes its address.
        fn restart_es(&mut self, store: Arc<dyn ResourceStore>) {
            self.net.unregister(&self.es_addr);
            let (clock, net, machine) = (&self.clock, &self.net, &self.machine);
            let es = deploy_es(clock, net, machine, &self.broker, &self.security, store);
            drop(std::mem::replace(&mut self.es, es));
        }

        /// Hold every `UploadComplete` addressed to the ES instead of
        /// delivering it, so the jobs it accepts stay staging.
        fn hold_uploads(&self) -> Arc<Mutex<Vec<Envelope>>> {
            use wsrf_transport::{Endpoint, FnEndpoint};
            let held = Arc::new(Mutex::new(Vec::new()));
            let (es, held2) = (self.es.clone(), held.clone());
            self.net.register(
                self.es_addr.as_str(),
                Arc::new(FnEndpoint::new(
                    "es-holding-uploads",
                    move |env: Envelope| {
                        if env.body.name.is(UVACG, "UploadComplete") {
                            held2.lock().push(env);
                            return None;
                        }
                        es.handle(env)
                    },
                )) as Arc<dyn Endpoint>,
            );
            held
        }
    }

    /// A `Run` of a one-second job as [`SECRET_USER`], with the
    /// credentials sealed to the ES when the fixture is secure.
    fn secret_request(f: &Fixture) -> RunRequest {
        let mut req = basic_request(f, &JobProgram::compute(1.0));
        let token = UsernameToken::new(SECRET_USER, SECRET_PASSWORD);
        match &f.security {
            Some((sec, subject)) => {
                req.security_header = Some(sec.encrypt_token(&token, subject).unwrap());
                req.plain_credentials = None;
            }
            None => req.plain_credentials = Some((token.username, token.password)),
        }
        req
    }

    /// The events the ES broadcast for job `job1`, by leaf.
    fn job1_events(f: &Fixture, leaf: &str) -> usize {
        f.listener
            .on(&format!("js/job/job1/{leaf}").as_str().into())
            .len()
    }

    /// Stage an executable into a fresh grid directory; returns its
    /// directory EPR.
    fn stage_exe(f: &Fixture, prog: &JobProgram) -> EndpointReference {
        let (dir, _) = fss::create_directory(&f.net, &f.fss_addr, None, None).unwrap();
        fss::write(&f.net, &dir, "prog.exe", &prog.to_manifest()).unwrap();
        dir
    }

    fn basic_request(f: &Fixture, prog: &JobProgram) -> RunRequest {
        let dir = stage_exe(f, prog);
        RunRequest {
            job_name: "job1".into(),
            executable: (dir, "prog.exe".into(), "prog.exe".into()),
            inputs: vec![],
            topic: "js".into(),
            security_header: None,
            plain_credentials: Some(("alice".into(), "pw".into())),
            trace: None,
        }
    }

    fn get_exit_code(f: &Fixture, job: &EndpointReference) -> Result<Envelope, SoapFault> {
        Outbound::new(
            job.clone(),
            action_uri("Execution", "GetExitCode"),
            Element::new(UVACG, "GetExitCode"),
        )
        .call(&f.net)
    }

    #[test]
    fn run_stages_executes_and_reports_exit() {
        let f = fixture();
        let prog = JobProgram::compute(3.0).writing("out.dat", 64);
        let reply = run(&f.net, &f.es_addr, &basic_request(&f, &prog)).unwrap();

        // With zero network latency the upload completes inline, so the
        // job is already running.
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::RUNNING);
        f.clock.advance(Duration::from_secs_f64(1.5));
        let cpu = job_cpu_time(&f.net, &reply.job).unwrap();
        assert!((cpu - 1.5).abs() < 1e-3, "live cpu time {cpu}");

        f.clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::EXITED);

        // The output landed in the broadcast working directory.
        let entries = fss::list(&f.net, &reply.workdir).unwrap();
        assert!(entries
            .iter()
            .any(|(n, s)| n == "out.dat" && *s == Some(64)));

        // Events: dir, started, exit.
        let topics: Vec<String> = f
            .listener
            .received()
            .iter()
            .map(|m| m.topic.to_string())
            .collect();
        assert_eq!(
            topics,
            ["js/job/job1/dir", "js/job/job1/started", "js/job/job1/exit"]
        );
        let exit = &f.listener.received()[2];
        assert_eq!(exit.payload.attr_value("code"), Some("0"));
    }

    #[test]
    fn inputs_are_staged_before_start() {
        let f = fixture();
        let prog = JobProgram::compute(1.0).reading("data.in");
        let exe_dir = stage_exe(&f, &prog);
        let (input_dir, _) = fss::create_directory(&f.net, &f.fss_addr, None, None).unwrap();
        fss::write(&f.net, &input_dir, "source.dat", b"input bytes").unwrap();
        let req = RunRequest {
            job_name: "j".into(),
            executable: (exe_dir, "prog.exe".into(), "prog.exe".into()),
            inputs: vec![(input_dir, "source.dat".into(), "data.in".into())],
            topic: "js".into(),
            security_header: None,
            plain_credentials: Some(("alice".into(), "pw".into())),
            trace: None,
        };
        let reply = run(&f.net, &f.es_addr, &req).unwrap();
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::EXITED);
        let resp = get_exit_code(&f, &reply.job).unwrap();
        assert_eq!(resp.body.text_content(), "0", "input was present so exit 0");
    }

    #[test]
    fn missing_input_fails_job_with_notification() {
        let f = fixture();
        let prog = JobProgram::compute(1.0);
        let exe_dir = stage_exe(&f, &prog);
        let req = RunRequest {
            job_name: "j".into(),
            executable: (exe_dir.clone(), "prog.exe".into(), "prog.exe".into()),
            inputs: vec![(exe_dir, "no-such-file.dat".into(), "in.dat".into())],
            topic: "js".into(),
            security_header: None,
            plain_credentials: Some(("alice".into(), "pw".into())),
            trace: None,
        };
        let reply = run(&f.net, &f.es_addr, &req).unwrap();
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::FAILED);
        let failed = f.listener.on(&"js/job/j/failed".into());
        assert_eq!(failed.len(), 1);
        assert!(failed[0]
            .payload
            .text_content()
            .contains("no-such-file.dat"));
    }

    #[test]
    fn bad_credentials_fault_synchronously() {
        let f = fixture();
        let mut req = basic_request(&f, &JobProgram::compute(1.0));
        req.plain_credentials = Some(("alice".into(), "WRONG".into()));
        let err = run(&f.net, &f.es_addr, &req).unwrap_err();
        assert_eq!(err.error_code(), Some("uvacg:BadCredentials"));
        let mut req = basic_request(&f, &JobProgram::compute(1.0));
        req.plain_credentials = None;
        let err = run(&f.net, &f.es_addr, &req).unwrap_err();
        assert_eq!(err.error_code(), Some("uvacg:MissingCredentials"));
    }

    #[test]
    fn encrypted_credentials_accepted() {
        // Rebuild the fixture with security enabled.
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machine = Machine::new(
            MachineSpec::new("m1").with_user("alice", "pw"),
            clock.clone(),
        );
        let fss_svc = fss::file_system_service(
            "m1",
            machine.fs.clone(),
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        fss_svc.register(&net);
        let sec = GridSecurity::new(11);
        sec.enroll("es@m1");
        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine.clone())),
                fss_address: "inproc://m1/FileSystem".into(),
                broker: None,
                security: Some((sec.clone(), "es@m1".into())),
                store: Arc::new(MemoryStore::new()),
            },
            clock.clone(),
            net.clone(),
        );
        es.register(&net);

        let (dir, _) = fss::create_directory(&net, "inproc://m1/FileSystem", None, None).unwrap();
        fss::write(
            &net,
            &dir,
            "prog.exe",
            &JobProgram::compute(1.0).to_manifest(),
        )
        .unwrap();
        let header = sec
            .encrypt_token(&UsernameToken::new("alice", "pw"), "es@m1")
            .unwrap();
        let req = RunRequest {
            job_name: "secure".into(),
            executable: (dir, "prog.exe".into(), "prog.exe".into()),
            inputs: vec![],
            topic: "t".into(),
            security_header: Some(header),
            plain_credentials: None,
            trace: None,
        };
        let reply = run(&net, "inproc://m1/Execution", &req).unwrap();
        clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&net, &reply.job).unwrap(), status::EXITED);
        // A header encrypted to someone else is rejected.
        sec.enroll("other");
        let bad = sec
            .encrypt_token(&UsernameToken::new("alice", "pw"), "other")
            .unwrap();
        let (dir2, _) = fss::create_directory(&net, "inproc://m1/FileSystem", None, None).unwrap();
        fss::write(
            &net,
            &dir2,
            "prog.exe",
            &JobProgram::compute(1.0).to_manifest(),
        )
        .unwrap();
        let req2 = RunRequest {
            job_name: "bad".into(),
            executable: (dir2, "prog.exe".into(), "prog.exe".into()),
            inputs: vec![],
            topic: "t".into(),
            security_header: Some(bad),
            plain_credentials: None,
            trace: None,
        };
        let err = run(&net, "inproc://m1/Execution", &req2).unwrap_err();
        assert_eq!(err.error_code(), Some("uvacg:BadCredentials"));
    }

    #[test]
    fn kill_terminates_and_reports_minus_nine() {
        let f = fixture();
        let reply = run(
            &f.net,
            &f.es_addr,
            &basic_request(&f, &JobProgram::compute(1000.0)),
        )
        .unwrap();
        f.clock.advance(Duration::from_secs(5));
        assert!(kill(&f.net, &reply.job).unwrap());
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::EXITED);
        let job = ResourceProxy::new(&f.net, reply.job.clone());
        assert_eq!(job.get_i64("ExitCode").unwrap(), -9);
        let exits = f.listener.on(&"js/job/job1/exit".into());
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].payload.attr_value("code"), Some("-9"));
        let cpu: f64 = exits[0].payload.attr_value("cpu").unwrap().parse().unwrap();
        assert!((cpu - 5.0).abs() < 1e-3);
    }

    /// What a WSRF client reads through the job's resource properties:
    /// `ExitCode` appears at exit, `CpuTimeUsed` is live while the
    /// process runs and frozen after, and `WorkingDirectory` names a
    /// directory the client can use.
    #[test]
    fn job_properties_read_back_what_the_process_did() {
        let f = fixture();
        let prog = JobProgram::compute(10.0).writing("out.dat", 32).exiting(4);
        let reply = run(&f.net, &f.es_addr, &basic_request(&f, &prog)).unwrap();
        let job = ResourceProxy::new(&f.net, reply.job.clone());
        assert_eq!(job.get_text("Status").unwrap(), status::RUNNING);
        let no_code = job.get_i64("ExitCode").unwrap_err();
        assert_eq!(
            no_code.error_code(),
            Some("wsrp:InvalidResourcePropertyQName")
        );
        f.clock.advance(Duration::from_secs(4));
        assert!((job.get_f64("CpuTimeUsed").unwrap() - 4.0).abs() < 1e-3);
        f.clock.advance(Duration::from_secs(10));
        assert_eq!(job.get_text("Status").unwrap(), status::EXITED);
        assert_eq!(job.get_i64("ExitCode").unwrap(), 4);
        f.clock.advance(Duration::from_secs(10));
        let cpu = job.get_f64("CpuTimeUsed").unwrap();
        assert!((cpu - 10.0).abs() < 1e-3, "frozen at exit: {cpu}");

        let wd = job.document().unwrap().get_local("WorkingDirectory")[0].clone();
        let dir = EndpointReference::from_element(&wd).unwrap();
        let path = ResourceProxy::new(&f.net, dir.clone()).get_text("Path");
        assert!(path.unwrap().starts_with("grid/"));
        let names: Vec<String> = fss::list(&f.net, &dir)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"out.dat".to_string()), "{names:?}");
        assert_eq!(fss::read(&f.net, &dir, "out.dat", None).unwrap().len(), 32);
        fss::write(&f.net, &dir, "extra.txt", b"note").unwrap();
        assert_eq!(
            &fss::read(&f.net, &dir, "extra.txt", None).unwrap()[..],
            b"note"
        );
    }

    #[test]
    fn query_job_snapshots_in_one_call() {
        let f = fixture();
        let reply = run(
            &f.net,
            &f.es_addr,
            &basic_request(&f, &JobProgram::compute(2.0)),
        )
        .unwrap();
        f.clock.advance(Duration::from_secs(1));
        let snap = query_job(&f.net, &reply.job).unwrap();
        assert_eq!(snap.name, "job1");
        assert_eq!(snap.status, status::RUNNING);
        assert!(snap.exit_code.is_none());
        assert!(
            (snap.cpu_time - 1.0).abs() < 1e-3,
            "live cpu {}",
            snap.cpu_time
        );
        f.clock.advance(Duration::from_secs(2));
        let snap = query_job(&f.net, &reply.job).unwrap();
        assert_eq!(snap.status, status::EXITED);
        assert_eq!(snap.exit_code, Some(0));
    }

    #[test]
    fn get_exit_code_faults_while_running() {
        let f = fixture();
        let reply = run(
            &f.net,
            &f.es_addr,
            &basic_request(&f, &JobProgram::compute(100.0)),
        )
        .unwrap();
        let fault = get_exit_code(&f, &reply.job).unwrap_err();
        assert_eq!(fault.error_code(), Some("uvacg:NotExited"));
    }

    #[test]
    fn nonzero_exit_code_propagates_to_notification() {
        let f = fixture();
        let reply = run(
            &f.net,
            &f.es_addr,
            &basic_request(&f, &JobProgram::compute(1.0).exiting(42)),
        )
        .unwrap();
        f.clock.advance(Duration::from_secs(2));
        let exits = f.listener.on(&"js/job/job1/exit".into());
        assert_eq!(exits[0].payload.attr_value("code"), Some("42"));
        let _ = reply;
    }

    #[test]
    fn two_jobs_share_the_machine() {
        let f = fixture();
        let r1 = run(
            &f.net,
            &f.es_addr,
            &basic_request(&f, &JobProgram::compute(2.0)),
        )
        .unwrap();
        let mut req2 = basic_request(&f, &JobProgram::compute(2.0));
        req2.job_name = "job2".into();
        let r2 = run(&f.net, &f.es_addr, &req2).unwrap();
        // Processor sharing: both take ~4 virtual seconds.
        f.clock.advance(Duration::from_secs_f64(3.5));
        assert_eq!(job_status(&f.net, &r1.job).unwrap(), status::RUNNING);
        f.clock.advance(Duration::from_secs_f64(0.7));
        assert_eq!(job_status(&f.net, &r1.job).unwrap(), status::EXITED);
        assert_eq!(job_status(&f.net, &r2.job).unwrap(), status::EXITED);
        assert_eq!(f.machine.utilization(), 0.0);
    }

    #[test]
    fn racing_duplicate_runs_stage_once() {
        use parking_lot::Condvar;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use wsrf_transport::{Endpoint, FnEndpoint};

        let f = fixture();
        let req = basic_request(&f, &JobProgram::compute(1.0));

        // Put a rendezvous in front of the FSS: a CreateDirectory waits
        // (briefly) for a second one. An ES that lets both duplicates
        // past its idempotency check lands both here at once and stages
        // twice; one that serializes acceptance lets the first time out
        // alone and answers the second from the accepted job.
        let fss = f.fss.clone();
        let creates = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let (creates2, gate2) = (creates.clone(), gate.clone());
        f.net.register(
            f.fss_addr.as_str(),
            Arc::new(FnEndpoint::new("fss-rendezvous", move |env: Envelope| {
                if env.body.name.is(UVACG, "CreateDirectory") {
                    creates2.fetch_add(1, Ordering::SeqCst);
                    let (arrived, cv) = &*gate2;
                    let mut n = arrived.lock();
                    *n += 1;
                    cv.notify_all();
                    if *n < 2 {
                        cv.wait_for(&mut n, Duration::from_millis(300));
                    }
                }
                fss.handle(env)
            })) as Arc<dyn Endpoint>,
        );

        let replies: Vec<RunReply> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| run(&f.net, &f.es_addr, &req).unwrap()))
                .collect();
            racers.into_iter().map(|t| t.join().unwrap()).collect()
        });

        assert_eq!(replies[0].job, replies[1].job, "both callers get one job");
        assert_eq!(replies[0].workdir, replies[1].workdir);
        assert_eq!(
            creates.load(Ordering::SeqCst),
            1,
            "one working directory created"
        );
        assert_eq!(f.listener.on(&"js/job/job1/dir".into()).len(), 1);
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(f.listener.on(&"js/job/job1/exit".into()).len(), 1);
    }

    #[test]
    fn an_upload_request_that_cannot_leave_fails_the_job() {
        use wsrf_transport::{Endpoint, FnEndpoint};

        let f = fixture();
        let req = basic_request(&f, &JobProgram::compute(1.0));
        // The FSS answers CreateDirectory and then leaves the network:
        // the one-way upload request that follows has nowhere to go.
        let (fss, net, addr) = (f.fss.clone(), f.net.clone(), f.fss_addr.clone());
        f.net.register(
            f.fss_addr.as_str(),
            Arc::new(FnEndpoint::new("fss-then-gone", move |env: Envelope| {
                let resp = fss.handle(env);
                net.unregister(&addr);
                resp
            })) as Arc<dyn Endpoint>,
        );
        let err = run(&f.net, &f.es_addr, &req).unwrap_err();
        assert_eq!(err.error_code(), Some("wsrf:StorageFault"));

        // The job failed, and the fault was the only report of it: a
        // `failed` broadcast would race the fault to the Scheduler.
        assert!(f.listener.on(&"js/job/job1/failed".into()).is_empty());
        let dir = f.listener.on(&"js/job/job1/dir".into());
        let job = dir[0].producer.clone().expect("the job produced it");
        let props = ResourceProxy::new(&f.net, job.clone());
        assert_eq!(props.get_text("Status").unwrap(), status::FAILED);
        let why = props.get_text("FailureReason").unwrap();
        assert!(why.contains("cannot request upload"), "{why}");

        // An upload completing late cannot start it.
        let late = Outbound::new(
            job.clone(),
            action_uri("Execution", "UploadComplete"),
            Element::new(UVACG, "UploadComplete"),
        )
        .call(&f.net)
        .unwrap_err();
        assert_eq!(late.error_code(), Some("uvacg:UnexpectedUpload"));
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&f.net, &job).unwrap(), status::FAILED);
        assert!(f.listener.on(&"js/job/job1/started".into()).is_empty());
    }

    /// Inverse of [`job_key_for`]; exists to show the key is injective.
    fn split_job_key(key: &str) -> (&str, &str) {
        let (len, rest) = key.split_once(':').unwrap();
        let (topic, name) = rest.split_at(len.parse().unwrap());
        (topic, name.strip_prefix('/').unwrap())
    }

    #[test]
    fn derived_job_keys_are_injective_and_survive_the_wire_and_a_restart() {
        let pairs = [
            ("a#b", "c"),
            ("a", "b#c"),
            ("a/b", "c"),
            ("a", "b/c"),
            ("1:a", "b"),
            ("js", "dir/with spaces/ünïcode-名前 "),
            ("js", "<&\"'>"),
        ];
        let mut keys = std::collections::HashSet::new();
        for (topic, name) in pairs {
            let key = job_key_for(topic, name);
            assert_eq!(split_job_key(&key), (topic, name));
            assert!(keys.insert(key), "({topic:?}, {name:?}) collides");
        }

        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wsrf-es-keys-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let open = || -> Arc<dyn ResourceStore> {
            Arc::new(wsrf_core::DurableStore::open(&dir, Arc::new(MemoryStore::new())).unwrap())
        };

        let f = fixture_on(open());
        let mut accepted = Vec::new();
        for (topic, name) in pairs {
            let mut req = basic_request(&f, &JobProgram::compute(1.0));
            req.topic = topic.into();
            req.job_name = name.into();
            let reply = run(&f.net, &f.es_addr, &req).unwrap();
            // The EPR a remote caller holds went through render + parse.
            let wire = reply.job.to_element().to_xml();
            let parsed = EndpointReference::from_element(&wsrf_xml::parse(&wire).unwrap()).unwrap();
            assert_eq!(
                parsed.resource_key(),
                Some(job_key_for(topic, name).as_str())
            );
            assert_eq!(job_status(&f.net, &parsed).unwrap(), status::RUNNING);
            accepted.push((req, reply));
        }
        drop(f);

        // A restarted ES on the reopened log still recognises every
        // accepted job: the key is the index, nothing to rebuild.
        let f = fixture_on(open());
        for (req, reply) in &accepted {
            let again = run(&f.net, &f.es_addr, req).unwrap();
            assert_eq!(again.job, reply.job);
            assert_eq!(again.workdir, reply.workdir);
        }
        assert!(f.listener.received().is_empty(), "nothing was re-staged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlong_job_names_are_rejected() {
        let f = fixture();
        let mut req = basic_request(&f, &JobProgram::compute(1.0));
        req.job_name = "j".repeat(MAX_JOB_KEY);
        let err = run(&f.net, &f.es_addr, &req).unwrap_err();
        assert_eq!(err.error_code(), Some("wsrf:BadRequest"));
    }

    /// A fresh directory for one test's write-ahead log.
    fn wal_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "wsrf-es-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    fn open_wal(dir: &std::path::Path) -> Arc<dyn ResourceStore> {
        Arc::new(wsrf_core::DurableStore::open(dir, Arc::new(MemoryStore::new())).unwrap())
    }

    /// Deliver a held `UploadComplete` to the ES now deployed; returns
    /// its answer (an ack or a fault).
    fn deliver(f: &Fixture, env: Envelope) -> Envelope {
        use wsrf_transport::Endpoint;
        f.es.handle(env).unwrap()
    }

    #[test]
    fn an_es_restarted_mid_staging_finishes_the_job() {
        let store: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
        let mut f = fixture_on(store.clone());
        let held = f.hold_uploads();
        let reply = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap();
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::STAGING);
        assert_eq!(store.list(STAGING).len(), 1);

        // ES#1 goes away with its upload still to come; ES#2 starts
        // over the same store and is the one the upload reaches.
        f.restart_es(store.clone());
        let upload = held.lock().pop().expect("the FSS reported the upload");
        let ack = deliver(&f, upload);
        assert!(ack.body.name.is(UVACG, "UploadCompleteAck"), "{ack:?}");
        assert!(
            store.list(STAGING).is_empty(),
            "spawned: the record is gone"
        );

        f.clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::EXITED);
        assert_eq!(
            get_exit_code(&f, &reply.job).unwrap().body.text_content(),
            "0"
        );
        assert_eq!(
            (job1_events(&f, "started"), job1_events(&f, "exit")),
            (1, 1)
        );
    }

    #[test]
    fn a_job_destroyed_while_staging_keeps_no_credentials() {
        let store: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
        let f = fixture_on(store.clone());
        let held = f.hold_uploads();
        let reply = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap();
        ResourceProxy::new(&f.net, reply.job.clone())
            .destroy()
            .unwrap();

        let upload = held.lock().pop().unwrap();
        let fault = deliver(&f, upload).fault().expect("a fault");
        assert_eq!(fault.error_code(), Some("wsrf:NoSuchResource"));
        assert!(store.list(STAGING).is_empty(), "the credentials are gone");
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(f.machine.utilization(), 0.0, "nothing was spawned");
        assert_eq!(job1_events(&f, "started"), 0);
    }

    #[test]
    fn a_staging_job_keeps_its_credentials_sealed_at_rest() {
        let dir = wal_dir("sealed");
        let sec = GridSecurity::new(13);
        sec.enroll("es@m1");
        let mut f = fixture_with(open_wal(&dir), Some((sec, "es@m1".into())));
        let held = f.hold_uploads();
        let reply = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap();

        // Every byte the ES has written while the job stages: the
        // record is there, the password is not.
        let logged: Vec<Vec<u8>> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| std::fs::read(e.unwrap().path()).unwrap())
            .collect();
        let contains = |needle: &[u8]| {
            logged
                .iter()
                .any(|bytes| bytes.windows(needle.len()).any(|w| w == needle))
        };
        assert!(contains(STAGING.as_bytes()), "the record was logged");
        assert!(
            !contains(SECRET_PASSWORD.as_bytes()),
            "the password was logged"
        );

        // A restart over the reopened log opens the sealed record.
        let store = open_wal(&dir);
        f.restart_es(store.clone());
        let ack = deliver(&f, held.lock().pop().unwrap());
        assert!(ack.body.name.is(UVACG, "UploadCompleteAck"), "{ack:?}");
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::EXITED);
        assert!(store.list(STAGING).is_empty());
        drop(f);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn credentials_that_no_longer_open_fail_the_job() {
        let store: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
        let sec = GridSecurity::new(17);
        sec.enroll("es@m1");
        let mut f = fixture_with(store.clone(), Some((sec, "es@m1".into())));
        let held = f.hold_uploads();
        let reply = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap();

        // The ES comes back with a new key: the sealed record is
        // unreadable to it, so the job fails instead of staying put.
        let rekeyed = GridSecurity::new(19);
        rekeyed.enroll("es@m1");
        f.security = Some((rekeyed, "es@m1".into()));
        f.restart_es(store.clone());
        let ack = deliver(&f, held.lock().pop().unwrap());
        assert!(ack.body.name.is(UVACG, "UploadCompleteAck"), "{ack:?}");
        assert_eq!(job_status(&f.net, &reply.job).unwrap(), status::FAILED);
        let why = ResourceProxy::new(&f.net, reply.job.clone()).get_text("FailureReason");
        assert!(why.unwrap().contains("cannot decrypt"));
        assert_eq!(
            (job1_events(&f, "failed"), job1_events(&f, "started")),
            (1, 0)
        );
        assert!(store.list(STAGING).is_empty());
    }

    #[test]
    fn no_resource_property_read_reaches_a_staging_jobs_credentials() {
        let f = fixture();
        let _held = f.hold_uploads();
        let reply = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap();
        let job = ResourceProxy::new(&f.net, reply.job.clone());
        assert_eq!(job.get_text("Status").unwrap(), status::STAGING);

        let document = job.document().unwrap().to_document(q("Job")).to_xml();
        assert!(document.contains("job1"), "{document}");
        let queried: String = job
            .query("//*")
            .unwrap()
            .iter()
            .map(Element::to_xml)
            .collect();
        assert!(queried.contains("job1"), "{queried}");
        for read in [document, queried] {
            assert!(!read.contains(SECRET_PASSWORD), "{read}");
            assert!(!read.contains(SECRET_USER), "{read}");
        }
    }

    /// A store that refuses every create in one table.
    struct Refusing(MemoryStore, &'static str);

    impl ResourceStore for Refusing {
        fn create(&self, s: &str, k: &str, d: &PropertyDoc) -> Result<(), StoreError> {
            if s == self.1 {
                return Err(StoreError::Io("disk full".into()));
            }
            self.0.create(s, k, d)
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

    #[test]
    fn a_run_whose_staging_writes_are_refused_leaves_neither_behind() {
        for table in [STAGING, "Execution"] {
            let store = Arc::new(Refusing(MemoryStore::new(), table));
            let f = fixture_on(store.clone());
            let err = run(&f.net, &f.es_addr, &secret_request(&f)).unwrap_err();
            assert_eq!(err.error_code(), Some("wsrf:StorageFault"), "{table}");
            assert!(store.list(STAGING).is_empty(), "{table}");
            assert!(store.list("Execution").is_empty(), "{table}");
            assert_eq!(job1_events(&f, "dir"), 0, "{table}");
        }
    }
}
