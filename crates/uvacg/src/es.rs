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

use std::collections::HashMap;
use std::sync::Arc;

use grid_node::{Machine, ProcSpawn};
use parking_lot::Mutex;
use simclock::Clock;
use ws_notification::message::NotificationMessage;
use ws_notification::topics::TopicPath;
use wsrf_core::container::{action_uri, Ctx, OpKind, Service, ServiceBuilder, ServiceCore};
use wsrf_core::faults;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::ResourceStore;
use wsrf_core::{epr_in, Outbound, ResourceProxy};
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

use crate::fss;
use crate::security::GridSecurity;

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

fn q(local: &str) -> QName {
    QName::new(UVACG, local)
}

/// Job status values exposed through the `Status` resource property.
pub mod status {
    /// Inputs are being staged by the FSS.
    pub const STAGING: &str = "Staging";
    /// The process is running.
    pub const RUNNING: &str = "Running";
    /// The process exited (see `ExitCode`; kills surface as exit −9).
    pub const EXITED: &str = "Exited";
    /// Staging or spawning failed; the process never ran.
    pub const FAILED: &str = "Failed";
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
    /// plaintext `<Credentials>` elements instead (insecure mode, used
    /// by unit tests and the security-off ablation).
    pub security: Option<(Arc<GridSecurity>, String)>,
    /// Resource state backend.
    pub store: Arc<dyn ResourceStore>,
}

/// Side table of data that must NOT appear in resource properties
/// (credentials) plus the job's deferred-spawn inputs.
struct PendingJob {
    user: String,
    password: String,
    exe_name: String,
    workdir_path: String,
    topic: String,
    job_name: String,
    /// Trace context of the originating `Run`, so the deferred spawn
    /// and its broadcasts stay in the submission's span tree.
    trace: Option<TraceContext>,
}

struct EsRuntime {
    pending: Mutex<HashMap<String, PendingJob>>,
    /// Held from `Run`'s idempotency lookup until the job resource
    /// exists, so racing duplicates cannot both stage.
    accepting: Mutex<()>,
    spawner: Arc<ProcSpawn>,
    broker: Option<EndpointReference>,
}

/// Build the Execution Service for one machine.
pub fn execution_service(cfg: EsConfig, clock: Clock, net: Arc<InProcNetwork>) -> Arc<Service> {
    let machine_name = cfg.machine.spec.name.clone();
    let address = format!("inproc://{machine_name}/Execution");
    let runtime = Arc::new(EsRuntime {
        pending: Mutex::new(HashMap::new()),
        accepting: Mutex::new(()),
        spawner: cfg.spawner.clone(),
        broker: cfg.broker.clone(),
    });

    let rt_run = runtime.clone();
    let rt_upload = runtime.clone();
    let rt_kill = runtime.clone();
    let rt_cpu = runtime.clone();
    let machine = cfg.machine.clone();
    let fss_address = cfg.fss_address.clone();
    let security = cfg.security.clone();

    ServiceBuilder::new("Execution", address, cfg.store)
        .key_property(job_key_property())
        .static_operation("Run", move |ctx| {
            run_op(ctx, &machine, &fss_address, &security, &rt_run)
        })
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

/// Decode credentials from the security header (or the plaintext
/// fallback in insecure deployments).
fn credentials(
    ctx: &Ctx<'_>,
    security: &Option<(Arc<GridSecurity>, String)>,
) -> Result<(String, String), BaseFault> {
    if let Some((sec, subject)) = security {
        let header = ctx
            .header(WSSE, "Security")
            .ok_or_else(|| BaseFault::new("uvacg:MissingCredentials", "no WS-Security header"))?;
        let token = sec.decrypt_token(header, subject).map_err(|e| {
            BaseFault::new(
                "uvacg:BadCredentials",
                format!("cannot decrypt credentials: {e}"),
            )
        })?;
        return Ok((token.username, token.password));
    }
    let el = ctx
        .body
        .find(UVACG, "Credentials")
        .ok_or_else(|| BaseFault::new("uvacg:MissingCredentials", "no Credentials element"))?;
    Ok((
        el.attr_value("user").unwrap_or_default().to_string(),
        el.attr_value("password").unwrap_or_default().to_string(),
    ))
}

fn run_op(
    ctx: &mut Ctx<'_>,
    machine: &Arc<Machine>,
    fss_address: &str,
    security: &Option<(Arc<GridSecurity>, String)>,
    rt: &Arc<EsRuntime>,
) -> Result<Element, BaseFault> {
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
    let (user, password) = credentials(ctx, security)?;
    if !machine.check_credentials(&user, &password) {
        return Err(BaseFault::new(
            "uvacg:BadCredentials",
            format!("user '{user}' cannot log on to '{}'", machine.spec.name),
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
        if let Ok(doc) = ctx.core.store.share(&ctx.core.name, key) {
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

    // Step 4: create the working directory on our FSS.
    let trace = ctx.trace;
    let (dir_epr, dir_path) =
        fss::create_directory_traced(&ctx.core.net, fss_address, trace.as_ref())
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
    let job_key = derived_key.unwrap_or_else(|| ctx.core.fresh_key());
    let job_epr = ctx.core.create_resource_with_key(&job_key, doc)?;
    drop(accepting);

    rt.pending.lock().insert(
        job_key.clone(),
        PendingJob {
            user,
            password,
            exe_name: exe.2.clone(),
            workdir_path: dir_path,
            topic: topic.clone(),
            job_name: job_name.clone(),
            trace,
        },
    );

    // Step 9 (first half): broadcast the working directory EPR so the
    // Scheduler can fill in downstream file locations and the client
    // can watch the directory.
    publish(
        ctx.core,
        &rt.broker,
        &TopicPath::parse(&topic)
            .child("job")
            .child(&job_name)
            .child("dir"),
        dir_epr
            .to_element_named(UVACG, "WorkingDirectory")
            .attr("job", &job_name),
        &job_epr,
        trace.as_ref(),
    );

    // Step 4/5/6: one-way upload request; completion will arrive as a
    // one-way UploadComplete addressed to this job resource.
    let notify_to = job_epr.clone();
    fss::upload_files(
        &ctx.core.net,
        &dir_epr,
        &uploads,
        Some(&notify_to),
        &action_uri("Execution", "UploadComplete"),
        &job_key,
        trace.as_ref(),
    )
    .map_err(|e| faults::storage(&format!("cannot request upload: {e}")))?;

    Ok(Element::new(UVACG, "RunResponse")
        .child(job_epr.to_element_named(UVACG, "JobEpr"))
        .child(dir_epr.to_element_named(UVACG, "WorkingDirectory")))
}

fn upload_complete_op(ctx: &mut Ctx<'_>, rt: &Arc<EsRuntime>) -> Result<Element, BaseFault> {
    let key = ctx.key()?.to_string();
    let trace = ctx.trace;
    let core = ctx.core.clone();
    if !core.store.exists(&core.name, &key) {
        return Err(faults::no_such_resource(&key));
    }
    let Some(pending) = rt.pending.lock().remove(&key) else {
        return Err(BaseFault::new(
            "uvacg:UnexpectedUpload",
            format!("job '{key}' has no pending upload"),
        ));
    };
    let job_epr = core.epr_for(&key);
    let topic_base = TopicPath::parse(&pending.topic)
        .child("job")
        .child(&pending.job_name);

    // Any failed file aborts the job.
    let failures: Vec<String> = ctx
        .body
        .find_all(UVACG, "Failure")
        .map(|f| {
            format!(
                "{}: {}",
                f.attr_value("file").unwrap_or("?"),
                f.text_content()
            )
        })
        .collect();
    if !failures.is_empty() {
        core.edit(&key, |doc| {
            doc.set_text(q("Status"), status::FAILED);
            doc.set_text(q("FailureReason"), failures.join("; "));
        })?
        .ok_or_else(|| faults::no_such_resource(&key))?;
        crate::retire(&core, &key);
        publish(
            &core,
            &rt.broker,
            &topic_base.child("failed"),
            Element::new(UVACG, "JobFailed")
                .attr("job", &pending.job_name)
                .text(failures.join("; ")),
            &job_epr,
            trace.as_ref(),
        );
        return Ok(Element::new(UVACG, "UploadCompleteAck"));
    }

    // Step 8: start the process via ProcSpawn. Persist Running and
    // broadcast "started" BEFORE spawning: a zero-work program's exit
    // callback runs inline inside spawn(), and writing Running (or
    // publishing "started") after it would clobber/reorder the exit.
    core.edit(&key, |doc| doc.set_text(q("Status"), status::RUNNING))?
        .ok_or_else(|| faults::no_such_resource(&key))?;
    // Step 9 (second half): broadcast the job's EPR so anyone may poll
    // its Status resource property.
    publish(
        &core,
        &rt.broker,
        &topic_base.child("started"),
        job_epr
            .to_element_named(UVACG, "JobEpr")
            .attr("job", &pending.job_name),
        &job_epr,
        trace.as_ref(),
    );

    let exe_path = format!("{}/{}", pending.workdir_path, pending.exe_name);
    let core_exit = core.clone();
    let rt_exit = rt.clone();
    let key_exit = key.clone();
    let job_epr_exit = job_epr.clone();
    let topic_exit = topic_base.clone();
    let job_name_exit = pending.job_name.clone();
    // The exit broadcast is causally part of the submission even when
    // the process outlives the UploadComplete dispatch: parent it under
    // the Run's trace, not the (already-finished) dispatch span.
    let trace_exit = pending.trace.or(trace);
    let spawned = rt.spawner.spawn(
        &exe_path,
        &pending.workdir_path,
        &pending.user,
        &pending.password,
        move |code, cpu_used| {
            on_process_exit(
                &core_exit,
                &rt_exit.broker,
                &key_exit,
                &job_epr_exit,
                &topic_exit,
                &job_name_exit,
                code,
                cpu_used,
                trace_exit.as_ref(),
            );
        },
    );
    match spawned {
        Ok(pid) => {
            // Only the pid: the exit callback may have recorded the exit
            // already (inline for zero-work programs, or concurrently).
            core.edit(&key, |doc| doc.set_i64(q("Pid"), pid as i64))?
                .ok_or_else(|| faults::no_such_resource(&key))?;
            Ok(Element::new(UVACG, "UploadCompleteAck"))
        }
        Err(e) => {
            core.edit(&key, |doc| {
                doc.set_text(q("Status"), status::FAILED);
                doc.set_text(q("FailureReason"), e.to_string());
            })?
            .ok_or_else(|| faults::no_such_resource(&key))?;
            crate::retire(&core, &key);
            publish(
                &core,
                &rt.broker,
                &topic_base.child("failed"),
                Element::new(UVACG, "JobFailed")
                    .attr("job", &pending.job_name)
                    .text(e.to_string()),
                &job_epr,
                trace.as_ref(),
            );
            Ok(Element::new(UVACG, "UploadCompleteAck"))
        }
    }
}

/// Step 10: the process exited; record and re-broadcast.
#[allow(clippy::too_many_arguments)]
fn on_process_exit(
    core: &Arc<ServiceCore>,
    broker: &Option<EndpointReference>,
    key: &str,
    job_epr: &EndpointReference,
    topic_base: &TopicPath,
    job_name: &str,
    code: i32,
    cpu_used: f64,
    trace: Option<&TraceContext>,
) {
    let recorded = core.edit(key, |doc| {
        doc.set_text(q("Status"), status::EXITED);
        doc.set_i64(q("ExitCode"), code as i64);
        doc.set_f64(q("CpuAtExit"), cpu_used);
    });
    // A job that is gone has nothing to retire. Nobody to tell of a
    // refused write: dropping it leaves a `StoreWriteDropped` event.
    if !matches!(recorded, Ok(None)) {
        crate::retire(core, key);
    }
    publish(
        core,
        broker,
        &topic_base.child("exit"),
        Element::new(UVACG, "JobExit")
            .attr("job", job_name)
            .attr("code", code.to_string())
            .attr("cpu", format!("{cpu_used:.6}"))
            .child(job_epr.to_element_named(UVACG, "JobEpr")),
        job_epr,
        trace,
    );
}

fn kill_op(ctx: &mut Ctx<'_>, rt: &Arc<EsRuntime>) -> Result<Element, BaseFault> {
    let key = ctx.key()?;
    let doc = ctx
        .core
        .store
        .share(&ctx.core.name, key)
        .map_err(faults::from_store)?;
    let pid = doc
        .i64(&q("Pid"))
        .ok_or_else(|| BaseFault::new("uvacg:NotRunning", "job has no process"))?;
    let killed = rt.spawner.kill(pid as u64);
    // The exit callback updates the resource and broadcasts.
    Ok(Element::new(UVACG, "KillResponse").attr("killed", killed.to_string()))
}

/// Publish an event through the broker (silently skipped when no
/// broker is deployed).
fn publish(
    core: &Arc<ServiceCore>,
    broker: &Option<EndpointReference>,
    topic: &TopicPath,
    payload: Element,
    producer: &EndpointReference,
    trace: Option<&TraceContext>,
) {
    let Some(b) = broker else { return };
    let msg = NotificationMessage::new(topic.clone(), payload).from_producer(producer.clone());
    // Nobody to tell: a failed send leaves an `OutboundFailed` event.
    let _ = msg.outbound(b).trace(trace).send(&core.net);
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

/// One-call job snapshot returned by the read-only `QueryJob` op.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job name within its set.
    pub name: String,
    /// Current `Status` property value.
    pub status: String,
    /// Exit code, once the process has exited.
    pub exit_code: Option<i64>,
    /// CPU seconds used so far (live while running).
    pub cpu_time: f64,
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
    Ok(JobSnapshot {
        name: resp.body.attr_value("name").unwrap_or_default().to_string(),
        status: resp
            .body
            .attr_value("status")
            .unwrap_or_default()
            .to_string(),
        exit_code: resp
            .body
            .attr_value("exitCode")
            .and_then(|c| c.parse().ok()),
        cpu_time: resp
            .body
            .attr_value("cpu")
            .and_then(|c| c.parse().ok())
            .unwrap_or(0.0),
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
    use wsrf_core::store::MemoryStore;
    use wsrf_security::wsse::UsernameToken;
    use wsrf_soap::Envelope;

    struct Fixture {
        clock: Clock,
        net: Arc<InProcNetwork>,
        machine: Arc<Machine>,
        listener: NotificationListener,
        fss: Arc<Service>,
        es_addr: String,
        fss_addr: String,
    }

    /// Full single-machine deployment: FSS + ES + broker + listener.
    fn fixture() -> Fixture {
        fixture_on(Arc::new(MemoryStore::new()))
    }

    /// [`fixture`] with the ES state on `es_store`.
    fn fixture_on(es_store: Arc<dyn ResourceStore>) -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machine = Machine::new(
            MachineSpec::new("m1")
                .with_cpu_mhz(1000)
                .with_user("alice", "pw"),
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
        let spawner = Arc::new(ProcSpawn::new(machine.clone()));
        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner,
                fss_address: "inproc://m1/FileSystem".into(),
                broker: Some(broker.core().service_epr()),
                security: None,
                store: es_store,
            },
            clock.clone(),
            net.clone(),
        );
        es.register(&net);
        Fixture {
            clock,
            net,
            machine,
            listener,
            fss,
            es_addr: "inproc://m1/Execution".into(),
            fss_addr: "inproc://m1/FileSystem".into(),
        }
    }

    /// Stage an executable into a fresh grid directory; returns its
    /// directory EPR.
    fn stage_exe(f: &Fixture, prog: &JobProgram) -> EndpointReference {
        let (dir, _) = fss::create_directory(&f.net, &f.fss_addr).unwrap();
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
        let (input_dir, _) = fss::create_directory(&f.net, &f.fss_addr).unwrap();
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

        let (dir, _) = fss::create_directory(&net, "inproc://m1/FileSystem").unwrap();
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
        let (dir2, _) = fss::create_directory(&net, "inproc://m1/FileSystem").unwrap();
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
        let exits = f.listener.on(&"js/job/job1/exit".into());
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].payload.attr_value("code"), Some("-9"));
        let cpu: f64 = exits[0].payload.attr_value("cpu").unwrap().parse().unwrap();
        assert!((cpu - 5.0).abs() < 1e-3);
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
}
