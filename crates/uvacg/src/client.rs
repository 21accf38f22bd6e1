//! The client side of the testbed (§4.6).
//!
//! "First, the scientist uses a GUI tool to assemble the description
//! of their job set. The tool starts a TCP-based server thread that
//! will respond to requests for any input files that need to come from
//! the scientist's local file system ... Finally, the client program
//! starts one of WSRF.NET's light-weight notification receivers to
//! receive asynchronous, WS-Notification compliant, notifications."
//!
//! [`Client`] bundles all three: a local in-memory file store served
//! under a `soap.tcp://` address (the WSE-TCP server thread), a
//! [`NotificationListener`], and the submission call. [`JobSetHandle`]
//! is what the scientist watches: progress events, per-job working
//! directories (for monitoring "by watching for changes in that
//! directory"), final outcome and output retrieval.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simclock::Clock;
use ws_notification::consumer::NotificationListener;
use ws_notification::message::NotificationMessage;
use ws_notification::topics::TopicPath;
use wsrf_core::container::action_uri;
use wsrf_core::Outbound;
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::UVACG;
use wsrf_soap::{BaseFault, EndpointReference, Envelope, SoapFault};
use wsrf_transport::{Endpoint, InProcNetwork};
use wsrf_xml::Element;

use crate::es;
use crate::fss;
use crate::job::{job_topic, Leaf, SetEnd, SetEvent};
use crate::jobset::JobSetSpec;
use crate::scheduler;
use crate::security::GridSecurity;

/// The scientist's workstation.
pub struct Client {
    /// Client id (appears in its addresses).
    pub id: String,
    net: Arc<InProcNetwork>,
    clock: Clock,
    listener: NotificationListener,
    files: Arc<Mutex<HashMap<String, Bytes>>>,
    fileserver_address: String,
    scheduler: EndpointReference,
    security: Option<(Arc<GridSecurity>, String)>,
}

/// The WSE-TCP file server thread: answers `FileSystem/Read` for
/// `local://` paths.
struct ClientFileServer {
    files: Arc<Mutex<HashMap<String, Bytes>>>,
}

impl Endpoint for ClientFileServer {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        if !env.body.name.is(UVACG, "Read") {
            return Some(SoapFault::client("client file server only supports Read").to_envelope());
        }
        let Some(name) = env.body.find(UVACG, "FileName").map(|e| e.text_content()) else {
            return Some(SoapFault::client("missing FileName").to_envelope());
        };
        match self.files.lock().get(&name) {
            Some(content) => Some(Envelope::new(fss::read_response(content))),
            None => Some(
                SoapFault::from_base(BaseFault::new(
                    "uvacg:NoSuchFile",
                    format!("no local file '{name}' on the client"),
                ))
                .to_envelope(),
            ),
        }
    }

    fn name(&self) -> &str {
        "client-file-server"
    }
}

impl Client {
    /// Create a client: registers its file server (under
    /// `soap.tcp://<id>/files`, modeling the WSE-TCP thread) and its
    /// notification listener (`inproc://<id>/listener`).
    ///
    /// `security` carries the campus PKI and the scheduler's subject
    /// name; `None` submits plaintext credentials.
    pub fn new(
        id: &str,
        net: Arc<InProcNetwork>,
        clock: Clock,
        scheduler: EndpointReference,
        security: Option<(Arc<GridSecurity>, String)>,
    ) -> Client {
        let files: Arc<Mutex<HashMap<String, Bytes>>> = Arc::new(Mutex::new(HashMap::new()));
        let fileserver_address = format!("soap.tcp://{id}/files");
        net.register(
            &fileserver_address,
            Arc::new(ClientFileServer {
                files: files.clone(),
            }) as Arc<dyn Endpoint>,
        );
        let listener = NotificationListener::register(&net, &format!("inproc://{id}/listener"));
        Client {
            id: id.to_string(),
            net,
            clock,
            listener,
            files,
            fileserver_address,
            scheduler,
            security,
        }
    }

    /// Put a file on the client's local disk (e.g. `C:\data\in.dat`).
    pub fn put_file(&self, path: impl Into<String>, content: impl Into<Bytes>) {
        self.files.lock().insert(path.into(), content.into());
    }

    /// Read back a local file.
    pub fn local_file(&self, path: &str) -> Option<Bytes> {
        self.files.lock().get(path).cloned()
    }

    /// The client's notification listener (receives every event of
    /// every job set it submits).
    pub fn listener(&self) -> &NotificationListener {
        &self.listener
    }

    /// The address of the client's file server.
    pub fn fileserver_address(&self) -> &str {
        &self.fileserver_address
    }

    /// Rediscover job sets previously submitted to this grid's
    /// Scheduler — the answer to §5's "how a client might possibly
    /// rediscover their resources should their EPRs be lost". Returns
    /// restored handles (no event history; their resource-backed
    /// methods — `status`, `resource_outcome`, `job_dir`,
    /// `fetch_output` — all work).
    pub fn rediscover(&self, name: Option<&str>) -> Result<Vec<JobSetHandle>, SoapFault> {
        let mut body = Element::new(UVACG, "FindJobSets");
        if let Some(n) = name {
            body = body.attr("name", n);
        }
        let resp = Outbound::new(
            self.scheduler.clone(),
            action_uri("Scheduler", "FindJobSets"),
            body,
        )
        .call(&self.net)?;
        let mut handles = Vec::new();
        for js in resp.body.find_all(UVACG, "JobSet") {
            let Some(epr_el) = js.find(UVACG, "JobSetEpr") else {
                continue;
            };
            let Ok(jobset) = EndpointReference::from_element(epr_el) else {
                continue;
            };
            handles.push(JobSetHandle {
                topic: js.attr_value("topic").unwrap_or_default().to_string(),
                jobset,
                listener: self.listener.clone(),
                net: self.net.clone(),
                clock: self.clock.clone(),
            });
        }
        Ok(handles)
    }

    /// Submit a job set under the given grid account.
    pub fn submit(
        &self,
        spec: &JobSetSpec,
        user: &str,
        password: &str,
    ) -> Result<JobSetHandle, SoapFault> {
        let (header, plain) = match &self.security {
            Some((sec, scheduler_subject)) => {
                let tok = UsernameToken::new(user, password);
                let header = sec.encrypt_token(&tok, scheduler_subject).ok_or_else(|| {
                    SoapFault::client(format!("scheduler '{scheduler_subject}' not enrolled"))
                })?;
                (Some(header), None)
            }
            None => (None, Some((user, password))),
        };
        let reply = scheduler::submit(
            &self.net,
            &self.scheduler,
            spec,
            Some(&self.listener.epr()),
            Some(&self.fileserver_address),
            header,
            plain,
        )?;
        Ok(JobSetHandle {
            topic: reply.topic,
            jobset: reply.jobset,
            listener: self.listener.clone(),
            net: self.net.clone(),
            clock: self.clock.clone(),
        })
    }
}

/// Final outcome of a job set.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSetOutcome {
    /// Every job exited 0.
    Completed,
    /// Some job failed; the fault chain explains where and why.
    Failed(Box<BaseFault>),
}

/// A submitted job set, as seen from the client.
#[derive(Clone)]
pub struct JobSetHandle {
    /// The notification topic base (`jobset-<key>`).
    pub topic: String,
    /// The job-set WS-Resource.
    pub jobset: EndpointReference,
    listener: NotificationListener,
    net: Arc<InProcNetwork>,
    clock: Clock,
}

impl std::fmt::Debug for JobSetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSetHandle")
            .field("topic", &self.topic)
            .field("jobset", &self.jobset)
            .finish_non_exhaustive()
    }
}

impl JobSetHandle {
    /// Non-blocking: the outcome if the terminal event has arrived.
    pub fn outcome(&self) -> Option<JobSetOutcome> {
        let ends = SetEnd::topics(&self.topic);
        self.listener.scan(|log| {
            let end = log.iter().find(|m| ends.contains(&m.topic))?;
            match SetEvent::decode(end)? {
                SetEvent::End(SetEnd::Completed) => Some(JobSetOutcome::Completed),
                SetEvent::End(SetEnd::Failed { fault, .. }) => {
                    Some(JobSetOutcome::Failed(Box::new(fault)))
                }
                SetEvent::Job(..) => None,
            }
        })
    }

    /// The EPR carried by this listener's first `leaf` event of `job`.
    fn epr_from_event(&self, job: &str, leaf: Leaf) -> Option<EndpointReference> {
        let topic = job_topic(&self.topic, job, leaf);
        self.listener.scan(|log| {
            log.iter()
                .find(|m| m.topic == topic)
                .and_then(|m| EndpointReference::from_element(&m.payload).ok())
        })
    }

    /// Blocking wait (real time) for the outcome; only meaningful on a
    /// scaled clock. A terminal event that has not arrived by `timeout`
    /// may have been lost, so the job-set resource is asked once
    /// ([`Self::resource_outcome`]); `None` if it has no outcome either.
    pub fn wait(&self, timeout: std::time::Duration) -> Option<JobSetOutcome> {
        let ends = SetEnd::topics(&self.topic);
        match self
            .listener
            .wait_until(timeout, move |m| ends.contains(&m.topic))
        {
            Some(_) => self.outcome(),
            None => self.resource_outcome().ok().flatten(),
        }
    }

    /// Blocking wait (real time) for a job's `started` event (scaled
    /// clock only). Returns false on timeout.
    pub fn wait_job_started(&self, job: &str, timeout: std::time::Duration) -> bool {
        let topic = job_topic(&self.topic, job, Leaf::Started);
        self.listener
            .wait_until(timeout, move |m| m.topic == topic)
            .is_some()
    }

    /// All events observed for this job set so far.
    pub fn events(&self) -> Vec<NotificationMessage> {
        let base = TopicPath::parse(&self.topic);
        self.listener.scan(|log| {
            log.iter()
                .filter(|m| m.topic.0.starts_with(&base.0))
                .cloned()
                .collect()
        })
    }

    /// The working-directory EPR broadcast for a job (step 9): "The
    /// client can use this EPR to retrieve files generated by the job
    /// or monitor progress by watching for changes in that directory."
    ///
    /// Falls back to the job-set resource's `JobDirectory` property
    /// when the event is not in this listener's history — the §5
    /// rediscovery path for handles restored after a client restart.
    pub fn job_dir(&self, job: &str) -> Option<EndpointReference> {
        let from_events = self.epr_from_event(job, Leaf::Dir);
        if from_events.is_some() {
            return from_events;
        }
        let proxy = wsrf_core::ResourceProxy::new(&self.net, self.jobset.clone());
        let doc = proxy.document().ok()?;
        doc.get_local("JobDirectory")
            .iter()
            .find(|e| e.attr_value("job") == Some(job))
            .and_then(|e| EndpointReference::from_element(e).ok())
    }

    /// Authoritative outcome from the job-set resource itself (works
    /// on restored handles with no event history).
    pub fn resource_outcome(&self) -> Result<Option<JobSetOutcome>, SoapFault> {
        match self.status()?.as_str() {
            scheduler::set_status::COMPLETED => Ok(Some(JobSetOutcome::Completed)),
            scheduler::set_status::FAILED => {
                let proxy = wsrf_core::ResourceProxy::new(&self.net, self.jobset.clone());
                let fault = SetEnd::fault_in(proxy.document()?.get_local("Fault").first());
                Ok(Some(JobSetOutcome::Failed(Box::new(fault))))
            }
            _ => Ok(None),
        }
    }

    /// The job EPR broadcast when a job starts.
    pub fn job_epr(&self, job: &str) -> Option<EndpointReference> {
        self.epr_from_event(job, Leaf::Started)
    }

    /// Poll a running/finished job's status resource property.
    pub fn poll_job_status(&self, job: &str) -> Option<String> {
        let epr = self.job_epr(job)?;
        es::job_status(&self.net, &epr).ok()
    }

    /// Fetch a file a job produced, via `Read` on its directory EPR.
    pub fn fetch_output(&self, job: &str, file: &str) -> Result<Bytes, SoapFault> {
        let dir = self
            .job_dir(job)
            .ok_or_else(|| SoapFault::client(format!("no working directory known for '{job}'")))?;
        fss::read(&self.net, &dir, file, None)
    }

    /// Watch a job's directory (the `List` polling loop the paper
    /// mentions).
    pub fn list_job_dir(&self, job: &str) -> Result<Vec<(String, Option<u64>)>, SoapFault> {
        let dir = self
            .job_dir(job)
            .ok_or_else(|| SoapFault::client(format!("no working directory known for '{job}'")))?;
        fss::list(&self.net, &dir)
    }

    /// The job set's `Status` resource property (server-side view).
    pub fn status(&self) -> Result<String, SoapFault> {
        wsrf_core::ResourceProxy::new(&self.net, self.jobset.clone()).get_text("Status")
    }

    /// Kill a running job of this set.
    pub fn kill_job(&self, job: &str) -> Result<bool, SoapFault> {
        let epr = self
            .job_epr(job)
            .ok_or_else(|| SoapFault::client(format!("job '{job}' has not started")))?;
        es::kill(&self.net, &epr)
    }

    /// The grid clock (manual-mode tests advance it to drive the run).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}
