//! A job's life at its Execution Service, and the events it is told in.
//!
//! "The ES's WS-Resources are jobs" (§4.2): a job's `Status` property is
//! its state, and each change of state is re-broadcast through the
//! broker on `<topic>/job/<name>/<leaf>` for the Scheduler and the
//! client, and the Scheduler ends the set on `<topic>/completed` or
//! `<topic>/failed`. This module owns the event format (one encoder, one
//! decoder) and the ES's transitions ([`JobLife::apply`]). Like
//! `scheduler/run.rs` it is pure: it sends nothing, stores nothing and
//! reads no clock.

use ws_notification::message::NotificationMessage;
use ws_notification::topics::TopicPath;
use wsrf_core::properties::PropertyDoc;
use wsrf_soap::ns::{UVACG, WSBF};
use wsrf_soap::{BaseFault, EndpointReference};
use wsrf_xml::Element;

use crate::q;

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

/// The last segment of a job event's topic, one per [`JobEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    Dir,
    Started,
    Exit,
    Failed,
}

/// `<topic>/job/<job>/<leaf>`: where job `job` of the set on `topic`
/// tells of `leaf`.
pub fn job_topic(topic: &str, job: &str, leaf: Leaf) -> TopicPath {
    let leaf = match leaf {
        Leaf::Dir => "dir",
        Leaf::Started => "started",
        Leaf::Exit => "exit",
        Leaf::Failed => "failed",
    };
    TopicPath::parse(topic).child("job").child(job).child(leaf)
}

/// One-call job snapshot returned by the ES's read-only `QueryJob` op.
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
    /// Why staging or spawning failed, for a `Failed` job.
    pub reason: Option<String>,
}

/// What a job's notification says.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Its working directory exists (payload: the directory's EPR).
    Dir(EndpointReference),
    /// Staging finished and the process spawned (payload: the job's
    /// EPR, so anyone may poll its `Status`).
    Started,
    /// The process exited (an unparseable code decodes as `-1`).
    Exit { code: i32, cpu: Option<f64> },
    /// Staging or spawning failed, for the stated reason.
    Failed(String),
}

impl JobEvent {
    /// The notification job `job` of the set on `topic` publishes for
    /// this event; `job_epr`, the job's own resource, is its producer.
    pub fn message(
        &self,
        topic: &str,
        job: &str,
        job_epr: &EndpointReference,
    ) -> NotificationMessage {
        let epr = |e: &EndpointReference, name| e.to_element_named(UVACG, name).attr("job", job);
        let (leaf, payload) = match self {
            JobEvent::Dir(dir) => (Leaf::Dir, epr(dir, "WorkingDirectory")),
            JobEvent::Started => (Leaf::Started, epr(job_epr, "JobEpr")),
            JobEvent::Exit { code, cpu } => {
                let mut el = Element::new(UVACG, "JobExit")
                    .attr("job", job)
                    .attr("code", code.to_string());
                if let Some(cpu) = cpu {
                    el = el.attr("cpu", format!("{cpu:.6}"));
                }
                let el = el.child(job_epr.to_element_named(UVACG, "JobEpr"));
                (Leaf::Exit, el)
            }
            JobEvent::Failed(why) => {
                let el = Element::new(UVACG, "JobFailed").attr("job", job).text(why);
                (Leaf::Failed, el)
            }
        };
        NotificationMessage::new(job_topic(topic, job, leaf), payload)
            .from_producer(job_epr.clone())
    }

    /// The event a polled job's state stands for — what a poller that
    /// missed the broadcast settles the job with — or `None` while the
    /// job is still staging or running.
    pub fn settled(snap: &JobSnapshot) -> Option<JobEvent> {
        match snap.status.as_str() {
            status::EXITED => Some(JobEvent::Exit {
                code: snap.exit_code.map_or(-1, |c| c as i32),
                cpu: Some(snap.cpu_time),
            }),
            status::FAILED => Some(JobEvent::Failed(snap.reason.clone().unwrap_or_default())),
            _ => None,
        }
    }
}

/// How a job set ends.
#[derive(Debug, Clone, PartialEq)]
pub enum SetEnd {
    /// Every job exited 0.
    Completed,
    /// The set failed at job `job`; `fault` says why.
    Failed { job: String, fault: BaseFault },
}

impl SetEnd {
    /// `<topic>/completed` and `<topic>/failed`, the topics a set on
    /// `topic` can end on.
    pub fn topics(topic: &str) -> [TopicPath; 2] {
        ["completed", "failed"].map(|end| TopicPath::parse(topic).child(end))
    }

    /// The notification that ends the set on `topic`.
    pub fn message(&self, topic: &str) -> NotificationMessage {
        let [completed, failed] = SetEnd::topics(topic);
        match self {
            SetEnd::Completed => {
                NotificationMessage::new(completed, Element::new(UVACG, "JobSetCompleted"))
            }
            SetEnd::Failed { job, fault } => {
                let el = Element::new(UVACG, "JobSetFailed").attr("job", job);
                NotificationMessage::new(failed, el.child(fault.to_element()))
            }
        }
    }

    /// The fault inside `el` — a `JobSetFailed` payload or a job set's
    /// `Fault` property — or a bare one when it carries none.
    pub fn fault_in(el: Option<&Element>) -> BaseFault {
        el.and_then(|e| e.find(WSBF, "BaseFault"))
            .map(BaseFault::from_element)
            .unwrap_or_else(|| BaseFault::new("uvacg:JobSetFailed", "job set failed"))
    }
}

/// A job set's notification, decoded once for every reader.
#[derive(Debug, Clone, PartialEq)]
pub enum SetEvent {
    /// `<topic>/job/<name>/<leaf>`: something happened to job `name`.
    Job(String, JobEvent),
    /// `<topic>/completed` or `<topic>/failed`: the set is over.
    End(SetEnd),
}

impl SetEvent {
    /// Read back what [`JobEvent::message`] or [`SetEnd::message`]
    /// wrote; `None` for any other notification.
    pub fn decode(msg: &NotificationMessage) -> Option<SetEvent> {
        let p = &msg.payload;
        let event = match msg.topic.0.as_slice() {
            [_, end] => SetEvent::End(match end.as_str() {
                "completed" => SetEnd::Completed,
                "failed" => SetEnd::Failed {
                    job: p.attr_value("job").unwrap_or_default().to_string(),
                    fault: SetEnd::fault_in(Some(p)),
                },
                _ => return None,
            }),
            [_, job, name, leaf] if job == "job" => SetEvent::Job(
                name.clone(),
                match leaf.as_str() {
                    "dir" => JobEvent::Dir(EndpointReference::from_element(p).ok()?),
                    "started" => JobEvent::Started,
                    "exit" => JobEvent::Exit {
                        code: p
                            .attr_value("code")
                            .and_then(|c| c.parse().ok())
                            .unwrap_or(-1),
                        cpu: p.attr_value("cpu").and_then(|c| c.parse().ok()),
                    },
                    "failed" => JobEvent::Failed(p.text_content()),
                    _ => return None,
                },
            ),
            _ => return None,
        };
        Some(event)
    }
}

/// Something that happens to a job at its Execution Service.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Staging ended: every input is in place, or why not.
    Staged(Result<(), String>),
    /// The `Run` that created the job faults for this reason: its
    /// upload request could not be sent. The fault is the only report.
    Faulted(String),
    /// ProcSpawn answered: the process's pid, or why it cannot run.
    Spawned(Result<u64, String>),
    /// The process exited with `code` after `cpu` CPU-seconds.
    Exited { code: i32, cpu: f64 },
}

/// What a [`Step`] did besides the property writes [`JobLife::apply`]
/// made.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Change {
    /// The job reached a terminal state: give its resource the terminal
    /// retention lease.
    pub retire: bool,
    /// What to broadcast.
    pub event: Option<JobEvent>,
}

/// The ES's job state machine. Its states are the [`status`] values a
/// job resource's `Status` property holds.
pub struct JobLife;

impl JobLife {
    /// Apply `step` to the job resource `doc`: write the properties it
    /// changes and say what else to do. The whole table (a transition
    /// names the new `Status`, then the retire flag and the event):
    ///
    /// | state   | `Staged(Ok)`       | `Staged(Err)`            | `Faulted`      | `Spawned(Ok(pid))` | `Spawned(Err)`           | `Exited`                 |
    /// |---------|--------------------|--------------------------|----------------|--------------------|--------------------------|--------------------------|
    /// | Staging | Running, `Started` | Failed, retire, `Failed` | Failed, retire | writes `Pid`       | Failed, retire, `Failed` | Exited, retire, `Exit`   |
    /// | Running | —                  | —                        | —              | writes `Pid`       | Failed, retire, `Failed` | Exited, retire, `Exit`   |
    /// | Exited  | —                  | —                        | —              | writes `Pid`       | —                        | —                        |
    /// | Failed  | —                  | —                        | —              | —                  | —                        | —                        |
    /// | gone    | —                  | —                        | —              | —                  | —                        | `Exit` ([`Self::gone`])  |
    ///
    /// A pid never changes the state, so it never overwrites `Exited`:
    /// a zero-work program's exit runs inline inside the spawn, before
    /// the spawn's pid is recorded. Terminal states absorb every other
    /// step, so a late or repeated one neither rewrites the outcome nor
    /// broadcasts it twice. A `Faulted` job broadcasts nothing: its
    /// `Run` caller hears of the failure as that call's fault, and a
    /// `failed` event too would race the fault to the Scheduler, which
    /// ends the set on whichever comes first. A document without a
    /// known `Status` is left alone.
    pub fn apply(doc: &mut PropertyDoc, step: Step) -> Change {
        use status::{EXITED, FAILED, RUNNING, STAGING};
        let state = doc.text(&q("Status"));
        match (state.as_deref().unwrap_or_default(), step) {
            (STAGING, Step::Staged(Ok(()))) => {
                doc.set_text(q("Status"), RUNNING);
                Change {
                    retire: false,
                    event: Some(JobEvent::Started),
                }
            }
            (STAGING, Step::Staged(Err(why))) | (STAGING | RUNNING, Step::Spawned(Err(why))) => {
                doc.set_text(q("Status"), FAILED);
                doc.set_text(q("FailureReason"), &why);
                Change {
                    retire: true,
                    event: Some(JobEvent::Failed(why)),
                }
            }
            // A staging failure that only the fault reports.
            (STAGING, Step::Faulted(why)) => Change {
                event: None,
                ..JobLife::apply(doc, Step::Staged(Err(why)))
            },
            (STAGING | RUNNING | EXITED, Step::Spawned(Ok(pid))) => {
                doc.set_i64(q("Pid"), pid as i64);
                Change::default()
            }
            (STAGING | RUNNING, step @ Step::Exited { code, cpu }) => {
                doc.set_text(q("Status"), EXITED);
                doc.set_i64(q("ExitCode"), code as i64);
                doc.set_f64(q("CpuAtExit"), cpu);
                Change {
                    retire: true,
                    ..JobLife::gone(step)
                }
            }
            // Staging is over once the job runs; terminal states absorb.
            _ => Change::default(),
        }
    }

    /// What `step` does for a job whose resource is gone — destroyed,
    /// or expired, while its process ran: the exit is still broadcast,
    /// so the set waiting for it can end. Nothing else is.
    pub fn gone(step: Step) -> Change {
        match step {
            Step::Exited { code, cpu } => Change {
                retire: false,
                event: Some(JobEvent::Exit {
                    code,
                    cpu: Some(cpu),
                }),
            },
            _ => Change::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epr(address: &str) -> EndpointReference {
        EndpointReference::service(address)
    }

    /// A job resource in `state` whose Status has never changed.
    fn doc_in(state: &str) -> PropertyDoc {
        let mut doc = PropertyDoc::new();
        doc.set_text(q("Status"), state);
        doc
    }

    /// The properties a transition may write, in one comparable row.
    fn written(doc: &PropertyDoc) -> [Option<String>; 5] {
        ["Status", "Pid", "ExitCode", "CpuAtExit", "FailureReason"].map(|p| doc.text(&q(p)))
    }

    #[test]
    fn every_state_meets_every_step_as_the_table_says() {
        use status::{EXITED, FAILED, RUNNING, STAGING};
        let steps = [
            Step::Staged(Ok(())),
            Step::Staged(Err("in.dat: no such file".into())),
            Step::Faulted("cannot request upload".into()),
            Step::Spawned(Ok(42)),
            Step::Spawned(Err("bad logon".into())),
            Step::Exited { code: 3, cpu: 1.5 },
        ];
        let s = |v: &str| Some(v.to_string());
        // Per state, per step: (Status, Pid, ExitCode, CpuAtExit,
        // FailureReason) afterwards, the retire flag and the event.
        let unchanged = |st: &str| ([s(st), None, None, None, None], false, None);
        let failed = |why: &str| {
            let w = [s(FAILED), None, None, None, s(why)];
            (w, true, Some(JobEvent::Failed(why.into())))
        };
        let pid = |st: &str| ([s(st), s("42"), None, None, None], false, None);
        // Failed and retired, but told by the Run's fault only.
        let faulted = (failed("cannot request upload").0, true, None);
        let exited = (
            [s(EXITED), None, s("3"), s("1.5"), None],
            true,
            Some(JobEvent::Exit {
                code: 3,
                cpu: Some(1.5),
            }),
        );
        let table = [
            (
                STAGING,
                [
                    (
                        [s(RUNNING), None, None, None, None],
                        false,
                        Some(JobEvent::Started),
                    ),
                    failed("in.dat: no such file"),
                    faulted,
                    pid(STAGING),
                    failed("bad logon"),
                    exited.clone(),
                ],
            ),
            (
                RUNNING,
                [
                    unchanged(RUNNING),
                    unchanged(RUNNING),
                    unchanged(RUNNING),
                    pid(RUNNING),
                    failed("bad logon"),
                    exited.clone(),
                ],
            ),
            (
                EXITED,
                [
                    unchanged(EXITED),
                    unchanged(EXITED),
                    unchanged(EXITED),
                    // A pid never overwrites Exited.
                    pid(EXITED),
                    unchanged(EXITED),
                    unchanged(EXITED),
                ],
            ),
            (FAILED, [(); 6].map(|()| unchanged(FAILED))),
        ];
        for (state, row) in table {
            for (step, (writes, retire, event)) in steps.iter().zip(row) {
                let mut doc = doc_in(state);
                let change = JobLife::apply(&mut doc, step.clone());
                let what = format!("{state} x {step:?}");
                assert_eq!(written(&doc), writes, "{what}: writes");
                assert_eq!(change, Change { retire, event }, "{what}: change");
            }
        }
        // The gone row: only an exit is still told, and nothing retires.
        for step in steps {
            let event = match step {
                Step::Exited { code, cpu } => Some(JobEvent::Exit {
                    code,
                    cpu: Some(cpu),
                }),
                _ => None,
            };
            let what = format!("gone x {step:?}");
            let change = Change {
                retire: false,
                event,
            };
            assert_eq!(JobLife::gone(step), change, "{what}");
        }
    }

    #[test]
    fn a_document_without_a_known_status_is_left_alone() {
        for status in [None, Some("Bogus")] {
            let mut doc = PropertyDoc::new();
            if let Some(s) = status {
                doc.set_text(q("Status"), s);
            }
            let before = doc.clone();
            let change = JobLife::apply(&mut doc, Step::Exited { code: 0, cpu: 1.0 });
            assert_eq!((change, doc), (Change::default(), before));
        }
    }

    #[test]
    fn the_scheduler_decodes_exactly_what_the_es_encodes() {
        let job_epr = epr("inproc://m1/Execution");
        let events = [
            JobEvent::Dir(epr("inproc://m1/FileSystem")),
            JobEvent::Started,
            JobEvent::Exit {
                code: 4,
                cpu: Some(1.25),
            },
            JobEvent::Exit {
                code: -9,
                cpu: None,
            },
            JobEvent::Failed("in.dat: no such file".into()),
        ];
        for event in events {
            let msg = event.message("jobset-k", "a", &job_epr);
            assert_eq!(msg.producer.as_ref(), Some(&job_epr));
            // Over the wire, the way a remote reader gets it.
            let wire = wsrf_xml::parse(&msg.to_element().to_xml()).unwrap();
            let back = NotificationMessage::from_element(&wire).unwrap();
            assert_eq!(
                SetEvent::decode(&back),
                Some(SetEvent::Job("a".into(), event.clone())),
                "{}",
                msg.topic
            );
        }
        let ends = [
            SetEnd::Completed,
            SetEnd::Failed {
                job: "a".into(),
                fault: BaseFault::new("uvacg:JobSetFailed", "job set failed at job 'a'"),
            },
        ];
        for (end, topic) in ends.into_iter().zip(SetEnd::topics("jobset-k")) {
            let msg = end.message("jobset-k");
            assert_eq!(msg.topic, topic);
            assert_eq!(SetEvent::decode(&msg), Some(SetEvent::End(end)));
        }
    }

    #[test]
    fn topics_name_the_set_the_job_and_the_leaf() {
        let msg = JobEvent::Started.message("jobset-k", "a", &epr("inproc://m1/Execution"));
        assert_eq!(msg.topic, job_topic("jobset-k", "a", Leaf::Started));
        assert_eq!(msg.topic.to_string(), "jobset-k/job/a/started");
        let [completed, failed] = SetEnd::topics("jobset-k");
        assert_eq!(
            (completed.to_string(), failed.to_string()),
            ("jobset-k/completed".into(), "jobset-k/failed".into())
        );
        let other = |topic: &str| {
            NotificationMessage::new(TopicPath::parse(topic), Element::new(UVACG, "X"))
        };
        for topic in [
            "jobset-k/job/a/bogus",
            "jobset-k/job/a",
            "jobset-k/bogus",
            "jobset-k",
        ] {
            assert_eq!(SetEvent::decode(&other(topic)), None, "{topic}");
        }
    }

    #[test]
    fn a_polled_job_settles_as_its_broadcast_would_have() {
        let snap = |status: &str, exit_code, reason: Option<&str>| JobSnapshot {
            name: "a".into(),
            status: status.into(),
            exit_code,
            cpu_time: 2.5,
            reason: reason.map(str::to_string),
        };
        assert_eq!(
            JobEvent::settled(&snap(status::EXITED, Some(7), None)),
            Some(JobEvent::Exit {
                code: 7,
                cpu: Some(2.5)
            })
        );
        assert_eq!(
            JobEvent::settled(&snap(status::FAILED, None, Some("bad logon"))),
            Some(JobEvent::Failed("bad logon".into()))
        );
        for status in [status::STAGING, status::RUNNING] {
            assert_eq!(JobEvent::settled(&snap(status, None, None)), None);
        }
    }
}
