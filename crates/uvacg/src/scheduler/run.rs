//! How a job set's state changes when something happens to it.
//!
//! Both scheduler roles keep the same table: the primary drives its
//! sets with these transitions and the standby replays them from the
//! primary's replication stream and the sets' own event topics, so
//! promotion adopts the standby's [`RunState`]s as they are. Nothing
//! here sends a message, touches a store or reads a clock: time comes
//! in as a [`SimTime`] argument.

use std::collections::HashMap;
use std::sync::Arc;

use simclock::SimTime;
use ws_notification::message::NotificationMessage;
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{BaseFault, EndpointReference, TraceContext};
use wsrf_xml::Element;

use crate::es::RunReply;
use crate::jobset::{JobSetSpec, JobSpec};
use crate::security::GridSecurity;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum JobState {
    #[default]
    Waiting,
    Dispatched,
    Completed,
    Failed,
}

#[derive(Default)]
pub(super) struct JobRun {
    pub(super) state: JobState,
    /// An intent to dispatch was replicated but nothing since shows the
    /// Run reached the machine: the primary may or may not have issued
    /// it before dying. Safe either way — re-issuing is deduplicated at
    /// the ES.
    pub(super) uncertain: bool,
    pub(super) machine: Option<String>,
    pub(super) dir_epr: Option<EndpointReference>,
    pub(super) job_epr: Option<EndpointReference>,
    pub(super) exit_code: Option<i32>,
    pub(super) cpu_used: Option<f64>,
    pub(super) dispatched_at: Option<SimTime>,
}

/// One unfinished job set.
pub(super) struct RunState {
    pub(super) spec: JobSetSpec,
    pub(super) topic: String,
    pub(super) credentials: (String, String),
    pub(super) client_fileserver: Option<String>,
    pub(super) jobs: HashMap<String, JobRun>,
    pub(super) submitted_at: SimTime,
    /// Trace context of the submission dispatch: every downstream
    /// message and Figure 3 step mark for this set parents under it.
    pub(super) trace: Option<TraceContext>,
}

/// The credentials a submission or its replication record carries: a
/// WS-Security `header` encrypted to the scheduler's subject when
/// `security` is set, else the `user`/`password` attributes of `plain`
/// (insecure deployments only).
pub(super) fn open_credentials(
    security: &Option<(Arc<GridSecurity>, String)>,
    header: Option<&Element>,
    plain: Option<&Element>,
) -> Result<(String, String), BaseFault> {
    let missing = |what| BaseFault::new("uvacg:MissingCredentials", what);
    match security {
        Some((sec, subject)) => {
            let header = header.ok_or_else(|| missing("no WS-Security header"))?;
            let tok = sec.decrypt_token(header, subject).map_err(|e| {
                BaseFault::new("uvacg:BadCredentials", format!("cannot decrypt: {e}"))
            })?;
            Ok((tok.username, tok.password))
        }
        None => {
            let el = plain.ok_or_else(|| missing("no Credentials element"))?;
            let attr = |n| el.attr_value(n).unwrap_or_default().to_string();
            Ok((attr("user"), attr("password")))
        }
    }
}

/// What a job's notification on `jobset-<key>/job/<name>/<event>` says.
pub(super) enum JobEvent {
    /// Its working directory exists (payload: the directory's EPR).
    Dir(EndpointReference),
    /// Staging finished and the process spawned.
    Started,
    /// The process exited (an unparseable code counts as `-1`).
    Exit {
        code: i32,
        cpu: Option<f64>,
        job_epr: Option<EndpointReference>,
    },
    /// Staging or spawning failed, for the stated reason.
    Failed(String),
}

/// A job set's notification, decoded once for both roles.
pub(super) enum SetEvent {
    Job(String, JobEvent),
    /// `jobset-<key>/completed` or `/failed`: the set is over.
    Finished,
}

impl SetEvent {
    pub(super) fn decode(msg: &NotificationMessage) -> Option<SetEvent> {
        let p = &msg.payload;
        match msg.topic.0.as_slice() {
            [_, end] if end == "completed" || end == "failed" => Some(SetEvent::Finished),
            [_, job, name, event] if job == "job" => {
                let event = match event.as_str() {
                    "dir" => JobEvent::Dir(EndpointReference::from_element(p).ok()?),
                    "started" => JobEvent::Started,
                    "exit" => JobEvent::Exit {
                        code: p
                            .attr_value("code")
                            .and_then(|c| c.parse().ok())
                            .unwrap_or(-1),
                        cpu: p.attr_value("cpu").and_then(|c| c.parse().ok()),
                        job_epr: p
                            .find(UVACG, "JobEpr")
                            .and_then(|e| EndpointReference::from_element(e).ok()),
                    },
                    "failed" => JobEvent::Failed(p.text_content()),
                    _ => return None,
                };
                Some(SetEvent::Job(name.clone(), event))
            }
            _ => None,
        }
    }
}

/// What [`RunState::apply`] changed.
#[derive(Debug, PartialEq)]
pub(super) enum Change {
    /// Nothing: an unknown job, a finished set, or an event already
    /// accounted for.
    None,
    /// The job's working directory was recorded.
    Dir,
    /// The job is known to have reached its machine.
    Started,
    /// A clean exit was recorded; `complete` when it was the set's last
    /// job.
    Exited { complete: bool },
    /// The job failed, which fails the set; `why` completes "job 'x' …".
    Failed { why: String },
}

impl RunState {
    /// A freshly submitted set: every job `Waiting`.
    pub(super) fn new(
        spec: JobSetSpec,
        topic: String,
        credentials: (String, String),
        client_fileserver: Option<String>,
        submitted_at: SimTime,
        trace: Option<TraceContext>,
    ) -> RunState {
        let jobs = spec
            .jobs
            .iter()
            .map(|j| (j.name.clone(), JobRun::default()))
            .collect();
        RunState {
            spec,
            topic,
            credentials,
            client_fileserver,
            jobs,
            submitted_at,
            trace,
        }
    }

    /// The replication record of a submission (`ReplSubmit`). With
    /// `security` the credentials travel encrypted to the scheduler's
    /// own subject, never in clear.
    pub(super) fn to_element(&self, security: &Option<(Arc<GridSecurity>, String)>) -> Element {
        let mut el = Element::new(UVACG, "ReplSubmit")
            .attr("topic", &self.topic)
            .attr("t", self.submitted_at.as_nanos().to_string())
            .child(self.spec.to_element());
        let (user, password) = &self.credentials;
        match security {
            Some((sec, subject)) => {
                let tok = UsernameToken::new(user, password);
                el = el.children(sec.encrypt_token(&tok, subject));
            }
            None => el = el.attr("user", user).attr("password", password),
        }
        if let Some(fs) = &self.client_fileserver {
            el = el.attr("fileserver", fs);
        }
        el
    }

    /// Decode a `ReplSubmit` (None when malformed or, with `security`,
    /// when its credentials do not decrypt).
    pub(super) fn from_element(
        el: &Element,
        security: &Option<(Arc<GridSecurity>, String)>,
    ) -> Option<RunState> {
        let spec = JobSetSpec::from_element(el.find(UVACG, "JobSet")?)?;
        let credentials = open_credentials(security, el.find(WSSE, "Security"), Some(el)).ok()?;
        Some(RunState::new(
            spec,
            el.attr_value("topic").unwrap_or_default().to_string(),
            credentials,
            el.attr_value("fileserver").map(str::to_string),
            SimTime(el.attr_value("t").and_then(|t| t.parse().ok()).unwrap_or(0)),
            None,
        ))
    }

    /// Every job completed.
    pub(super) fn is_complete(&self) -> bool {
        self.jobs.values().all(|j| j.state == JobState::Completed)
    }

    /// The first waiting job whose dependencies have all completed.
    pub(super) fn next_ready(&self) -> Option<&JobSpec> {
        self.spec.jobs.iter().find(|j| {
            self.jobs[&j.name].state == JobState::Waiting
                && j.dependencies()
                    .iter()
                    .all(|d| self.jobs[*d].state == JobState::Completed)
        })
    }

    /// The primary placed `job` on `machine` and is about to send it.
    pub(super) fn dispatch(&mut self, job: &str, machine: &str, now: SimTime) -> &JobRun {
        let jr = self
            .jobs
            .get_mut(job)
            .expect("dispatching a job of this set");
        jr.state = JobState::Dispatched;
        jr.machine = Some(machine.to_string());
        jr.dispatched_at = Some(now);
        jr
    }

    /// A replicated intent: the primary picked `machine` for a waiting
    /// `job` and may have sent it.
    pub(super) fn note_intent(&mut self, job: &str, machine: Option<&str>) {
        if let Some(jr) = self.jobs.get_mut(job) {
            if jr.state == JobState::Waiting {
                jr.uncertain = true;
                jr.machine = machine.map(str::to_string);
            }
        }
    }

    /// The ES answered `job`'s Run: the job is certainly on its
    /// machine. A working directory already announced is kept.
    pub(super) fn note_dispatched(&mut self, job: &str, reply: RunReply) {
        if let Some(jr) = self.jobs.get_mut(job) {
            jr.uncertain = false;
            if jr.state == JobState::Waiting {
                jr.state = JobState::Dispatched;
            }
            jr.job_epr = Some(reply.job);
            jr.dir_epr.get_or_insert(reply.workdir);
        }
    }

    /// Apply one job event. Idempotent: a job already in a terminal
    /// state keeps it, so a re-observed exit can never double-count or
    /// re-trigger dispatches.
    pub(super) fn apply(&mut self, job: &str, event: &JobEvent) -> Change {
        let failed = self.jobs.values().any(|j| j.state == JobState::Failed);
        if failed || self.is_complete() {
            return Change::None;
        }
        let Some(jr) = self.jobs.get_mut(job) else {
            return Change::None;
        };
        match event {
            JobEvent::Dir(epr) => {
                jr.dir_epr = Some(epr.clone());
                Change::Dir
            }
            JobEvent::Started => {
                jr.uncertain = false;
                if jr.state == JobState::Waiting {
                    jr.state = JobState::Dispatched;
                }
                Change::Started
            }
            _ if jr.state == JobState::Completed => Change::None,
            JobEvent::Exit { code, cpu, job_epr } => {
                jr.uncertain = false;
                jr.exit_code = Some(*code);
                jr.cpu_used = *cpu;
                if let Some(epr) = job_epr {
                    jr.job_epr = Some(epr.clone());
                }
                if *code != 0 {
                    jr.state = JobState::Failed;
                    return Change::Failed {
                        why: format!("exited with code {code}"),
                    };
                }
                jr.state = JobState::Completed;
                Change::Exited {
                    complete: self.is_complete(),
                }
            }
            JobEvent::Failed(reason) => {
                jr.uncertain = false;
                jr.state = JobState::Failed;
                Change::Failed {
                    why: format!("failed: {reason}"),
                }
            }
        }
    }

    /// Take the set over after a failover at `now`: an uncertain job
    /// still `Waiting` becomes `Dispatched` (and stays `uncertain`
    /// until its re-issued Run is answered), and every dispatched job's
    /// clock starts now. Witnessed exits are left alone.
    pub(super) fn adopt(&mut self, now: SimTime) {
        for jr in self.jobs.values_mut() {
            if jr.uncertain && jr.state == JobState::Waiting {
                jr.state = JobState::Dispatched;
            }
            if jr.state == JobState::Dispatched {
                jr.dispatched_at = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobset::FileRef;
    use ws_notification::topics::TopicPath;

    fn job(name: &str, deps: &[&str]) -> JobSpec {
        let exe = FileRef::parse(&format!("local://C:\\{name}.exe")).unwrap();
        deps.iter().fold(JobSpec::new(name, exe), |j, d| {
            j.input(FileRef::parse(&format!("{d}://out.dat")).unwrap(), *d)
        })
    }

    /// a → {b, c} → d
    fn diamond() -> RunState {
        let spec = JobSetSpec::new("diamond")
            .job(job("a", &[]).output("out.dat"))
            .job(job("b", &["a"]).output("out.dat"))
            .job(job("c", &["a"]).output("out.dat"))
            .job(job("d", &["b", "c"]));
        RunState::new(
            spec,
            "jobset-k".into(),
            ("alice".into(), "s3cret-gridpass".into()),
            Some("inproc://client/Files".into()),
            SimTime(7),
            None,
        )
    }

    fn exit(code: i32) -> JobEvent {
        JobEvent::Exit {
            code,
            cpu: Some(0.5),
            job_epr: None,
        }
    }

    fn state(run: &RunState, job: &str) -> JobState {
        run.jobs[job].state
    }

    fn ready(run: &RunState) -> Option<&str> {
        run.next_ready().map(|j| j.name.as_str())
    }

    #[test]
    fn diamond_dispatches_in_dependency_order() {
        let mut run = diamond();
        assert_eq!(ready(&run), Some("a"));
        run.dispatch("a", "m1", SimTime(1));
        assert_eq!(ready(&run), None, "b and c wait for a");
        assert_eq!(run.apply("a", &exit(0)), Change::Exited { complete: false });
        assert_eq!(ready(&run), Some("b"));
        run.dispatch("b", "m1", SimTime(2));
        assert_eq!(ready(&run), Some("c"), "c is ready beside b");
        run.dispatch("c", "m2", SimTime(2));
        assert_eq!(run.apply("b", &exit(0)), Change::Exited { complete: false });
        assert_eq!(ready(&run), None, "d waits for c too");
        assert_eq!(run.apply("c", &exit(0)), Change::Exited { complete: false });
        assert_eq!(ready(&run), Some("d"));
        run.dispatch("d", "m1", SimTime(3));
        assert_eq!(run.apply("d", &exit(0)), Change::Exited { complete: true });
        assert!(run.is_complete());
    }

    #[test]
    fn a_reobserved_exit_changes_nothing() {
        let mut run = diamond();
        run.dispatch("a", "m1", SimTime(1));
        assert_eq!(run.apply("a", &exit(0)), Change::Exited { complete: false });
        let again = JobEvent::Exit {
            code: 3,
            cpu: Some(9.0),
            job_epr: None,
        };
        assert_eq!(run.apply("a", &again), Change::None);
        assert_eq!(state(&run, "a"), JobState::Completed);
        assert_eq!(run.jobs["a"].exit_code, Some(0));
        assert_eq!(run.jobs["a"].cpu_used, Some(0.5));
    }

    #[test]
    fn a_nonzero_exit_fails_the_set() {
        let mut run = diamond();
        run.dispatch("a", "m1", SimTime(1));
        assert_eq!(
            run.apply("a", &exit(2)),
            Change::Failed {
                why: "exited with code 2".into()
            }
        );
        assert_eq!(state(&run, "a"), JobState::Failed);
        assert_eq!(run.jobs["a"].exit_code, Some(2));
        assert_eq!(ready(&run), None, "dependents are never dispatched");
    }

    #[test]
    fn events_for_unknown_jobs_or_finished_sets_change_nothing() {
        let mut run = diamond();
        assert_eq!(run.apply("ghost", &exit(0)), Change::None);
        assert_eq!(run.apply("ghost", &JobEvent::Started), Change::None);

        run.dispatch("a", "m1", SimTime(1));
        let failed = JobEvent::Failed("disk full".into());
        assert_eq!(
            run.apply("a", &failed),
            Change::Failed {
                why: "failed: disk full".into()
            }
        );
        // The set is over: a straggler for another job is ignored.
        assert_eq!(run.apply("b", &exit(0)), Change::None);
        assert_eq!(run.apply("b", &JobEvent::Started), Change::None);
        assert_eq!(state(&run, "b"), JobState::Waiting);
    }

    #[test]
    fn adopt_reowns_uncertain_waiting_jobs_and_keeps_witnessed_exits() {
        let mut run = diamond();
        // a: exit witnessed first-hand. b: intent only. c: dispatch
        // replicated. d: untouched.
        run.note_intent("a", Some("m1"));
        assert_eq!(run.apply("a", &exit(0)), Change::Exited { complete: false });
        run.note_intent("b", Some("m2"));
        run.note_intent("c", Some("m1"));
        let epr = |a: &str| EndpointReference::service(a);
        let reply = RunReply {
            job: epr("inproc://m1/job"),
            workdir: epr("inproc://m1/dir"),
        };
        run.note_dispatched("c", reply);

        run.adopt(SimTime(100));
        let a = &run.jobs["a"];
        assert_eq!(
            (a.state, a.exit_code, a.uncertain),
            (JobState::Completed, Some(0), false)
        );
        assert_eq!(a.dispatched_at, None);
        let b = &run.jobs["b"];
        assert_eq!((b.state, b.uncertain), (JobState::Dispatched, true));
        assert_eq!(
            (b.machine.as_deref(), b.dispatched_at),
            (Some("m2"), Some(SimTime(100)))
        );
        let c = &run.jobs["c"];
        assert_eq!((c.state, c.uncertain), (JobState::Dispatched, false));
        assert_eq!(c.dir_epr, Some(epr("inproc://m1/dir")));
        assert_eq!(c.dispatched_at, Some(SimTime(100)));
        assert_eq!(state(&run, "d"), JobState::Waiting);
    }

    #[test]
    fn events_decode_once_for_both_roles() {
        let msg = |topic: &str, payload: Element| {
            NotificationMessage::new(TopicPath::parse(topic), payload)
        };
        let exit = Element::new(UVACG, "JobExit")
            .attr("code", "4")
            .attr("cpu", "1.250000");
        match SetEvent::decode(&msg("jobset-k/job/a/exit", exit)) {
            Some(SetEvent::Job(name, JobEvent::Exit { code, cpu, job_epr })) => {
                assert_eq!((name.as_str(), code, cpu), ("a", 4, Some(1.25)));
                assert!(job_epr.is_none());
            }
            _ => panic!("exit not decoded"),
        }
        let empty = || Element::new(UVACG, "X");
        assert!(matches!(
            SetEvent::decode(&msg("jobset-k/failed", empty())),
            Some(SetEvent::Finished)
        ));
        assert!(SetEvent::decode(&msg("jobset-k/job/a/bogus", empty())).is_none());
        assert!(SetEvent::decode(&msg("jobset-k/job/a", empty())).is_none());
    }

    fn assert_same_submission(a: &RunState, b: &RunState) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.topic, b.topic);
        assert_eq!(a.credentials, b.credentials);
        assert_eq!(a.client_fileserver, b.client_fileserver);
        assert_eq!(a.submitted_at, b.submitted_at);
        assert!(b.jobs.values().all(|j| j.state == JobState::Waiting));
    }

    #[test]
    fn repl_submit_roundtrips_in_clear_without_security() {
        let run = diamond();
        let el = run.to_element(&None);
        assert_eq!(el.attr_value("password"), Some("s3cret-gridpass"));
        let back = RunState::from_element(&el, &None).expect("decodes");
        assert_same_submission(&run, &back);
    }

    #[test]
    fn repl_submit_roundtrips_encrypted_with_security() {
        let sec = GridSecurity::new(11);
        sec.enroll("scheduler");
        sec.enroll("eve");
        let security = Some((sec.clone(), "scheduler".to_string()));
        let run = diamond();
        let el = run.to_element(&security);
        assert_eq!(el.attr_value("user"), None);
        assert_eq!(el.attr_value("password"), None);
        let dump = format!("{el:?}");
        assert!(!dump.contains("s3cret-gridpass"), "{dump}");
        let back = RunState::from_element(&el, &security).expect("decrypts");
        assert_same_submission(&run, &back);
        // Nobody but the scheduler's subject can read it.
        assert!(RunState::from_element(&el, &Some((sec, "eve".to_string()))).is_none());
    }
}
