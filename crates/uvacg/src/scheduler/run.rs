//! How a job set's state changes when something happens to it.
//!
//! The scheduler drives its sets with these transitions, and a
//! scheduler built over a crashed primary's store rebuilds each
//! unfinished set's [`RunState`] from what the primary stored: the
//! submission record and the job-set resource ([`RunState::restore`]). Nothing here sends a
//! message, touches a store or reads a clock: time comes in as a
//! [`SimTime`] argument.

use std::collections::HashMap;
use std::sync::Arc;

use simclock::SimTime;
use wsrf_core::properties::PropertyDoc;
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::ns::{UVACG, WSSE};
use wsrf_soap::{EndpointReference, TraceContext};
use wsrf_xml::Element;

use crate::es::RunReply;
use crate::job::JobEvent;
use crate::jobset::{JobSetSpec, JobSpec};
use crate::q;
use crate::security::{open_credentials, GridSecurity};

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
    pub(super) machine: Option<String>,
    pub(super) dir_epr: Option<EndpointReference>,
    pub(super) exit_code: Option<i32>,
    pub(super) cpu_used: Option<f64>,
    pub(super) dispatched_at: Option<SimTime>,
}

impl JobRun {
    /// The job's state as its `JobStatus` resource-property value, which
    /// [`RunState::restore`] reads back.
    pub(super) fn status(&self, job: &str) -> Element {
        let mut el = Element::with_name(q("JobStatus"))
            .attr("job", job)
            .text(format!("{:?}", self.state));
        if let Some(m) = &self.machine {
            el = el.attr("machine", m);
        }
        if let Some(c) = self.exit_code {
            el = el.attr("exitCode", c.to_string());
        }
        if let Some(cpu) = self.cpu_used {
            el = el.attr("cpu", format!("{cpu:.6}"));
        }
        el
    }
}

/// One unfinished job set.
pub(super) struct RunState {
    pub(super) spec: JobSetSpec,
    pub(super) topic: String,
    pub(super) credentials: (String, String),
    pub(super) client_fileserver: Option<String>,
    pub(super) jobs: HashMap<String, JobRun>,
    pub(super) submitted_at: SimTime,
    /// When the resources the set leases — its broker subscriptions and
    /// its jobs' working directories — were last renewed (at first, its
    /// submission): the next renewal is due half a lease later.
    pub(super) renewed_at: SimTime,
    /// The earliest lease any of its working directories may hold
    /// (`None`: none ends): one `TERMINAL_RETENTION` from submission,
    /// then what every directory took in a renewal or from the client's
    /// `SetTerminationTime`. The set is kept no longer once it ends.
    pub(super) dirs_until: Option<SimTime>,
    /// Trace context of the submission dispatch: every downstream
    /// message and Figure 3 step mark for this set parents under it.
    pub(super) trace: Option<TraceContext>,
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
            renewed_at: submitted_at,
            dirs_until: Some(submitted_at + crate::TERMINAL_RETENTION),
            trace,
        }
    }

    /// The submission record of a set (`Submission`). With `security`
    /// the credentials are sealed to the scheduler's own subject, never
    /// kept in clear.
    pub(super) fn to_element(&self, security: &Option<(Arc<GridSecurity>, String)>) -> Element {
        let mut el = Element::new(UVACG, "Submission")
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

    /// Decode a `Submission` (None when malformed or, with `security`,
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

    /// Rebuild an unfinished set after a failover at `now`: the
    /// submission from its `record` ([`RunState::from_element`]), each
    /// job's progress from the job-set resource `doc` — its `JobStatus`
    /// (state, machine, exit code, CPU) and its `JobDirectory`. A
    /// dispatched job's clock starts at `now`.
    pub(super) fn restore(
        record: &Element,
        doc: &PropertyDoc,
        security: &Option<(Arc<GridSecurity>, String)>,
        now: SimTime,
    ) -> Option<RunState> {
        let mut run = RunState::from_element(record, security)?;
        for status in doc.get(&q("JobStatus")) {
            let Some(jr) = status.attr_value("job").and_then(|j| run.jobs.get_mut(j)) else {
                continue;
            };
            // The `{:?}` names `JobRun::status` writes.
            jr.state = match status.text_content().as_str() {
                "Dispatched" => JobState::Dispatched,
                "Completed" => JobState::Completed,
                "Failed" => JobState::Failed,
                _ => JobState::Waiting,
            };
            jr.machine = status.attr_value("machine").map(str::to_string);
            jr.exit_code = status.attr_value("exitCode").and_then(|c| c.parse().ok());
            jr.cpu_used = status.attr_value("cpu").and_then(|c| c.parse().ok());
            jr.dispatched_at = (jr.state == JobState::Dispatched).then_some(now);
        }
        for dir in doc.get(&q("JobDirectory")) {
            if let Some(jr) = dir.attr_value("job").and_then(|j| run.jobs.get_mut(j)) {
                jr.dir_epr = EndpointReference::from_element(dir).ok();
            }
        }
        Some(run)
    }

    /// The job that failed the set, with what completes "job 'x' …" —
    /// for a set restored from a store that recorded the failure but
    /// not the end of the set.
    pub(super) fn failure(&self) -> Option<(&str, String)> {
        let (name, jr) = self
            .jobs
            .iter()
            .find(|(_, j)| j.state == JobState::Failed)?;
        let why = match jr.exit_code {
            Some(code) => format!("exited with code {code}"),
            None => "failed before the failover".to_string(),
        };
        Some((name, why))
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

    /// The ES answered `job`'s Run: its working directory is known,
    /// though a directory already announced is kept.
    pub(super) fn note_dispatched(&mut self, job: &str, reply: RunReply) {
        if let Some(jr) = self.jobs.get_mut(job) {
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
                if jr.state == JobState::Waiting {
                    jr.state = JobState::Dispatched;
                }
                Change::Started
            }
            _ if jr.state == JobState::Completed => Change::None,
            JobEvent::Exit { code, cpu } => {
                jr.exit_code = Some(*code);
                jr.cpu_used = *cpu;
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
                jr.state = JobState::Failed;
                Change::Failed {
                    why: format!("failed: {reason}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobset::FileRef;

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

    /// What the primary stored about `run`'s jobs, as the job-set
    /// resource keeps it.
    fn stored(run: &RunState) -> PropertyDoc {
        let mut doc = PropertyDoc::new();
        for (name, jr) in &run.jobs {
            super::super::put_job_status(&mut doc, name, jr.status(name));
            if let Some(dir) = &jr.dir_epr {
                let dir = dir.to_element_named(UVACG, "JobDirectory");
                doc.insert(q("JobDirectory"), dir.attr("job", name));
            }
        }
        doc
    }

    #[test]
    fn restore_reads_each_jobs_progress_back_from_the_store() {
        let mut run = diamond();
        let epr = |a: &str| EndpointReference::service(a);
        // a: exited. b: placed, no directory yet. c: placed, its
        // directory recorded. d: untouched.
        run.dispatch("a", "m1", SimTime(1));
        run.apply("a", &JobEvent::Dir(epr("inproc://m1/dir-a")));
        run.apply("a", &exit(0));
        run.dispatch("b", "m2", SimTime(2));
        run.dispatch("c", "m1", SimTime(2));
        run.apply("c", &JobEvent::Dir(epr("inproc://m1/dir-c")));

        let record = run.to_element(&None);
        let back = RunState::restore(&record, &stored(&run), &None, SimTime(100)).unwrap();
        assert_same_submission(&run, &back);
        let a = &back.jobs["a"];
        assert_eq!(
            (a.state, a.exit_code, a.cpu_used, a.machine.as_deref()),
            (JobState::Completed, Some(0), Some(0.5), Some("m1"))
        );
        assert_eq!(
            (a.dir_epr.clone(), a.dispatched_at),
            (Some(epr("inproc://m1/dir-a")), None)
        );
        let b = &back.jobs["b"];
        assert_eq!(
            (b.state, b.machine.as_deref()),
            (JobState::Dispatched, Some("m2"))
        );
        assert_eq!(
            (b.dir_epr.clone(), b.dispatched_at),
            (None, Some(SimTime(100)))
        );
        let c = &back.jobs["c"];
        assert_eq!(c.dir_epr, Some(epr("inproc://m1/dir-c")));
        assert_eq!(c.dispatched_at, Some(SimTime(100)));
        assert_eq!(state(&back, "d"), JobState::Waiting);
        assert_eq!(ready(&back), None, "d waits for b and c");
        assert_eq!(back.failure(), None);
    }

    #[test]
    fn a_failure_the_store_recorded_is_restored() {
        let mut run = diamond();
        run.dispatch("a", "m1", SimTime(1));
        run.apply("a", &exit(3));
        let back = RunState::restore(&run.to_element(&None), &stored(&run), &None, SimTime(9));
        let back = back.unwrap();
        assert_eq!(
            back.failure(),
            Some(("a", "exited with code 3".to_string()))
        );
        assert_eq!(ready(&back), None, "dependents are never dispatched");
    }

    fn assert_same_submission(a: &RunState, b: &RunState) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.topic, b.topic);
        assert_eq!(a.credentials, b.credentials);
        assert_eq!(a.client_fileserver, b.client_fileserver);
        assert_eq!(a.submitted_at, b.submitted_at);
    }

    #[test]
    fn submission_record_roundtrips_in_clear_without_security() {
        let run = diamond();
        let el = run.to_element(&None);
        assert_eq!(el.attr_value("password"), Some("s3cret-gridpass"));
        let back = RunState::from_element(&el, &None).expect("decodes");
        assert_same_submission(&run, &back);
        assert!(back.jobs.values().all(|j| j.state == JobState::Waiting));
    }

    #[test]
    fn submission_record_roundtrips_sealed_with_security() {
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
