//! The File System Service (§4.1).
//!
//! "The WS-Resources used by the File System service represent
//! directories ... the invocation of any method is done in the context
//! of this directory. These WS-Resources have a single Resource
//! Property that provides the actual path to the directory they
//! represent."
//!
//! Supported methods are exactly the paper's `Read`, `Write` and
//! `List`, plus the directory factory and the asynchronous
//! `UploadFiles` protocol: the upload request is a **one-way** message
//! carrying `{EPR, filename, jobname}` tuples; when staging finishes
//! the FSS sends a one-way completion notification back so the job
//! "doesn't start executing until its input files are available".
//!
//! A directory may be created with a lease (WS-ResourceLifetime): the
//! Scheduler leases each job's working directory for as long as it keeps
//! the job set, and a directory's files go with its resource, whoever
//! destroys it.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use grid_node::SimFs;
use simclock::Clock;
use wsrf_core::container::{action_uri, OpKind, Service, ServiceBuilder};
use wsrf_core::faults;
use wsrf_core::porttypes::relative_lease;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_core::{epr_in, Outbound};
use wsrf_soap::ns::{UVACG, WSA};
use wsrf_soap::{BaseFault, EndpointReference, SoapFault, TraceContext};
use wsrf_transport::InProcNetwork;
use wsrf_xml::xpath::Path;
use wsrf_xml::{base64, Element, QName};

use crate::q;

/// The directory key reference property (Clark form).
pub fn dir_key_property() -> String {
    format!("{{{UVACG}}}DirectoryKey")
}

/// The `Path` resource property name.
pub fn path_property() -> QName {
    q("Path")
}

/// Root of the grid-controlled portion of each machine's filesystem.
pub const GRID_ROOT: &str = "grid";

/// Build the File System Service for one machine.
pub fn file_system_service(
    machine_name: &str,
    fs: Arc<SimFs>,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    let address = format!("inproc://{machine_name}/FileSystem");
    let store: Arc<dyn ResourceStore> = Arc::new(Directories {
        inner: store,
        fs: fs.clone(),
    });
    let fs_create = fs.clone();
    let fs_read = fs.clone();
    let fs_write = fs.clone();
    let fs_list = fs.clone();
    let fs_upload = fs;
    let own_machine = machine_name.to_string();

    ServiceBuilder::new(FSS_NAME, address, store)
        .key_property(dir_key_property())
        .static_operation("CreateDirectory", move |ctx| {
            // An optional lease, in seconds from now.
            let itt = ctx.body.find(UVACG, "InitialTerminationTime");
            let text = itt.map(|e| e.text_content()).unwrap_or_default();
            let lease = relative_lease(&text, ctx.core.clock.now(), "InitialTerminationTime")?;
            let path = fs_create
                .create_unique_dir(GRID_ROOT, "dir")
                .map_err(|e| faults::storage(&e.to_string()))?;
            let mut doc = PropertyDoc::new();
            doc.set_text(q("Path"), &path);
            doc.set_termination_time(lease);
            let key = ctx.core.fresh_key();
            let epr = ctx.core.create_resource_with_key(&key, doc)?;
            if let Some(at) = lease {
                ctx.core.arm_lease(&key, at);
            }
            Ok(Element::new(UVACG, "CreateDirectoryResponse")
                .child(epr.to_element())
                .child(Element::new(UVACG, "Path").text(path)))
        })
        .read_operation("Read", move |ctx| {
            let filename = required_filename(ctx.body.dom())?;
            let dir = dir_path(ctx.resource()?)?;
            let content = fs_read
                .read(&join(&dir, &filename))
                .map_err(|e| no_such_file(&filename, &e))?;
            Ok(read_response(&content))
        })
        .operation("Write", move |ctx| {
            let filename = required_filename(ctx.body.dom())?;
            let content = decode_content(ctx.body.dom())?;
            let dir = dir_path(ctx.resource()?)?;
            fs_write
                .write(&join(&dir, &filename), content)
                .map_err(|e| faults::storage(&e.to_string()))?;
            Ok(Element::new(UVACG, "WriteResponse"))
        })
        .read_operation("List", move |ctx| {
            let dir = dir_path(ctx.resource()?)?;
            let entries = fs_list
                .list(&dir)
                .map_err(|e| faults::storage(&e.to_string()))?;
            let mut resp = Element::new(UVACG, "ListResponse");
            for e in entries {
                match e {
                    grid_node::fs::DirEntry::File(name, size) => resp.push_child(
                        Element::new(UVACG, "File")
                            .attr("name", name)
                            .attr("size", size.to_string()),
                    ),
                    grid_node::fs::DirEntry::Dir(name) => {
                        resp.push_child(Element::new(UVACG, "Directory").attr("name", name))
                    }
                }
            }
            Ok(resp)
        })
        // Static rather than resource-scoped: staging re-enters the
        // dispatch pipeline (remote Read fetches, and the inline
        // UploadComplete notification can chain into the next job's
        // UploadFiles on this same service), so it must not hold a
        // per-resource lease across those nested dispatches. The
        // directory document is immutable after creation (only `Path`),
        // so a plain load is race-free.
        .raw_operation(
            action_uri("FileSystem", "UploadFiles"),
            OpKind::Static,
            move |ctx| {
                // Decode the request fully before touching the resource.
                let notify_to = ctx
                    .body
                    .find(UVACG, "NotifyTo")
                    .map(EndpointReference::from_element)
                    .transpose()
                    .map_err(|e| faults::bad_request(&format!("bad NotifyTo: {e}")))?;
                let notify_action = ctx
                    .body
                    .find(UVACG, "NotifyAction")
                    .map(|e| e.text_content())
                    .unwrap_or_else(|| action_uri("Execution", "UploadComplete"));
                let context_token = ctx
                    .body
                    .find(UVACG, "Context")
                    .map(|e| e.text_content())
                    .unwrap_or_default();
                struct Item {
                    source: EndpointReference,
                    filename: String,
                    as_name: String,
                }
                let mut items = Vec::new();
                for fe in ctx.body.find_all(UVACG, "File") {
                    let filename = fe
                        .attr_value("name")
                        .ok_or_else(|| faults::bad_request("File requires name attribute"))?
                        .to_string();
                    let as_name = fe
                        .attr_value("as")
                        .map(str::to_string)
                        .unwrap_or_else(|| filename.clone());
                    let source_el = fe
                        .find(UVACG, "SourceEpr")
                        .ok_or_else(|| faults::bad_request("File requires SourceEpr"))?;
                    let source = EndpointReference::from_element(source_el)
                        .map_err(|e| faults::bad_request(&format!("bad SourceEpr: {e}")))?;
                    items.push(Item {
                        source,
                        filename,
                        as_name,
                    });
                }

                let core = ctx.core.clone();
                let (dir_doc, _) = core.share_live(ctx.key()?).map_err(faults::from_store)?;
                let dir = dir_path(&dir_doc)?;
                let own = own_machine.clone();
                let trace = ctx.trace;

                // Stage each file (step 4/5/6 of Figure 3).
                let staged_bytes = core.metrics.counter("fss.staged_bytes");
                let staged_files = core.metrics.counter("fss.staged_files");
                let stage_timer = core.metrics.timer("fss.stage");
                let mut failures: Vec<(String, String)> = Vec::new();
                for item in &items {
                    let stage_span = stage_timer.start(&core.clock);
                    let result: Result<(), String> = (|| {
                        let same_machine = wsrf_soap::Uri::parse(&item.source.address)
                            .map(|u| u.authority.eq_ignore_ascii_case(&own))
                            .unwrap_or(false);
                        let content: Bytes = if same_machine {
                            // "the FSS simply moves the file within the
                            // portion of the file system it controls
                            // (rather than making an HTTP request on
                            // itself)". We copy rather than move so that
                            // diamond-shaped job sets can consume one
                            // output twice (see DESIGN.md).
                            let src_key = item
                                .source
                                .resource_key()
                                .ok_or("local SourceEpr has no directory key")?;
                            let (src_doc, _) =
                                core.share_live(src_key).map_err(|e| e.to_string())?;
                            let src_dir = src_doc
                                .text(&q("Path"))
                                .ok_or("source directory has no Path")?;
                            fs_upload
                                .read(&join(&src_dir, &item.filename))
                                .map_err(|e| e.to_string())?
                        } else {
                            // Remote fetch: Read() on the remote FSS (HTTP
                            // scheme) or the client's WSE-TCP file server
                            // (soap.tcp scheme) — the network cost model
                            // prices the schemes differently.
                            read(&core.net, &item.source, &item.filename, trace.as_ref())
                                .map_err(|e| e.to_string())?
                        };
                        staged_bytes.add(content.len() as u64);
                        staged_files.inc();
                        fs_upload
                            .write(&join(&dir, &item.as_name), content)
                            .map_err(|e| e.to_string())
                    })();
                    stage_span.finish();
                    if let Err(msg) = result {
                        failures.push((item.filename.clone(), msg));
                    }
                }

                // "When the upload is complete, the FSS will send another
                // one-way message (which we call a notification) back ...
                // indicating that the job may start."
                if let Some(to) = notify_to {
                    let mut body = Element::new(UVACG, "UploadComplete")
                        .attr("uploaded", (items.len() - failures.len()).to_string())
                        .child(Element::new(UVACG, "Context").text(&context_token));
                    for (file, reason) in &failures {
                        body.push_child(
                            Element::new(UVACG, "Failure")
                                .attr("file", file)
                                .text(reason),
                        );
                    }
                    // Nobody to tell: a failed send leaves an
                    // `OutboundFailed` event.
                    let _ = Outbound::new(to, notify_action, body)
                        .trace(trace.as_ref())
                        .send(&core.net);
                }
                Ok(Element::new(UVACG, "UploadFilesAck"))
            },
        )
        .build(clock, net)
}

/// The FSS's table in its store.
const FSS_NAME: &str = "FileSystem";

/// The FSS's store: a directory's tree on the machine's filesystem goes
/// with its resource, whoever destroys it — WSRL `Destroy`, or the
/// reaper when its lease runs out. Other tables of a shared store pass
/// through.
struct Directories {
    inner: Arc<dyn ResourceStore>,
    fs: Arc<SimFs>,
}

impl ResourceStore for Directories {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.create(service, key, doc)
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.inner.load(service, key)
    }

    fn share(&self, service: &str, key: &str) -> Result<Arc<PropertyDoc>, StoreError> {
        self.inner.share(service, key)
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.save(service, key, doc)
    }

    fn save_shared(
        &self,
        service: &str,
        key: &str,
        doc: &Arc<PropertyDoc>,
    ) -> Result<(), StoreError> {
        self.inner.save_shared(service, key, doc)
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let path = (service == FSS_NAME)
            .then(|| self.inner.share(service, key).ok()?.text(&path_property()))
            .flatten();
        self.inner.destroy(service, key)?;
        if let Some(path) = path {
            // Nobody to tell: a tree already gone has nothing to free.
            let _ = self.fs.delete(&path);
        }
        Ok(())
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.inner.exists(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.inner.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        self.inner.query(service, path)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

fn join(dir: &str, file: &str) -> String {
    format!("{}/{}", dir.trim_end_matches('/'), file)
}

fn dir_path(doc: &PropertyDoc) -> Result<String, BaseFault> {
    doc.text(&q("Path"))
        .ok_or_else(|| faults::storage("directory resource has no Path property"))
}

fn required_filename(body: &Element) -> Result<String, BaseFault> {
    body.find(UVACG, "FileName")
        .map(|e| e.text_content())
        .filter(|f| !f.is_empty())
        .ok_or_else(|| faults::bad_request("missing FileName"))
}

fn decode_content(body: &Element) -> Result<Bytes, BaseFault> {
    let el = body
        .find(UVACG, "Content")
        .ok_or_else(|| faults::bad_request("missing Content"))?;
    base64::decode(&el.text_content())
        .map(Bytes::from)
        .ok_or_else(|| faults::bad_request("Content is not valid base64"))
}

/// Encode a `ReadResponse` body (shared with the client file server,
/// which answers the same `Read` action for `local://` files).
pub fn read_response(content: &Bytes) -> Element {
    Element::new(UVACG, "ReadResponse").child(
        Element::new(UVACG, "Content")
            .attr("encoding", "base64")
            .text(base64::encode(content)),
    )
}

fn no_such_file(name: &str, e: &grid_node::FsError) -> BaseFault {
    BaseFault::new("uvacg:NoSuchFile", format!("cannot read '{name}': {e}"))
}

// ---------------------------------------------------------------------
// Client-side helpers (used by the ES, the Scheduler and tests)
// ---------------------------------------------------------------------

/// Call `CreateDirectory` on an FSS; returns `(directory EPR, path)`.
/// A `lease` (from now, sent in whole seconds) ends the directory and
/// its files unless it is renewed with WSRL `SetTerminationTime`; none
/// keeps it until destroyed. `trace` joins the FSS's dispatch span to
/// the caller's span tree (Figure 3 step 4).
pub fn create_directory(
    net: &InProcNetwork,
    fss_address: &str,
    lease: Option<Duration>,
    trace: Option<&TraceContext>,
) -> Result<(EndpointReference, String), SoapFault> {
    let mut body = Element::new(UVACG, "CreateDirectory");
    if let Some(lease) = lease {
        body.push_child(
            Element::new(UVACG, "InitialTerminationTime").text(lease.as_secs().to_string()),
        );
    }
    let resp = Outbound::new(
        EndpointReference::service(fss_address),
        action_uri("FileSystem", "CreateDirectory"),
        body,
    )
    .trace(trace)
    .call(net)?;
    let epr = epr_in(&resp, WSA, "EndpointReference")?;
    let path = resp
        .body
        .find(UVACG, "Path")
        .map(|p| p.text_content())
        .unwrap_or_default();
    Ok((epr, path))
}

/// `Read` a file in the context of a directory EPR (or from a client
/// file server EPR, which answers the same action). The upload engine
/// passes the staging job's `trace`, so remote reads (client staging,
/// step 5) appear as transport hops in the span tree.
pub fn read(
    net: &InProcNetwork,
    source: &EndpointReference,
    filename: &str,
    trace: Option<&TraceContext>,
) -> Result<Bytes, SoapFault> {
    let body = Element::new(UVACG, "Read").child(Element::new(UVACG, "FileName").text(filename));
    let resp = Outbound::new(source.clone(), action_uri("FileSystem", "Read"), body)
        .trace(trace)
        .call(net)?;
    let content = resp
        .body
        .find(UVACG, "Content")
        .ok_or_else(|| SoapFault::server("ReadResponse missing Content"))?;
    base64::decode(&content.text_content())
        .map(Bytes::from)
        .ok_or_else(|| SoapFault::server("bad base64 in ReadResponse"))
}

/// `Write` a file into a directory EPR.
pub fn write(
    net: &InProcNetwork,
    dir: &EndpointReference,
    filename: &str,
    content: &[u8],
) -> Result<(), SoapFault> {
    let body = Element::new(UVACG, "Write")
        .child(Element::new(UVACG, "FileName").text(filename))
        .child(
            Element::new(UVACG, "Content")
                .attr("encoding", "base64")
                .text(base64::encode(content)),
        );
    Outbound::new(dir.clone(), action_uri("FileSystem", "Write"), body).call(net)?;
    Ok(())
}

/// `List` a directory EPR: `(name, Some(size))` for files, `(name,
/// None)` for subdirectories.
pub fn list(
    net: &InProcNetwork,
    dir: &EndpointReference,
) -> Result<Vec<(String, Option<u64>)>, SoapFault> {
    let resp = Outbound::new(
        dir.clone(),
        action_uri("FileSystem", "List"),
        Element::new(UVACG, "List"),
    )
    .call(net)?;
    Ok(resp
        .body
        .elements()
        .filter_map(|e| {
            let name = e.attr_value("name")?.to_string();
            match e.name.local.as_str() {
                "File" => Some((name, e.attr_value("size").and_then(|s| s.parse().ok()))),
                "Directory" => Some((name, None)),
                _ => None,
            }
        })
        .collect())
}

/// Build and send a one-way `UploadFiles` request.
#[allow(clippy::too_many_arguments)]
pub fn upload_files(
    net: &InProcNetwork,
    dir: &EndpointReference,
    files: &[(EndpointReference, String, String)], // (source, filename, as)
    notify_to: Option<&EndpointReference>,
    notify_action: &str,
    context: &str,
    trace: Option<&TraceContext>,
) -> Result<(), wsrf_transport::TransportError> {
    let mut body = Element::new(UVACG, "UploadFiles");
    if let Some(to) = notify_to {
        body.push_child(to.to_element_named(UVACG, "NotifyTo"));
        body.push_child(Element::new(UVACG, "NotifyAction").text(notify_action));
        body.push_child(Element::new(UVACG, "Context").text(context));
    }
    for (source, filename, as_name) in files {
        body.push_child(
            Element::new(UVACG, "File")
                .attr("name", filename)
                .attr("as", as_name)
                .child(source.to_element_named(UVACG, "SourceEpr")),
        );
    }
    Outbound::new(dir.clone(), action_uri("FileSystem", "UploadFiles"), body)
        .trace(trace)
        .send(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_core::store::MemoryStore;
    use wsrf_core::ResourceProxy;
    use wsrf_soap::{Envelope, MessageInfo};
    use wsrf_transport::FnEndpoint;

    struct Fixture {
        net: Arc<InProcNetwork>,
        fs: Arc<SimFs>,
        #[allow(dead_code)]
        svc: Arc<Service>,
    }

    fn fixture() -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let fs = Arc::new(SimFs::new());
        let svc = file_system_service(
            "machine01",
            fs.clone(),
            Arc::new(MemoryStore::new()),
            clock,
            net.clone(),
        );
        svc.register(&net);
        Fixture { net, fs, svc }
    }

    const ADDR: &str = "inproc://machine01/FileSystem";

    #[test]
    fn create_directory_returns_epr_with_path_property() {
        let f = fixture();
        let (epr, path) = create_directory(&f.net, ADDR, None, None).unwrap();
        assert!(path.starts_with("grid/dir-"), "{path}");
        assert!(f.fs.exists(&path));
        assert_eq!(epr.address, ADDR);
        // The Path resource property is readable via the standard port
        // type (the ES uses it as the job working directory).
        assert_eq!(
            ResourceProxy::new(&f.net, epr).get_text("Path").unwrap(),
            path
        );
    }

    #[test]
    fn a_leased_directory_goes_with_its_files_and_an_unleased_one_stays() {
        let f = fixture();
        let lease = Some(Duration::from_secs(60));
        let (leased, leased_path) = create_directory(&f.net, ADDR, lease, None).unwrap();
        let (kept, kept_path) = create_directory(&f.net, ADDR, None, None).unwrap();
        write(&f.net, &leased, "out.dat", b"0123456789").unwrap();
        write(&f.net, &kept, "out.dat", b"01234").unwrap();
        let proxy = ResourceProxy::new(&f.net, leased.clone());
        assert_eq!(proxy.get_text("TerminationTime").unwrap(), "60");

        f.svc.core().clock.advance(Duration::from_secs(61));
        let gone = list(&f.net, &leased).unwrap_err();
        assert_eq!(gone.error_code(), Some("wsrf:NoSuchResource"));
        assert!(!f.fs.exists(&leased_path), "reaped with its files");
        assert!(f.fs.exists(&kept_path));
        assert_eq!(f.fs.used_bytes(), 5);
        // WSRL `Destroy` takes the files too.
        ResourceProxy::new(&f.net, kept).destroy().unwrap();
        assert!(!f.fs.exists(&kept_path));
        assert_eq!(f.fs.used_bytes(), 0);
    }

    #[test]
    fn only_an_initial_termination_time_leases_a_directory() {
        let f = fixture();
        let create = |child: Element| {
            let body = Element::new(UVACG, "CreateDirectory").child(child);
            let action = action_uri("FileSystem", "CreateDirectory");
            let resp = Outbound::new(EndpointReference::service(ADDR), action, body);
            let epr = epr_in(&resp.call(&f.net).unwrap(), WSA, "EndpointReference").unwrap();
            let key = epr.resource_key().unwrap().to_string();
            f.svc.core().share_live(&key).unwrap().0.termination_time()
        };
        assert_eq!(create(Element::new(UVACG, "Note").text("60")), None);
        let lease = Element::new(UVACG, "InitialTerminationTime").text("60");
        assert_eq!(create(lease), Some(simclock::SimTime::from_secs(60)));
    }

    #[test]
    fn write_read_list_roundtrip() {
        let f = fixture();
        let (dir, path) = create_directory(&f.net, ADDR, None, None).unwrap();
        write(&f.net, &dir, "input.dat", b"hello grid").unwrap();
        assert_eq!(
            &read(&f.net, &dir, "input.dat", None).unwrap()[..],
            b"hello grid"
        );
        assert_eq!(
            f.fs.read(&format!("{path}/input.dat")).unwrap(),
            &b"hello grid"[..]
        );
        let entries = list(&f.net, &dir).unwrap();
        assert_eq!(entries, vec![("input.dat".to_string(), Some(10))]);
    }

    #[test]
    fn read_missing_file_faults() {
        let f = fixture();
        let (dir, _) = create_directory(&f.net, ADDR, None, None).unwrap();
        let err = read(&f.net, &dir, "ghost.dat", None).unwrap_err();
        assert_eq!(err.error_code(), Some("uvacg:NoSuchFile"));
    }

    #[test]
    fn read_on_dead_directory_resource_faults() {
        let f = fixture();
        let ghost = EndpointReference::resource(ADDR, dir_key_property(), "filesystem-999");
        let err = read(&f.net, &ghost, "x", None).unwrap_err();
        assert_eq!(err.error_code(), Some("wsrf:NoSuchResource"));
    }

    #[test]
    fn upload_from_same_machine_copies_locally() {
        let f = fixture();
        let (src, _src_path) = create_directory(&f.net, ADDR, None, None).unwrap();
        write(&f.net, &src, "out.dat", b"payload").unwrap();
        let (dst, dst_path) = create_directory(&f.net, ADDR, None, None).unwrap();
        let before_calls = f.net.metrics.snapshot().0;
        upload_files(
            &f.net,
            &dst,
            &[(src, "out.dat".into(), "in.dat".into())],
            None,
            "",
            "",
            None,
        )
        .unwrap();
        assert_eq!(
            &f.fs.read(&format!("{dst_path}/in.dat")).unwrap()[..],
            b"payload"
        );
        // No extra Read() call went over the network for the local copy.
        assert_eq!(f.net.metrics.snapshot().0, before_calls);
    }

    #[test]
    fn upload_from_remote_machine_uses_read_calls() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let fs1 = Arc::new(SimFs::new());
        let fs2 = Arc::new(SimFs::new());
        let svc1 = file_system_service(
            "m1",
            fs1,
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
        );
        let svc2 = file_system_service(
            "m2",
            fs2.clone(),
            Arc::new(MemoryStore::new()),
            clock,
            net.clone(),
        );
        svc1.register(&net);
        svc2.register(&net);

        let (src, _) = create_directory(&net, "inproc://m1/FileSystem", None, None).unwrap();
        write(&net, &src, "result.bin", &[9u8; 64]).unwrap();
        let (dst, dst_path) = create_directory(&net, "inproc://m2/FileSystem", None, None).unwrap();
        upload_files(
            &net,
            &dst,
            &[(src, "result.bin".into(), "input.bin".into())],
            None,
            "",
            "",
            None,
        )
        .unwrap();
        assert_eq!(
            fs2.read(&format!("{dst_path}/input.bin")).unwrap(),
            Bytes::from(vec![9u8; 64])
        );
    }

    #[test]
    fn upload_sends_completion_notification_with_context() {
        let f = fixture();
        let (src, _) = create_directory(&f.net, ADDR, None, None).unwrap();
        write(&f.net, &src, "a.dat", b"A").unwrap();
        let (dst, _) = create_directory(&f.net, ADDR, None, None).unwrap();

        let seen: Arc<parking_lot::Mutex<Vec<Envelope>>> = Default::default();
        let seen2 = seen.clone();
        f.net.register(
            "inproc://es/Sink",
            Arc::new(FnEndpoint::new("sink", move |env| {
                seen2.lock().push(env);
                None
            })),
        );
        let notify_to = EndpointReference::resource("inproc://es/Sink", "{urn:x}JobKey", "job-7");
        upload_files(
            &f.net,
            &dst,
            &[
                (src.clone(), "a.dat".into(), "a.dat".into()),
                (src, "missing.dat".into(), "b.dat".into()),
            ],
            Some(&notify_to),
            "urn:test/UploadComplete",
            "job-7",
            None,
        )
        .unwrap();
        let got = seen.lock().clone();
        assert_eq!(got.len(), 1);
        let body = &got[0].body;
        assert_eq!(body.attr_value("uploaded"), Some("1"));
        assert_eq!(body.find(UVACG, "Context").unwrap().text_content(), "job-7");
        let failures: Vec<&Element> = body.find_all(UVACG, "Failure").collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attr_value("file"), Some("missing.dat"));
        // The job key rode along in the headers.
        let info = MessageInfo::extract(&got[0]).unwrap();
        assert_eq!(info.to.resource_key(), Some("job-7"));
    }

    #[test]
    fn upload_from_client_file_server() {
        let f = fixture();
        // A client file server answering the FileSystem/Read action.
        f.net.register(
            "soap.tcp://client-1/files",
            Arc::new(FnEndpoint::new("client-fs", |env| {
                let filename = env.body.find(UVACG, "FileName").unwrap().text_content();
                let mut resp = Envelope::new(if filename == "C:\\data\\file1" {
                    read_response(&Bytes::from_static(b"client bytes"))
                } else {
                    return Some(SoapFault::client("no such local file").to_envelope());
                });
                resp.headers.push(Element::new(WSA, "Action").text("resp"));
                Some(resp)
            })),
        );
        let (dst, dst_path) = create_directory(&f.net, ADDR, None, None).unwrap();
        let client_epr = EndpointReference::service("soap.tcp://client-1/files");
        upload_files(
            &f.net,
            &dst,
            &[(client_epr, "C:\\data\\file1".into(), "in.dat".into())],
            None,
            "",
            "",
            None,
        )
        .unwrap();
        assert_eq!(
            &f.fs.read(&format!("{dst_path}/in.dat")).unwrap()[..],
            b"client bytes"
        );
    }
}
