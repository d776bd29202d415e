//! The synthesised code model: what SOOT + Doxygen would see.
//!
//! [`CodeModel::synthesize`] expands the declarative [`spec`](crate::spec)
//! into the structures the paper's pipeline consumes:
//!
//! * **Java classes and methods** with call edges (direct and
//!   Message-Handler-indirect, the latter needing the PScout-style pass),
//!   AIDL-override facts, `ServiceManager.addService` /
//!   `publishBinderService` registration sites, binder-typed parameter
//!   usage facts, and permission checks.
//! * **Native functions** with a call graph whose sink is
//!   `IndirectReferenceTable::Add`, including the 67 init-only paths
//!   (`WellKnownClasses::CacheClass` and friends) that the paper filters
//!   manually, and the native `ServiceManager::addService` sites of the 5
//!   native services.
//! * **JNI registrations** (`AndroidRuntime::registerNativeMethods` data)
//!   mapping Java methods to native entry points — how the paper lifts
//!   native JGR entries to Java JGR entries (§III-B.2).
//!
//! The analysis crate must recover every headline number by walking these
//! structures; the spec's `JgrBehavior` flags are *not* visible to it —
//! they are compiled away into call edges and parameter-usage facts here.
//!
//! [`CodeModel::method_body`] (in [`body`](crate::body)) expands those
//! facts further into a per-method statement AST — allocations, releases,
//! stores, calls, branches — which the dataflow leak analysis lowers to a
//! CFG. Bodies are derived on demand, so they stay consistent with the
//! fact base by construction.

use std::collections::BTreeMap;

use jgre_sim::framed::fnv1a64;
use serde::{Deserialize, Serialize};

use crate::spec::{AospSpec, JgrBehavior, MethodSpec, Permission, Protection};

/// Index of a Java method in [`CodeModel::methods`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MethodId(pub u32);

/// Index of a native function in [`CodeModel::native_functions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NativeFunctionId(pub u32);

/// How a binder-typed parameter is used inside a method body — the fact
/// base of the paper's sift rules 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamUsage {
    /// Stored into a member collection (listener list) — retention.
    StoredInCollection,
    /// Stored into a member collection guarded by a visible per-process
    /// bound check (the Table III pattern). Static analysis still treats
    /// this as risky; dynamic verification decides.
    StoredInCollectionBounded,
    /// Used only inside the method body (sift rule 2).
    LocalOnly,
    /// Used only as a read-only key of a Map/Set/RemoteCallbackList
    /// (sift rule 3).
    ReadOnlyMapKey,
    /// Assigned to a single member field, replacing the previous value
    /// (sift rule 4).
    AssignedToMemberField,
    /// Used transiently, but an argument-validation check early-returns
    /// *before* the release runs — the error path leaks the reference
    /// (the "release skipped on error path" class, JGRE004).
    ReleaseSkippedOnError,
    /// The release only runs once a permission check passes; a caller
    /// without the permission takes the denied path and leaks (JGRE004).
    PermissionGatedRelease,
    /// Stored into an unbounded member collection behind a null check.
    /// The check clears nothing — a non-null binder reaches the store —
    /// but per-branch tracking records the predicate on the site.
    NullCheckGatedStore,
}

/// Where a class comes from, for per-app attribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Origin {
    /// Part of the framework / system server.
    Framework,
    /// A prebuilt app, by package.
    PrebuiltApp(String),
    /// A Play-store app, by package.
    ThirdPartyApp(String),
}

/// One Java method.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MethodDef {
    /// Own id (equals the index in [`CodeModel::methods`]).
    pub id: MethodId,
    /// Fully qualified class name.
    pub class: String,
    /// Method name.
    pub name: String,
    /// The AIDL interface this method overrides, when it is a candidate
    /// IPC method.
    pub overrides_aidl: Option<String>,
    /// Direct call edges.
    pub calls: Vec<MethodId>,
    /// Indirect edges through a `Message`/`Handler` post — only visible to
    /// the PScout-style indirect-dependency pass.
    pub handler_posts: Vec<MethodId>,
    /// `(service_name, registered_class)` when this method calls
    /// `ServiceManager.addService` / `publishBinderService`.
    pub registers_service: Option<(String, String)>,
    /// Usage of each binder-typed parameter, in declaration order.
    pub binder_params: Vec<ParamUsage>,
    /// `enforceCallingPermission` checks in the body (PScout's map source).
    pub permission_checks: Vec<Permission>,
}

/// One Java class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Fully qualified name.
    pub name: String,
    /// Superclass, when not `java.lang.Object`.
    pub superclass: Option<String>,
    /// For abstract service base classes and app service classes: the
    /// AIDL interface returned by `asBinder()`.
    pub asbinder_interface: Option<String>,
    /// Methods declared in this class.
    pub methods: Vec<MethodId>,
    /// Attribution.
    pub origin: Origin,
}

/// One native (C++) function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NativeFunction {
    /// Own id (equals the index in [`CodeModel::native_functions`]).
    pub id: NativeFunctionId,
    /// Symbol, e.g. `"ibinderForJavaObject"`.
    pub name: String,
    /// Native call edges.
    pub calls: Vec<NativeFunctionId>,
    /// Whether this *is* `IndirectReferenceTable::Add` — the sink.
    pub is_irt_add: bool,
    /// A root only reachable during runtime initialisation (the 67
    /// filtered paths start here).
    pub init_only_root: bool,
    /// A registered JNI entry point (reachable from Java).
    pub is_jni_entry: bool,
    /// `Some(service_name)` when this function calls the native
    /// `ServiceManager::addService` (the 5 native services).
    pub registers_service: Option<String>,
    /// `Some((service, method))` for the IPC entry points of native
    /// services.
    pub native_ipc: Option<(String, String)>,
}

/// One `registerNativeMethods` row: Java method ↔ native function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JniRegistration {
    /// Java class, e.g. `"android.os.Parcel"`.
    pub java_class: String,
    /// Java method, e.g. `"nativeReadStrongBinder"`.
    pub java_method: String,
    /// Registered native entry.
    pub native: NativeFunctionId,
}

/// The whole synthesised codebase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeModel {
    /// All Java classes.
    pub classes: Vec<ClassDef>,
    /// All Java methods (indexed by [`MethodId`]).
    pub methods: Vec<MethodDef>,
    /// All native functions (indexed by [`NativeFunctionId`]).
    pub native_functions: Vec<NativeFunction>,
    /// All JNI registrations.
    pub jni_registrations: Vec<JniRegistration>,
}

impl CodeModel {
    /// Looks up a method definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by this model).
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.0 as usize]
    }

    /// Looks up a native function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn native(&self, id: NativeFunctionId) -> &NativeFunction {
        &self.native_functions[id.0 as usize]
    }

    /// Finds a method by class and name.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .find(|m| m.class == class && m.name == name)
            .map(|m| m.id)
    }

    /// Finds a class by name.
    pub fn find_class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Renders the call graph rooted at one method as Graphviz DOT —
    /// handy for eyeballing a finding's retention chain (`triage`
    /// workflows). Direct calls are solid edges; Handler posts are dashed.
    ///
    /// Returns `None` when the method does not exist.
    pub fn call_graph_dot(&self, class: &str, name: &str) -> Option<String> {
        use std::fmt::Write as _;
        let root = self.find_method(class, name)?;
        let mut out = String::from("digraph call_graph {\n  rankdir=LR;\n");
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let def = self.method(id);
            let _ = writeln!(out, "  m{} [label=\"{}.{}\"];", id.0, def.class, def.name);
            for callee in &def.calls {
                let _ = writeln!(out, "  m{} -> m{};", id.0, callee.0);
                stack.push(*callee);
            }
            for callee in &def.handler_posts {
                let _ = writeln!(out, "  m{} -> m{} [style=dashed];", id.0, callee.0);
                stack.push(*callee);
            }
        }
        out.push_str("}\n");
        Some(out)
    }

    /// Builds the code model from the ground-truth spec.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// assert!(model.methods.len() > 2_000);
    /// assert!(model.find_method("android.os.Binder", "linkToDeath").is_some());
    /// ```
    pub fn synthesize(spec: &AospSpec) -> CodeModel {
        Builder::default().build(spec)
    }

    /// Builds the code model plus the error-path fixture: one extra app
    /// service class whose methods exercise the conditional-release shapes
    /// ([`ParamUsage::ReleaseSkippedOnError`],
    /// [`ParamUsage::PermissionGatedRelease`],
    /// [`ParamUsage::NullCheckGatedStore`]) alongside bounded and
    /// transient controls. The base corpus — and every headline count
    /// derived from it — is unchanged; the fixture only adds methods.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let ext = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
    /// assert_eq!(ext.methods.len(), base.methods.len() + 6);
    /// ```
    pub fn synthesize_with_error_paths(spec: &AospSpec) -> CodeModel {
        let mut model = Self::synthesize(spec);
        append_error_path_fixture(&mut model);
        model
    }
}

/// Class hosting the error-path fixture of
/// [`CodeModel::synthesize_with_error_paths`].
pub const ERROR_PATH_CLASS: &str = "com.example.errorpaths.LeakyService";

/// Ground truth for the error-path fixture: the `(class, method)` pairs
/// that must be reported as "release skipped on error path" (JGRE004).
/// The fixture's other methods are controls — a null-gated unbounded
/// store (a plain unbounded leak), a bounded registration (provably
/// capped), and a transient ping (sifted).
pub fn error_path_cases() -> [(&'static str, &'static str); 3] {
    [
        (ERROR_PATH_CLASS, "registerOnError"),
        (ERROR_PATH_CLASS, "gatedRelease"),
        (ERROR_PATH_CLASS, "watchSessions"),
    ]
}

fn append_error_path_fixture(model: &mut CodeModel) {
    let origin = Origin::ThirdPartyApp("com.example.errorpaths".to_owned());
    let iface = "IErrorPathDemo";
    let mut methods = Vec::new();
    let shapes: [(&str, Vec<ParamUsage>); 6] = [
        ("registerOnError", vec![ParamUsage::ReleaseSkippedOnError]),
        ("gatedRelease", vec![ParamUsage::PermissionGatedRelease]),
        (
            "watchSessions",
            vec![ParamUsage::ReleaseSkippedOnError, ParamUsage::LocalOnly],
        ),
        ("addNonNullObserver", vec![ParamUsage::NullCheckGatedStore]),
        (
            "boundedRegister",
            vec![ParamUsage::StoredInCollectionBounded],
        ),
        ("transientPing", vec![ParamUsage::LocalOnly]),
    ];
    for (name, binder_params) in shapes {
        let id = MethodId(model.methods.len() as u32);
        model.methods.push(MethodDef {
            id,
            class: ERROR_PATH_CLASS.to_owned(),
            name: name.to_owned(),
            overrides_aidl: Some(iface.to_owned()),
            calls: Vec::new(),
            handler_posts: Vec::new(),
            registers_service: None,
            binder_params,
            permission_checks: Vec::new(),
        });
        methods.push(id);
    }
    model.classes.push(ClassDef {
        name: ERROR_PATH_CLASS.to_owned(),
        superclass: None,
        asbinder_interface: Some(iface.to_owned()),
        methods,
        origin,
    });
}

// --------------------------------------------------------------------------
// Synthesis
// --------------------------------------------------------------------------

#[derive(Default)]
struct Builder {
    classes: Vec<ClassDef>,
    methods: Vec<MethodDef>,
    natives: Vec<NativeFunction>,
    jni: Vec<JniRegistration>,
    class_index: BTreeMap<String, usize>,
}

impl Builder {
    fn class(&mut self, name: &str, origin: Origin) -> usize {
        if let Some(&idx) = self.class_index.get(name) {
            return idx;
        }
        let idx = self.classes.len();
        self.classes.push(ClassDef {
            name: name.to_owned(),
            superclass: None,
            asbinder_interface: None,
            methods: Vec::new(),
            origin,
        });
        self.class_index.insert(name.to_owned(), idx);
        idx
    }

    fn method(&mut self, class: &str, name: &str, origin: Origin) -> MethodId {
        let cidx = self.class(class, origin);
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(MethodDef {
            id,
            class: class.to_owned(),
            name: name.to_owned(),
            overrides_aidl: None,
            calls: Vec::new(),
            handler_posts: Vec::new(),
            registers_service: None,
            binder_params: Vec::new(),
            permission_checks: Vec::new(),
        });
        self.classes[cidx].methods.push(id);
        id
    }

    fn native(&mut self, name: &str) -> NativeFunctionId {
        let id = NativeFunctionId(self.natives.len() as u32);
        self.natives.push(NativeFunction {
            id,
            name: name.to_owned(),
            calls: Vec::new(),
            is_irt_add: false,
            init_only_root: false,
            is_jni_entry: false,
            registers_service: None,
            native_ipc: None,
        });
        id
    }

    fn native_edge(&mut self, from: NativeFunctionId, to: NativeFunctionId) {
        self.natives[from.0 as usize].calls.push(to);
    }

    fn call(&mut self, from: MethodId, to: MethodId) {
        self.methods[from.0 as usize].calls.push(to);
    }

    fn handler_post(&mut self, from: MethodId, to: MethodId) {
        self.methods[from.0 as usize].handler_posts.push(to);
    }

    fn register_jni(&mut self, java_class: &str, java_method: &str, native: NativeFunctionId) {
        self.natives[native.0 as usize].is_jni_entry = true;
        self.jni.push(JniRegistration {
            java_class: java_class.to_owned(),
            java_method: java_method.to_owned(),
            native,
        });
    }

    fn build(mut self, spec: &AospSpec) -> CodeModel {
        self.build_native_world();
        let jgr = self.build_framework_plumbing();
        self.build_services(spec, &jgr);
        self.build_apps(spec, &jgr);
        CodeModel {
            classes: self.classes,
            methods: self.methods,
            native_functions: self.natives,
            jni_registrations: self.jni,
        }
    }

    /// Builds the native call graph: exactly 80 exploitable simple paths
    /// from JNI entries to `IndirectReferenceTable::Add`, plus 67
    /// init-only paths, matching the paper's 147 total / 67 filtered.
    fn build_native_world(&mut self) {
        let irt_add = self.native("art::IndirectReferenceTable::Add");
        self.natives[irt_add.0 as usize].is_irt_add = true;

        // The four named JNI entries of the paper (4 paths).
        let ibinder_for_java = self.native("android::ibinderForJavaObject");
        self.native_edge(ibinder_for_java, irt_add);
        let read_strong = self.native("android_os_Parcel_readStrongBinder");
        self.native_edge(read_strong, ibinder_for_java);
        let write_strong = self.native("android_os_Parcel_writeStrongBinder");
        self.native_edge(write_strong, ibinder_for_java);
        let death_recipient = self.native("JavaDeathRecipient::JavaDeathRecipient");
        self.native_edge(death_recipient, irt_add);
        let link_to_death = self.native("android_os_BinderProxy_linkToDeath");
        self.native_edge(link_to_death, death_recipient);
        let create_native_thread = self.native("art::Thread::CreateNativeThread");
        self.native_edge(create_native_thread, irt_add);
        let thread_native_create = self.native("Thread_nativeCreate");
        self.native_edge(thread_native_create, create_native_thread);

        // Generated exploitable chains: 70 single-path roots and 3 roots
        // that branch into two paths each → 70 + 6 + 4 named = 80 paths.
        for i in 0..70u32 {
            let root = self.native(&format!("jni_entry_{i:02}"));
            let depth = 1 + (fnv1a64(format!("chain{i}").as_bytes()) % 3) as u32;
            let mut prev = root;
            for d in 0..depth {
                let mid = self.native(&format!("native_helper_{i:02}_{d}"));
                self.native_edge(prev, mid);
                prev = mid;
            }
            self.native_edge(prev, irt_add);
            self.register_jni(
                &format!("com.android.internal.Lib{:02}", i / 5),
                &format!("nativeOp{i:02}"),
                root,
            );
        }
        for i in 0..3u32 {
            let root = self.native(&format!("jni_branching_{i}"));
            for b in 0..2u32 {
                let mid = self.native(&format!("native_branch_{i}_{b}"));
                self.native_edge(root, mid);
                self.native_edge(mid, irt_add);
            }
            self.register_jni(
                "com.android.internal.BranchLib",
                &format!("nativeBranch{i}"),
                root,
            );
        }

        // Init-only world: 67 paths the paper filters out manually.
        // WellKnownClasses::CacheClass fans out 40 ways, Runtime::Init 20,
        // ClassLinker::InitFromImage 7.
        for (root_name, fanout) in [
            ("art::WellKnownClasses::CacheClass", 40u32),
            ("art::Runtime::Init", 20),
            ("art::ClassLinker::InitFromImage", 7),
        ] {
            let root = self.native(root_name);
            self.natives[root.0 as usize].init_only_root = true;
            for b in 0..fanout {
                let mid = self.native(&format!("{root_name}::step{b:02}"));
                self.native_edge(root, mid);
                self.native_edge(mid, irt_add);
            }
        }

        // JNI registrations for the named entries.
        self.register_jni("android.os.Parcel", "nativeReadStrongBinder", read_strong);
        self.register_jni("android.os.Parcel", "nativeWriteStrongBinder", write_strong);
        self.register_jni("android.os.Binder", "linkToDeathNative", link_to_death);
        self.register_jni("java.lang.Thread", "nativeCreate", thread_native_create);
    }

    /// Java framework plumbing every service call-chain goes through.
    fn build_framework_plumbing(&mut self) -> JavaJgrEntries {
        let fw = Origin::Framework;
        // Java wrappers over the JNI entries (their JNI registrations were
        // added in build_native_world; here we only create the MethodDefs).
        let read_strong = self.method("android.os.Parcel", "nativeReadStrongBinder", fw.clone());
        let write_strong = self.method("android.os.Parcel", "nativeWriteStrongBinder", fw.clone());
        let link_native = self.method("android.os.Binder", "linkToDeathNative", fw.clone());
        let link = self.method("android.os.Binder", "linkToDeath", fw.clone());
        self.call(link, link_native);
        let thread_native = self.method("java.lang.Thread", "nativeCreate", fw.clone());
        let thread_start = self.method("java.lang.Thread", "start", fw.clone());
        self.call(thread_start, thread_native);
        // RemoteCallbackList.register: the canonical retention path —
        // stores the callback and links a death recipient.
        let rcl_register = self.method("android.os.RemoteCallbackList", "register", fw.clone());
        self.call(rcl_register, link);
        let rcl_unregister = self.method("android.os.RemoteCallbackList", "unregister", fw);
        let _ = rcl_unregister;
        JavaJgrEntries {
            _read_strong: read_strong,
            _write_strong: write_strong,
            rcl_register,
            thread_start,
        }
    }

    fn build_services(&mut self, spec: &AospSpec, jgr: &JavaJgrEntries) {
        let fw = Origin::Framework;
        // A single SystemServer class hosts all registration call sites.
        for service in &spec.services {
            if service.native {
                // Native registration + native IPC entry points.
                let reg = self.native(&format!("{}::instantiate", service.interface));
                self.natives[reg.0 as usize].registers_service = Some(service.name.clone());
                for m in &service.methods {
                    let entry =
                        self.native(&format!("{}::onTransact_{}", service.interface, m.name));
                    self.natives[entry.0 as usize].native_ipc =
                        Some((service.name.clone(), m.name.clone()));
                }
                continue;
            }
            let class_name = service_class_name(&service.name);
            let reg = self.method(
                "com.android.server.SystemServer",
                &format!("start_{}", service.name.replace(['.', '-'], "_")),
                fw.clone(),
            );
            self.methods[reg.0 as usize].registers_service =
                Some((service.name.clone(), class_name.clone()));
            for m in &service.methods {
                self.add_ipc_method(&class_name, &service.interface, m, jgr, fw.clone());
            }
        }
    }

    /// One IPC method plus the body facts its `JgrBehavior` compiles to.
    fn add_ipc_method(
        &mut self,
        class_name: &str,
        interface: &str,
        m: &MethodSpec,
        jgr: &JavaJgrEntries,
        origin: Origin,
    ) {
        let id = self.method(class_name, &m.name, origin.clone());
        self.methods[id.0 as usize].overrides_aidl = Some(interface.to_owned());
        if let Some(p) = m.permission {
            self.methods[id.0 as usize].permission_checks.push(p);
        }
        let key = fnv1a64(format!("{class_name}.{}", m.name).as_bytes());
        match m.jgr {
            JgrBehavior::RetainPerCall { grefs_per_call } => {
                let usage =
                    if matches!(m.protection, Protection::PerProcessLimit { flaw: None, .. }) {
                        ParamUsage::StoredInCollectionBounded
                    } else {
                        ParamUsage::StoredInCollection
                    };
                for _ in 0..grefs_per_call.max(1) {
                    self.methods[id.0 as usize].binder_params.push(usage);
                }
                // Route through an internal helper; ~1/3 go via a Handler
                // post so the indirect-dependency pass is exercised.
                let helper = self.method(class_name, &format!("{}Internal", m.name), origin);
                if key.is_multiple_of(3) {
                    self.handler_post(id, helper);
                } else {
                    self.call(id, helper);
                }
                self.call(helper, jgr.rcl_register);
            }
            JgrBehavior::Transient => {
                let usage = if key.is_multiple_of(2) {
                    ParamUsage::LocalOnly
                } else {
                    ParamUsage::ReadOnlyMapKey
                };
                self.methods[id.0 as usize].binder_params.push(usage);
            }
            JgrBehavior::ReplaceSingle => {
                self.methods[id.0 as usize]
                    .binder_params
                    .push(ParamUsage::AssignedToMemberField);
            }
            JgrBehavior::ThreadCreateOnly => {
                self.call(id, jgr.thread_start);
            }
            JgrBehavior::NoJgr => {}
        }
    }

    fn build_apps(&mut self, spec: &AospSpec, jgr: &JavaJgrEntries) {
        // Abstract base class with default IPC implementations: the
        // TextToSpeechService pattern of §IV-D.
        let fw = Origin::Framework;
        let base = "android.speech.tts.TextToSpeechService";
        let base_idx = self.class(base, fw.clone());
        self.classes[base_idx].asbinder_interface = Some("ITextToSpeechService".to_owned());
        let set_callback = self.method(base, "setCallback", fw.clone());
        self.methods[set_callback.0 as usize].overrides_aidl =
            Some("ITextToSpeechService".to_owned());
        self.methods[set_callback.0 as usize]
            .binder_params
            .push(ParamUsage::StoredInCollection);
        let helper = self.method(base, "setCallbackInternal", fw.clone());
        self.call(set_callback, helper);
        self.call(helper, jgr.rcl_register);
        let speak = self.method(base, "speak", fw);
        self.methods[speak.0 as usize].overrides_aidl = Some("ITextToSpeechService".to_owned());
        self.methods[speak.0 as usize]
            .binder_params
            .push(ParamUsage::LocalOnly);

        for app in &spec.prebuilt_apps {
            let origin = Origin::PrebuiltApp(app.package.clone());
            if app.name == "PicoTts" {
                // PicoService only *extends* the base; the vulnerable
                // method is inherited.
                let cidx = self.class("com.svox.pico.PicoService", origin.clone());
                self.classes[cidx].superclass = Some(base.to_owned());
                continue;
            }
            for service in &app.services {
                let class_name = format!(
                    "{}.{}",
                    app.package,
                    service.interface.trim_start_matches('I')
                );
                let cidx = self.class(&class_name, origin.clone());
                self.classes[cidx].asbinder_interface = Some(service.interface.clone());
                for m in &service.methods {
                    self.add_ipc_method(&class_name, &service.interface, m, jgr, origin.clone());
                }
            }
            // Innocuous app classes, a couple per app, for scale.
            let h = fnv1a64(app.package.as_bytes());
            for i in 0..(1 + h % 3) {
                let class_name = format!("{}.Activity{i}", app.package);
                let act = self.method(&class_name, "onCreate", origin.clone());
                let _ = act;
            }
        }

        for app in &spec.third_party_apps {
            let origin = Origin::ThirdPartyApp(app.package.clone());
            match &app.vulnerable_interface {
                Some((iface, method)) if iface == "ITextToSpeechService" => {
                    // Google TTS: extends the framework base class.
                    let cidx = self.class(&format!("{}.TtsService", app.package), origin.clone());
                    self.classes[cidx].superclass = Some(base.to_owned());
                    debug_assert_eq!(method, "setCallback");
                }
                Some((iface, method)) => {
                    let class_name = format!("{}.MainService", app.package);
                    let cidx = self.class(&class_name, origin.clone());
                    self.classes[cidx].asbinder_interface = Some(iface.clone());
                    let id = self.method(&class_name, method, origin.clone());
                    self.methods[id.0 as usize].overrides_aidl = Some(iface.clone());
                    self.methods[id.0 as usize]
                        .binder_params
                        .push(ParamUsage::StoredInCollection);
                    self.call(id, jgr.rcl_register);
                }
                None => {
                    // Most apps export nothing; give them a main activity
                    // so the corpus has app-side bulk.
                    let class_name = format!("{}.MainActivity", app.package);
                    let _ = self.method(&class_name, "onCreate", origin.clone());
                }
            }
        }
    }
}

/// Canonical framework service class name, e.g. `"clipboard"` →
/// `"com.android.server.ClipboardService"`.
pub fn service_class_name(service: &str) -> String {
    let mut camel = String::new();
    for part in service.split(['_', '.']) {
        let mut chars = part.chars();
        if let Some(first) = chars.next() {
            camel.extend(first.to_uppercase());
            camel.push_str(chars.as_str());
        }
    }
    format!("com.android.server.{camel}Service")
}

struct JavaJgrEntries {
    _read_strong: MethodId,
    _write_strong: MethodId,
    rcl_register: MethodId,
    thread_start: MethodId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AospSpec;

    fn model() -> CodeModel {
        CodeModel::synthesize(&AospSpec::android_6_0_1())
    }

    #[test]
    fn scale_is_plausible() {
        let m = model();
        assert!(m.methods.len() > 2_000, "methods: {}", m.methods.len());
        assert!(m.classes.len() > 1_000, "classes: {}", m.classes.len());
        assert!(
            m.native_functions.len() > 200,
            "natives: {}",
            m.native_functions.len()
        );
    }

    #[test]
    fn named_jni_entries_registered() {
        let m = model();
        for (class, method) in [
            ("android.os.Parcel", "nativeReadStrongBinder"),
            ("android.os.Parcel", "nativeWriteStrongBinder"),
            ("android.os.Binder", "linkToDeathNative"),
            ("java.lang.Thread", "nativeCreate"),
        ] {
            assert!(
                m.jni_registrations
                    .iter()
                    .any(|r| r.java_class == class && r.java_method == method),
                "missing JNI registration {class}.{method}"
            );
        }
    }

    #[test]
    fn registration_sites_cover_all_java_services() {
        let m = model();
        let spec = AospSpec::android_6_0_1();
        let registered: std::collections::BTreeSet<_> = m
            .methods
            .iter()
            .filter_map(|mm| mm.registers_service.as_ref())
            .map(|(name, _)| name.clone())
            .collect();
        let native_registered: std::collections::BTreeSet<_> = m
            .native_functions
            .iter()
            .filter_map(|n| n.registers_service.clone())
            .collect();
        for s in &spec.services {
            if s.native {
                assert!(native_registered.contains(&s.name), "{} missing", s.name);
            } else {
                assert!(registered.contains(&s.name), "{} missing", s.name);
            }
        }
        assert_eq!(native_registered.len(), 5);
    }

    #[test]
    fn vulnerable_method_reaches_jgr_entry_via_calls() {
        let m = model();
        let clip = m
            .find_method(
                &service_class_name("clipboard"),
                "addPrimaryClipChangedListener",
            )
            .expect("clipboard IPC method");
        // Walk direct + handler edges to a fixpoint; must reach
        // RemoteCallbackList.register -> Binder.linkToDeath.
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![clip];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let def = m.method(id);
            stack.extend(def.calls.iter().copied());
            stack.extend(def.handler_posts.iter().copied());
        }
        let link = m.find_method("android.os.Binder", "linkToDeath").unwrap();
        assert!(
            seen.contains(&link),
            "retention chain must reach linkToDeath"
        );
    }

    #[test]
    fn pico_service_inherits_the_vulnerable_base() {
        let m = model();
        let pico = m.find_class("com.svox.pico.PicoService").unwrap();
        assert_eq!(
            pico.superclass.as_deref(),
            Some("android.speech.tts.TextToSpeechService")
        );
        let base = m
            .find_class("android.speech.tts.TextToSpeechService")
            .unwrap();
        assert_eq!(
            base.asbinder_interface.as_deref(),
            Some("ITextToSpeechService")
        );
    }

    #[test]
    fn dot_export_contains_the_retention_chain() {
        let m = model();
        let dot = m
            .call_graph_dot(
                &service_class_name("clipboard"),
                "addPrimaryClipChangedListener",
            )
            .expect("clipboard IPC method exists");
        assert!(dot.starts_with("digraph call_graph {"));
        assert!(dot.contains("android.os.Binder.linkToDeath"), "{dot}");
        assert!(dot.contains("android.os.RemoteCallbackList.register"));
        assert!(m.call_graph_dot("no.Such", "method").is_none());
        // Handler-indirect chains render dashed edges.
        let spec = AospSpec::android_6_0_1();
        let dashed = spec.vulnerable_service_interfaces().find_map(|(s, mm)| {
            let dot = m.call_graph_dot(&service_class_name(&s.name), &mm.name)?;
            dot.contains("style=dashed").then_some(dot)
        });
        assert!(
            dashed.is_some(),
            "at least one vulnerable chain is Handler-routed"
        );
    }

    #[test]
    fn model_is_deterministic() {
        assert_eq!(model(), model());
    }

    #[test]
    fn error_path_fixture_extends_without_disturbing_the_base() {
        let base = model();
        let ext = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        assert_eq!(ext.methods.len(), base.methods.len() + 6);
        assert_eq!(ext.methods[..base.methods.len()], base.methods[..]);
        let class = ext.find_class(ERROR_PATH_CLASS).expect("fixture class");
        assert_eq!(class.asbinder_interface.as_deref(), Some("IErrorPathDemo"));
        for (class_name, method) in error_path_cases() {
            assert!(
                ext.find_method(class_name, method).is_some(),
                "missing {class_name}.{method}"
            );
        }
    }
}
