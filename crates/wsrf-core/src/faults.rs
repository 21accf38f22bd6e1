//! Canonical WS-BaseFaults used across the framework and the testbed.

use wsrf_soap::{BaseFault, EndpointReference};

/// The EPR named no resource, or the resource has been destroyed.
pub fn no_such_resource(key: &str) -> BaseFault {
    BaseFault::new(
        "wsrf:NoSuchResource",
        format!("no WS-Resource with key '{key}'"),
    )
}

/// The invocation's action URI matches no operation of the service.
pub fn no_such_operation(action: &str) -> BaseFault {
    BaseFault::new(
        "wsrf:NoSuchOperation",
        format!("no operation for action '{action}'"),
    )
}

/// The message omitted the resource-identifying reference properties.
pub fn missing_resource_key(service: &str) -> BaseFault {
    BaseFault::new(
        "wsrf:MissingResourceKey",
        format!("invocation of '{service}' carries no resource key in its headers"),
    )
}

/// A handler registered as read-only asked to edit its resource: a
/// defect in the service, reported instead of dropping the edit.
pub fn read_only_operation(action: &str) -> BaseFault {
    BaseFault::new(
        "wsrf:ReadOnlyOperation",
        format!("operation '{action}' is read-only and may not change resource state"),
    )
}

/// A `GetResourceProperty` named an unknown property.
pub fn invalid_property(name: &str) -> BaseFault {
    BaseFault::new(
        "wsrp:InvalidResourcePropertyQName",
        format!("resource has no property named '{name}'"),
    )
}

/// A query expression failed to parse or used an unsupported dialect.
pub fn invalid_query(detail: &str) -> BaseFault {
    BaseFault::new("wsrp:InvalidQueryExpression", detail.to_string())
}

/// The request body was malformed.
pub fn bad_request(detail: &str) -> BaseFault {
    BaseFault::new("wsrf:BadRequest", detail.to_string())
}

/// Extract the resource key from an EPR, faulting — instead of
/// panicking — when the EPR carries no reference properties (a plain
/// service EPR). `what` names the EPR in the fault detail.
pub fn require_key(epr: &EndpointReference, what: &str) -> Result<String, BaseFault> {
    epr.resource_key()
        .map(str::to_string)
        .ok_or_else(|| bad_request(&format!("{what} EPR carries no resource key")))
}

/// A storage backend rejected an operation.
pub fn storage(detail: &str) -> BaseFault {
    BaseFault::new("wsrf:StorageFault", detail.to_string())
}

/// Convert a store error into the corresponding canonical fault.
pub fn from_store(e: crate::store::StoreError) -> BaseFault {
    match e {
        crate::store::StoreError::NotFound(k) => no_such_resource(&k),
        other => storage(&other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreError;

    #[test]
    fn store_error_mapping() {
        assert_eq!(
            from_store(StoreError::NotFound("k".into())).error_code,
            "wsrf:NoSuchResource"
        );
        assert_eq!(
            from_store(StoreError::Schema("bad".into())).error_code,
            "wsrf:StorageFault"
        );
    }

    #[test]
    fn require_key_faults_on_keyless_epr() {
        let keyless = EndpointReference::service("http://h/Svc");
        let fault = require_key(&keyless, "entry").unwrap_err();
        assert_eq!(fault.error_code, "wsrf:BadRequest");
        assert!(fault.description.contains("carries no resource key"));
        let keyed = EndpointReference::resource("http://h/Svc", "{u}Key", "k-1");
        assert_eq!(require_key(&keyed, "entry").unwrap(), "k-1");
    }

    #[test]
    fn fault_codes_are_stable() {
        assert_eq!(
            no_such_operation("urn:x").error_code,
            "wsrf:NoSuchOperation"
        );
        assert_eq!(
            invalid_property("P").error_code,
            "wsrp:InvalidResourcePropertyQName"
        );
    }
}
