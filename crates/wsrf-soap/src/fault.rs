//! SOAP faults and WS-BaseFaults.
//!
//! WS-BaseFaults gives every WSRF fault a common shape — timestamp,
//! originator EPR, error code, human description and a *cause chain* —
//! so that, e.g., a Scheduler fault can carry the Execution Service
//! fault that caused it, which in turn carries the ProcSpawn fault.

use wsrf_xml::Element;

use crate::addressing::EndpointReference;
use crate::envelope::Envelope;
use crate::ns;

/// A WS-BaseFaults fault payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseFault {
    /// Virtual-time timestamp (seconds since the grid epoch), stored
    /// textually because it crosses the wire.
    pub timestamp: String,
    /// The service/resource that raised the fault.
    pub originator: Option<EndpointReference>,
    /// Machine-readable error code, e.g. `uvacg:NoSuchJob`.
    pub error_code: String,
    /// Human-readable description.
    pub description: String,
    /// The fault that caused this one, if any.
    pub cause: Option<Box<BaseFault>>,
}

impl BaseFault {
    /// A new fault with the given code and description.
    pub fn new(error_code: impl Into<String>, description: impl Into<String>) -> Self {
        BaseFault {
            timestamp: String::new(),
            originator: None,
            error_code: error_code.into(),
            description: description.into(),
            cause: None,
        }
    }

    /// Builder: set the originator EPR.
    pub fn from_originator(mut self, epr: EndpointReference) -> Self {
        self.originator = Some(epr);
        self
    }

    /// Builder: set the virtual timestamp (seconds).
    pub fn at(mut self, seconds: f64) -> Self {
        self.timestamp = format!("{seconds:.6}");
        self
    }

    /// Builder: chain a causing fault.
    pub fn caused_by(mut self, cause: BaseFault) -> Self {
        self.cause = Some(Box::new(cause));
        self
    }

    /// Depth of the cause chain (1 for a fault with no cause).
    pub fn chain_len(&self) -> usize {
        1 + self.cause.as_deref().map_or(0, BaseFault::chain_len)
    }

    /// The root cause (deepest fault in the chain).
    pub fn root_cause(&self) -> &BaseFault {
        self.cause.as_deref().map_or(self, BaseFault::root_cause)
    }

    /// Serialize as a `<wsbf:BaseFault>` element.
    pub fn to_element(&self) -> Element {
        self.to_element_named("BaseFault")
    }

    fn to_element_named(&self, local: &str) -> Element {
        let mut e = Element::new(ns::WSBF, local);
        e.push_child(Element::new(ns::WSBF, "Timestamp").text(&self.timestamp));
        if let Some(orig) = &self.originator {
            e.push_child(orig.to_element_named(ns::WSBF, "Originator"));
        }
        e.push_child(Element::new(ns::WSBF, "ErrorCode").text(&self.error_code));
        e.push_child(Element::new(ns::WSBF, "Description").text(&self.description));
        if let Some(cause) = &self.cause {
            e.push_child(cause.to_element_named("FaultCause"));
        }
        e
    }

    /// Decode from a `<BaseFault>`/`<FaultCause>` element.
    pub fn from_element(e: &Element) -> Self {
        BaseFault {
            timestamp: e
                .find(ns::WSBF, "Timestamp")
                .map(Element::text_content)
                .unwrap_or_default(),
            originator: e
                .find(ns::WSBF, "Originator")
                .and_then(|o| EndpointReference::from_element(o).ok()),
            error_code: e
                .find(ns::WSBF, "ErrorCode")
                .map(Element::text_content)
                .unwrap_or_default(),
            description: e
                .find(ns::WSBF, "Description")
                .map(Element::text_content)
                .unwrap_or_default(),
            cause: e
                .find(ns::WSBF, "FaultCause")
                .map(|c| Box::new(BaseFault::from_element(c))),
        }
    }
}

impl std::fmt::Display for BaseFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.error_code, self.description)?;
        if let Some(c) = &self.cause {
            write!(f, " <- {}", c)?;
        }
        Ok(())
    }
}

impl std::error::Error for BaseFault {}

/// A SOAP-level fault, optionally wrapping a [`BaseFault`] detail.
#[derive(Debug, Clone, PartialEq)]
pub struct SoapFault {
    /// `faultcode`, e.g. `Client` or `Server`.
    pub code: String,
    /// `faultstring` — short human description.
    pub reason: String,
    /// WS-BaseFaults detail, when present.
    pub detail: Option<BaseFault>,
}

impl SoapFault {
    /// A receiver-side (`Server`) fault.
    pub fn server(reason: impl Into<String>) -> Self {
        SoapFault {
            code: "Server".into(),
            reason: reason.into(),
            detail: None,
        }
    }

    /// A sender-side (`Client`) fault.
    pub fn client(reason: impl Into<String>) -> Self {
        SoapFault {
            code: "Client".into(),
            reason: reason.into(),
            detail: None,
        }
    }

    /// Wrap a [`BaseFault`] as the detail of a `Server` fault.
    pub fn from_base(base: BaseFault) -> Self {
        SoapFault {
            code: "Server".into(),
            reason: format!("[{}] {}", base.error_code, base.description),
            detail: Some(base),
        }
    }

    /// The WS-BaseFaults error code, when a detail is attached.
    pub fn error_code(&self) -> Option<&str> {
        self.detail.as_ref().map(|d| d.error_code.as_str())
    }

    /// Build a `<soap:Fault>` body element.
    pub fn to_element(&self) -> Element {
        let mut f = Element::new(ns::SOAP_ENV, "Fault");
        f.push_child(Element::local("faultcode").text(&self.code));
        f.push_child(Element::local("faultstring").text(&self.reason));
        if let Some(d) = &self.detail {
            f.push_child(Element::local("detail").child(d.to_element()));
        }
        f
    }

    /// Wrap into a complete fault envelope.
    pub fn to_envelope(&self) -> Envelope {
        Envelope::new(self.to_element())
    }

    /// Decode from a `<soap:Fault>` element (lenient: missing parts
    /// become empty strings).
    pub fn from_element(e: &Element) -> Self {
        let code = e
            .find_local("faultcode")
            .map(Element::text_content)
            .unwrap_or_default();
        let reason = e
            .find_local("faultstring")
            .map(Element::text_content)
            .unwrap_or_default();
        let detail = e
            .find_local("detail")
            .and_then(|d| d.find(ns::WSBF, "BaseFault"))
            .map(BaseFault::from_element);
        SoapFault {
            code,
            reason,
            detail,
        }
    }
}

impl Envelope {
    /// Whether the body is a SOAP `<Fault>`.
    pub fn is_fault(&self) -> bool {
        self.body.name.is(ns::SOAP_ENV, "Fault")
    }

    /// Decode the body as a [`SoapFault`], if it is one.
    pub fn fault(&self) -> Option<SoapFault> {
        if self.is_fault() {
            Some(SoapFault::from_element(&self.body))
        } else {
            None
        }
    }
}

impl std::fmt::Display for SoapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "soap fault ({}): {}", self.code, self.reason)?;
        if let Some(d) = &self.detail {
            write!(f, " — {}", d)?;
        }
        Ok(())
    }
}

impl std::error::Error for SoapFault {}

impl From<BaseFault> for SoapFault {
    fn from(b: BaseFault) -> Self {
        SoapFault::from_base(b)
    }
}

impl From<wsrf_xml::XmlError> for SoapFault {
    fn from(e: wsrf_xml::XmlError) -> Self {
        SoapFault::client(format!("malformed message: {}", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chained() -> BaseFault {
        BaseFault::new("uvacg:JobSetFailed", "job set had a failing job")
            .at(12.5)
            .from_originator(EndpointReference::service("inproc://sched/Scheduler"))
            .caused_by(
                BaseFault::new("uvacg:JobFailed", "job exited nonzero").caused_by(BaseFault::new(
                    "uvacg:BadCredentials",
                    "user unknown on machine",
                )),
            )
    }

    #[test]
    fn cause_chain_roundtrips() {
        let f = chained();
        assert_eq!(f.chain_len(), 3);
        let back = BaseFault::from_element(&f.to_element());
        assert_eq!(back, f);
        assert_eq!(back.root_cause().error_code, "uvacg:BadCredentials");
    }

    #[test]
    fn soap_fault_roundtrips_with_detail() {
        let sf = SoapFault::from_base(chained());
        let env = sf.to_envelope();
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.is_fault());
        let back = parsed.fault().unwrap();
        assert_eq!(back, sf);
        assert_eq!(back.error_code(), Some("uvacg:JobSetFailed"));
    }

    #[test]
    fn display_renders_chain() {
        let s = chained().to_string();
        assert!(s.contains("JobSetFailed"), "{s}");
        assert!(s.contains("<- [uvacg:JobFailed]"), "{s}");
        assert!(s.contains("BadCredentials"), "{s}");
    }

    #[test]
    fn simple_faults_have_no_detail() {
        let sf = SoapFault::client("bad request");
        let back = SoapFault::from_element(&sf.to_element());
        assert_eq!(back, sf);
        assert_eq!(back.error_code(), None);
    }

    #[test]
    fn xml_errors_convert_to_client_faults() {
        let sf: SoapFault = wsrf_xml::XmlError::new("boom").into();
        assert_eq!(sf.code, "Client");
        assert!(sf.reason.contains("boom"));
    }
}
