//! The campus PKI wiring.
//!
//! Every principal (client users, the Scheduler, each Execution
//! Service) enrolls with the simulated campus CA. Credentials travel
//! as WS-Security UsernameToken headers encrypted to the *recipient's*
//! certificate: the client encrypts to the Scheduler; the Scheduler,
//! which alone knows where a job will land, re-encrypts to the chosen
//! Execution Service (the paper's client encrypted directly because
//! its scenario fixed the target machine per request; the mediated
//! variant preserves the same header format and crypto flow).

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

use wsrf_security::pki::{Certificate, CertificateAuthority, KeyPair};
use wsrf_security::wsse::{SecurityError, UsernameToken};
use wsrf_soap::BaseFault;
use wsrf_xml::Element;

/// The shared campus security fabric.
pub struct GridSecurity {
    ca: CertificateAuthority,
    keys: Mutex<HashMap<String, KeyPair>>,
    certs: Mutex<HashMap<String, Certificate>>,
    rng: Mutex<StdRng>,
}

impl GridSecurity {
    /// A fresh CA, seeded for reproducibility (the virtual clock bans
    /// ambient entropy anyway).
    pub fn new(seed: u64) -> Arc<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        Arc::new(GridSecurity {
            ca: CertificateAuthority::new("uva-campus-ca", &mut rng),
            keys: Mutex::new(HashMap::new()),
            certs: Mutex::new(HashMap::new()),
            rng: Mutex::new(rng),
        })
    }

    /// Enroll a principal; idempotent.
    pub fn enroll(&self, subject: &str) {
        let mut keys = self.keys.lock();
        if keys.contains_key(subject) {
            return;
        }
        let (kp, cert) = self.ca.enroll(subject, &mut *self.rng.lock());
        keys.insert(subject.to_string(), kp);
        self.certs.lock().insert(subject.to_string(), cert);
    }

    /// A principal's certificate (public).
    pub fn certificate(&self, subject: &str) -> Option<Certificate> {
        self.certs.lock().get(subject).cloned()
    }

    /// A principal's key pair (in a real deployment this never leaves
    /// the principal's machine; the simulation hands it to the service
    /// that owns it at deployment time).
    pub fn key_pair(&self, subject: &str) -> Option<KeyPair> {
        self.keys.lock().get(subject).cloned()
    }

    /// Verify a certificate against the campus CA.
    pub fn verify(&self, cert: &Certificate) -> bool {
        self.ca.verify(cert)
    }

    /// Encrypt a username token to a principal, producing the
    /// `<wsse:Security>` header.
    pub fn encrypt_token(&self, token: &UsernameToken, to_subject: &str) -> Option<Element> {
        let cert = self.certificate(to_subject)?;
        Some(token.encrypt(&cert, &mut *self.rng.lock()))
    }

    /// Decrypt a `<wsse:Security>` header as a principal.
    pub fn decrypt_token(
        &self,
        header: &Element,
        as_subject: &str,
    ) -> Result<UsernameToken, SecurityError> {
        let keys = self.key_pair(as_subject).ok_or_else(|| {
            SecurityError::MalformedHeader(format!("'{as_subject}' not enrolled"))
        })?;
        UsernameToken::decrypt(header, &keys)
    }
}

/// The credentials a request or a scheduler's submission record
/// carries: a WS-Security `header` encrypted to the recipient's
/// `subject` when `security` is set, else the `user`/`password`
/// attributes of `plain` (insecure deployments only).
pub(crate) fn open_credentials(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enroll_and_roundtrip_token() {
        let sec = GridSecurity::new(1);
        sec.enroll("scheduler");
        sec.enroll("es@machine01");
        let tok = UsernameToken::new("alice", "pw");
        let header = sec.encrypt_token(&tok, "es@machine01").unwrap();
        let back = sec.decrypt_token(&header, "es@machine01").unwrap();
        assert_eq!(back, tok);
        // The wrong principal cannot decrypt.
        assert!(sec.decrypt_token(&header, "scheduler").is_err());
    }

    #[test]
    fn enroll_is_idempotent() {
        let sec = GridSecurity::new(2);
        sec.enroll("svc");
        let k1 = sec.key_pair("svc").unwrap();
        sec.enroll("svc");
        assert_eq!(sec.key_pair("svc").unwrap(), k1);
    }

    #[test]
    fn certificates_verify_against_campus_ca() {
        let sec = GridSecurity::new(3);
        sec.enroll("svc");
        let cert = sec.certificate("svc").unwrap();
        assert!(sec.verify(&cert));
        let other = GridSecurity::new(4);
        assert!(!other.verify(&cert));
    }

    #[test]
    fn unknown_principals_yield_none() {
        let sec = GridSecurity::new(5);
        assert!(sec.certificate("ghost").is_none());
        assert!(sec
            .encrypt_token(&UsernameToken::new("u", "p"), "ghost")
            .is_none());
    }
}
