//! # raven-ledger: tamper-evident forensics for the reproduction
//!
//! The paper's detection/mitigation pipeline is only as trustworthy as
//! its forensic record: an attacker who can inject ITP packets can
//! plausibly also rewrite logs after the fact (Bonaci et al. 2015's
//! operator-side taxonomy includes post-hoc manipulation of the teleop
//! record). This crate makes the flight recorder's incident stream and
//! the repo's golden artifacts *tamper-evident*:
//!
//! * [`ledger`] — an append-only, hash-chained JSONL incident ledger
//!   ([`Ledger`] in memory, [`LedgerWriter`] on disk with a `.head`
//!   sidecar);
//! * [`verify`] — the offline verifier with first-bad-sequence tamper
//!   diagnosis ([`verify_jsonl`], [`verify_sealed`],
//!   [`verify_against_head`]), also exposed as `raven-sim ledger
//!   verify`;
//! * [`manifest`] — content-addressed signed manifests pinning
//!   `results/*.json` and the golden fixtures ([`Manifest`]);
//! * [`mod@sha256`] — the hand-rolled SHA-256/HMAC core everything above
//!   rides on (dependency-free, so the verifier is auditable from the
//!   repo alone).
//!
//! Everything here is derived from **virtual time** and canonical
//! serialization only, so ledgers and manifests are byte-identical
//! across identical seeded runs and worker counts. The format spec and
//! threat model live in `docs/FORENSICS.md`.

#![forbid(unsafe_code)]
// Outputs of this crate are serialized or merged: an exact float `==`
// flips when one FMA is reordered, so compare bits or use a tolerance.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod ledger;
pub mod manifest;
pub mod sha256;
pub mod verify;

pub use ledger::{
    record_hash, seal_payload, Ledger, LedgerHead, LedgerRecord, LedgerWriter, GENESIS_HASH,
    LEDGER_DOMAIN, SEAL_KIND,
};
pub use manifest::{Manifest, ManifestEntry, ManifestError, MANIFEST_VERSION};
pub use sha256::{hmac_sha256, hmac_sha256_hex, sha256, sha256_hex, Sha256};
pub use verify::{
    verify_against_head, verify_jsonl, verify_sealed, LedgerError, LedgerSummary, TamperKind,
};
