//! `obx-serve`: the always-on explanation service behind `obx serve`.
//!
//! A std-only, hand-rolled HTTP/1.1 server that hosts **many scenario
//! tenants** in one process, each with its own chain of immutable
//! **epoch snapshots**, and multiplexes concurrent `explain`/`validate`
//! requests onto the same execution layer the one-shot CLI uses — so a
//! served response body is byte-identical to `obx explain` output on
//! the same snapshot.
//!
//! The crate is organised by concern:
//!
//! - [`http`] — the limited, hostile-input-hardened wire parser
//!   (`OBX300`–`OBX307`);
//! - [`json`] — the strict request decoder (`OBX310`–`OBX313`);
//! - [`snapshot`] — immutable epoch snapshots;
//! - [`tenants`] — the tenant registry: per-tenant epoch chains and
//!   reload backoff (`OBX328`), circuit breakers (`OBX325`), quarantine
//!   (`OBX327`), and the crash-safe checksummed mount journal;
//! - [`admission`] — bounded two-level fair-share admission: tenant
//!   bulkheads (`OBX324`), then clients within a tenant
//!   (`OBX320`–`OBX322`);
//! - [`server`] — the accept loop, routing (`OBX326` for unknown
//!   scenarios), panic quarantine (`OBX323`), and graceful drain.
//!
//! Endpoints: `GET /healthz`, `GET /readyz`, `GET /tenants`,
//! `GET /metrics`, `POST /explain`, `POST /validate`, `POST /reload`,
//! `POST /tenants`. See `DESIGN.md` §12–§13 for the service
//! architecture and the full diagnostic-code map.

#![deny(missing_docs)]
// The server takes untrusted bytes off the socket (HTTP heads, JSON
// bodies, mount journals) and holds every tenant's epoch chain: no
// non-test code in this crate may panic on an `unwrap` or `expect`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod http;
pub mod json;
pub mod server;
pub mod snapshot;
pub mod tenants;

pub use admission::{FairGate, Permit, Shed};
pub use server::{start, start_multi, ServeConfig, ServerHandle};
pub use snapshot::Epoch;
pub use tenants::{BreakerPass, ReloadError, Tenant, TenantConfig, TenantStatus, TenantStore};
