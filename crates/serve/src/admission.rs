//! Fair-share admission control: the bounded front door of `obx serve`.
//!
//! The scoring engine is CPU-bound; accepting every request under load
//! just converts overload into unbounded queueing and collective timeout.
//! The gate instead enforces four invariants:
//!
//! 1. **Bounded concurrency** — at most `max_inflight` requests execute,
//!    and at most `tenant_max_inflight` of them belong to one tenant
//!    (the bulkhead: a hot tenant saturates its own compartment, never
//!    the whole ship).
//! 2. **Bounded queueing** — at most `queue_depth` requests wait overall
//!    and at most `tenant_queue_depth` per tenant; beyond that, requests
//!    are *shed immediately* with a structured rejection
//!    ([`Shed::QueueFull`] / [`Shed::TenantSaturated`]) instead of being
//!    silently parked.
//! 3. **Fair share across tenants** — waiting requests are granted
//!    round-robin across tenants first, so one flooding tenant delays
//!    its own backlog, not its co-tenants' single requests.
//! 4. **Fair share within a tenant** — inside a tenant the same policy
//!    repeats across client identities, FIFO within each client.
//!
//! Grants hand out a [`Permit`]; dropping it releases both the global and
//! the tenant slot and wakes the next waiter, so a panicking request
//! (caught upstream) can never leak capacity.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The global wait queue is full — immediate rejection (`OBX320`).
    QueueFull,
    /// The request waited its full patience without a slot (`OBX321`).
    TimedOut,
    /// The server is draining and admits nothing new (`OBX322`).
    Draining,
    /// The tenant's own wait queue is full — the bulkhead held (`OBX324`).
    TenantSaturated,
}

impl fmt::Display for Shed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shed::QueueFull => write!(f, "admission queue full"),
            Shed::TimedOut => write!(f, "timed out waiting for an execution slot"),
            Shed::Draining => write!(f, "server is draining"),
            Shed::TenantSaturated => write!(f, "tenant admission queue full (bulkhead)"),
        }
    }
}

/// One tenant's waiting backlog: a round-robin ring of
/// `(client, FIFO of ticket ids)`.
struct TenantQueue {
    tenant: String,
    waiting: usize,
    clients: VecDeque<(String, VecDeque<u64>)>,
}

struct GateState {
    draining: bool,
    inflight: usize,
    waiting: usize,
    /// Round-robin ring of per-tenant backlogs. The frontmost tenant
    /// *below its inflight cap* is granted next; after a grant it moves
    /// to the back (or drops out when empty), which *is* the cross-tenant
    /// fairness policy. Capped tenants keep their place — being at the
    /// bulkhead limit is not a fairness penalty.
    ring: VecDeque<TenantQueue>,
    /// Executing requests per tenant (the bulkhead occupancy).
    tenant_inflight: HashMap<String, usize>,
    /// Tickets granted by a releaser but not yet collected by their
    /// waiter (the slot is already counted in `inflight`).
    granted: HashSet<u64>,
    next_ticket: u64,
}

struct Inner {
    max_inflight: usize,
    queue_depth: usize,
    tenant_max_inflight: usize,
    tenant_queue_depth: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        match self.state.lock() {
            Ok(g) => g,
            // A poisoning panic is caught upstream per request; the gate's
            // own invariants are restored by the Permit drop that follows.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Grants the next waiting ticket if a global slot is free and some
    /// waiting tenant is below its bulkhead cap. Caller holds the lock
    /// and must notify afterwards.
    fn grant_next(&self, s: &mut GateState) {
        if s.inflight >= self.max_inflight {
            return;
        }
        let Some(idx) = (0..s.ring.len()).find(|&i| {
            s.tenant_inflight
                .get(s.ring[i].tenant.as_str())
                .copied()
                .unwrap_or(0)
                < self.tenant_max_inflight
        }) else {
            return;
        };
        let Some(mut tq) = s.ring.remove(idx) else {
            return;
        };
        if let Some((client, mut queue)) = tq.clients.pop_front() {
            if let Some(ticket) = queue.pop_front() {
                s.granted.insert(ticket);
                s.inflight += 1;
                *s.tenant_inflight.entry(tq.tenant.clone()).or_insert(0) += 1;
                s.waiting -= 1;
                tq.waiting -= 1;
            }
            if !queue.is_empty() {
                tq.clients.push_back((client, queue));
            }
        }
        if tq.waiting > 0 {
            s.ring.push_back(tq);
        }
    }

    /// Removes `ticket` from whatever queue holds it (a waiter
    /// abandoning its place on timeout/drain).
    fn forget(&self, s: &mut GateState, ticket: u64) {
        for t in 0..s.ring.len() {
            for c in 0..s.ring[t].clients.len() {
                if let Some(pos) = s.ring[t].clients[c].1.iter().position(|&x| x == ticket) {
                    s.ring[t].clients[c].1.remove(pos);
                    s.ring[t].waiting -= 1;
                    s.waiting -= 1;
                    if s.ring[t].clients[c].1.is_empty() {
                        s.ring[t].clients.remove(c);
                    }
                    if s.ring[t].waiting == 0 {
                        s.ring.remove(t);
                    }
                    return;
                }
            }
        }
    }

    fn release(&self, tenant: &str) {
        let mut s = self.lock();
        s.inflight -= 1;
        if let Some(n) = s.tenant_inflight.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                s.tenant_inflight.remove(tenant);
            }
        }
        self.grant_next(&mut s);
        drop(s);
        self.cv.notify_all();
    }
}

/// The admission gate. Cheap to clone (shared state).
#[derive(Clone)]
pub struct FairGate {
    inner: Arc<Inner>,
}

/// An execution slot, bound to the tenant it was granted for. Dropping
/// it releases both the global and the tenant slot and wakes the next
/// fair-share waiter.
pub struct Permit {
    inner: Arc<Inner>,
    tenant: String,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inner.release(&self.tenant);
    }
}

impl FairGate {
    /// A gate allowing `max_inflight` concurrent executions and at most
    /// `queue_depth` waiters (both floored at 1). Per-tenant caps default
    /// to the global caps — a single-tenant server behaves exactly as the
    /// one-level gate always did.
    pub fn new(max_inflight: usize, queue_depth: usize) -> Self {
        Self::with_tenant_caps(max_inflight, queue_depth, max_inflight, queue_depth)
    }

    /// A gate with explicit per-tenant bulkhead caps: at most
    /// `tenant_max_inflight` of the global slots and `tenant_queue_depth`
    /// of the global queue positions may belong to one tenant.
    pub fn with_tenant_caps(
        max_inflight: usize,
        queue_depth: usize,
        tenant_max_inflight: usize,
        tenant_queue_depth: usize,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                max_inflight: max_inflight.max(1),
                queue_depth: queue_depth.max(1),
                tenant_max_inflight: tenant_max_inflight.clamp(1, max_inflight.max(1)),
                tenant_queue_depth: tenant_queue_depth.clamp(1, queue_depth.max(1)),
                state: Mutex::new(GateState {
                    draining: false,
                    inflight: 0,
                    waiting: 0,
                    ring: VecDeque::new(),
                    tenant_inflight: HashMap::new(),
                    granted: HashSet::new(),
                    next_ticket: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Requests an execution slot for `client` of `tenant` (anonymous
    /// tenants/clients each share one bucket), waiting at most
    /// `patience`. Sheds instead of blocking indefinitely.
    pub fn admit(
        &self,
        tenant: Option<&str>,
        client: Option<&str>,
        patience: Duration,
    ) -> Result<Permit, Shed> {
        let inner = &self.inner;
        let tenant = tenant.unwrap_or("");
        let mut s = inner.lock();
        if s.draining {
            return Err(Shed::Draining);
        }
        let tenant_busy = s.tenant_inflight.get(tenant).copied().unwrap_or(0);
        // Fast path: free global slot, tenant below its bulkhead cap, and
        // nobody already waiting their turn.
        if s.inflight < inner.max_inflight
            && tenant_busy < inner.tenant_max_inflight
            && s.waiting == 0
        {
            s.inflight += 1;
            *s.tenant_inflight.entry(tenant.to_owned()).or_insert(0) += 1;
            return Ok(Permit {
                inner: Arc::clone(inner),
                tenant: tenant.to_owned(),
            });
        }
        if s.waiting >= inner.queue_depth {
            return Err(Shed::QueueFull);
        }
        let tenant_waiting = s
            .ring
            .iter()
            .find(|tq| tq.tenant == tenant)
            .map_or(0, |tq| tq.waiting);
        if tenant_waiting >= inner.tenant_queue_depth {
            return Err(Shed::TenantSaturated);
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        let bucket = client.unwrap_or("");
        let tq = match s.ring.iter_mut().find(|tq| tq.tenant == tenant) {
            Some(tq) => tq,
            None => {
                s.ring.push_back(TenantQueue {
                    tenant: tenant.to_owned(),
                    waiting: 0,
                    clients: VecDeque::new(),
                });
                match s.ring.back_mut() {
                    Some(tq) => tq,
                    // Unreachable: we just pushed. Recover by shedding.
                    None => return Err(Shed::QueueFull),
                }
            }
        };
        match tq.clients.iter_mut().find(|(c, _)| c == bucket) {
            Some((_, queue)) => queue.push_back(ticket),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(ticket);
                tq.clients.push_back((bucket.to_owned(), queue));
            }
        }
        tq.waiting += 1;
        s.waiting += 1;
        // A slot may already be free (release raced our enqueue).
        inner.grant_next(&mut s);
        let deadline = Instant::now() + patience;
        loop {
            if s.granted.remove(&ticket) {
                return Ok(Permit {
                    inner: Arc::clone(inner),
                    tenant: tenant.to_owned(),
                });
            }
            if s.draining {
                inner.forget(&mut s, ticket);
                return Err(Shed::Draining);
            }
            let now = Instant::now();
            if now >= deadline {
                inner.forget(&mut s, ticket);
                return Err(Shed::TimedOut);
            }
            s = match inner.cv.wait_timeout(s, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Flips the gate into draining: every waiter is woken with
    /// [`Shed::Draining`] and no new request is admitted. In-flight
    /// permits are unaffected.
    pub fn drain(&self) {
        let mut s = self.inner.lock();
        s.draining = true;
        drop(s);
        self.inner.cv.notify_all();
    }

    /// Blocks until no request is in flight (or `patience` elapses);
    /// `true` when idle was reached. Meaningful after [`drain`](Self::drain).
    pub fn wait_idle(&self, patience: Duration) -> bool {
        let deadline = Instant::now() + patience;
        let mut s = self.inner.lock();
        loop {
            // Granted-but-uncollected tickets still count: their waiters
            // are about to run.
            if s.inflight == 0 && s.granted.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            s = match self.inner.cv.wait_timeout(s, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Currently executing requests.
    pub fn inflight(&self) -> usize {
        self.inner.lock().inflight
    }

    /// Currently executing requests belonging to `tenant`.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .tenant_inflight
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Currently queued requests.
    pub fn waiting(&self) -> usize {
        self.inner.lock().waiting
    }

    /// Currently queued requests belonging to `tenant`.
    pub fn tenant_waiting(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .ring
            .iter()
            .find(|tq| tq.tenant == tenant)
            .map_or(0, |tq| tq.waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const PATIENT: Duration = Duration::from_secs(10);

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fast_path_admits_up_to_capacity_then_sheds_on_full_queue() {
        let gate = FairGate::new(2, 1);
        let p1 = gate.admit(None, None, PATIENT).unwrap();
        let p2 = gate.admit(None, None, PATIENT).unwrap();
        assert_eq!(gate.inflight(), 2);
        // Fill the one queue slot from another thread.
        let g = gate.clone();
        let waiter = thread::spawn(move || g.admit(None, Some("w"), PATIENT).map(|_| ()));
        spin_until("waiter to queue", || gate.waiting() == 1);
        // Queue full: immediate shed, no blocking.
        assert_eq!(
            gate.admit(None, Some("x"), PATIENT).map(|_| ()),
            Err(Shed::QueueFull)
        );
        drop(p1);
        waiter.join().unwrap().unwrap();
        drop(p2);
        assert!(gate.wait_idle(PATIENT));
    }

    #[test]
    fn waiting_times_out_with_a_structured_shed() {
        let gate = FairGate::new(1, 4);
        let _held = gate.admit(None, None, PATIENT).unwrap();
        let shed = gate
            .admit(None, Some("late"), Duration::from_millis(20))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(shed, Shed::TimedOut);
        assert_eq!(gate.waiting(), 0, "abandoned ticket must be forgotten");
    }

    #[test]
    fn grants_round_robin_across_clients_fifo_within() {
        let gate = FairGate::new(1, 8);
        let held = gate.admit(None, Some("a"), PATIENT).unwrap();
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut handles = Vec::new();
        // Enqueue deterministically: a1, a2, then b1.
        for (client, tag) in [("a", "a1"), ("a", "a2"), ("b", "b1")] {
            let g = gate.clone();
            let order = Arc::clone(&order);
            let before = gate.waiting();
            handles.push(thread::spawn(move || {
                let permit = g.admit(None, Some(client), PATIENT).unwrap();
                order.lock().unwrap().push(tag);
                drop(permit);
            }));
            spin_until("enqueue", || gate.waiting() == before + 1);
        }
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        // Client a flooded first, but b's single request overtakes a's
        // backlog: round-robin across clients, FIFO within a client.
        assert_eq!(*order.lock().unwrap(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn grants_round_robin_across_tenants_before_clients() {
        let gate = FairGate::new(1, 8);
        let held = gate.admit(Some("t1"), Some("a"), PATIENT).unwrap();
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut handles = Vec::new();
        // Tenant t1 floods (two clients), then t2 arrives with one.
        for (tenant, client, tag) in [
            ("t1", "a", "t1a"),
            ("t1", "b", "t1b"),
            ("t1", "a", "t1a2"),
            ("t2", "c", "t2c"),
        ] {
            let g = gate.clone();
            let order = Arc::clone(&order);
            let before = gate.waiting();
            handles.push(thread::spawn(move || {
                let permit = g.admit(Some(tenant), Some(client), PATIENT).unwrap();
                order.lock().unwrap().push(tag);
                drop(permit);
            }));
            spin_until("enqueue", || gate.waiting() == before + 1);
        }
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        // t2's single request overtakes t1's backlog (tenant round-robin),
        // and within t1 clients alternate a, b, a (client round-robin).
        assert_eq!(*order.lock().unwrap(), vec!["t1a", "t2c", "t1b", "t1a2"]);
    }

    #[test]
    fn tenant_inflight_cap_leaves_slots_for_co_tenants() {
        // 2 global slots but each tenant may hold only 1.
        let gate = FairGate::with_tenant_caps(2, 8, 1, 8);
        let p1 = gate.admit(Some("hot"), None, PATIENT).unwrap();
        assert_eq!(gate.tenant_inflight("hot"), 1);
        // The hot tenant's second request must queue even though a global
        // slot is free...
        let g = gate.clone();
        let hot2 = thread::spawn(move || g.admit(Some("hot"), None, PATIENT).map(|_| ()));
        spin_until("hot2 to queue", || gate.waiting() == 1);
        assert_eq!(gate.inflight(), 1, "global slot must stay free");
        // ...while a co-tenant takes that slot immediately.
        let p2 = gate.admit(Some("calm"), None, PATIENT).unwrap();
        assert_eq!(gate.inflight(), 2);
        drop(p1);
        hot2.join().unwrap().unwrap();
        drop(p2);
        assert!(gate.wait_idle(PATIENT));
    }

    #[test]
    fn tenant_queue_cap_sheds_with_the_bulkhead_code() {
        // Global queue has room (depth 8) but each tenant may park only 1.
        let gate = FairGate::with_tenant_caps(1, 8, 1, 1);
        let _held = gate.admit(Some("hot"), None, PATIENT).unwrap();
        let g = gate.clone();
        let waiter = thread::spawn(move || g.admit(Some("hot"), None, PATIENT).map(|_| ()));
        spin_until("waiter to queue", || gate.tenant_waiting("hot") == 1);
        assert_eq!(
            gate.admit(Some("hot"), None, PATIENT).map(|_| ()),
            Err(Shed::TenantSaturated)
        );
        // A different tenant still queues fine.
        let g2 = gate.clone();
        let other = thread::spawn(move || g2.admit(Some("calm"), None, PATIENT).map(|_| ()));
        spin_until("other to queue", || gate.tenant_waiting("calm") == 1);
        drop(_held);
        waiter.join().unwrap().unwrap();
        other.join().unwrap().unwrap();
        assert!(gate.wait_idle(PATIENT));
    }

    #[test]
    fn drain_wakes_waiters_and_blocks_new_admissions() {
        let gate = FairGate::new(1, 4);
        let held = gate.admit(None, None, PATIENT).unwrap();
        let g = gate.clone();
        let waiter = thread::spawn(move || g.admit(None, Some("w"), PATIENT).map(|_| ()));
        spin_until("waiter to queue", || gate.waiting() == 1);
        gate.drain();
        assert_eq!(waiter.join().unwrap(), Err(Shed::Draining));
        assert_eq!(
            gate.admit(None, None, PATIENT).map(|_| ()),
            Err(Shed::Draining)
        );
        // In-flight work is unaffected and wait_idle observes its end.
        assert!(!gate.wait_idle(Duration::from_millis(10)));
        drop(held);
        assert!(gate.wait_idle(PATIENT));
    }

    #[test]
    fn dropping_a_permit_mid_panic_still_releases_the_slot() {
        let gate = FairGate::new(1, 1);
        let g = gate.clone();
        let _ = thread::spawn(move || {
            let _permit = g.admit(Some("t"), None, PATIENT).unwrap();
            panic!("request blew up");
        })
        .join();
        // The slot came back despite the panic — both levels of it.
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.tenant_inflight("t"), 0);
        let _p = gate.admit(Some("t"), None, PATIENT).unwrap();
    }
}
