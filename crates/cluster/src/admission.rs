//! Load shedding for the serving layer.
//!
//! [`AdmissionGate`] is a bounded in-flight counter: each accepted query
//! holds an [`AdmissionPermit`] (RAII — dropping it releases the slot), and
//! a full gate rejects immediately instead of queueing. Rejecting at the
//! door keeps tail latency bounded under overload: the queries that *are*
//! admitted run at normal speed, and run to an exact answer, rather than
//! every query running slowly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A bounded admission counter for concurrent queries (see module docs).
/// Cloning shares the gate.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    limit: usize,
    in_flight: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent holders. A limit of 0
    /// means unbounded (the gate always admits).
    pub fn new(limit: usize) -> Self {
        AdmissionGate {
            inner: Arc::new(GateInner { limit, in_flight: AtomicUsize::new(0) }),
        }
    }

    /// Tries to take a slot. Returns the permit, or `Err` with the current
    /// in-flight count when the gate is full.
    pub fn try_acquire(&self) -> Result<AdmissionPermit, usize> {
        if self.inner.limit == 0 {
            return Ok(AdmissionPermit { gate: None });
        }
        let mut current = self.inner.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.inner.limit {
                return Err(current);
            }
            match self.inner.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(AdmissionPermit { gate: Some(self.inner.clone()) }),
                Err(seen) => current = seen,
            }
        }
    }

    /// The configured limit (0 = unbounded).
    pub fn limit(&self) -> usize {
        self.inner.limit
    }

    /// Queries currently holding permits.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire)
    }
}

/// An RAII admission slot; dropping it releases the slot.
#[derive(Debug)]
pub struct AdmissionPermit {
    /// `None` for the unbounded gate (nothing to release).
    gate: Option<Arc<GateInner>>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(gate) = &self.gate {
            gate.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_limit_then_rejects() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let _b = gate.try_acquire().expect("slot 2");
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire().is_err(), "third acquire must shed");
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let _c = gate.try_acquire().expect("slot freed by drop");
    }

    #[test]
    fn zero_limit_is_unbounded() {
        let gate = AdmissionGate::new(0);
        let permits: Vec<_> = (0..64).map(|_| gate.try_acquire().unwrap()).collect();
        assert_eq!(gate.in_flight(), 0, "unbounded gate does not count");
        drop(permits);
    }

    #[test]
    fn clones_share_the_counter() {
        let gate = AdmissionGate::new(1);
        let shared = gate.clone();
        let _p = gate.try_acquire().unwrap();
        assert!(shared.try_acquire().is_err());
    }

    #[test]
    fn gate_is_safe_under_contention() {
        let gate = AdmissionGate::new(8);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = gate.clone();
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0usize;
                for _ in 0..1000 {
                    if let Ok(p) = g.try_acquire() {
                        admitted += 1;
                        drop(p);
                    }
                }
                admitted
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(gate.in_flight(), 0, "every permit released");
    }
}
