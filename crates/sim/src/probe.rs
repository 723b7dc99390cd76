//! The optional-observer handle: one shared recorder, or nothing.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A cheap, cloneable reference to a shared recorder `T`, or nothing.
///
/// Every observer (tracer, telemetry pipeline, profiler, flow ledger)
/// hides behind one. Clones of an enabled probe share one recorder, so
/// every instrumented component records into the same place. The
/// disabled probe (the [`Default`]) reduces [`Probe::with_mut`] to one
/// `Option` test: the closure, and whatever event it would build, never
/// runs, so instrumentation costs nothing on unobserved runs. The
/// simulation is single-threaded, hence `Rc<RefCell<…>>` and not a lock.
///
/// ```
/// use hostcc_sim::Probe;
///
/// let probe = Probe::new(Vec::new());
/// let clone = probe.clone();
/// clone.with_mut(|v| v.push(1));
/// assert_eq!(probe.with(|v| v.len()), Some(1));
///
/// let off = Probe::<Vec<u32>>::default();
/// assert_eq!(off.with_mut(|_| unreachable!()), None::<()>);
/// ```
pub struct Probe<T>(Option<Rc<RefCell<T>>>);

impl<T> Probe<T> {
    /// A probe owning `recorder`; clones share it.
    #[inline]
    pub fn new(recorder: T) -> Self {
        Probe(Some(Rc::new(RefCell::new(recorder))))
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` against the recorder, if any.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.0.as_ref().map(|r| f(&r.borrow()))
    }

    /// Run `f` against the recorder mutably, if any.
    #[inline]
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.0.as_ref().map(|r| f(&mut r.borrow_mut()))
    }
}

/// A recorder with one read-back: what [`Probe::report`] returns.
pub trait Snapshot {
    /// The read-back's type.
    type Report;

    /// Read the recorder back as it stands.
    fn snapshot(&self) -> Self::Report;
}

impl<T: Snapshot> Probe<T> {
    /// The recorder's read-back, if one is attached.
    #[inline]
    pub fn report(&self) -> Option<T::Report> {
        self.with(T::snapshot)
    }
}

impl<T> Clone for Probe<T> {
    #[inline]
    fn clone(&self) -> Self {
        Probe(self.0.clone())
    }
}

impl<T> Default for Probe<T> {
    #[inline]
    fn default() -> Self {
        Probe(None)
    }
}

/// Prints `enabled` or `disabled`, never the recorder (a trace ring can
/// hold a million records).
impl<T> fmt::Debug for Probe<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.is_enabled() {
            "enabled"
        } else {
            "disabled"
        };
        f.debug_tuple("Probe")
            .field(&format_args!("{state}"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder whose read-back is its event count.
    #[derive(Default)]
    struct Events(Vec<u64>);

    impl Snapshot for Events {
        type Report = usize;
        fn snapshot(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::<Events>::default();
        assert!(!p.is_enabled());
        let mut ran = false;
        p.with_mut(|e| {
            ran = true;
            e.0.push(1)
        });
        assert!(p.with(|_| ran = true).is_none());
        assert!(!ran, "closures must not run on a disabled probe");
        assert_eq!(p.report(), None);
        assert_eq!(format!("{p:?}"), "Probe(disabled)");
    }

    #[test]
    fn clones_share_one_recorder() {
        let p = Probe::new(Events::default());
        let q = p.clone();
        p.with_mut(|e| e.0.push(1));
        q.with_mut(|e| e.0.push(2));
        assert!(p.is_enabled() && q.is_enabled());
        assert_eq!(p.with(|e| e.0.clone()), Some(vec![1, 2]));
        assert_eq!(q.report(), Some(2));
        assert_eq!(format!("{q:?}"), "Probe(enabled)");
    }
}
