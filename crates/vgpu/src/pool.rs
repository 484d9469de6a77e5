//! Per-thread device-buffer pooling, scoped to a [`lease`].
//!
//! A coloring allocates the same handful of buffer shapes every
//! iteration (contraction outputs, proposal mirrors, frontier scratch —
//! all sized by the graph). A colorer that takes a [`lease`] for its run
//! therefore gets a thread-local free list: while the lease lives,
//! dropping a [`crate::DeviceBuffer`] shelves its cell storage keyed by
//! `(element type, length)`, and the next same-shaped allocation reuses
//! it (re-initialized, so `zeroed` still means zeroed). When the lease
//! drops, everything shelved is freed.
//!
//! The lease is the only pooling scope. Nothing is shelved across runs:
//! the shelves are keyed by exact length with no bound on the number of
//! lengths, so a thread-lifetime pool would keep one buffer per graph
//! size it ever saw. Threads outside a lease allocate and drop exactly
//! as without this module.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shelved storage per `(element type, length)` shape.
type Shelf = HashMap<(TypeId, usize), Vec<Box<dyn Any>>>;

/// Retained allocations per shape; beyond this, drops free normally.
const MAX_PER_SHAPE: usize = 8;

thread_local! {
    static POOL: RefCell<Option<Shelf>> = const { RefCell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// The calling thread's share of [`HITS`], so a test can assert on
    /// its own traffic while sibling tests pool on other threads.
    static THREAD_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// Fleet-wide counters (all threads) so callers can observe pooling
// without reaching into worker threads.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);

/// Cumulative pooling counters across all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a shelf.
    pub hits: u64,
    /// Allocations that went to the allocator while pooling was enabled.
    pub misses: u64,
    /// Buffer storages shelved at drop.
    pub returns: u64,
}

/// Snapshot of the global pooling counters. Counters only move while
/// some thread holds a [`lease`], and only ever increase.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
    }
}

/// Turns pooling on for the calling thread (idempotent).
fn enable_for_thread() {
    POOL.with(|p| {
        let mut guard = p.borrow_mut();
        if guard.is_none() {
            *guard = Some(HashMap::new());
        }
    });
}

/// Turns pooling off for the calling thread and frees everything
/// shelved on it.
fn disable_for_thread() {
    POOL.with(|p| *p.borrow_mut() = None);
}

/// Whether the calling thread currently pools buffers.
fn enabled_for_thread() -> bool {
    POOL.with(|p| p.borrow().is_some())
}

/// Scoped pooling: enables the calling thread's pool for the lease's
/// lifetime and restores the prior state on drop.
///
/// This is how a colorer opts its per-iteration scratch (contraction
/// outputs, proposal mirrors, captured-pipeline temporaries) into reuse
/// without changing behavior for the rest of the thread: the pool (and
/// its shelved storage) dies with the outermost lease, and a nested
/// lease is a no-op that leaves the outer one's pool running.
#[must_use = "the lease enables pooling only while it is alive"]
#[derive(Debug)]
pub struct PoolLease {
    was_enabled: bool,
}

/// Acquires a scoped pooling lease for the calling thread. See
/// [`PoolLease`].
pub fn lease() -> PoolLease {
    let was_enabled = enabled_for_thread();
    enable_for_thread();
    PoolLease { was_enabled }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        if !self.was_enabled {
            disable_for_thread();
        }
    }
}

/// Claims shelved storage of the exact shape, if pooling is enabled and
/// a shelf has one. The caller must re-initialize the cells.
pub(crate) fn claim<A: Any>(len: usize) -> Option<Box<[A]>> {
    if len == 0 {
        return None;
    }
    POOL.with(|p| {
        let mut guard = p.borrow_mut();
        let shelf = guard.as_mut()?;
        match shelf.get_mut(&(TypeId::of::<A>(), len)).and_then(Vec::pop) {
            Some(stored) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                #[cfg(test)]
                THREAD_HITS.with(|h| h.set(h.get() + 1));
                Some(*stored.downcast::<Box<[A]>>().expect("shelf shape key"))
            }
            None => {
                MISSES.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    })
}

/// Shelves dropped storage for reuse. No-op (storage just frees) when
/// pooling is off, the buffer is empty, or the shape's shelf is full.
pub(crate) fn offer<A: Any>(cells: Box<[A]>) {
    if cells.is_empty() {
        return;
    }
    POOL.with(|p| {
        let mut guard = p.borrow_mut();
        let Some(shelf) = guard.as_mut() else { return };
        let entry = shelf.entry((TypeId::of::<A>(), cells.len())).or_default();
        if entry.len() < MAX_PER_SHAPE {
            entry.push(Box::new(cells));
            RETURNS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;

    /// Pool state is thread-local, so isolate each test on its own
    /// thread (the test harness reuses threads between tests).
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn disabled_pool_never_counts() {
        on_fresh_thread(|| {
            assert!(!enabled_for_thread());
            let before = stats();
            drop(DeviceBuffer::<u32>::zeroed(64));
            let _ = DeviceBuffer::<u32>::zeroed(64);
            let after = stats();
            // Other test threads may pool concurrently; this thread's
            // traffic must not be attributable — checked via enablement,
            // and the returns counter not being forced upward here.
            assert!(!enabled_for_thread());
            assert!(after.hits >= before.hits);
        });
    }

    #[test]
    fn same_shape_allocation_reuses_storage() {
        on_fresh_thread(|| {
            enable_for_thread();
            let before = stats();
            let a = DeviceBuffer::<u32>::filled(128, 7);
            drop(a);
            let b = DeviceBuffer::<u32>::zeroed(128);
            let after = stats();
            assert!(after.returns > before.returns, "drop shelves storage");
            assert!(after.hits > before.hits, "realloc claims the shelf");
            // Reuse must not leak the old contents.
            assert_eq!(b.to_vec(), vec![0u32; 128]);
            disable_for_thread();
        });
    }

    /// This thread's hits only: the global counters also move with
    /// the sibling tests running on other threads.
    fn thread_stats() -> PoolStats {
        PoolStats {
            hits: THREAD_HITS.with(|h| h.get()),
            ..PoolStats::default()
        }
    }

    #[test]
    fn different_shapes_do_not_cross() {
        on_fresh_thread(|| {
            enable_for_thread();
            drop(DeviceBuffer::<u32>::zeroed(100));
            let before = thread_stats();
            // Same length, different element type: no hit.
            let _ = DeviceBuffer::<i64>::zeroed(100);
            // Same type, different length: no hit.
            let _ = DeviceBuffer::<u32>::zeroed(101);
            let after = thread_stats();
            assert_eq!(after.hits, before.hits);
            disable_for_thread();
        });
    }

    #[test]
    fn lease_enables_then_restores() {
        on_fresh_thread(|| {
            assert!(!enabled_for_thread());
            {
                let _lease = lease();
                assert!(enabled_for_thread());
                drop(DeviceBuffer::<u32>::zeroed(32));
                let before = stats();
                let _b = DeviceBuffer::<u32>::zeroed(32);
                assert!(stats().hits > before.hits, "lease recycles storage");
            }
            assert!(!enabled_for_thread(), "lease restores the off state");
        });
    }

    #[test]
    fn nested_lease_keeps_outer_pool_alive() {
        on_fresh_thread(|| {
            enable_for_thread();
            {
                let _lease = lease();
                assert!(enabled_for_thread());
            }
            assert!(
                enabled_for_thread(),
                "inner lease must not tear down a pre-enabled pool"
            );
            disable_for_thread();
        });
    }

    #[test]
    fn from_slice_reuses_and_copies() {
        on_fresh_thread(|| {
            enable_for_thread();
            drop(DeviceBuffer::<u32>::filled(4, 9));
            let before = stats();
            let b = DeviceBuffer::from_slice(&[1u32, 2, 3, 4]);
            assert!(stats().hits > before.hits);
            assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
            disable_for_thread();
        });
    }
}
