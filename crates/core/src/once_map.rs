//! The stack's one single-flight primitive: a keyed once-cell.
//!
//! [`OnceMap`] answers "build this once per key, and let whoever asks
//! meanwhile wait for it". The apps' `EvalMemo` keeps prepared inputs and
//! baselines in one; the tuning service coalesces identical searches
//! through another.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One key's slot: set once, by whichever caller builds it.
pub type Cell<V> = Arc<OnceLock<V>>;

/// A map from keys to [`Cell`]s. One mutex guards the map, and it is held
/// only to find or insert a key's cell. The build runs under the cell: a
/// concurrent caller for the same key blocks until it is set, and a build
/// may ask the map for other keys. A build that panics leaves its cell
/// empty. A caller already blocked on that cell then runs its own build,
/// and so does the next caller for the key.
#[derive(Debug)]
pub struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Cell<V>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            cells: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V> OnceMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The key-to-cell map. Cells are inserted and removed whole, so the
    /// map is valid at every step and a poisoned lock is safe to recover.
    fn cells(&self) -> MutexGuard<'_, HashMap<K, Cell<V>>> {
        self.cells.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `key`'s cell, set: by an earlier or concurrent caller, or by running
    /// `build` here. `built` is true exactly when this call's `build` ran.
    /// The key is borrowed, so a hit allocates nothing.
    pub fn get_or_init<Q>(&self, key: &Q, build: impl FnOnce() -> V) -> (Cell<V>, bool)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let cell = {
            let mut map = self.cells();
            match map.get(key) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(map.entry(key.to_owned()).or_default()),
            }
        };
        let mut built = false;
        cell.get_or_init(|| {
            built = true;
            build()
        });
        (cell, built)
    }

    /// Remove `key` while it still names `cell`, so that the next caller
    /// builds anew. A newer cell for the key is left alone.
    pub fn forget<Q>(&self, key: &Q, cell: &Cell<V>)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut map = self.cells();
        if map.get(key).is_some_and(|held| Arc::ptr_eq(held, cell)) {
            map.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// How long a test waits for something that must happen before it
    /// calls the map stuck; a regression fails here instead of hanging.
    const STUCK: Duration = Duration::from_secs(20);

    #[test]
    fn eight_threads_asking_for_one_new_key_build_it_once() {
        const THREADS: usize = 8;
        let map: OnceMap<String, usize> = OnceMap::new();
        let start = Barrier::new(THREADS);
        for round in 0..50 {
            let key = format!("round {round}");
            let builds = AtomicUsize::new(0);
            let ask = || {
                start.wait();
                map.get_or_init(key.as_str(), || {
                    builds.fetch_add(1, Ordering::SeqCst) + round
                })
            };
            let got: Vec<(Cell<usize>, bool)> = std::thread::scope(|s| {
                let others: Vec<_> = (1..THREADS).map(|_| s.spawn(ask)).collect();
                let mine = ask();
                others
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .chain([mine])
                    .collect()
            });
            assert_eq!(builds.load(Ordering::SeqCst), 1, "round {round}");
            assert_eq!(got.iter().filter(|(_, built)| *built).count(), 1);
            assert!(got.iter().all(|(cell, _)| Arc::ptr_eq(cell, &got[0].0)));
            assert_eq!(got[0].0.get(), Some(&round));
        }
    }

    #[test]
    fn a_waiter_on_a_build_that_panics_builds_in_its_place() {
        let map: OnceMap<u32, &str> = OnceMap::new();
        let (leader_is_building, leader_began) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let map = &map;
            let leader = s.spawn(move || {
                map.get_or_init(&7u32, || {
                    leader_is_building.send(()).unwrap();
                    // Fail only once the waiter has had its chance to
                    // block on this cell.
                    let _ = released.recv_timeout(STUCK);
                    panic!("injected build fault")
                })
            });
            leader_began.recv_timeout(STUCK).expect("the leader builds");
            let waiter = s.spawn(move || map.get_or_init(&7u32, || "waiter's"));
            // Let the waiter block on the cell. Should it come later, it
            // finds the cell empty and builds all the same: the pause picks
            // the path this test takes, not the outcome it checks.
            std::thread::sleep(Duration::from_millis(50));
            release.send(()).unwrap();
            assert!(leader.join().is_err(), "the leader's build panicked");
            let (cell, built) = waiter.join().expect("the waiter is not wedged");
            assert!(built, "the waiter built in the leader's place");
            assert_eq!(cell.get(), Some(&"waiter's"));
        });
        // The map the panic unwound through still answers.
        let (again, built) = map.get_or_init(&7u32, || "never");
        assert!(!built);
        assert_eq!(again.get(), Some(&"waiter's"));
    }

    #[test]
    fn forget_leaves_a_newer_cell_for_the_key_alone() {
        let map: OnceMap<Vec<u64>, u32> = OnceMap::new();
        let key = [1u64, 2];
        let (old, built) = map.get_or_init(&key[..], || 1);
        assert!(built);
        map.forget(&key[..], &old);
        let (new, built) = map.get_or_init(&key[..], || 2);
        assert!(built, "a forgotten key builds anew");
        // A late forget of the old cell must not drop the newer one.
        map.forget(&key[..], &old);
        let (held, built) = map.get_or_init(&key[..], || 3);
        assert!(!built);
        assert!(Arc::ptr_eq(&held, &new));
        assert_eq!(held.get(), Some(&2));
        map.forget(&key[..], &new);
        assert!(map.get_or_init(&key[..], || 4).1);
    }
}
