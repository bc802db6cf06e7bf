//! The atomic versioned weight store serving engines hot-swap from.
//!
//! Publishing a generation appends to an immutable `Arc`'d table and
//! swaps the table pointer under a short lock; readers clone the `Arc`
//! and never block each other. Versions are never mutated or removed
//! once published, which is what lets a session **pin** the generation
//! it started with for its whole episode: mid-episode publishes change
//! only which version *new* sessions get, never the weights behind an
//! existing pin. Snapshots carry the pinned version, so a restored
//! session replays bit-identically against the same store contents.

use crate::container::fnv1a;
use icoil_il::IlModel;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One published, immutable weight generation.
#[derive(Debug)]
pub struct WeightGeneration {
    /// Generation number (0 = the model the store was created with).
    pub version: u32,
    /// Demonstration frames behind this generation (0 for the seed).
    pub examples: u64,
    /// FNV-1a fingerprint of the serialized weights — cheap identity
    /// check across processes without shipping the model.
    pub checksum: u64,
    /// The weights themselves.
    pub model: IlModel,
}

/// The generation table. Clone the `Arc` freely; all clones see the
/// same published versions.
#[derive(Debug)]
pub struct WeightStore {
    table: Mutex<Arc<Vec<Arc<WeightGeneration>>>>,
    published: AtomicU32,
}

impl WeightStore {
    /// Creates a store whose generation 0 is `model`.
    pub fn new(model: IlModel) -> Self {
        let gen0 = Arc::new(WeightGeneration {
            version: 0,
            examples: 0,
            checksum: fingerprint(&model),
            model,
        });
        WeightStore {
            table: Mutex::new(Arc::new(vec![gen0])),
            published: AtomicU32::new(0),
        }
    }

    /// Publishes a new generation; returns its version number.
    ///
    /// New sessions created after this call pin the returned version;
    /// sessions already running keep their pinned generation.
    pub fn publish(&self, model: IlModel, examples: u64) -> u32 {
        let mut table = self.table.lock().expect("weight table poisoned");
        let version = table.len() as u32;
        let generation = Arc::new(WeightGeneration {
            version,
            examples,
            checksum: fingerprint(&model),
            model,
        });
        let mut next: Vec<Arc<WeightGeneration>> = table.as_ref().clone();
        next.push(generation);
        *table = Arc::new(next);
        // release-order the version bump behind the table swap so a
        // reader that observes the new `published` can always `get` it
        self.published.store(version, Ordering::Release);
        version
    }

    /// The most recently published version number.
    pub fn published(&self) -> u32 {
        self.published.load(Ordering::Acquire)
    }

    /// Fetches a published generation; `None` for an unknown version.
    pub fn get(&self, version: u32) -> Option<Arc<WeightGeneration>> {
        let table = self.table.lock().expect("weight table poisoned");
        table.get(version as usize).cloned()
    }

    /// The most recently published generation.
    pub fn latest(&self) -> Arc<WeightGeneration> {
        self.get(self.published())
            .expect("published version exists")
    }

    /// Number of published generations (≥ 1).
    pub fn generation_count(&self) -> usize {
        self.table.lock().expect("weight table poisoned").len()
    }
}

/// FNV-1a over the canonical JSON serialization of the weights —
/// exposed so artifacts and stores agree on a generation's identity.
pub fn fingerprint(model: &IlModel) -> u64 {
    fnv1a(model.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_perception::BevConfig;
    use icoil_vehicle::ActionCodec;

    fn model(seed: u64) -> IlModel {
        let bev = BevConfig {
            size: 8,
            range: 8.0,
        };
        IlModel::untrained(ActionCodec::default(), bev, seed)
    }

    #[test]
    fn publish_bumps_version_and_pins_survive() {
        let store = WeightStore::new(model(1));
        assert_eq!(store.published(), 0);
        assert_eq!(store.generation_count(), 1);
        let pinned = store.get(0).unwrap();
        let v1 = store.publish(model(2), 100);
        assert_eq!(v1, 1);
        assert_eq!(store.published(), 1);
        // the pinned generation is untouched by the publish
        assert_eq!(pinned.checksum, store.get(0).unwrap().checksum);
        assert_ne!(
            store.get(0).unwrap().checksum,
            store.get(1).unwrap().checksum
        );
        assert_eq!(store.latest().version, 1);
        assert_eq!(store.latest().examples, 100);
    }

    #[test]
    fn unknown_versions_are_none() {
        let store = WeightStore::new(model(1));
        assert!(store.get(7).is_none());
    }

    #[test]
    fn concurrent_readers_see_consistent_tables() {
        let store = Arc::new(WeightStore::new(model(1)));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let v = s.publish(model(t * 1000 + i), i);
                    // everything at or below our publish must resolve
                    for ver in 0..=v {
                        assert!(s.get(ver).is_some());
                    }
                    assert!(s.published() >= v || s.get(s.published()).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.generation_count(), 1 + 4 * 50);
    }
}
