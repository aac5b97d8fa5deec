//! The hash-consed **state store**: the one substrate every explicit-state
//! analysis shares.
//!
//! Before this layer existed, each solver call re-materialised its own
//! `HashSet<Instance>`-shaped dedup structures. The store centralises
//! that:
//!
//! * **Hash-consing** — each isomorphism class of instances is interned
//!   once, keyed by its canonical word encoding
//!   ([`Instance::canon_key`]), and receives a dense [`StateId`] (`u32`)
//!   that indexes flat side tables. The interned canonical words and the
//!   64-bit class fingerprint are kept per state, so dedup is a hash
//!   probe plus (within a fingerprint bucket) a word `memcmp` — 64-bit
//!   collisions are detected, never silently merged.
//! * **Symmetry reduction** — the store's [`SymmetryMode`] selects the
//!   quotient: [`SymmetryMode::Reduced`] (the default) interns by the
//!   canonical sorted encoding, collapsing all iso-value renamings of a
//!   state into one id; [`SymmetryMode::Plain`] interns by the
//!   order-preserving encoding ([`Instance::ordered_key`]), the ablation
//!   baseline that counts every sibling permutation separately. Verdicts
//!   are invariant between the two (formulas cannot observe sibling
//!   order); state counts are not — the `reproduce` harness measures the
//!   gap.
//! * **BFS provenance** — parent pointers and depths live in the store,
//!   so [`StateStore::run_to`] reconstructs a replayable update sequence
//!   for any state.
//!
//! The stored [`Instance`] per class is the *as-discovered*
//! representative, not the [`canonicalize`](Instance::canonicalize)d
//! form: parent-pointer updates reference node ids of the stored parent
//! instance, and replay (`GuardedForm::replay`) must see exactly those
//! ids. The canonical encoding (what makes the consing sound) is interned
//! alongside; callers needing the canonical *instance* can call
//! `canonicalize()` on the representative.
//!
//! Successor adjacency is kept out of the store proper and finalised into
//! a compact CSR table ([`SuccessorTable`]) once exploration ends — flat
//! `(offset, data)` arrays instead of a `Vec<Vec<_>>` of tiny
//! allocations.

use idar_core::{CanonKey, Instance, KeyScratch, Update};
use std::borrow::Cow;
use std::collections::HashMap;

/// Dense identifier of an interned state. Id 0 is always the initial
/// instance of the exploration that filled the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// This id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which quotient of the instance space the store (and the explorers on
/// top of it) deduplicate states by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// Quotient by iso-value renaming (canonical sorted encoding): one
    /// state per isomorphism class. Sound for every analysis in this
    /// workspace — formulas are invariant under sibling permutation — and
    /// the default.
    #[default]
    Reduced,
    /// No symmetry reduction: states are ordered labelled trees
    /// (order-preserving encoding). The ablation baseline; explores the
    /// same verdicts over a strictly larger state space.
    Plain,
}

impl SymmetryMode {
    /// Encode the dedup key of `inst` under this mode into `scratch`:
    /// returns the fingerprint; the words are `scratch.words()`.
    pub fn encode(self, inst: &Instance, scratch: &mut KeyScratch) -> u64 {
        match self {
            SymmetryMode::Reduced => inst.canon_key_into(scratch),
            SymmetryMode::Plain => inst.ordered_key_into(scratch),
        }
    }

    /// The owned dedup key of `inst` under this mode.
    pub fn key_of(self, inst: &Instance) -> CanonKey {
        match self {
            SymmetryMode::Reduced => inst.canon_key(),
            SymmetryMode::Plain => inst.ordered_key(),
        }
    }
}

impl std::fmt::Display for SymmetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetryMode::Reduced => write!(f, "reduced"),
            SymmetryMode::Plain => write!(f, "plain"),
        }
    }
}

/// One fingerprint bucket: ids of the (rarely > 1) distinct encodings
/// sharing a 64-bit fingerprint. The singleton case — in practice all
/// but a vanishing fraction of buckets — is stored inline: the dedup
/// probe compares the 64-bit fingerprint (the map key) first and only
/// touches interned words on a full match, and interning a fresh state
/// allocates nothing beyond the map slot.
#[derive(Debug, Clone)]
enum Bucket {
    One(StateId),
    Many(Vec<StateId>),
}

impl Bucket {
    #[inline]
    fn ids(&self) -> &[StateId] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: StateId) {
        match self {
            Bucket::One(a) => *self = Bucket::Many(vec![*a, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }
}

/// A hash-consed store of explored states (single-writer; the pooled
/// parallel engine interns concurrently into a [`ShardedStateStore`] and
/// finalizes into this type once the run ends). See the module docs.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    symmetry: SymmetryMode,
    buckets: HashMap<u64, Bucket>,
    /// Interned key words per state (canonical or ordered per `symmetry`).
    keys: Vec<Box<[u32]>>,
    /// The 64-bit key fingerprint per state. In `Reduced` mode this is
    /// the canonical class fingerprint ([`Instance::canonicalize`]).
    fingerprints: Vec<u64>,
    states: Vec<Instance>,
    parents: Vec<Option<(StateId, Update)>>,
    depths: Vec<u32>,
    collisions: u64,
}

impl StateStore {
    /// An empty store deduplicating under the given symmetry mode.
    pub fn new(symmetry: SymmetryMode) -> StateStore {
        StateStore {
            symmetry,
            ..StateStore::default()
        }
    }

    /// Assemble a store from already-interned per-state columns (the
    /// pooled parallel engine's finalization path). The caller guarantees
    /// the columns are parallel, deduplicated under `symmetry`, and in
    /// the dense-id order it wants; only the fingerprint index is rebuilt
    /// here (one hash insert per state — no re-encoding, no `memcmp`s).
    #[cfg(feature = "parallel")]
    pub(crate) fn from_parts(
        symmetry: SymmetryMode,
        keys: Vec<Box<[u32]>>,
        fingerprints: Vec<u64>,
        states: Vec<Instance>,
        parents: Vec<Option<(StateId, Update)>>,
        depths: Vec<u32>,
        collisions: u64,
    ) -> StateStore {
        let mut buckets: HashMap<u64, Bucket> = HashMap::with_capacity(fingerprints.len());
        for (i, &fp) in fingerprints.iter().enumerate() {
            match buckets.entry(fp) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().push(StateId(i as u32))
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(Bucket::One(StateId(i as u32)));
                }
            }
        }
        StateStore {
            symmetry,
            buckets,
            keys,
            fingerprints,
            states,
            parents,
            depths,
            collisions,
        }
    }

    /// The store's symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// The dedup key of an instance under this store's symmetry mode.
    pub fn key_of(&self, inst: &Instance) -> CanonKey {
        self.symmetry.key_of(inst)
    }

    /// Intern `inst`: return its dense id and whether it was new. On a
    /// new state, `parent` records the BFS tree edge that discovered it
    /// (`None` for the initial state) and the depth is derived from it.
    pub fn intern(&mut self, inst: Instance, parent: Option<(StateId, Update)>) -> (StateId, bool) {
        let key = self.key_of(&inst);
        self.intern_keyed(key, inst, parent)
    }

    /// [`StateStore::intern`] with the dedup key already computed.
    pub fn intern_keyed(
        &mut self,
        key: CanonKey,
        inst: Instance,
        parent: Option<(StateId, Update)>,
    ) -> (StateId, bool) {
        let (fingerprint, words) = key.into_parts();
        self.intern_cow(
            fingerprint,
            Cow::Owned(words.into_vec()),
            Cow::Owned(inst),
            parent,
        )
    }

    /// Intern by a borrowed key `(fingerprint, words)` — what
    /// [`SymmetryMode::encode`] leaves in a scratch buffer. The words are
    /// boxed and `inst` cloned only if the state is new; a duplicate
    /// costs one probe and allocates nothing.
    pub fn intern_ref(
        &mut self,
        fingerprint: u64,
        words: &[u32],
        inst: &Instance,
        parent: Option<(StateId, Update)>,
    ) -> (StateId, bool) {
        self.intern_cow(
            fingerprint,
            Cow::Borrowed(words),
            Cow::Borrowed(inst),
            parent,
        )
    }

    fn intern_cow(
        &mut self,
        fingerprint: u64,
        words: Cow<'_, [u32]>,
        inst: Cow<'_, Instance>,
        parent: Option<(StateId, Update)>,
    ) -> (StateId, bool) {
        let id = StateId(self.states.len() as u32);
        match self.buckets.entry(fingerprint) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for &cand in e.get().ids() {
                    if *self.keys[cand.index()] == *words {
                        return (cand, false);
                    }
                }
                self.collisions += 1;
                e.get_mut().push(id);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Bucket::One(id));
            }
        }
        let depth = match parent {
            Some((p, _)) => self.depths[p.index()] + 1,
            None => 0,
        };
        self.fingerprints.push(fingerprint);
        self.keys.push(words.into_owned().into_boxed_slice());
        self.states.push(inst.into_owned());
        self.parents.push(parent);
        self.depths.push(depth);
        (id, true)
    }

    /// Look up the state id of an instance without inserting. The
    /// intern/lookup fixpoint: after `intern(i, ..)`, `lookup(j)` returns
    /// the same id for every `j` the symmetry mode identifies with `i`.
    pub fn lookup(&self, inst: &Instance) -> Option<StateId> {
        let key = self.key_of(inst);
        self.buckets
            .get(&key.fingerprint())?
            .ids()
            .iter()
            .copied()
            .find(|id| *self.keys[id.index()] == *key.words())
    }

    /// The stored representative of state `id`.
    pub fn get(&self, id: StateId) -> &Instance {
        &self.states[id.index()]
    }

    /// The stored representatives, indexed by `StateId`.
    pub fn states(&self) -> &[Instance] {
        &self.states
    }

    /// The dedup-key fingerprint of state `id` (the canonical class
    /// fingerprint in `Reduced` mode).
    pub fn fingerprint(&self, id: StateId) -> u64 {
        self.fingerprints[id.index()]
    }

    /// The BFS tree edge that discovered `id` (`None` for the initial
    /// state).
    pub fn parent(&self, id: StateId) -> Option<(StateId, Update)> {
        self.parents[id.index()]
    }

    /// BFS depth of state `id` (steps from the initial instance).
    pub fn depth(&self, id: StateId) -> usize {
        self.depths[id.index()] as usize
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Detected 64-bit fingerprint collisions (distinct encodings sharing
    /// a fingerprint). Expected to stay 0 in practice.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Approximate resident bytes of the store: state instances, interned
    /// key words, the fingerprint index, and provenance columns. An
    /// estimate (allocator slack and hash-map control bytes are
    /// approximated), used for byte-denominated retention budgets.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<StateStore>();
        // Hash map: key + value + ~1 control byte per capacity slot
        // (capacity() underestimates the real table, but so does any
        // external count).
        total += self.buckets.capacity() * (size_of::<u64>() + size_of::<Bucket>() + 1);
        for b in self.buckets.values() {
            if let Bucket::Many(ids) = b {
                total += ids.capacity() * size_of::<StateId>();
            }
        }
        total += self.keys.capacity() * size_of::<Box<[u32]>>();
        total += self
            .keys
            .iter()
            .map(|k| k.len() * size_of::<u32>())
            .sum::<usize>();
        total += self.fingerprints.capacity() * size_of::<u64>();
        total += self
            .states
            .iter()
            .map(Instance::approx_bytes)
            .sum::<usize>();
        total += self.parents.capacity() * size_of::<Option<(StateId, Update)>>();
        total += self.depths.capacity() * size_of::<u32>();
        total
    }

    /// Reconstruct the update sequence from the initial state to `id`
    /// along the BFS tree (replayable via `GuardedForm::replay`).
    pub fn run_to(&self, id: StateId) -> Vec<Update> {
        let mut rev = Vec::new();
        let mut i = id;
        while let Some((p, u)) = self.parents[i.index()] {
            rev.push(u);
            i = p;
        }
        rev.reverse();
        rev
    }
}

/// Compact successor adjacency in CSR form: one flat data array plus one
/// offset array, replacing a `Vec<Vec<(Update, StateId)>>` of per-state
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct SuccessorTable {
    off: Vec<u32>,
    dat: Vec<(Update, StateId)>,
}

impl SuccessorTable {
    /// An empty table over `n` states (every state has no successors) —
    /// what goal searches that skip edge collection produce.
    pub fn empty(n: usize) -> SuccessorTable {
        SuccessorTable {
            off: vec![0; n + 1],
            dat: Vec::new(),
        }
    }

    /// Build the CSR arrays from unordered `(from, update, to)` triples
    /// (counting sort by source; within a source, triple order is kept).
    pub fn from_triples(n: usize, triples: &[(StateId, Update, StateId)]) -> SuccessorTable {
        let mut counts = vec![0u32; n + 1];
        for &(from, _, _) in triples {
            counts[from.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let off = counts.clone();
        let mut cursor = counts;
        let mut dat = vec![
            (
                Update::Del {
                    node: idar_core::InstNodeId::ROOT
                },
                StateId(0)
            );
            triples.len()
        ];
        for &(from, u, to) in triples {
            let slot = cursor[from.index()] as usize;
            dat[slot] = (u, to);
            cursor[from.index()] += 1;
        }
        SuccessorTable { off, dat }
    }

    /// Outgoing `(update, successor)` edges of state `i`.
    pub fn successors(&self, i: StateId) -> &[(Update, StateId)] {
        &self.dat[self.off[i.index()] as usize..self.off[i.index() + 1] as usize]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.dat.len()
    }

    /// Approximate resident bytes of the CSR arrays.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<SuccessorTable>()
            + self.off.capacity() * size_of::<u32>()
            + self.dat.capacity() * size_of::<(Update, StateId)>()
    }

    /// Number of states the table was built over.
    pub fn state_count(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Iterate over all `(from, update, to)` edges.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, Update, StateId)> + '_ {
        (0..self.state_count()).flat_map(move |i| {
            let from = StateId(i as u32);
            self.successors(from)
                .iter()
                .map(move |&(u, to)| (from, u, to))
        })
    }
}

#[cfg(feature = "parallel")]
pub use sharded::{PackedStateId, ShardedStateStore};

/// The concurrent intern substrate of the pooled parallel engine:
/// the fingerprint space is partitioned over mutex-protected shards that
/// *own* their states outright — a successor is deduplicated, stored,
/// and given provenance in one lock acquisition, with no second merge
/// pass (the double intern the layered engine used to pay).
#[cfg(feature = "parallel")]
mod sharded {
    use super::{StateId, StateStore, SymmetryMode};
    use idar_core::{CanonKey, Instance, Update};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// Number of fingerprint-owned shards. A power of two well above
    /// typical worker counts keeps lock contention negligible.
    const SHARDS: usize = 64;
    /// Bits of a [`PackedStateId`] holding the within-shard index.
    const LOCAL_BITS: u32 = 26;
    const LOCAL_MASK: u32 = (1 << LOCAL_BITS) - 1;

    /// A provisional state id handed out during a pooled exploration:
    /// the owning shard in the high bits, the within-shard index in the
    /// low bits. Dense [`StateId`]s are assigned at the layer barrier
    /// (root = 0, then assignment order); packed ids only bridge the gap
    /// between concurrent interning and that assignment.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct PackedStateId(u32);

    impl PackedStateId {
        fn new(shard: usize, local: usize) -> PackedStateId {
            assert!(
                local < (1 << LOCAL_BITS) as usize,
                "sharded store shard overflow ({local} states in one shard)"
            );
            PackedStateId(((shard as u32) << LOCAL_BITS) | local as u32)
        }

        /// The owning shard's index.
        #[inline]
        pub fn shard(self) -> usize {
            (self.0 >> LOCAL_BITS) as usize
        }

        /// The index within the owning shard.
        #[inline]
        pub fn local(self) -> usize {
            (self.0 & LOCAL_MASK) as usize
        }
    }

    /// One fingerprint bucket of a shard: within-shard indices of the
    /// (rarely > 1) distinct encodings sharing a fingerprint, singleton
    /// inline — same fingerprint-first probe layout as the sequential
    /// store's `Bucket`.
    #[derive(Debug)]
    enum LocalBucket {
        One(u32),
        Many(Vec<u32>),
    }

    impl LocalBucket {
        #[inline]
        fn ids(&self) -> &[u32] {
            match self {
                LocalBucket::One(id) => std::slice::from_ref(id),
                LocalBucket::Many(ids) => ids,
            }
        }

        fn push(&mut self, id: u32) {
            match self {
                LocalBucket::One(a) => *self = LocalBucket::Many(vec![*a, id]),
                LocalBucket::Many(ids) => ids.push(id),
            }
        }
    }

    /// One shard: a self-contained mini-store for the fingerprints it
    /// owns (dedup index + state columns + BFS provenance).
    #[derive(Debug, Default)]
    struct Shard {
        /// fingerprint → within-shard indices of the (rarely > 1)
        /// distinct encodings sharing it.
        buckets: HashMap<u64, LocalBucket>,
        keys: Vec<Box<[u32]>>,
        fingerprints: Vec<u64>,
        states: Vec<Arc<Instance>>,
        parents: Vec<Option<(StateId, Update)>>,
        depths: Vec<u32>,
        collisions: u64,
    }

    /// A [`StateStore`] sharded by key fingerprint for concurrent
    /// interning. Worker threads call [`ShardedStateStore::intern`]
    /// directly from the expansion loop; [`ShardedStateStore::into_store`]
    /// flattens the shards into a dense sequential store at finish time.
    ///
    /// The symmetry mode keys shard ownership: in
    /// [`SymmetryMode::Reduced`] the fingerprint (and therefore the
    /// owning shard) is that of the canonical sorted encoding, in
    /// [`SymmetryMode::Plain`] that of the ordered-tree encoding — so
    /// symmetry reduction and parallel exploration compose without any
    /// engine-side special-casing.
    #[derive(Debug)]
    pub struct ShardedStateStore {
        symmetry: SymmetryMode,
        shards: Box<[Mutex<Shard>]>,
    }

    impl ShardedStateStore {
        /// Number of shards (the valid range of [`PackedStateId::shard`]).
        pub const SHARD_COUNT: usize = SHARDS;

        /// An empty sharded store deduplicating under `symmetry`.
        pub fn new(symmetry: SymmetryMode) -> ShardedStateStore {
            ShardedStateStore {
                symmetry,
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            }
        }

        /// The store's symmetry mode.
        pub fn symmetry(&self) -> SymmetryMode {
            self.symmetry
        }

        /// The dedup key of an instance under this store's symmetry mode.
        pub fn key_of(&self, inst: &Instance) -> CanonKey {
            self.symmetry.key_of(inst)
        }

        #[inline]
        fn shard_of(&self, fingerprint: u64) -> usize {
            // High bits: the low fingerprint bits also pick hash-map
            // buckets inside the shard; disjoint bits keep the two
            // uncorrelated.
            (fingerprint >> 58) as usize % SHARDS
        }

        /// Intern a state by its borrowed dedup key `(fingerprint,
        /// words)`: returns its packed id and, iff this call created the
        /// state, a shared handle to the stored instance (what the
        /// discovering worker puts on the next frontier). Exactly one
        /// concurrent caller wins the discovery for each distinct class;
        /// losers get the winner's id and `None`. Only the winner boxes
        /// the words and clones `inst`.
        pub fn intern(
            &self,
            fp: u64,
            words: &[u32],
            inst: &Instance,
            parent: Option<(StateId, Update)>,
            depth: u32,
        ) -> (PackedStateId, Option<Arc<Instance>>) {
            let shard_ix = self.shard_of(fp);
            let mut shard = self.shards[shard_ix].lock().expect("store shard poisoned");
            let shard = &mut *shard;
            let local = shard.states.len();
            match shard.buckets.entry(fp) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for &cand in e.get().ids() {
                        if *shard.keys[cand as usize] == *words {
                            return (PackedStateId::new(shard_ix, cand as usize), None);
                        }
                    }
                    shard.collisions += 1;
                    e.get_mut().push(local as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(LocalBucket::One(local as u32));
                }
            }
            let id = PackedStateId::new(shard_ix, local);
            let arc = Arc::new(inst.clone());
            shard.fingerprints.push(fp);
            shard.keys.push(words.into());
            shard.states.push(arc.clone());
            shard.parents.push(parent);
            shard.depths.push(depth);
            (id, Some(arc))
        }

        /// Total states interned so far (locks every shard; diagnostics
        /// only — the engines track counts with an atomic instead).
        pub fn len(&self) -> usize {
            self.shards
                .iter()
                .map(|s| s.lock().expect("store shard poisoned").states.len())
                .sum()
        }

        /// Is the store empty?
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Flatten into a dense sequential [`StateStore`], assigning
        /// `StateId(g)` to the state `order[g]`. Packed ids absent from
        /// `order` are dropped (states interned past a state-count cap or
        /// after an early goal, mirroring the sequential truncation).
        /// Instances are unwrapped without cloning when the exploration
        /// has released its frontier handles.
        pub fn into_store(self, order: &[PackedStateId]) -> StateStore {
            let shards: Vec<Shard> = self
                .shards
                .into_vec()
                .into_iter()
                .map(|m| m.into_inner().expect("store shard poisoned"))
                .collect();
            let collisions = shards.iter().map(|s| s.collisions).sum();
            // Wrap the move-only columns so states can be extracted in
            // `order` without cloning.
            let mut col_states: Vec<Vec<Option<Arc<Instance>>>> = Vec::with_capacity(SHARDS);
            let mut col_keys: Vec<Vec<Option<Box<[u32]>>>> = Vec::with_capacity(SHARDS);
            let mut col_fps: Vec<Vec<u64>> = Vec::with_capacity(SHARDS);
            let mut col_parents: Vec<Vec<Option<(StateId, Update)>>> = Vec::with_capacity(SHARDS);
            let mut col_depths: Vec<Vec<u32>> = Vec::with_capacity(SHARDS);
            for s in shards {
                col_states.push(s.states.into_iter().map(Some).collect());
                col_keys.push(s.keys.into_iter().map(Some).collect());
                col_fps.push(s.fingerprints);
                col_parents.push(s.parents);
                col_depths.push(s.depths);
            }
            let n = order.len();
            let mut keys = Vec::with_capacity(n);
            let mut fingerprints = Vec::with_capacity(n);
            let mut states = Vec::with_capacity(n);
            let mut parents = Vec::with_capacity(n);
            let mut depths = Vec::with_capacity(n);
            for &p in order {
                let (s, l) = (p.shard(), p.local());
                keys.push(col_keys[s][l].take().expect("duplicate id in order"));
                fingerprints.push(col_fps[s][l]);
                let arc = col_states[s][l].take().expect("duplicate id in order");
                states.push(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()));
                parents.push(col_parents[s][l]);
                depths.push(col_depths[s][l]);
            }
            StateStore::from_parts(
                self.symmetry,
                keys,
                fingerprints,
                states,
                parents,
                depths,
                collisions,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{InstNodeId, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(b, c), s").unwrap())
    }

    #[test]
    fn intern_lookup_fixpoint() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let i1 = Instance::parse(s.clone(), "a(b, c), s").unwrap();
        let (id, new) = store.intern(i1.clone(), None);
        assert!(new);
        // Lookup of any isomorphic variant returns the same id…
        for t in ["a(b, c), s", "s, a(c, b)", "a(c, b), s"] {
            let j = Instance::parse(s.clone(), t).unwrap();
            assert_eq!(store.lookup(&j), Some(id), "{t}");
            // …and re-interning is not-new with the same id.
            assert_eq!(store.intern(j, None), (id, false), "{t}");
        }
        assert_eq!(store.len(), 1);
        // A non-isomorphic instance is absent.
        let other = Instance::parse(s, "a(b)").unwrap();
        assert_eq!(store.lookup(&other), None);
    }

    #[test]
    fn plain_mode_distinguishes_sibling_order() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Plain);
        let i1 = Instance::parse(s.clone(), "a(b, c), s").unwrap();
        let i2 = Instance::parse(s.clone(), "s, a(c, b)").unwrap();
        let (a, new_a) = store.intern(i1, None);
        let (b, new_b) = store.intern(i2, None);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        // Exact ordered repeat still dedups.
        let i3 = Instance::parse(s, "a(b, c), s").unwrap();
        assert_eq!(store.lookup(&i3), Some(a));
    }

    #[test]
    fn provenance_and_runs() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let i0 = Instance::empty(s.clone());
        let (root, _) = store.intern(i0.clone(), None);
        let mut i1 = i0.clone();
        let a_edge = s.resolve("a").unwrap();
        let an = i1.add_child(InstNodeId::ROOT, a_edge).unwrap();
        let u1 = Update::Add {
            parent: InstNodeId::ROOT,
            edge: a_edge,
        };
        let (one, _) = store.intern(i1.clone(), Some((root, u1)));
        let b_edge = s.resolve("a/b").unwrap();
        let mut i2 = i1.clone();
        i2.add_child(an, b_edge).unwrap();
        let u2 = Update::Add {
            parent: an,
            edge: b_edge,
        };
        let (two, _) = store.intern(i2, Some((one, u2)));
        assert_eq!(store.depth(root), 0);
        assert_eq!(store.depth(one), 1);
        assert_eq!(store.depth(two), 2);
        assert_eq!(store.run_to(two), vec![u1, u2]);
        assert_eq!(store.fingerprint(one), i1.canon_key().fingerprint());
    }

    /// Concurrent interning into the sharded store: every thread sees
    /// the same packed id per class, exactly one wins each discovery,
    /// and the flattened sequential store preserves states, provenance,
    /// and the intern/lookup fixpoint.
    #[cfg(feature = "parallel")]
    #[test]
    fn sharded_store_concurrent_intern_and_flatten() {
        let s = schema();
        let store = ShardedStateStore::new(SymmetryMode::Reduced);
        let texts = ["a", "a(b)", "a(b, c)", "s", "a(c), s", "a(b, c), s"];
        let insts: Vec<Instance> = texts
            .iter()
            .map(|t| Instance::parse(s.clone(), t).unwrap())
            .collect();
        let root = Instance::empty(s.clone());
        let key = store.key_of(&root);
        let (root_id, created) = store.intern(key.fingerprint(), key.words(), &root, None, 0);
        assert!(created.is_some());

        let results: Vec<(Vec<PackedStateId>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let insts = &insts;
                    let store = &store;
                    scope.spawn(move || {
                        let mut wins = 0;
                        let ids = insts
                            .iter()
                            .map(|i| {
                                let key = store.key_of(i);
                                let (id, new) = store.intern(
                                    key.fingerprint(),
                                    key.words(),
                                    i,
                                    Some((
                                        StateId(0),
                                        Update::Del {
                                            node: InstNodeId(1),
                                        },
                                    )),
                                    1,
                                );
                                wins += usize::from(new.is_some());
                                id
                            })
                            .collect();
                        (ids, wins)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread sees the same id for the same class…
        for (ids, _) in &results[1..] {
            assert_eq!(ids, &results[0].0);
        }
        // …and each discovery is won exactly once across the pool.
        let wins: usize = results.iter().map(|(_, w)| w).sum();
        assert_eq!(wins, texts.len());
        assert_eq!(store.len(), texts.len() + 1);

        // Flatten with the root first, then the texts in results order.
        let mut order = vec![root_id];
        order.extend(results[0].0.iter().copied());
        let flat = store.into_store(&order);
        assert_eq!(flat.len(), texts.len() + 1);
        assert_eq!(flat.depth(StateId(0)), 0);
        for (k, t) in texts.iter().enumerate() {
            let id = StateId(k as u32 + 1);
            let inst = Instance::parse(s.clone(), t).unwrap();
            assert!(flat.get(id).isomorphic(&inst), "{t}");
            assert_eq!(flat.lookup(&inst), Some(id), "{t}");
            assert_eq!(flat.depth(id), 1);
            assert_eq!(flat.parent(id).unwrap().0, StateId(0));
            assert_eq!(flat.fingerprint(id), inst.canon_key().fingerprint());
        }
        assert_eq!(flat.collisions(), 0);
    }

    /// Trimming: packed ids absent from the flatten order are dropped,
    /// mirroring the engines' state-cap / early-goal truncation.
    #[cfg(feature = "parallel")]
    #[test]
    fn sharded_store_flatten_trims_unordered_states() {
        let s = schema();
        let store = ShardedStateStore::new(SymmetryMode::Plain);
        let a = Instance::parse(s.clone(), "a(b, c), s").unwrap();
        let b = Instance::parse(s.clone(), "s, a(c, b)").unwrap();
        let (ka, kb) = (store.key_of(&a), store.key_of(&b));
        let (ia, na) = store.intern(ka.fingerprint(), ka.words(), &a, None, 0);
        let (_, nb) = store.intern(kb.fingerprint(), kb.words(), &b, None, 0);
        assert!(na.is_some() && nb.is_some(), "plain mode keeps both orders");
        let flat = store.into_store(&[ia]);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.lookup(&a), Some(StateId(0)));
        assert_eq!(flat.lookup(&b), None, "trimmed state is absent");
    }

    #[test]
    fn csr_from_triples() {
        let u = Update::Del {
            node: InstNodeId(1),
        };
        let triples = vec![
            (StateId(1), u, StateId(0)),
            (StateId(0), u, StateId(1)),
            (StateId(0), u, StateId(2)),
            (StateId(2), u, StateId(0)),
        ];
        let t = SuccessorTable::from_triples(3, &triples);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.successors(StateId(0)).len(), 2);
        assert_eq!(t.successors(StateId(1)), &[(u, StateId(0))]);
        assert_eq!(t.successors(StateId(2)), &[(u, StateId(0))]);
        assert_eq!(t.iter().count(), 4);
        let empty = SuccessorTable::empty(3);
        assert_eq!(empty.edge_count(), 0);
        assert_eq!(empty.successors(StateId(2)), &[]);
    }
}
