package vfs

import "strings"

// Journal support: a Journal attached with SetJournal receives one
// Mutation per successful state change — namespace edits, data writes,
// truncates, metadata changes — in a single total order. The durable
// store uses this to keep a write-ahead log whose replay reconstructs
// the file system exactly; nothing in the VFS itself depends on a
// journal being present.
//
// Ordering contract: while a journal is attached, every mutating
// operation holds its path's journal-shard lock for its whole critical
// section (mutation plus record emission). Shards are keyed by the
// path's first component (ShardOf), so mutations inside one top-level
// subtree are serialized against each other — the journal sees them in
// exactly the order they took effect — while mutations in different
// subtrees proceed in parallel and are ordered only by the journal's
// own LSN allocation. Cross-subtree operations (rename, link) take
// both shard locks in increasing index order. With SetJournal (one
// shard) this degenerates to the original single total order. The
// critical section contains no disk I/O: the durable store's
// RecordMutation only assigns an LSN and encodes the record into its
// commit queue; the group committer writes and fsyncs batches on its
// own goroutine, and durability waiters park on the store's Barrier
// outside the shard locks. Read paths stay untouched, and the journal
// costs nothing when none is attached (the common case: kernels and
// servers running without a durable state dir).
//
// Lock order: journal shard locks (in increasing shard index) are
// acquired before treeMu and before any inode lock, and RecordMutation
// is invoked while those inner locks may still be held, so
// implementations must not call back into the FS.

// MutOp identifies one journaled mutation kind. The values are stable:
// they are written into durable logs and must not be renumbered.
type MutOp uint8

const (
	MutMkdir    MutOp = 1  // Path, Mode, Owner
	MutCreate   MutOp = 2  // Path, Mode, Owner (truncates an existing file)
	MutWrite    MutOp = 3  // Path, Off, Data
	MutTruncate MutOp = 4  // Path, Size
	MutUnlink   MutOp = 5  // Path
	MutRmdir    MutOp = 6  // Path
	MutSymlink  MutOp = 7  // Path (link), Path2 (target), Owner
	MutLink     MutOp = 8  // Path (old), Path2 (new)
	MutRename   MutOp = 9  // Path (old), Path2 (new)
	MutChmod    MutOp = 10 // Path, Mode
	MutChown    MutOp = 11 // Path, Owner, Group
)

func (op MutOp) String() string {
	switch op {
	case MutMkdir:
		return "mkdir"
	case MutCreate:
		return "create"
	case MutWrite:
		return "write"
	case MutTruncate:
		return "truncate"
	case MutUnlink:
		return "unlink"
	case MutRmdir:
		return "rmdir"
	case MutSymlink:
		return "symlink"
	case MutLink:
		return "link"
	case MutRename:
		return "rename"
	case MutChmod:
		return "chmod"
	case MutChown:
		return "chown"
	default:
		return "unknown"
	}
}

// Mutation describes one successful state change. Only the fields
// relevant to Op are populated (see the MutOp constants). Data aliases
// the caller's buffer and is only valid for the duration of the
// RecordMutation call: a journal that retains it must copy.
type Mutation struct {
	Op    MutOp
	Path  string
	Path2 string
	Mode  uint32
	Owner string
	Group string
	Off   int64
	Size  int64
	Data  []byte

	// Trace is the request-tracing ID of the call that caused the
	// mutation, or zero when untraced. It is observability metadata,
	// not file-system state: durable logs do not persist it, and replay
	// ignores it. Journals may use it to attribute commit latency to
	// the originating request (see internal/durable's group commit).
	Trace uint64
}

// Journal receives every successful mutation, in commit order per
// journal shard. RecordMutation is called with the mutation's shard
// lock held (and possibly inner FS locks); it must not call back into
// the FS and should return quickly. Errors are the journal's own
// affair: the VFS has already committed the mutation in memory by the
// time the record is emitted, so a journal that cannot persist it
// should surface that through its own health reporting (sticky errors,
// metrics), not by failing the file operation.
type Journal interface {
	RecordMutation(m Mutation)
}

// SetJournal attaches (or, with nil, detaches) the journal with a
// single shard: every mutation is serialized into one total order, the
// pre-sharding behavior. It must be called before the file system is
// shared between goroutines — in practice, right after New or Load,
// before any server starts — so the unsynchronized journal field read
// in beginJournal is race-free.
func (fs *FS) SetJournal(j Journal) { fs.SetJournalSharded(j, 1) }

// SetJournalSharded attaches the journal with shards independent
// serialization locks keyed by top-level subtree (ShardOf). Mutations
// in different subtrees reach the journal concurrently; the journal is
// responsible for any global ordering it needs (the durable store
// allocates LSNs from one atomic counter). Same sharing caveat as
// SetJournal.
func (fs *FS) SetJournalSharded(j Journal, shards int) {
	if j == nil {
		fs.journal = nil
		fs.journalShards = nil
		return
	}
	if shards < 1 {
		shards = 1
	}
	if len(fs.journalShards) != shards {
		fs.journalShards = make([]journalShard, shards)
	}
	fs.journal = j
}

// JournalShards reports how many journal shard locks are attached (0
// without a journal).
func (fs *FS) JournalShards() int { return len(fs.journalShards) }

// Quiesce runs fn while every journal shard lock is held (acquired in
// increasing index order), so no journaled mutation can begin or
// commit during fn. The durable store uses this to cut snapshots at an
// exact log position: inside fn the tree and every file are stable
// with respect to journaled writers (readers proceed freely). fn must
// not perform journaled mutations.
func (fs *FS) Quiesce(fn func() error) error {
	for i := range fs.journalShards {
		fs.journalShards[i].mu.Lock()
	}
	defer func() {
		for i := len(fs.journalShards) - 1; i >= 0; i-- {
			fs.journalShards[i].mu.Unlock()
		}
	}()
	return fn()
}

// beginJournal enters the mutation critical section for path: a no-op
// without a journal (returning -1), otherwise it acquires path's shard
// lock and returns the shard index for endJournal. Mutators call it
// first thing: defer fs.endJournal(fs.beginJournal(path)).
func (fs *FS) beginJournal(path string) int {
	if fs.journal == nil {
		return -1
	}
	i := ShardOf(path, len(fs.journalShards))
	fs.journalShards[i].mu.Lock()
	return i
}

func (fs *FS) endJournal(i int) {
	if i >= 0 {
		fs.journalShards[i].mu.Unlock()
	}
}

// beginJournal2 enters the mutation critical section for an operation
// touching two paths (rename, link), acquiring both shard locks in
// increasing index order — the deadlock-free canonical order. The
// second return is -1 when the paths share a shard (or no journal is
// attached).
func (fs *FS) beginJournal2(path, path2 string) (int, int) {
	if fs.journal == nil {
		return -1, -1
	}
	n := len(fs.journalShards)
	a, b := ShardOf(path, n), ShardOf(path2, n)
	if a == b {
		fs.journalShards[a].mu.Lock()
		return a, -1
	}
	if a > b {
		a, b = b, a
	}
	fs.journalShards[a].mu.Lock()
	fs.journalShards[b].mu.Lock()
	return a, b
}

func (fs *FS) endJournal2(a, b int) {
	if b >= 0 {
		fs.journalShards[b].mu.Unlock()
	}
	if a >= 0 {
		fs.journalShards[a].mu.Unlock()
	}
}

// record emits a mutation to the journal, if one is attached. Callers
// hold the mutation's shard lock(s) (via beginJournal/beginJournal2)
// and emit only after the mutation has succeeded.
func (fs *FS) record(m Mutation) {
	if fs.journal != nil {
		fs.journal.RecordMutation(m)
	}
}

// ShardOf maps a path to one of n journal shards by rendezvous-hashing
// its first component, so a whole top-level subtree always lands on
// one shard and the mapping stays maximally stable as n changes (only
// ~1/n of subtrees move per shard added or removed). The root itself
// and paths that clean to "/" map to shard 0. Exported so the durable
// store routes WAL records with the same function that picks the lock.
func ShardOf(path string, n int) int {
	if n <= 1 {
		return 0
	}
	return ShardOfKey(firstComponent(path), n)
}

// ShardOfKey rendezvous-hashes an arbitrary key (no path semantics)
// onto one of n shards. The durable store uses it to spread dedupe
// entries, which are keyed by principal+token, not by path.
func ShardOfKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	// FNV-1a over the key, then a splitmix64-style mix per shard:
	// highest score wins (highest-random-weight hashing).
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	best, bestScore := 0, mix64(h^0x9E3779B97F4A7C15)
	for i := 1; i < n; i++ {
		if s := mix64(h ^ (uint64(i+1) * 0x9E3779B97F4A7C15)); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// firstComponent returns the first component of the cleaned path ("" for
// the root), so the shard always matches the subtree the mutation
// actually lands in. It allocates only for a path that is not already
// canonical.
func firstComponent(path string) string {
	c := Clean(path)[1:]
	if i := strings.IndexByte(c, '/'); i >= 0 {
		return c[:i]
	}
	return c
}
