// Package vfs implements an in-memory POSIX-like file system: the
// storage substrate beneath the simulated kernel and beneath every Chirp
// server in this repository.
//
// The file system supports regular files, directories, symbolic links
// and hard links, Unix permission bits with string owners, rename,
// truncate and deterministic (sorted) directory listing. It is safe for
// concurrent use and built to scale with cores: a read-mostly namespace
// lock covers path resolution and the directory tree, while file
// contents and mutable metadata are guarded per inode, so independent
// requests — a read of one file, a write of another, a stat of a third —
// proceed in parallel. See DESIGN.md §6 for the locking hierarchy.
//
// Access control is intentionally split: the VFS enforces nothing by
// itself. Unix-permission checks and ACL checks are made by the callers
// (the kernel for ordinary processes; the identity-box supervisor for
// boxed processes), mirroring how Parrot sits above the real kernel.
package vfs

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FileType distinguishes the kinds of inode.
type FileType int

const (
	TypeRegular FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "unknown"
	}
}

// Mode bits follow the Unix convention (owner/group/other rwx).
const (
	ModeOwnerRead  = 0o400
	ModeOwnerWrite = 0o200
	ModeOwnerExec  = 0o100
	ModeGroupRead  = 0o040
	ModeGroupWrite = 0o020
	ModeGroupExec  = 0o010
	ModeOtherRead  = 0o004
	ModeOtherWrite = 0o002
	ModeOtherExec  = 0o001
)

// Sentinel errors, in the spirit of errno.
var (
	ErrNotExist    = errors.New("no such file or directory")
	ErrExist       = errors.New("file exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrInvalid     = errors.New("invalid argument")
	ErrLoop        = errors.New("too many levels of symbolic links")
	ErrPermission  = errors.New("permission denied")
	ErrCrossDevice = errors.New("invalid cross-device link")
)

// PathError annotates an error with the operation and path, matching the
// style of os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap supports errors.Is against the sentinel errors.
func (e *PathError) Unwrap() error { return e.Err }

// MaxSymlinkHops is the most symbolic links one path resolution
// follows; the next one fails with ErrLoop. Every layer that chases
// links itself before an access check (the Chirp server's and the
// identity box's ACL resolvers) uses this same budget, so a check can
// never stop short of the object the file system will finally reach.
const MaxSymlinkHops = 40

// inoCounter is the global inode-number source, shared across file
// systems so handles are never confused between instances.
var inoCounter atomic.Uint64

func nextIno() uint64 { return inoCounter.Add(1) }

// Inode is one file-system object.
//
// Field ownership (the locking hierarchy is FS.treeMu before Inode.mu;
// at most one inode lock is ever held at a time):
//
//   - ino, ftype, target: immutable after creation, read lock-free;
//   - children, nlink: namespace state, guarded by FS.treeMu;
//   - mode, owner, group, data: guarded by this inode's mu;
//   - mtime: updated and read atomically (writers may hold either lock).
//
// Callers outside this package must treat inodes as opaque except
// through FS methods and the Stat result.
type Inode struct {
	ino    uint64   // immutable
	ftype  FileType // immutable
	target string   // symlink target; immutable

	mu    sync.RWMutex // guards mode, owner, group, data
	mode  uint32
	owner string
	group string
	data  []byte

	nlink    int               // guarded by FS.treeMu
	children map[string]*Inode // guarded by FS.treeMu

	mtime atomic.Int64 // virtual timestamp, monotonic event counter
}

// Stat is the metadata snapshot returned by stat-family calls.
type Stat struct {
	Ino   uint64
	Type  FileType
	Mode  uint32
	Owner string
	Group string
	Nlink int
	Size  int64
	Mtime int64
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Type == TypeDir }

// DirEntry is one directory-listing element.
type DirEntry struct {
	Name string
	Type FileType
}

// FS is an in-memory file system rooted at "/". Create one with New.
//
// Locking: treeMu is the read-mostly namespace lock, taken shared for
// path resolution and directory listing and exclusively only by
// operations that change the tree shape (create, unlink, mkdir, rmdir,
// link, symlink, rename). Per-file I/O resolves the path under the
// shared lock and then operates under the target inode's own lock, so
// data operations on distinct files run fully in parallel.
type FS struct {
	treeMu sync.RWMutex
	root   *Inode
	clock  atomic.Int64 // monotonic event counter used for mtimes

	// journalShards holds the per-subtree serialization locks for
	// journaled mutations (one entry with SetJournal, N with
	// SetJournalSharded); each mutation takes its path's shard lock so
	// the journal sees one commit order per shard. Untouched (and
	// uncontended) when journal is nil. journal is set once via
	// SetJournal/SetJournalSharded before concurrent use.
	// Lock order: journal shard locks (increasing index) before treeMu
	// before any inode mu.
	journalShards []journalShard
	journal       Journal
}

// journalShard is one journal serialization lock, padded so adjacent
// shards' locks do not false-share a cache line under contention.
type journalShard struct {
	mu sync.Mutex
	_  [56]byte
}

// New returns an empty file system whose root directory is owned by
// owner with mode 0755.
func New(owner string) *FS {
	fs := &FS{}
	fs.root = &Inode{
		ino:      nextIno(),
		ftype:    TypeDir,
		mode:     0o755,
		owner:    owner,
		nlink:    2,
		children: make(map[string]*Inode),
	}
	return fs
}

func (fs *FS) tick() int64 { return fs.clock.Add(1) }

// Canonical paths. A path is canonical when it is "/" or "/" followed
// by one or more non-empty components separated by single slashes,
// none of them "." or "..", with no trailing slash. Clean maps every
// path to its canonical form lexically: empty and "." components
// vanish, ".." removes the component before it (and is dropped at the
// root), and relative paths are taken against "/". Clean returns a
// canonical argument unchanged after one scan, so the common case —
// paths that were cleaned once at the edge and then passed down the
// stack — costs no allocation; anything else costs exactly one (at
// most two for paths longer than cleanStackBytes). Dir and Base return
// substrings of the canonical form, and resolve walks it in place.

// isCanonical reports whether path is already in the form Clean
// returns.
func isCanonical(path string) bool {
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	if len(path) == 1 {
		return true
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		switch i - start {
		case 0:
			return false // empty component: "//" or a trailing slash
		case 1:
			if path[start] == '.' {
				return false
			}
		case 2:
			if path[start] == '.' && path[start+1] == '.' {
				return false
			}
		}
		start = i + 1
	}
	return true
}

// cleanStackBytes bounds the scratch buffer Clean keeps on the stack.
const cleanStackBytes = 256

// Clean returns the canonical absolute form of path.
func Clean(path string) string {
	if isCanonical(path) {
		return path
	}
	// The result is at most one byte longer than path (a leading "/").
	var stack [cleanStackBytes]byte
	var buf []byte
	if len(path)+1 <= len(stack) {
		buf = stack[:len(path)+1]
	} else {
		buf = make([]byte, len(path)+1)
	}
	buf[0] = '/'
	w := 1
	for r := 0; r < len(path); {
		if path[r] == '/' {
			r++
			continue
		}
		e := r + 1
		for e < len(path) && path[e] != '/' {
			e++
		}
		switch comp := path[r:e]; comp {
		case ".":
		case "..":
			if w > 1 {
				w--
				for buf[w-1] != '/' {
					w--
				}
				if w > 1 {
					w-- // drop the separator, not the root slash
				}
			}
		default:
			if w > 1 {
				buf[w] = '/'
				w++
			}
			w += copy(buf[w:], comp)
		}
		r = e
	}
	return string(buf[:w])
}

// Join joins path elements with slashes and cleans the result. Joining
// a canonical directory and a plain name costs one allocation.
func Join(elem ...string) string {
	if len(elem) > 1 && elem[0] == "/" {
		// "/" + "/" + name would not be canonical; skip the separator.
		return Clean("/" + strings.Join(elem[1:], "/"))
	}
	return Clean(strings.Join(elem, "/"))
}

// Dir returns the parent directory of path ("/" for the root).
func Dir(path string) string {
	c := Clean(path)
	i := strings.LastIndexByte(c, '/')
	if i == 0 {
		return "/"
	}
	return c[:i]
}

// Base returns the final component of path ("/" for the root).
func Base(path string) string {
	c := Clean(path)
	if c == "/" {
		return "/"
	}
	return c[strings.LastIndexByte(c, '/')+1:]
}

// resolve walks the path and returns the target inode. When followLast
// is false a trailing symlink is returned rather than followed.
// It also returns the parent directory inode and the final component
// name (empty for the root). Callers hold fs.treeMu (shared or
// exclusive).
func (fs *FS) resolve(path string, followLast bool) (node, parent *Inode, base string, err error) {
	node, parent, at, err := fs.walk(path, followLast)
	if parent != nil {
		base = at[strings.LastIndexByte(at, '/')+1:]
	}
	return node, parent, base, err
}

// walk is resolve reporting, instead of the final name, the canonical
// path it reached: the path with every symlink it followed spliced in,
// which names the object itself. It is set whenever parent is (and for
// the root), including a missing final component.
//
// The walk runs over the canonical form one component at a time. A
// symlink met along the way is spliced in by substring — its target
// (taken against the link's directory when relative) followed by the
// rest of the path — and the walk restarts from the root on the cleaned
// result, so ".." in a target is lexical, exactly as in the path
// itself. At most MaxSymlinkHops links are followed; one more fails
// with ErrLoop.
func (fs *FS) walk(path string, followLast bool) (node, parent *Inode, at string, err error) {
	p := Clean(path)
	hops := 0
restart:
	for {
		cur := fs.root
		var par *Inode
		for start := 1; start < len(p); {
			end := len(p)
			if i := strings.IndexByte(p[start:], '/'); i >= 0 {
				end = start + i
			}
			last := end == len(p)
			if cur.ftype != TypeDir {
				return nil, nil, "", ErrNotDir
			}
			child, ok := cur.children[p[start:end]]
			if !ok {
				if last {
					// Parent exists; target missing. Report the parent so
					// create-style operations can proceed.
					return nil, cur, p, ErrNotExist
				}
				return nil, nil, "", ErrNotExist
			}
			if child.ftype == TypeSymlink && (!last || followLast) {
				if hops++; hops > MaxSymlinkHops {
					return nil, nil, "", ErrLoop
				}
				targ := child.target
				if !strings.HasPrefix(targ, "/") {
					// Relative symlink: resolve against the link's directory.
					targ = p[:start] + targ
				}
				p = Clean(targ + p[end:])
				continue restart
			}
			par, cur = cur, child
			if last {
				return cur, par, p, nil
			}
			start = end + 1
		}
		return fs.root, nil, p, nil
	}
}

// Realpath returns the canonical path of the object path names, with
// every symlink along the way followed — intermediate ones included —
// exactly as the file system itself resolves it. A missing final
// component is kept, so a dangling link or the target of a create
// yields where the object would be. Access checks use it to judge the
// object a later operation will reach rather than the name it was
// reached by.
func (fs *FS) Realpath(path string) (string, error) {
	fs.treeMu.RLock()
	_, parent, at, err := fs.walk(path, true)
	fs.treeMu.RUnlock()
	if err != nil && !(errors.Is(err, ErrNotExist) && parent != nil) {
		return "", &PathError{"realpath", path, err}
	}
	return at, nil
}

// resolveShared resolves path to an existing inode under the shared
// namespace lock, releasing it before returning. The caller then
// operates on the inode under its own lock; an inode unlinked in the
// window behaves like an open descriptor to a removed file, exactly as
// in Unix.
func (fs *FS) resolveShared(path string, followLast bool) (*Inode, error) {
	fs.treeMu.RLock()
	n, _, _, err := fs.resolve(path, followLast)
	fs.treeMu.RUnlock()
	return n, err
}

// lookupDir resolves path to an existing directory. Callers hold
// fs.treeMu.
func (fs *FS) lookupDir(op, path string) (*Inode, error) {
	n, _, _, err := fs.resolve(path, true)
	if err != nil {
		return nil, &PathError{op, path, err}
	}
	if n.ftype != TypeDir {
		return nil, &PathError{op, path, ErrNotDir}
	}
	return n, nil
}

// Mkdir creates a directory. The parent must exist.
func (fs *FS) Mkdir(path string, mode uint32, owner string) error {
	return fs.mkdir(path, mode, owner, 0)
}

func (fs *FS) mkdir(path string, mode uint32, owner string, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	n, parent, base, err := fs.resolve(path, true)
	if err == nil {
		_ = n
		return &PathError{"mkdir", path, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"mkdir", path, err}
	}
	child := &Inode{
		ino:      nextIno(),
		ftype:    TypeDir,
		mode:     mode,
		owner:    owner,
		nlink:    2,
		children: make(map[string]*Inode),
	}
	child.mtime.Store(fs.tick())
	parent.children[base] = child
	parent.nlink++
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutMkdir, Path: path, Mode: mode, Owner: owner, Trace: trace})
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string, mode uint32, owner string) error {
	c := Clean(path)
	for i := 2; i <= len(c); i++ {
		if i < len(c) && c[i] != '/' {
			continue
		}
		err := fs.Mkdir(c[:i], mode, owner)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Create makes (or truncates) a regular file and returns its stat.
func (fs *FS) Create(path string, mode uint32, owner string) (Stat, error) {
	return fs.create(path, mode, owner, 0)
}

func (fs *FS) create(path string, mode uint32, owner string, trace uint64) (Stat, error) {
	defer fs.endJournal(fs.beginJournal(path))
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	n, parent, base, err := fs.resolve(path, true)
	switch {
	case err == nil:
		if n.ftype == TypeDir {
			return Stat{}, &PathError{"create", path, ErrIsDir}
		}
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
		n.mtime.Store(fs.tick())
		fs.record(Mutation{Op: MutCreate, Path: path, Mode: mode, Owner: owner, Trace: trace})
		return fs.statOf(n, n.nlink), nil
	case errors.Is(err, ErrNotExist) && parent != nil:
		child := &Inode{
			ino:   nextIno(),
			ftype: TypeRegular,
			mode:  mode,
			owner: owner,
			nlink: 1,
		}
		child.mtime.Store(fs.tick())
		parent.children[base] = child
		parent.mtime.Store(fs.tick())
		fs.record(Mutation{Op: MutCreate, Path: path, Mode: mode, Owner: owner, Trace: trace})
		return fs.statOf(child, child.nlink), nil
	default:
		return Stat{}, &PathError{"create", path, err}
	}
}

// statOf snapshots an inode's metadata. nlink is namespace state, so the
// caller supplies the value it read under fs.treeMu (handles, which hold
// no namespace lock, pass a best-effort value read the same way).
func (fs *FS) statOf(n *Inode, nlink int) Stat {
	n.mu.RLock()
	size := int64(len(n.data))
	st := Stat{
		Ino:   n.ino,
		Type:  n.ftype,
		Mode:  n.mode,
		Owner: n.owner,
		Group: n.group,
		Nlink: nlink,
		Size:  size,
		Mtime: n.mtime.Load(),
	}
	n.mu.RUnlock()
	if n.ftype == TypeSymlink {
		st.Size = int64(len(n.target))
	}
	return st
}

// Stat follows symlinks and reports metadata for path.
func (fs *FS) Stat(path string) (Stat, error) {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	n, _, _, err := fs.resolve(path, true)
	if err != nil {
		return Stat{}, &PathError{"stat", path, err}
	}
	return fs.statOf(n, n.nlink), nil
}

// Lstat reports metadata for path without following a final symlink.
func (fs *FS) Lstat(path string) (Stat, error) {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	n, _, _, err := fs.resolve(path, false)
	if err != nil {
		return Stat{}, &PathError{"lstat", path, err}
	}
	return fs.statOf(n, n.nlink), nil
}

// Exists reports whether path resolves to an object.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// ReadDir lists a directory in sorted order.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	dir, err := fs.lookupDir("readdir", path)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(dir.children))
	for name, child := range dir.children {
		out = append(out, DirEntry{Name: name, Type: child.ftype})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadAt copies file data starting at off into p and reports the number
// of bytes copied. Reading at or past EOF returns 0, nil (the kernel
// layers EOF semantics above this).
func (fs *FS) ReadAt(path string, p []byte, off int64) (int, error) {
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return 0, &PathError{"read", path, err}
	}
	if n.ftype == TypeDir {
		return 0, &PathError{"read", path, ErrIsDir}
	}
	if off < 0 {
		return 0, &PathError{"read", path, ErrInvalid}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}

// WriteAt writes p into the file at off, extending it (zero-filled) as
// needed, and reports the number of bytes written.
func (fs *FS) WriteAt(path string, p []byte, off int64) (int, error) {
	return fs.writeAt(path, p, off, 0)
}

func (fs *FS) writeAt(path string, p []byte, off int64, trace uint64) (int, error) {
	defer fs.endJournal(fs.beginJournal(path))
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return 0, &PathError{"write", path, err}
	}
	if n.ftype == TypeDir {
		return 0, &PathError{"write", path, ErrIsDir}
	}
	if off < 0 {
		return 0, &PathError{"write", path, ErrInvalid}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:end], p)
	n.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutWrite, Path: path, Off: off, Data: p, Trace: trace})
	return len(p), nil
}

// Truncate sets the file's length, extending with zeros if needed.
func (fs *FS) Truncate(path string, size int64) error {
	return fs.truncate(path, size, 0)
}

func (fs *FS) truncate(path string, size int64, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return &PathError{"truncate", path, err}
	}
	if n.ftype == TypeDir {
		return &PathError{"truncate", path, ErrIsDir}
	}
	if size < 0 {
		return &PathError{"truncate", path, ErrInvalid}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case size <= int64(len(n.data)):
		n.data = n.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutTruncate, Path: path, Size: size, Trace: trace})
	return nil
}

// Unlink removes a file or symlink (not a directory).
func (fs *FS) Unlink(path string) error {
	return fs.unlink(path, 0)
}

func (fs *FS) unlink(path string, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	n, parent, base, err := fs.resolve(path, false)
	if err != nil {
		return &PathError{"unlink", path, err}
	}
	if n.ftype == TypeDir {
		return &PathError{"unlink", path, ErrIsDir}
	}
	delete(parent.children, base)
	n.nlink--
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutUnlink, Path: path, Trace: trace})
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	return fs.rmdir(path, 0)
}

func (fs *FS) rmdir(path string, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	n, parent, base, err := fs.resolve(path, false)
	if err != nil {
		return &PathError{"rmdir", path, err}
	}
	if n.ftype != TypeDir {
		return &PathError{"rmdir", path, ErrNotDir}
	}
	if n == fs.root {
		return &PathError{"rmdir", path, ErrInvalid}
	}
	if len(n.children) > 0 {
		return &PathError{"rmdir", path, ErrNotEmpty}
	}
	delete(parent.children, base)
	parent.nlink--
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutRmdir, Path: path, Trace: trace})
	return nil
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (fs *FS) Symlink(target, linkPath string, owner string) error {
	return fs.symlink(target, linkPath, owner, 0)
}

func (fs *FS) symlink(target, linkPath string, owner string, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(linkPath))
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	_, parent, base, err := fs.resolve(linkPath, false)
	if err == nil {
		return &PathError{"symlink", linkPath, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"symlink", linkPath, err}
	}
	child := &Inode{
		ino:    nextIno(),
		ftype:  TypeSymlink,
		mode:   0o777,
		owner:  owner,
		nlink:  1,
		target: target,
	}
	child.mtime.Store(fs.tick())
	parent.children[base] = child
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutSymlink, Path: linkPath, Path2: target, Owner: owner, Trace: trace})
	return nil
}

// Readlink reports the target of a symlink.
func (fs *FS) Readlink(path string) (string, error) {
	n, err := fs.resolveShared(path, false)
	if err != nil {
		return "", &PathError{"readlink", path, err}
	}
	if n.ftype != TypeSymlink {
		return "", &PathError{"readlink", path, ErrInvalid}
	}
	return n.target, nil
}

// Link creates a hard link newPath referring to the same inode as
// oldPath. Directories cannot be hard-linked.
func (fs *FS) Link(oldPath, newPath string) error {
	return fs.link(oldPath, newPath, 0)
}

func (fs *FS) link(oldPath, newPath string, trace uint64) error {
	ja, jb := fs.beginJournal2(oldPath, newPath)
	defer fs.endJournal2(ja, jb)
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	src, _, _, err := fs.resolve(oldPath, true)
	if err != nil {
		return &PathError{"link", oldPath, err}
	}
	if src.ftype == TypeDir {
		return &PathError{"link", oldPath, ErrIsDir}
	}
	_, parent, base, err := fs.resolve(newPath, false)
	if err == nil {
		return &PathError{"link", newPath, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"link", newPath, err}
	}
	parent.children[base] = src
	src.nlink++
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutLink, Path: oldPath, Path2: newPath, Trace: trace})
	return nil
}

// Rename atomically moves oldPath to newPath, replacing a non-directory
// target if one exists.
func (fs *FS) Rename(oldPath, newPath string) error {
	return fs.rename(oldPath, newPath, 0)
}

func (fs *FS) rename(oldPath, newPath string, trace uint64) error {
	ja, jb := fs.beginJournal2(oldPath, newPath)
	defer fs.endJournal2(ja, jb)
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	src, srcParent, srcBase, err := fs.resolve(oldPath, false)
	if err != nil {
		return &PathError{"rename", oldPath, err}
	}
	if src == fs.root {
		return &PathError{"rename", oldPath, ErrInvalid}
	}
	dst, dstParent, dstBase, err := fs.resolve(newPath, false)
	switch {
	case err == nil:
		if dst == src {
			return nil
		}
		if dst.ftype == TypeDir {
			if src.ftype != TypeDir {
				return &PathError{"rename", newPath, ErrIsDir}
			}
			if len(dst.children) > 0 {
				return &PathError{"rename", newPath, ErrNotEmpty}
			}
		} else if src.ftype == TypeDir {
			return &PathError{"rename", newPath, ErrNotDir}
		}
	case errors.Is(err, ErrNotExist) && dstParent != nil:
		// Target absent; fine.
	default:
		return &PathError{"rename", newPath, err}
	}
	// Refuse to move a directory into its own subtree.
	if src.ftype == TypeDir && fs.isAncestor(src, dstParent) {
		return &PathError{"rename", newPath, ErrInvalid}
	}
	delete(srcParent.children, srcBase)
	if dst != nil && dst != src {
		dst.nlink--
		if dst.ftype == TypeDir {
			dstParent.nlink--
		}
	}
	dstParent.children[dstBase] = src
	if src.ftype == TypeDir && srcParent != dstParent {
		srcParent.nlink--
		dstParent.nlink++
	}
	srcParent.mtime.Store(fs.tick())
	dstParent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutRename, Path: oldPath, Path2: newPath, Trace: trace})
	return nil
}

// isAncestor reports whether n lies in maybeAncestor's subtree. Callers
// hold fs.treeMu.
func (fs *FS) isAncestor(maybeAncestor, n *Inode) bool {
	if n == nil {
		return false
	}
	if maybeAncestor == n {
		return true
	}
	for _, child := range maybeAncestor.children {
		if child.ftype == TypeDir && fs.isAncestor(child, n) {
			return true
		}
	}
	return false
}

// Chmod sets the permission bits.
func (fs *FS) Chmod(path string, mode uint32) error {
	return fs.chmod(path, mode, 0)
}

func (fs *FS) chmod(path string, mode uint32, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return &PathError{"chmod", path, err}
	}
	n.mu.Lock()
	n.mode = mode & 0o7777
	n.mu.Unlock()
	n.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutChmod, Path: path, Mode: mode, Trace: trace})
	return nil
}

// Chown sets the owner (and optionally group) of path.
func (fs *FS) Chown(path, owner, group string) error {
	return fs.chown(path, owner, group, 0)
}

func (fs *FS) chown(path, owner, group string, trace uint64) error {
	defer fs.endJournal(fs.beginJournal(path))
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return &PathError{"chown", path, err}
	}
	n.mu.Lock()
	n.owner = owner
	if group != "" {
		n.group = group
	}
	n.mu.Unlock()
	n.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutChown, Path: path, Owner: owner, Group: group, Trace: trace})
	return nil
}

// WriteFile creates (or replaces) a file with the given contents.
func (fs *FS) WriteFile(path string, data []byte, mode uint32, owner string) error {
	return fs.writeFile(path, data, mode, owner, 0)
}

func (fs *FS) writeFile(path string, data []byte, mode uint32, owner string, trace uint64) error {
	if _, err := fs.create(path, mode, owner, trace); err != nil {
		return err
	}
	if err := fs.truncate(path, 0, trace); err != nil {
		return err
	}
	_, err := fs.writeAt(path, data, 0, trace)
	return err
}

// ReadFile returns the full contents of a file.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	n, err := fs.resolveShared(path, true)
	if err != nil {
		return nil, &PathError{"read", path, err}
	}
	if n.ftype == TypeDir {
		return nil, &PathError{"read", path, ErrIsDir}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]byte(nil), n.data...), nil
}

// Size reports the length of a file in bytes.
func (fs *FS) Size(path string) (int64, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size, nil
}

// TotalInodes walks the tree and reports the number of distinct inodes,
// a useful invariant for tests.
func (fs *FS) TotalInodes() int {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	seen := map[*Inode]bool{}
	var walk func(n *Inode)
	walk = func(n *Inode) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
	return len(seen)
}

// PathComponents reports the number of components the path resolves
// through; the kernel uses it to charge per-component lookup cost.
func PathComponents(path string) int {
	c := Clean(path)
	if c == "/" {
		return 0
	}
	return strings.Count(c, "/")
}
