package core

import (
	"errors"
	"strings"

	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/parrot"
	"identitybox/internal/trap"
	"identitybox/internal/vfs"
)

// access classes map system calls onto ACL rights.
type access int

const (
	accessRead  access = iota // read a file in the directory
	accessWrite               // create, modify or delete a file
	accessList                // list or stat directory contents
	accessExec                // execute a program in the directory
	accessAdmin               // modify the directory's ACL
)

func (a access) right() acl.Rights {
	switch a {
	case accessRead:
		return acl.Read
	case accessWrite:
		return acl.Write
	case accessList:
		return acl.List
	case accessExec:
		return acl.Execute
	case accessAdmin:
		return acl.Admin
	default:
		return acl.None
	}
}

// unix permission bit demanded of "nobody" in the fallback check.
func (a access) unixBit() uint32 {
	switch a {
	case accessRead, accessList:
		return 4
	case accessWrite, accessAdmin:
		return 2
	case accessExec:
		return 1
	default:
		return 0
	}
}

// rewritePath applies the /etc/passwd redirection: inside the box, the
// account database appears to contain the visiting identity.
func (b *Box) rewritePath(path string) string {
	if path == b.opts.PasswdPath {
		return b.shadowPasswd
	}
	return path
}

// driverFor resolves the mount table.
func (b *Box) driverFor(path string) (parrot.Driver, string, error) {
	d, rel := b.mounts.Resolve(path)
	if d == nil {
		return nil, "", &vfs.PathError{Op: "mount", Path: path, Err: vfs.ErrNotExist}
	}
	return d, rel, nil
}

// resolveFinal chases symlinks so that ACL checks apply to the target's
// directory, not the link's — Garfinkel's "overlooking indirect paths"
// pitfall. Dangling links resolve to their (missing) target path. It
// follows at most vfs.MaxSymlinkHops links, the budget the file system
// resolves with, and fails closed with ELOOP when the path is still a
// link after that, so the check can never stop short of the object the
// access would reach.
func (b *Box) resolveFinal(p *kernel.Proc, path string) (string, error) {
	cur := path
	for hops := 0; ; hops++ {
		target, mount, ok := b.readLink(p, cur)
		if !ok {
			return cur, nil
		}
		if hops >= vfs.MaxSymlinkHops {
			return "", &vfs.PathError{Op: "box", Path: path, Err: vfs.ErrLoop}
		}
		switch {
		case strings.HasPrefix(target, "/"):
			cur = vfs.Clean(mount + target)
		case climbs(target):
			// The file system takes ".." from the directory the link
			// really lives in, which is not the one it was named through
			// when that path crosses another link.
			dir, err := b.physicalDir(p, vfs.Dir(cur), &hops)
			if err != nil {
				return "", &vfs.PathError{Op: "box", Path: path, Err: err}
			}
			cur = vfs.Join(dir, target)
		default:
			cur = vfs.Join(vfs.Dir(cur), target)
		}
	}
}

// readLink reports the target of cur when it is a symlink, and the
// outer path of its mount's root, against which an absolute target is
// rebuilt.
func (b *Box) readLink(p *kernel.Proc, cur string) (target, mount string, ok bool) {
	d, rel, err := b.driverFor(cur)
	if err != nil {
		return "", "", false
	}
	st, err := d.Lstat(p, rel)
	if err != nil || st.Type != vfs.TypeSymlink {
		return "", "", false
	}
	target, err = d.Readlink(p, rel)
	if err != nil {
		return "", "", false
	}
	return target, cur[:len(cur)-len(rel)], true
}

// physicalDir resolves every symlink in the directory path dir, as the
// file system would, spending from the caller's hop budget. Each link
// is spliced in and the scan restarts, so every prefix before the one
// examined is link-free and a relative target's ".." is taken from the
// right directory.
func (b *Box) physicalDir(p *kernel.Proc, dir string, hops *int) (string, error) {
	dir = vfs.Clean(dir)
	for i := 2; i <= len(dir); i++ {
		if i < len(dir) && dir[i] != '/' {
			continue
		}
		target, mount, ok := b.readLink(p, dir[:i])
		if !ok {
			continue
		}
		if *hops >= vfs.MaxSymlinkHops {
			return "", vfs.ErrLoop
		}
		*hops++
		if strings.HasPrefix(target, "/") {
			target = mount + target
		} else {
			target = vfs.Dir(dir[:i]) + "/" + target
		}
		dir = vfs.Clean(target + dir[i:])
		i = 1 // rescan the spliced path from its first component
	}
	return dir, nil
}

// climbs reports whether a relative symlink target has a ".."
// component.
func climbs(target string) bool {
	for _, c := range strings.Split(target, "/") {
		if c == ".." {
			return true
		}
	}
	return false
}

// loadACL fetches and parses the ACL protecting dir, using the cache
// when enabled. A missing ACL file yields (nil, nil): the caller falls
// back to nobody semantics.
//
// The cache hit path takes only a shared lock, so any number of
// concurrent checkers (boxed processes, Chirp exec boxes) resolve
// cached decisions without serializing; misses fill the cache under
// the write lock. Cached decisions are parsed once and shared — ACL
// values are immutable after Parse.
func (b *Box) loadACL(p *kernel.Proc, dir string) (*acl.ACL, error) {
	if b.opts.EnableACLCache {
		b.aclMu.RLock()
		a, ok := b.aclCache[dir]
		b.aclMu.RUnlock()
		if ok {
			return a, nil
		}
	}
	d, rel, err := b.driverFor(dir)
	if err != nil {
		return nil, err
	}
	data, err := d.ReadFileSmall(p, vfs.Join(rel, acl.FileName))
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			if b.opts.EnableACLCache {
				b.aclMu.Lock()
				b.aclCache[dir] = nil
				b.aclMu.Unlock()
			}
			return nil, nil
		}
		return nil, err
	}
	a, err := acl.Parse(string(data))
	if err != nil {
		// A malformed ACL is treated as granting nothing: fail closed.
		return &acl.ACL{}, nil
	}
	if b.opts.EnableACLCache {
		b.aclMu.Lock()
		b.aclCache[dir] = a
		b.aclMu.Unlock()
	}
	return a, nil
}

// invalidateACL drops a cached ACL after the box writes one.
func (b *Box) invalidateACL(dir string) {
	if !b.opts.EnableACLCache {
		return
	}
	b.aclMu.Lock()
	_, cached := b.aclCache[dir]
	delete(b.aclCache, dir)
	b.aclMu.Unlock()
	if cached {
		b.statCacheInval.Add(1)
		b.metrics.cacheInval.Inc()
	}
}

// invalidateACLPrefix drops cached ACLs for dir and every directory
// below it, returning how many entries went. Rename uses it so moving
// a subtree evicts exactly that subtree's cached decisions.
func (b *Box) invalidateACLPrefix(dir string) int {
	if !b.opts.EnableACLCache {
		return 0
	}
	clean := vfs.Clean(dir)
	prefix := clean + "/"
	if clean == "/" {
		prefix = "/"
	}
	b.aclMu.Lock()
	n := 0
	for k := range b.aclCache {
		if k == clean || strings.HasPrefix(k, prefix) {
			delete(b.aclCache, k)
			n++
		}
	}
	b.aclMu.Unlock()
	if n > 0 {
		b.statCacheInval.Add(int64(n))
		b.metrics.cacheInval.Add(int64(n))
	}
	return n
}

// noteACLCheck charges one reference-monitor evaluation and observes
// it (counter plus acl_check phase event on path).
func (b *Box) noteACLCheck(p *kernel.Proc, path string) {
	p.Charge(b.model.ACLCheck)
	b.statACLChecks.Add(1)
	b.metrics.aclChecks.Inc()
	b.emitPhase(p, obs.PhaseACLCheck, "", path, 0)
}

// checkAccess authorizes one access class on the object at path. The
// ACL examined is the one protecting the directory *containing* the
// final (symlink-resolved) target. Without an ACL, Unix permissions
// apply with the visitor as "nobody".
func (b *Box) checkAccess(p *kernel.Proc, path string, class access) error {
	if b.opts.DisablePolicy {
		return nil
	}
	b.noteACLCheck(p, path)

	final, err := b.resolveFinal(p, path)
	if err != nil {
		return err
	}

	// The ACL file itself is special: reading it takes List; any
	// modification takes Admin on its directory.
	if vfs.Base(final) == acl.FileName {
		switch class {
		case accessRead, accessList:
			class = accessList
		default:
			class = accessAdmin
		}
	}

	dir := vfs.Dir(final)
	a, err := b.loadACL(p, dir)
	if err != nil {
		return err
	}
	if a != nil {
		if a.Allows(b.ident, class.right()) {
			return nil
		}
		return &vfs.PathError{Op: "box", Path: path, Err: vfs.ErrPermission}
	}

	// No ACL: Unix fallback as "nobody" (other bits only).
	d, rel, err := b.driverFor(final)
	if err != nil {
		return err
	}
	st, serr := d.Stat(p, rel)
	if serr != nil {
		// Object absent (e.g. a create): judge by the directory.
		dd, drel, derr := b.driverFor(dir)
		if derr != nil {
			return derr
		}
		st, serr = dd.Stat(p, drel)
		if serr != nil {
			return serr
		}
	}
	if st.Owner == "nobody" {
		// Nobody owns it: owner bits apply.
		if (st.Mode>>6)&7&class.unixBit() == class.unixBit() {
			return nil
		}
		return &vfs.PathError{Op: "box", Path: path, Err: vfs.ErrPermission}
	}
	if st.Mode&7&class.unixBit() == class.unixBit() {
		return nil
	}
	return &vfs.PathError{Op: "box", Path: path, Err: vfs.ErrPermission}
}

// checkMkdir authorizes mkdir and reports which ACL the new directory
// should receive: parent's ACL (inherited) when the visitor holds w, or
// the reserve set when the visitor holds only v — the amplification
// described in Section 4 of the paper.
func (b *Box) checkMkdir(p *kernel.Proc, path string) (childACL *acl.ACL, err error) {
	if b.opts.DisablePolicy {
		return nil, nil
	}
	b.noteACLCheck(p, path)
	dir := vfs.Dir(vfs.Clean(path))
	a, err := b.loadACL(p, dir)
	if err != nil {
		return nil, err
	}
	if a == nil {
		// Unix fallback: nobody needs the directory writable by other.
		d, rel, derr := b.driverFor(dir)
		if derr != nil {
			return nil, derr
		}
		st, serr := d.Stat(p, rel)
		if serr != nil {
			return nil, serr
		}
		if st.Mode&0o002 == 0 {
			return nil, &vfs.PathError{Op: "mkdir", Path: path, Err: vfs.ErrPermission}
		}
		return nil, nil
	}
	rights, reserve := a.Lookup(b.ident)
	switch {
	case rights.Has(acl.Write):
		// Ordinary mkdir: the new directory inherits the parent ACL.
		return a.Clone(), nil
	case rights.Has(acl.Reserve):
		// Reserve right: fresh private namespace with the reserve set.
		return acl.ReserveChild(b.ident, reserve), nil
	default:
		return nil, &vfs.PathError{Op: "mkdir", Path: path, Err: vfs.ErrPermission}
	}
}

// chargePoke bills small-result data movement (stat buffers, dirents,
// strings) poked into the child.
func (b *Box) chargePoke(p *kernel.Proc, n int) {
	p.Charge(trap.PeekPokeCost(b.model, n))
	b.emitPhase(p, obs.PhasePoke, "", "", n)
}

// statBytes approximates the size of a struct stat the supervisor pokes
// back into the child.
const statBytes = 88

// direntBytes approximates one directory entry's size.
const direntBytes = 24
