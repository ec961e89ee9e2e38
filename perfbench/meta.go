package main

// meta-pipelined: read-only metadata and small reads, closed-loop, with
// a fixed number of outstanding v2 calls per connection.

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/chirp"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

type meta struct {
	cfg  metaConfig
	seed int64
	tree *metaTree
	gens []*metaGen
}

func newMeta(cfg metaConfig, seed int64, principals []string) *meta {
	m := &meta{cfg: cfg, seed: seed, tree: newMetaTree(seed, cfg.TreeFanout, cfg.FileBytes, principals)}
	for w := 0; w < cfg.Connections*cfg.OutstandingPerConn; w++ {
		m.gens = append(m.gens, newMetaGen(seed, w, m.tree, cfg.ZipfS, cfg.Mix))
	}
	return m
}

// populate writes the tree straight into the store's file system:
// every directory with its ACL and its data file.
func (m *meta) populate(fs *vfs.FS) error {
	if err := fs.Mkdir(metaRoot, 0o755, serverOwner); err != nil {
		return err
	}
	top := &acl.ACL{}
	top.Set("globus:/O=Grid/*", acl.Read|acl.List, acl.None)
	if err := fs.WriteFile(vfs.Join(metaRoot, acl.FileName), []byte(top.String()), 0o644, serverOwner); err != nil {
		return err
	}
	if err := fs.WriteFile(vfs.Join(metaRoot, metaFile), m.tree.FileBody(metaRoot), 0o644, serverOwner); err != nil {
		return err
	}
	for _, d := range m.tree.Dirs {
		if err := fs.Mkdir(d, 0o755, serverOwner); err != nil {
			return err
		}
		if err := fs.WriteFile(vfs.Join(d, acl.FileName), []byte(m.tree.ACL[d]), 0o644, serverOwner); err != nil {
			return err
		}
		if err := fs.WriteFile(vfs.Join(d, metaFile), m.tree.FileBody(d), 0o644, serverOwner); err != nil {
			return err
		}
	}
	return nil
}

// do issues one operation and checks its result against the tree.
func (m *meta) do(c *caller, op metaOp, buf []byte) error {
	dir := m.tree.Dirs[op.Dir]
	file := vfs.Join(dir, metaFile)
	cl := c.cl
	switch op.Kind {
	case "stat":
		var st vfs.Stat
		if err := c.do("stat", false, func() (err error) { st, err = cl.Stat(file); return }); err != nil {
			return err
		}
		if st.IsDir() || st.Size != int64(m.cfg.FileBytes) {
			return fmt.Errorf("check: stat %s = dir %v size %d", file, st.IsDir(), st.Size)
		}
	case "lstat":
		var st vfs.Stat
		if err := c.do("lstat", false, func() (err error) { st, err = cl.Lstat(dir); return }); err != nil {
			return err
		}
		if !st.IsDir() {
			return fmt.Errorf("check: lstat %s is not a directory", dir)
		}
	case "read":
		var fd, n int
		if err := c.do("open", false, func() (err error) { fd, err = cl.Open(file, kernel.ORdonly, 0); return }); err != nil {
			return err
		}
		if err := c.do("pread", false, func() (err error) { n, err = cl.Pread(fd, buf, 0); return }); err != nil {
			return err
		}
		if err := c.do("close", false, func() error { return cl.CloseFD(fd) }); err != nil {
			return err
		}
		if !bytes.Equal(buf[:n], m.tree.FileBody(dir)) {
			return fmt.Errorf("check: pread %s returned %d bytes that differ from the generator's", file, n)
		}
	case "readdir":
		var ents []vfs.DirEntry
		if err := c.do("readdir", false, func() (err error) { ents, err = cl.ReadDir(dir); return }); err != nil {
			return err
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name
		}
		sort.Strings(names)
		if want := m.tree.Listing(dir); fmt.Sprint(names) != fmt.Sprint(want) {
			return fmt.Errorf("check: readdir %s = %v, want %v", dir, names, want)
		}
	case "getacl":
		var text string
		if err := c.do("getacl", false, func() (err error) { text, err = cl.GetACL(dir); return }); err != nil {
			return err
		}
		if text != m.tree.ACL[dir] {
			return fmt.Errorf("check: getacl %s = %q, want %q", dir, text, m.tree.ACL[dir])
		}
	default:
		return fmt.Errorf("unknown meta op %q", op.Kind)
	}
	return nil
}

func (m *meta) window(clients []*chirp.Client, d time.Duration, rec *spanRec, _ *stack) (*wstats, error) {
	return closedLoop(len(m.gens), d, func(w int, st *wstats, stop func() bool) error {
		c := &caller{cl: clients[w%len(clients)], st: st, rec: rec}
		buf := make([]byte, m.cfg.FileBytes)
		for !stop() {
			if err := m.do(c, m.gens[w].Next(), buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// check compares a sample of the tree on a file system (primary,
// follower or recovered) with the generator.
func (m *meta) check(fs *vfs.FS, where string) error {
	r := newRand(m.seed, "meta-check")
	for i := 0; i < 256; i++ {
		d := m.tree.Dirs[r.Intn(len(m.tree.Dirs))]
		body, err := fs.ReadFile(vfs.Join(d, metaFile))
		if err != nil || !bytes.Equal(body, m.tree.FileBody(d)) {
			return fmt.Errorf("check (%s): %s/%s differs from the generator (%v)", where, d, metaFile, err)
		}
		a, err := fs.ReadFile(vfs.Join(d, acl.FileName))
		if err != nil || string(a) != m.tree.ACL[d] {
			return fmt.Errorf("check (%s): %s ACL differs from the generator (%v)", where, d, err)
		}
	}
	return nil
}

func (m *meta) samplePaths() []string {
	g := newMetaGen(m.seed, 1<<20, m.tree, m.cfg.ZipfS, m.cfg.Mix)
	out := make([]string, 256)
	for i := range out {
		out[i] = vfs.Join(m.tree.Dirs[g.Next().Dir], metaFile)
	}
	return out
}

// closedLoop runs n workers until d has passed or one fails; each
// worker issues its next call only after the previous one returned.
func closedLoop(n int, d time.Duration, work func(w int, st *wstats, stop func() bool) error) (*wstats, error) {
	start := time.Now()
	end := start.Add(d)
	type result struct {
		st  *wstats
		err error
	}
	results := make(chan result, n)
	failed := make(chan struct{})
	stop := func() bool {
		select {
		case <-failed:
			return true
		default:
			return time.Now().After(end)
		}
	}
	for w := 0; w < n; w++ {
		go func(w int) {
			st := &wstats{}
			err := work(w, st, stop)
			results <- result{st, err}
		}(w)
	}
	total := &wstats{start: start}
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-results
		total.merge(r.st)
		if r.err != nil && firstErr == nil {
			firstErr = r.err
			close(failed)
		}
	}
	total.elapsed = time.Since(start)
	return total, firstErr
}
