package main

// mutate-subtrees: a mutation-heavy closed-loop mix over 16 top-level
// subtrees, with periodic snapshot compaction.

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/chirp"
	"identitybox/internal/vfs"
)

type mutate struct {
	cfg        mutateConfig
	seed       int64
	principals []string
	gens       []*mutGen

	compactMu sync.Mutex
	compacts  []float64 // ms, while tracing
}

func newMutate(cfg mutateConfig, seed int64, shards int, principals []string) *mutate {
	m := &mutate{cfg: cfg, seed: seed, principals: principals}
	for w := 0; w < cfg.Connections*cfg.OutstandingPerConn; w++ {
		m.gens = append(m.gens, newMutGen(seed, w, cfg, shards, principals))
	}
	return m
}

// subtreeACL grants both principals everything in a subtree; worker
// directories inherit it until a setacl gives them their own.
func (m *mutate) subtreeACL() string {
	a := &acl.ACL{}
	for _, p := range m.principals {
		a.Set("globus:"+p, acl.All, acl.None)
	}
	a.Set("globus:/O=Grid/OU=*/CN=auditor-*", acl.Read|acl.List, acl.None)
	return a.String()
}

func (m *mutate) populate(fs *vfs.FS) error {
	text := []byte(m.subtreeACL())
	for s := 0; s < m.cfg.Subtrees; s++ {
		if err := fs.Mkdir(subtreeDir(s), 0o755, serverOwner); err != nil {
			return err
		}
		if err := fs.WriteFile(vfs.Join(subtreeDir(s), acl.FileName), text, 0o644, serverOwner); err != nil {
			return err
		}
		for w := range m.gens {
			if err := fs.Mkdir(workerDir(s, w), 0o755, serverOwner); err != nil {
				return err
			}
		}
	}
	return nil
}

// do issues one operation; the generator has already applied it to
// the worker's model.
func (m *mutate) do(c *caller, g *mutGen, op mutOp) error {
	cl := c.cl
	switch op.Kind {
	case "put":
		body := g.Body(op.Version, m.cfg.PutBytes)
		c.st.userBytes += int64(len(body))
		return c.do("putfile", true, func() error { return cl.PutFile(op.Path, body, 0o644) })
	case "unlink":
		return c.do("unlink", true, func() error { return cl.Unlink(op.Path) })
	case "mkdir":
		return c.do("mkdir", true, func() error { return cl.Mkdir(op.Path, 0o755) })
	case "rmdir":
		return c.do("rmdir", true, func() error { return cl.Rmdir(op.Path) })
	case "rename", "rename_cross":
		return c.do(op.Kind, true, func() error { return cl.Rename(op.Path, op.Path2) })
	case "setacl":
		c.st.userBytes += int64(len(op.ACL))
		return c.do("setacl", true, func() error { return cl.SetACL(op.Path, op.ACL) })
	case "stat":
		var st vfs.Stat
		if err := c.do("stat", false, func() (err error) { st, err = cl.Stat(op.Path); return }); err != nil {
			return err
		}
		if st.IsDir() || st.Size != int64(m.cfg.PutBytes) {
			return fmt.Errorf("check: stat %s = dir %v size %d", op.Path, st.IsDir(), st.Size)
		}
	case "get":
		var body []byte
		if err := c.do("getfile", false, func() (err error) { body, err = cl.GetFile(op.Path); return }); err != nil {
			return err
		}
		if !bytes.Equal(body, g.Body(g.M.Files[op.Path], m.cfg.PutBytes)) {
			return fmt.Errorf("check: get %s returned bytes that differ from the last acked put", op.Path)
		}
	default:
		return fmt.Errorf("unknown mutate op %q", op.Kind)
	}
	return nil
}

// window runs the workers closed-loop for d while compacting the
// store every CompactEveryMS, as chirpd -compact-every does. No
// compaction starts in the window's last half period, so the log the
// recovery replays always holds about one period of mutations rather
// than racing the window's end.
func (m *mutate) window(clients []*chirp.Client, d time.Duration, rec *spanRec, st *stack) (*wstats, error) {
	store := st.store
	stopCompact := make(chan struct{})
	compactErr := make(chan error, 1)
	period := time.Duration(m.cfg.CompactEveryMS) * time.Millisecond
	last := time.Now().Add(d - period/2)
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stopCompact:
				compactErr <- nil
				return
			case now := <-t.C:
				if now.After(last) {
					continue
				}
				dur, err := rec.timed("store.compact", 0, store.Compact)
				if err != nil {
					compactErr <- fmt.Errorf("compaction: %w", err)
					return
				}
				if rec.active() {
					m.compactMu.Lock()
					m.compacts = append(m.compacts, float64(dur)/1e6)
					m.compactMu.Unlock()
				}
			}
		}
	}()
	ws, err := closedLoop(len(m.gens), d, func(w int, st *wstats, stop func() bool) error {
		c := &caller{cl: clients[w%len(clients)], st: st, rec: rec}
		g := m.gens[w]
		for !stop() {
			if err := m.do(c, g, g.Next()); err != nil {
				return err
			}
		}
		return nil
	})
	close(stopCompact)
	if cerr := <-compactErr; err == nil {
		err = cerr
	}
	return ws, err
}

// check compares every worker's keys on a file system (primary,
// follower or recovered) with its model of acked operations: each
// worker directory lists exactly the model's files and empty
// directories, bodies match the last acked put, and ACLs match the
// last acked setacl.
func (m *mutate) check(fs *vfs.FS, where string) error {
	for w, g := range m.gens {
		want := map[string][]string{}
		for p := range g.M.Files {
			want[vfs.Dir(p)] = append(want[vfs.Dir(p)], vfs.Base(p))
		}
		for p := range g.M.Dirs {
			want[vfs.Dir(p)] = append(want[vfs.Dir(p)], vfs.Base(p))
		}
		for s := 0; s < m.cfg.Subtrees; s++ {
			dir := workerDir(s, w)
			if _, ok := g.M.ACLs[dir]; ok {
				want[dir] = append(want[dir], acl.FileName)
			}
			ents, err := fs.ReadDir(dir)
			if err != nil {
				return fmt.Errorf("check (%s): %s: %w", where, dir, err)
			}
			var got []string
			for _, e := range ents {
				got = append(got, e.Name)
			}
			sort.Strings(got)
			sort.Strings(want[dir])
			if fmt.Sprint(got) != fmt.Sprint(want[dir]) {
				return fmt.Errorf("check (%s): %s lists %v, acked operations leave %v", where, dir, got, want[dir])
			}
			if text, ok := g.M.ACLs[dir]; ok {
				a, err := fs.ReadFile(vfs.Join(dir, acl.FileName))
				if err != nil || string(a) != text {
					return fmt.Errorf("check (%s): %s ACL = %q (%v), last setacl %q", where, dir, a, err, text)
				}
			}
		}
		for p, v := range g.M.Files {
			body, err := fs.ReadFile(p)
			if err != nil || !bytes.Equal(body, g.Body(v, m.cfg.PutBytes)) {
				return fmt.Errorf("check (%s): %s differs from the last acked put (%v)", where, p, err)
			}
		}
	}
	return nil
}

func (m *mutate) samplePaths() []string {
	var out []string
	for _, g := range m.gens {
		out = append(out, g.M.files...)
	}
	if len(out) > 256 {
		out = out[:256]
	}
	return out
}

func (m *mutate) compactTimes() []float64 {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	return append([]float64(nil), m.compacts...)
}
