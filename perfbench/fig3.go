package main

// fig3-jobs: the paper's Figure-3 cycle at a fixed open-loop job rate.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/chirp"
	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
	"identitybox/internal/workload"
)

type fig3 struct {
	cfg   fig3Config
	seed  int64
	names []string // principal names
	app   workload.App
	exe   []byte

	gen     *fig3Gen
	pending *fig3Job // drawn but not yet due when the last window closed
	genBase time.Duration

	inputs, outputs [][]byte
	refRuntime      []float64 // virtual seconds per principal, from a local box
	refACL          []string  // expected ACL of a job directory per principal

	mu   sync.Mutex
	done []fig3Job // every completed job
}

func newFig3(cfg fig3Config, seed int64, names []string) *fig3 {
	f := &fig3{
		cfg:   cfg,
		seed:  seed,
		names: names,
		exe:   kernel.ExecutableBytes(fig3Program),
		gen:   newFig3Gen(seed, cfg.JobsPerS),
	}
	app, _ := workload.AppByName("make")
	f.app = app.Scaled(cfg.MakeScale)
	for i := 0; i < fig3Inputs; i++ {
		in, out := fig3Input(seed, i, cfg.InputBytes)
		f.inputs = append(f.inputs, in)
		f.outputs = append(f.outputs, out)
	}
	for _, n := range names {
		f.refACL = append(f.refACL, acl.ReserveChild(identity.Principal(n), acl.All).String())
	}
	return f
}

func (f *fig3) populate(fs *vfs.FS) error { return seedBench(fs) }

// localRun runs one job's program in a local identity box over a
// private kernel laid out like the server's, exactly as the server's
// exec does, returning its exit status, the box's policy counters and
// the wall time of Box.RunAt.
func (f *fig3) localRun(principal, id, input int) (kernel.ExitStatus, core.Stats, time.Duration, error) {
	fs := vfs.New(serverOwner)
	if err := fs.WriteFile("/"+acl.FileName, []byte(rootACL().String()), 0o644, serverOwner); err != nil {
		return kernel.ExitStatus{}, core.Stats{}, 0, err
	}
	if err := seedBench(fs); err != nil {
		return kernel.ExitStatus{}, core.Stats{}, 0, err
	}
	dir := fig3JobDir(principal, id)
	if err := fs.Mkdir(dir, 0o755, serverOwner); err != nil {
		return kernel.ExitStatus{}, core.Stats{}, 0, err
	}
	for _, file := range []struct {
		name string
		body []byte
		mode uint32
	}{
		{acl.FileName, []byte(f.refACL[principal]), 0o644},
		{"sim.exe", f.exe, 0o755},
		{"input.dat", f.inputs[input], 0o644},
	} {
		if err := fs.WriteFile(vfs.Join(dir, file.name), file.body, file.mode, serverOwner); err != nil {
			return kernel.ExitStatus{}, core.Stats{}, 0, err
		}
	}
	k := kernel.New(fs, vclock.Default())
	registerFig3(k, f.app)
	box, err := core.New(k, serverOwner, identity.Principal(f.names[principal]), core.Options{
		HomeBase:  "/.boxhomes",
		ShadowDir: "/.boxshadow",
	})
	if err != nil {
		return kernel.ExitStatus{}, core.Stats{}, 0, err
	}
	path := vfs.Join(dir, "sim.exe")
	start := time.Now()
	st := box.RunAt(dir, func(p *kernel.Proc, args []string) int {
		pid, err := p.Spawn(path, args...)
		if err != nil {
			return 127
		}
		_, status, err := p.Wait(pid)
		if err != nil {
			return 127
		}
		return status
	})
	return st, box.Stats(), time.Since(start), nil
}

// prepare takes each principal's reference virtual runtime from a
// local box run; every remote exec must match it to the tick.
func (f *fig3) prepare() error {
	f.refRuntime = nil
	for p := range f.names {
		st, _, _, err := f.localRun(p, 0, 0)
		if err != nil {
			return err
		}
		if st.Code != 0 {
			return fmt.Errorf("local reference run of the job program exited %d", st.Code)
		}
		f.refRuntime = append(f.refRuntime, st.Runtime.Seconds())
	}
	return nil
}

// runJob is one Figure-3 job: reserve a directory, read its ACL, stage
// the program and its input, exec it in an identity box, fetch the
// output, clean up.
func (f *fig3) runJob(c *caller, j fig3Job) error {
	dir := fig3JobDir(j.Principal, j.ID)
	cl := c.cl
	if err := c.do("mkdir", true, func() error { return cl.Mkdir(dir, 0o755) }); err != nil {
		return err
	}
	var text string
	if err := c.do("getacl", false, func() (err error) { text, err = cl.GetACL(dir); return }); err != nil {
		return err
	}
	if text != f.refACL[j.Principal] {
		return fmt.Errorf("check: getacl %s = %q, want %q", dir, text, f.refACL[j.Principal])
	}
	exe, in := vfs.Join(dir, "sim.exe"), vfs.Join(dir, "input.dat")
	if err := c.do("putfile", true, func() error { return cl.PutFile(exe, f.exe, 0o755) }); err != nil {
		return err
	}
	if err := c.do("putfile", true, func() error { return cl.PutFile(in, f.inputs[j.Input], 0o644) }); err != nil {
		return err
	}
	c.st.userBytes += int64(len(f.exe) + len(f.inputs[j.Input]))
	var st vfs.Stat
	if err := c.do("stat", false, func() (err error) { st, err = cl.Stat(in); return }); err != nil {
		return err
	}
	if st.Size != int64(len(f.inputs[j.Input])) {
		return fmt.Errorf("check: stat %s size %d after staging %d bytes", in, st.Size, len(f.inputs[j.Input]))
	}
	var res chirp.ExecResult
	token := fmt.Sprintf("fig3-%d-%d", f.seed, j.ID)
	if err := c.do("exec", true, func() (err error) { res, err = cl.ExecToken(token, dir, exe); return }); err != nil {
		return err
	}
	if res.Code != 0 {
		return fmt.Errorf("check: exec %s exited %d", exe, res.Code)
	}
	if res.RuntimeSeconds != f.refRuntime[j.Principal] {
		return fmt.Errorf("check: exec %s virtual runtime %v s, local box %v s: virtual time drifted",
			exe, res.RuntimeSeconds, f.refRuntime[j.Principal])
	}
	outPath := vfs.Join(dir, "out.dat")
	if err := c.do("stat", false, func() (err error) { st, err = cl.Stat(outPath); return }); err != nil {
		return err
	}
	if st.Size != int64(len(f.outputs[j.Input])) {
		return fmt.Errorf("check: stat %s size %d, want %d", outPath, st.Size, len(f.outputs[j.Input]))
	}
	var out []byte
	if err := c.do("getfile", false, func() (err error) { out, err = cl.GetFile(outPath); return }); err != nil {
		return err
	}
	if !bytes.Equal(out, f.outputs[j.Input]) {
		return fmt.Errorf("check: %s/out.dat differs from the expected output (%d bytes, want %d)", dir, len(out), len(f.outputs[j.Input]))
	}
	for _, name := range []string{"out.dat", "input.dat", "sim.exe"} {
		p := vfs.Join(dir, name)
		if err := c.do("unlink", true, func() error { return cl.Unlink(p) }); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.done = append(f.done, j)
	f.mu.Unlock()
	return nil
}

// window drives jobs open-loop for d: each job starts when due,
// whatever the server's backlog (up to MaxOutstandingJobs in flight),
// and its latency runs from when it was due. Jobs in flight when the
// window closes run to completion.
func (f *fig3) window(clients []*chirp.Client, d time.Duration, rec *spanRec, _ *stack) (*wstats, error) {
	var (
		total    = wstats{start: time.Now()}
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		sem      = make(chan struct{}, f.cfg.MaxOutstandingJobs)
	)
	start := total.start
	base := f.genBase
	for {
		if f.pending == nil {
			j := f.gen.Next()
			f.pending = &j
		}
		j := *f.pending
		if j.Due-base > d {
			f.genBase = base + d
			break
		}
		f.pending = nil
		due := start.Add(j.Due - base)
		if time.Since(start) > d {
			// The server fell so far behind that jobs due inside the
			// window could not even start inside it: count each as a
			// failed call instead of stretching the run.
			mu.Lock()
			total.attempted++
			total.refused++
			mu.Unlock()
			continue
		}
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		lag := time.Since(due)
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			<-sem
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			st := &wstats{}
			c := &caller{cl: clients[j.Principal%len(clients)], st: st, rec: rec}
			if rec.active() {
				c.parent = rec.id()
			}
			err := f.runJob(c, j)
			done := time.Now()
			if c.parent != 0 {
				rec.add(obs.Span{ID: c.parent, Name: "job", Start: due, Dur: done.Sub(due)})
			}
			st.jobs = append(st.jobs, float64(done.Sub(due))/1e6)
			st.genLag = append(st.genLag, float64(lag)/1e6)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("job %d: %w", j.ID, err)
			}
			total.merge(st)
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return &total, firstErr
}

// check verifies, on a file system (primary, follower or recovered),
// that every completed job's directory holds only its ACL: the
// staged files and the output were all removed.
func (f *fig3) check(fs *vfs.FS, where string) error {
	f.mu.Lock()
	done := append([]fig3Job(nil), f.done...)
	f.mu.Unlock()
	for _, j := range done {
		dir := fig3JobDir(j.Principal, j.ID)
		ents, err := fs.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("check (%s): %s: %w", where, dir, err)
		}
		if len(ents) != 1 || ents[0].Name != acl.FileName {
			return fmt.Errorf("check (%s): %s holds %d entries after cleanup", where, dir, len(ents))
		}
		a, err := fs.ReadFile(vfs.Join(dir, acl.FileName))
		if err != nil {
			return fmt.Errorf("check (%s): %s: %w", where, dir, err)
		}
		if string(a) != f.refACL[j.Principal] {
			return fmt.Errorf("check (%s): %s ACL = %q", where, dir, a)
		}
	}
	return nil
}

// samplePaths lists the ACL files of completed jobs' directories, for
// the direct acl/vfs probes: cleanup leaves each directory holding
// only its ACL.
func (f *fig3) samplePaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for i, j := range f.done {
		if i >= 256 {
			break
		}
		out = append(out, vfs.Join(fig3JobDir(j.Principal, j.ID), acl.FileName))
	}
	return out
}
