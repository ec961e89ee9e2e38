package main

// The server stack under test, assembled in-process the way cmd/chirpd
// does with -state -replicate -admit-queue: a 4-shard durable store
// with real fsync, a replication publisher and primary node, one
// semi-sync follower streaming over the wire, an admission controller,
// and a Chirp server whose durability and dedupe hooks point at the
// node.

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
	"identitybox/internal/workload"
)

const (
	serverOwner = "chirp"
	caName      = "GridCA"
	// fig3Program is the registered program the staged sim.exe
	// dispatches to.
	fig3Program = "fig3job"
	// gridDir is where fig3 jobs reserve their directories.
	gridDir = "/grid"
)

// creds are the CA and the two principals' GSI credentials. Key
// generation happens once per process, before any timed set-up.
type creds struct {
	caKey *rsa.PublicKey
	users []*auth.Credential
	names []string // full principal names, globus:/O=...
}

func newCreds(subjects []string) (*creds, error) {
	ca, err := auth.NewCA(caName)
	if err != nil {
		return nil, err
	}
	c := &creds{caKey: ca.PublicKey()}
	for _, s := range subjects {
		cred, err := ca.Issue(s)
		if err != nil {
			return nil, err
		}
		c.users = append(c.users, cred)
		c.names = append(c.names, "globus:"+s)
	}
	return c, nil
}

// stackOptions select what a stack is built with.
type stackOptions struct {
	dir      string
	shards   int
	admitQ   int
	makeApp  workload.App
	populate func(fs *vfs.FS) error
	probe    *durabilityProbe // nil: the server talks to the node directly
	creds    *creds
}

type stack struct {
	dir, primDir, follDir string

	reg, freg *obs.Registry
	spans     *obs.SpanRing

	store, fstore *durable.Store
	pub, fpub     *replica.Publisher
	node, fnode   *replica.Node
	adm           *admission.Controller
	srv           *chirp.Server
	addr          string

	closeOnce sync.Once
}

// rootACL lets every Grid principal reserve directories (v(rwlax)).
func rootACL() *acl.ACL {
	a := &acl.ACL{}
	a.Set("globus:/O=Grid/*", acl.Reserve, acl.All)
	return a
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// registerFig3 installs the job program: the workload package's make
// app (scaled to a few thousand boxed syscalls), then out.dat computed
// from input.dat in the job's directory.
func registerFig3(k *kernel.Kernel, app workload.App) {
	prog := app.Program()
	k.RegisterProgram(fig3Program, func(p *kernel.Proc, args []string) int {
		if code := prog(p, args); code != 0 {
			return code
		}
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		if err := p.WriteFile("out.dat", fig3Transform(in), 0o644); err != nil {
			return 2
		}
		return 0
	})
}

// seedBench lays out the make app's /bench tree, its compiler child
// and the reserve area the jobs use.
func seedBench(fs *vfs.FS) error {
	if err := workload.Setup(fs, serverOwner); err != nil {
		return err
	}
	if err := fs.WriteFile(workload.BenchRoot+"/cc-make.exe", kernel.ExecutableBytes("workload-child-make"), 0o777, "root"); err != nil {
		return err
	}
	if err := fs.Mkdir(gridDir, 0o755, serverOwner); err != nil {
		return err
	}
	return fs.WriteFile(gridDir+"/"+acl.FileName, []byte(rootACL().String()), 0o644, serverOwner)
}

func buildStack(o stackOptions) (st *stack, err error) {
	st = &stack{
		dir:     o.dir,
		primDir: filepath.Join(o.dir, "primary"),
		follDir: filepath.Join(o.dir, "follower"),
		reg:     obs.NewRegistry(),
		freg:    obs.NewRegistry(),
		spans:   obs.NewSpanRing(1 << 16),
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.addr, err = freeAddr(); err != nil {
		return st, err
	}

	st.pub = replica.NewPublisher(st.reg, 0)
	st.store, err = durable.Open(st.primDir, durable.Options{
		Owner:      serverOwner,
		SyncEveryN: 1,
		Shards:     o.shards,
		Metrics:    st.reg,
		Spans:      st.spans,
		OnShip:     st.pub.Ship,
		RetainLSN:  st.pub.MinAcked,
	})
	if err != nil {
		return st, fmt.Errorf("opening primary store: %w", err)
	}
	st.pub.Bind(st.store)
	fs := st.store.FS()
	k := kernel.New(fs, vclock.Default())
	registerFig3(k, o.makeApp)

	st.node, err = replica.Start(replica.Config{
		Name: "bench", Addr: st.addr, Store: st.store, Publisher: st.pub, Metrics: st.reg,
	})
	if err != nil {
		return st, fmt.Errorf("starting primary node: %w", err)
	}
	st.adm = admission.New(admission.Options{MaxQueue: o.admitQ, Metrics: st.reg})
	var dur interface{ Barrier() error } = st.node
	var dj chirp.DedupeJournal = st.node
	if o.probe != nil {
		o.probe.inner = st.node
		dur, dj = o.probe, o.probe
	}
	st.srv, err = chirp.NewServer(k, chirp.ServerOptions{
		Name:    "bench",
		Owner:   serverOwner,
		RootACL: rootACL(),
		Verifiers: map[auth.Method]auth.Verifier{
			auth.MethodGlobus: &auth.GSIVerifier{TrustedCAs: map[string]*rsa.PublicKey{caName: o.creds.caKey}},
			auth.MethodUnix:   &auth.UnixVerifier{},
		},
		Metrics:        st.reg,
		RequestTimeout: 30 * time.Second,
		Spans:          st.spans,
		Admission:      st.adm,
		DedupeJournal:  dj,
		DedupeSeed:     st.store.DedupeEntries(),
		Durability:     dur,
		Repl:           st.pub,
		Role:           st.node,
	})
	if err != nil {
		return st, err
	}
	if err := st.srv.Listen(st.addr); err != nil {
		return st, err
	}
	// The follower subscribes before the tree is populated and catches
	// up by streaming the population's commit groups: a snapshot
	// bootstrap cannot carry a state image larger than one wire frame
	// (chirp.MaxPayload).
	if err := st.startFollower(o.shards); err != nil {
		return st, fmt.Errorf("starting follower: %w", err)
	}
	if o.populate != nil {
		if err := o.populate(fs); err != nil {
			return st, fmt.Errorf("populating: %w", err)
		}
	}
	if err := st.waitFollower(30 * time.Second); err != nil {
		return st, err
	}
	// Compacting bounds recovery to what the window adds, as a
	// long-running chirpd's -compact-every does.
	if err := st.store.Compact(); err != nil {
		return st, fmt.Errorf("compacting populated store: %w", err)
	}
	return st, nil
}

// startFollower opens a replica-mode store and starts its node
// streaming from the primary over the wire, as chirpd -replica-of
// does. The primary is still empty, so the follower never needs a
// snapshot bootstrap.
func (st *stack) startFollower(shards int) error {
	var err error
	st.fpub = replica.NewPublisher(st.freg, 0)
	st.fstore, err = durable.Open(st.follDir, durable.Options{
		Owner:       serverOwner,
		SyncEveryN:  1,
		Shards:      shards,
		Metrics:     st.freg,
		ReplicaMode: true,
		OnShip:      st.fpub.Ship,
	})
	if err != nil {
		return err
	}
	st.fpub.Bind(st.fstore)
	follAuth := []auth.Authenticator{&auth.UnixClient{User: serverOwner}}
	st.fnode, err = replica.Start(replica.Config{
		Name:        "bench",
		Addr:        "follower",
		Store:       st.fstore,
		Publisher:   st.fpub,
		PrimaryAddr: st.addr,
		Metrics:     st.freg,
		Dial: func(target string, fromLSN uint64) (replica.Stream, error) {
			s, err := chirp.DialReplica(target, follAuth, fromLSN, 10*time.Second)
			if err != nil {
				return nil, err
			}
			if s.Snap != nil {
				s.Close()
				return nil, errors.New("primary demanded a snapshot bootstrap of the follower")
			}
			return s, nil
		},
	})
	return err
}

// waitFollower waits until the follower is subscribed and has applied
// everything the primary has made durable.
func (st *stack) waitFollower(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := st.store.DurableLSN()
		if st.pub.Subscribers() == 1 && st.fstore.AppliedLSN() >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at lsn %d after %s, primary durable at %d (%d subscribers)",
				st.fstore.AppliedLSN(), timeout, want, st.pub.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

// dial authenticates principal i over GSI and negotiates v2.
func (st *stack) dial(c *creds, i int, opts chirp.ClientOptions) (*chirp.Client, error) {
	return chirp.DialOpts(st.addr, []auth.Authenticator{&auth.GSIClient{Cred: c.users[i]}}, opts)
}

// close stops the server, both nodes and both stores. Safe on a
// partially built stack.
func (st *stack) close() error {
	var firstErr error
	st.closeOnce.Do(func() {
		if st.srv != nil {
			st.srv.Close()
		}
		if st.fnode != nil {
			st.fnode.Stop()
		}
		if st.node != nil {
			st.node.Stop()
		}
		if st.pub != nil {
			st.pub.Close()
		}
		if st.fpub != nil {
			st.fpub.Close()
		}
		for _, s := range []*durable.Store{st.store, st.fstore} {
			if s != nil {
				if err := s.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	})
	return firstErr
}

// remove closes the stack and deletes its state.
func (st *stack) remove() error {
	err := st.close()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// reopen recovers the primary's state directory into a fresh store,
// as a restarted chirpd -state does.
func reopen(dir string, shards int, reg *obs.Registry) (*durable.Store, time.Duration, error) {
	start := time.Now()
	s, err := durable.Open(dir, durable.Options{Owner: serverOwner, SyncEveryN: 1, Shards: shards, Metrics: reg})
	return s, time.Since(start), err
}

// durabilityProbe wraps the node's Durability and DedupeJournal hooks
// to time every barrier and dedupe append, still forwarding
// BarrierTraced so traced requests keep their WAL timing.
type durabilityProbe struct {
	inner interface {
		Barrier() error
		BarrierTraced() (wait, commit time.Duration, err error)
		AppendDedupe(key string, reply []string) error
	}
	rec *spanRec

	mu      sync.Mutex
	barrier []float64 // µs
	dedupe  []float64 // µs
}

func (p *durabilityProbe) note(dst *[]float64, name string, start time.Time) {
	if !p.rec.active() {
		return
	}
	d := time.Since(start)
	p.mu.Lock()
	*dst = append(*dst, float64(d)/1e3)
	p.mu.Unlock()
	p.rec.add(obs.Span{Name: name, Start: start, Dur: d})
}

func (p *durabilityProbe) Barrier() error {
	start := time.Now()
	err := p.inner.Barrier()
	p.note(&p.barrier, "durability.barrier", start)
	return err
}

func (p *durabilityProbe) BarrierTraced() (wait, commit time.Duration, err error) {
	start := time.Now()
	wait, commit, err = p.inner.BarrierTraced()
	p.note(&p.barrier, "durability.barrier", start)
	return wait, commit, err
}

func (p *durabilityProbe) AppendDedupe(key string, reply []string) error {
	start := time.Now()
	err := p.inner.AppendDedupe(key, reply)
	p.note(&p.dedupe, "dedupe.append", start)
	return err
}

// samples returns the sorted barrier and dedupe-append times.
func (p *durabilityProbe) samples() (barrier, dedupe []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sorted(p.barrier), sorted(p.dedupe)
}
