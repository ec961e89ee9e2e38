package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
)

// replTTL is the lease term the replication tests run with: short
// enough that a failover completes inside a test, long enough that the
// race detector's scheduling jitter cannot expire a healthy primary.
const replTTL = 400 * time.Millisecond

func adminAuth() []auth.Authenticator {
	return []auth.Authenticator{&auth.UnixClient{User: "admin"}}
}

// freePort reserves a listening address for a member whose replication
// node must know it before the server exists (the lease identity and
// the catalog entry must agree).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// replMember is one replica-set member wired exactly like chirpd does
// it: durable store shipping into a publisher, a replication node
// running the role, and a server whose durability/dedupe/role hooks all
// point at the node.
type replMember struct {
	t       *testing.T
	name    string
	addr    string
	reg     *obs.Registry
	store   *durable.Store
	pub     *replica.Publisher
	node    *replica.Node
	srv     *Server
	execs   atomic.Int64
	shipped atomic.Int64

	// killAt arms a crash at an absolute shipped-group count (0 =
	// disarmed); see armKill. killDelay (nanoseconds) jitters the crash
	// past the boundary. The chaos matrix sets both before driving
	// traffic at the member.
	killAt      atomic.Int64
	killDelay   atomic.Int64
	killTrigger chan struct{}

	killOnce sync.Once
	trigOnce sync.Once
}

// armKill schedules this member's death right after the next `after`
// commit groups ship. Arming relative to the current count keeps the
// chaos matrix aligned on workflow boundaries regardless of how many
// groups setup itself shipped (the epoch-adoption record, for one).
func (m *replMember) armKill(after int64) {
	m.killAt.Store(m.shipped.Load() + after)
}

// startReplMember brings a member up. replicaOf empty starts a
// primary; armKill schedules a group-boundary crash (server severed,
// node stopped, stream closed) for the chaos matrix.
func startReplMember(t *testing.T, name, catalogAddr, replicaOf string) *replMember {
	t.Helper()
	m := &replMember{t: t, name: name, killTrigger: make(chan struct{})}
	m.reg = obs.NewRegistry()
	m.pub = replica.NewPublisher(m.reg, replTTL)
	onShip := func(first, last uint64, records int, frames []byte) {
		m.pub.Ship(first, last, records, frames)
		if at := m.killAt.Load(); m.shipped.Add(1) == at && at > 0 {
			m.trigOnce.Do(func() { close(m.killTrigger) })
		}
	}
	store, err := durable.Open(t.TempDir(), durable.Options{
		Owner:       "owner",
		SyncEveryN:  1,
		ReplicaMode: replicaOf != "",
		OnShip:      onShip,
		Metrics:     m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.store = store
	t.Cleanup(func() { store.Close() })
	m.pub.Bind(store)

	// Follower bootstrap happens before the kernel is built, mirroring
	// chirpd: a snapshot load replaces the file-system tree.
	var firstStream *ReplicaSession
	if replicaOf != "" {
		rs, err := DialReplica(replicaOf, adminAuth(), store.AppliedLSN(), 2*time.Second)
		if err != nil {
			t.Fatalf("bootstrap dial %s: %v", replicaOf, err)
		}
		rs.IdleTimeout = replTTL
		if rs.Snap != nil {
			if err := store.LoadReplicaSnapshot(rs.Snap); err != nil {
				t.Fatal(err)
			}
		}
		firstStream = rs
	}

	k := kernel.New(store.FS(), vclock.Default())
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		m.execs.Add(1)
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		if err := p.WriteFile("out.dat", bytes.ToUpper(in), 0o644); err != nil {
			return 2
		}
		return 0
	})

	m.addr = freePort(t)
	var srvSlot atomic.Pointer[Server]
	dial := func(target string, fromLSN uint64) (replica.Stream, error) {
		if s := firstStream; s != nil {
			firstStream = nil
			return s, nil
		}
		rs, err := DialReplica(target, adminAuth(), fromLSN, 2*time.Second)
		if err != nil {
			return nil, err
		}
		rs.IdleTimeout = replTTL
		if rs.Snap != nil {
			rs.Close()
			return nil, errors.New("re-dial demanded a snapshot bootstrap")
		}
		return rs, nil
	}
	node, err := replica.Start(replica.Config{
		Name:        name,
		Addr:        m.addr,
		CatalogAddr: catalogAddr,
		TTL:         replTTL,
		Store:       store,
		Publisher:   m.pub,
		PrimaryAddr: replicaOf,
		Dial:        dial,
		OnPromote: func(epoch uint64) {
			if s := srvSlot.Load(); s != nil {
				s.ReseedDedupe(store.DedupeEntries())
			}
		},
		Metrics: m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.node = node

	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	hb := time.Duration(0)
	if catalogAddr != "" {
		hb = replTTL / 3
	}
	srv, err := NewServer(k, ServerOptions{
		Name:           name,
		Owner:          "owner",
		RootACL:        rootACL,
		Verifiers:      map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		CatalogAddr:    catalogAddr,
		HeartbeatEvery: hb,
		Repl:           m.pub,
		Role:           node,
		Durability:     node,
		DedupeJournal:  node,
		DedupeSeed:     store.DedupeEntries(),
		Metrics:        m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvSlot.Store(srv)
	m.srv = srv
	if err := srv.Listen(m.addr); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-m.killTrigger
		if d := time.Duration(m.killDelay.Load()); d > 0 {
			time.Sleep(d)
		}
		m.kill()
	}()
	t.Cleanup(m.kill)
	return m
}

// kill simulates this member's death: sessions severed, role loops
// stopped, the ship stream closed (followers see the break at once).
func (m *replMember) kill() {
	m.trigOnce.Do(func() { close(m.killTrigger) }) // release the armed-kill goroutine
	m.killOnce.Do(func() {
		if m.srv != nil {
			m.srv.Close()
		}
		if m.node != nil {
			m.node.Stop()
		}
		m.pub.Close()
	})
}

func (m *replMember) role() string {
	r, _ := m.node.Role()
	return r
}

// pollUntil waits for cond with an explicit deadline (promotions take a
// lease TTL plus an election window; waitFor's two seconds can be
// tight under -race).
func pollUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationEndToEnd streams a primary's writes to a live
// follower over the wire: the follower serves reads behind a waitlsn
// barrier, reports its role in stats, and refuses writes with
// ENOTPRIMARY naming the primary.
func TestReplicationEndToEnd(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)

	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.Mkdir("/work", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/data", []byte("replicated payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != replica.RolePrimary || st.AppliedLSN == 0 {
		t.Fatalf("primary stats = role %q lsn %d", st.Role, st.AppliedLSN)
	}

	// Bounded-staleness read: wait for the primary's horizon, then read.
	fcl := adminClient(t, follower.srv, ClientOptions{})
	applied, err := fcl.WaitLSN(st.AppliedLSN, 2*time.Second)
	if err != nil {
		t.Fatalf("waitlsn: %v", err)
	}
	if applied < st.AppliedLSN {
		t.Fatalf("waitlsn reported %d, want >= %d", applied, st.AppliedLSN)
	}
	data, err := fcl.GetFile("/work/data")
	if err != nil || string(data) != "replicated payload" {
		t.Fatalf("follower read = %q, %v", data, err)
	}
	fst, err := fcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != replica.RoleFollower {
		t.Fatalf("follower stats role = %q", fst.Role)
	}

	// Writes against the follower are refused, naming the primary.
	err = fcl.Mkdir("/nope", 0o755)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower write = %v, want ErrNotPrimary", err)
	}
	if got := PrimaryFromError(err); got != primary.addr {
		t.Fatalf("PrimaryFromError = %q, want %q", got, primary.addr)
	}

	// Semi-sync: the follower has acked the durable horizon (the write
	// replies above already waited on it).
	if acked := primary.pub.MaxAcked(); acked < st.AppliedLSN {
		t.Fatalf("follower acked %d, want >= %d", acked, st.AppliedLSN)
	}
	if groups := primary.reg.Counter(replica.MetricGroupsShipped).Value(); groups < 2 {
		t.Fatalf("%s = %d, want >= 2", replica.MetricGroupsShipped, groups)
	}
	// The standalone server answers waitlsn with 0 (no replication).
	srv, _, _ := testServer(t)
	scl := adminClient(t, srv, ClientOptions{})
	if applied, err := scl.WaitLSN(42, time.Second); err != nil || applied != 0 {
		t.Fatalf("standalone waitlsn = %d, %v", applied, err)
	}
	if sst, err := scl.Stats(); err != nil || sst.Role != "" {
		t.Fatalf("standalone stats role = %q, %v", sst.Role, err)
	}
}

// TestFollowerBootstrapFromSnapshot compacts the primary before the
// follower ever subscribes, forcing the snapshot path.
func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.PutFile("/pre-compaction", []byte("early history"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := primary.store.Compact(); err != nil {
		t.Fatal(err)
	}
	follower := startReplMember(t, "vol", "", primary.addr)
	fcl := adminClient(t, follower.srv, ClientOptions{})
	data, err := fcl.GetFile("/pre-compaction")
	if err != nil || string(data) != "early history" {
		t.Fatalf("bootstrapped read = %q, %v", data, err)
	}
	// And the live stream still works past the snapshot.
	if err := cl.PutFile("/post-snapshot", []byte("later"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fcl.WaitLSN(st.AppliedLSN, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if data, err := fcl.GetFile("/post-snapshot"); err != nil || string(data) != "later" {
		t.Fatalf("post-snapshot read = %q, %v", data, err)
	}
}

// TestFollowerBootstrapOversizeSnapshotRefused compacts more than
// MaxPayload of file data into the primary's snapshot. The snapshot
// cannot travel in one frame, so the primary must refuse the
// subscription at once with EMSGSIZE and unregister it — not leave the
// follower waiting out its dial timeout for a reply that never comes.
func TestFollowerBootstrapOversizeSnapshotRefused(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	cl := adminClient(t, primary.srv, ClientOptions{})
	chunk := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		rng.Read(chunk)
		if err := cl.PutFile(fmt.Sprintf("/big%d", i), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Compact(); err != nil {
		t.Fatal(err)
	}
	const timeout = 10 * time.Second
	start := time.Now()
	rs, err := DialReplica(primary.addr, adminAuth(), 0, timeout)
	if err == nil {
		rs.Close()
		t.Fatal("bootstrap from an oversize snapshot succeeded")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("bootstrap = %v, want EMSGSIZE", err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Fatalf("refusal took %v, close to the %v dial timeout", took, timeout)
	}
	pollUntil(t, 2*time.Second, "refused subscription dropped", func() bool { return primary.pub.Subscribers() == 0 })
	// The primary keeps serving.
	if data, err := cl.GetFile("/big4"); err != nil || !bytes.Equal(data, chunk) {
		t.Fatalf("read after refusal: %d bytes, %v", len(data), err)
	}
}

// TestPromotionOnPrimaryKill is the basic failover: the primary dies,
// the follower takes the lease within roughly one TTL, accepts writes
// under the new epoch, and replays acked tokened requests from its
// replicated dedupe journal instead of re-executing them.
func TestPromotionOnPrimaryKill(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	primary := startReplMember(t, "vol", cat.Addr(), "")
	follower := startReplMember(t, "vol", cat.Addr(), primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.Mkdir("/work", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/sim.exe", kernel.ExecutableBytes("sim"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/input.dat", []byte("signal data"), 0o644); err != nil {
		t.Fatal(err)
	}
	token := NewRequestToken()
	res, err := cl.ExecToken(token, "/work", "/work/sim.exe")
	if err != nil || res.Code != 0 {
		t.Fatalf("exec = %+v, %v", res, err)
	}
	if primary.execs.Load() != 1 {
		t.Fatalf("primary execs = %d", primary.execs.Load())
	}
	_, oldEpoch := primary.node.Role()

	killed := time.Now()
	primary.kill()
	pollUntil(t, 10*replTTL, "follower promotion", func() bool { return follower.role() == replica.RolePrimary })
	t.Logf("promotion %v after the kill (lease ttl %v)", time.Since(killed), replTTL)

	if got := follower.reg.Counter(replica.MetricPromotions).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", replica.MetricPromotions, got)
	}
	fcl := adminClient(t, follower.srv, ClientOptions{})
	fst, err := fcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != replica.RolePrimary || fst.Epoch <= oldEpoch {
		t.Fatalf("promoted stats = role %q epoch %d (old epoch %d)", fst.Role, fst.Epoch, oldEpoch)
	}

	// Every acked mutation survived the failover.
	if data, err := fcl.GetFile("/work/out.dat"); err != nil || string(data) != "SIGNAL DATA" {
		t.Fatalf("acked exec output after failover = %q, %v", data, err)
	}
	// The tokened retry replays from the replicated dedupe journal.
	res2, err := fcl.ExecToken(token, "/work", "/work/sim.exe")
	if err != nil || res2.Code != res.Code {
		t.Fatalf("retried exec = %+v, %v", res2, err)
	}
	if follower.execs.Load() != 0 {
		t.Fatalf("tokened retry re-executed on the promoted follower (%d times)", follower.execs.Load())
	}
	// And the promoted primary accepts fresh writes.
	if err := fcl.PutFile("/work/after.txt", []byte("new epoch"), 0o644); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
}

// TestFencingAfterPartitionHeals: a deposed primary coming back finds
// the lease held at a higher epoch, fences itself (refusing writes and
// naming the real primary), and its stale stream cannot apply — the
// epoch check rejects replication from a fenced source.
func TestFencingAfterPartitionHeals(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// A holds the lease first.
	a := startReplMember(t, "vol", cat.Addr(), "")
	pollUntil(t, 2*time.Second, "A holding the lease", func() bool {
		holder, _ := cat.LeaseHolder("vol")
		return holder == a.addr
	})
	// B boots believing it is also a primary (a healed partition where
	// both sides kept primary state). Its first claim is denied: fenced.
	b := startReplMember(t, "vol", cat.Addr(), "")
	pollUntil(t, 10*replTTL, "B fenced", func() bool { return b.role() == replica.RoleFenced })

	bcl := adminClient(t, b.srv, ClientOptions{})
	err := bcl.Mkdir("/split-brain", 0o755)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("fenced write = %v, want ErrNotPrimary", err)
	}
	if got := PrimaryFromError(err); got != a.addr {
		t.Fatalf("fenced refusal names %q, want %q", got, a.addr)
	}
	// Reads still serve (the fenced state is stale, not gone).
	if _, err := bcl.Whoami(); err != nil {
		t.Fatalf("read against fenced member: %v", err)
	}
	// The fence is sticky: even with A's renewals stopped and the lease
	// expired, B refuses a re-grant — its log may have diverged.
	a.kill()
	time.Sleep(3 * replTTL)
	if b.role() != replica.RoleFenced {
		t.Fatalf("fenced node resumed as %s after the lease freed", b.role())
	}

	// A stale-epoch stream cannot apply: a follower that adopted epoch N
	// rejects batches stamped with an older term.
	f, err := durable.Open(t.TempDir(), durable.Options{Owner: "owner", SyncEveryN: 1, ReplicaMode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, first, last, _, err := a.store.WALTailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(5, first, last, frames); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(3, last+1, last+1, frames); !errors.Is(err, durable.ErrStaleEpoch) {
		t.Fatalf("stale-epoch apply = %v, want ErrStaleEpoch", err)
	}
}

// TestReplicationStatsAndMetrics: the replication series land in the
// registry exposition — lag gauge, applied LSN, subscriber gauge.
func TestReplicationStatsAndMetrics(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)
	pollUntil(t, 2*time.Second, "subscription", func() bool { return primary.pub.Subscribers() == 1 })
	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.PutFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	text := primary.reg.Text()
	for _, name := range []string{replica.MetricGroupsShipped, replica.MetricBytesShipped, replica.MetricSubscribers, replica.MetricLag, replica.MetricAppliedLSN} {
		if !contains(text, name) {
			t.Errorf("primary exposition missing %s", name)
		}
	}
	ftext := follower.reg.Text()
	if !contains(ftext, replica.MetricAppliedLSN) {
		t.Errorf("follower exposition missing %s", replica.MetricAppliedLSN)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
