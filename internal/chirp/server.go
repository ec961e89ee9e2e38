package chirp

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// ServerOptions configure a Chirp server.
type ServerOptions struct {
	// Name is the server's advertised name (defaults to the listen
	// address).
	Name string
	// Owner is the local account the server runs as: an ordinary user,
	// not root. Files created on behalf of clients are owned by it.
	Owner string
	// RootACL is installed at the export root if no ACL exists there.
	RootACL *acl.ACL
	// Verifiers are the accepted authentication methods.
	Verifiers map[auth.Method]auth.Verifier
	// Hosts resolves peer addresses for the hostname method and for
	// logging.
	Hosts auth.HostTable
	// CatalogAddr, when set, receives UDP heartbeats.
	CatalogAddr string
	// CASTrust, when set, lets clients present community-authorization
	// assertions ("assert" command); verified grants are unioned with
	// the local ACL rights for paths under the granted prefixes.
	CASTrust *auth.CASVerifier
	// Logf, when set, receives one line per request (debugging). It is
	// called concurrently from every connection goroutine and must be
	// safe for concurrent use (log.Printf and testing.T.Logf both are).
	// Lines carry a session id (sid=N) and request sequence (req=M) so
	// interleaved connections stay correlatable.
	Logf func(format string, args ...any)
	// AuthTimeout bounds the authentication dialogue, so an
	// unauthenticated socket cannot pin a server goroutine (default
	// 10 seconds).
	AuthTimeout time.Duration
	// Metrics, when set, is the registry the server records into
	// (per-command requests, errors, sessions, wire bytes). When nil
	// the server keeps a private registry, reachable via Metrics and
	// exported over the wire by the "metrics" command.
	Metrics *obs.Registry
	// RequestTimeout bounds the wire I/O of each request after its
	// command line arrives (payload read and reply write), so a client
	// that announces a payload and stalls cannot pin a session
	// goroutine. Zero means no per-request deadline.
	RequestTimeout time.Duration
	// DedupeCapacity bounds the idempotency-token dedupe table (default
	// 1024 entries, FIFO eviction).
	DedupeCapacity int
	// DedupeMaxBytes bounds the dedupe table's memory footprint
	// (default 8 MiB): large tokened replies under principal churn
	// evict oldest-first once the budget is reached, tracked by the
	// chirp_dedupe_bytes gauge and eviction counter.
	DedupeMaxBytes int64
	// Admission, when set, turns on overload protection: every normal
	// request is admitted against a bounded queue (EBUSY with a
	// retry-after hint once depth or the byte budget is exceeded),
	// scheduled onto execution slots fairly per principal, and shed
	// with EDEADLINE at the admit, dispatch, or durability-barrier hop
	// once its deadline budget expires. Control-plane commands (stats,
	// whoami, metrics, trace, waitlsn, replsub, replack) ride an exempt
	// class so overload can never trigger spurious failover. The server
	// echoes the "deadline" capability to v2 clients that request it.
	// Nil keeps admission off and the hot path unchanged.
	Admission *admission.Controller
	// DedupeJournal, when set, receives every tokened reply as it is
	// recorded, so the dedupe table survives a server restart and a
	// retried mutation stays exactly-once across the crash. Journal
	// failures degrade durability, never availability: the reply is
	// still sent and the error only counted and logged.
	DedupeJournal DedupeJournal
	// DedupeSeed pre-populates the dedupe table, normally with the
	// entries a durable store recovered. Keys are principal+token as
	// produced by the journal; values are the stored reply fields.
	DedupeSeed map[string][]string
	// Durability, when set, is barriered before the reply to any
	// mutating command reaches the wire: with a group-commit store this
	// parks the session until the op's commit group is durable, so an
	// acknowledged mutation can never be lost to a crash. Barrier
	// failures degrade durability, never availability — counted,
	// logged, and the reply still sent (matching the store's own
	// degradation contract). The durable store implements this.
	Durability interface{ Barrier() error }
	// Window is the per-session credit window the server advertises
	// during v2 negotiation: the most tagged requests one session may
	// have in flight at once (default DefaultWindow). The client
	// advertises its own cap and the minimum wins; the server enforces
	// the negotiated window against misbehaving clients too.
	Window int
	// MaxInflightBytes is the in-flight payload byte budget the server
	// advertises during v2 negotiation (default
	// DefaultMaxInflightBytes); the minimum of the two sides wins.
	MaxInflightBytes int64
	// Workers sizes the per-session pool executing non-conflicting v2
	// requests concurrently (default 4). Conflicting ops — descriptor
	// table changes, namespace mutations, tokened requests, exec — run
	// on a single ordered lane that preserves per-session FIFO order.
	Workers int
	// MaxProtocol caps the protocol version the server negotiates: 0 or
	// ProtocolV2 accept tagged v2 sessions, ProtocolV1 pins the server
	// to the lock-step line protocol (simulating an old server; v2
	// clients fall back transparently).
	MaxProtocol int
	// Spans, when set, turns on server-side request tracing: the server
	// echoes the trace capability to v2 clients that request it, strips
	// the per-frame trace prefix, records one "server" span per traced
	// request (lane-queue, handler, barrier and reply phases) into this
	// ring, and serves the "trace" RPC from it. Nil keeps tracing off
	// and the hot path unchanged. Spans are wall-clock only — recording
	// them never touches the virtual clock.
	Spans *obs.SpanRing
	// TraceLog, when set, receives every completed traced server span
	// whose total duration reaches TraceSlow, one JSON object per line
	// (the slow-request log). core.JSONLSink satisfies it. Log failures
	// are counted in the server log, never surfaced to the client.
	TraceLog interface{ RecordValue(v any) error }
	// TraceSlow is the slow-request threshold for TraceLog. Zero logs
	// every traced request — what the tracing end-to-end CI step uses to
	// capture complete chains.
	TraceSlow time.Duration
	// Repl, when set, exposes this server's WAL ship stream: v2
	// sessions that negotiate the "repl" capability may subscribe
	// (replsub) and receive every committed group as a pushed frame.
	// Nil refuses replication subscriptions.
	Repl *replica.Publisher
	// Role, when set, makes the server replication-aware: mutating
	// commands are refused with ENOTPRIMARY (naming the current
	// primary) unless the role is primary, stats and heartbeats carry
	// role/epoch/applied-LSN, and waitlsn serves bounded-staleness read
	// barriers. Nil behaves as a standalone primary.
	Role RoleSource
	// HeartbeatEvery re-announces the server to its catalog on this
	// period, keeping the catalog's freshness and role views live. Zero
	// preserves the single at-listen heartbeat.
	HeartbeatEvery time.Duration
}

// RoleSource reports a server's replication role. replica.Node
// implements it; the server only reads.
type RoleSource interface {
	// Role reports the node's role (replica.RolePrimary et al.) and
	// fencing epoch.
	Role() (string, uint64)
	// AppliedLSN reports the highest LSN applied to local state.
	AppliedLSN() uint64
	// WaitApplied blocks until local state reflects lsn (bounded by
	// timeout) — the waitlsn read barrier.
	WaitApplied(lsn uint64, timeout time.Duration) error
	// PrimaryAddr reports where writes should be sent.
	PrimaryAddr() string
}

// DedupeJournal persists tokened replies across restarts. The durable
// store implements it; the server stays ignorant of how entries reach
// stable storage.
type DedupeJournal interface {
	AppendDedupe(key string, reply []string) error
}

// logger is a structured printf sink that is safe to call when no sink
// is configured, so call sites never nil-check. with() stacks
// correlation prefixes (sid=N, then req=M per line).
type logger struct {
	sink   func(format string, args ...any)
	prefix string
}

func (l logger) printf(format string, args ...any) {
	if l.sink == nil {
		return
	}
	if l.prefix != "" {
		format = l.prefix + " " + format
	}
	l.sink(format, args...)
}

// with returns a logger whose lines carry an additional prefix.
func (l logger) with(prefix string) logger {
	if l.prefix != "" {
		prefix = l.prefix + " " + prefix
	}
	return logger{sink: l.sink, prefix: prefix}
}

// Metric names exported by every server.
const (
	MetricRequests = "chirp_requests_total"
	MetricErrors   = "chirp_errors_total"
	MetricSessions = "chirp_sessions_total"
	MetricRxBytes  = "chirp_rx_bytes_total"
	MetricTxBytes  = "chirp_tx_bytes_total"
	MetricConns    = "chirp_open_conns"
)

// srvMetrics caches the server's metric handles.
type srvMetrics struct {
	reg           *obs.Registry
	errors        *obs.Counter
	sessions      *obs.Counter
	rxBytes       *obs.Counter
	txBytes       *obs.Counter
	conns         *obs.Gauge
	dedupeHits    *obs.Counter
	dedupeEntries *obs.Gauge
	dedupeBytes   *obs.Gauge
	dedupeEvicts  *obs.Counter
	dedupeJErrs   *obs.Counter
	draining      *obs.Gauge
	barrierErrs   *obs.Counter
	poolHits      *obs.Gauge
	poolMisses    *obs.Gauge
	tagsInFlight  *obs.Gauge
	bpStalls      *obs.Counter
	occupancy     *obs.Histogram
	v2Sessions    *obs.Counter
	requestLat    *obs.Histogram
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	reg.Help(MetricRequests, "Requests dispatched, by command.")
	reg.Help(MetricErrors, "Requests answered with an error reply.")
	reg.Help(MetricSessions, "Sessions authenticated since start.")
	reg.Help(MetricRxBytes, "Bytes received on client connections.")
	reg.Help(MetricTxBytes, "Bytes sent on client connections.")
	reg.Help(MetricConns, "Connections currently tracked.")
	reg.Help(MetricDedupeHits, "Tokened retries answered from the dedupe table.")
	reg.Help(MetricDedupeEntries, "Replies currently held in the dedupe table.")
	reg.Help(MetricDedupeBytes, "Approximate bytes held by the dedupe table.")
	reg.Help(MetricDedupeEvictions, "Dedupe entries evicted by the entry or byte bound.")
	reg.Help(MetricDedupeJournalErrs, "Tokened replies that failed to persist to the dedupe journal.")
	reg.Help(MetricDraining, "1 while the server is draining for shutdown.")
	reg.Help(MetricBarrierErrs, "Commit barriers that failed before a mutating reply (durability degraded).")
	reg.Help(MetricPayloadPoolHits, "Payloads served from pooled codec scratch (process-wide).")
	reg.Help(MetricPayloadPoolMisses, "Payloads that had to grow codec scratch (process-wide).")
	reg.Help(MetricTagsInFlight, "Tagged requests currently admitted across v2 sessions.")
	reg.Help(MetricBackpressureStalls, "Frames that waited for credit-window space before dispatch.")
	reg.Help(MetricWindowOccupancy, "Window occupancy observed at each v2 frame admission.")
	reg.Help(MetricV2Sessions, "Sessions that negotiated protocol v2 since start.")
	reg.Help(MetricRequestLatency, "Traced request latency, frame arrival to reply flushed, in microseconds.")
	return &srvMetrics{
		reg:           reg,
		errors:        reg.Counter(MetricErrors),
		sessions:      reg.Counter(MetricSessions),
		rxBytes:       reg.Counter(MetricRxBytes),
		txBytes:       reg.Counter(MetricTxBytes),
		conns:         reg.Gauge(MetricConns),
		dedupeHits:    reg.Counter(MetricDedupeHits),
		dedupeEntries: reg.Gauge(MetricDedupeEntries),
		dedupeBytes:   reg.Gauge(MetricDedupeBytes),
		dedupeEvicts:  reg.Counter(MetricDedupeEvictions),
		dedupeJErrs:   reg.Counter(MetricDedupeJournalErrs),
		draining:      reg.Gauge(MetricDraining),
		barrierErrs:   reg.Counter(MetricBarrierErrs),
		poolHits:      reg.Gauge(MetricPayloadPoolHits),
		poolMisses:    reg.Gauge(MetricPayloadPoolMisses),
		tagsInFlight:  reg.Gauge(MetricTagsInFlight),
		bpStalls:      reg.Counter(MetricBackpressureStalls),
		occupancy:     reg.Histogram(MetricWindowOccupancy, []float64{1, 2, 4, 8, 16, 32, 64}),
		v2Sessions:    reg.Counter(MetricV2Sessions),
		requestLat:    reg.Histogram(MetricRequestLatency, requestLatencyBuckets()),
	}
}

// Negotiation caps with defaults applied.
func (s *Server) window() int {
	if s.opts.Window > 0 {
		return s.opts.Window
	}
	return DefaultWindow
}

func (s *Server) maxInflightBytes() int64 {
	if s.opts.MaxInflightBytes > 0 {
		return s.opts.MaxInflightBytes
	}
	return DefaultMaxInflightBytes
}

func (s *Server) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return 4
}

func (s *Server) maxProtocol() int {
	if s.opts.MaxProtocol > 0 {
		return s.opts.MaxProtocol
	}
	return ProtocolV2
}

// Server is a Chirp file server exporting the file system of a simulated
// kernel. It requires no privilege to run: deploying one is an
// ordinary-user operation, and visiting users are admitted purely by
// ACL policy over their authenticated identities.
// Connection goroutines share only the kernel/VFS (internally locked),
// the connection registry under s.mu, and atomic counters; every other
// piece of session state (descriptor table, CAS grants, codec) is owned
// by its single connection goroutine.
type Server struct {
	k    *kernel.Kernel
	fs   *vfs.FS
	opts ServerOptions

	ln       net.Listener
	mu       sync.Mutex // guards closed, draining and conns
	closed   bool
	draining bool // refusing new connections, finishing in-flight RPCs
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	stop     chan struct{} // closed once, when Close or Shutdown begins
	stopOnce sync.Once

	log     logger
	metrics *srvMetrics
	dedupe  *dedupeTable

	requests atomic.Int64 // requests dispatched, across all sessions
	sessions atomic.Int64 // authenticated sessions accepted, lifetime
	errors   atomic.Int64 // error replies sent, across all sessions
	rxBytes  atomic.Int64 // wire bytes received from clients
	txBytes  atomic.Int64 // wire bytes sent to clients
}

// NewServer creates a server exporting k's file system. The root ACL is
// installed if the export root has none.
func NewServer(k *kernel.Kernel, opts ServerOptions) (*Server, error) {
	if opts.Owner == "" {
		opts.Owner = "chirp"
	}
	s := &Server{k: k, fs: k.FS(), opts: opts, conns: make(map[net.Conn]*connState), stop: make(chan struct{})}
	s.log = logger{sink: opts.Logf}
	s.dedupe = newDedupeTable(opts.DedupeCapacity, opts.DedupeMaxBytes)
	for key, reply := range opts.DedupeSeed {
		s.dedupe.store(key, reply)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newSrvMetrics(reg)
	if _, size := s.dedupe.stats(); size > 0 {
		s.syncDedupeMetrics()
	}
	if opts.RootACL != nil && !s.fs.Exists("/"+acl.FileName) {
		if err := s.fs.WriteFile("/"+acl.FileName, []byte(opts.RootACL.String()), 0o644, opts.Owner); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Listen binds the server to addr ("127.0.0.1:0" for an ephemeral port)
// and begins serving in background goroutines.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.opts.Name == "" {
		s.opts.Name = ln.Addr().String()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.opts.CatalogAddr != "" {
		s.SendHeartbeat()
		if every := s.opts.HeartbeatEvery; every > 0 {
			s.wg.Add(1)
			go s.heartbeatLoop(every)
		}
	}
	return nil
}

// heartbeatLoop re-announces the server to the catalog until shutdown,
// so the catalog's last-seen ages and role views stay fresh.
func (s *Server) heartbeatLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.SendHeartbeat(); err != nil {
				s.log.printf("heartbeat: %v", err)
			}
		}
	}
}

// Addr reports the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, severs live sessions immediately, and waits
// for the connection goroutines to drain. For a graceful stop that
// lets in-flight RPCs finish, use Shutdown.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	already := s.closed
	s.closed = true
	conns := make(map[net.Conn]*connState, len(s.conns))
	for c, st := range s.conns {
		conns[c] = st
	}
	s.mu.Unlock()
	// Sever outside s.mu: the abort hook takes the session slot mutex,
	// which workers hold while consulting server state.
	for c, st := range conns {
		st.sever()
		c.Close()
	}
	var err error
	if s.ln != nil && !already {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, lets every in-flight RPC finish, nudges idle sessions
// off their blocking reads, and waits up to timeout for the connection
// goroutines to exit before severing stragglers. It returns an error
// if any session had to be severed.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	s.metrics.draining.Set(1)
	ln := s.ln
	for c, st := range s.conns {
		if !st.busy.Load() {
			// An idle session is parked in readLine; expiring its read
			// deadline pops it out so the goroutine can exit. Busy
			// sessions notice draining after their current dispatch.
			c.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	severed := false
	select {
	case <-done:
	case <-time.After(timeout):
		severed = true
	}
	s.mu.Lock()
	s.closed = true
	conns := make(map[net.Conn]*connState, len(s.conns))
	for c, st := range s.conns {
		conns[c] = st
	}
	s.mu.Unlock()
	for c, st := range conns {
		st.sever()
		c.Close()
	}
	s.wg.Wait()
	if severed {
		return fmt.Errorf("chirp: drain timed out after %v; severed remaining sessions", timeout)
	}
	return lnErr
}

// connState is the server's per-connection bookkeeping shared with the
// drain path: busy is true while a request is being dispatched, and
// abort (set once a session upgrades to v2) wakes waiters parked on
// the session's credit window when the server severs the connection.
type connState struct {
	busy  atomic.Bool
	abort atomic.Value // func(), set by v2 sessions
}

// sever calls the session's abort hook, if one is registered.
func (st *connState) sever() {
	if f, ok := st.abort.Load().(func()); ok {
		f()
	}
}

// track registers a live connection; it reports nil when the server is
// closing or draining (the caller should drop the connection).
func (s *Server) track(c net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil
	}
	st := &connState{}
	s.conns[c] = st
	s.metrics.conns.Inc()
	return st
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.conns.Dec()
}

// SendHeartbeat reports the server to its catalog over UDP. A
// replication-aware server (opts.Role set) appends epoch/lsn/role
// tokens; an old catalog ignores trailing tokens it does not know.
func (s *Server) SendHeartbeat() error {
	if s.opts.CatalogAddr == "" {
		return errors.New("chirp: no catalog configured")
	}
	conn, err := net.Dial("udp", s.opts.CatalogAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	line := fmt.Sprintf("chirp %s %s %s", q(s.opts.Name), q(s.Addr()), q(s.opts.Owner))
	if rs := s.opts.Role; rs != nil {
		role, epoch := rs.Role()
		line += fmt.Sprintf(" epoch=%d lsn=%d role=%s", epoch, rs.AppliedLSN(), role)
	}
	_, err = fmt.Fprintln(conn, line)
	return err
}

// ReseedDedupe folds entries — the dedupe journal a durable store
// recovered — into the live dedupe table. A promoted follower calls it
// so tokened retries the old primary already answered replay here
// instead of re-executing: the journal replicated with the WAL, so the
// table converges on exactly the replies the old primary acknowledged.
func (s *Server) ReseedDedupe(entries map[string][]string) {
	for key, reply := range entries {
		s.dedupe.store(key, reply)
	}
	if _, size := s.dedupe.stats(); size > 0 {
		s.syncDedupeMetrics()
	}
}

// syncDedupeMetrics mirrors the dedupe table's size gauges. The
// eviction counter is advanced at each store by its return value, not
// here, so it stays monotonic under concurrent sessions.
func (s *Server) syncDedupeMetrics() {
	_, size := s.dedupe.stats()
	bytes, _ := s.dedupe.byteStats()
	s.metrics.dedupeEntries.Set(int64(size))
	s.metrics.dedupeBytes.Set(bytes)
}

// countingConn wraps a client connection so every wire byte — including
// the authentication dialogue — lands in the server's traffic counters.
type countingConn struct {
	net.Conn
	s *Server
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.s.rxBytes.Add(int64(n))
		c.s.metrics.rxBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.s.txBytes.Add(int64(n))
		c.s.metrics.txBytes.Add(int64(n))
	}
	return n, err
}

// Metrics returns the registry the server records into (the one
// supplied via ServerOptions.Metrics, or the server's private one).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return
			}
			log.Printf("chirp: accept: %v", err)
			return
		}
		st := s.track(conn)
		if st == nil {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn, st)
		}()
	}
}

// session is one authenticated connection.
//
// On a v1 session everything is owned by the single connection
// goroutine. A session that upgrades to v2 becomes concurrent: the
// reader goroutine owns the codec's read side, workers share the write
// side under writeMu, and the descriptor table and CAS grants get their
// own RWMutexes. Lock order: fdMu and grantsMu are leaves (nothing else
// is acquired under them); writeMu is taken only around one frame's
// queue+flush and never with another session lock held.
type session struct {
	s     *Server
	id    int64 // session sequence number, for log correlation
	log   logger
	reqs  int64 // requests dispatched on this session (reader-owned)
	ident identity.Principal
	conn  net.Conn   // for per-request deadlines
	state *connState // busy flag shared with the drain path
	c     *codec

	fdMu   sync.RWMutex // guards fds and nextFD
	fds    map[int]*sessionFD
	nextFD int

	// grants are CAS-granted rights, verified against CASTrust.
	grantsMu sync.RWMutex
	grants   []auth.Grant

	// pendingDedupe, when non-empty, is the dedupe key the next reply is
	// stored under (v1 lock-step path only; the v2 path threads the key
	// through per-request state instead).
	pendingDedupe string
	// needBarrier marks the in-flight request as mutating: its reply
	// must wait for the durability barrier before hitting the wire (v1
	// path only, as above).
	needBarrier bool

	// upgraded is set by a successful version exchange; the session loop
	// switches to the v2 frame loop after the ok reply goes out.
	upgraded *v2Conf

	// v2 credit-window state: slotMu/slotCond gate frame admission so at
	// most window requests are in flight per session. stopping is set
	// by abort() when the server severs the connection: it wakes a
	// reader parked on a full window and tells the lane workers to
	// drop queued jobs instead of executing them toward a dead socket.
	slotMu   sync.Mutex
	slotCond *sync.Cond
	inflight int
	stopping bool

	writeMu sync.Mutex // serializes v2 reply frames on the shared codec

	// replOK records that this session negotiated the repl capability
	// (written before the v2 workers start, read-only after). replSub is
	// the session's live replication subscription; pushWG tracks its
	// pusher goroutine so the codec is not released under it.
	replOK  bool
	replMu  sync.Mutex
	replSub *replica.Subscription
	pushWG  sync.WaitGroup
}

// v2Conf is the outcome of a version negotiation.
type v2Conf struct {
	window    int
	maxBytes  int64
	traced    bool // both sides negotiated the trace capability
	repl      bool // both sides negotiated the repl capability
	deadlined bool // both sides negotiated the deadline capability
}

// --- session state accessors (v2 workers run concurrently) -------------

func (sess *session) lookupFD(fd int) (*sessionFD, bool) {
	sess.fdMu.RLock()
	d, ok := sess.fds[fd]
	sess.fdMu.RUnlock()
	return d, ok
}

func (sess *session) addFD(d *sessionFD) int {
	sess.fdMu.Lock()
	fd := sess.nextFD
	sess.nextFD++
	sess.fds[fd] = d
	sess.fdMu.Unlock()
	return fd
}

func (sess *session) removeFD(fd int) bool {
	sess.fdMu.Lock()
	_, ok := sess.fds[fd]
	if ok {
		delete(sess.fds, fd)
	}
	sess.fdMu.Unlock()
	return ok
}

func (sess *session) fdCount() int {
	sess.fdMu.RLock()
	defer sess.fdMu.RUnlock()
	return len(sess.fds)
}

func (sess *session) grantCount() int {
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	return len(sess.grants)
}

type sessionFD struct {
	h     *vfs.Handle
	path  string
	flags int
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	remoteHost, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
	wire := countingConn{Conn: conn, s: s}
	authTimeout := s.opts.AuthTimeout
	if authTimeout <= 0 {
		authTimeout = 10 * time.Second
	}
	if err := conn.SetDeadline(time.Now().Add(authTimeout)); err != nil {
		s.log.printf("setting auth deadline for %s: %v", remoteHost, err)
	}
	ac := auth.NewConn(wire)
	ident, err := auth.ServerNegotiate(ac, s.opts.Verifiers, remoteHost)
	if err != nil {
		s.log.printf("auth failed from %s: %v", remoteHost, err)
		return
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		s.log.printf("clearing auth deadline for %s: %v", remoteHost, err)
		return
	}
	sid := s.sessions.Add(1)
	s.metrics.sessions.Inc()
	sess := &session{
		s:      s,
		id:     sid,
		log:    s.log.with(fmt.Sprintf("sid=%d", sid)),
		ident:  ident,
		conn:   conn,
		state:  st,
		c:      newCodec(wire),
		fds:    make(map[int]*sessionFD),
		nextFD: 1,
	}
	sess.slotCond = sync.NewCond(&sess.slotMu)
	sess.log.printf("session for %s from %s", ident, remoteHost)
	sess.loop()
	sess.closeReplSub()
	sess.pushWG.Wait() // the pusher writes through the codec; outlast it
	sess.c.release()
}

// closeReplSub detaches the session's replication subscription, waking
// its pusher goroutine if one is blocked waiting for batches.
func (sess *session) closeReplSub() {
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replSub = nil
	sess.replMu.Unlock()
	if sub != nil {
		sub.Close()
	}
}

// isDraining reports whether the server has begun a graceful shutdown.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (sess *session) loop() {
	for {
		if sess.s.isDraining() {
			return // finish in-flight work, accept no more requests
		}
		line, err := sess.c.readLine()
		if err != nil {
			return // connection closed (or drain nudge expired the read)
		}
		sess.state.busy.Store(true)
		err = sess.serveOne(line)
		sess.state.busy.Store(false)
		if err != nil {
			return // transport error
		}
		if up := sess.upgraded; up != nil {
			// The version exchange succeeded lock-step; everything from
			// here on is tagged frames.
			sess.upgraded = nil
			sess.loopV2(up)
			return
		}
	}
}

// serveOne handles one request line under the per-request deadline,
// which bounds the remaining wire I/O of the exchange (payload read and
// reply write) once the command line has arrived.
func (sess *session) serveOne(line string) error {
	if rt := sess.s.opts.RequestTimeout; rt > 0 {
		if err := sess.conn.SetDeadline(time.Now().Add(rt)); err != nil {
			sess.log.printf("setting request deadline: %v", err)
		}
		defer func() {
			if err := sess.conn.SetDeadline(time.Time{}); err != nil {
				sess.log.printf("clearing request deadline: %v", err)
			}
		}()
	}
	fields, err := splitFields(line)
	if err != nil || len(fields) == 0 {
		return sess.fail(vfs.ErrInvalid, "malformed request")
	}
	if fields[0] == "quit" {
		sess.c.writeLine("ok")
		return errQuit
	}
	if fields[0] == "version" {
		return sess.serveVersion(fields[1:])
	}
	return sess.dispatch(fields)
}

// serveVersion answers the protocol negotiation a v2 client opens with.
// The exchange is lock-step: one counted request, one reply. A server
// pinned to v1 answers ENOSYS exactly as an old binary (which has no
// "version" case at all) would, and the client falls back.
func (sess *session) serveVersion(args []string) error {
	s := sess.s
	s.requests.Add(1)
	sess.reqs++
	s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", "version")).Inc()
	sess.log.printf("req=%d %s: version %v", sess.reqs, sess.ident, args)
	if s.maxProtocol() < ProtocolV2 {
		return sess.fail(kernel.ErrNoSys, "unknown command version")
	}
	v, w, b, caps, err := parseVersionArgs(args)
	if err != nil || v < ProtocolV2 {
		return sess.fail(vfs.ErrInvalid, "bad version exchange")
	}
	window := s.window()
	if w < window {
		window = w
	}
	maxBytes := s.maxInflightBytes()
	if b < maxBytes {
		maxBytes = b
	}
	// Capability tokens: echoed only when both sides support them, so a
	// client never sends trace context to a server that cannot strip it.
	traced := s.opts.Spans != nil && hasCap(caps, capTrace)
	repl := s.opts.Repl != nil && hasCap(caps, capRepl)
	deadlined := s.opts.Admission != nil && hasCap(caps, capDeadline)
	okFields := []string{strconv.Itoa(ProtocolV2), strconv.Itoa(window), strconv.FormatInt(maxBytes, 10)}
	if traced {
		okFields = append(okFields, capTrace)
	}
	if repl {
		okFields = append(okFields, capRepl)
	}
	if deadlined {
		okFields = append(okFields, capDeadline)
	}
	if err := sess.ok(okFields...); err != nil {
		return err
	}
	sess.upgraded = &v2Conf{window: window, maxBytes: maxBytes, traced: traced, repl: repl, deadlined: deadlined}
	return nil
}

// errQuit signals an orderly client farewell out of the session loop.
var errQuit = errors.New("chirp: session quit")

// reply writes a reply line, first recording it in the dedupe table —
// and the dedupe journal, when one is configured — when a tokened
// request is in flight. The journal write happens before the reply
// reaches the wire: once the client can see the answer, it is durable,
// so a retry after a server crash replays instead of re-executing.
//
// Mutating commands (needBarrier) additionally wait for the durability
// barrier before the line hits the wire: the mutation is committed in
// memory, but the acknowledgement must not outrun the log. The dedupe
// journal append barriers on its own entry, which subsumes the explicit
// barrier when both are configured.
func (sess *session) reply(fields []string) error {
	key, barrier := sess.pendingDedupe, sess.needBarrier
	sess.pendingDedupe, sess.needBarrier = "", false
	sess.finishReply(fields, key, barrier)
	return sess.c.writeLine(fields...)
}

// finishReply performs the pre-wire bookkeeping shared by both
// protocol paths: the durability barrier for mutating requests, the
// pool-counter mirror, and dedupe recording for tokened requests. The
// journal write happens before the reply reaches the wire — once the
// client can see the answer, it is durable.
func (sess *session) finishReply(fields []string, dedupeKey string, barrier bool) {
	if barrier {
		sess.barrierBeforeReply(dedupeKey, false)
	}
	sess.recordReply(fields, dedupeKey)
}

// tracedDurability is the optional extension of the Durability barrier
// a tracing server probes for: internal/durable's Store implements it,
// reporting how long the caller waited and the covering commit group's
// write+fsync latency, so a trace can show WAL time explicitly.
type tracedDurability interface {
	BarrierTraced() (wait, commit time.Duration, err error)
}

// barrierBeforeReply runs the durability barrier for a mutating reply,
// unless a dedupe-journal append subsumes it: a tokened reply about to
// be journaled waits on its own dedupe entry, appended after this
// request's mutations — that wait covers them, so the explicit barrier
// would only double it. With traced set it prefers the timing-aware
// barrier, reporting the wait and the covering group's commit latency.
func (sess *session) barrierBeforeReply(dedupeKey string, traced bool) (wait, commit time.Duration) {
	journaled := dedupeKey != "" && sess.s.opts.DedupeJournal != nil
	d := sess.s.opts.Durability
	if d == nil || journaled {
		return 0, 0
	}
	var err error
	if td, ok := d.(tracedDurability); ok && traced {
		wait, commit, err = td.BarrierTraced()
	} else {
		err = d.Barrier()
	}
	if err != nil {
		sess.s.metrics.barrierErrs.Inc()
		sess.log.printf("commit barrier failed (durability degraded): %v", err)
	}
	return wait, commit
}

// recordReply is the non-barrier half of the pre-wire bookkeeping: the
// pool-counter mirror and dedupe recording for tokened requests.
func (sess *session) recordReply(fields []string, dedupeKey string) {
	sess.s.metrics.poolHits.Set(poolHits.Load())
	sess.s.metrics.poolMisses.Set(poolMisses.Load())
	if dedupeKey != "" {
		if evicted := sess.s.dedupe.store(dedupeKey, fields); evicted > 0 {
			sess.s.metrics.dedupeEvicts.Add(int64(evicted))
		}
		if j := sess.s.opts.DedupeJournal; j != nil {
			if err := j.AppendDedupe(dedupeKey, fields); err != nil {
				sess.s.metrics.dedupeJErrs.Inc()
				sess.log.printf("dedupe journal append failed: %v", err)
			}
		}
		sess.s.syncDedupeMetrics()
	}
}

// hres is one handled request's outcome: a complete reply line
// (starting "ok" or "err") plus an optional counted payload. The
// handler produces it; the protocol paths deliver it (v1 as a line +
// payload, v2 as a tagged frame).
type hres struct {
	fields []string
	body   []byte
}

// okres builds a success result.
func okres(fields ...string) hres {
	return hres{fields: append([]string{"ok"}, fields...)}
}

// failf builds an error result, counting it.
func (sess *session) failf(err error, context string) hres {
	msg := context
	if err != nil {
		msg = err.Error()
	}
	sess.s.errors.Add(1)
	sess.s.metrics.errors.Inc()
	return hres{fields: []string{"err", nameForError(err), q(msg)}}
}

// ok sends a success reply (v1 path).
func (sess *session) ok(fields ...string) error {
	return sess.reply(append([]string{"ok"}, fields...))
}

// fail sends an error reply (v1 path).
func (sess *session) fail(err error, context string) error {
	return sess.reply(sess.failf(err, context).fields)
}

// roleRefusal reports the refusal for a mutating command when this
// server is not the primary replica (a follower, or a fenced former
// primary), nil when the command may proceed. The error message names
// the current primary so a failover-aware client can re-target; this
// check is the server half of epoch fencing — a deposed primary
// answers every write with it, no matter how stale its own view is.
func (sess *session) roleRefusal(cmd string, args []string) *hres {
	rs := sess.s.opts.Role
	if rs == nil || !mutatingCmds[cmd] {
		return nil
	}
	if cmd == "open" && len(args) >= 1 {
		// A read-only open without create/truncate mutates nothing, and
		// followers must serve it: bounded-staleness reads (waitlsn +
		// get) are the whole point of read replicas.
		if flags, err := strconv.Atoi(args[0]); err == nil &&
			flags&3 == kernel.ORdonly && flags&(kernel.OCreat|kernel.OTrunc) == 0 {
			return nil
		}
	}
	role, _ := rs.Role()
	if role == "" || role == replica.RolePrimary {
		return nil
	}
	err := ErrNotPrimary
	if p := rs.PrimaryAddr(); p != "" {
		err = fmt.Errorf("%w (%s); primary is %s", ErrNotPrimary, role, p)
	}
	res := sess.failf(err, "not primary")
	return &res
}

// PrimaryFromError extracts the primary address a server named in an
// ENOTPRIMARY refusal, or "" when the error is something else (or the
// refusing server did not know the holder).
func PrimaryFromError(err error) string {
	var re *RemoteError
	if !errors.As(err, &re) || !errors.Is(err, ErrNotPrimary) {
		return ""
	}
	const marker = "primary is "
	i := strings.LastIndex(re.Message, marker)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(re.Message[i+len(marker):])
}

// RequestCount reports the number of requests dispatched across all
// sessions since the server started.
func (s *Server) RequestCount() int64 { return s.requests.Load() }

// SessionCount reports the number of sessions authenticated since the
// server started (not just the currently live ones).
func (s *Server) SessionCount() int64 { return s.sessions.Load() }

// ErrorCount reports the number of error replies sent since the server
// started.
func (s *Server) ErrorCount() int64 { return s.errors.Load() }

// mutatingCmds lists the commands that can change durable state; their
// replies wait on the durability barrier (see session.reply). open is
// included because OCreat/OTrunc create or truncate, exec because
// staged programs write output files.
var mutatingCmds = map[string]bool{
	"open":     true,
	"pwrite":   true,
	"mkdir":    true,
	"rmdir":    true,
	"unlink":   true,
	"rename":   true,
	"link":     true,
	"symlink":  true,
	"truncate": true,
	"setacl":   true,
	"exec":     true,
}

// tokenable lists the commands a request token may wrap: non-idempotent
// mutations with line-only replies. Session-state commands (open,
// close) are excluded — a replayed descriptor number would point into a
// different session — as are payload-reply commands, whose body is not
// captured by the dedupe table.
var tokenable = map[string]bool{
	"exec":     true,
	"rename":   true,
	"link":     true,
	"symlink":  true,
	"mkdir":    true,
	"rmdir":    true,
	"unlink":   true,
	"truncate": true,
	"pwrite":   true,
	"setacl":   true,
}

// consumeRequestPayload reads (and discards) the counted payload that
// accompanies cmd's request line, so a dedupe-hit replay leaves the
// wire aligned for the next request.
func (sess *session) consumeRequestPayload(cmd string, args []string) error {
	var idx int
	switch cmd {
	case "pwrite":
		idx = 2
	case "setacl":
		idx = 1
	default:
		return nil
	}
	if len(args) <= idx {
		return nil
	}
	n, err := strconv.Atoi(args[idx])
	if err != nil || n < 0 || n > MaxPayload {
		return nil
	}
	_, err = sess.c.readPayload(n)
	return err
}

// dispatchTokened handles `token <id> <cmd> ...`: if the (principal,
// token) pair was already answered, the stored reply is replayed
// without re-executing the command; otherwise the inner command runs
// and its reply is recorded. This is what makes retrying a
// non-idempotent request safe: a lost reply does not become a second
// execution.
func (sess *session) dispatchTokened(args []string) error {
	s := sess.s
	if len(args) < 2 {
		s.requests.Add(1)
		sess.reqs++
		s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", "token")).Inc()
		return sess.fail(vfs.ErrInvalid, "token wants a token and a command")
	}
	token, inner := args[0], args[1:]
	cmd := inner[0]
	if !tokenable[cmd] {
		s.requests.Add(1)
		sess.reqs++
		s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", cmd)).Inc()
		return sess.fail(vfs.ErrInvalid, "command not tokenable: "+cmd)
	}
	key := dedupeKey(sess.ident.String(), token)
	if stored, hit := s.dedupe.lookup(key); hit {
		s.requests.Add(1)
		sess.reqs++
		s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", cmd)).Inc()
		s.metrics.dedupeHits.Inc()
		if err := sess.consumeRequestPayload(cmd, inner[1:]); err != nil {
			return err
		}
		sess.log.printf("req=%d %s: %s (token %s) replayed from dedupe", sess.reqs, sess.ident, cmd, token)
		return sess.c.writeLine(stored...)
	}
	sess.pendingDedupe = key
	err := sess.dispatch(inner)
	sess.pendingDedupe = "" // cleared by reply(); re-clear on transport error
	return err
}

func (sess *session) dispatch(fields []string) error {
	cmd, args := fields[0], fields[1:]
	s := sess.s
	if cmd == "token" {
		return sess.dispatchTokened(args)
	}
	s.requests.Add(1)
	sess.reqs++
	s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", cmd)).Inc()
	sess.log.printf("req=%d %s: %s %v", sess.reqs, sess.ident, cmd, args)
	if s.opts.Durability != nil && mutatingCmds[cmd] {
		sess.needBarrier = true
	}
	var payload []byte
	if n, ok := requestPayloadSpec(cmd, args); ok {
		// The request announces a counted payload and the line is well
		// formed enough to say how long; read it before dispatch, as the
		// lock-step protocol always has. A malformed line reads nothing
		// and the handler fails it, leaving the wire where v1 left it.
		data, err := sess.c.readPayload(n)
		if err != nil {
			return err // transport failure mid-payload
		}
		payload = data
	}
	if rr := sess.roleRefusal(cmd, args); rr != nil {
		// Not the primary: refuse after the payload is consumed (wire
		// stays aligned) and without touching dedupe — the retry belongs
		// to whichever server holds the lease, not this table.
		sess.pendingDedupe, sess.needBarrier = "", false
		return sess.reply(rr.fields)
	}
	res := sess.handle(cmd, args, payload, sess.c.scratchBuf, 0)
	if err := sess.reply(res.fields); err != nil {
		return err
	}
	if res.body != nil {
		return sess.c.writePayload(res.body)
	}
	return nil
}

// requestPayloadSpec reports the counted request payload cmd's line
// announces, when the line is well-formed enough to announce one. A
// malformed line (wrong arg count, out-of-range length) reports none:
// the handler fails it without any payload having been consumed,
// exactly as the v1 dispatch ordered its checks.
func requestPayloadSpec(cmd string, args []string) (n int, ok bool) {
	switch cmd {
	case "pwrite": // pwrite <fd> <off> <len>
		if len(args) != 3 {
			return 0, false
		}
		n, _ := strconv.Atoi(args[2])
		if n < 0 || n > MaxPayload {
			return 0, false
		}
		return n, true
	case "setacl": // setacl <path> <len>
		if len(args) != 2 {
			return 0, false
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 0 || n > 1<<20 {
			return 0, false
		}
		return n, true
	case "assert": // assert <len>
		if len(args) != 1 {
			return 0, false
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 || n > 1<<20 {
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// handle executes one request and produces its reply. It is shared by
// the v1 lock-step path and the v2 worker lanes, so it touches no wire
// state: the request payload arrives pre-read, and pread reply bodies
// are built in the buf the caller supplies (codec scratch for v1, a
// per-worker pooled scratch for v2). Session state goes through the
// fdMu/grantsMu accessors, making concurrent v2 execution safe.
//
// trace is the request's trace ID (zero when untraced); mutating
// commands stamp it onto the journal mutations they emit so a trace
// can be followed into the WAL group-commit pipeline. A zero-trace
// view is the plain FS, so untraced behavior is unchanged.
func (sess *session) handle(cmd string, args []string, payload []byte, buf func(int) []byte, trace uint64) hres {
	s := sess.s
	tfs := s.fs.Traced(trace)
	switch cmd {
	case "whoami":
		return okres(q(sess.ident.String()))

	case "stats": // server-side counters for this session and globally
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		fields := []string{
			strconv.Itoa(conns),
			strconv.Itoa(sess.fdCount()),
			strconv.Itoa(sess.grantCount()),
			q(s.opts.Name),
			strconv.FormatInt(s.requests.Load(), 10),
			strconv.FormatInt(s.errors.Load(), 10),
			strconv.FormatInt(s.sessions.Load(), 10),
			strconv.FormatInt(s.rxBytes.Load(), 10),
			strconv.FormatInt(s.txBytes.Load(), 10),
		}
		// Replication-aware servers append role, epoch and applied LSN;
		// old clients that expect exactly nine fields never see them
		// because a nil Role keeps the classic shape.
		if rs := s.opts.Role; rs != nil {
			role, epoch := rs.Role()
			fields = append(fields,
				q(role),
				strconv.FormatUint(epoch, 10),
				strconv.FormatUint(rs.AppliedLSN(), 10))
		}
		return okres(fields...)

	case "waitlsn": // waitlsn <lsn> <timeoutms>: bounded-staleness read barrier
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "waitlsn wants lsn and timeout")
		}
		lsn, err1 := strconv.ParseUint(args[0], 10, 64)
		ms, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil || ms < 0 {
			return sess.failf(vfs.ErrInvalid, "bad waitlsn args")
		}
		rs := s.opts.Role
		if rs == nil {
			// A standalone server's state is always authoritative.
			return okres("0")
		}
		if err := rs.WaitApplied(lsn, time.Duration(ms)*time.Millisecond); err != nil {
			return sess.failf(err, "waitlsn")
		}
		return okres(strconv.FormatUint(rs.AppliedLSN(), 10))

	case "metrics": // full registry as a counted text-exposition payload
		text := s.metrics.reg.Text()
		return hres{fields: []string{"ok", strconv.Itoa(len(text))}, body: []byte(text)}

	case "trace": // trace <id>: server-side spans for one trace, as JSON
		if len(args) != 1 {
			return sess.failf(vfs.ErrInvalid, "trace wants a trace id")
		}
		id, err := obs.ParseTraceID(args[0])
		if err != nil || id == 0 {
			return sess.failf(vfs.ErrInvalid, "bad trace id")
		}
		// A nil ring (tracing not enabled) yields no spans, same as an
		// unknown ID: an empty JSON array, not an error.
		data, err := json.Marshal(s.opts.Spans.Trace(id))
		if err != nil {
			return sess.failf(vfs.ErrInvalid, "trace encode")
		}
		return hres{fields: []string{"ok", strconv.Itoa(len(data))}, body: data}

	case "open": // open <flags> <mode> <path>
		if len(args) != 3 {
			return sess.failf(vfs.ErrInvalid, "open wants 3 args")
		}
		flags, err1 := strconv.Atoi(args[0])
		mode, err2 := strconv.ParseUint(args[1], 8, 32)
		if err1 != nil || err2 != nil {
			return sess.failf(vfs.ErrInvalid, "bad open args")
		}
		fd, err := sess.open(args[2], flags, uint32(mode), trace)
		if err != nil {
			return sess.failf(err, "open")
		}
		return okres(strconv.Itoa(fd))

	case "close":
		fd, err := strconv.Atoi(args[0])
		if err != nil {
			return sess.failf(vfs.ErrInvalid, "bad fd")
		}
		if !sess.removeFD(fd) {
			return sess.failf(kernel.ErrBadFD, "close")
		}
		return okres()

	case "pread": // pread <fd> <len> <off>
		if len(args) != 3 {
			return sess.failf(vfs.ErrInvalid, "pread wants 3 args")
		}
		fd, _ := strconv.Atoi(args[0])
		n, _ := strconv.Atoi(args[1])
		off, _ := strconv.ParseInt(args[2], 10, 64)
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(kernel.ErrBadFD, "pread")
		}
		if n < 0 || n > MaxPayload {
			return sess.failf(vfs.ErrInvalid, "pread size")
		}
		// Pooled scratch: the payload is written to the wire before the
		// caller's scratch is reused.
		b := buf(n)
		rn, err := d.h.ReadAt(b, off)
		if err != nil {
			return sess.failf(err, "pread")
		}
		return hres{fields: []string{"ok", strconv.Itoa(rn)}, body: b[:rn]}

	case "pwrite": // pwrite <fd> <off> <len> + payload
		if len(args) != 3 {
			return sess.failf(vfs.ErrInvalid, "pwrite wants 3 args")
		}
		fd, _ := strconv.Atoi(args[0])
		off, _ := strconv.ParseInt(args[1], 10, 64)
		n, _ := strconv.Atoi(args[2])
		if n < 0 || n > MaxPayload {
			return sess.failf(vfs.ErrInvalid, "pwrite size")
		}
		if len(payload) != n {
			return sess.failf(vfs.ErrInvalid, "pwrite payload length mismatch")
		}
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(kernel.ErrBadFD, "pwrite")
		}
		if d.flags&3 == kernel.ORdonly {
			return sess.failf(kernel.ErrBadFD, "fd not writable")
		}
		wn, err := d.h.WriteAtTraced(payload, off, trace)
		if err != nil {
			return sess.failf(err, "pwrite")
		}
		return okres(strconv.Itoa(wn))

	case "fstat":
		fd, _ := strconv.Atoi(args[0])
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(kernel.ErrBadFD, "fstat")
		}
		return okres(statFields(d.h.Stat())...)

	case "stat", "lstat":
		if len(args) != 1 {
			return sess.failf(vfs.ErrInvalid, "stat wants a path")
		}
		if err := sess.checkF(args[0], acl.List); err != nil {
			return sess.failf(err, "stat")
		}
		var st vfs.Stat
		var err error
		if cmd == "stat" {
			st, err = s.fs.Stat(args[0])
		} else {
			st, err = s.fs.Lstat(args[0])
		}
		if err != nil {
			return sess.failf(err, "stat")
		}
		return okres(statFields(st)...)

	case "getdir":
		if err := sess.checkD(args[0], acl.List); err != nil {
			return sess.failf(err, "getdir")
		}
		ents, err := s.fs.ReadDir(args[0])
		if err != nil {
			return sess.failf(err, "getdir")
		}
		out := make([]string, 0, 2*len(ents)+1)
		out = append(out, strconv.Itoa(len(ents)))
		for _, e := range ents {
			out = append(out, q(e.Name), strconv.Itoa(int(e.Type)))
		}
		return okres(out...)

	case "mkdir": // mkdir <mode> <path>
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "mkdir wants 2 args")
		}
		mode, err := strconv.ParseUint(args[0], 8, 32)
		if err != nil {
			return sess.failf(vfs.ErrInvalid, "bad mode")
		}
		if err := sess.mkdir(args[1], uint32(mode), trace); err != nil {
			return sess.failf(err, "mkdir")
		}
		return okres()

	case "rmdir":
		if err := sess.checkF(args[0], acl.Write); err != nil {
			return sess.failf(err, "rmdir")
		}
		// A directory holding only its ACL file counts as empty: the
		// ACL is removed with the directory.
		if ents, lerr := s.fs.ReadDir(args[0]); lerr == nil &&
			len(ents) == 1 && ents[0].Name == acl.FileName {
			if uerr := tfs.Unlink(vfs.Join(args[0], acl.FileName)); uerr != nil {
				return sess.failf(uerr, "rmdir")
			}
		}
		if err := tfs.Rmdir(args[0]); err != nil {
			return sess.failf(err, "rmdir")
		}
		return okres()

	case "unlink":
		if err := sess.checkACLFileWrite(args[0]); err != nil {
			return sess.failf(err, "unlink")
		}
		if err := tfs.Unlink(args[0]); err != nil {
			return sess.failf(err, "unlink")
		}
		return okres()

	case "rename":
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "rename wants 2 args")
		}
		if err := sess.checkACLFileWrite(args[0]); err != nil {
			return sess.failf(err, "rename")
		}
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(err, "rename")
		}
		if err := tfs.Rename(args[0], args[1]); err != nil {
			return sess.failf(err, "rename")
		}
		return okres()

	case "link": // link <old> <new>: refuse links to unreadable files
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "link wants 2 args")
		}
		if err := sess.checkF(args[0], acl.Read); err != nil {
			return sess.failf(err, "link")
		}
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(err, "link")
		}
		if err := tfs.Link(args[0], args[1]); err != nil {
			return sess.failf(err, "link")
		}
		return okres()

	case "symlink": // symlink <target> <link>
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "symlink wants 2 args")
		}
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(err, "symlink")
		}
		if err := tfs.Symlink(args[0], args[1], s.opts.Owner); err != nil {
			return sess.failf(err, "symlink")
		}
		return okres()

	case "readlink":
		if err := s.checkFileNoFollow(sess.ident, args[0], acl.List); err != nil {
			return sess.failf(err, "readlink")
		}
		t, err := s.fs.Readlink(args[0])
		if err != nil {
			return sess.failf(err, "readlink")
		}
		return okres(q(t))

	case "truncate": // truncate <path> <size>
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "truncate wants 2 args")
		}
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return sess.failf(vfs.ErrInvalid, "bad size")
		}
		if err := sess.checkF(args[0], acl.Write); err != nil {
			return sess.failf(err, "truncate")
		}
		if err := tfs.Truncate(args[0], size); err != nil {
			return sess.failf(err, "truncate")
		}
		return okres()

	case "getacl":
		if err := sess.checkD(args[0], acl.List); err != nil {
			return sess.failf(err, "getacl")
		}
		a, err := s.aclFor(args[0])
		if err != nil {
			return sess.failf(err, "getacl")
		}
		text := a.String()
		return hres{fields: []string{"ok", strconv.Itoa(len(text))}, body: []byte(text)}

	case "setacl": // setacl <path> <len> + payload
		if len(args) != 2 {
			return sess.failf(vfs.ErrInvalid, "setacl wants 2 args")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 0 || n > 1<<20 {
			return sess.failf(vfs.ErrInvalid, "bad length")
		}
		if len(payload) != n {
			return sess.failf(vfs.ErrInvalid, "setacl payload length mismatch")
		}
		if err := sess.checkD(args[0], acl.Admin); err != nil {
			return sess.failf(err, "setacl")
		}
		if _, err := acl.Parse(string(payload)); err != nil {
			return sess.failf(vfs.ErrInvalid, "malformed ACL")
		}
		aclPath := vfs.Join(args[0], acl.FileName)
		if err := tfs.WriteFile(aclPath, payload, 0o644, s.opts.Owner); err != nil {
			return sess.failf(err, "setacl")
		}
		return okres()

	case "assert": // assert <len> + JSON assertion payload
		if len(args) != 1 {
			return sess.failf(vfs.ErrInvalid, "assert wants a length")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 || n > 1<<20 {
			return sess.failf(vfs.ErrInvalid, "bad length")
		}
		if len(payload) != n {
			return sess.failf(vfs.ErrInvalid, "assert payload length mismatch")
		}
		community, err := sess.present(payload)
		if err != nil {
			return sess.failf(vfs.ErrPermission, err.Error())
		}
		return okres(q(community))

	case "exec": // exec <cwd> <path> [args...]
		if len(args) < 2 {
			return sess.failf(vfs.ErrInvalid, "exec wants cwd and path")
		}
		code, runtime, err := sess.exec(args[0], args[1], args[2:])
		if err != nil {
			return sess.failf(err, "exec")
		}
		return okres(strconv.Itoa(code), strconv.FormatFloat(runtime, 'f', -1, 64))

	default:
		return sess.failf(kernel.ErrNoSys, "unknown command "+cmd)
	}
}

// open authorizes and opens a file for the session.
// --- v2 tagged frame loop ----------------------------------------------

// orderedCmds lists the commands the v2 dispatcher serializes on one
// lane per session, preserving submission order where operations can
// conflict: descriptor-table changes (open/close), namespace mutations,
// ACL and grant changes, and tokened requests (dedupe lookup/store must
// not race a concurrent duplicate). Everything else — reads, stats, and
// pwrite, whose offsets the client already owns — runs on the
// concurrent worker pool, so a slow transfer cannot head-of-line block
// metadata traffic.
var orderedCmds = map[string]bool{
	"open":     true,
	"close":    true,
	"mkdir":    true,
	"rmdir":    true,
	"unlink":   true,
	"rename":   true,
	"link":     true,
	"symlink":  true,
	"truncate": true,
	"setacl":   true,
	"assert":   true,
	"exec":     true,
	"token":    true,
	"replsub":  true, // subscription registration must not race itself
}

// muxJob is one tagged request handed from the v2 reader to a worker
// lane. The payload is request-owned (freshly allocated by the reader),
// so workers never share buffers. trace and arrived are set only for
// requests that carried trace context on a traced session.
type muxJob struct {
	tag     uint64
	cmd     string
	args    []string
	payload []byte
	trace   uint64            // request-tracing ID (0 untraced)
	arrived time.Time         // when the frame was read off the wire (traced only)
	ticket  *admission.Ticket // admission pass (nil: admission off or exempt class)
}

// loopV2 is the tagged-frame session loop a successful version exchange
// switches into. The connection goroutine becomes the frame reader; an
// ordered lane (one goroutine, FIFO) executes conflicting commands in
// submission order while a small pool runs the rest concurrently. The
// credit window (acquireSlot) bounds requests in flight per session,
// applying backpressure by simply not reading the next frame.
func (sess *session) loopV2(conf *v2Conf) {
	s := sess.s
	window, maxBytes := conf.window, conf.maxBytes
	sess.replOK = conf.repl // workers start below: safely published
	sess.state.abort.Store(func() { sess.abort() })
	s.metrics.v2Sessions.Inc()
	sess.log.printf("upgraded to protocol 2 (window=%d maxbytes=%d traced=%v)", window, maxBytes, conf.traced)
	ordered := make(chan muxJob, window)
	pool := make(chan muxJob, window)
	var wg sync.WaitGroup
	worker := func(ch <-chan muxJob) {
		defer wg.Done()
		sc := scratchPool.Get().(*payloadScratch)
		defer scratchPool.Put(sc)
		for j := range ch {
			if sess.isStopping() {
				// Severed: the socket is gone, no reply can reach the
				// client — drop queued work instead of executing it.
				j.ticket.Done()
				sess.releaseSlot()
				continue
			}
			sess.serveTagged(j, sc)
			sess.releaseSlot()
		}
	}
	wg.Add(1)
	go worker(ordered)
	for i := 0; i < s.workers(); i++ {
		wg.Add(1)
		go worker(pool)
	}
	var closeOnce sync.Once
	closeLanes := func() {
		closeOnce.Do(func() {
			close(ordered)
			close(pool)
			wg.Wait() // all replies flushed before the codec is released
		})
	}
	defer closeLanes()
	for {
		if s.isDraining() {
			return // finish in-flight work, accept no more requests
		}
		h, err := sess.c.readFrameHeader()
		if err != nil {
			return // connection closed (or drain nudge expired the read)
		}
		// The per-request deadline bounds the rest of this frame's wire
		// I/O once its header has arrived, exactly as v1 bounded the
		// exchange once the command line arrived.
		if rt := s.opts.RequestTimeout; rt > 0 {
			if derr := sess.conn.SetReadDeadline(time.Now().Add(rt)); derr != nil {
				sess.log.printf("setting request deadline: %v", derr)
			}
		}
		line, err := sess.c.readFrameLine(h.lineLen)
		if err != nil {
			return
		}
		var payload []byte
		if h.payloadLen > 0 {
			payload = make([]byte, h.payloadLen)
			if err := sess.c.readPayloadInto(payload); err != nil {
				return
			}
		}
		if rt := s.opts.RequestTimeout; rt > 0 {
			if derr := sess.conn.SetReadDeadline(time.Time{}); derr != nil {
				sess.log.printf("clearing request deadline: %v", derr)
			}
		}
		fields, err := splitFields(line)
		if err != nil || len(fields) == 0 {
			if werr := sess.failTagged(h.tag, vfs.ErrInvalid, "malformed request"); werr != nil {
				return
			}
			continue
		}
		// A traced session's frames may lead with "trace <hexid>" before
		// the command; strip it here so every downstream consumer — lane
		// routing, dedupe, the handler — sees the plain line. A bare
		// 2-field "trace <hexid>" line is the trace-fetch RPC, not a
		// prefix, so prefixes need at least 3 fields.
		var trace uint64
		var arrived time.Time
		if conf.traced && len(fields) >= 3 && fields[0] == "trace" {
			if id, perr := obs.ParseTraceID(fields[1]); perr == nil && id != 0 {
				trace = id
				fields = fields[2:]
				arrived = time.Now()
			}
		}
		// A deadlined session's frames may lead with "deadline <ms>"
		// (after any trace prefix): the remaining budget in
		// milliseconds, anchored here at frame arrival. Like the trace
		// prefix, it needs at least 3 fields so a malformed bare line
		// cannot be mistaken for one.
		var deadline time.Time
		if conf.deadlined && len(fields) >= 3 && fields[0] == capDeadline {
			if ms, perr := strconv.ParseUint(fields[1], 10, 32); perr == nil {
				deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
				fields = fields[2:]
			}
		}
		cmd := fields[0]
		if cmd == "quit" {
			closeLanes() // every pending reply precedes the farewell ack
			sess.writeFrame(h.tag, []string{"ok"}, nil)
			return
		}
		s.requests.Add(1)
		sess.reqs++
		mcmd := cmd
		if cmd == "token" && len(fields) >= 3 {
			mcmd = fields[2] // count the inner command, as v1 does
		}
		s.metrics.reg.Counter(obs.With(MetricRequests, "cmd", mcmd)).Inc()
		sess.log.printf("req=%d tag=%d %s: %s %v", sess.reqs, h.tag, sess.ident, cmd, fields[1:])
		// Lane-queue admission: the overload controller sheds expired
		// work and rejects over a bounded queue here, before the
		// request consumes a window slot or a worker. Control-plane
		// commands ride the exempt class (nil ticket) so overload can
		// never choke lease heartbeats or replication traffic.
		var ticket *admission.Ticket
		if adm := s.opts.Admission; adm != nil {
			class := admission.Normal
			if controlCmds[mcmd] {
				class = admission.Control
			}
			tk, aerr := adm.Admit(sess.ident.String(), class, len(payload), deadline)
			if aerr != nil {
				if werr := sess.failAdmission(h.tag, aerr); werr != nil {
					return
				}
				continue
			}
			ticket = tk
		}
		if !sess.acquireSlot(window) {
			ticket.Done()
			return // server severing this session: stop reading
		}
		lane := pool
		if orderedCmds[cmd] {
			lane = ordered
		}
		lane <- muxJob{tag: h.tag, cmd: cmd, args: fields[1:], payload: payload, trace: trace, arrived: arrived, ticket: ticket}
	}
}

// controlCmds are the commands admitted on the exempt priority class:
// liveness probes, observability, and the replication control plane.
// Shedding any of these under overload would make saturation look like
// failure — a lease heartbeat probe timing out triggers failover, a
// shed replsub stalls a follower — so they bypass the admit queue and
// the fairness scheduler entirely.
var controlCmds = map[string]bool{
	"whoami":  true,
	"stats":   true,
	"metrics": true,
	"trace":   true,
	"waitlsn": true,
	"replsub": true,
	"replack": true,
	"assert":  true,
}

// failAdmission writes the typed rejection for an admission failure:
// EBUSY with the controller's retry-after hint, or EDEADLINE for a
// budget already expired at admit.
func (sess *session) failAdmission(tag uint64, aerr error) error {
	var be *admission.BusyError
	if errors.As(aerr, &be) {
		ms := be.RetryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		// The hint rides in the error text (failf sends err.Error() as
		// the wire message); RetryAfterFromError parses it back out.
		return sess.failTagged(tag, fmt.Errorf("%w; %s%dms", ErrBusy, retryAfterMarker, ms), "")
	}
	return sess.failTagged(tag, fmt.Errorf("%w before admit", ErrDeadline), "")
}

// serveTagged executes one tagged request on a worker lane and writes
// its reply frame. sc is the worker's pooled payload scratch, reused
// for pread bodies (the frame is flushed before the scratch is reused).
func (sess *session) serveTagged(j muxJob, sc *payloadScratch) {
	s := sess.s
	// The admission ticket is released when the reply (or shed) is
	// decided, whatever path this request takes; Done on a nil ticket
	// (admission off, or an exempt control command) is a no-op.
	defer j.ticket.Done()
	cmd, args := j.cmd, j.args
	switch cmd {
	case "replsub":
		sess.serveReplSub(j)
		return
	case "replack":
		sess.serveReplAck(j)
		return
	}
	var dk string
	if cmd == "token" {
		if len(args) < 2 {
			sess.failTagged(j.tag, vfs.ErrInvalid, "token wants a token and a command")
			return
		}
		token, inner := args[0], args[1:]
		cmd, args = inner[0], inner[1:]
		if !tokenable[cmd] {
			sess.failTagged(j.tag, vfs.ErrInvalid, "command not tokenable: "+cmd)
			return
		}
		key := dedupeKey(sess.ident.String(), token)
		if stored, hit := s.dedupe.lookup(key); hit {
			s.metrics.dedupeHits.Inc()
			sess.log.printf("tag=%d %s: %s (token %s) replayed from dedupe", j.tag, sess.ident, cmd, token)
			sess.writeFrame(j.tag, stored, nil)
			return
		}
		dk = key
	}
	if rr := sess.roleRefusal(cmd, args); rr != nil {
		// Not the primary: refuse without touching dedupe — the retry
		// belongs to whichever server holds the lease, not this table.
		sess.writeFrame(j.tag, rr.fields, nil)
		return
	}
	// Worker-dispatch admission hop: wait for a fair execution slot,
	// shedding with EDEADLINE if the budget runs out in the queue —
	// the handler (and any WAL work) never runs for shed requests.
	if err := j.ticket.Acquire(); err != nil {
		sess.failTagged(j.tag, fmt.Errorf("%w awaiting dispatch", ErrDeadline), "")
		return
	}
	barrier := s.opts.Durability != nil && mutatingCmds[cmd]
	if j.trace == 0 {
		res := sess.handle(cmd, args, j.payload, sc.bytes, 0)
		if barrier && dk == "" && j.ticket.ExpiredAtBarrier() {
			// Durability-barrier hop: the op executed but its budget is
			// gone, so answer EDEADLINE instead of parking on the WAL —
			// applied-but-unacknowledged, exactly a client timeout's
			// semantics. Tokened requests are exempt: their reply must
			// be recorded for exactly-once replay, never a shed.
			res = sess.failf(fmt.Errorf("%w before durability barrier", ErrDeadline), "")
			barrier = false
		}
		sess.finishReply(res.fields, dk, barrier)
		sess.writeFrame(j.tag, res.fields, res.body)
		return
	}

	// Traced path: the same steps with wall-clock phase timings around
	// each, producing one "server" span covering frame arrival → reply
	// flushed. Virtual time is never touched.
	handlerStart := time.Now()
	res := sess.handle(cmd, args, j.payload, sc.bytes, j.trace)
	handlerDur := time.Since(handlerStart)
	if barrier && dk == "" && j.ticket.ExpiredAtBarrier() {
		res = sess.failf(fmt.Errorf("%w before durability barrier", ErrDeadline), "")
		barrier = false
	}
	var barrierWait, commitLat time.Duration
	if barrier {
		barrierWait, commitLat = sess.barrierBeforeReply(dk, true)
	}
	sess.recordReply(res.fields, dk)
	replyStart := time.Now()
	sess.writeFrame(j.tag, res.fields, res.body)
	now := time.Now()
	total := now.Sub(j.arrived)
	s.metrics.requestLat.ObserveExemplar(float64(total.Microseconds()), j.trace)

	sp := obs.Span{
		Trace:  j.trace,
		TraceS: obs.FormatTraceID(j.trace),
		ID:     s.opts.Spans.NextSpanID(),
		Name:   "server",
		Cmd:    cmd,
		Start:  j.arrived,
		Dur:    total,
	}
	if len(res.fields) > 0 && res.fields[0] == "err" {
		sp.Err = strings.Join(res.fields[1:], " ")
	}
	queueWait := handlerStart.Sub(j.arrived)
	sp.Phase("lane.queue", 0, queueWait)
	sp.Phase("handler", queueWait, handlerDur)
	if barrier {
		off := queueWait + handlerDur
		sp.Phase("barrier.wait", off, barrierWait)
		if commitLat > 0 {
			// The covering group's write+fsync finished when the barrier
			// released, so the phase ends at the barrier's end; it may
			// start before the barrier did (the group was already under
			// way), clamped to the span.
			gOff := off + barrierWait - commitLat
			if gOff < 0 {
				gOff = 0
			}
			sp.Phase("wal.group", gOff, commitLat)
		}
	}
	sp.Phase("reply", replyStart.Sub(j.arrived), now.Sub(replyStart))
	s.opts.Spans.Record(sp)

	if tl := s.opts.TraceLog; tl != nil && total >= s.opts.TraceSlow {
		if err := tl.RecordValue(sp); err != nil {
			sess.log.printf("slow-request log: %v", err)
		}
	}
}

// writeFrame sends one tagged reply frame, serialized on writeMu so
// concurrent workers interleave whole frames, never partial ones.
func (sess *session) writeFrame(tag uint64, fields []string, body []byte) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if rt := sess.s.opts.RequestTimeout; rt > 0 {
		if err := sess.conn.SetWriteDeadline(time.Now().Add(rt)); err != nil {
			sess.log.printf("setting reply deadline: %v", err)
		}
		defer func() {
			if err := sess.conn.SetWriteDeadline(time.Time{}); err != nil {
				sess.log.printf("clearing reply deadline: %v", err)
			}
		}()
	}
	if err := sess.c.queueFrame(tag, fields, body); err != nil {
		return err
	}
	return sess.c.flush()
}

// failTagged writes a counted error reply frame for tag.
func (sess *session) failTagged(tag uint64, err error, context string) error {
	res := sess.failf(err, context)
	return sess.writeFrame(tag, res.fields, nil)
}

// serveReplSub handles `replsub <fromLSN>`: it registers the session
// as a replication follower and answers with its catch-up — either the
// WAL tail past fromLSN ("ok tail <epoch> <first> <last> <records>
// <len>" plus the frames) or, when compaction already dropped that
// history, a full snapshot ("ok snap <epoch> <lsn> <len>" plus the
// blob). From then on every committed group is pushed to the session
// as a replPushTag frame until the session ends or the subscriber
// falls too far behind (a "replgap" push tells it to resubscribe).
// Runs on the ordered lane so a session cannot race two registrations.
func (sess *session) serveReplSub(j muxJob) {
	s := sess.s
	pub := s.opts.Repl
	if pub == nil || !sess.replOK {
		sess.failTagged(j.tag, kernel.ErrNoSys, "replication not negotiated")
		return
	}
	if len(j.args) != 1 {
		sess.failTagged(j.tag, vfs.ErrInvalid, "replsub wants a start lsn")
		return
	}
	from, err := strconv.ParseUint(j.args[0], 10, 64)
	if err != nil {
		sess.failTagged(j.tag, vfs.ErrInvalid, "bad replsub lsn")
		return
	}
	sess.replMu.Lock()
	if sess.replSub != nil {
		sess.replMu.Unlock()
		sess.failTagged(j.tag, vfs.ErrInvalid, "session already subscribed")
		return
	}
	sub, catchup, snap, snapLSN, err := pub.Subscribe(from)
	if err != nil {
		sess.replMu.Unlock()
		sess.failTagged(j.tag, err, "replsub")
		return
	}
	sess.replSub = sub
	sess.replMu.Unlock()
	sess.log.printf("replication subscriber from lsn %d (%s)", from, sess.ident)
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var fields []string
	var body []byte
	switch {
	case snap != nil:
		fields, body = []string{"ok", "snap", u(pub.Epoch()), u(snapLSN), strconv.Itoa(len(snap))}, snap
	case catchup != nil:
		fields, body = []string{"ok", "tail", u(catchup.Epoch), u(catchup.First), u(catchup.Last),
			strconv.Itoa(catchup.Records), strconv.Itoa(len(catchup.Frames))}, catchup.Frames
	default:
		fields = []string{"ok", "tail", u(pub.Epoch()), "0", "0", "0", "0"}
	}
	if len(body) > MaxPayload {
		// The catch-up cannot travel in one frame, and there is no
		// chunked bootstrap: refuse now rather than leave the follower
		// waiting on a reply that will never come.
		sess.dropReplSub(sub)
		sess.failTagged(j.tag, ErrTooLarge, fmt.Sprintf("replication catch-up of %d bytes exceeds the %d-byte frame limit", len(body), MaxPayload))
		return
	}
	if err := sess.writeFrame(j.tag, fields, body); err != nil {
		sess.dropReplSub(sub)
		return
	}
	sess.pushWG.Add(1)
	go sess.replPush(sub)
}

// dropReplSub unregisters a subscription whose catch-up never reached
// the follower, so the publisher stops queueing batches for it.
func (sess *session) dropReplSub(sub *replica.Subscription) {
	sess.replMu.Lock()
	if sess.replSub == sub {
		sess.replSub = nil
	}
	sess.replMu.Unlock()
	sub.Close()
}

// serveReplAck handles `replack <lsn>`: the follower's applied horizon,
// which releases the primary's semi-sync barriers at or below it.
func (sess *session) serveReplAck(j muxJob) {
	if len(j.args) != 1 {
		sess.failTagged(j.tag, vfs.ErrInvalid, "replack wants an lsn")
		return
	}
	lsn, err := strconv.ParseUint(j.args[0], 10, 64)
	if err != nil {
		sess.failTagged(j.tag, vfs.ErrInvalid, "bad replack lsn")
		return
	}
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replMu.Unlock()
	if sub == nil {
		sess.failTagged(j.tag, vfs.ErrInvalid, "no replication subscription")
		return
	}
	sub.Ack(lsn)
	sess.writeFrame(j.tag, []string{"ok"}, nil)
}

// replPush streams the subscription's batches to the session as pushed
// frames. It exits when the channel closes: a publisher-side cut
// (overflow or shutdown) gets a final "replgap" push so the follower
// knows to resubscribe rather than wait forever; a session-side close
// just ends (the transport is going away with it).
func (sess *session) replPush(sub *replica.Subscription) {
	defer sess.pushWG.Done()
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for b := range sub.C {
		fields := []string{"replpush", u(b.Epoch), u(b.First), u(b.Last),
			strconv.Itoa(b.Records), strconv.Itoa(len(b.Frames))}
		if err := sess.writeFrame(replPushTag, fields, b.Frames); err != nil {
			sub.Close()
			return
		}
	}
	sess.writeFrame(replPushTag, []string{"replgap"}, nil)
}

// acquireSlot blocks until the session's credit window has room, then
// claims a slot. Called only by the frame reader, so blocking here is
// the backpressure: the next frame is not read until a slot frees.
func (sess *session) acquireSlot(window int) bool {
	sess.slotMu.Lock()
	for sess.inflight >= window && !sess.stopping {
		sess.s.metrics.bpStalls.Inc()
		sess.slotCond.Wait()
	}
	if sess.stopping {
		sess.slotMu.Unlock()
		return false
	}
	sess.inflight++
	sess.s.metrics.occupancy.Observe(float64(sess.inflight))
	sess.s.metrics.tagsInFlight.Inc()
	if sess.inflight == 1 {
		sess.state.busy.Store(true)
	}
	sess.slotMu.Unlock()
	return true
}

// abort marks the session severed: it wakes a frame reader parked on
// the credit window (acquireSlot returns false) and makes the lane
// workers drop queued jobs. Called by Close and by Shutdown's sever
// path; without it a reader parked behind a window full of slow work
// would hold its connection goroutine — and therefore Close — hostage
// until every queued job had executed toward the already-dead socket.
func (sess *session) abort() {
	sess.slotMu.Lock()
	sess.stopping = true
	sess.slotCond.Broadcast()
	sess.slotMu.Unlock()
}

// isStopping reports whether abort has severed this session.
func (sess *session) isStopping() bool {
	sess.slotMu.Lock()
	defer sess.slotMu.Unlock()
	return sess.stopping
}

// releaseSlot returns a worker's slot after its reply is on the wire.
// When the last in-flight request completes during a drain, the blocked
// frame reader cannot see the drain flag, so the release expires its
// read — the v2 equivalent of Shutdown's nudge to idle v1 sessions.
func (sess *session) releaseSlot() {
	sess.slotMu.Lock()
	sess.inflight--
	idle := sess.inflight == 0
	if idle {
		sess.state.busy.Store(false)
	}
	sess.s.metrics.tagsInFlight.Dec()
	sess.slotCond.Signal()
	sess.slotMu.Unlock()
	// The drain check must run outside slotMu: Close and Shutdown sever
	// sessions (taking slotMu) while holding the server mutex isDraining
	// needs, so nesting the two here would invert the lock order.
	if idle && sess.s.isDraining() {
		if err := sess.conn.SetReadDeadline(time.Now()); err != nil {
			sess.log.printf("drain nudge: %v", err)
		}
	}
}

func (sess *session) open(path string, flags int, mode uint32, trace uint64) (int, error) {
	s := sess.s
	var classes []acl.Rights
	switch flags & 3 {
	case kernel.ORdonly:
		classes = []acl.Rights{acl.Read}
	case kernel.OWronly:
		classes = []acl.Rights{acl.Write}
	case kernel.ORdwr:
		classes = []acl.Rights{acl.Read, acl.Write}
	}
	if flags&kernel.OCreat != 0 {
		classes = append(classes, acl.Write)
	}
	for _, cl := range classes {
		if cl == acl.Write {
			if err := sess.checkACLFileWrite(path); err != nil {
				return 0, err
			}
		} else if err := sess.checkF(path, cl); err != nil {
			return 0, err
		}
	}
	st, err := s.fs.Stat(path)
	exists := err == nil
	switch {
	case !exists && flags&kernel.OCreat == 0:
		return 0, err
	case exists && flags&(kernel.OCreat|kernel.OExcl) == kernel.OCreat|kernel.OExcl:
		return 0, vfs.ErrExist
	case exists && st.IsDir():
		return 0, vfs.ErrIsDir
	}
	if !exists {
		if _, err := s.fs.Traced(trace).Create(path, mode, s.opts.Owner); err != nil {
			return 0, err
		}
	}
	h, err := s.fs.OpenHandle(path)
	if err != nil {
		return 0, err
	}
	if flags&kernel.OTrunc != 0 && flags&3 != kernel.ORdonly {
		if err := h.TruncateTraced(0, trace); err != nil {
			return 0, err
		}
	}
	return sess.addFD(&sessionFD{h: h, path: path, flags: flags}), nil
}

// present verifies a CAS assertion and installs its grants.
func (sess *session) present(data []byte) (community string, err error) {
	s := sess.s
	if s.opts.CASTrust == nil {
		return "", errors.New("server trusts no community authorization service")
	}
	a, err := auth.DecodeAssertion(data)
	if err != nil {
		return "", err
	}
	if a.Subject != sess.ident {
		return "", fmt.Errorf("assertion subject %q is not this session's identity", a.Subject)
	}
	if err := s.opts.CASTrust.Verify(a); err != nil {
		return "", err
	}
	sess.grantsMu.Lock()
	sess.grants = append(sess.grants, a.Grants...)
	sess.grantsMu.Unlock()
	sess.log.printf("%s: presented CAS assertion from %s (%s), %d grants", sess.ident, a.CAS, a.Community, len(a.Grants))
	return a.Community, nil
}

// grantsAllow reports whether a verified CAS grant covers the path with
// the wanted rights. Prefix matching respects component boundaries.
func (sess *session) grantsAllow(path string, want acl.Rights) bool {
	final, err := sess.s.resolveFinal(path)
	if err != nil {
		return false
	}
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	for _, g := range sess.grants {
		prefix := vfs.Clean(g.PathPrefix)
		if !(prefix == "/" || final == prefix ||
			(len(final) > len(prefix) && final[:len(prefix)] == prefix && final[len(prefix)] == '/')) {
			continue
		}
		r, err := acl.ParseRights(g.Rights)
		if err != nil {
			continue
		}
		if r.Has(want) {
			return true
		}
	}
	return false
}

// checkF is the per-session file check: local ACLs first, then
// community grants.
func (sess *session) checkF(path string, want acl.Rights) error {
	err := sess.s.checkFile(sess.ident, path, want)
	if err == nil {
		return nil
	}
	if errors.Is(err, vfs.ErrLoop) {
		return err // no grant can cover a path that never resolves
	}
	if sess.grantsAllow(path, want) {
		return nil
	}
	return vfs.ErrPermission
}

// checkD is the per-session directory check.
func (sess *session) checkD(dir string, want acl.Rights) error {
	err := sess.s.checkDir(sess.ident, dir, want)
	if err == nil {
		return nil
	}
	if errors.Is(err, vfs.ErrLoop) {
		return err // no grant can cover a path that never resolves
	}
	if sess.grantsAllow(dir, want) {
		return nil
	}
	return vfs.ErrPermission
}

// checkACLFileWrite is the write check plus the rule that the ACL file
// itself takes Admin to modify.
func (sess *session) checkACLFileWrite(path string) error {
	class := acl.Write
	if vfs.Base(path) == acl.FileName {
		class = acl.Admin
	}
	return sess.checkF(path, class)
}

// mkdir implements the reserve-right semantics on the server side.
func (sess *session) mkdir(path string, mode uint32, trace uint64) error {
	s := sess.s
	parent := vfs.Dir(path)
	a, err := s.aclFor(parent)
	if err != nil {
		return err
	}
	rights, reserve := a.Lookup(sess.ident)
	var childACL *acl.ACL
	switch {
	case rights.Has(acl.Write):
		childACL = a.Clone()
	case rights.Has(acl.Reserve):
		childACL = acl.ReserveChild(sess.ident, reserve)
	case sess.grantsAllow(parent, acl.Write):
		// Community-granted write: inherit like a local w holder, and
		// keep the creator in control of the new directory.
		childACL = a.Clone()
		childACL.Set(sess.ident.String(), acl.All, acl.None)
	default:
		return vfs.ErrPermission
	}
	tfs := s.fs.Traced(trace)
	if err := tfs.Mkdir(path, mode, s.opts.Owner); err != nil {
		return err
	}
	return tfs.WriteFile(vfs.Join(path, acl.FileName), []byte(childACL.String()), 0o644, s.opts.Owner)
}

// exec runs the staged program at path inside an identity box carrying
// the session's principal, with the given working directory: the heart
// of Figure 3.
func (sess *session) exec(cwd, path string, args []string) (code int, runtimeSeconds float64, err error) {
	s := sess.s
	if err := sess.checkF(path, acl.Read); err != nil {
		return 0, 0, err
	}
	if err := sess.checkF(path, acl.Execute); err != nil {
		return 0, 0, err
	}
	box, err := core.New(s.k, s.opts.Owner, sess.ident, core.Options{
		HomeBase:  "/.boxhomes",
		ShadowDir: "/.boxshadow",
	})
	if err != nil {
		return 0, 0, err
	}
	st := box.RunAt(cwd, func(p *kernel.Proc, bootArgs []string) int {
		pid, err := p.Spawn(path, bootArgs...)
		if err != nil {
			return 127
		}
		_, status, err := p.Wait(pid)
		if err != nil {
			return 127
		}
		return status
	}, args...)
	return st.Code, st.Runtime.Seconds(), nil
}

// --- server-side ACL checks ---------------------------------------------

// aclFor finds the effective ACL for dir: its own ACL file, or the
// nearest ancestor's (Chirp's space is fully virtual: ACLs exist from
// the root down, and mkdir always installs one).
func (s *Server) aclFor(dir string) (*acl.ACL, error) {
	dir = vfs.Clean(dir)
	for {
		data, err := s.fs.ReadFile(vfs.Join(dir, acl.FileName))
		if err == nil {
			a, perr := acl.Parse(string(data))
			if perr != nil {
				return &acl.ACL{}, nil // fail closed on malformed ACLs
			}
			return a, nil
		}
		if !errors.Is(err, vfs.ErrNotExist) {
			return nil, err
		}
		if dir == "/" {
			return &acl.ACL{}, nil // no ACL anywhere: grant nothing
		}
		dir = vfs.Dir(dir)
	}
}

// resolveFinal maps path to the object the file system will reach
// through it — every symlink followed, intermediate ones included, with
// the same hop budget (vfs.Realpath) — so checks apply to the real
// target's directory rather than the name it was reached by. A chain
// longer than vfs.MaxSymlinkHops fails closed with ELOOP. A path that
// does not resolve for another reason is checked as written; the
// operation itself then fails the same way.
func (s *Server) resolveFinal(path string) (string, error) {
	final, err := s.fs.Realpath(path)
	switch {
	case err == nil:
		return final, nil
	case errors.Is(err, vfs.ErrLoop):
		return "", err
	default:
		return vfs.Clean(path), nil
	}
}

// checkFile authorizes an operation on the file at path, governed by
// the ACL of the directory containing the (symlink-resolved) target.
func (s *Server) checkFile(ident identity.Principal, path string, want acl.Rights) error {
	final, err := s.resolveFinal(path)
	if err != nil {
		return err
	}
	a, err := s.aclFor(vfs.Dir(final))
	if err != nil {
		return err
	}
	if !a.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}

// checkFileNoFollow authorizes an operation on the link itself.
func (s *Server) checkFileNoFollow(ident identity.Principal, path string, want acl.Rights) error {
	a, err := s.aclFor(vfs.Dir(vfs.Clean(path)))
	if err != nil {
		return err
	}
	if !a.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}

// checkDir authorizes an operation governed by the directory's own ACL.
func (s *Server) checkDir(ident identity.Principal, dir string, want acl.Rights) error {
	final, err := s.resolveFinal(dir)
	if err != nil {
		return err
	}
	a, err := s.aclFor(final)
	if err != nil {
		return err
	}
	if !a.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}
