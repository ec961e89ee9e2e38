// Command perfbench is the repository's end-to-end benchmark: it
// assembles the Figure-3 Chirp stack in-process (4-shard durable WAL
// with real fsync, semi-sync follower, admission control, GSI auth)
// and drives one of three workloads against it over loopback TCP,
// checking every output. With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it runs the workload untraced and then traced
// and prints the per-layer metrics. The last line of standard output
// is the result as one JSON object.
//
//	bash perfbench/run.sh --workload fig3-jobs --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"identitybox/internal/chirp"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
	"identitybox/internal/workload"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "fig3-jobs, meta-pipelined or mutate-subtrees")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fl.IntVar(&trace, "trace", 0, "1: run untraced then traced and report per-layer metrics")
	fl.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for state and span dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.log = stderr
	res, err := runBenchmark(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// workloadRunner is what each workload provides.
type workloadRunner interface {
	populate(fs *vfs.FS) error
	window(clients []*chirp.Client, d time.Duration, rec *spanRec, st *stack) (*wstats, error)
	check(fs *vfs.FS, where string) error
	samplePaths() []string
}

func newRunner(cfg *config, name string, seed int64) (workloadRunner, int, error) {
	switch name {
	case "fig3-jobs":
		return newFig3(cfg.Workloads.Fig3, seed, principalNames(cfg)), cfg.Workloads.Fig3.Connections, nil
	case "meta-pipelined":
		return newMeta(cfg.Workloads.Meta, seed, cfg.Principals), cfg.Workloads.Meta.Connections, nil
	case "mutate-subtrees":
		return newMutate(cfg.Workloads.Mutate, seed, cfg.WALShards, cfg.Principals), cfg.Workloads.Mutate.Connections, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}

func principalNames(cfg *config) []string {
	var out []string
	for _, p := range cfg.Principals {
		out = append(out, "globus:"+p)
	}
	return out
}

// countingConn counts the Read and Write calls the client makes on its
// connection.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// session is the benchmark's set of client connections.
type session struct {
	clients       []*chirp.Client
	metrics       *obs.Registry // the clients' registry
	reads, writes atomic.Int64
	dials         []float64 // ms per DialOpts
}

func (s *session) requests() float64 {
	var n int64
	for _, cl := range s.clients {
		n += cl.RequestCount()
	}
	return float64(n)
}

func (s *session) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
}

// dialSession connects one client per connection, alternating the
// two principals.
func dialSession(st *stack, c *creds, n int, opts chirp.ClientOptions, rec *spanRec) (*session, error) {
	s := &session{metrics: opts.Metrics}
	opts.Dialer = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, reads: &s.reads, writes: &s.writes}, nil
	}
	for i := 0; i < n; i++ {
		var cl *chirp.Client
		d, err := rec.timed("auth.dial", 0, func() (err error) {
			cl, err = st.dial(c, i%len(c.users), opts)
			return err
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dialing principal %d: %w", i%len(c.users), err)
		}
		s.clients = append(s.clients, cl)
		s.dials = append(s.dials, float64(d)/1e6)
	}
	return s, nil
}

// bench is one run's fixed parts: its settings, the workload, the
// credentials, and the benchmark-side tracing.
type bench struct {
	o     options
	cfg   *config
	wl    workloadRunner
	creds *creds
	conns int
	rec   *spanRec
	probe *durabilityProbe // nil when untraced
}

// setup builds the stack and dials the clients: the span setup_s
// measures.
func (b *bench) setup(dir string) (*stack, *session, error) {
	app, _ := workload.AppByName("make")
	st, err := buildStack(stackOptions{
		dir:      dir,
		shards:   b.cfg.WALShards,
		admitQ:   b.cfg.AdmitQueue,
		makeApp:  app.Scaled(b.cfg.Workloads.Fig3.MakeScale),
		populate: b.wl.populate,
		probe:    b.probe,
		creds:    b.creds,
	})
	if err != nil {
		st.remove()
		return nil, nil, err
	}
	sess, err := dialSession(st, b.creds, b.conns, clientOptions(b.wl), b.rec)
	if err != nil {
		st.remove()
		return nil, nil, err
	}
	return st, sess, nil
}

func clientOptions(wl workloadRunner) chirp.ClientOptions {
	opts := chirp.ClientOptions{Timeout: time.Minute, Metrics: obs.NewRegistry()}
	if openLoop(wl) {
		opts.PipelineDepth = fig3PipelineDepth
	}
	return opts
}

// openLoop reports whether a workload's generator is open-loop: only
// fig3-jobs starts its work on a schedule, whatever the backlog.
func openLoop(wl workloadRunner) bool {
	_, ok := wl.(*fig3)
	return ok
}

func runBenchmark(o options) (*result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	wl, conns, err := newRunner(cfg, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	base, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("state-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	c, err := newCreds(cfg.Principals)
	if err != nil {
		return nil, fmt.Errorf("issuing credentials: %w", err)
	}
	if f, ok := wl.(*fig3); ok {
		if err := f.prepare(); err != nil {
			return nil, err
		}
	}

	b := &bench{o: o, cfg: cfg, wl: wl, creds: c, conns: conns, rec: &spanRec{}}
	if o.trace {
		b.probe = &durabilityProbe{rec: b.rec}
	}
	var setups []float64
	var st *stack
	var sess *session
	for i, total := 0, 0.0; ; i++ {
		start := time.Now()
		st, sess, err = b.setup(filepath.Join(base, fmt.Sprintf("rep%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[i]
		if o.trace || i+1 >= maxSetupReps || (i+1 >= minSetupReps && total >= minSetupS) {
			break
		}
		sess.close()
		if err := st.remove(); err != nil {
			return nil, err
		}
	}
	defer st.close()
	defer sess.close()

	// Warm-up: fill caches and pools before the window opens.
	if _, err := wl.window(sess.clients, time.Duration(cfg.WarmupMS)*time.Millisecond, nil, st); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return b.traced(st, sess, window)
	}

	// Return the set-up repetitions' garbage to the OS, so the window's
	// peak RSS starts from the live heap.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	mark := markRefusals(st, sess)
	width := sliceWidth(openLoop(wl))
	ticks := startSampler(width, map[string]func() float64{"cpu": cpuSeconds, "rss": slicePeakRSS})
	ws, err := wl.window(sess.clients, window, nil, st)
	readings := ticks.finish()
	if err != nil {
		return nil, err
	}
	if err := postChecks(wl, st); err != nil {
		return nil, err
	}
	sess.close()
	_, _, err = recoverChecks(wl, st, cfg.WALShards, 1)
	if err != nil {
		return nil, err
	}
	m := sliced(ws, ticks.start, readings, window, width)
	if openLoop(wl) {
		// An open loop's sub-windows complete calls at the schedule's
		// rate; over the whole window, drain of the last jobs included,
		// the rate drops once the server falls behind the schedule.
		m["ops_per_s"] = metric{float64(len(ws.all)) / ws.elapsed.Seconds(), "1/s"}
	}
	m["setup_s"] = metric{median(setups), "s"}
	guard(o, st, sess, mark, ws)
	return &result{Correct: true, Attempted: ws.attempted, Failed: ws.refused, Metrics: m}, nil
}

// The untraced run sets up at least minSetupReps times and until
// minSetupS seconds of set-up have been timed, so that a set-up of a
// few fsync-bound milliseconds still reports the median of many; it
// stops at maxSetupReps. The traced run sets up once.
const (
	minSetupReps = 5
	minSetupS    = 2.0
	maxSetupReps = 200
)

// refusalMark holds, from a window's start, the counters of refusals
// the workload's own calls do not see.
type refusalMark struct{ busy, timeouts int64 }

func markRefusals(st *stack, sess *session) refusalMark {
	return refusalMark{
		busy:     sess.metrics.Counter(chirp.MetricClientBusy).Value(),
		timeouts: st.reg.Counter(replica.MetricSyncTimeouts).Value(),
	}
}

// guard applies the validity guards of a fault-free run to one
// window's record. caller.do has counted every refusal a call returned
// (EDEADLINE, degraded, and EBUSY once the client's own retries ran
// out); guard adds, as differences over the window, the EBUSY replies
// the client retried by itself, each one more attempted and refused
// call, and the semi-sync timeouts, which degrade an acknowledged
// write without the client seeing it. An open-loop generator that
// fell behind its schedule is flagged.
func guard(o options, st *stack, sess *session, m refusalMark, ws *wstats) {
	now := markRefusals(st, sess)
	retried := now.busy - m.busy - ws.busySeen
	ws.attempted += retried
	ws.refused += retried + now.timeouts - m.timeouts
	if ws.refused > 0 {
		fmt.Fprintf(o.log, "perfbench: warning: %d refused calls or sync timeouts in a fault-free run\n", ws.refused)
	}
	if lag := quantile(sorted(ws.genLag), 0.99); lag > maxGenLagMS {
		fmt.Fprintf(o.log, "perfbench: warning: open-loop generator p99 lateness %.1f ms: the generator, not the server, fell behind\n", lag)
	}
}

// maxGenLagMS is the open-loop generator lateness past which a
// fig3-jobs run is flagged: a job's latency is timed from when it was
// due, so a late generator hides the server's queueing.
const maxGenLagMS = 10

// postChecks runs after the window, with the stack still up: the
// follower reaches the primary's durable horizon, and primary and
// follower both match what the workload's generator expects.
func postChecks(wl workloadRunner, st *stack) error {
	if err := st.waitFollower(30 * time.Second); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if err := wl.check(st.store.FS(), "primary"); err != nil {
		return err
	}
	return wl.check(st.fstore.FS(), "follower")
}

// recoverChecks closes the stack and recovers its primary state
// directory n times, timing each durable.Open, and checks that the
// recovered state holds every acknowledged mutation. It reports the
// recovery times and the records the last recovery replayed.
func recoverChecks(wl workloadRunner, st *stack, shards, n int) ([]float64, int, error) {
	if err := st.close(); err != nil {
		return nil, 0, fmt.Errorf("closing stack: %w", err)
	}
	var times []float64
	replayed := 0
	for i := 0; i < n; i++ {
		// Each recovery starts from a collected heap, as a restarted
		// server would, so one recovery's garbage does not tax the next.
		runtime.GC()
		s, d, err := reopen(st.primDir, shards, obs.NewRegistry())
		if err != nil {
			return nil, 0, fmt.Errorf("recovering: %w", err)
		}
		times = append(times, d.Seconds())
		replayed = s.Recovery().Replayed
		cerr := wl.check(s.FS(), "recovered")
		if err := s.Close(); err != nil && cerr == nil {
			cerr = err
		}
		if cerr != nil {
			return nil, 0, cerr
		}
	}
	return times, replayed, nil
}

// probeReps is how many times the traced run repeats a whole-store or
// whole-job probe (recovery, a local box run); each such metric is the
// median of the repetitions.
const probeReps = 5

// sliceWidth is the sub-window a workload's throughput, latency and
// CPU figures are taken over: each figure is the median over the
// window's whole sub-windows, so a transient disturbance of the host
// moves one sub-window rather than the result. The open-loop jobs
// complete about 90 calls a second, so their sub-windows are longer,
// leaving each well over ten calls beyond its p90.
func sliceWidth(open bool) time.Duration {
	if open {
		return 4 * time.Second
	}
	return time.Second
}

// sliced computes the throughput, latency, CPU and peak-memory
// metrics of a window as medians over the whole sub-windows of the
// given width that fit in the nominal window from start (calls are
// placed by completion time, CPU and peak RSS by the sampler's
// readings at each sub-window's end), so that calls draining after the
// window closes never make a sub-window of their own. A window shorter
// than one sub-window gives one figure over the whole window.
func sliced(ws *wstats, start time.Time, readings map[string][]float64, window, width time.Duration) map[string]metric {
	cpu, rss := readings["cpu"], readings["rss"]
	slices := int(window / width)
	if len(cpu)-1 < slices {
		slices = len(cpu) - 1
	}
	type part struct{ all, read []sample }
	var parts []part
	var widths []float64
	var cpus []float64 // seconds
	var peaks []float64
	if slices == 0 {
		parts = []part{{ws.all, ws.read}}
		widths = []float64{ws.elapsed.Seconds()}
		cpus = []float64{cpu[len(cpu)-1] - cpu[0]}
		peaks = []float64{sorted(rss)[len(rss)-1]}
	} else {
		parts = make([]part, slices)
		for _, s := range ws.all {
			if i := int(s.at().Sub(start) / width); i >= 0 && i < slices {
				parts[i].all = append(parts[i].all, s)
			}
		}
		for _, s := range ws.read {
			if i := int(s.at().Sub(start) / width); i >= 0 && i < slices {
				parts[i].read = append(parts[i].read, s)
			}
		}
		for i := 0; i < slices; i++ {
			widths = append(widths, width.Seconds())
			cpus = append(cpus, cpu[i+1]-cpu[i])
			peaks = append(peaks, rss[i+1])
		}
	}
	per := map[string][]float64{}
	for i, p := range parts {
		all, reads := latencies(p.all), latencies(p.read)
		n := float64(len(all))
		per["ops_per_s"] = append(per["ops_per_s"], n/widths[i])
		per["read_p50_us"] = append(per["read_p50_us"], quantile(reads, 0.5))
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], ratio(cpus[i]*1e6, n))
		per["max_rss_mb"] = append(per["max_rss_mb"], peaks[i])
	}
	units := map[string]string{"ops_per_s": "1/s", "cpu_us_per_op": "us", "max_rss_mb": "MiB"}
	out := map[string]metric{}
	for k, v := range per {
		u := units[k]
		if u == "" {
			u = "us"
		}
		out[k] = metric{median(v), u}
	}
	return out
}
