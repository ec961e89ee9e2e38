package main

// Measurement plumbing: per-worker latency recorders, benchmark-side
// spans, process counters (/proc/self/io, rusage, runtime/metrics) and
// deltas of the registries the program exports.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"identitybox/internal/chirp"
	"identitybox/internal/obs"
)

// sample is one successful call: when it completed, in milliseconds
// since epoch, and how long it took. It is eight bytes, so that the
// record of a window's calls adds little to the peak RSS of the process
// the server runs in.
type sample struct {
	atMs uint32
	us   float32
}

var epoch = time.Now()

func newSample(done time.Time, d time.Duration) sample {
	return sample{atMs: uint32(done.Sub(epoch) / time.Millisecond), us: float32(float64(d) / 1e3)}
}

func (s sample) at() time.Time { return epoch.Add(time.Duration(s.atMs) * time.Millisecond) }

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.us)
	}
	sort.Float64s(out)
	return out
}

// wstats is a window's record: latencies of successful calls by class,
// and attempted/refused counts. Each worker fills its own; the window
// merges them once the workers have returned.
type wstats struct {
	start   time.Time
	elapsed time.Duration

	all, read, mut []sample
	jobs           []float64 // ms, fig3 only
	genLag         []float64 // ms, fig3 only
	attempted      int64
	refused        int64
	busySeen       int64 // EBUSY refusals returned to the workload
	userBytes      int64 // payload bytes the workload wrote
	muts           int64 // acknowledged mutations
}

func (w *wstats) merge(o *wstats) {
	w.all = append(w.all, o.all...)
	w.read = append(w.read, o.read...)
	w.mut = append(w.mut, o.mut...)
	w.jobs = append(w.jobs, o.jobs...)
	w.genLag = append(w.genLag, o.genLag...)
	w.attempted += o.attempted
	w.refused += o.refused
	w.busySeen += o.busySeen
	w.userBytes += o.userBytes
	w.muts += o.muts
}

// refusal reports whether err is the server refusing work under
// overload (EBUSY, EDEADLINE) or a degraded write: counted in
// fail_ratio, retried, and never a correctness failure.
func refusal(err error) bool {
	return errors.Is(err, chirp.ErrBusy) || errors.Is(err, chirp.ErrDeadline) || errors.Is(err, chirp.ErrDegraded)
}

// caller issues one worker's RPCs, timing each and recording a
// benchmark-side span per call while tracing is on.
type caller struct {
	cl     *chirp.Client
	st     *wstats
	rec    *spanRec
	parent uint64 // enclosing span (a fig3 job), 0 for none
}

// maxRefusals bounds how often one call is retried after a refusal
// before the run gives up.
const maxRefusals = 100

// do runs fn, retrying refusals, and records the successful attempt.
func (c *caller) do(name string, mut bool, fn func() error) error {
	for tries := 0; ; tries++ {
		c.st.attempted++
		start := time.Now()
		err := fn()
		d := time.Since(start)
		if c.rec.active() {
			sp := obs.Span{Parent: c.parent, Name: "rpc", Cmd: name, Start: start, Dur: d}
			if err != nil {
				sp.Err = err.Error()
			}
			c.rec.add(sp)
		}
		if err != nil && refusal(err) && tries < maxRefusals {
			c.st.refused++
			if errors.Is(err, chirp.ErrBusy) {
				c.st.busySeen++
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		s := newSample(start.Add(d), d)
		c.st.all = append(c.st.all, s)
		if mut {
			c.st.mut = append(c.st.mut, s)
			c.st.muts++
		} else {
			c.st.read = append(c.st.read, s)
		}
		return nil
	}
}

// spanRec keeps benchmark-side spans in memory while active, up to
// maxBenchSpans; later ones are counted and dropped, as the program's
// own span rings drop their oldest.
type spanRec struct {
	on      atomic.Bool
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []obs.Span
	dropped int
}

const maxBenchSpans = 1 << 17

func (r *spanRec) active() bool { return r != nil && r.on.Load() }

// id allocates a span ID well above the program's own ring IDs.
func (r *spanRec) id() uint64 { return 1<<48 + r.next.Add(1) }

func (r *spanRec) add(sp obs.Span) {
	if sp.ID == 0 {
		sp.ID = r.id()
	}
	r.mu.Lock()
	if len(r.spans) < maxBenchSpans {
		r.spans = append(r.spans, sp)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// timed runs fn inside a span of the given name while tracing is on.
func (r *spanRec) timed(name string, parent uint64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if r.active() {
		sp := obs.Span{Parent: parent, Name: name, Start: start, Dur: d}
		if err != nil {
			sp.Err = err.Error()
		}
		r.add(sp)
	}
	return d, err
}

// --- process counters ---------------------------------------------------

// procSample is the process's I/O syscall counts and Go runtime
// allocation and CPU totals at one moment.
type procSample struct {
	syscr    int64
	syscw    int64
	allocB   uint64
	gcCPU    float64
	totalCPU float64
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() (procSample, error) {
	var s procSample
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return s, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscr":
			s.syscr = n
		case "syscw":
			s.syscw = n
		}
	}
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocB = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
	return s, sc.Err()
}

// --- registry deltas ----------------------------------------------------

type regDelta struct{ a, b obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// counterFamily sums every labelled series of a counter family.
func (d regDelta) counterFamily(family string) float64 {
	var sum int64
	for k, v := range d.b.Counters {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v - d.a.Counters[k]
		}
	}
	return float64(sum)
}

// histQuantile estimates the p-quantile of the observations made
// between the two snapshots, interpolating within buckets the way
// obs.Histogram.Quantile does.
func (d regDelta) histQuantile(name string, p float64) float64 {
	hb, ok := d.b.Histograms[name]
	if !ok {
		return 0
	}
	ha := d.a.Histograms[name]
	counts := make([]int64, len(hb.Counts))
	var total int64
	for i := range hb.Counts {
		counts[i] = hb.Counts[i]
		if i < len(ha.Counts) {
			counts[i] -= ha.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum int64
	for i, bound := range hb.Bounds {
		n := counts[i]
		if float64(cum+n) >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = hb.Bounds[i-1]
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return hb.Bounds[len(hb.Bounds)-1]
}

// --- small statistics ---------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the exact p-quantile of sorted values (nearest rank with
// linear interpolation); 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampler reads a set of gauges when started, every period, and when
// finished.
type sampler struct {
	start time.Time
	read  map[string]func() float64
	vals  map[string][]float64
	stop  chan struct{}
	done  chan struct{}
}

func startSampler(period time.Duration, read map[string]func() float64) *sampler {
	s := &sampler{start: time.Now(), read: read, vals: map[string][]float64{}, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	for k, f := range s.read {
		s.vals[k] = append(s.vals[k], f())
	}
}

// finish stops the sampler, waits for it, takes a last reading and
// returns them all.
func (s *sampler) finish() map[string][]float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return s.vals
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS resets the kernel's peak resident set size of this
// process to its current size, so the next peakRSSMiB covers only
// what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// slicePeakRSS is the peak RSS in MiB since the last call, which
// resets it; 0 if /proc cannot be read.
func slicePeakRSS() float64 {
	v, err := peakRSSMiB()
	if err != nil || resetPeakRSS() != nil {
		return 0
	}
	return v
}

// peakRSSMiB is VmHWM from /proc/self/status, in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
