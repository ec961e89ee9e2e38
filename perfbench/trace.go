package main

// The traced run: the workload runs untraced for half the window (the
// baseline for the tracing overhead and the workload-level latencies),
// then traced for the other half with the server's span ring, client
// trace IDs, benchmark-side spans and the durability wrappers on. The
// per-layer metrics come from those spans, from deltas of the
// registries the program exports, and from direct probes of the acl,
// vfs and core layers.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/chirp"
	"identitybox/internal/durable"
	"identitybox/internal/identity"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

func (b *bench) traced(st *stack, sess *session, window time.Duration) (*result, error) {
	o, cfg, wl, rec := b.o, b.cfg, b.wl, b.rec
	half := window / 2
	markU := markRefusals(st, sess)
	wsU, err := wl.window(sess.clients, half, nil, st)
	if err != nil {
		return nil, err
	}
	guard(o, st, sess, markU, wsU)

	// A second set of connections negotiates the trace capability.
	copts := clientOptions(wl)
	cring := obs.NewSpanRing(1 << 16)
	copts.Spans = cring
	rec.on.Store(true)
	tsess, err := dialSession(st, b.creds, b.conns, copts, rec)
	if err != nil {
		return nil, err
	}
	defer tsess.close()

	ra := st.reg.Snapshot()
	ca := copts.Metrics.Snapshot()
	req0, rd0, wr0 := tsess.requests(), tsess.reads.Load(), tsess.writes.Load()
	p0, err := sampleProc()
	if err != nil {
		return nil, err
	}
	markT := markRefusals(st, tsess)
	lag := st.reg.Gauge(replica.MetricLag)
	sampler := startSampler(2*time.Millisecond, map[string]func() float64{
		"queue": func() float64 { return float64(st.adm.Stats().Queued) },
		"lag":   func() float64 { return float64(lag.Value()) },
	})
	wsT, err := wl.window(tsess.clients, half, rec, st)
	samples := sampler.finish()
	if err != nil {
		return nil, err
	}
	p1, err := sampleProc()
	if err != nil {
		return nil, err
	}
	guard(o, st, tsess, markT, wsT)
	reqs := tsess.requests() - req0
	rd, wr := tsess.reads.Load()-rd0, tsess.writes.Load()-wr0
	rb, cb := st.reg.Snapshot(), copts.Metrics.Snapshot()
	reg, creg := regDelta{ra, rb}, regDelta{ca, cb}

	ops := float64(len(wsT.all))
	perKop := func(v float64) float64 { return ratio(v*1000, ops) }
	muts := float64(wsT.muts)
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Workload level: latencies from the untraced half, failures and
	// generator lateness over both.
	set("e2e.op_p50_us", "us", quantile(latencies(wsU.all), 0.5))
	set("e2e.op_p90_us", "us", quantile(latencies(wsU.all), 0.9))
	set("e2e.read_p90_us", "us", quantile(latencies(wsU.read), 0.9))
	set("e2e.op_p99_us", "us", quantile(latencies(wsU.all), 0.99))
	set("e2e.read_p99_us", "us", quantile(latencies(wsU.read), 0.99))
	set("e2e.mut_p50_us", "us", quantile(latencies(wsU.mut), 0.5))
	set("e2e.mut_p99_us", "us", quantile(latencies(wsU.mut), 0.99))
	set("e2e.job_p50_ms", "ms", quantile(sorted(wsU.jobs), 0.5))
	set("e2e.job_p90_ms", "ms", quantile(sorted(wsU.jobs), 0.9))
	both := &wstats{}
	both.merge(wsU)
	both.merge(wsT)
	set("e2e.fail_ratio", "ratio", ratio(float64(both.refused), float64(both.attempted)))
	set("bench.gen_lag_p99_ms", "ms", quantile(sorted(both.genLag), 0.99))

	// auth
	set("auth.dial_ms", "ms", median(append(sess.dials, tsess.dials...)))

	// chirp wire, client side and process
	set("chirp.client.reads_per_reply", "count", ratio(float64(rd), reqs))
	set("chirp.client.writes_per_call", "count", ratio(float64(wr), reqs))
	set("process.syscr_per_op", "count", ratio(float64(p1.syscr-p0.syscr), ops))
	set("process.syscw_per_op", "count", ratio(float64(p1.syscw-p0.syscw), ops))
	set("chirp.client.window_stalls_per_kop", "count", perKop(creg.counter(chirp.MetricClientWindowStalls)))
	set("chirp.client.retries_per_kop", "count", perKop(creg.counter(chirp.MetricClientRetries)))

	// chirp server, from its spans and registry
	srvSpans, cliSpans := serverSpans(st.spans.Spans()), cring.Spans()
	phase := phaseMeans(srvSpans)
	set("chirp.server.lane_queue_us", "us", phase["lane.queue"])
	set("chirp.server.handler_us", "us", phase["handler"])
	set("chirp.server.reply_us", "us", phase["reply"])
	set("replica.ack_wait_us", "us", phase["ack.wait"])
	set("chirp.server.wire_bytes_per_op", "B", ratio(reg.counter(chirp.MetricRxBytes)+reg.counter(chirp.MetricTxBytes), ops))
	hits, misses := float64(rb.Gauges[chirp.MetricPayloadPoolHits]-ra.Gauges[chirp.MetricPayloadPoolHits]),
		float64(rb.Gauges[chirp.MetricPayloadPoolMisses]-ra.Gauges[chirp.MetricPayloadPoolMisses])
	set("chirp.server.pool_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("chirp.server.backpressure_stalls_per_kop", "count", perKop(reg.counter(chirp.MetricBackpressureStalls)))

	// admission
	set("admission.slot_wait_p50_us", "us", reg.histQuantile(admission.MetricWait, 0.5))
	set("admission.slot_wait_p99_us", "us", reg.histQuantile(admission.MetricWait, 0.99))
	set("admission.queue_depth_p99", "count", quantile(sorted(samples["queue"]), 0.99))
	set("admission.shed_per_kop", "count", perKop(reg.counterFamily(admission.MetricShed)+reg.counter(admission.MetricBusy)))

	// replication
	barriers, dedupes := b.probe.samples()
	set("replica.barrier_p50_us", "us", quantile(barriers, 0.5))
	set("replica.barrier_p99_us", "us", quantile(barriers, 0.99))
	set("replica.dedupe_append_p50_us", "us", quantile(dedupes, 0.5))
	set("replica.lag_records_p99", "count", quantile(sorted(samples["lag"]), 0.99))
	set("replica.sync_timeouts", "count", reg.counter(replica.MetricSyncTimeouts))
	set("replica.shipped_bytes_per_user_byte", "ratio", ratio(reg.counter(replica.MetricBytesShipped), float64(wsT.userBytes)))

	// durable
	set("durable.commit_p50_us", "us", reg.histQuantile(durable.MetricCommitLatencyUs, 0.5))
	set("durable.commit_p99_us", "us", reg.histQuantile(durable.MetricCommitLatencyUs, 0.99))
	set("durable.records_per_group", "count", ratio(reg.counter(durable.MetricWALRecords), reg.counter(durable.MetricCommitGroups)))
	set("durable.fsyncs_per_kmut", "count", ratio(reg.counter(durable.MetricWALFsyncs)*1000, muts))
	set("durable.fsyncs_per_kop", "count", perKop(reg.counter(durable.MetricWALFsyncs)))
	set("durable.wal_bytes_per_user_byte", "ratio", ratio(reg.counter(durable.MetricWALBytes), float64(wsT.userBytes)))
	set("vfs.records_per_mut", "count", ratio(reg.counter(durable.MetricWALRecords), muts))
	set("vfs.wal_records_per_kop", "count", perKop(reg.counter(durable.MetricWALRecords)))

	// process
	set("process.alloc_bytes_per_op", "B", ratio(float64(p1.allocB-p0.allocB), ops))
	set("process.gc_cpu_frac", "ratio", ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU))

	// tracing itself
	pu, pt := quantile(latencies(wsU.all), 0.5), quantile(latencies(wsT.all), 0.5)
	set("obs.trace_overhead_pct", "%", ratio(100*(pt-pu), pu))
	set("obs.trace_coverage_pct", "%", coverage(cliSpans, srvSpans))

	// Direct probes of the acl, vfs and core layers, on a collected
	// heap so that no collection of the window's garbage overlaps them.
	runtime.GC()
	paths := wl.samplePaths()
	resolve, files := aclProbe(st.store.FS(), paths, identity.Principal(b.creds.names[0]), rec)
	set("acl.resolve_us", "us", resolve)
	set("acl.files_read_per_check", "count", files)
	stat, err := statProbe(st.store.FS(), paths, rec)
	if err != nil {
		return nil, err
	}
	set("vfs.stat_us", "us", stat)
	if err := coreProbe(wl, rec, set); err != nil {
		return nil, err
	}

	if err := postChecks(wl, st); err != nil {
		return nil, err
	}
	sess.close()
	tsess.close()
	recovers, replayed, err := recoverChecks(wl, st, cfg.WALShards, probeReps)
	if err != nil {
		return nil, err
	}
	set("durable.recover_s", "s", median(recovers))
	set("durable.replayed_records", "count", float64(replayed))
	compacts := compactTimes(wl)
	if len(compacts) == 0 {
		// No periodic compaction ran: time one of the recovered state
		// (a second would find nothing new to fold).
		s, _, err := reopen(st.primDir, cfg.WALShards, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		d, err := rec.timed("store.compact", 0, s.Compact)
		if err := errors.Join(err, s.Close()); err != nil {
			return nil, fmt.Errorf("compaction probe: %w", err)
		}
		compacts = []float64{float64(d) / 1e6}
	}
	set("durable.compact_ms", "ms", median(compacts))
	rec.on.Store(false)

	if err := dumpSpans(o, rec.dropped, rec.spans, st.spans.Spans(), cliSpans); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: both.attempted, Failed: both.refused, Metrics: m}, nil
}

// serverSpans picks the server's request spans; only the traced
// session's requests have them.
func serverSpans(all []obs.Span) []obs.Span {
	var out []obs.Span
	for _, s := range all {
		if s.Name == "server" {
			out = append(out, s)
		}
	}
	return out
}

// phaseMeans is the mean self time of each server span phase over all
// spans, counting a phase absent from a span as zero; ack.wait is the
// barrier wait not covered by the WAL group commit (the follower ack
// and queueing behind it), averaged over spans that waited.
func phaseMeans(spans []obs.Span) map[string]float64 {
	sum := map[string]float64{}
	var ack float64
	var barriers int
	for _, s := range spans {
		var wait, group time.Duration
		hasBarrier := false
		for _, p := range s.Phases {
			sum[p.Name] += float64(p.Dur) / 1e3
			switch p.Name {
			case "barrier.wait":
				wait, hasBarrier = p.Dur, true
			case "wal.group":
				group = p.Dur
			}
		}
		if hasBarrier {
			barriers++
			if d := wait - group; d > 0 {
				ack += float64(d) / 1e3
			}
		}
	}
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = ratio(v, float64(len(spans)))
	}
	out["ack.wait"] = ratio(ack, float64(barriers))
	return out
}

// coverage is the share of traced client-call latency that a layer
// span accounts for: the client's own submit and send phases plus the
// server span of the same trace, as a union of intervals clipped to
// the client span.
func coverage(client, server []obs.Span) float64 {
	byTrace := map[uint64]obs.Span{}
	for _, s := range server {
		byTrace[s.Trace] = s
	}
	var covered, total time.Duration
	for _, c := range client {
		srv, ok := byTrace[c.Trace]
		if c.Name != "client" || !ok {
			continue
		}
		type iv struct{ a, b time.Time }
		ivs := []iv{{srv.Start, srv.Start.Add(srv.Dur)}}
		for _, p := range c.Phases {
			if p.Name == "submit.stall" || p.Name == "send" {
				a := c.Start.Add(p.Offset)
				ivs = append(ivs, iv{a, a.Add(p.Dur)})
			}
		}
		lo, hi := c.Start, c.Start.Add(c.Dur)
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var cur iv
		for i, v := range ivs {
			if v.a.Before(lo) {
				v.a = lo
			}
			if v.b.After(hi) {
				v.b = hi
			}
			if !v.b.After(v.a) {
				continue
			}
			switch {
			case i == 0 || cur.b.IsZero():
				cur = v
			case v.a.After(cur.b):
				covered += cur.b.Sub(cur.a)
				cur = v
			case v.b.After(cur.b):
				cur.b = v.b
			}
		}
		if !cur.b.IsZero() {
			covered += cur.b.Sub(cur.a)
		}
		total += c.Dur
	}
	return ratio(100*float64(covered), float64(total))
}

// probePasses is how many times a direct probe walks its sampled
// paths; each pass is timed on its own and the probe reports the
// median, so a collection or preemption during one pass does not move
// the figure.
const probePasses = 15

// timedPasses runs pass probePasses times, each inside a span of the
// given name, and returns the median pass time in µs divided by n.
func timedPasses(rec *spanRec, name string, n int, pass func()) float64 {
	var times []float64
	for i := 0; i < probePasses; i++ {
		d, _ := rec.timed(name, 0, func() error { pass(); return nil })
		times = append(times, float64(d)/1e3)
	}
	return median(times) / float64(n)
}

// aclProbe resolves each path's effective ACL the way the server does
// (the nearest .__acl up the ancestor chain, parsed, then checked),
// reporting the time per check and the ACL files read per check.
func aclProbe(fs *vfs.FS, paths []string, who identity.Principal, rec *spanRec) (us, files float64) {
	if len(paths) == 0 {
		return 0, 0
	}
	var reads int
	us = timedPasses(rec, "probe.acl", len(paths), func() {
		reads = 0
		for _, p := range paths {
			dir := vfs.Dir(p)
			for {
				reads++
				data, err := fs.ReadFile(vfs.Join(dir, acl.FileName))
				if err == nil {
					if a, err := acl.Parse(string(data)); err == nil {
						a.Allows(who, acl.Read)
					}
					break
				}
				if dir == "/" {
					break
				}
				dir = vfs.Dir(dir)
			}
		}
	})
	return us, float64(reads) / float64(len(paths))
}

// statProbe is the time of FS.Stat over the sampled paths, each of
// which must exist.
func statProbe(fs *vfs.FS, paths []string, rec *spanRec) (float64, error) {
	if len(paths) == 0 {
		return 0, nil
	}
	var err error
	us := timedPasses(rec, "probe.vfs", len(paths), func() {
		for _, p := range paths {
			if _, e := fs.Stat(p); e != nil && err == nil {
				err = fmt.Errorf("check: stat probe: %s: %w", p, e)
			}
		}
	})
	return us, err
}

// coreProbe reports the identity-box layer for fig3-jobs: the remote
// exec latency from the traced window, and a local core.Box run of the
// same job program for its wall time and policy counters. The other
// workloads exec nothing and report zeros.
func coreProbe(wl workloadRunner, rec *spanRec, set func(name, unit string, v float64)) error {
	names := []string{"core.exec_ms", "core.box_run_ms", "core.syscalls_per_job", "core.acl_checks_per_syscall", "core.ns_per_boxed_syscall"}
	units := []string{"ms", "ms", "count", "ratio", "ns"}
	f, ok := wl.(*fig3)
	if !ok {
		for i, n := range names {
			set(n, units[i], 0)
		}
		return nil
	}
	var execs []float64
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == "rpc" && s.Cmd == "exec" && s.Err == "" {
			execs = append(execs, float64(s.Dur)/1e6)
		}
	}
	rec.mu.Unlock()
	var walls []float64 // ns
	var syscalls, checks float64
	for i := 0; i < probeReps; i++ {
		_, err := rec.timed("probe.box", 0, func() error {
			st, bs, d, err := f.localRun(i%2, 0, 0)
			if err != nil {
				return err
			}
			if st.Code != 0 || st.Runtime.Seconds() != f.refRuntime[i%2] {
				return fmt.Errorf("check: local box run exited %d in %v s", st.Code, st.Runtime.Seconds())
			}
			walls = append(walls, float64(d))
			syscalls, checks = float64(bs.Syscalls), float64(bs.ACLChecks)
			return nil
		})
		if err != nil {
			return err
		}
	}
	wall := median(walls)
	set("core.exec_ms", "ms", median(execs))
	set("core.box_run_ms", "ms", wall/1e6)
	set("core.syscalls_per_job", "count", syscalls)
	set("core.acl_checks_per_syscall", "ratio", ratio(checks, syscalls))
	set("core.ns_per_boxed_syscall", "ns", ratio(wall, syscalls))
	return nil
}

func compactTimes(wl workloadRunner) []float64 {
	if m, ok := wl.(*mutate); ok {
		return m.compactTimes()
	}
	return nil
}

// dumpSpans writes every span of the traced window as JSON lines.
func dumpSpans(o options, dropped int, groups ...[]obs.Span) error {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, g := range groups {
		for _, s := range g {
			if s.TraceS == "" && s.Trace != 0 {
				s.TraceS = obs.FormatTraceID(s.Trace)
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	err = errors.Join(w.Flush(), f.Close())
	if err == nil {
		fmt.Fprintf(o.log, "perfbench: spans written to %s (%d benchmark spans past the cap dropped)\n", path, dropped)
	}
	return err
}
