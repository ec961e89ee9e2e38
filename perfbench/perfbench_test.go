package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"identitybox/internal/chirp"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
)

// TestStreamsDeterministic asserts that a seed fixes every operation
// stream and input the benchmark generates, and that another seed
// changes them.
func TestStreamsDeterministic(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	streams := func(seed int64) string {
		var b strings.Builder
		f := newFig3Gen(seed, cfg.Workloads.Fig3.JobsPerS)
		for i := 0; i < 200; i++ {
			fmt.Fprintln(&b, f.Next())
		}
		in, out := fig3Input(seed, 1, 4096)
		fmt.Fprintln(&b, in, out)
		m := newMeta(cfg.Workloads.Meta, seed, cfg.Principals)
		for _, g := range m.gens {
			for i := 0; i < 200; i++ {
				op := g.Next()
				fmt.Fprintln(&b, op.Kind, m.tree.Dirs[op.Dir], m.tree.ACL[m.tree.Dirs[op.Dir]], m.tree.FileBody(m.tree.Dirs[op.Dir]))
			}
		}
		u := newMutate(cfg.Workloads.Mutate, seed, cfg.WALShards, cfg.Principals)
		for _, g := range u.gens {
			for i := 0; i < 500; i++ {
				op := g.Next()
				fmt.Fprintln(&b, op, g.Body(op.Version, 64))
			}
		}
		return b.String()
	}
	a, again, other := streams(cfg.HeldOutSeed), streams(cfg.HeldOutSeed), streams(cfg.HeldOutSeed+1)
	if a != again {
		t.Fatal("the same seed generated two different operation streams")
	}
	if a == other {
		t.Fatal("different seeds generated the same operation stream")
	}
}

// TestMutateModelMatchesStream replays a worker's stream against an
// in-memory model of the keys and checks every precondition the
// server will enforce holds: the generator never asks for an
// operation that must fail.
func TestMutateModelMatchesStream(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	g := newMutGen(1, 0, cfg.Workloads.Mutate, cfg.WALShards, cfg.Principals)
	files, dirs := map[string]bool{}, map[string]bool{}
	kinds := map[string]int{}
	for i := 0; i < 5000; i++ {
		op := g.Next()
		kinds[op.Kind]++
		switch op.Kind {
		case "put":
			files[op.Path] = true
		case "unlink":
			if !files[op.Path] {
				t.Fatalf("op %d unlinks missing %s", i, op.Path)
			}
			delete(files, op.Path)
		case "rename", "rename_cross":
			if !files[op.Path] || files[op.Path2] {
				t.Fatalf("op %d renames %s -> %s against the model", i, op.Path, op.Path2)
			}
			if op.Kind == "rename_cross" && subtreeOf(op.Path) == subtreeOf(op.Path2) {
				t.Fatalf("op %d: cross rename stays in subtree", i)
			}
			delete(files, op.Path)
			files[op.Path2] = true
		case "mkdir":
			dirs[op.Path] = true
		case "rmdir":
			if !dirs[op.Path] {
				t.Fatalf("op %d removes missing dir %s", i, op.Path)
			}
			delete(dirs, op.Path)
		case "stat", "get":
			if !files[op.Path] {
				t.Fatalf("op %d reads missing %s", i, op.Path)
			}
		}
	}
	if len(files) != len(g.M.Files) || len(dirs) != len(g.M.Dirs) {
		t.Fatalf("model drifted: %d files, %d dirs; generator has %d, %d", len(files), len(dirs), len(g.M.Files), len(g.M.Dirs))
	}
	for k := range cfg.Workloads.Mutate.Mix {
		if kinds[k] == 0 {
			t.Errorf("5000 ops never drew a %s", k)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSelfTest runs each workload briefly, untraced and traced, and
// asserts that the run passes its checks and prints exactly the
// metrics BENCHMARK.json names, each with its unit. It covers
// mutate-subtrees too, which BENCHMARK.json does not list.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack for every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, row := range cfg.LayerMap {
		for _, m := range row.Metrics {
			named[m] = true
		}
	}
	for _, m := range bj.PerLayer {
		if !named[m.Name] {
			t.Errorf("per-layer metric %s is missing from the layer map in workloads.json", m.Name)
		}
	}
	for _, w := range []string{"fig3-jobs", "meta-pipelined", "mutate-subtrees"} {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", w, "-seed", fmt.Sprint(cfg.HeldOutSeed), "-seconds", "1", "-trace", trace, "-workdir", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestRejectsUnknownWorkload checks that a bad workload name exits
// non-zero without printing a result.
func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestLoopRecord checks that the loop type workloads.json records for
// each workload is the one its generator runs.
func TestLoopRecord(t *testing.T) {
	var rec struct {
		Workloads map[string]struct {
			Loop string `json:"loop"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range rec.Workloads {
		wl, _, err := newRunner(cfg, name, cfg.HeldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		want := "closed"
		if openLoop(wl) {
			want = "open"
		}
		if w.Loop != want {
			t.Errorf("workloads.json records %s as %q, its generator is %s-loop", name, w.Loop, want)
		}
	}
}

// TestGuardCountsUnseenRefusals checks that the validity guard adds
// only what the workload's calls did not see, and only over the
// window: EBUSY replies the client retried by itself and semi-sync
// timeouts.
func TestGuardCountsUnseenRefusals(t *testing.T) {
	st := &stack{reg: obs.NewRegistry()}
	sess := &session{metrics: obs.NewRegistry()}
	busy, timeouts := sess.metrics.Counter(chirp.MetricClientBusy), st.reg.Counter(replica.MetricSyncTimeouts)
	busy.Add(7) // before the window: set-up and warm-up
	timeouts.Add(5)
	m := markRefusals(st, sess)
	// In the window the client received 3 EBUSY replies, retried 2 of
	// them itself and returned the third, which caller.do counted; one
	// acknowledged write degraded on a sync timeout.
	busy.Add(3)
	timeouts.Inc()
	ws := &wstats{attempted: 10, refused: 1, busySeen: 1}
	guard(options{log: io.Discard}, st, sess, m, ws)
	if ws.attempted != 12 || ws.refused != 4 {
		t.Fatalf("attempted %d refused %d, want 12 and 4", ws.attempted, ws.refused)
	}
}
