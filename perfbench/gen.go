package main

// Seeded input generators. Every operation stream, file body, tree
// shape and ACL the benchmark sends is a pure function of the seed, so
// the same seed replays the same stream (see TestStreamsDeterministic)
// and the expected result of every read is known without asking the
// program under test.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/vfs"
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyOf hashes a seed and a name into a content key.
func keyOf(seed int64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return mix64(h.Sum64() ^ uint64(seed))
}

// content returns n deterministic bytes for key.
func content(key uint64, n int) []byte {
	b := make([]byte, n)
	s := key
	for i := 0; i < n; i += 8 {
		s = mix64(s)
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(s >> (8 * j))
		}
	}
	return b
}

func newRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(keyOf(seed, stream) >> 1)))
}

// weighted draws a name with probability proportional to its weight;
// names are kept sorted so the draw is deterministic.
type weighted struct {
	names []string
	cum   []int
}

func newWeighted(w map[string]int) weighted {
	var ws weighted
	for k := range w {
		ws.names = append(ws.names, k)
	}
	sort.Strings(ws.names)
	total := 0
	for _, k := range ws.names {
		total += w[k]
		ws.cum = append(ws.cum, total)
	}
	return ws
}

func (ws weighted) draw(r *rand.Rand) string {
	x := r.Intn(ws.cum[len(ws.cum)-1])
	i := sort.SearchInts(ws.cum, x+1)
	return ws.names[i]
}

// --- fig3-jobs ----------------------------------------------------------

// fig3Job is one Figure-3 job of the open-loop stream.
type fig3Job struct {
	ID        int
	Due       time.Duration // offset from the window start
	Principal int           // index into the two principals
	Input     int           // index into the pre-generated inputs
}

// fig3Inputs is the number of distinct 1 MiB inputs the jobs cycle
// through; generating a fresh one per job would put the generator's
// own CPU on the measured path.
const fig3Inputs = 4

// fig3PipelineDepth is how many v2 calls a fig3-jobs connection keeps
// outstanding: its jobs overlap, so each connection carries several
// jobs' calls at once.
const fig3PipelineDepth = 4

type fig3Gen struct {
	r    *rand.Rand
	rate float64
	next int
	due  time.Duration
}

func newFig3Gen(seed int64, rate float64) *fig3Gen {
	return &fig3Gen{r: newRand(seed, "fig3"), rate: rate}
}

// Next returns the next job: arrivals on a fixed schedule at the
// configured rate, whatever the server's progress, each job owned by
// a random principal. A fixed schedule rather than Poisson arrivals
// keeps the job overlap, and so the latencies, from depending on the
// seed.
func (g *fig3Gen) Next() fig3Job {
	g.due += time.Duration(float64(time.Second) / g.rate)
	j := fig3Job{ID: g.next, Due: g.due, Principal: g.r.Intn(2), Input: g.r.Intn(fig3Inputs)}
	g.next++
	return j
}

// fig3Input is input i's body and the out.dat the job program makes
// of it.
func fig3Input(seed int64, i, n int) (in, out []byte) {
	in = content(keyOf(seed, fmt.Sprintf("fig3-input-%d", i)), n)
	return in, fig3Transform(in)
}

// fig3OutBytes is the size of a job's out.dat: a fold of its input,
// so the job's journaled write volume is dominated by the staged 1 MiB
// input rather than doubled by an output of the same size.
const fig3OutBytes = 64 << 10

// fig3Transform is what the job program computes from input.dat.
func fig3Transform(in []byte) []byte {
	out := make([]byte, fig3OutBytes)
	for i, b := range in {
		out[i%fig3OutBytes] ^= b ^ 0x5a
	}
	return out
}

// fig3JobDir is job id's directory in the reserve area; the fixed
// width keeps every job's syscall arguments the same length, so every
// job costs the same virtual time.
func fig3JobDir(principal, id int) string {
	return fmt.Sprintf("%s/job-%c-%06d", gridDir, 'a'+principal, id)
}

// --- meta-pipelined -----------------------------------------------------

// metaTree is the pre-built read-only tree: every directory has its own
// ACL (exact and wildcard-DN entries) and one small file.
type metaTree struct {
	Dirs     []string            // every directory, parents before children
	Children map[string][]string // dir -> child dir base names
	ACL      map[string]string   // dir -> ACL text (normalized)
	seed     int64
	fileSize int
}

const metaRoot = "/meta"

// metaFile is the name of each directory's data file.
const metaFile = "f.dat"

func newMetaTree(seed int64, fanout []int, fileSize int, principals []string) *metaTree {
	t := &metaTree{Children: map[string][]string{}, ACL: map[string]string{}, seed: seed, fileSize: fileSize}
	r := newRand(seed, "meta-tree")
	level := []string{metaRoot}
	for depth, f := range fanout {
		var next []string
		for _, parent := range level {
			for i := 0; i < f; i++ {
				name := fmt.Sprintf("%c%d-%03d", 'a'+depth, i, r.Intn(1000))
				t.Children[parent] = append(t.Children[parent], name)
				next = append(next, vfs.Join(parent, name))
			}
		}
		t.Dirs = append(t.Dirs, next...)
		level = next
	}
	for _, d := range t.Dirs {
		t.ACL[d] = metaACL(r, principals)
	}
	return t
}

// metaACL grants both principals rl, each either by an exact entry or
// by a wildcard-DN entry over its organisational unit, among decoy
// wildcard entries that match neither.
func metaACL(r *rand.Rand, principals []string) string {
	a := &acl.ACL{}
	for i := 0; i < 1+r.Intn(3); i++ {
		a.Set(fmt.Sprintf("globus:/O=Grid/OU=grp%02d/*", r.Intn(100)), acl.Read|acl.List, acl.None)
	}
	for _, p := range principals {
		if r.Intn(2) == 0 {
			a.Set("globus:"+p, acl.Read|acl.List, acl.None)
		} else {
			a.Set("globus:"+p[:strings.LastIndex(p, "/")]+"/*", acl.Read|acl.List, acl.None)
		}
	}
	if r.Intn(2) == 0 {
		a.Set("globus:/O=Other/*", acl.List, acl.None)
	}
	return a.String()
}

// FileBody is the expected content of dir's data file.
func (t *metaTree) FileBody(dir string) []byte {
	return content(keyOf(t.seed, "meta-file:"+dir), t.fileSize)
}

// Listing is the expected sorted directory listing of dir.
func (t *metaTree) Listing(dir string) []string {
	names := append([]string{acl.FileName, metaFile}, t.Children[dir]...)
	sort.Strings(names)
	return names
}

// metaOp is one read of the meta-pipelined stream.
type metaOp struct {
	Kind string // stat, lstat, read, readdir, getacl
	Dir  int    // index into metaTree.Dirs
}

type metaGen struct {
	r      *rand.Rand
	levels [][]int // per depth: directory indices in seeded hotness order
	zipf   []*rand.Zipf
	mix    weighted
}

// newMetaGen is worker w's stream. Each operation picks a depth
// uniformly, then a directory of that depth Zipf-skewed over a seeded
// permutation: the hot set moves with the seed, but every seed spends
// the same share of its operations at each depth, so path-resolution
// cost does not depend on which directories happen to be hot.
func newMetaGen(seed int64, w int, t *metaTree, s float64, mix map[string]int) *metaGen {
	g := &metaGen{r: newRand(seed, fmt.Sprintf("meta-worker-%d", w)), mix: newWeighted(mix)}
	byDepth := map[int][]int{}
	for i, d := range t.Dirs {
		n := strings.Count(d, "/")
		byDepth[n] = append(byDepth[n], i)
	}
	for n := 2; n < 2+len(byDepth); n++ {
		lvl := byDepth[n]
		order := newRand(seed, fmt.Sprintf("meta-perm-%d", n)).Perm(len(lvl))
		hot := make([]int, len(lvl))
		for i, j := range order {
			hot[i] = lvl[j]
		}
		g.levels = append(g.levels, hot)
		g.zipf = append(g.zipf, rand.NewZipf(g.r, s, 1, uint64(len(lvl)-1)))
	}
	return g
}

func (g *metaGen) Next() metaOp {
	l := g.r.Intn(len(g.levels))
	return metaOp{Kind: g.mix.draw(g.r), Dir: g.levels[l][g.zipf[l].Uint64()]}
}

// --- mutate-subtrees ----------------------------------------------------

// subtreeDir names top-level subtree s.
func subtreeDir(s int) string { return fmt.Sprintf("/s%02d", s) }

// workerDir is worker w's private directory inside subtree s: workers
// never touch each other's keys, so each worker's model of its own
// keys is exact.
func workerDir(s, w int) string { return fmt.Sprintf("/s%02d/w%02d", s, w) }

// mutOp is one operation of a mutate-subtrees worker. Path2 is the
// rename target; Version names the PutFile body; ACL is the SetACL
// text.
type mutOp struct {
	Kind    string
	Path    string
	Path2   string
	Version uint64
	ACL     string
}

// mutModel is a worker's view of its own keys after every acked
// operation: which files exist with which body, which empty
// directories exist, and each worker directory's ACL.
type mutModel struct {
	Files  map[string]uint64 // path -> body version
	Dirs   map[string]bool   // empty directories made by mkdir
	ACLs   map[string]string // worker dir -> ACL text set by setacl
	files  []string          // Files keys, for uniform picks
	dirs   []string
	recent []string // recently written files, newest last
}

func (m *mutModel) addFile(p string, v uint64) {
	if _, ok := m.Files[p]; !ok {
		m.files = append(m.files, p)
	}
	m.Files[p] = v
	m.recent = append(m.recent, p)
	if len(m.recent) > 16 {
		m.recent = m.recent[1:]
	}
}

func (m *mutModel) removeFile(p string) {
	delete(m.Files, p)
	m.files = removeString(m.files, p)
	m.recent = removeString(m.recent, p)
}

func removeString(s []string, v string) []string {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

type mutGen struct {
	seed       int64
	w          int
	subtrees   int
	shards     int
	maxFiles   int
	principals []string
	r          *rand.Rand
	mix        weighted
	n          int
	M          mutModel
}

func newMutGen(seed int64, w int, cfg mutateConfig, shards int, principals []string) *mutGen {
	return &mutGen{
		seed: seed, w: w, subtrees: cfg.Subtrees, shards: shards, maxFiles: cfg.MaxFilesPerWorker,
		principals: principals,
		r:          newRand(seed, fmt.Sprintf("mutate-worker-%d", w)),
		mix:        newWeighted(cfg.Mix),
		M:          mutModel{Files: map[string]uint64{}, Dirs: map[string]bool{}, ACLs: map[string]string{}},
	}
}

// Body is the content of a PutFile of the given version.
func (g *mutGen) Body(v uint64, n int) []byte { return content(v, n) }

// Next draws the next operation and applies it to the model, as the
// server will once it acks it. Kinds whose precondition the model
// cannot meet fall back to a put (no files, full worker) or a mkdir
// (no empty directory).
func (g *mutGen) Next() mutOp {
	g.n++
	kind := g.mix.draw(g.r)
	m := &g.M
	needsFile := kind == "unlink" || kind == "rename" || kind == "rename_cross" || kind == "stat" || kind == "get"
	if needsFile && len(m.files) == 0 {
		kind = "put"
	}
	if kind == "put" && len(m.files) >= g.maxFiles {
		kind = "unlink"
	}
	if kind == "rmdir" && len(m.dirs) == 0 {
		kind = "mkdir"
	}
	s := g.r.Intn(g.subtrees)
	fresh := func(s int, prefix string) string {
		return fmt.Sprintf("%s/%s%07d", workerDir(s, g.w), prefix, g.n)
	}
	switch kind {
	case "put":
		op := mutOp{Kind: kind, Path: fresh(s, "f"), Version: keyOf(g.seed, fmt.Sprintf("put-%d-%d", g.w, g.n))}
		m.addFile(op.Path, op.Version)
		return op
	case "unlink":
		p := m.files[g.r.Intn(len(m.files))]
		m.removeFile(p)
		return mutOp{Kind: kind, Path: p}
	case "mkdir":
		op := mutOp{Kind: kind, Path: fresh(s, "d")}
		m.Dirs[op.Path] = true
		m.dirs = append(m.dirs, op.Path)
		return op
	case "rmdir":
		i := g.r.Intn(len(m.dirs))
		p := m.dirs[i]
		m.dirs = append(m.dirs[:i], m.dirs[i+1:]...)
		delete(m.Dirs, p)
		return mutOp{Kind: kind, Path: p}
	case "rename", "rename_cross":
		p := m.files[g.r.Intn(len(m.files))]
		from := subtreeOf(p)
		to := from
		if kind == "rename_cross" {
			// A different subtree on a different WAL shard: the
			// two-shard append.
			var cands []int
			for t := 0; t < g.subtrees; t++ {
				if vfs.ShardOf(subtreeDir(t), g.shards) != vfs.ShardOf(subtreeDir(from), g.shards) {
					cands = append(cands, t)
				}
			}
			to = cands[g.r.Intn(len(cands))]
		}
		v := m.Files[p]
		m.removeFile(p)
		op := mutOp{Kind: kind, Path: p, Path2: fresh(to, "r")}
		m.addFile(op.Path2, v)
		return op
	case "setacl":
		d := workerDir(s, g.w)
		a := &acl.ACL{}
		for _, p := range g.principals {
			a.Set("globus:"+p, acl.All, acl.None)
		}
		a.Set(fmt.Sprintf("globus:/O=Grid/OU=grp%02d/*", g.r.Intn(100)), acl.Read|acl.List, acl.None)
		op := mutOp{Kind: kind, Path: d, ACL: a.String()}
		m.ACLs[d] = op.ACL
		return op
	case "stat", "get":
		src := m.recent
		if len(src) == 0 {
			src = m.files
		}
		return mutOp{Kind: kind, Path: src[g.r.Intn(len(src))]}
	}
	panic("perfbench: unknown mutate op " + kind)
}

// subtreeOf parses the subtree index out of a worker path.
func subtreeOf(p string) int {
	var s int
	fmt.Sscanf(p, "/s%02d/", &s)
	return s
}
