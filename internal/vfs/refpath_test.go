package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Reference path code: the split-based helpers (SplitPath among them)
// and the recursive resolver that the scanning implementation
// replaced, kept verbatim so the fast code can be checked against them
// differentially. Nothing outside tests may call these.

func refSplitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

func refClean(path string) string {
	return "/" + strings.Join(refSplitPath(path), "/")
}

func refJoin(elem ...string) string {
	return refClean(strings.Join(elem, "/"))
}

func refDir(path string) string {
	parts := refSplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}

func refBase(path string) string {
	parts := refSplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

func refResolve(fs *FS, path string, followLast bool, depth int) (node, parent *Inode, base string, err error) {
	if depth > MaxSymlinkHops {
		return nil, nil, "", ErrLoop
	}
	parts := refSplitPath(path)
	cur := fs.root
	var par *Inode
	for i, comp := range parts {
		if cur.ftype != TypeDir {
			return nil, nil, "", ErrNotDir
		}
		child, ok := cur.children[comp]
		if !ok {
			if i == len(parts)-1 {
				return nil, cur, comp, ErrNotExist
			}
			return nil, nil, "", ErrNotExist
		}
		last := i == len(parts)-1
		if child.ftype == TypeSymlink && (!last || followLast) {
			rest := strings.Join(parts[i+1:], "/")
			targ := child.target
			if !strings.HasPrefix(targ, "/") {
				targ = "/" + strings.Join(parts[:i], "/") + "/" + targ
			}
			if rest != "" {
				targ = targ + "/" + rest
			}
			return refResolve(fs, targ, followLast, depth+1)
		}
		par = cur
		cur = child
	}
	if len(parts) == 0 {
		return fs.root, nil, "", nil
	}
	return cur, par, parts[len(parts)-1], nil
}

// checkPathHelpers compares every lexical helper with its reference
// on one input and checks the canonical-form invariants.
func checkPathHelpers(t *testing.T, p string) {
	t.Helper()
	c := Clean(p)
	if want := refClean(p); c != want {
		t.Fatalf("Clean(%q) = %q, want %q", p, c, want)
	}
	if cc := Clean(c); cc != c {
		t.Fatalf("Clean not idempotent: Clean(%q) = %q", c, cc)
	}
	if !isCanonical(c) {
		t.Fatalf("isCanonical(Clean(%q) = %q) = false", p, c)
	}
	if isCanonical(p) != (p == c) {
		t.Fatalf("isCanonical(%q) = %v, but Clean gives %q", p, isCanonical(p), c)
	}
	if got, want := Dir(p), refDir(p); got != want {
		t.Fatalf("Dir(%q) = %q, want %q", p, got, want)
	}
	if got, want := Base(p), refBase(p); got != want {
		t.Fatalf("Base(%q) = %q, want %q", p, got, want)
	}
	if got, want := PathComponents(p), len(refSplitPath(p)); got != want {
		t.Fatalf("PathComponents(%q) = %d, want %d", p, got, want)
	}
	if parts := refSplitPath(p); len(parts) > 0 && firstComponent(p) != parts[0] || len(parts) == 0 && firstComponent(p) != "" {
		t.Fatalf("firstComponent(%q) = %q, want the first of %q", p, firstComponent(p), parts)
	}
	for _, dir := range []string{"/", "/a", "a/", "", ".."} {
		if got, want := Join(dir, p), refJoin(dir, p); got != want {
			t.Fatalf("Join(%q, %q) = %q, want %q", dir, p, got, want)
		}
	}
	if got, want := Join(p), refJoin(p); got != want {
		t.Fatalf("Join(%q) = %q, want %q", p, got, want)
	}
}

var pathSeeds = []string{
	"", "/", "//", "/.", "/..", ".", "..", "a", "/a", "/a/", "a/b", "/a/b/c",
	"/a//b", "/a/./b", "/a/../b", "/../a", "a/../..", "/a/b/../../..",
	"/.a/..b/...", "/a/.", "/a/..", "///a///b///", "./a/./", "/a/b/c/../d/./e/",
	"/x/" + strings.Repeat("long-component/", 30) + "..",
}

func FuzzPathClean(f *testing.F) {
	for _, s := range pathSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		checkPathHelpers(t, p)
	})
}

// TestPathHelpersMatchReference runs the lexical differential over the
// seed corpus plus seeded random paths built from the interesting
// pieces (empty, ".", ".." and ordinary components, doubled and
// trailing slashes, relative starts).
func TestPathHelpersMatchReference(t *testing.T) {
	for _, p := range pathSeeds {
		checkPathHelpers(t, p)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkPathHelpers(t, randomPath(rng, []string{"a", "bb", ".x", "..."}))
	}
}

// randomPath builds a path of up to six components drawn from names
// and the special components, sometimes relative, sometimes with a
// trailing slash.
func randomPath(rng *rand.Rand, names []string) string {
	var b strings.Builder
	if rng.Intn(5) > 0 {
		b.WriteByte('/')
	}
	n := rng.Intn(7)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('/')
		}
		switch r := rng.Intn(10); {
		case r == 0:
			b.WriteString(".")
		case r == 1:
			b.WriteString("..")
		case r == 2:
			// empty component: a doubled slash
		default:
			b.WriteString(names[rng.Intn(len(names))])
		}
	}
	if rng.Intn(6) == 0 {
		b.WriteByte('/')
	}
	return b.String()
}

// buildRandomTree fills fs with a small random namespace over a few
// names, so paths collide often: directories, files, and symlinks
// whose targets are absolute or relative, climb with "..", point at
// other links, dangle, or loop back on themselves.
func buildRandomTree(rng *rand.Rand, fs *FS, names []string) {
	for i := 0; i < 60; i++ {
		p := randomPath(rng, names)
		switch rng.Intn(4) {
		case 0, 1:
			_ = fs.MkdirAll(p, 0o755, "o") // collisions with files are expected
		case 2:
			_ = fs.WriteFile(p, []byte("data:"+Clean(p)), 0o644, "o")
		case 3:
			targ := randomPath(rng, names)
			if rng.Intn(8) == 0 {
				targ = Base(p) // a link to itself
			}
			_ = fs.Symlink(targ, p, "o")
		}
	}
}

// TestResolveMatchesReference is the file-system-level differential:
// over seeded random trees, the scanning resolver must pick the same
// inode, parent and final name, and fail with the same error, as the
// split-based reference — and Realpath, Stat, Lstat, ReadFile and
// Create must report what the reference walk implies.
func TestResolveMatchesReference(t *testing.T) {
	names := []string{"a", "b", "c"}
	seen := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := New("root")
		buildRandomTree(rng, fs, names)
		for i := 0; i < 400; i++ {
			p := randomPath(rng, names)
			ctx := fmt.Sprintf("seed %d path %q", seed, p)
			for _, follow := range []bool{true, false} {
				fs.treeMu.RLock()
				n, par, base, err := fs.resolve(p, follow)
				rn, rpar, rbase, rerr := refResolve(fs, p, follow, 0)
				fs.treeMu.RUnlock()
				if n != rn || par != rpar || base != rbase || err != rerr {
					t.Fatalf("%s follow=%v: resolve = (%p, %p, %q, %v), reference (%p, %p, %q, %v)",
						ctx, follow, n, par, base, err, rn, rpar, rbase, rerr)
				}
				switch {
				case err != nil && par != nil:
					seen["missing with parent"]++
				case err != nil:
					seen[err.Error()]++
				case follow && n.ftype != TypeSymlink && strings.Contains(p, ".."):
					seen["found via .."]++
				}
			}
			if lst, err := fs.Lstat(p); err == nil && lst.Type == TypeSymlink {
				if _, err := fs.Stat(p); err == nil {
					seen["followed a link"]++
				} else {
					seen["dangling or looping link"]++
				}
			}
			checkPublicOps(t, fs, p, ctx)
		}
	}
	// The trees must actually exercise every kind of outcome, or the
	// differential proves little.
	for _, k := range []string{"missing with parent", ErrNotExist.Error(), ErrNotDir.Error(),
		ErrLoop.Error(), "found via ..", "followed a link", "dangling or looping link"} {
		if seen[k] == 0 {
			t.Errorf("no query produced %q; outcomes: %v", k, seen)
		}
	}
}

func checkPublicOps(t *testing.T, fs *FS, p, ctx string) {
	t.Helper()
	n, rpar, rbase, rerr := refResolve(fs, p, true, 0)
	rp, err := fs.Realpath(p)
	if rerr == nil || errors.Is(rerr, ErrNotExist) && rpar != nil {
		// The real path names the same object (or the same missing
		// entry) through directories alone, with no link to follow.
		n2, par2, base2, err2 := refResolve(fs, rp, false, 0)
		if err != nil || !isCanonical(rp) || !linkFree(fs, rp) ||
			n2 != n || par2 != rpar || base2 != rbase || err2 != rerr {
			t.Fatalf("%s: Realpath = (%q, %v), which resolves to (%v, %v, %q, %v); reference (%v, %v, %q, %v)",
				ctx, rp, err, n2, par2, base2, err2, n, rpar, rbase, rerr)
		}
	} else if !errors.Is(err, rerr) {
		t.Fatalf("%s: Realpath err = %v, reference %v", ctx, err, rerr)
	}
	st, err := fs.Stat(p)
	if !errors.Is(err, rerr) || (rerr == nil && st.Ino != n.ino) {
		t.Fatalf("%s: Stat = (%d, %v), reference (%v, %v)", ctx, st.Ino, err, n, rerr)
	}
	ln, _, _, lerr := refResolve(fs, p, false, 0)
	lst, err := fs.Lstat(p)
	if !errors.Is(err, lerr) || (lerr == nil && lst.Ino != ln.ino) {
		t.Fatalf("%s: Lstat = (%d, %v), reference (%v, %v)", ctx, lst.Ino, err, ln, lerr)
	}
	data, err := fs.ReadFile(p)
	switch {
	case rerr != nil:
		if !errors.Is(err, rerr) {
			t.Fatalf("%s: ReadFile err = %v, reference %v", ctx, err, rerr)
		}
	case n.ftype == TypeDir:
		if !errors.Is(err, ErrIsDir) {
			t.Fatalf("%s: ReadFile of a directory = %v", ctx, err)
		}
	case err != nil || !bytes.Equal(data, n.data):
		t.Fatalf("%s: ReadFile = (%q, %v), want %q", ctx, data, err, n.data)
	}

	// Create mutates, so the tree keeps evolving as queries go on.
	cst, err := fs.Create(p, 0o644, "o")
	switch {
	case rerr == nil && n.ftype == TypeDir:
		if !errors.Is(err, ErrIsDir) {
			t.Fatalf("%s: Create over a directory = %v", ctx, err)
		}
	case rerr == nil:
		if err != nil || cst.Ino != n.ino {
			t.Fatalf("%s: Create of an existing file = (%d, %v), want ino %d", ctx, cst.Ino, err, n.ino)
		}
	case errors.Is(rerr, ErrNotExist) && rpar != nil:
		if err != nil || rpar.children[rbase] == nil || rpar.children[rbase].ino != cst.Ino {
			t.Fatalf("%s: Create in %q = (%d, %v), reference parent lacks it", ctx, rbase, cst.Ino, err)
		}
	default:
		if !errors.Is(err, rerr) {
			t.Fatalf("%s: Create err = %v, reference %v", ctx, err, rerr)
		}
	}
}

// linkFree reports whether no proper prefix of the canonical path p is
// a symlink, and p itself is not one either if it exists.
func linkFree(fs *FS, p string) bool {
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		n, _, _, err := refResolve(fs, p[:i], false, 0)
		if err == nil && n.ftype == TypeSymlink {
			return false
		}
	}
	return true
}

// TestSymlinkHopBudget pins the shared limit: a chain of exactly
// MaxSymlinkHops links resolves, one more fails with ErrLoop.
func TestSymlinkHopBudget(t *testing.T) {
	fs := New("root")
	if err := fs.WriteFile("/f", []byte("x"), 0o644, "root"); err != nil {
		t.Fatal(err)
	}
	mkChain := func(dir string, hops int) string {
		if err := fs.Mkdir(dir, 0o755, "root"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hops; i++ {
			targ := fmt.Sprintf("l%d", i+1)
			if i == hops-1 {
				targ = "/f"
			}
			if err := fs.Symlink(targ, fmt.Sprintf("%s/l%d", dir, i), "root"); err != nil {
				t.Fatal(err)
			}
		}
		return dir + "/l0"
	}
	if _, err := fs.Stat(mkChain("/ok", MaxSymlinkHops)); err != nil {
		t.Fatalf("%d-link chain: %v", MaxSymlinkHops, err)
	}
	if _, err := fs.Stat(mkChain("/long", MaxSymlinkHops+1)); !errors.Is(err, ErrLoop) {
		t.Fatalf("%d-link chain: %v, want ErrLoop", MaxSymlinkHops+1, err)
	}
}

// TestPathAllocs holds the canonical path to its promise: no
// allocation to clean or stat it, one to clean anything else.
func TestPathAllocs(t *testing.T) {
	fs, deep := deepTree(t)
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"Clean canonical", 0, func() { sinkString = Clean("/d0/d1/d2/d3/d4/d5/d6/d7/d8") }},
		{"Clean non-canonical", 1, func() { sinkString = Clean("/d0//d1/./x/../d2/") }},
		{"Dir canonical", 0, func() { sinkString = Dir(deep) }},
		{"Base canonical", 0, func() { sinkString = Base(deep) }},
		{"Stat 9-deep", 0, func() { sinkStat, _ = fs.Stat(deep) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

var (
	sinkString string
	sinkStat   Stat
)

// deepTree builds the 9-deep directory chain /d0/.../d8 with a file in
// it and returns the file system and the chain's path.
func deepTree(tb testing.TB) (*FS, string) {
	tb.Helper()
	fs := New("root")
	deep := ""
	for i := 0; i < 9; i++ {
		deep += fmt.Sprintf("/d%d", i)
	}
	if err := fs.MkdirAll(deep, 0o755, "root"); err != nil {
		tb.Fatal(err)
	}
	return fs, deep
}

// BenchmarkPathResolve measures the canonical-path fast paths. Its
// allocs/op rows are gated in BENCH_baseline.json.
func BenchmarkPathResolve(b *testing.B) {
	fs, deep := deepTree(b)
	b.Run("clean-canonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkString = Clean(deep)
		}
	})
	b.Run("clean-noncanonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkString = Clean("/d0//d1/./x/../d2/")
		}
	})
	b.Run("stat-9deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkStat, _ = fs.Stat(deep)
		}
	})
}
