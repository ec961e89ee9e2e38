package chirp

import (
	"errors"
	"fmt"
	"testing"

	"identitybox/internal/vfs"
)

// TestSymlinkChainCannotBypassACL builds symlink chains of growing
// length in George's own directory, ending at a file only Fred may
// read. However long the chain, the server must judge the read by the
// target's ACL: a chain the file system would follow to the end is
// refused with EPERM, and one longer than the shared hop budget fails
// closed with ELOOP — never served from the link's directory's ACL.
func TestSymlinkChainCannotBypassACL(t *testing.T) {
	srv, _, ca := testServer(t)
	fred := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	george := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=George")
	if err := fred.Mkdir("/freds", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fred.PutFile("/freds/private", []byte("TOPSECRET"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := george.Mkdir("/work", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		links int
		want  error
	}{
		{10, vfs.ErrPermission},
		{11, vfs.ErrPermission},
		{vfs.MaxSymlinkHops, vfs.ErrPermission},
		{vfs.MaxSymlinkHops + 1, vfs.ErrLoop},
	} {
		dir := fmt.Sprintf("/work/c%d", c.links)
		if err := george.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.links; i++ {
			target := fmt.Sprintf("l%d", i+1)
			if i == c.links-1 {
				target = "/freds/private"
			}
			if err := george.Symlink(target, fmt.Sprintf("%s/l%d", dir, i)); err != nil {
				t.Fatal(err)
			}
		}
		data, err := george.GetFile(dir + "/l0")
		if !errors.Is(err, c.want) {
			t.Errorf("%d-link chain: read = %q, %v; want %v", c.links, data, err, c.want)
		}
		if _, err := george.Stat(dir + "/l0"); err == nil && c.want == vfs.ErrLoop {
			t.Errorf("%d-link chain: stat succeeded past the hop budget", c.links)
		}
	}
}

// TestRelativeLinkThroughLinkedDirCannotBypassACL reaches Fred's
// relative link "../secret" through George's link to Fred's
// directory. The file system resolves the "..", like any relative
// target, against the directory the link really lives in, so the read
// lands in Fred's directory and must be judged by Fred's ACL, not by
// the ACL of George's directory the path was spelled through.
func TestRelativeLinkThroughLinkedDirCannotBypassACL(t *testing.T) {
	srv, _, ca := testServer(t)
	fred := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	george := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=George")
	for _, err := range []error{
		fred.Mkdir("/freds", 0o755),
		fred.Mkdir("/freds/sub", 0o755),
		fred.PutFile("/freds/secret", []byte("TOPSECRET"), 0o644),
		fred.Symlink("../secret", "/freds/sub/up"),
		george.Mkdir("/work", 0o755),
		george.Symlink("/freds/sub", "/work/d"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if data, err := george.GetFile("/work/d/up"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("read through linked dir = %q, %v; want EPERM", data, err)
	}
	if err := george.PutFile("/work/d/up", []byte("overwritten"), 0o644); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("write through linked dir = %v; want EPERM", err)
	}
	if data, err := fred.GetFile("/freds/secret"); err != nil || string(data) != "TOPSECRET" {
		t.Errorf("fred's file = %q, %v", data, err)
	}
}
