// Package chirp implements the Chirp distributed storage system used to
// demonstrate identity boxing in a distributed setting: a personal file
// server any ordinary user can deploy, exporting file space through a
// Unix-like protocol protected by ACLs over high-level identities, plus
// the paper's remote "exec" extension that runs staged programs inside
// an identity box corresponding to the authenticated client.
//
// The wire protocol is line-oriented: one request line (paths are
// Go-quoted so they may contain spaces), optionally followed by a
// counted binary payload; one response line ("ok ..." or "err ENAME
// message"), optionally followed by a counted payload. Authentication
// (package auth) runs first on every connection.
package chirp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// errno names carried on the wire, mapped to the kernel/vfs sentinels.
var errnoByName = map[string]error{
	"ENOENT":      vfs.ErrNotExist,
	"EEXIST":      vfs.ErrExist,
	"EPERM":       vfs.ErrPermission,
	"EISDIR":      vfs.ErrIsDir,
	"ENOTDIR":     vfs.ErrNotDir,
	"ENOTEMPTY":   vfs.ErrNotEmpty,
	"EINVAL":      vfs.ErrInvalid,
	"ELOOP":       vfs.ErrLoop,
	"EXDEV":       vfs.ErrCrossDevice,
	"EBADF":       kernel.ErrBadFD,
	"ENOSYS":      kernel.ErrNoSys,
	"ESRCH":       kernel.ErrSearch,
	"EIO":         errors.New("input/output error"),
	"ENOTPRIMARY": ErrNotPrimary,
	"EDEADLINE":   ErrDeadline,
	"EBUSY":       ErrBusy,
	"EMSGSIZE":    ErrTooLarge,
}

// ErrNotPrimary means a mutating command reached a replica that does
// not hold the write lease (a follower, or a fenced former primary).
// The RemoteError message names the current primary's address when the
// server knows it, so a failover-aware client can re-target.
var ErrNotPrimary = errors.New("chirp: not the primary replica")

// ErrDeadline means the request's deadline budget was exhausted before
// the server finished it; shed at the admit or dispatch hop the work
// never executed, shed at the durability barrier it executed but was
// never acknowledged (the same semantics as a client-side timeout).
var ErrDeadline = errors.New("chirp: deadline budget exhausted")

// ErrBusy means the server's admit queue rejected the request before
// any of it executed. The RemoteError message carries a "retry after
// <N>ms" hint; RetryAfterFromError extracts it. EBUSY is always safe
// to retry, whatever the command, because nothing ran.
var ErrBusy = errors.New("chirp: server overloaded")

// ErrTooLarge means a reply would not fit in one frame: its payload
// exceeds MaxPayload. Replication catch-up (a snapshot or WAL tail sent
// whole) is the one reply that can grow past it.
var ErrTooLarge = errors.New("chirp: payload exceeds the frame limit")

// retryAfterMarker introduces the backoff hint in an EBUSY message.
const retryAfterMarker = "retry after "

// RetryAfterFromError extracts the server's retry-after hint from an
// EBUSY reply, or 0 when the error carries none.
func RetryAfterFromError(err error) time.Duration {
	var re *RemoteError
	if !errors.As(err, &re) || !errors.Is(re.Err, ErrBusy) {
		return 0
	}
	i := strings.LastIndex(re.Message, retryAfterMarker)
	if i < 0 {
		return 0
	}
	rest := strings.TrimSuffix(re.Message[i+len(retryAfterMarker):], "ms")
	ms, perr := strconv.ParseInt(rest, 10, 64)
	if perr != nil || ms < 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// nameForError picks the wire name for an error.
func nameForError(err error) string {
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return "ENOENT"
	case errors.Is(err, vfs.ErrExist):
		return "EEXIST"
	case errors.Is(err, vfs.ErrPermission):
		return "EPERM"
	case errors.Is(err, vfs.ErrIsDir):
		return "EISDIR"
	case errors.Is(err, vfs.ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, vfs.ErrNotEmpty):
		return "ENOTEMPTY"
	case errors.Is(err, vfs.ErrInvalid):
		return "EINVAL"
	case errors.Is(err, vfs.ErrLoop):
		return "ELOOP"
	case errors.Is(err, vfs.ErrCrossDevice):
		return "EXDEV"
	case errors.Is(err, kernel.ErrBadFD):
		return "EBADF"
	case errors.Is(err, kernel.ErrSearch):
		return "ESRCH"
	case errors.Is(err, kernel.ErrNoSys):
		return "ENOSYS"
	case errors.Is(err, ErrNotPrimary):
		return "ENOTPRIMARY"
	case errors.Is(err, ErrDeadline):
		return "EDEADLINE"
	case errors.Is(err, ErrBusy):
		return "EBUSY"
	case errors.Is(err, ErrTooLarge):
		return "EMSGSIZE"
	default:
		return "EIO"
	}
}

// RemoteError is an error reported by a Chirp server.
type RemoteError struct {
	Name    string // wire errno name
	Message string
	Err     error // mapped sentinel
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("chirp: %s: %s", e.Name, e.Message)
}

// Unwrap lets errors.Is match the sentinel (e.g. vfs.ErrPermission).
func (e *RemoteError) Unwrap() error { return e.Err }

func remoteError(name, msg string) *RemoteError {
	err, ok := errnoByName[name]
	if !ok {
		err = errnoByName["EIO"]
	}
	return &RemoteError{Name: name, Message: msg, Err: err}
}

// codec frames protocol lines and counted payloads over a transport.
// Its bufio halves and payload scratch come from process-wide pools;
// call release when the transport is done with to recycle them. A codec
// is single-goroutine (the session loop, or the client under its wire
// mutex), so the scratch needs no locking.
type codec struct {
	r       *bufio.Reader
	w       *bufio.Writer
	scratch *payloadScratch
}

func newCodec(rw io.ReadWriter) *codec {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(rw)
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(rw)
	return &codec{r: br, w: bw, scratch: scratchPool.Get().(*payloadScratch)}
}

// release returns the codec's pooled buffers. The codec must not be
// used afterwards; releasing twice is a no-op.
func (c *codec) release() {
	if c.r != nil {
		c.r.Reset(nil)
		brPool.Put(c.r)
		c.r = nil
	}
	if c.w != nil {
		c.w.Reset(nil)
		bwPool.Put(c.w)
		c.w = nil
	}
	if c.scratch != nil {
		scratchPool.Put(c.scratch)
		c.scratch = nil
	}
}

// queueLine buffers a protocol line without flushing, so a pipelining
// caller can push several exchanges into one wire write.
func (c *codec) queueLine(fields ...string) error {
	for i, f := range fields {
		if strings.ContainsAny(f, "\n\r") {
			return fmt.Errorf("chirp: embedded newline in %q", f)
		}
		if i > 0 {
			if err := c.w.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := c.w.WriteString(f); err != nil {
			return err
		}
	}
	return c.w.WriteByte('\n')
}

func (c *codec) writeLine(fields ...string) error {
	if err := c.queueLine(fields...); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *codec) readLine() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// queuePayload buffers a counted binary payload without flushing.
func (c *codec) queuePayload(data []byte) error {
	_, err := c.w.Write(data)
	return err
}

// writePayload sends a counted binary payload after a line.
func (c *codec) writePayload(data []byte) error {
	if err := c.queuePayload(data); err != nil {
		return err
	}
	return c.w.Flush()
}

// flush pushes everything queued to the transport.
func (c *codec) flush() error { return c.w.Flush() }

// scratchBuf returns an n-byte slice of the codec's reusable payload
// scratch, growing it if needed. The slice is only valid until the next
// scratchBuf/readPayload call on this codec.
func (c *codec) scratchBuf(n int) []byte {
	s := c.scratch
	if cap(s.buf) >= n {
		poolHits.Add(1)
	} else {
		poolMisses.Add(1)
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// readPayload receives exactly n payload bytes into the codec's scratch
// buffer. A length outside [0, MaxPayload] is a protocol error: the
// peer is malformed or hostile, and nothing is read or allocated. The
// returned slice is only valid until the next readPayload/scratchBuf
// call on this codec — callers that retain the bytes past the current
// exchange must copy them.
func (c *codec) readPayload(n int) ([]byte, error) {
	if n < 0 || n > MaxPayload {
		return nil, fmt.Errorf("chirp: protocol error: payload length %d outside [0, %d]", n, MaxPayload)
	}
	buf := c.scratchBuf(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readPayloadInto receives exactly len(dst) payload bytes directly into
// the caller's buffer, bypassing the scratch.
func (c *codec) readPayloadInto(dst []byte) error {
	_, err := io.ReadFull(c.r, dst)
	return err
}

// q quotes a path for the wire.
func q(path string) string { return strconv.Quote(path) }

// splitFields tokenizes a protocol line, honoring Go-quoted fields.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			// Find the end of the quoted token (handling escapes).
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("chirp: unterminated quote in %q", line)
			}
			tok, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("chirp: bad quoting in %q: %v", line, err)
			}
			out = append(out, tok)
			i = j + 1
			continue
		}
		j := strings.IndexByte(line[i:], ' ')
		if j < 0 {
			out = append(out, line[i:])
			break
		}
		out = append(out, line[i:i+j])
		i += j
	}
	return out, nil
}

// statFields serializes a stat for the wire.
func statFields(st vfs.Stat) []string {
	return []string{
		strconv.FormatUint(st.Ino, 10),
		strconv.Itoa(int(st.Type)),
		strconv.FormatUint(uint64(st.Mode), 8),
		q(st.Owner),
		q(st.Group),
		strconv.Itoa(st.Nlink),
		strconv.FormatInt(st.Size, 10),
		strconv.FormatInt(st.Mtime, 10),
	}
}

// parseStat deserializes statFields output.
func parseStat(fields []string) (vfs.Stat, error) {
	if len(fields) != 8 {
		return vfs.Stat{}, fmt.Errorf("chirp: bad stat reply (%d fields)", len(fields))
	}
	var st vfs.Stat
	var err error
	if st.Ino, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return st, err
	}
	t, err := strconv.Atoi(fields[1])
	if err != nil {
		return st, err
	}
	st.Type = vfs.FileType(t)
	mode, err := strconv.ParseUint(fields[2], 8, 32)
	if err != nil {
		return st, err
	}
	st.Mode = uint32(mode)
	st.Owner = fields[3]
	st.Group = fields[4]
	if st.Nlink, err = strconv.Atoi(fields[5]); err != nil {
		return st, err
	}
	if st.Size, err = strconv.ParseInt(fields[6], 10, 64); err != nil {
		return st, err
	}
	if st.Mtime, err = strconv.ParseInt(fields[7], 10, 64); err != nil {
		return st, err
	}
	return st, nil
}
