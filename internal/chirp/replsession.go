package chirp

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/replica"
)

// ErrReplGap is returned by ReplicaSession.Next when the server cut
// this subscriber loose for falling behind its push buffer: the stream
// has a hole, and the follower must resubscribe from its applied LSN.
var ErrReplGap = errors.New("chirp: replication stream gap; resubscribe")

// ReplicaSession is a follower's replication feed from a primary: a
// dedicated v2 connection that negotiated the repl capability and
// subscribed to the WAL ship stream. It implements replica.Stream.
//
// It deliberately is not a Client: the client mux treats unknown reply
// tags as protocol errors (correctly, for RPC), while this session's
// whole purpose is server-initiated push frames. The session is
// single-consumer — one goroutine calls Next; Ack may be called from
// the same goroutine between Nexts (the node's apply loop does both).
type ReplicaSession struct {
	conn net.Conn
	c    *codec

	// IdleTimeout, when positive, bounds how long Next waits for a
	// frame. On an idle volume nothing flows, so the expiry makes the
	// follower re-dial and resubscribe (cheap) rather than hang on a
	// primary that silently vanished — a partition must not leave the
	// cluster leaderless because no follower noticed the stream died.
	IdleTimeout time.Duration

	// Bootstrap state from the subscribe reply: a snapshot to load
	// before applying the stream (nil when the WAL tail sufficed), and
	// the primary's epoch at subscribe time.
	Snap    []byte
	SnapLSN uint64
	Epoch   uint64

	mu      sync.Mutex // guards nextTag and write interleaving (Ack vs Close)
	nextTag uint64
	closed  bool

	catchup *replica.Batch // WAL-tail catch-up, delivered by the first Next
}

// DialReplica opens a replication subscription to the primary at addr,
// authenticating like any client, negotiating protocol v2 with the
// repl capability, and subscribing from fromLSN. The returned session
// carries the catch-up the server computed: check Snap — when non-nil
// the follower must load it (durable.LoadReplicaSnapshot) before
// consuming the stream.
func DialReplica(addr string, auths []auth.Authenticator, fromLSN uint64, timeout time.Duration) (*ReplicaSession, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := auth.ClientNegotiate(auth.NewConn(conn), auths); err != nil {
		conn.Close()
		return nil, err
	}
	c := newCodec(conn)
	fail := func(err error) (*ReplicaSession, error) {
		c.release()
		conn.Close()
		return nil, err
	}
	// Version exchange, lock-step like any v2 client, demanding repl.
	if err := c.writeLine(versionFields(DefaultWindow, DefaultMaxInflightBytes, capRepl)...); err != nil {
		return fail(err)
	}
	line, err := c.readLine()
	if err != nil {
		return fail(err)
	}
	parts, err := splitFields(line)
	if err != nil || len(parts) < 1 || parts[0] != "ok" {
		return fail(fmt.Errorf("chirp: replication needs protocol v2; server said %q", line))
	}
	v, _, _, caps, err := parseVersionArgs(parts[1:])
	if err != nil || v != ProtocolV2 {
		return fail(fmt.Errorf("chirp: replication needs protocol v2; server said %q", line))
	}
	if !hasCap(caps, capRepl) {
		return fail(errors.New("chirp: server did not offer the repl capability"))
	}
	rs := &ReplicaSession{conn: conn, c: c, nextTag: 1}
	// Subscribe and decode the catch-up reply.
	if err := rs.writeFrameLocked(rs.takeTag(), []string{"replsub", strconv.FormatUint(fromLSN, 10)}, nil); err != nil {
		return fail(err)
	}
	h, fields, err := rs.readFrame()
	if err != nil {
		return fail(err)
	}
	if len(fields) < 1 || fields[0] != "ok" {
		rs.discard(h.payloadLen)
		if len(fields) == 3 && fields[0] == "err" {
			return fail(fmt.Errorf("chirp: replsub refused: %w", remoteError(fields[1], fields[2])))
		}
		return fail(fmt.Errorf("chirp: replsub refused: %q", fields))
	}
	switch {
	case len(fields) == 5 && fields[1] == "snap": // ok snap <epoch> <lsn> <len>
		epoch, _ := strconv.ParseUint(fields[2], 10, 64)
		lsn, _ := strconv.ParseUint(fields[3], 10, 64)
		blob := make([]byte, h.payloadLen)
		if err := c.readPayloadInto(blob); err != nil {
			return fail(err)
		}
		rs.Epoch, rs.Snap, rs.SnapLSN = epoch, blob, lsn
	case len(fields) == 7 && fields[1] == "tail": // ok tail <epoch> <first> <last> <records> <len>
		epoch, _ := strconv.ParseUint(fields[2], 10, 64)
		first, _ := strconv.ParseUint(fields[3], 10, 64)
		last, _ := strconv.ParseUint(fields[4], 10, 64)
		records, _ := strconv.Atoi(fields[5])
		rs.Epoch = epoch
		if records > 0 {
			frames := make([]byte, h.payloadLen)
			if err := c.readPayloadInto(frames); err != nil {
				return fail(err)
			}
			rs.catchup = &replica.Batch{Epoch: epoch, First: first, Last: last, Records: records, Frames: frames}
		} else if err := rs.discard(h.payloadLen); err != nil {
			return fail(err)
		}
	default:
		rs.discard(h.payloadLen)
		return fail(fmt.Errorf("chirp: malformed replsub reply %q", fields))
	}
	conn.SetDeadline(time.Time{})
	return rs, nil
}

// takeTag allocates the next request tag.
func (rs *ReplicaSession) takeTag() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	tag := rs.nextTag
	rs.nextTag++
	return tag
}

// writeFrameLocked queues and flushes one frame under the write mutex.
func (rs *ReplicaSession) writeFrameLocked(tag uint64, fields []string, body []byte) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return errors.New("chirp: replica session closed")
	}
	if err := rs.c.queueFrame(tag, fields, body); err != nil {
		return err
	}
	return rs.c.flush()
}

// readFrame reads the next frame header and line (payload left for the
// caller, sized by the returned header).
func (rs *ReplicaSession) readFrame() (frameHeader, []string, error) {
	h, err := rs.c.readFrameHeader()
	if err != nil {
		return frameHeader{}, nil, err
	}
	line, err := rs.c.readFrameLine(h.lineLen)
	if err != nil {
		return frameHeader{}, nil, err
	}
	fields, err := splitFields(line)
	if err != nil {
		return frameHeader{}, nil, err
	}
	return h, fields, nil
}

// discard consumes n payload bytes into scratch.
func (rs *ReplicaSession) discard(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := rs.c.readPayload(n)
	return err
}

// Next blocks for the next pushed batch (replica.Stream). Reply frames
// for this session's own replacks are skipped; a "replgap" push
// surfaces as ErrReplGap, telling the follower to resubscribe from its
// applied LSN.
func (rs *ReplicaSession) Next() (replica.Batch, error) {
	if b := rs.catchup; b != nil {
		rs.catchup = nil
		return *b, nil
	}
	for {
		if rs.IdleTimeout > 0 {
			rs.conn.SetReadDeadline(time.Now().Add(rs.IdleTimeout))
		}
		h, fields, err := rs.readFrame()
		if err != nil {
			return replica.Batch{}, err
		}
		if h.tag != replPushTag {
			// A reply to one of our replacks; nothing to do with it.
			if err := rs.discard(h.payloadLen); err != nil {
				return replica.Batch{}, err
			}
			continue
		}
		if len(fields) == 1 && fields[0] == "replgap" {
			return replica.Batch{}, ErrReplGap
		}
		if len(fields) != 6 || fields[0] != "replpush" {
			return replica.Batch{}, fmt.Errorf("chirp: malformed replication push %q", fields)
		}
		epoch, _ := strconv.ParseUint(fields[1], 10, 64)
		first, _ := strconv.ParseUint(fields[2], 10, 64)
		last, _ := strconv.ParseUint(fields[3], 10, 64)
		records, err := strconv.Atoi(fields[4])
		if err != nil || first == 0 || last < first {
			return replica.Batch{}, fmt.Errorf("chirp: malformed replication push %q", fields)
		}
		frames := make([]byte, h.payloadLen)
		if err := rs.c.readPayloadInto(frames); err != nil {
			return replica.Batch{}, err
		}
		return replica.Batch{Epoch: epoch, First: first, Last: last, Records: records, Frames: frames}, nil
	}
}

// Ack reports the follower's applied horizon (replica.Stream). The
// server's ok reply is skipped by the Next loop; Ack itself does not
// wait for it, so the apply loop never stalls on its own bookkeeping.
func (rs *ReplicaSession) Ack(lsn uint64) error {
	return rs.writeFrameLocked(rs.takeTag(), []string{"replack", strconv.FormatUint(lsn, 10)}, nil)
}

// Close tears the session down (replica.Stream).
func (rs *ReplicaSession) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	rs.c.release()
	rs.mu.Unlock()
	return rs.conn.Close()
}
