package netserve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// The wire format is a RESP-style frame protocol (the Redis serialization
// protocol's core subset), chosen because it pipelines trivially — frames
// are self-delimiting, so a client may write N requests back to back and
// read N replies in order — and because inline commands keep the server
// debuggable with a bare TCP client.
//
// Requests are arrays of bulk strings:
//
//	*3\r\n$3\r\nRUN\r\n$2\r\nkv\r\n$4\r\n1200\r\n
//
// or, for interactive use, a single inline line:
//
//	PING\r\n
//
// Replies are simple strings (+PONG), errors (-ERR ..., -SHED ...),
// integers (:42), or bulk strings ($16\r\n<hex checksum>\r\n).
//
// Framing limits are enforced before any allocation proportional to the
// declared size: a bulk length or element count beyond the configured
// limit is answered with a clean -ERR proto error and the connection is
// closed, so an adversarial or corrupted frame cannot balloon server
// memory.

// protoError is a client-visible framing violation: the server reports it
// on the wire (-ERR proto: ...) and closes the connection, as opposed to
// an I/O error, which is not reportable (the transport is gone).
type protoError struct{ msg string }

func (e *protoError) Error() string { return "proto: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...)}
}

// readCommand reads one request frame: a RESP array of bulk strings, or an
// inline space-separated line. It returns the argument vector (never
// empty) or an error — a *protoError for malformed/oversized frames, or
// the underlying I/O error.
func readCommand(br *bufio.Reader, maxArgs, maxArgBytes int) ([][]byte, error) {
	for {
		first, err := br.Peek(1)
		if err != nil {
			return nil, err
		}
		if first[0] != '*' {
			args, err := readInline(br, maxArgBytes)
			if err != nil {
				return nil, err
			}
			if len(args) == 0 {
				continue // blank line: tolerate and keep reading
			}
			return args, nil
		}
		return readArray(br, maxArgs, maxArgBytes)
	}
}

// readLine reads up to CRLF (or bare LF), rejecting lines beyond max bytes
// or beyond the reader's buffer, whichever is smaller; the error names the
// limit that applied.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, protoErrf("line exceeds %d bytes", min(max, br.Size()))
	}
	if err != nil {
		return nil, err
	}
	if len(line) > max {
		return nil, protoErrf("line exceeds %d bytes", max)
	}
	n := len(line) - 1
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

func readInline(br *bufio.Reader, maxArgBytes int) ([][]byte, error) {
	line, err := readLine(br, maxArgBytes)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(line))
	args := make([][]byte, len(fields))
	for i, f := range fields {
		args[i] = []byte(f)
	}
	return args, nil
}

func readArray(br *bufio.Reader, maxArgs, maxArgBytes int) ([][]byte, error) {
	line, err := readLine(br, 32)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 1 {
		return nil, protoErrf("bad array header %q", line)
	}
	if n > maxArgs {
		return nil, protoErrf("array of %d elements exceeds limit %d", n, maxArgs)
	}
	args := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(br, 32)
		if err != nil {
			return nil, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return nil, protoErrf("bad bulk header %q", hdr)
		}
		ln, err := strconv.Atoi(string(hdr[1:]))
		if err != nil || ln < 0 {
			return nil, protoErrf("bad bulk length %q", hdr)
		}
		if ln > maxArgBytes {
			return nil, protoErrf("bulk of %d bytes exceeds limit %d", ln, maxArgBytes)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return nil, protoErrf("bulk not CRLF-terminated")
		}
		args = append(args, buf[:ln])
	}
	return args, nil
}

// Reply writers. All take the connection's buffered writer; flushing is
// the write loop's batching decision, not the formatter's.

func writeSimple(bw *bufio.Writer, s string) {
	bw.WriteByte('+')
	bw.WriteString(s)
	bw.WriteString("\r\n")
}

func writeError(bw *bufio.Writer, code, msg string) {
	bw.WriteByte('-')
	bw.WriteString(code)
	bw.WriteByte(' ')
	bw.WriteString(msg)
	bw.WriteString("\r\n")
}

func writeBulk(bw *bufio.Writer, b []byte) {
	bw.WriteByte('$')
	bw.WriteString(strconv.Itoa(len(b)))
	bw.WriteString("\r\n")
	bw.Write(b)
	bw.WriteString("\r\n")
}

// Reply is one decoded server reply, as seen by the client side.
type Reply struct {
	// Kind is the RESP type byte: '+' simple, '-' error, ':' integer,
	// '$' bulk.
	Kind byte
	// Str holds the simple string, error text (code included), or bulk
	// payload.
	Str string
	// Int holds the integer reply value.
	Int int64
}

// IsShed reports whether the reply is a -SHED rejection.
func (r Reply) IsShed() bool { return r.Kind == '-' && strings.HasPrefix(r.Str, "SHED ") }

// IsError reports whether the reply is any error reply.
func (r Reply) IsError() bool { return r.Kind == '-' }

// ShedBackoff parses the backoff_ms hint out of a -SHED reply (0 if
// absent or unparsable).
func (r Reply) ShedBackoff() time.Duration {
	const key = "backoff_ms="
	i := strings.Index(r.Str, key)
	if i < 0 {
		return 0
	}
	rest := r.Str[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	ms, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// Checksum decodes a RUN reply's 16-hex-digit bulk payload.
func (r Reply) Checksum() (uint64, error) {
	if r.Kind != '$' {
		return 0, fmt.Errorf("netserve: reply %q is not a checksum bulk", r.Str)
	}
	return strconv.ParseUint(r.Str, 16, 64)
}

// Client is the protocol's client side: a single connection with
// pipelining support. It is not safe for concurrent use; open one Client
// per in-flight stream (hhshoot opens one per simulated connection).
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects a Client to a netserve front end.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection.
func NewClient(nc net.Conn) *Client {
	return &Client{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.nc.Close() }

// Conn exposes the underlying connection (deadline control in tests).
func (c *Client) Conn() net.Conn { return c.nc }

// Send writes one command frame without flushing — the pipelining half.
func (c *Client) Send(args ...string) {
	c.bw.WriteByte('*')
	c.bw.WriteString(strconv.Itoa(len(args)))
	c.bw.WriteString("\r\n")
	for _, a := range args {
		writeBulk(c.bw, []byte(a))
	}
}

// Flush pushes buffered command frames to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one reply frame.
func (c *Client) Recv() (Reply, error) {
	line, err := readLine(c.br, 1<<20)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, protoErrf("empty reply line")
	}
	switch line[0] {
	case '+', '-':
		return Reply{Kind: line[0], Str: string(line[1:])}, nil
	case ':':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return Reply{}, protoErrf("bad integer reply %q", line)
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		ln, err := strconv.Atoi(string(line[1:]))
		if err != nil || ln < 0 {
			return Reply{}, protoErrf("bad bulk reply header %q", line)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return Reply{}, err
		}
		return Reply{Kind: '$', Str: string(buf[:ln])}, nil
	}
	return Reply{}, protoErrf("unknown reply type %q", line[0])
}

// Do writes one command, flushes, and reads its reply — the unpipelined
// convenience path.
func (c *Client) Do(args ...string) (Reply, error) {
	c.Send(args...)
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	return c.Recv()
}

// Run submits one RUN command and decodes the outcome: the request's
// checksum, a shed rejection (shed=true, with the server's backoff hint),
// or an error. Transport failures and -ERR replies both surface as err.
func (c *Client) Run(scenario string, seed uint64, size int) (sum uint64, shed bool, backoff time.Duration, err error) {
	rep, err := c.Do("RUN", scenario, strconv.FormatUint(seed, 10), strconv.Itoa(size))
	if err != nil {
		return 0, false, 0, err
	}
	if rep.IsShed() {
		return 0, true, rep.ShedBackoff(), nil
	}
	if rep.IsError() {
		return 0, false, 0, fmt.Errorf("netserve: server error: %s", rep.Str)
	}
	sum, err = rep.Checksum()
	return sum, false, 0, err
}
