package netserve

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

func cmdReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadCommandArray(t *testing.T) {
	br := cmdReader("*3\r\n$3\r\nRUN\r\n$2\r\nkv\r\n$4\r\n1200\r\n")
	args, err := readCommand(br, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "RUN" || string(args[1]) != "kv" || string(args[2]) != "1200" {
		t.Fatalf("args = %q", args)
	}
}

func TestReadCommandInline(t *testing.T) {
	br := cmdReader("\r\n  \r\nPING hello\r\n") // blank lines tolerated
	args, err := readCommand(br, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || string(args[0]) != "PING" || string(args[1]) != "hello" {
		t.Fatalf("args = %q", args)
	}
}

// TestReadCommandPipelined parses several back-to-back frames off one
// stream — the framing property pipelining rests on.
func TestReadCommandPipelined(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("*1\r\n$4\r\nPING\r\n")
	b.WriteString("*2\r\n$5\r\nHELLO\r\n$4\r\ngold\r\n")
	b.WriteString("QUIT\r\n")
	br := bufio.NewReader(&b)
	want := [][]string{{"PING"}, {"HELLO", "gold"}, {"QUIT"}}
	for _, w := range want {
		args, err := readCommand(br, 16, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(args) != len(w) {
			t.Fatalf("args %q, want %q", args, w)
		}
		for i := range w {
			if string(args[i]) != w[i] {
				t.Fatalf("args %q, want %q", args, w)
			}
		}
	}
}

// TestReadCommandPartialReads drips the stream one byte at a time — the
// parser must reassemble frames split at arbitrary boundaries.
func TestReadCommandPartialReads(t *testing.T) {
	src := iotest.OneByteReader(strings.NewReader(
		"*3\r\n$3\r\nRUN\r\n$3\r\nbfs\r\n$2\r\n64\r\n*1\r\n$4\r\nPING\r\n"))
	br := bufio.NewReader(src)
	args, err := readCommand(br, 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[1]) != "bfs" {
		t.Fatalf("args = %q", args)
	}
	if args, err = readCommand(br, 16, 1<<20); err != nil || string(args[0]) != "PING" {
		t.Fatalf("second frame: %q, %v", args, err)
	}
}

func TestReadCommandOversized(t *testing.T) {
	cases := []string{
		"*2\r\n$4\r\nPING\r\n$9999999\r\nx",     // bulk beyond limit
		"*999\r\n$4\r\nPING\r\n",                // too many elements
		"*2\r\n$abc\r\n",                        // malformed bulk length
		"*x\r\n",                                // malformed array header
		"*1\r\n$4\r\nPINGxx",                    // bulk not CRLF-terminated
		strings.Repeat("y", 5000) + "\r\nPING*", // inline line beyond limit
	}
	for _, c := range cases {
		_, err := readCommand(cmdReader(c), 16, 1024)
		var pe *protoError
		if !errors.As(err, &pe) {
			t.Errorf("input %.20q: err = %v, want protoError", c, err)
		}
	}
}

// TestReadCommandInlineBeyondBufferNamesBufferLimit sends an inline line
// longer than the connection's 16 KiB reader but under MaxArgBytes: the
// reader's size is the limit that applied, so the error must name it.
func TestReadCommandInlineBeyondBufferNamesBufferLimit(t *testing.T) {
	line := "PING " + strings.Repeat("x", 20000-len("PING ")) + "\r\n"
	br := bufio.NewReaderSize(strings.NewReader(line), 16<<10)
	_, err := readCommand(br, 16, 1<<20)
	var pe *protoError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want protoError", err)
	}
	if !strings.Contains(err.Error(), "16384") {
		t.Fatalf("err = %q, want it to name the 16384-byte reader limit", err)
	}
}

// FuzzProto feeds arbitrary bytes to the request parser, reading frames
// until the first error. It must never panic, never return an argument
// over maxArgBytes, and every command it accepts, re-encoded as a RESP
// array by Client.Send, must parse back to the same arguments. The reader is the
// smallest bufio allows, so lines also overrun the buffer.
func FuzzProto(f *testing.F) {
	const maxArgs, maxArgBytes = 8, 64
	for _, seed := range []string{
		"PING\r\n",
		"RUN kv 1 64\r\n",
		"*3\r\n$3\r\nRUN\r\n$2\r\nkv\r\n$2\r\n64\r\n",
		"\r\n  \r\n*1\r\n$4\r\nPING\r\n",
		"*2\r\n$4\r\nPING\r\n$0\r\n\r\nQUIT\n",
		"*2\r\n$4\r\nPI",
		"*1\r\n$9\r\n",
		"*",
		"$4\r\nPING\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		for {
			args, err := readCommand(br, maxArgs, maxArgBytes)
			if err != nil {
				return
			}
			if len(args) == 0 {
				t.Fatal("accepted an empty command")
			}
			strs := make([]string, len(args))
			for i, a := range args {
				if len(a) > maxArgBytes {
					t.Fatalf("argument of %d bytes over the %d-byte limit", len(a), maxArgBytes)
				}
				strs[i] = string(a)
			}
			var enc bytes.Buffer
			c := &Client{bw: bufio.NewWriter(&enc)}
			c.Send(strs...)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := readCommand(bufio.NewReader(&enc), len(args), maxArgBytes)
			if err != nil {
				t.Fatalf("re-encoded %q: %v", args, err)
			}
			if len(back) != len(args) {
				t.Fatalf("round trip %q -> %q", args, back)
			}
			for i := range args {
				if !bytes.Equal(back[i], args[i]) {
					t.Fatalf("round trip %q -> %q", args, back)
				}
			}
		}
	})
}

// TestReadCommandEOFIsNotProtoError distinguishes transport loss (no
// reply possible) from protocol violations (clean -ERR owed).
func TestReadCommandEOFIsNotProtoError(t *testing.T) {
	_, err := readCommand(cmdReader(""), 16, 1024)
	var pe *protoError
	if errors.As(err, &pe) {
		t.Fatalf("EOF classified as protocol error: %v", err)
	}
}

func TestReplyHelpers(t *testing.T) {
	shed := Reply{Kind: '-', Str: "SHED reason=saturated backoff_ms=7 inflight=4/4 queued=16/16 tenant=default"}
	if !shed.IsShed() || !shed.IsError() {
		t.Fatal("SHED reply not recognized")
	}
	if got := shed.ShedBackoff().Milliseconds(); got != 7 {
		t.Fatalf("backoff = %dms, want 7", got)
	}
	sum := Reply{Kind: '$', Str: "00000000deadbeef"}
	v, err := sum.Checksum()
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("checksum = %x, %v", v, err)
	}
	if _, err := (Reply{Kind: '+', Str: "PONG"}).Checksum(); err == nil {
		t.Fatal("checksum of a simple reply must fail")
	}
}
