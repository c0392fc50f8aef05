package netserve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/load"
)

// startFrontend builds runtime + server + front end on a loopback port.
func startFrontend(t *testing.T, mode hh.Mode, cfg Config, srvOpts ...serve.Option) (*hh.Runtime, *serve.Server, *Frontend) {
	t.Helper()
	r := hh.New(hh.WithMode(mode), hh.WithProcs(4), hh.WithGCPolicy(2048, 1.25))
	srv := serve.New(r, srvOpts...)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	if cfg.Resolve == nil {
		cfg.Resolve = LoadResolver()
	}
	return r, srv, Serve(lis, srv, cfg)
}

// TestRoundTripAllModes serves the kv-churn scenario over TCP in every
// runtime mode and requires checksum parity: the value computed across
// the socket equals the in-process value, and all four modes agree.
func TestRoundTripAllModes(t *testing.T) {
	const seed, size = 7, 600
	var want uint64
	for i, mode := range hh.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			r, srv, f := startFrontend(t, mode, Config{},
				serve.WithMaxInFlight(8), serve.WithQueueDepth(16))
			defer r.Close()
			defer f.Close()

			c, err := Dial(f.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if rep, err := c.Do("PING"); err != nil || rep.Str != "PONG" {
				t.Fatalf("PING: %+v, %v", rep, err)
			}
			sum, shed, _, err := c.Run("kv", seed, size)
			if err != nil || shed {
				t.Fatalf("RUN: shed=%v err=%v", shed, err)
			}
			inproc := hh.Run(r, func(task *hh.Task) uint64 {
				sc, _ := load.ByName("kv")
				return sc.Run(task, seed, size)
			})
			if sum != inproc {
				t.Fatalf("socket checksum %x != in-process %x", sum, inproc)
			}
			if i == 0 {
				want = sum
			} else if sum != want {
				t.Fatalf("cross-mode divergence: %x, want %x", sum, want)
			}

			// Pipelined: 8 frames written back to back, 8 replies in order.
			for j := 0; j < 8; j++ {
				c.Send("RUN", "kv", fmt.Sprint(seed), fmt.Sprint(size))
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				rep, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if v, err := rep.Checksum(); err != nil || v != want {
					t.Fatalf("pipelined reply %d: %x, %v", j, v, err)
				}
			}
			if rep, err := c.Do("STATS"); err != nil || !strings.Contains(rep.Str, "hh_requests_total") {
				t.Fatalf("STATS: %v, %.60q", err, rep.Str)
			}
			if rep, err := c.Do("QUIT"); err != nil || rep.Str != "OK" {
				t.Fatalf("QUIT: %+v, %v", rep, err)
			}
			srv.Drain()
		})
	}
}

// TestQuitReplyNeverLost runs RUN then QUIT on a fresh connection, 500
// times, and QUIT's +OK must arrive every time. Odd rounds pipeline the two
// frames; even rounds send QUIT the moment the RUN reply is in, which is when
// the write loop sits between flushing that reply and deciding whether to
// close. It once decided from a flag the read loop set after queueing +OK, so
// it could see the flag with +OK still queued, and the client read EOF.
func TestQuitReplyNeverLost(t *testing.T) {
	r, srv, f := startFrontend(t, hh.ParMem, Config{},
		serve.WithMaxInFlight(8), serve.WithQueueDepth(16))
	defer r.Close()
	defer f.Close()
	for i := 0; i < 500; i++ {
		c, err := Dial(f.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Send("RUN", "kv", fmt.Sprint(i), "8")
		if i%2 == 1 {
			c.Send("QUIT")
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if rep, err := c.Recv(); err != nil {
			t.Fatalf("round %d: RUN reply: %v", i, err)
		} else if _, err := rep.Checksum(); err != nil {
			t.Fatalf("round %d: RUN reply %+v: %v", i, rep, err)
		}
		if i%2 == 0 {
			c.Send("QUIT")
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if rep, err := c.Recv(); err != nil || rep.Str != "OK" {
			t.Fatalf("round %d: QUIT reply %+v, %v", i, rep, err)
		}
		c.Close()
	}
	srv.Drain()
}

// TestConnDropMidRequestReclaims drops the client mid-request: the
// session must still run to completion server-side and be reclaimed
// wholesale — chunk occupancy returns to the pre-traffic baseline.
func TestConnDropMidRequestReclaims(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int64
	cfg := Config{Resolve: func(name string) (Runner, bool) {
		return func(task *hh.Task, seed uint64, size int) uint64 {
			started.Add(1)
			<-release
			sc, _ := load.ByName("kv")
			return sc.Run(task, seed, size)
		}, true
	}}
	r, srv, f := startFrontend(t, hh.ParMem, cfg)
	defer r.Close()
	base := hh.ChunksInUse()

	c, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Send("RUN", "slow", "3", "400")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Close() // peer vanishes mid-request
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.Drain()
	if st := srv.Stats(); st.Completed != 1 {
		t.Fatalf("completed %d, want 1 (dropped conn must not abort the session)", st.Completed)
	}
	if got := hh.ChunksInUse(); got != base {
		t.Fatalf("ChunksInUse = %d after drain, want baseline %d (leaked session)", got, base)
	}
}

// TestDrainUnderLoadZeroDropped drains while open-loop clients are still
// firing: every request the server accepted must deliver its reply before
// the connection closes (client-received OK count == server Completed),
// and occupancy returns to baseline.
func TestDrainUnderLoadZeroDropped(t *testing.T) {
	r, srv, f := startFrontend(t, hh.ParMem, Config{},
		serve.WithMaxInFlight(4), serve.WithQueueDepth(8))
	defer r.Close()
	base := hh.ChunksInUse()

	const clients = 6
	var oks, sheds atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(f.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for seq := uint64(1); ; seq++ {
				sum, shed, _, err := c.Run("kv", seq, 300)
				if err != nil {
					return // conn closed by drain: every accepted reply was received
				}
				if shed {
					sheds.Add(1)
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
					continue
				}
				if sum == 0 {
					t.Error("zero checksum")
				}
				oks.Add(1)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let load build
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	st := srv.Stats()
	if oks.Load() != st.Completed {
		t.Fatalf("clients saw %d OK replies, server completed %d — replies dropped in drain",
			oks.Load(), st.Completed)
	}
	if st.Failed != 0 {
		t.Fatalf("%d requests failed", st.Failed)
	}
	if oks.Load() == 0 {
		t.Fatal("no traffic made it through before drain")
	}
	if got := hh.ChunksInUse(); got != base {
		t.Fatalf("ChunksInUse = %d after drain, want baseline %d", got, base)
	}
	c := f.Counters()
	if c.Sheds["draining"] == 0 {
		t.Log("note: no request raced the drain window (timing-dependent, not an error)")
	}
}

// TestTenantShareAndPressureShedding pins the fairness contract: a tenant
// at its in-flight share is shed with reason=tenant while the rest of the
// server is idle, and a best-effort tenant is shed with reason=pressure
// once the queue passes the threshold.
func TestTenantShareAndPressureShedding(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{
		Resolve: func(name string) (Runner, bool) {
			return func(task *hh.Task, seed uint64, size int) uint64 { <-release; return seed }, true
		},
		Tenants: NewTenantTable(16, []TenantConfig{ // capacity = 8 in flight + 8 queued
			{Name: "gold", Priority: 0, Share: 1.0},
			{Name: "free", Priority: 1, Share: 0.0625}, // 1 slot of 16
		}),
		ShedQueueFrac: 0.5,
	}
	r, srv, f := startFrontend(t, hh.ParMem, cfg,
		serve.WithMaxInFlight(8), serve.WithQueueDepth(8))
	defer r.Close()
	defer srv.Drain()
	defer close(release)

	free, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	if rep, err := free.Do("HELLO", "free"); err != nil || rep.IsError() {
		t.Fatalf("HELLO: %+v %v", rep, err)
	}
	// First RUN occupies free's single slot; the pipelined second must be
	// shed with reason=tenant (server itself is nearly idle).
	free.Send("RUN", "x", "1", "1")
	free.Send("RUN", "x", "2", "1")
	if err := free.Flush(); err != nil {
		t.Fatal(err)
	}
	// Replies come back in request order, so the shed reply for the second
	// RUN is not readable until the first unblocks — observe the shed via
	// the tenant's counter instead.
	deadline := time.Now().Add(5 * time.Second)
	tn := f.Tenants().Lookup("free")
	for tn.shed[shedTenant].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tenant-share shed never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	// Pressure shedding: fill the queue past 50% with gold traffic, then a
	// fresh best-effort default-tenant connection must shed reason=pressure.
	gold, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	if _, err := gold.Do("HELLO", "gold"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // 7 remaining slots + >4 queued
		gold.Send("RUN", "x", fmt.Sprint(10+i), "1")
	}
	if err := gold.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		_, queued := srv.Load()
		if queued >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	be, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	_, shed, backoff, err := be.Run("x", 99, 1)
	if err != nil || !shed {
		t.Fatalf("best-effort under pressure: shed=%v err=%v, want shed", shed, err)
	}
	if backoff <= 0 {
		t.Fatalf("shed reply carried no backoff hint")
	}
	if f.Counters().Sheds["pressure"] == 0 {
		t.Fatal("pressure shed not recorded")
	}
}

// TestOversizedPayloadCleanError sends a bulk length beyond the limit:
// the server must answer -ERR proto and close, without reading the body.
func TestOversizedPayloadCleanError(t *testing.T) {
	r, _, f := startFrontend(t, hh.ParMem, Config{MaxArgBytes: 1024})
	defer r.Close()
	defer f.Close()

	nc, err := net.Dial("tcp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "*2\r\n$4\r\nPING\r\n$1048576\r\n")
	br := bufio.NewReader(nc)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "-ERR proto:") {
		t.Fatalf("reply %q, want -ERR proto:", line)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection not closed after protocol error: %v", err)
	}
	if f.Counters().ProtoErrors != 1 {
		t.Fatalf("proto errors = %d, want 1", f.Counters().ProtoErrors)
	}
}

// TestMetricsEndpoint scrapes /metrics and /healthz over HTTP.
func TestMetricsEndpoint(t *testing.T) {
	r, srv, f := startFrontend(t, hh.ParMem, Config{})
	defer r.Close()

	mlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	msrv := f.ServeMetrics(mlis)
	defer msrv.Close()

	c, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Run("kv", 1, 200); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Drain()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + mlis.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`hh_up{mode="mlton-parmem"} 1`,
		`hh_requests_total{outcome="completed"} 1`,
		"hh_latency_seconds{quantile=\"0.999\"}",
		"hh_latency_seconds_sum",
		"hh_latency_seconds_count 1",
		`hh_latency_breakdown_seconds_total{phase="mutator"}`,
		`hh_ptr_writes_total{path="fast"}`,
		`hh_forks_total{path="inline"}`,
		`hh_forks_total{path="parallel"}`,
		`hh_sessions_total{outcome="completed"} 1`,
		"hh_zone_overlap_seconds_total",
		"hh_zone_concurrent_peak",
		"hh_gc_seconds_total",
		"hh_task_allocs_total",
		"hh_chunk_acquires_total",
		"hh_wholesale_bytes_total",
		"hh_chunks_in_use",
		"hh_connections_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain: %d, want 503", code)
	}
}
