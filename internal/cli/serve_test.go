package cli

import (
	"context"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

// TestServeLifecycle boots the service on an ephemeral port, round-trips
// one upload + mine over real HTTP, and shuts down via context cancel.
func TestServeLifecycle(t *testing.T) {
	addrc := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, ServeConfig{Addr: "127.0.0.1:0"}, addrWriter{addrc})
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not report its address")
	}

	resp, err := http.Post(base+"/v1/databases/ex?format=chars", "text/plain",
		strings.NewReader("S1: AABCDABB\nS2: ABCD\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/databases/ex/mine", "application/json",
		strings.NewReader(`{"closed":true,"minSupport":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"algorithm":"CloGSgrow"`) {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeDebugAddr boots the service with the pprof listener enabled and
// checks /debug/pprof/ answers there — and is NOT mounted on the main
// address.
func TestServeDebugAddr(t *testing.T) {
	mainc := make(chan string, 1)
	debugc := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, ServeConfig{Addr: "127.0.0.1:0", DebugAddr: "127.0.0.1:0"},
			bannerWriter{main: mainc, debug: debugc})
	}()

	var mainAddr, debugAddr string
	for mainAddr == "" || debugAddr == "" {
		select {
		case mainAddr = <-mainc:
		case debugAddr = <-debugc:
		case err := <-errc:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatalf("banners missing (main=%q debug=%q)", mainAddr, debugAddr)
		}
	}

	resp, err := http.Get("http://" + debugAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %.120s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + mainAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof must not be mounted on the service address")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeShutdownAbortsInflightMine: a graceful shutdown must cancel
// in-flight mining contexts so even a mine that would run for a long time
// exits within the drain budget. The dense database below takes far longer
// than the drain timeout to mine fully; shutdown during the request must
// still complete the Serve call promptly.
func TestServeShutdownAbortsInflightMine(t *testing.T) {
	addrc := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, ServeConfig{Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second}, addrWriter{addrc})
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no address banner")
	}

	// Dense database: 4 random 30-event sequences over 5 letters mine to
	// ~10^6 patterns at minSupport 2 — many seconds of work.
	var sb strings.Builder
	letters := "abcde"
	for i := 0; i < 4; i++ {
		sb.WriteString("S: ")
		for j := 0; j < 30; j++ {
			sb.WriteByte(letters[(i*31+j*17)%5])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	resp, err := http.Post(base+"/v1/databases/dense?format=tokens", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mineDone := make(chan struct{})
	go func() {
		defer close(mineDone)
		resp, err := http.Post(base+"/v1/databases/dense/mine", "application/json",
			strings.NewReader(`{"minSupport":2}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(200 * time.Millisecond) // let the mine get going
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down with a mine in flight")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v, want well under the 2s drain + margin", elapsed)
	}
	<-mineDone
}

// bannerWriter routes the two "listening on" banner lines to their
// channels.
type bannerWriter struct{ main, debug chan string }

func (w bannerWriter) Write(p []byte) (int, error) {
	line := string(p)
	i := strings.LastIndex(line, " on ")
	if i < 0 {
		return len(p), nil
	}
	addr := strings.TrimSpace(line[i+4:])
	c := w.main
	if strings.Contains(line, "pprof") {
		c = w.debug
	}
	select {
	case c <- addr:
	default:
	}
	return len(p), nil
}

// addrWriter extracts the listen address from Serve's banner line.
type addrWriter struct{ c chan string }

func (w addrWriter) Write(p []byte) (int, error) {
	line := string(p)
	if i := strings.LastIndex(line, " on "); i >= 0 {
		select {
		case w.c <- strings.TrimSpace(line[i+4:]):
		default:
		}
	}
	return len(p), nil
}

// TestServeShutdownFlushesWAL: the graceful-shutdown path (the
// -drain-timeout flow from PR 3) must flush and fsync every database's
// write-ahead log before Serve returns — asserted under fsync=never, the
// policy where nothing else would have synced the tail. A fresh store
// opened over the same directory must see every acknowledged append.
// (The second-signal HARD kill path is covered by the SIGKILL
// crash-recovery test at the repository root: a killed process leaves a
// replayable — never corrupt — log by construction of the CRC framing.)
func TestServeShutdownFlushesWAL(t *testing.T) {
	dataDir := t.TempDir()
	addrc := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, ServeConfig{
			Addr: "127.0.0.1:0",
			Server: server.Config{
				DataDir: dataDir,
				Open:    repro.OpenOptions{Sync: repro.SyncNever}, // shutdown flush is the only barrier
			},
		}, addrWriter{addrc})
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no address banner")
	}

	resp, err := http.Post(base+"/v1/databases/flush?format=chars", "text/plain",
		strings.NewReader("S1: AABCDABB\nS2: ABCD\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Post(base+"/v1/databases/flush/append", "application/x-ndjson",
			strings.NewReader(`{"label":"S1","events":["C","D"]}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("append %d: %d", i, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// Recover the directory directly: all 5 appends must be there.
	db, err := repro.Open(filepath.Join(dataDir, "flush"), repro.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Snapshot()
	if snap.Generation() != 6 { // create(1) + 5 appends
		t.Errorf("recovered generation %d, want 6", snap.Generation())
	}
	if got := snap.Stats().TotalLength; got != 12+10 {
		t.Errorf("recovered %d events, want 22 (12 uploaded + 5x2 appended)", got)
	}
}

// TestServeFlags parses a full flag line through the one serve flag set
// (every flag reprod and `gsgrow serve` accept) and checks where each
// value lands; a bad -fsync is rejected at parse time.
func TestServeFlags(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := ServeFlags(fs)
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:9000",
		"-debug-addr", "127.0.0.1:6060",
		"-cache", "-1",
		"-data-dir", "/srv/data",
		"-fsync", "interval",
		"-checkpoint-bytes", "1048576",
		"-drain-timeout", "7s",
		"-fsync-interval", "25ms",
		"-mine-timeout", "3s",
		"-max-concurrent-mines", "4",
		"-replicate-from", "http://primary:8372",
		"-max-lag-bytes", "4096",
		"-max-lag", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:9000" || cfg.DebugAddr != "127.0.0.1:6060" || cfg.DrainTimeout != 7*time.Second {
		t.Errorf("listener fields: %+v", cfg)
	}
	sc := cfg.Server
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"cache", sc.CacheSize, -1},
		{"data-dir", sc.DataDir, "/srv/data"},
		{"fsync", sc.Open.Sync, repro.SyncInterval},
		{"checkpoint-bytes", sc.Open.CheckpointWALBytes, int64(1 << 20)},
		{"fsync-interval", sc.Open.SyncInterval, 25 * time.Millisecond},
		{"mine-timeout", sc.MineTimeout, 3 * time.Second},
		{"max-concurrent-mines", sc.MaxConcurrentMines, 4},
		{"replicate-from", sc.ReplicateFrom, "http://primary:8372"},
		{"max-lag-bytes", sc.MaxLagBytes, int64(4096)},
		{"max-lag", sc.MaxLag, 2 * time.Second},
	} {
		if c.got != c.want {
			t.Errorf("-%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if sc.Sync != 0 || sc.CheckpointWALBytes != 0 || sc.Open.FS != nil || sc.Open.ProbeBackoff != 0 || sc.Open.ProbeBackoffMax != 0 || sc.Logf != nil {
		t.Errorf("flags set fields no flag names: %+v", sc)
	}

	// Defaults: an empty flag line is the zero config plus -addr.
	def := ServeFlags(flag.NewFlagSet("serve", flag.ContinueOnError))
	if want := (ServeConfig{Addr: ":8372"}); !reflect.DeepEqual(*def, want) {
		t.Errorf("defaults: %+v, want %+v", *def, want)
	}

	bad := flag.NewFlagSet("serve", flag.ContinueOnError)
	bad.SetOutput(io.Discard)
	ServeFlags(bad)
	if err := bad.Parse([]string{"-fsync", "sometimes"}); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
		t.Errorf("-fsync sometimes: %v, want an unknown-policy error", err)
	}
}
