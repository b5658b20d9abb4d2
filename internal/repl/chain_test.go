package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

// fixedSource serves one directory at a fixed acknowledged generation.
type fixedSource struct {
	dir string
	gen uint64
}

func (s fixedSource) Dir() string        { return s.dir }
func (s fixedSource) Generation() uint64 { return s.gen }
func (s fixedSource) Checkpoint() error  { return nil }
func (s fixedSource) Epoch() string      { return "e" }

// TestChainRuleRecoveryAndFeed runs one set of directory layouts through
// both readers of the WAL chain — store recovery and the replication
// feed — and checks each applies the chain rule with its own policy at
// an apparent gap: recovery skips an empty out-of-chain WAL and fails on
// a non-empty one; the feed waits for a live frame, or sends re-bootstrap
// when the chain is broken or swept.
func TestChainRuleRecoveryAndFeed(t *testing.T) {
	payload := encodeTestBatch(t, []store.Record{{Label: "s", Events: []string{"a", "b"}}})
	// writeWAL writes a WAL file based at base holding n records and then
	// the given trailing garbage. The names pin the on-disk layout.
	writeWAL := func(t *testing.T, dir string, base uint64, n int, garbage []byte) {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", base))
		l, err := wal.Open(path, wal.Options{Policy: wal.SyncNever}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := l.Commit(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(garbage) > 0 {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(garbage)
			f.Close()
		}
	}

	cases := []struct {
		name  string
		build func(t *testing.T, dir string)
		// The feed serves from position from, with srcGen acknowledged.
		from   string
		srcGen uint64
		// wantRecords record frames, then a heartbeat (waiting) or, with
		// wantRebootstrap, a re-bootstrap frame.
		wantRecords     int
		wantRebootstrap bool
		// wantGen is the generation recovery reaches; 0 means recovery
		// must fail with ErrChainGap.
		wantGen uint64
	}{
		{
			name: "rotation mid-stream",
			build: func(t *testing.T, dir string) {
				writeWAL(t, dir, 1, 3, nil)
				writeWAL(t, dir, 4, 2, nil)
			},
			from: "1,0", srcGen: 6, wantRecords: 5, wantGen: 6,
		},
		{
			name: "torn tail in the last file",
			build: func(t *testing.T, dir string) {
				writeWAL(t, dir, 1, 3, nil)
				writeWAL(t, dir, 4, 2, []byte{9, 0, 0, 0, 1, 2})
			},
			from: "1,0", srcGen: 6, wantRecords: 5, wantGen: 6,
		},
		{
			// A crash in a rotation window under a weak fsync policy. The
			// feed is told one more generation exists than the chain holds,
			// so it must look past the end of wal-1 and keep waiting.
			name: "empty out-of-chain WAL",
			build: func(t *testing.T, dir string) {
				writeWAL(t, dir, 1, 3, nil)
				writeWAL(t, dir, 9, 0, nil)
			},
			from: "1,0", srcGen: 5, wantRecords: 3, wantGen: 4,
		},
		{
			name: "non-empty gap",
			build: func(t *testing.T, dir string) {
				writeWAL(t, dir, 1, 3, nil)
				writeWAL(t, dir, 9, 1, nil)
			},
			from: "1,0", srcGen: 10, wantRecords: 3, wantRebootstrap: true,
		},
		{
			// A checkpoint at generation 5 swept wal-1: a follower still at
			// generation 1 cannot be served from the chain.
			name: "swept prefix",
			build: func(t *testing.T, dir string) {
				st, err := store.Open(dir, store.Options{SyncPolicy: wal.SyncNever, CheckpointWALBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := st.Append([]store.Record{{Events: []string{"a"}}}, false); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Append([]store.Record{{Events: []string{"b"}}}, false); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			},
			from: "1,0", srcGen: 6, wantRecords: 0, wantRebootstrap: true, wantGen: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)

			// The feed first: it only reads, while recovery truncates.
			records, rebootstrap := feedUntilIdle(t, fixedSource{dir: dir, gen: tc.srcGen}, tc.from)
			if records != tc.wantRecords || rebootstrap != tc.wantRebootstrap {
				t.Fatalf("feed sent %d records, rebootstrap=%v; want %d, %v",
					records, rebootstrap, tc.wantRecords, tc.wantRebootstrap)
			}

			st, err := store.Open(dir, store.Options{SyncPolicy: wal.SyncNever})
			if tc.wantGen == 0 {
				if !errors.Is(err, store.ErrChainGap) {
					t.Fatalf("recovery err = %v, want ErrChainGap", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer st.Close()
			if g := st.Current().Generation(); g != tc.wantGen {
				t.Fatalf("recovered generation %d, want %d", g, tc.wantGen)
			}
		})
	}
}

// feedUntilIdle streams the feed from position from and reads frames
// until the first heartbeat (the feed is waiting) or a re-bootstrap. It
// checks record frames arrive in generation order.
func feedUntilIdle(t *testing.T, src Source, from string) (records int, rebootstrap bool) {
	t.Helper()
	feed := &Feed{Src: src, Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond}
	srv := httptest.NewServer(http.HandlerFunc(feed.ServeWAL))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?from="+from+"&epoch=e", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var base uint64
	var rec int
	fmt.Sscanf(from, "%d,%d", &base, &rec)
	var buf []byte
	for {
		fr, err := readFrame(br, &buf)
		if err != nil {
			t.Fatalf("feed stream after %d records: %v", records, err)
		}
		switch fr.typ {
		case FrameRecord:
			records++
			if want := base + uint64(rec+records); fr.gen != want {
				t.Fatalf("record frame for generation %d, want %d", fr.gen, want)
			}
		case FrameHeartbeat:
			return records, false
		case FrameRebootstrap:
			return records, true
		}
	}
}
