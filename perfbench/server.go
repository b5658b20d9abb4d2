package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running reprod process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	debug   string // pprof listener
	dataDir string
	logf    *os.File
	client  *http.Client
	done    chan error
}

// startServer launches reprod on loopback ports chosen by the kernel and
// waits until it reports both listeners.
func startServer(bin, dataDir, logPath string, w workload) (*serverProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-cache", strconv.Itoa(w.cache),
		"-data-dir", dataDir,
		"-fsync", w.fsync(),
		"-checkpoint-bytes", strconv.FormatInt(w.checkpointBytes, 10),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &serverProc{cmd: cmd, dataDir: dataDir, logf: logf, done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if v, ok := strings.CutPrefix(line, "reprod listening on "); ok {
				a[0] = v
			}
			if v, ok := strings.CutPrefix(line, "pprof listening on "); ok {
				a[1] = v
				addrs <- a
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addrs:
		s.base, s.debug = "http://"+a[0], "http://"+a[1]
	case err := <-s.done:
		logf.Close()
		return nil, fmt.Errorf("reprod exited during start-up: %v (log %s)", err, logPath)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("reprod did not report its listeners within 30s")
	}
	return s, nil
}

// kill stops the process at once (SIGKILL) and waits for it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	s.client.CloseIdleConnections()
	s.logf.Close()
}

// stop shuts the server down gracefully and waits for it.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.client.CloseIdleConnections()
		s.logf.Close()
		return err
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("reprod ignored SIGTERM for 20s")
	}
}

// do sends one request and returns the status and body.
func (s *serverProc) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *serverProc) getJSON(path string, v any) error {
	code, b, err := s.do("GET", path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// upload creates database name from tokens-format bytes.
func (s *serverProc) upload(name string, data []byte) error {
	code, b, err := s.do("POST", "/v1/databases/"+name+"?format=tokens", data)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("upload %s: %d %s", name, code, b)
	}
	return nil
}

// counters is every server-side count the benchmark reads from outside
// the process.
type counters struct {
	CacheHits, CacheMisses int64
	TotalAlloc, Mallocs    uint64
	CPUTicks               int64 // utime+stime, in clock ticks
	VmHWMKB                int64
	DBs                    map[string]dbState
}

// dbState is one database's info block from /v1/databases.
type dbState struct {
	SnapshotGeneration uint64 `json:"snapshotGeneration"`
	Stats              struct {
		NumSequences int `json:"numSequences"`
		TotalLength  int `json:"totalLength"`
	} `json:"stats"`
	Persistence struct {
		SegmentGeneration uint64 `json:"segmentGeneration"`
		WALBytes          int64  `json:"walBytes"`
		WALRecords        int    `json:"walRecords"`
		CommitBatches     int64  `json:"commitBatches"`
		CommitRecords     int64  `json:"commitRecords"`
		CheckpointError   string `json:"checkpointError"`
		Degraded          bool   `json:"degraded"`
	} `json:"persistence"`
}

func (s *serverProc) counters() (counters, error) {
	var c counters
	var h struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
	}
	if err := s.getJSON("/healthz", &h); err != nil {
		return c, err
	}
	c.CacheHits, c.CacheMisses = h.CacheHits, h.CacheMisses
	var list struct {
		Databases []struct {
			Name string `json:"name"`
			dbState
		} `json:"databases"`
	}
	if err := s.getJSON("/v1/databases", &list); err != nil {
		return c, err
	}
	c.DBs = map[string]dbState{}
	for _, d := range list.Databases {
		c.DBs[d.Name] = d.dbState
	}
	if err := s.memStats(&c); err != nil {
		return c, err
	}
	pid := s.cmd.Process.Pid
	var err error
	if c.CPUTicks, err = cpuTicks(pid); err != nil {
		return c, err
	}
	c.VmHWMKB, err = peakRSSKB(pid)
	return c, err
}

// memStats reads TotalAlloc and Mallocs from the runtime.MemStats block
// of the heap profile on the -debug-addr listener.
func (s *serverProc) memStats(c *counters) error {
	resp, err := s.client.Get(s.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	found := 0
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			c.TotalAlloc, _ = strconv.ParseUint(v, 10, 64)
			found++
		}
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			c.Mallocs, _ = strconv.ParseUint(v, 10, 64)
			found++
		}
	}
	if found != 2 {
		return fmt.Errorf("heap profile lacks TotalAlloc/Mallocs")
	}
	return sc.Err()
}

// cpuTicks reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st, nil
}

// peakRSSKB reads a process's peak resident set size (VmHWM).
func peakRSSKB(pid int) (int64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// resetPeakRSS sets a process's VmHWM back to its current RSS.
func resetPeakRSS(pid int) {
	// Best effort: without the reset the group peaks only stay high.
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// clockTick is the /proc/<pid>/stat time unit (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
