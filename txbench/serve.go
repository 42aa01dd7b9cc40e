package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/txdel/client"
)

// server is one txgc-serve process listening on loopback.
type server struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	dataDir     string

	mu     sync.Mutex
	stderr []string
	exited chan struct{}
}

// serverArgs is the serve-durable configuration: wire v2 over TCP, strict
// durability (fsync before every acknowledgement), Prometheus metrics.
func serverArgs(w *workload, dataDir string, verify bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(w.shards), "-policy", w.policy,
		"-fsync-batch", "1", "-data-dir", dataDir}
	if verify {
		args = append(args, "-verify")
	}
	return args
}

// startServer spawns txgc-serve and returns once it listens.
func startServer(bin string, args []string, dataDir string) (*server, error) {
	s := &server{dataDir: dataDir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	errPipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan struct{})
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(errPipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr = append(s.stderr, line)
			if a, ok := strings.CutPrefix(line, "txgc-serve: metrics on http://"); ok {
				s.metricsAddr = strings.TrimSuffix(a, "/metrics")
			}
			if a, ok := strings.CutPrefix(line, "txgc-serve: listening on "); ok {
				s.addr = a
			}
			if !announced && s.addr != "" && s.metricsAddr != "" {
				announced = true
				close(ready)
			}
			s.mu.Unlock()
		}
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.exited:
	case <-time.After(30 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("txgc-serve did not start: %s", s.log())
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderr, "\n")
}

// kill SIGKILLs the server and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already gone is fine
	<-s.exited
	_ = s.cmd.Wait() // killed: the exit status is expected to be an error
}

// stop SIGTERMs the server (its graceful shutdown, which runs the CSR
// referee under -verify) and returns its exit error.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("txgc-serve did not stop on SIGTERM")
	}
	return s.cmd.Wait()
}

// vmHWMKB reads the server's peak resident set size.
func (s *server) vmHWMKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics and sums each metric's samples by name.
func (s *server) scrape() (map[string]float64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + s.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
		if j := strings.IndexByte(line, '{'); j > 0 {
			out[line[:j]] += v
		}
	}
	return out, sc.Err()
}

// dirSizeKB is the size of the files under dir.
func dirSizeKB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return float64(total) / 1024, err
}

// acked is a transaction whose commit the server acknowledged.
type acked struct {
	id int64
	fp [footprintSize]client.Entity
}

// wireConn is one v2 session over TCP.
type wireConn struct {
	c      net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	buf    []byte
	nextID int64
	acked  []acked
}

// dial connects and says hello. Transaction IDs are allocated from base;
// every connection of a server gets its own base.
func dial(addr string, base int64) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	wc := &wireConn{c: c, r: bufio.NewReaderSize(c, 1<<20), w: bufio.NewWriter(c), nextID: base}
	resp, err := wc.roundTrip([]byte(`{"op":"hello","version":2}`))
	if err == nil && !bytes.Contains(resp, []byte(`"version":2`)) {
		err = fmt.Errorf("hello refused: %s", resp)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return wc, nil
}

func (wc *wireConn) close() { wc.c.Close() }

// roundTrip sends one request line and returns the response line, which
// is valid until the next call.
func (wc *wireConn) roundTrip(req []byte) ([]byte, error) {
	wc.w.Write(req)
	wc.w.WriteByte('\n')
	if err := wc.w.Flush(); err != nil {
		return nil, err
	}
	line, err := wc.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	return line, nil
}

type wireResp struct {
	Outcome   string        `json:"outcome"`
	Completed bool          `json:"completed"`
	Code      string        `json:"code"`
	Error     string        `json:"error"`
	Results   []wireResp    `json:"results"`
	Stats     *client.Stats `json:"stats"`
}

var accepted = []byte(`"outcome":"accepted"`)

// wireErr classifies a non-accepted response like classify does a client
// error.
func wireErr(resp []byte) error {
	var r wireResp
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("bad response %q: %w", resp, err)
	}
	err := fmt.Errorf("%s: %s", r.Code, r.Error)
	switch {
	case r.Code == "txn-aborted" && strings.Contains(r.Error, "deadline"):
		return err
	case r.Code == "cycle", r.Code == "cross-cycle", r.Code == "txn-aborted":
		return fmt.Errorf("%w: %w", errConflict, err)
	}
	return err
}

func appendEntities(b []byte, xs []client.Entity) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

func beginLine(b []byte, id int64, fp []client.Entity) []byte {
	b = append(b, `{"op":"begin","txn":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"footprint":`...)
	b = appendEntities(b, fp)
	b = append(b, `,"deadline_ms":`...)
	b = strconv.AppendInt(b, txnDeadline.Milliseconds(), 10)
	return append(b, '}')
}

// serveTarget drives one wire session per worker.
type serveTarget struct{ conns []*wireConn }

func (s serveTarget) attempt(w int, in *txnInput, tr *tracer) error {
	return s.conns[w].txn(in, tr, nil)
}

// txn runs one attempt of in under a fresh ID; onBegin, if set, runs as
// soon as its BEGIN is accepted.
func (c *wireConn) txn(in *txnInput, tr *tracer, onBegin func()) error {
	id := c.nextID
	c.nextID++
	step := func(name string, req []byte) error {
		c.buf = req[:0]
		t0 := tr.now()
		resp, err := c.roundTrip(req)
		if tr != nil {
			tr.op(layerServe, name, id, t0, &tr.rtt)
		}
		if err != nil {
			return err
		}
		if !bytes.Contains(resp, accepted) {
			return wireErr(resp)
		}
		if name == "write" && !bytes.Contains(resp, []byte(`"completed":true`)) {
			return fmt.Errorf("write accepted without commit: %s", resp)
		}
		return nil
	}
	if err := step("begin", beginLine(c.buf[:0], id, in.fp[:])); err != nil {
		return err
	}
	if onBegin != nil {
		onBegin()
	}
	for _, x := range in.reads() {
		b := append(c.buf[:0], `{"op":"read","txn":`...)
		b = strconv.AppendInt(b, id, 10)
		b = append(b, `,"entity":`...)
		b = strconv.AppendInt(b, int64(x), 10)
		if err := step("read", append(b, '}')); err != nil {
			return err
		}
	}
	b := append(c.buf[:0], `{"op":"write","txn":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"entities":[`...)
	b = strconv.AppendInt(b, int64(in.write()), 10)
	if err := step("write", append(b, "]}"...)); err != nil {
		return err
	}
	c.acked = append(c.acked, acked{id: id, fp: in.fp})
	return nil
}

// stats asks the server for its engine counters.
func (wc *wireConn) stats() (client.Stats, error) {
	resp, err := wc.roundTrip([]byte(`{"op":"stats"}`))
	if err != nil {
		return client.Stats{}, err
	}
	var r wireResp
	if err := json.Unmarshal(resp, &r); err != nil || r.Stats == nil {
		return client.Stats{}, fmt.Errorf("bad stats response %q: %v", resp, err)
	}
	return *r.Stats, nil
}

// preload is the load phase over the wire (see preloadInproc), through the
// batch op. The load transactions count as acknowledged commits.
func (wc *wireConn) preload(w *workload) (int64, error) {
	var commits int64
	for x := 0; x < w.entities; x += preloadBatch {
		b := append(wc.buf[:0], `{"op":"batch","steps":[`...)
		n := 0
		for e := x; e < min(x+preloadBatch, w.entities); e++ {
			if n > 0 {
				b = append(b, ',')
			}
			n++
			id := strconv.AppendInt(nil, int64(preloadBase+e), 10)
			b = append(b, `{"op":"begin","txn":`...)
			b = append(b, id...)
			b = append(b, `,"footprint":[`...)
			b = strconv.AppendInt(b, int64(e), 10)
			b = append(b, `]},{"op":"write","txn":`...)
			b = append(b, id...)
			b = append(b, `,"entities":[`...)
			b = strconv.AppendInt(b, int64(e), 10)
			b = append(b, "]}"...)
		}
		b = append(b, "]}"...)
		wc.buf = b
		resp, err := wc.roundTrip(b)
		if err != nil {
			return commits, fmt.Errorf("load phase: %w", err)
		}
		var r wireResp
		if err := json.Unmarshal(resp, &r); err != nil {
			return commits, fmt.Errorf("load phase: %w", err)
		}
		if len(r.Results) != 2*n {
			return commits, fmt.Errorf("load phase: batch of %d steps answered with %d results", 2*n, len(r.Results))
		}
		for j := 0; j < n; j++ {
			if r.Results[2*j].Outcome != "accepted" || !r.Results[2*j+1].Completed {
				return commits, fmt.Errorf("load phase: transaction %d refused: %+v %+v", preloadBase+x+j, r.Results[2*j], r.Results[2*j+1])
			}
			var a acked
			a.id = int64(preloadBase + x + j)
			a.fp[0] = client.Entity(x + j)
			wc.acked = append(wc.acked, a)
			commits++
		}
	}
	return commits, nil
}

// dupBegins re-sends a BEGIN for each acked transaction, in batches, and
// returns the IDs the server did not refuse as a protocol error.
func (wc *wireConn) dupBegins(all []acked) ([]int64, error) {
	var notRefused []int64
	const chunk = 512
	for i := 0; i < len(all); i += chunk {
		part := all[i:min(i+chunk, len(all))]
		b := append(wc.buf[:0], `{"op":"batch","steps":[`...)
		for j, a := range part {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"op":"begin","txn":`...)
			b = strconv.AppendInt(b, a.id, 10)
			b = append(b, `,"footprint":`...)
			b = appendEntities(b, a.fp[:])
			b = append(b, '}')
		}
		b = append(b, "]}"...)
		wc.buf = b
		resp, err := wc.roundTrip(b)
		if err != nil {
			return nil, err
		}
		var r wireResp
		if err := json.Unmarshal(resp, &r); err != nil {
			return nil, fmt.Errorf("bad batch response: %w", err)
		}
		if len(r.Results) != len(part) {
			return nil, fmt.Errorf("batch of %d answered with %d results: %.200s", len(part), len(r.Results), resp)
		}
		for j, res := range r.Results {
			if res.Code != "protocol" {
				notRefused = append(notRefused, part[j].id)
			}
		}
	}
	return notRefused, nil
}
