// Command txbench is the repository's benchmark. It drives the engine the
// way its users do — txdel/client sessions in process, and txgc-serve over
// loopback TCP — checks the outputs, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), ending with one
// JSON line. See README.md for the workloads and the metrics.
//
//	txbench -workload local-session -seed 1 -seconds 20 -trace 0 \
//	    -serve-bin path/to/txgc-serve -work-dir path/to/scratch
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's state: its configuration, the metrics it has
// measured, and the correctness checks that failed.
type run struct {
	w        *workload
	seed     int64
	seconds  float64
	serveBin string
	workDir  string
	log      io.Writer

	res    result
	broken []string
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "  %-30s %14.4f %s\n", name, v, unit)
}

// na reports a metric the workload has no layer for: its value is 0 and
// the reason is printed.
func (r *run) na(name, unit, why string) {
	r.res.Metrics[name] = metric{Value: 0, Unit: unit}
	fmt.Fprintf(r.log, "  %-30s %14s %s (n/a: %s)\n", name, "0", unit, why)
}

func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// check records a correctness check; a failed one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	r.res.Failed++
	fmt.Fprintf(r.log, "# CHECK FAILED: %s\n", msg)
}

// count adds a tally's attempts and failures to the run's totals.
func (r *run) count(tls ...*tally) {
	for _, t := range tls {
		r.res.Attempted += t.attempts
		r.res.Failed += t.failed
		if t.firstErr != nil {
			r.note("first failed attempt: %v", t.firstErr)
		}
	}
}

// phase returns a share of the run's measuring time.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSampler tracks the live heap as the runtime reports it after each GC
// cycle: its peak in each second, and its peak over the whole run.
type memSampler struct {
	stop, done chan struct{}
	peaks      []float64 // peak of each whole second, bytes
	peak       uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{}), peaks: make([]float64, 0, 256)}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		next := time.Now().Add(time.Second)
		var second uint64
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				second = max(second, s[0].Value.Uint64())
				m.peak = max(m.peak, second)
			}
			if now := time.Now(); !now.Before(next) {
				m.peaks = append(m.peaks, float64(second))
				second = 0
				next = now.Add(time.Second)
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// halt stops the sampler and returns, in MB, the median of the per-second
// peaks and the peak of the whole run. One second's peak is set by the
// largest state the stragglers pinned in it; the run's single highest
// peak moves far more from run to run than the median of its seconds.
func (m *memSampler) halt() (median1s, peak float64) {
	close(m.stop)
	<-m.done
	peak = float64(m.peak) / (1 << 20)
	if len(m.peaks) == 0 {
		return peak, peak
	}
	return median(m.peaks) / (1 << 20), peak
}

// fsKind names the file system holding dir, as far as it matters here.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "an unknown file system (" + err.Error() + ")"
	}
	if st.Type == 0x01021994 { // TMPFS_MAGIC
		return "tmpfs"
	}
	return fmt.Sprintf("a disk (file system type %#x)", st.Type)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("txbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: local-session, straggler-retention or serve-durable")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "measuring time of one run, seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	serveBin := fs.String("serve-bin", "", "txgc-serve binary (serve-durable)")
	workDir := fs.String("work-dir", "", "directory for server data and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *workDir == "" {
		fmt.Fprintln(stderr, "txbench: need -workload (local-session|straggler-retention|serve-durable), -seconds ≥ 1, -trace 0|1 and -work-dir")
		return 2
	}
	r := &run{w: w, seed: *seed, seconds: float64(*seconds), serveBin: *serveBin,
		workDir: *workDir, log: stdout, res: result{Metrics: map[string]metric{}}}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "txbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# txbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	if w.serve {
		r.note("server data under %s on %s", filepath.Join(*workDir, "data"), fsKind(filepath.Join(*workDir, "data")))
	}
	j0, s0 := hostJiffies()
	switch {
	case w.serve && *trace == 0:
		err = r.serveEndToEnd()
	case w.serve:
		err = r.serveLayers()
	case *trace == 0:
		err = r.inprocEndToEnd()
	default:
		err = r.inprocLayers()
	}
	if err != nil {
		fmt.Fprintln(stderr, "txbench:", err)
		return 1
	}
	if *trace == 1 {
		j1, s1 := hostJiffies()
		r.set("host.steal_frac", "frac", stealShare([2]int64{j0, s0}, [2]int64{j1, s1}))
	}
	r.res.Correct = len(r.broken) == 0
	for k, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s is not a number", k)
			r.res.Metrics[k] = metric{Unit: m.Unit}
			r.res.Correct = false
		}
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(stderr, "txbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !r.res.Correct {
		return 1
	}
	return 0
}
