package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostBlock says where and how a document's numbers were measured.
type hostBlock struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Kernel     string         `json:"kernel"`
	GitCommit  string         `json:"git_commit"`
	Workload   string         `json:"workload,omitempty"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"measured_seconds"`
	Engine     map[string]any `json:"engine,omitempty"`
	Samples    map[string]int `json:"sample_counts,omitempty"`
}

func newHostBlock(seed uint64) hostBlock {
	h := hostBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GitCommit:  "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// warnSmallHost tells the reader that both endpoints share one core, so
// pipelining cannot overlap them and latencies include the peer's work.
func warnSmallHost() {
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: nproc = %d; the workloads are sized for 2 cores\n", runtime.NumCPU())
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// rssMB reads the process's resident set size.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssWatch samples the resident set size until stopped and keeps the
// largest reading: the peak over one phase of the run, which the
// process-wide VmHWM cannot give.
type rssWatch struct {
	quit chan struct{}
	done chan struct{}
	peak float64
	err  error
}

func watchRSS() *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				w.err = err
				return
			}
			if mb > w.peak {
				w.peak = mb
			}
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop takes a last reading and returns the peak.
func (w *rssWatch) stop() (float64, error) {
	close(w.quit)
	<-w.done
	if w.err != nil {
		return 0, w.err
	}
	mb, err := rssMB()
	if err != nil {
		return 0, err
	}
	return max(mb, w.peak), nil
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}
