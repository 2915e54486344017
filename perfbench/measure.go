package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// limit bounds one measured segment. A segment runs operations while it
// has fewer than minOps, or while the deadline has not passed and it has
// fewer than maxOps (0 = no cap).
type limit struct {
	deadline time.Time
	minOps   int
	maxOps   int
}

func (l limit) more(done int) bool {
	if done < l.minOps {
		return true
	}
	if l.maxOps > 0 && done >= l.maxOps {
		return false
	}
	return time.Now().Before(l.deadline)
}

// segment is what one measured run of a workload produced.
type segment struct {
	ops     int
	elapsed time.Duration // wall time
	cpu     time.Duration // process CPU time
	// lat is the host time per operation, ns: process CPU time on the
	// simulated workloads, wall time on live-service.
	lat []int64
	// p99Window, when > 0, makes op_ms_p99 the median of the p99s of
	// consecutive windows of this many operations (windowP99).
	p99Window int

	failed   int      // operations that failed their oracle check
	broken   []string // correctness breaches (false positives, harness errors)
	failures []string // the first failed operations, for the report

	exposures    int // planted bugs exposed
	exposureRuns int // runs (or requests) spent on those exposures

	digest *digester
	mem    memDelta
	cal    calibrator

	// perLayer holds the per-layer metrics the workload computes from its
	// own counters and spans; extra holds report-only figures.
	perLayer map[string]metric
	extra    map[string]metric
	spans    []span
}

func newSegment(digestOps int) *segment {
	return &segment{
		digest:   newDigester(digestOps),
		perLayer: map[string]metric{},
		extra:    map[string]metric{},
	}
}

// fail records a failed operation.
func (s *segment) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 10 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// breach records a correctness breach (it also fails the operation).
func (s *segment) breach(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.fail("%s", msg)
	if len(s.broken) < 10 {
		s.broken = append(s.broken, msg)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentileNS returns the p-th percentile (nearest rank) of ns.
func percentileNS(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1])
}

// windowP99 splits ns, in order, into len(ns)/w windows of w samples (the
// last takes the remainder) and returns the median of their p99s; the p99
// of all of ns when w is 0 or there are fewer than two windows. A stall of
// the host inflates the tail of the window it falls in, not the median.
func windowP99(ns []int64, w int) float64 {
	k := 0
	if w > 0 {
		k = len(ns) / w
	}
	if k < 2 {
		return percentileNS(ns, 99)
	}
	p99s := make([]float64, k)
	for i := range p99s {
		hi := (i + 1) * w
		if i == k-1 {
			hi = len(ns)
		}
		p99s[i] = percentileNS(ns[i*w:hi], 99)
	}
	return median(p99s)
}

// median of a float slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digester hashes the canonical output lines of the first n operations,
// so two builds can be compared for byte-identical simulated outputs.
type digester struct {
	limit int
	lines int
	h     hash.Hash
}

func newDigester(n int) *digester { return &digester{limit: n, h: sha256.New()} }

// add hashes one operation's output line while under the limit.
func (d *digester) add(format string, args ...any) {
	if d.lines >= d.limit {
		return
	}
	d.lines++
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string {
	if d.limit == 0 {
		return "none"
	}
	return fmt.Sprintf("sha256:%s/%d", hex.EncodeToString(d.h.Sum(nil))[:32], d.lines)
}

// memDelta is the Go runtime's allocation and GC activity over a segment.
type memDelta struct {
	mallocs, allocBytes, numGC uint64
	pauseNS                    uint64
}

type memMark runtime.MemStats

func markMem() *memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (*memMark)(&ms)
}

func (m *memMark) since() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{
		mallocs:    ms.Mallocs - m.Mallocs,
		allocBytes: ms.TotalAlloc - m.TotalAlloc,
		numGC:      uint64(ms.NumGC - m.NumGC),
		pauseNS:    ms.PauseTotalNs - m.PauseTotalNs,
	}
}

// refKernelNS is the CPU time one calibration kernel takes at the
// reference host speed: about its median on the 2-vCPU Xeon virtual
// machine the benchmark was built on.
const refKernelNS = 1.15e6

// calibrator measures the host's current speed. The CPU time a fixed piece
// of work takes drifts with the host's load (shared cores and caches,
// clock rate): by ±11% over minutes for a paper-bugs session, and a kernel
// of Go map and sort work drifts with it (the ratio of the two stayed
// within ±4%). The simulated workloads run the kernel between operations,
// and report CPU times scaled to the reference speed.
//
// The kernel allocates nothing and is timed by its own thread's CPU time,
// so the program's garbage collection, which runs on other threads, does
// not count in it: a change to the program's allocation rate leaves the
// scale alone.
type calibrator struct {
	next  time.Time
	ns    []float64     // kernel CPU time per call
	spent time.Duration // process CPU time spent in the kernel
	m     map[int]int
	keys  []int
}

// calibrateEvery is how often (wall clock) the kernel runs: about 1% of
// the time.
const calibrateEvery = 200 * time.Millisecond

// kernelKeys is how many distinct keys the kernel inserts.
const kernelKeys = 20_000

// maybe runs the kernel when calibrateEvery has passed since the last run.
func (c *calibrator) maybe() {
	now := time.Now()
	if now.Before(c.next) {
		return
	}
	c.next = now.Add(calibrateEvery)
	c.run()
}

// run runs the kernel once and records its CPU time.
func (c *calibrator) run() {
	if c.m == nil {
		c.m = make(map[int]int, kernelKeys)
		c.keys = make([]int, 0, 4096)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	clear(c.m)
	for i := 0; i < kernelKeys; i++ {
		c.m[(i*7919)%50_021] += i
	}
	c.keys = c.keys[:0]
	for k := range c.m {
		if len(c.keys) == cap(c.keys) {
			break
		}
		c.keys = append(c.keys, k)
	}
	sort.Ints(c.keys)
	d := threadCPUTime() - c0
	c.ns = append(c.ns, float64(d))
	c.spent += d
}

// scale is the factor that converts this run's CPU times to the reference
// speed: 1 when the kernel never ran.
func (c *calibrator) scale() float64 {
	if len(c.ns) == 0 {
		return 1
	}
	return refKernelNS / median(c.ns)
}

// cpuTime is the process's CPU time so far, all threads, user and system.
func cpuTime() time.Duration {
	return rusageTime(syscall.RUSAGE_SELF)
}

func rusageTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage(RUSAGE_THREAD), which can count in scheduler ticks, this clock
// counts nanoseconds.
const clockThreadCPUTimeID = 3

// threadCPUTime is the calling thread's CPU time so far. The caller locks
// itself to its thread around the interval it measures.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stealTicks reads the machine-wide CPU time stolen by the hypervisor and
// the total CPU time, in clock ticks, from /proc/stat; zeros when absent.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// maxRSSMB is the process's peak resident memory: VmHWM, the high-water
// mark of its own address space. getrusage's ru_maxrss is not used: it
// keeps the peak of the image the process replaced at exec, so a launcher
// forked from a larger process (a Python harness, say) would be reported
// instead of the benchmark.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb)
			return kb / 1024
		}
	}
	return 0
}

// envStamp identifies where and on what a result was measured.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Rev        string `json:"rev"`
	Src        string `json:"src"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func stampEnv(cfg config) envStamp {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Rev:        gitRev("."),
		Src:        sourceDigest("."),
		Seed:       cfg.seed,
		Workload:   cfg.workload,
		Seconds:    cfg.seconds,
		Trace:      trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD from the .git directory at root, without running
// git; "none" outside a git checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, hidden
// directories (build output, VCS metadata) skipped. It names the measured
// code where there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
