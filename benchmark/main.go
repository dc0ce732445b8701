// Command benchmark is bufferkit's end-to-end and per-layer benchmark.
//
// It generates seeded inputs, runs one workload for a fixed time, checks
// every output, and prints one JSON result line whose metric names and
// units come from BENCHMARK.json at the repository root:
//
//	benchmark -workload paper-nets|service-mix|eco-sessions -seed N \
//	          -seconds S -trace 0|1 [-server-bin PATH] [-state-dir DIR] \
//	          [-spec BENCHMARK.json]
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it times
// each layer from outside, around the calls into that layer's public
// functions, and reports the per-layer metrics. run.py in this directory
// builds the program and bufferkitd from source and then runs it; see
// README.md for the workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// deadline bounds one invocation: every run must end well within the
// three minutes a run is allowed.
const deadline = 170 * time.Second

// run is one benchmark invocation: its settings, the metrics it reports,
// and its failure and correctness accounting.
type run struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	stateDir  string

	metrics   map[string]float64
	attempted int64
	failed    int64
	// wrong lists outputs that failed a correctness check and counts that
	// did not repeat; any entry makes the result incorrect.
	wrong []string
}

// set records one metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// mismatch records one wrong output: it counts as a failed operation and
// makes the run incorrect.
func (r *run) mismatch(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness failure that is not an operation of its
// own, such as counts that did not repeat.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 20 {
		fmt.Fprintln(os.Stderr, "benchmark:", msg)
	}
	r.wrong = append(r.wrong, msg)
}

var workloads = map[string]func(*run) error{
	"paper-nets":   paperNets,
	"service-mix":  serviceMix,
	"eco-sessions": ecoSessions,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name: paper-nets, service-mix or eco-sessions")
		seed      = flag.Int64("seed", 1, "input generation seed")
		seconds   = flag.Float64("seconds", 10, "measured time of the run, in seconds")
		trace     = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		serverBin = flag.String("server-bin", ".bench_build/bin/bufferkitd", "bufferkitd binary for service-mix")
		stateDir  = flag.String("state-dir", ".bench_build/state", "directory for the count-determinism records")
		spec      = flag.String("spec", "BENCHMARK.json", "benchmark definition naming every metric and its unit")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	units, err := readSpec(*spec, *trace == 1)
	if err != nil {
		fail(err)
	}
	r := &run{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		serverBin: *serverBin,
		stateDir:  *stateDir,
		metrics:   map[string]float64{},
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %s\n", r.workload, deadline)
		os.Exit(3)
	})
	if err := fn(r); err != nil {
		fail(fmt.Errorf("%s: %w", r.workload, err))
	}
	watchdog.Stop()
	if r.trace && r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
	if err := r.print(os.Stdout, units); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// readSpec returns the unit of every metric BENCHMARK.json lists for the
// requested mode: end_to_end for untraced runs, per_layer for traced ones.
func readSpec(path string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units, nil
}

// print writes the result line. Every metric the spec names must have been
// measured, except that a traced run reports 0 for the layers its workload
// never enters (README.md lists which); a measured name the spec does not
// list is a bug in the benchmark.
func (r *run) print(w io.Writer, units map[string]string) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(r.wrong) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for name, v := range r.metrics {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %q is not listed in the benchmark spec", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", name, v)
		}
		out.Metrics[name] = metric{v, unit}
	}
	for name, unit := range units {
		if _, ok := out.Metrics[name]; ok {
			continue
		}
		if !r.trace {
			return fmt.Errorf("end-to-end metric %q was not measured", name)
		}
		out.Metrics[name] = metric{0, unit}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timeSetup runs setup n times and returns the last state with the median
// set-up time in seconds; every earlier state is released with drop.
func timeSetup[S any](n int, setup func() (S, error), drop func(S)) (S, float64, error) {
	var st S
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Collect the dropped states now rather than during the measurement.
	runtime.GC()
	return st, median(times), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histBase is the histogram's bucket ratio: bucket i holds durations in
// [histBase^i, histBase^(i+1)) ns, so a quantile is within 1%.
const (
	histBase    = 1.01
	histBuckets = 2600 // 1.01^2600 ns is about three minutes
)

var histLogBase = math.Log(histBase)

// histogram counts durations in fixed log-spaced buckets. Its size does not
// depend on how many durations it has seen, so a long or fast run does not
// grow the benchmark's own memory.
type histogram struct {
	counts [histBuckets]int64
	n      int64
}

func (h *histogram) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log(float64(d))/histLogBase), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in the given unit, interpolated by rank
// within its bucket.
func (h *histogram) quantile(q float64, unit time.Duration) float64 {
	rank := q * float64(h.n)
	var seen int64
	for i, c := range h.counts {
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		lo := math.Pow(histBase, float64(i))
		v := lo + (rank-float64(seen))/float64(c)*(lo*histBase-lo)
		return v / float64(unit)
	}
	return math.NaN()
}

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// checkCounts is the determinism gate. The exact engine and session counts
// of a traced run depend only on the code and the seed, so a second run of
// the same code must reproduce them; the first run records them under
// stateDir, keyed by a digest of the repository's Go sources, and every
// later run compares against that record.
func (r *run) checkCounts(counts map[string]int64) error {
	digest, err := sourceDigest(".")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.stateDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.stateDir, fmt.Sprintf("counts-%s-seed%d-%s.json", r.workload, r.seed, digest[:16]))
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		out, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var earlier map[string]int64
	if err := json.Unmarshal(raw, &earlier); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	for name := range earlier {
		if _, ok := counts[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		if counts[name] != earlier[name] {
			r.problem("determinism: count %s = %d, but an earlier run of the same code and seed counted %d",
				name, counts[name], earlier[name])
		}
	}
	return nil
}

// sourceDigest hashes every Go source and go.mod file under root, skipping
// hidden directories such as build outputs.
func sourceDigest(root string) (string, error) {
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
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
