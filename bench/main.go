// Command bench is the repository's one benchmark: four workloads that
// load different layers of the stack, each run untraced for the
// end-to-end numbers and traced for the per-layer numbers, with a
// correctness gate. See README.md.
//
//	bash bench/run.sh -seed 1 -json out.json          every workload, both passes
//	bash bench/run.sh --workload tcp-read-mostly --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -selfcheck                      repeatability calibration
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"mca/internal/flightrec"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload  = flag.String("workload", "", "run one pass of this workload and print the result object last (the driver's protocol); empty runs every workload, both passes")
		seed      = flag.Uint64("seed", 1, "seed of the op schedule and the fault schedule")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured window per pass, after a warm-up of a tenth of it")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		jsonOut   = flag.String("json", "", "write the full report here")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans here as JSONL (with several workloads, one file each, suffixed)")
		smoke     = flag.Bool("smoke", false, "1 s windows and short probes: exercises the whole harness in seconds")
		selfcheck = flag.Bool("selfcheck", false, "repeatability calibration: two sets of -runs runs per workload, spreads and drifts against the bounds in BENCHMARK.json")
		runs      = flag.Int("runs", 10, "runs per set for -selfcheck")
	)
	flag.Parse()
	flightrec.SetAutoDump(io.Discard)
	if *smoke {
		*seconds = 1
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*runs, *seconds)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *traceOut)
	default:
		_, err = runAll(os.Stdout, *seed, *seconds, *smoke, *jsonOut, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// dataRoot creates the directory the file-backed nodes live under and
// reports its filesystem. It prefers tmpfs, so that the durable
// workloads measure the program (encode, write, rename, the syscalls)
// and not a shared disk's flush time, which is neither steady nor the
// program's; see README.md, "Why tmpfs". Without /dev/shm it falls back
// to the checkout. The caller removes the directory; so does a signal
// that stops the run.
func dataRoot() (dir, fsType string, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "mcabench-"); err != nil {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return "", "", err
		}
		if dir, err = os.MkdirTemp(".bench_build", "mcabench-"); err != nil {
			return "", "", err
		}
	}
	// A run told to stop must not leave its nodes' files on tmpfs.
	stopped := make(chan os.Signal, 1)
	signal.Notify(stopped, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stopped
		// The nodes are still writing: try again if a file appeared
		// in a directory between its listing and its removal.
		for try := 0; try < 10 && os.RemoveAll(dir) != nil; try++ {
		}
		os.Exit(1)
	}()
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return dir, "unknown", nil
	}
	names := map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext4", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return dir, n, nil
	}
	return dir, fmt.Sprintf("0x%x", st.Type), nil
}

// resultLine is the object the driver reads from the last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResultLine reports exactly the pass's metric list: the end-to-end
// metrics of an untraced pass, the per-layer metrics of a traced one.
func newResultLine(res *runResult) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue)}
	for _, ms := range metricsOf(res.Traced) {
		line.Metrics[ms.Name] = metricValue{Value: res.Metrics[ms.Name], Unit: ms.Unit}
	}
	return line
}

func metricsOf(traced bool) []metricSpec {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printPass prints every metric of one pass by name with its unit.
func printPass(w io.Writer, res *runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "# %s, %s pass: %d ops attempted, %d failed, %d latency samples in the window, %d crash cycles, correct=%v %s\n",
		res.Workload, pass, res.Attempted, res.Failed, res.Samples, res.Cycles, res.Correct, res.Violation)
	for _, ms := range metricsOf(res.Traced) {
		fmt.Fprintf(w, "%-22s %-26s %14.6g %s\n", res.Workload, ms.Name, res.Metrics[ms.Name], ms.Unit)
	}
}

// runOne is the driver's protocol: one pass of one workload, the
// result object on the last line of standard output.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string) error {
	spec := findWorkload(name)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, _, err := dataRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	res, err := runWorkload(runConfig{spec: spec, seed: seed, seconds: seconds, traced: traced, dataRoot: root, traceOut: traceOut})
	if err != nil {
		return err
	}
	if traced {
		probes, err := runProbes(context.Background(), false, root)
		if err != nil {
			return err
		}
		for k, v := range probes {
			res.Metrics[k] = v
		}
	}
	printPass(os.Stdout, res)
	out, err := json.Marshal(newResultLine(res))
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%s: %s", name, res.Violation)
	}
	return nil
}

// environment is the report's description of where it ran.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	DataDirFS  string  `json:"data_dir_fs"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Seed       uint64  `json:"seed"`
	GitCommit  string  `json:"git_commit"`
	Network    string  `json:"network"`
}

func describeEnvironment(seed uint64, seconds float64, fsType string) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", DataDirFS: fsType, Clients: numClients,
		WindowS: seconds, WarmupS: seconds / 10, Seed: seed, GitCommit: "unknown",
		Network: "loopback TCP, no injected delay: latency is processor and kernel time, not a network's",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// report is the -json document.
type report struct {
	Env       environment  `json:"environment"`
	Passes    []*runResult `json:"passes"`
	Checks    []check      `json:"layer_separation_checks"`
	AllPassed bool         `json:"all_passed"`
	Claim     *string      `json:"claim"` // always null: the benchmark claims no gain
}

// check is one predicted relation between workloads.
type check struct {
	What string `json:"what"`
	OK   bool   `json:"ok"`
}

// separationChecks tests that the workloads load the layers they were
// chosen to load.
func separationChecks(traced map[string]*runResult) []check {
	get := func(wl, metric string) float64 { return traced[wl].Metrics[metric] }
	fRead, fDur := get(wlRead, "store.forces_per_txn"), get(wlDurable, "store.forces_per_txn")
	return []check{
		{fmt.Sprintf("store.forces_per_txn: %s %.2f >= 3", wlDurable, fDur), fDur >= 3},
		{fmt.Sprintf("store.forces_per_txn: %s %.2f <= a fifth of %s %.2f", wlRead, fRead, wlDurable, fDur), fRead <= fDur/5},
		{fmt.Sprintf("dist.msgs_per_txn: %s %.2f == 0", wlLocal, get(wlLocal, "dist.msgs_per_txn")), get(wlLocal, "dist.msgs_per_txn") == 0},
		{fmt.Sprintf("dist.commit_share: %s %.3f > %s %.3f", wlDurable, get(wlDurable, "dist.commit_share"), wlRead, get(wlRead, "dist.commit_share")),
			get(wlDurable, "dist.commit_share") > get(wlRead, "dist.commit_share")},
		{fmt.Sprintf("store.flush_wait_share: %s %.3f > %s %.3f", wlDurable, get(wlDurable, "store.flush_wait_share"), wlRead, get(wlRead, "store.flush_wait_share")),
			get(wlDurable, "store.flush_wait_share") > get(wlRead, "store.flush_wait_share")},
	}
}

// runAll runs every workload untraced and traced, prints every metric
// and fails if a correctness gate or a layer-separation check does.
func runAll(w io.Writer, seed uint64, seconds float64, quick bool, jsonOut, traceOut string) (*report, error) {
	root, fsType, err := dataRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := &report{Env: describeEnvironment(seed, seconds, fsType), AllPassed: true}
	env, err := json.MarshalIndent(rep.Env, "", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# environment\n%s\n", env)
	probes, err := runProbes(context.Background(), quick, root)
	if err != nil {
		return nil, err
	}
	traced := make(map[string]*runResult)
	for i := range workloads {
		spec := &workloads[i]
		for _, pass := range []bool{false, true} {
			cfg := runConfig{spec: spec, seed: seed, seconds: seconds, traced: pass, quick: quick, dataRoot: root}
			if pass && traceOut != "" {
				cfg.traceOut = traceOut + "." + spec.name
			}
			res, err := runWorkload(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			if pass {
				for k, v := range probes {
					res.Metrics[k] = v
				}
				traced[spec.name] = res
			}
			printPass(w, res)
			rep.Passes = append(rep.Passes, res)
			rep.AllPassed = rep.AllPassed && res.Correct
		}
	}
	rep.Checks = separationChecks(traced)
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "# check ok=%-5v %s\n", c.OK, c.What)
		rep.AllPassed = rep.AllPassed && c.OK
	}
	fmt.Fprintln(w, `# "claim": null`)
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if !rep.AllPassed {
		return rep, fmt.Errorf("a correctness gate or layer-separation check failed")
	}
	return rep, nil
}
