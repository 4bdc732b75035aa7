package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"datasynth/internal/core"
)

// buildDir holds everything a run leaves behind, inside the checkout
// (the driver allows no writes outside it) and named in .gitignore.
const buildDir = ".bench_build"

// spinUp is how long every core is kept busy before a run's first
// clock starts. On the 2-core build box the first datasynth job after
// 15 s idle took 1.52-1.70 s against 1.13-1.29 s steady; after a spin it
// took 1.11-1.20 s. A core can have been idle that long inside one
// process too: cli-rmat-columnar keeps a single core busy, and in three
// A/A rounds the svc-cold-jsonl run that followed it without a spin set
// up in 2.20, 1.95 and 1.77 s against 1.62, 1.72 and 1.62 s for the run
// after that.
const spinUp = 1500 * time.Millisecond

// oneCore is appended to the environment of every datasynth and
// datasynthd child: the system under test runs on one core and leaves
// the other to the harness (the HTTP client, or nothing), so a run never
// has more runnable threads than the box has cores. The box cannot
// promise two cores at once. cli-social-csv, the one workload whose jobs
// keep both busy (1.5 of them on average), was steady here (ten seeds:
// job_s_p50 1.13-1.20 s) but under the driver its median job took 1.55 s
// with 34 % more CPU for the same work, and the middle half of ten runs
// spread over 21-26 % of that, while the three workloads whose jobs are
// serial stayed inside their bounds in the same check. What a second
// core buys is still measured, in the traced run
// (core.speedup_gomaxprocs, core.parallelism); it is not gated.
var oneCore = []string{"GOMAXPROCS=1"}

// harness is what every mode shares: where the tree is, the binaries
// built from it, and a scratch directory.
type harness struct {
	root      string // repository root (holds go.mod of module datasynth)
	datasynth string // built ./cmd/datasynth
	daemon    string // built ./cmd/datasynthd
	scratch   string // per-process scratch directory under buildDir
	nproc     int
	size      string

	buildS float64
}

// findRoot locates the repository root from the working directory:
// `go run -C bench .` starts the harness in bench/, `go test` does too.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "datasynthd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the datasynth repository root (no cmd/datasynthd above the working directory)")
		}
		dir = parent
	}
}

// newHarness builds the two binaries from the tree (before any
// benchmark clock) and creates the scratch directory.
func newHarness(ctx context.Context, size string) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, nproc: runtime.NumCPU(), size: size}
	binDir := filepath.Join(root, buildDir, "bin")
	h.datasynth = filepath.Join(binDir, "datasynth")
	h.daemon = filepath.Join(binDir, "datasynthd")

	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/datasynth", "./cmd/datasynthd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/datasynth ./cmd/datasynthd: %w\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()

	// The scratch directory is per process so two harnesses (a test and
	// a run, say) never share outputs or a daemon cache.
	if h.scratch, err = os.MkdirTemp(filepath.Join(root, buildDir), "scratch-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.scratch) }

// spin keeps every core busy for spinUp, so clocks start on CPUs that
// are already at speed, and returns how long it took.
func (h *harness) spin() float64 {
	start := time.Now()
	deadline := start.Add(spinUp)
	var wg sync.WaitGroup
	for i := 0; i < h.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Store(x)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// environment is recorded with every run, so a number can be traced to
// the tree, toolchain and host that produced it.
type environment struct {
	GitSHA        string  `json:"git_sha"`
	GitDirty      bool    `json:"git_dirty"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Scratch       string  `json:"scratch"`
	ScratchFS     string  `json:"scratch_fs"`
	LoadAvg1      float64 `json:"loadavg_1m"`
	NoisyHost     bool    `json:"noisy_host"`
	SchemaVersion int     `json:"schema_version"`
}

// readEnvironment is called before the run's first clock, so the load
// average is the host's, not the benchmark's own.
func (h *harness) readEnvironment() environment {
	env := environment{
		GitSHA:        "unknown",
		GoVersion:     runtime.Version(),
		CPUModel:      "unknown",
		NProc:         h.nproc,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scratch:       h.scratch,
		ScratchFS:     fsType(h.scratch),
		SchemaVersion: core.SchemaVersion,
	}
	// The driver's checkout is not a git repository; the SHA stays
	// "unknown" there.
	if sha, err := h.git("rev-parse", "HEAD"); err == nil {
		env.GitSHA = sha
		status, _ := h.git("status", "--porcelain")
		env.GitDirty = status != ""
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	env.NoisyHost = env.LoadAvg1 > 0.5*float64(h.nproc)
	return env
}

func (h *harness) git(args ...string) (string, error) {
	if _, err := os.Stat(filepath.Join(h.root, ".git")); err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Dir = h.root
	out, err := cmd.Output()
	return string(bytes.TrimSpace(out)), err
}

// fsType names the filesystem under path from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
