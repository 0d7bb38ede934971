package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// This file owns everything about processes: finding the repository, building
// the real cmd/botproxy binary, starting it pinned to its own CPU with
// GOMAXPROCS=1, pinning the generator to the remaining CPUs, and reading the
// server's CPU time and peak RSS out of /proc.

// buildDir is where build outputs go, relative to the repository root. The
// driver points CARGO_TARGET_DIR at the same directory for Rust benchmarks;
// .gitignore lists it.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory holding this
// module's go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module botdetect\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the botdetect module (go.mod not found)")
		}
		dir = parent
	}
}

// buildProxy compiles cmd/botproxy from the checkout's source and returns
// the binary's path. The go tool skips the link when the output is current.
func buildProxy(root string) (string, error) {
	out := filepath.Join(root, buildDir, "botproxy")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/botproxy")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/botproxy: %w\n%s", err, msg)
	}
	return out, nil
}

// cpuPlan is how the benchmark splits the machine: one CPU for the server,
// the rest for the generator.
type cpuPlan struct {
	allowed   []int
	serverCPU int
	genCPUs   []int
	pinned    bool // both sides actually pinned
}

// planCPUs reads the CPUs this process may run on and refuses machines with
// fewer than two: the generator must never share a core with the server.
func planCPUs() (cpuPlan, error) {
	allowed, err := allowedCPUs()
	if err != nil {
		// No affinity support: fall back to the logical CPU count, unpinned.
		n := runtime.NumCPU()
		if n < 2 {
			return cpuPlan{}, fmt.Errorf("benchmark: needs at least 2 CPUs, have %d", n)
		}
		return cpuPlan{serverCPU: -1}, nil
	}
	if len(allowed) < 2 {
		return cpuPlan{}, fmt.Errorf("benchmark: needs at least 2 CPUs, may run on %d", len(allowed))
	}
	p := cpuPlan{allowed: allowed, serverCPU: allowed[0], genCPUs: allowed[1:]}
	_, tsErr := exec.LookPath("taskset")
	p.pinned = tsErr == nil && pinSelf(p.genCPUs) == nil
	if !p.pinned {
		p.serverCPU = -1
	}
	if runtime.GOMAXPROCS(0) > len(allowed) {
		runtime.GOMAXPROCS(len(allowed))
	}
	return p, nil
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proxyProc is one running botproxy.
type proxyProc struct {
	cmd    *exec.Cmd
	addr   string
	admin  string
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
}

// startProxy launches botproxy on fresh ports with GOMAXPROCS=1, pinned to
// plan.serverCPU when pinning is available. extra are additional flags.
func startProxy(bin string, plan cpuPlan, extra ...string) (*proxyProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-admin-addr", admin}, extra...)
	name := bin
	if plan.serverCPU >= 0 {
		args = append([]string{"-c", strconv.Itoa(plan.serverCPU), bin}, args...)
		name = "taskset"
	}
	p := &proxyProc{cmd: exec.Command(name, args...), addr: addr, admin: admin, exited: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start botproxy: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // botproxy never exits cleanly; stop kills it
		close(p.exited)
	}()
	return p, nil
}

// stop kills the server and waits until it has exited.
func (p *proxyProc) stop() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.exited
}

func (p *proxyProc) pid() int { return p.cmd.Process.Pid }

// waitReady polls until probe succeeds against the freshly started server or
// the deadline passes; a server that exits early is reported with its log.
func (p *proxyProc) waitReady(probe func() error) error {
	deadline := time.Now().Add(20 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if last = probe(); last == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("botproxy exited during start-up: %v\n%s", last, p.stderr.String())
		case <-time.After(500 * time.Microsecond): // set-up is ~20 ms: poll finely enough not to quantise it
		}
	}
	return fmt.Errorf("botproxy not ready: %v\n%s", last, p.stderr.String())
}

// cpuSeconds returns the user+system CPU time the process has consumed. It
// prefers the scheduler's nanosecond accounting (summed over threads) and
// falls back to the 10 ms clock ticks of /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	okAll := len(tasks) > 0
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			okAll = false
			break
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			okAll = false
			break
		}
		ns += v
	}
	if okAll && ns > 0 {
		return float64(ns) / 1e9, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat layout", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat layout", pid)
	}
	return float64(ut+st) / 100, nil
}

// selfCPUSeconds is the CPU time this process has consumed.
func selfCPUSeconds() float64 {
	s, _ := cpuSeconds(os.Getpid()) // /proc/self cannot vanish; 0 on a system without /proc
	return s
}

// peakRSSMB returns the process's VmHWM in MB (10^6 bytes).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return 0, err
				}
				return kb * 1024 / 1e6, nil
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found for pid %d", pid)
}

// resetPeakRSS returns freed heap to the system and resets this process's
// peak-RSS mark, so that a later peakRSSMB(os.Getpid()) covers only what ran
// in between and not whatever the process did before.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	// Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// envInfo is the machine description printed with every result.
type envInfo struct {
	Cores         int    `json:"cores"`
	ServerCPU     int    `json:"server_cpu"`
	Pinned        bool   `json:"pinned"`
	GenGOMAXPROCS int    `json:"generator_gomaxprocs"`
	SrvGOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Kernel        string `json:"kernel"`
	Seed          uint64 `json:"seed"`
	Seconds       int    `json:"seconds"`
	// Rates are the frozen open-loop arrival rates per second, lo/mid/hi.
	Rates map[string][3]float64 `json:"open_loop_rates"`
}

func describeEnv(root string, plan cpuPlan, seed uint64, seconds int) envInfo {
	e := envInfo{
		Cores:         len(plan.allowed),
		ServerCPU:     plan.serverCPU,
		Pinned:        plan.pinned,
		GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		SrvGOMAXPROCS: 1,
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
		Kernel:        "unknown",
		Seed:          seed,
		Seconds:       seconds,
		Rates: map[string][3]float64{
			"browse_hot":     {browseRates.lo, browseRates.mid, browseRates.hi},
			"churn_cold":     {churnRates.lo, churnRates.mid, churnRates.hi},
			"bigpage_origin": {bigRates.lo, bigRates.mid, bigRates.hi},
		},
	}
	if e.Cores == 0 {
		e.Cores = runtime.NumCPU()
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}
