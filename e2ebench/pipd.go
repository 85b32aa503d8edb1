package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pip/internal/server"
)

// pipdSeed is pipd's world seed. It stays fixed: the workload seed only
// changes the generated SQL pipd receives.
const pipdSeed = 1

// pipdSnapshotEvery is pipd's default -snapshot-every, which the traced
// run's in-process store copies.
const pipdSnapshotEvery = 4096

// pipdProc is one running pipd process on loopback.
type pipdProc struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	exited    chan struct{}
	waitErr   error
}

// pipdFlags are the flags every pipd of the benchmark runs with, besides
// its addresses and data directory. -fsync is pipd's default, spelled out
// so the flush policy is recorded; -quiet keeps request logging off the
// measured path.
var pipdFlags = []string{"-seed", strconv.Itoa(pipdSeed), "-fsync=true", "-quiet"}

// startPipd execs pipd on a free loopback port with dataDir as its
// -data-dir and waits until /healthz answers.
func startPipd(ctx context.Context, bin, dataDir string) (*pipdProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-debug-addr", debugAddr, "-data-dir", dataDir}, pipdFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// Take pipd down with the benchmark if the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pipd: %w", err)
	}
	p := &pipdProc{cmd: cmd, addr: addr, debugAddr: debugAddr, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitHealthy(ctx); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// freeAddr reserves an ephemeral loopback port and releases it for pipd.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve a loopback port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (p *pipdProc) waitHealthy(ctx context.Context) error {
	c := server.NewClient(p.addr)
	deadline := time.Now().Add(60 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Healthz(hctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("pipd exited before becoming healthy: %v", p.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pipd not healthy after 60s: %w", err)
		}
	}
}

// pid returns the process id.
func (p *pipdProc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL (a crash: nothing is flushed on the way out) and
// waits for the process to end.
func (p *pipdProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
}

// stop asks pipd to shut down gracefully, killing it if it has not exited
// within its drain bound, and waits for it to end.
func (p *pipdProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		var ee *exec.ExitError
		if p.waitErr != nil && !errors.As(p.waitErr, &ee) {
			return p.waitErr
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("pipd ignored SIGTERM for 20s; killed")
	}
}

// counters is one scrape of pipd's outside counters.
type counters struct {
	// cpuTicks is utime+stime from /proc/<pid>/stat, in clock ticks.
	cpuTicks int64
	// hwmKB is VmHWM from /proc/<pid>/status.
	hwmKB int64
	// engine is SHOW STATS' engine scope.
	engine map[string]float64
	// metrics holds /metrics samples by their full name (labels included).
	metrics map[string]float64
	// totalAlloc and numGC come from the runtime.MemStats block of
	// /debug/pprof/heap?debug=1.
	totalAlloc, numGC float64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

func (p *pipdProc) scrape(ctx context.Context, cs *server.ClientSession) (*counters, error) {
	c := &counters{}
	var err error
	if c.cpuTicks, err = procCPU(p.pid()); err != nil {
		return nil, err
	}
	if c.hwmKB, err = procHWM(p.pid()); err != nil {
		return nil, err
	}
	if c.engine, err = showStats(ctx, cs); err != nil {
		return nil, err
	}
	body, err := httpGet(ctx, "http://"+p.addr+"/metrics")
	if err != nil {
		return nil, err
	}
	c.metrics = parseProm(body)
	body, err = httpGet(ctx, "http://"+p.debugAddr+"/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	ms := parseMemStats(body)
	c.totalAlloc, c.numGC = ms["TotalAlloc"], ms["NumGC"]
	return c, nil
}

func procCPU(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	return ut + st, nil
}

func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func showStats(ctx context.Context, cs *server.ClientSession) (map[string]float64, error) {
	rows, err := cs.Query(ctx, "SHOW STATS")
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := map[string]float64{}
	for rows.Next() {
		r := rows.Row()
		if len(r) != 3 || r[0].S != "engine" {
			continue
		}
		v, err := floatOf(r[2])
		if err != nil {
			return nil, err
		}
		out[r[1].S] = v
	}
	return out, rows.Err()
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// parseProm reads Prometheus text-format samples into name -> value.
func parseProm(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// parseMemStats reads the "# Name = value" lines of a debug=1 heap profile.
func parseMemStats(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
