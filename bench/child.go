package main

import (
	"bytes"
	"context"
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
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build" // binaries; shared with the build cache run.sh pins
	outDir   = "bench/out"    // server.log, trace.jsonl

	readyTimeout = 30 * time.Second
	// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
	// Linux fixes it at 100 for user space on every architecture.
	clockTick = 10 * time.Millisecond
)

// buildServer compiles cmd/demoserver from the checkout the benchmark
// runs in and returns the binary's path. With a warm build cache this is
// a stat pass.
func buildServer(ctx context.Context) (string, error) {
	if _, err := os.Stat("cmd/demoserver"); err != nil {
		return "", fmt.Errorf("bench must run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "demoserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/demoserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/demoserver: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running demoserver.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	log    *os.File
	exited chan struct{} // closed once Wait returned
	cn     *conn         // for everything outside the measured loop
}

// startChild launches the server with only the flags that name where it
// listens and what it must not write; everything else stays at its
// default, so the numbers describe what ships.
func startChild(ctx context.Context, bin string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(outDir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-seed", "2022", "-ratings", "", "-ingest")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{
		cmd:    cmd,
		base:   "http://" + addr,
		log:    logf,
		exited: make(chan struct{}),
		cn:     newConn("http://" + addr),
	}
	go func() {
		_ = cmd.Wait() // a killed child always "fails"; stop() is the owner
		close(c.exited)
	}()
	return c, nil
}

// stop kills the server and waits until it has gone.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	c.cn.close()
	c.log.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// waitReady polls GET /api/cities until it answers 200 and returns the
// city list.
func (c *child) waitReady(ctx context.Context) ([]city, error) {
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-c.exited:
			return nil, errors.New("server exited before becoming ready (see bench/out/server.log)")
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		if status, body, err := c.do(ctx, request{Method: "GET", Path: "/api/cities"}); err == nil && status == http.StatusOK {
			var cities []city
			if err := json.Unmarshal(body, &cities); err != nil {
				return nil, fmt.Errorf("decoding /api/cities: %w", err)
			}
			return cities, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready after %s", readyTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// launch starts a server and times set-up as a user of the demo meets
// it: exec, until /api/cities answers, until every city has answered one
// /api/routes request.
func launch(ctx context.Context, bin string) (c *child, cities []city, setup time.Duration, err error) {
	start := time.Now()
	c, err = startChild(ctx, bin)
	if err != nil {
		return nil, nil, 0, err
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	cities, err = c.waitReady(ctx)
	if err != nil {
		return nil, nil, 0, err
	}
	for ci := range cities {
		status, body, err := c.do(ctx, probeRequest(cities, ci))
		if err != nil {
			return nil, nil, 0, err
		}
		if status != http.StatusOK {
			return nil, nil, 0, fmt.Errorf("set-up probe %s: status %d: %s", cities[ci].Name, status, body)
		}
	}
	return c, cities, time.Since(start), nil
}

// do sends one request outside the measured loop. The body is valid
// until the next call.
func (c *child) do(ctx context.Context, r request) (int, []byte, error) {
	return c.cn.do(ctx, r)
}

// cpuTime returns the CPU time (user + system) the server has consumed.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	return time.Duration(ticks) * clockTick, err
}

// rssPeakMiB returns the server's peak resident set size.
func (c *child) rssPeakMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusHWM(data)
	return float64(kb) / 1024, err
}

// parseStatCPU extracts utime+stime (clock ticks) from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusHWM extracts VmHWM (kB) from the contents of
// /proc/<pid>/status.
func parseStatusHWM(data []byte) (uint64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// hostSteal returns the cumulative steal and total CPU ticks of the
// machine: time the hypervisor ran someone else while this guest wanted
// the CPU. A window with steal in it measures the neighbours.
func hostSteal() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostSteal(data)
}

// parseHostSteal reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice].
func parseHostSteal(data []byte) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("proc stat: no aggregate cpu line with a steal column")
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu line: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
