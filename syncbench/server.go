package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running syncd child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once
}

// startServer execs syncd with default flags and a free loopback port,
// and returns once /healthz first answers 200. The returned duration
// runs from exec to that first 200.
func startServer(ctx context.Context, bin string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// syncd must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting syncd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		s.done <- cmd.Wait()
	}()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	select {
	case s.base = <-addr:
	case err := <-s.done:
		return nil, 0, fmt.Errorf("syncd exited before listening: %v", err)
	case <-ctx.Done():
		s.stop()
		return nil, 0, fmt.Errorf("syncd did not announce its address: %w", ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-ctx.Done():
			s.stop()
			return nil, 0, fmt.Errorf("syncd never answered /healthz: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// a grace period), and reaps it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuTime returns the process's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s on Linux).
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the process's resident-set high-water mark (VmHWM)
// in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
