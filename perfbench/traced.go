package main

import (
	"bufio"
	"encoding/json"
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

	"repro/internal/obs"
	"repro/internal/rtrace"
)

// readyTimeout bounds how long a started server may take to answer
// GET /readyz with 200.
const readyTimeout = 2 * time.Minute

// tracedProc is one running cmd/traced process.
type tracedProc struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startTraced starts cmd/traced serving the model file and waits until
// GET /readyz answers 200. Every flag other than the model, the
// address and the trace buffer stays at its default.
func startTraced(bin, modelPath, logPath string, traceBuffer int) (*tracedProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-model", modelPath, "-addr", addr, "-trace-buffer", strconv.Itoa(traceBuffer))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start traced: %w", err)
	}
	p := &tracedProc{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitReady(); err != nil {
		p.stop()
		return nil, fmt.Errorf("%w; log tail:\n%s", err, tailFile(logPath, 20))
	}
	return p, nil
}

func (p *tracedProc) waitReady() error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("traced exited before ready: %v", p.err)
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			drain(resp.Body)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("traced not ready within " + readyTimeout.String())
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (p *tracedProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.logf.Close()
}

// peakRSSMB is the server's VmHWM (peak resident set) in MiB.
func (p *tracedProc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// vmHWM reads the VmHWM line of a /proc status file, in MiB.
func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Metrics obs.Snapshot    `json:"metrics"`
	Mem     obs.MemSnapshot `json:"mem"`
}

func (p *tracedProc) getJSON(path string, v any) error {
	resp, err := http.Get(p.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (p *tracedProc) metrics() (serverMetrics, error) {
	var m serverMetrics
	err := p.getJSON("/metrics", &m)
	return m, err
}

// traces returns every finished request trace the server still holds.
func (p *tracedProc) traces() ([]rtrace.Finished, error) {
	var doc struct {
		Enabled bool              `json:"enabled"`
		Traces  []rtrace.Finished `json:"traces"`
	}
	if err := p.getJSON("/debug/traces", &doc); err != nil {
		return nil, err
	}
	if !doc.Enabled {
		return nil, errors.New("request tracing is off")
	}
	return doc.Traces, nil
}

// drain discards a response body so the connection can be reused.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r)
	r.Close()
}

// tailFile returns the last n lines of a file, for error reports.
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
