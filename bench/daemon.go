package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// moduleRoot walks up from the working directory to the repro module's
// go.mod: `go run ./bench` starts at the root, `go test` inside bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// fleet owns every daemon process of a run, so that any exit path —
// return, error, panic or signal — kills and reaps all of them.
type fleet struct {
	bin    string // the built monestd
	outDir string // bench/out: logs, traces, data dirs

	mu      sync.Mutex
	daemons []*daemon
}

// buildDaemon compiles cmd/monestd from the checkout into bench/out/bin.
// go build is its own staleness check: an up-to-date binary is left alone.
func buildDaemon(root string) (*fleet, time.Duration, error) {
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(filepath.Join(out, "bin"), 0o755); err != nil {
		return nil, 0, err
	}
	bin := filepath.Join(out, "bin", "monestd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/monestd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building cmd/monestd: %v\n%s", err, b)
	}
	return &fleet{bin: bin, outDir: out}, time.Since(start), nil
}

// daemon is one running monestd.
type daemon struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process is reaped
}

// baseArgs are the shared engine parameters every daemon runs with.
func baseArgs() []string {
	return []string{
		"-instances", fmt.Sprint(instances), "-k", fmt.Sprint(sketchK),
		"-shards", fmt.Sprint(shardCount), "-salt", fmt.Sprint(seedSalt),
	}
}

// start boots a daemon on a fresh loopback port with its stderr appended
// to bench/out/<name>.log, and waits for /readyz. A daemon that exits
// early or never answers 200 fails the run.
func (f *fleet) start(name string, extra ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(f.outDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, append(append([]string{"-addr", addr}, baseArgs()...), extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is not news
		close(d.done)
	}()
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	if err := d.waitReady(20 * time.Second); err != nil {
		f.kill(d)
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready (see bench/out/%s.log)", d.name, d.name)
		default:
		}
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = resp.Status
		} else {
			last = err.Error()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v: %s", d.name, timeout, last)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs a daemon, waits until it is reaped and drops it from the
// fleet (a daemon the workload kills on purpose must not fail the
// liveness check).
func (f *fleet) kill(d *daemon) {
	f.mu.Lock()
	for i, x := range f.daemons {
		if x == d {
			f.daemons = append(f.daemons[:i], f.daemons[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	_ = d.cmd.Process.Kill() // SIGKILL; "already exited" is fine
	<-d.done
	d.log.Close()
}

// killAll ends every daemon still running; every exit path of a run goes
// through it.
func (f *fleet) killAll() {
	f.mu.Lock()
	ds := append([]*daemon(nil), f.daemons...)
	f.mu.Unlock()
	for _, d := range ds {
		f.kill(d)
	}
}

// checkAlive fails when any daemon died while the run still needed it.
func (f *fleet) checkAlive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.daemons {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during the run (see bench/out/%s.log)", d.name, d.name)
		default:
		}
	}
	return nil
}

// usage is one reading of a daemon's resource counters from /proc.
type usage struct {
	cpu        time.Duration // utime + stime
	hwmBytes   int64         // VmHWM: peak resident set
	writeBytes int64         // /proc/<pid>/io write_bytes: bytes sent to storage
}

func (d *daemon) usage() (usage, error) { return readUsage(d.pid()) }

// sumUsage adds up the daemons' counters (a cluster is four processes).
func sumUsage(ds []*daemon) (usage, error) {
	var tot usage
	for _, d := range ds {
		u, err := d.usage()
		if err != nil {
			return tot, fmt.Errorf("%s: %w", d.name, err)
		}
		tot.cpu += u.cpu
		tot.hwmBytes += u.hwmBytes
		tot.writeBytes += u.writeBytes
	}
	return tot, nil
}
