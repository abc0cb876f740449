package harness

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"accelscore/internal/router"
)

// sharedTransport is the one tuned http.Transport every harness HTTP client
// shares. Go's default transport keeps only 2 idle connections per host, so
// a closed-loop load with N workers re-handshakes TCP on nearly every
// request and the harness ends up benchmarking the kernel's connect path
// instead of the server. The pool is sized above any worker population the
// harness runs, and sharing one transport across a mode's phases reuses warm
// connections between them.
var sharedTransport = router.SharedTransport(64)

// Client returns an HTTP client over the shared transport; only the timeout
// varies per use.
func Client(timeout time.Duration) *http.Client {
	return &http.Client{Transport: sharedTransport, Timeout: timeout}
}

// ServeBinary returns a cmd/serve binary: prebuilt when given (CI builds one
// with -race and passes it in), otherwise built once into a temp dir that
// cleanup removes.
func ServeBinary(prebuilt string) (bin string, cleanup func(), err error) {
	if prebuilt != "" {
		return prebuilt, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", "accelscore-serve-*")
	if err != nil {
		return "", nil, err
	}
	bin = filepath.Join(tmp, "serve")
	log.Printf("building serve binary")
	if out, err := osexec.Command("go", "build", "-o", bin, "accelscore/cmd/serve").CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		return "", nil, fmt.Errorf("building serve: %w\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(tmp) }, nil
}

const (
	readyWithin = 60 * time.Second
	readyPoll   = 25 * time.Millisecond
	stderrTail  = 2048
)

// Proc is one server process under harness control.
type Proc struct {
	URL    string
	cmd    *osexec.Cmd
	stderr tail
	exited chan struct{} // closed once the process has been reaped
}

// tail keeps the last stderrTail bytes written to it.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - stderrTail; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// Start launches bin with -addr on a free loopback port plus args and
// returns once /healthz answers 200. A child that exits first — a bad flag,
// or the port taken between picking it and the child's bind — is reported
// within one poll interval, with the tail of its stderr.
func Start(bin string, args ...string) (*Proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	p := &Proc{URL: "http://" + addr, exited: make(chan struct{})}
	p.cmd = osexec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child is not news
		close(p.exited)
	}()

	client := Client(2 * time.Second)
	deadline := time.After(readyWithin)
	for {
		if resp, err := client.Get(p.URL + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s on %s exited before /healthz was ok (%v); stderr tail:\n%s",
				filepath.Base(bin), addr, p.cmd.ProcessState, &p.stderr)
		case <-deadline:
			p.Kill()
			return nil, fmt.Errorf("%s on %s not healthy within %v; stderr tail:\n%s",
				filepath.Base(bin), addr, readyWithin, &p.stderr)
		case <-time.After(readyPoll):
		}
	}
}

// Kill delivers SIGKILL — a crash, not a graceful shutdown — and returns
// once the process has been reaped.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// Stop freezes the process with SIGSTOP: its connections stay open and
// nothing answers, which is what a stalled replica looks like.
func (p *Proc) Stop() { _ = p.cmd.Process.Signal(syscall.SIGSTOP) }

// Cont thaws a stopped process.
func (p *Proc) Cont() { _ = p.cmd.Process.Signal(syscall.SIGCONT) }

// Fleet is a set of serve shards and the router backends that reach them,
// both indexed by shard number.
type Fleet struct {
	Procs    []*Proc
	Backends []router.Backend
}

// StartShards boots n serve shards over a records-row demo table. -workers 1
// plus -pace-scale paceOf(k) makes shard k serve like a single simulated
// device at that multiple of its simulated time; attribution and runtime
// sampling are off so the measurement is the scoring path itself.
func StartShards(bin string, n, records int, paceOf func(k int) float64) (*Fleet, error) {
	f := &Fleet{}
	client := Client(120 * time.Second)
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("shard-%d", k)
		p, err := Start(bin,
			"-shard-id", name,
			"-demo-records", fmt.Sprint(records),
			"-workers", "1",
			"-pace-scale", fmt.Sprint(paceOf(k)),
			"-attrib=false",
			"-runtime-sample", "0")
		if err != nil {
			f.Kill()
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		f.Procs = append(f.Procs, p)
		shard, err := router.NewHTTPShard(name, p.URL, client)
		if err != nil {
			f.Kill()
			return nil, err
		}
		f.Backends = append(f.Backends, shard)
	}
	return f, nil
}

// Kill kills every shard (killing one twice is harmless).
func (f *Fleet) Kill() {
	for _, p := range f.Procs {
		p.Kill()
	}
}
