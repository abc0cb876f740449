package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// numShards is the tier's width: two shards and one router fill the host's
// two cores, and the router's merge has something to merge.
const numShards = 2

// healthyWithin is how long a booted process gets to answer /healthz ok.
const healthyWithin = 15 * time.Second

// buildBinaries compiles cmd/serve and cmd/router as shipped into dir, which
// exists.
func buildBinaries(ctx context.Context, dir string) error {
	cmd := osexec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"accelscore/cmd/serve", "accelscore/cmd/router")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the tier: %w\n%s", err, out)
	}
	return nil
}

// proc is one tier process. It runs in its own process group so that stop
// reaches anything it may have forked.
type proc struct {
	name    string
	url     string
	cmd     *osexec.Cmd
	logPath string
	exited  chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc launches bin with args plus an -addr on a free loopback port,
// sending its output to logPath.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := osexec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop ends the process group: SIGTERM for a clean shutdown (the shard
// drains its executor and closes its store), SIGKILL if that takes too long.
func (p *proc) stop() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.exited
	}
}

// logTail returns the last lines of the process's log for an error message.
func (p *proc) logTail() string {
	buf, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// waitHealthy polls /healthz until it answers 200 with status "ok", and
// fails fast with the log tail if the process dies or the deadline passes.
func (p *proc) waitHealthy(ctx context.Context, client *http.Client) error {
	deadline := time.After(healthyWithin)
	for {
		if resp, err := client.Get(p.url + "/healthz"); err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && h.Status == "ok" {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before /healthz was ok; log tail:\n%s", p.name, p.logTail())
		case <-deadline:
			return fmt.Errorf("%s /healthz not ok within %v; log tail:\n%s", p.name, healthyWithin, p.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stat reads the process's CPU time and resident set from /proc.
func (p *proc) stat() (procStat, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(buf))
}

// scrape reads the process's /metrics page.
func (p *proc) scrape(client *http.Client) (promSeries, error) {
	resp, err := client.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: HTTP %d", p.name, resp.StatusCode)
	}
	return parseProm(string(body))
}

// fleet is the tier under test: shards over copies of one seeded directory,
// and a router in front of them.
type fleet struct {
	shards []*proc
	router *proc
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.shards
	}
	return append(append([]*proc(nil), f.shards...), f.router)
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// bootFleet copies seedDir once per shard under runDir and starts the tier
// with default flags, each process logging to logPrefix<name>.log. No -pace-scale: every figure is on the host clock.
// The router warms every model on every shard before it listens, so the
// fleet is ready once the router's /healthz reports all shards healthy.
func bootFleet(ctx context.Context, client *http.Client, binDir, seedDir, runDir, logPrefix string) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	var urls []string
	for k := 0; k < numShards; k++ {
		dataDir := filepath.Join(runDir, fmt.Sprintf("shard%d", k))
		if err := copyDir(seedDir, dataDir); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard%d", k)
		p, err := startProc(name, filepath.Join(binDir, "serve"), logPrefix+name+".log",
			"-data-dir", dataDir, "-fsync", "batch", "-shard-id", fmt.Sprintf("shard-%d", k))
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, p)
		urls = append(urls, p.url)
	}
	for _, p := range f.shards {
		if err := p.waitHealthy(ctx, client); err != nil {
			return nil, err
		}
	}
	var err error
	f.router, err = startProc("router", filepath.Join(binDir, "router"), logPrefix+"router.log",
		"-shards", strings.Join(urls, ","), "-warm", strings.Join(models, ","))
	if err != nil {
		return nil, err
	}
	if err := f.router.waitHealthy(ctx, client); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// copyDir copies the regular files of src into dst, replacing dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
