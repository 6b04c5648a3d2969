package main

// The server child: the benchmark re-executes itself as
// "perfbench child <spec.json>" to run idled's server in its own
// process (server.New, Listen, Serve), so the server's CPU and memory
// can be read from /proc/<pid> apart from the load generator's.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/server"
)

// childSpec is what the parent writes for the child to load.
type childSpec struct {
	// AreasFile is an idled -areas file; when empty the child measures
	// the three paper areas at paperB itself.
	AreasFile string `json:"areas_file,omitempty"`
	// AuditLog and TraceLog turn the forensics sinks on.
	AuditLog string `json:"audit_log,omitempty"`
	TraceLog string `json:"trace_log,omitempty"`
}

// The sinks are wired as `idled serve` wires them: each is a bare
// obs.RotatingFile handed to the server, so every record is its own
// write. The trace log rotates at idled's default 64 MB
// (-audit-max-bytes). The audit log is opened with a limit it never
// reaches, since the output check replays all of it.
const (
	traceRotateBytes = 64 << 20
	auditRotateBytes = 1 << 50
)

// retuneConfig spells out the serving retune defaults so the
// benchmark's retune model and the server agree by construction.
var retuneConfig = server.RetuneConfig{
	Forgetting: 0.98, MinObservations: 50, DriftThreshold: 10, DriftSlack: 0.5, DriftWarmup: 50,
}

// childMain runs the server until SIGTERM, printing the bound address
// as its first stdout line.
func childMain(specPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	var areas []server.AreaState
	if spec.AreasFile != "" {
		f, err := os.Open(spec.AreasFile)
		if err != nil {
			return err
		}
		areas, err = server.ReadAreaStates(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return err
		}
	} else if areas, err = paperAreaStates(paperB); err != nil {
		return err
	}
	cfg := server.Config{Addr: "127.0.0.1:0", Areas: areas, Retune: retuneConfig}
	var sinks []*obs.RotatingFile
	if spec.AuditLog != "" {
		f, err := obs.OpenRotatingFile(spec.AuditLog, auditRotateBytes)
		if err != nil {
			return err
		}
		sinks = append(sinks, f)
		cfg.AuditLog = f
	}
	if spec.TraceLog != "" {
		f, err := obs.OpenRotatingFile(spec.TraceLog, traceRotateBytes)
		if err != nil {
			return err
		}
		sinks = append(sinks, f)
		cfg.TraceLog = f
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	addr, err := srv.Listen()
	if err != nil {
		return err
	}
	fmt.Println(addr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := srv.Serve(ctx)
	for _, f := range sinks {
		if err := f.Close(); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	return serveErr
}

// child is a running server child.
type child struct {
	cmd  *exec.Cmd
	addr string
	// setup is the time from process start to the first /healthz 200.
	setup time.Duration
}

// startChild writes spec, starts the child with one P (pinned to
// serverCPU when pin is set), and waits for its first /healthz 200.
func startChild(exe, dir, name string, spec childSpec, pin bool) (*child, error) {
	specPath := filepath.Join(dir, name+".spec.json")
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, b, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", specPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	// The kernel kills the child if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	if pin {
		if err := pinProcess(cmd.Process.Pid, serverCPU); err != nil {
			c.kill()
			return nil, err
		}
	}
	line := make(chan string, 1)
	go func() {
		s, _ := bufio.NewReader(out).ReadString('\n')
		line <- strings.TrimSpace(s)
	}()
	select {
	case c.addr = <-line:
	case <-time.After(120 * time.Second):
	}
	if c.addr == "" {
		c.kill()
		return nil, fmt.Errorf("child %s: no listen address", name)
	}
	r, err := get(c.addr, "/healthz")
	if err != nil || r.status != 200 {
		c.kill()
		return nil, fmt.Errorf("child %s: healthz: status %d: %v", name, r.status, err)
	}
	c.setup = time.Since(t0)
	return c, nil
}

// stop drains the child with SIGTERM and waits for it to exit; a child
// still running after 60 s is killed.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("child did not drain within 60s")
	}
}

// kill stops the child at once and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}
