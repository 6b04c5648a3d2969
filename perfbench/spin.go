package main

// The idle spinners: the benchmark re-executes itself as
// "perfbench spin", a process with one thread per CPU, each at the
// SCHED_IDLE policy and spinning. A SCHED_IDLE thread runs only when
// nothing else is runnable on its CPU and is preempted as soon as
// something is, so it takes no CPU from the server or the generator.
// What it changes is that a CPU never goes idle between two requests:
// in a virtual machine an idle CPU halts, and waking it again waits on
// the host's scheduler, so without the spinners every request pays a
// halt and a host wake-up that belong to the machine, not to idled
// (see README.md, Process layout).

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// spinMain starts one SCHED_IDLE spinning thread per CPU and returns
// when its standard input closes.
func spinMain() error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			if err := setAffinity(0, i); err != nil {
				ready <- err
				return
			}
			param := struct{ priority int32 }{}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
				return
			}
			if p, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, 0, 0, 0); errno != 0 || p != schedIdle {
				ready <- fmt.Errorf("sched_getscheduler: policy %d: %v", p, errno)
				return
			}
			ready <- nil
			for x := uint64(1); ; x = x*6364136223846793005 + 1442695040888963407 {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Println("spinning")
	io.Copy(io.Discard, os.Stdin)
	return nil
}

// spinner is a running spinner process.
type spinner struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// startSpinner starts the spinner process and waits until every
// spinning thread runs at SCHED_IDLE. The kernel kills it if the
// benchmark dies first.
func startSpinner(exe string) (*spinner, error) {
	cmd := exec.Command(exe, "spin")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &spinner{cmd: cmd, stdin: in}
	buf := make([]byte, len("spinning\n"))
	if _, err := io.ReadFull(out, buf); err != nil || string(buf) != "spinning\n" {
		s.stop()
		return nil, fmt.Errorf("spinner did not start: %v", err)
	}
	return s, nil
}

// stop ends the spinner and waits for it.
func (s *spinner) stop() {
	s.stdin.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// setAffinity restricts thread tid (0: the calling thread) to one CPU.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
	}
	return nil
}

// pinProcess restricts every thread of process pid to one CPU. A new
// thread inherits the mask of the thread that creates it, so the
// process stays pinned once a pass over its threads finds none left
// to pin.
func pinProcess(pid, cpu int) error {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	pinned := map[string]bool{}
	for {
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			if pinned[t.Name()] {
				continue
			}
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return fmt.Errorf("%s: %q", dir, t.Name())
			}
			// A thread that exited since the listing is gone: ESRCH.
			if err := setAffinity(tid, cpu); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			pinned[t.Name()] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
