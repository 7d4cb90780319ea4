package main

// The parent's handle on the server process.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// serverProc is a running child with the cluster inside it.
type serverProc struct {
	Hello  serverHello
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	walDir string
	waited chan struct{} // closed when the child has been reaped
	err    error         // the child's exit error, valid once waited is closed
}

// live holds every child not yet stopped, so a signal can kill them.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

// killChildrenOnSignal makes SIGINT and SIGTERM take the children (and
// their temporary directories) down with the parent.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		live.Lock()
		for p := range live.procs {
			p.kill()
			os.RemoveAll(p.walDir)
		}
		live.Unlock()
		fmt.Fprintf(os.Stderr, "benchmark: %v, children killed\n", sig)
		os.Exit(2)
	}()
}

// startServers re-executes this binary as the server process for the
// given topology, in a process group of its own, with its write-ahead
// logs in a fresh directory under tmpRoot.
func startServers(topology, tmpRoot string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role=servers", "-topology="+topology, "-waldir="+walDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), walDir: walDir, waited: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	if err := p.readReply(&p.Hello); err != nil {
		p.stop()
		return nil, fmt.Errorf("server process did not start: %w", err)
	}
	return p, nil
}

func (p *serverProc) readReply(into any) error {
	line, err := p.stdout.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("server process died: %w", err)
	}
	return json.Unmarshal(line, into)
}

func (p *serverProc) request(req string, into any) error {
	if _, err := io.WriteString(p.stdin, req+"\n"); err != nil {
		return fmt.Errorf("server process died: %w", err)
	}
	return p.readReply(into)
}

func (p *serverProc) stats() (serverStats, error) {
	var st serverStats
	err := p.request("stats", &st)
	return st, err
}

func (p *serverProc) digests() (serverDigests, error) {
	var d serverDigests
	err := p.request("digests", &d)
	return d, err
}

func (p *serverProc) kill() {
	// The child leads its own group, so this reaches anything it started.
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
}

// stop closes the child's stdin, which makes it shut the cluster down
// and exit; a child that has not exited after five seconds is killed.
// It returns once the child has been reaped and its logs removed.
func (p *serverProc) stop() error {
	p.stdin.Close()
	go func() {
		// Wait closes the stdout pipe; nothing reads it after stop.
		p.err = p.cmd.Wait()
		close(p.waited)
	}()
	select {
	case <-p.waited:
	case <-time.After(5 * time.Second):
		p.kill()
		<-p.waited
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	if err := os.RemoveAll(p.walDir); err != nil {
		return err
	}
	return p.err
}
