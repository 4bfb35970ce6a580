package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/h2cloud/h2cloud/internal/httpapi"
)

// TestEndToEnd builds the real binaries, boots an H2Cloud daemon with
// persistent storage, drives it through the CLI, restarts it, and checks
// the filesystem survived — the full production path in one test.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	daemon := filepath.Join(bin, "h2cloudd")
	cli := filepath.Join(bin, "h2cli")
	for target, out := range map[string]string{
		".":        daemon,
		"../h2cli": cli,
	} {
		cmd := exec.Command("go", "build", "-o", out, target)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", target, err, b)
		}
	}

	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	server := "http://" + addr
	dataDir := filepath.Join(t.TempDir(), "data")

	startDaemon := func() *exec.Cmd {
		cmd := exec.Command(daemon,
			"-addr", addr, "-accounts", "e2e", "-datadir", dataDir,
			"-maintenance", "100ms", "-middlewares", "2")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitReady(t, server+"/v1/accounts/e2e")
		return cmd
	}
	stopDaemon := func(cmd *exec.Cmd) {
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}

	run := func(args ...string) string {
		t.Helper()
		full := append([]string{"-server", server, "-account", "e2e"}, args...)
		out, err := exec.Command(cli, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("h2cli %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	proc := startDaemon()
	defer func() { stopDaemon(proc) }() // proc is rebound on restart

	// Drive a session through the CLI.
	run("mkdir", "/docs")
	local := filepath.Join(t.TempDir(), "up.txt")
	if err := os.WriteFile(local, []byte("end to end"), 0o644); err != nil {
		t.Fatal(err)
	}
	run("put", "/docs/up.txt", local)
	if out := run("ls", "/docs"); !strings.Contains(out, "up.txt") {
		t.Fatalf("ls = %q", out)
	}
	if out := run("get", "/docs/up.txt"); out != "end to end" {
		t.Fatalf("get = %q", out)
	}
	run("mv", "/docs/up.txt", "/docs/renamed.txt")
	if out := run("stat", "/docs/renamed.txt"); !strings.Contains(out, "size: 10") {
		t.Fatalf("stat = %q", out)
	}
	run("cp", "/docs/renamed.txt", "/docs/copy.txt")
	if out := run("ls", "/docs", "-l"); !strings.Contains(out, "copy.txt") {
		t.Fatalf("ls -l = %q", out)
	}
	// Mirror a small local tree with sync-up.
	srcDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(srcDir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "top.txt"), []byte("t"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "sub", "deep.txt"), []byte("d"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := run("sync-up", "/mirror", srcDir); !strings.Contains(out, "uploaded 2 files") {
		t.Fatalf("sync-up = %q", out)
	}
	if out := run("get", "/mirror/sub/deep.txt"); out != "d" {
		t.Fatalf("synced get = %q", out)
	}

	// /v1/stats round-robins over the middlewares: each reports the
	// storage cloud's block beside its own counters.
	stats := httpapi.NewClient(server, http.DefaultClient)
	for range 2 {
		st, err := stats.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cluster == nil || st.Cluster.Objects == 0 {
			t.Fatalf("/v1/stats from node %d has no cluster block: %+v", st.Node, st)
		}
	}

	// Let the maintenance loop flush NameRing patches to disk.
	time.Sleep(400 * time.Millisecond)

	// Restart on the same data directory: everything must survive.
	stopDaemon(proc)
	proc = startDaemon()
	if out := run("get", "/docs/renamed.txt"); out != "end to end" {
		t.Fatalf("get after restart = %q", out)
	}
	if out := run("ls", "/docs"); !strings.Contains(out, "copy.txt") {
		t.Fatalf("ls after restart = %q", out)
	}
	run("rmdir", "/docs")
	if out := run("ls", "/"); strings.Contains(out, "docs") {
		t.Fatalf("rmdir did not remove: %q", out)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitReady(t *testing.T, probe string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequest(http.MethodHead, probe, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon did not become ready")
}
