package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runAsIpcd, set in a child's environment, makes this test binary run
// ipcd's main on its arguments instead of the tests.
const runAsIpcd = "IPCD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsIpcd) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ipcd rejects a bad command line before it opens any listener: flag
// errors exit 2, a missing cluster identity exits 1, and -version
// prints the build version and exits 0.
func TestCommandLineExits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // exact, when the case prints
		stderr string // a substring
	}{
		{"resp-cache", []string{"-resp-cache", "4096"}, 2, "", "flag provided but not defined: -resp-cache"},
		{"history-size", []string{"-history-size", "10"}, 2, "", "flag provided but not defined: -history-size"},
		{"recent-requests", []string{"-recent-requests", "10"}, 2, "", "flag provided but not defined: -recent-requests"},
		{"events", []string{"-events", "10"}, 2, "", "flag provided but not defined: -events"},
		{"peers-without-self", []string{"-peers", "http://127.0.0.1:1"}, 1, "", "-peers requires -cluster-self"},
		{"log-format-yaml", []string{"-log-format", "yaml"}, 2, "", "-log-format must be text or json"},
		{"stray-argument", []string{"stray"}, 2, "", `unexpected argument "stray"`},
		{"version", []string{"-version"}, 0, "ipcd dev\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A case that wrongly starts serving is killed, not waited on.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runAsIpcd+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code || stdout.String() != tc.stdout || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit %d, stdout %q, stderr containing %q",
					code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
			}
		})
	}
}

// freeAddr reports a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// SIGTERM drains every listener: a computation running on a single
// node's main listener, or on a cluster node's cluster listener, when
// the signal lands answers 200, and ipcd exits 0 only after it.
func TestDrainFinishesClusterListenerRequest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cluster bool
	}{{"main-listener", false}, {"cluster-listener", true}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			args := []string{"-addr", addr, "-history-every", "0", "-drain", "60s"}
			base := "http://" + addr
			if tc.cluster {
				caddr := freeAddr(t)
				base = "http://" + caddr
				args = append(args, "-cluster-listen", caddr, "-cluster-self", base, "-peers", base, "-probe-every", "0")
			}
			drainAcrossSIGTERM(t, args, base)
		})
	}
}

// drainAcrossSIGTERM starts ipcd with args, holds a simulation in
// flight through base, sends SIGTERM, and requires the simulation's 200
// and ipcd's exit 0.
func drainAcrossSIGTERM(t *testing.T, args []string, base string) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsIpcd+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	get := func(path string) (string, bool) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.StatusCode == http.StatusOK
	}
	// await polls cond every 10 ms until it holds, failing if ipcd exits
	// or the context expires first.
	await := func(what string, cond func() bool) {
		for !cond() {
			select {
			case err := <-exited:
				t.Fatalf("ipcd exited (%v) before %s; stderr:\n%s", err, what, stderr.String())
			case <-ctx.Done():
				t.Fatalf("timed out before %s; stderr:\n%s", what, stderr.String())
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	await("the listener served /healthz", func() bool { _, ok := get("/healthz"); return ok })

	type answer struct {
		status int
		body   []byte
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(
			`{"arch":2,"conversations":4,"server_compute_us":1140,"seconds":120,"replications":2}`))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, b, err}
	}()
	// The metrics request itself is one in flight; the simulation is the
	// other.
	await("the simulation was in flight", func() bool {
		body, ok := get("/metrics")
		return ok && strings.Contains(body, `"in_flight":2`)
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	a := <-answered
	if a.err != nil || a.status != http.StatusOK || !bytes.Contains(a.body, []byte(`"throughput_rps"`)) {
		t.Fatalf("simulate across SIGTERM: status %d, err %v, body %q; want 200 with a measurement\nstderr:\n%s",
			a.status, a.err, a.body, stderr.String())
	}
	if err := <-exited; err != nil {
		t.Fatalf("ipcd exited with %v, want 0; stderr:\n%s", err, stderr.String())
	}
}
