package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
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
