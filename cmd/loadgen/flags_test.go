package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// invocation matches the start of a loadgen command line the way the
// workflow file, README and the verify skill spell it; the first argument
// must be a flag, which is what tells a run from `go build -o bin/loadgen`.
var invocation = regexp.MustCompile(`(?:bin/loadgen|/tmp/loadgen|go run \./cmd/loadgen)\s+(-.*)$`)

// invocations extracts every loadgen command line of a file as its
// argument list, joining backslash continuations.
func invocations(t *testing.T, path string) [][]string {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	lines := strings.Split(string(text), "\n")
	for i := 0; i < len(lines); i++ {
		m := invocation.FindStringSubmatch(strings.TrimSpace(lines[i]))
		if m == nil {
			continue
		}
		cmd := m[1]
		for strings.HasSuffix(cmd, `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(cmd, `\`) + " " + strings.TrimSpace(lines[i])
		}
		out = append(out, strings.Fields(cmd))
	}
	return out
}

// resetFlags puts every loadgen flag back to its default, so a test that
// set some does not leak them into the next.
func resetFlags() {
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			_ = f.Value.Set(f.DefValue) // a default always parses
		}
	})
}

// parseOnly runs args through loadgen's flag set without keeping what
// they set: every flag goes back to its default afterwards.
func parseOnly(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	defer resetFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("stray arguments %q", fs.Args())
	}
	return nil
}

// TestCIInvocationsParse: every loadgen command line CI runs, and every
// one README and the verify skill tell a reader to type, must parse
// against the flags loadgen actually defines — removing or renaming a
// flag a smoke job uses fails here instead of on GitHub a push later.
func TestCIInvocationsParse(t *testing.T) {
	for _, src := range []struct {
		path string
		min  int // invocations the file is known to hold
	}{
		{"../../.github/workflows/ci.yml", 7},
		{"../../README.md", 5},
		{"../../.claude/skills/verify/SKILL.md", 4},
	} {
		cmds := invocations(t, src.path)
		if len(cmds) < src.min {
			t.Errorf("%s: found %d loadgen invocations, want at least %d — has the spelling changed?", src.path, len(cmds), src.min)
		}
		for _, args := range cmds {
			if err := parseOnly(args); err != nil {
				t.Errorf("%s: loadgen %s: %v", src.path, strings.Join(args, " "), err)
			}
		}
	}
	if err := parseOnly([]string{"-no-such-flag"}); err == nil {
		t.Error("parseOnly accepted an undefined flag")
	}
	if *out != "" || *driveMode {
		t.Errorf("parseOnly leaked flag values: -out %q, -drive %v", *out, *driveMode)
	}
}
