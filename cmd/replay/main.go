// Command replay re-drives a flight recording captured with
// aheftd -record-dir (or loadgen -record) through a fresh in-process
// daemon and verifies that every decision, plan generation and terminal
// outcome reproduces bit-identically. Exit status: 0 on an identical
// replay, 1 on divergence, 2 on an unusable recording (torn tail,
// missing or unclean trailer) or an operational error.
//
//	replay -dir /tmp/rec                    verify a recording
//	replay -dir /tmp/rec -digest out.txt    also write the canonical
//	                                        output-stream digest (two
//	                                        replays of one recording must
//	                                        write identical files)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"aheft/internal/replay"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run replays the recording args name and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("dir", "", "recording directory (required)")
		digest  = fs.String("digest", "", "write the canonical output digest to this file")
		timeout = fs.Duration("timeout", 60*time.Second, "bound on the whole replay")
		quiet   = fs.Bool("q", false, "print nothing on success")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "replay: -dir is required")
		fs.Usage()
		return 2
	}

	res, err := replay.Run(*dir, replay.Options{Timeout: *timeout})
	if err != nil {
		fmt.Fprintf(stderr, "replay: %v\n", err)
		return 2
	}
	if *digest != "" {
		out := strings.Join(res.Digest, "\n") + "\n"
		if err := os.WriteFile(*digest, []byte(out), 0o644); err != nil {
			fmt.Fprintf(stderr, "replay: write digest: %v\n", err)
			return 2
		}
	}
	if !res.Identical() {
		fmt.Fprintf(stderr, "replay: DIVERGED — %d mismatches over %d output records:\n", len(res.Divergences), res.Outputs)
		for _, d := range res.Divergences {
			fmt.Fprintf(stderr, "  %s\n", d)
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "replay: identical — %d shards, %d inputs re-driven, %d output records matched\n",
			res.Shards, res.Inputs, res.Outputs)
	}
	return 0
}
