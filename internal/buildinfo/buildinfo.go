// Package buildinfo carries the daemon's build/version identity: a
// base version string (overridable at link time) plus the VCS revision
// Go embeds in the binary. aheftd prints it for -version, /v1/healthz
// reports it, and cmd/chaos stamps its JSON report with the daemon's
// value so a benchmark artefact names the build that produced it.
package buildinfo

import (
	"runtime/debug"
	"strings"
	"sync"
)

// Version is the base version string. Override at link time with
//
//	go build -ldflags "-X aheft/internal/buildinfo.Version=v1.2.3"
var Version = "dev"

var (
	once     sync.Once
	resolved string
)

// String returns "<Version>+<short-revision>[.dirty]" when the binary
// embeds VCS metadata, or just Version when it does not (go test, or a
// build outside a repository).
func String() string {
	once.Do(func() {
		resolved = Version
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev == "" {
			return
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		var b strings.Builder
		b.WriteString(Version)
		b.WriteString("+")
		b.WriteString(rev)
		if dirty {
			b.WriteString(".dirty")
		}
		resolved = b.String()
	})
	return resolved
}
