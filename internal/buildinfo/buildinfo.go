// Package buildinfo reads the binary's own build metadata — module
// version, Go toolchain, VCS revision — from the build-info record the
// Go linker embeds in every binary (runtime/debug). GET /v1/version
// serves it, so a client can tell exactly which build is answering.
package buildinfo

import (
	"runtime/debug"
)

// Info is the build identity of the running binary. Fields the linker
// did not record (e.g. a non-VCS build, `go run` without a checkout)
// are empty rather than guessed.
type Info struct {
	// Module is the main module path ("bioenrich").
	Module string `json:"module"`
	// Version is the main module version ("(devel)" for a working-tree
	// build, a semver tag for a released one).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary ("go1.22.0").
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit SHA the binary was built from, empty
	// when the build had no VCS stamping.
	Revision string `json:"revision,omitempty"`
	// CommitTime is the commit's timestamp (RFC 3339), empty without
	// VCS stamping.
	CommitTime string `json:"commit_time,omitempty"`
	// Dirty reports uncommitted modifications at build time.
	Dirty bool `json:"dirty,omitempty"`
}

// Read returns the running binary's build identity. It never fails:
// a binary without an embedded record (practically: only binaries not
// built by the Go toolchain) yields a zero-valued Info.
func Read() Info {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Info{}
	}
	info := Info{
		Module:    bi.Main.Path,
		Version:   bi.Main.Version,
		GoVersion: bi.GoVersion,
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.CommitTime = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}
