package buildinfo

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestReadReportsModuleAndToolchain(t *testing.T) {
	info := Read()
	if info.Module != "bioenrich" {
		t.Errorf("Module = %q, want bioenrich", info.Module)
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want go-prefixed toolchain version", info.GoVersion)
	}
	if info.Version == "" {
		t.Errorf("Version is empty; test binaries report (devel) or a tag")
	}
}

func TestInfoJSONShape(t *testing.T) {
	// The wire shape is the /v1/version contract: stable lower-snake
	// keys, optional VCS fields absent when unstamped (test binaries
	// have no vcs.* settings).
	b, err := json.Marshal(Info{Module: "bioenrich", Version: "(devel)", GoVersion: "go1.22.0"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"module":"bioenrich","version":"(devel)","go_version":"go1.22.0"}`
	if string(b) != want {
		t.Errorf("Info JSON = %s, want %s", b, want)
	}
}
