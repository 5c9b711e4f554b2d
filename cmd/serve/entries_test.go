package main

import (
	"reflect"
	"testing"
)

func TestEntryFlagsSet(t *testing.T) {
	var e entryFlags
	if err := e.Set("agro=c.json,o.json"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("mesh=m-corpus.json,m-ont.json"); err != nil {
		t.Fatal(err)
	}
	want := entryFlags{
		{name: "agro", corpusPath: "c.json", ontPath: "o.json"},
		{name: "mesh", corpusPath: "m-corpus.json", ontPath: "m-ont.json"},
	}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("parsed = %+v, want %+v", e, want)
	}
	if got := e.String(); got != "agro=c.json,o.json mesh=m-corpus.json,m-ont.json" {
		t.Fatalf("String() = %q", got)
	}

	bad := []string{
		"no-equals",               // missing =
		"agro=onlyone.json",       // missing comma
		"agro=,o.json",            // empty corpus path
		"agro=c.json,",            // empty ontology path
		"Bad Name=c.json,o.json",  // invalid registry name
		"default=c.json,o.json",   // reserved name
		"agro=other.json,o2.json", // duplicate of an accepted entry
	}
	for _, v := range bad {
		if err := e.Set(v); err == nil {
			t.Errorf("Set(%q) unexpectedly succeeded", v)
		}
	}
}
