package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunAllScenarios(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque"} {
		if err := run([]string{"-scenario", sc, "-engine", "HCF", "-threads", "3",
			"-horizon", "5000"}); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunJSON(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-scenario", "hashtable", "-engine", "HCF",
		"-threads", "4", "-horizon", "20000", "-json"})
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	var rec map[string]any
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "threads", "ops", "throughput",
		"htm_started", "phase_by_class"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF" || rec["threads"] != float64(4) {
		t.Errorf("identity fields wrong: %v", rec)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-engine", "nope", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestRunElastic runs the elastic report on a small horizon: the
// decision journal, topology block and JSON shape must all come out.
func TestRunElastic(t *testing.T) {
	if err := run([]string{"-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-decisions", "3"}); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-json"})
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	var rec map[string]any
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "mode", "topology", "decisions"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF-E" {
		t.Errorf("identity fields wrong: %v", rec["engine"])
	}
}

// TestTuneFlagRemoved pins that the autotuner report lives only in
// hcftune: -tune is no longer a flag here.
func TestTuneFlagRemoved(t *testing.T) {
	err := run([]string{"-tune"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -tune") {
		t.Errorf("-tune still parses: %v", err)
	}
}
