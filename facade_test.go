package hcf_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"hcf"
	"hcf/internal/memsim"
	"hcf/tracing"
)

func TestPublicAPICustomCostEnv(t *testing.T) {
	cost := memsim.TwoSocketCostParams()
	env := hcf.NewDetEnvWithCost(72, cost)
	if env.NumThreads() != 72 {
		t.Fatalf("threads = %d", env.NumThreads())
	}
	a := env.Alloc(1)
	env.Run(func(th *hcf.Thread) {
		if th.ID() == 0 {
			th.Store(a, 1)
		}
	})
	if got := env.Boot().Load(a); got != 1 {
		t.Fatalf("value = %d", got)
	}
}

// TestPublicAPIBudgetTuner drives a budget-only Tuner (no recorder, no
// collector) through the facade.
func TestPublicAPIBudgetTuner(t *testing.T) {
	env := hcf.NewDetEnv(8)
	fw, err := hcf.New(env, hcf.Config{Policies: []hcf.Policy{{
		TryPrivateTrials:   4,
		TryVisibleTrials:   2,
		TryCombiningTrials: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	tun := hcf.NewTuner(fw, nil, nil, hcf.TunerConfig{MinOpsPerEpoch: 16, LowPrivate: 0.95, HighPrivate: 0.99})
	counter := env.Alloc(1)
	env.Run(func(th *hcf.Thread) {
		for i := 0; i < 60; i++ {
			fw.Execute(th, registerOp{addr: counter})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	if tun.Steps == 0 {
		t.Fatal("tuner never stepped")
	}
	if got := env.Boot().Load(counter); got != 8*60 {
		t.Fatalf("counter = %d", got)
	}
	p, v, c := fw.Trials(0)
	if p < 0 || v < 0 || c < 0 {
		t.Fatal("invalid budgets")
	}
}

func TestPublicAPITunerJournal(t *testing.T) {
	env := hcf.NewDetEnv(8)
	fw, err := hcf.New(env, hcf.Config{Policies: []hcf.Policy{{
		TryPrivateTrials:   2,
		TryVisibleTrials:   2,
		TryCombiningTrials: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	col := &tracing.Collector{Limit: 1}
	fw.SetTracer(col)
	tun := hcf.NewTuner(fw, nil, col, hcf.TunerConfig{
		MinOpsPerEpoch: 16, Hysteresis: 1, Cooldown: 1,
	})
	addrs := make([]hcf.Addr, 8)
	for i := range addrs {
		addrs[i] = env.Alloc(8)
	}
	env.Run(func(th *hcf.Thread) {
		for i := 0; i < 300; i++ {
			fw.Execute(th, registerOp{addr: addrs[th.ID()]})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	if tun.Journal().Len() == 0 {
		t.Fatal("tuner journaled no decisions on conflict-free work")
	}
	var ds []hcf.TunerDecision = tun.Journal().Entries()
	if ds[0].Rule != "grow-private" {
		t.Fatalf("first decision = %s, want grow-private", ds[0].Rule)
	}
	if p, _, _ := fw.Trials(0); p <= 2 {
		t.Fatalf("private trials = %d, never grew", p)
	}
}

func TestPublicAPIHelpersAndPhases(t *testing.T) {
	env := hcf.NewDetEnv(1)
	boot := env.Boot()
	ops := []hcf.Op{registerOp{addr: env.Alloc(1)}}
	res := make([]uint64, 1)
	done := make([]bool, 1)
	hcf.ApplyEach(boot, ops, res, done)
	if !done[0] {
		t.Fatal("ApplyEach skipped the op")
	}
	if !hcf.HelpAll(boot, ops[0], ops[0]) || hcf.HelpNone(boot, ops[0], ops[0]) {
		t.Fatal("help helpers broken")
	}
	if hcf.PhaseTryPrivate.String() != "TryPrivate" ||
		hcf.PhaseCombineUnderLock.String() != "CombineUnderLock" {
		t.Fatal("phase names broken")
	}
	if hcf.NilAddr != 0 || hcf.WordsPerLine != 8 {
		t.Fatal("constants broken")
	}
}

func TestPublicAPISpecializedVariantAndWitness(t *testing.T) {
	env := hcf.NewDetEnv(6)
	fw, err := hcf.New(env, hcf.Config{
		Policies:          []hcf.Policy{{TryPrivateTrials: 1, TryCombiningTrials: 4}},
		HoldSelectionLock: true,
		Lock:              hcf.NewTicket(env),
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	fw.SetWitness(func(stamp uint64, intra int, op hcf.Op, result uint64) { seen++ })
	counter := env.Alloc(1)
	env.Run(func(th *hcf.Thread) {
		for i := 0; i < 20; i++ {
			fw.Execute(th, registerOp{addr: counter})
		}
	})
	if seen != 6*20 {
		t.Fatalf("witnessed %d applications, want %d", seen, 6*20)
	}
}

func TestPublicAPIServe(t *testing.T) {
	srv, addr, err := hcf.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("vars status %d", resp.StatusCode)
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("vars JSON: %v (%q)", err, body)
	}
	var _ *hcf.IntrospectionServer = srv
}

func TestPublicAPIKV(t *testing.T) {
	dir := t.TempDir()
	kv, err := hcf.NewKV(dir, hcf.KVConfig{Shards: 2, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	h := kv.MustHandle()
	if _, err := h.Put(7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := h.Get(7)
	if err != nil || !ok || string(v) != "seven" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	h.Release()
	var st hcf.KVStats = kv.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shard stats, want 2", len(st.Shards))
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: durability through the façade.
	kv2, err := hcf.NewKV(dir, hcf.KVConfig{Shards: 2, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	h2 := kv2.MustHandle()
	defer h2.Release()
	v, ok, err = h2.Get(7)
	if err != nil || !ok || string(v) != "seven" {
		t.Fatalf("after reopen Get = (%q,%v,%v)", v, ok, err)
	}

	// A full index refuses a new key with ErrKVFull.
	small, err := hcf.NewKV(t.TempDir(), hcf.KVConfig{Shards: 1, Capacity: 2, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	hs := small.MustHandle()
	defer hs.Release()
	for k := uint64(0); k < 2; k++ {
		if _, err := hs.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs.Put(2, []byte("v")); !errors.Is(err, hcf.ErrKVFull) {
		t.Fatalf("put into a full index: %v, want %v", err, hcf.ErrKVFull)
	}
}
