package main

import (
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/workloads"
)

// bruteForceGet answers a GET at position i of the log by scanning the log
// backwards for the last SET of the key, falling back to the bulk-load
// rule.
func bruteForceGet(log []request, i int, loaded int) (uint64, bool) {
	key := log[i].key
	for j := i - 1; j >= 0; j-- {
		if log[j].op == opSet && log[j].key == key {
			return log[j].val, true
		}
	}
	for k := uint64(0); k < uint64(loaded); k++ {
		if loadKey(k) == key {
			return loadVal(k), true
		}
	}
	return 0, false
}

// answer is what a correct rediska sends for a request, per the protocol.
func answer(r request, val uint64, ok bool) []byte {
	if r.op == opSet {
		return workloads.Words(1)
	}
	if !ok {
		return workloads.Words(0, 0)
	}
	return workloads.Words(1, val)
}

// TestOracleMatchesBruteForce drives the incremental model with the
// answers a brute-force replay of the request log derives: it must accept
// every one, and reject a GET answer that is off by one.
func TestOracleMatchesBruteForce(t *testing.T) {
	const loaded = 60
	log := genRequests(3, kvMix{rate: 4000, setFrac: 0.4, keys: loaded}, 500*time.Millisecond)
	// One key outside the loaded set exercises the miss path.
	log = append(log, request{due: time.Hour, op: opGet, key: loadKey(loaded)})
	m := newKVModel(loaded)
	gets := 0
	for i, r := range log {
		val, ok := bruteForceGet(log, i, loaded)
		if r.op == opGet && ok {
			gets++
			// A GET leaves the model alone, so probing it with a wrong
			// answer first is harmless.
			if err := m.apply(r, workloads.Words(1, val+1)); err == nil {
				t.Fatalf("request %d: a wrong GET answer was accepted", i)
			}
		}
		if err := m.apply(r, answer(r, val, ok)); err != nil {
			t.Fatalf("request %d: the model rejected the brute-force answer: %v", i, err)
		}
	}
	if gets < 500 {
		t.Fatalf("only %d GETs in the log", gets)
	}
	if m.items() != loaded {
		t.Fatalf("model holds %d items, want %d: SETs only touch loaded keys", m.items(), loaded)
	}
}

func TestLoadRule(t *testing.T) {
	m := newKVModel(3)
	for i, want := range map[uint64]uint64{1000000: 3, 1000007: 4, 1000014: 7} {
		if got := m.vals[i]; got != want {
			t.Errorf("key %d holds %d, want %d", i, got, want)
		}
	}
}
