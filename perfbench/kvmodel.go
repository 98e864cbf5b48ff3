package main

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/workloads"
)

// Rediska opcodes, from its protocol comment in internal/workloads.
const (
	opSet = 1
	opGet = 2
)

// loadKey is rediska's bulk-load rule: the i-th preloaded key is
// 1000000+7i and holds i*i+3.
func loadKey(i uint64) uint64 { return 1000000 + 7*i }
func loadVal(i uint64) uint64 { return i*i + 3 }

// kvModel is the oracle: what the store must hold, built only from the
// protocol's bulk-load rule and the SETs sent, never from the program.
type kvModel struct {
	vals map[uint64]uint64
}

func newKVModel(loaded int) *kvModel {
	m := &kvModel{vals: make(map[uint64]uint64, loaded)}
	for i := uint64(0); i < uint64(loaded); i++ {
		m.vals[loadKey(i)] = loadVal(i)
	}
	return m
}

func (m *kvModel) items() int { return len(m.vals) }

// encode turns a request into rediska's wire format.
func encode(r request) []byte {
	if r.op == opSet {
		return workloads.RediskaSet(r.key, r.val)
	}
	return workloads.RediskaGet(r.key)
}

// apply checks the server's answer to r against the model, then applies r
// to the model.
func (m *kvModel) apply(r request, resp []byte) error {
	w := workloads.ParseWords(resp)
	switch r.op {
	case opSet:
		if len(w) != 1 || w[0] != 1 {
			return fmt.Errorf("SET %d: answer %v, want [1]", r.key, w)
		}
		m.vals[r.key] = r.val
	case opGet:
		want, ok := m.vals[r.key]
		if !ok {
			if len(w) != 2 || w[0] != 0 {
				return fmt.Errorf("GET %d: answer %v, want a miss", r.key, w)
			}
			return nil
		}
		if len(w) != 2 || w[0] != 1 || w[1] != want {
			return fmt.Errorf("GET %d: answer %v, want [1 %d]", r.key, w, want)
		}
	default:
		return fmt.Errorf("op %d: not modeled", r.op)
	}
	return nil
}
