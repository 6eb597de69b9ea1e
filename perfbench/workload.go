package main

import (
	"fmt"

	"secureblox/internal/apps"
	"secureblox/internal/core"
)

// workload is one benchmark input family. The key seed is fixed per
// workload, so every repetition generates the same key material; the
// input (graph or join tables) is drawn from the run's --seed and the
// repetition number.
type workload struct {
	name      string
	pathVec   bool // path-vector (§7.1) when true, hash join (§7.2) otherwise
	n         int
	degree    float64 // path-vector average degree
	sizeA     int     // hash-join |A|
	sizeB     int     // hash-join |B|
	joinVals  int     // hash-join distinct join values
	policy    core.PolicyConfig
	transport string // "mem" or "udp", see core.NewNetwork
	keySeed   int64
}

// workloads are the benchmark's inputs. Each stresses a different layer;
// see README.md for why each was chosen and what it should and should not
// move.
var workloads = []workload{
	{
		name: "pv-noauth-mem",
		// The key seed is the checked-in n=24 path-vector cell's seed.
		pathVec: true, n: 24, degree: 3,
		policy:    core.PolicyConfig{Auth: core.AuthNone, Delegation: core.DelegateNone},
		transport: "mem", keySeed: 25,
	},
	{
		name:    "hj-rsa-aes-mem",
		pathVec: false, n: 6, sizeA: 900, sizeB: 800, joinVals: 72,
		policy:    core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true, Delegation: core.DelegateNone},
		transport: "mem", keySeed: 25,
	},
	{
		name:    "pv-rsabatch-udp",
		pathVec: true, n: 24, degree: 3,
		policy:    core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true, Delegation: core.DelegateNone},
		transport: "udp", keySeed: 25,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) query() string {
	if w.pathVec {
		return apps.PathVectorQuery
	}
	return apps.HashJoinQuery
}

func (w workload) hashJoinConfig(inputSeed int64) apps.HashJoinConfig {
	return apps.HashJoinConfig{
		N: w.n, SizeA: w.sizeA, SizeB: w.sizeB, JoinValues: w.joinVals,
		Policy: w.policy, Seed: inputSeed,
	}
}

// inputSeed derives repetition rep's input seed from the run seed
// (splitmix64 finalizer), so one run seed names a fixed sequence of
// inputs and neighbouring seeds share none.
func inputSeed(seed int64, rep int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rep+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 2)
}
