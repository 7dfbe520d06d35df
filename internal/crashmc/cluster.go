package crashmc

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cluster crash checking: kill M of N kvcluster shards at an enumerated
// crash state each, recover, and audit the routed keyspace for durability
// and per-key prefix ordering.
//
// kvcluster routing is replication-free: every key lives on exactly one
// shard, so no invariant spans two shards and the cluster's crash-state
// space factorizes — the product of per-shard admissible states never
// couples through any checked predicate. Checking each killed shard's
// enumeration independently therefore covers every cluster crash state
// (sum of per-shard state counts, not their product), which is what keeps
// killing M shards tractable.

// ClusterChecker audits one killed shard's recovered image against the
// cluster contract: the store's own durability/prefix-ordering audit
// (KVChecker), plus routing — every recovered key must consistent-hash to
// this shard, or a write was persisted somewhere reads will never look.
type ClusterChecker struct {
	Ring  *kvcluster.Ring
	Shard int
	Store *kvwal.Store
}

// Name implements Checker.
func (c *ClusterChecker) Name() string { return "kvcluster" }

// Check implements Checker.
func (c *ClusterChecker) Check(st *State) []Violation {
	rec := c.Store.Recover(st.View)
	kv := &KVChecker{Store: c.Store}
	out := kv.CheckRecovered(rec)
	keys := make([]string, 0, len(rec.Keys))
	for key := range rec.Keys {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if home := c.Ring.Shard(key); home != c.Shard {
			out = append(out, Violation{Kind: KindConsistency,
				Detail: fmt.Sprintf("key %q recovered on shard %d but routes to shard %d",
					key, c.Shard, home)})
		}
	}
	return out
}

// ClusterResult is the outcome of a ClusterScenario: one model-checking
// Result per killed shard plus cluster-wide violation totals.
type ClusterResult struct {
	Profile  string
	Shards   int
	Killed   int
	PerShard []Result

	StatesExplored int
	ImagesChecked  int
	Durability     int
	Ordering       int
	Consistency    int
}

// Ok reports whether no killed shard violated any invariant in any
// admissible crash state.
func (r ClusterResult) Ok() bool { return r.Durability+r.Ordering+r.Consistency == 0 }

func (r ClusterResult) String() string {
	status := "OK: every admissible crash state recovers clean"
	if !r.Ok() {
		status = fmt.Sprintf("VIOLATIONS: %d durability / %d ordering / %d consistency",
			r.Durability, r.Ordering, r.Consistency)
	}
	return fmt.Sprintf("%s cluster %d/%d shards killed: %d states / %d images — %s",
		r.Profile, r.Killed, r.Shards, r.StatesExplored, r.ImagesChecked, status)
}

// clusterTraffic is the deterministic routed request stream the scenario
// replays: Zipfian keys over a small space so overwrites and deletes
// collide, a write-heavy mix, enough volume to cycle until any crash
// instant.
func clusterTraffic(shards int) (*kvcluster.Ring, [][]kvcluster.Request) {
	ring := kvcluster.NewRing(shards, 64)
	tr := kvcluster.Traffic{
		Arrivals:  workload.ArrivalConfig{RatePerS: 200_000, Seed: 23},
		Mix:       workload.Mix{ReadPct: 10, DeletePct: 15},
		KeySpace:  512,
		ZipfTheta: 0.9,
		Duration:  50 * sim.Millisecond,
	}
	return ring, kvcluster.Partition(tr.Generate(), ring)
}

// ClusterScenario builds an N-shard kvcluster (ShardedStacks shape: one
// stack per shard), drives each of the first `kill` shards with its routed
// slice of the cluster traffic to the crash instant, crashes it, and
// model-checks every admissible crash state with the ClusterChecker plus
// the journal and fs invariants. Surviving shards never crash, so they
// have nothing to enumerate (see the factorization note above).
func ClusterScenario(prof core.Profile, shards, kill int, cfg Config) ClusterResult {
	if kill > shards {
		kill = shards
	}
	ring, parts := clusterTraffic(shards)
	out := ClusterResult{Profile: prof.Name, Shards: shards, Killed: kill}
	for i := 0; i < kill; i++ {
		res := clusterShardCheck(prof, ring, i, parts[i], cfg)
		out.PerShard = append(out.PerShard, res)
		out.StatesExplored += res.StatesExplored
		out.ImagesChecked += res.ImagesChecked
		out.Durability += res.Durability
		out.Ordering += res.Ordering
		out.Consistency += res.Consistency
	}
	return out
}

// clusterShardCheck crashes one shard mid-replay and model-checks it.
func clusterShardCheck(prof core.Profile, ring *kvcluster.Ring, shard int,
	reqs []kvcluster.Request, cfg Config) Result {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	var st *kvwal.Store
	k.Spawn("kvc/setup", func(p *sim.Proc) {
		scfg := kvwal.Config{WALPages: 128, MemtableCap: 32, CompactFanIn: 3, CheckpointEvery: 8}
		opened, err := kvwal.Open(p, s, scfg)
		if err != nil {
			panic(err)
		}
		st = opened
	})
	k.Spawn("kvc/client", func(p *sim.Proc) {
		for st == nil {
			p.Sleep(sim.Millisecond)
		}
		if len(reqs) == 0 {
			for {
				p.Suspend()
			}
		}
		// Closed-loop replay of the shard's routed slice, cycling so the
		// stream outlasts any crash instant.
		var batch []kvwal.Op
		for n := 0; ; n++ {
			r := reqs[n%len(reqs)]
			switch r.Class {
			case workload.ClassGet:
				st.Get(p, r.Key)
			case workload.ClassDelete:
				batch = append(batch, kvwal.Op{Kind: kvwal.Delete, Key: r.Key})
			default:
				batch = append(batch, kvwal.Op{Kind: kvwal.Put, Key: r.Key})
			}
			if len(batch) >= 3 {
				st.Apply(p, batch)
				batch = nil
			}
		}
	})
	k.RunUntil(cfg.CrashAt)
	if st == nil {
		// Crash inside Open: nothing acknowledged, trivially consistent.
		return Result{Profile: prof.Name, CrashAt: cfg.CrashAt}
	}
	return crashAndCheck(k, s, cfg, []Checker{
		&ClusterChecker{Ring: ring, Shard: shard, Store: st},
		&JournalChecker{J: s.FS.Journal()},
		&FSChecker{FS: s.FS},
	})
}
