package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/experiments"
)

// jsonReport is the -json output: one entry per experiment with its
// machine-readable rows, plus enough run metadata to compare trajectory
// files across machines and PRs.
type jsonReport struct {
	GeneratedAt string           `json:"generated_at"`
	Commit      string           `json:"commit,omitempty"`
	GoVersion   string           `json:"go_version,omitempty"`
	Host        string           `json:"host,omitempty"`
	Scale       string           `json:"scale"`
	Parallel    bool             `json:"parallel"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	WallSeconds float64          `json:"wall_seconds"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	Name        string           `json:"name"`
	WallSeconds float64          `json:"wall_seconds"`
	Rows        []map[string]any `json:"rows,omitempty"`
}

func writeJSON(path string, r jsonReport) error {
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fig1JSON(r experiments.Fig1Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "channels": row.Channels,
			"buffered_iops": row.BufferedIOPS, "ordered_iops": row.OrderedIOPS,
			"ratio_percent": row.RatioPercent,
		})
	}
	return rows
}

func fig8JSON(r experiments.Fig8Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"mode": row.Mode, "interval_us": row.IntervalUs, "commits_per_s": row.CommitsPS,
		})
	}
	return rows
}

func fig9JSON(r experiments.Fig9Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "policy": row.Result.Policy.String(),
			"iops": row.Result.IOPS, "mean_qd": row.Result.MeanQD, "peak_qd": row.Result.PeakQD,
		})
	}
	return rows
}

func fig10JSON(rs []experiments.Fig10Result) []map[string]any {
	rows := make([]map[string]any, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, map[string]any{
			"device": r.Device, "wot_mean_qd": r.XMeanQD, "barrier_mean_qd": r.BMeanQD,
		})
	}
	return rows
}

func table1JSON(r experiments.Table1Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "fs": row.FS,
			"mean_ms": row.Summary.Mean, "p50_ms": row.Summary.Median,
			"p99_ms": row.Summary.P99, "p999_ms": row.Summary.P999, "p9999_ms": row.Summary.P9999,
		})
	}
	return rows
}

func fig11JSON(r experiments.Fig11Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "config": row.Config, "switches_per_sync": row.Switches,
		})
	}
	return rows
}

func fig12JSON(r experiments.Fig12Result) []map[string]any {
	return []map[string]any{{
		"fsync_peak_qd": r.FsyncPeakQD, "fbarrier_peak_qd": r.FbarrierPeakQD,
	}}
}

func fig13JSON(r experiments.Fig13Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "fs": row.FS, "threads": row.Threads, "ops_per_s": row.OpsPerS,
		})
	}
	return rows
}

func fig14JSON(r experiments.Fig14Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "config": row.Config, "journal_mode": row.Mode.String(),
			"tx_per_s": row.TxPerSec, "p50_ms": row.P50, "p99_ms": row.P99,
		})
	}
	return rows
}

func fig15JSON(r experiments.Fig15Result) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"device": row.Device, "workload": row.Workload, "config": row.Config,
			"per_s": row.PerSec, "p50_ms": row.P50, "p99_ms": row.P99,
		})
	}
	return rows
}

func mqJSON(r experiments.MQScalingResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows)+len(r.FS))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"streams": row.Streams, "hw_queues": row.HWQueues, "layer": row.Config,
			"iops": row.IOPS, "epochs_closed": row.EpochsClosed, "speedup": row.Speedup,
		})
	}
	for _, row := range r.FS {
		rows = append(rows, map[string]any{
			"config": row.Config, "fg_fdatasync_per_s": row.OpsPerS,
		})
	}
	return rows
}

func kvclusterJSON(r experiments.KVClusterResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "mode": row.Mode,
			"shards": row.Shards, "offered_kops": row.OfferedKops,
			"offered_per_s": row.OfferedPerS, "goodput_per_s": row.GoodputPerS,
			"slo_pct": row.SLOPct, "shed_pct": row.ShedPct,
			"p50_ms": row.P50, "p99_ms": row.P99, "p999_ms": row.P999,
		})
	}
	return rows
}

func whyslowJSON(r experiments.WhySlowResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "offered_kops": row.OfferedKops,
			"level": row.Level, "stage": row.Stage,
			"mean_ms": row.MeanMs, "p50_ms": row.P50Ms, "p99_ms": row.P99Ms,
			"share_pct": row.SharePct, "exemplars": row.Exemplars,
		})
	}
	return rows
}

func faultsJSON(r experiments.FaultsResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "mix": row.Mix,
			"shards": row.Shards, "replicas": row.Replicas,
			"offered_per_s": row.OfferedPerS, "goodput_per_s": row.GoodputPerS,
			"slo_pct": row.SLOPct, "shed_pct": row.ShedPct, "p99_ms": row.P99,
			"retries": row.Retries, "io_errors": row.IOErrors,
			"failovers": row.Failovers, "read_repairs": row.ReadRepairs,
		})
	}
	return rows
}

func crashmcJSON(r experiments.CrashMCResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "crash_at_us": row.CrashAtUs,
			"volatile": row.Volatile, "streams": row.Streams,
			"states_explored": row.States, "images_checked": row.Images,
			"capped": row.Capped, "sampled": row.Sampled,
			"durability_violations":  row.Durability,
			"ordering_violations":    row.Ordering,
			"consistency_violations": row.Consistency,
			"violation_states":       row.ViolationStates,
		})
	}
	return rows
}

func rebalanceJSON(r experiments.RebalanceResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "scenario": row.Scenario, "phase": row.Phase,
			"shards": row.Shards, "replicas": row.Replicas,
			"goodput_per_s": row.GoodputPerS, "p99_ms": row.P99,
			"shed_pct": row.ShedPct, "keys_moved": row.KeysMoved,
			"dual_writes": row.DualWrites, "cutovers": row.Cutovers,
			"aborts": row.Aborts, "acked_keys": row.AckedKeys,
			"acked_lost": row.AckedLost,
		})
	}
	return rows
}

func fsreplayJSON(r experiments.FSReplayResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "shards": row.Shards, "trace_rows": row.TraceRows,
			"offered_per_s": row.OfferedPerS, "goodput_per_s": row.GoodputPerS,
			"slo_pct": row.SLOPct, "shed_pct": row.ShedPct,
			"p50_ms": row.P50, "p99_ms": row.P99,
		})
	}
	return rows
}

func kvJSON(r experiments.KVResult) []map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows)+len(r.Crash))
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"config": row.Config, "clients": row.Clients,
			"ops_per_s": row.OpsPerS, "ops_per_group": row.GroupMean,
			"p50_ms": row.P50, "p99_ms": row.P99, "p999_ms": row.P999,
		})
	}
	for _, c := range r.Crash {
		rows = append(rows, map[string]any{
			"config": c.Config, "crash_trials": c.Trials, "crash_violations": c.Violations,
			"crash_capped": c.Capped,
		})
	}
	return rows
}
