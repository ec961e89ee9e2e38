package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloadsJSON records every workload parameter the benchmark runs
// with, the held-out seed, and the layer → end-to-end metric map.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	HeldOutSeed int64    `json:"held_out_seed"`
	WarmupMS    int      `json:"warmup_ms"`
	Principals  []string `json:"principals"`
	WALShards   int      `json:"wal_shards"`
	AdmitQueue  int      `json:"admit_queue"`
	Workloads   struct {
		Fig3   fig3Config   `json:"fig3-jobs"`
		Meta   metaConfig   `json:"meta-pipelined"`
		Mutate mutateConfig `json:"mutate-subtrees"`
	} `json:"workloads"`
	LayerMap []layerRow `json:"layer_map"`
}

type fig3Config struct {
	Connections        int     `json:"connections"`
	JobsPerS           float64 `json:"jobs_per_s"`
	MaxOutstandingJobs int     `json:"max_outstanding_jobs"`
	InputBytes         int     `json:"input_bytes"`
	MakeScale          float64 `json:"make_scale"`
}

type metaConfig struct {
	Connections        int            `json:"connections"`
	OutstandingPerConn int            `json:"outstanding_per_conn"`
	TreeFanout         []int          `json:"tree_fanout"`
	FileBytes          int            `json:"file_bytes"`
	ZipfS              float64        `json:"zipf_s"`
	Mix                map[string]int `json:"mix"`
}

type mutateConfig struct {
	Connections        int            `json:"connections"`
	OutstandingPerConn int            `json:"outstanding_per_conn"`
	Subtrees           int            `json:"subtrees"`
	PutBytes           int            `json:"put_bytes"`
	MaxFilesPerWorker  int            `json:"max_files_per_worker"`
	CompactEveryMS     int            `json:"compact_every_ms"`
	Mix                map[string]int `json:"mix"`
}

// layerRow is one row of the layer → end-to-end map: which per-layer
// metrics should move which end-to-end metric, and on which workloads
// the layer does most and little of its work.
type layerRow struct {
	Metrics    []string `json:"metrics"`
	MeasuredBy string   `json:"measured_by"`
	Moves      []string `json:"moves"`
	MostWork   []string `json:"most_work"`
	LittleWork []string `json:"little_work"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if len(c.Principals) != 2 {
		return nil, fmt.Errorf("workloads.json: want 2 principals, have %d", len(c.Principals))
	}
	return &c, nil
}
