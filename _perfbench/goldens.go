package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// goldenFile holds fingerprint hashes recorded at DefaultSeed: for each
// fabric workload, the run after its golden ops; for daemon_sweep, each
// sweep point's job result and each checkpoint point's longer job.
type goldenFile struct {
	Fabric map[string]string `json:"fabric"`
	Daemon map[string]string `json:"daemon"`
}

//go:embed goldens.json
var goldensJSON []byte

var goldens = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: goldens.json:", err)
		os.Exit(1)
	}
	return g
}()

// fingerprintHash shortens a Metrics.Fingerprint to 16 hex digits.
func fingerprintHash(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:8])
}

// writeGoldens recomputes goldens.json at DefaultSeed: the fabric
// prologues, and one job per daemon sweep point and op length on a
// single client.
func writeGoldens(w io.Writer) error {
	g := goldenFile{Fabric: map[string]string{}, Daemon: map[string]string{}}
	for _, reg := range []fabricRegime{busy} {
		fs, err := reg.build(DefaultSeed, false)
		if err != nil {
			return err
		}
		if _, err := fs.sess.Advance(reg.warmupSlots + uint64(reg.goldenOps)*reg.opSlots); err != nil {
			return err
		}
		g.Fabric[reg.name] = fingerprintHash(fs.sess.Metrics().Fingerprint())
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	sw := newSweep(DefaultSeed)
	record := func(p sweepPoint, ckpt bool) error {
		id, err := d.submitted("POST", "/v1/jobs", sw.spec(p, ckpt))
		if err != nil {
			return err
		}
		if st, err := d.follow(id, nil); err != nil || st.State != "done" {
			return fmt.Errorf("golden job %s: state %q, %v", p.label(ckpt), st.State, err)
		}
		fp, err := d.jobResult(id)
		if err != nil {
			return err
		}
		g.Daemon[p.label(ckpt)] = fingerprintHash(fp)
		return nil
	}
	for _, p := range sw.order {
		if err := record(p, false); err != nil {
			return err
		}
	}
	for _, p := range sw.ckpt {
		if err := record(p, true); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. Each workload measures the layers it drives; the rest are
// reported as 0 (see NOTES.md).
func layerUnits() map[string]string {
	u := map[string]string{
		"sched.tick_ns":                "ns",
		"sched.matched_per_tick":       "count",
		"sched.sleep_share":            "share",
		"traffic.next_ns":              "ns",
		"traffic.cpu_share":            "share",
		"fabric.window_p50_s":          "s",
		"fabric.window_p90_s":          "s",
		"fabric.cpu_share_other":       "share",
		"fabric.ns_per_cell_hop":       "ns",
		"fabric.fc_blocked_per_grant":  "ratio",
		"parallel.core_util":           "share",
		"parallel.shard_imbalance":     "ratio",
		"parallel.pool_util":           "share",
		"parallel.critical_path_share": "share",
		"service.submit_s":             "s",
		"service.result_s":             "s",
		"service.overhead_s":           "s",
		"ckpt.save_s":                  "s",
		"ckpt.bytes":                   "bytes",
		"ckpt.restore_s":               "s",
		"runtime.alloc_bytes_per_op":   "bytes",
		"runtime.gc_cycles":            "count",
		"trace.overhead_share":         "share",
	}
	for _, id := range experiments.IDs() {
		u["experiments."+id+"_s"] = "s"
	}
	return u
}

// completeLayers returns the full per-layer metric set: the workload's
// measurements plus 0 for every layer it does not drive.
func completeLayers(measured map[string]metric) map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits() {
		out[name] = metric{0, unit}
	}
	var driven []string
	for name, m := range measured {
		if _, ok := out[name]; !ok {
			fmt.Fprintln(os.Stderr, "perfbench: unlisted layer metric", name)
			os.Exit(1)
		}
		out[name] = m
		driven = append(driven, name)
	}
	fmt.Printf("layers: %d of %d per-layer metrics apply to this workload; the rest read 0\n", len(driven), len(out))
	return out
}
