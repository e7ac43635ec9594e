package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stderrLog receives verification diagnostics.
var stderrLog io.Writer = os.Stderr

// runEnv identifies the machine, toolchain and source a run measured.
type runEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func currentEnv(cfg config) runEnv {
	return runEnv{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// commit names the measured source: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a digest of the
// Go sources and module files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	sum, err := sourceDigest(".")
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + sum
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories and testdata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(buf))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// dump is the file a traced run writes: the environment, every span, the
// self time of each span name, and the reported per-layer metrics.
type dump struct {
	Env     runEnv             `json:"env"`
	Layers  map[string]float64 `json:"self_seconds"`
	Metrics map[string]metric  `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// writeDump writes the traced run's spans under cfg.out and returns the
// file's path.
func writeDump(cfg config, env runEnv, rec *recorder, res result) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", fmt.Errorf("trace dump: %w", err)
	}
	self := rec.selfTimes()
	layers := make(map[string]float64, len(self))
	for name, d := range self {
		layers[name] = d.Seconds()
	}
	buf, err := json.Marshal(dump{Env: env, Layers: layers, Metrics: res.Metrics, Spans: rec.spans})
	if err != nil {
		return "", fmt.Errorf("trace dump: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("trace dump: %w", err)
	}
	return path, nil
}
