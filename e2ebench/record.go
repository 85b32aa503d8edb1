package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runRecord is the context a result needs to be compared: the machine,
// the exact source, pipd's configuration and the sample counts.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// HeadSHA and Dirty come from git when the tree is a checkout;
	// SourceSHA256 hashes the Go sources and go.mod files either way.
	HeadSHA      string   `json:"head_sha"`
	Dirty        *bool    `json:"dirty"`
	SourceSHA256 string   `json:"source_sha256"`
	PipdFlags    []string `json:"pipd_flags"`
	// PipdWorkers is the sampler's worker count: pipd runs with -workers 0,
	// one per CPU.
	PipdWorkers int    `json:"pipd_workers"`
	Sessions    int    `json:"sessions"`
	Loop        string `json:"loop"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	// WindowOps counts the untraced window's operations per template,
	// TemplateP50ms gives each template's median latency, and
	// PercentileSamples the latencies behind latency_p50_ms/latency_p99_ms.
	WindowOps         map[string]int     `json:"window_ops"`
	TemplateP50ms     map[string]float64 `json:"template_p50_ms"`
	PercentileSamples int                `json:"percentile_samples"`
	SetupRuns         int                `json:"setup_runs"`
	SpanFile          string             `json:"span_file,omitempty"`
}

func newRunRecord(o options, wl *workload, w window, setups []float64) runRecord {
	head, dirty := gitState()
	r := runRecord{
		Workload:          o.workload,
		Seed:              o.seed,
		Seconds:           o.seconds,
		Trace:             o.trace,
		NProc:             runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		HeadSHA:           head,
		Dirty:             dirty,
		SourceSHA256:      sourceHash("."),
		PipdFlags:         append([]string{"-addr", "127.0.0.1:<port>", "-debug-addr", "127.0.0.1:<port>", "-data-dir", "<fresh temporary directory>"}, pipdFlags...),
		PipdWorkers:       runtime.GOMAXPROCS(0),
		Sessions:          sessions,
		Loop:              "closed",
		WindowOps:         map[string]int{},
		TemplateP50ms:     map[string]float64{},
		PercentileSamples: len(w.lat),
		SetupRuns:         len(setups),
	}
	for i, t := range wl.templates {
		r.WindowOps[t.name] = len(w.tmplLat[i])
		r.TemplateP50ms[t.name] = ms(percentile(w.tmplLat[i], 0.5))
	}
	return r
}

// gitState returns HEAD's SHA and whether tracked files differ from it,
// or "none" and nil outside a git checkout.
func gitState() (string, *bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", nil
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(out)), nil
	}
	dirty := len(strings.TrimSpace(string(st))) > 0
	return strings.TrimSpace(string(out)), &dirty
}

// sourceHash hashes every .go and go.mod file under root (paths and
// contents, in path order), skipping hidden directories and testdata.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply drop out of the hash
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
