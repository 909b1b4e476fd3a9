package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostRecord identifies where and on what code a result was measured.
// Absolute times compare only between runs with the same record; ratios
// compare across hosts.
type hostRecord struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
}

// host prints the run's host record as one JSON line.
func (r *report) host(cfg runConfig) {
	rec := hostRecord{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintf(r.out, "host   %s\n", b)
}

// cpuTimes returns the host's stolen and total CPU time in clock ticks
// from the first line of /proc/stat, or ok false where there is none.
// Time stolen by the hypervisor slows every wall-clock figure of a run
// without any change in the program.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		var n uint64
		if _, err := fmt.Sscan(v, &n); err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealShare returns the share of the host's CPU time stolen since
// steal0 and total0 were read.
func stealShare(steal0, total0 uint64) (float64, bool) {
	steal, total, ok := cpuTimes()
	if !ok || total <= total0 {
		return 0, false
	}
	return float64(steal-steal0) / float64(total-total0), true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD of the repository at root without running
// git; a checkout without .git reports "none" and is identified by
// source_sha256 instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden and build directories), so a result names the exact code it
// measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
