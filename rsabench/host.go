package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// host stamps a result with the machine and source it was measured on.
// Results are comparable only between runs with the same stamp (less the
// commit under comparison).
type host struct {
	CPUs       int    `json:"cpus"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Commit is the VCS revision the binary was built from ("unknown" when
	// built outside a git checkout). SourceSHA256 digests every Go source
	// and go.mod under the working directory, so a result measured in an
	// exported tree without history still names the code it measured.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func stampHost() host {
	h := host{
		CPUs:       runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+modified"
		}
	}
	h.SourceSHA256 = sourceDigest(".")
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and contents of every .go and go.mod file
// under root, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	sum := sha256.New()
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(sum, path+"\x00")
		_, _ = io.Copy(sum, f)
		return nil
	})
	return hex.EncodeToString(sum.Sum(nil))
}
